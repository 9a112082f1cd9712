//! Order-sorted terms: well-sortedness, least sorts, substitution,
//! matching and syntactic unification.

use crate::error::{OsaError, Result};
use crate::signature::{OpId, Signature};
use crate::sort::SortId;
use std::collections::BTreeMap;
use std::fmt;

/// A term over an order-sorted signature.
///
/// Variables carry their sort explicitly; applications reference a
/// concrete operator declaration ([`OpId`]), i.e. terms are stored in
/// *resolved* form (the overload has been picked). The least sort of a
/// term may still be smaller than the declared result sort when
/// arguments have smaller sorts — use [`Term::least_sort`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A sorted variable.
    Var { name: String, sort: SortId },
    /// An operator applied to arguments.
    App { op: OpId, args: Vec<Term> },
}

impl Term {
    /// Construct a variable term.
    pub fn var(name: &str, sort: SortId) -> Term {
        Term::Var {
            name: name.to_string(),
            sort,
        }
    }

    /// Construct an application term.
    pub fn app(op: OpId, args: Vec<Term>) -> Term {
        Term::App { op, args }
    }

    /// Construct a constant (nullary application).
    pub fn constant(op: OpId) -> Term {
        Term::App { op, args: vec![] }
    }

    /// True for variable terms.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var { .. })
    }

    /// True when the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var { .. } => false,
            Term::App { args, .. } => args.iter().all(Term::is_ground),
        }
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        match self {
            Term::Var { .. } => 1,
            Term::App { args, .. } => 1 + args.iter().map(Term::size).sum::<usize>(),
        }
    }

    /// Height of the term tree (a constant has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Term::Var { .. } => 1,
            Term::App { args, .. } => 1 + args.iter().map(Term::depth).max().unwrap_or(0),
        }
    }

    /// The set of variables, name → sort. Errors are not possible here;
    /// inconsistent re-use of a name at two sorts is caught by
    /// [`Term::well_sorted`].
    pub fn vars(&self) -> BTreeMap<String, SortId> {
        let mut out = BTreeMap::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeMap<String, SortId>) {
        match self {
            Term::Var { name, sort } => {
                out.insert(name.clone(), *sort);
            }
            Term::App { args, .. } => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// Check well-sortedness under `sig` and return the least sort.
    ///
    /// An application `f(t1…tn)` is well-sorted when each `ti` is
    /// well-sorted with least sort `si ≤` the declared argument sort,
    /// and a variable name is used at one sort only.
    pub fn well_sorted(&self, sig: &Signature) -> Result<SortId> {
        let mut seen: BTreeMap<String, SortId> = BTreeMap::new();
        self.well_sorted_inner(sig, &mut seen)
    }

    fn well_sorted_inner(
        &self,
        sig: &Signature,
        seen: &mut BTreeMap<String, SortId>,
    ) -> Result<SortId> {
        match self {
            Term::Var { name, sort } => {
                if let Some(&prev) = seen.get(name) {
                    if prev != *sort {
                        return Err(OsaError::IllSorted {
                            detail: format!("variable '{name}' used at two sorts"),
                        });
                    }
                } else {
                    seen.insert(name.clone(), *sort);
                }
                Ok(*sort)
            }
            Term::App { op, args } => {
                if op.index() >= sig.n_ops() {
                    return Err(OsaError::UnknownOp(format!("{op}")));
                }
                let decl = sig.op(*op);
                if decl.args.len() != args.len() {
                    return Err(OsaError::IllSorted {
                        detail: format!(
                            "'{}' expects {} arguments, got {}",
                            decl.name,
                            decl.args.len(),
                            args.len()
                        ),
                    });
                }
                let mut arg_sorts = Vec::with_capacity(args.len());
                for (a, &want) in args.iter().zip(&decl.args) {
                    let got = a.well_sorted_inner(sig, seen)?;
                    if !sig.poset().leq(got, want) {
                        return Err(OsaError::IllSorted {
                            detail: format!(
                                "argument of '{}' has sort '{}' but '{}' is required",
                                decl.name,
                                sig.poset().name(got),
                                sig.poset().name(want)
                            ),
                        });
                    }
                    arg_sorts.push(got);
                }
                // Least sort parse: the overload set may assign a smaller
                // result than this declaration's.
                sig.least_result(&decl.name, &arg_sorts)
                    .ok_or_else(|| OsaError::IllSorted {
                        detail: format!("no least sort for '{}'", decl.name),
                    })
            }
        }
    }

    /// Least sort, assuming the term is well-sorted (panics otherwise in
    /// debug; prefer [`Term::well_sorted`] on untrusted input).
    pub fn least_sort(&self, sig: &Signature) -> SortId {
        self.well_sorted(sig)
            .expect("least_sort called on ill-sorted term")
    }

    /// Apply a substitution.
    pub fn substitute(&self, subst: &Substitution) -> Term {
        match self {
            Term::Var { name, .. } => subst.get(name).cloned().unwrap_or_else(|| self.clone()),
            Term::App { op, args } => Term::App {
                op: *op,
                args: args.iter().map(|a| a.substitute(subst)).collect(),
            },
        }
    }

    /// All positions in the term (paths of argument indices), preorder.
    pub fn positions(&self) -> Vec<Vec<usize>> {
        let mut out = vec![];
        self.positions_inner(&mut vec![], &mut out);
        out
    }

    fn positions_inner(&self, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        out.push(path.clone());
        if let Term::App { args, .. } = self {
            for (i, a) in args.iter().enumerate() {
                path.push(i);
                a.positions_inner(path, out);
                path.pop();
            }
        }
    }

    /// Subterm at a position (`None` when the path is invalid).
    pub fn at(&self, pos: &[usize]) -> Option<&Term> {
        let mut cur = self;
        for &i in pos {
            match cur {
                Term::App { args, .. } => cur = args.get(i)?,
                Term::Var { .. } => return None,
            }
        }
        Some(cur)
    }

    /// Replace the subterm at `pos` with `new`, returning the result.
    pub fn replace_at(&self, pos: &[usize], new: Term) -> Option<Term> {
        if pos.is_empty() {
            return Some(new);
        }
        match self {
            Term::App { op, args } => {
                let i = pos[0];
                let child = args.get(i)?.replace_at(&pos[1..], new)?;
                let mut args = args.clone();
                args[i] = child;
                Some(Term::App { op: *op, args })
            }
            Term::Var { .. } => None,
        }
    }

    /// Rename every variable by applying `f` to its name.
    pub fn rename_vars(&self, f: &impl Fn(&str) -> String) -> Term {
        match self {
            Term::Var { name, sort } => Term::Var {
                name: f(name),
                sort: *sort,
            },
            Term::App { op, args } => Term::App {
                op: *op,
                args: args.iter().map(|a| a.rename_vars(f)).collect(),
            },
        }
    }

    /// Pretty-print against a signature (resolving op names).
    pub fn display<'a>(&'a self, sig: &'a Signature) -> TermDisplay<'a> {
        TermDisplay { term: self, sig }
    }
}

/// Pretty-printer for [`Term`] (see [`Term::display`]).
pub struct TermDisplay<'a> {
    term: &'a Term,
    sig: &'a Signature,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.term {
            Term::Var { name, sort } => {
                write!(f, "{name}:{}", self.sig.poset().name(*sort))
            }
            Term::App { op, args } => {
                write!(f, "{}", self.sig.op(*op).name)?;
                if !args.is_empty() {
                    write!(f, "(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{}", a.display(self.sig))?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

/// A substitution: variable name → term.
pub type Substitution = BTreeMap<String, Term>;

/// Sort-respecting matching: find `σ` with `pattern·σ = subject`.
///
/// The subject is typically ground but need not be. A variable `x:s`
/// matches a subject `t` only when `least_sort(t) ≤ s`.
pub fn match_term(sig: &Signature, pattern: &Term, subject: &Term) -> Option<Substitution> {
    let mut subst = Substitution::new();
    if match_into(sig, pattern, subject, &mut subst) {
        Some(subst)
    } else {
        None
    }
}

fn match_into(sig: &Signature, pattern: &Term, subject: &Term, subst: &mut Substitution) -> bool {
    match pattern {
        Term::Var { name, sort } => {
            let ssort = match subject.well_sorted(sig) {
                Ok(s) => s,
                Err(_) => return false,
            };
            if !sig.poset().leq(ssort, *sort) {
                return false;
            }
            match subst.get(name) {
                Some(bound) => bound == subject,
                None => {
                    subst.insert(name.clone(), subject.clone());
                    true
                }
            }
        }
        Term::App {
            op: pop,
            args: pargs,
        } => match subject {
            Term::App {
                op: sop,
                args: sargs,
            } => {
                // Overloads of the same name are treated as the same
                // symbol for matching purposes.
                if sig.op(*pop).name != sig.op(*sop).name || pargs.len() != sargs.len() {
                    return false;
                }
                pargs
                    .iter()
                    .zip(sargs)
                    .all(|(p, s)| match_into(sig, p, s, subst))
            }
            Term::Var { .. } => false,
        },
    }
}

/// Sort-respecting syntactic unification (for critical pairs).
///
/// Returns a most general unifier when one exists. A binding `x:s ↦ t`
/// is admitted when `least_sort(t) ≤ s`; when two variables of
/// incomparable sorts meet, unification fails (we do not introduce
/// fresh glb-sorted variables — enough for the confluence analysis on
/// the theories used in this reproduction).
pub fn unify(sig: &Signature, a: &Term, b: &Term) -> Option<Substitution> {
    let mut subst = Substitution::new();
    let mut stack = vec![(a.clone(), b.clone())];
    while let Some((s, t)) = stack.pop() {
        let s = s.substitute(&subst);
        let t = t.substitute(&subst);
        if s == t {
            continue;
        }
        match (s, t) {
            (Term::Var { name, sort }, other) | (other, Term::Var { name, sort }) => {
                if occurs(&name, &other) {
                    return None;
                }
                let osort = other.well_sorted(sig).ok()?;
                if !sig.poset().leq(osort, sort) {
                    return None;
                }
                // Compose: apply the new binding to existing bindings.
                let single: Substitution = [(name.clone(), other.clone())].into_iter().collect();
                for v in subst.values_mut() {
                    *v = v.substitute(&single);
                }
                subst.insert(name, other);
            }
            (Term::App { op: o1, args: a1 }, Term::App { op: o2, args: a2 }) => {
                if sig.op(o1).name != sig.op(o2).name || a1.len() != a2.len() {
                    return None;
                }
                for (x, y) in a1.into_iter().zip(a2) {
                    stack.push((x, y));
                }
            }
        }
    }
    Some(subst)
}

fn occurs(name: &str, t: &Term) -> bool {
    match t {
        Term::Var { name: n, .. } => n == name,
        Term::App { args, .. } => args.iter().any(|a| occurs(name, a)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::SignatureBuilder;

    fn nat_sig() -> (Signature, SortId, OpId, OpId, OpId) {
        let mut b = SignatureBuilder::new();
        let nat = b.sort("Nat");
        let nz = b.sort("NzNat");
        b.subsort(nz, nat);
        let zero = b.op("zero", &[], nat);
        let succ = b.op("succ", &[nat], nz);
        let plus = b.op("plus", &[nat, nat], nat);
        (b.finish().unwrap(), nat, zero, succ, plus)
    }

    #[test]
    fn least_sort_shrinks_with_arguments() {
        let (sig, _nat, zero, succ, _plus) = nat_sig();
        let z = Term::constant(zero);
        let one = Term::app(succ, vec![z.clone()]);
        // zero : Nat, succ(zero) : NzNat
        assert_eq!(sig.poset().name(z.least_sort(&sig)), "Nat");
        assert_eq!(sig.poset().name(one.least_sort(&sig)), "NzNat");
    }

    #[test]
    fn ill_sorted_arity_rejected() {
        let (sig, _nat, zero, succ, _plus) = nat_sig();
        let bad = Term::app(succ, vec![Term::constant(zero), Term::constant(zero)]);
        assert!(bad.well_sorted(&sig).is_err());
    }

    #[test]
    fn variable_sort_conflict_rejected() {
        let (sig, nat, _zero, _succ, plus) = nat_sig();
        let nz = sig.poset().by_name("NzNat").unwrap();
        let t = Term::app(plus, vec![Term::var("x", nat), Term::var("x", nz)]);
        assert!(t.well_sorted(&sig).is_err());
    }

    #[test]
    fn substitution_replaces_all_occurrences() {
        let (sig, nat, zero, _succ, plus) = nat_sig();
        let x = Term::var("x", nat);
        let t = Term::app(plus, vec![x.clone(), x.clone()]);
        let mut s = Substitution::new();
        s.insert("x".into(), Term::constant(zero));
        let r = t.substitute(&s);
        assert!(r.is_ground());
        assert_eq!(r.size(), 3);
        assert!(r.well_sorted(&sig).is_ok());
    }

    #[test]
    fn positions_and_replace() {
        let (_sig, nat, zero, succ, plus) = nat_sig();
        let t = Term::app(
            plus,
            vec![
                Term::app(succ, vec![Term::constant(zero)]),
                Term::var("y", nat),
            ],
        );
        let pos = t.positions();
        assert_eq!(pos.len(), 4); // root, succ, zero, y
        assert_eq!(t.at(&[0, 0]), Some(&Term::constant(zero)));
        let t2 = t.replace_at(&[1], Term::constant(zero)).unwrap();
        assert!(t2.is_ground());
        assert!(t.at(&[2]).is_none());
        assert!(t.replace_at(&[0, 0, 0], Term::var("z", nat)).is_none());
    }

    #[test]
    fn matching_respects_sorts() {
        let (sig, nat, zero, succ, _plus) = nat_sig();
        let nz = sig.poset().by_name("NzNat").unwrap();
        // pattern x:NzNat cannot match zero (least sort Nat ≰ NzNat)...
        let pat = Term::var("x", nz);
        assert!(match_term(&sig, &pat, &Term::constant(zero)).is_none());
        // ...but matches succ(zero).
        let one = Term::app(succ, vec![Term::constant(zero)]);
        let m = match_term(&sig, &pat, &one).unwrap();
        assert_eq!(m["x"], one);
        // and x:Nat matches both.
        let pat2 = Term::var("x", nat);
        assert!(match_term(&sig, &pat2, &Term::constant(zero)).is_some());
    }

    #[test]
    fn matching_is_consistent_across_occurrences() {
        let (sig, nat, zero, succ, plus) = nat_sig();
        let x = Term::var("x", nat);
        let pat = Term::app(plus, vec![x.clone(), x.clone()]);
        let one = Term::app(succ, vec![Term::constant(zero)]);
        let same = Term::app(plus, vec![one.clone(), one.clone()]);
        let diff = Term::app(plus, vec![one.clone(), Term::constant(zero)]);
        assert!(match_term(&sig, &pat, &same).is_some());
        assert!(match_term(&sig, &pat, &diff).is_none());
    }

    #[test]
    fn unify_basic() {
        let (sig, nat, zero, succ, plus) = nat_sig();
        // plus(x, zero) =? plus(succ(y), z)
        let l = Term::app(plus, vec![Term::var("x", nat), Term::constant(zero)]);
        let r = Term::app(
            plus,
            vec![
                Term::app(succ, vec![Term::var("y", nat)]),
                Term::var("z", nat),
            ],
        );
        let mgu = unify(&sig, &l, &r).unwrap();
        assert_eq!(l.substitute(&mgu), r.substitute(&mgu));
    }

    #[test]
    fn unify_occurs_check() {
        let (sig, nat, _zero, succ, _plus) = nat_sig();
        let x = Term::var("x", nat);
        let sx = Term::app(succ, vec![x.clone()]);
        assert!(unify(&sig, &x, &sx).is_none());
    }

    #[test]
    fn unify_respects_sorts() {
        let (sig, _nat, zero, _succ, _plus) = nat_sig();
        let nz = sig.poset().by_name("NzNat").unwrap();
        // x:NzNat =? zero  fails: zero's sort Nat ≰ NzNat.
        assert!(unify(&sig, &Term::var("x", nz), &Term::constant(zero)).is_none());
    }

    #[test]
    fn display_renders_names() {
        let (sig, nat, zero, succ, plus) = nat_sig();
        let t = Term::app(
            plus,
            vec![
                Term::app(succ, vec![Term::constant(zero)]),
                Term::var("y", nat),
            ],
        );
        assert_eq!(format!("{}", t.display(&sig)), "plus(succ(zero), y:Nat)");
    }

    #[test]
    fn rename_vars_applies_function() {
        let (_sig, nat, _zero, _succ, plus) = nat_sig();
        let t = Term::app(plus, vec![Term::var("x", nat), Term::var("y", nat)]);
        let r = t.rename_vars(&|n| format!("{n}'"));
        let vars = r.vars();
        assert!(vars.contains_key("x'") && vars.contains_key("y'"));
    }
}
