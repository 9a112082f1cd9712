//! Order-sorted term rewriting.
//!
//! Equations whose variables all occur on the left are oriented
//! left-to-right into rewrite rules. The engine provides normal forms
//! (leftmost-innermost), joinability tests, critical-pair computation
//! via syntactic unification, and a bounded local-confluence check —
//! everything needed to decide ground equality in the small equational
//! theories that the ontonomy layer builds.

use crate::equation::Equation;
use crate::error::{OsaError, Result};
use crate::signature::Signature;
use crate::term::{match_term, unify, Term};
use crate::theory::Theory;
use summa_guard::{Budget, Governed, Interrupt, Meter};

/// A compiled order-sorted rewrite system.
#[derive(Debug, Clone)]
pub struct RewriteSystem {
    signature: Signature,
    rules: Vec<Equation>,
}

/// A critical pair `(s, t)` arising from overlapping two rules, with
/// the overlap position recorded for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPair {
    /// One side of the peak.
    pub left: Term,
    /// The other side of the peak.
    pub right: Term,
    /// Index of the outer rule.
    pub outer_rule: usize,
    /// Index of the inner rule.
    pub inner_rule: usize,
    /// Position in the outer lhs where the inner lhs was overlapped.
    pub position: Vec<usize>,
}

impl RewriteSystem {
    /// Orient every equation of `theory` left-to-right.
    ///
    /// Fails with [`OsaError::InvalidRule`] when an equation has a
    /// variable left-hand side or introduces variables on the right.
    pub fn from_theory(theory: &Theory) -> Result<Self> {
        let mut rules = vec![];
        for eq in theory.equations() {
            if !eq.is_rule() {
                return Err(OsaError::InvalidRule {
                    detail: format!(
                        "equation {} cannot be oriented left-to-right",
                        eq.display(theory.signature())
                    ),
                });
            }
            rules.push(eq.clone());
        }
        Ok(RewriteSystem {
            signature: theory.signature().clone(),
            rules,
        })
    }

    /// The signature rules are interpreted over.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The oriented rules.
    pub fn rules(&self) -> &[Equation] {
        &self.rules
    }

    /// One rewrite step at the outermost applicable position
    /// (leftmost-innermost search order). `None` when `t` is in normal
    /// form.
    pub fn step(&self, t: &Term) -> Option<Term> {
        // innermost: try children first
        if let Term::App { op, args } = t {
            for (i, a) in args.iter().enumerate() {
                if let Some(a2) = self.step(a) {
                    let mut args = args.clone();
                    args[i] = a2;
                    return Some(Term::App { op: *op, args });
                }
            }
        }
        for rule in &self.rules {
            if let Some(subst) = match_term(&self.signature, &rule.lhs, t) {
                return Some(rule.rhs.substitute(&subst));
            }
        }
        None
    }

    /// Rewrite to normal form, giving up after `budget` steps:
    /// [`RewriteSystem::normal_form_metered`] under a `budget`-step
    /// [`Budget`], with any interrupt reported as
    /// [`OsaError::StepBudgetExceeded`].
    pub fn normal_form(&self, t: &Term, budget: usize) -> Result<Term> {
        let mut meter = Budget::new().with_steps(budget as u64).meter();
        self.normal_form_metered(t, &mut meter)
            .map_err(|_| OsaError::StepBudgetExceeded { budget })
    }

    /// Metered normalization: every rewrite step charges the shared
    /// meter. On interrupt the error carries the partially rewritten
    /// term (every step taken so far was a valid `=_E` step, so the
    /// partial is equal to the input modulo the theory). A term that
    /// happens to already be in normal form when the meter trips still
    /// counts as completed, so a `budget`-step meter allows up to
    /// `budget` rewrites and then a normal-form check.
    pub fn normal_form_metered(
        &self,
        t: &Term,
        meter: &mut Meter,
    ) -> std::result::Result<Term, (Term, Interrupt)> {
        let mut span = meter.span("osa.rewrite.nf");
        let mut cur = t.clone();
        let mut steps = 0u64;
        loop {
            if let Err(i) = meter.charge(1) {
                span.record("steps", steps);
                if self.step(&cur).is_none() {
                    return Ok(cur);
                }
                span.record("interrupted", true);
                return Err((cur, i));
            }
            meter.count("osa.rewrite.step", 1);
            match self.step(&cur) {
                Some(next) => {
                    steps += 1;
                    cur = next;
                }
                None => {
                    span.record("steps", steps);
                    return Ok(cur);
                }
            }
        }
    }

    /// Budget-governed normalization. `Exhausted`/`Cancelled` carry the
    /// partially rewritten term — a theory-equal reduct of the input,
    /// not necessarily a normal form.
    pub fn normal_form_governed(&self, t: &Term, budget: &Budget) -> Governed<Term> {
        let mut meter = budget.meter();
        match self.normal_form_metered(t, &mut meter) {
            Ok(nf) => Governed::Completed(nf),
            Err((partial, i)) => Governed::from_interrupt(i, Some(partial)),
        }
    }

    /// Joinability: do `a` and `b` reach the same normal form within
    /// `budget` steps each?
    pub fn joinable(&self, a: &Term, b: &Term, budget: usize) -> Result<bool> {
        Ok(self.normal_form(a, budget)? == self.normal_form(b, budget)?)
    }

    /// Metered joinability over one shared meter.
    pub fn joinable_metered(
        &self,
        a: &Term,
        b: &Term,
        meter: &mut Meter,
    ) -> std::result::Result<bool, Interrupt> {
        let na = self.normal_form_metered(a, meter).map_err(|(_, i)| i)?;
        let nb = self.normal_form_metered(b, meter).map_err(|(_, i)| i)?;
        Ok(na == nb)
    }

    /// Budget-governed ground equality. No meaningful partial verdict
    /// exists when normalization is cut short, so the partial is `None`.
    pub fn ground_equal_governed(&self, a: &Term, b: &Term, budget: &Budget) -> Governed<bool> {
        let mut meter = budget.meter();
        match self.joinable_metered(a, b, &mut meter) {
            Ok(eq) => Governed::Completed(eq),
            Err(i) => Governed::from_interrupt(i, None),
        }
    }

    /// Decide ground equality `a =_E b` for a confluent terminating
    /// system (sound always; complete under confluence + termination).
    pub fn ground_equal(&self, a: &Term, b: &Term, budget: usize) -> Result<bool> {
        self.joinable(a, b, budget)
    }

    /// All critical pairs between rules (including self-overlaps at
    /// non-root positions, and root overlaps of distinct rules).
    pub fn critical_pairs(&self) -> Vec<CriticalPair> {
        let mut out = vec![];
        for (i, outer) in self.rules.iter().enumerate() {
            let outer = outer.rename("_o");
            for (j, inner) in self.rules.iter().enumerate() {
                let inner = inner.rename("_i");
                for pos in outer.lhs.positions() {
                    let sub = outer.lhs.at(&pos).expect("position from enumeration");
                    if sub.is_var() {
                        continue; // variable overlaps are not critical
                    }
                    if i == j && pos.is_empty() {
                        continue; // trivial self-overlap at root
                    }
                    if let Some(mgu) = unify(&self.signature, sub, &inner.lhs) {
                        // Peak: outer.lhs·σ rewrites (a) by outer at root,
                        // (b) by inner at pos.
                        let peak = outer.lhs.substitute(&mgu);
                        let via_outer = outer.rhs.substitute(&mgu);
                        let via_inner = peak
                            .replace_at(&pos, inner.rhs.substitute(&mgu))
                            .expect("position valid in peak");
                        if via_outer != via_inner {
                            out.push(CriticalPair {
                                left: via_outer,
                                right: via_inner,
                                outer_rule: i,
                                inner_rule: j,
                                position: pos.clone(),
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Bounded local-confluence check: every critical pair must be
    /// joinable within `budget` steps. For terminating systems this is
    /// confluence (Newman's lemma). Returns the first non-joinable pair
    /// as a witness, `None` when locally confluent.
    pub fn local_confluence_counterexample(&self, budget: usize) -> Result<Option<CriticalPair>> {
        for cp in self.critical_pairs() {
            if !self.joinable(&cp.left, &cp.right, budget)? {
                return Ok(Some(cp));
            }
        }
        Ok(None)
    }

    /// Convenience wrapper around
    /// [`RewriteSystem::local_confluence_counterexample`].
    pub fn is_locally_confluent(&self, budget: usize) -> Result<bool> {
        Ok(self.local_confluence_counterexample(budget)?.is_none())
    }

    /// Budget-governed local-confluence check: all critical-pair
    /// joinability tests share one meter. The partial on interrupt is
    /// the verdict over the pairs examined so far (`None` = no
    /// counterexample *yet*), which is only a lower bound on the truth.
    pub fn local_confluence_counterexample_governed(
        &self,
        budget: &Budget,
    ) -> Governed<Option<CriticalPair>> {
        let mut meter = budget.meter();
        let _span = meter.span("osa.confluence");
        for cp in self.critical_pairs() {
            match self.joinable_metered(&cp.left, &cp.right, &mut meter) {
                Ok(true) => {}
                Ok(false) => return Governed::Completed(Some(cp)),
                Err(i) => return Governed::from_interrupt(i, Some(None)),
            }
        }
        Governed::Completed(None)
    }

    /// Enumerate all ground normal forms of a sort reachable from the
    /// signature's constants and constructors up to a depth bound —
    /// used by the ground algebra construction.
    pub fn ground_terms_of_sort(
        &self,
        sort: crate::sort::SortId,
        max_depth: usize,
        max_terms: usize,
    ) -> Vec<Term> {
        // Iterative deepening over applications.
        let mut by_sort: Vec<Vec<Term>> = vec![vec![]; self.signature.poset().len()];
        for depth in 1..=max_depth {
            let mut new_terms: Vec<(usize, Term)> = vec![];
            for (op, decl) in self.signature.ops() {
                if decl.args.is_empty() {
                    if depth == 1 {
                        new_terms.push((decl.result.index(), Term::constant(op)));
                    }
                    continue;
                }
                // Cartesian product of existing terms for each arg sort.
                let choices: Vec<Vec<Term>> = decl
                    .args
                    .iter()
                    .map(|&s| {
                        self.signature
                            .poset()
                            .lower_bounds(s)
                            .into_iter()
                            .flat_map(|ls| by_sort[ls.index()].iter().cloned())
                            .collect()
                    })
                    .collect();
                if choices.iter().any(Vec::is_empty) {
                    continue;
                }
                let mut idx = vec![0usize; choices.len()];
                loop {
                    let args: Vec<Term> = idx
                        .iter()
                        .zip(&choices)
                        .map(|(&i, c)| c[i].clone())
                        .collect();
                    let t = Term::app(op, args);
                    if t.depth() == depth {
                        new_terms.push((decl.result.index(), t));
                    }
                    // advance the odometer
                    let mut k = 0;
                    loop {
                        if k == idx.len() {
                            break;
                        }
                        idx[k] += 1;
                        if idx[k] < choices[k].len() {
                            break;
                        }
                        idx[k] = 0;
                        k += 1;
                    }
                    if k == idx.len() {
                        break;
                    }
                }
            }
            for (si, t) in new_terms {
                if !by_sort[si].contains(&t) {
                    by_sort[si].push(t);
                }
                if by_sort.iter().map(Vec::len).sum::<usize>() > max_terms {
                    break;
                }
            }
        }
        // Collect everything whose least sort is ≤ sort.
        let mut out: Vec<Term> = vec![];
        for ls in self.signature.poset().lower_bounds(sort) {
            for t in &by_sort[ls.index()] {
                if !out.contains(t) {
                    out.push(t.clone());
                }
            }
        }
        out.truncate(max_terms);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::SignatureBuilder;

    /// Peano naturals with addition.
    fn peano() -> (
        Theory,
        crate::sort::SortId,
        crate::signature::OpId,
        crate::signature::OpId,
        crate::signature::OpId,
    ) {
        let mut b = SignatureBuilder::new();
        let nat = b.sort("Nat");
        let zero = b.op("zero", &[], nat);
        let succ = b.op("succ", &[nat], nat);
        let plus = b.op("plus", &[nat, nat], nat);
        let sig = b.finish().unwrap();
        let mut th = Theory::new(sig);
        let x = Term::var("x", nat);
        let y = Term::var("y", nat);
        th.add_equation(Equation::new(
            Term::app(plus, vec![Term::constant(zero), y.clone()]),
            y.clone(),
        ))
        .unwrap();
        th.add_equation(Equation::new(
            Term::app(plus, vec![Term::app(succ, vec![x.clone()]), y.clone()]),
            Term::app(succ, vec![Term::app(plus, vec![x.clone(), y.clone()])]),
        ))
        .unwrap();
        (th, nat, zero, succ, plus)
    }

    fn num(n: usize, zero: crate::signature::OpId, succ: crate::signature::OpId) -> Term {
        let mut t = Term::constant(zero);
        for _ in 0..n {
            t = Term::app(succ, vec![t]);
        }
        t
    }

    #[test]
    fn addition_normalizes() {
        let (th, _nat, zero, succ, plus) = peano();
        let rs = RewriteSystem::from_theory(&th).unwrap();
        let t = Term::app(plus, vec![num(2, zero, succ), num(3, zero, succ)]);
        let nf = rs.normal_form(&t, 100).unwrap();
        assert_eq!(nf, num(5, zero, succ));
    }

    #[test]
    fn normal_form_is_idempotent() {
        let (th, _nat, zero, succ, plus) = peano();
        let rs = RewriteSystem::from_theory(&th).unwrap();
        let t = Term::app(plus, vec![num(1, zero, succ), num(1, zero, succ)]);
        let nf = rs.normal_form(&t, 100).unwrap();
        assert_eq!(rs.normal_form(&nf, 100).unwrap(), nf);
        assert!(rs.step(&nf).is_none());
    }

    #[test]
    fn ground_equality_decides() {
        let (th, _nat, zero, succ, plus) = peano();
        let rs = RewriteSystem::from_theory(&th).unwrap();
        // 2 + 3 = 1 + 4
        let a = Term::app(plus, vec![num(2, zero, succ), num(3, zero, succ)]);
        let b = Term::app(plus, vec![num(1, zero, succ), num(4, zero, succ)]);
        assert!(rs.ground_equal(&a, &b, 100).unwrap());
        let c = Term::app(plus, vec![num(2, zero, succ), num(2, zero, succ)]);
        assert!(!rs.ground_equal(&a, &c, 100).unwrap());
    }

    #[test]
    fn peano_has_no_critical_pairs() {
        let (th, ..) = peano();
        let rs = RewriteSystem::from_theory(&th).unwrap();
        assert!(rs.critical_pairs().is_empty());
        assert!(rs.is_locally_confluent(100).unwrap());
    }

    #[test]
    fn overlapping_rules_produce_joinable_pairs() {
        // Idempotent monoid fragment: f(e, x) = x and f(x, e) = x overlap
        // at f(e, e) — both reduce to e, so joinable.
        let mut b = SignatureBuilder::new();
        let m = b.sort("M");
        let e = b.op("e", &[], m);
        let f = b.op("f", &[m, m], m);
        let sig = b.finish().unwrap();
        let mut th = Theory::new(sig);
        let x = Term::var("x", m);
        th.add_equation(Equation::new(
            Term::app(f, vec![Term::constant(e), x.clone()]),
            x.clone(),
        ))
        .unwrap();
        th.add_equation(Equation::new(
            Term::app(f, vec![x.clone(), Term::constant(e)]),
            x.clone(),
        ))
        .unwrap();
        let rs = RewriteSystem::from_theory(&th).unwrap();
        let cps = rs.critical_pairs();
        // f(e,e) → e both ways: the pair is trivial (equal sides) so it
        // is filtered; local confluence holds.
        assert!(rs.is_locally_confluent(100).unwrap());
        let _ = cps;
    }

    #[test]
    fn non_confluent_system_is_detected() {
        // a → b, a → c with b, c distinct normal forms.
        let mut b_ = SignatureBuilder::new();
        let s = b_.sort("S");
        let a = b_.op("a", &[], s);
        let bb = b_.op("b", &[], s);
        let cc = b_.op("c", &[], s);
        let sig = b_.finish().unwrap();
        let mut th = Theory::new(sig);
        th.add_equation(Equation::new(Term::constant(a), Term::constant(bb)))
            .unwrap();
        th.add_equation(Equation::new(Term::constant(a), Term::constant(cc)))
            .unwrap();
        let rs = RewriteSystem::from_theory(&th).unwrap();
        let cex = rs.local_confluence_counterexample(10).unwrap();
        assert!(cex.is_some());
    }

    #[test]
    fn unorientable_equation_rejected() {
        let mut b = SignatureBuilder::new();
        let s = b.sort("S");
        let f = b.op("f", &[s], s);
        let sig = b.finish().unwrap();
        let mut th = Theory::new(sig);
        // f(x) = f(y): y not on the left.
        th.add_equation(Equation::new(
            Term::app(f, vec![Term::var("x", s)]),
            Term::app(f, vec![Term::var("y", s)]),
        ))
        .unwrap();
        assert!(RewriteSystem::from_theory(&th).is_err());
    }

    #[test]
    fn step_budget_exceeded_on_divergence() {
        // f(x) = f(f(x)) diverges.
        let mut b = SignatureBuilder::new();
        let s = b.sort("S");
        let c = b.op("c", &[], s);
        let f = b.op("f", &[s], s);
        let sig = b.finish().unwrap();
        let mut th = Theory::new(sig);
        let x = Term::var("x", s);
        th.add_equation(Equation::new(
            Term::app(f, vec![x.clone()]),
            Term::app(f, vec![Term::app(f, vec![x.clone()])]),
        ))
        .unwrap();
        let rs = RewriteSystem::from_theory(&th).unwrap();
        let t = Term::app(f, vec![Term::constant(c)]);
        assert!(matches!(
            rs.normal_form(&t, 50),
            Err(OsaError::StepBudgetExceeded { .. })
        ));
    }

    #[test]
    fn governed_normal_form_completes_like_legacy() {
        let (th, _nat, zero, succ, plus) = peano();
        let rs = RewriteSystem::from_theory(&th).unwrap();
        let t = Term::app(plus, vec![num(2, zero, succ), num(3, zero, succ)]);
        let g = rs.normal_form_governed(&t, &Budget::unlimited());
        assert_eq!(g.completed(), Some(num(5, zero, succ)));
    }

    #[test]
    fn governed_normal_form_exhausts_with_partial_on_divergence() {
        // f(x) = f(f(x)) diverges; a step budget must stop it with a
        // partially rewritten (theory-equal) term, not hang.
        let mut b = SignatureBuilder::new();
        let s = b.sort("S");
        let c = b.op("c", &[], s);
        let f = b.op("f", &[s], s);
        let sig = b.finish().unwrap();
        let mut th = Theory::new(sig);
        let x = Term::var("x", s);
        th.add_equation(Equation::new(
            Term::app(f, vec![x.clone()]),
            Term::app(f, vec![Term::app(f, vec![x.clone()])]),
        ))
        .unwrap();
        let rs = RewriteSystem::from_theory(&th).unwrap();
        let t = Term::app(f, vec![Term::constant(c)]);
        let g = rs.normal_form_governed(&t, &Budget::new().with_steps(50));
        match g {
            Governed::Exhausted { partial, .. } => {
                let partial = partial.expect("partial reduct available");
                // Every step grew the term by one `f`; the partial is a
                // genuine reduct of the input.
                assert!(partial.size() > t.size());
            }
            other => panic!("expected exhaustion, got {}", other.status()),
        }
        // Ground-equality under the same tiny budget also degrades.
        let g2 = rs.ground_equal_governed(&t, &Term::constant(c), &Budget::new().with_steps(10));
        assert!(!g2.is_completed());
    }

    #[test]
    fn governed_confluence_check_respects_budget() {
        let (th, ..) = peano();
        let rs = RewriteSystem::from_theory(&th).unwrap();
        let g = rs.local_confluence_counterexample_governed(&Budget::unlimited());
        assert_eq!(g.completed(), Some(None));
    }

    #[test]
    fn ground_enumeration_reaches_depth() {
        let (th, nat, ..) = peano();
        let rs = RewriteSystem::from_theory(&th).unwrap();
        let ts = rs.ground_terms_of_sort(nat, 3, 1000);
        // zero, succ(zero), succ(succ(zero)), plus-combinations at depth ≤ 3
        assert!(ts.iter().any(|t| t.depth() == 1));
        assert!(ts.iter().any(|t| t.depth() == 3));
        assert!(ts.iter().all(|t| t.is_ground()));
    }
}
