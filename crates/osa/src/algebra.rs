//! Finite order-sorted algebras and the ground-term algebra.
//!
//! An [`Algebra`] interprets every sort as a finite carrier of opaque
//! elements and every operator as a total function on those carriers,
//! with carriers respecting the subsort inclusions. Equation
//! satisfaction is checked by enumerating all assignments of carrier
//! elements to variables — adequate for the small models the ontonomy
//! layer constructs.
//!
//! [`GroundAlgebra`] is the initial-algebra construction: ground terms
//! quotiented by the congruence generated by the theory's equations
//! (computed via confluent rewriting to normal forms).

use crate::error::{OsaError, Result};
use crate::rewrite::RewriteSystem;
use crate::signature::{OpId, Signature};
use crate::sort::SortId;
use crate::term::{Substitution, Term};
use crate::theory::Theory;
use std::collections::BTreeMap;

/// An element of an algebra's carrier (opaque dense id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Elem(pub u32);

/// Builder for a finite [`Algebra`].
#[derive(Debug, Clone)]
pub struct AlgebraBuilder {
    signature: Signature,
    names: Vec<String>,
    carriers: Vec<Vec<Elem>>,
    ops: BTreeMap<OpId, BTreeMap<Vec<Elem>, Elem>>,
}

impl AlgebraBuilder {
    /// Start building a model of `signature`.
    pub fn new(signature: Signature) -> Self {
        let n = signature.poset().len();
        AlgebraBuilder {
            signature,
            names: vec![],
            carriers: vec![vec![]; n],
            ops: BTreeMap::new(),
        }
    }

    /// Create a named element and place it in the carrier of `sort`
    /// *and every supersort* (inclusions are maintained automatically).
    pub fn elem(&mut self, name: &str, sort: SortId) -> Elem {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            let e = Elem(i as u32);
            self.place(e, sort);
            return e;
        }
        self.names.push(name.to_string());
        let e = Elem((self.names.len() - 1) as u32);
        self.place(e, sort);
        e
    }

    fn place(&mut self, e: Elem, sort: SortId) {
        for sup in self.signature.poset().upper_bounds(sort) {
            let c = &mut self.carriers[sup.index()];
            if !c.contains(&e) {
                c.push(e);
            }
        }
    }

    /// Define the interpretation of `op` on one argument tuple.
    pub fn interpret(&mut self, op: OpId, args: &[Elem], result: Elem) {
        self.ops
            .entry(op)
            .or_default()
            .insert(args.to_vec(), result);
    }

    /// Validate totality and inclusion conditions, then freeze.
    pub fn finish(self) -> Result<Algebra> {
        let alg = Algebra {
            signature: self.signature,
            names: self.names,
            carriers: self.carriers,
            ops: self.ops,
        };
        alg.check_totality()?;
        Ok(alg)
    }
}

/// A finite order-sorted algebra.
#[derive(Debug, Clone)]
pub struct Algebra {
    signature: Signature,
    names: Vec<String>,
    carriers: Vec<Vec<Elem>>,
    ops: BTreeMap<OpId, BTreeMap<Vec<Elem>, Elem>>,
}

impl Algebra {
    /// The signature this algebra models.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The carrier of a sort.
    pub fn carrier(&self, s: SortId) -> &[Elem] {
        &self.carriers[s.index()]
    }

    /// The name of an element.
    pub fn elem_name(&self, e: Elem) -> &str {
        &self.names[e.0 as usize]
    }

    /// Apply an operator interpretation.
    pub fn apply(&self, op: OpId, args: &[Elem]) -> Option<Elem> {
        self.ops.get(&op)?.get(args).copied()
    }

    /// Every operator must be total on the carriers of its declared
    /// argument sorts, and land in the carrier of its result sort.
    fn check_totality(&self) -> Result<()> {
        for (op, decl) in self.signature.ops() {
            let tuples = cartesian(
                &decl
                    .args
                    .iter()
                    .map(|&s| self.carrier(s).to_vec())
                    .collect::<Vec<_>>(),
            );
            for tup in tuples {
                match self.apply(op, &tup) {
                    None => {
                        return Err(OsaError::BadInterpretation {
                            op: decl.name.clone(),
                            detail: format!("undefined on {tup:?}"),
                        })
                    }
                    Some(r) => {
                        if !self.carrier(decl.result).contains(&r) {
                            return Err(OsaError::BadInterpretation {
                                op: decl.name.clone(),
                                detail: format!(
                                    "lands outside carrier of '{}'",
                                    self.signature.poset().name(decl.result)
                                ),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluate a term under an assignment of elements to variables.
    pub fn eval(&self, t: &Term, env: &BTreeMap<String, Elem>) -> Result<Elem> {
        match t {
            Term::Var { name, .. } => {
                env.get(name)
                    .copied()
                    .ok_or_else(|| OsaError::BadInterpretation {
                        op: name.clone(),
                        detail: "unbound variable".into(),
                    })
            }
            Term::App { op, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                self.apply(*op, &vals)
                    .ok_or_else(|| OsaError::BadInterpretation {
                        op: self.signature.op(*op).name.clone(),
                        detail: format!("undefined on {vals:?}"),
                    })
            }
        }
    }

    /// Does this algebra satisfy the equation for every assignment?
    pub fn satisfies(&self, eq: &crate::equation::Equation) -> Result<bool> {
        let vars: Vec<(String, SortId)> = {
            let mut v = eq.lhs.vars();
            v.extend(eq.rhs.vars());
            v.into_iter().collect()
        };
        let domains: Vec<Vec<Elem>> = vars
            .iter()
            .map(|(_, s)| self.carrier(*s).to_vec())
            .collect();
        for tup in cartesian(&domains) {
            let env: BTreeMap<String, Elem> = vars
                .iter()
                .map(|(n, _)| n.clone())
                .zip(tup.iter().copied())
                .collect();
            if self.eval(&eq.lhs, &env)? != self.eval(&eq.rhs, &env)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Verify that this algebra is a model of `theory` (same signature
    /// and all equations satisfied).
    pub fn check_against(&self, theory: &Theory) -> Result<()> {
        for eq in theory.equations() {
            if !self.satisfies(eq)? {
                return Err(OsaError::BadInterpretation {
                    op: "<theory>".into(),
                    detail: format!("equation {} not satisfied", eq.display(theory.signature())),
                });
            }
        }
        Ok(())
    }
}

/// The ground-term algebra of a theory, with equality decided by
/// rewriting to normal form (initial algebra for confluent,
/// terminating presentations).
#[derive(Debug, Clone)]
pub struct GroundAlgebra {
    rs: RewriteSystem,
    budget: usize,
}

impl GroundAlgebra {
    /// Build from a theory whose equations orient into rules.
    pub fn new(theory: &Theory, budget: usize) -> Result<Self> {
        Ok(GroundAlgebra {
            rs: RewriteSystem::from_theory(theory)?,
            budget,
        })
    }

    /// The canonical representative (normal form) of a ground term.
    pub fn canon(&self, t: &Term) -> Result<Term> {
        self.rs.normal_form(t, self.budget)
    }

    /// Equality in the initial algebra.
    pub fn equal(&self, a: &Term, b: &Term) -> Result<bool> {
        self.rs.ground_equal(a, b, self.budget)
    }

    /// Distinct elements of a sort, as canonical ground terms, up to a
    /// construction depth.
    pub fn elements_of(&self, sort: SortId, max_depth: usize, max: usize) -> Result<Vec<Term>> {
        let mut canon_set: Vec<Term> = vec![];
        for t in self.rs.ground_terms_of_sort(sort, max_depth, max * 8) {
            let c = self.canon(&t)?;
            if !canon_set.contains(&c) {
                canon_set.push(c);
                if canon_set.len() >= max {
                    break;
                }
            }
        }
        Ok(canon_set)
    }

    /// Evaluate a ground substitution instance of an equation.
    pub fn satisfies_ground_instance(
        &self,
        eq: &crate::equation::Equation,
        subst: &Substitution,
    ) -> Result<bool> {
        self.equal(&eq.lhs.substitute(subst), &eq.rhs.substitute(subst))
    }
}

/// Cartesian product of element domains (empty product = one empty tuple).
fn cartesian(domains: &[Vec<Elem>]) -> Vec<Vec<Elem>> {
    let mut out = vec![vec![]];
    for d in domains {
        let mut next = Vec::with_capacity(out.len() * d.len());
        for prefix in &out {
            for &e in d {
                let mut p = prefix.clone();
                p.push(e);
                next.push(p);
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equation::Equation;
    use crate::signature::SignatureBuilder;

    /// Z2 = ({0,1}, +) as a one-sorted algebra.
    fn z2() -> (Theory, Algebra) {
        let mut b = SignatureBuilder::new();
        let s = b.sort("Z2");
        let zero = b.op("zero", &[], s);
        let plus = b.op("plus", &[s, s], s);
        let sig = b.finish().unwrap();

        let mut ab = AlgebraBuilder::new(sig.clone());
        let e0 = ab.elem("0", s);
        let e1 = ab.elem("1", s);
        ab.interpret(zero, &[], e0);
        ab.interpret(plus, &[e0, e0], e0);
        ab.interpret(plus, &[e0, e1], e1);
        ab.interpret(plus, &[e1, e0], e1);
        ab.interpret(plus, &[e1, e1], e0);
        let alg = ab.finish().unwrap();

        let mut th = Theory::new(sig);
        let x = Term::var("x", s);
        // x + 0 = x
        th.add_equation(Equation::new(
            Term::app(plus, vec![x.clone(), Term::constant(zero)]),
            x.clone(),
        ))
        .unwrap();
        (th, alg)
    }

    #[test]
    fn z2_satisfies_unit_law() {
        let (th, alg) = z2();
        assert!(alg.check_against(&th).is_ok());
    }

    #[test]
    fn z2_violates_wrong_law() {
        let (th, alg) = z2();
        let sig = th.signature().clone();
        let s = sig.poset().by_name("Z2").unwrap();
        let plus = sig.resolve("plus", &[s, s]).unwrap();
        let zero = sig.resolve("zero", &[]).unwrap();
        // x + x = x is false in Z2 (1+1 = 0 ≠ 1).
        let x = Term::var("x", s);
        let bad = Equation::new(Term::app(plus, vec![x.clone(), x.clone()]), x.clone());
        assert!(!alg.satisfies(&bad).unwrap());
        // x + x = 0 is true in Z2.
        let good = Equation::new(
            Term::app(plus, vec![x.clone(), x.clone()]),
            Term::constant(zero),
        );
        assert!(alg.satisfies(&good).unwrap());
    }

    #[test]
    fn partial_interpretation_rejected() {
        let mut b = SignatureBuilder::new();
        let s = b.sort("S");
        let f = b.op("f", &[s], s);
        let c = b.op("c", &[], s);
        let sig = b.finish().unwrap();
        let mut ab = AlgebraBuilder::new(sig);
        let e = ab.elem("e", s);
        ab.interpret(c, &[], e);
        // f left undefined on e
        let _ = f;
        assert!(ab.finish().is_err());
    }

    #[test]
    fn subsort_carriers_are_included() {
        let mut b = SignatureBuilder::new();
        let nat = b.sort("Nat");
        let nz = b.sort("NzNat");
        b.subsort(nz, nat);
        let sig = b.finish().unwrap();
        let mut ab = AlgebraBuilder::new(sig);
        let one = ab.elem("1", nz);
        let zero = ab.elem("0", nat);
        let alg = ab.finish().unwrap();
        let nat_c = alg.carrier(nat);
        assert!(nat_c.contains(&one) && nat_c.contains(&zero));
        let nz_c = alg.carrier(nz);
        assert!(nz_c.contains(&one) && !nz_c.contains(&zero));
    }

    #[test]
    fn ground_algebra_counts_distinct_naturals() {
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
            Term::app(succ, vec![Term::app(plus, vec![x, y])]),
        ))
        .unwrap();
        let ga = GroundAlgebra::new(&th, 1000).unwrap();
        let elems = ga.elements_of(nat, 4, 100).unwrap();
        // Normal forms of depth ≤ 4 are zero, s(zero), s(s(zero)), s³(zero)
        // — plus-terms all collapse into these.
        assert!(elems.len() >= 4);
        for e in &elems {
            assert!(e.is_ground());
            // canonical: no plus nodes remain
            assert!(ga.canon(e).unwrap() == *e);
        }
    }

    #[test]
    fn data_domain_construction_checks_model() {
        use crate::theory::DataDomain;
        let (th, alg) = z2();
        assert!(DataDomain::new(th.clone(), alg).is_ok());

        // A broken algebra: x + 0 = x fails.
        let sig = th.signature().clone();
        let s = sig.poset().by_name("Z2").unwrap();
        let zero = sig.resolve("zero", &[]).unwrap();
        let plus = sig.resolve("plus", &[s, s]).unwrap();
        let mut ab = AlgebraBuilder::new(sig);
        let e0 = ab.elem("0", s);
        let e1 = ab.elem("1", s);
        ab.interpret(zero, &[], e0);
        for (a, b_, r) in [(e0, e0, e1), (e0, e1, e1), (e1, e0, e1), (e1, e1, e1)] {
            ab.interpret(plus, &[a, b_], r);
        }
        let broken = ab.finish().unwrap();
        assert!(DataDomain::new(th, broken).is_err());
    }
}
