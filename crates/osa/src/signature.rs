//! Order-sorted signatures with overloaded operators.
//!
//! A signature pairs a [`SortPoset`] with a family of operator
//! declarations. The same operator *name* may be declared at several
//! *ranks* `w → s` (subsort overloading); the classical coherence
//! conditions — monotonicity and preregularity — are checked when the
//! signature is finished, so every well-formed term has a least sort.

use crate::error::{OsaError, Result};
use crate::sort::{SortId, SortPoset, SortPosetBuilder};
use std::fmt;

/// Identifier of one operator *declaration* (one rank of a possibly
/// overloaded name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u32);

impl OpId {
    /// Dense index into the signature's operator table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// One operator declaration: `name : arg_sorts → result`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpDecl {
    /// Operator name (shared across overloads).
    pub name: String,
    /// Argument sorts (the *arity string* `w`).
    pub args: Vec<SortId>,
    /// Result sort `s`.
    pub result: SortId,
}

impl OpDecl {
    /// True for constants (empty arity).
    pub fn is_constant(&self) -> bool {
        self.args.is_empty()
    }
}

/// Builder that interns sorts and operators, then validates coherence.
#[derive(Debug, Default, Clone)]
pub struct SignatureBuilder {
    sorts: SortPosetBuilder,
    ops: Vec<OpDecl>,
}

impl SignatureBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a sort by name.
    pub fn sort(&mut self, name: &str) -> SortId {
        self.sorts.sort(name)
    }

    /// Declare `sub ≤ sup`.
    pub fn subsort(&mut self, sub: SortId, sup: SortId) {
        self.sorts.subsort(sub, sup);
    }

    /// Declare an operator rank. Repeated identical declarations are
    /// deduplicated; distinct ranks with the same name are overloads.
    pub fn op(&mut self, name: &str, args: &[SortId], result: SortId) -> OpId {
        let decl = OpDecl {
            name: name.to_string(),
            args: args.to_vec(),
            result,
        };
        if let Some(i) = self.ops.iter().position(|d| *d == decl) {
            return OpId(i as u32);
        }
        self.ops.push(decl);
        OpId((self.ops.len() - 1) as u32)
    }

    /// Validate the poset and the overloading conditions and freeze.
    pub fn finish(self) -> Result<Signature> {
        let poset = self.sorts.finish()?;
        let sig = Signature {
            poset,
            ops: self.ops,
        };
        sig.check_monotonicity()?;
        sig.check_preregularity()?;
        Ok(sig)
    }
}

/// An immutable, validated order-sorted signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    poset: SortPoset,
    ops: Vec<OpDecl>,
}

impl Signature {
    /// The sort poset.
    pub fn poset(&self) -> &SortPoset {
        &self.poset
    }

    /// Number of operator declarations (counting each overload).
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// Fetch one declaration.
    pub fn op(&self, id: OpId) -> &OpDecl {
        &self.ops[id.index()]
    }

    /// All declarations, in declaration order.
    pub fn ops(&self) -> impl Iterator<Item = (OpId, &OpDecl)> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, d)| (OpId(i as u32), d))
    }

    /// All ranks declared under a name.
    pub fn overloads<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (OpId, &'a OpDecl)> {
        self.ops().filter(move |(_, d)| d.name == name)
    }

    /// Constants whose result sort is `≤ s`.
    pub fn constants_of(&self, s: SortId) -> Vec<OpId> {
        self.ops()
            .filter(|(_, d)| d.is_constant() && self.poset.leq(d.result, s))
            .map(|(i, _)| i)
            .collect()
    }

    /// Monotonicity: for two ranks `w1 → s1`, `w2 → s2` of the same name
    /// with `|w1| = |w2|` and `w1 ≤ w2` componentwise, require `s1 ≤ s2`.
    fn check_monotonicity(&self) -> Result<()> {
        for (i, d1) in self.ops.iter().enumerate() {
            for d2 in self.ops.iter().skip(i + 1) {
                if d1.name != d2.name || d1.args.len() != d2.args.len() {
                    continue;
                }
                if self.poset.leq_seq(&d1.args, &d2.args) && !self.poset.leq(d1.result, d2.result) {
                    return Err(OsaError::NonMonotoneOverload {
                        op: d1.name.clone(),
                    });
                }
                if self.poset.leq_seq(&d2.args, &d1.args) && !self.poset.leq(d2.result, d1.result) {
                    return Err(OsaError::NonMonotoneOverload {
                        op: d1.name.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Preregularity: for every name and every argument-sort string `w`
    /// for which *some* rank `w' ≥ w` applies, the set of applicable
    /// result sorts has a least element. Violations can only arise at
    /// (or below) componentwise meets of pairs of declared ranks, so we
    /// check every declared string and every glb-combination of every
    /// pair of same-name same-arity ranks.
    fn check_preregularity(&self) -> Result<()> {
        let mut candidates: Vec<(String, Vec<SortId>)> = self
            .ops
            .iter()
            .map(|d| (d.name.clone(), d.args.clone()))
            .collect();
        for (i, d1) in self.ops.iter().enumerate() {
            for d2 in self.ops.iter().skip(i + 1) {
                if d1.name != d2.name || d1.args.len() != d2.args.len() {
                    continue;
                }
                // glb choices per position
                let choices: Vec<Vec<SortId>> = d1
                    .args
                    .iter()
                    .zip(&d2.args)
                    .map(|(&a, &b)| self.poset.glbs(a, b))
                    .collect();
                if choices.iter().any(Vec::is_empty) {
                    continue; // ranks never jointly applicable
                }
                let mut tuples = vec![vec![]];
                for c in &choices {
                    let mut next = vec![];
                    for pre in &tuples {
                        for &s in c {
                            let mut p: Vec<SortId> = pre.clone();
                            p.push(s);
                            next.push(p);
                        }
                    }
                    tuples = next;
                }
                for t in tuples {
                    candidates.push((d1.name.clone(), t));
                }
            }
        }
        for (name, w) in candidates {
            let applicable: Vec<SortId> = self
                .ops
                .iter()
                .filter(|d2| {
                    d2.name == name && d2.args.len() == w.len() && self.poset.leq_seq(&w, &d2.args)
                })
                .map(|d2| d2.result)
                .collect();
            if applicable.is_empty() {
                continue;
            }
            if self.poset.least(&applicable).is_none() {
                return Err(OsaError::NotPreregular { op: name });
            }
        }
        Ok(())
    }

    /// The least result sort of `name` applicable to argument sorts
    /// `args` (least sort parse). `None` when no rank applies.
    pub fn least_result(&self, name: &str, args: &[SortId]) -> Option<SortId> {
        let applicable: Vec<SortId> = self
            .ops
            .iter()
            .filter(|d| {
                d.name == name && d.args.len() == args.len() && self.poset.leq_seq(args, &d.args)
            })
            .map(|d| d.result)
            .collect();
        if applicable.is_empty() {
            None
        } else {
            self.poset.least(&applicable)
        }
    }

    /// Resolve an op id for `name` applicable at exactly the given
    /// argument sorts, preferring the least rank.
    pub fn resolve(&self, name: &str, args: &[SortId]) -> Option<OpId> {
        let mut best: Option<(OpId, &OpDecl)> = None;
        for (id, d) in self.overloads(name) {
            if d.args.len() == args.len() && self.poset.leq_seq(args, &d.args) {
                best = match best {
                    None => Some((id, d)),
                    Some((bid, bd)) => {
                        if self.poset.leq(d.result, bd.result) {
                            Some((id, d))
                        } else {
                            Some((bid, bd))
                        }
                    }
                };
            }
        }
        best.map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_signature() {
        let mut b = SignatureBuilder::new();
        let nat = b.sort("Nat");
        let zero = b.op("zero", &[], nat);
        let succ = b.op("succ", &[nat], nat);
        let sig = b.finish().unwrap();
        assert_eq!(sig.n_ops(), 2);
        assert!(sig.op(zero).is_constant());
        assert!(!sig.op(succ).is_constant());
    }

    #[test]
    fn op_interning_dedupes() {
        let mut b = SignatureBuilder::new();
        let nat = b.sort("Nat");
        let z1 = b.op("zero", &[], nat);
        let z2 = b.op("zero", &[], nat);
        assert_eq!(z1, z2);
    }

    #[test]
    fn overloading_with_subsorts() {
        // plus : Nat Nat -> Nat, plus : NzNat NzNat -> NzNat is monotone
        // (NzNat ≤ Nat and NzNat ≤ Nat).
        let mut b = SignatureBuilder::new();
        let nat = b.sort("Nat");
        let nz = b.sort("NzNat");
        b.subsort(nz, nat);
        b.op("plus", &[nat, nat], nat);
        b.op("plus", &[nz, nz], nz);
        let sig = b.finish().unwrap();
        assert_eq!(sig.least_result("plus", &[nz, nz]), Some(nz));
        assert_eq!(sig.least_result("plus", &[nz, nat]), Some(nat));
        assert_eq!(sig.least_result("plus", &[nat, nat]), Some(nat));
    }

    #[test]
    fn non_monotone_overload_rejected() {
        // f : Nz -> Nat but f : Nat -> Nz with Nz ≤ Nat: arguments get
        // bigger while result gets smaller — not monotone.
        let mut b = SignatureBuilder::new();
        let nat = b.sort("Nat");
        let nz = b.sort("NzNat");
        b.subsort(nz, nat);
        b.op("f", &[nz], nat);
        b.op("f", &[nat], nz);
        assert!(matches!(
            b.finish(),
            Err(OsaError::NonMonotoneOverload { .. })
        ));
    }

    #[test]
    fn identical_args_incomparable_results_rejected() {
        // f : A -> L, f : A -> R with L,R incomparable violates
        // monotonicity (w1 = w2 but s1, s2 incomparable).
        let mut b = SignatureBuilder::new();
        let a = b.sort("A");
        let l = b.sort("L");
        let r = b.sort("R");
        b.op("f", &[a], l);
        b.op("f", &[a], r);
        assert!(b.finish().is_err());
    }

    #[test]
    fn preregularity_violation_rejected() {
        // A0 ≤ A1, A0 ≤ A2; f : A1 -> L, f : A2 -> R with L,R
        // incomparable. Monotone (A1, A2 incomparable) but at the meet
        // A0 both ranks apply and {L,R} has no least element.
        let mut b = SignatureBuilder::new();
        let a0 = b.sort("A0");
        let a1 = b.sort("A1");
        let a2 = b.sort("A2");
        let l = b.sort("L");
        let r = b.sort("R");
        b.subsort(a0, a1);
        b.subsort(a0, a2);
        b.op("f", &[a1], l);
        b.op("f", &[a2], r);
        assert!(matches!(b.finish(), Err(OsaError::NotPreregular { .. })));
    }

    #[test]
    fn resolve_prefers_least_rank() {
        let mut b = SignatureBuilder::new();
        let nat = b.sort("Nat");
        let nz = b.sort("NzNat");
        b.subsort(nz, nat);
        let wide = b.op("plus", &[nat, nat], nat);
        let narrow = b.op("plus", &[nz, nz], nz);
        let sig = b.finish().unwrap();
        assert_eq!(sig.resolve("plus", &[nz, nz]), Some(narrow));
        assert_eq!(sig.resolve("plus", &[nat, nz]), Some(wide));
        assert_eq!(sig.resolve("plus", &[nat, nat, nat]), None);
        assert_eq!(sig.resolve("times", &[nat, nat]), None);
    }

    #[test]
    fn constants_of_collects_subsort_constants() {
        let mut b = SignatureBuilder::new();
        let nat = b.sort("Nat");
        let nz = b.sort("NzNat");
        b.subsort(nz, nat);
        let zero = b.op("zero", &[], nat);
        let one = b.op("one", &[], nz);
        let sig = b.finish().unwrap();
        let cs = sig.constants_of(nat);
        assert!(cs.contains(&zero) && cs.contains(&one));
        let cs_nz = sig.constants_of(nz);
        assert!(!cs_nz.contains(&zero) && cs_nz.contains(&one));
    }

    #[test]
    fn overloads_iterates_all_ranks() {
        let mut b = SignatureBuilder::new();
        let nat = b.sort("Nat");
        let nz = b.sort("NzNat");
        b.subsort(nz, nat);
        b.op("plus", &[nat, nat], nat);
        b.op("plus", &[nz, nz], nz);
        let sig = b.finish().unwrap();
        assert_eq!(sig.overloads("plus").count(), 2);
        assert_eq!(sig.overloads("minus").count(), 0);
    }
}
