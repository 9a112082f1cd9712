//! Terminological boxes (TBoxes): general concept inclusion axioms.

use crate::concept::{Concept, ConceptId, RoleId, Vocabulary};
use std::collections::BTreeSet;
use std::convert::Infallible;

/// A terminological axiom.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Axiom {
    /// General concept inclusion `lhs ⊑ rhs`.
    Subsume { lhs: Concept, rhs: Concept },
    /// Concept equivalence `lhs ≡ rhs` (kept as one axiom so the
    /// definition graph of `summa-structure` can distinguish definitions
    /// from primitive inclusions).
    Equiv { lhs: Concept, rhs: Concept },
    /// Disjointness `a ⊓ b ⊑ ⊥`.
    Disjoint { a: Concept, b: Concept },
}

impl Axiom {
    /// Decompose into plain GCIs `(lhs, rhs)` meaning `lhs ⊑ rhs`.
    pub fn to_gcis(&self) -> Vec<(Concept, Concept)> {
        match self {
            Axiom::Subsume { lhs, rhs } => vec![(lhs.clone(), rhs.clone())],
            Axiom::Equiv { lhs, rhs } => {
                vec![(lhs.clone(), rhs.clone()), (rhs.clone(), lhs.clone())]
            }
            Axiom::Disjoint { a, b } => {
                vec![(Concept::and(vec![a.clone(), b.clone()]), Concept::Bottom)]
            }
        }
    }
}

/// A TBox: an ordered collection of axioms over a shared vocabulary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TBox {
    axioms: Vec<Axiom>,
}

impl TBox {
    /// An empty TBox.
    pub fn new() -> Self {
        Self::default()
    }

    /// The axioms in insertion order.
    pub fn axioms(&self) -> &[Axiom] {
        &self.axioms
    }

    /// Add an arbitrary axiom.
    pub fn add(&mut self, ax: Axiom) {
        self.axioms.push(ax);
    }

    /// Add `lhs ⊑ rhs`.
    pub fn subsume(&mut self, lhs: Concept, rhs: Concept) {
        self.axioms.push(Axiom::Subsume { lhs, rhs });
    }

    /// Add `lhs ≡ rhs`.
    pub fn equiv(&mut self, lhs: Concept, rhs: Concept) {
        self.axioms.push(Axiom::Equiv { lhs, rhs });
    }

    /// Add `a ⊓ b ⊑ ⊥`.
    pub fn disjoint(&mut self, a: Concept, b: Concept) {
        self.axioms.push(Axiom::Disjoint { a, b });
    }

    /// Number of axioms.
    pub fn len(&self) -> usize {
        self.axioms.len()
    }

    /// True when the TBox has no axioms.
    pub fn is_empty(&self) -> bool {
        self.axioms.is_empty()
    }

    /// All GCIs `(lhs, rhs)` of the TBox.
    pub fn gcis(&self) -> Vec<(Concept, Concept)> {
        self.axioms.iter().flat_map(Axiom::to_gcis).collect()
    }

    /// Visit the GCIs of [`gcis`](Self::gcis), in the same order, in
    /// one plain loop over the axioms: each side is borrowed, and only
    /// a disjointness axiom builds one, its conjunction `a ⊓ b`. Stops
    /// at the first `Err` of `f` and returns it.
    pub(crate) fn try_for_each_gci<E>(
        &self,
        mut f: impl FnMut(&Concept, &Concept) -> Result<(), E>,
    ) -> Result<(), E> {
        for ax in &self.axioms {
            match ax {
                Axiom::Subsume { lhs, rhs } => f(lhs, rhs)?,
                Axiom::Equiv { lhs, rhs } => {
                    f(lhs, rhs)?;
                    f(rhs, lhs)?;
                }
                Axiom::Disjoint { a, b } => {
                    f(&Concept::and(vec![a.clone(), b.clone()]), &Concept::Bottom)?;
                }
            }
        }
        Ok(())
    }

    /// [`try_for_each_gci`](Self::try_for_each_gci) with an `f` that
    /// visits every GCI.
    pub(crate) fn for_each_gci(&self, mut f: impl FnMut(&Concept, &Concept)) {
        let Ok(()) = self.try_for_each_gci(|l, r| {
            f(l, r);
            Ok::<(), Infallible>(())
        });
    }

    /// The *internalization* of each GCI as a universal constraint in
    /// NNF: `¬lhs ⊔ rhs`, to be asserted at every tableau node.
    pub fn universal_constraints(&self) -> Vec<Concept> {
        self.gcis()
            .into_iter()
            .map(|(l, r)| Concept::or(vec![Concept::not(l), r]).nnf())
            .collect()
    }

    /// All atomic concepts mentioned, ascending and without repeats,
    /// gathered in a single pass over the axioms.
    pub fn atoms(&self) -> Vec<ConceptId> {
        let mut out = Vec::new();
        self.for_each_atom(|c| out.push(c));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Visit every atom occurrence of every axiom, repeats included.
    pub(crate) fn for_each_atom(&self, mut f: impl FnMut(ConceptId)) {
        for ax in &self.axioms {
            let (Axiom::Subsume { lhs, rhs }
            | Axiom::Equiv { lhs, rhs }
            | Axiom::Disjoint { a: lhs, b: rhs }) = ax;
            lhs.for_each_atom(&mut f);
            rhs.for_each_atom(&mut f);
        }
    }

    /// All roles mentioned.
    pub fn roles(&self) -> BTreeSet<RoleId> {
        let mut out = BTreeSet::new();
        self.for_each_gci(|l, r| {
            out.extend(l.roles());
            out.extend(r.roles());
        });
        out
    }

    /// True when every axiom is in the EL fragment (no ≡ with non-EL
    /// sides, no negation/disjunction/∀/number restrictions).
    pub fn is_el(&self) -> bool {
        self.try_for_each_gci(|l, r| (l.is_el() && r.is_el()).then_some(()).ok_or(()))
            .is_ok()
    }

    /// Total size (constructors) of all axioms.
    pub fn size(&self) -> usize {
        let mut size = 0;
        self.for_each_gci(|l, r| size += l.size() + r.size());
        size
    }

    /// Render the whole TBox against a vocabulary, one axiom per line.
    pub fn render(&self, voc: &Vocabulary) -> String {
        let mut out = String::new();
        for ax in &self.axioms {
            match ax {
                Axiom::Subsume { lhs, rhs } => {
                    out.push_str(&format!("{} ⊑ {}\n", lhs.display(voc), rhs.display(voc)));
                }
                Axiom::Equiv { lhs, rhs } => {
                    out.push_str(&format!("{} ≡ {}\n", lhs.display(voc), rhs.display(voc)));
                }
                Axiom::Disjoint { a, b } => {
                    out.push_str(&format!(
                        "disjoint({}, {})\n",
                        a.display(voc),
                        b.display(voc)
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcis_expand_equivalence_both_ways() {
        let mut v = Vocabulary::new();
        let a = Concept::atom(v.concept("A"));
        let b = Concept::atom(v.concept("B"));
        let mut t = TBox::new();
        t.equiv(a.clone(), b.clone());
        let g = t.gcis();
        assert_eq!(g.len(), 2);
        assert!(g.contains(&(a.clone(), b.clone())));
        assert!(g.contains(&(b, a)));
    }

    /// The borrowing walk yields exactly `gcis()`, in order, on every
    /// axiom kind.
    #[test]
    fn gci_walk_equals_gcis() {
        let mut v = Vocabulary::new();
        let [a, b, c] = ["A", "B", "C"].map(|n| Concept::atom(v.concept(n)));
        let r = v.role("r");
        let mut t = TBox::new();
        t.subsume(a.clone(), Concept::exists(r, b.clone()));
        t.equiv(b.clone(), Concept::and(vec![a.clone(), c.clone()]));
        t.disjoint(c.clone(), a.clone());
        t.subsume(Concept::Top, c);
        let mut walked: Vec<(Concept, Concept)> = Vec::new();
        t.for_each_gci(|l, r| walked.push((l.clone(), r.clone())));
        assert_eq!(walked, t.gcis());
        assert_eq!(walked.len(), 5);
        // The fallible walk stops at the first error: the fourth GCI,
        // the disjointness axiom's.
        let mut seen = 0;
        let stopped = t.try_for_each_gci(|_, r| {
            seen += 1;
            if *r == Concept::Bottom {
                Err(seen)
            } else {
                Ok(())
            }
        });
        assert_eq!(stopped, Err(4));
    }

    #[test]
    fn disjointness_becomes_bottom_gci() {
        let mut v = Vocabulary::new();
        let a = Concept::atom(v.concept("A"));
        let b = Concept::atom(v.concept("B"));
        let mut t = TBox::new();
        t.disjoint(a.clone(), b.clone());
        let g = t.gcis();
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].1, Concept::Bottom);
    }

    #[test]
    fn universal_constraints_are_nnf() {
        let mut v = Vocabulary::new();
        let a = Concept::atom(v.concept("A"));
        let r = v.role("r");
        let mut t = TBox::new();
        t.subsume(Concept::exists(r, a.clone()), a.clone());
        let ucs = t.universal_constraints();
        assert_eq!(ucs.len(), 1);
        // ¬∃r.A ⊔ A = ∀r.¬A ⊔ A
        match &ucs[0] {
            Concept::Or(parts) => {
                assert!(parts.iter().any(|p| matches!(p, Concept::Forall(_, _))));
            }
            other => panic!("expected disjunction, got {other:?}"),
        }
    }

    #[test]
    fn atoms_and_roles_collected() {
        let mut v = Vocabulary::new();
        let a = Concept::atom(v.concept("A"));
        let b = Concept::atom(v.concept("B"));
        let r = v.role("r");
        let mut t = TBox::new();
        t.subsume(a.clone(), Concept::exists(r, b.clone()));
        assert_eq!(t.atoms().len(), 2);
        assert_eq!(t.roles().len(), 1);
        assert!(t.is_el());
        assert!(t.size() > 0);
    }

    #[test]
    fn non_el_detected() {
        let mut v = Vocabulary::new();
        let a = Concept::atom(v.concept("A"));
        let mut t = TBox::new();
        t.subsume(a.clone(), Concept::not(a.clone()));
        assert!(!t.is_el());
    }

    #[test]
    fn render_lists_axioms() {
        let mut v = Vocabulary::new();
        let a = Concept::atom(v.concept("A"));
        let b = Concept::atom(v.concept("B"));
        let mut t = TBox::new();
        t.subsume(a.clone(), b.clone());
        t.equiv(a, b);
        let s = t.render(&v);
        assert!(s.contains("A ⊑ B"));
        assert!(s.contains("A ≡ B"));
    }
}
