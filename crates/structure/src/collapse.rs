//! The CAR = DOG detector.
//!
//! Under the structural theory of meaning, two concepts whose
//! anonymized definitional neighborhoods are isomorphic — *with the
//! concepts themselves aligned* — have the same meaning. This module
//! finds such collapses across (or within) ontonomies.

use crate::graph::{DefGraph, LabelMode};
use crate::isomorphism::{find_isomorphism_metered, Mapping};
use summa_dl::concept::{ConceptId, Vocabulary};
use summa_dl::tbox::TBox;
use summa_guard::{Budget, Governed, Interrupt, Meter};

/// Default neighborhood depth used when comparing concepts: large
/// enough to cover whole small ontonomies.
pub const DEFAULT_DEPTH: usize = 8;

/// A detected collapse: two concepts with indistinguishable structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollapseReport {
    /// The first concept.
    pub left: ConceptId,
    /// The second concept.
    pub right: ConceptId,
    /// Name of the first concept (for reporting).
    pub left_name: String,
    /// Name of the second concept.
    pub right_name: String,
    /// The witnessing node bijection between the two neighborhoods.
    pub mapping: Mapping,
}

/// Are `c1` (in `t1`) and `c2` (in `t2`) structurally
/// indistinguishable? Returns the witnessing isomorphism if so.
///
/// The test anonymizes both definitional neighborhoods and requires an
/// isomorphism that maps `c1`'s node to `c2`'s node — i.e. the two
/// concepts play the same structural role, the paper's CAR = DOG.
pub fn structurally_indistinguishable(
    t1: &TBox,
    c1: ConceptId,
    t2: &TBox,
    c2: ConceptId,
    voc: &Vocabulary,
) -> Option<Mapping> {
    structurally_indistinguishable_at_depth(t1, c1, t2, c2, voc, DEFAULT_DEPTH)
}

/// Depth-bounded variant of [`structurally_indistinguishable`].
pub fn structurally_indistinguishable_at_depth(
    t1: &TBox,
    c1: ConceptId,
    t2: &TBox,
    c2: ConceptId,
    voc: &Vocabulary,
    depth: usize,
) -> Option<Mapping> {
    structurally_indistinguishable_metered(t1, c1, t2, c2, voc, depth, &mut Meter::unlimited())
        .expect("unlimited meter never interrupts")
}

/// Metered indistinguishability test: both isomorphism searches (the
/// free one and the pinned retry) charge one shared meter.
pub fn structurally_indistinguishable_metered(
    t1: &TBox,
    c1: ConceptId,
    t2: &TBox,
    c2: ConceptId,
    voc: &Vocabulary,
    depth: usize,
    meter: &mut Meter,
) -> Result<Option<Mapping>, Interrupt> {
    let mut span = meter.span("structure.collapse.pair").with("depth", depth);
    let g1 = DefGraph::from_tbox(t1, voc, LabelMode::Anonymous);
    let g2 = DefGraph::from_tbox(t2, voc, LabelMode::Anonymous);
    let (n1, n2) = match (g1.node_of(c1), g2.node_of(c2)) {
        (Some(i1), Some(i2)) => (g1.neighborhood(i1, depth), g2.neighborhood(i2, depth)),
        _ => return Ok(None),
    };
    let (start1, start2) = match (n1.node_of(c1), n2.node_of(c2)) {
        (Some(s1), Some(s2)) => (s1, s2),
        _ => return Ok(None),
    };
    match find_isomorphism_metered(&n1, &n2, meter)? {
        None => {
            span.record("collapsed", false);
            return Ok(None);
        }
        Some(m) if m.get(&start1) == Some(&start2) => {
            span.record("collapsed", true);
            return Ok(Some(m));
        }
        Some(_) => span.record("pinned_retry", true),
    }
    let n1p = pin(&n1, start1);
    let n2p = pin(&n2, start2);
    let m = find_isomorphism_metered(&n1p, &n2p, meter)?;
    span.record("collapsed", m.is_some());
    Ok(m)
}

/// Budget-governed indistinguishability test. On interrupt the partial
/// is `None` — *undecided*, never a claimed non-collapse.
pub fn structurally_indistinguishable_governed(
    t1: &TBox,
    c1: ConceptId,
    t2: &TBox,
    c2: ConceptId,
    voc: &Vocabulary,
    depth: usize,
    budget: &Budget,
) -> Governed<Option<Mapping>> {
    let mut meter = budget.meter();
    match structurally_indistinguishable_metered(t1, c1, t2, c2, voc, depth, &mut meter) {
        Ok(m) => Governed::Completed(m),
        Err(i) => Governed::from_interrupt(i, None),
    }
}

/// Relabel one node with a distinguished marker so isomorphisms must
/// map it to the correspondingly-pinned node.
fn pin(g: &DefGraph, node: usize) -> DefGraph {
    let mut nodes: Vec<String> = (0..g.n_nodes())
        .map(|i| g.node_label(i).to_string())
        .collect();
    nodes[node] = "⟨pinned⟩".to_string();
    // Rebuild through the public surface: induced over all nodes keeps
    // structure; then we override labels via a small shim.
    g.with_labels(nodes)
}

/// Find *all* cross-ontonomy concept pairs that collapse.
pub fn find_isomorphic_pairs(
    t1: &TBox,
    t2: &TBox,
    voc: &Vocabulary,
    depth: usize,
) -> Vec<CollapseReport> {
    find_isomorphic_pairs_governed(t1, t2, voc, depth, &Budget::unlimited())
        .expect_completed("unlimited budget always completes")
}

/// Budget-governed all-pairs collapse sweep: every pairwise search
/// charges one shared meter. On interrupt the partial report lists the
/// collapses confirmed before the cut — each entry is a genuine
/// witness; unexamined pairs are simply absent.
pub fn find_isomorphic_pairs_governed(
    t1: &TBox,
    t2: &TBox,
    voc: &Vocabulary,
    depth: usize,
    budget: &Budget,
) -> Governed<Vec<CollapseReport>> {
    let mut meter = budget.meter();
    let mut out = vec![];
    match find_isomorphic_pairs_metered(t1, t2, voc, depth, &mut meter, &mut out) {
        Ok(()) => Governed::Completed(out),
        Err(i) => Governed::from_interrupt(i, Some(out)),
    }
}

/// Metered all-pairs sweep over a caller-supplied meter, appending
/// confirmed collapses to `out` as they are found.
pub fn find_isomorphic_pairs_metered(
    t1: &TBox,
    t2: &TBox,
    voc: &Vocabulary,
    depth: usize,
    meter: &mut Meter,
    out: &mut Vec<CollapseReport>,
) -> Result<(), Interrupt> {
    let _span = meter
        .span("structure.collapse.sweep")
        .with("left_atoms", t1.atoms().len())
        .with("right_atoms", t2.atoms().len());
    for c1 in t1.atoms() {
        for c2 in t2.atoms() {
            if let Some(mapping) =
                structurally_indistinguishable_metered(t1, c1, t2, c2, voc, depth, meter)?
            {
                out.push(CollapseReport {
                    left: c1,
                    right: c2,
                    left_name: voc.concept_name(c1).to_string(),
                    right_name: voc.concept_name(c2).to_string(),
                    mapping,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use summa_dl::corpus::{animals_tbox, animals_tbox_repaired, vehicles_tbox, PaperVocab};

    #[test]
    fn car_equals_dog_before_repair() {
        let p = PaperVocab::new();
        let v = vehicles_tbox(&p);
        let a = animals_tbox(&p);
        let m = structurally_indistinguishable(&v, p.car, &a, p.dog, &p.voc);
        assert!(m.is_some(), "structures (4) and (8) must collapse");
    }

    #[test]
    fn pickup_equals_horse_and_roles_align() {
        let p = PaperVocab::new();
        let v = vehicles_tbox(&p);
        let a = animals_tbox(&p);
        assert!(structurally_indistinguishable(&v, p.pickup, &a, p.horse, &p.voc).is_some());
        assert!(structurally_indistinguishable(&v, p.motorvehicle, &a, p.animal, &p.voc).is_some());
        assert!(
            structurally_indistinguishable(&v, p.roadvehicle, &a, p.quadruped, &p.voc).is_some()
        );
    }

    #[test]
    fn car_does_not_equal_horse() {
        // car ↦ small but horse ↦ big: the pinned isomorphism must
        // fail because the role structure around the pinned nodes
        // differs… actually both have one size-edge; the asymmetry is
        // elsewhere: car's size-target (small) is shared with dog's.
        // Within the *whole* neighborhoods including the sibling
        // (pickup/dog share 'small' vs 'big'), car aligns with dog,
        // not horse.
        let p = PaperVocab::new();
        let v = vehicles_tbox(&p);
        let a = animals_tbox(&p);
        // car ↔ horse would force small ↔ big and then pickup ↔ dog,
        // which still works structurally — the skeleton is symmetric!
        // This is itself instructive: structure alone cannot even
        // distinguish CAR from HORSE.
        let m = structurally_indistinguishable(&v, p.car, &a, p.horse, &p.voc);
        assert!(m.is_some(), "the skeleton is symmetric under small↔big");
    }

    #[test]
    fn repair_breaks_the_collapse() {
        let p = PaperVocab::new();
        let v = vehicles_tbox(&p);
        let repaired = animals_tbox_repaired(&p);
        let m = structurally_indistinguishable(&v, p.car, &repaired, p.dog, &p.voc);
        assert!(m.is_none(), "axioms (9)–(11) must break the isomorphism");
    }

    #[test]
    fn all_pairs_enumeration_finds_the_full_collapse() {
        let p = PaperVocab::new();
        let v = vehicles_tbox(&p);
        let a = animals_tbox(&p);
        let pairs = find_isomorphic_pairs(&v, &a, &p.voc, DEFAULT_DEPTH);
        // Every vehicle concept collapses onto at least one animal
        // concept.
        for c in v.atoms() {
            assert!(
                pairs.iter().any(|r| r.left == c),
                "{} found no partner",
                p.voc.concept_name(c)
            );
        }
        // And the canonical pair is among them.
        assert!(pairs
            .iter()
            .any(|r| r.left_name == "car" && r.right_name == "dog"));
    }

    #[test]
    fn governed_sweep_degrades_to_confirmed_prefix() {
        let p = PaperVocab::new();
        let v = vehicles_tbox(&p);
        let a = animals_tbox(&p);
        let full = find_isomorphic_pairs(&v, &a, &p.voc, DEFAULT_DEPTH);
        // Unlimited budget reproduces the legacy sweep exactly.
        let g = find_isomorphic_pairs_governed(
            &v,
            &a,
            &p.voc,
            DEFAULT_DEPTH,
            &summa_guard::Budget::unlimited(),
        );
        assert_eq!(g.completed().as_deref(), Some(full.as_slice()));
        // A starved budget yields a (possibly empty) prefix whose
        // every entry is also in the full result — no fabrications.
        let g = find_isomorphic_pairs_governed(
            &v,
            &a,
            &p.voc,
            DEFAULT_DEPTH,
            &summa_guard::Budget::new().with_steps(25),
        );
        match g {
            summa_guard::Governed::Exhausted { partial, .. } => {
                let partial = partial.expect("partial list available");
                assert!(partial.len() < full.len());
                for r in &partial {
                    assert!(full.contains(r));
                }
            }
            other => panic!("expected exhaustion, got {}", other.status()),
        }
    }

    #[test]
    fn governed_single_pair_respects_budget() {
        let p = PaperVocab::new();
        let v = vehicles_tbox(&p);
        let a = animals_tbox(&p);
        let g = structurally_indistinguishable_governed(
            &v,
            p.car,
            &a,
            p.dog,
            &p.voc,
            DEFAULT_DEPTH,
            &summa_guard::Budget::unlimited(),
        );
        assert!(matches!(g, summa_guard::Governed::Completed(Some(_))));
        let g = structurally_indistinguishable_governed(
            &v,
            p.car,
            &a,
            p.dog,
            &p.voc,
            DEFAULT_DEPTH,
            &summa_guard::Budget::new().with_steps(2),
        );
        assert!(!g.is_completed());
    }

    #[test]
    fn self_comparison_is_reflexive() {
        let p = PaperVocab::new();
        let v = vehicles_tbox(&p);
        assert!(structurally_indistinguishable(&v, p.car, &v, p.car, &p.voc).is_some());
    }
}
