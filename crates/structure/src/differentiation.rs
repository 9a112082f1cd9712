//! The differentiation regress — "when can we stop? we can't."
//!
//! After breaking CAR = DOG with axioms (9)–(11), the paper asks how
//! much structure suffices to keep all concepts distinct, and argues
//! there is no stopping point: "the meaning of a sign is given by the
//! trace on it of all the other signs of the language, and no part of
//! the system can self-sustain once detached from the whole."
//!
//! This module measures the claim. Given a TBox (or a pair), it
//! counts structurally indistinguishable concept pairs and greedily
//! adds *differentiating axioms* (fresh marker restrictions) until no
//! two concepts collapse — reporting how many additions were needed.
//! Swept over growing vocabularies (see the `e7_regress` bench), the
//! count grows with the ontology instead of converging, which is the
//! executable shape of the regress.

use crate::collapse::{find_isomorphic_pairs, CollapseReport};
use summa_dl::concept::{Concept, ConceptId, Vocabulary};
use summa_dl::tbox::TBox;

/// The outcome of a greedy differentiation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DifferentiationOutcome {
    /// Indistinguishable pairs before any additions.
    pub initial_collapses: usize,
    /// Axioms added (one fresh marker restriction per addition).
    pub axioms_added: usize,
    /// Collapsed pairs remaining when the run stopped.
    pub remaining_collapses: usize,
    /// The TBox after the additions.
    pub differentiated: TBox,
}

/// Count the structurally indistinguishable pairs *within* one TBox
/// (unordered distinct pairs of atoms whose pinned neighborhoods are
/// isomorphic).
pub fn count_internal_collapses(tbox: &TBox, voc: &Vocabulary, depth: usize) -> usize {
    let atoms = tbox.atoms();
    let mut n = 0;
    for (i, &a) in atoms.iter().enumerate() {
        for &b in &atoms[i + 1..] {
            if crate::collapse::structurally_indistinguishable_at_depth(
                tbox, a, tbox, b, voc, depth,
            )
            .is_some()
            {
                n += 1;
            }
        }
    }
    n
}

/// Greedily differentiate every collapsed pair within a TBox by
/// attaching a fresh marker concept to one member of each pair (a new
/// `∃marker_i.M_i` restriction), iterating until no collapses remain
/// or `max_rounds` is exhausted.
pub fn differentiate_greedily(
    tbox: &TBox,
    voc: &mut Vocabulary,
    depth: usize,
    max_rounds: usize,
) -> DifferentiationOutcome {
    let initial = count_internal_collapses(tbox, voc, depth);
    let mut current = tbox.clone();
    let mut added = 0;
    for round in 0..max_rounds {
        let atoms = current.atoms();
        let mut collapsed_pair: Option<(ConceptId, ConceptId)> = None;
        'search: for (i, &a) in atoms.iter().enumerate() {
            for &b in &atoms[i + 1..] {
                if crate::collapse::structurally_indistinguishable_at_depth(
                    &current, a, &current, b, voc, depth,
                )
                .is_some()
                {
                    collapsed_pair = Some((a, b));
                    break 'search;
                }
            }
        }
        let Some((a, _b)) = collapsed_pair else {
            break;
        };
        // Differentiate `a` with a fresh marker.
        let marker = voc.concept(&format!("marker_{round}_{}", voc.n_concepts()));
        let role = voc.role(&format!("mrole_{round}"));
        current.subsume(
            Concept::atom(a),
            Concept::exists(role, Concept::atom(marker)),
        );
        added += 1;
    }
    let remaining = count_internal_collapses(&current, voc, depth);
    DifferentiationOutcome {
        initial_collapses: initial,
        axioms_added: added,
        remaining_collapses: remaining,
        differentiated: current,
    }
}

/// Cross-TBox variant: differentiate `t2` until no concept of `t1`
/// collapses onto a concept of `t2` (the paper's repair process,
/// automated). Returns the number of axioms needed.
pub fn differentiate_against(
    t1: &TBox,
    t2: &TBox,
    voc: &mut Vocabulary,
    depth: usize,
    max_rounds: usize,
) -> (usize, Vec<CollapseReport>, TBox) {
    let mut current = t2.clone();
    let mut added = 0;
    for round in 0..max_rounds {
        let pairs = find_isomorphic_pairs(t1, &current, voc, depth);
        let Some(first) = pairs.first() else { break };
        let marker = voc.concept(&format!("xmarker_{round}_{}", voc.n_concepts()));
        let role = voc.role(&format!("xmrole_{round}"));
        current.subsume(
            Concept::atom(first.right),
            Concept::exists(role, Concept::atom(marker)),
        );
        added += 1;
    }
    let remaining = find_isomorphic_pairs(t1, &current, voc, depth);
    (added, remaining, current)
}

/// The *differentiation radius* of a concept pair: the smallest
/// neighborhood depth at which the two concepts become structurally
/// distinguishable, or `None` if they remain indistinguishable up to
/// `max_depth` — i.e. how far into the web of terms a reader must look
/// before the difference in meaning appears. The paper's regress says
/// this radius is unbounded over a growing language: the meaning of a
/// sign is "the trace on it of all the other signs."
pub fn differentiation_radius(
    t1: &TBox,
    c1: ConceptId,
    t2: &TBox,
    c2: ConceptId,
    voc: &Vocabulary,
    max_depth: usize,
) -> Option<usize> {
    (0..=max_depth).find(|&depth| {
        crate::collapse::structurally_indistinguishable_at_depth(t1, c1, t2, c2, voc, depth)
            .is_none()
    })
}

/// A symmetric synthetic family for the regress sweep: `n` "sibling"
/// concepts, all structurally identical (each `Sᵢ ⊑ Base ⊓ ∃r.Fᵢ`
/// with private fillers — private names, same shape).
pub fn symmetric_family(n: usize) -> (Vocabulary, TBox) {
    let mut voc = Vocabulary::new();
    let base = voc.concept("Base");
    let r = voc.role("r");
    let mut t = TBox::new();
    for i in 0..n {
        let s = voc.concept(&format!("S{i}"));
        let f = voc.concept(&format!("F{i}"));
        t.subsume(
            Concept::atom(s),
            Concept::and(vec![
                Concept::atom(base),
                Concept::exists(r, Concept::atom(f)),
            ]),
        );
    }
    (voc, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use summa_dl::corpus::{animals_tbox, vehicles_tbox, PaperVocab};

    #[test]
    fn symmetric_family_collapses_quadratically() {
        let (voc, t) = symmetric_family(3);
        // Each Sᵢ pair collapses, each Fᵢ pair collapses:
        // C(3,2) + C(3,2) = 6.
        let n = count_internal_collapses(&t, &voc, 8);
        assert_eq!(n, 6);
    }

    #[test]
    fn greedy_differentiation_terminates_and_separates() {
        let (mut voc, t) = symmetric_family(3);
        let out = differentiate_greedily(&t, &mut voc, 8, 64);
        assert!(out.initial_collapses > 0);
        assert_eq!(out.remaining_collapses, 0, "all pairs separated");
        assert!(out.axioms_added >= 2, "needs at least n-1 markers");
        assert!(out.differentiated.len() > t.len());
    }

    #[test]
    fn differentiation_cost_grows_with_family_size() {
        let mut costs = vec![];
        for n in [2usize, 3, 4] {
            let (mut voc, t) = symmetric_family(n);
            let out = differentiate_greedily(&t, &mut voc, 8, 128);
            assert_eq!(out.remaining_collapses, 0);
            costs.push(out.axioms_added);
        }
        // The regress: more vocabulary ⇒ strictly more differentiation
        // work. (The paper: "when can we stop? … we can't.")
        assert!(costs[0] < costs[1] && costs[1] < costs[2], "{costs:?}");
    }

    #[test]
    fn automated_repair_of_the_animals_tbox() {
        let p = PaperVocab::new();
        let mut voc = p.voc.clone();
        let v = vehicles_tbox(&p);
        let a = animals_tbox(&p);
        let (added, remaining, repaired) = differentiate_against(&v, &a, &mut voc, 8, 64);
        assert!(added > 0, "the original structures collapse");
        assert!(remaining.is_empty(), "automated repair succeeds");
        assert!(repaired.len() > a.len());
    }

    #[test]
    fn differentiation_radius_finds_the_depth_of_the_difference() {
        let p = PaperVocab::new();
        let v = vehicles_tbox(&p);
        let a = animals_tbox(&p);
        // car vs dog: indistinguishable at every depth (full collapse).
        assert_eq!(
            differentiation_radius(&v, p.car, &a, p.dog, &p.voc, 8),
            None
        );
        // After the repair, the difference (quadruped ⊑ animal) sits
        // one isa-edge away from dog, so a small radius suffices.
        let repaired = summa_dl::corpus::animals_tbox_repaired(&p);
        let radius = differentiation_radius(&v, p.car, &repaired, p.dog, &p.voc, 8)
            .expect("repair makes them distinguishable");
        assert!((1..=3).contains(&radius), "radius {radius}");
        // A concept differs from itself nowhere.
        assert_eq!(
            differentiation_radius(&v, p.car, &v, p.car, &p.voc, 8),
            None
        );
    }

    #[test]
    fn already_distinct_tbox_needs_no_work() {
        let p = PaperVocab::new();
        let mut voc = p.voc.clone();
        // vehicles vs the repaired animals: no collapses to fix… but
        // run the machinery anyway.
        let v = vehicles_tbox(&p);
        let repaired = summa_dl::corpus::animals_tbox_repaired(&p);
        let (added, remaining, _) = differentiate_against(&v, &repaired, &mut voc, 8, 64);
        assert_eq!(added, 0);
        assert!(remaining.is_empty());
    }
}
