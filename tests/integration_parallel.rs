//! Differential tests for the parallel executor: parallel
//! classification and realization must produce *identical* completed
//! results to the one-thread run, partial results must be subsets of
//! the complete answer, reports must be byte-identical at any thread
//! count, and a fault injected into one worker must degrade the whole
//! grid to a clean governed partial. The corpus services (admission
//! matrix, collapse sweep, isomorphism searches) run on one thread;
//! their starved runs must likewise keep only exact rows and genuine
//! witnesses.

use proptest::prelude::*;
use summa_core::critique::syntactic_critique_governed;
use summa_core::definitions::Verdict;
use summa_core::report::AdmissionMatrix;
use summa_dl::abox::ABox;
use summa_dl::classify::Classify;
use summa_dl::concept::Concept;
use summa_dl::generate;
use summa_dl::prelude::Realize;
use summa_guard::{Budget, ExhaustionReason, FaultInjector, FaultKind, Governed, STEP_SITE};
use summa_ontonomy::corpus::{animals_signature, vehicles_signature};
use summa_ontonomy::prelude::signatures_isomorphic_governed;
use summa_structure::prelude::{
    find_isomorphic_pairs_governed, find_isomorphism_governed, DefGraph, LabelMode,
};

/// A step cap far above what the small random terminologies need, so
/// pathological seeds degrade to a governed exhaustion instead of
/// dominating the suite's wall clock.
const STEP_CAP: u64 = 500_000;

fn capped() -> Budget {
    Budget::new().with_steps(STEP_CAP)
}

/// The judgments of an admission matrix without their (timing-bearing,
/// run-dependent) spends.
fn verdicts(m: &AdmissionMatrix) -> Vec<(String, Vec<(Verdict, String)>)> {
    m.artifacts
        .iter()
        .zip(&m.cells)
        .map(|(a, row)| {
            (
                a.clone(),
                row.iter().map(|j| (j.verdict, j.reason.clone())).collect(),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Determinism: identical reports at every thread count
// ---------------------------------------------------------------------

/// Classification rendered at eight different thread counts must be
/// byte-identical — scheduling must never leak into results.
#[test]
fn classification_report_is_byte_identical_across_thread_counts() {
    for (voc, tbox) in [
        {
            let (voc, tbox, _) = generate::pigeonhole_tbox(2, 2);
            (voc, tbox)
        },
        {
            let (voc, tbox, _) = generate::random_el(12, 2, 16, 0xD57E_4313);
            (voc, tbox)
        },
    ] {
        let sequential = Classify::new(&tbox, &voc)
            .run(&Budget::unlimited())
            .governed
            .expect_completed("unlimited")
            .render(&voc);
        for threads in [1usize, 2, 3, 4, 6, 8, 2, 4] {
            let report = Classify::new(&tbox, &voc)
                .threads(threads)
                .run(&Budget::unlimited())
                .governed
                .expect_completed("unlimited")
                .render(&voc);
            assert_eq!(
                sequential.as_bytes(),
                report.as_bytes(),
                "thread count {threads} changed the report"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Fault injection across workers
// ---------------------------------------------------------------------

/// A step fault on an injector shared by four workers fires in exactly
/// one of them, and the whole grid degrades to a clean `Exhausted`
/// partial whose rows are still exact.
#[test]
fn one_shot_fault_in_one_worker_degrades_cleanly() {
    let (voc, tbox, _) = generate::random_el(12, 2, 16, 0xFA17);
    let truth = Classify::new(&tbox, &voc)
        .run(&Budget::unlimited())
        .governed
        .expect_completed("unlimited");
    let injector =
        std::sync::Arc::new(FaultInjector::new(0).with_fault_at(STEP_SITE, 40, FaultKind::Trip));
    let budget = Budget::new().with_injector(injector.clone());
    match Classify::new(&tbox, &voc).threads(4).run(&budget).governed {
        Governed::Exhausted {
            reason: ExhaustionReason::FaultInjected,
            partial: Some(partial),
        } => {
            assert_eq!(injector.n_fired(), 1, "the shared step fault fires once");
            for c in partial.concepts() {
                assert_eq!(
                    partial.subsumers_ref(c),
                    truth.subsumers_ref(c),
                    "a decided row in the faulted partial must be exact"
                );
            }
        }
        other => panic!("expected a governed fault, got {}", other.status()),
    }
}

// ---------------------------------------------------------------------
// Corpus services: admission matrix, collapse sweep, signatures
// ---------------------------------------------------------------------

/// A starved admission matrix only contains rows identical to the
/// unlimited run's — never half-judged or fabricated ones.
#[test]
fn starved_admission_matrix_rows_are_exact() {
    let truth = syntactic_critique_governed(&Budget::unlimited()).expect_completed("unlimited");
    let truth_rows = verdicts(&truth);
    for steps in [1u64, 7, 13, 23] {
        let g = syntactic_critique_governed(&Budget::new().with_steps(steps));
        let partial = match g {
            Governed::Exhausted { partial, .. } => partial.expect("partial matrix"),
            Governed::Completed(_) => panic!("a {steps}-step budget cannot finish the matrix"),
            Governed::Cancelled { .. } => panic!("nothing cancels this run"),
        };
        assert_eq!(partial.definitions, truth.definitions);
        for row in verdicts(&partial) {
            assert!(
                truth_rows.contains(&row),
                "partial row for {} must match the unlimited run",
                row.0
            );
        }
    }
}

/// The all-pairs collapse sweep rediscovers the paper corpus's
/// collapse, and a starved sweep only lists genuine witnesses.
#[test]
fn starved_collapse_sweep_lists_only_genuine_collapses() {
    use summa_dl::corpus::{animals_tbox, vehicles_tbox, PaperVocab};
    let p = PaperVocab::new();
    let vehicles = vehicles_tbox(&p);
    let animals = animals_tbox(&p);
    let full = find_isomorphic_pairs_governed(&vehicles, &animals, &p.voc, 8, &Budget::unlimited())
        .expect_completed("unlimited");
    assert!(!full.is_empty(), "the corpus collapse must be rediscovered");
    for steps in [1u64, 50, 500] {
        match find_isomorphic_pairs_governed(
            &vehicles,
            &animals,
            &p.voc,
            8,
            &Budget::new().with_steps(steps),
        ) {
            Governed::Completed(pairs) => assert_eq!(full, pairs),
            Governed::Exhausted { partial, .. } => {
                for pair in partial.expect("partial witness list") {
                    assert!(
                        full.contains(&pair),
                        "every partial entry must be a genuine collapse"
                    );
                }
            }
            Governed::Cancelled { .. } => panic!("nothing cancels this run"),
        }
    }
}

/// Graph isomorphism finds a witness between the paper corpus's
/// anonymized graphs; a starved search stays undecided rather than
/// guessing.
#[test]
fn graph_isomorphism_finds_the_corpus_witness() {
    use summa_dl::corpus::{animals_tbox, vehicles_tbox, PaperVocab};
    let p = PaperVocab::new();
    let g1 = DefGraph::from_tbox(&vehicles_tbox(&p), &p.voc, LabelMode::Anonymous);
    let g2 = DefGraph::from_tbox(&animals_tbox(&p), &p.voc, LabelMode::Anonymous);
    let witness =
        find_isomorphism_governed(&g1, &g2, &Budget::unlimited()).expect_completed("unlimited");
    assert!(witness.is_some(), "the corpus graphs are isomorphic");
    let starved = find_isomorphism_governed(&g1, &g2, &Budget::new().with_steps(1));
    assert!(matches!(starved, Governed::Exhausted { partial: None, .. }));
}

/// Ontology-signature isomorphism (Bench-Capon & Malcolm encoding)
/// finds the collapsing corpus's bijection and none on the repaired
/// signature.
#[test]
fn signature_isomorphism_finds_only_the_corpus_collapse() {
    let v = vehicles_signature().expect("well-formed");
    let a = animals_signature().expect("well-formed");
    let collapse = signatures_isomorphic_governed(
        &v.ontonomy.signature,
        &a.ontonomy.signature,
        &Budget::unlimited(),
    )
    .expect_completed("unlimited");
    assert!(collapse.is_some());
    let repaired = summa_ontonomy::corpus::animals_signature_repaired().expect("well-formed");
    let none = signatures_isomorphic_governed(
        &v.ontonomy.signature,
        &repaired.ontonomy.signature,
        &Budget::unlimited(),
    )
    .expect_completed("unlimited");
    assert!(none.is_none());
}

// ---------------------------------------------------------------------
// Property tests over random terminologies
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parallel classification of a random terminology is identical to
    /// sequential classification, at any thread count.
    #[test]
    fn parallel_classify_equals_sequential(seed in 0u64..1_000_000, threads in 2usize..6) {
        let (voc, tbox, _) = generate::random_el(10, 2, 14, seed);
        let seq = Classify::new(&tbox, &voc).run(&capped()).governed;
        match seq {
            Governed::Completed(seq) => {
                let par = Classify::new(&tbox, &voc).threads(threads).run(&capped()).governed;
                // Parallel never needs more pooled steps than the
                // sequential run (the shared cache can only save work).
                let par = par.expect_completed("within the sequential step cap");
                prop_assert_eq!(seq, par);
            }
            // A pathological seed: both sides must still return
            // governed outcomes; nothing further to compare.
            _ => {
                let par = Classify::new(&tbox, &voc).threads(threads).run(&capped()).governed;
                prop_assert!(!matches!(par, Governed::Cancelled { .. }));
            }
        }
    }

    /// Any starved parallel classification yields a partial whose rows
    /// are exactly the sequential truth — a subset of guarantees,
    /// never an approximation.
    #[test]
    fn starved_parallel_classify_rows_are_exact(
        seed in 0u64..1_000_000,
        steps in 1u64..2_000,
        threads in 2usize..6,
    ) {
        let (voc, tbox, _) = generate::random_el(8, 2, 10, seed);
        let truth = Classify::new(&tbox, &voc).run(&capped()).governed;
        prop_assume!(matches!(truth, Governed::Completed(_)));
        let truth = truth.expect_completed("assumed");
        match Classify::new(&tbox, &voc)
            .threads(threads)
            .run(&Budget::new().with_steps(steps))
            .governed
        {
            Governed::Completed(h) => prop_assert_eq!(truth, h),
            Governed::Exhausted { partial, .. } => {
                let partial = partial.expect("classification always carries a partial");
                for c in partial.concepts() {
                    prop_assert_eq!(partial.subsumers_ref(c), truth.subsumers_ref(c));
                }
            }
            Governed::Cancelled { .. } => prop_assert!(false, "nothing cancels this run"),
        }
    }

    /// Parallel realization of a random ABox equals the sequential
    /// one, and starved partials only carry fully realized
    /// individuals with exact type sets.
    #[test]
    fn parallel_realize_equals_sequential(
        seed in 0u64..1_000_000,
        steps in 1u64..2_000,
        threads in 2usize..6,
    ) {
        let (voc, tbox, atoms) = generate::random_el(8, 2, 10, seed);
        let mut rng = generate::SplitMix64::new(seed ^ 0xAB0C);
        let mut abox = ABox::new();
        for i in 0..5 {
            let ind = abox.individual(&format!("i{i}"));
            abox.assert_concept(ind, Concept::atom(atoms[rng.below(atoms.len())]));
            if rng.chance(1, 2) {
                abox.assert_concept(ind, Concept::atom(atoms[rng.below(atoms.len())]));
            }
        }
        let seq = Realize::new(&tbox, &abox, &voc).run(&capped()).governed;
        prop_assume!(matches!(seq, Governed::Completed(_)));
        let seq = seq.expect_completed("assumed");
        let par = Realize::new(&tbox, &abox, &voc)
            .threads(threads)
            .run(&capped())
            .governed
            .expect_completed("within the sequential step cap");
        prop_assert_eq!(&seq, &par);
        match Realize::new(&tbox, &abox, &voc)
            .threads(threads)
            .run(&Budget::new().with_steps(steps))
            .governed
        {
            Governed::Completed(r) => prop_assert_eq!(&seq, &r),
            Governed::Exhausted { partial, .. } => {
                let partial = partial.expect("realization always carries a partial");
                for ind in abox.individuals() {
                    let types = partial.types_of(ind);
                    if !types.is_empty() {
                        prop_assert_eq!(types, seq.types_of(ind));
                        prop_assert_eq!(partial.most_specific_of(ind), seq.most_specific_of(ind));
                    }
                }
            }
            Governed::Cancelled { .. } => prop_assert!(false, "nothing cancels this run"),
        }
    }

    /// The collapse sweep over two *random* terminologies: a starved
    /// sweep lists only collapses the complete sweep also reports, in
    /// the same order.
    #[test]
    fn starved_collapse_on_random_tboxes_lists_only_genuine_collapses(
        seed in 0u64..1_000_000,
        steps in 1u64..2_000,
    ) {
        let (mut voc, t1, _) = generate::random_el(6, 2, 8, seed);
        // Second terminology over the same vocabulary object, distinct
        // atoms — the cross-ontonomy comparison the sweep was made for.
        let mut t2 = summa_dl::tbox::TBox::new();
        let mut rng = generate::SplitMix64::new(seed ^ 0x7EAF);
        let fresh: Vec<_> = (0..6).map(|i| voc.concept(&format!("X{i}"))).collect();
        for _ in 0..8 {
            let a = fresh[rng.below(fresh.len())];
            let b = fresh[rng.below(fresh.len())];
            t2.subsume(Concept::atom(a), Concept::atom(b));
        }
        let full = find_isomorphic_pairs_governed(&t1, &t2, &voc, 3, &capped());
        prop_assume!(matches!(full, Governed::Completed(_)));
        let full = full.expect_completed("assumed");
        match find_isomorphic_pairs_governed(&t1, &t2, &voc, 3, &Budget::new().with_steps(steps)) {
            Governed::Completed(pairs) => prop_assert_eq!(full, pairs),
            Governed::Exhausted { partial, .. } => {
                let partial = partial.expect("the sweep always carries a partial");
                prop_assert!(full.starts_with(&partial), "partial entries are genuine collapses");
            }
            Governed::Cancelled { .. } => prop_assert!(false, "nothing cancels this run"),
        }
    }
}
