//! Differential tests for the enhanced classification traversal: the
//! told-subsumer seeded, pruned grid must be **byte-identical** to the
//! classical brute-force grid — on every corpus, at every thread
//! count, and under interrupted budgets (where a completed row in the
//! partial must still be exact). The suite runs under CI's
//! `SUMMA_THREADS=1` and `SUMMA_THREADS=4` lanes unchanged; the
//! parallel cases below additionally pin an explicit 4-worker run.

use proptest::prelude::*;
use std::sync::Arc;
use summa_dl::cache::SatCache;
use summa_dl::classify::{
    classify_brute_force_governed, classify_parallel_governed_with, ClassHierarchy, Classify,
    ClassifyStats,
};
use summa_dl::concept::Vocabulary;
use summa_dl::generate;
use summa_dl::tableau::Tableau;
use summa_dl::tbox::TBox;
use summa_guard::{Budget, Governed};

/// A step cap far above what the small corpora need, so pathological
/// cases degrade to a governed exhaustion instead of dominating the
/// suite's wall clock.
const STEP_CAP: u64 = 500_000;

fn capped() -> Budget {
    Budget::new().with_steps(STEP_CAP)
}

/// The enhanced traversal at its default single thread: the governed
/// hierarchy and the run's stats.
fn enhanced(
    tbox: &TBox,
    voc: &Vocabulary,
    budget: &Budget,
) -> (Governed<ClassHierarchy>, ClassifyStats) {
    let run = Classify::new(tbox, voc).run(budget);
    (run.governed, run.stats)
}

#[test]
fn enhanced_equals_brute_force_on_fixed_corpora() {
    let corpora = vec![
        ("chain", generate::chain(6)),
        ("diamond", generate::diamond(4)),
        ("pigeonhole", generate::pigeonhole_tbox(3, 2)),
        ("random_el", generate::random_el(10, 2, 12, 0x5EED)),
    ];
    for (name, (voc, tbox, _)) in corpora {
        let budget = Budget::unlimited();
        let (brute, bs) =
            classify_brute_force_governed(&mut Tableau::new(&tbox, &voc), &tbox, &budget);
        let (enhanced, es) = enhanced(&tbox, &voc, &budget);
        assert_eq!(
            brute.expect_completed("unlimited"),
            enhanced.expect_completed("unlimited"),
            "{name}: enhanced hierarchy must equal brute force"
        );
        assert!(
            es.sat_tests <= bs.sat_tests,
            "{name}: enhanced issued more sat calls ({}) than brute force ({})",
            es.sat_tests,
            bs.sat_tests
        );
    }
}

#[test]
fn forward_delegates_to_the_request() {
    // The positional forward kept for the serving benchmark and the
    // request it forwards to must agree, spend included.
    let (voc, tbox, _) = generate::diamond(4);
    for threads in [1usize, 4] {
        let (via_forward, spend) = classify_parallel_governed_with(
            &tbox,
            &voc,
            &Budget::unlimited(),
            threads,
            Arc::new(SatCache::new()),
        );
        let run = Classify::new(&tbox, &voc)
            .threads(threads)
            .run(&Budget::unlimited());
        assert_eq!(via_forward, run.governed);
        assert_eq!(spend.steps, run.spend.steps);
    }
}

#[test]
fn diamond_acceptance_ratio_holds_at_debug_size() {
    // The release-bench acceptance target is ≤ 25% of brute-force sat
    // calls on diamond(6); the shape is scale-free, so the debug-build
    // suite checks it on the cheaper diamond(5) (63 atoms).
    let (voc, tbox, _) = generate::diamond(5);
    let budget = Budget::unlimited();
    let (brute, bs) = classify_brute_force_governed(&mut Tableau::new(&tbox, &voc), &tbox, &budget);
    let (enhanced, es) = enhanced(&tbox, &voc, &budget);
    assert_eq!(
        brute.expect_completed("unlimited"),
        enhanced.expect_completed("unlimited")
    );
    assert!(
        4 * es.sat_tests <= bs.sat_tests,
        "diamond: enhanced must issue ≤ 25% of brute-force sat calls, got {}/{}",
        es.sat_tests,
        bs.sat_tests
    );
}

#[test]
fn parallel_enhanced_rows_equal_sequential_at_four_workers() {
    for (voc, tbox, _) in [generate::diamond(4), generate::random_el(10, 2, 12, 0xBEEF)] {
        let seq = Classify::new(&tbox, &voc).run(&Budget::unlimited());
        let par = Classify::new(&tbox, &voc)
            .threads(4)
            .run(&Budget::unlimited());
        // Stats are summed over decided rows, and each row's traversal
        // is deterministic, so distributing the rows never moves them.
        assert_eq!(seq.stats, par.stats);
        let seq = seq.governed.expect_completed("unlimited");
        let par = par.governed.expect_completed("unlimited");
        assert_eq!(seq, par);
    }
}

#[test]
fn classification_emits_pruning_and_interning_counters() {
    use summa_guard::obs::Tracer;
    let (voc, tbox, _) = generate::diamond(4);
    let tracer = Tracer::enabled();
    let budget = Budget::unlimited().with_tracer(tracer.clone());
    Classify::new(&tbox, &voc)
        .run(&budget)
        .governed
        .expect_completed("unlimited");
    assert!(
        tracer.counter_value("dl.classify.pruned") > 0,
        "told seeding must prune cells on a diamond"
    );
    assert!(
        tracer.counter_value("dl.classify.sat_tests") > 0,
        "boundary cells still need sat calls"
    );
    assert!(
        tracer.counter_value("dl.intern.hits") > 0,
        "repeated subconcepts must hit the interner"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Enhanced ≡ brute force on random EL terminologies.
    #[test]
    fn enhanced_equals_brute_force_on_random_corpora(seed in 0u64..1_000_000) {
        let (voc, tbox, _) = generate::random_el(8, 2, 10, seed);
        let budget = Budget::unlimited();
        let (brute, _) =
            classify_brute_force_governed(&mut Tableau::new(&tbox, &voc), &tbox, &budget);
        let (enhanced, _) = enhanced(&tbox, &voc, &budget);
        prop_assert_eq!(
            brute.expect_completed("unlimited"),
            enhanced.expect_completed("unlimited")
        );
    }

    /// An interrupted enhanced run keeps only fully decided rows, and
    /// each of those rows is exactly the brute-force truth — pruning
    /// must never leak an approximate row into a partial.
    #[test]
    fn starved_enhanced_partial_rows_are_exact(
        seed in 0u64..1_000_000,
        steps in 1u64..2_000,
    ) {
        let (voc, tbox, _) = generate::random_el(8, 2, 10, seed);
        let truth = Classify::new(&tbox, &voc).run(&capped()).governed;
        prop_assume!(matches!(truth, Governed::Completed(_)));
        let truth = truth.expect_completed("assumed");
        let (starved, _) = enhanced(&tbox, &voc, &Budget::new().with_steps(steps));
        match starved {
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

    /// Same exactness contract for the parallel row frontier under a
    /// starved shared envelope.
    #[test]
    fn starved_parallel_partial_rows_are_exact(
        seed in 0u64..1_000_000,
        steps in 1u64..2_000,
        threads in 2usize..5,
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
}
