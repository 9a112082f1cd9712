//! Chaos differential suite for the resilience layer: deterministic
//! fault injection, supervised retry, cache-integrity recovery, and
//! checkpoint/resume must all be *invisible in results*. Every test
//! here compares a faulted / interrupted / resumed run against the
//! fault-free baseline and demands byte identity — resilience that
//! changes an answer is just a slower way of being wrong.
//!
//! The CI chaos lane re-runs this suite with `SUMMA_FAULT_PLAN` and
//! `SUMMA_FAULT_SEED` exported (panic/poison kinds only, at
//! `SUMMA_THREADS=1` and `=4`), which arms the process-global injector
//! for every governed run in the process on top of the per-test
//! schedules below.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use summa_dl::cache::{tbox_fingerprint, SatCache};
use summa_dl::checkpoint::{
    kb_fingerprint, Checkpoint, CheckpointError, CheckpointState, ResumeOutcome,
};
use summa_dl::classify::{ClassHierarchy, Classify};
use summa_dl::concept::{ConceptId, Vocabulary};
use summa_dl::el::ElClassifier;
use summa_dl::generate;
use summa_dl::index::HierarchyIndex;
use summa_dl::prelude::{ABox, Concept, Realize};
use summa_dl::tbox::TBox;
use summa_exec::par_map_with_drain;
use summa_guard::{Budget, ExhaustionReason, FaultInjector, FaultKind, Governed};

/// The fault-free classification every chaos run must reproduce.
fn baseline(tbox: &TBox, voc: &Vocabulary) -> ClassHierarchy {
    Classify::new(tbox, voc)
        .run(&Budget::unlimited())
        .governed
        .expect_completed("fault-free baseline")
}

/// An unlimited budget armed with a parsed fault schedule.
fn chaos_budget(plan: &str, seed: u64) -> Budget {
    let injector = FaultInjector::parse_plan(plan, seed).expect("test plan parses");
    Budget::unlimited().with_injector(Arc::new(injector))
}

/// A small random ABox over the generated atoms, for realization runs.
fn random_abox(atoms: &[summa_dl::concept::ConceptId], n: usize, seed: u64) -> ABox {
    let mut rng = generate::SplitMix64::new(seed);
    let mut abox = ABox::new();
    for i in 0..n {
        let ind = abox.individual(&format!("i{i}"));
        abox.assert_concept(ind, Concept::atom(atoms[rng.below(atoms.len())]));
        if rng.chance(1, 2) {
            abox.assert_concept(ind, Concept::atom(atoms[rng.below(atoms.len())]));
        }
    }
    abox
}

// ---------------------------------------------------------------------
// Supervised retry: injected panics never change answers
// ---------------------------------------------------------------------

/// A worker killed mid-grid loses none of its cells: the survivors and
/// the recovery sweep re-run whatever it dropped, and the hierarchy is
/// byte-identical to the fault-free run at every thread count.
#[test]
fn worker_panic_chaos_is_invisible_in_results() {
    let (voc, tbox, _) = generate::random_el(14, 2, 18, 0x00C4_A051);
    let expected = baseline(&tbox, &voc);
    for threads in [1usize, 4] {
        let budget = chaos_budget("exec.worker@1=panic", 0xDEAD_BEEF);
        let run = Classify::new(&tbox, &voc).threads(threads).run(&budget);
        let (got, spend) = (run.governed, run.spend);
        assert_eq!(
            got.expect_completed("supervisor recovers the dead worker's cells"),
            expected,
            "threads={threads}"
        );
        assert_eq!(spend.quarantined, 0);
    }
}

/// Task-level panics are retried with their charges rolled back: the
/// answer is identical, and exactly the scheduled faults surface as
/// retries — never as quarantines.
#[test]
fn task_panic_chaos_retries_without_changing_answers() {
    let (voc, tbox, _) = generate::random_el(12, 2, 16, 0x7A5C);
    let expected = baseline(&tbox, &voc);
    for threads in [1usize, 4] {
        let budget = chaos_budget("exec.task@2=panic; exec.task@9=panic", 0x1234);
        let run = Classify::new(&tbox, &voc).threads(threads).run(&budget);
        let (got, spend) = (run.governed, run.spend);
        assert_eq!(
            got.expect_completed("retried tasks complete"),
            expected,
            "threads={threads}"
        );
        assert_eq!(spend.retries, 2, "both scheduled panics were retried");
        assert_eq!(spend.quarantined, 0);
    }
}

/// A cell that panics on every attempt is quarantined after the retry
/// budget, surfaces as a `TaskFailure` exhaustion, and every row that
/// *was* decided still matches the baseline exactly.
#[test]
fn repeated_panics_quarantine_and_surface_as_task_failure() {
    let (voc, tbox, _) = generate::random_el(10, 2, 12, 0xF00D);
    let expected = baseline(&tbox, &voc);
    // At one thread the schedule is exact: arrival 2 is the second
    // cell's first attempt, arrivals 3 and 4 are its two retries.
    let budget = chaos_budget("exec.task@2=panic;exec.task@3=panic;exec.task@4=panic", 9);
    let run = Classify::new(&tbox, &voc).run(&budget);
    let (got, spend) = (run.governed, run.spend);
    assert_eq!(spend.retries, 2);
    assert_eq!(spend.quarantined, 1);
    match got {
        Governed::Exhausted { reason, partial } => {
            assert_eq!(reason, ExhaustionReason::TaskFailure);
            let partial = partial.expect("decided rows survive quarantine");
            let decided: Vec<_> = partial.concepts().collect();
            assert_eq!(
                decided.len(),
                expected.concepts().count() - 1,
                "exactly the quarantined row is missing"
            );
            for c in decided {
                assert_eq!(partial.subsumers_of(c), expected.subsumers_of(c));
            }
        }
        other => panic!("expected TaskFailure exhaustion, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Cache integrity: poisoned entries are detected, never served
// ---------------------------------------------------------------------

/// Chaos-poisoned shared-cache entries (flipped answers under a stale
/// checksum) are detected on read, evicted, and recomputed — both the
/// poisoned run and a warm re-run over the dirty cache stay
/// byte-identical to the baseline.
#[test]
fn poisoned_cache_entries_never_change_answers() {
    let (voc, tbox, _) = generate::random_el(14, 3, 20, 0xCAFE);
    let expected = baseline(&tbox, &voc);
    for threads in [1usize, 4] {
        let cache = Arc::new(SatCache::new());
        let injector = Arc::new(
            FaultInjector::parse_plan("dl.cache.insert@1=poison; dl.cache.insert@4=poison", 7)
                .expect("plan parses"),
        );
        let budget = Budget::unlimited().with_injector(Arc::clone(&injector));
        let got = Classify::new(&tbox, &voc)
            .threads(threads)
            .cache(Arc::clone(&cache))
            .run(&budget)
            .governed;
        assert_eq!(
            got.expect_completed("poisoning degrades to recompute"),
            expected,
            "threads={threads}"
        );
        assert_eq!(injector.n_fired(), 2, "both poisonings were injected");

        // A second, fault-free run over the now-dirty cache probes the
        // poisoned keys, detects the corruption, and still answers
        // identically.
        let again = Classify::new(&tbox, &voc)
            .threads(threads)
            .cache(Arc::clone(&cache))
            .run(&Budget::unlimited())
            .governed;
        assert_eq!(again.expect_completed("warm re-run"), expected);
        assert!(
            cache.stats().corruptions >= 1,
            "at least one poisoned entry was caught on read"
        );
    }
}

// ---------------------------------------------------------------------
// Checkpoint/resume: interrupted work is banked, not redone or warped
// ---------------------------------------------------------------------

/// Classification driven through repeated starvation: each leg runs
/// under a small budget, checkpoints on exhaustion, and the next leg
/// resumes. The final hierarchy equals the uninterrupted run exactly,
/// sequentially and 4-way.
#[test]
fn classification_resumes_to_the_uninterrupted_answer() {
    let (voc, tbox, _) = generate::random_el(14, 2, 18, 0x0C4E);
    let expected = baseline(&tbox, &voc);
    for threads in [1usize, 4] {
        let mut bytes: Option<Vec<u8>> = None;
        let mut resumed_any = false;
        let mut finished = None;
        for leg in 1..=32u64 {
            // Escalating budgets guarantee termination; early legs starve.
            let budget = Budget::new().with_steps(200 * leg);
            let mut request = Classify::new(&tbox, &voc).threads(threads);
            if let Some(b) = &bytes {
                request = request.resume(b);
            }
            let run = request.run(&budget);
            if let ResumeOutcome::Resumed { restored } = run.resume {
                assert!(restored > 0, "a resumed leg restores at least one row");
                resumed_any = true;
            }
            if let Some(ckp) = &run.checkpoint {
                bytes = Some(ckp.to_bytes());
            }
            if let Governed::Completed(h) = run.governed {
                finished = Some(h);
                break;
            }
        }
        let finished = finished.expect("escalating budgets complete within 32 legs");
        assert_eq!(finished, expected);
        assert!(resumed_any, "at least one leg resumed from a checkpoint");
    }
}

/// Realization through starvation legs: checkpoints are bound to the
/// joint (TBox, ABox) fingerprint, resumed individuals are skipped,
/// and the final realization equals the uninterrupted run —
/// sequentially and 4-way, with and without a hierarchy index.
#[test]
fn realization_resumes_to_the_uninterrupted_answer() {
    let (voc, tbox, atoms) = generate::random_el(10, 2, 14, 0x4EA1);
    let abox = random_abox(&atoms, 6, 0xAB0C);
    let expected = Realize::new(&tbox, &abox, &voc)
        .run(&Budget::unlimited())
        .governed
        .expect_completed("fault-free realization");
    let index =
        HierarchyIndex::build(&baseline(&tbox, &voc)).expect("a completed hierarchy indexes");
    for threads in [1usize, 4] {
        for index in [None, Some(&index)] {
            let mut bytes: Option<Vec<u8>> = None;
            let mut resumed_any = false;
            let mut finished = None;
            for leg in 1..=32u64 {
                let budget = Budget::new().with_steps(300 * leg);
                let mut request = Realize::new(&tbox, &abox, &voc).threads(threads);
                if let Some(index) = index {
                    request = request.index(index);
                }
                if let Some(b) = &bytes {
                    request = request.resume(b);
                }
                let run = request.run(&budget);
                if let ResumeOutcome::Resumed { restored } = run.resume {
                    assert!(restored > 0);
                    resumed_any = true;
                }
                if let Some(ckp) = &run.checkpoint {
                    bytes = Some(ckp.to_bytes());
                }
                if let Governed::Completed(r) = run.governed {
                    finished = Some(r);
                    break;
                }
            }
            let finished = finished.expect("escalating budgets complete within 32 legs");
            assert_eq!(finished, expected);
            assert!(resumed_any, "at least one leg resumed from a checkpoint");
        }
    }

    // A realization checkpoint is rejected under a *different* ABox:
    // the joint fingerprint no longer matches, and the run restarts
    // cleanly instead of resuming someone else's individuals.
    let ckp = (1..=30u64)
        .map(|i| 50 * i)
        .find_map(|steps| {
            let run = Realize::new(&tbox, &abox, &voc).run(&Budget::new().with_steps(steps));
            if run.governed.is_completed() {
                None
            } else {
                run.checkpoint
            }
        })
        .expect("some budget starves the run after at least one individual");
    let other_abox = random_abox(&atoms, 6, 0xD1FF);
    let bytes = ckp.to_bytes();
    let run = Realize::new(&tbox, &other_abox, &voc)
        .resume(&bytes)
        .run(&Budget::unlimited());
    assert!(
        matches!(
            run.resume,
            ResumeOutcome::Restarted {
                why: CheckpointError::WrongFingerprint { .. }
            }
        ),
        "foreign-ABox checkpoint must restart, got {:?}",
        run.resume
    );
    assert!(run.governed.is_completed());

    // A forged checkpoint with a valid checksum and the right joint
    // fingerprint is still refused when it names concepts outside the
    // vocabulary, or most specific types that are not types: the run
    // restarts cleanly instead of resuming ids rendering cannot
    // resolve.
    let ind = abox.individuals().next().expect("the ABox has individuals");
    let unknown = BTreeMap::from([(ind, [ConceptId(9_999)].into())]);
    let stray = BTreeMap::from([(ind, [atoms[0]].into())]);
    let empty = BTreeMap::from([(ind, Default::default())]);
    for (types, most_specific) in [(unknown.clone(), unknown), (empty, stray)] {
        let forged = Checkpoint {
            fingerprint: kb_fingerprint(&tbox, &abox),
            state: CheckpointState::Realization {
                types,
                most_specific,
            },
        }
        .to_bytes();
        let run = Realize::new(&tbox, &abox, &voc)
            .resume(&forged)
            .run(&Budget::unlimited());
        assert!(
            matches!(
                run.resume,
                ResumeOutcome::Restarted {
                    why: CheckpointError::Malformed(_)
                }
            ),
            "forged checkpoint must restart, got {:?}",
            run.resume
        );
        assert_eq!(run.governed.expect_completed("restart completes"), expected);
    }
}

/// EL saturation interrupted mid-fixpoint, checkpointed, and restored
/// into a *fresh* classifier reaches exactly the fixpoint an
/// uninterrupted saturation computes — the monotone rules make any
/// sound under-approximation a valid starting point.
#[test]
fn el_saturation_resumes_to_the_same_fixpoint() {
    let (voc, tbox, atoms) = generate::random_el(30, 3, 60, 0xE1);
    let fingerprint = tbox_fingerprint(&tbox);
    let mut full = ElClassifier::new(&tbox, &voc).expect("generated TBox is EL");
    full.saturate();
    let expected = full.current_named_subsumers(&atoms);

    let mut starved = ElClassifier::new(&tbox, &voc).expect("generated TBox is EL");
    let mut meter = Budget::new().with_steps(40).meter();
    assert!(
        starved.saturate_metered(&mut meter).is_err(),
        "a tiny budget interrupts saturation"
    );
    let bytes = starved.checkpoint(fingerprint).to_bytes();

    let mut resumed = ElClassifier::new(&tbox, &voc).expect("generated TBox is EL");
    let restored = resumed
        .resume_from(&bytes, fingerprint)
        .expect("own checkpoint restores");
    assert!(restored > 0, "the starved run proved something");
    resumed.saturate();
    assert_eq!(resumed.current_named_subsumers(&atoms), expected);

    // The same bytes under a different TBox's fingerprint are refused.
    let mut foreign = ElClassifier::new(&tbox, &voc).expect("generated TBox is EL");
    assert!(matches!(
        foreign.resume_from(&bytes, fingerprint ^ 1),
        Err(CheckpointError::WrongFingerprint { .. })
    ));
}

/// A corrupted checkpoint — any flipped byte — degrades to a clean
/// restart that still produces the exact baseline, and a checkpoint
/// taken against a different TBox is rejected by fingerprint.
#[test]
fn corrupt_checkpoints_degrade_to_clean_restarts() {
    let (voc, tbox, _) = generate::random_el(12, 2, 16, 0xBAD);
    let expected = baseline(&tbox, &voc);
    // Scan small budgets upward until one starves the run after at
    // least one decided row — the workload's exact step cost is not
    // part of this test's contract.
    let ckp = (1..=12u64)
        .map(|i| 25 * i)
        .find_map(|steps| {
            let run = Classify::new(&tbox, &voc).run(&Budget::new().with_steps(steps));
            if run.governed.is_completed() {
                None
            } else {
                run.checkpoint
            }
        })
        .expect("some budget starves the run after at least one row");
    let good = ckp.to_bytes();

    // Flip one byte anywhere in the image: the trailing checksum (or
    // the magic/version gate) catches it and the run restarts fresh.
    for &at in &[0usize, good.len() / 2, good.len() - 1] {
        let mut bad = good.clone();
        bad[at] ^= 0x40;
        let run = Classify::new(&tbox, &voc)
            .resume(&bad)
            .run(&Budget::unlimited());
        assert!(
            matches!(run.resume, ResumeOutcome::Restarted { .. }),
            "flipped byte at {at} must not resume"
        );
        assert_eq!(run.governed.expect_completed("restart completes"), expected);
    }

    // The untouched checkpoint *does* resume...
    let run = Classify::new(&tbox, &voc)
        .resume(&good)
        .run(&Budget::unlimited());
    assert!(matches!(run.resume, ResumeOutcome::Resumed { .. }));
    assert_eq!(run.governed.expect_completed("resume completes"), expected);

    // ...but not against a different TBox: the fingerprint differs.
    let (voc2, tbox2, _) = generate::random_el(12, 2, 17, 0xBAD2);
    let run = Classify::new(&tbox2, &voc2)
        .resume(&good)
        .run(&Budget::unlimited());
    assert!(matches!(
        run.resume,
        ResumeOutcome::Restarted {
            why: CheckpointError::WrongFingerprint { .. }
        }
    ));
}

// ---------------------------------------------------------------------
// Replayability: env-driven schedules fire identically every run
// ---------------------------------------------------------------------

/// The CI chaos lane exports `SUMMA_FAULT_PLAN` / `SUMMA_FAULT_SEED` /
/// `SUMMA_THREADS`; without them this test replays a built-in plan.
/// Either way the same schedule runs twice and must fire the same
/// number of faults, and every decided row must match the baseline —
/// chaos runs are replayable, not merely survivable.
#[test]
fn env_schedule_replay_is_deterministic() {
    let plan = std::env::var("SUMMA_FAULT_PLAN").unwrap_or_else(|_| {
        "exec.task@3=panic; exec.worker@1=panic; dl.cache.insert@2=poison".into()
    });
    let seed = std::env::var("SUMMA_FAULT_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0x5EED_CA05);
    let threads = std::env::var("SUMMA_THREADS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(4usize);
    let (voc, tbox, _) = generate::random_el(14, 2, 18, 0x11E9);
    let expected = baseline(&tbox, &voc);
    let mut fired = Vec::new();
    for _ in 0..2 {
        let injector = Arc::new(FaultInjector::parse_plan(&plan, seed).expect("chaos plan parses"));
        let budget = Budget::unlimited().with_injector(Arc::clone(&injector));
        let got = Classify::new(&tbox, &voc)
            .threads(threads)
            .run(&budget)
            .governed;
        // Panic/poison plans complete; trip/cancel plans degrade to a
        // governed partial — in every case decided rows are exact.
        match got {
            Governed::Completed(h) => assert_eq!(h, expected),
            Governed::Exhausted { partial, .. } | Governed::Cancelled { partial } => {
                let partial = partial.expect("governed partials are always reported");
                let decided: Vec<_> = partial.concepts().collect();
                for c in decided {
                    assert_eq!(partial.subsumers_of(c), expected.subsumers_of(c));
                }
            }
        }
        fired.push(injector.n_fired());
    }
    assert_eq!(
        fired[0], fired[1],
        "the same plan and seed fire the same number of faults"
    );
}

// ---------------------------------------------------------------------
// Spend reconciliation under retries
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: a retried attempt's charges are rolled back in full.
    /// For deterministic-cost tasks the chaotic run's `steps` equal
    /// the fault-free run's exactly, results are identical, and the
    /// retry counter reconciles with the injector's fired-fault log.
    #[test]
    fn retries_never_double_charge(
        n in 1usize..24,
        cost in 1u64..7,
        hit in 1u64..40,
        threads in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let items: Vec<u64> = (0..n as u64).collect();
        let clean = par_map_with_drain(
            &items,
            &Budget::unlimited(),
            threads,
            |_| (),
            |_, meter, _, &x| {
                meter.charge(cost)?;
                Ok(x * 2)
            },
            |_, _| (),
        );
        prop_assert!(clean.is_complete());
        prop_assert_eq!(clean.spend.steps, n as u64 * cost);

        let injector = Arc::new(
            FaultInjector::new(seed).with_fault_at("exec.task", hit, FaultKind::Panic),
        );
        let budget = Budget::unlimited().with_injector(Arc::clone(&injector));
        let chaotic = par_map_with_drain(
            &items,
            &budget,
            threads,
            |_| (),
            |_, meter, _, &x| {
                meter.charge(cost)?;
                Ok(x * 2)
            },
            |_, _| (),
        );
        prop_assert!(chaotic.is_complete());
        prop_assert_eq!(&chaotic.results, &clean.results);
        prop_assert_eq!(
            chaotic.spend.steps, n as u64 * cost,
            "rolled-back attempts must charge nothing"
        );
        // The schedule fires iff its hit falls within the arrivals the
        // task site actually sees (n first attempts, then the retry).
        let expected_retries = u64::from(hit <= n as u64);
        prop_assert_eq!(chaotic.spend.retries, expected_retries);
        prop_assert_eq!(injector.n_fired(), expected_retries);
    }
}
