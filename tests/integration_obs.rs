//! Observability integration: tracing must be a pure observer.
//!
//! Three families of guarantees, matching the summa-obs contract:
//!
//! 1. **Differential** — for every reasoning substrate, a run with an
//!    enabled tracer and a run with [`Tracer::disabled`] produce
//!    byte-identical results and identical deterministic [`Spend`]
//!    fields (steps, peak memory, cache counts; wall-clock `elapsed`
//!    is inherently run-dependent and excluded).
//! 2. **Reconciliation** — observability counters agree with the guard
//!    ledger: `guard.cache.hit`/`guard.cache.miss` equal the spend's
//!    cache fields, and the per-rule `dl.rule.*` counters sum exactly
//!    to the steps the tableau charged.
//! 3. **Acceptance** — a governed parallel classification under an
//!    enabled tracer exports valid Chrome trace-event JSON with one
//!    lane per worker thread, nested tableau spans, and cache
//!    counters.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use summa_core::critique::syntactic_critique_governed;
use summa_core::definitions::Verdict;
use summa_core::report::AdmissionMatrix;
use summa_dl::cache::SatCache;
use summa_dl::classify::{Classifier, Classify};
use summa_dl::concept::Concept;
use summa_dl::corpus::{animals_tbox, vehicles_tbox, PaperVocab};
use summa_dl::el::ElClassifier;
use summa_dl::generate;
use summa_dl::tableau::Tableau;
use summa_guard::obs::export::validate_chrome_trace;
use summa_guard::obs::Tracer;
use summa_guard::{Budget, Governed, Spend};
use summa_ontonomy::corpus::{animals_signature, vehicles_signature};
use summa_ontonomy::isomorphism::signatures_isomorphic_metered;
use summa_osa::equation::Equation;
use summa_osa::rewrite::RewriteSystem;
use summa_osa::signature::SignatureBuilder;
use summa_osa::term::Term;
use summa_osa::theory::Theory;
use summa_structure::prelude::structurally_indistinguishable_metered;

/// The deterministic fields of a [`Spend`]: everything except the
/// wall-clock `elapsed`, which no two runs can share.
fn det(s: &Spend) -> (u64, u64, u64, u64) {
    (s.steps, s.peak_memory, s.cache_hits, s.cache_misses)
}

fn traced() -> Budget {
    Budget::unlimited().with_tracer(Tracer::enabled())
}

fn untraced() -> Budget {
    Budget::unlimited().with_tracer(Tracer::disabled())
}

/// Verdicts and reasons of a matrix, without the timing-bearing
/// spends.
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
// Differential: tracing changes nothing, per substrate
// ---------------------------------------------------------------------

/// DL tableau: the full pairwise subsumption matrix of the vehicles
/// corpus, traced and untraced, answer-for-answer and spend-for-spend.
#[test]
fn tableau_subsumption_is_identical_traced_and_untraced() {
    let p = PaperVocab::new();
    let t = vehicles_tbox(&p);
    let run = |budget: &Budget| {
        let mut meter = budget.meter();
        let mut reasoner = Tableau::new(&t, &p.voc);
        let atoms = t.atoms();
        let mut answers = vec![];
        for &sub in &atoms {
            for &sup in &atoms {
                let q = Concept::and(vec![Concept::atom(sub), Concept::not(Concept::atom(sup))]);
                answers.push(reasoner.sat_metered(&q, &mut meter).expect("unlimited"));
            }
        }
        (answers, meter.spend())
    };
    let (on, on_spend) = run(&traced());
    let (off, off_spend) = run(&untraced());
    assert_eq!(on, off);
    assert_eq!(det(&on_spend), det(&off_spend));
}

/// DL classification service (tableau strategy), end to end.
#[test]
fn classification_is_identical_traced_and_untraced() {
    let p = PaperVocab::new();
    let t = animals_tbox(&p);
    let on = Classify::new(&t, &p.voc).run(&traced()).governed;
    let off = Classify::new(&t, &p.voc).run(&untraced()).governed;
    assert_eq!(on, off);
}

/// EL saturation classifier.
#[test]
fn el_classification_is_identical_traced_and_untraced() {
    let (voc, tbox, _) = generate::random_el(12, 2, 16, 3);
    let on = ElClassifier::new(&tbox, &voc)
        .expect("generated terminology is EL")
        .classify_governed(&tbox, &voc, &traced());
    let off = ElClassifier::new(&tbox, &voc)
        .expect("generated terminology is EL")
        .classify_governed(&tbox, &voc, &untraced());
    assert_eq!(on, off);
}

/// OSA rewriting: Peano addition normalized under both tracers.
#[test]
fn osa_rewriting_is_identical_traced_and_untraced() {
    let mut b = SignatureBuilder::new();
    let nat = b.sort("Nat");
    let zero = b.op("zero", &[], nat);
    let succ = b.op("succ", &[nat], nat);
    let plus = b.op("plus", &[nat, nat], nat);
    let sig = b.finish().expect("well-formed signature");
    let mut th = Theory::new(sig);
    let x = Term::var("x", nat);
    let y = Term::var("y", nat);
    th.add_equation(Equation::new(
        Term::app(plus, vec![Term::constant(zero), y.clone()]),
        y.clone(),
    ))
    .expect("well-sorted");
    th.add_equation(Equation::new(
        Term::app(plus, vec![Term::app(succ, vec![x.clone()]), y.clone()]),
        Term::app(succ, vec![Term::app(plus, vec![x, y])]),
    ))
    .expect("well-sorted");
    let rs = RewriteSystem::from_theory(&th).expect("orientable");
    let num = |n: usize| {
        let mut t = Term::constant(zero);
        for _ in 0..n {
            t = Term::app(succ, vec![t]);
        }
        t
    };
    let term = Term::app(plus, vec![num(7), num(5)]);
    let run = |budget: &Budget| {
        let mut meter = budget.meter();
        let nf = rs
            .normal_form_metered(&term, &mut meter)
            .expect("unlimited");
        (nf, meter.spend())
    };
    let (on, on_spend) = run(&traced());
    let (off, off_spend) = run(&untraced());
    assert_eq!(on, off);
    assert_eq!(on, num(12));
    assert_eq!(det(&on_spend), det(&off_spend));
}

/// Structural collapse: the paper's CAR = DOG check.
#[test]
fn structure_collapse_is_identical_traced_and_untraced() {
    let p = PaperVocab::new();
    let v = vehicles_tbox(&p);
    let a = animals_tbox(&p);
    let run = |budget: &Budget| {
        let mut meter = budget.meter();
        let m = structurally_indistinguishable_metered(&v, p.car, &a, p.dog, &p.voc, 8, &mut meter)
            .expect("unlimited");
        (m, meter.spend())
    };
    let (on, on_spend) = run(&traced());
    let (off, off_spend) = run(&untraced());
    assert_eq!(on, off);
    assert!(on.is_some(), "CAR = DOG must collapse either way");
    assert_eq!(det(&on_spend), det(&off_spend));
}

/// Ontonomy signature isomorphism.
#[test]
fn ontonomy_isomorphism_is_identical_traced_and_untraced() {
    let v = vehicles_signature().expect("well-formed");
    let a = animals_signature().expect("well-formed");
    let run = |budget: &Budget| {
        let mut meter = budget.meter();
        let m =
            signatures_isomorphic_metered(&v.ontonomy.signature, &a.ontonomy.signature, &mut meter)
                .expect("unlimited");
        (m, meter.spend())
    };
    let (on, on_spend) = run(&traced());
    let (off, off_spend) = run(&untraced());
    assert_eq!(on, off);
    assert_eq!(det(&on_spend), det(&off_spend));
}

/// Core admission matrix: per-cell verdicts and reasons.
#[test]
fn syntactic_critique_is_identical_traced_and_untraced() {
    let on = syntactic_critique_governed(&traced()).expect_completed("unlimited");
    let off = syntactic_critique_governed(&untraced()).expect_completed("unlimited");
    assert_eq!(verdicts(&on), verdicts(&off));
}

/// Parallel classification: the completed hierarchy never depends on
/// whether the run was observed. (Pooled spend is excluded here: with
/// a shared cache, hit/miss totals depend on worker interleaving in
/// *any* pair of runs, traced or not.)
#[test]
fn parallel_classification_is_identical_traced_and_untraced() {
    let (voc, tbox, _) = generate::random_el(10, 2, 14, 7);
    let on = Classify::new(&tbox, &voc)
        .threads(4)
        .run(&traced())
        .governed;
    let off = Classify::new(&tbox, &voc)
        .threads(4)
        .run(&untraced())
        .governed;
    assert_eq!(on, off);
}

// ---------------------------------------------------------------------
// Reconciliation: counters vs the guard ledger
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The observability cache counters and the ledger's cache fields
    /// are two views of the same events, and must agree exactly. Only
    /// the *shared* cache notes hits and misses (a private memo is
    /// invisible spend-wise too), so two reasoners share one: the
    /// first misses on every distinct query, the second hits.
    #[test]
    fn cache_counters_equal_spend_cache_fields(seed in 0u64..1_000_000) {
        let (voc, tbox, _) = generate::random_el(8, 2, 10, seed);
        let tracer = Tracer::enabled();
        let budget = Budget::unlimited().with_tracer(tracer.clone());
        let mut meter = budget.meter();
        let cache = Arc::new(SatCache::new());
        for _ in 0..2 {
            let mut reasoner =
                Tableau::new(&tbox, &voc).with_shared_cache(Arc::clone(&cache));
            for &sub in &tbox.atoms() {
                for &sup in &tbox.atoms() {
                    let q = Concept::and(vec![
                        Concept::atom(sub),
                        Concept::not(Concept::atom(sup)),
                    ]);
                    reasoner.sat_metered(&q, &mut meter).expect("unlimited");
                }
            }
        }
        let spend = meter.spend();
        prop_assert_eq!(tracer.counter_value("guard.cache.hit"), spend.cache_hits);
        prop_assert_eq!(tracer.counter_value("guard.cache.miss"), spend.cache_misses);
        // A pairwise sweep revisits concepts: the cache must have seen
        // real traffic for this reconciliation to mean anything.
        prop_assert!(spend.cache_hits + spend.cache_misses > 0);
    }

    /// Every step the tableau charges is attributed to exactly one
    /// `dl.rule.*` counter, so for a completed (untripped) run the
    /// counters sum to the ledger's steps. The agenda/trail kernel's
    /// own counters (`dl.rule.agenda.skip`, `dl.rule.trail.undo`) are
    /// observational — bookkeeping, never charged — and are excluded.
    #[test]
    fn rule_counters_sum_to_ledger_steps(seed in 0u64..1_000_000) {
        let (voc, tbox, _) = generate::random_el(8, 2, 10, seed);
        let tracer = Tracer::enabled();
        let budget = Budget::unlimited().with_tracer(tracer.clone());
        let mut meter = budget.meter();
        let mut reasoner = Tableau::new(&tbox, &voc);
        for &sub in &tbox.atoms() {
            for &sup in &tbox.atoms() {
                let q = Concept::and(vec![
                    Concept::atom(sub),
                    Concept::not(Concept::atom(sup)),
                ]);
                reasoner.sat_metered(&q, &mut meter).expect("unlimited");
            }
        }
        let by_rule: u64 = tracer
            .snapshot()
            .counters
            .iter()
            .filter(|(name, _)| {
                name.starts_with("dl.rule.")
                    && name.as_str() != "dl.rule.agenda.skip"
                    && name.as_str() != "dl.rule.trail.undo"
            })
            .map(|(_, v)| v)
            .sum();
        prop_assert_eq!(by_rule, meter.spend().steps);
        prop_assert!(by_rule > 0);
    }
}

// ---------------------------------------------------------------------
// Acceptance: the exported trace of a governed parallel run
// ---------------------------------------------------------------------

/// The ISSUE's acceptance run: a governed parallel classification with
/// tracing on yields Chrome trace-event JSON that parses, carries one
/// lane per worker, nests tableau spans under executor task spans, and
/// reports cache counters.
#[test]
fn parallel_classification_emits_a_complete_chrome_trace() {
    let (voc, tbox, _) = generate::random_el(10, 2, 14, 42);
    let tracer = Tracer::enabled();
    let budget = Budget::unlimited().with_tracer(tracer.clone());
    let run = Classify::new(&tbox, &voc).threads(4).run(&budget);
    assert!(run.governed.is_completed());
    assert!(run.spend.cache_misses > 0, "a fresh shared cache must miss");

    let snap = tracer.snapshot();
    // One service span on the calling thread.
    assert!(snap.spans.iter().any(|s| s.name == "dl.classify.parallel"));
    // Per-worker lanes: each worker thread records under its own
    // trace-local tid.
    let worker_tids: BTreeSet<u32> = snap
        .spans
        .iter()
        .filter(|s| s.name == "exec.worker")
        .map(|s| s.tid)
        .collect();
    assert!(
        worker_tids.len() >= 2,
        "expected distinct lanes for 4 workers, saw {worker_tids:?}"
    );
    // Nested tableau spans: dl.sat under exec.task under exec.worker.
    assert!(snap
        .spans
        .iter()
        .any(|s| s.name == "dl.sat" && s.depth >= 2));
    // Cache counters made it into the same snapshot.
    assert!(snap
        .counters
        .iter()
        .any(|(name, v)| name == "guard.cache.miss" && *v > 0));

    // The Chrome export is valid JSON with a non-empty traceEvents
    // array, and both exporters mention the worker spans.
    let json = snap.chrome_trace();
    let events = validate_chrome_trace(&json).expect("well-formed Chrome trace");
    assert!(events > 0);
    assert!(json.contains("dl.sat"));
    assert!(snap.collapsed_stacks().contains("exec.worker"));
    assert!(snap.text_tree().contains("exec.worker"));
}

/// Tracing survives exhaustion: a starved traced run still matches a
/// starved untraced run, interrupt for interrupt.
#[test]
fn starved_runs_are_identical_traced_and_untraced() {
    let p = PaperVocab::new();
    let t = animals_tbox(&p);
    let starved_on = Budget::new().with_steps(20).with_tracer(Tracer::enabled());
    let starved_off = Budget::new().with_steps(20).with_tracer(Tracer::disabled());
    let on = Classify::new(&t, &p.voc).run(&starved_on).governed;
    let off = Classify::new(&t, &p.voc).run(&starved_off).governed;
    assert_eq!(on, off);
    assert!(matches!(on, Governed::Exhausted { .. }));
}
