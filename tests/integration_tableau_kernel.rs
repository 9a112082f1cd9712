//! Differential suite for the tableau expansion engines: the
//! agenda/trail kernel (default) against the reference
//! clone-per-disjunct engine (`Tableau::with_reference_kernel(true)`).
//!
//! The kernel's contract is *byte identity*: same verdicts, same
//! hierarchies, same realizations, same ledger spend, same partial
//! rows under starved budgets — the engines may differ only in how
//! much scanning and cloning they do to get there. Every test here
//! pins both engines explicitly.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use summa_dl::classify::{ClassHierarchy, Classify};
use summa_dl::concept::{Concept, Vocabulary};
use summa_dl::corpus::{animals_tbox_repaired, vehicles_tbox, PaperVocab};
use summa_dl::generate;
use summa_dl::prelude::{ABox, Realize, Tableau};
use summa_dl::tbox::TBox;
use summa_guard::{Budget, ExhaustionReason, FaultInjector, Governed};

/// Both engines over one TBox, explicitly pinned (env-independent).
fn engines(tbox: &TBox, voc: &Vocabulary) -> (Tableau, Tableau) {
    (
        Tableau::new(tbox, voc).with_reference_kernel(false),
        Tableau::new(tbox, voc).with_reference_kernel(true),
    )
}

/// A 20,000-node cap: a memory wall of one unit per spawned node.
fn node_cap() -> Budget {
    Budget::new().with_memory(20_000)
}

/// Classification with every worker pinned to one engine.
fn classify_pinned(
    tbox: &TBox,
    voc: &Vocabulary,
    reference: bool,
    budget: &Budget,
) -> Governed<ClassHierarchy> {
    Classify::new(tbox, voc)
        .reference_kernel(reference)
        .run(budget)
        .governed
}

/// A [`summa_guard::Spend`] with the wall-clock field zeroed: byte
/// identity is about work done, not how fast it ran.
fn spend_modulo_time(mut s: summa_guard::Spend) -> summa_guard::Spend {
    s.elapsed = std::time::Duration::ZERO;
    s
}

/// The charged `dl.rule.*` counters of a traced run (the kernel's
/// observational `agenda.skip` / `trail.undo` excluded — they are the
/// one legal difference inside the family).
fn charged_rule_counters(tracer: &summa_guard::obs::Tracer) -> BTreeMap<String, u64> {
    tracer
        .snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| {
            name.starts_with("dl.rule.")
                && name != "dl.rule.agenda.skip"
                && name != "dl.rule.trail.undo"
        })
        .collect()
}

/// A fixed corpus stressing every rule: disjunctions, nested
/// quantifiers, and qualified number restrictions (the choose rule,
/// ≥-spawns with distinctness, and ≤-merges — the trail's hard cases).
fn alcq_corpus() -> Vec<(Vocabulary, Concept, &'static str)> {
    let mut out = Vec::new();
    let mk = || {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let r = voc.role("r");
        (voc, a, b, r)
    };
    {
        let (voc, a, b, r) = mk();
        // ≥3 r.(A ⊔ B) ⊓ ≤2 r.A ⊓ ≤2 r.B — satisfiable via merging.
        let c = Concept::and(vec![
            Concept::at_least(3, r, Concept::or(vec![Concept::atom(a), Concept::atom(b)])),
            Concept::at_most(2, r, Concept::atom(a)),
            Concept::at_most(2, r, Concept::atom(b)),
        ]);
        out.push((voc, c, "merge-sat"));
    }
    {
        let (voc, a, _b, r) = mk();
        // ≥3 r.A ⊓ ≤2 r.A — over-full and pairwise distinct: unsat.
        let c = Concept::and(vec![
            Concept::at_least(3, r, Concept::atom(a)),
            Concept::at_most(2, r, Concept::atom(a)),
        ]);
        out.push((voc, c, "atmost-clash"));
    }
    {
        let (voc, a, b, r) = mk();
        // Choose rule: ≤1 r.A with two successors forced to decide A.
        let c = Concept::and(vec![
            Concept::exists(r, Concept::atom(b)),
            Concept::exists(r, Concept::not(Concept::atom(b))),
            Concept::at_most(1, r, Concept::atom(a)),
        ]);
        out.push((voc, c, "choose-sat"));
    }
    {
        let (voc, a, b, r) = mk();
        // ∀-propagation into ≥-witnesses conflicting with the filler.
        let c = Concept::and(vec![
            Concept::at_least(2, r, Concept::atom(a)),
            Concept::forall(r, Concept::not(Concept::atom(a))),
            Concept::atom(b),
        ]);
        out.push((voc, c, "forall-clash"));
    }
    {
        let (voc, a, b, r) = mk();
        // Nested quantifiers under a disjunction (blocking exercise).
        let c = Concept::and(vec![
            Concept::or(vec![Concept::atom(a), Concept::atom(b)]),
            Concept::exists(r, Concept::exists(r, Concept::atom(a))),
            Concept::forall(r, Concept::forall(r, Concept::atom(a))),
        ]);
        out.push((voc, c, "nested-sat"));
    }
    for n in [3usize, 5, 7] {
        let (voc, c) = generate::hard_alc(n);
        out.push((voc, c, "hard-alc"));
        let (voc, c) = generate::hard_alc_unsat(n);
        out.push((voc, c, "hard-alc-unsat"));
    }
    out
}

// ---------------------------------------------------------------------
// Verdicts + ledger spend
// ---------------------------------------------------------------------

/// Same verdicts, same `Spend`, same charged rule counters on the
/// fixed ALCQ corpus — per-concept, with fresh engines each time so no
/// memo crosses between cases.
#[test]
fn fixed_corpus_verdicts_and_spend_are_byte_identical() {
    let empty = TBox::new();
    for (voc, c, name) in alcq_corpus() {
        let (mut kernel, mut reference) = engines(&empty, &voc);
        let mut spends = Vec::new();
        let mut verdicts = Vec::new();
        let mut counters = Vec::new();
        for reasoner in [&mut kernel, &mut reference] {
            let tracer = summa_guard::obs::Tracer::enabled();
            let budget = Budget::unlimited().with_tracer(tracer.clone());
            let mut meter = budget.meter();
            let sat = reasoner.sat_metered(&c, &mut meter).expect("unlimited");
            verdicts.push(sat);
            spends.push(spend_modulo_time(meter.spend()));
            counters.push(charged_rule_counters(&tracer));
        }
        assert_eq!(verdicts[0], verdicts[1], "{name}: verdicts diverge");
        assert_eq!(spends[0], spends[1], "{name}: ledger spend diverges");
        assert_eq!(counters[0], counters[1], "{name}: rule counters diverge");
    }
}

/// TBox-backed subsumption through both engines on the paper corpora.
#[test]
fn paper_corpora_subsumptions_agree() {
    let p = PaperVocab::new();
    for tbox in [vehicles_tbox(&p), animals_tbox_repaired(&p)] {
        let (mut kernel, mut reference) = engines(&tbox, &p.voc);
        assert!(!kernel.uses_reference_kernel());
        assert!(reference.uses_reference_kernel());
        let atoms: Vec<_> = p.voc.concepts().collect();
        for &sup in &atoms {
            for &sub in &atoms {
                let (sup, sub) = (Concept::atom(sup), Concept::atom(sub));
                assert_eq!(
                    kernel
                        .subsumes_governed(&sup, &sub, &node_cap())
                        .expect_completed("in budget"),
                    reference
                        .subsumes_governed(&sup, &sub, &node_cap())
                        .expect_completed("in budget"),
                    "engines disagree on {sub:?} ⊑ {sup:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Generated-EL differential: pairwise subsumption sweeps spend
    /// identically and answer identically under both engines.
    #[test]
    fn random_el_sweep_is_byte_identical(seed in 0u64..1_000_000) {
        let (voc, tbox, _) = generate::random_el(8, 2, 10, seed);
        let (mut kernel, mut reference) = engines(&tbox, &voc);
        let atoms = tbox.atoms();
        for &sub in &atoms {
            for &sup in &atoms {
                let q = Concept::and(vec![
                    Concept::atom(sub),
                    Concept::not(Concept::atom(sup)),
                ]);
                let mut mk = Budget::unlimited().meter();
                let mut mr = Budget::unlimited().meter();
                let vk = kernel.sat_metered(&q, &mut mk).expect("unlimited");
                let vr = reference.sat_metered(&q, &mut mr).expect("unlimited");
                prop_assert_eq!(vk, vr);
                prop_assert_eq!(
                    spend_modulo_time(mk.spend()),
                    spend_modulo_time(mr.spend())
                );
            }
        }
    }

    /// Trail-undo property: in paranoid mode every backtrack unwinds
    /// the live state bit-identically to a snapshot taken at the
    /// choice point (sorted-label caches re-validated too), and the
    /// verdict still matches the reference engine.
    #[test]
    fn trail_undo_restores_state_bit_identically(n in 2usize..7, unsat in 0u8..2) {
        let unsat = unsat == 1;
        let (voc, c) = if unsat {
            generate::hard_alc_unsat(n)
        } else {
            generate::hard_alc(n)
        };
        let empty = TBox::new();
        let (mut kernel, mut reference) = engines(&empty, &voc);
        let (sat, roundtrips_ok) = kernel.kernel_trail_roundtrip(&c);
        prop_assert!(roundtrips_ok, "a trail unwind failed to restore the state");
        prop_assert_eq!(
            sat,
            reference.is_satisfiable_governed(&c, &node_cap()).expect_completed("in budget")
        );
    }
}

/// The number-restriction corpus exercises merge undo (the trail's
/// only boxed record) through the paranoid roundtrip check.
#[test]
fn trail_undo_roundtrips_through_merges() {
    let empty = TBox::new();
    for (voc, c, name) in alcq_corpus() {
        let (mut kernel, mut reference) = engines(&empty, &voc);
        let (sat, roundtrips_ok) = kernel.kernel_trail_roundtrip(&c);
        assert!(roundtrips_ok, "{name}: trail unwind diverged from snapshot");
        assert_eq!(
            sat,
            reference
                .is_satisfiable_governed(&c, &node_cap())
                .expect_completed("in budget"),
            "{name}: paranoid kernel verdict diverges"
        );
    }
}

// ---------------------------------------------------------------------
// Classification + realization
// ---------------------------------------------------------------------

/// Full classify hierarchies are identical under both engines, and the
/// parallel classifier (which constructs default-engine reasoners
/// internally) matches them at 1 and 4 threads.
#[test]
fn classify_hierarchies_are_byte_identical() {
    let cases: Vec<(Vocabulary, TBox)> = vec![
        {
            let (voc, t, _) = generate::pigeonhole_tbox(3, 4);
            (voc, t)
        },
        {
            let (voc, t, _) = generate::diamond(3);
            (voc, t)
        },
        {
            let (voc, t, _) = generate::random_el(10, 2, 14, 0xD1FF);
            (voc, t)
        },
    ];
    for (voc, tbox) in cases {
        let gk = classify_pinned(&tbox, &voc, false, &Budget::unlimited());
        let gr = classify_pinned(&tbox, &voc, true, &Budget::unlimited());
        let hk = gk.expect_completed("unlimited");
        let hr = gr.expect_completed("unlimited");
        assert_eq!(hk, hr, "engines produce different hierarchies");
        for threads in [1usize, 4] {
            let gp = Classify::new(&tbox, &voc)
                .threads(threads)
                .run(&Budget::unlimited())
                .governed;
            assert_eq!(
                gp.expect_completed("unlimited"),
                hk,
                "parallel ({threads} threads) diverges from pinned engines"
            );
        }
    }
}

/// Realization: the scratch-assertion instance check gives identical
/// type sets under both engines, and both match a from-scratch
/// clone-the-ABox entailment check (the pre-overhaul semantics).
#[test]
fn realize_types_are_byte_identical() {
    let p = PaperVocab::new();
    let tbox = vehicles_tbox(&p);
    let mut abox = ABox::new();
    let beetle = abox.individual("beetle");
    abox.assert_concept(beetle, Concept::atom(p.car));
    let truck = abox.individual("truck");
    abox.assert_concept(truck, Concept::atom(p.pickup));

    let (mut kernel, mut reference) = engines(&tbox, &p.voc);
    let atoms: Vec<_> = p.voc.concepts().collect();
    for ind in abox.individuals() {
        for &c in &atoms {
            let concept = Concept::atom(c);
            let vk = kernel
                .is_instance_governed(&abox, ind, &concept, &node_cap())
                .expect_completed("in budget");
            let vr = reference
                .is_instance_governed(&abox, ind, &concept, &node_cap())
                .expect_completed("in budget");
            // The pre-overhaul semantics, verbatim: clone, assert ¬C(a),
            // test consistency.
            let mut extended = abox.clone();
            extended.assert_concept(ind, Concept::not(concept));
            let cloned = !reference
                .is_consistent_governed(&extended, &node_cap())
                .expect_completed("in budget");
            assert_eq!(vk, vr, "engines disagree on instance check");
            assert_eq!(vk, cloned, "scratch assertion diverges from ABox clone");
        }
    }
    // The service endpoint (engine-default construction) agrees too.
    let r = Realize::new(&tbox, &abox, &p.voc)
        .run(&Budget::unlimited())
        .governed
        .expect_completed("realizes");
    assert!(r.is_type(beetle, p.car) && r.is_type(truck, p.pickup));
    assert_eq!(
        r.most_specific_of(beetle).into_iter().collect::<Vec<_>>(),
        vec![p.car]
    );
}

// ---------------------------------------------------------------------
// Starved budgets + chaos
// ---------------------------------------------------------------------

/// Under a starved step budget both engines stop at the same point
/// with the same exhaustion reason and the *exact* same partial rows —
/// charge-sequence equivalence, not just answer equivalence.
#[test]
fn starved_partial_rows_are_byte_identical() {
    let (voc, tbox, _) = generate::pigeonhole_tbox(5, 6);
    for steps in [500u64, 2_000, 10_000] {
        let gk = classify_pinned(&tbox, &voc, false, &Budget::new().with_steps(steps));
        let gr = classify_pinned(&tbox, &voc, true, &Budget::new().with_steps(steps));
        match (gk, gr) {
            (
                Governed::Exhausted {
                    reason: rk,
                    partial: pk,
                },
                Governed::Exhausted {
                    reason: rr,
                    partial: pr,
                },
            ) => {
                assert_eq!(rk, ExhaustionReason::Steps);
                assert_eq!(rk, rr, "exhaustion reasons diverge at {steps} steps");
                assert_eq!(pk, pr, "partial rows diverge at {steps} steps");
            }
            (Governed::Completed(hk), Governed::Completed(hr)) => {
                assert_eq!(hk, hr, "completed hierarchies diverge at {steps} steps")
            }
            (gk, gr) => panic!(
                "engines disagree on outcome at {steps} steps: {} vs {}",
                gk.status(),
                gr.status()
            ),
        }
    }
}

/// The fixed chaos plan from the CI lane, re-run at 1 and 4 threads:
/// injected panics and cache poisoning stay invisible, and the result
/// matches both pinned engines' fault-free baselines.
#[test]
fn chaos_plan_matches_both_engine_baselines() {
    let (voc, tbox, _) = generate::random_el(12, 2, 16, 0x7A11);
    let gk = classify_pinned(&tbox, &voc, false, &Budget::unlimited());
    let gr = classify_pinned(&tbox, &voc, true, &Budget::unlimited());
    let baseline = gk.expect_completed("unlimited");
    assert_eq!(baseline, gr.expect_completed("unlimited"));
    for threads in [1usize, 4] {
        let injector =
            FaultInjector::parse_plan("exec.task@3=panic;dl.cache.insert@2=poison", 1405)
                .expect("plan parses");
        let budget = Budget::unlimited().with_injector(Arc::new(injector));
        let got = Classify::new(&tbox, &voc)
            .threads(threads)
            .run(&budget)
            .governed;
        assert_eq!(
            got.expect_completed("chaos is absorbed"),
            baseline,
            "chaos run diverges from baseline at {threads} threads"
        );
    }
}
