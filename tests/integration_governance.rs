//! Governance integration tests: every long-running reasoning service
//! must honour its resource envelope on adversarial input — returning
//! `Governed::Exhausted` with a truthful partial result instead of
//! hanging or panicking — and fault injection must surface as a
//! governed outcome, never as an escaping panic.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};
use summa_core::critique::{
    pragmatic_critique_governed, semantic_critique_governed, syntactic_critique_governed,
};
use summa_dl::classify::Classifier;
use summa_dl::concept::{Concept, Vocabulary};
use summa_dl::el::ElClassifier;
use summa_dl::tableau::Tableau;
use summa_dl::tbox::TBox;
use summa_guard::{Budget, CancelToken, ExhaustionReason, FaultInjector, Governed};

/// A budget whose fault schedule is `plan` (injector syntax).
fn fault_budget(plan: &str, seed: u64) -> Budget {
    let injector = FaultInjector::parse_plan(plan, seed).expect("valid plan");
    Budget::new().with_injector(Arc::new(injector))
}

/// The pigeonhole principle as a TBox: `holes + 1` pigeons must each
/// sit in one of `holes` holes (⊤ ⊑ P_i0 ⊔ … ⊔ P_i(h-1)), yet no two
/// pigeons share a hole (⊤ ⊑ ¬P_ij ⊔ ¬P_kj). The TBox is incoherent,
/// but — unlike a direct clash — proving it requires backtracking
/// through an exponential search tree: every branch fails only after
/// most choices are made. No greedy model search can finish early, so
/// any finite envelope is genuinely exercised.
fn pigeonhole_tbox(holes: usize) -> (Vocabulary, TBox, Concept) {
    let pigeons = holes + 1;
    let mut voc = Vocabulary::new();
    let mut t = TBox::new();
    let p: Vec<Vec<_>> = (0..pigeons)
        .map(|i| {
            (0..holes)
                .map(|j| voc.concept(&format!("P{i}_{j}")))
                .collect()
        })
        .collect();
    for row in &p {
        t.subsume(
            Concept::Top,
            Concept::or(row.iter().map(|&c| Concept::atom(c)).collect()),
        );
    }
    for i in 0..pigeons {
        for k in (i + 1)..pigeons {
            for (&a, &b) in p[i].iter().zip(&p[k]) {
                t.subsume(
                    Concept::Top,
                    Concept::or(vec![
                        Concept::not(Concept::atom(a)),
                        Concept::not(Concept::atom(b)),
                    ]),
                );
            }
        }
    }
    let probe = Concept::atom(voc.concept("Probe"));
    (voc, t, probe)
}

/// A long subsumption chain C0 ⊑ C1 ⊑ … ⊑ C(n-1): EL saturation needs
/// O(n²) completion steps to close it transitively.
fn chain_tbox(n: usize) -> (Vocabulary, TBox) {
    let mut voc = Vocabulary::new();
    let ids: Vec<_> = (0..n).map(|i| voc.concept(&format!("C{i}"))).collect();
    let mut t = TBox::new();
    for w in ids.windows(2) {
        t.subsume(Concept::atom(w[0]), Concept::atom(w[1]));
    }
    (voc, t)
}

#[test]
fn tableau_exhausts_with_partial_under_step_budget() {
    let (voc, t, probe) = pigeonhole_tbox(6);
    let mut reasoner = Tableau::new(&t, &voc);
    let started = Instant::now();
    let g = reasoner.is_satisfiable_governed(&probe, &Budget::new().with_steps(1_000));
    assert!(
        matches!(
            g,
            Governed::Exhausted {
                reason: ExhaustionReason::Steps,
                ..
            }
        ),
        "expected step exhaustion, got {}",
        g.status()
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "a 1k-step budget must not run for seconds"
    );
}

#[test]
fn tableau_exhausts_under_deadline() {
    let (voc, t, probe) = pigeonhole_tbox(6);
    let mut reasoner = Tableau::new(&t, &voc);
    let started = Instant::now();
    let g = reasoner.is_satisfiable_governed(
        &probe,
        &Budget::new().with_deadline(Duration::from_millis(10)),
    );
    assert!(
        matches!(
            g,
            Governed::Exhausted {
                reason: ExhaustionReason::Deadline,
                ..
            }
        ),
        "expected deadline exhaustion, got {}",
        g.status()
    );
    assert!(started.elapsed() < Duration::from_secs(5));
}

#[test]
fn tableau_subsumption_honours_the_envelope() {
    // X ⊑ Y holds only vacuously (the pigeonhole TBox is incoherent),
    // so settling the query means refuting the pigeonhole constraints —
    // an exponential search no 1k-step envelope survives.
    let (mut voc, t, _) = pigeonhole_tbox(6);
    let x = voc.concept("X");
    let y = voc.concept("Y");
    let mut reasoner = Tableau::new(&t, &voc);
    let g = reasoner.subsumes_governed(
        &Concept::atom(y),
        &Concept::atom(x),
        &Budget::new().with_steps(1_000),
    );
    assert!(!g.is_completed(), "the query cannot settle in 1k steps");
}

#[test]
fn classification_degrades_to_sound_partial_hierarchy() {
    let (voc, t) = chain_tbox(60);
    let full = ElClassifier::new(&t, &voc)
        .expect("EL fragment")
        .classify(&t, &voc)
        .expect("classifies");
    let g = ElClassifier::new(&t, &voc)
        .expect("EL fragment")
        .classify_governed(&t, &voc, &Budget::new().with_steps(1_000));
    let (reason_is_steps, partial) = match g {
        Governed::Exhausted { reason, partial } => (reason == ExhaustionReason::Steps, partial),
        other => panic!("expected exhaustion, got {}", other.status()),
    };
    assert!(reason_is_steps);
    let partial = partial.expect("partial hierarchy available");
    // Soundness: everything the starved run claims, the full run
    // confirms. (The converse fails by construction — it was starved.)
    for c in partial.concepts() {
        for &s in partial.subsumers_ref(c).into_iter().flatten() {
            assert!(
                full.subsumes(s, c),
                "partial hierarchy fabricated a subsumption"
            );
        }
    }
    assert!(partial.n_pairs() < full.n_pairs());
}

#[test]
fn realization_publishes_only_complete_individuals() {
    let (mut voc, t, _) = pigeonhole_tbox(6);
    let c = voc.concept("Someone");
    let mut abox = summa_dl::abox::ABox::new();
    let ind = abox.individual("adversary");
    abox.assert_concept(ind, Concept::atom(c));
    let g = summa_dl::realize::Realize::new(&t, &abox, &voc)
        .run(&Budget::new().with_steps(1_000))
        .governed;
    match g {
        Governed::Exhausted { partial, .. } => {
            let r = partial.expect("partial realization available");
            // The interrupted individual's row is absent, not half-filled.
            assert!(r.types_of(ind).is_empty());
        }
        other => panic!("expected exhaustion, got {}", other.status()),
    }
}

#[test]
fn rewrite_and_congruence_exhaust_gracefully() {
    use summa_osa::equation::Equation;
    use summa_osa::rewrite::RewriteSystem;
    use summa_osa::signature::SignatureBuilder;
    use summa_osa::term::Term;
    use summa_osa::theory::Theory;

    // f(x) = f(f(x)) diverges.
    let mut b = SignatureBuilder::new();
    let s = b.sort("S");
    let c = b.op("c", &[], s);
    let f = b.op("f", &[s], s);
    let sig = b.finish().unwrap();
    let mut th = Theory::new(sig.clone());
    let x = Term::var("x", s);
    th.add_equation(Equation::new(
        Term::app(f, vec![x.clone()]),
        Term::app(f, vec![Term::app(f, vec![x])]),
    ))
    .unwrap();
    let rs = RewriteSystem::from_theory(&th).unwrap();
    // Each step grows the term, so stepping costs O(size²) in cloning:
    // keep the budget modest so the test stays fast even in debug mode.
    let t0 = Term::app(f, vec![Term::constant(c)]);
    let started = Instant::now();
    let g = rs.normal_form_governed(&t0, &Budget::new().with_steps(150));
    match g {
        Governed::Exhausted { reason, partial } => {
            assert_eq!(reason, ExhaustionReason::Steps);
            assert!(partial.is_some(), "the partial reduct must be returned");
        }
        other => panic!("expected exhaustion, got {}", other.status()),
    }
    assert!(started.elapsed() < Duration::from_secs(5));

    // Congruence closure on a merge-heavy instance with a starved
    // envelope: interrupted, sound, and resumable.
    let mut cc = summa_osa::congruence::CongruenceClosure::new(sig);
    let mut tower = Term::constant(c);
    for _ in 0..10 {
        tower = Term::app(f, vec![tower]);
    }
    cc.assert_equal(&Term::app(f, vec![Term::constant(c)]), &Term::constant(c));
    let g = cc.are_equal_governed(&tower, &Term::constant(c), &Budget::new().with_steps(5));
    match g {
        Governed::Completed(v) => assert!(v),
        Governed::Exhausted { partial, .. } => assert_eq!(partial, Some(false)),
        other => panic!("unexpected outcome: {}", other.status()),
    }
    assert!(cc.are_equal(&tower, &Term::constant(c)));
}

#[test]
fn isomorphism_search_exhausts_within_budget() {
    use summa_structure::graph::{DefGraph, LabelMode};
    // Many interchangeable components make the search space factorial.
    let mut voc = Vocabulary::new();
    let mut t = TBox::new();
    for i in 0..10 {
        let a = voc.concept(&format!("a{i}"));
        let b = voc.concept(&format!("b{i}"));
        t.subsume(Concept::atom(a), Concept::atom(b));
    }
    let g = DefGraph::from_tbox(&t, &voc, LabelMode::Anonymous);
    let started = Instant::now();
    let out = summa_structure::isomorphism::find_isomorphism_governed(
        &g,
        &g,
        &Budget::new().with_steps(10),
    );
    assert!(
        matches!(out, Governed::Exhausted { partial: None, .. }),
        "10 steps cannot map 20 nodes"
    );
    assert!(started.elapsed() < Duration::from_secs(5));
}

#[test]
fn circularity_analysis_is_governed() {
    let g = summa_intensional::circularity::DependencyGraph::guarino();
    assert!(g.analyze_governed(&Budget::unlimited()).is_completed());
    assert!(!g
        .analyze_governed(&Budget::new().with_steps(1))
        .is_completed());
}

#[test]
fn critiques_run_to_completion_or_degrade_without_panicking() {
    // Unlimited envelopes reproduce the legacy results.
    let m = syntactic_critique_governed(&Budget::unlimited()).expect_completed("unlimited");
    assert_eq!(m.unknown_count(), 0);
    assert!(semantic_critique_governed(&Budget::unlimited()).is_completed());
    assert!(pragmatic_critique_governed(&Budget::unlimited()).is_completed());
    // Starved envelopes degrade to partial/absent results, not panics.
    let starved = syntactic_critique_governed(&Budget::new().with_steps(3));
    match starved {
        Governed::Exhausted { partial, .. } => {
            let m = partial.expect("partial matrix");
            for row in &m.cells {
                assert_eq!(row.len(), m.definitions.len(), "only complete rows");
            }
        }
        other => panic!("expected exhaustion, got {}", other.status()),
    }
}

#[test]
fn cancellation_stops_the_reasoner() {
    let (voc, t, probe) = pigeonhole_tbox(6);
    let mut reasoner = Tableau::new(&t, &voc);
    let token = CancelToken::new();
    token.cancel(); // cancelled before the search starts
    let g = reasoner.is_satisfiable_governed(&probe, &Budget::new().with_cancel(token));
    assert!(
        matches!(g, Governed::Cancelled { .. }),
        "expected cancellation, got {}",
        g.status()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any finite step budget forces the tableau to return — quickly,
    /// and through the governed channel (exhausted or completed, never
    /// a hang or panic).
    #[test]
    fn tableau_always_returns_within_step_budget(steps in 1u64..2_000) {
        let (voc, t, probe) = pigeonhole_tbox(6);
        let mut reasoner = Tableau::new(&t, &voc);
        let started = Instant::now();
        let g = reasoner.is_satisfiable_governed(&probe, &Budget::new().with_steps(steps));
        prop_assert!(matches!(
            g,
            Governed::Completed(_) | Governed::Exhausted { reason: ExhaustionReason::Steps, .. }
        ));
        prop_assert!(started.elapsed() < Duration::from_secs(10));
    }

    /// Deterministic fault injection at an early step always surfaces
    /// as `Exhausted(FaultInjected)` — never as an escaping panic and
    /// never as a fabricated answer.
    #[test]
    fn fault_injection_yields_governed_outcomes(fail_at in 1u64..200) {
        let (voc, t, probe) = pigeonhole_tbox(6);
        let mut reasoner = Tableau::new(&t, &voc);
        let g = reasoner.is_satisfiable_governed(
            &probe,
            &fault_budget(&format!("meter.step@{fail_at}=trip"), 0),
        );
        prop_assert!(matches!(
            g,
            Governed::Exhausted { reason: ExhaustionReason::FaultInjected, .. }
        ));
    }

    /// Probabilistic fault injection is deterministic per seed and
    /// still always governed.
    #[test]
    fn probabilistic_faults_are_governed_and_reproducible(seed in 0u64..1_000) {
        let run = |seed: u64| {
            let (voc, t, probe) = pigeonhole_tbox(4);
            let mut reasoner = Tableau::new(&t, &voc);
            reasoner.is_satisfiable_governed(
                &probe,
                &fault_budget("meter.step@p0.05=trip", seed),
            ).status()
        };
        let first = run(seed);
        prop_assert!(first == "exhausted" || first == "completed");
        prop_assert_eq!(first, run(seed));
    }

    /// The rewrite engine never escapes its envelope on divergent
    /// systems, for any budget size.
    #[test]
    fn rewriting_always_returns_within_step_budget(steps in 1u64..300) {
        use summa_osa::equation::Equation;
        use summa_osa::rewrite::RewriteSystem;
        use summa_osa::signature::SignatureBuilder;
        use summa_osa::term::Term;
        use summa_osa::theory::Theory;
        let mut b = SignatureBuilder::new();
        let s = b.sort("S");
        let c = b.op("c", &[], s);
        let f = b.op("f", &[s], s);
        let sig = b.finish().unwrap();
        let mut th = Theory::new(sig);
        let x = Term::var("x", s);
        th.add_equation(Equation::new(
            Term::app(f, vec![x.clone()]),
            Term::app(f, vec![Term::app(f, vec![x])]),
        )).unwrap();
        let rs = RewriteSystem::from_theory(&th).unwrap();
        let t0 = Term::app(f, vec![Term::constant(c)]);
        let g = rs.normal_form_governed(&t0, &Budget::new().with_steps(steps));
        prop_assert!(matches!(
            g,
            Governed::Exhausted { reason: ExhaustionReason::Steps, partial: Some(_) }
        ));
    }
}
