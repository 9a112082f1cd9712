//! Integration: one smoke test per experiment of the DESIGN.md index
//! (E1–E12), pinning the qualitative "shape" each must reproduce.

use summa_core::prelude::*;
use summa_core::substrates::dl::classify::Classifier;
use summa_core::substrates::dl::generate;
use summa_core::substrates::dl::prelude::*;
use summa_core::substrates::hermeneutic::prelude::*;
use summa_core::substrates::intensional::prelude::*;
use summa_core::substrates::lexfield::prelude::*;
use summa_core::substrates::structure::differentiation::{
    count_internal_collapses, symmetric_family,
};
use summa_core::substrates::structure::prelude::*;
use summa_guard::Budget;

/// E1 — structures (1)–(3): the blocks world and `[above]`.
#[test]
fn e1_intensional_above() {
    let mut dom = Domain::new();
    let (a, b, d) = (dom.elem("a"), dom.elem("b"), dom.elem("d"));
    let mut w = BlocksWorld::new();
    w.place(a, 0, 2);
    w.place(b, 0, 1);
    w.place(d, 0, 0);
    let space = WorldSpace::structured(vec![w]);
    let above = IntensionalRelation::aboveness("above", &dom, &space).expect("structured");
    let ext = above.at(0).expect("world 0");
    assert_eq!(ext.len(), 3);
}

/// E2 — the circularity of Guarino's construction.
#[test]
fn e2_circularity() {
    assert!(DependencyGraph::guarino().analyze().cycle.is_some());
    assert!(DependencyGraph::guarino_with_primitive_worlds()
        .analyze()
        .cycle
        .is_none());
    // And the executable form: rules fail over opaque worlds.
    let mut dom = Domain::new();
    dom.elem("a");
    let err = IntensionalRelation::aboveness("above", &dom, &WorldSpace::opaque(1));
    assert!(matches!(err, Err(IntensionalError::OpaqueWorld { .. })));
}

/// E3 — the admission matrix: over-breadth and undecidability.
#[test]
fn e3_admission_matrix() {
    let m = syntactic_critique();
    assert!(m.admitted("grocery list", "Guarino (abstracted)"));
    assert!(m.admitted("tautology set", "Guarino (approximate)"));
    assert!(!m.admitted("grocery list", "Bench-Capon & Malcolm"));
    assert_eq!(
        m.judgment("C program", "Gruber (functional)")
            .expect("cell")
            .verdict,
        Verdict::Undecidable
    );
}

/// E4 — the BCM vehicles signature: well-formed, with model checking.
#[test]
fn e4_bcm_signature() {
    let v = summa_core::substrates::ontonomy::corpus::vehicles_signature().expect("well-formed");
    assert!(v.ontonomy.signature.check_inheritance().is_ok());
    assert!(v.ontonomy.is_model(&v.sample_model()).is_ok());
    assert!(v.ontonomy.is_model(&v.broken_model()).is_err());
}

/// E5 — diagrams (6) and (7) from structure (4).
#[test]
fn e5_definition_graphs() {
    let p = PaperVocab::new();
    let t = vehicles_tbox(&p);
    let g6 = DefGraph::from_tbox(&t, &p.voc, LabelMode::Full);
    let g7 = DefGraph::from_tbox(&t, &p.voc, LabelMode::Anonymous);
    assert_eq!(g6.n_nodes(), g7.n_nodes());
    assert_eq!(g6.n_edges(), g7.n_edges());
    assert!(g6.render().contains("car"));
    assert!(!g7.render().contains("car"));
}

/// E6 — CAR ≅ DOG, broken by the repair.
#[test]
fn e6_isomorphism_and_repair() {
    let p = PaperVocab::new();
    let v = vehicles_tbox(&p);
    let a = animals_tbox(&p);
    assert!(structurally_indistinguishable(&v, p.car, &a, p.dog, &p.voc).is_some());
    let repaired = animals_tbox_repaired(&p);
    assert!(structurally_indistinguishable(&v, p.car, &repaired, p.dog, &p.voc).is_none());
}

/// E7 — the regress: collapse count grows with vocabulary.
#[test]
fn e7_regress_shape() {
    let counts: Vec<usize> = [2usize, 3, 4]
        .iter()
        .map(|&n| {
            let (voc, t) = symmetric_family(n);
            count_internal_collapses(&t, &voc, 8)
        })
        .collect();
    assert!(counts[0] < counts[1] && counts[1] < counts[2]);
}

/// E8 — the doorknob schema: many-to-many, never bijective.
#[test]
fn e8_doorknob() {
    let (space, en, it) = doorknob_dataset();
    let al = Alignment::between(&space, &en, &it);
    assert!(!al.is_bijective());
    let dk = en.item_by_name("doorknob").expect("dataset item");
    assert_eq!(al.targets_of(dk).len(), 2);
}

/// E9 — the age-adjective table: positive ambiguity in every pairing.
#[test]
fn e9_age_alignment() {
    let f = age_adjectives_dataset();
    for (a, b) in [
        (&f.italian, &f.spanish),
        (&f.italian, &f.french),
        (&f.spanish, &f.french),
    ] {
        let al = Alignment::between(&f.space, a, b);
        assert!(!al.is_bijective());
    }
    // añejo and mayor have no dedicated counterparts.
    let es_to_it = Alignment::between(&f.space, &f.spanish, &f.italian);
    let anejo = f.spanish.item_by_name("añejo").expect("dataset item");
    assert_eq!(es_to_it.ambiguity(anejo), 0); // falls wholly in vecchio
}

/// E10 — meaning variance and encoding loss.
#[test]
fn e10_hermeneutic() {
    let r = pragmatic_critique();
    assert_eq!(r.n_distinct_meanings, 4);
    assert!(r.encoding_loss > 0.5);
    // The door reading takes multiple circle rounds.
    let (_, rounds, _) = interpret_traced(&trespassers_sign(), &door_of_building_context());
    assert!(rounds >= 2);
}

/// E11 — reasoner substrate: EL and tableau agree on EL inputs;
/// tableau handles what EL cannot.
#[test]
fn e11_reasoners() {
    let (voc, t, _) = generate::random_el(10, 3, 20, 11);
    let h_el = ElClassifier::new(&t, &voc)
        .expect("EL")
        .classify(&t, &voc)
        .expect("classification succeeds");
    let h_tab = Classify::new(&t, &voc)
        .run(&Budget::unlimited())
        .governed
        .expect_completed("classification succeeds");
    assert_eq!(h_el, h_tab);
    // Beyond EL: the hard ALC family.
    let (voc2, c) = generate::hard_alc(6);
    let mut r = Tableau::new(&TBox::new(), &voc2);
    // A 20,000-node memory wall: a runaway search fails the test.
    let budget = Budget::new().with_memory(20_000);
    assert!(r
        .is_satisfiable_governed(&c, &budget)
        .expect_completed("within the node cap"));
    let (voc3, c2) = generate::hard_alc_unsat(6);
    let mut r2 = Tableau::new(&TBox::new(), &voc3);
    assert!(!r2
        .is_satisfiable_governed(&c2, &budget)
        .expect_completed("within the node cap"));
}

/// E12 — OSA rewriting substrate: Peano arithmetic normalizes.
#[test]
fn e12_rewrite() {
    use summa_core::substrates::osa::prelude::*;
    let mut b = SignatureBuilder::new();
    let nat = b.sort("Nat");
    let zero = b.op("zero", &[], nat);
    let succ = b.op("succ", &[nat], nat);
    let plus = b.op("plus", &[nat, nat], nat);
    let sig = b.finish().expect("signature ok");
    let mut th = Theory::new(sig);
    let x = Term::var("x", nat);
    let y = Term::var("y", nat);
    th.add_equation(Equation::new(
        Term::app(plus, vec![Term::constant(zero), y.clone()]),
        y.clone(),
    ))
    .expect("valid");
    th.add_equation(Equation::new(
        Term::app(plus, vec![Term::app(succ, vec![x.clone()]), y.clone()]),
        Term::app(succ, vec![Term::app(plus, vec![x, y])]),
    ))
    .expect("valid");
    let rs = RewriteSystem::from_theory(&th).expect("orientable");
    let num = |n: usize| {
        let mut t = Term::constant(zero);
        for _ in 0..n {
            t = Term::app(succ, vec![t]);
        }
        t
    };
    let sum = Term::app(plus, vec![num(7), num(5)]);
    assert_eq!(rs.normal_form(&sum, 1000).expect("terminates"), num(12));
    assert!(rs.is_locally_confluent(100).expect("within budget"));
}
