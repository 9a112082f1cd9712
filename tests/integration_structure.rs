//! Integration: the §3 structural-meaning argument across summa-dl
//! and summa-structure — reasoning and graph analysis must agree on
//! the paper's structures.

use summa_core::substrates::dl::classify::Classifier;
use summa_core::substrates::dl::corpus::{
    animals_tbox, animals_tbox_el, animals_tbox_repaired, vehicles_tbox, vehicles_tbox_el,
    PaperVocab,
};
use summa_core::substrates::dl::el::ElClassifier;
use summa_core::substrates::dl::prelude::*;
use summa_core::substrates::structure::differentiation::{
    count_internal_collapses, differentiate_against, symmetric_family,
};
use summa_core::substrates::structure::prelude::*;
use summa_guard::Budget;

/// The reasoner checks below run under a 20,000-node memory wall, so a
/// runaway search fails its test instead of hanging.
fn node_cap() -> Budget {
    Budget::new().with_memory(20_000)
}

fn sat(r: &mut Tableau, c: &Concept) -> bool {
    r.is_satisfiable_governed(c, &node_cap())
        .expect_completed("within the node cap")
}

fn subsumes(r: &mut Tableau, sup: &Concept, sub: &Concept) -> bool {
    r.subsumes_governed(sup, sub, &node_cap())
        .expect_completed("within the node cap")
}

#[test]
fn the_reasoner_confirms_what_the_graphs_show() {
    let p = PaperVocab::new();
    let vehicles = vehicles_tbox(&p);
    let animals = animals_tbox(&p);

    // Reasoning: car ⊑ motorvehicle; dog ⊑ animal — parallel facts.
    let mut rv = Tableau::new(&vehicles, &p.voc);
    let mut ra = Tableau::new(&animals, &p.voc);
    assert!(subsumes(
        &mut rv,
        &Concept::atom(p.motorvehicle),
        &Concept::atom(p.car)
    ));
    assert!(subsumes(
        &mut ra,
        &Concept::atom(p.animal),
        &Concept::atom(p.dog)
    ));

    // Structure: the two TBoxes collapse pairwise.
    assert!(structurally_indistinguishable(&vehicles, p.car, &animals, p.dog, &p.voc).is_some());

    // And the logical content is also parallel: the subsumption
    // hierarchies are isomorphic as orders (same pair counts).
    let hv = Classify::new(&vehicles, &p.voc)
        .run(&Budget::unlimited())
        .governed
        .expect_completed("classification succeeds");
    let ha = Classify::new(&animals, &p.voc)
        .run(&Budget::unlimited())
        .governed
        .expect_completed("classification succeeds");
    assert_eq!(hv.n_pairs(), ha.n_pairs());
}

#[test]
fn el_and_tableau_agree_on_the_el_variants() {
    let p = PaperVocab::new();
    for tbox in [vehicles_tbox_el(&p), animals_tbox_el(&p)] {
        let h_el = ElClassifier::new(&tbox, &p.voc)
            .expect("EL fragment")
            .classify(&tbox, &p.voc)
            .expect("classification succeeds");
        let h_tab = Classify::new(&tbox, &p.voc)
            .run(&Budget::unlimited())
            .governed
            .expect_completed("classification succeeds");
        assert_eq!(h_el, h_tab);
    }
}

#[test]
fn repair_changes_reasoning_and_structure_together() {
    let p = PaperVocab::new();
    let vehicles = vehicles_tbox(&p);
    let before = animals_tbox(&p);
    let after = animals_tbox_repaired(&p);

    // Logically: quadruped ⊑ animal holds only after the repair.
    let mut r0 = Tableau::new(&before, &p.voc);
    let mut r1 = Tableau::new(&after, &p.voc);
    assert!(!subsumes(
        &mut r0,
        &Concept::atom(p.animal),
        &Concept::atom(p.quadruped)
    ));
    assert!(subsumes(
        &mut r1,
        &Concept::atom(p.animal),
        &Concept::atom(p.quadruped)
    ));

    // Structurally: the collapse with the vehicles disappears.
    assert!(structurally_indistinguishable(&vehicles, p.car, &before, p.dog, &p.voc).is_some());
    assert!(structurally_indistinguishable(&vehicles, p.car, &after, p.dog, &p.voc).is_none());

    // And the vehicle side is untouched: roadvehicle ⋢ motorvehicle
    // ("a horse-drawn cart … with four wheels but no engine").
    let mut rv = Tableau::new(&vehicles, &p.voc);
    assert!(!subsumes(
        &mut rv,
        &Concept::atom(p.motorvehicle),
        &Concept::atom(p.roadvehicle)
    ));
}

#[test]
fn regress_grows_with_vocabulary_size() {
    // The differentiation cost is monotone over family size — the
    // "when can we stop? we can't" shape.
    let mut previous = 0;
    for n in [2usize, 4, 6] {
        let (voc, t) = symmetric_family(n);
        let collapses = count_internal_collapses(&t, &voc, 8);
        assert!(
            collapses > previous,
            "collapses must grow with n (n={n}: {collapses} ≤ {previous})"
        );
        previous = collapses;
    }
}

#[test]
fn automated_repair_reproduces_the_papers_manual_repair() {
    let p = PaperVocab::new();
    let mut voc = p.voc.clone();
    let vehicles = vehicles_tbox(&p);
    let animals = animals_tbox(&p);
    let (added, remaining, repaired) = differentiate_against(&vehicles, &animals, &mut voc, 8, 64);
    assert!(added >= 1);
    assert!(remaining.is_empty());
    // The repaired TBox must remain coherent.
    let mut r = Tableau::new(&repaired, &voc);
    assert!(sat(&mut r, &Concept::Top));
    assert!(sat(&mut r, &Concept::atom(p.dog)));
}

#[test]
fn parser_roundtrips_the_paper_structure() {
    // Build structure (4) from concrete syntax and verify it matches
    // the programmatic corpus in reasoning behaviour.
    let mut voc = Vocabulary::new();
    let mut t = TBox::new();
    for line in [
        "car < motorvehicle & roadvehicle & some size.small",
        "pickup < motorvehicle & roadvehicle & some size.big",
        "motorvehicle < some uses.gasoline",
        "roadvehicle < exactly 4 has.wheel",
    ] {
        t.add(parse_axiom(line, &mut voc).expect("parses"));
    }
    let car = voc.find_concept("car").expect("interned");
    let motor = voc.find_concept("motorvehicle").expect("interned");
    let mut r = Tableau::new(&t, &voc);
    assert!(subsumes(&mut r, &Concept::atom(motor), &Concept::atom(car)));
    // Exactly-4 semantics: a five-wheeled roadvehicle is inconsistent.
    let road = voc.find_concept("roadvehicle").expect("interned");
    let wheel = voc.find_concept("wheel").expect("interned");
    let has = voc.find_role("has").expect("interned");
    let five = Concept::and(vec![
        Concept::atom(road),
        Concept::at_least(5, has, Concept::atom(wheel)),
    ]);
    assert!(!sat(&mut r, &five));
}
