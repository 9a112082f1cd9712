//! E5/E6/E7 — the CAR = DOG argument end to end: extract diagrams (6)
//! and (7) from structure (4), exhibit the isomorphism with structure
//! (8), apply the paper's repair (9)–(11), and run the automated
//! differentiation that shows the regress.
//!
//! ```text
//! cargo run --example car_dog
//! ```

use summa_core::substrates::dl::corpus::{
    animals_tbox, animals_tbox_repaired, vehicles_tbox, PaperVocab,
};
use summa_core::substrates::structure::differentiation::differentiate_against;
use summa_core::substrates::structure::graph::{DefGraph, LabelMode};
use summa_core::substrates::structure::prelude::*;

fn main() {
    let p = PaperVocab::new();
    let vehicles = vehicles_tbox(&p);
    let animals = animals_tbox(&p);

    println!("Structure (4) — the vehicle ontonomy:\n");
    println!("{}", vehicles.render(&p.voc));

    println!("Diagram (6) — its definition graph:\n");
    let g6 = DefGraph::from_tbox(&vehicles, &p.voc, LabelMode::Full);
    println!("{}", g6.render());

    println!("Diagram (7) — the anonymized skeleton (\"the meaning of CAR\"):\n");
    let g7 = DefGraph::from_tbox(&vehicles, &p.voc, LabelMode::Anonymous);
    println!("{}", g7.render());

    println!("Structure (8) — the animal ontonomy:\n");
    println!("{}", animals.render(&p.voc));

    match structurally_indistinguishable(&vehicles, p.car, &animals, p.dog, &p.voc) {
        Some(mapping) => {
            println!(
                "CAR ≅ DOG: the skeletons are isomorphic ({} nodes mapped).",
                mapping.len()
            );
            println!("If meaning is structure, CAR = DOG. \"I expect quite a few people to");
            println!("object to this identification on ground of affection either toward");
            println!("their poodle or toward their BMW.\"\n");
        }
        None => println!("unexpectedly distinct!\n"),
    }

    let pairs = find_isomorphic_pairs(&vehicles, &animals, &p.voc, 8);
    println!("All collapsed pairs between (4) and (8):");
    for r in &pairs {
        println!("  {} ≅ {}", r.left_name, r.right_name);
    }
    println!();

    println!("Applying the repair (9)–(11): quadruped ⊑ animal …\n");
    let repaired = animals_tbox_repaired(&p);
    println!("{}", repaired.render(&p.voc));
    let still = structurally_indistinguishable(&vehicles, p.car, &repaired, p.dog, &p.voc);
    println!("CAR ≅ DOG after the repair: {}\n", still.is_some());

    println!("\"If this new structure is still not enough to differentiate between");
    println!("different concepts, we can add more predicates. The question is: when");
    println!("can we stop? The answer is that we can't.\"\n");

    let mut voc = p.voc.clone();
    let (added, remaining, _) = differentiate_against(&vehicles, &animals, &mut voc, 8, 64);
    println!(
        "Automated repair of (8) against (4): {added} axioms added, \
         {} collapses remaining.",
        remaining.len()
    );
}
