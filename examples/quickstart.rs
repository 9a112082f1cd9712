//! Quickstart: run all three of the paper's critiques and print their
//! reports.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use summa_core::prelude::*;

fn main() {
    println!("Summa Contra Ontologiam — executable edition\n");

    // §2 — the syntactic critique: what does each candidate
    // definition of "ontology" admit?
    println!("== §2 Syntactic critique: the admission matrix ==\n");
    let matrix = syntactic_critique();
    println!("{}", matrix.render());
    println!(
        "Guarino (abstracted) admits {} of {} artifacts — \
         \"any set of statements that admits at least a model is an ontonomy\".",
        matrix.admission_count("Guarino (abstracted)"),
        matrix.artifacts.len()
    );
    println!(
        "Bench-Capon & Malcolm admits {} — structural, but narrow.\n",
        matrix.admission_count("Bench-Capon & Malcolm")
    );

    // §3 — the semantic critique: CAR = DOG and the lexical fields.
    println!("== §3 Semantic critique ==\n");
    let sem = semantic_critique();
    println!(
        "CAR = DOG (structures (4) ≅ (8)):          {}",
        sem.car_equals_dog
    );
    println!(
        "repair (9)–(11) breaks the isomorphism:    {}",
        sem.repair_breaks_collapse
    );
    println!(
        "collapsed concept pairs across (4)/(8):    {}",
        sem.collapsed_pairs
    );
    println!(
        "doorknob→pomello word-for-word possible:   {}",
        !sem.doorknob_not_bijective
    );
    println!(
        "age-adjective translation ambiguity:       {}",
        sem.age_total_ambiguity
    );
    println!();

    // §3–4 — the pragmatic critique: the death of the reader.
    println!("== §3–4 Pragmatic critique ==\n");
    let prag = pragmatic_critique();
    println!("contexts read:                 {}", prag.n_contexts);
    println!(
        "distinct meanings of one sign: {}",
        prag.n_distinct_meanings
    );
    println!(
        "mean meaning distance:         {:.2}",
        prag.mean_meaning_distance
    );
    println!("loss from freezing one code:   {:.2}", prag.encoding_loss);
    println!(
        "\n\"There is no objective, essential or immutable meaning that can \
         be encoded … without the active, culturally and historically \
         situated, participation of the reader.\""
    );
}
