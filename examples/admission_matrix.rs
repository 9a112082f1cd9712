//! E3 — the admission matrix: every candidate definition of
//! "ontology" judged against the paper's corpus of artifacts, with
//! reasons.
//!
//! ```text
//! cargo run --example admission_matrix
//! ```

use summa_core::prelude::*;

fn main() {
    let matrix = syntactic_critique();
    println!("{}", matrix.render());

    println!("Reasons, per definition:\n");
    for d in &matrix.definitions {
        println!("— {d}:");
        for a in &matrix.artifacts {
            let j = matrix.judgment(a, d).expect("cell exists");
            println!("    {a:<24} {:?}: {}", j.verdict, j.reason);
        }
        println!();
    }

    println!(
        "Admission counts (of {} artifacts):",
        matrix.artifacts.len()
    );
    for d in &matrix.definitions {
        println!("  {:<26} {}", d, matrix.admission_count(d));
    }

    // The Gruber definition with a declared telos, for contrast.
    println!("\nWith a declared telos (Gruber only):");
    let gruber = GruberDefinition;
    for a in standard_corpus() {
        let j = gruber.admits(&a, Some(Telos::KnowledgeSharing));
        println!("  {:<24} {:?}", a.name(), j.verdict);
    }
    println!(
        "\n\"This definition doesn't tell us what an ontology is but, rather, \
         what it is (generally) used for. This kind of definition is of course \
         unacceptable in computing science.\""
    );
}
