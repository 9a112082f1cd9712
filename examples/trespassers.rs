//! E10 — "trespassers will be prosecuted": one text, four situations,
//! four meanings; and the measurable cost of freezing one of them as
//! *the* encoding.
//!
//! ```text
//! cargo run --example trespassers
//! ```

use summa_core::substrates::hermeneutic::prelude::*;

fn main() {
    let text = trespassers_sign();
    println!("The text's cues:");
    for c in text.cues() {
        println!("  {c}");
    }
    println!();

    let contexts = all_contexts();
    for ctx in &contexts {
        let (props, rounds, fired) = interpret_traced(&text, ctx);
        println!(
            "— In context '{}' ({} conventions, {} rounds of the circle):",
            ctx.name(),
            ctx.len(),
            rounds
        );
        for p in &props {
            println!("    {p}");
        }
        println!("  fired: {}", fired.join(" → "));
        println!();
    }

    let refs: Vec<&Context> = contexts.iter().collect();
    let v = MeaningVariance::across(&text, &refs);
    println!(
        "distinct meanings: {} of {} contexts; mean pairwise distance {:.2}",
        v.n_distinct,
        contexts.len(),
        v.mean_jaccard_distance
    );

    // Freeze the author's intended (door) reading and measure the loss.
    let frozen = interpret(&text, &contexts[0]);
    let loss = encoding_loss(&text, &frozen, &refs);
    println!("encoding loss when the door reading is frozen: {:.2}", loss);
    println!(
        "\n\"To the Barthesian death of the author, ontology opposes a drastic \
         'death of the reader.'\""
    );
}
