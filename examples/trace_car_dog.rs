//! Capture a flamegraph-ready trace of the paper's CAR = DOG argument.
//!
//! Runs the structural-collapse check (vehicles §2 structure (4) vs
//! animals structure (8)) and a 4-way parallel classification of the
//! animals TBox under one enabled tracer, then exports the trace as
//!
//! * `trace_car_dog.json`   — Chrome trace-event JSON; drag it into
//!   <https://ui.perfetto.dev> (or `chrome://tracing`) to see one lane
//!   per worker thread with the nested tableau spans, or
//! * `trace_car_dog.folded` — collapsed stacks for flamegraph tooling
//!   (`flamegraph.pl trace_car_dog.folded > trace.svg`),
//!
//! and prints the human-readable call tree and metrics to stdout.
//!
//! Run with: `cargo run --example trace_car_dog`

use summa_dl::corpus::{animals_tbox, vehicles_tbox, PaperVocab};
use summa_dl::prelude::Classify;
use summa_guard::obs::export::validate_chrome_trace;
use summa_guard::obs::Tracer;
use summa_guard::Budget;
use summa_structure::prelude::structurally_indistinguishable_governed;

fn main() {
    let tracer = Tracer::enabled();
    let budget = Budget::unlimited().with_tracer(tracer.clone());

    let p = PaperVocab::new();
    let vehicles = vehicles_tbox(&p);
    let animals = animals_tbox(&p);

    // The paper's §3 collapse: CAR and DOG play the same structural
    // role, so a purely structural semantics cannot tell them apart.
    let collapse = structurally_indistinguishable_governed(
        &vehicles, p.car, &animals, p.dog, &p.voc, 8, &budget,
    )
    .expect_completed("unlimited budget");
    println!(
        "CAR = DOG: {}",
        if collapse.is_some() {
            "collapsed (isomorphic neighborhoods)"
        } else {
            "distinguished"
        }
    );

    // A governed parallel classification so the trace shows worker
    // lanes with nested tableau spans and cache counters.
    let hierarchy = Classify::new(&animals, &p.voc)
        .threads(4)
        .run(&budget)
        .governed
        .expect_completed("unlimited budget");
    println!(
        "classified the animals TBox: {} subsumption pairs\n",
        hierarchy.n_pairs()
    );

    let snap = tracer.snapshot();
    println!("{}", snap.text_tree());
    println!("{}", snap.metrics_text());

    let chrome = snap.chrome_trace();
    let events = validate_chrome_trace(&chrome).expect("export must be valid Chrome JSON");
    std::fs::write("trace_car_dog.json", &chrome).expect("write trace_car_dog.json");
    std::fs::write("trace_car_dog.folded", snap.collapsed_stacks())
        .expect("write trace_car_dog.folded");
    println!(
        "wrote trace_car_dog.json ({events} trace events) — open it at https://ui.perfetto.dev"
    );
    println!("wrote trace_car_dog.folded — feed it to flamegraph.pl / inferno");
}
