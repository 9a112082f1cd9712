//! Resource governance walkthrough: budgets, deadlines, cancellation
//! and fault injection over a worst-case reasoning workload.
//!
//! ```text
//! cargo run --example governed_reasoning
//! ```
//!
//! The workload is the pigeonhole principle as a TBox — incoherent,
//! but only provably so after an exponential search — so an
//! ungoverned satisfiability call would run for longer than the
//! universe has. Every call below returns in bounded time with an
//! honest account of what it did and did not establish.

use std::sync::Arc;
use std::time::Duration;
use summa_dl::concept::{Concept, Vocabulary};
use summa_dl::parser::parse_concept;
use summa_dl::tableau::Tableau;
use summa_dl::tbox::TBox;
use summa_guard::{Budget, CancelToken, FaultInjector, Governed};

/// `holes + 1` pigeons, `holes` holes, no sharing: unsatisfiable,
/// exponentially so.
fn pigeonhole(holes: usize) -> (Vocabulary, TBox, Concept) {
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

fn describe<T>(what: &str, g: &Governed<T>) {
    match g {
        Governed::Completed(_) => println!("  {what:<28} completed"),
        Governed::Exhausted { reason, partial } => println!(
            "  {what:<28} exhausted ({reason}), partial {}",
            if partial.is_some() { "kept" } else { "none" }
        ),
        Governed::Cancelled { .. } => println!("  {what:<28} cancelled"),
    }
}

fn main() {
    let (voc, t, probe) = pigeonhole(6);

    println!(
        "pigeonhole(6): {} GCIs, provably incoherent only after",
        t.axioms().len()
    );
    println!("an exponential search. Governed calls on it:\n");

    // A step budget: abstract work units, deterministic.
    let mut r = Tableau::new(&t, &voc);
    let g = r.is_satisfiable_governed(&probe, &Budget::new().with_steps(10_000));
    describe("10k-step budget:", &g);

    // A wall-clock deadline.
    let mut r = Tableau::new(&t, &voc);
    let g = r.is_satisfiable_governed(
        &probe,
        &Budget::new().with_deadline(Duration::from_millis(25)),
    );
    describe("25ms deadline:", &g);

    // Cooperative cancellation (here: cancelled up front; in real use,
    // from another thread).
    let token = CancelToken::new();
    token.cancel();
    let mut r = Tableau::new(&t, &voc);
    let g = r.is_satisfiable_governed(&probe, &Budget::new().with_cancel(token));
    describe("cancelled token:", &g);

    // Fault injection: rehearse the degradation path itself. Every
    // step charge arrives at the `meter.step` site.
    let injector = FaultInjector::parse_plan("meter.step@100=trip", 0).expect("valid plan");
    let mut r = Tableau::new(&t, &voc);
    let g = r.is_satisfiable_governed(&probe, &Budget::new().with_injector(Arc::new(injector)));
    describe("fault at step 100:", &g);

    // An unlimited budget reproduces the legacy answer on feasible
    // input — here a tiny coherent TBox.
    let mut voc2 = Vocabulary::new();
    let mut t2 = TBox::new();
    let cat = voc2.concept("Cat");
    let animal = voc2.concept("Animal");
    t2.subsume(Concept::atom(cat), Concept::atom(animal));
    let mut r2 = Tableau::new(&t2, &voc2);
    let g = r2.is_satisfiable_governed(&Concept::atom(cat), &Budget::unlimited());
    describe("unlimited, easy TBox:", &g);
    assert!(matches!(g, Governed::Completed(true)));

    // Parse errors carry byte offsets instead of panicking.
    println!();
    for bad in ["car & some size.", "car & (some size.small"] {
        match parse_concept(bad, &mut voc2) {
            Ok(_) => println!("  parse '{bad}': unexpectedly succeeded"),
            Err(e) => println!("  malformed concept rejected: {e}"),
        }
    }

    println!("\nEvery call returned; none lied about what it proved.");
}
