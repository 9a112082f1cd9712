//! Ablation — the absorption optimization of the tableau reasoner.
//!
//! DESIGN.md calls out absorption (lazy application of atomic-LHS
//! GCIs) as the design choice that makes general-TBox tableau
//! reasoning tractable here. This bench measures the same
//! satisfiability workload with absorption on and off; the expected
//! shape is a widening gap as the number of axioms grows, since every
//! non-absorbed GCI becomes one more disjunction at every node.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use summa_core::substrates::dl::generate;
use summa_core::substrates::dl::prelude::*;
use summa_guard::{Budget, Governed};

/// Node cap for the absorption-free reasoner: a memory wall of one
/// unit per spawned node.
fn node_cap() -> Budget {
    Budget::new().with_memory(200_000)
}

fn print_record() {
    summa_bench::banner(
        "A1 (ablation)",
        "absorption in the tableau, DESIGN.md §2 notes",
    );
    for &n in &[4usize, 6, 8] {
        let (voc, t, ids) = generate::random_el(n, 2, n, 3);
        let query = Concept::atom(ids[0]);
        let mut with = Tableau::new(&t, &voc);
        let mut without = Tableau::new_without_absorption(&t, &voc);
        let a = with
            .is_satisfiable_governed(&query, &Budget::new().with_memory(20_000))
            .expect_completed("within the node cap");
        let b = match without.is_satisfiable_governed(&query, &node_cap()) {
            Governed::Completed(x) => x.to_string(),
            _ => "budget exceeded".to_string(),
        };
        println!("  n={n}: with absorption → {a}; without → {b}");
    }
}

fn bench(c: &mut Criterion) {
    print_record();
    let mut group = c.benchmark_group("ablation_absorption");
    group.sample_size(10);
    for &n in &[4usize, 6, 8] {
        let (voc, t, ids) = generate::random_el(n, 2, n, 3);
        let query = Concept::atom(ids[0]);
        group.bench_with_input(BenchmarkId::new("with_absorption", n), &n, |b, _| {
            b.iter(|| {
                let mut r = Tableau::new(black_box(&t), &voc);
                r.is_satisfiable_governed(black_box(&query), &Budget::new().with_memory(20_000))
                    .expect_completed("within the node cap")
            })
        });
        group.bench_with_input(BenchmarkId::new("without_absorption", n), &n, |b, _| {
            b.iter(|| {
                let mut r = Tableau::new_without_absorption(black_box(&t), &voc);
                // Exhausted runs count as completed work for timing
                // purposes; correctness equivalence is asserted in the
                // dl unit tests.
                let _ = r.is_satisfiable_governed(black_box(&query), &node_cap());
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
