//! Ablation — the tableau's satisfiability cache under classification.
//!
//! Classification issues O(n²) subsumption queries with heavily
//! overlapping subproblems; the memo table keyed by NNF input turns
//! repeated queries into lookups. This bench classifies the same TBox
//! with one shared (caching) reasoner vs a fresh reasoner per query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use summa_core::substrates::dl::generate;
use summa_core::substrates::dl::prelude::*;
use summa_guard::Budget;

fn classify_fresh_per_query(tbox: &TBox, voc: &Vocabulary) -> usize {
    // The cache-less baseline: a new reasoner for every pairwise test.
    let atoms = tbox.atoms();
    let mut pairs = 0;
    for &sub in &atoms {
        for &sup in &atoms {
            let mut r = Tableau::new(tbox, voc);
            let query = Concept::and(vec![Concept::atom(sub), Concept::not(Concept::atom(sup))]);
            if !r
                .is_satisfiable_governed(&query, &Budget::new().with_memory(20_000))
                .expect_completed("within the node cap")
            {
                pairs += 1;
            }
        }
    }
    pairs
}

fn print_record() {
    summa_bench::banner("A2 (ablation)", "satisfiability cache under classification");
    for &n in &[6usize, 10] {
        let (voc, t, _) = generate::random_el(n, 2, n * 2, 9);
        let cached = Classify::new(&t, &voc)
            .run(&Budget::unlimited())
            .governed
            .expect_completed("classification")
            .n_pairs();
        let fresh = classify_fresh_per_query(&t, &voc);
        println!("  n={n}: cached classification finds {cached} pairs, fresh-per-query {fresh}");
        assert_eq!(cached, fresh, "the ablation must not change answers");
    }
}

fn bench(c: &mut Criterion) {
    print_record();
    let mut group = c.benchmark_group("ablation_cache");
    group.sample_size(10);
    for &n in &[6usize, 10, 14] {
        let (voc, t, _) = generate::random_el(n, 2, n * 2, 9);
        group.bench_with_input(BenchmarkId::new("shared_cached", n), &n, |b, _| {
            b.iter(|| {
                Classify::new(black_box(&t), &voc)
                    .run(&Budget::unlimited())
                    .governed
                    .expect_completed("classification")
            })
        });
        group.bench_with_input(BenchmarkId::new("fresh_per_query", n), &n, |b, _| {
            b.iter(|| classify_fresh_per_query(black_box(&t), &voc))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
