//! E11 — reasoner substrate scaling: the polynomial EL classifier vs
//! the tableau on (a) shared EL workloads and (b) the hard ALC family
//! only the tableau can handle. The expected shape: EL wins on the
//! shared fragment and scales smoothly; tableau cost explodes on the
//! branching family — the crossover is at *expressivity*, not size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use summa_core::substrates::dl::classify::Classifier;
use summa_core::substrates::dl::el::ElClassifier;
use summa_core::substrates::dl::generate;
use summa_core::substrates::dl::prelude::*;
use summa_guard::Budget;

fn print_record() {
    summa_bench::banner("E11", "reasoner-substrate scaling (synthetic)");
    println!("  workload           | EL pairs | tableau pairs | agree");
    for &n in &[8usize, 12, 16] {
        let (voc, t, _) = generate::random_el(n, 3, n * 2, 42);
        let h_el = ElClassifier::new(&t, &voc)
            .expect("EL")
            .classify(&t, &voc)
            .expect("ok");
        let h_tab = Classify::new(&t, &voc)
            .run(&Budget::unlimited())
            .governed
            .expect_completed("ok");
        println!(
            "  random_el(n={n:<3})   | {:>8} | {:>13} | {}",
            h_el.n_pairs(),
            h_tab.n_pairs(),
            h_el == h_tab
        );
    }
    for &n in &[4usize, 6] {
        let (voc, c) = generate::hard_alc(n);
        let mut r = Tableau::new(&TBox::new(), &voc);
        println!(
            "  hard_alc(n={n:<2}) satisfiable by tableau: {} (EL: outside fragment)",
            r.is_satisfiable_governed(&c, &Budget::new().with_memory(20_000))
                .expect_completed("within the node cap")
        );
    }
}

fn bench(c: &mut Criterion) {
    print_record();
    let mut group = c.benchmark_group("e11_reasoners");
    group.sample_size(10);
    // (a) Shared EL workloads: classify with both reasoners. The
    // brute-force tableau classification is quadratic in atoms with
    // nontrivial per-query cost, so the sweep stays modest.
    for &n in &[8usize, 12, 16] {
        let (voc, t, _) = generate::random_el(n, 3, n * 2, 42);
        group.bench_with_input(BenchmarkId::new("el_classify", n), &n, |bencher, _| {
            bencher.iter(|| {
                ElClassifier::new(black_box(&t), &voc)
                    .expect("EL")
                    .classify(&t, &voc)
                    .expect("ok")
            })
        });
        group.bench_with_input(BenchmarkId::new("tableau_classify", n), &n, |bencher, _| {
            bencher.iter(|| {
                Classify::new(black_box(&t), &voc)
                    .run(&Budget::unlimited())
                    .governed
                    .expect_completed("ok")
            })
        });
    }
    // (b) The branching family: tableau only (cost explodes with n —
    // that explosion is the measurement).
    for &n in &[3usize, 4, 5] {
        let (voc, concept) = generate::hard_alc(n);
        group.bench_with_input(BenchmarkId::new("tableau_hard_alc", n), &n, |bencher, _| {
            bencher.iter(|| {
                // A fresh reasoner each time: no cache effects.
                let mut r = Tableau::new(&TBox::new(), &voc);
                r.is_satisfiable_governed(black_box(&concept), &Budget::new().with_memory(20_000))
                    .expect_completed("within the node cap")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
