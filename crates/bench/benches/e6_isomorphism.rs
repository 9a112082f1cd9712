//! E6 — CAR ≅ DOG (structures (4) ≅ (8)) and the repair: prints the
//! collapse report, then times the isomorphism check on the paper's
//! graphs and on growing symmetric families.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use summa_core::substrates::dl::corpus::{
    animals_tbox, animals_tbox_repaired, vehicles_tbox, PaperVocab,
};
use summa_core::substrates::structure::differentiation::symmetric_family;
use summa_core::substrates::structure::graph::{DefGraph, LabelMode};
use summa_core::substrates::structure::prelude::*;

fn print_record() {
    summa_bench::banner("E6", "structures (4) ≅ (8), diagrams (6)–(7), §3");
    let p = PaperVocab::new();
    let v = vehicles_tbox(&p);
    let a = animals_tbox(&p);
    println!(
        "  CAR ≅ DOG before repair: {}",
        structurally_indistinguishable(&v, p.car, &a, p.dog, &p.voc).is_some()
    );
    let pairs = find_isomorphic_pairs(&v, &a, &p.voc, 8);
    println!("  collapsed pairs between (4) and (8): {}", pairs.len());
    for r in pairs.iter().take(6) {
        println!("    {} ≅ {}", r.left_name, r.right_name);
    }
    let repaired = animals_tbox_repaired(&p);
    println!(
        "  CAR ≅ DOG after (9)–(11):  {}",
        structurally_indistinguishable(&v, p.car, &repaired, p.dog, &p.voc).is_some()
    );
}

fn bench(c: &mut Criterion) {
    print_record();
    let p = PaperVocab::new();
    let v = vehicles_tbox(&p);
    let a = animals_tbox(&p);
    let mut group = c.benchmark_group("e6_isomorphism");
    group.bench_function("car_dog_check", |b| {
        b.iter(|| {
            structurally_indistinguishable(black_box(&v), p.car, black_box(&a), p.dog, &p.voc)
        })
    });
    group.bench_function("all_pairs_4_vs_8", |b| {
        b.iter(|| find_isomorphic_pairs(black_box(&v), black_box(&a), &p.voc, 8))
    });
    // Raw VF2 on growing skeletons.
    for &n in summa_bench::SWEEP_SMALL {
        let (voc, t) = symmetric_family(n);
        let g = DefGraph::from_tbox(&t, &voc, LabelMode::Anonymous);
        group.bench_with_input(
            BenchmarkId::new("vf2_self_isomorphism", n),
            &n,
            |bencher, _| bencher.iter(|| find_isomorphism(black_box(&g), black_box(&g))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
