//! E9 — the age-adjective correspondence table: regenerates the
//! paper's three-language table and the alignment statistics, then
//! times alignment computation on growing synthetic fields.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use summa_core::substrates::lexfield::prelude::*;

fn print_record() {
    summa_bench::banner("E9", "the vecchio/viejo/vieux table, §3");
    let f = age_adjectives_dataset();
    println!(
        "  {:<32}{:<12}{:<12}{:<12}",
        "situation", "Italian", "Spanish", "French"
    );
    for pt in f.space.points() {
        let word = |field: &LexicalField| {
            field
                .words_for(pt)
                .iter()
                .map(|&i| field.name(i).to_string())
                .collect::<Vec<_>>()
                .join("/")
        };
        println!(
            "  {:<32}{:<12}{:<12}{:<12}",
            f.space.label(pt),
            word(&f.italian),
            word(&f.spanish),
            word(&f.french)
        );
    }
    for (a, b) in [
        (&f.italian, &f.spanish),
        (&f.italian, &f.french),
        (&f.spanish, &f.french),
    ] {
        let al = Alignment::between(&f.space, a, b);
        println!(
            "  {:>8} → {:<8} bijective={:<5} ambiguity={}",
            a.language(),
            b.language(),
            al.is_bijective(),
            al.total_ambiguity()
        );
    }
}

/// Synthetic fields over an `n`-point space: L1 divides it into
/// pairs, L2 into offset pairs — guaranteed misalignment.
fn synthetic_pair(n: usize) -> (SemanticSpace, LexicalField, LexicalField) {
    let mut space = SemanticSpace::new();
    let pts: Vec<Point> = (0..n).map(|i| space.point(&format!("p{i}"))).collect();
    let mut f1 = LexicalField::new("L1");
    for (w, chunk) in pts.chunks(2).enumerate() {
        f1.item(&format!("u{w}"), chunk.iter().copied());
    }
    let mut f2 = LexicalField::new("L2");
    f2.item("v_first", [pts[0]]);
    for (w, chunk) in pts[1..].chunks(2).enumerate() {
        f2.item(&format!("v{w}"), chunk.iter().copied());
    }
    (space, f1, f2)
}

fn bench(c: &mut Criterion) {
    print_record();
    let f = age_adjectives_dataset();
    let mut group = c.benchmark_group("e9_alignment");
    group.bench_function("age_table_alignment_it_es", |b| {
        b.iter(|| Alignment::between(black_box(&f.space), &f.italian, &f.spanish))
    });
    for &n in summa_bench::SWEEP_MEDIUM {
        let (space, f1, f2) = synthetic_pair(n);
        group.bench_with_input(
            BenchmarkId::new("synthetic_alignment", n),
            &n,
            |bencher, _| bencher.iter(|| Alignment::between(black_box(&space), &f1, &f2)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
