//! E12 — order-sorted rewriting scaling: Peano addition normal forms
//! as term size grows, plus critical-pair analysis cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use summa_core::substrates::osa::prelude::*;

fn peano() -> (Theory, OpId, OpId, OpId) {
    let mut b = SignatureBuilder::new();
    let nat = b.sort("Nat");
    let zero = b.op("zero", &[], nat);
    let succ = b.op("succ", &[nat], nat);
    let plus = b.op("plus", &[nat, nat], nat);
    let sig = b.finish().expect("ok");
    let mut th = Theory::new(sig);
    let x = Term::var("x", nat);
    let y = Term::var("y", nat);
    th.add_equation(Equation::new(
        Term::app(plus, vec![Term::constant(zero), y.clone()]),
        y.clone(),
    ))
    .expect("valid");
    th.add_equation(Equation::new(
        Term::app(plus, vec![Term::app(succ, vec![x.clone()]), y.clone()]),
        Term::app(succ, vec![Term::app(plus, vec![x, y])]),
    ))
    .expect("valid");
    (th, zero, succ, plus)
}

fn num(n: usize, zero: OpId, succ: OpId) -> Term {
    let mut t = Term::constant(zero);
    for _ in 0..n {
        t = Term::app(succ, vec![t]);
    }
    t
}

fn print_record() {
    summa_bench::banner("E12", "order-sorted rewriting substrate (synthetic)");
    let (th, zero, succ, plus) = peano();
    let rs = RewriteSystem::from_theory(&th).expect("orientable");
    for &n in &[4usize, 16, 64] {
        let t = Term::app(plus, vec![num(n, zero, succ), num(n, zero, succ)]);
        let nf = rs.normal_form(&t, 100_000).expect("terminates");
        println!("  {n} + {n} normalizes to a term of depth {}", nf.depth());
    }
    println!(
        "  critical pairs: {}, locally confluent: {}",
        rs.critical_pairs().len(),
        rs.is_locally_confluent(1000).expect("within budget")
    );
}

fn bench(c: &mut Criterion) {
    print_record();
    let (th, zero, succ, plus) = peano();
    let rs = RewriteSystem::from_theory(&th).expect("orientable");
    let mut group = c.benchmark_group("e12_rewrite");
    for &n in &[4usize, 16, 64] {
        let t = Term::app(plus, vec![num(n, zero, succ), num(n, zero, succ)]);
        group.bench_with_input(
            BenchmarkId::new("peano_addition_nf", n),
            &n,
            |bencher, _| bencher.iter(|| rs.normal_form(black_box(&t), 1_000_000).expect("ok")),
        );
    }
    group.bench_function("critical_pairs", |b| {
        b.iter(|| black_box(&rs).critical_pairs())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
