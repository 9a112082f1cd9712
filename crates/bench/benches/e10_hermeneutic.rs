//! E10 — "trespassers will be prosecuted": prints the per-context
//! interpretations, meaning variance and encoding loss, then times
//! the fixpoint interpreter on synthetic convention chains.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use summa_core::substrates::hermeneutic::prelude::*;

fn print_record() {
    summa_bench::banner("E10", "the trespassers sign, §3");
    let text = trespassers_sign();
    let contexts = all_contexts();
    for ctx in &contexts {
        let (props, rounds, _) = interpret_traced(&text, ctx);
        println!(
            "  {:<18} {} propositions, {} circle rounds",
            ctx.name(),
            props.len(),
            rounds
        );
    }
    let refs: Vec<&Context> = contexts.iter().collect();
    let v = MeaningVariance::across(&text, &refs);
    println!(
        "  distinct meanings: {} / {}; mean distance {:.2}",
        v.n_distinct,
        contexts.len(),
        v.mean_jaccard_distance
    );
    let frozen = interpret(&text, &contexts[0]);
    println!(
        "  encoding loss (door reading frozen): {:.2}",
        encoding_loss(&text, &frozen, &refs)
    );
}

/// A chain context of depth `n` (n rounds of the circle).
fn chain_context(n: usize) -> (Text, Context) {
    let mut text = Text::new();
    text.cue("cue:start");
    let mut ctx = Context::new("chain");
    ctx.add(Convention::new("r0", ["cue:start"], [], "p0"));
    for i in 1..n {
        let prev = format!("p{}", i - 1);
        let cur = format!("p{i}");
        ctx.add(Convention::new(&format!("r{i}"), [], [prev.as_str()], &cur));
    }
    (text, ctx)
}

fn bench(c: &mut Criterion) {
    print_record();
    let text = trespassers_sign();
    let door = door_of_building_context();
    let mut group = c.benchmark_group("e10_hermeneutic");
    group.bench_function("interpret_at_door", |b| {
        b.iter(|| interpret(black_box(&text), black_box(&door)))
    });
    for &n in summa_bench::SWEEP_MEDIUM {
        let (t, ctx) = chain_context(n);
        group.bench_with_input(BenchmarkId::new("fixpoint_chain", n), &n, |bencher, _| {
            bencher.iter(|| interpret(black_box(&t), black_box(&ctx)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
