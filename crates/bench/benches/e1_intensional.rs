//! E1 — structures (1)–(3): extensional vs intensional `[above]` on
//! the blocks world. Prints the paper's structure (1) and (3), then
//! times intensional-relation construction as the world space grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use summa_core::substrates::intensional::prelude::*;

fn print_record() {
    summa_bench::banner("E1", "structures (1)–(3), §2");
    let mut dom = Domain::new();
    let (a, b, c, d) = (dom.elem("a"), dom.elem("b"), dom.elem("c"), dom.elem("d"));
    let mut w0 = BlocksWorld::new();
    w0.place(a, 0, 2);
    w0.place(b, 0, 1);
    w0.place(d, 0, 0);
    w0.place(c, 1, 0);
    let mut w1 = BlocksWorld::new();
    w1.place(a, 0, 0);
    w1.place(b, 0, 1);
    let space = WorldSpace::structured(vec![w0, w1]);
    let above = IntensionalRelation::aboveness("above", &dom, &space).expect("structured");
    println!(
        "  (1) [above](w0) = {}",
        above.at(0).expect("w0").render(&dom)
    );
    println!(
        "  (3) [above](w1) = {}",
        above.at(1).expect("w1").render(&dom)
    );
    println!(
        "  rigid: {}, distinct extensions: {}",
        above.is_rigid(),
        above.n_distinct_extensions()
    );
}

fn bench(c: &mut Criterion) {
    print_record();
    let mut group = c.benchmark_group("e1_intensional");
    for &n_blocks in &[2usize, 3, 4] {
        let mut dom = Domain::new();
        let blocks: Vec<Elem> = (0..n_blocks).map(|i| dom.elem(&format!("b{i}"))).collect();
        let space = WorldSpace::enumerate_blocks(&blocks, 2, 2);
        group.bench_with_input(
            BenchmarkId::new("aboveness_over_enumerated_worlds", n_blocks),
            &n_blocks,
            |bencher, _| {
                bencher.iter(|| {
                    IntensionalRelation::aboveness("above", black_box(&dom), black_box(&space))
                        .expect("structured")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
