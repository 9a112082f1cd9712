//! Sequential vs multi-threaded reasoning throughput.
//!
//! Like `classify.rs` this bench is also a report generator: besides
//! printing ns/iter it writes `BENCH_parallel.json` at the workspace
//! root, comparing one-thread and `SUMMA_BENCH_THREADS`-way
//! classification (the same `Classify` request, default 4 threads)
//! wall time per workload, together with the shared subsumption
//! cache's hit/miss counts from one instrumented parallel run. Each
//! timed iteration builds a *fresh* cache so cross-iteration reuse
//! cannot flatter the speedup.
//!
//! `SUMMA_BENCH_SMOKE=1` shrinks each lane to one sample and writes
//! the report under `target/bench-smoke/`, leaving the committed one
//! alone.

use criterion::{json_escape, Criterion};
use std::fmt::Write as _;
use std::sync::Arc;
use summa_bench::smoke;
use summa_dl::cache::SatCache;
use summa_dl::classify::Classify;
use summa_dl::concept::Vocabulary;
use summa_dl::generate;
use summa_dl::tbox::TBox;
use summa_guard::Budget;

/// Thread count for the parallel lane (the acceptance target is a
/// ≥ 2× speedup at 4 threads on the pigeonhole workload).
fn threads() -> usize {
    std::env::var("SUMMA_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

struct Workload {
    name: &'static str,
    voc: Vocabulary,
    tbox: TBox,
}

fn workloads() -> Vec<Workload> {
    // The adversarial lane: incoherent pigeonhole TBox, every
    // subsumption cell an exponential refutation.
    // holes = 3 puts the whole 14-atom grid near 400 ms sequentially
    // (≈ 2 ms a cell); holes = 4 already takes minutes — the workload
    // is exponential by design, so resist the urge to turn it up.
    let (p_voc, p_tbox, _) = generate::pigeonhole_tbox(3, 2);
    // Generated corpora: a random EL terminology (kept small — tableau
    // cost on random existential TBoxes grows violently with size) and
    // a deep diamond lattice (many mid-weight cells).
    let (e_voc, e_tbox, _) = generate::random_el(12, 2, 16, 0x5EED);
    let (d_voc, d_tbox, _) = generate::diamond(6);
    vec![
        Workload {
            name: "pigeonhole",
            voc: p_voc,
            tbox: p_tbox,
        },
        Workload {
            name: "random_el",
            voc: e_voc,
            tbox: e_tbox,
        },
        Workload {
            name: "diamond",
            voc: d_voc,
            tbox: d_tbox,
        },
    ]
}

fn main() {
    let threads = threads();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let loads = workloads();
    let mut c = Criterion::default();
    {
        let mut g = c.benchmark_group("classify");
        g.sample_size(if smoke() { 1 } else { 10 });
        for w in &loads {
            let request = Classify::new(&w.tbox, &w.voc);
            g.bench_function(format!("{}/seq", w.name), |b| {
                b.iter(|| request.run(&Budget::unlimited()))
            });
            let request = request.threads(threads);
            g.bench_function(format!("{}/par{threads}", w.name), |b| {
                b.iter(|| request.run(&Budget::unlimited()))
            });
        }
        g.finish();
    }

    // One instrumented parallel run per workload: cache statistics, a
    // sequential-equivalence check on the hierarchies themselves, and
    // a warm-cache rerun against the same shared cache — the
    // cross-run reuse the `cache` setter exists for.
    let mut entries = Vec::new();
    for w in &loads {
        let seq = Classify::new(&w.tbox, &w.voc)
            .run(&Budget::unlimited())
            .governed
            .expect_completed("unlimited");
        let cache = Arc::new(SatCache::new());
        let request = Classify::new(&w.tbox, &w.voc).threads(threads).cache(cache);
        let par = request.run(&Budget::unlimited());
        let spend = par.spend;
        assert_eq!(
            seq,
            par.governed.expect_completed("unlimited"),
            "parallel hierarchy must equal sequential"
        );
        let warm_started = std::time::Instant::now();
        let warm = request.run(&Budget::unlimited());
        let warm_ns = warm_started.elapsed().as_nanos();
        let warm_spend = warm.spend;
        assert_eq!(seq, warm.governed.expect_completed("unlimited"));

        let seq_ns = c
            .ns_per_iter("classify", &format!("{}/seq", w.name))
            .expect("timed");
        let par_ns = c
            .ns_per_iter("classify", &format!("{}/par{threads}", w.name))
            .expect("timed");
        let speedup = seq_ns as f64 / par_ns as f64;
        let warm_speedup = seq_ns as f64 / warm_ns.max(1) as f64;
        let atoms = w.tbox.atoms().len();
        println!(
            "  {:<12} {} atoms: speedup {:.2}x cold / {:.2}x warm, cache cold {}/{} warm {}/{} hit",
            w.name,
            atoms,
            speedup,
            warm_speedup,
            spend.cache_hits,
            spend.cache_hits + spend.cache_misses,
            warm_spend.cache_hits,
            warm_spend.cache_hits + warm_spend.cache_misses,
        );
        let mut e = String::new();
        write!(
            e,
            "    {{\"name\": \"{}\", \"atoms\": {}, \"sequential_ns\": {}, \"parallel_ns\": {}, \
             \"speedup\": {:.3}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"warm_parallel_ns\": {}, \"warm_speedup\": {:.3}, \
             \"warm_cache_hits\": {}, \"warm_cache_misses\": {}}}",
            json_escape(w.name),
            atoms,
            seq_ns,
            par_ns,
            speedup,
            spend.cache_hits,
            spend.cache_misses,
            warm_ns,
            warm_speedup,
            warm_spend.cache_hits,
            warm_spend.cache_misses,
        )
        .expect("write to string");
        entries.push(e);
    }

    // Provenance header: what was run, where, and when. `host_cpus`
    // keys the interpretation — on a single-core host the parallel
    // lane cannot beat wall clock no matter how well the executor
    // scales — and the explicit caveat says so in the report itself
    // whenever the lane was oversubscribed.
    let summa_threads = match std::env::var("SUMMA_THREADS") {
        Ok(v) => format!("\"{}\"", json_escape(&v)),
        Err(_) => "null".to_string(),
    };
    let caveat = if smoke() {
        ",\n  \"caveat\": \"smoke mode (SUMMA_BENCH_SMOKE=1): one sample per lane, wall times are format placeholders\"".to_string()
    } else if threads > host_cpus {
        format!(
            ",\n  \"caveat\": \"{} threads timed on a {}-cpu host: parallel lanes are oversubscribed and speedups near or below 1.0 are expected, not regressions\"",
            threads, host_cpus
        )
    } else {
        String::new()
    };
    let json = format!(
        "{{\n  \"bench\": \"parallel_classification\",\n  \"threads\": {},\n  \"host_cpus\": {},\n  \"summa_threads_env\": {},\n  \"generated_at\": \"{}\"{},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        threads,
        host_cpus,
        summa_threads,
        summa_bench::iso8601_utc_now(),
        caveat,
        entries.join(",\n"),
    );
    let path = summa_bench::write_report("parallel", &json);
    println!("\nwrote {}", path.display());
}
