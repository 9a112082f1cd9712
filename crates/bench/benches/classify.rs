//! Brute-force vs enhanced-traversal vs EL-saturation classification.
//!
//! Like `parallel.rs` this bench is also a report generator: besides
//! printing ns/iter it writes `BENCH_classify.json` at the workspace
//! root, comparing the classical O(n²) subsumption grid
//! (`classify_brute_force_governed`) against the enhanced traversal
//! (`Classify` at one thread: told-subsumer seeding, row
//! satisfiability probes, top-down pruning) per workload — wall time
//! *and* issued satisfiability calls, since the sat-call count is the
//! machine-independent measure the traversal actually optimizes. On
//! the workloads inside the EL fragment an `el` lane adds EL
//! saturation (`ElClassifier`), whose machine-independent counter is
//! its completion steps, and an `el_index` lane times what snapshot
//! install runs there: `ElClassifier::new` plus `index_metered`, which
//! saturates and packs the rows straight into the `HierarchyIndex`,
//! charging one step per named pair first (`el_pairs`).
//!
//! Every instrumented run asserts the hierarchies are byte-identical
//! across lanes, and the diamond lattice additionally asserts the
//! enhanced lane issues at most 25% of the brute-force sat calls (the
//! acceptance target). `bench_diff` (a `summa-obs` example) compares a
//! fresh report's counters with the committed one.
//!
//! `SUMMA_BENCH_SMOKE=1` shrinks the measurement window to one sample
//! per lane so CI can validate the report format without paying for a
//! full measurement; such a run writes its report under
//! `target/bench-smoke/`, leaving the committed one alone.

use criterion::{json_escape, Criterion};
use std::fmt::Write as _;
use summa_bench::smoke;
use summa_dl::classify::{classify_brute_force_governed, Classifier, Classify, ClassifyStats};
use summa_dl::concept::Vocabulary;
use summa_dl::el::ElClassifier;
use summa_dl::generate;
use summa_dl::index::HierarchyIndex;
use summa_dl::tableau::Tableau;
use summa_dl::tbox::TBox;
use summa_guard::Budget;

struct Workload {
    name: &'static str,
    voc: Vocabulary,
    tbox: TBox,
}

fn workloads() -> Vec<Workload> {
    // Same corpus as the parallel bench so the two reports are
    // comparable: an incoherent pigeonhole TBox (every cell an
    // exponential refutation — and every *row* unsatisfiable, the
    // enhanced lane's best case), a random EL terminology, and a deep
    // diamond lattice (127 atoms, the acceptance workload).
    let (p_voc, p_tbox, _) = generate::pigeonhole_tbox(3, 2);
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
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let loads = workloads();
    let mut c = Criterion::default();
    {
        let mut g = c.benchmark_group("classify_strategy");
        g.sample_size(if smoke() { 1 } else { 10 });
        for w in &loads {
            g.bench_function(format!("{}/brute", w.name), |b| {
                b.iter(|| {
                    classify_brute_force_governed(
                        &mut Tableau::new(&w.tbox, &w.voc),
                        &w.tbox,
                        &Budget::unlimited(),
                    )
                })
            });
            g.bench_function(format!("{}/enhanced", w.name), |b| {
                b.iter(|| Classify::new(&w.tbox, &w.voc).run(&Budget::unlimited()))
            });
            if ElClassifier::new(&w.tbox, &w.voc).is_ok() {
                g.bench_function(format!("{}/el", w.name), |b| {
                    b.iter(|| {
                        ElClassifier::new(&w.tbox, &w.voc)
                            .and_then(|mut el| el.classify(&w.tbox, &w.voc))
                    })
                });
                g.bench_function(format!("{}/el_index", w.name), |b| {
                    b.iter(|| {
                        ElClassifier::new(&w.tbox, &w.voc)
                            .map(|mut el| el.index_metered(&mut Budget::unlimited().meter()))
                    })
                });
            }
        }
        g.finish();
    }

    // One instrumented run per workload and lane: sat-call counts and
    // EL steps, a byte-equality check between the hierarchies, and the
    // diamond acceptance ratio.
    let mut entries = Vec::new();
    for w in &loads {
        let budget = Budget::unlimited();
        let (brute, brute_stats): (_, ClassifyStats) =
            classify_brute_force_governed(&mut Tableau::new(&w.tbox, &w.voc), &w.tbox, &budget);
        let enhanced = Classify::new(&w.tbox, &w.voc).run(&budget);
        let enhanced_stats = enhanced.stats;
        let brute = brute.expect_completed("unlimited");
        let enhanced = enhanced.governed.expect_completed("unlimited");
        assert_eq!(
            brute, enhanced,
            "enhanced hierarchy must be byte-identical to brute force"
        );
        // The EL lanes, where the workload is in the fragment: one
        // metered saturation, the hierarchy read off it, then the rows
        // packed into the index, which charges only the named pairs on
        // a saturated classifier.
        let el_counts = ElClassifier::new(&w.tbox, &w.voc).ok().map(|mut el| {
            let mut meter = budget.meter();
            el.saturate_metered(&mut meter).expect("unlimited");
            let steps = meter.steps();
            let h = el.classify(&w.tbox, &w.voc).expect("saturated");
            assert_eq!(
                h, enhanced,
                "EL hierarchy must be byte-identical to the enhanced one"
            );
            let index = el.index_metered(&mut meter).expect("unlimited");
            assert_eq!(
                Some(&index),
                HierarchyIndex::build(&enhanced).as_ref(),
                "the packed index must equal the enhanced hierarchy's"
            );
            (steps, meter.steps() - steps)
        });
        let ratio = enhanced_stats.sat_tests as f64 / brute_stats.sat_tests.max(1) as f64;
        if w.name == "diamond" {
            assert!(
                ratio <= 0.25,
                "diamond acceptance: enhanced must issue ≤ 25% of brute-force \
                 sat calls, got {:.1}% ({}/{})",
                ratio * 100.0,
                enhanced_stats.sat_tests,
                brute_stats.sat_tests,
            );
        }

        let brute_ns = c
            .ns_per_iter("classify_strategy", &format!("{}/brute", w.name))
            .expect("timed");
        let enhanced_ns = c
            .ns_per_iter("classify_strategy", &format!("{}/enhanced", w.name))
            .expect("timed");
        let speedup = brute_ns as f64 / enhanced_ns.max(1) as f64;
        let atoms = w.tbox.atoms().len();
        println!(
            "  {:<12} {} atoms: sat calls {} -> {} ({:.1}%), pruned {}, speedup {:.2}x",
            w.name,
            atoms,
            brute_stats.sat_tests,
            enhanced_stats.sat_tests,
            ratio * 100.0,
            enhanced_stats.pruned,
            speedup,
        );
        let el_fields = match el_counts {
            Some((steps, pairs)) => {
                let el_ns = c
                    .ns_per_iter("classify_strategy", &format!("{}/el", w.name))
                    .expect("timed");
                let el_index_ns = c
                    .ns_per_iter("classify_strategy", &format!("{}/el_index", w.name))
                    .expect("timed");
                println!(
                    "  {:<12} el: {steps} steps, {:.2}x the enhanced wall time; \
                     el_index: {pairs} pairs, {:.2}x the el wall time",
                    "",
                    el_ns as f64 / enhanced_ns.max(1) as f64,
                    el_index_ns as f64 / el_ns.max(1) as f64,
                );
                format!(
                    ", \"el_ns\": {el_ns}, \"el_index_ns\": {el_index_ns}, \
                     \"el_steps\": {steps}, \"el_pairs\": {pairs}"
                )
            }
            None => String::new(),
        };
        let mut e = String::new();
        write!(
            e,
            "    {{\"name\": \"{}\", \"atoms\": {}, \"grid_cells\": {}, \
             \"brute_force_ns\": {}, \"enhanced_ns\": {}, \"speedup\": {:.3}, \
             \"brute_force_sat_tests\": {}, \"enhanced_sat_tests\": {}, \
             \"enhanced_pruned\": {}, \"sat_call_ratio\": {:.4}{}}}",
            json_escape(w.name),
            atoms,
            atoms * atoms,
            brute_ns,
            enhanced_ns,
            speedup,
            brute_stats.sat_tests,
            enhanced_stats.sat_tests,
            enhanced_stats.pruned,
            ratio,
            el_fields,
        )
        .expect("write to string");
        entries.push(e);
    }

    // Provenance header, mirroring BENCH_parallel.json so downstream
    // tooling parses both the same way.
    let summa_threads = match std::env::var("SUMMA_THREADS") {
        Ok(v) => format!("\"{}\"", json_escape(&v)),
        Err(_) => "null".to_string(),
    };
    let caveat = if smoke() {
        ",\n  \"caveat\": \"smoke mode (SUMMA_BENCH_SMOKE=1): one sample per lane, wall times are format placeholders; sat-call counts, EL steps and EL pairs are exact either way\"".to_string()
    } else {
        String::new()
    };
    let json = format!(
        "{{\n  \"bench\": \"classification_strategies\",\n  \"host_cpus\": {},\n  \"summa_threads_env\": {},\n  \"generated_at\": \"{}\"{},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        host_cpus,
        summa_threads,
        summa_bench::iso8601_utc_now(),
        caveat,
        entries.join(",\n"),
    );
    let path = summa_bench::write_report("classify", &json);
    println!("\nwrote {}", path.display());
}
