//! Agenda/trail kernel vs reference clone-per-disjunct engine.
//!
//! Like `classify.rs` this bench doubles as a report generator: besides
//! printing ns/iter it writes `BENCH_tableau.json` at the workspace
//! root, comparing the two expansion engines
//! (`Tableau::with_reference_kernel(false)` — the agenda-driven,
//! trail-backtracking kernel — against `true`, the original
//! full-`State`-clone engine) per workload. Three measures per lane:
//! wall time, states popped (`dl.rule.search`, the charged search-loop
//! counter — byte-identical between engines by contract), and label
//! scans (`dl.tableau.label_scans`, complete single-node label
//! traversals — the machine-independent quantity the agenda actually
//! eliminates).
//!
//! Every instrumented run asserts the verdict vectors and states-popped
//! counts are identical and that the kernel performs *strictly fewer*
//! label scans on every lane. In non-smoke mode the pigeonhole lane
//! additionally asserts the kernel is at least 2x faster on wall time
//! (the acceptance target: exponential refutations are where clone-
//! per-disjunct backtracking hurts the most).
//!
//! `SUMMA_BENCH_SMOKE=1` shrinks the measurement window to one sample
//! per lane so CI can validate the report format without paying for a
//! full measurement; the counter assertions are exact either way. Such
//! a run writes its report under `target/bench-smoke/`, leaving the
//! committed one alone.

use criterion::{json_escape, Criterion};
use std::fmt::Write as _;
use summa_bench::smoke;
use summa_dl::concept::{Concept, Vocabulary};
use summa_dl::generate;
use summa_dl::tableau::Tableau;
use summa_dl::tbox::TBox;
use summa_guard::Budget;

struct Workload {
    name: &'static str,
    voc: Vocabulary,
    tbox: TBox,
    /// Satisfiability queries issued per iteration, in order.
    queries: Vec<Concept>,
}

fn workloads() -> Vec<Workload> {
    // The classify/parallel corpus, re-cut for raw sat calls: an
    // incoherent pigeonhole TBox (every probe an exponential
    // refutation — maximum backtracking, the trail's best case), a
    // random EL terminology under a full subsumption sweep (shallow,
    // agenda-dominated), and a deep diamond lattice probed on a
    // deterministic sample of non-subsumption pairs.
    let (p_voc, p_tbox, p_probes) = generate::pigeonhole_tbox(4, 3);
    let p_queries = p_probes.iter().map(|&c| Concept::atom(c)).collect();

    let (e_voc, e_tbox, e_atoms) = generate::random_el(12, 2, 16, 0x5EED);
    let mut e_queries = Vec::new();
    for &a in &e_atoms {
        for &b in &e_atoms {
            if a != b {
                e_queries.push(Concept::and(vec![
                    Concept::atom(a),
                    Concept::not(Concept::atom(b)),
                ]));
            }
        }
    }

    let (d_voc, d_tbox, d_atoms) = generate::diamond(6);
    let n = d_atoms.len();
    let d_queries = (0..24)
        .map(|i| {
            let a = d_atoms[(i * 13 + 5) % n];
            let b = d_atoms[(i * 7 + 3) % n];
            Concept::and(vec![Concept::atom(a), Concept::not(Concept::atom(b))])
        })
        .collect();

    vec![
        Workload {
            name: "pigeonhole",
            voc: p_voc,
            tbox: p_tbox,
            queries: p_queries,
        },
        Workload {
            name: "random_el",
            voc: e_voc,
            tbox: e_tbox,
            queries: e_queries,
        },
        Workload {
            name: "diamond",
            voc: d_voc,
            tbox: d_tbox,
            queries: d_queries,
        },
    ]
}

/// One instrumented pass of a workload through one engine: fresh
/// reasoner (fresh memo — the timed loops get the same), traced budget,
/// every query metered. Returns the verdict vector plus the two
/// counters the report cares about.
fn instrumented(w: &Workload, reference: bool) -> (Vec<bool>, u64, u64) {
    let mut reasoner = Tableau::new(&w.tbox, &w.voc).with_reference_kernel(reference);
    let tracer = summa_guard::obs::Tracer::enabled();
    let budget = Budget::unlimited().with_tracer(tracer.clone());
    let mut meter = budget.meter();
    let verdicts = w
        .queries
        .iter()
        .map(|q| reasoner.sat_metered(q, &mut meter).expect("unlimited"))
        .collect();
    let counters = tracer.snapshot().counters;
    let lookup = |name: &str| {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    (
        verdicts,
        lookup("dl.rule.search"),
        lookup("dl.tableau.label_scans"),
    )
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let loads = workloads();
    let mut c = Criterion::default();
    {
        let mut g = c.benchmark_group("tableau_kernel");
        g.sample_size(if smoke() { 1 } else { 10 });
        for w in &loads {
            // Reasoners are built inside the closure: the sat memo
            // must start cold every iteration or later samples time a
            // cache lookup instead of the expansion engine.
            g.bench_function(format!("{}/reference", w.name), |b| {
                b.iter(|| {
                    let mut r = Tableau::new(&w.tbox, &w.voc).with_reference_kernel(true);
                    w.queries
                        .iter()
                        .filter(|q| {
                            r.is_satisfiable_governed(q, &Budget::new().with_memory(20_000))
                                .expect_completed("within the node cap")
                        })
                        .count()
                })
            });
            g.bench_function(format!("{}/kernel", w.name), |b| {
                b.iter(|| {
                    let mut r = Tableau::new(&w.tbox, &w.voc).with_reference_kernel(false);
                    w.queries
                        .iter()
                        .filter(|q| {
                            r.is_satisfiable_governed(q, &Budget::new().with_memory(20_000))
                                .expect_completed("within the node cap")
                        })
                        .count()
                })
            });
        }
        g.finish();
    }

    // One instrumented run per workload and engine: verdict equality,
    // states-popped equality (byte-identity contract), and the
    // strictly-fewer-label-scans acceptance check on every lane.
    let mut entries = Vec::new();
    for w in &loads {
        let (ref_verdicts, ref_popped, ref_scans) = instrumented(w, true);
        let (ker_verdicts, ker_popped, ker_scans) = instrumented(w, false);
        assert_eq!(
            ref_verdicts, ker_verdicts,
            "{}: engine verdicts diverge",
            w.name
        );
        assert_eq!(
            ref_popped, ker_popped,
            "{}: states-popped counts diverge (byte-identity contract)",
            w.name
        );
        assert!(
            ker_scans < ref_scans,
            "{}: kernel must perform strictly fewer label scans \
             (kernel {ker_scans}, reference {ref_scans})",
            w.name
        );

        let ref_ns = c
            .ns_per_iter("tableau_kernel", &format!("{}/reference", w.name))
            .expect("timed");
        let ker_ns = c
            .ns_per_iter("tableau_kernel", &format!("{}/kernel", w.name))
            .expect("timed");
        let speedup = ref_ns as f64 / ker_ns.max(1) as f64;
        if w.name == "pigeonhole" && !smoke() {
            assert!(
                speedup >= 2.0,
                "pigeonhole acceptance: kernel must be >= 2x faster on \
                 sat-call wall time, got {speedup:.2}x ({ref_ns} ns vs {ker_ns} ns)",
            );
        }
        let scan_ratio = ker_scans as f64 / ref_scans.max(1) as f64;
        println!(
            "  {:<12} {} queries: label scans {} -> {} ({:.1}%), states popped {}, speedup {:.2}x",
            w.name,
            w.queries.len(),
            ref_scans,
            ker_scans,
            scan_ratio * 100.0,
            ker_popped,
            speedup,
        );
        let mut e = String::new();
        write!(
            e,
            "    {{\"name\": \"{}\", \"queries\": {}, \
             \"reference_ns\": {}, \"kernel_ns\": {}, \"speedup\": {:.3}, \
             \"states_popped\": {}, \"reference_label_scans\": {}, \
             \"kernel_label_scans\": {}, \"label_scan_ratio\": {:.4}}}",
            json_escape(w.name),
            w.queries.len(),
            ref_ns,
            ker_ns,
            speedup,
            ker_popped,
            ref_scans,
            ker_scans,
            scan_ratio,
        )
        .expect("write to string");
        entries.push(e);
    }

    // Provenance header, mirroring BENCH_classify.json so downstream
    // tooling parses both the same way.
    let summa_threads = match std::env::var("SUMMA_THREADS") {
        Ok(v) => format!("\"{}\"", json_escape(&v)),
        Err(_) => "null".to_string(),
    };
    let caveat = if smoke() {
        ",\n  \"caveat\": \"smoke mode (SUMMA_BENCH_SMOKE=1): one sample per lane, wall times are format placeholders and the 2x pigeonhole gate is skipped; counter comparisons are exact either way\"".to_string()
    } else {
        String::new()
    };
    let json = format!(
        "{{\n  \"bench\": \"tableau_kernel\",\n  \"host_cpus\": {},\n  \"summa_threads_env\": {},\n  \"generated_at\": \"{}\"{},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        host_cpus,
        summa_threads,
        summa_bench::iso8601_utc_now(),
        caveat,
        entries.join(",\n"),
    );
    let path = summa_bench::write_report("tableau", &json);
    println!("\nwrote {}", path.display());
}
