//! The traced run's per-layer breakdown. Each layer is measured from
//! outside: the benchmark times calls into the layer's public functions
//! on the workload's own inputs, and reads the counters and phase
//! histograms the program already keeps. Nothing here instruments the
//! program itself.

use crate::drive::{pool_width, server_config, ConnLog};
use crate::gen::{Inputs, SNAPSHOT};
use crate::stats::{quantile, Timing};
use crate::{alloc, metric, EndToEnd, Metric};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use summa_dl::cache::SatCache;
use summa_dl::classify::{classify_parallel_governed_with, Classifier};
use summa_dl::concept::{Concept, Vocabulary};
use summa_dl::el::ElClassifier;
use summa_dl::index::HierarchyIndex;
use summa_dl::parser::parse_concept;
use summa_dl::realize::realize_parallel_governed_indexed;
use summa_dl::tableau::Tableau;
use summa_dl::tbox::TBox;
use summa_guard::{Budget, Governed};
use summa_obs::Tracer;
use summa_serve::ops::{execute_warm, parse_abox};
use summa_serve::snapshot::{parse_tbox, SnapshotStore};
use summa_serve::wire::{self, Envelope, Request, SERVED_INDEX, STATUS_OK};

/// Requests of the stream replayed through the ops, parser and
/// tableau layers.
const REPLAY: usize = 1000;
/// Index probes timed per pass.
const PROBES: usize = 200_000;
/// Step ceiling of the classification replay, as at snapshot install.
const CLASSIFY_STEPS: u64 = 2_000_000;

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn p50(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    quantile(samples, 0.5)
}

/// Time `f` as a child span of the calling span.
fn timed<T>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let _span = tracer.span(name);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// Counter delta of `name` on `tracer` across `f`.
fn counted<T>(tracer: &Tracer, name: &str, f: impl FnOnce() -> T) -> (T, u64) {
    let before = tracer.counter_value(name);
    let out = f();
    (out, tracer.counter_value(name) - before)
}

/// `serve::server`, `serve::batch`, `summa_exec` and `dl::cache`, read
/// from the traced served run.
fn server_layer(e2e: &EndToEnd, client_codec_ns: u64, out: &mut Vec<Metric>) -> Result<(), String> {
    let lat = &e2e.latency;
    let overhead = Timing::of(&lat.overhead_ns).ok_or("no subsumes overhead samples")?;
    let client_p50 = Timing::of(&lat.subsumes_ns).map_or(0, |t| t.p50_ns);
    let [queue, batch, exec, ser] = e2e.phase_p50_ns;
    let unattributed =
        client_p50 as f64 - (queue + batch + exec + ser) as f64 - client_codec_ns as f64;
    let s = &e2e.stats;
    let batches = s.batches.max(1) as f64;
    out.extend([
        metric("server.overhead_p50_us", us(overhead.p50_ns), "us"),
        metric(
            "server.overhead_p99_us",
            us(overhead.p99_ns.unwrap_or(overhead.p50_ns)),
            "us",
        ),
        metric("server.queue_wait_p50_us", us(queue), "us"),
        metric("server.batch_form_p50_us", us(batch), "us"),
        metric("server.serialize_p50_us", us(ser), "us"),
        metric("server.unattributed_p50_us", unattributed / 1e3, "us"),
        metric("batch.mean_size", s.completed as f64 / batches, "count"),
        metric(
            "exec.workers_per_batch",
            e2e.exec_park as f64 / batches,
            "count",
        ),
        metric(
            "server.refused",
            (s.rejected_overload + s.rejected_protocol + s.engine_errors) as f64,
            "count",
        ),
        metric(
            "server.alloc_per_req",
            e2e.server_allocs as f64 / s.frames.max(1) as f64,
            "count",
        ),
    ]);
    let reads = [&e2e.latency, &e2e.goodput];
    let hits: u64 = reads.iter().map(|l| l.cache_hits).sum();
    let probes: u64 = reads.iter().map(|l| l.cache_hits + l.cache_misses).sum();
    out.extend([
        metric(
            "cache.hit_rate",
            if probes == 0 {
                0.0
            } else {
                hits as f64 / probes as f64
            },
            "ratio",
        ),
        metric("cache.entries", e2e.cache_entries as f64, "count"),
    ]);
    Ok(())
}

/// `serve::wire`: replay the run's own envelopes and responses through
/// the codec. Returns the metrics and the client-side codec p50 (request
/// encode + response decode) for the unattributed gap.
fn wire_layer(e2e: &EndToEnd, tracer: &Tracer) -> (Vec<Metric>, u64) {
    struct Class {
        enc: Vec<f64>,
        dec: Vec<f64>,
        bytes: Vec<f64>,
        client: Vec<u64>,
    }
    let replay = |log: &ConnLog| {
        let mut c = Class {
            enc: Vec::new(),
            dec: Vec::new(),
            bytes: Vec::new(),
            client: Vec::new(),
        };
        for (i, (req, resp)) in log.sample.iter().enumerate() {
            let _root = tracer.span("bench.replay.wire").with("id", i as u64);
            let env = Envelope {
                id: resp.id,
                tenant: "reader-0".into(),
                request: req.clone(),
            };
            let (req_bytes, e1) = timed(tracer, "serve.wire.encode_request", || {
                wire::encode_request(black_box(&env))
            });
            let (resp_bytes, e2) = timed(tracer, "serve.wire.encode_response", || {
                wire::encode_response(black_box(resp))
            });
            let (_, d1) = timed(tracer, "serve.wire.decode_request", || {
                black_box(wire::decode_request(black_box(&req_bytes)).is_ok())
            });
            let (_, d2) = timed(tracer, "serve.wire.decode_response", || {
                black_box(wire::decode_response(black_box(&resp_bytes)).is_ok())
            });
            c.enc.push((e1 + e2) as f64);
            c.dec.push((d1 + d2) as f64);
            // Two 4-byte length prefixes frame the pair on the socket.
            c.bytes
                .push((req_bytes.len() + resp_bytes.len() + 8) as f64);
            c.client.push(e1 + d2);
        }
        c
    };
    let mut reads = replay(&e2e.latency);
    let writes = replay(&e2e.writer);
    // Weight each class by the traffic it carried, not by its sample.
    let n_reads = (e2e.latency.tally.attempted + e2e.goodput.tally.attempted) as f64;
    let n_writes = e2e.writer.tally.attempted as f64;
    let weighted = |r: &[f64], w: &[f64]| {
        let total = n_reads + if w.is_empty() { 0.0 } else { n_writes };
        (mean(r) * n_reads
            + if w.is_empty() {
                0.0
            } else {
                mean(w) * n_writes
            })
            / total
    };
    let client_codec = p50(&mut reads.client);
    (
        vec![
            metric("wire.encode_ns", weighted(&reads.enc, &writes.enc), "ns"),
            metric("wire.decode_ns", weighted(&reads.dec, &writes.dec), "ns"),
            metric(
                "wire.bytes_per_req",
                weighted(&reads.bytes, &writes.bytes),
                "B",
            ),
        ],
        client_codec,
    )
}

/// The replay store: revision 0 installed afresh, so the shared cache
/// starts as cold as the served run's did.
fn replay_store(inp: &Inputs) -> Result<SnapshotStore, String> {
    let store = SnapshotStore::new();
    store.install_axioms(SNAPSHOT, &inp.revisions[0].text)?;
    Ok(store)
}

/// `serve::ops`, `dl::parser`, `dl::tableau` and `dl::index` over the
/// first [`REPLAY`] requests of the stream.
fn request_layers(
    inp: &Inputs,
    store: &SnapshotStore,
    tracer: &Tracer,
    lib: &Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let cfg = server_config(Tracer::disabled());
    let snap = store.get(SNAPSHOT).ok_or("replay snapshot missing")?;
    let keys: Vec<usize> = inp.stream.iter().take(REPLAY).copied().collect();

    let mut exec_ns = Vec::new();
    let mut steps = Vec::new();
    let mut allocs = Vec::new();
    let mut index = 0usize;
    let mut parse_ns = Vec::new();
    let mut new_ns = Vec::new();
    let mut sat_ns = Vec::new();
    let mut popped = Vec::new();
    let mut scans = Vec::new();
    let mut pairs = Vec::new();
    alloc::arm(true);
    for (i, &key) in keys.iter().enumerate() {
        let req = &inp.distinct[key];
        let _root = tracer
            .span("bench.replay")
            .with("id", i as u64)
            .with("op", req.op().name());
        let budget = cfg.request_budget();
        let ((ex, a), ns) = timed(tracer, "serve.ops.execute_warm", || {
            let (_, a0) = alloc::counts();
            let ex = execute_warm(store, req, &budget);
            (ex, alloc::counts().1 - a0)
        });
        if ex.status != STATUS_OK {
            return Err(format!("replayed request {i} failed"));
        }
        exec_ns.push(ns);
        steps.push(ex.spend.steps as f64);
        allocs.push(a as f64);
        index += usize::from(ex.served == SERVED_INDEX);

        let Request::Subsumes { sub, sup, .. } = req else {
            continue;
        };
        let mut voc = snap.voc.clone();
        let (sub_c, t1) = timed(tracer, "dl.parser.parse_concept", || {
            parse_concept(sub, &mut voc)
        });
        let (sup_c, t2) = timed(tracer, "dl.parser.parse_concept", || {
            parse_concept(sup, &mut voc)
        });
        let (Ok(sub_c), Ok(sup_c)) = (sub_c, sup_c) else {
            return Err(format!("replayed request {i} does not parse"));
        };
        parse_ns.extend([t1, t2]);
        if let (Concept::Atom(a), Concept::Atom(b)) = (&sub_c, &sup_c) {
            pairs.push((*b, *a));
        }
        let (mut reasoner, t) = timed(tracer, "dl.tableau.new", || Tableau::new(&snap.tbox, &voc));
        new_ns.push(t);
        let query = Concept::and(vec![sub_c, Concept::not(sup_c)]);
        let mut meter = Budget::new().with_tracer(lib.clone()).meter();
        let ((sat, t), n_scans) = counted(lib, "dl.tableau.label_scans", || {
            let before = lib.counter_value("dl.rule.search");
            let r = timed(tracer, "dl.tableau.sat_metered", || {
                reasoner.sat_metered(&query, &mut meter)
            });
            popped.push((lib.counter_value("dl.rule.search") - before) as f64);
            r
        });
        sat.map_err(|_| format!("replayed request {i} was interrupted"))?;
        sat_ns.push(t);
        scans.push(n_scans as f64);
    }
    alloc::arm(false);

    let exec = Timing::of(&exec_ns).ok_or("nothing replayed")?;
    out.extend([
        metric("ops.execute_p50_us", us(exec.p50_ns), "us"),
        metric(
            "ops.execute_p99_us",
            us(exec.p99_ns.unwrap_or(exec.p50_ns)),
            "us",
        ),
        metric("ops.steps_per_req", mean(&steps), "count"),
        metric("ops.alloc_per_req", mean(&allocs), "count"),
        metric("ops.index_share", index as f64 / keys.len() as f64, "ratio"),
        metric("parser.concept_us", us(p50(&mut parse_ns)), "us"),
        metric("tableau.new_us", us(p50(&mut new_ns)), "us"),
        metric("tableau.sat_us", us(p50(&mut sat_ns)), "us"),
        metric("tableau.states_popped", mean(&popped), "count"),
        metric("tableau.label_scans", mean(&scans), "count"),
    ]);

    // Index probes on the stream's own atom pairs; a workload whose
    // stream has none probes atoms of the snapshot.
    let warm = snap.warm.as_ref().ok_or("replay snapshot shipped cold")?;
    if pairs.is_empty() {
        let atoms = warm.index.atoms();
        pairs = (0..REPLAY)
            .map(|i| (atoms[i * 7 % atoms.len()], atoms[i * 13 % atoms.len()]))
            .collect();
    }
    let _root = tracer.span("bench.replay.index");
    let (hits, t) = timed(tracer, "dl.index.subsumes", || {
        let mut hits = 0u64;
        for i in 0..PROBES {
            let (sup, sub) = pairs[i % pairs.len()];
            hits += u64::from(black_box(&warm.index).subsumes(sup, sub) == Some(true));
        }
        hits
    });
    black_box(hits);
    out.push(metric("index.probe_ns", t as f64 / PROBES as f64, "ns"));
    Ok(())
}

/// The EL-fragment axioms of `tbox`: all of it for an EL revision.
fn el_part(tbox: &TBox) -> TBox {
    let mut t = TBox::new();
    for (l, r) in tbox.gcis() {
        if l.is_el() && r.is_el() {
            t.subsume(l, r);
        }
    }
    t
}

/// `serve::snapshot`, `dl::classify`, `dl::el` and `dl::index`, once
/// per revision shape.
fn install_layers(
    inp: &Inputs,
    tracer: &Tracer,
    lib: &Tracer,
    lines: &mut Vec<String>,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let mut cols: [Vec<f64>; 8] = Default::default();
    for (i, rev) in inp.revisions.iter().enumerate() {
        let _root = tracer
            .span("bench.install")
            .with("id", i as u64)
            .with("shape", rev.shape);
        let (parsed, parse_ns) = timed(tracer, "serve.snapshot.parse_tbox", || {
            parse_tbox(&rev.text)
        });
        let (tbox, voc): (TBox, Vocabulary) = parsed?;
        let store = SnapshotStore::new();
        let (snap, install_ns) = timed(tracer, "serve.snapshot.install", || {
            store.install(SNAPSHOT, tbox.clone(), voc.clone())
        });
        let budget = Budget::new()
            .with_steps(CLASSIFY_STEPS)
            .with_tracer(lib.clone());
        let ((classified, classify_ns), sat_tests) = counted(lib, "dl.classify.sat_tests", || {
            timed(tracer, "dl.classify", || {
                classify_parallel_governed_with(&tbox, &voc, &budget, 1, Arc::new(SatCache::new()))
            })
        });
        let (governed, spend) = classified;
        let Governed::Completed(hierarchy) = governed else {
            return Err(format!(
                "{} does not classify within the install ceiling",
                rev.shape
            ));
        };
        let (index, build_ns) = timed(tracer, "dl.index.build", || {
            HierarchyIndex::build(&hierarchy)
        });
        index.ok_or("hierarchy does not index")?;
        let el_tbox = el_part(&tbox);
        let (el, el_ns) = timed(tracer, "dl.el.classify", || {
            ElClassifier::new(&el_tbox, &voc).and_then(|mut c| c.classify(&el_tbox, &voc))
        });
        el.map_err(|e| format!("EL classification of {}: {e}", rev.shape))?;
        let row = [
            ms(parse_ns),
            ms(install_ns),
            f64::from(u8::from(snap.warm.is_some())),
            ms(classify_ns),
            sat_tests as f64,
            spend.steps as f64,
            ms(el_ns),
            us(build_ns),
        ];
        lines.push(format!(
            "shape {} (atoms={} axioms={} el={} el_axioms={}): parse_ms={:.3} install_ms={:.3} \
             warm={} classify_ms={:.3} sat_tests={} steps={} el_classify_ms={:.3} index_build_us={:.1}",
            rev.shape,
            tbox.atoms().len(),
            tbox.len(),
            rev.el,
            el_tbox.len(),
            row[0],
            row[1],
            row[2],
            row[3],
            row[4],
            row[5],
            row[6],
            row[7]
        ));
        for (col, v) in cols.iter_mut().zip(row) {
            col.push(v);
        }
    }
    let names = [
        ("snapshot.parse_ms", "ms"),
        ("snapshot.install_ms", "ms"),
        ("snapshot.warm_share", "ratio"),
        ("classify.ms", "ms"),
        ("classify.sat_tests", "count"),
        ("classify.steps", "count"),
        ("el.classify_ms", "ms"),
        ("index.build_us", "us"),
    ];
    for ((name, unit), col) in names.into_iter().zip(&cols) {
        out.push(metric(name, mean(col), unit));
    }
    Ok(())
}

/// `dl::realize` as the server calls it, over the workload's told ABoxes.
fn realize_layer(
    inp: &Inputs,
    store: &SnapshotStore,
    tracer: &Tracer,
    lib: &Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let snap = store.get(SNAPSHOT).ok_or("replay snapshot missing")?;
    let warm = snap.warm.as_ref().ok_or("replay snapshot shipped cold")?;
    let budget = server_config(lib.clone()).request_budget();
    let mut wall = Vec::new();
    let mut steps = Vec::new();
    for (i, text) in inp.aboxes.iter().enumerate() {
        let _root = tracer.span("bench.replay.realize").with("id", i as u64);
        let mut voc = snap.voc.clone();
        let abox = parse_abox(text, &mut voc)?;
        let ((governed, spend), ns) = timed(tracer, "dl.realize", || {
            realize_parallel_governed_indexed(
                &snap.tbox,
                &abox,
                &voc,
                &budget,
                1,
                Arc::clone(&warm.cache),
                Some(&warm.index),
            )
        });
        if !governed.is_completed() {
            return Err(format!("realize of ABox {i} did not complete"));
        }
        wall.push(ns);
        steps.push(spend.steps as f64);
    }
    out.extend([
        metric("realize.ms", ms(p50(&mut wall)), "ms"),
        metric("realize.steps", mean(&steps), "count"),
    ]);
    Ok(())
}

/// Write the benchmark's own spans as a Chrome trace and as collapsed
/// stacks, and check that `summa_obs` parses the trace back.
fn write_spans(tracer: &Tracer, out_dir: &Path, stem: &str) -> Result<(usize, usize), String> {
    let snap = tracer.snapshot();
    let chrome = snap.chrome_trace();
    let events = summa_obs::export::validate_chrome_trace(&chrome)?;
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    std::fs::write(out_dir.join(format!("{stem}.trace.json")), &chrome)
        .map_err(|e| e.to_string())?;
    std::fs::write(
        out_dir.join(format!("{stem}.folded")),
        snap.collapsed_stacks(),
    )
    .map_err(|e| e.to_string())?;
    Ok((snap.spans.len(), events))
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer(
    workload: &str,
    seed: u64,
    inp: &Inputs,
    e2e: &EndToEnd,
    tracer: &Tracer,
    out_dir: &Path,
    lines: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    // Library counters land on their own tracer so they are not mixed
    // with the benchmark's spans.
    let lib = Tracer::enabled();
    let (wire, client_codec) = wire_layer(e2e, tracer);
    let mut out = Vec::new();
    server_layer(e2e, client_codec, &mut out)?;
    out.extend(wire);
    let store = replay_store(inp)?;
    request_layers(inp, &store, tracer, &lib, &mut out)?;
    install_layers(inp, tracer, &lib, lines, &mut out)?;
    realize_layer(inp, &store, tracer, &lib, &mut out)?;
    let (spans, events) = write_spans(tracer, out_dir, &format!("{workload}-{seed}"))?;
    lines.push(format!(
        "spans: {spans} recorded, {events} trace events written to {} (pool width {})",
        out_dir.display(),
        pool_width()
    ));
    Ok(out)
}
