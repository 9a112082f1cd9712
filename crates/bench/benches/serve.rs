//! Serving-layer latency/throughput bench: cold vs warm serving over
//! the real TCP loopback path.
//!
//! Each lane starts an in-process [`summa_serve::server::Server`]
//! with the telemetry plane armed, drives it with concurrent
//! synchronous clients, and measures client-observed latency per
//! request. The report (`BENCH_serve.json`) carries p50/p95 latency
//! and aggregate throughput per lane, **the plane's per-phase p50s**
//! (queue-wait / pick-up / execute / serialize), the index hit rate
//! and the `served` breakdown (index / shared-cache / prover), so a
//! cold/warm gap can be attributed instead of argued about.
//!
//! Lanes: `subsumes/cold` vs `subsumes/warm`, the same workload with
//! the warm path off and on. The acceptance gate lives here: in a real
//! (non-smoke) run the warm lane's server-side `execute` phase p50
//! must be at least 5× faster than the cold lane's.
//!
//! `SUMMA_BENCH_SMOKE=1` shrinks the run so CI can validate the report
//! format without paying for a measurement (the 5× gate is skipped —
//! tiny counts measure scheduling noise, not reasoning) and writes the
//! report under `target/bench-smoke/`, leaving the committed one alone.

use criterion::json_escape;
use std::fmt::Write as _;
use std::time::Instant;
use summa_bench::smoke;
use summa_serve::client::Client;
use summa_serve::server::{Server, ServerConfig};
use summa_serve::telemetry::{TelemetryConfig, PHASES};
use summa_serve::wire::{Op, STATUS_OK};

struct LaneResult {
    name: String,
    cold: bool,
    clients: usize,
    requests: u64,
    p50_ns: u64,
    p95_ns: u64,
    throughput_rps: f64,
    /// Server-side p50 per phase for the benched op, in `PHASES`
    /// order — scraped from the telemetry plane, not re-measured.
    phase_p50_ns: [u64; 4],
    /// Warm-path attribution from the server's own books: how many
    /// answers came from the index, the shared cache (index misses),
    /// and the per-request prover.
    served_index: u64,
    served_cache: u64,
    served_prover: u64,
}

impl LaneResult {
    /// Index hit rate over the requests the warm path saw at all.
    fn index_hit_rate(&self) -> f64 {
        let warm = self.served_index + self.served_cache;
        if warm == 0 {
            0.0
        } else {
            self.served_index as f64 / warm as f64
        }
    }

    /// The execute-phase p50 — the reasoning share of a request, and
    /// the figure the warm-vs-cold acceptance gate compares.
    fn execute_p50_ns(&self) -> u64 {
        PHASES
            .iter()
            .position(|p| p.name() == "execute")
            .map(|i| self.phase_p50_ns[i])
            .unwrap_or(0)
    }
}

/// Drive one lane: `clients` concurrent tenants, `per_client`
/// subsumption queries each, against a warm (`cold: false`) or
/// per-request-fresh (`cold: true`) server.
fn run_lane(name: &str, cold: bool, clients: usize, per_client: usize) -> LaneResult {
    let server = Server::start(ServerConfig {
        threads: 4,
        cold,
        telemetry: TelemetryConfig::default(),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|t| {
            std::thread::spawn(move || {
                let tenant = format!("bench-{t}");
                let mut client = Client::connect(addr, &tenant).expect("connects");
                let mut latencies = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let q0 = Instant::now();
                    let resp = client
                        .subsumes("vehicles", "car", "motorvehicle")
                        .expect("answered");
                    latencies.push(q0.elapsed().as_nanos() as u64);
                    assert_eq!(resp.status, STATUS_OK);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    let wall = t0.elapsed();

    // Per-phase server-side p50s for the benched op, straight off the
    // plane's registry (the same histograms a Telemetry scrape
    // exports).
    let registry = server.telemetry().registry();
    let mut phase_p50_ns = [0u64; 4];
    for (i, p) in PHASES.iter().enumerate() {
        let h = registry.histogram(&format!("serve.phase.{}.{}", p.name(), Op::Subsumes.name()));
        phase_p50_ns[i] = h.quantile_ns(0.50);
    }

    let stats = server.shutdown();
    assert!(stats.reconciles(), "bench books reconcile: {stats:?}");
    assert_eq!(stats.accepted, latencies.len() as u64);
    if cold {
        assert_eq!(stats.index_hits, 0, "cold lane must never touch the index");
    }

    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };
    LaneResult {
        name: name.to_string(),
        cold,
        clients,
        requests: latencies.len() as u64,
        p50_ns: pct(0.50),
        p95_ns: pct(0.95),
        throughput_rps: latencies.len() as f64 / wall.as_secs_f64().max(1e-9),
        phase_p50_ns,
        served_index: stats.index_hits,
        served_cache: stats.index_misses,
        served_prover: stats
            .completed
            .saturating_sub(stats.index_hits + stats.index_misses),
    }
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (clients, per_client) = if smoke() { (2, 8) } else { (4, 150) };

    // The warm-path comparison: identical workload, warmth toggled.
    let lanes = [
        run_lane("subsumes/cold", true, clients, per_client),
        run_lane("subsumes/warm", false, clients, per_client),
    ];

    let mut entries = Vec::new();
    for lane in &lanes {
        println!(
            "  {:<20} {} reqs x {} clients ({}): p50 {} ns, p95 {} ns, {:.0} req/s, \
             index hit rate {:.2} (served index/cache/prover {}/{}/{})",
            lane.name,
            lane.requests,
            lane.clients,
            if lane.cold { "cold" } else { "warm" },
            lane.p50_ns,
            lane.p95_ns,
            lane.throughput_rps,
            lane.index_hit_rate(),
            lane.served_index,
            lane.served_cache,
            lane.served_prover,
        );
        let mut phase_cols = String::new();
        for (i, p) in PHASES.iter().enumerate() {
            print!(
                "      phase {:<11} p50 {} ns",
                p.name(),
                lane.phase_p50_ns[i]
            );
            println!();
            write!(
                phase_cols,
                "{}\"phase_{}_p50_ns\": {}",
                if i == 0 { "" } else { ", " },
                p.name(),
                lane.phase_p50_ns[i],
            )
            .expect("write to string");
        }
        let mut e = String::new();
        write!(
            e,
            "    {{\"name\": \"{}\", \"cold\": {}, \"clients\": {}, \
             \"requests\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \
             \"throughput_rps\": {:.1}, \"index_hit_rate\": {:.4}, \
             \"served\": {{\"index\": {}, \"cache\": {}, \"prover\": {}}}, {}}}",
            json_escape(&lane.name),
            lane.cold,
            lane.clients,
            lane.requests,
            lane.p50_ns,
            lane.p95_ns,
            lane.throughput_rps,
            lane.index_hit_rate(),
            lane.served_index,
            lane.served_cache,
            lane.served_prover,
            phase_cols,
        )
        .expect("write to string");
        entries.push(e);
    }

    // The acceptance gate: the warm lane answers its named-pair
    // workload from the snapshot's classification index, so its
    // server-side execute phase must be at least 5× faster at p50 than
    // the same workload proved cold. Smoke runs skip the gate (tiny
    // counts measure scheduling noise, not reasoning).
    let [cold, warm] = &lanes;
    let cold_exec = cold.execute_p50_ns();
    let warm_exec = warm.execute_p50_ns();
    let speedup = cold_exec as f64 / warm_exec.max(1) as f64;
    println!(
        "\n  warm path: execute p50 cold {} ns vs warm {} ns ({speedup:.1}x)",
        cold_exec, warm_exec
    );
    if !smoke() {
        assert!(
            warm_exec.saturating_mul(5) <= cold_exec,
            "warm execute p50 ({warm_exec} ns) must be >=5x faster than cold ({cold_exec} ns)"
        );
        assert!(
            warm.index_hit_rate() > 0.99,
            "named-pair workload must answer from the index: {:.4}",
            warm.index_hit_rate()
        );
    }

    let summa_threads = match std::env::var("SUMMA_THREADS") {
        Ok(v) => format!("\"{}\"", json_escape(&v)),
        Err(_) => "null".to_string(),
    };
    let caveat = if smoke() {
        ",\n  \"caveat\": \"smoke mode (SUMMA_BENCH_SMOKE=1): tiny request counts, figures are format placeholders and the 5x warm gate is skipped; accounting assertions are exact either way\"".to_string()
    } else {
        String::new()
    };
    let json = format!(
        "{{\n  \"bench\": \"serve_latency\",\n  \"host_cpus\": {},\n  \"summa_threads_env\": {},\n  \"generated_at\": \"{}\",\n  \"warm_execute_speedup\": {:.2}{},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        host_cpus,
        summa_threads,
        summa_bench::iso8601_utc_now(),
        speedup,
        caveat,
        entries.join(",\n"),
    );
    let path = summa_bench::write_report("serve", &json);
    println!("\nwrote {}", path.display());
}
