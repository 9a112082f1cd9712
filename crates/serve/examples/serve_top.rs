//! `top` for a running summa-serve: polls the versioned `Telemetry`
//! wire op and renders a live terminal dashboard — queue-depth and
//! in-flight gauges, per-op throughput, per-tenant/per-op latency
//! quantiles, and the tail-sampled slow-query log counters.
//!
//! ```text
//! # attach to a running server (serve_demo prints its address):
//! cargo run --release -p summa-serve --example serve_top -- 127.0.0.1:4075
//!
//! # or self-hosted demo: starts a server + three load tenants,
//! # renders 12 frames, then exits:
//! cargo run --release -p summa-serve --example serve_top
//! ```
//!
//! Optional trailing args: `[frames] [interval_ms]`. The dashboard is
//! a pure scrape client — everything it shows travels through the
//! same `Telemetry` op any other scraper would use.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use summa_serve::client::Client;
use summa_serve::server::{Server, ServerConfig};
use summa_serve::telemetry::TelemetryConfig;
use summa_serve::wire::{TELEMETRY_FORMAT_CHROME_SLOWLOG, TELEMETRY_FORMAT_PROMETHEUS};

/// One scraped frame: every sample line of the exposition, keyed by
/// `name{labels}`.
type Samples = BTreeMap<String, f64>;

fn parse_exposition(text: &str) -> Samples {
    let mut out = Samples::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((key, val)) = line.rsplit_once(' ') {
            if let Ok(v) = val.parse::<f64>() {
                out.insert(key.to_string(), v);
            }
        }
    }
    out
}

fn get(s: &Samples, key: &str) -> f64 {
    s.get(key).copied().unwrap_or(0.0)
}

/// Pull one label's value out of a `name{a="x",b="y"}` sample key.
fn label<'a>(key: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("{name}=\"");
    let start = key.find(&tag)? + tag.len();
    let end = key[start..].find('"')? + start;
    Some(&key[start..end])
}

fn bar(v: f64, max: f64, width: usize) -> String {
    let filled = if max <= 0.0 {
        0
    } else {
        ((v / max) * width as f64).round().min(width as f64) as usize
    };
    format!("{}{}", "█".repeat(filled), "·".repeat(width - filled))
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn render(frame: usize, frames: usize, s: &Samples) {
    // Clear + home; plain ANSI so it works in any terminal.
    print!("\x1b[2J\x1b[H");
    let enabled = get(s, "summa_serve_telemetry_enabled") > 0.0;
    println!(
        "summa-serve top — frame {}/{} — scrape #{} — telemetry {}",
        frame + 1,
        frames,
        get(s, "summa_serve_telemetry_scrapes_total") as u64,
        if enabled { "on" } else { "OFF" },
    );
    println!();

    let q = get(s, "summa_serve_queue_depth");
    let inf = get(s, "summa_serve_in_flight");
    let gmax = q.max(inf).max(1.0);
    println!("  queue depth      {:>6}  {}", q as i64, bar(q, gmax, 24));
    println!(
        "  in flight        {:>6}  {}",
        inf as i64,
        bar(inf, gmax, 24)
    );
    println!();

    // Per-op throughput, aggregated over tenants.
    let mut by_op: BTreeMap<String, f64> = BTreeMap::new();
    for (k, v) in s {
        if k.starts_with("summa_serve_tenant_requests_total{") {
            if let Some(op) = label(k, "op") {
                *by_op.entry(op.to_string()).or_default() += v;
            }
        }
    }
    let total: f64 = by_op.values().sum();
    println!("  requests by op            completed {:>8}", total as u64);
    let opmax = by_op.values().cloned().fold(1.0, f64::max);
    for (op, n) in &by_op {
        println!("    {:<12} {:>8}  {}", op, *n as u64, bar(*n, opmax, 24));
    }
    println!();

    // Per-tenant/per-op latency summaries, busiest rows first.
    let mut rows: Vec<(String, String, f64)> = Vec::new();
    for (k, v) in s {
        if k.starts_with("summa_serve_tenant_request_ns_count{") {
            if let (Some(t), Some(op)) = (label(k, "tenant"), label(k, "op")) {
                rows.push((t.to_string(), op.to_string(), *v));
            }
        }
    }
    rows.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
    println!(
        "  {:<14} {:<12} {:>7} {:>10} {:>10} {:>10}",
        "tenant", "op", "count", "p50", "p95", "p99"
    );
    for (tenant, op, count) in rows.iter().take(8) {
        let at = |quant: &str| {
            get(
                s,
                &format!(
                    "summa_serve_tenant_request_ns{{tenant=\"{tenant}\",op=\"{op}\",quantile=\"{quant}\"}}"
                ),
            )
        };
        println!(
            "  {:<14} {:<12} {:>7} {:>10} {:>10} {:>10}",
            tenant,
            op,
            *count as u64,
            fmt_ns(at("0.5")),
            fmt_ns(at("0.95")),
            fmt_ns(at("0.99")),
        );
    }
    println!();
    let ih = get(s, "summa_serve_index_hit_total");
    let im = get(s, "summa_serve_index_miss_total");
    let warm_total = ih + im;
    println!(
        "  warm path: {} index hits, {} index misses ({:.0}% hit), {} shared-cache hits",
        ih as u64,
        im as u64,
        if warm_total > 0.0 {
            ih / warm_total * 100.0
        } else {
            0.0
        },
        get(s, "summa_serve_cache_shared_hit_total") as u64,
    );
    println!(
        "  slow log: {} captured, {} evicted, {} triggered",
        get(s, "summa_serve_slow_log_captured") as u64,
        get(s, "summa_serve_slow_log_dropped_total") as u64,
        get(s, "summa_serve_slow_log_triggered_total") as u64,
    );
}

/// Background load for the self-hosted demo: three tenants with
/// different op mixes, so the per-tenant table has texture.
fn spawn_load(addr: SocketAddr, stop: Arc<AtomicBool>) -> Vec<std::thread::JoinHandle<()>> {
    ["web", "batch", "ingest"]
        .into_iter()
        .map(|tenant| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = match Client::connect(addr, tenant) {
                    Ok(c) => c,
                    Err(_) => return,
                };
                while !stop.load(Ordering::Relaxed) {
                    let r = match tenant {
                        "web" => client.subsumes("vehicles", "car", "motorvehicle"),
                        "batch" => client.classify("animals"),
                        _ => client.realize("vehicles", "beetle : car\n"),
                    };
                    if r.is_err() {
                        return;
                    }
                    let _ = client.ping();
                }
            })
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let attach: Option<SocketAddr> = args.first().map(|a| {
        a.parse()
            .unwrap_or_else(|_| panic!("serve_top: bad address {a:?}"))
    });
    let frames: usize = args
        .get(1)
        .map(|a| a.parse().expect("frames"))
        .unwrap_or(if attach.is_some() { usize::MAX } else { 12 });
    let interval = Duration::from_millis(
        args.get(2)
            .map(|a| a.parse().expect("interval_ms"))
            .unwrap_or(250),
    );

    // Self-hosted demo: a telemetry-armed server plus load tenants.
    let demo = if attach.is_none() {
        let server = Server::start(ServerConfig {
            threads: 4,
            telemetry: TelemetryConfig {
                slow_threshold_ns: Some(400_000),
                ..TelemetryConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("server starts");
        let stop = Arc::new(AtomicBool::new(false));
        let load = spawn_load(server.addr(), Arc::clone(&stop));
        Some((server, stop, load))
    } else {
        None
    };
    let addr = attach.unwrap_or_else(|| demo.as_ref().unwrap().0.addr());

    let mut scraper = Client::connect(addr, "serve_top").expect("connects to server");
    for frame in 0..frames {
        let text = scraper
            .telemetry_text(TELEMETRY_FORMAT_PROMETHEUS)
            .expect("telemetry scrape");
        render(frame, frames, &parse_exposition(&text));
        if frame + 1 < frames {
            std::thread::sleep(interval);
        }
    }

    if let Some((server, stop, load)) = demo {
        stop.store(true, Ordering::Relaxed);
        // One last scrape of the other format, to show the slow log
        // is a real artifact and not just counters.
        let chrome = scraper
            .telemetry_text(TELEMETRY_FORMAT_CHROME_SLOWLOG)
            .expect("chrome scrape");
        drop(scraper);
        for h in load {
            let _ = h.join();
        }
        let stats = server.shutdown();
        println!();
        println!(
            "demo done: {} requests served, slow-query dump is {} bytes of chrome://tracing JSON",
            stats.completed,
            chrome.len()
        );
    }
}
