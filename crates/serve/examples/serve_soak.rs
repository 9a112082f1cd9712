//! Soak harness for summa-serve, run by `scripts/tier1.sh`.
//!
//! Three phases, each a hard assertion (the process exits nonzero on
//! the first violation):
//!
//! 1. **Stress** — 8 concurrent tenants hammer a mixed workload; every
//!    request must be answered OK (zero dropped requests), the queue
//!    depth must stay within its configured bound, and the final drain
//!    must reconcile exactly (`accepted == completed`, every frame
//!    accounted).
//! 2. **Backpressure** — tiny per-tenant step quotas; every tenant
//!    must see real work complete *and* then a typed
//!    `quota_exhausted` rejection on a connection that stays alive.
//!    Overload is never a disconnect.
//! 3. **Drain under load** — shutdown races 4 clients mid-burst;
//!    everything admitted before the drain flag is answered, late
//!    arrivals get typed `draining` rejections or a clean close, and
//!    the books still reconcile.
//! 4. **Telemetry** — tail sampling armed (zero latency threshold),
//!    4 tenants hammer the mixed workload, then the `Telemetry` op is
//!    scraped in both formats; both payloads must pass the library's
//!    own validators, the plane's histogram counts must reconcile
//!    exactly with `completed`, and the slow-log books must satisfy
//!    `captured + dropped == triggered`. The scraped payloads are
//!    written to `target/telemetry_serve.prom` and
//!    `target/telemetry_slowlog.json` for the tier-1 artifact linters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use summa_obs::export::validate_chrome_trace;
use summa_obs::validate_exposition;
use summa_serve::client::Client;
use summa_serve::server::{Server, ServerConfig};
use summa_serve::telemetry::TelemetryConfig;
use summa_serve::wire::{
    decode_overload, Overload, Request, STATUS_OK, STATUS_OVERLOADED,
    TELEMETRY_FORMAT_CHROME_SLOWLOG, TELEMETRY_FORMAT_PROMETHEUS,
};

fn mixed_workload() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Subsumes {
            snapshot: "vehicles".into(),
            sub: "car".into(),
            sup: "motorvehicle".into(),
        },
        Request::Subsumes {
            snapshot: "animals".into(),
            sub: "dog".into(),
            sup: "animal".into(),
        },
        Request::Classify {
            snapshot: "vehicles".into(),
        },
        Request::Realize {
            snapshot: "vehicles".into(),
            abox: "beetle : car\n".into(),
        },
        Request::Admit {
            artifact: "vehicles TBox (4)".into(),
            definition: "Gruber (functional)".into(),
        },
    ]
}

fn phase_stress() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 7;
    let queue_capacity = 64;
    let server = Server::start(ServerConfig {
        threads: 4,
        queue_capacity,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let workload = Arc::new(mixed_workload());
    let answered = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let workload = Arc::clone(&workload);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let tenant = format!("stress-{t}");
                let mut client = Client::connect(addr, &tenant).expect("connects");
                for _ in 0..ROUNDS {
                    for req in workload.iter() {
                        let resp = client.call(req.clone()).expect("answered");
                        assert_eq!(resp.status, STATUS_OK, "stress request must succeed");
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let sent = (CLIENTS * ROUNDS * mixed_workload().len()) as u64;
    assert_eq!(
        answered.load(Ordering::Relaxed),
        sent,
        "zero dropped requests"
    );
    let stats = server.shutdown();
    assert_eq!(stats.accepted, sent);
    assert_eq!(stats.completed, sent);
    assert_eq!(stats.engine_errors, 0);
    assert!(stats.reconciles(), "exact accounting: {stats:?}");
    assert!(
        stats.max_queue_depth <= queue_capacity as u64,
        "queue depth bounded: {} <= {queue_capacity}",
        stats.max_queue_depth
    );
    println!(
        "  stress: {sent} requests, {} worker dispatches, queue high-water {} — OK",
        stats.batches, stats.max_queue_depth
    );
}

fn phase_backpressure() {
    const CLIENTS: usize = 4;
    // Pinned cold: this phase tests admission control, and a warm
    // index answer charges only one step — 48 of them would never
    // deplete the 60-step quota the phase is built around.
    let server = Server::start(ServerConfig {
        threads: 2,
        tenant_step_quota: Some(60),
        cold: true,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            std::thread::spawn(move || {
                let tenant = format!("quota-{t}");
                let mut client = Client::connect(addr, &tenant).expect("connects");
                let (mut oks, mut quota_rejects) = (0u64, 0u64);
                for _ in 0..48 {
                    let resp = client
                        .subsumes("vehicles", "car", "motorvehicle")
                        .expect("typed answer, never a disconnect");
                    match resp.status {
                        STATUS_OK => {
                            assert_eq!(quota_rejects, 0, "no OK after the quota trips");
                            oks += 1;
                        }
                        STATUS_OVERLOADED => {
                            let (kind, _) = decode_overload(&resp.body).expect("typed body");
                            assert_eq!(kind, Overload::QuotaExhausted);
                            quota_rejects += 1;
                        }
                        other => panic!("unexpected status {other}"),
                    }
                }
                assert!(oks > 0, "quota admitted real work first");
                assert!(quota_rejects > 0, "quota eventually rejected, typed");
                // The connection is still alive and serves admin ops.
                let stats = client.stats().expect("stats answered");
                assert_eq!(stats.status, STATUS_OK);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let stats = server.shutdown();
    assert!(stats.rejected_overload > 0);
    assert!(stats.reconciles(), "exact accounting: {stats:?}");
    println!(
        "  backpressure: {} served, {} typed overload rejections — OK",
        stats.completed, stats.rejected_overload
    );
}

fn phase_drain_under_load() {
    let server = Server::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let tenant = format!("drain-{t}");
                let mut client = Client::connect(addr, &tenant).expect("connects");
                for _ in 0..200 {
                    match client.subsumes("vehicles", "car", "motorvehicle") {
                        // Served, or typed draining rejection: both fine.
                        Ok(resp) => {
                            assert!(
                                resp.status == STATUS_OK || resp.status == STATUS_OVERLOADED,
                                "unexpected status {}",
                                resp.status
                            );
                        }
                        // The server closed the stream during drain.
                        Err(_) => break,
                    }
                }
            })
        })
        .collect();
    // Let the burst get going, then drain out from under it.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let stats = server.shutdown();
    for h in handles {
        h.join().expect("client thread");
    }
    assert!(stats.reconciles(), "drain keeps exact books: {stats:?}");
    assert!(
        stats.accepted > 0,
        "the burst did real work before the drain"
    );
    println!(
        "  drain: {} answered mid-burst, {} typed rejections, books exact — OK",
        stats.completed, stats.rejected_overload
    );
}

fn phase_telemetry() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 5;
    let server = Server::start(ServerConfig {
        threads: 4,
        telemetry: TelemetryConfig {
            // Zero threshold: every request tail-samples, so the soak
            // exercises capture, eviction, and the dropped counter.
            slow_threshold_ns: Some(0),
            slow_log_capacity: 32,
            ..TelemetryConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let workload = Arc::new(mixed_workload());
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let workload = Arc::clone(&workload);
            std::thread::spawn(move || {
                let tenant = format!("telemetry-{t}");
                let mut client = Client::connect(addr, &tenant).expect("connects");
                for _ in 0..ROUNDS {
                    for req in workload.iter() {
                        let resp = client.call(req.clone()).expect("answered");
                        assert_eq!(resp.status, STATUS_OK);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let sent = (CLIENTS * ROUNDS * mixed_workload().len()) as u64;

    // A handler records its request after writing the response, and
    // lowers the in-flight gauge only after that, so a zero gauge
    // means every answered request is in the books.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.telemetry().in_flight() != 0 {
        assert!(
            Instant::now() < deadline,
            "in-flight requests never settled"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // The plane's books, before the scrape perturbs anything (it
    // can't — scrapes are admin ops and never enter the histograms).
    let recorded = server.telemetry().recorded_requests();
    assert_eq!(recorded, sent, "one histogram observation per request");
    let (captured, dropped, triggered) = server.telemetry().slow_log_counts();
    assert_eq!(triggered, sent, "zero threshold samples everything");
    assert_eq!(captured + dropped, triggered, "slow-log books exact");
    assert_eq!(captured, 32, "log filled to its bound, no further");

    // Scrape both wire formats and hold them to the library's own
    // validators — the same checks the CI artifact linters re-run.
    let mut scraper = Client::connect(addr, "scraper").expect("connects");
    let prom = scraper
        .telemetry_text(TELEMETRY_FORMAT_PROMETHEUS)
        .expect("prometheus scrape");
    let families = validate_exposition(&prom).unwrap_or_else(|e| panic!("exposition invalid: {e}"));
    assert!(
        families >= 10,
        "a real scrape has many families: {families}"
    );
    let chrome = scraper
        .telemetry_text(TELEMETRY_FORMAT_CHROME_SLOWLOG)
        .expect("chrome scrape");
    let events =
        validate_chrome_trace(&chrome).unwrap_or_else(|e| panic!("chrome trace invalid: {e}"));
    assert!(
        events as u64 > captured,
        "phase spans for every captured query"
    );

    // Artifacts for `scripts/tier1.sh` and the CI telemetry lane.
    let target = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    std::fs::create_dir_all(target).expect("target dir");
    std::fs::write(format!("{target}/telemetry_serve.prom"), &prom).expect("write prom");
    std::fs::write(format!("{target}/telemetry_slowlog.json"), &chrome).expect("write json");

    drop(scraper);
    let stats = server.shutdown();
    assert!(stats.reconciles(), "exact accounting: {stats:?}");
    assert_eq!(
        stats.completed, recorded,
        "plane reconciles with the server books"
    );
    println!(
        "  telemetry: {sent} observed, {captured} captured + {dropped} evicted of {triggered} sampled, \
         {families} exposition families, {events} trace events — OK"
    );
}

fn main() {
    println!("serve_soak: stress");
    phase_stress();
    println!("serve_soak: backpressure");
    phase_backpressure();
    println!("serve_soak: drain under load");
    phase_drain_under_load();
    println!("serve_soak: telemetry");
    phase_telemetry();
    println!("serve_soak: OK");
}
