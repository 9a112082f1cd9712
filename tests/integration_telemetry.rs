//! Differential conformance for the serve telemetry plane: with
//! telemetry **enabled** and tail sampling firing (via the same fixed
//! fault plan the serve conformance suite replays), every response
//! body must still be byte-identical to a direct [`summa_serve::ops`]
//! call, at 1 and at 4 worker threads. Telemetry observes; it never
//! participates.
//!
//! Plus the plane's own books: the per-tenant/per-op histogram counts
//! reconcile exactly with `ServeStats.completed`, the slow-query log
//! satisfies `captured + dropped == triggered`, `ServeStats` equals
//! the exported server counters whether or not the plane records,
//! both wire renderings (Prometheus text, Chrome trace JSON) validate
//! with the library's own linters, disabled telemetry records nothing,
//! and an unknown telemetry format is a typed protocol error on a
//! surviving connection.

use summa_obs::export::validate_chrome_trace;
use summa_obs::validate_exposition;
use summa_serve::client::Client;
use summa_serve::ops::{self, Executed};
use summa_serve::server::{Server, ServerConfig};
use summa_serve::snapshot::SnapshotStore;
use summa_serve::telemetry::TelemetryConfig;
use summa_serve::wire::{
    Request, STATUS_OK, STATUS_PROTOCOL_ERROR, TELEMETRY_FORMAT_CHROME_SLOWLOG,
    TELEMETRY_FORMAT_PROMETHEUS,
};

/// Same fixed chaos plan as `integration_serve.rs`: deterministic per
/// request, so the served run and the direct baseline fault the same
/// way and the faulted answers double as tail-sampling triggers.
const FAULT_PLAN: &str = "dl.cache.insert@3=trip;dl.realize.individual@1=trip";
const FAULT_SEED: u64 = 1405;

/// A request's observation lands *after* its response frame is written
/// (the serialize phase must include the write), so a client that just
/// received the last answer can race the handler's bookkeeping by a
/// few microseconds. Settle before asserting on the plane's books.
fn wait_until(cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !cond() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// A workload with happy paths, a fault-exhausted realize, and typed
/// error paths — the latter two must trip the tail sampler.
fn workload() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Subsumes {
            snapshot: "vehicles".into(),
            sub: "car".into(),
            sup: "motorvehicle".into(),
        },
        Request::Classify {
            snapshot: "vehicles".into(),
        },
        Request::Realize {
            snapshot: "vehicles".into(),
            abox: "beetle : car\nherbie : motorvehicle\n".into(),
        },
        Request::Admit {
            artifact: "vehicles TBox (4)".into(),
            definition: "Gruber (functional)".into(),
        },
        Request::Critique,
        // Typed error path: fires the ErrorStatus trigger.
        Request::Classify {
            snapshot: "no-such-ontology".into(),
        },
    ]
}

fn config(threads: usize, telemetry: TelemetryConfig) -> ServerConfig {
    ServerConfig {
        threads,
        request_fault_plan: Some((FAULT_PLAN.to_string(), FAULT_SEED)),
        telemetry,
        ..ServerConfig::default()
    }
}

fn baseline(cfg: &ServerConfig, reqs: &[Request]) -> Vec<Executed> {
    let store = SnapshotStore::with_builtins();
    reqs.iter()
        .map(|r| ops::execute(&store, r, &cfg.request_budget()))
        .collect()
}

/// The tentpole acceptance run: telemetry armed (tail sampling on
/// every request via a zero threshold, plus error triggers from the
/// fault plan), responses byte-identical, books exact, both wire
/// renderings valid.
fn assert_telemetry_conformance(threads: usize) {
    let tel = TelemetryConfig {
        slow_threshold_ns: Some(0),
        slow_log_capacity: 4,
        ..TelemetryConfig::default()
    };
    let cfg = config(threads, tel.clone());
    let reqs = workload();
    let want = baseline(&cfg, &reqs);

    let server = Server::start(config(threads, tel)).expect("server starts");
    let mut client = Client::connect(server.addr(), "conformance").expect("connects");
    for (req, want) in reqs.iter().zip(&want) {
        let resp = client.call(req.clone()).expect("answered");
        assert_eq!(resp.status, want.status, "status for {:?}", req.op());
        assert_eq!(
            resp.body,
            want.body,
            "telemetry must not alter body bytes for {:?} (threads={threads})",
            req.op()
        );
        assert_eq!(resp.epoch, want.epoch);
    }

    // Every admitted request is answered before `call` returns; its
    // observation follows within the handler. The scrape itself is an
    // admin op and never enters the histograms.
    let plane = server.telemetry();
    let want_n = reqs.len() as u64;
    wait_until(|| {
        let (c, d, t) = plane.slow_log_counts();
        plane.recorded_requests() == want_n && t == want_n && c + d == t
    });
    let recorded = plane.recorded_requests();
    assert_eq!(recorded, reqs.len() as u64, "one observation per request");
    let (captured, dropped, triggered) = plane.slow_log_counts();
    assert_eq!(captured + dropped, triggered, "slow-log books");
    assert_eq!(
        triggered,
        reqs.len() as u64,
        "zero threshold: every request tail-samples"
    );
    assert_eq!(captured, 4, "bounded log holds exactly its capacity");
    assert_eq!(dropped, triggered - 4, "evictions are counted, not lost");

    let prom = client
        .telemetry_text(TELEMETRY_FORMAT_PROMETHEUS)
        .expect("prometheus scrape");
    validate_exposition(&prom).expect("exposition lints clean");
    assert!(prom.contains("# TYPE summa_serve_phase_queue_wait_ns histogram"));
    assert!(prom.contains("summa_serve_tenant_requests_total{tenant=\"conformance\""));
    assert!(prom.contains("summa_serve_slow_log_triggered_total"));

    let chrome = client
        .telemetry_text(TELEMETRY_FORMAT_CHROME_SLOWLOG)
        .expect("chrome scrape");
    let events = validate_chrome_trace(&chrome).expect("chrome trace validates");
    assert!(events > 4, "metadata + phase spans for each captured query");

    drop(client);
    let stats = server.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!(
        recorded, stats.completed,
        "histogram counts reconcile with completed"
    );
}

#[test]
fn telemetry_conformance_single_thread() {
    assert_telemetry_conformance(1);
}

#[test]
fn telemetry_conformance_four_threads() {
    assert_telemetry_conformance(4);
}

/// Error-triggered tail sampling without a latency threshold: only the
/// requests that come back non-OK or non-completed enter the log.
#[test]
fn error_triggers_tail_sample_without_threshold() {
    let server = Server::start(config(2, TelemetryConfig::default())).expect("server starts");
    let mut client = Client::connect(server.addr(), "t").expect("connects");
    assert_eq!(client.ping().expect("ok").status, STATUS_OK);
    let resp = client.classify("no-such-ontology").expect("typed error");
    assert_eq!(resp.status, STATUS_PROTOCOL_ERROR);
    // The fault plan exhausts this realize: completed-but-interrupted.
    let faulted = client
        .realize("vehicles", "beetle : car\n")
        .expect("answered");
    assert_eq!(faulted.status, STATUS_OK);

    wait_until(|| {
        server.telemetry().recorded_requests() == 3 && server.telemetry().slow_log_counts().2 == 2
    });
    let (captured, dropped, triggered) = server.telemetry().slow_log_counts();
    assert_eq!(
        triggered, 2,
        "error + interrupted outcomes trigger; ping does not"
    );
    assert_eq!(captured, 2);
    assert_eq!(dropped, 0);
    assert_eq!(server.telemetry().recorded_requests(), 3);
    drop(client);
    assert!(server.shutdown().reconciles());
}

/// Disabled telemetry: responses unchanged, nothing recorded, and the
/// scrape still answers (reporting the plane as disabled) so an
/// operator's dashboard never 404s.
#[test]
fn disabled_telemetry_records_nothing_and_stays_conformant() {
    let tel = TelemetryConfig {
        enabled: false,
        ..TelemetryConfig::default()
    };
    let cfg = config(2, tel.clone());
    let reqs = workload();
    let want = baseline(&cfg, &reqs);
    let server = Server::start(config(2, tel)).expect("server starts");
    let mut client = Client::connect(server.addr(), "dark").expect("connects");
    for (req, want) in reqs.iter().zip(&want) {
        let resp = client.call(req.clone()).expect("answered");
        assert_eq!(resp.body, want.body, "disabled plane, identical bytes");
    }
    assert_eq!(server.telemetry().recorded_requests(), 0);
    assert_eq!(server.telemetry().slow_log_counts(), (0, 0, 0));

    let prom = client
        .telemetry_text(TELEMETRY_FORMAT_PROMETHEUS)
        .expect("scrape answers even when disabled");
    validate_exposition(&prom).expect("still lints clean");
    assert!(prom.contains("summa_serve_telemetry_enabled 0"));
    let chrome = client
        .telemetry_text(TELEMETRY_FORMAT_CHROME_SLOWLOG)
        .expect("chrome scrape answers");
    validate_chrome_trace(&chrome).expect("empty slow log still validates");
    drop(client);
    assert!(server.shutdown().reconciles());
}

/// An unknown telemetry format byte is a typed protocol error on a
/// connection that keeps working.
#[test]
fn unknown_telemetry_format_is_typed_and_survivable() {
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr(), "t").expect("connects");
    let resp = client
        .telemetry(200)
        .expect("typed rejection, not a disconnect");
    assert_eq!(resp.status, STATUS_PROTOCOL_ERROR);
    assert_eq!(client.ping().expect("answered").status, STATUS_OK);
    drop(client);
    let stats = server.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
}

/// The in-flight gauge is the books' quiescence point: a handler
/// lowers it only after recording its request, so once it reads zero
/// the recorded count is exact, with no settling on the books
/// themselves.
#[test]
fn zero_in_flight_means_every_answer_is_recorded() {
    let server = Server::start(config(2, TelemetryConfig::default())).expect("server starts");
    let mut client = Client::connect(server.addr(), "books").expect("connects");
    let plane = server.telemetry();
    for (i, req) in workload().into_iter().enumerate() {
        client.call(req).expect("answered");
        wait_until(|| plane.in_flight() == 0);
        assert_eq!(plane.in_flight(), 0, "request {i} left flight");
        assert_eq!(
            plane.recorded_requests(),
            i as u64 + 1,
            "request {i} is in the books"
        );
    }
    drop(client);
    assert!(server.shutdown().reconciles());
}

/// Multi-tenant attribution: each tenant's requests land under its own
/// label, and the per-tenant sums reconcile with the server's books.
#[test]
fn per_tenant_attribution_reconciles() {
    let server = Server::start(config(4, TelemetryConfig::default())).expect("server starts");
    let addr = server.addr();
    let handles: Vec<_> = ["alpha", "beta"]
        .into_iter()
        .map(|tenant| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, tenant).expect("connects");
                for _ in 0..5 {
                    let resp = client
                        .subsumes("vehicles", "car", "motorvehicle")
                        .expect("answered");
                    assert_eq!(resp.status, STATUS_OK);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("tenant thread");
    }
    wait_until(|| server.telemetry().recorded_requests() == 10);
    assert_eq!(server.telemetry().recorded_requests(), 10);
    let mut client = Client::connect(addr, "scraper").expect("connects");
    let prom = client
        .telemetry_text(TELEMETRY_FORMAT_PROMETHEUS)
        .expect("scrape");
    validate_exposition(&prom).expect("lints clean");
    for tenant in ["alpha", "beta"] {
        assert!(
            prom.contains(&format!(
                "summa_serve_tenant_requests_total{{tenant=\"{tenant}\",op=\"subsumes\"}} 5"
            )),
            "per-tenant per-op count for {tenant}:\n{prom}"
        );
    }
    drop(client);
    let stats = server.shutdown();
    assert!(stats.reconciles());
    assert_eq!(stats.completed, 10);
}

/// The exposition family a `ServeStats` entry is exported under.
fn stat_family(key: &str) -> String {
    match key {
        "index_hits" => "summa_serve_index_hit_total".into(),
        "index_misses" => "summa_serve_index_miss_total".into(),
        "cache_shared_hits" => "summa_serve_cache_shared_hit_total".into(),
        k => format!("summa_serve_{k}_total"),
    }
}

/// Every server count lives once, in the plane's registry: under real
/// traffic `ServeStats` and the exposition report the same numbers,
/// whether or not the plane records.
#[test]
fn serve_stats_equal_exported_counters_enabled_and_disabled() {
    for enabled in [true, false] {
        let server = Server::start(ServerConfig {
            threads: 2,
            telemetry: TelemetryConfig {
                enabled,
                ..TelemetryConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("server starts");
        let mut client = Client::connect(server.addr(), "books").expect("connects");
        for _ in 0..2 {
            // A named pair answers by index; the complex query proves,
            // then replays from the epoch-shared cache.
            client
                .subsumes("vehicles", "car", "motorvehicle")
                .expect("answered");
            client
                .subsumes("vehicles", "car", "some uses.gasoline")
                .expect("answered");
        }
        client.ping().expect("answered");
        client.classify("no-such-ontology").expect("typed error");
        client.telemetry(200).expect("typed protocol rejection");
        client.stats().expect("admin answered");
        wait_until(|| server.stats().completed == server.stats().accepted);
        // Counters only grow, so equal reads on both sides of the
        // render pin the values it exported.
        let (stats, text) = loop {
            let before = server.stats();
            let text = server.telemetry().prometheus_text();
            if server.stats() == before {
                break (before, text);
            }
        };
        validate_exposition(&text).expect("exposition lints clean");
        assert!(
            stats.index_hits > 0 && stats.index_misses > 0 && stats.cache_shared_hits > 0,
            "warm traffic moved every attribution count (enabled={enabled}): {stats:?}"
        );
        assert!(stats.rejected_protocol > 0 && stats.admin > 0, "{stats:?}");
        let entries = stats.entries();
        for (key, value) in &entries {
            let line = format!("{} {value}", stat_family(key));
            assert!(
                text.lines().any(|l| l == line),
                "enabled={enabled}: expected `{line}` in the exposition:\n{text}"
            );
        }
        assert_eq!(
            server.telemetry().registry().counters().len(),
            entries.len(),
            "the plane's registry holds exactly the server counts"
        );
        drop(client);
        assert!(server.shutdown().reconciles());
    }
}
