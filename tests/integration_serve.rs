//! Differential conformance for summa-serve: answers over the wire
//! must be **byte-identical** — including the deterministic `Spend`
//! fields — to direct library calls through [`summa_serve::ops`], at
//! 1 and at 4 worker threads, on the warm and the cold served path,
//! with and without a fixed per-request fault plan. Plus: overload is a typed response (never a
//! disconnect), snapshot hot-swap bumps epochs without breaking
//! in-flight conformance, the server's `serve.accept` /
//! `serve.batch` chaos sites and panics inside a request degrade to
//! typed answers, never to dropped requests or lost workers, a long
//! request holds one queue worker, never the whole server, and snapshot
//! loads pass the same admission and queue workers as every other
//! request.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use summa_guard::{Budget, FaultInjector};
use summa_serve::client::Client;
use summa_serve::ops::{self, Executed};
use summa_serve::server::{Server, ServerConfig};
use summa_serve::snapshot::SnapshotStore;
use summa_serve::wire::{
    decode_ok_body, decode_overload, decode_protocol_error, Op, Overload, Payload, Request,
    SERVED_PROVER, STATUS_ENGINE_ERROR, STATUS_OK, STATUS_OVERLOADED, STATUS_PROTOCOL_ERROR,
};

#[path = "support/pigeonhole.rs"]
mod pigeonhole;
use pigeonhole::pigeonhole_concept;

/// The fixed chaos plan the conformance runs replay on both sides.
/// Each request executes under a **fresh** injector (fresh arrival
/// counters), so the plan's firing pattern is a pure function of the
/// request — independent of which worker runs it, thread count, and
/// transport.
const FAULT_PLAN: &str = "dl.cache.insert@3=trip;dl.realize.individual@1=trip";
const FAULT_SEED: u64 = 1405;

/// The conformance workload: every queued op, happy paths and typed
/// error paths, across all three builtin snapshots.
fn workload() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Subsumes {
            snapshot: "vehicles".into(),
            sub: "car".into(),
            sup: "motorvehicle".into(),
        },
        Request::Subsumes {
            snapshot: "vehicles".into(),
            sub: "motorvehicle".into(),
            sup: "car".into(),
        },
        Request::Subsumes {
            snapshot: "animals".into(),
            sub: "dog".into(),
            sup: "animal".into(),
        },
        Request::Classify {
            snapshot: "vehicles".into(),
        },
        Request::Classify {
            snapshot: "animals-repaired".into(),
        },
        Request::Realize {
            snapshot: "vehicles".into(),
            abox: "beetle : car\nherbie : motorvehicle\n".into(),
        },
        Request::Admit {
            artifact: "vehicles TBox (4)".into(),
            definition: "Gruber (functional)".into(),
        },
        Request::Admit {
            artifact: "no-such-artifact".into(),
            definition: "Gruber (functional)".into(),
        },
        Request::Critique,
        // Typed error paths must conform too.
        Request::Classify {
            snapshot: "no-such-ontology".into(),
        },
        Request::Subsumes {
            snapshot: "vehicles".into(),
            sub: "car and and".into(),
            sup: "motorvehicle".into(),
        },
        Request::Realize {
            snapshot: "vehicles".into(),
            abox: "beetle : some uses".into(),
        },
    ]
}

fn config(threads: usize, plan: Option<&str>) -> ServerConfig {
    ServerConfig {
        threads,
        request_fault_plan: plan.map(|p| (p.to_string(), FAULT_SEED)),
        ..ServerConfig::default()
    }
}

/// The direct library baseline: [`ops::execute`] against a fresh
/// builtin store under the *same* request budget the server grants.
fn baseline(cfg: &ServerConfig, reqs: &[Request]) -> Vec<Executed> {
    let store = SnapshotStore::with_builtins();
    reqs.iter()
        .map(|r| ops::execute(&store, r, &cfg.request_budget()))
        .collect()
}

fn assert_conformance(threads: usize, plan: Option<&str>, cold: bool) {
    let cfg = ServerConfig {
        cold,
        ..config(threads, plan)
    };
    let reqs = workload();
    let want = baseline(&cfg, &reqs);
    let server = Server::start(cfg).expect("server starts");
    let mut client = Client::connect(server.addr(), "conformance").expect("connects");
    for (req, want) in reqs.iter().zip(&want) {
        let resp = client.call(req.clone()).expect("answered");
        assert_eq!(
            resp.status,
            want.status,
            "status for {:?} (threads={threads}, plan={plan:?}, cold={cold})",
            req.op()
        );
        assert_eq!(
            resp.body,
            want.body,
            "body bytes for {:?} (threads={threads}, plan={plan:?}, cold={cold})",
            req.op()
        );
        assert_eq!(resp.epoch, want.epoch, "epoch for {:?}", req.op());
        if cold {
            assert_eq!(resp.served, SERVED_PROVER, "cold path for {:?}", req.op());
        }
    }
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.accepted, reqs.len() as u64);
    assert!(stats.reconciles(), "accounting reconciles: {stats:?}");
}

#[test]
fn conformance_single_thread() {
    assert_conformance(1, None, false);
}

#[test]
fn conformance_four_threads() {
    assert_conformance(4, None, false);
}

/// `cold: true` serves every request on the per-request-fresh path.
#[test]
fn conformance_single_thread_cold() {
    assert_conformance(1, None, true);
}

#[test]
fn conformance_four_threads_cold() {
    assert_conformance(4, None, true);
}

#[test]
fn conformance_single_thread_under_fault_plan() {
    assert_conformance(1, Some(FAULT_PLAN), false);
}

#[test]
fn conformance_four_threads_under_fault_plan() {
    assert_conformance(4, Some(FAULT_PLAN), false);
}

/// The fault plan actually bites: the realize request must come back
/// exhausted-by-fault, and still byte-identical to the direct call.
#[test]
fn fault_plan_is_observable_and_conformant() {
    let cfg = config(1, Some(FAULT_PLAN));
    let req = Request::Realize {
        snapshot: "vehicles".into(),
        abox: "beetle : car\n".into(),
    };
    let direct = ops::execute(&SnapshotStore::with_builtins(), &req, &cfg.request_budget());
    let ok = decode_ok_body(Op::Realize, &direct.body).expect("decodes");
    assert_eq!(ok.outcome, summa_serve::wire::OUTCOME_EXHAUSTED);
    assert_eq!(ok.reason, summa_serve::wire::REASON_FAULT);

    let server = Server::start(cfg).expect("server starts");
    let mut client = Client::connect(server.addr(), "chaos").expect("connects");
    let resp = client.call(req).expect("answered");
    assert_eq!(resp.status, direct.status);
    assert_eq!(resp.body, direct.body);
    drop(client);
    assert!(server.shutdown().reconciles());
}

/// Four concurrent tenants replay the full workload; every answer from
/// every interleaving must match the single baseline, and the queue
/// workers must actually dispatch.
#[test]
fn concurrent_tenants_conform_and_batch() {
    let cfg = config(4, None);
    let reqs = workload();
    let want = Arc::new(baseline(&cfg, &reqs));
    let server = Server::start(cfg).expect("server starts");
    let addr = server.addr();
    let reqs = Arc::new(reqs);
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let reqs = Arc::clone(&reqs);
            let want = Arc::clone(&want);
            std::thread::spawn(move || {
                let tenant = format!("tenant-{t}");
                let mut client = Client::connect(addr, &tenant).expect("connects");
                for round in 0..3 {
                    for (req, want) in reqs.iter().zip(want.iter()) {
                        let resp = client.call(req.clone()).expect("answered");
                        assert_eq!(resp.status, want.status, "tenant {t} round {round}");
                        assert_eq!(resp.body, want.body, "tenant {t} round {round}");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let stats = server.shutdown();
    assert_eq!(stats.accepted, (4 * 3 * workload().len()) as u64);
    assert!(stats.reconciles(), "{stats:?}");
    assert!(stats.batches > 0);
}

/// Snapshot hot-swap: an over-the-wire reload bumps the epoch, new
/// queries answer against the new generation, and answers stay
/// conformant with a direct store that performed the same install.
#[test]
fn hot_swap_bumps_epoch_and_stays_conformant() {
    let cfg = config(2, None);
    let server = Server::start(config(2, None)).expect("server starts");
    let mut client = Client::connect(server.addr(), "swapper").expect("connects");

    let before = client.classify("vehicles").expect("classify v1");
    assert_eq!(before.status, STATUS_OK);
    assert_eq!(before.epoch, 1, "builtin vehicles is epoch 1");

    let axioms = "car < motorvehicle\nmotorvehicle < vehicle\nhovercraft < vehicle\n";
    let loaded = client.load_snapshot("vehicles", axioms).expect("reload");
    assert_eq!(loaded.status, STATUS_OK);
    assert_eq!(loaded.epoch, 4, "install bumps past the three builtins");

    let after = client.classify("vehicles").expect("classify v2");
    assert_eq!(after.epoch, 4);
    assert_ne!(after.body, before.body, "new generation, new hierarchy");

    // Direct baseline that performed the same swap.
    let store = SnapshotStore::with_builtins();
    store.install_axioms("vehicles", axioms).expect("installs");
    let want = ops::execute(
        &store,
        &Request::Classify {
            snapshot: "vehicles".into(),
        },
        &cfg.request_budget(),
    );
    assert_eq!(after.body, want.body);
    let ok = decode_ok_body(Op::Classify, &after.body).expect("decodes");
    let Some(Payload::Hierarchy(rows)) = ok.payload else {
        panic!("hierarchy payload");
    };
    assert!(rows
        .iter()
        .any(|(c, subs)| c == "hovercraft" && subs.iter().any(|s| s == "vehicle")));

    drop(client);
    let stats = server.shutdown();
    assert!(stats.reconciles());
    assert_eq!(stats.snapshot_loads, 1);
}

/// Overload is a typed response on a live connection — after the
/// rejection the same connection keeps working.
#[test]
fn overload_rejections_are_typed_not_disconnects() {
    // Tenant in-flight cap of zero: every queued op is TenantBusy.
    let server = Server::start(ServerConfig {
        tenant_max_pending: 0,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr(), "busy").expect("connects");
    for _ in 0..3 {
        let resp = client.ping().expect("typed rejection, not a disconnect");
        assert_eq!(resp.status, STATUS_OVERLOADED);
        let (kind, detail) = decode_overload(&resp.body).expect("typed body");
        assert_eq!(kind, Overload::TenantBusy);
        assert!(!detail.is_empty());
    }
    // A snapshot load is admitted like any other request: refused the
    // same typed way, and nothing is installed.
    let resp = client
        .load_snapshot("toy", "dog < animal\n")
        .expect("typed rejection");
    assert_eq!(resp.status, STATUS_OVERLOADED);
    let (kind, _) = decode_overload(&resp.body).expect("typed body");
    assert_eq!(kind, Overload::TenantBusy);
    assert!(server.store().get("toy").is_none());
    // Scrapes bypass admission and still work under overload.
    let stats = client.stats().expect("stats answered");
    assert_eq!(stats.status, STATUS_OK);
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.rejected_overload, 4);
    assert_eq!(stats.snapshot_loads, 0);
    assert!(stats.reconciles(), "{stats:?}");

    // Step quota of zero: QuotaExhausted, same contract.
    let server = Server::start(ServerConfig {
        tenant_step_quota: Some(0),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr(), "broke").expect("connects");
    let resp = client
        .subsumes("vehicles", "car", "motorvehicle")
        .expect("typed rejection");
    assert_eq!(resp.status, STATUS_OVERLOADED);
    let (kind, _) = decode_overload(&resp.body).expect("typed body");
    assert_eq!(kind, Overload::QuotaExhausted);
    drop(client);
    assert!(server.shutdown().reconciles());

    // Queue capacity of zero: QueueFull.
    let server = Server::start(ServerConfig {
        queue_capacity: 0,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr(), "queued-out").expect("connects");
    let resp = client.ping().expect("typed rejection");
    assert_eq!(resp.status, STATUS_OVERLOADED);
    let (kind, _) = decode_overload(&resp.body).expect("typed body");
    assert_eq!(kind, Overload::QueueFull);
    drop(client);
    assert!(server.shutdown().reconciles());
}

/// A tenant's step quota is actually consumed by reasoning work, and
/// runs out as a typed rejection mid-session.
#[test]
fn step_quota_depletes_across_requests() {
    let server = Server::start(ServerConfig {
        tenant_step_quota: Some(50),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr(), "metered").expect("connects");
    let mut saw_ok = false;
    let mut saw_quota = false;
    for _ in 0..64 {
        let resp = client
            .subsumes("vehicles", "car", "motorvehicle")
            .expect("always answered");
        match resp.status {
            STATUS_OK => {
                assert!(!saw_quota, "no OK after the quota trips");
                saw_ok = true;
            }
            STATUS_OVERLOADED => {
                let (kind, _) = decode_overload(&resp.body).expect("typed");
                assert_eq!(kind, Overload::QuotaExhausted);
                saw_quota = true;
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(saw_ok && saw_quota, "quota admits then depletes");
    drop(client);
    assert!(server.shutdown().reconciles());
}

/// A transient `serve.batch` fault is retried and the answers are
/// unaffected; a persistent one degrades the request it gates to a
/// typed engine error — admitted work is never silently dropped.
#[test]
fn batch_faults_retry_then_degrade_to_typed_errors() {
    // One panic at the first request's gate: retry absorbs it.
    let injector = FaultInjector::parse_plan("serve.batch@1=panic", 0).expect("plan");
    let server = Server::start(ServerConfig {
        pool_budget: Budget::unlimited().with_injector(Arc::new(injector)),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr(), "t").expect("connects");
    let resp = client.ping().expect("answered");
    assert_eq!(resp.status, STATUS_OK);
    drop(client);
    let stats = server.shutdown();
    assert!(stats.batch_retries >= 1, "{stats:?}");
    assert!(stats.reconciles());

    // Panics at all three attempts: typed engine error, exact books.
    let injector = FaultInjector::parse_plan(
        "serve.batch@1=panic;serve.batch@2=panic;serve.batch@3=panic",
        0,
    )
    .expect("plan");
    let server = Server::start(ServerConfig {
        pool_budget: Budget::unlimited().with_injector(Arc::new(injector)),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr(), "t").expect("connects");
    let resp = client.ping().expect("answered, not dropped");
    assert_eq!(resp.status, STATUS_ENGINE_ERROR);
    // Later requests see a spent plan and succeed.
    let resp = client.ping().expect("answered");
    assert_eq!(resp.status, STATUS_OK);
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.engine_errors, 1);
    assert_eq!(stats.accepted, 2);
    assert!(stats.reconciles(), "{stats:?}");
}

/// The `serve.batch` gate covers snapshot loads as it covers every
/// admitted request: a load whose gate fails on every attempt answers
/// a typed engine error and installs nothing, and the next load
/// installs.
#[test]
fn batch_gate_covers_snapshot_loads() {
    let injector = FaultInjector::parse_plan(
        "serve.batch@1=panic;serve.batch@2=panic;serve.batch@3=panic",
        0,
    )
    .expect("plan");
    let server = Server::start(ServerConfig {
        pool_budget: Budget::unlimited().with_injector(Arc::new(injector)),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr(), "t").expect("connects");
    let resp = client
        .load_snapshot("toy", "dog < animal\n")
        .expect("answered, not dropped");
    assert_eq!(resp.status, STATUS_ENGINE_ERROR);
    assert!(server.store().get("toy").is_none());
    let resp = client
        .load_snapshot("toy", "dog < animal\n")
        .expect("answered");
    assert_eq!(resp.status, STATUS_OK);
    drop(client);
    let stats = server.shutdown();
    assert_eq!((stats.engine_errors, stats.snapshot_loads), (1, 1));
    assert!(stats.reconciles(), "{stats:?}");
}

/// A request whose execution panics on every attempt (a fresh request
/// budget per attempt re-arms the plan's step fault) answers a typed
/// engine error, and the server's only worker lives on: a `ping`,
/// which charges no step, is answered after it.
#[test]
fn panicking_request_leaves_its_worker_serving() {
    let server = Server::start(ServerConfig {
        threads: 1,
        request_fault_plan: Some(("meter.step@1=panic".to_string(), FAULT_SEED)),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr(), "t").expect("connects");
    let resp = client
        .subsumes("vehicles", "car", "motorvehicle")
        .expect("answered, not dropped");
    assert_eq!(resp.status, STATUS_ENGINE_ERROR);
    let resp = client.ping().expect("answered by the same worker");
    assert_eq!(resp.status, STATUS_OK);
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.engine_errors, 1);
    assert!(stats.reconciles(), "{stats:?}");
}

/// A long prover request holds one queue worker, not the server: while
/// it runs, a told pair from a second tenant is answered by the other
/// worker, in a small fraction of the long request's time. Pinned at
/// two workers, whatever `SUMMA_THREADS` says.
#[test]
fn long_request_does_not_hold_back_other_tenants() {
    let cfg = ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    };
    let long = Request::Subsumes {
        snapshot: "animals-repaired".into(),
        sub: pigeonhole_concept(),
        sup: "bottom".into(),
    };
    let told = Request::Subsumes {
        snapshot: "vehicles".into(),
        sub: "car".into(),
        sup: "motorvehicle".into(),
    };
    let want = baseline(&cfg, &[long.clone(), told.clone()]);
    let server = Server::start(cfg).expect("server starts");
    let addr = server.addr();
    let long_done = Arc::new(AtomicBool::new(false));
    let tenant_a = {
        let long_done = Arc::clone(&long_done);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr, "tenant-a").expect("connects");
            let t0 = Instant::now();
            let resp = client.call(long).expect("answered");
            long_done.store(true, Ordering::SeqCst);
            (resp, t0.elapsed())
        })
    };
    while server.stats().accepted == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut client = Client::connect(addr, "tenant-b").expect("connects");
    let t0 = Instant::now();
    let resp_b = client.call(told).expect("answered");
    let told_latency = t0.elapsed();
    assert!(
        !long_done.load(Ordering::SeqCst),
        "the told pair was answered only after the long request"
    );
    let (resp_a, long_latency) = tenant_a.join().expect("tenant a");
    assert!(
        told_latency * 2 < long_latency,
        "the told pair waited: {told_latency:?} beside {long_latency:?}"
    );
    for (resp, want) in [(&resp_a, &want[0]), (&resp_b, &want[1])] {
        assert_eq!(resp.status, want.status);
        assert_eq!(resp.body, want.body);
    }
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 2);
    assert!(stats.reconciles(), "{stats:?}");
}

/// A draining server admits nothing more, snapshot loads included:
/// while a long request keeps the drain open, a second tenant pings
/// until the drain refuses it, and its `load_snapshot` is then refused
/// the same typed way and installs nothing.
#[test]
fn draining_server_refuses_installs() {
    let server = Server::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let long = Request::Subsumes {
        snapshot: "animals-repaired".into(),
        sub: pigeonhole_concept(),
        sup: "bottom".into(),
    };
    let tenant_a = std::thread::spawn(move || {
        let mut client = Client::connect(addr, "tenant-a").expect("connects");
        client.call(long).expect("answered")
    });
    while server.stats().accepted == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Served once before the drain, so the accept loop has this
    // connection.
    let mut client = Client::connect(addr, "tenant-b").expect("connects");
    assert_eq!(client.ping().expect("answered").status, STATUS_OK);
    let drain = std::thread::spawn(move || server.shutdown());
    loop {
        let resp = client.ping().expect("answered while draining");
        if resp.status == STATUS_OK {
            continue;
        }
        assert_eq!(resp.status, STATUS_OVERLOADED);
        let (kind, _) = decode_overload(&resp.body).expect("typed body");
        assert_eq!(kind, Overload::Draining);
        break;
    }
    let resp = client
        .load_snapshot("toy", "dog < animal\n")
        .expect("answered while draining");
    assert_eq!(resp.status, STATUS_OVERLOADED);
    let (kind, _) = decode_overload(&resp.body).expect("typed body");
    assert_eq!(kind, Overload::Draining);
    assert_eq!(tenant_a.join().expect("tenant a").status, STATUS_OK);
    drop(client);
    let stats = drain.join().expect("drain");
    assert_eq!(stats.snapshot_loads, 0);
    assert!(stats.reconciles(), "{stats:?}");
}

/// Snapshot loads wait for a queue worker like any other request: at
/// one worker, a load sent while a long request holds it is answered
/// after the long request, and both bodies equal the direct calls.
#[test]
fn installs_are_bounded_by_the_workers() {
    let cfg = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let long = Request::Subsumes {
        snapshot: "animals-repaired".into(),
        sub: pigeonhole_concept(),
        sup: "bottom".into(),
    };
    let load = Request::LoadSnapshot {
        name: "toy".into(),
        axioms: "dog < animal\n".into(),
    };
    let want = baseline(&cfg, &[long.clone(), load.clone()]);
    let server = Server::start(cfg).expect("server starts");
    let addr = server.addr();
    let tenant_a = std::thread::spawn(move || {
        let mut client = Client::connect(addr, "tenant-a").expect("connects");
        client.call(long).expect("answered")
    });
    while server.stats().accepted == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut client = Client::connect(addr, "tenant-b").expect("connects");
    let resp_load = client.call(load).expect("answered");
    let resp_long = tenant_a.join().expect("tenant a");
    // Trace ids are handed out as answers are built.
    assert!(
        resp_load.trace_id > resp_long.trace_id,
        "the load was answered before the long request"
    );
    for (resp, want) in [(&resp_long, &want[0]), (&resp_load, &want[1])] {
        assert_eq!(resp.status, want.status);
        assert_eq!(resp.body, want.body);
    }
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.snapshot_loads, 1);
    assert!(stats.reconciles(), "{stats:?}");
}

/// An injected fault at `serve.accept` drops that connection (the one
/// site where "drop" is the contract — no frame was ever read); the
/// next connection is served normally.
#[test]
fn accept_fault_drops_connection_then_recovers() {
    let injector = FaultInjector::parse_plan("serve.accept@1=panic", 0).expect("plan");
    let server = Server::start(ServerConfig {
        pool_budget: Budget::unlimited().with_injector(Arc::new(injector)),
        ..ServerConfig::default()
    })
    .expect("server starts");
    // First connection: the server drops it without a frame. Our ping
    // fails with EOF or a reset — either way, no typed response owed.
    let mut doomed = Client::connect(server.addr(), "doomed").expect("tcp connects");
    assert!(doomed.ping().is_err(), "dropped at accept");
    // Second connection is healthy.
    let mut client = Client::connect(server.addr(), "fine").expect("connects");
    assert_eq!(client.ping().expect("answered").status, STATUS_OK);
    drop(client);
    drop(doomed);
    let stats = server.shutdown();
    assert_eq!(stats.accept_faults, 1);
    assert!(stats.reconciles());
}

/// Protocol errors that the stream can survive leave the connection
/// usable; the response carries the typed code and the recovered id.
#[test]
fn typed_protocol_error_then_connection_survives() {
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr(), "t").expect("connects");
    // An unknown-snapshot classify: typed error, not a disconnect.
    let resp = client.classify("nope").expect("answered");
    assert_eq!(resp.status, STATUS_PROTOCOL_ERROR);
    let (code, msg) = decode_protocol_error(&resp.body).expect("typed body");
    assert_eq!(code, 7, "UnknownSnapshot");
    assert!(msg.contains("nope"));
    // The connection still serves real work.
    assert_eq!(client.ping().expect("answered").status, STATUS_OK);
    drop(client);
    assert!(server.shutdown().reconciles());
}
