//! Differential conformance for the warm serving path: a server whose
//! snapshots carry an install-time [`HierarchyIndex`] and epoch-shared
//! `SatCache` must answer with bodies **byte-identical** to the direct
//! cold library call ([`summa_serve::ops::execute`]), at 1 and at 4
//! worker threads, across repeated (cache-warming) rounds, and across
//! snapshot hot-swaps — a stale index must never answer. The warmth is
//! visible only in the nondeterministic response header: the `served`
//! marker and the relocated `Spend`.
//!
//! EL snapshots warm by saturation instead of the tableau; their warm
//! `subsumes` and `classify` bodies must still equal the tableau bodies
//! of the direct call, including across a hot swap between an EL and a
//! non-EL TBox under one name.
//!
//! Plus the index's own contract: on fixed and randomly generated
//! corpora, every [`HierarchyIndex`] bit agrees with the
//! classification it was packed from ([`ClassHierarchy::subsumers_ref`]),
//! which in turn is differential-tested against the prover.

use summa_dl::classify::{ClassHierarchy, Classify};
use summa_dl::concept::{ConceptId, Vocabulary};
use summa_dl::corpus::{
    animals_tbox_el, animals_tbox_repaired, vehicles_tbox, vehicles_tbox_el, PaperVocab,
};
use summa_dl::generate;
use summa_dl::index::HierarchyIndex;
use summa_dl::tbox::TBox;
use summa_guard::{Budget, Governed};
use summa_serve::client::Client;
use summa_serve::ops::{self, Executed};
use summa_serve::server::{Server, ServerConfig};
use summa_serve::snapshot::{SnapshotStore, WarmEngine};
use summa_serve::wire::{
    decode_ok_body, Op, Payload, Request, SERVED_CACHE, SERVED_INDEX, SERVED_PROVER, STATUS_OK,
    STATUS_PROTOCOL_ERROR,
};

/// Same fixed chaos plan as `integration_serve.rs`; arming it must
/// gate the warm path off entirely (fault sites fire at the same
/// prover steps cold and served, so bodies still match the baseline).
const FAULT_PLAN: &str = "dl.cache.insert@3=trip;dl.realize.individual@1=trip";
const FAULT_SEED: u64 = 1405;

/// A mixed workload: index-answerable named pairs (both polarities), a
/// complex concept that falls through to the shared cache, classify
/// and realize (warm variants), ping (no warm variant), and a typed
/// error path.
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
            snapshot: "vehicles".into(),
            sub: "car".into(),
            sup: "some uses.gasoline".into(),
        },
        Request::Classify {
            snapshot: "vehicles".into(),
        },
        Request::Realize {
            snapshot: "vehicles".into(),
            abox: "beetle : car\nherbie : motorvehicle\n".into(),
        },
        Request::Subsumes {
            snapshot: "animals-repaired".into(),
            sub: "dog".into(),
            sup: "animal".into(),
        },
        Request::Classify {
            snapshot: "no-such-ontology".into(),
        },
    ]
}

fn baseline(cfg: &ServerConfig, reqs: &[Request]) -> Vec<Executed> {
    let store = SnapshotStore::with_builtins();
    reqs.iter()
        .map(|r| ops::execute(&store, r, &cfg.request_budget()))
        .collect()
}

/// The tentpole acceptance run: a warm-eligible server answers the
/// whole workload twice (the second round rides whatever the first
/// warmed) with bodies byte-identical to the direct cold library call,
/// and the served markers prove the index/cache actually answered.
fn assert_warm_conformance(threads: usize) {
    let cfg = ServerConfig {
        threads,
        cold: false,
        ..ServerConfig::default()
    };
    assert!(cfg.warm_eligible(), "config must serve warm");
    let reqs = workload();
    let want = baseline(&cfg, &reqs);

    let server = Server::start(cfg).expect("server starts");
    let mut client = Client::connect(server.addr(), "warm").expect("connects");
    for round in 0..2 {
        for (req, want) in reqs.iter().zip(&want) {
            let resp = client.call(req.clone()).expect("answered");
            assert_eq!(resp.status, want.status, "status for {:?}", req.op());
            assert_eq!(
                resp.body,
                want.body,
                "warm body must match the direct cold call for {:?} (threads={threads}, round={round})",
                req.op()
            );
            assert_eq!(resp.epoch, want.epoch, "same generation answered");
        }
    }

    // The served markers in the (nondeterministic) header are where
    // warm and cold legitimately differ.
    let mut named = client
        .subsumes("vehicles", "car", "motorvehicle")
        .expect("answered");
    assert_eq!(named.served, SERVED_INDEX, "named pair answers by index");
    assert_eq!(named.spend.steps, 1, "an index answer charges one step");
    named = client
        .subsumes("vehicles", "car", "some uses.gasoline")
        .expect("answered");
    assert_eq!(named.served, SERVED_CACHE, "complex query proves, shared");
    assert!(
        named.spend.cache_hits > 0,
        "second round rides the epoch-shared cache"
    );
    let ping = client.ping().expect("answered");
    assert_eq!(ping.served, SERVED_PROVER, "ping has no warm variant");

    drop(client);
    let stats = server.shutdown();
    assert!(stats.reconciles(), "{stats:?}");
    assert!(
        stats.index_hits >= 7,
        "two rounds of named pairs + classifies hit the index: {stats:?}"
    );
    assert!(
        stats.index_misses >= 2,
        "complex + realize fall through as misses: {stats:?}"
    );
    assert!(
        stats.cache_shared_hits > 0,
        "round two replays shared-cache verdicts: {stats:?}"
    );
}

#[test]
fn warm_conformance_single_thread() {
    assert_warm_conformance(1);
}

#[test]
fn warm_conformance_four_threads() {
    assert_warm_conformance(4);
}

/// `cold: true` forces the per-request-fresh path — every answer is
/// prover-served, bodies unchanged, and no warm counters move.
#[test]
fn cold_escape_hatch_disables_the_warm_path() {
    let cfg = ServerConfig {
        threads: 2,
        cold: true,
        ..ServerConfig::default()
    };
    assert!(!cfg.warm_eligible());
    let reqs = workload();
    let want = baseline(&cfg, &reqs);
    let server = Server::start(cfg).expect("server starts");
    let mut client = Client::connect(server.addr(), "cold").expect("connects");
    for (req, want) in reqs.iter().zip(&want) {
        let resp = client.call(req.clone()).expect("answered");
        assert_eq!(resp.body, want.body, "cold bodies for {:?}", req.op());
        assert_eq!(resp.served, SERVED_PROVER, "{:?}", req.op());
    }
    drop(client);
    let stats = server.shutdown();
    assert_eq!(
        (
            stats.index_hits,
            stats.index_misses,
            stats.cache_shared_hits
        ),
        (0, 0, 0)
    );
}

/// Arming the chaos fault plan makes the config warm-ineligible: the
/// injected faults fire at the same prover steps as the direct
/// baseline, so every body still matches byte-for-byte.
#[test]
fn chaos_fault_plan_gates_the_warm_path_off() {
    let cfg = ServerConfig {
        threads: 2,
        request_fault_plan: Some((FAULT_PLAN.to_string(), FAULT_SEED)),
        ..ServerConfig::default()
    };
    assert!(!cfg.warm_eligible(), "fault injection must run fully cold");
    let reqs = workload();
    let want = baseline(&cfg, &reqs);
    let server = Server::start(cfg).expect("server starts");
    let mut client = Client::connect(server.addr(), "chaos").expect("connects");
    for (req, want) in reqs.iter().zip(&want) {
        let resp = client.call(req.clone()).expect("answered");
        assert_eq!(resp.status, want.status);
        assert_eq!(resp.body, want.body, "faulted bodies for {:?}", req.op());
        assert_eq!(resp.served, SERVED_PROVER);
    }
    drop(client);
    assert!(server.shutdown().reconciles());
}

/// Hot-swap invalidation: after a snapshot is replaced over the wire,
/// queries must answer from the **new** generation's index — the new
/// epoch in the header and the new ontology's answers prove the stale
/// index never speaks for the swapped snapshot.
#[test]
fn hot_swap_replaces_the_index_generation() {
    let server = Server::start(ServerConfig {
        cold: false,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr(), "ops").expect("connects");

    let v1 = client
        .load_snapshot("migratory", "puffin < bird\nbird < animal\n")
        .expect("installs");
    assert_eq!(v1.status, STATUS_OK);
    let r1 = client
        .subsumes("migratory", "puffin", "bird")
        .expect("answered");
    assert_eq!(r1.served, SERVED_INDEX, "v1 index answers");
    assert_eq!(r1.epoch, v1.epoch);
    let ok = decode_ok_body(Op::Subsumes, &r1.body).expect("decodes");
    assert_eq!(ok.payload, Some(Payload::Subsumes(true)));

    // Swap: puffins are fish now. The same pair must flip to false
    // under a strictly newer epoch — a stale v1 index would say true.
    let v2 = client
        .load_snapshot("migratory", "puffin < fish\nfish < animal\nbird < animal\n")
        .expect("reinstalls");
    assert!(v2.epoch > v1.epoch, "install bumps the epoch");
    let r2 = client
        .subsumes("migratory", "puffin", "bird")
        .expect("answered");
    assert_eq!(r2.epoch, v2.epoch, "answered by the new generation");
    assert_eq!(r2.served, SERVED_INDEX, "rebuilt index answers");
    let ok = decode_ok_body(Op::Subsumes, &r2.body).expect("decodes");
    assert_eq!(
        ok.payload,
        Some(Payload::Subsumes(false)),
        "stale answer leaked"
    );
    let r3 = client
        .subsumes("migratory", "puffin", "animal")
        .expect("answered");
    let ok = decode_ok_body(Op::Subsumes, &r3.body).expect("decodes");
    assert_eq!(ok.payload, Some(Payload::Subsumes(true)));

    drop(client);
    assert!(server.shutdown().reconciles());
}

/// Client round-trip for the protocol-v2 header fields: the `served`
/// marker and the relocated spend decode on the client side exactly as
/// the executor produced them, for all three markers.
#[test]
fn client_round_trips_served_marker_and_header_spend() {
    let server = Server::start(ServerConfig {
        cold: false,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr(), "hdr").expect("connects");

    let idx = client
        .subsumes("vehicles", "car", "motorvehicle")
        .expect("answered");
    assert_eq!(idx.served, SERVED_INDEX);
    assert_eq!(idx.spend.steps, 1);
    assert_eq!(idx.spend.cache_hits, 0, "index answers never touch a cache");

    let proved = client
        .subsumes("vehicles", "car", "some uses.gasoline")
        .expect("answered");
    assert_eq!(proved.served, SERVED_CACHE);
    assert!(proved.spend.steps > 1, "fall-through really proved");

    let ping = client.ping().expect("answered");
    assert_eq!(ping.served, SERVED_PROVER);
    assert_eq!(ping.spend, summa_guard::Spend::default());

    // Typed errors still carry a well-formed header.
    let err = client.classify("no-such-ontology").expect("answered");
    assert_eq!(err.status, STATUS_PROTOCOL_ERROR);
    assert_eq!(err.served, SERVED_PROVER);

    drop(client);
    assert!(server.shutdown().reconciles());
}

// ---- EL-warmed snapshots -----------------------------------------

/// Every ordered pair of `snapshot`'s TBox atoms whose indices are
/// multiples of `stride`, as `subsumes` requests, then its `classify`.
fn warm_reads(store: &SnapshotStore, snapshot: &str, stride: usize) -> Vec<Request> {
    let snap = store.get(snapshot).expect("installed");
    let names: Vec<String> = snap
        .tbox
        .atoms()
        .into_iter()
        .step_by(stride)
        .map(|c| snap.voc.concept_name(c).to_string())
        .collect();
    let mut reqs: Vec<Request> = names
        .iter()
        .flat_map(|sub| {
            names.iter().map(move |sup| Request::Subsumes {
                snapshot: snapshot.into(),
                sub: sub.clone(),
                sup: sup.clone(),
            })
        })
        .collect();
    reqs.push(Request::Classify {
        snapshot: snapshot.into(),
    });
    reqs
}

fn engine(store: &SnapshotStore, snapshot: &str) -> WarmEngine {
    store
        .get(snapshot)
        .and_then(|s| s.warm.as_ref().map(|w| w.engine))
        .expect("warm at install")
}

/// Serve `reqs` warm and compare each body with the tableau body of
/// the direct call against the same generation.
fn assert_served_like_the_tableau(server: &Server, client: &mut Client, reqs: &[Request]) {
    let budget = Budget::unlimited();
    for req in reqs {
        let want = ops::execute(server.store(), req, &budget);
        let got = client.call(req.clone()).expect("answered");
        assert_eq!(got.status, want.status, "{req:?}");
        assert_eq!(
            got.body, want.body,
            "warm body differs from the tableau's: {req:?}"
        );
        assert_eq!(got.epoch, want.epoch, "{req:?}");
        assert_eq!(got.served, SERVED_INDEX, "answered warm: {req:?}");
    }
}

/// The EL paper corpora and `diamond(6)` warm by saturation, and every
/// warm `subsumes` and `classify` body equals the tableau's. Then one
/// name swaps from an EL TBox to a non-EL one and back; each
/// generation warms by its own fragment's engine and serves the
/// tableau's bodies.
fn assert_el_warm_conformance(threads: usize) {
    let store = SnapshotStore::new();
    let p = PaperVocab::new();
    store.install("vehicles-el", vehicles_tbox_el(&p), p.voc.clone());
    store.install("animals-el", animals_tbox_el(&p), p.voc.clone());
    let (voc, tbox, _) = generate::diamond(6);
    store.install("diamond", tbox, voc);
    store.install("zoo", animals_tbox_el(&p), p.voc.clone());
    let cfg = ServerConfig {
        threads,
        cold: false,
        ..ServerConfig::default()
    };
    assert!(cfg.warm_eligible(), "config must serve warm");
    let server = Server::start_with_store(cfg, store).expect("server starts");
    let mut client = Client::connect(server.addr(), "el").expect("connects");

    for (name, stride) in [("vehicles-el", 1), ("animals-el", 1), ("diamond", 5)] {
        assert_eq!(engine(server.store(), name), WarmEngine::El, "{name}");
        let reqs = warm_reads(server.store(), name, stride);
        assert_served_like_the_tableau(&server, &mut client, &reqs);
    }

    // Hot swap under one name: EL, then ALC, then EL again.
    for (tbox, want) in [
        (animals_tbox_el(&p), WarmEngine::El),
        (animals_tbox_repaired(&p), WarmEngine::Tableau),
        (animals_tbox_el(&p), WarmEngine::El),
    ] {
        let before = server.store().current_epoch();
        server.store().install("zoo", tbox, p.voc.clone());
        assert!(server.store().current_epoch() > before);
        assert_eq!(engine(server.store(), "zoo"), want);
        let reqs = warm_reads(server.store(), "zoo", 1);
        assert_served_like_the_tableau(&server, &mut client, &reqs);
    }

    drop(client);
    assert!(server.shutdown().reconciles());
}

#[test]
fn el_warm_conformance_single_thread() {
    assert_el_warm_conformance(1);
}

#[test]
fn el_warm_conformance_four_threads() {
    assert_el_warm_conformance(4);
}

// ---- index/classification property tests -------------------------

fn classified(tbox: &TBox, voc: &Vocabulary) -> ClassHierarchy {
    match Classify::new(tbox, voc).run(&Budget::unlimited()).governed {
        Governed::Completed(h) => h,
        other => panic!("classification must complete: {other:?}"),
    }
}

/// Every index bit equals the hierarchy's own answer, and the verified
/// rows read back as the hierarchy's own rows.
fn assert_index_matches(h: &ClassHierarchy, voc: &Vocabulary) {
    let idx = HierarchyIndex::build(h).expect("completed hierarchies index");
    assert!(idx.is_intact());
    let rows: Vec<ConceptId> = h.concepts().collect();
    assert_eq!(idx.len(), rows.len());
    for &sub in &rows {
        let subsumers = h.subsumers_ref(sub).expect("row exists");
        for &sup in &rows {
            assert_eq!(
                idx.subsumes(sup, sub),
                Some(subsumers.contains(&sup)),
                "pair ({}, {})",
                voc.concept_name(sup),
                voc.concept_name(sub),
            );
        }
    }
    let read: Vec<(ConceptId, Vec<ConceptId>)> = idx
        .verified_rows()
        .expect("intact")
        .map(|(c, up)| (c, up.collect()))
        .collect();
    let want: Vec<(ConceptId, Vec<ConceptId>)> =
        h.rows().map(|(c, up)| (c, up.collect())).collect();
    assert_eq!(read, want);
}

#[test]
fn index_matches_classification_on_fixed_corpora() {
    let p = PaperVocab::new();
    for tbox in [vehicles_tbox(&p), animals_tbox_repaired(&p)] {
        let h = classified(&tbox, &p.voc);
        assert_index_matches(&h, &p.voc);
    }
}

#[test]
fn index_matches_classification_on_generated_corpora() {
    // Structured families, sized for a debug-build tableau; the chain
    // crosses the 64-atom word boundary so two-word rows are exercised.
    let (voc, tbox, _) = generate::chain(65);
    assert_index_matches(&classified(&tbox, &voc), &voc);
    let (voc, tbox, _) = generate::diamond(4);
    assert_index_matches(&classified(&tbox, &voc), &voc);
    // …and random EL TBoxes under several seeds (small: ∃-chains make
    // unbounded classification exponential in the worst case).
    for seed in [7, 1405, 0x5EED] {
        let (voc, tbox, _) = generate::random_el(12, 2, 16, seed);
        let h = classified(&tbox, &voc);
        assert_index_matches(&h, &voc);
    }
}
