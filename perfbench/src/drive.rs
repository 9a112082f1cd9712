//! The served path: set-up, closed-loop clients over loopback TCP, and
//! the answer check against the conformance baseline.

use crate::alloc;
use crate::gen::{Inputs, SNAPSHOT};
use crate::stats::Tally;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use summa_guard::Budget;
use summa_obs::Tracer;
use summa_serve::client::Client;
use summa_serve::ops;
use summa_serve::server::{Server, ServerConfig};
use summa_serve::snapshot::SnapshotStore;
use summa_serve::telemetry::TelemetryConfig;
use summa_serve::wire::{Op, Request, Response, STATUS_OK};

/// The pinned server configuration: every knob the benchmark depends
/// on is set here rather than read from the environment.
pub fn server_config(tracer: Tracer) -> ServerConfig {
    ServerConfig {
        threads: pool_width(),
        cold: false,
        tracer: tracer.clone(),
        pool_budget: Budget::unlimited().with_tracer(tracer),
        telemetry: TelemetryConfig::default(),
        request_steps: None,
        request_fault_plan: None,
        ..ServerConfig::default()
    }
}

/// Pool width: the host's available parallelism.
pub fn pool_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Expected bodies, precomputed with [`ops::execute`] outside every
/// timed window: `reads[rev][key]`, plus the `load_snapshot` and
/// `classify` bodies of each revision (used by `swap`).
pub struct Expected {
    pub reads: Vec<Vec<Vec<u8>>>,
    pub loads: Vec<Vec<u8>>,
    pub classify: Vec<Vec<u8>>,
}

/// Precompute every expected body, revision by revision.
pub fn expected(inp: &Inputs, cfg: &ServerConfig) -> Result<Expected, String> {
    let budget = cfg.request_budget();
    let mut out = Expected {
        reads: Vec::new(),
        loads: Vec::new(),
        classify: Vec::new(),
    };
    for rev in &inp.revisions {
        let store = SnapshotStore::new();
        let load = ops::execute(
            &store,
            &Request::LoadSnapshot {
                name: SNAPSHOT.into(),
                axioms: rev.text.clone(),
            },
            &budget,
        );
        if load.status != STATUS_OK {
            return Err(format!("revision {} does not install", rev.shape));
        }
        let classify = ops::execute(
            &store,
            &Request::Classify {
                snapshot: SNAPSHOT.into(),
            },
            &budget,
        );
        let reads = parallel_map(&inp.distinct, |req| {
            let ex = ops::execute(&store, req, &budget);
            (ex.status == STATUS_OK).then_some(ex.body)
        })
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("a generated request fails on {}", rev.shape))?;
        out.loads.push(load.body);
        out.classify.push(classify.body);
        out.reads.push(reads);
    }
    Ok(out)
}

/// Map over `items` on [`pool_width`] scoped threads, keeping order.
fn parallel_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let chunk = items.len().div_ceil(pool_width()).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(|| part.iter().map(&f).collect::<Vec<U>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("precompute thread panicked"))
            .collect()
    })
}

/// One set-up: build the store (installing the first revision with its
/// warm classification and index), start the server, and wait for the
/// first `ping` answer.
pub fn set_up(inp: &Inputs, cfg: &ServerConfig) -> Result<(Server, Duration), String> {
    let t0 = Instant::now();
    let store = SnapshotStore::new();
    store
        .install_axioms(SNAPSHOT, &inp.revisions[0].text)
        .map_err(|e| format!("install: {e}"))?;
    let server = Server::start_with_store(cfg.clone(), store).map_err(|e| e.to_string())?;
    let mut c = Client::connect(server.addr(), "setup").map_err(|e| e.to_string())?;
    let pong = c.ping().map_err(|e| e.to_string())?;
    let dt = t0.elapsed();
    if pong.status != STATUS_OK {
        return Err("ping refused".into());
    }
    Ok((server, dt))
}

/// Latency limit per op for goodput.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    pub subsumes: Duration,
    pub realize: Duration,
}

impl Limits {
    fn of(&self, op: Op) -> Duration {
        match op {
            Op::Realize => self.realize,
            _ => self.subsumes,
        }
    }
}

/// What one connection saw.
#[derive(Debug, Default)]
pub struct ConnLog {
    pub tally: Tally,
    /// Client-observed latency, send to decoded reply (ns).
    pub subsumes_ns: Vec<u64>,
    pub realize_ns: Vec<u64>,
    pub install_ns: Vec<u64>,
    pub classify_ns: Vec<u64>,
    /// Client latency minus the header's `elapsed_ns`, for `subsumes`.
    pub overhead_ns: Vec<u64>,
    /// Header cache probes over completed reads.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// The first responses, kept for the wire-codec replay.
    pub sample: Vec<(Request, Response)>,
    pub wall: Duration,
}

impl ConnLog {
    pub fn absorb(&mut self, o: ConnLog) {
        self.tally.absorb(&o.tally);
        self.subsumes_ns.extend(o.subsumes_ns);
        self.realize_ns.extend(o.realize_ns);
        self.install_ns.extend(o.install_ns);
        self.classify_ns.extend(o.classify_ns);
        self.overhead_ns.extend(o.overhead_ns);
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.sample.extend(o.sample);
        self.wall = self.wall.max(o.wall);
    }
}

/// Responses kept per connection for the codec replay.
const SAMPLE_KEEP: usize = 512;

/// A client connection kept open across windows, with the number of
/// requests sent on it: the client numbers its envelopes from 1 per
/// connection, so this is the id of the last envelope sent.
pub struct Conn {
    client: Client,
    sent: u64,
}

impl Conn {
    pub fn open(addr: SocketAddr, tenant: &str) -> Result<Conn, String> {
        let client = Client::connect(addr, tenant).map_err(|e| format!("connect: {e}"))?;
        Ok(Conn { client, sent: 0 })
    }
}

/// Shared, read-only state of one timed phase.
pub struct Phase<'a> {
    pub addr: SocketAddr,
    pub inp: &'a Inputs,
    pub exp: &'a Expected,
    pub limits: Limits,
    pub cursor: &'a AtomicUsize,
    /// `swap` installs so far; windows continue the revision cycle.
    pub installs: &'a AtomicU64,
    /// Epoch of the set-up install; `swap` installs count up from it.
    pub epoch0: u64,
    /// Root spans per request go here (disabled outside traced runs).
    pub tracer: &'a Tracer,
}

impl Phase<'_> {
    /// The revision that answered at `epoch`, if it is one we sent.
    fn revision(&self, epoch: u64) -> Option<usize> {
        let i = epoch.checked_sub(self.epoch0)?;
        Some(i as usize % self.inp.revisions.len())
    }

    /// Closed-loop reader: take the next stream entry, send it, wait
    /// for the reply, check it, repeat until `deadline`.
    fn reader(&self, conn: &mut Conn, deadline: Instant) -> ConnLog {
        alloc::mark_client_thread();
        let mut log = ConnLog::default();
        let start = Instant::now();
        while Instant::now() < deadline {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let key = self.inp.stream[i % self.inp.stream.len()];
            let req = self.inp.distinct[key].clone();
            let op = req.op();
            let (got, dt) = self.call(conn, req);
            let ns = dt.as_nanos() as u64;
            let Ok(resp) = got else {
                log.tally.record(false, dt, self.limits.of(op));
                match Conn::open(self.addr, conn.client.tenant()) {
                    Ok(c) => *conn = c,
                    Err(_) => break,
                }
                continue;
            };
            let correct = resp.status == STATUS_OK
                && self
                    .revision(resp.epoch)
                    .is_some_and(|rev| self.exp.reads[rev][key] == resp.body);
            log.tally.record(correct, dt, self.limits.of(op));
            if correct {
                match op {
                    Op::Realize => log.realize_ns.push(ns),
                    _ => {
                        log.subsumes_ns.push(ns);
                        log.overhead_ns.push(ns.saturating_sub(resp.elapsed_ns));
                    }
                }
                log.cache_hits += resp.spend.cache_hits;
                log.cache_misses += resp.spend.cache_misses;
            }
            if log.sample.len() < SAMPLE_KEEP {
                log.sample.push((self.inp.distinct[key].clone(), resp));
            }
        }
        log.wall = start.elapsed();
        log
    }

    /// One client call inside a root span keyed by its envelope id.
    fn call(&self, conn: &mut Conn, req: Request) -> (std::io::Result<Response>, Duration) {
        conn.sent += 1;
        let _span = self
            .tracer
            .span("bench.request")
            .with("id", conn.sent)
            .with("tenant", conn.client.tenant())
            .with("op", req.op().name());
        let t0 = Instant::now();
        let got = conn.client.call(req);
        (got, t0.elapsed())
    }

    /// `swap` writer: hot-swap the snapshot through the revisions with
    /// `load_snapshot`, fetching `classify` after each swap.
    fn writer(&self, conn: &mut Conn, deadline: Instant) -> ConnLog {
        alloc::mark_client_thread();
        let mut log = ConnLog::default();
        let start = Instant::now();
        let revs = &self.inp.revisions;
        while Instant::now() < deadline {
            let installs = self.installs.fetch_add(1, Ordering::Relaxed) + 1;
            let rev = installs as usize % revs.len();
            let epoch = self.epoch0 + installs;
            let calls = [
                Request::LoadSnapshot {
                    name: SNAPSHOT.into(),
                    axioms: revs[rev].text.clone(),
                },
                Request::Classify {
                    snapshot: SNAPSHOT.into(),
                },
            ];
            for req in calls {
                let op = req.op();
                let want = match op {
                    Op::LoadSnapshot => &self.exp.loads[rev],
                    _ => &self.exp.classify[rev],
                };
                let (got, dt) = self.call(conn, req.clone());
                let correct = got
                    .as_ref()
                    .is_ok_and(|r| r.status == STATUS_OK && r.epoch == epoch && r.body == *want);
                // Writes have no latency limit of their own; only the
                // reader's answers count towards goodput.
                log.tally.record(correct, dt, Duration::MAX);
                if !correct {
                    return finish(log, start);
                }
                match op {
                    Op::LoadSnapshot => log.install_ns.push(dt.as_nanos() as u64),
                    _ => log.classify_ns.push(dt.as_nanos() as u64),
                }
                if let Ok(resp) = got {
                    if log.sample.len() < SAMPLE_KEEP {
                        log.sample.push((req, resp));
                    }
                }
            }
        }
        finish(log, start)
    }
}

fn finish(mut log: ConnLog, start: Instant) -> ConnLog {
    log.wall = start.elapsed();
    log
}

/// Run one closed-loop reader per connection in `readers` (and, with a
/// `writer` connection, the `swap` writer beside them) for `dur`. Returns the
/// readers' merged log and the writer's.
pub fn run_phase(
    phase: &Phase<'_>,
    readers: &mut [Conn],
    writer: Option<&mut Conn>,
    dur: Duration,
) -> (ConnLog, ConnLog) {
    let deadline = Instant::now() + dur;
    std::thread::scope(|s| {
        let w = writer.map(|c| s.spawn(move || phase.writer(c, deadline)));
        let handles: Vec<_> = readers
            .iter_mut()
            .map(|c| s.spawn(move || phase.reader(c, deadline)))
            .collect();
        let mut merged = ConnLog::default();
        for h in handles {
            merged.absorb(h.join().expect("reader thread panicked"));
        }
        let wlog = w
            .map(|h| h.join().expect("writer thread panicked"))
            .unwrap_or_default();
        (merged, wlog)
    })
}
