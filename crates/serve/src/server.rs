//! The TCP reasoning server: accept loop, per-connection handlers,
//! admission control, and graceful drain.
//!
//! ## Accepting
//!
//! One `serve-accept` thread owns the listening socket and starts a
//! `serve-conn` handler thread for each connection it accepts. A
//! connection the `serve.accept` chaos site faults, or one whose
//! handler cannot be started, is dropped before any frame is read.
//! After a failed `accept` the loop pauses for [`ACCEPT_BACKOFF`]
//! before it tries again: at the descriptor limit `accept` fails with
//! `EMFILE` and leaves the connection queued, so an immediate retry
//! would spin.
//!
//! ## One admission path
//!
//! A decoded request takes one of two paths. A `stats` or `telemetry`
//! scrape is answered inline from server state, so observability keeps
//! working during overload. Every other request — `load_snapshot`
//! included — is admitted and answered by a queue worker. Admission
//! runs four gates, in this order, under the queue lock: draining?
//! tenant over its in-flight cap? tenant over its step quota? queue
//! full? Failing any gate produces a **typed** [`wire::Overload`]
//! response on the same connection — overload is never expressed as a
//! disconnect. Admitted requests are answered exactly once, even
//! across injected worker faults (a worker degrades them to typed
//! engine errors, never silence).
//!
//! Each tenant id resolves to one record on its first request: its
//! in-flight count, consumed steps and telemetry series. The record
//! lives as long as the server. Ids are at most [`wire::MAX_TENANT`]
//! bytes; how many distinct ids a server sees is not bounded.
//!
//! ## Drain accounting
//!
//! [`Server::shutdown`] stops the accept loop, which closes the
//! listening socket, so a new connection is refused from then on. It
//! lets the workers drain the queue, waits for the last admitted
//! response to be *written*, then closes connections and joins every
//! thread. The final [`ServeStats`] must reconcile: `accepted ==
//! completed`, and every frame ever read is accounted as completed,
//! overload-rejected, protocol-rejected, or a scrape.

use crate::snapshot::SnapshotStore;
use crate::telemetry::{TelemetryConfig, TelemetryPlane, TenantTelemetry};
use crate::wire::{
    self, Envelope, FrameError, Overload, ProtoError, Request, Response, STATUS_OK,
    STATUS_OVERLOADED, STATUS_PROTOCOL_ERROR,
};
use crate::worker::{worker_loop, Pending, Slot};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use summa_guard::obs::metrics::Registry;
use summa_guard::obs::Tracer;
use summa_guard::{Budget, FaultInjector};

/// How long the accept loop waits after a failed `accept` before it
/// tries again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(1);

/// Server tuning knobs. The defaults suit tests and small deployments;
/// every limit is explicit so the soak/conformance suites can pin
/// them.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Queue workers: how many admitted requests execute at once.
    /// Defaults to [`summa_exec::default_threads`] (`SUMMA_THREADS`
    /// aware).
    pub threads: usize,
    /// Bounded queue capacity; admission beyond it is a typed
    /// [`Overload::QueueFull`].
    pub queue_capacity: usize,
    /// Per-tenant in-flight cap ([`Overload::TenantBusy`] beyond it).
    pub tenant_max_pending: u64,
    /// Per-tenant lifetime step quota
    /// ([`Overload::QuotaExhausted`] once spent); `None` = unmetered.
    pub tenant_step_quota: Option<u64>,
    /// Step cap for each request's private budget; `None` = unlimited.
    pub request_steps: Option<u64>,
    /// Deterministic fault plan armed on **every request budget** as a
    /// fresh injector (`(plan, seed)`, [`FaultInjector::parse_plan`]
    /// syntax). Fresh-per-request arrival counters keep the plan's
    /// behavior independent of which worker runs the request and of
    /// thread interleaving — the conformance suite replays the same
    /// plan on its direct calls.
    pub request_fault_plan: Option<(String, u64)>,
    /// Envelope for the server itself (carries the injector for the
    /// `serve.accept` / `serve.batch` chaos sites; an
    /// unlimited default falls back to the process-global injector,
    /// so `SUMMA_FAULT_PLAN` covers the server too).
    pub pool_budget: Budget,
    /// Tracer for serve spans and counters; defaults to the process
    /// tracer (`SUMMA_TRACE=1` aware).
    pub tracer: Tracer,
    /// Telemetry plane knobs (phase histograms, gauge rings, tail
    /// sampling). Enabled by default; disabling reduces their
    /// per-request cost to one relaxed atomic load. Server counts are
    /// kept either way.
    pub telemetry: TelemetryConfig,
    /// Force the per-request-fresh cold path even when snapshots carry
    /// a warm state (A/B lanes, cold conformance). Defaults to `false`.
    /// Configs with a request fault plan or a request step cap run cold
    /// regardless — see [`ServerConfig::warm_eligible`].
    pub cold: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: summa_exec::default_threads(),
            queue_capacity: 256,
            tenant_max_pending: 32,
            tenant_step_quota: None,
            request_steps: None,
            request_fault_plan: None,
            pool_budget: Budget::unlimited(),
            tracer: Tracer::global().clone(),
            telemetry: TelemetryConfig::default(),
            cold: false,
        }
    }
}

impl ServerConfig {
    /// Build the private budget one request executes under. The
    /// conformance suite calls this too, so served and direct
    /// executions share the envelope *by construction*. The injector
    /// is always explicit (an empty one when no plan is configured):
    /// request determinism must not depend on whether the process has
    /// a global chaos plan armed.
    pub fn request_budget(&self) -> Budget {
        let mut b = Budget::new().with_tracer(self.tracer.clone());
        if let Some(steps) = self.request_steps {
            b = b.with_steps(steps);
        }
        let injector = match &self.request_fault_plan {
            Some((plan, seed)) => FaultInjector::parse_plan(plan, *seed)
                .expect("request_fault_plan validated at Server::start"),
            None => FaultInjector::new(0),
        };
        b.with_injector(Arc::new(injector))
    }

    /// Whether this configuration may answer from the warm path
    /// ([`crate::ops::execute_warm`]). Warm answers carry bodies
    /// byte-identical to cold ones only when both *complete*, so any
    /// config that deliberately interrupts requests — a fault plan or
    /// a per-request step cap — runs fully cold, as does an explicit
    /// `cold` opt-out.
    pub fn warm_eligible(&self) -> bool {
        !self.cold && self.request_fault_plan.is_none() && self.request_steps.is_none()
    }
}

/// One tenant's record, resolved on its first request and shared by
/// every request it sends: what admission checks, what its answers
/// book, and its telemetry series.
pub(crate) struct Tenant {
    pub name: String,
    /// Admitted requests not yet answered.
    pub pending: AtomicU64,
    /// Steps its answered requests spent.
    pub consumed_steps: AtomicU64,
    pub telemetry: Arc<TenantTelemetry>,
}

/// What admission guards under one lock: the bounded queue and every
/// tenant's record.
#[derive(Default)]
pub(crate) struct Admission {
    pub queue: VecDeque<Pending>,
    /// One record per tenant id seen, kept for the server's lifetime.
    tenants: BTreeMap<String, Arc<Tenant>>,
}

/// The server's counts: handles into the telemetry plane's registry,
/// resolved once at [`Server::start`]. Each event bumps its counter
/// once, in no other store, whether or not the plane is enabled; each
/// counter is exported once as `summa_<name>_total`, and
/// [`ServeStats`] is a view over them.
pub(crate) struct ServeCounters {
    pub frames: Arc<AtomicU64>,
    pub accepted: Arc<AtomicU64>,
    pub completed: Arc<AtomicU64>,
    pub engine_errors: Arc<AtomicU64>,
    pub rejected_protocol: Arc<AtomicU64>,
    pub rejected_overload: Arc<AtomicU64>,
    pub admin: Arc<AtomicU64>,
    pub batches: Arc<AtomicU64>,
    pub max_queue_depth: Arc<AtomicU64>,
    pub snapshot_loads: Arc<AtomicU64>,
    pub accept_faults: Arc<AtomicU64>,
    pub batch_retries: Arc<AtomicU64>,
    pub index_hits: Arc<AtomicU64>,
    pub index_misses: Arc<AtomicU64>,
    pub cache_shared_hits: Arc<AtomicU64>,
}

impl ServeCounters {
    fn resolve(registry: &Registry) -> ServeCounters {
        ServeCounters {
            frames: registry.counter("serve.frames"),
            accepted: registry.counter("serve.accepted"),
            completed: registry.counter("serve.completed"),
            engine_errors: registry.counter("serve.engine_errors"),
            rejected_protocol: registry.counter("serve.rejected_protocol"),
            rejected_overload: registry.counter("serve.rejected_overload"),
            admin: registry.counter("serve.admin"),
            batches: registry.counter("serve.batches"),
            max_queue_depth: registry.counter("serve.max_queue_depth"),
            snapshot_loads: registry.counter("serve.snapshot_loads"),
            accept_faults: registry.counter("serve.accept_faults"),
            batch_retries: registry.counter("serve.batch_retries"),
            index_hits: registry.counter("serve.index.hit"),
            index_misses: registry.counter("serve.index.miss"),
            cache_shared_hits: registry.counter("serve.cache.shared_hit"),
        }
    }

    /// Read every count (relaxed loads; each is monotonic).
    fn stats(&self) -> ServeStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServeStats {
            frames: load(&self.frames),
            accepted: load(&self.accepted),
            completed: load(&self.completed),
            engine_errors: load(&self.engine_errors),
            rejected_protocol: load(&self.rejected_protocol),
            rejected_overload: load(&self.rejected_overload),
            admin: load(&self.admin),
            batches: load(&self.batches),
            max_queue_depth: load(&self.max_queue_depth),
            snapshot_loads: load(&self.snapshot_loads),
            accept_faults: load(&self.accept_faults),
            batch_retries: load(&self.batch_retries),
            index_hits: load(&self.index_hits),
            index_misses: load(&self.index_misses),
            cache_shared_hits: load(&self.cache_shared_hits),
        }
    }
}

/// A point-in-time snapshot of the server's exact accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Frames successfully read off connections.
    pub frames: u64,
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Admitted requests answered (any status, engine errors
    /// included).
    pub completed: u64,
    /// Admitted requests whose answer degraded to a typed engine
    /// error (subset of `completed`).
    pub engine_errors: u64,
    /// Frames answered with a typed protocol error without queueing.
    pub rejected_protocol: u64,
    /// Requests answered with a typed overload rejection.
    pub rejected_overload: u64,
    /// Scrapes (`stats`, `telemetry`) answered inline, outside
    /// admission.
    pub admin: u64,
    /// Worker dispatches: one per admitted request a worker popped.
    pub batches: u64,
    /// High-water queue depth observed at admission.
    pub max_queue_depth: u64,
    /// Snapshots installed over the wire: admitted `load_snapshot`
    /// requests a worker answered OK.
    pub snapshot_loads: u64,
    /// Connections dropped by the `serve.accept` chaos site.
    pub accept_faults: u64,
    /// `serve.batch` gate retries.
    pub batch_retries: u64,
    /// Requests answered straight from a snapshot's precomputed
    /// [`HierarchyIndex`](summa_dl::index::HierarchyIndex) (subset of
    /// `completed`).
    pub index_hits: u64,
    /// Warm-path requests the index could not answer alone (they
    /// proved, with the epoch-shared cache).
    pub index_misses: u64,
    /// Sat-cache hits served from a snapshot's epoch-shared cache by
    /// warm fall-through requests.
    pub cache_shared_hits: u64,
}

impl ServeStats {
    /// Exact partial accounting: every admitted request was answered,
    /// and every frame read is accounted for exactly once.
    pub fn reconciles(&self) -> bool {
        self.accepted == self.completed
            && self.frames
                == self.accepted + self.rejected_protocol + self.rejected_overload + self.admin
    }

    /// Counter entries for the wire `Stats` payload, in a fixed order.
    pub fn entries(&self) -> Vec<(String, u64)> {
        vec![
            ("frames".into(), self.frames),
            ("accepted".into(), self.accepted),
            ("completed".into(), self.completed),
            ("engine_errors".into(), self.engine_errors),
            ("rejected_protocol".into(), self.rejected_protocol),
            ("rejected_overload".into(), self.rejected_overload),
            ("admin".into(), self.admin),
            ("batches".into(), self.batches),
            ("max_queue_depth".into(), self.max_queue_depth),
            ("snapshot_loads".into(), self.snapshot_loads),
            ("accept_faults".into(), self.accept_faults),
            ("batch_retries".into(), self.batch_retries),
            ("index_hits".into(), self.index_hits),
            ("index_misses".into(), self.index_misses),
            ("cache_shared_hits".into(), self.cache_shared_hits),
        ]
    }
}

/// State shared between the accept loop, connection handlers, and the
/// queue workers.
pub(crate) struct Shared {
    pub cfg: ServerConfig,
    /// `cfg.warm_eligible()`, resolved once at startup — the queue
    /// workers branch on this per request.
    pub warm: bool,
    pub store: SnapshotStore,
    /// The queue lock: the bounded queue and the tenant records.
    pub admission: Mutex<Admission>,
    pub queue_cv: Condvar,
    pub counters: ServeCounters,
    pub draining: AtomicBool,
    pub next_trace: AtomicU64,
    pub tracer: Tracer,
    /// The long-lived telemetry plane: the registry behind `counters`,
    /// gauges, phase histograms, slow-query log. Always present; its
    /// enabled flag gates histograms, rings and tail sampling.
    pub telemetry: TelemetryPlane,
    /// A clone of each live connection's stream, keyed by connection
    /// id, for shutdown. Its handler removes it on exit.
    pub conns: Mutex<BTreeMap<u64, TcpStream>>,
}

/// A running reasoning server bound to a local TCP port.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind `127.0.0.1:0` (ephemeral port) with the builtin snapshot
    /// corpus and start serving.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        Server::start_with_store(cfg, SnapshotStore::with_builtins())
    }

    /// [`Server::start`] against a caller-built snapshot store.
    pub fn start_with_store(cfg: ServerConfig, store: SnapshotStore) -> io::Result<Server> {
        if let Some((plan, seed)) = &cfg.request_fault_plan {
            FaultInjector::parse_plan(plan, *seed)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let tracer = cfg.tracer.clone();
        let telemetry = TelemetryPlane::new(cfg.telemetry.clone());
        let counters = ServeCounters::resolve(telemetry.registry());
        let warm = cfg.warm_eligible();
        let shared = Arc::new(Shared {
            cfg,
            warm,
            store,
            telemetry,
            admission: Mutex::new(Admission::default()),
            queue_cv: Condvar::new(),
            counters,
            draining: AtomicBool::new(false),
            next_trace: AtomicU64::new(0),
            tracer,
            conns: Mutex::new(BTreeMap::new()),
        });
        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let workers = (0..shared.cfg.threads.max(1))
            .map(|_| {
                let worker_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("serve-worker".into())
                    .spawn(move || worker_loop(worker_shared))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conn_handles);
        let accept_handle = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, accept_conns))?;

        Ok(Server {
            addr,
            shared,
            accept_handle: Some(accept_handle),
            workers,
            conn_handles,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.shared.counters.stats()
    }

    /// The snapshot store (hot-swappable while serving).
    pub fn store(&self) -> &SnapshotStore {
        &self.shared.store
    }

    /// The telemetry plane (for in-process scrapes and tests; remote
    /// consumers use the `Telemetry` wire op).
    pub fn telemetry(&self) -> &TelemetryPlane {
        &self.shared.telemetry
    }

    /// Graceful drain: stop admissions, answer everything already
    /// admitted, close connections, join all threads, and return the
    /// final (reconciling) accounting.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> ServeStats {
        let _span = self.shared.tracer.span("serve.drain");
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake the accept loop with a dummy connection; it checks the
        // drain flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Let the workers drain the queue and the handlers write the
        // last admitted responses.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let queue_empty = self
                .shared
                .admission
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .queue
                .is_empty();
            // Admission raises the gauge inside the queue lock taken
            // just above, and a handler lowers it only after its
            // response write has returned and its observation landed.
            if queue_empty && self.shared.telemetry.in_flight() == 0 {
                break;
            }
            self.shared.queue_cv.notify_all();
            if Instant::now() > deadline {
                break; // degraded exit; reconciliation will flag it
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Workers: queue is empty and draining is set → each exits.
        // Notifying under the queue lock reaches a worker that checked
        // the flag just before it was set: it is waiting by now.
        {
            let _q = self
                .shared
                .admission
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.shared.queue_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Unblock handler reads; clients already got every response.
        for conn in lock_conns(&self.shared).values() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(
            &mut *self
                .conn_handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for h in handles {
            let _ = h.join();
        }
        let stats = self.shared.counters.stats();
        self.shared.tracer.add("serve.drained", 1);
        stats
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_handle.is_some() || !self.workers.is_empty() {
            let _ = self.shutdown_inner();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            // At the descriptor limit `accept` fails at once and leaves
            // the connection queued: pause instead of spinning.
            Err(_) => {
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        // Responses are small frames; never trade latency for Nagle
        // coalescing.
        stream.set_nodelay(true).ok();
        // Chaos site: an injected fault at accept drops the connection
        // before any protocol state exists (the one place "drop" is
        // the contract — no frame was ever read).
        let gate = catch_unwind(AssertUnwindSafe(|| {
            shared.cfg.pool_budget.meter().fault_point("serve.accept")
        }));
        if !matches!(gate, Ok(Ok(_))) {
            shared
                .counters
                .accept_faults
                .fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if let Ok(clone) = stream.try_clone() {
            lock_conns(&shared).insert(id, clone);
        }
        let conn_shared = Arc::clone(&shared);
        match std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || handle_conn(conn_shared, id, stream))
        {
            Ok(handle) => {
                let mut handles = conn_handles.lock().unwrap_or_else(PoisonError::into_inner);
                // A finished handler has nothing left to join.
                handles.retain(|h| !h.is_finished());
                handles.push(handle);
            }
            Err(_) => {
                lock_conns(&shared).remove(&id);
            }
        }
    }
}

/// The drain's connection clones (a poisoned lock is still usable).
fn lock_conns(shared: &Shared) -> MutexGuard<'_, BTreeMap<u64, TcpStream>> {
    shared.conns.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Write a response frame; IO errors just end the connection (the
/// peer left — nothing to answer anymore).
fn send(stream: &mut TcpStream, resp: &Response) -> bool {
    wire::write_frame(stream, &wire::encode_response(resp)).is_ok()
}

fn handle_conn(shared: Arc<Shared>, id: u64, mut stream: TcpStream) {
    conn_loop(&shared, &mut stream);
    // Shut the socket down so the peer sees EOF at once, then drop the
    // drain's clone: with our own handle it closes the descriptor.
    let _ = stream.shutdown(std::net::Shutdown::Both);
    lock_conns(&shared).remove(&id);
}

fn conn_loop(shared: &Shared, stream: &mut TcpStream) {
    loop {
        let frame = match wire::read_frame(&mut *stream) {
            Ok(None) | Err(FrameError::Io(_)) => break,
            Ok(Some(payload)) => Ok(payload),
            Err(FrameError::Oversize(n)) => Err(ProtoError::Oversize(n)),
            Err(FrameError::Truncated) => Err(ProtoError::Truncated),
        };
        // Every frame read counts, answered or not, so the final
        // accounting stays exact.
        shared.counters.frames.fetch_add(1, Ordering::Relaxed);
        let open = match frame.map(|payload| wire::decode_request(&payload)) {
            // The stream cannot be re-synchronized after an oversize or
            // truncated frame: answer with the typed error, then close.
            Err(e) => {
                reject_protocol(shared, stream, 0, e);
                false
            }
            // Malformed frame, intact framing: typed error, connection
            // stays usable.
            Ok(Err((e, id))) => reject_protocol(shared, stream, id, e),
            Ok(Ok(env)) => dispatch(shared, stream, env),
        };
        if !open {
            break;
        }
    }
}

fn reject_protocol(shared: &Shared, stream: &mut TcpStream, id: u64, e: ProtoError) -> bool {
    let body = wire::protocol_error_body(&e);
    answer_inline(shared, stream, id, STATUS_PROTOCOL_ERROR, body)
}

/// Answer a frame that runs nothing — a scrape (`STATUS_OK`), or a
/// protocol or overload rejection — and book it under its status's one
/// count. The header carries no server time, epoch or spend. Returns
/// `false` when the write fails.
fn answer_inline(
    shared: &Shared,
    stream: &mut TcpStream,
    id: u64,
    status: u8,
    body: Vec<u8>,
) -> bool {
    let count = match status {
        STATUS_OK => &shared.counters.admin,
        STATUS_OVERLOADED => &shared.counters.rejected_overload,
        _ => &shared.counters.rejected_protocol,
    };
    count.fetch_add(1, Ordering::Relaxed);
    let resp = Response {
        id,
        status,
        elapsed_ns: 0,
        trace_id: shared.next_trace.fetch_add(1, Ordering::Relaxed) + 1,
        epoch: 0,
        served: wire::SERVED_PROVER,
        spend: summa_guard::Spend::default(),
        body,
    };
    send(stream, &resp)
}

/// Route one decoded request: a scrape is answered inline from server
/// state, everything else is admitted. Returns `false` when the
/// connection should close (write failure only — every protocol
/// outcome keeps it open).
fn dispatch(shared: &Shared, stream: &mut TcpStream, env: Envelope) -> bool {
    let payload = match env.request {
        Request::Stats => {
            let entries = shared.counters.stats().entries();
            let mut payload = Vec::new();
            wire::put_u32(&mut payload, entries.len() as u32);
            for (k, v) in &entries {
                wire::put_str(&mut payload, k);
                wire::put_u64(&mut payload, *v);
            }
            payload
        }
        // The body leads with its own version so scrape tooling can
        // evolve independently of the protocol version.
        Request::Telemetry { format } => {
            let text = match format {
                wire::TELEMETRY_FORMAT_PROMETHEUS => shared.telemetry.prometheus_text(),
                wire::TELEMETRY_FORMAT_CHROME_SLOWLOG => shared.telemetry.slow_log_chrome_json(),
                _ => {
                    let e = ProtoError::Malformed("unknown telemetry format");
                    return reject_protocol(shared, stream, env.id, e);
                }
            };
            let mut payload = vec![wire::TELEMETRY_VERSION, format];
            wire::put_str(&mut payload, &text);
            payload
        }
        _ => return admit(shared, stream, env),
    };
    let body = wire::ok_body(wire::OUTCOME_COMPLETED, wire::REASON_NONE, Some(payload));
    answer_inline(shared, stream, env.id, STATUS_OK, body)
}

/// Admit one request, wait for its worker's answer and write it, or
/// answer why it was refused.
fn admit(shared: &Shared, stream: &mut TcpStream, env: Envelope) -> bool {
    let (id, op) = (env.id, env.request.op());
    let (tenant, slot, admitted_at) = match enqueue(shared, env) {
        Ok(admitted) => admitted,
        Err(o) => {
            let detail = match o {
                Overload::Draining => "server draining",
                Overload::TenantBusy => "tenant in-flight cap reached",
                Overload::QuotaExhausted => "tenant step quota spent",
                Overload::QueueFull => "request queue at capacity",
            };
            let body = wire::overload_body(o, detail);
            return answer_inline(shared, stream, id, STATUS_OVERLOADED, body);
        }
    };
    shared.queue_cv.notify_one();
    let (resp, mut phases) = slot.wait();
    let ser_t0 = Instant::now();
    let ok = send(stream, &resp);
    if shared.telemetry.enabled() {
        phases.serialize_ns = ser_t0.elapsed().as_nanos() as u64;
        let total_ns = admitted_at.elapsed().as_nanos() as u64;
        let start_ns = shared.telemetry.now_ns().saturating_sub(total_ns);
        shared.telemetry.observe_request(
            &tenant.telemetry,
            &tenant.name,
            op,
            &resp,
            phases,
            start_ns,
            total_ns,
        );
    }
    // Lowered only once the request is in the books, so an in-flight
    // count of zero means every answered request has been recorded.
    shared.telemetry.in_flight_add(-1);
    ok
}

/// Run the admission gates and queue the request if it passes them
/// all. The gates run in order — draining, tenant busy, quota, queue
/// full — under the queue lock, so a tenant's check-and-increment is
/// atomic and the drain sees every request admitted before it began.
fn enqueue(shared: &Shared, env: Envelope) -> Result<(Arc<Tenant>, Arc<Slot>, Instant), Overload> {
    let mut adm = shared
        .admission
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if shared.draining.load(Ordering::SeqCst) {
        return Err(Overload::Draining);
    }
    let tenant = match adm.tenants.get(&env.tenant) {
        Some(t) => Arc::clone(t),
        None => {
            let t = Arc::new(Tenant {
                name: env.tenant.clone(),
                pending: AtomicU64::new(0),
                consumed_steps: AtomicU64::new(0),
                telemetry: shared.telemetry.tenant(&env.tenant),
            });
            adm.tenants.insert(env.tenant.clone(), Arc::clone(&t));
            t
        }
    };
    if tenant.pending.load(Ordering::Relaxed) >= shared.cfg.tenant_max_pending {
        return Err(Overload::TenantBusy);
    }
    let consumed = tenant.consumed_steps.load(Ordering::Relaxed);
    if shared.cfg.tenant_step_quota.is_some_and(|q| consumed >= q) {
        return Err(Overload::QuotaExhausted);
    }
    if adm.queue.len() >= shared.cfg.queue_capacity {
        return Err(Overload::QueueFull);
    }
    tenant.pending.fetch_add(1, Ordering::Relaxed);
    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
    let depth = adm.queue.len() as u64 + 1;
    shared
        .counters
        .max_queue_depth
        .fetch_max(depth, Ordering::Relaxed);
    shared.telemetry.queue_depth_set(depth as i64);
    shared.telemetry.in_flight_add(1);
    let slot = Arc::new(Slot::new());
    let enqueued = Instant::now();
    adm.queue.push_back(Pending {
        env,
        tenant: Arc::clone(&tenant),
        slot: Arc::clone(&slot),
        enqueued,
    });
    Ok((tenant, slot, enqueued))
}
