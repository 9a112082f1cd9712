//! The service telemetry plane: the registry that holds every server
//! count (read back as [`ServeStats`](crate::server::ServeStats)),
//! phased latency histograms keyed by op and by tenant, sampled
//! gauges, and a tail-sampled slow-query log — all rendered on demand
//! as a Prometheus-style text exposition or a Chrome-trace JSON dump
//! over the `Telemetry` wire op.
//!
//! ## Hot-path contract
//!
//! Telemetry must never perturb what it measures:
//!
//! * **Counts are always kept.** Server counters and the queue-depth /
//!   in-flight gauges are relaxed atomics that move whether or not the
//!   plane is enabled, so a scrape of a disabled plane still reports
//!   the server's books.
//! * **Disabled recording costs one relaxed load.** Histograms, gauge
//!   rings and tail sampling check [`TelemetryPlane::enabled`] first
//!   and return.
//! * **Enabled writes are lock-free on the hot path.** Histogram and
//!   gauge handles are resolved once — per-op/per-phase handles at
//!   plane construction, a tenant's handle on its first request, into
//!   the tenant's record — so the per-request path is plain atomics.
//!   The only locks are the plane's tenant map (taken once per
//!   tenant), the slow-query log (taken only for requests that already
//!   tripped tail sampling), and the workers' once-per-pop ring
//!   sampling.
//! * **Response bytes are untouched.** The plane observes `Response`
//!   values after they are built; it never feeds back into bodies.
//!
//! ## Tail sampling
//!
//! A request is *slow-sampled* when any of:
//!
//! 1. its wire status is a typed error (protocol/overload never get
//!    here; engine errors do),
//! 2. its status is OK but the governed outcome is not `COMPLETED`
//!    (exhausted/cancelled — e.g. an injected fault), or
//! 3. its admission-to-serialized latency exceeds the configured
//!    threshold.
//!
//! Sampled requests push a phase-annotated record into a bounded log
//! with evict-oldest semantics; `captured + dropped == triggered`
//! holds on every read, because all three live under the log's mutex.

use crate::wire::{Op, Response, OUTCOME_COMPLETED, STATUS_OK};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use summa_guard::obs::expo::{sanitize_name, Exposition};
use summa_guard::obs::export::json_escape;
use summa_guard::obs::metrics::{Gauge, Histogram, Registry, SeriesRing};

/// Number of wire opcodes ([`Op`] discriminants are `0..NUM_OPS`).
pub const NUM_OPS: usize = 9;

/// All ops in discriminant order, for fixed-size per-op tables.
const ALL_OPS: [Op; NUM_OPS] = [
    Op::Ping,
    Op::Subsumes,
    Op::Classify,
    Op::Realize,
    Op::Admit,
    Op::Critique,
    Op::LoadSnapshot,
    Op::Stats,
    Op::Telemetry,
];

/// The phases a served request decomposes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Admission to a worker popping it off the queue.
    QueueWait,
    /// The worker's pick-up: pop to execute start (the `serve.batch`
    /// gate).
    Pickup,
    /// [`crate::ops::execute`] under the request's private budget.
    Execute,
    /// Encoding + writing the response frame.
    Serialize,
}

/// Phases in pipeline order.
pub const PHASES: [Phase; 4] = [
    Phase::QueueWait,
    Phase::Pickup,
    Phase::Execute,
    Phase::Serialize,
];

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::QueueWait => "queue_wait",
            Phase::Pickup => "pickup",
            Phase::Execute => "execute",
            Phase::Serialize => "serialize",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::QueueWait => 0,
            Phase::Pickup => 1,
            Phase::Execute => 2,
            Phase::Serialize => 3,
        }
    }
}

/// Per-request phase durations, threaded from the worker through the
/// response slot to the connection handler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNs {
    pub queue_wait_ns: u64,
    pub pickup_ns: u64,
    pub execute_ns: u64,
    pub serialize_ns: u64,
}

impl PhaseNs {
    fn get(&self, p: Phase) -> u64 {
        match p {
            Phase::QueueWait => self.queue_wait_ns,
            Phase::Pickup => self.pickup_ns,
            Phase::Execute => self.execute_ns,
            Phase::Serialize => self.serialize_ns,
        }
    }
}

/// Telemetry knobs, embedded in [`crate::server::ServerConfig`].
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Master switch. When false every telemetry entry point is one
    /// relaxed atomic load.
    pub enabled: bool,
    /// Latency threshold (admission → response written) beyond which a
    /// request is tail-sampled into the slow-query log. `None` = only
    /// errors and non-completed outcomes trigger sampling.
    pub slow_threshold_ns: Option<u64>,
    /// Bounded slow-query log capacity (evict-oldest past it).
    pub slow_log_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            slow_threshold_ns: None,
            slow_log_capacity: 128,
        }
    }
}

/// Capacity of each gauge's time-series ring buffer.
const RING_CAPACITY: usize = 256;

/// Why a request entered the slow-query log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowTrigger {
    /// Typed error status (engine error).
    ErrorStatus,
    /// OK status but governed outcome ≠ completed (exhausted /
    /// cancelled — fault-injected requests land here).
    Interrupted,
    /// Latency exceeded [`TelemetryConfig::slow_threshold_ns`].
    OverThreshold,
}

impl SlowTrigger {
    pub fn name(self) -> &'static str {
        match self {
            SlowTrigger::ErrorStatus => "error_status",
            SlowTrigger::Interrupted => "interrupted",
            SlowTrigger::OverThreshold => "over_threshold",
        }
    }
}

/// One tail-sampled request: identity, phase decomposition, trigger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    pub trace_id: u64,
    pub tenant: String,
    pub op: Op,
    pub status: u8,
    pub trigger: SlowTrigger,
    /// Admission time, nanoseconds since plane construction — gives
    /// the Chrome dump a shared monotonic timeline.
    pub start_ns: u64,
    pub phases: PhaseNs,
    pub total_ns: u64,
}

/// Cached per-tenant instrument handles, resolved on the tenant's
/// first request. All writes through them are plain atomics.
pub struct TenantTelemetry {
    /// Total request latency per op (admission → response written).
    /// Histogram counts double as per-op request counters, which is
    /// what makes the books reconcile: one record per answered
    /// request, so Σ counts == `ServeStats.completed`.
    per_op: [Histogram; NUM_OPS],
}

impl Default for TenantTelemetry {
    fn default() -> Self {
        TenantTelemetry {
            per_op: std::array::from_fn(|_| Histogram::default()),
        }
    }
}

impl TenantTelemetry {
    fn op_histogram(&self, op: Op) -> &Histogram {
        &self.per_op[op as u8 as usize]
    }

    /// Total recorded requests across all ops.
    pub fn total_requests(&self) -> u64 {
        self.per_op.iter().map(|h| h.count()).sum()
    }
}

/// Hard cap on distinct tenant series; admissions past it aggregate
/// under [`OVERFLOW_TENANT`] so a tenant-id flood cannot balloon the
/// exposition (or server memory).
pub const TENANT_CAP: usize = 64;

/// Aggregation series for tenants past [`TENANT_CAP`].
pub const OVERFLOW_TENANT: &str = "_other";

/// The bounded slow-query log and its books, kept under one mutex so
/// `captured + dropped == triggered` holds on every read.
#[derive(Default)]
struct SlowLog {
    records: VecDeque<SlowQuery>,
    dropped: u64,
    triggered: u64,
}

impl SlowLog {
    /// `(captured, dropped, triggered)`.
    fn counts(&self) -> (u64, u64, u64) {
        (self.records.len() as u64, self.dropped, self.triggered)
    }
}

/// The long-lived telemetry plane, one per server.
pub struct TelemetryPlane {
    enabled: AtomicBool,
    cfg: TelemetryConfig,
    origin: Instant,
    /// The long-lived obs registry backing all named instruments,
    /// including every server count.
    registry: Registry,
    /// `[op][phase]` histogram handles, resolved at construction.
    phase_hist: Vec<[Arc<Histogram>; 4]>,
    /// Current-value gauges (queue depth, in-flight).
    queue_depth: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    /// Time series behind the gauges, sampled once per queue pop.
    queue_depth_ring: SeriesRing,
    in_flight_ring: SeriesRing,
    /// Tenant handles; the map is bounded by [`TENANT_CAP`] + the
    /// overflow entry.
    tenants: Mutex<BTreeMap<String, Arc<TenantTelemetry>>>,
    slow_log: Mutex<SlowLog>,
    scrapes: AtomicU64,
}

impl TelemetryPlane {
    pub fn new(cfg: TelemetryConfig) -> TelemetryPlane {
        let registry = Registry::new();
        let phase_hist: Vec<[Arc<Histogram>; 4]> = ALL_OPS
            .iter()
            .map(|op| {
                std::array::from_fn(|pi| {
                    registry.histogram(&format!("serve.phase.{}.{}", PHASES[pi].name(), op.name()))
                })
            })
            .collect();
        let queue_depth = registry.gauge("serve.queue_depth");
        let in_flight = registry.gauge("serve.in_flight");
        let mut tenants = BTreeMap::new();
        tenants.insert(
            OVERFLOW_TENANT.to_string(),
            Arc::new(TenantTelemetry::default()),
        );
        TelemetryPlane {
            enabled: AtomicBool::new(cfg.enabled),
            origin: Instant::now(),
            queue_depth,
            in_flight,
            queue_depth_ring: SeriesRing::new(RING_CAPACITY),
            in_flight_ring: SeriesRing::new(RING_CAPACITY),
            tenants: Mutex::new(tenants),
            slow_log: Mutex::new(SlowLog::default()),
            scrapes: AtomicU64::new(0),
            phase_hist,
            registry,
            cfg,
        }
    }

    /// The recording gate — one relaxed load, checked before any
    /// histogram, ring or slow-log write.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The backing instrument registry: the server's counts, gauges
    /// and phase histograms (exposed for tests and benches).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Nanoseconds since plane construction (the exposition/trace
    /// timeline origin).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Resolve (or create) the cached handle for `tenant`. The server
    /// calls it once per tenant, on the tenant's first request; past
    /// [`TENANT_CAP`] distinct tenants the overflow handle is returned
    /// instead of growing the map.
    pub fn tenant(&self, tenant: &str) -> Arc<TenantTelemetry> {
        let mut map = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = map.get(tenant) {
            return Arc::clone(t);
        }
        if map.len() > TENANT_CAP {
            return Arc::clone(&map[OVERFLOW_TENANT]);
        }
        let t = Arc::new(TenantTelemetry::default());
        map.insert(tenant.to_string(), Arc::clone(&t));
        t
    }

    /// Gauge mutators for the admission path. They move whether or
    /// not the plane is enabled: the drain waits on the in-flight
    /// gauge.
    pub fn queue_depth_set(&self, depth: i64) {
        self.queue_depth.set(depth);
    }

    pub fn in_flight_add(&self, delta: i64) {
        self.in_flight.add(delta);
    }

    /// Admitted requests whose response has not yet been written and
    /// recorded. Zero means every answered request is in the books.
    pub fn in_flight(&self) -> i64 {
        self.in_flight.get()
    }

    /// Once-per-pop sampling: set the queue-depth gauge to the depth
    /// a worker left behind and push both gauge values into their
    /// time-series rings.
    pub fn sample_queue(&self, queue_depth: usize) {
        if !self.enabled() {
            return;
        }
        let t_ns = self.now_ns();
        self.queue_depth.set(queue_depth as i64);
        self.queue_depth_ring.push(t_ns, queue_depth as i64);
        self.in_flight_ring.push(t_ns, self.in_flight.get());
    }

    /// Record one answered request: phase histograms (by op), total
    /// latency (by tenant × op), and the tail-sampling decision.
    ///
    /// Called exactly once per admitted request, after its response
    /// frame is written — which is what makes
    /// Σ tenant×op histogram counts == `ServeStats.completed` an exact
    /// reconciliation at drain.
    #[allow(clippy::too_many_arguments)]
    pub fn observe_request(
        &self,
        tenant_tel: &TenantTelemetry,
        tenant: &str,
        op: Op,
        resp: &Response,
        phases: PhaseNs,
        start_ns: u64,
        total_ns: u64,
    ) {
        if !self.enabled() {
            return;
        }
        let hists = &self.phase_hist[op as u8 as usize];
        for p in PHASES {
            hists[p.index()].record(phases.get(p));
        }
        tenant_tel.op_histogram(op).record(total_ns);

        let trigger = if resp.status != STATUS_OK {
            Some(SlowTrigger::ErrorStatus)
        } else if resp.body.first() != Some(&OUTCOME_COMPLETED) {
            Some(SlowTrigger::Interrupted)
        } else if self.cfg.slow_threshold_ns.is_some_and(|t| total_ns > t) {
            Some(SlowTrigger::OverThreshold)
        } else {
            None
        };
        if let Some(trigger) = trigger {
            self.push_slow(SlowQuery {
                trace_id: resp.trace_id,
                tenant: tenant.to_string(),
                op,
                status: resp.status,
                trigger,
                start_ns,
                phases,
                total_ns,
            });
        }
    }

    fn push_slow(&self, q: SlowQuery) {
        let mut log = self.slow_log.lock().unwrap_or_else(PoisonError::into_inner);
        log.triggered += 1;
        if log.records.len() >= self.cfg.slow_log_capacity.max(1) {
            log.records.pop_front();
            log.dropped += 1;
        }
        log.records.push_back(q);
    }

    /// Slow-query-log accounting: `(captured, dropped, triggered)`,
    /// read under one lock, so `captured + dropped == triggered`.
    pub fn slow_log_counts(&self) -> (u64, u64, u64) {
        self.slow_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counts()
    }

    /// Snapshot of the slow-query log, oldest first.
    pub fn slow_log(&self) -> Vec<SlowQuery> {
        self.slow_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .records
            .iter()
            .cloned()
            .collect()
    }

    /// Σ over tenant×op of recorded request counts — the left-hand
    /// side of the completed-requests reconciliation.
    pub fn recorded_requests(&self) -> u64 {
        self.tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|t| t.total_requests())
            .sum()
    }

    // -----------------------------------------------------------------
    // Renderers
    // -----------------------------------------------------------------

    /// Render the Prometheus-style text exposition: the plane's
    /// instruments and every server count, so one scrape carries the
    /// whole picture.
    pub fn prometheus_text(&self) -> String {
        self.scrapes.fetch_add(1, Ordering::Relaxed);
        let mut e = Exposition::new();
        e.gauge(
            "summa_serve_telemetry_enabled",
            "1 when the telemetry plane is recording.",
            &[],
            i64::from(self.enabled()),
        );
        e.counter(
            "summa_serve_telemetry_scrapes_total",
            "Telemetry scrapes answered (this one included).",
            &[],
            self.scrapes.load(Ordering::Relaxed),
        );

        // Instantaneous gauges + their ring accounting.
        for (name, help, gauge, ring) in [
            (
                "summa_serve_queue_depth",
                "Bounded request queue depth.",
                &self.queue_depth,
                &self.queue_depth_ring,
            ),
            (
                "summa_serve_in_flight",
                "Admitted requests not yet answered.",
                &self.in_flight,
                &self.in_flight_ring,
            ),
        ] {
            e.gauge(name, help, &[], gauge.get());
            e.gauge(
                &format!("{name}_ring_len"),
                "Samples currently in this gauge's time-series ring.",
                &[],
                ring.len() as i64,
            );
            e.counter(
                &format!("{name}_ring_dropped_total"),
                "Ring samples evicted to make room.",
                &[],
                ring.dropped(),
            );
        }

        // Per-op phase histograms (only ops that saw traffic).
        for p in PHASES {
            let name = format!("summa_serve_phase_{}_ns", p.name());
            let mut series: Vec<(Vec<(&str, &str)>, &Histogram)> = Vec::new();
            for op in ALL_OPS {
                let h = &self.phase_hist[op as u8 as usize][p.index()];
                if h.count() > 0 {
                    series.push((vec![("op", op.name())], h.as_ref()));
                }
            }
            if !series.is_empty() {
                e.histogram_series(
                    &name,
                    "Per-phase request latency, nanoseconds, by op.",
                    &series,
                );
            }
        }

        // Per-tenant × per-op latency as summaries (bucket tables per
        // tenant would bloat the frame; quantiles answer the
        // operator's question).
        // One summary row per tenant×op: (labels, quantiles, sum, count).
        type SummaryRow<'a> = (Vec<(&'a str, &'a str)>, Vec<(f64, u64)>, u64, u64);
        let tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        let mut sum_series: Vec<SummaryRow> = Vec::new();
        let mut cnt_series: Vec<(Vec<(&str, &str)>, u64)> = Vec::new();
        for (tenant, tel) in tenants.iter() {
            for op in ALL_OPS {
                let h = tel.op_histogram(op);
                let count = h.count();
                if count == 0 {
                    continue;
                }
                let labels = vec![("tenant", tenant.as_str()), ("op", op.name())];
                cnt_series.push((labels.clone(), count));
                sum_series.push((
                    labels,
                    vec![
                        (0.5, h.quantile_ns(0.5)),
                        (0.95, h.quantile_ns(0.95)),
                        (0.99, h.quantile_ns(0.99)),
                    ],
                    h.sum_ns(),
                    count,
                ));
            }
        }
        if !cnt_series.is_empty() {
            e.counter_series(
                "summa_serve_tenant_requests_total",
                "Answered requests by tenant and op (sums to completed).",
                &cnt_series,
            );
            e.summary_series(
                "summa_serve_tenant_request_ns",
                "Request latency by tenant and op, nanoseconds.",
                &sum_series,
            );
        }
        drop(tenants);

        // Tail sampling accounting: captured + dropped == triggered.
        let (captured, dropped, triggered) = self.slow_log_counts();
        e.gauge(
            "summa_serve_slow_log_captured",
            "Requests currently held in the slow-query log.",
            &[],
            captured as i64,
        );
        e.counter(
            "summa_serve_slow_log_dropped_total",
            "Slow-query records evicted (oldest-first) past capacity.",
            &[],
            dropped,
        );
        e.counter(
            "summa_serve_slow_log_triggered_total",
            "Requests that tripped tail sampling (captured + dropped).",
            &[],
            triggered,
        );

        // Every registry counter — the server's counts — under its
        // sanitized name.
        for (name, value) in self.registry.counters() {
            e.counter(
                &format!("summa_{}_total", sanitize_name(&name)),
                "Server count (ServeStats reads the same counter).",
                &[],
                value,
            );
        }
        e.finish()
    }

    /// Render the slow-query log as a Chrome `trace_event` document:
    /// one process, one lane per slow query, one `X` span per phase,
    /// plus `C` counter events replaying each gauge's time-series
    /// ring. Always emits at least the process-name metadata event so
    /// an empty log still validates.
    pub fn slow_log_chrome_json(&self) -> String {
        self.scrapes.fetch_add(1, Ordering::Relaxed);
        let mut events: Vec<String> = Vec::new();
        events.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"summa-serve slow-query log\"}}"
                .to_string(),
        );
        let us = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
        let (records, (captured, dropped, triggered)) = {
            let log = self.slow_log.lock().unwrap_or_else(PoisonError::into_inner);
            let records: Vec<SlowQuery> = log.records.iter().cloned().collect();
            (records, log.counts())
        };
        for (lane, q) in records.iter().enumerate() {
            let tid = lane as u64 + 1;
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"slow[{lane}] {} {}\"}}}}",
                json_escape(&q.tenant),
                q.op.name(),
            ));
            let mut t = q.start_ns;
            for p in PHASES {
                let dur = q.phases.get(p);
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"slow\",\"ph\":\"X\",\"pid\":1,\
                     \"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{\
                     \"tenant\":\"{}\",\"op\":\"{}\",\"trace_id\":{},\
                     \"status\":{},\"trigger\":\"{}\",\"total_ns\":{}}}}}",
                    p.name(),
                    us(t),
                    us(dur),
                    json_escape(&q.tenant),
                    q.op.name(),
                    q.trace_id,
                    q.status,
                    q.trigger.name(),
                    q.total_ns,
                ));
                t = t.saturating_add(dur);
            }
        }
        for (name, ring) in [
            ("queue_depth", &self.queue_depth_ring),
            ("in_flight", &self.in_flight_ring),
        ] {
            for s in ring.samples() {
                events.push(format!(
                    "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\
                     \"ts\":{},\"args\":{{\"value\":{}}}}}",
                    us(s.t_ns),
                    s.value,
                ));
            }
        }
        let mut out = String::new();
        out.push_str("{\"traceEvents\":[\n");
        out.push_str(&events.join(",\n"));
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"slow_captured\":{captured},\
             \"slow_dropped\":{dropped},\"slow_triggered\":{triggered}}}}}\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::STATUS_ENGINE_ERROR;
    use summa_guard::obs::expo::validate_exposition;
    use summa_guard::obs::export::validate_chrome_trace;

    fn plane(cfg: TelemetryConfig) -> TelemetryPlane {
        TelemetryPlane::new(cfg)
    }

    fn ok_resp(trace_id: u64) -> Response {
        Response {
            id: 1,
            status: STATUS_OK,
            elapsed_ns: 0,
            trace_id,
            epoch: 0,
            served: crate::wire::SERVED_PROVER,
            spend: summa_guard::Spend::default(),
            body: vec![OUTCOME_COMPLETED],
        }
    }

    #[test]
    fn disabled_plane_records_nothing() {
        let p = plane(TelemetryConfig {
            enabled: false,
            ..TelemetryConfig::default()
        });
        let t = p.tenant("t0");
        p.observe_request(&t, "t0", Op::Ping, &ok_resp(1), PhaseNs::default(), 0, 10);
        p.sample_queue(2);
        assert_eq!(p.recorded_requests(), 0);
        assert_eq!(p.slow_log_counts(), (0, 0, 0));
        assert!(p.queue_depth_ring.is_empty());
    }

    #[test]
    fn slow_log_evicts_oldest_in_order_and_counts_drops() {
        let p = plane(TelemetryConfig {
            slow_threshold_ns: Some(0), // everything over 0 ns is slow
            slow_log_capacity: 3,
            ..TelemetryConfig::default()
        });
        let t = p.tenant("t0");
        for i in 1..=5u64 {
            p.observe_request(
                &t,
                "t0",
                Op::Subsumes,
                &ok_resp(i),
                PhaseNs::default(),
                i * 100,
                50, // > threshold 0
            );
        }
        let (captured, dropped, triggered) = p.slow_log_counts();
        assert_eq!((captured, dropped, triggered), (3, 2, 5));
        // Oldest evicted first: survivors are 3, 4, 5 in arrival order.
        let ids: Vec<u64> = p.slow_log().iter().map(|q| q.trace_id).collect();
        assert_eq!(ids, vec![3, 4, 5]);
        assert!(p
            .slow_log()
            .iter()
            .all(|q| q.trigger == SlowTrigger::OverThreshold));
    }

    #[test]
    fn triggers_classify_status_outcome_and_threshold() {
        let p = plane(TelemetryConfig {
            slow_threshold_ns: Some(1_000),
            ..TelemetryConfig::default()
        });
        let t = p.tenant("t0");
        // Fast + completed: not sampled.
        p.observe_request(&t, "t0", Op::Ping, &ok_resp(1), PhaseNs::default(), 0, 10);
        // Engine error: sampled as ErrorStatus.
        let err = Response {
            status: STATUS_ENGINE_ERROR,
            ..ok_resp(2)
        };
        p.observe_request(&t, "t0", Op::Ping, &err, PhaseNs::default(), 0, 10);
        // OK but interrupted outcome (fault-injected shape): sampled.
        let exhausted = Response {
            body: vec![crate::wire::OUTCOME_EXHAUSTED],
            ..ok_resp(3)
        };
        p.observe_request(&t, "t0", Op::Ping, &exhausted, PhaseNs::default(), 0, 10);
        // Over threshold: sampled.
        p.observe_request(
            &t,
            "t0",
            Op::Ping,
            &ok_resp(4),
            PhaseNs::default(),
            0,
            5_000,
        );
        let triggers: Vec<SlowTrigger> = p.slow_log().iter().map(|q| q.trigger).collect();
        assert_eq!(
            triggers,
            vec![
                SlowTrigger::ErrorStatus,
                SlowTrigger::Interrupted,
                SlowTrigger::OverThreshold
            ]
        );
        assert_eq!(p.recorded_requests(), 4);
    }

    #[test]
    fn tenant_cardinality_is_capped_into_overflow() {
        let p = plane(TelemetryConfig::default());
        for i in 0..(TENANT_CAP + 10) {
            let name = format!("tenant-{i}");
            let t = p.tenant(&name);
            p.observe_request(&t, &name, Op::Ping, &ok_resp(1), PhaseNs::default(), 0, 10);
        }
        // Every request is recorded even past the cap…
        assert_eq!(p.recorded_requests(), (TENANT_CAP + 10) as u64);
        // …and the overflow series absorbed the excess.
        let overflow = p.tenant(OVERFLOW_TENANT);
        assert!(overflow.total_requests() > 0);
    }

    #[test]
    fn both_renderings_validate() {
        let p = plane(TelemetryConfig {
            slow_threshold_ns: Some(0),
            ..TelemetryConfig::default()
        });
        let t = p.tenant("acme");
        p.observe_request(
            &t,
            "acme",
            Op::Subsumes,
            &ok_resp(7),
            PhaseNs {
                queue_wait_ns: 100,
                pickup_ns: 50,
                execute_ns: 900,
                serialize_ns: 30,
            },
            10,
            1_080,
        );
        p.sample_queue(1);
        let text = p.prometheus_text();
        validate_exposition(&text).expect("exposition lints clean");
        assert!(
            text.contains("summa_serve_tenant_requests_total{tenant=\"acme\",op=\"subsumes\"} 1")
        );
        assert!(text.contains("summa_serve_phase_execute_ns_count{op=\"subsumes\"} 1"));
        let json = p.slow_log_chrome_json();
        let n = validate_chrome_trace(&json).expect("chrome trace validates");
        assert!(n >= PHASES.len());
    }

    #[test]
    fn slow_log_books_hold_under_concurrent_writers() {
        use std::sync::Barrier;
        const WRITERS: u64 = 3;
        const PER_WRITER: u64 = 20_000;
        let p = plane(TelemetryConfig {
            slow_threshold_ns: Some(0),
            slow_log_capacity: 8,
            ..TelemetryConfig::default()
        });
        // The Chrome dump's otherData carries the same three books, in
        // (captured, dropped, triggered) order.
        let rendered_books = |json: &str| -> Vec<u64> {
            json[json.find("\"otherData\"").expect("otherData")..]
                .split(|c: char| !c.is_ascii_digit())
                .filter(|n| !n.is_empty())
                .map(|n| n.parse().expect("count"))
                .collect()
        };
        let start = Barrier::new(WRITERS as usize + 1);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (p, start) = (&p, &start);
                    scope.spawn(move || {
                        let t = p.tenant("t0");
                        start.wait();
                        for i in 0..PER_WRITER {
                            let resp = ok_resp(w * PER_WRITER + i);
                            p.observe_request(&t, "t0", Op::Ping, &resp, PhaseNs::default(), 0, 1);
                        }
                    })
                })
                .collect();
            scope.spawn(|| {
                start.wait();
                let mut reads = 0;
                while !done.load(Ordering::Relaxed) || reads < 100 {
                    let (captured, dropped, triggered) = p.slow_log_counts();
                    assert_eq!(captured + dropped, triggered, "counts, read {reads}");
                    let books = rendered_books(&p.slow_log_chrome_json());
                    assert_eq!(books[0] + books[1], books[2], "render, read {reads}");
                    reads += 1;
                }
            });
            for w in writers {
                w.join().expect("writer");
            }
            done.store(true, Ordering::Relaxed);
        });
        let total = WRITERS * PER_WRITER;
        assert_eq!(p.slow_log_counts(), (8, total - 8, total));
    }

    #[test]
    fn empty_plane_renderings_still_validate() {
        let p = plane(TelemetryConfig::default());
        let text = p.prometheus_text();
        validate_exposition(&text).expect("empty exposition lints clean");
        let json = p.slow_log_chrome_json();
        validate_chrome_trace(&json).expect("empty slow log still validates");
    }
}
