//! Resource governance for the reasoning substrates.
//!
//! Every engine in this workspace — the ALC tableau, Knuth–Bendix
//! rewriting, subgraph-isomorphism search — is worst-case explosive or
//! outright non-terminating. A production critique pipeline cannot let
//! a pathological input hang or panic the whole admission matrix, so
//! every long-running entry point runs under an explicit [`Budget`]
//! and reports its outcome as a [`Governed<T>`]: either the complete
//! answer, or a truthful partial answer tagged with *why* the engine
//! stopped.
//!
//! The pieces:
//!
//! * [`Budget`] — an immutable resource envelope: step limit,
//!   wall-clock deadline, memory proxy limit, a cooperative
//!   [`CancelToken`], and an optional [`FaultInjector`] schedule for
//!   failure injection in tests.
//! * [`Meter`] — the mutable spend tracker an engine carries through
//!   its inner loop. `meter.charge(n)?` is the single cheap call sites
//!   make; it returns an [`Interrupt`] when the envelope is exceeded.
//! * [`Governed<T>`] — the three-way outcome
//!   (`Completed | Exhausted | Cancelled`), with the partial result
//!   preserved where one exists.
//! * [`Spend`] — how much of the envelope a computation actually used,
//!   surfaced per-cell in the admission matrix report.
//! * [`FaultInjector`] — the one fault-injection mechanism: a
//!   deterministic schedule over named sites. Every charge that adds
//!   steps arrives at the `meter.step` site, so `meter.step@N=trip`
//!   forces exhaustion at exactly step N.
//!
//! Every reasoning task has one implementation and one entry point:
//!
//! ```text
//! fn work_metered(…, meter: &mut Meter) -> Result<T, Interrupt>   // the implementation
//! pub fn work_governed(…, budget: &Budget) -> Governed<T>         // the entry point
//! ```
//!
//! The envelope is the only bound: an engine-specific cap is one of
//! its walls, not a second mechanism (the tableau's node cap is
//! [`Budget::with_memory`], one unit per spawned node). Composite
//! services (classification, realization, the critiques) share one
//! `Meter` across all their inner calls so the envelope bounds the
//! *whole* service, not each sub-call separately; a service that runs
//! on several threads calls the same metered core from worker meters
//! of one [`SharedBudget`] instead of keeping a second copy of its loop.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod fault;

pub use fault::{FaultInjector, FaultKind, FiredFault, STEP_SITE};

/// Structured tracing and metrics (re-exported `summa-obs`).
///
/// The [`Tracer`](obs::Tracer) rides inside [`Budget`] / [`Meter`] /
/// [`SharedBudget`], so every governed engine can emit spans
/// (`meter.span("dl.sat")`) and counters (`meter.count(…, 1)`) without
/// depending on `summa-obs` directly. Tracing is observation-only: no
/// tracer call can perturb metering, results, or control flow, and the
/// disabled hot path is a single atomic load.
pub use summa_obs as obs;

/// How often (in charged steps) the meter re-checks the wall clock and
/// the cancel flag. `Instant::now()` and the atomic load are cheap but
/// not free; engines charge in the innermost loop.
const CHECK_INTERVAL: u64 = 64;

// ---------------------------------------------------------------------
// CancelToken
// ---------------------------------------------------------------------

/// A cheap, cloneable cooperative cancellation flag.
///
/// Clone the token, hand one clone to the computation (inside a
/// [`Budget`]) and keep the other; calling [`cancel`](Self::cancel)
/// makes every in-flight governed computation holding the twin return
/// [`Governed::Cancelled`] at its next meter check.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Budget
// ---------------------------------------------------------------------

/// An immutable resource envelope for one governed computation.
///
/// Build by chaining: `Budget::new().with_steps(1_000).with_deadline(
/// Duration::from_millis(10))`. A default budget is unlimited.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    max_steps: Option<u64>,
    max_duration: Option<Duration>,
    max_memory: Option<u64>,
    cancel: Option<CancelToken>,
    /// Explicit fault schedule; `None` falls back to the process-global
    /// one (gated by `SUMMA_FAULT_PLAN`/`SUMMA_FAULT_SEED`).
    injector: Option<Arc<FaultInjector>>,
    /// Explicit tracer; `None` falls back to the process-global one
    /// (gated by `SUMMA_TRACE`).
    tracer: Option<obs::Tracer>,
}

impl Budget {
    /// An unlimited budget: the computation runs to completion (or
    /// until cancelled, if a token is attached later).
    pub fn new() -> Self {
        Self::default()
    }

    /// Alias for [`Budget::new`]; reads better at call sites that
    /// explicitly want no limits.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Limit the number of abstract steps (nodes created, rewrites
    /// applied, search states visited — each engine documents its
    /// step unit).
    pub fn with_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = Some(max_steps);
        self
    }

    /// Limit wall-clock time. The deadline starts when the [`Meter`]
    /// is created, i.e. when the governed call begins.
    pub fn with_deadline(mut self, max_duration: Duration) -> Self {
        self.max_duration = Some(max_duration);
        self
    }

    /// Limit the memory *proxy*: engines charge this counter with
    /// their dominant allocation unit (tableau nodes, union-find
    /// entries, …). It is not an allocator hook.
    pub fn with_memory(mut self, max_units: u64) -> Self {
        self.max_memory = Some(max_units);
        self
    }

    /// Attach a cooperative cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attach a deterministic site-tagged fault schedule (chaos tests
    /// only). Without one, meters fall back to the process-global
    /// injector parsed from `SUMMA_FAULT_PLAN`/`SUMMA_FAULT_SEED` —
    /// which is absent in production, making every
    /// [`fault_point`](Meter::fault_point) a no-op `Option` check.
    /// Step-triggered faults are specs on [`STEP_SITE`].
    pub fn with_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The fault schedule meters drawn from this budget consult: the
    /// explicit one if attached, else the process-global one (if any).
    pub fn injector(&self) -> Option<Arc<FaultInjector>> {
        self.injector
            .clone()
            .or_else(|| FaultInjector::global().cloned())
    }

    /// Attach an explicit [`Tracer`](obs::Tracer). Without one, every
    /// meter drawn from this budget records to the process-global
    /// tracer, which is enabled only when `SUMMA_TRACE` is set — so
    /// untraced runs pay one atomic load per instrumentation point.
    pub fn with_tracer(mut self, tracer: obs::Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The tracer meters drawn from this budget will record to: the
    /// explicit one if attached, else the process-global tracer.
    pub fn tracer(&self) -> obs::Tracer {
        self.tracer
            .clone()
            .unwrap_or_else(|| obs::Tracer::global().clone())
    }

    /// The configured step limit, if any.
    pub fn max_steps(&self) -> Option<u64> {
        self.max_steps
    }

    /// The configured deadline duration, if any.
    pub fn max_duration(&self) -> Option<Duration> {
        self.max_duration
    }

    /// Start metering against this budget.
    pub fn meter(&self) -> Meter {
        Meter::new(self)
    }

    /// Turn this budget into a **shared** envelope that several worker
    /// meters can drain concurrently. One pool of steps and memory
    /// units bounds the whole parallel computation, and the first
    /// interrupt any worker hits is published to all of them.
    pub fn share(&self) -> SharedBudget {
        SharedBudget::new(self)
    }
}

// ---------------------------------------------------------------------
// SharedBudget — one envelope, many workers
// ---------------------------------------------------------------------

/// Tripped-state encoding for the shared ledger (0 = running).
const TRIP_NONE: u8 = 0;
const TRIP_STEPS: u8 = 1;
const TRIP_DEADLINE: u8 = 2;
const TRIP_MEMORY: u8 = 3;
const TRIP_FAULT: u8 = 4;
const TRIP_CANCELLED: u8 = 5;
const TRIP_TASKFAILURE: u8 = 6;

fn encode_interrupt(i: Interrupt) -> u8 {
    match i {
        Interrupt::Exhausted(ExhaustionReason::Steps) => TRIP_STEPS,
        Interrupt::Exhausted(ExhaustionReason::Deadline) => TRIP_DEADLINE,
        Interrupt::Exhausted(ExhaustionReason::Memory) => TRIP_MEMORY,
        Interrupt::Exhausted(ExhaustionReason::FaultInjected) => TRIP_FAULT,
        Interrupt::Exhausted(ExhaustionReason::TaskFailure) => TRIP_TASKFAILURE,
        Interrupt::Cancelled => TRIP_CANCELLED,
    }
}

fn decode_interrupt(code: u8) -> Option<Interrupt> {
    match code {
        TRIP_STEPS => Some(Interrupt::Exhausted(ExhaustionReason::Steps)),
        TRIP_DEADLINE => Some(Interrupt::Exhausted(ExhaustionReason::Deadline)),
        TRIP_MEMORY => Some(Interrupt::Exhausted(ExhaustionReason::Memory)),
        TRIP_FAULT => Some(Interrupt::Exhausted(ExhaustionReason::FaultInjected)),
        TRIP_TASKFAILURE => Some(Interrupt::Exhausted(ExhaustionReason::TaskFailure)),
        TRIP_CANCELLED => Some(Interrupt::Cancelled),
        _ => None,
    }
}

/// The concurrent spend pool behind a [`SharedBudget`]: all worker
/// meters charge the same atomic counters, so the envelope bounds the
/// parallel computation as a whole, exactly as a sequential [`Meter`]
/// bounds a sequential one.
#[derive(Debug)]
pub(crate) struct SharedLedger {
    max_steps: Option<u64>,
    steps: AtomicU64,
    max_memory: Option<u64>,
    memory: AtomicU64,
    peak_memory: AtomicU64,
    /// First interrupt any worker hit; sticky once set.
    tripped: AtomicU8,
}

impl SharedLedger {
    /// Record an interrupt (first writer wins) and return the
    /// prevailing one.
    fn trip(&self, i: Interrupt) -> Interrupt {
        let _ = self.tripped.compare_exchange(
            TRIP_NONE,
            encode_interrupt(i),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        decode_interrupt(self.tripped.load(Ordering::Acquire)).unwrap_or(i)
    }

    fn interrupted(&self) -> Option<Interrupt> {
        decode_interrupt(self.tripped.load(Ordering::Acquire))
    }

    /// Add `n` steps to the pool; `Err` when the pool is exhausted or
    /// a sibling worker already tripped.
    fn charge(&self, n: u64) -> Result<(), Interrupt> {
        if let Some(i) = self.interrupted() {
            return Err(i);
        }
        let total = self.steps.fetch_add(n, Ordering::Relaxed).saturating_add(n);
        if let Some(max) = self.max_steps {
            if total > max {
                return Err(self.trip(Interrupt::Exhausted(ExhaustionReason::Steps)));
            }
        }
        Ok(())
    }

    fn charge_memory(&self, n: u64) -> Result<(), Interrupt> {
        if let Some(i) = self.interrupted() {
            return Err(i);
        }
        let total = self
            .memory
            .fetch_add(n, Ordering::Relaxed)
            .saturating_add(n);
        self.peak_memory.fetch_max(total, Ordering::Relaxed);
        if let Some(max) = self.max_memory {
            if total > max {
                return Err(self.trip(Interrupt::Exhausted(ExhaustionReason::Memory)));
            }
        }
        Ok(())
    }

    fn release_memory(&self, n: u64) {
        // Saturating subtract via CAS loop would be overkill: releases
        // never exceed charges in well-behaved engines, and transient
        // under-run only loosens the (proxy) limit.
        self.memory.fetch_sub(n, Ordering::Relaxed);
    }

    /// Give back `n` steps to the pool — the supervisor's rollback of a
    /// panicked attempt's charges. Refunds never un-trip the ledger.
    fn refund(&self, n: u64) {
        self.steps.fetch_sub(n, Ordering::Relaxed);
    }
}

/// A [`Budget`] prepared for concurrent draining: hand each worker a
/// meter from [`worker_meter`](Self::worker_meter) and they will share
/// one pool of steps and memory units, one deadline (measured from
/// [`Budget::share`]), one cancel token, and one fault schedule. The first
/// interrupt any worker hits is published through the ledger, so every
/// sibling stops at its next charge — cooperative cancellation across
/// threads with no extra plumbing at call sites.
#[derive(Debug, Clone)]
pub struct SharedBudget {
    ledger: Arc<SharedLedger>,
    deadline: Option<Instant>,
    started: Instant,
    cancel: Option<CancelToken>,
    injector: Option<Arc<FaultInjector>>,
    tracer: obs::Tracer,
}

impl SharedBudget {
    fn new(budget: &Budget) -> Self {
        let started = Instant::now();
        SharedBudget {
            ledger: Arc::new(SharedLedger {
                max_steps: budget.max_steps,
                steps: AtomicU64::new(0),
                max_memory: budget.max_memory,
                memory: AtomicU64::new(0),
                peak_memory: AtomicU64::new(0),
                tripped: AtomicU8::new(TRIP_NONE),
            }),
            deadline: budget.max_duration.map(|d| started + d),
            started,
            cancel: budget.cancel.clone(),
            injector: budget.injector(),
            tracer: budget.tracer(),
        }
    }

    /// The tracer all worker meters of this envelope record to.
    pub fn tracer(&self) -> &obs::Tracer {
        &self.tracer
    }

    /// The fault schedule all worker meters of this envelope consult.
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// A meter for one worker. Step and memory charges drain the
    /// shared pool; deadline and cancellation are checked against the
    /// shared clock and token at the usual check interval.
    pub fn worker_meter(&self) -> Meter {
        Meter {
            max_steps: None, // limits live in the ledger
            deadline: self.deadline,
            max_memory: None,
            cancel: self.cancel.clone(),
            step_faults: schedules_steps(&self.injector),
            injector: self.injector.clone(),
            started: self.started,
            steps: 0,
            memory: 0,
            peak_memory: 0,
            next_check: 0,
            tripped: None,
            cache_hits: 0,
            cache_misses: 0,
            shared: Some(Arc::clone(&self.ledger)),
            tracer: self.tracer.clone(),
        }
    }

    /// The first interrupt any worker hit, if one did.
    pub fn interrupted(&self) -> Option<Interrupt> {
        self.ledger.interrupted()
    }

    /// Publish an interrupt to every worker (e.g. when the
    /// orchestrating thread decides to stop the fleet).
    pub fn trip(&self, i: Interrupt) {
        self.ledger.trip(i);
    }

    /// Snapshot the pooled spend across all workers. Per-worker cache
    /// counters are not pooled here — aggregate worker
    /// [`Meter::spend`]s for those.
    pub fn spend(&self) -> Spend {
        Spend {
            steps: self.ledger.steps.load(Ordering::Relaxed),
            elapsed: self.started.elapsed(),
            peak_memory: self.ledger.peak_memory.load(Ordering::Relaxed),
            ..Default::default()
        }
    }
}

// ---------------------------------------------------------------------
// Interrupt & reasons
// ---------------------------------------------------------------------

/// Which envelope wall the computation hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustionReason {
    /// The step limit was spent.
    Steps,
    /// The wall-clock deadline passed.
    Deadline,
    /// The memory-proxy limit was spent.
    Memory,
    /// A [`FaultInjector`] spec of kind [`FaultKind::Trip`] fired — at
    /// a named site, or at [`STEP_SITE`] on a step charge.
    FaultInjected,
    /// One or more cells failed permanently (panicked past their retry
    /// budget and were quarantined), so the result has holes even
    /// though no resource wall was hit.
    TaskFailure,
}

impl fmt::Display for ExhaustionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExhaustionReason::Steps => write!(f, "step budget exhausted"),
            ExhaustionReason::Deadline => write!(f, "deadline exceeded"),
            ExhaustionReason::Memory => write!(f, "memory budget exhausted"),
            ExhaustionReason::FaultInjected => write!(f, "injected fault"),
            ExhaustionReason::TaskFailure => write!(f, "task(s) quarantined after repeated panics"),
        }
    }
}

/// Why a metered computation stopped early. Internal `*_metered`
/// functions return `Result<T, Interrupt>`; the public wrapper turns
/// this into a [`Governed<T>`] carrying whatever partial result the
/// engine could salvage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// A resource limit was hit.
    Exhausted(ExhaustionReason),
    /// The [`CancelToken`] fired.
    Cancelled,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Exhausted(r) => write!(f, "{r}"),
            Interrupt::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for Interrupt {}

// ---------------------------------------------------------------------
// Spend
// ---------------------------------------------------------------------

/// How much of the envelope a computation actually used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Spend {
    /// Abstract steps charged.
    pub steps: u64,
    /// Wall-clock time from meter creation to the last observation.
    pub elapsed: Duration,
    /// Peak memory-proxy units charged.
    pub peak_memory: u64,
    /// Shared-cache hits observed (e.g. the concurrent subsumption
    /// cache); 0 when the computation consulted no shared cache.
    pub cache_hits: u64,
    /// Shared-cache misses observed.
    pub cache_misses: u64,
    /// Supervised retries: panicking tasks that were re-executed. A
    /// retried attempt's charges are rolled back, so retries never
    /// inflate `steps`.
    pub retries: u64,
    /// Tasks quarantined after exhausting their retry budget — holes
    /// in the result that the caller must treat as undecided.
    pub quarantined: u64,
}

impl Spend {
    /// Fold another spend into this one (steps/cache counts add,
    /// elapsed adds, peak memory takes the max) — for aggregating
    /// per-worker spends into a service total.
    pub fn absorb(&mut self, other: &Spend) {
        self.steps = self.steps.saturating_add(other.steps);
        self.elapsed += other.elapsed;
        self.peak_memory = self.peak_memory.max(other.peak_memory);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
        self.cache_misses = self.cache_misses.saturating_add(other.cache_misses);
        self.retries = self.retries.saturating_add(other.retries);
        self.quarantined = self.quarantined.saturating_add(other.quarantined);
    }
}

impl fmt::Display for Spend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} steps in {:.1}ms",
            self.steps,
            self.elapsed.as_secs_f64() * 1e3
        )?;
        if self.peak_memory > 0 {
            write!(f, ", {} mem units", self.peak_memory)?;
        }
        if self.cache_hits > 0 || self.cache_misses > 0 {
            write!(
                f,
                ", cache {}/{} hit",
                self.cache_hits,
                self.cache_hits + self.cache_misses
            )?;
        }
        if self.retries > 0 {
            write!(f, ", {} retried", self.retries)?;
        }
        if self.quarantined > 0 {
            write!(f, ", {} quarantined", self.quarantined)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Meter
// ---------------------------------------------------------------------

/// The mutable spend tracker an engine threads through its inner loop.
///
/// `charge(n)` is the one call sites make; it is O(1) and only touches
/// the clock / cancel flag every [`CHECK_INTERVAL`] steps. Once a
/// meter has interrupted it stays interrupted: subsequent charges
/// return the same [`Interrupt`], so engines can unwind lazily.
#[derive(Debug, Clone)]
pub struct Meter {
    max_steps: Option<u64>,
    deadline: Option<Instant>,
    max_memory: Option<u64>,
    cancel: Option<CancelToken>,
    /// Whether `injector` schedules [`STEP_SITE`]; resolved when the
    /// meter is built, so `charge` pays one branch when it does not.
    step_faults: bool,
    injector: Option<Arc<FaultInjector>>,
    started: Instant,
    steps: u64,
    memory: u64,
    peak_memory: u64,
    next_check: u64,
    tripped: Option<Interrupt>,
    cache_hits: u64,
    cache_misses: u64,
    /// Present on worker meters from [`SharedBudget::worker_meter`]:
    /// step/memory charges drain the shared pool instead of the local
    /// limits, and interrupts propagate through it.
    shared: Option<Arc<SharedLedger>>,
    /// Where spans and metric updates from this meter land. Disabled
    /// tracers make every recording call a single atomic load.
    tracer: obs::Tracer,
}

/// Does `injector` schedule faults on step charges?
fn schedules_steps(injector: &Option<Arc<FaultInjector>>) -> bool {
    injector.as_ref().is_some_and(|i| i.schedules(STEP_SITE))
}

impl Meter {
    fn new(budget: &Budget) -> Self {
        let started = Instant::now();
        let injector = budget.injector();
        Meter {
            max_steps: budget.max_steps,
            deadline: budget.max_duration.map(|d| started + d),
            max_memory: budget.max_memory,
            cancel: budget.cancel.clone(),
            step_faults: schedules_steps(&injector),
            injector,
            started,
            steps: 0,
            memory: 0,
            peak_memory: 0,
            next_check: 0,
            tripped: None,
            cache_hits: 0,
            cache_misses: 0,
            shared: None,
            tracer: budget.tracer(),
        }
    }

    /// A meter with no limits — for legacy call paths that predate
    /// governance.
    pub fn unlimited() -> Self {
        Meter::new(&Budget::unlimited())
    }

    /// Charge `n` abstract steps. Returns the interrupt once any
    /// envelope wall is hit; the same interrupt is returned for every
    /// later charge. A charge with `n > 0` arrives once at the
    /// [`STEP_SITE`] fault site when the injector schedules it.
    #[inline]
    pub fn charge(&mut self, n: u64) -> Result<(), Interrupt> {
        if let Some(i) = self.tripped {
            return Err(i);
        }
        self.steps = self.steps.saturating_add(n);
        if let Some(ledger) = &self.shared {
            if let Err(i) = ledger.charge(n) {
                return self.trip(i);
            }
        } else if let Some(max) = self.max_steps {
            if self.steps > max {
                return self.trip(Interrupt::Exhausted(ExhaustionReason::Steps));
            }
        }
        if self.step_faults && n > 0 {
            self.fault_point(STEP_SITE)?;
        }
        if self.steps >= self.next_check {
            self.next_check = self.steps + CHECK_INTERVAL;
            if let Some(tok) = &self.cancel {
                if tok.is_cancelled() {
                    return self.trip(Interrupt::Cancelled);
                }
            }
            if let Some(deadline) = self.deadline {
                if Instant::now() > deadline {
                    return self.trip(Interrupt::Exhausted(ExhaustionReason::Deadline));
                }
            }
        }
        Ok(())
    }

    /// Charge `n` memory-proxy units (engine-defined allocation unit).
    #[inline]
    pub fn charge_memory(&mut self, n: u64) -> Result<(), Interrupt> {
        if let Some(i) = self.tripped {
            return Err(i);
        }
        self.memory = self.memory.saturating_add(n);
        self.peak_memory = self.peak_memory.max(self.memory);
        if let Some(ledger) = &self.shared {
            if let Err(i) = ledger.charge_memory(n) {
                return self.trip(i);
            }
        } else if let Some(max) = self.max_memory {
            if self.memory > max {
                return self.trip(Interrupt::Exhausted(ExhaustionReason::Memory));
            }
        }
        Ok(())
    }

    /// Release `n` memory-proxy units (peak is retained in [`Spend`]).
    #[inline]
    pub fn release_memory(&mut self, n: u64) {
        self.memory = self.memory.saturating_sub(n);
        if let Some(ledger) = &self.shared {
            ledger.release_memory(n);
        }
    }

    /// Force an immediate deadline/cancellation check regardless of
    /// the check interval — for coarse loops that charge rarely.
    pub fn checkpoint(&mut self) -> Result<(), Interrupt> {
        self.next_check = 0;
        self.charge(0)
    }

    /// A named fault-injection site. No-op (a single `Option` check)
    /// unless a [`FaultInjector`] schedule is attached to the budget or
    /// the process. When this arrival is scheduled to fault:
    ///
    /// * [`FaultKind::Panic`] unwinds with the tagged injected-panic
    ///   message (the executor's supervisor catches and retries);
    /// * [`FaultKind::Cancel`] trips the meter as
    ///   [`Interrupt::Cancelled`];
    /// * [`FaultKind::Trip`] trips it as
    ///   [`ExhaustionReason::FaultInjected`];
    /// * [`FaultKind::Poison`] is reported back (`Ok(Some(Poison))`) —
    ///   poisoning is consumed by storage sites, which corrupt the
    ///   entry being written so integrity checks can catch it.
    #[inline]
    pub fn fault_point(&mut self, site: &'static str) -> Result<Option<FaultKind>, Interrupt> {
        let Some(injector) = &self.injector else {
            return Ok(None);
        };
        match injector.arrive(site) {
            None => Ok(None),
            Some(FaultKind::Poison) => Ok(Some(FaultKind::Poison)),
            Some(FaultKind::Panic) => fault::injected_panic(site),
            Some(FaultKind::Cancel) => self.trip(Interrupt::Cancelled).map(|_| None),
            Some(FaultKind::Trip) => self
                .trip(Interrupt::Exhausted(ExhaustionReason::FaultInjected))
                .map(|_| None),
        }
    }

    /// The fault schedule this meter consults, if any.
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Snapshot the meter's charge counters at the start of a
    /// supervised attempt, so a panicking attempt can be rolled back
    /// with [`rollback_to`](Self::rollback_to) and the eventual
    /// successful attempt charges exactly once.
    pub fn mark(&self) -> AttemptMark {
        AttemptMark {
            steps: self.steps,
            memory: self.memory,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
        }
    }

    /// Roll the meter's charges back to `mark`, refunding the shared
    /// ledger for the steps and memory the failed attempt drained.
    /// Peak memory is a high-water mark and is deliberately retained;
    /// a trip that already happened is never undone (the envelope was
    /// genuinely exceeded, even if by wasted work).
    pub fn rollback_to(&mut self, mark: &AttemptMark) {
        let steps_delta = self.steps.saturating_sub(mark.steps);
        let memory_delta = self.memory.saturating_sub(mark.memory);
        self.steps = mark.steps;
        self.memory = mark.memory;
        self.cache_hits = mark.cache_hits;
        self.cache_misses = mark.cache_misses;
        // Re-arm the interval check so the next charge re-examines the
        // clock and cancel flag promptly after the disruption.
        self.next_check = 0;
        if let Some(ledger) = &self.shared {
            ledger.refund(steps_delta);
            ledger.release_memory(memory_delta);
        }
    }

    fn trip(&mut self, i: Interrupt) -> Result<(), Interrupt> {
        // Publish to siblings first; an earlier trip by another worker
        // wins, so every meter in the pool reports the same interrupt.
        let i = match &self.shared {
            Some(ledger) => ledger.trip(i),
            None => i,
        };
        self.tripped = Some(i);
        Err(i)
    }

    /// Record a subsumption-cache hit (surfaced in [`Spend`] and, when
    /// tracing, the `guard.cache.hit` counter).
    #[inline]
    pub fn note_cache_hit(&mut self) {
        self.cache_hits = self.cache_hits.saturating_add(1);
        self.tracer.add("guard.cache.hit", 1);
    }

    /// Record a subsumption-cache miss (surfaced in [`Spend`] and,
    /// when tracing, the `guard.cache.miss` counter).
    #[inline]
    pub fn note_cache_miss(&mut self) {
        self.cache_misses = self.cache_misses.saturating_add(1);
        self.tracer.add("guard.cache.miss", 1);
    }

    /// The tracer this meter records to.
    pub fn tracer(&self) -> &obs::Tracer {
        &self.tracer
    }

    /// Open an observability span (no-op unless tracing is enabled).
    /// The returned guard is independent of the meter's borrow, so
    /// engines can hold it across further `&mut meter` calls.
    #[inline]
    pub fn span(&self, name: &'static str) -> obs::Span {
        self.tracer.span(name)
    }

    /// Bump an observability counter (no-op unless tracing is
    /// enabled). Purely observational: never touches the ledger.
    #[inline]
    pub fn count(&self, name: &'static str, n: u64) {
        self.tracer.add(name, n);
    }

    /// Steps charged so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Has this meter already interrupted?
    pub fn interrupted(&self) -> Option<Interrupt> {
        self.tripped
    }

    /// Snapshot the spend so far.
    pub fn spend(&self) -> Spend {
        Spend {
            steps: self.steps,
            elapsed: self.started.elapsed(),
            peak_memory: self.peak_memory,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            ..Default::default()
        }
    }
}

/// A snapshot of a [`Meter`]'s charge counters taken by
/// [`Meter::mark`] at the start of a supervised attempt; consumed by
/// [`Meter::rollback_to`] when the attempt panics, so retried work is
/// never double-charged.
#[derive(Debug, Clone, Copy)]
pub struct AttemptMark {
    steps: u64,
    memory: u64,
    cache_hits: u64,
    cache_misses: u64,
}

// ---------------------------------------------------------------------
// Governed
// ---------------------------------------------------------------------

/// The outcome of a budgeted computation.
///
/// `Exhausted` and `Cancelled` carry whatever partial result the
/// engine could truthfully report (e.g. the subsumptions proved so
/// far, the term as far as it was normalized); `None` means no
/// meaningful partial state existed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Governed<T> {
    /// The computation ran to completion.
    Completed(T),
    /// A resource limit was hit; `partial` is a truthful prefix of
    /// the answer where the engine has one.
    Exhausted {
        /// Which wall was hit.
        reason: ExhaustionReason,
        /// Partial result, if the engine could salvage one.
        partial: Option<T>,
    },
    /// The [`CancelToken`] fired.
    Cancelled {
        /// Partial result, if the engine could salvage one.
        partial: Option<T>,
    },
}

impl<T> Governed<T> {
    /// Build the non-completed outcome matching `interrupt`.
    pub fn from_interrupt(interrupt: Interrupt, partial: Option<T>) -> Self {
        match interrupt {
            Interrupt::Exhausted(reason) => Governed::Exhausted { reason, partial },
            Interrupt::Cancelled => Governed::Cancelled { partial },
        }
    }

    /// Did the computation complete?
    pub fn is_completed(&self) -> bool {
        matches!(self, Governed::Completed(_))
    }

    /// The complete result, if there is one.
    pub fn completed(self) -> Option<T> {
        match self {
            Governed::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// The best available result: complete or partial.
    pub fn into_partial(self) -> Option<T> {
        match self {
            Governed::Completed(v) => Some(v),
            Governed::Exhausted { partial, .. } | Governed::Cancelled { partial } => partial,
        }
    }

    /// Borrow the best available result: complete or partial.
    pub fn as_partial(&self) -> Option<&T> {
        match self {
            Governed::Completed(v) => Some(v),
            Governed::Exhausted { partial, .. } | Governed::Cancelled { partial } => {
                partial.as_ref()
            }
        }
    }

    /// Map the carried value (complete and partial alike).
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Governed<U> {
        match self {
            Governed::Completed(v) => Governed::Completed(f(v)),
            Governed::Exhausted { reason, partial } => Governed::Exhausted {
                reason,
                partial: partial.map(f),
            },
            Governed::Cancelled { partial } => Governed::Cancelled {
                partial: partial.map(f),
            },
        }
    }

    /// The complete result, panicking otherwise — for tests and for
    /// call sites that passed an unlimited budget.
    #[track_caller]
    pub fn expect_completed(self, msg: &str) -> T {
        match self {
            Governed::Completed(v) => v,
            Governed::Exhausted { reason, .. } => {
                panic!("{msg}: exhausted ({reason})")
            }
            Governed::Cancelled { .. } => panic!("{msg}: cancelled"),
        }
    }

    /// A one-word label for reports: `completed`, `exhausted`, or
    /// `cancelled`.
    pub fn status(&self) -> &'static str {
        match self {
            Governed::Completed(_) => "completed",
            Governed::Exhausted { .. } => "exhausted",
            Governed::Cancelled { .. } => "cancelled",
        }
    }
}

/// Convenience prelude: `use summa_guard::prelude::*;`.
pub mod prelude {
    pub use crate::obs::Tracer;
    pub use crate::{
        Budget, CancelToken, ExhaustionReason, FaultInjector, FaultKind, Governed, Interrupt,
        Meter, SharedBudget, Spend,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_budget_pools_steps_across_meters() {
        let shared = Budget::new().with_steps(100).share();
        let mut a = shared.worker_meter();
        let mut b = shared.worker_meter();
        for _ in 0..50 {
            a.charge(1).expect("pool has room");
        }
        for _ in 0..50 {
            b.charge(1).expect("pool has room");
        }
        // The pool of 100 is drained even though each worker only
        // charged 50 locally.
        assert_eq!(
            b.charge(1),
            Err(Interrupt::Exhausted(ExhaustionReason::Steps))
        );
        assert_eq!(
            shared.interrupted(),
            Some(Interrupt::Exhausted(ExhaustionReason::Steps))
        );
        assert_eq!(shared.spend().steps, 101);
    }

    #[test]
    fn shared_trip_propagates_to_sibling_meters() {
        let shared = Budget::new().with_steps(10).share();
        let mut a = shared.worker_meter();
        let mut b = shared.worker_meter();
        b.charge(1).expect("fresh");
        assert!(a.charge(100).is_err());
        // Sibling b finds out at its next charge, even charge(0).
        assert_eq!(
            b.charge(0),
            Err(Interrupt::Exhausted(ExhaustionReason::Steps))
        );
    }

    #[test]
    fn shared_budget_pools_memory() {
        let shared = Budget::new().with_memory(100).share();
        let mut a = shared.worker_meter();
        let mut b = shared.worker_meter();
        a.charge_memory(60).expect("fits");
        assert_eq!(
            b.charge_memory(60),
            Err(Interrupt::Exhausted(ExhaustionReason::Memory))
        );
        assert!(shared.spend().peak_memory >= 100);
    }

    /// A budget whose injector runs `plan` (injector syntax) with `seed`.
    fn step_plan(plan: &str, seed: u64) -> (Budget, Arc<FaultInjector>) {
        let injector = Arc::new(FaultInjector::parse_plan(plan, seed).expect("valid plan"));
        (Budget::new().with_injector(Arc::clone(&injector)), injector)
    }

    #[test]
    fn step_fault_fires_in_exactly_one_sharing_meter() {
        let (budget, injector) = step_plan("meter.step@5=trip", 0);
        let shared = budget.share();
        let mut a = shared.worker_meter();
        let mut b = shared.worker_meter();
        // Pooled arrivals reach 5 on b's third charge: the fault fires
        // once, in b only.
        a.charge(1).expect("arrival 1");
        a.charge(1).expect("arrival 2");
        b.charge(1).expect("arrival 3");
        b.charge(1).expect("arrival 4");
        assert_eq!(
            b.charge(1),
            Err(Interrupt::Exhausted(ExhaustionReason::FaultInjected))
        );
        assert_eq!(injector.n_fired(), 1);
        // A meter from a second budget on the same injector never
        // fires again: the arrival counter is shared.
        let mut c = budget.meter();
        for _ in 0..100 {
            c.charge(1).expect("one-shot fault is spent");
        }
        assert_eq!(injector.n_fired(), 1);
    }

    #[test]
    fn cache_counters_flow_into_spend() {
        let budget = Budget::unlimited();
        let mut meter = budget.meter();
        meter.note_cache_hit();
        meter.note_cache_hit();
        meter.note_cache_miss();
        let spend = meter.spend();
        assert_eq!(spend.cache_hits, 2);
        assert_eq!(spend.cache_misses, 1);
        let mut total = Spend::default();
        total.absorb(&spend);
        total.absorb(&spend);
        assert_eq!(total.cache_hits, 4);
        let shown = format!("{spend}");
        assert!(shown.contains("cache"), "display shows cache: {shown}");
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let budget = Budget::unlimited();
        let mut meter = budget.meter();
        for _ in 0..100_000 {
            meter.charge(1).expect("unlimited");
        }
        assert_eq!(meter.steps(), 100_000);
    }

    #[test]
    fn step_budget_trips_at_limit() {
        let budget = Budget::new().with_steps(10);
        let mut meter = budget.meter();
        for _ in 0..10 {
            meter.charge(1).expect("within budget");
        }
        assert_eq!(
            meter.charge(1),
            Err(Interrupt::Exhausted(ExhaustionReason::Steps))
        );
        // Sticky: later charges keep failing the same way.
        assert_eq!(
            meter.charge(1),
            Err(Interrupt::Exhausted(ExhaustionReason::Steps))
        );
    }

    #[test]
    fn deadline_trips() {
        let budget = Budget::new().with_deadline(Duration::from_millis(1));
        let mut meter = budget.meter();
        std::thread::sleep(Duration::from_millis(5));
        let mut outcome = Ok(());
        for _ in 0..(CHECK_INTERVAL + 1) {
            outcome = meter.charge(1);
            if outcome.is_err() {
                break;
            }
        }
        assert_eq!(
            outcome,
            Err(Interrupt::Exhausted(ExhaustionReason::Deadline))
        );
    }

    #[test]
    fn memory_budget_trips_and_peak_is_tracked() {
        let budget = Budget::new().with_memory(100);
        let mut meter = budget.meter();
        meter.charge_memory(80).expect("fits");
        meter.release_memory(50);
        meter.charge_memory(60).expect("fits after release");
        assert_eq!(
            meter.charge_memory(50),
            Err(Interrupt::Exhausted(ExhaustionReason::Memory))
        );
        assert!(meter.spend().peak_memory >= 90);
    }

    #[test]
    fn cancel_token_trips() {
        let token = CancelToken::new();
        let budget = Budget::new().with_cancel(token.clone());
        let mut meter = budget.meter();
        meter.charge(1).expect("not yet cancelled");
        token.cancel();
        let mut outcome = Ok(());
        for _ in 0..(CHECK_INTERVAL + 1) {
            outcome = meter.charge(1);
            if outcome.is_err() {
                break;
            }
        }
        assert_eq!(outcome, Err(Interrupt::Cancelled));
    }

    #[test]
    fn fault_at_step_is_exact() {
        let (budget, _) = step_plan("meter.step@5=trip", 0);
        let mut meter = budget.meter();
        for _ in 0..4 {
            meter.charge(1).expect("before fault point");
            // Zero-step checks are not step arrivals.
            meter.checkpoint().expect("no arrival");
        }
        assert_eq!(
            meter.charge(1),
            Err(Interrupt::Exhausted(ExhaustionReason::FaultInjected))
        );
        assert_eq!(meter.steps(), 5);
    }

    #[test]
    fn probabilistic_fault_is_deterministic() {
        let run = |seed| {
            let (budget, _) = step_plan("meter.step@p0.05=trip", seed);
            let mut meter = budget.meter();
            let mut at = None;
            for i in 0..10_000u64 {
                if meter.charge(1).is_err() {
                    at = Some(i);
                    break;
                }
            }
            at
        };
        assert_eq!(run(7), run(7));
        assert!(run(7).is_some(), "p=0.05 over 10k steps fires w.h.p.");
    }

    #[test]
    fn governed_helpers() {
        let g: Governed<u32> = Governed::Completed(3);
        assert!(g.is_completed());
        assert_eq!(g.clone().completed(), Some(3));
        assert_eq!(g.map(|x| x + 1), Governed::Completed(4));

        let e = Governed::from_interrupt(
            Interrupt::Exhausted(ExhaustionReason::Steps),
            Some(vec![1, 2]),
        );
        assert_eq!(e.status(), "exhausted");
        assert_eq!(e.into_partial(), Some(vec![1, 2]));

        let c: Governed<u32> = Governed::from_interrupt(Interrupt::Cancelled, None);
        assert_eq!(c.status(), "cancelled");
        assert_eq!(c.as_partial(), None);
    }

    #[test]
    fn absorb_saturates_step_addition() {
        let mut total = Spend {
            steps: u64::MAX - 5,
            ..Default::default()
        };
        total.absorb(&Spend {
            steps: 100,
            ..Default::default()
        });
        assert_eq!(total.steps, u64::MAX, "near-overflow clamps, no wrap");
    }

    #[test]
    fn absorb_merges_peak_memory_by_max() {
        let mut total = Spend {
            peak_memory: 40,
            ..Default::default()
        };
        total.absorb(&Spend {
            peak_memory: 70,
            ..Default::default()
        });
        assert_eq!(total.peak_memory, 70, "higher peak wins");
        total.absorb(&Spend {
            peak_memory: 10,
            ..Default::default()
        });
        assert_eq!(total.peak_memory, 70, "lower peak does not regress");
    }

    #[test]
    fn absorb_accumulates_cache_and_elapsed() {
        let mut total = Spend::default();
        let worker = Spend {
            steps: 10,
            elapsed: Duration::from_millis(3),
            peak_memory: 5,
            cache_hits: 2,
            cache_misses: 7,
            ..Default::default()
        };
        total.absorb(&worker);
        total.absorb(&worker);
        assert_eq!(total.steps, 20);
        assert_eq!(total.elapsed, Duration::from_millis(6));
        assert_eq!(total.cache_hits, 4);
        assert_eq!(total.cache_misses, 14);
        // Saturation on the cache counters too.
        let mut near = Spend {
            cache_hits: u64::MAX,
            cache_misses: u64::MAX,
            ..Default::default()
        };
        near.absorb(&worker);
        assert_eq!(near.cache_hits, u64::MAX);
        assert_eq!(near.cache_misses, u64::MAX);
    }

    #[test]
    fn spend_display_round_trips_every_populated_field() {
        let spend = Spend {
            steps: 1234,
            elapsed: Duration::from_millis(42),
            peak_memory: 99,
            cache_hits: 3,
            cache_misses: 1,
            retries: 2,
            quarantined: 1,
        };
        let shown = format!("{spend}");
        assert!(shown.contains("1234 steps"), "steps in {shown:?}");
        assert!(shown.contains("42.0ms"), "elapsed in {shown:?}");
        assert!(shown.contains("99 mem units"), "memory in {shown:?}");
        assert!(shown.contains("cache 3/4 hit"), "cache ratio in {shown:?}");
        assert!(shown.contains("2 retried"), "retries in {shown:?}");
        assert!(shown.contains("1 quarantined"), "quarantine in {shown:?}");
        // Sparse spends omit the optional clauses entirely.
        let bare = format!(
            "{}",
            Spend {
                steps: 7,
                ..Default::default()
            }
        );
        assert!(!bare.contains("mem units"));
        assert!(!bare.contains("cache"));
        assert!(!bare.contains("retried"));
        assert!(!bare.contains("quarantined"));
    }

    #[test]
    fn fault_point_trips_and_cancels_on_schedule() {
        let injector = Arc::new(
            FaultInjector::new(0)
                .with_fault_at("test.trip", 2, FaultKind::Trip)
                .with_fault_at("test.cancel", 1, FaultKind::Cancel),
        );
        let budget = Budget::unlimited().with_injector(Arc::clone(&injector));
        let mut meter = budget.meter();
        assert_eq!(meter.fault_point("test.trip"), Ok(None));
        assert_eq!(
            meter.fault_point("test.trip"),
            Err(Interrupt::Exhausted(ExhaustionReason::FaultInjected))
        );
        // The trip is sticky, like any other interrupt.
        assert!(meter.charge(1).is_err());

        let mut fresh = budget.meter();
        assert_eq!(fresh.fault_point("test.cancel"), Err(Interrupt::Cancelled));
        assert_eq!(injector.n_fired(), 2);
    }

    #[test]
    fn fault_point_panics_are_tagged_and_catchable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let injector =
            Arc::new(FaultInjector::new(0).with_fault_at("test.panic", 1, FaultKind::Panic));
        let budget = Budget::unlimited().with_injector(injector);
        let mut meter = budget.meter();
        let err = catch_unwind(AssertUnwindSafe(|| meter.fault_point("test.panic"))).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.starts_with(fault::INJECTED_PANIC_PREFIX));
        // The meter itself is untripped: a panic is a task failure, not
        // an envelope wall, and the supervisor decides what follows.
        assert_eq!(meter.charge(1), Ok(()));
    }

    #[test]
    fn rollback_refunds_private_and_shared_charges() {
        // Private meter.
        let budget = Budget::new().with_steps(100);
        let mut meter = budget.meter();
        meter.charge(10).expect("within budget");
        let mark = meter.mark();
        meter.charge(30).expect("within budget");
        meter.charge_memory(5).expect("no limit");
        meter.note_cache_hit();
        meter.rollback_to(&mark);
        assert_eq!(meter.spend().steps, 10);
        assert_eq!(meter.spend().cache_hits, 0);
        // The refunded headroom is genuinely usable again.
        meter.charge(90).expect("rollback refunded the envelope");

        // Shared ledger: the refund reaches the pool.
        let shared = Budget::new().with_steps(100).share();
        let mut a = shared.worker_meter();
        let mut b = shared.worker_meter();
        a.charge(10).expect("fits");
        let mark = a.mark();
        a.charge(80).expect("fits");
        a.rollback_to(&mark);
        assert_eq!(shared.spend().steps, 10);
        b.charge(90).expect("pool was refunded");
    }

    #[test]
    fn meter_records_to_the_budget_tracer() {
        let tracer = obs::Tracer::enabled();
        let budget = Budget::unlimited().with_tracer(tracer.clone());
        let mut meter = budget.meter();
        {
            let _s = meter.span("test.work");
            meter.charge(3).expect("unlimited");
            meter.count("test.units", 3);
        }
        meter.note_cache_hit();
        meter.note_cache_miss();
        assert_eq!(tracer.counter_value("test.units"), 3);
        assert_eq!(tracer.counter_value("guard.cache.hit"), 1);
        assert_eq!(tracer.counter_value("guard.cache.miss"), 1);
        let snap = tracer.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "test.work");
        // Tracing is observation-only: the spend is exactly what the
        // charges dictated.
        assert_eq!(meter.spend().steps, 3);
    }

    #[test]
    fn shared_budget_propagates_tracer_to_workers() {
        let tracer = obs::Tracer::enabled();
        let shared = Budget::unlimited().with_tracer(tracer.clone()).share();
        let meter = shared.worker_meter();
        meter.count("worker.ticks", 2);
        shared.tracer().add("worker.ticks", 1);
        assert_eq!(tracer.counter_value("worker.ticks"), 3);
    }

    #[test]
    fn default_budget_uses_global_tracer() {
        // Without SUMMA_TRACE the global tracer is disabled, and the
        // instrumentation surface must be inert.
        let budget = Budget::unlimited();
        let mut meter = budget.meter();
        {
            let _s = meter.span("inert");
        }
        meter.note_cache_hit();
        assert_eq!(
            budget.tracer().is_enabled(),
            obs::Tracer::global().is_enabled()
        );
    }
}
