//! The queue workers: `threads` persistent threads, each popping one
//! admitted request off the bounded queue and answering it.
//!
//! A worker runs one request at a time, so a long request holds one
//! worker while the others keep answering; a snapshot load holds its
//! worker while a helper thread installs it. Each request executes under
//! its own private budget inside [`crate::ops::execute`] (or
//! [`crate::ops::execute_warm`], whose bodies are byte-identical by
//! construction), so which worker answers, and in what order, never
//! changes a body.

use crate::ops;
use crate::server::{Shared, Tenant};
use crate::telemetry::PhaseNs;
use crate::wire::{
    self, Envelope, Request, Response, SERVED_CACHE, SERVED_INDEX, SERVED_PROVER, STATUS_OK,
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// One admitted request waiting for its response.
pub(crate) struct Pending {
    pub env: Envelope,
    /// The sender's record, resolved at admission; the worker books
    /// the answer on it.
    pub tenant: Arc<Tenant>,
    pub slot: Arc<Slot>,
    /// Admission time — the telemetry plane's queue-wait phase starts
    /// here.
    pub enqueued: Instant,
}

/// A one-shot response cell the connection handler blocks on. The
/// worker that popped the request fills it exactly once.
pub(crate) struct Slot {
    cell: Mutex<Option<(Response, PhaseNs)>>,
    cv: Condvar,
}

impl Slot {
    pub fn new() -> Slot {
        Slot {
            cell: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Deposit the response plus the phase timings measured so far
    /// (queue-wait / pick-up / execute; the waiter adds the serialize
    /// phase).
    fn fill(&self, resp: Response, phases: PhaseNs) {
        *self.cell.lock().unwrap_or_else(PoisonError::into_inner) = Some((resp, phases));
        self.cv.notify_one();
    }

    /// Block until the response arrives.
    pub fn wait(&self) -> (Response, PhaseNs) {
        let mut cell = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(resp) = cell.take() {
                return resp;
            }
            cell = self.cv.wait(cell).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Attempts a request gets at the `serve.batch` fault site, and again
/// at execution, before it degrades to a typed engine error.
const ATTEMPTS: u32 = 3;

/// A worker thread's body: pop → execute → answer, until the server
/// drains. On drain a worker keeps popping until the queue is empty,
/// so every admitted request is answered before the workers exit.
pub(crate) fn worker_loop(shared: Arc<Shared>) {
    loop {
        let (p, depth) = {
            let mut q = shared
                .admission
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(p) = q.queue.pop_front() {
                    break (p, q.queue.len());
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return; // queue empty and no more admissions: done
                }
                q = shared
                    .queue_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let popped_at = Instant::now();
        shared.telemetry.sample_queue(depth);
        run(&shared, p, popped_at);
    }
}

/// Answer one request. The `serve.batch` fault site gates it: an
/// injected panic (or trip) is retried up to [`ATTEMPTS`] times. Past
/// the gate, execution runs under `catch_unwind` with a fresh request
/// budget per attempt, also up to [`ATTEMPTS`] times. Either way, a
/// request that keeps failing gets a typed engine error: admitted work
/// is always answered, never dropped.
fn run(shared: &Shared, p: Pending, popped_at: Instant) {
    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    let mut span = shared
        .tracer
        .span("serve.request")
        .with("op", p.env.request.op().name());
    let mut phases = PhaseNs {
        queue_wait_ns: popped_at.saturating_duration_since(p.enqueued).as_nanos() as u64,
        ..PhaseNs::default()
    };
    let gated = (1..=ATTEMPTS).any(|attempt| {
        // The chaos site for the workers themselves, armed through the
        // pool budget's injector (per-request plans never see it).
        let gate = catch_unwind(AssertUnwindSafe(|| {
            shared.cfg.pool_budget.meter().fault_point("serve.batch")
        }));
        let passed = matches!(gate, Ok(Ok(_)));
        if !passed && attempt < ATTEMPTS {
            shared
                .counters
                .batch_retries
                .fetch_add(1, Ordering::Relaxed);
        }
        passed
    });
    let t0 = Instant::now();
    phases.pickup_ns = t0.saturating_duration_since(popped_at).as_nanos() as u64;
    let executed = if gated {
        (0..ATTEMPTS)
            .find_map(|_| catch_unwind(AssertUnwindSafe(|| execute(shared, &p.env.request))).ok())
    } else {
        None
    };
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    phases.execute_ns = elapsed_ns;
    let ex = executed.unwrap_or_else(|| {
        span.record("failed", true);
        let msg = if gated {
            "request execution panicked on every attempt"
        } else {
            "request gate failed after retries"
        };
        ops::Executed {
            status: wire::STATUS_ENGINE_ERROR,
            body: wire::engine_error_body(msg),
            epoch: 0,
            served: SERVED_PROVER,
            spend: Default::default(),
        }
    });
    answer(shared, p, ex, elapsed_ns, phases);
}

/// One execution attempt under a fresh request budget. A snapshot
/// load runs on a helper thread the worker waits for: the worker still
/// bounds installs and answers the load, but the install's
/// milliseconds of work never run on a pool thread. Installs on the
/// workers' own threads cost the `swap` workload's concurrent reader
/// about a fifth of its goodput on a 2-vCPU host (DESIGN §12). A panic
/// on the helper thread resumes here.
fn execute(shared: &Shared, req: &Request) -> ops::Executed {
    let rb = shared.cfg.request_budget();
    let run = || ops::execute_with(&shared.store, req, &rb, shared.warm);
    if !matches!(req, Request::LoadSnapshot { .. }) {
        return run();
    }
    std::thread::scope(|s| s.spawn(run).join()).unwrap_or_else(|e| resume_unwind(e))
}

/// Do the per-answer accounting (the tenant's record, counters,
/// warm-path served attribution), then fill the request's slot.
fn answer(shared: &Shared, p: Pending, ex: ops::Executed, elapsed_ns: u64, phases: PhaseNs) {
    if ex.status == wire::STATUS_ENGINE_ERROR {
        shared
            .counters
            .engine_errors
            .fetch_add(1, Ordering::Relaxed);
    }
    match ex.served {
        SERVED_INDEX => {
            shared.counters.index_hits.fetch_add(1, Ordering::Relaxed);
        }
        SERVED_CACHE => {
            // A warm request the index could not answer alone: an
            // index miss, with any shared-cache replays attributed.
            shared.counters.index_misses.fetch_add(1, Ordering::Relaxed);
            shared
                .counters
                .cache_shared_hits
                .fetch_add(ex.spend.cache_hits, Ordering::Relaxed);
        }
        _ => {}
    }
    if ex.status == STATUS_OK && matches!(p.env.request, Request::LoadSnapshot { .. }) {
        shared
            .counters
            .snapshot_loads
            .fetch_add(1, Ordering::Relaxed);
    }
    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    // Booked before the slot fills, so the tenant's next request is
    // admitted against them.
    p.tenant
        .consumed_steps
        .fetch_add(ex.spend.steps, Ordering::Relaxed);
    p.tenant.pending.fetch_sub(1, Ordering::Relaxed);
    let resp = Response {
        id: p.env.id,
        status: ex.status,
        elapsed_ns,
        trace_id: shared.next_trace.fetch_add(1, Ordering::Relaxed) + 1,
        epoch: ex.epoch,
        served: ex.served,
        spend: ex.spend,
        body: ex.body,
    };
    p.slot.fill(resp, phases);
}
