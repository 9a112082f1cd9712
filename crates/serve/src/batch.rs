//! The batching scheduler: coalesces compatible queued requests and
//! runs each batch on the [`summa_exec`] pool.
//!
//! Two requests are *compatible* when they read the same snapshot
//! generation — equal `(fingerprint, epoch)` keys (requests that read
//! no snapshot share the `None` key). A batch is popped head-first
//! from the bounded queue, greedily extended with up to
//! `max_batch - 1` later compatible entries (preserving arrival order
//! within the batch), and executed as one `par_map` over the pool.
//!
//! Batching is a **throughput** device, never a semantics device: each
//! request still executes under its own private budget and tableau
//! inside [`crate::ops::execute`] (or [`crate::ops::execute_warm`],
//! whose bodies are byte-identical by construction), so a batched
//! answer is byte-identical to an unbatched one. The pool's envelope
//! only ever charges one step per request.

use crate::ops;
use crate::server::Shared;
use crate::telemetry::PhaseNs;
use crate::wire::{self, Envelope, Response, SERVED_CACHE, SERVED_INDEX, SERVED_PROVER};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;
use summa_guard::Spend;

/// Requests reading the same snapshot generation share a key and may
/// coalesce; `None` keys (ping/admit/critique) coalesce together.
pub(crate) type BatchKey = Option<(u64, u64)>;

/// One admitted request waiting for (or holding) its response.
pub(crate) struct Pending {
    pub env: Envelope,
    pub key: BatchKey,
    pub slot: Arc<Slot>,
    /// Admission time — the telemetry plane's queue-wait phase starts
    /// here.
    pub enqueued: Instant,
}

/// A one-shot response cell the connection handler blocks on. `fill`
/// returns whether this call was the first (supervised retries may
/// re-run a cell whose previous attempt already answered — the second
/// answer is dropped and must not double-account).
pub(crate) struct Slot {
    cell: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Default)]
struct SlotState {
    /// Sticky: stays true after the waiter takes the response, so a
    /// late duplicate fill (retry sweep) still loses.
    filled: bool,
    resp: Option<(Response, PhaseNs)>,
}

impl Slot {
    pub fn new() -> Slot {
        Slot {
            cell: Mutex::new(SlotState::default()),
            cv: Condvar::new(),
        }
    }

    /// Deposit the response plus the phase timings measured so far
    /// (queue-wait / batch-formation / execute; the waiter adds the
    /// serialize phase). First fill wins — forever, even after the
    /// waiter has already collected it.
    pub fn fill(&self, resp: Response, phases: PhaseNs) -> bool {
        let mut state = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        if state.filled {
            return false;
        }
        state.filled = true;
        state.resp = Some((resp, phases));
        self.cv.notify_all();
        true
    }

    /// Block until the response arrives.
    pub fn wait(&self) -> (Response, PhaseNs) {
        let mut state = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(resp) = state.resp.take() {
                return resp;
            }
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// How many times a batch whose `serve.batch` fault site faulted is
/// re-attempted before every request in it degrades to a typed engine
/// error. Mirrors the executor's per-cell retry budget.
const BATCH_ATTEMPTS: u32 = 3;

/// The scheduler thread body: pop → coalesce → execute, until the
/// server drains. On drain the loop keeps scheduling until the queue
/// is empty, so every admitted request is answered before exit.
pub(crate) fn scheduler_loop(shared: Arc<Shared>) {
    loop {
        // popped_at closes every batched request's queue-wait phase.
        // Under the lock we only pop the head and steal the pending
        // remainder; the coalescing scan runs after the lock drops,
        // so admissions never serialize behind batch formation.
        let (first, mut rest) = {
            let mut q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(first) = q.pop_front() {
                    break (first, std::mem::take(&mut *q));
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
        let batch = collect_batch(first, &mut rest, shared.cfg.max_batch);
        let batch_form_ns = popped_at.elapsed().as_nanos() as u64;
        // Entries the batch left behind go back where they were: at
        // the front, ahead of anything admitted while we scanned.
        // (Admissions racing the scan see a shorter queue, so depth
        // gating is approximate for the scan's duration — by design.)
        let depth_after = {
            let mut q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            while let Some(p) = rest.pop_back() {
                q.push_front(p);
            }
            q.len()
        };
        shared.telemetry.sample_batch(batch.len(), depth_after);
        run_batch(&shared, batch, popped_at, batch_form_ns);
    }
}

/// Greedily extend `first` with compatible entries (same key), keeping
/// queue order for both the batch and the left-behind entries.
fn collect_batch(first: Pending, q: &mut VecDeque<Pending>, max_batch: usize) -> Vec<Pending> {
    let mut batch = vec![first];
    let mut i = 0;
    while batch.len() < max_batch.max(1) && i < q.len() {
        if q[i].key == batch[0].key {
            // remove(i) preserves the relative order of the rest.
            if let Some(p) = q.remove(i) {
                batch.push(p);
            }
        } else {
            i += 1;
        }
    }
    batch
}

/// Execute one batch on the exec pool and answer every request in it.
/// The `serve.batch` fault site is supervised: an injected panic (or
/// trip) is retried up to [`BATCH_ATTEMPTS`] times; past that, every
/// request in the batch receives a typed engine error — admitted work
/// is always answered, never dropped.
fn run_batch(shared: &Arc<Shared>, batch: Vec<Pending>, popped_at: Instant, batch_form_ns: u64) {
    // Phase timings shared by every request in the batch; each cell
    // adds its own execute time before filling the slot.
    let base_phases = |p: &Pending| PhaseNs {
        queue_wait_ns: popped_at.saturating_duration_since(p.enqueued).as_nanos() as u64,
        batch_form_ns,
        execute_ns: 0,
        serialize_ns: 0,
    };
    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .max_batch
        .fetch_max(batch.len() as u64, Ordering::Relaxed);
    let depth = shared
        .queue
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .len();
    let mut span = shared
        .tracer
        .span("serve.batch")
        .with("size", batch.len())
        .with("queue_depth", depth);

    let mut attempts = 0u32;
    let ran = loop {
        attempts += 1;
        // The chaos site for the scheduler itself, armed through the
        // pool budget's injector (per-request plans never see it).
        let gate = catch_unwind(AssertUnwindSafe(|| {
            shared.cfg.pool_budget.meter().fault_point("serve.batch")
        }));
        match gate {
            Ok(Ok(_)) => break true,
            Ok(Err(_)) | Err(_) if attempts < BATCH_ATTEMPTS => {
                shared
                    .counters
                    .batch_retries
                    .fetch_add(1, Ordering::Relaxed);
            }
            _ => break false,
        }
    };

    if !ran {
        span.record("failed", true);
        for p in &batch {
            answer(
                shared,
                p,
                wire::STATUS_ENGINE_ERROR,
                wire::engine_error_body("batch execution failed after retries"),
                0,
                SERVED_PROVER,
                Spend::default(),
                0,
                base_phases(p),
            );
        }
        return;
    }

    // One pool envelope per batch; each cell charges a single step to
    // it, then executes the request under the request's own budget.
    // Answers publish as they complete (publish-as-you-go), so a slow
    // request never holds back a finished sibling's response.
    let outcome = summa_exec::par_map(
        &batch,
        &shared.cfg.pool_budget,
        shared.cfg.threads,
        |meter, _, p: &Pending| {
            meter.charge(1)?;
            let _span = shared
                .tracer
                .span("serve.request")
                .with("op", p.env.request.op().name());
            let t0 = Instant::now();
            let rb = shared.cfg.request_budget();
            let ex = if shared.warm {
                ops::execute_warm(&shared.store, &p.env.request, &rb)
            } else {
                ops::execute(&shared.store, &p.env.request, &rb)
            };
            let elapsed_ns = t0.elapsed().as_nanos() as u64;
            let mut phases = base_phases(p);
            phases.execute_ns = elapsed_ns;
            answer(
                shared, p, ex.status, ex.body, ex.epoch, ex.served, ex.spend, elapsed_ns, phases,
            );
            Ok(())
        },
    );

    // Quarantined or interrupted cells never reached `answer`; their
    // requests still get a typed response — exact accounting survives
    // pool-level failures.
    if !outcome.is_complete() {
        span.record("holes", true);
    }
    for p in &batch {
        answer(
            shared,
            p,
            wire::STATUS_ENGINE_ERROR,
            wire::engine_error_body("request quarantined by the batch supervisor"),
            0,
            SERVED_PROVER,
            Spend::default(),
            0,
            base_phases(p),
        );
    }
}

/// Fill a request's slot (first fill wins) and do the per-answer
/// accounting exactly once: tenant ledger, counters, warm-path served
/// attribution.
#[allow(clippy::too_many_arguments)]
fn answer(
    shared: &Arc<Shared>,
    p: &Pending,
    status: u8,
    body: Vec<u8>,
    epoch: u64,
    served: u8,
    spend: Spend,
    elapsed_ns: u64,
    phases: PhaseNs,
) {
    let resp = Response {
        id: p.env.id,
        status,
        elapsed_ns,
        trace_id: shared.next_trace.fetch_add(1, Ordering::Relaxed) + 1,
        epoch,
        served,
        spend,
        body,
    };
    if !p.slot.fill(resp, phases) {
        return; // a retried attempt already answered
    }
    if status == wire::STATUS_ENGINE_ERROR {
        shared
            .counters
            .engine_errors
            .fetch_add(1, Ordering::Relaxed);
    }
    match served {
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
                .fetch_add(spend.cache_hits, Ordering::Relaxed);
        }
        _ => {}
    }
    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    let mut tenants = shared
        .tenants
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(t) = tenants.get_mut(&p.env.tenant) {
        t.pending = t.pending.saturating_sub(1);
        t.consumed_steps = t.consumed_steps.saturating_add(spend.steps);
    }
}
