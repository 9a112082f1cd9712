//! # summa-exec — a governed, supervised, work-stealing executor
//!
//! Classification and realization are worst-case-exponential grids of
//! *independent* cells (subsumption rows, individuals). This crate
//! spends the hardware on those grids, through one entry point
//! ([`par_map_with_drain`]), while keeping resource governance intact:
//! every worker charges one [`SharedBudget`] envelope, so step pools,
//! deadlines, memory proxies, cancellation, and injected faults all
//! propagate cooperatively across threads, and a [`Governed`] partial
//! is assembled from whichever cells completed.
//!
//! Design constraints, in order:
//!
//! 1. **No dependencies.** std::thread scoped spawns only — the
//!    workspace builds offline.
//! 2. **No `unsafe`.** Work items are read through a shared slice;
//!    results are published *as they complete* into per-index slots,
//!    so output is byte-identical regardless of thread count or steal
//!    order — and a worker that dies after deciding a cell has already
//!    banked it.
//! 3. **Cooperative interruption.** A worker whose meter trips stops
//!    draining the queue; the trip is published through the shared
//!    ledger so every sibling stops at its next charge. Cells that
//!    never ran are simply absent from the partial.
//! 4. **Supervised failure.** Every cell runs under `catch_unwind`:
//!    a panicking task is retried up to [`MAX_ATTEMPTS`] times with its
//!    meter charges rolled back (no double-billing), then quarantined
//!    and reported in the partial. A panicking *worker* forfeits only
//!    its thread: siblings steal its queue, and a post-join recovery
//!    sweep re-runs whatever was in flight, so no cell is ever
//!    silently dropped. Queue mutexes recover from poisoning instead
//!    of cascading the panic across the pool.
//!
//! Work distribution is round-robin pre-seeding into per-worker deques
//! with stealing from the busiest sibling when a worker runs dry —
//! enough to level the wildly skewed cell costs a tableau grid
//! produces, without a scheduler thread.
//!
//! [`SharedBudget`]: summa_guard::SharedBudget

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use summa_guard::{Budget, ExhaustionReason, Governed, Interrupt, Meter, Spend};

/// Number of worker threads to use by default: the `SUMMA_THREADS`
/// environment variable when set to a positive integer, otherwise the
/// machine's available parallelism (and 1 when even that is unknown).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("SUMMA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Total attempts a cell gets before quarantine: one initial run plus
/// two supervised retries. Retried attempts have their meter charges
/// rolled back, so a cell that eventually succeeds costs exactly what
/// it would have cost in a panic-free run.
pub const MAX_ATTEMPTS: u32 = 3;

/// Lock a mutex, recovering the data if a previous holder panicked.
/// Queue and slot contents are plain indices/values that are valid at
/// every point a panic can occur (no mid-update invariants), so the
/// poison flag carries no information here.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Render a caught panic payload for quarantine reports.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deterministic backoff between retry attempts: a small, seeded
/// number of `yield_now` calls derived from (seed, index, attempt), so
/// chaos runs replay identically under a fixed `SUMMA_FAULT_SEED`.
fn backoff(seed: u64, idx: u64, attempt: u64) {
    let mut z = seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (attempt << 48);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    for _ in 0..((z ^ (z >> 31)) % 4) {
        std::thread::yield_now();
    }
}

/// A cell that panicked on every one of its [`MAX_ATTEMPTS`] attempts
/// and was given up on. Its result slot stays `None`; the record keeps
/// the failure auditable instead of silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// Index into the input slice.
    pub index: usize,
    /// How many attempts were made before giving up.
    pub attempts: u32,
    /// The captured panic message of the final attempt.
    pub panic: String,
}

/// What came back from a parallel map: per-item slots (in input
/// order, `None` for cells the envelope ran out before deciding), the
/// pooled spend, the first interrupt any worker hit, and any cells
/// quarantined after repeated panics.
#[derive(Debug)]
pub struct ParOutcome<R> {
    /// `results[i]` corresponds to `items[i]`; `None` means the cell
    /// was not decided before the envelope tripped (or was
    /// quarantined).
    pub results: Vec<Option<R>>,
    /// Pooled steps/elapsed/peak plus summed per-worker cache
    /// counters, retry and quarantine totals.
    pub spend: Spend,
    /// The first interrupt any worker hit, if one did.
    pub interrupted: Option<Interrupt>,
    /// Cells that kept panicking and were given up on; always
    /// reported, never silently dropped.
    pub quarantined: Vec<Quarantined>,
}

impl<R> ParOutcome<R> {
    /// Did every cell complete with no interrupt and no quarantine?
    pub fn is_complete(&self) -> bool {
        self.interrupted.is_none()
            && self.quarantined.is_empty()
            && self.results.iter().all(|r| r.is_some())
    }

    /// Fold into the standard [`Governed`] shape: `assemble` receives
    /// the per-item slots and builds the caller's result type,
    /// returning `None` when nothing truthful can be salvaged.
    ///
    /// A run with quarantined cells but no resource interrupt is an
    /// `Exhausted { reason: TaskFailure }` partial: the envelope had
    /// room, but some cells could not be computed.
    pub fn into_governed<T>(
        self,
        assemble: impl FnOnce(Vec<Option<R>>) -> Option<T>,
    ) -> Governed<T> {
        match self.interrupted {
            None if self.quarantined.is_empty() => match assemble(self.results) {
                Some(t) => Governed::Completed(t),
                None => Governed::Cancelled { partial: None },
            },
            None => Governed::Exhausted {
                reason: ExhaustionReason::TaskFailure,
                partial: assemble(self.results),
            },
            Some(Interrupt::Exhausted(reason)) => Governed::Exhausted {
                reason,
                partial: assemble(self.results),
            },
            Some(Interrupt::Cancelled) => Governed::Cancelled {
                partial: assemble(self.results),
            },
        }
    }
}

/// Per-worker work queues with stealing. Indices only — the items
/// themselves stay in the caller's slice.
struct StealQueues {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueues {
    /// Round-robin pre-seeding: item `i` starts on worker `i % w`.
    /// Interleaving (rather than chunking) spreads the expensive
    /// region of a grid across workers even before any stealing.
    fn seed(n_items: usize, workers: usize) -> Self {
        let mut deques: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for i in 0..n_items {
            deques[i % workers].push_back(i);
        }
        StealQueues {
            deques: deques.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Next index for worker `w`: own deque first, then steal from the
    /// *back* of the fullest sibling (halving contention on the
    /// victim's hot front). The flag reports whether the index was
    /// stolen — observability only, never control flow.
    fn next(&self, w: usize) -> Option<(usize, bool)> {
        if let Some(i) = lock_recover(&self.deques[w]).pop_front() {
            return Some((i, false));
        }
        // Pick the currently longest sibling queue as the victim.
        let mut victim: Option<(usize, usize)> = None;
        for (v, dq) in self.deques.iter().enumerate() {
            if v == w {
                continue;
            }
            let len = lock_recover(dq).len();
            if len > 0 && victim.map(|(_, best)| len > best).unwrap_or(true) {
                victim = Some((v, len));
            }
        }
        let (v, _) = victim?;
        lock_recover(&self.deques[v]).pop_back().map(|i| (i, true))
    }

    /// Empty every deque and return the leftover indices — used by the
    /// post-join recovery sweep after a worker died.
    fn drain_all(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for dq in &self.deques {
            out.extend(lock_recover(dq).drain(..));
        }
        out
    }
}

/// Parallel map with worker-local state and a per-worker teardown hook.
///
/// `init(worker_id)` builds each worker's private scratch (a tableau,
/// a definition set — anything `!Sync` or needing `&mut`); `f` is
/// called as `f(&mut state, &mut meter, index, &items[index])` and
/// returns `Err` exactly when the meter interrupts, at which point the
/// worker stops draining and the interrupt is already published to its
/// siblings through the shared ledger.
///
/// After a worker finishes draining (or trips), `drain(worker_id,
/// state)` receives its final state — the place to harvest worker-local
/// statistics (e.g. a reasoner's interner hit counts) that would
/// otherwise be dropped on the scope join. The hook runs on the
/// worker's own thread, inside its `exec.worker` span, before the park
/// counter ticks. A worker that dies by panic forfeits its hook (its
/// scratch may be corrupt); the recovery sweep that re-runs its cells
/// gets a hook call of its own, under worker id 0.
///
/// With `threads <= 1` (or one item) everything runs inline on the
/// caller's thread — same code path, no spawns.
pub fn par_map_with_drain<T, R, S, I, F, D>(
    items: &[T],
    budget: &Budget,
    threads: usize,
    init: I,
    f: F,
    drain: D,
) -> ParOutcome<R>
where
    T: Sync,
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, &mut Meter, usize, &T) -> Result<R, Interrupt> + Sync,
    D: Fn(usize, S) + Sync,
{
    let shared = budget.share();
    let workers = threads.max(1).min(items.len().max(1));
    let queues = StealQueues::seed(items.len(), workers);

    // Results are published into per-index slots the moment a cell
    // completes, not carried home through the scope join — a worker
    // that dies later has already banked everything it decided.
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    // Per-cell attempt counts survive worker death and hand-offs
    // (sibling steal, recovery sweep), so the quarantine limit is
    // per cell, not per worker.
    let attempts: Vec<AtomicU32> = (0..items.len()).map(|_| AtomicU32::new(0)).collect();
    // Which index each worker is currently running; `usize::MAX` when
    // parked between cells. Read after the join to recover the cell a
    // dead worker had in flight.
    let inflight: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(usize::MAX)).collect();
    let quarantine: Mutex<Vec<Quarantined>> = Mutex::new(Vec::new());
    let retries = AtomicU64::new(0);
    let backoff_seed = shared
        .injector()
        .map(|inj| inj.seed())
        .unwrap_or(0x005E_ED0F_5A17);

    // Run one cell under supervision: catch panics, roll the meter
    // back to the attempt mark (so retries never double-charge),
    // rebuild the worker scratch (it may be mid-update), retry with
    // deterministic backoff, and quarantine after MAX_ATTEMPTS.
    // Returns `Err` only for meter interrupts — a quarantined cell is
    // `Ok` so the worker keeps draining.
    let supervise =
        |w: usize, state: &mut S, meter: &mut Meter, idx: usize| -> Result<(), Interrupt> {
            let tracer = meter.tracer().clone();
            loop {
                let attempt = attempts[idx].fetch_add(1, Ordering::Relaxed) + 1;
                let mark = meter.mark();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    meter.fault_point("exec.task")?;
                    f(state, meter, idx, &items[idx])
                }));
                match outcome {
                    Ok(Ok(r)) => {
                        *lock_recover(&slots[idx]) = Some(r);
                        return Ok(());
                    }
                    Ok(Err(interrupt)) => return Err(interrupt),
                    Err(payload) => {
                        let msg = panic_message(payload);
                        meter.rollback_to(&mark);
                        // The scratch may have been abandoned mid-update;
                        // rebuild it before touching another cell.
                        *state = init(w);
                        if attempt >= MAX_ATTEMPTS {
                            tracer.add("exec.quarantine", 1);
                            lock_recover(&quarantine).push(Quarantined {
                                index: idx,
                                attempts: attempt,
                                panic: msg,
                            });
                            return Ok(());
                        }
                        retries.fetch_add(1, Ordering::Relaxed);
                        tracer.add("exec.retry", 1);
                        backoff(backoff_seed, idx as u64, attempt as u64);
                    }
                }
            }
        };

    let run_worker = |w: usize| -> Spend {
        let tracer = shared.tracer().clone();
        let _worker_span = tracer.span("exec.worker").with("worker", w);
        let mut meter = shared.worker_meter();
        // Worker-level fault point: an injected panic here unwinds the
        // whole thread (caught at the join), modelling worker death;
        // cancel/trip publish to the ledger as usual.
        if meter.fault_point("exec.worker").is_err() {
            tracer.add("exec.park", 1);
            return meter.spend();
        }
        let mut state = init(w);
        while let Some((idx, stolen)) = queues.next(w) {
            inflight[w].store(idx, Ordering::Relaxed);
            tracer.add("exec.task", 1);
            if stolen {
                tracer.add("exec.steal", 1);
            }
            let mut task_span = tracer.span("exec.task").with("idx", idx);
            if stolen {
                task_span.record("stolen", true);
            }
            let res = supervise(w, &mut state, &mut meter, idx);
            inflight[w].store(usize::MAX, Ordering::Relaxed);
            // The meter is sticky and the trip is already on the
            // ledger; stop draining.
            if res.is_err() {
                task_span.record("interrupted", true);
                break;
            }
        }
        // Worker ran out of local and stealable work (or tripped);
        // hand the final state to the caller's harvest hook.
        drain(w, state);
        tracer.add("exec.park", 1);
        meter.spend()
    };

    let mut worker_spends: Vec<Spend> = Vec::with_capacity(workers);
    let mut any_worker_died = false;
    if workers <= 1 {
        // Inline path: same supervision, no spawn — a worker panic is
        // caught here instead of at a join.
        match catch_unwind(AssertUnwindSafe(|| run_worker(0))) {
            Ok(sp) => worker_spends.push(sp),
            Err(_) => any_worker_died = true,
        }
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| scope.spawn(move || run_worker(w)))
                .collect();
            for h in handles {
                match h.join() {
                    Ok(sp) => worker_spends.push(sp),
                    // The worker thread itself panicked (injected
                    // worker death, or a scratch rebuild that threw).
                    // Its decided cells are already in the slots; its
                    // queue and in-flight cell are recovered below.
                    Err(_) => any_worker_died = true,
                }
            }
        });
    }

    // Recovery sweep: when a worker died, anything it had in flight
    // plus whatever is left in the deques is re-run inline, under the
    // same supervision. A panicking worker degrades throughput, never
    // completeness. Skipped when an interrupt is pending — undecided
    // cells are then honestly reported as `None` in the partial.
    if any_worker_died && shared.interrupted().is_none() {
        let mut leftovers: Vec<usize> = inflight
            .iter()
            .map(|m| m.load(Ordering::Relaxed))
            .filter(|&i| i != usize::MAX)
            .collect();
        leftovers.extend(queues.drain_all());
        leftovers.sort_unstable();
        leftovers.dedup();
        leftovers.retain(|&i| lock_recover(&slots[i]).is_none());
        leftovers.retain(|&i| !lock_recover(&quarantine).iter().any(|q| q.index == i));
        if !leftovers.is_empty() {
            let tracer = shared.tracer().clone();
            let mut meter = shared.worker_meter();
            match catch_unwind(AssertUnwindSafe(|| init(0))) {
                Ok(mut state) => {
                    for idx in leftovers {
                        tracer.add("exec.task", 1);
                        let mut task_span = tracer.span("exec.task").with("idx", idx);
                        task_span.record("swept", true);
                        if supervise(0, &mut state, &mut meter, idx).is_err() {
                            task_span.record("interrupted", true);
                            break;
                        }
                    }
                    drain(0, state);
                }
                // Even the scratch rebuild panics: report every
                // leftover cell instead of dropping it.
                Err(payload) => {
                    let msg = panic_message(payload);
                    let mut q = lock_recover(&quarantine);
                    for idx in leftovers {
                        q.push(Quarantined {
                            index: idx,
                            attempts: attempts[idx].load(Ordering::Relaxed),
                            panic: msg.clone(),
                        });
                    }
                }
            }
            worker_spends.push(meter.spend());
        }
    }

    let quarantined = quarantine
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    // Pooled steps / wall-clock elapsed / peak come from the shared
    // envelope; per-worker cache counters are summed on top. A dead
    // worker's private cache counters are lost with its meter — the
    // pooled ledger (steps, memory) is unaffected.
    let mut spend = shared.spend();
    for ws in worker_spends {
        spend.cache_hits = spend.cache_hits.saturating_add(ws.cache_hits);
        spend.cache_misses = spend.cache_misses.saturating_add(ws.cache_misses);
    }
    spend.retries = retries.load(Ordering::Relaxed);
    spend.quarantined = quarantined.len() as u64;

    let results: Vec<Option<R>> = slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();

    ParOutcome {
        results,
        spend,
        interrupted: shared.interrupted(),
        quarantined,
    }
}

pub mod prelude {
    pub use crate::{default_threads, par_map_with_drain, ParOutcome, Quarantined, MAX_ATTEMPTS};
}

#[cfg(test)]
mod tests {
    use super::*;
    use summa_guard::{CancelToken, ExhaustionReason, FaultInjector, FaultKind, STEP_SITE};

    /// [`par_map_with_drain`] with no worker state: a no-op init and
    /// drain around a stateless cell function.
    fn run_stateless<T, R, F>(items: &[T], budget: &Budget, threads: usize, f: F) -> ParOutcome<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&mut Meter, usize, &T) -> Result<R, Interrupt> + Sync,
    {
        par_map_with_drain(
            items,
            budget,
            threads,
            |_| (),
            |_, m, i, t| f(m, i, t),
            |_, _| {},
        )
    }

    #[test]
    fn par_map_matches_sequential_at_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        let expected: Vec<Option<u64>> = items.iter().map(|x| Some(x * x)).collect();
        for threads in [1, 2, 4, 8] {
            let out = run_stateless(&items, &Budget::unlimited(), threads, |m, _, &x| {
                m.charge(1)?;
                Ok(x * x)
            });
            assert!(out.is_complete());
            assert_eq!(out.results, expected, "threads = {threads}");
            assert_eq!(out.spend.steps, 100);
        }
    }

    #[test]
    fn starved_pool_yields_partial_with_reason() {
        let items: Vec<u64> = (0..1000).collect();
        let out = run_stateless(&items, &Budget::new().with_steps(50), 4, |m, _, &x| {
            m.charge(1)?;
            Ok(x)
        });
        assert_eq!(
            out.interrupted,
            Some(Interrupt::Exhausted(ExhaustionReason::Steps))
        );
        let decided = out.results.iter().flatten().count();
        assert!(decided <= 50, "at most one cell per pooled step");
        // Every decided cell is truthful.
        for (i, r) in out.results.iter().enumerate() {
            if let Some(v) = r {
                assert_eq!(*v, i as u64);
            }
        }
    }

    #[test]
    fn cancellation_stops_all_workers() {
        let token = CancelToken::new();
        let budget = Budget::new().with_cancel(token.clone());
        token.cancel();
        let items: Vec<u64> = (0..10_000).collect();
        let out = run_stateless(&items, &budget, 4, |m, _, &x| {
            // checkpoint() forces the token check regardless of the
            // check interval.
            m.checkpoint()?;
            Ok(x)
        });
        assert_eq!(out.interrupted, Some(Interrupt::Cancelled));
        assert!(!out.is_complete());
    }

    #[test]
    fn one_shot_fault_in_one_worker_degrades_cleanly() {
        let inj = std::sync::Arc::new(FaultInjector::new(0).with_fault_at(
            STEP_SITE,
            20,
            FaultKind::Trip,
        ));
        let budget = Budget::new().with_injector(std::sync::Arc::clone(&inj));
        let items: Vec<u64> = (0..64).collect();
        let out = run_stateless(&items, &budget, 4, |m, _, &x| {
            m.charge(1)?;
            Ok(x)
        });
        assert_eq!(
            out.interrupted,
            Some(Interrupt::Exhausted(ExhaustionReason::FaultInjected))
        );
        let decided = out.results.iter().flatten().count();
        assert!(decided < 64, "the fault cost at least one cell");
        assert!(decided >= 1, "siblings decided cells before the fault");
        assert_eq!(inj.n_fired(), 1, "exactly one worker saw the fault");
    }

    #[test]
    fn worker_local_state_is_per_worker() {
        let items: Vec<u64> = (0..200).collect();
        let out = par_map_with_drain(
            &items,
            &Budget::unlimited(),
            4,
            |w| (w, 0u64),
            |(_, count), m, _, &x| {
                m.charge(1)?;
                *count += 1;
                Ok(x + 1)
            },
            |_, _| {},
        );
        assert!(out.is_complete());
        assert_eq!(
            out.results.iter().flatten().sum::<u64>(),
            (1..=200).sum::<u64>()
        );
    }

    #[test]
    fn drain_hook_sees_every_workers_final_state() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let items: Vec<u64> = (0..100).collect();
        let total = AtomicU64::new(0);
        let drained = AtomicU64::new(0);
        let out = par_map_with_drain(
            &items,
            &Budget::unlimited(),
            4,
            |_| 0u64,
            |count, m, _, &x| {
                m.charge(1)?;
                *count += x;
                Ok(x)
            },
            |_, count| {
                total.fetch_add(count, Ordering::Relaxed);
                drained.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(out.is_complete());
        // The per-worker partial sums reassemble the whole workload:
        // no worker's final state was dropped on the join.
        assert_eq!(total.load(Ordering::Relaxed), (0..100).sum::<u64>());
        assert_eq!(drained.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn into_governed_maps_interrupts() {
        let items: Vec<u64> = (0..10).collect();
        let out = run_stateless(&items, &Budget::new().with_steps(3), 2, |m, _, &x| {
            m.charge(1)?;
            Ok(x)
        });
        let governed = out.into_governed(|slots| {
            let decided: Vec<u64> = slots.into_iter().flatten().collect();
            if decided.is_empty() {
                None
            } else {
                Some(decided)
            }
        });
        match governed {
            Governed::Exhausted {
                reason: ExhaustionReason::Steps,
                partial: Some(p),
            } => assert!(!p.is_empty()),
            other => panic!("expected exhausted partial, got {other:?}"),
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn pool_emits_spans_and_counters_when_traced() {
        use summa_guard::obs::Tracer;
        let tracer = Tracer::enabled();
        let budget = Budget::unlimited().with_tracer(tracer.clone());
        let items: Vec<u64> = (0..64).collect();
        let out = run_stateless(&items, &budget, 4, |m, _, &x| {
            m.charge(1)?;
            Ok(x)
        });
        assert!(out.is_complete());
        assert_eq!(tracer.counter_value("exec.task"), 64);
        assert_eq!(tracer.counter_value("exec.park"), 4);
        let snap = tracer.snapshot();
        let tasks: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "exec.task")
            .collect();
        assert_eq!(tasks.len(), 64);
        assert!(tasks.iter().all(|s| s.depth >= 1), "tasks nest in workers");
        let workers = snap
            .spans
            .iter()
            .filter(|s| s.name == "exec.worker")
            .count();
        assert_eq!(workers, 4);
    }

    #[test]
    fn tracing_does_not_change_results_or_spend() {
        let items: Vec<u64> = (0..128).collect();
        let run = |budget: &Budget| {
            run_stateless(items.as_slice(), budget, 4, |m, _, &x| {
                m.charge(1)?;
                Ok(x.wrapping_mul(x))
            })
        };
        let plain = run(&Budget::unlimited());
        let traced = run(&Budget::unlimited().with_tracer(summa_guard::obs::Tracer::enabled()));
        assert_eq!(plain.results, traced.results);
        assert_eq!(plain.spend.steps, traced.spend.steps);
        assert_eq!(plain.spend.cache_hits, traced.spend.cache_hits);
    }

    // ---- supervision -------------------------------------------------

    #[test]
    fn injected_worker_panic_loses_no_cells() {
        // The first worker to start dies before charging a step;
        // siblings steal its queue and the sweep mops up anything in
        // flight. The outcome is byte-identical to a fault-free run.
        for threads in [1, 4] {
            let inj = std::sync::Arc::new(FaultInjector::new(7).with_fault_at(
                "exec.worker",
                1,
                FaultKind::Panic,
            ));
            let budget = Budget::unlimited().with_injector(inj);
            let items: Vec<u64> = (0..100).collect();
            let out = run_stateless(&items, &budget, threads, |m, _, &x| {
                m.charge(1)?;
                Ok(x * 3)
            });
            assert!(out.is_complete(), "threads = {threads}");
            let expected: Vec<Option<u64>> = items.iter().map(|x| Some(x * 3)).collect();
            assert_eq!(out.results, expected, "threads = {threads}");
            assert_eq!(out.spend.steps, 100, "dead worker charged nothing");
            assert_eq!(out.spend.retries, 0);
        }
    }

    #[test]
    fn injected_task_panic_is_retried_without_double_charge() {
        // A panic at the task site, or inside a step charge mid-task:
        // either way the attempt's charges roll back.
        let cases = [
            ("exec.task", 1),
            ("exec.task", 4),
            (STEP_SITE, 1),
            (STEP_SITE, 4),
        ];
        for (site, threads) in cases {
            let inj =
                std::sync::Arc::new(FaultInjector::new(7).with_fault_at(site, 5, FaultKind::Panic));
            let budget = Budget::unlimited().with_injector(inj);
            let items: Vec<u64> = (0..64).collect();
            let out = run_stateless(&items, &budget, threads, |m, _, &x| {
                m.charge(1)?;
                Ok(x + 1)
            });
            assert!(out.is_complete(), "{site}, threads = {threads}");
            assert_eq!(out.spend.retries, 1, "{site}, threads = {threads}");
            assert_eq!(
                out.spend.steps, 64,
                "retried attempt rolled back, no double charge ({site})"
            );
            let expected: Vec<Option<u64>> = items.iter().map(|x| Some(x + 1)).collect();
            assert_eq!(out.results, expected);
        }
    }

    #[test]
    fn repeatedly_panicking_cell_is_quarantined_and_reported() {
        let items: Vec<u64> = (0..16).collect();
        let out = run_stateless(&items, &Budget::unlimited(), 1, |m, i, &x| {
            if i == 7 {
                panic!("cell 7 is cursed");
            }
            m.charge(1)?;
            Ok(x)
        });
        assert!(!out.is_complete());
        assert!(out.interrupted.is_none(), "no resource trip");
        assert_eq!(out.quarantined.len(), 1);
        let q = &out.quarantined[0];
        assert_eq!(q.index, 7);
        assert_eq!(q.attempts, MAX_ATTEMPTS);
        assert!(q.panic.contains("cursed"), "panic captured: {}", q.panic);
        assert_eq!(out.results[7], None);
        assert_eq!(out.results.iter().flatten().count(), 15);
        assert_eq!(out.spend.retries, u64::from(MAX_ATTEMPTS) - 1);
        assert_eq!(out.spend.quarantined, 1);
        assert_eq!(out.spend.steps, 15, "the cursed cell charged nothing");
        match out.into_governed(|slots| Some(slots.into_iter().flatten().count())) {
            Governed::Exhausted {
                reason: ExhaustionReason::TaskFailure,
                partial: Some(15),
            } => {}
            other => panic!("expected TaskFailure partial, got {other:?}"),
        }
    }

    #[test]
    fn retry_and_quarantine_counters_are_traced() {
        use summa_guard::obs::Tracer;
        let tracer = Tracer::enabled();
        let budget = Budget::unlimited().with_tracer(tracer.clone());
        let items: Vec<u64> = (0..8).collect();
        let out = run_stateless(&items, &budget, 1, |m, i, &x| {
            if i == 3 {
                panic!("boom");
            }
            m.charge(1)?;
            Ok(x)
        });
        assert_eq!(out.spend.quarantined, 1);
        assert_eq!(
            tracer.counter_value("exec.retry"),
            u64::from(MAX_ATTEMPTS) - 1
        );
        assert_eq!(tracer.counter_value("exec.quarantine"), 1);
    }

    #[test]
    fn panicking_worker_still_reports_interrupt_partials_honestly() {
        // Worker death combined with a step trip: the sweep is skipped
        // (the envelope is spent), undecided cells stay None, and the
        // interrupt is reported.
        let inj = std::sync::Arc::new(FaultInjector::new(7).with_fault_at(
            "exec.worker",
            1,
            FaultKind::Panic,
        ));
        let budget = Budget::new().with_steps(10).with_injector(inj);
        let items: Vec<u64> = (0..100).collect();
        let out = run_stateless(&items, &budget, 4, |m, _, &x| {
            m.charge(1)?;
            Ok(x)
        });
        assert_eq!(
            out.interrupted,
            Some(Interrupt::Exhausted(ExhaustionReason::Steps))
        );
        for (i, r) in out.results.iter().enumerate() {
            if let Some(v) = r {
                assert_eq!(*v, i as u64, "decided cells stay truthful");
            }
        }
    }

    #[test]
    fn injected_cancellation_at_task_site_cancels_pool() {
        let inj = std::sync::Arc::new(FaultInjector::new(7).with_fault_at(
            "exec.task",
            10,
            FaultKind::Cancel,
        ));
        let budget = Budget::unlimited().with_injector(inj);
        let items: Vec<u64> = (0..256).collect();
        let out = run_stateless(&items, &budget, 4, |m, _, &x| {
            m.charge(1)?;
            Ok(x)
        });
        assert_eq!(out.interrupted, Some(Interrupt::Cancelled));
        assert!(!out.is_complete());
    }
}
