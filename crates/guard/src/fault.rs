//! Deterministic, site-tagged fault injection — the workspace's one
//! fault mechanism.
//!
//! A resilience story needs to rehearse the failures that actually
//! happen — a worker thread panicking, a cache shard returning
//! garbage, a spurious cancellation, a budget wall hit mid-search —
//! and it needs every rehearsal to be **replayable**: the same schedule
//! must produce the same faults at the same places, so a chaos run that
//! exposes a bug can be re-run under a debugger.
//!
//! The [`FaultInjector`] is that schedule. Substrates register *named
//! injection sites* (`exec.task`, `exec.worker`, `dl.sat`,
//! `dl.classify.row`, `dl.cache.insert`, …) by calling
//! [`Meter::fault_point`](crate::Meter::fault_point) (or
//! [`FaultInjector::arrive`] directly where no meter flows). Each
//! arrival at a site increments that site's counter, and the injector's
//! specs decide whether this arrival faults:
//!
//! * `site@N=kind` — fault the N-th arrival at `site` (1-based, fires
//!   exactly once);
//! * `site@p0.01=kind` — fault each arrival independently with
//!   probability 0.01, drawn from a SplitMix64 stream seeded by
//!   `(seed, site, arrival)` so the decision is a pure function of the
//!   schedule.
//!
//! Kinds ([`FaultKind`]): `panic` unwinds the current task (the
//! executor's supervisor catches, retries, and quarantines);
//! `cancel` trips the meter as [`Interrupt::Cancelled`]; `trip` trips
//! it as [`ExhaustionReason::FaultInjected`]; `poison` is consumed by
//! storage sites (the shared [`SatCache`]) to corrupt an entry in a
//! checksum-detectable way.
//!
//! The meter owns one site itself, [`STEP_SITE`] (`meter.step`): every
//! [`Meter::charge`](crate::Meter::charge) that adds steps arrives
//! there once. Engines charge one step per unit of work, so
//! `meter.step@N=trip` forces exhaustion at exactly step N. Meters that
//! share an injector share its arrival counters, so across the workers
//! of a parallel run the N-th arrival is the N-th pooled step and the
//! fault fires in exactly one worker.
//!
//! A whole process can be put under a schedule with two environment
//! variables — `SUMMA_FAULT_PLAN="exec.task@3=panic;dl.cache.insert@2=poison"`
//! and `SUMMA_FAULT_SEED=42` — which every [`Budget`](crate::Budget)
//! without an explicit injector picks up, exactly as `SUMMA_TRACE`
//! feeds the global tracer.
//!
//! [`SatCache`]: ../summa_dl/cache/struct.SatCache.html

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The site [`Meter::charge`](crate::Meter::charge) arrives at once
/// per charge that adds steps.
pub const STEP_SITE: &str = "meter.step";

/// What an injection site should do when its arrival is scheduled to
/// fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Unwind the current task with a tagged panic. The executor's
    /// supervisor converts this into a retry (and eventually a
    /// quarantine), never a pool abort.
    Panic,
    /// Trip the meter as a spurious [`Interrupt::Cancelled`]
    /// (`Interrupt`: crate::Interrupt).
    Cancel,
    /// Trip the meter as
    /// [`ExhaustionReason::FaultInjected`](crate::ExhaustionReason) —
    /// a forced budget trip.
    Trip,
    /// Corrupt the entry being written (storage sites only): the store
    /// flips the value without updating its checksum, so integrity
    /// verification on the read path must catch it.
    Poison,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "panic" => Some(FaultKind::Panic),
            "cancel" => Some(FaultKind::Cancel),
            "trip" => Some(FaultKind::Trip),
            "poison" => Some(FaultKind::Poison),
            _ => None,
        }
    }

    /// The plan-syntax name of this kind.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Cancel => "cancel",
            FaultKind::Trip => "trip",
            FaultKind::Poison => "poison",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// When a spec fires at its site.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Fire on exactly the N-th arrival (1-based).
    AtHit(u64),
    /// Fire each arrival independently; the threshold is the
    /// probability scaled to `u64::MAX`.
    PerArrival(u64),
}

/// One scheduled fault: a site, a trigger, a kind.
#[derive(Debug, Clone, PartialEq)]
struct FaultSpec {
    site: String,
    trigger: Trigger,
    kind: FaultKind,
}

/// A fault that actually fired — the injector keeps a log so chaos
/// tests can assert the schedule was exercised and failures can be
/// traced back to their injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// The injection site that faulted.
    pub site: String,
    /// Which arrival at the site faulted (1-based).
    pub hit: u64,
    /// What the site was told to do.
    pub kind: FaultKind,
}

/// The deterministic fault schedule: shared (behind an `Arc`) by every
/// meter of a run, all methods take `&self`.
#[derive(Debug, Default)]
pub struct FaultInjector {
    seed: u64,
    specs: Vec<FaultSpec>,
    /// Arrival counters per site. A plain mutex: injection is a chaos-
    /// test facility, never on an uninstrumented hot path (meters check
    /// an `Option`, or for [`STEP_SITE`] a flag resolved at build, and
    /// [`arrive`](Self::arrive) bails before locking at unscheduled
    /// sites).
    hits: Mutex<HashMap<String, u64>>,
    fired: Mutex<Vec<FiredFault>>,
    n_fired: AtomicU64,
}

impl FaultInjector {
    /// An empty schedule (no site ever faults) with the given seed for
    /// probabilistic specs added later.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            seed,
            ..Default::default()
        }
    }

    /// Schedule `kind` to fire on the `hit`-th arrival (1-based) at
    /// `site`. Fires exactly once.
    pub fn with_fault_at(mut self, site: &str, hit: u64, kind: FaultKind) -> Self {
        self.specs.push(FaultSpec {
            site: site.to_string(),
            trigger: Trigger::AtHit(hit.max(1)),
            kind,
        });
        self
    }

    /// Schedule `kind` to fire on each arrival at `site` independently
    /// with probability `p` (clamped to `[0, 1]`), decided by a
    /// SplitMix64 stream over `(seed, site, arrival)` — a pure function
    /// of the schedule, so runs replay exactly.
    pub fn with_fault_rate(mut self, site: &str, p: f64, kind: FaultKind) -> Self {
        let p = p.clamp(0.0, 1.0);
        self.specs.push(FaultSpec {
            site: site.to_string(),
            trigger: Trigger::PerArrival((p * u64::MAX as f64) as u64),
            kind,
        });
        self
    }

    /// Parse a plan string: `;`- or `,`-separated entries of the form
    /// `site@N=kind` (fire on the N-th arrival) or `site@pX=kind`
    /// (fire with probability X per arrival). Whitespace around entries
    /// is ignored; kinds are `panic`, `cancel`, `trip`, `poison`.
    pub fn parse_plan(plan: &str, seed: u64) -> Result<Self, String> {
        let mut inj = FaultInjector::new(seed);
        for entry in plan.split([';', ',']) {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (site_trigger, kind) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{entry}`: missing `=kind`"))?;
            let kind = FaultKind::parse(kind.trim())
                .ok_or_else(|| format!("fault spec `{entry}`: unknown kind `{kind}`"))?;
            let (site, trigger) = site_trigger
                .split_once('@')
                .ok_or_else(|| format!("fault spec `{entry}`: missing `@trigger`"))?;
            let site = site.trim();
            if site.is_empty() {
                return Err(format!("fault spec `{entry}`: empty site"));
            }
            let trigger = trigger.trim();
            if let Some(p) = trigger.strip_prefix('p') {
                let p: f64 = p
                    .parse()
                    .map_err(|_| format!("fault spec `{entry}`: bad probability `{trigger}`"))?;
                inj = inj.with_fault_rate(site, p, kind);
            } else {
                let hit: u64 = trigger
                    .parse()
                    .map_err(|_| format!("fault spec `{entry}`: bad hit count `{trigger}`"))?;
                inj = inj.with_fault_at(site, hit, kind);
            }
        }
        Ok(inj)
    }

    /// The process-global injector parsed once from `SUMMA_FAULT_PLAN`
    /// (schedule) and `SUMMA_FAULT_SEED` (seed, default 0). `None` when
    /// no plan is set or the plan fails to parse — a malformed plan
    /// must never fault *differently* than intended, so it faults not
    /// at all.
    pub fn global() -> Option<&'static Arc<FaultInjector>> {
        static GLOBAL: OnceLock<Option<Arc<FaultInjector>>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let plan = std::env::var("SUMMA_FAULT_PLAN").ok()?;
                let seed = std::env::var("SUMMA_FAULT_SEED")
                    .ok()
                    .and_then(|s| s.trim().parse().ok())
                    .unwrap_or(0);
                FaultInjector::parse_plan(&plan, seed).ok().map(Arc::new)
            })
            .as_ref()
    }

    /// The schedule's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Does any spec target `site`?
    pub(crate) fn schedules(&self, site: &str) -> bool {
        self.specs.iter().any(|s| s.site == site)
    }

    /// Register one arrival at `site` and return the fault, if this
    /// arrival is scheduled to have one. The first matching spec (in
    /// plan order) wins.
    pub fn arrive(&self, site: &str) -> Option<FaultKind> {
        if !self.schedules(site) {
            // Unscheduled sites stay cheap-ish: no counter churn.
            return None;
        }
        let hit = {
            let mut hits = self.hits.lock().unwrap_or_else(PoisonError::into_inner);
            let h = hits.entry(site.to_string()).or_insert(0);
            *h += 1;
            *h
        };
        for spec in &self.specs {
            if spec.site != site {
                continue;
            }
            let fire = match spec.trigger {
                Trigger::AtHit(h) => h == hit,
                Trigger::PerArrival(threshold) => {
                    splitmix64(self.seed ^ str_hash(site) ^ hit.wrapping_mul(0x9e3779b97f4a7c15))
                        < threshold
                }
            };
            if fire {
                self.fired
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(FiredFault {
                        site: site.to_string(),
                        hit,
                        kind: spec.kind,
                    });
                self.n_fired.fetch_add(1, Ordering::Relaxed);
                return Some(spec.kind);
            }
        }
        None
    }

    /// Total faults fired so far.
    pub fn n_fired(&self) -> u64 {
        self.n_fired.load(Ordering::Relaxed)
    }

    /// The log of fired faults, in firing order (per-site order is
    /// exact; cross-site interleaving follows execution).
    pub fn fired_log(&self) -> Vec<FiredFault> {
        self.fired
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Arrivals observed at `site` so far.
    pub fn arrivals(&self, site: &str) -> u64 {
        self.hits
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(site)
            .copied()
            .unwrap_or(0)
    }
}

/// The panic message prefix every injected panic carries, so
/// supervisors and humans can tell rehearsed failures from real ones.
pub const INJECTED_PANIC_PREFIX: &str = "summa-fault: injected panic";

/// Panic with the tagged injected-fault message for `site`. Kept in
/// one place so the supervisor's quarantine records and the chaos
/// tests agree on the format.
pub fn injected_panic(site: &str) -> ! {
    panic!("{INJECTED_PANIC_PREFIX} at {site}")
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the site name: stable across processes (site names are
/// compile-time constants, not attacker input).
fn str_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_hit_fires_exactly_once_at_the_scheduled_arrival() {
        let inj = FaultInjector::new(0).with_fault_at("a.site", 3, FaultKind::Panic);
        assert_eq!(inj.arrive("a.site"), None);
        assert_eq!(inj.arrive("a.site"), None);
        assert_eq!(inj.arrive("a.site"), Some(FaultKind::Panic));
        assert_eq!(inj.arrive("a.site"), None);
        assert_eq!(inj.n_fired(), 1);
        assert_eq!(
            inj.fired_log(),
            vec![FiredFault {
                site: "a.site".into(),
                hit: 3,
                kind: FaultKind::Panic
            }]
        );
        assert_eq!(inj.arrivals("a.site"), 4);
    }

    #[test]
    fn unscheduled_sites_never_fault_and_are_not_counted() {
        let inj = FaultInjector::new(0).with_fault_at("a", 1, FaultKind::Trip);
        for _ in 0..100 {
            assert_eq!(inj.arrive("b"), None);
        }
        assert_eq!(inj.arrivals("b"), 0, "unscheduled sites skip counting");
    }

    #[test]
    fn probabilistic_schedule_is_replayable() {
        let run = |seed| {
            let inj = FaultInjector::new(seed).with_fault_rate("s", 0.05, FaultKind::Cancel);
            (0..2000).filter(|_| inj.arrive("s").is_some()).count()
        };
        assert_eq!(run(7), run(7), "same seed, same fault arrivals");
        assert!(run(7) > 0, "p=0.05 over 2000 arrivals fires w.h.p.");
        // Not a fixed pattern: a different seed gives a different
        // (deterministic) schedule.
        let trace = |seed| {
            let inj = FaultInjector::new(seed).with_fault_rate("s", 0.05, FaultKind::Cancel);
            (0..2000)
                .map(|_| inj.arrive("s").is_some())
                .collect::<Vec<_>>()
        };
        assert_ne!(trace(7), trace(8));
    }

    #[test]
    fn plan_parsing_round_trips_the_grammar() {
        let inj = FaultInjector::parse_plan(
            " exec.task@3=panic; dl.cache.insert@1=poison , dl.sat@p0.25=trip ;",
            42,
        )
        .expect("valid plan");
        assert_eq!(inj.seed(), 42);
        assert_eq!(inj.arrive("dl.cache.insert"), Some(FaultKind::Poison));
        assert_eq!(inj.arrive("exec.task"), None);
        assert_eq!(inj.arrive("exec.task"), None);
        assert_eq!(inj.arrive("exec.task"), Some(FaultKind::Panic));
        // Malformed plans are rejected with a pointed message.
        for bad in [
            "exec.task=panic",
            "exec.task@3",
            "exec.task@3=explode",
            "@3=panic",
            "exec.task@px=panic",
            "exec.task@notanumber=panic",
        ] {
            assert!(
                FaultInjector::parse_plan(bad, 0).is_err(),
                "`{bad}` must not parse"
            );
        }
        // The empty plan is a valid no-op schedule.
        assert!(FaultInjector::parse_plan("", 0).is_ok());
    }

    #[test]
    fn first_matching_spec_wins() {
        let inj = FaultInjector::new(0)
            .with_fault_at("s", 1, FaultKind::Cancel)
            .with_fault_at("s", 1, FaultKind::Panic);
        assert_eq!(inj.arrive("s"), Some(FaultKind::Cancel));
    }

    #[test]
    fn injected_panic_is_tagged() {
        let err = std::panic::catch_unwind(|| injected_panic("exec.task")).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.starts_with(INJECTED_PANIC_PREFIX), "got {msg}");
        assert!(msg.contains("exec.task"));
    }
}
