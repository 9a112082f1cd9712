//! Named monotonic counters, gauges, log-scale latency histograms,
//! and a fixed-size time-series ring buffer.
//!
//! The registry is name-keyed and lazy: the first `add`/`record` for a
//! name creates the instrument, so substrates never declare metrics up
//! front. Names may be dynamic (e.g. per-tenant series in
//! `summa-serve`); lookup takes a short mutex and allocates only on
//! first registration. The returned handles are plain atomics, so
//! repeated hot-path updates through a cached handle are lock-free.
//! (The [`Tracer`](crate::Tracer) facade looks up per call, which is
//! still one short uncontended lock + one `fetch_add` — cheap next to
//! a tableau expansion.)
//!
//! Export order is a contract: [`Registry::counters`],
//! [`Registry::gauges`], and [`Registry::histogram_summaries`] return
//! name-sorted output *unconditionally*, so two exports of the same
//! state are byte-identical regardless of which thread registered
//! which instrument first.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::export::HistogramSummary;

/// Number of log₂ buckets. Bucket `i` holds observations `v` with
/// `floor(log2(v)) == i` (bucket 0 additionally holds `v == 0`), so
/// the range spans 1 ns … 2⁶³ ns — far past any span we will see.
const BUCKETS: usize = 64;

/// A log₂-bucketed histogram of nanosecond observations.
///
/// Recording is one `fetch_add` per observation plus three atomic
/// updates for count/sum/max; quantiles are reconstructed by linear
/// interpolation *within* the target log₂ bucket (rank-position
/// interpolation), so they track the distribution to well under one
/// bucket width — ample for the p50/p95/p99 "where does time go"
/// question the exporters answer. Reported quantiles never exceed
/// [`Histogram::max_ns`], which is exact.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_of(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            (63 - ns.leading_zeros()) as usize
        }
    }

    /// Lower bound (inclusive) of bucket `i`'s value range.
    fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Upper bound (exclusive) of bucket `i`'s value range; saturates
    /// for the top bucket.
    fn bucket_hi(i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << (i + 1)
        }
    }

    /// Largest value bucket `i` can hold — the `le` bound of a
    /// cumulative (Prometheus-style) exposition.
    pub fn bucket_le(i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Record one observation, in nanoseconds.
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Largest observation, in nanoseconds (exact, not bucketed).
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`) in nanoseconds.
    /// Returns 0 for an empty histogram.
    ///
    /// The rank is located in its log₂ bucket and then interpolated
    /// *within* the bucket: the `k`-th of `n` observations in
    /// `[lo, hi)` is estimated at `lo + (hi - lo)·(k - ½)/n`. A flat
    /// per-bucket representative (midpoint or upper bound) overstates
    /// low-count quantiles by up to 2× because a log₂ bucket spans a
    /// full octave; rank interpolation is exact for the uniform case
    /// and never exceeds the (exactly tracked) maximum.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based, clamped into range.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = Self::bucket_lo(i) as f64;
                let hi = Self::bucket_hi(i) as f64;
                let k = (rank - seen) as f64; // 1 ..= n within this bucket
                let est = lo + (hi - lo) * (k - 0.5) / n as f64;
                return (est as u64).min(self.max_ns());
            }
            seen += n;
        }
        self.max_ns()
    }

    /// Fold `other`'s observations into `self`: per-bucket counts,
    /// count, and sum add exactly; max reconciles via `fetch_max`.
    /// Both histograms stay usable — this is how per-thread instances
    /// merge into one export without stalling writers.
    pub fn absorb(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum_ns.fetch_add(other.sum_ns(), Ordering::Relaxed);
        self.max_ns.fetch_max(other.max_ns(), Ordering::Relaxed);
    }

    /// Per-bucket observation counts (index `i` = values with
    /// `floor(log2(v)) == i`). The exposition exporter turns these
    /// into cumulative `le` buckets.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Summarize for export under `name`.
    pub fn summarize(&self, name: &str) -> HistogramSummary {
        let count = self.count();
        HistogramSummary {
            name: name.to_string(),
            count,
            sum_ns: self.sum_ns(),
            p50_ns: self.quantile_ns(0.50),
            p95_ns: self.quantile_ns(0.95),
            p99_ns: self.quantile_ns(0.99),
            max_ns: self.max_ns(),
        }
    }
}

/// A signed instantaneous value (queue depth, in-flight count).
///
/// Unlike a counter a gauge goes both ways; `add`/`sub` through a
/// cached handle are single atomics, safe on any hot path. Updates are
/// `Release` and `get` is `Acquire`: a reader that sees a value also
/// sees every write its updaters made before their updates. The
/// server's in-flight gauge relies on this: a handler lowers it after
/// recording its request, so reading zero means the books are whole.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Release);
    }

    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Release);
    }

    pub fn sub(&self, delta: i64) {
        self.value.fetch_sub(delta, Ordering::Release);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Acquire)
    }
}

/// One time-series observation: a monotonic timestamp (nanoseconds
/// since some fixed origin, typically server start) and a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesSample {
    pub t_ns: u64,
    pub value: i64,
}

/// Fixed-capacity ring buffer of [`SeriesSample`]s with evict-oldest
/// semantics and an explicit dropped counter — the storage behind
/// sampled gauges (queue depth over time, in-flight over time).
///
/// Push takes a short mutex; the server's queue workers push once per
/// pop, outside any request's execution.
#[derive(Debug)]
pub struct SeriesRing {
    capacity: usize,
    inner: Mutex<VecDeque<SeriesSample>>,
    dropped: AtomicU64,
}

impl SeriesRing {
    /// New ring holding at most `capacity` samples (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SeriesRing {
            capacity,
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append a sample, evicting the oldest when full.
    pub fn push(&self, t_ns: u64, value: i64) {
        let mut q = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if q.len() == self.capacity {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(SeriesSample { t_ns, value });
    }

    /// Samples oldest-first.
    pub fn samples(&self) -> Vec<SeriesSample> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .copied()
            .collect()
    }

    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples evicted to make room so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Name-keyed registry of counters, gauges, and histograms. Shared by
/// all clones of one [`Tracer`](crate::Tracer).
///
/// Names may be dynamic strings; lookups borrow (`&str`) and only
/// allocate a key on first registration.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// Clone the handle under `name`, allocating the key only on first
/// registration (`map.get` hits borrow the `&str` directly).
fn handle<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(v) = map.get(name) {
        return Arc::clone(v);
    }
    Arc::clone(map.entry(name.to_string()).or_default())
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Handle to the counter `name`, created zeroed on first use.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        handle(&self.counters, name)
    }

    /// Handle to the gauge `name`, created zeroed on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        handle(&self.gauges, name)
    }

    /// Handle to the histogram `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        handle(&self.histograms, name)
    }

    /// Current value of counter `name`; 0 when it was never touched.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// All counters, name-sorted unconditionally (export contract).
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, c)| (name.clone(), c.load(Ordering::Relaxed)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// All gauges, name-sorted unconditionally (export contract).
    pub fn gauges(&self) -> Vec<(String, i64)> {
        let mut out: Vec<(String, i64)> = self
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// All histogram summaries, name-sorted unconditionally (export
    /// contract).
    pub fn histogram_summaries(&self) -> Vec<HistogramSummary> {
        let mut out: Vec<HistogramSummary> = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, h)| h.summarize(name))
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Visit each histogram (name-sorted) with its live handle — used
    /// by the exposition exporter to emit full bucket tables without
    /// cloning bucket arrays through `HistogramSummary`.
    pub fn for_each_histogram(&self, mut f: impl FnMut(&str, &Histogram)) {
        let mut hists: Vec<(String, Arc<Histogram>)> = {
            let map = self
                .histograms
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            map.iter()
                .map(|(n, h)| (n.clone(), Arc::clone(h)))
                .collect()
        };
        // BTreeMap iteration is already sorted, but re-sort to keep the
        // contract independent of the storage choice.
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, h) in &hists {
            f(name, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_floor_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(1023), 9);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let h = Histogram::default();
        // 90 fast observations (~1 µs), 10 slow (~1 ms).
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ns(0.50);
        let p95 = h.quantile_ns(0.95);
        let p99 = h.quantile_ns(0.99);
        assert!((500..4_000).contains(&p50), "p50 ≈ 1 µs bucket, got {p50}");
        assert!(p95 >= 500_000, "p95 lands in the slow mode, got {p95}");
        assert!(p99 >= 500_000);
        assert_eq!(h.max_ns(), 1_000_000);
        assert_eq!(h.sum_ns(), 90 * 1_000 + 10 * 1_000_000);
    }

    #[test]
    fn empty_histogram_summarizes_to_zero() {
        let h = Histogram::default();
        let s = h.summarize("empty");
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_ns, 0);
        assert_eq!(s.max_ns, 0);
    }

    #[test]
    fn registry_is_lazy_and_shared() {
        let r = Registry::new();
        assert_eq!(r.counter_value("x"), 0);
        r.counter("x").fetch_add(7, Ordering::Relaxed);
        r.counter("x").fetch_add(1, Ordering::Relaxed);
        assert_eq!(r.counter_value("x"), 8);
        r.histogram("h").record(5);
        assert_eq!(r.histogram("h").count(), 1);
        let names: Vec<_> = r.counters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["x".to_string()]);
    }

    /// Golden values for the interpolated quantile.
    ///
    /// A single observation of 1000 lands in bucket 9 ([512, 1024));
    /// rank interpolation puts the 1-of-1 observation at the bucket
    /// center: 512 + 512·0.5 = 768. Four observations in [16, 32)
    /// (bucket 4) sit at 16 + 16·(k−½)/4 = 18, 22, 26, 30 — but p100
    /// clamps to the exact max.
    #[test]
    fn quantile_interpolates_within_the_bucket() {
        let h = Histogram::default();
        h.record(1_000);
        assert_eq!(h.quantile_ns(0.50), 768);
        assert_eq!(h.quantile_ns(1.0), 768);
        assert_eq!(h.max_ns(), 1_000);

        let h = Histogram::default();
        for v in [17, 20, 23, 29] {
            h.record(v);
        }
        assert_eq!(h.quantile_ns(0.25), 18);
        assert_eq!(h.quantile_ns(0.50), 22);
        assert_eq!(h.quantile_ns(0.75), 26);
        // p100's in-bucket estimate is 30, above the exact max 29.
        assert_eq!(h.quantile_ns(1.0), 29);
    }

    /// The estimate never exceeds the exact maximum, and a quantile of
    /// a zero-only histogram is 0.
    #[test]
    fn quantile_clamps_to_exact_max() {
        let h = Histogram::default();
        h.record(513); // bucket 9, center estimate 768 > max 513
        assert_eq!(h.quantile_ns(0.5), 513);

        let h = Histogram::default();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile_ns(0.99), 0);
    }

    /// Per-thread histograms absorbed into one reconcile exactly:
    /// count and sum add, max is the true max, quantiles match a
    /// histogram that saw every observation directly.
    #[test]
    fn absorb_reconciles_across_threads() {
        let merged = Arc::new(Histogram::default());
        let reference = Histogram::default();
        let all: Vec<Vec<u64>> = (0..4)
            .map(|t| (0..50).map(|i| (t * 1_000 + i * 37 + 1) as u64).collect())
            .collect();
        for obs in all.iter().flatten() {
            reference.record(*obs);
        }
        let handles: Vec<_> = all
            .into_iter()
            .map(|obs| {
                let merged = Arc::clone(&merged);
                std::thread::spawn(move || {
                    let local = Histogram::default();
                    for v in obs {
                        local.record(v);
                    }
                    merged.absorb(&local);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("absorb thread");
        }
        assert_eq!(merged.count(), reference.count());
        assert_eq!(merged.sum_ns(), reference.sum_ns());
        assert_eq!(merged.max_ns(), reference.max_ns());
        assert_eq!(merged.bucket_counts(), reference.bucket_counts());
        for q in [0.5, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile_ns(q), reference.quantile_ns(q));
        }
    }

    /// Export order is sorted by name regardless of registration
    /// order (the order threads would race over).
    #[test]
    fn exports_are_name_sorted_unconditionally() {
        let r = Registry::new();
        for name in ["zeta", "alpha", "mid", "beta"] {
            r.counter(name).fetch_add(1, Ordering::Relaxed);
            r.histogram(name).record(10);
            r.gauge(name).set(3);
        }
        let sorted = vec!["alpha", "beta", "mid", "zeta"];
        let counter_names: Vec<String> = r.counters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(counter_names, sorted);
        let gauge_names: Vec<String> = r.gauges().into_iter().map(|(n, _)| n).collect();
        assert_eq!(gauge_names, sorted);
        let hist_names: Vec<String> = r
            .histogram_summaries()
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(hist_names, sorted);
        let mut visited = Vec::new();
        r.for_each_histogram(|name, _| visited.push(name.to_string()));
        assert_eq!(visited, sorted);
    }

    #[test]
    fn gauge_goes_both_ways() {
        let g = Gauge::default();
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    /// The ring keeps the newest `capacity` samples, evicts oldest
    /// first, and counts every eviction.
    #[test]
    fn series_ring_evicts_oldest_and_counts_drops() {
        let ring = SeriesRing::new(3);
        for i in 0..5u64 {
            ring.push(i * 100, i as i64);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let samples = ring.samples();
        assert_eq!(
            samples,
            vec![
                SeriesSample {
                    t_ns: 200,
                    value: 2
                },
                SeriesSample {
                    t_ns: 300,
                    value: 3
                },
                SeriesSample {
                    t_ns: 400,
                    value: 4
                },
            ]
        );
    }
}
