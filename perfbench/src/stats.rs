//! Sample statistics shared by every workload: the tail-percentile
//! rule, goodput against a latency limit, and the failure share.

use std::time::Duration;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The highest of the usual percentiles that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// has too few.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.5]
        .into_iter()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// A timing reduced to its median, p90 and p99, with the sample count
/// they rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub n: usize,
    pub p50_ns: u64,
    /// `None` when fewer than [`MIN_BEYOND`] samples lie beyond p90.
    pub p90_ns: Option<u64>,
    /// `None` when fewer than [`MIN_BEYOND`] samples lie beyond p99.
    pub p99_ns: Option<u64>,
}

impl Timing {
    /// Reduce raw samples (nanoseconds); `None` for an empty sample.
    pub fn of(samples: &[u64]) -> Option<Timing> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_unstable();
        let tail = |q: f64| (beyond(s.len(), q) >= MIN_BEYOND).then(|| quantile(&s, q));
        Some(Timing {
            n: s.len(),
            p50_ns: quantile(&s, 0.5),
            p90_ns: tail(0.9),
            p99_ns: tail(0.99),
        })
    }

    /// How the sample supports the tail, for the report line.
    pub fn describe(&self) -> String {
        format!(
            "n={} beyond_p99={} supported_tail={}",
            self.n,
            beyond(self.n, 0.99),
            supported_tail(self.n).map_or("none".into(), |q| format!("p{}", q * 100.0))
        )
    }
}

/// Counts of one timed phase: what was attempted, what failed (a
/// non-OK status, a typed refusal, an I/O error or a wrong body), and
/// which correct answers arrived within the op's latency limit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub within_limit: u64,
}

impl Tally {
    /// Record one request. A failed request never counts as within the
    /// limit, however fast its refusal came back.
    pub fn record(&mut self, correct: bool, latency: Duration, limit: Duration) {
        self.attempted += 1;
        if !correct {
            self.failed += 1;
        } else if latency <= limit {
            self.within_limit += 1;
        }
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.within_limit += other.within_limit;
    }

    /// Correct answers within the limit per second of `wall`.
    pub fn goodput(&self, wall: Duration) -> f64 {
        self.within_limit as f64 / wall.as_secs_f64()
    }

    /// Failed requests as a share of attempted ones.
    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let samples: Vec<u64> = (1..=999).collect();
        let t = Timing::of(&samples).expect("non-empty");
        assert_eq!(t.n, 999);
        assert_eq!(t.p90_ns, Some(900));
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(t.p99_ns, None, "9 samples beyond p99 are too few");
        assert_eq!(supported_tail(999), Some(0.95));

        let samples: Vec<u64> = (1..=1000).collect();
        let t = Timing::of(&samples).expect("non-empty");
        assert_eq!(t.p50_ns, 500);
        assert_eq!(t.p99_ns, Some(990));
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(15), None);
        let few = Timing::of(&[5; 99]).expect("non-empty");
        assert_eq!((few.p90_ns, few.p99_ns), (None, None), "9 beyond p90");
    }

    #[test]
    fn describe_prints_the_sample_count() {
        let samples: Vec<u64> = (0..2000).rev().collect();
        let t = Timing::of(&samples).expect("non-empty");
        assert_eq!(t.describe(), "n=2000 beyond_p99=20 supported_tail=p99");
        assert_eq!(t.p50_ns, 999, "input order does not matter");
    }

    #[test]
    fn failed_and_refused_requests_miss_the_limit() {
        let limit = Duration::from_millis(5);
        let mut t = Tally::default();
        t.record(true, Duration::from_millis(1), limit);
        t.record(true, Duration::from_millis(9), limit); // correct but late
        t.record(false, Duration::from_micros(10), limit); // fast refusal
        t.record(false, Duration::from_millis(1), limit); // wrong body
        assert_eq!(t.attempted, 4);
        assert_eq!(t.failed, 2);
        assert_eq!(t.within_limit, 1);
        assert_eq!(t.goodput(Duration::from_secs(2)), 0.5);
    }

    #[test]
    fn error_frac_is_over_attempted_requests() {
        let limit = Duration::from_millis(5);
        let mut a = Tally::default();
        for i in 0..30 {
            a.record(i % 10 != 0, Duration::from_millis(1), limit);
        }
        let mut b = Tally::default();
        b.record(true, Duration::from_millis(20), limit);
        b.record(false, Duration::from_millis(20), limit);
        a.absorb(&b);
        assert_eq!((a.attempted, a.failed), (32, 4));
        assert_eq!(a.error_frac(), 4.0 / 32.0);
        assert_eq!(Tally::default().error_frac(), 0.0);
    }
}
