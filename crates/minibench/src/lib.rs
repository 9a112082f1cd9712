//! A minimal, dependency-free benchmark harness exposing the subset of
//! the `criterion` API this workspace's benches use.
//!
//! The build must work with the network disabled, so the real
//! `criterion` crate cannot be fetched; the workspace aliases this
//! crate as `criterion` in `[dev-dependencies]`
//! (`criterion = { package = "summa-minibench", path = … }`) and the
//! bench files compile unchanged.
//!
//! Timing model: each benchmark is warmed up briefly, then timed over
//! enough iterations to cover a small measurement window, and the
//! mean per-iteration time is printed. No statistics, plots, or
//! baselines — this is a smoke-and-ballpark harness, not a substitute
//! for criterion's analysis.

use std::fmt;
use std::time::{Duration, Instant};

/// Top-level harness handle, constructed by [`criterion_main!`].
#[derive(Debug, Default)]
pub struct Criterion {
    records: Vec<Record>,
}

/// One measured benchmark: the mean per-iteration wall time over the
/// whole measurement window. Collected so `harness = false` benches
/// can post-process results (compute speedups, emit JSON reports)
/// instead of scraping stdout.
#[derive(Debug, Clone)]
pub struct Record {
    /// The enclosing benchmark group's name.
    pub group: String,
    /// The benchmark's label within the group.
    pub label: String,
    /// Mean nanoseconds per iteration.
    pub ns_per_iter: u128,
    /// Number of iterations timed.
    pub iters: u64,
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\ngroup: {name}");
        BenchmarkGroup {
            group: name.to_string(),
            parent: self,
            sample_size: 20,
        }
    }

    /// All results measured so far, in execution order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// The mean ns/iter of the record matching `group` and `label`.
    pub fn ns_per_iter(&self, group: &str, label: &str) -> Option<u128> {
        self.records
            .iter()
            .find(|r| r.group == group && r.label == label)
            .map(|r| r.ns_per_iter)
    }
}

/// Escape a string for inclusion in a JSON document — the helper that
/// lets dependency-free benches emit valid report files.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A named parameterized benchmark id, printed as `name/param`.
pub struct BenchmarkId {
    rendered: String,
}

impl BenchmarkId {
    /// An id combining a function name and a parameter value.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            rendered: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id from a parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            rendered: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.rendered)
    }
}

/// A group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    group: String,
    parent: &'a mut Criterion,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples (kept for API compatibility;
    /// also scales the measurement window down for slow benches).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run a benchmark with no input parameter.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.to_string(), &mut f);
        self
    }

    /// Run a benchmark against one input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.to_string(), &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// End the group. No-op; exists for criterion compatibility.
    pub fn finish(self) {}

    fn run(&mut self, label: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let mut b = Bencher {
            total: Duration::ZERO,
            iters: 0,
            budget: Duration::from_millis((10 * self.sample_size as u64).min(500)),
        };
        f(&mut b);
        if b.iters == 0 {
            println!("  {label:<48} (no iterations)");
        } else {
            let per = b.total.as_nanos() / b.iters as u128;
            println!("  {label:<48} {:>12} ns/iter ({} iters)", per, b.iters);
            self.parent.records.push(Record {
                group: self.group.clone(),
                label: label.to_string(),
                ns_per_iter: per,
                iters: b.iters,
            });
        }
    }
}

/// Per-benchmark timing driver handed to the closure.
pub struct Bencher {
    total: Duration,
    iters: u64,
    budget: Duration,
}

impl Bencher {
    /// Time `routine` repeatedly until the measurement window closes.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warm-up + calibration pass.
        let start = Instant::now();
        std::hint::black_box(routine());
        let first = start.elapsed();

        let window = self.budget;
        let start = Instant::now();
        let mut iters = 1u64;
        let mut elapsed = first;
        while elapsed < window && iters < 1_000_000 {
            std::hint::black_box(routine());
            iters += 1;
            elapsed = start.elapsed() + first;
        }
        self.total += elapsed;
        self.iters += iters;
    }
}

/// Declare a group of benchmark functions, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declare the bench entry point, criterion-style.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
