//! A minimal, dependency-free property-testing harness exposing the
//! subset of the `proptest` API this workspace uses.
//!
//! The build must succeed with the network disabled, so the real
//! `proptest` crate cannot be fetched; the workspace instead aliases
//! this crate as `proptest` in `[dev-dependencies]`
//! (`proptest = { package = "summa-proptest-shim", path = … }`), and
//! the existing property tests compile unchanged.
//!
//! Supported surface:
//!
//! * [`Strategy`] with `prop_map`, `prop_flat_map`, `prop_filter`,
//!   `boxed`; strategies for integer ranges, tuples (2–4), [`Just`];
//! * [`collection::vec`];
//! * the [`proptest!`] macro with `#![proptest_config(…)]`,
//!   multiple `#[test] fn name(pat in strategy, …) { … }` items;
//! * `prop_assert!`, `prop_assert_eq!`, `prop_assert_ne!`,
//!   `prop_assume!`, `prop_oneof!`.
//!
//! Differences from real proptest: generation is a fixed-seed
//! SplitMix64 stream (fully deterministic per test name), and there is
//! **no shrinking** — a failure reports the case number and message
//! only.

use std::rc::Rc;

// ---------------------------------------------------------------------
// Deterministic RNG (SplitMix64).
// ---------------------------------------------------------------------

/// The deterministic generator handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded explicitly.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Derive a seed from a test name (FNV-1a) so every test gets a
    /// stable but distinct stream.
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng::new(h)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift; bias is negligible for test generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

// ---------------------------------------------------------------------
// Strategies.
// ---------------------------------------------------------------------

/// A value generator. Mirrors `proptest::strategy::Strategy`.
pub trait Strategy: Clone {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Value) -> U + Clone,
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy it selects.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        S2: Strategy,
        F: Fn(Self::Value) -> S2 + Clone,
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Retry generation until `f` accepts the value (up to an attempt
    /// cap, after which the last value is returned regardless).
    fn prop_filter<F>(self, _whence: &'static str, f: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Value) -> bool + Clone,
        Self: Sized,
    {
        Filter { inner: self, f }
    }

    /// Type-erase the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Rc::new(self),
        }
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U + Clone,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Output of [`Strategy::prop_flat_map`].
#[derive(Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2 + Clone,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Output of [`Strategy::prop_filter`].
#[derive(Clone)]
pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool + Clone,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        let mut last = self.inner.generate(rng);
        for _ in 0..1000 {
            if (self.f)(&last) {
                break;
            }
            last = self.inner.generate(rng);
        }
        last
    }
}

/// Object-safe generation, used by [`BoxedStrategy`].
trait ErasedStrategy<T> {
    fn generate_erased(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> ErasedStrategy<S::Value> for S {
    fn generate_erased(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased, reference-counted strategy.
pub struct BoxedStrategy<T> {
    inner: Rc<dyn ErasedStrategy<T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.inner.generate_erased(rng)
    }
}

/// Always produce a clone of one value.
#[derive(Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed alternatives — the engine behind
/// [`prop_oneof!`].
pub fn union<T>(alternatives: Vec<BoxedStrategy<T>>) -> BoxedStrategy<T>
where
    T: 'static,
{
    assert!(
        !alternatives.is_empty(),
        "prop_oneof! needs at least one arm"
    );
    UnionStrategy { alternatives }.boxed()
}

struct UnionStrategy<T> {
    alternatives: Vec<BoxedStrategy<T>>,
}

impl<T> Clone for UnionStrategy<T> {
    fn clone(&self) -> Self {
        UnionStrategy {
            alternatives: self.alternatives.clone(),
        }
    }
}

impl<T> Strategy for UnionStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.alternatives.len() as u64) as usize;
        self.alternatives[i].generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<char> {
    type Value = char;
    fn generate(&self, rng: &mut TestRng) -> char {
        let (lo, hi) = (self.start as u32, self.end as u32);
        assert!(lo < hi, "empty range strategy");
        char::from_u32(lo + rng.below((hi - lo) as u64) as u32).unwrap_or(self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $v:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($v,)+) = self;
                ($($v.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A a)
    (A a, B b)
    (A a, B b, C c)
    (A a, B b, C c, D d)
    (A a, B b, C c, D d, E e)
}

impl Strategy for bool {
    type Value = bool;
    fn generate(&self, _rng: &mut TestRng) -> bool {
        *self
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// A strategy for `Vec<S::Value>` with lengths drawn from `sizes`.
    pub fn vec<S: Strategy>(element: S, sizes: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, sizes }
    }

    /// Output of [`vec`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        sizes: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.sizes.generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------
// Runner plumbing.
// ---------------------------------------------------------------------

/// Configuration accepted by `#![proptest_config(…)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why a generated case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed; the case (and test) fails.
    Fail(String),
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
}

impl TestCaseError {
    /// Construct a failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// Drive one property: generate inputs and run `case` up to
/// `config.cases` times. Called by the [`proptest!`] expansion.
pub fn run_property(
    name: &str,
    config: &ProptestConfig,
    mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    let mut rng = TestRng::from_name(name);
    let mut passed = 0u32;
    let mut rejected = 0u64;
    let max_rejects = (config.cases as u64) * 64;
    while passed < config.cases {
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                if rejected > max_rejects {
                    panic!(
                        "property '{name}': too many prop_assume! rejections \
                         ({rejected} rejects for {passed} passes)"
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("property '{name}' failed at case {passed}: {msg}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Macros.
// ---------------------------------------------------------------------

/// The property-test declaration macro (see module docs for the
/// supported grammar).
#[macro_export]
macro_rules! proptest {
    // With a leading config attribute.
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    // Without one.
    ($(#[$meta:meta])* fn $($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default())
            $(#[$meta])* fn $($rest)*);
    };
    (@with_config ($cfg:expr)) => {};
    (@with_config ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        #[test]
        $(#[$meta])*
        fn $name() {
            use $crate::Strategy as _;
            let config = $cfg;
            // Strategies are built once, like real proptest.
            let strategy = ($($strat,)+);
            $crate::run_property(stringify!($name), &config, |rng| {
                let ($($arg,)+) = strategy.generate(rng);
                $body
                Ok(())
            });
        }
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
}

/// Assert inside a property; failure fails the case with a message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!(
                "prop_assert!({}) failed", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return Err($crate::TestCaseError::fail(format!(
                "prop_assert_eq! failed: {:?} != {:?}", a, b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if *a == *b {
            return Err($crate::TestCaseError::fail(format!(
                "prop_assert_ne! failed: both {:?}",
                a
            )));
        }
    }};
}

/// Skip the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategy arms of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        use $crate::Strategy as _;
        $crate::union(vec![$($arm.boxed()),+])
    }};
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}
