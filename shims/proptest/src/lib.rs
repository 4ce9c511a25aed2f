#![allow(clippy::all)]
//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset the workspace's property tests use: the
//! [`proptest!`] macro over `arg in strategy` bindings, `prop_assert*!`,
//! `any::<T>()`, integer/float range strategies, tuple strategies, and the
//! `prop::{collection, option, sample}` helpers. Each test runs a fixed
//! number of random cases (`PROPTEST_CASES` env var, default 64; a test
//! that fixes its count with `with_cases` ignores the variable, one that
//! sets it with `cases_from_env_or` does not) from a seed derived
//! deterministically from the test name, so failures are reproducible
//! run-to-run. No shrinking: the failing case's values are
//! printed instead.

#![forbid(unsafe_code)]

pub mod strategy {
    //! The [`Strategy`] trait: a recipe for generating random values.

    use crate::test_runner::TestRunner;

    /// A source of random values of type `Self::Value`.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;
        /// Generates one value.
        fn generate(&self, runner: &mut TestRunner) -> Self::Value;

        /// Maps generated values through `f` (upstream's `prop_map`).
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, runner: &mut TestRunner) -> O {
            (self.f)(self.inner.generate(runner))
        }
    }

    /// Always generates a clone of the given value (upstream's `Just`).
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _runner: &mut TestRunner) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, runner: &mut TestRunner) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (runner.next() as u128) % span;
                    (self.start as i128 + off as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, runner: &mut TestRunner) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u128 + 1;
                    let off = (runner.next() as u128) % span;
                    (lo + off as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, runner: &mut TestRunner) -> f64 {
            self.start + runner.uniform() * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::Range<f32> {
        type Value = f32;
        fn generate(&self, runner: &mut TestRunner) -> f32 {
            self.start + (runner.uniform() as f32) * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($n:ident : $idx:tt),+);)*) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn generate(&self, runner: &mut TestRunner) -> Self::Value {
                    ($(self.$idx.generate(runner),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A: 0);
        (A: 0, B: 1);
        (A: 0, B: 1, C: 2);
        (A: 0, B: 1, C: 2, D: 3);
        (A: 0, B: 1, C: 2, D: 3, E: 4);
        (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
    }

    /// Strategy returned by [`crate::arbitrary::any`].
    pub struct Any<T>(pub(crate) std::marker::PhantomData<T>);

    macro_rules! any_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, runner: &mut TestRunner) -> $t {
                    runner.next() as $t
                }
            }
        )*};
    }

    any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, runner: &mut TestRunner) -> bool {
            runner.next() & 1 == 1
        }
    }

    impl Strategy for Any<f64> {
        type Value = f64;
        fn generate(&self, runner: &mut TestRunner) -> f64 {
            runner.uniform()
        }
    }

    impl Strategy for Any<crate::sample::Index> {
        type Value = crate::sample::Index;
        fn generate(&self, runner: &mut TestRunner) -> crate::sample::Index {
            crate::sample::Index::new(runner.next() as usize)
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` — the canonical strategy for a type.

    use crate::strategy::Any;

    /// Returns the canonical strategy for `T`.
    pub fn any<T>() -> Any<T>
    where
        Any<T>: crate::strategy::Strategy,
    {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    //! Collection strategies: `vec` and `btree_set`.

    use std::collections::BTreeSet;
    use std::ops::Range;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRunner;

    /// Strategy for `Vec<T>` with a size drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length is uniform in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, runner: &mut TestRunner) -> Vec<S::Value> {
            let n = self.size.generate(runner);
            (0..n).map(|_| self.element.generate(runner)).collect()
        }
    }

    /// Strategy for `BTreeSet<T>` with up to `size` elements (duplicates
    /// collapse, as with upstream's minimum-size-0 usage).
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates ordered sets whose elements come from `element`.
    pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, runner: &mut TestRunner) -> BTreeSet<S::Value> {
            let n = self.size.generate(runner);
            (0..n).map(|_| self.element.generate(runner)).collect()
        }
    }
}

pub mod option {
    //! `option::of` — optional values.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRunner;

    /// Strategy for `Option<T>`; `None` with probability one half.
    pub struct OptionStrategy<S>(S);

    /// Generates `Some` of the inner strategy half the time.
    pub fn of<S: Strategy>(element: S) -> OptionStrategy<S> {
        OptionStrategy(element)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, runner: &mut TestRunner) -> Option<S::Value> {
            if runner.next() & 1 == 0 {
                None
            } else {
                Some(self.0.generate(runner))
            }
        }
    }
}

pub mod sample {
    //! Sampling helpers: [`Index`].

    /// An index into a collection of as-yet-unknown size.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(usize);

    impl Index {
        pub(crate) fn new(raw: usize) -> Index {
            Index(raw)
        }

        /// Resolves the index against a collection of length `len`.
        ///
        /// # Panics
        /// Panics if `len` is zero, matching upstream.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            self.0 % len
        }
    }
}

pub mod test_runner {
    //! Deterministic case generation and failure plumbing.

    /// Drives value generation for one property test.
    pub struct TestRunner {
        state: u64,
    }

    impl TestRunner {
        /// Creates a runner seeded deterministically from a test name.
        pub fn deterministic(name: &str) -> TestRunner {
            // FNV-1a over the name; any fixed mapping works.
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for b in name.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRunner { state: h }
        }

        /// Next raw 64-bit value (SplitMix64).
        pub fn next(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn uniform(&mut self) -> f64 {
            (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// A failed property within one generated case.
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Creates a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError(msg.into())
        }

        /// The failure message.
        pub fn message(&self) -> &str {
            &self.0
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Per-test configuration (subset: case count).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Config {
        /// A config running `PROPTEST_CASES` cases when that variable is
        /// set, `cases` otherwise: for a property a CI step runs harder
        /// than the suite does. (Upstream reads the variable only in
        /// `default()`.)
        pub fn cases_from_env_or(cases: u32) -> Config {
            let env = std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok());
            Config { cases: env.unwrap_or(cases) }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config::cases_from_env_or(64)
        }
    }
}

pub mod prelude {
    //! Everything a property-test module needs in scope.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// The `prop::` module hierarchy (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::{collection, option, sample};
    }
}

/// Asserts a condition inside a `proptest!` body, failing the current
/// case (with the generated inputs printed) instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts two values compare equal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left), stringify!($right), l, r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(*l == *r, $($fmt)*);
            }
        }
    };
}

/// Asserts two values compare unequal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l != *r,
                    "assertion failed: `{} != {}`\n  both: {:?}",
                    stringify!($left), stringify!($right), l
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(*l != *r, $($fmt)*);
            }
        }
    };
}

/// Declares property tests: each `fn` runs its body against many
/// generated cases of its `arg in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::test_runner::Config::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        config = ($config:expr);
        $(
            $(#[$meta:meta])+
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                let mut runner =
                    $crate::test_runner::TestRunner::deterministic(stringify!($name));
                for case in 0..config.cases {
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&$strat, &mut runner);
                    )+
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name), case + 1, config.cases, e
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..10, y in -1.0f32..1.0, z in 0u8..2) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.0..1.0).contains(&y));
            prop_assert!(z < 2);
        }

        #[test]
        fn collections_respect_size(v in prop::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn index_resolves(i in any::<prop::sample::Index>()) {
            prop_assert!(i.index(7) < 7);
        }

        #[test]
        fn options_both_arms(o in prop::option::of(any::<u16>())) {
            match o {
                Some(_) | None => {}
            }
        }

        #[test]
        fn just_and_prop_map_compose(
            pair in (Just(7u8), (0u32..5).prop_map(|x| x * 2)),
            five in (0u8..2, Just(1u8), 0u8..2, Just(3u8), 0u8..2),
        ) {
            prop_assert_eq!(pair.0, 7);
            prop_assert!(pair.1 % 2 == 0 && pair.1 < 10);
            prop_assert_eq!((five.1, five.3), (1, 3));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]
        #[test]
        fn config_override_runs(x in 0u32..10) {
            prop_assert!(x < 10);
        }
    }

    #[test]
    fn prop_assert_short_circuits_to_err() {
        let check = |x: u8| -> Result<(), crate::test_runner::TestCaseError> {
            prop_assert!(x > 200, "x was {x}");
            Ok(())
        };
        assert!(check(5).is_err());
        assert!(check(201).is_ok());
    }

    #[test]
    fn deterministic_across_runs() {
        let gen = || {
            let mut r = crate::test_runner::TestRunner::deterministic("t");
            (0..8).map(|_| r.next()).collect::<Vec<_>>()
        };
        assert_eq!(gen(), gen());
    }
}
