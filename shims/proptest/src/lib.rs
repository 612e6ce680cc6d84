//! Offline shim for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this crate implements the
//! slice of proptest the workspace uses: the [`proptest!`] macro over
//! `arg in strategy` parameters, [`prop_assert!`] / [`prop_assert_eq!`],
//! [`test_runner::ProptestConfig`], numeric-range and tuple strategies, and
//! [`collection::vec`].
//!
//! Differences from real proptest, by design:
//!
//! * **Deterministic**: case `i` of every test derives its RNG seed from the
//!   test name and `i`, so failures reproduce without a persistence file.
//! * **No shrinking**: a failing case reports its generated inputs via the
//!   panic message (`Debug`-formatted) instead of minimising them.
//!
//! Swapping in the real proptest is a `Cargo.toml`-only change; the macro
//! grammar used by the workspace is a strict subset of the real one.

#![forbid(unsafe_code)]

pub mod strategy {
    //! Value-generation strategies.

    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value: std::fmt::Debug;

        /// Generates one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`, mirroring
        /// `proptest::strategy::Strategy::prop_map`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            T: std::fmt::Debug,
            F: Fn(Self::Value) -> T,
        {
            Map { source: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, T, F> Strategy for Map<S, F>
    where
        S: Strategy,
        T: std::fmt::Debug,
        F: Fn(S::Value) -> T,
    {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            (self.f)(self.source.generate(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (S0 0)
        (S0 0, S1 1)
        (S0 0, S1 1, S2 2)
        (S0 0, S1 1, S2 2, S3 3)
        (S0 0, S1 1, S2 2, S3 3, S4 4)
        (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5)
    }
}

pub mod collection {
    //! Collection strategies, mirroring `proptest::collection`.

    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// Size bounds for generated collections.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            SizeRange {
                min: exact,
                max: exact + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(range: Range<usize>) -> Self {
            SizeRange {
                min: range.start,
                max: range.end.max(range.start + 1),
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(range: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *range.start(),
                max: range.end() + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of values from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Creates a strategy for vectors whose length is drawn from `size` and
    /// whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.min..self.size.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Test-execution configuration and failure plumbing.

    use std::fmt;

    /// Configuration for a `proptest!` block, mirroring
    /// `proptest::test_runner::Config`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` generated cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// A failed property, carried out of the test body by `prop_assert!`.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Creates a failure with the given explanation.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Derives the deterministic RNG for one test case from the test's name
    /// and the case index (FNV-1a over both).
    pub fn case_rng(test_name: &str, case: u32) -> rand::rngs::StdRng {
        use rand::SeedableRng;
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in test_name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= u64::from(case);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        rand::rngs::StdRng::seed_from_u64(hash)
    }
}

/// The common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Defines property tests over `arg in strategy` parameters.
///
/// Supports the subset of the real grammar used in this workspace: an
/// optional leading `#![proptest_config(expr)]`, then any number of
/// `#[test] fn name(args...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $config;
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::case_rng(stringify!($name), case);
                $(let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut rng);)+
                // Render the inputs before the body can move them.
                let inputs = format!("{:?}", ($(&$arg,)+));
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(err) = outcome {
                    panic!(
                        "proptest case {case} of {} failed: {err}\n  inputs: {inputs}",
                        stringify!($name),
                    );
                }
            }
        }
        $crate::__proptest_items!(($config) $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body, failing the current case
/// (not the whole process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Asserts two values are equal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right,
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples(
            a in 1usize..10,
            pair in (0u64..5, 0.0f64..1.0),
        ) {
            prop_assert!((1..10).contains(&a));
            prop_assert!(pair.0 < 5);
            prop_assert!((0.0..1.0).contains(&pair.1));
        }

        #[test]
        fn vec_strategy_respects_bounds(
            v in collection::vec((0usize..4, 0u8..2), 3..7),
        ) {
            prop_assert!(v.len() >= 3 && v.len() < 7);
            for (x, y) in &v {
                prop_assert!(*x < 4);
                prop_assert!(*y < 2);
            }
        }
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::strategy::Strategy;
        let strat = 0usize..1000;
        let a = strat.generate(&mut crate::test_runner::case_rng("t", 7));
        let b = strat.generate(&mut crate::test_runner::case_rng("t", 7));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        // No `#[test]` attribute: invoked manually by the wrapper below to
        // observe the failure panic.
        fn always_failing_property(x in 0usize..10) {
            prop_assert!(x > 100, "x was {x}");
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failing_case_panics_with_inputs() {
        always_failing_property();
    }
}
