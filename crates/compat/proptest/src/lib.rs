//! Offline stand-in for `proptest`.
//!
//! The build environment has no network access, so this crate implements the
//! subset of proptest's API the workspace's property tests use: the
//! [`Strategy`] trait over numeric ranges, tuples, [`collection::vec`],
//! `prop_map`, [`prop_oneof!`], [`any`], and the [`proptest!`] /
//! [`prop_assert!`] / [`prop_assume!`] macros. Cases are generated from a
//! per-test deterministic RNG (seeded from the test name), so failures are
//! reproducible run to run.
//!
//! Differences from upstream: no shrinking (a failing case panics with the
//! sampled values unreduced) and no persisted failure regressions. Both are
//! debugging conveniences, not soundness properties.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod strategy;

pub use strategy::{BoxedStrategy, Just, Map, Strategy, Union};

/// Per-test configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Machinery used by the generated test bodies.
pub mod test_runner {
    use super::*;

    /// Deterministic RNG for one property, derived from the test name so
    /// every property explores an independent stream.
    pub fn rng_for(test_name: &str) -> StdRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        StdRng::seed_from_u64(h)
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Samples an arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen_range(0u8..2) == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($ty:ty),*) => {$(
        impl Arbitrary for $ty {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen_range(<$ty>::MIN..=<$ty>::MAX)
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy producing arbitrary values of `T`.
pub struct AnyStrategy<T>(core::marker::PhantomData<fn() -> T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy of all values of `T` (proptest's `any::<T>()`).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(core::marker::PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::StdRng;
    use rand::Rng;

    /// Acceptable length specifications for [`vec()`].
    pub trait IntoVecLen {
        /// Samples a concrete length.
        fn sample_len(&self, rng: &mut StdRng) -> usize;
    }

    impl IntoVecLen for usize {
        fn sample_len(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl IntoVecLen for core::ops::Range<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy for vectors whose elements come from `element`.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: IntoVecLen> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A vector strategy with the given element strategy and length.
    pub fn vec<S: Strategy, L: IntoVecLen>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }
}

/// Everything a `use proptest::prelude::*` should bring in.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        ProptestConfig,
    };
}

/// Defines property tests. Each function body runs `config.cases` times
/// with fresh samples of its `name in strategy` arguments.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            #[allow(clippy::redundant_closure_call)]
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::rng_for(stringify!($name));
                for _case in 0..config.cases {
                    $( let $arg = $crate::Strategy::sample(&($strat), &mut rng); )*
                    // The closure gives `prop_assume!` an early exit that
                    // skips just this case.
                    (|| { $body })();
                }
            }
        )*
    };
}

/// Asserts a condition inside a property (panics with the condition text).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// A strategy choosing uniformly between the given sub-strategies (all must
/// produce the same value type).
#[macro_export]
macro_rules! prop_oneof {
    ( $( $arm:expr ),+ $(,)? ) => {
        $crate::Union::new(vec![ $( $crate::Strategy::boxed($arm) ),+ ])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in -8.0f64..8.0, n in 1usize..10) {
            prop_assert!((-8.0..8.0).contains(&x));
            prop_assert!((1..10).contains(&n));
        }

        #[test]
        fn tuples_and_vec(pair in (0u64..5, 0u64..5), v in crate::collection::vec(0u32..100, 7)) {
            prop_assert!(pair.0 < 5 && pair.1 < 5);
            prop_assert_eq!(v.len(), 7);
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn oneof_picks_either_arm(delta in prop_oneof![0.5f64..1.0, -1.0f64..-0.5]) {
            prop_assert!((0.5..1.0).contains(&delta) || (-1.0..-0.5).contains(&delta));
        }

        #[test]
        fn assume_skips(x in 0u32..10) {
            prop_assume!(x != 3);
            prop_assert_ne!(x, 3);
        }

        #[test]
        fn map_and_any(flag in any::<bool>(), doubled in (0u32..8).prop_map(|x| x * 2)) {
            let _: bool = flag;
            prop_assert_eq!(doubled % 2, 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::rng_for("some_test");
        let mut b = crate::test_runner::rng_for("some_test");
        let sa = crate::Strategy::sample(&(0.0f64..1.0), &mut a);
        let sb = crate::Strategy::sample(&(0.0f64..1.0), &mut b);
        assert_eq!(sa, sb);
    }
}
