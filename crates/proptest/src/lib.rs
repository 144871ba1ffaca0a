//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so the workspace vendors
//! the subset of proptest 1.x it uses: the [`Strategy`](strategy::Strategy) trait with `prop_map`
//! / `prop_flat_map` / `boxed`, range and `any::<T>()` strategies, tuple
//! strategies, [`collection::vec`], [`option::of`], [`prop_oneof!`], and the
//! [`proptest!`] test macro with `ProptestConfig::with_cases`.
//!
//! Differences from upstream, deliberate and documented:
//!
//! * **No shrinking.** A failing case reports its deterministic case seed and
//!   the `Debug` form of its inputs instead of a minimized example.
//! * **Deterministic by construction.** Case `i` of test `t` derives its RNG
//!   from a fixed base seed, the test name, and `i` — reruns reproduce
//!   failures exactly with no persistence file.
//! * Failure is by panic (`prop_assert*` delegate to `assert*`), which the
//!   libtest harness reports per test function.

use std::rc::Rc;

/// Deterministic split-mix style RNG used for all generation.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds a generator.
    pub fn new(seed: u64) -> Self {
        TestRng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// Error type carried by generated test-case closures (`return Ok(())` in
/// test bodies type-checks against this).
#[derive(Debug)]
pub struct TestCaseError;

/// Per-test configuration. Only the case count is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use super::TestRng;
    use std::marker::PhantomData;
    use std::ops::Range;
    use std::rc::Rc;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Derives a second strategy from each generated value.
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F, S2>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap {
                inner: self,
                f,
                _marker: PhantomData,
            }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
        }
    }

    /// A constant strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
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
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F, S2> {
        inner: S,
        f: F,
        _marker: PhantomData<fn() -> S2>,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F, S2>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// A type-erased strategy (cheap to clone).
    pub struct BoxedStrategy<T>(pub(crate) Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(self.0.clone())
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// A uniform choice between boxed alternatives ([`crate::prop_oneof!`]).
    pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            assert!(!self.0.is_empty(), "prop_oneof! of zero strategies");
            let i = rng.below(self.0.len() as u64) as usize;
            self.0[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// A uniformly random value of a primitive type (see [`crate::any`]).
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(pub PhantomData<T>);

    /// Primitive types supported by [`crate::any`].
    pub trait Arbitrary: Sized {
        /// Draws one uniformly random value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A size specification for [`vec()`]: an exact length or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            let (lo, hi) = r.into_inner();
            assert!(lo <= hi, "empty vec size range");
            SizeRange { lo, hi: hi + 1 }
        }
    }

    /// A strategy producing `Vec`s of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let n = self.size.lo + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use super::strategy::Strategy;
    use super::TestRng;

    /// A strategy producing `Some(inner)` most of the time and `None`
    /// occasionally (upstream defaults Some-heavy; we use 3:1).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod bool {
    //! `bool` strategies.

    use super::strategy::Any;
    use std::marker::PhantomData;

    /// A uniformly random boolean.
    pub const ANY: Any<::core::primitive::bool> = Any(PhantomData);
}

/// A uniformly random value of a supported primitive type.
pub fn any<T: strategy::Arbitrary>() -> strategy::Any<T> {
    strategy::Any(std::marker::PhantomData)
}

/// Derives the deterministic RNG for case `case` of test `name`.
pub fn case_rng(name: &str, case: u32) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng::new(h ^ (u64::from(case) << 32) ^ u64::from(case))
}

/// Drop guard that reports the failing case's inputs when the body panics.
pub struct CaseReporter {
    /// Test name.
    pub name: &'static str,
    /// Case index within the run.
    pub case: u32,
    /// `Debug` rendering of the generated inputs.
    pub inputs: Rc<String>,
}

impl Drop for CaseReporter {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest case failed: {} case #{} inputs = {}",
                self.name, self.case, self.inputs
            );
        }
    }
}

pub mod prelude {
    //! Everything `use proptest::prelude::*` is expected to bring in.

    pub use crate as prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::{any, ProptestConfig};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// A uniform choice among strategies with a common value type. Weights
/// (`w => strat`) are accepted and ignored (uniform choice).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$($strat),+]
    };
    ($($strat:expr),+ $(,)?) => {{
        use $crate::strategy::Strategy as _;
        $crate::strategy::Union(vec![$($strat.boxed()),+])
    }};
}

/// `assert!` under a proptest body.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` under a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `assert_ne!` under a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// The proptest test macro: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                use $crate::strategy::Strategy as _;
                let config: $crate::ProptestConfig = $cfg;
                let strategies = ($($strat,)+);
                for case in 0..config.cases {
                    let mut rng = $crate::case_rng(stringify!($name), case);
                    let ($($arg,)+) = strategies.generate(&mut rng);
                    let inputs = ::std::rc::Rc::new(format!("{:?}", ($(&$arg,)+)));
                    let _reporter = $crate::CaseReporter {
                        name: stringify!($name),
                        case,
                        inputs,
                    };
                    // The closure gives `prop_assert!`'s `return Err(..)` an
                    // early-exit scope distinct from the case loop.
                    #[allow(clippy::redundant_closure_call)]
                    let result: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    result.expect("proptest case returned Err");
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_vecs() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(0u8..10, 0..5)
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3usize..9, y in any::<u16>(), b in prop::bool::ANY) {
            prop_assert!((3..9).contains(&x));
            let _ = (y, b);
        }

        #[test]
        fn vec_sizes_respected(v in small_vecs()) {
            prop_assert!(v.len() < 5);
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn oneof_and_flat_map(n in prop_oneof![Just(3usize), Just(7usize)],
                              pair in (0u32..5).prop_flat_map(|a| (Just(a), a..a + 3))) {
            prop_assert!(n == 3 || n == 7);
            let (a, b) = pair;
            prop_assert!(b >= a && b < a + 3);
        }

        #[test]
        fn option_of_produces_both(o in prop::option::of(0u8..3)) {
            if let Some(v) = o {
                prop_assert!(v < 3);
            }
        }

        #[test]
        fn early_return_ok_works(flag in any::<bool>()) {
            if flag {
                return Ok(());
            }
            prop_assert!(!flag);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a: Vec<u64> = (0..5).map(|c| crate::case_rng("t", c).next_u64()).collect();
        let b: Vec<u64> = (0..5).map(|c| crate::case_rng("t", c).next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(
            crate::case_rng("t", 0).next_u64(),
            crate::case_rng("u", 0).next_u64()
        );
    }

    #[test]
    fn map_composes() {
        let s = (0u32..10).prop_map(|x| x * 2);
        let mut rng = crate::TestRng::new(5);
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert!(v % 2 == 0 && v < 20);
        }
    }
}
