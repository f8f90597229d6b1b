//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no crates.io access, so this crate vendors
//! the slice of proptest the workspace's property tests use: the
//! [`Strategy`] trait (ranges, tuples, `prop_map`, `prop_flat_map`),
//! [`collection::vec`], the [`proptest!`] macro, [`ProptestConfig`], and
//! the `prop_assert*` macros.
//!
//! Differences from upstream, deliberate for a zero-dependency shim:
//!
//! * **No shrinking.** A failing case panics with the sampled values via
//!   the assertion message; there is no minimization pass.
//! * **Deterministic seeding.** Each test function derives its RNG seed
//!   from its own name (FNV-1a), so failures reproduce exactly across
//!   runs and machines. Set `PROPTEST_SEED` to explore other streams.
//!
//! Both trade-offs keep the *property* semantics intact: every test body
//! still runs against `cases` independently sampled inputs.

pub use rand::rngs::StdRng;
use rand::Rng;
pub use rand::SeedableRng;

/// Runner configuration (subset of upstream's `ProptestConfig`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of random values for property tests.
///
/// Upstream proptest separates strategies from value trees to support
/// shrinking; this shim collapses the two into direct sampling.
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Sample one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Transform every sampled value with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Build a dependent strategy from every sampled value.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A strategy producing one fixed value (upstream's `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8, f64, f32);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

pub mod collection {
    //! Collection strategies (subset: `vec`).

    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Length specification for [`vec()`]: an exact size or a half-open
    /// range (mirrors upstream's `Into<SizeRange>` bounds).
    pub trait IntoSizeRange {
        /// Convert to a half-open `start..end` length range.
        fn into_size_range(self) -> core::ops::Range<usize>;
    }

    impl IntoSizeRange for usize {
        fn into_size_range(self) -> core::ops::Range<usize> {
            self..self + 1
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn into_size_range(self) -> core::ops::Range<usize> {
            self
        }
    }

    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn into_size_range(self) -> core::ops::Range<usize> {
            *self.start()..*self.end() + 1
        }
    }

    /// Strategy for `Vec`s with element strategy `S` and a random length.
    pub struct VecStrategy<S> {
        elem: S,
        len: core::ops::Range<usize>,
    }

    /// `Vec` strategy: length uniform in `len`, elements from `elem`.
    pub fn vec<S: Strategy>(elem: S, len: impl IntoSizeRange) -> VecStrategy<S> {
        VecStrategy {
            elem,
            len: len.into_size_range(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = if self.len.start + 1 >= self.len.end {
                self.len.start
            } else {
                rng.gen_range(self.len.clone())
            };
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// FNV-1a hash of a string, used to derive per-test RNG seeds.
#[doc(hidden)]
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Resolve the RNG seed for a test: `PROPTEST_SEED` env override, else a
/// hash of the test name.
#[doc(hidden)]
pub fn resolve_seed(test_name: &str) -> u64 {
    match std::env::var("PROPTEST_SEED") {
        Ok(v) => v
            .parse::<u64>()
            .unwrap_or_else(|_| fnv1a(&v) ^ fnv1a(test_name)),
        Err(_) => fnv1a(test_name),
    }
}

/// Property-test entry macro (subset of upstream `proptest!`).
///
/// Supports an optional leading `#![proptest_config(expr)]` followed by
/// any number of `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$attr:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let __seed = $crate::resolve_seed(concat!(module_path!(), "::", stringify!($name)));
            let mut __rng =
                <$crate::StdRng as $crate::SeedableRng>::seed_from_u64(__seed);
            for __case in 0..__cfg.cases {
                let _ = __case;
                $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Property assertion (plain `assert!` in this shim — no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Property equality assertion (plain `assert_eq!` in this shim).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Property inequality assertion (plain `assert_ne!` in this shim).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = <super::StdRng as super::SeedableRng>::seed_from_u64(1);
        for _ in 0..1000 {
            let v = (3usize..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let f = (-1.0f64..2.0).generate(&mut rng);
            assert!((-1.0..2.0).contains(&f));
        }
    }

    #[test]
    fn map_and_flat_map_compose() {
        let mut rng = <super::StdRng as super::SeedableRng>::seed_from_u64(2);
        let s = (2usize..5)
            .prop_flat_map(|n| super::collection::vec(0usize..n, 1..4).prop_map(move |v| (n, v)));
        for _ in 0..200 {
            let (n, v) = s.generate(&mut rng);
            assert!((2..5).contains(&n));
            assert!((1..4).contains(&v.len()));
            assert!(v.iter().all(|&x| x < n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro path itself: tuples, vec, trailing comma.
        #[test]
        fn macro_form_works(
            (a, b) in (0usize..5, 0usize..5),
            xs in crate::collection::vec(-1.0f64..1.0, 0..8),
        ) {
            prop_assert!(a < 5 && b < 5);
            prop_assert!(xs.len() < 8);
            prop_assert_eq!(xs.len(), xs.len());
        }
    }
}
