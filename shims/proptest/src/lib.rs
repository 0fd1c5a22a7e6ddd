//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest this workspace's property tests use:
//! the [`Strategy`] trait with `prop_map` / `prop_flat_map` / `boxed`,
//! range and tuple strategies, [`collection::vec`] /
//! [`collection::hash_set`], [`any`], [`ProptestConfig`], and the
//! [`proptest!`] / `prop_assert*` macros.
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking.** A failing case panics with the case's seed; re-run
//!   with the same test name to reproduce (generation is a pure function
//!   of `(test name, case index)`).
//! * **Deterministic.** Upstream seeds from the OS; this shim derives all
//!   entropy from the test name, so CI runs are bit-reproducible.

use std::collections::HashSet;
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The RNG driving value generation.
pub type TestRng = ChaCha8Rng;

/// Build the deterministic RNG for one test case.
///
/// Public only for the [`proptest!`] macro expansion; not part of the
/// emulated upstream API.
#[doc(hidden)]
pub fn __case_rng(test_name: &str, case: u32) -> TestRng {
    // FNV-1a over the test name, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut rng = TestRng::seed_from_u64(h);
    rng.set_stream(case as u64);
    rng
}

/// Runner configuration (subset: case count).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 64 keeps the (many) property suites in
        // this workspace fast while still exercising each property broadly.
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values of an associated type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy `f` derives
    /// from it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erase the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Object-safe core used by [`BoxedStrategy`].
trait DynStrategy {
    type Value;
    fn generate_dyn(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy> DynStrategy for S {
    type Value = S::Value;
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_dyn(rng)
    }
}

/// Strategy yielding one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// [`Strategy::prop_flat_map`] adapter.
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
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

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

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

/// A `Vec` of strategies generates element-wise (upstream's
/// `Vec<BoxedStrategy<T>>` pattern).
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        self.iter().map(|s| s.generate(rng)).collect()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generate one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen::<$t>()
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<f64>()
    }
}

macro_rules! impl_arbitrary_tuple {
    ($($name:ident),+) => {
        impl<$($name: Arbitrary),+> Arbitrary for ($($name,)+) {
            fn arbitrary(rng: &mut TestRng) -> Self {
                ($($name::arbitrary(rng),)+)
            }
        }
    };
}
impl_arbitrary_tuple!(A);
impl_arbitrary_tuple!(A, B);
impl_arbitrary_tuple!(A, B, C);
impl_arbitrary_tuple!(A, B, C, D);

/// Strategy for [`any`].
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

pub mod collection {
    //! Collection strategies (`vec`, `hash_set`).

    use super::*;

    /// A size specification: an exact length or a half-open/inclusive
    /// range of lengths.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    impl SizeRange {
        fn draw(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.lo..=self.hi_inclusive)
        }
    }

    /// Strategy for vectors of `element` values.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.draw(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy for hash sets of `element` values.
    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.draw(rng);
            let mut out = HashSet::with_capacity(n);
            // Collision-tolerant: bail after a generous attempt budget so
            // narrow domains cannot loop forever.
            let mut attempts = 0usize;
            while out.len() < n && attempts < 10 * (n + 10) {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }

    /// A hash set whose cardinality is drawn from `size` (best effort on
    /// narrow domains).
    pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        HashSetStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    //! One-stop import, mirroring `proptest::prelude`.

    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, BoxedStrategy, Just,
        ProptestConfig, Strategy,
    };
}

/// Define property tests. Each case draws fresh random inputs; a panic in
/// the body fails the test (no shrinking — see the crate docs).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for __case in 0..config.cases {
                    let mut __rng = $crate::__case_rng(stringify!($name), __case);
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

/// Assert inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Assert inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn case_rng_is_reproducible() {
        use rand::RngCore;
        let mut a = __case_rng("t", 3);
        let mut b = __case_rng("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = __case_rng("t", 4);
        assert_ne!(__case_rng("t", 3).next_u64(), c.next_u64());
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = __case_rng("vec", 0);
        for _ in 0..100 {
            let v = collection::vec(0u64..10, 2..5).generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn hash_set_strategy_distinct() {
        let mut rng = __case_rng("hs", 0);
        let s = collection::hash_set(0u64..1_000_000, 10..11).generate(&mut rng);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn flat_map_and_boxed_compose() {
        let strat = (2usize..6).prop_flat_map(|n| {
            let per: Vec<BoxedStrategy<u32>> =
                (0..n).map(|i| (0..(i as u32 + 1)).boxed()).collect();
            per
        });
        let mut rng = __case_rng("fm", 1);
        for _ in 0..50 {
            let v = strat.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            for (i, &x) in v.iter().enumerate() {
                assert!(x <= i as u32);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The macro itself: patterns, mut bindings, trailing comma.
        #[test]
        fn macro_smoke(mut xs in collection::vec(any::<u8>(), 1..4), k in 0u64..5,) {
            xs.push(k as u8);
            prop_assert!(xs.len() >= 2);
            prop_assert_eq!(xs.last().copied(), Some(k as u8));
            prop_assert_ne!(xs.len(), 0);
        }
    }
}
