//! Hermetic stand-in for the subset of crates.io `proptest` 1.x this
//! workspace uses — the build container has no network access, so external
//! crates are replaced by local shims via `[patch.crates-io]`.
//!
//! Implemented surface (checked against every call site in the repo):
//! the `proptest!` macro with an optional `#![proptest_config(...)]` inner
//! attribute, `prop_assert!` / `prop_assert_eq!`, `any::<T>()`, numeric
//! range strategies, tuple strategies, `Strategy::prop_map`,
//! `proptest::collection::vec`, and `prop::sample::select`.
//!
//! Semantics: each property runs `cases` times over deterministic,
//! seed-derived random inputs (seeded from the property's name and the
//! case index, so failures reproduce across runs and machines). There is
//! **no shrinking** — a failing case reports its case index and panics
//! with the underlying assertion message.

/// Deterministic generator driving all strategies (SplitMix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded from the property name and case index so every run of every
    /// machine replays the identical case sequence.
    pub fn deterministic(name: &str, case: u32) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng {
            state: h ^ ((case as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15)),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A generator of values for one property argument.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Derived strategy applying `f` to every generated value.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                ((rng.next_u64() as u128 % span) as i128 + self.start as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                ((rng.next_u64() as u128 % span) as i128 + lo as i128) as $t
            }
        }
    )*};
}
impl_range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_strategy_float {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (self.end - self.start) * rng.unit_f64() as $t
            }
        }
    )*};
}
impl_range_strategy_float!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);

/// Types with a whole-domain default strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t { rng.next_u64() as $t }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.unit_f64() * 2.0 - 1.0
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        (rng.unit_f64() * 2.0 - 1.0) as f32
    }
}

/// Marker strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

pub mod collection {
    use super::{Strategy, TestRng};

    /// Size argument of [`vec`](fn@vec): a fixed length or a length range.
    pub trait SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty vec-size range");
            self.start + (rng.next_u64() as usize) % (self.end - self.start)
        }
    }

    /// Strategy of `Vec`s whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: Box<dyn SizeRange>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl SizeRange + 'static) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: Box::new(size),
        }
    }
}

pub mod sample {
    use super::{Strategy, TestRng};

    /// Strategy drawing uniformly from a fixed list.
    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[(rng.next_u64() as usize) % self.options.len()].clone()
        }
    }

    /// `prop::sample::select(options)`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select { options }
    }
}

/// The `prop::` alias module the prelude re-exports.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Runs one property over `cases` deterministic inputs. Used by the
/// `proptest!` expansion; not part of the public proptest API.
pub fn run_cases<F: FnMut(&mut TestRng)>(name: &str, cases: u32, mut body: F) {
    for case in 0..cases {
        let mut rng = TestRng::deterministic(name, case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!("proptest shim: property '{name}' failed at case {case}/{cases} (deterministic; rerun reproduces it)");
            std::panic::resume_unwind(payload);
        }
    }
}

#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                $crate::run_cases(stringify!($name), cfg.cases, |rng| {
                    $(let $arg = $crate::Strategy::generate(&($strategy), rng);)+
                    $body
                });
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strategy),+) $body
            )*
        }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary,
        ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(a in 3usize..9, b in 1u8..=4, f in -2.0f64..2.0) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((1..=4).contains(&b));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn tuples_and_map(pair in (0u32..10, 0u32..10).prop_map(|(x, y)| x + y)) {
            prop_assert!(pair < 20);
        }

        #[test]
        fn vec_strategy_sizes(v in crate::collection::vec(0u8..6, 1..12)) {
            prop_assert!(!v.is_empty() && v.len() < 12);
            prop_assert!(v.iter().all(|&x| x < 6));
        }

        #[test]
        fn select_draws_from_options(y in prop::sample::select(vec![5usize, 10, 20])) {
            prop_assert!([5, 10, 20].contains(&y));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut first: Vec<u64> = Vec::new();
        for case in 0..5 {
            let mut rng = crate::TestRng::deterministic("x", case);
            first.push(rng.next_u64());
        }
        for case in 0..5 {
            let mut rng = crate::TestRng::deterministic("x", case);
            assert_eq!(first[case as usize], rng.next_u64());
        }
    }
}
