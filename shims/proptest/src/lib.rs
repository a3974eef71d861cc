//! Offline shim for the `proptest` crate.
//!
//! CI has no route to crates.io, so this crate reimplements the slice of
//! proptest the workspace's property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`,
//! range/tuple/collection/bool strategies, `prop_oneof!`, the
//! `proptest!` test macro, and `prop_assert!`/`prop_assert_eq!`. Cases are
//! generated from a deterministic per-test seed (overridable with the
//! `PROPTEST_SEED` environment variable); there is **no shrinking** — a
//! failing case prints its inputs and panics.

use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod strategy {
    use super::TestRng;
    use rand::RngCore;

    /// A generator of values of one type.
    ///
    /// Unlike real proptest there is no value tree: `generate` draws a
    /// single concrete value, and failures are reported without shrinking.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erase the strategy (needed by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice among boxed alternatives (`prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// A union over `arms`; must be non-empty.
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = (rng.next_u64() % self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    /// A strategy that always yields clones of one value.
    #[derive(Debug, Clone)]
    pub struct Just<V: Clone>(pub V);

    impl<V: Clone> Strategy for Just<V> {
        type Value = V;
        fn generate(&self, _rng: &mut TestRng) -> V {
            self.0.clone()
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rand::Rng::random_range(rng, self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rand::Rng::random_range(rng, self.clone())
                }
            }
        )*};
    }
    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! tuple_strategy {
        ($($name:ident),*) => {
            impl<$($name: Strategy),*> Strategy for ($($name,)*) {
                type Value = ($($name::Value,)*);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)*) = self;
                    ($($name.generate(rng),)*)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
}

pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use rand::RngCore;

    /// Strategy for `Vec`s with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    /// `Vec` strategy: each element from `element`, length uniform in `size`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod bool {
    use super::strategy::Strategy;
    use super::TestRng;
    use rand::RngCore;

    /// The uniform boolean strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Uniform `true`/`false`.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod test_runner {
    /// Per-`proptest!`-block configuration (the `cases` knob only).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }
}

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// Build the RNG for one property: deterministic from the property's name
/// unless `PROPTEST_SEED` overrides it.
pub fn rng_for(test_name: &str) -> TestRng {
    if let Ok(s) = std::env::var("PROPTEST_SEED") {
        if let Ok(seed) = s.trim().parse::<u64>() {
            return TestRng::seed_from_u64(seed);
        }
    }
    // FNV-1a over the name: stable across runs and platforms.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng::seed_from_u64(h)
}

/// Everything the tests `use proptest::prelude::*` for.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Map, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Assert inside a property; formats like `assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a property; formats like `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Define property tests: each `fn name(arg in strategy, ...)` runs its body
/// over `cases` generated inputs, printing the inputs of a failing case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::rng_for(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..cfg.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                let __inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; "),*),
                    $(&$arg),*
                );
                let __outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(|| $body),
                );
                if let Err(payload) = __outcome {
                    eprintln!(
                        "proptest {}: case {}/{} failed with inputs: {}",
                        stringify!($name), __case + 1, cfg.cases, __inputs
                    );
                    ::std::panic::resume_unwind(payload);
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small() -> impl Strategy<Value = u32> {
        (0u32..10).prop_map(|x| x * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in -4i32..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-4..=4).contains(&y));
        }

        #[test]
        fn maps_and_unions_compose(v in crate::collection::vec(
            prop_oneof![small().prop_map(|x| x as i64), -9i64..0], 1..20)
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            for x in v {
                prop_assert!((-9..20).contains(&x));
                if x >= 0 {
                    prop_assert_eq!(x % 2, 0);
                }
            }
        }

        #[test]
        fn tuples_and_bool_any(t in (0u8..5, crate::bool::ANY, 0.0f64..1.0)) {
            prop_assert!(t.0 < 5 && t.2 >= 0.0 && t.2 < 1.0);
        }
    }

    #[test]
    fn deterministic_without_env_seed() {
        if std::env::var("PROPTEST_SEED").is_ok() {
            return;
        }
        let mut a = crate::rng_for("x");
        let mut b = crate::rng_for("x");
        let s = 0u64..100;
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}
