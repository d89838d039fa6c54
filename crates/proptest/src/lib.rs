//! A vendored, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace ships this minimal implementation of the `proptest` API
//! subset its test suites actually use: the [`proptest!`] macro with
//! `name in strategy` bindings, `any::<T>()`, integer/float range
//! strategies, `prop::collection::vec`, `prop_oneof!`, `Just`, tuples,
//! `prop_map`, `prop::num::f32::NORMAL`, `prop::sample::select`, the
//! `prop_assert*` / `prop_assume!` macros and `ProptestConfig`.
//!
//! Differences from real proptest:
//!
//! * inputs are generated from a fixed deterministic seed sequence, so a
//!   given binary always tests the same cases (good for CI, no flakes);
//! * there is no shrinking — failures report the case index and message;
//! * the default case count is 256, overridable per-block with
//!   `ProptestConfig::with_cases` or globally with the
//!   `ANOC_PROPTEST_CASES` environment variable.

pub mod strategy;
pub mod test_runner;

/// Strategy combinators namespaced like the real crate (`prop::...`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::{SizeRange, Strategy, VecStrategy};

        /// A strategy producing `Vec`s of `elem` values whose length is
        /// drawn uniformly from `sizes` (a `usize` range or exact length).
        pub fn vec<E: Strategy>(elem: E, sizes: impl Into<SizeRange>) -> VecStrategy<E> {
            VecStrategy {
                elem,
                sizes: sizes.into(),
            }
        }
    }

    /// Numeric strategies.
    pub mod num {
        /// `f32` strategies.
        pub mod f32 {
            /// Generates normal (finite, non-zero, non-subnormal) floats of
            /// either sign.
            pub const NORMAL: NormalF32 = NormalF32;

            /// See [`NORMAL`].
            #[derive(Clone, Copy, Debug)]
            pub struct NormalF32;

            impl crate::strategy::Strategy for NormalF32 {
                type Value = f32;
                fn generate(&self, rng: &mut crate::test_runner::TestRng) -> f32 {
                    loop {
                        let v = f32::from_bits(rng.next_u32());
                        if v.is_normal() {
                            return v;
                        }
                    }
                }
            }
        }
    }

    /// Sampling strategies.
    pub mod sample {
        use crate::strategy::{Select, Strategy};
        use crate::test_runner::TestRng;

        /// Picks uniformly from an explicit list of values.
        pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
            assert!(!items.is_empty(), "cannot select from an empty list");
            Select { items }
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn generate(&self, rng: &mut TestRng) -> T {
                self.items[rng.below(self.items.len() as u32) as usize].clone()
            }
        }
    }
}

/// Everything a test file needs, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

pub use strategy::{any, Just, Strategy};
pub use test_runner::ProptestConfig;
