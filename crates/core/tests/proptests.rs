//! Property-based tests for the AVCL's central guarantee: a masked match can
//! never violate the configured error threshold (Guaranteed policy), plus
//! structural invariants of thresholds, patterns and window budgets.

use anoc_core::avcl::{Avcl, MaskPolicy};
use anoc_core::data::DataType;
use anoc_core::threshold::ErrorThreshold;
use anoc_core::window::WindowBudget;
use proptest::prelude::*;

proptest! {
    /// The hardware (shift-based) error range never exceeds the exact range.
    #[test]
    fn shift_range_is_conservative(pct in 1u32..=100, v in any::<u32>()) {
        let t = ErrorThreshold::from_percent(pct).unwrap();
        prop_assert!(t.error_range(v) <= t.error_range_exact(v));
    }

    /// Integer approximation: every value matching a word's don't-care
    /// pattern is within the threshold of the word.
    #[test]
    fn int_threshold_guarantee(
        pct in 1u32..=100,
        word in any::<u32>(),
        noise in any::<u32>(),
    ) {
        let avcl = Avcl::new(ErrorThreshold::from_percent(pct).unwrap());
        let p = avcl.approx_pattern(word, DataType::Int);
        // Candidate = word with arbitrary don't-care bits.
        let candidate = (word & !p.mask()) | (noise & p.mask());
        prop_assert!(p.matches(candidate));
        let err = Avcl::relative_error(word, candidate, DataType::Int).unwrap();
        prop_assert!(
            err <= pct as f64 / 100.0 + 1e-12,
            "word={word:#x} cand={candidate:#x} err={err}"
        );
    }

    /// Float approximation: the same guarantee holds on the value domain,
    /// and sign/exponent are never touched.
    #[test]
    fn float_threshold_guarantee(
        pct in 1u32..=100,
        value in prop::num::f32::NORMAL,
        noise in any::<u32>(),
    ) {
        let avcl = Avcl::new(ErrorThreshold::from_percent(pct).unwrap());
        let word = value.to_bits();
        let p = avcl.approx_pattern(word, DataType::F32);
        let candidate = (word & !p.mask()) | (noise & p.mask());
        let cand_val = f32::from_bits(candidate);
        prop_assert_eq!(cand_val.is_sign_positive(), value.is_sign_positive());
        let err = Avcl::relative_error(word, candidate, DataType::F32).unwrap();
        prop_assert!(err <= pct as f64 / 100.0 + 1e-6, "{value} -> {cand_val}: {err}");
    }

    /// Special floats (zero, denormal, inf, NaN) always demand exact match.
    #[test]
    fn special_floats_bypass(pct in 1u32..=100, mantissa in 0u32..(1 << 23), sign in any::<bool>()) {
        let avcl = Avcl::new(ErrorThreshold::from_percent(pct).unwrap());
        for exp in [0u32, 0xFF] {
            let word = ((sign as u32) << 31) | (exp << 23) | mantissa;
            let p = avcl.approx_pattern(word, DataType::F32);
            prop_assert!(p.is_exact());
        }
    }

    /// The relaxed policy admits at least everything the guaranteed policy
    /// admits (it is a widening).
    #[test]
    fn relaxed_widens_guaranteed(pct in 1u32..=100, word in any::<u32>()) {
        let t = ErrorThreshold::from_percent(pct).unwrap();
        let g = Avcl::new(t).approx_pattern(word, DataType::Int);
        let r = Avcl::with_policy(t, MaskPolicy::Relaxed).approx_pattern(word, DataType::Int);
        prop_assert_eq!(g.mask() & !r.mask(), 0, "relaxed mask must cover guaranteed mask");
    }

    /// `allows` agrees with first principles.
    #[test]
    fn allows_matches_arithmetic(pct in 0u32..=100, p in any::<u32>(), a in any::<u32>()) {
        let t = if pct == 0 {
            ErrorThreshold::exact()
        } else {
            ErrorThreshold::from_percent(pct).unwrap()
        };
        let expected = (p.abs_diff(a) as u128) * 100 <= (p as u128) * (pct as u128);
        prop_assert_eq!(t.allows(p, a), expected);
    }

    /// Window budgets never let a 16-word window spend more than
    /// `16 × base`.
    #[test]
    fn window_budget_bounded(
        base in 1u32..=25,
        spend_fracs in prop::collection::vec(0.0f64..=1.0, 1..200),
    ) {
        let window = 16;
        let mut b = WindowBudget::new(base);
        let mut spent_this_window = 0.0;
        let mut i = 0u32;
        for f in spend_fracs {
            let allowance = b.next_threshold().percent() as f64;
            let spend = allowance * f / 100.0;
            spent_this_window += spend * 100.0;
            prop_assert!(
                spent_this_window <= (window * base) as f64 + 1e-6,
                "window overspent: {spent_this_window}"
            );
            b.record(spend);
            i += 1;
            if i.is_multiple_of(window) {
                spent_this_window = 0.0;
            }
        }
    }

    /// PCG stays in bounds and is deterministic.
    #[test]
    fn pcg_below_is_in_bounds(seed in any::<u64>(), bound in 1u32..=1_000_000) {
        let mut a = anoc_core::rng::Pcg32::seed_from_u64(seed);
        let mut b = anoc_core::rng::Pcg32::seed_from_u64(seed);
        for _ in 0..32 {
            let x = a.below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.below(bound));
        }
    }
}
