//! The Approximate Value Compute Logic (AVCL) — the core of VAXX (§3.2,
//! Figure 4 of the paper).
//!
//! For a data word and an error threshold the AVCL computes how many low bits
//! of the word are *don't-cares* for approximate matching: any reference
//! pattern agreeing on the remaining high bits is an acceptable approximation.
//! Integers are handled natively; IEEE-754 single-precision floats have their
//! 23-bit mantissa extracted, concatenated with the implicit leading 1 to form
//! a 24-bit significand, and pushed through the same integer logic. Floats
//! whose exponent is all-zeros or all-ones (zero, denormals, infinities, NaN)
//! bypass approximation, as does anything when the block is not annotated
//! approximable.

use crate::data::DataType;
use crate::threshold::ErrorThreshold;

/// Number of explicit mantissa bits in an IEEE-754 single-precision float.
pub const F32_MANTISSA_BITS: u32 = 23;

/// How don't-care mask widths are derived from the error range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MaskPolicy {
    /// `k = floor(log2(range + 1))`, so `2^k - 1 <= range`: the produced
    /// approximation **never** violates the threshold. This is the default.
    #[default]
    Guaranteed,
    /// Rounds the range and the mask width up, reproducing the paper's §3.2
    /// worked example (value 9 at 20% → pattern `10xx`, which admits a
    /// worst-case error of 3/9 ≈ 33%). Useful for like-for-like comparison
    /// with the paper; trades a slightly looser bound for more matches.
    Relaxed,
}

/// A value with a don't-care low-bit mask — the ternary pattern stored in the
/// DI-VAXX TCAM and used for masked comparison in FP-VAXX.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ApproxPattern {
    value: u32,
    /// 1-bits mark don't-care positions (always a contiguous low-bit run).
    mask: u32,
}

impl ApproxPattern {
    /// Creates a pattern from a value and a don't-care mask.
    pub fn new(value: u32, mask: u32) -> Self {
        ApproxPattern { value, mask }
    }

    /// An exact pattern (no don't-care bits).
    pub fn exact(value: u32) -> Self {
        ApproxPattern { value, mask: 0 }
    }

    /// The underlying value.
    #[inline]
    pub fn value(&self) -> u32 {
        self.value
    }

    /// The don't-care bit mask.
    #[inline]
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// The canonical (high-bit) part compared during matching.
    #[inline]
    pub fn base(&self) -> u32 {
        self.value & !self.mask
    }

    /// Number of don't-care bits.
    #[inline]
    pub fn dont_care_bits(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Whether `candidate` matches this pattern (TCAM semantics: all
    /// non-masked bits equal).
    ///
    /// ```
    /// use anoc_core::avcl::ApproxPattern;
    /// let p = ApproxPattern::new(0b1001, 0b0011); // "10xx"
    /// assert!(p.matches(0b1000) && p.matches(0b1011));
    /// assert!(!p.matches(0b1100));
    /// ```
    #[inline]
    pub fn matches(&self, candidate: u32) -> bool {
        (candidate & !self.mask) == self.base()
    }

    /// Whether this pattern is exact (no tolerance).
    #[inline]
    pub fn is_exact(&self) -> bool {
        self.mask == 0
    }
}

/// The Approximate Value Compute Logic.
///
/// Combinational in the paper's design; its timing shows up in the codec
/// latency models, not here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Avcl {
    threshold: ErrorThreshold,
    policy: MaskPolicy,
}

impl Avcl {
    /// Creates an AVCL for `threshold` with the default (guaranteed) policy.
    pub fn new(threshold: ErrorThreshold) -> Self {
        Avcl {
            threshold,
            policy: MaskPolicy::Guaranteed,
        }
    }

    /// Creates an AVCL with an explicit [`MaskPolicy`].
    pub fn with_policy(threshold: ErrorThreshold, policy: MaskPolicy) -> Self {
        Avcl { threshold, policy }
    }

    /// The configured threshold.
    #[inline]
    pub fn threshold(&self) -> ErrorThreshold {
        self.threshold
    }

    /// The configured mask policy.
    #[inline]
    pub fn policy(&self) -> MaskPolicy {
        self.policy
    }

    /// Number of don't-care bits tolerated by a value of the given unsigned
    /// `magnitude`.
    pub fn dont_care_width(&self, magnitude: u32) -> u32 {
        let range = match self.policy {
            MaskPolicy::Guaranteed => self.threshold.error_range(magnitude) as u64,
            MaskPolicy::Relaxed => {
                // ceil(v * e / 100)
                (magnitude as u64 * self.threshold.percent() as u64).div_ceil(100)
            }
        };
        match self.policy {
            // largest k with 2^k - 1 <= range
            MaskPolicy::Guaranteed => (range + 1).ilog2(),
            // smallest k with 2^k - 1 >= range (paper's worked example)
            MaskPolicy::Relaxed => {
                if range == 0 {
                    0
                } else {
                    64 - range.leading_zeros()
                }
            }
        }
    }

    /// Computes the ternary approximate pattern for `word` (Figure 4
    /// datapath). For floats the mask is confined to the mantissa and special
    /// exponents bypass approximation entirely.
    pub fn approx_pattern(&self, word: u32, dtype: DataType) -> ApproxPattern {
        if self.threshold.is_exact() {
            return ApproxPattern::exact(word);
        }
        match dtype {
            DataType::Int => {
                let magnitude = (word as i32).unsigned_abs();
                let k = self.dont_care_width(magnitude);
                ApproxPattern::new(word, low_mask(k))
            }
            DataType::F32 => {
                if float_bypass(word) {
                    return ApproxPattern::exact(word);
                }
                let sig = significand(word);
                let k = self.dont_care_width(sig).min(F32_MANTISSA_BITS);
                ApproxPattern::new(word, low_mask(k))
            }
        }
    }

    /// Batch variant of [`Avcl::approx_pattern`]: computes the ternary
    /// patterns of eight contiguous words in one call. The AVCL datapath is
    /// replicated per lane in hardware, so the eight masks come out of one
    /// table iteration; callers that walk a cache block eight words at a time
    /// (the wide-compare encode loops) hoist the per-word dispatch out of
    /// their inner loop this way.
    pub fn approx_pattern8(&self, words: &[u32; 8], dtype: DataType) -> [ApproxPattern; 8] {
        let mut out = [ApproxPattern::exact(0); 8];
        if self.threshold.is_exact() {
            for (lane, &word) in out.iter_mut().zip(words) {
                *lane = ApproxPattern::exact(word);
            }
            return out;
        }
        match dtype {
            DataType::Int => {
                for (lane, &word) in out.iter_mut().zip(words) {
                    let k = self.dont_care_width((word as i32).unsigned_abs());
                    *lane = ApproxPattern::new(word, low_mask(k));
                }
            }
            DataType::F32 => {
                for (lane, &word) in out.iter_mut().zip(words) {
                    *lane = if float_bypass(word) {
                        ApproxPattern::exact(word)
                    } else {
                        let k = self
                            .dont_care_width(significand(word))
                            .min(F32_MANTISSA_BITS);
                        ApproxPattern::new(word, low_mask(k))
                    };
                }
            }
        }
        out
    }

    /// Whether `reference` is an acceptable approximation of `word` under this
    /// AVCL (i.e. `reference` falls inside `word`'s don't-care pattern).
    pub fn accepts(&self, word: u32, reference: u32, dtype: DataType) -> bool {
        self.approx_pattern(word, dtype).matches(reference)
    }

    /// Software oracle: the real-valued relative error between `precise` and
    /// `approx`, interpreted per `dtype`. Returns `None` when either float is
    /// non-finite.
    pub fn relative_error(precise: u32, approx: u32, dtype: DataType) -> Option<f64> {
        match dtype {
            DataType::Int => {
                let p = precise as i32 as f64;
                let a = approx as i32 as f64;
                if p == 0.0 {
                    Some(if a == 0.0 { 0.0 } else { f64::INFINITY })
                } else {
                    Some((a - p).abs() / p.abs())
                }
            }
            DataType::F32 => {
                let p = f32::from_bits(precise) as f64;
                let a = f32::from_bits(approx) as f64;
                if !p.is_finite() || !a.is_finite() {
                    return None;
                }
                if p == 0.0 {
                    Some(if a == 0.0 { 0.0 } else { f64::INFINITY })
                } else {
                    Some((a - p).abs() / p.abs())
                }
            }
        }
    }
}

impl Default for Avcl {
    fn default() -> Self {
        Avcl::new(ErrorThreshold::default())
    }
}

/// A mask with the low `k` bits set.
#[inline]
pub fn low_mask(k: u32) -> u32 {
    if k >= 32 {
        u32::MAX
    } else {
        (1u32 << k) - 1
    }
}

/// The 8-bit exponent field of a float word.
#[inline]
pub fn exponent(word: u32) -> u32 {
    (word >> F32_MANTISSA_BITS) & 0xFF
}

/// Whether a float word must bypass approximation: exponent all zeros (zero /
/// denormal) or all ones (infinity / NaN), per the float exponent detection
/// logic of Figure 4.
#[inline]
pub fn float_bypass(word: u32) -> bool {
    let e = exponent(word);
    e == 0 || e == 0xFF
}

/// The 24-bit significand of a normal float word: the 23-bit mantissa with the
/// implicit leading 1 concatenated on top (Figure 4's "mantissa extraction").
#[inline]
pub fn significand(word: u32) -> u32 {
    (1 << F32_MANTISSA_BITS) | (word & low_mask(F32_MANTISSA_BITS))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pct(p: u32) -> ErrorThreshold {
        ErrorThreshold::from_percent(p).unwrap()
    }

    #[test]
    fn paper_example_relaxed_policy() {
        // §3.2: value 9 (1001) at 20% -> pattern "10xx" (2 don't-care bits).
        let avcl = Avcl::with_policy(pct(20), MaskPolicy::Relaxed);
        let p = avcl.approx_pattern(9, DataType::Int);
        assert_eq!(p.dont_care_bits(), 2);
        for v in [8, 9, 10, 11] {
            assert!(p.matches(v), "paper says {v} matches 10xx");
        }
        assert!(!p.matches(12));
    }

    #[test]
    fn guaranteed_policy_is_tighter() {
        let avcl = Avcl::new(pct(20));
        let p = avcl.approx_pattern(9, DataType::Int);
        // range = 9 >> 3 = 1, so only 1 don't-care bit: "100x".
        assert_eq!(p.dont_care_bits(), 1);
        assert!(p.matches(8) && p.matches(9));
        assert!(!p.matches(10));
    }

    #[test]
    fn guaranteed_never_violates_threshold_for_ints() {
        for pcts in [5u32, 10, 20, 50] {
            let avcl = Avcl::new(pct(pcts));
            for w in [0u32, 1, 9, 100, 1000, 65535, 1 << 30, u32::MAX / 3] {
                let p = avcl.approx_pattern(w, DataType::Int);
                // Worst-case matched value differs in all masked bits.
                let worst_hi = w | p.mask();
                let worst_lo = w & !p.mask();
                for cand in [worst_hi, worst_lo] {
                    let err = Avcl::relative_error(w, cand, DataType::Int).unwrap();
                    assert!(
                        err <= pcts as f64 / 100.0 + 1e-12,
                        "w={w} pct={pcts} cand={cand} err={err}"
                    );
                }
            }
        }
    }

    #[test]
    fn float_mantissa_only() {
        let avcl = Avcl::new(pct(10));
        let w = 123.456f32.to_bits();
        let p = avcl.approx_pattern(w, DataType::F32);
        // Mask confined to mantissa bits.
        assert_eq!(p.mask() & !low_mask(F32_MANTISSA_BITS), 0);
        assert!(p.dont_care_bits() > 0);
        // A sign flip or exponent change never matches.
        assert!(!p.matches(w ^ (1 << 31)));
        assert!(!p.matches((-123.456f32).to_bits()));
        assert!(!p.matches(246.912f32.to_bits()));
    }

    #[test]
    fn float_specials_bypass() {
        let avcl = Avcl::new(pct(20));
        for v in [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e-40,
        ] {
            let w = v.to_bits();
            assert!(float_bypass(w), "{v} should bypass");
            let p = avcl.approx_pattern(w, DataType::F32);
            assert!(p.is_exact());
        }
        assert!(!float_bypass(1.0f32.to_bits()));
    }

    #[test]
    fn float_error_within_threshold() {
        let avcl = Avcl::new(pct(10));
        for v in [1.0f32, 2.6181, 1234.5, 1e-3, 9.9e8] {
            let w = v.to_bits();
            let p = avcl.approx_pattern(w, DataType::F32);
            let worst = w | p.mask();
            let err = Avcl::relative_error(w, worst, DataType::F32).unwrap();
            assert!(err <= 0.10 + 1e-9, "v={v} err={err}");
        }
    }

    #[test]
    fn exact_threshold_forces_exact_patterns() {
        let avcl = Avcl::new(ErrorThreshold::exact());
        let p = avcl.approx_pattern(9999, DataType::Int);
        assert!(p.is_exact());
        assert!(p.matches(9999));
        assert!(!p.matches(9998));
    }

    #[test]
    fn negative_int_magnitude() {
        let avcl = Avcl::new(pct(25));
        let w = (-1000i32) as u32;
        let p = avcl.approx_pattern(w, DataType::Int);
        // range = 1000 >> 2 = 250 -> k = floor(log2 251) = 7.
        assert_eq!(p.dont_care_bits(), 7);
        // Changing low bits of a negative two's-complement value moves it by
        // at most 127, well inside 25% of 1000.
        let cand = w | p.mask();
        let err = Avcl::relative_error(w, cand, DataType::Int).unwrap();
        assert!(err <= 0.25);
    }

    #[test]
    fn small_values_require_exact_match() {
        let avcl = Avcl::new(pct(10));
        // 10% of 5 is 0.5 -> hardware range 0 -> no don't-cares.
        let p = avcl.approx_pattern(5, DataType::Int);
        assert!(p.is_exact());
    }

    #[test]
    fn approx_pattern8_agrees_with_scalar() {
        let mut rng = crate::rng::Pcg32::seed_from_u64(0x8A7C);
        for &p in &[0u32, 5, 10, 25] {
            let avcl = if p == 0 {
                Avcl::new(ErrorThreshold::exact())
            } else {
                Avcl::new(pct(p))
            };
            for _ in 0..50 {
                let words: [u32; 8] = core::array::from_fn(|_| rng.next_u32() >> rng.below(28));
                for dtype in [DataType::Int, DataType::F32] {
                    let batch = avcl.approx_pattern8(&words, dtype);
                    for (lane, &w) in batch.iter().zip(&words) {
                        assert_eq!(*lane, avcl.approx_pattern(w, dtype), "{w:#x} at {p}%");
                    }
                }
            }
        }
    }

    #[test]
    fn accepts_helper() {
        let avcl = Avcl::new(pct(25));
        assert!(avcl.accepts(100, 99, DataType::Int)); // range 25, k=4
        assert!(avcl.accepts(100, 111, DataType::Int));
        assert!(!avcl.accepts(100, 128, DataType::Int));
    }

    #[test]
    fn significand_and_helpers() {
        let w = 1.5f32.to_bits(); // mantissa = 0x400000
        assert_eq!(significand(w), (1 << 23) | 0x40_0000);
        assert_eq!(exponent(w), 127);
        assert_eq!(low_mask(0), 0);
        assert_eq!(low_mask(32), u32::MAX);
        assert_eq!(low_mask(33), u32::MAX);
    }

    #[test]
    fn relative_error_edge_cases() {
        assert_eq!(Avcl::relative_error(0, 0, DataType::Int), Some(0.0));
        assert_eq!(
            Avcl::relative_error(0, 1, DataType::Int),
            Some(f64::INFINITY)
        );
        assert!(Avcl::relative_error(f32::NAN.to_bits(), 0, DataType::F32).is_none());
        let z = 0.0f32.to_bits();
        assert_eq!(Avcl::relative_error(z, z, DataType::F32), Some(0.0));
    }
}
