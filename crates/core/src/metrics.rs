//! Error, quality and compression accumulators.
//!
//! The paper reports *data value quality* (Figure 9, right axis): one minus
//! the mean relative error actually incurred across all transmitted words —
//! typically far better than the threshold because many words compress
//! exactly and the rest match in close proximity. It also reports
//! application-level output error (Figure 16) via app-specific metrics; the
//! generic building blocks (MRE, RMSE, PSNR) live here.

// A stats-accumulation path: a counter narrowed by an `as` cast loses
// high-traffic runs silently (DESIGN.md §6, C003).
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use crate::avcl::Avcl;
use crate::data::{CacheBlock, DataType};

crate::snap_record! {
    /// Accumulates per-word relative error to produce the data value quality
    /// metric of Figure 9. A snapshot stores the word count and the raw bits
    /// of both error sums.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct QualityAccumulator {
        words: u64,
        error_sum: f64,
        max_error: f64,
    }
}

impl QualityAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one transmitted word pair (precise vs what arrived).
    ///
    /// Non-finite relative errors (NaN payloads, division by a zero precise
    /// value when the approximation differs) are clamped to 1.0 — a fully
    /// wrong word — so a single pathological word cannot dominate the mean.
    ///
    /// A bit-identical pair only counts the word. Its error is `+0.0` (a
    /// non-finite float delivered exactly is not wrong), and adding `+0.0`
    /// changes neither the sum (built from `+0.0` by adding non-negative
    /// terms) nor the maximum.
    pub fn record_word(&mut self, precise: u32, approx: u32, dtype: DataType) {
        self.words += 1;
        if precise == approx {
            return;
        }
        let err = match Avcl::relative_error(precise, approx, dtype) {
            Some(e) if e.is_finite() => e.min(1.0),
            _ => 1.0,
        };
        self.error_sum += err;
        if err > self.max_error {
            self.max_error = err;
        }
    }

    /// Records every word of a block pair. The blocks must be equally long.
    ///
    /// # Panics
    ///
    /// Panics if the two blocks have different lengths.
    pub fn record_block(&mut self, precise: &CacheBlock, approx: &CacheBlock) {
        assert_eq!(precise.len(), approx.len(), "block length mismatch");
        for (p, a) in precise.words().iter().zip(approx.words()) {
            self.record_word(*p, *a, precise.dtype());
        }
    }

    /// Number of words recorded.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Mean relative error over all recorded words.
    pub fn mean_relative_error(&self) -> f64 {
        if self.words == 0 {
            0.0
        } else {
            self.error_sum / self.words as f64
        }
    }

    /// Largest single-word relative error observed.
    pub fn max_relative_error(&self) -> f64 {
        self.max_error
    }

    /// Data value quality: `1 - mean relative error` (Figure 9's right axis).
    pub fn quality(&self) -> f64 {
        1.0 - self.mean_relative_error()
    }

    /// The raw sum of per-word relative errors (for exact persistence).
    pub fn error_sum(&self) -> f64 {
        self.error_sum
    }

    /// Rebuilds an accumulator from its raw components, the inverse of
    /// reading [`words`](Self::words), [`error_sum`](Self::error_sum) and
    /// [`max_relative_error`](Self::max_relative_error).
    pub fn from_raw(words: u64, error_sum: f64, max_error: f64) -> Self {
        QualityAccumulator {
            words,
            error_sum,
            max_error,
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &QualityAccumulator) {
        self.words += other.words;
        self.error_sum += other.error_sum;
        self.max_error = self.max_error.max(other.max_error);
    }
}

/// Mean relative error between two real-valued sequences, with `eps` guarding
/// near-zero references. Used by the application output-error metrics.
pub fn mean_relative_error(reference: &[f64], candidate: &[f64], eps: f64) -> f64 {
    assert_eq!(reference.len(), candidate.len(), "sequence length mismatch");
    if reference.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0;
    for (r, c) in reference.iter().zip(candidate) {
        let denom = r.abs().max(eps);
        sum += ((c - r).abs() / denom).min(1.0);
    }
    sum / reference.len() as f64
}

/// Root-mean-square error between two sequences.
pub fn rmse(reference: &[f64], candidate: &[f64]) -> f64 {
    assert_eq!(reference.len(), candidate.len(), "sequence length mismatch");
    if reference.is_empty() {
        return 0.0;
    }
    let sum: f64 = reference
        .iter()
        .zip(candidate)
        .map(|(r, c)| (r - c) * (r - c))
        .sum();
    (sum / reference.len() as f64).sqrt()
}

/// Peak signal-to-noise ratio in dB for image-like data with the given peak
/// value. Returns `f64::INFINITY` for identical inputs.
pub fn psnr(reference: &[f64], candidate: &[f64], peak: f64) -> f64 {
    let e = rmse(reference, candidate);
    if e == 0.0 {
        f64::INFINITY
    } else {
        20.0 * (peak / e).log10()
    }
}

/// Arithmetic mean of a slice; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of a slice of positive values; 0 for an empty slice.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::CacheBlock;

    #[test]
    fn quality_of_identical_stream_is_one() {
        let mut q = QualityAccumulator::new();
        let block = CacheBlock::from_i32(&[1, 2, 3]);
        q.record_block(&block, &block);
        assert_eq!(q.quality(), 1.0);
        assert_eq!(q.words(), 3);
        assert_eq!(q.max_relative_error(), 0.0);
    }

    #[test]
    fn quality_tracks_mean_error() {
        let mut q = QualityAccumulator::new();
        q.record_word(100, 110, DataType::Int); // 10% error
        q.record_word(100, 100, DataType::Int); // 0% error
        assert!((q.mean_relative_error() - 0.05).abs() < 1e-12);
        assert!((q.quality() - 0.95).abs() < 1e-12);
        assert!((q.max_relative_error() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn pathological_words_clamped() {
        let mut q = QualityAccumulator::new();
        q.record_word(0, 12345, DataType::Int); // infinite rel err -> 1.0
        assert_eq!(q.mean_relative_error(), 1.0);
        let mut qf = QualityAccumulator::new();
        let nan = f32::NAN.to_bits();
        qf.record_word(nan, nan, DataType::F32); // same bits -> 0
        assert_eq!(qf.mean_relative_error(), 0.0);
    }

    /// Word values whose relative errors hit every branch of the f64 path:
    /// NaNs with distinct payloads, signed zeros, infinities, and finite
    /// values near and far from each other.
    fn special_words(dtype: DataType) -> Vec<u32> {
        match dtype {
            DataType::F32 => vec![
                0x7fc0_0000,
                0x7fc0_0001,
                0xffc0_0000,
                0.0f32.to_bits(),
                (-0.0f32).to_bits(),
                f32::INFINITY.to_bits(),
                f32::NEG_INFINITY.to_bits(),
                1.0f32.to_bits(),
                1.05f32.to_bits(),
                (-2.0f32).to_bits(),
                1,
                f32::MAX.to_bits(),
            ],
            DataType::Int => [0, 1, -1, 100, 105, 120, i32::MIN, i32::MAX]
                .map(|v: i32| v as u32)
                .to_vec(),
        }
    }

    /// The per-word formula as it stood before bit-identical words skipped
    /// the f64 path.
    fn reference(words: &[(u32, u32)], dtype: DataType) -> (u64, f64, f64) {
        let (mut n, mut sum, mut max) = (0u64, 0.0f64, 0.0f64);
        for &(precise, approx) in words {
            let err = match Avcl::relative_error(precise, approx, dtype) {
                Some(e) if e.is_finite() => e.min(1.0),
                _ => {
                    if precise == approx {
                        0.0
                    } else {
                        1.0
                    }
                }
            };
            n += 1;
            sum += err;
            if err > max {
                max = err;
            }
        }
        (n, sum, max)
    }

    #[test]
    fn exact_word_fast_path_matches_the_f64_formula() {
        for dtype in [DataType::F32, DataType::Int] {
            let specials = special_words(dtype);
            // Every ordered pair, so equal pairs sit between unequal ones.
            let pairs: Vec<(u32, u32)> = specials
                .iter()
                .flat_map(|&p| specials.iter().map(move |&a| (p, a)))
                .collect();
            let mut q = QualityAccumulator::new();
            for chunk in pairs.chunks(16) {
                let precise = CacheBlock::new(chunk.iter().map(|p| p.0).collect(), dtype, true);
                let approx = CacheBlock::new(chunk.iter().map(|p| p.1).collect(), dtype, true);
                q.record_block(&precise, &approx);
            }
            let (n, sum, max) = reference(&pairs, dtype);
            assert_eq!(q.words(), n, "{dtype:?}");
            assert_eq!(q.error_sum().to_bits(), sum.to_bits(), "{dtype:?}");
            assert_eq!(q.max_relative_error().to_bits(), max.to_bits(), "{dtype:?}");
        }
    }

    #[test]
    fn merge_accumulators() {
        let mut a = QualityAccumulator::new();
        a.record_word(10, 11, DataType::Int);
        let mut b = QualityAccumulator::new();
        b.record_word(10, 10, DataType::Int);
        a.merge(&b);
        assert_eq!(a.words(), 2);
        assert!((a.mean_relative_error() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn mre_and_rmse() {
        let r = [1.0, 2.0, 4.0];
        let c = [1.1, 2.0, 4.0];
        assert!((mean_relative_error(&r, &c, 1e-9) - 0.1 / 3.0).abs() < 1e-9);
        assert!((rmse(&r, &c) - (0.01f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean_relative_error(&[], &[], 1e-9), 0.0);
        assert_eq!(rmse(&[], &[]), 0.0);
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let r = [0.5, 0.25];
        assert_eq!(psnr(&r, &r, 1.0), f64::INFINITY);
        assert!(psnr(&[0.0], &[0.1], 1.0) > 0.0);
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }
}
