//! Window-based cumulative error budgets — the paper's §7 future work.
//!
//! Instead of a conservative per-word error threshold, a *window* of words
//! shares one cumulative error budget: words that compress exactly donate
//! their unused tolerance to later words, "so as to achieve more approximate
//! matches. This can be applicable especially in cases of video/image
//! applications where the error rate over a frame is more appropriate than a
//! conservative per word error threshold."

use crate::threshold::ErrorThreshold;

/// Words per window: one 16-word cache block.
const WINDOW: u32 = 16;

/// A sliding per-window error budget.
///
/// The budget is `16 × base_percent` percentage points of relative error
/// per window of 16 words; each word may spend up to the remaining budget
/// (capped at `max_percent`), and the window resets after 16 words.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowBudget {
    base_percent: u32,
    max_percent: u32,
    used_percent: f64,
    seen: u32,
}

impl WindowBudget {
    /// Creates a budget of `base_percent`% average error per word over
    /// windows of 16 words. Individual words are capped at
    /// `4 × base_percent` (at most 100%).
    ///
    /// # Panics
    ///
    /// Panics if `base_percent` is not in `1..=100`.
    pub fn new(base_percent: u32) -> Self {
        assert!(
            (1..=100).contains(&base_percent),
            "base percentage must be in 1..=100"
        );
        WindowBudget {
            base_percent,
            max_percent: (base_percent * 4).min(100),
            used_percent: 0.0,
            seen: 0,
        }
    }

    /// The configured average per-word error percentage.
    pub fn base_percent(&self) -> u32 {
        self.base_percent
    }

    /// Remaining budget in the current window, in percentage points.
    pub fn remaining_percent(&self) -> f64 {
        (WINDOW as f64 * self.base_percent as f64) - self.used_percent
    }

    /// The error threshold available to the *next* word: the remaining
    /// budget (at least 0, at most the per-word cap). Returns
    /// [`ErrorThreshold::exact`] when the budget is exhausted.
    pub fn next_threshold(&self) -> ErrorThreshold {
        let avail = self.remaining_percent().floor();
        if avail < 1.0 {
            return ErrorThreshold::exact();
        }
        let pct = (avail as u32).min(self.max_percent);
        // pct is floored to >= 1 and clamped to max_percent; exact (no
        // approximation) is the conservative default if that ever broke.
        ErrorThreshold::from_percent(pct).unwrap_or_else(|_| ErrorThreshold::exact())
    }

    /// Records the relative error actually incurred by a word (`0.0` for an
    /// exact transmission) and advances the window.
    pub fn record(&mut self, relative_error: f64) {
        self.used_percent += (relative_error.max(0.0) * 100.0).min(self.max_percent as f64);
        self.seen += 1;
        if self.seen == WINDOW {
            self.seen = 0;
            self.used_percent = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_window_offers_pooled_budget() {
        let b = WindowBudget::new(10);
        // 16 words x 10% = 160 points available, capped at 40% per word.
        assert_eq!(b.remaining_percent(), 160.0);
        assert_eq!(b.next_threshold().percent(), 40);
    }

    #[test]
    fn exact_words_donate_budget() {
        let mut b = WindowBudget::new(10);
        for _ in 0..12 {
            b.record(0.0);
        }
        // Twelve exact words leave all 160 points to the last four, which
        // may each spend the 40% cap instead of their own 10%.
        for _ in 0..4 {
            assert_eq!(b.next_threshold().percent(), 40);
            b.record(0.40);
        }
    }

    #[test]
    fn spending_shrinks_the_allowance() {
        let mut b = WindowBudget::new(10);
        for _ in 0..3 {
            b.record(0.40);
        }
        b.record(0.35); // 155 points of the 160 spent
        assert_eq!(b.next_threshold().percent(), 5);
        b.record(0.05);
        assert!(b.next_threshold().is_exact(), "budget exhausted");
    }

    #[test]
    fn window_resets() {
        let mut b = WindowBudget::new(10);
        b.record(0.20);
        for _ in 0..14 {
            b.record(0.0);
        }
        assert_eq!(b.remaining_percent(), 140.0);
        b.record(0.0); // window boundary
        assert_eq!(b.remaining_percent(), 160.0);
        assert_eq!(b.next_threshold().percent(), 40);
    }

    #[test]
    fn average_error_bounded_by_base() {
        // Property: however the budget is spent, the recorded average per
        // window never exceeds the base percentage.
        let mut b = WindowBudget::new(10);
        let mut spent = 0.0;
        for _ in 0..WINDOW {
            let t = b.next_threshold();
            // Adversarially spend the full allowance every time.
            let e = t.percent() as f64 / 100.0;
            spent += e;
            b.record(e);
        }
        assert!(spent * 100.0 <= 16.0 * 10.0 + 1e-9, "spent {spent}");
    }

    #[test]
    #[should_panic(expected = "base percentage")]
    fn bad_percent_rejected() {
        let _ = WindowBudget::new(0);
    }
}
