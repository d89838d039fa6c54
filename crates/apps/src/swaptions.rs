//! The swaptions kernel: Monte-Carlo swaption pricing.
//!
//! PARSEC's swaptions prices interest-rate swaptions by HJM Monte-Carlo
//! simulation. The approximable shared data are the simulated forward-rate
//! paths; the output error is the mean relative error of the prices.

use anoc_core::rng::{Pcg32, Stream};

use crate::kernel::ApproxKernel;
use crate::transport::BlockTransport;

/// The swaptions kernel configuration.
#[derive(Debug, Clone, Copy)]
pub struct Swaptions {
    /// Number of swaptions priced.
    pub swaptions: usize,
    /// Monte-Carlo trials per swaption.
    pub trials: usize,
    /// Time steps per simulated rate path.
    pub steps: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Swaptions {
    /// Prices `swaptions` instruments with `trials` paths each.
    pub fn new(swaptions: usize, trials: usize, seed: u64) -> Self {
        Swaptions {
            swaptions,
            trials,
            steps: 16,
            seed,
        }
    }
}

impl Default for Swaptions {
    fn default() -> Self {
        Swaptions::new(16, 64, 1)
    }
}

impl ApproxKernel for Swaptions {
    fn name(&self) -> &'static str {
        "swaptions"
    }

    fn run(&self, transport: &mut dyn BlockTransport) -> Vec<f64> {
        let mut rng = Pcg32::on(self.seed, Stream::SWAPTIONS);
        let mut prices = Vec::with_capacity(self.swaptions);
        for _ in 0..self.swaptions {
            let strike = 0.02 + rng.f64() * 0.06;
            let r0 = 0.01 + rng.f64() * 0.05;
            let vol = 0.008 + rng.f64() * 0.02;
            let dt = 0.25f64;
            let mut payoff_sum = 0.0;
            for _ in 0..self.trials {
                // Simulate one short-rate path (simple lognormal-ish walk —
                // the HJM drift is immaterial for the approximation study).
                let mut path = vec![0f32; self.steps];
                let mut r = r0;
                for p in path.iter_mut() {
                    r += vol * rng.normal() * dt.sqrt();
                    r = r.max(1e-4);
                    *p = r as f32;
                }
                // The simulated path is the shared approximable data.
                let path = transport.transmit_f32(&path);
                // Payoff: discounted positive part of (average rate - strike).
                let avg: f64 = path.iter().map(|x| *x as f64).sum::<f64>() / self.steps as f64;
                let discount: f64 = (-path.iter().map(|x| *x as f64).sum::<f64>() * dt).exp();
                payoff_sum += (avg - strike).max(0.0) * discount * 100.0;
            }
            prices.push(payoff_sum / self.trials as f64);
        }
        prices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::evaluate;
    use crate::transport::{ApproxTransport, PreciseTransport};
    use anoc_core::threshold::ErrorThreshold;

    #[test]
    fn deterministic_prices() {
        let k = Swaptions::new(4, 16, 3);
        let a = k.run(&mut PreciseTransport);
        assert_eq!(a, k.run(&mut PreciseTransport));
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|p| *p >= 0.0));
        assert!(a.iter().any(|p| *p > 0.0));
    }

    #[test]
    fn more_volatile_rates_move_prices() {
        // Different seeds -> different instruments -> different prices.
        let a = Swaptions::new(4, 16, 3).run(&mut PreciseTransport);
        let b = Swaptions::new(4, 16, 4).run(&mut PreciseTransport);
        assert_ne!(a, b);
    }

    #[test]
    fn approximation_error_is_bounded() {
        let k = Swaptions::new(8, 32, 5);
        let mut t = ApproxTransport::fp_vaxx(ErrorThreshold::from_percent(10).unwrap());
        let (_, _, err) = evaluate(&k, &mut t);
        // Rates are small floats whose mantissas approximate well; the
        // payoff max() makes the output piecewise, so allow some slack but
        // stay well under total corruption.
        assert!(err < 0.5, "output error {err}");
    }
}
