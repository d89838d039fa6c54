//! The blackscholes kernel: closed-form European option pricing.
//!
//! PARSEC's blackscholes prices a portfolio of options from per-option
//! parameter arrays. The approximable shared data are exactly those input
//! arrays (spot, strike, volatility, time-to-maturity); the output error is
//! the mean relative error of the computed prices.

use anoc_core::rng::{Pcg32, Stream};

use crate::kernel::ApproxKernel;
use crate::transport::BlockTransport;

/// The blackscholes kernel configuration.
#[derive(Debug, Clone, Copy)]
pub struct Blackscholes {
    /// Number of options priced.
    pub options: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Blackscholes {
    /// A portfolio of `options` options.
    pub fn new(options: usize, seed: u64) -> Self {
        Blackscholes { options, seed }
    }
}

impl Default for Blackscholes {
    fn default() -> Self {
        Blackscholes::new(512, 1)
    }
}

/// The cumulative standard normal distribution (Abramowitz–Stegun 26.2.17,
/// the same polynomial PARSEC uses).
pub fn cnd(x: f64) -> f64 {
    let l = x.abs();
    let k = 1.0 / (1.0 + 0.2316419 * l);
    let poly = k
        * (0.319381530
            + k * (-0.356563782 + k * (1.781477937 + k * (-1.821255978 + k * 1.330274429))));
    let w = 1.0 - (-l * l / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt() * poly;
    if x < 0.0 {
        1.0 - w
    } else {
        w
    }
}

/// Black–Scholes price of a European call.
pub fn call_price(s: f64, k: f64, r: f64, v: f64, t: f64) -> f64 {
    let d1 = ((s / k).ln() + (r + v * v / 2.0) * t) / (v * t.sqrt());
    let d2 = d1 - v * t.sqrt();
    s * cnd(d1) - k * (-r * t).exp() * cnd(d2)
}

impl ApproxKernel for Blackscholes {
    fn name(&self) -> &'static str {
        "blackscholes"
    }

    fn run(&self, transport: &mut dyn BlockTransport) -> Vec<f64> {
        let mut rng = Pcg32::on(self.seed, Stream::BLACKSCHOLES);
        let n = self.options;
        let spot: Vec<f32> = (0..n).map(|_| 20.0 + rng.f32() * 80.0).collect();
        let strike: Vec<f32> = (0..n).map(|_| 20.0 + rng.f32() * 80.0).collect();
        let vol: Vec<f32> = (0..n).map(|_| 0.10 + rng.f32() * 0.5).collect();
        let tte: Vec<f32> = (0..n).map(|_| 0.25 + rng.f32() * 2.0).collect();
        let r = 0.02f64;
        // The option arrays are the annotated approximable region.
        let spot = transport.transmit_f32(&spot);
        let strike = transport.transmit_f32(&strike);
        let vol = transport.transmit_f32(&vol);
        let tte = transport.transmit_f32(&tte);
        (0..n)
            .map(|i| {
                call_price(
                    spot[i] as f64,
                    strike[i] as f64,
                    r,
                    vol[i] as f64,
                    tte[i] as f64,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::evaluate;
    use crate::transport::{ApproxTransport, PreciseTransport};
    use anoc_core::threshold::ErrorThreshold;

    #[test]
    fn cnd_is_a_cdf() {
        assert!((cnd(0.0) - 0.5).abs() < 1e-7);
        assert!(cnd(-6.0) < 1e-8);
        assert!(cnd(6.0) > 1.0 - 1e-8);
        for x in [-2.0, -0.5, 0.3, 1.7] {
            assert!(cnd(x) < cnd(x + 0.1), "monotone at {x}");
        }
    }

    #[test]
    fn call_price_sanity() {
        // Deep in the money: price ~ S - K e^{-rT}.
        let p = call_price(150.0, 50.0, 0.02, 0.2, 1.0);
        assert!((p - (150.0 - 50.0 * (-0.02f64).exp())).abs() < 0.5, "{p}");
        // Deep out of the money: nearly zero.
        assert!(call_price(10.0, 100.0, 0.02, 0.2, 1.0) < 0.01);
        // Longer maturity is worth more.
        assert!(
            call_price(100.0, 100.0, 0.02, 0.3, 2.0) > call_price(100.0, 100.0, 0.02, 0.3, 0.5)
        );
    }

    #[test]
    fn deterministic_and_nontrivial() {
        let k = Blackscholes::new(64, 3);
        let a = k.run(&mut PreciseTransport);
        let b = k.run(&mut PreciseTransport);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.iter().any(|p| *p > 1.0));
    }

    #[test]
    fn ten_percent_threshold_keeps_output_error_low() {
        let k = Blackscholes::new(256, 5);
        let mut t = ApproxTransport::fp_vaxx(ErrorThreshold::from_percent(10).unwrap());
        let (_, _, err) = evaluate(&k, &mut t);
        // Option prices are smooth in their inputs; 10% data error keeps the
        // output error in the few-percent regime (Figure 16).
        assert!(err > 0.0, "approximation should perturb something");
        assert!(err < 0.30, "output error {err}");
    }
}
