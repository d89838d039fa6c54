//! The fluidanimate kernel: one SPH density/force step.
//!
//! PARSEC's fluidanimate is smoothed-particle hydrodynamics. The model
//! kernel computes per-particle densities with a poly6-style kernel and
//! advances one symplectic-Euler step; the approximable shared data are the
//! particle positions exchanged between threads. The output vector holds the
//! post-step densities, judged by mean relative error.

use anoc_core::rng::{Pcg32, Stream};

use crate::kernel::ApproxKernel;
use crate::transport::BlockTransport;

/// The fluidanimate kernel configuration.
#[derive(Debug, Clone, Copy)]
pub struct Fluidanimate {
    /// Number of particles.
    pub particles: usize,
    /// SPH smoothing radius.
    pub radius: f64,
    /// Input-generation seed.
    pub seed: u64,
}

impl Fluidanimate {
    /// A fluid of `particles` particles.
    pub fn new(particles: usize, seed: u64) -> Self {
        Fluidanimate {
            particles,
            radius: 6.0,
            seed,
        }
    }
}

impl Default for Fluidanimate {
    fn default() -> Self {
        Fluidanimate::new(256, 1)
    }
}

impl ApproxKernel for Fluidanimate {
    fn name(&self) -> &'static str {
        "fluidanimate"
    }

    fn run(&self, transport: &mut dyn BlockTransport) -> Vec<f64> {
        let mut rng = Pcg32::on(self.seed, Stream::FLUIDANIMATE);
        let n = self.particles;
        let box_size = 50.0f32;
        let mut pos = vec![0f32; n * 3];
        for p in pos.iter_mut() {
            *p = rng.f32() * box_size;
        }
        // Positions shared across threads are the approximable region.
        let pos = transport.transmit_f32(&pos);
        let h = self.radius;
        let h2 = h * h;
        // Poly6 density.
        let mut density = vec![0f64; n];
        for i in 0..n {
            let (xi, yi, zi) = (pos[i * 3], pos[i * 3 + 1], pos[i * 3 + 2]);
            for j in 0..n {
                let dx = (xi - pos[j * 3]) as f64;
                let dy = (yi - pos[j * 3 + 1]) as f64;
                let dz = (zi - pos[j * 3 + 2]) as f64;
                let r2 = dx * dx + dy * dy + dz * dz;
                if r2 < h2 {
                    let w = h2 - r2;
                    density[i] += w * w * w;
                }
            }
        }
        // One pressure-gradient kick so the output depends on interactions,
        // not just counts.
        let rest = anoc_core::metrics::mean(&density);
        density.iter().map(|d| d / rest.max(1e-12)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::evaluate;
    use crate::transport::{ApproxTransport, PreciseTransport};
    use anoc_core::threshold::ErrorThreshold;

    #[test]
    fn densities_are_positive_and_self_counted() {
        let k = Fluidanimate::new(64, 2);
        let d = k.run(&mut PreciseTransport);
        assert_eq!(d.len(), 64);
        assert!(d.iter().all(|x| *x > 0.0), "self-contribution is nonzero");
        // Normalised to a mean of 1.
        let mean = anoc_core::metrics::mean(&d);
        assert!((mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let k = Fluidanimate::new(64, 3);
        assert_eq!(k.run(&mut PreciseTransport), k.run(&mut PreciseTransport));
    }

    #[test]
    fn denser_regions_have_higher_density() {
        // Construct with a seed, then verify the density field varies (a
        // uniform field would make approximation trivially invisible).
        let k = Fluidanimate::new(128, 5);
        let d = k.run(&mut PreciseTransport);
        let max = d.iter().cloned().fold(f64::MIN, f64::max);
        let min = d.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 1.5, "field too uniform: {min}..{max}");
    }

    #[test]
    fn approximate_positions_shift_densities_slightly() {
        let k = Fluidanimate::new(128, 7);
        let mut t = ApproxTransport::fp_vaxx(ErrorThreshold::from_percent(10).unwrap());
        let (_, _, err) = evaluate(&k, &mut t);
        // Density is a smooth functional of positions near the kernel
        // support; bounded degradation expected.
        assert!(err < 0.35, "density error {err}");
    }
}
