//! The x264 kernel: 8×8 DCT transform coding of a frame.
//!
//! H.264 encoding spends its cycles on transform/quantisation of integer
//! residuals. The model kernel runs a synthetic frame through DCT →
//! quantisation → dequantisation → IDCT, with the residual data shipped
//! through the transport. The output is the reconstructed frame and the
//! error metric is the RMSE relative to the 255 peak (a PSNR-style measure).

use anoc_core::rng::{Pcg32, Stream};

use crate::kernel::ApproxKernel;
use crate::transport::BlockTransport;

/// Transform block edge (8×8, as in H.264's high profile).
const B: usize = 8;

/// The x264 kernel configuration.
#[derive(Debug, Clone, Copy)]
pub struct X264 {
    /// Frame edge length in pixels (multiple of 8).
    pub size: usize,
    /// Quantisation step.
    pub qstep: f64,
    /// Input-generation seed.
    pub seed: u64,
}

impl X264 {
    /// Encodes one `size`×`size` frame.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a multiple of 8.
    pub fn new(size: usize, seed: u64) -> Self {
        assert_eq!(size % B, 0, "frame size must be a multiple of 8");
        X264 {
            size,
            qstep: 12.0,
            seed,
        }
    }
}

impl Default for X264 {
    fn default() -> Self {
        X264::new(64, 1)
    }
}

/// 2D DCT-II of one 8×8 block (separable, direct form).
pub fn dct8(block: &[f64; 64]) -> [f64; 64] {
    let mut out = [0f64; 64];
    for u in 0..B {
        for v in 0..B {
            let cu = if u == 0 { (0.5f64).sqrt() } else { 1.0 };
            let cv = if v == 0 { (0.5f64).sqrt() } else { 1.0 };
            let mut sum = 0.0;
            for y in 0..B {
                for x in 0..B {
                    sum += block[y * B + x]
                        * ((2 * y + 1) as f64 * u as f64 * std::f64::consts::PI / 16.0).cos()
                        * ((2 * x + 1) as f64 * v as f64 * std::f64::consts::PI / 16.0).cos();
                }
            }
            out[u * B + v] = 0.25 * cu * cv * sum;
        }
    }
    out
}

/// Inverse 2D DCT of one 8×8 block.
pub fn idct8(coeffs: &[f64; 64]) -> [f64; 64] {
    let mut out = [0f64; 64];
    for y in 0..B {
        for x in 0..B {
            let mut sum = 0.0;
            for u in 0..B {
                for v in 0..B {
                    let cu = if u == 0 { (0.5f64).sqrt() } else { 1.0 };
                    let cv = if v == 0 { (0.5f64).sqrt() } else { 1.0 };
                    sum += cu
                        * cv
                        * coeffs[u * B + v]
                        * ((2 * y + 1) as f64 * u as f64 * std::f64::consts::PI / 16.0).cos()
                        * ((2 * x + 1) as f64 * v as f64 * std::f64::consts::PI / 16.0).cos();
                }
            }
            out[y * B + x] = 0.25 * sum;
        }
    }
    out
}

impl X264 {
    /// Renders the synthetic source frame (smooth gradients + texture).
    pub fn source_frame(&self) -> Vec<i32> {
        let mut rng = Pcg32::on(self.seed, Stream::X264);
        let s = self.size;
        (0..s * s)
            .map(|i| {
                let (x, y) = (i % s, i / s);
                let base = 40.0
                    + 60.0 * ((x as f64 / s as f64) * std::f64::consts::PI).sin()
                    + 60.0 * ((y as f64 / s as f64) * std::f64::consts::PI).cos();
                let noise = rng.normal_with(0.0, 6.0);
                (base + noise).clamp(0.0, 255.0) as i32
            })
            .collect()
    }
}

impl ApproxKernel for X264 {
    fn name(&self) -> &'static str {
        "x264"
    }

    fn run(&self, transport: &mut dyn BlockTransport) -> Vec<f64> {
        let frame = self.source_frame();
        // The luminance plane travels as floats (as in the motion-search
        // and rate-distortion stages); it is the annotated approximable
        // region. Its pixels are integers in 0..=255, and as floats those
        // still fit FP's exact pattern rows: FP-VAXX codes every word
        // exactly and approximates none, so the reconstruction is
        // bit-identical to the precise one.
        let frame_f32: Vec<f32> = frame.iter().map(|p| *p as f32).collect();
        let frame: Vec<i32> = transport
            .transmit_f32(&frame_f32)
            .into_iter()
            .map(|p| p as i32)
            .collect();
        let s = self.size;
        let mut recon = vec![0f64; s * s];
        for by in (0..s).step_by(B) {
            for bx in (0..s).step_by(B) {
                let mut block = [0f64; 64];
                for y in 0..B {
                    for x in 0..B {
                        block[y * B + x] = frame[(by + y) * s + bx + x] as f64;
                    }
                }
                let mut coeffs = dct8(&block);
                for c in &mut coeffs {
                    *c = (*c / self.qstep).round() * self.qstep;
                }
                let rec = idct8(&coeffs);
                for y in 0..B {
                    for x in 0..B {
                        recon[(by + y) * s + bx + x] = rec[y * B + x].clamp(0.0, 255.0);
                    }
                }
            }
        }
        recon
    }

    /// RMSE of the reconstructed frame relative to the 255 peak.
    fn output_error(&self, precise: &[f64], approx: &[f64]) -> f64 {
        anoc_core::metrics::rmse(precise, approx) / 255.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::evaluate;
    use crate::transport::{ApproxTransport, PreciseTransport};
    use anoc_core::threshold::ErrorThreshold;

    #[test]
    fn dct_idct_roundtrip() {
        let mut block = [0f64; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = ((i * 7) % 255) as f64;
        }
        let rec = idct8(&dct8(&block));
        for (a, b) in block.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn dct_of_constant_block_is_dc_only() {
        let block = [100f64; 64];
        let c = dct8(&block);
        assert!((c[0] - 800.0).abs() < 1e-9); // 8 * 100
        for coeff in &c[1..] {
            assert!(coeff.abs() < 1e-9);
        }
    }

    #[test]
    fn quantisation_loss_is_moderate() {
        let k = X264::new(32, 3);
        let out = k.run(&mut PreciseTransport);
        let src: Vec<f64> = k.source_frame().iter().map(|p| *p as f64).collect();
        let rmse = anoc_core::metrics::rmse(&src, &out);
        assert!(rmse > 0.1, "quantisation should lose something");
        assert!(rmse < 12.0, "but not destroy the frame (rmse {rmse})");
    }

    #[test]
    fn approximation_degrades_gracefully() {
        let k = X264::new(32, 5);
        let mut t = ApproxTransport::fp_vaxx(ErrorThreshold::from_percent(10).unwrap());
        let (_, _, err) = evaluate(&k, &mut t);
        // Pixel-domain 10% errors after transform coding: small PSNR-style
        // degradation.
        assert!(err < 0.15, "relative rmse {err}");
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn odd_sizes_rejected() {
        let _ = X264::new(30, 1);
    }
}
