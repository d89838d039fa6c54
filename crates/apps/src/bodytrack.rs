//! The bodytrack kernel: blob tracking on synthetic frames.
//!
//! PARSEC's bodytrack follows body parts across camera frames. The model
//! kernel renders frames of moving Gaussian blobs ("body parts"), ships the
//! pixel data through the transport, and tracks each blob with a windowed
//! intensity centroid. The output is the sequence of tracked positions and
//! the error metric is the mean relative deviation of the output vectors —
//! the paper reports a 2.4% vector difference at a 10% data threshold, with
//! outputs "hardly captured through human vision" (Figure 17).

use anoc_core::rng::{Pcg32, Stream};

use crate::kernel::ApproxKernel;
use crate::transport::BlockTransport;

/// A rendered frame: row-major pixel intensities in `[0, 255]`.
pub type Frame = Vec<f32>;

/// Per-frame blob positions.
pub type Positions = Vec<(f64, f64)>;

/// The bodytrack kernel configuration.
#[derive(Debug, Clone, Copy)]
pub struct Bodytrack {
    /// Frame width/height in pixels (square frames).
    pub size: usize,
    /// Number of tracked blobs.
    pub blobs: usize,
    /// Number of frames.
    pub frames: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Bodytrack {
    /// Tracks `blobs` blobs over `frames` frames of `size`×`size` pixels.
    pub fn new(size: usize, blobs: usize, frames: usize, seed: u64) -> Self {
        Bodytrack {
            size,
            blobs,
            frames,
            seed,
        }
    }

    /// Renders the ground-truth frame sequence (row-major pixel intensities
    /// in `[0, 255]`) and true blob trajectories.
    pub fn render(&self) -> (Vec<Frame>, Vec<Positions>) {
        let mut rng = Pcg32::on(self.seed, Stream::BODYTRACK);
        let s = self.size as f64;
        let mut pos: Vec<(f64, f64)> = (0..self.blobs)
            .map(|_| (rng.f64() * s * 0.6 + s * 0.2, rng.f64() * s * 0.6 + s * 0.2))
            .collect();
        let mut vel: Vec<(f64, f64)> = (0..self.blobs)
            .map(|_| (rng.f64() * 2.0 - 1.0, rng.f64() * 2.0 - 1.0))
            .collect();
        let sigma = s / 16.0;
        let mut frames = Vec::with_capacity(self.frames);
        let mut truth = Vec::with_capacity(self.frames);
        for _ in 0..self.frames {
            let mut img = vec![0f32; self.size * self.size];
            for (cx, cy) in &pos {
                for y in 0..self.size {
                    for x in 0..self.size {
                        let dx = x as f64 - cx;
                        let dy = y as f64 - cy;
                        let v = 200.0 * (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp();
                        img[y * self.size + x] += v as f32;
                    }
                }
            }
            for p in &mut img {
                *p = p.min(255.0);
            }
            frames.push(img);
            truth.push(pos.clone());
            for (p, v) in pos.iter_mut().zip(&mut vel) {
                p.0 += v.0;
                p.1 += v.1;
                if p.0 < s * 0.1 || p.0 > s * 0.9 {
                    v.0 = -v.0;
                }
                if p.1 < s * 0.1 || p.1 > s * 0.9 {
                    v.1 = -v.1;
                }
            }
        }
        (frames, truth)
    }

    /// Tracks blobs on (already transported) frames, starting from the true
    /// initial positions. Returns per-frame positions.
    pub fn track(&self, frames: &[Frame], init: &[(f64, f64)]) -> Vec<Positions> {
        let window = (self.size / 8).max(3) as i64;
        let mut pos: Vec<(f64, f64)> = init.to_vec();
        let mut out = Vec::with_capacity(frames.len());
        for img in frames {
            for p in pos.iter_mut() {
                let (mut wx, mut wy, mut wsum) = (0f64, 0f64, 0f64);
                let cx = p.0.round() as i64;
                let cy = p.1.round() as i64;
                for dy in -window..=window {
                    for dx in -window..=window {
                        let x = cx + dx;
                        let y = cy + dy;
                        if x < 0 || y < 0 || x >= self.size as i64 || y >= self.size as i64 {
                            continue;
                        }
                        let v = img[y as usize * self.size + x as usize] as f64;
                        wx += v * x as f64;
                        wy += v * y as f64;
                        wsum += v;
                    }
                }
                if wsum > 1e-9 {
                    *p = (wx / wsum, wy / wsum);
                }
            }
            out.push(pos.clone());
        }
        out
    }
}

impl Default for Bodytrack {
    fn default() -> Self {
        Bodytrack::new(48, 3, 12, 1)
    }
}

impl ApproxKernel for Bodytrack {
    fn name(&self) -> &'static str {
        "bodytrack"
    }

    fn run(&self, transport: &mut dyn BlockTransport) -> Vec<f64> {
        let (frames, truth) = self.render();
        // The camera frames are the shared approximable data.
        let frames: Vec<Frame> = frames
            .into_iter()
            .map(|f| transport.transmit_f32(&f))
            .collect();
        let tracked = self.track(&frames, &truth[0]);
        tracked
            .into_iter()
            .flat_map(|frame| frame.into_iter().flat_map(|(x, y)| [x, y]))
            .collect()
    }

    /// Mean relative deviation of the tracked position vectors, normalised
    /// by the frame size (the paper's "output vectors differ by 2.4%").
    fn output_error(&self, precise: &[f64], approx: &[f64]) -> f64 {
        assert_eq!(precise.len(), approx.len());
        if precise.is_empty() {
            return 0.0;
        }
        let scale = self.size as f64;
        let sum: f64 = precise
            .iter()
            .zip(approx)
            .map(|(p, a)| ((p - a).abs() / scale).min(1.0))
            .sum();
        sum / precise.len() as f64
    }
}

/// Serialises a frame as a binary PGM image (for the Figure 17 artefacts).
pub fn frame_to_pgm(frame: &[f32], size: usize) -> Vec<u8> {
    let mut out = format!("P5\n{size} {size}\n255\n").into_bytes();
    out.extend(frame.iter().map(|p| p.clamp(0.0, 255.0) as u8));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::evaluate;
    use crate::transport::{ApproxTransport, PreciseTransport};
    use anoc_core::threshold::ErrorThreshold;

    #[test]
    fn rendering_is_deterministic_and_bounded() {
        let k = Bodytrack::new(32, 2, 4, 9);
        let (fa, ta) = k.render();
        let (fb, tb) = k.render();
        assert_eq!(fa, fb);
        assert_eq!(ta, tb);
        assert_eq!(fa.len(), 4);
        assert!(fa[0].iter().all(|p| (0.0..=255.0).contains(p)));
        assert!(fa[0].iter().any(|p| *p > 50.0), "blobs visible");
    }

    #[test]
    fn tracker_follows_blobs_precisely() {
        let k = Bodytrack::new(48, 2, 8, 3);
        let (frames, truth) = k.render();
        let tracked = k.track(&frames, &truth[0]);
        // The centroid tracker should stay within a few pixels of truth.
        for (t_frame, g_frame) in tracked.iter().zip(&truth) {
            for (t, g) in t_frame.iter().zip(g_frame) {
                let d = ((t.0 - g.0).powi(2) + (t.1 - g.1).powi(2)).sqrt();
                assert!(d < 6.0, "tracker drifted {d} pixels");
            }
        }
    }

    #[test]
    fn approximate_output_differs_slightly() {
        let k = Bodytrack::new(32, 2, 6, 5);
        let mut t = ApproxTransport::fp_vaxx(ErrorThreshold::from_percent(10).unwrap());
        let (p, a, err) = evaluate(&k, &mut t);
        assert_eq!(p.len(), a.len());
        // Figure 17's story: visually indistinguishable, a few percent off.
        assert!(err < 0.15, "vector difference {err}");
    }

    #[test]
    fn pgm_has_header_and_payload() {
        let frame = vec![128.0f32; 16 * 16];
        let pgm = frame_to_pgm(&frame, 16);
        assert!(pgm.starts_with(b"P5\n16 16\n255\n"));
        assert_eq!(pgm.len(), 13 + 256);
        assert_eq!(pgm[13], 128);
    }

    #[test]
    fn kernel_runs_end_to_end() {
        let k = Bodytrack::new(32, 2, 3, 1);
        let out = k.run(&mut PreciseTransport);
        assert_eq!(out.len(), 3 * 2 * 2); // frames × blobs × (x, y)
    }
}
