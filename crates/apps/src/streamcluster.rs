//! The streamcluster kernel: online k-medians clustering.
//!
//! PARSEC's streamcluster assigns streamed points to cluster centers. The
//! approximable data are the point coordinates; the paper notes this is its
//! most error-sensitive benchmark because "by approximating the coordinates,
//! the cost between points and centers might deviate from the precise one and
//! lead to mismatch of centers" (§5.4). The output is the per-point
//! assignment, and the error metric is the fraction of points assigned to a
//! different center than in the precise run.

use anoc_core::rng::{Pcg32, Stream};

use crate::kernel::ApproxKernel;
use crate::transport::BlockTransport;

/// The streamcluster kernel configuration.
#[derive(Debug, Clone, Copy)]
pub struct Streamcluster {
    /// Number of points clustered.
    pub points: usize,
    /// Number of cluster centers.
    pub k: usize,
    /// Point dimensionality.
    pub dims: usize,
    /// Lloyd refinement iterations.
    pub iterations: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Streamcluster {
    /// A clustering problem of `points` points into `k` clusters.
    pub fn new(points: usize, k: usize, seed: u64) -> Self {
        Streamcluster {
            points,
            k,
            dims: 4,
            iterations: 5,
            seed,
        }
    }
}

impl Default for Streamcluster {
    fn default() -> Self {
        Streamcluster::new(512, 8, 1)
    }
}

fn squared_distance(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = (*x - *y) as f64;
            d * d
        })
        .sum()
}

impl ApproxKernel for Streamcluster {
    fn name(&self) -> &'static str {
        "streamcluster"
    }

    fn run(&self, transport: &mut dyn BlockTransport) -> Vec<f64> {
        let mut rng = Pcg32::on(self.seed, Stream::STREAMCLUSTER);
        let d = self.dims;
        // Points drawn around `k` ground-truth blobs plus noise.
        let blob_centers: Vec<Vec<f32>> = (0..self.k)
            .map(|_| (0..d).map(|_| rng.f32() * 100.0).collect())
            .collect();
        let mut coords = vec![0f32; self.points * d];
        for p in 0..self.points {
            let blob = &blob_centers[rng.below(self.k as u32) as usize];
            for j in 0..d {
                coords[p * d + j] = blob[j] + rng.normal_with(0.0, 6.0) as f32;
            }
        }
        // The streamed coordinates are the approximable region.
        let coords = transport.transmit_f32(&coords);
        // Lloyd's algorithm from deterministic initial centers.
        let mut centers: Vec<Vec<f32>> = (0..self.k)
            .map(|c| coords[c * d..(c + 1) * d].to_vec())
            .collect();
        let mut assign = vec![0usize; self.points];
        for _ in 0..self.iterations {
            for p in 0..self.points {
                let pt = &coords[p * d..(p + 1) * d];
                assign[p] = (0..self.k)
                    .min_by(|&a, &b| {
                        squared_distance(pt, &centers[a])
                            .partial_cmp(&squared_distance(pt, &centers[b]))
                            // Finite coords never produce NaN; Equal keeps the
                            // lower index, matching min_by tie-breaking.
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .unwrap_or(0); // k >= 1 (constructor invariant); center 0 if not
            }
            for (c, center) in centers.iter_mut().enumerate() {
                let members: Vec<usize> = (0..self.points).filter(|p| assign[*p] == c).collect();
                if members.is_empty() {
                    continue;
                }
                for (j, coord) in center.iter_mut().enumerate() {
                    *coord = members.iter().map(|p| coords[p * d + j]).sum::<f32>()
                        / members.len() as f32;
                }
            }
        }
        assign.into_iter().map(|a| a as f64).collect()
    }

    /// Fraction of points whose cluster assignment changed.
    #[expect(
        clippy::float_cmp,
        reason = "cluster indices carried as f64; any difference is a changed assignment"
    )]
    fn output_error(&self, precise: &[f64], approx: &[f64]) -> f64 {
        assert_eq!(precise.len(), approx.len());
        if precise.is_empty() {
            return 0.0;
        }
        let mismatches = precise.iter().zip(approx).filter(|(a, b)| a != b).count();
        mismatches as f64 / precise.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::evaluate;
    use crate::transport::{ApproxTransport, PreciseTransport};
    use anoc_core::threshold::ErrorThreshold;

    #[test]
    fn deterministic_assignments() {
        let k = Streamcluster::new(128, 4, 2);
        let a = k.run(&mut PreciseTransport);
        assert_eq!(a, k.run(&mut PreciseTransport));
        assert_eq!(a.len(), 128);
        // All k clusters should be used on blob-structured data.
        let used: std::collections::BTreeSet<u64> = a.iter().map(|x| *x as u64).collect();
        assert!(used.len() >= 3, "only {} clusters used", used.len());
    }

    #[test]
    fn error_metric_counts_mismatches() {
        let k = Streamcluster::default();
        let e = k.output_error(&[0.0, 1.0, 2.0, 3.0], &[0.0, 1.0, 2.0, 1.0]);
        assert!((e - 0.25).abs() < 1e-12);
        assert_eq!(k.output_error(&[], &[]), 0.0);
    }

    #[test]
    fn approximation_perturbs_but_does_not_destroy_clustering() {
        let k = Streamcluster::new(256, 6, 7);
        let mut t = ApproxTransport::fp_vaxx(ErrorThreshold::from_percent(10).unwrap());
        let (_, _, err) = evaluate(&k, &mut t);
        // The paper singles streamcluster out as its worst case; expect a
        // visible but bounded mismatch fraction.
        assert!(err < 0.5, "mismatch fraction {err}");
    }
}
