//! The canneal kernel: simulated-annealing placement cost minimisation.
//!
//! PARSEC's canneal minimises routing cost by swapping netlist elements with
//! simulated annealing. The model kernel anneals element positions on a grid;
//! the shared approximable data are the element coordinates read when
//! evaluating wirelength. The output is the final total wirelength and the
//! error metric its relative deviation.

use anoc_core::rng::{Pcg32, Stream};

use crate::kernel::ApproxKernel;
use crate::transport::BlockTransport;

/// The canneal kernel configuration.
#[derive(Debug, Clone, Copy)]
pub struct Canneal {
    /// Number of placed elements.
    pub elements: usize,
    /// Number of two-pin nets.
    pub nets: usize,
    /// Annealing steps.
    pub steps: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl Canneal {
    /// An annealing problem of `elements` elements and `nets` nets.
    pub fn new(elements: usize, nets: usize, steps: usize, seed: u64) -> Self {
        Canneal {
            elements,
            nets,
            steps,
            seed,
        }
    }

    fn wirelength(positions: &[i32], nets: &[(u32, u32)]) -> f64 {
        nets.iter()
            .map(|(a, b)| {
                let (ax, ay) = (positions[*a as usize * 2], positions[*a as usize * 2 + 1]);
                let (bx, by) = (positions[*b as usize * 2], positions[*b as usize * 2 + 1]);
                ((ax - bx).abs() + (ay - by).abs()) as f64
            })
            .sum()
    }
}

impl Default for Canneal {
    fn default() -> Self {
        Canneal::new(128, 256, 2_000, 1)
    }
}

impl ApproxKernel for Canneal {
    fn name(&self) -> &'static str {
        "canneal"
    }

    fn run(&self, transport: &mut dyn BlockTransport) -> Vec<f64> {
        let mut rng = Pcg32::on(self.seed, Stream::CANNEAL);
        let grid = 256i32;
        let mut positions: Vec<i32> = (0..self.elements * 2)
            .map(|_| rng.below(grid as u32) as i32)
            .collect();
        let nets: Vec<(u32, u32)> = (0..self.nets)
            .map(|_| {
                let a = rng.below(self.elements as u32);
                let mut b = rng.below(self.elements as u32);
                while b == a {
                    b = rng.below(self.elements as u32);
                }
                (a, b)
            })
            .collect();
        let mut temperature = 100.0f64;
        // Cost decisions read the shared (approximable) coordinate data.
        let mut viewed = transport.transmit_i32(&positions);
        let mut cost = Canneal::wirelength(&viewed, &nets);
        for step in 0..self.steps {
            // Propose a swap of two elements' positions.
            let i = rng.below(self.elements as u32) as usize;
            let mut j = rng.below(self.elements as u32) as usize;
            while j == i {
                j = rng.below(self.elements as u32) as usize;
            }
            positions.swap(i * 2, j * 2);
            positions.swap(i * 2 + 1, j * 2 + 1);
            // Periodically refresh the transported view (a real run streams
            // the affected cache blocks; per-epoch refresh bounds transport
            // calls while keeping decisions on approximated data).
            if step % 64 == 0 {
                viewed = transport.transmit_i32(&positions);
            } else {
                viewed.swap(i * 2, j * 2);
                viewed.swap(i * 2 + 1, j * 2 + 1);
            }
            let new_cost = Canneal::wirelength(&viewed, &nets);
            let accept = new_cost < cost || rng.f64() < ((cost - new_cost) / temperature).exp();
            if accept {
                cost = new_cost;
            } else {
                positions.swap(i * 2, j * 2);
                positions.swap(i * 2 + 1, j * 2 + 1);
                viewed.swap(i * 2, j * 2);
                viewed.swap(i * 2 + 1, j * 2 + 1);
            }
            temperature *= 0.999;
        }
        // Final quality judged on the true positions.
        vec![Canneal::wirelength(&positions, &nets)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::evaluate;
    use crate::transport::{ApproxTransport, PreciseTransport};
    use anoc_core::threshold::ErrorThreshold;

    #[test]
    fn annealing_reduces_wirelength() {
        let k = Canneal::new(64, 128, 3_000, 2);
        let final_cost = k.run(&mut PreciseTransport)[0];
        // Initial random placement cost for the same instance:
        let baseline = {
            let mut rng = Pcg32::on(2, Stream::CANNEAL);
            let positions: Vec<i32> = (0..64 * 2).map(|_| rng.below(256) as i32).collect();
            let nets: Vec<(u32, u32)> = (0..128)
                .map(|_| {
                    let a = rng.below(64);
                    let mut b = rng.below(64);
                    while b == a {
                        b = rng.below(64);
                    }
                    (a, b)
                })
                .collect();
            Canneal::wirelength(&positions, &nets)
        };
        assert!(
            final_cost < baseline,
            "annealed {final_cost} vs initial {baseline}"
        );
    }

    #[test]
    fn deterministic() {
        let k = Canneal::new(32, 64, 500, 7);
        assert_eq!(k.run(&mut PreciseTransport), k.run(&mut PreciseTransport));
    }

    #[test]
    fn approximate_annealing_lands_near_precise_cost() {
        let k = Canneal::new(64, 128, 1_500, 3);
        let mut t = ApproxTransport::fp_vaxx(ErrorThreshold::from_percent(10).unwrap());
        let (_, _, err) = evaluate(&k, &mut t);
        // Annealing is robust to noisy cost estimates; the final cost should
        // stay in the same ballpark.
        assert!(err < 0.30, "relative cost deviation {err}");
    }

    #[test]
    fn wirelength_of_coincident_points_is_zero() {
        let positions = vec![5, 5, 5, 5];
        assert_eq!(Canneal::wirelength(&positions, &[(0, 1)]), 0.0);
        let positions = vec![0, 0, 3, 4];
        assert_eq!(Canneal::wirelength(&positions, &[(0, 1)]), 7.0);
    }
}
