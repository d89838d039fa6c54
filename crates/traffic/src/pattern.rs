//! Synthetic destination patterns: the Uniform Random and Transpose traffic
//! of §5.2.2.

use anoc_core::data::NodeId;
use anoc_core::rng::Pcg32;

/// A synthetic traffic destination pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DestPattern {
    /// Every other node equally likely (UR).
    UniformRandom,
    /// Node with bit-transposed id: for an id of 2b bits, destination is the
    /// low and high halves swapped (TR).
    Transpose,
}

impl DestPattern {
    /// Picks a destination for `src` in a network of `num_nodes` nodes.
    /// Always returns a node different from `src` (self-traffic is retried
    /// for Uniform Random and redirected to the next node where Transpose
    /// maps a node to itself).
    pub fn dest(&self, src: NodeId, num_nodes: usize, rng: &mut Pcg32) -> NodeId {
        debug_assert!(num_nodes >= 2, "patterns need at least two nodes");
        let n = num_nodes as u32;
        let s = src.0 as u32;
        let d = match *self {
            DestPattern::UniformRandom => {
                let mut d = rng.below(n);
                while d == s {
                    d = rng.below(n);
                }
                d
            }
            DestPattern::Transpose => {
                let bits = n.trailing_zeros().max(2);
                let half = bits / 2;
                let mask = (1 << half) - 1;
                let lo = s & mask;
                let hi = (s >> half) & mask;
                ((lo << half) | hi) % n
            }
        };
        if d == s {
            NodeId(((d + 1) % n) as u16)
        } else {
            NodeId(d as u16)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_self_traffic() {
        let mut rng = Pcg32::seed_from_u64(1);
        let patterns = [DestPattern::UniformRandom, DestPattern::Transpose];
        for p in patterns {
            for s in 0..32u16 {
                for _ in 0..20 {
                    let d = p.dest(NodeId(s), 32, &mut rng);
                    assert_ne!(d, NodeId(s), "{p:?} produced self traffic");
                    assert!((d.0 as usize) < 32);
                }
            }
        }
    }

    #[test]
    fn uniform_covers_all_destinations() {
        let mut rng = Pcg32::seed_from_u64(2);
        let mut seen = [false; 16];
        for _ in 0..2000 {
            let d = DestPattern::UniformRandom.dest(NodeId(0), 16, &mut rng);
            seen[d.index()] = true;
        }
        assert!(seen.iter().skip(1).all(|s| *s));
        assert!(!seen[0]);
    }

    #[test]
    fn transpose_is_an_involution_for_square_sizes() {
        let mut rng = Pcg32::seed_from_u64(3);
        for s in 0..16u16 {
            let d = DestPattern::Transpose.dest(NodeId(s), 16, &mut rng);
            if d != NodeId(s) {
                // transpose(transpose(s)) == s, unless redirected.
                let dd = DestPattern::Transpose.dest(d, 16, &mut rng);
                let raw = {
                    let lo = d.0 & 0b11;
                    let hi = (d.0 >> 2) & 0b11;
                    (lo << 2) | hi
                };
                if raw != d.0 {
                    assert_eq!(dd, NodeId(raw));
                }
            }
        }
    }
}
