//! Per-benchmark data-value models.
//!
//! The paper drives its NoC simulator with communication traces captured from
//! gem5 running PARSEC (`simlarge`) and a modified SSCA2 (§5.1). Those traces
//! are not redistributable, so — per the substitution policy in DESIGN.md —
//! each benchmark is modelled by a statistical generator exposing exactly the
//! properties the evaluated mechanisms are sensitive to:
//!
//! * **zero-word density** and **small-value density** (what FP-COMP exploits),
//! * **hot-value working set and reuse** (what DI-COMP learns),
//! * **value jitter around hot values** (what VAXX converts into hits),
//! * **int/float mix** (which AVCL datapath runs),
//! * **data-to-control packet ratio and offered load** (queueing behaviour),
//! * **burstiness** (congested phases where flit reduction pays off).
//!
//! The parameters are calibrated so the *relative* behaviour across
//! benchmarks matches the paper's characterization (e.g. SSCA2 is data-
//! intensive and value-local; bodytrack/canneal/fluidanimate have low
//! data-to-control ratios and light queueing).

use anoc_core::data::{CacheBlock, DataType};
use anoc_core::rng::{Chance, Pcg32, Stream};
use anoc_core::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Words per generated cache block: one 64-byte line (§5.4), which a
/// [`CacheBlock`] holds in place.
pub use anoc_core::data::BLOCK_WORDS;

/// The benchmarks of Figure 9 (PARSEC + the SSCA2 graph kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Black–Scholes option pricing (float-heavy, high value similarity).
    Blackscholes,
    /// Body tracking (low data ratio, image-derived floats).
    Bodytrack,
    /// Simulated-annealing routing cost (pointer/int-heavy, low data ratio).
    Canneal,
    /// SPH fluid simulation (float, low queueing).
    Fluidanimate,
    /// Online clustering (float coordinates, moderate locality).
    Streamcluster,
    /// HJM swaption Monte-Carlo (float, high sharing).
    Swaptions,
    /// H.264 encoding (int pixels/residuals, many zeros and small values).
    X264,
    /// SSCA2 betweenness centrality (data-intensive graph analytics).
    Ssca2,
}

impl Benchmark {
    /// All benchmarks in the paper's plotting order.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::Blackscholes,
        Benchmark::Bodytrack,
        Benchmark::Canneal,
        Benchmark::Fluidanimate,
        Benchmark::Streamcluster,
        Benchmark::Swaptions,
        Benchmark::X264,
        Benchmark::Ssca2,
    ];

    /// Lower-case display name.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Blackscholes => "blackscholes",
            Benchmark::Bodytrack => "bodytrack",
            Benchmark::Canneal => "canneal",
            Benchmark::Fluidanimate => "fluidanimate",
            Benchmark::Streamcluster => "streamcluster",
            Benchmark::Swaptions => "swaptions",
            Benchmark::X264 => "x264",
            Benchmark::Ssca2 => "ssca2",
        }
    }

    /// The calibrated data-value profile.
    pub fn profile(&self) -> Profile {
        match self {
            Benchmark::Blackscholes => Profile {
                float_ratio: 0.90,
                zero_word_prob: 0.20,
                small_int_prob: 0.30,
                hot_values: 12,
                hot_reuse_prob: 0.62,
                jitter_frac: 0.05,
                data_packet_ratio: 0.30,
                load: 0.028,
                burstiness: 0.25,
                sharing: 0.35,
            },
            Benchmark::Bodytrack => Profile {
                float_ratio: 0.75,
                zero_word_prob: 0.18,
                small_int_prob: 0.35,
                hot_values: 10,
                hot_reuse_prob: 0.45,
                jitter_frac: 0.06,
                data_packet_ratio: 0.14,
                load: 0.035,
                burstiness: 0.10,
                sharing: 0.20,
            },
            Benchmark::Canneal => Profile {
                float_ratio: 0.20,
                zero_word_prob: 0.10,
                small_int_prob: 0.25,
                hot_values: 16,
                hot_reuse_prob: 0.40,
                jitter_frac: 0.03,
                data_packet_ratio: 0.16,
                load: 0.040,
                burstiness: 0.15,
                sharing: 0.15,
            },
            Benchmark::Fluidanimate => Profile {
                float_ratio: 0.85,
                zero_word_prob: 0.14,
                small_int_prob: 0.20,
                hot_values: 10,
                hot_reuse_prob: 0.42,
                jitter_frac: 0.05,
                data_packet_ratio: 0.15,
                load: 0.035,
                burstiness: 0.12,
                sharing: 0.20,
            },
            Benchmark::Streamcluster => Profile {
                float_ratio: 0.88,
                zero_word_prob: 0.12,
                small_int_prob: 0.15,
                hot_values: 12,
                hot_reuse_prob: 0.50,
                jitter_frac: 0.07,
                data_packet_ratio: 0.22,
                load: 0.030,
                burstiness: 0.30,
                sharing: 0.30,
            },
            Benchmark::Swaptions => Profile {
                float_ratio: 0.92,
                zero_word_prob: 0.15,
                small_int_prob: 0.15,
                hot_values: 10,
                hot_reuse_prob: 0.55,
                jitter_frac: 0.06,
                data_packet_ratio: 0.28,
                load: 0.026,
                burstiness: 0.30,
                sharing: 0.45,
            },
            Benchmark::X264 => Profile {
                float_ratio: 0.15,
                zero_word_prob: 0.34,
                small_int_prob: 0.45,
                hot_values: 14,
                hot_reuse_prob: 0.48,
                jitter_frac: 0.08,
                data_packet_ratio: 0.30,
                load: 0.027,
                burstiness: 0.35,
                sharing: 0.25,
            },
            Benchmark::Ssca2 => Profile {
                float_ratio: 0.55,
                zero_word_prob: 0.16,
                small_int_prob: 0.28,
                hot_values: 8,
                hot_reuse_prob: 0.72,
                jitter_frac: 0.05,
                data_packet_ratio: 0.55,
                load: 0.016,
                burstiness: 0.55,
                sharing: 0.50,
            },
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The tunable data/traffic characteristics of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// Fraction of data blocks holding floats (vs integers).
    pub float_ratio: f64,
    /// Probability a word is exactly zero.
    pub zero_word_prob: f64,
    /// Probability a word is a small, sign-extension-friendly integer.
    pub small_int_prob: f64,
    /// Size of the hot-value working set.
    pub hot_values: usize,
    /// Probability a word reuses (a jittered copy of) a hot value.
    pub hot_reuse_prob: f64,
    /// Relative jitter applied to reused hot values (the approximate
    /// similarity VAXX exploits).
    pub jitter_frac: f64,
    /// Fraction of generated packets that are data packets.
    pub data_packet_ratio: f64,
    /// Offered load in packets per node per cycle.
    pub load: f64,
    /// Fraction of time spent in 4×-rate bursty phases.
    pub burstiness: f64,
    /// Degree of data sharing (drives the full-system speedups of §5.4).
    pub sharing: f64,
}

/// A deterministic generator of benchmark-shaped cache blocks.
#[derive(Debug, Clone)]
pub struct DataModel {
    profile: Profile,
    hot_ints: Vec<HotInt>,
    hot_floats: Vec<f32>,
    draws: Draws,
    rng: Pcg32,
}

/// Share of small integers that are negative.
const NEGATIVE: Chance = Chance::new(0.4);

/// Share of reused hot values that are jittered.
const JITTER_HIT: Chance = Chance::new(0.7);

/// What the per-word path needs of the profile, derived once at
/// construction: the Bernoulli thresholds and the float jitter mask.
#[derive(Debug, Clone, Copy)]
struct Draws {
    float_block: Chance,
    zero_word: Chance,
    small_int: Chance,
    hot_reuse: Chance,
    /// Whether reused hot values are jittered at all (`jitter_frac > 0`);
    /// when not, no jitter draw happens.
    jitter: bool,
    /// The low mantissa bits a float jitter replaces.
    float_jitter_mask: u32,
}

impl Draws {
    fn new(p: &Profile) -> Self {
        let span_bits = ((8_388_608.0 * p.jitter_frac) as u32).max(1); // 2^23 * jf
        let bits = 32 - span_bits.leading_zeros() - 1;
        Draws {
            float_block: Chance::new(p.float_ratio),
            zero_word: Chance::new(p.zero_word_prob),
            small_int: Chance::new(p.small_int_prob),
            hot_reuse: Chance::new(p.hot_reuse_prob),
            // Only `jitter_frac <= 0` skips the draw; NaN does not.
            jitter: p.jitter_frac > 0.0 || p.jitter_frac.is_nan(),
            float_jitter_mask: (1u32 << bits.min(22)) - 1,
        }
    }
}

/// A hot integer and the low bits its jitter replaces: `None` when the
/// jitter span rounds to 0, in which case no bits are drawn. A span of 1
/// gives the mask 0, and that jitter still draws.
#[derive(Debug, Clone, Copy)]
struct HotInt {
    value: u32,
    jitter_mask: Option<u32>,
}

impl HotInt {
    fn new(value: u32, jitter_frac: f64) -> Self {
        // Value similarity in real workloads concentrates in the low-order
        // bits (quantised weights, pixel components, counters): perturb the
        // low bits only, bounding |w - v| by roughly jf * v.
        let span = ((value as f64) * jitter_frac) as u64;
        let jitter_mask = (span != 0).then(|| {
            let bits = 64 - span.leading_zeros() - 1; // floor(log2 span)
            if bits >= 32 {
                u32::MAX
            } else {
                (1u32 << bits) - 1
            }
        });
        HotInt { value, jitter_mask }
    }
}

/// `2^exp` for a normal exponent, built from its exponent bits; equal to
/// `2f32.powi(exp)` for every `exp` in `-126..=127`.
fn pow2(exp: i32) -> f32 {
    f32::from_bits(((exp + 127) as u32) << 23)
}

impl DataModel {
    /// Creates a data model for `benchmark` seeded with `seed`.
    pub fn new(benchmark: Benchmark, seed: u64) -> Self {
        DataModel::from_profile(benchmark.profile(), seed)
    }

    /// Creates a data model from an explicit profile.
    pub fn from_profile(profile: Profile, seed: u64) -> Self {
        let mut rng = Pcg32::on(seed, Stream::DATA_MODEL);
        let hot_ints = (0..profile.hot_values)
            .map(|_| {
                // Hot integers span magnitudes so some are FPC-friendly and
                // some only dictionary-compressible.
                let mag = 1u32 << rng.range(4, 28);
                HotInt::new(rng.below(mag).max(1), profile.jitter_frac)
            })
            .collect();
        let hot_floats = (0..profile.hot_values)
            .map(|_| {
                let exp = rng.range(0, 12) as i32 - 6;
                (rng.f32() + 0.5) * pow2(exp)
            })
            .collect();
        DataModel {
            profile,
            hot_ints,
            hot_floats,
            draws: Draws::new(&profile),
            rng,
        }
    }

    /// The profile driving this model.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Serializes mid-run state for a simulator snapshot. The hot-value
    /// tables and the derived thresholds are a pure function of
    /// `(profile, seed)` and are rebuilt by the constructor, so only the RNG
    /// cursor travels.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.rng.save(w);
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// model built with the same `(profile, seed)`.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rng = Pcg32::load(r)?;
        Ok(())
    }

    /// Generates the next cache block. `approximable` marks the metadata
    /// flag (the caller applies the experiment's approximable-packet ratio).
    pub fn next_block(&mut self, approximable: bool) -> CacheBlock {
        let mut words = [0u32; BLOCK_WORDS];
        if self.rng.trial(self.draws.float_block) {
            for w in &mut words {
                *w = self.next_float_word().to_bits();
            }
            CacheBlock::from_line(words, BLOCK_WORDS, DataType::F32, approximable)
        } else {
            for w in &mut words {
                *w = self.next_int_word() as u32;
            }
            CacheBlock::from_line(words, BLOCK_WORDS, DataType::Int, approximable)
        }
    }

    fn next_int_word(&mut self) -> i32 {
        let d = self.draws;
        if self.rng.trial(d.zero_word) {
            return 0;
        }
        if self.rng.trial(d.small_int) {
            // Sign-extension-friendly magnitudes (4/8/16-bit).
            let bits = *self.rng.choose(&[3u32, 7, 7, 15]);
            let mag = self.rng.below(1 << bits) as i32;
            return if self.rng.trial(NEGATIVE) { -mag } else { mag };
        }
        if self.rng.trial(d.hot_reuse) {
            let hot = *self.rng.choose(&self.hot_ints);
            return self.jitter_int(hot) as i32;
        }
        self.rng.next_u32() as i32
    }

    fn jitter_int(&mut self, hot: HotInt) -> u32 {
        if !self.draws.jitter || !self.rng.trial(JITTER_HIT) {
            return hot.value;
        }
        match hot.jitter_mask {
            Some(mask) => (hot.value & !mask) | (self.rng.next_u32() & mask),
            None => hot.value,
        }
    }

    fn next_float_word(&mut self) -> f32 {
        let d = self.draws;
        if self.rng.trial(d.zero_word) {
            return 0.0;
        }
        if self.rng.trial(d.hot_reuse) {
            let hot = *self.rng.choose(&self.hot_floats);
            return self.jitter_float(hot);
        }
        // Cold values: moderately ranged floats.
        let exp = self.rng.range(0, 16) as i32 - 8;
        (self.rng.f32() + 0.5) * pow2(exp)
    }

    fn jitter_float(&mut self, value: f32) -> f32 {
        if !self.draws.jitter || !self.rng.trial(JITTER_HIT) || !value.is_normal() {
            return value;
        }
        // Perturb low mantissa bits: a relative change bounded by jf that
        // keeps the high mantissa bits (the similarity structure VAXX and
        // approximate caches exploit) intact.
        let mask = self.draws.float_jitter_mask;
        f32::from_bits((value.to_bits() & !mask) | (self.rng.next_u32() & mask))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anoc_core::data::DataType;

    #[test]
    fn deterministic_given_seed() {
        let mut a = DataModel::new(Benchmark::Ssca2, 42);
        let mut b = DataModel::new(Benchmark::Ssca2, 42);
        for _ in 0..20 {
            assert_eq!(a.next_block(true), b.next_block(true));
        }
        let mut c = DataModel::new(Benchmark::Ssca2, 43);
        assert_ne!(a.next_block(true), c.next_block(true));
    }

    #[test]
    fn blocks_have_uniform_dtype_and_flag() {
        let mut m = DataModel::new(Benchmark::Blackscholes, 7);
        for approx in [true, false] {
            let b = m.next_block(approx);
            assert_eq!(b.len(), BLOCK_WORDS);
            assert_eq!(b.is_approximable(), approx);
            assert!(matches!(b.dtype(), DataType::Int | DataType::F32));
        }
    }

    #[test]
    fn x264_is_int_and_zero_heavy() {
        let mut m = DataModel::new(Benchmark::X264, 9);
        let mut zeros = 0usize;
        let mut int_blocks = 0usize;
        let total_blocks = 300;
        for _ in 0..total_blocks {
            let b = m.next_block(true);
            if b.dtype() == DataType::Int {
                int_blocks += 1;
            }
            zeros += b.words().iter().filter(|w| **w == 0).count();
        }
        assert!(int_blocks > total_blocks * 3 / 5, "{int_blocks}");
        let zero_frac = zeros as f64 / (total_blocks * BLOCK_WORDS) as f64;
        assert!(zero_frac > 0.25, "zero fraction {zero_frac}");
    }

    #[test]
    fn ssca2_shows_value_locality() {
        let mut m = DataModel::new(Benchmark::Ssca2, 11);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..200 {
            let b = m.next_block(true);
            for w in b.words() {
                *counts.entry(*w).or_insert(0usize) += 1;
            }
        }
        // The hottest value should recur far more than uniform chance.
        let max = counts.values().copied().max().unwrap();
        assert!(max > 50, "hottest value seen {max} times");
    }

    #[test]
    fn profiles_are_distinct_and_sane() {
        for b in Benchmark::ALL {
            let p = b.profile();
            assert!((0.0..=1.0).contains(&p.float_ratio), "{b}");
            assert!((0.0..=1.0).contains(&p.data_packet_ratio));
            assert!(p.load > 0.0 && p.load < 1.0);
            assert!(p.hot_values > 0);
            assert_eq!(b.name(), b.to_string());
        }
        assert!(
            Benchmark::Ssca2.profile().data_packet_ratio
                > Benchmark::Bodytrack.profile().data_packet_ratio * 2.0,
            "ssca2 is the data-intensive outlier"
        );
    }

    #[test]
    fn jitter_stays_relative() {
        let mut m = DataModel::new(Benchmark::Blackscholes, 13);
        let hot = HotInt::new(10_000, m.profile.jitter_frac);
        for _ in 0..200 {
            let j = m.jitter_int(hot);
            assert!((9_400..=10_600).contains(&j), "{j}");
            let f = m.jitter_float(2.0);
            assert!((1.8..=2.2).contains(&f), "{f}");
        }
    }

    /// The integer jitter as it was written before its mask was derived at
    /// construction: the span and mask are worked out on every call.
    fn jitter_int_per_call(rng: &mut Pcg32, value: u32, jf: f64) -> u32 {
        if jf <= 0.0 || !rng.chance(0.7) {
            return value;
        }
        let span = ((value as f64) * jf) as u64;
        if span == 0 {
            return value;
        }
        let bits = 64 - span.leading_zeros() - 1;
        let mask = if bits >= 32 {
            u32::MAX
        } else {
            (1u32 << bits) - 1
        };
        (value & !mask) | (rng.next_u32() & mask)
    }

    #[test]
    fn derived_int_jitter_matches_the_per_call_one() {
        // Spans of 0 (no bits drawn), 1 (mask 0, still drawn) and up, for
        // every profile's jitter fraction, a zero one and a NaN one.
        let mut values: Vec<u32> = (0..400).collect();
        values.extend([10_000, 1 << 20, (1 << 27) + 12_345, u32::MAX]);
        let fracs = Benchmark::ALL.map(|b| b.profile().jitter_frac);
        for jf in fracs.into_iter().chain([0.0, -0.5, f64::NAN, 1.0]) {
            let mut profile = Benchmark::Canneal.profile();
            profile.jitter_frac = jf;
            let mut m = DataModel::from_profile(profile, 5);
            let mut reference = m.rng.clone();
            for &v in &values {
                for _ in 0..4 {
                    let want = jitter_int_per_call(&mut reference, v, jf);
                    assert_eq!(m.jitter_int(HotInt::new(v, jf)), want, "value {v}, jf {jf}");
                    assert_eq!(m.rng, reference, "value {v}, jf {jf}: draws differ");
                }
            }
        }
    }

    #[test]
    fn pow2_equals_powi_over_the_normal_exponents() {
        for exp in -126..=127 {
            assert_eq!(pow2(exp).to_bits(), 2f32.powi(exp).to_bits(), "2^{exp}");
        }
    }

    #[test]
    fn trials_match_chance_for_every_profile_probability() {
        for b in Benchmark::ALL {
            let p = b.profile();
            for prob in [
                p.float_ratio,
                p.zero_word_prob,
                p.small_int_prob,
                p.hot_reuse_prob,
                p.data_packet_ratio,
                p.burstiness,
                p.load,
                (p.load * 4.0).min(1.0),
            ] {
                let chance = Chance::new(prob);
                let mut a = Pcg32::new(3, b as u64);
                let mut r = a.clone();
                for _ in 0..2000 {
                    assert_eq!(a.trial(chance), r.chance(prob), "{b}: p {prob}");
                }
                assert_eq!(a, r, "{b}: p {prob}");
            }
        }
    }
}
