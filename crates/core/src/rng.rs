//! A small deterministic random number generator (PCG-XSH-RR 64/32).
//!
//! The whole simulation stack must be a pure function of `(config, seed)` so
//! experiments are bit-reproducible; depending on an external `rand` version
//! would tie reproducibility to upstream API/algorithm churn. PCG32 is tiny,
//! statistically solid for simulation workloads, and trivially seedable.
//!
//! Library code in the sim-critical crates builds its generators with
//! [`Pcg32::on`] from a named [`Stream`], so the constants below are the
//! inventory of every random stream a simulation draws from.

/// A PCG-XSH-RR 64/32 generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

/// `PCG_MULT²` (mod 2^64): the multiplier of two steps at once.
const PCG_MULT_SQUARED: u64 = PCG_MULT.wrapping_mul(PCG_MULT);

/// The stream id of [`Pcg32::seed_from_u64`].
const DEFAULT_STREAM: u64 = 0xda3e_39cb_94b9_5bdb;

/// A named PCG stream id, one per kind of construction site. Its only
/// values are the constants below, and every generator built on one is
/// seeded from the run's configuration (a workload, plan or kernel seed),
/// never from ambient entropy, so a `(config, workload, seed)` cell reruns
/// bit for bit.
///
/// Two generators draw independent sequences when their `(seed, stream)`
/// pairs differ. [`FAULT`](Self::FAULT), [`LOSS`](Self::LOSS) and
/// [`PORT_STALL`](Self::PORT_STALL) share the default id of
/// [`Pcg32::seed_from_u64`], so they are independent only through their
/// seeds: a fault plan and a loss plan with equal seeds draw the same
/// sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream(u64);

impl Stream {
    /// `NocSim`'s link-flip and credit fault draws, seeded from the fault
    /// plan. They are drawn only on the serial cycle edge, in global
    /// router-ascending traversal order, so they do not depend on the shard
    /// or thread count. Until a plan is installed the generator is an inert
    /// placeholder that draws nothing.
    pub const FAULT: Stream = Stream(DEFAULT_STREAM);
    /// `NocSim`'s lossy-link erasure draws, seeded from the loss plan, in
    /// the same serial traversal order as [`FAULT`](Self::FAULT). Until a
    /// plan is installed the generator is an inert placeholder.
    pub const LOSS: Stream = Stream(DEFAULT_STREAM);
    /// The stateless port-stall oracle: one generator per
    /// `(plan seed, cycle, router, port)` site, drawn once, so the outcome
    /// is the same on any shard count.
    pub const PORT_STALL: Stream = Stream(DEFAULT_STREAM);
    /// `DataModel`'s value-pool synthesis, seeded from the workload seed.
    pub const DATA_MODEL: Stream = Stream(0x7261_6666_6963);
    /// `BenchmarkTraffic`'s injection stream, seeded from the workload seed.
    pub const BENCHMARK_TRAFFIC: Stream = Stream(0x6765_6e65_7261);
    /// `SyntheticTraffic`'s pattern stream, seeded from the workload seed.
    pub const SYNTHETIC_TRAFFIC: Stream = Stream(0x0073_796e_7468);
    /// The blackscholes kernel's inputs, seeded from its config seed.
    pub const BLACKSCHOLES: Stream = Stream(0x626c6b);
    /// The bodytrack kernel's inputs, seeded from its config seed.
    pub const BODYTRACK: Stream = Stream(0x626f6479);
    /// The canneal kernel's inputs and swaps, seeded from its config seed.
    pub const CANNEAL: Stream = Stream(0x63616e6e);
    /// The fluidanimate kernel's inputs, seeded from its config seed.
    pub const FLUIDANIMATE: Stream = Stream(0x666c7569);
    /// The streamcluster kernel's inputs, seeded from its config seed.
    pub const STREAMCLUSTER: Stream = Stream(0x73747265);
    /// The swaptions kernel's inputs, seeded from its config seed.
    pub const SWAPTIONS: Stream = Stream(0x73776170);
    /// The x264 kernel's inputs, seeded from its config seed.
    pub const X264: Stream = Stream(0x78323634);
    /// The R-MAT graph generator behind ssca2, seeded from the caller's
    /// graph seed.
    pub const RMAT: Stream = Stream(0x726d_6174);
}

impl Pcg32 {
    /// Creates a generator from a seed and a named stream.
    pub fn on(seed: u64, stream: Stream) -> Self {
        Pcg32::new(seed, stream.0)
    }

    /// Creates a generator from a seed and a raw stream id. Different stream
    /// ids yield independent sequences for the same seed. Sim-critical
    /// library code uses [`on`](Self::on) instead.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Creates a generator on the default stream.
    pub fn seed_from_u64(seed: u64) -> Self {
        Pcg32::new(seed, DEFAULT_STREAM)
    }

    /// The raw `(state, stream increment)` pair, for snapshotting a
    /// generator mid-sequence.
    pub fn state_parts(&self) -> (u64, u64) {
        (self.state, self.inc)
    }

    /// Rebuilds a generator from [`state_parts`](Self::state_parts). The
    /// restored generator continues the original sequence exactly, on the
    /// stream it was built on: this is a resume, not a new stream, so it
    /// names no [`Stream`].
    pub fn from_state_parts(state: u64, inc: u64) -> Self {
        Pcg32 { state, inc }
    }

    /// The next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        output(old)
    }

    /// The next 64 random bits: the next two [`next_u32`](Self::next_u32)
    /// outputs, the first in the high half. Both states come straight from
    /// the current one (s1 = a·s0 + c, s2 = a²·s0 + (a+1)·c), so the state
    /// advances by one dependent multiply-add instead of two.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s0 = self.state;
        let s1 = s0.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        self.state = s0
            .wrapping_mul(PCG_MULT_SQUARED)
            .wrapping_add(PCG_MULT.wrapping_add(1).wrapping_mul(self.inc));
        (u64::from(output(s0)) << 32) | u64::from(output(s1))
    }

    /// A uniformly distributed integer in `[0, bound)` (Lemire's method,
    /// bias-free).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u32();
            let m = (x as u64) * (bound as u64);
            let lo = m as u32;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 32) as u32;
            }
        }
    }

    /// A uniformly distributed integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// A uniform `f64` in `[0, 1)`: the top 53 bits of
    /// [`next_u64`](Self::next_u64) over 2^53.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        unit_f64(self.next_u64() >> 11)
    }

    /// A uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Bernoulli trial with probability `p`: `f64() < p`. Where `p` is
    /// fixed, [`trial`](Self::trial) with a [`Chance`] built once draws the
    /// same bits and decides the same way without float arithmetic.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// The Bernoulli trial `chance` describes, decided on integers: one
    /// [`next_u64`](Self::next_u64), exactly as [`chance`](Self::chance)
    /// draws, and the same outcome.
    #[inline]
    pub fn trial(&mut self, chance: Chance) -> bool {
        (self.next_u64() >> 11) < chance.0
    }

    /// Standard normal sample (Box–Muller).
    #[inline]
    pub fn normal(&mut self) -> f64 {
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    #[inline]
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "cannot choose from an empty slice");
        &xs[self.below(xs.len() as u32) as usize]
    }
}

/// The PCG-XSH-RR output permutation of one state.
#[inline]
fn output(state: u64) -> u32 {
    let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
    xorshifted.rotate_right((state >> 59) as u32)
}

/// `k / 2^53`, exact for every `k < 2^53`.
#[inline]
fn unit_f64(k: u64) -> f64 {
    k as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A Bernoulli probability turned into the integer threshold that
/// [`Pcg32::trial`] compares a 53-bit draw against.
///
/// `f64()` is exactly `k / 2^53` for its 53-bit draw `k`, and `p · 2^53` is
/// exact for every finite `p` (a power-of-two scale), so `k / 2^53 < p`
/// holds exactly when `k < ceil(p · 2^53)`. The saturating cast maps a
/// negative `p`, `-0.0` and NaN to 0 (never true, as `f64() < p` is never
/// true for them) and any `p ≥ 1` to at least 2^53 (always true).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chance(u64);

impl Chance {
    /// The threshold of probability `p`.
    pub const fn new(p: f64) -> Self {
        Chance((p * (1u64 << 53) as f64).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Pcg32::seed_from_u64(42);
        let mut b = Pcg32::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        let mut c = Pcg32::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn state_parts_resume_mid_sequence() {
        let mut a = Pcg32::new(99, 7);
        for _ in 0..37 {
            a.next_u32();
        }
        let (state, inc) = a.state_parts();
        let mut b = Pcg32::from_state_parts(state, inc);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn streams_are_independent() {
        let mut a = Pcg32::new(7, 1);
        let mut b = Pcg32::new(7, 2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Pcg32::seed_from_u64(1);
        for bound in [1u32, 2, 3, 7, 100, 1 << 20] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Pcg32::seed_from_u64(5);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[rng.below(8) as usize] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "count {c} outside tolerance");
        }
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = Pcg32::seed_from_u64(9);
        for _ in 0..1000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.f32();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Pcg32::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn range_and_choose() {
        let mut rng = Pcg32::seed_from_u64(23);
        for _ in 0..100 {
            let v = rng.range(10, 20);
            assert!((10..20).contains(&v));
        }
        let xs = [1, 2, 3];
        assert!(xs.contains(rng.choose(&xs)));
        let s = rng.normal_with(10.0, 0.0);
        assert_eq!(s, 10.0);
    }

    #[test]
    fn next_u64_is_two_next_u32_high_first() {
        for seed in [0, 1, 7, 42, 0xdead_beef, u64::MAX] {
            for stream in [0, 1, 2, 0x7261_6666_6963, 0x6765_6e65_7261, u64::MAX >> 1] {
                let mut a = Pcg32::new(seed, stream);
                for _ in 0..200 {
                    let mut b = a.clone();
                    let hi = u64::from(b.next_u32());
                    let lo = u64::from(b.next_u32());
                    assert_eq!(a.next_u64(), (hi << 32) | lo, "seed {seed} stream {stream}");
                    assert_eq!(a, b, "seed {seed} stream {stream}");
                    // Interleave single steps so both parities of the
                    // sequence start a 64-bit draw.
                    a.next_u32();
                }
            }
        }
    }

    /// Probabilities whose threshold is an edge case of `ceil(p · 2^53)`:
    /// signed zeros, exact multiples of 2^-53 and values between them, the
    /// largest value below 1, values at or above 1, negatives, NaN,
    /// infinities and subnormals, plus the fixed probabilities the traffic
    /// models draw with.
    fn edge_probabilities() -> Vec<f64> {
        let ulp = 1.0 / (1u64 << 53) as f64;
        vec![
            0.0,
            -0.0,
            ulp,
            2.5 * ulp,
            3.0 * ulp,
            0.5,
            0.5 + ulp,
            0.5 - ulp,
            0.25 + 0.5 * ulp,
            1.0 - ulp,
            1.0 - 2.0 * ulp,
            1.0,
            1.5,
            f64::MAX,
            f64::INFINITY,
            -0.1,
            -ulp,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            0.1,
            0.4,
            0.7,
            0.75,
            1.0 / 3.0,
        ]
    }

    #[test]
    fn trial_decides_every_53_bit_draw_as_f64_does() {
        let top = (1u64 << 53) - 1;
        for p in edge_probabilities() {
            let Chance(t) = Chance::new(p);
            // The draws on either side of the threshold, and the extremes.
            let ks = [0, 1, t.saturating_sub(1), t, t.saturating_add(1), top];
            for k in ks.into_iter().filter(|&k| k <= top) {
                assert_eq!(k < t, unit_f64(k) < p, "p {p:e}, k {k}, threshold {t}");
            }
        }
    }

    #[test]
    fn trial_matches_chance_on_a_clone() {
        for (i, p) in edge_probabilities().into_iter().enumerate() {
            let chance = Chance::new(p);
            let mut a = Pcg32::new(i as u64, 0x6368_616e_6365);
            let mut b = a.clone();
            for _ in 0..1000 {
                assert_eq!(a.trial(chance), b.chance(p), "p {p:e}");
            }
            assert_eq!(a, b, "p {p:e}: the trial drew differently");
        }
    }
}
