//! A streaming latency histogram with logarithmic buckets.
//!
//! The paper reports average latencies; a production simulator also needs
//! tail behaviour (p95/p99 blow up long before the mean at the saturation
//! knee of Figure 12). Buckets grow geometrically (powers of two split into
//! four sub-buckets), giving ≤ 12.5% relative quantile error at constant
//! memory.

use anoc_core::snap::{SnapError, SnapReader, SnapWriter};
use anoc_core::stats::StatField;

/// Sub-buckets per power of two (4 → ≤ 1/8 relative error).
const SUBBUCKETS: u64 = 4;

/// Number of buckets: covers latencies up to 2^40 cycles, far beyond any
/// simulation length.
const BUCKETS: usize = (40 * SUBBUCKETS) as usize + SUBBUCKETS as usize;

/// A fixed-memory log-bucketed histogram of cycle counts.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    max: u64,
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("samples", &self.total)
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .field("max", &self.max)
            .finish()
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(value: u64) -> usize {
        if value < SUBBUCKETS {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros() as u64; // floor(log2)
        let sub = (value >> (exp - 2)) & (SUBBUCKETS - 1); // top-2 fraction bits
        ((exp - 2) * SUBBUCKETS + sub) as usize + SUBBUCKETS as usize
    }

    /// The representative (upper-edge) value of a bucket.
    fn bucket_value(bucket: usize) -> u64 {
        if bucket < SUBBUCKETS as usize {
            return bucket as u64;
        }
        let b = bucket as u64 - SUBBUCKETS;
        let exp = b / SUBBUCKETS + 2;
        let sub = b % SUBBUCKETS;
        (1 << exp) + (sub + 1) * (1 << (exp - 2)) - 1
    }

    /// Records one latency sample.
    pub fn record(&mut self, cycles: u64) {
        let b = Self::bucket_of(cycles).min(BUCKETS - 1);
        self.counts[b] += 1;
        self.total += 1;
        self.max = self.max.max(cycles);
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.total
    }

    /// The largest sample seen exactly.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The latency at the given percentile (0 < p <= 100), within the bucket
    /// resolution (≤ 12.5% relative). Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        // `total > 0` implies an occupied bucket; fall back to the exact max
        // if the counts ever disagreed rather than crash.
        let Some(last_occupied) = self.counts.iter().rposition(|c| *c > 0) else {
            debug_assert!(false, "total > 0 but no occupied bucket");
            return self.max;
        };
        let mut seen = 0;
        for (b, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // The top occupied bucket is bounded by the exact max.
                if b == last_occupied {
                    return self.max;
                }
                return Self::bucket_value(b).min(self.max);
            }
        }
        self.max
    }

    /// The occupied buckets as `(bucket index, count)` pairs, sparse — the
    /// exact state needed to reconstruct the histogram with
    /// [`from_buckets`](Self::from_buckets).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(b, c)| (b, *c))
    }

    /// Rebuilds a histogram from sparse `(bucket index, count)` pairs and the
    /// exact maximum sample. Out-of-range bucket indices return `None`.
    pub fn from_buckets(buckets: impl IntoIterator<Item = (usize, u64)>, max: u64) -> Option<Self> {
        let mut h = LatencyHistogram::new();
        for (b, c) in buckets {
            if b >= BUCKETS {
                return None;
            }
            h.counts[b] += c;
            h.total += c;
        }
        h.max = max;
        Some(h)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }
}

/// A snapshot stores the maximum sample and the nonzero buckets as
/// `(index, count)` pairs.
impl StatField for LatencyHistogram {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.max);
        let buckets: Vec<(usize, u64)> = self.nonzero_buckets().collect();
        w.usize(buckets.len());
        for (b, c) in buckets {
            w.usize(b);
            w.u64(c);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let max = r.u64()?;
        let nb = r.usize()?;
        if nb > 4096 {
            return Err(SnapError::Invalid("histogram bucket count"));
        }
        let mut buckets = Vec::with_capacity(nb);
        for _ in 0..nb {
            buckets.push((r.usize()?, r.u64()?));
        }
        LatencyHistogram::from_buckets(buckets, max)
            .ok_or(SnapError::Invalid("histogram bucket index"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_for_small_values() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3, 3, 3] {
            h.record(v);
        }
        assert_eq!(h.samples(), 6);
        assert_eq!(h.percentile(100.0), 3);
        assert_eq!(h.percentile(1.0), 0);
        assert_eq!(h.max(), 3);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for p in [10.0, 50.0, 90.0, 99.0] {
            let exact = (p / 100.0 * 10_000.0) as u64;
            let est = h.percentile(p);
            let rel = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(rel <= 0.13, "p{p}: est {est} vs exact {exact} ({rel})");
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.samples(), 0);
        let dbg = format!("{h:?}");
        assert!(dbg.contains("samples"));
    }

    #[test]
    fn merge_combines_distributions() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for _ in 0..100 {
            a.record(10);
            b.record(1000);
        }
        a.merge(&b);
        assert_eq!(a.samples(), 200);
        assert!(a.percentile(25.0) <= 12);
        assert!(a.percentile(75.0) >= 900);
        assert_eq!(a.max(), 1000);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        let mut x = 123456789u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x % 100_000);
        }
        let mut last = 0;
        for p in 1..=100 {
            let v = h.percentile(p as f64);
            assert!(v >= last, "p{p}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn huge_values_clamp_into_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.percentile(100.0), u64::MAX);
        assert_eq!(h.samples(), 1);
    }
}
