//! Traffic sources: per-cycle packet injections for the simulator.
//!
//! Sources are decoupled from the simulator: each cycle they emit a list of
//! [`Injection`]s the driver enqueues into the NoC. Two kinds exist, matching
//! the paper's two methodologies (§5.1):
//!
//! * [`BenchmarkTraffic`] — closed-form model of a benchmark's communication
//!   (its offered load, burst phases, data:control mix and data values);
//! * [`SyntheticTraffic`] — classic rate-swept synthetic traffic (UR/TR/...)
//!   whose *data payloads* come from a benchmark data pool, exactly like the
//!   paper's throughput study ("the synthetic workloads can be used to vary
//!   the traffic pattern/injection rate but the data being communicated can
//!   be kept constant and correlated with data locality in the benchmarks").

use anoc_core::data::{CacheBlock, NodeId};
use anoc_core::rng::{Chance, Pcg32, Stream};
use anoc_core::snap::{Snap, SnapError, SnapReader, SnapWriter};

use crate::datamodel::{Benchmark, DataModel};
use crate::pattern::DestPattern;
use crate::trace::DataPool;

/// One packet to inject this cycle.
#[derive(Debug, Clone)]
pub struct Injection {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Payload: `None` for a control packet, a cache block for data.
    pub payload: Option<CacheBlock>,
}

/// A generator of per-cycle injections.
pub trait TrafficSource {
    /// Emits the injections for `cycle`, appending to `out`.
    fn tick(&mut self, cycle: u64, out: &mut Vec<Injection>);

    /// Number of nodes this source drives.
    fn num_nodes(&self) -> usize;

    /// Whether this source can be snapshotted mid-run. Sources that answer
    /// `false` force the harness onto the cold (replayed-warmup) path.
    fn snapshot_supported(&self) -> bool {
        false
    }

    /// Serializes mid-run state for a simulator snapshot. Only meaningful
    /// when [`snapshot_supported`](Self::snapshot_supported) is true.
    fn save_state(&self, _w: &mut SnapWriter) {}

    /// Restores state written by [`save_state`](Self::save_state).
    fn load_state(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

/// Benchmark-shaped traffic: Bernoulli packet generation per node at the
/// profile's load, with bursty phases, the profile's data:control mix, and
/// values drawn from the benchmark data model.
#[derive(Debug, Clone)]
pub struct BenchmarkTraffic {
    benchmark: Benchmark,
    num_nodes: usize,
    model: DataModel,
    rng: Pcg32,
    /// Whether a new phase is a burst.
    burst: Chance,
    /// A node's per-cycle injection, in a steady and in a burst phase.
    inject: [Chance; 2],
    /// Whether a packet carries data, and whether that data is approximable.
    data: Chance,
    approx: Chance,
    /// Remaining cycles of the current phase, and whether it is a burst.
    phase: (u64, bool),
}

impl BenchmarkTraffic {
    /// Creates benchmark traffic over `num_nodes` nodes. `approx_ratio` is
    /// the fraction of data packets flagged approximable (the paper's
    /// default is 0.75).
    pub fn new(benchmark: Benchmark, num_nodes: usize, approx_ratio: f64, seed: u64) -> Self {
        let profile = benchmark.profile();
        BenchmarkTraffic {
            benchmark,
            num_nodes,
            model: DataModel::new(benchmark, seed),
            rng: Pcg32::on(seed, Stream::BENCHMARK_TRAFFIC),
            burst: Chance::new(profile.burstiness),
            // Bursty phases inject at four times the profile load.
            inject: [1.0, 4.0].map(|mult| Chance::new((profile.load * mult).min(1.0))),
            data: Chance::new(profile.data_packet_ratio),
            approx: Chance::new(approx_ratio),
            phase: (0, false),
        }
    }

    /// The benchmark this source models.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }
}

impl TrafficSource for BenchmarkTraffic {
    fn tick(&mut self, _cycle: u64, out: &mut Vec<Injection>) {
        // Phase machine: alternate steady and bursty intervals.
        if self.phase.0 == 0 {
            let burst = self.rng.trial(self.burst);
            let len = self.rng.range(200, 800) as u64;
            self.phase = (len, burst);
        }
        self.phase.0 -= 1;
        let inject = self.inject[usize::from(self.phase.1)];
        for node in 0..self.num_nodes {
            if !self.rng.trial(inject) {
                continue;
            }
            let src = NodeId::from(node);
            let dest = DestPattern::UniformRandom.dest(src, self.num_nodes, &mut self.rng);
            let payload = if self.rng.trial(self.data) {
                let approx = self.rng.trial(self.approx);
                Some(self.model.next_block(approx))
            } else {
                None
            };
            out.push(Injection { src, dest, payload });
        }
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn snapshot_supported(&self) -> bool {
        true
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.rng.save(w);
        self.model.save_state(w);
        self.phase.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rng = Pcg32::load(r)?;
        self.model.load_state(r)?;
        self.phase = Snap::load(r)?;
        Ok(())
    }
}

/// Rate-swept synthetic traffic with benchmark data payloads (Figure 12).
#[derive(Debug, Clone)]
pub struct SyntheticTraffic {
    pattern: DestPattern,
    num_nodes: usize,
    pool: DataPool,
    rng: Pcg32,
    /// Offered load in flits per node per cycle.
    flit_rate: f64,
    /// A node's per-cycle injection: the flit rate over the mix's average
    /// packet size.
    inject: Chance,
    /// Whether a packet carries data (25:75 in §5.2.2), and whether that
    /// data is approximable.
    data: Chance,
    approx: Chance,
}

impl SyntheticTraffic {
    /// Creates a synthetic source.
    ///
    /// * `flit_rate` — offered load in flits/node/cycle (the x-axis of
    ///   Figure 12);
    /// * `data_ratio` — fraction of packets carrying data (0.25 in §5.2.2);
    /// * `pool` — benchmark data pool supplying payload values.
    pub fn new(
        pattern: DestPattern,
        num_nodes: usize,
        pool: DataPool,
        flit_rate: f64,
        data_ratio: f64,
        approx_ratio: f64,
        seed: u64,
    ) -> Self {
        // Average flits per packet, for converting the flit rate to a packet
        // rate; a data packet counts at its uncompressed size (a 64 B block
        // on 64-bit flits), so the offered load is mechanism-independent.
        let data_flits = 9.0;
        let avg_flits = data_ratio * data_flits + (1.0 - data_ratio);
        SyntheticTraffic {
            pattern,
            num_nodes,
            pool,
            rng: Pcg32::on(seed, Stream::SYNTHETIC_TRAFFIC),
            flit_rate,
            inject: Chance::new((flit_rate / avg_flits).min(1.0)),
            data: Chance::new(data_ratio),
            approx: Chance::new(approx_ratio),
        }
    }

    /// The offered load in flits/node/cycle.
    pub fn flit_rate(&self) -> f64 {
        self.flit_rate
    }
}

impl TrafficSource for SyntheticTraffic {
    fn tick(&mut self, _cycle: u64, out: &mut Vec<Injection>) {
        for node in 0..self.num_nodes {
            if !self.rng.trial(self.inject) {
                continue;
            }
            let src = NodeId::from(node);
            let dest = self.pattern.dest(src, self.num_nodes, &mut self.rng);
            let payload = if self.rng.trial(self.data) {
                let approx = self.rng.trial(self.approx);
                Some(self.pool.draw(&mut self.rng).with_approximable(approx))
            } else {
                None
            };
            out.push(Injection { src, dest, payload });
        }
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_traffic_rate_is_roughly_the_profile_load() {
        let n = 32;
        let mut t = BenchmarkTraffic::new(Benchmark::Blackscholes, n, 0.75, 1);
        let mut out = Vec::new();
        let cycles = 5000;
        for c in 0..cycles {
            t.tick(c, &mut out);
        }
        let per_node_per_cycle = out.len() as f64 / (n as f64 * cycles as f64);
        let base = Benchmark::Blackscholes.profile().load;
        // Bursts push the average above the base load, but within ~4x.
        assert!(
            per_node_per_cycle > base * 0.8 && per_node_per_cycle < base * 4.0,
            "rate {per_node_per_cycle} vs base {base}"
        );
        assert_eq!(t.num_nodes(), n);
    }

    #[test]
    fn data_control_mix_matches_profile() {
        let mut t = BenchmarkTraffic::new(Benchmark::Ssca2, 16, 0.75, 2);
        let mut out = Vec::new();
        for c in 0..4000 {
            t.tick(c, &mut out);
        }
        let data = out.iter().filter(|i| i.payload.is_some()).count();
        let ratio = data as f64 / out.len() as f64;
        let want = Benchmark::Ssca2.profile().data_packet_ratio;
        assert!((ratio - want).abs() < 0.05, "ratio {ratio} want {want}");
    }

    #[test]
    fn approx_ratio_respected() {
        let mut t = BenchmarkTraffic::new(Benchmark::Ssca2, 16, 0.5, 3);
        let mut out = Vec::new();
        for c in 0..4000 {
            t.tick(c, &mut out);
        }
        let blocks: Vec<_> = out.iter().filter_map(|i| i.payload.as_ref()).collect();
        let approx = blocks.iter().filter(|b| b.is_approximable()).count();
        let frac = approx as f64 / blocks.len() as f64;
        assert!((frac - 0.5).abs() < 0.06, "approximable fraction {frac}");
    }

    #[test]
    fn synthetic_traffic_sweeps_rate() {
        let pool = DataPool::from_benchmark(Benchmark::Blackscholes, 64, 4);
        for rate in [0.05, 0.3] {
            let mut t = SyntheticTraffic::new(
                DestPattern::UniformRandom,
                32,
                pool.clone(),
                rate,
                0.25,
                0.75,
                5,
            );
            let mut out = Vec::new();
            for c in 0..3000 {
                t.tick(c, &mut out);
            }
            // offered flits = packets * avg size
            let flits: f64 = out
                .iter()
                .map(|i| if i.payload.is_some() { 9.0 } else { 1.0 })
                .sum();
            let measured = flits / (32.0 * 3000.0);
            assert!(
                (measured - rate).abs() < rate * 0.25,
                "measured {measured} vs offered {rate}"
            );
            assert_eq!(t.flit_rate(), rate);
        }
    }

    #[test]
    fn synthetic_traffic_respects_pattern() {
        let pool = DataPool::from_benchmark(Benchmark::Streamcluster, 16, 6);
        let mut t = SyntheticTraffic::new(DestPattern::BitComplement, 16, pool, 0.2, 0.25, 0.75, 7);
        let mut out = Vec::new();
        for c in 0..200 {
            t.tick(c, &mut out);
        }
        for i in &out {
            assert_eq!(i.dest.0, (!i.src.0) & 15);
        }
    }

    #[test]
    fn benchmark_traffic_snapshot_resumes_exactly() {
        let mut a = BenchmarkTraffic::new(Benchmark::Fluidanimate, 16, 0.75, 42);
        let mut scratch = Vec::new();
        for c in 0..500 {
            a.tick(c, &mut scratch);
        }
        assert!(a.snapshot_supported());
        let mut w = SnapWriter::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        // Restore into a freshly built source (same constructor arguments).
        let mut b = BenchmarkTraffic::new(Benchmark::Fluidanimate, 16, 0.75, 42);
        let mut r = SnapReader::new(&bytes);
        b.load_state(&mut r).unwrap();
        assert!(r.is_exhausted());
        for c in 500..1000 {
            let mut ia = Vec::new();
            let mut ib = Vec::new();
            a.tick(c, &mut ia);
            b.tick(c, &mut ib);
            assert_eq!(ia.len(), ib.len(), "cycle {c}");
            for (x, y) in ia.iter().zip(&ib) {
                assert_eq!(x.src, y.src);
                assert_eq!(x.dest, y.dest);
                assert_eq!(x.payload, y.payload);
            }
        }
        // Truncated state is a typed error.
        let mut short = SnapReader::new(&bytes[..4]);
        assert!(b.load_state(&mut short).is_err());
        // Synthetic traffic declines snapshots (harness falls back to cold).
        let pool = DataPool::from_benchmark(Benchmark::Streamcluster, 16, 6);
        let s = SyntheticTraffic::new(DestPattern::BitComplement, 16, pool, 0.2, 0.25, 0.75, 7);
        assert!(!s.snapshot_supported());
    }
}
