//! Traffic golden fingerprints: the benchmark data models, benchmark-shaped
//! traffic and rate-swept synthetic traffic each hash to a recorded FNV-1a
//! constant. A rewrite of the traffic layer's hot path has to reproduce
//! every draw, in order, and every emitted bit. The benchmark-traffic cells
//! also carry each source through `save_state`/`load_state` into a freshly
//! built source halfway through, so the snapshot bytes must still resume
//! the same stream.

use approx_noc::core::data::{CacheBlock, DataType};
use approx_noc::core::snap::{SnapReader, SnapWriter};
use approx_noc::traffic::{
    Benchmark, BenchmarkTraffic, DataModel, DataPool, DestPattern, Injection, SyntheticTraffic,
    TrafficSource,
};

const SEED: u64 = 42;

/// Blocks drawn from each benchmark's data model.
const BLOCKS: usize = 2_000;

/// Nodes of every traffic source (the paper's 4x4 cmesh).
const NODES: usize = 32;

/// Cycles each traffic source runs.
const CYCLES: u64 = 5_000;

/// Cycle at which a benchmark source is snapshotted and restored.
const RESTORE_AT: u64 = 2_500;

/// Share of benchmark-traffic data packets flagged approximable.
const APPROX_RATIO: f64 = 0.75;

/// FNV-1a of [`BLOCKS`] `DataModel::next_block` blocks per benchmark.
const BLOCK_GOLDEN: [(Benchmark, u64); 8] = [
    (Benchmark::Blackscholes, 0x7c39_4992_0528_0f97),
    (Benchmark::Bodytrack, 0x8637_cf73_4ffe_9c44),
    (Benchmark::Canneal, 0x2647_15db_42d4_d3c1),
    (Benchmark::Fluidanimate, 0x77ca_1b27_0ade_a81e),
    (Benchmark::Streamcluster, 0x0edb_7d5c_2654_7780),
    (Benchmark::Swaptions, 0x3d1f_7a22_73a5_bc6f),
    (Benchmark::X264, 0xaede_179d_1251_66bb),
    (Benchmark::Ssca2, 0x3c7b_bafc_b309_c447),
];

/// FNV-1a of each benchmark's `BenchmarkTraffic` injections over
/// [`CYCLES`] cycles, restored into a fresh source at [`RESTORE_AT`].
const TRAFFIC_GOLDEN: [(Benchmark, u64); 8] = [
    (Benchmark::Blackscholes, 0xc074_b347_4270_939d),
    (Benchmark::Bodytrack, 0xf7b5_bb9c_8474_edb1),
    (Benchmark::Canneal, 0x8df9_093b_17b9_1707),
    (Benchmark::Fluidanimate, 0x3117_9984_19cd_622d),
    (Benchmark::Streamcluster, 0xd978_f3d3_f672_21b2),
    (Benchmark::Swaptions, 0x80d8_f71d_9194_e33d),
    (Benchmark::X264, 0x177e_a935_f65e_d449),
    (Benchmark::Ssca2, 0x2cdf_5b29_37e5_e48c),
];

/// `(name, pattern, flit rate, FNV-1a)` of `SyntheticTraffic` over
/// [`CYCLES`] cycles with a 25:75 data:control mix. At 4.0 flits/node/cycle
/// the packet rate clamps to 1, so every node injects every cycle.
const SYNTHETIC_GOLDEN: [(&str, DestPattern, f64, u64); 3] = [
    (
        "UR 0.10",
        DestPattern::UniformRandom,
        0.10,
        0xbc64_b51c_41bb_614f,
    ),
    (
        "TR 0.30",
        DestPattern::Transpose,
        0.30,
        0xee1b_0ed0_f44d_c791,
    ),
    (
        "UR 4.0",
        DestPattern::UniformRandom,
        4.0,
        0x8148_f128_4425_733b,
    ),
];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn block(&mut self, block: &CacheBlock) {
        let dtype = match block.dtype() {
            DataType::Int => 0,
            DataType::F32 => 1,
        };
        self.bytes(&[dtype, u8::from(block.is_approximable())]);
        self.bytes(&(block.len() as u32).to_le_bytes());
        for w in block.words() {
            self.bytes(&w.to_le_bytes());
        }
    }

    fn injection(&mut self, cycle: u64, inj: &Injection) {
        self.bytes(&cycle.to_le_bytes());
        self.bytes(&inj.src.0.to_le_bytes());
        self.bytes(&inj.dest.0.to_le_bytes());
        match &inj.payload {
            None => self.bytes(&[0]),
            Some(block) => {
                self.bytes(&[1]);
                self.block(block);
            }
        }
    }
}

/// Runs `source` over `cycles`, hashing every injection into `fnv`.
fn drive(source: &mut dyn TrafficSource, cycles: std::ops::Range<u64>, fnv: &mut Fnv) -> usize {
    let mut buf = Vec::new();
    let mut count = 0;
    for cycle in cycles {
        buf.clear();
        source.tick(cycle, &mut buf);
        count += buf.len();
        for inj in &buf {
            fnv.injection(cycle, inj);
        }
    }
    count
}

fn hex(name: String, h: u64) -> (String, String) {
    (name, format!("{h:016x}"))
}

#[test]
fn data_model_blocks_match_golden() {
    let got: Vec<_> = BLOCK_GOLDEN
        .iter()
        .map(|&(b, _)| {
            let mut model = DataModel::new(b, SEED);
            let mut fnv = Fnv::new();
            for i in 0..BLOCKS {
                fnv.block(&model.next_block(i % 4 != 3));
            }
            hex(b.to_string(), fnv.0)
        })
        .collect();
    let want: Vec<_> = BLOCK_GOLDEN
        .iter()
        .map(|&(b, h)| hex(b.to_string(), h))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn benchmark_traffic_matches_golden_across_a_restore() {
    let got: Vec<_> = TRAFFIC_GOLDEN
        .iter()
        .map(|&(b, _)| {
            let mut fnv = Fnv::new();
            let mut first = BenchmarkTraffic::new(b, NODES, APPROX_RATIO, SEED);
            let before = drive(&mut first, 0..RESTORE_AT, &mut fnv);
            let mut w = SnapWriter::new();
            first.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut second = BenchmarkTraffic::new(b, NODES, APPROX_RATIO, SEED);
            let mut r = SnapReader::new(&bytes);
            second
                .load_state(&mut r)
                .expect("restore the traffic source");
            assert!(r.is_exhausted(), "{b}: snapshot bytes left over");
            let after = drive(&mut second, RESTORE_AT..CYCLES, &mut fnv);
            assert!(before > 0 && after > 0, "{b}: no traffic");
            hex(b.to_string(), fnv.0)
        })
        .collect();
    let want: Vec<_> = TRAFFIC_GOLDEN
        .iter()
        .map(|&(b, h)| hex(b.to_string(), h))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn synthetic_traffic_matches_golden() {
    let pool = DataPool::from_benchmark(Benchmark::Blackscholes, 512, SEED);
    let got: Vec<_> = SYNTHETIC_GOLDEN
        .iter()
        .map(|&(name, pattern, rate, _)| {
            let mut source =
                SyntheticTraffic::new(pattern, NODES, pool.clone(), rate, 0.25, 0.75, SEED);
            let mut fnv = Fnv::new();
            assert!(
                drive(&mut source, 0..CYCLES, &mut fnv) > 0,
                "{name}: no traffic"
            );
            hex(name.to_string(), fnv.0)
        })
        .collect();
    let want: Vec<_> = SYNTHETIC_GOLDEN
        .iter()
        .map(|&(name, _, _, h)| hex(name.to_string(), h))
        .collect();
    assert_eq!(got, want);
}
