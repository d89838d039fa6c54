//! Microbenchmarks of the hot paths: the AVCL, frequent-pattern matching,
//! dictionary round trips, traffic generation, and the NoC simulation kernel
//! itself.

use anoc_compression::di::{DiConfig, DiDecoder, DiEncoder};
use anoc_compression::fp::{FpDecoder, FpEncoder};
use anoc_compression::fpc;
use anoc_compression::lz::{LzDecoder, LzEncoder};
use anoc_core::avcl::Avcl;
use anoc_core::codec::{BlockDecoder, BlockEncoder, NullCodec};
use anoc_core::data::{CacheBlock, DataType, NodeId};
use anoc_core::rng::Pcg32;
use anoc_core::threshold::ErrorThreshold;
use anoc_noc::{NocConfig, NocSim, NodeCodec};
use anoc_traffic::{
    Benchmark, BenchmarkTraffic, DataModel, DataPool, DestPattern, SyntheticTraffic, TrafficSource,
};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let t = ErrorThreshold::from_percent(10).expect("valid");
    let avcl = Avcl::new(t);
    let mut rng = Pcg32::seed_from_u64(1);
    let words: Vec<u32> = (0..1024).map(|_| rng.next_u32()).collect();

    c.bench_function("micro/avcl/approx_pattern_int", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &w in &words {
                acc ^= avcl.approx_pattern(w, DataType::Int).mask();
            }
            acc
        })
    });

    c.bench_function("micro/fpc/best_match_exact", |b| {
        b.iter(|| {
            words
                .iter()
                .filter(|w| fpc::best_match(**w, 0).is_some())
                .count()
        })
    });

    // The codecs' corpus, the codec-stream shape: a seeded X264 data model,
    // 75% of its blocks approximable, so each line mixes zero runs,
    // patterns and raw words and the lanes take different rows.
    let mut model = DataModel::new(Benchmark::X264, 1);
    let mut flags = Pcg32::new(1, 0);
    let corpus: Vec<CacheBlock> = (0..256)
        .map(|_| model.next_block(flags.chance(0.75)))
        .collect();

    c.bench_function("micro/fp_vaxx/encode_block", |b| {
        let mut enc = FpEncoder::fp_vaxx(avcl);
        b.iter(|| {
            let mut bits = 0u32;
            for block in &corpus {
                bits += enc.encode(block, NodeId(1)).payload_bits();
            }
            bits
        })
    });
    for (name, vaxx) in [
        ("micro/fp_comp/round_trip", false),
        ("micro/fp_vaxx/round_trip", true),
    ] {
        c.bench_function(name, |b| {
            let mut enc = if vaxx {
                FpEncoder::fp_vaxx(avcl)
            } else {
                FpEncoder::fp_comp()
            };
            let mut dec = FpDecoder::new();
            b.iter(|| {
                let mut words = 0usize;
                for block in &corpus {
                    let encoded = enc.encode(block, NodeId(1));
                    words += dec.decode(&encoded, NodeId(0)).block.len();
                }
                words
            })
        });
    }

    // The Baseline pair copies words to raw codes and back, so one 16-word
    // round trip measures what building the encoded and the delivered block
    // costs, apart from any codec's work.
    c.bench_function("micro/codec/baseline_round_trip", |b| {
        let block = CacheBlock::from_i32(&[0x1234_5678; 16]);
        let (mut enc, mut dec) = (NullCodec::new(), NullCodec::new());
        b.iter(|| {
            dec.decode(&enc.encode(&block, NodeId(1)), NodeId(0))
                .block
                .len()
        })
    });

    // DI-COMP / DI-VAXX: an encoder (node 0) feeds a decoder (node 1) the
    // corpus, with the decoder's notifications routed back, so the
    // dictionaries fill, hit, evict and decay as they do in a run.
    for (name, vaxx) in [
        ("micro/di_comp/round_trip", false),
        ("micro/di_vaxx/round_trip", true),
    ] {
        c.bench_function(name, |b| {
            let cfg = DiConfig::for_nodes(2);
            let mut enc = if vaxx {
                DiEncoder::di_vaxx(cfg, avcl)
            } else {
                DiEncoder::di_comp(cfg)
            };
            let mut dec = DiDecoder::new(cfg);
            let (src, dst) = (NodeId(0), NodeId(1));
            b.iter(|| {
                let mut words = 0usize;
                for block in &corpus {
                    let decoded = dec.decode(&enc.encode(block, dst), src);
                    for (_, note) in decoded.notifications {
                        enc.apply_notification(dst, note);
                    }
                    words += decoded.block.len();
                }
                words
            })
        });
    }

    // LZ-VAXX: a mixed workload (runs, cross-word repeats, noise) so the
    // match finder exercises both its hit and miss paths.
    let lz_blocks: Vec<CacheBlock> = (0..64)
        .map(|i| {
            let base = i * 37 + 1;
            let words: Vec<i32> = (0..16)
                .map(|k| match k % 4 {
                    0 | 1 => base,
                    2 => 0,
                    _ => base ^ (k << 13),
                })
                .collect();
            CacheBlock::from_i32(&words)
        })
        .collect();
    c.bench_function("micro/lz_vaxx/encode_block", |b| {
        let mut enc = LzEncoder::lz_vaxx(avcl);
        b.iter(|| {
            let mut bits = 0u32;
            for block in &lz_blocks {
                bits += enc.encode(block, NodeId(1)).payload_bits();
            }
            bits
        })
    });
    c.bench_function("micro/lz_vaxx/decode_block", |b| {
        let mut enc = LzEncoder::lz_vaxx(avcl);
        let encoded: Vec<_> = lz_blocks
            .iter()
            .map(|bl| enc.encode(bl, NodeId(1)))
            .collect();
        let mut dec = LzDecoder::new();
        b.iter(|| {
            let mut words = 0usize;
            for e in &encoded {
                words += dec.decode(e, NodeId(0)).block.len();
            }
            words
        })
    });

    // Traffic generation as the Fig. 9-15 cells run it: one Blackscholes
    // data block, and one cycle of Blackscholes traffic on the paper's 4x4
    // cmesh (32 nodes), payload blocks included.
    c.bench_function("micro/traffic/next_block", |b| {
        let mut model = DataModel::new(Benchmark::Blackscholes, 42);
        b.iter(|| model.next_block(true))
    });
    c.bench_function("micro/traffic/benchmark_tick_4x4", |b| {
        let mut source = BenchmarkTraffic::new(Benchmark::Blackscholes, 32, 0.75, 42);
        let mut buf = Vec::new();
        let mut cycle = 0;
        b.iter(|| {
            buf.clear();
            source.tick(cycle, &mut buf);
            cycle += 1;
            buf.len()
        })
    });

    let mut group = c.benchmark_group("micro/noc");
    group.sample_size(20);
    group.bench_function("step_4x4_cmesh_idle", |b| {
        let cfg = NocConfig::paper_4x4_cmesh();
        let n = cfg.num_nodes();
        let mut sim = NocSim::new(cfg, (0..n).map(|_| NodeCodec::baseline()).collect());
        b.iter(|| {
            sim.step();
            sim.cycle()
        })
    });
    // The steady-state step loop under sustained uniform-random traffic on
    // the paper's 4x4 cmesh. End-to-end kernel numbers are measured by
    // `anoc-benchmark` (benchmark/README.md), not recorded from this bench.
    // Each iteration advances 100 cycles with fresh injections, so the
    // reported time divided by 100 is the per-cycle cost at steady state.
    group.bench_function("step_4x4_cmesh_uniform_random", |b| {
        let cfg = NocConfig::paper_4x4_cmesh();
        let n = cfg.num_nodes();
        let mut sim = NocSim::new(cfg, (0..n).map(|_| NodeCodec::baseline()).collect());
        let mut rng = Pcg32::seed_from_u64(42);
        let drive = move |sim: &mut NocSim, rng: &mut Pcg32, cycles: u64| {
            for _ in 0..cycles {
                for node in 0..n {
                    let roll = rng.below(100);
                    if roll < 4 {
                        let mut d = rng.below(n as u32) as usize;
                        if d == node {
                            d = (d + 1) % n;
                        }
                        sim.enqueue_control(NodeId(node as u16), NodeId(d as u16));
                    } else if roll < 5 {
                        let mut d = rng.below(n as u32) as usize;
                        if d == node {
                            d = (d + 1) % n;
                        }
                        let block = CacheBlock::from_i32(&[roll as i32; 16]);
                        sim.enqueue_data(NodeId(node as u16), NodeId(d as u16), block);
                    }
                }
                sim.step();
            }
            sim.drain_delivered().len()
        };
        // Reach steady state before sampling.
        drive(&mut sim, &mut rng, 2_000);
        b.iter(|| drive(&mut sim, &mut rng, 100))
    });
    // The `cmesh8-ur` shape: an 8x8 cmesh with two nodes per router (6-port
    // routers), Baseline codecs, uniform-random traffic at 0.10
    // flits/node/cycle with a 25:75 data:control mix — below saturation.
    // Each iteration advances 100 cycles, so time / 100 is the per-cycle
    // cost of the serial kernel plus traffic generation and enqueue.
    group.bench_function("step_8x8_cmesh_uniform_random", |b| {
        let cfg = NocConfig::cmesh(8, 8, 2);
        let n = cfg.num_nodes();
        let mut sim = NocSim::new(cfg, (0..n).map(|_| NodeCodec::baseline()).collect());
        let pool = DataPool::from_benchmark(Benchmark::Blackscholes, 512, 42);
        let mut source =
            SyntheticTraffic::new(DestPattern::UniformRandom, n, pool, 0.10, 0.25, 0.75, 42);
        let mut buf = Vec::new();
        let mut drive = move |sim: &mut NocSim, cycles: u64| {
            for _ in 0..cycles {
                buf.clear();
                source.tick(sim.cycle(), &mut buf);
                for inj in buf.drain(..) {
                    match inj.payload {
                        Some(block) => sim.enqueue_data(inj.src, inj.dest, block),
                        None => sim.enqueue_control(inj.src, inj.dest),
                    };
                }
                sim.step();
                sim.discard_delivered();
            }
            sim.cycle()
        };
        // Reach steady state before sampling.
        drive(&mut sim, 2_000);
        b.iter(|| drive(&mut sim, 100))
    });
    group.bench_function("deliver_1000_packets", |b| {
        b.iter(|| {
            let cfg = NocConfig::paper_4x4_cmesh();
            let n = cfg.num_nodes();
            let mut sim = NocSim::new(cfg, (0..n).map(|_| NodeCodec::baseline()).collect());
            let mut rng = Pcg32::seed_from_u64(7);
            for _ in 0..1000 {
                let s = rng.below(32);
                let mut d = rng.below(32);
                while d == s {
                    d = rng.below(32);
                }
                sim.enqueue_control(NodeId(s as u16), NodeId(d as u16));
            }
            assert!(sim.drain(100_000));
            sim.stats().packets
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
