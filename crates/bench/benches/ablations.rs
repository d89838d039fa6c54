//! Design-choice ablations called out in DESIGN.md §5:
//!
//! 1. shift-based vs exact-multiply error ranges;
//! 2. Guaranteed vs Relaxed (paper-style) don't-care masks;
//! 3. the §4.3 latency-hiding optimizations on/off;
//! 5. instantaneous vs in-band dictionary notifications;
//! 6. dictionary PMT capacity.
//!
//! The numbers are stable names that DESIGN.md and ROADMAP.md cite; 4 (the
//! window-based error budget) was retired with the windowed encoder.

use anoc_compression::fp::FpEncoder;
use anoc_core::avcl::{Avcl, MaskPolicy};
use anoc_core::codec::{BlockEncoder, EncodeStats};
use anoc_core::data::NodeId;
use anoc_core::rng::Pcg32;
use anoc_core::threshold::ErrorThreshold;
use anoc_harness::runner::try_run_benchmark;
use anoc_harness::{Mechanism, SystemConfig};
use anoc_traffic::{Benchmark, DataModel};
use criterion::{criterion_group, criterion_main, Criterion};

fn encoded_fraction(enc: &mut FpEncoder, model: &mut DataModel, blocks: usize) -> f64 {
    let mut stats = EncodeStats::default();
    for _ in 0..blocks {
        stats.absorb_block(&enc.encode(&model.next_block(true), NodeId(1)));
    }
    stats.encoded_fraction()
}

/// Average packet latency of an ssca2 run at seed 42.
fn ssca2_latency(mechanism: Mechanism, config: &SystemConfig) -> f64 {
    try_run_benchmark(Benchmark::Ssca2, mechanism, config, 42)
        .expect("run completes")
        .avg_packet_latency()
}

fn bench(c: &mut Criterion) {
    let t = ErrorThreshold::from_percent(10).expect("valid");

    // 1. shift vs exact-multiply error range ------------------------------
    let mut rng = Pcg32::seed_from_u64(3);
    let values: Vec<u32> = (0..4096).map(|_| rng.next_u32()).collect();
    c.bench_function("ablation/error-range/shift", |b| {
        b.iter(|| values.iter().map(|v| t.error_range(*v) as u64).sum::<u64>())
    });
    c.bench_function("ablation/error-range/exact-multiply", |b| {
        b.iter(|| {
            values
                .iter()
                .map(|v| t.error_range_exact(*v) as u64)
                .sum::<u64>()
        })
    });
    let conservative = values
        .iter()
        .all(|v| t.error_range(*v) <= t.error_range_exact(*v));
    println!("\nablation 1: shift range always <= exact range: {conservative}");

    // 2. Guaranteed vs Relaxed masks --------------------------------------
    let mut model = DataModel::new(Benchmark::Canneal, 11);
    let mut g = FpEncoder::fp_vaxx(Avcl::new(t));
    let guaranteed = encoded_fraction(&mut g, &mut model, 200);
    let mut model = DataModel::new(Benchmark::Canneal, 11);
    let mut r = FpEncoder::fp_vaxx(Avcl::with_policy(t, MaskPolicy::Relaxed));
    let relaxed = encoded_fraction(&mut r, &mut model, 200);
    println!(
        "ablation 2: encoded-word fraction — Guaranteed {guaranteed:.3} vs Relaxed {relaxed:.3} \
         (Relaxed trades a looser bound for more matches)"
    );

    // 3. latency hiding on/off --------------------------------------------
    let base_cfg = SystemConfig::paper().with_sim_cycles(4_000);
    let mut no_hiding = base_cfg.clone();
    no_hiding.noc.hide_compression = false;
    no_hiding.noc.va_overlap = false;
    let with_lat = ssca2_latency(Mechanism::FpVaxx, &base_cfg);
    let without_lat = ssca2_latency(Mechanism::FpVaxx, &no_hiding);
    println!(
        "ablation 3: ssca2 FP-VAXX latency — hiding on {with_lat:.2} vs off {without_lat:.2} cycles"
    );

    // 5. notification transport --------------------------------------------
    let mut in_band = base_cfg.clone();
    in_band.noc.notify_in_band = true;
    let instant = ssca2_latency(Mechanism::DiVaxx, &base_cfg);
    let banded = ssca2_latency(Mechanism::DiVaxx, &in_band);
    println!(
        "ablation 5: ssca2 DI-VAXX latency — instant notifications {instant:.2} vs in-band control packets {banded:.2} cycles"
    );

    // 6. dictionary PMT capacity (Table 1 fixes 8 entries) ---------------
    {
        use anoc_compression::di::{DiConfig, DiDecoder, DiEncoder};
        use anoc_core::codec::BlockDecoder;
        for entries in [4usize, 8, 16] {
            let cfg = DiConfig {
                pmt_entries: entries,
                ..DiConfig::for_nodes(2)
            };
            let mut enc = DiEncoder::di_vaxx(cfg, Avcl::new(t));
            let mut dec = DiDecoder::new(cfg);
            let mut model = DataModel::new(Benchmark::Ssca2, 19);
            let mut stats = EncodeStats::default();
            for _ in 0..400 {
                let block = model.next_block(true);
                let e = enc.encode(&block, NodeId(1));
                stats.absorb_block(&e);
                let r = dec.decode(&e, NodeId(0));
                for (_, note) in r.notifications {
                    enc.apply_notification(NodeId(1), note);
                }
            }
            println!(
                "ablation 6: {entries}-entry PMT — encoded fraction {:.3}, ratio {:.3}",
                stats.encoded_fraction(),
                stats.compression_ratio()
            );
        }
    }

    let mut group = c.benchmark_group("ablation/system");
    group.sample_size(10);
    group.bench_function("ssca2/fp-vaxx/no-hiding", |b| {
        let mut cfg = SystemConfig::paper().with_sim_cycles(1_000);
        cfg.noc.hide_compression = false;
        b.iter(|| {
            try_run_benchmark(Benchmark::Ssca2, Mechanism::FpVaxx, &cfg, 42).expect("run completes")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
