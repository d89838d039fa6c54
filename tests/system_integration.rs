//! Cross-crate integration tests: traffic models → codecs → cycle-accurate
//! NoC → statistics, exercising the paper's headline claims end to end.

use approx_noc::harness::runner::{try_run_benchmark, try_run_with_source};
use approx_noc::harness::{EnergyModel, Mechanism, SystemConfig};
use approx_noc::traffic::{Benchmark, DataPool, DestPattern, SyntheticTraffic};

fn quick() -> SystemConfig {
    SystemConfig::paper().with_sim_cycles(4_000)
}

#[test]
fn vaxx_never_loses_to_its_compression_counterpart_on_data_volume() {
    let cfg = quick();
    for b in [Benchmark::Blackscholes, Benchmark::Ssca2, Benchmark::X264] {
        let fp = try_run_benchmark(b, Mechanism::FpComp, &cfg, 7).expect("run completes");
        let fp_vaxx = try_run_benchmark(b, Mechanism::FpVaxx, &cfg, 7).expect("run completes");
        assert!(
            fp_vaxx.stats.normalized_data_flits() <= fp.stats.normalized_data_flits() + 0.02,
            "{b}: FP-VAXX {} vs FP-COMP {}",
            fp_vaxx.stats.normalized_data_flits(),
            fp.stats.normalized_data_flits()
        );
        let di = try_run_benchmark(b, Mechanism::DiComp, &cfg, 7).expect("run completes");
        let di_vaxx = try_run_benchmark(b, Mechanism::DiVaxx, &cfg, 7).expect("run completes");
        assert!(
            di_vaxx.stats.normalized_data_flits() <= di.stats.normalized_data_flits() + 0.02,
            "{b}: DI-VAXX {} vs DI-COMP {}",
            di_vaxx.stats.normalized_data_flits(),
            di.stats.normalized_data_flits()
        );
    }
}

#[test]
fn data_quality_exceeds_97_percent_at_default_threshold() {
    // The paper: "though we allow for 10% error rate the effective data
    // value quality is higher than 97%".
    let cfg = quick();
    for b in [
        Benchmark::Blackscholes,
        Benchmark::Swaptions,
        Benchmark::Ssca2,
    ] {
        for m in [Mechanism::DiVaxx, Mechanism::FpVaxx] {
            let r = try_run_benchmark(b, m, &cfg, 3).expect("run completes");
            assert!(
                r.data_quality() > 0.97,
                "{b}/{m}: quality {}",
                r.data_quality()
            );
        }
    }
}

#[test]
fn exact_mechanisms_are_lossless_end_to_end() {
    let cfg = quick();
    for m in [Mechanism::Baseline, Mechanism::DiComp, Mechanism::FpComp] {
        let r = try_run_benchmark(Benchmark::Canneal, m, &cfg, 9).expect("run completes");
        assert_eq!(r.data_quality(), 1.0, "{m} corrupted a block");
        assert_eq!(r.stats.encode.approx_encoded, 0);
    }
}

#[test]
fn throughput_improves_with_vaxx_under_synthetic_load() {
    // A mid-load synthetic point near baseline saturation: FP-VAXX keeps
    // latency down (the Figure 12 effect).
    let cfg = SystemConfig::paper().with_sim_cycles(3_000);
    let pool = DataPool::from_benchmark(Benchmark::Blackscholes, 256, 5);
    let run = |m: Mechanism| {
        let mut src = SyntheticTraffic::new(
            DestPattern::UniformRandom,
            cfg.noc.num_nodes(),
            pool.clone(),
            0.32,
            0.25,
            0.75,
            5,
        );
        try_run_with_source(&mut src, m, &cfg)
            .expect("run completes")
            .avg_packet_latency()
    };
    let base = run(Mechanism::Baseline);
    let vaxx = run(Mechanism::FpVaxx);
    assert!(
        vaxx < base * 0.9,
        "FP-VAXX {vaxx} should beat baseline {base} near saturation"
    );
}

#[test]
fn dynamic_power_drops_with_flit_reduction() {
    let cfg = quick();
    let model = EnergyModel::default();
    let base =
        try_run_benchmark(Benchmark::X264, Mechanism::Baseline, &cfg, 11).expect("run completes");
    let vaxx =
        try_run_benchmark(Benchmark::X264, Mechanism::FpVaxx, &cfg, 11).expect("run completes");
    let p_base = model.dynamic_power(&base.activity);
    let p_vaxx = model.dynamic_power(&vaxx.activity);
    assert!(
        p_vaxx < p_base,
        "FP-VAXX power {p_vaxx} vs baseline {p_base}"
    );
}

#[test]
fn error_threshold_sensitivity_is_monotone_in_encoded_fraction() {
    // Figure 13's mechanism: a larger threshold can only widen matching.
    let mut fractions = Vec::new();
    for pct in [5u32, 10, 20] {
        let cfg = quick().with_threshold(pct);
        let r = try_run_benchmark(Benchmark::Blackscholes, Mechanism::FpVaxx, &cfg, 13)
            .expect("run completes");
        fractions.push(r.stats.encode.encoded_fraction());
    }
    assert!(
        fractions[0] <= fractions[1] + 0.01 && fractions[1] <= fractions[2] + 0.01,
        "encoded fractions not monotone: {fractions:?}"
    );
}

#[test]
fn approx_ratio_sensitivity_scales_approximated_words() {
    // Figure 14's mechanism: more approximable packets, more approx hits.
    let mut approx_counts = Vec::new();
    for ratio in [0.25, 0.75] {
        let cfg = quick().with_approx_ratio(ratio);
        let r = try_run_benchmark(Benchmark::Swaptions, Mechanism::FpVaxx, &cfg, 17)
            .expect("run completes");
        approx_counts.push(r.stats.encode.approx_fraction());
    }
    assert!(
        approx_counts[1] > approx_counts[0] * 1.5,
        "approx fractions {approx_counts:?}"
    );
}

#[test]
fn in_band_notifications_also_work() {
    // The ablation transport for dictionary updates: real control packets.
    let mut cfg = quick();
    cfg.noc.notify_in_band = true;
    let r =
        try_run_benchmark(Benchmark::Ssca2, Mechanism::DiVaxx, &cfg, 19).expect("run completes");
    assert!(r.stats.packets > 0);
    assert_eq!(
        approx_noc::core::avcl::Avcl::default()
            .threshold()
            .percent(),
        10
    );
    assert!(r.data_quality() > 0.97);
}

#[test]
fn runs_are_reproducible() {
    let cfg = quick();
    let a = try_run_benchmark(Benchmark::Streamcluster, Mechanism::DiVaxx, &cfg, 23)
        .expect("run completes");
    let b = try_run_benchmark(Benchmark::Streamcluster, Mechanism::DiVaxx, &cfg, 23)
        .expect("run completes");
    assert_eq!(a.stats.packets, b.stats.packets);
    assert_eq!(a.stats.flits_injected, b.stats.flits_injected);
    assert_eq!(a.stats.queue_lat_sum, b.stats.queue_lat_sum);
    assert_eq!(a.stats.encode, b.stats.encode);
}

#[test]
fn full_system_8x8_mesh_runs() {
    // The §5.4 configuration: 64 cores on an 8x8 mesh.
    let cfg = SystemConfig::full_system().with_sim_cycles(2_000);
    let base =
        try_run_benchmark(Benchmark::Ssca2, Mechanism::Baseline, &cfg, 41).expect("run completes");
    let vaxx =
        try_run_benchmark(Benchmark::Ssca2, Mechanism::FpVaxx, &cfg, 41).expect("run completes");
    assert_eq!(base.nodes, 64);
    assert!(base.stats.packets > 100);
    assert!(
        vaxx.avg_packet_latency() < base.avg_packet_latency(),
        "FP-VAXX {} vs baseline {} on the 8x8",
        vaxx.avg_packet_latency(),
        base.avg_packet_latency()
    );
    // Link utilization is sane and drops with compression.
    let links = 2 * (7 * 8 + 7 * 8);
    let u_base = base.activity.link_utilization(links);
    let u_vaxx = vaxx.activity.link_utilization(links);
    assert!(u_base > 0.0 && u_base <= 1.0);
    assert!(u_vaxx < u_base, "utilization {u_vaxx} vs {u_base}");
}

#[test]
fn saved_trace_replay_reproduces_the_live_run_exactly() {
    // The paper's decoupled flow: capture the communication trace, persist
    // it, then feed it to the NoC simulator — results must be identical to
    // driving the live source.
    use approx_noc::traffic::{BenchmarkTraffic, Trace};
    let cfg = SystemConfig::paper().with_sim_cycles(2_000);
    let cycles = cfg.warmup_cycles + cfg.sim_cycles;
    let mut live = BenchmarkTraffic::new(Benchmark::X264, cfg.noc.num_nodes(), 0.75, 77);
    let trace = Trace::capture(&mut live, cycles);

    let path = std::env::temp_dir().join(format!("anoc-roundtrip-{}", std::process::id()));
    trace.save(&path).expect("save trace");
    let loaded = Trace::load(&path).expect("load trace");
    std::fs::remove_file(&path).ok();

    let mut replay_a = trace.replay();
    let a = try_run_with_source(&mut replay_a, Mechanism::FpVaxx, &cfg).expect("run completes");
    let mut replay_b = loaded.replay();
    let b = try_run_with_source(&mut replay_b, Mechanism::FpVaxx, &cfg).expect("run completes");
    assert_eq!(a.stats.packets, b.stats.packets);
    assert_eq!(a.stats.flits_injected, b.stats.flits_injected);
    assert_eq!(a.stats.queue_lat_sum, b.stats.queue_lat_sum);
    assert_eq!(a.stats.net_lat_sum, b.stats.net_lat_sum);
    assert_eq!(a.stats.encode, b.stats.encode);

    // And the trace-driven run matches the live-source-driven run, since the
    // live source is deterministic too.
    let mut live2 = BenchmarkTraffic::new(Benchmark::X264, cfg.noc.num_nodes(), 0.75, 77);
    let c = try_run_with_source(&mut live2, Mechanism::FpVaxx, &cfg).expect("run completes");
    assert_eq!(a.stats.packets, c.stats.packets);
    assert_eq!(a.stats.flits_injected, c.stats.flits_injected);
}
