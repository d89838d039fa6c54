//! Runner golden fingerprints: one seeded cell per runner mode — cold
//! benchmark cells of every mechanism, a synthetic source, a trace replay, a
//! QoS + lossy-link configuration and a fault-injection configuration with
//! the bound checker armed. Each result is serialized with
//! `persist::encode_run_result` and the payload after its version line is
//! hashed with FNV-1a, so a result-format bump alone moves no constant. The
//! hash must equal the recorded constant; forked FP-VAXX, DI-VAXX and
//! DI-COMP cells must hash to their cold twin's constant. A
//! rewrite of the runner or of a codec's snapshot state therefore has to
//! reproduce every mode bit for bit.

use anoc_exec::hash::fnv1a64;
use anoc_exec::SnapshotStore;
use approx_noc::core::control::QosSpec;
use approx_noc::harness::campaign::warmup_key;
use approx_noc::harness::persist::encode_run_result;
use approx_noc::harness::runner::{
    publish_benchmark_warmup, run, RunOutcome, RunResult, RunSpec, Traffic,
};
use approx_noc::harness::{Mechanism, SystemConfig};
use approx_noc::noc::{FaultPlan, LossPlan};
use approx_noc::traffic::{
    Benchmark, BenchmarkTraffic, DataPool, DestPattern, SyntheticTraffic, Trace, TrafficSource,
};

const SEED: u64 = 42;

/// The benchmark every benchmark-traffic cell runs.
const BENCH: Benchmark = Benchmark::Blackscholes;

/// Fingerprints of the runner's output: recorded before its entry points
/// were collapsed into one `run(RunSpec)`, and re-hashed without the version
/// line when the golden stopped covering it. The two DI-VAXX constants were
/// re-recorded when DI-VAXX's TCAM keys regained their full width.
const GOLDEN: [(&str, u64); 11] = [
    ("bench/Baseline", 0x57cf_64dd_22ac_7625),
    ("bench/DI-COMP", 0x2c6a_f957_eaf0_3bda),
    ("bench/DI-VAXX", 0x10ea_ea31_ba01_2cde),
    ("bench/FP-COMP", 0xb3ea_c469_3f63_2152),
    ("bench/FP-VAXX", 0x2e3d_ddab_de8a_1f1c),
    ("bench/LZ-VAXX", 0x6d4d_d4a1_6c49_69af),
    ("synthetic/FP-VAXX", 0x29c9_499b_938b_1458),
    ("trace/DI-VAXX", 0x0deb_07c3_7258_c670),
    ("qos+loss/FP-VAXX", 0xf1ae_ffa2_362e_ac26),
    ("faults/FP-VAXX", 0x4de9_e736_2f5f_7659),
    ("stall+credit/FP-VAXX", 0x804e_4d0c_7800_5f55),
];

/// FNV-1a of the whole store blob a DI-VAXX warmup stage publishes: the
/// runner's frame, the post-warmup simulator snapshot (learned DI tables
/// included) and the `BenchmarkTraffic` and `DataModel` RNG cursors.
/// Recorded before the serializers were derived from one field list per
/// record, and re-recorded at snapshot v3, when deleting the base-delta
/// word code renumbered the `Dict` tag of the codes in flight.
const WARMUP_BLOB: u64 = 0x2ccc_16fb_2b6c_a72e;

fn config() -> SystemConfig {
    SystemConfig::paper().with_sim_cycles(1_000)
}

/// The FNV-1a hash of `r`'s cache payload after its version line.
fn body_hash(r: &RunResult) -> u64 {
    let payload = encode_run_result(r);
    let (_, body) = payload.split_once('\n').expect("a version line");
    fnv1a64(body.as_bytes())
}

/// Asserts that each `(name, twin, result)` hashes to the constant recorded
/// for `twin`: a cell's own name, or the cold cell it must reproduce.
fn check(cells: &[(&str, &str, RunResult)]) {
    let hex = |name: &str, h: u64| (name.to_string(), format!("{h:016x}"));
    let golden = |name: &str| {
        GOLDEN
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, h)| h)
            .expect("a recorded constant")
    };
    let got: Vec<_> = cells
        .iter()
        .map(|(name, _, r)| hex(name, body_hash(r)))
        .collect();
    let want: Vec<_> = cells
        .iter()
        .map(|(name, twin, _)| hex(name, golden(twin)))
        .collect();
    assert_eq!(got, want);
}

/// A benchmark cell running `mechanism`, forking from `snapshots` if given.
fn bench_cell(
    mechanism: Mechanism,
    config: &SystemConfig,
    snapshots: Option<&SnapshotStore>,
) -> RunOutcome {
    run(RunSpec {
        traffic: Traffic::Benchmark {
            benchmark: BENCH,
            seed: SEED,
            snapshots,
        },
        mechanism,
        config,
    })
    .expect("run completes")
}

/// A cold run over a caller-owned source.
fn source_cell(
    source: &mut dyn TrafficSource,
    mechanism: Mechanism,
    config: &SystemConfig,
) -> RunResult {
    let spec = RunSpec {
        traffic: Traffic::Source(source),
        mechanism,
        config,
    };
    run(spec).expect("run completes").result
}

fn temp_store(name: &str) -> SnapshotStore {
    let dir = std::env::temp_dir().join(format!("anoc-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SnapshotStore::open(dir).expect("open temp store")
}

#[test]
fn cold_benchmark_cells_match_golden() {
    let cfg = config();
    let cells: Vec<_> = [
        ("bench/Baseline", Mechanism::Baseline),
        ("bench/DI-COMP", Mechanism::DiComp),
        ("bench/DI-VAXX", Mechanism::DiVaxx),
        ("bench/FP-COMP", Mechanism::FpComp),
        ("bench/FP-VAXX", Mechanism::FpVaxx),
        ("bench/LZ-VAXX", Mechanism::LzVaxx),
    ]
    .into_iter()
    .map(|(name, m)| {
        let outcome = bench_cell(m, &cfg, None);
        assert_eq!(outcome.staged, Default::default(), "a cold cell is cold");
        (name, name, outcome.result)
    })
    .collect();
    check(&cells);
}

#[test]
fn caller_owned_sources_match_golden() {
    let cfg = config();
    let nodes = cfg.noc.num_nodes();
    // A Figure-12-style cell: synthetic transpose traffic over a value pool.
    let pool = DataPool::from_benchmark(BENCH, 512, SEED);
    let mut synthetic = SyntheticTraffic::new(
        DestPattern::Transpose,
        nodes,
        pool,
        0.3,
        0.25,
        cfg.approx_ratio,
        SEED,
    );
    let synthetic = source_cell(&mut synthetic, Mechanism::FpVaxx, &cfg);
    let mut live = BenchmarkTraffic::new(Benchmark::Ssca2, nodes, cfg.approx_ratio, SEED);
    let trace = Trace::capture(&mut live, cfg.warmup_cycles + cfg.sim_cycles);
    let replayed = source_cell(&mut trace.replay(), Mechanism::DiVaxx, &cfg);
    check(&[
        ("synthetic/FP-VAXX", "synthetic/FP-VAXX", synthetic),
        ("trace/DI-VAXX", "trace/DI-VAXX", replayed),
    ]);
}

#[test]
fn qos_loss_and_fault_configs_match_golden() {
    let qos = config()
        .with_qos(QosSpec::paper(970_000))
        .with_loss(LossPlan::scaled(3, 5_000, 100));
    let qos = bench_cell(Mechanism::FpVaxx, &qos, None).result;
    assert!(qos.data_quality() < 1.0, "the QoS window approximates");
    assert!(qos.stats.faults.words_lost > 0, "the loss plan is live");
    // Faults make bound violations counted rather than fatal.
    let faults = config().with_faults(FaultPlan::bit_flips(SEED, 2_000));
    let faults = bench_cell(Mechanism::FpVaxx, &faults, None).result;
    assert!(faults.stats.faults.bound_checked_words > 0, "checker armed");
    assert!(faults.stats.faults.bound_violations > 0, "flips violate");
    check(&[
        ("qos+loss/FP-VAXX", "qos+loss/FP-VAXX", qos),
        ("faults/FP-VAXX", "faults/FP-VAXX", faults),
    ]);
}

/// Port stalls and credit duplication and drop. Stalled head flits are the
/// only heads that are not yet eligible when their router allocates, and a
/// duplicated credit lets an upstream router send into a VC that is already
/// full, so this cell is the one that holds input VCs past `vc_buffer`. Its
/// constant was recorded before the router moved to a flat layout and phase
/// A to allocate-before-drain.
#[test]
fn stall_and_credit_fault_cells_match_golden() {
    let plan = FaultPlan {
        seed: SEED,
        port_stall_ppm: 20_000,
        stall_cycles: 3,
        credit_drop_ppm: 2_000,
        credit_dup_ppm: 20_000,
        ..FaultPlan::none()
    };
    let cfg = config().with_faults(plan);
    let cell = bench_cell(Mechanism::FpVaxx, &cfg, None).result;
    let f = &cell.stats.faults;
    assert!(f.port_stalls > 0, "stalls are injected");
    assert!(f.credits_duplicated > 0, "credits are duplicated");
    assert!(f.credits_dropped > 0, "credits are dropped");
    check(&[("stall+credit/FP-VAXX", "stall+credit/FP-VAXX", cell)]);
}

#[test]
fn published_warmup_blob_matches_golden() {
    let store = temp_store("warmup-blob");
    let cfg = config();
    let mech = Mechanism::DiVaxx;
    assert!(publish_benchmark_warmup(BENCH, mech, &cfg, SEED, &store).expect("warmup runs"));
    let key = warmup_key("bench", &cfg, mech.name(), BENCH.name(), SEED);
    let blob = store.get(&key).expect("a published warmup");
    let _ = std::fs::remove_dir_all(store.dir());
    assert_eq!(
        format!("{:016x}", fnv1a64(&blob)),
        format!("{WARMUP_BLOB:016x}")
    );
}

#[test]
fn forked_cells_match_their_cold_twin() {
    let store = temp_store("fork");
    let cfg = config();
    for (mech, twin) in [
        (Mechanism::FpVaxx, "bench/FP-VAXX"),
        (Mechanism::DiVaxx, "bench/DI-VAXX"),
        (Mechanism::DiComp, "bench/DI-COMP"),
    ] {
        assert!(publish_benchmark_warmup(BENCH, mech, &cfg, SEED, &store).expect("warmup runs"));
        let forked = bench_cell(mech, &cfg, Some(&store));
        assert!(forked.staged.forked);
        assert_eq!(forked.staged.skipped_cycles, cfg.warmup_cycles);
        let forked_name = twin.replace("bench/", "forked/");
        check(&[(forked_name.as_str(), twin, forked.result)]);
    }
    let _ = std::fs::remove_dir_all(store.dir());
}
