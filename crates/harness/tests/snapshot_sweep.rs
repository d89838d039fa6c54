//! End-to-end pins for the warm-start snapshot store as sweeps use it:
//! a multi-threshold sweep forked from a shared post-warmup snapshot is
//! bit-identical to the same sweep run cold while simulating measurably fewer cycles, a fault-active campaign's monotonic
//! violation curve is unchanged when its warmups are forked, and a
//! campaign's warmup stage replays a stored warmup its cells could not fork.

use std::path::PathBuf;

use anoc_exec::SnapshotStore;
use anoc_harness::campaign::{self, benchmark_job, warmup_key};
use anoc_harness::persist::encode_run_result;
use anoc_harness::runner::{run, RunSpec, SnapshotPolicy, StagedInfo, Traffic};
use anoc_harness::{Mechanism, RunResult, SystemConfig};
use anoc_noc::{FaultPlan, SimError};
use anoc_traffic::Benchmark;

fn scratch_store(name: &str) -> SnapshotStore {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("anoc-snapshot-it-{}-{}", name, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch snapshot dir");
    let store = SnapshotStore::open(dir).expect("open scratch snapshot store");
    store.clear().expect("start from an empty store");
    store
}

/// One benchmark cell under `policy`, through the runner's single entry point.
fn staged_cell(
    benchmark: Benchmark,
    mechanism: Mechanism,
    config: &SystemConfig,
    seed: u64,
    policy: &SnapshotPolicy<'_>,
) -> Result<(RunResult, StagedInfo), SimError> {
    let outcome = run(RunSpec {
        traffic: Traffic::Benchmark {
            benchmark,
            seed,
            snapshots: policy.clone(),
        },
        mechanism,
        config,
    })?;
    Ok((outcome.result, outcome.staged))
}

fn warm_policy(store: &SnapshotStore) -> SnapshotPolicy<'_> {
    SnapshotPolicy {
        store: Some(store),
        ..SnapshotPolicy::cold()
    }
}

/// The acceptance pin: a three-threshold sweep at a fixed workload and seed,
/// run warm against a snapshot store, is bit-identical to the cold sweep —
/// and every cell after the first skips its warmup.
#[test]
fn warm_threshold_sweep_is_bit_identical_to_cold() {
    let store = scratch_store("sweep");
    let benchmark = Benchmark::Ssca2;
    let mechanism = Mechanism::FpVaxx;
    let seed = 7;
    let mut skipped_total = 0u64;
    let mut forks = 0usize;

    for threshold in [5u32, 10, 20] {
        let config = SystemConfig::paper()
            .with_sim_cycles(1_500)
            .with_threshold(threshold);

        let (cold, cold_info) =
            staged_cell(benchmark, mechanism, &config, seed, &SnapshotPolicy::cold())
                .expect("cold cell");
        assert!(!cold_info.forked && !cold_info.resumed);
        assert_eq!(cold_info.skipped_cycles, 0);

        let (warm, info) = staged_cell(benchmark, mechanism, &config, seed, &warm_policy(&store))
            .expect("warm cell");

        assert_eq!(
            encode_run_result(&cold),
            encode_run_result(&warm),
            "warm cell at threshold {threshold} differs from its cold twin"
        );
        if info.forked {
            forks += 1;
            assert_eq!(info.skipped_cycles, config.warmup_cycles);
        }
        skipped_total += info.skipped_cycles;
    }

    // The warmup key excludes the threshold, so the three cells share one
    // snapshot: the first publishes it, the other two fork.
    assert_eq!(forks, 2, "every cell after the first must fork");
    assert!(
        skipped_total >= 2 * 500,
        "the warm sweep must simulate measurably fewer cycles (skipped {skipped_total})"
    );
    assert_eq!(store.len(), 1, "one shared warmup snapshot, no leftovers");
}

/// Satellite 3 at the harness level: a fault-injection ppm sweep replayed
/// against a warm store forks every cell from its (fault-plan-specific)
/// warmup snapshot, reproduces each cell bit-for-bit, and leaves the
/// monotonic bound-violation curve unchanged.
#[test]
fn fault_active_sweep_survives_warmup_forking() {
    let store = scratch_store("faults");
    let benchmark = Benchmark::Blackscholes;
    let mechanism = Mechanism::FpVaxx;
    let seed = 11;
    let sweep = [2_000u32, 50_000, 400_000];

    let config_for = |ppm: u32| {
        SystemConfig::paper()
            .with_sim_cycles(3_000)
            .with_threshold(10)
            .with_faults(FaultPlan {
                seed: 9,
                link_bit_flip_ppm: ppm,
                ..FaultPlan::none()
            })
            .with_watchdog(20_000)
    };

    let run_pass = |expect_forked: bool| {
        sweep
            .iter()
            .map(|&ppm| {
                let config = config_for(ppm);
                let (r, info) =
                    staged_cell(benchmark, mechanism, &config, seed, &warm_policy(&store))
                        .expect("fault cell");
                assert_eq!(
                    info.forked, expect_forked,
                    "ppm {ppm}: forked={} but expected {expect_forked}",
                    info.forked
                );
                r
            })
            .collect::<Vec<_>>()
    };

    // Pass 1 runs cold and publishes each cell's warmup; the fault plan is
    // part of the warmup key, so the three cells publish three snapshots.
    let cold = run_pass(false);
    assert_eq!(store.len(), sweep.len());
    // Pass 2 forks every cell from its snapshot — with the fault RNG, bound
    // checker and watchdog cursors restored mid-plan, not re-seeded.
    let warm = run_pass(true);

    for ((c, w), ppm) in cold.iter().zip(&warm).zip(sweep) {
        assert_eq!(
            encode_run_result(c),
            encode_run_result(w),
            "fault cell at {ppm} ppm differs after forking its warmup"
        );
    }
    let curve: Vec<u64> = warm
        .iter()
        .map(|r| r.stats.faults.bound_violations)
        .collect();
    assert!(
        curve.windows(2).all(|w| w[0] <= w[1]),
        "violation curve must stay monotone: {curve:?}"
    );
    assert!(
        *curve.last().unwrap() > 0,
        "the heaviest fault plan must actually trip the bound checker: {curve:?}"
    );
}

/// A garbage blob under one warmup key of a sweep: the campaign's warmup
/// stage must find that its cells cannot fork it, replay the warmup and
/// republish it, so every executed cell forks. This is the one test in this
/// binary that installs the process-wide execution context.
#[test]
fn warmup_stage_replays_a_garbage_warmup_so_every_cell_forks() {
    let store = scratch_store("stage");
    assert!(campaign::configure(Some(2), None, Some(store.clone())));
    let (mechanism, seed) = (Mechanism::FpVaxx, 3);
    let config = SystemConfig::paper().with_sim_cycles(500);
    let planted = warmup_key(
        "bench",
        &config,
        mechanism.name(),
        Benchmark::Ssca2.name(),
        seed,
    );
    store.put(&planted, b"garbage").expect("plant garbage");
    let jobs: Vec<_> = [Benchmark::Ssca2, Benchmark::X264]
        .into_iter()
        .flat_map(|benchmark| {
            [5, 10, 20].map(|t| {
                benchmark_job(
                    benchmark,
                    mechanism,
                    &config.clone().with_threshold(t),
                    seed,
                )
            })
        })
        .collect();
    let ctx = campaign::context();
    let (results, _) = ctx.run_reported("stage", jobs);
    assert_eq!(results.len(), 6);
    let totals = ctx.totals();
    assert_eq!(totals.executed_jobs, 6);
    assert_eq!(
        totals.forked_jobs, totals.executed_jobs,
        "a cell replayed the warmup the stage should have"
    );
}
