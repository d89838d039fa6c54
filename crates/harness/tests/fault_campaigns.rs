//! End-to-end tests of the resilience layer as campaigns use it: seeded
//! fault plans reproduce bit-for-bit regardless of worker-thread count, and
//! keep-going campaigns complete past panicking and deadlocking cells with
//! typed failure reports while still caching the successes.
//!
//! Like `campaign_integration.rs`, the process-wide [`ExecContext`] is a
//! first-caller-wins `OnceLock`, so this binary installs its own context (2
//! threads + scratch cache). The thread-count comparison deliberately builds
//! private [`ThreadPool`]s instead, so it never depends on the global.

use std::path::PathBuf;
use std::sync::OnceLock;

use anoc_exec::{run_campaign, CampaignOptions, CellError, JobSpec, ResultCache, ThreadPool};
use anoc_harness::campaign::{self, benchmark_job};
use anoc_harness::persist::encode_run_result;
use anoc_harness::runner::RunResult;
use anoc_harness::{Mechanism, SystemConfig};
use anoc_noc::FaultPlan;
use anoc_traffic::Benchmark;

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anoc-faults-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch cache dir");
    dir
}

fn ctx() -> &'static campaign::ExecContext {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        let cache = ResultCache::open(scratch_dir()).expect("open scratch cache");
        cache.clear().expect("start from an empty cache");
        assert!(campaign::configure(Some(2), Some(cache), None));
    });
    campaign::context()
}

/// A config whose fault plan actually perturbs the simulation.
fn faulty_config() -> SystemConfig {
    SystemConfig::paper()
        .with_sim_cycles(1_200)
        .with_faults(FaultPlan {
            seed: 5,
            link_bit_flip_ppm: 20_000,
            port_stall_ppm: 2_000,
            stall_cycles: 2,
            credit_drop_ppm: 0,
            credit_dup_ppm: 0,
            dict_corrupt_ppm: 0,
        })
}

/// A config that wedges: every credit return is dropped, and the watchdog
/// turns the resulting starvation into a structured abort.
fn deadlocking_config() -> SystemConfig {
    SystemConfig::paper()
        .with_sim_cycles(4_000)
        .with_faults(FaultPlan {
            seed: 1,
            credit_drop_ppm: 1_000_000,
            ..FaultPlan::none()
        })
        .with_watchdog(1_000)
}

#[test]
fn fault_campaigns_reproduce_across_thread_counts() {
    let config = faulty_config();
    let plan = |seed: u64| -> Vec<JobSpec<Result<RunResult, String>>> {
        [Benchmark::Ssca2, Benchmark::Blackscholes]
            .into_iter()
            .flat_map(|b| {
                [Mechanism::FpVaxx, Mechanism::DiVaxx]
                    .into_iter()
                    .map(move |m| (b, m))
            })
            .map(|(b, m)| benchmark_job(b, m, &config, seed))
            .collect()
    };
    let run = |threads: usize| -> Vec<RunResult> {
        let pool = ThreadPool::new(threads);
        let (cells, _) = run_campaign(&pool, None, plan(9), &CampaignOptions::quiet(), None);
        cells
            .into_iter()
            .map(|c| c.expect("the cell runs"))
            .collect()
    };
    let (serial, wide) = (run(1), run(4));
    assert_eq!(serial.len(), wide.len());
    for (s, w) in serial.iter().zip(&wide) {
        // The fault RNG is per-simulation, so injected faults — and through
        // them every statistic — must not depend on worker count.
        assert_eq!(encode_run_result(s), encode_run_result(w));
        assert!(
            s.stats.faults.bit_flips > 0,
            "plan injected nothing: {:?}",
            s.stats.faults
        );
    }
}

#[test]
fn keep_going_campaign_survives_panics_and_deadlocks() {
    let ctx = ctx();
    let healthy = SystemConfig::paper().with_sim_cycles(1_000);
    let jobs: Vec<JobSpec<Result<RunResult, String>>> = vec![
        benchmark_job(Benchmark::Ssca2, Mechanism::FpVaxx, &healthy, 21),
        JobSpec::new("explode", "anoc-cell test explode", || {
            panic!("cell deliberately exploded")
        }),
        benchmark_job(
            Benchmark::Ssca2,
            Mechanism::FpVaxx,
            &deadlocking_config(),
            21,
        ),
        benchmark_job(Benchmark::X264, Mechanism::Baseline, &healthy, 21),
    ];
    let before = ctx.failed_cells();
    let (results, failures, report) = ctx.run_checked("resilience", jobs);

    // The campaign completed: healthy cells have results, failed cells are
    // typed with their diagnostics, and the failure counter advanced.
    assert_eq!(results.len(), 4);
    assert!(results[0].is_some() && results[3].is_some());
    assert!(results[1].is_none() && results[2].is_none());
    assert_eq!(failures.len(), 2);
    assert_eq!(ctx.failed_cells(), before + 2);
    assert_eq!(report.jobs, 4);

    let panicked = &failures[0];
    assert_eq!(panicked.index, 1);
    assert!(
        matches!(&panicked.error, CellError::Panicked(m) if m.contains("deliberately exploded")),
        "{panicked}"
    );
    let wedged = &failures[1];
    assert_eq!(wedged.index, 2);
    match &wedged.error {
        CellError::Failed(msg) => {
            // The watchdog's diagnostic dump travels with the failure.
            assert!(msg.contains("deadlock"), "{msg}");
            assert!(msg.contains("stuck"), "{msg}");
        }
        other => panic!("wrong error kind: {other}"),
    }

    // Successes were cached despite the failures: re-asking only the healthy
    // cells computes nothing.
    let rerun = vec![
        benchmark_job(Benchmark::Ssca2, Mechanism::FpVaxx, &healthy, 21),
        benchmark_job(Benchmark::X264, Mechanism::Baseline, &healthy, 21),
    ];
    let (warm, warm_failures, warm_report) = ctx.run_checked("resilience-warm", rerun);
    assert!(warm_failures.is_empty());
    assert_eq!(warm_report.executed, 0, "healthy cells must be cache hits");
    assert_eq!(
        encode_run_result(warm[0].as_ref().expect("cached")),
        encode_run_result(results[0].as_ref().expect("fresh")),
    );
}

#[test]
fn keep_going_mode_substitutes_sentinels_instead_of_panicking() {
    let ctx = ctx();
    let healthy = SystemConfig::paper().with_sim_cycles(800);
    ctx.set_keep_going(true);
    let jobs: Vec<JobSpec<Result<RunResult, String>>> = vec![
        benchmark_job(Benchmark::Blackscholes, Mechanism::Baseline, &healthy, 33),
        JobSpec::new("explode", "anoc-cell test explode-unchecked", || {
            panic!("unchecked cell exploded")
        }),
        benchmark_job(Benchmark::Blackscholes, Mechanism::FpComp, &healthy, 33),
    ];
    let results = ctx.run("keep-going", jobs);
    ctx.set_keep_going(false);
    assert_eq!(results.len(), 3);
    assert!(!results[0].is_failed_sentinel());
    assert!(results[1].is_failed_sentinel());
    assert!(!results[2].is_failed_sentinel());
    assert_eq!(results[2].mechanism, Mechanism::FpComp);
    assert!(ctx.failed_cells() > 0);
}
