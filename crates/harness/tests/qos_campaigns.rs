//! End-to-end tests of the per-flow QoS control plane and the lossy-link
//! scenario family as campaigns use them: active-controller and active-loss
//! runs reproduce bit-for-bit across worker-thread counts, inert
//! specs have zero behavioral footprint, the loss→violation curve is
//! monotone, and the QoS study's realized quality lands within budget.
//!
//! Thread-count comparisons build private [`ThreadPool`]s (the process-wide
//! context is a first-caller-wins `OnceLock`, owned by other test binaries).

use anoc_core::control::QosSpec;
use anoc_exec::{run_campaign, CampaignOptions, JobSpec, ThreadPool};
use anoc_harness::campaign::benchmark_job;
use anoc_harness::persist::encode_run_result;
use anoc_harness::runner::{try_run_benchmark, RunResult};
use anoc_harness::{Mechanism, SystemConfig};
use anoc_noc::LossPlan;
use anoc_traffic::Benchmark;

/// A config with both new planes armed: per-flow QoS at a 97% quality floor
/// and scaled per-hop word loss.
fn qos_lossy_config() -> SystemConfig {
    SystemConfig::paper()
        .with_sim_cycles(1_500)
        .with_qos(QosSpec::paper(970_000))
        .with_loss(LossPlan::scaled(7, 5_000, 100))
}

#[test]
fn qos_and_lossy_campaigns_reproduce_across_thread_counts() {
    let config = qos_lossy_config();
    let plan = |seed: u64| -> Vec<JobSpec<Result<RunResult, String>>> {
        [Benchmark::Ssca2, Benchmark::Blackscholes]
            .into_iter()
            .map(|b| benchmark_job(b, Mechanism::FpVaxx, &config, seed))
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
        // Controller epochs and loss draws are per-simulation state, so
        // every statistic must be independent of worker count.
        assert_eq!(encode_run_result(s), encode_run_result(w));
        assert!(
            s.stats.faults.words_lost > 0,
            "loss plan erased nothing: {:?}",
            s.stats.faults
        );
    }
}

/// An inert `QosSpec::off()` + `LossPlan::none()` config must reproduce the
/// plain run exactly: no RNG draws, no controller epochs, no threshold
/// rewrites — zero behavioral footprint.
#[test]
fn inert_qos_and_loss_reproduce_the_plain_run_exactly() {
    let plain = SystemConfig::paper().with_sim_cycles(1_200);
    let inert = plain
        .clone()
        .with_qos(QosSpec::off())
        .with_loss(LossPlan::none());
    for m in [Mechanism::FpVaxx, Mechanism::Baseline] {
        let a = try_run_benchmark(Benchmark::Ssca2, m, &plain, 9).expect("run completes");
        let b = try_run_benchmark(Benchmark::Ssca2, m, &inert, 9).expect("run completes");
        assert_eq!(encode_run_result(&a), encode_run_result(&b), "{}", m.name());
        assert_eq!(a.stats.faults.words_lost, 0);
    }
}

/// Under an active QoS plane the bound checker is armed at the spec ceiling:
/// on healthy links no flow may ever deliver a word past it. (With lossy
/// links the erased words *do* trip the checker — that loss→violation curve
/// is the lossy scenario's signal, so it is exercised separately below.)
#[test]
fn qos_runs_never_violate_the_spec_ceiling() {
    let r = try_run_benchmark(
        Benchmark::Blackscholes,
        Mechanism::FpVaxx,
        &SystemConfig::paper()
            .with_sim_cycles(1_500)
            .with_qos(QosSpec::paper(970_000)),
        9,
    )
    .expect("run completes");
    assert!(r.stats.faults.bound_checked_words > 0);
    assert_eq!(
        r.stats.faults.bound_violations, 0,
        "a flow approximated past the QoS ceiling"
    );
}

/// The lossy sweep's scenario shape: an inert rate injects nothing, and the
/// erased-word count grows with the configured loss rate.
#[test]
fn lossy_curve_is_monotone_in_the_loss_rate() {
    let base = SystemConfig::paper().with_sim_cycles(1_200);
    let lost: Vec<u64> = [0u32, 2_000, 50_000, 400_000]
        .iter()
        .map(|&ppm| {
            let plan = if ppm == 0 {
                LossPlan::none()
            } else {
                LossPlan::scaled(11, ppm, 50)
            };
            let cfg = base.clone().with_loss(plan);
            try_run_benchmark(Benchmark::Blackscholes, Mechanism::FpVaxx, &cfg, 9)
                .expect("run completes")
                .stats
                .faults
                .words_lost
        })
        .collect();
    assert_eq!(lost[0], 0, "inert plan must erase nothing");
    assert!(
        lost.windows(2).all(|w| w[0] <= w[1]) && *lost.last().expect("nonempty") > 0,
        "{lost:?}"
    );
}
