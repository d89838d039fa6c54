//! End-to-end tests of the parallel campaign engine as the harness uses it:
//! a figure campaign run on a multi-threaded pool is bit-identical to the
//! serial reference, repeated runs are answered from the result cache, and
//! config changes invalidate exactly the affected cells.
//!
//! These tests share one process-wide [`ExecContext`] (it is a first-caller
//! -wins `OnceLock`), so the context — 4 worker threads plus a cache in a
//! scratch directory — is installed once and every test runs on it.

use std::path::PathBuf;
use std::sync::OnceLock;

use anoc_exec::ResultCache;
use anoc_harness::campaign::{self, benchmark_job};
use anoc_harness::persist::encode_run_result;
use anoc_harness::runner::try_run_benchmark;
use anoc_harness::{Mechanism, SystemConfig};
use anoc_traffic::Benchmark;

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anoc-campaign-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch cache dir");
    dir
}

/// Installs the shared test context (4 threads, cache in a scratch dir).
fn ctx() -> &'static campaign::ExecContext {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        let cache = ResultCache::open(scratch_dir()).expect("open scratch cache");
        cache.clear().expect("start from an empty cache");
        assert!(
            campaign::configure(Some(4), Some(cache), None),
            "test context must be installed before any experiment runs"
        );
    });
    campaign::context()
}

fn plan(config: &SystemConfig, seed: u64) -> Vec<anoc_exec::JobSpec<anoc_harness::RunResult>> {
    [Benchmark::Ssca2, Benchmark::X264]
        .into_iter()
        .flat_map(|b| Mechanism::ALL.into_iter().map(move |m| (b, m)))
        .map(|(b, m)| benchmark_job(b, m, config, seed))
        .collect()
}

#[test]
fn parallel_campaign_is_bit_identical_to_serial_reference() {
    let ctx = ctx();
    assert_eq!(ctx.threads(), 4);
    let config = SystemConfig::paper().with_sim_cycles(1_200);

    let (results, _) = ctx.run_reported("determinism", plan(&config, 3));

    // The serial reference: the same cells, one by one, on this thread.
    let mut i = 0;
    for b in [Benchmark::Ssca2, Benchmark::X264] {
        for m in Mechanism::ALL {
            let reference = try_run_benchmark(b, m, &config, 3).expect("run completes");
            assert_eq!(
                encode_run_result(&results[i]),
                encode_run_result(&reference),
                "cell {}/{} differs from the serial reference",
                b.name(),
                m.name(),
            );
            i += 1;
        }
    }
    assert_eq!(i, results.len());
}

#[test]
fn repeated_campaign_hits_the_cache_and_matches_bit_for_bit() {
    let ctx = ctx();
    let config = SystemConfig::paper().with_sim_cycles(900).with_seed(17);

    let (cold, cold_report) = ctx.run_reported("cache-cold", plan(&config, 17));
    // The cold run may still hit cells a sibling test has already cached;
    // what matters is that the warm rerun computes nothing at all.
    let (warm, warm_report) = ctx.run_reported("cache-warm", plan(&config, 17));
    assert_eq!(warm_report.executed, 0, "warm rerun must be all cache hits");
    assert_eq!(warm_report.cache_hits, cold_report.jobs);

    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(encode_run_result(c), encode_run_result(w));
    }
}

#[test]
fn config_change_invalidates_while_unrelated_reruns_still_hit() {
    let ctx = ctx();
    let base = SystemConfig::paper().with_sim_cycles(700).with_seed(5);
    let (_, first) = ctx.run_reported("invalidate-base", plan(&base, 5));

    // Any config knob change is a different content key: all cells miss.
    let tightened = base.clone().with_threshold(5);
    let (_, changed) = ctx.run_reported("invalidate-thr", plan(&tightened, 5));
    assert_eq!(
        changed.executed, changed.jobs,
        "threshold change must invalidate every cell"
    );

    // A different seed is likewise a different computation.
    let (_, reseeded) = ctx.run_reported("invalidate-seed", plan(&base.clone().with_seed(6), 6));
    assert_eq!(reseeded.executed, reseeded.jobs);

    // Re-asking the original cells (e.g. after touching only a reporter)
    // computes nothing: the simulation inputs are unchanged.
    let (_, again) = ctx.run_reported("invalidate-again", plan(&base, 5));
    assert_eq!(again.executed, 0);
    assert_eq!(again.cache_hits, first.jobs);
}
