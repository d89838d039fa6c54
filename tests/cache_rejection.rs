//! A rejected cache payload, run through real cells. A campaign of
//! benchmark cells fills a result cache; one entry is then rewritten to the
//! previous result-format version and another is truncated. Rerunning the
//! campaign must re-simulate exactly those two cells, answer the rest from
//! the cache, reproduce every result byte for byte, and leave both entries
//! rewritten in the current format.

use anoc_exec::{run_campaign_checked, CampaignOptions, ResultCache, ThreadPool};
use approx_noc::harness::campaign::{benchmark_job, RunResultCodec};
use approx_noc::harness::persist::{
    decode_run_result, encode_run_result, payload_version, RESULT_FORMAT_VERSION,
};
use approx_noc::harness::{Mechanism, RunResult, SystemConfig};
use approx_noc::traffic::Benchmark;

const MECHANISMS: [Mechanism; 4] = [
    Mechanism::Baseline,
    Mechanism::FpVaxx,
    Mechanism::DiComp,
    Mechanism::DiVaxx,
];

fn run(pool: &ThreadPool, cache: &ResultCache, cfg: &SystemConfig) -> (Vec<RunResult>, usize) {
    let jobs = MECHANISMS
        .iter()
        .map(|&m| benchmark_job(Benchmark::Ssca2, m, cfg, 42))
        .collect();
    let outcome = run_campaign_checked(
        pool,
        Some((cache, &RunResultCodec)),
        jobs,
        &CampaignOptions::quiet(),
        None,
    );
    let report = outcome.report;
    assert_eq!(report.jobs, MECHANISMS.len());
    assert_eq!(report.cache_hits + report.executed, MECHANISMS.len());
    let results = outcome.results.into_iter();
    (
        results.map(|r| r.expect("no cell failed")).collect(),
        report.executed,
    )
}

#[test]
fn stale_and_truncated_payloads_rerun_only_their_cells() {
    let dir = std::env::temp_dir().join(format!("anoc-cache-reject-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).expect("open temp cache");
    let pool = ThreadPool::new(2);
    let cfg = SystemConfig::paper().with_sim_cycles(600);
    let keys: Vec<String> = MECHANISMS
        .iter()
        .map(|&m| benchmark_job(Benchmark::Ssca2, m, &cfg, 42).key)
        .collect();

    let (first, executed) = run(&pool, &cache, &cfg);
    assert_eq!(executed, MECHANISMS.len(), "a fresh cache answers nothing");
    let payload = |key: &str| cache.get(key).expect("an entry per cell");

    // Baseline's entry claims the previous format version; DI-VAXX's loses
    // the second half of its payload.
    let current = format!("# anoc-result v{RESULT_FORMAT_VERSION}");
    let previous = format!("# anoc-result v{}", RESULT_FORMAT_VERSION - 1);
    let stale = payload(&keys[0]).replacen(&current, &previous, 1);
    assert_eq!(payload_version(&stale), Some(RESULT_FORMAT_VERSION - 1));
    let full = payload(&keys[3]);
    let truncated = &full[..full.len() / 2];
    for bad in [stale.as_str(), truncated] {
        assert!(decode_run_result(bad).is_none(), "{bad}");
    }
    cache.put(&keys[0], &stale).expect("rewrite entry");
    cache.put(&keys[3], truncated).expect("rewrite entry");

    let (second, executed) = run(&pool, &cache, &cfg);
    assert_eq!(executed, 2, "only the two rejected cells re-simulate");
    for ((a, b), m) in first.iter().zip(&second).zip(MECHANISMS) {
        assert_eq!(
            encode_run_result(a),
            encode_run_result(b),
            "{} differs after the rerun",
            m.name()
        );
    }
    // Each rerun cell wrote its result back in the current format.
    for key in [&keys[0], &keys[3]] {
        let fresh = payload(key);
        assert_eq!(payload_version(&fresh), Some(RESULT_FORMAT_VERSION));
        assert!(decode_run_result(&fresh).is_some());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
