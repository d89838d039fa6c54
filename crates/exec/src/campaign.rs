//! The campaign planner: expand a figure into jobs, execute in parallel,
//! merge deterministically.
//!
//! A campaign is an ordered plan of [`JobSpec`]s. Execution may complete in
//! any order across worker threads, but results are always merged back **in
//! plan order**, so a parallel campaign is bit-identical to running the same
//! plan serially. Each job carries a canonical content `key`; when a
//! [`ResultCache`] and [`ResultCodec`] are supplied, cached cells skip
//! simulation entirely and each fresh result is written back as it finishes,
//! so a rerun of a killed campaign simulates only the cells it never
//! completed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::pool::ThreadPool;
use crate::progress::Progress;
use crate::store::ResultCache;

/// A shared warm-start stage a job depends on.
///
/// Several sweep cells often share the exact same warmup (same config outside
/// the measurement window, same workload and seed); each carries the same
/// `key` and a closure that *produces* the warm state — typically by
/// simulating the warmup once and publishing a snapshot to a
/// [`SnapshotStore`](crate::SnapshotStore). The planner runs one closure per
/// distinct key before the measurement jobs start; the jobs themselves then
/// look the snapshot up and fall back to a cold run on a miss, so a failed
/// or skipped warmup never fails a campaign.
pub struct WarmupSpec {
    /// Canonical content key identifying the shared warm state.
    pub key: String,
    /// Produces and publishes the warm state as a side effect.
    pub work: WarmupWork,
}

/// The boxed side-effecting closure of a [`WarmupSpec`].
pub type WarmupWork = Box<dyn FnOnce() + Send>;

/// One schedulable unit of work: a single simulation cell.
pub struct JobSpec<T> {
    /// Human-readable stable identifier, e.g. `fig9/ssca2/FP-VAXX/s42`.
    pub id: String,
    /// Canonical single-line content key; equal keys ⇒ equal results.
    pub key: String,
    /// Optional shared warm-start stage; deduplicated by key across the plan
    /// and run before the cache-missed jobs execute.
    pub warmup: Option<WarmupSpec>,
    work: Box<dyn FnOnce() -> T + Send + 'static>,
}

impl<T> JobSpec<T> {
    /// Builds a job from its identifiers and the closure computing it.
    pub fn new(
        id: impl Into<String>,
        key: impl Into<String>,
        work: impl FnOnce() -> T + Send + 'static,
    ) -> Self {
        JobSpec {
            id: id.into(),
            key: key.into(),
            warmup: None,
            work: Box::new(work),
        }
    }

    /// Attaches a shared warm-start stage to this job.
    pub fn with_warmup(
        mut self,
        key: impl Into<String>,
        work: impl FnOnce() + Send + 'static,
    ) -> Self {
        self.warmup = Some(WarmupSpec {
            key: key.into(),
            work: Box::new(work),
        });
        self
    }

    /// Post-processes the job's result with `f`, keeping id, key and warmup
    /// — e.g. wrapping an infallible job for [`run_campaign_checked`] with
    /// `job.map(Ok)`.
    pub fn map<U>(self, f: impl FnOnce(T) -> U + Send + 'static) -> JobSpec<U>
    where
        T: 'static,
    {
        let work = self.work;
        JobSpec {
            id: self.id,
            key: self.key,
            warmup: self.warmup,
            work: Box::new(move || f(work())),
        }
    }
}

/// Serializes results to and from the cache's text payloads.
pub trait ResultCodec<T> {
    /// Encodes a result as a text payload.
    fn encode(&self, value: &T) -> String;
    /// Decodes a payload; `None` (stale/foreign format) forces a re-run.
    fn decode(&self, payload: &str) -> Option<T>;
}

/// Execution knobs for one campaign.
pub struct CampaignOptions {
    /// Label shown in progress lines.
    pub label: String,
    /// Force progress reporting off (overrides the `ANOC_PROGRESS` policy).
    pub quiet: bool,
}

impl CampaignOptions {
    /// Options with a progress label, using the default progress policy.
    pub fn labeled(label: impl Into<String>) -> Self {
        CampaignOptions {
            label: label.into(),
            quiet: false,
        }
    }

    /// Options with progress reporting disabled.
    pub fn quiet() -> Self {
        CampaignOptions {
            label: "campaign".into(),
            quiet: true,
        }
    }
}

/// What a campaign did, for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignReport {
    /// Total jobs in the plan.
    pub jobs: usize,
    /// Jobs answered from the cache.
    pub cache_hits: usize,
    /// Jobs actually executed.
    pub executed: usize,
    /// Wall-clock duration of the whole campaign.
    pub wall: Duration,
    /// Simulated cycles summed over the executed jobs (cache hits excluded;
    /// 0 when no cycle extractor was supplied).
    pub sim_cycles: u64,
}

impl CampaignReport {
    /// Aggregate simulator throughput: simulated cycles per wall-clock
    /// second of the campaign. Zero when nothing was executed.
    pub fn cycles_per_second(&self) -> f64 {
        if self.sim_cycles == 0 || self.wall.is_zero() {
            0.0
        } else {
            self.sim_cycles as f64 / self.wall.as_secs_f64()
        }
    }
}

/// Why one campaign cell produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// The cell's closure panicked; the payload message is carried.
    Panicked(String),
    /// The cell completed but reported a typed failure (e.g. a simulation
    /// watchdog abort), with its diagnostic rendering.
    Failed(String),
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Panicked(msg) => write!(f, "panicked: {msg}"),
            CellError::Failed(msg) => write!(f, "failed: {msg}"),
        }
    }
}

/// One failed cell of a checked campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Position in the plan.
    pub index: usize,
    /// The cell's stable identifier.
    pub id: String,
    /// What went wrong.
    pub error: CellError,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell {} ({}) {}", self.index, self.id, self.error)
    }
}

/// The outcome of a checked campaign: per-cell results in plan order
/// (`None` where the cell failed), the failures, and the usual report.
#[derive(Debug)]
pub struct CampaignOutcome<T> {
    /// Results in plan order; `None` exactly at the failed cells.
    pub results: Vec<Option<T>>,
    /// Every failed cell, in plan order.
    pub failures: Vec<CellFailure>,
    /// Execution statistics.
    pub report: CampaignReport,
}

impl<T> CampaignOutcome<T> {
    /// Whether every cell succeeded.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Attempts a cache write with bounded retries (transient filesystem
/// failures — e.g. a concurrent cleaner — should not cost a re-simulation
/// next run). The final error is reported to stderr, never propagated.
fn cache_put_with_retry(store: &ResultCache, key: &str, payload: &str, label: &str, id: &str) {
    const ATTEMPTS: usize = 3;
    let mut last_err = None;
    for _ in 0..ATTEMPTS {
        match store.put(key, payload) {
            Ok(()) => return,
            Err(err) => last_err = Some(err),
        }
    }
    if let Some(err) = last_err {
        eprintln!("[{label}] cache write failed for {id} after {ATTEMPTS} attempts: {err}");
    }
}

/// Runs a campaign on `pool`, optionally backed by `cache`, and returns the
/// results **in plan order** plus a report.
///
/// `cycles_of` extracts the simulated-cycle count from a result; when
/// supplied, per-job progress lines and the report carry cycles-per-second
/// throughput.
///
/// Cache misses and decode failures re-run the job; each fresh result is
/// written back as soon as it finishes, so a killed campaign's rerun answers
/// every completed cell from the cache. Cache write errors are reported to
/// stderr but never fail the campaign.
///
/// # Panics
///
/// If any cell panics, panics after all cells have finished with a `String`
/// payload listing every failed cell. Campaigns that must survive failing
/// cells use [`run_campaign_checked`] instead.
pub fn run_campaign<T: Send + 'static>(
    pool: &ThreadPool,
    cache: Option<(&ResultCache, &dyn ResultCodec<T>)>,
    jobs: Vec<JobSpec<T>>,
    options: &CampaignOptions,
    cycles_of: Option<fn(&T) -> u64>,
) -> (Vec<T>, CampaignReport) {
    let jobs: Vec<JobSpec<Result<T, String>>> = jobs.into_iter().map(|job| job.map(Ok)).collect();
    let outcome = run_campaign_checked(pool, cache, jobs, options, cycles_of);
    if !outcome.failures.is_empty() {
        let mut report = format!("{} campaign cell(s) failed:", outcome.failures.len());
        for f in &outcome.failures {
            report.push_str(&format!("\n  {f}"));
        }
        std::panic::panic_any(report);
    }
    let results = outcome
        .results
        .into_iter()
        .map(|s| s.expect("no failures, so every plan slot is filled"))
        .collect();
    (results, outcome.report)
}

/// The fault-tolerant variant of [`run_campaign`]: cells return
/// `Result<T, String>` and may panic; both failure modes are isolated per
/// cell. The campaign always runs to completion, each successful cell is
/// cached as it finishes, and failures come back typed in the
/// [`CampaignOutcome`] instead of unwinding.
pub fn run_campaign_checked<T: Send + 'static>(
    pool: &ThreadPool,
    cache: Option<(&ResultCache, &dyn ResultCodec<T>)>,
    jobs: Vec<JobSpec<Result<T, String>>>,
    options: &CampaignOptions,
    cycles_of: Option<fn(&T) -> u64>,
) -> CampaignOutcome<T> {
    let start = Instant::now();
    let total = jobs.len();
    let progress = Arc::new(Progress::with_enabled(
        &options.label,
        total,
        !options.quiet && crate::progress::enabled(),
    ));

    // Phase 1: resolve what the cache already knows (only successes are
    // ever cached, so a hit is always an `Ok` cell).
    let mut slots: Vec<Option<T>> = Vec::with_capacity(total);
    let mut misses: Vec<(usize, JobSpec<Result<T, String>>)> = Vec::new();
    let mut cache_hits = 0;
    for (idx, job) in jobs.into_iter().enumerate() {
        let cached = cache
            .as_ref()
            .and_then(|(store, codec)| store.get(&job.key).and_then(|p| codec.decode(&p)));
        match cached {
            Some(value) => {
                cache_hits += 1;
                slots.push(Some(value));
            }
            None => {
                slots.push(None);
                misses.push((idx, job));
            }
        }
    }
    progress.cache_hits(cache_hits);

    // Phase 1.5: run the shared warmups the missed jobs depend on, one per
    // distinct key (first-wins, in deterministic key order). Warmups publish
    // their state as a side effect (e.g. into a snapshot store); the jobs
    // fall back to a cold run when that state is absent, so a panicking
    // warmup degrades throughput, never correctness.
    let mut warmups: BTreeMap<String, WarmupWork> = BTreeMap::new();
    for (_, job) in &mut misses {
        if let Some(spec) = job.warmup.take() {
            warmups.entry(spec.key).or_insert(spec.work);
        }
    }
    if !warmups.is_empty() {
        let (keys, tasks): (Vec<String>, Vec<WarmupWork>) = warmups.into_iter().unzip();
        let outcomes = pool.run_ordered_results_observed(tasks, |_, _| {});
        for (i, outcome) in outcomes.into_iter().enumerate() {
            if let Err(msg) = outcome {
                eprintln!(
                    "[{}] warmup '{}' panicked ({msg}); its cells run cold",
                    options.label, keys[i]
                );
            }
        }
    }

    // Phase 2: execute the misses in parallel, isolating panics per cell.
    let executed = misses.len();
    let ids: Vec<String> = misses.iter().map(|(_, j)| j.id.clone()).collect();
    let keys: Vec<String> = misses.iter().map(|(_, j)| j.key.clone()).collect();
    let plan_indices: Vec<usize> = misses.iter().map(|(idx, _)| *idx).collect();
    type TimedTask<T> = Box<dyn FnOnce() -> (Duration, Result<T, String>) + Send>;
    let tasks: Vec<TimedTask<T>> = misses
        .into_iter()
        .map(|(_, job)| {
            let progress = Arc::clone(&progress);
            let work = job.work;
            Box::new(move || {
                progress.job_started();
                let t = Instant::now();
                let value = work();
                (t.elapsed(), value)
            }) as TimedTask<T>
        })
        .collect();
    // Each success is written back as it finishes, on this thread: a
    // campaign killed partway keeps every cell it completed.
    let fresh = pool.run_ordered_results_observed(tasks, |i, (wall, value)| {
        let cycles = match value {
            Ok(v) => {
                if let Some((store, codec)) = cache.as_ref() {
                    let payload = codec.encode(v);
                    cache_put_with_retry(store, &keys[i], &payload, &options.label, &ids[i]);
                }
                cycles_of.map(|f| f(v))
            }
            Err(_) => None,
        };
        progress.job_finished(&ids[i], *wall, cycles);
    });

    // Phase 3: merge in plan order.
    let mut sim_cycles = 0u64;
    let mut failures: Vec<CellFailure> = Vec::new();
    for (i, outcome) in fresh.into_iter().enumerate() {
        let index = plan_indices[i];
        match outcome {
            Ok((_, Ok(value))) => {
                sim_cycles += cycles_of.map_or(0, |f| f(&value));
                slots[index] = Some(value);
            }
            Ok((_, Err(msg))) => {
                failures.push(CellFailure {
                    index,
                    id: ids[i].clone(),
                    error: CellError::Failed(msg),
                });
            }
            Err(panic_msg) => {
                failures.push(CellFailure {
                    index,
                    id: ids[i].clone(),
                    error: CellError::Panicked(panic_msg),
                });
            }
        }
    }
    progress.finish(executed);
    failures.sort_by_key(|f| f.index);

    let report = CampaignReport {
        jobs: total,
        cache_hits,
        executed,
        wall: start.elapsed(),
        sim_cycles,
    };
    CampaignOutcome {
        results: slots,
        failures,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct U64Codec;
    impl ResultCodec<u64> for U64Codec {
        fn encode(&self, value: &u64) -> String {
            value.to_string()
        }
        fn decode(&self, payload: &str) -> Option<u64> {
            payload.trim().parse().ok()
        }
    }

    fn temp_cache(name: &str) -> ResultCache {
        let dir =
            std::env::temp_dir().join(format!("anoc-exec-campaign-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(dir).expect("open temp cache")
    }

    fn square_jobs(n: u64) -> Vec<JobSpec<u64>> {
        (0..n)
            .map(|i| JobSpec::new(format!("sq/{i}"), format!("square v1 n={i}"), move || i * i))
            .collect()
    }

    #[test]
    fn merge_is_in_plan_order() {
        let pool = ThreadPool::new(6);
        let jobs: Vec<JobSpec<u64>> = (0..40u64)
            .map(|i| {
                JobSpec::new(format!("j{i}"), format!("k{i}"), move || {
                    std::thread::sleep(Duration::from_micros(40 - i));
                    i
                })
            })
            .collect();
        let (results, report) = run_campaign(&pool, None, jobs, &CampaignOptions::quiet(), None);
        assert_eq!(results, (0..40).collect::<Vec<_>>());
        assert_eq!(report.jobs, 40);
        assert_eq!(report.executed, 40);
        assert_eq!(report.cache_hits, 0);
    }

    #[test]
    fn second_run_is_all_cache_hits() {
        let pool = ThreadPool::new(4);
        let cache = temp_cache("hits");
        let codec = U64Codec;
        let (cold, report) = run_campaign(
            &pool,
            Some((&cache, &codec)),
            square_jobs(12),
            &CampaignOptions::quiet(),
            None,
        );
        assert_eq!(report.executed, 12);
        let (warm, report) = run_campaign(
            &pool,
            Some((&cache, &codec)),
            square_jobs(12),
            &CampaignOptions::quiet(),
            None,
        );
        assert_eq!(report.executed, 0);
        assert_eq!(report.cache_hits, 12);
        assert_eq!(cold, warm);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn key_change_invalidates_only_changed_cells() {
        let pool = ThreadPool::new(4);
        let cache = temp_cache("invalidate");
        let codec = U64Codec;
        let _ = run_campaign(
            &pool,
            Some((&cache, &codec)),
            square_jobs(8),
            &CampaignOptions::quiet(),
            None,
        );
        // Same plan, but cell 3 now has a different content key (as if its
        // config changed): exactly one cell re-runs.
        let jobs: Vec<JobSpec<u64>> = (0..8u64)
            .map(|i| {
                let key = if i == 3 {
                    "square v2 n=3".to_string()
                } else {
                    format!("square v1 n={i}")
                };
                JobSpec::new(format!("sq/{i}"), key, move || i * i)
            })
            .collect();
        let (_, report) = run_campaign(
            &pool,
            Some((&cache, &codec)),
            jobs,
            &CampaignOptions::quiet(),
            None,
        );
        assert_eq!(report.executed, 1);
        assert_eq!(report.cache_hits, 7);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn undecodable_payload_forces_rerun() {
        let pool = ThreadPool::new(2);
        let cache = temp_cache("stale");
        cache.put("square v1 n=0", "not a number").expect("put");
        let codec = U64Codec;
        let (results, report) = run_campaign(
            &pool,
            Some((&cache, &codec)),
            square_jobs(1),
            &CampaignOptions::quiet(),
            None,
        );
        assert_eq!(results, vec![0]);
        assert_eq!(report.executed, 1);
        // The bad entry was replaced by a good one.
        assert_eq!(cache.get("square v1 n=0").as_deref(), Some("0"));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn cycle_extractor_feeds_the_report() {
        let pool = ThreadPool::new(2);
        let (results, report) = run_campaign(
            &pool,
            None,
            square_jobs(5),
            &CampaignOptions::quiet(),
            Some(|v: &u64| *v + 1),
        );
        assert_eq!(results.len(), 5);
        assert_eq!(report.sim_cycles, (0..5u64).map(|i| i * i + 1).sum::<u64>());
        assert!(report.cycles_per_second() > 0.0);
        // Cached jobs contribute no cycles: they did not simulate.
        let cache = temp_cache("cycles");
        let codec = U64Codec;
        let _ = run_campaign(
            &pool,
            Some((&cache, &codec)),
            square_jobs(5),
            &CampaignOptions::quiet(),
            Some(|v: &u64| *v + 1),
        );
        let (_, warm) = run_campaign(
            &pool,
            Some((&cache, &codec)),
            square_jobs(5),
            &CampaignOptions::quiet(),
            Some(|v: &u64| *v + 1),
        );
        assert_eq!(warm.sim_cycles, 0);
        assert_eq!(warm.cycles_per_second(), 0.0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn checked_campaign_survives_panics_and_failures() {
        let pool = ThreadPool::new(4);
        let cache = temp_cache("checked");
        let codec = U64Codec;
        let jobs: Vec<JobSpec<Result<u64, String>>> = (0..6u64)
            .map(|i| {
                JobSpec::new(
                    format!("c/{i}"),
                    format!("checked v1 n={i}"),
                    move || match i {
                        2 => panic!("cell 2 blew up"),
                        4 => Err("watchdog tripped".to_string()),
                        _ => Ok(i * 100),
                    },
                )
            })
            .collect();
        let outcome = run_campaign_checked(
            &pool,
            Some((&cache, &codec)),
            jobs,
            &CampaignOptions::quiet(),
            None,
        );
        assert!(!outcome.is_complete());
        assert_eq!(outcome.failures.len(), 2);
        assert_eq!(outcome.failures[0].index, 2);
        assert_eq!(
            outcome.failures[0].error,
            CellError::Panicked("cell 2 blew up".to_string())
        );
        assert_eq!(outcome.failures[1].index, 4);
        assert_eq!(
            outcome.failures[1].error,
            CellError::Failed("watchdog tripped".to_string())
        );
        for (i, slot) in outcome.results.iter().enumerate() {
            if i == 2 || i == 4 {
                assert!(slot.is_none());
            } else {
                assert_eq!(*slot, Some(i as u64 * 100));
            }
        }
        // Only the successes were cached.
        assert_eq!(cache.get("checked v1 n=0").as_deref(), Some("0"));
        assert!(cache.get("checked v1 n=2").is_none());
        assert!(cache.get("checked v1 n=4").is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_finished_cell_is_cached_before_the_campaign_ends() {
        // One worker runs the cells in plan order. The second cell waits for
        // the first cell's entry, which is there only if a result is written
        // back while the campaign still runs.
        let pool = ThreadPool::new(1);
        let cache = temp_cache("as-finished");
        let codec = U64Codec;
        let probe = cache.clone();
        let jobs: Vec<JobSpec<Result<u64, String>>> = vec![
            JobSpec::new("f/0", "finished v1 n=0", || Ok(7)),
            JobSpec::new("f/1", "finished v1 n=1", move || {
                let deadline = Instant::now() + Duration::from_secs(10);
                while Instant::now() < deadline {
                    if probe.get("finished v1 n=0").is_some() {
                        return Ok(1);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err("the first cell was not cached while the campaign ran".to_string())
            }),
        ];
        let outcome = run_campaign_checked(
            &pool,
            Some((&cache, &codec)),
            jobs,
            &CampaignOptions::quiet(),
            None,
        );
        assert!(outcome.is_complete(), "{:?}", outcome.failures);
        assert_eq!(outcome.results, vec![Some(7), Some(1)]);
        assert_eq!(cache.get("finished v1 n=1").as_deref(), Some("1"));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn unchecked_campaign_reports_every_failed_cell() {
        let pool = ThreadPool::new(4);
        let jobs: Vec<JobSpec<u64>> = (0..5u64)
            .map(|i| {
                JobSpec::new(format!("p/{i}"), format!("k/{i}"), move || {
                    if i % 2 == 1 {
                        panic!("odd cell {i}");
                    }
                    i
                })
            })
            .collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_campaign(&pool, None, jobs, &CampaignOptions::quiet(), None)
        }))
        .expect_err("campaign with panicking cells must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("2 campaign cell(s) failed"), "{msg}");
        assert!(msg.contains("odd cell 1"), "{msg}");
        assert!(msg.contains("odd cell 3"), "{msg}");
    }

    #[test]
    fn warmups_run_once_per_key_and_only_for_misses() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = ThreadPool::new(4);
        let cache = temp_cache("warmup");
        let codec = U64Codec;
        // 6 cells over 2 warmup groups; counts how often each warmup runs
        // and proves every warmup finished before any measurement started.
        let warm_runs = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let measured_before_warm = Arc::new(AtomicUsize::new(0));
        let make_jobs = |warm_runs: &Arc<[AtomicUsize; 2]>,
                         early: &Arc<AtomicUsize>|
         -> Vec<JobSpec<u64>> {
            (0..6u64)
                .map(|i| {
                    let group = i % 2;
                    let warm = Arc::clone(warm_runs);
                    let warm_check = Arc::clone(warm_runs);
                    let early = Arc::clone(early);
                    JobSpec::new(format!("w/{i}"), format!("warm v1 n={i}"), move || {
                        if warm_check[group as usize].load(Ordering::SeqCst) == 0 {
                            early.fetch_add(1, Ordering::SeqCst);
                        }
                        i * 10
                    })
                    .with_warmup(format!("warmup g={group}"), move || {
                        warm[group as usize].fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect()
        };
        let (results, report) = run_campaign(
            &pool,
            Some((&cache, &codec)),
            make_jobs(&warm_runs, &measured_before_warm),
            &CampaignOptions::quiet(),
            None,
        );
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50]);
        assert_eq!(report.executed, 6);
        assert_eq!(warm_runs[0].load(Ordering::SeqCst), 1, "group 0 deduped");
        assert_eq!(warm_runs[1].load(Ordering::SeqCst), 1, "group 1 deduped");
        assert_eq!(
            measured_before_warm.load(Ordering::SeqCst),
            0,
            "all warmups complete before any measurement runs"
        );
        // Fully cached second run: warmups are skipped entirely.
        let (_, report) = run_campaign(
            &pool,
            Some((&cache, &codec)),
            make_jobs(&warm_runs, &measured_before_warm),
            &CampaignOptions::quiet(),
            None,
        );
        assert_eq!(report.cache_hits, 6);
        assert_eq!(warm_runs[0].load(Ordering::SeqCst), 1);
        assert_eq!(warm_runs[1].load(Ordering::SeqCst), 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_panicking_warmup_does_not_fail_the_campaign() {
        let pool = ThreadPool::new(2);
        let jobs: Vec<JobSpec<u64>> = (0..3u64)
            .map(|i| {
                JobSpec::new(format!("pw/{i}"), format!("pw v1 n={i}"), move || i)
                    .with_warmup("doomed warmup", || panic!("warmup exploded"))
            })
            .collect();
        let (results, report) = run_campaign(&pool, None, jobs, &CampaignOptions::quiet(), None);
        assert_eq!(results, vec![0, 1, 2]);
        assert_eq!(report.executed, 3);
    }

    #[test]
    fn parallel_equals_serial_bit_for_bit() {
        let serial = ThreadPool::new(1);
        let parallel = ThreadPool::new(8);
        let (a, _) = run_campaign(
            &serial,
            None,
            square_jobs(32),
            &CampaignOptions::quiet(),
            None,
        );
        let (b, _) = run_campaign(
            &parallel,
            None,
            square_jobs(32),
            &CampaignOptions::quiet(),
            None,
        );
        assert_eq!(a, b);
    }
}
