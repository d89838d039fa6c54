//! The harness side of the [`anoc_exec`] campaign engine: content keys for
//! simulation cells, the [`RunResult`] cache codec and the process-wide
//! execution context.
//!
//! Every simulation cell is a pure function of its inputs (DESIGN.md §6), so
//! a cell's cache key is the canonical rendering of exactly those inputs:
//! the full [`SystemConfig`], the mechanism, the workload and the seed,
//! prefixed with a campaign kind that distinguishes differently-driven cells
//! (benchmark traffic vs synthetic sweeps). Cells that
//! are the same computation share a key across figures — a `fig13` rerun
//! reuses the matrix cells `fig9` already paid for.

use std::fmt::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use anoc_exec::{
    run_campaign_checked, CampaignOptions, CampaignReport, CellFailure, JobSpec, ResultCache,
    ResultCodec, SnapshotStore, ThreadPool,
};
use anoc_noc::SimError;
use anoc_traffic::{Benchmark, DestPattern};

use crate::config::{Mechanism, SystemConfig};
use crate::persist::{decode_run_result, encode_run_result};
use crate::runner::{publish_benchmark_warmup, run, RunResult, RunSpec, StagedInfo, Traffic};

/// The [`ResultCodec`] storing [`RunResult`]s in the campaign cache.
pub struct RunResultCodec;

impl ResultCodec<RunResult> for RunResultCodec {
    fn encode(&self, value: &RunResult) -> String {
        encode_run_result(value)
    }
    fn decode(&self, payload: &str) -> Option<RunResult> {
        decode_run_result(payload)
    }
}

/// The process-wide execution context: one thread pool and (optionally) one
/// result cache shared by every campaign in the process.
pub struct ExecContext {
    pool: ThreadPool,
    cache: Option<ResultCache>,
    snapshots: Option<SnapshotStore>,
    sim_cycles: AtomicU64,
    wall_nanos: AtomicU64,
    executed_jobs: AtomicU64,
    cached_jobs: AtomicU64,
    keep_going: AtomicBool,
    failed_cells: AtomicU64,
    forked_jobs: AtomicU64,
    skipped_cycles: AtomicU64,
}

impl ExecContext {
    fn with(
        pool: ThreadPool,
        cache: Option<ResultCache>,
        snapshots: Option<SnapshotStore>,
    ) -> Self {
        ExecContext {
            pool,
            cache,
            snapshots,
            sim_cycles: AtomicU64::new(0),
            wall_nanos: AtomicU64::new(0),
            executed_jobs: AtomicU64::new(0),
            cached_jobs: AtomicU64::new(0),
            keep_going: AtomicBool::new(false),
            failed_cells: AtomicU64::new(0),
            forked_jobs: AtomicU64::new(0),
            skipped_cycles: AtomicU64::new(0),
        }
    }
}

/// Simulation-throughput totals accumulated over every campaign a context
/// has run, for the `anoc run` end-of-run summary.
#[derive(Debug, Clone, Copy)]
pub struct ExecTotals {
    /// Simulated cycles across all executed (non-cached) jobs.
    pub sim_cycles: u64,
    /// Wall-clock time spent inside campaigns.
    pub wall: Duration,
    /// Jobs that actually simulated (cache hits excluded).
    pub executed_jobs: u64,
    /// Jobs answered from the result cache without simulating.
    pub cached_jobs: u64,
    /// Executed jobs whose warmup was forked from a snapshot.
    pub forked_jobs: u64,
    /// Cycles in `sim_cycles` that were restored rather than simulated
    /// (forked warmups).
    pub skipped_cycles: u64,
}

impl ExecTotals {
    /// Cycles that were actually stepped: `sim_cycles` counts each result's
    /// full simulated time, so restored (forked) cycles come off.
    pub fn simulated_cycles(&self) -> u64 {
        self.sim_cycles.saturating_sub(self.skipped_cycles)
    }

    /// Aggregate simulator throughput in cycles per second, over the cycles
    /// that were actually stepped.
    pub fn cycles_per_second(&self) -> f64 {
        let simulated = self.simulated_cycles();
        if simulated == 0 || self.wall.is_zero() {
            0.0
        } else {
            simulated as f64 / self.wall.as_secs_f64()
        }
    }
}

static CONTEXT: OnceLock<ExecContext> = OnceLock::new();

/// Installs the process-wide context. Returns `false` if a context was
/// already installed (first caller wins); call before any experiment runs.
pub fn configure(
    threads: Option<usize>,
    cache: Option<ResultCache>,
    snapshots: Option<SnapshotStore>,
) -> bool {
    CONTEXT
        .set(ExecContext::with(
            threads
                .map(ThreadPool::new)
                .unwrap_or_else(ThreadPool::with_default_size),
            cache,
            snapshots,
        ))
        .is_ok()
}

/// The installed context, or a default one (default-sized pool, no cache, no
/// snapshot store — the CLI opts into caching explicitly, so library users
/// and tests always simulate for real unless they configure otherwise).
pub fn context() -> &'static ExecContext {
    CONTEXT.get_or_init(|| ExecContext::with(ThreadPool::with_default_size(), None, None))
}

/// The installed context if [`configure`] has run, without installing the
/// default one. Job builders use this so that merely *constructing* a plan
/// never racingly claims the first-caller-wins [`configure`] slot.
fn installed_context() -> Option<&'static ExecContext> {
    CONTEXT.get()
}

impl ExecContext {
    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The result cache, if caching is enabled.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }

    /// The snapshot store, if warm-starting is enabled.
    pub fn snapshots(&self) -> Option<&SnapshotStore> {
        self.snapshots.as_ref()
    }

    /// Folds one cell's [`StagedInfo`] into the context totals.
    pub fn note_staged(&self, info: &StagedInfo) {
        if info.forked {
            self.forked_jobs.fetch_add(1, Ordering::Relaxed);
        }
        self.skipped_cycles
            .fetch_add(info.skipped_cycles, Ordering::Relaxed);
    }

    /// Counts a shared warmup stage that actually simulated (no stored
    /// snapshot its cells could fork). Cell results only account for their own simulated time, so
    /// without this a cold sweep would report the same cycle total as a warm
    /// one and the summary could not show the warm-start saving.
    pub fn note_warmup_simulated(&self, cycles: u64) {
        self.sim_cycles.fetch_add(cycles, Ordering::Relaxed);
    }

    /// Enables (or disables) keep-going mode: campaigns run to completion
    /// past failed cells, substituting [`RunResult::failed_sentinel`]s and
    /// counting the failures instead of panicking.
    pub fn set_keep_going(&self, enabled: bool) {
        self.keep_going.store(enabled, Ordering::Relaxed);
    }

    /// Whether keep-going mode is on.
    pub fn keep_going(&self) -> bool {
        self.keep_going.load(Ordering::Relaxed)
    }

    /// Failed cells accumulated across every keep-going campaign (the CLI
    /// turns a nonzero count into a nonzero exit code).
    pub fn failed_cells(&self) -> u64 {
        self.failed_cells.load(Ordering::Relaxed)
    }

    /// Runs a campaign plan, returning results in plan order.
    ///
    /// Under [keep-going](Self::set_keep_going) mode, failed cells come back
    /// as [`RunResult::failed_sentinel`]s (reported on stderr and counted in
    /// [`failed_cells`](Self::failed_cells)); otherwise a failed cell
    /// panics after the whole plan has run, listing every failed cell.
    pub fn run(
        &self,
        label: &str,
        jobs: Vec<JobSpec<Result<RunResult, String>>>,
    ) -> Vec<RunResult> {
        let (results, failures, _) = self.run_checked(label, jobs);
        if !failures.is_empty() {
            if !self.keep_going() {
                let mut report = format!("{} campaign cell(s) failed:", failures.len());
                for f in &failures {
                    let _ = write!(report, "\n  {f}");
                }
                std::panic::panic_any(report);
            }
            eprintln!("[{label}] {} cell(s) failed:", failures.len());
            for f in &failures {
                eprintln!("[{label}]   {f}");
            }
        }
        results
            .into_iter()
            .map(|slot| slot.unwrap_or_else(RunResult::failed_sentinel))
            .collect()
    }

    /// Runs a fault-tolerant campaign: cells return `Result<RunResult,
    /// String>` and may panic; both failure modes are isolated per cell and
    /// returned typed, whatever the keep-going mode. Results come back in
    /// plan order with `None` at the failed cells, beside the campaign
    /// report. Failures are counted in
    /// [`failed_cells`](Self::failed_cells).
    pub fn run_checked(
        &self,
        label: &str,
        jobs: Vec<JobSpec<Result<RunResult, String>>>,
    ) -> (Vec<Option<RunResult>>, Vec<CellFailure>, CampaignReport) {
        let binding = self
            .cache
            .as_ref()
            .map(|c| (c, &RunResultCodec as &dyn ResultCodec<RunResult>));
        let outcome = run_campaign_checked(
            &self.pool,
            binding,
            jobs,
            &CampaignOptions::labeled(label),
            Some(|r: &RunResult| r.total_cycles),
        );
        self.record_report(&outcome.report);
        self.failed_cells
            .fetch_add(outcome.failures.len() as u64, Ordering::Relaxed);
        (outcome.results, outcome.failures, outcome.report)
    }

    fn record_report(&self, report: &CampaignReport) {
        self.sim_cycles
            .fetch_add(report.sim_cycles, Ordering::Relaxed);
        // Wall time counts toward throughput only when the campaign actually
        // simulated something: an all-cached campaign spends its wall on
        // cache lookups, and folding that into the denominator while its
        // cycles (zero) fold into the numerator made warm-rerun Mcyc/s
        // numbers meaningless.
        if report.executed > 0 {
            self.wall_nanos
                .fetch_add(report.wall.as_nanos() as u64, Ordering::Relaxed);
        }
        self.executed_jobs
            .fetch_add(report.executed as u64, Ordering::Relaxed);
        self.cached_jobs
            .fetch_add(report.cache_hits as u64, Ordering::Relaxed);
    }

    /// Totals accumulated over every campaign this context has run.
    pub fn totals(&self) -> ExecTotals {
        ExecTotals {
            sim_cycles: self.sim_cycles.load(Ordering::Relaxed),
            wall: Duration::from_nanos(self.wall_nanos.load(Ordering::Relaxed)),
            executed_jobs: self.executed_jobs.load(Ordering::Relaxed),
            cached_jobs: self.cached_jobs.load(Ordering::Relaxed),
            forked_jobs: self.forked_jobs.load(Ordering::Relaxed),
            skipped_cycles: self.skipped_cycles.load(Ordering::Relaxed),
        }
    }
}

/// Appends the space-separated `name=value` fields of `c` that a key
/// renders, floats by their exact bits: the one field list behind
/// [`config_key`], [`cell_key`] and [`warmup_key`]. With `warmup_only`, the
/// fields that shape only the measurement window (`thr`, `sim`, `drain`) are
/// left out (see [`warmup_key`]).
fn push_config_fields(out: &mut String, c: &SystemConfig, warmup_only: bool) {
    let n = &c.noc;
    let _ = write!(
        out,
        "noc={}x{}x{} vcs={} buf={} flit={} hide={} vao={} nib={}",
        n.width,
        n.height,
        n.concentration,
        n.vcs,
        n.vc_buffer,
        n.flit_bits,
        n.hide_compression,
        n.va_overlap,
        n.notify_in_band,
    );
    if !warmup_only {
        let _ = write!(out, " thr={}", c.threshold_percent);
    }
    let _ = write!(
        out,
        " ar={:016x} warm={}",
        c.approx_ratio.to_bits(),
        c.warmup_cycles
    );
    if !warmup_only {
        let _ = write!(out, " sim={} drain={}", c.sim_cycles, c.drain_cycles);
    }
    let _ = write!(
        out,
        " flt={{{}}} lp={{{}}} qos={{{}}} wd={}",
        c.faults.key_fragment(),
        c.loss.key_fragment(),
        c.qos.key_fragment(),
        c.watchdog_horizon,
    );
}

/// Room for a whole cell key, so rendering one does not reallocate.
const KEY_CAPACITY: usize = 384;

/// The canonical single-line rendering of a [`SystemConfig`]: every field
/// that influences a simulation, floats by their exact bits. The fault plan
/// is part of the key, so cached healthy results are never confused with
/// fault-injected ones (and vice versa).
pub fn config_key(c: &SystemConfig) -> String {
    let mut key = String::with_capacity(KEY_CAPACITY);
    push_config_fields(&mut key, c, false);
    key
}

/// The content key of one simulation cell.
///
/// `kind` names the cell computation (`bench`, `synth`); equal keys
/// must mean equal results, so anything that changes what the cell computes
/// belongs in here.
pub fn cell_key(
    kind: &str,
    config: &SystemConfig,
    mechanism: &str,
    workload: &str,
    seed: u64,
) -> String {
    let mut key = String::with_capacity(KEY_CAPACITY);
    let _ = write!(key, "anoc-cell v1 kind={kind} ");
    push_config_fields(&mut key, config, false);
    let _ = write!(key, " mech={mechanism} work={workload} seed={seed}");
    key
}

/// The content key of one cell's *warmup stage* — everything that influences
/// the simulator state at the end of the warmup window, and nothing more.
///
/// Deliberately excluded, so sweep variants share one warmup snapshot:
///
/// * `threshold_percent` — staged runs warm up at the exact threshold and
///   only retarget at the measurement boundary (DESIGN.md §11), so the
///   post-warmup state is threshold-independent by construction;
/// * `sim_cycles` / `drain_cycles` — they shape the measurement window and
///   drain, which happen entirely after the snapshot point.
pub fn warmup_key(
    kind: &str,
    config: &SystemConfig,
    mechanism: &str,
    workload: &str,
    seed: u64,
) -> String {
    let mut key = String::with_capacity(KEY_CAPACITY);
    let _ = write!(key, "anoc-warmup v1 kind={kind} ");
    push_config_fields(&mut key, config, true);
    let _ = write!(key, " mech={mechanism} work={workload} seed={seed}");
    key
}

/// A short stable tag for a synthetic destination pattern, for cell keys.
pub fn pattern_tag(p: DestPattern) -> &'static str {
    match p {
        DestPattern::UniformRandom => "UR",
        DestPattern::Transpose => "TR",
    }
}

/// Runs one benchmark cell through the snapshot-aware driver, folding its
/// [`StagedInfo`] into the context totals. With no snapshot store configured
/// this is exactly [`crate::runner::try_run_benchmark`].
fn run_benchmark_cell(
    benchmark: Benchmark,
    mechanism: Mechanism,
    config: &SystemConfig,
    seed: u64,
) -> Result<RunResult, SimError> {
    let ctx = installed_context();
    let outcome = run(RunSpec {
        traffic: Traffic::Benchmark {
            benchmark,
            seed,
            snapshots: ctx.and_then(ExecContext::snapshots),
        },
        mechanism,
        config,
    })?;
    if let Some(c) = ctx {
        c.note_staged(&outcome.staged);
    }
    Ok(outcome.result)
}

/// Attaches the shared warmup stage to a benchmark job when warm-starting is
/// on: the planner runs each distinct warmup key once (before any cell
/// simulates) so every cache-missing cell of the sweep forks from it. A
/// failed warmup costs replayed warmups, never the campaign.
fn with_benchmark_warmup<T>(
    job: JobSpec<T>,
    benchmark: Benchmark,
    mechanism: Mechanism,
    config: &SystemConfig,
    seed: u64,
) -> JobSpec<T> {
    if installed_context()
        .and_then(ExecContext::snapshots)
        .is_none()
    {
        return job;
    }
    let wkey = warmup_key("bench", config, mechanism.name(), benchmark.name(), seed);
    let config = config.clone();
    let key = wkey.clone();
    job.with_warmup(wkey, move || {
        let Some(ctx) = installed_context() else {
            return;
        };
        if let Some(store) = ctx.snapshots() {
            match publish_benchmark_warmup(benchmark, mechanism, &config, seed, store) {
                Ok(true) => ctx.note_warmup_simulated(config.warmup_cycles),
                Ok(false) => {}
                Err(e) => {
                    eprintln!("warmup '{key}' failed ({e}); its cells replay the warmup");
                }
            }
        }
    })
}

/// Builds the job for one standard benchmark-traffic cell — the unit behind
/// the matrix figures, the sensitivity sweeps, the fault and loss sweeps and
/// the Figure 16 anchors. All of them share the `bench` kind, so identical
/// cells are computed (and cached) once regardless of which figure asks
/// first. The cell returns `Err` when the watchdog or bound checker aborts
/// the simulation; [`ExecContext::run`] and [`ExecContext::run_checked`]
/// decide what a failure means for the campaign.
pub fn benchmark_job(
    benchmark: Benchmark,
    mechanism: Mechanism,
    config: &SystemConfig,
    seed: u64,
) -> JobSpec<Result<RunResult, String>> {
    let id = format!("{}/{}/s{seed}", benchmark.name(), mechanism.name());
    let key = cell_key("bench", config, mechanism.name(), benchmark.name(), seed);
    let cfg = config.clone();
    let job = JobSpec::new(id, key, move || {
        run_benchmark_cell(benchmark, mechanism, &cfg, seed).map_err(|e| e.to_string())
    });
    with_benchmark_warmup(job, benchmark, mechanism, config, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_key_distinguishes_every_knob() {
        let base = SystemConfig::paper();
        let variants = [
            base.clone().with_sim_cycles(1_000),
            base.clone().with_threshold(5),
            base.clone().with_approx_ratio(0.5),
            base.clone()
                .with_faults(anoc_noc::FaultPlan::bit_flips(1, 100)),
            base.clone().with_loss(anoc_noc::LossPlan::uniform(1, 100)),
            base.clone()
                .with_qos(anoc_core::control::QosSpec::paper(990_000)),
            base.clone().with_watchdog(0),
            SystemConfig::full_system(),
        ];
        let k0 = config_key(&base);
        for v in &variants {
            assert_ne!(config_key(v), k0, "{v:?}");
        }
        assert_eq!(config_key(&base), config_key(&SystemConfig::paper()));
    }

    #[test]
    fn cell_key_separates_kind_mechanism_workload_seed() {
        let c = SystemConfig::paper();
        let k = |kind: &str, m: &str, w: &str, s: u64| cell_key(kind, &c, m, w, s);
        let base = k("bench", "FP-VAXX", "ssca2", 42);
        assert_eq!(base, k("bench", "FP-VAXX", "ssca2", 42));
        assert_ne!(base, k("synth", "FP-VAXX", "ssca2", 42));
        assert_ne!(base, k("bench", "FP-COMP", "ssca2", 42));
        assert_ne!(base, k("bench", "FP-VAXX", "x264", 42));
        assert_ne!(base, k("bench", "FP-VAXX", "ssca2", 43));
    }

    #[test]
    fn warmup_key_excludes_measurement_window_knobs() {
        let base = SystemConfig::paper();
        let k = |c: &SystemConfig| warmup_key("bench", c, "FP-VAXX", "ssca2", 42);
        let k0 = k(&base);
        // Measurement-window knobs do not split the warmup.
        assert_eq!(k0, k(&base.clone().with_threshold(5)));
        let mut window = base.clone();
        window.sim_cycles = 123;
        window.drain_cycles = 456;
        assert_eq!(k0, k(&window));
        // Everything shaping the post-warmup state does.
        let mut warm = base.clone();
        warm.warmup_cycles += 1;
        assert_ne!(k0, k(&warm));
        assert_ne!(k0, k(&base.clone().with_approx_ratio(0.5)));
        assert_ne!(
            k0,
            k(&base
                .clone()
                .with_faults(anoc_noc::FaultPlan::bit_flips(1, 100)))
        );
        assert_ne!(k0, k(&base.clone().with_watchdog(0)));
        // Loss and QoS shape warmup traffic and controller training.
        assert_ne!(
            k0,
            k(&base.clone().with_loss(anoc_noc::LossPlan::uniform(1, 100)))
        );
        assert_ne!(
            k0,
            k(&base
                .clone()
                .with_qos(anoc_core::control::QosSpec::paper(990_000)))
        );
        assert_ne!(k0, warmup_key("bench", &base, "FP-COMP", "ssca2", 42));
        assert_ne!(k0, warmup_key("bench", &base, "FP-VAXX", "x264", 42));
        assert_ne!(k0, warmup_key("bench", &base, "FP-VAXX", "ssca2", 43));
        assert_ne!(k0, warmup_key("synth", &base, "FP-VAXX", "ssca2", 42));
    }

    /// The keys' exact text: the result cache, the snapshot store and the
    /// benchmark's staged workload all find their entries by it.
    #[test]
    fn cell_and_warmup_keys_are_pinned() {
        let c = SystemConfig::paper()
            .with_faults(anoc_noc::FaultPlan::bit_flips(3, 250))
            .with_loss(anoc_noc::LossPlan::scaled(5, 4_000, 40))
            .with_qos(anoc_core::control::QosSpec::paper(990_000));
        let noc = "noc=4x4x2 vcs=4 buf=4 flit=64 hide=true vao=true nib=false";
        let plans = "flt={fseed=3 flip=250 stall=0x0 cdrop=0 cdup=0 dict=0} \
                     lp={lseed=5 loss=4000 lscale=40} \
                     qos={qt=990000 qe=500 qi=10 qlo=1 qhi=20 qc=4 qw=64} wd=20000";
        let tail = "mech=DI-VAXX work=ssca2 seed=42";
        assert_eq!(
            config_key(&c),
            format!("{noc} thr=10 ar=3fe8000000000000 warm=5000 sim=50000 drain=50000 {plans}")
        );
        assert_eq!(
            cell_key("bench", &c, "DI-VAXX", "ssca2", 42),
            format!("anoc-cell v1 kind=bench {} {tail}", config_key(&c))
        );
        assert_eq!(
            warmup_key("bench", &c, "DI-VAXX", "ssca2", 42),
            format!("anoc-warmup v1 kind=bench {noc} ar=3fe8000000000000 warm=5000 {plans} {tail}")
        );
    }

    #[test]
    fn pattern_tags_are_distinct() {
        let tags = [DestPattern::UniformRandom, DestPattern::Transpose].map(pattern_tag);
        assert_eq!(tags, ["UR", "TR"]);
    }

    #[test]
    fn default_context_has_no_cache_and_runs_jobs() {
        let ctx = context();
        assert!(ctx.threads() >= 1);
        let cfg = SystemConfig::paper().with_sim_cycles(1_000);
        let jobs = vec![
            benchmark_job(Benchmark::X264, Mechanism::Baseline, &cfg, 1),
            benchmark_job(Benchmark::X264, Mechanism::FpComp, &cfg, 1),
        ];
        let (results, failures, report) = ctx.run_checked("test", jobs);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(results.len(), 2);
        assert_eq!(report.executed + report.cache_hits, 2);
        assert_eq!(
            results[0].as_ref().map(|r| r.mechanism),
            Some(Mechanism::Baseline)
        );
        assert_eq!(
            results[1].as_ref().map(|r| r.mechanism),
            Some(Mechanism::FpComp)
        );
    }
}
