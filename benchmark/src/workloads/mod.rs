//! The four workloads and the repeat loop that measures them.
//!
//! Every run follows the same shape: set up the workload's inputs, run one
//! discarded warm-up repeat (a cold first repeat reads tens of percent
//! slow), then timed repeats until both the repeat count and the time budget
//! are met, each preceded by throwaway set-up passes (`setup_s` is the
//! median over all passes). Samples of the host's speed
//! ([`crate::host::slowdown`]) bracket each timed repeat and each group of
//! set-up passes, and the end-to-end times are divided by them. A traced run
//! interleaves untraced and traced repeats, so the tracing overhead is
//! measured against untraced repeats of the same process.
//!
//! Timings cover only the system's work. Correctness checks — payload
//! comparisons, AVCL bound checks, fingerprints — run outside the timed
//! regions and turn into `failed` operations, never into panics.

use std::path::PathBuf;
use std::time::Instant;

use anoc_core::data::NodeId;
use anoc_exec::{ResultCache, SnapshotStore};
use anoc_harness::campaign::{configure, context};
use anoc_harness::{Mechanism, RunResult};
use anoc_noc::NocSim;
use anoc_traffic::TrafficSource;

use crate::summary::Summary;
use crate::trace::{mech_slug, ratio, Call, Layer, SpanKind, Tracer, MECHS};

mod cmesh;
mod codec;
mod matrix;
mod staged;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 9–11/15 benchmark × mechanism matrix on the paper's 4x4
    /// cmesh, through `BenchmarkMatrix::run_with`.
    Matrix4x4,
    /// Serial 8x8 cmesh (128 nodes) under uniform-random synthetic traffic
    /// below saturation, Baseline codecs.
    Cmesh8Ur,
    /// The threshold-sensitivity sweep with a long warmup, a result cache
    /// and a snapshot store: forked cold pass, then all-cache-hit passes.
    StagedSweep,
    /// Every mechanism's codec pair over benchmark data corpora, no network.
    CodecStream,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Matrix4x4,
        Workload::Cmesh8Ur,
        Workload::StagedSweep,
        Workload::CodecStream,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Matrix4x4 => "matrix4x4",
            Workload::Cmesh8Ur => "cmesh8-ur",
            Workload::StagedSweep => "staged-sweep",
            Workload::CodecStream => "codec-stream",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one workload operation is (the denominator of `ns_per_op`).
    pub fn op(self) -> &'static str {
        match self {
            Workload::Matrix4x4 | Workload::Cmesh8Ur | Workload::StagedSweep => {
                "flit offered in a stepped cycle"
            }
            Workload::CodecStream => "block round trip",
        }
    }
}

/// Workload sizes. [`Scale::full`] is what the command line runs;
/// [`Scale::smoke`] keeps debug-build tests short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Benchmarks of the sweep and codec workloads (a prefix of
    /// `Benchmark::ALL`); the matrix runs all of them, as
    /// `BenchmarkMatrix::run_with` does.
    pub benchmarks: usize,
    /// Measured cycles per matrix cell (warmup is 10%).
    pub matrix_cycles: u64,
    /// Warmup and measured cycles of the 8x8 run.
    pub cmesh_cycles: (u64, u64),
    /// Cycles of each traced shard-2 sample on the 8x8 run.
    pub shard_sample_cycles: u64,
    /// Warmup and measured cycles of each sweep cell.
    pub sweep_cycles: (u64, u64),
    /// All-cache-hit passes per sweep repeat.
    pub warm_passes: usize,
    /// Blocks per benchmark corpus.
    pub corpus_blocks: usize,
}

impl Scale {
    /// The benchmark's real sizes.
    pub fn full() -> Self {
        Scale {
            benchmarks: 8,
            matrix_cycles: 20_000,
            cmesh_cycles: (10_000, 100_000),
            shard_sample_cycles: 5_000,
            sweep_cycles: (20_000, 4_000),
            warm_passes: 50,
            corpus_blocks: 20_000,
        }
    }

    /// Tiny sizes that keep every code path but finish quickly unoptimized.
    pub fn smoke() -> Self {
        Scale {
            benchmarks: 2,
            matrix_cycles: 600,
            cmesh_cycles: (200, 800),
            shard_sample_cycles: 100,
            sweep_cycles: (500, 300),
            warm_passes: 2,
            corpus_blocks: 400,
        }
    }
}

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Minimum timed repeats (traced repeats in a traced run).
    pub repeats: usize,
    /// Minimum seconds of timed repeats.
    pub seconds: f64,
    /// Run traced repeats and report per-layer metrics.
    pub trace: bool,
    /// Workload sizes.
    pub scale: Scale,
    /// Directory for on-disk state (result cache, snapshot store).
    pub work_dir: PathBuf,
}

/// Which group a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// A declared end-to-end metric.
    EndToEnd,
    /// A declared per-layer metric.
    Layer,
    /// Reported and recorded, but not declared in `BENCHMARK.json`.
    Detail,
}

/// All samples of one metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Group.
    pub group: Group,
    /// One sample per repeat (or per set-up pass).
    pub samples: Vec<f64>,
}

impl Metric {
    /// The samples' summary.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }
}

/// The end-to-end metrics every workload reports.
pub const END_TO_END: [(&str, &str); 3] =
    [("ns_per_op", "ns"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// Per-layer ratios every workload reports; a workload that does not
/// exercise the layer reports 0.
const LAYER_RATIOS: [(&str, &str); 5] = [
    ("compression.ratio", "ratio"),
    ("exec.cache.hit_ratio", "frac"),
    ("exec.store.fork_ratio", "frac"),
    ("exec.pool.idle_frac", "frac"),
    ("harness.restored_cycle_frac", "frac"),
];

/// The per-layer metrics every workload reports in a traced run.
pub fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    Layer::ALL
        .iter()
        .map(|l| (l.share_metric(), "frac"))
        .chain([
            ("harness.unattributed_frac", "frac"),
            ("trace.overhead_frac", "frac"),
        ])
        .chain(LAYER_RATIOS)
        .collect()
}

/// Everything one run measured and checked.
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Whether traced repeats ran.
    pub traced: bool,
    /// Operations attempted (cells or blocks), warm-up included.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failure kind, for the report.
    pub failures: Vec<String>,
    /// FNV-1a over the model's outputs; identical across repeats of a
    /// correct run, and moved only by a modelling change.
    pub fingerprint: u64,
    /// Every metric, in report order.
    pub metrics: Vec<Metric>,
    /// The last traced repeat's spans and call counters.
    pub trace: Option<Tracer>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// Correctness tally of a piece of work.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts `ops` attempted operations, `bad` of which failed `what`.
    pub fn record(&mut self, ops: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if bad > 0 {
            self.failed += bad;
            self.failures.push(what());
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// One named measurement: `(metric name, unit, value)`.
pub(crate) type Value = (String, &'static str, f64);

/// One untraced repeat.
pub(crate) struct Repeat {
    /// Seconds of the timed work.
    pub wall_s: f64,
    /// Host ns per workload operation.
    pub ns_per_op: f64,
    /// Further per-repeat metrics (`name`, unit, value).
    pub detail: Vec<Value>,
    /// Model fingerprint of the repeat's outputs.
    pub fingerprint: u64,
    /// Correctness tally.
    pub checks: Checks,
}

/// One traced repeat.
pub(crate) struct Traced {
    /// Seconds of the traced work, comparable with [`Repeat::wall_s`].
    pub wall_s: f64,
    /// Spans and call counters.
    pub tracer: Tracer,
    /// Per-layer values (`name`, unit, value): declared ratios and details.
    pub values: Vec<Value>,
    /// Correctness tally.
    pub checks: Checks,
}

/// The interface each workload implements.
pub(crate) trait Bench: Sized {
    /// Builds the inputs of a run. The first result is kept; further passes,
    /// before each timed repeat, are timed and dropped, so a pass must leave
    /// no state behind that a later one depends on.
    fn setup(opts: &Options) -> Result<Self, String>;
    /// Runs and checks one untraced repeat. `first` marks the discarded
    /// warm-up, where one-off cross-checks run.
    fn repeat(&mut self, opts: &Options, first: bool) -> Result<Repeat, String>;
    /// Runs and checks one traced repeat.
    fn traced(&mut self, opts: &Options) -> Result<Traced, String>;
}

/// Runs one workload. `Err` means the run could not be carried out (bad
/// directory, unusable process state); failed checks are in the outcome.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let outcome = match opts.workload {
        Workload::Matrix4x4 => run_bench::<matrix::Matrix>(opts),
        Workload::Cmesh8Ur => run_bench::<cmesh::Cmesh>(opts),
        Workload::StagedSweep => run_bench::<staged::Staged>(opts),
        Workload::CodecStream => run_bench::<codec::CodecStream>(opts),
    };
    let dir = scratch_dir(opts);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    outcome
}

/// This process's on-disk state for the run, removed when the run ends.
pub(crate) fn scratch_dir(opts: &Options) -> PathBuf {
    opts.work_dir
        .join(format!("{}-{}", opts.workload.name(), std::process::id()))
}

/// Set-up passes timed before each timed repeat. The first after a repeat
/// runs with cold caches; three keep the mix of cold and warm passes the
/// same in every run, and give a five-repeat run sixteen samples.
const SETUP_PASSES: usize = 3;

/// Seconds one [`Bench::setup`] pass takes; the inputs it builds are
/// dropped untimed.
fn time_setup<B: Bench>(opts: &Options) -> Result<(f64, B), String> {
    let t = Instant::now();
    let bench = B::setup(opts)?;
    Ok((t.elapsed().as_secs_f64(), bench))
}

fn run_bench<B: Bench>(opts: &Options) -> Result<Outcome, String> {
    let (first_setup_s, mut bench) = time_setup::<B>(opts)?;
    let mut setup_s = vec![first_setup_s];

    let mut checks = Checks::default();
    let warm = bench.repeat(opts, true)?;
    let fingerprint = warm.fingerprint;
    checks.absorb(warm.checks);
    // Read before the throwaway set-up passes, which hold a second copy of
    // the inputs; a timed repeat does the warm-up's work again.
    let peak_rss_mb = crate::host::peak_rss_mb()?;
    // Host-speed probes bracket every timed piece of work, from here on so
    // that the probe's own memory stays out of the peak. The kept set-up ran
    // before the first probe and is paired with it alone.
    let mut slowdown = vec![crate::host::slowdown()];
    let mut setup_slowdown = vec![slowdown[0]];
    let mut repeat_slowdown = Vec::new();

    let mut repeats: Vec<Repeat> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let start = Instant::now();
    loop {
        let done = if opts.trace {
            traced.len()
        } else {
            repeats.len()
        };
        if done >= opts.repeats && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        // Throwaway set-up passes before every timed repeat spread the
        // `setup_s` samples over the whole run: a set-up takes milliseconds,
        // and passes that all run back to back land in one moment of the
        // host's contention, which swings their median by tens of percent.
        for _ in 0..SETUP_PASSES {
            setup_s.push(time_setup::<B>(opts)?.0);
        }
        let before = crate::host::slowdown();
        let mut r = bench.repeat(opts, false)?;
        let after = crate::host::slowdown();
        let last = slowdown[slowdown.len() - 1];
        setup_slowdown.extend([(last * before).sqrt(); SETUP_PASSES]);
        repeat_slowdown.push((before * after).sqrt());
        slowdown.extend([before, after]);
        let (got, ops) = (r.fingerprint, r.checks.attempted);
        if got != fingerprint {
            r.checks.record(0, ops, || {
                format!("repeat fingerprint {got:016x} differs from the first repeat's {fingerprint:016x}")
            });
        }
        checks.absorb(std::mem::take(&mut r.checks));
        repeats.push(r);
        if opts.trace {
            let mut t = bench.traced(opts)?;
            checks.absorb(std::mem::take(&mut t.checks));
            traced.push(t);
        }
    }

    // Each end-to-end time is divided by the geometric mean of the probes
    // on either side of it, so it reads as a time on the reference host;
    // the wall times stay in the details.
    let per_op: Vec<f64> = repeats.iter().map(|r| r.ns_per_op).collect();
    let at_reference = |wall: &[f64], slow: &[f64]| -> Vec<f64> {
        wall.iter().zip(slow).map(|(w, s)| w / s).collect()
    };
    let end_to_end = [
        at_reference(&per_op, &repeat_slowdown),
        vec![peak_rss_mb],
        at_reference(&setup_s, &setup_slowdown),
    ];
    let mut metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(end_to_end)
        .map(|((name, unit), samples)| metric(name, unit, Group::EndToEnd, samples))
        .collect();
    metrics.extend([
        metric("wall_ns_per_op", "ns", Group::Detail, per_op),
        metric("wall_setup_s", "s", Group::Detail, setup_s),
        metric("host.slowdown", "ratio", Group::Detail, slowdown),
        // Not bounded: how much traffic a seed generates moves it (see README).
        metric(
            "wall_s",
            "s",
            Group::Detail,
            repeats.iter().map(|r| r.wall_s),
        ),
    ]);
    metrics.extend(by_name(repeats.iter().map(|r| r.detail.as_slice()), |_| {
        Group::Detail
    }));
    metrics.push(metric(
        "failed_frac",
        "frac",
        Group::Detail,
        [ratio(checks.failed as f64, checks.attempted as f64)],
    ));

    let mut last_trace = None;
    if opts.trace {
        let untraced_wall =
            Summary::of(&repeats.iter().map(|r| r.wall_s).collect::<Vec<_>>()).median;
        let rows: Vec<Vec<Value>> = traced
            .iter()
            .map(|t| layer_values(t, untraced_wall))
            .collect();
        let declared: Vec<&str> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        metrics.extend(by_name(rows.iter().map(Vec::as_slice), |name| {
            if declared.contains(&name) {
                Group::Layer
            } else {
                Group::Detail
            }
        }));
        last_trace = traced.pop().map(|t| t.tracer);
    }

    Ok(Outcome {
        workload: opts.workload,
        seed: opts.seed,
        traced: opts.trace,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        fingerprint,
        metrics,
        trace: last_trace,
    })
}

/// The per-layer values of one traced repeat: the declared layer split and
/// ratios first (zero where the workload does not exercise a layer), then
/// the workload's details.
fn layer_values(t: &Traced, untraced_wall_s: f64) -> Vec<Value> {
    let split = t.tracer.split();
    let mut out: Vec<Value> = Layer::ALL
        .iter()
        .map(|l| (l.share_metric().to_string(), "frac", split.share(*l)))
        .collect();
    out.push((
        "harness.unattributed_frac".into(),
        "frac",
        split.unattributed_frac(),
    ));
    out.push((
        "trace.overhead_frac".into(),
        "frac",
        t.wall_s / untraced_wall_s - 1.0,
    ));
    for (name, unit) in LAYER_RATIOS {
        let given = t.values.iter().find(|(n, _, _)| n == name).map(|v| v.2);
        out.push((name.to_string(), unit, given.unwrap_or(0.0)));
    }
    out.extend(
        t.values
            .iter()
            .filter(|(n, _, _)| !LAYER_RATIOS.iter().any(|(r, _)| r == n))
            .cloned(),
    );
    out
}

fn metric(
    name: &str,
    unit: &'static str,
    group: Group,
    samples: impl IntoIterator<Item = f64>,
) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        group,
        samples: samples.into_iter().collect(),
    }
}

/// Collects per-repeat `(name, unit, value)` rows into one metric per name,
/// in first-seen order.
fn by_name<'a>(
    rows: impl Iterator<Item = &'a [Value]>,
    group: impl Fn(&str) -> Group,
) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    for row in rows {
        for (name, unit, value) in row {
            match out.iter_mut().find(|m| &m.name == name) {
                Some(m) => m.samples.push(*value),
                None => out.push(metric(name, unit, group(name), [*value])),
            }
        }
    }
    out
}

/// FNV-1a (64-bit), fed incrementally; the same function as
/// `anoc_exec::hash::fnv1a64` over the concatenated input.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Whether a harness cell result can be trusted: not the keep-going failure
/// placeholder, and fully drained.
pub(crate) fn cell_ok(r: &RunResult) -> bool {
    !r.is_failed_sentinel() && r.drained
}

/// Set-up check of one planned cell: its armed simulator and traffic source
/// agree on the node count and the simulator runs the planned codec.
pub(crate) fn check_cell_build(
    sim: &NocSim,
    source: &dyn TrafficSource,
    mechanism: Mechanism,
) -> Result<(), String> {
    let encoder = sim.codec(NodeId(0)).encoder.name();
    if sim.num_nodes() != source.num_nodes() || encoder != mechanism.name() {
        return Err(format!(
            "cell {mechanism} builds a {}-node {encoder} simulator for a {}-node source",
            sim.num_nodes(),
            source.num_nodes()
        ));
    }
    Ok(())
}

/// Per-layer details of traced simulator cells, named after the layer whose
/// public call they time. `warmup_cycles` separates drain cycles from the
/// cells' simulated time.
pub(crate) fn sim_details(t: &Tracer, results: &[RunResult], warmup_cycles: u64) -> Vec<Value> {
    let per_call = |c: Call| {
        let (count, ns) = t.call(c);
        ratio(ns as f64, count as f64)
    };
    let sum = |f: fn(&RunResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
    let flits = sum(|r| r.stats.flits_injected);
    let node_cycles = sum(|r| r.stats.cycles * r.nodes as u64);
    let drain_cycles = sum(|r| r.total_cycles.saturating_sub(r.stats.cycles)) as u64;
    let drain_cycles = drain_cycles.saturating_sub(warmup_cycles * results.len() as u64);
    let (_, step_ns) = t.call(Call::Step);
    let injections: u64 = t
        .calls()
        .filter(|(c, _, _)| matches!(c, Call::EnqueueData(_) | Call::EnqueueControl))
        .map(|(_, count, _)| count)
        .sum();
    let mut cells = t.durations(SpanKind::Cell);
    if cells.is_empty() {
        cells.push(0.0);
    }
    let cell_s = |p: f64| crate::summary::percentile(&cells, p) / 1e9;
    let mut out: Vec<Value> = vec![
        (
            "traffic.tick_ns_per_cycle".into(),
            "ns",
            per_call(Call::Tick),
        ),
        ("traffic.injections".into(), "count", injections as f64),
    ];
    for (i, m) in MECHS.iter().enumerate() {
        if t.call(Call::EnqueueData(i)).0 > 0 {
            out.push((
                format!("noc.enqueue_data_ns.{}", mech_slug(*m)),
                "ns",
                per_call(Call::EnqueueData(i)),
            ));
        }
    }
    out.extend([
        (
            "noc.enqueue_control_ns".to_string(),
            "ns",
            per_call(Call::EnqueueControl),
        ),
        ("noc.step_ns_per_cycle".into(), "ns", per_call(Call::Step)),
        (
            "noc.step_ns_per_flit".into(),
            "ns",
            ratio(step_ns as f64, flits),
        ),
        (
            "noc.drain_ns_per_cycle".into(),
            "ns",
            ratio(t.total_ns(SpanKind::Drain) as f64, drain_cycles as f64),
        ),
        ("noc.flits_injected".into(), "count", flits),
        (
            "noc.flits_delivered".into(),
            "count",
            sum(|r| r.stats.flits_delivered),
        ),
        (
            "noc.accepted_flits_per_node_cycle".into(),
            "flits/node/cycle",
            ratio(sum(|r| r.stats.flits_delivered), node_cycles),
        ),
        (
            "compression.ratio".into(),
            "ratio",
            ratio(
                sum(|r| r.stats.encode.bits_in),
                sum(|r| r.stats.encode.bits_out),
            ),
        ),
        ("harness.cell_s.p50".into(), "s", cell_s(50.0)),
        ("harness.cell_s.p95".into(), "s", cell_s(95.0)),
        ("harness.cell_s.max".into(), "s", cell_s(100.0)),
    ]);
    out
}

/// Shared thread count: at most two load-generating threads.
pub(crate) fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Installs the harness's process-wide execution context with [`threads`]
/// workers and keep-going on, so a failed cell comes back as a countable
/// placeholder instead of aborting the campaign. The harness lets the
/// first caller win; a later call only checks that the installed context
/// has the shape this workload needs.
pub(crate) fn install_context(
    cache: Option<ResultCache>,
    store: Option<SnapshotStore>,
) -> Result<(), String> {
    let dirs = (
        cache.as_ref().map(|c| c.dir().to_path_buf()),
        store.as_ref().map(|s| s.dir().to_path_buf()),
    );
    configure(Some(threads()), cache, store);
    let ctx = context();
    let installed = (
        ctx.cache().map(|c| c.dir().to_path_buf()),
        ctx.snapshots().map(|s| s.dir().to_path_buf()),
    );
    if ctx.threads() != threads() || installed != dirs {
        return Err("this process already installed another workload's execution context".into());
    }
    ctx.set_keep_going(true);
    Ok(())
}
