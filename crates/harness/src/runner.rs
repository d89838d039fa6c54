//! The generic experiment driver: traffic source → NoC → statistics.
//!
//! Every simulation goes through [`run`], which a [`RunSpec`] describes.
//! Every run is **staged** (DESIGN.md §11): codecs are built at the exact
//! threshold, the warmup window runs threshold-free, and only at the
//! measurement boundary are the encoders retargeted to the configured
//! threshold, the bound checker armed and measurement begun. The
//! warmup trajectory is therefore identical for every threshold variant of a
//! sweep, which is what lets the [`SnapshotPolicy`] fork those variants from
//! one shared post-warmup snapshot instead of replaying the warmup per cell.

use std::ops::RangeInclusive;

use anoc_core::snap::{SnapReader, SnapWriter};
use anoc_core::threshold::ErrorThreshold;
use anoc_exec::hash::fnv1a64;
use anoc_exec::SnapshotStore;
use anoc_noc::{ActivityReport, NetStats, NocSim, SimError};
use anoc_traffic::{Benchmark, BenchmarkTraffic, Injection, TrafficSource};

use crate::campaign::{cell_key, warmup_key};
use crate::config::{Mechanism, SystemConfig};

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The mechanism simulated.
    pub mechanism: Mechanism,
    /// Network statistics over the measurement window.
    pub stats: NetStats,
    /// Hardware activity for the power model.
    pub activity: ActivityReport,
    /// Number of nodes simulated.
    pub nodes: usize,
    /// Total simulated cycles (warmup + measurement + drain). Divided by
    /// the host wall time this gives the simulator's cycles-per-second
    /// throughput, which the campaign layer reports per job.
    pub total_cycles: u64,
    /// Whether the post-measurement drain finished within
    /// `drain_cycles` — `false` means packets were still in flight when the
    /// budget ran out and the delivery statistics are a lower bound, not
    /// final (`stats.unfinished` counts the stragglers).
    pub drained: bool,
}

impl RunResult {
    /// Average end-to-end packet latency in cycles.
    pub fn avg_packet_latency(&self) -> f64 {
        self.stats.avg_packet_latency()
    }

    /// Delivered throughput in flits/node/cycle.
    pub fn throughput(&self) -> f64 {
        self.stats.throughput(self.nodes)
    }

    /// Data value quality (1 − mean relative word error).
    pub fn data_quality(&self) -> f64 {
        self.stats.quality.quality()
    }

    /// Tail latency: the given percentile of end-to-end packet latency.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        self.stats.latency_histogram.percentile(p)
    }

    /// The placeholder substituted for a failed cell when a keep-going
    /// campaign completes despite per-cell errors: mechanism `"FAILED"`,
    /// every statistic zero. Never cached.
    pub fn failed_sentinel() -> Self {
        RunResult {
            mechanism: Mechanism::Failed,
            stats: NetStats::default(),
            activity: ActivityReport::default(),
            nodes: 0,
            total_cycles: 0,
            drained: false,
        }
    }

    /// Whether this result is the keep-going failure placeholder.
    pub fn is_failed_sentinel(&self) -> bool {
        self.mechanism == Mechanism::Failed && self.total_cycles == 0
    }
}

/// How one run interacts with the on-disk [`SnapshotStore`].
///
/// [`cold`](SnapshotPolicy::cold) is a plain replayed-warmup run. With a
/// store, the run forks from the shared post-warmup snapshot (publishing it
/// first when absent), `checkpoint_every` periodically checkpoints the
/// measurement window, and `resume` restarts a killed cell from its last
/// checkpoint. The store keys are the cell's own, derived from its
/// benchmark, mechanism, configuration and seed: the warmup snapshot sits
/// under [`warmup_key`] and the checkpoints under the [`checkpoint_key`] of
/// its [`cell_key`], both of the `bench` kind. Every snapshot miss, stale
/// blob or restore failure silently degrades to the cold path — the store
/// can make a campaign slower, never wrong.
#[derive(Debug, Clone, Default)]
pub struct SnapshotPolicy<'a> {
    /// The snapshot store, or `None` for a purely cold run.
    pub store: Option<&'a SnapshotStore>,
    /// Checkpoint every N measured cycles (0 disables checkpointing).
    pub checkpoint_every: u64,
    /// Restart from the cell's last checkpoint if one exists.
    pub resume: bool,
}

impl SnapshotPolicy<'_> {
    /// A policy that never touches a snapshot store.
    pub fn cold() -> Self {
        SnapshotPolicy::default()
    }
}

/// Execution metadata of one staged run — how the result was obtained, never
/// part of the (cacheable) result itself, so warm and cold cells stay
/// bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StagedInfo {
    /// The warmup was restored from a snapshot instead of simulated.
    pub forked: bool,
    /// The measurement window resumed from a mid-run checkpoint.
    pub resumed: bool,
    /// Simulated cycles avoided by forking/resuming (still counted in the
    /// result's `total_cycles`, which reflects simulated *time*, not work).
    pub skipped_cycles: u64,
}

/// Where a run's traffic comes from.
pub enum Traffic<'a> {
    /// `benchmark`-shaped traffic from `seed`. The runner builds the source
    /// itself, so it can rebuild it after a failed snapshot restore — which
    /// is why only this traffic carries a [`SnapshotPolicy`].
    Benchmark {
        /// The benchmark whose traffic and data values are modelled.
        benchmark: Benchmark,
        /// The traffic/data RNG seed.
        seed: u64,
        /// How the run uses the snapshot store.
        snapshots: SnapshotPolicy<'a>,
    },
    /// A caller-owned source, ticked from cycle 0. Runs cold.
    Source(&'a mut dyn TrafficSource),
}

/// One simulation run: its traffic, its mechanism and the system it runs on.
pub struct RunSpec<'a> {
    /// Where the traffic comes from.
    pub traffic: Traffic<'a>,
    /// The mechanism whose codec pairs the network interfaces run.
    pub mechanism: Mechanism,
    /// The system configuration, including the warmup/measurement/drain
    /// windows.
    pub config: &'a SystemConfig,
}

/// What [`run`] returns: the cacheable result and how it was obtained.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The run's result, bit-identical however it was obtained.
    pub result: RunResult,
    /// Whether the run forked or resumed, and the cycles that saved.
    pub staged: StagedInfo,
}

/// Runs `spec` for the configured warmup + measurement window, then drains.
///
/// Benchmark traffic walks its policy's snapshot ladder: resume the cell
/// from its last checkpoint if asked, else fork from the shared post-warmup
/// snapshot, else run cold and publish that snapshot for the next cell. A
/// caller-owned source runs cold. Warm and cold results are bit-identical.
///
/// # Errors
///
/// A watchdog deadlock abort, a fatal bound-checker violation, or a traffic
/// source whose node count is not the configuration's.
pub fn run(spec: RunSpec<'_>) -> Result<RunOutcome, SimError> {
    let RunSpec {
        traffic,
        mechanism,
        config,
    } = spec;
    match traffic {
        Traffic::Benchmark {
            benchmark,
            seed,
            snapshots,
        } => StagedCell::new(benchmark, mechanism, config, seed, &snapshots).run(),
        Traffic::Source(source) => cold_run(source, mechanism, config, None),
    }
}

/// Runs `mechanism` under the traffic produced by `source`, cold. A
/// watchdog deadlock abort, a fatal bound-checker violation or a source
/// with another node count than the NoC's comes back as `Err`.
pub fn try_run_with_source(
    source: &mut dyn TrafficSource,
    mechanism: Mechanism,
    config: &SystemConfig,
) -> Result<RunResult, SimError> {
    let spec = RunSpec {
        traffic: Traffic::Source(source),
        mechanism,
        config,
    };
    run(spec).map(|outcome| outcome.result)
}

/// Runs `mechanism` under `benchmark`-shaped traffic, cold. A watchdog or
/// bound-checker abort comes back as `Err` — the form fault-injection
/// campaigns use.
pub fn try_run_benchmark(
    benchmark: Benchmark,
    mechanism: Mechanism,
    config: &SystemConfig,
    seed: u64,
) -> Result<RunResult, SimError> {
    let spec = RunSpec {
        traffic: Traffic::Benchmark {
            benchmark,
            seed,
            snapshots: SnapshotPolicy::cold(),
        },
        mechanism,
        config,
    };
    run(spec).map(|outcome| outcome.result)
}

/// Runs just the warmup of a benchmark cell and publishes the post-warmup
/// snapshot under the cell's [`warmup_key`] — the shared stage the campaign
/// planner runs once per distinct key before the measurement cells. Skips
/// simulating when the stored snapshot restores as the cells will fork it
/// (right stage, exactly at the warmup's end); a missing or unusable one is
/// replayed and republished. Returns whether the stage simulated.
pub fn publish_benchmark_warmup(
    benchmark: Benchmark,
    mechanism: Mechanism,
    config: &SystemConfig,
    seed: u64,
    store: &SnapshotStore,
) -> Result<bool, SimError> {
    let policy = SnapshotPolicy {
        store: Some(store),
        ..SnapshotPolicy::cold()
    };
    let cell = StagedCell::new(benchmark, mechanism, config, seed, &policy);
    let warmup = config.warmup_cycles;
    if cell.restore(STAGE_WARMUP, warmup..=warmup).is_some() {
        return Ok(false);
    }
    let mut sim = armed_sim(mechanism, config);
    let mut source = benchmark_source(benchmark, config, seed);
    let keys = cell.keys.as_ref();
    warm_up(&mut sim, &mut source, config, keys, &mut Vec::new())?;
    Ok(true)
}

/// The store key of a cell's mid-measurement checkpoint. It carries the
/// result-format version: a checkpoint holds codec state verbatim (DI-VAXX
/// key masks included), so one written under an older format must not resume
/// into this build's model and be cached as a current result.
pub fn checkpoint_key(cell_key: &str) -> String {
    format!(
        "checkpoint v{} {cell_key}",
        crate::persist::RESULT_FORMAT_VERSION
    )
}

/// Stage tag of a post-warmup snapshot in a store blob.
const STAGE_WARMUP: u32 = 1;
/// Stage tag of a mid-measurement checkpoint in a store blob.
const STAGE_CHECKPOINT: u32 = 2;

fn benchmark_source(benchmark: Benchmark, config: &SystemConfig, seed: u64) -> BenchmarkTraffic {
    BenchmarkTraffic::new(benchmark, config.noc.num_nodes(), config.approx_ratio, seed)
}

/// A staged cell's snapshot store and its keys there.
struct StoreKeys<'a> {
    store: &'a SnapshotStore,
    /// The shared post-warmup snapshot's key.
    warmup: String,
    /// The key of the cell's mid-measurement checkpoint.
    checkpoint: String,
    /// Checkpoint every N measured cycles (0 disables checkpointing).
    checkpoint_every: u64,
}

/// A benchmark cell: the one kind of run the runner can rebuild from
/// scratch, and so the one that may restore from the snapshot store.
struct StagedCell<'a> {
    benchmark: Benchmark,
    seed: u64,
    mechanism: Mechanism,
    config: &'a SystemConfig,
    resume: bool,
    /// `None` for a cold run.
    keys: Option<StoreKeys<'a>>,
}

impl<'a> StagedCell<'a> {
    fn new(
        benchmark: Benchmark,
        mechanism: Mechanism,
        config: &'a SystemConfig,
        seed: u64,
        policy: &SnapshotPolicy<'a>,
    ) -> Self {
        let (m, b) = (mechanism.name(), benchmark.name());
        let keys = policy.store.map(|store| StoreKeys {
            store,
            warmup: warmup_key("bench", config, m, b, seed),
            checkpoint: checkpoint_key(&cell_key("bench", config, m, b, seed)),
            checkpoint_every: policy.checkpoint_every,
        });
        StagedCell {
            benchmark,
            seed,
            mechanism,
            config,
            resume: policy.resume,
            keys,
        }
    }

    /// Resume from the cell's last checkpoint if asked, else fork from the
    /// shared post-warmup snapshot, else run cold (publishing the warmup for
    /// the sweep's next cells).
    fn run(&self) -> Result<RunOutcome, SimError> {
        let warmup = self.config.warmup_cycles;
        let total = warmup + self.config.sim_cycles;
        let resume = self.resume.then_some((STAGE_CHECKPOINT, warmup..=total));
        for (tag, cycles) in resume.into_iter().chain([(STAGE_WARMUP, warmup..=warmup)]) {
            let Some((mut sim, mut source)) = self.restore(tag, cycles) else {
                continue;
            };
            let staged = StagedInfo {
                forked: tag == STAGE_WARMUP,
                resumed: tag == STAGE_CHECKPOINT,
                skipped_cycles: sim.cycle(),
            };
            arm_measurement(&mut sim, self.config);
            // Only a fork begins measuring: a checkpoint continues the
            // measurement it saved.
            if staged.forked {
                sim.begin_measurement();
            }
            let result = measure(
                &mut sim,
                &mut source,
                self.mechanism,
                self.config,
                self.keys.as_ref(),
                &mut Vec::new(),
            )?;
            return Ok(RunOutcome { result, staged });
        }
        let mut source = benchmark_source(self.benchmark, self.config, self.seed);
        cold_run(&mut source, self.mechanism, self.config, self.keys.as_ref())
    }

    /// Restores the cell's stage-`tag` blob — its checkpoint or the shared
    /// post-warmup snapshot — into a freshly armed simulator and source.
    /// `None` when the store holds no such blob, or when the blob does not
    /// restore or stands at a cycle outside `cycles`; that blob is reported,
    /// and a checkpoint is deleted so the next resume does not trip over it
    /// again.
    fn restore(&self, tag: u32, cycles: RangeInclusive<u64>) -> Option<(NocSim, BenchmarkTraffic)> {
        let keys = self.keys.as_ref()?;
        let key = if tag == STAGE_CHECKPOINT {
            &keys.checkpoint
        } else {
            &keys.warmup
        };
        let blob = keys.store.get(key)?;
        let mut sim = armed_sim(self.mechanism, self.config);
        let mut source = benchmark_source(self.benchmark, self.config, self.seed);
        let restored =
            thaw(&blob, tag, fnv1a64(key.as_bytes()), &mut sim, &mut source).and_then(|()| {
                if cycles.contains(&sim.cycle()) {
                    Ok(())
                } else {
                    Err(format!(
                        "it stands at cycle {}, outside {}..={}",
                        sim.cycle(),
                        cycles.start(),
                        cycles.end()
                    ))
                }
            });
        let Err(msg) = restored else {
            return Some((sim, source));
        };
        // Counted as a cold cell, never a panic: the half-restored pair is
        // dropped and the caller falls through to the next rung.
        if tag == STAGE_CHECKPOINT {
            eprintln!("'{key}' unusable ({msg}); restarting the cell");
            let _ = keys.store.remove(key);
        } else {
            eprintln!("warmup snapshot '{key}' unusable ({msg}); replaying warmup");
        }
        None
    }
}

/// The cold path: build and arm a simulator, warm up (publishing the
/// post-warmup snapshot when a staged cell has a store), arm the measurement
/// boundary, measure.
fn cold_run(
    source: &mut dyn TrafficSource,
    mechanism: Mechanism,
    config: &SystemConfig,
    keys: Option<&StoreKeys<'_>>,
) -> Result<RunOutcome, SimError> {
    let (nodes, noc) = (source.num_nodes(), config.noc.num_nodes());
    if nodes != noc {
        return Err(SimError::NodeCountMismatch { source: nodes, noc });
    }
    let mut sim = armed_sim(mechanism, config);
    let mut buf = Vec::new();
    warm_up(&mut sim, source, config, keys, &mut buf)?;
    arm_measurement(&mut sim, config);
    // Unconditional: a zero-cycle warmup (even with a zero-cycle measurement
    // window) still arms measurement, so the statistics are well-defined.
    sim.begin_measurement();
    let result = measure(&mut sim, source, mechanism, config, keys, &mut buf)?;
    Ok(RunOutcome {
        result,
        staged: StagedInfo::default(),
    })
}

/// A fresh simulator running `mechanism`'s codecs, with fault and loss
/// plans, QoS and watchdog armed — before any snapshot restore, whose
/// serialized cursors then overwrite what arming reset. The codecs are built
/// at the exact threshold; the staged run retargets them at the measurement
/// boundary.
fn armed_sim(mechanism: Mechanism, config: &SystemConfig) -> NocSim {
    let codecs = mechanism.codecs(config.noc.num_nodes(), ErrorThreshold::exact());
    let mut sim = NocSim::new(config.noc.clone(), codecs);
    sim.set_fault_plan(config.faults);
    sim.set_loss_plan(config.loss);
    sim.set_qos(config.qos);
    sim.set_watchdog(config.watchdog_horizon);
    sim
}

/// Offers one cycle of traffic and advances the simulator, keeping the
/// delivery log drained.
fn step_cycle(
    sim: &mut NocSim,
    source: &mut dyn TrafficSource,
    buf: &mut Vec<Injection>,
) -> Result<(), SimError> {
    buf.clear();
    source.tick(sim.cycle(), buf);
    for inj in buf.drain(..) {
        match inj.payload {
            Some(block) => {
                sim.enqueue_data(inj.src, inj.dest, block);
            }
            None => {
                sim.enqueue_control(inj.src, inj.dest);
            }
        }
    }
    sim.step();
    if let Some(e) = sim.take_fatal_error() {
        return Err(e);
    }
    sim.discard_delivered(); // keep the delivery buffer from growing
    Ok(())
}

/// Advances the simulation until `sim.cycle()` reaches `until`.
fn drive(
    sim: &mut NocSim,
    source: &mut dyn TrafficSource,
    until: u64,
    buf: &mut Vec<Injection>,
) -> Result<(), SimError> {
    while sim.cycle() < until {
        step_cycle(sim, source, buf)?;
    }
    Ok(())
}

/// Simulates the warmup window, then publishes the post-warmup snapshot
/// when the run has a store: the stage [`publish_benchmark_warmup`] runs
/// alone, and the first of a cold run.
fn warm_up(
    sim: &mut NocSim,
    source: &mut dyn TrafficSource,
    config: &SystemConfig,
    keys: Option<&StoreKeys<'_>>,
    buf: &mut Vec<Injection>,
) -> Result<(), SimError> {
    drive(sim, source, config.warmup_cycles, buf)?;
    if let Some(keys) = keys {
        publish(keys.store, &keys.warmup, STAGE_WARMUP, sim, source);
    }
    Ok(())
}

/// The measurement boundary. The encoders retarget to the configured
/// threshold — unless QoS is active: the per-flow controllers own the
/// encoder thresholds (lazily reinstalled per enqueue), and a global
/// retarget would stomp what they learned. The bound checker arms at
/// [`SystemConfig::bound_threshold`] on every run. Restored runs come
/// through here too, since the snapshot format deliberately excludes all of
/// this.
fn arm_measurement(sim: &mut NocSim, config: &SystemConfig) {
    if !config.qos.is_active() {
        sim.set_error_threshold(config.threshold());
    }
    sim.set_bound_check(config.bound_threshold());
}

/// Runs the measurement window from wherever `sim` stands to its end,
/// checkpointing when the run has a store and an interval, then drains,
/// retires the cell's checkpoint and assembles the [`RunResult`].
fn measure(
    sim: &mut NocSim,
    source: &mut dyn TrafficSource,
    mechanism: Mechanism,
    config: &SystemConfig,
    keys: Option<&StoreKeys<'_>>,
    buf: &mut Vec<Injection>,
) -> Result<RunResult, SimError> {
    let total = config.warmup_cycles + config.sim_cycles;
    let checkpoint = keys.filter(|k| k.checkpoint_every > 0);
    while sim.cycle() < total {
        step_cycle(sim, source, buf)?;
        if let Some(k) = checkpoint {
            let measured = sim.cycle() - config.warmup_cycles;
            if sim.cycle() < total && measured.is_multiple_of(k.checkpoint_every) {
                publish(k.store, &k.checkpoint, STAGE_CHECKPOINT, sim, source);
            }
        }
    }
    // Stop offering traffic; let in-flight measured packets finish.
    sim.end_measurement();
    let drained = sim.try_drain(config.drain_cycles)?;
    sim.discard_delivered();
    sim.record_unfinished();
    if let Some(k) = keys {
        // The cell completed: its checkpoint is spent.
        let _ = k.store.remove(&k.checkpoint);
    }
    Ok(RunResult {
        mechanism,
        stats: sim.stats().clone(),
        activity: sim.activity_report(),
        nodes: config.noc.num_nodes(),
        total_cycles: sim.cycle(),
        drained,
    })
}

/// Frames `sim` + `source` state as one store blob:
/// `[u32 stage tag][u64 sim-blob length][sim blob][traffic-source state]`.
fn freeze(
    sim: &NocSim,
    source: &dyn TrafficSource,
    tag: u32,
    fingerprint: u64,
) -> Result<Vec<u8>, anoc_noc::SnapshotError> {
    let sim_blob = sim.save_snapshot(fingerprint)?;
    let mut w = SnapWriter::new();
    w.u32(tag);
    w.u64(sim_blob.len() as u64);
    w.bytes(&sim_blob);
    source.save_state(&mut w);
    Ok(w.into_bytes())
}

/// Best-effort snapshot publication: a failed save or store write costs a
/// replayed warmup next time, never the run. Sources that cannot snapshot
/// publish nothing.
fn publish(store: &SnapshotStore, key: &str, tag: u32, sim: &NocSim, source: &dyn TrafficSource) {
    if !source.snapshot_supported() {
        return;
    }
    match freeze(sim, source, tag, fnv1a64(key.as_bytes())) {
        Ok(blob) => {
            if let Err(e) = store.put(key, &blob) {
                eprintln!("snapshot write for '{key}' failed: {e}");
            }
        }
        Err(e) => eprintln!("snapshot save for '{key}' refused: {e}"),
    }
}

/// Restores a store blob into a freshly armed `sim` + never-ticked `source`.
/// Any error means the pair is in an unspecified state: the caller must
/// discard both and rebuild for the cold path.
fn thaw(
    blob: &[u8],
    expect_tag: u32,
    fingerprint: u64,
    sim: &mut NocSim,
    source: &mut dyn TrafficSource,
) -> Result<(), String> {
    let mut r = SnapReader::new(blob);
    let tag = r.u32().map_err(|e| format!("stage tag: {e}"))?;
    if tag != expect_tag {
        return Err(format!("unexpected stage tag {tag} (want {expect_tag})"));
    }
    let len = r.u64().map_err(|e| format!("sim-blob length: {e}"))?;
    let len = usize::try_from(len).map_err(|_| "sim-blob length overflows".to_string())?;
    let sim_blob = r.bytes(len).map_err(|e| format!("sim blob: {e}"))?;
    sim.restore_snapshot(sim_blob, fingerprint)
        .map_err(|e| e.to_string())?;
    source
        .load_state(&mut r)
        .map_err(|e| format!("traffic state: {e}"))?;
    if !r.is_exhausted() {
        return Err("trailing bytes after traffic state".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SystemConfig {
        SystemConfig::paper().with_sim_cycles(4_000)
    }

    #[test]
    fn baseline_run_produces_traffic_and_latency() {
        let r = try_run_benchmark(Benchmark::Blackscholes, Mechanism::Baseline, &quick(), 1)
            .expect("run completes");
        assert!(r.stats.packets > 50, "packets {}", r.stats.packets);
        assert!(r.avg_packet_latency() > 5.0);
        assert!(r.throughput() > 0.0);
        assert_eq!(r.data_quality(), 1.0, "baseline is exact");
        assert_eq!(r.mechanism, Mechanism::Baseline);
        // Tail behaviour is recorded and ordered.
        assert_eq!(r.stats.latency_histogram.samples(), r.stats.packets);
        let (p50, p99) = (r.latency_percentile(50.0), r.latency_percentile(99.0));
        assert!(p50 as f64 <= r.avg_packet_latency() * 2.0);
        assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
    }

    #[test]
    fn a_source_of_another_node_count_is_a_typed_error() {
        use anoc_traffic::{DataPool, DestPattern, SyntheticTraffic};
        let cfg = quick();
        assert_eq!(cfg.noc.num_nodes(), 32);
        let pool = DataPool::from_benchmark(Benchmark::X264, 8, 1);
        let mut source =
            SyntheticTraffic::new(DestPattern::UniformRandom, 16, pool, 0.1, 0.25, 0.75, 1);
        let err = try_run_with_source(&mut source, Mechanism::Baseline, &cfg)
            .expect_err("a 16-node source on a 32-node NoC");
        assert!(
            matches!(
                err,
                SimError::NodeCountMismatch {
                    source: 16,
                    noc: 32
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn compression_reduces_injected_data_flits() {
        let cfg = quick();
        let base = try_run_benchmark(Benchmark::Ssca2, Mechanism::Baseline, &cfg, 2)
            .expect("run completes");
        let fp =
            try_run_benchmark(Benchmark::Ssca2, Mechanism::FpComp, &cfg, 2).expect("run completes");
        assert_eq!(base.stats.normalized_data_flits(), 1.0);
        assert!(
            fp.stats.normalized_data_flits() < 0.95,
            "FP-COMP flits {}",
            fp.stats.normalized_data_flits()
        );
    }

    #[test]
    fn vaxx_compresses_more_than_exact_compression() {
        let cfg = quick();
        let fp =
            try_run_benchmark(Benchmark::Ssca2, Mechanism::FpComp, &cfg, 3).expect("run completes");
        let vaxx =
            try_run_benchmark(Benchmark::Ssca2, Mechanism::FpVaxx, &cfg, 3).expect("run completes");
        assert!(
            vaxx.stats.encode.encoded_fraction() > fp.stats.encode.encoded_fraction(),
            "vaxx {} vs fp {}",
            vaxx.stats.encode.encoded_fraction(),
            fp.stats.encode.encoded_fraction()
        );
        assert!(vaxx.stats.encode.approx_encoded > 0);
        assert_eq!(
            fp.stats.encode.approx_encoded, 0,
            "FP-COMP never approximates"
        );
    }

    #[test]
    fn vaxx_quality_stays_above_97_percent() {
        let cfg = quick();
        for m in [Mechanism::DiVaxx, Mechanism::FpVaxx] {
            let r = try_run_benchmark(Benchmark::Blackscholes, m, &cfg, 4).expect("run completes");
            assert!(r.data_quality() > 0.97, "{m}: quality {}", r.data_quality());
        }
    }

    #[test]
    fn incomplete_drain_is_recorded_not_silently_finalized() {
        let mut cfg = quick();
        let full = try_run_benchmark(Benchmark::Blackscholes, Mechanism::Baseline, &cfg, 7)
            .expect("run completes");
        assert!(full.drained, "generous budget should drain completely");
        assert_eq!(full.stats.unfinished, 0);
        // A one-cycle drain budget cannot possibly flush in-flight packets.
        cfg.drain_cycles = 1;
        let cut = try_run_benchmark(Benchmark::Blackscholes, Mechanism::Baseline, &cfg, 7)
            .expect("run completes");
        assert!(!cut.drained, "1-cycle drain budget reported as complete");
        assert!(cut.stats.unfinished > 0, "stragglers not recorded");
    }

    #[test]
    fn exact_mechanisms_preserve_data_perfectly() {
        let cfg = quick();
        for m in [Mechanism::DiComp, Mechanism::FpComp] {
            let r = try_run_benchmark(Benchmark::Streamcluster, m, &cfg, 5).expect("run completes");
            assert_eq!(r.data_quality(), 1.0, "{m} corrupted data");
        }
    }

    /// One benchmark cell under `policy`, through [`run`].
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

    fn temp_store(name: &str) -> SnapshotStore {
        let dir = std::env::temp_dir().join(format!("anoc-runner-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SnapshotStore::open(dir).expect("open temp store")
    }

    /// A cell's store keys: its warmup snapshot's and its checkpoint's.
    fn store_keys(
        benchmark: Benchmark,
        mechanism: Mechanism,
        config: &SystemConfig,
        seed: u64,
    ) -> (String, String) {
        let (m, b) = (mechanism.name(), benchmark.name());
        let warmup = warmup_key("bench", config, m, b, seed);
        (
            warmup,
            checkpoint_key(&cell_key("bench", config, m, b, seed)),
        )
    }

    /// A policy that forks from (or publishes to) `store`.
    fn stored(store: &SnapshotStore) -> SnapshotPolicy<'_> {
        SnapshotPolicy {
            store: Some(store),
            ..SnapshotPolicy::cold()
        }
    }

    /// Regression for the zero-warmup corner: `begin_measurement` arming
    /// used to hinge on the loop hitting `cycle == warmup_cycles`, which a
    /// zero-cycle run never did — statistics came back from an unarmed
    /// window.
    #[test]
    fn zero_warmup_and_zero_window_still_arm_measurement() {
        let mut cfg = SystemConfig::paper();
        cfg.warmup_cycles = 0;
        cfg.sim_cycles = 0;
        let r = try_run_benchmark(Benchmark::Blackscholes, Mechanism::Baseline, &cfg, 1)
            .expect("empty run completes");
        assert!(r.drained, "nothing in flight, drain is trivially complete");
        assert_eq!(r.stats.packets, 0);
        assert_eq!(r.stats.unfinished, 0);
        assert_eq!(r.total_cycles, 0);
    }

    #[test]
    fn zero_warmup_measures_from_cycle_zero() {
        let mut cfg = SystemConfig::paper().with_sim_cycles(2_000);
        cfg.warmup_cycles = 0;
        let r =
            try_run_benchmark(Benchmark::Ssca2, Mechanism::FpComp, &cfg, 6).expect("run completes");
        assert_eq!(r.stats.cycles, 2_000, "window covers the whole run");
        assert!(r.stats.packets > 0, "cycle-0 injections are measured");
    }

    #[test]
    fn forked_run_matches_cold_run_bit_for_bit() {
        let store = temp_store("fork");
        let cfg = SystemConfig::paper().with_sim_cycles(2_500);
        let (bench, mech, seed) = (Benchmark::Ssca2, Mechanism::FpVaxx, 13);
        let (wk, ck) = store_keys(bench, mech, &cfg, seed);
        assert!(
            publish_benchmark_warmup(bench, mech, &cfg, seed, &store).expect("warmup runs"),
            "first publish simulates the warmup"
        );
        assert!(
            !publish_benchmark_warmup(bench, mech, &cfg, seed, &store).expect("no-op"),
            "second publish restores the stored snapshot"
        );
        let policy = SnapshotPolicy {
            checkpoint_every: 700,
            ..stored(&store)
        };
        let (warm, info) = staged_cell(bench, mech, &cfg, seed, &policy).expect("forked run");
        assert!(info.forked && !info.resumed);
        assert_eq!(info.skipped_cycles, cfg.warmup_cycles);
        let cold = try_run_benchmark(bench, mech, &cfg, seed).expect("cold run");
        assert_eq!(
            crate::persist::encode_run_result(&warm),
            crate::persist::encode_run_result(&cold),
            "forking the warmup changed the measured result"
        );
        assert!(
            store.get(&ck).is_none(),
            "completed cell retires its checkpoint"
        );
        // A corrupt warmup blob degrades to a cold cell with the same result.
        store.put(&wk, b"garbage").expect("corrupt");
        let (fallback, info) = staged_cell(bench, mech, &cfg, seed, &policy).expect("fallback run");
        assert!(!info.forked && info.skipped_cycles == 0);
        assert_eq!(
            crate::persist::encode_run_result(&fallback),
            crate::persist::encode_run_result(&cold)
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Regression: a forked QoS run must reprogram the encoders from the
    /// snapshot's per-node installed percents. The staged path builds its
    /// sims with exact-threshold codecs, and under QoS `arm_measurement`
    /// deliberately skips the global retarget — so without the restore-side
    /// reprogram the whole measurement window runs at the exact threshold
    /// (quality 1.0, no approximation) and silently diverges from cold.
    #[test]
    fn forked_qos_run_matches_cold_run_bit_for_bit() {
        let store = temp_store("fork-qos");
        let cfg = SystemConfig::paper()
            .with_sim_cycles(2_500)
            .with_qos(anoc_core::control::QosSpec::paper(970_000))
            .with_loss(anoc_noc::LossPlan::scaled(3, 5_000, 100));
        let (bench, mech, seed) = (Benchmark::Blackscholes, Mechanism::FpVaxx, 13);
        assert!(
            publish_benchmark_warmup(bench, mech, &cfg, seed, &store).expect("warmup runs"),
            "first publish simulates the warmup"
        );
        let (warm, info) =
            staged_cell(bench, mech, &cfg, seed, &stored(&store)).expect("forked run");
        assert!(info.forked && !info.resumed);
        let cold = try_run_benchmark(bench, mech, &cfg, seed).expect("cold run");
        assert!(
            cold.data_quality() < 1.0,
            "QoS measurement window must actually approximate"
        );
        assert!(cold.stats.faults.words_lost > 0, "loss plan must be live");
        assert_eq!(
            crate::persist::encode_run_result(&warm),
            crate::persist::encode_run_result(&cold),
            "forking the warmup changed the measured QoS result"
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn resume_from_checkpoint_is_bit_identical_and_retires_it() {
        let store = temp_store("resume");
        let cfg = SystemConfig::paper().with_sim_cycles(3_000);
        let (bench, mech, seed) = (Benchmark::Ssca2, Mechanism::FpVaxx, 11);
        let cold = try_run_benchmark(bench, mech, &cfg, seed).expect("cold reference");
        // Reproduce a killed cell: warmup + 600 measured cycles, checkpoint,
        // then "die".
        let mut source = BenchmarkTraffic::new(bench, cfg.noc.num_nodes(), cfg.approx_ratio, seed);
        let mut sim = armed_sim(mech, &cfg);
        let mut buf = Vec::new();
        drive(&mut sim, &mut source, cfg.warmup_cycles, &mut buf).expect("warmup");
        arm_measurement(&mut sim, &cfg);
        sim.begin_measurement();
        drive(&mut sim, &mut source, cfg.warmup_cycles + 600, &mut buf).expect("measure");
        let (_, ck) = store_keys(bench, mech, &cfg, seed);
        publish(&store, &ck, STAGE_CHECKPOINT, &sim, &source);
        assert!(store.get(&ck).is_some(), "checkpoint saved");
        drop(sim);
        let policy = SnapshotPolicy {
            resume: true,
            ..stored(&store)
        };
        let (resumed, info) = staged_cell(bench, mech, &cfg, seed, &policy).expect("resumed run");
        assert!(info.resumed && !info.forked);
        assert_eq!(info.skipped_cycles, cfg.warmup_cycles + 600);
        assert_eq!(
            crate::persist::encode_run_result(&resumed),
            crate::persist::encode_run_result(&cold),
            "resuming mid-measurement changed the result"
        );
        assert!(
            store.get(&ck).is_none(),
            "completed cell retires its checkpoint"
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn warmup_stage_replays_an_unusable_snapshot() {
        let store = temp_store("stage");
        let cfg = SystemConfig::paper().with_sim_cycles(1_000);
        let (bench, mech, seed) = (Benchmark::Ssca2, Mechanism::DiVaxx, 5);
        let (wk, _) = store_keys(bench, mech, &cfg, seed);
        // Blobs no cell can fork: a well-formed snapshot at the warmup's end
        // framed as a checkpoint, and garbage.
        let mut source = benchmark_source(bench, &cfg, seed);
        let mut sim = armed_sim(mech, &cfg);
        drive(&mut sim, &mut source, cfg.warmup_cycles, &mut Vec::new()).expect("warmup");
        let framed = freeze(&sim, &source, STAGE_CHECKPOINT, fnv1a64(wk.as_bytes()));
        for blob in [framed.expect("save"), b"garbage".to_vec()] {
            store.put(&wk, &blob).expect("plant");
            assert!(
                publish_benchmark_warmup(bench, mech, &cfg, seed, &store).expect("warmup runs"),
                "the stage took an unusable snapshot as published"
            );
            assert!(!publish_benchmark_warmup(bench, mech, &cfg, seed, &store).expect("no-op"));
            let (_, info) = staged_cell(bench, mech, &cfg, seed, &stored(&store)).expect("fork");
            assert!(info.forked, "the cell did not fork the republished warmup");
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// The cell the bad-checkpoint tests resume.
    const BAD_CELL: (Benchmark, Mechanism, u64) = (Benchmark::Ssca2, Mechanism::FpVaxx, 11);

    fn bad_cell_config() -> SystemConfig {
        SystemConfig::paper().with_sim_cycles(2_000)
    }

    /// Resumes [`BAD_CELL`] over the checkpoint `plant` stores, with no
    /// warmup snapshot to fall back on. The failed restore must delete the
    /// checkpoint on the spot — checked straight after it, since the cold
    /// fallback retires the cell's checkpoint again when it completes — and
    /// the cell must run cold, byte for byte, reporting no fork or resume.
    fn resume_bad_checkpoint(name: &str, plant: impl Fn(&SnapshotStore, &str)) {
        let store = temp_store(name);
        let cfg = bad_cell_config();
        let (bench, mech, seed) = BAD_CELL;
        let (_, key) = store_keys(bench, mech, &cfg, seed);
        let policy = SnapshotPolicy {
            resume: true,
            ..stored(&store)
        };
        let cell = StagedCell::new(bench, mech, &cfg, seed, &policy);
        plant(&store, &key);
        assert!(store.get(&key).is_some(), "checkpoint planted");
        let window = cfg.warmup_cycles..=cfg.warmup_cycles + cfg.sim_cycles;
        assert!(cell.restore(STAGE_CHECKPOINT, window).is_none());
        assert!(
            store.get(&key).is_none(),
            "failed restore deletes the checkpoint"
        );

        plant(&store, &key);
        let (fallback, info) =
            staged_cell(bench, mech, &cfg, seed, &policy).expect("cold fallback");
        assert_eq!(info, StagedInfo::default());
        let cold = try_run_benchmark(bench, mech, &cfg, seed).expect("cold reference");
        assert_eq!(
            crate::persist::encode_run_result(&fallback),
            crate::persist::encode_run_result(&cold),
            "a bad checkpoint changed the result"
        );
        assert!(
            store.get(&key).is_none(),
            "bad checkpoint left in the store"
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn checkpoint_of_an_older_result_format_is_ignored() {
        let store = temp_store("v7-checkpoint");
        let cfg = bad_cell_config();
        let (bench, mech, seed) = (Benchmark::Ssca2, Mechanism::DiVaxx, 11);
        // A well-formed checkpoint 600 cycles into the window, stored under
        // the unversioned key a v7 build wrote.
        let mut source = benchmark_source(bench, &cfg, seed);
        let mut sim = armed_sim(mech, &cfg);
        let mut buf = Vec::new();
        drive(&mut sim, &mut source, cfg.warmup_cycles, &mut buf).expect("warmup");
        arm_measurement(&mut sim, &cfg);
        sim.begin_measurement();
        drive(&mut sim, &mut source, cfg.warmup_cycles + 600, &mut buf).expect("measure");
        let ck = cell_key("bench", &cfg, mech.name(), bench.name(), seed);
        publish(
            &store,
            &format!("checkpoint {ck}"),
            STAGE_CHECKPOINT,
            &sim,
            &source,
        );
        let policy = SnapshotPolicy {
            resume: true,
            ..stored(&store)
        };
        let (result, info) = staged_cell(bench, mech, &cfg, seed, &policy).expect("cold run");
        assert_eq!(info, StagedInfo::default(), "a v7 checkpoint resumed");
        let cold = try_run_benchmark(bench, mech, &cfg, seed).expect("cold reference");
        assert_eq!(
            crate::persist::encode_run_result(&result),
            crate::persist::encode_run_result(&cold)
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn garbage_checkpoint_is_deleted_and_the_cell_runs_cold() {
        resume_bad_checkpoint("garbage-checkpoint", |store, key| {
            store.put(key, b"garbage").expect("plant garbage");
        });
    }

    #[test]
    fn checkpoint_naming_a_node_outside_the_mesh_is_deleted_and_the_cell_runs_cold() {
        let cfg = bad_cell_config();
        let (bench, mech, seed) = BAD_CELL;
        resume_bad_checkpoint("node-checkpoint", |store, key| {
            // Well-formed and inside the window, but the first packet's
            // source is node 1000: the frame's 12 bytes, then 56 header
            // bytes, 57 bytes of scalars, the packet count and its id.
            let mut source = benchmark_source(bench, &cfg, seed);
            let mut sim = armed_sim(mech, &cfg);
            let mut buf = Vec::new();
            drive(&mut sim, &mut source, cfg.warmup_cycles, &mut buf).expect("warmup");
            arm_measurement(&mut sim, &cfg);
            sim.begin_measurement();
            drive(&mut sim, &mut source, cfg.warmup_cycles + 600, &mut buf).expect("measure");
            let fingerprint = fnv1a64(key.as_bytes());
            let mut blob = freeze(&sim, &source, STAGE_CHECKPOINT, fingerprint).expect("save");
            assert!(blob[125..133] != [0; 8], "want a packet in the blob");
            blob[141..145].copy_from_slice(&1000u32.to_le_bytes());
            store.put(key, &blob).expect("plant checkpoint");
        });
    }

    #[test]
    fn checkpoint_outside_the_window_is_deleted_and_the_cell_runs_cold() {
        let cfg = bad_cell_config();
        let (bench, mech, seed) = BAD_CELL;
        resume_bad_checkpoint("early-checkpoint", |store, key| {
            // Well-formed, but taken 100 cycles before measurement began.
            let mut source = benchmark_source(bench, &cfg, seed);
            let mut sim = armed_sim(mech, &cfg);
            let early = cfg.warmup_cycles - 100;
            drive(&mut sim, &mut source, early, &mut Vec::new()).expect("warmup");
            publish(store, key, STAGE_CHECKPOINT, &sim, &source);
        });
    }
}
