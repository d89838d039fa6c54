//! One runner per table/figure of the paper's evaluation (§5).
//!
//! Every function regenerates the corresponding result: the same rows or
//! series the paper plots, printed via the `render_*` helpers or consumed
//! programmatically. Absolute numbers differ from the paper (the substrate
//! is a reimplemented simulator driven by modelled traffic); EXPERIMENTS.md
//! records the shape comparison.

use anoc_exec::{CellFailure, JobSpec};
use anoc_noc::{FaultPlan, LossPlan};
use anoc_traffic::{Benchmark, DataPool, DestPattern, SyntheticTraffic};

use crate::campaign::{benchmark_job, cell_key, checked_benchmark_job, context, pattern_tag};
use crate::config::{Mechanism, SystemConfig};
use crate::power::EnergyModel;
pub use crate::runner::RunResult;
use crate::runner::{run, try_run_with_source, Codecs, RunSpec, SnapshotPolicy, Traffic};

/// The full benchmark × mechanism result matrix backing Figures 9, 10, 11
/// and 15.
#[derive(Debug, Clone)]
pub struct BenchmarkMatrix {
    /// Per-benchmark results, one per mechanism in [`BenchmarkMatrix::mechs`]
    /// order.
    pub cells: Vec<(Benchmark, Vec<RunResult>)>,
    /// The mechanism columns of the matrix ([`Mechanism::ALL`] by default;
    /// `--mechs` can extend the comparison, e.g. with LZ-VAXX).
    pub mechs: Vec<Mechanism>,
}

impl BenchmarkMatrix {
    /// Runs all 8 benchmarks × 5 mechanisms as one parallel campaign;
    /// results are merged in plan order, bit-identical to the serial loop
    /// this replaces.
    pub fn run(config: &SystemConfig, seed: u64) -> Self {
        Self::run_with(config, seed, &Mechanism::ALL)
    }

    /// Like [`run`](Self::run) with an explicit mechanism list — the hook
    /// behind `--mechs`, letting the matrix figures carry extra curves
    /// (LZ-VAXX as a sixth bar) next to the paper's five. The first
    /// mechanism anchors any baseline-normalized figure, so lists should
    /// start with [`Mechanism::Baseline`].
    pub fn run_with(config: &SystemConfig, seed: u64, mechs: &[Mechanism]) -> Self {
        let jobs = Benchmark::ALL
            .iter()
            .flat_map(|b| mechs.iter().map(|m| benchmark_job(*b, *m, config, seed)))
            .collect();
        let mut results = context().run("matrix", jobs).into_iter();
        let cells = Benchmark::ALL
            .iter()
            .map(|b| (*b, results.by_ref().take(mechs.len()).collect()))
            .collect();
        BenchmarkMatrix {
            cells,
            mechs: mechs.to_vec(),
        }
    }

    /// The result for one (benchmark, mechanism) cell.
    pub fn get(&self, benchmark: Benchmark, mechanism: Mechanism) -> &RunResult {
        let (_, runs) = self
            .cells
            .iter()
            .find(|(b, _)| *b == benchmark)
            .expect("benchmark present");
        let idx = self
            .mechs
            .iter()
            .position(|m| *m == mechanism)
            .expect("mechanism present");
        &runs[idx]
    }
}

/// One bar of Figure 9: latency breakdown plus data quality.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// NI queueing latency (cycles).
    pub queue_lat: f64,
    /// Network latency (cycles).
    pub net_lat: f64,
    /// Decode latency (cycles).
    pub decode_lat: f64,
    /// Data value quality (right axis).
    pub quality: f64,
}

impl Fig9Row {
    /// Total average packet latency.
    pub fn total(&self) -> f64 {
        self.queue_lat + self.net_lat + self.decode_lat
    }
}

/// Figure 9: average packet latency breakdown and approximation quality.
pub fn fig9(matrix: &BenchmarkMatrix) -> Vec<Fig9Row> {
    let mut rows = Vec::new();
    for (b, runs) in &matrix.cells {
        for r in runs {
            rows.push(Fig9Row {
                benchmark: *b,
                mechanism: r.mechanism,
                queue_lat: r.stats.avg_queue_latency(),
                net_lat: r.stats.avg_net_latency(),
                decode_lat: r.stats.avg_decode_latency(),
                quality: r.data_quality(),
            });
        }
    }
    rows
}

/// Renders Figure 9 as a text table.
pub fn render_fig9(rows: &[Fig9Row]) -> String {
    let mut out = String::from(
        "Figure 9: Average Packet Latency Breakdown and Overall Approximation Quality\n\
         benchmark      mechanism  queue_lat  net_lat  decode_lat  total  quality\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<9} {:>9.2} {:>8.2} {:>10.3} {:>6.2} {:>8.4}\n",
            r.benchmark.name(),
            r.mechanism.name(),
            r.queue_lat,
            r.net_lat,
            r.decode_lat,
            r.total(),
            r.quality,
        ));
    }
    out
}

/// One bar group of Figure 10: encoded-word fraction split and compression
/// ratio.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Mechanism (compression mechanisms only; baseline is omitted as in
    /// the paper).
    pub mechanism: Mechanism,
    /// Fraction of words encoded by exact matching (Figure 10a).
    pub exact_fraction: f64,
    /// Fraction of words encoded thanks to approximation (Figure 10a).
    pub approx_fraction: f64,
    /// Compression ratio (Figure 10b).
    pub compression_ratio: f64,
}

/// Figure 10: encoded-word breakdown (a) and compression ratio (b).
pub fn fig10(matrix: &BenchmarkMatrix) -> Vec<Fig10Row> {
    let mut rows = Vec::new();
    for (b, runs) in &matrix.cells {
        for r in runs {
            if r.mechanism == Mechanism::Baseline {
                continue;
            }
            rows.push(Fig10Row {
                benchmark: *b,
                mechanism: r.mechanism,
                exact_fraction: r.stats.encode.exact_fraction(),
                approx_fraction: r.stats.encode.approx_fraction(),
                compression_ratio: r.stats.encode.compression_ratio(),
            });
        }
    }
    rows
}

/// Renders Figure 10 as a text table.
pub fn render_fig10(rows: &[Fig10Row]) -> String {
    let mut out = String::from(
        "Figure 10: Encoded Word Fraction (exact + approx) and Compression Ratio\n\
         benchmark      mechanism  exact_frac  approx_frac  total_frac  comp_ratio\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<9} {:>10.3} {:>12.3} {:>11.3} {:>11.3}\n",
            r.benchmark.name(),
            r.mechanism.name(),
            r.exact_fraction,
            r.approx_fraction,
            r.exact_fraction + r.approx_fraction,
            r.compression_ratio,
        ));
    }
    out
}

/// One bar of Figure 11: injected data flits normalized to baseline.
#[derive(Debug, Clone, Copy)]
pub struct Fig11Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Data flits injected, normalized to the uncompressed baseline.
    pub normalized_flits: f64,
}

/// Figure 11: reduction in the number of injected data flits.
pub fn fig11(matrix: &BenchmarkMatrix) -> Vec<Fig11Row> {
    let mut rows = Vec::new();
    for (b, runs) in &matrix.cells {
        for r in runs {
            rows.push(Fig11Row {
                benchmark: *b,
                mechanism: r.mechanism,
                normalized_flits: r.stats.normalized_data_flits(),
            });
        }
    }
    rows
}

/// Renders Figure 11 as a text table.
pub fn render_fig11(rows: &[Fig11Row]) -> String {
    let mut out = String::from(
        "Figure 11: Data Flits Injected (normalized to Baseline)\nbenchmark      mechanism  normalized\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<9} {:>10.3}\n",
            r.benchmark.name(),
            r.mechanism.name(),
            r.normalized_flits
        ));
    }
    out
}

/// One latency-vs-injection-rate curve of Figure 12.
#[derive(Debug, Clone)]
pub struct Fig12Series {
    /// Mechanism.
    pub mechanism: Mechanism,
    /// `(offered flits/node/cycle, avg packet latency)` points; the sweep
    /// stops once the network saturates (latency above the cap).
    pub points: Vec<(f64, f64)>,
}

impl Fig12Series {
    /// The saturation throughput: the highest offered rate whose latency
    /// stayed under the cap.
    pub fn saturation_rate(&self) -> f64 {
        self.points.last().map(|(r, _)| *r).unwrap_or(0.0)
    }
}

/// Figure 12: throughput under synthetic traffic with benchmark data.
///
/// `data_ratio` is 0.25 in the paper (25:75 data-to-control mix);
/// `latency_cap` ends each mechanism's sweep once saturated.
pub fn fig12(
    benchmark: Benchmark,
    pattern: DestPattern,
    rates: &[f64],
    config: &SystemConfig,
    seed: u64,
) -> Vec<Fig12Series> {
    let latency_cap = 120.0;
    let pool = DataPool::from_benchmark(benchmark, 512, seed);
    // Plan every (mechanism, rate) cell up front; the serial loop stopped a
    // mechanism's sweep at its first over-cap latency, so reproduce that by
    // truncating each series after the fact. Cells past the knee are wasted
    // work but run in parallel, so the wall clock still wins.
    let jobs = Mechanism::ALL
        .iter()
        .flat_map(|m| {
            rates.iter().map(|&rate| {
                let id = format!(
                    "{}/{}/{}@{rate:.3}",
                    benchmark.name(),
                    pattern_tag(pattern),
                    m.name()
                );
                let work = format!(
                    "fig12 bench={} pat={} rate={:016x} dr=3fd0000000000000 pool=512",
                    benchmark.name(),
                    pattern_tag(pattern),
                    rate.to_bits(),
                );
                let key = cell_key("synth", config, m.name(), &work, seed);
                let (m, config, pool) = (*m, config.clone(), pool.clone());
                JobSpec::new(id, key, move || {
                    let mut source = SyntheticTraffic::new(
                        pattern,
                        config.noc.num_nodes(),
                        pool,
                        rate,
                        0.25,
                        config.approx_ratio,
                        seed,
                    );
                    try_run_with_source(&mut source, m, &config)
                        .unwrap_or_else(|e| panic!("simulation failed: {e}"))
                })
            })
        })
        .collect();
    let mut results = context().run("fig12", jobs).into_iter();
    Mechanism::ALL
        .iter()
        .map(|m| {
            let mut points = Vec::new();
            for &rate in rates {
                let lat = results
                    .next()
                    .expect("one result per cell")
                    .avg_packet_latency();
                if points
                    .last()
                    .map(|(_, l)| *l <= latency_cap)
                    .unwrap_or(true)
                {
                    points.push((rate, lat));
                }
            }
            Fig12Series {
                mechanism: *m,
                points,
            }
        })
        .collect()
}

/// Renders one Figure 12 panel as a text table.
pub fn render_fig12(label: &str, series: &[Fig12Series]) -> String {
    let mut out = format!("Figure 12 ({label}): Packet Latency vs Injection Rate\n");
    for s in series {
        out.push_str(&format!("{:<9}", s.mechanism.name()));
        for (rate, lat) in &s.points {
            out.push_str(&format!("  {rate:.2}:{lat:.1}"));
        }
        out.push_str(&format!("  [saturation ~{:.2}]\n", s.saturation_rate()));
    }
    out
}

/// One group of Figure 13 (error-threshold sensitivity) or Figure 14
/// (approximable-ratio sensitivity): the exact-compression latency plus the
/// VAXX latency at each setting.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// `"DI-based"` or `"FP-based"`.
    pub family: &'static str,
    /// Latency of the exact compression mechanism (the "Compression" bar).
    pub compression_latency: f64,
    /// `(setting, latency)` for each swept value.
    pub vaxx_latencies: Vec<(u32, f64)>,
}

/// Figure 13: error-threshold sensitivity (5%, 10%, 20%).
pub fn fig13(config: &SystemConfig, seed: u64) -> Vec<SensitivityRow> {
    sensitivity_sweep(
        config,
        seed,
        &Benchmark::ALL,
        &[5, 10, 20],
        |cfg, setting| cfg.with_threshold(setting),
    )
}

/// Figure 14: approximable-packet-ratio sensitivity (25%, 50%, 75%).
pub fn fig14(config: &SystemConfig, seed: u64) -> Vec<SensitivityRow> {
    sensitivity_sweep(
        config,
        seed,
        &Benchmark::ALL,
        &[25, 50, 75],
        |cfg, setting| cfg.with_approx_ratio(setting as f64 / 100.0),
    )
}

/// The generic Figure 13/14 machinery: for each benchmark and codec family,
/// measure the exact-compression latency plus the VAXX latency at each
/// setting produced by `apply`.
pub fn sensitivity_sweep(
    config: &SystemConfig,
    seed: u64,
    benchmarks: &[Benchmark],
    settings: &[u32],
    apply: impl Fn(SystemConfig, u32) -> SystemConfig,
) -> Vec<SensitivityRow> {
    const FAMILIES: [(&str, Mechanism, Mechanism); 2] = [
        ("DI-based", Mechanism::DiComp, Mechanism::DiVaxx),
        ("FP-based", Mechanism::FpComp, Mechanism::FpVaxx),
    ];
    // One plan: per (benchmark, family) the compression anchor cell followed
    // by one VAXX cell per swept setting.
    let mut jobs = Vec::new();
    for &b in benchmarks {
        for (_, comp, vaxx) in FAMILIES {
            jobs.push(benchmark_job(b, comp, config, seed));
            for &s in settings {
                jobs.push(benchmark_job(b, vaxx, &apply(config.clone(), s), seed));
            }
        }
    }
    let mut results = context().run("sensitivity", jobs).into_iter();
    let mut rows = Vec::new();
    for &b in benchmarks {
        for (family, _, _) in FAMILIES {
            let comp_lat = results.next().expect("anchor cell").avg_packet_latency();
            let vaxx_latencies = settings
                .iter()
                .map(|s| (*s, results.next().expect("vaxx cell").avg_packet_latency()))
                .collect();
            rows.push(SensitivityRow {
                benchmark: b,
                family,
                compression_latency: comp_lat,
                vaxx_latencies,
            });
        }
    }
    rows
}

/// Renders Figure 13/14 as a text table.
pub fn render_sensitivity(title: &str, rows: &[SensitivityRow]) -> String {
    let mut out = format!("{title}\nbenchmark      family    compression");
    if let Some(first) = rows.first() {
        for (s, _) in &first.vaxx_latencies {
            out.push_str(&format!("  vaxx@{s:<3}"));
        }
    }
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<9} {:>10.2}",
            r.benchmark.name(),
            r.family,
            r.compression_latency
        ));
        for (_, lat) in &r.vaxx_latencies {
            out.push_str(&format!(" {lat:>8.2}"));
        }
        out.push('\n');
    }
    out
}

/// One point of the fault-injection resilience sweep: FP-VAXX under an
/// increasing link bit-flip rate.
#[derive(Debug, Clone, Copy)]
pub struct FaultCurvePoint {
    /// Link bit-flip rate in flips per million traversals.
    pub flip_ppm: u32,
    /// Average end-to-end packet latency in cycles.
    pub avg_latency: f64,
    /// Data value quality (1 − mean relative word error).
    pub quality: f64,
    /// Bit flips the fault injector actually performed.
    pub bit_flips: u64,
    /// Delivered words audited by the end-to-end bound checker.
    pub bound_checked_words: u64,
    /// Audited words whose error exceeded the configured threshold.
    pub bound_violations: u64,
}

/// The fault-injection resilience sweep: runs `benchmark` under FP-VAXX at
/// each link bit-flip rate, through the fault-tolerant campaign path, and
/// reports one curve point per rate that completed plus the typed failures
/// for cells that did not (watchdog aborts at extreme rates are expected
/// behaviour, not sweep-ending errors).
///
/// At rate 0 the fault plan is inert and the cell is bit-identical to a
/// healthy run; violations must be 0 there, and the violation count is
/// non-decreasing in the flip rate.
pub fn faults_sweep(
    benchmark: Benchmark,
    rates_ppm: &[u32],
    config: &SystemConfig,
    seed: u64,
) -> (Vec<(u32, Option<FaultCurvePoint>)>, Vec<CellFailure>) {
    let jobs = rates_ppm
        .iter()
        .map(|&ppm| {
            let cfg = config.clone().with_faults(FaultPlan::bit_flips(seed, ppm));
            checked_benchmark_job(benchmark, Mechanism::FpVaxx, &cfg, seed)
        })
        .collect();
    let (results, failures, _) = context().run_checked("faults", jobs);
    let points = rates_ppm
        .iter()
        .zip(results)
        .map(|(&ppm, slot)| {
            let point = slot.map(|r| FaultCurvePoint {
                flip_ppm: ppm,
                avg_latency: r.avg_packet_latency(),
                quality: r.data_quality(),
                bit_flips: r.stats.faults.bit_flips,
                bound_checked_words: r.stats.faults.bound_checked_words,
                bound_violations: r.stats.faults.bound_violations,
            });
            (ppm, point)
        })
        .collect();
    (points, failures)
}

/// Renders the fault sweep as a text table, failed cells included.
pub fn render_faults(
    benchmark: Benchmark,
    points: &[(u32, Option<FaultCurvePoint>)],
    failures: &[CellFailure],
) -> String {
    let mut out = format!(
        "Fault-injection sweep: {} / FP-VAXX\nflip_ppm    latency   quality   bit_flips    checked  violations\n",
        benchmark.name()
    );
    for (ppm, point) in points {
        match point {
            Some(p) => out.push_str(&format!(
                "{:>8} {:>10.2} {:>9.4} {:>11} {:>10} {:>11}\n",
                ppm,
                p.avg_latency,
                p.quality,
                p.bit_flips,
                p.bound_checked_words,
                p.bound_violations,
            )),
            None => out.push_str(&format!("{ppm:>8}     failed (see below)\n")),
        }
    }
    for f in failures {
        out.push_str(&format!("failed: {f}\n"));
    }
    out
}

/// CSV form of the fault sweep (completed points only).
pub fn faults_csv(points: &[(u32, Option<FaultCurvePoint>)]) -> String {
    let mut out = String::from(
        "flip_ppm,avg_latency,quality,bit_flips,bound_checked_words,bound_violations\n",
    );
    for (ppm, point) in points {
        if let Some(p) = point {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                ppm,
                p.avg_latency,
                p.quality,
                p.bit_flips,
                p.bound_checked_words,
                p.bound_violations,
            ));
        } else {
            out.push_str(&format!("{ppm},,,,,\n"));
        }
    }
    out
}

/// One point of the lossy-link degradation sweep (`anoc run lossy`):
/// FP-VAXX under an increasing per-hop word-loss rate, with the loss rate
/// additionally scaled by each packet's approximation level (LORAX-style:
/// aggressively approximated traffic rides the cheaper, lossier signaling).
#[derive(Debug, Clone, Copy)]
pub struct LossCurvePoint {
    /// Base per-hop loss rate in erasures per million traversals.
    pub loss_ppm: u32,
    /// Average end-to-end packet latency in cycles.
    pub avg_latency: f64,
    /// Data value quality (1 − mean relative word error).
    pub quality: f64,
    /// Words the lossy links actually erased.
    pub words_lost: u64,
    /// Delivered words audited by the end-to-end bound checker.
    pub bound_checked_words: u64,
    /// Audited words whose error exceeded the configured threshold.
    pub bound_violations: u64,
}

/// The lossy-link degradation sweep: runs `benchmark` under FP-VAXX at each
/// base loss rate (each nonzero rate also scaled by `approx_scale_ppm` per
/// approximation-threshold percent), through the fault-tolerant campaign
/// path. Rate 0 installs an inert plan and is bit-identical to a healthy
/// run: violations must be 0 there, and the violation count is
/// non-decreasing in the loss rate.
pub fn lossy_sweep(
    benchmark: Benchmark,
    rates_ppm: &[u32],
    approx_scale_ppm: u32,
    config: &SystemConfig,
    seed: u64,
) -> (Vec<(u32, Option<LossCurvePoint>)>, Vec<CellFailure>) {
    let jobs = rates_ppm
        .iter()
        .map(|&ppm| {
            let plan = if ppm == 0 {
                LossPlan::none()
            } else {
                LossPlan::scaled(seed, ppm, approx_scale_ppm)
            };
            let cfg = config.clone().with_loss(plan);
            checked_benchmark_job(benchmark, Mechanism::FpVaxx, &cfg, seed)
        })
        .collect();
    let (results, failures, _) = context().run_checked("lossy", jobs);
    let points = rates_ppm
        .iter()
        .zip(results)
        .map(|(&ppm, slot)| {
            let point = slot.map(|r| LossCurvePoint {
                loss_ppm: ppm,
                avg_latency: r.avg_packet_latency(),
                quality: r.data_quality(),
                words_lost: r.stats.faults.words_lost,
                bound_checked_words: r.stats.faults.bound_checked_words,
                bound_violations: r.stats.faults.bound_violations,
            });
            (ppm, point)
        })
        .collect();
    (points, failures)
}

/// Renders the lossy-link sweep as a text table, failed cells included.
pub fn render_lossy(
    benchmark: Benchmark,
    points: &[(u32, Option<LossCurvePoint>)],
    failures: &[CellFailure],
) -> String {
    let mut out = format!(
        "Lossy-link sweep: {} / FP-VAXX\nloss_ppm    latency   quality  words_lost    checked  violations\n",
        benchmark.name()
    );
    for (ppm, point) in points {
        match point {
            Some(p) => out.push_str(&format!(
                "{:>8} {:>10.2} {:>9.4} {:>11} {:>10} {:>11}\n",
                ppm,
                p.avg_latency,
                p.quality,
                p.words_lost,
                p.bound_checked_words,
                p.bound_violations,
            )),
            None => out.push_str(&format!("{ppm:>8}     failed (see below)\n")),
        }
    }
    for f in failures {
        out.push_str(&format!("failed: {f}\n"));
    }
    out
}

/// CSV form of the lossy-link sweep (completed points only).
pub fn lossy_csv(points: &[(u32, Option<LossCurvePoint>)]) -> String {
    let mut out = String::from(
        "loss_ppm,avg_latency,quality,words_lost,bound_checked_words,bound_violations\n",
    );
    for (ppm, point) in points {
        if let Some(p) = point {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                ppm,
                p.avg_latency,
                p.quality,
                p.words_lost,
                p.bound_checked_words,
                p.bound_violations,
            ));
        } else {
            out.push_str(&format!("{ppm},,,,,\n"));
        }
    }
    out
}

/// One row of the QoS campaign (`anoc run qos`): one application kernel at
/// one output-error budget, comparing the runtime per-flow control loop
/// against the best *worst-case-safe* static threshold.
#[derive(Debug, Clone)]
pub struct QosStudyRow {
    /// Application kernel name (fig16/fig17 mini-kernels).
    pub kernel: &'static str,
    /// The benchmark whose traffic profile drives the network cell.
    pub benchmark: Benchmark,
    /// Application output-error budget in percent.
    pub budget_percent: u32,
    /// Threshold the app-level AIMD controller converged to.
    pub converged_percent: u32,
    /// Realized kernel output error at the converged threshold — the
    /// quality-within-budget check: must be ≤ `budget_percent / 100`.
    pub realized_error: f64,
    /// Largest static threshold whose *worst-case* output error (every
    /// approximable word off by the full threshold) still meets the budget —
    /// what an offline configuration must pick to guarantee the budget.
    pub static_percent: u32,
    /// Realized kernel output error at that static threshold.
    pub static_error: f64,
    /// Network compression ratio delivered by the per-flow QoS run.
    pub qos_compression: f64,
    /// Network compression ratio of the static-threshold run.
    pub static_compression: f64,
    /// Average packet latency of the QoS run (cycles).
    pub qos_latency: f64,
    /// Average packet latency of the static run (cycles).
    pub static_latency: f64,
    /// Delivered data quality of the QoS run's measurement window.
    pub qos_quality: f64,
    /// End-to-end bound violations in the QoS run (must be 0: no flow may
    /// approximate past the spec ceiling).
    pub qos_violations: u64,
}

impl QosStudyRow {
    /// Whether the realized output error landed within the budget.
    pub fn within_budget(&self) -> bool {
        self.realized_error <= f64::from(self.budget_percent) / 100.0 + 1e-9
    }

    /// Whether the QoS run delivered at least the static run's compression.
    pub fn beats_static(&self) -> bool {
        self.qos_compression >= self.static_compression
    }
}

/// The QoS campaign: for every fig16/17 mini-kernel (paired with its
/// benchmark traffic profile) and every output-error budget,
///
/// 1. converge an app-level AIMD controller ([`QualityController`]) on the
///    kernel's realized output error — epochs of kernel evaluation feeding
///    `observe_epoch` until the threshold stabilizes;
/// 2. find the largest *worst-case-safe* static threshold: the offline
///    alternative must assume every approximable word errs by the full
///    threshold ([`AdversarialTransport`]), which is exactly the headroom a
///    runtime controller can harvest and a static pick cannot;
/// 3. run the network under the per-flow QoS control plane
///    ([`QosSpec::paper`] at the budget's quality floor) and under the
///    static threshold, and compare delivered compression.
///
/// [`QualityController`]: anoc_core::control::QualityController
/// [`QosSpec::paper`]: anoc_core::control::QosSpec::paper
/// [`AdversarialTransport`]: anoc_apps::transport::AdversarialTransport
pub fn qos_study(config: &SystemConfig, seed: u64, budgets: &[u32]) -> Vec<QosStudyRow> {
    use anoc_apps::transport::{AdversarialTransport, ApproxTransport, PreciseTransport};
    use anoc_core::control::{QosSpec, QualityController};
    use anoc_core::threshold::ErrorThreshold;

    let kernels = anoc_apps::default_kernels();
    // Application side first (cheap, this thread): per (kernel, budget),
    // converge the app-level controller and find the worst-case-safe static
    // threshold. The static percent feeds the network job below.
    struct AppSide {
        converged_percent: u32,
        realized_error: f64,
        static_percent: u32,
        static_error: f64,
    }
    let mut app: Vec<AppSide> = Vec::new();
    for (kernel, _) in kernels.iter().zip(Benchmark::ALL) {
        let precise = kernel.run(&mut PreciseTransport);
        for &budget in budgets {
            let target = 1.0 - f64::from(budget) / 100.0;
            let error_at = |percent: u32| -> f64 {
                if percent == 0 {
                    return 0.0;
                }
                let t = ErrorThreshold::from_percent(percent).expect("valid percent");
                let out = kernel.run(&mut ApproxTransport::fp_vaxx(t));
                kernel.output_error(&precise, &out)
            };
            // 1. App-level convergence: epochs of kernel evaluation, AIMD on
            // the realized output quality. Converged when one full epoch
            // leaves the threshold unchanged (bounded walk: the percent
            // range is 1..=20 and AIMD moves monotonically between limit
            // points, so 16 epochs is generous).
            let mut ctl = QualityController::new(target.max(1e-6), 10, 1, 20);
            let mut percent = ctl.percent();
            let mut realized = error_at(percent);
            for _ in 0..16 {
                ctl.observe_epoch(1.0 - realized, 1, 0);
                if ctl.percent() == percent {
                    break;
                }
                percent = ctl.percent();
                realized = error_at(percent);
            }
            // 2. The offline pick: largest threshold whose worst-case output
            // error still meets the budget.
            let worst_at = |percent: u32| -> f64 {
                let t = ErrorThreshold::from_percent(percent).expect("valid percent");
                let out = kernel.run(&mut AdversarialTransport::new(t));
                kernel.output_error(&precise, &out)
            };
            let static_percent = (1..=20u32)
                .rev()
                .find(|&p| worst_at(p) <= f64::from(budget) / 100.0 + 1e-9)
                .unwrap_or(0);
            let static_error = error_at(static_percent);
            app.push(AppSide {
                converged_percent: percent,
                realized_error: realized,
                static_percent,
                static_error,
            });
        }
    }
    // Network side: one per-flow QoS cell plus one static cell per row, as
    // one parallel campaign.
    let mut jobs = Vec::new();
    let mut idx = 0usize;
    for (_, benchmark) in kernels.iter().zip(Benchmark::ALL) {
        for &budget in budgets {
            let floor_ppm = 1_000_000u32.saturating_sub(budget.saturating_mul(10_000));
            // Two study-scale adjustments to the paper spec: the per-flow
            // anti-windup floor (64 words/epoch) is sized for long
            // production runs and would hold sparse flows at their initial
            // threshold forever at campaign scale, and the start is made
            // optimistic (begin at the ceiling, tighten on violation) so a
            // flow whose first packet arrives mid-measurement is not
            // permanently behind the static ladder it is compared against.
            let base = QosSpec::paper(floor_ppm);
            let spec = QosSpec {
                min_words: 1,
                initial_percent: base.max_percent,
                ..base
            };
            let qos_cfg = config.clone().with_qos(spec);
            jobs.push(benchmark_job(benchmark, Mechanism::FpVaxx, &qos_cfg, seed));
            let static_cfg = config.clone().with_threshold(app[idx].static_percent);
            jobs.push(benchmark_job(
                benchmark,
                Mechanism::FpVaxx,
                &static_cfg,
                seed,
            ));
            idx += 1;
        }
    }
    let mut results = context().run("qos", jobs).into_iter();
    let mut rows = Vec::new();
    let mut idx = 0usize;
    for (kernel, benchmark) in kernels.iter().zip(Benchmark::ALL) {
        for &budget in budgets {
            let a = &app[idx];
            idx += 1;
            let qos_run = results.next().expect("qos cell");
            let static_run = results.next().expect("static cell");
            rows.push(QosStudyRow {
                kernel: kernel.name(),
                benchmark,
                budget_percent: budget,
                converged_percent: a.converged_percent,
                realized_error: a.realized_error,
                static_percent: a.static_percent,
                static_error: a.static_error,
                qos_compression: qos_run.stats.encode.compression_ratio(),
                static_compression: static_run.stats.encode.compression_ratio(),
                qos_latency: qos_run.avg_packet_latency(),
                static_latency: static_run.avg_packet_latency(),
                qos_quality: qos_run.data_quality(),
                qos_violations: qos_run.stats.faults.bound_violations,
            });
        }
    }
    rows
}

/// Renders the QoS campaign as a text table with a per-budget summary of
/// budget compliance and the QoS-vs-static compression score.
pub fn render_qos(rows: &[QosStudyRow]) -> String {
    let mut out = String::from(
        "Per-flow QoS campaign: runtime control loop vs worst-case-safe static threshold\n\
         kernel          budget%  conv%  realized_err  static%  static_err  qos_comp  static_comp  qos_lat  quality  in_budget\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:>7} {:>6} {:>13.4} {:>8} {:>11.4} {:>9.3} {:>12.3} {:>8.2} {:>8.4} {:>10}\n",
            r.kernel,
            r.budget_percent,
            r.converged_percent,
            r.realized_error,
            r.static_percent,
            r.static_error,
            r.qos_compression,
            r.static_compression,
            r.qos_latency,
            r.qos_quality,
            if r.within_budget() { "yes" } else { "NO" },
        ));
    }
    let mut budgets: Vec<u32> = rows.iter().map(|r| r.budget_percent).collect();
    budgets.sort_unstable();
    budgets.dedup();
    for b in budgets {
        let of_budget: Vec<&QosStudyRow> = rows.iter().filter(|r| r.budget_percent == b).collect();
        let within = of_budget.iter().filter(|r| r.within_budget()).count();
        let beats = of_budget.iter().filter(|r| r.beats_static()).count();
        out.push_str(&format!(
            "summary: at {b}% budget, {within}/{} apps within budget; QoS compression >= static on {beats}/{}\n",
            of_budget.len(),
            of_budget.len(),
        ));
    }
    out
}

/// Serialises the QoS campaign as CSV.
pub fn qos_csv(rows: &[QosStudyRow]) -> String {
    let mut out = String::from(
        "kernel,benchmark,budget_percent,converged_percent,realized_error,static_percent,static_error,qos_compression,static_compression,qos_latency,static_latency,qos_quality,qos_violations,within_budget,beats_static\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{:.6},{},{:.6},{:.6},{:.6},{:.4},{:.4},{:.6},{},{},{}\n",
            r.kernel,
            r.benchmark.name(),
            r.budget_percent,
            r.converged_percent,
            r.realized_error,
            r.static_percent,
            r.static_error,
            r.qos_compression,
            r.static_compression,
            r.qos_latency,
            r.static_latency,
            r.qos_quality,
            r.qos_violations,
            r.within_budget(),
            r.beats_static(),
        ));
    }
    out
}

/// Serialises the QoS campaign as JSON (schema documented in
/// EXPERIMENTS.md): `{"study":"qos","rows":[{...}, ...]}`.
pub fn qos_json(rows: &[QosStudyRow]) -> String {
    let mut out = String::from("{\"study\":\"qos\",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"kernel\":\"{}\",\"benchmark\":\"{}\",\"budget_percent\":{},\
             \"converged_percent\":{},\"realized_error\":{:.6},\
             \"static_percent\":{},\"static_error\":{:.6},\
             \"qos_compression\":{:.6},\"static_compression\":{:.6},\
             \"qos_latency\":{:.4},\"static_latency\":{:.4},\
             \"qos_quality\":{:.6},\"qos_violations\":{},\
             \"within_budget\":{},\"beats_static\":{}}}",
            r.kernel,
            r.benchmark.name(),
            r.budget_percent,
            r.converged_percent,
            r.realized_error,
            r.static_percent,
            r.static_error,
            r.qos_compression,
            r.static_compression,
            r.qos_latency,
            r.static_latency,
            r.qos_quality,
            r.qos_violations,
            r.within_budget(),
            r.beats_static(),
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// One bar of Figure 15: dynamic power normalized to baseline.
#[derive(Debug, Clone, Copy)]
pub struct Fig15Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// Dynamic power normalized to the baseline run of the same benchmark.
    pub normalized_power: f64,
}

/// Figure 15: dynamic power consumption normalized to baseline.
pub fn fig15(matrix: &BenchmarkMatrix) -> Vec<Fig15Row> {
    let model = EnergyModel::default();
    let mut rows = Vec::new();
    for (b, runs) in &matrix.cells {
        let base = model.dynamic_power(&runs[0].activity).max(1e-12);
        for r in runs {
            rows.push(Fig15Row {
                benchmark: *b,
                mechanism: r.mechanism,
                normalized_power: model.dynamic_power(&r.activity) / base,
            });
        }
    }
    rows
}

/// Renders Figure 15 as a text table.
pub fn render_fig15(rows: &[Fig15Row]) -> String {
    let mut out = String::from(
        "Figure 15: Dynamic Power (normalized to Baseline)\nbenchmark      mechanism  normalized\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<9} {:>10.3}\n",
            r.benchmark.name(),
            r.mechanism.name(),
            r.normalized_power
        ));
    }
    out
}

/// One point of Figure 16: application output error and normalized
/// performance at an error budget.
#[derive(Debug, Clone)]
pub struct Fig16Row {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Data error budget in percent (0, 10, 20).
    pub budget_percent: u32,
    /// Output error with the real FP-VAXX value path (typically far below
    /// the budget because matches land in close proximity).
    pub output_error: f64,
    /// Output error when the data channel spends the *entire* budget on
    /// every approximable word (the pessimistic bound; the paper's measured
    /// errors lie between `output_error` and this).
    pub worst_case_error: f64,
    /// Runtime performance normalized to the 0% budget.
    pub normalized_performance: f64,
}

/// Figure 16: application output accuracy and normalized performance for
/// data error budgets of 0/10/20%.
///
/// Output error comes from running the real kernels through an FP-VAXX
/// value path at each budget. Performance comes from the NoC: the measured
/// latency improvement of FP-VAXX at each budget over the 0% (exact
/// compression) case, scaled by the benchmark's sharing degree — the §5.4
/// observation that "higher degree of sharing leads to ... improving the
/// efficacy of our mechanism".
pub fn fig16(config: &SystemConfig, seed: u64) -> Vec<Fig16Row> {
    use anoc_apps::transport::{ApproxTransport, PreciseTransport};
    use anoc_core::threshold::ErrorThreshold;
    let budgets = [0u32, 10, 20];
    let kernels = anoc_apps::default_kernels();
    // The network cells (one FP-COMP anchor plus one FP-VAXX run per nonzero
    // budget, per benchmark) go through a campaign; the application kernels
    // are cheap and stay on this thread.
    let mut jobs = Vec::new();
    for (_, benchmark) in kernels.iter().zip(Benchmark::ALL) {
        jobs.push(benchmark_job(benchmark, Mechanism::FpComp, config, seed));
        for &budget in &budgets[1..] {
            let cfg = config.clone().with_threshold(budget);
            jobs.push(benchmark_job(benchmark, Mechanism::FpVaxx, &cfg, seed));
        }
    }
    let mut lats = context()
        .run("fig16", jobs)
        .into_iter()
        .map(|r| r.avg_packet_latency());
    let mut rows = Vec::new();
    for (kernel, benchmark) in kernels.iter().zip(Benchmark::ALL) {
        let precise = kernel.run(&mut PreciseTransport);
        let sharing = benchmark.profile().sharing;
        // Latency at 0% budget (exact compression) anchors performance.
        let lat0 = lats.next().expect("anchor cell");
        for budget in budgets {
            let (error, worst, lat) = if budget == 0 {
                (0.0, 0.0, lat0)
            } else {
                let threshold = ErrorThreshold::from_percent(budget).expect("valid budget");
                let mut t = ApproxTransport::fp_vaxx(threshold);
                let approx = kernel.run(&mut t);
                let err = kernel.output_error(&precise, &approx);
                let mut adv = anoc_apps::transport::AdversarialTransport::new(threshold);
                let worst_out = kernel.run(&mut adv);
                let worst = kernel.output_error(&precise, &worst_out);
                let lat = lats.next().expect("budget cell");
                (err, worst, lat)
            };
            // Network latency improvement → runtime improvement, scaled by
            // how communication-bound (sharing-heavy) the benchmark is.
            let latency_gain = ((lat0 - lat) / lat0).max(0.0);
            let normalized_performance = 1.0 + sharing * latency_gain;
            rows.push(Fig16Row {
                benchmark: kernel.name(),
                budget_percent: budget,
                output_error: error,
                worst_case_error: worst,
                normalized_performance,
            });
        }
    }
    rows
}

/// Renders Figure 16 as a text table.
pub fn render_fig16(rows: &[Fig16Row]) -> String {
    let mut out = String::from(
        "Figure 16: Application Output Accuracy and Normalized Performance\n\
         benchmark      budget%  error(FP-VAXX)  error(worst-case)  accuracy%  norm_perf\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>7} {:>15.4} {:>18.4} {:>10.2} {:>10.3}\n",
            r.benchmark,
            r.budget_percent,
            r.output_error,
            r.worst_case_error,
            (1.0 - r.worst_case_error) * 100.0,
            r.normalized_performance
        ));
    }
    out
}

/// The Figure 17 artefacts: precise and approximate bodytrack outputs.
#[derive(Debug, Clone)]
pub struct Fig17Result {
    /// Mean output-vector difference (the paper reports 2.4% at 10%).
    pub vector_difference: f64,
    /// PGM bytes of a precise frame (for writing to disk).
    pub precise_pgm: Vec<u8>,
    /// PGM bytes of the corresponding approximate frame.
    pub approx_pgm: Vec<u8>,
}

/// Figure 17: precise vs approximate bodytrack output at a 10% threshold.
pub fn fig17(seed: u64) -> Fig17Result {
    use anoc_apps::bodytrack::{frame_to_pgm, Bodytrack};
    use anoc_apps::transport::ApproxTransport;
    use anoc_core::threshold::ErrorThreshold;
    let kernel = Bodytrack::new(64, 3, 10, seed);
    let (frames, _) = kernel.render();
    let mut transport =
        ApproxTransport::fp_vaxx(ErrorThreshold::from_percent(10).expect("10% is valid"));
    let (precise, approx, err) = anoc_apps::kernel::evaluate(&kernel, &mut transport);
    debug_assert_eq!(precise.len(), approx.len());
    // Render the mid-sequence frame both ways for visual comparison.
    let mid = frames.len() / 2;
    let precise_frame = &frames[mid];
    let mut t2 = ApproxTransport::fp_vaxx(ErrorThreshold::from_percent(10).expect("10% is valid"));
    let approx_frame = anoc_apps::transport::BlockTransport::transmit_f32(&mut t2, precise_frame);
    Fig17Result {
        vector_difference: err,
        precise_pgm: frame_to_pgm(precise_frame, kernel.size),
        approx_pgm: frame_to_pgm(&approx_frame, kernel.size),
    }
}

/// Extension study (beyond the paper's five mechanisms): the VAXX engine
/// plugged into a third compression family — base-delta (BD-COMP/BD-VAXX,
/// after the Zhan et al. mechanism cited in §6) — plus Jin et al.'s
/// adaptive on/off controller wrapped around FP-COMP. Demonstrates the §1
/// claim that VAXX is a "plug and play module for any underlying NoC data
/// compression mechanism".
pub fn extension_study(benchmark: Benchmark, config: &SystemConfig, seed: u64) -> Vec<RunResult> {
    const MECHANISMS: [Mechanism; 6] = [
        Mechanism::FpComp,
        Mechanism::FpVaxx,
        Mechanism::Custom("BD-COMP"),
        Mechanism::Custom("BD-VAXX"),
        Mechanism::Custom("FP-adaptive"),
        Mechanism::Custom("FP-VAXX-win"),
    ];
    let jobs = MECHANISMS
        .iter()
        .map(|&mechanism| {
            let id = format!("ext/{}/{}", benchmark.name(), mechanism.name());
            let key = cell_key("ext", config, mechanism.name(), benchmark.name(), seed);
            let config = config.clone();
            JobSpec::new(id, key, move || {
                run_extension_cell(benchmark, mechanism, &config, seed)
            })
        })
        .collect();
    context().run("extensions", jobs)
}

/// Runs one extension-study cell: `mechanism`'s codec family (built fresh
/// per node) under benchmark traffic.
fn run_extension_cell(
    benchmark: Benchmark,
    mechanism: Mechanism,
    config: &SystemConfig,
    seed: u64,
) -> RunResult {
    use anoc_compression::adaptive::AdaptiveEncoder;
    use anoc_compression::bd::{BdDecoder, BdEncoder};
    use anoc_compression::fp::{FpDecoder, FpEncoder};
    use anoc_core::avcl::Avcl;
    use anoc_core::window::WindowBudget;
    use anoc_noc::NodeCodec;

    let nodes = config.noc.num_nodes();
    let t = config.threshold();
    let factory = || -> NodeCodec {
        match mechanism.name() {
            "FP-COMP" => NodeCodec::new(Box::new(FpEncoder::fp_comp()), Box::new(FpDecoder::new())),
            "FP-VAXX" => NodeCodec::new(
                Box::new(FpEncoder::fp_vaxx(Avcl::new(t))),
                Box::new(FpDecoder::new()),
            ),
            "BD-COMP" => NodeCodec::new(Box::new(BdEncoder::bd_comp()), Box::new(BdDecoder::new())),
            "BD-VAXX" => NodeCodec::new(
                Box::new(BdEncoder::bd_vaxx(Avcl::new(t))),
                Box::new(BdDecoder::new()),
            ),
            "FP-adaptive" => NodeCodec::new(
                Box::new(AdaptiveEncoder::new(FpEncoder::fp_comp())),
                Box::new(FpDecoder::new()),
            ),
            "FP-VAXX-win" => NodeCodec::new(
                Box::new(FpEncoder::fp_vaxx_windowed(WindowBudget::new(
                    16,
                    t.percent().max(1),
                ))),
                Box::new(FpDecoder::new()),
            ),
            other => panic!("unknown extension mechanism {other}"),
        }
    };
    let spec = RunSpec {
        traffic: Traffic::Benchmark {
            benchmark,
            seed,
            snapshots: SnapshotPolicy::cold(),
        },
        codecs: Codecs::Custom(mechanism, (0..nodes).map(|_| factory()).collect()),
        config,
    };
    match run(spec) {
        Ok(outcome) => outcome.result,
        Err(e) => panic!("simulation failed: {e}"),
    }
}

/// Renders the extension study as a text table.
pub fn render_extension(benchmark: Benchmark, results: &[RunResult]) -> String {
    let mut out = format!(
        "Extension study ({benchmark}): VAXX plugged into three compression families\n\
         mechanism     latency  norm_flits  comp_ratio  approx_frac  quality\n"
    );
    for r in results {
        out.push_str(&format!(
            "{:<13} {:>8.2} {:>11.3} {:>11.3} {:>12.3} {:>8.4}{}\n",
            r.mechanism.name(),
            r.avg_packet_latency(),
            r.stats.normalized_data_flits(),
            r.stats.encode.compression_ratio(),
            r.stats.encode.approx_fraction(),
            r.data_quality(),
            // A run that outlived its drain budget reports lower-bound
            // delivery stats, not final ones — say so on the cell's line.
            if r.drained { "" } else { "  [undrained]" },
        ));
    }
    out
}

/// One cell of the LZ-VAXX study (`anoc run lz`): one mechanism at one
/// error threshold on one benchmark, with the end-to-end bound auditor armed.
#[derive(Debug, Clone, Copy)]
pub struct LzStudyRow {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Error threshold percentage of this sweep point.
    pub threshold_percent: u32,
    /// Mechanism (DI-VAXX, FP-VAXX or LZ-VAXX).
    pub mechanism: Mechanism,
    /// Compression ratio (input bits / output bits).
    pub compression_ratio: f64,
    /// The encoder's pipeline latency in cycles (LZ-VAXX pays one extra
    /// cycle for cross-word match extension).
    pub encode_latency_cycles: u64,
    /// Average end-to-end packet latency in cycles.
    pub avg_packet_latency: f64,
    /// Data value quality (1 − mean relative word error).
    pub quality: f64,
    /// Delivered words audited by the end-to-end bound checker.
    pub bound_checked_words: u64,
    /// Audited words whose error exceeded the threshold (must be 0 in a
    /// fault-free run for every enumerated mechanism).
    pub bound_violations: u64,
}

/// The LZ-VAXX study: sweeps `thresholds` × `benchmarks` × the three VAXX
/// mechanisms (DI, FP, LZ) with the bound auditor armed, so LZ-VAXX's
/// compression ratio, encode latency and output quality land next to the
/// paper's two mechanisms at equal error budgets.
pub fn lz_study(
    config: &SystemConfig,
    seed: u64,
    thresholds: &[u32],
    benchmarks: &[Benchmark],
) -> Vec<LzStudyRow> {
    const MECHANISMS: [Mechanism; 3] = [Mechanism::DiVaxx, Mechanism::FpVaxx, Mechanism::LzVaxx];
    let mut jobs = Vec::new();
    for &t in thresholds {
        let cfg = config.clone().with_threshold(t);
        for &b in benchmarks {
            for m in MECHANISMS {
                jobs.push(benchmark_job(b, m, &cfg, seed));
            }
        }
    }
    let mut results = context().run("lz", jobs).into_iter();
    let mut rows = Vec::new();
    for &t in thresholds {
        let threshold = config.clone().with_threshold(t).threshold();
        for &b in benchmarks {
            for m in MECHANISMS {
                let r = results.next().expect("one result per cell");
                rows.push(LzStudyRow {
                    benchmark: b,
                    threshold_percent: t,
                    mechanism: m,
                    compression_ratio: r.stats.encode.compression_ratio(),
                    encode_latency_cycles: m.codecs(1, threshold)[0].encoder.compression_latency(),
                    avg_packet_latency: r.avg_packet_latency(),
                    quality: r.data_quality(),
                    bound_checked_words: r.stats.faults.bound_checked_words,
                    bound_violations: r.stats.faults.bound_violations,
                });
            }
        }
    }
    rows
}

/// Renders the LZ-VAXX study as a text table, with a per-threshold summary
/// of how many apps LZ-VAXX compresses at least as well as DI-VAXX on.
pub fn render_lz(rows: &[LzStudyRow]) -> String {
    let mut out = String::from(
        "LZ-VAXX study: streaming approximate-LZ vs DI-VAXX / FP-VAXX\n\
         threshold%  benchmark      mechanism  comp_ratio  enc_lat  latency  quality  checked  violations\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>9} {:<15} {:<9} {:>11.3} {:>8} {:>8.2} {:>8.4} {:>8} {:>11}\n",
            r.threshold_percent,
            r.benchmark.name(),
            r.mechanism.name(),
            r.compression_ratio,
            r.encode_latency_cycles,
            r.avg_packet_latency,
            r.quality,
            r.bound_checked_words,
            r.bound_violations,
        ));
    }
    let mut thresholds: Vec<u32> = rows.iter().map(|r| r.threshold_percent).collect();
    thresholds.dedup();
    for t in thresholds {
        let di: Vec<&LzStudyRow> = rows
            .iter()
            .filter(|r| r.threshold_percent == t && r.mechanism == Mechanism::DiVaxx)
            .collect();
        let wins = rows
            .iter()
            .filter(|r| r.threshold_percent == t && r.mechanism == Mechanism::LzVaxx)
            .filter(|lz| {
                di.iter().any(|d| {
                    d.benchmark == lz.benchmark && lz.compression_ratio >= d.compression_ratio
                })
            })
            .count();
        out.push_str(&format!(
            "summary: at {t}% threshold LZ-VAXX >= DI-VAXX compression on {wins}/{} apps\n",
            di.len()
        ));
    }
    out
}

/// Serialises the LZ-VAXX study as CSV.
pub fn lz_csv(rows: &[LzStudyRow]) -> String {
    let mut out = String::from(
        "threshold_percent,benchmark,mechanism,compression_ratio,encode_latency_cycles,avg_packet_latency,quality,bound_checked_words,bound_violations\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{:.6},{},{:.4},{:.6},{},{}\n",
            r.threshold_percent,
            r.benchmark.name(),
            r.mechanism.name(),
            r.compression_ratio,
            r.encode_latency_cycles,
            r.avg_packet_latency,
            r.quality,
            r.bound_checked_words,
            r.bound_violations,
        ));
    }
    out
}

/// Serialises the LZ-VAXX study as JSON (schema documented in
/// EXPERIMENTS.md): `{"study":"lz","rows":[{...}, ...]}`.
pub fn lz_json(rows: &[LzStudyRow]) -> String {
    let mut out = String::from("{\"study\":\"lz\",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"threshold_percent\":{},\"benchmark\":\"{}\",\"mechanism\":\"{}\",\
             \"compression_ratio\":{:.6},\"encode_latency_cycles\":{},\
             \"avg_packet_latency\":{:.4},\"quality\":{:.6},\
             \"bound_checked_words\":{},\"bound_violations\":{}}}",
            r.threshold_percent,
            r.benchmark.name(),
            r.mechanism.name(),
            r.compression_ratio,
            r.encode_latency_cycles,
            r.avg_packet_latency,
            r.quality,
            r.bound_checked_words,
            r.bound_violations,
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Serialises Figure 9 rows as CSV.
pub fn fig9_csv(rows: &[Fig9Row]) -> String {
    let mut out = String::from("benchmark,mechanism,queue_lat,net_lat,decode_lat,total,quality\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.4},{:.4},{:.4},{:.4},{:.6}\n",
            r.benchmark.name(),
            r.mechanism.name(),
            r.queue_lat,
            r.net_lat,
            r.decode_lat,
            r.total(),
            r.quality
        ));
    }
    out
}

/// Serialises Figure 10 rows as CSV.
pub fn fig10_csv(rows: &[Fig10Row]) -> String {
    let mut out =
        String::from("benchmark,mechanism,exact_fraction,approx_fraction,compression_ratio\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.6},{:.6},{:.6}\n",
            r.benchmark.name(),
            r.mechanism.name(),
            r.exact_fraction,
            r.approx_fraction,
            r.compression_ratio
        ));
    }
    out
}

/// Serialises Figure 11 rows as CSV.
pub fn fig11_csv(rows: &[Fig11Row]) -> String {
    let mut out = String::from("benchmark,mechanism,normalized_data_flits\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.6}\n",
            r.benchmark.name(),
            r.mechanism.name(),
            r.normalized_flits
        ));
    }
    out
}

/// Serialises Figure 12 series as CSV (long format).
pub fn fig12_csv(label: &str, series: &[Fig12Series]) -> String {
    let mut out = String::from("panel,mechanism,injection_rate,latency\n");
    for s in series {
        for (rate, lat) in &s.points {
            out.push_str(&format!(
                "{label},{},{rate:.3},{lat:.4}\n",
                s.mechanism.name()
            ));
        }
    }
    out
}

/// Serialises sensitivity (Figure 13/14) rows as CSV.
pub fn sensitivity_csv(rows: &[SensitivityRow]) -> String {
    let mut out = String::from("benchmark,family,setting,latency\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},compression,{:.4}\n",
            r.benchmark.name(),
            r.family,
            r.compression_latency
        ));
        for (setting, lat) in &r.vaxx_latencies {
            out.push_str(&format!(
                "{},{},{setting},{lat:.4}\n",
                r.benchmark.name(),
                r.family
            ));
        }
    }
    out
}

/// Serialises Figure 15 rows as CSV.
pub fn fig15_csv(rows: &[Fig15Row]) -> String {
    let mut out = String::from("benchmark,mechanism,normalized_dynamic_power\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.6}\n",
            r.benchmark.name(),
            r.mechanism.name(),
            r.normalized_power
        ));
    }
    out
}

/// Serialises Figure 16 rows as CSV.
pub fn fig16_csv(rows: &[Fig16Row]) -> String {
    let mut out = String::from(
        "benchmark,budget_percent,output_error,worst_case_error,normalized_performance\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.6},{:.6},{:.6}\n",
            r.benchmark,
            r.budget_percent,
            r.output_error,
            r.worst_case_error,
            r.normalized_performance
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SystemConfig {
        SystemConfig::paper().with_sim_cycles(2_000)
    }

    #[test]
    fn matrix_and_figures_9_10_11_15() {
        let cfg = tiny();
        let matrix = BenchmarkMatrix::run(&cfg, 1);
        assert_eq!(matrix.cells.len(), 8);

        let f9 = fig9(&matrix);
        assert_eq!(f9.len(), 40);
        assert!(f9.iter().all(|r| r.total() > 0.0));
        assert!(render_fig9(&f9).contains("ssca2"));

        let f10 = fig10(&matrix);
        assert_eq!(f10.len(), 32, "baseline excluded");
        assert!(f10.iter().all(|r| r.compression_ratio >= 0.9));
        assert!(render_fig10(&f10).contains("FP-VAXX"));

        let f11 = fig11(&matrix);
        let base_rows: Vec<_> = f11
            .iter()
            .filter(|r| r.mechanism == Mechanism::Baseline)
            .collect();
        assert!(base_rows
            .iter()
            .all(|r| (r.normalized_flits - 1.0).abs() < 1e-9));
        assert!(render_fig11(&f11).contains("normalized"));

        let f15 = fig15(&matrix);
        assert_eq!(f15.len(), 40);
        let base_power: Vec<_> = f15
            .iter()
            .filter(|r| r.mechanism == Mechanism::Baseline)
            .collect();
        assert!(base_power
            .iter()
            .all(|r| (r.normalized_power - 1.0).abs() < 1e-9));
        assert!(render_fig15(&f15).contains("Dynamic Power"));

        // The headline relationship: VAXX compresses at least as well as the
        // exact version on the data-intensive benchmark.
        let di = matrix.get(Benchmark::Ssca2, Mechanism::DiComp);
        let divaxx = matrix.get(Benchmark::Ssca2, Mechanism::DiVaxx);
        assert!(divaxx.stats.encode.encoded_fraction() >= di.stats.encode.encoded_fraction());
    }

    #[test]
    fn fig12_saturates_in_rate_order() {
        let cfg = SystemConfig::paper().with_sim_cycles(1_500);
        let series = fig12(
            Benchmark::Blackscholes,
            DestPattern::UniformRandom,
            &[0.05, 0.45],
            &cfg,
            3,
        );
        assert_eq!(series.len(), 5);
        for s in &series {
            assert!(!s.points.is_empty());
            // Latency grows (weakly) with offered load.
            if s.points.len() == 2 {
                assert!(s.points[1].1 >= s.points[0].1 * 0.8);
            }
        }
        let txt = render_fig12("test UR", &series);
        assert!(txt.contains("saturation"));
    }

    #[test]
    fn sensitivity_sweep_single_benchmark() {
        let cfg = SystemConfig::paper().with_sim_cycles(1_200);
        let rows = sensitivity_sweep(&cfg, 9, &[Benchmark::Swaptions], &[5, 20], |c, s| {
            c.with_threshold(s)
        });
        assert_eq!(rows.len(), 2, "one row per codec family");
        for r in &rows {
            assert_eq!(r.vaxx_latencies.len(), 2);
            assert!(r.compression_latency > 0.0);
            assert!(r.vaxx_latencies.iter().all(|(_, l)| *l > 0.0));
        }
        let txt = render_sensitivity("test", &rows);
        assert!(txt.contains("DI-based") && txt.contains("FP-based"));
        let csv = sensitivity_csv(&rows);
        assert!(csv.lines().count() == 1 + 2 * 3, "{csv}");
    }

    #[test]
    fn lz_study_audits_bounds_and_reports_all_three_mechanisms() {
        let cfg = SystemConfig::paper().with_sim_cycles(1_500);
        let rows = lz_study(&cfg, 6, &[10], &[Benchmark::Ssca2, Benchmark::Blackscholes]);
        assert_eq!(rows.len(), 6, "2 benchmarks x 3 mechanisms");
        for r in &rows {
            assert!(r.compression_ratio >= 0.9, "{r:?}");
            assert!(r.bound_checked_words > 0, "auditor must be armed: {r:?}");
            assert_eq!(r.bound_violations, 0, "fault-free run violated: {r:?}");
            assert!(r.quality > 0.9, "{r:?}");
        }
        let lz: Vec<_> = rows
            .iter()
            .filter(|r| r.mechanism == Mechanism::LzVaxx)
            .collect();
        assert_eq!(lz.len(), 2);
        assert!(lz.iter().all(|r| r.encode_latency_cycles == 4));

        let txt = render_lz(&rows);
        assert!(
            txt.contains("LZ-VAXX") && txt.contains("summary: at 10%"),
            "{txt}"
        );
        let csv = lz_csv(&rows);
        assert_eq!(csv.lines().count(), 1 + 6);
        let json = lz_json(&rows);
        assert!(json.starts_with("{\"study\":\"lz\",\"rows\":["), "{json}");
        assert_eq!(json.matches("\"mechanism\":\"LZ-VAXX\"").count(), 2);
        assert!(json.trim_end().ends_with("]}"), "{json}");
    }

    #[test]
    fn fig17_produces_images_and_small_difference() {
        let r = fig17(5);
        assert!(r.precise_pgm.starts_with(b"P5\n64 64\n255\n"));
        assert_eq!(r.precise_pgm.len(), r.approx_pgm.len());
        assert!(r.vector_difference < 0.15, "{}", r.vector_difference);
        // Figure 17's point is visual indistinguishability: at most a small
        // fraction of the 8-bit pixels may move, and only barely.
        let diffs = r
            .precise_pgm
            .iter()
            .zip(&r.approx_pgm)
            .filter(|(a, b)| a != b)
            .count();
        assert!(diffs < r.precise_pgm.len() / 4, "{diffs} bytes differ");
        for (a, b) in r.precise_pgm.iter().zip(&r.approx_pgm).skip(13) {
            assert!(a.abs_diff(*b) <= 26, "pixel moved {a} -> {b}");
        }
    }
}
