//! One runner per table/figure of the paper's evaluation (§5).
//!
//! Every function regenerates the corresponding result: the same rows or
//! series the paper plots, as the figure's [`Table`] ([`fig9`] …
//! [`lz_study`]) or, where the text form is no table, as typed rows
//! ([`SensitivityRow`], [`Fig12Series`]). Absolute numbers differ from
//! the paper (the substrate is a reimplemented simulator driven by modelled
//! traffic); EXPERIMENTS.md records the shape comparison.

use std::collections::BTreeMap;

use anoc_exec::{CellFailure, JobSpec};
use anoc_noc::{FaultPlan, LossPlan};
use anoc_traffic::{Benchmark, DataPool, DestPattern, SyntheticTraffic};

use crate::campaign::{benchmark_job, cell_key, context, pattern_tag};
use crate::config::{Mechanism, SystemConfig};
use crate::power::{AreaModel, EnergyModel};
use crate::runner::try_run_with_source;
pub use crate::runner::RunResult;
use crate::table::Layout::{Left, Right};
use crate::table::{col, data_only, text_only, Cell, Column, Table};

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
    /// Runs all 8 benchmarks × `mechs` as one parallel campaign, results
    /// merged in plan order. [`Mechanism::ALL`] gives the paper's five
    /// columns; `--mechs` can add more (LZ-VAXX as a sixth bar). The first
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

    /// Every run with its benchmark, in plan order.
    fn runs(&self) -> impl Iterator<Item = (Benchmark, &RunResult)> {
        self.cells
            .iter()
            .flat_map(|(b, runs)| runs.iter().map(move |r| (*b, r)))
    }
}

/// Figure 9: average packet latency breakdown and approximation quality.
pub fn fig9(matrix: &BenchmarkMatrix) -> Table {
    let mut t = Table::new(
        "fig9",
        "Figure 9: Average Packet Latency Breakdown and Overall Approximation Quality",
        "benchmark      mechanism  queue_lat  net_lat  decode_lat  total  quality",
        &[
            col("benchmark", Left(14), None),
            col("mechanism", Left(9), None),
            col("queue_lat", Right(9, 2), Some(4)),
            col("net_lat", Right(8, 2), Some(4)),
            col("decode_lat", Right(10, 3), Some(4)),
            col("total", Right(6, 2), Some(4)),
            col("quality", Right(8, 4), Some(6)),
        ],
    );
    for (b, r) in matrix.runs() {
        let queue = r.stats.avg_queue_latency();
        let net = r.stats.avg_net_latency();
        let decode = r.stats.avg_decode_latency();
        t.row(vec![
            b.name().into(),
            r.mechanism.name().into(),
            queue.into(),
            net.into(),
            decode.into(),
            (queue + net + decode).into(),
            r.data_quality().into(),
        ]);
    }
    t
}

/// Figure 10: encoded-word breakdown (a) and compression ratio (b) of the
/// compression mechanisms; Baseline is omitted as in the paper. The text
/// form adds the encoded total.
pub fn fig10(matrix: &BenchmarkMatrix) -> Table {
    let mut t = Table::new(
        "fig10",
        "Figure 10: Encoded Word Fraction (exact + approx) and Compression Ratio",
        "benchmark      mechanism  exact_frac  approx_frac  total_frac  comp_ratio",
        &[
            col("benchmark", Left(14), None),
            col("mechanism", Left(9), None),
            col("exact_fraction", Right(10, 3), Some(6)),
            col("approx_fraction", Right(12, 3), Some(6)),
            text_only(Right(11, 3)),
            col("compression_ratio", Right(11, 3), Some(6)),
        ],
    );
    for (b, r) in matrix.runs() {
        if r.mechanism == Mechanism::Baseline {
            continue;
        }
        let e = &r.stats.encode;
        t.row(vec![
            b.name().into(),
            r.mechanism.name().into(),
            e.exact_fraction().into(),
            e.approx_fraction().into(),
            (e.exact_fraction() + e.approx_fraction()).into(),
            e.compression_ratio().into(),
        ]);
    }
    t
}

/// Figure 11: injected data flits normalized to the uncompressed baseline.
pub fn fig11(matrix: &BenchmarkMatrix) -> Table {
    normalized_table(
        "fig11",
        "Figure 11: Data Flits Injected (normalized to Baseline)",
        "normalized_data_flits",
        matrix
            .runs()
            .map(|(b, r)| (b, r.mechanism, r.stats.normalized_data_flits())),
    )
}

/// One normalized value per (benchmark, mechanism): Figures 11 and 15.
fn normalized_table(
    study: &str,
    title: &str,
    key: &'static str,
    cells: impl Iterator<Item = (Benchmark, Mechanism, f64)>,
) -> Table {
    let mut t = Table::new(
        study,
        title,
        "benchmark      mechanism  normalized",
        &[
            col("benchmark", Left(14), None),
            col("mechanism", Left(9), None),
            col(key, Right(10, 3), Some(6)),
        ],
    );
    for (b, m, v) in cells {
        t.row(vec![b.name().into(), m.name().into(), v.into()]);
    }
    t
}

/// One latency-vs-injection-rate curve of Figure 12.
#[derive(Debug, Clone)]
pub struct Fig12Series {
    /// Mechanism.
    pub mechanism: Mechanism,
    /// `(offered flits/node/cycle, avg packet latency)` points; the sweep
    /// ends at the first point whose latency is above the cap.
    pub points: Vec<(f64, f64)>,
}

impl Fig12Series {
    /// The saturation rate: the offered rate of the sweep's last point,
    /// which is the first rate whose latency exceeded the cap, or the
    /// highest rate swept if none did.
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
                    try_run_with_source(&mut source, m, &config).map_err(|e| e.to_string())
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

/// Figure 12 panels, each a label and its curves, with one row per swept
/// point, as CSV and JSON print them. The text form prints each curve on one
/// line instead (`anoc run fig12`).
pub fn fig12_table(panels: &[(String, Vec<Fig12Series>)]) -> Table {
    let mut t = Table::data(
        "fig12",
        &[
            data_only("panel", None),
            data_only("mechanism", None),
            data_only("injection_rate", Some(3)),
            data_only("latency", Some(4)),
        ],
    );
    for (label, series) in panels {
        for s in series {
            for &(rate, lat) in &s.points {
                t.row(vec![
                    label.as_str().into(),
                    s.mechanism.name().into(),
                    rate.into(),
                    lat.into(),
                ]);
            }
        }
    }
    t
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

/// Figure 13/14 as a text table: one row per benchmark and codec family,
/// one column per swept setting. [`sensitivity_points`] backs CSV and JSON.
pub fn sensitivity_table(title: &str, rows: &[SensitivityRow]) -> Table {
    let mut header = String::from("benchmark      family    compression");
    let mut columns = vec![
        text_only(Left(14)),
        text_only(Left(9)),
        text_only(Right(10, 2)),
    ];
    if let Some(first) = rows.first() {
        for (s, _) in &first.vaxx_latencies {
            header.push_str(&format!("  vaxx@{s:<3}"));
            columns.push(text_only(Right(8, 2)));
        }
    }
    let mut t = Table::new("sensitivity", title, header, &columns);
    for r in rows {
        let mut cells = vec![
            r.benchmark.name().into(),
            r.family.into(),
            r.compression_latency.into(),
        ];
        cells.extend(r.vaxx_latencies.iter().map(|&(_, lat)| Cell::from(lat)));
        t.row(cells);
    }
    t
}

/// Figure 13/14 with one row per measured latency — the compression anchor,
/// then each swept setting — as its CSV and JSON print it.
pub fn sensitivity_points(study: &str, rows: &[SensitivityRow]) -> Table {
    let mut t = Table::data(
        study,
        &[
            data_only("benchmark", None),
            data_only("family", None),
            data_only("setting", None),
            data_only("latency", Some(4)),
        ],
    );
    for r in rows {
        let anchor = ("compression".to_string(), r.compression_latency);
        let swept = r
            .vaxx_latencies
            .iter()
            .map(|(s, lat)| (s.to_string(), *lat));
        for (setting, lat) in std::iter::once(anchor).chain(swept) {
            t.row(vec![
                r.benchmark.name().into(),
                r.family.into(),
                setting.as_str().into(),
                lat.into(),
            ]);
        }
    }
    t
}

/// The fault-injection resilience sweep: FP-VAXX on `benchmark` at each
/// link bit-flip rate, in flips per million traversals. A cell that failed
/// keeps its rate with empty cells and a note: watchdog aborts at extreme
/// rates are expected behaviour, not sweep-ending errors.
///
/// At rate 0 the fault plan is inert and the cell is bit-identical to a
/// healthy run; violations must be 0 there, and the violation count is
/// non-decreasing in the flip rate.
pub fn faults_sweep(
    benchmark: Benchmark,
    rates_ppm: &[u32],
    config: &SystemConfig,
    seed: u64,
) -> Table {
    let table = Table::new(
        "faults",
        format!("Fault-injection sweep: {} / FP-VAXX", benchmark.name()),
        "flip_ppm    latency   quality   bit_flips    checked  violations",
        &sweep_columns("flip_ppm", "bit_flips"),
    );
    rate_sweep(
        "faults",
        table,
        benchmark,
        rates_ppm,
        seed,
        |ppm| config.clone().with_faults(FaultPlan::bit_flips(seed, ppm)),
        |r| r.stats.faults.bit_flips,
    )
}

/// The lossy-link degradation sweep: FP-VAXX on `benchmark` at each base
/// per-hop word-loss rate, in erasures per million traversals. Each nonzero
/// rate is also scaled by `approx_scale_ppm` per approximation-threshold
/// percent (LORAX-style: aggressively approximated traffic rides the
/// cheaper, lossier signaling). Rate 0 installs an inert plan and is
/// bit-identical to a healthy run: violations must be 0 there, and the
/// violation count is non-decreasing in the loss rate.
pub fn lossy_sweep(
    benchmark: Benchmark,
    rates_ppm: &[u32],
    approx_scale_ppm: u32,
    config: &SystemConfig,
    seed: u64,
) -> Table {
    let table = Table::new(
        "lossy",
        format!("Lossy-link sweep: {} / FP-VAXX", benchmark.name()),
        "loss_ppm    latency   quality  words_lost    checked  violations",
        &sweep_columns("loss_ppm", "words_lost"),
    );
    let plan = |ppm| match ppm {
        0 => LossPlan::none(),
        _ => LossPlan::scaled(seed, ppm, approx_scale_ppm),
    };
    rate_sweep(
        "lossy",
        table,
        benchmark,
        rates_ppm,
        seed,
        |ppm| config.clone().with_loss(plan(ppm)),
        |r| r.stats.faults.words_lost,
    )
}

/// A resilience sweep: one FP-VAXX cell per rate on the configuration
/// `at_rate` returns, run as one fault-tolerant campaign labelled `study`.
/// Each rate fills a row of `table`, with the injected-event count `events`
/// reads.
fn rate_sweep(
    study: &str,
    table: Table,
    benchmark: Benchmark,
    rates_ppm: &[u32],
    seed: u64,
    at_rate: impl Fn(u32) -> SystemConfig,
    events: impl Fn(&RunResult) -> u64,
) -> Table {
    let jobs = rates_ppm
        .iter()
        .map(|&ppm| benchmark_job(benchmark, Mechanism::FpVaxx, &at_rate(ppm), seed))
        .collect();
    let (results, failures, _) = context().run_checked(study, jobs);
    let points = rates_ppm.iter().zip(results).map(|(&ppm, slot)| {
        let cells = slot.map(|r| {
            [
                r.avg_packet_latency().into(),
                r.data_quality().into(),
                events(&r).into(),
                r.stats.faults.bound_checked_words.into(),
                r.stats.faults.bound_violations.into(),
            ]
        });
        (ppm, cells)
    });
    sweep_table(table, points, &failures)
}

/// The columns of a resilience sweep: the swept rate, latency, quality, the
/// injected-event count and the bound checker's two counters. CSV prints
/// every float in its shortest exact form.
fn sweep_columns(rate: &'static str, events: &'static str) -> [Column; 6] {
    [
        col(rate, Right(8, 0), None),
        col("avg_latency", Right(10, 2), None),
        col("quality", Right(9, 4), None),
        col(events, Right(11, 0), None),
        col("bound_checked_words", Right(10, 0), None),
        col("bound_violations", Right(11, 0), None),
    ]
}

/// Fills a resilience-sweep table: one row per rate, empty past the rate
/// where the cell failed, and one note per failure.
fn sweep_table(
    mut t: Table,
    points: impl Iterator<Item = (u32, Option<[Cell; 5]>)>,
    failures: &[CellFailure],
) -> Table {
    for (rate, cells) in points {
        let measured = cells.unwrap_or(std::array::from_fn(|_| Cell::Empty));
        t.row(std::iter::once(rate.into()).chain(measured).collect());
    }
    for f in failures {
        t.note(format!("failed: {f}"));
    }
    t
}

/// The QoS campaign (`anoc run qos`): for every fig16/17 mini-kernel (paired
/// with its benchmark traffic profile) and every output-error budget, one
/// row comparing the runtime per-flow control loop against the best
/// *worst-case-safe* static threshold:
///
/// 1. converge an app-level AIMD controller ([`QualityController`]) on the
///    kernel's realized output error — epochs of kernel evaluation feeding
///    `observe_epoch` until the threshold stabilizes. The realized error
///    must land within the budget (`within_budget`);
/// 2. find the largest *worst-case-safe* static threshold: the offline
///    alternative must assume every approximable word errs by the full
///    threshold ([`AdversarialTransport`]), which is exactly the headroom a
///    runtime controller can harvest and a static pick cannot;
/// 3. run the network under the per-flow QoS control plane
///    ([`QosSpec::paper`] at the budget's quality floor) and under the
///    static threshold, and compare delivered compression (`beats_static`).
///    The QoS run's bound violations must be 0: no flow may approximate
///    past the spec ceiling.
///
/// The text form ends with a per-budget summary of both verdicts.
///
/// [`QualityController`]: anoc_core::control::QualityController
/// [`QosSpec::paper`]: anoc_core::control::QosSpec::paper
/// [`AdversarialTransport`]: anoc_apps::transport::AdversarialTransport
pub fn qos_study(config: &SystemConfig, seed: u64, budgets: &[u32]) -> Table {
    use anoc_apps::transport::{AdversarialTransport, ApproxTransport, PreciseTransport};
    use anoc_core::control::{QosSpec, QualityController};
    use anoc_core::threshold::ErrorThreshold;

    let kernels = anoc_apps::default_kernels();
    // Application side first (cheap, this thread): per (kernel, budget),
    // converge the app-level controller and find the worst-case-safe static
    // threshold, keeping the row's leading cells. Each row's two network
    // cells, per-flow QoS and static, then run as one parallel campaign.
    let mut app = Vec::new();
    let mut jobs = Vec::new();
    for (kernel, benchmark) in kernels.iter().zip(Benchmark::ALL) {
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
            let within = realized <= f64::from(budget) / 100.0 + 1e-9;
            let cells: Vec<Cell> = vec![
                kernel.name().into(),
                benchmark.name().into(),
                budget.into(),
                percent.into(),
                realized.into(),
                static_percent.into(),
                error_at(static_percent).into(),
            ];
            app.push((budget, within, cells));

            // 3. The network cells. Two study-scale adjustments to the paper
            // spec: the per-flow anti-windup floor (64 words/epoch) is sized
            // for long production runs and would hold sparse flows at their
            // initial threshold forever at campaign scale, and the start is
            // made optimistic (begin at the ceiling, tighten on violation)
            // so a flow whose first packet arrives mid-measurement is not
            // permanently behind the static ladder it is compared against.
            let floor_ppm = 1_000_000u32.saturating_sub(budget.saturating_mul(10_000));
            let base = QosSpec::paper(floor_ppm);
            let spec = QosSpec {
                min_words: 1,
                initial_percent: base.max_percent,
                ..base
            };
            let qos_cfg = config.clone().with_qos(spec);
            jobs.push(benchmark_job(benchmark, Mechanism::FpVaxx, &qos_cfg, seed));
            let static_cfg = config.clone().with_threshold(static_percent);
            jobs.push(benchmark_job(
                benchmark,
                Mechanism::FpVaxx,
                &static_cfg,
                seed,
            ));
        }
    }
    let mut t = Table::new(
        "qos",
        "Per-flow QoS campaign: runtime control loop vs worst-case-safe static threshold",
        "kernel          budget%  conv%  realized_err  static%  static_err  qos_comp  static_comp  qos_lat  quality  in_budget",
        &[
            col("kernel", Left(15), None),
            data_only("benchmark", None),
            col("budget_percent", Right(7, 0), None),
            col("converged_percent", Right(6, 0), None),
            col("realized_error", Right(13, 4), Some(6)),
            col("static_percent", Right(8, 0), None),
            col("static_error", Right(11, 4), Some(6)),
            col("qos_compression", Right(9, 3), Some(6)),
            col("static_compression", Right(12, 3), Some(6)),
            col("qos_latency", Right(8, 2), Some(4)),
            data_only("static_latency", Some(4)),
            col("qos_quality", Right(8, 4), Some(6)),
            data_only("qos_violations", None),
            text_only(Right(10, 0)),
            data_only("within_budget", None),
            data_only("beats_static", None),
        ],
    );
    // Per budget: rows, rows within budget, rows where QoS compression is
    // at least the static run's.
    let mut summary: BTreeMap<u32, [usize; 3]> = BTreeMap::new();
    let mut results = context().run("qos", jobs).into_iter();
    for (budget, within, mut cells) in app {
        let qos = results.next().expect("qos cell");
        let fixed = results.next().expect("static cell");
        let qos_compression = qos.stats.encode.compression_ratio();
        let static_compression = fixed.stats.encode.compression_ratio();
        let beats = qos_compression >= static_compression;
        cells.extend([
            qos_compression.into(),
            static_compression.into(),
            qos.avg_packet_latency().into(),
            fixed.avg_packet_latency().into(),
            qos.data_quality().into(),
            qos.stats.faults.bound_violations.into(),
            if within { "yes" } else { "NO" }.into(),
            within.into(),
            beats.into(),
        ]);
        t.row(cells);
        let [rows, in_budget, wins] = summary.entry(budget).or_default();
        *rows += 1;
        *in_budget += usize::from(within);
        *wins += usize::from(beats);
    }
    for (b, [rows, within, beats]) in summary {
        t.note(format!(
            "summary: at {b}% budget, {within}/{rows} apps within budget; QoS compression >= static on {beats}/{rows}"
        ));
    }
    t
}

/// Figure 15: dynamic power normalized to each benchmark's first column
/// (Baseline). The text form ends with the §5.5 encoder areas.
pub fn fig15(matrix: &BenchmarkMatrix) -> Table {
    let model = &EnergyModel::default();
    let power = matrix.cells.iter().flat_map(|(b, runs)| {
        let base = model.dynamic_power(&runs[0].activity).max(1e-12);
        runs.iter()
            .map(move |r| (*b, r.mechanism, model.dynamic_power(&r.activity) / base))
    });
    let mut t = normalized_table(
        "fig15",
        "Figure 15: Dynamic Power (normalized to Baseline)",
        "normalized_dynamic_power",
        power,
    );
    let area = AreaModel::default();
    t.note("");
    t.note(format!(
        "Section 5.5 area: DI-VAXX {:.4} mm^2, FP-VAXX {:.4} mm^2",
        area.di_vaxx_encoder_mm2(),
        area.fp_vaxx_encoder_mm2()
    ));
    t
}

/// Figure 16: application output accuracy and normalized performance for
/// data error budgets of 0/10/20%, one row per benchmark and budget.
///
/// Output error comes from running the real kernels through an FP-VAXX
/// value path at each budget; it typically lies far below the budget
/// because matches land in close proximity. The worst-case error spends
/// the *entire* budget on every approximable word (the pessimistic bound;
/// the paper's measured errors lie between the two), and the text form
/// adds it as an accuracy. Performance comes from the NoC: the measured
/// latency improvement of FP-VAXX at each budget over the 0% (exact
/// compression) case, scaled by the benchmark's sharing degree — the §5.4
/// observation that "higher degree of sharing leads to ... improving the
/// efficacy of our mechanism".
pub fn fig16(config: &SystemConfig, seed: u64) -> Table {
    use anoc_apps::transport::{AdversarialTransport, ApproxTransport, PreciseTransport};
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
    let mut t = Table::new(
        "fig16",
        "Figure 16: Application Output Accuracy and Normalized Performance",
        "benchmark      budget%  error(FP-VAXX)  error(worst-case)  accuracy%  norm_perf",
        &[
            col("benchmark", Left(14), None),
            col("budget_percent", Right(7, 0), None),
            col("output_error", Right(15, 4), Some(6)),
            col("worst_case_error", Right(18, 4), Some(6)),
            text_only(Right(10, 2)),
            col("normalized_performance", Right(10, 3), Some(6)),
        ],
    );
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
                let approx = kernel.run(&mut ApproxTransport::fp_vaxx(threshold));
                let worst_out = kernel.run(&mut AdversarialTransport::new(threshold));
                (
                    kernel.output_error(&precise, &approx),
                    kernel.output_error(&precise, &worst_out),
                    lats.next().expect("budget cell"),
                )
            };
            // Network latency improvement → runtime improvement, scaled by
            // how communication-bound (sharing-heavy) the benchmark is.
            let latency_gain = ((lat0 - lat) / lat0).max(0.0);
            t.row(vec![
                kernel.name().into(),
                budget.into(),
                error.into(),
                worst.into(),
                ((1.0 - worst) * 100.0).into(),
                (1.0 + sharing * latency_gain).into(),
            ]);
        }
    }
    t
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

/// The LZ-VAXX study (`anoc run lz`): sweeps `thresholds` × `benchmarks` ×
/// the three VAXX mechanisms (DI, FP, LZ) with the end-to-end bound auditor
/// armed, so LZ-VAXX's compression ratio, encode latency (LZ-VAXX pays one
/// extra cycle for cross-word match extension) and output quality land next
/// to the paper's two mechanisms at equal error budgets. A fault-free run
/// must show 0 bound violations for every mechanism. The text form ends
/// with a per-threshold count of the apps LZ-VAXX compresses at least as
/// well as DI-VAXX.
pub fn lz_study(
    config: &SystemConfig,
    seed: u64,
    thresholds: &[u32],
    benchmarks: &[Benchmark],
) -> Table {
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
    let mut t = Table::new(
        "lz",
        "LZ-VAXX study: streaming approximate-LZ vs DI-VAXX / FP-VAXX",
        "threshold%  benchmark      mechanism  comp_ratio  enc_lat  latency  quality  checked  violations",
        &[
            col("threshold_percent", Right(9, 0), None),
            col("benchmark", Left(15), None),
            col("mechanism", Left(9), None),
            col("compression_ratio", Right(11, 3), Some(6)),
            col("encode_latency_cycles", Right(8, 0), None),
            col("avg_packet_latency", Right(8, 2), Some(4)),
            col("quality", Right(8, 4), Some(6)),
            col("bound_checked_words", Right(8, 0), None),
            col("bound_violations", Right(11, 0), None),
        ],
    );
    for &th in thresholds {
        let threshold = config.clone().with_threshold(th).threshold();
        let mut wins = 0;
        for &b in benchmarks {
            let [di, _, lz] = MECHANISMS.map(|m| {
                let r = results.next().expect("one result per cell");
                let ratio = r.stats.encode.compression_ratio();
                t.row(vec![
                    th.into(),
                    b.name().into(),
                    m.name().into(),
                    ratio.into(),
                    m.codecs(1, threshold)[0]
                        .encoder
                        .compression_latency()
                        .into(),
                    r.avg_packet_latency().into(),
                    r.data_quality().into(),
                    r.stats.faults.bound_checked_words.into(),
                    r.stats.faults.bound_violations.into(),
                ]);
                ratio
            });
            wins += usize::from(lz >= di);
        }
        t.note(format!(
            "summary: at {th}% threshold LZ-VAXX >= DI-VAXX compression on {wins}/{} apps",
            benchmarks.len()
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    use anoc_exec::CellError;

    fn tiny() -> SystemConfig {
        SystemConfig::paper().with_sim_cycles(2_000)
    }

    /// The floats of the column keyed `key`.
    fn floats(t: &Table, key: &str) -> Vec<f64> {
        t.cells(key)
            .into_iter()
            .map(|c| match c {
                Cell::Float(v) => *v,
                other => panic!("{key}: {other:?}"),
            })
            .collect()
    }

    /// The counts of the column keyed `key`.
    fn ints(t: &Table, key: &str) -> Vec<u64> {
        t.cells(key)
            .into_iter()
            .map(|c| match c {
                Cell::Int(v) => *v,
                other => panic!("{key}: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn matrix_and_figures_9_10_11_15() {
        let cfg = tiny();
        let matrix = BenchmarkMatrix::run_with(&cfg, 1, &Mechanism::ALL);
        assert_eq!(matrix.cells.len(), 8);

        let f9 = fig9(&matrix);
        assert_eq!(f9.csv().lines().count(), 1 + 40);
        assert!(floats(&f9, "total").iter().all(|v| *v > 0.0));
        assert!(f9.text().contains("ssca2"));

        let f10 = fig10(&matrix);
        assert_eq!(f10.csv().lines().count(), 1 + 32, "baseline excluded");
        assert!(floats(&f10, "compression_ratio").iter().all(|v| *v >= 0.9));
        assert!(f10.text().contains("FP-VAXX"));

        // Baseline rows normalize to exactly 1 in both figures.
        let f11 = fig11(&matrix);
        let f15 = fig15(&matrix);
        assert_eq!(f15.csv().lines().count(), 1 + 40);
        for (t, key) in [
            (&f11, "normalized_data_flits"),
            (&f15, "normalized_dynamic_power"),
        ] {
            let base: Vec<f64> = t
                .cells("mechanism")
                .into_iter()
                .zip(floats(t, key))
                .filter(|(m, _)| **m == Cell::from("Baseline"))
                .map(|(_, v)| v)
                .collect();
            assert_eq!(base.len(), 8, "{key}");
            assert!(
                base.iter().all(|v| (v - 1.0).abs() < 1e-9),
                "{key}: {base:?}"
            );
        }
        assert!(f11.text().contains("normalized"));
        assert!(f15.text().contains("Dynamic Power"));

        // The headline relationship: VAXX compresses at least as well as the
        // exact version on the data-intensive benchmark.
        let (_, ssca2) = matrix
            .cells
            .iter()
            .find(|(b, _)| *b == Benchmark::Ssca2)
            .expect("an ssca2 row");
        let encoded = |m| {
            let r = ssca2.iter().find(|r| r.mechanism == m);
            r.expect("a cell per mechanism")
                .stats
                .encode
                .encoded_fraction()
        };
        assert!(encoded(Mechanism::DiVaxx) >= encoded(Mechanism::DiComp));
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
        let points: usize = series.iter().map(|s| s.points.len()).sum();
        let csv = fig12_table(&[("test UR".to_string(), series)]).csv();
        assert_eq!(csv.lines().count(), 1 + points, "{csv}");
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
        let txt = sensitivity_table("test", &rows).text();
        assert!(txt.contains("DI-based") && txt.contains("FP-based"));
        let csv = sensitivity_points("fig13", &rows).csv();
        assert!(csv.lines().count() == 1 + 2 * 3, "{csv}");
    }

    #[test]
    fn lz_study_audits_bounds_and_reports_all_three_mechanisms() {
        let cfg = SystemConfig::paper().with_sim_cycles(1_500);
        let table = lz_study(&cfg, 6, &[10], &[Benchmark::Ssca2, Benchmark::Blackscholes]);
        let mechanisms = table.cells("mechanism");
        assert_eq!(mechanisms.len(), 6, "2 benchmarks x 3 mechanisms");
        let ratios = floats(&table, "compression_ratio");
        assert!(ratios.iter().all(|v| *v >= 0.9), "{ratios:?}");
        let checked = ints(&table, "bound_checked_words");
        assert!(
            checked.iter().all(|n| *n > 0),
            "auditor must be armed: {checked:?}"
        );
        let violations = ints(&table, "bound_violations");
        assert_eq!(violations, [0; 6], "fault-free run violated");
        let quality = floats(&table, "quality");
        assert!(quality.iter().all(|q| *q > 0.9), "{quality:?}");
        let lz_latency: Vec<u64> = mechanisms
            .into_iter()
            .zip(ints(&table, "encode_latency_cycles"))
            .filter(|(m, _)| **m == Cell::from("LZ-VAXX"))
            .map(|(_, cycles)| cycles)
            .collect();
        assert_eq!(lz_latency, [4, 4]);

        let txt = table.text();
        assert!(
            txt.contains("LZ-VAXX") && txt.contains("summary: at 10%"),
            "{txt}"
        );
        let csv = table.csv();
        assert_eq!(csv.lines().count(), 1 + 6);
        let json = table.json();
        assert!(json.starts_with("{\"study\":\"lz\",\"rows\":["), "{json}");
        assert_eq!(json.matches("\"mechanism\":\"LZ-VAXX\"").count(), 2);
        assert!(json.trim_end().ends_with("]}"), "{json}");
    }

    #[test]
    fn faults_sweep_prints_failed_points() {
        let measured = |quality: f64, bit_flips: u64, violations: u64| -> [Cell; 5] {
            [
                14.766917293233083.into(),
                quality.into(),
                bit_flips.into(),
                1376u64.into(),
                violations.into(),
            ]
        };
        let points = [
            (0, Some(measured(0.9982921236946849, 0, 0))),
            (1_000, None),
            (100_000, Some(measured(0.9371554540589585, 165, 96))),
        ];
        let failures = [CellFailure {
            index: 1,
            id: "blackscholes/FP-VAXX/s42".into(),
            error: CellError::Failed("network deadlock: stalled".into()),
        }];
        let table = sweep_table(
            Table::new(
                "faults",
                "Fault-injection sweep: blackscholes / FP-VAXX",
                "flip_ppm    latency   quality   bit_flips    checked  violations",
                &sweep_columns("flip_ppm", "bit_flips"),
            ),
            points.into_iter(),
            &failures,
        );
        assert_eq!(
            table.text(),
            "Fault-injection sweep: blackscholes / FP-VAXX\n\
             flip_ppm    latency   quality   bit_flips    checked  violations\n       \
             0      14.77    0.9983           0       1376           0\n    \
             1000     failed (see below)\n  \
             100000      14.77    0.9372         165       1376          96\n\
             failed: cell 1 (blackscholes/FP-VAXX/s42) failed: network deadlock: stalled\n"
        );
        assert_eq!(
            table.csv(),
            "flip_ppm,avg_latency,quality,bit_flips,bound_checked_words,bound_violations\n\
             0,14.766917293233083,0.9982921236946849,0,1376,0\n\
             1000,,,,,\n\
             100000,14.766917293233083,0.9371554540589585,165,1376,96\n"
        );
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
