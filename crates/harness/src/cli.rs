//! The `anoc` command-line interface.
//!
//! One binary drives the whole evaluation:
//!
//! ```sh
//! anoc run fig9                    # one figure, parallel + cached
//! anoc run all --cycles 20000      # every table and figure
//! anoc run ablations --no-cache    # figs 13/14, uncached
//! anoc run fig12 --csv             # CSV instead of the text table
//! anoc run fig9 --seed 7 --threads 4
//! anoc cache stats                 # entries / bytes / location of both stores
//! anoc cache clear                 # empties the result cache and snapshot store
//! anoc capture --out trace.txt     # persist a benchmark trace
//! anoc replay --out trace.txt      # simulate from a saved trace
//! ```
//!
//! A target is always named through `run`: a bare `anoc fig9` is an unknown
//! command (a usage error). Campaigns run on the process-wide
//! [`crate::campaign::ExecContext`]: parallel across cells, answering
//! repeated cells from the on-disk result cache unless `--no-cache` is
//! given.

use anoc_exec::{default_cache_dir, default_snapshot_dir, ResultCache, SnapshotStore};
use anoc_traffic::{Benchmark, DestPattern};

use crate::campaign;
use crate::config::{Mechanism, SystemConfig};
use crate::experiments::{self, BenchmarkMatrix};
use crate::table::{data_only, Format, Table};

const USAGE: &str = "usage: anoc run <TARGET> [OPTIONS]
       anoc cache <stats|clear>
       anoc capture [OPTIONS]
       anoc replay [OPTIONS]

targets:
  table1 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17
  faults      fault-injection resilience sweep (latency/quality vs flip rate)
  lossy       lossy-link degradation sweep (quality/violations vs loss rate)
  lz          LZ-VAXX study: threshold x workload vs DI-VAXX/FP-VAXX
  qos         per-flow QoS control loop vs worst-case-safe static threshold
  scale       kernel throughput sweep: 8x8 -> 32x32 cmesh
  all         every table and figure in order (excludes scale)
  ablations   the sensitivity studies: fig13 and fig14

options:
  --cycles N    measured simulation cycles (default varies per target)
  --seed N      traffic/data RNG seed (default 42)
  --threads N   worker threads (default: ANOC_THREADS or all cores)
  --grids N     scale target only: sweep the N smallest meshes (default 3)
  --no-cache    always simulate; do not read or write the result cache
                (also disables the warm-start snapshot store)
  --csv         emit CSV instead of a text table
  --json        emit JSON instead of a text table (every target with a
                CSV form; table1 and fig17 print text)
  --mechs A,B   mechanism columns for the matrix figures (fig9/10/11/15),
                Baseline first, e.g. --mechs Baseline,FP-VAXX,LZ-VAXX
                (default: the paper's 5)
  --keep-going  complete campaigns past failed cells (exit 3 if any failed)
  --out PATH    output path (fig17 image directory, capture/replay trace)";

/// All figure/table targets of `anoc run`, in `all` order.
const TARGETS: [&str; 14] = [
    "table1", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
    "faults", "lossy", "qos", "lz",
];

/// The sensitivity/ablation subset behind `anoc run ablations`.
const ABLATIONS: [&str; 2] = ["fig13", "fig14"];

/// The base rates of the `faults` and `lossy` sweeps, in events per million
/// link traversals.
const SWEEP_RATES_PPM: [u32; 5] = [0, 100, 1_000, 10_000, 100_000];

#[derive(Debug, Clone)]
struct Opts {
    /// `--cycles`; `None` runs each target's default.
    cycles: Option<u64>,
    seed: u64,
    threads: Option<usize>,
    grids: usize,
    no_cache: bool,
    csv: bool,
    json: bool,
    keep_going: bool,
    out: Option<String>,
    mechs: Option<Vec<Mechanism>>,
}

impl Opts {
    /// The output format `--csv` / `--json` select; `--json` wins.
    fn format(&self) -> Format {
        if self.json {
            Format::Json
        } else if self.csv {
            Format::Csv
        } else {
            Format::Text
        }
    }
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            cycles: None,
            seed: 42,
            threads: None,
            grids: 3,
            no_cache: false,
            csv: false,
            json: false,
            keep_going: false,
            out: None,
            mechs: None,
        }
    }
}

/// Parses a `--mechs` comma list into mechanism columns, accepting both the
/// canonical names (`FP-VAXX`) and their lowercase spellings (`fp-vaxx`).
/// The list must open with `Baseline`: Figure 15 normalizes every column to
/// the first one.
fn parse_mechs(list: &str) -> Result<Vec<Mechanism>, String> {
    let mechs: Vec<_> = list
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            Mechanism::from_name(s)
                .or_else(|| Mechanism::from_name(&s.to_uppercase()))
                .or_else(|| match s.to_lowercase().as_str() {
                    "baseline" => Some(Mechanism::Baseline),
                    _ => None,
                })
                .ok_or_else(|| format!("unknown mechanism `{s}` in --mechs"))
        })
        .collect::<Result<_, _>>()?;
    match mechs.first() {
        None => Err("--mechs needs at least one mechanism".into()),
        Some(Mechanism::Baseline) => Ok(mechs),
        Some(first) => Err(format!(
            "--mechs must start with Baseline (got {first}): baseline-normalized \
             figures divide by the first column"
        )),
    }
}

#[derive(Debug, Clone)]
enum Command {
    Run { target: String, opts: Opts },
    CacheStats,
    CacheClear,
    Capture { opts: Opts },
    Replay { opts: Opts },
}

/// Entry point for the `anoc` binary: parses `std::env::args`, runs, and
/// returns the process exit code (0 success, 1 runtime error, 2 usage).
pub fn run() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    run_argv(&argv)
}

fn run_argv(argv: &[String]) -> i32 {
    match parse(argv) {
        Ok(cmd) => match execute(cmd) {
            // Completed-but-degraded campaigns (keep-going mode or a faults
            // sweep with aborted cells) exit 3, distinct from hard errors.
            Ok(()) if campaign::context().failed_cells() > 0 => {
                eprintln!(
                    "warning: {} cell(s) failed; results are partial",
                    campaign::context().failed_cells()
                );
                3
            }
            Ok(()) => 0,
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            2
        }
    }
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter().map(String::as_str);
    let first = it.next().ok_or("missing command")?;
    let (kind, target) = match first {
        "run" => {
            let t = it.next().ok_or("`run` needs a target")?;
            ("run", t.to_string())
        }
        "cache" => {
            let action = it.next().ok_or("`cache` needs `stats` or `clear`")?;
            return match (action, it.next()) {
                ("stats", None) => Ok(Command::CacheStats),
                ("clear", None) => Ok(Command::CacheClear),
                (other, None) => Err(format!("unknown cache action `{other}`")),
                _ => Err("`cache` takes exactly one action".into()),
            };
        }
        "capture" => ("capture", String::new()),
        "replay" => ("replay", String::new()),
        other => return Err(format!("unknown command `{other}`")),
    };
    if kind == "run"
        && !(TARGETS.contains(&target.as_str())
            || target == "all"
            || target == "ablations"
            || target == "scale")
    {
        return Err(format!("unknown target `{target}`"));
    }

    let mut opts = Opts::default();
    while let Some(a) = it.next() {
        // The flag's number, refused below `min`.
        let mut num = |flag: &str, min: u64| -> Result<u64, String> {
            let n = it
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or(format!("{flag} needs a number"))?;
            if n < min {
                return Err(format!("{flag} must be at least {min}"));
            }
            Ok(n)
        };
        match a {
            "--cycles" => opts.cycles = Some(num("--cycles", 1)?),
            "--seed" => opts.seed = num("--seed", 0)?,
            "--threads" => opts.threads = Some(num("--threads", 1)? as usize),
            "--grids" => opts.grids = num("--grids", 1)? as usize,
            "--no-cache" => opts.no_cache = true,
            "--csv" => opts.csv = true,
            "--json" => opts.json = true,
            "--keep-going" => opts.keep_going = true,
            "--out" => opts.out = Some(it.next().ok_or("--out needs a path")?.to_string()),
            "--mechs" => {
                let list = it.next().ok_or("--mechs needs a comma-separated list")?;
                opts.mechs = Some(parse_mechs(list)?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(match kind {
        "run" => Command::Run { target, opts },
        "capture" => Command::Capture { opts },
        _ => Command::Replay { opts },
    })
}

/// Installs the process-wide execution context from the CLI options.
fn install_context(opts: &Opts) -> Result<(), String> {
    let (cache, snapshots) = if opts.no_cache {
        (None, None)
    } else {
        (
            Some(
                ResultCache::open(default_cache_dir())
                    .map_err(|e| format!("cannot open result cache: {e} (try --no-cache)"))?,
            ),
            Some(
                SnapshotStore::open(default_snapshot_dir())
                    .map_err(|e| format!("cannot open snapshot store: {e} (try --no-cache)"))?,
            ),
        )
    };
    campaign::configure(opts.threads, cache, snapshots);
    let ctx = campaign::context();
    ctx.set_keep_going(opts.keep_going);
    Ok(())
}

/// The configuration for one target: its default cycle budget unless
/// `--cycles` overrode it, with the CLI seed threaded through.
fn config(opts: &Opts, default_cycles: u64) -> SystemConfig {
    SystemConfig::paper()
        .with_sim_cycles(opts.cycles.unwrap_or(default_cycles))
        .with_seed(opts.seed)
}

fn execute(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Run { target, opts } => {
            install_context(&opts)?;
            let outcome = match target.as_str() {
                "all" => TARGETS.iter().try_for_each(|t| {
                    println!("==== {t} ====");
                    run_target(t, &opts)
                }),
                "ablations" => ABLATIONS.iter().try_for_each(|t| {
                    println!("==== {t} ====");
                    run_target(t, &opts)
                }),
                t => run_target(t, &opts),
            };
            print_sim_summary();
            outcome
        }
        Command::CacheStats => {
            let cache = ResultCache::open(default_cache_dir()).map_err(|e| e.to_string())?;
            println!(
                "result cache: {} entries, {} bytes, at {}",
                cache.len(),
                cache.size_bytes(),
                cache.dir().display()
            );
            // Payload-format version mix: stale-versioned entries are dead
            // weight (the current reader rejects them), so surface them here.
            let mut mix: std::collections::BTreeMap<String, usize> =
                std::collections::BTreeMap::new();
            for payload in cache.payloads() {
                let label = match crate::persist::payload_version(&payload) {
                    Some(v) => format!("v{v}"),
                    None => "unversioned".to_string(),
                };
                *mix.entry(label).or_insert(0) += 1;
            }
            let current = format!("v{}", crate::persist::RESULT_FORMAT_VERSION);
            for (version, count) in &mix {
                let note = if *version == current {
                    "current"
                } else {
                    "stale"
                };
                println!("  format {version}: {count} entries ({note})");
            }
            let store = SnapshotStore::open(default_snapshot_dir()).map_err(|e| e.to_string())?;
            println!(
                "snapshot store: {} entries, {} bytes, at {}",
                store.len(),
                store.size_bytes(),
                store.dir().display()
            );
            Ok(())
        }
        Command::CacheClear => {
            let cache = ResultCache::open(default_cache_dir()).map_err(|e| e.to_string())?;
            let removed = cache.clear().map_err(|e| e.to_string())?;
            println!(
                "cleared {removed} cache entries from {}",
                cache.dir().display()
            );
            let store = SnapshotStore::open(default_snapshot_dir()).map_err(|e| e.to_string())?;
            let snaps = store.clear().map_err(|e| e.to_string())?;
            println!("cleared {snaps} snapshots from {}", store.dir().display());
            Ok(())
        }
        Command::Capture { opts } => capture(&opts),
        Command::Replay { opts } => replay(&opts),
    }
}

/// Prints the simulation-throughput summary for everything this invocation
/// executed. Goes to stderr (like progress lines) so tables and CSV on
/// stdout stay clean. Only jobs that simulated this run enter the Mcyc/s
/// numbers — cache hits simulate nothing, so they are reported on their own
/// line instead of being folded into (and distorting) the throughput.
fn print_sim_summary() {
    let t = campaign::context().totals();
    if t.executed_jobs > 0 {
        eprintln!(
            "simulated {:.2} Mcycles across {} jobs in {:.1}s: {:.2} Mcyc/s",
            t.simulated_cycles() as f64 / 1e6,
            t.executed_jobs,
            t.wall.as_secs_f64(),
            t.cycles_per_second() / 1e6,
        );
    }
    if t.forked_jobs > 0 {
        eprintln!(
            "forked {} cell(s) from warmup snapshots: {:.2} Mcycles restored instead of simulated",
            t.forked_jobs,
            t.skipped_cycles as f64 / 1e6,
        );
    }
    if t.cached_jobs > 0 {
        eprintln!(
            "answered {} cell(s) from the result cache (no cycles simulated for them)",
            t.cached_jobs
        );
    }
}

fn run_target(target: &str, opts: &Opts) -> Result<(), String> {
    let format = opts.format();
    let seed = opts.seed;
    let table = match target {
        "table1" => {
            println!("Table 1: APPROX-NoC Simulation Configuration");
            for (k, v) in config(opts, 50_000).table1_rows() {
                println!("{k:<34} {v}");
            }
            return Ok(());
        }
        "fig17" => return fig17(opts),
        "scale" => return scale(opts),
        "fig9" | "fig10" | "fig11" | "fig15" => matrix_table(target, opts),
        "fig12" => return fig12(opts, format),
        "fig13" | "fig14" => {
            let cfg = config(opts, 15_000);
            let (rows, title) = if target == "fig13" {
                let rows = experiments::fig13(&cfg, cfg.seed);
                (rows, "Figure 13: Error Threshold Sensitivity")
            } else {
                let rows = experiments::fig14(&cfg, cfg.seed);
                (rows, "Figure 14: Approximable Packets Ratio Sensitivity")
            };
            // The text table has one column per swept setting; CSV and JSON
            // have one row per measured latency.
            if format == Format::Text {
                experiments::sensitivity_table(title, &rows)
            } else {
                experiments::sensitivity_points(target, &rows)
            }
        }
        "fig16" => experiments::fig16(&config(opts, 15_000), seed),
        "faults" => experiments::faults_sweep(
            Benchmark::Blackscholes,
            &SWEEP_RATES_PPM,
            &config(opts, 15_000),
            seed,
        ),
        // Each approximation-threshold percent adds 50 ppm per hop on top of
        // the base rate: heavily approximated traffic rides the cheaper,
        // lossier signaling.
        "lossy" => experiments::lossy_sweep(
            Benchmark::Blackscholes,
            &SWEEP_RATES_PPM,
            50,
            &config(opts, 15_000),
            seed,
        ),
        "qos" => experiments::qos_study(&config(opts, 15_000), seed, &[5, 10, 20]),
        "lz" => experiments::lz_study(&config(opts, 15_000), seed, &[5, 10, 20], &Benchmark::ALL),
        other => return Err(format!("unknown target `{other}`")),
    };
    print!("{}", table.render(format));
    Ok(())
}

fn matrix_table(target: &str, opts: &Opts) -> Table {
    let cfg = config(opts, 50_000);
    let mechs = opts.mechs.as_deref().unwrap_or(&Mechanism::ALL);
    let matrix = BenchmarkMatrix::run_with(&cfg, cfg.seed, mechs);
    match target {
        "fig9" => experiments::fig9(&matrix),
        "fig10" => experiments::fig10(&matrix),
        "fig11" => experiments::fig11(&matrix),
        "fig15" => experiments::fig15(&matrix),
        _ => unreachable!("matrix_table called with {target}"),
    }
}

fn fig12(opts: &Opts, format: Format) -> Result<(), String> {
    let cfg = config(opts, 15_000);
    let rates: Vec<f64> = (1..=14).map(|i| i as f64 * 0.05).collect();
    let mut panels = Vec::new();
    for (bench, label) in [
        (Benchmark::Blackscholes, "blackscholes"),
        (Benchmark::Streamcluster, "streamcluster"),
    ] {
        for (pattern, pname) in [
            (DestPattern::UniformRandom, "UR"),
            (DestPattern::Transpose, "TR"),
        ] {
            let series = experiments::fig12(bench, pattern, &rates, &cfg, cfg.seed);
            let panel = format!("{label} {pname}");
            match format {
                // CSV repeats its header per panel; JSON is one document.
                Format::Csv => print!("{}", experiments::fig12_table(&[(panel, series)]).csv()),
                Format::Json => panels.push((panel, series)),
                // The text panel prints each curve's whole sweep on one line,
                // while the table has one row per point, so it is written
                // here rather than through `Table`.
                Format::Text => {
                    println!("Figure 12 ({panel}): Packet Latency vs Injection Rate");
                    for s in &series {
                        print!("{:<9}", s.mechanism.name());
                        for (rate, lat) in &s.points {
                            print!("  {rate:.2}:{lat:.1}");
                        }
                        println!("  [saturation ~{:.2}]", s.saturation_rate());
                    }
                }
            }
        }
    }
    if format == Format::Json {
        print!("{}", experiments::fig12_table(&panels).json());
    }
    Ok(())
}

fn fig17(opts: &Opts) -> Result<(), String> {
    let cfg = config(opts, 50_000);
    let out = opts.out.clone().unwrap_or_else(|| "target/fig17".into());
    let r = experiments::fig17(cfg.seed);
    std::fs::create_dir_all(&out)
        .map_err(|e| format!("cannot create output directory {out}: {e}"))?;
    let precise = format!("{out}/bodytrack_precise.pgm");
    let approx = format!("{out}/bodytrack_approx.pgm");
    std::fs::write(&precise, &r.precise_pgm).map_err(|e| format!("cannot write {precise}: {e}"))?;
    std::fs::write(&approx, &r.approx_pgm).map_err(|e| format!("cannot write {approx}: {e}"))?;
    println!(
        "Figure 17: vector difference {:.4}% (paper: 2.4%)\n  {precise}\n  {approx}",
        r.vector_difference * 100.0
    );
    Ok(())
}

/// The `scale` target: single-simulation step throughput across mesh sizes.
/// It drives `NocSim::step` directly with uniform-random traffic, one packet
/// in three a 9-flit data packet and the rest single-flit control packets,
/// so the number measures the cycle kernel rather than a traffic generator.
/// Each k×k grid (concentration 2) is offered half its ideal uniform-random
/// bisection limit of 4/(c·k) flits/node/cycle, so every grid runs below
/// saturation; each point prints the offered and accepted (injected) load
/// beside the rate, and accepted falling short of offered means the grid
/// saturated. Timing is the measurement, so this never touches the result
/// cache and runs one simulation at a time.
fn scale(opts: &Opts) -> Result<(), String> {
    use anoc_core::data::{CacheBlock, NodeId};
    use anoc_core::rng::Pcg32;
    use anoc_noc::faults::PPM;
    use anoc_noc::{NocConfig, NocSim, NodeCodec};
    use std::time::Instant;

    const CONCENTRATION: usize = 2;
    let cycles = opts.cycles.unwrap_or(2_000);
    let grids: &[(usize, usize)] = &[(8, 8), (16, 16), (32, 32)];
    let grids = &grids[..opts.grids.min(grids.len())];
    let format = opts.format();
    let mut table = Table::data(
        "scale",
        &[
            data_only("mesh", None),
            data_only("nodes", None),
            data_only("offered", Some(4)),
            data_only("accepted", Some(4)),
            data_only("mcycs", Some(4)),
        ],
    );
    // Text and CSV open with the sweep's title line; JSON is the rows alone.
    if format != Format::Json {
        println!(
            "Kernel throughput: {cycles} stepped cycles per point at half the bisection limit"
        );
    }
    for &(w, h) in grids {
        let config = NocConfig::cmesh(w, h, CONCENTRATION);
        let nodes = config.num_nodes();
        let data_flits = u64::from(config.data_packet_flits(16 * 32));
        let limit = 4.0 / (CONCENTRATION * w.max(h)) as f64;
        let packet_ppm = (0.5 * limit / ((2 + data_flits) as f64 / 3.0) * f64::from(PPM)) as u32;
        let codecs = (0..nodes).map(|_| NodeCodec::baseline()).collect();
        let mut sim = NocSim::new(config, codecs);
        let mut rng = Pcg32::seed_from_u64(opts.seed ^ 0xA90C);
        // Flits offered over the run.
        let mut offered = 0u64;
        let start = Instant::now();
        for _ in 0..cycles {
            for node in 0..nodes {
                let roll = rng.below(PPM);
                if roll >= packet_ppm {
                    continue;
                }
                let mut d = rng.below(nodes as u32) as usize;
                if d == node {
                    d = (d + 1) % nodes;
                }
                let (src, dest) = (NodeId(node as u16), NodeId(d as u16));
                if roll < packet_ppm / 3 {
                    let word = rng.next_u32() as i32;
                    sim.enqueue_data(src, dest, CacheBlock::from_i32(&[word; 16]));
                    offered += data_flits;
                } else {
                    sim.enqueue_control(src, dest);
                    offered += 1;
                }
            }
            sim.step();
            sim.discard_delivered();
        }
        let rate = cycles as f64 / start.elapsed().as_secs_f64().max(1e-9) / 1e6;
        let per_node_cycle = |flits: u64| flits as f64 / (nodes as u64 * cycles) as f64;
        let offered = per_node_cycle(offered);
        let accepted = per_node_cycle(sim.stats().flits_injected);
        if format == Format::Text {
            println!(
                "  {w:>2}x{h:<2} cmesh ({nodes:>4} nodes): offered {offered:.4}, accepted {accepted:.4} flits/node/cyc; \
                 {rate:>7.3} Mcyc/s"
            );
        }
        let mesh = format!("{w}x{h}");
        table.row(vec![
            mesh.as_str().into(),
            (nodes as u64).into(),
            offered.into(),
            accepted.into(),
            rate.into(),
        ]);
    }
    if format != Format::Text {
        print!("{}", table.render(format));
    }
    Ok(())
}

fn capture(opts: &Opts) -> Result<(), String> {
    use anoc_traffic::{BenchmarkTraffic, Trace};
    let cfg = config(opts, 10_000);
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "target/trace.txt".into());
    let mut source = BenchmarkTraffic::new(
        Benchmark::Ssca2,
        cfg.noc.num_nodes(),
        cfg.approx_ratio,
        cfg.seed,
    );
    let trace = Trace::capture(&mut source, cfg.warmup_cycles + cfg.sim_cycles);
    trace
        .save(&out)
        .map_err(|e| format!("cannot write trace {out}: {e}"))?;
    println!(
        "captured {} injections over {} cycles into {out}",
        trace.len(),
        cfg.warmup_cycles + cfg.sim_cycles,
    );
    Ok(())
}

fn replay(opts: &Opts) -> Result<(), String> {
    use crate::runner::try_run_with_source;
    use anoc_traffic::Trace;
    let cfg = config(opts, 10_000);
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "target/trace.txt".into());
    let trace = Trace::load(&out).map_err(|e| format!("cannot read trace {out}: {e}"))?;
    let nodes = cfg.noc.num_nodes();
    if trace.num_nodes() != nodes {
        return Err(format!(
            "trace {out} has nodes={}, but the NoC has {nodes} nodes",
            trace.num_nodes()
        ));
    }
    println!("replaying {} injections from {out}:", trace.len());
    for m in Mechanism::ALL {
        let mut replay = trace.replay();
        let r = try_run_with_source(&mut replay, m, &cfg)
            .map_err(|e| format!("simulation failed: {e}"))?;
        println!(
            "  {:<9} latency {:>8.2}  p99 {:>5}  norm_flits {:.3}  quality {:.4}{}",
            m.name(),
            r.avg_packet_latency(),
            r.latency_percentile(99.0),
            r.stats.normalized_data_flits(),
            r.data_quality(),
            if r.drained { "" } else { "  [undrained]" },
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Command, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_run_with_options() {
        let cmd = parse_strs(&[
            "run",
            "fig9",
            "--cycles",
            "2000",
            "--seed",
            "7",
            "--threads",
            "3",
            "--no-cache",
            "--csv",
        ])
        .expect("parse");
        match cmd {
            Command::Run { target, opts } => {
                assert_eq!(target, "fig9");
                assert_eq!(opts.cycles, Some(2000));
                assert_eq!(opts.seed, 7);
                assert_eq!(opts.threads, Some(3));
                assert!(opts.no_cache);
                assert!(opts.csv);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn bare_targets_are_refused() {
        for t in TARGETS.into_iter().chain(["all", "ablations", "scale"]) {
            let err = parse_strs(&[t]).expect_err("a bare target parses");
            assert_eq!(err, format!("unknown command `{t}`"));
            assert!(matches!(parse_strs(&["run", t]), Ok(Command::Run { .. })));
        }
        assert_eq!(run_argv(&["fig9".into()]), 2);
    }

    #[test]
    fn keep_going_and_faults_target_parse() {
        match parse_strs(&["run", "faults", "--keep-going"]).expect("parse") {
            Command::Run { target, opts } => {
                assert_eq!(target, "faults");
                assert!(opts.keep_going);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(!Opts::default().keep_going);
    }

    #[test]
    fn scale_and_grids_parse() {
        match parse_strs(&["run", "scale", "--grids", "1"]).expect("parse") {
            Command::Run { target, opts } => {
                assert_eq!(target, "scale");
                assert_eq!(opts.grids, 1);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse_strs(&["run", "scale"]).expect("parse") {
            Command::Run { target, opts } => {
                assert_eq!(target, "scale");
                assert_eq!(opts.grids, 3);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_strs(&["run", "scale", "--grids"]).is_err());
    }

    #[test]
    fn qos_lossy_targets_and_mechs_flag_parse() {
        for t in ["qos", "lossy"] {
            match parse_strs(&["run", t, "--json"]).expect("parse") {
                Command::Run { target, opts } => {
                    assert_eq!(target, t);
                    assert!(opts.json);
                }
                other => panic!("wrong command {other:?}"),
            }
        }
        match parse_strs(&["run", "fig9", "--mechs", "Baseline,fp-vaxx,LZ-VAXX"]).expect("parse") {
            Command::Run { opts, .. } => assert_eq!(
                opts.mechs.as_deref(),
                Some(&[Mechanism::Baseline, Mechanism::FpVaxx, Mechanism::LzVaxx][..])
            ),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_strs(&["run", "fig9", "--mechs"]).is_err());
        assert!(parse_strs(&["run", "fig9", "--mechs", "warp-drive"]).is_err());
        // The retired extension labels are unknown mechanisms, not runs.
        for retired in ["BD-COMP", "BD-VAXX", "FP-adaptive", "FP-VAXX-win"] {
            let err = parse_strs(&["run", "fig9", "--mechs", &format!("Baseline,{retired}")])
                .expect_err("a retired mechanism is a usage error");
            assert!(err.contains("unknown mechanism"), "{err}");
        }
        assert!(parse_strs(&["run", "fig9", "--mechs", ","]).is_err());
        // Figure 15 normalizes to the first column, so it must be Baseline.
        let err = parse_strs(&["run", "fig15", "--mechs", "FP-VAXX,LZ-VAXX"])
            .expect_err("a list without a leading Baseline is a usage error");
        assert!(err.contains("must start with Baseline"), "{err}");
    }

    #[test]
    fn cache_subcommands_parse() {
        assert!(matches!(
            parse_strs(&["cache", "stats"]),
            Ok(Command::CacheStats)
        ));
        assert!(matches!(
            parse_strs(&["cache", "clear"]),
            Ok(Command::CacheClear)
        ));
        assert!(parse_strs(&["cache"]).is_err());
        assert!(parse_strs(&["cache", "nuke"]).is_err());
    }

    #[test]
    fn bad_input_is_a_usage_error() {
        assert!(parse_strs(&[]).is_err());
        assert!(parse_strs(&["run"]).is_err());
        assert!(parse_strs(&["run", "fig99"]).is_err());
        assert!(parse_strs(&["run", "fig9", "--cycles"]).is_err());
        assert!(parse_strs(&["run", "fig9", "--frobnicate"]).is_err());
        // Retired flags are refused, not ignored: a killed campaign
        // restarts from the result cache, with no flag.
        for argv in [
            &["run", "fig13", "--resume"][..],
            &["run", "fig13", "--checkpoint-every", "5000"],
        ] {
            assert!(parse_strs(argv).is_err(), "{argv:?} parses");
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            assert_eq!(run_argv(&argv), 2);
        }
        // Zero is no "target default" or "one" in disguise.
        for (target, flag) in [
            ("fig9", "--cycles"),
            ("scale", "--threads"),
            ("scale", "--grids"),
        ] {
            let err = parse_strs(&["run", target, flag, "0"]).expect_err("zero parses");
            assert_eq!(err, format!("{flag} must be at least 1"));
            assert_eq!(
                run_argv(&["run".into(), target.into(), flag.into(), "0".into()]),
                2
            );
        }
    }

    #[test]
    fn run_argv_reports_usage_exit_code() {
        assert_eq!(run_argv(&["definitely-not-a-command".into()]), 2);
    }

    #[test]
    fn seed_and_cycles_thread_into_config() {
        let opts = Opts {
            cycles: Some(1234),
            seed: 9,
            ..Opts::default()
        };
        let cfg = config(&opts, 50_000);
        assert_eq!(cfg.sim_cycles, 1234);
        assert_eq!(cfg.seed, 9);
        let default_cfg = config(&Opts::default(), 15_000);
        assert_eq!(default_cfg.sim_cycles, 15_000);
        assert_eq!(default_cfg.seed, 42);
    }
}
