//! The `anoc` command-line interface.
//!
//! One binary drives the whole evaluation:
//!
//! ```sh
//! anoc run fig9                    # one figure, parallel + cached
//! anoc run all --cycles 20000      # every table and figure
//! anoc run ablations --no-cache    # figs 13/14 + extension study, uncached
//! anoc run fig12 --csv             # CSV instead of the text table
//! anoc run fig9 --seed 7 --threads 4
//! anoc cache stats                 # entries / bytes / location
//! anoc cache clear
//! anoc capture --out trace.txt     # persist a benchmark trace
//! anoc replay --out trace.txt      # simulate from a saved trace
//! anoc lint --deny                 # determinism/correctness static analysis
//! ```
//!
//! The historical per-figure commands (`anoc fig9`, `anoc table1`, …) keep
//! working as aliases for `anoc run <target>`. Campaigns run on the
//! process-wide [`crate::campaign::ExecContext`]: parallel across cells,
//! answering repeated cells from the on-disk result cache unless
//! `--no-cache` is given.

use anoc_exec::{ResultCache, SnapshotStore};
use anoc_traffic::{Benchmark, DestPattern};

use crate::campaign;
use crate::config::SystemConfig;
use crate::experiments::{self, BenchmarkMatrix};
use crate::power::AreaModel;

const USAGE: &str = "usage: anoc run <TARGET> [OPTIONS]
       anoc cache <stats|clear>
       anoc capture [OPTIONS]
       anoc replay [OPTIONS]
       anoc lint [--json] [--deny] [--baseline FILE]
       anoc <TARGET> [OPTIONS]          (alias for `anoc run <TARGET>`)

targets:
  table1 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 extensions
  faults      fault-injection resilience sweep (latency/quality vs flip rate)
  lossy       lossy-link degradation sweep (quality/violations vs loss rate)
  lz          LZ-VAXX study: threshold x workload vs DI-VAXX/FP-VAXX
  qos         per-flow QoS control loop vs worst-case-safe static threshold
  scale       kernel scaling sweep: 8x8 -> 32x32 cmesh, serial vs sharded
  all         every table and figure in order (excludes scale)
  ablations   the sensitivity studies: fig13, fig14 and the extension study

options:
  --cycles N    measured simulation cycles (default varies per target)
  --seed N      traffic/data RNG seed (default 42)
  --threads N   worker threads (default: ANOC_THREADS or all cores)
  --shards N    worker shards inside each simulation (default 1 = serial;
                results are bit-identical for any value)
  --grids N     scale target only: sweep the N smallest meshes (default 3)
  --no-cache    always simulate; do not read or write the result cache
                (also disables the warm-start snapshot store)
  --checkpoint-every N
                snapshot each in-flight cell every N measured cycles, so a
                killed campaign can restart with --resume (default 0 = off)
  --resume      restart killed cells from their last checkpoint
  --csv         emit CSV instead of a text table
  --json        emit JSON instead of a text table (lz and qos targets)
  --mechs A,B   mechanism columns for the matrix figures (fig9/10/11/15),
                Baseline first, e.g. --mechs Baseline,FP-VAXX,LZ-VAXX
                (default: the paper's 5)
  --keep-going  complete campaigns past failed cells (exit 3 if any failed)
  --out PATH    output path (fig17 image directory, capture/replay trace)

lint options:
  --json                  machine-readable report (schema in EXPERIMENTS.md)
  --deny                  treat warnings as errors (what CI runs)
  --root PATH             lint this tree instead of the enclosing workspace
  --baseline FILE         grandfather the findings recorded in FILE; fail only
                          on new findings or suppression-count growth
  --write-baseline FILE   regenerate FILE from the current tree and exit
  --phase-deny NAME       add NAME to the D005 serial-edge deny list
                          (repeatable)";

/// All figure/table targets of `anoc run`, in `all` order.
const TARGETS: [&str; 15] = [
    "table1",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "extensions",
    "faults",
    "lossy",
    "qos",
    "lz",
];

/// The sensitivity/ablation subset behind `anoc run ablations`.
const ABLATIONS: [&str; 3] = ["fig13", "fig14", "extensions"];

#[derive(Debug, Clone)]
struct Opts {
    cycles: u64,
    seed: u64,
    threads: Option<usize>,
    shards: usize,
    grids: usize,
    no_cache: bool,
    checkpoint_every: u64,
    resume: bool,
    csv: bool,
    json: bool,
    keep_going: bool,
    out: Option<String>,
    mechs: Option<Vec<crate::config::Mechanism>>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            cycles: 0,
            seed: 42,
            threads: None,
            shards: 1,
            grids: 3,
            no_cache: false,
            checkpoint_every: 0,
            resume: false,
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
fn parse_mechs(list: &str) -> Result<Vec<crate::config::Mechanism>, String> {
    let mechs: Vec<_> = list
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            crate::config::Mechanism::from_name(s)
                .or_else(|| crate::config::Mechanism::from_name(&s.to_uppercase()))
                .or_else(|| match s.to_lowercase().as_str() {
                    "baseline" => Some(crate::config::Mechanism::Baseline),
                    _ => None,
                })
                .ok_or_else(|| format!("unknown mechanism `{s}` in --mechs"))
        })
        .collect::<Result<_, _>>()?;
    match mechs.first() {
        None => Err("--mechs needs at least one mechanism".into()),
        Some(crate::config::Mechanism::Baseline) => Ok(mechs),
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
    Lint { args: Vec<String> },
}

/// Entry point for the `anoc` binary: parses `std::env::args`, runs, and
/// returns the process exit code (0 success, 1 runtime error, 2 usage).
pub fn run() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    run_argv(&argv)
}

fn run_argv(argv: &[String]) -> i32 {
    match parse(argv) {
        // Lint owns its exit-code contract (1 findings, 2 usage), so it
        // bypasses the Ok/Err mapping below.
        Ok(Command::Lint { args }) => anoc_lint::run_cli(&args),
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
        // `lint` has its own flag set, parsed by anoc-lint itself.
        "lint" => {
            return Ok(Command::Lint {
                args: it.map(str::to_string).collect(),
            });
        }
        t if TARGETS.contains(&t) || t == "all" || t == "ablations" || t == "scale" => {
            ("run", t.to_string())
        }
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
        let mut num = |flag: &str| -> Result<u64, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or(format!("{flag} needs a number"))
        };
        match a {
            "--cycles" => opts.cycles = num("--cycles")?,
            "--seed" => opts.seed = num("--seed")?,
            "--threads" => opts.threads = Some(num("--threads")?.max(1) as usize),
            "--shards" => opts.shards = num("--shards")?.max(1) as usize,
            "--grids" => opts.grids = num("--grids")?.max(1) as usize,
            "--no-cache" => opts.no_cache = true,
            "--checkpoint-every" => opts.checkpoint_every = num("--checkpoint-every")?,
            "--resume" => opts.resume = true,
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
///
/// When `--shards` is active every simulation multiplies the process's
/// parallelism by its shard count, so the campaign-level worker budget is
/// divided down with [`anoc_exec::plan_threads`] to keep `--threads` (or the
/// machine's core count) from being oversubscribed.
fn install_context(opts: &Opts) -> Result<(), String> {
    let (cache, snapshots) = if opts.no_cache {
        (None, None)
    } else {
        (
            Some(
                ResultCache::open_default()
                    .map_err(|e| format!("cannot open result cache: {e} (try --no-cache)"))?,
            ),
            Some(
                SnapshotStore::open_default()
                    .map_err(|e| format!("cannot open snapshot store: {e} (try --no-cache)"))?,
            ),
        )
    };
    let threads = if opts.shards > 1 {
        let total = opts.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        Some(anoc_exec::plan_threads(total, opts.shards).0)
    } else {
        opts.threads
    };
    campaign::configure(threads, cache, snapshots);
    let ctx = campaign::context();
    ctx.set_keep_going(opts.keep_going);
    ctx.set_checkpoint_every(opts.checkpoint_every);
    ctx.set_resume(opts.resume);
    Ok(())
}

/// The configuration for one target: its default cycle budget unless
/// `--cycles` overrode it, with the CLI seed threaded through.
fn config(opts: &Opts, default_cycles: u64) -> SystemConfig {
    let cycles = if opts.cycles == 0 {
        default_cycles
    } else {
        opts.cycles
    };
    SystemConfig::paper()
        .with_sim_cycles(cycles)
        .with_seed(opts.seed)
        .with_shards(opts.shards)
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
            let cache = ResultCache::open_default().map_err(|e| e.to_string())?;
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
            Ok(())
        }
        Command::CacheClear => {
            let cache = ResultCache::open_default().map_err(|e| e.to_string())?;
            let removed = cache.clear().map_err(|e| e.to_string())?;
            println!(
                "cleared {removed} cache entries from {}",
                cache.dir().display()
            );
            let store = SnapshotStore::open_default().map_err(|e| e.to_string())?;
            let snaps = store.clear().map_err(|e| e.to_string())?;
            println!("cleared {snaps} snapshots from {}", store.dir().display());
            Ok(())
        }
        Command::Capture { opts } => capture(&opts),
        Command::Replay { opts } => replay(&opts),
        Command::Lint { .. } => unreachable!("lint is dispatched in run_argv"),
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
    if t.forked_jobs > 0 || t.resumed_jobs > 0 {
        eprintln!(
            "forked {} cell(s) from warmup snapshots, resumed {} from checkpoints: {:.2} Mcycles restored instead of simulated",
            t.forked_jobs,
            t.resumed_jobs,
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
    match target {
        "table1" => {
            println!("Table 1: APPROX-NoC Simulation Configuration");
            for (k, v) in config(opts, 50_000).table1_rows() {
                println!("{k:<34} {v}");
            }
            Ok(())
        }
        "fig9" | "fig10" | "fig11" | "fig15" => matrix_figure(target, opts),
        "fig12" => fig12(opts),
        "fig13" => {
            let cfg = config(opts, 15_000);
            let rows = experiments::fig13(&cfg, cfg.seed);
            if opts.csv {
                print!("{}", experiments::sensitivity_csv(&rows));
            } else {
                print!(
                    "{}",
                    experiments::render_sensitivity(
                        "Figure 13: Error Threshold Sensitivity",
                        &rows
                    )
                );
            }
            Ok(())
        }
        "fig14" => {
            let cfg = config(opts, 15_000);
            let rows = experiments::fig14(&cfg, cfg.seed);
            if opts.csv {
                print!("{}", experiments::sensitivity_csv(&rows));
            } else {
                print!(
                    "{}",
                    experiments::render_sensitivity(
                        "Figure 14: Approximable Packets Ratio Sensitivity",
                        &rows
                    )
                );
            }
            Ok(())
        }
        "fig16" => {
            let cfg = config(opts, 15_000);
            let rows = experiments::fig16(&cfg, cfg.seed);
            if opts.csv {
                print!("{}", experiments::fig16_csv(&rows));
            } else {
                print!("{}", experiments::render_fig16(&rows));
            }
            Ok(())
        }
        "fig17" => fig17(opts),
        "scale" => scale(opts),
        "faults" => {
            let cfg = config(opts, 15_000);
            let rates: [u32; 5] = [0, 100, 1_000, 10_000, 100_000];
            let (points, failures) =
                experiments::faults_sweep(Benchmark::Blackscholes, &rates, &cfg, cfg.seed);
            if opts.csv {
                print!("{}", experiments::faults_csv(&points));
            } else {
                print!(
                    "{}",
                    experiments::render_faults(Benchmark::Blackscholes, &points, &failures)
                );
            }
            Ok(())
        }
        "lossy" => {
            let cfg = config(opts, 15_000);
            let rates: [u32; 5] = [0, 100, 1_000, 10_000, 100_000];
            // Each approximation-threshold percent adds 50 ppm per hop on
            // top of the base rate: heavily approximated traffic rides the
            // cheaper, lossier signaling.
            let (points, failures) =
                experiments::lossy_sweep(Benchmark::Blackscholes, &rates, 50, &cfg, cfg.seed);
            if opts.csv {
                print!("{}", experiments::lossy_csv(&points));
            } else {
                print!(
                    "{}",
                    experiments::render_lossy(Benchmark::Blackscholes, &points, &failures)
                );
            }
            Ok(())
        }
        "qos" => {
            let cfg = config(opts, 15_000);
            let rows = experiments::qos_study(&cfg, cfg.seed, &[5, 10, 20]);
            if opts.json {
                print!("{}", experiments::qos_json(&rows));
            } else if opts.csv {
                print!("{}", experiments::qos_csv(&rows));
            } else {
                print!("{}", experiments::render_qos(&rows));
            }
            Ok(())
        }
        "lz" => {
            let cfg = config(opts, 15_000);
            let rows = experiments::lz_study(&cfg, cfg.seed, &[5, 10, 20], &Benchmark::ALL);
            if opts.json {
                print!("{}", experiments::lz_json(&rows));
            } else if opts.csv {
                print!("{}", experiments::lz_csv(&rows));
            } else {
                print!("{}", experiments::render_lz(&rows));
            }
            Ok(())
        }
        "extensions" => {
            let cfg = config(opts, 20_000);
            for b in [Benchmark::Blackscholes, Benchmark::Ssca2, Benchmark::X264] {
                let results = experiments::extension_study(b, &cfg, cfg.seed);
                println!("{}", experiments::render_extension(b, &results));
            }
            Ok(())
        }
        other => Err(format!("unknown target `{other}`")),
    }
}

fn matrix_figure(target: &str, opts: &Opts) -> Result<(), String> {
    let cfg = config(opts, 50_000);
    let matrix = match &opts.mechs {
        Some(mechs) => BenchmarkMatrix::run_with(&cfg, cfg.seed, mechs),
        None => BenchmarkMatrix::run(&cfg, cfg.seed),
    };
    match (target, opts.csv) {
        ("fig9", false) => print!("{}", experiments::render_fig9(&experiments::fig9(&matrix))),
        ("fig9", true) => print!("{}", experiments::fig9_csv(&experiments::fig9(&matrix))),
        ("fig10", false) => print!(
            "{}",
            experiments::render_fig10(&experiments::fig10(&matrix))
        ),
        ("fig10", true) => print!("{}", experiments::fig10_csv(&experiments::fig10(&matrix))),
        ("fig11", false) => print!(
            "{}",
            experiments::render_fig11(&experiments::fig11(&matrix))
        ),
        ("fig11", true) => print!("{}", experiments::fig11_csv(&experiments::fig11(&matrix))),
        ("fig15", false) => {
            print!(
                "{}",
                experiments::render_fig15(&experiments::fig15(&matrix))
            );
            let area = AreaModel::default();
            println!(
                "\nSection 5.5 area: DI-VAXX {:.4} mm^2, FP-VAXX {:.4} mm^2",
                area.di_vaxx_encoder_mm2(),
                area.fp_vaxx_encoder_mm2()
            );
        }
        ("fig15", true) => print!("{}", experiments::fig15_csv(&experiments::fig15(&matrix))),
        _ => unreachable!("matrix_figure called with {target}"),
    }
    Ok(())
}

fn fig12(opts: &Opts) -> Result<(), String> {
    let cfg = config(opts, 15_000);
    let rates: Vec<f64> = (1..=14).map(|i| i as f64 * 0.05).collect();
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
            if opts.csv {
                print!("{}", experiments::fig12_csv(&panel, &series));
            } else {
                print!("{}", experiments::render_fig12(&panel, &series));
            }
        }
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

/// The `scale` target: single-simulation step-throughput across mesh sizes,
/// serial kernel vs sharded kernel. It drives `NocSim::step` directly with
/// the uniform-random workload of the kernel-fingerprint test, so the number
/// measures the cycle kernel rather than a traffic generator. Timing is the
/// measurement, so this never touches the result cache and runs one
/// simulation at a time.
fn scale(opts: &Opts) -> Result<(), String> {
    use anoc_core::data::{CacheBlock, NodeId};
    use anoc_core::rng::Pcg32;
    use anoc_noc::{NocConfig, NocSim, NodeCodec};
    use std::time::Instant;

    let shards = if opts.shards > 1 { opts.shards } else { 4 };
    let cycles = if opts.cycles == 0 { 2_000 } else { opts.cycles };
    let grids: &[(usize, usize)] = &[(8, 8), (16, 16), (32, 32)];
    let grids = &grids[..opts.grids.min(grids.len())];
    println!("Kernel scaling: {cycles} stepped cycles per point, serial vs {shards} shards");
    if opts.csv {
        println!("mesh,nodes,serial_mcycs,sharded_mcycs,speedup");
    }
    for &(w, h) in grids {
        let config = NocConfig::cmesh(w, h, 2);
        let nodes = config.num_nodes();
        let mut rates = [0.0f64; 2];
        for (i, s) in [1, shards].into_iter().enumerate() {
            let codecs = (0..nodes).map(|_| NodeCodec::baseline()).collect();
            let mut sim = NocSim::new(config.clone(), codecs);
            sim.set_shards(s);
            let mut rng = Pcg32::seed_from_u64(opts.seed ^ 0xA90C);
            let start = Instant::now();
            for _ in 0..cycles {
                for node in 0..nodes {
                    let roll = rng.below(100);
                    if roll >= 6 {
                        continue;
                    }
                    let mut d = rng.below(nodes as u32) as usize;
                    if d == node {
                        d = (d + 1) % nodes;
                    }
                    if roll < 4 {
                        sim.enqueue_control(NodeId(node as u16), NodeId(d as u16));
                    } else {
                        let word = rng.next_u32() as i32;
                        sim.enqueue_data(
                            NodeId(node as u16),
                            NodeId(d as u16),
                            CacheBlock::from_i32(&[word; 16]),
                        );
                    }
                }
                sim.step();
                sim.discard_delivered();
            }
            rates[i] = cycles as f64 / start.elapsed().as_secs_f64().max(1e-9) / 1e6;
        }
        if opts.csv {
            println!(
                "{w}x{h},{nodes},{:.4},{:.4},{:.4}",
                rates[0],
                rates[1],
                rates[1] / rates[0]
            );
        } else {
            println!(
                "  {w:>2}x{h:<2} cmesh ({nodes:>4} nodes): serial {:>7.3} Mcyc/s, {shards} shards {:>7.3} Mcyc/s, speedup {:.2}x",
                rates[0],
                rates[1],
                rates[1] / rates[0]
            );
        }
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
    use crate::config::Mechanism;
    use crate::runner::try_run_with_source;
    use anoc_traffic::Trace;
    let cfg = config(opts, 10_000);
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "target/trace.txt".into());
    let trace = Trace::load(&out).map_err(|e| format!("cannot read trace {out}: {e}"))?;
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
                assert_eq!(opts.cycles, 2000);
                assert_eq!(opts.seed, 7);
                assert_eq!(opts.threads, Some(3));
                assert!(opts.no_cache);
                assert!(opts.csv);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn legacy_figure_commands_alias_run() {
        for t in TARGETS {
            match parse_strs(&[t]).expect("parse") {
                Command::Run { target, .. } => assert_eq!(target, t),
                other => panic!("wrong command {other:?}"),
            }
        }
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
    fn shards_and_scale_parse() {
        match parse_strs(&["run", "scale", "--shards", "4", "--grids", "1"]).expect("parse") {
            Command::Run { target, opts } => {
                assert_eq!(target, "scale");
                assert_eq!(opts.shards, 4);
                assert_eq!(opts.grids, 1);
            }
            other => panic!("wrong command {other:?}"),
        }
        // `scale` works as a bare alias like every other target, `--shards`
        // threads into any target's config, and 0 clamps to serial.
        match parse_strs(&["scale"]).expect("parse") {
            Command::Run { target, opts } => {
                assert_eq!(target, "scale");
                assert_eq!(opts.shards, 1);
                assert_eq!(opts.grids, 3);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse_strs(&["run", "fig9", "--shards", "0"]).expect("parse") {
            Command::Run { opts, .. } => {
                assert_eq!(opts.shards, 1);
                assert_eq!(config(&opts, 1_000).shards, 1);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_strs(&["run", "scale", "--shards"]).is_err());
    }

    #[test]
    fn qos_lossy_targets_and_mechs_flag_parse() {
        use crate::config::Mechanism;
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
        assert!(parse_strs(&["run", "fig9", "--mechs", ","]).is_err());
        // Figure 15 normalizes to the first column, so it must be Baseline.
        let err = parse_strs(&["run", "fig15", "--mechs", "FP-VAXX,LZ-VAXX"])
            .expect_err("a list without a leading Baseline is a usage error");
        assert!(err.contains("must start with Baseline"), "{err}");
    }

    #[test]
    fn checkpoint_and_resume_flags_parse() {
        match parse_strs(&["run", "fig13", "--checkpoint-every", "5000", "--resume"])
            .expect("parse")
        {
            Command::Run { target, opts } => {
                assert_eq!(target, "fig13");
                assert_eq!(opts.checkpoint_every, 5000);
                assert!(opts.resume);
            }
            other => panic!("wrong command {other:?}"),
        }
        let d = Opts::default();
        assert_eq!(d.checkpoint_every, 0);
        assert!(!d.resume);
        assert!(parse_strs(&["run", "fig13", "--checkpoint-every"]).is_err());
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
    fn lint_subcommand_parses_with_passthrough_flags() {
        match parse_strs(&["lint"]).expect("parse") {
            Command::Lint { args } => assert!(args.is_empty()),
            other => panic!("wrong command {other:?}"),
        }
        match parse_strs(&["lint", "--json", "--deny"]).expect("parse") {
            Command::Lint { args } => assert_eq!(args, vec!["--json", "--deny"]),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn lint_rejects_unknown_flags_with_usage_exit_code() {
        assert_eq!(run_argv(&["lint".into(), "--frobnicate".into()]), 2);
    }

    #[test]
    fn bad_input_is_a_usage_error() {
        assert!(parse_strs(&[]).is_err());
        assert!(parse_strs(&["run"]).is_err());
        assert!(parse_strs(&["run", "fig99"]).is_err());
        assert!(parse_strs(&["fig9", "--cycles"]).is_err());
        assert!(parse_strs(&["fig9", "--frobnicate"]).is_err());
    }

    #[test]
    fn run_argv_reports_usage_exit_code() {
        assert_eq!(run_argv(&["definitely-not-a-command".into()]), 2);
    }

    #[test]
    fn seed_and_cycles_thread_into_config() {
        let opts = Opts {
            cycles: 1234,
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
