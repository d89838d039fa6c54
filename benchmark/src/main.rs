//! The `anoc-benchmark` command line.
//!
//! ```text
//! anoc-benchmark run --workload W [--seed S] [--repeats N] [--seconds T] [--trace 0|1] [--out F]
//! anoc-benchmark trace --workload W [--seed S] [--repeats N] [--seconds T] [--out F]
//! anoc-benchmark all [--seed S] [--out F]
//! anoc-benchmark compare A.json B.json
//! ```
//!
//! Exit codes: 0 ok, 1 a check failed or the run could not be carried out
//! (or, for `compare`, a metric is worse or unresolved), 2 usage error.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use anoc_benchmark::compare::{compare, Verdict};
use anoc_benchmark::host;
use anoc_benchmark::json::{n, obj, s, Json};
use anoc_benchmark::report::{result_json, summary_line, table, trace_json, TABLE_HEADER};
use anoc_benchmark::spec::Spec;
use anoc_benchmark::workloads::{run, Options, Scale, Workload};

const USAGE: &str = "usage:
  anoc-benchmark run --workload W [--seed S] [--repeats N] [--seconds T] [--trace 0|1] [--out F]
  anoc-benchmark trace --workload W [--seed S] [--repeats N] [--seconds T] [--out F]
  anoc-benchmark all [--seed S] [--out F]
  anoc-benchmark compare A.json B.json
workloads: matrix4x4, cmesh8-ur, staged-sweep, codec-stream";

/// Default input seed; seed 7 is held out for validating claims.
const DEFAULT_SEED: u64 = 42;
/// Where runs keep on-disk state, relative to the working directory.
const WORK_DIR: &str = "target/anoc-benchmark";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    repeats: Option<usize>,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        repeats: None,
        seconds: 0.0,
        trace: false,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |flag: &str, v: &str| format!("bad {flag} value '{v}'");
        match arg.as_str() {
            "--workload" => {
                let v = value(arg)?;
                a.workload = Some(Workload::from_name(&v).ok_or_else(|| bad(arg, &v))?);
            }
            "--seed" => {
                let v = value(arg)?;
                a.seed = v.parse().map_err(|_| bad(arg, &v))?;
            }
            "--repeats" => {
                let v = value(arg)?;
                a.repeats = Some(v.parse().map_err(|_| bad(arg, &v))?);
            }
            "--seconds" => {
                let v = value(arg)?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad(arg, &v))?;
            }
            "--trace" => {
                let v = value(arg)?;
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(arg, &v)),
                };
            }
            "--out" => a.out = Some(PathBuf::from(value(arg)?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("anoc-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (cmd.as_str(), args.workload, args.positional.as_slice()) {
        ("run", Some(w), []) => cmd_run(&args, w, args.trace),
        ("trace", Some(w), []) => cmd_run(&args, w, true),
        ("all", None, []) => cmd_all(&args),
        ("compare", None, [a, b]) => cmd_compare(a, b),
        _ => {
            eprintln!("anoc-benchmark: bad command line\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("anoc-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// `<out>.trace.json` next to a result file.
fn trace_path(out: &Path) -> PathBuf {
    let mut name = out.as_os_str().to_owned();
    name.push(".trace.json");
    PathBuf::from(name)
}

fn cmd_run(args: &Args, workload: Workload, trace: bool) -> Result<bool, String> {
    let opts = Options {
        workload,
        seed: args.seed,
        repeats: args.repeats.unwrap_or(if trace { 2 } else { 5 }),
        seconds: args.seconds,
        trace,
        scale: Scale::full(),
        work_dir: PathBuf::from(WORK_DIR),
    };
    let outcome = run(&opts)?;
    println!("{TABLE_HEADER}");
    for line in table(&outcome) {
        println!("{line}");
    }
    if let Some(out) = &args.out {
        write_file(out, &result_json(&outcome).render_pretty())?;
        if let Some(t) = &outcome.trace {
            write_file(&trace_path(out), &trace_json(&outcome, t).render())?;
        }
    }
    for f in &outcome.failures {
        eprintln!("{}: {f}", workload.name());
    }
    println!("{}", summary_line(&outcome));
    Ok(outcome.correct())
}

/// Runs every workload, untraced then traced, each in a fresh child process
/// so process-wide state (the harness's first-caller-wins execution context,
/// the peak-memory mark) is per workload and only one process generates
/// load at a time.
fn cmd_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let dir = PathBuf::from(WORK_DIR).join(format!("all-{}", std::process::id()));
    let mut runs = Vec::new();
    let mut ok = true;
    println!("{TABLE_HEADER}");
    for w in Workload::ALL {
        for sub in ["run", "trace"] {
            let out = dir.join(format!("{}-{sub}.json", w.name()));
            let child = Command::new(&exe)
                .args([sub, "--workload", w.name(), "--seed"])
                .arg(args.seed.to_string())
                .arg("--out")
                .arg(&out)
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("run {sub} {}: {e}", w.name()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            // Drop the child's header and its closing summary line.
            for line in lines.iter().skip(1).take(lines.len().saturating_sub(2)) {
                println!("{line}");
            }
            ok &= child.status.success();
            match std::fs::read_to_string(&out) {
                Ok(text) => runs.push(Json::parse(&text)?),
                Err(e) => {
                    eprintln!("anoc-benchmark: {sub} {} left no result: {e}", w.name());
                    ok = false;
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let ledger = obj([
        ("benchmark", s("anoc-benchmark")),
        ("seed", n(args.seed as f64)),
        ("host", host::describe()),
        ("runs", Json::Arr(runs)),
    ]);
    if let Some(out) = &args.out {
        write_file(out, &ledger.render_pretty())?;
    }
    Ok(ok)
}

fn cmd_compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("parse {p}: {e}")))
    };
    let spec = Spec::builtin()?;
    let rows = compare(&spec, &read(a)?, &read(b)?);
    if rows.is_empty() {
        return Err("the two files share no declared end-to-end metric".into());
    }
    println!("workload metric verdict median_a median_b change spread_a spread_b");
    let mut clean = true;
    for r in &rows {
        clean &= matches!(r.verdict, Verdict::Better | Verdict::Same);
        println!(
            "{} {} {} {} {} {:+.4} {:.4} {:.4}",
            r.workload,
            r.metric,
            r.verdict.name(),
            r.a.median,
            r.b.median,
            (r.b.median - r.a.median) / r.a.median,
            r.a.spread(),
            r.b.spread()
        );
    }
    Ok(clean)
}
