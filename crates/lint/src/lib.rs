//! # anoc-lint — the determinism rules no toolchain lint can express
//!
//! The whole APPROX-NoC reproduction rests on bit-exact determinism: the
//! golden-fingerprint test pins every statistic of the paper's 4x4 cmesh
//! workloads, and `anoc-exec`'s result cache assumes a
//! `(config, workload, seed)` key always reproduces identical bits. rustc
//! and clippy enforce the generic half of that (clocks, hash-ordered
//! collections, panics, float equality, narrowing casts, printing, `unsafe`;
//! DESIGN.md §6). This crate checks the repo-specific half: a minimal
//! std-only Rust lexer ([`lexer`]) feeds a brace-matched scope tree
//! ([`syntax`]) and four rules ([`rules`]) — the RNG-site inventory, phase-A
//! reachability, the relaxed-atomic audit and directive hygiene — with
//! stable IDs, inline suppressions and human or JSON output.
//!
//! Run it with
//! `cargo run --release -p anoc-lint -- --deny --baseline lint-baseline.json`
//! (what CI does). With `--baseline`, findings already recorded in the
//! committed baseline are *grandfathered* — the run fails only on new
//! findings and on suppression-count growth, so the grandfathered set can
//! be burned down incrementally without blocking unrelated work. The
//! suppression count covers both halves: findings silenced by
//! `// anoc-lint: allow(..)` plus every `allow`/`expect` lint attribute.
//! `--write-baseline FILE` regenerates the file from the current tree.
//!
//! Exit codes: `0` clean, `1` findings (errors; any finding under `--deny`;
//! suppression growth past the baseline budget), `2` usage or I/O failure.

pub mod lexer;
pub mod rules;
pub mod syntax;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rules::{FileContext, Severity, Violation, SIM_CRITICAL_CRATES};

/// Options for one lint run.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Emit machine-readable JSON instead of human-readable lines.
    pub json: bool,
    /// Treat warnings as errors for the exit code.
    pub deny: bool,
}

/// One reportable finding, bound to its file.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule_id: &'static str,
    pub severity: Severity,
    pub path: String,
    pub line: u32,
    pub message: String,
}

/// The outcome of linting a file tree.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
    /// Findings silenced by `// anoc-lint: allow(..)` directives, plus every
    /// `allow`/`expect` lint attribute in the scanned files.
    pub suppressed: usize,
    /// Findings removed by [`apply_baseline`] because the committed baseline
    /// already records them.
    pub grandfathered: usize,
    /// The baseline's suppression budget, when one was applied: exceeding it
    /// fails the run even if no new findings surfaced.
    pub suppressed_budget: Option<usize>,
}

impl Report {
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }

    /// Suppression count grew past the applied baseline's budget.
    pub fn suppression_growth(&self) -> bool {
        self.suppressed_budget
            .is_some_and(|budget| self.suppressed > budget)
    }

    /// Process exit code under the given options.
    pub fn exit_code(&self, opts: &Options) -> i32 {
        let failing = if opts.deny {
            self.findings.len()
        } else {
            self.errors()
        };
        i32::from(failing > 0 || self.suppression_growth())
    }

    /// Human-readable rendering: one line per finding plus a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}: {} {}: {}",
                f.path,
                f.line,
                f.rule_id,
                f.severity.as_str(),
                f.message
            );
        }
        let _ = write!(
            out,
            "anoc-lint: {} files, {} errors, {} warnings, {} suppressed",
            self.files_scanned,
            self.errors(),
            self.warnings(),
            self.suppressed
        );
        if self.suppressed_budget.is_some() {
            let _ = write!(out, ", {} grandfathered", self.grandfathered);
        }
        out.push('\n');
        if let Some(budget) = self.suppressed_budget {
            if self.suppressed > budget {
                let _ = writeln!(
                    out,
                    "anoc-lint: suppression count {} exceeds the baseline budget {}; \
                     fix the finding instead of adding an allow (or regenerate the \
                     baseline with --write-baseline if the growth is deliberate)",
                    self.suppressed, budget
                );
            }
        }
        out
    }

    /// Machine-readable rendering. The schema is stable (documented in
    /// EXPERIMENTS.md): `version`, `files_scanned`, `errors`, `warnings`,
    /// `suppressed`, `grandfathered`, `suppressed_budget` (number, or null
    /// when no baseline was applied), and a `violations` array of
    /// `{rule, severity, path, line, message}` sorted by (path, line, rule).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"version\": 2,");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"errors\": {},", self.errors());
        let _ = writeln!(out, "  \"warnings\": {},", self.warnings());
        let _ = writeln!(out, "  \"suppressed\": {},", self.suppressed);
        let _ = writeln!(out, "  \"grandfathered\": {},", self.grandfathered);
        match self.suppressed_budget {
            Some(b) => {
                let _ = writeln!(out, "  \"suppressed_budget\": {b},");
            }
            None => {
                let _ = writeln!(out, "  \"suppressed_budget\": null,");
            }
        }
        out.push_str("  \"violations\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"rule\": \"{}\", \"severity\": \"{}\", \"path\": \"{}\", \
                 \"line\": {}, \"message\": \"{}\"}}",
                f.rule_id,
                f.severity.as_str(),
                json_escape(&f.path),
                f.line,
                json_escape(&f.message)
            );
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A committed snapshot of the findings a tree is allowed to carry: per
/// `(rule, path)` counts plus a total suppression budget. `--baseline`
/// grandfathers up to `count` findings per entry and fails the run if the
/// live suppression count exceeds `suppressed`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    pub suppressed: usize,
    pub entries: BTreeMap<(String, String), usize>,
}

impl Baseline {
    /// Snapshots a (pre-baseline) report.
    pub fn from_report(report: &Report) -> Baseline {
        let mut entries: BTreeMap<(String, String), usize> = BTreeMap::new();
        for f in &report.findings {
            *entries
                .entry((f.rule_id.to_string(), f.path.clone()))
                .or_insert(0) += 1;
        }
        Baseline {
            suppressed: report.suppressed,
            entries,
        }
    }

    /// Stable JSON rendering (sorted by rule, then path).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"version\": 1,");
        let _ = writeln!(out, "  \"suppressed\": {},", self.suppressed);
        out.push_str("  \"entries\": [");
        for (i, ((rule, path), count)) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"count\": {}}}",
                json_escape(rule),
                json_escape(path),
                count
            );
        }
        if !self.entries.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses the line-oriented subset of JSON that [`Baseline::render_json`]
    /// emits (std-only; no general JSON parser in the workspace).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut suppressed = None;
        let mut entries: BTreeMap<(String, String), usize> = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            if let Some(rest) = line.strip_prefix("\"suppressed\":") {
                suppressed = Some(
                    rest.trim()
                        .parse::<usize>()
                        .map_err(|_| format!("bad suppressed count in `{line}`"))?,
                );
            } else if line.starts_with("{\"rule\":") {
                let rule = json_field_str(line, "rule")
                    .ok_or_else(|| format!("baseline entry missing rule: `{line}`"))?;
                let path = json_field_str(line, "path")
                    .ok_or_else(|| format!("baseline entry missing path: `{line}`"))?;
                let count = json_field_num(line, "count")
                    .ok_or_else(|| format!("baseline entry missing count: `{line}`"))?;
                *entries.entry((rule, path)).or_insert(0) += count;
            }
        }
        Ok(Baseline {
            suppressed: suppressed.ok_or("baseline is missing \"suppressed\"")?,
            entries,
        })
    }
}

fn json_field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_string())
}

fn json_field_num(line: &str, key: &str) -> Option<usize> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Removes findings the baseline grandfathers (first `count` per
/// `(rule, path)`, in report order) and records the suppression budget so
/// [`Report::exit_code`] can fail on growth.
pub fn apply_baseline(report: &mut Report, baseline: &Baseline) {
    let mut budget = baseline.entries.clone();
    let mut kept = Vec::new();
    let mut grandfathered = 0usize;
    for f in report.findings.drain(..) {
        match budget.get_mut(&(f.rule_id.to_string(), f.path.clone())) {
            Some(n) if *n > 0 => {
                *n -= 1;
                grandfathered += 1;
            }
            _ => kept.push(f),
        }
    }
    report.findings = kept;
    report.grandfathered = grandfathered;
    report.suppressed_budget = Some(baseline.suppressed);
}

/// Lints one in-memory source file under an explicit context: its findings
/// and its suppression count (see [`Report::suppressed`]). The unit-test
/// entry point; [`lint_root`] drives it over a real tree.
pub fn lint_source(ctx: &FileContext, src: &str) -> (Vec<Violation>, usize) {
    let lexed = lexer::lex(src);
    let (findings, silenced) = rules::check(ctx, &lexed);
    (
        findings,
        silenced + syntax::lint_suppressions(&lexed.tokens),
    )
}

/// Derives the rule context of `rel` (a `/`-separated workspace-relative
/// path).
pub fn context_for(rel: &str) -> FileContext {
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_name = if parts.first() == Some(&"crates") && parts.len() > 1 {
        parts[1].to_string()
    } else {
        "approx-noc".to_string()
    };
    let sim_critical = SIM_CRITICAL_CRATES.contains(&crate_name.as_str());
    let in_dir = |d: &str| parts.contains(&d);
    let file = parts.last().copied().unwrap_or("");
    FileContext {
        path: rel.to_string(),
        crate_name,
        sim_critical,
        is_test_file: in_dir("tests") || in_dir("benches") || in_dir("examples"),
        is_bin: in_dir("bin") || file == "main.rs" || file == "build.rs",
    }
}

/// Walks `root` for workspace `.rs` files, in sorted (deterministic) order.
/// Skips `target/` and hidden directories.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints every workspace source file under `root`.
pub fn lint_root(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for path in collect_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let ctx = context_for(&rel);
        let src = std::fs::read_to_string(&path)?;
        let (violations, suppressed) = lint_source(&ctx, &src);
        report.files_scanned += 1;
        report.suppressed += suppressed;
        for v in violations {
            report.findings.push(Finding {
                rule_id: v.rule.id,
                severity: v.rule.severity,
                path: rel.clone(),
                line: v.line,
                message: v.message,
            });
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule_id).cmp(&(&b.path, b.line, b.rule_id)));
    Ok(report)
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// The `anoc-lint` binary's driver. Accepts `--json`, `--deny`,
/// `--root PATH`, `--baseline FILE` and `--write-baseline FILE`; prints the
/// report to stdout and returns the process exit code.
pub fn run_cli(args: &[String]) -> i32 {
    const USAGE: &str = "usage: anoc-lint [--json] [--deny] [--root PATH] \
                         [--baseline FILE] [--write-baseline FILE]";
    let mut opts = Options::default();
    let mut root: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--deny" => opts.deny = true,
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root needs a path");
                    return 2;
                }
            },
            "--baseline" => match it.next() {
                Some(p) => baseline = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --baseline needs a file path");
                    return 2;
                }
            },
            "--write-baseline" => match it.next() {
                Some(p) => write_baseline = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --write-baseline needs a file path");
                    return 2;
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("{USAGE}");
                return 2;
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "error: no workspace Cargo.toml found above {}",
                        cwd.display()
                    );
                    return 2;
                }
            }
        }
    };
    match lint_root(&root) {
        Ok(mut report) => {
            if let Some(path) = &write_baseline {
                let base = Baseline::from_report(&report);
                if let Err(e) = std::fs::write(path, base.render_json()) {
                    eprintln!("error: cannot write baseline {}: {e}", path.display());
                    return 2;
                }
                eprintln!(
                    "anoc-lint: wrote baseline to {} ({} entries, {} suppressed)",
                    path.display(),
                    base.entries.len(),
                    base.suppressed
                );
                return 0;
            }
            if let Some(path) = &baseline {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("error: cannot read baseline {}: {e}", path.display());
                        return 2;
                    }
                };
                match Baseline::parse(&text) {
                    Ok(base) => apply_baseline(&mut report, &base),
                    Err(e) => {
                        eprintln!("error: bad baseline {}: {e}", path.display());
                        return 2;
                    }
                }
            }
            if opts.json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_human());
            }
            report.exit_code(&opts)
        }
        Err(e) => {
            eprintln!("error: cannot lint {}: {e}", root.display());
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_classification() {
        let c = context_for("crates/noc/src/sim.rs");
        assert_eq!(c.crate_name, "noc");
        assert!(c.sim_critical && !c.is_test_file && !c.is_bin);

        let c = context_for("crates/noc/tests/integration.rs");
        assert!(c.sim_critical && c.is_test_file);

        let c = context_for("crates/exec/src/pool.rs");
        assert!(!c.sim_critical);

        let c = context_for("crates/harness/src/bin/fig9.rs");
        assert!(c.is_bin);

        let c = context_for("src/lib.rs");
        assert_eq!(c.crate_name, "approx-noc");
        assert!(!c.sim_critical && !c.is_bin);

        let c = context_for("src/bin/anoc.rs");
        assert!(c.is_bin);

        let c = context_for("examples/latency_sweep.rs");
        assert!(c.is_test_file);
    }

    #[test]
    fn report_exit_codes() {
        let clean = Report::default();
        assert_eq!(clean.exit_code(&Options::default()), 0);
        assert_eq!(
            clean.exit_code(&Options {
                deny: true,
                ..Options::default()
            }),
            0
        );
        let mut warned = Report::default();
        warned.findings.push(Finding {
            rule_id: "X001",
            severity: Severity::Warning,
            path: "x.rs".into(),
            line: 1,
            message: "m".into(),
        });
        assert_eq!(warned.exit_code(&Options::default()), 0);
        assert_eq!(
            warned.exit_code(&Options {
                deny: true,
                ..Options::default()
            }),
            1
        );
        let mut errored = Report::default();
        errored.findings.push(Finding {
            rule_id: "X001",
            severity: Severity::Error,
            path: "x.rs".into(),
            line: 1,
            message: "m".into(),
        });
        assert_eq!(errored.exit_code(&Options::default()), 1);
    }

    #[test]
    fn json_schema_is_stable() {
        let mut r = Report {
            files_scanned: 2,
            suppressed: 1,
            ..Report::default()
        };
        r.findings.push(Finding {
            rule_id: "X001",
            severity: Severity::Error,
            path: "crates/noc/src/sim.rs".into(),
            line: 69,
            message: "a \"quoted\" message".into(),
        });
        let json = r.render_json();
        assert!(json.contains("\"version\": 2"));
        assert!(json.contains("\"files_scanned\": 2"));
        assert!(json.contains("\"errors\": 1"));
        assert!(json.contains("\"warnings\": 0"));
        assert!(json.contains("\"suppressed\": 1"));
        assert!(json.contains("\"grandfathered\": 0"));
        assert!(json.contains("\"suppressed_budget\": null"));
        assert!(json.contains(
            "{\"rule\": \"X001\", \"severity\": \"error\", \
             \"path\": \"crates/noc/src/sim.rs\", \"line\": 69, \
             \"message\": \"a \\\"quoted\\\" message\"}"
        ));
        // Key order is fixed: version before violations, rule before path.
        let v = json.find("\"version\"").unwrap();
        let f = json.find("\"files_scanned\"").unwrap();
        let vio = json.find("\"violations\"").unwrap();
        assert!(v < f && f < vio);
    }

    #[test]
    fn empty_report_renders_empty_array() {
        let json = Report::default().render_json();
        assert!(json.contains("\"violations\": []"));
    }

    #[test]
    fn lint_source_counts_directives_and_lint_attributes() {
        let ctx = context_for("crates/exec/src/x.rs");
        let (v, s) = lint_source(
            &ctx,
            "let n = c.load(Ordering::Relaxed); // anoc-lint: allow(X001): counter only\n\
             #[expect(clippy::panic, reason = \"documented contract\")]\n\
             fn f() { panic!() }\n",
        );
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(s, 2);
    }

    fn finding(rule_id: &'static str, path: &str, sev: Severity) -> Finding {
        Finding {
            rule_id,
            severity: sev,
            path: path.into(),
            line: 1,
            message: "m".into(),
        }
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let mut r = Report {
            suppressed: 4,
            ..Report::default()
        };
        r.findings.push(finding("D004", "a.rs", Severity::Warning));
        r.findings.push(finding("D004", "a.rs", Severity::Warning));
        r.findings.push(finding("X001", "b.rs", Severity::Error));
        let base = Baseline::from_report(&r);
        assert_eq!(base.suppressed, 4);
        assert_eq!(base.entries[&("D004".into(), "a.rs".into())], 2);
        let parsed = Baseline::parse(&base.render_json()).unwrap();
        assert_eq!(parsed, base);
        // An empty baseline round-trips too.
        let empty = Baseline::from_report(&Report::default());
        assert_eq!(Baseline::parse(&empty.render_json()).unwrap(), empty);
    }

    #[test]
    fn baseline_parse_rejects_garbage() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("{\n  \"suppressed\": what\n}").is_err());
        assert!(Baseline::parse(
            "{\n  \"suppressed\": 1,\n  \"entries\": [\n    {\"rule\": \"D004\"}\n  ]\n}"
        )
        .is_err());
    }

    #[test]
    fn baseline_grandfathers_old_findings_and_keeps_new() {
        let mut r = Report {
            suppressed: 2,
            ..Report::default()
        };
        r.findings.push(finding("D004", "a.rs", Severity::Warning));
        r.findings.push(finding("D004", "a.rs", Severity::Warning));
        r.findings.push(finding("X001", "new.rs", Severity::Error));
        let mut base = Baseline {
            suppressed: 2,
            ..Baseline::default()
        };
        base.entries.insert(("D004".into(), "a.rs".into()), 2);
        apply_baseline(&mut r, &base);
        assert_eq!(r.grandfathered, 2);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].path, "new.rs");
        // The new finding still fails the run.
        assert_eq!(r.exit_code(&Options::default()), 1);
    }

    #[test]
    fn baseline_count_overflow_is_a_new_finding() {
        // Three findings against a budget of two: one stays visible.
        let mut r = Report::default();
        for _ in 0..3 {
            r.findings.push(finding("D004", "a.rs", Severity::Warning));
        }
        let mut base = Baseline::default();
        base.entries.insert(("D004".into(), "a.rs".into()), 2);
        apply_baseline(&mut r, &base);
        assert_eq!((r.grandfathered, r.findings.len()), (2, 1));
    }

    #[test]
    fn suppression_growth_fails_even_when_clean() {
        let mut r = Report {
            suppressed: 3,
            ..Report::default()
        };
        let base = Baseline {
            suppressed: 2,
            ..Baseline::default()
        };
        apply_baseline(&mut r, &base);
        assert!(r.findings.is_empty());
        assert!(r.suppression_growth());
        assert_eq!(r.exit_code(&Options::default()), 1);
        assert!(r.render_human().contains("exceeds the baseline budget"));
        // At or under budget is fine.
        let mut ok = Report {
            suppressed: 2,
            ..Report::default()
        };
        apply_baseline(&mut ok, &base);
        assert_eq!(ok.exit_code(&Options::default()), 0);
    }
}
