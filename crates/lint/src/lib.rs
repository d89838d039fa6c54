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
//! Run it with `cargo run --release -p anoc-lint -- --baseline lint-baseline.json`
//! (what CI does). Every rule is an error, so any finding fails the run.
//! With `--baseline`, the run also fails when the suppression count grows
//! past the committed budget. The count covers both halves: findings
//! silenced by `// anoc-lint: allow(..)` plus every `allow`/`expect` lint
//! attribute. `--write-baseline FILE` regenerates the budget from the
//! current tree.
//!
//! Exit codes: `0` clean, `1` findings or suppression growth past the
//! baseline budget, `2` usage or I/O failure.

pub mod lexer;
pub mod rules;
pub mod syntax;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rules::{FileContext, Violation, SIM_CRITICAL_CRATES};

/// One reportable finding, bound to its file.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule_id: &'static str,
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
    /// The baseline's suppression budget, when one was applied: exceeding it
    /// fails the run even if no findings surfaced.
    pub suppressed_budget: Option<usize>,
}

impl Report {
    /// Suppression count grew past the applied baseline's budget.
    pub fn suppression_growth(&self) -> bool {
        self.suppressed_budget
            .is_some_and(|budget| self.suppressed > budget)
    }

    /// Process exit code: 1 on any finding or suppression growth, else 0.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.findings.is_empty() || self.suppression_growth())
    }

    /// Human-readable rendering: one line per finding plus a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}: {} error: {}",
                f.path, f.line, f.rule_id, f.message
            );
        }
        let _ = writeln!(
            out,
            "anoc-lint: {} files, {} errors, {} suppressed",
            self.files_scanned,
            self.findings.len(),
            self.suppressed
        );
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
    /// EXPERIMENTS.md): `version`, `files_scanned`, `errors`, `suppressed`,
    /// `suppressed_budget` (number, or null when no baseline was applied),
    /// and a `violations` array of `{rule, severity, path, line, message}`
    /// sorted by (path, line, rule); `severity` is always `"error"`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"version\": 3,");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"errors\": {},", self.findings.len());
        let _ = writeln!(out, "  \"suppressed\": {},", self.suppressed);
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
                "{sep}\n    {{\"rule\": \"{}\", \"severity\": \"error\", \"path\": \"{}\", \
                 \"line\": {}, \"message\": \"{}\"}}",
                f.rule_id,
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

/// The committed suppression budget: `--baseline` fails the run if the
/// live suppression count exceeds `suppressed`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    pub suppressed: usize,
}

impl Baseline {
    /// The budget a report's tree carries today.
    pub fn from_report(report: &Report) -> Baseline {
        Baseline {
            suppressed: report.suppressed,
        }
    }

    /// Stable JSON rendering.
    pub fn render_json(&self) -> String {
        format!(
            "{{\n  \"version\": 2,\n  \"suppressed\": {}\n}}\n",
            self.suppressed
        )
    }

    /// Parses the line-oriented subset of JSON that [`Baseline::render_json`]
    /// emits (std-only; no general JSON parser in the workspace).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let line = text
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .find_map(|l| l.strip_prefix("\"suppressed\":"))
            .ok_or("baseline is missing \"suppressed\"")?;
        let suppressed = line
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("bad suppressed count `{}`", line.trim()))?;
        Ok(Baseline { suppressed })
    }
}

/// Records the baseline's suppression budget so [`Report::exit_code`] fails
/// on growth.
pub fn apply_baseline(report: &mut Report, baseline: &Baseline) {
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

/// The `anoc-lint` binary's driver. Accepts `--json`, `--root PATH`,
/// `--baseline FILE` and `--write-baseline FILE`; prints the report to
/// stdout and returns the process exit code.
pub fn run_cli(args: &[String]) -> i32 {
    const USAGE: &str = "usage: anoc-lint [--json] [--root PATH] \
                         [--baseline FILE] [--write-baseline FILE]";
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
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
                    "anoc-lint: wrote baseline to {} ({} suppressed)",
                    path.display(),
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
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_human());
            }
            report.exit_code()
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

    fn finding(rule_id: &'static str, path: &str) -> Finding {
        Finding {
            rule_id,
            path: path.into(),
            line: 1,
            message: "m".into(),
        }
    }

    #[test]
    fn report_exit_codes() {
        assert_eq!(Report::default().exit_code(), 0);
        // Every rule is an error: one finding fails the run.
        let mut found = Report::default();
        found.findings.push(finding("X001", "x.rs"));
        assert_eq!(found.exit_code(), 1);
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
            path: "crates/noc/src/sim.rs".into(),
            line: 69,
            message: "a \"quoted\" message".into(),
        });
        let json = r.render_json();
        assert!(json.contains("\"version\": 3"));
        assert!(json.contains("\"files_scanned\": 2"));
        assert!(json.contains("\"errors\": 1"));
        assert!(json.contains("\"suppressed\": 1"));
        assert!(json.contains("\"suppressed_budget\": null"));
        assert!(!json.contains("warnings") && !json.contains("grandfathered"));
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

    #[test]
    fn baseline_round_trips_through_json() {
        let r = Report {
            suppressed: 4,
            ..Report::default()
        };
        let base = Baseline::from_report(&r);
        assert_eq!(base.suppressed, 4);
        assert_eq!(Baseline::parse(&base.render_json()).unwrap(), base);
        // A budget file that still lists an empty `entries` array parses.
        let old = "{\n  \"version\": 1,\n  \"suppressed\": 9,\n  \"entries\": []\n}\n";
        assert_eq!(Baseline::parse(old).unwrap().suppressed, 9);
    }

    #[test]
    fn baseline_parse_rejects_garbage() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("{\n  \"suppressed\": what\n}").is_err());
    }

    #[test]
    fn suppression_growth_fails_even_when_clean() {
        let mut r = Report {
            suppressed: 3,
            ..Report::default()
        };
        let base = Baseline { suppressed: 2 };
        apply_baseline(&mut r, &base);
        assert!(r.findings.is_empty());
        assert!(r.suppression_growth());
        assert_eq!(r.exit_code(), 1);
        assert!(r.render_human().contains("exceeds the baseline budget"));
        // At or under budget is fine.
        let mut ok = Report {
            suppressed: 2,
            ..Report::default()
        };
        apply_baseline(&mut ok, &base);
        assert_eq!(ok.exit_code(), 0);
    }
}
