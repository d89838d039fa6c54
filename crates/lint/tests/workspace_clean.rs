//! Self-check: the real workspace must be lint-clean, and the toolchain
//! half of the rule set must stay wired up. An unannotated RNG stream or an
//! unaudited `Relaxed` fails this test; so does a member crate that opts
//! out of the workspace lints, or a sim-critical crate that stops denying
//! clippy's clock and hash-collection lists.

use std::path::Path;

use anoc_lint::lexer::lex;
use anoc_lint::rules::SIM_CRITICAL_CRATES;
use anoc_lint::{lint_root, Baseline};

fn workspace_root() -> &'static Path {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root");
    root
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    assert!(
        root.join("Cargo.toml").exists(),
        "workspace root not found at {}",
        root.display()
    );
    let report = lint_root(root).expect("lint workspace");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    let rendered = report.render_human();
    assert!(
        report.findings.is_empty(),
        "workspace has lint findings:\n{rendered}"
    );
    assert_eq!(report.exit_code(), 0);
}

/// The committed budget must equal the live suppression count: a new
/// suppression fails until the budget is regenerated deliberately, and a
/// removed one must shrink the budget with it, so slack never accumulates.
/// Regenerate with
/// `cargo run -p anoc-lint -- --write-baseline lint-baseline.json`.
#[test]
fn committed_baseline_matches_workspace() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("lint-baseline.json"))
        .expect("committed lint-baseline.json at the workspace root");
    let baseline = Baseline::parse(&text).expect("parse committed baseline");
    let report = lint_root(root).expect("lint workspace");
    assert_eq!(
        report.suppressed, baseline.suppressed,
        "live suppression count differs from the committed budget; fix the \
         finding, or regenerate the baseline deliberately"
    );
}

/// The root manifest plus every `crates/*` manifest: the workspace members.
fn member_manifests() -> Vec<(String, String)> {
    let root = workspace_root();
    let mut paths = vec![root.join("Cargo.toml")];
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|p| p.exists())
        .collect();
    crates.sort();
    paths.extend(crates);
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("read manifest");
            (p.display().to_string(), text)
        })
        .collect()
}

/// `[workspace.lints]` forbids `unsafe_code` for every member only if each
/// member opts in; a new crate without `[lints] workspace = true` would
/// silently compile `unsafe` blocks.
#[test]
fn every_member_inherits_the_workspace_lints() {
    let manifests = member_manifests();
    assert!(manifests.len() >= 12, "found {} members", manifests.len());
    let (_, root) = &manifests[0];
    assert!(
        root.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""),
        "the workspace manifest must forbid unsafe_code"
    );
    for (path, text) in &manifests {
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{path} does not inherit the workspace lints"
        );
    }
}

/// The workspace manifest leaves clippy's `disallowed_methods` and
/// `disallowed_types` off, so the wall-clock and hash-collection bans hold
/// only where a crate root turns them on.
#[test]
fn sim_critical_crates_deny_the_disallowed_lists() {
    const DENY: &str = "#![deny(clippy::disallowed_methods,clippy::disallowed_types)]";
    for name in SIM_CRITICAL_CRATES {
        let path = workspace_root()
            .join("crates")
            .join(name)
            .join("src/lib.rs");
        let src = std::fs::read_to_string(&path).expect("read sim-critical lib.rs");
        // Joined tokens: comments and whitespace are gone, so a commented-out
        // attribute does not count.
        let joined: String = lex(&src).tokens.iter().map(|t| t.text.as_str()).collect();
        assert!(
            joined.contains(DENY),
            "{} must carry `#![deny(clippy::disallowed_methods, clippy::disallowed_types)]`",
            path.display()
        );
    }
}
