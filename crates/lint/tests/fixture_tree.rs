//! End-to-end acceptance test: a synthetic workspace tree with one seeded
//! violation per rule must make `anoc-lint` report every rule and exit
//! nonzero, while the cleaned-up twin exits zero.

use std::path::{Path, PathBuf};

use anoc_lint::{apply_baseline, lint_root, Baseline};

/// A scratch directory that cleans up after itself.
struct TempTree(PathBuf);

impl TempTree {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("anoc-lint-fixture-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create fixture root");
        TempTree(dir)
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.0.join(rel);
        std::fs::create_dir_all(path.parent().expect("fixture files have parents"))
            .expect("create fixture dirs");
        std::fs::write(path, contents).expect("write fixture file");
    }

    fn root(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const WORKSPACE_MANIFEST: &str = "[workspace]\nmembers = [\"crates/*\"]\n";

/// One deliberately-violating fixture per rule (D004, D005, X001, L000):
/// each must fire, produce exit 1, and serialize as a schema-stable JSON
/// finding.
#[test]
fn seeded_tree_trips_every_rule() {
    let tree = TempTree::new("dirty");
    tree.write("Cargo.toml", WORKSPACE_MANIFEST);
    tree.write(
        "crates/noc/src/lib.rs",
        "//! Fixture crate root.\n\
         pub mod jitter;\npub mod phase;\n",
    );
    // D004: seeded construction without an rng-site annotation.
    tree.write(
        "crates/noc/src/jitter.rs",
        "pub fn jitter() -> u32 {\n\
             let mut r = Pcg32::seed_from_u64(42);\n\
             r.next_u32()\n\
         }\n",
    );
    // D005: a phase(A) root reaching a serial-edge mutator via a helper.
    tree.write(
        "crates/noc/src/phase.rs",
        "// anoc-lint: phase(A)\n\
         pub fn phase_a(s: &mut Sim) { helper(s); }\n\
         fn helper(s: &mut Sim) { s.eject_flit(0); }\n",
    );
    // X001: Relaxed ordering in exec library code. L000: an allow over a
    // SeqCst load, which silences nothing.
    tree.write(
        "crates/exec/src/lib.rs",
        "//! Fixture exec root.\n\
         pub fn poll(s: &std::sync::atomic::AtomicU8) -> u8 {\n\
             s.load(std::sync::atomic::Ordering::Relaxed)\n\
         }\n\
         pub fn peek(s: &std::sync::atomic::AtomicU8) -> u8 {\n\
             // anoc-lint: allow(X001): read after join\n\
             s.load(std::sync::atomic::Ordering::SeqCst)\n\
         }\n",
    );
    let report = lint_root(tree.root()).expect("lint fixture tree");
    let fired: Vec<&str> = report.findings.iter().map(|f| f.rule_id).collect();
    for rule in ["D004", "D005", "X001", "L000"] {
        assert!(fired.contains(&rule), "rule {rule} did not fire: {fired:?}");
    }
    // Every rule is an error.
    assert_eq!(report.exit_code(), 1);
    // Schema-stable JSON: every finding serializes with the fixed key order
    // (rule before severity before path).
    let json = report.render_json();
    assert!(json.contains("\"version\": 3"));
    for (rule, path) in [
        ("D004", "crates/noc/src/jitter.rs"),
        ("D005", "crates/noc/src/phase.rs"),
        ("X001", "crates/exec/src/lib.rs"),
        ("L000", "crates/exec/src/lib.rs"),
    ] {
        assert!(
            json.contains(&format!(
                "{{\"rule\": \"{rule}\", \"severity\": \"error\", \"path\": \"{path}\""
            )),
            "{rule} at {path} missing from {json}"
        );
    }
}

/// The rules stay quiet when the contracts are honored: annotated RNG
/// sites, a phase root with a read-only call chain, audited Relaxed. The
/// suppression count covers the directive and every lint attribute.
#[test]
fn clean_tree_is_quiet() {
    let tree = TempTree::new("clean");
    tree.write("Cargo.toml", WORKSPACE_MANIFEST);
    tree.write(
        "crates/noc/src/lib.rs",
        "//! Fixture crate root.\n\
         #![deny(clippy::disallowed_methods, clippy::disallowed_types)]\n\
         pub mod kernel;\n",
    );
    tree.write(
        "crates/noc/src/kernel.rs",
        "// anoc-lint: rng-site: seeded from the sim config, one stream per run\n\
         pub fn rng(seed: u64) -> Pcg32 { Pcg32::seed_from_u64(seed) }\n\
         // anoc-lint: phase(A)\n\
         pub fn phase_a(s: &Sim) -> u64 { peek(s) }\n\
         fn peek(s: &Sim) -> u64 { s.now }\n\
         #[expect(clippy::expect_used, reason = \"documented # Panics contract\")]\n\
         pub fn edge(s: &mut Sim) { s.eject_flit(0).expect(\"slot\"); }\n\
         #[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn t() { let r = Pcg32::seed_from_u64(1); } // tests may build RNGs\n\
         }\n",
    );
    tree.write(
        "crates/exec/src/lib.rs",
        "//! Fixture exec root.\n\
         #[allow(clippy::too_many_arguments, reason = \"one per field\")]\n\
         pub fn bump(n: &std::sync::atomic::AtomicU64) {\n\
             // anoc-lint: allow(X001): monotonic counter, read only after join\n\
             n.fetch_add(1, std::sync::atomic::Ordering::Relaxed);\n\
         }\n",
    );
    let report = lint_root(tree.root()).expect("lint fixture tree");
    assert!(
        report.findings.is_empty(),
        "unexpected findings: {:?}",
        report.findings
    );
    // The X001 audit, the `#[expect]` and the `#[allow]`.
    assert_eq!(report.suppressed, 3);
    assert_eq!(report.exit_code(), 0);
}

/// Test trees (`tests/`, `examples/`, `crates/*/tests/`) are walked and get
/// L000 only: ad-hoc RNGs pass, malformed directives still fail — a typo'd
/// suppression in a test tree must not fail open.
#[test]
fn test_trees_are_walked_with_hygiene_rules_only() {
    let tree = TempTree::new("test-trees");
    tree.write("Cargo.toml", WORKSPACE_MANIFEST);
    tree.write("crates/noc/src/lib.rs", "//! Fixture crate root.\n");
    tree.write(
        "crates/noc/tests/helper.rs",
        "fn scratch() -> u32 {\n\
             let mut r = Pcg32::seed_from_u64(9);\n\
             let _ = OsRng;\n\
             r.next_u32()\n\
         }\n\
         #[test]\n\
         fn t() { assert!(scratch() > 0); }\n",
    );
    tree.write(
        "examples/demo.rs",
        "fn main() {\n    let r = Pcg32::new(1, 2);\n}\n",
    );
    let report = lint_root(tree.root()).expect("lint fixture tree");
    assert!(
        report.findings.is_empty(),
        "test trees should be hygiene-only: {:?}",
        report.findings
    );

    // A malformed directive in the same tree is still an L000 error.
    tree.write(
        "tests/integration.rs",
        "// anoc-lint: allow(D004)\nfn main() {}\n",
    );
    let report = lint_root(tree.root()).expect("lint fixture tree");
    let fired: Vec<(&str, &str)> = report
        .findings
        .iter()
        .map(|f| (f.rule_id, f.path.as_str()))
        .collect();
    assert_eq!(fired, vec![("L000", "tests/integration.rs")]);
    assert_eq!(report.exit_code(), 1);
}

/// The budget workflow end to end: a finding fails the run whatever the
/// baseline says, and suppression growth past the committed budget fails it
/// even when no finding is left.
#[test]
fn baseline_budget_catches_growth_and_excuses_no_finding() {
    let tree = TempTree::new("baseline");
    tree.write("Cargo.toml", WORKSPACE_MANIFEST);
    tree.write(
        "crates/noc/src/lib.rs",
        "//! Fixture crate root.\npub mod old;\n",
    );
    tree.write(
        "crates/noc/src/old.rs",
        "pub fn legacy() -> u32 { Pcg32::seed_from_u64(1).next_u32() }\n",
    );
    let report = lint_root(tree.root()).expect("lint fixture tree");
    assert_eq!(report.findings.len(), 1); // the D004 legacy site

    // A budget snapshot of this tree excuses nothing: the finding still
    // fails the run.
    let baseline =
        Baseline::parse(&Baseline::from_report(&report).render_json()).expect("round trip");
    assert_eq!(baseline.suppressed, 0);
    let mut rerun = lint_root(tree.root()).expect("lint fixture tree");
    apply_baseline(&mut rerun, &baseline);
    assert_eq!(rerun.findings.len(), 1);
    assert_eq!(rerun.exit_code(), 1);

    // Suppressing the finding grows the count past the budget: still red.
    tree.write(
        "crates/noc/src/old.rs",
        "// anoc-lint: allow(D004): legacy stream\n\
         pub fn legacy() -> u32 { Pcg32::seed_from_u64(1).next_u32() }\n",
    );
    let mut grown = lint_root(tree.root()).expect("lint fixture tree");
    assert!(grown.findings.is_empty());
    assert_eq!(grown.suppressed, 1);
    apply_baseline(&mut grown, &baseline);
    assert_eq!(grown.exit_code(), 1);

    // A budget regenerated deliberately at the new count is green.
    let mut at_budget = lint_root(tree.root()).expect("lint fixture tree");
    apply_baseline(&mut at_budget, &Baseline::from_report(&grown));
    assert_eq!(at_budget.exit_code(), 0);
}
