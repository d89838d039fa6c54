//! Source rules that neither rustc nor clippy states, checked as plain text
//! scans of the workspace:
//!
//! * sim-critical library code builds every generator from a named
//!   `rng::Stream` (D004);
//! * the count of `allow`/`expect` lint attributes equals the committed
//!   budget in `lint-baseline.json`;
//! * every member inherits the workspace lints, and every sim-critical
//!   crate root denies clippy's clock and hash-collection lists.
//!
//! Every scan fails if it reads no files, so a moved directory cannot make
//! it pass vacuously.

use std::path::Path;

/// The crates whose behaviour feeds simulation statistics.
const SIM_CRITICAL_CRATES: [&str; 5] = ["noc", "compression", "core", "traffic", "apps"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir` as `(path relative to the root, text)`, in
/// sorted order, skipping `target/` and dot-directories.
///
/// # Panics
///
/// Panics if `dir` holds no `.rs` file.
fn sources(dir: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("read source directory") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    assert!(!files.is_empty(), "no .rs file under {}", dir.display());
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("read source file");
            let rel = path.strip_prefix(root()).unwrap_or(&path);
            (rel.display().to_string(), text)
        })
        .collect()
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The text after each occurrence of `word` in `line` that no identifier
/// character precedes.
fn after_word<'a>(line: &'a str, word: &'a str) -> impl Iterator<Item = &'a str> {
    line.match_indices(word)
        .filter(move |&(at, _)| !line[..at].ends_with(is_ident_char))
        .map(move |(at, _)| &line[at + word.len()..])
}

/// Whether `word` occurs in `line` as a whole word.
fn has_word(line: &str, word: &str) -> bool {
    after_word(line, word).any(|rest| !rest.starts_with(is_ident_char))
}

/// The lines of `text` outside test modules, numbered from 1. A test module
/// runs from a column-0 `#[cfg(test)]` to the next column-0 `}`, the shape
/// rustfmt gives every top-level item.
fn library_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut in_test = false;
    text.lines().enumerate().filter_map(move |(i, line)| {
        in_test |= line == "#[cfg(test)]";
        let library = !in_test;
        in_test &= line != "}";
        library.then_some((i + 1, line))
    })
}

/// Sim-critical library code builds its generators with `Pcg32::on` from a
/// named `rng::Stream`, so `rng.rs` lists every stream a simulation draws
/// from. Tests, benches and examples may build ad-hoc generators.
#[test]
fn sim_critical_rngs_are_built_on_named_streams() {
    for name in SIM_CRITICAL_CRATES {
        for (path, text) in sources(&root().join("crates").join(name).join("src")) {
            if path.ends_with("rng.rs") {
                continue;
            }
            for (n, line) in library_lines(&text) {
                for raw in ["Pcg32::new", "Pcg32::seed_from_u64"] {
                    assert!(
                        !has_word(line, raw),
                        "{path}:{n}: `{raw}` in library code; build the generator \
                         with `Pcg32::on` and a named `rng::Stream`"
                    );
                }
            }
        }
    }
}

/// The `allow`/`expect` lint attributes in the text: every attribute that
/// opens a line and names either lint level, counted once however many
/// lines it spans.
fn lint_suppressions(text: &str) -> usize {
    let depth = |s: &str| s.matches('[').count() as isize - s.matches(']').count() as isize;
    let mut count = 0;
    let mut lines = text.lines().map(str::trim_start);
    while let Some(line) = lines.next() {
        if !(line.starts_with("#[") || line.starts_with("#![")) {
            continue;
        }
        let mut attr = line.to_string();
        while depth(&attr) > 0 {
            let Some(next) = lines.next() else { break };
            attr.push_str(next);
        }
        let silences = ["allow", "expect"]
            .into_iter()
            .any(|level| after_word(&attr, level).any(|rest| rest.starts_with('(')));
        count += usize::from(silences);
    }
    count
}

/// The committed budget equals the live count of `allow`/`expect` lint
/// attributes over every `.rs` file, `benchmark/` included: a new
/// suppression fails until the budget is raised on purpose (which CI
/// refuses), and a removed one must lower it, so slack never accumulates.
#[test]
fn committed_baseline_matches_workspace() {
    let baseline = std::fs::read_to_string(root().join("lint-baseline.json"))
        .expect("read lint-baseline.json");
    let budget: usize = baseline
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"suppressed\":"))
        .and_then(|n| n.trim().trim_end_matches(',').parse().ok())
        .expect("lint-baseline.json holds a \"suppressed\" count");
    let live: usize = sources(root())
        .iter()
        .map(|(_, text)| lint_suppressions(text))
        .sum();
    assert_eq!(
        live, budget,
        "{live} allow/expect attributes, but lint-baseline.json budgets {budget}; \
         fix the finding, or change the budget on purpose"
    );
}

#[test]
fn lint_suppressions_counts_each_silencing_attribute_once() {
    // Each line starts with a quote, so this file's own scan skips them.
    let src = [
        "#![allow(dead_code, reason = \"r\")]",
        "#[expect(",
        "    clippy::panic,",
        "    reason = \"r\"",
        ")]",
        "#[cfg_attr(not(test), allow(clippy::float_cmp))]",
        "#![deny(clippy::disallowed_types)]",
        "#[should_panic(expected = \"x\")]",
        "// #[allow(unused)]",
    ]
    .join("\n");
    assert_eq!(lint_suppressions(&src), 3);
}

/// `[workspace.lints]` forbids `unsafe_code` for every member only if each
/// member opts in; a new crate without `[lints] workspace = true` would
/// silently compile `unsafe` blocks.
#[test]
fn every_member_inherits_the_workspace_lints() {
    let workspace = std::fs::read_to_string(root().join("Cargo.toml")).expect("read Cargo.toml");
    assert!(
        workspace.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""),
        "the workspace manifest must forbid unsafe_code"
    );
    let mut members = vec![root().join("Cargo.toml")];
    for entry in std::fs::read_dir(root().join("crates")).expect("read crates/") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.exists() {
            members.push(manifest);
        }
    }
    assert!(members.len() >= 11, "found {} members", members.len());
    for path in members {
        let text = std::fs::read_to_string(&path).expect("read manifest");
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} does not inherit the workspace lints",
            path.display()
        );
    }
}

/// The workspace manifest leaves clippy's `disallowed_methods` and
/// `disallowed_types` off, so the wall-clock, hash-collection and
/// `RandomState` bans hold only where a crate root turns them on.
#[test]
fn sim_critical_crates_deny_the_disallowed_lists() {
    const DENY: &str = "#![deny(clippy::disallowed_methods, clippy::disallowed_types)]";
    for name in SIM_CRITICAL_CRATES {
        let path = root().join("crates").join(name).join("src/lib.rs");
        let src = std::fs::read_to_string(&path).expect("read sim-critical lib.rs");
        assert!(
            src.lines().any(|l| l == DENY),
            "{} must carry `{DENY}` on a line of its own",
            path.display()
        );
    }
}
