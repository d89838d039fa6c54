//! The repo-specific rule set, organized into families.
//!
//! Every rule is grounded in a concrete hazard of this codebase: the result
//! cache and the golden-fingerprint test both assume that a
//! `(config, workload, seed)` triple reproduces identical bits, and the
//! sharded kernel (DESIGN.md §10) additionally assumes phase-A code reads
//! only last-edge state and cross-thread handoff uses correctly-ordered
//! atomics. These rules need repo knowledge no toolchain lint has; clocks,
//! hash-ordered collections, panics, float equality, narrowing stats casts,
//! printing and `unsafe` are rustc and clippy lints (DESIGN.md §6).
//!
//! Every rule is an error: any finding fails the run.
//!
//! | id   | family      | checks |
//! |------|-------------|--------|
//! | L000 | hygiene     | malformed or unused `anoc-lint:` directive, dangling `phase()`, unbalanced braces |
//! | D004 | determinism | RNG construction outside a `rng-site`-annotated seeded-Pcg32 site |
//! | D005 | determinism | serial-edge mutator reachable from a `phase(A)` root |
//! | X001 | concurrency | `Ordering::Relaxed` in `anoc-exec` without an audit reason |
//!
//! Directives (plain `//` comments, same line or the line above):
//!
//! * `// anoc-lint: allow(RULE[, RULE…]): <reason>` — suppression; a listed
//!   rule that silences nothing is an L000 finding;
//! * `// anoc-lint: phase(A)` — marks the next `fn` as a phase-A root (D005);
//! * `// anoc-lint: rng-site: <reason>` — sanctions an RNG construction (D004).
//!
//! Files under `tests/`, `benches/` or `examples/` get L000 only (test
//! helpers may build ad-hoc RNGs, but a malformed directive must never
//! silently fail open); X001 covers `anoc-exec`, test modules included, and
//! D004/D005 run on the sim-critical crates.

mod concurrency;
mod determinism;
mod hygiene;

use crate::lexer::Lexed;
use crate::syntax;

/// A rule's stable identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
}

/// All rules, in report order.
pub const RULES: [Rule; 4] = [
    Rule {
        id: "L000",
        summary: "malformed or unused anoc-lint directive, or unbalanced scope",
    },
    Rule {
        id: "D004",
        summary: "RNG constructed outside a sanctioned seeded site",
    },
    Rule {
        id: "D005",
        summary: "serial-edge mutator reachable from a parallel phase root",
    },
    Rule {
        id: "X001",
        summary: "unaudited Ordering::Relaxed in anoc-exec",
    },
];

pub fn rule(id: &str) -> &'static Rule {
    RULES
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("unknown rule id {id}"))
}

/// The crates whose behaviour feeds simulation statistics. D004 and D005
/// run here; each of these crates' `lib.rs` also denies clippy's
/// `disallowed_methods`/`disallowed_types` (lists in `clippy.toml`), which
/// `workspace_clean` checks.
pub const SIM_CRITICAL_CRATES: [&str; 5] = ["noc", "compression", "core", "traffic", "apps"];

/// Serial-edge mutators that phase-A code must never reach (DESIGN.md §10):
/// each one writes current-edge state (ejections, credits, traces, control
/// queues, fault draws) that only the serial cycle edge may touch.
pub const PHASE_DENY: [&str; 11] = [
    "return_credit",
    "eject_flit",
    "complete_packet",
    "flip_payload_bit",
    "credit_copies",
    "record_trace",
    "enqueue_control_with",
    "check_bound",
    "schedule",
    "drain_delivered",
    "apply_notification",
];

/// Where a file sits in the workspace — determines which rules apply.
#[derive(Debug, Clone, Default)]
pub struct FileContext {
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// Crate directory name under `crates/` (or the root package name).
    pub crate_name: String,
    /// Member of [`SIM_CRITICAL_CRATES`].
    pub sim_critical: bool,
    /// Under `tests/`, `benches/` or `examples/` — everything is test code.
    pub is_test_file: bool,
    /// Under `src/bin/` or a `main.rs` — CLI entry points.
    pub is_bin: bool,
}

/// One finding, pre-suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static Rule,
    pub line: u32,
    pub message: String,
}

/// Runs every applicable rule over one lexed file and applies its `allow`
/// directives. Returns the findings left and the number silenced. A rule
/// named by a directive that silenced nothing — an `allow` left behind by a
/// fix, or naming no rule of this set — becomes an L000 finding, as an
/// unfulfilled `#[expect]` fails clippy.
pub fn check(ctx: &FileContext, lexed: &Lexed) -> (Vec<Violation>, usize) {
    let tree = syntax::build(lexed);
    let mut found = Vec::new();
    hygiene::check_l000(lexed, &tree, &mut found);
    if !ctx.is_test_file {
        concurrency::check_x001(ctx, lexed, &mut found);
        if ctx.sim_critical {
            determinism::check(ctx, lexed, &tree, &mut found);
        }
    }
    let mut used: Vec<Vec<bool>> = lexed
        .suppressions
        .iter()
        .map(|s| vec![false; s.rules.len()])
        .collect();
    let mut out = Vec::new();
    let mut silenced = 0;
    for v in found {
        match lexed.suppression_of(v.rule.id, v.line) {
            Some((directive, r)) => {
                used[directive][r] = true;
                silenced += 1;
            }
            None => out.push(v),
        }
    }
    hygiene::check_unused_allows(lexed, &used, &mut out);
    out.sort_by_key(|v| (v.line, v.rule.id));
    (out, silenced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    pub(super) fn sim_ctx() -> FileContext {
        FileContext {
            path: "crates/noc/src/sim.rs".into(),
            crate_name: "noc".into(),
            sim_critical: true,
            ..FileContext::default()
        }
    }

    pub(super) fn check_src(ctx: &FileContext, src: &str) -> Vec<Violation> {
        check(ctx, &lex(src)).0
    }

    pub(super) fn ids(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule.id).collect()
    }

    #[test]
    fn violations_in_strings_and_comments_do_not_fire() {
        let ctx = sim_ctx();
        assert!(check_src(&ctx, "let s = \"Pcg32::new(1, 2) OsRng\";").is_empty());
        assert!(check_src(&ctx, "// OsRng in prose\n/* rand::random() */").is_empty());
        assert!(check_src(&ctx, "let s = r#\"Pcg32::seed_from_u64(\"x\")\"#;").is_empty());
    }

    #[test]
    fn test_tree_files_get_hygiene_rules_only() {
        let test_file = FileContext {
            is_test_file: true,
            ..sim_ctx()
        };
        // Ad-hoc and ambient RNGs are fine in a test tree.
        assert!(check_src(
            &test_file,
            "fn t() { let r = Pcg32::seed_from_u64(1); let o = OsRng; }"
        )
        .is_empty());
        // …but a malformed directive still fails loudly.
        assert_eq!(
            ids(&check_src(
                &test_file,
                "// anoc-lint: allow(D004)\nfn t() {}"
            )),
            vec!["L000"]
        );
    }

    #[test]
    fn rule_table_is_consistent() {
        for r in &RULES {
            assert_eq!(rule(r.id).id, r.id);
        }
        assert_eq!(RULES.len(), 4);
    }
}
