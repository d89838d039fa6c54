//! Property-based tests for the lint front end: the lexer and the
//! brace-matched item tree must be total over arbitrary token soup. A panic
//! in either would turn a stray byte in any workspace file into a broken
//! `anoc-lint` run, so the core property is "never panics, and every span
//! stays inside the file"; on top of that, the brace matcher must agree
//! with a naive depth walk about whether the file is balanced — imbalance
//! is *reported* (as L000 input for the rules), never mis-scoped silently.

use anoc_lint::lexer::{lex, TokKind};
use anoc_lint::syntax::{build, ScopeKind};
use anoc_lint::{context_for, lint_source};
use proptest::prelude::*;

/// Source fragments chosen to stress every lexer state and matcher
/// transition: item keywords, attributes, directives (well- and malformed),
/// braces hidden in strings/chars/comments, unterminated literals.
const FRAGMENTS: [&str; 37] = [
    "fn step",
    "pub fn phase_a",
    "mod kernel",
    "impl NetStats",
    "impl fmt::Display for Router",
    "struct S",
    "enum E",
    "trait T",
    "union U",
    "where T: Clone",
    "{",
    "}",
    "{ }",
    ";",
    "( )",
    "#[cfg(test)]",
    "#[test]",
    "#![deny(clippy::disallowed_types)]",
    "#[expect(clippy::panic, reason = \"contract\")]",
    "#[cfg_attr(not(test), allow(dead_code))]",
    "// anoc-lint: phase(A)",
    "// anoc-lint: phase(A) trailing",
    "// anoc-lint: allow(X001): reason given",
    "// anoc-lint: allow(D003): deleted rule",
    "// anoc-lint: allow(X001)",
    "// anoc-lint: rng-site: seeded from config",
    "// anoc-lint: rng-site",
    "// plain comment with { brace",
    "\"a string with { and }\"",
    "'{'",
    "'a",
    "\"unterminated",
    "let x = 1.5e3;",
    "Pcg32::seed_from_u64(7)",
    "n.load(Ordering::Relaxed)",
    "self.eject_flit(0)",
    "total as u32",
];

fn soup() -> impl Strategy<Value = String> {
    prop::collection::vec(
        (
            prop::sample::select(FRAGMENTS.to_vec()),
            prop::sample::select(vec![" ", "\n", "\n\n", "\t"]),
        ),
        0..48,
    )
    .prop_map(|pieces| {
        let mut src = String::new();
        for (frag, sep) in pieces {
            src.push_str(frag);
            src.push_str(sep);
        }
        src
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lexer is total and every recorded line is inside the file.
    #[test]
    fn lexer_never_panics_and_lines_are_in_bounds(src in soup()) {
        let lexed = lex(&src);
        let last = src.lines().count().max(1) as u32;
        for t in &lexed.tokens {
            prop_assert!(t.line >= 1 && t.line <= last, "token line {} of {last}", t.line);
        }
        for s in &lexed.suppressions {
            prop_assert!(s.line >= 1 && s.line <= last);
        }
        for m in &lexed.malformed {
            prop_assert!(m.line >= 1 && m.line <= last);
        }
        for a in &lexed.annotations {
            prop_assert!(a.line >= 1 && a.line <= last);
        }
        for r in &lexed.rng_sites {
            prop_assert!(r.line >= 1 && r.line <= last);
        }
    }

    /// The item tree is total, parents precede children, and every scope's
    /// span is ordered (header <= open <= close) and inside the file.
    #[test]
    fn item_tree_invariants_hold(src in soup()) {
        let lexed = lex(&src);
        let tree = build(&lexed);
        let last = src.lines().count().max(1) as u32;
        prop_assert!(!tree.scopes.is_empty(), "root scope always present");
        prop_assert_eq!(tree.scopes[0].kind, ScopeKind::Root);
        for (i, s) in tree.scopes.iter().enumerate().skip(1) {
            prop_assert!(s.parent < i, "parent {} of scope {i}", s.parent);
            prop_assert!(s.header_line <= s.open_line, "{:?}", s);
            prop_assert!(s.open_line <= s.close_line, "{:?}", s);
            prop_assert!(s.close_line <= last, "{:?} vs {last} lines", s);
        }
        for &line in &tree.dangling_phase {
            prop_assert!(line >= 1 && line <= last);
        }
    }

    /// The matcher agrees with a naive depth walk over the token stream:
    /// balance errors are reported exactly when the walk goes negative or
    /// ends off zero. (Braces inside strings/chars/comments never reach the
    /// token stream, so the naive walk sees the same braces the matcher
    /// does.)
    #[test]
    fn balance_errors_match_naive_depth_walk(src in soup()) {
        let lexed = lex(&src);
        let tree = build(&lexed);
        let mut depth = 0i64;
        let mut went_negative = false;
        for t in &lexed.tokens {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth < 0 {
                            went_negative = true;
                            depth = 0; // the matcher discards the stray `}`
                        }
                    }
                    _ => {}
                }
            }
        }
        let unbalanced = went_negative || depth != 0;
        prop_assert_eq!(
            !tree.balance_errors.is_empty(),
            unbalanced,
            "depth walk says unbalanced={}, matcher reported {:?}",
            unbalanced,
            tree.balance_errors
        );
    }

    /// The full per-file pipeline (lex → tree → every rule family) is total
    /// under the strictest context: a sim-critical crate root.
    #[test]
    fn lint_source_is_total_on_token_soup(src in soup()) {
        let ctx = context_for("crates/noc/src/lib.rs");
        let (violations, _suppressed) = lint_source(&ctx, &src);
        let last = src.lines().count().max(1) as u32;
        for v in &violations {
            prop_assert!(v.line >= 1 && v.line <= last);
        }
    }
}
