//! The hygiene family: L000.

use super::{rule, Violation, RULES};
use crate::lexer::Lexed;
use crate::syntax::ItemTree;

/// L000 — every defect in the directive/scope layer itself: malformed
/// `anoc-lint:` comments, `phase()` annotations with no `fn` to bind to,
/// and unbalanced braces (which would silently mis-scope every other
/// rule). Runs on every file, test trees included, so a typo'd directive
/// never fails open.
pub(super) fn check_l000(lexed: &Lexed, tree: &ItemTree, out: &mut Vec<Violation>) {
    for m in &lexed.malformed {
        out.push(Violation {
            rule: rule("L000"),
            line: m.line,
            message: format!("malformed anoc-lint directive: {}", m.detail),
        });
    }
    for &line in &tree.dangling_phase {
        out.push(Violation {
            rule: rule("L000"),
            line,
            message: "`phase(...)` annotation with no following `fn` to attach to".into(),
        });
    }
    for b in &tree.balance_errors {
        out.push(Violation {
            rule: rule("L000"),
            line: b.line,
            message: format!("unbalanced braces: {}", b.detail),
        });
    }
}

/// L000, second half — an `allow` directive must earn its place: each rule
/// it lists has to silence a finding on its line or the next. `used` holds,
/// per directive and listed rule, whether it did. A rule id this set does
/// not have (a deleted rule, a typo) can never be used, so it fires too.
pub(super) fn check_unused_allows(lexed: &Lexed, used: &[Vec<bool>], out: &mut Vec<Violation>) {
    for (s, used) in lexed.suppressions.iter().zip(used) {
        for (id, _) in s.rules.iter().zip(used).filter(|(_, &u)| !u) {
            let why = if RULES.iter().any(|r| r.id == id) {
                "suppresses nothing here; delete it"
            } else {
                "names no anoc-lint rule (clippy checks the others; use `#[expect]`)"
            };
            out.push(Violation {
                rule: rule("L000"),
                line: s.line,
                message: format!("`allow({id})` {why}"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{check_src, ids, sim_ctx};
    use super::super::FileContext;

    #[test]
    fn l000_malformed_directive_is_reported() {
        let vs = check_src(&sim_ctx(), "// anoc-lint: allow(D004)\nlet m = 1;");
        assert_eq!(ids(&vs), vec!["L000"]);
    }

    #[test]
    fn l000_unbalanced_braces_are_reported() {
        let vs = check_src(&sim_ctx(), "fn f() { if x { }\n");
        assert!(ids(&vs).contains(&"L000"));
        assert!(check_src(&sim_ctx(), "fn f() { if x { } }\n").is_empty());
    }

    #[test]
    fn l000_unused_allow_fires() {
        let exec = FileContext {
            crate_name: "exec".into(),
            ..FileContext::default()
        };
        // Above a SeqCst load, an X001 allow silences nothing.
        let vs = check_src(
            &exec,
            "// anoc-lint: allow(X001): test-only counters\nlet v = n.load(Ordering::SeqCst);",
        );
        assert_eq!(ids(&vs), vec!["L000"]);
        assert_eq!(vs[0].line, 1);
        assert!(vs[0].message.contains("suppresses nothing"));
        // The same directive over a Relaxed load is used, so quiet.
        assert!(check_src(
            &exec,
            "// anoc-lint: allow(X001): test-only counters\nlet v = n.load(Ordering::Relaxed);"
        )
        .is_empty());
        // In a multi-rule directive, only the idle rule fires.
        let vs = check_src(
            &exec,
            "let v = n.load(Ordering::Relaxed); // anoc-lint: allow(X001, D004): counters",
        );
        assert_eq!(ids(&vs), vec!["L000"]);
        assert!(vs[0].message.contains("allow(D004)"));
    }

    #[test]
    fn l000_allow_naming_a_deleted_rule_fires() {
        // D003 is clippy's `float_cmp`: an anoc-lint allow for it can never
        // be used.
        let vs = check_src(
            &sim_ctx(),
            "// anoc-lint: allow(D003): exact-zero guard\nif p == 0.0 { q() }",
        );
        assert_eq!(ids(&vs), vec!["L000"]);
        assert!(vs[0].message.contains("names no anoc-lint rule"));
    }
}
