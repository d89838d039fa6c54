//! The determinism family: D004 and D005.
//!
//! Everything here exists because the result cache and the golden
//! fingerprint assume `(config, workload, seed)` → identical bits. Ambient
//! entropy, unaudited RNG streams and phase-discipline violations in the
//! sharded kernel all break that silently. (Clocks and hash-ordered
//! collections, D001/D002, are clippy's `disallowed_methods` and
//! `disallowed_types`; DESIGN.md §6.)

use super::{rule, FileContext, Violation, PHASE_DENY};
use crate::lexer::{Lexed, TokKind};
use crate::syntax::ItemTree;
use std::collections::BTreeSet;

/// RNG types/constructors that are nondeterministic by design — never
/// acceptable in a sim-critical crate, tests included.
const AMBIENT_RNG_IDENTS: [&str; 7] = [
    "OsRng",
    "StdRng",
    "SmallRng",
    "ThreadRng",
    "from_entropy",
    "getrandom",
    "RandomState",
];

/// Seeded-Pcg32 constructors audited by D004: each construction site in
/// library code must carry an `rng-site` annotation explaining why its
/// seeding is deterministic.
const PCG_CONSTRUCTORS: [&str; 2] = ["new", "seed_from_u64"];

/// The one file allowed to construct `Pcg32` without annotation: the RNG
/// implementation itself.
const RNG_IMPL_PATH: &str = "crates/core/src/rng.rs";

pub(super) fn check(ctx: &FileContext, lexed: &Lexed, tree: &ItemTree, out: &mut Vec<Violation>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_is = |s: &str| toks.get(i + 1).is_some_and(|n| n.text == s);
        match t.text.as_str() {
            // D004a — ambient entropy sources, tests included: even a
            // test drawing from the OS RNG cannot reproduce a failure.
            id if AMBIENT_RNG_IDENTS.contains(&id) => {
                out.push(Violation {
                    rule: rule("D004"),
                    line: t.line,
                    message: format!(
                        "`{}` is ambient entropy; every sim-critical draw must come \
                             from a seeded Pcg32 at an annotated rng-site",
                        t.text
                    ),
                });
            }
            "rand" if next_is("::") => {
                out.push(Violation {
                    rule: rule("D004"),
                    line: t.line,
                    message: "the `rand` crate is off-limits in sim-critical code; use \
                                  the in-repo seeded Pcg32"
                        .into(),
                });
            }
            // D004b — seeded constructions are fine, but only at sites
            // annotated with their determinism argument, so fault plans
            // and future warmup-snapshot serialization can enumerate
            // every RNG stream in the workspace.
            "Pcg32"
                if !ctx.is_bin
                    && ctx.path != RNG_IMPL_PATH
                    && !tree.in_test(t.line)
                    && next_is("::")
                    && toks
                        .get(i + 2)
                        .map(|n| PCG_CONSTRUCTORS.contains(&n.text.as_str()))
                        .unwrap_or(false)
                    && !lexed.is_rng_site(t.line) =>
            {
                out.push(Violation {
                    rule: rule("D004"),
                    line: t.line,
                    message: format!(
                        "`Pcg32::{}` outside a sanctioned site; annotate the \
                             construction with `// anoc-lint: rng-site: <why this seeding \
                             is deterministic>`",
                        toks.get(i + 2).map(|n| n.text.as_str()).unwrap_or("new")
                    ),
                });
            }
            _ => {}
        }
    }
    check_d005(tree, out);
}

/// D005 — phase discipline: no function reachable from a `phase(A)` root
/// may call a serial-edge mutator. Reachability is the name-level call
/// graph from the item tree: conservative (same-named fns merge), so this
/// can over-report but never silently under-report.
fn check_d005(tree: &ItemTree, out: &mut Vec<Violation>) {
    let phases: BTreeSet<&str> = tree
        .scopes
        .iter()
        .filter_map(|s| s.phase.as_deref())
        .collect();
    let mut seen: BTreeSet<(u32, &str)> = BTreeSet::new();
    for phase in phases {
        for (scope, root) in tree.phase_reachable(phase) {
            let s = &tree.scopes[scope];
            if s.is_test {
                continue;
            }
            for call in &s.calls {
                if PHASE_DENY.contains(&call.name.as_str())
                    && seen.insert((call.line, call.name.as_str()))
                {
                    out.push(Violation {
                        rule: rule("D005"),
                        line: call.line,
                        message: format!(
                            "`{}` mutates current-edge state but is reachable from \
                             phase({}) root `{}` (via `{}`); parallel-phase code may \
                             only read last-edge state (DESIGN.md §10)",
                            call.name, phase, tree.scopes[root].name, s.name
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{check_src, ids, sim_ctx};
    use super::super::FileContext;

    #[test]
    fn d004_ambient_entropy_always_fires() {
        let ctx = sim_ctx();
        assert_eq!(ids(&check_src(&ctx, "let r = OsRng;")), vec!["D004"]);
        assert_eq!(
            ids(&check_src(&ctx, "let r = SmallRng::from_entropy();")),
            vec!["D004", "D004"]
        );
        assert_eq!(
            ids(&check_src(&ctx, "let x = rand::random();")),
            vec!["D004"]
        );
        // Even in test modules — an OS-entropy test is unreproducible.
        assert_eq!(
            ids(&check_src(
                &ctx,
                "#[cfg(test)]\nmod tests { fn f() { let r = OsRng; } }"
            )),
            vec!["D004"]
        );
    }

    #[test]
    fn d004_construction_needs_rng_site() {
        let ctx = sim_ctx();
        assert_eq!(
            ids(&check_src(&ctx, "let r = Pcg32::seed_from_u64(7);")),
            vec!["D004"]
        );
        assert_eq!(
            ids(&check_src(&ctx, "let r = Pcg32::new(seed, stream);")),
            vec!["D004"]
        );
        // Annotated sites pass (trailing or preceding).
        assert!(check_src(
            &ctx,
            "// anoc-lint: rng-site: dedicated fault stream, seeded from the plan\n\
             let r = Pcg32::seed_from_u64(plan.seed);"
        )
        .is_empty());
        // Drawing from an existing RNG is free — only construction is audited.
        assert!(check_src(&ctx, "let v = rng.next_u32();").is_empty());
        // Test code may construct ad-hoc seeded RNGs.
        assert!(check_src(
            &ctx,
            "#[cfg(test)]\nmod tests { fn f() { let r = Pcg32::seed_from_u64(1); } }"
        )
        .is_empty());
        // The RNG implementation itself is exempt.
        let rng_impl = FileContext {
            path: "crates/core/src/rng.rs".into(),
            crate_name: "core".into(),
            sim_critical: true,
            ..FileContext::default()
        };
        assert!(check_src(&rng_impl, "Pcg32::new(seed, stream)").is_empty());
    }

    #[test]
    fn d005_reaches_through_helpers() {
        let ctx = sim_ctx();
        let src = "\
// anoc-lint: phase(A)
fn phase_a(&mut self) { self.helper(); }
fn helper(&mut self) { self.eject_flit(0); }
";
        let vs = check_src(&ctx, src);
        assert_eq!(ids(&vs), vec!["D005"]);
        assert_eq!(vs[0].line, 3);
        assert!(vs[0].message.contains("phase_a"));
        // The same mutator called from an unannotated fn is fine.
        assert!(check_src(&ctx, "fn edge(&mut self) { self.eject_flit(0); }").is_empty());
        // A phase root with a clean call chain is fine.
        assert!(check_src(
            &ctx,
            "// anoc-lint: phase(A)\nfn phase_a(&self) { self.read_only(); }\nfn read_only(&self) {}"
        )
        .is_empty());
    }

    #[test]
    fn d005_direct_call_from_root_fires() {
        let vs = check_src(
            &sim_ctx(),
            "// anoc-lint: phase(A)\nfn phase_a(&mut self) { self.schedule(1); }",
        );
        assert_eq!(ids(&vs), vec!["D005"]);
    }

    #[test]
    fn dangling_phase_annotation_is_l000() {
        let vs = check_src(&sim_ctx(), "fn f() {}\n// anoc-lint: phase(A)\n");
        assert_eq!(ids(&vs), vec!["L000"]);
    }
}
