//! A brace-matched item tree over the token stream — the scope layer that
//! turns the flat lexer into a (cheap) structural analysis.
//!
//! The tree is built with a single pushdown pass: item keywords (`fn`,
//! `mod`, `impl`, `trait`, `struct`, `enum`, `union`) arm a *pending item*
//! that the next `{` opens as a named scope; any other `{` opens an
//! anonymous block. Attributes (`#[...]`) are collected ahead of the item
//! they decorate, so `#[cfg(test)]` / `#[test]` propagate down the tree and
//! per-scope queries replace the old line-range test-region scan.
//!
//! While walking each `fn` body the builder also records *call sites* —
//! identifiers followed by `(` (or `!` for macros) — which gives rules a
//! name-level call graph: good enough for reachability checks like D005
//! (phase-A discipline) without a resolver. The approximation is
//! deliberately conservative: same-named functions in different impls are
//! merged, so reachability over-approximates and a rule built on it can
//! only over-report, never silently under-report.
//!
//! Brace balance is part of the contract: a `}` with no open scope, or an
//! EOF with scopes still open, is recorded as a balance error and surfaced
//! by the rule layer as L000 — random token soup either round-trips
//! balanced or is reported, never mis-attributed.

use crate::lexer::{Lexed, TokKind, Token};

/// What kind of scope a `{ ... }` region is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeKind {
    /// The whole file.
    Root,
    /// `mod name { ... }`
    Module,
    /// `fn name(...) { ... }`
    Fn,
    /// `impl Type { ... }` / `impl Trait for Type { ... }` (unnamed).
    Impl,
    /// `trait Name { ... }`
    Trait,
    /// `struct`/`enum`/`union` body.
    Type,
    /// An attributed item that ended with `;` instead of a body
    /// (`#[cfg(test)] use helpers::*;`) — zero-width, kept so attribute
    /// queries still cover it.
    Stmt,
    /// Any other `{ ... }` (fn bodies' inner blocks, match arms, struct
    /// literals, const generic braces, ...).
    Block,
}

/// One call site inside a function body: an identifier directly followed by
/// `(`, or a macro invocation `name!(...)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    pub name: String,
    pub line: u32,
}

/// One scope in the tree. `scopes[0]` is always the file root.
#[derive(Debug, Clone)]
pub struct Scope {
    pub kind: ScopeKind,
    /// Item name (`fn`/`mod`/`trait`/type name); empty for impls, blocks
    /// and the root.
    pub name: String,
    /// Index of the parent scope (the root is its own parent).
    pub parent: usize,
    /// Line of the item keyword (or first attribute for `Stmt`).
    pub header_line: u32,
    /// Line of the opening `{`.
    pub open_line: u32,
    /// Line of the closing `}` (last line of the file if unclosed).
    pub close_line: u32,
    /// Under `#[cfg(test)]` / `#[test]`, directly or via an ancestor.
    pub is_test: bool,
    /// Phase annotation (`// anoc-lint: phase(A)`) attached to this fn.
    pub phase: Option<String>,
    /// Call sites recorded in this scope's immediate body (inner blocks
    /// attach their calls to the nearest enclosing `fn`).
    pub calls: Vec<Call>,
}

impl Scope {
    /// Whether `line` falls inside this scope (header through closing brace).
    pub fn contains(&self, line: u32) -> bool {
        self.kind == ScopeKind::Root || (self.header_line <= line && line <= self.close_line)
    }
}

/// A brace-balance defect — surfaced by the rule layer as L000.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalanceError {
    pub line: u32,
    pub detail: &'static str,
}

/// The scope tree of one file plus everything the builder could not attach.
#[derive(Debug, Default)]
pub struct ItemTree {
    pub scopes: Vec<Scope>,
    pub balance_errors: Vec<BalanceError>,
    /// `phase(...)` annotation lines with no following `fn` to attach to.
    pub dangling_phase: Vec<u32>,
}

impl ItemTree {
    /// Whether `line` sits inside `#[cfg(test)]` / `#[test]` code.
    pub fn in_test(&self, line: u32) -> bool {
        self.scopes
            .iter()
            .skip(1)
            .any(|s| s.is_test && s.contains(line))
    }

    /// Every `(reachable fn scope, phase-root fn scope)` pair for `phase`,
    /// via name-level BFS over recorded call sites. The root itself is
    /// included (a root may call a denied mutator directly).
    pub fn phase_reachable(&self, phase: &str) -> Vec<(usize, usize)> {
        use std::collections::BTreeMap;
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, s) in self.scopes.iter().enumerate() {
            if s.kind == ScopeKind::Fn && !s.name.is_empty() {
                by_name.entry(s.name.as_str()).or_default().push(i);
            }
        }
        let mut out = Vec::new();
        for (root, _) in self
            .scopes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == ScopeKind::Fn && s.phase.as_deref() == Some(phase))
        {
            let mut visited = vec![false; self.scopes.len()];
            let mut work = vec![root];
            visited[root] = true;
            while let Some(cur) = work.pop() {
                out.push((cur, root));
                for call in &self.scopes[cur].calls {
                    for &target in by_name.get(call.name.as_str()).into_iter().flatten() {
                        if !visited[target] {
                            visited[target] = true;
                            work.push(target);
                        }
                    }
                }
            }
        }
        out
    }
}

/// If `tokens[i]` opens an attribute (`#[...]` or `#![...]`), returns its
/// bracketed tokens and the index just past the closing `]`.
pub(crate) fn attribute_at(tokens: &[Token], i: usize) -> Option<(&[Token], usize)> {
    let mut j = i + 1;
    if tokens.get(j).map(|t| t.text.as_str()) == Some("!") {
        j += 1;
    }
    if tokens.get(j).map(|t| t.text.as_str()) != Some("[") {
        return None;
    }
    let open = j;
    let mut depth = 0usize;
    while let Some(t) = tokens.get(j) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((&tokens[open + 1..j], j + 1));
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// The number of `allow`/`expect` lint attributes in `tokens` (outer,
/// inner or under `cfg_attr`): each one silences a rustc or clippy lint.
pub fn lint_suppressions(tokens: &[Token]) -> usize {
    let mut count = 0;
    let mut i = 0;
    while i < tokens.len() {
        match attribute_at(tokens, i).filter(|_| tokens[i].text == "#") {
            Some((attr, after)) => {
                let silences = attr
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && (t.text == "allow" || t.text == "expect"));
                count += usize::from(silences);
                i = after;
            }
            None => i += 1,
        }
    }
    count
}

/// `#[test]` or `#[cfg(test)]` — but not `#[cfg(not(test))]`.
fn is_test_attr(attr: &str) -> bool {
    attr == "test" || attr == "cfg(test)"
}

/// Keywords that can directly precede `(` without being a call, plus
/// item keywords whose *name* token must not read as a call.
const NON_CALL_IDENTS: [&str; 18] = [
    "if", "while", "for", "match", "loop", "return", "fn", "let", "in", "as", "move", "ref", "mut",
    "box", "yield", "dyn", "where", "break",
];

/// Item keywords: when one directly precedes an identifier, that identifier
/// is a definition name, not a call (`fn helper(`, `struct Pair(`).
const ITEM_KEYWORDS: [&str; 7] = ["fn", "mod", "impl", "trait", "struct", "enum", "union"];

/// Builds the scope tree for one lexed file.
pub fn build(lexed: &Lexed) -> ItemTree {
    Builder {
        tokens: &lexed.tokens,
        tree: ItemTree::default(),
        stack: Vec::new(),
        pending: None,
        pending_attrs: Vec::new(),
    }
    .run(lexed)
}

struct Pending {
    kind: ScopeKind,
    name: String,
    header_line: u32,
}

struct Builder<'a> {
    tokens: &'a [Token],
    tree: ItemTree,
    stack: Vec<usize>,
    pending: Option<Pending>,
    pending_attrs: Vec<(String, u32)>,
}

impl Builder<'_> {
    fn run(mut self, lexed: &Lexed) -> ItemTree {
        let last_line = self.tokens.last().map(|t| t.line).unwrap_or(1);
        self.tree.scopes.push(Scope {
            kind: ScopeKind::Root,
            name: String::new(),
            parent: 0,
            header_line: 1,
            open_line: 1,
            close_line: last_line,
            is_test: false,
            phase: None,
            calls: Vec::new(),
        });
        self.stack.push(0);
        // Annotations are consumed in line order by the fns they precede.
        let mut anns: Vec<(u32, &str, bool)> = lexed
            .annotations
            .iter()
            .map(|a| (a.line, a.phase.as_str(), false))
            .collect();

        let mut i = 0;
        while i < self.tokens.len() {
            let t = &self.tokens[i];
            match t.kind {
                TokKind::Punct if t.text == "#" => {
                    if let Some((attr, after)) = attribute_at(self.tokens, i) {
                        // Inner attributes (`#![...]`) configure the
                        // enclosing scope; they carry no cfg(test) items
                        // here, so they are skipped rather than attached.
                        let inner = self.tokens.get(i + 1).map(|n| n.text.as_str()) == Some("!");
                        if !inner {
                            self.pending_attrs.push((attr_text(attr), t.line));
                        }
                        i = after;
                        continue;
                    }
                }
                TokKind::Punct if t.text == "{" => self.open_scope(t.line, &mut anns),
                TokKind::Punct if t.text == "}" => {
                    if self.stack.len() > 1 {
                        let s = self.stack.pop().unwrap_or(0);
                        self.tree.scopes[s].close_line = t.line;
                    } else {
                        self.tree.balance_errors.push(BalanceError {
                            line: t.line,
                            detail: "`}` with no matching `{`",
                        });
                    }
                    self.pending = None;
                    self.pending_attrs.clear();
                }
                TokKind::Punct if t.text == ";" => self.close_stmt(t.line),
                TokKind::Ident if ITEM_KEYWORDS.contains(&t.text.as_str()) => {
                    self.arm_pending(i, t);
                }
                TokKind::Ident => self.maybe_record_call(i, t),
                _ => {}
            }
            i += 1;
        }

        // Unclosed scopes at EOF: close them at the last line and report.
        while self.stack.len() > 1 {
            let s = self.stack.pop().unwrap_or(0);
            self.tree.scopes[s].close_line = last_line;
            self.tree.balance_errors.push(BalanceError {
                line: self.tree.scopes[s].open_line,
                detail: "`{` still open at end of file",
            });
        }
        self.tree.dangling_phase = anns
            .iter()
            .filter(|(_, _, consumed)| !consumed)
            .map(|&(line, _, _)| line)
            .collect();
        self.tree
    }

    /// An item keyword arms a pending scope that the next `{` will open.
    fn arm_pending(&mut self, i: usize, t: &Token) {
        let kind = match t.text.as_str() {
            "fn" => ScopeKind::Fn,
            "mod" => ScopeKind::Module,
            "impl" => ScopeKind::Impl,
            "trait" => ScopeKind::Trait,
            _ => ScopeKind::Type,
        };
        let name = match self.tokens.get(i + 1) {
            // `impl Trait` inside a pending header is an argument or return
            // type, not an impl block: the header stays the item's.
            _ if kind == ScopeKind::Impl && self.pending.is_some() => return,
            Some(_) if kind == ScopeKind::Impl => String::new(),
            Some(n) if n.kind == TokKind::Ident => n.text.clone(),
            // `fn(` function-pointer type etc. — not an item header.
            _ => return,
        };
        self.pending = Some(Pending {
            kind,
            name,
            header_line: t.line,
        });
    }

    fn open_scope(&mut self, line: u32, anns: &mut [(u32, &str, bool)]) {
        let (kind, name, header_line) = match self.pending.take() {
            Some(p) => (p.kind, p.name, p.header_line),
            None => (ScopeKind::Block, String::new(), line),
        };
        // Attributes never decorate a bare block; drop strays so a
        // statement attr cannot leak onto the next `{`.
        let tagged = self.pending_attrs.drain(..).any(|(a, _)| is_test_attr(&a));
        let parent = self.stack.last().copied().unwrap_or(0);
        let is_test = self.tree.scopes[parent].is_test || (tagged && kind != ScopeKind::Block);
        let mut phase = None;
        if kind == ScopeKind::Fn {
            for (ann_line, ann_phase, consumed) in anns.iter_mut() {
                if !*consumed && *ann_line <= header_line {
                    *consumed = true;
                    phase = Some(ann_phase.to_string());
                }
            }
        }
        let idx = self.tree.scopes.len();
        self.tree.scopes.push(Scope {
            kind,
            name,
            parent,
            header_line,
            open_line: line,
            close_line: line,
            is_test,
            phase,
            calls: Vec::new(),
        });
        self.stack.push(idx);
    }

    /// An attributed item that ended in `;` (no body): record a zero-width
    /// `Stmt` scope so `#[cfg(test)] use helpers::*;` still reads as test
    /// code, matching the old line-range scan.
    fn close_stmt(&mut self, line: u32) {
        let pending = self.pending.take();
        if self.pending_attrs.is_empty() {
            return; // plain statement, or `fn f();` in a trait — nothing to track
        }
        let header_line = self.pending_attrs.first().map(|&(_, l)| l).unwrap_or(line);
        let tagged = self.pending_attrs.drain(..).any(|(a, _)| is_test_attr(&a));
        let parent = self.stack.last().copied().unwrap_or(0);
        let is_test = self.tree.scopes[parent].is_test || tagged;
        self.tree.scopes.push(Scope {
            kind: ScopeKind::Stmt,
            name: pending.map(|p| p.name).unwrap_or_default(),
            parent,
            header_line,
            open_line: line,
            close_line: line,
            is_test,
            phase: None,
            calls: Vec::new(),
        });
    }

    /// `name(` or `name!(` → a call site, attached to the nearest enclosing
    /// `fn` (calls at module level — const initializers, macro invocations —
    /// have no caller and are dropped).
    fn maybe_record_call(&mut self, i: usize, t: &Token) {
        if NON_CALL_IDENTS.contains(&t.text.as_str()) {
            return;
        }
        if let Some(prev) = i.checked_sub(1).and_then(|p| self.tokens.get(p)) {
            if prev.kind == TokKind::Ident && ITEM_KEYWORDS.contains(&prev.text.as_str()) {
                return; // definition name, not a call
            }
        }
        let next = self.tokens.get(i + 1).map(|n| n.text.as_str());
        let is_call = match next {
            Some("(") => true,
            Some("!") => matches!(
                self.tokens.get(i + 2).map(|n| n.text.as_str()),
                Some("(") | Some("[") | Some("{")
            ),
            _ => false,
        };
        if !is_call {
            return;
        }
        let Some(&fn_scope) = self
            .stack
            .iter()
            .rev()
            .find(|&&s| self.tree.scopes[s].kind == ScopeKind::Fn)
        else {
            return;
        };
        self.tree.scopes[fn_scope].calls.push(Call {
            name: t.text.clone(),
            line: t.line,
        });
    }
}

fn attr_text(attr: &[Token]) -> String {
    let mut out = String::new();
    for t in attr {
        out.push_str(&t.text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> ItemTree {
        build(&lex(src))
    }

    fn scope<'t>(t: &'t ItemTree, name: &str) -> &'t Scope {
        t.scopes
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no scope named {name}"))
    }

    #[test]
    fn items_nest_and_span_lines() {
        let t = tree("mod outer {\n    fn inner() {\n        let x = 1;\n    }\n}\n");
        let outer = scope(&t, "outer");
        let inner = scope(&t, "inner");
        assert_eq!(outer.kind, ScopeKind::Module);
        assert_eq!(inner.kind, ScopeKind::Fn);
        assert_eq!((outer.header_line, outer.close_line), (1, 5));
        assert_eq!((inner.header_line, inner.close_line), (2, 4));
        assert_eq!(
            t.scopes[t.scopes.iter().position(|s| s.name == "inner").unwrap()].parent,
            t.scopes.iter().position(|s| s.name == "outer").unwrap()
        );
        assert!(t.balance_errors.is_empty());
    }

    #[test]
    fn cfg_test_propagates_to_children() {
        let t = tree("#[cfg(test)]\nmod tests {\n    fn helper() { x() }\n    #[test]\n    fn case() {}\n}\nfn lib() {}\n");
        assert!(scope(&t, "tests").is_test);
        assert!(scope(&t, "helper").is_test);
        assert!(scope(&t, "case").is_test);
        assert!(!scope(&t, "lib").is_test);
        assert!(t.in_test(3));
        assert!(!t.in_test(7));
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let t = tree("#[cfg(not(test))]\nfn f() {}\n");
        assert!(!scope(&t, "f").is_test);
    }

    #[test]
    fn attributed_semicolon_item_gets_a_stmt_scope() {
        let t = tree("#[cfg(test)]\nuse helpers::*;\nfn f() {}\n");
        assert!(t.in_test(2));
        assert!(!t.in_test(3));
    }

    #[test]
    fn lint_attributes_are_counted() {
        let count = |src: &str| lint_suppressions(&lex(src).tokens);
        assert_eq!(
            count(
                "#![allow(dead_code, reason = \"r\")]\n\
                 #[expect(clippy::panic, reason = \"r\")]\nfn f() {}\n\
                 #[cfg_attr(not(test), allow(clippy::float_cmp))]\nfn g() {}\n"
            ),
            3
        );
        // Raising a lint, or naming one in a comment or string, is not a
        // suppression.
        assert_eq!(
            count(
                "#![warn(missing_docs)]\n#![deny(clippy::disallowed_types)]\n\
                 // #[allow(unused)]\nconst S: &str = \"#[expect(x)]\";\n#[derive(Debug)]\nstruct T;\n"
            ),
            0
        );
    }

    #[test]
    fn calls_attach_to_the_enclosing_fn_through_blocks() {
        let t = tree("fn a() {\n    if x {\n        helper(1);\n        mac!(2);\n    }\n}\n");
        let calls: Vec<&str> = scope(&t, "a")
            .calls
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert!(calls.contains(&"helper"));
        assert!(calls.contains(&"mac"));
    }

    #[test]
    fn definitions_and_keywords_are_not_calls() {
        let t = tree("fn a() { if cond(x) { } struct Pair(u32); for i in it(y) {} }\n");
        let calls: Vec<&str> = scope(&t, "a")
            .calls
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert!(calls.contains(&"cond"));
        assert!(calls.contains(&"it"));
        assert!(!calls.contains(&"Pair"));
        assert!(!calls.contains(&"if"));
        assert!(!calls.contains(&"for"));
    }

    #[test]
    fn phase_annotation_attaches_to_next_fn() {
        let t = tree(
            "// anoc-lint: phase(A)\nfn phase_a() { helper() }\nfn helper() { mutate() }\nfn mutate() {}\nfn unrelated() { mutate() }\n",
        );
        assert_eq!(scope(&t, "phase_a").phase.as_deref(), Some("A"));
        assert_eq!(scope(&t, "helper").phase, None);
        assert!(t.dangling_phase.is_empty());
        let reach: Vec<&str> = t
            .phase_reachable("A")
            .iter()
            .map(|&(s, _)| t.scopes[s].name.as_str())
            .collect();
        assert!(reach.contains(&"phase_a"));
        assert!(reach.contains(&"helper"));
        assert!(reach.contains(&"mutate"));
        assert!(!reach.contains(&"unrelated"));
    }

    #[test]
    fn impl_trait_in_a_signature_keeps_the_fn_scope() {
        let t = tree(
            "// anoc-lint: phase(A)\nfn a(x: impl Fn()) -> impl Iterator<Item = u8> { b() }\n\
             fn b() { c() }\nimpl S { fn d() {} }\n",
        );
        let a = scope(&t, "a");
        assert_eq!((a.kind, a.phase.as_deref()), (ScopeKind::Fn, Some("A")));
        assert_eq!(a.calls.len(), 1);
        assert!(t.dangling_phase.is_empty());
        assert_eq!(
            t.scopes
                .iter()
                .filter(|s| s.kind == ScopeKind::Impl)
                .count(),
            1
        );
    }

    #[test]
    fn dangling_phase_annotation_is_reported() {
        let t = tree("fn f() {}\n// anoc-lint: phase(A)\nlet x = 1;\n");
        assert_eq!(t.dangling_phase, vec![2]);
    }

    #[test]
    fn unbalanced_braces_are_balance_errors() {
        assert_eq!(tree("fn f() { }").balance_errors.len(), 0);
        let open = tree("fn f() { if x {\n");
        assert_eq!(open.balance_errors.len(), 2);
        let close = tree("fn f() { } }\n");
        assert_eq!(close.balance_errors.len(), 1);
        assert_eq!(close.balance_errors[0].detail, "`}` with no matching `{`");
    }

    #[test]
    fn braces_in_strings_and_chars_do_not_count() {
        let t = tree("fn f() { let a = \"{{{\"; let b = '{'; let c = r#\"}\"#; }\n");
        assert!(t.balance_errors.is_empty());
    }

    #[test]
    fn match_and_struct_literals_are_blocks() {
        let t = tree("fn f() { match x { A => {} } let p = Point { x: 1 }; }\n");
        assert!(t.balance_errors.is_empty());
        assert_eq!(
            t.scopes.iter().filter(|s| s.kind == ScopeKind::Fn).count(),
            1
        );
    }
}
