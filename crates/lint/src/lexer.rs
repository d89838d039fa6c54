//! A minimal Rust lexer: just enough token structure for line-level lint
//! rules, with zero dependencies so the workspace keeps building offline.
//!
//! The lexer understands the parts of Rust surface syntax that would
//! otherwise produce false positives in a grep-style scan:
//!
//! * line comments (`//`, `///`, `//!`) — skipped as trivia, but scanned for
//!   `anoc-lint: allow(...)` suppression directives;
//! * block comments, including nesting (`/* /* */ */`);
//! * string literals with escapes, byte strings, and raw strings with any
//!   number of `#` guards (`r#"…"#`, `br##"…"##`);
//! * char literals vs lifetimes (`'a'` vs `<'a>`);
//! * numeric literals, so a suffix or exponent (`7usize`, `5e3`) never reads
//!   as an identifier;
//! * multi-char operators, so `==` is one token and `<=` never reads as
//!   `<` + `=`.
//!
//! Everything else (identifiers, punctuation) comes out as plain tokens
//! tagged with a 1-based line number.

/// The kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`Pcg32`, `fn`, `Relaxed`, …).
    Ident,
    /// Numeric literal, or a run of one (`42`, `0xFF`, `1_000u64`; `1.5`
    /// lexes as `1` `.` `5`).
    Number,
    /// Operator or punctuation (`==`, `::`, `.`, `#`, `{`, …).
    Punct,
    /// String, byte-string or raw-string literal (contents not tokenized).
    Str,
    /// Char literal (`'a'`, `'\n'`).
    Char,
    /// Lifetime (`'a` in `<'a>`); also `'static`.
    Lifetime,
}

/// One token with its source line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// An inline suppression directive:
/// `// anoc-lint: allow(X001): read after the pool joined`.
///
/// It silences the listed rules on its own line and on the following line,
/// so it can trail the offending expression or sit just above it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    pub line: u32,
    pub rules: Vec<String>,
    pub reason: String,
}

/// A malformed `anoc-lint:` comment — reported as its own violation (L000)
/// so a typo'd suppression never silently fails open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedDirective {
    pub line: u32,
    pub detail: String,
}

/// A scope annotation: `// anoc-lint: phase(A)`.
///
/// It marks the next `fn` item (same line or below) as a root of that
/// execution phase; D005 walks the call graph from every phase root. An
/// annotation with no following `fn` in the file is reported as L000.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseAnnotation {
    pub line: u32,
    pub phase: String,
}

/// A sanctioned RNG construction site:
/// `// anoc-lint: rng-site: <why this seeding is deterministic>`.
///
/// D004 requires every seeded-Pcg32 construction in sim-critical library
/// code to sit at one of these (same line or the line below); the reason is
/// mandatory so each site documents its determinism argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RngSite {
    pub line: u32,
    pub reason: String,
}

/// The full lex of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub suppressions: Vec<Suppression>,
    pub malformed: Vec<MalformedDirective>,
    pub annotations: Vec<PhaseAnnotation>,
    pub rng_sites: Vec<RngSite>,
}

impl Lexed {
    /// The first directive suppressing `rule` at `line` (on the same line or
    /// the line directly above), as (directive index, index in its rule
    /// list).
    pub fn suppression_of(&self, rule: &str, line: u32) -> Option<(usize, usize)> {
        self.suppressions.iter().enumerate().find_map(|(d, s)| {
            let covers = s.line == line || s.line + 1 == line;
            let r = s.rules.iter().position(|r| r == rule)?;
            covers.then_some((d, r))
        })
    }

    /// Whether `line` is covered by an `rng-site` directive (same line or
    /// the line directly above).
    pub fn is_rng_site(&self, line: u32) -> bool {
        self.rng_sites
            .iter()
            .any(|s| s.line == line || s.line + 1 == line)
    }
}

/// Two-character operators joined into one token. Longest-match on the first
/// two chars is enough for lint purposes (`<<=` lexes as `<<` + `=`, which no
/// rule cares about).
const TWO_CHAR_OPS: [&str; 19] = [
    "==", "!=", "<=", ">=", "::", "->", "=>", "&&", "||", "..", "+=", "-=", "*=", "/=", "%=", "^=",
    "&=", "|=", "<<",
];

/// Lexes Rust source. Never fails: unterminated constructs consume to EOF.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string();
                }
                'r' | 'b' if self.raw_string_ahead() => self.raw_string(),
                '\'' => self.char_or_lifetime(),
                _ if c.is_ascii_digit() => self.word(TokKind::Number),
                _ if c == '_' || c.is_alphanumeric() => self.word(TokKind::Ident),
                _ => self.punct(),
            }
        }
        self.out
    }

    /// Whether the cursor sits on `r"`, `r#`, `br"` or `br#`.
    fn raw_string_ahead(&self) -> bool {
        let (mut i, c) = (1, self.peek(0));
        if c == Some('b') {
            if self.peek(1) != Some('r') {
                return false;
            }
            i = 2;
        }
        matches!(self.peek(i), Some('"') | Some('#'))
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.directive(&text, line);
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    fn string(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokKind::Str, String::new(), line);
    }

    fn raw_string(&mut self) {
        let line = self.line;
        if self.peek(0) == Some('b') {
            self.bump();
        }
        self.bump(); // 'r'
        let mut guards = 0usize;
        while self.peek(0) == Some('#') {
            guards += 1;
            self.bump();
        }
        if self.peek(0) != Some('"') {
            // `r#foo` raw identifier, not a raw string: emit as ident.
            let mut text = String::from("r#");
            while let Some(c) = self.peek(0) {
                if c == '_' || c.is_alphanumeric() {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokKind::Ident, text, line);
            return;
        }
        self.bump(); // opening quote
        'scan: while let Some(c) = self.bump() {
            if c == '"' {
                for i in 0..guards {
                    if self.peek(i) != Some('#') {
                        continue 'scan;
                    }
                }
                for _ in 0..guards {
                    self.bump();
                }
                break;
            }
        }
        self.push(TokKind::Str, String::new(), line);
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        match (self.peek(0), self.peek(1)) {
            // `'\n'`, `'\u{7f}'` — escaped char literal. The escaped char
            // itself is consumed first so `'\''` does not close early.
            (Some('\\'), _) => {
                self.bump();
                self.bump();
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                }
                self.push(TokKind::Char, String::new(), line);
            }
            // `'a'` — plain char literal.
            (Some(_), Some('\'')) => {
                self.bump();
                self.bump();
                self.push(TokKind::Char, String::new(), line);
            }
            // `'a`, `'static` — lifetime.
            (Some(c), _) if c == '_' || c.is_alphanumeric() => {
                let mut text = String::from("'");
                while let Some(c) = self.peek(0) {
                    if c == '_' || c.is_alphanumeric() {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push(TokKind::Lifetime, text, line);
            }
            // `'('` and friends — single-char literal of punctuation.
            (Some(_), _) => {
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(TokKind::Char, String::new(), line);
            }
            (None, _) => {}
        }
    }

    /// An identifier, or a number with its suffix: a run of `_` and
    /// alphanumerics.
    fn word(&mut self, kind: TokKind) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(kind, text, line);
    }

    fn punct(&mut self) {
        let line = self.line;
        let a = self.bump().unwrap_or(' ');
        if let Some(b) = self.peek(0) {
            let two: String = [a, b].iter().collect();
            if TWO_CHAR_OPS.contains(&two.as_str()) {
                self.bump();
                self.push(TokKind::Punct, two, line);
                return;
            }
        }
        self.push(TokKind::Punct, a.to_string(), line);
    }

    /// Parses an `anoc-lint:` directive out of a line comment. Three verbs:
    ///
    /// * `allow(R1[, R2…]): reason` — suppression;
    /// * `phase(A)` — scope annotation for the next `fn` item (D005);
    /// * `rng-site: reason` — sanctioned RNG construction site (D004).
    ///
    /// Only plain `//` comments whose body *starts with* `anoc-lint:` count:
    /// doc comments (`///`, `//!`) may mention the syntax in prose without
    /// being parsed as directives.
    fn directive(&mut self, comment: &str, line: u32) {
        let body = comment.strip_prefix("//").unwrap_or(comment);
        if body.starts_with('/') || body.starts_with('!') {
            return; // doc comment
        }
        let Some(rest) = body.trim_start().strip_prefix("anoc-lint:") else {
            return;
        };
        let rest = rest.trim_start();
        let malformed = |detail: &str| MalformedDirective {
            line,
            detail: detail.to_string(),
        };
        if let Some(rest) = rest.strip_prefix("phase(") {
            let Some(close) = rest.find(')') else {
                self.out.malformed.push(malformed("unclosed `phase(`"));
                return;
            };
            let phase = rest[..close].trim();
            let tail = rest[close + 1..].trim();
            if phase.is_empty() || !phase.chars().all(|c| c == '_' || c.is_alphanumeric()) {
                self.out
                    .malformed
                    .push(malformed("phase name must be a plain identifier"));
                return;
            }
            if !tail.is_empty() {
                self.out
                    .malformed
                    .push(malformed("unexpected text after `phase(...)`"));
                return;
            }
            self.out.annotations.push(PhaseAnnotation {
                line,
                phase: phase.to_string(),
            });
            return;
        }
        if let Some(rest) = rest.strip_prefix("rng-site") {
            let reason = rest.trim_start().strip_prefix(':').map(str::trim);
            match reason {
                Some(r) if !r.is_empty() => {
                    self.out.rng_sites.push(RngSite {
                        line,
                        reason: r.to_string(),
                    });
                }
                _ => self.out.malformed.push(malformed(
                    "rng-site needs a reason: `rng-site: <why this seeding is deterministic>`",
                )),
            }
            return;
        }
        let Some(rest) = rest.strip_prefix("allow(") else {
            self.out.malformed.push(malformed(
                "expected `allow(<RULE>[, <RULE>…]): <reason>`, `phase(<P>)` or `rng-site: <reason>`",
            ));
            return;
        };
        let Some(close) = rest.find(')') else {
            self.out.malformed.push(malformed("unclosed `allow(`"));
            return;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            self.out
                .malformed
                .push(malformed("empty rule list in `allow()`"));
            return;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            self.out.malformed.push(malformed(
                "suppression needs a reason: `allow(RULE): <why this is safe>`",
            ));
            return;
        }
        self.out.suppressions.push(Suppression {
            line,
            rules,
            reason: reason.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex(r#"let s = "HashMap::unwrap() // not code"; s.len()"#);
        assert!(idents(r#"let s = "HashMap"; s"#)
            .iter()
            .all(|i| i != "HashMap"));
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Str).count(),
            1
        );
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let l = lex(r#"let s = "a \" HashMap \\"; t"#);
        assert!(l.tokens.iter().all(|t| t.text != "HashMap"));
        assert_eq!(l.tokens.last().map(|t| t.text.as_str()), Some("t"));
    }

    #[test]
    fn raw_strings_with_guards() {
        let l = lex(r###"let s = r#"contains "quotes" and HashMap"#; done"###);
        assert!(l.tokens.iter().all(|t| t.text != "HashMap"));
        assert_eq!(l.tokens.last().map(|t| t.text.as_str()), Some("done"));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let l = lex(r##"let a = b"HashMap"; let b = br#"HashSet"#; end"##);
        assert!(l
            .tokens
            .iter()
            .all(|t| t.text != "HashMap" && t.text != "HashSet"));
        assert_eq!(l.tokens.last().map(|t| t.text.as_str()), Some("end"));
    }

    #[test]
    fn comments_are_trivia() {
        let l = lex("// HashMap here\n/* unwrap() */ /* nested /* HashSet */ */ x");
        assert_eq!(
            l.tokens.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(),
            vec!["x"]
        );
    }

    #[test]
    fn chars_vs_lifetimes() {
        let l = lex(r"fn f<'a>(x: &'a str) -> char { 'x' } let q = '\''; let n = '\n';");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            3
        );
    }

    #[test]
    fn nested_generics_lex_cleanly() {
        let l = lex("traces: BTreeMap<PacketId, Vec<(u64, TraceEvent)>>,");
        let ids = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>();
        assert_eq!(
            ids,
            vec!["traces", "BTreeMap", "PacketId", "Vec", "u64", "TraceEvent"]
        );
    }

    #[test]
    fn numbers_never_read_as_identifiers() {
        assert_eq!(
            idents("let x = 1.5e3 + 0xFF + 2f64 + 1_000u64 + t.0;"),
            vec!["let", "x", "t"]
        );
        // A method call on an integer keeps its name.
        assert_eq!(idents("3.max(4)"), vec!["max"]);
    }

    #[test]
    fn two_char_operators_join() {
        let puncts: Vec<String> = lex("a == b != c <= d >= e :: f")
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text)
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "<=", ">=", "::"]);
    }

    #[test]
    fn line_numbers_are_tracked() {
        let l = lex("a\nb\n\nc /* multi\nline */ d");
        let at = |name: &str| l.tokens.iter().find(|t| t.text == name).unwrap().line;
        assert_eq!(at("a"), 1);
        assert_eq!(at("b"), 2);
        assert_eq!(at("c"), 4);
        assert_eq!(at("d"), 5);
    }

    #[test]
    fn suppression_directive_parses() {
        let l = lex("let x = 1; // anoc-lint: allow(X001): bounded test helper\n");
        assert_eq!(l.suppressions.len(), 1);
        let s = &l.suppressions[0];
        assert_eq!(s.line, 1);
        assert_eq!(s.rules, vec!["X001"]);
        assert_eq!(s.reason, "bounded test helper");
        assert_eq!(l.suppression_of("X001", 1), Some((0, 0)));
        assert_eq!(l.suppression_of("X001", 2), Some((0, 0)));
        assert_eq!(l.suppression_of("X001", 3), None);
        assert_eq!(l.suppression_of("D004", 1), None);
    }

    #[test]
    fn suppression_multiple_rules() {
        let l = lex("// anoc-lint: allow(D004, X001): invariant holds by construction\n");
        assert_eq!(l.suppressions[0].rules, vec!["D004", "X001"]);
        assert_eq!(l.suppression_of("X001", 2), Some((0, 1)));
    }

    #[test]
    fn malformed_suppressions_are_reported() {
        for bad in [
            "// anoc-lint: allow(X001)",          // missing reason
            "// anoc-lint: allow(X001):   ",      // empty reason
            "// anoc-lint: allow(): why",         // empty rule list
            "// anoc-lint: allow(X001: no close", // unclosed paren
            "// anoc-lint: deny(X001): nope",     // unknown verb
        ] {
            let l = lex(bad);
            assert_eq!(l.suppressions.len(), 0, "{bad}");
            assert_eq!(l.malformed.len(), 1, "{bad}");
        }
    }

    #[test]
    fn phase_annotation_parses() {
        let l = lex("// anoc-lint: phase(A)\nfn phase_a() {}\n");
        assert_eq!(
            l.annotations,
            vec![PhaseAnnotation {
                line: 1,
                phase: "A".into()
            }]
        );
        assert!(l.malformed.is_empty());
    }

    #[test]
    fn rng_site_parses_and_requires_reason() {
        let l = lex("// anoc-lint: rng-site: stateless per-site draw\nlet r = x;\n");
        assert_eq!(l.rng_sites.len(), 1);
        assert_eq!(l.rng_sites[0].reason, "stateless per-site draw");
        assert!(l.is_rng_site(1));
        assert!(l.is_rng_site(2));
        assert!(!l.is_rng_site(3));
    }

    #[test]
    fn malformed_phase_and_rng_site_are_reported() {
        for bad in [
            "// anoc-lint: phase(A",         // unclosed
            "// anoc-lint: phase()",         // empty
            "// anoc-lint: phase(A) extra",  // trailing text
            "// anoc-lint: phase(A+B)",      // not an identifier
            "// anoc-lint: rng-site",        // no reason
            "// anoc-lint: rng-site:   ",    // empty reason
            "// anoc-lint: rng-site reason", // missing colon
        ] {
            let l = lex(bad);
            assert!(l.annotations.is_empty(), "{bad}");
            assert!(l.rng_sites.is_empty(), "{bad}");
            assert_eq!(l.malformed.len(), 1, "{bad}");
        }
    }

    #[test]
    fn doc_comments_and_prose_are_not_directives() {
        for ignored in [
            "/// Suppress with `// anoc-lint: allow(X001)` and a reason.",
            "//! The `anoc-lint: allow(...)` syntax is described here.",
            "// see the anoc-lint: allow() docs", // body does not start with anoc-lint:
        ] {
            let l = lex(ignored);
            assert!(l.suppressions.is_empty(), "{ignored}");
            assert!(l.malformed.is_empty(), "{ignored}");
        }
    }
}
