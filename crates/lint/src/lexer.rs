//! A minimal, dependency-free Rust lexer.
//!
//! `fusion3d-lint` does not need a full parser: every rule it enforces
//! is expressible over a token stream in which comments and string
//! literals have been stripped (so `// HashMap` or `"unwrap()"` never
//! trigger a finding) and line numbers are preserved (so findings and
//! `// lint: allow(...)` escape hatches line up). This module provides
//! exactly that: identifiers, lifetimes, numeric/string/char literals,
//! and single-character punctuation, each tagged with its 1-based line.
//!
//! The lexer understands the Rust surface syntax that matters for
//! correctness of the rules: nested block comments, raw strings with
//! arbitrary `#` fences, byte and raw-byte strings, char literals vs
//! lifetimes, and numeric literals (so `1.5 as u64` can be recognised
//! as a float-to-int cast). It deliberately does not interpret macros
//! or expand `cfg` — rules operate on the source as written.

use std::collections::BTreeMap;

/// Classification of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`HashMap`, `as`, `fn`, `r#type`).
    Ident,
    /// Lifetime (`'a`, `'static`) — stored without the quote.
    Lifetime,
    /// Integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// Floating-point literal (`1.5`, `2e9`, `0.5f32`).
    Float,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A single punctuation character (`.`, `:`, `!`, `{`, …).
    Punct,
}

/// One token plus the position it starts at.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token text. Identifiers, punctuation, and numeric literals
    /// are verbatim (the abstract interpreter evaluates numeric
    /// literal text); string and char literals are abbreviated to
    /// placeholders, since no rule inspects their contents.
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
    /// 1-based source column the token starts on. Multi-character
    /// operators are lexed as single-character `Punct` tokens, so
    /// consumers use column adjacency to tell `>=` from `> =` (the
    /// latter ends a generic argument list before a binding `=`).
    pub col: u32,
}

/// Index of the close matching the open bracket at `open`; the last
/// token on unbalanced input (tolerated, like the lexer).
pub(crate) fn match_close(toks: &[Token], open: usize, open_text: &str, close_text: &str) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        let t = toks[i].text.as_str();
        if t == open_text {
            depth += 1;
        } else if t == close_text {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Index of the open matching the close bracket at `close`, or `None`
/// on unbalanced input.
pub(crate) fn match_open(
    toks: &[Token],
    close: usize,
    open_text: &str,
    close_text: &str,
) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = close as isize;
    while i >= 0 {
        let t = toks[i as usize].text.as_str();
        if t == close_text {
            depth += 1;
        } else if t == open_text {
            depth -= 1;
            if depth == 0 {
                return Some(i as usize);
            }
        }
        i -= 1;
    }
    None
}

/// One `// lint: allow(rule, …)` escape-hatch directive.
#[derive(Debug, Default, Clone)]
pub struct AllowDirective {
    /// Suppressed rule names, lowercase, in source order.
    pub rules: Vec<String>,
    /// Whether the directive carries a trailing justification —
    /// `allow(rule): why` or `allow(rule) -- why` with non-empty text.
    /// Reasonless directives are reported by rule U1.
    pub has_reason: bool,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// Tokens in source order, comments and whitespace stripped.
    pub tokens: Vec<Token>,
    /// `// lint: allow(rule, …)` directives by (1-based) line. A
    /// directive suppresses findings on its own line and on the line
    /// directly below it (so it can trail the offending code or sit
    /// on its own line above it). Rule names are stored lowercase.
    pub allows: BTreeMap<u32, AllowDirective>,
    /// Continuation comment lines: a code-free `//` comment line
    /// directly below a directive (or below another continuation)
    /// maps to the directive's anchor line, letting a multi-line
    /// reason comment carry the directive down to the code it guards.
    pub continuations: BTreeMap<u32, u32>,
}

impl LexedFile {
    /// The directive line that suppresses `rule` at `line`, if any —
    /// the directive's own line, the line directly above, or the
    /// anchor of a continuation comment block ending directly above.
    /// Rules use the returned line to record the suppression as
    /// *used* (U1).
    pub fn allow_line(&self, rule: &str, line: u32) -> Option<u32> {
        let rule = rule.to_ascii_lowercase();
        let hit = |l: u32| self.allows.get(&l).is_some_and(|d| d.rules.contains(&rule));
        if hit(line) {
            return Some(line);
        }
        if line > 1 {
            if hit(line - 1) {
                return Some(line - 1);
            }
            if let Some(&anchor) = self.continuations.get(&(line - 1)) {
                if hit(anchor) {
                    return Some(anchor);
                }
            }
        }
        None
    }
}

/// Lexes `source` into tokens and allow-directives.
pub fn lex(source: &str) -> LexedFile {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        line_start: 0,
        out: LexedFile::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    /// Char index where the current line starts (for column numbers).
    line_start: usize,
    out: LexedFile,
}

impl Lexer {
    fn run(mut self) -> LexedFile {
        while let Some(c) = self.peek(0) {
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                    self.line_start = self.pos;
                }
                c if c.is_whitespace() => self.pos += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                '\'' => self.char_or_lifetime(),
                'r' if matches!(self.peek(1), Some('"' | '#')) => self.raw_prefixed(),
                'b' if matches!(self.peek(1), Some('"' | '\'' | 'r')) => self.byte_prefixed(),
                c if c.is_ascii_digit() => self.number(),
                c if c == '_' || c.is_alphabetic() => self.ident(),
                c => {
                    self.push(TokenKind::Punct, c.to_string());
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, text: String) {
        self.push_at(kind, text, self.pos);
    }

    /// Pushes a token that started at char index `start` on the
    /// current line (tokenisers that consume before pushing pass
    /// their saved start).
    fn push_at(&mut self, kind: TokenKind, text: String, start: usize) {
        let col = (start.saturating_sub(self.line_start) + 1) as u32;
        self.out.tokens.push(Token { kind, text, line: self.line, col });
    }

    /// `// …` — consumed to end of line; may carry an allow directive.
    /// Doc comments (`///`, `//!`) never do: their prose and fenced
    /// examples routinely *mention* the directive syntax, and parsing
    /// those would register phantom suppressions (tripping U1).
    fn line_comment(&mut self) {
        let start = self.pos;
        let doc = matches!(self.peek(2), Some('/' | '!'));
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.pos += 1;
        }
        if !doc {
            let text: String = self.chars[start..self.pos].iter().collect();
            self.record_allow(&text);
            // A code-free comment line directly below a directive (or
            // below one of its continuations) carries that directive's
            // coverage forward — multi-line reason comments would
            // otherwise strand the directive above the code it guards.
            let pure = self.out.tokens.last().is_none_or(|t| t.line != self.line);
            if pure && !self.out.allows.contains_key(&self.line) && self.line > 1 {
                let above = self.line - 1;
                let anchor = if self.out.allows.contains_key(&above) {
                    Some(above)
                } else {
                    self.out.continuations.get(&above).copied()
                };
                if let Some(anchor) = anchor {
                    self.out.continuations.insert(self.line, anchor);
                }
            }
        }
    }

    /// Parses `lint: allow(rule1, rule2): reason` out of a comment
    /// body. The reason text after the closing paren may be introduced
    /// by `:`, `--`, or `—`; its presence is recorded so U1 can flag
    /// reasonless suppressions.
    fn record_allow(&mut self, comment: &str) {
        let Some(at) = comment.find("lint:") else { return };
        let rest = comment[at + "lint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else { return };
        let Some(close) = rest.find(')') else { return };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_ascii_lowercase())
            .filter(|r| !r.is_empty())
            .collect();
        let tail = rest[close + 1..].trim();
        let has_reason = [":", "--", "—"]
            .iter()
            .any(|sep| tail.strip_prefix(sep).is_some_and(|r| !r.trim().is_empty()));
        if !rules.is_empty() {
            let entry = self.out.allows.entry(self.line).or_default();
            entry.rules.extend(rules);
            entry.has_reason |= has_reason;
        }
    }

    /// `/* … */`, nesting-aware, newline-counting.
    fn block_comment(&mut self) {
        self.pos += 2;
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (Some('\n'), _) => {
                    self.line += 1;
                    self.pos += 1;
                    self.line_start = self.pos;
                }
                (Some(_), _) => self.pos += 1,
                (None, _) => return, // unterminated: tolerate
            }
        }
    }

    /// `"…"` with escape handling; newlines inside are counted.
    fn string(&mut self) {
        self.push(TokenKind::Str, "\"…\"".to_string());
        self.pos += 1;
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => self.pos += 2,
                '"' => {
                    self.pos += 1;
                    return;
                }
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                    self.line_start = self.pos;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// `r"…"` / `r#"…"#` / `r#ident` (raw identifier).
    fn raw_prefixed(&mut self) {
        // Count the `#` fence after `r`; then either a raw string or,
        // for `r#ident`, a raw identifier.
        let mut hashes = 0usize;
        while self.peek(1 + hashes) == Some('#') {
            hashes += 1;
        }
        match self.peek(1 + hashes) {
            Some('"') => self.raw_string(1 + hashes, hashes),
            _ if hashes == 1 => {
                // r#ident — lex the identifier part, keep its name so
                // rules see `r#type` as ident "type".
                self.pos += 2;
                self.ident();
            }
            _ => {
                // Plain identifier starting with r (e.g. `rng`).
                self.ident();
            }
        }
    }

    /// `b"…"`, `b'…'`, `br#"…"#` — or an ordinary ident like `bytes`.
    fn byte_prefixed(&mut self) {
        match self.peek(1) {
            Some('"') => {
                self.pos += 1;
                self.string();
                // Re-label: string() pushed a Str already; fine as-is.
            }
            Some('\'') => {
                self.pos += 1;
                self.char_or_lifetime();
            }
            Some('r') => {
                let mut hashes = 0usize;
                while self.peek(2 + hashes) == Some('#') {
                    hashes += 1;
                }
                if self.peek(2 + hashes) == Some('"') {
                    self.raw_string(2 + hashes, hashes);
                } else {
                    self.ident();
                }
            }
            _ => self.ident(),
        }
    }

    /// Consumes a raw string whose opening quote sits at
    /// `self.pos + quote_offset`, fenced by `hashes` `#` characters.
    fn raw_string(&mut self, quote_offset: usize, hashes: usize) {
        self.push(TokenKind::Str, "r\"…\"".to_string());
        self.pos += quote_offset + 1;
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                self.line += 1;
                self.pos += 1;
                self.line_start = self.pos;
                continue;
            }
            if c == '"' {
                let closed = (0..hashes).all(|i| self.peek(1 + i) == Some('#'));
                if closed {
                    self.pos += 1 + hashes;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    /// `'x'`, `'\n'` (char literal) or `'a` (lifetime).
    fn char_or_lifetime(&mut self) {
        match self.peek(1) {
            Some('\\') => {
                // Escaped char literal: consume to the closing quote.
                self.push(TokenKind::Char, "'…'".to_string());
                self.pos += 2; // quote + backslash
                self.pos += 1; // escaped char
                while let Some(c) = self.peek(0) {
                    self.pos += 1;
                    if c == '\'' {
                        break;
                    }
                }
            }
            Some(_) if self.peek(2) == Some('\'') => {
                self.push(TokenKind::Char, "'…'".to_string());
                self.pos += 3;
            }
            _ => {
                // Lifetime: `'` followed by an identifier.
                let start = self.pos + 1;
                let mut end = start;
                while self.chars.get(end).is_some_and(|c| c.is_alphanumeric() || *c == '_') {
                    end += 1;
                }
                let text: String = self.chars[start..end].iter().collect();
                self.push(TokenKind::Lifetime, text);
                self.pos = end;
            }
        }
    }

    /// Numeric literal; decides Int vs Float.
    fn number(&mut self) {
        let start = self.pos;
        let mut is_float = false;
        let hex = self.peek(0) == Some('0') && matches!(self.peek(1), Some('x' | 'X' | 'o' | 'b'));
        while let Some(c) = self.peek(0) {
            match c {
                '0'..='9' | '_' => self.pos += 1,
                'a'..='f' | 'A'..='F' if hex => self.pos += 1,
                'x' | 'o' if self.pos == start + 1 => self.pos += 1,
                '.' => {
                    // Part of the number only when followed by a digit
                    // (so `0..10` and `1.max(2)` stop cleanly).
                    if self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                        is_float = true;
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                'e' | 'E' if !hex => {
                    // Exponent when followed by digit or sign+digit.
                    let next = self.peek(1);
                    let signed = matches!(next, Some('+' | '-'))
                        && self.peek(2).is_some_and(|d| d.is_ascii_digit());
                    if next.is_some_and(|d| d.is_ascii_digit()) || signed {
                        is_float = true;
                        self.pos += if signed { 2 } else { 1 };
                    } else {
                        break;
                    }
                }
                // Type suffixes (`u64`, `f32`, `usize`, …).
                c if c.is_alphanumeric() => {
                    if c == 'f' {
                        is_float = true;
                    }
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        let kind = if is_float { TokenKind::Float } else { TokenKind::Int };
        self.push_at(kind, text, start);
    }

    fn ident(&mut self) {
        let start = self.pos;
        while self.chars.get(self.pos).is_some_and(|c| c.is_alphanumeric() || *c == '_') {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push_at(TokenKind::Ident, text, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().filter(|t| t.kind == TokenKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn comments_and_strings_are_stripped() {
        let src = r##"
            // HashMap in a comment
            /* unwrap() in /* nested */ block */
            let s = "HashMap.unwrap()";
            let r = r#"panic!("x")"#;
            real_ident
        "##;
        assert_eq!(idents(src), vec!["let", "s", "let", "r", "real_ident"]);
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "a\n/* x\ny */\nb\n\"s\ntring\"\nc";
        let file = lex(src);
        let lines: Vec<(String, u32)> =
            file.tokens.iter().map(|t| (t.text.clone(), t.line)).collect();
        assert_eq!(lines[0], ("a".to_string(), 1));
        assert_eq!(lines[1], ("b".to_string(), 4));
        assert_eq!(lines[3], ("c".to_string(), 7));
    }

    #[test]
    fn char_literals_and_lifetimes_disambiguate() {
        let file = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<&str> = file
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        let chars = file.tokens.iter().filter(|t| t.kind == TokenKind::Char).count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn floats_and_ints_classify() {
        let file = lex("1 2.5 3e9 0xFF 1_000u64 0.5f32 0..10");
        let kinds: Vec<TokenKind> = file
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Int | TokenKind::Float))
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::Int,
                TokenKind::Float,
                TokenKind::Float,
                TokenKind::Int,
                TokenKind::Int,
                TokenKind::Float,
                TokenKind::Int,
                TokenKind::Int,
            ]
        );
    }

    #[test]
    fn allow_directives_parse() {
        let src = "x // lint: allow(p1, D2) — reason\ny\n// lint: allow(a2)\nz";
        let file = lex(src);
        assert!(file.allow_line("P1", 1).is_some());
        assert!(file.allow_line("d2", 1).is_some());
        assert!(file.allow_line("p1", 2).is_some(), "directive covers the next line");
        assert!(file.allow_line("p1", 3).is_none());
        assert!(file.allow_line("a2", 4).is_some());
    }

    #[test]
    fn continuation_comments_extend_directives() {
        let src = "// lint: allow(h2): first line of\n// a two-line reason\nf();\ng();";
        let file = lex(src);
        assert!(file.allow_line("h2", 3).is_some(), "directive rides the comment block down");
        assert_eq!(file.allow_line("h2", 3), Some(1), "usage credits the anchor line");
        assert!(file.allow_line("h2", 4).is_none(), "coverage stops at the first code line");

        // A trailing comment on a code line is not a continuation.
        let src = "// lint: allow(h2): reason\nf(); // unrelated note\ng();";
        let file = lex(src);
        assert!(file.allow_line("h2", 3).is_none());
    }
}
