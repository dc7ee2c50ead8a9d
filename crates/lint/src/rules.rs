//! The Fusion-3D invariant rules and the token-stream checker.
//!
//! Every rule guards a property the simulator's numbers depend on:
//!
//! * **D1** — no `HashMap`/`HashSet` in result-bearing crates.
//!   Iteration order of the std hash containers is randomized per
//!   process, so any result that flows through one is not reproducible.
//!   Use `BTreeMap`/`BTreeSet` or a sorted `Vec`.
//! * **D2** — no wall-clock (`std::time`), ambient randomness
//!   (`thread_rng`/`from_entropy`) or environment reads (`std::env`)
//!   in simulator/NeRF crates. Timing belongs in `bench`; randomness
//!   must come from a seeded generator passed in by the caller.
//! * **D3** — no raw `std::thread` use outside `crates/par`. All
//!   parallelism flows through the deterministic fixed-chunk
//!   combinators so results are identical at any worker count.
//! * **P1** — no `unwrap()`/`expect()`/`panic!`-family macros in
//!   non-test library code. Fallible paths return `Result`; the few
//!   legitimate invariant panics carry an allow comment naming why.
//! * **O1** — no `println!`/`print!`/`eprintln!`/`eprint!` in library
//!   crates. Libraries report through return values and
//!   `fusion3d-obs` reports; stray stdout writes corrupt the JSON
//!   streams the bench binaries emit and hide information from
//!   programmatic consumers. Printing belongs to binaries
//!   (`src/bin/`, `bench`) and the lint tool itself.
//!
//! A finding on line `L` is suppressed by `// lint: allow(<rule>)` on
//! line `L` or `L - 1`.

use std::collections::BTreeSet;

use crate::lexer::{LexedFile, Token, TokenKind};

/// Per-file record of which suppressions fired: (directive line,
/// lowercase rule). Populated by every rule as it consults the allow
/// table; U1 reports directives that never appear here.
pub type AllowUsage = BTreeSet<(u32, String)>;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`"D1"`, …, `"U1"`).
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// Crates whose outputs feed reported results: hash-container
/// iteration (D1) and ambient nondeterminism (D2) are banned here,
/// and every public fn is a P2 panic-freedom entry point.
pub(crate) const RESULT_BEARING_CRATES: &[&str] =
    &["nerf", "core", "mem", "multichip", "arith", "par", "obs", "serve"];

/// Panicking macros covered by P1 (matched when followed by `!`).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Printing macros covered by O1 (matched when followed by `!`).
/// `write!`/`writeln!` into a caller-supplied sink stay legal.
const PRINT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint"];

/// Crates whose library code may print: the experiment harness renders
/// tables and the lint tool renders findings, both on stdout by design.
const PRINTING_CRATES: &[&str] = &["bench", "lint"];

/// Which rules apply to the file at `path` (workspace-relative,
/// forward slashes).
#[derive(Debug, Clone, Copy)]
struct Scope {
    d1: bool,
    d2: bool,
    d3: bool,
    p1: bool,
    o1: bool,
}

pub(crate) fn crate_of(path: &str) -> Option<&str> {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next()
    } else if path.starts_with("src/") {
        Some("fusion3d")
    } else {
        None
    }
}

fn scope_of(path: &str) -> Scope {
    let krate = crate_of(path).unwrap_or("");
    let result_bearing = RESULT_BEARING_CRATES.contains(&krate);
    Scope {
        d1: result_bearing,
        d2: result_bearing,
        d3: krate != "par",
        // Binaries may panic on bad CLI input; libraries must not.
        p1: !path.contains("/bin/"),
        // Binaries print by design; so do the harness and lint crates.
        o1: !path.contains("/bin/") && !PRINTING_CRATES.contains(&krate),
    }
}

/// Runs every applicable token-local rule over one lexed file,
/// recording fired suppressions into `usage` (consumed by U1).
pub fn check_file(path: &str, file: &LexedFile, usage: &mut AllowUsage) -> Vec<Finding> {
    let scope = scope_of(path);
    let in_test = test_mask(&file.tokens);
    let mut findings = Vec::new();
    let tokens = &file.tokens;

    let usage = std::cell::RefCell::new(usage);
    let report = |rule: &'static str, line: u32, message: String, out: &mut Vec<Finding>| match file
        .allow_line(rule, line)
    {
        Some(directive_line) => {
            usage.borrow_mut().insert((directive_line, rule.to_ascii_lowercase()));
        }
        None => out.push(Finding { rule, path: path.to_string(), line, message }),
    };

    for (i, tok) in tokens.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let text = tok.text.as_str();
        let is_ident = tok.kind == TokenKind::Ident;

        // D1: hash containers in result-bearing crates.
        if scope.d1 && is_ident && (text == "HashMap" || text == "HashSet") {
            report(
                "D1",
                tok.line,
                format!(
                    "`{text}` has randomized iteration order; use BTreeMap/BTreeSet \
                     or a sorted Vec in result-bearing crates"
                ),
                &mut findings,
            );
        }

        // D2: wall-clock, ambient randomness, environment reads.
        if scope.d2 && is_ident {
            let ambient = match text {
                "Instant" | "SystemTime" => Some("wall-clock time"),
                "thread_rng" | "from_entropy" => Some("ambient randomness"),
                _ => None,
            };
            if let Some(what) = ambient {
                report(
                    "D2",
                    tok.line,
                    format!("`{text}` injects {what} into a simulator/NeRF crate"),
                    &mut findings,
                );
            }
            if matches_path(tokens, i, &["std", "env"]) || matches_path(tokens, i, &["std", "time"])
            {
                report(
                    "D2",
                    tok.line,
                    format!(
                        "`std::{}` makes simulator behaviour depend on the ambient \
                         process environment",
                        tokens[i + 3].text
                    ),
                    &mut findings,
                );
            }
        }

        // D3: raw threading outside crates/par.
        if scope.d3
            && is_ident
            && text == "thread"
            && (matches_path(tokens, i, &["thread", "spawn"])
                || matches_path(tokens, i, &["thread", "scope"]))
        {
            report(
                "D3",
                tok.line,
                "raw std::thread use outside crates/par; route parallelism through \
                 the deterministic fusion3d-par combinators"
                    .to_string(),
                &mut findings,
            );
        }
        if scope.d3 && is_ident && text == "std" && matches_path(tokens, i, &["std", "thread"]) {
            report(
                "D3",
                tok.line,
                "raw std::thread use outside crates/par; route parallelism through \
                 the deterministic fusion3d-par combinators"
                    .to_string(),
                &mut findings,
            );
        }

        // P1: panicking constructs in library code.
        if scope.p1 && is_ident {
            let method_call = |name: &str| {
                text == name
                    && i > 0
                    && tokens[i - 1].text == "."
                    && tokens.get(i + 1).is_some_and(|t| t.text == "(")
            };
            if method_call("unwrap") || method_call("expect") {
                report(
                    "P1",
                    tok.line,
                    format!(
                        "`.{text}()` in library code; return a Result or document the \
                         invariant with a lint allow comment"
                    ),
                    &mut findings,
                );
            }
            if PANIC_MACROS.contains(&text) && tokens.get(i + 1).is_some_and(|t| t.text == "!") {
                report(
                    "P1",
                    tok.line,
                    format!("`{text}!` in library code; return a Result or document the invariant"),
                    &mut findings,
                );
            }
        }

        // O1: printing from library code.
        if scope.o1
            && is_ident
            && PRINT_MACROS.contains(&text)
            && tokens.get(i + 1).is_some_and(|t| t.text == "!")
        {
            report(
                "O1",
                tok.line,
                format!(
                    "`{text}!` in library code; report through return values or a \
                     fusion3d-obs Report — printing belongs to binaries"
                ),
                &mut findings,
            );
        }
    }

    // Multiple patterns can fire on one construct (e.g. `std::time::
    // Instant` trips both the path and the ident match); keep one
    // finding per (rule, line).
    findings.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    findings
}

/// Returns whether the `std` path segment at `tokens[i]` begins the
/// two-segment path `segs[0]::segs[1]` (e.g. `std :: env`).
fn matches_path(tokens: &[Token], i: usize, segs: &[&str; 2]) -> bool {
    tokens[i].text == segs[0]
        && tokens.get(i + 1).is_some_and(|t| t.text == ":")
        && tokens.get(i + 2).is_some_and(|t| t.text == ":")
        && tokens.get(i + 3).is_some_and(|t| t.text == segs[1])
}

/// Marks every token inside test-only code: items annotated
/// `#[test]`, `#[cfg(test)]` (including `cfg(any(test, …))`), or any
/// other attribute mentioning `test`. The body is the brace block of
/// the annotated item; `#[cfg(test)] mod x;` (no inline body) marks
/// nothing — out-of-line test modules should live under `tests/`.
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text != "#" || tokens.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        let (attr_end, mut is_test) = scan_attribute(tokens, i + 1);
        let mut j = attr_end;
        // Fold in any further attributes on the same item.
        while tokens.get(j).is_some_and(|t| t.text == "#")
            && tokens.get(j + 1).is_some_and(|t| t.text == "[")
        {
            let (next_end, also_test) = scan_attribute(tokens, j + 1);
            is_test |= also_test;
            j = next_end;
        }
        if !is_test {
            i = attr_end;
            continue;
        }
        // Find the item body: first `{` at bracket/paren depth 0
        // (stopping at a bare `;` for body-less items).
        let mut depth = 0i32;
        let mut body_start = None;
        while let Some(tok) = tokens.get(j) {
            match tok.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    body_start = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_start else {
            i = j + 1;
            continue;
        };
        // Skip to the matching close brace.
        let mut braces = 0i32;
        let mut end = open;
        while let Some(tok) = tokens.get(end) {
            match tok.text.as_str() {
                "{" => braces += 1,
                "}" => {
                    braces -= 1;
                    if braces == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        for slot in mask.iter_mut().take(end + 1).skip(i) {
            *slot = true;
        }
        i = end + 1;
    }
    mask
}

/// Scans one attribute whose `[` is at `open`; returns (index one past
/// the closing `]`, whether any identifier inside is `test`).
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut is_test = false;
    let mut i = open;
    while let Some(tok) = tokens.get(i) {
        match tok.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, is_test);
                }
            }
            "test" if tok.kind == TokenKind::Ident => is_test = true,
            _ => {}
        }
        i += 1;
    }
    (i, is_test)
}
