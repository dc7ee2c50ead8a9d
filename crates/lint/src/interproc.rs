//! Interprocedural rule families over the call graph.
//!
//! * **P2 — panic reachability.** Every public function of a
//!   result-bearing crate is an entry point; anything reachable from
//!   one must be free of *unvalidated-parameter* hazards: indexing or
//!   slicing that involves a function parameter, and
//!   division/remainder by a parameter, when the body never guards
//!   that parameter (no assert mentioning it, no `if`/`while`/`match`
//!   condition over it, no `.min`/`.max`/`.clamp`/`.len`-style check).
//!   Derived values are not the param: `x / n.len()` and
//!   `xs[rng.next(…)]` are exempt, as is constant indexing into a
//!   fixed-size-array parameter (compile-time checked).
//!   `.unwrap()`/`.expect()` and the `panic!` family are P1's: it
//!   covers every non-test library line, a superset of what P2
//!   reaches. Findings are reported at the source line — where the
//!   `allow(p2)` escape hatch applies — with an example entry path in
//!   the message.
//! * **H2 — allocation reachability.** From the named
//!   render/forward/train entry points of `fusion3d-nerf`,
//!   nothing reachable may call `.push`/`.collect`/`.clone`/
//!   `.to_vec`/`.to_string`/`.to_owned`, `format!`/`vec!`, or
//!   `Box::new`. `Vec::new`/`String::new` (allocation-free) and
//!   `with_capacity`/`reserve`/`resize`/`extend` (the sanctioned
//!   explicit-sizing pattern) are deliberately exempt — the contract
//!   is *no per-sample allocation*, not *no buffers*. The outer
//!   `train` epoch loop is not an entry (setup before the first step
//!   may allocate), and `crates/par` is exempt as a source (its
//!   per-dispatch slot vectors are the fan-out mechanism, like D3/D5).
//! * **D5 — parallel captures.** Inside a closure dispatched through
//!   a `fusion3d-par` combinator, any interior-mutability or
//!   shared-state machinery — `RefCell`/`Cell`/`Mutex`/`RwLock`/
//!   atomics/`Relaxed` ordering, `.lock()`/`.borrow_mut()`/
//!   `.fetch_add()`-style calls, `unsafe`, or a `static mut` name —
//!   is a scheduling-dependent side channel. A plain `captured += x`
//!   needs no rule: both combinators take `Fn` closures, so `rustc`
//!   rejects the assignment (E0594), and interior mutability or
//!   `unsafe` is the only way around that. `crates/par` itself is
//!   exempt (its index-addressed result slots *are* the deterministic
//!   dispatch mechanism), mirroring D3.
//! * **U1 — suppression hygiene.** Every `// lint: allow(…)` must
//!   carry a reason (`): why` or `) -- why`), and every suppressed
//!   rule must actually suppress something; stale allows are
//!   reported so the escape-hatch inventory stays honest. A
//!   directive listing `u1` opts out of the unused check (for
//!   deliberately prophylactic allows) but still needs a reason.

use std::collections::BTreeSet;

use crate::graph::{direct_spans, fn_item, CallGraph};
use crate::lexer::{match_close, Token, TokenKind};
use crate::parse::FnItem;
use crate::rules::{AllowUsage, Finding, RESULT_BEARING_CRATES};
use crate::SourceFile;

/// Hot-path entry points of `fusion3d-nerf` for H2: the render,
/// batched-forward/backward, and training-step surfaces.
const H2_ENTRY_NAMES: &[&str] = &[
    "render_image",
    "render_image_probed",
    "render_depth_image",
    "render_views_into",
    "render_layer",
    "trace_frame",
    "shade_row",
    "forward_batch",
    "forward_batch_infer",
    "backward_batch",
    "interpolate_batch",
    "interpolate_batch_infer",
    "step",
];

/// Hot-path entry points of `fusion3d-serve` for H2: the steady-state
/// request path — admission, batch drain, and batched render. The
/// trace event loop (`run_trace`) and the registry miss path
/// (`ensure_resident`) are deliberately *not* entries: a container
/// load is the cold path by definition and may allocate while
/// decoding.
const SERVE_H2_ENTRY_NAMES: &[&str] =
    &["admit", "pop_batch_into", "render_batch", "touch", "scene"];

/// The deterministic dispatch combinators of `fusion3d-par`; closures
/// passed to these run on worker threads (D5 scope).
const PAR_COMBINATORS: &[&str] = &["parallel_chunks", "run_tasks"];

/// Interior-mutability / shared-state type names (D5).
const INTERIOR_MUT_TYPES: &[&str] = &[
    "RefCell",
    "Cell",
    "Mutex",
    "RwLock",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyLock",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
    "Relaxed",
];

/// Interior-mutability method calls (D5), matched as `.name(`.
const INTERIOR_MUT_METHODS: &[&str] = &[
    "lock",
    "borrow",
    "borrow_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
    "swap",
    "store",
];

/// Assert-family macros whose mention of a parameter counts as a
/// bounds guard (P2).
const ASSERT_MACROS: &[&str] =
    &["assert", "assert_eq", "assert_ne", "debug_assert", "debug_assert_eq", "debug_assert_ne"];

/// Methods on a parameter that count as guarding it (P2):
/// `n.min(cap)`, `i.clamp(…)`, `xs.len()` checks, non-panicking
/// `xs.get(i)` access.
const GUARD_METHODS: &[&str] =
    &["min", "max", "clamp", "len", "is_empty", "get", "get_mut", "checked_div", "checked_rem"];

/// H2 allocation sources matched as `.name(` method calls.
const ALLOC_METHODS: &[&str] = &["push", "collect", "clone", "to_vec", "to_string", "to_owned"];

/// H2 allocation sources matched as `name!` macros.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Runs P2, H2 and D5 over the workspace, recording every
/// suppression that fires into `usage` (for U1).
pub fn check(files: &[SourceFile], graph: &CallGraph, usage: &mut [AllowUsage]) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_p2(files, graph, usage, &mut findings);
    check_h2(files, graph, usage, &mut findings);
    check_par_closures(files, graph, usage, &mut findings);
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings.dedup_by(|a, b| a.rule == b.rule && a.path == b.path && a.line == b.line);
    findings
}

/// Reports a finding at `line` of `files[file_idx]` unless an allow
/// for `rule` covers it; a matching allow is recorded as used.
fn report(
    files: &[SourceFile],
    usage: &mut [AllowUsage],
    file_idx: usize,
    rule: &'static str,
    line: u32,
    message: String,
    findings: &mut Vec<Finding>,
) {
    if let Some(directive_line) = files[file_idx].lexed.allow_line(rule, line) {
        usage[file_idx].insert((directive_line, rule.to_ascii_lowercase()));
        return;
    }
    findings.push(Finding { rule, path: files[file_idx].path.clone(), line, message });
}

// ---------------------------------------------------------------- P2

fn check_p2(
    files: &[SourceFile],
    graph: &CallGraph,
    usage: &mut [AllowUsage],
    findings: &mut Vec<Finding>,
) {
    // Entries: public non-test fns of result-bearing crates.
    let entries: Vec<usize> = (0..graph.nodes.len())
        .filter(|&n| {
            let node = &graph.nodes[n];
            RESULT_BEARING_CRATES.contains(&node.krate.as_str()) && fn_item(files, node).is_pub
        })
        .collect();
    let parents = graph.reachable_from(&entries);

    for n in 0..graph.nodes.len() {
        if parents[n].is_none() {
            continue;
        }
        let node = &graph.nodes[n];
        // Sources only matter inside result-bearing crates: a call
        // that crosses into `bench`/`lint` leaves the library surface.
        if !RESULT_BEARING_CRATES.contains(&node.krate.as_str()) {
            continue;
        }
        let file = &files[node.file];
        let toks = &file.lexed.tokens;
        let item = fn_item(files, node);
        let spans = direct_spans(&file.parsed, node.fn_index);
        let guarded = guarded_params(toks, &spans, &item.params);
        let via = graph.path_string(files, &parents, n);

        for &(lo, hi) in &spans {
            for i in lo..hi {
                let t = &toks[i];
                let text = t.text.as_str();
                let next = toks.get(i + 1).map_or("", |n| n.text.as_str());

                // (a) indexing/slicing involving an unguarded param.
                if text == "["
                    && matches!(toks.get(i.wrapping_sub(1)), Some(p) if p.kind == TokenKind::Ident || p.text == ")" || p.text == "]")
                {
                    if let Some(param) = index_involves_param(toks, i, hi, item, &guarded) {
                        report(
                            files,
                            usage,
                            node.file,
                            "P2",
                            t.line,
                            format!(
                                "indexing involves parameter `{param}` with no bounds guard \
                                 in `{name}`; out-of-range input panics on a public path: {via}",
                                name = item.name
                            ),
                            findings,
                        );
                    }
                }
                // (b) division/remainder by a *bare* unguarded param —
                // `x / n`, not `x / n.len()` or `x / n.get(…)`, where
                // the divisor is a derived value, not the param itself.
                if (text == "/" || text == "%")
                    && toks.get(i + 1).is_some_and(|d| {
                        d.kind == TokenKind::Ident
                            && item.params.contains(&d.text)
                            && !guarded.contains(&d.text)
                    })
                    && !matches!(toks.get(i + 2).map(|t| t.text.as_str()), Some("." | "("))
                    && next != "="
                {
                    report(
                        files,
                        usage,
                        node.file,
                        "P2",
                        t.line,
                        format!(
                            "`{text} {param}` divides by parameter `{param}` with no zero \
                             guard in `{name}`; reachable from public API: {via}",
                            param = toks[i + 1].text,
                            name = item.name
                        ),
                        findings,
                    );
                }
            }
        }
    }
}

/// Parameters mentioned in any guard position within the fn body:
/// assert-family macro arguments, `if`/`while`/`match` heads, or a
/// `.min`/`.max`/`.clamp`-style method call on the parameter.
fn guarded_params(toks: &[Token], spans: &[(usize, usize)], params: &[String]) -> BTreeSet<String> {
    let mut guarded = BTreeSet::new();
    if params.is_empty() {
        return guarded;
    }
    for &(lo, hi) in spans {
        let mut i = lo;
        while i < hi {
            let text = toks[i].text.as_str();
            if toks[i].kind == TokenKind::Ident
                && ASSERT_MACROS.contains(&text)
                && toks.get(i + 1).is_some_and(|t| t.text == "!")
                && toks.get(i + 2).is_some_and(|t| t.text == "(")
            {
                let close = match_close(toks, i + 2, "(", ")");
                mark_mentions(toks, i + 3, close.min(hi), params, &mut guarded);
                i = close + 1;
                continue;
            }
            if matches!(text, "if" | "while" | "match") {
                // Head: tokens up to the `{` at depth 0.
                let mut j = i + 1;
                let mut depth = 0i32;
                while j < hi {
                    match toks[j].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                mark_mentions(toks, i + 1, j, params, &mut guarded);
                i = j;
                continue;
            }
            if toks[i].kind == TokenKind::Ident
                && params.contains(&toks[i].text)
                && toks.get(i + 1).is_some_and(|t| t.text == ".")
                && toks.get(i + 2).is_some_and(|t| GUARD_METHODS.contains(&t.text.as_str()))
            {
                guarded.insert(toks[i].text.clone());
            }
            i += 1;
        }
    }
    guarded
}

fn mark_mentions(
    toks: &[Token],
    lo: usize,
    hi: usize,
    params: &[String],
    guarded: &mut BTreeSet<String>,
) {
    for t in &toks[lo.min(toks.len())..hi.min(toks.len())] {
        if t.kind == TokenKind::Ident && params.contains(&t.text) {
            guarded.insert(t.text.clone());
        }
    }
}

/// For an index expression whose `[` is at `open`: the first
/// unguarded parameter involved — the indexed base (token before the
/// bracket) or a *bare* identifier inside the bracket span (not a
/// `x.method(…)` receiver, whose value is derived, not the param).
/// Constant indexing into a fixed-size-array param (`v[0]` on
/// `[u32; 3]`) is compile-time checked and never a hazard.
fn index_involves_param(
    toks: &[Token],
    open: usize,
    hi: usize,
    item: &crate::parse::FnItem,
    guarded: &BTreeSet<String>,
) -> Option<String> {
    let hazard = |t: &Token| {
        t.kind == TokenKind::Ident && item.params.contains(&t.text) && !guarded.contains(&t.text)
    };
    let close = match_close(toks, open, "[", "]");
    if open > 0 && hazard(&toks[open - 1]) {
        let base = &toks[open - 1].text;
        let const_index =
            close == open + 2 && toks.get(open + 1).is_some_and(|t| t.kind == TokenKind::Int);
        if !(const_index && item.fixed_arrays.contains(base)) {
            return Some(base.clone());
        }
    }
    toks[open + 1..close.min(hi)]
        .iter()
        .enumerate()
        .find(|(j, t)| {
            hazard(t) && !matches!(toks.get(open + 2 + j).map(|t| t.text.as_str()), Some("." | "("))
        })
        .map(|(_, t)| t.text.clone())
}

// ---------------------------------------------------------------- H2

/// Whether `item`, a fn of crate `krate`, is an H2 entry point.
fn is_h2_entry(krate: &str, item: &FnItem) -> bool {
    (krate == "nerf"
        && H2_ENTRY_NAMES.contains(&item.name.as_str())
        // Bare `step` is a common method name; only the training
        // loop's own impl is a hot-path entry. The outer `train` epoch
        // loop is deliberately *not* one: model/dataset construction
        // before the first step may allocate freely.
        && (item.name != "step" || item.self_type.as_deref() == Some("Trainer")))
        || (krate == "serve" && SERVE_H2_ENTRY_NAMES.contains(&item.name.as_str()))
}

fn check_h2(
    files: &[SourceFile],
    graph: &CallGraph,
    usage: &mut [AllowUsage],
    findings: &mut Vec<Finding>,
) {
    let entries: Vec<usize> = (0..graph.nodes.len())
        .filter(|&n| is_h2_entry(&graph.nodes[n].krate, fn_item(files, &graph.nodes[n])))
        .collect();
    let parents = graph.reachable_from(&entries);

    for n in 0..graph.nodes.len() {
        if parents[n].is_none() {
            continue;
        }
        let node = &graph.nodes[n];
        // Sources only matter inside result-bearing crates: the
        // conservative method resolver can edge into `bench`/`lint`
        // helpers that never link into the render/train binaries.
        // `par` is exempt like it is from D3/D5 — its per-dispatch
        // slot vectors and result collection *are* the deterministic
        // fan-out mechanism, amortized across a whole chunk batch.
        if !RESULT_BEARING_CRATES.contains(&node.krate.as_str()) || node.krate == "par" {
            continue;
        }
        let file = &files[node.file];
        let toks = &file.lexed.tokens;
        let via = graph.path_string(files, &parents, n);

        for (lo, hi) in direct_spans(&file.parsed, node.fn_index) {
            for i in lo..hi {
                let t = &toks[i];
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let text = t.text.as_str();
                let prev = if i > 0 { toks[i - 1].text.as_str() } else { "" };
                let next = toks.get(i + 1).map_or("", |n| n.text.as_str());
                let what = if ALLOC_METHODS.contains(&text) && prev == "." && next == "(" {
                    Some(format!("`.{text}()`"))
                } else if ALLOC_MACROS.contains(&text) && next == "!" {
                    Some(format!("`{text}!`"))
                } else if text == "new"
                    && prev == ":"
                    && i >= 3
                    && toks[i - 2].text == ":"
                    && toks[i - 3].text == "Box"
                {
                    Some("`Box::new`".to_string())
                } else {
                    None
                };
                if let Some(what) = what {
                    report(
                        files,
                        usage,
                        node.file,
                        "H2",
                        t.line,
                        format!(
                            "{what} allocates on the hot path: {via}; reuse a scratch \
                             buffer sized outside the per-sample loop"
                        ),
                        findings,
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- D5

fn check_par_closures(
    files: &[SourceFile],
    graph: &CallGraph,
    usage: &mut [AllowUsage],
    findings: &mut Vec<Finding>,
) {
    for n in 0..graph.nodes.len() {
        let node = &graph.nodes[n];
        // par's own slot machinery is the dispatch mechanism (cf. D3).
        if node.krate == "par" {
            continue;
        }
        let file = &files[node.file];
        let toks = &file.lexed.tokens;
        for (lo, hi) in direct_spans(&file.parsed, node.fn_index) {
            let mut i = lo;
            while i < hi {
                let t = &toks[i];
                let is_combinator = t.kind == TokenKind::Ident
                    && PAR_COMBINATORS.contains(&t.text.as_str())
                    && i > 0
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).is_some_and(|n| n.text == "(");
                if !is_combinator {
                    i += 1;
                    continue;
                }
                let args_close = match_close(toks, i + 1, "(", ")");
                for (body_lo, body_hi) in closures_in(toks, i + 2, args_close.min(hi)) {
                    check_d5(files, usage, node.file, toks, body_lo, body_hi, findings);
                }
                i = args_close + 1;
            }
        }
    }
}

/// Closures in the argument span `[lo, hi)`: returns the
/// `(body_lo, body_hi)` token span of each closure body.
fn closures_in(toks: &[Token], lo: usize, hi: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi {
        let starts_closure =
            toks[i].text == "|" && i > 0 && matches!(toks[i - 1].text.as_str(), "(" | "," | "move");
        if !starts_closure {
            i += 1;
            continue;
        }
        // Parameter list: up to the closing `|` (possibly immediate).
        let params_close = (i + 1..hi).find(|&j| toks[j].text == "|").unwrap_or(hi);
        // Body: a brace block, or an expression up to `,`/`)` at
        // depth 0.
        let body_start = params_close + 1;
        let mut end = body_start;
        if toks.get(body_start).is_some_and(|t| t.text == "{") {
            end = match_close(toks, body_start, "{", "}") + 1;
        } else {
            let mut depth = 0i32;
            while end < hi {
                match toks[end].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    "," if depth == 0 => break,
                    _ => {}
                }
                end += 1;
            }
        }
        let body_hi = end.min(hi);
        out.push((body_start, body_hi));
        i = body_hi.max(i + 1);
    }
    out
}

/// D5: interior-mutability / shared-state machinery inside a
/// par-dispatched closure body.
fn check_d5(
    files: &[SourceFile],
    usage: &mut [AllowUsage],
    file_idx: usize,
    toks: &[Token],
    lo: usize,
    hi: usize,
    findings: &mut Vec<Finding>,
) {
    let static_muts = &files[file_idx].parsed.static_muts;
    for i in lo..hi {
        let t = &toks[i];
        let text = t.text.as_str();
        let prev = if i > 0 { toks[i - 1].text.as_str() } else { "" };
        let next = toks.get(i + 1).map_or("", |n| n.text.as_str());
        let what = if t.kind == TokenKind::Ident && INTERIOR_MUT_TYPES.contains(&text) {
            Some(format!("`{text}`"))
        } else if t.kind == TokenKind::Ident
            && INTERIOR_MUT_METHODS.contains(&text)
            && prev == "."
            && next == "("
        {
            Some(format!("`.{text}()`"))
        } else if text == "unsafe" {
            Some("`unsafe`".to_string())
        } else if t.kind == TokenKind::Ident && static_muts.contains(&t.text) {
            Some(format!("`static mut {text}`"))
        } else {
            None
        };
        if let Some(what) = what {
            report(
                files,
                usage,
                file_idx,
                "D5",
                t.line,
                format!(
                    "{what} inside a fusion3d-par closure shares state across \
                     workers; results then depend on scheduling — use `run_tasks` \
                     worker scratch or reduce through the returned results"
                ),
                findings,
            );
        }
    }
}

// ---------------------------------------------------------------- U1

/// U1: reasonless and unused suppressions, run after every other rule
/// has recorded its usage.
pub fn check_unused(files: &[SourceFile], usage: &[AllowUsage]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, file) in files.iter().enumerate() {
        for (&line, directive) in &file.lexed.allows {
            let exempt_unused = directive.rules.iter().any(|r| r == "u1");
            if !directive.has_reason {
                findings.push(Finding {
                    rule: "U1",
                    path: file.path.clone(),
                    line,
                    message: format!(
                        "suppression of `{}` carries no reason; write \
                         `// lint: allow({}): why` so the exception is auditable",
                        directive.rules.join(", "),
                        directive.rules.join(", ")
                    ),
                });
                continue;
            }
            if exempt_unused {
                continue;
            }
            let unused: Vec<&str> = directive
                .rules
                .iter()
                .filter(|r| !usage[idx].contains(&(line, (*r).clone())))
                .map(String::as_str)
                .collect();
            if !unused.is_empty() {
                findings.push(Finding {
                    rule: "U1",
                    path: file.path.clone(),
                    line,
                    message: format!(
                        "unused suppression of `{}`: no finding of that rule is \
                         suppressed here — delete the allow or add `u1` to mark it \
                         deliberately prophylactic",
                        unused.join(", ")
                    ),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// Every fn parsed from `crates/{krate}/src` of this workspace.
    fn crate_fns(krate: &str) -> Vec<FnItem> {
        let root = crate::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("the lint crate lives in the workspace");
        let mut paths = Vec::new();
        crate::collect_rs_files(&root.join("crates").join(krate).join("src"), &mut paths)
            .expect("crate sources are readable");
        paths
            .iter()
            .flat_map(|path| {
                let source = std::fs::read_to_string(path).expect("source is readable");
                crate::parse::parse_file(&crate::lexer::lex(&source)).fns
            })
            .collect()
    }

    /// A renamed or deleted entry point would silently narrow H2.
    #[test]
    fn every_h2_entry_names_a_non_test_fn() {
        for (krate, names) in [("nerf", H2_ENTRY_NAMES), ("serve", SERVE_H2_ENTRY_NAMES)] {
            let fns = crate_fns(krate);
            for name in names {
                assert!(
                    fns.iter().any(|f| f.name == *name && !f.is_test && is_h2_entry(krate, f)),
                    "H2 entry `{name}` is no non-test fn of {krate}"
                );
            }
        }
    }

    /// A renamed or deleted combinator would silently narrow D5.
    #[test]
    fn every_par_combinator_names_a_pub_fn_of_par() {
        let fns = crate_fns("par");
        for name in PAR_COMBINATORS {
            assert!(
                fns.iter().any(|f| f.name == *name && f.is_pub && !f.is_test),
                "D5 combinator `{name}` is no pub fn of par"
            );
        }
    }
}
