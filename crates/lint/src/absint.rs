//! Interval abstract interpretation: the A2/A3/A4 rule families.
//!
//! A forward dataflow analysis over the parser's block structure with
//! the [`crate::intervals`] lattice: constants propagate from
//! workspace `const` items, parameters start at their declared type's
//! range, `clamp`/`min`/`max`/`debug_assert!` refine intervals, and
//! loops widen (bounded `for` loops additionally prove accumulator
//! bounds by scaling the per-iteration contribution with the trip
//! count). Function calls use interprocedural summaries computed over
//! the existing call graph: each function's return interval is
//! evaluated once, lazily, with parameters at their type ranges —
//! since every transfer function is monotone, that summary soundly
//! over-approximates the return value for any narrower call-site
//! arguments.
//!
//! Three rule families run on top of the analysis, all over the one
//! list of [`ACCOUNTING_FILES`] where a silent wrap or truncation
//! corrupts reported numbers (function bodies and `const`
//! initializers alike):
//!
//! * **A2 overflow-bounds and casts** — every `+` (below 64 bits),
//!   `*`, and `<<` must have a provable result interval inside its
//!   operand type. Every `as` cast must provably lose nothing: an int
//!   or float source must lie inside an integer destination (`usize`
//!   and `isize` count as 32-bit, so the proof holds on every target),
//!   a float literal with a fractional part never casts to an integer,
//!   and an `f32` destination takes an `f32` source or an integer
//!   within ±2^24. `checked_*`/`saturating_*`/`wrapping_*` are
//!   sanctioned by construction; 64-bit `+` is exempt because the
//!   cycle/energy totals carry deliberate headroom there.
//! * **A3 unit-consistency** — values flowing from unit-named sources
//!   (`*_cycles`, `*_pj`/energy, `*_bytes`, `*_points`; seeded from
//!   parameter, field, and const names) carry a unit tag; cross-unit
//!   `+`/`-`/comparisons and unit-erasing divisions (different units
//!   on both sides) require a `// lint: allow(a3): why`.
//! * **A4 quantization-width audit** — the width constant is
//!   re-derived: a `*MAX_INT*` const must stay within `2^24` (exact
//!   f32 significand product, the paper's FP×INT exactness claim).
//!
//! The analysis is deliberately fail-open for arithmetic: an
//! expression it cannot evaluate becomes ⊤/untyped, and overflow
//! checks fire only where the operand type is known. Unknown
//! constructs therefore cost precision (which a `debug_assert!`
//! precondition wins back), never false positives. Casts are the
//! exception: a cast whose source it cannot bound is a finding.

use std::collections::BTreeMap;

use crate::graph::{fn_item, CallGraph};
use crate::intervals::{is_float_type, is_int_type, type_bits, type_range, Interval};
use crate::lexer::{match_close, match_open, Token, TokenKind};
use crate::parse::{ConstItem, FnItem};
use crate::rules::{test_mask, AllowUsage, Finding};
use crate::SourceFile;

/// Files under the A2/A3/A4 contract: the FIEM multiply plus every
/// cycle/energy/byte accounting module. The float-heavy moe/system
/// models in `multichip` are out of scope — their results are `f64`
/// end to end.
const ACCOUNTING_FILES: &[&str] = &[
    "crates/arith/src/cost.rs",
    "crates/arith/src/fiem.rs",
    "crates/core/src/bandwidth.rs",
    "crates/core/src/energy.rs",
    "crates/core/src/pipeline_sim.rs",
    "crates/mem/src/banks.rs",
    "crates/mem/src/interconnect.rs",
    "crates/mem/src/sram.rs",
    "crates/multichip/src/chiplet.rs",
    "crates/multichip/src/comm.rs",
];

/// `+` is checked only below this operand width: 64-bit totals carry
/// deliberate headroom (a u64 cycle counter cannot overflow in any
/// simulated workload), and demanding proofs there would bury the
/// real hazards in allows.
const PLUS_CHECK_BELOW_BITS: u32 = 64;

/// An `f32` holds every integer in `[-2^24, 2^24]` exactly.
const F32_EXACT_INT: Interval = Interval::Range { lo: -(1 << 24), hi: 1 << 24 };

/// One abstract value: an interval plus the metadata the checks need.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AbsVal {
    iv: Interval,
    /// Primitive type name when known (`i32`), or a struct name for
    /// field lookups (`FixedWeight`).
    ty: Option<String>,
    /// Unsuffixed literal: adopts the partner operand's type.
    weak: bool,
    /// Floating-point value; `iv` is an outward-rounded integer hull.
    float: bool,
    /// Unit tag for A3 (`cycles`, `pJ`, `bytes`, `points`).
    unit: Option<String>,
    /// Element type when this is a container (`Vec<i8>` → `i8`).
    elem: Option<String>,
}

impl AbsVal {
    fn unknown() -> AbsVal {
        AbsVal { iv: Interval::TOP, ty: None, weak: false, float: false, unit: None, elem: None }
    }

    fn of_int(iv: Interval, ty: Option<String>, weak: bool) -> AbsVal {
        AbsVal { iv, ty, weak, float: false, unit: None, elem: None }
    }

    fn typed_range(ty: &str) -> AbsVal {
        let iv = type_range(ty).unwrap_or(Interval::TOP);
        AbsVal {
            iv,
            ty: Some(ty.to_string()),
            weak: false,
            float: is_float_type(ty),
            unit: None,
            elem: None,
        }
    }

    fn with_unit(mut self, unit: Option<String>) -> AbsVal {
        self.unit = unit;
        self
    }

    fn join(&self, other: &AbsVal) -> AbsVal {
        AbsVal {
            iv: self.iv.join(other.iv),
            ty: if self.ty == other.ty { self.ty.clone() } else { None },
            weak: self.weak && other.weak,
            float: self.float || other.float,
            unit: if self.unit == other.unit { self.unit.clone() } else { None },
            elem: if self.elem == other.elem { self.elem.clone() } else { None },
        }
    }

    /// The value with its interval havocked to the type range (or ⊤),
    /// keeping type/unit metadata — used for loop-mutated variables.
    fn havocked(&self) -> AbsVal {
        let iv = match self.ty.as_deref().and_then(type_range) {
            Some(r) if !self.float => r,
            _ => Interval::TOP,
        };
        AbsVal { iv, ..self.clone() }
    }
}

/// Maps canonical place strings (`"acc"`, `"self.0"`, `"xs.len()"`)
/// to abstract values.
type Env = BTreeMap<String, AbsVal>;

/// Per-loop context: trip-count interval plus the accumulators
/// (single-site compound-assigned places) with their pre-loop values.
struct LoopCtx {
    trip: Interval,
    accs: BTreeMap<String, AbsVal>,
}

/// Per-function analysis state.
struct Cx<'a> {
    file: usize,
    toks: &'a [Token],
    env: Env,
    loops: Vec<LoopCtx>,
    quiet: bool,
    /// Type an unsuffixed integer literal takes when no operand types
    /// it: a `const` initializer's declared type, else `i32`.
    lit_ty: Option<String>,
    self_ty: Option<String>,
    ret: Option<AbsVal>,
}

enum Summary {
    NotStarted,
    InProgress,
    Done(AbsVal),
}

struct Analyzer<'a> {
    files: &'a [SourceFile],
    graph: &'a CallGraph,
    usage: &'a mut [AllowUsage],
    consts: BTreeMap<String, AbsVal>,
    /// `(struct name, field name)` → `(first, last)` type segment.
    fields: BTreeMap<(String, String), (String, String)>,
    /// Field name → unique type segments, when the field name is
    /// globally unambiguous (fallback for untyped receivers).
    field_fallback: BTreeMap<String, Option<(String, String)>>,
    prim_aliases: BTreeMap<String, String>,
    fn_by_name: BTreeMap<String, Vec<usize>>,
    summaries: Vec<Summary>,
    masks: Vec<Vec<bool>>,
    findings: Vec<Finding>,
}

/// Runs A2/A3/A4 over the workspace, recording fired suppressions
/// into `usage` (for U1).
pub(crate) fn check(
    files: &[SourceFile],
    graph: &CallGraph,
    usage: &mut [AllowUsage],
) -> Vec<Finding> {
    let in_scope = |file: usize| ACCOUNTING_FILES.contains(&files[file].path.as_str());
    let mut a = Analyzer::new(files, graph, usage);
    a.build_consts();
    for file_idx in (0..files.len()).filter(|&f| in_scope(f)) {
        a.check_consts(file_idx);
    }
    for node in (0..graph.nodes.len()).filter(|&n| in_scope(graph.nodes[n].file)) {
        a.analyze_fn(node, false);
    }
    let mut findings = a.findings;
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings.dedup_by(|a, b| a.rule == b.rule && a.path == b.path && a.line == b.line);
    findings
}

/// The A3 unit of an identifier, from the annotation table the rule
/// catalogue documents: suffix-matched so `total_cycles`,
/// `energy_pj`, and `payload_bytes` all tag.
fn unit_of_name(name: &str) -> Option<String> {
    let n = name.to_ascii_lowercase();
    let n = n.rsplit('.').next().unwrap_or(&n);
    let unit = if n.ends_with("cycles") || n == "cycle" {
        "cycles"
    } else if n.ends_with("_pj") || n == "pj" || n.contains("energy") {
        "pJ"
    } else if n.ends_with("bytes") {
        "bytes"
    } else if n.ends_with("points") {
        "points"
    } else {
        return None;
    };
    Some(unit.to_string())
}

fn is_open(t: &str) -> bool {
    matches!(t, "(" | "[" | "{")
}

fn is_close(t: &str) -> bool {
    matches!(t, ")" | "]" | "}")
}

/// Splits `[lo, hi)` on depth-0 occurrences of single-token `sep`.
fn split_depth0(toks: &[Token], lo: usize, hi: usize, sep: &str) -> Vec<(usize, usize)> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut start = lo;
    let mut i = lo;
    while i < hi {
        let t = toks[i].text.as_str();
        if is_open(t) {
            depth += 1;
        } else if is_close(t) {
            depth -= 1;
        } else if depth == 0 && t == sep {
            parts.push((start, i));
            start = i + 1;
        }
        i += 1;
    }
    parts.push((start, hi));
    parts
}

/// First depth-0 position of single-token `what` in `[lo, hi)`.
fn find_depth0(toks: &[Token], lo: usize, hi: usize, what: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().take(hi).skip(lo) {
        let t = t.text.as_str();
        // Match before the depth bookkeeping so that searching for an
        // opener (`{` — every control-flow body lookup) or a closer
        // still succeeds at depth 0.
        if depth == 0 && t == what {
            return Some(i);
        }
        if is_open(t) {
            depth += 1;
        } else if is_close(t) {
            depth -= 1;
        }
    }
    None
}

/// Joined token texts of `[lo, hi)` — the canonical place string.
fn span_text(toks: &[Token], lo: usize, hi: usize) -> String {
    let mut s = String::new();
    for t in toks.iter().take(hi).skip(lo) {
        s.push_str(&t.text);
    }
    s
}

/// Whether `[lo, hi)` is a pure place expression: an identifier chain
/// of fields/tuple indexes, optionally ending in `.len()`.
fn is_place_span(toks: &[Token], lo: usize, hi: usize) -> bool {
    if lo >= hi || toks[lo].kind != TokenKind::Ident {
        return false;
    }
    let mut i = lo + 1;
    while i < hi {
        if toks[i].text == "." && i + 1 < hi {
            match toks[i + 1].kind {
                TokenKind::Ident | TokenKind::Int => i += 2,
                _ => return false,
            }
        } else if toks[i].text == "(" && i + 1 < hi && toks[i + 1].text == ")" {
            i += 2;
        } else {
            return false;
        }
    }
    true
}

/// Parses an integer literal: `(value, suffix type)`.
fn parse_int_lit(text: &str) -> Option<(i128, Option<String>)> {
    let clean: String = text.chars().filter(|c| *c != '_').collect();
    let (digits, radix) = if let Some(rest) = clean.strip_prefix("0x").or(clean.strip_prefix("0X"))
    {
        (rest, 16)
    } else if let Some(rest) = clean.strip_prefix("0o") {
        (rest, 8)
    } else if let Some(rest) = clean.strip_prefix("0b") {
        (rest, 2)
    } else {
        (clean.as_str(), 10)
    };
    let split = digits
        .char_indices()
        .find(|(_, c)| !c.is_digit(radix))
        .map(|(i, _)| i)
        .unwrap_or(digits.len());
    let (num, suffix) = digits.split_at(split);
    if num.is_empty() {
        return None;
    }
    // u128-sized literals saturate to the rail (sound: widens).
    let value = i128::from_str_radix(num, radix).unwrap_or(i128::MAX);
    let ty = if suffix.is_empty() { None } else { Some(suffix.to_string()) };
    Some((value, ty))
}

/// Parses a float literal into an outward-rounded integer hull.
fn parse_float_lit(text: &str) -> Option<(i128, i128)> {
    let clean: String = text.chars().filter(|c| *c != '_').collect();
    let body = clean.trim_end_matches("f32").trim_end_matches("f64");
    let v: f64 = body.parse().ok()?;
    if !v.is_finite() {
        return None;
    }
    let sat = |x: f64| -> i128 {
        if x >= i128::MAX as f64 {
            i128::MAX
        } else if x <= i128::MIN as f64 {
            i128::MIN
        } else {
            x as i128
        }
    };
    Some((sat(v.floor()), sat(v.ceil())))
}

/// Outward padding for float results: one generous f32 ulp at the
/// bound's magnitude, so rounding in the concrete computation can
/// never escape the abstract hull.
fn float_pad(iv: Interval) -> Interval {
    match iv.bounds() {
        Some((lo, hi)) if iv != Interval::TOP => {
            let pad = |b: i128| (b.abs() >> 20).saturating_add(1);
            Interval::new(lo.saturating_sub(pad(lo)), hi.saturating_add(pad(hi)))
        }
        _ => iv,
    }
}

/// `x ⊔ {0}` — accumulator contributions are scaled from zero trips.
fn hull0(iv: Interval) -> Interval {
    iv.join(Interval::singleton(0))
}

impl<'a> Analyzer<'a> {
    fn new(files: &'a [SourceFile], graph: &'a CallGraph, usage: &'a mut [AllowUsage]) -> Self {
        let mut fields = BTreeMap::new();
        let mut field_fallback: BTreeMap<String, Option<(String, String)>> = BTreeMap::new();
        let mut prim_aliases = BTreeMap::new();
        for file in files {
            for f in &file.parsed.struct_fields {
                let ty = (f.ty_base.clone(), f.ty_last.clone());
                field_fallback
                    .entry(f.field.clone())
                    .and_modify(|e| {
                        if e.as_ref() != Some(&ty) {
                            *e = None;
                        }
                    })
                    .or_insert(Some(ty.clone()));
                fields.insert((f.struct_name.clone(), f.field.clone()), ty);
            }
            for (name, prim) in &file.parsed.prim_aliases {
                prim_aliases.insert(name.clone(), prim.clone());
            }
        }
        let mut fn_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (idx, node) in graph.nodes.iter().enumerate() {
            fn_by_name.entry(fn_item(files, node).name.clone()).or_default().push(idx);
        }
        let masks = files.iter().map(|f| test_mask(&f.lexed.tokens)).collect();
        let summaries = graph.nodes.iter().map(|_| Summary::NotStarted).collect();
        Analyzer {
            files,
            graph,
            usage,
            consts: BTreeMap::new(),
            fields,
            field_fallback,
            prim_aliases,
            fn_by_name,
            summaries,
            masks,
            findings: Vec::new(),
        }
    }

    fn report(&mut self, cx: &Cx<'a>, rule: &'static str, line: u32, message: String) {
        if cx.quiet {
            return;
        }
        match self.files[cx.file].lexed.allow_line(rule, line) {
            Some(directive_line) => {
                self.usage[cx.file].insert((directive_line, rule.to_ascii_lowercase()));
            }
            None => self.findings.push(Finding {
                rule,
                path: self.files[cx.file].path.clone(),
                line,
                message,
            }),
        }
    }

    fn resolve_ty(&self, name: &str) -> String {
        self.prim_aliases.get(name).cloned().unwrap_or_else(|| name.to_string())
    }

    // ------------------------------------------------------- consts

    /// Two quiet passes so cross-referencing consts resolve; same-name
    /// collisions across files join (conservative).
    fn build_consts(&mut self) {
        for _ in 0..2 {
            let mut pass: BTreeMap<String, AbsVal> = BTreeMap::new();
            for file_idx in 0..self.files.len() {
                for c in self.files[file_idx].parsed.consts.clone() {
                    if self.masks[file_idx].get(c.init.0).copied().unwrap_or(false) {
                        continue;
                    }
                    let val = self.eval_const(file_idx, &c, true);
                    pass.entry(c.name.clone()).and_modify(|e| *e = e.join(&val)).or_insert(val);
                }
            }
            self.consts = pass;
        }
    }

    /// Evaluates one const initializer against its declared type: an
    /// unsuffixed literal takes that type, as `rustc` infers it, so
    /// `const MAX: u64 = 1 << 32;` is no `i32` overflow.
    fn eval_const(&mut self, file_idx: usize, c: &ConstItem, quiet: bool) -> AbsVal {
        let ty = c.ty.as_deref().map(|t| self.resolve_ty(t));
        let mut cx = self.fresh_cx(file_idx, quiet, None);
        cx.lit_ty = ty.clone().filter(|t| is_int_type(t));
        let mut p = c.init.0;
        let mut val = self.eval(&mut cx, &mut p, c.init.1, 0, false);
        if let Some(ty) = ty {
            if is_int_type(&ty) {
                val.iv = val.iv.meet(type_range(&ty).unwrap_or(Interval::TOP));
                val.ty = Some(ty);
                val.weak = false;
            } else if is_float_type(&ty) {
                val.float = true;
                val.ty = Some(ty);
            }
        }
        val.unit = unit_of_name(&c.name);
        val
    }

    /// Checks the const initializers of one accounting file: A2/A3 on
    /// the expressions, and A4 re-derives the paper's width claim from
    /// the named constant itself, so drift fails in CI.
    fn check_consts(&mut self, file_idx: usize) {
        for c in self.files[file_idx].parsed.consts.clone() {
            if self.masks[file_idx].get(c.init.0).copied().unwrap_or(false) {
                continue;
            }
            let val = self.eval_const(file_idx, &c, false);
            let Some((_, hi)) = val.iv.bounds() else { continue };
            if c.name.contains("MAX_INT") && hi > 1 << 24 {
                let cx = self.fresh_cx(file_idx, false, None);
                self.report(
                    &cx,
                    "A4",
                    c.line,
                    format!(
                        "`{}` = {hi} exceeds 2^24: an f32 significand times an int this \
                         large no longer multiplies exactly, breaking the FIEM \
                         exactness claim",
                        c.name
                    ),
                );
            }
        }
    }

    // ---------------------------------------------------- summaries

    fn summary_of(&mut self, node: usize) -> AbsVal {
        match self.summaries[node] {
            Summary::Done(ref v) => return v.clone(),
            Summary::InProgress => return AbsVal::unknown(), // recursion: ⊤
            Summary::NotStarted => {}
        }
        self.summaries[node] = Summary::InProgress;
        let val = self.analyze_fn(node, true);
        self.summaries[node] = Summary::Done(val.clone());
        val
    }

    /// Analyzes one function body; returns the join of its `return`
    /// values and trailing expression, met with the declared return
    /// type's range. Quiet mode computes summaries without findings.
    fn analyze_fn(&mut self, node: usize, quiet: bool) -> AbsVal {
        let n = &self.graph.nodes[node];
        let file_idx = n.file;
        let item: &FnItem = &self.files[file_idx].parsed.fns[n.fn_index];
        let Some((open, close)) = item.body else { return AbsVal::unknown() };
        let self_ty = item.self_type.clone();
        let ret_ty = item.ret_type.clone();
        let params = item.params.clone();
        let alias_typed: BTreeMap<String, String> = item.alias_typed.iter().cloned().collect();

        let mut cx = self.fresh_cx(file_idx, quiet, self_ty.clone());
        for p in &params {
            let mut val = match alias_typed.get(p) {
                Some(ty) => {
                    let ty = self.resolve_ty(ty);
                    if is_int_type(&ty) || is_float_type(&ty) {
                        AbsVal::typed_range(&ty)
                    } else {
                        AbsVal { ty: Some(ty), ..AbsVal::unknown() }
                    }
                }
                None => AbsVal::unknown(),
            };
            val.unit = unit_of_name(p);
            cx.env.insert(p.clone(), val);
        }
        if let Some(st) = &self_ty {
            cx.env.insert("self".to_string(), AbsVal { ty: Some(st.clone()), ..AbsVal::unknown() });
        }

        let trailing = self.analyze_block(&mut cx, open, close);
        let mut out = match cx.ret.take() {
            Some(r) => r.join(&trailing),
            None => trailing,
        };
        if let Some(ty) = ret_ty.as_deref().map(|t| self.resolve_ty(t)) {
            if is_int_type(&ty) {
                out.iv = out.iv.meet(type_range(&ty).unwrap_or(Interval::TOP));
                out.ty = Some(ty);
                out.weak = false;
            } else if is_float_type(&ty) {
                out.float = true;
                out.ty = Some(ty);
            }
        }
        out
    }

    fn fresh_cx(&self, file: usize, quiet: bool, self_ty: Option<String>) -> Cx<'a> {
        Cx {
            file,
            toks: &self.files[file].lexed.tokens,
            env: Env::new(),
            loops: Vec::new(),
            quiet,
            lit_ty: None,
            self_ty,
            ret: None,
        }
    }
}

// ------------------------------------------------------- statements

impl<'a> Analyzer<'a> {
    /// Walks the statements of a block `{ … }` (`open`/`close` are
    /// the brace token indexes); returns the trailing expression's
    /// value, or ⊤ when the block ends with a statement.
    fn analyze_block(&mut self, cx: &mut Cx<'a>, open: usize, close: usize) -> AbsVal {
        let mut last = AbsVal::unknown();
        let mut trailing = false;
        let mut i = open + 1;
        while i < close {
            let t = cx.toks[i].text.as_str();
            match t {
                ";" => {
                    i += 1;
                    trailing = false;
                }
                "let" => {
                    i = self.stmt_let(cx, i, close);
                    trailing = false;
                }
                "if" => {
                    let (v, ni) = self.if_expr(cx, i, close);
                    last = v;
                    trailing = true;
                    i = ni;
                }
                "match" => {
                    let (v, ni) = self.match_expr(cx, i, close);
                    last = v;
                    trailing = true;
                    i = ni;
                }
                "while" => {
                    i = self.while_loop(cx, i, close);
                    trailing = false;
                }
                "for" => {
                    i = self.for_loop(cx, i, close);
                    trailing = false;
                }
                "loop" => {
                    i = self.loop_loop(cx, i, close);
                    trailing = false;
                }
                "return" => {
                    let end = find_depth0(cx.toks, i + 1, close, ";").unwrap_or(close);
                    if end > i + 1 {
                        let mut p = i + 1;
                        let v = self.eval(cx, &mut p, end, 0, false);
                        self.join_ret(cx, v);
                    }
                    i = end;
                    trailing = false;
                }
                "break" | "continue" => {
                    i = find_depth0(cx.toks, i + 1, close, ";").map(|s| s + 1).unwrap_or(close);
                    trailing = false;
                }
                "unsafe" => i += 1,
                "{" => {
                    let c = match_close(cx.toks, i, "{", "}");
                    last = self.analyze_block(cx, i, c);
                    trailing = true;
                    i = c + 1;
                }
                "#" => {
                    // Attribute: skip `#[…]`.
                    if i + 1 < close && cx.toks[i + 1].text == "[" {
                        i = match_close(cx.toks, i + 1, "[", "]") + 1;
                    } else {
                        i += 1;
                    }
                }
                "fn" | "struct" | "enum" | "impl" | "mod" | "trait" => {
                    // Nested item: its fns are separate graph nodes.
                    let body = find_depth0(cx.toks, i, close, "{");
                    let semi = find_depth0(cx.toks, i, close, ";");
                    i = match (body, semi) {
                        (Some(b), Some(s)) if s < b => s + 1,
                        (Some(b), _) => match_close(cx.toks, b, "{", "}") + 1,
                        (None, Some(s)) => s + 1,
                        (None, None) => close,
                    };
                    trailing = false;
                }
                "const" | "static" | "use" | "type" => {
                    i = find_depth0(cx.toks, i, close, ";").map(|s| s + 1).unwrap_or(close);
                    trailing = false;
                }
                _ => {
                    if let Some(ni) = self.try_assign(cx, i, close) {
                        i = ni;
                        trailing = false;
                    } else if let Some(ni) = self.try_assert(cx, i, close) {
                        i = ni;
                        trailing = false;
                    } else {
                        let mut p = i;
                        last = self.eval(cx, &mut p, close, 0, false);
                        trailing = true;
                        i = p.max(i + 1);
                    }
                }
            }
        }
        if trailing {
            last
        } else {
            AbsVal::unknown()
        }
    }

    fn join_ret(&mut self, cx: &mut Cx<'a>, v: AbsVal) {
        cx.ret = Some(match cx.ret.take() {
            Some(r) => r.join(&v),
            None => v,
        });
    }

    /// `let [mut] pat [: Ty] = expr;` — binds a single identifier
    /// pattern precisely, destructuring patterns as ⊤.
    fn stmt_let(&mut self, cx: &mut Cx<'a>, i: usize, close: usize) -> usize {
        let stmt_end = find_depth0(cx.toks, i + 1, close, ";").unwrap_or(close);
        let Some(eq) = self.find_plain_eq(cx, i + 1, stmt_end) else {
            self.bind_pattern_unknown(cx, i + 1, stmt_end);
            return stmt_end + 1;
        };
        // Pattern and optional type annotation before `=`.
        let colon = find_depth0(cx.toks, i + 1, eq, ":");
        let pat_end = colon.unwrap_or(eq);
        let decl_ty: Option<String> = colon.map(|c| {
            let mut last = String::new();
            for t in &cx.toks[c + 1..eq] {
                if t.kind == TokenKind::Ident
                    && !matches!(t.text.as_str(), "mut" | "dyn" | "impl" | "const")
                {
                    last = t.text.clone();
                }
            }
            last
        });
        let mut p = eq + 1;
        let rhs = self.eval(cx, &mut p, stmt_end, 0, false);
        // `let … else { … }` diverges on the else path; the binding
        // below covers the fallthrough.
        let mut end = stmt_end;
        if p < stmt_end && cx.toks[p].text == "else" && p + 1 < close && cx.toks[p + 1].text == "{"
        {
            let c = match_close(cx.toks, p + 1, "{", "}");
            self.analyze_block(cx, p + 1, c);
            end = find_depth0(cx.toks, c + 1, close, ";").unwrap_or(close);
        }

        let pat: Vec<&Token> = cx.toks[i + 1..pat_end]
            .iter()
            .filter(|t| !matches!(t.text.as_str(), "mut" | "ref"))
            .collect();
        if pat.len() == 1 && pat[0].kind == TokenKind::Ident {
            let name = pat[0].text.clone();
            let mut val = rhs;
            if let Some(ty) = decl_ty.as_deref().filter(|t| !t.is_empty()) {
                let ty = self.resolve_ty(ty);
                if is_int_type(&ty) {
                    let range = type_range(&ty).unwrap_or(Interval::TOP);
                    val.iv = val.iv.meet(range);
                    val.ty = Some(ty);
                    val.weak = false;
                    val.float = false;
                } else if is_float_type(&ty) {
                    val.float = true;
                    val.ty = Some(ty);
                } else {
                    val.ty = Some(ty);
                }
            }
            let name_unit = unit_of_name(&name);
            if let (Some(nu), Some(vu)) = (name_unit.as_deref(), val.unit.as_deref()) {
                if nu != vu {
                    let line = cx.toks[i].line;
                    self.report(
                        cx,
                        "A3",
                        line,
                        format!(
                            "binding named in {nu} initialised from a {vu} value; \
                             relabeling units needs `// lint: allow(a3): why`"
                        ),
                    );
                }
            }
            if val.unit.is_none() {
                val.unit = name_unit;
            }
            cx.env.insert(name, val);
        } else {
            self.bind_pattern_unknown(cx, i + 1, pat_end);
        }
        end + 1
    }

    /// Binds every lowercase identifier in a pattern span to ⊤.
    fn bind_pattern_unknown(&mut self, cx: &mut Cx<'a>, lo: usize, hi: usize) {
        for t in &cx.toks[lo..hi.min(cx.toks.len())] {
            if t.kind == TokenKind::Ident
                && t.text.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
                && !matches!(t.text.as_str(), "mut" | "ref" | "box" | "self")
            {
                cx.env.insert(t.text.clone(), AbsVal::unknown().with_unit(unit_of_name(&t.text)));
            }
        }
    }

    /// Depth-0 `=` that is a plain assignment/binding operator (not
    /// `==`, `=>`, `<=`, `>=`, `!=`, or a compound tail). Operator
    /// fusion is decided by column adjacency: `Vec<i8> =` puts a `>`
    /// token before the `=`, but with a column gap it closes a generic
    /// argument list rather than forming `>=`.
    fn find_plain_eq(&self, cx: &Cx<'a>, lo: usize, hi: usize) -> Option<usize> {
        let adjacent = |a: usize, b: usize| {
            cx.toks[a].line == cx.toks[b].line && cx.toks[a].col + 1 == cx.toks[b].col
        };
        let mut depth = 0i32;
        for i in lo..hi {
            let t = cx.toks[i].text.as_str();
            if is_open(t) {
                depth += 1;
            } else if is_close(t) {
                depth -= 1;
            } else if depth == 0 && t == "=" {
                let prev = if i > lo { cx.toks[i - 1].text.as_str() } else { "" };
                let next = if i + 1 < hi { cx.toks[i + 1].text.as_str() } else { "" };
                if (next == "=" || next == ">") && adjacent(i, i + 1) {
                    continue;
                }
                if matches!(
                    prev,
                    "=" | "<" | ">" | "!" | "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^"
                ) && adjacent(i - 1, i)
                {
                    continue;
                }
                return Some(i);
            }
        }
        None
    }

    /// `assert!`/`debug_assert!` statements refine the environment;
    /// `assert_eq!` family refines both sides toward each other.
    /// Returns the index after the statement when matched.
    fn try_assert(&mut self, cx: &mut Cx<'a>, i: usize, close: usize) -> Option<usize> {
        let name = cx.toks.get(i).filter(|t| t.kind == TokenKind::Ident)?.text.as_str();
        let eq_form = matches!(name, "assert_eq" | "debug_assert_eq");
        if !matches!(name, "assert" | "debug_assert") && !eq_form {
            return None;
        }
        if cx.toks.get(i + 1).map(|t| t.text.as_str()) != Some("!")
            || cx.toks.get(i + 2).map(|t| t.text.as_str()) != Some("(")
        {
            return None;
        }
        let c = match_close(cx.toks, i + 2, "(", ")");
        let args = split_depth0(cx.toks, i + 3, c, ",");
        if eq_form {
            if args.len() >= 2 {
                self.refine_equal(cx, args[0], args[1]);
            }
        } else if let Some(&(lo, hi)) = args.first() {
            // Evaluate loud (arithmetic inside the condition is code
            // too), then refine.
            let mut p = lo;
            self.eval(cx, &mut p, hi, 0, true);
            self.refine_cond(cx, lo, hi);
        }
        let end = find_depth0(cx.toks, c + 1, close, ";").map(|s| s + 1).unwrap_or(c + 1);
        Some(end)
    }

    /// Detects `place op= expr;` / `place = expr;` statements.
    /// Returns the index after the statement when matched.
    fn try_assign(&mut self, cx: &mut Cx<'a>, i: usize, close: usize) -> Option<usize> {
        let mut j = i;
        let mut derefs = 0usize;
        while j < close && cx.toks[j].text == "*" {
            derefs += 1;
            j += 1;
        }
        let place_start = j;
        if j >= close || cx.toks[j].kind != TokenKind::Ident {
            return None;
        }
        j += 1;
        loop {
            if j + 1 < close
                && cx.toks[j].text == "."
                && matches!(cx.toks[j + 1].kind, TokenKind::Ident | TokenKind::Int)
            {
                if j + 2 < close && cx.toks[j + 2].text == "(" {
                    return None; // method call target: expression, not place
                }
                j += 2;
            } else if j < close && cx.toks[j].text == "[" {
                j = match_close(cx.toks, j, "[", "]") + 1;
            } else {
                break;
            }
        }
        if j >= close {
            return None;
        }
        let (op, op_len) = {
            let t = cx.toks[j].text.as_str();
            let t1 = cx.toks.get(j + 1).map(|x| x.text.as_str()).unwrap_or("");
            let t2 = cx.toks.get(j + 2).map(|x| x.text.as_str()).unwrap_or("");
            match (t, t1, t2) {
                ("=", "=", _) => return None,
                ("=", ">", _) => return None,
                ("=", _, _) => ("=", 1),
                ("<", "<", "=") => ("<<", 3),
                (">", ">", "=") => (">>", 3),
                ("+", "=", _) => ("+", 2),
                ("-", "=", _) => ("-", 2),
                ("*", "=", _) => ("*", 2),
                ("/", "=", _) => ("/", 2),
                ("%", "=", _) => ("%", 2),
                ("&", "=", _) => ("&", 2),
                ("|", "=", _) => ("|", 2),
                ("^", "=", _) => ("^", 2),
                _ => return None,
            }
        };
        let place = span_text(cx.toks, place_start, j);
        let line = cx.toks[j].line;
        let stmt_end = find_depth0(cx.toks, j + op_len, close, ";").unwrap_or(close);
        let mut p = j + op_len;
        let rhs = self.eval(cx, &mut p, stmt_end, 0, false);
        let _ = derefs;
        self.do_assign(cx, &place, op, line, rhs);
        Some(stmt_end + 1)
    }

    fn do_assign(&mut self, cx: &mut Cx<'a>, place: &str, op: &str, line: u32, rhs: AbsVal) {
        let old = cx.env.get(place).cloned();
        let new = if op == "=" {
            let mut v = rhs;
            if let Some(o) = &old {
                if v.weak {
                    if let Some(ty) = o.ty.clone() {
                        if is_int_type(&ty) {
                            v.iv = v.iv.meet(type_range(&ty).unwrap_or(Interval::TOP));
                        }
                        v.ty = Some(ty);
                        v.weak = false;
                    }
                }
                if v.unit.is_none() {
                    v.unit = o.unit.clone();
                }
            }
            v
        } else if matches!(op, "+" | "-") {
            if let Some((base, scale)) = self.acc_context(cx, place) {
                // Bounded-trip accumulation: final = pre + trips · contrib.
                let contrib = if op == "+" { rhs.iv } else { rhs.iv.neg() };
                let raw = base.iv.add(hull0(contrib).mul(scale));
                let mut v = base.clone();
                self.check_units(cx, "accumulation", line, &base, &rhs);
                v.iv = self.checked_int_result(cx, op, line, raw, &base, &rhs, true);
                v
            } else {
                let l = old.clone().unwrap_or_else(AbsVal::unknown);
                self.apply_bin(cx, op, line, l, rhs)
            }
        } else {
            let l = old.clone().unwrap_or_else(AbsVal::unknown);
            self.apply_bin(cx, op, line, l, rhs)
        };
        cx.env.insert(place.to_string(), new);
    }

    /// When `place` is a registered accumulator of the enclosing loop
    /// nest, the pre-loop value of the outermost registering level and
    /// the product of the trip-count hulls from there inward.
    fn acc_context(&self, cx: &Cx<'a>, place: &str) -> Option<(AbsVal, Interval)> {
        let mut scale: Option<Interval> = None;
        let mut base: Option<AbsVal> = None;
        for lvl in cx.loops.iter().rev() {
            let Some(pre) = lvl.accs.get(place) else { break };
            let hi = lvl.trip.bounds().map(|(_, h)| h.max(0)).unwrap_or(i128::MAX);
            let t = Interval::new(0, hi);
            scale = Some(match scale {
                None => t,
                Some(s) => s.mul(t),
            });
            base = Some(pre.clone());
        }
        base.map(|b| (b, scale.unwrap_or(Interval::singleton(0))))
    }
}

// ----------------------------------------------- control flow, loops

impl<'a> Analyzer<'a> {
    /// `if cond { … } [else if … | else { … }]` as an expression:
    /// condition atoms refine the then-branch; branch environments
    /// join afterwards.
    fn if_expr(&mut self, cx: &mut Cx<'a>, i: usize, close: usize) -> (AbsVal, usize) {
        let is_let = cx.toks.get(i + 1).is_some_and(|t| t.text == "let");
        let Some(open) = find_depth0(cx.toks, i + 1, close, "{") else {
            return (AbsVal::unknown(), close);
        };
        let cond_lo = i + 1;
        if is_let {
            // `if let PAT = expr`: evaluate the scrutinee, bind the
            // pattern idents in the then-branch.
            if let Some(eq) = self.find_plain_eq(cx, cond_lo, open) {
                let mut p = eq + 1;
                self.eval(cx, &mut p, open, 0, true);
            }
        } else {
            let mut p = cond_lo;
            self.eval(cx, &mut p, open, 0, true);
        }
        let c1 = match_close(cx.toks, open, "{", "}");
        let base = cx.env.clone();
        if is_let {
            if let Some(eq) = self.find_plain_eq(cx, cond_lo, open) {
                self.bind_pattern_unknown(cx, cond_lo + 1, eq);
            }
        } else {
            self.refine_cond(cx, cond_lo, open);
        }
        let v1 = self.analyze_block(cx, open, c1);
        let env1 = std::mem::replace(&mut cx.env, base.clone());

        if cx.toks.get(c1 + 1).is_some_and(|t| t.text == "else") {
            let e = c1 + 2;
            let (v2, ni) = if cx.toks.get(e).is_some_and(|t| t.text == "if") {
                self.if_expr(cx, e, close)
            } else if cx.toks.get(e).is_some_and(|t| t.text == "{") {
                let c2 = match_close(cx.toks, e, "{", "}");
                (self.analyze_block(cx, e, c2), c2 + 1)
            } else {
                (AbsVal::unknown(), e)
            };
            let env2 = std::mem::take(&mut cx.env);
            cx.env = join_envs(&env1, &env2);
            (v1.join(&v2), ni)
        } else {
            cx.env = join_envs(&env1, &base);
            (AbsVal::unknown(), c1 + 1)
        }
    }

    /// `match scrut { pat => expr, … }`: arms evaluate from the same
    /// base environment; values and environments join.
    fn match_expr(&mut self, cx: &mut Cx<'a>, i: usize, close: usize) -> (AbsVal, usize) {
        let Some(open) = find_depth0(cx.toks, i + 1, close, "{") else {
            return (AbsVal::unknown(), close);
        };
        let mut p = i + 1;
        self.eval(cx, &mut p, open, 0, true);
        let c = match_close(cx.toks, open, "{", "}");
        let base = cx.env.clone();
        let mut value: Option<AbsVal> = None;
        let mut joined: Option<Env> = None;
        let mut j = open + 1;
        while j < c {
            let Some(arrow) = find_fat_arrow(cx.toks, j, c) else { break };
            cx.env = base.clone();
            self.bind_pattern_unknown(cx, j, arrow);
            let (v, next) = if cx.toks.get(arrow + 2).is_some_and(|t| t.text == "{") {
                let bc = match_close(cx.toks, arrow + 2, "{", "}");
                let v = self.analyze_block(cx, arrow + 2, bc);
                let mut n = bc + 1;
                if cx.toks.get(n).is_some_and(|t| t.text == ",") {
                    n += 1;
                }
                (v, n)
            } else {
                let end = find_depth0(cx.toks, arrow + 2, c, ",").unwrap_or(c);
                let mut p = arrow + 2;
                let v = self.eval(cx, &mut p, end, 0, false);
                (v, end + 1)
            };
            value = Some(match value {
                Some(acc) => acc.join(&v),
                None => v,
            });
            let env = std::mem::take(&mut cx.env);
            joined = Some(match joined {
                Some(acc) => join_envs(&acc, &env),
                None => env,
            });
            j = next;
        }
        cx.env = joined.unwrap_or(base);
        (value.unwrap_or_else(AbsVal::unknown), c + 1)
    }

    fn for_loop(&mut self, cx: &mut Cx<'a>, i: usize, close: usize) -> usize {
        let Some(kw_in) = find_depth0_ident(cx.toks, i + 1, close, "in") else { return close };
        let Some(open) = find_depth0(cx.toks, kw_in + 1, close, "{") else { return close };
        let c = match_close(cx.toks, open, "{", "}");

        // Loop variable value and trip count from the iterable.
        let (var_val, trip) = self.for_iterable(cx, kw_in + 1, open);
        let pre = cx.env.clone();
        let accs = self.havoc_mutations(cx, open, c, &pre);
        cx.loops.push(LoopCtx { trip, accs });
        // Bind the pattern: a single identifier gets the element
        // value; destructuring binds ⊤.
        let pat: Vec<usize> = (i + 1..kw_in)
            .filter(|&k| {
                cx.toks[k].kind == TokenKind::Ident && !matches!(cx.toks[k].text.as_str(), "mut")
            })
            .collect();
        if pat.len() == 1 {
            cx.env.insert(cx.toks[pat[0]].text.clone(), var_val);
        } else {
            self.bind_pattern_unknown(cx, i + 1, kw_in);
            // `for (i, …) in xs.iter().….enumerate()`: the tuple's
            // first identifier is the index, bounded by the trip
            // count.
            let enumerated = open >= kw_in + 5
                && cx.toks[open - 1].text == ")"
                && cx.toks[open - 2].text == "("
                && cx.toks[open - 3].text == "enumerate"
                && cx.toks[open - 4].text == ".";
            if enumerated && !pat.is_empty() {
                let hi = trip.bounds().map_or(i128::MAX, |(_, h)| h.saturating_sub(1).max(0));
                let mut idx = AbsVal::typed_range("usize");
                idx.iv = idx.iv.meet(Interval::new(0, hi));
                cx.env.insert(cx.toks[pat[0]].text.clone(), idx);
            }
        }
        self.analyze_block(cx, open, c);
        cx.loops.pop();
        cx.env = join_envs(&pre, &cx.env);
        c + 1
    }

    /// Evaluates a `for` iterable: `(element value, trip interval)`.
    fn for_iterable(&mut self, cx: &mut Cx<'a>, lo: usize, hi: usize) -> (AbsVal, Interval) {
        if let Some(dots) = find_range_dots(cx.toks, lo, hi) {
            let incl = cx.toks.get(dots + 2).is_some_and(|t| t.text == "=");
            let rhs_lo = dots + if incl { 3 } else { 2 };
            let mut p = lo;
            let a = self.eval(cx, &mut p, dots, 0, true);
            let mut p = rhs_lo;
            let b = self.eval(cx, &mut p, hi, 0, true);
            let (alo, _) = a.iv.bounds().unwrap_or((i128::MIN, i128::MAX));
            let (_, bhi) = b.iv.bounds().unwrap_or((i128::MIN, i128::MAX));
            let last = if incl { bhi } else { bhi.saturating_sub(1) };
            let mut v = a.join(&b);
            v.iv = Interval::new(alo, last);
            if v.iv.is_bottom() {
                v.iv = Interval::singleton(alo);
            }
            let span = last.saturating_sub(alo).saturating_add(1).max(0);
            (v, Interval::new(0, span))
        } else {
            let mut p = lo;
            let it = self.eval(cx, &mut p, hi, 0, true);
            let place = if is_place_span(cx.toks, lo, hi) {
                Some(span_text(cx.toks, lo, hi))
            } else {
                // `xs.iter()` / `&xs`: recover the base place.
                let base_hi = strip_iter_suffix(cx.toks, lo, hi);
                let base_lo = if cx.toks[lo].text == "&" { lo + 1 } else { lo };
                is_place_span(cx.toks, base_lo, base_hi)
                    .then(|| span_text(cx.toks, base_lo, base_hi))
            };
            let trip = place
                .and_then(|pl| cx.env.get(&format!("{pl}.len()")).map(|v| v.iv))
                .map(|iv| iv.meet(Interval::new(0, i128::MAX)))
                .unwrap_or_else(|| Interval::new(0, u64::MAX as i128));
            // A primitive element type gives the loop variable its
            // full numeric range; a struct element type is kept as a
            // typed-but-unbounded value so field projections on the
            // loop variable still resolve through the struct's
            // declared field types. Declared container types collapse
            // to their element type (`Vec<i8>` records as `i8`), so
            // the container's own `ty` stands in when `elem` is
            // absent.
            let elem = match it.elem.as_deref().or(it.ty.as_deref()) {
                Some(e) if is_int_type(e) || is_float_type(e) => AbsVal::typed_range(e),
                Some(e) => AbsVal { ty: Some(e.to_string()), ..AbsVal::unknown() },
                None => AbsVal::unknown(),
            };
            (elem, trip)
        }
    }

    fn while_loop(&mut self, cx: &mut Cx<'a>, i: usize, close: usize) -> usize {
        let is_let = cx.toks.get(i + 1).is_some_and(|t| t.text == "let");
        let Some(open) = find_depth0(cx.toks, i + 1, close, "{") else { return close };
        let c = match_close(cx.toks, open, "{", "}");
        let pre = cx.env.clone();
        let accs = self.havoc_mutations(cx, open, c, &pre);
        // Evaluate the condition against the havocked state (it runs
        // every iteration), then refine the body with it.
        if is_let {
            if let Some(eq) = self.find_plain_eq(cx, i + 2, open) {
                let mut p = eq + 1;
                self.eval(cx, &mut p, open, 0, true);
                self.bind_pattern_unknown(cx, i + 2, eq);
            }
        } else {
            let mut p = i + 1;
            self.eval(cx, &mut p, open, 0, true);
            self.refine_cond(cx, i + 1, open);
        }
        cx.loops.push(LoopCtx { trip: Interval::TOP, accs });
        self.analyze_block(cx, open, c);
        cx.loops.pop();
        cx.env = join_envs(&pre, &cx.env);
        c + 1
    }

    fn loop_loop(&mut self, cx: &mut Cx<'a>, i: usize, close: usize) -> usize {
        let Some(open) = find_depth0(cx.toks, i + 1, close, "{") else { return close };
        let c = match_close(cx.toks, open, "{", "}");
        let pre = cx.env.clone();
        let accs = self.havoc_mutations(cx, open, c, &pre);
        cx.loops.push(LoopCtx { trip: Interval::TOP, accs });
        self.analyze_block(cx, open, c);
        cx.loops.pop();
        cx.env = join_envs(&pre, &cx.env);
        c + 1
    }

    /// Scans a loop body for mutated places, havocks them (any value
    /// the loop could have left), and returns the accumulators —
    /// places with exactly one compound-assignment site and a known
    /// pre-loop value, whose bound the trip count can prove.
    fn havoc_mutations(
        &mut self,
        cx: &mut Cx<'a>,
        open: usize,
        close: usize,
        pre: &Env,
    ) -> BTreeMap<String, AbsVal> {
        let muts = scan_mutations(cx.toks, open, close);
        let mut accs = BTreeMap::new();
        for (place, (plain, sites)) in muts {
            let known = pre.get(&place).cloned();
            if !plain && sites == 1 {
                if let Some(v) = known {
                    accs.insert(place.clone(), v);
                }
            }
            if let Some(v) = cx.env.get(&place) {
                let h = v.havocked();
                cx.env.insert(place, h);
            }
        }
        accs
    }
}

/// Pointwise join of two environments over the *intersection* of
/// their keys. A key missing on one side means that side knows
/// nothing about the place (its value is the type range, recomputed
/// on demand), so keeping the other side's binding would leak a
/// one-branch refinement — e.g. `if self.0 == 0 { return; }` must not
/// pin `self.0` to `[0, 0]` on the fall-through path.
fn join_envs(a: &Env, b: &Env) -> Env {
    let mut out = Env::new();
    for (k, v) in a {
        if let Some(other) = b.get(k) {
            out.insert(k.clone(), v.join(other));
        }
    }
    out
}

/// Depth-0 `=>` position in `[lo, hi)`.
fn find_fat_arrow(toks: &[Token], lo: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = lo;
    while i + 1 < hi {
        let t = toks[i].text.as_str();
        if is_open(t) {
            depth += 1;
        } else if is_close(t) {
            depth -= 1;
        } else if depth == 0 && t == "=" && toks[i + 1].text == ">" {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Depth-0 identifier-token position (for the `in` of a `for`).
fn find_depth0_ident(toks: &[Token], lo: usize, hi: usize, what: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (i, tok) in toks.iter().enumerate().take(hi.min(toks.len())).skip(lo) {
        let t = tok.text.as_str();
        if is_open(t) {
            depth += 1;
        } else if is_close(t) {
            depth -= 1;
        } else if depth == 0 && t == what && tok.kind == TokenKind::Ident {
            return Some(i);
        }
    }
    None
}

/// Depth-0 `..` position (two adjacent `.` tokens) in `[lo, hi)`.
fn find_range_dots(toks: &[Token], lo: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = lo;
    while i + 1 < hi {
        let t = toks[i].text.as_str();
        if is_open(t) {
            depth += 1;
        } else if is_close(t) {
            depth -= 1;
        } else if depth == 0 && t == "." && toks[i + 1].text == "." {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Trims a trailing `.iter()` / `.iter().copied()` / … chain off an
/// iterable span, returning the end of the base place.
fn strip_iter_suffix(toks: &[Token], lo: usize, hi: usize) -> usize {
    let mut end = hi;
    loop {
        if end >= lo + 4
            && toks[end - 1].text == ")"
            && toks[end - 2].text == "("
            && toks[end - 3].kind == TokenKind::Ident
            && toks[end - 4].text == "."
            && matches!(
                toks[end - 3].text.as_str(),
                "iter" | "iter_mut" | "into_iter" | "copied" | "cloned" | "rev" | "enumerate"
            )
        {
            end -= 4;
        } else {
            return end;
        }
    }
}

/// Finds every assigned place in `[open, close)` at any depth:
/// `place → (has plain assignment, total sites)`.
fn scan_mutations(toks: &[Token], open: usize, close: usize) -> BTreeMap<String, (bool, u32)> {
    let mut out: BTreeMap<String, (bool, u32)> = BTreeMap::new();
    let mut i = open + 1;
    while i < close {
        if toks[i].text != "=" {
            i += 1;
            continue;
        }
        let prev = if i > open { toks[i - 1].text.as_str() } else { "" };
        let next = if i + 1 < close { toks[i + 1].text.as_str() } else { "" };
        if next == "=" || next == ">" || prev == "=" || prev == "!" {
            i += 1;
            continue;
        }
        let (plain, place_end) = match prev {
            "<" | ">" => {
                if i >= 2 && toks[i - 2].text == prev {
                    (false, i - 2) // `<<=` / `>>=`
                } else {
                    i += 1; // `<=` / `>=`
                    continue;
                }
            }
            "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^" => (false, i - 1),
            _ => (true, i),
        };
        if let Some((start, place)) = walk_back_place(toks, place_end, open) {
            let before = if start > open { toks[start - 1].text.as_str() } else { "" };
            if before != "let" && before != "mut" {
                let entry = out.entry(place).or_insert((false, 0));
                entry.0 |= plain;
                entry.1 += 1;
            }
        }
        i += 1;
    }
    out
}

/// Walks backward from `end` (exclusive) over a place expression;
/// returns its start index and canonical string. Leading derefs are
/// stripped (`*x = v` mutates `x`'s referent — havocking `x` is the
/// sound response).
fn walk_back_place(toks: &[Token], end: usize, lo: usize) -> Option<(usize, String)> {
    let mut j = end;
    loop {
        if j == lo {
            return None;
        }
        let t = &toks[j - 1];
        match t.text.as_str() {
            "]" => {
                let o = match_open(toks, j - 1, "[", "]")?;
                if o == lo {
                    return None;
                }
                j = o;
            }
            _ if matches!(t.kind, TokenKind::Ident | TokenKind::Int) => {
                j -= 1;
                if j > lo && toks[j - 1].text == "." {
                    j -= 1;
                } else {
                    break;
                }
            }
            _ => return None,
        }
    }
    let mut start = j;
    while start > lo && toks[start - 1].text == "*" {
        start -= 1;
    }
    let text_start = (start..end).find(|&k| toks[k].text != "*").unwrap_or(start);
    Some((start, span_text(toks, text_start, end)))
}

// ------------------------------------------------------ refinements

impl<'a> Analyzer<'a> {
    /// Applies a boolean condition's refinements to the environment:
    /// splits on top-level `&&` and narrows each comparison atom
    /// (`||` conjuncts refine nothing — either side could hold).
    fn refine_cond(&mut self, cx: &mut Cx<'a>, lo: usize, hi: usize) {
        for (alo, ahi) in split_on_andand(cx.toks, lo, hi) {
            self.refine_atom(cx, alo, ahi);
        }
    }

    fn refine_atom(&mut self, cx: &mut Cx<'a>, lo: usize, hi: usize) {
        let mut lo = lo;
        let mut hi = hi;
        // Unwrap a fully parenthesised atom.
        while hi > lo + 1 && cx.toks[lo].text == "(" && match_close(cx.toks, lo, "(", ")") == hi - 1
        {
            lo += 1;
            hi -= 1;
        }
        if hi <= lo {
            return;
        }
        if contains_orbar(cx.toks, lo, hi) {
            return;
        }
        // `(a..=b).contains(&x)`.
        if self.refine_contains(cx, lo, hi) {
            return;
        }
        let Some((pos, op, op_len)) = find_cmp(cx.toks, lo, hi) else { return };
        let (llo, lhi) = (lo, pos);
        let (rlo, rhi) = (pos + op_len, hi);
        // `place op k`.
        if let Some(place) = self.refinable_place(cx, llo, lhi) {
            self.seed_place(cx, &place, llo, lhi);
            let mut p = rlo;
            let k = self.eval(cx, &mut p, rhi, 0, true);
            self.narrow(cx, &place, op, k);
            return;
        }
        // `k op place` — mirror the operator.
        if let Some(place) = self.refinable_place(cx, rlo, rhi) {
            self.seed_place(cx, &place, rlo, rhi);
            let mut p = llo;
            let k = self.eval(cx, &mut p, lhi, 0, true);
            let mirrored = match op {
                "<" => ">",
                "<=" => ">=",
                ">" => "<",
                ">=" => "<=",
                other => other,
            };
            self.narrow(cx, &place, mirrored, k);
        }
    }

    /// Ensures `place` has an env entry before a refinement meets it,
    /// seeding it from the place's own evaluated value (its
    /// type-derived range) over its token span `[lo, hi)`. Seeding ⊤
    /// instead would let one branch's refinement meet against an
    /// unbounded interval and leak bounds like `[-inf, 0]` past the
    /// branch join.
    fn seed_place(&mut self, cx: &mut Cx<'a>, place: &str, lo: usize, hi: usize) {
        if cx.env.contains_key(place) {
            return;
        }
        let mut p = lo;
        let v = self.eval(cx, &mut p, hi, 0, true);
        cx.env.entry(place.to_string()).or_insert(v);
    }

    /// A place span. `.len()` is a tracked pseudo-place; any other
    /// trailing call (`x.abs()` included — `i32::MIN.abs()` wraps in
    /// release builds, so `x.abs() <= k` bounds nothing) is not.
    fn refinable_place(&self, cx: &Cx<'a>, lo: usize, hi: usize) -> Option<String> {
        if !is_place_span(cx.toks, lo, hi) {
            return None;
        }
        let s = span_text(cx.toks, lo, hi);
        (!s.contains('(') || s.ends_with(".len()")).then_some(s)
    }

    /// Narrows `place` by `place op k`.
    fn narrow(&mut self, cx: &mut Cx<'a>, place: &str, op: &str, k: AbsVal) {
        let Some((klo, khi)) = k.iv.bounds() else { return };
        let derived = match op {
            "<" => Interval::new(i128::MIN, khi.saturating_sub(1)),
            "<=" => Interval::new(i128::MIN, khi),
            ">" => Interval::new(klo.saturating_add(1), i128::MAX),
            ">=" => Interval::new(klo, i128::MAX),
            "==" => k.iv,
            _ => return,
        };
        let entry = cx.env.entry(place.to_string()).or_insert_with(AbsVal::unknown);
        let met = entry.iv.meet(derived);
        // A refinement that empties the interval marks dead code;
        // keep the narrower side rather than ⊥ to stay fail-open.
        entry.iv = if met.is_bottom() { derived } else { met };
    }

    /// `(a..=b).contains(&x)` → `x ∈ [a, b]`.
    fn refine_contains(&mut self, cx: &mut Cx<'a>, lo: usize, hi: usize) -> bool {
        if cx.toks[lo].text != "(" {
            return false;
        }
        let c = match_close(cx.toks, lo, "(", ")");
        if c + 3 >= hi
            || cx.toks[c + 1].text != "."
            || cx.toks[c + 2].text != "contains"
            || cx.toks[c + 3].text != "("
        {
            return false;
        }
        let argc = match_close(cx.toks, c + 3, "(", ")");
        let mut arg_lo = c + 4;
        while arg_lo < argc && cx.toks[arg_lo].text == "&" {
            arg_lo += 1;
        }
        if !is_place_span(cx.toks, arg_lo, argc) {
            return false;
        }
        let place = span_text(cx.toks, arg_lo, argc);
        let Some(dots) = find_range_dots(cx.toks, lo + 1, c) else { return false };
        let incl = cx.toks.get(dots + 2).is_some_and(|t| t.text == "=");
        let mut p = lo + 1;
        let a = self.eval(cx, &mut p, dots, 0, true);
        let mut p = dots + if incl { 3 } else { 2 };
        let b = self.eval(cx, &mut p, c, 0, true);
        let (Some((alo, _)), Some((_, bhi))) = (a.iv.bounds(), b.iv.bounds()) else {
            return true;
        };
        let last = if incl { bhi } else { bhi.saturating_sub(1) };
        let derived = Interval::new(alo, last);
        self.seed_place(cx, &place, arg_lo, argc);
        let entry = cx.env.entry(place).or_insert_with(AbsVal::unknown);
        let met = entry.iv.meet(derived);
        entry.iv = if met.is_bottom() { derived } else { met };
        true
    }

    /// `assert_eq!(a, b)`: when one side is a place, meet it with the
    /// other side's value (both directions).
    fn refine_equal(&mut self, cx: &mut Cx<'a>, a: (usize, usize), b: (usize, usize)) {
        let mut p = a.0;
        let va = self.eval(cx, &mut p, a.1, 0, true);
        let mut p = b.0;
        let vb = self.eval(cx, &mut p, b.1, 0, true);
        if let Some(place) = self.refinable_place(cx, a.0, a.1) {
            let entry = cx.env.entry(place).or_insert_with(|| va.clone());
            let met = entry.iv.meet(vb.iv);
            entry.iv = if met.is_bottom() { entry.iv } else { met };
        }
        if let Some(place) = self.refinable_place(cx, b.0, b.1) {
            let entry = cx.env.entry(place).or_insert_with(|| vb.clone());
            let met = entry.iv.meet(va.iv);
            entry.iv = if met.is_bottom() { entry.iv } else { met };
        }
    }
}

/// Splits `[lo, hi)` on depth-0 `&&` (two adjacent `&` tokens).
fn split_on_andand(toks: &[Token], lo: usize, hi: usize) -> Vec<(usize, usize)> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut start = lo;
    let mut i = lo;
    while i < hi {
        let t = toks[i].text.as_str();
        if is_open(t) {
            depth += 1;
        } else if is_close(t) {
            depth -= 1;
        } else if depth == 0 && t == "&" && i + 1 < hi && toks[i + 1].text == "&" {
            // Unary `&&x` (double reference) only occurs after an
            // operator or at the start; after an operand it is the
            // logical and.
            let prev_operand = i > lo
                && (matches!(
                    toks[i - 1].kind,
                    TokenKind::Ident | TokenKind::Int | TokenKind::Float
                ) || is_close(toks[i - 1].text.as_str()));
            if prev_operand {
                parts.push((start, i));
                start = i + 2;
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    parts.push((start, hi));
    parts
}

/// Whether `[lo, hi)` contains a depth-0 logical `||`.
fn contains_orbar(toks: &[Token], lo: usize, hi: usize) -> bool {
    let mut depth = 0i32;
    let mut i = lo;
    while i + 1 < hi {
        let t = toks[i].text.as_str();
        if is_open(t) {
            depth += 1;
        } else if is_close(t) {
            depth -= 1;
        } else if depth == 0 && t == "|" && toks[i + 1].text == "|" {
            return true;
        }
        i += 1;
    }
    false
}

/// The top-level comparison operator of `[lo, hi)`:
/// `(position, op, token length)`.
fn find_cmp(toks: &[Token], lo: usize, hi: usize) -> Option<(usize, &'static str, usize)> {
    let mut depth = 0i32;
    let mut i = lo;
    while i < hi {
        let t = toks[i].text.as_str();
        if is_open(t) {
            depth += 1;
        } else if is_close(t) {
            depth -= 1;
        } else if depth == 0 {
            let next = if i + 1 < hi { toks[i + 1].text.as_str() } else { "" };
            match (t, next) {
                ("<", "=") => return Some((i, "<=", 2)),
                (">", "=") => return Some((i, ">=", 2)),
                ("=", "=") => return Some((i, "==", 2)),
                ("!", "=") => return Some((i, "!=", 2)),
                ("<", "<") | (">", ">") => i += 1, // shift, not cmp
                ("<", _) => return Some((i, "<", 1)),
                (">", _) => return Some((i, ">", 1)),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

// ------------------------------------------------------- expressions

/// Binary operator at `p`: `(op, precedence, token length)`.
fn peek_binop(toks: &[Token], p: usize, end: usize) -> Option<(&'static str, u8, usize)> {
    if p >= end {
        return None;
    }
    let t = toks[p].text.as_str();
    let t1 = if p + 1 < end { toks[p + 1].text.as_str() } else { "" };
    Some(match (t, t1) {
        ("<", "<") => ("<<", 8, 2),
        (">", ">") => (">>", 8, 2),
        ("<", "=") => ("<=", 4, 2),
        (">", "=") => (">=", 4, 2),
        ("=", "=") => ("==", 4, 2),
        ("!", "=") => ("!=", 4, 2),
        ("&", "&") => ("&&", 3, 2),
        ("|", "|") => ("||", 2, 2),
        ("*", _) => ("*", 10, 1),
        ("/", _) => ("/", 10, 1),
        ("%", _) => ("%", 10, 1),
        ("+", _) => ("+", 9, 1),
        ("-", _) => ("-", 9, 1),
        ("&", _) => ("&", 7, 1),
        ("^", _) => ("^", 6, 1),
        ("|", _) => ("|", 5, 1),
        ("<", _) => ("<", 4, 1),
        (">", _) => (">", 4, 1),
        _ => return None,
    })
}

impl<'a> Analyzer<'a> {
    /// Precedence-climbing expression evaluation over `[p, end)`;
    /// advances `p` past the parsed expression. `no_struct` disables
    /// `Name { … }` struct literals (condition position).
    fn eval(
        &mut self,
        cx: &mut Cx<'a>,
        p: &mut usize,
        end: usize,
        min: u8,
        no_struct: bool,
    ) -> AbsVal {
        let (mut lhs, _) = self.unary(cx, p, end, no_struct);
        while let Some((op, prec, len)) = peek_binop(cx.toks, *p, end) {
            if prec < min {
                break;
            }
            let line = cx.toks[*p].line;
            *p += len;
            let rhs = self.eval(cx, p, end, prec + 1, no_struct);
            lhs = self.apply_bin(cx, op, line, lhs, rhs);
        }
        lhs
    }

    fn unary(
        &mut self,
        cx: &mut Cx<'a>,
        p: &mut usize,
        end: usize,
        no_struct: bool,
    ) -> (AbsVal, Option<String>) {
        if *p >= end {
            return (AbsVal::unknown(), None);
        }
        match cx.toks[*p].text.as_str() {
            "-" => {
                *p += 1;
                let (v, _) = self.unary(cx, p, end, no_struct);
                let mut out = v;
                out.iv = out.iv.neg();
                (out, None)
            }
            "!" => {
                *p += 1;
                let (_, _) = self.unary(cx, p, end, no_struct);
                (AbsVal::unknown(), None)
            }
            "&" => {
                while *p < end && cx.toks[*p].text == "&" {
                    *p += 1;
                }
                if *p < end && cx.toks[*p].text == "mut" {
                    *p += 1;
                }
                self.unary(cx, p, end, no_struct)
            }
            "*" => {
                *p += 1;
                let (v, _) = self.unary(cx, p, end, no_struct);
                (v, None)
            }
            _ => {
                let (v, place) = self.primary(cx, p, end, no_struct);
                self.postfix(cx, p, end, v, place)
            }
        }
    }

    fn primary(
        &mut self,
        cx: &mut Cx<'a>,
        p: &mut usize,
        end: usize,
        no_struct: bool,
    ) -> (AbsVal, Option<String>) {
        if *p >= end {
            return (AbsVal::unknown(), None);
        }
        let tok = &cx.toks[*p];
        match tok.kind {
            TokenKind::Int => {
                let v = match parse_int_lit(&tok.text) {
                    Some((value, suffix)) => {
                        let weak = suffix.is_none();
                        let ty = suffix.map(|s| self.resolve_ty(&s));
                        if ty.as_deref().is_some_and(is_float_type) {
                            AbsVal {
                                iv: Interval::singleton(value),
                                ty,
                                weak: false,
                                float: true,
                                unit: None,
                                elem: None,
                            }
                        } else {
                            AbsVal::of_int(Interval::singleton(value), ty, weak)
                        }
                    }
                    None => AbsVal::unknown(),
                };
                *p += 1;
                (v, None)
            }
            TokenKind::Float => {
                let ty = ["f32", "f64"].into_iter().find(|s| tok.text.ends_with(s));
                let v = match parse_float_lit(&tok.text) {
                    Some((lo, hi)) => AbsVal {
                        iv: Interval::new(lo, hi),
                        ty: ty.map(str::to_string),
                        weak: false,
                        float: true,
                        unit: None,
                        elem: None,
                    },
                    None => AbsVal { float: true, ..AbsVal::unknown() },
                };
                *p += 1;
                (v, None)
            }
            TokenKind::Str | TokenKind::Char | TokenKind::Lifetime => {
                *p += 1;
                (AbsVal::unknown(), None)
            }
            TokenKind::Punct => match tok.text.as_str() {
                "(" => {
                    let c = match_close(cx.toks, *p, "(", ")");
                    let inner_lo = *p + 1;
                    let v = if c <= inner_lo {
                        AbsVal::unknown()
                    } else if find_depth0(cx.toks, inner_lo, c, ",").is_some() {
                        for (alo, ahi) in split_depth0(cx.toks, inner_lo, c, ",") {
                            let mut q = alo;
                            self.eval(cx, &mut q, ahi, 0, false);
                        }
                        AbsVal::unknown()
                    } else if let Some(dots) = find_range_dots(cx.toks, inner_lo, c) {
                        let mut q = inner_lo;
                        self.eval(cx, &mut q, dots, 0, false);
                        let incl = cx.toks.get(dots + 2).is_some_and(|t| t.text == "=");
                        let mut q = dots + if incl { 3 } else { 2 };
                        self.eval(cx, &mut q, c, 0, false);
                        AbsVal::unknown()
                    } else {
                        let mut q = inner_lo;
                        self.eval(cx, &mut q, c, 0, false)
                    };
                    *p = c + 1;
                    (v, None)
                }
                "|" => self.closure(cx, p, end),
                _ => {
                    *p += 1;
                    (AbsVal::unknown(), None)
                }
            },
            TokenKind::Ident => match tok.text.as_str() {
                "if" => {
                    let (v, ni) = self.if_expr(cx, *p, end);
                    *p = ni;
                    (v, None)
                }
                "match" => {
                    let (v, ni) = self.match_expr(cx, *p, end);
                    *p = ni;
                    (v, None)
                }
                "move" => {
                    *p += 1;
                    if *p < end && cx.toks[*p].text == "|" {
                        self.closure(cx, p, end)
                    } else {
                        (AbsVal::unknown(), None)
                    }
                }
                "return" => {
                    *p += 1;
                    if *p < end && cx.toks[*p].text != ";" {
                        let v = self.eval(cx, p, end, 0, no_struct);
                        self.join_ret(cx, v);
                    }
                    (AbsVal::unknown(), None)
                }
                "true" | "false" => {
                    *p += 1;
                    (AbsVal::unknown(), None)
                }
                "self" => {
                    *p += 1;
                    let v = cx
                        .env
                        .get("self")
                        .cloned()
                        .unwrap_or_else(|| AbsVal { ty: cx.self_ty.clone(), ..AbsVal::unknown() });
                    (v, Some("self".to_string()))
                }
                _ => self.path_or_call(cx, p, end, no_struct),
            },
        }
    }

    fn closure(&mut self, cx: &mut Cx<'a>, p: &mut usize, end: usize) -> (AbsVal, Option<String>) {
        // `|params| body` — at primary position `||` is the empty
        // parameter list.
        *p += 1;
        let params_end = if *p < end && cx.toks[*p].text == "|" {
            *p
        } else {
            let mut depth = 0i32;
            let mut i = *p;
            loop {
                if i >= end {
                    break i;
                }
                let t = cx.toks[i].text.as_str();
                if is_open(t) {
                    depth += 1;
                } else if is_close(t) {
                    depth -= 1;
                } else if depth == 0 && t == "|" {
                    break i;
                }
                i += 1;
            }
        };
        self.bind_pattern_unknown(cx, *p, params_end);
        *p = params_end + 1;
        if *p < end && cx.toks[*p].text == "{" {
            let c = match_close(cx.toks, *p, "{", "}");
            self.analyze_block(cx, *p, c);
            *p = c + 1;
        } else if *p < end {
            self.eval(cx, p, end, 0, false);
        }
        (AbsVal::unknown(), None)
    }

    /// Identifier-led primary: paths, calls, macros, struct literals,
    /// environment and constant lookups.
    fn path_or_call(
        &mut self,
        cx: &mut Cx<'a>,
        p: &mut usize,
        end: usize,
        no_struct: bool,
    ) -> (AbsVal, Option<String>) {
        let start = *p;
        let mut segs: Vec<String> = vec![cx.toks[*p].text.clone()];
        *p += 1;
        while *p + 2 < end
            && cx.toks[*p].text == ":"
            && cx.toks[*p + 1].text == ":"
            && cx.toks[*p + 2].kind == TokenKind::Ident
        {
            segs.push(cx.toks[*p + 2].text.clone());
            *p += 3;
        }
        // Turbofish `::<…>` in a path position: skip the generics.
        if *p + 2 < end
            && cx.toks[*p].text == ":"
            && cx.toks[*p + 1].text == ":"
            && cx.toks[*p + 2].text == "<"
        {
            *p = skip_generics(cx.toks, *p + 2, end);
        }
        let next = cx.toks.get(*p).map(|t| t.text.as_str()).unwrap_or("");
        if next == "!" {
            // Macro invocation: skip the delimited arguments.
            let name = segs.last().cloned().unwrap_or_default();
            *p += 1;
            let open = cx.toks.get(*p).map(|t| t.text.as_str()).unwrap_or("");
            if is_open(open) {
                let close_text = match open {
                    "(" => ")",
                    "[" => "]",
                    _ => "}",
                };
                let c = match_close(cx.toks, *p, open, close_text);
                // `debug_assert!` in expression position still refines.
                if matches!(name.as_str(), "assert" | "debug_assert") {
                    let args = split_depth0(cx.toks, *p + 1, c, ",");
                    if let Some(&(alo, ahi)) = args.first() {
                        let mut q = alo;
                        self.eval(cx, &mut q, ahi, 0, true);
                        self.refine_cond(cx, alo, ahi);
                    }
                } else if matches!(name.as_str(), "assert_eq" | "debug_assert_eq") {
                    let args = split_depth0(cx.toks, *p + 1, c, ",");
                    if args.len() >= 2 {
                        self.refine_equal(cx, args[0], args[1]);
                    }
                }
                *p = c + 1;
            }
            return (AbsVal::unknown(), None);
        }
        if next == "(" {
            let c = match_close(cx.toks, *p, "(", ")");
            let arg_vals = self.eval_args(cx, *p + 1, c);
            *p = c + 1;
            return (self.resolve_call(cx, &segs, arg_vals, cx.toks[start].line), None);
        }
        if next == "{"
            && !no_struct
            && segs.last().is_some_and(|s| s.chars().next().is_some_and(|c| c.is_uppercase()))
        {
            // Struct literal: evaluate field initialisers for checks.
            let c = match_close(cx.toks, *p, "{", "}");
            for (flo, fhi) in split_depth0(cx.toks, *p + 1, c, ",") {
                let vlo = find_depth0(cx.toks, flo, fhi, ":").map(|k| k + 1).unwrap_or(flo);
                if vlo < fhi {
                    let mut q = vlo;
                    self.eval(cx, &mut q, fhi, 0, false);
                }
            }
            *p = c + 1;
            return (AbsVal { ty: segs.last().cloned(), ..AbsVal::unknown() }, None);
        }
        // Plain path value.
        if segs.len() == 1 {
            let name = &segs[0];
            if let Some(v) = cx.env.get(name) {
                return (v.clone(), Some(name.clone()));
            }
            if let Some(v) = self.consts.get(name) {
                return (v.clone(), None);
            }
            return (AbsVal::unknown(), Some(name.clone()));
        }
        // `i32::MAX`-style associated consts on primitive types.
        if segs.len() == 2 {
            let ty = self.resolve_ty(&segs[0]);
            if let Some(range) = type_range(&ty) {
                if let Some((lo, hi)) = range.bounds() {
                    match segs[1].as_str() {
                        "MAX" => {
                            return (AbsVal::of_int(Interval::singleton(hi), Some(ty), false), None)
                        }
                        "MIN" => {
                            return (AbsVal::of_int(Interval::singleton(lo), Some(ty), false), None)
                        }
                        "BITS" => {
                            let bits = type_bits(&ty).unwrap_or(64);
                            return (
                                AbsVal::of_int(
                                    Interval::singleton(bits as i128),
                                    Some("u32".to_string()),
                                    false,
                                ),
                                None,
                            );
                        }
                        _ => {}
                    }
                }
            }
        }
        if let Some(v) = segs.last().and_then(|s| self.consts.get(s)) {
            return (v.clone(), None);
        }
        (AbsVal::unknown(), None)
    }

    fn eval_args(&mut self, cx: &mut Cx<'a>, lo: usize, hi: usize) -> Vec<AbsVal> {
        if lo >= hi {
            return Vec::new();
        }
        split_depth0(cx.toks, lo, hi, ",")
            .into_iter()
            .filter(|&(alo, ahi)| ahi > alo)
            .map(|(alo, ahi)| {
                let mut q = alo;
                self.eval(cx, &mut q, ahi, 0, false)
            })
            .collect()
    }

    /// Resolves a free or `Type::`-qualified call through the
    /// interprocedural summaries.
    fn resolve_call(
        &mut self,
        cx: &mut Cx<'a>,
        segs: &[String],
        args: Vec<AbsVal>,
        line: u32,
    ) -> AbsVal {
        let name = segs.last().cloned().unwrap_or_default();
        match name.as_str() {
            "min" | "max" if args.len() == 2 => {
                let iv = if name == "min" {
                    args[0].iv.min_(args[1].iv)
                } else {
                    args[0].iv.max_(args[1].iv)
                };
                self.check_units(cx, "comparison", line, &args[0], &args[1]);
                let mut out = args[0].join(&args[1]);
                out.iv = iv;
                return out;
            }
            "from" if segs.len() >= 2 => {
                // `i64::from(x)` is lossless by construction.
                let ty = self.resolve_ty(&segs[segs.len() - 2]);
                if let Some(range) = type_range(&ty) {
                    let src = args.first().cloned().unwrap_or_else(AbsVal::unknown);
                    let mut out = src;
                    out.iv = out.iv.meet(range);
                    out.ty = Some(ty);
                    out.weak = false;
                    return out;
                }
            }
            _ => {}
        }
        let Some(candidates) = self.fn_by_name.get(&name).cloned() else {
            return AbsVal::unknown();
        };
        let qualifier = (segs.len() >= 2).then(|| segs[segs.len() - 2].clone());
        let matching: Vec<usize> = match &qualifier {
            Some(q) => {
                let filtered: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&n| {
                        fn_item(self.files, &self.graph.nodes[n]).self_type.as_deref() == Some(q)
                    })
                    .collect();
                if filtered.is_empty() && q == "Self" {
                    candidates
                } else {
                    filtered
                }
            }
            None => candidates,
        };
        let mut out: Option<AbsVal> = None;
        for n in matching {
            let s = self.summary_of(n);
            out = Some(match out {
                Some(acc) => acc.join(&s),
                None => s,
            });
        }
        out.unwrap_or_else(AbsVal::unknown)
    }
}

// -------------------------------------------- postfix, methods, casts

impl<'a> Analyzer<'a> {
    fn postfix(
        &mut self,
        cx: &mut Cx<'a>,
        p: &mut usize,
        end: usize,
        mut val: AbsVal,
        mut place: Option<String>,
    ) -> (AbsVal, Option<String>) {
        while *p < end {
            match cx.toks[*p].text.as_str() {
                "." => {
                    let Some(next) = cx.toks.get(*p + 1) else { break };
                    if next.text == "." {
                        break; // range `..`
                    }
                    match next.kind {
                        TokenKind::Ident => {
                            let name = next.text.clone();
                            let mut after = *p + 2;
                            // `.collect::<Vec<_>>()` turbofish.
                            if after + 2 < end
                                && cx.toks[after].text == ":"
                                && cx.toks[after + 1].text == ":"
                                && cx.toks[after + 2].text == "<"
                            {
                                after = skip_generics(cx.toks, after + 2, end);
                            }
                            if cx.toks.get(after).is_some_and(|t| t.text == "(") {
                                let c = match_close(cx.toks, after, "(", ")");
                                let line = next.line;
                                let args = self.eval_args(cx, after + 1, c);
                                let new_place = (name == "len" && args.is_empty())
                                    .then(|| place.as_ref().map(|pl| format!("{pl}.len()")))
                                    .flatten();
                                val = self.method(cx, line, val, new_place.as_deref(), &name, args);
                                place = new_place;
                                *p = c + 1;
                            } else {
                                let new_place = place.as_ref().map(|pl| format!("{pl}.{name}"));
                                val = match new_place.as_ref().and_then(|pl| cx.env.get(pl)) {
                                    Some(v) => v.clone(),
                                    None => self.field_val(&val, &name),
                                };
                                place = new_place;
                                *p += 2;
                            }
                        }
                        TokenKind::Int => {
                            let name = next.text.clone();
                            let new_place = place.as_ref().map(|pl| format!("{pl}.{name}"));
                            val = match new_place.as_ref().and_then(|pl| cx.env.get(pl)) {
                                Some(v) => v.clone(),
                                None => self.field_val(&val, &name),
                            };
                            place = new_place;
                            *p += 2;
                        }
                        _ => break,
                    }
                }
                "[" => {
                    let c = match_close(cx.toks, *p, "[", "]");
                    let is_slice = find_range_dots(cx.toks, *p + 1, c).is_some();
                    if c > *p + 1 && !is_slice {
                        let mut q = *p + 1;
                        self.eval(cx, &mut q, c, 0, false);
                    }
                    let new_place =
                        place.as_ref().map(|pl| format!("{pl}{}", span_text(cx.toks, *p, c + 1)));
                    if is_slice {
                        // Slicing keeps the container type.
                    } else {
                        // A container annotated `Vec<i8>`/`[u64; N]`
                        // carries the element type as its own `ty`
                        // (declared types keep the last path segment),
                        // so fall back to it when `elem` is absent.
                        let elem_ty = val
                            .elem
                            .as_deref()
                            .or(val.ty.as_deref())
                            .filter(|e| is_int_type(e) || is_float_type(e))
                            .map(str::to_string);
                        val = match new_place.as_ref().and_then(|pl| cx.env.get(pl)) {
                            Some(v) => v.clone(),
                            None => match elem_ty.as_deref() {
                                Some(e) => AbsVal::typed_range(e).with_unit(val.unit.clone()),
                                None => AbsVal::unknown().with_unit(val.unit.clone()),
                            },
                        };
                    }
                    place = new_place;
                    *p = c + 1;
                }
                "as" if cx.toks[*p].kind == TokenKind::Ident => {
                    let line = cx.toks[*p].line;
                    // `as` binds tighter than any binary operator, so a
                    // float literal right before it is the whole source.
                    let frac_literal = cx.toks[*p - 1].kind == TokenKind::Float
                        && parse_float_lit(&cx.toks[*p - 1].text).is_some_and(|(lo, hi)| lo != hi);
                    *p += 1;
                    // Take the last ident of the (possibly qualified)
                    // target type.
                    let mut ty = String::new();
                    while *p < end {
                        let t = &cx.toks[*p];
                        if t.kind == TokenKind::Ident {
                            ty = t.text.clone();
                            *p += 1;
                        } else if t.text == ":" {
                            *p += 1;
                        } else {
                            break;
                        }
                    }
                    val = self.apply_cast(cx, line, val, &ty, frac_literal);
                    place = None;
                }
                "?" => {
                    *p += 1;
                    val = AbsVal::unknown();
                    place = None;
                }
                _ => break,
            }
        }
        (val, place)
    }

    /// Field access through the workspace struct table.
    fn field_val(&self, recv: &AbsVal, name: &str) -> AbsVal {
        let looked = recv
            .ty
            .as_ref()
            .and_then(|t| self.fields.get(&(t.clone(), name.to_string())))
            .cloned()
            .or_else(|| {
                if recv.ty.is_none() {
                    self.field_fallback.get(name).cloned().flatten()
                } else {
                    None
                }
            });
        let unit = unit_of_name(name);
        let Some((base, last)) = looked else {
            return AbsVal::unknown().with_unit(unit);
        };
        let base = self.resolve_ty(&base);
        let last = self.resolve_ty(&last);
        if base == last && (is_int_type(&base) || is_float_type(&base)) {
            AbsVal::typed_range(&base).with_unit(unit)
        } else if base == "Vec" || base == "Box" || base == "Option" {
            AbsVal { elem: Some(last), unit, ..AbsVal::unknown() }
        } else if is_int_type(&base) || is_float_type(&base) {
            // `[u32; N]`-style field: elements of the base type.
            AbsVal { elem: Some(base), unit, ..AbsVal::unknown() }
        } else {
            AbsVal { ty: Some(base), unit, ..AbsVal::unknown() }
        }
    }

    /// Method-call transfer functions.
    fn method(
        &mut self,
        cx: &mut Cx<'a>,
        line: u32,
        recv: AbsVal,
        place: Option<&str>,
        name: &str,
        args: Vec<AbsVal>,
    ) -> AbsVal {
        let arg = |i: usize| args.get(i).cloned().unwrap_or_else(AbsVal::unknown);
        match name {
            "min" | "max" if args.len() == 1 => {
                let a = arg(0);
                self.check_units(cx, "comparison", line, &recv, &a);
                let iv = if name == "min" { recv.iv.min_(a.iv) } else { recv.iv.max_(a.iv) };
                let mut out = recv.join(&a);
                out.iv = iv;
                out
            }
            "clamp" if args.len() == 2 => {
                let (a, b) = (arg(0), arg(1));
                let mut out = recv;
                out.iv = out.iv.clamp_to(a.iv, b.iv);
                out
            }
            "abs" => {
                let mut out = recv;
                out.iv = out.iv.abs();
                out
            }
            "unsigned_abs" => {
                let mut out = recv;
                out.iv = out.iv.abs();
                out.ty = out.ty.as_deref().map(unsigned_counterpart).map(str::to_string);
                out
            }
            "round" | "floor" | "ceil" | "trunc" => recv,
            "saturating_add" | "saturating_sub" | "saturating_mul" => {
                let a = arg(0);
                if name == "saturating_add" || name == "saturating_sub" {
                    self.check_units(cx, "addition", line, &recv, &a);
                }
                let raw = match name {
                    "saturating_add" => recv.iv.add(a.iv),
                    "saturating_sub" => recv.iv.sub(a.iv),
                    _ => recv.iv.mul(a.iv),
                };
                let mut out = recv;
                if let Some(range) = out.ty.as_deref().and_then(type_range) {
                    out.iv = raw.saturate_to(range);
                } else {
                    out.iv = raw;
                }
                out
            }
            "wrapping_add" | "wrapping_sub" | "wrapping_mul" | "rotate_left" | "rotate_right"
            | "saturating_pow" | "wrapping_shl" | "wrapping_shr" | "pow" => {
                let mut out = recv;
                out.iv = out.ty.as_deref().and_then(type_range).unwrap_or(Interval::TOP);
                out
            }
            "checked_add" | "checked_sub" | "checked_mul" | "checked_div" | "checked_shl"
            | "checked_rem" | "checked_pow" => AbsVal::unknown(),
            "div_ceil" => {
                let mut out = recv.clone();
                out.iv = recv.iv.div(arg(0).iv).add(Interval::new(0, 1));
                if let Some(range) = out.ty.as_deref().and_then(type_range) {
                    out.iv = out.iv.meet(range);
                }
                out
            }
            "div_euclid" => {
                let mut out = recv.clone();
                out.iv = recv.iv.div(arg(0).iv);
                out
            }
            "rem_euclid" => {
                let mut out = recv.clone();
                out.iv = recv.iv.rem(arg(0).iv).abs();
                out
            }
            "leading_zeros" | "trailing_zeros" | "count_ones" | "count_zeros" => {
                AbsVal::of_int(Interval::new(0, 128), Some("u32".to_string()), false)
            }
            "to_bits" => AbsVal::typed_range("u32"),
            "len" => match place.and_then(|pl| cx.env.get(pl)) {
                Some(v) => v.clone(),
                None => {
                    let mut v = AbsVal::typed_range("usize");
                    v.iv = Interval::new(0, u64::MAX as i128);
                    v
                }
            },
            "iter" | "iter_mut" | "into_iter" | "copied" | "cloned" | "rev" | "as_slice"
            | "as_mut_slice" | "as_ref" | "as_mut" => recv,
            "sum" | "product" => AbsVal::unknown(),
            // Workspace method: resolve through the same summaries as
            // path calls, using the receiver type (when known) to
            // disambiguate same-named methods on different impls.
            _ => self.workspace_method(&recv, name),
        }
    }

    /// Joins the summaries of every workspace fn named `name` that is
    /// a method (`self_type` present) compatible with the receiver's
    /// type — `recv.ty` unknown means every candidate stays in play,
    /// which joins toward ⊤ exactly when resolution is ambiguous.
    fn workspace_method(&mut self, recv: &AbsVal, name: &str) -> AbsVal {
        let Some(candidates) = self.fn_by_name.get(name).cloned() else {
            return AbsVal::unknown();
        };
        let mut out: Option<AbsVal> = None;
        for node_idx in candidates {
            let item = fn_item(self.files, &self.graph.nodes[node_idx]);
            let Some(self_ty) = item.self_type.as_deref() else { continue };
            if recv.ty.as_deref().is_some_and(|t| t != self_ty && t != "Self") {
                continue;
            }
            let s = self.summary_of(node_idx);
            out = Some(match out {
                Some(prev) => prev.join(&s),
                None => s,
            });
        }
        out.unwrap_or_else(AbsVal::unknown)
    }

    /// `expr as Ty`: the A2 cast rule. An `f32` destination needs an
    /// `f32` source or an integer within ±2^24; an integer destination
    /// needs the source interval inside it, with `usize`/`isize`
    /// counted as 32-bit so the proof holds on every target.
    fn apply_cast(
        &mut self,
        cx: &mut Cx<'a>,
        line: u32,
        val: AbsVal,
        ty: &str,
        frac_literal: bool,
    ) -> AbsVal {
        let ty = self.resolve_ty(ty);
        if is_float_type(&ty) {
            let exact = ty == "f64"
                || if val.float {
                    val.ty.as_deref() == Some("f32")
                } else {
                    val.iv.subset_of(F32_EXACT_INT)
                };
            if !exact {
                let src = if val.float { "f64" } else { "integer" };
                self.report(
                    cx,
                    "A2",
                    line,
                    format!(
                        "{src}->f32 cast with source interval {} loses precision: \
                         `f32` holds integers only within ±2^24; bound the source \
                         with a `debug_assert!` or keep the value in f64",
                        fmt_iv(val.iv)
                    ),
                );
            }
            return AbsVal {
                iv: val.iv,
                ty: Some(ty),
                weak: false,
                float: true,
                unit: val.unit,
                elem: None,
            };
        }
        let Some(dst_range) = type_range(&ty) else {
            return AbsVal { ty: Some(ty), ..AbsVal::unknown() };
        };
        let portable = match ty.as_str() {
            "usize" => type_range("u32"),
            "isize" => type_range("i32"),
            _ => None,
        }
        .unwrap_or(dst_range);
        // Pure widening is always fine; otherwise the source interval
        // must provably fit. `as` from float saturates since Rust 1.45,
        // so that cast cannot wrap — but a saturated quantity is a
        // corrupted quantity all the same.
        let fits = |range: Interval| {
            val.ty.as_deref().and_then(type_range).is_some_and(|src| src.subset_of(range))
                || val.iv.subset_of(range)
        };
        if frac_literal {
            self.report(
                cx,
                "A2",
                line,
                format!("float literal with a fractional part truncates when cast to `{ty}`"),
            );
        } else if !fits(portable) {
            let what = if val.float { "float" } else { "integer" };
            let width = if portable == dst_range { "" } else { " (counted as 32-bit)" };
            self.report(
                cx,
                "A2",
                line,
                format!(
                    "{what} cast to `{ty}`{width} with unproven interval {}: add a \
                     `debug_assert!` bound, clamp, or use `try_from`",
                    fmt_iv(val.iv)
                ),
            );
        }
        let iv = if val.float {
            val.iv.saturate_to(dst_range)
        } else if fits(dst_range) {
            let met = val.iv.meet(dst_range);
            if met.is_bottom() {
                dst_range
            } else {
                met
            }
        } else {
            dst_range
        };
        AbsVal { iv, ty: Some(ty), weak: false, float: false, unit: val.unit, elem: None }
    }
}

// ------------------------------------------------- binary operators

impl<'a> Analyzer<'a> {
    /// Applies a binary operator with the A2 overflow and A3 unit
    /// checks, returning the (type-normalised) result value.
    fn apply_bin(&mut self, cx: &mut Cx<'a>, op: &str, line: u32, l: AbsVal, r: AbsVal) -> AbsVal {
        // Comparisons and logical operators produce booleans; they
        // only carry the A3 cross-unit check.
        if matches!(op, "<" | "<=" | ">" | ">=" | "==" | "!=") {
            self.check_units(cx, "comparison", line, &l, &r);
            return AbsVal::unknown();
        }
        if matches!(op, "&&" | "||") {
            return AbsVal::unknown();
        }
        if matches!(op, "+" | "-") {
            self.check_units(cx, if op == "+" { "addition" } else { "subtraction" }, line, &l, &r);
        }
        let float = l.float || r.float;
        let raw = match op {
            "+" => l.iv.add(r.iv),
            "-" => l.iv.sub(r.iv),
            "*" => l.iv.mul(r.iv),
            "/" => {
                if float {
                    Interval::TOP
                } else {
                    l.iv.div(r.iv)
                }
            }
            "%" => l.iv.rem(r.iv),
            "<<" => l.iv.shl(r.iv),
            ">>" => l.iv.shr(r.iv),
            "&" => l.iv.bitand(r.iv),
            "|" => l.iv.bitor(r.iv),
            "^" => Interval::TOP,
            _ => Interval::TOP,
        };
        let raw = if float && matches!(op, "+" | "-" | "*") { float_pad(raw) } else { raw };
        let unit = result_unit(cx, self, op, line, &l, &r);
        let mut out = AbsVal {
            iv: raw,
            ty: unify_ty(&l, &r),
            weak: l.weak && r.weak,
            float,
            unit,
            elem: None,
        };
        if !float {
            out.iv = self.checked_int_result(cx, op, line, raw, &l, &r, false);
        }
        out
    }

    /// The A2 overflow check for an integer operator result, and the
    /// normalisation of the result interval into the operand type.
    #[allow(clippy::too_many_arguments)] // internal check fan-in
    fn checked_int_result(
        &mut self,
        cx: &mut Cx<'a>,
        op: &str,
        line: u32,
        raw: Interval,
        l: &AbsVal,
        r: &AbsVal,
        accumulator: bool,
    ) -> Interval {
        // Unsuffixed literals default to i32 (or a const's declared
        // type) when nothing types them.
        let ty = match unify_ty(l, r) {
            Some(t) => t,
            None if l.weak && r.weak => cx.lit_ty.clone().unwrap_or_else(|| "i32".to_string()),
            None => return raw,
        };
        let Some(range) = type_range(&ty) else { return raw };
        let bits = type_bits(&ty).unwrap_or(64);
        let needs_proof = match op {
            "+" => bits < PLUS_CHECK_BELOW_BITS,
            "*" | "<<" => true,
            _ => false,
        };
        if op == "<<" {
            if let Some((_, amt_hi)) = r.iv.bounds() {
                if amt_hi > (bits - 1) as i128 {
                    self.report(
                        cx,
                        "A2",
                        line,
                        format!(
                            "shift amount interval {} can reach {amt_hi} on a \
                             {bits}-bit `{ty}`; bound it below {bits} with a \
                             `debug_assert!`",
                            fmt_iv(r.iv)
                        ),
                    );
                }
            }
        }
        if needs_proof && !raw.subset_of(range) {
            let what = if accumulator { "loop accumulation" } else { opname(op) };
            self.report(
                cx,
                "A2",
                line,
                format!(
                    "{what} on `{ty}` has unproven result interval {} ⊄ {}; \
                     tighten the operands with `debug_assert!`/`clamp`, widen \
                     the type, or use `checked_*`/`saturating_*`",
                    fmt_iv(raw),
                    fmt_iv(range)
                ),
            );
        }
        if raw.subset_of(range) {
            raw
        } else {
            range
        }
    }

    /// A3: flags a cross-unit additive operation or comparison.
    fn check_units(&mut self, cx: &mut Cx<'a>, what: &str, line: u32, l: &AbsVal, r: &AbsVal) {
        if let (Some(lu), Some(ru)) = (l.unit.as_deref(), r.unit.as_deref()) {
            if lu != ru {
                self.report(
                    cx,
                    "A3",
                    line,
                    format!(
                        "{what} mixes units: {lu} vs {ru}; convert explicitly or \
                         carry `// lint: allow(a3): why`"
                    ),
                );
            }
        }
    }
}

/// The operand type of a binary result: a strong type wins over a
/// weak literal; conflicting strong types yield `None` (the checker
/// then stays silent — real code would not compile).
fn unify_ty(l: &AbsVal, r: &AbsVal) -> Option<String> {
    match (&l.ty, &r.ty) {
        (Some(a), Some(b)) if a == b => Some(a.clone()),
        (Some(a), Some(_)) if r.weak => Some(a.clone()),
        (Some(_), Some(b)) if l.weak => Some(b.clone()),
        (Some(_), Some(_)) => None,
        (Some(a), None) => Some(a.clone()),
        (None, Some(b)) => Some(b.clone()),
        (None, None) => None,
    }
}

fn opname(op: &str) -> &'static str {
    match op {
        "+" => "addition",
        "*" => "multiplication",
        "<<" => "left shift",
        _ => "arithmetic",
    }
}

/// A3 unit algebra for `*` and `/`; reports unit-erasing divisions.
fn result_unit<'a>(
    cx: &Cx<'a>,
    a: &mut Analyzer<'a>,
    op: &str,
    line: u32,
    l: &AbsVal,
    r: &AbsVal,
) -> Option<String> {
    match op {
        "+" | "-" => l.unit.clone().or_else(|| r.unit.clone()),
        "*" => match (&l.unit, &r.unit) {
            (Some(u), None) | (None, Some(u)) => Some(u.clone()),
            _ => None,
        },
        "/" => match (l.unit.as_deref(), r.unit.as_deref()) {
            (Some(lu), Some(ru)) if lu == ru => None, // dimensionless ratio
            (Some(lu), Some(ru)) => {
                a.report(
                    cx,
                    "A3",
                    line,
                    format!(
                        "unit-erasing division: {lu} / {ru} drops both unit tags; \
                         name the resulting rate and carry `// lint: allow(a3): why`"
                    ),
                );
                None
            }
            (Some(lu), None) => Some(lu.to_string()),
            _ => None,
        },
        _ => None,
    }
}

/// The unsigned counterpart of a signed integer type name.
fn unsigned_counterpart(ty: &str) -> &str {
    match ty {
        "i8" => "u8",
        "i16" => "u16",
        "i32" => "u32",
        "i64" => "u64",
        "i128" => "u128",
        "isize" => "usize",
        other => other,
    }
}

/// Compact interval rendering for messages.
fn fmt_iv(iv: Interval) -> String {
    match iv.bounds() {
        None => "⊥".to_string(),
        Some((lo, hi)) => {
            let b = |v: i128| {
                if v == i128::MIN {
                    "-inf".to_string()
                } else if v == i128::MAX {
                    "+inf".to_string()
                } else {
                    v.to_string()
                }
            };
            format!("[{}, {}]", b(lo), b(hi))
        }
    }
}

/// Skips a `<…>` generic-argument list starting at `open` (a `<`),
/// returning the index after the matching `>`.
fn skip_generics(toks: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end {
        match toks[i].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::ACCOUNTING_FILES;
    use std::path::Path;

    /// A renamed or deleted accounting file would silently narrow
    /// A2–A4.
    #[test]
    fn every_accounting_file_exists() {
        let root = crate::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("the lint crate lives in the workspace");
        for path in ACCOUNTING_FILES {
            assert!(root.join(path).is_file(), "accounting file {path} does not exist");
        }
    }
}
