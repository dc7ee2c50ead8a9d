//! A lightweight item parser over the token stream.
//!
//! The interprocedural rules (P2/H2/D5) need to know where
//! functions begin and end, what they are called, which type they hang
//! off, and whether they are public — but nothing about expressions or
//! types beyond brace/paren structure. This module recovers exactly
//! that item skeleton from the [`lexer`](crate::lexer) output with a
//! single forward pass plus brace matching: `fn` items (free, inherent,
//! trait-default and nested), `impl` blocks (inherent and trait),
//! inline `mod` trees, `const` items, struct fields, type aliases,
//! and `static mut` items.
//!
//! Deliberate over-approximations, documented so rule behaviour stays
//! predictable:
//!
//! * `cfg` attributes are not interpreted — both arms of a feature
//!   gate are parsed, so feature-gated code is analysed too (only
//!   attributes containing the identifier `test` exempt an item).
//! * Generics are skipped by angle-bracket matching with a special
//!   case for `->` so `fn f<F: Fn() -> T>` parses; `>>` closes two
//!   levels as two tokens.
//! * Parameter names are the identifiers directly followed by `:` at
//!   parenthesis depth 1 of the signature — enough for the P2
//!   unvalidated-parameter checks; destructured patterns contribute
//!   only their outermost bindings.

use crate::lexer::{match_close, LexedFile, Token, TokenKind};
use crate::rules::test_mask;

/// One `fn` item with its token span.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function name (`render_image`, `new`, …).
    pub name: String,
    /// The `Self` type when declared inside an `impl` or `trait`
    /// block (`Some("Trainer")` for `impl Trainer { fn step … }`).
    pub self_type: Option<String>,
    /// Bare `pub` (not `pub(crate)`/`pub(super)`, which stay private
    /// to the crate and are not entry points).
    pub is_pub: bool,
    /// Inside test-only code (`#[test]`, `#[cfg(test)]`, …).
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameter names bound by the signature (excluding `self`).
    pub params: Vec<String>,
    /// The subset of `params` whose declared type is (or contains
    /// only) a fixed-size array `[T; N]`. Constant-index access into
    /// these is compile-time checked, so P2 does not flag it.
    /// Extended by [`resolve_array_aliases`] with params whose type
    /// is a workspace alias of a fixed-size array.
    pub fixed_arrays: Vec<String>,
    /// `(param, type name)` for params whose type is a bare (possibly
    /// referenced) path — candidates for fixed-array alias resolution.
    pub alias_typed: Vec<(String, String)>,
    /// Token range of the body `{ … }`, inclusive of both braces.
    /// `None` for body-less declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
    /// Last path segment of the declared return type (`u64` for
    /// `-> u64`, `Interval` for `-> Option<Interval>` — the abstract
    /// interpreter only consumes primitive segments), `None` for `()`.
    pub ret_type: Option<String>,
}

/// One `const NAME: Ty = …;` item (module-level or associated).
#[derive(Debug, Clone)]
pub struct ConstItem {
    /// The constant's name (`FIEM_MAX_INT`).
    pub name: String,
    /// Last path segment of the declared type (`i32`, `u64`).
    pub ty: Option<String>,
    /// Token range of the initialiser expression, `[start, end)` —
    /// the tokens between `=` and the terminating `;`.
    pub init: (usize, usize),
    /// 1-based line of the `const` keyword.
    pub line: u32,
}

/// One struct field, flattened out of a `struct` item. Tuple-struct
/// fields are named by position (`"0"`, `"1"`, …).
#[derive(Debug, Clone)]
pub struct StructField {
    /// The struct's name.
    pub struct_name: String,
    /// The field name (or tuple index as a string).
    pub field: String,
    /// First path segment of the field type (`Vec` for `Vec<i8>`).
    pub ty_base: String,
    /// Last path segment of the field type (`i8` for `Vec<i8>`).
    pub ty_last: String,
}

/// The item skeleton of one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every `fn` item, in source order (outer before nested).
    pub fns: Vec<FnItem>,
    /// Names declared `static mut` at any level (D5 shared state).
    pub static_muts: Vec<String>,
    /// `type X = [T; N];` alias names declared in this file; the
    /// workspace union resolves [`FnItem::alias_typed`] params.
    pub fixed_array_aliases: Vec<String>,
    /// `const` items (module-level and associated), for constant
    /// propagation in the abstract interpreter.
    pub consts: Vec<ConstItem>,
    /// Struct fields, for field-type lookup (`w.samples` on a
    /// `FrameWorkload` parameter) in the abstract interpreter.
    pub struct_fields: Vec<StructField>,
    /// `type X = u32;` primitive aliases (name, primitive), so
    /// literal type-alias widths participate in range checks.
    pub prim_aliases: Vec<(String, String)>,
}

/// Marks every param whose type names a workspace fixed-array alias
/// (`type GridVertex = [u32; 3];`) as a fixed array. Call once per
/// lint run, after parsing all files. Alias names are matched
/// workspace-wide without module resolution — a name collision could
/// over-exempt, but alias names here are globally unique.
pub fn resolve_array_aliases(parsed: &mut [&mut ParsedFile]) {
    let aliases: std::collections::BTreeSet<String> =
        parsed.iter().flat_map(|f| f.fixed_array_aliases.iter().cloned()).collect();
    for file in parsed {
        for f in &mut file.fns {
            for (param, ty) in &f.alias_typed {
                if aliases.contains(ty) && !f.fixed_arrays.contains(param) {
                    f.fixed_arrays.push(param.clone());
                }
            }
        }
    }
}

/// Keywords that look like call syntax when followed by `(` but are
/// control flow or operators, never callees.
pub const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "in", "loop", "return", "break", "continue", "move",
    "as", "let", "mut", "ref", "fn", "impl", "where", "unsafe", "async", "await", "dyn", "box",
];

/// Parses the item skeleton out of a lexed file.
pub fn parse_file(file: &LexedFile) -> ParsedFile {
    let mask = test_mask(&file.tokens);
    let mut parser = Parser { toks: &file.tokens, test: &mask, out: ParsedFile::default() };
    parser.items(0, file.tokens.len(), None);
    parser.out
}

struct Parser<'a> {
    toks: &'a [Token],
    test: &'a [bool],
    out: ParsedFile,
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    fn is_ident(&self, i: usize) -> bool {
        self.toks.get(i).is_some_and(|t| t.kind == TokenKind::Ident)
    }

    /// Parses the items in `[start, end)`, appending to `self.out`.
    /// `self_type` is the enclosing `impl`/`trait` block's type.
    fn items(&mut self, start: usize, end: usize, self_type: Option<&str>) {
        let mut i = start;
        let mut pending_pub = false;
        while i < end {
            match self.text(i) {
                "#" if self.text(i + 1) == "[" => {
                    // Attribute: skip by bracket matching; visibility
                    // (if any) follows the attributes, so keep state.
                    i = match_close(self.toks, i + 1, "[", "]") + 1;
                }
                "pub" => {
                    if self.text(i + 1) == "(" {
                        // pub(crate)/pub(super)/pub(in …): crate-local.
                        i = match_close(self.toks, i + 1, "(", ")") + 1;
                    } else {
                        pending_pub = true;
                        i += 1;
                    }
                }
                // `const NAME: Ty = …;` items are recorded for constant
                // propagation; `const fn` keeps `const` as a modifier.
                "const" if self.is_ident(i + 1) && self.text(i + 2) == ":" => {
                    i = self.const_item(i);
                    pending_pub = false;
                }
                // Modifiers between visibility and `fn`.
                "const" | "unsafe" | "async" | "extern" => i += 1,
                "struct" => {
                    i = self.struct_item(i);
                    pending_pub = false;
                }
                "fn" => {
                    i = self.fn_item(i, pending_pub, self_type);
                    pending_pub = false;
                }
                "impl" => {
                    i = self.impl_item(i);
                    pending_pub = false;
                }
                "trait" => {
                    i = self.trait_item(i);
                    pending_pub = false;
                }
                "mod" => {
                    i = self.mod_item(i);
                    pending_pub = false;
                }
                "static" => {
                    if self.text(i + 1) == "mut" && self.is_ident(i + 2) {
                        let name = self.text(i + 2).to_string();
                        self.out.static_muts.push(name);
                    }
                    i = self.skip_to_item_end(i + 1);
                    pending_pub = false;
                }
                "type" => {
                    i = self.type_alias(i);
                    pending_pub = false;
                }
                // Other items and stray tokens: advance. Braced item
                // bodies (struct/enum/union) contain no fns, and any
                // `{`/`}` encountered here nest correctly because fn
                // bodies are consumed whole by `fn_item`.
                _ => {
                    i += 1;
                    pending_pub = false;
                }
            }
        }
    }

    /// Parses `fn name<…>(params) -> … { body }` starting at the `fn`
    /// keyword; records the item and returns the index one past it.
    fn fn_item(&mut self, at: usize, is_pub: bool, self_type: Option<&str>) -> usize {
        let mut i = at + 1;
        if !self.is_ident(i) {
            return i; // `fn` in type position (`fn()` pointer type)
        }
        let name = self.text(i).to_string();
        let line = self.toks[at].line;
        i += 1;
        if self.text(i) == "<" {
            i = self.match_angles(i) + 1;
        }
        if self.text(i) != "(" {
            return i;
        }
        let params_close = match_close(self.toks, i, "(", ")");
        let (params, fixed_arrays, alias_typed) = self.param_names(i, params_close);
        // Find the body `{` (or `;` for a declaration) at depth 0 of
        // the return type / where clause, capturing the return type's
        // last path segment along the way.
        let mut j = params_close + 1;
        let mut depth = 0i32;
        let mut body = None;
        let mut in_ret = false;
        let mut ret_type = None;
        while j < self.toks.len() {
            match self.text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    let close = match_close(self.toks, j, "{", "}");
                    body = Some((j, close));
                    break;
                }
                ";" if depth == 0 => break,
                ">" if depth == 0 && self.text(j.wrapping_sub(1)) == "-" => in_ret = true,
                "where" if depth == 0 => in_ret = false,
                t if in_ret
                    && depth == 0
                    && self.is_ident(j)
                    && !matches!(t, "dyn" | "impl" | "mut" | "const") =>
                {
                    ret_type = Some(t.to_string());
                }
                _ => {}
            }
            j += 1;
        }
        let is_test = self.test.get(at).copied().unwrap_or(false);
        self.out.fns.push(FnItem {
            name,
            self_type: self_type.map(str::to_string),
            is_pub,
            is_test,
            line,
            params,
            fixed_arrays,
            alias_typed,
            body,
            ret_type,
        });
        if let Some((open, close)) = body {
            // Nested fn items (helpers declared inside a body) become
            // their own nodes; the call graph subtracts their spans
            // from the enclosing body.
            self.items(open + 1, close, self_type);
            close + 1
        } else {
            j + 1
        }
    }

    /// Parameter names: identifiers at paren depth 1 directly followed
    /// by `:` (excluding `self` and lifetime/type positions). The
    /// second list holds params whose type span contains a `;` — in
    /// type position that can only be a fixed-size array `[T; N]`.
    /// The third pairs params with a bare-path type (`&GridVertex`,
    /// `cfg::Plan`) with that path's last segment, for workspace
    /// fixed-array alias resolution.
    fn param_names(
        &self,
        open: usize,
        close: usize,
    ) -> (Vec<String>, Vec<String>, Vec<(String, String)>) {
        let mut names = Vec::new();
        let mut fixed = Vec::new();
        let mut alias_typed = Vec::new();
        // (param name, last type ident, type is still a bare path)
        let mut current: Option<(String, Option<String>, bool)> = None;
        let mut finish = |cur: &mut Option<(String, Option<String>, bool)>| {
            if let Some((name, last_ty, bare)) = cur.take() {
                if let (Some(ty), true) = (last_ty, bare) {
                    alias_typed.push((name, ty));
                }
            }
        };
        let mut depth = 0i32;
        let mut i = open;
        while i <= close {
            match self.text(i) {
                "(" | "[" | "{" => {
                    depth += 1;
                    if let Some(cur) = current.as_mut() {
                        cur.2 = false;
                    }
                }
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 1 => finish(&mut current),
                ";" => {
                    if let Some((name, _, _)) = current.take() {
                        fixed.push(name);
                    }
                }
                "<" | ">" | "*" | "dyn" | "impl" => {
                    if let Some(cur) = current.as_mut() {
                        cur.2 = false;
                    }
                }
                ":" if depth == 1
                    && self.text(i + 1) != ":"
                    && self.text(i.wrapping_sub(1)) != ":" =>
                {
                    if i > open && self.is_ident(i - 1) {
                        let name = self.text(i - 1);
                        if name != "self" {
                            names.push(name.to_string());
                            finish(&mut current);
                            current = Some((name.to_string(), None, true));
                        }
                    }
                }
                _ => {
                    if self.is_ident(i) {
                        if let Some(cur) = current.as_mut() {
                            cur.1 = Some(self.text(i).to_string());
                        }
                    }
                }
            }
            i += 1;
        }
        finish(&mut current);
        (names, fixed, alias_typed)
    }

    /// Parses `const NAME: Ty = init;` starting at `const`; records the
    /// item (name, declared-type last segment, initialiser token span)
    /// and returns the index one past the terminating `;`.
    fn const_item(&mut self, at: usize) -> usize {
        let name = self.text(at + 1).to_string();
        let line = self.toks[at].line;
        let mut ty = None;
        let mut depth = 0i32;
        let mut i = at + 3;
        let mut eq = None;
        while i < self.toks.len() {
            match self.text(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=" if depth == 0 => {
                    eq = Some(i);
                    break;
                }
                ";" if depth == 0 => break, // `const X: Ty;` (trait decl)
                t if depth == 0 && self.is_ident(i) => ty = Some(t.to_string()),
                _ => {}
            }
            i += 1;
        }
        let Some(eq) = eq else { return i + 1 };
        let mut j = eq + 1;
        let mut depth = 0i32;
        while j < self.toks.len() {
            match self.text(j) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        self.out.consts.push(ConstItem { name, ty, init: (eq + 1, j), line });
        j + 1
    }

    /// Parses `struct Name { … }` / `struct Name(…);` / `struct Name;`
    /// starting at `struct`, flattening the fields into
    /// [`ParsedFile::struct_fields`]; returns the index one past it.
    fn struct_item(&mut self, at: usize) -> usize {
        if !self.is_ident(at + 1) {
            return at + 1;
        }
        let name = self.text(at + 1).to_string();
        let mut i = at + 2;
        if self.text(i) == "<" {
            i = self.match_angles(i) + 1;
        }
        // Skip a where clause before the body, if any.
        while i < self.toks.len() && !matches!(self.text(i), "{" | "(" | ";") {
            i += 1;
        }
        match self.text(i) {
            "{" => {
                let close = match_close(self.toks, i, "{", "}");
                self.record_fields(&name, i + 1, close, false);
                close + 1
            }
            "(" => {
                let close = match_close(self.toks, i, "(", ")");
                self.record_fields(&name, i + 1, close, true);
                // Tuple struct: consume through the trailing `;`.
                let mut j = close + 1;
                while j < self.toks.len() && self.text(j) != ";" {
                    j += 1;
                }
                j + 1
            }
            _ => i + 1,
        }
    }

    /// Records the fields in a struct body span `[lo, hi)`. Named
    /// fields are `ident :` pairs at depth 0; tuple fields are the
    /// comma-separated type segments, named by position. The recorded
    /// type is its (first, last) path-segment pair — enough to
    /// recognise both `u64` and the element type of `Vec<i8>`.
    fn record_fields(&mut self, struct_name: &str, lo: usize, hi: usize, tuple: bool) {
        let mut field: Option<String> = None;
        let mut ty: Vec<String> = Vec::new();
        let mut tuple_idx = 0usize;
        let mut depth = 0i32;
        let mut angles = 0i32;
        let mut i = lo;
        let flush =
            |field: &mut Option<String>, ty: &mut Vec<String>, out: &mut Vec<StructField>| {
                if let (Some(f), false) = (field.take(), ty.is_empty()) {
                    out.push(StructField {
                        struct_name: struct_name.to_string(),
                        field: f,
                        ty_base: ty[0].clone(),
                        ty_last: ty[ty.len() - 1].clone(),
                    });
                }
                ty.clear();
            };
        if tuple {
            field = Some("0".to_string());
        }
        while i < hi {
            match self.text(i) {
                "#" if self.text(i + 1) == "[" => {
                    i = match_close(self.toks, i + 1, "[", "]") + 1;
                    continue;
                }
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => angles += 1,
                ">" => angles -= 1,
                "," if depth == 0 && angles == 0 => {
                    flush(&mut field, &mut ty, &mut self.out.struct_fields);
                    if tuple {
                        tuple_idx += 1;
                        field = Some(tuple_idx.to_string());
                    }
                }
                ":" if !tuple
                    && depth == 0
                    && angles == 0
                    && self.text(i + 1) != ":"
                    && self.text(i.wrapping_sub(1)) != ":"
                    && i > lo
                    && self.is_ident(i - 1) =>
                {
                    field = Some(self.text(i - 1).to_string());
                    ty.clear();
                }
                t if self.is_ident(i)
                    && !matches!(t, "pub" | "crate" | "dyn" | "mut")
                    && (field.is_some() || tuple) =>
                {
                    ty.push(t.to_string());
                }
                _ => {}
            }
            i += 1;
        }
        flush(&mut field, &mut ty, &mut self.out.struct_fields);
    }

    /// Parses `impl<…> [Trait for] Type { … }`; returns one past it.
    fn impl_item(&mut self, at: usize) -> usize {
        let mut i = at + 1;
        if self.text(i) == "<" {
            i = self.match_angles(i) + 1;
        }
        // Collect the path(s) up to the body: `Trait for Type` or
        // `Type`. Only the last identifier of each path matters.
        let mut first_path_last = None;
        let mut second_path_last = None;
        let mut saw_for = false;
        while i < self.toks.len() {
            match self.text(i) {
                "{" => break,
                ";" => return i + 1, // e.g. `impl Trait for Type;` (never in practice)
                "for" => {
                    saw_for = true;
                    i += 1;
                }
                "where" => {
                    // Skip the where clause to the body brace.
                    while i < self.toks.len() && self.text(i) != "{" {
                        i += 1;
                    }
                    break;
                }
                "<" => i = self.match_angles(i) + 1,
                _ => {
                    if self.is_ident(i) {
                        let slot =
                            if saw_for { &mut second_path_last } else { &mut first_path_last };
                        *slot = Some(self.text(i).to_string());
                    }
                    i += 1;
                }
            }
        }
        if self.text(i) != "{" {
            return i;
        }
        let close = match_close(self.toks, i, "{", "}");
        let self_type = if saw_for { second_path_last } else { first_path_last };
        if let Some(self_type) = self_type {
            self.items(i + 1, close, Some(&self_type));
        }
        close + 1
    }

    /// Parses `trait Name { … }`; default methods get the trait as
    /// their `Self` type so conservative method resolution finds them.
    fn trait_item(&mut self, at: usize) -> usize {
        let mut i = at + 1;
        if !self.is_ident(i) {
            return i;
        }
        let name = self.text(i).to_string();
        i += 1;
        while i < self.toks.len() && !matches!(self.text(i), "{" | ";") {
            if self.text(i) == "<" {
                i = self.match_angles(i) + 1;
            } else {
                i += 1;
            }
        }
        if self.text(i) != "{" {
            return i + 1;
        }
        let close = match_close(self.toks, i, "{", "}");
        self.items(i + 1, close, Some(&name));
        close + 1
    }

    /// Parses `type Name = …;`, recording the name when the aliased
    /// type contains a `;` at bracket depth — in type position that
    /// can only be a fixed-size array `[T; N]`. Returns one past the
    /// terminating `;`.
    fn type_alias(&mut self, at: usize) -> usize {
        let name = if self.is_ident(at + 1) { Some(self.text(at + 1).to_string()) } else { None };
        let mut depth = 0i32;
        let mut is_array = false;
        let mut rhs_idents = 0usize;
        let mut rhs_last = None;
        let mut saw_eq = false;
        let mut i = at + 1;
        while i < self.toks.len() {
            match self.text(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth == 0 => break,
                ";" => is_array = true,
                "=" if depth == 0 => saw_eq = true,
                t if saw_eq && self.is_ident(i) => {
                    rhs_idents += 1;
                    rhs_last = Some(t.to_string());
                }
                _ => {}
            }
            i += 1;
        }
        if let Some(name) = name {
            if is_array {
                self.out.fixed_array_aliases.push(name);
            } else if let (1, Some(prim)) = (rhs_idents, rhs_last) {
                // `type SampleCount = u64;` — a literal width alias.
                self.out.prim_aliases.push((name, prim));
            }
        }
        i + 1
    }

    /// Parses `mod name { … }` (recursing) or `mod name;` (skipped —
    /// the file walker visits the out-of-line file itself).
    fn mod_item(&mut self, at: usize) -> usize {
        if !self.is_ident(at + 1) {
            return at + 1;
        }
        match self.text(at + 2) {
            "{" => {
                let close = match_close(self.toks, at + 2, "{", "}");
                self.items(at + 3, close, None);
                close + 1
            }
            _ => at + 2,
        }
    }

    /// Skips to the end of a non-fn item: the `;` or the matching
    /// close of the first `{` at depth 0. Returns one past it.
    fn skip_to_item_end(&self, mut i: usize) -> usize {
        let mut depth = 0i32;
        while i < self.toks.len() {
            match self.text(i) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return match_close(self.toks, i, "{", "}") + 1,
                ";" if depth == 0 => return i + 1,
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Matches generic angle brackets starting at a `<`; `->` arrows
    /// inside bounds (`F: Fn() -> T`) do not close a level. Returns
    /// the index of the closing `>`.
    fn match_angles(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < self.toks.len() {
            match self.text(i) {
                "<" => depth += 1,
                ">" if self.text(i.wrapping_sub(1)) == "-" => {} // `->`
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                // `(…)` inside bounds may contain `<`-free commas etc.
                "(" => i = match_close(self.toks, i, "(", ")"),
                ";" | "{" => return i.saturating_sub(1), // malformed: bail
                _ => {}
            }
            i += 1;
        }
        self.toks.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&lex(src))
    }

    #[test]
    fn free_impl_and_nested_fns_are_found() {
        let src = r#"
            pub fn top(a: u32, b: &[f32]) -> u32 { helper(a) }
            fn helper(x: u32) -> u32 { x }
            struct S;
            impl S {
                pub fn method(&self, n: usize) -> usize {
                    fn inner(k: usize) -> usize { k }
                    inner(n)
                }
            }
            impl Clone for S { fn clone(&self) -> S { S } }
            mod detail { pub fn nested_mod_fn() {} }
        "#;
        let parsed = parse(src);
        let names: Vec<(&str, Option<&str>, bool)> = parsed
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.self_type.as_deref(), f.is_pub))
            .collect();
        assert_eq!(
            names,
            vec![
                ("top", None, true),
                ("helper", None, false),
                ("method", Some("S"), true),
                ("inner", Some("S"), false),
                ("clone", Some("S"), false),
                ("nested_mod_fn", None, true),
            ]
        );
        assert_eq!(parsed.fns[0].params, vec!["a", "b"]);
        assert_eq!(parsed.fns[2].params, vec!["n"]);
    }

    #[test]
    fn generics_with_fn_bounds_parse() {
        let src = "pub fn map<F: Fn(u32) -> u32>(f: F, xs: &[u32]) -> u32 { f(xs[0]) }";
        let parsed = parse(src);
        assert_eq!(parsed.fns.len(), 1);
        assert_eq!(parsed.fns[0].name, "map");
        assert_eq!(parsed.fns[0].params, vec!["f", "xs"]);
        assert!(parsed.fns[0].body.is_some());
    }

    #[test]
    fn pub_crate_is_not_public() {
        let parsed = parse("pub(crate) fn internal() {} pub fn external() {}");
        assert!(!parsed.fns[0].is_pub);
        assert!(parsed.fns[1].is_pub);
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "#[test]\nfn check() { assert!(true); }\npub fn real() {}";
        let parsed = parse(src);
        assert!(parsed.fns[0].is_test);
        assert!(!parsed.fns[1].is_test);
    }

    #[test]
    fn fixed_array_params_are_detected() {
        let src =
            "pub fn hash(v: &[u32; 3], xs: &[u32], n: usize, m: [f32; 16]) -> u32 { n as u32 }";
        let parsed = parse(src);
        assert_eq!(parsed.fns[0].params, vec!["v", "xs", "n", "m"]);
        assert_eq!(parsed.fns[0].fixed_arrays, vec!["v", "m"]);
    }

    #[test]
    fn static_mut_is_recorded() {
        let parsed = parse("static mut COUNTER: u32 = 0;\nstatic OK: u32 = 0;");
        assert_eq!(parsed.static_muts, vec!["COUNTER"]);
    }

    #[test]
    fn trait_default_methods_get_trait_self_type() {
        let src = "trait Kernel { fn run(&self); fn twice(&self) { self.run(); self.run(); } }";
        let parsed = parse(src);
        assert_eq!(parsed.fns.len(), 2);
        assert_eq!(parsed.fns[0].name, "run");
        assert!(parsed.fns[0].body.is_none());
        assert_eq!(parsed.fns[1].name, "twice");
        assert_eq!(parsed.fns[1].self_type.as_deref(), Some("Kernel"));
    }
}
