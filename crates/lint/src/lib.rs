//! `fusion3d-lint` — workspace-aware static analysis for the
//! Fusion-3D reproduction.
//!
//! The cycle-accurate simulator's headline guarantee is that its
//! numbers are reproducible: bitwise-identical across runs, machines,
//! and worker counts. That guarantee is cheap to break silently — one
//! `HashMap` iteration in a result path, one `thread_rng()`, one
//! narrowing cast in an energy total — so this crate machine-checks
//! the discipline on every change. It lexes the workspace's Rust
//! sources with a small hand-rolled tokenizer (no `syn`; the repo
//! builds offline), recovers the item skeleton (fns, impls, modules)
//! with a lightweight parser, builds a conservative workspace call
//! graph, and enforces twelve repo-specific rules — token-local
//! (D1–D3, P1, O1), interprocedural (P2, H2), parallel-closure (D5),
//! interval analysis over the accounting files (A2 overflow and casts,
//! A3 units, A4 widths), and suppression hygiene (U1). The full
//! catalogue with rationale and examples lives in `docs/LINTS.md`.
//!
//! Legitimate exceptions carry a per-line escape hatch **with a
//! mandatory reason** (U1 reports reasonless or unused suppressions):
//!
//! ```text
//! let forced = std::env::var(THREADS_ENV); // lint: allow(d2): worker count never affects results
//! ```
//!
//! The directive suppresses the named rule(s) on its own line and the
//! line directly below, so it can trail the offending expression or
//! sit above a rustfmt-wrapped statement. Plain `//` comment lines
//! directly below a directive extend its coverage to the line after
//! them, so a reason that needs two comment lines still guards the
//! code underneath. The catalogue in `docs/LINTS.md` documents the
//! full syntax.
//!
//! Known over-approximations, by design: any attribute containing the
//! identifier `test` (e.g. `#[cfg(test)]`, `#[test]`) marks its item
//! as test code and exempts it from every rule; `cfg(not(test))` is
//! unused in this workspace and would be exempted too. Out-of-line
//! `#[cfg(test)] mod x;` declarations are not followed — test modules
//! live inline or under `tests/`, which is never scanned. The call
//! graph resolves names without type inference, so reachability is an
//! over-approximation (see [`graph`]).

#![warn(missing_docs)]

mod absint;
pub mod graph;
pub mod interproc;
pub mod intervals;
pub mod lexer;
pub mod parse;
pub mod rules;

pub use rules::Finding;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lexed + parsed source file of the workspace under analysis.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Token stream and allow directives.
    pub lexed: lexer::LexedFile,
    /// Item skeleton (fns, consts, structs, statics).
    pub parsed: parse::ParsedFile,
}

/// The outcome of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by path, line, rule.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Lints a set of in-memory sources as one workspace: token-local
/// rules per file, then the call-graph rules (P2/H2/D5) across all
/// of them, then U1 over the accumulated suppression usage. Findings
/// come back sorted by (path, line, rule) — the canonical order every
/// consumer (CLI, tests) relies on.
pub fn lint_sources(sources: &[(String, String)]) -> Report {
    let mut files: Vec<SourceFile> = sources
        .iter()
        .map(|(path, source)| {
            let lexed = lexer::lex(source);
            let parsed = parse::parse_file(&lexed);
            SourceFile { path: path.clone(), lexed, parsed }
        })
        .collect();
    let mut parsed: Vec<&mut parse::ParsedFile> = files.iter_mut().map(|f| &mut f.parsed).collect();
    parse::resolve_array_aliases(&mut parsed);
    let files = files;
    let mut usage: Vec<rules::AllowUsage> =
        files.iter().map(|_| rules::AllowUsage::new()).collect();

    let mut findings = Vec::new();
    for (idx, file) in files.iter().enumerate() {
        findings.extend(rules::check_file(&file.path, &file.lexed, &mut usage[idx]));
    }
    let graph = graph::CallGraph::build(&files);
    findings.extend(interproc::check(&files, &graph, &mut usage));
    findings.extend(absint::check(&files, &graph, &mut usage));
    findings.extend(interproc::check_unused(&files, &usage));

    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Report { findings, files_scanned: files.len() }
}

/// Lints a single source string as if it lived at `rel_path`
/// (workspace-relative, forward slashes). The path determines which
/// rules apply — `crates/core/src/energy.rs` is an accounting file
/// under A2–A4, `crates/bench/src/lib.rs` is exempt from D2, and so
/// on. The interprocedural rules run over the one-file "workspace".
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    lint_sources(&[(rel_path.to_string(), source.to_string())]).findings
}

/// Lints every library source tree in the workspace rooted at `root`:
/// `crates/*/src/**/*.rs` plus the façade crate's `src/`. Test
/// directories (`tests/`, `benches/`, `examples/`) are intentionally
/// out of scope, as is `vendor/`.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for krate in sorted_entries(&crates_dir)? {
            let src = krate.join("src");
            if src.is_dir() {
                collect_rs_files(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs_files(&root_src, &mut files)?;
    }

    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let source = fs::read_to_string(&path)?;
        sources.push((relative_path(root, &path), source));
    }
    Ok(lint_sources(&sources))
}

/// Locates the workspace root at or above `start` by looking for the
/// directory that contains both `Cargo.toml` and `crates/`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    // Normalize to forward slashes so scopes match on every platform.
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?.into_iter().map(|e| e.path()).collect();
    entries.sort();
    Ok(entries)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in sorted_entries(dir)? {
        if entry.is_dir() {
            collect_rs_files(&entry, out)?;
        } else if entry.extension().is_some_and(|ext| ext == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}
