//! CLI for `fusion3d-lint`.
//!
//! ```text
//! fusion3d-lint [--root <dir>]
//! ```
//!
//! Prints one `path:line [RULE] message` row per finding plus a
//! summary. Exit status is 0 when the workspace is clean, 1 when any
//! finding exists, 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use fusion3d_lint::{find_workspace_root, lint_workspace};

const USAGE: &str = "usage: fusion3d-lint [--root <dir>]";

fn parse_args() -> Result<Option<PathBuf>, String> {
    let mut root = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let value = args.next().ok_or("--root requires a path argument")?;
                root = Some(PathBuf::from(value));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(root)
}

fn main() -> ExitCode {
    let root = match parse_args() {
        Ok(Some(root)) => root,
        Ok(None) => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(&cwd) {
                Some(root) => root,
                None => {
                    eprintln!("fusion3d-lint: no workspace root at or above the current directory");
                    return ExitCode::from(2);
                }
            }
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    let report = match lint_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("fusion3d-lint: {err}");
            return ExitCode::from(2);
        }
    };

    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for finding in &report.findings {
        println!("{}:{} [{}] {}", finding.path, finding.line, finding.rule, finding.message);
        *counts.entry(finding.rule).or_insert(0) += 1;
    }
    let by_rule: Vec<String> = counts.iter().map(|(rule, n)| format!("{n} {rule}")).collect();
    eprintln!(
        "fusion3d-lint: {} finding(s){} across {} file(s)",
        report.findings.len(),
        if by_rule.is_empty() { String::new() } else { format!(" ({})", by_rule.join(", ")) },
        report.files_scanned
    );
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
