//! The `fusion3d-lint` binary's one gate, run against scratch
//! workspaces: exit 0 when clean, 1 with one row per finding, 2 on a
//! usage error.

use std::path::{Path, PathBuf};
use std::process::Output;

/// A scratch workspace named `name` holding `source` as its only file,
/// `crates/core/src/<file>`.
fn workspace(name: &str, file: &str, source: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-cli").join(name);
    let src = root.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("create the scratch workspace");
    std::fs::write(root.join("Cargo.toml"), "").expect("write Cargo.toml");
    std::fs::write(src.join(file), source).expect("write the source file");
    root
}

fn lint(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_fusion3d-lint"))
        .args(args)
        .output()
        .expect("run fusion3d-lint")
}

fn root_arg(root: &Path) -> [&str; 2] {
    ["--root", root.to_str().expect("UTF-8 scratch path")]
}

#[test]
fn a_clean_workspace_exits_0() {
    let root = workspace("clean", "lib.rs", "pub fn count(xs: &[u32]) -> usize { xs.len() }\n");
    let out = lint(&root_arg(&root));
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
}

#[test]
fn a_finding_exits_1_with_its_row() {
    let root = workspace("finding", "bad.rs", "pub fn f(xs: &[u32], i: usize) -> u32 { xs[i] }\n");
    let out = lint(&root_arg(&root));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("crates/core/src/bad.rs:1 [P2] "), "{stdout}");
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
}

#[test]
fn usage_errors_exit_2() {
    let root = workspace("usage", "lib.rs", "pub fn one() -> u32 { 1 }\n");
    let [flag, path] = root_arg(&root);
    for args in [
        vec![flag, path, "--baseline", "lint_baseline.jsonl"],
        vec![flag, path, "--json"],
        vec!["--write-baseline", "out.jsonl"],
        vec![flag],
    ] {
        let out = lint(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    }
}
