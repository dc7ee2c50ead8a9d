//! The real workspace must be lint-clean: every rule (D1–D3, D5, P1–P2,
//! H2, O1, A2–A4, U1) holds over `crates/*/src` and the façade crate,
//! with the handful of documented exceptions carrying allow comments.
//! A violation introduced anywhere in the workspace fails this test
//! (and the `fusion3d-lint` step in `scripts/check.sh`).

use std::path::Path;

#[test]
fn workspace_has_zero_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = match fusion3d_lint::lint_workspace(&root) {
        Ok(report) => report,
        Err(err) => panic!("failed to scan workspace: {err}"),
    };
    assert!(
        report.files_scanned > 90,
        "walker lost track of the source tree: only {} files scanned",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "workspace must be lint-clean, found:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {}:{} [{}] {}", f.path, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
