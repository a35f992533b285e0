//! The determinism contract as a workspace test: `arvis-lint` must report
//! zero findings on the real tree. Anything it flags is either a genuine
//! determinism hazard to fix or a justified exception to pragma-annotate —
//! never something to ignore.

use arvis::core::json::to_string;
use arvis_lint::{lint_workspace, LintConfig};

#[test]
fn workspace_has_zero_lint_findings() {
    let report = lint_workspace(&LintConfig::workspace()).expect("walk the workspace");
    assert!(
        report.files_scanned > 80,
        "suspiciously few files scanned ({}); did the walk root move?",
        report.files_scanned
    );
    assert!(
        !report.has_findings(),
        "the workspace must lint clean:\n{}",
        report.render_text()
    );
}

#[test]
fn workspace_report_json_is_deterministic() {
    let a = lint_workspace(&LintConfig::workspace()).expect("first walk");
    let b = lint_workspace(&LintConfig::workspace()).expect("second walk");
    assert_eq!(
        to_string(&a).expect("the report prints"),
        to_string(&b).expect("the report prints"),
        "two walks of the same tree must serialize byte-identically"
    );
}
