//! The workspace must pass its own lint: every EP rule clean on the real
//! tree, with every inline waiver matching a live diagnostic. This is the
//! same run `ci.sh` performs via `lint_all`.

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up");
    let report = edgepc_lint::run_workspace(root).expect("workspace run");
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the run actually covered the tree.
    assert!(
        report.files_scanned > 100,
        "scanned {}",
        report.files_scanned
    );
    assert!(report.waived > 0, "the inline waivers should be in use");
}
