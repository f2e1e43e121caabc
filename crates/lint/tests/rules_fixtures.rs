//! End-to-end runs over the fixture mini-workspaces in
//! `tests/fixtures/`: the violating tree must trip every rule in
//! `ALL_RULES` and the clean tree none, both through the library API and
//! through the `lint_all` binary.

// Test-support helpers sit outside #[test] fns, where clippy.toml's
// allow-expect-in-tests does not reach.
#![allow(clippy::expect_used)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use edgepc_trace::json::Value;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn violating_fixture_trips_every_rule() {
    let report = edgepc_lint::run_workspace(&fixture("violating")).expect("fixture run");
    let rules: BTreeSet<&str> = report.violations.iter().map(|d| d.rule).collect();
    for &expected in edgepc_lint::ALL_RULES {
        assert!(
            rules.contains(expected),
            "expected a {expected} violation, got rules {rules:?}:\n{}",
            report
                .violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    assert!(!report.is_clean());
}

#[test]
fn violating_fixture_pinpoints_the_planted_sites() {
    let report = edgepc_lint::run_workspace(&fixture("violating")).expect("fixture run");
    let has = |rule: &str, file: &str, needle: &str| {
        report
            .violations
            .iter()
            .any(|d| d.rule == rule && d.file == file && d.message.contains(needle))
    };
    // EP002: the float compare outside tests.
    assert!(has("EP002", "crates/geom/src/lib.rs", "=="));
    // EP000: the deliberately stale waiver, at its own comment line.
    assert!(report.violations.iter().any(|d| d.rule == "EP000"
        && d.file == "crates/geom/src/lib.rs"
        && d.line == 15
        && d.message.contains("unused waiver: EP002 on `midpoint`")));
    // EP006: the descending and re-entrant claims, the unranked mutex,
    // and the ghost variant of the fixture's own `enum Lock`.
    assert!(has(
        "EP006",
        "crates/serve/src/queue.rs",
        "lock order violation: `Lock::Low` acquired while holding `Lock::High`"
    ));
    assert!(has(
        "EP006",
        "crates/serve/src/queue.rs",
        "reentrant acquisition: `Lock::Low`"
    ));
    assert!(has(
        "EP006",
        "crates/serve/src/queue.rs",
        "unranked mutex acquisition `self.count.lock()`"
    ));
    assert!(has(
        "EP006",
        "crates/geom/src/guard.rs",
        "ghost lock `Lock::Ghost`"
    ));
    // EP007: the par-fold race.
    assert!(has(
        "EP007",
        "crates/geom/src/detmap.rs",
        "`.fetch_add()` inside a `par_for`"
    ));
}

#[test]
fn clean_fixture_is_clean() {
    let report = edgepc_lint::run_workspace(&fixture("clean")).expect("fixture run");
    assert!(
        report.is_clean(),
        "clean fixture reported:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(report.files_scanned, 4, "the fixture's Rust sources");
    // The one waiver, on `is_origin`'s exact compare, is in use.
    assert_eq!(report.waived, 1);
}

/// No rule switches itself off by omission. A tree with no `enum Lock`
/// still gets EP006, against an empty ranking, so its one mutex
/// acquisition is unranked.
#[test]
fn missing_enum_lock_still_gets_checked() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no_lock_config");
    let src = root.join("crates/serve/src");
    std::fs::create_dir_all(&src).expect("create fixture tree");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn bump(m: &std::sync::Mutex<u32>) {\n    \
         *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner) += 1;\n}\n",
    )
    .expect("write fixture source");
    let report = edgepc_lint::run_workspace(&root).expect("fixture run");
    assert!(
        report.violations.iter().any(|d| d.rule == "EP006"
            && d.file == "crates/serve/src/lib.rs"
            && d.message.contains("unranked mutex acquisition `m.lock()`")),
        "expected an unranked acquisition, got {:?}",
        report.violations
    );
}

/// The workspace root is the nearest ancestor holding a `Cargo.lock`;
/// without one, `lint_all` refuses to guess.
#[test]
fn workspace_root_is_the_nearest_cargo_lock() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("root_search");
    let src = root.join("crates/x/src");
    std::fs::create_dir_all(&src).expect("create fixture tree");
    std::fs::write(root.join("Cargo.lock"), "version = 4\n").expect("write lock");
    assert_eq!(edgepc_lint::find_workspace_root(&src), Some(root));

    // The system temp dir sits outside any workspace.
    let outside = std::env::temp_dir();
    assert_eq!(edgepc_lint::find_workspace_root(&outside), None);
    let out = Command::new(env!("CARGO_BIN_EXE_lint_all"))
        .current_dir(&outside)
        .output()
        .expect("spawn lint_all");
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no workspace root found"), "{stdout}");
}

fn run_lint_all(root: &Path, json_out: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lint_all"))
        .arg("--root")
        .arg(root)
        .arg("--json")
        .arg(json_out)
        .output()
        .expect("spawn lint_all")
}

#[test]
fn lint_all_binary_fails_on_violating_fixture() {
    let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join("violating_lint.json");
    let out = run_lint_all(&fixture("violating"), &json);
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in edgepc_lint::ALL_RULES {
        assert!(stdout.contains(rule), "stdout missing {rule}:\n{stdout}");
    }
    // The machine-readable report parses and agrees it is not clean.
    let doc = edgepc_trace::json::parse(&std::fs::read_to_string(&json).expect("lint.json"))
        .expect("valid report json");
    assert_eq!(
        doc.get("clean"),
        Some(&Value::Bool(false)),
        "report must say clean=false"
    );
}

/// The report `lint_all` writes carries the crate's schema constants,
/// with the timing breakdown under the same version.
#[test]
fn emitted_lint_json_carries_the_schema_constants() {
    let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join("self_check_lint.json");
    run_lint_all(&fixture("clean"), &json);
    let doc = edgepc_trace::json::parse(&std::fs::read_to_string(&json).expect("lint.json"))
        .expect("valid report json");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(edgepc_lint::SCHEMA_NAME)
    );
    assert_eq!(
        doc.get("schema_version").and_then(Value::as_f64),
        Some(f64::from(edgepc_lint::SCHEMA_VERSION))
    );
    assert!(doc.get("timings_us").is_some(), "report missing timings_us");
}

#[test]
fn lint_all_binary_passes_on_clean_fixture() {
    let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clean_lint.json");
    let out = run_lint_all(&fixture("clean"), &json);
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean fixture must exit 0; stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let doc = edgepc_trace::json::parse(&std::fs::read_to_string(&json).expect("lint.json"))
        .expect("valid report json");
    assert_eq!(doc.get("clean"), Some(&Value::Bool(true)));
}
