//! End-to-end runs over the fixture mini-workspaces in
//! `tests/fixtures/`: the violating tree must trip every rule (EP000
//! through EP008) and the clean tree none, both through the library API
//! and through the `lint_all` binary.

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
    for expected in [
        "EP000", "EP001", "EP002", "EP003", "EP004", "EP005", "EP006", "EP007", "EP008",
    ] {
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
    // EP001: both the unwrap and the panic! in the hot-crate source.
    assert!(has("EP001", "crates/geom/src/lib.rs", "unwrap"));
    assert!(has("EP001", "crates/geom/src/lib.rs", "panic!"));
    // EP002: the float compare outside tests.
    assert!(has("EP002", "crates/geom/src/lib.rs", "=="));
    // EP003: the span-less public function in a span-covered file.
    assert!(has("EP003", "crates/sample/src/upsample.rs", "interpolate"));
    // EP004: both the versioned workspace dep and the registry dep.
    assert!(has("EP004", "Cargo.toml", "serde"));
    assert!(has("EP004", "crates/geom/Cargo.toml", "rand"));
    // EP005: the unknown schema version and the unparsable file.
    assert!(has("EP005", "results/BENCH.json", "schema_version"));
    assert!(report
        .violations
        .iter()
        .any(|d| d.rule == "EP005" && d.file == "results/broken.json"));
    // EP000: the deliberately stale waiver.
    assert!(has("EP000", "LINT.toml", "crates/morton/src/lib.rs"));
    // EP006: the descending acquisition, the undeclared mutex, the stale
    // site declaration, and the ghost ranking entry.
    assert!(has(
        "EP006",
        "crates/serve/src/queue.rs",
        "lock order violation"
    ));
    assert!(has(
        "EP006",
        "crates/serve/src/queue.rs",
        "undeclared mutex acquisition `self.count.lock()`"
    ));
    assert!(has("EP006", "LINT.toml", "stale lock site"));
    assert!(has("EP006", "LINT.toml", "fixture.ghost"));
    // EP007: hash-order leak, wall-clock read, and the par-fold race.
    assert!(has("EP007", "crates/geom/src/detmap.rs", "hash-order leak"));
    assert!(has("EP007", "crates/geom/src/detmap.rs", "Instant::now"));
    assert!(has("EP007", "crates/geom/src/detmap.rs", "par_for"));
    // EP008: both planted allocations in the designated fn, and none in
    // the undesignated sibling.
    assert!(has("EP008", "crates/serve/src/record.rs", "`format!`"));
    assert!(has("EP008", "crates/serve/src/record.rs", "`.clone()`"));
    assert!(!report
        .violations
        .iter()
        .any(|d| d.rule == "EP008" && d.item.as_deref() == Some("render_cold")));
    // EP008 in the fused-executor plant: the per-call buffer, the staged
    // copy, and nothing from the undesignated plan constructor.
    assert!(has("EP008", "crates/serve/src/fused.rs", "`vec!`"));
    assert!(has("EP008", "crates/serve/src/fused.rs", "`.collect()`"));
    assert!(!report
        .violations
        .iter()
        .any(|d| d.rule == "EP008" && d.item.as_deref() == Some("plan_cold")));
}

#[test]
fn rules_filter_runs_only_the_named_rules() {
    let report = edgepc_lint::run_workspace_with(
        &fixture("violating"),
        Some(&["EP006".to_string(), "EP008".to_string()]),
    )
    .expect("filtered run");
    let rules: BTreeSet<&str> = report.violations.iter().map(|d| d.rule).collect();
    assert!(rules.contains("EP006"));
    assert!(rules.contains("EP008"));
    // Skipped rules report nothing — including EP000 for the stale EP001
    // waiver, which is exempt while its rule is not running.
    for skipped in [
        "EP000", "EP001", "EP002", "EP003", "EP004", "EP005", "EP007",
    ] {
        assert!(!rules.contains(skipped), "unexpected {skipped} diagnostic");
    }
    // Only the enabled rules (plus parse) are timed.
    assert!(report.timings_us.iter().any(|(r, _)| *r == "EP006"));
    assert!(!report.timings_us.iter().any(|(r, _)| *r == "EP007"));

    let unknown = edgepc_lint::run_workspace_with(&fixture("violating"), Some(&["EP999".into()]));
    assert!(unknown.is_err(), "unknown rule names must be rejected");
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
    assert!(report.files_scanned >= 6, "sources + manifests + results");
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
    for rule in ["EP000", "EP001", "EP002", "EP003", "EP004", "EP005"] {
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

#[test]
fn lint_all_binary_honors_rules_filter() {
    let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join("filtered_lint.json");
    let out = Command::new(env!("CARGO_BIN_EXE_lint_all"))
        .arg("--root")
        .arg(fixture("violating"))
        .arg("--rules")
        .arg("EP001")
        .arg("--json")
        .arg(&json)
        .output()
        .expect("spawn lint_all --rules");
    assert_eq!(out.status.code(), Some(1), "EP001 findings must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("[EP001]"),
        "stdout missing EP001:\n{stdout}"
    );
    for absent in ["EP002", "EP005", "EP000"] {
        assert!(
            !stdout.contains(&format!("[{absent}]")),
            "filtered run leaked {absent} diagnostics:\n{stdout}"
        );
    }
    // The summary carries per-rule wall time for the rules that ran.
    assert!(
        stdout.contains("EP001 ") && stdout.contains("ms"),
        "summary missing per-rule timing:\n{stdout}"
    );
}

/// The report `lint_all` emits must itself satisfy the EP005 schema pin:
/// a second invocation in `--results` mode validates the first run's
/// lint.json, which is exactly the check `ci.sh` performs after the gate.
#[test]
fn emitted_lint_json_passes_the_ep005_schema_pin() {
    let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join("self_check_lint.json");
    run_lint_all(&fixture("clean"), &json);
    let out = Command::new(env!("CARGO_BIN_EXE_lint_all"))
        .arg("--results")
        .arg(&json)
        .output()
        .expect("spawn lint_all --results");
    assert_eq!(
        out.status.code(),
        Some(0),
        "lint.json failed its own schema pin; stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // The timing breakdown rides along under the same schema version.
    let doc = edgepc_trace::json::parse(&std::fs::read_to_string(&json).expect("lint.json"))
        .expect("valid report json");
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
