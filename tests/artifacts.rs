//! The std-only policy and the pinned artifacts.
//!
//! `Cargo.lock` must exist and no `[[package]]` in it may have a
//! `source =` line. Cargo writes one for every registry or git package
//! and none for path crates, so the check holds exactly when the build
//! needs nothing but the workspace (the "runs on any edge device" and
//! offline-CI guarantees). Every committed `results/*.json` must parse,
//! and each pinned basename must carry its emitter's current `schema`
//! and `schema_version`, read from the emitter's own constants.
//! `BENCH.json`'s `model.compiled.*` rows must also carry their
//! `arena_bytes`.
//!
//! The `#[ignore]`d tests hold the artifacts the `ci.sh` smokes write
//! under `target/` to the same pins; each fails if its file is missing:
//!
//! ```text
//! cargo test --test artifacts -- --ignored --exact serve_smoke_json
//! ```

// Test-support helpers sit outside #[test] fns, where clippy.toml's
// allow-expect-in-tests does not reach.
#![allow(clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

use edgepc_trace::json::{parse, Value};

/// `(basename, schema, schema_version)` of every pinned artifact.
const PINS: &[(&str, &str, u64)] = &[
    (
        "BENCH.json",
        edgepc_perf::SCHEMA_NAME,
        edgepc_perf::SCHEMA_VERSION,
    ),
    (
        "serve.json",
        edgepc_serve::report::SCHEMA_NAME,
        edgepc_serve::report::SCHEMA_VERSION as u64,
    ),
    (
        "net.json",
        edgepc_net::report::SCHEMA_NAME,
        edgepc_net::report::SCHEMA_VERSION as u64,
    ),
    (
        "flightrec.json",
        edgepc_trace::flight::SCHEMA_NAME,
        edgepc_trace::flight::SCHEMA_VERSION as u64,
    ),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every package in `lock` that does not come from the workspace
/// (`None`: the file is missing).
fn lock_violations(lock: Option<&str>) -> Vec<String> {
    let Some(lock) = lock else {
        return vec!["no Cargo.lock at the workspace root".to_string()];
    };
    let mut out = Vec::new();
    let (mut in_package, mut name) = (false, "");
    for (i, line) in lock.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[[package]]";
            name = "";
            continue;
        }
        match line.split_once('=').map(|(k, v)| (k.trim(), v.trim())) {
            Some(("name", v)) => name = v.trim_matches('"'),
            Some(("source", v)) if in_package => {
                out.push(format!("Cargo.lock:{}: `{name}` comes from {v}", i + 1));
            }
            _ => {}
        }
    }
    out
}

/// What is wrong with the artifact whose basename is `name`.
fn artifact_violations(name: &str, src: &str) -> Vec<String> {
    let doc = match parse(src) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("{name}:{}: not JSON: {}", e.line, e.message)],
    };
    let Some(&(_, schema, version)) = PINS.iter().find(|(n, ..)| *n == name) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let found = doc.get("schema").and_then(Value::as_str);
    if found != Some(schema) {
        out.push(format!("{name}: schema {found:?}, expected {schema:?}"));
    }
    let found = doc.get("schema_version").and_then(Value::as_f64);
    if found != Some(version as f64) {
        out.push(format!(
            "{name}: schema_version {found:?}, expected {version}"
        ));
    }
    if name == "BENCH.json" {
        let rows = doc.get("scenarios").and_then(Value::as_arr).unwrap_or(&[]);
        for row in rows {
            let id = row.get("id").and_then(Value::as_str).unwrap_or("");
            let arena = row.get("arena_bytes").and_then(Value::as_f64);
            if id.starts_with("model.compiled.") && arena.is_none() {
                out.push(format!("{name}: {id} carries no arena_bytes"));
            }
        }
    }
    out
}

#[test]
fn cargo_lock_names_only_workspace_packages() {
    let lock = fs::read_to_string(root().join("Cargo.lock")).ok();
    assert!(lock.is_some(), "no Cargo.lock at the workspace root");
    assert_eq!(lock_violations(lock.as_deref()), Vec::<String>::new());
}

#[test]
fn committed_results_parse_and_carry_their_emitters_schemas() {
    let mut names = Vec::new();
    for entry in fs::read_dir(root().join("results")).expect("results/") {
        let path = entry.expect("results/ entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let name = path.file_name().and_then(|n| n.to_str()).expect("name");
        let src = fs::read_to_string(&path).expect("readable artifact");
        assert_eq!(artifact_violations(name, &src), Vec::<String>::new());
        names.push(name.to_string());
    }
    for pinned in ["BENCH.json", "serve.json", "net.json"] {
        assert!(
            names.iter().any(|n| n == pinned),
            "results/{pinned} missing"
        );
    }
}

/// Each planted fault fails its check.
#[test]
fn planted_faults_fail_the_checks() {
    let lock = "version = 4\n\n[[package]]\nname = \"edgepc-geom\"\nversion = \"0.1.0\"\n";
    assert!(lock_violations(Some(lock)).is_empty());
    let registry = format!(
        "{lock}\n[[package]]\nname = \"rand\"\nversion = \"0.8.5\"\n\
         source = \"registry+https://github.com/rust-lang/crates.io-index\"\n"
    );
    let got = lock_violations(Some(&registry));
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].starts_with("Cargo.lock:10: `rand`"), "{got:?}");
    assert_eq!(lock_violations(None).len(), 1);

    let bench = |body: &str| artifact_violations("BENCH.json", body);
    let current = format!(
        "{{\"schema\":\"{}\",\"schema_version\":{},\"scenarios\":[]}}",
        edgepc_perf::SCHEMA_NAME,
        edgepc_perf::SCHEMA_VERSION
    );
    assert!(bench(&current).is_empty());
    assert_eq!(bench("{\"latency_ms\": [1.0, 2.0,]}").len(), 1);
    let unknown = current.replace(
        &format!(":{},", edgepc_perf::SCHEMA_VERSION),
        &format!(":{},", edgepc_perf::SCHEMA_VERSION + 1),
    );
    assert_eq!(bench(&unknown).len(), 1, "{unknown}");
    let unmarked = format!(
        "{{\"schema_version\":{},\"scenarios\":[]}}",
        edgepc_perf::SCHEMA_VERSION
    );
    assert_eq!(bench(&unmarked).len(), 1);
    let compiled = |row: &str| current.replace("[]", &format!("[{row}]"));
    let with_arena = compiled("{\"id\":\"model.compiled.x\",\"arena_bytes\":4096}");
    assert!(bench(&with_arena).is_empty(), "{with_arena}");
    assert_eq!(bench(&compiled("{\"id\":\"model.compiled.x\"}")).len(), 1);
    // Unpinned artifacts need only parse.
    assert!(artifact_violations("fig03.json", "{\"anything\": [1, 2]}").is_empty());
}

/// Holds a file a `ci.sh` smoke generated to its pin.
fn check_generated(rel: &str) {
    let path: PathBuf = root().join(rel);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{rel}: {e}; run the ci.sh smoke that writes it"));
    let name = path.file_name().and_then(|n| n.to_str()).expect("name");
    assert_eq!(artifact_violations(name, &src), Vec::<String>::new());
}

#[test]
#[ignore = "reads target/serve.json, written by ci.sh --serve-smoke"]
fn serve_smoke_json() {
    check_generated("target/serve.json");
}

#[test]
#[ignore = "reads target/net.json, written by ci.sh --net-smoke"]
fn net_smoke_json() {
    check_generated("target/net.json");
}

#[test]
#[ignore = "reads target/obs/serve.json, written by ci.sh --obs-smoke"]
fn obs_smoke_serve_json() {
    check_generated("target/obs/serve.json");
}

#[test]
#[ignore = "reads target/obs/flightrec.json, written by ci.sh --obs-smoke"]
fn obs_smoke_flightrec_json() {
    check_generated("target/obs/flightrec.json");
}
