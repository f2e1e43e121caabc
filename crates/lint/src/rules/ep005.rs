//! **EP005 — results-schema hygiene.**
//!
//! Committed `results/*.json` artifacts are inputs to the exact
//! `BENCH.json` gate and the paper-figure tooling; a file that no longer
//! parses, or a pinned artifact whose schema drifted without a version
//! bump, poisons every downstream comparison. This rule re-parses each
//! committed artifact with the workspace's one JSON parser
//! (`edgepc_trace::json`) and pins the well-known artifacts to their
//! declared schemas (see [`PINNED_SCHEMAS`]): `BENCH.json` from
//! `edgepc-perf`, `serve.json` from `edgepc-serve`, and `flightrec.json`
//! from the flight recorder in `edgepc-trace`.

use edgepc_trace::json::{self, Value};

use crate::diag::Diagnostic;

/// BENCH.json schema versions this linter understands. Bump alongside
/// `edgepc-perf`'s emitter when the schema changes shape.
pub const KNOWN_BENCH_VERSIONS: &[i64] = &[2];

/// serve.json schema versions this linter understands. Bump alongside
/// `edgepc-serve`'s emitter when the schema changes shape.
pub const KNOWN_SERVE_VERSIONS: &[i64] = &[1];

/// flightrec.json schema versions this linter understands. Bump alongside
/// `edgepc_trace::flight`'s emitter when the schema changes shape.
pub const KNOWN_FLIGHTREC_VERSIONS: &[i64] = &[1];

/// net.json schema versions this linter understands. Bump alongside
/// `edgepc_net::report`'s emitter when the schema changes shape.
pub const KNOWN_NET_VERSIONS: &[i64] = &[1];

/// lint.json schema versions this linter understands. Bump alongside
/// `LintReport::to_json` when the report changes shape — the linter's own
/// output is a schema-checked artifact like any other.
pub const KNOWN_LINT_VERSIONS: &[i64] = &[2];

/// Artifacts pinned by basename: `(basename, schema, known versions)`.
pub const PINNED_SCHEMAS: &[(&str, &str, &[i64])] = &[
    ("BENCH.json", "edgepc-bench", KNOWN_BENCH_VERSIONS),
    ("serve.json", "edgepc-serve", KNOWN_SERVE_VERSIONS),
    (
        "flightrec.json",
        "edgepc-flightrec",
        KNOWN_FLIGHTREC_VERSIONS,
    ),
    ("lint.json", "edgepc-lint", KNOWN_LINT_VERSIONS),
    ("net.json", "edgepc-net", KNOWN_NET_VERSIONS),
];

/// Checks one results artifact. `rel` is the path shown in diagnostics
/// (repo-relative for committed artifacts); pinning is keyed on the
/// basename, so a freshly generated `target/serve.json` is held to the
/// same schema as the committed `results/serve.json`.
pub fn check_results_file(rel: &str, src: &str) -> Vec<Diagnostic> {
    let doc = match json::parse(src) {
        Ok(d) => d,
        Err(e) => {
            return vec![Diagnostic::new(
                "EP005",
                rel,
                e.line,
                0,
                format!(
                    "committed results artifact does not parse as JSON: {}",
                    e.message
                ),
            )
            .with_suggestion("re-run the emitting harness or delete the stale artifact")];
        }
    };
    let basename = rel.rsplit('/').next().unwrap_or(rel);
    let Some(&(name, schema, versions)) = PINNED_SCHEMAS.iter().find(|(n, _, _)| *n == basename)
    else {
        return Vec::new();
    };

    let mut out = Vec::new();
    match doc.get("schema").and_then(Value::as_str) {
        Some(found) if found == schema => {}
        Some(other) => out.push(Diagnostic::new(
            "EP005",
            rel,
            0,
            0,
            format!("{name} declares schema {other:?}, expected {schema:?}"),
        )),
        None => out.push(Diagnostic::new(
            "EP005",
            rel,
            0,
            0,
            format!("{name} is missing the `schema` marker"),
        )),
    }
    let version = doc
        .get("schema_version")
        .and_then(Value::as_f64)
        .and_then(|v| {
            let iv = v as i64;
            // Versions are small integers; reject fractional values.
            if (v - iv as f64).abs() < 1e-9 {
                Some(iv)
            } else {
                None
            }
        });
    match version {
        Some(v) if versions.contains(&v) => {}
        Some(v) => out.push(
            Diagnostic::new(
                "EP005",
                rel,
                0,
                0,
                format!("{name} schema_version {v} is unknown (known: {versions:?})"),
            )
            .with_suggestion("teach edgepc-lint the new version when the emitter schema is bumped"),
        ),
        None => out.push(Diagnostic::new(
            "EP005",
            rel,
            0,
            0,
            format!("{name} is missing an integer `schema_version`"),
        )),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_bench_and_plain_results_pass() {
        let bench = r#"{"schema":"edgepc-bench","schema_version":2,"scenarios":[]}"#;
        assert_eq!(check_results_file("results/BENCH.json", bench), Vec::new());
        assert_eq!(
            check_results_file("results/fig03.json", r#"{"anything": [1, 2]}"#),
            Vec::new()
        );
    }

    #[test]
    fn unparsable_artifact_flagged_with_line() {
        let got = check_results_file("results/broken.json", "{\n  \"a\": [1,\n}");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 3);
    }

    #[test]
    fn bench_schema_drift_flagged() {
        let wrong_schema = r#"{"schema":"other","schema_version":2}"#;
        let wrong_version = r#"{"schema":"edgepc-bench","schema_version":99}"#;
        let missing = r#"{"scenarios":[]}"#;
        assert_eq!(
            check_results_file("results/BENCH.json", wrong_schema).len(),
            1
        );
        assert_eq!(
            check_results_file("results/BENCH.json", wrong_version).len(),
            1
        );
        assert_eq!(check_results_file("results/BENCH.json", missing).len(), 2);
    }

    #[test]
    fn flightrec_json_is_pinned() {
        let ok = r#"{"schema":"edgepc-flightrec","schema_version":1,"events":[],"spans":[]}"#;
        assert_eq!(check_results_file("target/flightrec.json", ok), Vec::new());
        let drifted = r#"{"schema":"edgepc-flightrec","schema_version":7,"events":[]}"#;
        assert_eq!(
            check_results_file("target/flightrec.json", drifted).len(),
            1
        );
    }

    #[test]
    fn serve_json_is_pinned_by_basename_anywhere() {
        let ok = r#"{"schema":"edgepc-serve","schema_version":1,"outcome":{}}"#;
        assert_eq!(check_results_file("results/serve.json", ok), Vec::new());
        assert_eq!(check_results_file("target/serve.json", ok), Vec::new());
        let drifted = r#"{"schema":"edgepc-bench","schema_version":1}"#;
        assert_eq!(check_results_file("target/serve.json", drifted).len(), 1);
        assert_eq!(check_results_file("results/serve.json", "{}").len(), 2);
    }
}
