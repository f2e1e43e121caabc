//! The canonical `BENCH.json` document: an exact, deterministic record.
//!
//! # Schema (version 3)
//!
//! ```json
//! {
//!   "schema": "edgepc-bench",
//!   "schema_version": 2,
//!   "scenarios": [
//!     {
//!       "id": "search.window.w128.n8192.q2048.k32",
//!       "points": 8192,
//!       "ops": { ... OpCounts ... },
//!       "modeled_ms": null | N,
//!       "modeled_mj": null | N,
//!       "quality": {"audit.search.recall_at_k": 0.67, ...},
//!       "arena_bytes": N
//!     }
//!   ]
//! }
//! ```
//!
//! `arena_bytes` (new in version 3) is the executor arena a compiled
//! forward needs, and only the `model.compiled.*` rows carry it.
//!
//! Every value is a function of the code and the seeded inputs alone —
//! no wall time — so a fresh recording is byte-identical to the committed
//! one at any thread count, and `ci.sh` gates it with `diff`. One
//! scenario per line, so the diff names the scenario that moved.

use edgepc_trace::json::{escape, fmt_f64};

use crate::runner::ScenarioResult;

/// The `schema` field every BENCH.json document carries.
pub const SCHEMA_NAME: &str = "edgepc-bench";
/// The schema version this code emits.
pub const SCHEMA_VERSION: u64 = 3;

/// Renders scenario results as a BENCH.json document (schema above).
pub fn bench_json(results: &[ScenarioResult]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            let quality: Vec<String> = r
                .quality
                .iter()
                .map(|(name, value)| format!("\"{}\":{}", escape(name), fmt_f64(*value)))
                .collect();
            let opt = |v: Option<f64>| v.map(fmt_f64).unwrap_or_else(|| "null".into());
            let arena = r
                .arena_bytes
                .map(|b| format!(",\"arena_bytes\":{b}"))
                .unwrap_or_default();
            format!(
                " {{\"id\":\"{}\",\"points\":{},\"ops\":{},\"modeled_ms\":{},\
                 \"modeled_mj\":{},\"quality\":{{{}}}{arena}}}",
                escape(&r.id),
                r.points,
                r.ops.to_json(),
                opt(r.modeled_ms),
                opt(r.modeled_mj),
                quality.join(","),
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"{SCHEMA_NAME}\",\"schema_version\":{SCHEMA_VERSION},\"scenarios\":[\n{}\n]}}\n",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgepc_geom::OpCounts;
    use edgepc_trace::json::{parse, Value};

    #[test]
    fn emitted_document_parses_one_row_per_line() {
        let result = |id: &str| ScenarioResult {
            id: id.to_string(),
            points: 8192,
            ops: OpCounts {
                dist3: 123,
                ..OpCounts::ZERO
            },
            modeled_ms: Some(4.5),
            modeled_mj: None,
            quality: vec![("audit.search.recall_at_k".to_string(), 0.9375)],
            arena_bytes: id.starts_with('b').then_some(4096),
        };
        let doc = bench_json(&[result("a.scenario"), result("b.scenario")]);
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SCHEMA_NAME));
        assert_eq!(v.get("schema_version").unwrap().as_f64(), Some(3.0));
        let rows = v.get("scenarios").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        let s = &rows[0];
        assert_eq!(s.get("points").unwrap().as_f64(), Some(8192.0));
        assert_eq!(
            s.get("ops").unwrap().get("dist3").unwrap().as_f64(),
            Some(123.0)
        );
        assert_eq!(s.get("modeled_ms").unwrap().as_f64(), Some(4.5));
        assert_eq!(s.get("modeled_mj"), Some(&Value::Null));
        assert_eq!(
            s.get("quality")
                .unwrap()
                .get("audit.search.recall_at_k")
                .unwrap()
                .as_f64(),
            Some(0.9375)
        );
        assert_eq!(s.get("arena_bytes"), None);
        assert_eq!(rows[1].get("arena_bytes").unwrap().as_f64(), Some(4096.0));
        // A diff of two recordings names the scenario on every changed line.
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("\"a.scenario\"") && lines[2].contains("\"b.scenario\""));
    }
}
