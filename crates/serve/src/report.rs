//! The `results/serve.json` document.
//!
//! Schema (`"schema": "edgepc-serve"`, version 1; EP005 pins both):
//!
//! ```json
//! {
//!   "schema": "edgepc-serve",
//!   "schema_version": 1,
//!   "engine": {"workers": W, "queue_capacity": C, "max_batch": B},
//!   "load": {"requests": N, "rate_rps": R, "pattern": "burst",
//!            "seed": S, "points": P, "deadline_ms": D | null},
//!   "outcome": {"submitted": n, "completed": n, "shed": n,
//!               "expired": n, "lost": n},
//!   "slo": {"completed_in_deadline": n, "deadline_misses": n,
//!           "shed": n, "attainment": A},
//!   "wall_ms": T,
//!   "throughput_rps": X,
//!   "latency_ms": {"p50": .., "p95": .., "p99": .., "mean": ..,
//!                  "min": .., "max": ..} | null,
//!   "queue_wait_ms": { same shape } | null,
//!   "batch": {"mean_size": .., "max_size": n}
//! }
//! ```
//!
//! Consumers must ignore unknown fields (additive evolution); removing or
//! renaming fields bumps `schema_version`. The `slo` block was added
//! under version 1: `deadline_misses` counts requests that expired in
//! queue *plus* completions that beat the engine but not their deadline,
//! and `attainment` is `completed_in_deadline / (submitted + shed)` —
//! shed load counts against the SLO. `engine.linger_us` left version 1
//! with the batch linger it described; nothing read it.

use std::io;
use std::path::{Path, PathBuf};

use edgepc_perf::quantiles_json;
use edgepc_trace::json::fmt_f64;

use crate::config::EngineConfig;
use crate::loadgen::{LoadgenConfig, LoadgenOutcome};

/// The document's `schema` field.
pub const SCHEMA_NAME: &str = "edgepc-serve";
/// The current `schema_version`.
pub const SCHEMA_VERSION: u32 = 1;

/// Renders one load-generation run as the versioned serve.json document.
pub fn serve_json(engine: &EngineConfig, load: &LoadgenConfig, out: &LoadgenOutcome) -> String {
    let deadline_ms = load
        .deadline
        .map(|d| fmt_f64(d.as_secs_f64() * 1000.0))
        .unwrap_or_else(|| "null".to_string());
    format!(
        "{{\n\
         \"schema\":\"{SCHEMA_NAME}\",\n\
         \"schema_version\":{SCHEMA_VERSION},\n\
         \"engine\":{{\"workers\":{},\"queue_capacity\":{},\"max_batch\":{}}},\n\
         \"load\":{{\"requests\":{},\"rate_rps\":{},\"pattern\":\"{}\",\"seed\":{},\"points\":{},\"deadline_ms\":{}}},\n\
         \"outcome\":{{\"submitted\":{},\"completed\":{},\"shed\":{},\"expired\":{},\"lost\":{}}},\n\
         \"slo\":{{\"completed_in_deadline\":{},\"deadline_misses\":{},\"shed\":{},\"attainment\":{}}},\n\
         \"wall_ms\":{},\n\
         \"throughput_rps\":{},\n\
         \"latency_ms\":{},\n\
         \"queue_wait_ms\":{},\n\
         \"batch\":{{\"mean_size\":{},\"max_size\":{}}}\n\
         }}\n",
        engine.workers,
        engine.queue_capacity,
        engine.max_batch,
        load.requests,
        fmt_f64(load.rate_rps),
        load.pattern.name(),
        load.seed,
        load.points,
        deadline_ms,
        out.submitted,
        out.completed,
        out.shed,
        out.expired,
        out.lost,
        out.completed_in_deadline,
        out.expired + out.completed.saturating_sub(out.completed_in_deadline),
        out.shed,
        fmt_f64(out.attainment()),
        fmt_f64(out.wall.as_secs_f64() * 1000.0),
        fmt_f64(out.throughput_rps),
        quantiles_json(&out.latency_ms),
        quantiles_json(&out.queue_wait_ms),
        fmt_f64(out.mean_batch),
        out.max_batch,
    )
}

/// The workspace's shared `results/` directory.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Writes `doc` as `<dir>/<name>`, creating the directory if needed.
pub fn write_into(dir: &Path, name: &str, doc: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, doc)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use edgepc_perf::Stats;
    use edgepc_trace::json::parse;

    fn outcome() -> LoadgenOutcome {
        LoadgenOutcome {
            submitted: 10,
            completed: 8,
            shed: 1,
            expired: 1,
            lost: 0,
            completed_in_deadline: 7,
            wall: Duration::from_millis(120),
            throughput_rps: 66.7,
            latency_ms: Some(Stats::from_samples_ms(&[4.0, 5.0, 6.0, 9.0])),
            queue_wait_ms: Some(Stats::from_samples_ms(&[1.0, 1.5])),
            mean_batch: 2.5,
            max_batch: 4,
        }
    }

    #[test]
    fn document_parses_and_pins_schema() {
        let doc = serve_json(
            &EngineConfig::default(),
            &LoadgenConfig::default(),
            &outcome(),
        );
        let v = parse(&doc).expect("valid json");
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(SCHEMA_NAME));
        assert_eq!(
            v.get("schema_version").and_then(|s| s.as_f64()),
            Some(f64::from(SCHEMA_VERSION))
        );
        let latency = v.get("latency_ms").expect("latency block");
        assert_eq!(latency.get("p50").and_then(|x| x.as_f64()), Some(5.5));
        assert_eq!(latency.get("p99").and_then(|x| x.as_f64()), Some(9.0));
        let engine = v.get("engine").expect("engine block");
        assert_eq!(engine.get("max_batch").and_then(|x| x.as_f64()), Some(4.0));
        let out = v.get("outcome").expect("outcome block");
        assert_eq!(out.get("shed").and_then(|x| x.as_f64()), Some(1.0));
        let slo = v.get("slo").expect("slo block");
        assert_eq!(
            slo.get("completed_in_deadline").and_then(|x| x.as_f64()),
            Some(7.0)
        );
        // expired (1) + late completions (8 - 7 = 1).
        assert_eq!(
            slo.get("deadline_misses").and_then(|x| x.as_f64()),
            Some(2.0)
        );
        // 7 in-deadline completions over 11 offered (10 submitted + 1 shed).
        let attainment = slo
            .get("attainment")
            .and_then(|x| x.as_f64())
            .expect("ratio");
        assert!((attainment - 7.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn empty_latency_serializes_as_null() {
        let mut o = outcome();
        o.latency_ms = None;
        o.queue_wait_ms = None;
        let doc = serve_json(&EngineConfig::default(), &LoadgenConfig::default(), &o);
        let v = parse(&doc).expect("valid json");
        assert!(v.get("latency_ms").is_some());
        assert_eq!(v.get("latency_ms").and_then(|x| x.as_f64()), None);
    }
}
