//! The `results/net.json` document.
//!
//! Schema (`"schema": "edgepc-net"`, version 1; `tests/artifacts.rs` pins both):
//!
//! ```json
//! {
//!   "schema": "edgepc-net",
//!   "schema_version": 1,
//!   "load": {"connections": C, "requests": N, "rate_rps": R,
//!            "pattern": "burst", "seed": S, "points": P, "tenants": T,
//!            "deadline_ms": D, "policy": "least_loaded",
//!            "hedge_after_ms": H | null,
//!            "chaos_slow_shard_ms": M | null,
//!            "workers_per_shard": W, "queue_capacity": Q},
//!   "sweep": [
//!     {"shards": K, "wall_ms": T, "throughput_rps": X,
//!      "outcome": {"sent": n, "completed": n, "shed": n, "expired": n,
//!                  "rejected": n, "lost": n},
//!      "hedges": {"attempted": n, "wins": n, "hedged_responses": n},
//!      "slo": {"in_deadline": n, "attainment": A},
//!      "latency_ms": {"p50": .., "p95": .., "p99": .., "mean": ..,
//!                     "min": .., "max": ..} | null,
//!      "per_shard": [{"shard": i, "completed": n,
//!                     "throughput_rps": X}, ..]}
//!   ]
//! }
//! ```
//!
//! Latencies are measured **client-side** and so include wire time, not
//! just engine time; `attainment` is `in_deadline / sent` (shed and lost
//! requests count against the SLO). Consumers must ignore unknown fields
//! (additive evolution); removing or renaming fields bumps
//! `schema_version`.

use edgepc_perf::quantiles_json;
use edgepc_trace::json::fmt_f64;

use crate::netgen::{NetReport, NetRow};

/// The document's `schema` field.
pub const SCHEMA_NAME: &str = "edgepc-net";
/// The current `schema_version`.
pub const SCHEMA_VERSION: u32 = 1;

fn opt_ms(d: Option<std::time::Duration>) -> String {
    d.map(|d| fmt_f64(d.as_secs_f64() * 1000.0))
        .unwrap_or_else(|| "null".to_string())
}

fn row_json(row: &NetRow) -> String {
    let wall_s = row.outcome.wall.as_secs_f64();
    let per_shard = row
        .outcome
        .per_shard
        .iter()
        .enumerate()
        .map(|(shard, &completed)| {
            let rps = if wall_s > 0.0 {
                completed as f64 / wall_s
            } else {
                0.0
            };
            format!(
                "{{\"shard\":{shard},\"completed\":{completed},\"throughput_rps\":{}}}",
                fmt_f64(rps)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"shards\":{},\"wall_ms\":{},\"throughput_rps\":{},\
         \"outcome\":{{\"sent\":{},\"completed\":{},\"shed\":{},\"expired\":{},\"rejected\":{},\"lost\":{}}},\
         \"hedges\":{{\"attempted\":{},\"wins\":{},\"hedged_responses\":{}}},\
         \"slo\":{{\"in_deadline\":{},\"attainment\":{}}},\
         \"latency_ms\":{},\
         \"per_shard\":[{}]}}",
        row.shards,
        fmt_f64(wall_s * 1000.0),
        fmt_f64(row.throughput_rps()),
        row.outcome.sent,
        row.outcome.completed,
        row.outcome.errors.shed,
        row.outcome.errors.expired,
        row.outcome.errors.other,
        row.outcome.lost,
        row.hedges_attempted,
        row.hedge_wins,
        row.outcome.hedged_responses,
        row.outcome.in_deadline,
        fmt_f64(row.attainment()),
        quantiles_json(&row.latency()),
        per_shard,
    )
}

/// Renders a sweep as the versioned net.json document.
pub fn net_json(report: &NetReport) -> String {
    let cfg = &report.config;
    let rows = report
        .rows
        .iter()
        .map(|r| format!("  {}", row_json(r)))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n\
         \"schema\":\"{SCHEMA_NAME}\",\n\
         \"schema_version\":{SCHEMA_VERSION},\n\
         \"load\":{{\"connections\":{},\"requests\":{},\"rate_rps\":{},\"pattern\":\"{}\",\
         \"seed\":{},\"points\":{},\"tenants\":{},\"deadline_ms\":{},\"policy\":\"{}\",\
         \"hedge_after_ms\":{},\"chaos_slow_shard_ms\":{},\"workers_per_shard\":{},\"queue_capacity\":{}}},\n\
         \"sweep\":[\n{}\n]\n\
         }}\n",
        cfg.connections,
        cfg.requests,
        fmt_f64(cfg.rate_rps),
        cfg.pattern.name(),
        cfg.seed,
        cfg.points,
        cfg.tenants,
        fmt_f64(cfg.deadline.as_secs_f64() * 1000.0),
        cfg.policy.name(),
        opt_ms(cfg.hedge_after),
        opt_ms(cfg.chaos_slow_shard),
        cfg.workers_per_shard,
        cfg.queue_capacity,
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use edgepc_trace::json::parse;

    use crate::netgen::{ClientOutcome, ErrTally, NetgenConfig};

    fn report() -> NetReport {
        NetReport {
            config: NetgenConfig::default(),
            rows: vec![NetRow {
                shards: 2,
                hedges_attempted: 3,
                hedge_wins: 2,
                outcome: ClientOutcome {
                    sent: 10,
                    completed: 8,
                    in_deadline: 7,
                    hedged_responses: 2,
                    errors: ErrTally {
                        shed: 1,
                        expired: 1,
                        other: 0,
                    },
                    lost: 0,
                    per_shard: vec![5, 3],
                    latencies_ms: vec![4.0, 5.0, 6.0, 9.0],
                    wall: Duration::from_millis(200),
                },
            }],
        }
    }

    #[test]
    fn document_parses_and_pins_schema() {
        let doc = net_json(&report());
        let v = parse(&doc).expect("valid json");
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(SCHEMA_NAME));
        assert_eq!(
            v.get("schema_version").and_then(|s| s.as_f64()),
            Some(f64::from(SCHEMA_VERSION))
        );
        let sweep = v.get("sweep").and_then(|s| s.as_arr()).expect("sweep");
        assert_eq!(sweep.len(), 1);
        let row = &sweep[0];
        assert_eq!(row.get("shards").and_then(|x| x.as_f64()), Some(2.0));
        let hedges = row.get("hedges").expect("hedges block");
        assert_eq!(hedges.get("attempted").and_then(|x| x.as_f64()), Some(3.0));
        assert_eq!(hedges.get("wins").and_then(|x| x.as_f64()), Some(2.0));
        let slo = row.get("slo").expect("slo block");
        let attainment = slo
            .get("attainment")
            .and_then(|x| x.as_f64())
            .expect("ratio");
        assert!((attainment - 0.7).abs() < 1e-9);
        let per_shard = row
            .get("per_shard")
            .and_then(|s| s.as_arr())
            .expect("per_shard");
        assert_eq!(per_shard.len(), 2);
        assert_eq!(
            per_shard[0].get("completed").and_then(|x| x.as_f64()),
            Some(5.0)
        );
        let latency = row.get("latency_ms").expect("latency block");
        assert_eq!(latency.get("p50").and_then(|x| x.as_f64()), Some(5.5));
    }

    #[test]
    fn empty_latency_serializes_as_null() {
        let mut r = report();
        r.rows[0].outcome.latencies_ms.clear();
        let doc = net_json(&r);
        let v = parse(&doc).expect("valid json");
        let sweep = v.get("sweep").and_then(|s| s.as_arr()).expect("sweep");
        assert!(sweep[0].get("latency_ms").is_some());
        assert_eq!(sweep[0].get("latency_ms").and_then(|x| x.as_f64()), None);
    }
}
