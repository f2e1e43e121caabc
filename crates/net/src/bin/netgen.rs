//! Drives the multi-connection open-loop client against a sharded front
//! end and writes `results/net.json`.
//!
//! ```text
//! netgen [--shards 1,2,3] [--connections C] [--requests N] [--rate RPS]
//!        [--pattern uniform|poisson|burst] [--seed S] [--points P]
//!        [--tenants T] [--deadline-ms D] [--policy least|hash]
//!        [--hedge-ms H] [--workers W] [--capacity Q] [--batch B]
//!        [--chaos-slow-ms M] [--smoke] [--out PATH] [--addr ADDR]
//! ```
//!
//! By default each sweep entry self-hosts: it builds that many engine
//! shards behind a router and front end on an ephemeral loopback port and
//! drives them over real sockets, so the report's hedge counts come from
//! the run's own isolated metrics registry. `--addr ADDR` instead drives
//! one row against an already-running server (shard count unknown to the
//! client; hedge accounting then reflects only response flags).
//!
//! `--hedge-ms 0` disables hedging. `--chaos-slow-ms M` stalls shard 0's
//! workers by M ms per batch in self-hosted rows — the degraded-operation
//! row CI's chaos checks look at. `--smoke` shrinks the run for CI (one
//! 2-shard row, 96 requests, small clouds).
#![warn(clippy::panic, clippy::unreachable)]
#![allow(clippy::print_stderr)]

use std::time::Duration;

use edgepc_net::{report, run_against, run_sweep, NetReport, NetRow, NetgenConfig, RoutePolicy};
use edgepc_serve::ArrivalPattern;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(summary) => eprintln!("{summary}"),
        Err(msg) => {
            eprintln!("netgen: {msg}");
            std::process::exit(2);
        }
    }
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

fn run(args: &[String]) -> Result<String, String> {
    let mut cfg = NetgenConfig::default();
    let mut out: Option<std::path::PathBuf> = None;
    let mut addr: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => {
                let raw: String = parse_value(arg, it.next())?;
                cfg.shards = raw
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|_| format!("--shards: cannot parse {s:?}"))
                    })
                    .collect::<Result<_, _>>()?;
                if cfg.shards.is_empty() || cfg.shards.contains(&0) {
                    return Err("--shards needs positive counts, e.g. 1,2,3".to_string());
                }
            }
            "--connections" => cfg.connections = parse_value(arg, it.next())?,
            "--requests" => cfg.requests = parse_value(arg, it.next())?,
            "--rate" => cfg.rate_rps = parse_value(arg, it.next())?,
            "--pattern" => {
                let name: String = parse_value(arg, it.next())?;
                cfg.pattern = match name.as_str() {
                    "uniform" => ArrivalPattern::Uniform,
                    "poisson" => ArrivalPattern::Poisson,
                    "burst" => ArrivalPattern::Burst { size: 32 },
                    other => return Err(format!("--pattern: unknown pattern {other:?}")),
                };
            }
            "--seed" => cfg.seed = parse_value(arg, it.next())?,
            "--points" => cfg.points = parse_value(arg, it.next())?,
            "--tenants" => cfg.tenants = parse_value(arg, it.next())?,
            "--deadline-ms" => {
                cfg.deadline = Duration::from_millis(parse_value(arg, it.next())?);
            }
            "--policy" => {
                let name: String = parse_value(arg, it.next())?;
                cfg.policy = match name.as_str() {
                    "least" | "least_loaded" => RoutePolicy::LeastLoaded,
                    "hash" | "tenant_hash" => RoutePolicy::TenantHash,
                    other => return Err(format!("--policy: unknown policy {other:?}")),
                };
            }
            "--hedge-ms" => {
                let ms: u64 = parse_value(arg, it.next())?;
                cfg.hedge_after = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--workers" => cfg.workers_per_shard = parse_value(arg, it.next())?,
            "--capacity" => cfg.queue_capacity = parse_value(arg, it.next())?,
            "--batch" => cfg.max_batch = parse_value(arg, it.next())?,
            "--chaos-slow-ms" => {
                let ms: u64 = parse_value(arg, it.next())?;
                cfg.chaos_slow_shard = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--smoke" => cfg = NetgenConfig::smoke(),
            "--out" => {
                let path: String = parse_value(arg, it.next())?;
                out = Some(std::path::PathBuf::from(path));
            }
            "--addr" => addr = Some(parse_value(arg, it.next())?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if cfg.connections == 0 || cfg.requests == 0 {
        return Err("--connections and --requests must be at least 1".to_string());
    }
    if cfg.points < 64 {
        return Err("--points must be at least 64 (tiny PointNet++ floor)".to_string());
    }

    let sweep = match &addr {
        Some(addr) => {
            let addr = addr
                .parse()
                .map_err(|_| format!("--addr: cannot parse {addr:?}"))?;
            let outcome = run_against(addr, &cfg).map_err(|e| format!("drive {addr}: {e}"))?;
            // External server: shard count unknown, hedge accounting from
            // response flags only.
            NetReport {
                config: cfg.clone(),
                rows: vec![NetRow {
                    shards: outcome.per_shard.len(),
                    hedges_attempted: outcome.hedged_responses as u64,
                    hedge_wins: outcome.hedged_responses as u64,
                    outcome,
                }],
            }
        }
        None => run_sweep(&cfg).map_err(|e| format!("sweep: {e}"))?,
    };

    let doc = report::net_json(&sweep);
    let path = match out {
        Some(path) => {
            let dir = path.parent().unwrap_or_else(|| std::path::Path::new("."));
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .ok_or_else(|| format!("--out: no file name in {}", path.display()))?;
            edgepc_serve::report::write_into(dir, name, &doc)
                .map_err(|e| format!("write {name}: {e}"))?
        }
        None => {
            edgepc_serve::report::write_into(&edgepc_serve::report::results_dir(), "net.json", &doc)
                .map_err(|e| format!("write net.json: {e}"))?
        }
    };

    let mut lines = Vec::with_capacity(sweep.rows.len() + 1);
    for row in &sweep.rows {
        let lat = row.latency();
        let p = |f: fn(&edgepc_perf::Stats) -> f64| lat.as_ref().map(f).unwrap_or(f64::NAN);
        lines.push(format!(
            "shards {}: {}/{} completed ({} shed, {} expired, {} rejected, {} lost) in {:.0} ms; \
             {:.1} rps; p50 {:.2} ms p95 {:.2} ms p99 {:.2} ms; \
             hedges {}/{} won; attainment {:.3}",
            row.shards,
            row.outcome.completed,
            row.outcome.sent,
            row.outcome.errors.shed,
            row.outcome.errors.expired,
            row.outcome.errors.other,
            row.outcome.lost,
            row.outcome.wall.as_secs_f64() * 1000.0,
            row.throughput_rps(),
            p(|s| s.median_ms),
            p(|s| s.p95_ms),
            p(|s| s.p99_ms),
            row.hedge_wins,
            row.hedges_attempted,
            row.attainment(),
        ));
    }
    lines.push(format!("wrote {}", path.display()));
    Ok(lines.join("\n"))
}
