//! Drives an open-loop load against the serving engine and writes
//! `results/serve.json`.
//!
//! ```text
//! loadgen [--requests N] [--workers W] [--capacity C] [--batch B]
//!         [--rate RPS] [--pattern uniform|poisson|burst] [--seed S]
//!         [--deadline-ms D|none] [--points P]
//!         [--smoke] [--out PATH]
//!         [--telemetry ADDR] [--telemetry-addr-file PATH]
//!         [--hold-ms N] [--flightrec PATH]
//! ```
//!
//! `--smoke` shrinks the run for CI (64 requests, small clouds) while
//! keeping the shape — bursty arrivals against a deliberately small queue
//! so shedding and deadline handling are actually exercised.
//!
//! `--telemetry ADDR` serves the live telemetry endpoint (see
//! `edgepc_serve::telemetry`) for the duration of the run;
//! `--telemetry-addr-file PATH` writes the bound address there, so
//! scripts can use an ephemeral port (`--telemetry 127.0.0.1:0`).
//! `--hold-ms N` keeps the engine and endpoint alive after the run for up
//! to N ms — or until a client sends the `quit` verb — so external tools
//! can query steady-state snapshots. `--flightrec PATH` arms the flight
//! recorder's automatic dump triggers to write there.
#![warn(clippy::panic, clippy::unreachable)]
#![allow(clippy::print_stderr)]

use std::time::Duration;

use edgepc_serve::{
    report, run_loadgen, ArrivalPattern, Engine, EngineConfig, LoadgenConfig, ModelSpec,
    TelemetryServer,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(summary) => eprintln!("{summary}"),
        Err(msg) => {
            eprintln!("loadgen: {msg}");
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
    // Default capacity is deliberately smaller than the default burst
    // size (32), so a stock run demonstrates load shedding rather than
    // unbounded queueing.
    let mut engine_cfg = EngineConfig::new(2);
    engine_cfg.queue_capacity = 16;
    let mut load_cfg = LoadgenConfig::default();
    let mut out: Option<std::path::PathBuf> = None;
    let mut telemetry: Option<String> = None;
    let mut addr_file: Option<std::path::PathBuf> = None;
    let mut hold = Duration::ZERO;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--requests" => load_cfg.requests = parse_value(arg, it.next())?,
            "--workers" => engine_cfg.workers = parse_value(arg, it.next())?,
            "--capacity" => engine_cfg.queue_capacity = parse_value(arg, it.next())?,
            "--batch" => engine_cfg.max_batch = parse_value(arg, it.next())?,
            "--rate" => load_cfg.rate_rps = parse_value(arg, it.next())?,
            "--pattern" => {
                let name: String = parse_value(arg, it.next())?;
                load_cfg.pattern = match name.as_str() {
                    "uniform" => ArrivalPattern::Uniform,
                    "poisson" => ArrivalPattern::Poisson,
                    "burst" => ArrivalPattern::Burst { size: 32 },
                    other => return Err(format!("--pattern: unknown pattern {other:?}")),
                };
            }
            "--seed" => load_cfg.seed = parse_value(arg, it.next())?,
            "--deadline-ms" => {
                let raw: String = parse_value(arg, it.next())?;
                load_cfg.deadline = if raw == "none" {
                    None
                } else {
                    let ms: u64 = raw
                        .parse()
                        .map_err(|_| format!("--deadline-ms: cannot parse {raw:?}"))?;
                    Some(Duration::from_millis(ms))
                };
            }
            "--points" => load_cfg.points = parse_value(arg, it.next())?,
            "--smoke" => {
                load_cfg.requests = 64;
                load_cfg.points = 128;
                load_cfg.rate_rps = 600.0;
                load_cfg.pattern = ArrivalPattern::Burst { size: 32 };
                engine_cfg.queue_capacity = 8;
            }
            "--out" => {
                let path: String = parse_value(arg, it.next())?;
                out = Some(std::path::PathBuf::from(path));
            }
            "--telemetry" => telemetry = Some(parse_value(arg, it.next())?),
            "--telemetry-addr-file" => {
                let path: String = parse_value(arg, it.next())?;
                addr_file = Some(std::path::PathBuf::from(path));
            }
            "--hold-ms" => hold = Duration::from_millis(parse_value(arg, it.next())?),
            "--flightrec" => {
                let path: String = parse_value(arg, it.next())?;
                engine_cfg.flight.dump_path = Some(std::path::PathBuf::from(path));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if engine_cfg.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    if load_cfg.points < 64 {
        return Err("--points must be at least 64 (tiny PointNet++ floor)".to_string());
    }

    let engine = Engine::new(engine_cfg.clone(), vec![ModelSpec::pointnetpp_tiny(4)]);
    let server = match &telemetry {
        Some(addr) => {
            let server = TelemetryServer::start(&engine, addr)
                .map_err(|e| format!("--telemetry: bind {addr}: {e}"))?;
            if let Some(path) = &addr_file {
                std::fs::write(path, format!("{}\n", server.local_addr()))
                    .map_err(|e| format!("--telemetry-addr-file: write {}: {e}", path.display()))?;
            }
            eprintln!("telemetry endpoint on {}", server.local_addr());
            Some(server)
        }
        None => None,
    };
    let outcome = run_loadgen(&engine, &load_cfg);
    if let Some(server) = &server {
        if !hold.is_zero() {
            // Hold the engine and endpoint open so external tools can read
            // steady-state snapshots; a `quit` verb releases us early.
            server.wait_quit(hold);
        }
    }
    drop(server);
    engine.shutdown();

    let doc = report::serve_json(&engine_cfg, &load_cfg, &outcome);
    let path = match out {
        Some(path) => {
            let dir = path.parent().unwrap_or_else(|| std::path::Path::new("."));
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .ok_or_else(|| format!("--out: no file name in {}", path.display()))?;
            report::write_into(dir, name, &doc).map_err(|e| format!("write {name}: {e}"))?
        }
        None => report::write_into(&report::results_dir(), "serve.json", &doc)
            .map_err(|e| format!("write serve.json: {e}"))?,
    };

    let p = |s: &Option<edgepc_perf::Stats>, f: fn(&edgepc_perf::Stats) -> f64| {
        s.as_ref().map(f).unwrap_or(f64::NAN)
    };
    Ok(format!(
        "{} requests: {} completed, {} shed, {} expired, {} lost in {:.0} ms\n\
         slo: {}/{} in deadline, attainment {:.3}\n\
         throughput {:.1} rps; latency p50 {:.2} ms p95 {:.2} ms p99 {:.2} ms; \
         mean batch {:.2} (max {})\nwrote {}",
        load_cfg.requests,
        outcome.completed,
        outcome.shed,
        outcome.expired,
        outcome.lost,
        outcome.wall.as_secs_f64() * 1000.0,
        outcome.completed_in_deadline,
        outcome.offered(),
        outcome.attainment(),
        outcome.throughput_rps,
        p(&outcome.latency_ms, |s| s.median_ms),
        p(&outcome.latency_ms, |s| s.p95_ms),
        p(&outcome.latency_ms, |s| s.p99_ms),
        outcome.mean_batch,
        outcome.max_batch,
        path.display(),
    ))
}
