//! Command-line client for the serving runtime's live telemetry endpoint.
//!
//! ```text
//! obsctl ADDR metrics              # line-oriented metric snapshot
//! obsctl ADDR registry             # JSON registry snapshot
//! obsctl ADDR flightrec            # flight recorder window as JSON
//! obsctl ADDR quit                 # release a --hold-ms loadgen run
//! obsctl ADDR check [--out DIR]    # query all three snapshot verbs and
//!                                  # schema-check each; optionally save
//!                                  # them as DIR/{metrics.txt,
//!                                  # registry.json,flightrec.json}
//! ```
//!
//! The protocol is one verb line per TCP connection (see
//! `edgepc_serve::telemetry`); `check` is what `ci.sh --obs-smoke` runs —
//! it exits nonzero unless every verb answers with a well-formed
//! snapshot, making "the endpoint works under live load" a CI invariant.
#![warn(clippy::panic, clippy::unreachable)]
#![allow(clippy::print_stderr, clippy::print_stdout)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use edgepc_trace::flight;
use edgepc_trace::json::{parse, Value};

/// Connect/read timeout for one query: generous for CI, finite so a dead
/// endpoint fails the check instead of hanging it.
const TIMEOUT: Duration = Duration::from_secs(10);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(summary) => {
            if !summary.is_empty() {
                eprintln!("{summary}");
            }
        }
        Err(msg) => {
            eprintln!("obsctl: {msg}");
            std::process::exit(2);
        }
    }
}

/// One query against the endpoint: send the verb line, read to EOF.
fn query(addr: &str, verb: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(TIMEOUT)))
        .map_err(|e| format!("configure socket: {e}"))?;
    stream
        .write_all(format!("{verb}\n").as_bytes())
        .map_err(|e| format!("send {verb:?}: {e}"))?;
    let mut out = String::new();
    stream
        .read_to_string(&mut out)
        .map_err(|e| format!("read {verb} response: {e}"))?;
    Ok(out)
}

fn parsed(verb: &str, body: &str) -> Result<Value, String> {
    parse(body).map_err(|e| format!("{verb}: response is not valid JSON: {e}"))
}

/// Schema checks for the three snapshot verbs — shallow on purpose: they
/// pin the shape CI relies on, not every field.
fn check_metrics(body: &str) -> Result<usize, String> {
    let mut lines = 0usize;
    for line in body.lines() {
        let kind = line.split(' ').next().unwrap_or("");
        if !matches!(kind, "counter" | "gauge" | "hist") {
            return Err(format!("metrics: unexpected line {line:?}"));
        }
        lines += 1;
    }
    if lines == 0 {
        return Err("metrics: empty snapshot".to_string());
    }
    Ok(lines)
}

fn check_registry(body: &str) -> Result<(), String> {
    let v = parsed("registry", body)?;
    for key in ["counters", "gauges", "histograms"] {
        if v.get(key).is_none() {
            return Err(format!("registry: missing {key:?} block"));
        }
    }
    Ok(())
}

fn check_flightrec(body: &str) -> Result<usize, String> {
    let v = parsed("flightrec", body)?;
    if v.get("schema").and_then(|s| s.as_str()) != Some(flight::SCHEMA_NAME) {
        return Err("flightrec: wrong or missing schema tag".to_string());
    }
    if v.get("schema_version").and_then(|s| s.as_f64()) != Some(f64::from(flight::SCHEMA_VERSION)) {
        return Err("flightrec: wrong or missing schema_version".to_string());
    }
    let events = v
        .get("events")
        .and_then(|e| e.as_arr().map(<[Value]>::len))
        .ok_or_else(|| "flightrec: missing events array".to_string())?;
    if v.get("spans").and_then(Value::as_arr).is_none() {
        return Err("flightrec: missing spans array".to_string());
    }
    Ok(events)
}

fn save(dir: &std::path::Path, name: &str, body: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::fs::write(dir.join(name), body).map_err(|e| format!("write {name}: {e}"))
}

fn run(args: &[String]) -> Result<String, String> {
    let addr = args
        .first()
        .ok_or("usage: obsctl ADDR metrics|registry|flightrec|quit|check [--out DIR]")?;
    let verb = args.get(1).map(String::as_str).unwrap_or("check");
    match verb {
        "metrics" | "registry" | "flightrec" | "quit" => {
            let body = query(addr, verb)?;
            print!("{body}");
            Ok(String::new())
        }
        "check" => {
            let out_dir = match args.get(2).map(String::as_str) {
                Some("--out") => Some(std::path::PathBuf::from(
                    args.get(3).ok_or("--out needs a directory")?,
                )),
                Some(other) => return Err(format!("unknown check flag {other:?}")),
                None => None,
            };
            let metrics = query(addr, "metrics")?;
            let lines = check_metrics(&metrics)?;
            let registry = query(addr, "registry")?;
            check_registry(&registry)?;
            let flightrec = query(addr, "flightrec")?;
            let events = check_flightrec(&flightrec)?;
            if let Some(dir) = &out_dir {
                save(dir, "metrics.txt", &metrics)?;
                save(dir, "registry.json", &registry)?;
                save(dir, "flightrec.json", &flightrec)?;
            }
            Ok(format!(
                "ok: metrics {lines} lines, registry valid, flightrec {events} events"
            ))
        }
        other => Err(format!("unknown verb {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_checker_accepts_known_kinds_only() {
        assert_eq!(
            check_metrics("counter a 1\ngauge b 2\nhist c count 1"),
            Ok(2 + 1)
        );
        assert!(check_metrics("").is_err());
        assert!(check_metrics("bogus a 1").is_err());
    }

    #[test]
    fn flightrec_checker_pins_schema() {
        let good = "{\"schema\":\"edgepc-flightrec\",\"schema_version\":1,\
                    \"events\":[],\"spans\":[]}";
        assert_eq!(check_flightrec(good), Ok(0));
        let bad = "{\"schema\":\"other\",\"schema_version\":1,\"events\":[],\"spans\":[]}";
        assert!(check_flightrec(bad).is_err());
    }
}
