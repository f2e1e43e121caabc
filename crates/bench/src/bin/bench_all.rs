//! Records the deterministic benchmark record: runs every scenario of
//! `edgepc-perf` once, with online quality auditing enabled, and writes
//! `results/BENCH.json` (op counts, modeled Xavier cost, quality — no
//! wall time).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p edgepc-bench --bin bench_all [-- --out PATH]
//! ```
//!
//! `--out PATH` writes the document somewhere other than
//! `results/BENCH.json`. `ci.sh` records into `target/` that way and
//! `diff`s the result against the committed file: any difference — at
//! any `EDGEPC_THREADS` — is a change in the work the pipeline does. The
//! schema is documented in EXPERIMENTS.md ("The deterministic record").

// CLI harness: progress and error reporting goes to stderr by design.
#![allow(clippy::print_stderr)]

use std::path::PathBuf;
use std::process::ExitCode;

use edgepc_bench::report;
use edgepc_perf::{bench_json, enable_default_auditing, paper_scenarios, run_scenario};

fn main() -> ExitCode {
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_all [--out PATH]");
                return ExitCode::FAILURE;
            }
        }
    }

    enable_default_auditing();
    let mut results = Vec::new();
    for scenario in paper_scenarios() {
        let r = run_scenario(scenario);
        println!(
            "{:<36} dist3 {:>9}  mac {:>11}  modeled {:>8.4} ms{}",
            r.id,
            r.ops.dist3,
            r.ops.mac,
            r.modeled_ms.unwrap_or(0.0),
            r.quality
                .iter()
                .map(|(k, v)| format!("  {}={v:.4}", k.trim_start_matches("audit.")))
                .collect::<String>()
        );
        results.push(r);
    }

    let doc = bench_json(&results);
    let (dir, name) = match &out {
        Some(path) => {
            let dir = path
                .parent()
                .filter(|p| !p.as_os_str().is_empty())
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("."));
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "BENCH".to_string());
            (dir, name)
        }
        None => (report::results_dir(), "BENCH".to_string()),
    };
    match report::write_into(&dir, &name, &doc) {
        Ok(path) => {
            println!("\nwrote {} ({} scenarios)", path.display(), results.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("\nerror: could not write {name}.json: {e}");
            ExitCode::FAILURE
        }
    }
}
