//! Runs the full edgepc-lint rule set over the workspace.
//!
//! ```text
//! lint_all [--root <dir>] [--json <path>]
//! lint_all --results FILE...
//! ```
//!
//! Prints human-readable diagnostics, writes the machine-readable report
//! (default `target/lint.json`, schema `edgepc-lint` v3 — itself pinned
//! under EP005), and exits non-zero on any violation. The summary line
//! carries per-rule wall time. `ci.sh` runs this before clippy;
//! `--no-lint` there skips it. Without `--root`, the root is the nearest
//! ancestor of the working directory that holds a `Cargo.lock`.
//!
//! `--results FILE...` skips the workspace scan and runs only the EP005
//! results-schema checks over the named artifacts — `ci.sh --serve-smoke`
//! uses it to validate a freshly generated `target/serve.json`.

#![allow(clippy::print_stdout)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root_arg: Option<PathBuf> = None;
    let mut json_arg: Option<PathBuf> = None;
    let mut results: Option<Vec<PathBuf>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root_arg = args.next().map(PathBuf::from),
            "--json" => json_arg = args.next().map(PathBuf::from),
            "--results" => {
                // Every remaining argument is an artifact path.
                results = Some(args.by_ref().map(PathBuf::from).collect());
            }
            "--help" | "-h" => {
                println!("usage: lint_all [--root <dir>] [--json <path>] [--results FILE...]");
                return ExitCode::SUCCESS;
            }
            other => {
                println!("lint_all: unknown argument `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(paths) = results {
        if paths.is_empty() {
            println!("lint_all: --results needs at least one file");
            return ExitCode::from(2);
        }
        let diagnostics = match edgepc_lint::check_results_files(&paths) {
            Ok(d) => d,
            Err(e) => {
                println!("lint_all: {e}");
                return ExitCode::from(2);
            }
        };
        for d in &diagnostics {
            println!("{d}");
        }
        if diagnostics.is_empty() {
            println!(
                "lint_all: results clean ({} artifact{} checked)",
                paths.len(),
                if paths.len() == 1 { "" } else { "s" }
            );
            return ExitCode::SUCCESS;
        }
        return ExitCode::FAILURE;
    }

    let root = match root_arg.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| edgepc_lint::find_workspace_root(&cwd))
    }) {
        Some(r) => r,
        None => {
            println!("lint_all: no workspace root found (run inside the repo or pass --root)");
            return ExitCode::from(2);
        }
    };

    let report = match edgepc_lint::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            println!("lint_all: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &report.violations {
        println!("{d}");
    }

    let json_path = json_arg.unwrap_or_else(|| root.join("target").join("lint.json"));
    if let Some(parent) = json_path.parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            println!("lint_all: create {}: {e}", parent.display());
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::write(&json_path, report.to_json()) {
        println!("lint_all: write {}: {e}", json_path.display());
        return ExitCode::from(2);
    }

    println!("{}", report.summary_line());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
