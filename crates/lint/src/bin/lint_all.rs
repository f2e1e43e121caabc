//! Runs the full edgepc-lint rule set over the workspace.
//!
//! ```text
//! lint_all [--root <dir>] [--json <path>]
//! ```
//!
//! Prints human-readable diagnostics, writes the machine-readable report
//! (default `target/lint.json`, schema `edgepc-lint` v3), and exits
//! non-zero on any violation. The summary line carries per-rule wall
//! time. `ci.sh` runs this before clippy; `--no-lint` there skips it. Without `--root`, the root is the nearest
//! ancestor of the working directory that holds a `Cargo.lock`.

#![allow(clippy::print_stdout)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root_arg: Option<PathBuf> = None;
    let mut json_arg: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root_arg = args.next().map(PathBuf::from),
            "--json" => json_arg = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("usage: lint_all [--root <dir>] [--json <path>]");
                return ExitCode::SUCCESS;
            }
            other => {
                println!("lint_all: unknown argument `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
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
