//! # edgepc-lint
//!
//! A std-only (no `syn`, no registry crates) static-analysis engine for the
//! EdgePC workspace. It enforces the invariants the instrumented hot path
//! and the benchmark observatory rely on:
//!
//! | rule | invariant |
//! |---|---|
//! | EP002 | no float `==`/`!=` against literals outside tests |
//! | EP004 | the root `Cargo.lock` holds no registry/git package (std-only) |
//! | EP005 | committed `results/*.json` parse; pinned artifacts keep known schemas |
//! | EP006 | every `.lock()` is ranked by a `guard::Lock` claim and nesting follows `enum Lock`'s order |
//! | EP007 | [`rules::ep007::DETERMINISTIC_CRATES`] leak no hash order, wall clock, or scheduling into results |
//! | EP008 | fns marked [`rules::ep008::MARKER`] allocate nothing in steady state (Scratch pool excepted) |
//! | EP000 | every inline `// waive EPnnn: <reason>` matches a live diagnostic |
//!
//! Panic-freedom is clippy's job: the workspace lints deny `unwrap_used`,
//! `expect_used` and `todo`, and the hot crates' roots add `panic` and
//! `unreachable`. Span coverage of the latency breakdowns is a runtime
//! test (`tests/trace_pipeline.rs` checks every forward's stage ledger
//! against its spans).
//!
//! EP002 is token-level. EP006–EP008 run on the **syntactic tier**
//! ([`syntax::FileSyntax`]): a std-only item/impl/fn/closure recovery
//! over the same lexer — same hand-rolled philosophy, no `syn`.
//!
//! All configuration lives in the code. EP008's designations and the
//! waivers are lines in a fn's leading comment block
//! ([`syntax::leading_comments`]); a waiver that matches nothing is
//! itself a violation (`EP000`) at the comment's line. EP006 reads its
//! lock order from `enum Lock` in [`rules::ep006::LOCK_ENUM_FILE`].
//!
//! The `lint_all` binary runs the whole engine, prints human-readable
//! diagnostics with per-rule wall time, writes machine-readable
//! `target/lint.json` (schema `edgepc-lint`, itself pinned under EP005),
//! and exits non-zero on any violation. `ci.sh` runs it before clippy.

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod syntax;
pub mod waiver;

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use diag::Diagnostic;
use syntax::FileSyntax;

/// Every rule id the engine reports, in order.
pub const ALL_RULES: &[&str] = &[
    "EP000", "EP002", "EP004", "EP005", "EP006", "EP007", "EP008",
];

/// The outcome of a full workspace run.
#[derive(Debug)]
pub struct LintReport {
    /// Unwaived violations (including EP000 unused-waiver entries).
    pub violations: Vec<Diagnostic>,
    /// Diagnostics silenced by inline waivers.
    pub waived: usize,
    /// Rust sources + `Cargo.lock` + results artifacts examined.
    pub files_scanned: usize,
    /// Wall time per rule in microseconds, in rule-id order. Shared
    /// infrastructure (lexing, syntax recovery, file IO) is reported as
    /// the pseudo-rule `parse`.
    pub timings_us: Vec<(&'static str, u128)>,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Count of violations per rule id, sorted by rule id.
    pub fn rule_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for d in &self.violations {
            match counts.iter_mut().find(|(r, _)| *r == d.rule) {
                Some((_, n)) => *n += 1,
                None => counts.push((d.rule, 1)),
            }
        }
        counts.sort_by_key(|&(r, _)| r);
        counts
    }

    /// One-line summary for CI logs, with per-rule wall time so the
    /// gate's cost stays visible.
    pub fn summary_line(&self) -> String {
        let mut line = if self.is_clean() {
            format!(
                "lint_all: clean ({} files scanned, {} waiver{} used)",
                self.files_scanned,
                self.waived,
                if self.waived == 1 { "" } else { "s" }
            )
        } else {
            let per_rule: Vec<String> = self
                .rule_counts()
                .iter()
                .map(|(r, n)| format!("{r} x{n}"))
                .collect();
            format!(
                "lint_all: {} violation{} [{}] ({} files scanned, {} waived)",
                self.violations.len(),
                if self.violations.len() == 1 { "" } else { "s" },
                per_rule.join(", "),
                self.files_scanned,
                self.waived
            )
        };
        if !self.timings_us.is_empty() {
            let parts: Vec<String> = self
                .timings_us
                .iter()
                .map(|(r, us)| format!("{r} {:.1}ms", *us as f64 / 1000.0))
                .collect();
            line.push_str(&format!(" [{}]", parts.join(", ")));
        }
        line
    }

    /// The machine-readable report (`target/lint.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"schema\":\"edgepc-lint\",\"schema_version\":3,");
        s.push_str(&format!(
            "\"files_scanned\":{},\"waivers_used\":{},\"clean\":{},",
            self.files_scanned,
            self.waived,
            self.is_clean()
        ));
        s.push_str("\"rule_counts\":{");
        let counts: Vec<String> = self
            .rule_counts()
            .iter()
            .map(|(r, n)| format!("\"{r}\":{n}"))
            .collect();
        s.push_str(&counts.join(","));
        s.push_str("},\"timings_us\":{");
        let timings: Vec<String> = self
            .timings_us
            .iter()
            .map(|(r, us)| format!("\"{r}\":{us}"))
            .collect();
        s.push_str(&timings.join(","));
        s.push_str("},\"violations\":[");
        let items: Vec<String> = self.violations.iter().map(Diagnostic::to_json).collect();
        s.push_str(&items.join(","));
        s.push_str("]}");
        s
    }
}

/// Accumulates per-rule wall time across files.
#[derive(Default)]
struct Timings {
    entries: Vec<(&'static str, u128)>,
}

impl Timings {
    fn add(&mut self, rule: &'static str, since: Instant) {
        let us = since.elapsed().as_micros();
        match self.entries.iter_mut().find(|(r, _)| *r == rule) {
            Some((_, total)) => *total += us,
            None => self.entries.push((rule, us)),
        }
    }
}

/// Runs every rule over the workspace rooted at `root` and applies the
/// inline waivers. Errors are environmental (unreadable files) — rule
/// violations are *not* errors.
pub fn run_workspace(root: &Path) -> Result<LintReport, String> {
    let mut diagnostics = Vec::new();
    let mut waivers = Vec::new();
    let mut files_scanned = 0usize;
    let mut timings = Timings::default();

    // --- Rust sources: EP002 (token tier) + EP007/EP008, the inline
    // --- waivers and the EP006 model collection (syntactic tier) ----------
    let mut lock_files: Vec<(String, rules::SourceModel, FileSyntax)> = Vec::new();
    for source in collect_rust_sources(root)? {
        let rel = source.rel;
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("");
        let src = fs::read_to_string(&source.abs)
            .map_err(|e| format!("read {}: {e}", source.abs.display()))?;
        let t0 = Instant::now();
        let model = rules::SourceModel::new(&rel, &src);
        let syntax = FileSyntax::parse(&model);
        let (found, malformed) = waiver::collect(&rel, &syntax);
        waivers.extend(found);
        diagnostics.extend(malformed);
        timings.add("parse", t0);

        let t = Instant::now();
        diagnostics.extend(rules::ep002::check(&model, &syntax));
        timings.add("EP002", t);
        if rules::ep007::DETERMINISTIC_CRATES.contains(&crate_name) {
            let t = Instant::now();
            diagnostics.extend(rules::ep007::check(&model, &syntax));
            timings.add("EP007", t);
        }
        let t = Instant::now();
        diagnostics.extend(rules::ep008::check(&model, &syntax));
        timings.add("EP008", t);
        lock_files.push((rel, model, syntax));
        files_scanned += 1;
    }

    // --- EP006: workspace-level lock-discipline pass -----------------------
    let t = Instant::now();
    let files: Vec<rules::ep006::LockFile<'_>> = lock_files
        .iter()
        .map(|(rel, model, syntax)| rules::ep006::LockFile { rel, model, syntax })
        .collect();
    diagnostics.extend(rules::ep006::check_workspace(&files));
    timings.add("EP006", t);

    // --- EP004: the root Cargo.lock ----------------------------------------
    let lock = match fs::read_to_string(root.join("Cargo.lock")) {
        Ok(src) => Some(src),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(format!("read Cargo.lock: {e}")),
    };
    let t = Instant::now();
    diagnostics.extend(rules::ep004::check_lock(lock.as_deref()));
    timings.add("EP004", t);
    files_scanned += usize::from(lock.is_some());

    // --- Results artifacts: EP005 -----------------------------------------
    let results_dir = root.join("results");
    if results_dir.is_dir() {
        for entry in sorted_dir(&results_dir)? {
            if entry.extension().and_then(|e| e.to_str()) == Some("json") {
                let rel = rel_path(root, &entry);
                let src = fs::read_to_string(&entry)
                    .map_err(|e| format!("read {}: {e}", entry.display()))?;
                let t = Instant::now();
                diagnostics.extend(rules::ep005::check_results_file(&rel, &src));
                timings.add("EP005", t);
                files_scanned += 1;
            }
        }
    }

    // --- Waivers ----------------------------------------------------------
    let t = Instant::now();
    let (mut violations, waived) = waiver::apply_waivers(diagnostics, &waivers);
    timings.add("EP000", t);
    violations
        .sort_by(|a, b| (a.rule, &a.file, a.line, a.col).cmp(&(b.rule, &b.file, b.line, b.col)));
    timings.entries.sort_by_key(|&(r, _)| r);

    Ok(LintReport {
        violations,
        waived,
        files_scanned,
        timings_us: timings.entries,
    })
}

/// Runs only the EP005 results-schema checks over explicit artifact
/// paths (committed or freshly generated — e.g. `target/serve.json` from
/// `ci.sh --serve-smoke`). Pinning is keyed on each file's basename, as
/// in the workspace run. Errors are environmental (unreadable files).
pub fn check_results_files(paths: &[PathBuf]) -> Result<Vec<Diagnostic>, String> {
    let mut diagnostics = Vec::new();
    for path in paths {
        let src = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let shown = path
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        diagnostics.extend(rules::ep005::check_results_file(&shown, &src));
    }
    Ok(diagnostics)
}

/// Locates the workspace root from `start`: the nearest ancestor that
/// holds a `Cargo.lock`, the file EP004 reads.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|d| d.join("Cargo.lock").is_file())
        .map(Path::to_path_buf)
}

struct FoundFile {
    rel: String,
    abs: PathBuf,
}

/// Every production Rust source: `crates/*/src/**/*.rs` plus the root
/// package's `src/**/*.rs`. Integration tests, benches, examples, and
/// lint fixtures live outside `src/` and are deliberately out of scope.
fn collect_rust_sources(root: &Path) -> Result<Vec<FoundFile>, String> {
    let mut dirs: Vec<PathBuf> = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for krate in sorted_dir(&crates_dir)? {
            dirs.push(krate.join("src"));
        }
    }
    let mut out = Vec::new();
    for dir in dirs {
        if dir.is_dir() {
            walk_rs(root, &dir, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn walk_rs(root: &Path, dir: &Path, out: &mut Vec<FoundFile>) -> Result<(), String> {
    for entry in sorted_dir(dir)? {
        if entry.is_dir() {
            walk_rs(root, &entry, out)?;
        } else if entry.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(FoundFile {
                rel: rel_path(root, &entry),
                abs: entry,
            });
        }
    }
    Ok(())
}

fn sorted_dir(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("read dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    Ok(entries)
}

/// Repo-relative path with `/` separators (stable across platforms, used
/// for waiver matching and report output).
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgepc_trace::json::{parse, Value};

    #[test]
    fn lint_json_is_ascii_and_round_trips_hostile_messages() {
        // A control character, a BMP non-ASCII scalar and an astral one.
        let message = "bell\u{7} then π then \u{1F600}".to_string();
        let report = LintReport {
            violations: vec![Diagnostic::new(
                "EP002",
                "crates/x/src/lib.rs",
                1,
                1,
                message.clone(),
            )],
            waived: 0,
            files_scanned: 1,
            timings_us: Vec::new(),
        };
        let doc = report.to_json();
        assert!(doc.is_ascii(), "lint.json left non-ASCII: {doc}");
        let v = parse(&doc).unwrap();
        let violations = v.get("violations").and_then(Value::as_arr).unwrap();
        assert_eq!(
            violations[0].get("message").and_then(Value::as_str),
            Some(message.as_str())
        );
        assert_eq!(v.get("clean"), Some(&Value::Bool(false)));
    }
}
