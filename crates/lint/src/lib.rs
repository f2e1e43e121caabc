//! # edgepc-lint
//!
//! A std-only (no `syn`, no registry crates) static-analysis engine for the
//! EdgePC workspace. It enforces the invariants the instrumented hot path
//! and the benchmark observatory rely on:
//!
//! | rule | invariant |
//! |---|---|
//! | EP002 | no float `==`/`!=` against literals outside tests |
//! | EP003 | every substantial `pub fn` in [`SPAN_COVERED_FILES`] opens a span |
//! | EP004 | all manifests depend only on workspace/path crates (std-only) |
//! | EP005 | committed `results/*.json` parse; pinned artifacts keep known schemas |
//! | EP006 | every `.lock()` is ranked by a `guard::Lock` claim and nesting follows `enum Lock`'s order |
//! | EP007 | [`rules::ep007::DETERMINISTIC_CRATES`] leak no hash order, wall clock, or scheduling into results |
//! | EP008 | designated hot fns allocate nothing in steady state (Scratch pool excepted) |
//!
//! Panic-freedom is clippy's job: the workspace lints deny `unwrap_used`,
//! `expect_used` and `todo`, and the hot crates' roots add `panic` and
//! `unreachable`.
//!
//! EP002–EP005 are token-level. EP006–EP008 run on the **syntactic
//! tier** ([`syntax::FileSyntax`]): a std-only item/impl/fn/closure
//! recovery over the same lexer — same hand-rolled philosophy, no `syn`.
//!
//! Violations can be waived in the root `LINT.toml` (rule + path +
//! optional item + mandatory reason); a waiver that matches nothing is
//! itself a violation (`EP000`), so the waiver file cannot rot. The same
//! file declares the EP008 allocation scopes (`[[alloc.scope]]`); EP006
//! reads its lock order from the code (`enum Lock` in
//! [`rules::ep006::LOCK_ENUM_FILE`]).
//!
//! The `lint_all` binary runs the whole engine (`--rules EP006,EP008`
//! filters), prints human-readable diagnostics with per-rule wall time,
//! writes machine-readable `target/lint.json` (schema `edgepc-lint`,
//! itself pinned under EP005), and exits non-zero on any violation.
//! `ci.sh` runs it before clippy.

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod syntax;
pub mod toml_lite;
pub mod waiver;

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use diag::Diagnostic;
use syntax::FileSyntax;

/// Every rule id the engine knows, in order. `--rules` filters against
/// this list.
pub const ALL_RULES: &[&str] = &[
    "EP000", "EP002", "EP003", "EP004", "EP005", "EP006", "EP007", "EP008",
];

/// Files whose public functions must open spans (EP003): the stage entry
/// points behind the paper's latency breakdowns.
pub const SPAN_COVERED_FILES: &[&str] = &[
    "crates/par/src/pool.rs",
    "crates/sample/src/morton_sampler.rs",
    "crates/sample/src/upsample.rs",
    "crates/neighbor/src/window.rs",
    "crates/ir/src/schedule.rs",
    "crates/ir/src/exec.rs",
    "crates/models/src/sa.rs",
    "crates/models/src/fp.rs",
    "crates/models/src/dgcnn.rs",
    "crates/models/src/pointnetpp.rs",
    "crates/serve/src/engine.rs",
    "crates/serve/src/loadgen.rs",
    "crates/serve/src/telemetry.rs",
    "crates/trace/src/flight.rs",
    "crates/net/src/router.rs",
    "crates/net/src/server.rs",
];

/// The outcome of a full workspace run.
#[derive(Debug)]
pub struct LintReport {
    /// Unwaived violations (including EP000 unused-waiver entries).
    pub violations: Vec<Diagnostic>,
    /// Diagnostics silenced by LINT.toml waivers.
    pub waived: usize,
    /// Rust sources + manifests + results artifacts examined.
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
        let mut s = String::from("{\"schema\":\"edgepc-lint\",\"schema_version\":2,");
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

/// Runs every rule over the workspace rooted at `root` and applies the
/// `LINT.toml` waivers. Errors are environmental (unreadable files,
/// malformed LINT.toml) — rule violations are *not* errors.
pub fn run_workspace(root: &Path) -> Result<LintReport, String> {
    run_workspace_with(root, None)
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

/// [`run_workspace`] with an optional rule filter (`--rules` in
/// `lint_all`). `filter = Some(["EP006", …])` runs only those rules;
/// waivers for skipped rules are exempt from EP000 staleness (the rule
/// that would use them never ran), and EP000 itself is skipped unless
/// listed. Unknown rule ids are an error.
pub fn run_workspace_with(root: &Path, filter: Option<&[String]>) -> Result<LintReport, String> {
    if let Some(list) = filter {
        for rule in list {
            if !ALL_RULES.contains(&rule.as_str()) {
                return Err(format!(
                    "unknown rule `{rule}` (known: {})",
                    ALL_RULES.join(", ")
                ));
            }
        }
    }
    let enabled = |rule: &str| filter.is_none_or(|list| list.iter().any(|r| r == rule));

    let mut diagnostics = Vec::new();
    let mut files_scanned = 0usize;
    let mut timings = Timings::default();

    // --- Configuration (waivers + alloc scopes) ----------------------------
    let cfg = match fs::read_to_string(root.join("LINT.toml")) {
        Ok(src) => config::parse_config(&src)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => config::LintConfig::default(),
        Err(e) => return Err(format!("read LINT.toml: {e}")),
    };

    // --- Rust sources: EP002/EP003 (token tier) + EP007/EP008 and the
    // --- EP006 model collection (syntactic tier) ---------------------------
    let mut lock_files: Vec<(String, rules::SourceModel, FileSyntax)> = Vec::new();
    // Each designated file's non-test fn names, for EP008's stale check.
    let mut designated_fns: Vec<(String, Vec<String>)> = Vec::new();
    for source in collect_rust_sources(root)? {
        let rel = source.rel.clone();
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("");
        let src = fs::read_to_string(&source.abs)
            .map_err(|e| format!("read {}: {e}", source.abs.display()))?;
        let t0 = Instant::now();
        let model = rules::SourceModel::new(&rel, &src);
        let syntax = FileSyntax::parse(&model);
        timings.add("parse", t0);

        if enabled("EP002") {
            let t = Instant::now();
            diagnostics.extend(rules::ep002::check(&model, &syntax));
            timings.add("EP002", t);
        }
        if enabled("EP003") && SPAN_COVERED_FILES.contains(&rel.as_str()) {
            let t = Instant::now();
            diagnostics.extend(rules::ep003::check(&model));
            timings.add("EP003", t);
        }
        if enabled("EP007") && rules::ep007::DETERMINISTIC_CRATES.contains(&crate_name) {
            let t = Instant::now();
            diagnostics.extend(rules::ep007::check(&model, &syntax));
            timings.add("EP007", t);
        }
        if enabled("EP008") {
            let items: Vec<String> = cfg
                .alloc
                .iter()
                .filter(|scope| scope.path == rel)
                .flat_map(|scope| scope.items.iter().cloned())
                .collect();
            if !items.is_empty() {
                let t = Instant::now();
                diagnostics.extend(rules::ep008::check(&model, &syntax, &items));
                let fns = syntax.fns.iter().filter(|f| !f.is_test);
                designated_fns.push((rel.clone(), fns.map(|f| f.name.clone()).collect()));
                timings.add("EP008", t);
            }
        }
        if enabled("EP006") {
            lock_files.push((rel, model, syntax));
        }
        files_scanned += 1;
    }

    if enabled("EP008") {
        let t = Instant::now();
        diagnostics.extend(rules::ep008::stale_designations(
            &cfg.alloc,
            &designated_fns,
        ));
        timings.add("EP008", t);
    }

    // --- EP006: workspace-level lock-discipline pass -----------------------
    if enabled("EP006") {
        let t = Instant::now();
        let files: Vec<rules::ep006::LockFile<'_>> = lock_files
            .iter()
            .map(|(rel, model, syntax)| rules::ep006::LockFile { rel, model, syntax })
            .collect();
        diagnostics.extend(rules::ep006::check_workspace(&files));
        timings.add("EP006", t);
    }

    // --- Manifests: EP004 -------------------------------------------------
    if enabled("EP004") {
        for manifest in collect_manifests(root)? {
            let src = fs::read_to_string(&manifest.abs)
                .map_err(|e| format!("read {}: {e}", manifest.abs.display()))?;
            let t = Instant::now();
            diagnostics.extend(rules::ep004::check_manifest(&manifest.rel, &src));
            timings.add("EP004", t);
            files_scanned += 1;
        }
    }

    // --- Results artifacts: EP005 -----------------------------------------
    if enabled("EP005") {
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
    }

    // --- Waivers ----------------------------------------------------------
    // Only waivers for rules that actually ran participate: a waiver for a
    // skipped rule is neither used nor stale.
    let t = Instant::now();
    let active_waivers: Vec<waiver::Waiver> = cfg
        .waivers
        .iter()
        .filter(|w| enabled(&w.rule))
        .cloned()
        .collect();
    let (mut violations, waived) = waiver::apply_waivers(diagnostics, &active_waivers);
    if !enabled("EP000") {
        violations.retain(|d| d.rule != "EP000");
    }
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

/// Locates the workspace root from `start` by walking up to the first
/// directory containing a `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(src) = fs::read_to_string(&manifest) {
            if toml_lite::parse(&src)
                .ok()
                .is_some_and(|doc| doc.get("workspace").is_some())
            {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
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

/// The root manifest plus every `crates/*/Cargo.toml`.
fn collect_manifests(root: &Path) -> Result<Vec<FoundFile>, String> {
    let mut out = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        out.push(FoundFile {
            rel: rel_path(root, &root_manifest),
            abs: root_manifest,
        });
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for krate in sorted_dir(&crates_dir)? {
            let manifest = krate.join("Cargo.toml");
            if manifest.is_file() {
                out.push(FoundFile {
                    rel: rel_path(root, &manifest),
                    abs: manifest,
                });
            }
        }
    }
    Ok(out)
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
