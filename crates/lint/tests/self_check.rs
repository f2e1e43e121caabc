//! The workspace must pass its own lint: every EP rule clean on the real
//! tree, with every LINT.toml waiver matching a live diagnostic. This is
//! the same run `ci.sh` performs via `lint_all`.

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up");
    let report = edgepc_lint::run_workspace(root).expect("workspace run");
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the run actually covered the tree.
    assert!(
        report.files_scanned > 100,
        "scanned {}",
        report.files_scanned
    );
    assert!(report.waived > 0, "LINT.toml waivers should be in use");
}

/// `LINT.toml`'s `[lock] ranking` is the one source of the lock order;
/// the `lockrank.rs` constants the runtime validator uses must mirror it:
/// lock `<crate>.<name>` has exactly one `NAME` constant in
/// `crates/<crate>/src/lockrank.rs`, no constant is unranked, and the
/// values strictly ascend in ranking order.
#[test]
fn lockrank_constants_mirror_the_lint_toml_ranking() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up");
    let toml = std::fs::read_to_string(root.join("LINT.toml")).expect("read LINT.toml");
    let ranking = edgepc_lint::config::parse_config(&toml)
        .expect("LINT.toml parses")
        .lock
        .expect("LINT.toml declares [lock]")
        .ranking;

    // (crate, CONST name) -> value, one entry per `const NAME: u16 = N;`.
    let mut constants = std::collections::BTreeMap::new();
    for krate in ["net", "serve", "trace"] {
        let path = root.join("crates").join(krate).join("src/lockrank.rs");
        let src = std::fs::read_to_string(&path).expect("read lockrank.rs");
        for line in src.lines() {
            let Some(decl) = line.trim().strip_prefix("pub(crate) const ") else {
                continue;
            };
            let (name, value) = decl
                .split_once(": u16 = ")
                .unwrap_or_else(|| panic!("{}: unexpected constant `{decl}`", path.display()));
            let value: u16 = value
                .trim_end_matches(';')
                .parse()
                .unwrap_or_else(|_| panic!("{}: `{decl}` has no u16 value", path.display()));
            let dup = constants.insert((krate, name.to_string()), value);
            assert!(dup.is_none(), "{}: `{name}` declared twice", path.display());
        }
    }

    let mut last: Option<(&str, u16)> = None;
    for lock in &ranking {
        let (krate, name) = lock
            .split_once('.')
            .expect("locks are named <crate>.<name>");
        let value = constants
            .remove(&(krate, name.to_uppercase()))
            .unwrap_or_else(|| {
                panic!("`{lock}` has no constant in crates/{krate}/src/lockrank.rs")
            });
        if let Some((below, below_value)) = last {
            assert!(
                below_value < value,
                "`{lock}` = {value} must rank above `{below}` = {below_value}"
            );
        }
        last = Some((lock, value));
    }
    assert!(
        constants.is_empty(),
        "lockrank constants without a LINT.toml ranking entry: {constants:?}"
    );
}
