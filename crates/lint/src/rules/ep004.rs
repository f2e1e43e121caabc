//! **EP004 — dependency policy: std-only, workspace-internal crates.**
//!
//! The "runs on any edge device" claim rests on the workspace staying
//! pure-Rust and std-only, and a crates.io or git pull would also break
//! the offline `ci.sh` guarantee. Cargo writes a `source = …` line for
//! every `[[package]]` in `Cargo.lock` that comes from a registry or a
//! git repository, and none for workspace or path crates, so the policy
//! holds if and only if the root `Cargo.lock` has no `source` line. That
//! covers transitive dependencies exactly and needs no TOML parser. A
//! missing `Cargo.lock` is itself a diagnostic: the rule never switches
//! itself off.

use crate::diag::Diagnostic;

/// Checks the root `Cargo.lock` (`None` when the file is missing).
pub fn check_lock(src: Option<&str>) -> Vec<Diagnostic> {
    let Some(src) = src else {
        return vec![Diagnostic::new(
            "EP004",
            "Cargo.lock",
            0,
            0,
            "no Cargo.lock at the workspace root, so the std-only policy cannot be checked"
                .to_string(),
        )
        .with_suggestion("commit the Cargo.lock that `cargo build --offline` writes")];
    };
    let mut out = Vec::new();
    let mut in_package = false;
    let mut name = "";
    for (i, line) in src.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[[package]]";
            name = "";
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let value = value.trim().trim_matches('"');
        match key.trim() {
            "name" => name = value,
            "source" if in_package => out.push(
                Diagnostic::new(
                    "EP004",
                    "Cargo.lock",
                    i + 1,
                    1,
                    format!(
                        "package `{name}` comes from `{value}` \
                         (std-only policy forbids registry/git deps)"
                    ),
                )
                .with_suggestion(
                    "drop the dependency, or vendor it as a workspace crate with a `path` entry",
                )
                .with_item(name),
            ),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_only_lock_passes_and_source_lines_are_flagged() {
        let clean = "version = 3\n\n[[package]]\nname = \"edgepc-geom\"\nversion = \"0.1.0\"\n";
        assert_eq!(check_lock(Some(clean)), Vec::new());

        let dirty = format!(
            "{clean}\n[[package]]\nname = \"serde\"\nversion = \"1.0.0\"\n\
             source = \"registry+https://github.com/rust-lang/crates.io-index\"\n"
        );
        let got = check_lock(Some(&dirty));
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].line, got[0].item.as_deref()), (10, Some("serde")));
        assert!(got[0].message.contains("registry+"));
    }

    #[test]
    fn missing_lock_is_a_violation() {
        let got = check_lock(None);
        assert_eq!((got.len(), got[0].file.as_str()), (1, "Cargo.lock"));
    }
}
