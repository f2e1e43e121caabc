//! `LINT.toml` waivers.
//!
//! A waiver silences one rule at one path (optionally scoped to one named
//! item) and must carry a reason. Waivers are accounted for: an entry
//! that matches no diagnostic on the current tree is itself reported as a
//! violation (`EP000 unused-waiver`), so stale waivers fail the build
//! instead of rotting.
//!
//! ```toml
//! [[waiver]]
//! rule = "EP002"                      # which rule to silence
//! path = "crates/nn/src/kernel.rs"    # repo-relative file (or dir/ prefix)
//! item = "naive_into"                 # optional: scope to one fn/ident
//! reason = "the exact +/-0.0 sparsity skip is deliberate"
//! ```

use crate::diag::Diagnostic;
use crate::toml_lite::{self, TomlValue};

/// One `[[waiver]]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    pub rule: String,
    /// Repo-relative path; a trailing `/` waives a whole directory.
    pub path: String,
    /// When set, only diagnostics whose `item` equals this are waived.
    pub item: Option<String>,
    pub reason: String,
}

impl Waiver {
    /// Does this waiver cover `diag`?
    pub fn matches(&self, diag: &Diagnostic) -> bool {
        if self.rule != diag.rule {
            return false;
        }
        let path_ok = if self.path.ends_with('/') {
            diag.file.starts_with(&self.path)
        } else {
            diag.file == self.path
        };
        if !path_ok {
            return false;
        }
        match &self.item {
            Some(item) => diag.item.as_deref() == Some(item.as_str()),
            None => true,
        }
    }
}

/// Parses a `LINT.toml` document. Errors are human-readable strings: a
/// malformed waiver file must fail the lint run loudly, not silently
/// un-waive the tree.
pub fn parse_waivers(src: &str) -> Result<Vec<Waiver>, String> {
    let doc = toml_lite::parse(src).map_err(|e| format!("LINT.toml: {e}"))?;
    let entries = match doc.get("waiver") {
        None => return Ok(Vec::new()),
        Some(v) => v
            .as_array()
            .ok_or_else(|| "LINT.toml: `waiver` must be an array of tables".to_string())?,
    };
    let mut waivers = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let field = |key: &str| -> Result<String, String> {
            entry
                .get(key)
                .and_then(TomlValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("LINT.toml: waiver #{} is missing `{key}`", i + 1))
        };
        let rule = field("rule")?;
        let path = field("path")?;
        let reason = field("reason")?;
        if reason.trim().len() < 10 {
            return Err(format!(
                "LINT.toml: waiver #{} ({rule} {path}) needs a real reason, got {reason:?}",
                i + 1
            ));
        }
        let item = entry
            .get("item")
            .and_then(TomlValue::as_str)
            .map(str::to_string);
        waivers.push(Waiver {
            rule,
            path,
            item,
            reason,
        });
    }
    Ok(waivers)
}

/// Splits `diags` into (violations, waived-count) and appends an
/// `EP000 unused-waiver` violation for every waiver that matched nothing.
pub fn apply_waivers(diags: Vec<Diagnostic>, waivers: &[Waiver]) -> (Vec<Diagnostic>, usize) {
    let mut used = vec![false; waivers.len()];
    let mut violations = Vec::new();
    let mut waived = 0usize;
    for diag in diags {
        let mut hit = false;
        for (i, w) in waivers.iter().enumerate() {
            if w.matches(&diag) {
                used[i] = true;
                hit = true;
            }
        }
        if hit {
            waived += 1;
        } else {
            violations.push(diag);
        }
    }
    for (w, was_used) in waivers.iter().zip(used) {
        if !was_used {
            violations.push(
                Diagnostic::new(
                    "EP000",
                    "LINT.toml",
                    0,
                    0,
                    format!(
                        "unused waiver: {} at `{}`{} matches no current diagnostic",
                        w.rule,
                        w.path,
                        w.item
                            .as_deref()
                            .map(|i| format!(" (item `{i}`)"))
                            .unwrap_or_default()
                    ),
                )
                .with_suggestion("delete the stale entry from LINT.toml"),
            );
        }
    }
    (violations, waived)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, file: &str, item: Option<&str>) -> Diagnostic {
        let mut d = Diagnostic::new(rule, file, 1, 1, "x".into());
        if let Some(i) = item {
            d = d.with_item(i);
        }
        d
    }

    #[test]
    fn waiver_matching_scopes() {
        let w = Waiver {
            rule: "EP003".into(),
            path: "crates/models/src/dgcnn.rs".into(),
            item: Some("feature_knn".into()),
            reason: "spanned at call sites".into(),
        };
        assert!(w.matches(&diag(
            "EP003",
            "crates/models/src/dgcnn.rs",
            Some("feature_knn")
        )));
        assert!(!w.matches(&diag(
            "EP003",
            "crates/models/src/dgcnn.rs",
            Some("forward")
        )));
        assert!(!w.matches(&diag(
            "EP002",
            "crates/models/src/dgcnn.rs",
            Some("feature_knn")
        )));

        let dir = Waiver {
            rule: "EP002".into(),
            path: "crates/nn/src/".into(),
            item: None,
            reason: "exact sparsity compares".into(),
        };
        assert!(dir.matches(&diag("EP002", "crates/nn/src/tensor.rs", None)));
        assert!(!dir.matches(&diag("EP002", "crates/geom/src/point.rs", None)));
    }

    #[test]
    fn unused_waivers_become_violations() {
        let waivers = vec![Waiver {
            rule: "EP002".into(),
            path: "crates/x/src/lib.rs".into(),
            item: None,
            reason: "a perfectly fine reason".into(),
        }];
        let (violations, waived) = apply_waivers(Vec::new(), &waivers);
        assert_eq!(waived, 0);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "EP000");
    }

    #[test]
    fn reason_is_mandatory_and_substantial() {
        assert!(parse_waivers("[[waiver]]\nrule = \"EP002\"\npath = \"x\"\n").is_err());
        assert!(parse_waivers(
            "[[waiver]]\nrule = \"EP002\"\npath = \"x\"\nreason = \"because\"\n"
        )
        .is_err());
        let ok = parse_waivers(
            "[[waiver]]\nrule = \"EP002\"\npath = \"x\"\nreason = \"a documented invariant\"\n",
        )
        .expect("valid");
        assert_eq!(ok.len(), 1);
    }
}
