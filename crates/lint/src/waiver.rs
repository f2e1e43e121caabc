//! Inline waivers.
//!
//! A waiver is a line in a fn's leading comment block
//! ([`syntax::leading_comments`](crate::syntax::leading_comments)):
//!
//! ```text
//! /// The exact ±0.0 sparsity skip is deliberate.
//! // waive EP002: a zero coefficient contributes exactly nothing
//! pub fn naive_into(…) { … }
//! ```
//!
//! It silences that rule's diagnostics in the same file whose `item` is
//! the fn, and its reason must be at least ten characters. Waivers are
//! accounted for: one that matches no diagnostic on the current tree is
//! itself a violation (`EP000`), reported at the comment's own line, so
//! a waiver cannot outlive what it excused.

use crate::diag::Diagnostic;
use crate::syntax::FileSyntax;

/// One `// waive EPnnn: <reason>` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    pub rule: String,
    /// Repo-relative path of the file holding the comment.
    pub file: String,
    /// 1-based line of the comment.
    pub line: usize,
    /// The fn whose leading block holds the comment.
    pub item: String,
}

impl Waiver {
    /// Does this waiver cover `diag`?
    pub fn matches(&self, diag: &Diagnostic) -> bool {
        self.rule == diag.rule
            && self.file == diag.file
            && diag.item.as_deref() == Some(self.item.as_str())
    }
}

/// The waivers in the leading blocks of `syntax`'s fns, plus an `EP000`
/// diagnostic for each waiver comment without a real reason.
pub fn collect(rel: &str, syntax: &FileSyntax) -> (Vec<Waiver>, Vec<Diagnostic>) {
    let mut waivers = Vec::new();
    let mut malformed = Vec::new();
    for f in &syntax.fns {
        for (line, text) in &f.leading {
            let Some(rest) = text.strip_prefix("waive EP") else {
                continue;
            };
            let (id, reason) = rest.split_once(':').unwrap_or((rest, ""));
            let reason = reason.trim();
            if reason.len() < 10 {
                malformed.push(
                    Diagnostic::new(
                        "EP000",
                        rel,
                        *line,
                        1,
                        format!("waiver on `{}` needs a real reason, got {reason:?}", f.name),
                    )
                    .with_suggestion("write it as `// waive EPnnn: <why the rule is wrong here>`"),
                );
                continue;
            }
            waivers.push(Waiver {
                rule: format!("EP{}", id.trim()),
                file: rel.to_string(),
                line: *line,
                item: f.name.clone(),
            });
        }
    }
    (waivers, malformed)
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
                    &w.file,
                    w.line,
                    1,
                    format!(
                        "unused waiver: {} on `{}` matches no current diagnostic",
                        w.rule, w.item
                    ),
                )
                .with_item(w.item.clone())
                .with_suggestion("delete the stale waiver comment"),
            );
        }
    }
    (violations, waived)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::SourceModel;

    fn waivers_in(src: &str) -> (Vec<Waiver>, Vec<Diagnostic>) {
        let model = SourceModel::new("crates/x/src/lib.rs", src);
        collect("crates/x/src/lib.rs", &FileSyntax::parse(&model))
    }

    fn diag(rule: &'static str, item: &str) -> Diagnostic {
        Diagnostic::new(rule, "crates/x/src/lib.rs", 1, 1, "x".into()).with_item(item)
    }

    #[test]
    fn waiver_covers_its_rule_on_its_fn_only() {
        let (waivers, malformed) = waivers_in(
            "/// Exact compare on purpose.\n\
             // waive EP002: the exact zero test is deliberate\n\
             pub fn skip(x: f32) -> bool { x == 0.0 }\n",
        );
        assert!(malformed.is_empty());
        assert_eq!(waivers.len(), 1);
        assert_eq!((waivers[0].line, waivers[0].item.as_str()), (2, "skip"));
        assert!(waivers[0].matches(&diag("EP002", "skip")));
        assert!(!waivers[0].matches(&diag("EP002", "other")));
        // A waiver that names another rule waives nothing.
        assert!(!waivers[0].matches(&diag("EP008", "skip")));
    }

    #[test]
    fn unused_waivers_become_violations_at_their_line() {
        let (waivers, _) = waivers_in("\n// waive EP002: a perfectly fine reason\nfn f() {}\n");
        let (violations, waived) = apply_waivers(Vec::new(), &waivers);
        assert_eq!(waived, 0);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "EP000");
        assert_eq!(
            (violations[0].file.as_str(), violations[0].line),
            ("crates/x/src/lib.rs", 2)
        );
    }

    #[test]
    fn reason_is_mandatory_and_substantial() {
        for src in [
            "// waive EP002\nfn f() {}",
            "// waive EP002: because\nfn f() {}",
        ] {
            let (waivers, malformed) = waivers_in(src);
            assert!(waivers.is_empty(), "{src}");
            assert_eq!(malformed[0].rule, "EP000", "{src}");
        }
    }
}
