//! EP008 — steady-state allocation freedom.
//!
//! ROADMAP item 2's zero-allocation steady state means the designated
//! hot loops (model forwards, per-request serve paths, telemetry
//! recording) must not allocate once warm. `LINT.toml` designates the
//! scopes (`[[alloc.scope]]`: file + fn names); inside those fn bodies,
//! non-test code may not:
//!
//! * call allocating methods — `.to_vec()`, `.to_owned()`,
//!   `.to_string()`, `.clone()`, `.collect()`;
//! * invoke allocating macros — `vec![…]`, `format!(…)`;
//! * construct heap containers — `Vec/String/Box/VecDeque/HashMap/
//!   HashSet/BTreeMap::{new, with_capacity, from}`.
//!
//! Receivers routed through a `Scratch` pool (any receiver-chain
//! component containing `scratch`) are exempt — that is the sanctioned
//! reuse idiom. The rule is intraprocedural by design: factoring setup
//! allocation into an *undesignated* helper is the sanctioned escape for
//! first-observation/cold paths, and genuinely allocating steady-state
//! code takes an item-level waiver so the exception is visible.
//!
//! A designation must designate something: a scope whose `path` is no
//! scanned source file, or an item naming no (non-test) fn in its file,
//! is itself a diagnostic against `LINT.toml` — as EP000 reports a stale
//! waiver — so a deleted hot fn cannot leave a silent entry behind.

use crate::config::AllocScope;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::rules::SourceModel;
use crate::syntax::{self, FileSyntax};

const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "to_string", "clone", "collect"];
const ALLOC_MACROS: &[&str] = &["vec", "format"];
const ALLOC_TYPES: &[&str] = &[
    "Vec", "String", "Box", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet",
];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];

pub fn check(model: &SourceModel, syn: &FileSyntax, items: &[String]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let code = model.code_indices();
    let text = |ci: usize| model.token(code[ci]).text.as_str();
    let kind = |ci: usize| model.token(code[ci]).kind;

    for f in &syn.fns {
        if f.is_test || !items.iter().any(|i| i == &f.name) {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        // Skip nested fn items (their own designation applies, if any).
        let nested: Vec<(usize, usize)> = syn
            .fns
            .iter()
            .filter(|g| g.name != f.name && g.body.is_some_and(|(o, c)| open < o && c < close))
            .filter_map(|g| g.body)
            .collect();

        for ci in open + 1..close {
            if ci >= code.len() || kind(ci) != TokenKind::Ident {
                continue;
            }
            if nested.iter().any(|&(o, c)| o < ci && ci < c) {
                continue;
            }
            let name = text(ci);
            let next = if ci + 1 < code.len() {
                text(ci + 1)
            } else {
                ""
            };
            let prev = if ci > 0 { text(ci - 1) } else { "" };

            let construct = if ALLOC_METHODS.contains(&name) && prev == "." && next == "(" {
                let (recv, _) = syntax::recv_chain(model, ci);
                if recv
                    .iter()
                    .any(|c| c.to_ascii_lowercase().contains("scratch"))
                {
                    continue; // pooled reuse, the sanctioned idiom
                }
                Some(format!(".{name}()"))
            } else if ALLOC_MACROS.contains(&name) && next == "!" {
                Some(format!("{name}!"))
            } else if ALLOC_CTORS.contains(&name) && prev == "::" && next == "(" {
                let (recv, _) = syntax::recv_chain(model, ci);
                match recv.last() {
                    Some(ty) if ALLOC_TYPES.contains(&ty.as_str()) => {
                        Some(format!("{ty}::{name}()"))
                    }
                    _ => None,
                }
            } else {
                None
            };
            let Some(construct) = construct else { continue };

            let tok = model.token(code[ci]);
            let depth = syn.loop_depth_at(model, ci);
            let loc = if depth > 0 {
                format!(" (inside a loop, depth {depth})")
            } else {
                String::new()
            };
            out.push(
                Diagnostic::new(
                    "EP008",
                    &model.rel,
                    tok.line,
                    tok.col,
                    format!(
                        "steady-state allocation: `{construct}` in designated hot fn `{}`{loc}",
                        f.name
                    ),
                )
                .with_item(f.name.clone())
                .with_suggestion(
                    "route the buffer through the Scratch pool, factor the setup into an \
                     undesignated helper, or add an item-level EP008 waiver",
                ),
            );
        }
    }
    out
}

/// Stale `[[alloc.scope]]` entries. `defined` pairs every scanned file
/// that some scope names with its non-test fn names.
pub fn stale_designations(
    scopes: &[AllocScope],
    defined: &[(String, Vec<String>)],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for scope in scopes {
        let stale = |message: String| {
            Diagnostic::new("EP008", "LINT.toml", 0, 0, message)
                .with_suggestion("delete the stale designation from LINT.toml")
        };
        let Some((_, fns)) = defined.iter().find(|(rel, _)| *rel == scope.path) else {
            out.push(stale(format!(
                "stale designation: alloc scope `{}` names no scanned source file",
                scope.path
            )));
            continue;
        };
        for item in scope.items.iter().filter(|i| !fns.contains(i)) {
            out.push(stale(format!(
                "stale designation: `{item}` names no fn in `{}`",
                scope.path
            )));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, items: &[&str]) -> Vec<Diagnostic> {
        let model = SourceModel::new("crates/x/src/hot.rs", src);
        let syn = FileSyntax::parse(&model);
        let items: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        check(&model, &syn, &items)
    }

    #[test]
    fn allocations_in_designated_fn_are_flagged() {
        let src = r#"
pub fn hot(xs: &[u64]) -> u64 {
    let mut buf = Vec::new();
    for x in xs {
        buf.push(format!("{x}"));
    }
    let copy = xs.to_vec();
    copy.len() as u64 + buf.len() as u64
}
"#;
        let diags = run(src, &["hot"]);
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags.iter().all(|d| d.item.as_deref() == Some("hot")));
        assert!(diags.iter().any(|d| d.message.contains("Vec::new()")));
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("format!") && d.message.contains("depth 1")),
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.message.contains(".to_vec()")));
    }

    #[test]
    fn scratch_receivers_and_undesignated_fns_are_exempt() {
        let src = r#"
pub struct Scratch { buf: Vec<u64> }
pub fn hot(scratch: &mut Scratch, xs: &[u64]) -> u64 {
    let reused = scratch.buf.clone();
    cold_setup(xs).len() as u64 + reused.len() as u64
}
fn cold_setup(xs: &[u64]) -> Vec<u64> {
    xs.to_vec()
}
"#;
        assert!(run(src, &["hot"]).is_empty());
    }

    #[test]
    fn designations_naming_nothing_are_stale() {
        let scopes = [
            AllocScope {
                path: "crates/x/src/hot.rs".into(),
                items: vec!["hot".into(), "gone".into()],
            },
            AllocScope {
                path: "crates/x/src/missing.rs".into(),
                items: vec!["hot".into()],
            },
        ];
        let defined = [("crates/x/src/hot.rs".to_string(), vec!["hot".to_string()])];
        let diags = stale_designations(&scopes, &defined);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.file == "LINT.toml"));
        assert!(diags[0].message.contains("`gone` names no fn"));
        assert!(diags[1]
            .message
            .contains("`crates/x/src/missing.rs` names no scanned"));
    }

    #[test]
    fn test_code_in_designated_file_is_exempt() {
        let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn hot() {
        let _v = vec![1, 2, 3];
    }
}
"#;
        assert!(run(src, &["hot"]).is_empty());
    }
}
