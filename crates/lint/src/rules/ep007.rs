//! EP007 — unordered cross-chunk communication in parallel folds.
//!
//! The repo's headline invariant is bit-identical outputs at any thread
//! budget (`par_determinism` pins). Closures passed to the `par_*`
//! primitives that use read-modify-write atomics (`fetch_add`…,
//! `compare_exchange`) or take mutexes make the result depend on chunk
//! scheduling. Plain `store`/`load` (the disjoint-index radix scatter
//! idiom) and chunk-order recombination stay allowed. The rule runs on
//! every crate; hash order, wall clock and thread identity in the
//! deterministic crates are clippy's (`clippy.toml`'s `disallowed-*`).

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::rules::SourceModel;
use crate::syntax::{self, FileSyntax};

const PAR_ENTRY_POINTS: &[&str] = &["par_for", "par_chunk_map", "par_chunks_mut"];

const RMW_ATOMICS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

pub fn check(model: &SourceModel, syn: &FileSyntax) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &syn.fns {
        if f.is_test {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        for call in syntax::calls_in(model, open + 1, close.saturating_sub(1)) {
            if !PAR_ENTRY_POINTS.contains(&call.name.as_str()) {
                continue;
            }
            for closure in syntax::closures_in(model, call.args.0 + 1, call.args.1) {
                scan_par_closure(model, syn, &call.name, closure.body, &mut out);
            }
        }
    }
    out
}

fn scan_par_closure(
    model: &SourceModel,
    syn: &FileSyntax,
    par_fn: &str,
    body: (usize, usize),
    out: &mut Vec<Diagnostic>,
) {
    let code = model.code_indices();
    let text = |ci: usize| model.token(code[ci]).text.as_str();
    let kind = |ci: usize| model.token(code[ci]).kind;
    for ci in body.0..=body.1.min(code.len().saturating_sub(1)) {
        if kind(ci) != TokenKind::Ident || ci == 0 || text(ci - 1) != "." {
            continue;
        }
        if ci + 1 >= code.len() || text(ci + 1) != "(" {
            continue;
        }
        let name = text(ci);
        let offender = if RMW_ATOMICS.contains(&name) {
            Some("read-modify-write atomic")
        } else if name == "lock" {
            Some("mutex acquisition")
        } else {
            None
        };
        let Some(offender) = offender else { continue };
        if model.in_test(code[ci]) {
            continue;
        }
        let tok = model.token(code[ci]);
        let item = syn
            .enclosing_fn(ci)
            .map(|f| f.name.clone())
            .unwrap_or_else(|| par_fn.to_string());
        out.push(
            Diagnostic::new(
                "EP007",
                &model.rel,
                tok.line,
                tok.col,
                format!(
                    "{offender} `.{name}()` inside a `{par_fn}` closure makes the fold depend on \
                     chunk scheduling — recombine per-chunk results in chunk order instead"
                ),
            )
            .with_item(item)
            .with_suggestion(
                "return per-chunk values and combine them after the parallel section (chunk-order recombination)",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let model = SourceModel::new("crates/geom/src/x.rs", src);
        let syn = FileSyntax::parse(&model);
        check(&model, &syn)
    }

    #[test]
    fn rmw_atomics_in_par_closures_are_flagged_but_store_is_fine() {
        let src = r#"
use std::sync::atomic::{AtomicU64, Ordering};
pub fn bad_fold(xs: &[u64], total: &AtomicU64) -> u64 {
    edgepc_par::par_chunk_map(xs, 8, |_, chunk| {
        total.fetch_add(chunk.len() as u64, Ordering::Relaxed);
        chunk.iter().sum::<u64>()
    })
    .into_iter()
    .sum()
}
pub fn scatter(xs: &[u64], out: &[AtomicU64]) {
    edgepc_par::par_for(xs.len(), 8, |i| {
        out[i].store(xs[i], Ordering::Relaxed);
    });
}
"#;
        let diags = run(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("fetch_add"));
        assert_eq!(diags[0].item.as_deref(), Some("bad_fold"));
    }
}
