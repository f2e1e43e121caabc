//! **EP003 — span coverage of designated hot modules.**
//!
//! Every substantial `pub fn` in the designated hot modules (the sampler,
//! the upsampler, the window searcher, and the model stage files) must
//! open an `edgepc_trace` span — directly (`edgepc_trace::span(…)` /
//! `span_in(…)`) or through the models' `observe::stage(…)` /
//! `observe::mlp_stage(…)` bridge — or
//! carry a `LINT.toml` waiver naming the function. An un-spanned stage
//! silently drops out of the fig03-style latency breakdowns the paper's
//! analysis rests on.
//!
//! Scope notes, so the rule stays honest rather than noisy:
//! - only *bare* `pub` functions are checked — `pub(crate)` helpers and
//!   trait-impl methods are reached through spanned public entry points;
//! - constructors and accessors are exempted via a body-size threshold
//!   ([`BODY_TOKEN_THRESHOLD`] significant tokens): they do no stage work;
//! - waivers use `item = "<fn name>"` granularity, so one waived function
//!   cannot hide a later un-spanned neighbor.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::rules::SourceModel;

/// Minimum significant (non-comment) tokens in a body before the rule
/// applies. Constructors and field accessors in the designated files run
/// 10–30 tokens; real stage functions run hundreds.
pub const BODY_TOKEN_THRESHOLD: usize = 40;

/// Call idents accepted as opening a span: the `edgepc_trace` entry points
/// plus the models' `observe::stage` / `observe::mlp_stage` wrappers
/// (which open a span themselves).
const SPAN_OPENERS: &[&str] = &["span", "span_in", "stage", "mlp_stage"];

pub fn check(model: &SourceModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let code = model.code_indices();
    let text = |ci: usize| model.token(code[ci]).text.as_str();
    let kind = |ci: usize| model.token(code[ci]).kind;

    let mut ci = 0;
    while ci < code.len() {
        if text(ci) != "pub" || model.in_test(code[ci]) {
            ci += 1;
            continue;
        }
        // `pub(crate)` / `pub(super)` are not part of the traced surface.
        if ci + 1 < code.len() && text(ci + 1) == "(" {
            ci += 1;
            continue;
        }
        // Allow qualifiers between `pub` and `fn`; bail if this `pub`
        // introduces a non-fn item.
        let mut j = ci + 1;
        while j < code.len() && matches!(text(j), "const" | "unsafe" | "async" | "extern") {
            j += 1;
        }
        if j >= code.len() || text(j) != "fn" {
            ci += 1;
            continue;
        }
        let name_ci = j + 1;
        if name_ci >= code.len() || kind(name_ci) != TokenKind::Ident {
            ci += 1;
            continue;
        }
        let fn_name = text(name_ci).to_string();
        let fn_tok = model.token(code[name_ci]).clone();

        // Body start: first `{` at zero paren/bracket depth; a `;` first
        // means a bodiless trait-method declaration.
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut body_open = None;
        let mut k = name_ci + 1;
        while k < code.len() {
            match text(k) {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                ";" if paren == 0 && bracket == 0 => break,
                "{" if paren == 0 && bracket == 0 => {
                    body_open = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(open) = body_open else {
            ci = k + 1;
            continue;
        };
        let close = super::match_braces(&model.tokens, code, open).unwrap_or(code.len() - 1);

        let body = &code[open + 1..close];
        if body.len() >= BODY_TOKEN_THRESHOLD {
            let opens_span = body.windows(2).any(|w| {
                let t = &model.token(w[0]);
                t.kind == TokenKind::Ident
                    && SPAN_OPENERS.contains(&t.text.as_str())
                    && model.token(w[1]).text == "("
            });
            if !opens_span {
                out.push(
                    Diagnostic::new(
                        "EP003",
                        &model.rel,
                        fn_tok.line,
                        fn_tok.col,
                        format!(
                            "`pub fn {fn_name}` ({} tokens) opens no edgepc_trace span; \
                             its work is invisible to stage breakdowns",
                            body.len()
                        ),
                    )
                    .with_suggestion(
                        "open `edgepc_trace::span(\"<stage>.<name>\", \"<kind>\")` at entry, \
                         or waive with item-granularity in LINT.toml",
                    )
                    .with_item(fn_name),
                );
            }
        }
        ci = close + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        check(&SourceModel::new("crates/sample/src/x.rs", src))
    }

    /// A filler statement block big enough to cross the threshold.
    const FILLER: &str = "let mut acc = 0usize; for i in 0..n { acc += i * 3 + 1; } \
                          for i in 0..n { acc -= i; } let q = acc * 2; let r = q + 1; \
                          let s = r * q; let t = s + r; (t + s) as usize";

    #[test]
    fn flags_large_unspanned_pub_fn() {
        let src = format!("pub fn big(n: usize) -> usize {{ {FILLER} }}");
        let got = run(&src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].item.as_deref(), Some("big"));
    }

    #[test]
    fn spanned_stage_and_small_fns_pass() {
        let spanned = format!(
            "pub fn big(n: usize) -> usize {{ \
             let mut sp = edgepc_trace::span(\"x.big\", \"sample\"); {FILLER} }}"
        );
        assert_eq!(run(&spanned), Vec::new());
        let staged = format!(
            "pub fn big(n: usize) -> usize {{ observe::stage(\"x\", k, fc, rec, || {{ {FILLER} }}) }}"
        );
        assert_eq!(run(&staged), Vec::new());
        assert_eq!(run("pub fn small(&self) -> usize { self.n }"), Vec::new());
    }

    #[test]
    fn pub_crate_and_trait_methods_ignored() {
        let src = format!(
            "pub(crate) fn helper(n: usize) -> usize {{ {FILLER} }}\n\
             impl T for S {{ fn run(n: usize) -> usize {{ {FILLER} }} }}"
        );
        assert_eq!(run(&src), Vec::new());
    }
}
