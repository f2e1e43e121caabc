//! The rule engine: a shared token-level source model plus one module per
//! rule. Rules run over [`SourceModel`] (per-file rules EP002 and EP007;
//! the workspace-wide EP006); all return
//! [`Diagnostic`](crate::diag::Diagnostic)s and never panic on malformed
//! input.
//!
//! Adding a rule: create `rules/epNNN.rs` with a
//! `check(&SourceModel, &FileSyntax) -> Vec<Diagnostic>` function, call
//! it from `run_workspace` in `lib.rs`, add its id to `ALL_RULES`, and
//! give it a fixture pair under `tests/fixtures/`.

pub mod ep002;
pub mod ep006;
pub mod ep007;

use crate::lexer::{self, Token, TokenKind};

/// A tokenized source file with test regions resolved.
pub struct SourceModel {
    /// Repo-relative path with `/` separators.
    pub rel: String,
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens, in order.
    code: Vec<usize>,
    /// Per-token: lies inside a `#[test]` / `#[cfg(test)]` region.
    test_mask: Vec<bool>,
}

impl SourceModel {
    pub fn new(rel: &str, src: &str) -> Self {
        let tokens = lexer::tokenize(src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let test_mask = compute_test_mask(&tokens, &code);
        SourceModel {
            rel: rel.to_string(),
            tokens,
            code,
            test_mask,
        }
    }

    /// Indices (into `tokens`) of code tokens, skipping comments.
    pub fn code_indices(&self) -> &[usize] {
        &self.code
    }

    pub fn token(&self, idx: usize) -> &Token {
        &self.tokens[idx]
    }

    /// Is the token at `idx` inside a test region?
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_mask.get(idx).copied().unwrap_or(false)
    }

    /// The code token after `idx`, comments skipped.
    pub fn next_code(&self, idx: usize) -> Option<&Token> {
        self.code
            .iter()
            .find(|&&i| i > idx)
            .map(|&i| &self.tokens[i])
    }

    /// The code token before `idx`, comments skipped.
    pub fn prev_code(&self, idx: usize) -> Option<&Token> {
        self.code
            .iter()
            .rev()
            .find(|&&i| i < idx)
            .map(|&i| &self.tokens[i])
    }
}

/// Marks every token belonging to an item annotated `#[test]`,
/// `#[cfg(test)]`, or `#[cfg(any(test, …))]` — but not `#[cfg(not(test))]`
/// (production) or `#[cfg_attr(test, …)]` (compiled in production too).
fn compute_test_mask(tokens: &[Token], code: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let text = |ci: usize| tokens[code[ci]].text.as_str();
    let kind = |ci: usize| tokens[code[ci]].kind;

    let mut ci = 0;
    while ci < code.len() {
        if !(text(ci) == "#" && ci + 1 < code.len() && text(ci + 1) == "[") {
            ci += 1;
            continue;
        }
        let attr_start = ci;
        let (attr_end, is_test) = match scan_attribute(tokens, code, ci) {
            Some(x) => x,
            None => break, // unterminated attribute at EOF
        };
        if !is_test {
            ci = attr_end + 1;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut k = attr_end + 1;
        while k + 1 < code.len() && text(k) == "#" && text(k + 1) == "[" {
            match scan_attribute(tokens, code, k) {
                Some((end, _)) => k = end + 1,
                None => break,
            }
        }
        // Find the item's extent: a `;` (no body) or a matched brace block,
        // at zero paren/bracket depth.
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut end = None;
        while k < code.len() {
            match (kind(k), text(k)) {
                (TokenKind::Punct, "(") => paren += 1,
                (TokenKind::Punct, ")") => paren -= 1,
                (TokenKind::Punct, "[") => bracket += 1,
                (TokenKind::Punct, "]") => bracket -= 1,
                (TokenKind::Punct, ";") if paren == 0 && bracket == 0 => {
                    end = Some(k);
                    break;
                }
                (TokenKind::Punct, "{") if paren == 0 && bracket == 0 => {
                    end = match_braces(tokens, code, k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let end = end.unwrap_or(code.len() - 1);
        for &ti in &code[attr_start..=end.min(code.len() - 1)] {
            mask[ti] = true;
        }
        // Comment tokens inside the region are test too (harmless).
        if let (Some(&first), Some(&last)) = (code.get(attr_start), code.get(end)) {
            for m in mask.iter_mut().take(last + 1).skip(first) {
                *m = true;
            }
        }
        ci = end + 1;
    }
    mask
}

/// Scans `#[…]` starting at code index `ci` (pointing at `#`). Returns the
/// code index of the closing `]` and whether the attribute marks a test
/// region.
fn scan_attribute(tokens: &[Token], code: &[usize], ci: usize) -> Option<(usize, bool)> {
    let text = |i: usize| tokens[code[i]].text.as_str();
    let mut depth = 0i32;
    let mut idents: Vec<&str> = Vec::new();
    let mut j = ci + 1;
    while j < code.len() {
        match text(j) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    let is_test = match idents.first() {
                        Some(&"test") => true,
                        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
                        _ => false,
                    };
                    return Some((j, is_test));
                }
            }
            _ => {
                if tokens[code[j]].kind == TokenKind::Ident {
                    idents.push(text(j));
                }
            }
        }
        j += 1;
    }
    None
}

/// Given `ci` pointing at `{`, returns the code index of the matching `}`.
pub fn match_braces(tokens: &[Token], code: &[usize], ci: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, &ti) in code.iter().enumerate().skip(ci) {
        match tokens[ti].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_test_fns_and_modules() {
        let src = r#"
pub fn production() { work(); }

#[test]
fn unit() { production(); }

#[cfg(test)]
mod tests {
    fn helper() {}
}

#[cfg(not(test))]
pub fn prod_only() {}
"#;
        let m = SourceModel::new("x.rs", src);
        let at = |name: &str| {
            let ti = m
                .tokens
                .iter()
                .position(|t| t.text == name)
                .unwrap_or_else(|| panic!("token {name}"));
            m.in_test(ti)
        };
        assert!(!at("production"));
        assert!(at("unit"));
        assert!(at("helper"));
        assert!(!at("prod_only"));
    }

    #[test]
    fn should_panic_attribute_rides_with_test() {
        let src = r#"
#[test]
#[should_panic(expected = "boom")]
fn explodes() { panic!("boom"); }

pub fn after() {}
"#;
        let m = SourceModel::new("x.rs", src);
        let panic_ti = m
            .tokens
            .iter()
            .position(|t| t.text == "panic")
            .expect("panic token");
        assert!(m.in_test(panic_ti));
        let after_ti = m
            .tokens
            .iter()
            .position(|t| t.text == "after")
            .expect("after token");
        assert!(!m.in_test(after_ti));
    }
}
