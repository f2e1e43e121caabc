//! The syntactic tier: item/impl/fn structure recovered from the flat
//! token stream, in the same hand-rolled, std-only spirit as the lexer
//! (no `syn`).
//!
//! [`FileSyntax::parse`] walks a [`SourceModel`] once and recovers the
//! structure the parser-backed rules (EP006, EP007) need and the
//! token-level rules cannot see:
//!
//! * every `fn` item — name, visibility, enclosing `impl` type, parameter
//!   names and types (with `Fn`/`FnMut`/`FnOnce` callback detection),
//!   return type, brace-matched body extent, and its leading comment
//!   block ([`leading_comments`]), which carries the inline waivers;
//! * closure literals inside any token range ([`closures_in`]), with
//!   parameter names and a body extent that covers both braced and bare
//!   expression bodies;
//! * call sites inside any token range ([`calls_in`]), each with a
//!   normalized receiver chain (`self.inner`, `self.shard()`, `Vec`)
//!   so rules can match declared lock sites and resolve callees.
//!
//! Everything here is *recovery*, not parsing: malformed input degrades
//! to fewer recognized items, never to a panic — the same totality
//! contract the lexer keeps.

use crate::lexer::TokenKind;
use crate::rules::SourceModel;

/// Rust keywords that can precede `(` without being a call.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "fn", "impl", "pub", "use", "mod", "where", "unsafe", "async", "dyn", "ref", "mut",
    "move", "struct", "enum", "trait", "type", "const", "static", "crate", "super",
];

/// One parameter of a recovered `fn`.
#[derive(Debug, Clone)]
pub struct Param {
    /// The binding name (first identifier of the pattern; `self` for
    /// receiver parameters).
    pub name: String,
    /// The type tokens joined with spaces (empty for bare `self`).
    pub ty: String,
}

impl Param {
    /// Does the type name a closure bound (`impl FnOnce(..)`, generic
    /// `F: Fn(..)` parameters surface as the generic's name — callers
    /// should also treat single-uppercase-letter types bounded in the
    /// generics list as potential callbacks; this predicate covers the
    /// `impl Fn*` form that this workspace uses)?
    pub fn is_callback(&self) -> bool {
        self.ty
            .split(|c: char| !c.is_alphanumeric())
            .any(|w| matches!(w, "Fn" | "FnMut" | "FnOnce"))
    }
}

/// One recovered function item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    pub name: String,
    /// Bare `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// The `Self` type name when the fn sits inside an `impl` block.
    pub impl_of: Option<String>,
    /// 1-based position of the fn's name token.
    pub line: usize,
    pub col: usize,
    pub params: Vec<Param>,
    /// Return-type tokens joined with spaces ("" when the fn returns `()`).
    pub ret: String,
    /// Code-index range of the body braces `{ … }` (inclusive), or `None`
    /// for bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// The fn sits in a `#[test]` / `#[cfg(test)]` region.
    pub is_test: bool,
    /// The leading comment block, one `(line, text)` per comment with
    /// its `//`/`///`/`/* */` fence stripped ([`leading_comments`]).
    pub leading: Vec<(usize, String)>,
}

/// The recovered structure of one source file.
pub struct FileSyntax {
    pub fns: Vec<FnInfo>,
}

impl FileSyntax {
    /// Walks the model once and recovers every fn item (top-level, inside
    /// `impl` blocks, and nested inside other fns).
    pub fn parse(model: &SourceModel) -> FileSyntax {
        let code = model.code_indices();
        let text = |ci: usize| model.token(code[ci]).text.as_str();
        let kind = |ci: usize| model.token(code[ci]).kind;

        // Pass 1: impl regions (type name + body extent), for impl_of.
        let mut impls: Vec<(String, usize, usize)> = Vec::new();
        let mut ci = 0;
        while ci < code.len() {
            if text(ci) == "impl" && kind(ci) == TokenKind::Ident {
                if let Some((name, open)) = scan_impl_header(model, ci) {
                    if let Some(close) = super::rules::match_braces(&model.tokens, code, open) {
                        impls.push((name, open, close));
                    }
                }
            }
            ci += 1;
        }

        // Pass 2: fn items.
        let mut fns = Vec::new();
        let mut ci = 0;
        while ci < code.len() {
            if !(text(ci) == "fn" && kind(ci) == TokenKind::Ident) {
                ci += 1;
                continue;
            }
            let name_ci = ci + 1;
            if name_ci >= code.len() || kind(name_ci) != TokenKind::Ident {
                ci += 1;
                continue;
            }
            let Some(info) = scan_fn(model, &impls, ci, name_ci) else {
                ci += 1;
                continue;
            };
            ci = name_ci + 1;
            fns.push(info);
        }
        FileSyntax { fns }
    }

    /// The innermost fn whose body contains code index `ci`.
    pub fn enclosing_fn(&self, ci: usize) -> Option<&FnInfo> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(open, close)| open < ci && ci < close))
            .min_by_key(|f| {
                let (open, close) = f.body.unwrap_or((0, usize::MAX));
                close - open
            })
    }
}

/// Scans an `impl` header starting at `ci` (pointing at `impl`). Returns
/// the implemented type's name (the `for` type in trait impls) and the
/// code index of the body `{`.
fn scan_impl_header(model: &SourceModel, ci: usize) -> Option<(String, usize)> {
    let code = model.code_indices();
    let text = |j: usize| model.token(code[j]).text.as_str();
    let kind = |j: usize| model.token(code[j]).kind;

    let mut open = None;
    let mut for_at = None;
    let mut j = ci + 1;
    let mut paren = 0i32;
    while j < code.len() {
        match text(j) {
            "(" => paren += 1,
            ")" => paren -= 1,
            "for" if paren == 0 => for_at = Some(j),
            "{" if paren == 0 => {
                open = Some(j);
                break;
            }
            ";" if paren == 0 => return None, // e.g. `impl Trait` in a type position
            _ => {}
        }
        j += 1;
    }
    let open = open?;
    // The type is the last plain identifier of the path between the start
    // point (`for` in trait impls, the generics otherwise) and the first
    // `<` / `where` / `{` that follows it.
    let start = for_at.map(|f| f + 1).unwrap_or_else(|| {
        // Skip the impl's generic parameter list, if any.
        let mut k = ci + 1;
        if k < code.len() && text(k) == "<" {
            let mut depth = 0i32;
            while k < code.len() {
                match text(k) {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        k
    });
    let mut name = None;
    let mut k = start;
    while k < open {
        match text(k) {
            "<" | "where" => break,
            t if kind(k) == TokenKind::Ident && !matches!(t, "dyn" | "mut" | "const") => {
                name = Some(t.to_string());
            }
            _ => {}
        }
        k += 1;
    }
    name.map(|n| (n, open))
}

/// Scans one fn item: `ci` points at `fn`, `name_ci` at the name.
fn scan_fn(
    model: &SourceModel,
    impls: &[(String, usize, usize)],
    ci: usize,
    name_ci: usize,
) -> Option<FnInfo> {
    let code = model.code_indices();
    let text = |j: usize| model.token(code[j]).text.as_str();

    // Visibility: walk back over qualifiers to find a bare `pub`.
    let mut is_pub = false;
    let mut back = ci;
    while back > 0 {
        back -= 1;
        match text(back) {
            "const" | "unsafe" | "async" | "extern" => continue,
            _ if model.token(code[back]).kind == TokenKind::Str => continue, // extern "C"
            ")" => {
                // `pub(crate)` / `pub(super)`: restricted visibility — not
                // part of the public surface, so stop here with is_pub
                // still false.
                break;
            }
            "pub" => {
                is_pub = true;
                break;
            }
            _ => break,
        }
    }

    // Skip fn generics, then find the parameter list.
    let mut j = name_ci + 1;
    if j < code.len() && text(j) == "<" {
        let mut depth = 0i32;
        while j < code.len() {
            match text(j) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                "{" | ";" => return None, // malformed
                _ => {}
            }
            j += 1;
        }
    }
    if j >= code.len() || text(j) != "(" {
        return None;
    }
    let params_open = j;
    let params_close = match_parens(model, params_open)?;
    let params = split_params(model, params_open, params_close);

    // Return type: `-> …` up to `{` / `;` / `where` at depth 0.
    let mut ret = String::new();
    let mut k = params_close + 1;
    if k < code.len() && text(k) == "->" {
        k += 1;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while k < code.len() {
            match text(k) {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" | ";" if paren == 0 && bracket == 0 => break,
                "where" if paren == 0 && bracket == 0 => break,
                _ => {}
            }
            if !ret.is_empty() {
                ret.push(' ');
            }
            ret.push_str(text(k));
            k += 1;
        }
    }
    // Skip a where clause.
    while k < code.len() && !matches!(text(k), "{" | ";") {
        k += 1;
    }
    let body = if k < code.len() && text(k) == "{" {
        super::rules::match_braces(&model.tokens, code, k).map(|close| (k, close))
    } else {
        None
    };

    let name_tok = model.token(code[name_ci]);
    Some(FnInfo {
        name: name_tok.text.clone(),
        is_pub,
        impl_of: impls
            .iter()
            .filter(|(_, open, close)| *open < ci && ci < *close)
            .min_by_key(|(_, open, close)| close - open)
            .map(|(n, _, _)| n.clone()),
        line: name_tok.line,
        col: name_tok.col,
        params,
        ret,
        body,
        is_test: model.in_test(code[name_ci]),
        leading: leading_comments(model, ci),
    })
}

/// The comment block that leads the fn whose `fn` keyword sits at code
/// index `ci`: every comment between the previous item or statement and
/// the keyword, looking through outer attributes (`#[inline(always)]`,
/// `#[allow(..)]`) and qualifiers (`pub(crate)`, `const`, `unsafe`, …).
/// An inner doc comment (`//!`) or inner attribute ends the block: it
/// belongs to the enclosing module. Returns `(line, text)` per comment,
/// fence stripped, in source order.
pub fn leading_comments(model: &SourceModel, ci: usize) -> Vec<(usize, String)> {
    let tokens = &model.tokens;
    let mut out = Vec::new();
    let Some(&start) = model.code_indices().get(ci) else {
        return out;
    };
    let mut ti = start;
    while ti > 0 {
        ti -= 1;
        let tok = &tokens[ti];
        match tok.text.as_str() {
            t if tok.is_comment() => {
                if t.starts_with("//!") || t.starts_with("/*!") {
                    break;
                }
                let body = t.strip_suffix("*/").unwrap_or(t);
                let body = body.trim_start_matches(['/', '*']).trim();
                out.push((tok.line, body.to_string()));
            }
            "pub" | "const" | "unsafe" | "async" | "extern" => {}
            _ if tok.kind == TokenKind::Str => {} // extern "C"
            ")" | "]" => {
                // `pub(crate)` or an outer attribute `#[…]`: skip to the
                // `pub` / `#` that opens it.
                let (open, close) = if tok.text == ")" {
                    ("(", ")")
                } else {
                    ("[", "]")
                };
                let mut depth = 0i32;
                let mut j = ti;
                let opened = loop {
                    let t = tokens[j].text.as_str();
                    if !tokens[j].is_comment() {
                        depth += i32::from(t == close) - i32::from(t == open);
                    }
                    if depth == 0 || j == 0 {
                        break (depth == 0).then_some(j);
                    }
                    j -= 1;
                };
                let opener = if open == "(" { "pub" } else { "#" };
                match opened {
                    Some(j) if j > 0 && tokens[j - 1].text == opener => ti = j - 1,
                    _ => break,
                }
            }
            _ => break,
        }
    }
    out.reverse();
    out
}

/// Given `ci` pointing at `(`, returns the code index of the matching `)`.
pub fn match_parens(model: &SourceModel, ci: usize) -> Option<usize> {
    let code = model.code_indices();
    let mut depth = 0i32;
    for (j, &ti) in code.iter().enumerate().skip(ci) {
        match model.token(ti).text.as_str() {
            "(" => depth += 1,
            ")" => {
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

/// Splits a parameter list `( … )` into [`Param`]s at top-level commas.
fn split_params(model: &SourceModel, open: usize, close: usize) -> Vec<Param> {
    let code = model.code_indices();
    let text = |j: usize| model.token(code[j]).text.as_str();
    let mut params = Vec::new();
    let mut start = open + 1;
    let mut depth = 0i32;
    for j in open + 1..=close {
        let t = text(j);
        let boundary = (t == "," && depth == 0) || j == close;
        match t {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" if j != close => depth -= 1,
            _ => {}
        }
        if boundary {
            if j > start {
                let mut name = None;
                let mut ty = String::new();
                let mut seen_colon = false;
                for &ti in code.iter().take(j).skip(start) {
                    let tok = model.token(ti);
                    let tk = tok.text.as_str();
                    if seen_colon {
                        if !ty.is_empty() {
                            ty.push(' ');
                        }
                        ty.push_str(tk);
                    } else if tk == ":" {
                        seen_colon = true;
                    } else if name.is_none()
                        && (tok.kind == TokenKind::Ident || tk == "self")
                        && tk != "mut"
                    {
                        name = Some(tk.to_string());
                    }
                }
                if let Some(name) = name {
                    params.push(Param { name, ty });
                }
            }
            start = j + 1;
        }
    }
    params
}

/// A closure literal.
#[derive(Debug, Clone)]
pub struct Closure {
    /// Code index of the opening `|` (or the whole `||` for no-arg
    /// closures).
    pub start: usize,
    pub params: Vec<String>,
    /// Code-index extent of the body, inclusive. Braced bodies span
    /// `{`..`}`; bare expression bodies span to the last token before the
    /// `,` / `)` / `;` that ends them.
    pub body: (usize, usize),
}

/// Tokens that can directly precede a closure's `|`.
fn closure_position(prev: Option<&str>) -> bool {
    match prev {
        None => true,
        Some(t) => {
            matches!(
                t,
                "(" | "," | "=" | "=>" | "{" | ";" | ":" | "return" | "move" | "&&" | "||" | "else"
            )
        }
    }
}

/// Finds top-level closure literals in the code-index range
/// `[from, to]` (inclusive). Nested closures inside a found closure's
/// body are not reported — recurse with the body range to get them.
pub fn closures_in(model: &SourceModel, from: usize, to: usize) -> Vec<Closure> {
    let code = model.code_indices();
    let text = |j: usize| model.token(code[j]).text.as_str();
    let mut out: Vec<Closure> = Vec::new();
    let mut ci = from;
    while ci <= to && ci < code.len() {
        if let Some(last) = out.last() {
            if ci <= last.body.1 {
                ci = last.body.1 + 1;
                continue;
            }
        }
        let t = text(ci);
        let prev = ci.checked_sub(1).map(text);
        let is_pipe = t == "|" && closure_position(prev);
        let is_double = t == "||" && closure_position(prev);
        if !(is_pipe || is_double) {
            ci += 1;
            continue;
        }
        // Parameters: idents up to the closing `|` (none for `||`).
        let mut params = Vec::new();
        let mut body_start = ci + 1;
        if is_pipe {
            let mut j = ci + 1;
            let mut closed = false;
            while j <= to && j < code.len() {
                let tj = text(j);
                if tj == "|" {
                    closed = true;
                    body_start = j + 1;
                    break;
                }
                if model.token(code[j]).kind == TokenKind::Ident && text(j - 1) != ":" {
                    params.push(tj.to_string());
                }
                j += 1;
            }
            if !closed {
                ci += 1;
                continue;
            }
        }
        if body_start > to || body_start >= code.len() {
            break;
        }
        let body_end = if text(body_start) == "{" {
            super::rules::match_braces(&model.tokens, code, body_start).unwrap_or(to)
        } else {
            // Bare expression: until `,` / `)` / `;` / `}` at depth 0.
            let mut depth = 0i32;
            let mut j = body_start;
            let mut end = to;
            while j <= to && j < code.len() {
                match text(j) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" if depth > 0 => depth -= 1,
                    ")" | "]" | "}" | ";" => {
                        end = j.saturating_sub(1);
                        break;
                    }
                    "," if depth == 0 => {
                        end = j.saturating_sub(1);
                        break;
                    }
                    _ => {}
                }
                j += 1;
                end = j.min(to);
            }
            end
        };
        out.push(Closure {
            start: ci,
            params,
            body: (body_start, body_end.min(to)),
        });
        ci = body_start;
    }
    out
}

/// One call site: an identifier followed by `(` that is not a keyword,
/// a macro invocation, or an `fn` definition.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Code index of the callee name.
    pub ci: usize,
    pub name: String,
    /// Normalized receiver chain, outermost first: `a.b.c()` at callee
    /// `c` yields `["a", "b"]`; `self.shard(x).lock()` at `lock` yields
    /// `["self", "shard()"]`; `Vec::new()` at `new` yields `["Vec"]`.
    pub recv: Vec<String>,
    /// The call is `recv.name(...)` (last separator was `.`).
    pub is_method: bool,
    /// Code-index range of the argument parens, inclusive.
    pub args: (usize, usize),
}

impl CallSite {
    /// The receiver chain joined with `.` (path segments too — good
    /// enough for matching declared lock-site receivers).
    pub fn recv_path(&self) -> String {
        self.recv.join(".")
    }
}

/// Finds call sites in the code-index range `[from, to]` (inclusive).
pub fn calls_in(model: &SourceModel, from: usize, to: usize) -> Vec<CallSite> {
    let code = model.code_indices();
    let text = |j: usize| model.token(code[j]).text.as_str();
    let mut out = Vec::new();
    for ci in from..=to.min(code.len().saturating_sub(1)) {
        if model.token(code[ci]).kind != TokenKind::Ident {
            continue;
        }
        let name = text(ci);
        if KEYWORDS.contains(&name) {
            continue;
        }
        if ci + 1 >= code.len() || text(ci + 1) != "(" {
            continue;
        }
        if ci > 0 && matches!(text(ci - 1), "fn") {
            continue;
        }
        let Some(close) = match_parens(model, ci + 1) else {
            continue;
        };
        let (recv, is_method) = recv_chain(model, ci);
        out.push(CallSite {
            ci,
            name: name.to_string(),
            recv,
            is_method,
            args: (ci + 1, close),
        });
    }
    out
}

/// Walks the receiver/path chain backwards from the callee name at `ci`.
/// Returns the chain (outermost first) and whether the final separator
/// was `.` (method call).
pub fn recv_chain(model: &SourceModel, ci: usize) -> (Vec<String>, bool) {
    let code = model.code_indices();
    let text = |j: usize| model.token(code[j]).text.as_str();
    let mut chain = Vec::new();
    let mut is_method = false;
    let mut j = ci;
    let mut first_sep = true;
    while j > 0 {
        let sep = text(j - 1);
        if sep != "." && sep != "::" {
            break;
        }
        if first_sep {
            is_method = sep == ".";
            first_sep = false;
        }
        if j < 2 {
            break;
        }
        let before = j - 2;
        match text(before) {
            ")" => {
                // A call component: match the parens backwards.
                let mut depth = 0i32;
                let mut k = before;
                loop {
                    match text(k) {
                        ")" => depth += 1,
                        "(" => depth -= 1,
                        _ => {}
                    }
                    if depth == 0 || k == 0 {
                        break;
                    }
                    k -= 1;
                }
                if k == 0 || model.token(code[k - 1]).kind != TokenKind::Ident {
                    break;
                }
                chain.push(format!("{}()", text(k - 1)));
                j = k - 1;
            }
            _ if model.token(code[before]).kind == TokenKind::Ident => {
                chain.push(text(before).to_string());
                j = before;
            }
            _ => break,
        }
    }
    chain.reverse();
    (chain, is_method)
}
