//! EP006 — lock discipline.
//!
//! The serving plane takes several locks per request; a single inverted
//! pair is a latent deadlock that runtime tests only catch if they hit
//! the bad interleaving. This rule checks the order *statically*, from
//! the same table the debug-build validator in `edgepc_geom::guard`
//! checks at runtime:
//!
//! 1. The ranking is `enum Lock` in the linted tree's [`LOCK_ENUM_FILE`]:
//!    declaration order is the rank. A tree without it has an empty
//!    ranking.
//! 2. A *claim* is a `ranked_with(Lock::X, …)` call or a
//!    `rank_scope(Lock::X)` token: the runtime validator's own check
//!    points. A claim holds its lock over an estimated region (chained
//!    temporary → to end of statement; `let`-bound → to `drop(binding)`
//!    or the end of the enclosing block). A call to a poison-tolerant
//!    wrapper (`fn lock(&self) -> Ranked<…>`) claims the wrapper's locks
//!    in the caller.
//! 3. Every `.lock()` in production code must sit inside the arguments
//!    of a `ranked_with` claim or inside the region of a `rank_scope`
//!    claim; any other `.lock()` is an *unranked acquisition*. A variant
//!    that no `.lock()` is attributed to is a *ghost*.
//! 4. Claims propagate over the call graph — including closures passed
//!    to functions that invoke a callback parameter while holding a lock
//!    (the `push_with(req, |depth| …)` shape) — and every
//!    held-while-acquiring edge `L → M` must have `L` declared before
//!    `M`. Descending and re-entrant edges are diagnostics.
//!
//! The analysis is a sound-enough approximation, not an alias analysis:
//! callees are resolved by name (same impl first, then same file, then
//! workspace-wide), and a token held across a `Condvar::wait` is fine —
//! the thread is blocked, not acquiring.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::rules::SourceModel;
use crate::syntax::{self, CallSite, FileSyntax};

/// The file whose `enum Lock` declares the lock order.
pub const LOCK_ENUM_FILE: &str = "crates/geom/src/guard.rs";

/// Adapter methods that are part of an acquisition expression, not a use
/// of the guard: `lock().unwrap_or_else(PoisonError::into_inner)` etc.
const POISON_ADAPTERS: &[&str] = &["unwrap_or_else", "unwrap", "expect"];

/// One file participating in the analysis.
pub struct LockFile<'a> {
    pub rel: &'a str,
    pub model: &'a SourceModel,
    pub syntax: &'a FileSyntax,
}

/// One rank claim inside a function body.
#[derive(Debug, Clone)]
struct Acq {
    /// Rank: index into the declared ranking.
    lock: usize,
    /// Code index of the claiming token (`ranked_with`, `rank_scope`, or
    /// a wrapper callee).
    ci: usize,
    /// Code-index extent over which the lock is considered held.
    region: (usize, usize),
}

/// A call site surviving classification (not itself an acquisition).
#[derive(Debug, Clone)]
struct Call {
    ci: usize,
    /// Indices into the fn table of possible callees.
    callees: Vec<usize>,
    /// Argument paren range, for closure-literal extraction.
    args: (usize, usize),
}

struct FnNode {
    file: usize,
    name: String,
    /// `Some(type)` when the fn sits in an `impl` block.
    impl_of: Option<String>,
    body: Option<(usize, usize)>,
    /// Bodies of fns nested inside this one, skipped when scanning it.
    children: Vec<(usize, usize)>,
    /// Callback-typed parameter names (`impl FnOnce(…)` etc.).
    callback_params: Vec<String>,
    /// Returns a ranked guard (`-> Ranked<…>`): calls to it claim its
    /// direct locks in the *caller*.
    is_wrapper: bool,
    acqs: Vec<Acq>,
    /// Calls left for pass 2 to classify (neither claims nor `.lock()`s).
    pending: Vec<CallSite>,
    calls: Vec<Call>,
    /// Locks this fn may acquire, transitively.
    acquires: BTreeSet<usize>,
    /// Locks held at the point(s) where this fn invokes its callback
    /// parameters.
    callbacks_under: BTreeSet<usize>,
}

/// The variants of `enum Lock` in declaration order, each with its
/// line and column. Empty when the file declares no such enum.
fn parse_ranking(model: &SourceModel) -> Vec<(String, usize, usize)> {
    let code = model.code_indices();
    let text = |j: usize| model.token(code[j]).text.as_str();
    let Some(open) = (0..code.len().saturating_sub(2))
        .find(|&j| text(j) == "enum" && text(j + 1) == "Lock" && text(j + 2) == "{")
        .map(|j| j + 2)
    else {
        return Vec::new();
    };
    let close = super::match_braces(&model.tokens, code, open).unwrap_or(code.len() - 1);
    let mut variants = Vec::new();
    let mut bracket = 0i32;
    for (j, &ti) in code.iter().enumerate().take(close).skip(open + 1) {
        let tok = model.token(ti);
        match tok.text.as_str() {
            "[" => bracket += 1,
            "]" => bracket -= 1,
            _ if bracket == 0
                && tok.kind == crate::lexer::TokenKind::Ident
                && matches!(text(j + 1), "," | "}") =>
            {
                variants.push((tok.text.clone(), tok.line, tok.col));
            }
            _ => {}
        }
    }
    variants
}

/// The rank a `ranked_with(Lock::X, …)` / `rank_scope(Lock::X)` call
/// claims: its first argument must end in `Lock::X` with `X` declared.
fn claimed_rank(
    model: &SourceModel,
    call: &CallSite,
    ranking: &[(String, usize, usize)],
) -> Option<usize> {
    let code = model.code_indices();
    let text = |j: usize| model.token(code[j]).text.as_str();
    let (open, close) = call.args;
    let mut end = open + 1;
    while end < close && text(end) != "," {
        end += 1;
    }
    if end < open + 4 || text(end - 3) != "Lock" || text(end - 2) != "::" {
        return None;
    }
    ranking.iter().position(|(name, ..)| name == text(end - 1))
}

/// Runs the workspace-level lock-discipline analysis over every
/// production source.
pub fn check_workspace(files: &[LockFile<'_>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let ranking = files
        .iter()
        .find(|f| f.rel == LOCK_ENUM_FILE)
        .map(|f| parse_ranking(f.model))
        .unwrap_or_default();

    // ---- fn table ---------------------------------------------------------
    let mut fns: Vec<FnNode> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let first = fns.len();
        for info in &file.syntax.fns {
            if info.is_test {
                continue;
            }
            fns.push(FnNode {
                file: fi,
                name: info.name.clone(),
                impl_of: info.impl_of.clone(),
                body: info.body,
                children: Vec::new(),
                callback_params: info
                    .params
                    .iter()
                    .filter(|p| p.is_callback())
                    .map(|p| p.name.clone())
                    .collect(),
                is_wrapper: info.ret.contains("Ranked"),
                acqs: Vec::new(),
                pending: Vec::new(),
                calls: Vec::new(),
                acquires: BTreeSet::new(),
                callbacks_under: BTreeSet::new(),
            });
        }
        // Nested fns: when scanning a body, skip sub-ranges owned by others.
        for i in first..fns.len() {
            let Some((open, close)) = fns[i].body else {
                continue;
            };
            fns[i].children = fns[first..]
                .iter()
                .filter_map(|f| f.body)
                .filter(|&(o, c)| open < o && c < close)
                .collect();
        }
    }
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.clone()).or_default().push(i);
    }

    // ---- pass 1: claims, and every `.lock()` attributed or flagged --------
    // A claim precedes every `.lock()` it ranks, and calls come in token
    // order, so each `.lock()` is judged against the claims seen so far.
    let mut named = vec![false; ranking.len()];
    for fidx in 0..fns.len() {
        let Some((open, close)) = fns[fidx].body else {
            continue;
        };
        let file = &files[fns[fidx].file];
        // (first, last, rank): the extent whose `.lock()`s a claim ranks —
        // `ranked_with`'s argument list, or a `rank_scope` token's region.
        let mut covers: Vec<(usize, usize, usize)> = Vec::new();
        let mut pending = Vec::new();
        for call in syntax::calls_in(file.model, open + 1, close.saturating_sub(1)) {
            if in_ranges(call.ci, &fns[fidx].children) {
                continue;
            }
            let claimed = match call.name.as_str() {
                "rank_scope" | "ranked_with" if !call.is_method => {
                    claimed_rank(file.model, &call, &ranking)
                }
                _ => None,
            };
            if let Some(lock) = claimed {
                let region = guard_region(file.model, call.ci, close);
                let (first, last) = if call.name == "rank_scope" {
                    region
                } else {
                    call.args
                };
                covers.push((first, last, lock));
                fns[fidx].acqs.push(Acq {
                    lock,
                    ci: call.ci,
                    region,
                });
                continue;
            }
            // `self.lock()` on a wrapper is a claim, built in pass 2.
            let is_mutex_lock = call.name == "lock"
                && call.is_method
                && !(call.recv == ["self"]
                    && resolve_callees(&fns, &by_name, fidx, "lock", &call.recv, true)
                        .iter()
                        .any(|&c| fns[c].is_wrapper));
            if !is_mutex_lock {
                pending.push(call);
                continue;
            }
            // The innermost claim covering this `.lock()` ranks it.
            if let Some(&(_, _, lock)) = covers
                .iter()
                .rev()
                .find(|&&(first, last, _)| first < call.ci && call.ci <= last)
            {
                named[lock] = true;
                continue;
            }
            let tok = file.model.token(file.model.code_indices()[call.ci]);
            out.push(
                Diagnostic::new(
                    "EP006",
                    file.rel,
                    tok.line,
                    tok.col,
                    format!(
                        "unranked mutex acquisition `{}.lock()` in `{}`: no \
                         `ranked_with(Lock::…)` around it and no live `rank_scope(Lock::…)` token",
                        call.recv_path(),
                        fns[fidx].name
                    ),
                )
                .with_item(fns[fidx].name.clone())
                .with_suggestion(format!(
                    "acquire it through `ranked_with(Lock::X, || …)` (or hold a \
                     `rank_scope(Lock::X)` token across a condvar loop), with X declared \
                     in `enum Lock` in {LOCK_ENUM_FILE}"
                )),
            );
        }
        fns[fidx].pending = pending;
    }

    // ---- pass 2: wrapper calls become claims; remaining calls -------------
    for fidx in 0..fns.len() {
        let Some((_, close)) = fns[fidx].body else {
            continue;
        };
        let file = &files[fns[fidx].file];
        let mut calls = Vec::new();
        let mut wrapper_acqs = Vec::new();
        for call in std::mem::take(&mut fns[fidx].pending) {
            let callees =
                resolve_callees(&fns, &by_name, fidx, &call.name, &call.recv, call.is_method);
            if callees.is_empty() {
                continue;
            }
            let wrapped: BTreeSet<usize> = callees
                .iter()
                .filter(|&&c| fns[c].is_wrapper)
                .flat_map(|&c| fns[c].acqs.iter().map(|a| a.lock))
                .collect();
            if !wrapped.is_empty() {
                let region = guard_region(file.model, call.ci, close);
                for lock in wrapped {
                    wrapper_acqs.push(Acq {
                        lock,
                        ci: call.ci,
                        region,
                    });
                }
                continue;
            }
            calls.push(Call {
                ci: call.ci,
                callees,
                args: call.args,
            });
        }
        fns[fidx].acqs.extend(wrapper_acqs);
        fns[fidx].calls = calls;
    }

    // ---- pass 3: transitive acquisition sets (fixpoint) -------------------
    for f in &mut fns {
        f.acquires = f.acqs.iter().map(|a| a.lock).collect();
    }
    loop {
        let mut changed = false;
        for fidx in 0..fns.len() {
            let mut add: BTreeSet<usize> = BTreeSet::new();
            for call in &fns[fidx].calls {
                for &callee in &call.callees {
                    add.extend(fns[callee].acquires.iter().copied());
                }
            }
            for lock in add {
                changed |= fns[fidx].acquires.insert(lock);
            }
        }
        if !changed {
            break;
        }
    }

    // ---- pass 4: callbacks_under — callback invoked inside a held region --
    for fidx in 0..fns.len() {
        if fns[fidx].callback_params.is_empty() {
            continue;
        }
        let file = &files[fns[fidx].file];
        let mut under = BTreeSet::new();
        for acq in &fns[fidx].acqs {
            let invoked = syntax::calls_in(file.model, acq.region.0, acq.region.1)
                .iter()
                .any(|c| fns[fidx].callback_params.contains(&c.name) && c.recv.is_empty());
            if invoked {
                under.insert(acq.lock);
            }
        }
        fns[fidx].callbacks_under = under;
    }

    // ---- pass 5: edges ----------------------------------------------------
    // (from, to) -> (file, line, col, via) — BTreeMap dedupes repeat sites.
    let mut edges: BTreeMap<(usize, usize), (usize, usize, usize, String)> = BTreeMap::new();
    for f in &fns {
        let file = &files[f.file];
        let code = file.model.code_indices();
        let mut edge = |from: usize, to: usize, ci: usize, via: String| {
            let tok = file.model.token(code[ci]);
            edges
                .entry((from, to))
                .or_insert((f.file, tok.line, tok.col, via));
        };
        for acq in &f.acqs {
            // Inner claims while this lock is held.
            for inner in &f.acqs {
                if inner.ci > acq.ci && inner.ci <= acq.region.1 {
                    edge(acq.lock, inner.lock, inner.ci, f.name.clone());
                }
            }
            // Calls into lock-acquiring fns while this lock is held.
            for call in &f.calls {
                if call.ci <= acq.ci || call.ci > acq.region.1 {
                    continue;
                }
                for &callee in &call.callees {
                    for &lock in &fns[callee].acquires {
                        edge(
                            acq.lock,
                            lock,
                            call.ci,
                            format!("{} -> {}", f.name, fns[callee].name),
                        );
                    }
                }
            }
        }
        // Closure arguments passed to fns that run their callback under a
        // lock: the closure body executes with those locks held.
        for call in &f.calls {
            let held: BTreeSet<usize> = call
                .callees
                .iter()
                .flat_map(|&c| fns[c].callbacks_under.iter().copied())
                .collect();
            if held.is_empty() {
                continue;
            }
            for closure in syntax::closures_in(file.model, call.args.0 + 1, call.args.1) {
                let (b0, b1) = closure.body;
                // Claims inside the closure body.
                for inner in &f.acqs {
                    if b0 <= inner.ci && inner.ci <= b1 {
                        for &h in &held {
                            edge(h, inner.lock, inner.ci, format!("closure in {}", f.name));
                        }
                    }
                }
                // Calls inside the closure body into acquiring fns.
                for inner_call in &f.calls {
                    if !(b0 <= inner_call.ci && inner_call.ci <= b1) {
                        continue;
                    }
                    for &callee in &inner_call.callees {
                        for &lock in &fns[callee].acquires {
                            for &h in &held {
                                edge(
                                    h,
                                    lock,
                                    inner_call.ci,
                                    format!("closure in {} -> {}", f.name, fns[callee].name),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // ---- pass 6: judge edges against the ranking --------------------------
    for ((from, to), (fi, line, col, via)) in &edges {
        if from < to {
            continue; // ascends the declared order
        }
        let (from_name, to_name) = (&ranking[*from].0, &ranking[*to].0);
        let msg = if from == to {
            format!("reentrant acquisition: `Lock::{to_name}` taken while already held (via {via})")
        } else {
            format!(
                "lock order violation: `Lock::{to_name}` acquired while holding \
                 `Lock::{from_name}`, which `enum Lock` declares after it (via {via})"
            )
        };
        out.push(
            Diagnostic::new("EP006", files[*fi].rel, *line, *col, msg)
                .with_item(to_name.clone())
                .with_suggestion(
                    "release the outer guard first, or reorder `enum Lock` if the design order changed",
                ),
        );
    }

    // ---- pass 7: ghosts ---------------------------------------------------
    for ((name, line, col), used) in ranking.iter().zip(named) {
        if !used {
            out.push(
                Diagnostic::new(
                    "EP006",
                    LOCK_ENUM_FILE,
                    *line,
                    *col,
                    format!("ghost lock `Lock::{name}`: no `.lock()` is ranked by it"),
                )
                .with_item(name.clone())
                .with_suggestion("delete the variant, or acquire its mutex through it"),
            );
        }
    }

    out
}

fn in_ranges(ci: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(o, c)| o < ci && ci < c)
}

/// Resolves a call by name:
///
/// * `drop(x)` is `std::mem::drop` — never a workspace callee (explicit
///   guard releases must not resolve to `Drop` impls, which are invoked
///   implicitly and would fabricate edges at every release site);
/// * `self.m()` binds to the enclosing impl's method first, then any
///   same-file fn, then any method with that name in scope;
/// * other method calls (`x.m()`) match every impl method named `m` —
///   a union over possible receiver types, conservative but sound;
/// * path calls (`Type::f`, `Self::f`) bind to that type's impl (so
///   `Vec::new()` resolves to nothing rather than to every `new`);
/// * bare calls (`helper(…)`) bind to free fns named `helper`.
fn resolve_callees(
    fns: &[FnNode],
    by_name: &BTreeMap<String, Vec<usize>>,
    caller: usize,
    name: &str,
    recv: &[String],
    is_method: bool,
) -> Vec<usize> {
    if name == "drop" {
        return Vec::new();
    }
    let Some(named) = by_name.get(name) else {
        return Vec::new();
    };
    let caller_file = fns[caller].file;
    let by = |pred: &dyn Fn(&FnNode) -> bool| -> Vec<usize> {
        named.iter().copied().filter(|&i| pred(&fns[i])).collect()
    };
    if is_method {
        if recv.len() == 1 && recv[0] == "self" {
            let same_impl = by(&|f: &FnNode| {
                f.file == caller_file && f.impl_of == fns[caller].impl_of && f.impl_of.is_some()
            });
            if !same_impl.is_empty() {
                return same_impl;
            }
            let same_file = by(&|f: &FnNode| f.file == caller_file);
            if !same_file.is_empty() {
                return same_file;
            }
        }
        return by(&|f: &FnNode| f.impl_of.is_some());
    }
    match recv.last() {
        Some(seg) => {
            let ty = if seg == "Self" {
                fns[caller].impl_of.clone()
            } else {
                Some(seg.clone())
            };
            let assoc = by(&|f: &FnNode| f.impl_of == ty);
            if !assoc.is_empty() {
                return assoc;
            }
            // `module::free_fn(…)`: the last path segment is a module,
            // not a type — fall through to free fns.
            by(&|f: &FnNode| f.impl_of.is_none())
        }
        None => by(&|f: &FnNode| f.impl_of.is_none()),
    }
}

/// Estimates the code-index extent over which the guard (or rank token)
/// produced at `acq_ci` is held. `body_close` bounds the scan.
fn guard_region(model: &SourceModel, acq_ci: usize, body_close: usize) -> (usize, usize) {
    let code = model.code_indices();
    let text = |j: usize| model.token(code[j]).text.as_str();

    // Step over the acquisition expression: `(…)` then poison adapters.
    let mut j = acq_ci + 1;
    if j < code.len() && text(j) == "(" {
        j = syntax::match_parens(model, j)
            .map(|c| c + 1)
            .unwrap_or(j + 1);
    }
    loop {
        if j + 2 < code.len()
            && text(j) == "."
            && POISON_ADAPTERS.contains(&text(j + 1))
            && text(j + 2) == "("
        {
            j = syntax::match_parens(model, j + 2)
                .map(|c| c + 1)
                .unwrap_or(j + 3);
        } else {
            break;
        }
    }

    // Is the statement a `let` binding? Walk back to the statement start.
    let mut k = acq_ci;
    let mut is_let = false;
    let mut binding: Option<String> = None;
    while k > 0 {
        k -= 1;
        match text(k) {
            ";" | "{" | "}" => break,
            "let" => {
                is_let = true;
                // Binding name: first ident after `let` (skipping `mut`).
                let mut b = k + 1;
                while b < acq_ci {
                    let t = text(b);
                    if t != "mut" && t != "(" {
                        binding = Some(t.to_string());
                        break;
                    }
                    b += 1;
                }
                break;
            }
            _ => {}
        }
    }
    if is_let {
        // Held to `drop(binding)` or to the end of the enclosing block.
        let block_end = enclosing_block_end(model, acq_ci, body_close);
        if let Some(name) = binding {
            let mut d = j;
            while d < block_end {
                if text(d) == "drop"
                    && d + 2 < code.len()
                    && text(d + 1) == "("
                    && text(d + 2) == name
                {
                    return (acq_ci, d);
                }
                d += 1;
            }
        }
        (acq_ci, block_end)
    } else {
        // Chained temporary: held to the end of the statement.
        let mut depth = 0i32;
        let mut d = j;
        while d <= body_close && d < code.len() {
            match text(d) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if depth > 0 => depth -= 1,
                ")" | "]" | "}" => return (acq_ci, d.saturating_sub(1)),
                ";" | "," if depth == 0 => return (acq_ci, d),
                _ => {}
            }
            d += 1;
        }
        (acq_ci, body_close)
    }
}

/// The code index of the `}` closing the innermost block containing
/// `ci`, bounded by `body_close`.
fn enclosing_block_end(model: &SourceModel, ci: usize, body_close: usize) -> usize {
    let code = model.code_indices();
    let text = |j: usize| model.token(code[j]).text.as_str();
    let mut depth = 0i32;
    let mut d = ci;
    while d <= body_close && d < code.len() {
        match text(d) {
            "{" => depth += 1,
            "}" => {
                if depth == 0 {
                    return d;
                }
                depth -= 1;
            }
            _ => {}
        }
        d += 1;
    }
    body_close
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the analysis over `sources` plus a [`LOCK_ENUM_FILE`]
    /// declaring `enum Lock { <order> }`.
    fn run(order: &str, sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let guard = format!("pub enum Lock {{ {order} }}");
        let models: Vec<(String, SourceModel)> = std::iter::once((LOCK_ENUM_FILE, guard.as_str()))
            .chain(sources.iter().copied())
            .map(|(rel, src)| (rel.to_string(), SourceModel::new(rel, src)))
            .collect();
        let syntaxes: Vec<FileSyntax> = models.iter().map(|(_, m)| FileSyntax::parse(m)).collect();
        let files: Vec<LockFile<'_>> = models
            .iter()
            .zip(&syntaxes)
            .map(|((rel, model), syntax)| LockFile { rel, model, syntax })
            .collect();
        check_workspace(&files)
    }

    fn has(diags: &[Diagnostic], needle: &str) -> bool {
        diags.iter().any(|d| d.message.contains(needle))
    }

    /// Takes `low` and then, still holding it, `high`.
    const LOW_THEN_HIGH: &str = r#"
use std::sync::{Mutex, PoisonError};
use edgepc_geom::guard::{ranked_with, Lock};
pub struct S { low: Mutex<u64>, high: Mutex<u64> }
impl S {
    pub fn nest(&self) {
        let a = ranked_with(Lock::Low, || self.low.lock().unwrap_or_else(PoisonError::into_inner));
        let b = ranked_with(Lock::High, || self.high.lock().unwrap_or_else(PoisonError::into_inner));
        drop(b);
        drop(a);
    }
}
"#;

    #[test]
    fn the_order_comes_from_enum_lock() {
        let src = [("crates/serve/src/a.rs", LOW_THEN_HIGH)];
        let ascending = run("Low, High", &src);
        assert!(ascending.is_empty(), "unexpected: {ascending:?}");
        // The same source, with only the declaration order swapped.
        let descending = run("High, Low", &src);
        assert!(
            has(
                &descending,
                "`Lock::High` acquired while holding `Lock::Low`"
            ),
            "expected a descending edge: {descending:?}"
        );
    }

    #[test]
    fn early_drop_releases_the_guard() {
        let src = r#"
use std::sync::{Mutex, PoisonError};
use edgepc_geom::guard::{ranked_with, Lock};
pub struct S { low: Mutex<u64>, high: Mutex<u64> }
impl S {
    pub fn fine(&self) {
        let mut b = ranked_with(Lock::High, || self.high.lock().unwrap_or_else(PoisonError::into_inner));
        **b += 1;
        drop(b);
        let a = ranked_with(Lock::Low, || self.low.lock().unwrap_or_else(PoisonError::into_inner));
        drop(a);
    }
}
"#;
        let diags = run("Low, High", &[("crates/serve/src/a.rs", src)]);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn rank_scope_token_ranks_the_locks_in_its_block() {
        let src = r#"
use std::sync::{Mutex, PoisonError};
use edgepc_geom::guard::{rank_scope, Lock};
pub struct S { low: Mutex<u64> }
impl S {
    pub fn scoped(&self) -> u64 {
        let total = {
            let _rank = rank_scope(Lock::Low);
            let g = self.low.lock().unwrap_or_else(PoisonError::into_inner);
            *g
        };
        let stray = self.low.lock().unwrap_or_else(PoisonError::into_inner);
        total + *stray
    }
}
"#;
        let diags = run("Low", &[("crates/serve/src/a.rs", src)]);
        let unranked: Vec<_> = diags
            .iter()
            .filter(|d| {
                d.message
                    .contains("unranked mutex acquisition `self.low.lock()`")
            })
            .collect();
        // The token's block ends before `stray`: only that one is unranked.
        assert_eq!(unranked.len(), 1, "{diags:?}");
        assert_eq!(unranked[0].line, 12);
    }

    #[test]
    fn interprocedural_edge_through_wrapper_and_call() {
        let a = r#"
use std::sync::{Mutex, MutexGuard, PoisonError};
use edgepc_geom::guard::{ranked_with, Lock, Ranked};
pub struct S { low: Mutex<u64>, high: Mutex<u64> }
impl S {
    fn lock(&self) -> Ranked<MutexGuard<'_, u64>> {
        ranked_with(Lock::High, || self.high.lock().unwrap_or_else(PoisonError::into_inner))
    }
    pub fn outer(&self) {
        let g = self.lock();
        self.touch_low();
        drop(g);
    }
    pub fn touch_low(&self) {
        let a = ranked_with(Lock::Low, || self.low.lock().unwrap_or_else(PoisonError::into_inner));
        drop(a);
    }
}
"#;
        let diags = run("Low, High", &[("crates/serve/src/a.rs", a)]);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("lock order violation")
                    && d.message.contains("outer -> touch_low")),
            "expected interprocedural violation: {diags:?}"
        );
    }

    #[test]
    fn callback_under_lock_propagates_to_closure_argument() {
        let q = r#"
use std::sync::{Mutex, MutexGuard, PoisonError};
use edgepc_geom::guard::{ranked_with, Lock, Ranked};
pub struct Q { inner: Mutex<u64> }
impl Q {
    fn lock(&self) -> Ranked<MutexGuard<'_, u64>> {
        ranked_with(Lock::Queue, || self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }
    pub fn push_with(&self, on_admit: impl FnOnce(u64)) {
        let mut g = self.lock();
        **g += 1;
        on_admit(**g);
        drop(g);
    }
}
"#;
        let e = r#"
use std::sync::{Mutex, PoisonError};
use edgepc_geom::guard::{ranked_with, Lock};
pub struct E { state: Mutex<u64> }
impl E {
    pub fn submit(&self, q: &super::q::Q) {
        q.push_with(|depth| {
            let s = ranked_with(Lock::State, || self.state.lock().unwrap_or_else(PoisonError::into_inner));
            let _ = depth + **s;
        });
    }
}
"#;
        let diags = run(
            "State, Queue",
            &[("crates/serve/src/q.rs", q), ("crates/serve/src/e.rs", e)],
        );
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("lock order violation")
                    && d.message.contains("closure in submit")),
            "expected closure-under-lock violation: {diags:?}"
        );
    }

    #[test]
    fn unranked_acquisitions_and_ghost_variants_are_flagged() {
        let src = r#"
use std::sync::{Mutex, PoisonError};
use edgepc_geom::guard::{ranked_with, Lock};
pub struct S { mystery: Mutex<u64>, typo: Mutex<u64> }
impl S {
    pub fn poke(&self) {
        let g = self.mystery.lock().unwrap_or_else(PoisonError::into_inner);
        drop(g);
        let t = ranked_with(Lock::Undeclared, || self.typo.lock().unwrap_or_else(PoisonError::into_inner));
        drop(t);
    }
}
"#;
        let diags = run("Low, High", &[("crates/serve/src/a.rs", src)]);
        assert!(has(
            &diags,
            "unranked mutex acquisition `self.mystery.lock()`"
        ));
        // A claim naming a variant `enum Lock` lacks ranks nothing.
        assert!(has(&diags, "unranked mutex acquisition `self.typo.lock()`"));
        for ghost in ["Low", "High"] {
            assert!(
                diags.iter().any(|d| d.file == LOCK_ENUM_FILE
                    && d.message.contains(&format!("ghost lock `Lock::{ghost}`"))),
                "expected ghost {ghost}: {diags:?}"
            );
        }
    }
}
