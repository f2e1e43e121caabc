//! Edge-case coverage for the syntactic tier (`edgepc_lint::syntax`)
//! through the public API: raw strings, nested block comments, macro
//! bodies, impl/closure/brace nesting, visibility, callback params,
//! receiver-chain recovery and leading comment blocks. These are the
//! shapes that broke naive token scanners; each test pins the recovery
//! the parser-backed rules (EP006, EP007) and the inline waivers depend
//! on.

// Test-support indexing helpers sit outside #[test] fns, where
// clippy.toml's allow-expect-in-tests does not reach.
#![allow(clippy::expect_used)]

use edgepc_lint::rules::SourceModel;
use edgepc_lint::syntax::{calls_in, closures_in, FileSyntax, FnInfo};

fn parse(src: &str) -> (SourceModel, FileSyntax) {
    let model = SourceModel::new("crates/x/src/lib.rs", src);
    let syntax = FileSyntax::parse(&model);
    (model, syntax)
}

fn find<'s>(syntax: &'s FileSyntax, name: &str) -> &'s FnInfo {
    syntax
        .fns
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("fn `{name}` not recovered"))
}

#[test]
fn raw_strings_with_braces_do_not_skew_body_extents() {
    let src = r####"
pub fn noisy() -> u32 {
    let _s = r#"{ not a block } fn fake() {"#;
    let _t = "}} {{ \" ";
    7
}
fn after() {}
"####;
    let (_m, syntax) = parse(src);
    // Both fns recovered: the braces inside the literals were inert, so
    // `noisy`'s body closed where the real `}` sits and `after` was seen.
    assert_eq!(syntax.fns.len(), 2);
    let noisy = find(&syntax, "noisy");
    assert!(noisy.body.is_some(), "body extent lost to raw string");
    assert_eq!(noisy.ret, "u32");
    find(&syntax, "after");
}

#[test]
fn nested_block_comments_hide_fake_items() {
    let src = "
/* outer /* nested fn ghost() { */ still comment fn ghost2() { */
fn real() { let _ = 1; }
";
    let (_m, syntax) = parse(src);
    let names: Vec<&str> = syntax.fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["real"], "commented-out fns must not surface");
}

#[test]
fn macro_bodies_degrade_without_panicking() {
    // macro_rules! bodies are token soup ($x:expr, unmatched-looking
    // fragments); recovery must stay total and still see the real fn.
    let src = "
macro_rules! mk {
    ($n:ident) => {
        fn $n() -> u32 { 1 }
    };
}
pub fn genuine() -> bool { true }
";
    let (_m, syntax) = parse(src);
    find(&syntax, "genuine");
}

#[test]
fn impl_nesting_attributes_fns_to_their_self_type() {
    let src = "
struct A;
struct B;
impl A {
    pub fn on_a(&self) {}
    fn helper() {
        fn nested_free() {}
    }
}
impl B {
    pub(crate) fn on_b(&mut self) {}
}
fn free() {}
";
    let (_m, syntax) = parse(src);
    assert_eq!(find(&syntax, "on_a").impl_of.as_deref(), Some("A"));
    assert_eq!(find(&syntax, "helper").impl_of.as_deref(), Some("A"));
    assert_eq!(find(&syntax, "on_b").impl_of.as_deref(), Some("B"));
    assert_eq!(find(&syntax, "free").impl_of, None);
    // A fn nested inside a method still sits lexically inside `impl A`.
    assert_eq!(find(&syntax, "nested_free").impl_of.as_deref(), Some("A"));
    // Visibility: bare `pub` only.
    assert!(find(&syntax, "on_a").is_pub);
    assert!(!find(&syntax, "on_b").is_pub, "pub(crate) is not pub");
    assert!(!find(&syntax, "helper").is_pub);
}

#[test]
fn params_and_callback_bounds_are_recovered() {
    let src = "
pub fn apply(n: usize, f: impl FnMut(usize) -> u32, tag: &str) -> u32 {
    let _ = tag;
    f(n)
}
";
    let (_m, syntax) = parse(src);
    let apply = find(&syntax, "apply");
    let names: Vec<&str> = apply.params.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["n", "f", "tag"]);
    assert!(apply.params[1].is_callback(), "impl FnMut is a callback");
    assert!(!apply.params[0].is_callback());
    assert!(!apply.params[2].is_callback());
}

#[test]
fn trait_method_declarations_have_no_body() {
    let src = "
trait T {
    fn required(&self) -> u32;
    fn provided(&self) -> u32 { 0 }
}
";
    let (_m, syntax) = parse(src);
    assert!(find(&syntax, "required").body.is_none());
    assert!(find(&syntax, "provided").body.is_some());
}

#[test]
fn test_region_fns_are_marked() {
    let src = "
fn prod() {}
#[cfg(test)]
mod tests {
    #[test]
    fn checks() { assert!(true); }
}
";
    let (_m, syntax) = parse(src);
    assert!(!find(&syntax, "prod").is_test);
    assert!(find(&syntax, "checks").is_test);
}

#[test]
fn closures_in_body_recover_params_and_both_body_forms() {
    let src = "
fn host(xs: &[u32]) -> u32 {
    let braced = xs.iter().map(|x| { x + 1 }).sum::<u32>();
    let bare = xs.iter().fold(0, |acc, x| acc + x);
    braced + bare
}
";
    let (model, syntax) = parse(src);
    let host = find(&syntax, "host");
    let (from, to) = host.body.expect("host has a body");
    let closures = closures_in(&model, from, to);
    assert_eq!(closures.len(), 2, "one braced, one bare-expression closure");
    assert_eq!(closures[0].params, ["x"]);
    assert_eq!(closures[1].params, ["acc", "x"]);
}

#[test]
fn call_sites_carry_normalized_receiver_chains() {
    let src = "
struct S { inner: std::sync::Mutex<u32> }
impl S {
    fn shard(&self) -> &std::sync::Mutex<u32> { &self.inner }
    fn go(&self) -> u32 {
        let a = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let _v: Vec<u32> = Vec::new();
        let b = self.shard().lock().unwrap_or_else(|e| e.into_inner());
        *a + *b
    }
}
";
    let (model, syntax) = parse(src);
    let go = find(&syntax, "go");
    let (from, to) = go.body.expect("go has a body");
    let calls = calls_in(&model, from, to);
    let lock_recvs: Vec<String> = calls
        .iter()
        .filter(|c| c.name == "lock")
        .map(edgepc_lint::syntax::CallSite::recv_path)
        .collect();
    assert_eq!(lock_recvs, ["self.inner", "self.shard()"]);
    let vec_new = calls
        .iter()
        .find(|c| c.name == "new")
        .expect("Vec::new call site");
    assert!(!vec_new.is_method, "Vec::new is a path call, not a method");
    assert_eq!(vec_new.recv_path(), "Vec");
}

#[test]
fn unbalanced_input_degrades_to_fewer_items_not_a_panic() {
    // Totality contract: truncated/garbled source never panics the tier.
    for src in [
        "fn truncated() { let x = (",
        "impl {{{",
        "fn a(} fn b() {}",
        "}} fn tail() {}",
    ] {
        let model = SourceModel::new("crates/x/src/bad.rs", src);
        let _ = FileSyntax::parse(&model);
    }
}

/// A waiver line as it appears in a leading comment block.
const WAIVER: &str = "waive EP002: the exact zero test is deliberate";

fn waived(syntax: &FileSyntax, name: &str) -> bool {
    find(syntax, name).leading.iter().any(|(_, t)| t == WAIVER)
}

#[test]
fn leading_block_looks_through_attributes_and_qualifiers() {
    let src = "
/// Hot.
///
// waive EP002: the exact zero test is deliberate
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) const fn attributed() {}

struct S;
impl S {
    // waive EP002: the exact zero test is deliberate
    pub(super) fn method(&self) {}

    // waive EP002: a reason of some length
    fn other(&self) {}
}
";
    let (_m, syntax) = parse(src);
    assert!(waived(&syntax, "attributed"));
    assert!(waived(&syntax, "method"));
    assert!(!waived(&syntax, "other"));
    assert_eq!(
        find(&syntax, "attributed").leading,
        [
            (2, "Hot.".to_string()),
            (3, String::new()),
            (4, WAIVER.to_string())
        ]
    );
    assert_eq!(
        find(&syntax, "other").leading,
        [(14, "waive EP002: a reason of some length".to_string())]
    );
}

#[test]
fn comments_inside_bodies_lead_nothing() {
    let src = "
//! waive EP002: the exact zero test is deliberate
fn first() {
    // waive EP002: the exact zero test is deliberate
    let _x = 1;
}
fn second() {}
fn third() {
    // waive EP002: the exact zero test is deliberate
}
";
    let (_m, syntax) = parse(src);
    // The module doc above `first`, the comment inside its body, and the
    // one inside `third`'s body lead no fn.
    for name in ["first", "second", "third"] {
        assert!(find(&syntax, name).leading.is_empty(), "{name}");
    }
}
