//! Lock ranks for the network tier.
//!
//! Mirrors the `[lock]` ranking in `LINT.toml`; the lint crate's
//! `lockrank_constants_mirror_the_lint_toml_ranking` test holds the two
//! together. The net locks rank **below** every serve/trace lock: a
//! connection thread may hold nothing while it calls into a shard
//! (submit/settle release all net locks first by construction), but
//! ranking them first makes even an accidental overlap ascend.

/// `NetServer`'s connection-handle table.
pub(crate) const CONNS: u16 = 2;

/// `Router`'s shard-health state.
pub(crate) const ROUTER: u16 = 4;

/// A connection's bounded response pipeline (the backpressure point).
pub(crate) const PIPE: u16 = 6;
