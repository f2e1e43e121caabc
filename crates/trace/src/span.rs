//! RAII spans: time a stage, attach its op counts and modeled cost, and
//! record the result into a [`Registry`] on drop.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use edgepc_geom::OpCounts;

use crate::registry::{current, Registry};

/// One completed span, as stored in a [`Registry`].
///
/// Wall-clock timing (`start_us`, `dur_us`) sits next to the modeled
/// Jetson-Xavier cost (`modeled_ms`, `modeled_mj`) the recording site
/// computed from the same stage's [`OpCounts`] — the paper's
/// measured-work/modeled-time split made visible per stage.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanData {
    /// Stage name, e.g. `"sa1.sample(morton)"`.
    pub name: String,
    /// Category, e.g. `"sample"`, `"search"`, `"fc"`, `"model"`.
    pub kind: String,
    /// Request-scoped trace id (0 = not attributed to any request). Spans
    /// inherit the ambient id installed by [`with_trace`](crate::with_trace)
    /// at open time, so every stage a request executes — queue handling,
    /// batch exec, and the model-internal sample/search/fc spans — carries
    /// the same id and a single request's tree is reconstructible from a
    /// mixed multi-request capture.
    pub trace_id: u64,
    /// Nesting depth at record time (0 = top level on its thread).
    pub depth: usize,
    /// Microseconds since the registry's epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Thread id the span ran on (dense ids assigned per registry use).
    pub tid: u64,
    /// Operations the stage performed (measured, not modeled).
    pub ops: OpCounts,
    /// Modeled device time in milliseconds, if the site priced the stage.
    pub modeled_ms: Option<f64>,
    /// Modeled device energy in millijoules, if the site priced the stage.
    pub modeled_mj: Option<f64>,
}

impl SpanData {
    /// Wall-clock duration in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.dur_us as f64 / 1e3
    }

    /// True if `other` lies entirely within this span's time range —
    /// the nesting relation the Chrome trace viewer renders.
    pub fn encloses(&self, other: &SpanData) -> bool {
        self.start_us <= other.start_us
            && other.start_us + other.dur_us <= self.start_us + self.dur_us
    }
}

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
    static TRACE: Cell<u64> = const { Cell::new(0) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

fn thread_id() -> u64 {
    TID.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Allocates a fresh, process-wide-unique trace id (never 0). The serving
/// runtime calls this once per admitted request; ids stay unique across
/// engines, so captures that mix several engines still separate cleanly.
pub fn next_trace_id() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// The trace id spans opened on this thread currently inherit (0 when no
/// [`with_trace`] scope is active).
pub fn current_trace_id() -> u64 {
    TRACE.with(Cell::get)
}

/// Runs `f` with `trace_id` installed as this thread's ambient trace id:
/// every span opened inside (including spans opened by code that knows
/// nothing about tracing, like the model forwards) records `trace_id` in
/// its [`SpanData`]. Scopes nest; the previous id is restored on exit,
/// even on unwind.
pub fn with_trace<T>(trace_id: u64, f: impl FnOnce() -> T) -> T {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            TRACE.with(|t| t.set(self.0));
        }
    }
    let prev = TRACE.with(|t| t.replace(trace_id));
    let _restore = Restore(prev);
    f()
}

/// An in-flight span. Records itself into its registry when dropped.
///
/// Create with [`span`] (records into the current registry) or
/// [`span_in`] (explicit registry — use from spawned threads, which do
/// not inherit the parent thread's registry installation).
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    reg: Arc<Registry>,
    name: String,
    kind: String,
    trace_id: u64,
    depth: usize,
    start_us: u64,
    ops: OpCounts,
    modeled_ms: Option<f64>,
    modeled_mj: Option<f64>,
}

/// Opens a span on the current thread's registry (see
/// [`with_local`](crate::with_local) / [`global`](crate::global)).
pub fn span(name: impl Into<String>, kind: impl Into<String>) -> SpanGuard {
    span_in(current(), name, kind)
}

/// Opens a span on an explicit registry.
pub fn span_in(reg: Arc<Registry>, name: impl Into<String>, kind: impl Into<String>) -> SpanGuard {
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    let start_us = reg.elapsed_us();
    SpanGuard {
        reg,
        name: name.into(),
        kind: kind.into(),
        trace_id: current_trace_id(),
        depth,
        start_us,
        ops: OpCounts::ZERO,
        modeled_ms: None,
        modeled_mj: None,
    }
}

impl SpanGuard {
    /// Attaches the stage's measured op counts.
    pub fn set_ops(&mut self, ops: OpCounts) {
        self.ops = ops;
    }

    /// Attaches the modeled device time (ms) and energy (mJ) for the
    /// stage, computed by the caller from its op counts via `edgepc-sim`.
    pub fn set_modeled(&mut self, ms: f64, mj: f64) {
        self.modeled_ms = Some(ms);
        self.modeled_mj = Some(mj);
    }

    /// Builder form of [`set_ops`](Self::set_ops).
    pub fn with_ops(mut self, ops: OpCounts) -> Self {
        self.set_ops(ops);
        self
    }

    /// Overrides the trace id this span records (normally inherited from
    /// the ambient [`with_trace`] scope at open time). The serving
    /// runtime's submit path uses this: the id is allocated *inside* the
    /// already-open `serve.enqueue` span.
    pub fn set_trace(&mut self, trace_id: u64) {
        self.trace_id = trace_id;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        // The same clock as `start_us`, so a child never ends after its parent.
        let dur_us = self.reg.elapsed_us().saturating_sub(self.start_us);
        let data = SpanData {
            name: std::mem::take(&mut self.name),
            kind: std::mem::take(&mut self.kind),
            trace_id: self.trace_id,
            depth: self.depth,
            start_us: self.start_us,
            dur_us,
            tid: thread_id(),
            ops: self.ops,
            modeled_ms: self.modeled_ms,
            modeled_mj: self.modeled_mj,
        };
        self.reg.record(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn span_records_on_drop_with_nesting_depth() {
        let reg = Arc::new(Registry::new());
        {
            let _a = span_in(reg.clone(), "outer", "model");
            {
                let mut b = span_in(reg.clone(), "inner", "sample");
                b.set_ops(OpCounts {
                    dist3: 7,
                    ..OpCounts::ZERO
                });
                b.set_modeled(1.25, 20.0);
            }
        }
        let spans = reg.drain_spans();
        assert_eq!(spans.len(), 2);
        // Inner drops first, so it is recorded first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[0].ops.dist3, 7);
        assert_eq!(spans[0].modeled_ms, Some(1.25));
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].depth, 0);
        assert!(spans[1].encloses(&spans[0]));
    }

    #[test]
    fn spans_inherit_the_ambient_trace_id_and_scopes_nest() {
        let reg = Arc::new(Registry::new());
        assert_eq!(current_trace_id(), 0);
        let outer = next_trace_id();
        let inner = next_trace_id();
        assert_ne!(outer, 0);
        assert_ne!(outer, inner);
        with_trace(outer, || {
            let _a = span_in(reg.clone(), "outer", "serve");
            with_trace(inner, || {
                let _b = span_in(reg.clone(), "inner", "serve");
            });
            assert_eq!(current_trace_id(), outer);
        });
        assert_eq!(current_trace_id(), 0);
        {
            let mut c = span_in(reg.clone(), "manual", "serve");
            c.set_trace(777);
        }
        let spans = reg.drain_spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).map(|s| s.trace_id);
        assert_eq!(by_name("outer"), Some(outer));
        assert_eq!(by_name("inner"), Some(inner));
        assert_eq!(by_name("manual"), Some(777));
    }

    /// Start and end come from one clock, so whole-µs rounding can never
    /// push a child's end past its parent's.
    #[test]
    fn every_nested_pair_is_enclosed() {
        let reg = Arc::new(Registry::new());
        for _ in 0..10_000 {
            let _outer = span_in(reg.clone(), "outer", "x");
            let _inner = span_in(reg.clone(), "inner", "x");
        }
        let spans = reg.drain_spans();
        assert_eq!(spans.len(), 20_000);
        let broken = spans.chunks(2).filter(|p| !p[1].encloses(&p[0])).count();
        assert_eq!(broken, 0, "{broken} of 10000 parents fail to enclose");
    }

    #[test]
    fn depth_rebalances_after_drop() {
        let reg = Arc::new(Registry::new());
        {
            let _a = span_in(reg.clone(), "first", "x");
        }
        {
            let _b = span_in(reg.clone(), "second", "x");
        }
        let spans = reg.drain_spans();
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 0);
    }
}
