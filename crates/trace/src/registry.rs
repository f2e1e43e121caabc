//! Thread-safe span/metric aggregation.
//!
//! A [`Registry`] collects completed spans, counters, and latency
//! histograms. One process-wide registry is reachable via [`global`];
//! tests and harnesses that need isolated capture (several run in
//! parallel under `cargo test`) install their own with [`with_local`],
//! which shadows the global one on the current thread only.
//!
//! Spans are stored in two places. A span with trace id 0 goes to one
//! completion-ordered vector. A span with a nonzero trace id goes to
//! that trace's own entry, so recording it, reading the trace back and
//! [`finish_trace`](Registry::finish_trace) touch that trace's spans
//! and nothing else: what a request costs the registry does not depend
//! on how many other requests it has seen. The traces held are the live
//! ones plus the last [`Registry::KEPT_TRACES`] finished as kept, so
//! span memory does not depend on how long the process has served.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use edgepc_geom::guard::{ranked_with, Lock, Ranked};

use crate::metrics::Histogram;
use crate::span::SpanData;

/// Collects spans, counters, and histograms from any number of threads.
pub struct Registry {
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Trace ids [`Registry::finish_trace`] remembers as dropped, so that a
/// span closing after its trace was dropped (`net.settle` always, the
/// submit-side spans when the worker wins the race) is not stored as a
/// new trace nobody would ever finish. It has to outlast the traces
/// dropped between one trace's drop and its last span closing. That
/// span, `net.settle`, waits only for the earlier responses of its own
/// connection, so these are the requests other connections complete
/// during one such wait: tens at the default queue and pipeline depths.
/// A span later than that is stored, one orphan span per such trace.
const DROPPED_SLOTS: usize = 8192;

/// Emptied per-trace buffers kept for reuse; a burst of more live traces
/// than this allocates, and frees again when it finishes.
const FREE_TRACE_BUFFERS: usize = 256;

#[derive(Default)]
struct Inner {
    /// Spans with trace id 0, in completion order.
    untraced: Vec<SpanData>,
    /// Spans with a nonzero trace id, by trace, each in completion
    /// order: the live traces and the ones finished as kept.
    traces: HashMap<u64, Vec<SpanData>>,
    /// Ids of the traces finished as kept, oldest first; never more than
    /// [`Registry::KEPT_TRACES`].
    kept: VecDeque<u64>,
    /// Number of spans in `traces`.
    traced: usize,
    /// Emptied buffers of dropped traces, handed to the next new trace.
    free: Vec<Vec<SpanData>>,
    /// Direct-mapped record of recently dropped ids (slot `id %
    /// DROPPED_SLOTS`; 0 = empty, which no trace id is). Ids come from
    /// one counter, so it holds the last `DROPPED_SLOTS` of them. Empty
    /// until the first drop: a registry that only captures pays nothing.
    dropped: Vec<u64>,
    counters: HashMap<String, u64>,
    gauges: HashMap<String, f64>,
    histograms: HashMap<String, Histogram>,
    /// Reusable scratch for composing derived metric keys (`span.<kind>`)
    /// under the lock, so steady-state recording never formats into a
    /// fresh `String`.
    key_buf: String,
}

/// Borrows the slot for `key`, inserting `init()` under a freshly
/// allocated key only on first sight. The recorders below route every
/// map access through this helper: after warmup each metric name
/// already exists, so recording is two hash lookups and zero
/// allocations. (`HashMap::entry` would allocate the owned key on *every*
/// call just to probe.)
fn slot<'m, V>(map: &'m mut HashMap<String, V>, key: &str, init: impl FnOnce() -> V) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), init());
    }
    match map.get_mut(key) {
        Some(v) => v,
        None => edgepc_geom::violation("registry slot vanished between insert and lookup"),
    }
}

fn dropped_slot(trace_id: u64) -> usize {
    (trace_id % DROPPED_SLOTS as u64) as usize
}

impl Inner {
    /// Drops a trace: its spans go, its buffer returns to the free list,
    /// and its id is remembered so that its late spans are not stored.
    fn drop_trace(&mut self, trace_id: u64) {
        if self.dropped.is_empty() {
            self.dropped.resize(DROPPED_SLOTS, 0);
        }
        self.dropped[dropped_slot(trace_id)] = trace_id;
        let Some(mut held) = self.traces.remove(&trace_id) else {
            return;
        };
        self.traced -= held.len();
        held.clear();
        if self.free.len() < FREE_TRACE_BUFFERS {
            self.free.push(held);
        }
    }
}

impl Registry {
    /// Finished-as-kept traces held at once: keeping one more drops the
    /// oldest. What they are kept for — a flight-recorder dump, an
    /// exemplar lookup — concerns recent requests only: an engine's flight
    /// ring of 8192 events covers about two thousand requests, of which
    /// the tail sampler keeps about one in a hundred, after keeping all
    /// of its first 64.
    pub const KEPT_TRACES: usize = 128;

    /// Creates an empty registry; its epoch (span timestamp zero) is now.
    pub fn new() -> Self {
        Registry {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Locks the aggregation state. A poisoned mutex only means some other
    /// thread panicked mid-record; the maps are still structurally sound,
    /// so recover the guard rather than cascading the panic into callers.
    /// The rank wrapper asserts (in debug builds) that no higher-ranked
    /// lock is already held on this thread.
    fn lock(&self) -> Ranked<MutexGuard<'_, Inner>> {
        ranked_with(Lock::TraceRegistry, || {
            self.inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        })
    }

    /// Microseconds since this registry was created.
    pub fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Stores a completed span and folds it into the per-stage metrics
    /// (counter `span.<kind>`, histogram keyed by the span name).
    pub fn record(&self, span: SpanData) {
        let mut inner = self.lock();
        // Reborrow so the key scratch and the maps borrow disjoint fields.
        let inner = &mut **inner;
        inner.key_buf.clear();
        inner.key_buf.push_str("span.");
        inner.key_buf.push_str(&span.kind);
        *slot(&mut inner.counters, &inner.key_buf, || 0) += 1;
        slot(&mut inner.histograms, &span.name, Histogram::default).observe(span.dur_us);
        if span.trace_id == 0 {
            inner.untraced.push(span);
            return;
        }
        if let Some(held) = inner.traces.get_mut(&span.trace_id) {
            held.push(span);
        } else if inner.dropped.get(dropped_slot(span.trace_id)) == Some(&span.trace_id) {
            // Late: its trace was already dropped. The counter and the
            // histogram above have it; the span itself is not kept.
            return;
        } else {
            let mut held = inner.free.pop().unwrap_or_default();
            let trace_id = span.trace_id;
            held.push(span);
            inner.traces.insert(trace_id, held);
        }
        inner.traced += 1;
    }

    /// Closes a trace once its request is resolved. With `keep` its spans
    /// stay where [`spans_for_trace`](Self::spans_for_trace) finds them,
    /// joined by any span of the trace that closes later, until
    /// [`KEPT_TRACES`](Self::KEPT_TRACES) newer traces have been kept;
    /// then it is dropped. Without `keep` it is dropped now. A dropped
    /// trace loses its spans and every later span of it (which still
    /// feeds its counter and histogram). The serving runtime calls this
    /// with the tail sampler's verdict, and with `false` for a request it
    /// refused or culled, so the spans held are those of requests in
    /// flight plus those of the newest kept traces. Touches the spans of
    /// this trace and, at most, of the one it evicts. `trace_id` 0 is a
    /// no-op (unattributed spans are never sampled away).
    pub fn finish_trace(&self, trace_id: u64, keep: bool) {
        if trace_id == 0 {
            return;
        }
        let mut inner = self.lock();
        if !keep {
            inner.drop_trace(trace_id);
            return;
        }
        inner.kept.push_back(trace_id);
        if inner.kept.len() > Self::KEPT_TRACES {
            if let Some(oldest) = inner.kept.pop_front() {
                inner.drop_trace(oldest);
            }
        }
    }

    /// Increments the named monotonic counter.
    pub fn incr(&self, name: &str, by: u64) {
        let mut inner = self.lock();
        *slot(&mut inner.counters, name, || 0) += by;
    }

    /// Records one latency observation (µs) in the named histogram.
    pub fn observe_us(&self, name: &str, us: u64) {
        let mut inner = self.lock();
        slot(&mut inner.histograms, name, Histogram::default).observe(us);
    }

    /// Records one latency observation (µs) in the named histogram and
    /// tags it with a trace id the histogram may retain as an exemplar
    /// (see [`Histogram::exemplars`]). `trace_id` 0 means "unattributed"
    /// and is recorded without an exemplar.
    pub fn observe_us_tagged(&self, name: &str, us: u64, trace_id: u64) {
        let mut inner = self.lock();
        slot(&mut inner.histograms, name, Histogram::default).observe_tagged(us, trace_id);
    }

    /// Sets the named gauge to `value` (last write wins).
    ///
    /// Gauges carry instantaneous *measurements* rather than monotonic
    /// counts — the quality auditors use them for live false-neighbor
    /// rate, recall@k, and sampling-coverage readings.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        *slot(&mut inner.gauges, name, || 0.0) = value;
    }

    /// Adds `delta` (which may be negative) to the named gauge, treating an
    /// unset gauge as 0, and returns the new value. This is the atomic
    /// read-modify-write the serving runtime needs for queue-depth and
    /// in-flight gauges updated from many worker threads — a `gauge` +
    /// `set_gauge` pair would race.
    pub fn add_gauge(&self, name: &str, delta: f64) -> f64 {
        let mut inner = self.lock();
        let g = slot(&mut inner.gauges, name, || 0.0);
        *g += delta;
        *g
    }

    /// Current value of a gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Names of all set gauges, sorted.
    pub fn gauge_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lock().gauges.keys().cloned().collect();
        names.sort();
        names
    }

    /// Names of all counters with at least one increment, sorted.
    pub fn counter_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lock().counters.keys().cloned().collect();
        names.sort();
        names
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of the named latency histogram, if any observations exist.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// Names of all histograms with at least one observation, sorted.
    pub fn histogram_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lock().histograms.keys().cloned().collect();
        names.sort();
        names
    }

    /// Copies out all held spans: the unattributed ones in completion
    /// order, then each held trace's (by ascending trace id, each in
    /// completion order).
    pub fn spans(&self) -> Vec<SpanData> {
        let inner = self.lock();
        let mut spans = inner.untraced.clone();
        // Map order is not repeatable; trace id order is.
        let mut traces: Vec<_> = inner.traces.iter().collect();
        traces.sort_unstable_by_key(|(id, _)| **id);
        for (_, held) in traces {
            spans.extend_from_slice(held);
        }
        spans
    }

    /// Copies out the spans recorded with the given trace id, ordered by
    /// start time — a single request's segment timeline as reconstructed
    /// from a mixed multi-request capture.
    pub fn spans_for_trace(&self, trace_id: u64) -> Vec<SpanData> {
        self.spans_for_traces(&[trace_id])
    }

    /// [`spans_for_trace`](Self::spans_for_trace) for several traces
    /// under one lock acquisition: the traces in the order given, each
    /// ordered by start time. Clones those traces' spans and no others.
    pub fn spans_for_traces(&self, trace_ids: &[u64]) -> Vec<SpanData> {
        let inner = self.lock();
        let mut spans = Vec::new();
        for id in trace_ids {
            let held = match id {
                0 => Some(&inner.untraced),
                _ => inner.traces.get(id),
            };
            let from = spans.len();
            spans.extend_from_slice(held.map_or(&[], Vec::as_slice));
            spans[from..].sort_by_key(|s| s.start_us);
        }
        spans
    }

    /// Removes and returns all held spans, in the order of
    /// [`spans`](Self::spans).
    pub fn drain_spans(&self) -> Vec<SpanData> {
        let mut inner = self.lock();
        let mut spans = std::mem::take(&mut inner.untraced);
        let mut traces: Vec<_> = inner.traces.drain().collect();
        inner.kept.clear();
        traces.sort_unstable_by_key(|(id, _)| *id);
        for (_, held) in traces {
            spans.extend(held);
        }
        inner.traced = 0;
        spans
    }

    /// Number of spans currently held.
    pub fn span_count(&self) -> usize {
        let inner = self.lock();
        inner.untraced.len() + inner.traced
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

thread_local! {
    static INSTALLED: RefCell<Vec<Arc<Registry>>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide registry (created on first use).
pub fn global() -> Arc<Registry> {
    GLOBAL.get_or_init(|| Arc::new(Registry::new())).clone()
}

/// The registry spans on this thread record into: the innermost
/// [`with_local`]/[`with_registry`] installation, else [`global`].
pub(crate) fn current() -> Arc<Registry> {
    INSTALLED
        .with(|s| s.borrow().last().cloned())
        .unwrap_or_else(global)
}

/// Public handle to the registry the current thread records into — the
/// innermost [`with_local`]/[`with_registry`] installation, else
/// [`global`]. Instrumentation sites (e.g. the online quality auditors in
/// `edgepc-neighbor`/`edgepc-sample`) use this to publish counters and
/// gauges next to the spans of the surrounding capture.
pub fn current_registry() -> Arc<Registry> {
    current()
}

/// Runs `f` with a fresh registry installed on this thread, returning
/// `f`'s result together with every span it recorded. The installation
/// is thread-local, so parallel tests capture independently; threads
/// spawned inside `f` should use [`span_in`](crate::span_in) with a
/// handle obtained via [`with_registry`] instead.
pub fn with_local<T>(f: impl FnOnce() -> T) -> (T, Vec<SpanData>) {
    let reg = Arc::new(Registry::new());
    let out = with_registry(reg.clone(), f);
    let spans = reg.drain_spans();
    (out, spans)
}

/// Runs `f` with `reg` installed as this thread's current registry
/// (restored on exit, even on unwind).
pub fn with_registry<T>(reg: Arc<Registry>, f: impl FnOnce() -> T) -> T {
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            INSTALLED.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    INSTALLED.with(|s| s.borrow_mut().push(reg));
    let _guard = Uninstall;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{span, span_in};

    #[test]
    fn with_local_captures_only_its_own_spans() {
        let ((), outer) = with_local(|| {
            let _s = span("outer-span", "test");
            let ((), inner) = with_local(|| {
                let _s = span("inner-span", "test");
            });
            assert_eq!(inner.len(), 1);
            assert_eq!(inner[0].name, "inner-span");
        });
        assert_eq!(outer.len(), 1);
        assert_eq!(outer[0].name, "outer-span");
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let reg = Registry::new();
        reg.incr("points.processed", 100);
        reg.incr("points.processed", 28);
        assert_eq!(reg.counter("points.processed"), 128);
        assert_eq!(reg.counter("never"), 0);
        reg.observe_us("stage", 50);
        reg.observe_us("stage", 150);
        let h = reg.histogram("stage").unwrap();
        assert_eq!(h.count(), 2);
        assert!(reg.histogram("missing").is_none());
        assert_eq!(reg.histogram_names(), vec!["stage".to_string()]);
    }

    #[test]
    fn gauges_hold_last_written_value() {
        let reg = Registry::new();
        assert_eq!(reg.gauge("audit.search.recall_at_k"), None);
        reg.set_gauge("audit.search.recall_at_k", 0.5);
        reg.set_gauge("audit.search.recall_at_k", 0.9375);
        reg.set_gauge("audit.sample.coverage_radius", 0.21);
        assert_eq!(reg.gauge("audit.search.recall_at_k"), Some(0.9375));
        assert_eq!(
            reg.gauge_names(),
            vec![
                "audit.sample.coverage_radius".to_string(),
                "audit.search.recall_at_k".to_string()
            ]
        );
    }

    #[test]
    fn add_gauge_accumulates_and_interoperates_with_set() {
        let reg = Registry::new();
        assert_eq!(reg.add_gauge("serve.queue_depth", 1.0), 1.0);
        assert_eq!(reg.add_gauge("serve.queue_depth", 2.0), 3.0);
        assert_eq!(reg.add_gauge("serve.queue_depth", -3.0), 0.0);
        assert_eq!(reg.gauge("serve.queue_depth"), Some(0.0));
        reg.set_gauge("serve.queue_depth", 7.0);
        assert_eq!(reg.add_gauge("serve.queue_depth", 1.0), 8.0);
    }

    #[test]
    fn recording_a_span_feeds_metrics() {
        let reg = Arc::new(Registry::new());
        {
            let _s = span_in(reg.clone(), "sa1.sample", "sample");
        }
        assert_eq!(reg.counter("span.sample"), 1);
        assert!(reg.histogram("sa1.sample").is_some());
        assert_eq!(reg.span_count(), 1);
    }

    fn traced(reg: &Arc<Registry>, name: &str, trace_id: u64) {
        crate::with_trace(trace_id, || drop(span_in(reg.clone(), name, "test")));
    }

    #[test]
    fn a_dropped_trace_takes_its_late_spans_with_it() {
        let reg = Arc::new(Registry::new());
        traced(&reg, "other", 8);
        traced(&reg, "exec", 7);
        traced(&reg, "exec", 7);
        traced(&reg, "untraced", 0);
        reg.finish_trace(7, false);
        assert_eq!(reg.span_count(), 2, "trace 8 and the untraced span stay");
        // A span of trace 7 that closes now is counted but not stored,
        // so no entry is left behind for a trace nobody will finish.
        traced(&reg, "settle", 7);
        assert_eq!(reg.span_count(), 2);
        assert!(reg.spans_for_trace(7).is_empty());
        assert_eq!(reg.counter("span.test"), 5);
        assert_eq!(reg.histogram("settle").map(|h| h.count()), Some(1));
        // Dropping a trace that holds nothing still marks it dropped.
        reg.finish_trace(9, false);
        traced(&reg, "enqueue", 9);
        assert_eq!(reg.span_count(), 2);
        reg.finish_trace(0, false);
        assert_eq!(reg.span_count(), 2, "unattributed spans are never dropped");
    }

    #[test]
    fn a_kept_trace_collects_its_late_spans_in_start_order() {
        let reg = Arc::new(Registry::new());
        let settle = crate::with_trace(5, || span_in(reg.clone(), "settle", "test"));
        std::thread::sleep(std::time::Duration::from_millis(2));
        traced(&reg, "exec", 5);
        traced(&reg, "exec", 6);
        reg.finish_trace(5, true);
        drop(settle);
        let names =
            |spans: Vec<SpanData>| -> Vec<String> { spans.into_iter().map(|s| s.name).collect() };
        assert_eq!(names(reg.spans_for_trace(5)), ["settle", "exec"]);
        assert_eq!(names(reg.spans_for_traces(&[6, 5, 4])).len(), 3);
        // Whole-registry reads: unattributed first, then trace by trace.
        traced(&reg, "untraced", 0);
        let all = ["untraced", "exec", "settle", "exec"];
        assert_eq!(names(reg.spans()), all);
        assert_eq!(names(reg.drain_spans()), all);
        assert_eq!(reg.span_count(), 0);
    }

    #[test]
    fn keeping_one_trace_too_many_evicts_the_oldest_kept() {
        let reg = Arc::new(Registry::new());
        let cap = Registry::KEPT_TRACES as u64;
        // Trace 1 stays live throughout; 2..=cap+1 fill the kept FIFO.
        traced(&reg, "live", 1);
        for id in 2..=cap + 1 {
            traced(&reg, "exec", id);
            traced(&reg, "exec", id);
            reg.finish_trace(id, true);
        }
        assert_eq!(reg.span_count(), 1 + 2 * cap as usize);
        // Each further keep costs the oldest kept trace, in keep order.
        for (new, evicted) in [(cap + 2, 2), (cap + 3, 3)] {
            traced(&reg, "exec", new);
            reg.finish_trace(new, true);
            assert!(reg.spans_for_trace(evicted).is_empty());
            assert_eq!(reg.spans_for_trace(evicted + 1).len(), 2);
            assert_eq!(reg.spans_for_trace(new).len(), 1);
        }
        assert_eq!(reg.span_count(), 1 + 2 * (cap as usize - 2) + 2);
        // An evicted trace is a dropped one: its late span is counted, not
        // stored. The live trace was never a candidate.
        traced(&reg, "settle", 2);
        assert!(reg.spans_for_trace(2).is_empty());
        assert_eq!(reg.histogram("settle").map(|h| h.count()), Some(1));
        assert_eq!(reg.spans_for_trace(1).len(), 1);
        // A kept trace still collects its own late spans.
        traced(&reg, "settle", cap + 3);
        assert_eq!(reg.spans_for_trace(cap + 3).len(), 2);
    }

    #[test]
    fn aggregation_is_thread_safe_under_concurrent_spans() {
        let reg = Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let mut s = span_in(reg.clone(), format!("worker{t}.step"), "concurrent");
                        s.set_ops(edgepc_geom::OpCounts {
                            dist3: i,
                            ..edgepc_geom::OpCounts::ZERO
                        });
                        reg.incr("iterations", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.counter("iterations"), 400);
        assert_eq!(reg.counter("span.concurrent"), 400);
        let spans = reg.spans();
        assert_eq!(spans.len(), 400);
        // Each thread's 50 spans all survived, with their ops intact.
        for t in 0..8 {
            let name = format!("worker{t}.step");
            let mine: Vec<_> = spans.iter().filter(|s| s.name == name).collect();
            assert_eq!(mine.len(), 50);
            let total: u64 = mine.iter().map(|s| s.ops.dist3).sum();
            assert_eq!(total, (0..50).sum::<u64>());
            assert_eq!(reg.histogram(&name).unwrap().count(), 50);
        }
        // Thread ids distinguish the recording threads.
        let tids: std::collections::HashSet<u64> = spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 8);
    }
}
