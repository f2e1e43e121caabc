//! The benchmark's own in-memory spans.
//!
//! Every call the benchmark makes into a crate — encode, socket write,
//! read, decode, compile, forward, each layer probe — is wrapped in a
//! [`Span`] recorded here, outside the program. Spans the program already
//! emits (captured with `edgepc_trace::with_local`) are adopted beneath
//! the benchmark span that caused them, so one tree holds both. Nothing
//! is written until the run ends.

use std::time::Instant;

use edgepc_trace::SpanData;

/// Kind of every span the benchmark itself opens.
pub const BENCH_KIND: &str = "bench";

/// One completed span: name, start, end, the span that caused it, and
/// the request it belongs to (0 = none).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// [`BENCH_KIND`] for the benchmark's spans, the program's own kind
    /// (`sample`, `search`, `group`, `fc`, `model`, ...) for adopted ones.
    pub kind: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span sink. When `on` is false every call is a no-op, so
/// the untraced run pays nothing but a branch.
pub struct Recorder {
    epoch: Instant,
    on: bool,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, on: bool) -> Self {
        Recorder {
            epoch,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// An empty recorder on the same clock, for another thread or for one
    /// forward's subtree, switched on only if this one is and `on` says
    /// so; [`Recorder::merge`] brings it back.
    pub fn fresh(&self, on: bool) -> Recorder {
        Recorder::new(self.epoch, self.on && on)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str, request: u64) -> usize {
        if !self.on {
            return 0;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            kind: BENCH_KIND.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the span `enter` returned.
    pub fn exit(&mut self, id: usize) {
        if !self.on {
            return;
        }
        self.spans[id].end_ns = self.ns(Instant::now());
        self.open.retain(|&o| o != id);
    }

    /// Records an already-measured interval (used for request roots,
    /// which start when the request was due on another thread).
    pub fn push(&mut self, name: &str, start: Instant, end: Instant, request: u64) -> usize {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name: name.to_string(),
            kind: BENCH_KIND.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: None,
            request,
        });
        self.spans.len() - 1
    }

    /// Hangs span `id` beneath `parent` as part of `request`, once the
    /// response it belongs to is known.
    pub fn reparent(&mut self, id: usize, parent: usize, request: u64) {
        if self.on {
            self.spans[id].parent = Some(parent);
            self.spans[id].request = request;
        }
    }

    /// Adopts spans the program recorded into a registry whose epoch was
    /// `base`, beneath the benchmark span `under`. Parents come from the
    /// program's own nesting depth per thread.
    pub fn adopt(&mut self, program: &[SpanData], under: usize, base: Instant) {
        if !self.on {
            return;
        }
        let base_ns = self.ns(base);
        let request = self.spans[under].request;
        let mut order: Vec<&SpanData> = program.iter().collect();
        order.sort_by_key(|s| (s.tid, s.start_us, s.depth));
        // (tid, depth, index) of the spans still open at this point.
        let mut stack: Vec<(u64, usize, usize)> = Vec::new();
        for s in order {
            while stack
                .last()
                .is_some_and(|&(tid, depth, _)| tid != s.tid || depth >= s.depth)
            {
                stack.pop();
            }
            let parent = stack.last().map_or(under, |&(_, _, i)| i);
            self.spans.push(Span {
                name: s.name.clone(),
                kind: s.kind.clone(),
                start_ns: base_ns + s.start_us * 1000,
                end_ns: base_ns + (s.start_us + s.dur_us) * 1000,
                parent: Some(parent),
                request,
            });
            stack.push((s.tid, s.depth, self.spans.len() - 1));
        }
    }

    /// Appends another thread's spans, keeping their parent links valid.
    pub fn merge(&mut self, other: Recorder) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }
}

/// Hangs every parentless span of a request beneath that request's
/// `root_name` span, joining the sender's and the receiver's halves.
pub fn join_requests(spans: &mut [Span], root_name: &str) {
    let roots: std::collections::HashMap<u64, usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.request != 0 && s.name == root_name)
        .map(|(i, s)| (s.request, i))
        .collect();
    for (i, s) in spans.iter_mut().enumerate() {
        if s.parent.is_none() && s.request != 0 {
            if let Some(&root) = roots.get(&s.request) {
                if root != i {
                    s.parent = Some(root);
                }
            }
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are not counted
/// twice, and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.clamp(s.start_ns, s.end_ns),
                        spans[c].end_ns.clamp(s.start_ns, s.end_ns),
                    )
                })
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Sums self time (ms) beneath `root` by stage bucket: a span belongs to
/// the nearest enclosing span whose kind is one of `buckets`, else to the
/// last slot (the closure row, so the slots always add up to `root`).
pub fn self_ms_by_kind(spans: &[Span], root: usize, buckets: &[&str]) -> Vec<f64> {
    let selfs = self_times(spans);
    let mut out = vec![0.0; buckets.len() + 1];
    for (i, own) in selfs.iter().enumerate() {
        // Walk up to `root`, remembering the innermost bucket kind met.
        let mut bucket = None;
        let mut at = Some(i);
        let mut under_root = false;
        while let Some(a) = at {
            if a == root {
                under_root = true;
                break;
            }
            if bucket.is_none() {
                bucket = buckets.iter().position(|b| *b == spans[a].kind);
            }
            at = spans[a].parent;
        }
        if under_root {
            out[bucket.unwrap_or(buckets.len())] += *own as f64 / 1e6;
        }
    }
    out
}

/// Renders spans as a JSON array (at most `cap` of them).
pub fn to_json(spans: &[Span], cap: usize) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().take(cap).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"id\":{i},\"name\":\"{}\",\"kind\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            edgepc_trace::json::escape(&s.name),
            edgepc_trace::json::escape(&s.kind),
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.request
        ));
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, kind: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            kind: kind.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // forward [0,100]
        //   sample [10,30]
        //     sort [12,20]
        //   fc [40,90]
        //     exec_a [45,70], exec_b [60,80] overlap: cover [45,80] = 35
        //   late [95,120] sticks out of its parent: clipped to [95,100]
        let spans = vec![
            span("forward", BENCH_KIND, 0, 100, None),
            span("sample", "sample", 10, 30, Some(0)),
            span("sort", "sort", 12, 20, Some(1)),
            span("fc", "fc", 40, 90, Some(0)),
            span("exec_a", "exec", 45, 70, Some(3)),
            span("exec_b", "exec", 60, 80, Some(3)),
            span("late", "other", 95, 120, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(
            selfs,
            vec![100 - 20 - 50 - 5, 20 - 8, 8, 50 - 35, 25, 20, 25]
        );
    }

    #[test]
    fn buckets_take_nested_self_time_and_close() {
        let spans = vec![
            span("forward", BENCH_KIND, 0, 100_000_000, None),
            span("sample", "sample", 10_000_000, 30_000_000, Some(0)),
            span("sort", "sort", 12_000_000, 20_000_000, Some(1)),
            span("fc", "fc", 40_000_000, 90_000_000, Some(0)),
            span("exec", "exec", 45_000_000, 80_000_000, Some(3)),
            span("elsewhere", "fc", 0, 50_000_000, None),
        ];
        let by = self_ms_by_kind(&spans, 0, &["sample", "fc"]);
        // sort's self time lands in `sample`, exec's in `fc`; the root's
        // own 30 ms is the closure row; the unrelated tree is ignored.
        assert_eq!(by, vec![20.0, 50.0, 30.0]);
        assert_eq!(by.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn adopt_rebuilds_program_nesting_from_depth() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, true);
        let root = rec.enter("forward", 7);
        let mk = |name: &str, depth: usize, start_us: u64, dur_us: u64| SpanData {
            name: name.to_string(),
            kind: "k".to_string(),
            trace_id: 0,
            depth,
            start_us,
            dur_us,
            tid: 0,
            ops: Default::default(),
            modeled_ms: None,
            modeled_mj: None,
        };
        // Completion order, as a registry stores them: children first.
        let program = vec![
            mk("inner", 1, 5, 10),
            mk("outer", 0, 5, 20),
            mk("next", 0, 30, 5),
        ];
        rec.adopt(&program, root, epoch);
        rec.exit(root);
        let by_name = |n: &str| rec.spans.iter().position(|s| s.name == n).unwrap();
        assert_eq!(rec.spans[by_name("outer")].parent, Some(root));
        assert_eq!(rec.spans[by_name("inner")].parent, Some(by_name("outer")));
        assert_eq!(rec.spans[by_name("next")].parent, Some(root));
        assert!(rec.spans.iter().all(|s| s.request == 7));
    }

    #[test]
    fn join_requests_links_sender_spans_to_the_receivers_root() {
        let mut spans = vec![
            span("encode", BENCH_KIND, 0, 5, None),
            span("request", BENCH_KIND, 0, 50, None),
            span("decode", BENCH_KIND, 40, 45, Some(1)),
        ];
        join_requests(&mut spans, "request");
        assert_eq!(spans[0].parent, Some(1));
        assert_eq!(spans[1].parent, None);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), false);
        let id = rec.enter("x", 0);
        rec.exit(id);
        assert!(rec.spans.is_empty());
    }
}
