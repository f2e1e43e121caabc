//! Flight recorder: an always-on, fixed-capacity ring of compact
//! telemetry events.
//!
//! The serving runtime records one [`TelemetryEvent`] per request
//! lifecycle edge (enqueued, shed, batched, exec begin, done, culled).
//! Events are 40-byte `Copy` structs stored in pre-allocated,
//! mutex-sharded rings — recording in steady state is a shard lock plus
//! an array write, with no allocation — so the recorder can stay enabled
//! under load and still hold the last `capacity` events when something
//! goes wrong. On a trigger (deadline-miss burst, shed storm, guard
//! violation) the owner snapshots the rings and dumps
//! [`flightrec_json`], joining the event window with the span timelines
//! of the implicated trace ids.
//!
//! Sharding is by trace id, so one request's events land in one shard in
//! order; the merged snapshot re-sorts by timestamp. Timestamps share the
//! owning [`Registry`](crate::Registry)'s epoch (callers pass
//! `registry.elapsed_us()`), which is what lets a dump's events line up
//! with its spans on one time axis.

use std::sync::Mutex;

use edgepc_geom::guard::{ranked_with, Lock};

use crate::json::escape;
use crate::span::SpanData;

/// What happened to a request at one lifecycle edge.
///
/// The meaning of the event's `a`/`b` payload words depends on the kind;
/// see each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Admitted into the submission queue. `a` = queue depth after the
    /// push, `b` = deadline budget in µs (0 = none).
    Enqueued,
    /// Rejected by admission control. `a` = queue capacity, `b` = 0.
    Shed,
    /// Joined a formed batch. `a` = batch size, `b` = queue wait in µs.
    BatchFormed,
    /// Batch execution started. `a` = worker index, `b` = batch size.
    ExecBegin,
    /// Completed with an output. `a` = total latency in µs, `b` = batch
    /// size it ran in.
    Done,
    /// Cancelled because its deadline passed. `a` = time waited in µs,
    /// `b` = deadline budget in µs.
    Culled,
    /// Tail sampler retained this request's full span tree. `a` = total
    /// latency in µs, `b` = the sampler's current threshold estimate in µs.
    Retained,
    /// A `guard::violation` fired somewhere on this thread. `a`/`b` = 0;
    /// the trace id is whatever request scope was ambient, possibly 0.
    Violation,
}

impl EventKind {
    /// Stable lowercase name used in `flightrec.json`.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::Enqueued => "enqueued",
            EventKind::Shed => "shed",
            EventKind::BatchFormed => "batch_formed",
            EventKind::ExecBegin => "exec_begin",
            EventKind::Done => "done",
            EventKind::Culled => "culled",
            EventKind::Retained => "retained",
            EventKind::Violation => "violation",
        }
    }
}

/// One compact telemetry event. `Copy`, fixed-size, allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Microseconds since the owning registry's epoch.
    pub t_us: u64,
    /// Request trace id (0 = unattributed, e.g. an engine-level event).
    pub trace_id: u64,
    /// Lifecycle edge this event marks.
    pub kind: EventKind,
    /// Kind-dependent payload word (see [`EventKind`]).
    pub a: u64,
    /// Kind-dependent payload word (see [`EventKind`]).
    pub b: u64,
}

struct Shard {
    /// Ring storage; grows to `cap` once, then entries are overwritten.
    buf: Vec<TelemetryEvent>,
    /// Next overwrite position once the ring is full.
    next: usize,
    /// Events ever recorded into this shard (monotonic).
    total: u64,
}

/// Fixed-capacity, mutex-sharded ring buffer of [`TelemetryEvent`]s.
pub struct FlightRecorder {
    shards: Vec<Mutex<Shard>>,
    shard_cap: usize,
}

impl FlightRecorder {
    /// Creates a recorder holding at most ~`capacity` events across
    /// `shards` rings (both rounded up to at least 1; `shards` to a power
    /// of two so shard selection is a mask). Storage is *not* allocated up
    /// front — each ring grows to its share of `capacity` and then stops.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let shard_cap = capacity.div_ceil(shards).max(1);
        FlightRecorder {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        buf: Vec::new(),
                        next: 0,
                        total: 0,
                    })
                })
                .collect(),
            shard_cap,
        }
    }

    /// Total event capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shard_cap * self.shards.len()
    }

    fn shard(&self, trace_id: u64) -> &Mutex<Shard> {
        // Length is a power of two; trace ids are sequential, so the low
        // bits alone spread consecutive requests across shards evenly.
        &self.shards[(trace_id as usize) & (self.shards.len() - 1)]
    }

    /// Records one event (lock one shard, write one slot). Oldest events
    /// in the same shard are overwritten once the ring is full.
    ///
    /// Allocation-free at steady state (EP008).
    pub fn record(&self, ev: TelemetryEvent) {
        let mut shard = ranked_with(Lock::TraceFlight, || {
            self.shard(ev.trace_id)
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        });
        shard.total += 1;
        if shard.buf.len() < self.shard_cap {
            shard.buf.push(ev);
        } else {
            let at = shard.next;
            shard.buf[at] = ev;
            shard.next = (at + 1) % self.shard_cap;
        }
    }

    /// Events ever recorded (monotonic; exceeds `capacity` once rings wrap).
    pub fn recorded(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                ranked_with(Lock::TraceFlight, || {
                    s.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
                })
                .total
            })
            .sum()
    }

    /// Copies out the retained window, merged across shards and sorted by
    /// timestamp (ties broken by trace id so output is deterministic).
    pub fn snapshot(&self) -> Vec<TelemetryEvent> {
        let mut out = Vec::new();
        for s in &self.shards {
            let shard = ranked_with(Lock::TraceFlight, || {
                s.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
            });
            out.extend_from_slice(&shard.buf);
        }
        out.sort_by_key(|e| (e.t_us, e.trace_id));
        out
    }
}

/// Renders a flight-recorder dump as a `flightrec.json` document
/// (schema `edgepc-flightrec`, version 1 — pinned by lint rule EP005).
///
/// `reason` says which trigger fired (`deadline_miss_burst`,
/// `shed_storm`, `guard_violation`, `manual`); `dumped_at_us` is the
/// owning registry's clock at dump time; `spans` are the span timelines
/// the owner chose to attach (typically every span whose trace id appears
/// in the event window).
pub fn flightrec_json(
    reason: &str,
    dumped_at_us: u64,
    recorder: &FlightRecorder,
    spans: &[SpanData],
) -> String {
    let _span = crate::span("trace.flightrec_render", "trace");
    let events = recorder.snapshot();
    let mut out = String::with_capacity(64 * (events.len() + spans.len()) + 256);
    out.push_str("{\n");
    out.push_str("  \"schema\": \"edgepc-flightrec\",\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"reason\": \"{}\",\n", escape(reason)));
    out.push_str(&format!("  \"dumped_at_us\": {dumped_at_us},\n"));
    out.push_str(&format!("  \"capacity\": {},\n", recorder.capacity()));
    out.push_str(&format!("  \"recorded\": {},\n", recorder.recorded()));
    out.push_str("  \"events\": [\n");
    for (i, ev) in events.iter().enumerate() {
        let sep = if i + 1 == events.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"t_us\": {}, \"trace\": {}, \"kind\": \"{}\", \"a\": {}, \"b\": {}}}{sep}\n",
            ev.t_us,
            ev.trace_id,
            ev.kind.as_str(),
            ev.a,
            ev.b
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"kind\": \"{}\", \"trace\": {}, \"start_us\": {}, \
             \"dur_us\": {}, \"tid\": {}}}{sep}\n",
            escape(&s.name),
            escape(&s.kind),
            s.trace_id,
            s.start_us,
            s.dur_us,
            s.tid
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn ev(t_us: u64, trace_id: u64, kind: EventKind) -> TelemetryEvent {
        TelemetryEvent {
            t_us,
            trace_id,
            kind,
            a: 1,
            b: 2,
        }
    }

    #[test]
    fn ring_overwrites_oldest_within_a_shard() {
        let rec = FlightRecorder::new(4, 1);
        assert_eq!(rec.capacity(), 4);
        for t in 0..10u64 {
            rec.record(ev(t, 7, EventKind::Enqueued));
        }
        assert_eq!(rec.recorded(), 10);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 4);
        // Only the newest four survive.
        let times: Vec<u64> = snap.iter().map(|e| e.t_us).collect();
        assert_eq!(times, vec![6, 7, 8, 9]);
    }

    #[test]
    fn snapshot_merges_shards_in_time_order() {
        let rec = FlightRecorder::new(64, 4);
        // Interleave traces that hash to different shards, out of order.
        rec.record(ev(30, 1, EventKind::Done));
        rec.record(ev(10, 2, EventKind::Enqueued));
        rec.record(ev(20, 3, EventKind::BatchFormed));
        rec.record(ev(10, 1, EventKind::Enqueued));
        let times: Vec<(u64, u64)> = rec
            .snapshot()
            .iter()
            .map(|e| (e.t_us, e.trace_id))
            .collect();
        assert_eq!(times, vec![(10, 1), (10, 2), (20, 3), (30, 1)]);
    }

    #[test]
    fn capacity_and_shards_are_rounded_sanely() {
        let rec = FlightRecorder::new(0, 0);
        assert!(rec.capacity() >= 1);
        rec.record(ev(1, 0, EventKind::Violation));
        assert_eq!(rec.snapshot().len(), 1);
        let rec = FlightRecorder::new(100, 3); // shards → 4, cap → 25 each
        assert_eq!(rec.capacity(), 100);
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        let rec = std::sync::Arc::new(FlightRecorder::new(4096, 8));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        rec.record(ev(i, t + 1, EventKind::Enqueued));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(rec.recorded(), 800);
        assert_eq!(rec.snapshot().len(), 800);
    }

    #[test]
    fn flightrec_json_is_valid_and_carries_events_and_spans() {
        let rec = FlightRecorder::new(16, 2);
        rec.record(TelemetryEvent {
            t_us: 100,
            trace_id: 5,
            kind: EventKind::Enqueued,
            a: 3,
            b: 2000,
        });
        rec.record(TelemetryEvent {
            t_us: 2500,
            trace_id: 5,
            kind: EventKind::Culled,
            a: 2400,
            b: 2000,
        });
        let spans = vec![SpanData {
            name: "serve.enqueue \u{1f600}".to_string(),
            kind: "serve".to_string(),
            trace_id: 5,
            depth: 0,
            start_us: 100,
            dur_us: 40,
            tid: 0,
            ops: edgepc_geom::OpCounts::ZERO,
            modeled_ms: None,
            modeled_mj: None,
        }];
        let doc = flightrec_json("deadline_miss_burst", 9000, &rec, &spans);
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("edgepc-flightrec"));
        assert_eq!(v.get("schema_version").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            v.get("reason").unwrap().as_str(),
            Some("deadline_miss_burst")
        );
        assert_eq!(v.get("dumped_at_us").unwrap().as_f64(), Some(9000.0));
        let events = v.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("enqueued"));
        assert_eq!(events[1].get("kind").unwrap().as_str(), Some("culled"));
        assert_eq!(events[1].get("trace").unwrap().as_f64(), Some(5.0));
        let spans = v.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get("name").unwrap().as_str(),
            Some("serve.enqueue \u{1f600}")
        );
        assert_eq!(spans[0].get("trace").unwrap().as_f64(), Some(5.0));
    }

    #[test]
    fn empty_recorder_still_dumps_valid_json() {
        let rec = FlightRecorder::new(8, 1);
        let doc = flightrec_json("manual", 0, &rec, &[]);
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("events").unwrap().as_arr().map(<[_]>::len), Some(0));
        assert_eq!(v.get("spans").unwrap().as_arr().map(<[_]>::len), Some(0));
    }
}
