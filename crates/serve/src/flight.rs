//! The engine's telemetry plane: flight-recorder wiring, dump triggers,
//! and tail sampling.
//!
//! Every [`Engine`](crate::Engine) owns one [`TelemetryPlane`]. The
//! engine's submit/batch/exec paths call the `note_*` methods, each of
//! which records one compact [`TelemetryEvent`] into the always-on
//! [`FlightRecorder`] ring (a shard lock plus one array write — cheap
//! enough to leave enabled under load). Three triggers snapshot the ring
//! into a `flightrec.json` dump: a burst of deadline misses, a burst of
//! sheds (`QueueFull` storm), and a `guard::violation` anywhere in the
//! process. Dumps join the event window with the span timelines of every
//! implicated trace id, so the file answers "what was each slow request
//! doing" without any post-hoc correlation.
//!
//! The plane also hosts the tail sampler: a P² streaming estimate of the
//! configured latency quantile decides, at completion time, whether a
//! request's full span tree is kept in the registry or dropped
//! (`Registry::finish_trace`).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError, Weak};

use edgepc_geom::guard::{ranked_with, Lock, Ranked};
use edgepc_trace::flight::{flightrec_json, EventKind, FlightRecorder, TelemetryEvent};
use edgepc_trace::tail::TailSampler;
use edgepc_trace::Registry;

use crate::config::FlightConfig;
use crate::metrics;

/// Sliding-window burst counters behind the dump triggers.
struct TriggerState {
    /// Timestamps (registry µs) of recent deadline misses.
    misses: VecDeque<u64>,
    /// Timestamps (registry µs) of recent sheds.
    sheds: VecDeque<u64>,
    /// When the last dump was written, for rate limiting.
    last_dump_us: Option<u64>,
}

/// One engine's telemetry state; see the module docs.
pub(crate) struct TelemetryPlane {
    registry: Arc<Registry>,
    recorder: FlightRecorder,
    cfg: FlightConfig,
    trigger: Mutex<TriggerState>,
    sampler: Mutex<TailSampler>,
}

impl TelemetryPlane {
    /// Builds the plane and registers it with the process-wide
    /// `guard::violation` hook (installed once, fanning out to every live
    /// plane).
    pub(crate) fn new(registry: Arc<Registry>, cfg: FlightConfig) -> Arc<Self> {
        let plane = Arc::new(TelemetryPlane {
            registry,
            recorder: FlightRecorder::new(cfg.capacity, cfg.shards),
            sampler: Mutex::new(TailSampler::new(cfg.tail_quantile, cfg.tail_warmup)),
            trigger: Mutex::new(TriggerState {
                misses: VecDeque::new(),
                sheds: VecDeque::new(),
                last_dump_us: None,
            }),
            cfg,
        });
        register_for_guard_hook(&plane);
        plane
    }

    fn now_us(&self) -> u64 {
        self.registry.elapsed_us()
    }

    /// Allocation-free at steady state (EP008).
    fn event(&self, trace_id: u64, kind: EventKind, a: u64, b: u64) {
        self.recorder.record(TelemetryEvent {
            t_us: self.now_us(),
            trace_id,
            kind,
            a,
            b,
        });
    }

    /// Request admitted: `depth` = queue depth after the push,
    /// `deadline_us` = its budget (0 = none).
    ///
    /// Allocation-free at steady state (EP008).
    pub(crate) fn note_enqueued(&self, trace_id: u64, depth: u64, deadline_us: u64) {
        self.event(trace_id, EventKind::Enqueued, depth, deadline_us);
    }

    /// Request shed by admission control; counts toward the shed-storm
    /// trigger.
    ///
    /// Allocation-free at steady state (EP008).
    pub(crate) fn note_shed(&self, trace_id: u64, capacity: u64) {
        self.event(trace_id, EventKind::Shed, capacity, 0);
        let now = self.now_us();
        let fire = {
            let mut st = self.lock_trigger();
            push_windowed(&mut st.sheds, now, self.cfg.window.as_micros() as u64);
            st.sheds.len() as u64 >= self.cfg.shed_burst && self.dump_allowed(&mut st, now)
        };
        if fire {
            self.dump("shed_storm");
        }
    }

    /// Request joined a formed batch after waiting `waited_us` in queue.
    ///
    /// Allocation-free at steady state (EP008).
    pub(crate) fn note_batch_formed(&self, trace_id: u64, batch_size: u64, waited_us: u64) {
        self.event(trace_id, EventKind::BatchFormed, batch_size, waited_us);
    }

    /// Request's forward pass is starting on `worker`.
    ///
    /// Allocation-free at steady state (EP008).
    pub(crate) fn note_exec_begin(&self, trace_id: u64, worker: u64, batch_size: u64) {
        self.event(trace_id, EventKind::ExecBegin, worker, batch_size);
    }

    /// Request completed in `total_us`. Feeds the tail sampler and
    /// answers whether the request's span tree should be retained.
    ///
    /// Allocation-free at steady state (EP008).
    pub(crate) fn note_done(&self, trace_id: u64, total_us: u64, batch_size: u64) -> bool {
        self.event(trace_id, EventKind::Done, total_us, batch_size);
        let (retain, threshold_us) = {
            let mut sampler = ranked_with(Lock::ServeSampler, || {
                self.sampler.lock().unwrap_or_else(PoisonError::into_inner)
            });
            sampler.observe_admit(total_us)
        };
        self.registry
            .set_gauge(metrics::TAIL_THRESHOLD_US, threshold_us as f64);
        if retain {
            self.registry.incr(metrics::TAIL_RETAINED, 1);
            self.event(trace_id, EventKind::Retained, total_us, threshold_us);
        }
        retain
    }

    /// Request cancelled on deadline after waiting `waited_us` against a
    /// `deadline_us` budget; counts toward the miss-burst trigger.
    ///
    /// Allocation-free at steady state (EP008).
    pub(crate) fn note_culled(&self, trace_id: u64, waited_us: u64, deadline_us: u64) {
        self.event(trace_id, EventKind::Culled, waited_us, deadline_us);
        let now = self.now_us();
        let fire = {
            let mut st = self.lock_trigger();
            push_windowed(&mut st.misses, now, self.cfg.window.as_micros() as u64);
            st.misses.len() as u64 >= self.cfg.miss_burst && self.dump_allowed(&mut st, now)
        };
        if fire {
            self.dump("deadline_miss_burst");
        }
    }

    /// A `guard::violation` fired on some thread of this process. Dump
    /// unconditionally (rate limit still applies): the process is about
    /// to unwind, this is the last chance to persist the window.
    pub(crate) fn note_violation(&self) {
        self.event(edgepc_trace::current_trace_id(), EventKind::Violation, 0, 0);
        let now = self.now_us();
        let fire = {
            let mut st = self.lock_trigger();
            self.dump_allowed(&mut st, now)
        };
        if fire {
            self.dump("guard_violation");
        }
    }

    fn lock_trigger(&self) -> Ranked<MutexGuard<'_, TriggerState>> {
        ranked_with(Lock::ServeTrigger, || {
            self.trigger.lock().unwrap_or_else(PoisonError::into_inner)
        })
    }

    /// Rate limit shared by all triggers; records the dump time when it
    /// grants one.
    fn dump_allowed(&self, st: &mut TriggerState, now: u64) -> bool {
        let min_gap = self.cfg.min_dump_interval.as_micros() as u64;
        let ok = st
            .last_dump_us
            .is_none_or(|last| now.saturating_sub(last) >= min_gap);
        if ok {
            st.last_dump_us = Some(now);
        }
        ok
    }

    /// Renders the current ring window plus the span timelines of every
    /// trace id it implicates, as a schema-pinned `flightrec.json`
    /// document.
    pub(crate) fn render(&self, reason: &str) -> String {
        let mut traces: Vec<u64> = self
            .recorder
            .snapshot()
            .iter()
            .map(|e| e.trace_id)
            .filter(|&t| t != 0)
            .collect();
        traces.sort_unstable();
        traces.dedup();
        let spans = self.registry.spans_for_traces(&traces);
        flightrec_json(reason, self.now_us(), &self.recorder, &spans)
    }

    /// Writes a dump (if a path is configured) and counts the trigger.
    fn dump(&self, reason: &str) {
        self.registry.incr(metrics::FLIGHT_DUMPS, 1);
        if let Some(path) = &self.cfg.dump_path {
            // Last-gasp telemetry: a failed write (missing dir, read-only
            // fs) must not take the serving path down with it.
            let _ = std::fs::write(path, self.render(reason));
        }
    }
}

/// Appends `now` and evicts entries older than `window_us`.
fn push_windowed(times: &mut VecDeque<u64>, now: u64, window_us: u64) {
    times.push_back(now);
    let floor = now.saturating_sub(window_us);
    while times.front().is_some_and(|&t| t < floor) {
        times.pop_front();
    }
}

/// Live planes the process-wide violation hook fans out to. Weak refs:
/// a dropped engine unregisters itself by expiring.
static PLANES: Mutex<Vec<Weak<TelemetryPlane>>> = Mutex::new(Vec::new());
static HOOK_INSTALL: Once = Once::new();

fn register_for_guard_hook(plane: &Arc<TelemetryPlane>) {
    let mut planes = ranked_with(Lock::ServePlanes, || {
        PLANES.lock().unwrap_or_else(PoisonError::into_inner)
    });
    planes.retain(|w| w.strong_count() > 0);
    planes.push(Arc::downgrade(plane));
    drop(planes);
    HOOK_INSTALL.call_once(|| {
        // First install wins process-wide; if another subsystem got there
        // first we simply lose violation dumps, never correctness.
        let _ = edgepc_geom::set_violation_hook(|_msg| {
            let planes: Vec<Arc<TelemetryPlane>> = {
                let held = ranked_with(Lock::ServePlanes, || {
                    PLANES.lock().unwrap_or_else(PoisonError::into_inner)
                });
                held.iter().filter_map(Weak::upgrade).collect()
            };
            for plane in planes {
                plane.note_violation();
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn plane_with(cfg: FlightConfig) -> Arc<TelemetryPlane> {
        TelemetryPlane::new(Arc::new(Registry::new()), cfg)
    }

    #[test]
    fn miss_burst_fires_once_per_interval() {
        let cfg = FlightConfig {
            miss_burst: 3,
            min_dump_interval: Duration::from_secs(3600),
            ..FlightConfig::default()
        };
        let plane = plane_with(cfg);
        for i in 0..10 {
            plane.note_culled(i + 1, 500, 400);
        }
        // Ten misses, threshold 3, but rate limiting caps it at one dump.
        assert_eq!(plane.registry.counter(metrics::FLIGHT_DUMPS), 1);
    }

    #[test]
    fn shed_storm_uses_its_own_threshold() {
        let cfg = FlightConfig {
            shed_burst: 5,
            min_dump_interval: Duration::from_secs(3600),
            ..FlightConfig::default()
        };
        let plane = plane_with(cfg);
        for _ in 0..4 {
            plane.note_shed(0, 64);
        }
        assert_eq!(plane.registry.counter(metrics::FLIGHT_DUMPS), 0);
        plane.note_shed(0, 64);
        assert_eq!(plane.registry.counter(metrics::FLIGHT_DUMPS), 1);
    }

    #[test]
    fn render_attaches_only_implicated_span_timelines() {
        let plane = plane_with(FlightConfig::default());
        let reg = plane.registry.clone();
        edgepc_trace::with_trace(41, || {
            let _s = edgepc_trace::span_in(reg.clone(), "serve.exec", "serve");
        });
        edgepc_trace::with_trace(999, || {
            let _s = edgepc_trace::span_in(reg.clone(), "unrelated", "serve");
        });
        plane.note_enqueued(41, 1, 0);
        plane.note_done(41, 120, 1);
        let doc = plane.render("manual");
        let v = edgepc_trace::json::parse(&doc).expect("valid dump");
        let spans = v.get("spans").expect("spans").as_arr().expect("array");
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get("name").and_then(|n| n.as_str()),
            Some("serve.exec")
        );
    }

    #[test]
    fn tail_sampler_retains_warmup_then_thins() {
        let cfg = FlightConfig {
            tail_warmup: 4,
            tail_quantile: 0.99,
            ..FlightConfig::default()
        };
        let plane = plane_with(cfg);
        for i in 0..4 {
            assert!(plane.note_done(i + 1, 100, 1), "warmup retains all");
        }
        // Push the streaming p99 estimate far above the fast requests, so
        // the threshold can actually separate the two modes.
        for i in 0..20 {
            plane.note_done(i + 10, 10_000, 1);
        }
        let mut retained = 0;
        for i in 0..100 {
            if plane.note_done(i + 40, 100, 1) {
                retained += 1;
            }
        }
        assert!(retained < 100, "steady state must thin span retention");
        assert!(plane.note_done(500, 50_000, 1), "outlier is retained");
        assert!(plane.registry.counter(metrics::TAIL_RETAINED) >= 5);
        assert!(plane.registry.gauge(metrics::TAIL_THRESHOLD_US).is_some());
    }
}
