//! Span-based observability for the EdgePC pipeline.
//!
//! This crate is deliberately `std`-only (no external dependencies — the
//! build must work offline). It provides three layers:
//!
//! 1. **Spans** ([`span`], [`SpanGuard`], [`SpanData`]): RAII guards that
//!    time a pipeline stage's wall-clock duration and carry, side by side,
//!    the stage's measured [`OpCounts`](edgepc_geom::OpCounts) and the
//!    modeled Jetson-Xavier time/energy computed by `edgepc-sim` at the
//!    recording site. Spans nest (a `forward` span contains `sa1.sample`
//!    which contains the sampler's own spans) and aggregate thread-safely
//!    into a [`Registry`].
//! 2. **Metrics** ([`metrics::Histogram`], counters on [`Registry`]):
//!    monotonic counters plus log-linear latency histograms keyed by stage
//!    name, with p50/p95/p99 queries.
//! 3. **Exporters** ([`export`]): a Chrome `trace_event` JSON file
//!    (loadable in `chrome://tracing` / Perfetto), a flat per-stage
//!    breakdown record (hand-rolled JSON, see [`json`]), a line-oriented
//!    [`export::metrics_text`] snapshot, and a human [`export::Summary`]
//!    table.
//! 4. **Request telemetry** ([`flight`], [`tail`], [`with_trace`]):
//!    request-scoped trace ids that spans inherit from an ambient
//!    thread-local scope, an always-on fixed-capacity
//!    [`flight::FlightRecorder`] ring of compact lifecycle events, and a
//!    P² streaming-quantile [`tail::TailSampler`] that decides online
//!    which requests keep their full span trees.
//!
//! # Capturing a trace
//!
//! ```
//! use edgepc_trace::{span, with_local};
//!
//! let (value, spans) = with_local(|| {
//!     let _outer = span("forward", "model");
//!     {
//!         let mut s = span("sa1.sample", "sample");
//!         s.set_ops(edgepc_geom::OpCounts { dist3: 100, ..Default::default() });
//!         s.set_modeled(0.5, 10.0);
//!     }
//!     42
//! });
//! assert_eq!(value, 42);
//! assert_eq!(spans.len(), 2);
//! let chrome = edgepc_trace::export::chrome_trace_json(&spans);
//! assert!(chrome.contains("\"ph\":\"X\""));
//! ```

pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
mod registry;
mod span;
pub mod tail;

pub use registry::{current_registry, global, with_local, with_registry, Registry};
pub use span::{current_trace_id, next_trace_id, span, span_in, with_trace, SpanData, SpanGuard};
