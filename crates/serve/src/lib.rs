//! edgepc-serve: a batched, multi-threaded inference runtime for the
//! EdgePC pipelines, std-only.
//!
//! The paper's kernels make single inferences fast; this crate makes a
//! *stream* of inferences well-behaved on an edge device:
//!
//! * **Admission control** — a bounded submission queue; when it is full,
//!   [`Engine::submit`] rejects with [`ServeError::QueueFull`] instead of
//!   blocking the caller (load shedding).
//! * **Deadlines** — each request may carry one; requests that expire
//!   while queued (or behind an earlier member of their batch) are
//!   cancelled with [`ServeError::DeadlineExpired`] rather than executed
//!   uselessly.
//! * **Backlog batching** — a worker that pops a request takes the
//!   same-model requests already queued behind it, up to `max_batch`,
//!   and runs them one after another. It never waits for stragglers: an
//!   idle engine answers in execution time, and batches grow with load.
//! * **Admission checks** — unknown models, clouds under the model's
//!   point floor and clouds with non-finite geometry are refused with a
//!   typed error before they are queued, so no request can kill a worker.
//! * **Worker pool** — plain `std::thread` workers, each with its own
//!   deterministic model replicas, compiled plans and executor arena, so
//!   the hot path takes no locks beyond the queue and outputs do not
//!   depend on worker count.
//! * **Observability** — every stage publishes spans and `serve.*`
//!   metrics into `edgepc-trace` (see [`metrics`]).
//! * **Load generation** — [`run_loadgen`] drives seeded open-loop
//!   arrival schedules and [`report::serve_json`] renders the outcome as
//!   `results/serve.json`.
//!
//! ```
//! use edgepc_serve::{Engine, EngineConfig, ModelSpec, Request};
//!
//! let engine = Engine::new(EngineConfig::new(2), vec![ModelSpec::pointnetpp_tiny(4)]);
//! let cloud = edgepc_data::bunny_with_points(256, 7);
//! let ticket = engine.submit(Request::new(0, cloud)).expect("admitted");
//! let output = ticket.wait().expect("completed");
//! assert_eq!(output.logits.cols(), 4);
//! engine.shutdown();
//! ```

#![warn(clippy::panic, clippy::unreachable)]

#[cfg(test)]
mod alloc_count;
mod batch;
mod flight;
mod plans;
mod queue;

pub mod config;
pub mod engine;
pub mod error;
pub mod loadgen;
pub mod metrics;
pub mod model;
pub mod report;
pub mod request;
pub mod telemetry;

pub use config::{EngineConfig, FlightConfig};
pub use engine::Engine;
pub use error::ServeError;
pub use loadgen::{arrival_offsets, run_loadgen, ArrivalPattern, LoadgenConfig, LoadgenOutcome};
pub use model::{ModelSpec, ServeModel};
pub use request::{InferenceOutput, Request, Ticket};
pub use telemetry::TelemetryServer;
