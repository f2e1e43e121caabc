//! edgepc-net: the sharded TCP front end for the serving runtime.
//!
//! This crate turns a set of in-process [`edgepc_serve::Engine`] shards
//! into a network service:
//!
//! * [`proto`] — a tiny length-prefixed binary wire protocol (versioned
//!   frame header, f32 point payloads, typed error statuses). Decoding is
//!   total: malformed input produces a [`proto::WireError`], never a
//!   panic.
//! * [`router`] — a [`Router`] over N engine shards with least-loaded and
//!   consistent-hash (per-tenant sticky) placement, per-model replica
//!   groups, and hedged retries: a ticket still unresolved past the hedge
//!   threshold is re-submitted to the next-best shard and the first
//!   completion wins.
//! * [`server`] — a [`NetServer`] accepting persistent connections with
//!   pipelined requests; each connection's bounded response pipeline
//!   propagates backpressure to the socket, so a saturated server stops
//!   reading rather than buffering unboundedly.
//! * [`netgen`] — the multi-connection open-loop client driver behind
//!   `results/net.json` (see [`report`] for the schema) and the CI net
//!   smoke.
//!
//! Determinism survives the wire: every shard runs identical
//! deterministic replicas and f32 payloads round-trip bit-exactly, so the
//! same seeded request set produces bit-identical logits whether it is
//! served by one shard or three, over sockets or in process. The root
//! `net_wire` test pins exactly that.
//!
//! Shutdown ordering: stop the [`NetServer`] *before* shutting down the
//! router's engines, so in-flight tickets settle instead of reporting
//! `ShuttingDown`.

#![warn(clippy::panic, clippy::unreachable)]

pub mod metrics;
pub mod netgen;
pub mod proto;
pub mod report;
pub mod router;
pub mod server;

pub(crate) mod pipe;

pub use netgen::{run_against, run_row, run_sweep, NetReport, NetRow, NetgenConfig};
pub use proto::{ErrCode, Frame, RequestFrame, WireError};
pub use report::net_json;
pub use router::{HedgeConfig, RoutePolicy, RoutedOutput, Router};
pub use server::{NetConfig, NetServer};
