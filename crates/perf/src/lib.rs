//! The EdgePC deterministic benchmark record: `results/BENCH.json`.
//!
//! EdgePC states its claims as deterministic work — distance ops, MACs,
//! modeled Xavier time and energy — and the Morton approximations trade a
//! *bounded* loss of neighbor quality for it. This crate records exactly
//! those numbers for a fixed set of paper-configuration scenarios:
//!
//! 1. **The canonical scenario set** ([`scenarios`]): samplers, neighbor
//!    searchers, the matmul kernels, and full PointNet++/DGCNN forwards
//!    (eager and compiled) at the paper's Table 1 configurations, run
//!    with the online quality auditors of `edgepc-sample` /
//!    `edgepc-neighbor` enabled so recall@k and sampling coverage sit
//!    next to the work they were traded for.
//! 2. **The runner** ([`runner`]): each [`Scenario`] runs once under a
//!    registry of its own; its `audit.*` gauges become quality readings.
//! 3. **The `BENCH.json` schema** ([`report`]): one row per scenario with
//!    points, op counts, modeled ms/mJ and quality — no wall time, so a
//!    fresh recording is byte-identical to the committed one and `ci.sh`
//!    gates it with `diff`.
//!
//! Wall-clock performance is measured elsewhere: end to end and per
//! layer by the repo benchmark (`benchmark/`, `BENCHMARK.json`), and per
//! kernel by `cargo bench -p edgepc-bench`. [`Stats`] summarizes latency
//! samples for the serving and network reports.
//!
//! # Example
//!
//! ```
//! use edgepc_perf::{bench_json, run_scenario, Scenario};
//!
//! let scenario = Scenario::new("unit.noop", 0, || (edgepc_geom::OpCounts::ZERO, None));
//! let doc = bench_json(&[run_scenario(scenario)]);
//! assert!(doc.contains("\"id\":\"unit.noop\""));
//! ```

pub mod report;
pub mod runner;
pub mod scenarios;
pub mod stats;

pub use report::{bench_json, SCHEMA_NAME, SCHEMA_VERSION};
pub use runner::{run_scenario, ModeledCost, Scenario, ScenarioResult};
pub use scenarios::{disable_auditing, enable_default_auditing, paper_scenarios};
pub use stats::{quantiles_json, Stats};
