//! Engine sizing knobs.

use std::path::PathBuf;
use std::time::Duration;

/// Telemetry-plane knobs: flight-recorder sizing, dump triggers, and
/// tail-sampling policy. Embedded in [`EngineConfig`]; the defaults keep
/// the recorder always-on at negligible cost (a shard lock and one
/// 40-byte write per lifecycle edge).
#[derive(Debug, Clone, PartialEq)]
pub struct FlightConfig {
    /// Total event capacity of the flight-recorder ring.
    pub capacity: usize,
    /// Ring shards (rounded up to a power of two). More shards, less
    /// recording contention.
    pub shards: usize,
    /// Where triggered dumps are written. `None` disables dumping (the
    /// ring still records and stays queryable via the telemetry
    /// endpoint / [`Engine::flightrec_json`](crate::Engine::flightrec_json)).
    pub dump_path: Option<PathBuf>,
    /// Deadline misses within [`window`](Self::window) that trigger a dump.
    pub miss_burst: u64,
    /// Sheds (`QueueFull`) within [`window`](Self::window) that trigger a dump.
    pub shed_burst: u64,
    /// Sliding window over which bursts are counted.
    pub window: Duration,
    /// Minimum spacing between dumps, so a sustained storm produces one
    /// dump per interval instead of one per miss.
    pub min_dump_interval: Duration,
    /// Latency quantile the tail sampler tracks; requests at or above the
    /// running estimate keep their full span trees.
    pub tail_quantile: f64,
    /// Completions before the sampler starts dropping span trees
    /// (everything is retained while the estimate warms up).
    pub tail_warmup: u64,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            capacity: 8192,
            shards: 8,
            dump_path: None,
            miss_burst: 8,
            shed_burst: 32,
            window: Duration::from_secs(1),
            min_dump_interval: Duration::from_secs(2),
            tail_quantile: 0.99,
            tail_warmup: 64,
        }
    }
}

/// Configuration of an [`Engine`](crate::Engine).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Worker threads. Each worker builds its own replica of every
    /// configured model and compiles its own plans from them (replicas
    /// are deterministic, so worker count never changes outputs).
    pub workers: usize,
    /// Bound of the submission queue. A submit that would exceed it is
    /// rejected with [`ServeError::QueueFull`](crate::ServeError::QueueFull)
    /// — the engine sheds load rather than blocking callers. Capacity 0
    /// rejects everything (useful as a drain valve and in tests).
    pub queue_capacity: usize,
    /// Largest batch a worker forms from the same-model requests already
    /// queued when it pops; it never waits for more to arrive.
    pub max_batch: usize,
    /// Intra-batch parallelism: the `edgepc_par` worker budget each serve
    /// worker scopes around its forwards (`0` keeps the ambient
    /// resolution — `EDGEPC_THREADS`, then detected parallelism). The
    /// parallel kernels are deterministic for every budget, so this knob
    /// trades latency for CPU without affecting outputs.
    pub intra_threads: usize,
    /// Chaos knob: stall every worker for this long before it runs a
    /// batch. `Duration::ZERO` (the default) disables it. Used by the
    /// chaos tests and by netgen's degraded-shard sweeps to simulate a
    /// slow shard without touching the model code; it delays execution
    /// only, so outputs are unchanged.
    pub exec_delay: Duration,
    /// Telemetry plane: flight recorder, dump triggers, tail sampling.
    pub flight: FlightConfig,
}

impl EngineConfig {
    /// A config with `workers` threads and serving-oriented defaults:
    /// queue bound 64, batches up to 4, ambient intra-batch
    /// parallelism.
    pub fn new(workers: usize) -> Self {
        EngineConfig {
            workers,
            queue_capacity: 64,
            max_batch: 4,
            intra_threads: 0,
            exec_delay: Duration::ZERO,
            flight: FlightConfig::default(),
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::new(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        assert_eq!(c.workers, 2);
        assert!(c.queue_capacity >= c.max_batch);
    }
}
