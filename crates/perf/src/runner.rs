//! The scenario runner: one run, under a registry of its own.

use std::sync::Arc;

use edgepc_geom::OpCounts;
use edgepc_trace::{with_registry, Registry};

/// Modeled Xavier cost of one run, as reported by the scenario itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeledCost {
    /// Modeled device time, milliseconds.
    pub ms: f64,
    /// Modeled device energy, millijoules.
    pub mj: f64,
}

/// One benchmark scenario: an id, its input scale, and a body that
/// builds its inputs and runs once.
///
/// The body returns the run's [`OpCounts`] and (when the scenario prices
/// itself on the device model) the modeled Xavier cost — explicitly, so
/// the runner never has to guess which trace spans belong to the
/// scenario versus to auditing or setup.
pub struct Scenario {
    /// Stable identifier, e.g. `"search.window.w128.n8192.q2048.k32"`.
    /// A BENCH.json row is keyed on this string.
    pub id: String,
    /// Input point count (the paper's `N`).
    pub points: usize,
    /// The benchmark body.
    pub run: Box<dyn FnOnce() -> (OpCounts, Option<ModeledCost>)>,
}

impl Scenario {
    /// Creates a scenario.
    pub fn new(
        id: impl Into<String>,
        points: usize,
        run: impl FnOnce() -> (OpCounts, Option<ModeledCost>) + 'static,
    ) -> Self {
        Scenario {
            id: id.into(),
            points,
            run: Box::new(run),
        }
    }
}

/// A scenario's deterministic outcome: the work, cost, and
/// approximation-quality readings of its run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario id (copied from [`Scenario::id`]).
    pub id: String,
    /// Input point count.
    pub points: usize,
    /// Op counts of the run.
    pub ops: OpCounts,
    /// Modeled Xavier time (ms), if the scenario priced itself.
    pub modeled_ms: Option<f64>,
    /// Modeled Xavier energy (mJ), if the scenario priced itself.
    pub modeled_mj: Option<f64>,
    /// Quality-auditor gauges (`audit.*`) the run published, name-sorted —
    /// e.g. recall@k for a window-search scenario.
    pub quality: Vec<(String, f64)>,
    /// Executor arena bytes of a compiled forward, if the run published
    /// its [`ARENA_GAUGE`].
    pub arena_bytes: Option<u64>,
}

/// The gauge a compiled-model scenario sets to its plans' arena bytes
/// (the largest plan's arena, which the executor holds).
pub const ARENA_GAUGE: &str = "ir.arena_bytes";

/// Runs one scenario once under a dedicated trace registry whose
/// `audit.*` gauges become the result's quality readings (and whose
/// [`ARENA_GAUGE`] its arena bytes).
pub fn run_scenario(scenario: Scenario) -> ScenarioResult {
    let reg = Arc::new(Registry::new());
    let (ops, modeled) = with_registry(reg.clone(), scenario.run);
    let quality = reg
        .gauge_names()
        .iter()
        .filter(|n| n.starts_with("audit."))
        .filter_map(|n| reg.gauge(n).map(|v| (n.clone(), v)))
        .collect();
    ScenarioResult {
        id: scenario.id,
        points: scenario.points,
        ops,
        modeled_ms: modeled.map(|m| m.ms),
        modeled_mj: modeled.map(|m| m.mj),
        quality,
        arena_bytes: reg.gauge(ARENA_GAUGE).map(|v| v as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_collects_ops_cost_and_quality() {
        let scenario = Scenario::new("unit.counted", 64, || {
            // Publish a fake audit gauge like the real auditors do.
            edgepc_trace::current_registry().set_gauge("audit.unit.value", 5.0);
            edgepc_trace::current_registry().set_gauge("other.gauge", 1.0);
            (
                OpCounts {
                    dist3: 5,
                    ..OpCounts::ZERO
                },
                Some(ModeledCost { ms: 1.5, mj: 30.0 }),
            )
        });
        let r = run_scenario(scenario);
        assert_eq!(r.id, "unit.counted");
        assert_eq!(r.points, 64);
        assert_eq!(r.ops.dist3, 5);
        assert_eq!(r.modeled_ms, Some(1.5));
        assert_eq!(r.modeled_mj, Some(30.0));
        assert_eq!(r.quality, vec![("audit.unit.value".to_string(), 5.0)]);
        assert_eq!(r.arena_bytes, None);
    }
}
