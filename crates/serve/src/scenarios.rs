//! Serving scenarios for the workspace benchmark harness.
//!
//! These live here (not in `edgepc-perf`) because they need the engine;
//! `edgepc-serve` already depends on `edgepc-perf` for [`Stats`], so the
//! dependency must point this way. `bench_all` chains them after
//! `edgepc_perf::paper_scenarios()`.
//!
//! Each scenario keeps one engine alive across runner iterations (engine
//! startup is not what we are measuring) and times a fixed burst of
//! submissions through to the last resolved ticket.

use edgepc_data::bunny_with_points;
use edgepc_geom::{OpCounts, PointCloud};
use edgepc_perf::Scenario;

use crate::config::EngineConfig;
use crate::engine::Engine;
use crate::model::ModelSpec;
use crate::request::Request;

const POINTS: usize = 256;

fn clouds(n: usize, seed: u64) -> Vec<PointCloud> {
    (0..n)
        .map(|i| bunny_with_points(POINTS, seed.wrapping_add(i as u64)))
        .collect()
}

/// Submits every cloud, then waits for every ticket. Capacity is sized so
/// nothing sheds — benchmark iterations must all do the same work.
fn drive(engine: &Engine, clouds: &[PointCloud]) {
    let tickets: Vec<_> = clouds
        .iter()
        .map(|cloud| {
            let ticket = engine.submit(Request::new(0, cloud.clone()));
            edgepc_geom::required(ticket.ok(), "bench submit must be admitted")
        })
        .collect();
    for ticket in tickets {
        edgepc_geom::required(ticket.wait().ok(), "bench request must complete");
    }
}

/// The two serving benchmark scenarios:
///
/// * `serve.closed.w2.b1.n256` — per-request floor: four requests, batch
///   size 1; measures the runtime's fixed overhead per inference.
/// * `serve.open.w2.b4.n256` — backlog batching: eight requests submitted
///   at once, which two workers pop as batches of up to 4.
pub fn serve_scenarios() -> Vec<Scenario> {
    let mut closed: Option<(Engine, Vec<PointCloud>)> = None;
    let mut open: Option<(Engine, Vec<PointCloud>)> = None;
    vec![
        Scenario::new("serve.closed.w2.b1.n256", POINTS, move || {
            let (engine, clouds) = closed.get_or_insert_with(|| {
                let mut cfg = EngineConfig::new(2);
                cfg.max_batch = 1;
                let engine = Engine::new(cfg, vec![ModelSpec::pointnetpp_tiny(4)]);
                (engine, clouds(4, 0x5c10))
            });
            drive(engine, clouds);
            (OpCounts::ZERO, None)
        }),
        Scenario::new("serve.open.w2.b4.n256", POINTS, move || {
            let (engine, clouds) = open.get_or_insert_with(|| {
                let mut cfg = EngineConfig::new(2);
                cfg.max_batch = 4;
                let engine = Engine::new(cfg, vec![ModelSpec::pointnetpp_tiny(4)]);
                (engine, clouds(8, 0x0be7))
            });
            drive(engine, clouds);
            (OpCounts::ZERO, None)
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_ids_are_stable() {
        let ids: Vec<_> = serve_scenarios().iter().map(|s| s.id.clone()).collect();
        assert_eq!(ids, ["serve.closed.w2.b1.n256", "serve.open.w2.b4.n256"]);
    }
}
