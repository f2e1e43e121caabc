//! Workspace-level serving invariants: the engine's outputs must not
//! depend on how many workers execute the requests, and a full loadgen
//! run must produce a parseable serve.json document.

use std::time::Duration;

use edgepc_data::bunny_with_points;
use edgepc_serve::{
    report, run_loadgen, ArrivalPattern, Engine, EngineConfig, LoadgenConfig, ModelSpec, Request,
};

/// Runs the same 12 requests through an engine with `workers` workers and
/// `intra_threads` of intra-batch parallelism, returning every logits
/// vector in submission order.
fn run_with(workers: usize, intra_threads: usize) -> Vec<Vec<f32>> {
    let mut cfg = EngineConfig::new(workers);
    cfg.max_batch = 3;
    // Stall each pop so the later submits queue up behind it and the
    // runs compared really do differ in how requests were batched.
    cfg.exec_delay = Duration::from_millis(2);
    cfg.intra_threads = intra_threads;
    let engine = Engine::new(
        cfg,
        vec![ModelSpec::pointnetpp_tiny(4), ModelSpec::dgcnn_cls_tiny(5)],
    );
    let tickets: Vec<_> = (0..12u64)
        .map(|i| {
            let cloud = bunny_with_points(192, 0xd0 + i);
            let model = (i % 2) as usize;
            engine
                .submit(Request::new(model, cloud))
                .unwrap_or_else(|e| panic!("submit admitted: {e}"))
        })
        .collect();
    let outputs = tickets
        .into_iter()
        .map(|t| {
            let out = t
                .wait()
                .unwrap_or_else(|e| panic!("request completed: {e}"));
            out.logits.as_slice().to_vec()
        })
        .collect();
    engine.shutdown();
    outputs
}

#[test]
fn outputs_are_worker_count_independent() {
    // Same seed, same requests: one worker and four workers must produce
    // bit-identical logits for every request, in submission order. This
    // is the determinism contract: replicas are seeded identically and
    // forwards are pure, so scheduling affects latency, never results.
    let solo = run_with(1, 0);
    let quad = run_with(4, 0);
    assert_eq!(solo.len(), quad.len());
    for (i, (a, b)) in solo.iter().zip(&quad).enumerate() {
        assert_eq!(a, b, "request {i} diverged between 1 and 4 workers");
    }
}

#[test]
fn outputs_are_unchanged_by_intra_batch_parallelism() {
    // Turning on intra-batch parallelism (each worker scoping an
    // edgepc_par budget around its forwards) must not change a single
    // bit: the parallel kernels fix their chunk boundaries independently
    // of the thread budget. Cross-check both worker counts.
    let baseline = run_with(1, 1);
    for (workers, intra) in [(1usize, 4usize), (2, 2), (2, 8)] {
        let got = run_with(workers, intra);
        assert_eq!(baseline.len(), got.len());
        for (i, (a, b)) in baseline.iter().zip(&got).enumerate() {
            assert_eq!(
                a, b,
                "request {i} diverged with {workers} workers x {intra} intra-threads"
            );
        }
    }
}

#[test]
fn loadgen_round_trip_produces_valid_serve_json() {
    let mut engine_cfg = EngineConfig::new(2);
    engine_cfg.queue_capacity = 16;
    let load_cfg = LoadgenConfig {
        requests: 48,
        rate_rps: 800.0,
        pattern: ArrivalPattern::Burst { size: 16 },
        seed: 0xcafe,
        points: 96,
        model: 0,
        deadline: Some(Duration::from_millis(500)),
    };
    let engine = Engine::new(engine_cfg.clone(), vec![ModelSpec::pointnetpp_tiny(4)]);
    let outcome = run_loadgen(&engine, &load_cfg);
    engine.shutdown();

    assert_eq!(
        outcome.submitted + outcome.shed,
        load_cfg.requests,
        "every request is either admitted or shed at submission"
    );
    assert_eq!(
        outcome.completed + outcome.expired + outcome.lost,
        outcome.submitted,
        "every admitted request resolves exactly once"
    );
    assert!(outcome.completed > 0, "some requests must complete");

    let doc = report::serve_json(&engine_cfg, &load_cfg, &outcome);
    let v = edgepc_trace::json::parse(&doc).expect("serve.json parses");
    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some(report::SCHEMA_NAME)
    );
    let completed = v
        .get("outcome")
        .and_then(|o| o.get("completed"))
        .and_then(|c| c.as_f64());
    assert_eq!(completed, Some(outcome.completed as f64));
}
