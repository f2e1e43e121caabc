//! Engine lifecycle and queue edge cases: admission control, deadline
//! cancellation, graceful drain, batching, and metric accounting.

use std::sync::Arc;
use std::time::Duration;

use edgepc_data::bunny_with_points;
use edgepc_serve::{metrics, Engine, EngineConfig, ModelSpec, Request, ServeError, ServeModel};
use edgepc_trace::{with_registry, Registry};

fn cloud(seed: u64) -> edgepc_geom::PointCloud {
    bunny_with_points(128, seed)
}

/// The eager forward of a fresh replica of `spec`: the oracle every
/// served (compiled) forward must match bit for bit.
fn eager(spec: &ModelSpec, cloud: &edgepc_geom::PointCloud) -> Vec<f32> {
    let logits = match ServeModel::build(spec) {
        ServeModel::PointNetPp(mut m) => m.forward(cloud).0,
        ServeModel::DgcnnCls(mut m) => m.forward(cloud).0,
        ServeModel::DgcnnSeg(mut m) => m.forward(cloud).0,
    };
    logits.as_slice().to_vec()
}

fn slow_config(workers: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new(workers);
    // The worker pops its first batch and stalls before running it, so
    // everything submitted in the meantime is still queued when it
    // returns: tests control what the next pop finds.
    cfg.exec_delay = Duration::from_millis(100);
    cfg
}

#[test]
fn capacity_zero_rejects_every_submission() {
    let mut cfg = EngineConfig::new(1);
    cfg.queue_capacity = 0;
    let engine = Engine::new(cfg, vec![ModelSpec::pointnetpp_tiny(4)]);
    for i in 0..3 {
        let err = engine.submit(Request::new(0, cloud(i))).err();
        assert_eq!(err, Some(ServeError::QueueFull { capacity: 0 }));
    }
    engine.shutdown();
}

#[test]
fn unknown_model_is_rejected_before_queueing() {
    let engine = Engine::new(EngineConfig::new(1), vec![ModelSpec::pointnetpp_tiny(4)]);
    let err = engine.submit(Request::new(5, cloud(0))).err();
    assert_eq!(
        err,
        Some(ServeError::UnknownModel {
            index: 5,
            models: 1
        })
    );
    assert_eq!(engine.queue_depth(), 0);
    engine.shutdown();
}

#[test]
fn too_small_cloud_is_rejected_and_the_worker_survives() {
    let engine = Engine::new(EngineConfig::new(1), vec![ModelSpec::pointnetpp_tiny(4)]);
    let thin: edgepc_geom::PointCloud = (0..8)
        .map(|i| edgepc_geom::Point3::new(i as f32, 0.0, 0.0))
        .collect();
    let err = engine.submit(Request::new(0, thin)).err();
    assert_eq!(err, Some(ServeError::TooFewPoints { points: 8, min: 64 }));
    assert_eq!(engine.queue_depth(), 0);
    // The single worker never saw the thin cloud, so it still serves.
    let ticket = engine.submit(Request::new(0, cloud(0))).expect("admitted");
    let out = ticket.wait().expect("valid request completes");
    assert_eq!((out.logits.rows(), out.logits.cols()), (128, 4));
    engine.shutdown();
}

#[test]
fn deadline_expired_while_queued_is_cancelled_not_executed() {
    let registry = Arc::new(Registry::new());
    with_registry(registry.clone(), || {
        let mut cfg = slow_config(1);
        cfg.max_batch = 1;
        let engine = Engine::new(cfg, vec![ModelSpec::pointnetpp_tiny(4)]);
        // Occupy the single worker, then queue a request that is already
        // expired on arrival: the worker must cancel it, not run it.
        let busy = engine.submit(Request::new(0, cloud(1))).expect("admitted");
        let doomed = engine
            .submit(Request::new(0, cloud(2)).with_deadline(Duration::ZERO))
            .expect("admitted");
        assert!(busy.wait().is_ok());
        match doomed.wait() {
            Err(ServeError::DeadlineExpired { deadline, .. }) => {
                assert_eq!(deadline, Duration::ZERO);
            }
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        engine.shutdown();
    });
    assert_eq!(registry.counter(metrics::EXPIRED), 1);
    assert_eq!(registry.counter(metrics::COMPLETED), 1);
}

#[test]
fn shutdown_drains_queued_requests_then_refuses_new_ones() {
    let engine = Engine::new(slow_config(2), vec![ModelSpec::pointnetpp_tiny(4)]);
    let tickets: Vec<_> = (0..6)
        .map(|i| engine.submit(Request::new(0, cloud(i))).expect("admitted"))
        .collect();
    engine.shutdown();
    // Graceful drain: every request admitted before shutdown resolves
    // with an output, none is dropped.
    for ticket in tickets {
        assert!(ticket.wait().is_ok());
    }
    let err = engine.submit(Request::new(0, cloud(99))).err();
    assert_eq!(err, Some(ServeError::ShuttingDown));
}

#[test]
fn full_queue_sheds_instead_of_blocking() {
    let registry = Arc::new(Registry::new());
    with_registry(registry.clone(), || {
        let mut cfg = slow_config(1);
        cfg.queue_capacity = 2;
        cfg.max_batch = 1;
        let engine = Engine::new(cfg, vec![ModelSpec::pointnetpp_tiny(4)]);
        let mut accepted = Vec::new();
        let mut shed = 0;
        for i in 0..12 {
            match engine.submit(Request::new(0, cloud(i))) {
                Ok(ticket) => accepted.push(ticket),
                Err(ServeError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 2);
                    shed += 1;
                }
                Err(other) => panic!("unexpected rejection: {other:?}"),
            }
        }
        assert!(shed > 0, "12 rapid submits into capacity 2 must shed");
        for ticket in accepted {
            assert!(ticket.wait().is_ok(), "accepted requests still complete");
        }
        engine.shutdown();
    });
    let shed_metric = registry.counter(metrics::SHED);
    assert!(shed_metric > 0, "shed requests must be counted");
}

#[test]
fn batcher_groups_requests_when_workers_are_saturated() {
    let mut cfg = slow_config(1);
    cfg.max_batch = 4;
    let engine = Engine::new(cfg, vec![ModelSpec::pointnetpp_tiny(4)]);
    let tickets: Vec<_> = (0..8)
        .map(|i| engine.submit(Request::new(0, cloud(i))).expect("admitted"))
        .collect();
    let outputs: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("completed"))
        .collect();
    let max_batch = outputs.iter().map(|o| o.batch_size).max().unwrap_or(0);
    assert!(
        max_batch > 1,
        "8 rapid submits against 1 stalled worker must form a batch"
    );
    assert!(max_batch <= 4, "batches never exceed max_batch");
    engine.shutdown();
}

#[test]
fn an_idle_engine_never_batches() {
    let mut cfg = EngineConfig::new(1);
    cfg.max_batch = 4;
    let engine = Engine::new(cfg, vec![ModelSpec::pointnetpp_tiny(4)]);
    // Submit-then-wait leaves nothing queued behind any anchor, and the
    // worker does not wait for the next request to show up.
    for i in 0..20 {
        let ticket = engine.submit(Request::new(0, cloud(i))).expect("admitted");
        assert_eq!(ticket.wait().expect("completed").batch_size, 1);
    }
    engine.shutdown();
}

#[test]
fn metrics_account_for_every_submission() {
    let registry = Arc::new(Registry::new());
    with_registry(registry.clone(), || {
        let engine = Engine::new(EngineConfig::new(2), vec![ModelSpec::pointnetpp_tiny(4)]);
        let tickets: Vec<_> = (0..5)
            .map(|i| engine.submit(Request::new(0, cloud(i))).expect("admitted"))
            .collect();
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        engine.shutdown();
    });
    assert_eq!(registry.counter(metrics::SUBMITTED), 5);
    assert_eq!(registry.counter(metrics::COMPLETED), 5);
    // Queue and in-flight gauges return to zero once everything resolved.
    assert_eq!(registry.gauge(metrics::QUEUE_DEPTH), Some(0.0));
    assert_eq!(registry.gauge(metrics::IN_FLIGHT), Some(0.0));
    let latency = registry.histogram(metrics::LATENCY_US).expect("latency");
    assert_eq!(latency.count(), 5);
}

#[test]
fn refused_submits_leave_no_span_behind() {
    let registry = Arc::new(Registry::new());
    with_registry(registry.clone(), || {
        let mut cfg = EngineConfig::new(1);
        cfg.queue_capacity = 0;
        let engine = Engine::new(cfg, vec![ModelSpec::pointnetpp_tiny(4)]);
        let before = registry.span_count();
        let cloud = cloud(0);
        for _ in 0..1_000 {
            let err = engine.submit(Request::new(0, cloud.clone())).err();
            assert_eq!(err, Some(ServeError::QueueFull { capacity: 0 }));
        }
        assert_eq!(registry.span_count(), before);
        assert_eq!(registry.counter(metrics::SHED), 1_000);
        engine.shutdown();
    });
}

/// Waits until every batch the worker started has closed its span, so a
/// span count read afterwards has no span still on its way in.
fn quiesce(registry: &Registry) {
    let count = |name: &str| registry.histogram(name).map_or(0, |h| h.count());
    while count("serve.batch") != count(metrics::BATCH_SIZE) {
        std::thread::yield_now();
    }
}

/// Span memory under a soak: what the registry holds is the newest kept
/// traces up to its cap, not a residue of every request served nor every
/// trace ever kept.
#[test]
fn soak_span_memory_follows_kept_traces_only() {
    const REQUESTS: usize = 6_000;
    const WINDOW: usize = 8;
    const CAP: usize = Registry::KEPT_TRACES;
    // Drained and quiesced after this many requests: while the first
    // traces kept are all still held, and long after the kept FIFO filled.
    const WARM: usize = 64;
    const FULL: usize = 4_000;
    let registry = Arc::new(Registry::new());
    with_registry(registry.clone(), || {
        let mut cfg = EngineConfig::new(1);
        // Twice the cap is kept before the sampler thins at all.
        cfg.flight.tail_warmup = 2 * CAP as u64;
        let engine = Engine::new(cfg, vec![ModelSpec::pointnetpp_tiny(4)]);
        let baseline = registry.span_count();
        let clouds: Vec<_> = (0..4).map(cloud).collect();
        let mut in_flight = std::collections::VecDeque::new();
        let mut warm_ids = Vec::new();
        let mut per_request = 0;
        let mut at_full = None;
        for i in 0..REQUESTS {
            let mut request = Request::new(0, clouds[i % clouds.len()].clone());
            if i % 50 == 49 {
                // Already late on arrival: culled, never executed.
                request = request.with_deadline(Duration::ZERO);
            }
            let ticket = engine.submit(request).expect("window is under capacity");
            if i < 16 {
                warm_ids.push(ticket.id());
            }
            in_flight.push_back(ticket);
            let checkpoint = i + 1 == WARM || i + 1 == FULL;
            let drain_to = if checkpoint { 0 } else { WINDOW - 1 };
            while in_flight.len() > drain_to {
                let _ = in_flight.pop_front().map(|t| t.wait());
            }
            if i + 1 == WARM {
                quiesce(&registry);
                // The longest of the first timelines is what one kept
                // request holds.
                per_request = warm_ids
                    .iter()
                    .map(|&id| registry.spans_for_trace(id).len())
                    .max()
                    .unwrap_or(0);
            } else if i + 1 == FULL {
                quiesce(&registry);
                at_full = Some((
                    registry.span_count(),
                    registry.counter(metrics::TAIL_RETAINED),
                ));
            }
        }
        for ticket in in_flight {
            let _ = ticket.wait();
        }
        engine.shutdown();

        assert!(per_request >= 3, "enqueue, exec and model stages");
        let (held_full, kept_full) = at_full.expect("checkpoint reached");
        let (held, kept) = (
            registry.span_count(),
            registry.counter(metrics::TAIL_RETAINED),
        );
        assert!(
            kept_full as usize > CAP,
            "the kept FIFO filled before {FULL}"
        );
        // Nothing is in flight at either reading, so what is held is the
        // kept FIFO. One more untraced span by the end: serve.shutdown.
        assert!(
            held_full <= baseline + per_request * CAP && held <= baseline + 1 + per_request * CAP,
            "{held_full}, then {held} spans held for {CAP} kept traces of {per_request}"
        );
        // A kept trace holds one span fewer when it did not anchor its
        // batch, so two readings of a full FIFO can differ by CAP; a
        // store that grew with every trace kept would differ by
        // per_request for each of them.
        assert!(
            held <= held_full + 1 + CAP,
            "{held_full} -> {held} spans from {FULL} to {REQUESTS} requests"
        );
        assert!((kept as usize) < REQUESTS / 4, "the sampler thins");
    });
    let counter = |name: &str| registry.counter(name);
    assert_eq!(counter(metrics::SUBMITTED), REQUESTS as u64);
    assert_eq!(counter(metrics::EXPIRED), REQUESTS as u64 / 50);
    assert_eq!(
        counter(metrics::SUBMITTED),
        counter(metrics::COMPLETED) + counter(metrics::SHED) + counter(metrics::EXPIRED)
    );
}

/// The two tiny models the benchmark serves.
fn both_tiny() -> Vec<ModelSpec> {
    vec![ModelSpec::pointnetpp_tiny(4), ModelSpec::dgcnn_cls_tiny(5)]
}

/// A worker keeps 8 plans. Twelve keys, each requested twice, overflow
/// it by four: every request, kept key or not, runs a compiled plan, and
/// every logit matches a fresh eager model's.
#[test]
fn every_served_request_runs_a_compiled_plan() {
    let registry = Arc::new(Registry::new());
    let specs = both_tiny();
    // (model, size): six sizes of each model, 12 keys in all.
    let keys: Vec<(usize, usize)> = (0..12).map(|i| (i % 2, 96 + 16 * (i / 2))).collect();
    let served = with_registry(registry.clone(), || {
        let mut cfg = EngineConfig::new(1);
        // Keep every span tree, so the forward spans below are all held.
        cfg.flight.tail_warmup = 1_000;
        let engine = Engine::new(cfg, specs.clone());
        let mut served = Vec::new();
        for round in 0..2u64 {
            for &(model, size) in &keys {
                let cloud = bunny_with_points(size, 17 * round + size as u64);
                let ticket = engine
                    .submit(Request::new(model, cloud.clone()))
                    .expect("admitted");
                served.push((model, cloud, ticket.wait().expect("served").logits));
            }
        }
        engine.shutdown();
        served
    });
    // The oracle runs outside the engine's registry, so every forward
    // span counted below is the engine's.
    for (model, cloud, logits) in &served {
        assert_eq!(
            logits.as_slice(),
            eager(&specs[*model], cloud).as_slice(),
            "model {model}, {} points",
            cloud.len()
        );
    }
    let spans = registry.spans();
    let named = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(
        named("pointnetpp.compiled") + named("dgcnn_cls.compiled"),
        2 * keys.len()
    );
    assert_eq!(named("pointnetpp.forward") + named("dgcnn_cls.forward"), 0);
}

/// `cloud` with its first point moved to `p`.
fn with_first_point(
    cloud: &edgepc_geom::PointCloud,
    p: edgepc_geom::Point3,
) -> edgepc_geom::PointCloud {
    let mut points = cloud.points().to_vec();
    points[0] = p;
    edgepc_geom::PointCloud::from_points(points)
}

/// The hostile coordinates a request may carry: NaN, infinities, and
/// finite ones whose squared distances overflow `f32`.
fn hostile_points() -> Vec<edgepc_geom::Point3> {
    use edgepc_geom::Point3;
    vec![
        Point3::new(f32::NAN, 0.0, 0.0),
        Point3::new(f32::INFINITY, 0.0, 0.0),
        Point3::new(0.0, f32::NEG_INFINITY, 0.0),
        Point3::new(3e38, -3e38, 0.0),
        Point3::new(0.0, 0.0, -3e38),
    ]
}

#[test]
fn non_finite_clouds_are_rejected_and_the_worker_survives() {
    let specs = both_tiny();
    let engine = Engine::new(EngineConfig::new(1), specs.clone());
    let healthy = bunny_with_points(256, 5);
    for (model, spec) in specs.iter().enumerate() {
        for p in hostile_points() {
            let err = engine
                .submit(Request::new(model, with_first_point(&healthy, p)))
                .err();
            assert_eq!(
                err,
                Some(ServeError::NonFiniteCloud),
                "model {model}, {p:?}"
            );
        }
        assert_eq!(engine.queue_depth(), 0);
        assert_eq!(engine.load(), 0);
        // The single worker never saw a hostile cloud, so it still serves.
        let ticket = engine
            .submit(Request::new(model, healthy.clone()))
            .expect("admitted");
        let out = ticket.wait().expect("served");
        assert_eq!(out.logits.as_slice(), eager(spec, &healthy).as_slice());
    }
    engine.shutdown();
}
