//! The telemetry plane end to end: a deadline-miss storm must trip the
//! flight recorder's automatic dump, and the dump must carry each
//! offending request's full segment timeline under its trace id.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use edgepc_data::bunny_with_points;
use edgepc_serve::{Engine, EngineConfig, ModelSpec, Request, ServeError};
use edgepc_trace::json::{parse, Value};
use edgepc_trace::{with_registry, Registry};

fn cloud(seed: u64) -> edgepc_geom::PointCloud {
    bunny_with_points(128, seed)
}

/// Events for one trace, in dump (time) order.
// Test helper outside a #[test] fn, so clippy's allow-expect-in-tests
// does not reach it; panicking on a malformed dump is the point here.
#[allow(clippy::expect_used)]
fn events_by_trace(doc: &Value) -> HashMap<u64, Vec<String>> {
    let mut by_trace: HashMap<u64, Vec<String>> = HashMap::new();
    let events = doc.get("events").expect("events").as_arr().expect("array");
    for e in events {
        let trace = e.get("trace").and_then(Value::as_f64).expect("trace id") as u64;
        let kind = e
            .get("kind")
            .and_then(Value::as_str)
            .expect("kind")
            .to_string();
        by_trace.entry(trace).or_default().push(kind);
    }
    by_trace
}

#[test]
fn deadline_miss_storm_dumps_full_timelines() {
    let dump_path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("flightrec-storm.json");
    let _ = std::fs::remove_file(&dump_path);

    let registry = Arc::new(Registry::new());
    let (doomed_ids, busy_ids) = with_registry(registry.clone(), || {
        let mut cfg = EngineConfig::new(1);
        cfg.max_batch = 4;
        cfg.exec_delay = Duration::from_millis(20);
        cfg.flight.dump_path = Some(dump_path.clone());
        cfg.flight.miss_burst = 8;
        cfg.flight.window = Duration::from_secs(30);
        // Retain every span tree: the dump must show the completed
        // requests' timelines too, not just the culled ones.
        cfg.flight.tail_warmup = 1_000;
        let engine = Engine::new(cfg, vec![ModelSpec::pointnetpp_tiny(4)]);

        // Run some requests to completion first — their full timelines
        // (enqueued → batch_formed → exec_begin → done) are in the ring
        // when the storm hits. Then pile up requests whose deadlines are
        // hopeless: they expire while queued, and the worker culls them
        // in one sweep — a deadline-miss burst.
        let busy_ids: Vec<u64> = (0..2)
            .map(|i| {
                let ticket = engine.submit(Request::new(0, cloud(i))).expect("admitted");
                ticket.wait().expect("busy requests complete").request_id
            })
            .collect();
        let doomed: Vec<_> = (0..12)
            .map(|i| {
                engine
                    .submit(Request::new(0, cloud(100 + i)).with_deadline(Duration::ZERO))
                    .expect("admitted")
            })
            .collect();
        let doomed_ids: Vec<u64> = doomed
            .into_iter()
            .map(|t| {
                let id = t.id();
                match t.wait() {
                    Err(ServeError::DeadlineExpired { .. }) => id,
                    other => panic!("expected DeadlineExpired, got {other:?}"),
                }
            })
            .collect();
        engine.shutdown();
        (doomed_ids, busy_ids)
    });

    // The automatic trigger must have written the dump — no manual render.
    let raw = std::fs::read_to_string(&dump_path).expect("storm must dump flightrec.json");
    let doc = parse(&raw).expect("dump is well-formed JSON");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("edgepc-flightrec")
    );
    assert_eq!(doc.get("schema_version").and_then(Value::as_f64), Some(1.0));
    assert_eq!(
        doc.get("reason").and_then(Value::as_str),
        Some("deadline_miss_burst")
    );

    let by_trace = events_by_trace(&doc);

    // The dump is a snapshot taken the instant the burst threshold (8)
    // tripped, so culls after that instant are legitimately absent. At
    // least the triggering eight must be there, each with the full
    // timeline: admitted, then culled — and never executed.
    let culled_in_dump: Vec<u64> = doomed_ids
        .iter()
        .copied()
        .filter(|id| {
            by_trace
                .get(id)
                .is_some_and(|k| k.contains(&"culled".to_string()))
        })
        .collect();
    assert!(
        culled_in_dump.len() >= 8,
        "the triggering burst must be in the dump: {culled_in_dump:?}"
    );
    for id in &culled_in_dump {
        let kinds = by_trace.get(id).expect("culled trace present in dump");
        assert!(
            kinds.contains(&"enqueued".to_string()),
            "trace {id}: {kinds:?}"
        );
        assert!(
            !kinds.contains(&"done".to_string()),
            "trace {id}: {kinds:?}"
        );
    }

    // Completed requests that landed in the window have the full segment
    // sequence, in causal order.
    for id in &busy_ids {
        let kinds = by_trace.get(id).expect("completed trace present in dump");
        let pos = |k: &str| {
            kinds
                .iter()
                .position(|x| x == k)
                .unwrap_or_else(|| panic!("trace {id}: missing {k} in {kinds:?}"))
        };
        assert!(
            pos("enqueued") < pos("batch_formed"),
            "trace {id}: {kinds:?}"
        );
        assert!(
            pos("batch_formed") < pos("exec_begin"),
            "trace {id}: {kinds:?}"
        );
        assert!(pos("exec_begin") < pos("done"), "trace {id}: {kinds:?}");
    }

    // Span timelines ride along: each completed request retained its span
    // tree (warmup), so the dump's spans section attributes real spans
    // (serve.exec and the model-internal stages) to those trace ids.
    let spans = doc.get("spans").expect("spans").as_arr().expect("array");
    for id in &busy_ids {
        let named: Vec<&str> = spans
            .iter()
            .filter(|s| s.get("trace").and_then(Value::as_f64) == Some(*id as f64))
            .filter_map(|s| s.get("name").and_then(Value::as_str))
            .collect();
        assert!(
            named.contains(&"serve.exec"),
            "trace {id} span timeline: {named:?}"
        );
    }
    // Culled requests never executed — no exec span may claim them.
    for id in &doomed_ids {
        assert!(
            !spans
                .iter()
                .filter(|s| s.get("trace").and_then(Value::as_f64) == Some(*id as f64))
                .any(|s| s.get("name").and_then(Value::as_str) == Some("serve.exec")),
            "culled trace {id} must not have an exec span"
        );
    }
}

#[test]
fn manual_render_works_without_a_dump_path() {
    let registry = Arc::new(Registry::new());
    with_registry(registry.clone(), || {
        let engine = Engine::new(EngineConfig::new(1), vec![ModelSpec::pointnetpp_tiny(4)]);
        let ticket = engine.submit(Request::new(0, cloud(7))).expect("admitted");
        let id = ticket.wait().expect("completed").request_id;
        let doc = parse(&engine.flightrec_json("manual")).expect("valid");
        assert_eq!(doc.get("reason").and_then(Value::as_str), Some("manual"));
        let kinds = events_by_trace(&doc).remove(&id).expect("trace present");
        assert!(kinds.contains(&"done".to_string()));
        engine.shutdown();
    });
}
