//! End-to-end observability: a real `PointNetPpSeg::forward` run captured
//! under a local trace registry exports a Chrome `trace_event` document
//! that parses and shows the sampler / neighbor-search spans nested inside
//! their pipeline stages; and every model forward, eager or compiled,
//! opens one span per stage record, so the latency breakdowns cover the
//! whole stage ledger.

use edgepc::prelude::*;
use edgepc_models::{CompiledDgcnn, CompiledPointNetPp, ExecState};
use edgepc_trace::{json, SpanData};

fn bunny_cloud() -> PointCloud {
    edgepc_data::bunny_with_points(512, 9)
}

fn forward_spans() -> Vec<SpanData> {
    let cloud = bunny_cloud();
    let config = PointNetPpConfig::tiny(3, PipelineStrategy::edgepc_pointnetpp(2, 16));
    let (_, spans) = edgepc_trace::with_local(|| {
        let mut model = PointNetPpSeg::new(&config, 3);
        model.forward(&cloud)
    });
    spans
}

fn find<'a>(spans: &'a [SpanData], name: &str) -> &'a SpanData {
    spans
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no span named {name}"))
}

#[test]
fn forward_emits_nested_sampler_and_search_spans() {
    let spans = forward_spans();

    // The outer model span encloses every stage span of the run.
    let forward = find(&spans, "pointnetpp.forward");
    assert_eq!(forward.kind, "model");
    for s in &spans {
        assert!(forward.encloses(s), "{} escapes the forward span", s.name);
    }

    // The EdgePC strategy puts the Morton sampler on sa1; the library-level
    // sampler span nests inside the stage span.
    let stage = find(&spans, "sa1.sample(morton)");
    let sampler = find(&spans, "morton.sample");
    assert!(
        stage.encloses(sampler),
        "sampler span must nest in its stage"
    );
    assert!(stage.depth < sampler.depth);

    // Same for the neighbor search: sa1 uses the Morton window.
    let search_stage = find(&spans, "sa1.search(window)");
    let searcher = find(&spans, "window.search");
    assert!(search_stage.encloses(searcher));

    // Stage spans carry both measured ops and the modeled Xavier cost.
    assert!(stage.ops.morton_encodes > 0);
    assert!(stage.modeled_ms.unwrap() > 0.0);
    assert!(stage.modeled_mj.unwrap() > 0.0);
}

#[test]
fn chrome_trace_export_parses_with_nested_events() {
    let spans = forward_spans();
    let doc = edgepc_trace::export::chrome_trace_json(&spans);

    let v = json::parse(&doc).expect("chrome trace must be valid JSON");
    let events = v.as_arr().expect("trace_event document is an array");
    assert_eq!(events.len(), spans.len());

    let event = |name: &str| {
        events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
            .unwrap_or_else(|| panic!("no event named {name}"))
    };
    let range = |e: &json::Value| {
        let ts = e.get("ts").unwrap().as_f64().unwrap();
        let dur = e.get("dur").unwrap().as_f64().unwrap();
        (ts, ts + dur)
    };

    // The viewer recovers nesting from timestamp containment; check it on
    // the parsed document, not just the in-memory spans.
    let (fs, fe) = range(event("pointnetpp.forward"));
    for pair in [
        ("sa1.sample(morton)", "morton.sample"),
        ("sa1.search(window)", "window.search"),
    ] {
        let (outer_s, outer_e) = range(event(pair.0));
        let (inner_s, inner_e) = range(event(pair.1));
        assert!(fs <= outer_s && outer_e <= fe, "{} outside forward", pair.0);
        assert!(
            outer_s <= inner_s && inner_e <= outer_e,
            "{} outside {}",
            pair.1,
            pair.0
        );
    }

    // Complete events with op counts in args.
    for e in events {
        assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
        assert!(e
            .get("args")
            .unwrap()
            .get("ops")
            .unwrap()
            .get("mac")
            .is_some());
    }
    let sampled = event("sa1.sample(morton)");
    assert!(
        sampled
            .get("args")
            .unwrap()
            .get("modeled_ms")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0,
        "priced stage must export its modeled time"
    );
}

#[test]
fn registry_histograms_cover_stage_latencies() {
    let cloud = bunny_cloud();
    let config = PointNetPpConfig::tiny(3, PipelineStrategy::edgepc_pointnetpp(2, 16));
    let reg = std::sync::Arc::new(edgepc_trace::Registry::new());
    edgepc_trace::with_registry(reg.clone(), || {
        let mut model = PointNetPpSeg::new(&config, 3);
        for _ in 0..3 {
            let _ = model.forward(&cloud);
        }
    });
    let h = reg
        .histogram("sa1.sample(morton)")
        .expect("stage histogram recorded");
    assert_eq!(h.count(), 3);
    assert!(h.p50() <= h.p99());
}

/// The span kind label `observe::stage` gives each stage kind.
fn kind_label(kind: StageKind) -> &'static str {
    match kind {
        StageKind::Sample => "sample",
        StageKind::NeighborSearch => "search",
        StageKind::Grouping => "group",
        StageKind::FeatureCompute => "fc",
        StageKind::Other => "other",
    }
}

/// Span coverage of one forward's stage ledger. Records are made only by
/// `observe::stage`, which runs the stage's work inside a span of the
/// same name and kind, so the check is exact and timing-free:
///
/// * each record has exactly one span with its name and kind label,
///   carrying its op counts, inside the model's root span `root`;
/// * the ledger is complete: `expected` lists each module's stages in
///   order, as `(module, [stage, ..])`, and a record `sa1.sample(fps)`
///   counts as module `sa1`, stage `sample`.
fn assert_ledger_covered(
    root: &str,
    records: &[StageRecord],
    spans: &[SpanData],
    expected: &[(String, &[&str])],
) {
    let roots: Vec<&SpanData> = spans.iter().filter(|s| s.name == root).collect();
    assert_eq!(roots.len(), 1, "{root}: one root span");
    assert_eq!(roots[0].kind, "model", "{root}");
    for r in records {
        let label = kind_label(r.kind);
        let matching: Vec<&SpanData> = spans
            .iter()
            .filter(|s| s.name == r.name && s.kind == label)
            .collect();
        assert_eq!(
            matching.len(),
            1,
            "{root}: record {} ({label}) needs exactly one span",
            r.name
        );
        assert_eq!(matching[0].ops, r.ops, "{root}: {} span ops", r.name);
        assert!(roots[0].encloses(matching[0]), "{root}: {} escapes", r.name);
    }

    let ledger: Vec<(&str, &str)> = records
        .iter()
        .map(|r| {
            let (module, stage) = r.name.split_once('.').unwrap_or((&r.name, ""));
            (module, stage.split('(').next().unwrap_or(stage))
        })
        .collect();
    let want: Vec<(&str, &str)> = expected
        .iter()
        .flat_map(|(module, stages)| stages.iter().map(move |&st| (module.as_str(), st)))
        .collect();
    assert_eq!(ledger, want, "{root}: incomplete stage ledger");
}

/// PointNet++: every SA level samples, searches, groups and runs its
/// MLP; every FP level upsamples and runs its MLP; then the head.
fn pointnetpp_ledger(config: &PointNetPpConfig) -> Vec<(String, &'static [&'static str])> {
    let depth = config.levels.len();
    let sa = (1..=depth).map(|i| (format!("sa{i}"), &["sample", "search", "group", "fc"][..]));
    let fp = (1..=depth).map(|j| (format!("fp{j}"), &["upsample", "fc"][..]));
    let head = std::iter::once(("head".to_string(), &["fc"][..]));
    sa.chain(fp).chain(head).collect()
}

/// DGCNN: every EdgeConv module searches, groups and runs its linears;
/// then the head.
fn dgcnn_ledger(config: &DgcnnConfig) -> Vec<(String, &'static [&'static str])> {
    let ec =
        (1..=config.ec_widths.len()).map(|i| (format!("ec{i}"), &["search", "group", "fc"][..]));
    ec.chain(std::iter::once(("head".to_string(), &["fc"][..])))
        .collect()
}

#[test]
fn pointnetpp_forwards_cover_every_ledger_stage_with_a_span() {
    let cloud = bunny_cloud();
    for strategy in [
        PipelineStrategy::baseline(),
        PipelineStrategy::edgepc_pointnetpp(2, 16),
    ] {
        let config = PointNetPpConfig::tiny(3, strategy);
        let expected = pointnetpp_ledger(&config);
        let mut model = PointNetPpSeg::new(&config, 3);
        let ((_, records), spans) = edgepc_trace::with_local(|| model.forward(&cloud));
        assert_ledger_covered("pointnetpp.forward", &records, &spans, &expected);

        let compiled = CompiledPointNetPp::compile(&model, cloud.len());
        let mut state = ExecState::new();
        let ((_, records), spans) = edgepc_trace::with_local(|| compiled.run(&cloud, &mut state));
        assert_ledger_covered("pointnetpp.compiled", &records, &spans, &expected);
    }
}

#[test]
fn dgcnn_forwards_cover_every_ledger_stage_with_a_span() {
    let cloud = bunny_cloud();
    for strategy in [
        PipelineStrategy::baseline_dgcnn(3),
        PipelineStrategy::edgepc_dgcnn(3, 32),
    ] {
        let config = DgcnnConfig::tiny(strategy);
        let expected = dgcnn_ledger(&config);
        let mut state = ExecState::new();

        let mut cls = DgcnnClassifier::new(&config, 5);
        let ((_, records), spans) = edgepc_trace::with_local(|| cls.forward(&cloud));
        assert_ledger_covered("dgcnn_cls.forward", &records, &spans, &expected);
        let compiled = CompiledDgcnn::classifier(&cls, cloud.len());
        let ((_, records), spans) = edgepc_trace::with_local(|| compiled.run(&cloud, &mut state));
        assert_ledger_covered("dgcnn_cls.compiled", &records, &spans, &expected);

        let mut seg = DgcnnSeg::new(&config, 4);
        let ((_, records), spans) = edgepc_trace::with_local(|| seg.forward(&cloud));
        assert_ledger_covered("dgcnn_seg.forward", &records, &spans, &expected);
        let compiled = CompiledDgcnn::segmenter(&seg, cloud.len());
        let ((_, records), spans) = edgepc_trace::with_local(|| compiled.run(&cloud, &mut state));
        assert_ledger_covered("dgcnn_seg.compiled", &records, &spans, &expected);
    }
}
