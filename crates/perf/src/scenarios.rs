//! The canonical benchmark scenario set, at the paper's configurations.
//!
//! Fourteen scenarios cover the pipeline bottom-up — samplers, the radix
//! structurization sort, searchers, and the blocked, fused and
//! gather-fused matmul kernels in isolation, then full model forwards
//! both eager and through the compiled `edgepc-ir` plans — at Table 1
//! scales, so the committed baseline tracks exactly the operating points
//! the paper reports. Inputs come from the same workload datasets the
//! figure harnesses use (W2's scannet-like 8192-point scene, W3's
//! modelnet-like 1024-point object). A fifteenth scenario prices the
//! observer: what one served request costs the span registry while
//! other traces are live.
//!
//! Construction is lazy: datasets and models are built inside each
//! scenario's first run (always a warmup run under
//! [`RunnerConfig`](crate::RunnerConfig) defaults, so setup never lands
//! in a timed sample), which keeps building the scenario *list* free.

use std::sync::Arc;

use edgepc::Workload;
use edgepc_geom::{OpCounts, PointCloud};
use edgepc_models::{
    price_stages, CompiledDgcnn, CompiledPointNetPp, DgcnnClassifier, DgcnnConfig, ExecState,
    PipelineStrategy, PointNetPpConfig, PointNetPpSeg, StageRecord,
};
use edgepc_morton::{Structurized, Structurizer};
use edgepc_neighbor::{BruteKnn, MortonWindowSearcher, NeighborSearcher};
use edgepc_nn::{fused_linear, PackedPanels, RowSource, Tensor2, EMPTY_SLOT};
use edgepc_sample::{FarthestPointSampler, MortonSampler, Sampler};
use edgepc_sim::{EnergyModel, ExecMode, PowerState, StageKind, XavierModel};
use edgepc_trace::{next_trace_id, span_in, with_trace, Registry};

use crate::runner::{ModeledCost, Scenario};

/// Paper `k` for PointNet++-style neighbor search.
const K: usize = 32;
/// Paper design-point window: `W = 4k = 128`.
const WINDOW: usize = 4 * K;
/// Queries for the standalone search scenarios (the paper's first SA
/// level samples 8192 -> 1024; 2048 queries keeps brute-force k-NN
/// affordable while staying at paper scale).
const QUERIES: usize = 2048;
/// Sample size for the standalone sampler scenarios (first SA level).
const SAMPLES: usize = 1024;

/// Enables the online quality auditors at the rates the benchmark
/// observatory runs with: every sampler call, one in 16 search queries.
pub fn enable_default_auditing() {
    edgepc_sample::audit::set_sample_audit_stride(1);
    edgepc_neighbor::audit::set_search_audit_stride(16);
}

/// Disables the online quality auditors.
pub fn disable_auditing() {
    edgepc_sample::audit::set_sample_audit_stride(0);
    edgepc_neighbor::audit::set_search_audit_stride(0);
}

fn cloud_for(w: Workload) -> PointCloud {
    let ds = w.dataset(0x0edc ^ w.spec().points as u64);
    ds.test[0].cloud.clone()
}

fn priced(kind: StageKind, ops: OpCounts, morton: bool) -> Option<ModeledCost> {
    let device = XavierModel::jetson_agx_xavier();
    let ms = device.stage_time_ms(&ops, ExecMode::Pipeline);
    let state = PowerState {
        morton_approx: morton,
        ..PowerState::default()
    };
    let mj = EnergyModel::jetson_agx_xavier().energy_mj(ms, state);
    let _ = kind;
    Some(ModeledCost { ms, mj })
}

fn priced_forward(records: &[StageRecord], morton: bool) -> Option<ModeledCost> {
    let device = XavierModel::jetson_agx_xavier();
    let cost = price_stages(records, &device, false);
    let state = PowerState {
        morton_approx: morton,
        ..PowerState::default()
    };
    let mj = EnergyModel::jetson_agx_xavier().energy_mj(cost.total_ms(), state);
    Some(ModeledCost {
        ms: cost.total_ms(),
        mj,
    })
}

fn sum_ops(records: &[StageRecord]) -> OpCounts {
    records.iter().map(|r| r.ops).sum()
}

/// Deterministic pseudo-random tensor for the kernel scenarios.
fn fill_tensor(rows: usize, cols: usize, seed: u64) -> Tensor2 {
    let mut s = seed;
    Tensor2::from_vec(
        (0..rows * cols)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((s >> 40) as f32) / (1 << 24) as f32 - 0.5
            })
            .collect(),
        rows,
        cols,
    )
}

/// Spans a served `pointnetpp_tiny` request records (enqueue, exec and
/// the model's stages).
const REQUEST_SPANS: usize = 24;
/// Spans of other live traces the registry holds while
/// `trace.finish_trace` runs. The row must not depend on this number.
const PRELOAD_SPANS: usize = 50_000;
/// Requests per timed run of `trace.finish_trace`: its milliseconds per
/// run read as microseconds per request.
const REQUESTS_PER_RUN: usize = 1_000;

/// Records one request's worth of spans under `trace_id`.
fn record_request(reg: &Arc<Registry>, trace_id: u64) {
    with_trace(trace_id, || {
        for _ in 0..REQUEST_SPANS {
            drop(span_in(reg.clone(), "stage", "bench"));
        }
    });
}

/// The fifteen canonical scenarios, in pipeline order.
pub fn paper_scenarios() -> Vec<Scenario> {
    let mut scenarios = Vec::new();

    // --- Samplers (paper Sec. 5.1): 8192 -> 1024, W2's scene. ---
    {
        let mut cloud: Option<PointCloud> = None;
        scenarios.push(Scenario::new(
            format!("sample.fps.n8192.s{SAMPLES}"),
            8192,
            move || {
                let cloud = cloud.get_or_insert_with(|| cloud_for(Workload::W2));
                let r = FarthestPointSampler::new().sample(cloud, SAMPLES);
                (r.ops, priced(StageKind::Sample, r.ops, false))
            },
        ));
    }
    {
        let mut cloud: Option<PointCloud> = None;
        scenarios.push(Scenario::new(
            format!("sample.morton.n8192.s{SAMPLES}"),
            8192,
            move || {
                let cloud = cloud.get_or_insert_with(|| cloud_for(Workload::W2));
                let r = MortonSampler::paper_default().sample(cloud, SAMPLES);
                (r.ops, priced(StageKind::Sample, r.ops, true))
            },
        ));
    }

    // --- Structurization sort (Sec. 4.1, Algo. 1 line 10): the radix
    // path in isolation — no sampling pick, no audit — at W2 scale. ---
    {
        let mut cloud: Option<PointCloud> = None;
        scenarios.push(Scenario::new(
            "sort.radix.n8192".to_string(),
            8192,
            move || {
                let cloud = cloud.get_or_insert_with(|| cloud_for(Workload::W2));
                let s = Structurizer::paper_default().structurize(cloud);
                let ops = s.ops();
                (ops, priced(StageKind::Sample, ops, true))
            },
        ));
    }

    // --- Neighbor search (paper Sec. 5.2): 2048 queries, k = 32. ---
    {
        let mut state: Option<(PointCloud, Vec<usize>)> = None;
        scenarios.push(Scenario::new(
            format!("search.knn.n8192.q{QUERIES}.k{K}"),
            8192,
            move || {
                let (cloud, queries) = state.get_or_insert_with(|| {
                    let cloud = cloud_for(Workload::W2);
                    let queries = (0..cloud.len()).step_by(cloud.len() / QUERIES).collect();
                    (cloud, queries)
                });
                let r = BruteKnn::new().search(cloud, queries, K);
                (r.ops, priced(StageKind::NeighborSearch, r.ops, false))
            },
        ));
    }
    {
        let mut state: Option<(Structurized, Vec<usize>)> = None;
        scenarios.push(Scenario::new(
            format!("search.window.w{WINDOW}.n8192.q{QUERIES}.k{K}"),
            8192,
            move || {
                let (s, positions) = state.get_or_insert_with(|| {
                    let cloud = cloud_for(Workload::W2);
                    let positions = (0..cloud.len()).step_by(cloud.len() / QUERIES).collect();
                    (Structurizer::paper_default().structurize(&cloud), positions)
                });
                let r = MortonWindowSearcher::new(WINDOW, 10).search_structurized(s, positions, K);
                (r.ops, priced(StageKind::NeighborSearch, r.ops, true))
            },
        ));
    }

    // --- Blocked matmul (the shifted bottleneck of Sec. 5.4): an SA1-
    // shaped shared-MLP product, (n*k) x C times C x C'. ---
    {
        let mut state: Option<(Tensor2, Tensor2)> = None;
        scenarios.push(Scenario::new(
            "nn.matmul.m4096.k64.n64".to_string(),
            4096,
            move || {
                let (a, b) = state.get_or_insert_with(|| {
                    (fill_tensor(4096, 64, 0xb10c), fill_tensor(64, 64, 0x9a57))
                });
                let c = a.matmul(b);
                // Keep the result observable so the multiply cannot be
                // optimized away.
                assert!(c.norm().is_finite());
                let ops = OpCounts {
                    mac: (4096 * 64 * 64) as u64,
                    seq_rounds: 1,
                    ..OpCounts::ZERO
                };
                (ops, priced(StageKind::FeatureCompute, ops, false))
            },
        ));
    }

    // --- Fused MLP kernel (the IR scheduler's single-pass matmul + bias
    // + ReLU with a prepacked weight) at the same SA1 shape, against the
    // eager matmul scenario above. ---
    {
        struct FusedState {
            a: Tensor2,
            w: Tensor2,
            packed: PackedPanels,
            bias: Vec<f32>,
            out: Vec<f32>,
        }
        let mut state: Option<FusedState> = None;
        scenarios.push(Scenario::new(
            "nn.fused_mlp.m4096.k64.n64".to_string(),
            4096,
            move || {
                let s = state.get_or_insert_with(|| {
                    let w = fill_tensor(64, 64, 0x9a57);
                    let packed = PackedPanels::pack(&w);
                    FusedState {
                        a: fill_tensor(4096, 64, 0xb10c),
                        w,
                        packed,
                        bias: (0..64).map(|i| i as f32 / 64.0 - 0.5).collect(),
                        out: vec![0.0f32; 4096 * 64],
                    }
                });
                fused_linear(
                    &RowSource::Dense(s.a.as_slice()),
                    4096,
                    &s.w,
                    Some(&s.packed),
                    Some(&s.bias),
                    true,
                    &mut s.out,
                );
                assert!(s.out[0].is_finite());
                let ops = OpCounts {
                    mac: (4096 * 64 * 64) as u64,
                    seq_rounds: 1,
                    ..OpCounts::ZERO
                };
                (ops, priced(StageKind::FeatureCompute, ops, false))
            },
        ));
    }

    // --- Gather-fused first MLP layer, the path the compiled models spend
    // their time in: SA2's shape, 256 groups x 32 neighbors gathered from
    // the 1024 x 64 SA1 output (`RowSource::SaGroup`, row width 64 + 3),
    // staged tile by tile into the prepacked panels. ---
    {
        struct GatherState {
            feats: Tensor2,
            idx: Vec<usize>,
            rel: Vec<f32>,
            w: Tensor2,
            packed: PackedPanels,
            bias: Vec<f32>,
            out: Vec<f32>,
        }
        const POINTS: usize = 1024;
        const C: usize = 64;
        const ROWS: usize = 8192;
        const N: usize = 64;
        let mut state: Option<GatherState> = None;
        scenarios.push(Scenario::new(
            format!("nn.fused_gather.sa.m{ROWS}.k{}.n{N}", C + 3),
            ROWS,
            move || {
                let s = state.get_or_insert_with(|| {
                    let w = fill_tensor(C + 3, N, 0x9a57);
                    let packed = PackedPanels::pack(&w);
                    GatherState {
                        feats: fill_tensor(POINTS, C, 0xb10c),
                        // A fixed scatter over the source points with every
                        // 16th slot unfilled, as a short ball query leaves it.
                        idx: (0..ROWS)
                            .map(|r| match r % 16 {
                                15 => EMPTY_SLOT,
                                _ => (r * 389) % POINTS,
                            })
                            .collect(),
                        rel: fill_tensor(ROWS, 3, 0x4e1).into_vec(),
                        w,
                        packed,
                        bias: (0..N).map(|i| i as f32 / N as f32 - 0.5).collect(),
                        out: vec![0.0f32; ROWS * N],
                    }
                });
                fused_linear(
                    &RowSource::SaGroup {
                        feats: s.feats.as_slice(),
                        c: C,
                        idx: &s.idx,
                        rel: &s.rel,
                    },
                    ROWS,
                    &s.w,
                    Some(&s.packed),
                    Some(&s.bias),
                    true,
                    &mut s.out,
                );
                assert!(s.out[0].is_finite());
                let ops = OpCounts {
                    mac: (ROWS * (C + 3) * N) as u64,
                    // What the fused path streams per row: one 4-byte
                    // index and three relative coordinates.
                    gathered_bytes: (ROWS * (4 + 12)) as u64,
                    seq_rounds: 1,
                    ..OpCounts::ZERO
                };
                (ops, priced(StageKind::FeatureCompute, ops, false))
            },
        ));
    }

    // --- Full PointNet++ forwards (W2 shape: 8192-point ScanNet scene). ---
    for (variant, strategy) in [
        ("base", PipelineStrategy::baseline()),
        ("edgepc", PipelineStrategy::edgepc_layers(4, 1, WINDOW)),
    ] {
        let morton = variant == "edgepc";
        let mut state: Option<(PointNetPpSeg, PointCloud)> = None;
        let strategy = strategy.clone();
        scenarios.push(Scenario::new(
            format!("model.pointnetpp.{variant}.n8192"),
            8192,
            move || {
                let (model, cloud) = state.get_or_insert_with(|| {
                    let ds = Workload::W2.dataset(0x0edc ^ 8192);
                    let config = PointNetPpConfig::paper(8192, strategy.clone());
                    let model = PointNetPpSeg::new(&config, ds.num_classes.max(2));
                    (model, ds.test[0].cloud.clone())
                });
                let (_, records) = model.forward(cloud);
                (sum_ops(&records), priced_forward(&records, morton))
            },
        ));
    }

    // --- Compiled PointNet++: the same edgepc forward executed through
    // cached edgepc-ir plans (fused MLP chains, fused grouping gather,
    // arena reuse). Its op records carry the fused per-site
    // gathered_bytes, so the BENCH.json ops column shows the gather
    // reduction next to the eager counterpart. ---
    {
        let mut state: Option<(CompiledPointNetPp, ExecState, PointCloud)> = None;
        scenarios.push(Scenario::new(
            "model.compiled.pointnetpp.n8192".to_string(),
            8192,
            move || {
                let (compiled, exec, cloud) = state.get_or_insert_with(|| {
                    let ds = Workload::W2.dataset(0x0edc ^ 8192);
                    let config = PointNetPpConfig::paper(
                        8192,
                        PipelineStrategy::edgepc_layers(4, 1, WINDOW),
                    );
                    let model = PointNetPpSeg::new(&config, ds.num_classes.max(2));
                    (
                        CompiledPointNetPp::compile(&model, 8192),
                        ExecState::new(),
                        ds.test[0].cloud.clone(),
                    )
                });
                let (_, records) = compiled.run(cloud, exec);
                (sum_ops(&records), priced_forward(&records, true))
            },
        ));
    }

    // --- Full DGCNN forwards (W3 shape: 1024-point ModelNet object). ---
    for (variant, strategy) in [
        ("base", PipelineStrategy::baseline_dgcnn(4)),
        ("edgepc", PipelineStrategy::edgepc_dgcnn(4, 4 * 20)),
    ] {
        let morton = variant == "edgepc";
        let mut state: Option<(DgcnnClassifier, PointCloud)> = None;
        let strategy = strategy.clone();
        scenarios.push(Scenario::new(
            format!("model.dgcnn.{variant}.n1024"),
            1024,
            move || {
                let (model, cloud) = state.get_or_insert_with(|| {
                    let ds = Workload::W3.dataset(0x0edc ^ 1024);
                    let config = DgcnnConfig::paper(strategy.clone());
                    let model = DgcnnClassifier::new(&config, ds.num_classes.max(2));
                    (model, ds.test[0].cloud.clone())
                });
                let (_, records) = model.forward(cloud);
                (sum_ops(&records), priced_forward(&records, morton))
            },
        ));
    }

    // --- Compiled DGCNN: the edgepc classifier through its cached plans. ---
    {
        let mut state: Option<(CompiledDgcnn, ExecState, PointCloud)> = None;
        scenarios.push(Scenario::new(
            "model.compiled.dgcnn.n1024".to_string(),
            1024,
            move || {
                let (compiled, exec, cloud) = state.get_or_insert_with(|| {
                    let ds = Workload::W3.dataset(0x0edc ^ 1024);
                    let config = DgcnnConfig::paper(PipelineStrategy::edgepc_dgcnn(4, 4 * 20));
                    let model = DgcnnClassifier::new(&config, ds.num_classes.max(2));
                    (
                        CompiledDgcnn::classifier(&model, 1024),
                        ExecState::new(),
                        ds.test[0].cloud.clone(),
                    )
                });
                let (_, records) = compiled.run(cloud, exec);
                (sum_ops(&records), priced_forward(&records, true))
            },
        ));
    }

    // --- The observer (ROADMAP item 1): record a request's spans and
    // finish its trace as dropped, beside many other live traces. ---
    {
        let mut reg: Option<Arc<Registry>> = None;
        scenarios.push(Scenario::new("trace.finish_trace", 0, move || {
            let reg = reg.get_or_insert_with(|| {
                let reg = Arc::new(Registry::new());
                for _ in 0..PRELOAD_SPANS.div_ceil(REQUEST_SPANS) {
                    record_request(&reg, next_trace_id());
                }
                reg
            });
            for _ in 0..REQUESTS_PER_RUN {
                let id = next_trace_id();
                record_request(reg, id);
                reg.finish_trace(id, false);
            }
            (OpCounts::ZERO, None)
        }));
    }

    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_set_is_stable_and_unique() {
        // Construction must be cheap (lazy bodies) and ids stable: the
        // BENCH.json comparison is keyed on them.
        let scenarios = paper_scenarios();
        assert_eq!(scenarios.len(), 15);
        let ids: Vec<&str> = scenarios.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "sample.fps.n8192.s1024",
                "sample.morton.n8192.s1024",
                "sort.radix.n8192",
                "search.knn.n8192.q2048.k32",
                "search.window.w128.n8192.q2048.k32",
                "nn.matmul.m4096.k64.n64",
                "nn.fused_mlp.m4096.k64.n64",
                "nn.fused_gather.sa.m8192.k67.n64",
                "model.pointnetpp.base.n8192",
                "model.pointnetpp.edgepc.n8192",
                "model.compiled.pointnetpp.n8192",
                "model.dgcnn.base.n1024",
                "model.dgcnn.edgepc.n1024",
                "model.compiled.dgcnn.n1024",
                "trace.finish_trace",
            ]
        );
        // The registry scenario has no cloud.
        for s in &scenarios {
            assert!([8192, 4096, 1024, 0].contains(&s.points));
        }
    }
}
