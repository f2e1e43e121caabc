//! The canonical benchmark scenario set, at the paper's configurations.
//!
//! Fifteen scenarios cover the pipeline bottom-up — samplers, the radix
//! structurization sort, searchers, and the blocked, fused and
//! gather-fused matmul kernels in isolation, then full model forwards
//! both eager and through the compiled `edgepc-ir` plans — at Table 1
//! scales, so the committed record tracks exactly the operating points
//! the paper reports. Inputs come from the same workload datasets the
//! figure harnesses use (W2's scannet-like 8192-point scene, W3's
//! modelnet-like 1024-point object).
//!
//! Each body builds its inputs and runs once; building the scenario
//! *list* costs nothing.

use edgepc::Workload;
use edgepc_geom::{OpCounts, PointCloud};
use edgepc_models::dgcnn::feature_knn;
use edgepc_models::{
    price_stages, CompiledDgcnn, CompiledPointNetPp, DgcnnClassifier, DgcnnConfig, ExecState,
    PipelineStrategy, PointNetPpConfig, PointNetPpSeg, StageRecord,
};
use edgepc_morton::Structurizer;
use edgepc_neighbor::{BruteKnn, MortonWindowSearcher, NeighborSearcher};
use edgepc_nn::{fused_linear, PackedPanels, RowSource, Tensor2, EMPTY_SLOT};
use edgepc_sample::{FarthestPointSampler, MortonSampler, Sampler};
use edgepc_sim::{EnergyModel, ExecMode, PowerState, StageKind, XavierModel};

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

/// Publishes a compiled forward's arena (`arena_len` floats) as the
/// scenario's `arena_bytes`.
fn record_arena(arena_len: usize) {
    edgepc_trace::current_registry().set_gauge(crate::runner::ARENA_GAUGE, (arena_len * 4) as f64);
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

/// `QUERIES` evenly spaced point indices of `cloud`: the standalone
/// search scenarios' queries.
fn query_positions(cloud: &PointCloud) -> Vec<usize> {
    (0..cloud.len()).step_by(cloud.len() / QUERIES).collect()
}

/// The fifteen canonical scenarios, in pipeline order.
pub fn paper_scenarios() -> Vec<Scenario> {
    let mut scenarios = vec![
        // --- Samplers (paper Sec. 5.1): 8192 -> 1024, W2's scene. ---
        Scenario::new(format!("sample.fps.n8192.s{SAMPLES}"), 8192, || {
            let r = FarthestPointSampler::new().sample(&cloud_for(Workload::W2), SAMPLES);
            (r.ops, priced(StageKind::Sample, r.ops, false))
        }),
        Scenario::new(format!("sample.morton.n8192.s{SAMPLES}"), 8192, || {
            let r = MortonSampler::paper_default().sample(&cloud_for(Workload::W2), SAMPLES);
            (r.ops, priced(StageKind::Sample, r.ops, true))
        }),
        // --- Structurization sort (Sec. 4.1, Algo. 1 line 10): the radix
        // path in isolation — no sampling pick, no audit — at W2 scale. ---
        Scenario::new("sort.radix.n8192", 8192, || {
            let ops = Structurizer::paper_default()
                .structurize(&cloud_for(Workload::W2))
                .ops();
            (ops, priced(StageKind::Sample, ops, true))
        }),
        // --- Neighbor search (paper Sec. 5.2): 2048 queries, k = 32. ---
        Scenario::new(format!("search.knn.n8192.q{QUERIES}.k{K}"), 8192, || {
            let cloud = cloud_for(Workload::W2);
            let r = BruteKnn::new().search(&cloud, &query_positions(&cloud), K);
            (r.ops, priced(StageKind::NeighborSearch, r.ops, false))
        }),
        Scenario::new(
            format!("search.window.w{WINDOW}.n8192.q{QUERIES}.k{K}"),
            8192,
            || {
                let cloud = cloud_for(Workload::W2);
                let s = Structurizer::paper_default().structurize(&cloud);
                let r = MortonWindowSearcher::new(WINDOW, 10).search_structurized(
                    &s,
                    &query_positions(&cloud),
                    K,
                );
                (r.ops, priced(StageKind::NeighborSearch, r.ops, true))
            },
        ),
        // --- DGCNN's feature-space k-NN (Sec. 5.2.3) at the paper
        // classifier's ec3 shape: 1024 points, 64 channels, k = 20. ---
        Scenario::new("search.featknn.n1024.c64.k20", 1024, || {
            let (graph, ops) = feature_knn(&fill_tensor(1024, 64, 0xfea7), 20);
            assert_eq!(graph.len(), 1024 * 20);
            (ops, priced(StageKind::NeighborSearch, ops, false))
        }),
        // --- Blocked matmul (the shifted bottleneck of Sec. 5.4): an SA1-
        // shaped shared-MLP product, (n*k) x C times C x C'. ---
        Scenario::new("nn.matmul.m4096.k64.n64", 4096, || {
            let c = fill_tensor(4096, 64, 0xb10c).matmul(&fill_tensor(64, 64, 0x9a57));
            // Keep the result observable so the multiply cannot be
            // optimized away.
            assert!(c.norm().is_finite());
            let ops = OpCounts {
                mac: (4096 * 64 * 64) as u64,
                seq_rounds: 1,
                ..OpCounts::ZERO
            };
            (ops, priced(StageKind::FeatureCompute, ops, false))
        }),
        // --- Fused MLP kernel (the IR scheduler's single-pass matmul + bias
        // + ReLU with a prepacked weight) at the same SA1 shape, against
        // the eager matmul scenario above. ---
        Scenario::new("nn.fused_mlp.m4096.k64.n64", 4096, || {
            let w = fill_tensor(64, 64, 0x9a57);
            let bias: Vec<f32> = (0..64).map(|i| i as f32 / 64.0 - 0.5).collect();
            let mut out = vec![0.0f32; 4096 * 64];
            fused_linear(
                &RowSource::Dense(fill_tensor(4096, 64, 0xb10c).as_slice()),
                4096,
                &w,
                Some(&PackedPanels::pack(&w)),
                Some(&bias),
                true,
                &mut out,
            );
            assert!(out[0].is_finite());
            let ops = OpCounts {
                mac: (4096 * 64 * 64) as u64,
                seq_rounds: 1,
                ..OpCounts::ZERO
            };
            (ops, priced(StageKind::FeatureCompute, ops, false))
        }),
    ];

    // --- Gather-fused first MLP layer, the path the compiled models spend
    // their time in: SA2's shape, 256 groups x 32 neighbors gathered from
    // the 1024 x 64 SA1 output (`RowSource::SaGroup`, row width 64 + 3),
    // staged tile by tile into the prepacked panels. ---
    {
        const POINTS: usize = 1024;
        const C: usize = 64;
        const ROWS: usize = 8192;
        const N: usize = 64;
        scenarios.push(Scenario::new(
            format!("nn.fused_gather.sa.m{ROWS}.k{}.n{N}", C + 3),
            ROWS,
            || {
                let w = fill_tensor(C + 3, N, 0x9a57);
                // A fixed scatter over the source points with every 16th
                // slot unfilled, as a short ball query leaves it.
                let idx: Vec<usize> = (0..ROWS)
                    .map(|r| match r % 16 {
                        15 => EMPTY_SLOT,
                        _ => (r * 389) % POINTS,
                    })
                    .collect();
                let bias: Vec<f32> = (0..N).map(|i| i as f32 / N as f32 - 0.5).collect();
                let mut out = vec![0.0f32; ROWS * N];
                fused_linear(
                    &RowSource::SaGroup {
                        feats: fill_tensor(POINTS, C, 0xb10c).as_slice(),
                        c: C,
                        idx: &idx,
                        rel: fill_tensor(ROWS, 3, 0x4e1).as_slice(),
                        start: None,
                    },
                    ROWS,
                    &w,
                    Some(&PackedPanels::pack(&w)),
                    Some(&bias),
                    true,
                    &mut out,
                );
                assert!(out[0].is_finite());
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
        scenarios.push(Scenario::new(
            format!("model.pointnetpp.{variant}.n8192"),
            8192,
            move || {
                let ds = Workload::W2.dataset(0x0edc ^ 8192);
                let config = PointNetPpConfig::paper(8192, strategy);
                let mut model = PointNetPpSeg::new(&config, ds.num_classes.max(2));
                let (_, records) = model.forward(&ds.test[0].cloud);
                (sum_ops(&records), priced_forward(&records, morton))
            },
        ));
    }

    // --- Compiled PointNet++: the same edgepc forward executed through
    // cached edgepc-ir plans (fused MLP chains, fused grouping gather,
    // arena reuse). Its op records carry the fused per-site
    // gathered_bytes, so the BENCH.json ops column shows the gather
    // reduction next to the eager counterpart. ---
    scenarios.push(Scenario::new(
        "model.compiled.pointnetpp.n8192",
        8192,
        || {
            let ds = Workload::W2.dataset(0x0edc ^ 8192);
            let config =
                PointNetPpConfig::paper(8192, PipelineStrategy::edgepc_layers(4, 1, WINDOW));
            let model = PointNetPpSeg::new(&config, ds.num_classes.max(2));
            let compiled = CompiledPointNetPp::compile(&model, 8192);
            record_arena(compiled.arena_len());
            let (_, records) = compiled.run(&ds.test[0].cloud, &mut ExecState::new());
            (sum_ops(&records), priced_forward(&records, true))
        },
    ));

    // --- Full DGCNN forwards (W3 shape: 1024-point ModelNet object). ---
    for (variant, strategy) in [
        ("base", PipelineStrategy::baseline_dgcnn(4)),
        ("edgepc", PipelineStrategy::edgepc_dgcnn(4, 4 * 20)),
    ] {
        let morton = variant == "edgepc";
        scenarios.push(Scenario::new(
            format!("model.dgcnn.{variant}.n1024"),
            1024,
            move || {
                let ds = Workload::W3.dataset(0x0edc ^ 1024);
                let mut model =
                    DgcnnClassifier::new(&DgcnnConfig::paper(strategy), ds.num_classes.max(2));
                let (_, records) = model.forward(&ds.test[0].cloud);
                (sum_ops(&records), priced_forward(&records, morton))
            },
        ));
    }

    // --- Compiled DGCNN: the edgepc classifier through its cached plans. ---
    scenarios.push(Scenario::new("model.compiled.dgcnn.n1024", 1024, || {
        let ds = Workload::W3.dataset(0x0edc ^ 1024);
        let config = DgcnnConfig::paper(PipelineStrategy::edgepc_dgcnn(4, 4 * 20));
        let model = DgcnnClassifier::new(&config, ds.num_classes.max(2));
        let compiled = CompiledDgcnn::classifier(&model, 1024);
        record_arena(compiled.arena_len());
        let (_, records) = compiled.run(&ds.test[0].cloud, &mut ExecState::new());
        (sum_ops(&records), priced_forward(&records, true))
    }));

    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_set_is_stable_and_unique() {
        // Construction must be cheap (bodies run later) and ids stable:
        // the BENCH.json gate diffs rows keyed on them.
        let scenarios = paper_scenarios();
        let ids: Vec<&str> = scenarios.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "sample.fps.n8192.s1024",
                "sample.morton.n8192.s1024",
                "sort.radix.n8192",
                "search.knn.n8192.q2048.k32",
                "search.window.w128.n8192.q2048.k32",
                "search.featknn.n1024.c64.k20",
                "nn.matmul.m4096.k64.n64",
                "nn.fused_mlp.m4096.k64.n64",
                "nn.fused_gather.sa.m8192.k67.n64",
                "model.pointnetpp.base.n8192",
                "model.pointnetpp.edgepc.n8192",
                "model.compiled.pointnetpp.n8192",
                "model.dgcnn.base.n1024",
                "model.dgcnn.edgepc.n1024",
                "model.compiled.dgcnn.n1024",
            ]
        );
        for s in &scenarios {
            assert!([8192, 4096, 1024].contains(&s.points));
        }
    }
}
