//! Randomized tests for the model crates: arbitrary (small) network
//! shapes and strategy mixes always produce well-formed outputs, records,
//! and gradients (seeded-random cases; the std-only replacement for the
//! former proptest suite, same properties).

use edgepc_geom::rng::StdRng;
use edgepc_geom::{Point3, PointCloud};
use edgepc_models::{
    DgcnnClassifier, DgcnnConfig, DgcnnSeg, PipelineStrategy, PointNetPpConfig, PointNetPpSeg,
    SaLevelSpec,
};
use edgepc_nn::{loss, Params, Tensor2};
use edgepc_sim::StageKind;

const CASES: usize = 12;

fn arb_cloud(rng: &mut StdRng, n: usize) -> PointCloud {
    (0..n)
        .map(|_| {
            Point3::new(
                rng.gen_range(0.0f32..4.0),
                rng.gen_range(0.0f32..4.0),
                rng.gen_range(0.0f32..4.0),
            )
        })
        .collect()
}

fn arb_strategy(rng: &mut StdRng) -> PipelineStrategy {
    match rng.gen_range(0usize..4) {
        0 => PipelineStrategy::baseline(),
        1 => PipelineStrategy::baseline_exact(),
        2 => PipelineStrategy::edgepc_pointnetpp(2, 16),
        _ => PipelineStrategy::edgepc_layers(2, 2, 12),
    }
}

#[test]
fn pointnetpp_forward_is_well_formed() {
    let mut rng = StdRng::seed_from_u64(0x6d_0001);
    for _ in 0..CASES {
        let cloud = arb_cloud(&mut rng, 96);
        let strategy = arb_strategy(&mut rng);
        let classes = rng.gen_range(2usize..5);
        let w1 = rng.gen_range(4usize..10);
        let w2 = rng.gen_range(8usize..14);
        let config = PointNetPpConfig {
            levels: vec![
                SaLevelSpec {
                    n_points: 24,
                    k: 4,
                    mlp_widths: vec![w1],
                },
                SaLevelSpec {
                    n_points: 8,
                    k: 3,
                    mlp_widths: vec![w2],
                },
            ],
            fp_widths: vec![vec![w1 + 2], vec![w1]],
            head_widths: vec![8],
            strategy,
        };
        let mut model = PointNetPpSeg::new(&config, classes);
        let (logits, records) = model.forward(&cloud);
        assert_eq!((logits.rows(), logits.cols()), (96, classes));
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
        // Records cover all stage kinds.
        for kind in [
            StageKind::Sample,
            StageKind::NeighborSearch,
            StageKind::Grouping,
            StageKind::FeatureCompute,
        ] {
            assert!(
                records.iter().any(|r| r.kind == kind),
                "missing {kind} record"
            );
        }
        // Backward runs and produces finite parameter gradients.
        let targets: Vec<u32> = (0..96).map(|i| (i % classes) as u32).collect();
        let (_, d) = loss::softmax_cross_entropy(&logits, &targets);
        model.zero_grads();
        model.backward(&d);
        model.visit_params(&mut |_, g| {
            assert!(g.iter().all(|v| v.is_finite()), "non-finite gradient");
        });
    }
}

#[test]
fn dgcnn_variants_are_well_formed() {
    let mut rng = StdRng::seed_from_u64(0x6d_0002);
    for _ in 0..CASES {
        let cloud = arb_cloud(&mut rng, 64);
        let modules = rng.gen_range(2usize..4);
        let classes = rng.gen_range(2usize..4);
        let edgepc = rng.next_u64() & 1 == 1;
        let strategy = if edgepc {
            PipelineStrategy::edgepc_dgcnn(modules, 12)
        } else {
            PipelineStrategy::baseline_dgcnn(modules)
        };
        let config = DgcnnConfig {
            k: 4,
            ec_widths: (0..modules).map(|i| vec![6 + 2 * i]).collect(),
            head_widths: vec![8],
            strategy,
        };
        let mut cls = DgcnnClassifier::new(&config, classes);
        let (logits, _) = cls.forward(&cloud);
        assert_eq!((logits.rows(), logits.cols()), (1, classes));
        let (_, d) = loss::softmax_cross_entropy(&logits, &[0]);
        cls.zero_grads();
        cls.backward(&d);

        let mut seg = DgcnnSeg::new(&config, classes);
        let (logits, _) = seg.forward(&cloud);
        assert_eq!((logits.rows(), logits.cols()), (64, classes));
        let targets: Vec<u32> = (0..64).map(|i| (i % classes) as u32).collect();
        let (_, d) = loss::softmax_cross_entropy(&logits, &targets);
        seg.zero_grads();
        seg.backward(&d);
    }
}

#[test]
fn strategies_resolve_for_any_module_index() {
    let mut rng = StdRng::seed_from_u64(0x6d_0003);
    for _ in 0..CASES {
        let depth = rng.gen_range(1usize..6);
        let window = rng.gen_range(8usize..64);
        let idx = rng.gen_range(0usize..16);
        let s = PipelineStrategy::edgepc_pointnetpp(depth, window);
        // Accessors never panic for any index (they repeat the last entry).
        let _ = s.sample_at(idx);
        let _ = s.search_at(idx);
        let _ = s.upsample_at(idx);
        let l = PipelineStrategy::edgepc_layers(depth, depth.min(1 + idx % depth.max(1)), window);
        let _ = l.sample_at(idx);
    }
}

#[test]
fn logits_change_when_strategy_changes_selection() {
    let mut rng = StdRng::seed_from_u64(0x6d_0004);
    for _ in 0..CASES {
        // Different neighbor selections must actually reach the output:
        // baseline vs degenerate-window logits differ (same seeds/weights).
        let cloud = arb_cloud(&mut rng, 96);
        let mk = |strategy| {
            let config = PointNetPpConfig::tiny(2, strategy);
            PointNetPpSeg::new(&config, 2)
        };
        let (a, _) = mk(PipelineStrategy::baseline_exact()).forward(&cloud);
        let (b, _) = mk(PipelineStrategy::edgepc_pointnetpp(2, 8)).forward(&cloud);
        let diff: f32 = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1e-6, "approximation had no effect on the output");
    }
}

#[test]
fn tensor_shapes_documented_in_paper_hold() {
    // The grouped matrix of an SA module is (n*k) x (C+3) and pools to
    // n x C' — assert through the public output shapes at paper ratios.
    let cloud: PointCloud = (0..256)
        .map(|i| Point3::new((i % 16) as f32, ((i / 16) % 16) as f32, (i / 256) as f32))
        .collect();
    let config = PointNetPpConfig {
        levels: vec![SaLevelSpec {
            n_points: 32,
            k: 8,
            mlp_widths: vec![16],
        }],
        fp_widths: vec![vec![12]],
        head_widths: vec![8],
        strategy: PipelineStrategy::baseline_exact(),
    };
    let mut model = PointNetPpSeg::new(&config, 3);
    let (logits, records) = model.forward(&cloud);
    assert_eq!(logits.rows(), 256);
    // Grouping moved (n*k)(C+3) floats.
    let group = records
        .iter()
        .find(|r| r.kind == StageKind::Grouping)
        .unwrap();
    assert_eq!(group.ops.gathered_bytes, (32 * 8 * 6 * 4) as u64);
    let _ = Tensor2::zeros(1, 1); // keep the nn import exercised
}
