//! Cross-crate integration: the retraining story (paper Sec. 5.3) on every
//! task family, at unit-test scale.

use edgepc::prelude::*;
use edgepc_models::trainer::{train_dgcnn_classifier, train_dgcnn_seg, train_pointnetpp_seg};

#[test]
fn dgcnn_classifier_trains_with_edgepc_graphs() {
    let ds = modelnet_like(&DatasetConfig {
        classes: 2,
        train_per_class: 4,
        test_per_class: 2,
        points_per_cloud: Some(128),
        seed: 21,
    });
    let mut model =
        DgcnnClassifier::new(&DgcnnConfig::tiny(PipelineStrategy::edgepc_dgcnn(3, 24)), 2);
    let rep = train_dgcnn_classifier(&mut model, &ds, 10, 0.002);
    assert!(
        rep.epoch_losses.last().unwrap() < rep.epoch_losses.first().unwrap(),
        "loss should fall: {:?}",
        rep.epoch_losses
    );
    assert!(rep.test_accuracy >= 0.5, "accuracy {}", rep.test_accuracy);
}

#[test]
fn dgcnn_segmenter_trains_on_part_labels() {
    let ds = shapenet_like(&DatasetConfig {
        classes: 2,
        train_per_class: 3,
        test_per_class: 1,
        points_per_cloud: Some(128),
        seed: 22,
    });
    let mut model = DgcnnSeg::new(
        &DgcnnConfig::tiny(PipelineStrategy::edgepc_dgcnn(3, 24)),
        ds.num_classes,
    );
    let rep = train_dgcnn_seg(&mut model, &ds, 6, 0.01);
    // Parts are 50/25/25; beating the majority class shows real learning.
    assert!(rep.test_accuracy > 0.55, "accuracy {}", rep.test_accuracy);
}

#[test]
fn pointnetpp_trains_under_both_strategy_sets() {
    let ds = s3dis_like(&DatasetConfig {
        classes: 1,
        train_per_class: 3,
        test_per_class: 2,
        points_per_cloud: Some(256),
        seed: 23,
    });
    for (label, strategy) in [
        ("baseline", PipelineStrategy::baseline_exact()),
        ("edgepc", PipelineStrategy::edgepc_pointnetpp(2, 24)),
    ] {
        let mut model = PointNetPpSeg::new(&PointNetPpConfig::tiny(6, strategy), ds.num_classes);
        let rep = train_pointnetpp_seg(&mut model, &ds, 6, 0.005);
        assert!(
            rep.epoch_losses.last().unwrap() < rep.epoch_losses.first().unwrap(),
            "{label}: loss should fall: {:?}",
            rep.epoch_losses
        );
        assert!(
            rep.test_accuracy > 1.0 / 6.0,
            "{label}: accuracy {} below chance",
            rep.test_accuracy
        );
    }
}

#[test]
fn retraining_closes_the_transplant_gap() {
    // The Sec. 5.3 story in one test: approximation without retraining
    // loses accuracy relative to the retrained EdgePC model.
    let ds = modelnet_like(&DatasetConfig {
        classes: 3,
        train_per_class: 6,
        test_per_class: 3,
        points_per_cloud: Some(128),
        seed: 24,
    });
    let mut baseline =
        DgcnnClassifier::new(&DgcnnConfig::tiny(PipelineStrategy::baseline_dgcnn(3)), 3);
    let base_rep = train_dgcnn_classifier(&mut baseline, &ds, 16, 0.002);

    // Transplant baseline weights into an approximate-graph model.
    let mut stash: Vec<Vec<f32>> = Vec::new();
    baseline.visit_params(&mut |p, _| stash.push(p.to_vec()));
    let mut transplanted =
        DgcnnClassifier::new(&DgcnnConfig::tiny(PipelineStrategy::edgepc_dgcnn(3, 16)), 3);
    let mut it = stash.into_iter();
    transplanted.visit_params(&mut |p, _| p.copy_from_slice(&it.next().unwrap()));
    let transplant_acc = edgepc_models::trainer::eval_dgcnn_classifier(&mut transplanted, &ds);

    // Retrained EdgePC model.
    let mut retrained =
        DgcnnClassifier::new(&DgcnnConfig::tiny(PipelineStrategy::edgepc_dgcnn(3, 16)), 3);
    let edge_rep = train_dgcnn_classifier(&mut retrained, &ds, 16, 0.002);

    assert!(
        edge_rep.test_accuracy >= transplant_acc,
        "retrained {} must not trail transplanted {}",
        edge_rep.test_accuracy,
        transplant_acc
    );
    assert!(
        edge_rep.test_accuracy >= base_rep.test_accuracy - 0.25,
        "retrained {} too far below baseline {}",
        edge_rep.test_accuracy,
        base_rep.test_accuracy
    );
}

/// FNV-1a over the bit patterns of `values`, folded into `h`.
fn fold_bits(mut h: u64, values: &[f32]) -> u64 {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn training_steps_are_bit_pinned() {
    // A few Adam steps on seeded batches, hashed bit for bit: every
    // parameter (in `visit_params` order) and the final logits. Any
    // change to the eager forward, backward or optimizer arithmetic
    // moves these constants.
    use edgepc_nn::{loss, Adam, Optimizer};

    let seg = s3dis_like(&DatasetConfig {
        classes: 1,
        train_per_class: 2,
        test_per_class: 0,
        points_per_cloud: Some(128),
        seed: 31,
    });
    let mut pnpp = PointNetPpSeg::new(
        &PointNetPpConfig::tiny(6, PipelineStrategy::edgepc_pointnetpp(2, 16)),
        seg.num_classes,
    );
    let mut opt = Adam::new(0.01);
    for _ in 0..2 {
        for sample in &seg.train {
            let (logits, _) = pnpp.forward(&sample.cloud);
            let (_, d) = loss::softmax_cross_entropy(&logits, sample.cloud.labels().unwrap());
            pnpp.zero_grads();
            pnpp.backward(&d);
            opt.step(&mut pnpp);
        }
    }
    let mut h = FNV_OFFSET;
    pnpp.visit_params(&mut |p, _| h = fold_bits(h, p));
    let (logits, _) = pnpp.forward(&seg.train[0].cloud);
    h = fold_bits(h, logits.as_slice());
    assert_eq!(
        h, 0x3418_b1ee_cb7f_8057,
        "PointNet++ seg training bits moved: {h:#018x}"
    );

    let cls = modelnet_like(&DatasetConfig {
        classes: 2,
        train_per_class: 2,
        test_per_class: 0,
        points_per_cloud: Some(96),
        seed: 32,
    });
    let mut dgcnn =
        DgcnnClassifier::new(&DgcnnConfig::tiny(PipelineStrategy::edgepc_dgcnn(3, 24)), 2);
    let mut opt = Adam::new(0.01);
    for _ in 0..2 {
        for sample in &cls.train {
            let (logits, _) = dgcnn.forward(&sample.cloud);
            let (_, d) = loss::softmax_cross_entropy(&logits, &[sample.class.unwrap()]);
            dgcnn.zero_grads();
            dgcnn.backward(&d);
            opt.step(&mut dgcnn);
        }
    }
    let mut h = FNV_OFFSET;
    dgcnn.visit_params(&mut |p, _| h = fold_bits(h, p));
    let (logits, _) = dgcnn.forward(&cls.train[0].cloud);
    h = fold_bits(h, logits.as_slice());
    assert_eq!(
        h, 0xa68c_c91d_1875_2b3c,
        "DGCNN cls training bits moved: {h:#018x}"
    );
}
