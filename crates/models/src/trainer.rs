//! Training loops and accuracy evaluation for the retraining experiments
//! (paper Sec. 5.3 / Fig. 14a / Fig. 15b).
//!
//! The paper's key accuracy claim is that *retraining with the
//! approximations baked in* recovers most of the accuracy a pre-trained
//! model loses when the Morton approximations are dropped in. These
//! helpers train the reduced models on the synthetic datasets and report
//! classification / per-point accuracy.

use edgepc_data::{Dataset, Task};
use edgepc_nn::{loss, Adam, Optimizer, Params};

use crate::{DgcnnClassifier, DgcnnSeg, PointNetPpSeg};
use edgepc_geom::required;

/// The outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Accuracy on the held-out split after training (cloud-level for
    /// classification, point-level for segmentation).
    pub test_accuracy: f64,
}

/// Trains a DGCNN classifier on a classification dataset.
///
/// # Panics
///
/// Panics if the dataset is not a classification dataset or a sample lacks
/// its class.
pub fn train_dgcnn_classifier(
    model: &mut DgcnnClassifier,
    dataset: &Dataset,
    epochs: usize,
    lr: f32,
) -> TrainReport {
    assert_eq!(
        dataset.task,
        Task::Classification,
        "classification dataset required"
    );
    let mut opt = Adam::new(lr);
    let mut epoch_losses = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let mut total = 0.0f32;
        for sample in &dataset.train {
            let target = required(sample.class, "classification sample without class");
            let (logits, _) = model.forward(&sample.cloud);
            let (l, d) = loss::softmax_cross_entropy(&logits, &[target]);
            total += l;
            model.zero_grads();
            model.backward(&d);
            opt.step(model);
        }
        epoch_losses.push(total / dataset.train.len().max(1) as f32);
    }
    let test_accuracy = eval_dgcnn_classifier(model, dataset);
    TrainReport {
        epoch_losses,
        test_accuracy,
    }
}

/// Cloud-level accuracy of a classifier on the test split.
pub fn eval_dgcnn_classifier(model: &mut DgcnnClassifier, dataset: &Dataset) -> f64 {
    let mut correct = 0usize;
    for sample in &dataset.test {
        let (logits, _) = model.forward(&sample.cloud);
        if loss::argmax_rows(&logits)[0] == required(sample.class, "class") {
            correct += 1;
        }
    }
    correct as f64 / dataset.test.len().max(1) as f64
}

/// Trains a DGCNN segmenter on a (part/semantic) segmentation dataset.
///
/// # Panics
///
/// Panics if the dataset is a classification dataset or clouds lack point
/// labels.
pub fn train_dgcnn_seg(
    model: &mut DgcnnSeg,
    dataset: &Dataset,
    epochs: usize,
    lr: f32,
) -> TrainReport {
    assert_ne!(
        dataset.task,
        Task::Classification,
        "segmentation dataset required"
    );
    let mut opt = Adam::new(lr);
    let mut epoch_losses = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let mut total = 0.0f32;
        for sample in &dataset.train {
            let targets = required(sample.cloud.labels(), "point labels").to_vec();
            let (logits, _) = model.forward(&sample.cloud);
            let (l, d) = loss::softmax_cross_entropy(&logits, &targets);
            total += l;
            model.zero_grads();
            model.backward(&d);
            opt.step(model);
        }
        epoch_losses.push(total / dataset.train.len().max(1) as f32);
    }
    let test_accuracy = eval_dgcnn_seg(model, dataset);
    TrainReport {
        epoch_losses,
        test_accuracy,
    }
}

/// Point-level accuracy of a DGCNN segmenter on the test split.
pub fn eval_dgcnn_seg(model: &mut DgcnnSeg, dataset: &Dataset) -> f64 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for sample in &dataset.test {
        let targets = required(sample.cloud.labels(), "point labels");
        let (logits, _) = model.forward(&sample.cloud);
        let preds = loss::argmax_rows(&logits);
        correct += preds.iter().zip(targets).filter(|(p, t)| *p == *t).count();
        total += targets.len();
    }
    correct as f64 / total.max(1) as f64
}

/// Trains a PointNet++ segmenter on a segmentation dataset.
///
/// # Panics
///
/// Panics if the dataset is a classification dataset or clouds lack point
/// labels.
pub fn train_pointnetpp_seg(
    model: &mut PointNetPpSeg,
    dataset: &Dataset,
    epochs: usize,
    lr: f32,
) -> TrainReport {
    assert_ne!(
        dataset.task,
        Task::Classification,
        "segmentation dataset required"
    );
    let mut opt = Adam::new(lr);
    let mut epoch_losses = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let mut total = 0.0f32;
        for sample in &dataset.train {
            let targets = required(sample.cloud.labels(), "point labels").to_vec();
            let (logits, _) = model.forward(&sample.cloud);
            let (l, d) = loss::softmax_cross_entropy(&logits, &targets);
            total += l;
            model.zero_grads();
            model.backward(&d);
            opt.step(model);
        }
        epoch_losses.push(total / dataset.train.len().max(1) as f32);
    }
    let test_accuracy = eval_pointnetpp_seg(model, dataset);
    TrainReport {
        epoch_losses,
        test_accuracy,
    }
}

/// Point-level accuracy of a PointNet++ segmenter on the test split.
pub fn eval_pointnetpp_seg(model: &mut PointNetPpSeg, dataset: &Dataset) -> f64 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for sample in &dataset.test {
        let targets = required(sample.cloud.labels(), "point labels");
        let (logits, _) = model.forward(&sample.cloud);
        let preds = loss::argmax_rows(&logits);
        correct += preds.iter().zip(targets).filter(|(p, t)| *p == *t).count();
        total += targets.len();
    }
    correct as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DgcnnConfig, PipelineStrategy, PointNetPpConfig};
    use edgepc_data::{modelnet_like, s3dis_like, DatasetConfig};

    fn tiny_cls_dataset() -> Dataset {
        let cfg = DatasetConfig {
            classes: 2,
            train_per_class: 4,
            test_per_class: 2,
            points_per_cloud: Some(96),
            seed: 99,
        };
        modelnet_like(&cfg)
    }

    fn tiny_seg_dataset() -> Dataset {
        let cfg = DatasetConfig {
            classes: 1,
            train_per_class: 3,
            test_per_class: 1,
            points_per_cloud: Some(192),
            seed: 78,
        };
        s3dis_like(&cfg)
    }

    #[test]
    fn classifier_training_learns_two_classes() {
        let ds = tiny_cls_dataset();
        let mut model =
            DgcnnClassifier::new(&DgcnnConfig::tiny(PipelineStrategy::baseline_dgcnn(3)), 2);
        let report = train_dgcnn_classifier(&mut model, &ds, 6, 0.02);
        assert_eq!(report.epoch_losses.len(), 6);
        assert!(
            report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap(),
            "loss should decrease: {:?}",
            report.epoch_losses
        );
        assert!(
            report.test_accuracy >= 0.5,
            "accuracy {}",
            report.test_accuracy
        );
    }

    #[test]
    fn segmenter_training_beats_chance() {
        let ds = tiny_seg_dataset();
        let mut model = PointNetPpSeg::new(
            &PointNetPpConfig::tiny(6, PipelineStrategy::baseline()),
            ds.num_classes,
        );
        let report = train_pointnetpp_seg(&mut model, &ds, 4, 0.02);
        // 6 classes: chance ~0.17, but walls+floor dominate; require
        // learning beyond the largest-class prior is too strict for 4
        // epochs, so just require better than uniform chance.
        assert!(
            report.test_accuracy > 1.0 / 6.0,
            "accuracy {}",
            report.test_accuracy
        );
    }

    #[test]
    fn edgepc_retraining_reaches_comparable_accuracy() {
        // The Fig. 14a shape in miniature: baseline-trained vs
        // EdgePC-retrained accuracy on the same dataset should be close.
        let ds = tiny_cls_dataset();
        let mut base =
            DgcnnClassifier::new(&DgcnnConfig::tiny(PipelineStrategy::baseline_dgcnn(3)), 2);
        let base_report = train_dgcnn_classifier(&mut base, &ds, 6, 0.02);
        let mut edge =
            DgcnnClassifier::new(&DgcnnConfig::tiny(PipelineStrategy::edgepc_dgcnn(3, 24)), 2);
        let edge_report = train_dgcnn_classifier(&mut edge, &ds, 6, 0.02);
        assert!(
            edge_report.test_accuracy >= base_report.test_accuracy - 0.30,
            "edge {} vs base {}",
            edge_report.test_accuracy,
            base_report.test_accuracy
        );
    }

    #[test]
    #[should_panic(expected = "classification dataset required")]
    fn wrong_task_panics() {
        let ds = tiny_seg_dataset();
        let mut model =
            DgcnnClassifier::new(&DgcnnConfig::tiny(PipelineStrategy::baseline_dgcnn(3)), 2);
        let _ = train_dgcnn_classifier(&mut model, &ds, 1, 0.01);
    }
}
