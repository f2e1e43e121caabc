//! The paper's six workloads (Table 1).

use edgepc_data::{
    modelnet_like, s3dis_like, scannet_like, shapenet_like, Dataset, DatasetConfig, Task,
};

/// The model family a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// PointNet++(s) semantic segmentation.
    PointNetPpSeg,
    /// DGCNN(c) classification.
    DgcnnClassifier,
    /// DGCNN(p) part segmentation.
    DgcnnPartSeg,
    /// DGCNN(s) semantic segmentation.
    DgcnnSeg,
}

/// One of the paper's evaluation workloads W1-W6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// PointNet++(s) on S3DIS, 8192 pts, semantic segmentation.
    W1,
    /// PointNet++(s) on ScanNet, 8192 pts, semantic segmentation.
    W2,
    /// DGCNN(c) on ModelNet40, 1024 pts, classification.
    W3,
    /// DGCNN(p) on ShapeNet, 2048 pts, part segmentation.
    W4,
    /// DGCNN(s) on S3DIS, 4096 pts, semantic segmentation.
    W5,
    /// DGCNN(s) on ScanNet, 8192 pts, semantic segmentation.
    W6,
}

impl Workload {
    /// All six workloads in Table 1 order.
    pub const ALL: [Workload; 6] = [
        Workload::W1,
        Workload::W2,
        Workload::W3,
        Workload::W4,
        Workload::W5,
        Workload::W6,
    ];

    /// The workload's Table 1 row.
    pub fn spec(self) -> WorkloadSpec {
        match self {
            Workload::W1 => WorkloadSpec {
                id: "W1",
                model: ModelKind::PointNetPpSeg,
                dataset: "s3dis-like",
                points: 8192,
                // Sec. 6.2: S3DIS batches are fixed at 32 clouds.
                batch: 32,
                task: Task::SemanticSegmentation,
            },
            Workload::W2 => WorkloadSpec {
                id: "W2",
                model: ModelKind::PointNetPpSeg,
                dataset: "scannet-like",
                points: 8192,
                // Sec. 6.2: ScanNet batches average 14 clouds (4-41).
                batch: 14,
                task: Task::SemanticSegmentation,
            },
            Workload::W3 => WorkloadSpec {
                id: "W3",
                model: ModelKind::DgcnnClassifier,
                dataset: "modelnet-like",
                points: 1024,
                batch: 32,
                task: Task::Classification,
            },
            Workload::W4 => WorkloadSpec {
                id: "W4",
                model: ModelKind::DgcnnPartSeg,
                dataset: "shapenet-like",
                points: 2048,
                batch: 16,
                task: Task::PartSegmentation,
            },
            Workload::W5 => WorkloadSpec {
                id: "W5",
                model: ModelKind::DgcnnSeg,
                dataset: "s3dis-like",
                points: 4096,
                batch: 16,
                task: Task::SemanticSegmentation,
            },
            Workload::W6 => WorkloadSpec {
                id: "W6",
                model: ModelKind::DgcnnSeg,
                dataset: "scannet-like",
                points: 8192,
                batch: 14,
                task: Task::SemanticSegmentation,
            },
        }
    }

    /// Generates a small instance of the workload's dataset (a few clouds
    /// at the Table 1 point count) for analysis runs.
    pub fn dataset(self, seed: u64) -> Dataset {
        let spec = self.spec();
        let cfg = DatasetConfig {
            classes: if spec.task == Task::Classification {
                8
            } else {
                1
            },
            train_per_class: 1,
            test_per_class: 1,
            points_per_cloud: Some(spec.points),
            seed,
        };
        match self {
            Workload::W1 | Workload::W5 => s3dis_like(&cfg),
            Workload::W2 | Workload::W6 => scannet_like(&cfg),
            Workload::W3 => modelnet_like(&cfg),
            Workload::W4 => shapenet_like(&cfg),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec().id)
    }
}

/// A Table 1 row: what a workload runs and on what data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// "W1".."W6".
    pub id: &'static str,
    /// The CNN model family.
    pub model: ModelKind,
    /// The dataset stand-in's name.
    pub dataset: &'static str,
    /// Points per cloud (`#Points/Batch`).
    pub points: usize,
    /// Clouds per batch (batch sizes the paper states or typical values
    /// where it does not; see Sec. 6.2).
    pub batch: usize,
    /// Task.
    pub task: Task,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_match_paper() {
        assert_eq!(Workload::W1.spec().points, 8192);
        assert_eq!(Workload::W2.spec().points, 8192);
        assert_eq!(Workload::W3.spec().points, 1024);
        assert_eq!(Workload::W4.spec().points, 2048);
        assert_eq!(Workload::W5.spec().points, 4096);
        assert_eq!(Workload::W6.spec().points, 8192);
        assert_eq!(Workload::W1.spec().batch, 32);
        assert_eq!(Workload::W2.spec().batch, 14);
    }

    #[test]
    fn models_match_table1() {
        assert_eq!(Workload::W1.spec().model, ModelKind::PointNetPpSeg);
        assert_eq!(Workload::W3.spec().model, ModelKind::DgcnnClassifier);
        assert_eq!(Workload::W4.spec().model, ModelKind::DgcnnPartSeg);
        assert_eq!(Workload::W6.spec().model, ModelKind::DgcnnSeg);
    }

    #[test]
    fn datasets_generate_at_declared_sizes() {
        // Use a reduced point count check only for the small workloads to
        // keep the test fast.
        let ds = Workload::W3.dataset(1);
        assert_eq!(ds.points_per_cloud, 1024);
        assert_eq!(ds.task, Task::Classification);
        assert!(!ds.test.is_empty());
    }

    #[test]
    fn display_is_the_id() {
        assert_eq!(Workload::W4.to_string(), "W4");
    }

    #[test]
    fn all_lists_every_workload_once() {
        let ids: std::collections::BTreeSet<&str> =
            Workload::ALL.iter().map(|w| w.spec().id).collect();
        assert_eq!(ids.len(), 6);
    }
}
