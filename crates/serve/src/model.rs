//! Model specifications and per-worker replicas.
//!
//! A [`ModelSpec`] is a *description* — cheap to clone, `Send + Sync`, and
//! deterministic: building it twice yields bit-identical weights, because
//! every constructor in `edgepc-models` seeds its layers from fixed
//! constants. That determinism is what lets every worker hold its own
//! [`ServeModel`] replica (no locks on the hot path) while the engine
//! still guarantees worker-count-independent outputs.

use edgepc_models::{
    DgcnnClassifier, DgcnnConfig, DgcnnSeg, PipelineStrategy, PointNetPpConfig, PointNetPpSeg,
};

/// A deterministic description of one servable model.
#[derive(Debug, Clone)]
pub enum ModelSpec {
    /// Reduced PointNet++ segmentation (2 SA + 2 FP), sized for ~256-point
    /// clouds.
    PointNetPpTiny {
        classes: usize,
        strategy: PipelineStrategy,
    },
    /// Reduced DGCNN cloud classifier (3 EdgeConv modules).
    DgcnnClsTiny {
        classes: usize,
        strategy: PipelineStrategy,
    },
    /// Reduced DGCNN per-point segmenter (3 EdgeConv modules).
    DgcnnSegTiny {
        classes: usize,
        strategy: PipelineStrategy,
    },
}

impl ModelSpec {
    /// Tiny PointNet++ with the paper's EdgePC strategy (Morton sampling +
    /// window search on both levels).
    pub fn pointnetpp_tiny(classes: usize) -> Self {
        ModelSpec::PointNetPpTiny {
            classes,
            strategy: PipelineStrategy::edgepc_pointnetpp(2, 16),
        }
    }

    /// Tiny DGCNN classifier with the paper's EdgePC strategy (Morton
    /// window on module 1, reuse/exact alternation after).
    pub fn dgcnn_cls_tiny(classes: usize) -> Self {
        ModelSpec::DgcnnClsTiny {
            classes,
            strategy: PipelineStrategy::edgepc_dgcnn(3, 24),
        }
    }

    /// Smallest cloud this model accepts (the forward pass asserts it;
    /// [`Engine::submit`](crate::Engine::submit) rejects thinner requests).
    pub fn min_points(&self) -> usize {
        match self {
            // The first SA level samples this many points from the cloud.
            ModelSpec::PointNetPpTiny { classes, strategy } => {
                let cfg = PointNetPpConfig::tiny(*classes, strategy.clone());
                cfg.levels.first().map_or(1, |level| level.n_points)
            }
            // DGCNN keeps all points but needs more points than neighbors.
            ModelSpec::DgcnnClsTiny { strategy, .. } | ModelSpec::DgcnnSegTiny { strategy, .. } => {
                DgcnnConfig::tiny(strategy.clone()).k + 1
            }
        }
    }
}

/// One worker's replica of a [`ModelSpec`]: the weights its compiled
/// plans are built from.
pub enum ServeModel {
    PointNetPp(Box<PointNetPpSeg>),
    DgcnnCls(Box<DgcnnClassifier>),
    DgcnnSeg(Box<DgcnnSeg>),
}

impl ServeModel {
    /// Builds the replica. Deterministic: all weight seeds are fixed by
    /// the model constructors, so replicas on different workers are
    /// bit-identical.
    pub fn build(spec: &ModelSpec) -> ServeModel {
        match spec {
            ModelSpec::PointNetPpTiny { classes, strategy } => {
                let cfg = PointNetPpConfig::tiny(*classes, strategy.clone());
                ServeModel::PointNetPp(Box::new(PointNetPpSeg::new(&cfg, *classes)))
            }
            ModelSpec::DgcnnClsTiny { classes, strategy } => {
                let cfg = DgcnnConfig::tiny(strategy.clone());
                ServeModel::DgcnnCls(Box::new(DgcnnClassifier::new(&cfg, *classes)))
            }
            ModelSpec::DgcnnSegTiny { classes, strategy } => {
                let cfg = DgcnnConfig::tiny(strategy.clone());
                ServeModel::DgcnnSeg(Box::new(DgcnnSeg::new(&cfg, *classes)))
            }
        }
    }
}

/// The eager forward of `model`: the oracle every served (compiled)
/// forward is checked against.
#[cfg(test)]
pub(crate) fn eager(model: &mut ServeModel, cloud: &edgepc_geom::PointCloud) -> edgepc_nn::Tensor2 {
    match model {
        ServeModel::PointNetPp(m) => m.forward(cloud).0,
        ServeModel::DgcnnCls(m) => m.forward(cloud).0,
        ServeModel::DgcnnSeg(m) => m.forward(cloud).0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgepc_data::bunny_with_points;

    #[test]
    fn replicas_are_deterministic() {
        let spec = ModelSpec::pointnetpp_tiny(4);
        let cloud = bunny_with_points(256, 11);
        let a = eager(&mut ServeModel::build(&spec), &cloud);
        let b = eager(&mut ServeModel::build(&spec), &cloud);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn dgcnn_replica_classifies() {
        let spec = ModelSpec::dgcnn_cls_tiny(5);
        let cloud = bunny_with_points(64, 3);
        let logits = eager(&mut ServeModel::build(&spec), &cloud);
        assert_eq!((logits.rows(), logits.cols()), (1, 5));
    }

    #[test]
    fn min_points_reflects_first_level() {
        assert_eq!(ModelSpec::pointnetpp_tiny(2).min_points(), 64);
        assert_eq!(ModelSpec::dgcnn_cls_tiny(2).min_points(), 9);
    }
}
