//! Point-cloud CNN models — PointNet++ and DGCNN — with pluggable EdgePC
//! strategies, full training support, and per-stage cost accounting.
//!
//! The paper's end-to-end claims live here: every sampling, neighbor-search,
//! grouping and feature-compute stage records the [`OpCounts`] of what it
//! actually executed, so the device model (`edgepc-sim`) can price a whole
//! inference (Fig. 3, 9, 11, 13), while the same modules support
//! backpropagation so the retraining experiments (Fig. 14a/15b) run for
//! real.
//!
//! * [`strategy`] — the per-layer choice between SOTA and Morton
//!   approximations (the paper's design points of Sec. 5.1.3/5.2.3),
//! * [`selection`] — executes a (sample, neighbor-search) strategy pair,
//! * [`SetAbstraction`] / [`FeaturePropagation`] — PointNet++ modules,
//! * [`PointNetPpSeg`] — the 4-SA/4-FP semantic-segmentation network
//!   (paper Fig. 2a; width- and depth-configurable),
//! * [`EdgeConv`] / [`DgcnnClassifier`] / [`DgcnnSeg`] — the DGCNN family
//!   (paper Fig. 2b) with neighbor-index reuse across modules,
//! * [`trainer`] — training loops and accuracy evaluation,
//! * [`delayed`] — the Mesorasi delayed-aggregation comparison (Sec. 6.4).
//!
//! # Example
//!
//! ```
//! use edgepc_models::{PipelineStrategy, PointNetPpConfig, PointNetPpSeg};
//! use edgepc_geom::{Point3, PointCloud};
//!
//! let cloud: PointCloud = (0..128)
//!     .map(|i| Point3::new((i % 16) as f32, (i / 16) as f32, 0.0))
//!     .collect();
//! let config = PointNetPpConfig::tiny(3, PipelineStrategy::baseline());
//! let mut model = PointNetPpSeg::new(&config, 3);
//! let (logits, records) = model.forward(&cloud);
//! assert_eq!(logits.rows(), 128);
//! assert_eq!(logits.cols(), 3);
//! assert!(!records.is_empty());
//! ```

#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod compiled;
pub mod delayed;
pub mod dgcnn;
pub mod fp;
mod observe;
pub mod pointnetpp;
pub mod sa;
pub mod selection;
pub mod strategy;
pub mod trainer;

pub use compiled::{CompiledDgcnn, CompiledPointNetPp, ExecState};
pub use dgcnn::{DgcnnClassifier, DgcnnConfig, DgcnnSeg, EdgeConv};
pub use fp::FeaturePropagation;
pub use pointnetpp::{PointNetPpConfig, PointNetPpSeg, SaLevelSpec};
pub use sa::SetAbstraction;
pub use selection::{select, Selection};
pub use strategy::{
    price_stages, PipelineStrategy, SampleStrategy, SearchStrategy, StageRecord, UpsampleStrategy,
};

pub use edgepc_geom::OpCounts;

#[cfg(test)]
mod send_safety {
    //! The serving runtime moves whole model replicas into worker threads;
    //! these assertions pin the `Send` bound at the models layer so a
    //! future `Rc`/raw-pointer cache cannot silently break the engine.
    use super::*;

    fn assert_send<T: Send>() {}

    #[test]
    fn models_are_send() {
        assert_send::<PointNetPpSeg>();
        assert_send::<DgcnnClassifier>();
        assert_send::<DgcnnSeg>();
        assert_send::<SetAbstraction>();
        assert_send::<EdgeConv>();
        assert_send::<CompiledPointNetPp>();
        assert_send::<CompiledDgcnn>();
        assert_send::<ExecState>();
    }
}
