//! # EdgePC
//!
//! A pure-Rust reproduction of **"EdgePC: Efficient Deep Learning Analytics
//! for Point Clouds on Edge Devices"** (ISCA 2023).
//!
//! Point-cloud CNNs spend 38-80 % of their edge-device inference latency in
//! the *sampling* and *neighbor-search* stages. EdgePC sorts the points
//! along a Morton (Z-order) curve and replaces both stages with cheap
//! index arithmetic on the sorted array, then retrains the network with the
//! approximation baked in. This workspace implements the whole system:
//! Morton structurization, all baseline and approximate samplers/searchers,
//! PointNet++/DGCNN with training, synthetic datasets, and a calibrated
//! Jetson AGX Xavier cost model standing in for the paper's hardware.
//!
//! This crate is the facade: it defines the paper's six workloads
//! (Table 1), wires datasets to models to the device model, and exposes the
//! analysis entry points the figure-regeneration harnesses build on.
//!
//! ## Quickstart
//!
//! ```
//! use edgepc::prelude::*;
//!
//! // Structurize a cloud and sample it the EdgePC way.
//! let cloud: PointCloud = (0..512)
//!     .map(|i| Point3::new((i % 8) as f32, ((i / 8) % 8) as f32, (i / 64) as f32))
//!     .collect();
//! let fps = FarthestPointSampler::new().sample(&cloud, 64);
//! let morton = MortonSampler::paper_default().sample(&cloud, 64);
//! assert_eq!(morton.indices.len(), fps.indices.len());
//! assert!(morton.ops.dist3 < fps.ops.dist3);
//!
//! // Price both on the Jetson AGX Xavier model.
//! let device = XavierModel::jetson_agx_xavier();
//! let t_fps = device.stage_time_ms(&fps.ops, ExecMode::Pipeline);
//! let t_mc = device.stage_time_ms(&morton.ops, ExecMode::Pipeline);
//! assert!(t_mc < t_fps);
//! ```

#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod analysis;
pub mod workloads;

pub use analysis::{characterize, compare, EdgePcConfig, Variant, WorkloadComparison};
pub use workloads::{Workload, WorkloadSpec};

/// Convenient re-exports of the workspace's main types.
pub mod prelude {
    pub use crate::analysis::{characterize, compare, EdgePcConfig, Variant, WorkloadComparison};
    pub use crate::workloads::{Workload, WorkloadSpec};
    pub use edgepc_data::{
        bunny, modelnet_like, s3dis_like, scannet_like, shapenet_like, Dataset, DatasetConfig,
        Sample, Task,
    };
    pub use edgepc_geom::{
        chamfer_distance, coverage_radius, mean_nearest_sample_distance, sample_spacing, Aabb,
        FeatureMatrix, OpCounts, Point3, PointCloud,
    };
    pub use edgepc_models::{
        price_stages, DgcnnClassifier, DgcnnConfig, DgcnnSeg, PipelineStrategy, PointNetPpConfig,
        PointNetPpSeg, SampleStrategy, SearchStrategy, StageRecord, UpsampleStrategy,
    };
    pub use edgepc_morton::{decode, encode, Structurizer, VoxelGrid};
    pub use edgepc_neighbor::{
        false_neighbor_ratio, neighbor_quality, BallQuery, BruteKnn, GridSearcher, KdTree,
        MortonWindowSearcher, NeighborQuality, NeighborSearcher,
    };
    pub use edgepc_nn::Params;
    pub use edgepc_sample::{
        FarthestPointSampler, MortonInterpolator, MortonSampler, RandomSampler, Sampler,
        ThreeNnInterpolator, UniformSampler,
    };
    pub use edgepc_sim::{
        CacheSim, EnergyModel, ExecMode, PipelineCost, PowerState, StageKind, XavierModel,
    };
}
