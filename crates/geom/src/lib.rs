//! Geometric substrate for the EdgePC reproduction.
//!
//! This crate provides the basic value types every other crate builds on:
//!
//! * [`Point3`] — a 3-D point with `f32` coordinates,
//! * [`Aabb`] — axis-aligned bounding boxes,
//! * [`PointCloud`] — an owned collection of points with optional per-point
//!   features and labels, the unit of work of the whole pipeline,
//! * [`FeatureMatrix`] — a dense row-major `N x C` feature store,
//! * coverage / chamfer metrics used to quantify sampling quality
//!   (paper Fig. 5), and
//! * [`OpCounts`] — the operation-count instrumentation record that the
//!   device cost model (`edgepc-sim`) converts into time and energy.
//!
//! # Example
//!
//! ```
//! use edgepc_geom::{Point3, PointCloud};
//!
//! let cloud = PointCloud::from_points(vec![
//!     Point3::new(0.0, 0.0, 0.0),
//!     Point3::new(1.0, 0.0, 0.0),
//! ]);
//! assert_eq!(cloud.len(), 2);
//! assert!(cloud.bounding_box().contains(Point3::new(0.5, 0.0, 0.0)));
//! ```

#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod aabb;
pub mod cloud;
pub mod counters;
pub mod feature;
pub mod guard;
pub mod metrics;
pub mod point;
pub mod rng;
pub mod transform;

pub use aabb::Aabb;
pub use cloud::PointCloud;
pub use counters::OpCounts;
pub use feature::FeatureMatrix;
pub use guard::{required, set_violation_hook, violation};
pub use metrics::{
    chamfer_distance, coverage_radius, mean_nearest_sample_distance, sample_spacing,
};
pub use point::Point3;
pub use transform::Transform;
