//! Morton-code structurization of point clouds (paper Sec. 4).
//!
//! Morton code (Z-order curve) maps 3-D integer coordinates to one dimension
//! by bit interleaving, preserving spatial locality: points that are close
//! in space receive numerically close codes. EdgePC exploits this to
//! "structurize" an unordered point cloud — sort the points by Morton code —
//! after which sampling and neighbor search degenerate to cheap index
//! arithmetic, like on a 2-D image.
//!
//! * [`encode`]/[`decode`] — bit interleaving kernels (up to 21 bits/axis),
//! * [`VoxelGrid`] — quantizes floating-point coordinates onto the
//!   `2^b x 2^b x 2^b` small-cube grid of Sec. 4.1,
//! * [`Structurizer`] — the full pipeline: voxelize, encode, sort, emit the
//!   re-ordering permutation `I'` plus [`OpCounts`] instrumentation,
//! * [`locality`] — the quantitative structuredness metrics of Sec. 4.3.
//!
//! # Example
//!
//! ```
//! use edgepc_geom::{Point3, PointCloud};
//! use edgepc_morton::Structurizer;
//!
//! let cloud = PointCloud::from_points(vec![
//!     Point3::new(0.9, 0.9, 0.9),
//!     Point3::new(0.1, 0.1, 0.1),
//!     Point3::new(0.5, 0.5, 0.5),
//! ]);
//! let s = Structurizer::new(10).structurize(&cloud);
//! // Sorted order walks the Z-curve: near-origin point first.
//! assert_eq!(s.permutation()[0], 1);
//! assert_eq!(s.permutation()[2], 0);
//! ```

#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod encode;
pub mod grid;
pub mod hilbert;
pub mod locality;
pub mod radix;
pub mod structurize;

pub use encode::{decode, encode, MAX_BITS_PER_AXIS};
pub use grid::VoxelGrid;
pub use radix::{sort_pairs, RADIX_MIN_LEN};
pub use structurize::{Structurized, Structurizer};

pub use edgepc_geom::OpCounts;
