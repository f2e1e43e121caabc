//! Point-cloud sampling stages (paper Sec. 5.1).
//!
//! Down-sampling obtains a small point set that covers the input cloud; it
//! is the first stage of every SetAbstraction module. This crate provides:
//!
//! * [`FarthestPointSampler`] — the exact state-of-the-art baseline
//!   (`O(nN)`, strictly sequential),
//! * [`RandomSampler`] and [`UniformSampler`] — the cheap strawmen of
//!   Fig. 4/5 (uniform sampling in raw frame order loses coverage),
//! * [`MortonSampler`] — the paper's contribution (Algo. 1): structurize
//!   with a Morton code, then uniformly pick along the sorted order,
//! * [`ThreeNnInterpolator`] / [`MortonInterpolator`] — the up-sampling
//!   (FeaturePropagation) counterparts of Sec. 5.1.2.
//!
//! Every algorithm reports [`OpCounts`] so the device model can price it.
//!
//! # Example
//!
//! ```
//! use edgepc_geom::{Point3, PointCloud};
//! use edgepc_sample::{FarthestPointSampler, MortonSampler, Sampler};
//!
//! let cloud: PointCloud = (0..64)
//!     .map(|i| Point3::new((i % 8) as f32, (i / 8) as f32, 0.0))
//!     .collect();
//! let fps = FarthestPointSampler::new().sample(&cloud, 8);
//! let mc = MortonSampler::paper_default().sample(&cloud, 8);
//! assert_eq!(fps.indices.len(), 8);
//! assert_eq!(mc.indices.len(), 8);
//! // FPS pays ~n*N distance evaluations; the Morton sampler none.
//! assert!(fps.ops.dist3 >= 64 * 7);
//! assert_eq!(mc.ops.dist3, 0);
//! ```

#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod audit;
pub mod fps;
pub mod morton_sampler;
pub mod uniform;
pub mod upsample;

pub use fps::FarthestPointSampler;
pub use morton_sampler::MortonSampler;
pub use uniform::{RandomSampler, UniformSampler};
pub use upsample::{InterpPlan, Interpolated, MortonInterpolator, ThreeNnInterpolator};

use edgepc_geom::{OpCounts, PointCloud};

/// The outcome of a down-sampling stage.
#[derive(Debug, Clone)]
pub struct SampleResult {
    /// Indices of the sampled points, into the cloud given to
    /// [`Sampler::sample`].
    pub indices: Vec<usize>,
    /// Operation counts of the sampling computation.
    pub ops: OpCounts,
    /// For Morton-based samplers: the structurization by-product (sorted
    /// permutation and codes), which downstream neighbor search reuses at
    /// no extra cost (paper Sec. 5.2.3).
    pub structurized: Option<edgepc_morton::Structurized>,
}

impl SampleResult {
    /// Materializes the sampled sub-cloud.
    pub fn extract(&self, cloud: &PointCloud) -> PointCloud {
        cloud.permuted(&self.indices)
    }
}

/// A down-sampling strategy: select `n` representative points of a cloud.
pub trait Sampler {
    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Selects `n` points from `cloud`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `n > cloud.len()` or the cloud is empty
    /// (with `n > 0`); a sampler cannot invent points.
    fn sample(&self, cloud: &PointCloud, n: usize) -> SampleResult;
}

/// Evenly spaced positions `0..len` including both endpoints: position `k`
/// is `round(k * (len-1) / (n-1))`. This reproduces the paper's Fig. 8(b)
/// walk-through, which picks sorted positions `{0, 2, 4}` when sampling 3
/// of 5 points.
pub(crate) fn linspace_indices(len: usize, n: usize) -> Vec<usize> {
    assert!(n <= len, "cannot sample {n} from {len} points");
    match n {
        0 => Vec::new(),
        1 => vec![0],
        _ => (0..n)
            .map(|k| ((k as f64) * ((len - 1) as f64) / ((n - 1) as f64)).round() as usize)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_matches_paper_example() {
        assert_eq!(linspace_indices(5, 3), vec![0, 2, 4]);
    }

    #[test]
    fn linspace_edges() {
        assert_eq!(linspace_indices(10, 0), Vec::<usize>::new());
        assert_eq!(linspace_indices(10, 1), vec![0]);
        assert_eq!(linspace_indices(4, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn linspace_is_strictly_increasing_when_n_le_len() {
        let idx = linspace_indices(100, 17);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*idx.last().unwrap(), 99);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn linspace_oversample_panics() {
        let _ = linspace_indices(3, 4);
    }
}
