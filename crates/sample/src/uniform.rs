//! Cheap strawman samplers: uniform-in-frame-order and random.
//!
//! Paper Fig. 4b/5b show why these are not enough on raw point clouds: the
//! frame order of a scanned cloud is arbitrary, so picking every `N/n`-th
//! point leaves whole regions uncovered. They still serve two purposes
//! here: as the lower baseline in the Fig. 5 coverage experiment, and as
//! the *pick stage* the Morton sampler runs after structurization.

use edgepc_geom::rng::StdRng;
use edgepc_geom::{OpCounts, PointCloud};

use crate::{linspace_indices, SampleResult, Sampler};

/// Uniform (evenly strided) sampling in the cloud's *current* order.
///
/// On raw frame-ordered data this is the poor-coverage strawman of
/// Fig. 4b; on a Morton-sorted cloud it is exactly the pick stage of
/// Algo. 1 lines 11-12.
///
/// # Example
///
/// ```
/// use edgepc_geom::{Point3, PointCloud};
/// use edgepc_sample::{Sampler, UniformSampler};
///
/// let cloud: PointCloud = (0..10).map(|i| Point3::splat(i as f32)).collect();
/// let r = UniformSampler::new().sample(&cloud, 5);
/// assert_eq!(r.indices, vec![0, 2, 5, 7, 9]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UniformSampler;

impl UniformSampler {
    /// Creates a uniform sampler.
    pub fn new() -> Self {
        UniformSampler
    }
}

impl Sampler for UniformSampler {
    fn name(&self) -> &'static str {
        "uniform"
    }

    /// Picks `n` evenly spaced indices.
    ///
    /// # Panics
    ///
    /// Panics if `n > cloud.len()`.
    fn sample(&self, cloud: &PointCloud, n: usize) -> SampleResult {
        let indices = linspace_indices(cloud.len(), n);
        let ops = OpCounts {
            // All picks are index arithmetic, fully parallel: one round.
            seq_rounds: u64::from(n > 0),
            gathered_bytes: 12 * n as u64,
            ..OpCounts::ZERO
        };
        SampleResult {
            indices,
            ops,
            structurized: None,
        }
    }
}

/// Random sampling without replacement, seeded for reproducibility.
///
/// # Example
///
/// ```
/// use edgepc_geom::{Point3, PointCloud};
/// use edgepc_sample::{RandomSampler, Sampler};
///
/// let cloud: PointCloud = (0..100).map(|i| Point3::splat(i as f32)).collect();
/// let a = RandomSampler::with_seed(7).sample(&cloud, 10);
/// let b = RandomSampler::with_seed(7).sample(&cloud, 10);
/// assert_eq!(a.indices, b.indices);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomSampler {
    seed: u64,
}

impl RandomSampler {
    /// Creates a random sampler with a fixed default seed.
    pub fn new() -> Self {
        RandomSampler { seed: 0 }
    }

    /// Creates a random sampler with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        RandomSampler { seed }
    }
}

impl Default for RandomSampler {
    fn default() -> Self {
        RandomSampler::new()
    }
}

impl Sampler for RandomSampler {
    fn name(&self) -> &'static str {
        "random"
    }

    /// Picks `n` distinct indices uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics if `n > cloud.len()`.
    fn sample(&self, cloud: &PointCloud, n: usize) -> SampleResult {
        assert!(
            n <= cloud.len(),
            "cannot sample {n} from {} points",
            cloud.len()
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut indices = rng.sample_indices(cloud.len(), n);
        indices.sort_unstable();
        let ops = OpCounts {
            seq_rounds: u64::from(n > 0),
            gathered_bytes: 12 * n as u64,
            ..OpCounts::ZERO
        };
        SampleResult {
            indices,
            ops,
            structurized: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgepc_geom::Point3;

    fn cloud(n: usize) -> PointCloud {
        (0..n).map(|i| Point3::splat(i as f32)).collect()
    }

    #[test]
    fn uniform_covers_endpoints() {
        let r = UniformSampler::new().sample(&cloud(100), 10);
        assert_eq!(r.indices[0], 0);
        assert_eq!(*r.indices.last().unwrap(), 99);
        assert_eq!(r.indices.len(), 10);
    }

    #[test]
    fn uniform_is_one_parallel_round() {
        let r = UniformSampler::new().sample(&cloud(1000), 100);
        assert_eq!(r.ops.seq_rounds, 1);
        assert_eq!(r.ops.dist3, 0);
    }

    #[test]
    fn random_is_distinct_and_in_range() {
        let r = RandomSampler::with_seed(42).sample(&cloud(50), 20);
        let mut seen = std::collections::BTreeSet::new();
        for &i in &r.indices {
            assert!(i < 50);
            assert!(seen.insert(i), "duplicate index {i}");
        }
    }

    #[test]
    fn random_different_seeds_differ() {
        let a = RandomSampler::with_seed(1).sample(&cloud(1000), 30).indices;
        let b = RandomSampler::with_seed(2).sample(&cloud(1000), 30).indices;
        assert_ne!(a, b);
    }

    #[test]
    fn zero_sample_is_empty() {
        assert!(UniformSampler::new()
            .sample(&cloud(5), 0)
            .indices
            .is_empty());
        assert!(RandomSampler::new().sample(&cloud(5), 0).indices.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn random_oversample_panics() {
        let _ = RandomSampler::new().sample(&cloud(3), 4);
    }
}
