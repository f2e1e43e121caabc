//! Neighbor-search stages (paper Sec. 5.2).
//!
//! After sampling, every point-cloud CNN gathers a local neighborhood for
//! each (sampled) point. This crate implements both the state-of-the-art
//! searchers the paper profiles and the EdgePC approximation:
//!
//! * [`BruteKnn`] — exact k-nearest-neighbors by full scan, the `O(N^2)`
//!   SOTA kernel of Sec. 5.2.1,
//! * [`BallQuery`] — fixed-radius search with padding, PointNet++'s default,
//! * [`KdTree`] — the `O(N log N)` tree comparator the paper footnotes
//!   (efficient sequentially, but with limited parallelism),
//! * [`GridSearcher`] — the cell-hash comparator used by prior grid-based
//!   works ([22, 26, 39, 50] in the paper),
//! * [`MortonWindowSearcher`] — the paper's contribution: approximate the
//!   neighbor set with the best `k` of a window of `W` consecutive points
//!   in Morton order (Sec. 5.2.2),
//! * [`false_neighbor_ratio`] — the quality metric of Fig. 6/11/15a.
//!
//! All searchers exclude the query point itself from its neighbor list,
//! matching the paper's worked example (Fig. 10, where the neighbors of
//! `P2` are `{P0, P1, P4}`).
//!
//! # Example
//!
//! ```
//! use edgepc_geom::{Point3, PointCloud};
//! use edgepc_neighbor::{BruteKnn, MortonWindowSearcher, NeighborSearcher,
//!                       false_neighbor_ratio};
//!
//! let cloud: PointCloud = (0..64)
//!     .map(|i| Point3::new((i % 8) as f32, (i / 8) as f32, 0.0))
//!     .collect();
//! let queries: Vec<usize> = (0..64).collect();
//! let exact = BruteKnn::new().search(&cloud, &queries, 4);
//! let approx = MortonWindowSearcher::new(16, 10).search(&cloud, &queries, 4);
//! let fnr = false_neighbor_ratio(&approx.neighbors, &exact.neighbors);
//! assert!(fnr < 0.9);
//! // The window searcher does a small constant amount of work per query.
//! assert!(approx.ops.dist3 < exact.ops.dist3);
//! ```

#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod audit;
pub mod ballquery;
pub mod brute;
pub mod grid;
pub mod kdtree;
pub mod quality;
pub mod window;

pub use ballquery::BallQuery;
pub use brute::BruteKnn;
pub use grid::GridSearcher;
pub use kdtree::KdTree;
pub use quality::{neighbor_quality, NeighborQuality};
pub use window::MortonWindowSearcher;

use edgepc_geom::{OpCounts, PointCloud};

/// The outcome of a neighbor-search stage.
#[derive(Debug, Clone)]
pub struct NeighborResult {
    /// `neighbors[q]` holds the neighbor indices (into the candidate cloud)
    /// of the `q`-th query, exactly `k` entries each (padded by repetition
    /// where a searcher finds fewer).
    pub neighbors: Vec<Vec<usize>>,
    /// Operation counts of the search.
    pub ops: OpCounts,
}

/// A neighbor-search strategy over the points of a single cloud.
pub trait NeighborSearcher {
    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// For each query (an index into `cloud`), returns the indices of `k`
    /// neighbors among the points of `cloud`, excluding the query itself.
    ///
    /// # Panics
    ///
    /// Implementations panic if `k == 0`, `k >= cloud.len()`, or any query
    /// index is out of range.
    fn search(&self, cloud: &PointCloud, queries: &[usize], k: usize) -> NeighborResult;
}

pub(crate) fn validate_search_args(cloud: &PointCloud, queries: &[usize], k: usize) {
    assert!(k > 0, "k must be positive");
    assert!(
        k < cloud.len(),
        "k = {k} must be smaller than the cloud ({} points)",
        cloud.len()
    );
    assert!(
        queries.iter().all(|&q| q < cloud.len()),
        "query index out of range"
    );
}

/// The paper's false-neighbor ratio: the fraction of approximate neighbors
/// that the exact searcher does *not* report, averaged over all queries
/// (Fig. 6). 0.0 means the approximation is perfect; 1.0 means every
/// reported neighbor is false.
///
/// Convenience wrapper over [`neighbor_quality`], which also exposes
/// recall@k and the raw counts.
///
/// # Panics
///
/// Panics if the two results have different query counts, or are empty.
pub fn false_neighbor_ratio(approx: &[Vec<usize>], exact: &[Vec<usize>]) -> f64 {
    neighbor_quality(approx, exact).false_neighbor_ratio()
}

/// Top-k selection by squared distance out of an iterator of
/// `(distance, index)` candidates, used by several searchers. Returns
/// exactly `k` entries when at least one candidate exists, padding by
/// repeating the nearest; comparison count is reported through `cmp`.
pub(crate) fn select_k_nearest(
    candidates: impl Iterator<Item = (f32, usize)>,
    k: usize,
    cmp: &mut u64,
) -> Vec<usize> {
    let mut best: Vec<(f32, usize)> = Vec::with_capacity(k + 1);
    for (d, i) in candidates {
        *cmp += 1;
        let pos = best.partition_point(|&(bd, _)| bd <= d);
        if pos < k {
            best.insert(pos, (d, i));
            best.truncate(k);
        }
    }
    let mut out: Vec<usize> = best.iter().map(|&(_, i)| i).collect();
    if let Some(&first) = out.first() {
        while out.len() < k {
            out.push(first);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgepc_geom::Point3;

    #[test]
    fn fnr_zero_for_identical_results() {
        let a = vec![vec![1, 2], vec![3, 4]];
        assert_eq!(false_neighbor_ratio(&a, &a), 0.0);
    }

    #[test]
    fn fnr_counts_misses() {
        let approx = vec![vec![1, 9], vec![3, 4]];
        let exact = vec![vec![1, 2], vec![3, 4]];
        assert_eq!(false_neighbor_ratio(&approx, &exact), 0.25);
    }

    #[test]
    fn fnr_order_independent() {
        let approx = vec![vec![2, 1]];
        let exact = vec![vec![1, 2]];
        assert_eq!(false_neighbor_ratio(&approx, &exact), 0.0);
    }

    #[test]
    #[should_panic(expected = "query counts differ")]
    fn fnr_mismatched_lengths_panic() {
        let _ = false_neighbor_ratio(&[vec![1]], &[vec![1], vec![2]]);
    }

    #[test]
    fn select_k_nearest_orders_and_pads() {
        let mut cmp = 0;
        let cands = [(3.0, 30), (1.0, 10), (2.0, 20)];
        let got = select_k_nearest(cands.iter().copied(), 2, &mut cmp);
        assert_eq!(got, vec![10, 20]);
        let padded = select_k_nearest([(5.0, 50)].iter().copied(), 3, &mut cmp);
        assert_eq!(padded, vec![50, 50, 50]);
        assert!(cmp > 0);
    }

    #[test]
    fn validate_rejects_bad_args() {
        let cloud: PointCloud = (0..4).map(|i| Point3::splat(i as f32)).collect();
        validate_search_args(&cloud, &[0, 3], 2); // fine
        let r = std::panic::catch_unwind(|| validate_search_args(&cloud, &[0], 4));
        assert!(r.is_err(), "k == len must be rejected");
        let r = std::panic::catch_unwind(|| validate_search_args(&cloud, &[9], 1));
        assert!(r.is_err(), "out-of-range query must be rejected");
    }
}
