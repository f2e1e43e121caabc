//! The Morton index-window neighbor searcher — the paper's contribution
//! (Sec. 5.2.2, Fig. 10b).

use edgepc_geom::{OpCounts, PointCloud};
use edgepc_morton::{Structurized, Structurizer};

use crate::{select_k_nearest, validate_search_args, NeighborResult, NeighborSearcher};

/// Queries per parallel chunk. Fixed (never derived from the worker
/// count) so results are deterministic for any thread budget.
const QUERY_CHUNK: usize = 64;

/// Approximate neighbor search on a Morton-structurized cloud: the `k`
/// neighbors of the point at sorted position `j` are taken from the index
/// window `{j - W/2, ..., j + W/2}`, reducing per-query work from `O(N)` to
/// `O(W)`.
///
/// With `W == k` the search degenerates to pure index picking (no distance
/// computation at all); larger windows spend `W` distance evaluations to
/// choose the best `k`, trading latency for a lower false-neighbor ratio —
/// the knob of Fig. 15a.
///
/// # Example
///
/// ```
/// use edgepc_geom::{Point3, PointCloud};
/// use edgepc_neighbor::{MortonWindowSearcher, NeighborSearcher};
///
/// // The paper's Fig. 10(b): with W = k + 1 = 4 the window around P2
/// // selects {P1, P4, P0}.
/// let cloud = PointCloud::from_points(vec![
///     Point3::new(3.0, 6.0, 2.0),
///     Point3::new(1.0, 3.0, 1.0),
///     Point3::new(4.0, 3.0, 2.0),
///     Point3::new(0.0, 0.0, 0.0),
///     Point3::new(5.0, 1.0, 0.0),
/// ]);
/// let r = MortonWindowSearcher::new(4, 10).search(&cloud, &[2], 3);
/// let mut got = r.neighbors[0].clone();
/// got.sort_unstable();
/// assert_eq!(got, vec![0, 1, 4]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MortonWindowSearcher {
    window: usize,
    structurizer: Structurizer,
}

impl MortonWindowSearcher {
    /// Creates a window searcher with search window `window` (`W` in the
    /// paper) and the given Morton grid resolution.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `bits_per_axis` is out of range for
    /// [`Structurizer::new`].
    pub fn new(window: usize, bits_per_axis: u32) -> Self {
        assert!(window > 0, "window must be positive");
        MortonWindowSearcher {
            window,
            structurizer: Structurizer::new(bits_per_axis),
        }
    }

    /// The degenerate configuration `W = k`: pure index picking with zero
    /// distance work, at the paper's 32-bit Morton resolution.
    pub fn degenerate(k: usize) -> Self {
        MortonWindowSearcher {
            window: k,
            structurizer: Structurizer::paper_default(),
        }
    }

    /// The search window size `W`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Searches on an existing structurization — the reuse path of
    /// Sec. 5.2.3, where the sampler's Morton sort is reused "without any
    /// extra overhead". Both `query_positions` and the returned neighbor
    /// lists are *sorted positions* into `s.cloud()`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k >= s.cloud().len()`, `k > window`, or a query
    /// position is out of range.
    pub fn search_structurized(
        &self,
        s: &Structurized,
        query_positions: &[usize],
        k: usize,
    ) -> NeighborResult {
        let n = s.cloud().len();
        validate_search_args(s.cloud(), query_positions, k);
        assert!(
            k <= self.window,
            "k = {k} exceeds the search window W = {}",
            self.window
        );
        let points = s.cloud().points();
        let half = self.window / 2;
        let mut span = edgepc_trace::span("window.search", "search");
        let mut ops = OpCounts::ZERO;

        // Parallel across fixed 64-query chunks; each chunk carries its
        // own op tally and the tallies fold in chunk order, so both the
        // neighbor lists and the counts are thread-count independent.
        let per_chunk = edgepc_par::par_chunk_map(query_positions, QUERY_CHUNK, |_, qs| {
            let mut dist3 = 0u64;
            let mut cmp = 0u64;
            let lists: Vec<Vec<usize>> = qs
                .iter()
                .map(|&j| {
                    // Keep a full W+1-wide span even at the array
                    // boundaries by shifting the window inward.
                    let lo = j.saturating_sub(half);
                    let hi = (lo + self.window).min(n - 1);
                    let lo = hi.saturating_sub(self.window);
                    let cand_count = hi - lo; // excludes the query itself
                    if cand_count <= k {
                        // Degenerate pick: all window positions, no
                        // distances.
                        let mut out: Vec<usize> = (lo..=hi).filter(|&p| p != j).collect();
                        if let Some(&first) = out.first() {
                            while out.len() < k {
                                out.push(first);
                            }
                        }
                        out
                    } else {
                        dist3 += cand_count as u64;
                        select_k_nearest(
                            (lo..=hi)
                                .filter(|&p| p != j)
                                .map(|p| (points[j].distance_squared(points[p]), p)),
                            k,
                            &mut cmp,
                        )
                    }
                })
                .collect();
            (lists, dist3, cmp)
        });
        let mut neighbors: Vec<Vec<usize>> = Vec::with_capacity(query_positions.len());
        for (mut lists, dist3, cmp) in per_chunk {
            neighbors.append(&mut lists);
            ops.dist3 += dist3;
            ops.cmp += cmp;
        }
        // Fully parallel across queries; per-query top-k over W elements.
        ops.seq_rounds = (self.window.max(2) as f64).log2().ceil() as u64;
        span.set_ops(ops);
        // Close the stage span before any audit work: the sampled exact
        // re-search is measurement overhead, not pipeline cost.
        drop(span);
        crate::audit::maybe_audit_search(s, query_positions, k, &neighbors);
        NeighborResult { neighbors, ops }
    }
}

impl NeighborSearcher for MortonWindowSearcher {
    fn name(&self) -> &'static str {
        "morton-window"
    }

    /// Structurizes `cloud` (cost included — use
    /// [`MortonWindowSearcher::search_structurized`] to reuse a sampler's
    /// sort for free) and answers queries through the index window,
    /// returning neighbor indices in the *original* cloud order.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k >= cloud.len()`, `k > window`, or a query is
    /// out of range.
    fn search(&self, cloud: &PointCloud, queries: &[usize], k: usize) -> NeighborResult {
        validate_search_args(cloud, queries, k);
        let s = self.structurizer.structurize(cloud);
        let inv = s.inverse_permutation();
        let query_positions: Vec<usize> = queries.iter().map(|&q| inv[q]).collect();
        let mut result = self.search_structurized(&s, &query_positions, k);
        for list in &mut result.neighbors {
            for p in list.iter_mut() {
                *p = s.permutation()[*p];
            }
        }
        result.ops += s.ops();
        NeighborResult {
            neighbors: result.neighbors,
            ops: result.ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{false_neighbor_ratio, BruteKnn};
    use edgepc_geom::Point3;
    use edgepc_morton::VoxelGrid;

    fn paper_points() -> PointCloud {
        PointCloud::from_points(vec![
            Point3::new(3.0, 6.0, 2.0),
            Point3::new(1.0, 3.0, 1.0),
            Point3::new(4.0, 3.0, 2.0),
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(5.0, 1.0, 0.0),
        ])
    }

    fn scattered(n: usize) -> PointCloud {
        let mut state = 0x0dd0_c0de_1234_5678u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(3);
            ((state >> 33) as f32) / (u32::MAX >> 1) as f32
        };
        (0..n)
            .map(|_| Point3::new(next(), next(), next()))
            .collect()
    }

    #[test]
    fn paper_fig10b_window_selection() {
        // On the unit grid the sorted order is {3, 1, 4, 2, 0}; P2 sits at
        // sorted position 3 and the W = 4 window selects {P1, P4, P0}.
        let cloud = paper_points();
        let grid = VoxelGrid::with_cell_size(Point3::ORIGIN, 1.0, 10);
        let s = Structurizer::new(10).structurize_with_grid(&cloud, grid);
        let searcher = MortonWindowSearcher::new(4, 10);
        let r = searcher.search_structurized(&s, &[3], 3);
        // Map sorted positions back to original indices.
        let mut got: Vec<usize> = r.neighbors[0].iter().map(|&p| s.permutation()[p]).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 4]);
    }

    #[test]
    fn degenerate_window_uses_no_distances() {
        let cloud = scattered(256);
        let queries: Vec<usize> = (0..256).collect();
        let s = Structurizer::paper_default().structurize(&cloud);
        let r = MortonWindowSearcher::degenerate(8).search_structurized(&s, &queries, 8);
        assert_eq!(r.ops.dist3, 0, "W = k is a pure index pick");
        for list in &r.neighbors {
            assert_eq!(list.len(), 8);
        }
    }

    #[test]
    fn wider_window_costs_w_distances_per_query() {
        let cloud = scattered(512);
        let queries: Vec<usize> = (0..512).collect();
        let s = Structurizer::paper_default().structurize(&cloud);
        let r = MortonWindowSearcher::new(32, 10).search_structurized(&s, &queries, 8);
        assert_eq!(r.ops.dist3, 512 * 32);
    }

    #[test]
    fn fnr_decreases_as_window_grows() {
        // The Fig. 15a trend: widening W monotonically reduces the false
        // neighbor ratio.
        let cloud = scattered(512);
        let queries: Vec<usize> = (0..512).collect();
        let exact = BruteKnn::new().search(&cloud, &queries, 8);
        let mut last = 1.1f64;
        for w in [8usize, 32, 128, 1022] {
            let r = MortonWindowSearcher::new(w, 10).search(&cloud, &queries, 8);
            let fnr = false_neighbor_ratio(&r.neighbors, &exact.neighbors);
            assert!(
                fnr <= last + 0.02,
                "window {w}: fnr {fnr} should not exceed previous {last}"
            );
            last = fnr;
        }
        // A window spanning the entire cloud is exact.
        assert!(last < 1e-9, "full window must be exact, got {last}");
    }

    #[test]
    fn window_search_much_cheaper_than_brute() {
        let cloud = scattered(2048);
        let queries: Vec<usize> = (0..2048).collect();
        let exact = BruteKnn::new().search(&cloud, &queries, 16);
        let approx = MortonWindowSearcher::new(64, 10).search(&cloud, &queries, 16);
        // O(W) vs O(N) per query.
        assert!(approx.ops.dist3 * 8 < exact.ops.dist3);
    }

    #[test]
    fn boundary_queries_get_full_windows() {
        let cloud = scattered(64);
        let s = Structurizer::paper_default().structurize(&cloud);
        let r = MortonWindowSearcher::new(16, 10).search_structurized(&s, &[0, 63], 8);
        for list in &r.neighbors {
            assert_eq!(list.len(), 8);
            let unique: std::collections::BTreeSet<_> = list.iter().collect();
            assert_eq!(
                unique.len(),
                8,
                "boundary windows are shifted, not truncated"
            );
        }
    }

    #[test]
    fn trait_path_maps_back_to_original_indices() {
        let cloud = scattered(128);
        let queries: Vec<usize> = (0..128).step_by(3).collect();
        let r = MortonWindowSearcher::new(16, 10).search(&cloud, &queries, 4);
        for (qi, list) in queries.iter().zip(&r.neighbors) {
            for &n in list {
                assert!(n < 128);
                assert_ne!(n, *qi, "self must be excluded");
            }
        }
        // Trait path pays for structurization.
        assert_eq!(r.ops.morton_encodes, 128);
    }

    #[test]
    #[should_panic(expected = "exceeds the search window")]
    fn k_larger_than_window_panics() {
        let cloud = scattered(64);
        let s = Structurizer::paper_default().structurize(&cloud);
        let _ = MortonWindowSearcher::new(4, 10).search_structurized(&s, &[0], 8);
    }
}
