//! Uniform-grid (cell-binned) neighbor search — the comparator used by the
//! grid-based prior works the paper discusses ([22, 26, 39, 50]).
//!
//! Points are binned into cubic cells; a k-NN query inspects expanding
//! shells of cells around the query's cell until the k-th best distance is
//! provably closed. Exact (not approximate), much cheaper than brute force
//! on well-distributed data, but its cost is data-dependent and its memory
//! access pattern irregular — the paper's argument for preferring the
//! Morton window approximation on edge GPUs.

use std::collections::BTreeMap;

use edgepc_geom::{OpCounts, Point3, PointCloud};

use crate::{validate_search_args, NeighborResult, NeighborSearcher};

/// Exact k-NN over a uniform cell grid.
///
/// # Example
///
/// ```
/// use edgepc_geom::{Point3, PointCloud};
/// use edgepc_neighbor::{BruteKnn, GridSearcher, NeighborSearcher};
///
/// let cloud: PointCloud = (0..100)
///     .map(|i| Point3::new((i % 10) as f32, (i / 10) as f32, 0.0))
///     .collect();
/// let grid = GridSearcher::new().search(&cloud, &[55], 4);
/// let brute = BruteKnn::new().search(&cloud, &[55], 4);
/// let mut a = grid.neighbors[0].clone();  a.sort_unstable();
/// let mut b = brute.neighbors[0].clone(); b.sort_unstable();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GridSearcher {
    cell_size: Option<f32>,
}

impl GridSearcher {
    /// Creates a grid searcher that auto-tunes its cell size so the
    /// expected occupancy per cell is a few points.
    pub fn new() -> Self {
        GridSearcher { cell_size: None }
    }

    /// Creates a grid searcher with an explicit cell edge length.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not finite and positive.
    pub fn with_cell_size(cell_size: f32) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive and finite, got {cell_size}"
        );
        GridSearcher {
            cell_size: Some(cell_size),
        }
    }

    fn resolve_cell_size(&self, cloud: &PointCloud, k: usize) -> f32 {
        if let Some(c) = self.cell_size {
            return c;
        }
        let bb = cloud.bounding_box();
        let e = bb.extent();
        let volume = (e.x.max(1e-6) * e.y.max(1e-6) * e.z.max(1e-6)) as f64;
        // Aim for ~k points per cell so the first shell usually suffices.
        let target = (volume * k as f64 / cloud.len() as f64).cbrt() as f32;
        target.max(1e-6)
    }
}

fn cell_of(p: Point3, origin: Point3, cell: f32) -> (i32, i32, i32) {
    (
        ((p.x - origin.x) / cell).floor() as i32,
        ((p.y - origin.y) / cell).floor() as i32,
        ((p.z - origin.z) / cell).floor() as i32,
    )
}

impl NeighborSearcher for GridSearcher {
    fn name(&self) -> &'static str {
        "grid"
    }

    /// Bins the cloud and answers each query by shell expansion. Binning
    /// cost and candidate distance evaluations are both included in the
    /// reported counts.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k >= cloud.len()`, or a query is out of range.
    fn search(&self, cloud: &PointCloud, queries: &[usize], k: usize) -> NeighborResult {
        validate_search_args(cloud, queries, k);
        let points = cloud.points();
        let origin = cloud.bounding_box().min();
        let cell = self.resolve_cell_size(cloud, k);

        let mut bins: BTreeMap<(i32, i32, i32), Vec<u32>> = BTreeMap::new();
        for (i, &p) in points.iter().enumerate() {
            bins.entry(cell_of(p, origin, cell))
                .or_default()
                .push(i as u32);
        }
        let mut ops = OpCounts::ZERO;
        ops.gathered_bytes = 16 * points.len() as u64; // binning pass
        ops.cmp += points.len() as u64;

        let neighbors: Vec<Vec<usize>> = queries
            .iter()
            .map(|&q| {
                let qp = points[q];
                let (cx, cy, cz) = cell_of(qp, origin, cell);
                let mut best: Vec<(f32, usize)> = Vec::with_capacity(k + 1);
                let mut ring = 0i32;
                loop {
                    // Visit all cells on the Chebyshev shell of radius
                    // `ring`.
                    for dx in -ring..=ring {
                        for dy in -ring..=ring {
                            for dz in -ring..=ring {
                                if dx.abs().max(dy.abs()).max(dz.abs()) != ring {
                                    continue;
                                }
                                ops.cmp += 1;
                                let Some(ids) = bins.get(&(cx + dx, cy + dy, cz + dz)) else {
                                    continue;
                                };
                                for &j in ids {
                                    let j = j as usize;
                                    if j == q {
                                        continue;
                                    }
                                    ops.dist3 += 1;
                                    let d = qp.distance_squared(points[j]);
                                    let pos = best.partition_point(|&(bd, _)| bd <= d);
                                    if pos < k {
                                        best.insert(pos, (d, j));
                                        best.truncate(k);
                                    }
                                }
                            }
                        }
                    }
                    // A point in a farther shell is at least
                    // `ring * cell_size` away; stop when that bound cannot
                    // improve the current k-th best.
                    let bound = (ring as f32) * cell;
                    let worst = best.last().map_or(f32::INFINITY, |&(d, _)| d);
                    if best.len() == k && bound * bound > worst {
                        break;
                    }
                    ring += 1;
                    // Safety stop: the shell has outgrown the whole cloud.
                    if (ring as f32) * cell > cloud.bounding_box().max_extent() + 2.0 * cell {
                        break;
                    }
                }
                let mut out: Vec<usize> = best.into_iter().map(|(_, j)| j).collect();
                if let Some(&first) = out.first() {
                    while out.len() < k {
                        out.push(first);
                    }
                }
                out
            })
            .collect();
        ops.seq_rounds = 4; // bin (1 scatter round) + a few shell rounds
        NeighborResult { neighbors, ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BruteKnn;

    fn scattered(n: usize) -> PointCloud {
        let mut state = 0xfeed_beef_cafe_f00du64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
            ((state >> 33) as f32) / (u32::MAX >> 1) as f32
        };
        (0..n)
            .map(|_| Point3::new(next(), next(), next()))
            .collect()
    }

    #[test]
    fn matches_brute_force_everywhere() {
        let cloud = scattered(300);
        let queries: Vec<usize> = (0..300).collect();
        let grid = GridSearcher::new().search(&cloud, &queries, 6);
        let brute = BruteKnn::new().search(&cloud, &queries, 6);
        for (q, (a, b)) in grid.neighbors.iter().zip(&brute.neighbors).enumerate() {
            let mut a = a.clone();
            let mut b = b.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "query {q}");
        }
    }

    #[test]
    fn cheaper_than_brute_on_large_clouds() {
        let cloud = scattered(2000);
        let queries: Vec<usize> = (0..2000).collect();
        let grid = GridSearcher::new().search(&cloud, &queries, 8);
        let brute = BruteKnn::new().search(&cloud, &queries, 8);
        assert!(
            grid.ops.dist3 < brute.ops.dist3 / 2,
            "grid {} vs brute {}",
            grid.ops.dist3,
            brute.ops.dist3
        );
    }

    #[test]
    fn explicit_cell_size_works() {
        let cloud = scattered(100);
        let queries = [0usize, 50, 99];
        let grid = GridSearcher::with_cell_size(0.25).search(&cloud, &queries, 3);
        let brute = BruteKnn::new().search(&cloud, &queries, 3);
        for (a, b) in grid.neighbors.iter().zip(&brute.neighbors) {
            let mut a = a.clone();
            let mut b = b.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn handles_degenerate_coplanar_cloud() {
        // All z = 0: bounding-box volume guard must not blow up.
        let cloud: PointCloud = (0..64)
            .map(|i| Point3::new((i % 8) as f32, (i / 8) as f32, 0.0))
            .collect();
        let r = GridSearcher::new().search(&cloud, &[27], 4);
        assert_eq!(r.neighbors[0].len(), 4);
    }

    #[test]
    #[should_panic(expected = "cell_size must be positive")]
    fn bad_cell_size_panics() {
        let _ = GridSearcher::with_cell_size(-1.0);
    }
}
