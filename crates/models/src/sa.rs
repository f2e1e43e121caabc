//! The SetAbstraction (SA) module of PointNet++ (paper Fig. 2a).
//!
//! One SA module: down-sample the input points, search `k` neighbors per
//! sampled point, *group* each neighborhood into a `(n*k) x (C+3)` matrix
//! (neighbor features concatenated with coordinates relative to the
//! centroid), run the shared MLP, and max-pool each group.

use edgepc_geom::{required, OpCounts, Point3};
use edgepc_nn::pool::{max_pool_groups, PooledGroups};
use edgepc_nn::{Sequential, Tensor2};
use edgepc_sim::StageKind;

use crate::selection::{select, Selection};
use crate::strategy::{SampleStrategy, SearchStrategy, StageRecord};

/// One SetAbstraction module with trainable shared MLP.
pub struct SetAbstraction {
    pub(crate) n_out: usize,
    pub(crate) k: usize,
    pub(crate) mlp: Sequential,
    pub(crate) in_channels: usize,
    pub(crate) out_channels: usize,
    pub(crate) sample_strategy: SampleStrategy,
    pub(crate) search_strategy: SearchStrategy,
    pub(crate) name: String,
    cache: Option<SaCache>,
}

struct SaCache {
    selection: Selection,
    pool: PooledGroups,
    in_rows: usize,
    /// The neighbor count the forward actually grouped with.
    k: usize,
}

impl std::fmt::Debug for SetAbstraction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAbstraction")
            .field("name", &self.name)
            .field("n_out", &self.n_out)
            .field("k", &self.k)
            .finish_non_exhaustive()
    }
}

impl SetAbstraction {
    /// Creates an SA module that samples `n_out` points with `k` neighbors
    /// each and applies a shared MLP of the given widths to the grouped
    /// `(in_channels + 3)`-wide rows.
    ///
    /// # Panics
    ///
    /// Panics if `mlp_widths` is empty or `k == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        n_out: usize,
        k: usize,
        in_channels: usize,
        mlp_widths: &[usize],
        sample_strategy: SampleStrategy,
        search_strategy: SearchStrategy,
        seed: u64,
    ) -> Self {
        assert!(
            !mlp_widths.is_empty(),
            "SA module needs at least one MLP width"
        );
        assert!(k > 0, "k must be positive");
        let mut dims = vec![in_channels + 3];
        dims.extend_from_slice(mlp_widths);
        SetAbstraction {
            n_out,
            k,
            mlp: Sequential::mlp(&dims, seed),
            in_channels,
            out_channels: *required(mlp_widths.last(), "non-empty widths"),
            sample_strategy,
            search_strategy,
            name: name.into(),
            cache: None,
        }
    }

    /// Output feature width (the last MLP width).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The trainable shared MLP (exposed for optimizers and gradient
    /// checks).
    pub fn mlp_mut(&mut self) -> &mut Sequential {
        &mut self.mlp
    }

    /// Number of sampled points this module outputs.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Neighbors per sampled point.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Forward pass.
    ///
    /// `points` are the module's input coordinates and `feats` the matching
    /// `N x C` features. Returns the sampled coordinates, their features
    /// (`n_out x C'`), and the selection (for downstream FP reuse). Stage
    /// work is appended to `records`.
    ///
    /// # Panics
    ///
    /// Panics if `feats.rows() != points.len()` or `feats.cols() !=
    /// in_channels`.
    pub fn forward(
        &mut self,
        points: &[Point3],
        feats: &Tensor2,
        records: &mut Vec<StageRecord>,
    ) -> (Vec<Point3>, Tensor2, Selection) {
        assert_eq!(feats.rows(), points.len(), "one feature row per point");
        assert_eq!(feats.cols(), self.in_channels, "unexpected input width");

        let k = clamped_k(self.k, points.len());
        let selection = select(
            points,
            self.n_out,
            k,
            self.sample_strategy,
            self.search_strategy,
            &self.name,
            records,
        );

        // --- Grouping: build the (n*k) x (C+3) matrix ---
        let c = self.in_channels;
        let n_out = self.n_out;
        let grouped = crate::observe::stage(
            format!("{}.group", self.name),
            StageKind::Grouping,
            None,
            records,
            || {
                // Parallel gather over fixed 32-group blocks (forked only
                // above the work floor): every group's rows live in
                // exactly one block, so workers write disjoint slices and
                // the matrix is bit-identical for any thread count.
                let row_w = c + 3;
                let group_elems = k * row_w;
                let mut buf = vec![0.0f32; n_out * group_elems];
                let selection = &selection;
                edgepc_par::with_work(n_out * group_elems, || {
                    edgepc_par::par_chunks_mut(&mut buf, 32 * group_elems, |ci, block| {
                        let g0 = ci * 32;
                        for (gl, group) in block.chunks_mut(group_elems).enumerate() {
                            let gi = g0 + gl;
                            let centroid = points[selection.sample_indices[gi]];
                            for (slot, &j) in selection.neighbor_indices[gi].iter().enumerate() {
                                let row = &mut group[slot * row_w..(slot + 1) * row_w];
                                row[..c].copy_from_slice(feats.row(j));
                                let rel = points[j] - centroid;
                                row[c] = rel.x;
                                row[c + 1] = rel.y;
                                row[c + 2] = rel.z;
                            }
                        }
                    });
                });
                let grouped = Tensor2::from_vec(buf, n_out * k, row_w);
                let group_bytes = (n_out * k * (c + 3) * 4) as u64;
                (
                    grouped,
                    OpCounts {
                        gathered_bytes: group_bytes,
                        seq_rounds: 1,
                        ..OpCounts::ZERO
                    },
                )
            },
        );

        // --- Shared MLP + max pool ---
        let transformed = crate::observe::mlp_stage(&self.name, &mut self.mlp, &grouped, records);
        // Dead from here: holding it through pooling raises peak memory.
        drop(grouped);

        let pool = max_pool_groups(&transformed, k);
        let out = pool.output.clone();
        let sampled_points: Vec<Point3> = selection
            .sample_indices
            .iter()
            .map(|&i| points[i])
            .collect();

        self.cache = Some(SaCache {
            selection: selection.clone(),
            pool,
            in_rows: points.len(),
            k,
        });
        (sampled_points, out, selection)
    }

    /// Backward pass: routes the output gradient through the pool, the MLP,
    /// and the grouping gather, returning the gradient w.r.t. the input
    /// features. (Coordinates receive no gradient; selection is treated as
    /// constant, exactly as in the paper's retraining.)
    ///
    /// # Panics
    ///
    /// Panics if called before [`SetAbstraction::forward`].
    pub fn backward(&mut self, d_out: &Tensor2) -> Tensor2 {
        let cache = required(self.cache.as_ref(), "backward before forward");
        let d_transformed = cache.pool.backward(d_out);
        let d_grouped = self.mlp.backward(&d_transformed);
        let c = self.in_channels;
        let mut d_feats = Tensor2::zeros(cache.in_rows, c);
        for (gi, nbrs) in cache.selection.neighbor_indices.iter().enumerate() {
            for (slot, &j) in nbrs.iter().enumerate() {
                let g = d_grouped.row(gi * cache.k + slot);
                for (col, &gv) in g[..c].iter().enumerate() {
                    d_feats.set(j, col, d_feats.get(j, col) + gv);
                }
            }
        }
        d_feats
    }
}

/// The neighbor count an SA level really groups with: deep levels can
/// have fewer input points than the configured `k`, so clamp like the
/// reference implementations do.
pub(crate) fn clamped_k(k: usize, n_in: usize) -> usize {
    k.min(n_in.saturating_sub(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgepc_nn::OpCounts as _OpAlias;
    use edgepc_nn::Params;

    fn scattered(n: usize) -> Vec<Point3> {
        let mut state = 0x51_5151u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32) / (u32::MAX >> 1) as f32
        };
        (0..n)
            .map(|_| Point3::new(next(), next(), next()))
            .collect()
    }

    fn module(strategy_pair: (SampleStrategy, SearchStrategy)) -> SetAbstraction {
        SetAbstraction::new(
            "sa1",
            16,
            4,
            3,
            &[8, 8],
            strategy_pair.0,
            strategy_pair.1,
            42,
        )
    }

    fn xyz_feats(points: &[Point3]) -> Tensor2 {
        Tensor2::from_vec(
            points.iter().flat_map(|p| [p.x, p.y, p.z]).collect(),
            points.len(),
            3,
        )
    }

    #[test]
    fn forward_shapes_baseline() {
        let pts = scattered(64);
        let feats = xyz_feats(&pts);
        let mut m = module((
            SampleStrategy::Fps,
            SearchStrategy::BallQuery { radius2: 0.2 },
        ));
        let mut records = Vec::new();
        let (sampled, out, sel) = m.forward(&pts, &feats, &mut records);
        assert_eq!(sampled.len(), 16);
        assert_eq!((out.rows(), out.cols()), (16, 8));
        assert_eq!(sel.sample_indices.len(), 16);
        // sample, search, group, fc records.
        assert_eq!(records.len(), 4);
        assert!(records.iter().any(|r| r.kind == StageKind::Grouping));
        let fc = records
            .iter()
            .find(|r| r.kind == StageKind::FeatureCompute)
            .unwrap();
        assert!(fc.ops.mac > 0);
        assert_eq!(fc.fc_k, Some(6));
    }

    #[test]
    fn forward_shapes_morton() {
        let pts = scattered(64);
        let feats = xyz_feats(&pts);
        let mut m = module((
            SampleStrategy::Morton { bits: 10 },
            SearchStrategy::MortonWindow { window: 16 },
        ));
        let mut records = Vec::new();
        let (_, out, sel) = m.forward(&pts, &feats, &mut records);
        assert_eq!((out.rows(), out.cols()), (16, 8));
        assert!(sel.morton_context.is_some());
    }

    #[test]
    fn deep_level_clamp_does_not_outlive_the_forward() {
        // k = 16 over 12 points clamps to 11 for that forward only: a
        // later, larger cloud must group with the configured 16 again.
        let build = || {
            SetAbstraction::new(
                "sa",
                4,
                16,
                3,
                &[8],
                SampleStrategy::Fps,
                SearchStrategy::Knn,
                7,
            )
        };
        let (small, large) = (scattered(12), scattered(64));
        let mut reused = build();
        let mut records = Vec::new();
        let (_, _, sel) = reused.forward(&small, &xyz_feats(&small), &mut records);
        assert_eq!(sel.neighbor_indices[0].len(), 11);
        assert_eq!(reused.k(), 16);
        let (_, after_small, _) = reused.forward(&large, &xyz_feats(&large), &mut records);
        let (_, fresh, _) = build().forward(&large, &xyz_feats(&large), &mut records);
        assert_eq!(after_small.as_slice(), fresh.as_slice());
    }

    #[test]
    fn backward_returns_input_shaped_gradient() {
        let pts = scattered(64);
        let feats = xyz_feats(&pts);
        let mut m = module((SampleStrategy::Fps, SearchStrategy::Knn));
        let mut records = Vec::new();
        let (_, out, _) = m.forward(&pts, &feats, &mut records);
        let d = m.backward(&Tensor2::from_vec(
            vec![1.0; out.rows() * out.cols()],
            out.rows(),
            out.cols(),
        ));
        assert_eq!((d.rows(), d.cols()), (64, 3));
        // Some gradient must reach the inputs.
        assert!(d.norm() > 0.0);
    }

    #[test]
    fn gradient_flows_only_to_selected_neighbors() {
        let pts = scattered(32);
        let feats = xyz_feats(&pts);
        let mut m = SetAbstraction::new(
            "sa",
            4,
            2,
            3,
            &[4],
            SampleStrategy::Fps,
            SearchStrategy::Knn,
            1,
        );
        let mut records = Vec::new();
        let (_, out, sel) = m.forward(&pts, &feats, &mut records);
        let d = m.backward(&Tensor2::from_vec(
            vec![1.0; out.rows() * out.cols()],
            out.rows(),
            out.cols(),
        ));
        let touched: std::collections::BTreeSet<usize> =
            sel.neighbor_indices.iter().flatten().copied().collect();
        for i in 0..32 {
            let row_norm: f32 = d.row(i).iter().map(|v| v * v).sum();
            if touched.contains(&i) {
                // Winners of max pools carry gradient; non-winners may not,
                // so only assert the converse.
            } else {
                assert_eq!(row_norm, 0.0, "untouched point {i} got gradient");
            }
        }
    }

    #[test]
    fn numerical_gradient_check_through_module() {
        // Check d(sum(out * dy))/d(feats) against finite differences for a
        // few entries, holding the selection fixed (cached from forward).
        let pts = scattered(24);
        let feats = xyz_feats(&pts);
        let mut m = SetAbstraction::new(
            "sa",
            6,
            3,
            3,
            &[5],
            SampleStrategy::Fps,
            SearchStrategy::Knn,
            3,
        );
        let mut records = Vec::new();
        let (_, out, sel) = m.forward(&pts, &feats, &mut records);
        let dy = Tensor2::from_vec(
            (0..out.rows() * out.cols())
                .map(|i| ((i % 5) as f32) - 2.0)
                .collect(),
            out.rows(),
            out.cols(),
        );
        m.mlp.zero_grads();
        let analytic = m.backward(&dy);

        // Finite differences with the same (fixed) selection: rebuild the
        // grouped matrix by hand.
        let objective = |m: &mut SetAbstraction, f: &Tensor2| -> f32 {
            let mut ops = _OpAlias::ZERO;
            let c = 3;
            let k = m.k;
            let mut grouped = Tensor2::zeros(sel.sample_indices.len() * k, c + 3);
            for (gi, (&ci, nbrs)) in sel
                .sample_indices
                .iter()
                .zip(&sel.neighbor_indices)
                .enumerate()
            {
                let centroid = pts[ci];
                for (slot, &j) in nbrs.iter().enumerate() {
                    let row = grouped.row_mut(gi * k + slot);
                    row[..c].copy_from_slice(f.row(j));
                    let rel = pts[j] - centroid;
                    row[c] = rel.x;
                    row[c + 1] = rel.y;
                    row[c + 2] = rel.z;
                }
            }
            let t = m.mlp.forward(&grouped, &mut ops);
            let p = max_pool_groups(&t, k);
            p.output
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };

        // The max pool makes the objective piecewise linear; a probe that
        // straddles an argmax kink (detectable as second-difference
        // curvature) gives a meaningless numeric gradient, so skip those.
        let eps = 1e-3f32;
        let mut worst = 0.0f32;
        let mut checked = 0usize;
        for r in 0..24usize {
            for c in 0..3usize {
                let base = feats.get(r, c);
                let mut fp = feats.clone();
                fp.set(r, c, base + eps);
                let plus = objective(&mut m, &fp);
                fp.set(r, c, base - eps);
                let minus = objective(&mut m, &fp);
                fp.set(r, c, base);
                let center = objective(&mut m, &fp);
                let curvature = (plus - 2.0 * center + minus).abs();
                if curvature > 1e-5 {
                    continue; // kink straddled: numeric value unreliable
                }
                let numeric = (plus - minus) / (2.0 * eps);
                worst = worst.max((numeric - analytic.get(r, c)).abs());
                checked += 1;
            }
        }
        assert!(checked > 50, "too many probes skipped ({checked} kept)");
        assert!(worst < 2e-2, "gradient mismatch {worst}");
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_first_panics() {
        let mut m = module((SampleStrategy::Fps, SearchStrategy::Knn));
        let _ = m.backward(&Tensor2::zeros(16, 8));
    }
}
