//! The FeaturePropagation (FP) module of PointNet++ — the up-sampling /
//! interpolation stage (paper Fig. 2a and Sec. 5.1.2).
//!
//! One FP module: interpolate the sparse level's features onto the dense
//! level's points (3-NN inverse-distance blend, or the Morton stride
//! window), concatenate with the dense level's skip features, and run a
//! shared MLP.

use edgepc_geom::{required, Point3};
use edgepc_nn::{Sequential, Tensor2};
use edgepc_sample::{InterpPlan, MortonInterpolator, ThreeNnInterpolator};
use edgepc_sim::StageKind;

use crate::selection::MortonContext;
use crate::strategy::{StageRecord, UpsampleStrategy};

/// How the FP module locates its interpolation sources.
pub enum InterpSource<'a> {
    /// Exact: search all sparse points for each dense point.
    Exact {
        /// Dense-level coordinates (interpolation targets).
        dense: &'a [Point3],
        /// Sparse-level coordinates (interpolation sources).
        sparse: &'a [Point3],
    },
    /// Morton: sparse points were picked at known sorted positions of the
    /// dense level's Z-curve order; only stride candidates are checked.
    Morton {
        /// Dense-level coordinates in original order.
        dense: &'a [Point3],
        /// The Morton context produced when the paired SA module sampled
        /// (positions ascending, plus the permutations).
        context: &'a MortonContext,
    },
}

impl<'a> InterpSource<'a> {
    /// The source an FP module interpolates from: the paired SA module's
    /// Morton context when one exists and the strategy can exploit it,
    /// the exact dense/sparse coordinate pair otherwise.
    pub(crate) fn choose(
        strategy: UpsampleStrategy,
        context: Option<&'a MortonContext>,
        dense: &'a [Point3],
        sparse: &'a [Point3],
    ) -> Self {
        match (context, strategy) {
            (Some(context), UpsampleStrategy::Morton) => InterpSource::Morton { dense, context },
            _ => InterpSource::Exact { dense, sparse },
        }
    }
}

/// One FeaturePropagation module with trainable shared MLP.
pub struct FeaturePropagation {
    pub(crate) mlp: Sequential,
    pub(crate) sparse_channels: usize,
    pub(crate) skip_channels: usize,
    pub(crate) out_channels: usize,
    pub(crate) strategy: UpsampleStrategy,
    pub(crate) name: String,
    cache: Option<FpCache>,
}

struct FpCache {
    plan: InterpPlan,
    sparse_rows: usize,
}

impl std::fmt::Debug for FeaturePropagation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeaturePropagation")
            .field("name", &self.name)
            .field("strategy", &self.strategy)
            .finish_non_exhaustive()
    }
}

impl FeaturePropagation {
    /// Creates an FP module blending `sparse_channels`-wide interpolated
    /// features with `skip_channels`-wide skip features through an MLP of
    /// the given widths.
    ///
    /// # Panics
    ///
    /// Panics if `mlp_widths` is empty.
    pub fn new(
        name: impl Into<String>,
        sparse_channels: usize,
        skip_channels: usize,
        mlp_widths: &[usize],
        strategy: UpsampleStrategy,
        seed: u64,
    ) -> Self {
        assert!(
            !mlp_widths.is_empty(),
            "FP module needs at least one MLP width"
        );
        let mut dims = vec![sparse_channels + skip_channels];
        dims.extend_from_slice(mlp_widths);
        FeaturePropagation {
            mlp: Sequential::mlp(&dims, seed),
            sparse_channels,
            skip_channels,
            out_channels: *required(mlp_widths.last(), "non-empty widths"),
            strategy,
            name: name.into(),
            cache: None,
        }
    }

    /// Output feature width.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The trainable shared MLP.
    pub fn mlp_mut(&mut self) -> &mut Sequential {
        &mut self.mlp
    }

    /// The configured upsample strategy.
    pub fn strategy(&self) -> UpsampleStrategy {
        self.strategy
    }

    /// Forward pass: interpolate `sparse_feats` onto the dense points,
    /// concatenate `skip_feats`, and apply the MLP. The interpolation plan
    /// is cached for backward.
    ///
    /// With [`UpsampleStrategy::Morton`] but no Morton context available
    /// (e.g. the paired SA module used FPS), the module falls back to exact
    /// interpolation — and pays for it — mirroring how a real deployment
    /// can only exploit a sort that exists.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between points and features.
    pub fn forward(
        &mut self,
        source: InterpSource<'_>,
        sparse_feats: &Tensor2,
        skip_feats: &Tensor2,
        records: &mut Vec<StageRecord>,
    ) -> Tensor2 {
        assert_eq!(sparse_feats.cols(), self.sparse_channels, "sparse width");
        assert_eq!(skip_feats.cols(), self.skip_channels, "skip width");

        let (plan, interpolated) =
            upsample(&self.name, self.strategy, source, sparse_feats, records);
        let stacked = interpolated.hstack(skip_feats);
        let out = crate::observe::mlp_stage(&self.name, &mut self.mlp, &stacked, records);

        self.cache = Some(FpCache {
            plan,
            sparse_rows: sparse_feats.rows(),
        });
        out
    }
}

/// The `<name>.upsample` stage both forward paths run: plans the
/// interpolation and blends `sparse_feats` onto the dense points. Returns
/// the plan (cached by the eager module for backward) and the
/// interpolated `N_dense x C_sparse` features.
pub(crate) fn upsample(
    name: &str,
    strategy: UpsampleStrategy,
    source: InterpSource<'_>,
    sparse_feats: &Tensor2,
    records: &mut Vec<StageRecord>,
) -> (InterpPlan, Tensor2) {
    let sparse_channels = sparse_feats.cols();
    crate::observe::stage(
        format!("{name}.upsample"),
        StageKind::Sample,
        None,
        records,
        || {
            let plan = plan_interpolation(strategy, source);
            let mut up_ops = plan.ops;
            up_ops.gathered_bytes += (plan.len() * 3 * sparse_channels * 4) as u64;

            let mut interpolated = Tensor2::zeros(plan.len(), sparse_channels);
            for (j, (idx, w)) in plan.indices.iter().zip(&plan.weights).enumerate() {
                let row = interpolated.row_mut(j);
                for (&s, &wv) in idx.iter().zip(w) {
                    for (o, &f) in row.iter_mut().zip(sparse_feats.row(s)) {
                        *o += wv * f;
                    }
                }
            }
            ((plan, interpolated), up_ops)
        },
    )
}

/// Builds the interpolation plan for the given strategy/source pair.
fn plan_interpolation(strategy: UpsampleStrategy, source: InterpSource<'_>) -> InterpPlan {
    match (strategy, source) {
        (UpsampleStrategy::Morton, InterpSource::Morton { dense, context }) => {
            // Interpolate in sorted space, then re-index the plan to
            // the original dense order: the dense point at original
            // index i sits at sorted position inverse_permutation[i].
            let dense_sorted: Vec<Point3> = context.permutation.iter().map(|&o| dense[o]).collect();
            let sorted_plan = MortonInterpolator::new().plan(&dense_sorted, &context.positions);
            let mut indices = Vec::with_capacity(dense.len());
            let mut weights = Vec::with_capacity(dense.len());
            for orig in 0..dense.len() {
                let pos = context.inverse_permutation[orig];
                indices.push(sorted_plan.indices[pos]);
                weights.push(sorted_plan.weights[pos]);
            }
            InterpPlan {
                indices,
                weights,
                ops: sorted_plan.ops,
            }
        }
        (_, InterpSource::Exact { dense, sparse }) => {
            ThreeNnInterpolator::new().plan(dense, sparse)
        }
        (UpsampleStrategy::ThreeNn, InterpSource::Morton { dense, context }) => {
            // Exact interpolation; reconstruct sparse coordinates from
            // the context.
            let sparse: Vec<Point3> = context
                .positions
                .iter()
                .map(|&p| dense[context.permutation[p]])
                .collect();
            ThreeNnInterpolator::new().plan(dense, &sparse)
        }
    }
}

impl FeaturePropagation {
    /// Backward pass: returns `(d_sparse_feats, d_skip_feats)`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`FeaturePropagation::forward`].
    pub fn backward(&mut self, d_out: &Tensor2) -> (Tensor2, Tensor2) {
        let cache = required(self.cache.as_ref(), "backward before forward");
        let d_stacked = self.mlp.backward(d_out);
        let cs = self.sparse_channels;
        let mut d_sparse = Tensor2::zeros(cache.sparse_rows, cs);
        let mut d_skip = Tensor2::zeros(d_stacked.rows(), self.skip_channels);
        for j in 0..d_stacked.rows() {
            let row = d_stacked.row(j);
            // Interpolated part scatters through the plan.
            for (&s, &w) in cache.plan.indices[j].iter().zip(&cache.plan.weights[j]) {
                for (col, &g) in row[..cs].iter().enumerate() {
                    d_sparse.set(s, col, d_sparse.get(s, col) + w * g);
                }
            }
            d_skip.row_mut(j).copy_from_slice(&row[cs..]);
        }
        (d_sparse, d_skip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::select;
    use crate::strategy::{SampleStrategy, SearchStrategy};
    use edgepc_nn::Params;

    fn scattered(n: usize) -> Vec<Point3> {
        let mut state = 0xf00d_5eed_1234_5678u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
            ((state >> 33) as f32) / (u32::MAX >> 1) as f32
        };
        (0..n)
            .map(|_| Point3::new(next(), next(), next()))
            .collect()
    }

    #[test]
    fn forward_shapes_exact() {
        let dense = scattered(64);
        let sparse = scattered(16);
        let mut fp = FeaturePropagation::new("fp1", 8, 4, &[12], UpsampleStrategy::ThreeNn, 7);
        let sparse_feats = Tensor2::zeros(16, 8);
        let skip = Tensor2::zeros(64, 4);
        let mut records = Vec::new();
        let out = fp.forward(
            InterpSource::Exact {
                dense: &dense,
                sparse: &sparse,
            },
            &sparse_feats,
            &skip,
            &mut records,
        );
        assert_eq!((out.rows(), out.cols()), (64, 12));
        assert_eq!(fp.out_channels(), 12);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, StageKind::Sample);
        assert_eq!(records[1].kind, StageKind::FeatureCompute);
    }

    #[test]
    fn morton_source_reuses_positions_and_is_cheap() {
        let dense = scattered(256);
        let mut records = Vec::new();
        let sel = select(
            &dense,
            64,
            4,
            SampleStrategy::Morton { bits: 10 },
            SearchStrategy::MortonWindow { window: 16 },
            "sa1",
            &mut records,
        );
        let ctx = sel.morton_context.unwrap();
        let mut fp = FeaturePropagation::new("fp", 5, 3, &[6], UpsampleStrategy::Morton, 1);
        let sparse_feats = Tensor2::zeros(64, 5);
        let skip = Tensor2::zeros(256, 3);
        records.clear();
        let out = fp.forward(
            InterpSource::Morton {
                dense: &dense,
                context: &ctx,
            },
            &sparse_feats,
            &skip,
            &mut records,
        );
        assert_eq!(out.rows(), 256);
        // The Morton plan checks at most 4 candidates per dense point.
        let up = &records[0];
        assert!(up.ops.dist3 <= 4 * 256, "got {}", up.ops.dist3);
        // Exact would pay 256 * 64.
        let exact_plan = ThreeNnInterpolator::new().plan(
            &dense,
            &ctx.positions
                .iter()
                .map(|&p| dense[ctx.permutation[p]])
                .collect::<Vec<_>>(),
        );
        assert_eq!(exact_plan.ops.dist3, 256 * 64);
    }

    #[test]
    fn backward_shapes_and_scatter() {
        let dense = scattered(32);
        let sparse = scattered(8);
        let mut fp = FeaturePropagation::new("fp", 4, 2, &[5], UpsampleStrategy::ThreeNn, 2);
        let sparse_feats = Tensor2::from_vec((0..32).map(|v| v as f32 * 0.1).collect(), 8, 4);
        let skip = Tensor2::from_vec((0..64).map(|v| v as f32 * 0.01).collect(), 32, 2);
        let mut records = Vec::new();
        let out = fp.forward(
            InterpSource::Exact {
                dense: &dense,
                sparse: &sparse,
            },
            &sparse_feats,
            &skip,
            &mut records,
        );
        let dy = Tensor2::from_vec(vec![1.0; out.rows() * out.cols()], out.rows(), out.cols());
        fp.mlp_mut().zero_grads();
        let (d_sparse, d_skip) = fp.backward(&dy);
        assert_eq!((d_sparse.rows(), d_sparse.cols()), (8, 4));
        assert_eq!((d_skip.rows(), d_skip.cols()), (32, 2));
        assert!(d_sparse.norm() > 0.0);
        assert!(d_skip.norm() > 0.0);
    }

    #[test]
    fn numerical_gradient_through_interpolation() {
        let dense = scattered(16);
        let sparse = scattered(6);
        let mut fp = FeaturePropagation::new("fp", 3, 2, &[4], UpsampleStrategy::ThreeNn, 5);
        let sparse_feats =
            Tensor2::from_vec((0..18).map(|v| (v as f32) * 0.2 - 1.5).collect(), 6, 3);
        let skip = Tensor2::from_vec((0..32).map(|v| (v as f32) * 0.05).collect(), 16, 2);
        let mut records = Vec::new();
        let out = fp.forward(
            InterpSource::Exact {
                dense: &dense,
                sparse: &sparse,
            },
            &sparse_feats,
            &skip,
            &mut records,
        );
        let dy = Tensor2::from_vec(
            (0..out.rows() * out.cols())
                .map(|i| ((i % 3) as f32) - 1.0)
                .collect(),
            out.rows(),
            out.cols(),
        );
        fp.mlp_mut().zero_grads();
        let (d_sparse, _) = fp.backward(&dy);

        let eps = 1e-2f32;
        let mut worst = 0.0f32;
        for probe in [(0usize, 0usize), (3, 1), (5, 2)] {
            let mut f = sparse_feats.clone();
            f.set(probe.0, probe.1, sparse_feats.get(probe.0, probe.1) + eps);
            let mut r = Vec::new();
            let plus = fp
                .forward(
                    InterpSource::Exact {
                        dense: &dense,
                        sparse: &sparse,
                    },
                    &f,
                    &skip,
                    &mut r,
                )
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>();
            f.set(probe.0, probe.1, sparse_feats.get(probe.0, probe.1) - eps);
            let minus = fp
                .forward(
                    InterpSource::Exact {
                        dense: &dense,
                        sparse: &sparse,
                    },
                    &f,
                    &skip,
                    &mut r,
                )
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>();
            let numeric = (plus - minus) / (2.0 * eps);
            worst = worst.max((numeric - d_sparse.get(probe.0, probe.1)).abs());
        }
        assert!(worst < 5e-2, "gradient mismatch {worst}");
    }

    #[test]
    fn exact_strategy_accepts_morton_source() {
        // A ThreeNn-configured FP module given a Morton source reconstructs
        // the sparse coordinates from the context and interpolates exactly.
        let dense = scattered(64);
        let mut records = Vec::new();
        let sel = select(
            &dense,
            16,
            4,
            SampleStrategy::Morton { bits: 10 },
            SearchStrategy::MortonWindow { window: 8 },
            "sa1",
            &mut records,
        );
        let ctx = sel.morton_context.unwrap();
        let mut fp = FeaturePropagation::new("fp", 3, 2, &[4], UpsampleStrategy::ThreeNn, 9);
        let sparse_feats = Tensor2::zeros(16, 3);
        let skip = Tensor2::zeros(64, 2);
        records.clear();
        let out = fp.forward(
            InterpSource::Morton {
                dense: &dense,
                context: &ctx,
            },
            &sparse_feats,
            &skip,
            &mut records,
        );
        assert_eq!((out.rows(), out.cols()), (64, 4));
        // The exact plan pays O(N * n) distances.
        assert_eq!(records[0].ops.dist3, 64 * 16);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_first_panics() {
        let mut fp = FeaturePropagation::new("fp", 2, 2, &[2], UpsampleStrategy::ThreeNn, 0);
        let _ = fp.backward(&Tensor2::zeros(4, 2));
    }
}
