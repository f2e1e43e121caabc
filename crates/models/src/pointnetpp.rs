//! PointNet++ for semantic segmentation — the paper's Fig. 2a network with
//! pluggable EdgePC strategies.

use edgepc_geom::{required, Point3, PointCloud};
use edgepc_nn::{Params, Sequential, Tensor2};

use crate::fp::{FeaturePropagation, InterpSource};
use crate::sa::SetAbstraction;
use crate::selection::MortonContext;
use crate::strategy::{PipelineStrategy, StageRecord};

/// One SA level's shape: how many points survive, how many neighbors are
/// grouped, and the shared-MLP widths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaLevelSpec {
    /// Points sampled at this level (`n` in the paper).
    pub n_points: usize,
    /// Neighbors per sampled point (`S`/`k`).
    pub k: usize,
    /// Shared MLP widths (last = the level's output channels).
    pub mlp_widths: Vec<usize>,
}

/// Configuration of a [`PointNetPpSeg`] network.
#[derive(Debug, Clone, PartialEq)]
pub struct PointNetPpConfig {
    /// SA levels, outermost first.
    pub levels: Vec<SaLevelSpec>,
    /// Per-FP-module MLP widths; `fp_widths[j]` up-samples level
    /// `depth-j` onto level `depth-j-1`. Must have the same length as
    /// `levels`.
    pub fp_widths: Vec<Vec<usize>>,
    /// Widths of the final per-point head (its last width must be left out;
    /// the class count is appended automatically).
    pub head_widths: Vec<usize>,
    /// Strategy assignment.
    pub strategy: PipelineStrategy,
}

impl PointNetPpConfig {
    /// The paper-shaped network (4 SA + 4 FP) at full width for an
    /// `n_input`-point cloud: 8192 -> 1024 -> 256 -> 64 -> 16 with widths
    /// 64/128/256/512, as in PointNet++(s). Use for cost accounting; too
    /// wide to train quickly on CPU.
    pub fn paper(n_input: usize, strategy: PipelineStrategy) -> Self {
        let quarter = |v: usize| (n_input / v).max(4);
        PointNetPpConfig {
            levels: vec![
                SaLevelSpec {
                    n_points: quarter(8),
                    k: 32,
                    mlp_widths: vec![32, 32, 64],
                },
                SaLevelSpec {
                    n_points: quarter(32),
                    k: 32,
                    mlp_widths: vec![64, 64, 128],
                },
                SaLevelSpec {
                    n_points: quarter(128),
                    k: 32,
                    mlp_widths: vec![128, 128, 256],
                },
                SaLevelSpec {
                    n_points: quarter(512),
                    k: 32,
                    mlp_widths: vec![256, 256, 512],
                },
            ],
            fp_widths: vec![
                vec![256, 256],
                vec![256, 256],
                vec![256, 128],
                vec![128, 128],
            ],
            head_widths: vec![128],
            strategy,
        }
    }

    /// A trainable reduced network (2 SA + 2 FP, narrow widths) for the
    /// accuracy/retraining experiments, sized for `cloud_len = 256`-ish
    /// clouds.
    pub fn tiny(num_classes_hint: usize, strategy: PipelineStrategy) -> Self {
        let _ = num_classes_hint;
        PointNetPpConfig {
            levels: vec![
                SaLevelSpec {
                    n_points: 64,
                    k: 8,
                    mlp_widths: vec![16, 16],
                },
                SaLevelSpec {
                    n_points: 16,
                    k: 4,
                    mlp_widths: vec![32, 32],
                },
            ],
            fp_widths: vec![vec![32, 24], vec![24, 16]],
            head_widths: vec![16],
            strategy,
        }
    }
}

/// PointNet++ semantic segmentation: a stack of SA modules, a mirrored
/// stack of FP modules with skip connections, and a per-point head.
pub struct PointNetPpSeg {
    pub(crate) sa: Vec<SetAbstraction>,
    pub(crate) fp: Vec<FeaturePropagation>,
    pub(crate) head: Sequential,
    num_classes: usize,
    pub(crate) depth: usize,
    cache: Option<ForwardCache>,
}

#[allow(dead_code)] // retained for debugging / future per-level introspection
struct ForwardCache {
    /// Points per level (level 0 = input).
    level_points: Vec<Vec<Point3>>,
    /// Morton context per SA module (if its sampler structurized).
    contexts: Vec<Option<MortonContext>>,
}

impl std::fmt::Debug for PointNetPpSeg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PointNetPpSeg")
            .field("depth", &self.depth)
            .field("num_classes", &self.num_classes)
            .finish_non_exhaustive()
    }
}

impl PointNetPpSeg {
    /// Builds the network for `num_classes` per-point classes.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (`fp_widths` length must
    /// equal the SA depth; widths must be non-empty).
    pub fn new(config: &PointNetPpConfig, num_classes: usize) -> Self {
        let depth = config.levels.len();
        assert!(depth >= 1, "need at least one SA level");
        assert_eq!(config.fp_widths.len(), depth, "one FP module per SA module");
        assert!(num_classes >= 2, "need at least two classes");

        let mut sa = Vec::with_capacity(depth);
        let mut channels = vec![3usize]; // level 0 features: xyz
        for (i, spec) in config.levels.iter().enumerate() {
            sa.push(SetAbstraction::new(
                format!("sa{}", i + 1),
                spec.n_points,
                spec.k,
                channels[i],
                &spec.mlp_widths,
                config.strategy.sample_at(i),
                config.strategy.search_at(i),
                0x5a + i as u64,
            ));
            channels.push(*required(spec.mlp_widths.last(), "non-empty widths"));
        }

        // FP module j up-samples level depth-j onto level depth-j-1.
        let mut fp = Vec::with_capacity(depth);
        let mut carried = channels[depth];
        for j in 0..depth {
            let dense_level = depth - j - 1;
            let skip = channels[dense_level];
            let widths = &config.fp_widths[j];
            fp.push(FeaturePropagation::new(
                format!("fp{}", j + 1),
                carried,
                skip,
                widths,
                config.strategy.upsample_at(j),
                0xf0 + j as u64,
            ));
            carried = *required(widths.last(), "non-empty widths");
        }

        let mut head_dims = vec![carried];
        head_dims.extend_from_slice(&config.head_widths);
        head_dims.push(num_classes);
        let head = Sequential::mlp(&head_dims, 0x6ead);

        PointNetPpSeg {
            sa,
            fp,
            head,
            num_classes,
            depth,
            cache: None,
        }
    }

    /// Number of per-point output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of SA (and FP) modules.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Forward pass over one cloud. Returns per-point logits
    /// (`N x num_classes`) and the stage records of everything executed.
    ///
    /// # Panics
    ///
    /// Panics if the cloud is smaller than the first level's sample count.
    pub fn forward(&mut self, cloud: &PointCloud) -> (Tensor2, Vec<StageRecord>) {
        let _forward_span = edgepc_trace::span("pointnetpp.forward", "model");
        let mut records = Vec::new();
        let mut level_points: Vec<Vec<Point3>> = vec![cloud.points().to_vec()];
        let mut level_feats: Vec<Tensor2> = vec![xyz_features(cloud.points())];
        let mut contexts: Vec<Option<MortonContext>> = Vec::with_capacity(self.depth);

        // --- SA stack ---
        for sa in self.sa.iter_mut() {
            let (pts, feats, selection) = sa.forward(
                required(
                    level_points.last().map(Vec::as_slice),
                    "levels start non-empty",
                ),
                required(level_feats.last(), "levels start non-empty"),
                &mut records,
            );
            contexts.push(selection.morton_context);
            level_points.push(pts);
            level_feats.push(feats);
        }

        // --- FP stack with skip connections ---
        let mut carried = level_feats[self.depth].clone();
        for (j, fp) in self.fp.iter_mut().enumerate() {
            let dense_level = self.depth - j - 1;
            let source = InterpSource::choose(
                fp.strategy,
                contexts[dense_level].as_ref(),
                &level_points[dense_level],
                &level_points[dense_level + 1],
            );
            carried = fp.forward(source, &carried, &level_feats[dense_level], &mut records);
        }

        // --- Per-point head ---
        let logits = crate::observe::mlp_stage("head", &mut self.head, &carried, &mut records);

        self.cache = Some(ForwardCache {
            level_points,
            contexts,
        });
        (logits, records)
    }

    /// Backward pass from the per-point logit gradient; accumulates
    /// parameter gradients in every module.
    ///
    /// # Panics
    ///
    /// Panics if called before [`PointNetPpSeg::forward`].
    pub fn backward(&mut self, d_logits: &Tensor2) {
        assert!(self.cache.is_some(), "backward before forward");
        let mut d_carried = self.head.backward(d_logits);
        // FP modules in reverse execution order; collect skip gradients to
        // inject into the SA backward chain.
        let mut d_skip_by_level: Vec<Option<Tensor2>> = vec![None; self.depth + 1];
        for j in (0..self.fp.len()).rev() {
            let dense_level = self.depth - j - 1;
            let (d_sparse, d_skip) = self.fp[j].backward(&d_carried);
            match &mut d_skip_by_level[dense_level] {
                Some(existing) => *existing = existing.add(&d_skip),
                slot => *slot = Some(d_skip),
            }
            d_carried = d_sparse;
        }
        // d_carried is now the gradient w.r.t. level `depth` features.
        let mut d_feats = d_carried;
        for i in (0..self.sa.len()).rev() {
            // Add any skip gradient arriving at this level's output.
            if let Some(skip) = d_skip_by_level[i + 1].take() {
                d_feats = d_feats.add(&skip);
            }
            d_feats = self.sa[i].backward(&d_feats);
        }
        // Gradient w.r.t. the input xyz features is discarded.
    }
}

impl Params for PointNetPpSeg {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for sa in &mut self.sa {
            sa.mlp_mut().visit_params(f);
        }
        for fp in &mut self.fp {
            fp.mlp_mut().visit_params(f);
        }
        self.head.visit_params(f);
    }
}

/// The standard level-0 feature: each point's own coordinates.
pub(crate) fn xyz_features(points: &[Point3]) -> Tensor2 {
    Tensor2::from_vec(
        points.iter().flat_map(|p| [p.x, p.y, p.z]).collect(),
        points.len(),
        3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgepc_nn::loss;

    fn scattered_cloud(n: usize, seed: u64) -> PointCloud {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(17);
            ((state >> 33) as f32) / (u32::MAX >> 1) as f32
        };
        (0..n)
            .map(|_| Point3::new(next(), next(), next()))
            .collect()
    }

    #[test]
    fn forward_shapes_baseline_and_edgepc() {
        let cloud = scattered_cloud(256, 1);
        for strategy in [
            PipelineStrategy::baseline(),
            PipelineStrategy::edgepc_pointnetpp(2, 16),
        ] {
            let mut model = PointNetPpSeg::new(&PointNetPpConfig::tiny(4, strategy), 4);
            let (logits, records) = model.forward(&cloud);
            assert_eq!((logits.rows(), logits.cols()), (256, 4));
            // 2 SA x 4 records + 2 FP x 2 records + head.
            assert_eq!(records.len(), 2 * 4 + 2 * 2 + 1);
        }
    }

    #[test]
    fn edgepc_strategy_reduces_sample_and_search_work() {
        let cloud = scattered_cloud(256, 2);
        let base_cfg = PointNetPpConfig::tiny(4, PipelineStrategy::baseline());
        let edge_cfg = PointNetPpConfig::tiny(4, PipelineStrategy::edgepc_pointnetpp(2, 16));
        let (_, base_records) = PointNetPpSeg::new(&base_cfg, 4).forward(&cloud);
        let (_, edge_records) = PointNetPpSeg::new(&edge_cfg, 4).forward(&cloud);
        let dist = |rs: &[StageRecord]| -> u64 {
            rs.iter()
                .filter(|r| r.kind.is_sample_or_neighbor())
                .map(|r| r.ops.dist3)
                .sum()
        };
        assert!(
            dist(&edge_records) < dist(&base_records) / 2,
            "edgepc {} vs baseline {}",
            dist(&edge_records),
            dist(&base_records)
        );
    }

    #[test]
    fn backward_accumulates_gradients_everywhere() {
        let cloud = scattered_cloud(256, 3);
        let mut model =
            PointNetPpSeg::new(&PointNetPpConfig::tiny(3, PipelineStrategy::baseline()), 3);
        let (logits, _) = model.forward(&cloud);
        let targets: Vec<u32> = (0..256).map(|i| (i % 3) as u32).collect();
        let (_, d) = loss::softmax_cross_entropy(&logits, &targets);
        model.zero_grads();
        model.backward(&d);
        let mut any_nonzero = 0usize;
        let mut total = 0usize;
        model.visit_params(&mut |_, g| {
            total += 1;
            if g.iter().any(|&v| v != 0.0) {
                any_nonzero += 1;
            }
        });
        assert!(total > 8, "expected many parameter tensors, got {total}");
        assert!(
            any_nonzero * 10 >= total * 9,
            "only {any_nonzero}/{total} parameter tensors received gradient"
        );
    }

    #[test]
    fn one_training_step_reduces_loss() {
        use edgepc_nn::{Adam, Optimizer};
        let cloud = scattered_cloud(256, 4);
        // Learnable labels: above/below the median z.
        let med = 0.5f32;
        let targets: Vec<u32> = cloud.iter().map(|p| u32::from(p.z > med)).collect();
        let mut model =
            PointNetPpSeg::new(&PointNetPpConfig::tiny(2, PipelineStrategy::baseline()), 2);
        let mut opt = Adam::new(0.01);
        let (logits, _) = model.forward(&cloud);
        let (loss0, _) = loss::softmax_cross_entropy(&logits, &targets);
        for _ in 0..8 {
            let (logits, _) = model.forward(&cloud);
            let (_, d) = loss::softmax_cross_entropy(&logits, &targets);
            model.zero_grads();
            model.backward(&d);
            opt.step(&mut model);
        }
        let (logits, _) = model.forward(&cloud);
        let (loss1, _) = loss::softmax_cross_entropy(&logits, &targets);
        assert!(loss1 < loss0, "loss {loss0} -> {loss1} should decrease");
    }

    #[test]
    fn paper_config_builds_and_runs_reduced() {
        // The paper-shaped config on a smaller cloud still runs end to end.
        let cloud = scattered_cloud(1024, 5);
        let cfg = PointNetPpConfig::paper(1024, PipelineStrategy::edgepc_pointnetpp(4, 64));
        let mut model = PointNetPpSeg::new(&cfg, 6);
        let (logits, records) = model.forward(&cloud);
        assert_eq!(logits.rows(), 1024);
        assert_eq!(logits.cols(), 6);
        assert_eq!(model.depth(), 4);
        // 4 SA x 4 + 4 FP x 2 + head.
        assert_eq!(records.len(), 4 * 4 + 4 * 2 + 1);
    }

    #[test]
    #[should_panic(expected = "one FP module per SA module")]
    fn inconsistent_config_panics() {
        let mut cfg = PointNetPpConfig::tiny(2, PipelineStrategy::baseline());
        cfg.fp_widths.pop();
        let _ = PointNetPpSeg::new(&cfg, 2);
    }
}
