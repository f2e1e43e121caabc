//! DGCNN — dynamic graph CNN for classification, part segmentation and
//! semantic segmentation (paper Fig. 2b, workloads W3-W6).
//!
//! DGCNN keeps all `N` points through the network (no sampling stage); each
//! EdgeConv module re-computes a k-NN graph — on coordinates for the first
//! module, on *features* for the later ones — which is why the paper's
//! Morton window only applies to module 1 and the later modules alternate
//! between *reusing* the previous graph and exact feature-space k-NN
//! (Sec. 5.2.3, reuse distance 1).

use edgepc_geom::{required, violation, OpCounts, PointCloud};
use edgepc_neighbor::{BruteKnn, MortonWindowSearcher, NeighborSearcher};
use edgepc_nn::pool::{global_max_pool, max_pool_groups, PooledGroups};
use edgepc_nn::{nearest_rows, Params, Sequential, Tensor2};
use edgepc_sim::StageKind;

use crate::strategy::{PipelineStrategy, SearchStrategy, StageRecord};

/// One EdgeConv module: per point, gather `k` neighbors, build edge
/// features `[f_i, f_j - f_i]`, shared MLP, max over neighbors.
pub struct EdgeConv {
    pub(crate) k: usize,
    pub(crate) mlp: Sequential,
    pub(crate) in_channels: usize,
    pub(crate) out_channels: usize,
    pub(crate) name: String,
    cache: Option<EcCache>,
}

struct EcCache {
    neighbors: Vec<usize>,
    pool: PooledGroups,
    rows: usize,
}

impl std::fmt::Debug for EdgeConv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeConv")
            .field("name", &self.name)
            .field("k", &self.k)
            .finish_non_exhaustive()
    }
}

impl EdgeConv {
    /// Creates an EdgeConv with `k` neighbors and a shared MLP over
    /// `2 * in_channels`-wide edge rows.
    ///
    /// # Panics
    ///
    /// Panics if `mlp_widths` is empty or `k == 0`.
    pub fn new(
        name: impl Into<String>,
        k: usize,
        in_channels: usize,
        mlp_widths: &[usize],
        seed: u64,
    ) -> Self {
        assert!(!mlp_widths.is_empty() && k > 0, "invalid EdgeConv config");
        let mut dims = vec![2 * in_channels];
        dims.extend_from_slice(mlp_widths);
        EdgeConv {
            k,
            mlp: Sequential::mlp(&dims, seed),
            in_channels,
            out_channels: *required(mlp_widths.last(), "non-empty widths"),
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

    /// Forward pass given a precomputed neighbor graph: flat `n x k`,
    /// point `i`'s neighbors at `neighbors[i * k..(i + 1) * k]`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn forward(
        &mut self,
        feats: &Tensor2,
        neighbors: &[usize],
        records: &mut Vec<StageRecord>,
    ) -> Tensor2 {
        let n = feats.rows();
        let k = self.k;
        assert_eq!(feats.cols(), self.in_channels, "unexpected input width");
        assert_eq!(neighbors.len(), n * k, "k neighbors per point");
        let c = self.in_channels;

        let edges = crate::observe::stage(
            format!("{}.group", self.name),
            StageKind::Grouping,
            None,
            records,
            || {
                // Parallel edge build over fixed 32-point blocks (forked
                // only above the work floor): each point's k edge rows
                // live in exactly one block, so the matrix is
                // bit-identical for any thread count.
                let row_w = 2 * c;
                let point_elems = k * row_w;
                let mut buf = vec![0.0f32; n * point_elems];
                edgepc_par::with_work(n * point_elems, || {
                    edgepc_par::par_chunks_mut(&mut buf, 32 * point_elems, |ci, block| {
                        let i0 = ci * 32;
                        for (il, rows) in block.chunks_mut(point_elems).enumerate() {
                            let i = i0 + il;
                            let nbrs = &neighbors[i * k..(i + 1) * k];
                            let fi_row = feats.row(i);
                            for (slot, &j) in nbrs.iter().enumerate() {
                                let row = &mut rows[slot * row_w..(slot + 1) * row_w];
                                row[..c].copy_from_slice(fi_row);
                                for (dst, (&fj, &fi)) in
                                    row[c..].iter_mut().zip(feats.row(j).iter().zip(fi_row))
                                {
                                    *dst = fj - fi;
                                }
                            }
                        }
                    });
                });
                let edges = Tensor2::from_vec(buf, n * k, row_w);
                let ops = OpCounts {
                    gathered_bytes: (n * k * 2 * c * 4) as u64,
                    seq_rounds: 1,
                    ..OpCounts::ZERO
                };
                (edges, ops)
            },
        );

        let transformed = crate::observe::mlp_stage(&self.name, &mut self.mlp, &edges, records);
        // Dead from here: holding it through pooling raises peak memory.
        drop(edges);

        let pool = max_pool_groups(&transformed, self.k);
        let out = pool.output.clone();
        self.cache = Some(EcCache {
            neighbors: neighbors.to_vec(),
            pool,
            rows: n,
        });
        out
    }

    /// Backward pass; returns the gradient w.r.t. the input features.
    ///
    /// # Panics
    ///
    /// Panics if called before [`EdgeConv::forward`].
    pub fn backward(&mut self, d_out: &Tensor2) -> Tensor2 {
        let cache = required(self.cache.as_ref(), "backward before forward");
        let d_edges = self.mlp.backward(&cache.pool.backward(d_out));
        let c = self.in_channels;
        let mut d_feats = Tensor2::zeros(cache.rows, c);
        for (i, nbrs) in cache.neighbors.chunks_exact(self.k).enumerate() {
            for (slot, &j) in nbrs.iter().enumerate() {
                let g = d_edges.row(i * self.k + slot);
                for col in 0..c {
                    // row = [f_i, f_j - f_i]: d_f_i += g0 - g1; d_f_j += g1.
                    d_feats.set(i, col, d_feats.get(i, col) + g[col] - g[c + col]);
                    d_feats.set(j, col, d_feats.get(j, col) + g[c + col]);
                }
            }
        }
        d_feats
    }
}

/// Configuration of a DGCNN network.
#[derive(Debug, Clone, PartialEq)]
pub struct DgcnnConfig {
    /// Neighbors per point (`k`).
    pub k: usize,
    /// One MLP width list per EdgeConv module.
    pub ec_widths: Vec<Vec<usize>>,
    /// Head widths (class count appended automatically).
    pub head_widths: Vec<usize>,
    /// Strategy assignment: `search[i]` drives module `i`'s graph.
    pub strategy: PipelineStrategy,
}

impl DgcnnConfig {
    /// Paper-shaped DGCNN (4 EdgeConv modules, widths 64/64/128/256).
    pub fn paper(strategy: PipelineStrategy) -> Self {
        DgcnnConfig {
            k: 20,
            ec_widths: vec![vec![64], vec![64], vec![128], vec![256]],
            head_widths: vec![256],
            strategy,
        }
    }

    /// A trainable reduced DGCNN (3 modules, narrow widths).
    pub fn tiny(strategy: PipelineStrategy) -> Self {
        DgcnnConfig {
            k: 8,
            ec_widths: vec![vec![16], vec![16], vec![24]],
            head_widths: vec![24],
            strategy,
        }
    }
}

/// Shared EdgeConv backbone: computes the per-module neighbor graphs
/// (honoring Morton / reuse strategies) and stacks module outputs.
pub(crate) struct DgcnnBackbone {
    pub(crate) modules: Vec<EdgeConv>,
    pub(crate) strategy: PipelineStrategy,
    pub(crate) k: usize,
}

impl DgcnnBackbone {
    fn new(config: &DgcnnConfig, in_channels: usize) -> Self {
        assert!(
            !config.ec_widths.is_empty(),
            "need at least one EdgeConv module"
        );
        let mut modules = Vec::with_capacity(config.ec_widths.len());
        let mut c = in_channels;
        for (i, widths) in config.ec_widths.iter().enumerate() {
            modules.push(EdgeConv::new(
                format!("ec{}", i + 1),
                config.k,
                c,
                widths,
                0xec + i as u64,
            ));
            c = *required(widths.last(), "non-empty widths");
        }
        DgcnnBackbone {
            modules,
            strategy: config.strategy.clone(),
            k: config.k,
        }
    }

    /// Runs all modules; returns each module's output (for concat heads).
    fn forward(&mut self, cloud: &PointCloud, records: &mut Vec<StageRecord>) -> Vec<Tensor2> {
        let mut feats = crate::pointnetpp::xyz_features(cloud.points());
        let mut outputs = Vec::with_capacity(self.modules.len());
        let mut graph: Option<Vec<usize>> = None;

        for (i, module) in self.modules.iter_mut().enumerate() {
            let neighbors = module_graph(
                self.strategy.search_at(i),
                &module.name,
                cloud,
                &feats,
                graph.take(),
                self.k,
                records,
            );
            let out = module.forward(&feats, &neighbors, records);
            graph = Some(neighbors);
            feats = out.clone();
            outputs.push(out);
        }
        outputs
    }

    /// Backward through all modules given per-module output gradients
    /// (aligned with `forward`'s return); returns nothing (input gradient
    /// is discarded).
    fn backward(&mut self, mut d_outputs: Vec<Tensor2>) {
        // Module i's input is module i-1's output, so chain gradients.
        let mut d_next: Option<Tensor2> = None;
        for i in (0..self.modules.len()).rev() {
            let mut d = required(d_outputs.pop(), "one gradient per module");
            if let Some(chained) = d_next.take() {
                d = d.add(&chained);
            }
            d_next = Some(self.modules[i].backward(&d));
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for m in &mut self.modules {
            m.mlp_mut().visit_params(f);
        }
    }

    fn out_channels(&self) -> usize {
        self.modules.iter().map(|m| m.out_channels()).sum()
    }
}

/// Builds one EdgeConv module's k-NN graph, flat `n x k`, inside its
/// `<name>.search(..)` stage — the single home of DGCNN's per-module
/// dispatch (Sec. 5.2.3), called by both forward paths: exact or
/// Morton-window search on coordinates for the xyz module, exact
/// feature-space k-NN or the previous module's graph `prev` after it.
/// `prev` is taken by value, so reuse hands the same buffer on.
pub(crate) fn module_graph(
    search: SearchStrategy,
    name: &str,
    cloud: &PointCloud,
    feats: &Tensor2,
    prev: Option<Vec<usize>>,
    k: usize,
    records: &mut Vec<StageRecord>,
) -> Vec<usize> {
    let n = cloud.len();
    let on_xyz = |searcher: &dyn NeighborSearcher| {
        let all: Vec<usize> = (0..n).collect();
        let r = searcher.search(cloud, &all, k);
        let mut graph = Vec::with_capacity(n * k);
        for (i, nbrs) in r.neighbors.iter().enumerate() {
            assert_eq!(nbrs.len(), k, "point {i} has wrong neighbor count");
            graph.extend_from_slice(nbrs);
        }
        (graph, r.ops)
    };
    let label = match search {
        SearchStrategy::Knn => "knn",
        SearchStrategy::MortonWindow { .. } => "window",
        SearchStrategy::FeatureKnn => "feat-knn",
        SearchStrategy::Reuse => "reuse",
        SearchStrategy::BallQuery { .. } => "ball",
    };
    crate::observe::stage(
        format!("{name}.search({label})"),
        StageKind::NeighborSearch,
        None,
        records,
        || match search {
            SearchStrategy::Knn => on_xyz(&BruteKnn::new()),
            SearchStrategy::MortonWindow { window } => {
                assert!(
                    prev.is_none(),
                    "Morton window only applies to the xyz module"
                );
                on_xyz(&MortonWindowSearcher::new(window, 10))
            }
            SearchStrategy::FeatureKnn => feature_knn(feats, k),
            SearchStrategy::Reuse => {
                let graph = required(prev, "Reuse requires a previous module's graph");
                // Reuse costs only the cached read of the index array
                // (the paper's ~160 KB per batch, Sec. 5.2.3).
                let ops = OpCounts {
                    gathered_bytes: (n * k * 4) as u64,
                    seq_rounds: 1,
                    ..OpCounts::ZERO
                };
                (graph, ops)
            }
            SearchStrategy::BallQuery { .. } => violation("DGCNN uses k-NN graphs, not ball query"),
        },
    )
}

/// Exact k-NN in feature space: the SOTA graph construction of DGCNN's
/// later modules (`dist(p_i, p_j) = dist(f_i, f_j)`, Sec. 5.2.3), as a
/// flat `n x k` graph. The register-tiled [`nearest_rows`] kernel does
/// the work; the op counts price the per-pair search it replays.
pub fn feature_knn(feats: &Tensor2, k: usize) -> (Vec<usize>, OpCounts) {
    let n = feats.rows();
    let graph = nearest_rows(feats, k);
    let ops = OpCounts {
        feat_flops: (n * (n - 1) * 3 * feats.cols()) as u64,
        cmp: (n * (n - 1)) as u64,
        seq_rounds: (n.max(2) as f64).log2().ceil() as u64,
        ..OpCounts::ZERO
    };
    (graph, ops)
}

/// DGCNN(c): cloud-level classification (workload W3).
pub struct DgcnnClassifier {
    pub(crate) backbone: DgcnnBackbone,
    pub(crate) head: Sequential,
    num_classes: usize,
    cache: Option<ClsCache>,
}

struct ClsCache {
    pool: PooledGroups,
    module_cols: Vec<usize>,
}

impl std::fmt::Debug for DgcnnClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DgcnnClassifier")
            .field("num_classes", &self.num_classes)
            .finish_non_exhaustive()
    }
}

impl DgcnnClassifier {
    /// Builds the classifier for `num_classes` cloud classes.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration.
    pub fn new(config: &DgcnnConfig, num_classes: usize) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        let backbone = DgcnnBackbone::new(config, 3);
        let mut head_dims = vec![backbone.out_channels()];
        head_dims.extend_from_slice(&config.head_widths);
        head_dims.push(num_classes);
        DgcnnClassifier {
            backbone,
            head: Sequential::mlp(&head_dims, 0xc1a55),
            num_classes,
            cache: None,
        }
    }

    /// Number of cloud classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Forward: returns `1 x num_classes` logits plus stage records.
    pub fn forward(&mut self, cloud: &PointCloud) -> (Tensor2, Vec<StageRecord>) {
        let _forward_span = edgepc_trace::span("dgcnn_cls.forward", "model");
        let mut records = Vec::new();
        let outputs = self.backbone.forward(cloud, &mut records);
        let module_cols: Vec<usize> = outputs.iter().map(|t| t.cols()).collect();
        let mut stacked = outputs[0].clone();
        for t in &outputs[1..] {
            stacked = stacked.hstack(t);
        }
        let pool = global_max_pool(&stacked);
        let logits = crate::observe::mlp_stage("head", &mut self.head, &pool.output, &mut records);
        self.cache = Some(ClsCache { pool, module_cols });
        (logits, records)
    }

    /// Backward from the `1 x num_classes` logit gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before [`DgcnnClassifier::forward`].
    pub fn backward(&mut self, d_logits: &Tensor2) {
        let cache = required(self.cache.take(), "backward before forward");
        let d_pooled = self.head.backward(d_logits);
        let d_stacked = cache.pool.backward(&d_pooled);
        // Split columns back into per-module gradients.
        let mut d_outputs = Vec::with_capacity(cache.module_cols.len());
        let mut col0 = 0usize;
        for &cols in &cache.module_cols {
            let mut d = Tensor2::zeros(d_stacked.rows(), cols);
            for r in 0..d_stacked.rows() {
                d.row_mut(r)
                    .copy_from_slice(&d_stacked.row(r)[col0..col0 + cols]);
            }
            d_outputs.push(d);
            col0 += cols;
        }
        self.backbone.backward(d_outputs);
    }
}

impl Params for DgcnnClassifier {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.backbone.visit_params(f);
        self.head.visit_params(f);
    }
}

/// DGCNN(p)/(s): per-point segmentation (workloads W4-W6). Each point's
/// head input is its concatenated module features plus the broadcast
/// global max feature.
pub struct DgcnnSeg {
    pub(crate) backbone: DgcnnBackbone,
    pub(crate) head: Sequential,
    num_classes: usize,
    cache: Option<SegCache>,
}

struct SegCache {
    pool: PooledGroups,
    module_cols: Vec<usize>,
    n: usize,
    local_cols: usize,
}

impl std::fmt::Debug for DgcnnSeg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DgcnnSeg")
            .field("num_classes", &self.num_classes)
            .finish_non_exhaustive()
    }
}

impl DgcnnSeg {
    /// Builds the segmenter for `num_classes` per-point classes.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration.
    pub fn new(config: &DgcnnConfig, num_classes: usize) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        let backbone = DgcnnBackbone::new(config, 3);
        let local = backbone.out_channels();
        let mut head_dims = vec![2 * local]; // local ++ broadcast global
        head_dims.extend_from_slice(&config.head_widths);
        head_dims.push(num_classes);
        DgcnnSeg {
            backbone,
            head: Sequential::mlp(&head_dims, 0x5e6),
            num_classes,
            cache: None,
        }
    }

    /// Number of per-point classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Forward: returns `N x num_classes` logits plus stage records.
    pub fn forward(&mut self, cloud: &PointCloud) -> (Tensor2, Vec<StageRecord>) {
        let _forward_span = edgepc_trace::span("dgcnn_seg.forward", "model");
        let mut records = Vec::new();
        let outputs = self.backbone.forward(cloud, &mut records);
        let module_cols: Vec<usize> = outputs.iter().map(|t| t.cols()).collect();
        let mut stacked = outputs[0].clone();
        for t in &outputs[1..] {
            stacked = stacked.hstack(t);
        }
        let n = stacked.rows();
        let pool = global_max_pool(&stacked);
        // Broadcast the global feature to every row.
        let mut broadcast = Tensor2::zeros(n, stacked.cols());
        for r in 0..n {
            broadcast.row_mut(r).copy_from_slice(pool.output.row(0));
        }
        let head_in = stacked.hstack(&broadcast);
        let logits = crate::observe::mlp_stage("head", &mut self.head, &head_in, &mut records);
        self.cache = Some(SegCache {
            pool,
            module_cols,
            n,
            local_cols: stacked.cols(),
        });
        (logits, records)
    }

    /// Backward from the `N x num_classes` logit gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before [`DgcnnSeg::forward`].
    pub fn backward(&mut self, d_logits: &Tensor2) {
        let cache = required(self.cache.take(), "backward before forward");
        let d_head_in = self.head.backward(d_logits);
        let lc = cache.local_cols;
        // Split into local and broadcast-global parts.
        let mut d_local = Tensor2::zeros(cache.n, lc);
        let mut d_global_sum = Tensor2::zeros(1, lc);
        for r in 0..cache.n {
            let row = d_head_in.row(r);
            d_local.row_mut(r).copy_from_slice(&row[..lc]);
            for (c, &g) in row[lc..].iter().enumerate() {
                d_global_sum.set(0, c, d_global_sum.get(0, c) + g);
            }
        }
        // Global part routes through the max pool back to its winners.
        let d_from_global = cache.pool.backward(&d_global_sum);
        let d_stacked = d_local.add(&d_from_global);
        let mut d_outputs = Vec::with_capacity(cache.module_cols.len());
        let mut col0 = 0usize;
        for &cols in &cache.module_cols {
            let mut d = Tensor2::zeros(cache.n, cols);
            for r in 0..cache.n {
                d.row_mut(r)
                    .copy_from_slice(&d_stacked.row(r)[col0..col0 + cols]);
            }
            d_outputs.push(d);
            col0 += cols;
        }
        self.backbone.backward(d_outputs);
    }
}

impl Params for DgcnnSeg {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.backbone.visit_params(f);
        self.head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgepc_geom::Point3;
    use edgepc_nn::{loss, Adam, Optimizer};

    fn scattered_cloud(n: usize, seed: u64) -> PointCloud {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(23);
            ((state >> 33) as f32) / (u32::MAX >> 1) as f32
        };
        (0..n)
            .map(|_| Point3::new(next(), next(), next()))
            .collect()
    }

    #[test]
    fn classifier_forward_shapes() {
        let cloud = scattered_cloud(128, 1);
        for strategy in [
            PipelineStrategy::baseline_dgcnn(3),
            PipelineStrategy::edgepc_dgcnn(3, 32),
        ] {
            let mut model = DgcnnClassifier::new(&DgcnnConfig::tiny(strategy), 5);
            let (logits, records) = model.forward(&cloud);
            assert_eq!((logits.rows(), logits.cols()), (1, 5));
            assert!(records.len() > 3 * 3);
        }
    }

    #[test]
    fn segmenter_forward_shapes() {
        let cloud = scattered_cloud(128, 2);
        let mut model = DgcnnSeg::new(&DgcnnConfig::tiny(PipelineStrategy::baseline_dgcnn(3)), 4);
        let (logits, _) = model.forward(&cloud);
        assert_eq!((logits.rows(), logits.cols()), (128, 4));
    }

    #[test]
    fn edgepc_dgcnn_reuses_graph_and_saves_work() {
        let cloud = scattered_cloud(256, 3);
        let base = DgcnnConfig::tiny(PipelineStrategy::baseline_dgcnn(3));
        let edge = DgcnnConfig::tiny(PipelineStrategy::edgepc_dgcnn(3, 24));
        let (_, base_records) = DgcnnClassifier::new(&base, 4).forward(&cloud);
        let (_, edge_records) = DgcnnClassifier::new(&edge, 4).forward(&cloud);
        let ns_work = |rs: &[StageRecord]| -> u64 {
            rs.iter()
                .filter(|r| r.kind == StageKind::NeighborSearch)
                .map(|r| r.ops.dist3 + r.ops.feat_flops)
                .sum()
        };
        assert!(
            ns_work(&edge_records) < ns_work(&base_records) / 2,
            "edge {} vs base {}",
            ns_work(&edge_records),
            ns_work(&base_records)
        );
        // The reuse module's record exists and is nearly free.
        let reuse = edge_records
            .iter()
            .find(|r| r.name.contains("reuse"))
            .expect("reuse record");
        assert_eq!(reuse.ops.dist3, 0);
        assert_eq!(reuse.ops.feat_flops, 0);
    }

    #[test]
    fn feature_knn_matches_feature_distances() {
        let feats = Tensor2::from_vec(vec![0.0, 0.0, 1.0, 0.0, 5.0, 5.0, 1.1, 0.1], 4, 2);
        let (nbrs, ops) = feature_knn(&feats, 2);
        // Point 0's nearest in feature space are 1 (d=1) and 3 (d~1.22).
        assert_eq!(nbrs[..2], [1, 3]);
        assert!(ops.feat_flops > 0);
    }

    #[test]
    fn classifier_learns_to_separate_two_shapes() {
        // Tight cluster vs spread cloud: separable by edge lengths.
        let mut samples = Vec::new();
        for s in 0..8u64 {
            let cloud = scattered_cloud(64, 100 + s);
            samples.push((cloud, 0u32));
            let tight: PointCloud = scattered_cloud(64, 200 + s)
                .iter()
                .map(|p| p * 0.05)
                .collect();
            samples.push((tight, 1u32));
        }
        let mut model =
            DgcnnClassifier::new(&DgcnnConfig::tiny(PipelineStrategy::baseline_dgcnn(3)), 2);
        let mut opt = Adam::new(0.02);
        for _ in 0..6 {
            for (cloud, label) in &samples {
                let (logits, _) = model.forward(cloud);
                let (_, d) = loss::softmax_cross_entropy(&logits, &[*label]);
                model.zero_grads();
                model.backward(&d);
                opt.step(&mut model);
            }
        }
        let mut correct = 0;
        for (cloud, label) in &samples {
            let (logits, _) = model.forward(cloud);
            if loss::argmax_rows(&logits)[0] == *label {
                correct += 1;
            }
        }
        assert!(
            correct >= 14,
            "classifier should separate the shapes, got {correct}/16"
        );
    }

    #[test]
    fn segmentation_training_step_reduces_loss() {
        let cloud = scattered_cloud(96, 9);
        let targets: Vec<u32> = cloud.iter().map(|p| u32::from(p.x > 0.5)).collect();
        let mut model = DgcnnSeg::new(&DgcnnConfig::tiny(PipelineStrategy::edgepc_dgcnn(3, 24)), 2);
        let mut opt = Adam::new(0.01);
        let (logits, _) = model.forward(&cloud);
        let (l0, _) = loss::softmax_cross_entropy(&logits, &targets);
        for _ in 0..8 {
            let (logits, _) = model.forward(&cloud);
            let (_, d) = loss::softmax_cross_entropy(&logits, &targets);
            model.zero_grads();
            model.backward(&d);
            opt.step(&mut model);
        }
        let (logits, _) = model.forward(&cloud);
        let (l1, _) = loss::softmax_cross_entropy(&logits, &targets);
        assert!(l1 < l0, "loss {l0} -> {l1}");
    }

    #[test]
    fn edgeconv_numerical_gradient_check() {
        // Fixed neighbor graph; check d(sum(out * dy))/d(feats) against
        // central differences, skipping max-pool kink straddles.
        let n = 12usize;
        let k = 3usize;
        let feats = Tensor2::from_vec(
            (0..n * 2)
                .map(|i| ((i * 13 % 17) as f32) * 0.15 - 1.0)
                .collect(),
            n,
            2,
        );
        let neighbors: Vec<usize> = (0..n)
            .flat_map(|i| (1..=k).map(move |d| (i + d) % n))
            .collect();
        let mut ec = EdgeConv::new("ec", k, 2, &[4], 5);
        let mut records = Vec::new();
        let out = ec.forward(&feats, &neighbors, &mut records);
        let dy = Tensor2::from_vec(
            (0..out.rows() * out.cols())
                .map(|i| ((i % 5) as f32) - 2.0)
                .collect(),
            out.rows(),
            out.cols(),
        );
        ec.mlp_mut().zero_grads();
        let analytic = ec.backward(&dy);

        let objective = |ec: &mut EdgeConv, f: &Tensor2| -> f32 {
            let mut r = Vec::new();
            let y = ec.forward(f, &neighbors, &mut r);
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-3f32;
        let mut worst = 0.0f32;
        let mut checked = 0usize;
        for r in 0..n {
            for c in 0..2 {
                let base = feats.get(r, c);
                let mut fp = feats.clone();
                fp.set(r, c, base + eps);
                let plus = objective(&mut ec, &fp);
                fp.set(r, c, base - eps);
                let minus = objective(&mut ec, &fp);
                fp.set(r, c, base);
                let center = objective(&mut ec, &fp);
                if (plus - 2.0 * center + minus).abs() > 1e-5 {
                    continue; // argmax kink straddled
                }
                let numeric = (plus - minus) / (2.0 * eps);
                worst = worst.max((numeric - analytic.get(r, c)).abs());
                checked += 1;
            }
        }
        assert!(checked > 12, "too many probes skipped");
        assert!(worst < 2e-2, "gradient mismatch {worst}");
    }

    #[test]
    #[should_panic(expected = "Reuse requires a previous module")]
    fn reuse_on_first_module_panics() {
        let cloud = scattered_cloud(32, 5);
        let strategy = PipelineStrategy {
            sample: vec![],
            search: vec![SearchStrategy::Reuse],
            upsample: vec![],
        };
        let mut model = DgcnnClassifier::new(&DgcnnConfig::tiny(strategy), 2);
        let _ = model.forward(&cloud);
    }
}
