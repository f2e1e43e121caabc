//! Compiled forward paths: the eager models lowered into `edgepc-ir`
//! plans.
//!
//! [`CompiledPointNetPp`] and [`CompiledDgcnn`] snapshot a trained
//! model's layer parameters into per-module op graphs (gather -> shared
//! MLP -> pool, concat -> MLP, ...), compile them once, and then execute
//! every forward pass over a single reusable arena ([`ExecState`]). The data-dependent glue — sampling, neighbor
//! search, interpolation — is not replayed here: both drivers call the
//! same functions (`selection::select`, `fp::upsample`,
//! `dgcnn::module_graph`, `sa::clamped_k`), so stage records and logits
//! are bit-identical to the eager oracle at any thread budget.
//!
//! What this file owns is the tensor work: each `Linear(→ReLU)` layer
//! runs as a single fused pass, and the grouping gather streams rows
//! directly into the kernel's panel staging instead of materializing the
//! `(n*k) x (C+3)` grouped matrix — the `.group` stage stages only
//! indices and relative coordinates and records the fused gather traffic,
//! which is the measurable `gathered_bytes` drop the lowering buys. Each
//! gather declares its source point count (`n_points` for an EdgeConv,
//! `n_in` for an SA level), so the scheduler can hoist the first layer's
//! per-point half when the gather repeats source rows; the module's
//! `.fc` stage then records the plan's smaller, exact MAC count.

use edgepc_geom::{required, OpCounts, Point3, PointCloud};
use edgepc_ir::{
    Executor, GatherIn, GatherMode, GatherSite, Graph, InTensor, Inputs, NodeId, Plan,
};
use edgepc_nn::{Sequential, Tensor2, EMPTY_SLOT};
use edgepc_sim::StageKind;

use crate::dgcnn::{module_graph, DgcnnBackbone, DgcnnClassifier, DgcnnSeg};
use crate::fp::{upsample, InterpSource};
use crate::pointnetpp::{xyz_features, PointNetPpSeg};
use crate::sa::clamped_k;
use crate::selection::{select, MortonContext};
use crate::strategy::{SampleStrategy, SearchStrategy, StageRecord, UpsampleStrategy};

/// Per-worker execution state: the executor's arena plus the reusable
/// index/relative-coordinate staging buffers the grouping glue writes.
/// After a warm-up run every buffer has reached its steady-state
/// capacity and repeated inference stops allocating in the executor.
#[derive(Default)]
pub struct ExecState {
    exec: Executor,
    idx: Vec<usize>,
    rel: Vec<f32>,
}

impl ExecState {
    /// Creates an empty state (buffers grow on first run).
    pub fn new() -> Self {
        ExecState::default()
    }

    /// The executor arena capacity in floats — pinned by the
    /// allocation-freedom tests.
    pub fn arena_capacity(&self) -> usize {
        self.exec.arena_capacity()
    }
}

/// One lowered module — `inputs -> shared MLP [-> max pool]` compiled to
/// a plan — plus what its `<name>.fc` stage record carries.
struct ModulePlan {
    plan: Plan,
    name: String,
    fc_k: usize,
    seq_rounds: u64,
}

impl ModulePlan {
    /// Finishes `g` by running `mlp` over node `x` (max-pooling groups of
    /// `pool` rows when given) and compiles it.
    fn lower(mut g: Graph, x: NodeId, mlp: &Sequential, pool: Option<usize>, name: &str) -> Self {
        let mut out = g.mlp(x, mlp);
        if let Some(group) = pool {
            out = g.max_pool(out, group);
        }
        g.set_output(out);
        ModulePlan {
            plan: edgepc_ir::compile(&g),
            name: name.to_string(),
            fc_k: g.shape(x).1,
            seq_rounds: crate::observe::seq_rounds(mlp),
        }
    }

    /// Executes the plan as the `<name>.fc` stage and copies its output
    /// out of the arena.
    fn run(
        &self,
        exec: &mut Executor,
        tensors: &[InTensor<'_>],
        gathers: &[GatherIn<'_>],
        records: &mut Vec<StageRecord>,
    ) -> Tensor2 {
        crate::observe::stage(
            format!("{}.fc", self.name),
            StageKind::FeatureCompute,
            Some(self.fc_k),
            records,
            || {
                exec.run(&self.plan, &Inputs { tensors, gathers });
                let out = Tensor2::from_vec(
                    exec.output(&self.plan).to_vec(),
                    self.plan.out_rows(),
                    self.plan.out_cols(),
                );
                let mut ops = self.plan.ops();
                ops.seq_rounds = self.seq_rounds;
                (out, ops)
            },
        )
    }

    /// Records the `<name>.group` stage around `fill`, which stages the
    /// plan's gather indices; the gathered rows themselves stream into
    /// the fused kernel, so the stage carries the fused traffic only.
    fn group_stage(&self, records: &mut Vec<StageRecord>, fill: impl FnOnce()) {
        let site = required(self.plan.gather_sites().first(), "plan has a gather");
        crate::observe::stage(
            format!("{}.group", self.name),
            StageKind::Grouping,
            None,
            records,
            || {
                fill();
                let ops = OpCounts {
                    gathered_bytes: site.fused_bytes,
                    seq_rounds: 1,
                    ..OpCounts::ZERO
                };
                ((), ops)
            },
        );
    }
}

/// A dense tensor as a plan input.
fn dense(t: &Tensor2) -> InTensor<'_> {
    InTensor {
        data: t.as_slice(),
        rows: t.rows(),
        cols: t.cols(),
    }
}

/// One compiled SA level: the fused gather->MLP->pool plan plus the
/// strategy snapshot the shared selection glue needs.
struct SaPlan {
    module: ModulePlan,
    n_out: usize,
    /// Effective neighbor count after the deep-level clamp.
    k: usize,
    sample: SampleStrategy,
    search: SearchStrategy,
}

/// One compiled FP level: concat->MLP plan plus interpolation strategy.
struct FpPlan {
    module: ModulePlan,
    strategy: UpsampleStrategy,
}

/// [`PointNetPpSeg`] lowered to `edgepc-ir` plans for a fixed input
/// size. Compile once, run many times; the eager model stays the
/// training/reference path.
pub struct CompiledPointNetPp {
    levels: Vec<SaPlan>,
    fps: Vec<FpPlan>,
    head: ModulePlan,
    n_input: usize,
}

impl CompiledPointNetPp {
    /// Lowers `model`'s forward path for clouds of exactly `n_input`
    /// points, snapshotting the current layer parameters.
    ///
    /// # Panics
    ///
    /// Panics if `n_input` is smaller than the first level's sample
    /// count (same contract as the eager forward).
    pub fn compile(model: &PointNetPpSeg, n_input: usize) -> Self {
        let mut levels = Vec::with_capacity(model.depth);
        let mut level_counts = vec![n_input];
        for sa in &model.sa {
            let n_in = *required(level_counts.last(), "level counts start non-empty");
            let k = clamped_k(sa.k, n_in);
            let mut g = Graph::new(format!("pointnetpp.{}", sa.name));
            let gat = g.gather(
                sa.n_out * k,
                n_in,
                GatherMode::SaGroup {
                    c: sa.in_channels,
                    k,
                },
                format!("{}.group", sa.name),
            );
            levels.push(SaPlan {
                module: ModulePlan::lower(g, gat, &sa.mlp, Some(k), &sa.name),
                n_out: sa.n_out,
                k,
                sample: sa.sample_strategy,
                search: sa.search_strategy,
            });
            level_counts.push(sa.n_out);
        }

        let mut fps = Vec::with_capacity(model.depth);
        for (j, fp) in model.fp.iter().enumerate() {
            let n_dense = level_counts[model.depth - j - 1];
            let mut g = Graph::new(format!("pointnetpp.{}", fp.name));
            let interp = g.input(n_dense, fp.sparse_channels);
            let skip = g.input(n_dense, fp.skip_channels);
            let cat = g.concat2(interp, skip);
            fps.push(FpPlan {
                module: ModulePlan::lower(g, cat, &fp.mlp, None, &fp.name),
                strategy: fp.strategy,
            });
        }

        let carried = required(model.fp.last(), "at least one FP module").out_channels;
        let mut g = Graph::new("pointnetpp.head");
        let x = g.input(n_input, carried);
        CompiledPointNetPp {
            levels,
            fps,
            head: ModulePlan::lower(g, x, &model.head, None, "head"),
            n_input,
        }
    }

    /// The input size the plans were compiled for.
    pub fn n_input(&self) -> usize {
        self.n_input
    }

    /// Arena floats a forward needs: the largest plan's, since the
    /// plans run one after another over one executor arena.
    pub fn arena_len(&self) -> usize {
        let levels = self.levels.iter().map(|lv| &lv.module);
        let fps = self.fps.iter().map(|fp| &fp.module);
        levels
            .chain(fps)
            .chain([&self.head])
            .map(|m| m.plan.arena_len())
            .max()
            .unwrap_or(0)
    }

    /// All gather sites across the compiled plans (for per-site
    /// `gathered_bytes` reporting).
    pub fn gather_sites(&self) -> Vec<GatherSite> {
        self.levels
            .iter()
            .flat_map(|lv| lv.module.plan.gather_sites().iter().cloned())
            .collect()
    }

    /// Compiled forward pass. Returns per-point logits and stage
    /// records matching the eager forward record-for-record (the
    /// `.group` stages carry the *fused* gather bytes).
    ///
    /// # Panics
    ///
    /// Panics if `cloud.len() != n_input`.
    pub fn run(&self, cloud: &PointCloud, state: &mut ExecState) -> (Tensor2, Vec<StageRecord>) {
        assert_eq!(
            cloud.len(),
            self.n_input,
            "plans are compiled for a fixed cloud size"
        );
        let _sp = edgepc_trace::span("pointnetpp.compiled", "model");
        let ExecState { exec, idx, rel } = state;
        let depth = self.levels.len();
        let mut records = Vec::new();
        let mut level_points: Vec<Vec<Point3>> = vec![cloud.points().to_vec()];
        let mut level_feats: Vec<Tensor2> = vec![xyz_features(cloud.points())];
        let mut contexts: Vec<Option<MortonContext>> = Vec::with_capacity(depth);

        // --- SA stack: shared select, fused gather+MLP+pool ---
        for lv in &self.levels {
            let pts: &[Point3] = required(
                level_points.last().map(Vec::as_slice),
                "levels start non-empty",
            );
            let feats = required(level_feats.last(), "levels start non-empty");
            let selection = select(
                pts,
                lv.n_out,
                lv.k,
                lv.sample,
                lv.search,
                &lv.module.name,
                &mut records,
            );

            lv.module.group_stage(&mut records, || {
                idx.clear();
                rel.clear();
                for (gi, nbrs) in selection.neighbor_indices.iter().enumerate() {
                    let centroid = pts[selection.sample_indices[gi]];
                    for slot in 0..lv.k {
                        if let Some(&j) = nbrs.get(slot) {
                            idx.push(j);
                            let r = pts[j] - centroid;
                            rel.extend_from_slice(&[r.x, r.y, r.z]);
                        } else {
                            // Short ball-query group: zero-padded row,
                            // exactly like the eager zero-filled grouping buffer.
                            idx.push(EMPTY_SLOT);
                            rel.extend_from_slice(&[0.0; 3]);
                        }
                    }
                }
            });
            let gathers = [GatherIn {
                feats: feats.as_slice(),
                idx,
                rel,
            }];
            let out = lv.module.run(exec, &[], &gathers, &mut records);

            let sampled: Vec<Point3> = selection.sample_indices.iter().map(|&i| pts[i]).collect();
            contexts.push(selection.morton_context);
            level_points.push(sampled);
            level_feats.push(out);
        }

        // --- FP stack: shared interpolation, fused concat+MLP ---
        let mut carried = level_feats[depth].clone();
        for (j, fp) in self.fps.iter().enumerate() {
            let dense_level = depth - j - 1;
            let source = InterpSource::choose(
                fp.strategy,
                contexts[dense_level].as_ref(),
                &level_points[dense_level],
                &level_points[dense_level + 1],
            );
            let (_, interpolated) =
                upsample(&fp.module.name, fp.strategy, source, &carried, &mut records);
            let xs = [dense(&interpolated), dense(&level_feats[dense_level])];
            carried = fp.module.run(exec, &xs, &[], &mut records);
        }

        // --- Per-point head ---
        let logits = self.head.run(exec, &[dense(&carried)], &[], &mut records);
        (logits, records)
    }
}

/// One compiled EdgeConv module.
struct EcPlan {
    module: ModulePlan,
    search: SearchStrategy,
}

/// [`DgcnnClassifier`] / [`DgcnnSeg`] lowered to `edgepc-ir` plans for a
/// fixed point count.
pub struct CompiledDgcnn {
    modules: Vec<EcPlan>,
    head: ModulePlan,
    span_label: &'static str,
    n_points: usize,
    k: usize,
}

impl CompiledDgcnn {
    /// Lowers a classifier for clouds of exactly `n_points` points.
    pub fn classifier(model: &DgcnnClassifier, n_points: usize) -> Self {
        Self::lower(&model.backbone, &model.head, n_points, false)
    }

    /// Lowers a segmenter for clouds of exactly `n_points` points.
    pub fn segmenter(model: &DgcnnSeg, n_points: usize) -> Self {
        Self::lower(&model.backbone, &model.head, n_points, true)
    }

    /// Lowers the EdgeConv modules (one fused gather->MLP->pool plan
    /// each) and the head: module outputs left-folded with `concat2`
    /// (mirroring the eager `hstack` chain) and max-pooled over the
    /// cloud; a per-point head additionally sees the pooled feature
    /// broadcast next to each point's own.
    fn lower(
        backbone: &DgcnnBackbone,
        head: &Sequential,
        n_points: usize,
        per_point: bool,
    ) -> Self {
        let mut modules = Vec::with_capacity(backbone.modules.len());
        for (i, m) in backbone.modules.iter().enumerate() {
            let mut g = Graph::new(format!("dgcnn.{}", m.name));
            let gat = g.gather(
                n_points * m.k,
                n_points,
                GatherMode::EdgePair {
                    c: m.in_channels,
                    k: m.k,
                },
                format!("{}.group", m.name),
            );
            modules.push(EcPlan {
                module: ModulePlan::lower(g, gat, &m.mlp, Some(m.k), &m.name),
                search: backbone.strategy.search_at(i),
            });
        }

        let (graph_label, span_label) = if per_point {
            ("dgcnn_seg.head", "dgcnn_seg.compiled")
        } else {
            ("dgcnn_cls.head", "dgcnn_cls.compiled")
        };
        let mut g = Graph::new(graph_label);
        let outputs: Vec<NodeId> = modules
            .iter()
            .map(|m| g.input(n_points, m.module.plan.out_cols()))
            .collect();
        let mut cat = *required(outputs.first(), "at least one EdgeConv module");
        for &node in &outputs[1..] {
            cat = g.concat2(cat, node);
        }
        let pooled = g.max_pool(cat, n_points);
        let head_in = if per_point {
            let broadcast = g.broadcast(pooled, n_points);
            g.concat2(cat, broadcast)
        } else {
            pooled
        };
        CompiledDgcnn {
            modules,
            head: ModulePlan::lower(g, head_in, head, None, "head"),
            span_label,
            n_points,
            k: backbone.k,
        }
    }

    /// The point count the plans were compiled for.
    pub fn n_points(&self) -> usize {
        self.n_points
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.head.plan.out_cols()
    }

    /// Arena floats a forward needs: the largest plan's, since the
    /// plans run one after another over one executor arena.
    pub fn arena_len(&self) -> usize {
        let modules = self.modules.iter().map(|m| &m.module);
        modules
            .chain([&self.head])
            .map(|m| m.plan.arena_len())
            .max()
            .unwrap_or(0)
    }

    /// All gather sites across the compiled plans.
    pub fn gather_sites(&self) -> Vec<GatherSite> {
        self.modules
            .iter()
            .flat_map(|m| m.module.plan.gather_sites().iter().cloned())
            .collect()
    }

    /// Compiled forward pass; logits and stage records are bit-identical
    /// to the eager model (the `.group` stages carry fused gather bytes).
    ///
    /// # Panics
    ///
    /// Panics if `cloud.len() != n_points`.
    pub fn run(&self, cloud: &PointCloud, state: &mut ExecState) -> (Tensor2, Vec<StageRecord>) {
        assert_eq!(
            cloud.len(),
            self.n_points,
            "plans are compiled for a fixed cloud size"
        );
        let _sp = edgepc_trace::span(self.span_label, "model");
        let exec = &mut state.exec;
        let mut records = Vec::new();
        let mut feats = xyz_features(cloud.points());
        let mut outputs: Vec<Tensor2> = Vec::with_capacity(self.modules.len());
        let mut graph: Option<Vec<usize>> = None;

        for m in &self.modules {
            let neighbors = module_graph(
                m.search,
                &m.module.name,
                cloud,
                &feats,
                graph.take(),
                self.k,
                &mut records,
            );

            // The flat graph is the gather's index array as it stands.
            m.module.group_stage(&mut records, || {});
            let gathers = [GatherIn {
                feats: feats.as_slice(),
                idx: &neighbors,
                rel: &[],
            }];
            let out = m.module.run(exec, &[], &gathers, &mut records);

            graph = Some(neighbors);
            feats = out.clone();
            outputs.push(out);
        }

        // --- Head: concat (+ pool/broadcast) + MLP in one plan ---
        let xs: Vec<InTensor<'_>> = outputs.iter().map(dense).collect();
        let logits = self.head.run(exec, &xs, &[], &mut records);
        (logits, records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::PipelineStrategy;
    use crate::{DgcnnConfig, PointNetPpConfig};

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

    /// The compiled ≡ eager contract: bit-identical logits and the same
    /// stage-record stream — names, kinds, `fc_k` and op counts — except
    /// the fused grouping traffic, which must shrink, and the MACs of a
    /// hoisted gather-fed `.fc` stage (one of `sites`), which must too.
    /// The coordinate-only first level (`c = 3`) runs one pass on both
    /// models (the hoisting rule).
    fn assert_matches_eager(
        what: &str,
        sites: &[GatherSite],
        (fast, records): (Tensor2, Vec<StageRecord>),
        (eager, eager_records): (Tensor2, Vec<StageRecord>),
    ) {
        assert!(!sites[0].hoisted, "{what}: {} hoisted", sites[0].label);
        assert_eq!(
            fast.as_slice(),
            eager.as_slice(),
            "{what}: logits must be bit-identical"
        );
        assert_eq!(records.len(), eager_records.len(), "{what}");
        for (a, b) in records.iter().zip(&eager_records) {
            assert_eq!(a.name, b.name, "{what}");
            assert_eq!(a.kind, b.kind, "{what}: {}", a.name);
            assert_eq!(a.fc_k, b.fc_k, "{what}: {}", a.name);
            if a.name.ends_with(".group") {
                assert!(
                    a.ops.gathered_bytes < b.ops.gathered_bytes,
                    "{what}: {}: fused {} !< eager {}",
                    a.name,
                    a.ops.gathered_bytes,
                    b.ops.gathered_bytes
                );
            } else {
                let site = a.name.strip_suffix(".fc").and_then(|module| {
                    sites
                        .iter()
                        .find(|s| s.label.strip_suffix(".group") == Some(module))
                });
                if site.is_some_and(|s| s.hoisted) {
                    assert!(
                        a.ops.mac < b.ops.mac,
                        "{what}: {}: hoisted {} !< eager {}",
                        a.name,
                        a.ops.mac,
                        b.ops.mac
                    );
                } else {
                    assert_eq!(a.ops.mac, b.ops.mac, "{what}: {}", a.name);
                }
                let without_mac = |ops: OpCounts| OpCounts { mac: 0, ..ops };
                assert_eq!(without_mac(a.ops), without_mac(b.ops), "{what}: {}", a.name);
            }
        }
    }

    /// The clouds the bit-identity tests run on: a scattered cube and
    /// the 512-point bunny (short ball-query groups, so zero-padded
    /// gather rows), each with the class count its models are built for.
    fn test_clouds(scattered: usize, seed: u64) -> [(PointCloud, usize); 2] {
        [
            (scattered_cloud(scattered, seed), 4),
            (edgepc_data::bunny_with_points(512, 9), 3),
        ]
    }

    #[test]
    fn compiled_pointnetpp_matches_eager_bitwise() {
        let mut state = ExecState::new();
        for (cloud, classes) in test_clouds(256, 1) {
            for strategy in [
                PipelineStrategy::baseline(),
                PipelineStrategy::edgepc_pointnetpp(2, 16),
            ] {
                let mut model =
                    PointNetPpSeg::new(&PointNetPpConfig::tiny(classes, strategy), classes);
                let compiled = CompiledPointNetPp::compile(&model, cloud.len());
                assert_matches_eager(
                    "pointnetpp",
                    &compiled.gather_sites(),
                    compiled.run(&cloud, &mut state),
                    model.forward(&cloud),
                );
            }
        }
    }

    #[test]
    fn compiled_dgcnn_cls_and_seg_match_eager_bitwise() {
        let mut state = ExecState::new();
        for (cloud, _) in test_clouds(128, 2) {
            for strategy in [
                PipelineStrategy::baseline_dgcnn(3),
                PipelineStrategy::edgepc_dgcnn(3, 32),
            ] {
                let mut cls = DgcnnClassifier::new(&DgcnnConfig::tiny(strategy.clone()), 5);
                let compiled = CompiledDgcnn::classifier(&cls, cloud.len());
                // Past the coordinates, every EdgeConv is hoisted.
                assert!(compiled.gather_sites()[1..].iter().all(|s| s.hoisted));
                assert_matches_eager(
                    "dgcnn_cls",
                    &compiled.gather_sites(),
                    compiled.run(&cloud, &mut state),
                    cls.forward(&cloud),
                );

                let mut seg = DgcnnSeg::new(&DgcnnConfig::tiny(strategy), 4);
                let compiled = CompiledDgcnn::segmenter(&seg, cloud.len());
                assert_matches_eager(
                    "dgcnn_seg",
                    &compiled.gather_sites(),
                    compiled.run(&cloud, &mut state),
                    seg.forward(&cloud),
                );
            }
        }
    }

    #[test]
    fn steady_state_runs_keep_arena_capacity_fixed() {
        let cloud = scattered_cloud(256, 3);
        let model = PointNetPpSeg::new(&PointNetPpConfig::tiny(4, PipelineStrategy::baseline()), 4);
        let compiled = CompiledPointNetPp::compile(&model, 256);
        let mut state = ExecState::new();
        let _ = compiled.run(&cloud, &mut state);
        let cap = state.arena_capacity();
        assert!(cap > 0);
        for _ in 0..10 {
            let _ = compiled.run(&cloud, &mut state);
        }
        assert_eq!(state.arena_capacity(), cap, "warm arena must not move");
    }

    #[test]
    fn compiled_gather_sites_report_fused_traffic() {
        let model = PointNetPpSeg::new(&PointNetPpConfig::tiny(4, PipelineStrategy::baseline()), 4);
        let compiled = CompiledPointNetPp::compile(&model, 256);
        let sites = compiled.gather_sites();
        assert_eq!(sites.len(), 2, "one site per SA level");
        for site in &sites {
            assert!(site.label.ends_with(".group"));
            assert!(site.fused_bytes < site.eager_bytes);
        }
    }
}
