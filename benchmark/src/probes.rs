//! Per-layer probes: timed calls into each crate's public functions.
//!
//! A probe times a layer from outside, on the workload's own inputs, and
//! wraps each call in a benchmark span. Nothing here reads a number the
//! program did not already expose.

use std::hint::black_box;
use std::time::Instant;

use edgepc_geom::{coverage_radius, OpCounts, Point3, PointCloud};
use edgepc_models::{
    dgcnn::feature_knn, price_stages, select, SampleStrategy, SearchStrategy, StageRecord,
};
use edgepc_morton::Structurizer;
use edgepc_neighbor::{
    neighbor_quality, BruteKnn, MortonWindowSearcher, NeighborQuality, NeighborSearcher,
};
use edgepc_nn::{fused_linear, PackedPanels, RowSource, Tensor2};
use edgepc_sample::{FarthestPointSampler, MortonSampler, Sampler};
use edgepc_sim::{EnergyModel, StageKind, XavierModel};
use edgepc_trace::with_local;

use crate::report::{nproc, Metrics};
use crate::spans::{self_ms_by_kind, Recorder};
use crate::stats::median;
use crate::subject::{Def, FirstLevel, Subject};

/// Span kinds the models' stages carry, in `models.*_self_ms` order; the
/// slot after the last is `models.other_self_ms`.
pub const STAGE_KINDS: [&str; 4] = ["sample", "search", "group", "fc"];

/// Repeats of each timed probe; the median is reported.
const REPS: usize = 5;

/// Times `f` once inside a benchmark span and returns milliseconds.
fn timed<T>(rec: &mut Recorder, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let id = rec.enter(name, 0);
    let t0 = Instant::now();
    let out = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    rec.exit(id);
    (out, ms)
}

/// Median milliseconds of `reps` timed calls of `f`.
fn median_ms<T>(rec: &mut Recorder, name: &str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut ms: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, ms) = timed(rec, name, &mut f);
            black_box(out);
            ms
        })
        .collect();
    median(&mut ms)
}

/// One traced compiled forward: the benchmark's `forward` span with the
/// program's spans adopted beneath it. Returns the logits, the forward's
/// wall time (ms) and its self time by [`STAGE_KINDS`] bucket plus the
/// closure slot.
pub fn traced_forward(
    subject: &mut Subject,
    cloud: usize,
    request: u64,
    rec: &mut Recorder,
) -> (Tensor2, f64, Vec<f64>) {
    let mut local = rec.fresh(true);
    let root = local.enter("forward", request);
    let base = Instant::now();
    let (logits, program) = with_local(|| subject.run(cloud));
    local.exit(root);
    local.adopt(&program, root, base);
    let buckets = self_ms_by_kind(&local.spans, root, &STAGE_KINDS);
    let forward_ms = local.spans[root].dur_ns() as f64 / 1e6;
    rec.merge(local);
    (logits, forward_ms, buckets)
}

/// One run of a model's first-level search on `cloud`, made the way the
/// model makes it.
pub struct FirstSearch {
    pub queries: Vec<usize>,
    /// Per query, its neighbors as indices into the cloud.
    pub neighbors: Vec<Vec<usize>>,
    /// The stage records of the level's sample and search stages, as the
    /// model's own forward emits them.
    pub records: Vec<StageRecord>,
    /// Wall time of the search stage alone.
    pub search_ms: f64,
}

pub fn first_search(cloud: &PointCloud, level: FirstLevel) -> FirstSearch {
    match level {
        // `select` is the call every set-abstraction level makes; the
        // span it emits around its search stage times that stage.
        FirstLevel::Sa {
            n,
            k,
            sample,
            search,
        } => {
            let mut records = Vec::new();
            let (selection, program) =
                with_local(|| select(cloud.points(), n, k, sample, search, "sa1", &mut records));
            let search_us: u64 = program
                .iter()
                .filter(|s| s.kind == "search")
                .map(|s| s.dur_us)
                .sum();
            FirstSearch {
                queries: selection.sample_indices,
                neighbors: selection.neighbor_indices,
                records,
                search_ms: search_us as f64 / 1e3,
            }
        }
        // DGCNN's backbone is private; this is its first module's call,
        // every point a query.
        FirstLevel::Edge { k, search } => {
            let queries: Vec<usize> = (0..cloud.len()).collect();
            let t0 = Instant::now();
            let (found, name) = match search {
                SearchStrategy::MortonWindow { window } => (
                    MortonWindowSearcher::new(window, 10).search(cloud, &queries, k),
                    "ec1.search(window)",
                ),
                SearchStrategy::Knn => (
                    BruteKnn::new().search(cloud, &queries, k),
                    "ec1.search(knn)",
                ),
                other => panic!("no first EdgeConv module searches by {other:?}"),
            };
            let search_ms = t0.elapsed().as_secs_f64() * 1e3;
            FirstSearch {
                queries,
                neighbors: found.neighbors,
                records: vec![StageRecord::new(StageKind::NeighborSearch, name, found.ops)],
                search_ms,
            }
        }
    }
}

/// The first-level search of a model on one cloud against the exact
/// searcher, over the same queries.
pub struct SearchProbe {
    pub quality: NeighborQuality,
    pub window_ms: f64,
    pub exact_ms: f64,
    pub window_ops: OpCounts,
}

pub fn search_probe(
    cloud: &PointCloud,
    level: FirstLevel,
    reps: usize,
    rec: &mut Recorder,
) -> SearchProbe {
    let mut runs: Vec<FirstSearch> = (0..reps)
        .map(|_| timed(rec, "neighbor.window", || first_search(cloud, level)).0)
        .collect();
    let window_ms = median(&mut runs.iter().map(|r| r.search_ms).collect::<Vec<f64>>());
    let approx = runs.pop().expect("at least one repeat");
    let k = approx.neighbors[0].len();
    let exact_ms = median_ms(rec, "neighbor.exact", reps, || {
        BruteKnn::new().search(cloud, &approx.queries, k)
    });
    let exact = BruteKnn::new().search(cloud, &approx.queries, k);
    SearchProbe {
        quality: neighbor_quality(&approx.neighbors, &exact.neighbors),
        window_ms,
        exact_ms,
        window_ops: approx
            .records
            .iter()
            .filter(|r| r.kind == StageKind::NeighborSearch)
            .map(|r| r.ops)
            .sum(),
    }
}

/// Mean first-level recall@k over every cloud of every subject.
pub fn recall_at_k(subjects: &[Subject], rec: &mut Recorder) -> f64 {
    let mut total: Option<NeighborQuality> = None;
    for s in subjects {
        for cloud in &s.clouds {
            let q = search_probe(cloud, s.def.first_level(s.n_points), 1, rec).quality;
            match &mut total {
                Some(t) => t.merge(q),
                None => total = Some(q),
            }
        }
    }
    total.map_or(0.0, |t| t.recall_at_k())
}

/// Deterministic pseudo-random matrix for the kernel probes.
fn fill(rows: usize, cols: usize, seed: u64) -> Tensor2 {
    let mut s = seed;
    Tensor2::from_vec(
        (0..rows * cols)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((s >> 40) as f32) / (1 << 24) as f32 - 0.5
            })
            .collect(),
        rows,
        cols,
    )
}

/// `nn.*`: sustained GMAC/s of the fused and the plain blocked kernel at
/// an SA1-like and a head-like shape.
fn nn_probe(m: &mut Metrics, rec: &mut Recorder) {
    for (name, rows, k, n) in [
        ("nn.fused_gmacs.k64", 4096usize, 64usize, 64usize),
        ("nn.fused_gmacs.k256", 1024, 256, 512),
    ] {
        let (a, w) = (fill(rows, k, 0xb10c), fill(k, n, 0x9a57));
        let packed = PackedPanels::pack(&w);
        let bias: Vec<f32> = (0..n).map(|i| i as f32 / n as f32 - 0.5).collect();
        let mut out = vec![0.0f32; rows * n];
        let ms = median_ms(rec, name, 4 * REPS, || {
            fused_linear(
                &RowSource::Dense(a.as_slice()),
                rows,
                &w,
                Some(&packed),
                Some(&bias),
                true,
                &mut out,
            );
            out[0]
        });
        m.set(name, (rows * k * n) as f64 / ms / 1e6);
    }
    let (a, w) = (fill(4096, 64, 0xb10c), fill(64, 64, 0x9a57));
    let ms = median_ms(rec, "nn.matmul_gmacs.k64", 4 * REPS, || a.matmul(&w));
    m.set("nn.matmul_gmacs.k64", (4096 * 64 * 64) as f64 / ms / 1e6);
}

/// Sums the exact op counts of a forward's stage records.
fn total_ops(records: &[StageRecord]) -> OpCounts {
    records.iter().map(|r| r.ops).sum()
}

/// Every per-subject layer number, as `(metric, value)` pairs that the
/// caller folds into the workload's weighted mean.
fn subject_probe(s: &mut Subject, rec: &mut Recorder) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let cloud = s.clouds[0].clone();
    let level = s.def.first_level(s.n_points);

    // models.: eager and all-exact baseline forwards of the same network.
    out.push((
        "models.eager_forward_ms",
        median_ms(rec, "models.eager_forward", REPS, || {
            s.net.forward(&cloud).0
        }),
    ));
    let mut baseline = s.def.build(s.n_points, true);
    let baseline_records = baseline.forward(&cloud).1;
    out.push((
        "models.baseline_forward_ms",
        median_ms(rec, "models.baseline_forward", REPS, || {
            baseline.forward(&cloud).0
        }),
    ));
    let ops = total_ops(&s.records);
    out.push(("models.mac", ops.mac as f64));
    out.push(("models.dist3", ops.dist3 as f64));
    out.push(("models.gathered_bytes", ops.gathered_bytes as f64));
    out.push(("models.seq_rounds", ops.seq_rounds as f64));

    // sim.: the modeled Xavier clock over the same stage records.
    let device = XavierModel::jetson_agx_xavier();
    let cost = price_stages(&s.records, &device, false);
    let energy = EnergyModel::jetson_agx_xavier();
    out.push(("sim.modeled_ms", cost.total_ms()));
    out.push((
        "sim.modeled_mj",
        energy.energy_mj(cost.total_ms(), s.def.power()),
    ));
    out.push(("sim.modeled_sn_ms", cost.sample_and_neighbor_ms()));
    out.push(("sim.modeled_fc_ms", cost.time_of(StageKind::FeatureCompute)));
    out.push(("sim.modeled_group_ms", cost.time_of(StageKind::Grouping)));
    out.push((
        "sim.baseline_modeled_ms",
        price_stages(&baseline_records, &device, false).total_ms(),
    ));

    // neighbor.: the first-level search, approximate against exact.
    let search = search_probe(&cloud, level, REPS, rec);
    out.push(("neighbor.window_ms", search.window_ms));
    out.push(("neighbor.exact_ms", search.exact_ms));
    out.push(("neighbor.dist3.window", search.window_ops.dist3 as f64));
    out.push((
        "neighbor.false_neighbor_rate",
        search.quality.false_neighbor_ratio(),
    ));

    // sample.: only the set-abstraction models sample at all.
    if let FirstLevel::Sa { n, sample, .. } = level {
        let morton = || match sample {
            SampleStrategy::Morton { bits } => MortonSampler::new(bits),
            SampleStrategy::Fps => MortonSampler::paper_default(),
        };
        let picked = morton().sample(&cloud, n).indices;
        let points: Vec<Point3> = picked.iter().map(|&i| cloud.point(i)).collect();
        out.push((
            "sample.morton_ms",
            median_ms(rec, "sample.morton", REPS, || {
                morton().sample(&cloud, n).indices
            }),
        ));
        out.push((
            "sample.fps_ms",
            median_ms(rec, "sample.fps", REPS, || {
                FarthestPointSampler::new().sample(&cloud, n).indices
            }),
        ));
        out.push((
            "sample.coverage_radius",
            f64::from(coverage_radius(cloud.points(), &points)),
        ));
    }

    // morton.: the structurization sort both approximations stand on.
    let sorted_elems = Structurizer::paper_default()
        .structurize(&cloud)
        .ops()
        .sorted_elems;
    out.push((
        "morton.structurize_ms",
        median_ms(rec, "morton.structurize", REPS, || {
            Structurizer::paper_default().structurize(&cloud)
        }),
    ));
    out.push(("morton.sorted_elems", sorted_elems as f64));

    // par.: one thread against all of them, same forward.
    let mut at = |threads: usize| {
        edgepc_par::with_threads(threads, || median_ms(rec, "par.forward", REPS, || s.run(0)))
    };
    let (one, all) = (at(1), at(nproc()));
    out.push(("par.scaling", one / all));
    out
}

/// Fills every `models.`/`nn.`/`neighbor.`/`sample.`/`morton.`/`ir.`/
/// `sim.`/`par.` metric for a workload's subjects. The traced forwards'
/// buckets come from the caller, which ran them.
pub fn layers(subjects: &mut [Subject], m: &mut Metrics, rec: &mut Recorder) {
    for prefix in ["neighbor.", "sample.", "morton.", "sim.", "par."] {
        m.not_applicable(prefix);
    }
    nn_probe(m, rec);
    let total: f64 = subjects.iter().map(|s| s.weight).sum();
    let mut sums: std::collections::BTreeMap<&'static str, f64> = Default::default();
    for s in subjects.iter_mut() {
        let share = s.weight / total;
        for (name, value) in subject_probe(s, rec) {
            *sums.entry(name).or_default() += share * value;
        }
    }
    for (name, value) in sums {
        m.set(name, value);
    }

    // neighbor.featknn_ms: DGCNN's feature-space k-NN at the paper's
    // ec2 shape; only the paper classifier runs it at that size.
    let featknn = if subjects
        .iter()
        .any(|s| matches!(s.def, Def::PaperCls { .. }))
    {
        let feats = fill(1024, 64, 0xfea7);
        median_ms(rec, "neighbor.featknn", REPS, || feature_knn(&feats, 20).0)
    } else {
        0.0
    };
    m.set("neighbor.featknn_ms", featknn);

    // ir.: compile cost per plan key, the largest arena a worker ends up
    // holding, and the share of eager gather traffic the plans still move.
    let keys = subjects.len() as f64;
    m.set(
        "ir.compile_ms",
        subjects.iter().map(|s| s.compile_ms).sum::<f64>() / keys,
    );
    m.set(
        "ir.arena_bytes",
        subjects
            .iter()
            .map(|s| s.state.arena_capacity() * 4)
            .max()
            .unwrap_or(0) as f64,
    );
    let (mut fused, mut eager) = (0.0, 0.0);
    for s in subjects.iter() {
        for site in s.plan.gather_sites() {
            fused += s.weight * site.fused_bytes as f64;
            eager += s.weight * site.eager_bytes as f64;
        }
    }
    m.set("ir.fused_gather_share", fused / eager);
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgepc_data::bunny_with_points;

    #[test]
    fn the_probe_searches_what_the_built_model_searches() {
        for (def, n) in [
            (Def::TinySeg, 256),
            (Def::TinyCls, 128),
            (Def::PaperSeg { classes: 4 }, 512),
            (Def::PaperCls { classes: 4 }, 128),
        ] {
            let cloud = bunny_with_points(n, 7);
            let model = def.build(n, false).forward(&cloud).1;
            let level = def.first_level(n);
            // The probe's stages are the first stages of the model's own
            // forward: same names, same exact op counts.
            let probe = first_search(&cloud, level).records;
            assert!(!probe.is_empty());
            assert_eq!(probe, model[..probe.len()], "{def:?}");
            // Another window would have shown.
            let wider = match level {
                FirstLevel::Sa {
                    n,
                    k,
                    sample,
                    search: SearchStrategy::MortonWindow { window },
                } => FirstLevel::Sa {
                    n,
                    k,
                    sample,
                    search: SearchStrategy::MortonWindow { window: window + 8 },
                },
                FirstLevel::Edge {
                    k,
                    search: SearchStrategy::MortonWindow { window },
                } => FirstLevel::Edge {
                    k,
                    search: SearchStrategy::MortonWindow { window: window + 8 },
                },
                other => panic!("{def:?} searches its first level by {other:?}"),
            };
            assert_ne!(first_search(&cloud, wider).records, model[..probe.len()]);
        }
    }
}
