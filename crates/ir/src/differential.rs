//! Differential compile test: seeded random graphs over the whole op set,
//! each compiled plan checked bit for bit against a reference built from
//! the eager ops (materialized gather rows → `Sequential::forward` →
//! `max_pool_groups` / `hstack`), and each plan's arena layout checked
//! for a destination that overlaps a live region. Random gathers land on
//! both sides of the hoisting rule (`rows > src_rows`, and `c` past
//! `edgepc_nn::hoisting_pays`' bound), so one-pass and
//! `Hoist` + `Resume` lowerings are both held to the reference, and
//! random heads pool a linear (pooled in its epilogue) or a concat (a
//! standalone `MaxPool` step).

use crate::schedule::{ASrc, Region, Src, Step};
use crate::{compile, Executor, GatherIn, GatherMode, Graph, InTensor, Inputs, NodeId, Plan};
use edgepc_nn::pool::max_pool_groups;
use edgepc_nn::{Sequential, Tensor2, EMPTY_SLOT};

const GRAPHS: u64 = 300;

/// xorshift64: a seeded stream independent of every other RNG in the tree.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
    }

    fn tensor(&mut self, rows: usize, cols: usize) -> Tensor2 {
        Tensor2::from_vec((0..rows * cols).map(|_| self.unit()).collect(), rows, cols)
    }

    /// A `rows x 1..=max_cols` tensor.
    fn tensor_upto(&mut self, rows: usize, max_cols: usize) -> Tensor2 {
        let cols = self.range(1, max_cols);
        self.tensor(rows, cols)
    }
}

/// The runtime feed of one random gather, plus its eager materialization.
struct GatherCase {
    mode: GatherMode,
    feats: Tensor2,
    idx: Vec<usize>,
    rel: Vec<f32>,
    rows: Tensor2,
}

fn sa_group(rng: &mut Rng) -> GatherCase {
    let (points, c, k, groups) = (
        rng.range(1, 40),
        rng.range(1, 8),
        rng.range(1, 6),
        rng.range(1, 16),
    );
    let feats = rng.tensor(points, c);
    let m = groups * k;
    let (mut idx, mut rel) = (Vec::with_capacity(m), Vec::with_capacity(3 * m));
    let mut rows = Tensor2::zeros(m, c + 3);
    for r in 0..m {
        // Short ball-query groups pad with EMPTY_SLOT: a zero row.
        if rng.range(0, 4) == 0 {
            idx.push(EMPTY_SLOT);
            rel.extend_from_slice(&[0.0; 3]);
            continue;
        }
        let j = rng.range(0, points - 1);
        let d = [rng.unit(), rng.unit(), rng.unit()];
        idx.push(j);
        rel.extend_from_slice(&d);
        rows.row_mut(r)[..c].copy_from_slice(feats.row(j));
        rows.row_mut(r)[c..].copy_from_slice(&d);
    }
    GatherCase {
        mode: GatherMode::SaGroup { c, k },
        feats,
        idx,
        rel,
        rows,
    }
}

fn edge_pair(rng: &mut Rng) -> GatherCase {
    let (points, c, k) = (rng.range(1, 30), rng.range(1, 8), rng.range(1, 6));
    let feats = rng.tensor(points, c);
    let m = points * k;
    let idx: Vec<usize> = (0..m).map(|_| rng.range(0, points - 1)).collect();
    let mut rows = Tensor2::zeros(m, 2 * c);
    for (r, &j) in idx.iter().enumerate() {
        let fi = feats.row(r / k);
        let row = rows.row_mut(r);
        row[..c].copy_from_slice(fi);
        for (d, (&a, &b)) in row[c..].iter_mut().zip(feats.row(j).iter().zip(fi)) {
            *d = a - b;
        }
    }
    GatherCase {
        mode: GatherMode::EdgePair { c, k },
        feats,
        idx,
        rel: Vec::new(),
        rows,
    }
}

/// A random MLP of depth 1..=4 from `input` channels.
fn random_mlp(rng: &mut Rng, input: usize) -> Sequential {
    let mut dims = vec![input];
    for _ in 0..rng.range(1, 4) {
        dims.push(rng.range(1, 40));
    }
    Sequential::mlp(&dims, rng.next())
}

/// Both the graph under construction and its eager reference: dense
/// inputs are declared on the graph and recorded for the run.
struct Case {
    g: Graph,
    inputs: Vec<Tensor2>,
}

impl Case {
    fn input(&mut self, t: Tensor2) -> (NodeId, Tensor2) {
        let node = self.g.input(t.rows(), t.cols());
        self.inputs.push(t.clone());
        (node, t)
    }

    /// Lowers `seq` onto `x` and runs it eagerly on `eager`.
    fn mlp(&mut self, x: NodeId, eager: &Tensor2, seq: &mut Sequential) -> (NodeId, Tensor2) {
        let node = self.g.mlp(x, seq);
        let mut ops = edgepc_geom::OpCounts::default();
        (node, seq.forward(eager, &mut ops))
    }
}

/// One random graph with its eager reference output and gather feed.
fn random_case(rng: &mut Rng) -> (Case, Tensor2, Option<GatherCase>) {
    let mut case = Case {
        g: Graph::new("diff"),
        inputs: Vec::new(),
    };

    // Source: a dense input, two concatenated inputs, or a gather (which
    // only a linear may read).
    let (src, src_eager, gather, group) = match rng.range(0, 3) {
        0 => {
            let rows = rng.range(1, 128);
            let (x, t) = case.input(rng.tensor_upto(rows, 16));
            (x, t, None, rows)
        }
        1 => {
            let rows = rng.range(1, 128);
            let (a, ta) = case.input(rng.tensor_upto(rows, 12));
            let (b, tb) = case.input(rng.tensor_upto(rows, 12));
            (case.g.concat2(a, b), ta.hstack(&tb), None, rows)
        }
        kind => {
            let gc = if kind == 2 {
                sa_group(rng)
            } else {
                edge_pair(rng)
            };
            let (GatherMode::SaGroup { k, .. } | GatherMode::EdgePair { k, .. }) = gc.mode;
            let src_rows = gc.feats.rows();
            let node = case
                .g
                .gather(gc.rows.rows(), src_rows, gc.mode, "diff.group");
            let rows = gc.rows.clone();
            (node, rows, Some(gc), k)
        }
    };
    let mut seq = random_mlp(rng, src_eager.cols());
    let (mut out, mut eager) = case.mlp(src, &src_eager, &mut seq);
    let rows = eager.rows();

    // Head: none, a grouped pool, a concat + global pool, or the
    // DGCNN-seg shape (pool, broadcast, concat, second MLP).
    match rng.range(0, 3) {
        0 => {}
        1 => {
            out = case.g.max_pool(out, group);
            eager = max_pool_groups(&eager, group).output;
        }
        head => {
            let (other, t) = case.input(rng.tensor_upto(rows, 8));
            let (cat, cat_eager) = if rng.range(0, 1) == 0 {
                (case.g.concat2(out, other), eager.hstack(&t))
            } else {
                (case.g.concat2(other, out), t.hstack(&eager))
            };
            let pooled = case.g.max_pool(cat, rows);
            let pooled_eager = max_pool_groups(&cat_eager, rows).output;
            if head == 2 {
                out = pooled;
                eager = pooled_eager;
            } else {
                let bc = case.g.broadcast(pooled, rows);
                let mut bc_eager = Tensor2::zeros(rows, pooled_eager.cols());
                for r in 0..rows {
                    bc_eager.row_mut(r).copy_from_slice(pooled_eager.row(0));
                }
                let head_in = case.g.concat2(cat, bc);
                let mut head_seq = random_mlp(rng, cat_eager.cols() + bc_eager.cols());
                (out, eager) = case.mlp(head_in, &cat_eager.hstack(&bc_eager), &mut head_seq);
            }
        }
    }
    case.g.set_output(out);
    (case, eager, gather)
}

/// Each step's (destination, arena regions read). A `Hoist` writes the
/// start region its `Resume` reads.
fn step_regions(step: &Step) -> (Region, Vec<Region>) {
    let arena = |s: Src| match s {
        Src::Arena(r) => Some(r),
        Src::Input(_) => None,
    };
    match *step {
        Step::Fused { src, dst, .. } => {
            let read = match src {
                ASrc::Arena(r) => vec![r],
                ASrc::Input(_) | ASrc::Gather(_) => Vec::new(),
            };
            (dst, read)
        }
        Step::Hoist { dst, .. } => (dst, Vec::new()),
        Step::Resume { start, dst, .. } => (dst, vec![start]),
        Step::MaxPool { src, dst, .. } | Step::Broadcast { src, dst, .. } => {
            (dst, arena(src).into_iter().collect())
        }
        Step::Concat2 { a, b, dst, .. } => (dst, arena(a).into_iter().chain(arena(b)).collect()),
    }
}

/// Every step's destination is disjoint from every region still live
/// when it runs: written earlier and read at this step or later (or the
/// plan's output).
fn assert_live_regions_disjoint(plan: &Plan, what: &str) {
    let regions: Vec<(Region, Vec<Region>)> = plan.steps.iter().map(step_regions).collect();
    // last_read[j]: the last step reading step j's destination.
    let mut last_read = vec![0usize; regions.len()];
    for (s, (_, reads)) in regions.iter().enumerate() {
        for r in reads {
            let writer = (0..s).rev().find(|&j| regions[j].0 == *r);
            let writer = writer.unwrap_or_else(|| panic!("{what}: step {s} reads unwritten {r:?}"));
            last_read[writer] = s;
        }
    }
    if let Some(j) = (0..regions.len()).rev().find(|&j| regions[j].0 == plan.out) {
        last_read[j] = usize::MAX;
    }
    let disjoint = |x: Region, y: Region| x.off + x.len <= y.off || y.off + y.len <= x.off;
    for (s, (dst, _)) in regions.iter().enumerate() {
        assert!(dst.off + dst.len <= plan.arena_len(), "{what}: step {s}");
        for j in (0..s).filter(|&j| last_read[j] >= s) {
            assert!(
                disjoint(*dst, regions[j].0),
                "{what}: step {s} writes {dst:?} over step {j}'s live {:?}",
                regions[j].0
            );
        }
    }
}

/// A hoisted pair is adjacent, its start region is read by its `Resume`
/// alone (dead afterwards, until a later step rewrites the space), and
/// the `Resume` destination is disjoint from it. Returns the pair count.
fn assert_hoists_are_paired(plan: &Plan, what: &str) -> usize {
    let mut hoists = 0;
    for (s, step) in plan.steps.iter().enumerate() {
        let Step::Hoist { slot, dst: p, .. } = *step else {
            continue;
        };
        hoists += 1;
        let next = plan.steps.get(s + 1);
        let Some(&Step::Resume {
            slot: resumed,
            start,
            dst,
            ..
        }) = next
        else {
            panic!("{what}: hoist at step {s} is not followed by its resume");
        };
        assert_eq!((resumed, start), (slot, p), "{what}: step {s}");
        let disjoint = |x: Region| x.off + x.len <= p.off || p.off + p.len <= x.off;
        assert!(disjoint(dst), "{what}: resume writes over its start region");
        for later in &plan.steps[s + 2..] {
            let (written, read) = step_regions(later);
            assert!(
                !read.contains(&p),
                "{what}: start region read after its resume"
            );
            if !disjoint(written) {
                break;
            }
        }
    }
    hoists
}

/// A pooled linear step's region is the pool node's: it holds exactly
/// the `m / group` pooled rows, and no standalone `MaxPool` step reads
/// what a linear step wrote (that pool would have gone into the linear's
/// epilogue, since nothing else reads a linear feeding a pool in these
/// graphs). Returns the (pooled, standalone) step counts.
fn assert_pools_are_aliased(plan: &Plan, what: &str) -> (usize, usize) {
    let (mut pooled, mut standalone) = (0, 0);
    for (s, step) in plan.steps.iter().enumerate() {
        match *step {
            Step::Fused {
                m,
                w,
                pool: Some(group),
                dst,
                ..
            }
            | Step::Resume {
                m,
                w,
                pool: Some(group),
                dst,
                ..
            } => {
                pooled += 1;
                let n = plan.linears[w].w.cols();
                assert_eq!(dst.len, m / group * n, "{what}: step {s} pooled region");
            }
            Step::MaxPool { src, .. } => {
                standalone += 1;
                let writer = plan.steps[..s]
                    .iter()
                    .rev()
                    .find(|earlier| matches!(src, Src::Arena(r) if r == step_regions(earlier).0));
                assert!(
                    !matches!(writer, Some(Step::Fused { .. } | Step::Resume { .. })),
                    "{what}: step {s} pools a linear outside its epilogue"
                );
            }
            _ => {}
        }
    }
    (pooled, standalone)
}

#[test]
fn random_graphs_match_the_eager_reference_bitwise() {
    let mut rng = Rng(0x5eed_d1ff_c0de_0001);
    let mut exec = Executor::new();
    // Gathers compiled as one pass vs. hoisted; pools in a linear's
    // epilogue vs. standalone.
    let (mut one_pass, mut hoisted) = (0, 0);
    let (mut pooled, mut standalone) = (0, 0);
    for i in 0..GRAPHS {
        let what = format!("graph {i}");
        let (case, eager, gather) = random_case(&mut rng);
        let plan = compile(&case.g);
        assert_live_regions_disjoint(&plan, &what);
        let hoists = assert_hoists_are_paired(&plan, &what);
        let (p, u) = assert_pools_are_aliased(&plan, &what);
        pooled += p;
        standalone += u;
        assert_eq!(
            (plan.out_rows(), plan.out_cols()),
            (eager.rows(), eager.cols()),
            "{what}"
        );

        let tensors: Vec<InTensor<'_>> = case
            .inputs
            .iter()
            .map(|t| InTensor {
                data: t.as_slice(),
                rows: t.rows(),
                cols: t.cols(),
            })
            .collect();
        let gathers: Vec<GatherIn<'_>> = gather
            .iter()
            .map(|gc| GatherIn {
                feats: gc.feats.as_slice(),
                idx: &gc.idx,
                rel: &gc.rel,
            })
            .collect();
        exec.run(
            &plan,
            &Inputs {
                tensors: &tensors,
                gathers: &gathers,
            },
        );
        assert_eq!(exec.output(&plan), eager.as_slice(), "{what}");
        if let (Some(site), Some(gc)) = (plan.gather_sites().first(), &gather) {
            assert_eq!(
                site.eager_bytes,
                gc.mode.eager_bytes(gc.rows.rows()),
                "{what}"
            );
            assert!(site.fused_bytes <= site.eager_bytes, "{what}");
            let repeats = gc.rows.rows() > gc.feats.rows();
            assert_eq!(
                site.hoisted,
                repeats && edgepc_nn::hoisting_pays(gc.mode.channels()),
                "{what}: hoisting rule"
            );
            assert_eq!(hoists, usize::from(site.hoisted), "{what}");
            if site.hoisted {
                hoisted += 1;
            } else {
                one_pass += 1;
            }
        }
    }
    assert!(
        one_pass >= 10 && hoisted >= 10,
        "fuzz must cover both sides of the hoisting rule: {one_pass} one-pass, {hoisted} hoisted"
    );
    assert!(
        pooled >= 10 && standalone >= 10,
        "fuzz must cover both pool lowerings: {pooled} pooled, {standalone} standalone"
    );
}
