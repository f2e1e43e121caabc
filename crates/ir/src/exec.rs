//! The plan executor: a single arena, zero steady-state allocation.
//!
//! An [`Executor`] owns one `Vec<f32>` arena sized to the plan's
//! liveness high-water mark. [`Executor::run`] grows the arena at most
//! once per plan shape (cold path), to exactly the largest plan's length
//! run so far, and then interprets the step list
//! inside `run_steps`, which allocates nothing: every step reads and
//! writes disjoint arena regions through safe `split_at_mut`
//! projections, and the fused linear steps call straight into
//! `edgepc_nn::fused_linear`. A run opens no span of its own; the
//! caller's stage span (`<module>.fc` in `edgepc-models`) times it.
//!
//! Step semantics replicate the eager ops bit-for-bit: fused linears
//! follow the eager matmul/bias/ReLU op order (a hoisted linear's
//! `Hoist` + `Resume` pair replays it split at column `c`), a pooled
//! linear and `MaxPool` replay `max_pool_groups` (strict `>`, first-seen
//! winner), `GatherMax` calls the eager EdgeConv's own
//! `edgepc_nn::gather_max_relu`, `Concat2` is `hstack`, `Broadcast` the
//! seg-head row replication.

use crate::graph::GatherMode;
use crate::schedule::{ASrc, Plan, Region, Src, Step};
use edgepc_nn::RowSource;

/// A dense runtime input (row-major borrow).
#[derive(Clone, Copy)]
pub struct InTensor<'a> {
    /// Row-major values (`rows * cols`).
    pub data: &'a [f32],
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
}

/// Runtime feed for one gather slot: the source feature matrix, the
/// flattened neighbor indices (one per gathered row;
/// `edgepc_nn::EMPTY_SLOT` marks zero-padded slots), and the
/// precomputed relative coordinates (`3 * rows` values). An EdgeConv's
/// gather-max slot reads `idx` only (`k` neighbours per point), so its
/// `feats` and `rel` may be empty.
#[derive(Clone, Copy)]
pub struct GatherIn<'a> {
    /// Source features, row-major with the mode's `c` columns.
    pub feats: &'a [f32],
    /// Flattened neighbor indices.
    pub idx: &'a [usize],
    /// Relative coordinates.
    pub rel: &'a [f32],
}

/// Borrowed runtime inputs for one plan execution. Slot order matches
/// the graph's `input`/`gather` declaration order. Both slices normally
/// live on the caller's stack, so feeding a plan allocates nothing.
#[derive(Clone, Copy)]
pub struct Inputs<'a> {
    /// Dense input tensors by slot.
    pub tensors: &'a [InTensor<'a>],
    /// Gather feeds by slot.
    pub gathers: &'a [GatherIn<'a>],
}

/// Executes compiled [`Plan`]s over a reusable arena. One executor per
/// worker thread; plans are shared.
#[derive(Default)]
pub struct Executor {
    arena: Vec<f32>,
}

impl Executor {
    /// Creates an executor with an empty arena (grown on first run).
    pub fn new() -> Self {
        Executor::default()
    }

    /// Runs `plan` over `inputs`. The first run for the largest plan
    /// grows the arena to exactly its length (no amortized slack, so a
    /// warm executor holds what its largest plan needs); every later run
    /// allocates nothing.
    pub fn run(&mut self, plan: &Plan, inputs: &Inputs<'_>) {
        validate_inputs(plan, inputs);
        if self.arena.len() < plan.arena_len() {
            self.arena
                .reserve_exact(plan.arena_len() - self.arena.len());
            self.arena.resize(plan.arena_len(), 0.0);
        }
        run_steps(&mut self.arena, plan, inputs);
    }

    /// Borrows the last run's output region (`out_rows * out_cols`
    /// row-major values). Only valid right after `run` with the same
    /// plan.
    pub fn output(&self, plan: &Plan) -> &[f32] {
        let r = plan.out;
        &self.arena[r.off..r.off + r.len]
    }

    /// Current arena capacity in floats: once warm it must not move
    /// across runs.
    pub fn arena_capacity(&self) -> usize {
        self.arena.capacity()
    }
}

fn validate_inputs(plan: &Plan, inputs: &Inputs<'_>) {
    assert_eq!(
        inputs.tensors.len(),
        plan.input_shapes.len(),
        "ir exec: input slot count"
    );
    for (t, &(rows, cols)) in inputs.tensors.iter().zip(&plan.input_shapes) {
        assert_eq!(
            (t.rows, t.cols),
            (rows, cols),
            "ir exec: input shape mismatch"
        );
        assert_eq!(t.data.len(), rows * cols, "ir exec: input length mismatch");
    }
    assert_eq!(
        inputs.gathers.len(),
        plan.gather_specs.len(),
        "ir exec: gather slot count"
    );
    for (g, spec) in inputs.gathers.iter().zip(&plan.gather_specs) {
        assert_eq!(
            g.idx.len(),
            spec.rows,
            "ir exec: gather index count mismatch"
        );
        // A gather-max slot's indices are range-checked by the kernel.
        let Some(mode) = spec.mode else { continue };
        let c = mode.channels();
        assert!(c > 0, "ir exec: gather needs at least one feature channel");
        assert_eq!(
            g.feats.len(),
            spec.src_rows * c,
            "ir exec: gather feature matrix must be src_rows x c"
        );
        assert_eq!(
            g.rel.len(),
            3 * spec.rows,
            "ir exec: gather rel count mismatch"
        );
    }
}

/// Gather `slot` as a kernel row source: one-pass, or resumed from the
/// hoisted head products `start`.
fn gather_source<'a>(
    plan: &Plan,
    inputs: &Inputs<'a>,
    slot: usize,
    start: Option<&'a [f32]>,
) -> RowSource<'a> {
    let g = &inputs.gathers[slot];
    let Some(GatherMode::SaGroup { c, .. }) = plan.gather_specs[slot].mode else {
        edgepc_geom::violation("ir exec: a gather-max slot cannot feed a linear")
    };
    RowSource::SaGroup {
        feats: g.feats,
        c,
        idx: g.idx,
        rel: g.rel,
        start,
    }
}

/// The steady-state interpreter loop: like the step helpers below, it
/// allocates nothing once the arena is warm.
fn run_steps(arena: &mut [f32], plan: &Plan, inputs: &Inputs<'_>) {
    for step in &plan.steps {
        match *step {
            Step::Fused {
                src,
                m,
                w,
                relu,
                pool,
                dst,
            } => {
                step_fused(arena, plan, inputs, src, (m, w, relu, pool), dst);
            }
            Step::Hoist { slot, rows, w, dst } => {
                step_hoist(arena, plan, inputs, slot, rows, w, dst);
            }
            Step::Resume {
                slot,
                m,
                w,
                relu,
                pool,
                start,
                dst,
            } => {
                step_resume(arena, plan, inputs, slot, (m, w, relu, pool), start, dst);
            }
            Step::GatherMax {
                p,
                q,
                slot,
                k,
                cols,
                dst,
            } => {
                let (p, q, out) = split2_dst(arena, p, q, dst);
                let idx = inputs.gathers[slot].idx;
                edgepc_nn::gather_max_relu(p, q, cols, idx, k, out, None);
            }
            Step::MaxPool {
                src,
                rows,
                cols,
                group,
                dst,
            } => {
                step_max_pool(arena, inputs, src, rows, cols, group, dst);
            }
            Step::Concat2 {
                a,
                b,
                rows,
                a_cols,
                b_cols,
                dst,
            } => {
                step_concat2(arena, inputs, a, b, rows, a_cols, b_cols, dst);
            }
            Step::Broadcast {
                src,
                cols,
                rows_out,
                dst,
            } => {
                step_broadcast(arena, inputs, src, cols, rows_out, dst);
            }
        }
    }
}

/// A kernel step's rows `m`, `Plan::linears` index, ReLU flag and pool
/// group.
type Pass = (usize, usize, bool, Option<usize>);

/// Runs plan linear `w` over `m` rows of `src` into `out`, with its bias
/// (if any) and ReLU, pooling groups of `pool` rows in the epilogue when
/// set.
fn linear_pass(plan: &Plan, src: &RowSource<'_>, (m, w, relu, pool): Pass, out: &mut [f32]) {
    let lin = &plan.linears[w];
    let bias = (!lin.b.is_empty()).then_some(lin.b.as_slice());
    let packed = lin.packed.as_ref();
    match pool {
        None => edgepc_nn::fused_linear(src, m, &lin.w, packed, bias, relu, out),
        Some(group) => {
            edgepc_nn::fused_linear_pooled(src, m, &lin.w, packed, bias, relu, group, out);
        }
    }
}

fn step_fused(
    arena: &mut [f32],
    plan: &Plan,
    inputs: &Inputs<'_>,
    src: ASrc,
    pass: Pass,
    dst: Region,
) {
    let (rs, out) = match src {
        ASrc::Input(slot) => (
            RowSource::Dense(inputs.tensors[slot].data),
            &mut arena[dst.off..dst.off + dst.len],
        ),
        ASrc::Gather(slot) => (
            gather_source(plan, inputs, slot, None),
            &mut arena[dst.off..dst.off + dst.len],
        ),
        ASrc::Arena(r) => {
            let (a, out) = split_src_dst(arena, r, dst);
            (RowSource::Dense(a), out)
        }
    };
    linear_pass(plan, &rs, pass, out);
}

/// `P = feats · W[..c]` over gather `slot`'s source rows: the hoisted
/// per-point half of its linear, before any bias or ReLU.
fn step_hoist(
    arena: &mut [f32],
    plan: &Plan,
    inputs: &Inputs<'_>,
    slot: usize,
    rows: usize,
    w: usize,
    dst: Region,
) {
    let lin = &plan.linears[w];
    edgepc_nn::fused_linear(
        &RowSource::Dense(inputs.gathers[slot].feats),
        rows,
        &lin.w,
        lin.packed.as_ref(),
        None,
        false,
        &mut arena[dst.off..dst.off + dst.len],
    );
}

/// The gathered tail times `W[c..]`, each row resuming from its
/// `Hoist` row in `start`, then bias and ReLU (and the pool).
fn step_resume(
    arena: &mut [f32],
    plan: &Plan,
    inputs: &Inputs<'_>,
    slot: usize,
    pass: Pass,
    start: Region,
    dst: Region,
) {
    let (p, out) = split_src_dst(arena, start, dst);
    linear_pass(plan, &gather_source(plan, inputs, slot, Some(p)), pass, out);
}

fn step_max_pool(
    arena: &mut [f32],
    inputs: &Inputs<'_>,
    src: Src,
    rows: usize,
    cols: usize,
    group: usize,
    dst: Region,
) {
    let (s, out) = resolve_src_dst(arena, inputs, src, dst);
    let groups = rows / group;
    for g in 0..groups {
        for c in 0..cols {
            // Strict `>` with NEG_INFINITY start: identical winner (and
            // identical bits) to the eager `max_pool_groups`.
            let mut best = f32::NEG_INFINITY;
            for r in g * group..(g + 1) * group {
                let v = s[r * cols + c];
                if v > best {
                    best = v;
                }
            }
            out[g * cols + c] = best;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn step_concat2(
    arena: &mut [f32],
    inputs: &Inputs<'_>,
    a: Src,
    b: Src,
    rows: usize,
    a_cols: usize,
    b_cols: usize,
    dst: Region,
) {
    match (a, b) {
        (Src::Arena(ra), Src::Arena(rb)) => {
            let (sa, sb, out) = split2_dst(arena, ra, rb, dst);
            concat_rows(sa, sb, rows, a_cols, b_cols, out);
        }
        (Src::Arena(ra), Src::Input(ib)) => {
            let (sa, out) = split_src_dst(arena, ra, dst);
            concat_rows(sa, inputs.tensors[ib].data, rows, a_cols, b_cols, out);
        }
        (Src::Input(ia), Src::Arena(rb)) => {
            let (sb, out) = split_src_dst(arena, rb, dst);
            concat_rows(inputs.tensors[ia].data, sb, rows, a_cols, b_cols, out);
        }
        (Src::Input(ia), Src::Input(ib)) => {
            let out = &mut arena[dst.off..dst.off + dst.len];
            concat_rows(
                inputs.tensors[ia].data,
                inputs.tensors[ib].data,
                rows,
                a_cols,
                b_cols,
                out,
            );
        }
    }
}

fn concat_rows(a: &[f32], b: &[f32], rows: usize, a_cols: usize, b_cols: usize, out: &mut [f32]) {
    let w = a_cols + b_cols;
    for r in 0..rows {
        out[r * w..r * w + a_cols].copy_from_slice(&a[r * a_cols..(r + 1) * a_cols]);
        out[r * w + a_cols..(r + 1) * w].copy_from_slice(&b[r * b_cols..(r + 1) * b_cols]);
    }
}

fn step_broadcast(
    arena: &mut [f32],
    inputs: &Inputs<'_>,
    src: Src,
    cols: usize,
    rows_out: usize,
    dst: Region,
) {
    let (s, out) = resolve_src_dst(arena, inputs, src, dst);
    for row in out.chunks_exact_mut(cols).take(rows_out) {
        row.copy_from_slice(&s[..cols]);
    }
}

/// Resolves a read operand and the destination region simultaneously
/// (splitting the arena when the operand also lives there).
fn resolve_src_dst<'t>(
    arena: &'t mut [f32],
    inputs: &Inputs<'t>,
    src: Src,
    dst: Region,
) -> (&'t [f32], &'t mut [f32]) {
    match src {
        Src::Arena(r) => split_src_dst(arena, r, dst),
        Src::Input(slot) => {
            let out = &mut arena[dst.off..dst.off + dst.len];
            (inputs.tensors[slot].data, out)
        }
    }
}

/// Disjoint (read, write) projection of two arena regions via
/// `split_at_mut`; diverges if the scheduler ever produced overlapping
/// regions (it allocates destinations before releasing sources).
fn split_src_dst(arena: &mut [f32], src: Region, dst: Region) -> (&[f32], &mut [f32]) {
    if src.off + src.len <= dst.off {
        let (lo, hi) = arena.split_at_mut(dst.off);
        (&lo[src.off..src.off + src.len], &mut hi[..dst.len])
    } else if dst.off + dst.len <= src.off {
        let (lo, hi) = arena.split_at_mut(src.off);
        (&hi[..src.len], &mut lo[dst.off..dst.off + dst.len])
    } else {
        edgepc_geom::violation("ir exec: overlapping src/dst regions")
    }
}

/// Disjoint (read, read, write) projection of three arena regions.
fn split2_dst(
    arena: &mut [f32],
    a: Region,
    b: Region,
    dst: Region,
) -> (&[f32], &[f32], &mut [f32]) {
    let disjoint = |x: Region, y: Region| x.off + x.len <= y.off || y.off + y.len <= x.off;
    if !(disjoint(a, dst) && disjoint(b, dst)) {
        edgepc_geom::violation("ir exec: overlapping concat regions");
    }
    let (lo, rest) = arena.split_at_mut(dst.off);
    let (out, hi) = rest.split_at_mut(dst.len);
    let lo: &[f32] = lo;
    let hi: &[f32] = hi;
    let hi_base = dst.off + dst.len;
    let ra = if a.off + a.len <= dst.off {
        &lo[a.off..a.off + a.len]
    } else {
        &hi[a.off - hi_base..a.off - hi_base + a.len]
    };
    let rb = if b.off + b.len <= dst.off {
        &lo[b.off..b.off + b.len]
    } else {
        &hi[b.off - hi_base..b.off - hi_base + b.len]
    };
    (ra, rb, out)
}
