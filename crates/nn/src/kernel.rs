//! Fused dense kernels over the blocked 4x8-tile panel micro-kernel.
//!
//! This module is the single home of the workspace's matmul inner loops:
//! `Tensor2::matmul` is a bias-free [`fused_linear`] call, and the
//! `edgepc-ir` executor calls [`fused_linear`] to run a whole
//! `Linear(→ReLU)` layer as one pass over the output. The fusion contract is bit-exactness:
//! for every output element the sequence of f32 operations (k-ascending
//! multiply-accumulate, then `+ bias`, then `max(0.0)`) is identical to
//! the eager `matmul` → `add_row_vector` → `ReLU` pipeline, so fused and
//! eager paths produce bit-identical results at any thread budget.
//!
//! [`RowSource`] generalizes the A-operand: besides a dense row-major
//! slice it supports the two gather shapes of the point-cloud models
//! (PointNet++ SA grouping rows and DGCNN edge-pair rows). Gathered rows
//! are staged into a stack buffer per register tile and stream straight
//! into the panel micro-kernel — the grouped matrix is never
//! materialized, which is what makes the `gathered_bytes` op-counter
//! drop under the compiled plans.
//!
//! A gather can also be *resumed*: its leading `c` columns depend on one
//! source row only (`feats[i]` for an edge pair, `feats[idx[r]]` for an
//! SA row), so their partial sums can be computed once per source row —
//! a dense pass `P = feats · W[..c]` — and handed back as the gather's
//! `start`. The resumed pass then stages only the tail columns and
//! starts each accumulator from its row of `P` instead of `+0.0`. That
//! replays the same k-ascending f32 operations in the same order, so the
//! two-pass result is bit-identical to the one-pass product.
//!
//! [`fused_linear_pooled`] adds the grouped max-pool to the epilogue:
//! each finished tile row is folded into its group's running max, so the
//! pooled layer never allocates its `m x n` product (a product small
//! enough for the naive loop passes through a reused per-thread buffer).
//!
//! [`nearest_rows`] runs DGCNN's feature-space k-NN on the same tiles:
//! candidates packed like a weight matrix's panels, a 4x8 tile of
//! squared distances, each the per-pair scalar loop's exact float
//! sequence, computed once per unordered pair and selected per query
//! with that loop's result.

use crate::Tensor2;
use std::cell::RefCell;

/// Below this `m * k * n` work bound the simple triple loop beats the
/// cache-blocked kernel (packing overhead dominates).
pub(crate) const SMALL_MATMUL_WORK: usize = 32 * 1024;
/// Register-tile rows (A rows per micro-kernel step).
pub(crate) const MATMUL_MR: usize = 4;
/// Register-tile columns (B columns per packed panel).
pub(crate) const MATMUL_NR: usize = 8;
/// Row-block size: each parallel chunk owns `MATMUL_MC` output rows.
pub(crate) const MATMUL_MC: usize = 64;

/// Largest reduction width (`k`) a gather-backed [`RowSource`] supports:
/// gathered rows are staged on the stack, so the bound must be a
/// compile-time constant. Covers the paper configs with headroom
/// (PointNet++ SA4 gathers c+3 = 259, DGCNN edge pairs 2c = 256).
pub const MAX_FUSED_K: usize = 512;

/// Sentinel neighbor index marking an unfilled grouping slot (ball query
/// can return fewer than `k` neighbors). Staged as an all-zero row, the
/// exact representation the eager grouping buffer uses.
pub const EMPTY_SLOT: usize = usize::MAX;

thread_local! {
    /// Per-thread buffer for transient B-panel packing (used when the
    /// caller did not pre-pack the weights, and for [`nearest_rows`]'
    /// candidate panels), and for a small pooled pass's product. Reused
    /// across calls, so a warm pass allocates nothing.
    static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread distance tiles of [`nearest_rows`] (see `Tiles`), reused
    /// across calls like `PACK_BUF`.
    static DIST_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The A operand of a fused linear pass: either a dense row-major matrix
/// or an index-driven gather producing rows on the fly.
///
/// A gather with a `start` is the resumed tail of a hoisted product:
/// `start` holds `feats · W[..c]` (`points x n`, row-major), each row
/// stages only the columns after the first `c`, and its accumulators
/// start from the `start` row of its source point.
pub enum RowSource<'a> {
    /// Dense `m x k` row-major slice.
    Dense(&'a [f32]),
    /// PointNet++ SA grouping rows: row `r` is
    /// `[feats.row(idx[r]) | rel[3r..3r+3]]` (width `c + 3`), or all
    /// zeros when `idx[r] == EMPTY_SLOT`. Resumed (`start` set), row `r`
    /// is `rel[3r..3r+3]` (width 3) starting from `start.row(idx[r])`,
    /// or zeros starting from `+0.0` for an `EMPTY_SLOT`.
    SaGroup {
        /// Source feature matrix, row-major with `c` columns.
        feats: &'a [f32],
        /// Feature channels per point.
        c: usize,
        /// Flattened neighbor index per grouped row (`EMPTY_SLOT` pads).
        idx: &'a [usize],
        /// Relative coordinates per grouped row (`3 * m` values).
        rel: &'a [f32],
        /// Hoisted head products, one row per source point.
        start: Option<&'a [f32]>,
    },
    /// DGCNN EdgeConv rows: row `r` (center `i = r / k`, neighbor
    /// `j = idx[r]`) is `[feats.row(i) | feats.row(j) - feats.row(i)]`
    /// (width `2c`). Resumed (`start` set), row `r` is
    /// `feats.row(j) - feats.row(i)` (width `c`) starting from
    /// `start.row(i)`.
    EdgePair {
        /// Source feature matrix, row-major with `c` columns.
        feats: &'a [f32],
        /// Feature channels per point.
        c: usize,
        /// Neighbors per center point.
        k: usize,
        /// Flattened neighbor index per edge row (`m` values).
        idx: &'a [usize],
        /// Hoisted head products, one row per source point.
        start: Option<&'a [f32]>,
    },
}

impl RowSource<'_> {
    /// Materialize row `r` into `dst` (`dst.len()` must equal the row
    /// width): the whole gathered row, or only its tail when the source
    /// is resumed. Element-for-element the same moves and subtractions
    /// the eager grouping buffers perform, so staged rows are
    /// bit-identical to materialized ones. The fused paths call it per
    /// tile.
    fn stage_row(&self, r: usize, dst: &mut [f32]) {
        match self {
            RowSource::Dense(a) => {
                let w = dst.len();
                dst.copy_from_slice(&a[r * w..(r + 1) * w]);
            }
            RowSource::SaGroup {
                feats,
                c,
                idx,
                rel,
                start,
            } => {
                let j = idx[r];
                if j == EMPTY_SLOT {
                    dst.fill(0.0);
                    return;
                }
                let tail = match start {
                    Some(_) => dst,
                    None => {
                        dst[..*c].copy_from_slice(&feats[j * c..j * c + c]);
                        &mut dst[*c..]
                    }
                };
                tail.copy_from_slice(&rel[3 * r..3 * r + 3]);
            }
            RowSource::EdgePair {
                feats,
                c,
                k,
                idx,
                start,
            } => {
                let i = r / k;
                let j = idx[r];
                let fi = &feats[i * c..(i + 1) * c];
                let fj = &feats[j * c..(j + 1) * c];
                let tail = match start {
                    Some(_) => dst,
                    None => {
                        dst[..*c].copy_from_slice(fi);
                        &mut dst[*c..]
                    }
                };
                for (d, (&a, &b)) in tail.iter_mut().zip(fj.iter().zip(fi)) {
                    *d = a - b;
                }
            }
        }
    }

    /// The `n`-wide accumulator start of row `r`: the hoisted head
    /// products of its source point, or `None` for `+0.0` (a dense or
    /// one-pass operand, or an `EMPTY_SLOT` row).
    fn start_row(&self, r: usize, n: usize) -> Option<&[f32]> {
        let (p, at) = match self {
            RowSource::Dense(_) => return None,
            RowSource::SaGroup { start, idx, .. } => match idx[r] {
                EMPTY_SLOT => return None,
                j => ((*start)?, j),
            },
            RowSource::EdgePair { start, k, .. } => ((*start)?, r / k),
        };
        Some(&p[at * n..(at + 1) * n])
    }

    /// Contract checks run once up front, so a malformed operand fails
    /// with its own message instead of a slice-index panic inside a
    /// parallel chunk. `kk` is the staged row width, `n` the output
    /// width a resumed source's `start` rows must have.
    fn validate(&self, m: usize, kk: usize, n: usize) {
        match self {
            RowSource::Dense(a) => {
                assert_eq!(a.len(), m * kk, "dense A operand size mismatch");
            }
            RowSource::SaGroup {
                feats,
                c,
                idx,
                rel,
                start,
            } => {
                assert!(*c > 0, "SA group needs at least one feature channel");
                let width = if start.is_some() { 3 } else { c + 3 };
                assert_eq!(kk, width, "SA group row width must be c + 3 (3 resumed)");
                assert!(kk <= MAX_FUSED_K, "SA group row width exceeds MAX_FUSED_K");
                assert_eq!(idx.len(), m, "SA group index count mismatch");
                assert_eq!(rel.len(), 3 * m, "SA group rel-coord count mismatch");
                assert_eq!(feats.len() % c, 0, "SA group feature matrix ragged");
                let points = feats.len() / c;
                assert!(
                    idx.iter().all(|&j| j == EMPTY_SLOT || j < points),
                    "SA group neighbor index out of range"
                );
                if let Some(p) = start {
                    assert_eq!(p.len(), points * n, "SA group start matrix shape mismatch");
                }
            }
            RowSource::EdgePair {
                feats,
                c,
                k,
                idx,
                start,
            } => {
                assert!(*c > 0, "edge pair needs at least one feature channel");
                let width = if start.is_some() { *c } else { 2 * c };
                assert_eq!(kk, width, "edge-pair row width must be 2c (c resumed)");
                assert!(kk <= MAX_FUSED_K, "edge-pair row width exceeds MAX_FUSED_K");
                assert_eq!(idx.len(), m, "edge-pair index count mismatch");
                assert!(
                    *k > 0 && m.is_multiple_of(*k),
                    "edge-pair rows must tile by k"
                );
                assert_eq!(feats.len() % c, 0, "edge-pair feature matrix ragged");
                let points = feats.len() / c;
                assert!(m / k <= points, "edge-pair center index out of range");
                assert!(
                    idx.iter().all(|&j| j < points),
                    "edge-pair neighbor index out of range"
                );
                if let Some(p) = start {
                    assert_eq!(p.len(), points * n, "edge-pair start matrix shape mismatch");
                }
            }
        }
    }
}

/// B-operand panels packed once ahead of time (NR-column, k-major,
/// zero-padded) so steady-state fused passes skip per-call packing.
/// Packing is a pure data movement, so prepacked and on-the-fly panels
/// hold identical bits.
pub struct PackedPanels {
    data: Vec<f32>,
    kk: usize,
    n: usize,
}

impl PackedPanels {
    /// Pack weight matrix `w` (`k x n`) into NR-column panels.
    pub fn pack(w: &Tensor2) -> Self {
        let (kk, n) = (w.rows(), w.cols());
        let n_panels = n.div_ceil(MATMUL_NR);
        let mut data = vec![0.0f32; n_panels * kk * MATMUL_NR];
        pack_panels(w, &mut data);
        PackedPanels { data, kk, n }
    }

    /// Reduction width (`k`) of the packed matrix.
    pub fn k(&self) -> usize {
        self.kk
    }

    /// Column count (`n`) of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }
}

fn pack_panels(w: &Tensor2, packed: &mut [f32]) {
    let (kk, n) = (w.rows(), w.cols());
    let n_panels = n.div_ceil(MATMUL_NR);
    for p in 0..n_panels {
        let c0 = p * MATMUL_NR;
        let width = MATMUL_NR.min(n - c0);
        let base = p * kk * MATMUL_NR;
        for k in 0..kk {
            let at = base + k * MATMUL_NR;
            packed[at..at + width].copy_from_slice(&w.row(k)[c0..c0 + width]);
        }
    }
}

/// Returns `true` if a `m x k` by `k x n` product dispatches to the
/// cache-blocked kernel (as opposed to the naive small-product loop).
/// Exposed so the IR scheduler can decide which weights to prepack.
pub fn kernel_uses_blocked_path(m: usize, k: usize, n: usize) -> bool {
    m * k * n >= SMALL_MATMUL_WORK
}

/// Returns `true` if computing a gather's `c`-column head once per source
/// row (a hoisted pass, then the tail resumed from it) beats the one-pass
/// gathered product. The resumed tail starts each register tile from
/// `MATMUL_MR` loaded rows, where the one-pass tile starts from zeros;
/// the head's `c` k-steps saved per tile must outnumber those loads.
/// Measured on one thread, AVX2 host: at `c = 3` one pass is as fast or
/// faster (paper SA1 pooled 0.87 vs 0.92 ms; a 512-row SA1 9.9 vs 20.2
/// µs), at `c = 64` the hoisted pair is ~3× faster.
pub fn hoisting_pays(c: usize) -> bool {
    c > MATMUL_MR
}

/// One fused `A * W (+ bias) (then ReLU)` pass into `out` (`m x n`,
/// row-major, fully overwritten). Dispatches between the naive and
/// blocked kernels with the same work-size gate `Tensor2::matmul` uses,
/// so a fused call is bit-identical to the eager layer sequence it
/// replaces. Pass `packed` to skip per-call panel packing (the compiled
/// plans pack every blocked-path weight once at schedule time). A
/// resumed gather `src` (one with a `start`) takes `W`'s tail rows and
/// starts each row's accumulators from its `start` row.
pub fn fused_linear(
    src: &RowSource<'_>,
    m: usize,
    w: &Tensor2,
    packed: Option<&PackedPanels>,
    bias: Option<&[f32]>,
    relu: bool,
    out: &mut [f32],
) {
    check_operands(src, m, w, packed, bias);
    assert_eq!(out.len(), m * w.cols(), "fused_linear output size mismatch");
    if m * w.rows() * w.cols() < SMALL_MATMUL_WORK {
        naive_into(src, m, w, bias, relu, out);
    } else {
        blocked_into(src, m, w, packed, bias, relu, out);
    }
}

/// [`fused_linear`] followed by `max_pool_groups(·, group)`, in one pass:
/// `out` (`m / group x n`, fully overwritten) receives each group of
/// `group` consecutive rows' column-wise max, and the `m x n` product is
/// never stored. Each finished tile row takes the same `+ bias`, then
/// `max(0.0)`, as in [`fused_linear`], and is folded into its group's
/// running max in ascending row order with `max_pool_groups`' strict `>`
/// from `-inf` (first-seen winner, NaN never wins). So the pooled result
/// is bit-identical to the two-step one, ±0.0 and NaN included.
///
/// # Panics
///
/// Panics on the [`fused_linear`] contract checks, or if `group` is zero
/// or does not divide `m`.
#[allow(clippy::too_many_arguments)]
pub fn fused_linear_pooled(
    src: &RowSource<'_>,
    m: usize,
    w: &Tensor2,
    packed: Option<&PackedPanels>,
    bias: Option<&[f32]>,
    relu: bool,
    group: usize,
    out: &mut [f32],
) {
    check_operands(src, m, w, packed, bias);
    assert!(
        group > 0 && m.is_multiple_of(group),
        "pooled rows must tile by the group"
    );
    let n = w.cols();
    assert_eq!(out.len(), m / group * n, "pooled output size mismatch");
    out.fill(f32::NEG_INFINITY);
    if m * w.rows() * n < SMALL_MATMUL_WORK {
        naive_pooled(src, m, w, bias, relu, group, out);
    } else {
        blocked_pooled(src, m, w, packed, bias, relu, group, out);
    }
}

/// The contract checks every fused entry point runs before any work.
fn check_operands(
    src: &RowSource<'_>,
    m: usize,
    w: &Tensor2,
    packed: Option<&PackedPanels>,
    bias: Option<&[f32]>,
) {
    let (kk, n) = (w.rows(), w.cols());
    src.validate(m, kk, n);
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "fused_linear bias width mismatch");
    }
    if let Some(p) = packed {
        assert!(p.kk == kk && p.n == n, "prepacked panel shape mismatch");
    }
}

/// Simple triple loop with the exact-zero sparsity skip; per output
/// element the accumulation order (from the row's start) matches the
/// blocked kernel's k-order. The skip tests for exact ±0.0 on purpose:
/// a zero coefficient contributes exactly nothing, while an epsilon test
/// would silently change numerics for tiny weights.
// waive EP002: the exact +/-0.0 sparsity skip is deliberate (see above)
pub(crate) fn naive_into(
    src: &RowSource<'_>,
    m: usize,
    w: &Tensor2,
    bias: Option<&[f32]>,
    relu: bool,
    out: &mut [f32],
) {
    let (kk, n) = (w.rows(), w.cols());
    let mut staged = [0.0f32; MAX_FUSED_K];
    for i in 0..m {
        let a_row: &[f32] = match src {
            RowSource::Dense(a) => &a[i * kk..(i + 1) * kk],
            other => {
                other.stage_row(i, &mut staged[..kk]);
                &staged[..kk]
            }
        };
        let out_row = &mut out[i * n..(i + 1) * n];
        match src.start_row(i, n) {
            Some(start) => out_row.copy_from_slice(start),
            None => out_row.fill(0.0),
        }
        for (k, &a) in a_row.iter().enumerate() {
            // Exact-zero test on purpose: grouping buffers zero-pad
            // unfilled neighbor slots, and a zero coefficient
            // contributes exactly nothing (see the waiver above).
            if a == 0.0 {
                continue;
            }
            let b_row = w.row(k);
            for (o, &b) in out_row.iter_mut().zip(b_row) {
                *o += a * b;
            }
        }
        if let Some(b) = bias {
            for (o, &bv) in out_row.iter_mut().zip(b) {
                *o += bv;
            }
        }
        if relu {
            for v in out_row.iter_mut() {
                *v = v.max(0.0);
            }
        }
    }
}

/// The small pooled pass: [`naive_into`]'s product, stored in this
/// thread's `PACK_BUF` (the naive path packs no panels, and below
/// `SMALL_MATMUL_WORK` the product is small), then its rows folded into
/// their groups of `out` (pre-filled `-inf`) in ascending order.
fn naive_pooled(
    src: &RowSource<'_>,
    m: usize,
    w: &Tensor2,
    bias: Option<&[f32]>,
    relu: bool,
    group: usize,
    out: &mut [f32],
) {
    let n = w.cols();
    let mut rows = take_pack_buf(m * n);
    naive_into(src, m, w, bias, relu, &mut rows);
    for (i, row) in rows.chunks_exact(n).enumerate() {
        max_row(&mut out[i / group * n..(i / group + 1) * n], row);
    }
    PACK_BUF.with(|b| *b.borrow_mut() = rows);
}

/// A finished accumulator row through the epilogue `fused_linear`
/// applies: `+ bias`, then `max(0.0)` when `relu`.
#[inline(always)]
fn activate(
    acc: &[f32; MATMUL_NR],
    bias: Option<&[f32; MATMUL_NR]>,
    relu: bool,
) -> [f32; MATMUL_NR] {
    let mut v = *acc;
    if let Some(b) = bias {
        for (x, &b) in v.iter_mut().zip(b) {
            *x += b;
        }
    }
    if relu {
        for x in v.iter_mut() {
            *x = x.max(0.0);
        }
    }
    v
}

/// `max_pool_groups`' step, lane by lane: `x` replaces the running max
/// only when strictly greater, so the first of equal values (±0.0
/// included) wins and a NaN never does. Taking the first maximum is
/// associative, so rows may be folded into a register run first and the
/// run into memory after, as long as the order of rows is kept.
#[inline(always)]
fn max_into(run: &mut [f32; MATMUL_NR], v: &[f32; MATMUL_NR]) {
    for (r, &x) in run.iter_mut().zip(v) {
        *r = if x > *r { x } else { *r };
    }
}

/// Folds `run` into a pooled row's panel columns `dst`. Only `dst.len()`
/// lanes are folded, so a ragged last panel's padding lanes never reach
/// the next row.
#[inline(always)]
fn fold_max(dst: &mut [f32], run: &[f32; MATMUL_NR]) {
    match dst.first_chunk_mut::<MATMUL_NR>() {
        Some(full) => max_into(full, run),
        None => max_row(dst, run),
    }
}

/// [`max_into`] over a slice: `row` folded into the running maxima `dst`,
/// lane by lane, up to the shorter of the two.
#[inline(always)]
fn max_row(dst: &mut [f32], row: &[f32]) {
    for (d, &x) in dst.iter_mut().zip(row) {
        if x > *d {
            *d = x;
        }
    }
}

/// Up to `MATMUL_NR` values as a full lane array, zero-padded.
#[inline(always)]
fn lanes(v: &[f32]) -> [f32; MATMUL_NR] {
    match v.first_chunk::<MATMUL_NR>() {
        Some(full) => *full,
        None => {
            let mut out = [0.0f32; MATMUL_NR];
            out[..v.len()].copy_from_slice(v);
            out
        }
    }
}

/// Cache-blocked kernel: rows are chunked `MATMUL_MC` at a time across
/// the thread pool with fixed chunk boundaries (bit-identical recombination
/// at any thread budget), and each chunk walks NR-wide packed B panels
/// with an MR x NR register tile. Bias and ReLU run as chunk-local
/// epilogues, preserving the eager per-element op order.
pub(crate) fn blocked_into(
    src: &RowSource<'_>,
    m: usize,
    w: &Tensor2,
    packed: Option<&PackedPanels>,
    bias: Option<&[f32]>,
    relu: bool,
    out: &mut [f32],
) {
    let (kk, n) = (w.rows(), w.cols());
    assert_eq!(out.len(), m * n, "blocked_into output size mismatch");
    with_panels(w, packed, |panels| {
        edgepc_par::with_work(m * kk * n, || {
            edgepc_par::par_chunks_mut(out, MATMUL_MC * n, |ci, chunk| {
                let rows = chunk.len() / n;
                for_each_tile(src, ci * MATMUL_MC, rows, kk, n, |tile, starts, t0, mr| {
                    let out_rows = &mut chunk[t0 * n..(t0 + mr) * n];
                    tile_panels(tile, starts, kk, n, panels, out_rows);
                });
                if let Some(b) = bias {
                    for row in chunk.chunks_exact_mut(n) {
                        for (o, &bv) in row.iter_mut().zip(b) {
                            *o += bv;
                        }
                    }
                }
                if relu {
                    for v in chunk.iter_mut() {
                        *v = v.max(0.0);
                    }
                }
            });
        });
    });
}

/// The blocked kernel with the pool in its epilogue: chunks hold whole
/// groups (`MATMUL_MC / group` of them, at least one), so each pooled row
/// is folded by one chunk, in ascending row order, from the register
/// tile straight into `out` (pre-filled `-inf`).
#[allow(clippy::too_many_arguments)]
fn blocked_pooled(
    src: &RowSource<'_>,
    m: usize,
    w: &Tensor2,
    packed: Option<&PackedPanels>,
    bias: Option<&[f32]>,
    relu: bool,
    group: usize,
    out: &mut [f32],
) {
    let (kk, n) = (w.rows(), w.cols());
    let groups = (MATMUL_MC / group).max(1);
    with_panels(w, packed, |panels| {
        edgepc_par::with_work(m * kk * n, || {
            edgepc_par::par_chunks_mut(out, groups * n, |ci, pooled| {
                let r0 = ci * groups * group;
                let rows = pooled.len() / n * group;
                let epilogue = Epilogue { bias, relu, group };
                for_each_tile(src, r0, rows, kk, n, |tile, starts, t0, mr| {
                    epilogue.tile(tile, starts, t0, mr, kk, n, panels, pooled);
                });
            });
        });
    });
}

/// The one staging loop of the blocked kernels: hands `step` each
/// register tile of chunk rows `r0..r0 + rows` in order, as its A rows,
/// its rows' accumulator starts, its first row within the chunk (`t0`)
/// and its height (`mr`). Dense rows are borrowed in place; gathered
/// rows are staged once per tile. Always inlined, so each caller's
/// `step` compiles into its own loop.
#[inline(always)]
fn for_each_tile(
    src: &RowSource<'_>,
    r0: usize,
    rows: usize,
    kk: usize,
    n: usize,
    mut step: impl FnMut([&[f32]; MATMUL_MR], [Option<&[f32]>; MATMUL_MR], usize, usize),
) {
    match src {
        RowSource::Dense(a) => {
            for t0 in (0..rows).step_by(MATMUL_MR) {
                let mr = MATMUL_MR.min(rows - t0);
                step(tile_rows(a, r0 + t0, mr, kk), [None; MATMUL_MR], t0, mr);
            }
        }
        gather => {
            let mut staged = [0.0f32; MATMUL_MR * MAX_FUSED_K];
            for t0 in (0..rows).step_by(MATMUL_MR) {
                let (row0, mr) = (r0 + t0, MATMUL_MR.min(rows - t0));
                for ri in 0..mr {
                    gather.stage_row(row0 + ri, &mut staged[ri * kk..(ri + 1) * kk]);
                }
                let starts = std::array::from_fn(|ri| {
                    (ri < mr).then(|| gather.start_row(row0 + ri, n)).flatten()
                });
                step(tile_rows(&staged, 0, mr, kk), starts, t0, mr);
            }
        }
    }
}

/// What a pooled pass does to each finished tile row: `+ bias`, ReLU,
/// then fold into the running max of its group of `group` rows.
struct Epilogue<'a> {
    bias: Option<&'a [f32]>,
    relu: bool,
    group: usize,
}

impl Epilogue<'_> {
    /// Walks every packed B panel for the register tile of A `rows`
    /// (chunk rows `t0..t0 + mr`) and folds each finished row into its
    /// pooled row of `pooled`, the chunk's `n`-wide running maxima.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn tile(
        &self,
        rows: [&[f32]; MATMUL_MR],
        starts: [Option<&[f32]>; MATMUL_MR],
        t0: usize,
        mr: usize,
        kk: usize,
        n: usize,
        panels: &[f32],
        pooled: &mut [f32],
    ) {
        let at: [usize; MATMUL_MR] = std::array::from_fn(|ri| (t0 + ri) / self.group * n);
        for (p, c0) in (0..n).step_by(MATMUL_NR).enumerate() {
            let panel = &panels[p * kk * MATMUL_NR..(p + 1) * kk * MATMUL_NR];
            let acc = micro_kernel(rows, panel, start_tile(starts, c0, n));
            let width = MATMUL_NR.min(n - c0);
            let bias = self.bias.map(|b| lanes(&b[c0..c0 + width]));
            // The tile's rows of one group reduce in registers; each run
            // is folded into its pooled row once.
            let mut run = [f32::NEG_INFINITY; MATMUL_NR];
            for ri in 0..mr {
                if ri > 0 && at[ri] != at[ri - 1] {
                    fold_max(&mut pooled[at[ri - 1] + c0..at[ri - 1] + c0 + width], &run);
                    run = [f32::NEG_INFINITY; MATMUL_NR];
                }
                max_into(&mut run, &activate(&acc[ri], bias.as_ref(), self.relu));
            }
            fold_max(&mut pooled[at[mr - 1] + c0..at[mr - 1] + c0 + width], &run);
        }
    }
}

/// Runs `f` over the NR-column panels of `w`: the prepacked ones, or
/// this thread's `PACK_BUF` packed on the fly (and put back after).
fn with_panels<R>(w: &Tensor2, packed: Option<&PackedPanels>, f: impl FnOnce(&[f32]) -> R) -> R {
    match packed {
        Some(p) => f(&p.data),
        None => {
            let mut buf = take_pack_buf(w.cols().div_ceil(MATMUL_NR) * w.rows() * MATMUL_NR);
            pack_panels(w, &mut buf);
            let r = f(&buf);
            PACK_BUF.with(|b| *b.borrow_mut() = buf);
            r
        }
    }
}

/// This thread's `PACK_BUF`, taken out and zero-filled to `len` like a
/// fresh buffer: a ragged last panel's padding columns must read exactly
/// 0.0. Put it back when done, so the next call reuses its capacity.
fn take_pack_buf(len: usize) -> Vec<f32> {
    let mut buf = PACK_BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// The A rows of one register tile: rows `row0..row0 + mr` of the
/// `kk`-wide row-major `a`. A ragged last tile (`mr < MATMUL_MR`) repeats
/// its last row so the micro-kernel always sees a full tile; the store
/// in [`tile_panels`] drops the repeats.
fn tile_rows(a: &[f32], row0: usize, mr: usize, kk: usize) -> [&[f32]; MATMUL_MR] {
    std::array::from_fn(|ri| {
        let row = row0 + ri.min(mr - 1);
        &a[row * kk..(row + 1) * kk]
    })
}

/// Walk every packed B panel for one register tile of A `rows` (each
/// `kk` long) and copy the finished tiles into `out_rows`, the tile's
/// `n`-wide output rows. Each row's accumulators start from its
/// `n`-wide `starts` row, or `+0.0` for `None`. `out_rows` may hold
/// fewer than `MATMUL_MR` rows (ragged last tile); the surplus
/// accumulator rows are dropped. Always inlined, so the dense call
/// site's all-`None` starts fold to the zero tile.
#[inline(always)]
fn tile_panels(
    rows: [&[f32]; MATMUL_MR],
    starts: [Option<&[f32]>; MATMUL_MR],
    kk: usize,
    n: usize,
    panels: &[f32],
    out_rows: &mut [f32],
) {
    for (p, c0) in (0..n).step_by(MATMUL_NR).enumerate() {
        let panel = &panels[p * kk * MATMUL_NR..(p + 1) * kk * MATMUL_NR];
        let acc = micro_kernel(rows, panel, start_tile(starts, c0, n));
        for (out_row, acc_row) in out_rows.chunks_exact_mut(n).zip(&acc) {
            let dst = &mut out_row[c0..];
            match dst.first_chunk_mut::<MATMUL_NR>() {
                Some(full) => *full = *acc_row,
                None => dst.copy_from_slice(&acc_row[..dst.len()]),
            }
        }
    }
}

/// The accumulator start of the panel at column `c0`: each row's
/// `starts` columns `c0..c0 + MATMUL_NR` (clipped at `n`), `+0.0` for
/// `None` and past the last column.
#[inline(always)]
fn start_tile(
    starts: [Option<&[f32]>; MATMUL_MR],
    c0: usize,
    n: usize,
) -> [[f32; MATMUL_NR]; MATMUL_MR] {
    let mut start = [[0.0f32; MATMUL_NR]; MATMUL_MR];
    for (tile_row, row) in start.iter_mut().zip(starts) {
        if let Some(row) = row {
            *tile_row = lanes(&row[c0..n.min(c0 + MATMUL_NR)]);
        }
    }
    start
}

/// The one matmul inner loop: an MR x NR tile of `start + rows * panel`,
/// each element a k-ascending sum of separately rounded products
/// (multiply, then add — never fused, never split) onto its `start`
/// value, which is what keeps blocked, naive, fused, resumed and eager
/// results bit-identical. `start` is all `+0.0` except in a resumed
/// pass. Every row must be as long as the panel is deep
/// (`panel.len() / MATMUL_NR`).
///
/// The shape is codegen-load-bearing: compile-time tile bounds and A
/// rows walked in lock-step with the panel leave no bounds check in the
/// k loop, so the accumulator stays in vector registers. Measure any
/// edit with the `nn.*` scenarios of `bench_all`.
#[inline(always)]
fn micro_kernel(
    rows: [&[f32]; MATMUL_MR],
    panel: &[f32],
    start: [[f32; MATMUL_NR]; MATMUL_MR],
) -> [[f32; MATMUL_NR]; MATMUL_MR] {
    let [a0, a1, a2, a3] = rows;
    let (panel, _) = panel.as_chunks::<MATMUL_NR>();
    let mut acc = start;
    for ((((b, &x0), &x1), &x2), &x3) in panel.iter().zip(a0).zip(a1).zip(a2).zip(a3) {
        for (acc_row, x) in acc.iter_mut().zip([x0, x1, x2, x3]) {
            for (o, &bv) in acc_row.iter_mut().zip(b) {
                *o += x * bv;
            }
        }
    }
    acc
}

/// Exact k-nearest rows: for every row `i` of `feats` (`n x c`), the
/// `k` other rows nearest to it by squared Euclidean distance, as one
/// flat `n x k` row-major index buffer (DGCNN's feature-space graph).
///
/// The bit contract is the per-pair scalar loop's. Each distance is the
/// channel-ascending sum `d += t * t`, `t = q[ch] - cand[ch]`, from
/// `+0.0`; `dist_tile` vectorizes only across candidates, so every
/// distance is bit-identical to the loop's. Candidates reach each
/// query's list in ascending index under the loop's rules: skip `j == i`;
/// once the list is full, skip `d >= kth`; otherwise insert at
/// `partition_point(|bd| bd <= d)` and truncate to `k`. So the lists,
/// ties (lower index first) and NaN/±inf distances included, are the
/// loop's too.
///
/// Each distance is computed once. Under round-to-nearest `x - y` is
/// exactly `-(y - x)`, and `t * t` drops the sign, so `d(j, i)` has the
/// bits of `d(i, j)` (a NaN's payload may differ, but NaN rows take the
/// replayed walk, which reads only that a value is NaN). The distance
/// pass, on the calling thread, fills only the tiles whose candidate
/// panel is at or after the query tile, into this thread's reused
/// scratch of about n²/2 floats (see `Tiles`). Each query then reads its
/// row in ascending `j` (see `select_row`); queries run in fixed 32-row
/// chunks, so the graph does not depend on the thread count. The
/// selection forks from 256 points (`SELECT_OPS`); the distance pass
/// does not.
///
/// # Panics
///
/// Panics unless `0 < k < n`.
pub fn nearest_rows(feats: &Tensor2, k: usize) -> Vec<usize> {
    let (n, c) = (feats.rows(), feats.cols());
    assert!(k < n, "k must be smaller than the point count");
    assert!(k > 0, "k must be positive");
    // Fᵀ in NR-candidate, channel-major panels: the layout `pack_panels`
    // gives a `c x n` weight matrix, zero-padded past the last row.
    let n_panels = n.div_ceil(MATMUL_NR);
    let mut panels = take_pack_buf(n_panels * c * MATMUL_NR);
    for j in 0..n {
        let panel = (j / MATMUL_NR) * c * MATMUL_NR;
        for (ch, &v) in feats.row(j).iter().enumerate() {
            panels[panel + ch * MATMUL_NR + j % MATMUL_NR] = v;
        }
    }
    // Every entry read is written below, so a same-size buffer is not
    // refilled; a larger one grows to exactly its size.
    let len = Tiles::panel_at(n_panels - 1) + n * MATMUL_NR;
    let mut dist = DIST_BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
    if dist.len() != len {
        dist.clear();
        dist.reserve_exact(len);
        dist.resize(len, 0.0);
    }
    let f = feats.as_slice();
    for i0 in (0..n).step_by(MATMUL_MR) {
        let mr = MATMUL_MR.min(n - i0);
        let rows = tile_rows(f, i0, mr, c);
        for p in i0 / MATMUL_NR..n_panels {
            let acc = dist_tile(rows, &panels[p * c * MATMUL_NR..(p + 1) * c * MATMUL_NR]);
            let at = Tiles::panel_at(p) + i0 * MATMUL_NR;
            for (dst, acc_row) in dist[at..at + mr * MATMUL_NR]
                .chunks_exact_mut(MATMUL_NR)
                .zip(&acc)
            {
                dst.copy_from_slice(acc_row);
            }
        }
    }

    let tiles = Tiles { dist: &dist, n };
    let mut best = vec![(0.0f32, 0usize); n * k];
    edgepc_par::with_work(n * n * SELECT_OPS, || {
        edgepc_par::par_chunks_mut(&mut best, 32 * k, |ci, chunk| {
            for (r, list) in chunk.chunks_exact_mut(k).enumerate() {
                select_row(&tiles, ci * 32 + r, list);
            }
        });
    });
    PACK_BUF.with(|b| *b.borrow_mut() = panels);
    DIST_BUF.with(|b| *b.borrow_mut() = dist);
    best.into_iter().map(|(_, j)| j).collect()
}

/// [`nearest_rows`]' distances, one tile per (query, candidate panel) at
/// or after the diagonal, panel-major and packed: panel `p` holds the
/// tiles of queries `0..8p + 8` (about n²/2 floats in all), and
/// `dist[panel_at(p) + 8i + l]` is `d(i, 8p + l)`. Query `i`'s earlier
/// distances are read from the other side, `d(j, i)` in its own panel,
/// so the 8 queries of a panel share those cache lines.
struct Tiles<'a> {
    dist: &'a [f32],
    n: usize,
}

impl Tiles<'_> {
    /// Where panel `p` starts: after panels `0..p`, of `8q + 8` tiles of
    /// 8 floats each (every panel but the last is full).
    fn panel_at(p: usize) -> usize {
        MATMUL_NR * MATMUL_NR * p * (p + 1) / 2
    }

    /// How many tiles a query's row has.
    fn count(&self) -> usize {
        self.n.div_ceil(MATMUL_NR)
    }

    /// The lanes of tile `t` that are candidates of query `i`: those
    /// before `n`, and not `i` itself.
    fn valid(&self, i: usize, t: usize) -> u32 {
        let width = MATMUL_NR.min(self.n - t * MATMUL_NR);
        let mut valid = (1u32 << width) - 1;
        if t == i / MATMUL_NR {
            valid &= !(1 << (i % MATMUL_NR));
        }
        valid
    }

    /// Query `i`'s distances to candidates `8t..8t + 8` (lanes past `n`
    /// hold distances to the panel's zero padding).
    #[inline(always)]
    fn lanes(&self, i: usize, t: usize) -> [f32; MATMUL_NR] {
        let own = i / MATMUL_NR;
        if t >= own {
            let at = Self::panel_at(t) + i * MATMUL_NR;
            lanes(&self.dist[at..at + MATMUL_NR])
        } else {
            // d(i, 8t + l) = d(8t + l, i): column `i % 8` of the 8
            // candidates' tiles in panel `own`.
            let at = Self::panel_at(own) + t * MATMUL_NR * MATMUL_NR;
            let block = &self.dist[at..at + MATMUL_NR * MATMUL_NR];
            std::array::from_fn(|l| block[l * MATMUL_NR + i % MATMUL_NR])
        }
    }
}

/// The selection's work per candidate distance, in the fork floor's
/// units (`edgepc_par::FORK_FLOOR`): on one thread it reads a candidate
/// in 2.7–5 ns (1024 and 256 points, one channel, so the distance pass is
/// negligible), where the blocked kernel runs a multiply-add in ~0.05 ns.
const SELECT_OPS: usize = 64;

/// Key-buffer capacity of `select_keys`: `k` kept keys plus room for at
/// least one more tile of candidates. Larger `k` replays the walk.
const SELECT_KEYS: usize = 256;

/// Query `i`'s list from its distances, with the scalar loop's result:
/// the key selection when the row allows it, else the loop's insertion
/// walk replayed ([`offer`]) in ascending `j`.
fn select_row(tiles: &Tiles<'_>, i: usize, list: &mut [(f32, usize)]) {
    if list.len() + MATMUL_NR <= SELECT_KEYS && select_keys(tiles, i, list) {
        return;
    }
    let mut len = 0;
    for t in 0..tiles.count() {
        let width = MATMUL_NR.min(tiles.n - t * MATMUL_NR);
        offer(list, &mut len, &tiles.lanes(i, t), width, t * MATMUL_NR, i);
    }
}

/// The selection for a NaN-free row; `false` (list untouched) when the
/// row holds a NaN other than `d(i, i)`. Its distances are then
/// non-negative (never `-0.0`: the sums start at `+0.0` and add
/// squares), so they order like their bits, and the loop's list is
/// exactly the `k` smallest `(d.to_bits(), j)` keys, sorted: a later `j`
/// enters only below the k-th distance, and ties keep ascending `j`.
///
/// A first pass takes each 8-lane tile's least candidate distance; the
/// k-th least of those bounds the k-th distance (k different tiles hold
/// a candidate at most that). The second pass rejects each tile whose
/// least distance is past the bound in one compare, and collects the
/// other tiles' lanes under it as keys; a full key buffer is cut to its
/// `k` least, which tightens the bound.
fn select_keys(tiles: &Tiles<'_>, i: usize, list: &mut [(f32, usize)]) -> bool {
    const INF: u32 = 0x7f80_0000;
    let k = list.len();
    let n_tiles = tiles.count();
    // Pass 1: each tile's least candidate, kept for the first
    // `SELECT_KEYS` tiles, and the NaN check (a NaN's bits are past
    // +inf's).
    let mut mins = [u32::MAX; SELECT_KEYS];
    for t in 0..n_tiles {
        let bits = tiles.lanes(i, t).map(f32::to_bits);
        let valid = tiles.valid(i, t);
        let (mut least, mut nan) = (u32::MAX, 0u32);
        for (l, &b) in bits.iter().enumerate() {
            let candidate = valid >> l & 1 == 1;
            least = if candidate { least.min(b) } else { least };
            nan |= u32::from(candidate && b > INF);
        }
        if nan != 0 {
            return false;
        }
        if let Some(min) = mins.get_mut(t) {
            *min = least;
        }
    }
    let head = n_tiles.min(SELECT_KEYS);
    // A tile with no candidate (the last one, holding only `i`) has
    // least `u32::MAX`, and the bound saturates: it then takes every
    // candidate.
    let mut lim = if head >= k {
        let mut least = mins;
        least[..head].select_nth_unstable(k - 1).1.saturating_add(1)
    } else {
        INF + 1
    };

    // Pass 2: every candidate under `lim`, a strict bound.
    let mut keys = [0u64; SELECT_KEYS];
    let mut len = 0;
    for t in 0..n_tiles {
        if mins.get(t).is_some_and(|&least| least >= lim) {
            continue;
        }
        let bits = tiles.lanes(i, t).map(f32::to_bits);
        let mut open = bits
            .iter()
            .enumerate()
            .fold(0u32, |m, (l, &b)| m | u32::from(b < lim) << l);
        open &= tiles.valid(i, t);
        while open != 0 {
            let l = open.trailing_zeros() as usize;
            open &= open - 1;
            keys[len] = u64::from(bits[l]) << 32 | (t * MATMUL_NR + l) as u64;
            len += 1;
        }
        if len + MATMUL_NR > SELECT_KEYS {
            keys[..len].select_nth_unstable(k - 1);
            len = k;
            lim = (keys[k - 1] >> 32) as u32;
        }
    }
    let keys = &mut keys[..len];
    if len > k {
        keys.select_nth_unstable(k - 1);
    }
    keys[..k].sort_unstable();
    for (slot, &key) in list.iter_mut().zip(&keys[..k]) {
        *slot = (
            f32::from_bits((key >> 32) as u32),
            (key & u64::from(u32::MAX)) as usize,
        );
    }
    true
}

/// The distance twin of [`micro_kernel`]: an MR x NR tile of squared
/// distances from the query `rows` to one panel's candidates, each a
/// channel-ascending `d += t * t` of `t = q - cand` from `+0.0`.
///
/// Kept apart from the top-k walk on purpose: sharing a body with code
/// that indexes the tile at run time keeps the accumulators on the stack
/// whenever `c` is a run-time value, and the tile runs no faster than
/// the scalar loop.
#[inline(always)]
fn dist_tile(rows: [&[f32]; MATMUL_MR], panel: &[f32]) -> [[f32; MATMUL_NR]; MATMUL_MR] {
    let [a0, a1, a2, a3] = rows;
    let (panel, _) = panel.as_chunks::<MATMUL_NR>();
    let mut acc = [[0.0f32; MATMUL_NR]; MATMUL_MR];
    for ((((b, &x0), &x1), &x2), &x3) in panel.iter().zip(a0).zip(a1).zip(a2).zip(a3) {
        for (acc_row, x) in acc.iter_mut().zip([x0, x1, x2, x3]) {
            for (o, &bv) in acc_row.iter_mut().zip(b) {
                let t = x - bv;
                *o += t * t;
            }
        }
    }
    acc
}

/// Offers candidates `j0 + jj` (`jj < width`, ascending) at distances
/// `dists[jj]` to query `i`'s list `list[..*len]`, by the scalar loop's
/// rules. Lanes the full-list test would skip are masked out up front;
/// the mask is recomputed after every insert, because a NaN distance
/// lands at the list's front, leaves it unsorted, and the k-th entry can
/// then rise.
#[inline]
fn offer(
    list: &mut [(f32, usize)],
    len: &mut usize,
    dists: &[f32; MATMUL_NR],
    width: usize,
    j0: usize,
    i: usize,
) {
    let k = list.len();
    let valid = (1u32 << width) - 1;
    let mut lanes = open_lanes(dists, list, *len) & valid;
    while lanes != 0 {
        let jj = lanes.trailing_zeros() as usize;
        let later = valid & (u32::MAX << (jj + 1));
        lanes &= later;
        let (d, j) = (dists[jj], j0 + jj);
        if j == i {
            continue;
        }
        let pos = list[..*len].partition_point(|&(bd, _)| bd <= d);
        if pos < k {
            let last = (*len).min(k - 1);
            list[pos..=last].rotate_right(1);
            list[pos] = (d, j);
            *len = last + 1;
            lanes = open_lanes(dists, list, *len) & later;
        }
    }
}

/// The lanes of `dists` a list of `len` entries still takes: all of them
/// while it fills, then those not `>=` its k-th distance (NaN included).
#[inline(always)]
fn open_lanes(dists: &[f32; MATMUL_NR], list: &[(f32, usize)], len: usize) -> u32 {
    if len < list.len() {
        return u32::MAX;
    }
    let kth = list[len - 1].0;
    dists
        .iter()
        .enumerate()
        .fold(0, |m, (jj, &d)| if d >= kth { m } else { m | 1 << jj })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor2;

    fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor2 {
        let mut state = seed | 1;
        let mut t = Tensor2::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((state >> 33) as f32) / ((1u64 << 31) as f32) - 1.0;
                t.set(r, c, v);
            }
        }
        t
    }

    fn eager_reference(x: &Tensor2, w: &Tensor2, bias: Option<&[f32]>, relu: bool) -> Vec<f32> {
        let mut y = x.matmul(w);
        if let Some(b) = bias {
            y.add_row_vector(b);
        }
        let mut out = y.into_vec();
        if relu {
            for v in out.iter_mut() {
                *v = v.max(0.0);
            }
        }
        out
    }

    fn materialize_sa(feats: &Tensor2, c: usize, idx: &[usize], rel: &[f32]) -> Tensor2 {
        let m = idx.len();
        let mut g = Tensor2::zeros(m, c + 3);
        for (r, &j) in idx.iter().enumerate() {
            if j == EMPTY_SLOT {
                continue;
            }
            for cc in 0..c {
                g.set(r, cc, feats.get(j, cc));
            }
            for d in 0..3 {
                g.set(r, c + d, rel[3 * r + d]);
            }
        }
        g
    }

    fn materialize_edge(feats: &Tensor2, c: usize, k: usize, idx: &[usize]) -> Tensor2 {
        let m = idx.len();
        let mut g = Tensor2::zeros(m, 2 * c);
        for (r, &j) in idx.iter().enumerate() {
            let i = r / k;
            for cc in 0..c {
                let fi = feats.get(i, cc);
                g.set(r, cc, fi);
                g.set(r, c + cc, feats.get(j, cc) - fi);
            }
        }
        g
    }

    #[test]
    fn fused_dense_matches_eager_both_paths() {
        // (m, k, n) pairs straddling the naive/blocked dispatch gate.
        for &(m, kk, n) in &[(7, 5, 9), (96, 37, 33), (160, 64, 24)] {
            let x = random_tensor(m, kk, 0x1001);
            let w = random_tensor(kk, n, 0x2002);
            let bias: Vec<f32> = (0..n).map(|i| (i as f32) * 0.01 - 0.3).collect();
            for &relu in &[false, true] {
                let expect = eager_reference(&x, &w, Some(&bias), relu);
                let mut got = vec![0.0f32; m * n];
                fused_linear(
                    &RowSource::Dense(x.as_slice()),
                    m,
                    &w,
                    None,
                    Some(&bias),
                    relu,
                    &mut got,
                );
                assert_eq!(got, expect, "fused dense mismatch m={m} k={kk} n={n}");
            }
        }
    }

    #[test]
    fn prepacked_panels_match_on_the_fly_packing() {
        let (m, kk, n) = (160, 64, 24);
        let x = random_tensor(m, kk, 0x3003);
        let w = random_tensor(kk, n, 0x4004);
        let packed = PackedPanels::pack(&w);
        let mut a = vec![0.0f32; m * n];
        let mut b = vec![0.0f32; m * n];
        fused_linear(
            &RowSource::Dense(x.as_slice()),
            m,
            &w,
            None,
            None,
            false,
            &mut a,
        );
        fused_linear(
            &RowSource::Dense(x.as_slice()),
            m,
            &w,
            Some(&packed),
            None,
            false,
            &mut b,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn fused_sa_gather_matches_materialized_grouping() {
        let (points, c, k, groups) = (50, 13, 8, 40);
        let feats = random_tensor(points, c, 0x5005);
        let m = groups * k;
        let mut idx = Vec::new();
        let mut rel = Vec::new();
        let mut state = 0x77u64;
        for g in 0..groups {
            for slot in 0..k {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(97);
                // Sprinkle empty (zero-padded) slots like a short ball query.
                if slot > 0 && state.is_multiple_of(5) {
                    idx.push(EMPTY_SLOT);
                    rel.extend_from_slice(&[0.0, 0.0, 0.0]);
                } else {
                    idx.push((state as usize + g) % points);
                    rel.extend_from_slice(&[
                        (state % 17) as f32 * 0.05,
                        (state % 11) as f32 * -0.03,
                        (state % 7) as f32 * 0.02,
                    ]);
                }
            }
        }
        // One small + one large n so both kernel paths are exercised.
        for &(n, seed) in &[(6usize, 0x6006u64), (40, 0x6007)] {
            let w = random_tensor(c + 3, n, seed);
            let bias: Vec<f32> = (0..n).map(|i| (i as f32) * 0.02 - 0.1).collect();
            let grouped = materialize_sa(&feats, c, &idx, &rel);
            let expect = eager_reference(&grouped, &w, Some(&bias), true);
            let mut got = vec![0.0f32; m * n];
            fused_linear(
                &RowSource::SaGroup {
                    feats: feats.as_slice(),
                    c,
                    idx: &idx,
                    rel: &rel,
                    start: None,
                },
                m,
                &w,
                None,
                Some(&bias),
                true,
                &mut got,
            );
            assert_eq!(got, expect, "fused SA gather mismatch n={n}");
        }
    }

    #[test]
    fn fused_edge_gather_matches_materialized_pairs() {
        let (points, c, k) = (60, 11, 6);
        let feats = random_tensor(points, c, 0x7007);
        let m = points * k;
        let mut idx = Vec::new();
        let mut state = 0x99u64;
        for i in 0..points {
            for _ in 0..k {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
                idx.push((state as usize + i + 1) % points);
            }
        }
        for &(n, seed) in &[(4usize, 0x8008u64), (36, 0x8009)] {
            let w = random_tensor(2 * c, n, seed);
            let grouped = materialize_edge(&feats, c, k, &idx);
            let expect = eager_reference(&grouped, &w, None, true);
            let mut got = vec![0.0f32; m * n];
            fused_linear(
                &RowSource::EdgePair {
                    feats: feats.as_slice(),
                    c,
                    k,
                    idx: &idx,
                    start: None,
                },
                m,
                &w,
                None,
                None,
                true,
                &mut got,
            );
            assert_eq!(got, expect, "fused edge gather mismatch n={n}");
        }
    }

    #[test]
    fn fused_blocked_is_thread_count_independent() {
        // Above the fork floor, so 2 and 8 threads really fork, with a
        // ragged last chunk (1002 = 15 * 64 + 42), tile and panel.
        let (m, kk, n) = (1002, 130, 33);
        assert!(m * kk * n >= edgepc_par::FORK_FLOOR);
        let x = random_tensor(m, kk, 0x9009);
        let w = random_tensor(kk, n, 0xa00a);
        let bias: Vec<f32> = (0..n).map(|i| (i as f32) * 0.01).collect();
        let run = |threads: usize| {
            edgepc_par::with_threads(threads, || {
                let mut out = vec![0.0f32; m * n];
                fused_linear(
                    &RowSource::Dense(x.as_slice()),
                    m,
                    &w,
                    None,
                    Some(&bias),
                    true,
                    &mut out,
                );
                out
            })
        };
        let base = run(1);
        for t in [2, 8] {
            assert_eq!(run(t), base, "thread budget {t} diverged");
        }
    }

    #[derive(Debug)]
    enum Flavour {
        Dense,
        Sa,
        Edge,
    }

    /// A-operand data owned by the tile-edge sweep and borrowed as the
    /// [`RowSource`] of its flavour.
    struct Operand {
        flavour: Flavour,
        feats: Tensor2,
        c: usize,
        k: usize,
        idx: Vec<usize>,
        rel: Vec<f32>,
    }

    impl Operand {
        fn dense(m: usize, kk: usize, seed: u64) -> Self {
            Operand {
                flavour: Flavour::Dense,
                feats: random_tensor(m, kk, seed),
                c: kk,
                k: 1,
                idx: Vec::new(),
                rel: Vec::new(),
            }
        }

        /// `m` SA rows of width `c + 3` over `points` feature rows: every
        /// fifth slot is `EMPTY_SLOT`, and point 0 with a zero offset is
        /// an all-zero A row that is *not* an empty slot.
        fn sa(m: usize, c: usize, seed: u64) -> Self {
            let points = m / 2 + 2;
            let mut feats = random_tensor(points, c, seed);
            feats.row_mut(0).fill(0.0);
            let mut idx = Vec::with_capacity(m);
            let mut rel = Vec::with_capacity(3 * m);
            for r in 0..m {
                let j = (r * 7 + seed as usize) % points;
                if r % 5 == 4 {
                    idx.push(EMPTY_SLOT);
                    rel.extend_from_slice(&[0.0; 3]);
                } else if j == 0 {
                    idx.push(0);
                    rel.extend_from_slice(&[0.0; 3]);
                } else {
                    idx.push(j);
                    rel.extend_from_slice(&[r as f32 * 0.05, j as f32 * -0.03, 0.02]);
                }
            }
            Operand {
                flavour: Flavour::Sa,
                feats,
                c,
                k: 1,
                idx,
                rel,
            }
        }

        /// `m` edge rows of width `2c`, `k` neighbors per center.
        fn edge(m: usize, c: usize, seed: u64) -> Self {
            let k = if m.is_multiple_of(3) { 3 } else { 1 };
            let points = m / k + 3;
            let idx = (0..m).map(|r| (r * 5 + seed as usize) % points).collect();
            Operand {
                flavour: Flavour::Edge,
                feats: random_tensor(points, c, seed),
                c,
                k,
                idx,
                rel: Vec::new(),
            }
        }

        fn source(&self) -> RowSource<'_> {
            self.source_from(None)
        }

        /// The gather resumed from hoisted head products `start`, or
        /// the one-pass gather for `None`.
        fn source_from<'a>(&'a self, start: Option<&'a [f32]>) -> RowSource<'a> {
            match self.flavour {
                Flavour::Dense => RowSource::Dense(self.feats.as_slice()),
                Flavour::Sa => RowSource::SaGroup {
                    feats: self.feats.as_slice(),
                    c: self.c,
                    idx: &self.idx,
                    rel: &self.rel,
                    start,
                },
                Flavour::Edge => RowSource::EdgePair {
                    feats: self.feats.as_slice(),
                    c: self.c,
                    k: self.k,
                    idx: &self.idx,
                    start,
                },
            }
        }
    }

    /// Every tile edge, bypassing the work-size gate: ragged row tiles
    /// (`m % 4`), ragged panels (`n % 8`), one/several 64-row chunks and
    /// reduction widths around the tile sizes, for all three row sources,
    /// bitwise against the naive loop at 1/2/8 threads.
    #[test]
    fn blocked_matches_naive_at_every_tile_edge() {
        let ms: Vec<usize> = (1..=9).chain(63..=66).chain([130]).collect();
        let ns: Vec<usize> = (1..=17).chain([33]).collect();
        for &kk in &[1usize, 2, 7, 8, 9, 64, 259] {
            for &m in &ms {
                let seed = (m * 1000 + kk) as u64;
                // SA rows need c = kk - 3 >= 1, edge rows an even width.
                let mut operands = vec![Operand::dense(m, kk, seed)];
                if kk > 3 {
                    operands.push(Operand::sa(m, kk - 3, seed));
                }
                if kk.is_multiple_of(2) {
                    operands.push(Operand::edge(m, kk / 2, seed));
                }
                for &n in &ns {
                    let w = random_tensor(kk, n, seed ^ n as u64);
                    let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.07 - 0.4).collect();
                    for operand in &operands {
                        let src = operand.source();
                        src.validate(m, kk, n);
                        for (bias, relu) in [(None, false), (Some(bias.as_slice()), true)] {
                            let mut expect = vec![f32::NAN; m * n];
                            naive_into(&src, m, &w, bias, relu, &mut expect);
                            // One chunk runs inline whatever the budget.
                            let budgets: &[usize] = if m > MATMUL_MC { &[1, 2, 8] } else { &[1] };
                            for &threads in budgets {
                                let mut got = vec![f32::NAN; m * n];
                                edgepc_par::with_threads(threads, || {
                                    blocked_into(&src, m, &w, None, bias, relu, &mut got);
                                });
                                let same = got
                                    .iter()
                                    .zip(&expect)
                                    .all(|(g, e)| g.to_bits() == e.to_bits());
                                assert!(
                                    same,
                                    "blocked != naive: {:?} m={m} k={kk} n={n} \
                                     relu={relu} threads={threads}",
                                    operand.flavour
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Hoisting is exact: the head pass `P = feats · W[..c]` followed by
    /// the resumed tail pass equals the one-pass gathered product bit for
    /// bit, on both kernel paths (and mixed: head on one, tail on the
    /// other), at every tile edge — ragged row tiles, ragged panels, one
    /// and several 64-row chunks — for edge rows and for SA rows with
    /// `EMPTY_SLOT` pads and all-zero non-empty rows, at 1/2/8 threads.
    #[test]
    fn resumed_sums_match_one_pass_at_every_tile_edge() {
        let ms: Vec<usize> = (1..=9).chain(63..=66).chain([130]).collect();
        let ns: Vec<usize> = (1..=17).chain([33]).collect();
        for &c in &[1usize, 2, 5, 8, 64, 128] {
            for &m in &ms {
                let seed = (m * 1000 + c) as u64;
                for operand in [Operand::sa(m, c, seed), Operand::edge(m, c, seed)] {
                    let kk = match operand.flavour {
                        Flavour::Edge => 2 * c,
                        _ => c + 3,
                    };
                    let points = operand.feats.rows();
                    for &n in &ns {
                        let w = random_tensor(kk, n, seed ^ n as u64);
                        let (head, tail) = w.split_rows(c);
                        let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.07 - 0.4).collect();
                        let mut expect = vec![f32::NAN; m * n];
                        naive_into(&operand.source(), m, &w, Some(&bias), true, &mut expect);

                        let feats = RowSource::Dense(operand.feats.as_slice());
                        let mut naive_p = vec![f32::NAN; points * n];
                        naive_into(&feats, points, &head, None, false, &mut naive_p);
                        let mut blocked_p = vec![f32::NAN; points * n];
                        blocked_into(&feats, points, &head, None, None, false, &mut blocked_p);
                        assert_eq!(bits(&naive_p), bits(&blocked_p), "head m={m} c={c} n={n}");

                        let src = operand.source_from(Some(&naive_p));
                        src.validate(m, kk - c, n);
                        let mut got = vec![f32::NAN; m * n];
                        naive_into(&src, m, &tail, Some(&bias), true, &mut got);
                        assert_eq!(
                            bits(&got),
                            bits(&expect),
                            "naive resume: {:?} m={m} c={c} n={n}",
                            operand.flavour
                        );
                        let budgets: &[usize] = if m > MATMUL_MC { &[1, 2, 8] } else { &[1] };
                        for &threads in budgets {
                            let mut got = vec![f32::NAN; m * n];
                            edgepc_par::with_threads(threads, || {
                                blocked_into(&src, m, &tail, None, Some(&bias), true, &mut got);
                            });
                            assert_eq!(
                                bits(&got),
                                bits(&expect),
                                "blocked resume: {:?} m={m} c={c} n={n} threads={threads}",
                                operand.flavour
                            );
                        }
                    }
                }
            }
        }
    }

    /// The pool in the epilogue is exact: [`fused_linear_pooled`], and
    /// its naive and blocked halves forced past the work gate, equal
    /// [`fused_linear`] followed by `max_pool_groups` bit for bit. Groups
    /// of 1, 3, 5, 8, 20 and 32 rows straddle the 4-row tiles and, at
    /// one group past a chunk's worth, the group-aligned chunks; ragged
    /// panels (`n` = 1..=17 and 33); dense, SA and edge rows, one-pass
    /// and resumed; NaN, +0.0 and -0.0 pre-activations (a NaN feature, an
    /// all-zero row, a -0.0 start times zeros); ReLU on and off; 1/2/8
    /// threads, with one shape per flavour above the fork floor (release
    /// only).
    #[test]
    fn pooled_epilogue_matches_linear_then_pool() {
        let ns: Vec<usize> = (1..=17).chain([33]).collect();
        let mut seen = [0usize; 3]; // NaN, +0.0, -0.0 pre-activations
        let mut check = |operand: &Operand, start: Option<&[f32]>, m, w: &Tensor2, group| {
            let src = operand.source_from(start);
            let (kk, n) = (w.rows(), w.cols());
            let mut bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.07 - 0.4).collect();
            bias[0] = -0.0;
            for (bias, relu) in [(None, false), (Some(bias.as_slice()), false), (None, true)] {
                let mut flat = vec![f32::NAN; m * n];
                fused_linear(&src, m, w, None, bias, relu, &mut flat);
                if bias.is_none() && !relu {
                    for v in &flat {
                        seen[0] += usize::from(v.is_nan());
                        seen[1] += usize::from(v.to_bits() == 0);
                        seen[2] += usize::from(v.to_bits() == (-0.0f32).to_bits());
                    }
                }
                let pooled = crate::pool::max_pool_groups(&Tensor2::from_vec(flat, m, n), group);
                let expect = bits(pooled.output.as_slice());
                let what = format!(
                    "{:?} m={m} k={kk} n={n} group={group} relu={relu}",
                    operand.flavour
                );
                let budgets: &[usize] = if m * kk * n >= edgepc_par::FORK_FLOOR {
                    &[1, 2, 8]
                } else {
                    &[1]
                };
                for &threads in budgets {
                    let run = |f: &dyn Fn(&mut [f32])| {
                        let mut got = vec![f32::NAN; m / group * n];
                        edgepc_par::with_threads(threads, || f(&mut got));
                        bits(&got)
                    };
                    let fused =
                        run(&|out| fused_linear_pooled(&src, m, w, None, bias, relu, group, out));
                    assert_eq!(fused, expect, "fused: {what} threads={threads}");
                    let naive = run(&|out| {
                        out.fill(f32::NEG_INFINITY);
                        naive_pooled(&src, m, w, bias, relu, group, out);
                    });
                    assert_eq!(naive, expect, "naive: {what}");
                    let blocked = run(&|out| {
                        out.fill(f32::NEG_INFINITY);
                        blocked_pooled(&src, m, w, None, bias, relu, group, out);
                    });
                    assert_eq!(blocked, expect, "blocked: {what} threads={threads}");
                }
            }
        };
        let mut shapes: Vec<(usize, usize, usize)> = Vec::new();
        for group in [1usize, 3, 5, 8, 20, 32] {
            let per_chunk = (MATMUL_MC / group).max(1);
            for count in [1, 2, 3, per_chunk + 1] {
                shapes.extend(ns.iter().map(|&n| (group, group * count, n)));
            }
        }
        // Above the fork floor, so 2 and 8 threads really fork: release
        // runs only (`ci.sh` step 6, both builds).
        if !cfg!(debug_assertions) {
            shapes.push((20, 20 * 13, 160));
        }
        for (group, m, n) in shapes {
            let c = if n == 160 { 128 } else { 4 };
            let seed = (m * 1000 + n * 10 + group) as u64;
            let mut operands = [
                Operand::dense(m, c + 3, seed),
                Operand::sa(m, c, seed),
                Operand::edge(m, c, seed),
            ];
            for operand in operands.iter_mut().filter(|o| o.feats.rows() > 1) {
                operand.feats.set(1, 0, f32::NAN);
            }
            for operand in &operands {
                let kk = match operand.flavour {
                    Flavour::Edge => 2 * c,
                    _ => c + 3,
                };
                let w = random_tensor(kk, n, seed ^ 0x5eed);
                check(operand, None, m, &w, group);
                if matches!(operand.flavour, Flavour::Dense) {
                    continue;
                }
                // Resumed: starts of -0.0 in column 0 (NaN in column 1)
                // meet a tail whose column 0 weights are all negative, so
                // a zero tail row keeps the -0.0.
                let mut tail = random_tensor(kk - c, n, seed ^ 0x7a11);
                for r in 0..tail.rows() {
                    tail.set(r, 0, -tail.get(r, 0).abs() - 0.1);
                }
                let mut start = random_tensor(operand.feats.rows(), n, seed ^ 0x57a7);
                for r in 0..start.rows() {
                    start.set(r, 0, -0.0);
                    if n > 1 && r % 3 == 0 {
                        start.set(r, 1, f32::NAN);
                    }
                }
                check(operand, Some(start.as_slice()), m, &tail, group);
            }
        }
        assert!(
            seen.iter().all(|&s| s > 0),
            "pre-activations seen (NaN, +0.0, -0.0): {seen:?}"
        );
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Naive and blocked share the accumulation contract, so a change
    /// that reassociates both (a fused multiply-add, a split reduction)
    /// would still pass every blocked-vs-naive test. This pins the bits
    /// themselves: FNV-1a over the output of one fixed seeded product.
    #[test]
    fn fused_product_bits_are_pinned() {
        let (m, kk, n) = (130, 67, 33);
        let x = random_tensor(m, kk, 0xb175);
        let w = random_tensor(kk, n, 0x91a7);
        let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.03 - 0.5).collect();
        let mut out = vec![0.0f32; m * n];
        fused_linear(
            &RowSource::Dense(x.as_slice()),
            m,
            &w,
            None,
            Some(&bias),
            true,
            &mut out,
        );
        let hash = out
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(
            hash, 0xec06_237e_9d81_4d5a,
            "accumulation order or rounding changed"
        );
    }

    /// The root `.cargo/config.toml` builds for the host CPU. A deleted or
    /// shadowed config (any set `RUSTFLAGS` replaces it) still passes every
    /// bit pin, so this is what notices that the kernels lost half their
    /// vector width. Not run-time dispatch: it reads the build, not the
    /// code path. `ci.sh`'s portable step does not select it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn build_targets_the_hosts_vector_width() {
        assert!(
            cfg!(target_feature = "avx2") || !std::is_x86_feature_detected!("avx2"),
            "the host has AVX2 but this build does not target it: the root \
             .cargo/config.toml is missing or a RUSTFLAGS setting overrides it"
        );
    }

    /// The per-pair scalar loop [`nearest_rows`] replaced, kept verbatim
    /// as its oracle: one serial channel reduction per pair and a
    /// `Vec::insert` top-k per query.
    fn scalar_nearest_rows(feats: &Tensor2, k: usize) -> Vec<usize> {
        let n = feats.rows();
        let mut graph = Vec::with_capacity(n * k);
        for i in 0..n {
            let fi = feats.row(i);
            let mut best: Vec<(f32, usize)> = Vec::with_capacity(k + 1);
            for j in 0..n {
                if j == i {
                    continue;
                }
                let mut d = 0.0f32;
                for (a, b) in fi.iter().zip(feats.row(j)) {
                    let t = a - b;
                    d += t * t;
                }
                if best.len() == k && d >= best[k - 1].0 {
                    continue;
                }
                let pos = best.partition_point(|&(bd, _)| bd <= d);
                if pos < k {
                    best.insert(pos, (d, j));
                    best.truncate(k);
                }
            }
            graph.extend(best.into_iter().map(|(_, j)| j));
        }
        graph
    }

    /// A seeded `n x c` cloud where every fifth row duplicates another
    /// (exact distance ties), and, when `hostile`, every eleventh row
    /// holds a NaN, +inf or -inf channel.
    fn knn_cloud(n: usize, c: usize, hostile: bool) -> Tensor2 {
        let mut t = random_tensor(n, c, (n * 131 + c) as u64);
        for r in (0..n).step_by(5) {
            let src = t.row((r * 7 + 3) % n).to_vec();
            t.row_mut(r).copy_from_slice(&src);
        }
        if hostile {
            for r in (5..n).step_by(11) {
                let v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(r / 11) % 3];
                t.set(r, r % c, v);
            }
        }
        t
    }

    /// The distance tile and streaming top-k against the scalar loop:
    /// identical lists on ragged query tiles and candidate panels, one
    /// and several 32-query chunks, duplicate rows and NaN/±inf rows, at
    /// 1/2/8 threads. Debug builds run the shapes up to 255 rows; the
    /// release runs (`ci.sh` step 6, both builds) run them all.
    #[test]
    fn nearest_rows_match_the_scalar_loop() {
        let max_n = if cfg!(debug_assertions) { 255 } else { 1024 };
        // (17, 3): the last tile holds only query 16 itself.
        let mut shapes = vec![(2, 1), (9, 8), (17, 3), (21, 20)];
        for n in [21usize, 37, 255, 1000, 1024] {
            shapes.extend([1, 8, 20, n - 1].iter().map(|&k| (n, k)));
        }
        shapes.sort_unstable();
        shapes.dedup();
        // Release runs select above the fork floor with a ragged last
        // 32-query chunk (1000 = 31 * 32 + 8), so 2 and 8 threads fork.
        assert!(
            cfg!(debug_assertions)
                || shapes.iter().any(|&(n, _)| {
                    n <= max_n && n % 32 != 0 && n * n * SELECT_OPS >= edgepc_par::FORK_FLOOR
                })
        );
        for &(n, k) in shapes.iter().filter(|s| s.0 <= max_n) {
            for c in [1usize, 3, 16, 64, 128] {
                for hostile in [false, true] {
                    let feats = knn_cloud(n, c, hostile);
                    let expect = scalar_nearest_rows(&feats, k);
                    let budgets: &[usize] = if n > 32 { &[1, 2, 8] } else { &[1] };
                    for &threads in budgets {
                        let got = edgepc_par::with_threads(threads, || nearest_rows(&feats, k));
                        assert!(
                            got == expect,
                            "n={n} c={c} k={k} hostile={hostile} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    fn sa_product(c: usize, feats: &[f32], idx: &[usize]) {
        let m = idx.len();
        let w = random_tensor(c + 3, 4, 0xc0de);
        let rel = vec![0.0f32; 3 * m];
        let mut out = vec![0.0f32; m * 4];
        let src = RowSource::SaGroup {
            feats,
            c,
            idx,
            rel: &rel,
            start: None,
        };
        fused_linear(&src, m, &w, None, None, false, &mut out);
    }

    #[test]
    #[should_panic(expected = "SA group needs at least one feature channel")]
    fn zero_channel_gather_fails_the_contract_check() {
        sa_product(0, &[], &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "SA group neighbor index out of range")]
    fn out_of_range_gather_index_fails_the_contract_check() {
        // Two feature rows of three channels; index 2 is one past the end.
        sa_product(3, &[0.5; 6], &[0, 1, EMPTY_SLOT, 2]);
    }
}
