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
    /// Per-thread buffer for transient B-panel packing (used only when
    /// the caller did not pre-pack the weights). Reused across calls, so
    /// a warm unpacked pass allocates nothing.
    static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
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
    let (kk, n) = (w.rows(), w.cols());
    src.validate(m, kk, n);
    assert_eq!(out.len(), m * n, "fused_linear output size mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "fused_linear bias width mismatch");
    }
    if let Some(p) = packed {
        assert!(p.kk == kk && p.n == n, "prepacked panel shape mismatch");
    }
    if m * kk * n < SMALL_MATMUL_WORK {
        naive_into(src, m, w, bias, relu, out);
    } else {
        blocked_into(src, m, w, packed, bias, relu, out);
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
    let n_panels = n.div_ceil(MATMUL_NR);
    let mut local_pack: Option<Vec<f32>> = None;
    let panels: &[f32] = match packed {
        Some(p) => &p.data,
        None => {
            // Zero-filled like a fresh buffer: a ragged last panel's
            // padding columns must read exactly 0.0.
            let mut buf = PACK_BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
            buf.clear();
            buf.resize(n_panels * kk * MATMUL_NR, 0.0);
            pack_panels(w, &mut buf);
            &*local_pack.insert(buf)
        }
    };

    edgepc_par::par_chunks_mut(out, MATMUL_MC * n, |ci, chunk| {
        let r0 = ci * MATMUL_MC;
        let tiles = chunk.chunks_mut(MATMUL_MR * n).enumerate();
        match src {
            RowSource::Dense(a) => {
                for (t, out_rows) in tiles {
                    let mr = out_rows.len() / n;
                    let rows = tile_rows(a, r0 + t * MATMUL_MR, mr, kk);
                    tile_panels(rows, [None; MATMUL_MR], kk, n, panels, out_rows);
                }
            }
            gather => {
                // Gathered rows are staged once per register tile.
                let mut staged = [0.0f32; MATMUL_MR * MAX_FUSED_K];
                for (t, out_rows) in tiles {
                    let (row0, mr) = (r0 + t * MATMUL_MR, out_rows.len() / n);
                    for ri in 0..mr {
                        gather.stage_row(row0 + ri, &mut staged[ri * kk..(ri + 1) * kk]);
                    }
                    let starts = std::array::from_fn(|ri| {
                        (ri < mr).then(|| gather.start_row(row0 + ri, n)).flatten()
                    });
                    let rows = tile_rows(&staged, 0, mr, kk);
                    tile_panels(rows, starts, kk, n, panels, out_rows);
                }
            }
        }
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

    if let Some(buf) = local_pack {
        PACK_BUF.with(|b| *b.borrow_mut() = buf);
    }
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
        let mut start = [[0.0f32; MATMUL_NR]; MATMUL_MR];
        for (tile_row, row) in start.iter_mut().zip(starts) {
            if let Some(row) = row {
                let cols = &row[c0..n.min(c0 + MATMUL_NR)];
                tile_row[..cols.len()].copy_from_slice(cols);
            }
        }
        let acc = micro_kernel(rows, panel, start);
        for (out_row, acc_row) in out_rows.chunks_exact_mut(n).zip(&acc) {
            let dst = &mut out_row[c0..];
            match dst.first_chunk_mut::<MATMUL_NR>() {
                Some(full) => *full = *acc_row,
                None => dst.copy_from_slice(&acc_row[..dst.len()]),
            }
        }
    }
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
        let (m, kk, n) = (256, 48, 32);
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
