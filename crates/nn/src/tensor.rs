//! A minimal row-major 2-D tensor.

use crate::kernel::{self, RowSource};
use std::fmt;

/// A dense row-major `rows x cols` matrix of `f32`.
///
/// This is deliberately small: exactly the operations the point-cloud CNNs
/// need (matmul, transpose, element-wise arithmetic, row reductions), all
/// eagerly evaluated.
///
/// # Example
///
/// ```
/// use edgepc_nn::Tensor2;
///
/// let a = Tensor2::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
/// let b = Tensor2::eye(2);
/// assert_eq!(a.matmul(&b).as_slice(), a.as_slice());
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor2 {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Tensor2 {
    /// Creates a zero-filled tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor2 {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Creates a tensor from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(data: Vec<f32>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Tensor2 { data, rows, cols }
    }

    /// The `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor2::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The raw row-major storage, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its row-major storage without a
    /// copy.
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Matrix product `self * other`: one
    /// [`fused_linear`](crate::fused_linear) pass with no bias and no ReLU.
    ///
    /// Small products run a row-times-row loop with a zero-skip (grouped
    /// matrices are sparse in padded slots); anything larger than
    /// `SMALL_MATMUL_WORK` scalar MACs takes the cache-blocked,
    /// B-packed micro-kernel, parallelized over fixed row blocks. Both
    /// paths accumulate each output element in ascending-`k` order, and
    /// the dispatch depends only on the shapes, so results are
    /// deterministic and independent of the `edgepc_par` thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Tensor2) -> Tensor2 {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Tensor2::zeros(self.rows, other.cols);
        kernel::fused_linear(
            &RowSource::Dense(&self.data),
            self.rows,
            other,
            None,
            None,
            false,
            &mut out.data,
        );
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Tensor2 {
        let mut out = Tensor2::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum; shapes must match.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor2) -> Tensor2 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor2 {
            data,
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Element-wise scaling by a constant.
    pub fn scale(&self, s: f32) -> Tensor2 {
        Tensor2 {
            data: self.data.iter().map(|v| v * s).collect(),
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Adds `vec` to every row in place (bias add).
    ///
    /// # Panics
    ///
    /// Panics if `vec.len() != cols`.
    pub fn add_row_vector(&mut self, vec: &[f32]) {
        assert_eq!(vec.len(), self.cols, "row vector length mismatch");
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(vec) {
                *o += b;
            }
        }
    }

    /// Sums over rows, returning a `cols`-length vector (used for bias
    /// gradients).
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Stacks `self` and `other` horizontally (`[self | other]`).
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hstack(&self, other: &Tensor2) -> Tensor2 {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Tensor2::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Splits into rows `0..at` and rows `at..` (a hoisted weight's head
    /// and tail blocks).
    ///
    /// # Panics
    ///
    /// Panics if `at > self.rows()`.
    pub fn split_rows(&self, at: usize) -> (Tensor2, Tensor2) {
        assert!(at <= self.rows, "split_rows at {at} out of range");
        let (head, tail) = self.data.split_at(at * self.cols);
        (
            Tensor2::from_vec(head.to_vec(), at, self.cols),
            Tensor2::from_vec(tail.to_vec(), self.rows - at, self.cols),
        )
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

impl fmt::Debug for Tensor2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tensor2")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SMALL_MATMUL_WORK;

    /// The small-product loop at any size: the reference the blocked
    /// path must match bit for bit.
    fn naive_matmul(a: &Tensor2, b: &Tensor2) -> Tensor2 {
        let mut out = Tensor2::zeros(a.rows(), b.cols());
        kernel::naive_into(
            &RowSource::Dense(a.as_slice()),
            a.rows(),
            b,
            None,
            false,
            out.as_mut_slice(),
        );
        out
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor2::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = Tensor2::from_vec(vec![5.0, 6.0, 7.0, 8.0], 2, 2);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor2::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], 3, 2);
        let b = Tensor2::from_vec(vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 2, 3);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.row(2), &[7.0, 9.0, 11.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor2::from_vec((0..6).map(|v| v as f32).collect(), 2, 3);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), a.get(1, 2));
    }

    #[test]
    fn add_and_scale() {
        let a = Tensor2::from_vec(vec![1.0, 2.0], 1, 2);
        let b = Tensor2::from_vec(vec![3.0, 4.0], 1, 2);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 6.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn bias_add_and_sum_rows() {
        let mut a = Tensor2::zeros(3, 2);
        a.add_row_vector(&[1.0, -1.0]);
        assert_eq!(a.sum_rows(), vec![3.0, -3.0]);
    }

    #[test]
    fn hstack_concatenates_channels() {
        let a = Tensor2::from_vec(vec![1.0, 2.0], 2, 1);
        let b = Tensor2::from_vec(vec![3.0, 4.0], 2, 1);
        let c = a.hstack(&b);
        assert_eq!(c.row(0), &[1.0, 3.0]);
        assert_eq!(c.row(1), &[2.0, 4.0]);
    }

    #[test]
    fn eye_is_matmul_identity() {
        let a = Tensor2::from_vec((0..9).map(|v| v as f32).collect(), 3, 3);
        assert_eq!(a.matmul(&Tensor2::eye(3)), a);
        assert_eq!(Tensor2::eye(3).matmul(&a), a);
    }

    /// Deterministic pseudo-random tensor with strictly positive entries
    /// (positive values sidestep the naive path's `-0.0` zero-skip
    /// subtlety, letting the reference comparison demand bit equality).
    fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor2 {
        let mut s = seed.max(1);
        let data = (0..rows * cols)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 40) as f32) / (1 << 24) as f32 + 0.25
            })
            .collect();
        Tensor2::from_vec(data, rows, cols)
    }

    #[test]
    fn blocked_matmul_matches_naive_reference() {
        // 37*41*29 = 43_993 MACs > SMALL_MATMUL_WORK: public matmul takes
        // the blocked path; ragged tails exercise every padding edge.
        let a = random_tensor(37, 41, 7);
        let b = random_tensor(41, 29, 11);
        const { assert!(37 * 41 * 29 >= SMALL_MATMUL_WORK) };
        assert_eq!(a.matmul(&b), naive_matmul(&a, &b));
    }

    #[test]
    fn blocked_matmul_is_thread_count_independent() {
        let a = random_tensor(64, 48, 3);
        let b = random_tensor(48, 40, 5);
        let serial = edgepc_par::with_threads(1, || a.matmul(&b));
        for t in [2usize, 8] {
            let got = edgepc_par::with_threads(t, || a.matmul(&b));
            assert_eq!(got, serial, "thread count {t}");
        }
    }

    #[test]
    fn blocked_matmul_exact_tile_multiples() {
        // Shapes landing exactly on MR/NR/MC boundaries.
        let a = random_tensor(128, 32, 17);
        let b = random_tensor(32, 16, 19);
        assert_eq!(a.matmul(&b), naive_matmul(&a, &b));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor2::zeros(2, 3);
        let b = Tensor2::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn norm_known_value() {
        let a = Tensor2::from_vec(vec![3.0, 4.0], 1, 2);
        assert_eq!(a.norm(), 5.0);
    }
}
