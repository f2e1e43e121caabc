//! Reusable per-inference scratch buffers.
//!
//! The grouping stages of both model families materialize large temporary
//! matrices every forward pass — SetAbstraction's `(n*k) x (C+3)` grouped
//! matrix and EdgeConv's `(n*k) x 2C` edge matrix — and then drop them.
//! On a request-serving worker that is one multi-megabyte allocation per
//! stage per request. A [`Scratch`] pool keeps those backing vectors
//! alive between forwards: stages take a zero-filled buffer from the pool
//! and give the allocation back once the shared MLP has consumed it. The
//! blocked matmul kernel in [`crate::tensor`] recycles its B-pack buffers
//! through a thread-local pool of the same type.
//!
//! Buffers are handed out *zero-filled* (`take_zeroed`), so a recycled
//! buffer is bit-for-bit indistinguishable from a fresh
//! `Tensor2::zeros(..)` — reuse can never change numerics, which the
//! serving runtime's multi-worker determinism guarantee relies on.
//!
//! The pool is deliberately not thread-safe: each model owns one
//! `Scratch` and lends it to its modules' `forward`, so a serving
//! worker's replicas never share a pool across threads.

/// A small pool of reusable `f32` buffers.
#[derive(Debug, Default)]
pub struct Scratch {
    free: Vec<Vec<f32>>,
}

/// Buffers retained per pool. Every current user has one buffer in
/// flight at a time (a forward's grouped matrix — stages run
/// sequentially — or the kernel's B-pack buffer), so four is headroom,
/// not a need; anything beyond it is allocator churn we do not want to
/// cache.
const MAX_POOLED: usize = 4;

impl Scratch {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Number of buffers currently pooled (for tests and introspection).
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Takes a buffer of exactly `len` zeros, reusing a pooled allocation
    /// when one exists.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        match self.free.pop() {
            Some(mut v) => {
                // Zero the prefix that survives, then extend; both paths
                // leave every element exactly 0.0.
                v.clear();
                v.resize(len, 0.0);
                v
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer's allocation to the pool for a later
    /// [`take_zeroed`](Scratch::take_zeroed).
    pub fn give(&mut self, v: Vec<f32>) {
        if self.free.len() < MAX_POOLED && v.capacity() > 0 {
            self.free.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_even_after_reuse() {
        let mut s = Scratch::new();
        let mut v = s.take_zeroed(8);
        v.iter_mut().for_each(|x| *x = 7.0);
        let cap = v.capacity();
        s.give(v);
        assert_eq!(s.pooled(), 1);
        let v2 = s.take_zeroed(6);
        assert_eq!(v2, vec![0.0; 6]);
        assert_eq!(v2.capacity(), cap, "allocation was reused");
        assert_eq!(s.pooled(), 0);
    }

    #[test]
    fn growing_take_still_all_zero() {
        let mut s = Scratch::new();
        let mut v = s.take_zeroed(4);
        v.iter_mut().for_each(|x| *x = -1.0);
        s.give(v);
        let v2 = s.take_zeroed(64);
        assert!(v2.iter().all(|&x| x == 0.0));
        assert_eq!(v2.len(), 64);
    }

    #[test]
    fn pool_is_bounded() {
        let mut s = Scratch::new();
        for _ in 0..10 {
            s.give(vec![0.0; 16]);
        }
        assert_eq!(s.pooled(), MAX_POOLED);
        s.give(Vec::new()); // capacity-0 buffers are not worth pooling
        assert_eq!(s.pooled(), MAX_POOLED);
    }
}
