//! The sanctioned parallel shape: each index stores its own slot, and
//! nothing is folded across chunks.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn scatter(xs: &[u64], out: &[AtomicU64]) {
    edgepc_par::par_for(0..xs.len(), |i| {
        out[i].store(xs[i], Ordering::Relaxed);
    });
}
