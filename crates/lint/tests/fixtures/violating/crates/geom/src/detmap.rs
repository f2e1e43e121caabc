//! Planted EP007 violation (the rule runs on every crate): a
//! scheduling-dependent fold inside a par closure.

use std::sync::atomic::{AtomicU64, Ordering};

static TOTAL: AtomicU64 = AtomicU64::new(0);

/// EP007: the fold result depends on chunk scheduling.
pub fn racy_total(n: u64) -> u64 {
    edgepc_par::par_for(0..n, |i| {
        TOTAL.fetch_add(i, Ordering::Relaxed);
    });
    TOTAL.load(Ordering::Relaxed)
}
