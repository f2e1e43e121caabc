//! The sanctioned locking shapes: ascending acquisition through a
//! poison-tolerant wrapper, a `rank_scope` token ranking a bare guard,
//! and an early drop that ends the held region before the next claim.

use std::sync::{Mutex, MutexGuard, PoisonError};

use fixture_geom::guard::{rank_scope, ranked_with, Lock, Ranked};

pub struct Queue {
    low: Mutex<u32>,
    high: Mutex<u32>,
}

impl Queue {
    /// The poison-tolerant wrapper idiom EP006 classifies as a claim of
    /// `Lock::Low` at every call site.
    fn lock_low(&self) -> Ranked<MutexGuard<'_, u32>> {
        ranked_with(Lock::Low, || {
            self.low.lock().unwrap_or_else(PoisonError::into_inner)
        })
    }

    /// Ascending nesting: `Lock::Low`, then `Lock::High` through a token
    /// that stays alive for the rest of the fn.
    pub fn ascending(&self) -> u32 {
        let l = self.lock_low();
        let _rank = rank_scope(Lock::High);
        let h = self.high.lock().unwrap_or_else(PoisonError::into_inner);
        **l + *h
    }

    /// Early drop: the high guard is released before the low claim, so no
    /// edge exists at all.
    pub fn sequential(&self) -> u32 {
        let h = ranked_with(Lock::High, || {
            self.high.lock().unwrap_or_else(PoisonError::into_inner)
        });
        let high = **h;
        drop(h);
        let l = self.lock_low();
        high + **l
    }
}
