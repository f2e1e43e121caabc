//! Planted EP006 violations against the fixture's `enum Lock { Low,
//! High, Ghost }`: a descending acquisition, a re-entrant one, and an
//! unranked mutex.

use std::sync::{Mutex, PoisonError};

use fixture_geom::guard::{ranked_with, Lock};

pub struct Queue {
    low: Mutex<u32>,
    high: Mutex<u32>,
    count: Mutex<u32>,
}

impl Queue {
    /// EP006: claims `Lock::Low` while holding `Lock::High` — the
    /// declared order requires the reverse.
    pub fn descending(&self) -> u32 {
        let h = ranked_with(Lock::High, || {
            self.high.lock().unwrap_or_else(PoisonError::into_inner)
        });
        let l = ranked_with(Lock::Low, || {
            self.low.lock().unwrap_or_else(PoisonError::into_inner)
        });
        **h + **l
    }

    /// EP006: claims `Lock::Low` again while already holding it.
    pub fn reentrant(&self) -> u32 {
        let a = ranked_with(Lock::Low, || {
            self.low.lock().unwrap_or_else(PoisonError::into_inner)
        });
        let b = ranked_with(Lock::Low, || {
            self.low.lock().unwrap_or_else(PoisonError::into_inner)
        });
        **a + **b
    }

    /// EP006: `self.count` is locked with no `Lock` claim at all.
    pub fn unranked(&self) -> u32 {
        *self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
