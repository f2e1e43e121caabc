//! # edgepc-par
//!
//! A std-only, deterministic data-parallel runtime for the EdgePC hot
//! kernels: a scoped-thread (`std::thread::scope`) fork/join pool with
//! chunked [`par_chunk_map`] / [`par_chunks_mut`] primitives and an
//! index-strided [`par_for`].
//!
//! ## Determinism contract
//!
//! Every primitive takes an explicit `chunk` size and fixes the chunk
//! boundaries from it — *never* from the worker count. Workers are
//! assigned whole chunks round-robin, each chunk is processed by exactly
//! one worker with the same per-chunk code the serial path runs, and
//! chunk results are recombined in chunk order on the calling thread.
//! Consequently the result of any primitive is **bit-identical for every
//! thread count, including 1** — floating-point accumulation order, tie
//! breaks, and output layout cannot depend on scheduling. The kernel
//! rewrites built on top (radix-sorted structurization, blocked matmul,
//! windowed neighbor search) inherit the guarantee, which is what lets
//! `edgepc-serve` keep its outputs worker-count independent while adding
//! intra-batch parallelism.
//!
//! ## Thread-count resolution
//!
//! [`threads`] resolves the worker budget, first match wins:
//!
//! 1. a thread-local override installed by [`with_threads`] (used by the
//!    determinism tests and by serve workers to give each worker its own
//!    budget without races),
//! 2. the `EDGEPC_THREADS` environment variable (read once),
//! 3. [`std::thread::available_parallelism`].
//!
//! On a single-core host all primitives take a zero-spawn serial fast
//! path, so parallelization never taxes the machines it cannot help.

#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

mod pool;

pub use pool::{par_chunk_map, par_chunks_mut, par_for};

use std::cell::Cell;
use std::sync::OnceLock;

/// Hard ceiling on the worker count, bounding scoped-spawn cost even
/// under a nonsensical `EDGEPC_THREADS`.
pub const MAX_THREADS: usize = 64;

thread_local! {
    /// Per-thread override installed by [`with_threads`]; 0 = none.
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// The `EDGEPC_THREADS` environment variable, parsed once per process
/// (0 when absent or unparsable).
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("EDGEPC_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0)
    })
}

/// The worker budget parallel primitives use on this thread right now.
/// See the crate docs for the resolution order. Always at least 1 and at
/// most [`MAX_THREADS`].
pub fn threads() -> usize {
    let local = LOCAL_THREADS.with(Cell::get);
    if local > 0 {
        return local.min(MAX_THREADS);
    }
    let env = env_threads();
    if env > 0 {
        return env.min(MAX_THREADS);
    }
    detected_threads()
}

/// [`std::thread::available_parallelism`], detected once per process —
/// the resolution fallback sits on the hot path of every primitive and
/// must not re-issue the affinity syscall per call.
fn detected_threads() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(MAX_THREADS)
    })
}

/// Runs `f` with the worker budget overridden to `n` on the *current*
/// thread only (`n == 0` removes any override for the scope). The
/// previous override is restored on exit, including on unwind.
///
/// This is how tests pin `threads() ∈ {1, 2, 8}` without racing each
/// other, and how serve workers scope an intra-batch budget to
/// themselves.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|c| c.set(self.0));
        }
    }
    let prev = LOCAL_THREADS.with(|c| {
        let p = c.get();
        c.set(n);
        p
    });
    let _restore = Restore(prev);
    f()
}

/// The least work, in elementary f32 operations (a multiply-add, a
/// squared-difference term, a copied element), worth a fork. Forking
/// and joining one scoped worker cost 95–300 µs on a 2-vCPU x86-64 VM
/// (a scope that adds 1.0 to 2 048 floats on each side), and the
/// blocked kernel runs ~20 G multiply-adds/s on one thread there. Two
/// workers save half the serial time, so they pay only once that half
/// exceeds the fork: about 2^22 operations (~0.2 ms serial).
pub const FORK_FLOOR: usize = 1 << 22;

/// Runs `f` at one worker when `work` (elementary operations, see
/// [`FORK_FLOOR`]) is below the fork floor, at the current budget
/// otherwise. Only the worker count changes, never a chunk boundary, so
/// the result is the same either way. The call sites that know their
/// work (the blocked kernels, the feature-space k-NN, the eager
/// grouping) wrap their `par_*` calls in it.
pub fn with_work<R>(work: usize, f: impl FnOnce() -> R) -> R {
    if work < FORK_FLOOR {
        with_threads(1, f)
    } else {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_is_at_least_one() {
        assert!(threads() >= 1);
        assert!(threads() <= MAX_THREADS);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let ambient = threads();
        let inner = with_threads(3, threads);
        assert_eq!(inner, 3);
        assert_eq!(threads(), ambient, "override must not leak");
    }

    #[test]
    fn with_threads_nests_and_survives_unwind() {
        with_threads(5, || {
            assert_eq!(threads(), 5);
            let r = std::panic::catch_unwind(|| {
                with_threads(2, || -> usize {
                    assert_eq!(threads(), 2);
                    panic!("boom")
                })
            });
            assert!(r.is_err());
            assert_eq!(threads(), 5, "unwind must restore the outer override");
        });
    }

    #[test]
    fn with_threads_zero_clears_override() {
        let ambient = with_threads(0, threads);
        with_threads(7, || {
            assert_eq!(with_threads(0, threads), ambient);
        });
    }

    #[test]
    fn small_work_runs_at_one_worker() {
        with_threads(4, || {
            assert_eq!(with_work(FORK_FLOOR - 1, threads), 1);
            assert_eq!(with_work(FORK_FLOOR, threads), 4);
        });
    }

    #[test]
    fn override_caps_at_max_threads() {
        assert_eq!(with_threads(1_000_000, threads), MAX_THREADS);
    }
}
