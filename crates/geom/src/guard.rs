//! The workspace's single sanctioned panic site and its one lock order.
//!
//! Hot-path crates must not call `unwrap`/`expect`/`panic!` directly
//! (clippy's `unwrap_used`, `expect_used`, `panic`, `todo` and
//! `unreachable` deny them under `-D warnings`): an inference call that
//! dies mid-pipeline on an edge device has no supervisor to catch it, so
//! every diverging path must be a *documented API-misuse guard*,
//! auditable in one place. Precondition checks keep using `assert!` (the
//! `# Panics` contract); internal invariants that genuinely cannot
//! propagate route through [`violation`] or [`required`], whose one
//! `panic!` carries the hot crates' only `#[allow(clippy::panic)]`.
//!
//! Messages passed here surface verbatim, so `#[should_panic(expected)]`
//! tests keep working across the migration from `.expect(…)`.
//!
//! [`Lock`] is the workspace lock order. Every mutex acquisition names
//! its variant through [`rank_scope`] or [`ranked_with`]; debug builds
//! check the order at runtime, and lint rule EP006 parses the enum from
//! this file to check it statically.

use std::sync::OnceLock;

type ViolationHook = Box<dyn Fn(&str) + Send + Sync>;

static HOOK: OnceLock<ViolationHook> = OnceLock::new();

/// Every ranked mutex in the workspace. **Declaration order is the
/// rank**: a thread holding a lock may only acquire locks declared
/// *after* it. Keep the variants fieldless and without explicit
/// discriminants, so the derived `Ord` and EP006's reading of this
/// declaration agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lock {
    /// `net` server connection-handle table. Connection threads hold no
    /// net lock while calling into a shard; ranking the net locks first
    /// makes even an accidental overlap ascend.
    NetConns,
    /// `net` router shard-health state: read per route, written on a
    /// `ShuttingDown` refusal, released before `Engine::submit`.
    NetRouter,
    /// A `net` connection's response pipeline, the backpressure point;
    /// reader and writer threads take nothing else under it.
    NetPipe,
    /// `serve` telemetry-plane list (`flight::PLANES`), the violation
    /// hook's entry point: the hook walks it before touching any
    /// per-plane state, so everything else may be taken under it.
    ServePlanes,
    /// `serve` engine worker-handle list, joined at shutdown while
    /// planes may be notified.
    ServeWorkers,
    /// `serve` admission queue. `push_with` runs its admission callback
    /// under it, and that callback records into the trigger, sampler and
    /// trace locks declared after it.
    ServeQueue,
    /// `serve` flight-dump trigger burst counters, set under queue and
    /// plane activity.
    ServeTrigger,
    /// `serve` tail sampler, updated from `note_done` under trigger
    /// checks.
    ServeSampler,
    /// `serve` telemetry endpoint's quit flag (condvar-coupled); the
    /// leaf among the serve control locks.
    ServeTelemetry,
    /// `trace` registry maps. Every crate records into it while holding
    /// its own locks, so it ranks last but one.
    TraceRegistry,
    /// `trace` flight-recorder ring shards: the innermost sink, which
    /// takes nothing while held.
    TraceFlight,
}

#[cfg(debug_assertions)]
mod rank {
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// Every ranked lock this thread currently holds.
        pub(super) static HELD: RefCell<Vec<super::Lock>> = const { RefCell::new(Vec::new()) };
        /// Sticky per-thread kill switch: set before a rank violation
        /// diverges (and before the violation hook runs), because the
        /// unwind path is allowed to take locks in any order for last-gasp
        /// telemetry.
        pub(super) static OFF: Cell<bool> = const { Cell::new(false) };
    }
}

/// Proof that a ranked lock acquisition passed the debug-build lock-order
/// check; dropping it marks the lock released. Created by [`rank_scope`]
/// (for guards that must stay bare, e.g. `Condvar::wait` loops) or
/// carried inside a [`Ranked`] wrapper. In release builds this is a
/// zero-sized no-op.
pub struct RankToken {
    #[cfg(debug_assertions)]
    lock: Lock,
    #[cfg(debug_assertions)]
    pushed: bool,
}

/// Declares that the current thread is about to acquire `lock` (locks
/// declared later in [`Lock`] must be acquired while holding only
/// earlier ones). In debug builds this checks the thread's held-lock
/// stack and diverges through [`violation`] on a same-or-earlier
/// acquisition; in release builds it is free.
///
/// Call it *before* blocking on the mutex so an ordering bug is reported
/// even when it would have deadlocked. The token must outlive the guard
/// it ranks; it may be dropped in any order relative to other tokens.
#[must_use = "the rank token must be held as long as the lock guard it ranks"]
#[cfg(debug_assertions)]
pub fn rank_scope(lock: Lock) -> RankToken {
    enum Outcome {
        Pushed,
        Skipped,
        Conflict(Lock),
    }
    if rank::OFF.with(std::cell::Cell::get) {
        return RankToken {
            lock,
            pushed: false,
        };
    }
    let outcome = rank::HELD.with(|held| match held.try_borrow_mut() {
        Ok(mut held) => {
            if let Some(&held_lock) = held.iter().find(|&&h| h >= lock) {
                Outcome::Conflict(held_lock)
            } else {
                held.push(lock);
                Outcome::Pushed
            }
        }
        // A re-entrant check (the stack is already borrowed higher up this
        // call chain) skips validation rather than risking a panic inside
        // the checker itself.
        Err(_) => Outcome::Skipped,
    });
    match outcome {
        Outcome::Pushed => RankToken { lock, pushed: true },
        Outcome::Skipped => RankToken {
            lock,
            pushed: false,
        },
        Outcome::Conflict(held_lock) => {
            // Stop checking on this thread before diverging: the violation
            // hook's last-gasp telemetry takes its own locks.
            rank::OFF.with(|off| off.set(true));
            let msg = if held_lock == lock {
                format!("lock-rank violation: re-entrant acquisition of {lock:?} while already holding it")
            } else {
                format!(
                    "lock-rank violation: acquiring {lock:?} while holding {held_lock:?}; \
                     locks must be taken in `guard::Lock` declaration order"
                )
            };
            violation(&msg)
        }
    }
}

/// Release-build [`rank_scope`]: a zero-cost no-op.
#[must_use = "the rank token must be held as long as the lock guard it ranks"]
#[cfg(not(debug_assertions))]
pub fn rank_scope(_lock: Lock) -> RankToken {
    RankToken {}
}

impl Drop for RankToken {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        if self.pushed {
            rank::HELD.with(|held| {
                if let Ok(mut held) = held.try_borrow_mut() {
                    if let Some(i) = held.iter().rposition(|&h| h == self.lock) {
                        held.remove(i);
                    }
                }
            });
        }
    }
}

/// A lock guard paired with its [`RankToken`]: dereferences to the guard,
/// releases the lock *before* popping the rank (field order), so the
/// held-lock stack never understates what this thread holds.
pub struct Ranked<G> {
    guard: G,
    _token: RankToken,
}

impl<G> std::ops::Deref for Ranked<G> {
    type Target = G;
    fn deref(&self) -> &G {
        &self.guard
    }
}

impl<G> std::ops::DerefMut for Ranked<G> {
    fn deref_mut(&mut self) -> &mut G {
        &mut self.guard
    }
}

/// Rank-checks *then* acquires: runs the [`rank_scope`] check before
/// calling `acquire` (so a would-be deadlock is reported instead of hung)
/// and returns the guard wrapped in [`Ranked`]. This is the sanctioned
/// shape for the `Registry::lock`-style poison-tolerant wrapper idiom:
///
/// ```ignore
/// fn lock(&self) -> Ranked<MutexGuard<'_, Inner>> {
///     ranked_with(Lock::TraceRegistry, || {
///         self.inner.lock().unwrap_or_else(PoisonError::into_inner)
///     })
/// }
/// ```
pub fn ranked_with<G>(lock: Lock, acquire: impl FnOnce() -> G) -> Ranked<G> {
    let token = rank_scope(lock);
    Ranked {
        guard: acquire(),
        _token: token,
    }
}

/// Installs a process-wide observer called (once, with the message) just
/// before [`violation`] panics. Returns `false` if a hook was already
/// installed (first install wins — the telemetry plane registers one hook
/// per process and fans out internally). The hook runs on the panicking
/// thread and must not panic itself; it is for last-gasp telemetry such
/// as flight-recorder dumps, not for recovery.
pub fn set_violation_hook(hook: impl Fn(&str) + Send + Sync + 'static) -> bool {
    HOOK.set(Box::new(hook)).is_ok()
}

/// Diverges on a violated internal invariant or misused API, notifying
/// the [`set_violation_hook`] observer (if any) first.
///
/// # Panics
///
/// Always — that is its job. This is the single sanctioned panic site:
/// every hot-path invariant failure routes here so the workspace's
/// diverging surface stays auditable in one place, which is why it
/// carries the hot crates' one `#[allow(clippy::panic)]`.
#[cold]
#[inline(never)]
#[allow(clippy::panic)]
pub fn violation(msg: &str) -> ! {
    if let Some(hook) = HOOK.get() {
        // The hook's last-gasp telemetry (flight-recorder dumps) takes
        // locks of its own; this thread is about to unwind, so lock-rank
        // checking stops here rather than second-guessing the panic path.
        #[cfg(debug_assertions)]
        rank::OFF.with(|off| off.set(true));
        hook(msg);
    }
    panic!("{msg}")
}

/// Unwraps `opt`, diverging through [`violation`] with `msg` when the
/// value is absent. The drop-in replacement for `.expect(msg)` at
/// API-misuse boundaries in hot-path crates.
#[inline]
pub fn required<T>(opt: Option<T>, msg: &str) -> T {
    match opt {
        Some(v) => v,
        None => violation(msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_passes_values_through() {
        assert_eq!(required(Some(7), "absent"), 7);
    }

    #[test]
    #[should_panic(expected = "exact message preserved")]
    fn required_panics_with_the_given_message() {
        let _: u32 = required(None, "exact message preserved");
    }

    #[test]
    fn ascending_ranks_pass_and_release_frees_the_rank() {
        std::thread::spawn(|| {
            let a = rank_scope(Lock::ServeWorkers);
            {
                let b = rank_scope(Lock::ServeTrigger);
                drop(b);
            }
            // ServeTrigger was released, so it is acquirable again.
            let c = rank_scope(Lock::ServeTrigger);
            drop(c);
            drop(a);
            // Stack is empty again: an early lock passes.
            let d = rank_scope(Lock::NetConns);
            drop(d);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn out_of_order_release_pops_the_matching_entry() {
        std::thread::spawn(|| {
            let a = rank_scope(Lock::ServeWorkers);
            let b = rank_scope(Lock::ServeTrigger);
            drop(a); // release the EARLIER lock first
            let c = rank_scope(Lock::ServeTelemetry);
            drop(b);
            drop(c);
            // Both middle locks are free again.
            let d = rank_scope(Lock::ServeTrigger);
            drop(d);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn descending_and_reentrant_acquisitions_diverge_in_debug() {
        // Dedicated thread: a detected violation stops rank checking on
        // its thread for good, which must not leak into other tests.
        let (descending, reentrant) = std::thread::spawn(|| {
            let descending = {
                let _late = rank_scope(Lock::TraceRegistry);
                std::panic::catch_unwind(|| {
                    let _early = rank_scope(Lock::ServeQueue);
                })
                .is_err()
            };
            let reentrant = std::thread::spawn(|| {
                let _a = rank_scope(Lock::ServeSampler);
                std::panic::catch_unwind(|| {
                    let _b = rank_scope(Lock::ServeSampler);
                })
                .is_err()
            })
            .join()
            .unwrap();
            (descending, reentrant)
        })
        .join()
        .unwrap();
        assert_eq!(descending, cfg!(debug_assertions));
        assert_eq!(reentrant, cfg!(debug_assertions));
    }

    #[test]
    fn ranked_with_wraps_a_real_guard_transparently() {
        use std::sync::Mutex;
        std::thread::spawn(|| {
            let m = Mutex::new(vec![1, 2]);
            let mut g = ranked_with(Lock::ServeQueue, || {
                m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
            });
            g.push(3);
            assert_eq!(g.len(), 3);
            drop(g);
            // The guard (and its rank) were released.
            let g2 = ranked_with(Lock::ServeQueue, || {
                m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
            });
            assert_eq!(**g2, vec![1, 2, 3]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn violation_hook_sees_the_message_before_the_panic() {
        use std::sync::Mutex;
        static SEEN: Mutex<Vec<String>> = Mutex::new(Vec::new());
        // First install wins; a second install reports failure. Hooks are
        // process-global, so this test tolerates other tests' violations
        // landing in SEEN too.
        set_violation_hook(|msg| {
            SEEN.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(msg.to_string());
        });
        assert!(!set_violation_hook(|_| {}));
        let unwound = std::panic::catch_unwind(|| violation("hooked message"));
        assert!(unwound.is_err());
        let seen = SEEN
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(seen.iter().any(|m| m == "hooked message"));
    }
}
