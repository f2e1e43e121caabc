//! The bounded submission queue shared by the submitter and the workers.
//!
//! Admission control happens at the push side: a full queue rejects
//! immediately (shedding), it never blocks the caller. The pop side is
//! where batches form, and it is work-conserving: a worker blocks only
//! while the queue is empty. Once it holds an anchor request it takes the
//! same-model requests already queued, up to the batch bound, and runs —
//! it never waits for one that has not arrived. A batch is therefore the
//! backlog that built up while the worker was busy: size 1 on an idle
//! engine, larger under load. Deadline-expired requests are culled during
//! formation and handed back so the worker can cancel them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use edgepc_geom::guard::{rank_scope, ranked_with, Lock, Ranked};

use crate::batch::{gather_compatible, split_expired};
use crate::error::ServeError;
use crate::request::QueuedRequest;

/// What a worker pulled off the queue.
pub(crate) enum Pop {
    /// Requests to run (possibly empty if only cancellations were found),
    /// plus requests whose deadline expired while queued.
    Work {
        batch: Vec<QueuedRequest>,
        expired: Vec<QueuedRequest>,
    },
    /// The queue is shut down and fully drained; the worker should exit.
    Shutdown,
}

pub(crate) struct SubmitQueue {
    capacity: usize,
    inner: Mutex<Inner>,
    available: Condvar,
    /// Mirror of `inner.items.len()`, refreshed under the lock at every
    /// mutation. Lets [`depth`](Self::depth) answer without taking the
    /// lock — shard routers poll it on every routing decision, and a
    /// routing tier that contends the submission lock would serialize the
    /// very shards it is balancing.
    depth: AtomicUsize,
}

#[derive(Default)]
struct Inner {
    items: VecDeque<QueuedRequest>,
    shutdown: bool,
}

impl SubmitQueue {
    pub fn new(capacity: usize) -> Self {
        SubmitQueue {
            capacity,
            inner: Mutex::new(Inner::default()),
            available: Condvar::new(),
            depth: AtomicUsize::new(0),
        }
    }

    /// Refreshes the lock-free depth mirror; call after any `items`
    /// mutation, while the lock is still held.
    fn sync_depth(&self, inner: &Inner) {
        self.depth.store(inner.items.len(), Ordering::Relaxed);
    }

    /// A poisoned mutex only means another thread panicked mid-operation;
    /// the deque is still structurally sound, so recover the guard rather
    /// than cascading the panic through the engine. The rank wrapper
    /// asserts (in debug builds) that no higher-ranked lock is held.
    fn lock(&self) -> Ranked<MutexGuard<'_, Inner>> {
        ranked_with(Lock::ServeQueue, || {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        })
    }

    /// Current queue depth. Lock-free (reads the atomic mirror), so it is
    /// safe to call from hot routing paths.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// [`push_with`](Self::push_with) without admission telemetry; the
    /// engine always wants the callback, so this stays test-only.
    #[cfg(test)]
    pub fn push(&self, req: QueuedRequest) -> Result<(), ServeError> {
        self.push_with(req, |_| {})
    }

    /// Admission control: enqueues `req` or rejects it without blocking.
    /// A rejected request is dropped here, which closes its response
    /// channel; the caller still holds the typed rejection to return.
    ///
    /// `on_admit(depth_after_push)` runs while the queue lock is still
    /// held, so telemetry recorded there is ordered before any worker can
    /// pop the request — without this, a worker could cull an
    /// already-expired request (and trigger a flight-recorder dump) before
    /// the submitter logged its admission, leaving a timeline whose first
    /// event is the cull.
    pub fn push_with(
        &self,
        req: QueuedRequest,
        on_admit: impl FnOnce(usize),
    ) -> Result<(), ServeError> {
        let mut inner = self.lock();
        if inner.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if inner.items.len() >= self.capacity {
            return Err(ServeError::QueueFull {
                capacity: self.capacity,
            });
        }
        inner.items.push_back(req);
        self.sync_depth(&inner);
        on_admit(inner.items.len());
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Marks the queue as draining: future pushes are refused, and workers
    /// finish the remaining items before exiting.
    pub fn begin_shutdown(&self) {
        self.lock().shutdown = true;
        self.available.notify_all();
    }

    /// Blocks while the queue is empty (and not shut down), then forms a
    /// batch from what is queued at that moment, under one lock hold: the
    /// oldest live request anchors it and the same-model requests behind
    /// it join, oldest first, up to `max_batch`. Never waits for a
    /// request that has not arrived.
    ///
    /// Not allocation-free, by design: it hands ownership of the formed
    /// batch and the culled set to the worker as vectors. Those
    /// allocations are the API surface, bounded by `max_batch` and
    /// amortized across every request in the batch.
    pub fn take_batch(&self, max_batch: usize) -> Pop {
        let mut expired = Vec::new();
        // The condvar wait below consumes and re-issues the bare guard, so
        // the rank is scoped to the whole formation instead of riding in a
        // `Ranked` wrapper. Holding it across the wait is sound: this
        // thread is blocked while the mutex is released, so it cannot
        // acquire anything else in between.
        let _rank = rank_scope(Lock::ServeQueue);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            expired.extend(split_expired(&mut inner.items, Instant::now()));
            self.sync_depth(&inner);
            if !inner.items.is_empty() || inner.shutdown {
                break;
            }
            if !expired.is_empty() {
                // Cancel promptly rather than sitting on the expired
                // requests until the next live submission.
                return Pop::Work {
                    batch: Vec::new(),
                    expired,
                };
            }
            inner = self
                .available
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }

        let Some(anchor) = inner.items.pop_front() else {
            // Shut down and drained.
            return if expired.is_empty() {
                Pop::Shutdown
            } else {
                Pop::Work {
                    batch: Vec::new(),
                    expired,
                }
            };
        };
        let model = anchor.model;
        let mut batch = vec![anchor];
        let room = max_batch.saturating_sub(1);
        batch.extend(gather_compatible(&mut inner.items, model, room));
        self.sync_depth(&inner);
        drop(inner);
        Pop::Work { batch, expired }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    use edgepc_geom::PointCloud;

    fn req(id: u64, model: usize, deadline: Option<Duration>) -> QueuedRequest {
        let (tx, _rx) = mpsc::channel();
        QueuedRequest {
            id,
            model,
            cloud: PointCloud::new(),
            enqueued: Instant::now(),
            deadline,
            tx,
        }
    }

    #[test]
    fn push_rejects_when_full_and_after_shutdown() {
        let q = SubmitQueue::new(1);
        assert!(q.push(req(0, 0, None)).is_ok());
        let err = q.push(req(1, 0, None)).unwrap_err();
        assert_eq!(err, ServeError::QueueFull { capacity: 1 });
        q.begin_shutdown();
        let err = q.push(req(2, 0, None)).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
    }

    #[test]
    fn capacity_zero_rejects_everything() {
        let q = SubmitQueue::new(0);
        let err = q.push(req(0, 0, None)).unwrap_err();
        assert_eq!(err, ServeError::QueueFull { capacity: 0 });
        assert_eq!(q.depth(), 0);
    }

    /// Ids of the batch and of the culled requests a pop returned.
    fn work_ids(pop: Pop) -> (Vec<u64>, Vec<u64>) {
        match pop {
            Pop::Work { batch, expired } => (
                batch.iter().map(|r| r.id).collect(),
                expired.iter().map(|r| r.id).collect(),
            ),
            Pop::Shutdown => panic!("expected work"),
        }
    }

    #[test]
    fn take_batch_groups_same_model_and_culls_expired() {
        let q = SubmitQueue::new(8);
        q.push(req(0, 1, None)).unwrap();
        q.push(req(1, 1, Some(Duration::ZERO))).unwrap();
        q.push(req(2, 2, None)).unwrap();
        q.push(req(3, 1, None)).unwrap();
        assert_eq!(work_ids(q.take_batch(4)), (vec![0, 3], vec![1]));
        // The other-model request is still queued.
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn batches_are_the_backlog_in_fifo_order_up_to_max_batch() {
        let q = SubmitQueue::new(8);
        // Six requests of model 0 with two of model 1 interleaved.
        for (id, model) in [0, 0, 1, 0, 0, 0, 1, 0].into_iter().enumerate() {
            q.push(req(id as u64, model, None)).unwrap();
        }
        assert_eq!(work_ids(q.take_batch(4)).0, [0, 1, 3, 4]);
        assert_eq!(q.depth(), 4);
        // The oldest request left anchors the next batch, whatever its model.
        assert_eq!(work_ids(q.take_batch(4)).0, [2, 6]);
        assert_eq!(work_ids(q.take_batch(4)).0, [5, 7]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn a_lone_request_runs_without_waiting_for_company() {
        // Nothing else will ever be pushed: a batcher that waited for a
        // straggler would wait here for as long as it was willing to.
        let q = SubmitQueue::new(8);
        q.push(req(0, 0, None)).unwrap();
        assert_eq!(work_ids(q.take_batch(4)).0, [0]);
    }

    #[test]
    fn drains_then_reports_shutdown() {
        let q = SubmitQueue::new(8);
        q.push(req(0, 0, None)).unwrap();
        q.begin_shutdown();
        assert_eq!(work_ids(q.take_batch(4)).0, [0]);
        assert!(matches!(q.take_batch(4), Pop::Shutdown));
    }
}
