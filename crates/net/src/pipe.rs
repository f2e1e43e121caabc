//! The bounded per-connection response pipeline — where backpressure
//! becomes real.
//!
//! A connection's reader thread decodes request frames and enqueues
//! pending responses here; its writer thread dequeues and settles them in
//! FIFO order. The queue is **bounded**: when `pipeline_depth` responses
//! are outstanding, [`enqueue_pending`](Pipe::enqueue_pending) blocks,
//! which stops the reader draining the socket, which fills the kernel
//! receive buffer, which zeroes the TCP window — the client physically
//! cannot pump more requests into a saturated server. Nothing in this
//! path buffers unboundedly.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

use edgepc_geom::guard::{rank_scope, Lock};

pub(crate) struct Pipe<T> {
    state: Mutex<PipeState<T>>,
    /// Signalled when a slot frees up (readers wait here while full).
    space: Condvar,
    /// Signalled when an item arrives (the writer waits here while empty).
    data: Condvar,
    capacity: usize,
}

struct PipeState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

impl<T> Pipe<T> {
    pub fn new(capacity: usize) -> Self {
        Pipe {
            state: Mutex::new(PipeState {
                queue: VecDeque::new(),
                closed: false,
            }),
            space: Condvar::new(),
            data: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a pending response, blocking while the pipeline is at
    /// capacity (this block *is* the backpressure propagated to the
    /// socket). `Ok(true)` means the caller had to wait. `Err(())` means
    /// the pipe closed (writer died or connection torn down) — the item
    /// is dropped, which resolves any ticket inside it by cancellation.
    ///
    /// The condvar waits consume and re-issue the bare guard, so the rank
    /// rides in a fn-scoped token (sound across waits: this thread is
    /// blocked while the mutex is released).
    pub fn enqueue_pending(&self, item: T) -> Result<bool, ()> {
        let _rank = rank_scope(Lock::NetPipe);
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut waited = false;
        while !state.closed && state.queue.len() >= self.capacity {
            waited = true;
            state = self
                .space
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.closed {
            return Err(());
        }
        state.queue.push_back(item);
        drop(state);
        self.data.notify_one();
        Ok(waited)
    }

    /// Dequeues the next pending response, blocking while the pipeline is
    /// empty. `None` means closed *and* drained — the writer's signal to
    /// flush and exit.
    pub fn dequeue_pending(&self) -> Option<T> {
        let _rank = rank_scope(Lock::NetPipe);
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = state.queue.pop_front() {
                drop(state);
                self.space.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .data
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the pipe: blocked enqueuers fail, the writer drains what is
    /// queued and then sees `None`. Idempotent; callable from either side.
    pub fn close_pipe(&self) {
        {
            let _rank = rank_scope(Lock::NetPipe);
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.closed = true;
        }
        self.space.notify_all();
        self.data.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_and_close_semantics() {
        let pipe = Pipe::new(4);
        assert_eq!(pipe.enqueue_pending(1), Ok(false));
        assert_eq!(pipe.enqueue_pending(2), Ok(false));
        assert_eq!(pipe.dequeue_pending(), Some(1));
        pipe.close_pipe();
        assert_eq!(pipe.enqueue_pending(3), Err(()));
        // Drains what was queued before reporting closed.
        assert_eq!(pipe.dequeue_pending(), Some(2));
        assert_eq!(pipe.dequeue_pending(), None);
    }

    #[test]
    fn full_pipe_blocks_until_a_slot_frees() {
        let pipe = Arc::new(Pipe::new(1));
        pipe.enqueue_pending(0u32).unwrap();
        let p2 = Arc::clone(&pipe);
        let enq = std::thread::spawn(move || p2.enqueue_pending(1));
        std::thread::sleep(Duration::from_millis(20));
        // The enqueuer is blocked (backpressure); freeing a slot admits it.
        assert_eq!(pipe.dequeue_pending(), Some(0));
        assert_eq!(enq.join().unwrap(), Ok(true));
        assert_eq!(pipe.dequeue_pending(), Some(1));
    }

    #[test]
    fn close_releases_a_blocked_enqueuer() {
        let pipe = Arc::new(Pipe::new(1));
        pipe.enqueue_pending(0u32).unwrap();
        let p2 = Arc::clone(&pipe);
        let enq = std::thread::spawn(move || p2.enqueue_pending(1));
        std::thread::sleep(Duration::from_millis(20));
        pipe.close_pipe();
        assert_eq!(enq.join().unwrap(), Err(()));
    }
}
