//! Pure batch-formation helpers over the queued-request deque.
//!
//! Kept free of locks and clocks so the shedding/batching policy is unit
//! testable: the queue decides *when* to call these, these decide *what*
//! moves.

use std::collections::VecDeque;
use std::time::Instant;

use crate::request::QueuedRequest;

/// Removes every request whose deadline has passed as of `now`,
/// preserving the order of the survivors. Returns the expired requests so
/// the caller can respond to them.
pub(crate) fn split_expired(
    items: &mut VecDeque<QueuedRequest>,
    now: Instant,
) -> Vec<QueuedRequest> {
    extract(items, |req| req.is_expired(now))
}

/// Removes up to `room` requests for `model` (oldest first), preserving
/// the order of everything left behind. Batches group only compatible
/// requests — same model index means same replica and same config.
pub(crate) fn gather_compatible(
    items: &mut VecDeque<QueuedRequest>,
    model: usize,
    room: usize,
) -> Vec<QueuedRequest> {
    if room == 0 {
        return Vec::new();
    }
    let mut left = room;
    extract(items, |req| {
        let take = left > 0 && req.model == model;
        left -= usize::from(take);
        take
    })
}

/// Moves the requests `take` selects out of `items`, oldest first, and
/// keeps the rest in order. One pop-front/push-back rotation over the
/// current length partitions the deque in place, so it keeps its
/// allocation and the next push reuses it.
fn extract(
    items: &mut VecDeque<QueuedRequest>,
    mut take: impl FnMut(&QueuedRequest) -> bool,
) -> Vec<QueuedRequest> {
    let mut taken = Vec::new();
    for _ in 0..items.len() {
        let Some(req) = items.pop_front() else { break };
        if take(&req) {
            taken.push(req);
        } else {
            items.push_back(req);
        }
    }
    taken
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

    fn ids(v: &[QueuedRequest]) -> Vec<u64> {
        v.iter().map(|r| r.id).collect()
    }

    fn deque_ids(v: &VecDeque<QueuedRequest>) -> Vec<u64> {
        v.iter().map(|r| r.id).collect()
    }

    #[test]
    fn split_expired_partitions_and_preserves_order() {
        let mut q: VecDeque<QueuedRequest> = [
            req(0, 0, Some(Duration::ZERO)),
            req(1, 0, None),
            req(2, 0, Some(Duration::ZERO)),
            req(3, 0, Some(Duration::from_secs(60))),
        ]
        .into_iter()
        .collect();
        let expired = split_expired(&mut q, Instant::now());
        assert_eq!(ids(&expired), vec![0, 2]);
        assert_eq!(deque_ids(&q), vec![1, 3]);
    }

    #[test]
    fn gather_takes_only_matching_model_up_to_room() {
        let mut q: VecDeque<QueuedRequest> = [
            req(0, 1, None),
            req(1, 0, None),
            req(2, 1, None),
            req(3, 1, None),
            req(4, 0, None),
        ]
        .into_iter()
        .collect();
        let taken = gather_compatible(&mut q, 1, 2);
        assert_eq!(ids(&taken), vec![0, 2]);
        // Untaken requests keep their relative order.
        assert_eq!(deque_ids(&q), vec![1, 3, 4]);
    }

    #[test]
    fn gather_with_no_room_is_a_noop() {
        let mut q: VecDeque<QueuedRequest> = [req(0, 0, None)].into_iter().collect();
        assert!(gather_compatible(&mut q, 0, 0).is_empty());
        assert_eq!(q.len(), 1);
    }
}
