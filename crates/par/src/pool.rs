//! The fork/join primitives.
//!
//! Each call forks a fresh `std::thread::scope` (no persistent pool: the
//! workspace is std-only and scoped threads borrow the caller's data
//! without `'static` gymnastics or unsafe). Chunk boundaries come from
//! the caller's `chunk` argument alone; workers take whole chunks
//! round-robin (`chunk_index % workers`) and results are stitched back
//! in chunk order, so outputs are bit-identical for any worker count —
//! see the crate docs for the full determinism contract.
//!
//! When the resolved budget is one worker (or there is at most one
//! chunk) every primitive degenerates to the plain serial loop with zero
//! spawns and zero extra allocation beyond the output itself.

use crate::threads;

/// Workers to fork for `n_chunks` chunks of work: never more workers
/// than chunks, never zero.
fn workers_for(n_chunks: usize) -> usize {
    threads().min(n_chunks).max(1)
}

/// Runs `f(0) ..= f(n_tasks - 1)`, distributing task indices round-robin
/// over the worker budget. Every index runs exactly once; ordering
/// *across* workers is unspecified, so `f` must only touch disjoint or
/// synchronized state per index (e.g. atomic scatter targets).
pub fn par_for(n_tasks: usize, f: impl Fn(usize) + Sync) {
    let t = workers_for(n_tasks);
    if t <= 1 {
        for i in 0..n_tasks {
            f(i);
        }
        return;
    }
    let f = &f;
    std::thread::scope(|s| {
        for w in 1..t {
            s.spawn(move || {
                let mut i = w;
                while i < n_tasks {
                    f(i);
                    i += t;
                }
            });
        }
        let mut i = 0;
        while i < n_tasks {
            f(i);
            i += t;
        }
    });
}

/// Maps `f` over fixed `chunk`-sized slices of `items` (the last chunk
/// may be short), returning one result per chunk **in chunk order**.
/// `f` receives the chunk index and the chunk slice.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn par_chunk_map<T: Sync, A: Send>(
    items: &[T],
    chunk: usize,
    f: impl Fn(usize, &[T]) -> A + Sync,
) -> Vec<A> {
    assert!(chunk > 0, "chunk size must be positive");
    if items.is_empty() {
        return Vec::new();
    }
    let n_chunks = items.len().div_ceil(chunk);
    let t = workers_for(n_chunks);
    if t <= 1 {
        return items
            .chunks(chunk)
            .enumerate()
            .map(|(i, c)| f(i, c))
            .collect();
    }
    let mut slots: Vec<Option<A>> = Vec::new();
    slots.resize_with(n_chunks, || None);
    type Bucket<'a, T, A> = Vec<(usize, &'a [T], &'a mut Option<A>)>;
    let mut buckets: Vec<Bucket<'_, T, A>> = (0..t).map(|_| Vec::new()).collect();
    for (i, (c, slot)) in items.chunks(chunk).zip(slots.iter_mut()).enumerate() {
        buckets[i % t].push((i, c, slot));
    }
    let f = &f;
    std::thread::scope(|s| {
        let mut buckets = buckets.into_iter();
        let own = buckets.next();
        for bucket in buckets {
            s.spawn(move || {
                for (i, c, slot) in bucket {
                    *slot = Some(f(i, c));
                }
            });
        }
        if let Some(bucket) = own {
            for (i, c, slot) in bucket {
                *slot = Some(f(i, c));
            }
        }
    });
    let out: Vec<A> = slots.into_iter().flatten().collect();
    assert_eq!(out.len(), n_chunks, "every chunk produces a result");
    out
}

/// Applies `f` to fixed `chunk`-sized mutable slices of `data` in
/// parallel. `f` receives the chunk index and the chunk slice; the
/// element offset of chunk `i` is `i * chunk`. Equivalent to the serial
/// `for (i, c) in data.chunks_mut(chunk).enumerate() { f(i, c) }`.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn par_chunks_mut<T: Send>(data: &mut [T], chunk: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    assert!(chunk > 0, "chunk size must be positive");
    if data.is_empty() {
        return;
    }
    let n_chunks = data.len().div_ceil(chunk);
    let t = workers_for(n_chunks);
    if t <= 1 {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    let mut buckets: Vec<Vec<(usize, &mut [T])>> = (0..t).map(|_| Vec::new()).collect();
    for (i, c) in data.chunks_mut(chunk).enumerate() {
        buckets[i % t].push((i, c));
    }
    let f = &f;
    std::thread::scope(|s| {
        let mut buckets = buckets.into_iter();
        let own = buckets.next();
        for bucket in buckets {
            s.spawn(move || {
                for (i, c) in bucket {
                    f(i, c);
                }
            });
        }
        if let Some(bucket) = own {
            for (i, c) in bucket {
                f(i, c);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_threads;

    #[test]
    fn par_chunk_map_preserves_chunk_order_and_indices() {
        let items: Vec<u32> = (0..257).collect();
        for t in [1usize, 4] {
            let got = with_threads(t, || par_chunk_map(&items, 16, |i, c| (i, c.len(), c[0])));
            assert_eq!(got.len(), 17);
            for (i, &(ci, len, first)) in got.iter().enumerate() {
                assert_eq!(ci, i);
                assert_eq!(len, if i == 16 { 1 } else { 16 });
                assert_eq!(first as usize, i * 16);
            }
        }
    }

    #[test]
    fn par_chunks_mut_writes_every_chunk_once() {
        for t in [1usize, 2, 5] {
            let mut data = vec![0u32; 103];
            with_threads(t, || {
                par_chunks_mut(&mut data, 10, |i, c| {
                    for (j, x) in c.iter_mut().enumerate() {
                        *x = (i * 10 + j) as u32 + 1;
                    }
                });
            });
            let expect: Vec<u32> = (1..=103).collect();
            assert_eq!(data, expect, "thread count {t}");
        }
    }

    #[test]
    fn par_for_runs_every_index_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        for t in [1usize, 3, 9] {
            let hits: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
            with_threads(t, || {
                par_for(100, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_chunk_map(&empty, 8, |_, c| c.len()).is_empty());
        let mut none: Vec<u32> = Vec::new();
        par_chunks_mut(&mut none, 8, |_, _| {});
        par_for(0, |_| {});
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        let _ = par_chunk_map(&[1u32], 0, |_, c| c.len());
    }
}
