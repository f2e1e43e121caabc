//! Allocation counts of the steady-state scopes.
//!
//! A counting `#[global_allocator]` for this crate's unit-test binary
//! only. It hands every call to [`System`] and counts, per thread, the
//! allocations (`alloc`, `alloc_zeroed`, and `realloc`: a growth is an
//! allocation) and the bytes they ask for. Each test warms its scope and
//! then asserts the exact count of one more pass. [`counted`] reads the
//! calling thread's counters only, so tests running in parallel do not
//! see each other, and a scope that reaches `edgepc_par` runs at one
//! thread ([`solo`]) so that all of its work is counted.
//!
//! The scopes are the ones a serving worker repeats per request: the
//! registry recorders, the flight ring, the telemetry plane, the
//! submission queue, the fused kernel, the plan executor, the compiled
//! forwards and a whole one-request batch. They live in this crate because it is the one that
//! reaches all of them, its private queue and plane included. A count
//! follows callees, so an allocation moved into a helper still shows.
//!
//! This file holds the tree's only `unsafe`: [`GlobalAlloc`] is an
//! unsafe trait. The workspace denies `unsafe_code` rather than
//! forbidding it, so the file-level allow below overrides it here alone.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use edgepc_geom::OpCounts;
use edgepc_ir::{compile, Executor, GatherIn, GatherMode, Graph, InTensor, Inputs};
use edgepc_models::{
    CompiledDgcnn, CompiledPointNetPp, DgcnnClassifier, DgcnnConfig, ExecState, PipelineStrategy,
    PointNetPpConfig, PointNetPpSeg,
};
use edgepc_nn::{fused_linear, PackedPanels, RowSource, Tensor2};
use edgepc_trace::flight::{EventKind, FlightRecorder, TelemetryEvent};
use edgepc_trace::{Registry, SpanData};

use crate::config::FlightConfig;
use crate::engine::run_batch;
use crate::flight::TelemetryPlane;
use crate::metrics;
use crate::model::{ModelSpec, ServeModel};
use crate::plans::WorkerPlans;
use crate::queue::SubmitQueue;
use crate::request::QueuedRequest;

thread_local! {
    // `const` and drop-free, so the allocator can touch them without
    // allocating or registering a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` contract passes straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns what it allocated on this thread, as
/// `(allocations, bytes)`.
fn counted<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let totals = || (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let before = totals();
    let out = f();
    let after = totals();
    (out, (after.0 - before.0, after.1 - before.1))
}

/// Runs `f` and, when `probe` is set (the scope is warm), asserts that
/// it allocated nothing.
fn zero_when(probe: bool, what: &str, f: impl FnOnce()) {
    let (_, (n, _)) = counted(f);
    assert!(!probe || n == 0, "{what}: {n} allocations once warm");
}

/// Runs `f` at one `edgepc_par` thread, where every scope below runs
/// serially on the calling thread and its count is exact.
fn solo<R>(f: impl FnOnce() -> R) -> R {
    edgepc_par::with_threads(1, f)
}

/// A finished span of trace `trace_id`, built before the counted call
/// that records it.
fn span(trace_id: u64) -> SpanData {
    SpanData {
        name: "serve.exec".to_string(),
        kind: "serve".to_string(),
        trace_id,
        depth: 0,
        start_us: 0,
        dur_us: 7,
        tid: 0,
        ops: OpCounts::ZERO,
        modeled_ms: None,
        modeled_mj: None,
    }
}

#[test]
fn registry_recorders_allocate_nothing_once_warm() {
    let reg = Registry::new();
    // One request's registry traffic: two spans of its trace, then the
    // tail sampler's verdict. Every third is kept, so the warm-up fills
    // the kept-trace ring and evicts from it.
    let request = |id: u64, probe: bool| {
        let (a, b) = (span(id), span(id));
        zero_when(probe, "record", || reg.record(a));
        zero_when(probe, "record", || reg.record(b));
        zero_when(probe, "finish_trace", || {
            reg.finish_trace(id, id.is_multiple_of(3));
        });
        zero_when(probe, "incr", || reg.incr(metrics::COMPLETED, 1));
        zero_when(probe, "observe_us", || {
            reg.observe_us(metrics::BATCH_SIZE, 3)
        });
        zero_when(probe, "observe_us_tagged", || {
            reg.observe_us_tagged(metrics::LATENCY_US, id, id);
        });
        zero_when(probe, "set_gauge", || {
            reg.set_gauge(metrics::TAIL_THRESHOLD_US, 1.5)
        });
        zero_when(probe, "add_gauge", || {
            reg.add_gauge(metrics::IN_FLIGHT, 1.0);
        });
    };
    for id in 1..=8 * Registry::KEPT_TRACES as u64 {
        request(id, false);
    }
    for id in 5000..5100 {
        request(id, true);
    }
}

#[test]
fn flight_ring_records_nothing_new_once_wrapped() {
    let ring = FlightRecorder::new(64, 4);
    let event = |i: u64| TelemetryEvent {
        t_us: i,
        trace_id: i,
        kind: EventKind::Done,
        a: i,
        b: 0,
    };
    for i in 0..200 {
        ring.record(event(i));
    }
    for i in 200..300 {
        zero_when(true, "record", || ring.record(event(i)));
    }
    assert!(ring.recorded() > ring.capacity() as u64, "the ring wrapped");
}

#[test]
fn telemetry_plane_notes_allocate_nothing_below_the_dump_triggers() {
    let registry = Arc::new(Registry::new());
    let cfg = FlightConfig {
        capacity: 64,
        shards: 2,
        miss_burst: 8,
        shed_burst: 8,
        // Sheds and misses come 2 ms apart, so the window never holds
        // more than one and neither trigger fires.
        window: Duration::from_millis(1),
        tail_warmup: 4,
        ..FlightConfig::default()
    };
    let plane = TelemetryPlane::new(Arc::clone(&registry), cfg);
    let request = |id: u64, probe: bool| {
        std::thread::sleep(Duration::from_millis(2));
        // Alternating latencies keep both of the sampler's verdicts live.
        let total_us = if id.is_multiple_of(2) { 50 } else { 5_000 };
        zero_when(probe, "note_enqueued", || plane.note_enqueued(id, 1, 0));
        zero_when(probe, "note_shed", || plane.note_shed(id, 8));
        zero_when(probe, "note_batch_formed", || {
            plane.note_batch_formed(id, 2, 30)
        });
        zero_when(probe, "note_exec_begin", || plane.note_exec_begin(id, 0, 2));
        zero_when(probe, "note_done", || {
            plane.note_done(id, total_us, 2);
        });
        zero_when(probe, "note_culled", || plane.note_culled(id, 900, 500));
    };
    for id in 1..=16 {
        request(id, false);
    }
    for id in 100..110 {
        request(id, true);
    }
    assert_eq!(
        registry.counter(metrics::FLIGHT_DUMPS),
        0,
        "a trigger fired"
    );
}

fn queued(id: u64, model: usize, deadline: Option<Duration>) -> QueuedRequest {
    let (tx, _rx) = mpsc::channel();
    QueuedRequest {
        id,
        model,
        cloud: edgepc_geom::PointCloud::new(),
        enqueued: Instant::now(),
        deadline,
        tx,
    }
}

#[test]
fn push_reuses_the_deque_across_take_cycles() {
    let q = SubmitQueue::new(8);
    // Each cycle mixes models and an already expired request, so batch
    // formation both culls and skips, and runs both partitions.
    let cycle = |base: u64, probe: bool| {
        let reqs: Vec<QueuedRequest> = (0..6)
            .map(|i| {
                let deadline = (i == 2).then_some(Duration::ZERO);
                queued(base + i, (i % 2) as usize, deadline)
            })
            .collect();
        for req in reqs {
            zero_when(probe, "push_with", || {
                let _ = q.push_with(req, |_| {});
            });
        }
        while q.depth() > 0 {
            let _ = q.take_batch(2);
        }
    };
    cycle(0, false);
    for c in 1..5 {
        cycle(100 * c, true);
    }
}

/// A deterministic `rows x cols` matrix with some exact zeros, so the
/// naive path's zero skip runs too.
fn matrix(rows: usize, cols: usize, seed: u32) -> Tensor2 {
    let data = (0..rows * cols)
        .map(|i| ((i as u32).wrapping_mul(2_654_435_761) ^ seed) % 7)
        .map(|v| v as f32 - 3.0)
        .collect();
    Tensor2::from_vec(data, rows, cols)
}

#[test]
fn fused_linear_allocates_nothing_on_any_path() {
    // naive: 4 x 8 x 8 sits under the blocked kernel's work gate.
    let (a_small, w_small) = (matrix(4, 8, 1), matrix(8, 8, 2));
    let mut out_small = vec![0.0f32; 4 * 8];
    // blocked and prepacked: 64 x 64 x 64 takes the blocked kernel.
    let (a, w) = (matrix(64, 64, 3), matrix(64, 64, 4));
    let packed = PackedPanels::pack(&w);
    let bias = vec![0.25f32; 64];
    let mut out = vec![0.0f32; 64 * 64];
    // resumed: 64 points x k = 8 SA rows, each resuming from its
    // neighbor's hoisted head row.
    let (points, c, k) = (64usize, 32usize, 8usize);
    let feats = matrix(points, c, 5);
    let idx: Vec<usize> = (0..points * k).map(|r| (r * 7 + 3) % points).collect();
    let rel: Vec<f32> = (0..3 * points * k).map(|i| (i % 5) as f32 * 0.25).collect();
    let w_tail = matrix(3, 64, 6);
    let start = matrix(points, 64, 7);
    let mut out_resumed = vec![0.0f32; points * k * 64];

    let mut paths = |probe: bool| {
        let resumed = RowSource::SaGroup {
            feats: feats.as_slice(),
            c,
            idx: &idx,
            rel: &rel,
            start: Some(start.as_slice()),
        };
        let (small, dense) = (
            RowSource::Dense(a_small.as_slice()),
            RowSource::Dense(a.as_slice()),
        );
        zero_when(probe, "naive", || {
            fused_linear(&small, 4, &w_small, None, None, true, &mut out_small);
        });
        zero_when(probe, "blocked", || {
            fused_linear(&dense, 64, &w, None, Some(&bias), true, &mut out);
        });
        zero_when(probe, "prepacked", || {
            fused_linear(&dense, 64, &w, Some(&packed), Some(&bias), false, &mut out);
        });
        let m = points * k;
        zero_when(probe, "resumed", || {
            fused_linear(
                &resumed,
                m,
                &w_tail,
                None,
                Some(&bias),
                true,
                &mut out_resumed,
            );
        });
    };
    solo(|| {
        // The warm-up fills the kernel's thread-local B-pack pool; every
        // later unpacked pass reuses its buffer.
        paths(false);
        paths(true);
        paths(true);
    });
}

#[test]
fn matmul_allocates_only_its_output() {
    let (a, w) = (matrix(64, 64, 8), matrix(64, 64, 9));
    solo(|| {
        let _ = a.matmul(&w);
        let (y, n) = counted(|| a.matmul(&w));
        let out_bytes = (y.rows() * y.cols() * std::mem::size_of::<f32>()) as u64;
        assert_eq!(n, (1, out_bytes));
    });
}

#[test]
fn executor_runs_a_six_op_plan_without_allocating() {
    // A graph that lowers to every step kind: an SA gather of 4 rows per
    // point (more rows than points, and 8 channels, so its linear hoists
    // into Hoist + a Resume that pools in its epilogue), an EdgeConv (two
    // dense Fused linears and a GatherMax), a standalone MaxPool of a
    // concat, Concat2 and Broadcast.
    let (points, c, k) = (16usize, 8usize, 4usize);
    let mut g = Graph::new("six_ops");
    let x = g.input(points, c);
    let rows = g.gather(points * k, points, GatherMode::SaGroup { c, k }, "sa");
    let h = g.linear(rows, &matrix(c + 3, 8, 10), &[0.5; 8], true);
    let pooled = g.max_pool(h, k);
    let (u, v) = (matrix(c, 8, 11), matrix(c, 8, 13));
    let edge = g.edge_conv(x, &u, &v, &[-0.5; 8], k, "edge");
    let both = g.concat2(pooled, edge);
    let global = g.max_pool(both, points);
    let wide = g.broadcast(global, points);
    g.set_output(wide);
    let plan = compile(&g);
    assert!(plan.gather_sites()[0].hoisted, "the SA linear hoists");

    let feats = matrix(points, c, 12);
    let idx: Vec<usize> = (0..points * k).map(|r| (r * 5 + 1) % points).collect();
    let rel: Vec<f32> = (0..3 * points * k).map(|i| (i % 3) as f32 - 1.0).collect();
    let tensors = [InTensor {
        data: feats.as_slice(),
        rows: points,
        cols: c,
    }];
    let gathers = [
        GatherIn {
            feats: feats.as_slice(),
            idx: &idx,
            rel: &rel,
        },
        GatherIn {
            feats: &[],
            idx: &idx,
            rel: &[],
        },
    ];
    let inputs = Inputs {
        tensors: &tensors,
        gathers: &gathers,
    };
    let mut exec = Executor::new();
    solo(|| {
        exec.run(&plan, &inputs);
        for _ in 0..3 {
            zero_when(true, "Executor::run", || exec.run(&plan, &inputs));
        }
    });
    assert_eq!(exec.output(&plan).len(), points * 16);
}

/// One warm compiled forward at one thread, the way a serving worker
/// runs it: under a request trace whose spans are dropped afterwards.
/// Returns the count of the last of three forwards, after checking the
/// second counted the same.
fn warm_forward(mut run: impl FnMut()) -> (u64, u64) {
    let registry = Arc::new(Registry::new());
    let mut forward = |id: u64| {
        let (_, n) = counted(|| edgepc_trace::with_trace(id, &mut run));
        registry.finish_trace(id, false);
        n
    };
    edgepc_trace::with_registry(Arc::clone(&registry), || {
        solo(|| {
            forward(1);
            let second = forward(2);
            let third = forward(3);
            assert_eq!(second, third, "a warm forward's count is deterministic");
            third
        })
    })
}

// The pinned counts below are item 14(b)'s baseline: lower them when a
// change moves a forward's buffers into `ExecState`.

#[test]
fn compiled_pointnetpp_forward_allocation_count() {
    let cloud = edgepc_data::bunny_with_points(256, 7);
    let config = PointNetPpConfig::tiny(4, PipelineStrategy::edgepc_pointnetpp(2, 16));
    let model = PointNetPpSeg::new(&config, 4);
    let plan = CompiledPointNetPp::compile(&model, cloud.len());
    let mut state = ExecState::new();
    let n = warm_forward(|| {
        let _ = plan.run(&cloud, &mut state);
    });
    assert_eq!(n, (589, 166_130), "(allocations, bytes)");
}

#[test]
fn compiled_dgcnn_forward_allocation_count() {
    let cloud = edgepc_data::bunny_with_points(1024, 7);
    let config = DgcnnConfig::tiny(PipelineStrategy::edgepc_dgcnn(3, 32));
    let model = DgcnnClassifier::new(&config, 16);
    let plan = CompiledDgcnn::classifier(&model, cloud.len());
    let mut state = ExecState::new();
    let n = warm_forward(|| {
        let _ = plan.run(&cloud, &mut state);
    });
    assert_eq!(n, (2_143, 1_044_926), "(allocations, bytes)");
}

#[test]
fn warm_one_request_batch_allocation_count() {
    // The forward pinned above (PointNet++ tiny, 256 points), served
    // through a worker's `run_batch` on a cached plan key.
    let registry = Arc::new(Registry::new());
    // A small flight ring, so the warm-up wraps it as steady-state
    // serving does.
    let cfg = FlightConfig {
        capacity: 64,
        shards: 2,
        tail_warmup: 0,
        ..FlightConfig::default()
    };
    let plane = TelemetryPlane::new(Arc::clone(&registry), cfg);
    let replicas = [ServeModel::build(&ModelSpec::pointnetpp_tiny(4))];
    let (mut plans, mut state) = (WorkerPlans::default(), ExecState::new());
    let outstanding = AtomicUsize::new(0);
    let cloud = edgepc_data::bunny_with_points(256, 7);
    let mut serve = |id: u64, age: Duration| {
        let (tx, rx) = mpsc::channel();
        let enqueued = Instant::now().checked_sub(age).unwrap_or_else(Instant::now);
        let batch = vec![QueuedRequest {
            id,
            model: 0,
            cloud: cloud.clone(),
            enqueued,
            deadline: None,
            tx,
        }];
        outstanding.fetch_add(1, Ordering::Relaxed);
        let (_, n) = counted(|| {
            run_batch(
                0,
                &replicas,
                &mut plans,
                &mut state,
                &registry,
                &plane,
                &outstanding,
                batch,
            );
        });
        assert!(matches!(rx.recv(), Ok(Ok(_))), "request {id} served");
        n
    };
    let n = edgepc_trace::with_registry(Arc::clone(&registry), || {
        solo(|| {
            // A request that waited 10 s sets the tail sampler's threshold
            // far above every later one, so their span trees are dropped,
            // as a fast request's are in steady state.
            serve(1, Duration::from_secs(10));
            for id in 2..40 {
                serve(id, Duration::ZERO);
            }
            let second = serve(40, Duration::ZERO);
            let third = serve(41, Duration::ZERO);
            assert_eq!(second, third, "a warm batch's count is deterministic");
            third
        })
    });
    // The forward (589, 166 130 B), the `serve.batch` and `serve.exec`
    // spans' names and kinds (4, 31 B) and the response channel's first
    // block (1, 2 736 B).
    assert_eq!(n, (594, 168_897), "(allocations, bytes)");
}
