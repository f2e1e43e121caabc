//! The inference engine: bounded queue, worker pool, dynamic batcher.
//!
//! ```text
//!            submit()            take_batch()
//!   callers ---------> [queue] <-------------- worker 0 (replicas + plans + arena)
//!     |  shed (full)      |                     worker 1 (replicas + plans + arena)
//!     +<------------------+  expired -> cancel  ...
//! ```
//!
//! Lifecycle guarantees:
//! * `submit` never blocks: it returns a [`Ticket`] or a typed rejection.
//! * every accepted request resolves exactly once — output, cancellation,
//!   or [`ServeError::WorkerLost`] if the engine dies first.
//! * `shutdown` refuses new work, drains the queue, and joins the workers
//!   ("graceful drain"); dropping the engine does the same.
//! * outputs are worker-count independent: replicas are deterministic and
//!   forwards are pure, so scheduling affects latency, never results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use edgepc_geom::guard::{ranked_with, Lock};
use edgepc_geom::{required, Point3, PointCloud};
use edgepc_models::ExecState;
use edgepc_trace::{next_trace_id, span_in, with_registry, with_trace, Registry};

use crate::config::EngineConfig;
use crate::error::ServeError;
use crate::flight::TelemetryPlane;
use crate::metrics;
use crate::model::{ModelSpec, ServeModel};
use crate::plans::WorkerPlans;
use crate::queue::{Pop, SubmitQueue};
use crate::request::{InferenceOutput, QueuedRequest, Request, Ticket};

/// A running inference engine. See the module docs for the lifecycle.
pub struct Engine {
    config: EngineConfig,
    /// Each spec's [`ModelSpec::min_points`], read at admission.
    floors: Vec<usize>,
    queue: Arc<SubmitQueue>,
    registry: Arc<Registry>,
    plane: Arc<TelemetryPlane>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Admitted-but-unresolved requests (queued + in flight). Kept as a
    /// dedicated atomic so shard routers can rank engines by load without
    /// touching the queue lock or the trace registry.
    outstanding: Arc<AtomicUsize>,
}

impl Engine {
    /// Starts the engine: spawns `config.workers` threads, each building
    /// its own replica of every spec. Spans and metrics go to the trace
    /// registry current on the *calling* thread (global by default, a
    /// local capture under `with_local`/`with_registry`).
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `max_batch` is zero, `specs` is empty, or a
    /// worker thread cannot be spawned.
    pub fn new(config: EngineConfig, specs: Vec<ModelSpec>) -> Engine {
        assert!(config.workers >= 1, "need at least one worker");
        assert!(config.max_batch >= 1, "max_batch must be positive");
        assert!(!specs.is_empty(), "need at least one model spec");
        let registry = edgepc_trace::current_registry();
        let _init_span = span_in(registry.clone(), "serve.engine_init", "serve");
        let floors = specs.iter().map(ModelSpec::min_points).collect();
        let specs = Arc::new(specs);
        let queue = Arc::new(SubmitQueue::new(config.queue_capacity));
        let plane = TelemetryPlane::new(Arc::clone(&registry), config.flight.clone());
        let outstanding = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let queue = Arc::clone(&queue);
            let registry = Arc::clone(&registry);
            let specs = Arc::clone(&specs);
            let plane = Arc::clone(&plane);
            let outstanding = Arc::clone(&outstanding);
            let cfg = config.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("serve-worker-{w}"))
                .spawn(move || {
                    worker_loop(w, &cfg, &specs, &queue, &registry, &plane, &outstanding)
                });
            handles.push(required(spawned.ok(), "spawn serve worker"));
        }
        Engine {
            config,
            floors,
            queue,
            registry,
            plane,
            workers: Mutex::new(handles),
            outstanding,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The registry this engine publishes spans and metrics into.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The engine's telemetry plane (flight recorder, triggers, sampler).
    pub(crate) fn plane(&self) -> Arc<TelemetryPlane> {
        Arc::clone(&self.plane)
    }

    /// Renders the flight recorder's current window — every retained
    /// telemetry event plus the span timelines of the trace ids it
    /// implicates — as a `flightrec.json` document (schema
    /// `edgepc-flightrec` v1). This is the same document the automatic
    /// triggers dump to `FlightConfig::dump_path`; `reason` is stamped
    /// into it (triggers use `deadline_miss_burst` / `shed_storm` /
    /// `guard_violation`, callers typically `manual`).
    pub fn flightrec_json(&self, reason: &str) -> String {
        self.plane.render(reason)
    }

    /// Submits a request. Returns a [`Ticket`] if admitted; rejects with
    /// [`ServeError::QueueFull`] (shedding — the caller is never blocked),
    /// [`ServeError::ShuttingDown`], [`ServeError::UnknownModel`],
    /// [`ServeError::TooFewPoints`] or [`ServeError::NonFiniteCloud`].
    ///
    /// The ticket's id doubles as the request's **trace id**: every span
    /// and telemetry event the request produces — enqueue, batch, exec,
    /// and the model-internal stages — carries it, so the full segment
    /// timeline is reconstructible from a capture or a flight-recorder
    /// dump.
    pub fn submit(&self, request: Request) -> Result<Ticket, ServeError> {
        let mut span = span_in(self.registry.clone(), "serve.enqueue", "serve");
        let id = next_trace_id();
        span.set_trace(id);
        let admitted = self.admit(id, request);
        if admitted.is_err() {
            // No worker will ever see this request, so its trace is
            // closed here; the flight ring keeps its shed event.
            self.registry.finish_trace(id, false);
        }
        admitted
    }

    fn admit(&self, id: u64, request: Request) -> Result<Ticket, ServeError> {
        let Some(&min) = self.floors.get(request.model) else {
            return Err(ServeError::UnknownModel {
                index: request.model,
                models: self.floors.len(),
            });
        };
        // The forward (and plan compilation) asserts the floor, and its
        // sampling, search and Morton grid assume finite distances; a
        // worker that trips either dies, so such clouds stop here.
        let points = request.cloud.len();
        if points < min {
            return Err(ServeError::TooFewPoints { points, min });
        }
        if !has_finite_geometry(&request.cloud) {
            return Err(ServeError::NonFiniteCloud);
        }
        let deadline_us = request.deadline.map(|d| d.as_micros() as u64).unwrap_or(0);
        let (tx, rx) = mpsc::channel();
        let queued = QueuedRequest {
            id,
            model: request.model,
            cloud: request.cloud,
            enqueued: Instant::now(),
            deadline: request.deadline,
            tx,
        };
        // Admission telemetry runs under the queue lock so the enqueued
        // event is ordered before any worker can pop (and possibly cull)
        // the request.
        let admitted = self.queue.push_with(queued, |depth| {
            self.outstanding.fetch_add(1, Ordering::Relaxed);
            self.registry.incr(metrics::SUBMITTED, 1);
            self.registry.add_gauge(metrics::QUEUE_DEPTH, 1.0);
            self.plane.note_enqueued(id, depth as u64, deadline_us);
        });
        match admitted {
            Ok(()) => Ok(Ticket { id, rx }),
            Err(err) => {
                if let ServeError::QueueFull { capacity } = err {
                    self.registry.incr(metrics::SHED, 1);
                    self.plane.note_shed(id, capacity as u64);
                }
                Err(err)
            }
        }
    }

    /// Requests queued right now (approximate under concurrency). Lock-free.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Admitted requests not yet resolved — queued plus in flight.
    /// Lock-free and approximate under concurrency; this is the signal a
    /// least-loaded shard router ranks engines by (queue depth alone goes
    /// to zero the moment a worker pops a batch, hiding a busy shard).
    pub fn load(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Graceful drain: refuses new submissions, lets the workers finish
    /// every queued request, and joins them. Idempotent — later calls (and
    /// the `Drop` impl) are no-ops.
    pub fn shutdown(&self) {
        let _span = span_in(self.registry.clone(), "serve.shutdown", "serve");
        self.queue.begin_shutdown();
        let handles = {
            let mut workers = ranked_with(Lock::ServeWorkers, || {
                self.workers.lock().unwrap_or_else(PoisonError::into_inner)
            });
            std::mem::take(&mut **workers)
        };
        for handle in handles {
            // A worker that panicked already poisoned nothing we rely on;
            // its queued requests resolve as WorkerLost via channel drop.
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// `true` when every coordinate is finite and so is the bounding box's
/// squared diagonal. No coordinate difference exceeds the box's extent,
/// so every squared distance between the cloud's points is then finite.
fn has_finite_geometry(cloud: &PointCloud) -> bool {
    cloud.iter().all(Point3::is_finite)
        && cloud.try_bounding_box().is_some_and(|b| {
            let e = b.extent();
            e.dot(e).is_finite()
        })
}

fn worker_loop(
    worker: usize,
    cfg: &EngineConfig,
    specs: &[ModelSpec],
    queue: &SubmitQueue,
    registry: &Arc<Registry>,
    plane: &Arc<TelemetryPlane>,
    outstanding: &AtomicUsize,
) {
    // Install the engine's registry as this thread's current one so the
    // model-internal spans (structurize/sample/neighbor/fc) land beside
    // the serve.* metrics, and scope the configured intra-batch worker
    // budget to this thread (0 leaves the ambient resolution in place).
    with_registry(Arc::clone(registry), || {
        edgepc_par::with_threads(cfg.intra_threads, || {
            worker_body(worker, cfg, specs, queue, registry, plane, outstanding);
        });
    });
}

fn worker_body(
    worker: usize,
    cfg: &EngineConfig,
    specs: &[ModelSpec],
    queue: &SubmitQueue,
    registry: &Arc<Registry>,
    plane: &TelemetryPlane,
    outstanding: &AtomicUsize,
) {
    let replicas: Vec<ServeModel> = specs.iter().map(ServeModel::build).collect();
    // This worker's compiled plans, and the executor arena they run in;
    // the arena grows to its steady-state capacity on the first batch of
    // the largest key and never after.
    let mut plans = WorkerPlans::default();
    let mut exec_state = ExecState::new();
    loop {
        match queue.take_batch(cfg.max_batch) {
            Pop::Shutdown => break,
            Pop::Work { batch, expired } => {
                let removed = (batch.len() + expired.len()) as f64;
                if removed > 0.0 {
                    registry.add_gauge(metrics::QUEUE_DEPTH, -removed);
                }
                for req in expired {
                    cancel_expired(registry, plane, outstanding, req);
                }
                if !batch.is_empty() {
                    // Chaos knob: a configured execution delay stalls this
                    // worker before the batch runs, simulating a slow shard.
                    if !cfg.exec_delay.is_zero() {
                        std::thread::sleep(cfg.exec_delay);
                    }
                    run_batch(
                        worker,
                        &replicas,
                        &mut plans,
                        &mut exec_state,
                        registry,
                        plane,
                        outstanding,
                        batch,
                    );
                }
            }
        }
    }
}

/// Answers a request culled on its deadline. Warm, it allocates one
/// block: the response channel's, on its first send.
fn cancel_expired(
    registry: &Registry,
    plane: &TelemetryPlane,
    outstanding: &AtomicUsize,
    req: QueuedRequest,
) {
    outstanding.fetch_sub(1, Ordering::Relaxed);
    registry.incr(metrics::EXPIRED, 1);
    let waited = req.enqueued.elapsed();
    let deadline = req.deadline.unwrap_or_default();
    plane.note_culled(
        req.id,
        waited.as_micros() as u64,
        deadline.as_micros() as u64,
    );
    registry.finish_trace(req.id, false);
    let _ = req
        .tx
        .send(Err(ServeError::DeadlineExpired { waited, deadline }));
}

/// Runs a formed batch, one compiled forward per live request. Warm, at
/// one thread, the batch allocates its `serve.batch` span's name and
/// kind, and each request its forward, its `serve.exec` span's name and
/// kind and its response channel's block (DESIGN.md §8 has the counts).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_batch(
    worker: usize,
    replicas: &[ServeModel],
    plans: &mut WorkerPlans,
    exec_state: &mut ExecState,
    registry: &Registry,
    plane: &TelemetryPlane,
    outstanding: &AtomicUsize,
    batch: Vec<QueuedRequest>,
) {
    let batch_size = batch.len();
    // The batch's span rides with its first request's trace; the other
    // members have their `BatchFormed` flight events.
    let mut span = edgepc_trace::span("serve.batch", "serve");
    span.set_trace(batch.first().map_or(0, |req| req.id));
    registry.observe_us(metrics::BATCH_SIZE, batch_size as u64);
    registry.add_gauge(metrics::IN_FLIGHT, batch_size as f64);
    for req in batch {
        plane.note_batch_formed(
            req.id,
            batch_size as u64,
            req.enqueued.elapsed().as_micros() as u64,
        );
        // Deadlines are re-checked at execution time: a request can expire
        // behind an earlier request in this batch.
        if req.is_expired(Instant::now()) {
            registry.add_gauge(metrics::IN_FLIGHT, -1.0);
            cancel_expired(registry, plane, outstanding, req);
            continue;
        }
        let queue_us = req.enqueued.elapsed().as_micros() as u64;
        registry.observe_us_tagged(metrics::QUEUE_WAIT_US, queue_us, req.id);
        let Some(replica) = replicas.get(req.model) else {
            // submit() validates indices; stay total regardless.
            registry.add_gauge(metrics::IN_FLIGHT, -1.0);
            outstanding.fetch_sub(1, Ordering::Relaxed);
            registry.finish_trace(req.id, false);
            let _ = req.tx.send(Err(ServeError::UnknownModel {
                index: req.model,
                models: replicas.len(),
            }));
            continue;
        };
        plane.note_exec_begin(req.id, worker as u64, batch_size as u64);
        // Ambient trace scope: the serve.exec span and every model-internal
        // span the forward opens inherit this request's trace id.
        let logits = with_trace(req.id, || {
            let _exec = edgepc_trace::span("serve.exec", "serve");
            plans.infer(req.model, replica, &req.cloud, exec_state)
        });
        let total_us = req.enqueued.elapsed().as_micros() as u64;
        registry.observe_us_tagged(metrics::LATENCY_US, total_us, req.id);
        registry.incr(metrics::COMPLETED, 1);
        registry.add_gauge(metrics::IN_FLIGHT, -1.0);
        outstanding.fetch_sub(1, Ordering::Relaxed);
        // Tail sampling: fast requests give up their span trees; the
        // aggregate metrics they already fed are unaffected.
        let keep = plane.note_done(req.id, total_us, batch_size as u64);
        registry.finish_trace(req.id, keep);
        let _ = req.tx.send(Ok(InferenceOutput {
            request_id: req.id,
            logits,
            queue_us,
            total_us,
            batch_size,
            worker,
        }));
    }
}
