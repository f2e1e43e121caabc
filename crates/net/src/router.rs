//! The shard router: placement policies, failover, and hedged retries
//! over N deterministic [`Engine`] shards.
//!
//! Two placement policies:
//!
//! * **least-loaded** — rank eligible shards by
//!   [`Engine::load`] (admitted-but-unresolved requests, read from an
//!   atomic, no locks) and pick the smallest, lowest index breaking ties.
//! * **tenant hash** — consistent hashing: each shard owns 16 virtual
//!   nodes on a `u64` ring; a tenant maps to the first vnode at or after
//!   its hash. A tenant is sticky to its shard, and removing a shard
//!   reassigns only the tenants that lived on its vnodes.
//!
//! Per-model **replica groups** restrict which shards a model's requests
//! may land on. Every shard still builds every model replica (so model
//! indices agree everywhere); the group is purely a routing constraint.
//!
//! **Failover**: if the preferred shard refuses (queue full / shutting
//! down), the router walks the remaining candidates in preference order.
//! A shard that reports `ShuttingDown` is marked unhealthy and skipped
//! from then on. When every candidate refuses, the request is shed with
//! a typed error — the router degrades by shedding, never by blocking.
//!
//! **Hedged retries**: with hedging configured, [`Router::settle`] polls
//! the primary ticket for the deadline-risk threshold; if it is still
//! unresolved, the request is re-submitted to the next-least-loaded
//! eligible shard and the first completion wins. Shards build identical
//! deterministic replicas, so the winner's logits are bit-identical to
//! what the loser would have produced — hedging trades duplicate work
//! for tail latency, never for a different answer.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use edgepc_geom::guard::{ranked_with, Lock};
use edgepc_geom::PointCloud;
use edgepc_serve::{Engine, EngineConfig, InferenceOutput, ModelSpec, Request, ServeError, Ticket};
use edgepc_trace::{next_trace_id, span_in, Registry};

use crate::metrics;

/// How the router picks a shard for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Smallest [`Engine::load`] wins; lowest index breaks ties.
    LeastLoaded,
    /// Consistent hash of the tenant id (per-tenant sticky).
    TenantHash,
}

impl RoutePolicy {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            RoutePolicy::LeastLoaded => "least_loaded",
            RoutePolicy::TenantHash => "tenant_hash",
        }
    }
}

/// Hedged-retry tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Deadline-risk threshold: how long (measured from submission) the
    /// primary ticket may stay unresolved before a hedge is launched.
    pub after: Duration,
    /// Poll slice used while racing the primary against the hedge.
    pub poll: Duration,
}

impl HedgeConfig {
    /// Hedge after `after`, with a default 200 µs race poll.
    pub fn after(after: Duration) -> Self {
        HedgeConfig {
            after,
            poll: Duration::from_micros(200),
        }
    }
}

/// A routed, in-flight request: the engine ticket plus what a hedge
/// re-submission needs.
#[derive(Debug)]
pub struct RouterTicket {
    model: usize,
    tenant: u64,
    deadline: Option<Duration>,
    /// Clone of the input, kept only when hedging is enabled.
    spare: Option<PointCloud>,
    shard: usize,
    ticket: Ticket,
    submitted: Instant,
}

impl RouterTicket {
    /// The engine-assigned id, which is also the request's trace id.
    pub fn trace_id(&self) -> u64 {
        self.ticket.id()
    }

    /// The shard the primary submission landed on.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

/// A resolved request, annotated with where (and how) it resolved.
#[derive(Debug, Clone)]
pub struct RoutedOutput {
    /// The shard's output.
    pub output: InferenceOutput,
    /// Shard that produced it.
    pub shard: usize,
    /// Whether a hedged retry (not the primary) won.
    pub hedged: bool,
}

struct RouterState {
    healthy: Vec<bool>,
}

/// A router over N engine shards. See the module docs for the policies.
pub struct Router {
    shards: Vec<Engine>,
    specs: Vec<ModelSpec>,
    /// model index -> shard indices eligible to serve it.
    groups: Vec<Vec<usize>>,
    /// Consistent-hash ring: (vnode hash, shard), sorted by hash.
    ring: Vec<(u64, usize)>,
    policy: RoutePolicy,
    hedge: Option<HedgeConfig>,
    registry: Arc<Registry>,
    state: Mutex<RouterState>,
}

const VNODES_PER_SHARD: u64 = 16;

/// splitmix64 finalizer: a fixed, process-independent mix so ring
/// placement (and therefore tenant stickiness) is reproducible.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Router {
    /// Builds one engine per config, all serving the same model list, and
    /// routes every model to every shard. Spans and metrics go to the
    /// trace registry current on the calling thread (like
    /// [`Engine::new`]); the engines inherit the same registry, so one
    /// snapshot covers the router and its shards.
    ///
    /// # Panics
    ///
    /// Panics if `shard_cfgs` or `specs` is empty (same contract as
    /// [`Engine::new`]).
    pub fn new(
        shard_cfgs: Vec<EngineConfig>,
        specs: Vec<ModelSpec>,
        policy: RoutePolicy,
        hedge: Option<HedgeConfig>,
    ) -> Router {
        assert!(!shard_cfgs.is_empty(), "need at least one shard");
        assert!(!specs.is_empty(), "need at least one model spec");
        let registry = edgepc_trace::current_registry();
        let _span = span_in(registry.clone(), "net.router_init", "net");
        let n = shard_cfgs.len();
        let shards: Vec<Engine> = shard_cfgs
            .into_iter()
            .map(|cfg| Engine::new(cfg, specs.clone()))
            .collect();
        let groups = vec![(0..n).collect::<Vec<usize>>(); specs.len()];
        let mut ring = Vec::with_capacity(n * VNODES_PER_SHARD as usize);
        for shard in 0..n {
            for v in 0..VNODES_PER_SHARD {
                ring.push((mix64((shard as u64) << 32 | v), shard));
            }
        }
        ring.sort_unstable();
        Router {
            shards,
            specs,
            groups,
            ring,
            policy,
            hedge,
            registry,
            state: Mutex::new(RouterState {
                healthy: vec![true; n],
            }),
        }
    }

    /// Replaces the per-model replica groups: `groups[m]` lists the shard
    /// indices eligible to serve model `m`. Indices out of range and
    /// empty groups are rejected.
    pub fn with_groups(mut self, groups: Vec<Vec<usize>>) -> Router {
        assert_eq!(groups.len(), self.specs.len(), "one group per model");
        for g in &groups {
            assert!(!g.is_empty(), "replica groups cannot be empty");
            assert!(g.iter().all(|&s| s < self.shards.len()), "shard index");
        }
        self.groups = groups;
        self
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of models every shard serves.
    pub fn models(&self) -> usize {
        self.specs.len()
    }

    /// Direct access to shard `i`'s engine (tests, chaos drivers).
    pub fn shard_engine(&self, i: usize) -> Option<&Engine> {
        self.shards.get(i)
    }

    /// The registry the router (and its shards) publish into.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Current per-shard health (false = marked down after a
    /// `ShuttingDown` refusal).
    pub fn healthy(&self) -> Vec<bool> {
        ranked_with(Lock::NetRouter, || {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        })
        .healthy
        .clone()
    }

    fn mark_shard_down(&self, shard: usize) {
        let mut state = ranked_with(Lock::NetRouter, || {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        });
        if let Some(h) = state.healthy.get_mut(shard) {
            *h = false;
        }
    }

    /// Candidate shards for (`model`, `tenant`) in preference order:
    /// primary first, then failover order. Empty only for unknown models.
    fn plan(&self, model: usize, tenant: u64) -> Vec<usize> {
        let Some(group) = self.groups.get(model) else {
            return Vec::new();
        };
        let healthy = self.healthy();
        let mut candidates: Vec<usize> = group
            .iter()
            .copied()
            .filter(|&s| healthy.get(s).copied().unwrap_or(false))
            .collect();
        if candidates.is_empty() {
            // Everything marked down: try the whole group anyway rather
            // than refusing outright — a recovered shard re-admits here.
            candidates = group.clone();
        }
        match self.policy {
            RoutePolicy::LeastLoaded => {
                candidates.sort_by_key(|&s| {
                    (
                        self.shards.get(s).map(Engine::load).unwrap_or(usize::MAX),
                        s,
                    )
                });
            }
            RoutePolicy::TenantHash => {
                // Walk the ring clockwise from the tenant's hash; the
                // first eligible shard met is the primary, later ones
                // form the failover order.
                let h = mix64(tenant);
                let start = self.ring.partition_point(|&(vh, _)| vh < h);
                let mut ordered = Vec::with_capacity(candidates.len());
                for i in 0..self.ring.len() {
                    let (_, shard) = self.ring[(start + i) % self.ring.len()];
                    if candidates.contains(&shard) && !ordered.contains(&shard) {
                        ordered.push(shard);
                        if ordered.len() == candidates.len() {
                            break;
                        }
                    }
                }
                candidates = ordered;
            }
        }
        candidates
    }

    /// The shard a request for (`model`, `tenant`) would land on right
    /// now, before failover. `None` for unknown models.
    pub fn route_for(&self, model: usize, tenant: u64) -> Option<usize> {
        self.plan(model, tenant).first().copied()
    }

    /// Routes and submits a request. Walks the candidate shards in
    /// preference order; refusals fail over ([`metrics::FAILOVERS`]), a
    /// `ShuttingDown` shard is marked unhealthy, and if every candidate
    /// refuses the request is shed with the last refusal.
    pub fn submit(
        &self,
        model: usize,
        tenant: u64,
        cloud: PointCloud,
        deadline: Option<Duration>,
    ) -> Result<RouterTicket, ServeError> {
        let mut span = span_in(self.registry.clone(), "net.route", "net");
        let routed = self.route(model, tenant, cloud, deadline);
        match &routed {
            Ok(rt) => span.set_trace(rt.trace_id()),
            Err(_) => {
                // Every shard closed the trace of its own refusal; this
                // span belongs to none of them, so it gets one of its own
                // that is already closed: counted, not stored.
                let refused = next_trace_id();
                span.set_trace(refused);
                self.registry.finish_trace(refused, false);
            }
        }
        routed
    }

    fn route(
        &self,
        model: usize,
        tenant: u64,
        cloud: PointCloud,
        deadline: Option<Duration>,
    ) -> Result<RouterTicket, ServeError> {
        self.registry.incr(metrics::REQUESTS, 1);
        let plan = self.plan(model, tenant);
        if plan.is_empty() {
            return Err(ServeError::UnknownModel {
                index: model,
                models: self.specs.len(),
            });
        }
        let submitted = Instant::now();
        let mut last_err = ServeError::ShuttingDown;
        for (attempt, &shard) in plan.iter().enumerate() {
            if attempt > 0 {
                self.registry.incr(metrics::FAILOVERS, 1);
            }
            match self.submit_to_shard(shard, model, cloud.clone(), deadline) {
                Ok(ticket) => {
                    return Ok(RouterTicket {
                        model,
                        tenant,
                        deadline,
                        spare: self.hedge.map(|_| cloud),
                        shard,
                        ticket,
                        submitted,
                    });
                }
                // The request itself is at fault and every shard holds
                // the same specs: no failover.
                Err(
                    err @ (ServeError::TooFewPoints { .. }
                    | ServeError::UnknownModel { .. }
                    | ServeError::NonFiniteCloud),
                ) => return Err(err),
                Err(err) => {
                    if matches!(err, ServeError::ShuttingDown) {
                        self.mark_shard_down(shard);
                    }
                    last_err = err;
                }
            }
        }
        if matches!(last_err, ServeError::QueueFull { .. }) {
            self.registry.incr(metrics::SHED, 1);
        }
        Err(last_err)
    }

    fn submit_to_shard(
        &self,
        shard: usize,
        model: usize,
        cloud: PointCloud,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let engine = self.shards.get(shard).ok_or(ServeError::ShuttingDown)?;
        engine.submit(Request {
            model,
            cloud,
            deadline,
        })
    }

    /// Waits for a routed request to resolve. Without hedging this is a
    /// plain wait on the primary ticket. With hedging, the primary gets
    /// [`HedgeConfig::after`] to resolve; past that the request is
    /// re-submitted to the next preferred shard (skipping the primary)
    /// and the first **successful** completion wins — errors on one leg
    /// wait out the other leg before surfacing.
    pub fn settle(&self, rt: RouterTicket) -> Result<RoutedOutput, ServeError> {
        let mut span = span_in(self.registry.clone(), "net.settle", "net");
        span.set_trace(rt.ticket.id());
        let RouterTicket {
            model,
            tenant,
            deadline,
            spare,
            shard,
            ticket,
            submitted,
        } = rt;
        let hedge_cfg = self.hedge;
        let resolved: Result<RoutedOutput, ServeError> = 'resolve: {
            let Some(cfg) = hedge_cfg else {
                break 'resolve ticket.wait().map(|output| RoutedOutput {
                    output,
                    shard,
                    hedged: false,
                });
            };
            // The risk threshold counts from submission, not from this
            // call: under pipelining a ticket may have burned its whole
            // budget queued in the shard before its settle turn arrives.
            let budget = cfg.after.saturating_sub(submitted.elapsed());
            if let Some(result) = ticket.poll(budget) {
                break 'resolve result.map(|output| RoutedOutput {
                    output,
                    shard,
                    hedged: false,
                });
            }
            // Primary is past the risk threshold: hedge to the next
            // preferred shard, racing the two tickets.
            let backup = self
                .plan(model, tenant)
                .into_iter()
                .find(|&s| s != shard)
                .and_then(|s| {
                    let cloud = spare?;
                    let ticket = self.submit_to_shard(s, model, cloud, deadline).ok()?;
                    self.registry.incr(metrics::HEDGES, 1);
                    Some((s, ticket))
                });
            let Some((hedge_shard, hedge_ticket)) = backup else {
                break 'resolve ticket.wait().map(|output| RoutedOutput {
                    output,
                    shard,
                    hedged: false,
                });
            };
            let mut primary_err: Option<ServeError> = None;
            let mut hedge_err: Option<ServeError> = None;
            loop {
                if primary_err.is_none() {
                    match ticket.poll(cfg.poll) {
                        Some(Ok(output)) => {
                            break 'resolve Ok(RoutedOutput {
                                output,
                                shard,
                                hedged: false,
                            });
                        }
                        Some(Err(err)) => primary_err = Some(err),
                        None => {}
                    }
                }
                if hedge_err.is_none() {
                    match hedge_ticket.poll(cfg.poll) {
                        Some(Ok(output)) => {
                            self.registry.incr(metrics::HEDGE_WINS, 1);
                            break 'resolve Ok(RoutedOutput {
                                output,
                                shard: hedge_shard,
                                hedged: true,
                            });
                        }
                        Some(Err(err)) => hedge_err = Some(err),
                        None => {}
                    }
                }
                if let (Some(p), Some(_h)) = (&primary_err, &hedge_err) {
                    // Both legs failed; the primary's error names the shard
                    // the policy actually picked.
                    break 'resolve Err(p.clone());
                }
            }
        };
        if let Ok(out) = &resolved {
            self.registry.incr(metrics::COMPLETED, 1);
            self.registry.observe_us_tagged(
                metrics::E2E_US,
                submitted.elapsed().as_micros() as u64,
                out.output.request_id,
            );
        }
        resolved
    }

    /// Graceful shutdown of every shard (drain queues, join workers).
    pub fn shutdown(&self) {
        for engine in &self.shards {
            engine.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgepc_data::bunny_with_points;

    fn tiny_cfgs(n: usize) -> Vec<EngineConfig> {
        (0..n).map(|_| EngineConfig::new(1)).collect()
    }

    fn specs() -> Vec<ModelSpec> {
        vec![ModelSpec::pointnetpp_tiny(4)]
    }

    #[test]
    fn least_loaded_submits_and_settles() {
        let router = Router::new(tiny_cfgs(2), specs(), RoutePolicy::LeastLoaded, None);
        let cloud = bunny_with_points(64, 1);
        let rt = router.submit(0, 7, cloud, None).expect("admitted");
        let out = router.settle(rt).expect("resolved");
        assert!(!out.hedged);
        assert!(out.shard < 2);
        router.shutdown();
    }

    #[test]
    fn tenant_hash_is_sticky() {
        let router = Router::new(tiny_cfgs(3), specs(), RoutePolicy::TenantHash, None);
        for tenant in 0..32u64 {
            let first = router.route_for(0, tenant).expect("routed");
            for _ in 0..4 {
                assert_eq!(router.route_for(0, tenant), Some(first));
            }
        }
        // Tenants spread across shards rather than piling on one.
        let mut seen = [false; 3];
        for tenant in 0..64u64 {
            if let Some(s) = router.route_for(0, tenant) {
                seen[s] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all shards own some tenants");
        router.shutdown();
    }

    #[test]
    fn replica_groups_constrain_placement() {
        let specs = vec![ModelSpec::pointnetpp_tiny(4), ModelSpec::pointnetpp_tiny(8)];
        let router = Router::new(tiny_cfgs(3), specs, RoutePolicy::LeastLoaded, None)
            .with_groups(vec![vec![0, 1], vec![2]]);
        for tenant in 0..16 {
            let s = router.route_for(0, tenant).expect("model 0 routed");
            assert!(s <= 1, "model 0 stays in its group");
            assert_eq!(router.route_for(1, tenant), Some(2));
        }
        let rt = router
            .submit(1, 3, bunny_with_points(64, 2), None)
            .expect("admitted");
        let out = router.settle(rt).expect("resolved");
        assert_eq!(out.shard, 2);
        router.shutdown();
    }

    #[test]
    fn unknown_model_is_typed() {
        let router = Router::new(tiny_cfgs(1), specs(), RoutePolicy::LeastLoaded, None);
        let err = router
            .submit(9, 0, bunny_with_points(64, 3), None)
            .expect_err("unknown model");
        assert!(matches!(err, ServeError::UnknownModel { index: 9, .. }));
        router.shutdown();
    }

    #[test]
    fn full_shards_shed_with_failover_first() {
        // Capacity-zero shards refuse everything; the router must fail
        // over through both and then shed, not hang.
        let registry = Arc::new(edgepc_trace::Registry::new());
        edgepc_trace::with_registry(registry.clone(), || {
            let cfgs = (0..2)
                .map(|_| {
                    let mut c = EngineConfig::new(1);
                    c.queue_capacity = 0;
                    c
                })
                .collect();
            let router = Router::new(cfgs, specs(), RoutePolicy::LeastLoaded, None);
            let held = registry.span_count();
            let err = router
                .submit(0, 0, bunny_with_points(64, 4), None)
                .expect_err("shed");
            assert!(matches!(err, ServeError::QueueFull { .. }));
            assert_eq!(registry.span_count(), held, "a refusal stores no span");
            assert_eq!(registry.counter(crate::metrics::SHED), 1);
            assert_eq!(registry.counter(crate::metrics::FAILOVERS), 1);
            router.shutdown();
        });
    }
}
