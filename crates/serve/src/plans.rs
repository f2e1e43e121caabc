//! Shared cache of compiled per-model inference plans.
//!
//! Plans are compiled once per `(model index, cloud size)` pair and shared
//! by every worker through an `Arc` — compilation snapshots the replica's
//! weights into the plan, and replicas are deterministic, so any worker's
//! replica compiles the identical plan. The cache lock
//! (`Lock::ServePlanCache`) guards only the lookup vector; compilation —
//! graph lowering, fusion, weight packing — always happens *outside* it,
//! with a double-checked insert so a racing worker's duplicate plan is
//! simply dropped.
//!
//! The cache is bounded at [`CAPACITY`] plans: once full, unseen
//! `(model, size)` pairs fall back to the eager replica forward
//! (bit-identical output, just slower), so a chaos workload cycling
//! through cloud sizes cannot grow memory without bound.

use std::sync::{Arc, Mutex, PoisonError};

use edgepc_geom::guard::{ranked_with, Lock};
use edgepc_geom::PointCloud;
use edgepc_models::{CompiledDgcnn, CompiledPointNetPp, ExecState};
use edgepc_nn::Tensor2;

use crate::model::ServeModel;

/// A compiled replica: the model's forward path lowered to `edgepc-ir`
/// plans for one fixed cloud size. Read-only after construction.
pub(crate) enum CompiledServeModel {
    PointNetPp(CompiledPointNetPp),
    Dgcnn(CompiledDgcnn),
}

impl CompiledServeModel {
    fn build(replica: &ServeModel, n_points: usize) -> CompiledServeModel {
        match replica {
            ServeModel::PointNetPp(m) => {
                CompiledServeModel::PointNetPp(CompiledPointNetPp::compile(m, n_points))
            }
            ServeModel::DgcnnCls(m) => {
                CompiledServeModel::Dgcnn(CompiledDgcnn::classifier(m, n_points))
            }
            ServeModel::DgcnnSeg(m) => {
                CompiledServeModel::Dgcnn(CompiledDgcnn::segmenter(m, n_points))
            }
        }
    }

    /// Runs one compiled forward pass over the worker's arena. Logits are
    /// bit-identical to the eager replica at any intra-batch thread
    /// budget.
    pub(crate) fn infer(&self, cloud: &PointCloud, state: &mut ExecState) -> Tensor2 {
        match self {
            CompiledServeModel::PointNetPp(p) => p.run(cloud, state).0,
            CompiledServeModel::Dgcnn(p) => p.run(cloud, state).0,
        }
    }
}

/// Plans an engine caches: compile-once memory traded for steady-state
/// latency on the first eight `(model, size)` pairs seen.
const CAPACITY: usize = 8;

/// Cache key: `(model index, cloud size)`.
type PlanKey = (usize, usize);

/// Bounded map from [`PlanKey`] to a shared compiled plan.
pub(crate) struct PlanCache {
    capacity: usize,
    /// Small linear-scan vec: entries are few (bounded by `capacity`) and
    /// scanned without hashing, which also keeps iteration deterministic.
    inner: Mutex<Vec<(PlanKey, Arc<CompiledServeModel>)>>,
}

impl Default for PlanCache {
    /// The engine's cache, bounded at [`CAPACITY`].
    fn default() -> PlanCache {
        PlanCache::new(CAPACITY)
    }
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans.
    pub(crate) fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            inner: Mutex::new(Vec::new()),
        }
    }

    /// Returns the shared plan for `(model, n_points)`, compiling it from
    /// `replica` on first use. Returns `None` when the cache is full and
    /// the key is absent — the caller then runs the eager replica, which
    /// produces the same logits.
    pub(crate) fn get_or_compile(
        &self,
        model: usize,
        n_points: usize,
        replica: &ServeModel,
    ) -> Option<Arc<CompiledServeModel>> {
        let key = (model, n_points);
        {
            let inner = ranked_with(Lock::ServePlanCache, || {
                self.inner.lock().unwrap_or_else(PoisonError::into_inner)
            });
            if let Some((_, plan)) = inner.iter().find(|(k, _)| *k == key) {
                return Some(Arc::clone(plan));
            }
            if inner.len() >= self.capacity {
                return None;
            }
        }
        // Compile outside the lock: lowering and weight packing dominate
        // the lookup by orders of magnitude, and other workers must keep
        // serving (eagerly, if need be) while this plan builds.
        let plan = Arc::new(CompiledServeModel::build(replica, n_points));
        let mut inner = ranked_with(Lock::ServePlanCache, || {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        });
        // Double-checked: a racing worker may have inserted the same key
        // while we compiled; keep the first plan so all workers share one.
        if let Some((_, existing)) = inner.iter().find(|(k, _)| *k == key) {
            return Some(Arc::clone(existing));
        }
        if inner.len() >= self.capacity {
            return None;
        }
        inner.push((key, Arc::clone(&plan)));
        Some(plan)
    }

    /// Plans currently cached.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        let inner = ranked_with(Lock::ServePlanCache, || {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        });
        inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelSpec;
    use edgepc_data::bunny_with_points;

    #[test]
    fn cache_shares_one_plan_per_key() {
        let cache = PlanCache::new(4);
        let replica = ServeModel::build(&ModelSpec::pointnetpp_tiny(4));
        let a = cache.get_or_compile(0, 256, &replica);
        let b = cache.get_or_compile(0, 256, &replica);
        let (a, b) = match (a, b) {
            (Some(a), Some(b)) => (a, b),
            _ => panic!("both lookups must hit"),
        };
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the plan");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn full_cache_falls_back_to_eager() {
        let cache = PlanCache::new(1);
        let replica = ServeModel::build(&ModelSpec::pointnetpp_tiny(4));
        assert!(cache.get_or_compile(0, 256, &replica).is_some());
        assert!(cache.get_or_compile(0, 128, &replica).is_none());
        assert_eq!(cache.len(), 1);
        // The cached key still hits.
        assert!(cache.get_or_compile(0, 256, &replica).is_some());
    }

    #[test]
    fn compiled_plan_matches_eager_replica_bitwise() {
        let cloud = bunny_with_points(256, 7);
        for spec in [ModelSpec::pointnetpp_tiny(4), ModelSpec::dgcnn_cls_tiny(5)] {
            let mut replica = ServeModel::build(&spec);
            let cache = PlanCache::new(2);
            let plan = match cache.get_or_compile(0, cloud.len(), &replica) {
                Some(plan) => plan,
                None => panic!("cache has room"),
            };
            let mut state = ExecState::new();
            let compiled = plan.infer(&cloud, &mut state);
            let eager = replica.infer(&cloud);
            assert_eq!(compiled.as_slice(), eager.as_slice());
        }
    }
}
