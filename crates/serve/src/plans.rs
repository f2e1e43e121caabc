//! One worker's compiled inference plans.
//!
//! Every served forward runs a compiled plan. A plan is compiled from the
//! worker's own replica on the first request for its `(model index,
//! cloud size)` key; compilation snapshots the replica's weights, and
//! replicas are deterministic, so every worker compiles the identical
//! plan and no plan is shared across threads.
//!
//! The list keeps the first [`CAPACITY`] keys it sees. A request for any
//! other key compiles its plan, runs it, and drops it, so a workload
//! cycling through cloud sizes cannot grow a worker's memory without
//! bound. Compiling takes tens of microseconds, a small share of even
//! the smallest served forward (DESIGN.md §13 has the measurements).

use edgepc_geom::PointCloud;
use edgepc_models::{CompiledDgcnn, CompiledPointNetPp, ExecState};
use edgepc_nn::Tensor2;

use crate::model::ServeModel;

/// A compiled replica: the model's forward path lowered to `edgepc-ir`
/// plans for one fixed cloud size. Read-only after construction.
enum CompiledServeModel {
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
    /// bit-identical to the eager model at any intra-batch thread budget.
    fn infer(&self, cloud: &PointCloud, state: &mut ExecState) -> Tensor2 {
        match self {
            CompiledServeModel::PointNetPp(p) => p.run(cloud, state).0,
            CompiledServeModel::Dgcnn(p) => p.run(cloud, state).0,
        }
    }
}

/// Plans a worker keeps: compile-once memory traded for steady-state
/// latency on the first eight `(model, size)` keys it sees.
const CAPACITY: usize = 8;

/// Plan key: `(model index, cloud size)`.
type PlanKey = (usize, usize);

/// A worker's kept plans, in first-seen order. Few enough to scan without
/// hashing.
#[derive(Default)]
pub(crate) struct WorkerPlans {
    plans: Vec<(PlanKey, CompiledServeModel)>,
}

impl WorkerPlans {
    /// Runs `cloud` through the compiled plan of `replica` (model index
    /// `model`) for the cloud's size, compiling it on the key's first
    /// request. The plan is kept while fewer than [`CAPACITY`] are.
    ///
    /// # Panics
    ///
    /// Panics if the cloud is smaller than the model's
    /// [`min_points`](crate::ModelSpec::min_points).
    pub(crate) fn infer(
        &mut self,
        model: usize,
        replica: &ServeModel,
        cloud: &PointCloud,
        state: &mut ExecState,
    ) -> Tensor2 {
        let key = (model, cloud.len());
        if let Some((_, plan)) = self.plans.iter().find(|(k, _)| *k == key) {
            return plan.infer(cloud, state);
        }
        let plan = CompiledServeModel::build(replica, cloud.len());
        let logits = plan.infer(cloud, state);
        if self.plans.len() < CAPACITY {
            self.plans.push((key, plan));
        }
        logits
    }

    /// The kept keys, in first-seen order.
    #[cfg(test)]
    fn keys(&self) -> Vec<PlanKey> {
        self.plans.iter().map(|(k, _)| *k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{eager, ModelSpec};
    use edgepc_data::bunny_with_points;

    /// Sizes of `count` distinct keys of one model, all above its floor.
    fn sizes(count: usize) -> Vec<usize> {
        (0..count).map(|i| 64 + 8 * i).collect()
    }

    #[test]
    fn the_first_keys_stay_cached() {
        let replica = ServeModel::build(&ModelSpec::pointnetpp_tiny(4));
        let (mut plans, mut state) = (WorkerPlans::default(), ExecState::new());
        let sizes = sizes(CAPACITY);
        for &n in &sizes {
            let _ = plans.infer(0, &replica, &bunny_with_points(n, 1), &mut state);
        }
        // A second pass over the same keys hits and changes nothing.
        for &n in &sizes {
            let _ = plans.infer(0, &replica, &bunny_with_points(n, 2), &mut state);
        }
        let kept: Vec<PlanKey> = sizes.iter().map(|&n| (0, n)).collect();
        assert_eq!(plans.keys(), kept);
    }

    #[test]
    fn past_the_bound_a_request_is_served_compiled_and_the_list_stays() {
        let spec = ModelSpec::pointnetpp_tiny(4);
        let replica = ServeModel::build(&spec);
        let (mut plans, mut state) = (WorkerPlans::default(), ExecState::new());
        for n in sizes(CAPACITY) {
            let _ = plans.infer(0, &replica, &bunny_with_points(n, 1), &mut state);
        }
        let kept = plans.keys();
        let cloud = bunny_with_points(200, 3);
        let (logits, spans) =
            edgepc_trace::with_local(|| plans.infer(0, &replica, &cloud, &mut state));
        let names: Vec<String> = spans.into_iter().map(|s| s.name).collect();
        assert!(
            names.iter().any(|n| n == "pointnetpp.compiled"),
            "{names:?}"
        );
        assert!(
            !names.iter().any(|n| n == "pointnetpp.forward"),
            "{names:?}"
        );
        assert_eq!(plans.keys(), kept, "an uncached key is not kept");
        let oracle = eager(&mut ServeModel::build(&spec), &cloud);
        assert_eq!(logits.as_slice(), oracle.as_slice());
    }

    #[test]
    fn compiled_plan_matches_eager_bitwise() {
        let cloud = bunny_with_points(256, 7);
        for spec in [ModelSpec::pointnetpp_tiny(4), ModelSpec::dgcnn_cls_tiny(5)] {
            let replica = ServeModel::build(&spec);
            let (mut plans, mut state) = (WorkerPlans::default(), ExecState::new());
            let compiled = plans.infer(0, &replica, &cloud, &mut state);
            let cached = plans.infer(0, &replica, &cloud, &mut state);
            let oracle = eager(&mut ServeModel::build(&spec), &cloud);
            assert_eq!(compiled.as_slice(), oracle.as_slice());
            assert_eq!(cached.as_slice(), oracle.as_slice());
        }
    }
}
