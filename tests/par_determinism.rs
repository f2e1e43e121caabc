//! The `edgepc-par` determinism contract, end to end: full model
//! forwards — radix-sorted structurization, parallel neighbor search,
//! blocked matmuls, parallel grouping — must be bit-identical for every
//! thread budget, because chunk boundaries are fixed and results
//! recombine in chunk order regardless of worker count.

use edgepc::prelude::*;

fn bunny_cloud() -> PointCloud {
    // Large enough to drive the radix sort (>= 1024 points) and the
    // blocked matmul path through the tiny models' MLPs.
    edgepc_data::bunny_with_points(2048, 9)
}

/// Runs `f` under each thread budget and asserts the outputs match the
/// single-thread run bit for bit.
fn assert_thread_count_invariant<R: PartialEq + std::fmt::Debug>(
    label: &str,
    mut f: impl FnMut() -> R,
) {
    let solo = edgepc_par::with_threads(1, &mut f);
    for t in [2usize, 8] {
        let got = edgepc_par::with_threads(t, &mut f);
        assert_eq!(got, solo, "{label} diverged between 1 and {t} threads");
    }
}

#[test]
fn pointnetpp_forward_is_thread_count_invariant() {
    let cloud = bunny_cloud();
    let config = PointNetPpConfig::tiny(3, PipelineStrategy::edgepc_pointnetpp(2, 16));
    assert_thread_count_invariant("pointnetpp logits", || {
        // A fresh model per run: same seed, so replicas are identical and
        // any divergence must come from the parallel kernels.
        let mut m = PointNetPpSeg::new(&config, 3);
        let (logits, _) = m.forward(&cloud);
        logits.as_slice().to_vec()
    });
}

#[test]
fn pointnetpp_op_counts_are_thread_count_invariant() {
    let cloud = bunny_cloud();
    let config = PointNetPpConfig::tiny(3, PipelineStrategy::edgepc_pointnetpp(2, 16));
    assert_thread_count_invariant("pointnetpp stage ops", || {
        let mut m = PointNetPpSeg::new(&config, 3);
        let (_, records) = m.forward(&cloud);
        records
            .into_iter()
            .map(|r| (r.name, r.ops))
            .collect::<Vec<_>>()
    });
}

#[test]
fn dgcnn_forward_is_thread_count_invariant() {
    let cloud = bunny_cloud();
    let config = DgcnnConfig::tiny(PipelineStrategy::edgepc_dgcnn(3, 24));
    assert_thread_count_invariant("dgcnn logits", || {
        let mut m = DgcnnClassifier::new(&config, 3);
        let (logits, _) = m.forward(&cloud);
        logits.as_slice().to_vec()
    });
}

#[test]
fn feature_knn_is_thread_count_invariant() {
    // 1000 queries, so the last 32-query chunk holds 8 (two register
    // tiles) and the last candidate panel is full; every seventh row
    // repeats another, so distance ties cross chunk boundaries. The
    // selection forks from 256 points, so 2 and 8 threads split it.
    let (n, c) = (1000, 64);
    let mut state = 0x5eed_u64;
    let mut feats = edgepc_nn::Tensor2::from_vec(
        (0..n * c)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as f32) / (1 << 24) as f32 - 0.5
            })
            .collect(),
        n,
        c,
    );
    for r in (0..n).step_by(7) {
        let src = feats.row((r * 13 + 500) % n).to_vec();
        feats.row_mut(r).copy_from_slice(&src);
    }
    assert_thread_count_invariant("feature k-NN graph", || {
        edgepc_models::dgcnn::feature_knn(&feats, 20).0
    });
}

#[test]
fn compiled_pointnetpp_matches_eager_at_every_thread_budget() {
    let cloud = bunny_cloud();
    let config = PointNetPpConfig::tiny(3, PipelineStrategy::edgepc_pointnetpp(2, 16));
    // Eager oracle and compiled plan built once; every budget must agree
    // with the single-thread eager run bit for bit.
    let mut eager_model = PointNetPpSeg::new(&config, 3);
    let eager = edgepc_par::with_threads(1, || eager_model.forward(&cloud).0);
    let model = PointNetPpSeg::new(&config, 3);
    let compiled = edgepc_models::CompiledPointNetPp::compile(&model, cloud.len());
    for t in [1usize, 2, 8] {
        let logits = edgepc_par::with_threads(t, || {
            let mut state = edgepc_models::ExecState::new();
            compiled.run(&cloud, &mut state).0
        });
        assert_eq!(
            logits.as_slice(),
            eager.as_slice(),
            "compiled pointnetpp diverged from eager at {t} threads"
        );
    }
}

#[test]
fn compiled_dgcnn_matches_eager_at_every_thread_budget() {
    let cloud = bunny_cloud();
    let config = DgcnnConfig::tiny(PipelineStrategy::edgepc_dgcnn(3, 24));
    let mut eager_model = DgcnnClassifier::new(&config, 3);
    let eager = edgepc_par::with_threads(1, || eager_model.forward(&cloud).0);
    let model = DgcnnClassifier::new(&config, 3);
    let compiled = edgepc_models::CompiledDgcnn::classifier(&model, cloud.len());
    for t in [1usize, 2, 8] {
        let logits = edgepc_par::with_threads(t, || {
            let mut state = edgepc_models::ExecState::new();
            compiled.run(&cloud, &mut state).0
        });
        assert_eq!(
            logits.as_slice(),
            eager.as_slice(),
            "compiled dgcnn diverged from eager at {t} threads"
        );
    }
}

#[test]
fn compiled_executor_is_allocation_free_at_steady_state() {
    let cloud = bunny_cloud();
    let config = PointNetPpConfig::tiny(3, PipelineStrategy::edgepc_pointnetpp(2, 16));
    let model = PointNetPpSeg::new(&config, 3);
    // Planning twice must give byte-identical arena layouts (the plan is a
    // pure function of the graph), and a warm executor must hold its arena
    // capacity across many steady-state runs — the arena half of the
    // zero-allocation contract; edgepc-serve's allocation counts pin
    // the executor's run at zero allocations.
    let a = edgepc_models::CompiledPointNetPp::compile(&model, cloud.len());
    let b = edgepc_models::CompiledPointNetPp::compile(&model, cloud.len());
    let mut state_a = edgepc_models::ExecState::new();
    let mut state_b = edgepc_models::ExecState::new();
    let _ = a.run(&cloud, &mut state_a);
    let _ = b.run(&cloud, &mut state_b);
    assert_eq!(
        state_a.arena_capacity(),
        state_b.arena_capacity(),
        "replanning must reproduce the same arena layout"
    );
    let warm = state_a.arena_capacity();
    assert!(warm > 0, "plans use the arena");
    for i in 0..100 {
        let _ = a.run(&cloud, &mut state_a);
        assert_eq!(
            state_a.arena_capacity(),
            warm,
            "arena reallocated on steady-state run {i}"
        );
    }
}

#[test]
fn structurization_is_thread_count_invariant() {
    let cloud = bunny_cloud();
    assert_thread_count_invariant("structurization", || {
        let s = Structurizer::paper_default().structurize(&cloud);
        (s.permutation().to_vec(), s.codes().to_vec())
    });
}
