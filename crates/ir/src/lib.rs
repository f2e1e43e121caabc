//! `edgepc-ir`: a std-only op-graph IR with a build / schedule /
//! execute split for the point-cloud forward paths.
//!
//! The eager models (`edgepc-models`) stay the reference oracle; this
//! crate gives them a compiled alternative:
//!
//! * [`Graph`] — a tiny shape-checked op graph (`input`, `gather`,
//!   `linear`, `max_pool`, `concat2`, `broadcast`) that models lower
//!   their forward paths into, snapshotting layer parameters. Each
//!   `linear` is a whole `Linear(→ReLU)` layer, so lowering is already
//!   fusion: one blocked-kernel pass per layer, and a neighborhood
//!   gather streams straight into the panel staging of the `linear`
//!   that reads it — the grouped matrix is never materialized, which is
//!   what drops `gathered_bytes`,
//! * [`compile`] — the scheduler: plans buffer lifetimes over a single
//!   arena with a first-fit liveness pass, computes the per-point half
//!   of a `linear` fed by a row-repeating gather once per point where
//!   that pays (exact: the gathered rows resume their sums from it), and
//!   runs a `max_pool` that reads a `linear` in that linear's epilogue,
//!   so the pooled rows are the only ones stored,
//! * [`Executor`] — interprets a [`Plan`] over its reusable arena with
//!   zero steady-state heap allocation (a count `edgepc-serve`'s
//!   allocation tests pin at 0).
//!
//! **Determinism contract.** A fused step performs the eager per-element
//! f32 arithmetic in the eager order, the kernels parallelize over fixed
//! chunk boundaries, and the arena layout is a pure function of the
//! graph — so compiled results are bit-identical to the eager path at
//! any thread budget.
//!
//! # Example
//!
//! ```
//! use edgepc_ir::{compile, Executor, Graph, InTensor, Inputs};
//! use edgepc_nn::Tensor2;
//!
//! // y = relu(x * w + b), compiled.
//! let w = Tensor2::from_vec(vec![1.0, -1.0, 0.5, 2.0], 2, 2);
//! let mut g = Graph::new("demo");
//! let x = g.input(1, 2);
//! let y = g.linear(x, &w, &[0.1, -0.1], true);
//! g.set_output(y);
//! let plan = compile(&g);
//!
//! let mut exec = Executor::new();
//! let xs = [InTensor { data: &[3.0, 4.0], rows: 1, cols: 2 }];
//! exec.run(&plan, &Inputs { tensors: &xs, gathers: &[] });
//!
//! // Bit-identical to the eager pipeline.
//! let mut y = Tensor2::from_vec(vec![3.0, 4.0], 1, 2).matmul(&w);
//! y.add_row_vector(&[0.1, -0.1]);
//! let eager: Vec<f32> = y.as_slice().iter().map(|v| v.max(0.0)).collect();
//! assert_eq!(exec.output(&plan), &eager[..]);
//! ```

#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

#[cfg(test)]
mod differential;
pub mod exec;
pub mod graph;
pub mod schedule;

pub use exec::{Executor, GatherIn, InTensor, Inputs};
pub use graph::{GatherMode, Graph, NodeId};
pub use schedule::{compile, GatherSite, Plan};

#[cfg(test)]
mod tests {
    use super::*;
    use edgepc_nn::{Sequential, Tensor2, EMPTY_SLOT};

    fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor2 {
        let mut s = seed | 1;
        let mut t = Tensor2::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                t.set(r, c, ((s >> 33) as f32) / ((1u64 << 31) as f32) - 1.0);
            }
        }
        t
    }

    /// Lower an MLP, compile it, and check it matches the eager
    /// Sequential forward bit-for-bit and in MAC count.
    #[test]
    fn fused_mlp_matches_eager() {
        let mut seq = Sequential::mlp(&[7, 16, 4], 42);
        let x = random_tensor(20, 7, 0xabc);
        let mut ops = edgepc_geom::OpCounts::default();
        let eager = seq.forward(&x, &mut ops);

        let mut g = Graph::new("mlp");
        let xin = g.input(20, 7);
        let out = g.mlp(xin, &seq);
        g.set_output(out);
        let plan = compile(&g);

        let xs = [InTensor {
            data: x.as_slice(),
            rows: 20,
            cols: 7,
        }];
        let mut e = Executor::new();
        e.run(
            &plan,
            &Inputs {
                tensors: &xs,
                gathers: &[],
            },
        );
        assert_eq!(e.output(&plan), eager.as_slice());
        assert_eq!(plan.ops().mac, ops.mac);
    }

    /// SA-style gather -> MLP -> pool pipeline against a hand-built
    /// eager reference, with zero-padded (EMPTY_SLOT) grouping slots.
    #[test]
    fn gather_mlp_pool_matches_eager_reference() {
        let (points, c, k, groups) = (30, 5, 4, 10);
        let feats = random_tensor(points, c, 0x111);
        let mut idx = Vec::new();
        let mut rel = Vec::new();
        for gi in 0..groups {
            for slot in 0..k {
                if slot == 3 {
                    idx.push(EMPTY_SLOT);
                    rel.extend_from_slice(&[0.0; 3]);
                } else {
                    idx.push((gi * 7 + slot * 3) % points);
                    rel.extend_from_slice(&[gi as f32 * 0.1, slot as f32 * -0.2, 0.05]);
                }
            }
        }
        let seq = Sequential::mlp(&[c + 3, 12, 6], 7);

        // Eager reference: materialize the grouped matrix, run the MLP,
        // grouped max-pool.
        let m = groups * k;
        let mut grouped = Tensor2::zeros(m, c + 3);
        for (r, &j) in idx.iter().enumerate() {
            if j == EMPTY_SLOT {
                continue;
            }
            for cc in 0..c {
                grouped.set(r, cc, feats.get(j, cc));
            }
            for d in 0..3 {
                grouped.set(r, c + d, rel[3 * r + d]);
            }
        }
        let mut seq2 = Sequential::mlp(&[c + 3, 12, 6], 7);
        let mut ops = edgepc_geom::OpCounts::default();
        let transformed = seq2.forward(&grouped, &mut ops);
        let eager = edgepc_nn::pool::max_pool_groups(&transformed, k);

        let mut g = Graph::new("sa");
        let gat = g.gather(m, points, GatherMode::SaGroup { c, k }, "sa.group");
        let mlp = g.mlp(gat, &seq);
        let pooled = g.max_pool(mlp, k);
        g.set_output(pooled);
        let plan = compile(&g);
        let site = &plan.gather_sites()[0];
        assert!(site.fused_bytes < site.eager_bytes);

        let gs = [GatherIn {
            feats: feats.as_slice(),
            idx: &idx,
            rel: &rel,
        }];
        let mut e = Executor::new();
        e.run(
            &plan,
            &Inputs {
                tensors: &[],
                gathers: &gs,
            },
        );
        assert_eq!(e.output(&plan), eager.output.as_slice());
    }

    /// Runs a two-group SA plan (`k = 2`, so four gathered rows from
    /// `src_rows` points) over `feats` and `idx`; the contract tests feed
    /// it malformed operands.
    fn run_sa_plan(c: usize, src_rows: usize, feats: &[f32], idx: &[usize]) {
        let seq = Sequential::mlp(&[c + 3, 4], 9);
        let mut g = Graph::new("sa");
        let mode = GatherMode::SaGroup { c, k: 2 };
        let gat = g.gather(idx.len(), src_rows, mode, "sa.group");
        let mlp = g.mlp(gat, &seq);
        g.set_output(mlp);
        let plan = compile(&g);
        let gs = [GatherIn {
            feats,
            idx,
            rel: &vec![0.0; 3 * idx.len()],
        }];
        Executor::new().run(
            &plan,
            &Inputs {
                tensors: &[],
                gathers: &gs,
            },
        );
    }

    #[test]
    #[should_panic(expected = "ir exec: gather needs at least one feature channel")]
    fn zero_channel_gather_fails_the_contract_check() {
        run_sa_plan(0, 1, &[], &[0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "SA group neighbor index out of range")]
    fn out_of_range_gather_index_fails_the_contract_check() {
        // Two feature rows of three channels; index 2 is one past the end.
        run_sa_plan(3, 2, &[0.5; 6], &[0, 1, EMPTY_SLOT, 2]);
    }

    #[test]
    #[should_panic(expected = "ir exec: gather feature matrix must be src_rows x c")]
    fn short_gather_feature_matrix_fails_at_validation() {
        // Declared three source points of three channels, fed two.
        run_sa_plan(3, 3, &[0.5; 6], &[0, 1, EMPTY_SLOT, 1]);
    }

    /// Concat + pool + broadcast replicate hstack / global pool / row
    /// replication, and the arena stays fixed across repeated runs.
    #[test]
    fn concat_pool_broadcast_and_arena_stability() {
        let a = random_tensor(6, 3, 1);
        let b = random_tensor(6, 2, 2);
        let mut g = Graph::new("head");
        let na = g.input(6, 3);
        let nb = g.input(6, 2);
        let cat = g.concat2(na, nb);
        let pool = g.max_pool(cat, 6);
        let bc = g.broadcast(pool, 6);
        let out = g.concat2(cat, bc);
        g.set_output(out);
        let plan = compile(&g);

        let stacked = a.hstack(&b);
        let pooled = edgepc_nn::pool::global_max_pool(&stacked);
        let mut broad = Tensor2::zeros(6, 5);
        for r in 0..6 {
            broad.row_mut(r).copy_from_slice(pooled.output.row(0));
        }
        let eager = stacked.hstack(&broad);

        let xs = [
            InTensor {
                data: a.as_slice(),
                rows: 6,
                cols: 3,
            },
            InTensor {
                data: b.as_slice(),
                rows: 6,
                cols: 2,
            },
        ];
        let inputs = Inputs {
            tensors: &xs,
            gathers: &[],
        };
        let mut e = Executor::new();
        e.run(&plan, &inputs);
        assert_eq!(e.output(&plan), eager.as_slice());

        let cap = e.arena_capacity();
        for _ in 0..100 {
            e.run(&plan, &inputs);
        }
        assert_eq!(
            e.arena_capacity(),
            cap,
            "steady-state runs must not grow the arena"
        );
    }

    /// The liveness planner reuses released regions: a deep chain's
    /// arena is much smaller than the sum of its intermediates.
    #[test]
    fn liveness_reuses_buffers_in_deep_chains() {
        let seq = Sequential::mlp(&[8, 32, 32, 32, 32, 8], 3);
        let mut g = Graph::new("deep");
        let x = g.input(16, 8);
        let out = g.mlp(x, &seq);
        g.set_output(out);
        let plan = compile(&g);
        // Sum of all five intermediates would be 16*(32*4 + 8); live
        // pairs bound the arena by ~two widest layers.
        assert!(
            plan.arena_len() <= 2 * 16 * 32,
            "arena {} exceeds two live intermediates",
            plan.arena_len()
        );
    }
}
