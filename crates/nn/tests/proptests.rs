//! Randomized property tests for the neural-network substrate
//! (seeded-random cases; the std-only replacement for the former proptest
//! suite, same properties).

use edgepc_geom::rng::StdRng;
use edgepc_geom::OpCounts;
use edgepc_nn::pool::{max_pool_groups, mean_pool_backward, mean_pool_groups};
use edgepc_nn::{gradcheck, loss, Sequential, Tensor2};

const CASES: usize = 32;

fn arb_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor2 {
    Tensor2::from_vec(
        (0..rows * cols)
            .map(|_| rng.gen_range(-2.0f32..2.0))
            .collect(),
        rows,
        cols,
    )
}

#[test]
fn matmul_is_associative_with_identity() {
    let mut rng = StdRng::seed_from_u64(0x44_0001);
    for _ in 0..CASES {
        let t = arb_tensor(&mut rng, 3, 4);
        let i = Tensor2::eye(4);
        assert_eq!(t.matmul(&i), t);
    }
}

#[test]
fn matmul_distributes_over_addition() {
    let mut rng = StdRng::seed_from_u64(0x44_0002);
    for _ in 0..CASES {
        let a = arb_tensor(&mut rng, 3, 3);
        let b = arb_tensor(&mut rng, 3, 3);
        let c = arb_tensor(&mut rng, 3, 3);
        let left = a.add(&b).matmul(&c);
        let right = a.matmul(&c).add(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((x - y).abs() < 1e-3);
        }
    }
}

#[test]
fn transpose_swaps_matmul_order() {
    let mut rng = StdRng::seed_from_u64(0x44_0003);
    for _ in 0..CASES {
        let a = arb_tensor(&mut rng, 2, 3);
        let b = arb_tensor(&mut rng, 3, 4);
        let ab_t = a.matmul(&b).transpose();
        let bt_at = b.transpose().matmul(&a.transpose());
        for (x, y) in ab_t.as_slice().iter().zip(bt_at.as_slice()) {
            assert!((x - y).abs() < 1e-3);
        }
    }
}

#[test]
fn linear_gradients_check_numerically() {
    let mut rng = StdRng::seed_from_u64(0x44_0004);
    for _ in 0..CASES {
        let seed = rng.gen_range(0usize..1000) as u64;
        let rows = rng.gen_range(1usize..5);
        let mut l = Sequential::mlp(&[3, 2], seed);
        let x = Tensor2::from_vec(
            (0..rows * 3)
                .map(|i| ((i * 7 + seed as usize) % 11) as f32 * 0.2 - 1.0)
                .collect(),
            rows,
            3,
        );
        assert!(gradcheck::check_input_gradient(&mut l, &x, 1e-2) < 2e-2);
        assert!(gradcheck::check_param_gradients(&mut l, &x, 1e-2) < 2e-2);
    }
}

#[test]
fn max_pool_backward_conserves_gradient_mass() {
    let mut rng = StdRng::seed_from_u64(0x44_0006);
    for _ in 0..CASES {
        let t = arb_tensor(&mut rng, 8, 3);
        let p = max_pool_groups(&t, 4);
        let dy = Tensor2::from_vec(vec![1.0; 2 * 3], 2, 3);
        let dx = p.backward(&dy);
        // Each output element routes exactly its gradient to one input.
        let total: f32 = dx.as_slice().iter().sum();
        assert!((total - 6.0).abs() < 1e-4);
    }
}

#[test]
fn mean_pool_round_trip_preserves_mass() {
    let mut rng = StdRng::seed_from_u64(0x44_0007);
    for _ in 0..CASES {
        let t = arb_tensor(&mut rng, 6, 2);
        let y = mean_pool_groups(&t, 3);
        let dx = mean_pool_backward(&y, 3);
        let sy: f32 = y.as_slice().iter().sum();
        let sx: f32 = dx.as_slice().iter().sum();
        assert!((sy - sx).abs() < 1e-3);
    }
}

#[test]
fn softmax_gradient_rows_sum_to_zero() {
    let mut rng = StdRng::seed_from_u64(0x44_0008);
    for _ in 0..CASES {
        let t = arb_tensor(&mut rng, 4, 5);
        let targets = [0u32, 1, 2, 3];
        let (l, g) = loss::softmax_cross_entropy(&t, &targets);
        assert!(l.is_finite() && l >= 0.0);
        for r in 0..4 {
            let s: f32 = g.row(r).iter().sum();
            assert!(s.abs() < 1e-5);
        }
    }
}

#[test]
fn softmax_loss_decreases_along_negative_gradient() {
    let mut rng = StdRng::seed_from_u64(0x44_0009);
    for _ in 0..CASES {
        let t = arb_tensor(&mut rng, 3, 4);
        let targets = [0u32, 1, 2];
        let (l0, g) = loss::softmax_cross_entropy(&t, &targets);
        let stepped = t.add(&g.scale(-0.5));
        let (l1, _) = loss::softmax_cross_entropy(&stepped, &targets);
        assert!(l1 <= l0 + 1e-5, "{l0} -> {l1}");
    }
}

#[test]
fn mlp_output_shape_and_grad_shape_agree() {
    let mut rng = StdRng::seed_from_u64(0x44_000a);
    for _ in 0..CASES {
        let rows = rng.gen_range(1usize..6);
        let seed = rng.gen_range(0usize..50) as u64;
        let mut net = Sequential::mlp(&[4, 6, 3], seed);
        let x = Tensor2::zeros(rows, 4);
        let mut ops = OpCounts::ZERO;
        let y = net.forward(&x, &mut ops);
        assert_eq!((y.rows(), y.cols()), (rows, 3));
        let dx = net.backward(&Tensor2::zeros(rows, 3));
        assert_eq!((dx.rows(), dx.cols()), (rows, 4));
    }
}
