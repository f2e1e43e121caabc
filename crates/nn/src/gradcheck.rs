//! Numerical gradient checking.
//!
//! This crate's test suites verify the MLP's analytic backward pass
//! against central finite differences.

use edgepc_geom::OpCounts;

use crate::{Params, Sequential, Tensor2};

/// Compares an MLP's analytic input gradient against central finite
/// differences of the scalar objective `sum(forward(x) * dy)`.
///
/// Returns the maximum absolute element-wise discrepancy.
///
/// # Panics
///
/// Panics if the MLP changes output shape between calls.
pub fn check_input_gradient(net: &mut Sequential, x: &Tensor2, eps: f32) -> f32 {
    let mut ops = OpCounts::ZERO;
    let y = net.forward(x, &mut ops);
    // A fixed, reproducible upstream gradient.
    let dy = Tensor2::from_vec(
        (0..y.rows() * y.cols())
            .map(|i| ((i % 7) as f32 - 3.0) / 3.0)
            .collect(),
        y.rows(),
        y.cols(),
    );
    net.zero_grads();
    let analytic = net.backward(&dy);

    let objective = |net: &mut Sequential, x: &Tensor2| -> f32 {
        let mut ops = OpCounts::ZERO;
        let y = net.forward(x, &mut ops);
        y.as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(a, b)| a * b)
            .sum()
    };

    let mut worst = 0.0f32;
    let mut xp = x.clone();
    for i in 0..x.rows() * x.cols() {
        let orig = xp.as_slice()[i];
        xp.as_mut_slice()[i] = orig + eps;
        let plus = objective(net, &xp);
        xp.as_mut_slice()[i] = orig - eps;
        let minus = objective(net, &xp);
        xp.as_mut_slice()[i] = orig;
        let numeric = (plus - minus) / (2.0 * eps);
        worst = worst.max((numeric - analytic.as_slice()[i]).abs());
    }
    worst
}

/// Compares an MLP's analytic *parameter* gradients against central finite
/// differences. Returns the maximum absolute discrepancy over all
/// parameters.
pub fn check_param_gradients(net: &mut Sequential, x: &Tensor2, eps: f32) -> f32 {
    let mut ops = OpCounts::ZERO;
    let y = net.forward(x, &mut ops);
    let dy = Tensor2::from_vec(
        (0..y.rows() * y.cols())
            .map(|i| ((i % 5) as f32 - 2.0) / 2.0)
            .collect(),
        y.rows(),
        y.cols(),
    );
    net.zero_grads();
    let _ = net.backward(&dy);

    // Snapshot analytic gradients.
    let mut analytic: Vec<Vec<f32>> = Vec::new();
    net.visit_params(&mut |_, g| analytic.push(g.to_vec()));

    let objective = |net: &mut Sequential| -> f32 {
        let mut ops = OpCounts::ZERO;
        let y = net.forward(x, &mut ops);
        y.as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(a, b)| a * b)
            .sum()
    };

    // Nudges parameter (slot, i) by delta via visit_params.
    fn nudge(net: &mut dyn Params, slot: usize, i: usize, delta: f32) {
        let mut s = 0usize;
        net.visit_params(&mut |p, _| {
            if s == slot {
                p[i] += delta;
            }
            s += 1;
        });
    }

    let mut worst = 0.0f32;
    for (slot, grads) in analytic.iter().enumerate() {
        for (i, &expected) in grads.iter().enumerate() {
            nudge(net, slot, i, eps);
            let plus = objective(net);
            nudge(net, slot, i, -2.0 * eps);
            let minus = objective(net);
            nudge(net, slot, i, eps);
            let numeric = (plus - minus) / (2.0 * eps);
            worst = worst.max((numeric - expected).abs());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_gradients_check_out() {
        let mut l = Sequential::mlp(&[3, 4], 5);
        let x = Tensor2::from_vec((0..6).map(|v| v as f32 * 0.3 - 1.0).collect(), 2, 3);
        assert!(check_input_gradient(&mut l, &x, 1e-2) < 1e-2);
        assert!(check_param_gradients(&mut l, &x, 1e-2) < 1e-2);
    }

    #[test]
    fn mlp_composition_checks_out() {
        let mut net = Sequential::mlp(&[2, 8, 3], 1);
        let x = Tensor2::from_vec(vec![0.3, -0.8, 1.2, 0.4], 2, 2);
        assert!(check_input_gradient(&mut net, &x, 1e-2) < 2e-2);
        assert!(check_param_gradients(&mut net, &x, 1e-2) < 2e-2);
    }

    #[test]
    fn two_relu_mlp_checks_out() {
        let mut net = Sequential::mlp(&[3, 6, 5, 2], 4);
        let x = Tensor2::from_vec(vec![-1.0, -0.5, 0.5, 1.0, 2.0, -2.0], 2, 3);
        assert!(check_input_gradient(&mut net, &x, 1e-3) < 2e-2);
        assert!(check_param_gradients(&mut net, &x, 1e-3) < 2e-2);
    }
}
