//! The shared MLP: a stack of fully connected layers with a ReLU between
//! each pair, with forward and backward passes.

use edgepc_geom::rng::StdRng;
use edgepc_geom::OpCounts;

use crate::Tensor2;

/// Anything an optimizer can update: a set of `(parameter, gradient)`
/// slice pairs visited in a stable order.
///
/// The models implement it over their MLPs, so [`Optimizer::step`] and
/// the trainers drive a whole network through one visitor.
///
/// [`Optimizer::step`]: crate::Optimizer::step
pub trait Params {
    /// Calls `f` on each `(parameter, gradient)` slice pair, in a stable
    /// order across calls.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32]));

    /// Resets accumulated gradients to zero.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |_, g| g.fill(0.0));
    }
}

/// A fully connected layer `y = x W + b`.
///
/// Applied row-wise over a points tensor this is the *shared MLP* (1x1
/// convolution) of PointNet++/DGCNN — the kernel behind the paper's
/// feature-compute (FC) stage.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Tensor2,
    b: Vec<f32>,
    gw: Tensor2,
    gb: Vec<f32>,
    cache_x: Option<Tensor2>,
}

impl Linear {
    /// Creates a layer with He-initialized weights, deterministic per
    /// `seed`.
    fn new(input: usize, output: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11ea);
        let std = (2.0 / input as f32).sqrt();
        let data = (0..input * output)
            .map(|_| rng.gen_range(-std..=std))
            .collect();
        Linear {
            w: Tensor2::from_vec(data, input, output),
            b: vec![0.0; output],
            gw: Tensor2::zeros(input, output),
            gb: vec![0.0; output],
            cache_x: None,
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.w.cols()
    }

    /// Borrows the weight matrix (`input_dim x output_dim`). Used by the
    /// IR lowering to snapshot parameters into a compiled plan.
    pub fn weights(&self) -> &Tensor2 {
        &self.w
    }

    /// Borrows the bias vector (`output_dim` values).
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Computes `x W + b`, caching `x` for backward and accounting the
    /// multiply-accumulate work in `ops`.
    fn forward(&mut self, x: &Tensor2, ops: &mut OpCounts) -> Tensor2 {
        assert_eq!(x.cols(), self.w.rows(), "Linear input width mismatch");
        let mut y = x.matmul(&self.w);
        y.add_row_vector(&self.b);
        ops.mac += (x.rows() * x.cols() * self.w.cols()) as u64;
        self.cache_x = Some(x.clone());
        y
    }

    /// Accumulates the parameter gradients for output gradient `dy` and
    /// returns the gradient w.r.t. the cached input.
    fn backward(&mut self, dy: &Tensor2) -> Tensor2 {
        let x = self.cached_input();
        self.gw = self.gw.add(&x.transpose().matmul(dy));
        for (g, s) in self.gb.iter_mut().zip(dy.sum_rows()) {
            *g += s;
        }
        dy.matmul(&self.w.transpose())
    }

    fn cached_input(&self) -> &Tensor2 {
        edgepc_geom::required(self.cache_x.as_ref(), "backward before forward")
    }
}

impl Params for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(self.w.as_mut_slice(), self.gw.as_mut_slice());
        f(&mut self.b, &mut self.gb);
    }
}

/// The point-cloud MLP: `Linear -> ReLU -> Linear -> ReLU -> ... ->
/// Linear`, ReLU after every layer except the last.
#[derive(Debug, Clone)]
pub struct Sequential {
    linears: Vec<Linear>,
}

impl Sequential {
    /// Builds the MLP with the given channel widths (`dims[0]` input,
    /// `dims.last()` output); layer `i` is seeded `seed + i`.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2`.
    pub fn mlp(dims: &[usize], seed: u64) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let linears = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(w[0], w[1], seed.wrapping_add(i as u64)))
            .collect();
        Sequential { linears }
    }

    /// Borrows the layers in application order; a ReLU follows each one
    /// but the last. Used by the IR lowering to snapshot parameters.
    pub fn linears(&self) -> &[Linear] {
        &self.linears
    }

    /// Computes the MLP output, caching activations for backward and
    /// accounting multiply-accumulate work in `ops`.
    pub fn forward(&mut self, x: &Tensor2, ops: &mut OpCounts) -> Tensor2 {
        let (first, rest) = self.split_first_mut();
        let mut cur = first.forward(x, ops);
        for l in rest {
            for v in cur.as_mut_slice() {
                *v = v.max(0.0);
            }
            cur = l.forward(&cur, ops);
        }
        cur
    }

    /// Backpropagates `dy` (gradient w.r.t. the last forward output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the input.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Sequential::forward`].
    pub fn backward(&mut self, dy: &Tensor2) -> Tensor2 {
        let (first, rest) = self.split_first_mut();
        let mut grad = dy.clone();
        for l in rest.iter_mut().rev() {
            grad = l.backward(&grad);
            // `l`'s input is the previous layer's ReLU output, and
            // `out > 0` exactly where the pre-activation was (NaN maps
            // to 0), so it is the ReLU's gradient mask.
            for (g, &a) in grad
                .as_mut_slice()
                .iter_mut()
                .zip(l.cached_input().as_slice())
            {
                *g = if a > 0.0 { *g } else { 0.0 };
            }
        }
        first.backward(&grad)
    }

    fn split_first_mut(&mut self) -> (&mut Linear, &mut [Linear]) {
        edgepc_geom::required(self.linears.split_first_mut(), "an MLP has a layer")
    }
}

impl Params for Sequential {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for l in &mut self.linears {
            l.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_forward_known_values() {
        let mut l = Linear::new(2, 1, 0);
        l.visit_params(&mut |p, _| {
            if p.len() == 2 {
                p.copy_from_slice(&[2.0, 3.0]);
            } else {
                p.copy_from_slice(&[1.0]);
            }
        });
        let x = Tensor2::from_vec(vec![1.0, 1.0, 0.0, 2.0], 2, 2);
        let mut ops = OpCounts::ZERO;
        let y = l.forward(&x, &mut ops);
        assert_eq!(y.as_slice(), &[6.0, 7.0]);
        assert_eq!(ops.mac, 2 * 2);
    }

    #[test]
    fn linear_backward_shapes_and_grad_accumulation() {
        let mut l = Linear::new(3, 2, 1);
        let x = Tensor2::from_vec((0..6).map(|v| v as f32).collect(), 2, 3);
        let mut ops = OpCounts::ZERO;
        let _ = l.forward(&x, &mut ops);
        let dy = Tensor2::from_vec(vec![1.0; 4], 2, 2);
        let dx = l.backward(&dy);
        assert_eq!(dx.rows(), 2);
        assert_eq!(dx.cols(), 3);
        // Backward twice accumulates.
        let mut gb_first = Vec::new();
        l.visit_params(&mut |p, g| {
            if p.len() == 2 {
                gb_first = g.to_vec();
            }
        });
        let _ = l.backward(&dy);
        l.visit_params(&mut |p, g| {
            if p.len() == 2 {
                assert_eq!(g[0], 2.0 * gb_first[0]);
            }
        });
    }

    #[test]
    fn relu_masks_gradient() {
        // Identity hidden layer, then a sum: the hidden pre-activations
        // are the inputs, so the ReLU mask is visible in both passes.
        let mut net = Sequential::mlp(&[2, 2, 1], 0);
        let mut slot = 0;
        net.visit_params(&mut |p, _| {
            match slot {
                0 => p.copy_from_slice(&[1.0, 0.0, 0.0, 1.0]),
                2 => p.copy_from_slice(&[1.0, 1.0]),
                _ => p.fill(0.0),
            }
            slot += 1;
        });
        let x = Tensor2::from_vec(vec![-1.0, 2.0, 0.0, 3.0, f32::NAN, 1.0], 3, 2);
        let mut ops = OpCounts::ZERO;
        // NaN * 0 is NaN, so the third row's hidden units are both NaN.
        let y = net.forward(&x, &mut ops);
        assert_eq!(y.as_slice(), &[2.0, 3.0, 0.0]);
        let dx = net.backward(&Tensor2::from_vec(vec![10.0; 3], 3, 1));
        assert_eq!(dx.as_slice(), &[0.0, 10.0, 0.0, 10.0, 0.0, 0.0]);
    }

    #[test]
    fn sequential_mlp_shapes() {
        let mut net = Sequential::mlp(&[4, 16, 8, 3], 7);
        assert_eq!(net.linears().len(), 3);
        let x = Tensor2::zeros(5, 4);
        let mut ops = OpCounts::ZERO;
        let y = net.forward(&x, &mut ops);
        assert_eq!((y.rows(), y.cols()), (5, 3));
        let dx = net.backward(&Tensor2::zeros(5, 3));
        assert_eq!((dx.rows(), dx.cols()), (5, 4));
        assert_eq!(ops.mac, (5 * 4 * 16 + 5 * 16 * 8 + 5 * 8 * 3) as u64);
    }

    #[test]
    fn zero_grads_resets() {
        let mut net = Sequential::mlp(&[2, 2, 2], 0);
        let x = Tensor2::from_vec(vec![1.0; 4], 2, 2);
        let mut ops = OpCounts::ZERO;
        let _ = net.forward(&x, &mut ops);
        let _ = net.backward(&Tensor2::from_vec(vec![1.0; 4], 2, 2));
        net.zero_grads();
        net.visit_params(&mut |_, g| assert!(g.iter().all(|&v| v == 0.0)));
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut net = Sequential::mlp(&[2, 2], 0);
        let _ = net.backward(&Tensor2::zeros(1, 2));
    }
}
