//! Layers with forward/backward passes.

use edgepc_geom::rng::StdRng;
use edgepc_geom::OpCounts;

use crate::Tensor2;

/// A differentiable layer operating on `rows x channels` tensors, where a
/// row is one point (or one grouped neighbor).
///
/// The contract mirrors classic define-by-run frameworks:
///
/// 1. [`Layer::forward`] caches whatever the backward pass needs,
/// 2. [`Layer::backward`] consumes the output gradient, *accumulates*
///    parameter gradients, and returns the input gradient,
/// 3. [`Layer::visit_params`] exposes `(param, grad)` pairs to optimizers
///    in a stable order.
///
/// `Send` is a supertrait so whole networks (boxed layer stacks included)
/// can move into worker threads — the serving runtime (`edgepc-serve`)
/// builds one model replica per worker. Every layer here is plain owned
/// data, so the bound costs nothing.
pub trait Layer: Send {
    /// Computes the layer output, caching activations for backward and
    /// accounting multiply-accumulate work in `ops`.
    fn forward(&mut self, x: &Tensor2, ops: &mut OpCounts) -> Tensor2;

    /// Backpropagates `dy` (gradient w.r.t. the last forward output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the input.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Layer::forward`].
    fn backward(&mut self, dy: &Tensor2) -> Tensor2;

    /// Calls `f` on each `(parameter, gradient)` slice pair, in a stable
    /// order across calls.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32]));

    /// Resets accumulated gradients to zero.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |_, g| g.fill(0.0));
    }

    /// Switches between training and inference behavior (only meaningful
    /// for layers like batch norm).
    fn set_training(&mut self, _training: bool) {}

    /// Downcast hook for IR lowering: returns the layer as a [`Linear`]
    /// if it is one. The `edgepc-ir` lowering walks a [`Sequential`] and
    /// turns each `Linear` into one `linear` node.
    fn as_linear(&self) -> Option<&Linear> {
        None
    }

    /// Returns `true` for parameter-free activations (ReLU). IR lowering
    /// folds these into the preceding fused linear pass.
    fn is_activation(&self) -> bool {
        false
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
    pub fn new(input: usize, output: usize, seed: u64) -> Self {
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
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor2, ops: &mut OpCounts) -> Tensor2 {
        assert_eq!(x.cols(), self.w.rows(), "Linear input width mismatch");
        let mut y = x.matmul(&self.w);
        y.add_row_vector(&self.b);
        ops.mac += (x.rows() * x.cols() * self.w.cols()) as u64;
        self.cache_x = Some(x.clone());
        y
    }

    fn backward(&mut self, dy: &Tensor2) -> Tensor2 {
        let x = edgepc_geom::required(self.cache_x.as_ref(), "backward before forward");
        self.gw = self.gw.add(&x.transpose().matmul(dy));
        for (g, s) in self.gb.iter_mut().zip(dy.sum_rows()) {
            *g += s;
        }
        dy.matmul(&self.w.transpose())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(self.w.as_mut_slice(), self.gw.as_mut_slice());
        f(&mut self.b, &mut self.gb);
    }

    fn as_linear(&self) -> Option<&Linear> {
        Some(self)
    }
}

/// Element-wise rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    mask: Vec<bool>,
    shape: (usize, usize),
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        ReLU::default()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, x: &Tensor2, _ops: &mut OpCounts) -> Tensor2 {
        self.shape = (x.rows(), x.cols());
        self.mask = x.as_slice().iter().map(|&v| v > 0.0).collect();
        let data = x.as_slice().iter().map(|&v| v.max(0.0)).collect();
        Tensor2::from_vec(data, x.rows(), x.cols())
    }

    fn backward(&mut self, dy: &Tensor2) -> Tensor2 {
        assert_eq!(
            (dy.rows(), dy.cols()),
            self.shape,
            "backward shape mismatch (forward not called?)"
        );
        let data = dy
            .as_slice()
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor2::from_vec(data, dy.rows(), dy.cols())
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    fn is_activation(&self) -> bool {
        true
    }
}

/// Batch normalization over the row dimension with learnable scale/shift
/// and running statistics for inference.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    g_gamma: Vec<f32>,
    g_beta: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    training: bool,
    // Caches for backward.
    cache_xhat: Option<Tensor2>,
    cache_inv_std: Vec<f32>,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer over `channels` columns.
    pub fn new(channels: usize) -> Self {
        BatchNorm1d {
            gamma: vec![1.0; channels],
            beta: vec![0.0; channels],
            g_gamma: vec![0.0; channels],
            g_beta: vec![0.0; channels],
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            training: true,
            cache_xhat: None,
            cache_inv_std: Vec::new(),
        }
    }
}

impl Layer for BatchNorm1d {
    fn forward(&mut self, x: &Tensor2, _ops: &mut OpCounts) -> Tensor2 {
        assert_eq!(x.cols(), self.gamma.len(), "BatchNorm channel mismatch");
        let n = x.rows().max(1) as f32;
        let (mean, var) = if self.training {
            let mut mean = vec![0.0f32; x.cols()];
            let mut var = vec![0.0f32; x.cols()];
            for r in 0..x.rows() {
                for (m, &v) in mean.iter_mut().zip(x.row(r)) {
                    *m += v;
                }
            }
            for m in mean.iter_mut() {
                *m /= n;
            }
            for r in 0..x.rows() {
                for ((vv, &v), &m) in var.iter_mut().zip(x.row(r)).zip(&mean) {
                    let d = v - m;
                    *vv += d * d;
                }
            }
            for v in var.iter_mut() {
                *v /= n;
            }
            for ((rm, rv), (m, v)) in self
                .running_mean
                .iter_mut()
                .zip(self.running_var.iter_mut())
                .zip(mean.iter().zip(&var))
            {
                *rm = (1.0 - self.momentum) * *rm + self.momentum * m;
                *rv = (1.0 - self.momentum) * *rv + self.momentum * v;
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut xhat = Tensor2::zeros(x.rows(), x.cols());
        let mut y = Tensor2::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let h = (x.get(r, c) - mean[c]) * inv_std[c];
                xhat.set(r, c, h);
                y.set(r, c, self.gamma[c] * h + self.beta[c]);
            }
        }
        if self.training {
            self.cache_xhat = Some(xhat);
            self.cache_inv_std = inv_std;
        }
        y
    }

    fn backward(&mut self, dy: &Tensor2) -> Tensor2 {
        let xhat = edgepc_geom::required(self.cache_xhat.as_ref(), "backward before forward");
        let n = dy.rows() as f32;
        let cols = dy.cols();
        // Per-channel reductions.
        let mut sum_dy = vec![0.0f32; cols];
        let mut sum_dy_xhat = vec![0.0f32; cols];
        for r in 0..dy.rows() {
            for c in 0..cols {
                sum_dy[c] += dy.get(r, c);
                sum_dy_xhat[c] += dy.get(r, c) * xhat.get(r, c);
            }
        }
        for c in 0..cols {
            self.g_beta[c] += sum_dy[c];
            self.g_gamma[c] += sum_dy_xhat[c];
        }
        let mut dx = Tensor2::zeros(dy.rows(), cols);
        for r in 0..dy.rows() {
            for c in 0..cols {
                let term = n * dy.get(r, c) - sum_dy[c] - xhat.get(r, c) * sum_dy_xhat[c];
                dx.set(r, c, self.gamma[c] * self.cache_inv_std[c] * term / n);
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.gamma, &mut self.g_gamma);
        f(&mut self.beta, &mut self.g_beta);
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }
}

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and the survivors are scaled by `1 / (1 - p)`; at
/// inference it is the identity. The mask sequence is deterministic per
/// layer seed, keeping training runs reproducible.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng_state: u64,
    mask: Vec<bool>,
    shape: (usize, usize),
    training: bool,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1)"
        );
        Dropout {
            p,
            rng_state: seed ^ 0xd20b,
            mask: Vec::new(),
            shape: (0, 0),
            training: true,
        }
    }

    fn next_uniform(&mut self) -> f32 {
        self.rng_state = self
            .rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.rng_state >> 33) as f32) / (u32::MAX >> 1) as f32
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor2, _ops: &mut OpCounts) -> Tensor2 {
        self.shape = (x.rows(), x.cols());
        // `<= 0.0` rather than `== 0.0`: a zero-or-negative drop rate is a
        // no-op regardless of sign tricks (-0.0) or rounding upstream.
        if !self.training || self.p <= 0.0 {
            self.mask = vec![true; x.rows() * x.cols()];
            return x.clone();
        }
        let keep = 1.0 - self.p;
        self.mask = (0..x.rows() * x.cols())
            .map(|_| self.next_uniform() >= self.p)
            .collect();
        let data = x
            .as_slice()
            .iter()
            .zip(&self.mask)
            .map(|(&v, &m)| if m { v / keep } else { 0.0 })
            .collect();
        Tensor2::from_vec(data, x.rows(), x.cols())
    }

    fn backward(&mut self, dy: &Tensor2) -> Tensor2 {
        assert_eq!(
            (dy.rows(), dy.cols()),
            self.shape,
            "backward shape mismatch (forward not called?)"
        );
        if !self.training || self.p <= 0.0 {
            return dy.clone();
        }
        let keep = 1.0 - self.p;
        let data = dy
            .as_slice()
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g / keep } else { 0.0 })
            .collect();
        Tensor2::from_vec(data, dy.rows(), dy.cols())
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }
}

/// A sequence of layers applied in order.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a sequence from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Convenience constructor for the ubiquitous point-cloud pattern:
    /// `Linear -> ReLU -> Linear -> ReLU -> ...` with the given channel
    /// widths (`dims[0]` input, `dims.last()` output), ReLU after every
    /// layer except the last.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2`.
    pub fn mlp(dims: &[usize], seed: u64) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        for (i, w) in dims.windows(2).enumerate() {
            layers.push(Box::new(Linear::new(
                w[0],
                w[1],
                seed.wrapping_add(i as u64),
            )));
            if i + 2 < dims.len() {
                layers.push(Box::new(ReLU::new()));
            }
        }
        Sequential { layers }
    }

    /// Number of layers (including activations).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the sequence has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Borrows the layer list in application order. Used by the IR
    /// lowering to walk `Linear`/`ReLU` chains without executing them.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layers.len())
            .finish()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor2, ops: &mut OpCounts) -> Tensor2 {
        let mut cur = x.clone();
        for l in self.layers.iter_mut() {
            cur = l.forward(&cur, ops);
        }
        cur
    }

    fn backward(&mut self, dy: &Tensor2) -> Tensor2 {
        let mut grad = dy.clone();
        for l in self.layers.iter_mut().rev() {
            grad = l.backward(&grad);
        }
        grad
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for l in self.layers.iter_mut() {
            l.visit_params(f);
        }
    }

    fn set_training(&mut self, training: bool) {
        for l in self.layers.iter_mut() {
            l.set_training(training);
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
        let mut r = ReLU::new();
        let x = Tensor2::from_vec(vec![-1.0, 2.0, 0.0, 3.0], 2, 2);
        let mut ops = OpCounts::ZERO;
        let y = r.forward(&x, &mut ops);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 3.0]);
        let dy = Tensor2::from_vec(vec![10.0; 4], 2, 2);
        assert_eq!(r.backward(&dy).as_slice(), &[0.0, 10.0, 0.0, 10.0]);
    }

    #[test]
    fn batchnorm_normalizes_in_training() {
        let mut bn = BatchNorm1d::new(1);
        let x = Tensor2::from_vec(vec![1.0, 3.0, 5.0, 7.0], 4, 1);
        let mut ops = OpCounts::ZERO;
        let y = bn.forward(&x, &mut ops);
        let mean: f32 = y.as_slice().iter().sum::<f32>() / 4.0;
        let var: f32 = y.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn batchnorm_uses_running_stats_in_eval() {
        let mut bn = BatchNorm1d::new(1);
        let mut ops = OpCounts::ZERO;
        // Feed a few batches to accumulate running stats.
        for _ in 0..50 {
            let x = Tensor2::from_vec(vec![9.0, 11.0], 2, 1);
            let _ = bn.forward(&x, &mut ops);
        }
        bn.set_training(false);
        let y = bn.forward(&Tensor2::from_vec(vec![10.0], 1, 1), &mut ops);
        // Input equal to the running mean maps near beta = 0.
        assert!(y.get(0, 0).abs() < 0.2, "got {}", y.get(0, 0));
    }

    #[test]
    fn sequential_mlp_shapes() {
        let mut net = Sequential::mlp(&[4, 16, 8, 3], 7);
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
        let mut l = Linear::new(2, 2, 0);
        let x = Tensor2::from_vec(vec![1.0; 4], 2, 2);
        let mut ops = OpCounts::ZERO;
        let _ = l.forward(&x, &mut ops);
        let _ = l.backward(&Tensor2::from_vec(vec![1.0; 4], 2, 2));
        l.zero_grads();
        l.visit_params(&mut |_, g| assert!(g.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn dropout_is_identity_at_inference() {
        let mut d = Dropout::new(0.5, 1);
        d.set_training(false);
        let x = Tensor2::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let mut ops = OpCounts::ZERO;
        assert_eq!(d.forward(&x, &mut ops), x);
    }

    #[test]
    fn dropout_preserves_expected_magnitude() {
        let mut d = Dropout::new(0.4, 7);
        let n = 4000usize;
        let x = Tensor2::from_vec(vec![1.0; n], n, 1);
        let mut ops = OpCounts::ZERO;
        let y = d.forward(&x, &mut ops);
        let mean: f32 = y.as_slice().iter().sum::<f32>() / n as f32;
        assert!((mean - 1.0).abs() < 0.08, "inverted-dropout mean {mean}");
        // Roughly p of the entries are zeroed.
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / n as f32;
        assert!((frac - 0.4).abs() < 0.05, "dropped fraction {frac}");
    }

    #[test]
    fn dropout_backward_uses_the_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor2::from_vec(vec![1.0; 16], 4, 4);
        let mut ops = OpCounts::ZERO;
        let y = d.forward(&x, &mut ops);
        let dy = Tensor2::from_vec(vec![1.0; 16], 4, 4);
        let dx = d.backward(&dy);
        for (o, g) in y.as_slice().iter().zip(dx.as_slice()) {
            assert_eq!(*o == 0.0, *g == 0.0, "mask mismatch between passes");
        }
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn dropout_rejects_p_one() {
        let _ = Dropout::new(1.0, 0);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut l = Linear::new(2, 2, 0);
        let _ = l.backward(&Tensor2::zeros(1, 2));
    }
}
