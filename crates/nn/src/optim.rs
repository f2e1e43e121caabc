//! Optimizers over [`Params`].

use crate::Params;

/// A first-order optimizer: consumes the gradients a backward pass
/// accumulated and updates the parameters in place.
pub trait Optimizer {
    /// Applies one update step to every parameter of `params`.
    fn step(&mut self, params: &mut dyn Params);
}

/// Stochastic gradient descent with classical momentum.
///
/// # Example
///
/// ```
/// use edgepc_nn::{Optimizer, Sequential, Sgd, Tensor2};
/// use edgepc_geom::OpCounts;
///
/// let mut l = Sequential::mlp(&[1, 1], 0);
/// let mut opt = Sgd::new(0.1).with_momentum(0.9);
/// let x = Tensor2::from_vec(vec![1.0], 1, 1);
/// let mut ops = OpCounts::default();
/// let y0 = l.forward(&x, &mut ops).get(0, 0);
/// l.backward(&Tensor2::from_vec(vec![1.0], 1, 1)); // minimize output
/// opt.step(&mut l);
/// let y1 = l.forward(&x, &mut ops).get(0, 0);
/// assert!(y1 < y0);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates plain SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Sgd {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Enables momentum (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `momentum` is not in `[0, 1)`.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        self.momentum = momentum;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut dyn Params) {
        let mut slot = 0usize;
        let (lr, mu) = (self.lr, self.momentum);
        let velocity = &mut self.velocity;
        params.visit_params(&mut |p, g| {
            if velocity.len() == slot {
                velocity.push(vec![0.0; p.len()]);
            }
            let v = &mut velocity[slot];
            assert_eq!(v.len(), p.len(), "parameter shape changed between steps");
            for ((pv, gv), vv) in p.iter_mut().zip(g.iter()).zip(v.iter_mut()) {
                *vv = mu * *vv - lr * gv;
                *pv += *vv;
            }
            slot += 1;
        });
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with learning rate `lr` and the standard betas
    /// `(0.9, 0.999)`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut dyn Params) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        let mut slot = 0usize;
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (ms, vs) = (&mut self.m, &mut self.v);
        params.visit_params(&mut |p, g| {
            if ms.len() == slot {
                ms.push(vec![0.0; p.len()]);
                vs.push(vec![0.0; p.len()]);
            }
            let m = &mut ms[slot];
            let v = &mut vs[slot];
            assert_eq!(m.len(), p.len(), "parameter shape changed between steps");
            for i in 0..p.len() {
                m[i] = b1 * m[i] + (1.0 - b1) * g[i];
                v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                p[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
            slot += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{loss, Sequential, Tensor2};
    use edgepc_geom::OpCounts;

    /// Train y = 2x with a 1-layer net and the given optimizer; return the
    /// final mean-squared error.
    fn fit_line(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut l = Sequential::mlp(&[1, 1], 9);
        let x = Tensor2::from_vec(vec![-1.0, 0.0, 1.0, 2.0], 4, 1);
        let t = [-2.0f32, 0.0, 2.0, 4.0];
        let mut ops = OpCounts::ZERO;
        let mut mse = f32::INFINITY;
        for _ in 0..steps {
            let y = l.forward(&x, &mut ops);
            let mut dy = Tensor2::zeros(4, 1);
            mse = 0.0;
            for (r, &target) in t.iter().enumerate() {
                let e = y.get(r, 0) - target;
                mse += e * e / 4.0;
                dy.set(r, 0, 2.0 * e / 4.0);
            }
            l.zero_grads();
            let _ = l.backward(&dy);
            opt.step(&mut l);
        }
        mse
    }

    #[test]
    fn sgd_converges_on_linear_regression() {
        let mut opt = Sgd::new(0.1);
        assert!(fit_line(&mut opt, 200) < 1e-4);
    }

    #[test]
    fn momentum_accelerates_sgd() {
        let plain = fit_line(&mut Sgd::new(0.02), 60);
        let momo = fit_line(&mut Sgd::new(0.02).with_momentum(0.9), 60);
        assert!(momo < plain, "momentum {momo} vs plain {plain}");
    }

    #[test]
    fn adam_converges_on_linear_regression() {
        let mut opt = Adam::new(0.1);
        assert!(fit_line(&mut opt, 300) < 1e-3);
    }

    #[test]
    fn adam_trains_a_classifier_to_separate_classes() {
        let mut net = Sequential::mlp(&[2, 16, 2], 3);
        let mut opt = Adam::new(0.03);
        // XOR-ish data: class = x0 * x1 > 0.
        let data = [
            (-1.0f32, -1.0f32, 1u32),
            (-1.0, 1.0, 0),
            (1.0, -1.0, 0),
            (1.0, 1.0, 1),
        ];
        let x = Tensor2::from_vec(data.iter().flat_map(|&(a, b, _)| [a, b]).collect(), 4, 2);
        let t: Vec<u32> = data.iter().map(|&(_, _, c)| c).collect();
        let mut ops = OpCounts::ZERO;
        for _ in 0..400 {
            let logits = net.forward(&x, &mut ops);
            let (_, d) = loss::softmax_cross_entropy(&logits, &t);
            net.zero_grads();
            net.backward(&d);
            opt.step(&mut net);
        }
        let logits = net.forward(&x, &mut ops);
        let acc = loss::accuracy(&logits, &t);
        assert!(
            (acc - 1.0).abs() < 1e-6,
            "XOR should be fully learned, accuracy {acc}"
        );
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn bad_lr_panics() {
        let _ = Sgd::new(0.0);
    }
}
