//! A small dense neural-network library with full backpropagation — the
//! substrate under the PointNet++ / DGCNN reproductions.
//!
//! The paper retrains its CNN models with the Morton approximations baked
//! in (Sec. 5.3); reproducing that requires actual training, so this crate
//! implements:
//!
//! * [`Tensor2`] — a row-major 2-D `f32` tensor with the linear algebra the
//!   models need,
//! * [`Sequential`] — the shared MLP, [`Linear`] layers with a ReLU
//!   between each pair, with forward/backward passes (a `Linear` applied
//!   row-wise over points is exactly the 1x1 convolution of point-cloud
//!   CNNs),
//! * [`pool`] — grouped max-pooling over neighborhoods with backward,
//! * [`loss`] — softmax cross-entropy,
//! * [`Sgd`] / [`Adam`] — optimizers over any [`Params`] visitor,
//! * [`gradcheck`] — numerical gradient checking used by the test suite.
//!
//! Feature-compute work is reported through [`OpCounts::mac`] so the device
//! model can price the FC stage (and its tensor-core variant).
//!
//! # Example
//!
//! ```
//! use edgepc_nn::{loss, Adam, Optimizer, Params, Sequential, Tensor2};
//! use edgepc_geom::OpCounts;
//!
//! // Learn y = x > 0 with a tiny MLP: Linear(1, 8) -> ReLU -> Linear(8, 2).
//! let mut net = Sequential::mlp(&[1, 8, 2], 0);
//! let mut opt = Adam::new(0.05);
//! let x = Tensor2::from_vec(vec![-1.0, -0.5, 0.5, 1.0], 4, 1);
//! let t = [0u32, 0, 1, 1];
//! let mut ops = OpCounts::default();
//! for _ in 0..200 {
//!     let logits = net.forward(&x, &mut ops);
//!     let (_, dlogits) = loss::softmax_cross_entropy(&logits, &t);
//!     net.zero_grads();
//!     net.backward(&dlogits);
//!     opt.step(&mut net);
//! }
//! let logits = net.forward(&x, &mut ops);
//! assert!(logits.get(0, 0) > logits.get(0, 1)); // negative -> class 0
//! assert!(logits.get(3, 1) > logits.get(3, 0)); // positive -> class 1
//! ```

#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod gradcheck;
pub mod kernel;
pub mod layer;
pub mod loss;
pub mod optim;
pub mod pool;
pub mod tensor;

pub use kernel::{
    fused_linear, fused_linear_pooled, gather_max_relu, hoisting_pays, kernel_uses_blocked_path,
    nearest_rows, PackedPanels, RowSource, EMPTY_SLOT, MAX_FUSED_K,
};
pub use layer::{he_init, Linear, Params, Sequential};
pub use optim::{Adam, Optimizer, Sgd};
pub use tensor::Tensor2;

pub use edgepc_geom::OpCounts;
