#![warn(missing_docs)]
//! # scidl-nn
//!
//! From-scratch deep-learning framework replacing the paper's
//! IntelCaffe + MKL 2017 stack. It provides:
//!
//! * the layer zoo used by both paper networks — [`Conv2d`], [`Deconv2d`]
//!   (implemented with the paper's Sec. III-C trick: deconv forward is conv
//!   backward-data and vice versa), [`MaxPool2d`], [`GlobalAvgPool`],
//!   [`Relu`], [`Dense`],
//! * loss heads — softmax cross-entropy for the supervised HEP classifier
//!   and the semi-supervised detection loss (confidence + class + bounding
//!   box + autoencoder reconstruction) for the climate network,
//! * solvers — [`Sgd`] with momentum and [`Adam`] (Sec. III-A/III-B),
//! * analytic per-layer FLOP accounting on each layer's [`LayerSpec`],
//!   standing in for the Intel SDE instrumentation of Sec. V,
//! * the two reference architectures of Table II ([`arch::hep_network`],
//!   [`arch::ClimateNet`]) as spec lists ([`NetSpec`]) with parameter
//!   footprints matching the paper (≈2.3 MiB and ≈302 MiB),
//! * a wall-clock layer profiler ([`profile`]) regenerating Fig. 5 from
//!   the real Rust kernels.
//!
//! Gradient flow follows the classic Caffe model: layers are stateful,
//! `forward` caches what `backward` needs, each layer owns the activation
//! it is handed (ReLU rectifies it in place), and parameter gradients
//! accumulate into [`ParamBlock`]s that the distributed engines in
//! `scidl-core` flatten into communication buffers. [`Network`] runs each
//! `Conv2d → Relu → MaxPool2d` triple as one pass per batch item, in
//! both directions, so no full-batch conv output is ever held (see
//! [`network`]).
//!
//! ## Example
//!
//! ```
//! use scidl_nn::{Conv2d, Dense, GlobalAvgPool, Network, Relu, SoftmaxCrossEntropy};
//! use scidl_tensor::{Shape4, TensorRng};
//!
//! let mut rng = TensorRng::new(7);
//! let mut net = Network::new("demo")
//!     .push(Conv2d::new("conv", 1, 4, 3, 1, 1, &mut rng))
//!     .push(Relu::new("relu"))
//!     .push(GlobalAvgPool::new("gap"))
//!     .push(Dense::new("fc", 4, 2, &mut rng));
//! let x = rng.uniform_tensor(Shape4::new(2, 1, 8, 8), -1.0, 1.0);
//! let logits = net.forward(&x);
//! let (loss, grad) = SoftmaxCrossEntropy::forward(&logits, &[0, 1]);
//! net.backward(&grad);
//! assert!(loss > 0.0);
//! ```

pub mod activation;
pub mod arch;
pub mod conv;
pub mod deconv;
pub mod dense;
pub mod layer;
pub mod loss;
pub mod network;
pub mod pool;
pub mod profile;
pub mod quant;
pub mod solver;
pub mod spec;

pub use activation::Relu;
pub use conv::Conv2d;
pub use deconv::Deconv2d;
pub use dense::Dense;
pub use layer::{InferScratch, Layer, ParamBlock};
pub use loss::{DetectionLoss, DetectionTargets, SoftmaxCrossEntropy};
pub use network::Network;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use quant::{QuantLayer, QuantizedNetwork};
pub use solver::{Adam, Sgd, Solver, SolverKind};
pub use spec::{ConvSpec, LayerSpec, NetSpec};
