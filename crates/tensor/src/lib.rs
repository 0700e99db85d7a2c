#![warn(missing_docs)]
//! # scidl-tensor
//!
//! Minimal, fast NCHW tensor library underpinning the scidl deep-learning
//! stack. It provides exactly the dense-linear-algebra substrate that the
//! paper's IntelCaffe + MKL 2017 combination provided on Xeon Phi:
//!
//! * a contiguous, `f32`, NCHW [`Tensor`] type with shape/stride machinery,
//! * elementwise and reduction kernels split across the calling thread's
//!   width ([`par`], the in-tree deterministic thread pool),
//! * a packed, register-tiled, cache-blocked parallel SGEMM ([`gemm`])
//!   tuned for the tall-skinny shapes of convolution, with fused bias
//!   epilogues ([`gemm_bias`], [`gemm_bias_cols`]), a pack-once left
//!   operand for batched callers ([`PackedA`]) whose right operand may be
//!   a conv's col matrix packed panel by panel from the image
//!   ([`BSource::Im2col`], through the image's stride-phase planes) and
//!   whose backward-data product scatters one channel group at a time
//!   ([`PackedA::gemm_col2im`]) — so no layer
//!   writes a col matrix — and the pre-packing kernel retained as a baseline
//!   ([`gemm_unpacked`]); the microkernel and its register-tile shape
//!   are selected once per process by runtime CPU-feature detection
//!   ([`Isa`]) with every ISA arm bit-identical by construction,
//! * an exact i32-accumulate int8 GEMM ([`gemm_i8`]) backing the
//!   quantized inference path,
//! * a thread-local scratch-buffer pool ([`Workspace`]) that keeps the
//!   heap allocator off the steady-state training path,
//! * the conv geometry ([`ConvGeometry`]) and [`im2col`]/[`col2im`], the
//!   written-out lowering and its scatter, over the same phase planes.
//!
//! The crate is deliberately free of `unsafe` except for a few
//! bounds-check-free inner loops in the GEMM micro-kernel; every such use
//! is covered by unit and property tests against a naive reference.
//!
//! ## Example
//!
//! ```
//! use scidl_tensor::{Tensor, Shape4};
//!
//! let a = Tensor::filled(Shape4::new(1, 3, 4, 4), 2.0);
//! let b = Tensor::filled(Shape4::new(1, 3, 4, 4), 3.0);
//! let mut c = a.clone();
//! c.add_assign(&b);
//! assert_eq!(c.data()[0], 5.0);
//! ```

pub mod gemm;
pub mod im2col;
pub mod microkernel;
pub mod ops;
pub mod rng;
pub mod shape;
pub mod stats;
pub mod tensor;
pub mod workspace;

pub use gemm::{
    gemm, gemm_bias, gemm_bias_cols, gemm_i8, gemm_i8_with_isa, gemm_unpacked, gemm_with_isa,
    BSource, PackedA, Transpose,
};
pub use im2col::{col2im, im2col, ConvGeometry};
pub use microkernel::Isa;
pub use rng::TensorRng;
pub use shape::Shape4;
pub use tensor::Tensor;
pub use workspace::{Workspace, WsBuf};

/// The deterministic in-tree thread pool (`vendor/rayon`): crates that
/// only hand thread budgets to the threads they spawn reach it here and
/// need no dependency of their own.
pub use rayon as par;

/// Elements per work unit of the memory-bound passes (elementwise ops,
/// accumulator initialisation, panel packing, im2col/col2im, the layers'
/// activation and pooling sweeps): a pass of at most one unit never
/// leaves the calling thread, a longer one is split across the thread's
/// width ([`par::width`]). Sized by measurement against the cost of a
/// fan-out; EXPERIMENTS.md A9 has the rows.
pub const PAR_CHUNK: usize = 1 << 15;

/// Multiply-accumulates (`m * n * k`) from which a product's tile grid —
/// or a conv layer's batch of per-image products — is split across
/// threads. Sized like [`PAR_CHUNK`].
pub const PAR_WORK: usize = 1 << 22;
