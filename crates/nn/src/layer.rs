//! The `Layer` trait and trainable-parameter blocks.

use crate::spec::LayerSpec;
use crate::{Conv2d, MaxPool2d, Relu};
use scidl_tensor::{Shape4, Tensor, TensorRng};

/// A named block of trainable parameters together with its accumulated
/// gradient. Each layer owns zero or more blocks (e.g. a convolution owns
/// `weight` and `bias`).
///
/// The distributed engines treat the list of blocks across a network as
/// the *model*: all-reduce averages the `grad` tensors, parameter servers
/// exchange the `value` tensors — the per-layer parameter-server design of
/// Sec. III-E(c) maps one PS to each block's owning layer.
#[derive(Clone, Debug)]
pub struct ParamBlock {
    /// Human-readable name, e.g. `"conv1.weight"`.
    pub name: String,
    /// Current parameter values.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`). Zeroed by
    /// [`ParamBlock::zero_grad`]; layers *add* into it during backward so
    /// gradient accumulation across micro-batches works naturally.
    pub grad: Tensor,
}

impl ParamBlock {
    /// Creates a block with the given initial values and a zero gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self {
            name: name.into(),
            value,
            grad,
        }
    }

    /// A layer's weight, He-initialised for `fan_in` inputs per output,
    /// and its zero bias over `outputs`, named after `layer`.
    pub(crate) fn weight_and_bias(
        layer: &str,
        shape: Shape4,
        fan_in: usize,
        outputs: usize,
        rng: &mut TensorRng,
    ) -> (Self, Self) {
        let weight = Self::new(format!("{layer}.weight"), rng.he_tensor(shape, fan_in));
        (
            weight,
            Self::new(
                format!("{layer}.bias"),
                Tensor::zeros(Shape4::flat(outputs)),
            ),
        )
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True when the block is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.zero_();
    }
}

/// Caller-owned integer scratch for the int8 serving path
/// ([`crate::quant::QuantLayer::infer`]); serving workers keep one
/// instance each. Every `f32` scratch buffer — the im2col lowering, GEMM
/// pack panels — comes from the thread-local
/// [`scidl_tensor::Workspace`] instead, on the training and the serving
/// path alike.
#[derive(Debug, Default)]
pub struct InferScratch {
    /// Quantized operand buffer (activations for dense, the transposed
    /// im2col matrix for conv).
    pub qcol: Vec<i8>,
    /// i32 accumulator buffer.
    pub qacc: Vec<i32>,
}

impl InferScratch {
    /// Creates an empty scratch pad.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A layer's kind, for the three kinds [`crate::Network`] runs together:
/// a `Conv2d → Relu → MaxPool2d` triple is one pass per batch item. The
/// hook [`Layer::part`] hands it out behind a shared borrow
/// (`Part<&Conv2d, &Relu, &MaxPool2d>`), [`Layer::part_mut`] behind an
/// exclusive one.
pub enum Part<C, R, P> {
    /// A convolution.
    Conv(C),
    /// A ReLU.
    Relu(R),
    /// A max pool.
    Pool(P),
}

/// A neural-network layer (Caffe execution model).
///
/// [`Layer::infer`] is the one place a layer's function is written;
/// `forward` is `infer` plus remembering whatever `backward` will need;
/// `backward` consumes that state, accumulates parameter gradients into
/// its [`ParamBlock`]s and returns the gradient with respect to the
/// input.
///
/// Training owns its activations: `forward` and `backward` take their
/// tensor by value and may keep it (a convolution caches its input) or
/// reuse its buffer for the result (ReLU rectifies in place), so no
/// layer copies an activation. `infer` borrows, because serving shares
/// its inputs, and never writes to them.
///
/// Every layer is [`Clone`] (through [`LayerClone`], so a
/// `Box<dyn Layer>` clones too). A clone is a deep copy of everything
/// the layer owns: its configuration, each [`ParamBlock`]'s value and
/// gradient, and whatever its last `forward` remembered for `backward`.
/// Nothing is shared, so writing into the clone leaves the original as
/// it was.
pub trait Layer: LayerClone + Send + Sync {
    /// Layer instance name (unique within a network), e.g. `"conv3"`.
    fn name(&self) -> &str;

    /// The layer's configuration — kind and sizes, no weights — which
    /// holds its shape and cost formulas.
    fn spec(&self) -> LayerSpec;

    /// Output shape for a given input shape; panics if the two are
    /// incompatible ([`LayerSpec::out_shape`]).
    fn out_shape(&self, input: Shape4) -> Shape4 {
        self.spec().out_shape(input)
    }

    /// Training forward pass: [`Layer::infer`]'s output, with what
    /// `backward` needs remembered in the layer. May keep `input`, or
    /// overwrite it and return its buffer.
    fn forward(&mut self, input: Tensor) -> Tensor;

    /// Backward pass: gradient w.r.t. output in, gradient w.r.t. input
    /// out. Must be called after `forward` with a matching shape. May
    /// overwrite `grad_out` and return its buffer.
    fn backward(&mut self, grad_out: Tensor) -> Tensor;

    /// [`Layer::backward`]'s parameter gradients without its input
    /// gradient (Caffe's `propagate_down = false`), for the layer a
    /// backward walk ends on. The default runs `backward` and drops the
    /// input gradient; the layers whose input gradient costs a GEMM,
    /// [`Conv2d`] and [`crate::Dense`], skip it.
    fn backward_params(&mut self, grad_out: Tensor) {
        self.backward(grad_out);
    }

    /// The layer's function, stateless: no activation is cached, no
    /// layer state touched and `input` left as it is, so one model can be
    /// shared read-only across serving workers. Scratch comes from the
    /// calling thread's [`scidl_tensor::Workspace`].
    fn infer(&self, input: &Tensor) -> Tensor;

    /// The int8 serving form of this layer, if it has one. Layers whose
    /// compute is GEMM-shaped (dense, convolution) return a
    /// [`crate::quant::QuantLayer`] holding symmetrically quantized
    /// weights; stateless/cheap layers return `None` and keep running
    /// their f32 [`Layer::infer`] inside a quantized network.
    fn quantize(&self) -> Option<crate::quant::QuantLayer> {
        None
    }

    /// This layer as a part of a fusable triple, if it is one of the
    /// three kinds; every other layer keeps the default `None`.
    fn part(&self) -> Option<Part<&Conv2d, &Relu, &MaxPool2d>> {
        None
    }

    /// [`Layer::part`], borrowed exclusively.
    fn part_mut(&mut self) -> Option<Part<&mut Conv2d, &mut Relu, &mut MaxPool2d>> {
        None
    }

    /// Immutable access to the parameter blocks (empty for stateless
    /// layers).
    fn params(&self) -> Vec<&ParamBlock> {
        Vec::new()
    }

    /// Mutable access to the parameter blocks.
    fn params_mut(&mut self) -> Vec<&mut ParamBlock> {
        Vec::new()
    }
}

/// The object-safe half of cloning a layer: implemented for every
/// `Layer + Clone`, it lets a `Box<dyn Layer>` (and so a
/// [`crate::Network`]) clone.
pub trait LayerClone {
    /// A boxed deep copy of this layer.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl<T: Layer + Clone + 'static> LayerClone for T {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_block_zero_grad() {
        let mut b = ParamBlock::new("w", Tensor::filled(Shape4::flat(4), 1.0));
        b.grad.data_mut()[2] = 5.0;
        b.zero_grad();
        assert!(b.grad.data().iter().all(|&x| x == 0.0));
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
    }
}
