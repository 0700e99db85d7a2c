//! Activation layers. The paper's networks use ReLU throughout
//! (Sec. III-A); the detection head of the climate network additionally
//! uses an elementwise sigmoid on its confidence map, provided here as a
//! free function pair used by the loss.
//!
//! [`Relu`] trains in place, as Caffe's does on its input blob: `forward`
//! rectifies the buffer it is handed and remembers one bit per element,
//! set where the input was positive; `backward` clears the gradient it is
//! handed wherever that bit is clear. A training step so holds one
//! buffer per ReLU, not an input and an output, and a mask 1/32 the size
//! of the activation. Between a `Conv2d` and a `MaxPool2d`,
//! [`crate::Network`] rectifies inside the fused pass instead and this
//! layer keeps nothing: the pool's tap records carry the mask bits that
//! backward reads.

use crate::layer::{Layer, Part};
use crate::spec::LayerSpec;
use scidl_tensor::{par, Tensor, PAR_CHUNK};

/// Elements behind one word of a [`Relu`] mask.
const WORD: usize = u64::BITS as usize;

/// Rectified linear unit, `y = max(0, x)`.
#[derive(Clone)]
pub struct Relu {
    name: String,
    /// Bit `i % 64` of word `i / 64` is set iff element `i` of the last
    /// forward's input was `> 0.0`: where the gradient passes.
    mask: Vec<u64>,
    /// Elements of the last forward's input.
    len: usize,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            mask: Vec::new(),
            len: 0,
        }
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        &self.name
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Relu
    }

    fn forward(&mut self, mut input: Tensor) -> Tensor {
        self.len = input.len();
        self.mask.resize(self.len.div_ceil(WORD), 0);
        by_word(input.data_mut(), &mut self.mask, |x, bits| {
            *bits = rectify_word(x)
        });
        input
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let x = input.data();
        Tensor::from_chunks(input.shape(), |r| x[r].iter().map(|&x| rectify(x)))
    }

    fn backward(&mut self, mut grad_out: Tensor) -> Tensor {
        assert_eq!(
            grad_out.len(),
            self.len,
            "{}: backward before forward",
            self.name
        );
        by_word(grad_out.data_mut(), &mut self.mask, |g, bits| {
            pass_word(g, *bits)
        });
        grad_out
    }

    fn part(&self) -> Option<Part<&crate::Conv2d, &Relu, &crate::MaxPool2d>> {
        Some(Part::Relu(self))
    }

    fn part_mut(&mut self) -> Option<Part<&mut crate::Conv2d, &mut Relu, &mut crate::MaxPool2d>> {
        Some(Part::Relu(self))
    }
}

/// Runs `f` on every [`WORD`] elements of `data` (the last run may be
/// shorter) beside their word of `mask`, split across threads
/// [`PAR_CHUNK`] elements at a time.
fn by_word(data: &mut [f32], mask: &mut [u64], f: impl Fn(&mut [f32], &mut u64) + Sync) {
    let (words, tail) = data.as_chunks_mut::<WORD>();
    let (mask, tail_mask) = mask.split_at_mut(words.len());
    par::for_each_chunk_pair_mut(words, mask, PAR_CHUNK / WORD, |_, words, mask| {
        for (x, bits) in words.iter_mut().zip(mask) {
            f(x, bits);
        }
    });
    if let Some(bits) = tail_mask.first_mut() {
        f(tail, bits);
    }
}

/// Rectifies up to [`WORD`] values in place and returns which were
/// positive, element `j` as bit `j`. Eight lanes are compared at a time
/// into bytes, so the compare vectorizes, and one multiply packs them:
/// byte `j`'s low bit lands on bit `56 + j`, and no two products meet.
#[inline]
fn rectify_word(x: &mut [f32]) -> u64 {
    let mut bits = 0;
    for (i, x) in x.chunks_mut(8).enumerate() {
        let mut lanes = [0u8; 8];
        for (lane, x) in lanes.iter_mut().zip(x) {
            *lane = u8::from(*x > 0.0);
            *x = rectify(*x);
        }
        bits |= (u64::from_le_bytes(lanes).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
    }
    bits
}

/// Keeps `g[j]`'s bits where bit `j` of `bits` is set and writes `+0.0`
/// where it is clear — `if x > 0.0 { g } else { 0.0 }` as an AND, so a
/// NaN or infinite gradient is cleared like any other. One 32-bit half
/// at a time, so the bit test vectorizes.
#[inline]
fn pass_word(g: &mut [f32], bits: u64) {
    for (h, g) in g.chunks_mut(32).enumerate() {
        let bits = (bits >> (32 * h)) as u32;
        for (j, g) in g.iter_mut().enumerate() {
            let keep = if bits & (1 << j) != 0 { u32::MAX } else { 0 };
            *g = f32::from_bits(g.to_bits() & keep);
        }
    }
}

/// `max(0, x)`, except that NaN stays NaN: `f32::max` returns its
/// non-NaN operand and would launder a poisoned activation into `0.0`.
/// Written as a select rather than `f32::max`, whose zero for `x = -0.0`
/// is whichever operand the generated code happens to return: here it is
/// `+0.0` in every loop shape, so the in-place forward and `infer` agree.
#[inline]
pub(crate) fn rectify(x: f32) -> f32 {
    if x > 0.0 || x.is_nan() {
        x
    } else {
        0.0
    }
}

/// Elementwise logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Derivative of the sigmoid given its *output* `s = sigmoid(x)`.
#[inline]
pub fn sigmoid_grad_from_output(s: f32) -> f32 {
    s * (1.0 - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_clamps_negatives() {
        let mut r = Relu::new("r");
        let x = Tensor::from_flat(vec![-2.0, -0.5, 0.0, 0.5, 2.0]);
        let y = r.forward(x);
        assert_eq!(y.data(), &[0.0, 0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut r = Relu::new("r");
        let x = Tensor::from_flat(vec![-1.0, 1.0, -3.0, 2.0]);
        r.forward(x);
        let g = Tensor::from_flat(vec![10.0, 20.0, 30.0, 40.0]);
        let gx = r.backward(g);
        assert_eq!(gx.data(), &[0.0, 20.0, 0.0, 40.0]);
    }

    #[test]
    fn relu_zero_input_blocks_gradient() {
        // The subgradient at exactly zero is taken as 0 (x > 0 test).
        let mut r = Relu::new("r");
        let x = Tensor::from_flat(vec![0.0]);
        r.forward(x);
        let gx = r.backward(Tensor::from_flat(vec![5.0]));
        assert_eq!(gx.data(), &[0.0]);
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
        let s = sigmoid(1.3);
        assert!((s + sigmoid(-1.3) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_grad_matches_fd() {
        let eps = 1e-4f32;
        for &x in &[-2.0f32, -0.3, 0.0, 0.7, 3.0] {
            let s = sigmoid(x);
            let num = (sigmoid(x + eps) - sigmoid(x - eps)) / (2.0 * eps);
            assert!((sigmoid_grad_from_output(s) - num).abs() < 1e-3);
        }
    }
}
