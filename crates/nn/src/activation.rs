//! Activation layers. The paper's networks use ReLU throughout
//! (Sec. III-A); the detection head of the climate network additionally
//! uses an elementwise sigmoid on its confidence map, provided here as a
//! free function pair used by the loss.

use crate::layer::Layer;
use scidl_tensor::{par, Shape4, Tensor, PAR_CHUNK};

/// Rectified linear unit, `y = max(0, x)`.
pub struct Relu {
    name: String,
    /// Mask of active (positive) inputs from the last forward.
    mask: Vec<bool>,
    in_shape: Shape4,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), mask: Vec::new(), in_shape: Shape4::new(0, 0, 0, 0) }
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        &self.name
    }

    fn out_shape(&self, input: Shape4) -> Shape4 {
        input
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.in_shape = input.shape();
        let x = input.data();
        self.mask.resize(x.len(), false);
        par::for_each_chunk_mut(&mut self.mask, PAR_CHUNK, |i, mask| {
            for (m, &x) in mask.iter_mut().zip(&x[i * PAR_CHUNK..]) {
                *m = x > 0.0;
            }
        });
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let x = input.data();
        Tensor::from_chunks(input.shape(), |r| x[r].iter().map(|&x| rectify(x)))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.len(), self.mask.len(), "{}: backward before forward", self.name);
        let (g, mask) = (grad_out.data(), &self.mask);
        Tensor::from_chunks(self.in_shape, |r| {
            g[r.clone()].iter().zip(&mask[r]).map(|(&g, &m)| if m { g } else { 0.0 })
        })
    }

    fn forward_flops_per_image(&self, input: Shape4) -> u64 {
        input.item_len() as u64
    }

    fn backward_flops_per_image(&self, input: Shape4) -> u64 {
        input.item_len() as u64
    }
}

/// `max(0, x)`, except that NaN stays NaN: `f32::max` returns its
/// non-NaN operand and would launder a poisoned activation into `0.0`.
#[inline]
fn rectify(x: f32) -> f32 {
    if x.is_nan() {
        x
    } else {
        x.max(0.0)
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
        let y = r.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut r = Relu::new("r");
        let x = Tensor::from_flat(vec![-1.0, 1.0, -3.0, 2.0]);
        r.forward(&x);
        let g = Tensor::from_flat(vec![10.0, 20.0, 30.0, 40.0]);
        let gx = r.backward(&g);
        assert_eq!(gx.data(), &[0.0, 20.0, 0.0, 40.0]);
    }

    #[test]
    fn relu_zero_input_blocks_gradient() {
        // The subgradient at exactly zero is taken as 0 (x > 0 test).
        let mut r = Relu::new("r");
        let x = Tensor::from_flat(vec![0.0]);
        r.forward(&x);
        let gx = r.backward(&Tensor::from_flat(vec![5.0]));
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
