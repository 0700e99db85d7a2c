//! Fully connected (dense) layer.
//!
//! The HEP network's only dense layer is the tiny 128→2 projection after
//! global average pooling — the paper explicitly avoids large dense
//! layers ("to not use layers with large dense weights", Sec. I) so that
//! the model stays cheap to all-reduce at scale.

use crate::layer::{Layer, ParamBlock};
use crate::spec::LayerSpec;
use scidl_tensor::{gemm, gemm_bias_cols, Shape4, Tensor, TensorRng, Transpose};

/// Dense layer `y = W x + b`, flattening each batch item.
///
/// Weights are stored `(out, in)` row-major; input items of any NCHW shape
/// are treated as flat vectors of length `item_len`.
#[derive(Clone)]
pub struct Dense {
    name: String,
    input_len: usize,
    output_len: usize,
    weight: ParamBlock,
    bias: ParamBlock,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-initialised weights.
    pub fn new(
        name: impl Into<String>,
        input_len: usize,
        output_len: usize,
        rng: &mut TensorRng,
    ) -> Self {
        let name = name.into();
        let shape = Shape4::new(output_len, input_len, 1, 1);
        let (weight, bias) = ParamBlock::weight_and_bias(&name, shape, input_len, output_len, rng);
        Self {
            name,
            input_len,
            output_len,
            weight,
            bias,
            cached_input: None,
        }
    }

    /// [`Layer::backward`], with the data gradient only if `data`.
    fn backward_with(&mut self, grad_out: Tensor, data: bool) -> Option<Tensor> {
        let input = self
            .cached_input
            .take()
            .expect("Dense::backward called before forward");
        let n = input.shape().n;
        assert_eq!(grad_out.shape(), Shape4::new(n, self.output_len, 1, 1));

        // dW (out x in) += dY^T (out x n) * X (n x in)
        gemm(
            Transpose::Yes,
            Transpose::No,
            self.output_len,
            self.input_len,
            n,
            1.0,
            grad_out.data(),
            input.data(),
            1.0,
            self.weight.grad.data_mut(),
        );
        // db += column sums of dY.
        for i in 0..n {
            let row = &grad_out.data()[i * self.output_len..(i + 1) * self.output_len];
            for (g, &d) in self.bias.grad.data_mut().iter_mut().zip(row) {
                *g += d;
            }
        }
        if !data {
            return None;
        }
        // dX (n x in) = dY (n x out) * W (out x in)
        let mut grad_in = Tensor::zeros(input.shape());
        gemm(
            Transpose::No,
            Transpose::No,
            n,
            self.input_len,
            self.output_len,
            1.0,
            grad_out.data(),
            self.weight.value.data(),
            0.0,
            grad_in.data_mut(),
        );
        Some(grad_in)
    }
}

impl Layer for Dense {
    fn name(&self) -> &str {
        &self.name
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Dense {
            input_len: self.input_len,
            output_len: self.output_len,
        }
    }

    fn forward(&mut self, input: Tensor) -> Tensor {
        let out = self.infer(&input);
        self.cached_input = Some(input);
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let os = self.out_shape(input.shape());
        let n = input.shape().n;
        let mut out = Tensor::zeros(os);
        // Y (n x out) = b ⊕ X (n x in) * W^T (in x out); the per-column
        // bias broadcast is fused into the GEMM epilogue (one C sweep).
        gemm_bias_cols(
            Transpose::No,
            Transpose::Yes,
            n,
            self.output_len,
            self.input_len,
            input.data(),
            self.weight.value.data(),
            self.bias.value.data(),
            out.data_mut(),
        );
        out
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        self.backward_with(grad_out, true)
            .expect("data gradient asked for")
    }

    fn backward_params(&mut self, grad_out: Tensor) {
        self.backward_with(grad_out, false);
    }

    fn quantize(&self) -> Option<crate::quant::QuantLayer> {
        let (weight, bias) = (self.weight.value.data(), self.bias.value.data());
        Some(crate::quant::QuantLayer::Dense(
            crate::quant::QuantDense::new(self.input_len, self.output_len, weight, bias),
        ))
    }

    fn params(&self) -> Vec<&ParamBlock> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut ParamBlock> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_computes_affine_map() {
        let mut rng = TensorRng::new(5);
        let mut d = Dense::new("fc", 3, 2, &mut rng);
        // Overwrite with known weights.
        d.weight.value =
            Tensor::from_vec(Shape4::new(2, 3, 1, 1), vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.5]);
        d.bias.value = Tensor::from_flat(vec![0.5, -0.5]);
        let x = Tensor::from_vec(Shape4::new(2, 3, 1, 1), vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let y = d.forward(x.clone());
        // item0: [1-3+0.5, 2+2+1.5-0.5] = [-1.5, 5.0]
        // item1: [-1-1+0.5, -2+0.5-0.5] = [-1.5, -2.0]
        assert_eq!(y.data(), &[-1.5, 5.0, -1.5, -2.0]);
    }

    #[test]
    fn gradient_check() {
        let mut rng = TensorRng::new(8);
        let mut d = Dense::new("fc", 4, 3, &mut rng);
        let x = rng.uniform_tensor(Shape4::new(2, 4, 1, 1), -1.0, 1.0);
        let y = d.forward(x.clone());
        let ones = Tensor::filled(y.shape(), 1.0);
        let dx = d.backward(ones);
        let eps = 1e-3f32;

        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = d.forward(xp).sum();
            d.cached_input = None;
            let lm = d.forward(xm).sum();
            d.cached_input = None;
            let num = (lp - lm) / (2.0 * eps);
            assert!((dx.data()[idx] - num).abs() < 1e-2, "input grad {idx}");
        }
        for idx in 0..d.weight.value.len() {
            let analytic = d.weight.grad.data()[idx];
            let orig = d.weight.value.data()[idx];
            d.weight.value.data_mut()[idx] = orig + eps;
            let lp = d.forward(x.clone()).sum();
            d.cached_input = None;
            d.weight.value.data_mut()[idx] = orig - eps;
            let lm = d.forward(x.clone()).sum();
            d.cached_input = None;
            d.weight.value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((analytic - num).abs() < 1e-2, "weight grad {idx}");
        }
        // Bias grad with loss=sum over 2 items is 2 per output.
        assert!(d.bias.grad.data().iter().all(|&g| (g - 2.0).abs() < 1e-4));
    }

    #[test]
    fn backward_params_matches_backward_bit_for_bit() {
        let mut rng = TensorRng::new(9);
        let x = rng.uniform_tensor(Shape4::new(3, 2, 4, 4), -1.0, 1.0);
        let dy = rng.uniform_tensor(Shape4::new(3, 5, 1, 1), -1.0, 1.0);
        let full = &mut Dense::new("fc", 32, 5, &mut TensorRng::new(4));
        let params_only = &mut full.clone();
        full.forward(x.clone());
        full.backward(dy.clone());
        params_only.forward(x);
        params_only.backward_params(dy);
        let bits =
            |b: &ParamBlock| -> Vec<u32> { b.grad.data().iter().map(|g| g.to_bits()).collect() };
        assert_eq!(bits(&params_only.weight), bits(&full.weight));
        assert_eq!(bits(&params_only.bias), bits(&full.bias));
        assert!(params_only.cached_input.is_none());
    }

    #[test]
    fn accepts_spatial_input_shapes() {
        let mut rng = TensorRng::new(2);
        let mut d = Dense::new("fc", 12, 5, &mut rng);
        let x = rng.uniform_tensor(Shape4::new(3, 3, 2, 2), -1.0, 1.0);
        let y = d.forward(x.clone());
        assert_eq!(y.shape(), Shape4::new(3, 5, 1, 1));
    }

    #[test]
    #[should_panic(expected = "expected item length")]
    fn rejects_wrong_input_len() {
        let mut rng = TensorRng::new(2);
        let d = Dense::new("fc", 12, 5, &mut rng);
        d.out_shape(Shape4::new(1, 13, 1, 1));
    }

    #[test]
    fn flops_formula() {
        let mut rng = TensorRng::new(2);
        let d = Dense::new("fc", 128, 2, &mut rng);
        assert_eq!(
            d.spec().forward_flops_per_image(Shape4::flat(128)),
            2 * 128 * 2
        );
    }
}
