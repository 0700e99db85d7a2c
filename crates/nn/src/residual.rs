//! Residual blocks (ResNet support).
//!
//! Sec. IX: "Our results are not limited to the specific applications
//! mentioned in this paper, but they extend to other kinds of models
//! such as ResNets and LSTM." This module provides the building block
//! that claim needs: a [`Residual`] layer computing `y = F(x) + P(x)`,
//! where `F` is an inner layer stack and `P` is identity or a 1x1
//! projection when shapes change — trainable by the same engines because
//! it exposes the standard [`Layer`] interface.

use crate::conv::Conv2d;
use crate::layer::{Layer, ParamBlock};
use crate::network::{Model, Network};
use scidl_tensor::{Shape4, Tensor, TensorRng};

/// A residual block: inner path plus skip connection.
pub struct Residual {
    name: String,
    inner: Network,
    /// 1x1 (possibly strided) projection for the skip path when the inner
    /// path changes shape; `None` for the identity skip.
    projection: Option<Conv2d>,
}

impl Residual {
    /// Wraps `inner` with an identity skip. The inner stack must preserve
    /// its input shape (checked at `out_shape`/`forward` time).
    pub fn identity(name: impl Into<String>, inner: Network) -> Self {
        Self { name: name.into(), inner, projection: None }
    }

    /// Wraps `inner` with a 1x1 projection skip of the given channel/
    /// stride change, for blocks that downsample or widen.
    pub fn projected(
        name: impl Into<String>,
        inner: Network,
        cin: usize,
        cout: usize,
        stride: usize,
        rng: &mut TensorRng,
    ) -> Self {
        let name = name.into();
        let projection = Conv2d::new(format!("{name}.proj"), cin, cout, 1, stride, 0, rng);
        Self { name, inner, projection: Some(projection) }
    }

    fn skip_shape(&self, input: Shape4) -> Shape4 {
        match &self.projection {
            Some(p) => p.out_shape(input),
            None => input,
        }
    }
}

impl Layer for Residual {
    fn name(&self) -> &str {
        &self.name
    }

    fn out_shape(&self, input: Shape4) -> Shape4 {
        let inner = self.inner.out_shape(input);
        let skip = self.skip_shape(input);
        assert_eq!(
            inner, skip,
            "{}: inner path {inner:?} and skip path {skip:?} disagree",
            self.name
        );
        inner
    }

    fn forward(&mut self, input: Tensor) -> Tensor {
        let mut y = self.inner.forward(&input);
        match &mut self.projection {
            Some(p) => y.add_assign(&p.forward(input)),
            None => y.add_assign(&input),
        }
        y
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let mut y = self.inner.infer(input);
        match &self.projection {
            Some(p) => y.add_assign(&p.infer(input)),
            None => y.add_assign(input),
        }
        y
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let mut dx = self.inner.backward(&grad_out);
        match &mut self.projection {
            Some(p) => dx.add_assign(&p.backward(grad_out)),
            None => dx.add_assign(&grad_out),
        }
        dx
    }

    fn params(&self) -> Vec<&ParamBlock> {
        let mut blocks = self.inner.param_blocks();
        if let Some(p) = &self.projection {
            blocks.extend(p.params());
        }
        blocks
    }

    fn params_mut(&mut self) -> Vec<&mut ParamBlock> {
        let mut blocks = self.inner.param_blocks_mut();
        if let Some(p) = &mut self.projection {
            blocks.extend(p.params_mut());
        }
        blocks
    }

    fn forward_flops_per_image(&self, input: Shape4) -> u64 {
        let mut f = self.inner.forward_flops_per_image(input);
        if let Some(p) = &self.projection {
            f += p.forward_flops_per_image(input);
        }
        // The elementwise add.
        f + self.out_shape(input).item_len() as u64
    }
}

/// Builds a small ResNet-style classifier (for the Sec. IX claim): stem
/// conv, two residual blocks (one identity, one projected/downsampling),
/// global pooling and a dense head.
pub fn resnet_small(input_channels: usize, classes: usize, rng: &mut TensorRng) -> Network {
    use crate::pool::GlobalAvgPool;
    use crate::Relu;

    let block1 = Network::new("res1.inner")
        .push(Conv2d::new("res1.conv1", 16, 16, 3, 1, 1, rng))
        .push(Relu::new("res1.relu1"))
        .push(Conv2d::new("res1.conv2", 16, 16, 3, 1, 1, rng));
    let block2 = Network::new("res2.inner")
        .push(Conv2d::new("res2.conv1", 16, 32, 3, 2, 1, rng))
        .push(Relu::new("res2.relu1"))
        .push(Conv2d::new("res2.conv2", 32, 32, 3, 1, 1, rng));

    Network::new("resnet-small")
        .push(Conv2d::new("stem", input_channels, 16, 3, 1, 1, rng))
        .push(Relu::new("stem.relu"))
        .push(Residual::identity("res1", block1))
        .push(Relu::new("res1.out_relu"))
        .push(Residual::projected("res2", block2, 16, 32, 2, rng))
        .push(Relu::new("res2.out_relu"))
        .push(GlobalAvgPool::new("gap"))
        .push(crate::Dense::new("fc", 32, classes, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Relu;

    #[test]
    fn identity_block_with_zero_inner_is_identity() {
        let mut rng = TensorRng::new(1);
        let mut inner = Network::new("inner");
        let mut conv = Conv2d::new("c", 2, 2, 3, 1, 1, &mut rng);
        // Zero the conv so the inner path contributes nothing.
        for b in conv.params_mut() {
            b.value.zero_();
        }
        inner.add(Box::new(conv));
        let mut res = Residual::identity("r", inner);
        let x = rng.uniform_tensor(Shape4::new(1, 2, 4, 4), -1.0, 1.0);
        let y = res.forward(x.clone());
        assert!(y.max_abs_diff(&x) < 1e-6);
    }

    #[test]
    fn identity_skip_passes_gradient_through() {
        let mut rng = TensorRng::new(2);
        let inner = Network::new("inner")
            .push(Conv2d::new("c", 2, 2, 3, 1, 1, &mut rng))
            .push(Relu::new("r"));
        let mut res = Residual::identity("r", inner);
        let x = rng.uniform_tensor(Shape4::new(1, 2, 4, 4), -1.0, 1.0);
        let _ = res.forward(x.clone());
        let g = Tensor::filled(Shape4::new(1, 2, 4, 4), 1.0);
        let dx = res.backward(g);
        // The skip contributes at least the incoming gradient everywhere.
        // ReLU can only add non-negative conv-path gradient on top when
        // conv weights are positive, so check the skip floor via a zeroed
        // inner gradient sanity: dx - g must be the conv path's gradient.
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.all_finite());
    }

    #[test]
    fn gradient_check_identity_block() {
        let mut rng = TensorRng::new(3);
        let inner = Network::new("inner").push(Conv2d::new("c", 1, 1, 3, 1, 1, &mut rng));
        let mut res = Residual::identity("r", inner);
        let x = rng.uniform_tensor(Shape4::new(1, 1, 4, 4), -1.0, 1.0);
        let y = res.forward(x.clone());
        let dx = res.backward(Tensor::filled(y.shape(), 1.0));
        let eps = 1e-3f32;
        for idx in [0usize, 7, 15] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = res.forward(xp).sum();
            let lm = res.forward(xm).sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((dx.data()[idx] - num).abs() < 2e-2, "grad {idx}");
        }
    }

    #[test]
    fn projected_block_changes_shape_consistently() {
        let mut rng = TensorRng::new(4);
        let inner = Network::new("inner").push(Conv2d::new("c", 4, 8, 3, 2, 1, &mut rng));
        let mut res = Residual::projected("r", inner, 4, 8, 2, &mut rng);
        let x = rng.uniform_tensor(Shape4::new(2, 4, 8, 8), -1.0, 1.0);
        assert_eq!(res.out_shape(x.shape()), Shape4::new(2, 8, 4, 4));
        let y = res.forward(x.clone());
        assert_eq!(y.shape(), Shape4::new(2, 8, 4, 4));
        let dx = res.backward(Tensor::filled(y.shape(), 1.0));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn mismatched_skip_is_rejected() {
        let mut rng = TensorRng::new(5);
        let inner = Network::new("inner").push(Conv2d::new("c", 4, 8, 3, 2, 1, &mut rng));
        let res = Residual::identity("r", inner);
        res.out_shape(Shape4::new(1, 4, 8, 8));
    }

    #[test]
    fn resnet_small_trains_on_toy_task() {
        use crate::loss::SoftmaxCrossEntropy;
        use crate::solver::{Adam, Solver};
        let mut rng = TensorRng::new(6);
        let mut net = resnet_small(1, 2, &mut rng);
        let n = 8;
        let mut x = Tensor::zeros(Shape4::new(n, 1, 16, 16));
        let mut labels = vec![0usize; n];
        for (i, label) in labels.iter_mut().enumerate().take(n) {
            *label = i % 2;
            let v = if i % 2 == 0 { 1.0 } else { -1.0 };
            x.item_mut(i).iter_mut().for_each(|p| *p = v);
        }
        let mut solver = Adam::new(1e-2);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..25 {
            let logits = net.forward(&x);
            let (loss, grad) = SoftmaxCrossEntropy::forward(&logits, &labels);
            net.backward(&grad);
            solver.step_model(&mut net);
            net.zero_grads();
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < first.unwrap() * 0.5, "{first:?} -> {last}");
    }

    #[test]
    fn residual_flops_include_skip_and_add() {
        let mut rng = TensorRng::new(7);
        let inner = Network::new("inner").push(Conv2d::new("c", 4, 8, 3, 2, 1, &mut rng));
        let res = Residual::projected("r", inner, 4, 8, 2, &mut rng);
        let s = Shape4::new(1, 4, 8, 8);
        let inner_only = 2 * (8 * 4 * 9 * 16) as u64;
        let proj = 2 * ((8 * 4) * 16) as u64;
        let add = (8 * 4 * 4) as u64;
        assert_eq!(res.forward_flops_per_image(s), inner_only + proj + add);
    }
}
