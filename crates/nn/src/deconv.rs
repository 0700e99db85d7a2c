//! 2-D transposed convolution (deconvolution) layer.
//!
//! The paper's climate network needed optimised deconvolutions that MKL
//! 2017 did not provide; Sec. III-C describes the trick used: *the
//! backward-data pass of a convolution computes the forward pass of the
//! matching deconvolution, and vice versa*. We implement exactly that —
//! [`Deconv2d::infer`] is the scatter of `Wᵀ · x` into the output planes
//! (a conv backward-data, [`PackedA::gemm_col2im`]) and
//! [`Deconv2d::backward`]'s data path is `W` times the col matrix of `dy`
//! (a conv forward, [`BSource::Im2col`]), so the two layers share all
//! their kernels — and, like the conv, never write a col matrix out.

use crate::layer::{Layer, ParamBlock};
use crate::spec::{ConvSpec, LayerSpec};
use scidl_tensor::{BSource, PackedA, Shape4, Tensor, TensorRng, Transpose};

/// A 2-D transposed convolution with square kernel and uniform stride.
///
/// For input `(n, cin, h, w)` the output is `(n, cout, oh, ow)` with
/// `oh = (h-1)*stride + k - 2*pad` (the inverse of the convolution output
/// formula). Weights are stored `(cin, cout, k, k)` — the mirror of
/// [`crate::Conv2d`]'s layout, as in Caffe.
#[derive(Clone)]
pub struct Deconv2d {
    name: String,
    conv: ConvSpec,
    weight: ParamBlock,
    bias: ParamBlock,
    cached_input: Option<Tensor>,
}

impl Deconv2d {
    /// Creates a deconvolution with He-initialised weights and zero bias.
    pub fn new(
        name: impl Into<String>,
        cin: usize,
        cout: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut TensorRng,
    ) -> Self {
        let name = name.into();
        let (weight, bias) = ParamBlock::weight_and_bias(
            &name,
            Shape4::new(cin, cout, k, k),
            cin * k * k,
            cout,
            rng,
        );
        Self {
            name,
            conv: ConvSpec {
                cin,
                cout,
                k,
                stride,
                pad,
            },
            weight,
            bias,
            cached_input: None,
        }
    }
}

impl Layer for Deconv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Deconv(self.conv)
    }

    fn forward(&mut self, input: Tensor) -> Tensor {
        let out = self.infer(&input);
        self.cached_input = Some(input);
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let ishape = input.shape();
        let geo = self.conv.mirror_geometry(ishape.h, ishape.w);
        let oshape = self.out_shape(ishape);
        let mut out = Tensor::zeros(oshape);
        // Wᵀ (cout*k*k x cin) is the left operand of every item's product.
        let weight_t = PackedA::new(
            Transpose::Yes,
            geo.col_rows(),
            self.conv.cin,
            self.weight.value.data(),
        );

        for n in 0..ishape.n {
            // Scatter Wᵀ * x (cin x h*w) into the (zeroed) output plane.
            weight_t.gemm_col2im(&geo, input.item(n), out.item_mut(n));
            // Bias per output channel.
            let plane = oshape.plane_len();
            let item = out.item_mut(n);
            for c in 0..self.conv.cout {
                let b = self.bias.value.data()[c];
                if b != 0.0 {
                    for v in &mut item[c * plane..(c + 1) * plane] {
                        *v += b;
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("Deconv2d::backward called before forward");
        let ishape = input.shape();
        let geo = self.conv.mirror_geometry(ishape.h, ishape.w);
        let oshape = self.out_shape(ishape);
        assert_eq!(
            grad_out.shape(),
            oshape,
            "{}: grad_out shape mismatch",
            self.name
        );

        let (rows, cols) = (geo.col_rows(), geo.col_cols());
        let mut grad_in = Tensor::zeros(ishape);
        // W (cin x cout*k*k) is the left operand of every item's dX.
        let weight = PackedA::new(Transpose::No, self.conv.cin, rows, self.weight.value.data());

        for n in 0..ishape.n {
            // The backward-data of a deconv is a plain convolution of dY:
            // dX = W * col (cout*k*k x h*w).
            let col = BSource::Im2col(Transpose::No, &geo, grad_out.item(n));
            weight.gemm(col, cols, 1.0, 0.0, grad_in.item_mut(n));
            // dW += x (cin x h*w) * colᵀ (h*w x cout*k*k)
            let col_t = BSource::Im2col(Transpose::Yes, &geo, grad_out.item(n));
            PackedA::new(Transpose::No, self.conv.cin, cols, input.item(n)).gemm(
                col_t,
                rows,
                1.0,
                1.0,
                self.weight.grad.data_mut(),
            );
            // Bias gradient: per-output-channel sum of dY.
            let plane = oshape.plane_len();
            let dy = grad_out.item(n);
            for c in 0..self.conv.cout {
                let s: f32 = dy[c * plane..(c + 1) * plane].iter().sum();
                self.bias.grad.data_mut()[c] += s;
            }
        }
        grad_in
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

    fn rng() -> TensorRng {
        TensorRng::new(99)
    }

    /// Direct (scatter) transposed-convolution reference.
    fn deconv_ref(
        input: &Tensor,
        w: &Tensor,
        b: &[f32],
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let is = input.shape();
        let cout = w.shape().c; // weight stored (cin, cout, k, k)
        let oh = (is.h - 1) * stride + k - 2 * pad;
        let ow = (is.w - 1) * stride + k - 2 * pad;
        let mut out = Tensor::zeros(Shape4::new(is.n, cout, oh, ow));
        for n in 0..is.n {
            for (co, &bias) in b.iter().enumerate().take(cout) {
                for y in 0..oh {
                    for x in 0..ow {
                        *out.at_mut(n, co, y, x) = bias;
                    }
                }
            }
            for ci in 0..is.c {
                for iy in 0..is.h {
                    for ix in 0..is.w {
                        let v = input.at(n, ci, iy, ix);
                        for co in 0..cout {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let oy = (iy * stride + ky) as isize - pad as isize;
                                    let ox = (ix * stride + kx) as isize - pad as isize;
                                    if oy >= 0
                                        && ox >= 0
                                        && (oy as usize) < oh
                                        && (ox as usize) < ow
                                    {
                                        *out.at_mut(n, co, oy as usize, ox as usize) +=
                                            v * w.at(ci, co, ky, kx);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_direct_reference() {
        let mut r = rng();
        for &(cin, cout, h, w, k, s, p) in &[
            (1, 1, 3, 3, 2, 2, 0),
            (2, 3, 4, 5, 4, 2, 1),
            (3, 2, 3, 3, 3, 1, 1),
        ] {
            let mut d = Deconv2d::new("d", cin, cout, k, s, p, &mut r);
            let x = r.uniform_tensor(Shape4::new(2, cin, h, w), -1.0, 1.0);
            let y = d.forward(x.clone());
            let yref = deconv_ref(&x, &d.weight.value, d.bias.value.data(), k, s, p);
            assert_eq!(y.shape(), yref.shape());
            assert!(
                y.max_abs_diff(&yref) < 1e-4,
                "mismatch for cin={cin} cout={cout} k={k} s={s} p={p}"
            );
        }
    }

    #[test]
    fn stride2_doubles_resolution_with_k4_p1() {
        let mut r = rng();
        let d = Deconv2d::new("d", 8, 4, 4, 2, 1, &mut r);
        assert_eq!(
            d.out_shape(Shape4::new(1, 8, 24, 24)),
            Shape4::new(1, 4, 48, 48)
        );
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut r = rng();
        let mut d = Deconv2d::new("d", 2, 2, 3, 2, 1, &mut r);
        let x = r.uniform_tensor(Shape4::new(1, 2, 3, 3), -1.0, 1.0);
        let y = d.forward(x.clone());
        let ones = Tensor::filled(y.shape(), 1.0);
        let dx = d.backward(ones);
        let eps = 1e-3f32;

        for &idx in &[0usize, 4, 9, 17] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = d.forward(xp).sum();
            d.cached_input = None;
            let lm = d.forward(xm).sum();
            d.cached_input = None;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.data()[idx] - num).abs() < 2e-2,
                "input grad {idx}: analytic {} vs numeric {num}",
                dx.data()[idx]
            );
        }

        for &idx in &[0usize, 5, 11, 23] {
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
            assert!(
                (analytic - num).abs() < 2e-2,
                "weight grad {idx}: analytic {analytic} vs numeric {num}"
            );
        }
    }

    /// Deconv must be the exact adjoint of the matching conv (zero bias):
    /// <conv(x), y> == <x, deconv(y)> when they share the same weights.
    #[test]
    fn deconv_is_adjoint_of_conv() {
        use crate::conv::Conv2d;
        let mut r = rng();
        let k = 3;
        let (s, p) = (2, 1);
        let (cin, cout) = (3, 5);
        let mut conv = Conv2d::new("c", cin, cout, k, s, p, &mut r);
        let mut dec = Deconv2d::new("d", cout, cin, k, s, p, &mut r);
        // Share weights: conv weight (cout, cin, k, k) == deconv weight
        // layout (cin_dec=cout, cout_dec=cin, k, k) — identical buffers.
        dec.weight.value = Tensor::from_vec(
            dec.weight.value.shape(),
            conv.params()[0].value.data().to_vec(),
        );

        let x = r.uniform_tensor(Shape4::new(1, cin, 7, 7), -1.0, 1.0);
        let cx = conv.forward(x.clone());
        let y = r.uniform_tensor(cx.shape(), -1.0, 1.0);
        let dy = dec.forward(y.clone());

        let lhs: f64 = cx
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| *a as f64 * *b as f64)
            .sum();
        let rhs: f64 = x
            .data()
            .iter()
            .zip(dy.data())
            .map(|(a, b)| *a as f64 * *b as f64)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn infer_matches_forward_bit_identically() {
        let mut r = rng();
        let mut d = Deconv2d::new("d", 3, 2, 4, 2, 1, &mut r);
        let x = r.uniform_tensor(Shape4::new(2, 3, 5, 5), -1.0, 1.0);
        let want = d.forward(x.clone());
        let got = d.infer(&x);
        assert_eq!(want.data(), got.data());
    }

    #[test]
    fn flops_symmetric_with_mirror_conv() {
        let mut r = rng();
        let d = Deconv2d::new("d", 16, 8, 4, 2, 1, &mut r);
        let f = d.spec().forward_flops_per_image(Shape4::new(1, 16, 12, 12));
        // Mirror conv: 24x24 input, 16 out-ch... macs = cin_mirror(8)*k*k*cout_mirror(16)*12*12
        assert_eq!(f, 2 * (8 * 16 * 16 * 144));
    }
}
