//! 2-D convolution layer: a GEMM against the image's col matrix, which is
//! never written out.
//!
//! Each image is the right operand of a `(cout) x (cin*k*k) x (oh*ow)`
//! product through [`BSource::Im2col`]: the GEMM's B packing copies its
//! panels from the NCHW image's stride-phase planes, in the forward
//! layout for the output and in the transposed layout for the weight
//! gradient. Backward-data is [`PackedA::gemm_col2im`], which computes
//! the col-space gradient one channel group at a time and scatters each
//! group before the next. Every bit is what lowering through a
//! written-out col matrix gives; the scratch is pack panels, planes and
//! one slab, not two `cin·k² x oh·ow` matrices per thread.
//!
//! The first step of a training walk over a network takes no
//! backward-data: its input is data ([`crate::Network::backward_params`],
//! Caffe's `propagate_down = false`), so there both the unfused
//! [`Layer::backward_params`] and the fused backward skip the `Wᵀ · dY`
//! GEMM and its scatter, and only the weight and bias gradients are
//! taken.
//!
//! Followed by a ReLU and a max pool, the convolution runs the three as
//! one pass per item (`Conv2d::forward_pooled`, which [`crate::Network`]
//! calls): the item's GEMM writes an item-sized
//! scratch, which is rectified and pooled straight into the item's pooled
//! output, so no full-batch conv output or ReLU mask ever exists. Its
//! backward expands each item's pooled gradient into an item-sized `dY`
//! and runs that item's usual three GEMM steps on it. Every bit is the
//! three layers' one at a time.

use crate::layer::{Layer, ParamBlock, Part};
use crate::pool::{MaxPool2d, Window};
use crate::spec::{ConvSpec, LayerSpec};
use scidl_tensor::{
    par, BSource, ConvGeometry, PackedA, Shape4, Tensor, TensorRng, Transpose, PAR_CHUNK, PAR_WORK,
};
use std::sync::{Mutex, PoisonError};

/// A 2-D convolution with square kernel, symmetric padding and uniform
/// stride, matching the layers of both paper networks (3x3/s1 for HEP,
/// 5x5 with strides 1–2 for the climate encoder, 3x3 scoring heads).
///
/// Weights are stored `(cout, cin, k, k)`; each batch item is a
/// `(cout) x (cin*k*k) x (oh*ow)` GEMM against its col matrix.
#[derive(Clone)]
pub struct Conv2d {
    name: String,
    pub(crate) conv: ConvSpec,
    weight: ParamBlock,
    bias: ParamBlock,
    /// Cached input from the last forward (needed for weight gradients).
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with He-initialised weights and zero bias.
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
            Shape4::new(cout, cin, k, k),
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

    /// The geometry induced by an input of the given spatial size.
    pub fn geometry(&self, h: usize, w: usize) -> ConvGeometry {
        self.conv.geometry(h, w)
    }

    /// Whether a batch of `n` items of geometry `geo` goes item-parallel.
    /// For small-to-medium col matrices, parallelise over batch items
    /// (mirroring the per-node OpenMP parallelism of the paper's kernels;
    /// each item's GEMM, packing included, then runs inline on whichever
    /// thread took the item); huge ones (climate first layers) and single
    /// items go one at a time, so the GEMM parallelises internally and one
    /// B slab — `KC` rows of the col matrix — is packed for all threads
    /// instead of one per thread. Either way each item's arithmetic is the
    /// same.
    fn item_parallel(&self, n: usize, geo: &ConvGeometry) -> bool {
        let (rows, cols) = (geo.col_rows(), geo.col_cols());
        rows * cols <= (1 << 22) && n * self.conv.cout * rows * cols >= PAR_WORK
    }

    /// Training forward of this convolution, a ReLU and `pool` as one pass
    /// per item: [`Conv2d::infer_pooled`]'s output, with the input cached
    /// and `pool`'s tap records written for [`Conv2d::backward_pooled`].
    pub(crate) fn forward_pooled(&mut self, input: Tensor, pool: &mut MaxPool2d) -> Tensor {
        let window = pool.window();
        let out = self.pooled(
            &input,
            window,
            Some(pool.record(self.out_shape(input.shape()))),
        );
        self.cached_input = Some(input);
        out
    }

    /// This convolution, a ReLU and `pool`, one item at a time: each
    /// item's GEMM writes an item-sized scratch, which the pool's window
    /// scan rectifies and pools into the item's output. Bit for bit the
    /// three layers' `infer` one after another.
    pub(crate) fn infer_pooled(&self, input: &Tensor, pool: &MaxPool2d) -> Tensor {
        self.pooled(input, pool.window(), None)
    }

    /// Backward of [`Conv2d::forward_pooled`]: each item's pooled gradient
    /// is expanded through `pool`'s tap records into an item-sized `dY`
    /// (the three layers' `backward` one after another, for that item),
    /// and the item's weight gradient, bias gradient and — if `data` —
    /// data gradient are taken from it as [`Layer::backward`] takes them
    /// from `grad_out`.
    pub(crate) fn backward_pooled(
        &mut self,
        grad_out: Tensor,
        pool: &MaxPool2d,
        data: bool,
    ) -> Option<Tensor> {
        let input = self
            .cached_input
            .take()
            .expect("Conv2d::backward called before forward");
        let ishape = input.shape();
        let geo = self.geometry(ishape.h, ishape.w);
        let oshape = pool.out_shape(geo.out_shape(ishape.n));
        assert_eq!(
            grad_out.shape(),
            oshape,
            "{}: grad_out shape mismatch",
            self.name
        );
        let taps = pool.recorded(grad_out.shape());
        let (window, hw) = (pool.window(), (geo.out_h(), geo.out_w()));

        let mut dx = input_grad(data, &geo, self.weight.value.data(), ishape);
        let mut dy = vec![0.0f32; self.conv.cout * geo.col_cols()];
        let pooled = grad_out.shape().item_len();
        for n in 0..ishape.n {
            window.unpool(grad_out.item(n), &taps[n * pooled..][..pooled], hw, &mut dy);
            let grads = (self.weight.grad.data_mut(), self.bias.grad.data_mut());
            let dx = dx
                .as_mut()
                .map(|(weight_t, grad_in)| (&*weight_t, grad_in.item_mut(n)));
            backward_item(&geo, input.item(n), &dy, grads, dx);
        }
        dx.map(|(_, grad_in)| grad_in)
    }

    /// [`Layer::backward`], with the data gradient only if `data`.
    fn backward_unfused(&mut self, grad_out: Tensor, data: bool) -> Option<Tensor> {
        let input = self
            .cached_input
            .take()
            .expect("Conv2d::backward called before forward");
        let ishape = input.shape();
        let geo = self.geometry(ishape.h, ishape.w);
        let oshape = geo.out_shape(ishape.n);
        assert_eq!(
            grad_out.shape(),
            oshape,
            "{}: grad_out shape mismatch",
            self.name
        );

        let mut dx = input_grad(data, &geo, self.weight.value.data(), ishape);
        for n in 0..ishape.n {
            let grads = (self.weight.grad.data_mut(), self.bias.grad.data_mut());
            let dx = dx
                .as_mut()
                .map(|(weight_t, grad_in)| (&*weight_t, grad_in.item_mut(n)));
            backward_item(&geo, input.item(n), grad_out.item(n), grads, dx);
        }
        dx.map(|(_, grad_in)| grad_in)
    }

    /// The fused pass behind [`Conv2d::forward_pooled`] and
    /// [`Conv2d::infer_pooled`], writing tap records into `taps` if given.
    /// Items are split across threads as [`Layer::infer`] splits them.
    /// Each thread at work holds one item's conv output: a unit takes a
    /// scratch from `spare` (or makes one) and hands it back, and all are
    /// freed when the call returns.
    fn pooled(&self, input: &Tensor, window: Window, taps: Option<&mut [u8]>) -> Tensor {
        let ishape = input.shape();
        let geo = self.geometry(ishape.h, ishape.w);
        let mut out = Tensor::zeros(window.out_shape(geo.out_shape(ishape.n)));
        let (rows, cols) = (geo.col_rows(), geo.col_cols());
        let hw = (geo.out_h(), geo.out_w());
        let weight = PackedA::new(
            Transpose::No,
            self.conv.cout,
            rows,
            self.weight.value.data(),
        );
        let bias = self.bias.value.data();

        let per_unit = if self.item_parallel(ishape.n, &geo) {
            1
        } else {
            ishape.n.max(1)
        };
        let item = out.shape().item_len().max(1);
        // A push or a pop leaves the list whole, so a unit that panicked
        // holding the lock left nothing to repair.
        let spare = Mutex::new(Vec::new());
        let unit = |u: usize, out: &mut [f32], mut taps: Option<&mut [u8]>| {
            let popped = spare.lock().unwrap_or_else(PoisonError::into_inner).pop();
            let mut y = popped.unwrap_or_else(|| vec![0.0f32; self.conv.cout * cols]);
            for (i, out) in out.chunks_mut(item).enumerate() {
                let image = BSource::Im2col(Transpose::No, &geo, input.item(u * per_unit + i));
                weight.gemm_bias(image, cols, bias, &mut y);
                let taps = taps.as_deref_mut().map(|t| &mut t[i * item..][..item]);
                window.pool::<true>(&y, hw, out, taps);
            }
            spare.lock().unwrap_or_else(PoisonError::into_inner).push(y);
        };
        match taps {
            Some(taps) => par::for_each_chunk_pair_mut(
                out.data_mut(),
                taps,
                per_unit * item,
                |u, out, taps| unit(u, out, Some(taps)),
            ),
            None => par::for_each_chunk_mut(out.data_mut(), per_unit * item, |u, out| {
                unit(u, out, None)
            }),
        }
        out
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Conv(self.conv)
    }

    fn forward(&mut self, input: Tensor) -> Tensor {
        let out = self.infer(&input);
        self.cached_input = Some(input);
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let ishape = input.shape();
        let geo = self.geometry(ishape.h, ishape.w);
        let oshape = geo.out_shape(ishape.n);
        let mut out = Tensor::zeros(oshape);
        let (rows, cols) = (geo.col_rows(), geo.col_cols());

        // The weights are the left operand of every item's GEMM: pack
        // them once per call, not once per image.
        let weight = PackedA::new(
            Transpose::No,
            self.conv.cout,
            rows,
            self.weight.value.data(),
        );
        let bias = self.bias.value.data();

        let per_unit = if self.item_parallel(ishape.n, &geo) {
            1
        } else {
            ishape.n.max(1)
        };
        let item_out = oshape.item_len().max(1);
        par::for_each_chunk_mut(out.data_mut(), per_unit * item_out, |unit, items| {
            for (n, item) in items.chunks_mut(item_out).enumerate() {
                let image = BSource::Im2col(Transpose::No, &geo, input.item(unit * per_unit + n));
                // out_plane = bias ⊕ W (cout x rows) * col (rows x cols),
                // bias broadcast fused into the epilogue sweep: the
                // output plane is written once.
                weight.gemm_bias(image, cols, bias, item);
            }
        });
        out
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        self.backward_unfused(grad_out, true)
            .expect("data gradient asked for")
    }

    fn backward_params(&mut self, grad_out: Tensor) {
        self.backward_unfused(grad_out, false);
    }

    fn part(&self) -> Option<Part<&Conv2d, &crate::Relu, &MaxPool2d>> {
        Some(Part::Conv(self))
    }

    fn part_mut(&mut self) -> Option<Part<&mut Conv2d, &mut crate::Relu, &mut MaxPool2d>> {
        Some(Part::Conv(self))
    }

    fn quantize(&self) -> Option<crate::quant::QuantLayer> {
        let (weight, bias) = (self.weight.value.data(), self.bias.value.data());
        Some(crate::quant::QuantLayer::Conv2d(
            crate::quant::QuantConv2d::new(self.conv, weight, bias),
        ))
    }

    fn params(&self) -> Vec<&ParamBlock> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut ParamBlock> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// If `data`, what a backward writes the input gradient with: `Wᵀ`
/// packed once — the left operand of every item's data-gradient GEMM —
/// and the zeroed gradient.
fn input_grad<'w>(
    data: bool,
    geo: &ConvGeometry,
    weight: &'w [f32],
    ishape: Shape4,
) -> Option<(PackedA<'w>, Tensor)> {
    data.then(|| {
        (
            PackedA::new(Transpose::Yes, geo.col_rows(), geo.cout, weight),
            Tensor::zeros(ishape),
        )
    })
}

/// One item's backward from its output gradient `dy` (`cout x cols`):
/// `dW += dY · colᵀ`, the bias gradient's per-channel sums of `dY`, and,
/// if `dx` is given, the scatter of `dcol = Wᵀ · dY` into it (with `Wᵀ`
/// packed).
fn backward_item(
    geo: &ConvGeometry,
    x: &[f32],
    dy: &[f32],
    (dw, db): (&mut [f32], &mut [f32]),
    dx: Option<(&PackedA, &mut [f32])>,
) {
    let (rows, cols) = (geo.col_rows(), geo.col_cols());
    let col_t = BSource::Im2col(Transpose::Yes, geo, x);
    PackedA::new(Transpose::No, geo.cout, cols, dy).gemm(col_t, rows, 1.0, 1.0, dw);
    add_row_sums(dy, cols, db);
    if let Some((weight_t, dx)) = dx {
        weight_t.gemm_col2im(geo, dy, dx);
    }
}

/// `acc[c] += sum(rows[c*cols..(c+1)*cols])`, every row summed left to
/// right in `f32` exactly as `iter().sum()` does. One such sum is a chain
/// of dependent adds, one add latency per element; eight rows' chains run
/// side by side to fill the pipeline, and blocks of rows are split across
/// threads. Neither changes any row's own order, so neither changes a bit.
fn add_row_sums(rows: &[f32], cols: usize, acc: &mut [f32]) {
    const LANES: usize = 8;
    let block = LANES * PAR_CHUNK.div_ceil(LANES * cols);
    par::for_each_chunk_mut(acc, block, |b, acc| {
        let rows = &rows[b * block * cols..][..acc.len() * cols];
        for (acc, rows) in acc.chunks_mut(LANES).zip(rows.chunks(LANES * cols)) {
            // `-0.0` is the additive identity `f32`'s `Sum` starts from.
            let mut sums = [-0.0f32; LANES];
            if acc.len() == LANES {
                let lanes: [&[f32]; LANES] = std::array::from_fn(|l| &rows[l * cols..][..cols]);
                for j in 0..cols {
                    for (s, lane) in sums.iter_mut().zip(&lanes) {
                        *s += lane[j];
                    }
                }
            } else {
                for (s, row) in sums.iter_mut().zip(rows.chunks(cols)) {
                    *s = row.iter().sum();
                }
            }
            for (a, s) in acc.iter_mut().zip(sums) {
                *a += s;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TensorRng {
        TensorRng::new(1234)
    }

    /// Direct (quadruple-loop) convolution reference.
    fn conv_ref(
        input: &Tensor,
        w: &Tensor,
        b: &[f32],
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let is = input.shape();
        let cout = w.shape().n;
        let geo = ConvGeometry::new(is.c, cout, is.h, is.w, k, stride, pad);
        let os = geo.out_shape(is.n);
        let mut out = Tensor::zeros(os);
        for n in 0..is.n {
            for (co, &bias) in b.iter().enumerate().take(cout) {
                for oy in 0..os.h {
                    for ox in 0..os.w {
                        let mut acc = bias;
                        for ci in 0..is.c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = (oy * stride + ky) as isize - pad as isize;
                                    let ix = (ox * stride + kx) as isize - pad as isize;
                                    if iy >= 0
                                        && ix >= 0
                                        && (iy as usize) < is.h
                                        && (ix as usize) < is.w
                                    {
                                        acc += input.at(n, ci, iy as usize, ix as usize)
                                            * w.at(co, ci, ky, kx);
                                    }
                                }
                            }
                        }
                        *out.at_mut(n, co, oy, ox) = acc;
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
            (1, 1, 5, 5, 3, 1, 0),
            (2, 3, 6, 7, 3, 1, 1),
            (3, 4, 8, 8, 5, 2, 2),
            (2, 2, 4, 4, 1, 1, 0),
        ] {
            let mut conv = Conv2d::new("c", cin, cout, k, s, p, &mut r);
            let x = r.uniform_tensor(Shape4::new(2, cin, h, w), -1.0, 1.0);
            let y = conv.forward(x.clone());
            let yref = conv_ref(&x, &conv.weight.value, conv.bias.value.data(), k, s, p);
            assert!(
                y.max_abs_diff(&yref) < 1e-4,
                "mismatch for cin={cin} cout={cout} k={k} s={s} p={p}"
            );
        }
    }

    #[test]
    fn out_shape_consistent_with_forward() {
        let mut r = rng();
        let mut conv = Conv2d::new("c", 3, 8, 3, 2, 1, &mut r);
        let x = r.uniform_tensor(Shape4::new(1, 3, 9, 9), -1.0, 1.0);
        let expect = conv.out_shape(x.shape());
        let y = conv.forward(x.clone());
        assert_eq!(y.shape(), expect);
        assert_eq!(expect, Shape4::new(1, 8, 5, 5));
    }

    /// Numerical gradient check on a tiny configuration.
    #[test]
    fn gradients_match_finite_differences() {
        let mut r = rng();
        let mut conv = Conv2d::new("c", 2, 2, 3, 1, 1, &mut r);
        let x = r.uniform_tensor(Shape4::new(1, 2, 4, 4), -1.0, 1.0);

        // Loss = sum(forward(x)); dL/dy = ones.
        let y = conv.forward(x.clone());
        let ones = Tensor::filled(y.shape(), 1.0);
        let dx = conv.backward(ones);

        let eps = 1e-3f32;

        // Check a handful of input gradients.
        for &idx in &[0usize, 5, 13, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = conv.forward(xp).sum();
            conv.cached_input = None;
            let lm = conv.forward(xm).sum();
            conv.cached_input = None;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.data()[idx] - num).abs() < 2e-2,
                "input grad {idx}: analytic {} vs numeric {num}",
                dx.data()[idx]
            );
        }

        // Check a handful of weight gradients.
        for &idx in &[0usize, 7, 17, 35] {
            let analytic = conv.weight.grad.data()[idx];
            let orig = conv.weight.value.data()[idx];
            conv.weight.value.data_mut()[idx] = orig + eps;
            let lp = conv.forward(x.clone()).sum();
            conv.cached_input = None;
            conv.weight.value.data_mut()[idx] = orig - eps;
            let lm = conv.forward(x.clone()).sum();
            conv.cached_input = None;
            conv.weight.value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - num).abs() < 2e-2,
                "weight grad {idx}: analytic {analytic} vs numeric {num}"
            );
        }

        // Bias gradient for loss=sum is the number of output pixels.
        let per_chan = (4 * 4) as f32;
        for c in 0..2 {
            assert!((conv.bias.grad.data()[c] - per_chan).abs() < 1e-3);
        }
    }

    #[test]
    fn grad_accumulates_across_backward_calls() {
        let mut r = rng();
        let mut conv = Conv2d::new("c", 1, 1, 3, 1, 1, &mut r);
        let x = r.uniform_tensor(Shape4::new(1, 1, 4, 4), -1.0, 1.0);
        let y = conv.forward(x.clone());
        let g = Tensor::filled(y.shape(), 1.0);
        conv.backward(g.clone());
        let after_one = conv.weight.grad.clone();
        conv.forward(x.clone());
        conv.backward(g.clone());
        let mut expected = after_one.clone();
        expected.scale(2.0);
        assert!(conv.weight.grad.max_abs_diff(&expected) < 1e-4);
    }

    #[test]
    fn flop_count_formula() {
        let mut r = rng();
        let conv = Conv2d::new("c", 3, 128, 3, 1, 1, &mut r);
        let f = conv
            .spec()
            .forward_flops_per_image(Shape4::new(1, 3, 224, 224));
        assert_eq!(f, 2 * 128 * 3 * 9 * 224 * 224);
        assert_eq!(
            conv.spec()
                .backward_flops_per_image(Shape4::new(1, 3, 224, 224)),
            2 * f
        );
    }

    #[test]
    fn batch_parallel_path_matches_sequential_path() {
        // Force both paths on identical data: a big batch of small images
        // (parallel path) against per-item forwards (sequential path,
        // batch 1 never parallelises).
        let mut r = rng();
        let mut conv_par = Conv2d::new("c", 3, 8, 3, 1, 1, &mut r);
        let x = r.uniform_tensor(Shape4::new(6, 3, 12, 12), -1.0, 1.0);
        let y_par = conv_par.forward(x.clone());
        for n in 0..6 {
            let single = x.batch_slice(n, 1);
            let y_one = conv_par.forward(single);
            let got = y_par.item(n);
            let want = y_one.item(0);
            let err = got
                .iter()
                .zip(want)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(err < 1e-5, "item {n}: max err {err}");
        }
    }

    #[test]
    fn infer_matches_forward_bit_identically() {
        let mut xr = TensorRng::new(6161);
        let x = xr.uniform_tensor(Shape4::new(3, 3, 8, 8), -1.0, 1.0);
        let mut conv = Conv2d::new("c", 3, 8, 3, 1, 1, &mut rng());
        let want = conv.forward(x.clone());
        let got = conv.infer(&x);
        assert_eq!(want.data(), got.data(), "infer must be bit-identical");
    }

    #[test]
    #[should_panic(expected = "expected 3 input channels")]
    fn rejects_wrong_channel_count() {
        let mut r = rng();
        let conv = Conv2d::new("c", 3, 8, 3, 1, 1, &mut r);
        conv.out_shape(Shape4::new(1, 4, 8, 8));
    }
}
