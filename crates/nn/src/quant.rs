//! Low-precision training utilities.
//!
//! Sec. VIII-A: "There has been a lot of discussion surrounding training
//! with quantized weights and activations [44], [45]. The statistical
//! implications of low precision training are still being explored [46],
//! [47], with various forms of *stochastic rounding* being of critical
//! importance in convergence." This module provides the ingredients that
//! discussion refers to:
//!
//! * bfloat16 emulation (truncate / round-to-nearest of the f32
//!   mantissa) — the numeric format later HPC systems adopted,
//! * stochastic rounding to an arbitrary fixed-point grid,
//! * linear 8-bit quantise/dequantise with per-buffer scale
//!   ([`QuantizedBuffer`], over the same `scidl_tensor::ops::quantize_i8`
//!   codec the compressed exchange in `scidl-comm` calls directly),
//! * the **int8 serving path** ([`QuantLayer`], [`QuantizedNetwork`]):
//!   per-layer symmetric int8 weight quantization plus dynamic per-tensor
//!   activation quantization, executed through the exact i32-accumulate
//!   [`scidl_tensor::gemm_i8`] kernel — the VNNI-style inference mode Das
//!   et al. (arXiv:1602.06709) motivate and Sec. VIII-A anticipates.
//!
//! Everything here obeys the poison-don't-launder contract from PR 3:
//! non-finite input is reported to the numeric-health sentinel and
//! surfaces as NaN output — it never silently becomes a finite value.

use crate::layer::InferScratch;
use crate::spec::ConvSpec;
use scidl_tensor::{gemm_i8, im2col, Shape4, Tensor, TensorRng, Workspace};

/// Rounds an `f32` to bfloat16 precision (round-to-nearest-even on the
/// top 7 mantissa bits), returned as `f32`. Non-finite inputs pass
/// through unchanged: NaN stays NaN and ±Inf stays ±Inf (the
/// poison-don't-launder contract).
#[inline]
pub fn bf16_round(x: f32) -> f32 {
    // Guard before touching bits: the mantissa round-up below carries
    // into the exponent/sign for all-ones payloads — e.g. the NaN
    // 0x7FFF_FFFF rounds to 0x8000_7FFF and truncates to -0.0, silently
    // laundering a poisoned value into a finite one.
    if !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    // Round to nearest even on bit 16.
    let lsb = (bits >> 16) & 1;
    let rounded = bits.wrapping_add(0x7FFF + lsb);
    f32::from_bits(rounded & 0xFFFF_0000)
}

/// Applies bf16 rounding to a whole buffer in place.
pub fn bf16_round_slice(data: &mut [f32]) {
    for v in data.iter_mut() {
        *v = bf16_round(*v);
    }
}

/// Stochastic rounding of `x` to the grid `step * k` (k integer): the
/// result is the *unbiased* randomised choice between the two
/// neighbouring grid points — `E[round(x)] == x` — which is the property
/// refs. [46]/[47] identify as critical for low-precision convergence.
#[inline]
pub fn stochastic_round(x: f32, step: f32, rng: &mut TensorRng) -> f32 {
    assert!(step > 0.0, "step must be positive");
    let scaled = x / step;
    let floor = scaled.floor();
    let frac = scaled - floor;
    let up = rng.uniform() < frac as f64;
    (floor + if up { 1.0 } else { 0.0 }) * step
}

/// An 8-bit linearly quantised buffer with a per-buffer scale.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedBuffer {
    /// Quantised values, symmetric around zero (−127..=127).
    pub values: Vec<i8>,
    /// Dequantisation scale: `f32 = i8 as f32 * scale`.
    pub scale: f32,
}

impl QuantizedBuffer {
    /// Quantises with deterministic round-to-nearest (the shared wire
    /// codec from `scidl_tensor::ops`).
    pub fn quantize(data: &[f32]) -> Self {
        let (values, scale) = scidl_tensor::ops::quantize_i8(data);
        Self { values, scale }
    }

    /// Quantises with stochastic rounding (unbiased).
    ///
    /// Matches [`scidl_tensor::ops::quantize_i8`]'s non-finite contract:
    /// a poisoned buffer is reported via the numeric-health sentinel and
    /// returned as zeros with a NaN scale, so dequantisation yields NaN
    /// instead of garbage. (The `f32::max` fold below ignores NaN — so
    /// without the guard a NaN max would quantize every value through a
    /// garbage scale and the poison would vanish from the wire.)
    pub fn quantize_stochastic(data: &[f32], rng: &mut TensorRng) -> Self {
        if let Some((first, count, value)) = scidl_trace::scan_nonfinite(data) {
            scidl_trace::nonfinite_hook("quantize_stochastic", first, count, value);
            return Self {
                values: vec![0; data.len()],
                scale: f32::NAN,
            };
        }
        let max = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
        let values = data
            .iter()
            .map(|&x| {
                let q = stochastic_round(x / scale, 1.0, rng);
                q.clamp(-127.0, 127.0) as i8
            })
            .collect();
        Self { values, scale }
    }

    /// Dequantises into a fresh buffer.
    pub fn dequantize(&self) -> Vec<f32> {
        self.values.iter().map(|&q| q as f32 * self.scale).collect()
    }

    /// Wire size in bytes (values + scale) — a 3.99x shrink vs f32 for
    /// large buffers, the saving Sec. VIII-B's "communicating high-order
    /// bits of weight updates" is after.
    pub fn wire_bytes(&self) -> usize {
        self.values.len() + std::mem::size_of::<f32>()
    }
}

// ---------------------------------------------------------------------------
// The int8 serving path
// ---------------------------------------------------------------------------

/// Quantizes `data` into `out` (same length) with the exact semantics of
/// [`scidl_tensor::ops::quantize_i8`], but writing into caller scratch
/// instead of allocating. Returns the dequantisation scale — NaN when the
/// input is poisoned (values are then all zero and the caller's
/// `0 · NaN` dequantisation propagates the poison).
fn quantize_into(source: &'static str, data: &[f32], out: &mut [i8]) -> f32 {
    debug_assert_eq!(data.len(), out.len());
    if let Some((first, count, value)) = scidl_trace::scan_nonfinite(data) {
        scidl_trace::nonfinite_hook(source, first, count, value);
        out.fill(0);
        return f32::NAN;
    }
    let max = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
    // Multiply by the reciprocal: one divide per tensor instead of one
    // per element (the quantize sweep is on the serving critical path).
    let inv = 1.0 / scale;
    for (o, &x) in out.iter_mut().zip(data) {
        *o = (x * inv).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

/// The int8 serving form of a dense layer: symmetrically quantized
/// weights in the natural `(out, in)` row-major layout — exactly the
/// `B^T` operand [`gemm_i8`] wants — plus the f32 bias applied in the
/// dequantisation epilogue.
pub struct QuantDense {
    input_len: usize,
    output_len: usize,
    /// `(out, in)` row-major quantized weights.
    w_q: Vec<i8>,
    /// Weight dequantisation scale (NaN when the f32 weights were
    /// poisoned — every output then dequantises to NaN).
    w_scale: f32,
    bias: Vec<f32>,
}

impl QuantDense {
    /// Quantizes a dense layer's parameters.
    pub fn new(input_len: usize, output_len: usize, weight: &[f32], bias: &[f32]) -> Self {
        assert_eq!(weight.len(), input_len * output_len);
        assert_eq!(bias.len(), output_len);
        let (w_q, w_scale) = scidl_tensor::ops::quantize_i8(weight);
        Self {
            input_len,
            output_len,
            w_q,
            w_scale,
            bias: bias.to_vec(),
        }
    }

    fn infer(&self, input: &Tensor, scratch: &mut InferScratch) -> Tensor {
        let ishape = input.shape();
        assert_eq!(
            ishape.item_len(),
            self.input_len,
            "quantized dense: item length mismatch"
        );
        let n = ishape.n;
        let (input_len, output_len) = (self.input_len, self.output_len);
        // Dynamic per-batch activation quantization (one scale per call,
        // the per-tensor scheme): X (n x in) → i8.
        scratch.qcol.resize(n * input_len, 0);
        let x_scale = quantize_into("quant.dense.act", input.data(), &mut scratch.qcol);
        // C (n x out) = X_q (n x in) · W_q^T, exact i32.
        scratch.qacc.resize(n * output_len, 0);
        gemm_i8(
            n,
            output_len,
            input_len,
            &scratch.qcol,
            &self.w_q,
            &mut scratch.qacc,
        );
        // Dequantise: y = c * (x_scale * w_scale) + bias. A NaN scale
        // (poisoned input or weights) multiplies the zeroed accumulator
        // into NaN — poison propagates, never launders.
        let scale = x_scale * self.w_scale;
        let mut out = Tensor::zeros(Shape4::new(n, output_len, 1, 1));
        for (row, acc) in out
            .data_mut()
            .chunks_mut(output_len)
            .zip(scratch.qacc.chunks(output_len))
        {
            for ((y, &c), &b) in row.iter_mut().zip(acc).zip(&self.bias) {
                *y = c as f32 * scale + b;
            }
        }
        out
    }
}

/// The int8 serving form of a convolution: quantized `(cout, cin*k*k)`
/// weights fed to [`gemm_i8`] against a quantized-and-transposed im2col
/// buffer — the lowering [`crate::Conv2d`] uses, taken from the same
/// [`Workspace`] pool.
pub struct QuantConv2d {
    conv: ConvSpec,
    /// `(cout, cin*k*k)` row-major quantized weights.
    w_q: Vec<i8>,
    /// Weight dequantisation scale (NaN when poisoned).
    w_scale: f32,
    bias: Vec<f32>,
}

impl QuantConv2d {
    /// Quantizes a convolution's parameters.
    pub fn new(conv: ConvSpec, weight: &[f32], bias: &[f32]) -> Self {
        assert_eq!(weight.len(), conv.cout * conv.cin * conv.k * conv.k);
        assert_eq!(bias.len(), conv.cout);
        let (w_q, w_scale) = scidl_tensor::ops::quantize_i8(weight);
        Self {
            conv,
            w_q,
            w_scale,
            bias: bias.to_vec(),
        }
    }

    fn infer(&self, input: &Tensor, scratch: &mut InferScratch) -> Tensor {
        let ishape = input.shape();
        assert_eq!(ishape.c, self.conv.cin, "quantized conv: channel mismatch");
        let geo = self.conv.geometry(ishape.h, ishape.w);
        let oshape = geo.out_shape(ishape.n);
        let (rows, cols) = (geo.col_rows(), geo.col_cols());
        let mut out = Tensor::zeros(oshape);
        let mut col = Workspace::take(rows * cols);
        scratch.qcol.resize(rows * cols, 0);
        scratch.qacc.resize(self.conv.cout * cols, 0);
        for item in 0..ishape.n {
            im2col(&geo, input.item(item), &mut col);
            // Dynamic per-item activation scale; quantize the (rows x
            // cols) col matrix *transposed* into (cols x rows) so each
            // gemm_i8 dot product streams a contiguous k-run.
            let x_scale = if let Some((first, count, value)) = scidl_trace::scan_nonfinite(&col) {
                scidl_trace::nonfinite_hook("quant.conv.act", first, count, value);
                scratch.qcol.fill(0);
                f32::NAN
            } else {
                let max = col.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
                let inv = 1.0 / scale; // one divide per item, not per element
                for (r, crow) in col.chunks(cols).enumerate() {
                    for (c, &x) in crow.iter().enumerate() {
                        scratch.qcol[c * rows + r] = (x * inv).round().clamp(-127.0, 127.0) as i8;
                    }
                }
                scale
            };
            // C (cout x cols) = W_q (cout x rows) · col_q (rows x cols).
            gemm_i8(
                self.conv.cout,
                cols,
                rows,
                &self.w_q,
                &scratch.qcol,
                &mut scratch.qacc,
            );
            let scale = x_scale * self.w_scale;
            let plane = out.item_mut(item);
            for ((orow, acc), &b) in plane
                .chunks_mut(cols)
                .zip(scratch.qacc.chunks(cols))
                .zip(&self.bias)
            {
                for (y, &c) in orow.iter_mut().zip(acc) {
                    *y = c as f32 * scale + b;
                }
            }
        }
        out
    }
}

/// The int8 serving form of one layer — produced by
/// [`crate::layer::Layer::quantize`], consumed by
/// [`crate::network::Network::infer_quantized_with`].
pub enum QuantLayer {
    /// Quantized dense layer.
    Dense(QuantDense),
    /// Quantized convolution.
    Conv2d(QuantConv2d),
}

impl QuantLayer {
    /// Runs the quantized forward for this layer.
    pub fn infer(&self, input: &Tensor, scratch: &mut InferScratch) -> Tensor {
        match self {
            QuantLayer::Dense(d) => d.infer(input, scratch),
            QuantLayer::Conv2d(c) => c.infer(input, scratch),
        }
    }

    /// Quantized weight bytes held by this layer (i8 values + scale).
    pub fn weight_bytes(&self) -> usize {
        let w = match self {
            QuantLayer::Dense(d) => d.w_q.len(),
            QuantLayer::Conv2d(c) => c.w_q.len(),
        };
        w + std::mem::size_of::<f32>()
    }

    /// The weight dequantisation scale (NaN when the source weights were
    /// poisoned).
    pub fn weight_scale(&self) -> f32 {
        match self {
            QuantLayer::Dense(d) => d.w_scale,
            QuantLayer::Conv2d(c) => c.w_scale,
        }
    }
}

/// The int8 sidecar of a [`crate::network::Network`]: one optional
/// [`QuantLayer`] per f32 layer, in layer order. `None` entries (ReLU,
/// pooling, …) run their f32 [`crate::layer::Layer::infer`] unchanged —
/// only the GEMM-heavy layers carry quantized weights, which is where
/// both the compute and the model bytes live.
pub struct QuantizedNetwork {
    /// Per-layer quantized forms, parallel to the network's layer list.
    pub layers: Vec<Option<QuantLayer>>,
}

impl QuantizedNetwork {
    /// Number of layers that actually run in int8.
    pub fn num_quantized(&self) -> usize {
        self.layers.iter().flatten().count()
    }

    /// Total quantized weight bytes (the model-size shrink a serving
    /// fleet banks when hot-swapping to int8).
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().flatten().map(|q| q.weight_bytes()).sum()
    }

    /// True when any layer's weight scale is non-finite — the quantized
    /// model was built from poisoned f32 weights and every request
    /// through that layer will return NaN.
    pub fn is_poisoned(&self) -> bool {
        self.layers
            .iter()
            .flatten()
            .any(|q| !q.weight_scale().is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bf16_is_idempotent_and_close() {
        for &x in &[0.0f32, 1.0, -1.0, std::f32::consts::PI, 1e-8, 1e8, -123.456] {
            let r = bf16_round(x);
            assert_eq!(bf16_round(r), r, "idempotent at {x}");
            if x != 0.0 {
                let rel = ((r - x) / x).abs();
                assert!(rel < 0.01, "bf16({x}) = {r}, rel err {rel}");
            }
        }
    }

    #[test]
    fn bf16_exact_for_small_integers() {
        for i in -256i32..=256 {
            let x = i as f32;
            assert_eq!(bf16_round(x), x, "{x}");
        }
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        let mut rng = TensorRng::new(3);
        let x = 0.3f32;
        let n = 40_000;
        let mean: f64 = (0..n)
            .map(|_| stochastic_round(x, 1.0, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.3).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn stochastic_rounding_lands_on_grid() {
        let mut rng = TensorRng::new(5);
        for _ in 0..200 {
            let x = rng.uniform_range(-10.0, 10.0) as f32;
            let r = stochastic_round(x, 0.25, &mut rng);
            let k = r / 0.25;
            assert!((k - k.round()).abs() < 1e-4, "{r} not on 0.25 grid");
            assert!((r - x).abs() <= 0.2501, "{r} too far from {x}");
        }
    }

    #[test]
    fn quantize_roundtrip_error_bounded() {
        let mut rng = TensorRng::new(7);
        let data: Vec<f32> = (0..1000)
            .map(|_| rng.uniform_range(-2.0, 2.0) as f32)
            .collect();
        let q = QuantizedBuffer::quantize(&data);
        let back = q.dequantize();
        let max = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let bound = max / 127.0 * 0.51;
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= bound, "{a} vs {b}");
        }
    }

    #[test]
    fn quantize_zero_buffer() {
        let q = QuantizedBuffer::quantize(&[0.0; 8]);
        assert!(q.dequantize().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn stochastic_quantize_mean_preserved() {
        let mut rng = TensorRng::new(11);
        let data = vec![0.013f32; 4096];
        let q = QuantizedBuffer::quantize_stochastic(&data, &mut rng);
        let back = q.dequantize();
        let mean: f64 = back.iter().map(|&x| x as f64).sum::<f64>() / back.len() as f64;
        assert!((mean - 0.013).abs() < 5e-4, "mean {mean}");
    }

    #[test]
    fn wire_bytes_are_one_quarter() {
        let q = QuantizedBuffer::quantize(&vec![1.0f32; 1024]);
        assert_eq!(q.wire_bytes(), 1024 + 4);
    }

    /// End-to-end: a real network trains when every gradient is rounded
    /// to bfloat16 — the numeric regime Sec. VIII-A anticipates for
    /// future low-precision hardware.
    #[test]
    fn bf16_gradients_train_a_real_network() {
        use crate::loss::SoftmaxCrossEntropy;
        use crate::network::Model;
        use crate::solver::{Adam, Solver};
        use scidl_tensor::{Shape4, Tensor};

        let mut rng = TensorRng::new(88);
        let mut net = crate::arch::hep_small(&mut rng);
        let n = 8;
        let mut x = Tensor::zeros(Shape4::new(n, 3, 32, 32));
        let mut labels = vec![0usize; n];
        for (i, label) in labels.iter_mut().enumerate().take(n) {
            *label = i % 2;
            let v = if i % 2 == 0 { 0.8 } else { -0.8 };
            x.item_mut(i).iter_mut().for_each(|p| *p = v);
        }
        let mut solver = Adam::new(1e-2);
        let sizes: Vec<usize> = net.param_blocks().iter().map(|b| b.len()).collect();
        let mut flat = net.flat_params();
        let mut first = None;
        let mut last = 0.0f32;
        for _ in 0..25 {
            net.set_flat_params(&flat);
            net.zero_grads();
            let logits = net.forward(&x);
            let (loss, grad) = SoftmaxCrossEntropy::forward(&logits, &labels);
            net.backward(&grad);
            let mut g = net.flat_grads();
            bf16_round_slice(&mut g); // the low-precision step
            let mut off = 0;
            for (i, &len) in sizes.iter().enumerate() {
                solver.step_block(i, &mut flat[off..off + len], &g[off..off + len]);
                off += len;
            }
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(
            last < first.unwrap() * 0.5,
            "bf16 gradients must still train: {first:?} -> {last}"
        );
    }

    #[test]
    fn bf16_preserves_nonfinite_palette() {
        // Regression: the mantissa round-up used to carry into the
        // exponent/sign — the all-ones NaN 0x7FFF_FFFF rounded to -0.0,
        // laundering poison into a finite value.
        let worst = f32::from_bits(0x7FFF_FFFF);
        assert!(worst.is_nan());
        assert!(bf16_round(worst).is_nan(), "all-ones NaN must stay NaN");
        let neg_worst = f32::from_bits(0xFFFF_FFFF);
        assert!(
            bf16_round(neg_worst).is_nan(),
            "negative all-ones NaN must stay NaN"
        );
        for nan in [
            f32::NAN,
            f32::from_bits(0x7FC0_0001),
            f32::from_bits(0x7F80_0001),
        ] {
            assert!(
                bf16_round(nan).is_nan(),
                "{:#010X} laundered",
                nan.to_bits()
            );
        }
        assert_eq!(bf16_round(f32::INFINITY), f32::INFINITY);
        assert_eq!(bf16_round(f32::NEG_INFINITY), f32::NEG_INFINITY);
        // The slice form goes through the same scalar.
        let mut buf = [1.0f32, worst, f32::INFINITY, -2.0];
        bf16_round_slice(&mut buf);
        assert_eq!(buf[0], 1.0);
        assert!(buf[1].is_nan());
        assert_eq!(buf[2], f32::INFINITY);
    }

    #[test]
    fn stochastic_quantize_matches_deterministic_on_poisoned_input() {
        // Differential: both codecs must surface poison the same way —
        // zero values, NaN scale — so neither path can launder. (The old
        // stochastic fold ignored NaN via f32::max and quantized the
        // buffer through a garbage scale.)
        let mut rng = TensorRng::new(17);
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut data = vec![0.5f32; 64];
            data[13] = poison;
            let det = QuantizedBuffer::quantize(&data);
            let sto = QuantizedBuffer::quantize_stochastic(&data, &mut rng);
            assert!(det.scale.is_nan(), "deterministic scale for {poison}");
            assert!(sto.scale.is_nan(), "stochastic scale for {poison}");
            assert_eq!(
                det.values, sto.values,
                "both must zero the payload for {poison}"
            );
            assert!(sto.values.iter().all(|&v| v == 0));
            // Dequantisation propagates NaN instead of finite garbage.
            assert!(sto.dequantize().iter().all(|x| x.is_nan()));
        }
        // Clean input is unaffected by the guard.
        let clean = QuantizedBuffer::quantize_stochastic(&[0.25f32; 16], &mut rng);
        assert!(clean.scale.is_finite());
    }

    /// End-to-end: SGD on a quadratic still converges when gradients are
    /// stochastically rounded to 8-bit — but diverges from the optimum
    /// when deterministic truncation kills small gradients.
    #[test]
    fn low_precision_sgd_converges_with_stochastic_rounding() {
        let mut rng = TensorRng::new(13);
        let mut w = 4.0f32;
        let lr = 0.05f32;
        for _ in 0..4000 {
            let g = w - 1.0; // minimise (w-1)^2/2
            let q = QuantizedBuffer::quantize_stochastic(&[g], &mut rng);
            let gq = q.dequantize()[0];
            w -= lr * gq;
        }
        assert!((w - 1.0).abs() < 0.1, "w = {w}");
    }

    // -----------------------------------------------------------------
    // int8 serving path
    // -----------------------------------------------------------------

    #[test]
    fn quantized_dense_approximates_f32_dense() {
        use crate::layer::Layer;
        let mut rng = TensorRng::new(91);
        let d = crate::Dense::new("fc", 32, 8, &mut rng);
        let q = d.quantize().expect("dense has a quantized form");
        let x = rng.uniform_tensor(Shape4::new(4, 32, 1, 1), -1.0, 1.0);
        let want = d.infer(&x);
        let got = q.infer(&x, &mut InferScratch::new());
        assert_eq!(want.shape(), got.shape());
        // Two int8 roundings (weights + activations) bound the error by
        // roughly (|x|max/127)·‖w‖ per output; generous envelope here.
        let max_abs = want
            .data()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()))
            .max(1.0);
        for (a, b) in want.data().iter().zip(got.data()) {
            assert!((a - b).abs() < 0.05 * max_abs + 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn quantized_conv_approximates_f32_conv() {
        use crate::layer::Layer;
        let mut rng = TensorRng::new(92);
        let c = crate::Conv2d::new("conv", 3, 8, 3, 1, 1, &mut rng);
        let q = c.quantize().expect("conv has a quantized form");
        let x = rng.uniform_tensor(Shape4::new(2, 3, 8, 8), -1.0, 1.0);
        let want = c.infer(&x);
        let got = q.infer(&x, &mut InferScratch::new());
        assert_eq!(want.shape(), got.shape());
        let max_abs = want
            .data()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()))
            .max(1.0);
        for (a, b) in want.data().iter().zip(got.data()) {
            assert!((a - b).abs() < 0.05 * max_abs + 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn quantized_network_agrees_on_argmax_and_shrinks_weights() {
        use crate::network::Model;
        let mut rng = TensorRng::new(93);
        let net = crate::arch::hep_small(&mut rng);
        let q = net.quantize();
        // hep_small: 4 conv/dense layers quantize, the rest ride f32.
        assert_eq!(q.num_quantized(), 4);
        assert!(!q.is_poisoned());
        // ~4x model shrink on the GEMM layers (i8 vs f32 weights).
        let f32_weight_bytes: usize = net
            .param_blocks()
            .iter()
            .filter(|b| b.name.ends_with(".weight"))
            .map(|b| b.len() * 4)
            .sum();
        assert!(
            q.weight_bytes() * 3 < f32_weight_bytes,
            "{} vs {f32_weight_bytes}",
            q.weight_bytes()
        );
        // Argmax agreement on smooth, well-separated inputs.
        let n = 6;
        let mut x = scidl_tensor::Tensor::zeros(Shape4::new(n, 3, 32, 32));
        for i in 0..n {
            let v = if i % 2 == 0 { 0.8 } else { -0.8 };
            x.item_mut(i).iter_mut().for_each(|p| *p = v);
        }
        let yf = net.infer(&x);
        let yq = net.infer_quantized(&q, &x);
        assert_eq!(yf.shape(), yq.shape());
        let classes = yf.shape().item_len();
        for i in 0..n {
            let amax = |d: &[f32]| {
                d.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(j, _)| j)
            };
            assert_eq!(
                amax(&yf.data()[i * classes..(i + 1) * classes]),
                amax(&yq.data()[i * classes..(i + 1) * classes]),
                "item {i}: argmax must agree on separable input"
            );
        }
    }

    #[test]
    fn quantized_layers_poison_on_nonfinite_input() {
        // The serving-path version of the laundering regression: a NaN
        // entering a quantized layer must come out of that layer as NaN
        // — the activation quantizer emits a NaN scale and zeros, never
        // a finite int8 code. (Scope matches PR 3's contract: the
        // quant/ops codecs never launder. Downstream f32 activations
        // like ReLU have their own, separately-tested semantics.)
        use crate::layer::Layer;
        let mut rng = TensorRng::new(94);
        let mut scratch = InferScratch::new();

        let conv = crate::Conv2d::new("conv", 3, 8, 3, 1, 1, &mut rng);
        let qc = conv.quantize().unwrap();
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut x = rng.uniform_tensor(Shape4::new(2, 3, 8, 8), -1.0, 1.0);
            x.data_mut()[7] = poison;
            let y = qc.infer(&x, &mut scratch);
            // Per-item scales: the clean item must stay finite, every
            // output of the poisoned item must be NaN.
            assert!(
                y.item(0).iter().all(|v| v.is_nan()),
                "conv {poison}: poisoned item must be all-NaN"
            );
            assert!(
                y.item(1).iter().all(|v| v.is_finite()),
                "conv {poison}: clean item must stay finite"
            );
        }

        let dense = crate::Dense::new("fc", 16, 4, &mut rng);
        let qd = dense.quantize().unwrap();
        let mut x = rng.uniform_tensor(Shape4::new(1, 16, 1, 1), -1.0, 1.0);
        x.data_mut()[3] = f32::NAN;
        let y = qd.infer(&x, &mut scratch);
        assert!(
            y.data().iter().all(|v| v.is_nan()),
            "dense: poison must reach every output"
        );
    }

    #[test]
    fn quantized_network_poisoned_weights_flagged() {
        use crate::network::Model;
        let mut rng = TensorRng::new(95);
        let mut net = crate::arch::hep_small(&mut rng);
        let mut flat = net.flat_params();
        flat[3] = f32::NAN;
        net.set_flat_params(&flat);
        let q = net.quantize();
        assert!(
            q.is_poisoned(),
            "NaN weights must surface as a poisoned sidecar"
        );
    }

    #[test]
    fn scratch_reuse_across_quantized_calls_is_deterministic() {
        let mut rng = TensorRng::new(96);
        let net = crate::arch::hep_small(&mut rng);
        let q = net.quantize();
        let x = rng.uniform_tensor(Shape4::new(2, 3, 32, 32), -1.0, 1.0);
        let mut scratch = InferScratch::new();
        let first = net.infer_quantized_with(&q, &x, &mut scratch);
        let second = net.infer_quantized_with(&q, &x, &mut scratch);
        assert_eq!(
            first.data(),
            second.data(),
            "dirty scratch must not change results"
        );
    }
}
