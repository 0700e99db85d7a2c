//! Pooling layers: max pooling and global average pooling.
//!
//! The HEP network (Sec. III-A) uses 2x2/stride-2 max pooling after the
//! first four convolutions and global average pooling after the fifth —
//! a deliberate design choice of the paper (no large dense layers) that
//! keeps the model small enough to all-reduce cheaply at scale.

use crate::activation::rectify;
use crate::layer::{Layer, Part};
use crate::spec::LayerSpec;
use scidl_tensor::{par, Shape4, Tensor, PAR_CHUNK};

/// Bit 7 of a tap record: the output's gradient passes to its tap.
const PASS: u8 = 0x80;
/// Taps a window may have: the tap numbers bits 0–6 of a record hold.
const MAX_TAPS: usize = 128;

/// Max pooling with square kernel and uniform stride (no padding).
///
/// Forward records one byte per output for backward: the tap `ky·k + kx`
/// its maximum came from, and in bit 7 whether the gradient passes.
/// Standalone it always does. When [`crate::Network`] runs a `Conv2d →
/// Relu → MaxPool2d` triple as one pass, the bit is the ReLU's: set iff
/// the pooled value is `> 0.0`, which is the ReLU mask bit of the tap it
/// came from (NaN and `±0` fail, `+inf` passes).
#[derive(Clone)]
pub struct MaxPool2d {
    name: String,
    window: Window,
    /// The last forward's tap record per output.
    taps: Vec<u8>,
    in_shape: Shape4,
}

impl MaxPool2d {
    /// Creates a max-pool layer; the paper uses `k = stride = 2`.
    pub fn new(name: impl Into<String>, k: usize, stride: usize) -> Self {
        assert!(k > 0 && stride > 0);
        assert!(
            k * k <= MAX_TAPS,
            "a {k}x{k} window has more taps than a tap record holds"
        );
        Self {
            name: name.into(),
            window: Window { k, stride },
            taps: Vec::new(),
            in_shape: Shape4::new(0, 0, 0, 0),
        }
    }

    /// The pooling window.
    pub(crate) fn window(&self) -> Window {
        self.window
    }

    /// Starts a forward over an input of shape `input`: the tap records
    /// to fill, one per output.
    pub(crate) fn record(&mut self, input: Shape4) -> &mut [u8] {
        let len = self.out_shape(input).len();
        self.in_shape = input;
        self.taps.resize(len, 0);
        &mut self.taps
    }

    /// The last forward's tap records, for a backward handed an output
    /// gradient of shape `grad_out`.
    pub(crate) fn recorded(&self, grad_out: Shape4) -> &[u8] {
        assert_eq!(
            grad_out.len(),
            self.taps.len(),
            "{}: backward before forward",
            self.name
        );
        &self.taps
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn spec(&self) -> LayerSpec {
        let Window { k, stride } = self.window;
        LayerSpec::MaxPool { k, stride }
    }

    fn forward(&mut self, input: Tensor) -> Tensor {
        let is = input.shape();
        let mut out = Tensor::zeros(self.out_shape(is));
        let window = self.window;
        window.pool::<false>(
            input.data(),
            (is.h, is.w),
            out.data_mut(),
            Some(self.record(is)),
        );
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let is = input.shape();
        let mut out = Tensor::zeros(self.out_shape(is));
        self.window
            .pool::<false>(input.data(), (is.h, is.w), out.data_mut(), None);
        out
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let is = self.in_shape;
        let mut grad_in = Tensor::zeros(is);
        self.window.unpool(
            grad_out.data(),
            self.recorded(grad_out.shape()),
            (is.h, is.w),
            grad_in.data_mut(),
        );
        grad_in
    }

    fn part(&self) -> Option<Part<&crate::Conv2d, &crate::Relu, &MaxPool2d>> {
        Some(Part::Pool(self))
    }

    fn part_mut(&mut self) -> Option<Part<&mut crate::Conv2d, &mut crate::Relu, &mut MaxPool2d>> {
        Some(Part::Pool(self))
    }
}

/// A `k x k` max-pool window every `stride` pixels, without padding: the
/// one window scan and the one scatter behind [`MaxPool2d`] and the fused
/// `Conv2d → Relu → MaxPool2d` pass.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Window {
    pub(crate) k: usize,
    pub(crate) stride: usize,
}

impl Window {
    /// Output height and width for an `h x w` input plane.
    fn out_hw(self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h >= self.k && w >= self.k,
            "a {h}x{w} plane is smaller than a {k}x{k} window",
            k = self.k
        );
        (
            (h - self.k) / self.stride + 1,
            (w - self.k) / self.stride + 1,
        )
    }

    /// Output shape for an input of shape `input`.
    pub(crate) fn out_shape(self, input: Shape4) -> Shape4 {
        let (h, w) = self.out_hw(input.h, input.w);
        Shape4::new(input.n, input.c, h, w)
    }

    /// Max-pools whole `h x w` planes of `input` into `out`, rectifying
    /// every tap first when `RELU`, and writes each output's tap record
    /// into `taps` if given. Planes are split across threads
    /// [`PAR_CHUNK`] input elements at a time.
    pub(crate) fn pool<const RELU: bool>(
        self,
        input: &[f32],
        (h, w): (usize, usize),
        out: &mut [f32],
        taps: Option<&mut [u8]>,
    ) {
        let (oh, ow) = self.out_hw(h, w);
        let planes = PAR_CHUNK.div_ceil(h * w);
        let unit = planes * oh * ow;
        let input = |g: usize| &input[g * planes * h * w..];
        match taps {
            Some(taps) => par::for_each_chunk_pair_mut(out, taps, unit, |g, out, taps| {
                self.scan::<RELU>(input(g), (h, w), out, |o, tap| taps[o] = tap);
            }),
            None => par::for_each_chunk_mut(out, unit, |g, out| {
                self.scan::<RELU>(input(g), (h, w), out, |_, _| {})
            }),
        }
    }

    /// The window scan: pools consecutive planes of `planes` into `out`
    /// (whole output planes), handing each output's position in `out` and
    /// its tap record to `record` — which `infer` drops, and the compiler
    /// with it.
    fn scan<const RELU: bool>(
        self,
        planes: &[f32],
        (h, w): (usize, usize),
        out: &mut [f32],
        mut record: impl FnMut(usize, u8),
    ) {
        let Window { k, stride } = self;
        let (oh, ow) = self.out_hw(h, w);
        let mut o = 0usize;
        for data in planes.chunks(h * w).take(out.len() / (oh * ow)) {
            for oy in 0..oh {
                for ox in 0..ow {
                    let corner = oy * stride * w + ox * stride;
                    let mut best = f32::NEG_INFINITY;
                    let mut best_tap = 0;
                    let mut sum = 0.0f32;
                    for ky in 0..k {
                        for (kx, &v) in data[corner + ky * w..][..k].iter().enumerate() {
                            let v = if RELU { rectify(v) } else { v };
                            sum += v;
                            if v > best {
                                best = v;
                                best_tap = ky * k + kx;
                            }
                        }
                    }
                    // `v > best` is false for NaN, which would launder a
                    // poisoned window into its largest finite value, or
                    // `-inf`: a NaN wins the window and owns the tap. The
                    // running sum finds one for an add a tap (a test a tap
                    // takes the scan half as long again); it is also NaN
                    // when `+inf` meets `-inf`, and then the maximum
                    // stands. `rectify` keeps a NaN's bits, so the raw tap
                    // is the rectified one.
                    if sum.is_nan() {
                        if let Some(t) =
                            (0..k * k).find(|t| data[corner + t / k * w + t % k].is_nan())
                        {
                            (best, best_tap) = (data[corner + t / k * w + t % k], t);
                        }
                    }
                    out[o] = best;
                    let pass = if RELU { best > 0.0 } else { true };
                    record(o, best_tap as u8 | if pass { PASS } else { 0 });
                    o += 1;
                }
            }
        }
    }

    /// The scatter: `grad_in`, whole `h x w` planes, gets `+0.0`, then
    /// each output's gradient from `g` added at its tap wherever its
    /// record passes, in output order. A plane's outputs scatter into that
    /// plane only, so planes are split across threads like [`Window::pool`].
    /// Each unit writes its zeros before it adds: adding reads first, and
    /// a read of untouched `calloc` memory maps the shared zero page, so
    /// every first write would then be a copy-on-write fault with a TLB
    /// shootdown to the other threads' CPUs (3× slower at width 2).
    pub(crate) fn unpool(
        self,
        g: &[f32],
        taps: &[u8],
        (h, w): (usize, usize),
        grad_in: &mut [f32],
    ) {
        let Window { k, stride } = self;
        let (oh, ow) = self.out_hw(h, w);
        let (iplane, oplane) = (h * w, oh * ow);
        // Offset of each tap from its window's corner.
        let mut offset = [0; MAX_TAPS];
        for (t, offset) in offset.iter_mut().enumerate().take(k * k) {
            *offset = t / k * w + t % k;
        }
        let group = PAR_CHUNK.div_ceil(iplane);
        par::for_each_chunk_mut(grad_in, group * iplane, |b, gi| {
            let outputs = b * group * oplane..;
            gi.fill(0.0);
            let planes = g[outputs.clone()]
                .chunks(oplane)
                .zip(taps[outputs].chunks(oplane));
            for (gi, (g, taps)) in gi.chunks_exact_mut(iplane).zip(planes) {
                let mut o = 0;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let tap = taps[o];
                        if tap & PASS != 0 {
                            gi[oy * stride * w + ox * stride + offset[usize::from(tap & !PASS)]] +=
                                g[o];
                        }
                        o += 1;
                    }
                }
            }
        });
    }
}

/// Global average pooling: `(n, c, h, w) → (n, c, 1, 1)`.
#[derive(Clone)]
pub struct GlobalAvgPool {
    name: String,
    in_shape: Shape4,
}

impl GlobalAvgPool {
    /// Creates a global-average-pool layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            in_shape: Shape4::new(0, 0, 0, 0),
        }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &str {
        &self.name
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::GlobalAvgPool
    }

    fn forward(&mut self, input: Tensor) -> Tensor {
        self.in_shape = input.shape();
        self.infer(&input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let is = input.shape();
        let mut out = Tensor::zeros(self.out_shape(is));
        let plane = is.plane_len();
        let inv = 1.0 / plane as f32;
        for n in 0..is.n {
            for c in 0..is.c {
                let base = (n * is.c + c) * plane;
                let s: f32 = input.data()[base..base + plane].iter().sum();
                out.data_mut()[n * is.c + c] = s * inv;
            }
        }
        out
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let is = self.in_shape;
        assert_eq!(
            grad_out.shape(),
            self.out_shape(is),
            "{}: grad shape mismatch",
            self.name
        );
        let mut grad_in = Tensor::zeros(is);
        let plane = is.plane_len();
        let inv = 1.0 / plane as f32;
        for n in 0..is.n {
            for c in 0..is.c {
                let g = grad_out.data()[n * is.c + c] * inv;
                let base = (n * is.c + c) * plane;
                for v in &mut grad_in.data_mut()[base..base + plane] {
                    *v = g;
                }
            }
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scidl_tensor::TensorRng;

    #[test]
    fn maxpool_2x2_basic() {
        let mut p = MaxPool2d::new("p", 2, 2);
        let x = Tensor::from_vec(
            Shape4::new(1, 1, 4, 4),
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.5, //
                -3.0, -4.0, 0.25, 0.75,
            ],
        );
        let y = p.forward(x);
        assert_eq!(y.shape(), Shape4::new(1, 1, 2, 2));
        assert_eq!(y.data(), &[4.0, 8.0, -1.0, 0.75]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut p = MaxPool2d::new("p", 2, 2);
        let x = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 9.0, 3.0, 4.0]);
        p.forward(x);
        let g = Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![5.0]);
        let gx = p.backward(g);
        assert_eq!(gx.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_gradient_check() {
        let mut rng = TensorRng::new(7);
        let mut p = MaxPool2d::new("p", 2, 2);
        let x = rng.uniform_tensor(Shape4::new(2, 3, 6, 6), -1.0, 1.0);
        let y = p.forward(x);
        let ones = Tensor::filled(y.shape(), 1.0);
        let gx = p.backward(ones);
        // Sum of input grads equals number of output elements (each output
        // routes exactly one unit of gradient).
        assert!((gx.sum() - y.len() as f32).abs() < 1e-3);
    }

    #[test]
    fn maxpool_records_every_tap_of_an_11x11_window() {
        // 121 taps, the widest square window a 7-bit tap number holds;
        // the maximum sits on the last tap.
        let mut p = MaxPool2d::new("p", 11, 11);
        let x = Tensor::from_vec(
            Shape4::new(1, 1, 11, 11),
            (0..121).map(|i| i as f32).collect(),
        );
        assert_eq!(p.forward(x).data(), &[120.0]);
        let gx = p.backward(Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![2.0]));
        assert_eq!((gx.data()[120], gx.sum()), (2.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "more taps than a tap record holds")]
    fn maxpool_rejects_a_window_wider_than_a_tap_record() {
        MaxPool2d::new("p", 12, 2);
    }

    #[test]
    fn maxpool_odd_input_truncates() {
        let p = MaxPool2d::new("p", 2, 2);
        assert_eq!(
            p.out_shape(Shape4::new(1, 1, 5, 5)),
            Shape4::new(1, 1, 2, 2)
        );
    }

    #[test]
    fn gap_averages_planes() {
        let mut g = GlobalAvgPool::new("gap");
        let x = Tensor::from_vec(
            Shape4::new(1, 2, 2, 2),
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
        );
        let y = g.forward(x.clone());
        assert_eq!(y.shape(), Shape4::new(1, 2, 1, 1));
        assert_eq!(y.data(), &[2.5, 25.0]);
    }

    #[test]
    fn gap_backward_spreads_uniformly() {
        let mut g = GlobalAvgPool::new("gap");
        let x = Tensor::filled(Shape4::new(1, 1, 2, 2), 3.0);
        g.forward(x.clone());
        let dy = Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![8.0]);
        let dx = g.backward(dy);
        assert_eq!(dx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn gap_finite_difference() {
        let mut rng = TensorRng::new(3);
        let mut g = GlobalAvgPool::new("gap");
        let x = rng.uniform_tensor(Shape4::new(1, 2, 3, 3), -1.0, 1.0);
        let y = g.forward(x.clone());
        let ones = Tensor::filled(y.shape(), 1.0);
        let dx = g.backward(ones);
        let eps = 1e-3f32;
        for idx in [0usize, 8, 17] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = g.forward(xp).sum();
            let lm = g.forward(xm).sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((dx.data()[idx] - num).abs() < 1e-2);
        }
    }
}
