//! Pooling layers: max pooling and global average pooling.
//!
//! The HEP network (Sec. III-A) uses 2x2/stride-2 max pooling after the
//! first four convolutions and global average pooling after the fifth —
//! a deliberate design choice of the paper (no large dense layers) that
//! keeps the model small enough to all-reduce cheaply at scale.

use crate::layer::Layer;
use scidl_tensor::{par, Shape4, Tensor, PAR_CHUNK};

/// Max pooling with square kernel and uniform stride (no padding).
pub struct MaxPool2d {
    name: String,
    k: usize,
    stride: usize,
    /// Index of the argmax within its input plane for every output
    /// element, recorded during forward for the backward scatter — a
    /// `u32`, half the bytes of a flat `usize`.
    argmax: Vec<u32>,
    in_shape: Shape4,
}

impl MaxPool2d {
    /// Creates a max-pool layer; the paper uses `k = stride = 2`.
    pub fn new(name: impl Into<String>, k: usize, stride: usize) -> Self {
        assert!(k > 0 && stride > 0);
        Self { name: name.into(), k, stride, argmax: Vec::new(), in_shape: Shape4::new(0, 0, 0, 0) }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn out_shape(&self, input: Shape4) -> Shape4 {
        assert!(input.h >= self.k && input.w >= self.k, "{}: input smaller than kernel", self.name);
        Shape4::new(
            input.n,
            input.c,
            (input.h - self.k) / self.stride + 1,
            (input.w - self.k) / self.stride + 1,
        )
    }

    fn forward(&mut self, input: Tensor) -> Tensor {
        let is = input.shape();
        let os = self.out_shape(is);
        let mut out = Tensor::zeros(os);
        assert!(u32::try_from(is.plane_len()).is_ok(), "{}: an input plane of {is:?} overflows a u32 argmax", self.name);
        self.argmax.resize(os.len(), 0);
        self.in_shape = is;
        let (k, stride) = (self.k, self.stride);
        let unit = planes_per_unit(is);
        par::for_each_chunk_pair_mut(out.data_mut(), &mut self.argmax, unit * os.plane_len(), |g, odata, argmax| {
            pool_planes(k, stride, &input, os, g * unit, odata, |oi, idx| argmax[oi] = idx as u32);
        });
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let is = input.shape();
        let os = self.out_shape(is);
        let mut out = Tensor::zeros(os);
        let unit = planes_per_unit(is);
        par::for_each_chunk_mut(out.data_mut(), unit * os.plane_len(), |g, odata| {
            pool_planes(self.k, self.stride, input, os, g * unit, odata, |_, _| {});
        });
        out
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        assert_eq!(grad_out.len(), self.argmax.len(), "{}: backward before forward", self.name);
        let mut grad_in = Tensor::zeros(self.in_shape);
        // A plane's outputs scatter into that plane only, in output
        // order, so planes are split across threads like forward. Each
        // unit writes its zeros before it adds: adding reads first, and a
        // read of untouched `calloc` memory maps the shared zero page, so
        // every first write would then be a copy-on-write fault with a
        // TLB shootdown to the other threads' CPUs (3× slower at width 2).
        let (g, argmax) = (grad_out.data(), &self.argmax);
        let iplane = self.in_shape.plane_len();
        let oplane = grad_out.shape().plane_len();
        let group = PAR_CHUNK.div_ceil(iplane);
        par::for_each_chunk_mut(grad_in.data_mut(), group * iplane, |b, gi| {
            let outputs = b * group * oplane..;
            gi.fill(0.0);
            let planes = g[outputs.clone()].chunks(oplane).zip(argmax[outputs].chunks(oplane));
            for (gi, (g, argmax)) in gi.chunks_exact_mut(iplane).zip(planes) {
                for (g, &idx) in g.iter().zip(argmax) {
                    gi[idx as usize] += g;
                }
            }
        });
        grad_in
    }

    fn forward_flops_per_image(&self, input: Shape4) -> u64 {
        // One compare per kernel tap per output element.
        let os = self.out_shape(input.with_n(1));
        (os.len() * self.k * self.k) as u64
    }

    fn backward_flops_per_image(&self, input: Shape4) -> u64 {
        self.out_shape(input.with_n(1)).len() as u64
    }
}

/// Every (item, channel) plane pools on its own; planes are split across
/// threads this many at a time.
fn planes_per_unit(input: Shape4) -> usize {
    PAR_CHUNK.div_ceil(input.plane_len())
}

/// Max-pools consecutive planes of `input`, from plane `first`, into
/// `odata` (whole planes of an output shaped `os`), handing each output's
/// position in `odata` and the index of its maximum within its input
/// plane to `argmax` — the one window scan behind `forward` (which
/// records the index) and `infer` (which drops it, and the compiler with
/// it).
fn pool_planes(
    k: usize,
    stride: usize,
    input: &Tensor,
    os: Shape4,
    first: usize,
    odata: &mut [f32],
    mut argmax: impl FnMut(usize, usize),
) {
    let is = input.shape();
    let mut oi = 0usize;
    for plane in first..first + odata.len() / os.plane_len() {
        let data = &input.data()[plane * is.plane_len()..][..is.plane_len()];
        for oy in 0..os.h {
            for ox in 0..os.w {
                let corner = oy * stride * is.w + ox * stride;
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = corner;
                let mut sum = 0.0f32;
                for ky in 0..k {
                    let row = corner + ky * is.w;
                    for kx in 0..k {
                        let v = data[row + kx];
                        sum += v;
                        if v > best {
                            best = v;
                            best_idx = row + kx;
                        }
                    }
                }
                // `v > best` is false for NaN, which would launder a
                // poisoned window into its largest finite value, or
                // `-inf`: a NaN wins the window and owns the index. The
                // running sum finds one for an add a tap (a test a tap
                // takes the scan half as long again); it is also NaN
                // when `+inf` meets `-inf`, and then the maximum stands.
                if sum.is_nan() {
                    let mut taps = (0..k * k).map(|t| corner + t / k * is.w + t % k);
                    if let Some(i) = taps.find(|&i| data[i].is_nan()) {
                        (best, best_idx) = (data[i], i);
                    }
                }
                odata[oi] = best;
                argmax(oi, best_idx);
                oi += 1;
            }
        }
    }
}

/// Global average pooling: `(n, c, h, w) → (n, c, 1, 1)`.
pub struct GlobalAvgPool {
    name: String,
    in_shape: Shape4,
}

impl GlobalAvgPool {
    /// Creates a global-average-pool layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), in_shape: Shape4::new(0, 0, 0, 0) }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &str {
        &self.name
    }

    fn out_shape(&self, input: Shape4) -> Shape4 {
        Shape4::new(input.n, input.c, 1, 1)
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
        assert_eq!(grad_out.shape(), self.out_shape(is), "{}: grad shape mismatch", self.name);
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

    fn forward_flops_per_image(&self, input: Shape4) -> u64 {
        input.item_len() as u64
    }

    fn backward_flops_per_image(&self, input: Shape4) -> u64 {
        input.item_len() as u64
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
        let x = Tensor::from_vec(
            Shape4::new(1, 1, 2, 2),
            vec![1.0, 9.0, 3.0, 4.0],
        );
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
    fn maxpool_odd_input_truncates() {
        let p = MaxPool2d::new("p", 2, 2);
        assert_eq!(p.out_shape(Shape4::new(1, 1, 5, 5)), Shape4::new(1, 1, 2, 2));
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
