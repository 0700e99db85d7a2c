//! The col matrix of a convolution, and its adjoint scatter.
//!
//! A convolution over an NCHW image is a GEMM against the image's
//! receptive fields unrolled into columns: the `(C*KH*KW) x (OH*OW)`
//! "col" matrix, multiplied by the `(COUT) x (C*KH*KW)` filter matrix.
//! The layers never write that matrix out: `ColView` reads any run of
//! one of its rows straight from the image, and the GEMM's B packing
//! ([`crate::BSource::Im2col`]) gathers its panels through it. [`col2im`]
//! is the adjoint scatter-add behind backward-data — and, per the paper's
//! trick (Sec. III-C), behind the *forward* pass of deconvolution layers —
//! which [`crate::PackedA::gemm_col2im`] runs one channel group at a time.
//!
//! [`im2col`] writes the whole matrix. It is the reference the panel
//! gather is tested against bit for bit, and what the int8 conv and the
//! lowering rows of `scidl-bench kernels` still call.

use crate::shape::Shape4;
use crate::{par, PAR_CHUNK};

/// Geometry of a 2-D convolution: input plane, kernel, stride and padding.
///
/// The same geometry object describes the matching deconvolution (whose
/// forward pass is this convolution's backward-data pass).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Symmetric zero padding on each border.
    pub pad: usize,
}

impl ConvGeometry {
    /// Creates a square-kernel geometry.
    pub fn new(cin: usize, cout: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> Self {
        assert!(k > 0 && stride > 0, "kernel and stride must be positive");
        Self { cin, cout, h, w, kh: k, kw: k, stride, pad }
    }

    /// Output height: `(h + 2*pad - kh) / stride + 1`.
    #[inline]
    pub fn out_h(&self) -> usize {
        assert!(
            self.h + 2 * self.pad >= self.kh,
            "kernel {}x{} larger than padded input {}x{}",
            self.kh,
            self.kw,
            self.h + 2 * self.pad,
            self.w + 2 * self.pad
        );
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width.
    #[inline]
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Shape of a single input item `(1, cin, h, w)`.
    pub fn in_shape(&self, n: usize) -> Shape4 {
        Shape4::new(n, self.cin, self.h, self.w)
    }

    /// Shape of a single output item `(1, cout, out_h, out_w)`.
    pub fn out_shape(&self, n: usize) -> Shape4 {
        Shape4::new(n, self.cout, self.out_h(), self.out_w())
    }

    /// Rows of the col matrix: `cin * kh * kw`.
    #[inline]
    pub fn col_rows(&self) -> usize {
        self.cin * self.kh * self.kw
    }

    /// Columns of the col matrix: `out_h * out_w`.
    #[inline]
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Multiply-accumulate count of the convolution forward pass for a
    /// single image. FLOPs are conventionally `2 *` this (mul + add), which
    /// is what the paper's SDE-based counting reports for these kernels.
    #[inline]
    pub fn macs_per_image(&self) -> u64 {
        (self.cout as u64) * (self.col_rows() as u64) * (self.col_cols() as u64)
    }
}

/// Output columns `lo..hi` of one col-matrix row whose tap `kx` lands
/// inside the image row (`0 <= ox*stride + kx - pad < w`); the columns on
/// either side read padding. Depends on `kx` only, not on the output row.
fn valid_cols(geo: &ConvGeometry, kx: usize, ow: usize) -> (usize, usize) {
    let lo = geo.pad.saturating_sub(kx).div_ceil(geo.stride).min(ow);
    let hi = (geo.w + geo.pad).saturating_sub(kx).div_ceil(geo.stride).clamp(lo, ow);
    (lo, hi)
}

/// The col matrix of one image read in place: row `r` is the tap `(c, ky,
/// kx)` (`r = (c * kh + ky) * kw + kx`), column `q` the output pixel `(oy,
/// ox)` (`q = oy * out_w + ox`), and every element is the image value
/// [`im2col`] would write there, or `+0.0` for a padding tap.
#[derive(Clone, Copy)]
pub(crate) struct ColView<'a> {
    geo: &'a ConvGeometry,
    image: &'a [f32],
    ow: usize,
}

impl<'a> ColView<'a> {
    pub(crate) fn new(geo: &'a ConvGeometry, image: &'a [f32]) -> Self {
        assert_eq!(image.len(), geo.cin * geo.h * geo.w, "image length mismatch");
        Self { geo, image, ow: geo.out_w() }
    }

    /// The output pixel `(oy, ox)` of col column `q`.
    pub(crate) fn pixel(&self, q: usize) -> (usize, usize) {
        (q / self.ow, q % self.ow)
    }

    /// The taps of col rows `r0, r0 + 1, ...` in order, one increment per
    /// row instead of a division.
    pub(crate) fn taps(&self, r0: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        let (kh, kw) = (self.geo.kh, self.geo.kw);
        let (mut c, mut ky, mut kx) = (r0 / (kh * kw), r0 % (kh * kw) / kw, r0 % kw);
        std::iter::from_fn(move || {
            let tap = (c, ky, kx);
            kx += 1;
            if kx == kw {
                (kx, ky) = (0, ky + 1);
                if ky == kh {
                    (ky, c) = (0, c + 1);
                }
            }
            Some(tap)
        })
    }

    /// Writes `out[i] = col[tap][pixel + i]`, running on across output
    /// rows. Each output row's share is `zeros | a run of one image row |
    /// zeros`, as in [`im2col`]: a slice copy at stride 1, otherwise a
    /// gather that reads `+0.0` outside the image row.
    pub(crate) fn gather(&self, (c, ky, kx): (usize, usize, usize), (mut oy, mut ox): (usize, usize), mut out: &mut [f32]) {
        let ConvGeometry { h, w, stride, pad, .. } = *self.geo;
        let plane = &self.image[c * h * w..][..h * w];
        while !out.is_empty() {
            let len = (self.ow - ox).min(out.len());
            let (run, rest) = std::mem::take(&mut out).split_at_mut(len);
            let iy = (oy * stride + ky).wrapping_sub(pad);
            if iy >= h {
                run.fill(0.0);
            } else {
                let row = &plane[iy * w..][..w];
                // `run[i]` reads image column `x0 + i * stride - pad`.
                let x0 = ox * stride + kx;
                if stride == 1 {
                    let lo = pad.saturating_sub(x0).min(run.len());
                    let hi = (w + pad).saturating_sub(x0).clamp(lo, run.len());
                    run[..lo].fill(0.0);
                    if lo < hi {
                        run[lo..hi].copy_from_slice(&row[x0 + lo - pad..][..hi - lo]);
                    }
                    run[hi..].fill(0.0);
                } else {
                    for (i, d) in run.iter_mut().enumerate() {
                        let ix = (x0 + i * stride).wrapping_sub(pad);
                        *d = if ix < w { row[ix] } else { 0.0 };
                    }
                }
            }
            (out, oy, ox) = (rest, oy + 1, 0);
        }
    }
}

/// Unrolls one image (`cin * h * w`, NCHW item) into the col matrix
/// (`col_rows() x col_cols()`, row-major). `col` must be exactly that size.
/// Out-of-bounds (padding) taps are written as zero.
///
/// Each output row of each tap is `zeros | a run of one image row |
/// zeros`: at stride 1 the run is contiguous and moves as one slice copy,
/// otherwise it is a strided gather — either way with no per-element
/// bounds test. A channel's `kh * kw` col rows depend on that channel's
/// plane alone, so channels are split across threads.
pub fn im2col(geo: &ConvGeometry, image: &[f32], col: &mut [f32]) {
    assert_eq!(image.len(), geo.cin * geo.h * geo.w, "image length mismatch");
    assert_eq!(col.len(), geo.col_rows() * geo.col_cols(), "col length mismatch");
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let (w, stride, pad) = (geo.w, geo.stride, geo.pad);
    let (plane_len, per_channel) = (geo.h * w, geo.kh * geo.kw * oh * ow);

    let group = PAR_CHUNK.div_ceil(per_channel);
    par::for_each_chunk_mut(col, group * per_channel, |g, col| {
        let mut rows = col.chunks_exact_mut(ow);
        for c in g * group..geo.cin.min((g + 1) * group) {
            let plane = &image[c * plane_len..][..plane_len];
            for ky in 0..geo.kh {
                for kx in 0..geo.kw {
                    let (lo, hi) = valid_cols(geo, kx, ow);
                    for (oy, dst) in rows.by_ref().take(oh).enumerate() {
                        let iy = (oy * stride + ky).wrapping_sub(pad);
                        if iy >= geo.h || lo == hi {
                            dst.fill(0.0);
                            continue;
                        }
                        let src = &plane[iy * w + lo * stride + kx - pad..(iy + 1) * w];
                        dst[..lo].fill(0.0);
                        if stride == 1 {
                            dst[lo..hi].copy_from_slice(&src[..hi - lo]);
                        } else {
                            for (d, &v) in dst[lo..hi].iter_mut().zip(src.iter().step_by(stride)) {
                                *d = v;
                            }
                        }
                        dst[hi..].fill(0.0);
                    }
                }
            }
        }
    });
}

/// Adjoint of [`im2col`]: scatter-adds a col matrix back into an image
/// buffer (`cin * h * w`). The image buffer is *accumulated into*, not
/// overwritten — callers zero it first when appropriate.
///
/// Rows are visited in the order [`im2col`] writes them, so every image
/// element receives its contributions in one fixed order; at stride 1
/// each row is a contiguous slice add. A channel's plane only receives
/// that channel's col rows, so channels are split across threads without
/// touching that order.
pub fn col2im(geo: &ConvGeometry, col: &[f32], image: &mut [f32]) {
    assert_eq!(image.len(), geo.cin * geo.h * geo.w, "image length mismatch");
    assert_eq!(col.len(), geo.col_rows() * geo.col_cols(), "col length mismatch");
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let (w, stride, pad) = (geo.w, geo.stride, geo.pad);
    let (plane_len, per_channel) = (geo.h * w, geo.kh * geo.kw * oh * ow);
    if image.is_empty() {
        return;
    }

    let group = PAR_CHUNK.div_ceil(per_channel);
    par::for_each_chunk_mut(image, group * plane_len, |g, image| {
        let mut rows = col[g * group * per_channel..].chunks_exact(ow);
        for plane in image.chunks_exact_mut(plane_len) {
            for ky in 0..geo.kh {
                for kx in 0..geo.kw {
                    let (lo, hi) = valid_cols(geo, kx, ow);
                    for (oy, src) in rows.by_ref().take(oh).enumerate() {
                        let iy = (oy * stride + ky).wrapping_sub(pad);
                        if iy >= geo.h || lo == hi {
                            continue;
                        }
                        let dst = &mut plane[iy * w + lo * stride + kx - pad..(iy + 1) * w];
                        if stride == 1 {
                            for (d, &v) in dst.iter_mut().zip(&src[lo..hi]) {
                                *d += v;
                            }
                        } else {
                            for (d, &v) in dst.iter_mut().step_by(stride).zip(&src[lo..hi]) {
                                *d += v;
                            }
                        }
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The element-at-a-time lowering the row copies replaced, kept as
    /// the reference they must match bit for bit: one bounds test per tap.
    fn im2col_ref(geo: &ConvGeometry, image: &[f32], col: &mut [f32]) {
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let (h, w) = (geo.h as isize, geo.w as isize);
        let pad = geo.pad as isize;
        let stride = geo.stride as isize;

        let mut row = 0usize;
        for c in 0..geo.cin {
            let plane = &image[c * geo.h * geo.w..(c + 1) * geo.h * geo.w];
            for ky in 0..geo.kh as isize {
                for kx in 0..geo.kw as isize {
                    let out_row = &mut col[row * oh * ow..(row + 1) * oh * ow];
                    let mut idx = 0usize;
                    for oy in 0..oh as isize {
                        let iy = oy * stride + ky - pad;
                        for ox in 0..ow as isize {
                            let ix = ox * stride + kx - pad;
                            out_row[idx] = if iy < 0 || iy >= h || ix < 0 || ix >= w {
                                0.0
                            } else {
                                plane[iy as usize * geo.w + ix as usize]
                            };
                            idx += 1;
                        }
                    }
                    row += 1;
                }
            }
        }
    }

    /// Reference for [`col2im`], same tap order as [`im2col_ref`].
    fn col2im_ref(geo: &ConvGeometry, col: &[f32], image: &mut [f32]) {
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let (h, w) = (geo.h as isize, geo.w as isize);
        let pad = geo.pad as isize;
        let stride = geo.stride as isize;

        let mut row = 0usize;
        for c in 0..geo.cin {
            let plane = &mut image[c * geo.h * geo.w..(c + 1) * geo.h * geo.w];
            for ky in 0..geo.kh as isize {
                for kx in 0..geo.kw as isize {
                    let in_row = &col[row * oh * ow..(row + 1) * oh * ow];
                    let mut idx = 0usize;
                    for oy in 0..oh as isize {
                        let iy = oy * stride + ky - pad;
                        for ox in 0..ow as isize {
                            let ix = ox * stride + kx - pad;
                            if iy >= 0 && iy < h && ix >= 0 && ix < w {
                                plane[iy as usize * geo.w + ix as usize] += in_row[idx];
                            }
                            idx += 1;
                        }
                    }
                    row += 1;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn row_copies_match_elementwise_reference(
            cin in 1usize..3,
            h in 1usize..9,
            w in 1usize..9,
            k_sel in 0usize..3,
            stride in 1usize..3,
            pad_sel in 0usize..5,
            seed in any::<u64>(),
        ) {
            // pad ranges over 0..k, so small images see pad >= w (rows
            // that are padding end to end) and 1x1 images are included.
            let k = [1usize, 3, 5][k_sel];
            let pad = pad_sel % k;
            prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let geo = ConvGeometry::new(cin, 1, h, w, k, stride, pad);
            let ilen = cin * h * w;
            let clen = geo.col_rows() * geo.col_cols();
            let mut rng = crate::TensorRng::new(seed);
            let x: Vec<f32> = (0..ilen).map(|_| rng.uniform_range(-1.0, 1.0) as f32).collect();
            let y: Vec<f32> = (0..clen).map(|_| rng.uniform_range(-1.0, 1.0) as f32).collect();

            // Stale contents must be fully overwritten.
            let (mut cx, mut cx_ref) = (vec![f32::NAN; clen], vec![f32::NAN; clen]);
            im2col(&geo, &x, &mut cx);
            im2col_ref(&geo, &x, &mut cx_ref);
            for (i, (a, b)) in cx.iter().zip(&cx_ref).enumerate() {
                prop_assert!(a.to_bits() == b.to_bits(), "{geo:?} col[{i}]: {a} vs {b}");
            }

            // Accumulated into, in the reference's order per element.
            let (mut xy, mut xy_ref) = (x.clone(), x.clone());
            col2im(&geo, &y, &mut xy);
            col2im_ref(&geo, &y, &mut xy_ref);
            for (i, (a, b)) in xy.iter().zip(&xy_ref).enumerate() {
                prop_assert!(a.to_bits() == b.to_bits(), "{geo:?} image[{i}]: {a} vs {b}");
            }

            // <im2col(x), y> = <x, col2im(y)> with col2im into zeros.
            let mut adj = vec![0.0f32; ilen];
            col2im(&geo, &y, &mut adj);
            let lhs: f64 = cx.iter().zip(&y).map(|(a, b)| *a as f64 * *b as f64).sum();
            let rhs: f64 = x.iter().zip(&adj).map(|(a, b)| *a as f64 * *b as f64).sum();
            prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()), "{geo:?}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn output_dims() {
        let g = ConvGeometry::new(3, 128, 224, 224, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (224, 224));
        let g2 = ConvGeometry::new(16, 64, 768, 768, 5, 2, 2);
        assert_eq!((g2.out_h(), g2.out_w()), (384, 384));
        let g3 = ConvGeometry::new(1, 1, 5, 5, 3, 1, 0);
        assert_eq!((g3.out_h(), g3.out_w()), (3, 3));
    }

    #[test]
    fn macs_match_formula() {
        let g = ConvGeometry::new(3, 128, 224, 224, 3, 1, 1);
        assert_eq!(g.macs_per_image(), 128 * 3 * 9 * 224 * 224);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: col matrix equals the image.
        let g = ConvGeometry::new(2, 1, 3, 3, 1, 1, 0);
        let image: Vec<f32> = (0..18).map(|i| i as f32).collect();
        let mut col = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(&g, &image, &mut col);
        assert_eq!(col, image);
    }

    #[test]
    fn im2col_3x3_no_pad() {
        // Single channel 3x3 image, 3x3 kernel, output 1x1: the col matrix
        // is the image flattened.
        let g = ConvGeometry::new(1, 1, 3, 3, 3, 1, 0);
        let image: Vec<f32> = (1..=9).map(|i| i as f32).collect();
        let mut col = vec![0.0; 9];
        im2col(&g, &image, &mut col);
        assert_eq!(col, image);
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        // 1x1 image, 3x3 kernel, pad 1: only the centre tap is non-zero.
        let g = ConvGeometry::new(1, 1, 1, 1, 3, 1, 1);
        let image = vec![5.0];
        let mut col = vec![-1.0; 9];
        im2col(&g, &image, &mut col);
        let expect = vec![0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(col, expect);
    }

    #[test]
    fn im2col_stride2() {
        let g = ConvGeometry::new(1, 1, 4, 4, 2, 2, 0);
        let image: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut col = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(&g, &image, &mut col);
        // Rows = 4 kernel taps, cols = 4 output positions.
        // Tap (0,0) sees image[0], image[2], image[8], image[10].
        assert_eq!(&col[0..4], &[0.0, 2.0, 8.0, 10.0]);
        // Tap (1,1) sees image[5], image[7], image[13], image[15].
        assert_eq!(&col[12..16], &[5.0, 7.0, 13.0, 15.0]);
    }

    /// col2im(im2col(x)) multiplies each pixel by the number of receptive
    /// fields it participates in; for a 1x1 kernel that count is 1.
    #[test]
    fn col2im_is_adjoint_of_im2col_1x1() {
        let g = ConvGeometry::new(2, 1, 4, 4, 1, 1, 0);
        let image: Vec<f32> = (0..32).map(|i| i as f32 * 0.5).collect();
        let mut col = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(&g, &image, &mut col);
        let mut back = vec![0.0; image.len()];
        col2im(&g, &col, &mut back);
        assert_eq!(back, image);
    }

    /// Adjoint property: <im2col(x), y> == <x, col2im(y)> for all x, y.
    #[test]
    fn adjoint_inner_product_identity() {
        let g = ConvGeometry::new(2, 3, 5, 6, 3, 2, 1);
        let ilen = g.cin * g.h * g.w;
        let clen = g.col_rows() * g.col_cols();
        let x: Vec<f32> = (0..ilen).map(|i| ((i * 37 + 11) % 17) as f32 - 8.0).collect();
        let y: Vec<f32> = (0..clen).map(|i| ((i * 53 + 3) % 13) as f32 - 6.0).collect();

        let mut cx = vec![0.0; clen];
        im2col(&g, &x, &mut cx);
        let lhs: f64 = cx.iter().zip(&y).map(|(a, b)| (*a as f64) * (*b as f64)).sum();

        let mut xy = vec![0.0; ilen];
        col2im(&g, &y, &mut xy);
        let rhs: f64 = x.iter().zip(&xy).map(|(a, b)| (*a as f64) * (*b as f64)).sum();

        assert!((lhs - rhs).abs() < 1e-6, "adjoint violated: {lhs} vs {rhs}");
    }

    #[test]
    #[should_panic(expected = "image length mismatch")]
    fn im2col_rejects_bad_image() {
        let g = ConvGeometry::new(1, 1, 3, 3, 3, 1, 0);
        let mut col = vec![0.0; 9];
        im2col(&g, &[0.0; 8], &mut col);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn oversized_kernel_panics() {
        let g = ConvGeometry::new(1, 1, 2, 2, 5, 1, 0);
        let _ = g.out_h();
    }
}
