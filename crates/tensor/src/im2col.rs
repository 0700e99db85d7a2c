//! The col matrix of a convolution, and its adjoint scatter.
//!
//! A convolution over an NCHW image is a GEMM against the image's
//! receptive fields unrolled into columns: the `(C*KH*KW) x (OH*OW)`
//! "col" matrix, multiplied by the `(COUT) x (C*KH*KW)` filter matrix.
//! The layers never write that matrix out. Every reader of it — both
//! B-packing layouts of [`crate::BSource::Im2col`], the scatter of
//! [`crate::PackedA::gemm_col2im`], and [`im2col`]/[`col2im`] — sees it
//! through one view, `Planes`: the image split into its `stride x
//! stride` *phase planes*, each with its zero border, built once per
//! block of a product's `KC` slab (per channel group in the scatter).
//! In a phase plane, output row `oy` of any col row is `out_w`
//! consecutive values of one plane row, padding included, so each
//! col-row segment moves as one contiguous run: no per-element stride,
//! no bounds test per tap and no zero fill around a run. At stride 1
//! the one plane is the zero-padded image.
//!
//! The view only moves values: padding reads `+0.0` and every image value
//! its own bits, so a product over it is bit for bit a product over the
//! written-out matrix. The scatter adds into the planes (which start as a
//! copy of the image), visits col rows in the `(c, ky, kx, oy)` order the
//! element loop does and writes the image values back, so every image
//! element receives the same adds onto the same value in the same order.
//! [`col2im`] is the adjoint scatter-add behind backward-data — and, per
//! the paper's trick (Sec. III-C), behind the *forward* pass of
//! deconvolution layers.
//!
//! [`im2col`] writes the whole matrix: what the int8 conv, the small-work
//! GEMM path and the lowering rows of `scidl-bench kernels` call. Both it
//! and [`col2im`] are tested against the element-at-a-time loops in
//! `reference`, bit for bit.

use crate::shape::Shape4;
use crate::workspace::Workspace;
use crate::{par, PAR_CHUNK};
use std::ops::Range;

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
    pub fn new(
        cin: usize,
        cout: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert!(k > 0 && stride > 0, "kernel and stride must be positive");
        Self {
            cin,
            cout,
            h,
            w,
            kh: k,
            kw: k,
            stride,
            pad,
        }
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

/// The col matrix of some channels of one image, read as runs of its
/// phase planes.
///
/// Pad the image with its zero border and split it by the residues of
/// row and column modulo the stride `s`: phase plane `(ry, rx)` of
/// channel `c` holds padded pixel `(a·s + ry, b·s + rx)` at `(a, b)`. Col
/// row `(c, ky, kx)` at output row `oy` then reads plane `(ky % s, kx %
/// s)`, row `oy + ky / s`, columns `kx / s ..` — `out_w` consecutive
/// values, padding included — so every col-row segment is one contiguous
/// run of one plane row. At stride 1 the one plane is the zero-padded
/// image. Only the phases some tap reads exist (`min(s, k)` per axis),
/// and only the plane rows of the output rows a caller reads.
///
/// The planes are a copy: [`Planes::split`] moves every value there
/// unchanged (padding as `+0.0`), and [`Planes::merge`] moves the image's
/// values back, so a scatter-add into the runs between the two gives
/// every image element the adds it would get in place, in the same order.
pub(crate) struct Planes<'a> {
    geo: ConvGeometry,
    /// First output row served: plane row `oy0 + ky / s` holds row 0 of
    /// the col rows with tap row `ky`.
    oy0: usize,
    /// Output row width, plane rows held and the width of a plane row.
    ow: usize,
    rows: usize,
    pw: usize,
    /// Phases held per axis.
    py: usize,
    px: usize,
    buf: &'a mut [f32],
}

impl<'a> Planes<'a> {
    /// Floats of scratch the planes of `chans` channels for output rows
    /// `oys` take: the length of the buffer [`Planes::split`] fills.
    pub(crate) fn scratch_len(geo: &ConvGeometry, chans: usize, oys: &Range<usize>) -> usize {
        let s = geo.stride;
        let (rows, pw) = (oys.len() + (geo.kh - 1) / s, geo.out_w() + (geo.kw - 1) / s);
        chans * s.min(geo.kh) * s.min(geo.kw) * rows * pw
    }

    /// The planes of the channels `image` holds (whole planes, `chans`
    /// of them), for output rows `oys`, written into `buf`
    /// ([`Planes::scratch_len`] floats, stale contents allowed).
    pub(crate) fn split(
        geo: &ConvGeometry,
        image: &[f32],
        chans: usize,
        oys: Range<usize>,
        buf: &'a mut [f32],
    ) -> Self {
        let (h, w, s, pad) = (geo.h, geo.w, geo.stride, geo.pad);
        assert_eq!(image.len(), chans * h * w, "image length mismatch");
        assert_eq!(
            buf.len(),
            Self::scratch_len(geo, chans, &oys),
            "planes scratch length mismatch"
        );
        let (py, px) = (s.min(geo.kh), s.min(geo.kw));
        let ow = geo.out_w();
        let (rows, pw) = (oys.len() + (geo.kh - 1) / s, ow + (geo.kw - 1) / s);
        // The border first, in one sweep; then each plane row's run of
        // image values.
        buf.fill(0.0);
        for (img, planes) in image
            .chunks_exact(h * w)
            .zip(buf.chunks_exact_mut(py * px * rows * pw))
        {
            for (phase, dst) in planes.chunks_exact_mut(rows * pw).enumerate() {
                let (ry, rx) = (phase / px, phase % px);
                let (lo, hi) = Self::span(geo, rx, pw);
                if lo == hi {
                    continue;
                }
                for (a, dst) in (oys.start..).zip(dst.chunks_exact_mut(pw)) {
                    let y = (a * s + ry).wrapping_sub(pad);
                    if y < h {
                        copy_from_every(
                            s,
                            &img[y * w + lo * s + rx - pad..(y + 1) * w],
                            &mut dst[lo..hi],
                        );
                    }
                }
            }
        }
        Self {
            geo: *geo,
            oy0: oys.start,
            ow,
            rows,
            pw,
            py,
            px,
            buf,
        }
    }

    /// Plane columns `lo..hi` of phase `rx` that hold image columns; the
    /// others hold padding.
    fn span(geo: &ConvGeometry, rx: usize, pw: usize) -> (usize, usize) {
        let lo = geo.pad.saturating_sub(rx).div_ceil(geo.stride).min(pw);
        let hi = (geo.w + geo.pad)
            .saturating_sub(rx)
            .div_ceil(geo.stride)
            .clamp(lo, pw);
        (lo, hi)
    }

    /// Where the col rows `r0, r0 + 1, ...` (`r0` counted from the first
    /// channel held) start: each one's run at the first output row
    /// served. One increment per row instead of a division.
    pub(crate) fn col_rows(&self, r0: usize) -> impl Iterator<Item = usize> {
        let ConvGeometry {
            kh, kw, stride: s, ..
        } = self.geo;
        let (plane, pw, py, px) = (self.rows * self.pw, self.pw, self.py, self.px);
        let (c, ky, kx) = (r0 / (kh * kw), r0 % (kh * kw) / kw, r0 % kw);
        // (ky, kx) as phase and offset: ky = qy·s + ry, kx = qx·s + rx.
        let (mut c, mut ky, mut kx, mut ry, mut qy, mut rx, mut qx) =
            (c, ky, kx, ky % s, ky / s, kx % s, kx / s);
        std::iter::from_fn(move || {
            let at = ((c * py + ry) * px + rx) * plane + qy * pw + qx;
            (kx, rx) = (kx + 1, rx + 1);
            if rx == s {
                (rx, qx) = (0, qx + 1);
            }
            if kx == kw {
                (kx, rx, qx, ky, ry) = (0, 0, 0, ky + 1, ry + 1);
                if ry == s {
                    (ry, qy) = (0, qy + 1);
                }
                if ky == kh {
                    (ky, ry, qy, c) = (0, 0, 0, c + 1);
                }
            }
            Some(at)
        })
    }

    /// The output pixel `(oy, ox)` of col column `q`.
    pub(crate) fn pixel(&self, q: usize) -> (usize, usize) {
        (q / self.ow, q % self.ow)
    }

    /// Output row `oy` of the col row that starts at `row`: `out_w`
    /// values.
    pub(crate) fn run(&self, row: usize, oy: usize) -> &[f32] {
        &self.buf[row + (oy - self.oy0) * self.pw..][..self.ow]
    }

    /// [`Planes::run`], writable.
    fn run_mut(&mut self, row: usize, oy: usize) -> &mut [f32] {
        let at = row + (oy - self.oy0) * self.pw;
        &mut self.buf[at..][..self.ow]
    }

    /// The planes' values: a col row's segment is
    /// `values()[row + offset..][..len]`.
    pub(crate) fn values(&self) -> &[f32] {
        self.buf
    }

    /// The segments of any col row from output pixel `(oy, ox)` on, `len`
    /// values — one per output row they touch: each its offset from the
    /// col row's start, and its length.
    pub(crate) fn segments(
        &self,
        (oy, ox): (usize, usize),
        len: usize,
    ) -> impl Iterator<Item = (usize, usize)> {
        let (ow, pw) = (self.ow, self.pw);
        let (mut at, mut ox, mut left) = ((oy - self.oy0) * pw, ox, len);
        std::iter::from_fn(move || {
            let n = (ow - ox).min(left);
            let segment = (n > 0).then_some((at + ox, n));
            (at, ox, left) = (at + pw, 0, left - n);
            segment
        })
    }

    /// Writes the image values back from the planes: the inverse of
    /// [`Planes::split`] for every element some plane holds; the rest
    /// (pixels no tap reads) are left as they are.
    pub(crate) fn merge(&self, image: &mut [f32]) {
        let ConvGeometry {
            h,
            w,
            stride: s,
            pad,
            ..
        } = self.geo;
        let plane = self.rows * self.pw;
        for (img, planes) in image
            .chunks_exact_mut(h * w)
            .zip(self.buf.chunks_exact(self.py * self.px * plane))
        {
            for (phase, src) in planes.chunks_exact(plane).enumerate() {
                let (ry, rx) = (phase / self.px, phase % self.px);
                let (lo, hi) = Self::span(&self.geo, rx, self.pw);
                if lo == hi {
                    continue;
                }
                for (a, src) in (self.oy0..).zip(src.chunks_exact(self.pw)) {
                    let y = (a * s + ry).wrapping_sub(pad);
                    if y < h {
                        copy_to_every(
                            s,
                            &src[lo..hi],
                            &mut img[y * w + lo * s + rx - pad..(y + 1) * w],
                        );
                    }
                }
            }
        }
    }
}

/// `dst[i] = src[i * s]` for every `i` of `dst`: a plain copy at stride
/// 1, and the stride-2 case in pairs rather than through a strided
/// iterator.
fn copy_from_every(s: usize, src: &[f32], dst: &mut [f32]) {
    match s {
        1 => dst.copy_from_slice(&src[..dst.len()]),
        2 => dst
            .iter_mut()
            .zip(src.chunks(2))
            .for_each(|(d, pair)| *d = pair[0]),
        _ => dst
            .iter_mut()
            .zip(src.iter().step_by(s))
            .for_each(|(d, &v)| *d = v),
    }
}

/// `dst[i * s] = src[i]` for every `i` of `src`: the inverse of
/// [`copy_from_every`].
fn copy_to_every(s: usize, src: &[f32], dst: &mut [f32]) {
    match s {
        1 => dst[..src.len()].copy_from_slice(src),
        2 => dst
            .chunks_mut(2)
            .zip(src)
            .for_each(|(pair, &v)| pair[0] = v),
        _ => dst
            .iter_mut()
            .step_by(s)
            .zip(src)
            .for_each(|(d, &v)| *d = v),
    }
}

/// Unrolls one image (`cin * h * w`, NCHW item) into the col matrix
/// (`col_rows() x col_cols()`, row-major). `col` must be exactly that size.
/// Out-of-bounds (padding) taps are written as zero.
///
/// Every output row of every col row is one slice copy out of the
/// image's phase planes (`Planes`). A channel's `kh * kw` col rows
/// depend on that channel's plane alone, so channels are split across
/// threads, each group with planes of its own.
pub fn im2col(geo: &ConvGeometry, image: &[f32], col: &mut [f32]) {
    assert_eq!(
        image.len(),
        geo.cin * geo.h * geo.w,
        "image length mismatch"
    );
    assert_eq!(
        col.len(),
        geo.col_rows() * geo.col_cols(),
        "col length mismatch"
    );
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let (plane_len, per_channel) = (geo.h * geo.w, geo.kh * geo.kw * oh * ow);

    let group = PAR_CHUNK.div_ceil(per_channel);
    par::for_each_chunk_mut(col, group * per_channel, |g, col| {
        let chans = col.len() / per_channel;
        let image = &image[g * group * plane_len..][..chans * plane_len];
        let mut scratch = Workspace::take(Planes::scratch_len(geo, chans, &(0..oh)));
        let planes = Planes::split(geo, image, chans, 0..oh, &mut scratch);
        for (rows, row) in col.chunks_exact_mut(oh * ow).zip(planes.col_rows(0)) {
            for (oy, dst) in rows.chunks_exact_mut(ow).enumerate() {
                dst.copy_from_slice(planes.run(row, oy));
            }
        }
    });
}

/// Adjoint of [`im2col`]: scatter-adds a col matrix back into an image
/// buffer (`cin * h * w`). The image buffer is *accumulated into*, not
/// overwritten — callers zero it first when appropriate.
///
/// The image is split into its phase planes (`Planes`), every output
/// row of every col row is added to its run as one contiguous slice add,
/// and the planes are merged back. Rows are visited in the order
/// [`im2col`] writes them, so every image element receives its
/// contributions in one fixed order, onto its own value. A channel's
/// plane only receives that channel's col rows, so channels are split
/// across threads without touching that order.
pub fn col2im(geo: &ConvGeometry, col: &[f32], image: &mut [f32]) {
    assert_eq!(
        image.len(),
        geo.cin * geo.h * geo.w,
        "image length mismatch"
    );
    assert_eq!(
        col.len(),
        geo.col_rows() * geo.col_cols(),
        "col length mismatch"
    );
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let (plane_len, per_channel) = (geo.h * geo.w, geo.kh * geo.kw * oh * ow);
    if image.is_empty() {
        return;
    }

    let group = PAR_CHUNK.div_ceil(per_channel);
    par::for_each_chunk_mut(image, group * plane_len, |g, image| {
        let chans = image.len() / plane_len;
        let mut scratch = Workspace::take(Planes::scratch_len(geo, chans, &(0..oh)));
        let mut planes = Planes::split(geo, image, chans, 0..oh, &mut scratch);
        let col = &col[g * group * per_channel..][..chans * per_channel];
        for (rows, row) in col.chunks_exact(oh * ow).zip(planes.col_rows(0)) {
            for (oy, src) in rows.chunks_exact(ow).enumerate() {
                for (d, &v) in planes.run_mut(row, oy).iter_mut().zip(src) {
                    *d += v;
                }
            }
        }
        planes.merge(image);
    });
}

/// The element loops [`im2col`] and [`col2im`] are tested against, here
/// and in the GEMM's tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::ConvGeometry;

    /// The element-at-a-time lowering, kept as the reference the plane runs
    /// must match bit for bit: one bounds test per tap.
    pub(crate) fn im2col_ref(geo: &ConvGeometry, image: &[f32], col: &mut [f32]) {
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

    /// Reference for [`super::col2im`], same tap order as [`im2col_ref`].
    pub(crate) fn col2im_ref(geo: &ConvGeometry, col: &[f32], image: &mut [f32]) {
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
}

#[cfg(test)]
mod tests {
    use super::reference::{col2im_ref, im2col_ref};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn row_copies_match_elementwise_reference(
            cin in 1usize..3,
            h in 1usize..12,
            w in 1usize..12,
            k in 1usize..6,
            stride in 1usize..4,
            pad_sel in 0usize..5,
            seed in any::<u64>(),
        ) {
            // pad ranges over 0..k, so small images see pad >= w (rows
            // that are padding end to end) and 1x1 images are included;
            // h and w differ and run odd and even; strides 1 to 3 give
            // one, four and nine phase planes, the even kernels (the
            // deconvs' 4x4) phases of unequal depth, and a kernel shorter
            // than the stride phases no tap reads.
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
        let x: Vec<f32> = (0..ilen)
            .map(|i| ((i * 37 + 11) % 17) as f32 - 8.0)
            .collect();
        let y: Vec<f32> = (0..clen)
            .map(|i| ((i * 53 + 3) % 13) as f32 - 6.0)
            .collect();

        let mut cx = vec![0.0; clen];
        im2col(&g, &x, &mut cx);
        let lhs: f64 = cx
            .iter()
            .zip(&y)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();

        let mut xy = vec![0.0; ilen];
        col2im(&g, &y, &mut xy);
        let rhs: f64 = x
            .iter()
            .zip(&xy)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();

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
