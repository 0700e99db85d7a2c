//! The contiguous NCHW `f32` tensor type.

use crate::shape::Shape4;
use crate::{par, PAR_CHUNK};
use std::fmt;

/// A dense, contiguous, row-major NCHW tensor of `f32` values.
///
/// This is the single data currency of the scidl stack: layer activations,
/// weights, gradients and communication buffers are all `Tensor`s (or raw
/// `&[f32]` views of them). The type is intentionally simple — no strides,
/// no views, no reference counting — because the workloads in the paper are
/// all dense and contiguous, and simplicity keeps the hot kernels easy for
/// the compiler to vectorise.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape4,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: Shape4) -> Self {
        Self {
            shape,
            data: vec![0.0; shape.len()],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn filled(shape: Shape4, value: f32) -> Self {
        Self {
            shape,
            data: vec![value; shape.len()],
        }
    }

    /// Wraps an existing buffer. Panics if the buffer length does not match
    /// the shape.
    pub fn from_vec(shape: Shape4, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer length {} does not match shape {shape:?}",
            data.len()
        );
        Self { shape, data }
    }

    /// The parallel `collect()`: elements `r` of the new tensor are the
    /// values of `values(r)`, asked for one [`PAR_CHUNK`]-long index range
    /// at a time and split across the calling thread's width. Each element
    /// is written once, into fresh memory — no zero fill first, which is
    /// what an elementwise layer at width 1 would otherwise pay over
    /// `iter().map().collect()`. Panics if an iterator ends early.
    pub fn from_chunks<I: Iterator<Item = f32>>(
        shape: Shape4,
        values: impl Fn(std::ops::Range<usize>) -> I + Sync,
    ) -> Self {
        let len = shape.len();
        let mut data: Vec<f32> = Vec::with_capacity(len);
        par::for_each_chunk_mut(
            &mut data.spare_capacity_mut()[..len],
            PAR_CHUNK,
            |i, out| {
                let range = i * PAR_CHUNK..i * PAR_CHUNK + out.len();
                let written = out.iter_mut().zip(values(range)).fold(0, |n, (o, v)| {
                    o.write(v);
                    n + 1
                });
                assert_eq!(written, out.len(), "chunk iterator ended early");
            },
        );
        // SAFETY: the capacity is `len`, and every chunk of the first `len`
        // elements was written in full above — a chunk that was not
        // panics, and the panic leaves the region before this line.
        unsafe { data.set_len(len) };
        Self { shape, data }
    }

    /// A flat 1-D tensor from a vector.
    pub fn from_flat(data: Vec<f32>) -> Self {
        let shape = Shape4::flat(data.len());
        Self { shape, data }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor by 4-D coordinates (bounds-checked).
    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.offset(n, c, h, w)]
    }

    /// Mutable element accessor by 4-D coordinates (bounds-checked).
    #[inline]
    pub fn at_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let off = self.shape.offset(n, c, h, w);
        &mut self.data[off]
    }

    /// Reinterprets the tensor with a new shape of identical length.
    pub fn reshape(&mut self, shape: Shape4) {
        assert_eq!(shape.len(), self.data.len(), "reshape must preserve length");
        self.shape = shape;
    }

    /// Returns the sub-tensor for batch items `[start, start+count)` as a
    /// fresh tensor (copy). Used for carving per-node minibatch chunks.
    pub fn batch_slice(&self, start: usize, count: usize) -> Tensor {
        assert!(start + count <= self.shape.n, "batch slice out of range");
        let item = self.shape.item_len();
        let data = self.data[start * item..(start + count) * item].to_vec();
        Tensor::from_vec(self.shape.with_n(count), data)
    }

    /// Borrowed view of one batch item's data.
    #[inline]
    pub fn item(&self, n: usize) -> &[f32] {
        let item = self.shape.item_len();
        &self.data[n * item..(n + 1) * item]
    }

    /// Mutable view of one batch item's data.
    #[inline]
    pub fn item_mut(&mut self, n: usize) -> &mut [f32] {
        let item = self.shape.item_len();
        &mut self.data[n * item..(n + 1) * item]
    }

    /// Sets every element to zero, reusing the allocation.
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// `self += other`, elementwise. Parallel for large tensors.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        binary_inplace(&mut self.data, &other.data, |a, b| a + b);
    }

    /// `self -= other`, elementwise.
    pub fn sub_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "sub_assign shape mismatch");
        binary_inplace(&mut self.data, &other.data, |a, b| a - b);
    }

    /// `self *= scalar`.
    pub fn scale(&mut self, s: f32) {
        unary_inplace(&mut self.data, |a| a * s);
    }

    /// `self += alpha * other` (BLAS axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        binary_inplace(&mut self.data, &other.data, move |a, b| a + alpha * b);
    }

    /// Sum of all elements (pairwise within chunks for accuracy, parallel
    /// across chunks for speed).
    pub fn sum(&self) -> f32 {
        if self.data.len() >= CHUNKED_REDUCE_FROM {
            chunk_partials(&self.data, |c| c.iter().sum::<f32>() as f64) as f32
        } else {
            self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
        }
    }

    /// Mean of all elements; 0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element; `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `f32::INFINITY` for an empty tensor.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared L2 norm, accumulated in f64 for stability.
    pub fn norm_sq(&self) -> f64 {
        if self.data.len() >= CHUNKED_REDUCE_FROM {
            chunk_partials(&self.data, |c| {
                c.iter().map(|&x| x as f64 * x as f64).sum::<f64>()
            })
        } else {
            self.data.iter().map(|&x| x as f64 * x as f64).sum()
        }
    }

    /// L2 norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Maximum absolute difference against another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// True when every element is finite (no NaN/Inf). Cheap sanity check
    /// used by the training engines to detect divergence.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync + Send) {
        unary_inplace(&mut self.data, f);
    }
}

/// Length from which [`Tensor::sum`] and [`Tensor::norm_sq`] fold
/// per-chunk partials instead of one running total. Part of the numerics
/// (it decides the association order), not a tuning knob.
const CHUNKED_REDUCE_FROM: usize = 1 << 14;

/// Sum of `part` over consecutive 4096-element chunks of `data`. The
/// partials are computed in parallel and folded in chunk order, so the
/// result does not depend on the thread count.
fn chunk_partials(data: &[f32], part: impl Fn(&[f32]) -> f64 + Sync) -> f64 {
    const CHUNK: usize = 4096;
    let mut partials = vec![0.0f64; data.len().div_ceil(CHUNK)];
    let group = PAR_CHUNK / CHUNK;
    par::for_each_chunk_mut(&mut partials, group, |g, out| {
        let chunks = data[g * group * CHUNK..].chunks(CHUNK);
        for (o, c) in out.iter_mut().zip(chunks) {
            *o = part(c);
        }
    });
    partials.iter().sum()
}

/// In-place unary elementwise op, split across threads [`PAR_CHUNK`]
/// elements at a time.
pub(crate) fn unary_inplace(data: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    par::for_each_chunk_mut(data, PAR_CHUNK, |_, d| {
        d.iter_mut().for_each(|x| *x = f(*x))
    });
}

/// In-place binary elementwise op, split like [`unary_inplace`].
pub(crate) fn binary_inplace(dst: &mut [f32], src: &[f32], f: impl Fn(f32, f32) -> f32 + Sync) {
    debug_assert_eq!(dst.len(), src.len());
    par::for_each_chunk_mut(dst, PAR_CHUNK, |i, d| {
        let s = &src[i * PAR_CHUNK..][..d.len()];
        d.iter_mut().zip(s).for_each(|(a, &b)| *a = f(*a, b));
    });
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}(", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(6)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 6 {
            write!(f, ", …")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[f32]) -> Tensor {
        Tensor::from_flat(vals.to_vec())
    }

    #[test]
    fn zeros_and_filled() {
        let z = Tensor::zeros(Shape4::new(2, 2, 2, 2));
        assert_eq!(z.len(), 16);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::filled(Shape4::flat(3), 7.5);
        assert_eq!(f.data(), &[7.5, 7.5, 7.5]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_len() {
        let _ = Tensor::from_vec(Shape4::flat(4), vec![1.0; 3]);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[10.0, 20.0, 30.0]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[11.0, 22.0, 33.0]);
        a.sub_assign(&b);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0]);
        a.scale(2.0);
        assert_eq!(a.data(), &[2.0, 4.0, 6.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[7.0, 14.0, 21.0]);
    }

    #[test]
    fn reductions() {
        let a = t(&[1.0, -2.0, 3.0, -4.0]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -4.0);
        assert!((a.norm_sq() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn from_chunks_collects_every_range_in_place() {
        // Spans several chunks with a ragged tail; empty is fine too.
        for len in [0usize, 5, PAR_CHUNK, 3 * PAR_CHUNK + 17] {
            let t = Tensor::from_chunks(Shape4::flat(len), |r| r.map(|i| i as f32 * 0.5));
            assert_eq!(t.len(), len);
            assert!(
                t.data()
                    .iter()
                    .enumerate()
                    .all(|(i, &v)| v == i as f32 * 0.5),
                "len {len}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "chunk iterator ended early")]
    fn from_chunks_rejects_a_short_iterator() {
        Tensor::from_chunks(Shape4::flat(10), |r| r.skip(1).map(|i| i as f32));
    }

    #[test]
    fn large_parallel_sum_matches_sequential() {
        let n = CHUNKED_REDUCE_FROM * 2 + 17;
        let vals: Vec<f32> = (0..n).map(|i| (i % 7) as f32 * 0.25).collect();
        let seq: f64 = vals.iter().map(|&x| x as f64).sum();
        let a = Tensor::from_flat(vals);
        assert!((a.sum() as f64 - seq).abs() < 1e-3 * seq.abs().max(1.0));
    }

    #[test]
    fn batch_slice_and_item() {
        let shape = Shape4::new(3, 1, 2, 2);
        let vals: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let a = Tensor::from_vec(shape, vals);
        let s = a.batch_slice(1, 2);
        assert_eq!(s.shape(), Shape4::new(2, 1, 2, 2));
        assert_eq!(s.data()[0], 4.0);
        assert_eq!(a.item(2), &[8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn at_and_reshape() {
        let mut a = Tensor::zeros(Shape4::new(1, 2, 2, 2));
        *a.at_mut(0, 1, 1, 0) = 9.0;
        assert_eq!(a.at(0, 1, 1, 0), 9.0);
        a.reshape(Shape4::flat(8));
        assert_eq!(a.at(0, 6, 0, 0), 9.0);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = t(&[1.0, 2.0]);
        assert!(a.all_finite());
        a.data_mut()[1] = f32::NAN;
        assert!(!a.all_finite());
    }

    #[test]
    fn max_abs_diff_works() {
        let a = t(&[1.0, 5.0, -3.0]);
        let b = t(&[1.5, 4.0, -3.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    fn map_inplace_applies() {
        let mut a = t(&[-1.0, 2.0, -3.0]);
        a.map_inplace(|x| x.max(0.0));
        assert_eq!(a.data(), &[0.0, 2.0, 0.0]);
    }
}
