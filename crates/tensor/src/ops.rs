//! Free-standing numerical kernels shared across the stack: stable softmax,
//! argmax and slice-level vector helpers used by the solvers and
//! communication buffers.

/// Numerically stable softmax over a contiguous row, in place.
pub fn softmax_inplace(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - m).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Index of the maximum element; ties resolve to the first. Panics on an
/// empty slice.
pub fn argmax(row: &[f32]) -> usize {
    assert!(!row.is_empty(), "argmax of empty slice");
    let mut best = 0;
    let mut bv = row[0];
    for (i, &v) in row.iter().enumerate().skip(1) {
        if v > bv {
            bv = v;
            best = i;
        }
    }
    best
}

/// `dst += src` over raw slices (gradient accumulation in comm buffers).
pub fn slice_add(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "slice_add length mismatch");
    crate::tensor::binary_inplace(dst, src, |a, b| a + b);
}

/// `dst *= s` over a raw slice.
pub fn slice_scale(dst: &mut [f32], s: f32) {
    crate::tensor::unary_inplace(dst, |a| a * s);
}

/// Dot product with f64 accumulation.
pub fn slice_dot(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "slice_dot length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

/// Symmetric linear 8-bit quantisation of a buffer: returns `(values,
/// scale)` with `f32 ≈ i8 as f32 * scale`. The shared wire codec used by
/// both the low-precision training utilities (`scidl-nn::quant`) and the
/// compressed all-reduce (`scidl-comm::compress`).
///
/// Non-finite input is *surfaced*, not laundered: a NaN would otherwise
/// saturating-cast to 0 and silently vanish from the compressed
/// all-reduce. When any element is NaN/±Inf the returned scale is NaN
/// (so `dequantize_i8` poisons the whole buffer instead of zeroing it)
/// and the numeric-health sentinel is notified.
pub fn quantize_i8(data: &[f32]) -> (Vec<i8>, f32) {
    if let Some((first, count, value)) = scidl_trace::scan_nonfinite(data) {
        scidl_trace::nonfinite_hook("quantize_i8", first, count, value);
        return (vec![0; data.len()], f32::NAN);
    }
    let max = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
    let values = data
        .iter()
        .map(|&x| (x / scale).round().clamp(-127.0, 127.0) as i8)
        .collect();
    (values, scale)
}

/// Inverse of [`quantize_i8`], writing into `out` (must match length).
pub fn dequantize_i8(values: &[i8], scale: f32, out: &mut [f32]) {
    assert_eq!(values.len(), out.len(), "dequantize length mismatch");
    for (o, &q) in out.iter_mut().zip(values) {
        *o = q as f32 * scale;
    }
}

/// Symmetric linear 16-bit quantisation: the higher-fidelity sibling of
/// [`quantize_i8`] (same wire layout, ±32767 steps instead of ±127).
/// Shares the non-finite contract: poisoned input yields a NaN scale and
/// a numeric-health report instead of laundered zeros.
pub fn quantize_i16(data: &[f32]) -> (Vec<i16>, f32) {
    if let Some((first, count, value)) = scidl_trace::scan_nonfinite(data) {
        scidl_trace::nonfinite_hook("quantize_i16", first, count, value);
        return (vec![0; data.len()], f32::NAN);
    }
    let max = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    let scale = if max > 0.0 { max / 32767.0 } else { 1.0 };
    let values = data
        .iter()
        .map(|&x| (x / scale).round().clamp(-32767.0, 32767.0) as i16)
        .collect();
    (values, scale)
}

/// Inverse of [`quantize_i16`], writing into `out` (must match length).
pub fn dequantize_i16(values: &[i16], scale: f32, out: &mut [f32]) {
    assert_eq!(values.len(), out.len(), "dequantize length mismatch");
    for (o, &q) in out.iter_mut().zip(values) {
        *o = q as f32 * scale;
    }
}

/// Clips every element of `g` so the slice's L2 norm is at most
/// `max_norm`; returns the pre-clip norm. A no-op when already within
/// bounds or when `max_norm` is non-positive.
///
/// A poisoned gradient yields a non-finite norm, which `norm > max_norm`
/// can never clip (`NaN > x` is false) — instead of silently returning
/// it, the non-finite norm is reported to the numeric-health sentinel
/// and `g` is left untouched for inspection. Callers should treat a
/// non-finite return as "this gradient is corrupt", not "large".
pub fn clip_norm(g: &mut [f32], max_norm: f64) -> f64 {
    let norm: f64 = g.iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt();
    if !norm.is_finite() {
        let (first, count, value) = scidl_trace::scan_nonfinite(g).unwrap_or((0, 0, norm as f32));
        scidl_trace::nonfinite_hook("clip_norm", first, count, value);
        return norm;
    }
    if max_norm > 0.0 && norm > max_norm {
        let s = (max_norm / norm) as f32;
        slice_scale(g, s);
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let mut r = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut r);
        let s: f32 = r.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(r[2] > r[1] && r[1] > r[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = vec![1000.0, 1001.0];
        softmax_inplace(&mut a);
        let mut b = vec![0.0, 1.0];
        softmax_inplace(&mut b);
        assert!((a[0] - b[0]).abs() < 1e-6);
        assert!(a.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut r: Vec<f32> = vec![];
        softmax_inplace(&mut r);
    }

    #[test]
    fn argmax_ties_to_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    fn slice_ops() {
        let mut a = vec![1.0, 2.0];
        slice_add(&mut a, &[10.0, 20.0]);
        assert_eq!(a, vec![11.0, 22.0]);
        slice_scale(&mut a, 0.5);
        assert_eq!(a, vec![5.5, 11.0]);
        assert_eq!(slice_dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn clip_norm_caps_large_gradients() {
        let mut g = vec![3.0, 4.0]; // norm 5
        let pre = clip_norm(&mut g, 1.0);
        assert!((pre - 5.0).abs() < 1e-9);
        let post: f64 = g.iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt();
        assert!((post - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clip_norm_noop_when_small() {
        let mut g = vec![0.3, 0.4];
        clip_norm(&mut g, 1.0);
        assert_eq!(g, vec![0.3, 0.4]);
    }

    #[test]
    fn quantize_i8_roundtrip_error_bounded() {
        let data: Vec<f32> = (-100..100).map(|i| i as f32 * 0.017).collect();
        let (q, scale) = quantize_i8(&data);
        let mut back = vec![0.0; data.len()];
        dequantize_i8(&q, scale, &mut back);
        let max = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= max / 127.0 * 0.51, "{a} vs {b}");
        }
    }

    #[test]
    fn quantize_i8_preserves_extremes() {
        let (q, scale) = quantize_i8(&[-3.0, 0.0, 3.0]);
        assert_eq!(q, vec![-127, 0, 127]);
        let mut back = vec![0.0; 3];
        dequantize_i8(&q, scale, &mut back);
        assert!((back[2] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn quantize_i8_zero_buffer_is_stable() {
        let (q, scale) = quantize_i8(&[0.0; 5]);
        assert!(q.iter().all(|&v| v == 0));
        assert_eq!(scale, 1.0);
    }

    #[test]
    fn quantize_i8_surfaces_nan_instead_of_laundering() {
        // A NaN used to saturating-cast to 0 and vanish from the wire;
        // now the scale itself is poisoned so dequantize propagates it.
        let (q, scale) = quantize_i8(&[1.0, f32::NAN, 2.0]);
        assert!(scale.is_nan(), "scale must signal corruption");
        let mut back = vec![0.0; 3];
        dequantize_i8(&q, scale, &mut back);
        assert!(
            back.iter().all(|x| x.is_nan()),
            "corruption must propagate through the codec, got {back:?}"
        );
    }

    #[test]
    fn quantize_i8_surfaces_inf() {
        let (_, scale) = quantize_i8(&[f32::INFINITY, 1.0]);
        assert!(scale.is_nan());
        let (_, scale) = quantize_i8(&[f32::NEG_INFINITY]);
        assert!(scale.is_nan());
    }

    #[test]
    fn quantize_i16_roundtrip_much_tighter_than_i8() {
        let data: Vec<f32> = (-100..100).map(|i| i as f32 * 0.017).collect();
        let (q, scale) = quantize_i16(&data);
        let mut back = vec![0.0; data.len()];
        dequantize_i16(&q, scale, &mut back);
        let max = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= max / 32767.0 * 0.51, "{a} vs {b}");
        }
    }

    #[test]
    fn quantize_i16_surfaces_nonfinite() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let (q, scale) = quantize_i16(&[1.0, bad]);
            assert!(scale.is_nan(), "scale must signal corruption for {bad}");
            let mut back = vec![0.0; 2];
            dequantize_i16(&q, scale, &mut back);
            assert!(back.iter().all(|x| x.is_nan()));
        }
    }

    #[test]
    fn quantize_i16_zero_buffer_is_stable() {
        let (q, scale) = quantize_i16(&[0.0; 5]);
        assert!(q.iter().all(|&v| v == 0));
        assert_eq!(scale, 1.0);
    }

    #[test]
    fn clip_norm_reports_poisoned_gradient() {
        // NaN norm: `norm > max_norm` is false for NaN, so the old code
        // silently skipped clipping and returned NaN with no signal.
        let mut g = vec![3.0, f32::NAN, 4.0];
        let norm = clip_norm(&mut g, 1.0);
        assert!(norm.is_nan(), "poisoned gradient must report a NaN norm");
        assert_eq!(g[0], 3.0, "poisoned gradient left untouched for inspection");
        assert!(g[1].is_nan());
        assert_eq!(g[2], 4.0);
    }

    #[test]
    fn clip_norm_inf_norm_not_scaled() {
        let mut g = vec![f32::INFINITY, 1.0];
        let norm = clip_norm(&mut g, 1.0);
        assert!(norm.is_infinite() && norm > 0.0);
        assert_eq!(g[1], 1.0);
    }
}
