//! Property-based tests for the tensor substrate: GEMM against a naive
//! reference, im2col/col2im adjointness, and algebraic identities of the
//! elementwise kernels.

use proptest::prelude::*;
use scidl_tensor::{
    col2im, gemm, gemm_bias, gemm_bias_cols, gemm_i8_with_isa, gemm_unpacked, gemm_with_isa,
    im2col, ConvGeometry, Isa, Shape4, Tensor, Transpose,
};

fn small_f32() -> impl Strategy<Value = f32> {
    (-100i32..100).prop_map(|v| v as f32 / 8.0)
}

fn vec_of(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(small_f32(), len)
}

#[allow(clippy::too_many_arguments)]
fn gemm_ref(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                let av = match ta {
                    Transpose::No => a[i * k + p],
                    Transpose::Yes => a[p * m + i],
                };
                let bv = match tb {
                    Transpose::No => b[p * n + j],
                    Transpose::Yes => b[j * k + p],
                };
                acc += av as f64 * bv as f64;
            }
            c[i * n + j] = acc as f32;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_matches_reference(
        m in 1usize..20,
        n in 1usize..20,
        k in 1usize..20,
        seed in any::<u64>(),
        ta_flag in any::<bool>(),
        tb_flag in any::<bool>(),
    ) {
        let ta = if ta_flag { Transpose::Yes } else { Transpose::No };
        let tb = if tb_flag { Transpose::Yes } else { Transpose::No };
        let mut rng = scidl_tensor::TensorRng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform_range(-2.0, 2.0) as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform_range(-2.0, 2.0) as f32).collect();
        let mut c = vec![0.0f32; m * n];
        let mut c_ref = vec![0.0f32; m * n];
        gemm(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c);
        gemm_ref(ta, tb, m, n, k, &a, &b, &mut c_ref);
        for (x, y) in c.iter().zip(&c_ref) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_nonfinite_matches_reference(
        m in 1usize..12,
        n in 1usize..12,
        k in 1usize..10,
        seed in any::<u64>(),
        ta_flag in any::<bool>(),
        tb_flag in any::<bool>(),
    ) {
        // IEEE-754 edge-case palette: zeros must not mask NaN/Inf in the
        // other operand (0·NaN = NaN, 0·Inf = NaN), infinities must keep
        // their sign, and Inf − Inf must cancel to NaN — exactly as the
        // f64 reference computes. Finite values stay small so f32 vs f64
        // accumulation cannot overflow apart.
        let ta = if ta_flag { Transpose::Yes } else { Transpose::No };
        let tb = if tb_flag { Transpose::Yes } else { Transpose::No };
        let palette = [
            0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY,
            1.0, -1.0, 0.5, -2.0, 1.5,
        ];
        let mut s = seed | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            palette[(s % palette.len() as u64) as usize]
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let mut c = vec![0.0f32; m * n];
        let mut c_ref = vec![0.0f32; m * n];
        gemm(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c);
        gemm_ref(ta, tb, m, n, k, &a, &b, &mut c_ref);
        for (i, (x, y)) in c.iter().zip(&c_ref).enumerate() {
            if y.is_nan() {
                prop_assert!(x.is_nan(), "{ta:?}{tb:?} c[{i}]: expected NaN, got {x}");
            } else if y.is_infinite() {
                prop_assert!(*x == *y, "{ta:?}{tb:?} c[{i}]: expected {y}, got {x}");
            } else {
                prop_assert!((x - y).abs() < 1e-3, "{ta:?}{tb:?} c[{i}]: {x} vs {y}");
            }
        }
    }

    #[test]
    fn packed_gemm_matches_reference_on_ragged_blocked_shapes(
        m in 9usize..48,
        n in 9usize..48,
        k in 200usize..280,
        seed in any::<u64>(),
        ta_flag in any::<bool>(),
        tb_flag in any::<bool>(),
    ) {
        // m, n are rarely multiples of a register tile (4×16 or 8×32) and
        // k straddles the KC=256 cache block, so every pack-padding branch
        // and the multi-slab accumulation of the packed path are
        // exercised (m*n*k ≥ 9·9·200 is far above the small-problem
        // fallback threshold).
        let ta = if ta_flag { Transpose::Yes } else { Transpose::No };
        let tb = if tb_flag { Transpose::Yes } else { Transpose::No };
        let mut rng = scidl_tensor::TensorRng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform_range(-2.0, 2.0) as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform_range(-2.0, 2.0) as f32).collect();
        let mut c = vec![0.0f32; m * n];
        let mut c_ref = vec![0.0f32; m * n];
        gemm(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c);
        gemm_ref(ta, tb, m, n, k, &a, &b, &mut c_ref);
        let tol = 1e-4 * (k as f32).sqrt() * 16.0;
        for (x, y) in c.iter().zip(&c_ref) {
            prop_assert!((x - y).abs() < tol, "{ta:?}{tb:?} m={m} n={n} k={k}: {x} vs {y}");
        }
    }

    #[test]
    fn packed_gemm_nonfinite_matches_reference_on_ragged_shapes(
        m in 9usize..24,
        n in 9usize..24,
        k in 60usize..90,
        seed in any::<u64>(),
        ta_flag in any::<bool>(),
        tb_flag in any::<bool>(),
    ) {
        // Same IEEE-754 palette as the small-shape property, but sized to
        // take the packed register-tiled path with ragged tiles: pack
        // zero-padding must never launder a NaN/Inf, and zeros in either
        // operand must not mask non-finite partners (no-zero-skip rule).
        let ta = if ta_flag { Transpose::Yes } else { Transpose::No };
        let tb = if tb_flag { Transpose::Yes } else { Transpose::No };
        let palette = [
            0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY,
            1.0, -1.0, 0.5, -2.0, 1.5,
        ];
        let mut s = seed | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            palette[(s % palette.len() as u64) as usize]
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let mut c = vec![0.0f32; m * n];
        let mut c_ref = vec![0.0f32; m * n];
        gemm(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c);
        gemm_ref(ta, tb, m, n, k, &a, &b, &mut c_ref);
        for (i, (x, y)) in c.iter().zip(&c_ref).enumerate() {
            if y.is_nan() {
                prop_assert!(x.is_nan(), "{ta:?}{tb:?} c[{i}]: expected NaN, got {x}");
            } else if y.is_infinite() {
                prop_assert!(*x == *y, "{ta:?}{tb:?} c[{i}]: expected {y}, got {x}");
            } else {
                prop_assert!((x - y).abs() < 1e-3, "{ta:?}{tb:?} c[{i}]: {x} vs {y}");
            }
        }
    }

    #[test]
    fn packed_gemm_agrees_with_unpacked_seed_kernel(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..200,
        seed in any::<u64>(),
        ta_flag in any::<bool>(),
        tb_flag in any::<bool>(),
    ) {
        // Differential guard: the packed kernel and the retained
        // pre-packing baseline must agree to f32 rounding over the whole
        // shape space, including shapes that fall back to the unpacked
        // small-problem path (where they are identical code).
        let ta = if ta_flag { Transpose::Yes } else { Transpose::No };
        let tb = if tb_flag { Transpose::Yes } else { Transpose::No };
        let mut rng = scidl_tensor::TensorRng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform_range(-2.0, 2.0) as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform_range(-2.0, 2.0) as f32).collect();
        let c0: Vec<f32> = (0..m * n).map(|_| rng.uniform_range(-1.0, 1.0) as f32).collect();
        let mut c = c0.clone();
        let mut c_seed = c0;
        gemm(ta, tb, m, n, k, 0.5, &a, &b, 1.5, &mut c);
        gemm_unpacked(ta, tb, m, n, k, 0.5, &a, &b, 1.5, &mut c_seed);
        let tol = 1e-4 * (k as f32).sqrt() * 16.0;
        for (x, y) in c.iter().zip(&c_seed) {
            prop_assert!((x - y).abs() < tol, "{ta:?}{tb:?} m={m} n={n} k={k}: {x} vs {y}");
        }
    }

    #[test]
    fn every_isa_survives_nonfinite_battery_on_every_transpose(
        m in 9usize..24,
        n in 9usize..70,
        k in 60usize..90,
        seed in any::<u64>(),
    ) {
        // Runtime-dispatch battery: for EVERY ISA the host CPU reports
        // (baseline SSE2 always; AVX2 and AVX-512 only where detected, so
        // machines without them skip those legs rather than fail; m and n
        // reach past one 8×32 tile into a partial second one), run the full
        // transpose matrix over the IEEE-754 palette and demand
        // (a) agreement with the f64 reference on NaN/Inf placement and
        // finite values, and (b) bit-identity with the retained unpacked
        // seed kernel's *class* of result — the microkernels must never
        // launder a non-finite through pack-padding or lane shuffles.
        let palette = [
            0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY,
            1.0, -1.0, 0.5, -2.0, 1.5,
        ];
        let mut s = seed | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            palette[(s % palette.len() as u64) as usize]
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        for &isa in Isa::detected() {
            for ta in [Transpose::No, Transpose::Yes] {
                for tb in [Transpose::No, Transpose::Yes] {
                    let mut c = vec![0.0f32; m * n];
                    let mut c_ref = vec![0.0f32; m * n];
                    gemm_with_isa(isa, ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c);
                    gemm_ref(ta, tb, m, n, k, &a, &b, &mut c_ref);
                    for (i, (x, y)) in c.iter().zip(&c_ref).enumerate() {
                        if y.is_nan() {
                            prop_assert!(
                                x.is_nan(),
                                "{} {ta:?}{tb:?} c[{i}]: expected NaN, got {x}",
                                isa.name()
                            );
                        } else if y.is_infinite() {
                            prop_assert!(
                                *x == *y,
                                "{} {ta:?}{tb:?} c[{i}]: expected {y}, got {x}",
                                isa.name()
                            );
                        } else {
                            prop_assert!(
                                (x - y).abs() < 1e-3,
                                "{} {ta:?}{tb:?} c[{i}]: {x} vs {y}",
                                isa.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_isa_is_bit_identical_to_baseline_on_finite_input(
        m in 1usize..40,
        n in 9usize..80,
        k in 40usize..300,
        beta_sel in 0usize..3,
        seed in any::<u64>(),
        ta_flag in any::<bool>(),
        tb_flag in any::<bool>(),
    ) {
        // The SIMD microkernels deliberately use mul+add (not FMA) so each
        // lane rounds exactly like the SSE2 baseline, whatever the tile
        // shape (4×16 or 8×32: m, n straddle both, k straddles KC); this
        // property pins that contract across the shape/transpose space
        // with to_bits equality, not a tolerance.
        let ta = if ta_flag { Transpose::Yes } else { Transpose::No };
        let tb = if tb_flag { Transpose::Yes } else { Transpose::No };
        let beta = [0.0f32, 1.0, 0.5][beta_sel];
        let mut rng = scidl_tensor::TensorRng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform_range(-2.0, 2.0) as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform_range(-2.0, 2.0) as f32).collect();
        let init: Vec<f32> = (0..m * n).map(|_| rng.uniform_range(-1.0, 1.0) as f32).collect();
        let mut base = init.clone();
        gemm_with_isa(Isa::Sse2, ta, tb, m, n, k, 0.5, &a, &b, beta, &mut base);
        for &isa in Isa::detected() {
            let mut c = init.clone();
            gemm_with_isa(isa, ta, tb, m, n, k, 0.5, &a, &b, beta, &mut c);
            for (i, (x, y)) in c.iter().zip(&base).enumerate() {
                prop_assert!(
                    x.to_bits() == y.to_bits(),
                    "{} {ta:?}{tb:?} c[{i}]: {x:?} != baseline {y:?}",
                    isa.name()
                );
            }
        }
    }

    #[test]
    fn every_isa_gemm_i8_is_exact(
        m in 1usize..12,
        n in 1usize..12,
        k in 0usize..160,
        seed in any::<u64>(),
    ) {
        // The int8 kernel is exact integer arithmetic — every ISA must
        // reproduce the i64 reference bit-for-bit, including k=0 (zeroed
        // output) and the ±127 extremes.
        let mut s = seed | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 255) as i16 - 127) as i8
        };
        let a: Vec<i8> = (0..m * k).map(|_| next()).collect();
        let b_t: Vec<i8> = (0..n * k).map(|_| next()).collect();
        for &isa in Isa::detected() {
            let mut c = vec![0i32; m * n];
            gemm_i8_with_isa(isa, m, n, k, &a, &b_t, &mut c);
            for i in 0..m {
                for j in 0..n {
                    let want: i64 = (0..k)
                        .map(|p| a[i * k + p] as i64 * b_t[j * k + p] as i64)
                        .sum();
                    prop_assert!(
                        c[i * n + j] as i64 == want,
                        "{} c[{i},{j}] = {}, want {want}",
                        isa.name(),
                        c[i * n + j]
                    );
                }
            }
        }
    }

    #[test]
    fn fused_bias_epilogues_match_two_pass(
        m in 1usize..24,
        n in 1usize..24,
        k in 1usize..64,
        seed in any::<u64>(),
    ) {
        // gemm_bias / gemm_bias_cols must equal "fill C with the
        // broadcast bias, then gemm with beta=1" bit-for-bit: the fused
        // epilogue only changes *who* writes the init sweep, never the
        // accumulation order.
        let mut rng = scidl_tensor::TensorRng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform_range(-2.0, 2.0) as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform_range(-2.0, 2.0) as f32).collect();

        let row_bias: Vec<f32> = (0..m).map(|_| rng.uniform_range(-1.0, 1.0) as f32).collect();
        let mut fused = vec![0.0f32; m * n];
        gemm_bias(Transpose::No, Transpose::No, m, n, k, &a, &b, &row_bias, &mut fused);
        let mut two_pass = vec![0.0f32; m * n];
        for (row, &bv) in two_pass.chunks_mut(n).zip(&row_bias) {
            row.fill(bv);
        }
        gemm(Transpose::No, Transpose::No, m, n, k, 1.0, &a, &b, 1.0, &mut two_pass);
        prop_assert_eq!(&fused, &two_pass);

        let col_bias: Vec<f32> = (0..n).map(|_| rng.uniform_range(-1.0, 1.0) as f32).collect();
        let mut fused = vec![0.0f32; m * n];
        gemm_bias_cols(Transpose::No, Transpose::Yes, m, n, k, &a, &b, &col_bias, &mut fused);
        let mut two_pass = vec![0.0f32; m * n];
        for row in two_pass.chunks_mut(n) {
            row.copy_from_slice(&col_bias);
        }
        gemm(Transpose::No, Transpose::Yes, m, n, k, 1.0, &a, &b, 1.0, &mut two_pass);
        prop_assert_eq!(&fused, &two_pass);
    }

    #[test]
    fn im2col_col2im_adjoint(
        cin in 1usize..4,
        h in 3usize..10,
        w in 3usize..10,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in any::<u64>(),
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let geo = ConvGeometry::new(cin, 1, h, w, k, stride, pad);
        let ilen = cin * h * w;
        let clen = geo.col_rows() * geo.col_cols();
        let mut rng = scidl_tensor::TensorRng::new(seed);
        let x: Vec<f32> = (0..ilen).map(|_| rng.uniform_range(-1.0, 1.0) as f32).collect();
        let y: Vec<f32> = (0..clen).map(|_| rng.uniform_range(-1.0, 1.0) as f32).collect();

        let mut cx = vec![0.0; clen];
        im2col(&geo, &x, &mut cx);
        let lhs: f64 = cx.iter().zip(&y).map(|(a, b)| *a as f64 * *b as f64).sum();

        let mut xy = vec![0.0; ilen];
        col2im(&geo, &y, &mut xy);
        let rhs: f64 = x.iter().zip(&xy).map(|(a, b)| *a as f64 * *b as f64).sum();

        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn add_sub_roundtrip(v in vec_of(32), w in vec_of(32)) {
        let a0 = Tensor::from_flat(v);
        let b = Tensor::from_flat(w);
        let mut a = a0.clone();
        a.add_assign(&b);
        a.sub_assign(&b);
        prop_assert!(a.max_abs_diff(&a0) < 1e-4);
    }

    #[test]
    fn axpy_matches_scale_add(alpha in small_f32(), v in vec_of(16), w in vec_of(16)) {
        let mut a = Tensor::from_flat(v.clone());
        a.axpy(alpha, &Tensor::from_flat(w.clone()));
        for i in 0..16 {
            let expect = v[i] + alpha * w[i];
            prop_assert!((a.data()[i] - expect).abs() < 1e-3);
        }
    }

    #[test]
    fn batch_slice_preserves_items(n in 1usize..6, chw in 1usize..20, seed in any::<u64>()) {
        let mut rng = scidl_tensor::TensorRng::new(seed);
        let t = rng.uniform_tensor(Shape4::new(n, chw, 1, 1), -1.0, 1.0);
        for i in 0..n {
            let s = t.batch_slice(i, 1);
            prop_assert_eq!(s.data(), t.item(i));
        }
    }

    #[test]
    fn softmax_rows_sum_to_one(v in vec_of(9)) {
        let mut row = v;
        scidl_tensor::ops::softmax_inplace(&mut row);
        let s: f32 = row.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-4);
        prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }
}
