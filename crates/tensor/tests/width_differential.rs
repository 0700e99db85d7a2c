//! Thread-count identity of the kernels: every result at widths 2, 3, 4
//! and 7 (more threads than this machine has CPUs, on purpose) must equal
//! the width-1 result bit for bit. Width 1 is the plain sequential loop,
//! so this also pins every parallel split to the sequential order.
//!
//! Shapes are chosen above the fan-out thresholds (`PAR_WORK`,
//! `PAR_CHUNK`) — below them every width runs the same inline code — and
//! on the ragged edges of the register tile, the cache blocks and `KC`
//! that PR 13's battery walks at one width.

use scidl_tensor::{
    col2im, gemm, gemm_bias, gemm_bias_cols, gemm_i8, im2col, par, BSource, ConvGeometry, PackedA,
    Tensor, TensorRng, Transpose, PAR_CHUNK, PAR_WORK,
};

const WIDER: [usize; 4] = [2, 3, 4, 7];
const TRANSPOSES: [(Transpose, Transpose); 4] = [
    (Transpose::No, Transpose::No),
    (Transpose::No, Transpose::Yes),
    (Transpose::Yes, Transpose::No),
    (Transpose::Yes, Transpose::Yes),
];

fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = TensorRng::new(seed);
    (0..len)
        .map(|_| rng.uniform_range(-1.0, 1.0) as f32)
        .collect()
}

/// Runs `f` at width 1, then at every wider width, and demands identical
/// bits. `f` returns everything the kernel wrote.
fn same_at_every_width(what: &str, f: impl Fn() -> Vec<f32>) {
    par::set_width(1);
    let want = f();
    for width in WIDER {
        par::set_width(width);
        let got = f();
        assert_eq!(got.len(), want.len(), "{what} width {width}");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what} width {width} [{i}]: {g} vs {w}"
            );
        }
    }
}

#[test]
fn ragged_gemm_battery_and_packed_a() {
    // One below / on / above the tile and block edges (8 rows, 32 columns,
    // MC 64, NC 512, KC 256), each large enough to split: the tile grid
    // needs m*n*k >= PAR_WORK, pack_b two PAR_CHUNK units per k block,
    // pack_a either several k blocks or a tall single one.
    let shapes = [
        (65, 513, 257),
        (63, 511, 255),
        (64, 512, 256),
        (9, 2049, 257),
        (7, 2111, 300),
        (129, 33, 1025),
        (513, 129, 128),
        (130, 300, 288),
    ];
    for (m, n, k) in shapes {
        assert!(
            m * n * k >= PAR_WORK,
            "shape below the fan-out threshold tests nothing"
        );
        let a = fill(m * k, 51);
        let b = fill(k * n, 52);
        let init = fill(m * n, 53);
        for (ta, tb) in TRANSPOSES {
            for beta in [0.0f32, 1.0, 0.5] {
                same_at_every_width(
                    &format!("gemm {ta:?}{tb:?} {m}x{n}x{k} beta {beta}"),
                    || {
                        let mut c = init.clone();
                        gemm(ta, tb, m, n, k, -1.5, &a, &b, beta, &mut c);
                        c
                    },
                );
            }
            same_at_every_width(&format!("PackedA {ta:?}{tb:?} {m}x{n}x{k}"), || {
                let mut c = init.clone();
                let pa = PackedA::new(ta, m, k, &a);
                pa.gemm(BSource::Dense(tb, &b), n, 1.0, 0.5, &mut c);
                // A second right operand against the same packed panels.
                let mut c2 = init.clone();
                pa.gemm(BSource::Dense(tb, &b), n, 0.25, 0.0, &mut c2);
                c.extend(c2);
                c
            });
        }
        let (row_bias, col_bias) = (fill(m, 54), fill(n, 55));
        same_at_every_width(&format!("fused bias {m}x{n}x{k}"), || {
            let mut c = vec![f32::NAN; m * n];
            gemm_bias(
                Transpose::No,
                Transpose::No,
                m,
                n,
                k,
                &a,
                &b,
                &row_bias,
                &mut c,
            );
            let mut c2 = vec![f32::NAN; m * n];
            gemm_bias_cols(
                Transpose::No,
                Transpose::Yes,
                m,
                n,
                k,
                &a,
                &b,
                &col_bias,
                &mut c2,
            );
            let mut c3 = vec![f32::NAN; m * n];
            PackedA::new(Transpose::No, m, k, &a).gemm_bias(
                BSource::Dense(Transpose::No, &b),
                n,
                &row_bias,
                &mut c3,
            );
            c.extend(c2);
            c.extend(c3);
            c
        });
    }
}

#[test]
fn non_finite_operands_poison_the_same_elements_at_every_width() {
    let (m, n, k) = (65, 513, 257);
    let mut a = fill(m * k, 61);
    let mut b = fill(k * n, 62);
    let palette = [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    for (i, &v) in palette.iter().cycle().take(40).enumerate() {
        a[(i * 397) % (m * k)] = v;
        b[(i * 911) % (k * n)] = v;
    }
    for (ta, tb) in TRANSPOSES {
        same_at_every_width(&format!("non-finite gemm {ta:?}{tb:?}"), || {
            let mut c = vec![0.0f32; m * n];
            gemm(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c);
            c
        });
    }
}

#[test]
fn int8_gemm() {
    let (m, n, k) = (96, 160, 300);
    assert!(m * n * k >= PAR_WORK);
    let a: Vec<i8> = fill(m * k, 71).iter().map(|v| (v * 127.0) as i8).collect();
    let b_t: Vec<i8> = fill(n * k, 72).iter().map(|v| (v * 127.0) as i8).collect();
    same_at_every_width("gemm_i8", || {
        let mut c = vec![0i32; m * n];
        gemm_i8(m, n, k, &a, &b_t, &mut c);
        c.iter().map(|&v| v as f32).collect()
    });
}

#[test]
fn im2col_and_col2im_including_stride_two() {
    // (cin, h, w, k, stride, pad): each col matrix spans several
    // PAR_CHUNK units, one with fewer channels than a unit holds.
    for (cin, h, w, k, stride, pad) in [
        (8, 40, 40, 3, 1, 1),
        (6, 64, 64, 5, 2, 2),
        (3, 96, 96, 3, 1, 0),
        (40, 33, 31, 3, 2, 1),
        (2, 128, 128, 5, 1, 2),
    ] {
        let geo = ConvGeometry::new(cin, 1, h, w, k, stride, pad);
        let clen = geo.col_rows() * geo.col_cols();
        assert!(clen >= 2 * PAR_CHUNK, "{geo:?} fits one unit");
        let image = fill(cin * h * w, 81);
        let cols = fill(clen, 82);
        same_at_every_width(&format!("im2col {geo:?}"), || {
            let mut col = vec![f32::NAN; clen];
            im2col(&geo, &image, &mut col);
            col
        });
        same_at_every_width(&format!("col2im {geo:?}"), || {
            // Accumulated into a non-zero image, like the proptest.
            let mut back = image.clone();
            col2im(&geo, &cols, &mut back);
            back
        });
    }
}

#[test]
fn elementwise_ops_and_chunked_reductions() {
    let len = 5 * PAR_CHUNK + 123;
    let x = Tensor::from_flat(fill(len, 91));
    let y = Tensor::from_flat(fill(len, 92));
    same_at_every_width("add/sub/axpy/scale/map", || {
        let mut t = x.clone();
        t.add_assign(&y);
        t.axpy(-0.75, &y);
        t.sub_assign(&x);
        t.scale(1.5);
        t.map_inplace(|v| v * v - 0.5);
        t.data().to_vec()
    });
    // Forty binades of magnitude, so that the order in which the chunk
    // partials are folded shows in the low bits of the result.
    let wide: Vec<f32> = fill(len, 93)
        .iter()
        .enumerate()
        .map(|(i, v)| v * 2f32.powi((i % 41) as i32 - 20))
        .collect();
    let wide = Tensor::from_flat(wide);
    same_at_every_width("sum/norm_sq", || {
        // All 64 bits of the f64 norm, as two bit patterns.
        let n = wide.norm_sq().to_bits();
        vec![
            wide.sum(),
            x.sum(),
            f32::from_bits((n >> 32) as u32),
            f32::from_bits(n as u32),
        ]
    });
    same_at_every_width("slice_add/slice_scale", || {
        let mut d = x.data().to_vec();
        scidl_tensor::ops::slice_add(&mut d, y.data());
        scidl_tensor::ops::slice_scale(&mut d, 0.3);
        d
    });
}
