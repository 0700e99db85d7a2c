//! Thread-count identity of the layers: conv forward/backward (image-
//! parallel forward, per-image backward with parallel lowering, GEMM and
//! bias gradient), ReLU, max pooling and one full `hep_network` gradient
//! must give the same bits at widths 2, 3, 4 and 7 as at width 1 (the
//! sequential loops). Shapes sit above the kernels' fan-out thresholds;
//! below them every width runs the same inline code. Conv and deconv
//! forward and backward must also give, at widths 1 and 2, the bits of
//! lowering through a written-out col matrix, and the in-place ReLU the
//! bits of `infer` and of the masked gradient on non-finite, zero and
//! subnormal values. A `Conv2d → Relu → MaxPool2d` triple, which
//! `Network` runs as one pass per item, must give at widths 1 and 2 the
//! bits of its three layers run one at a time.

use scidl_nn::network::Model;
use scidl_nn::{arch, Conv2d, Deconv2d, Layer, MaxPool2d, Network, Relu, SoftmaxCrossEntropy};
use scidl_tensor::{
    col2im, gemm, gemm_bias, im2col, par, ConvGeometry, Shape4, Tensor, TensorRng, Transpose,
    PAR_CHUNK, PAR_WORK,
};

const WIDER: [usize; 4] = [2, 3, 4, 7];

fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what} [{i}]: {g} vs {w}");
    }
}

/// Runs `f` at width 1 and at every wider width; `f` returns every buffer
/// the step wrote, and all of them must match bit for bit.
fn same_at_every_width(what: &str, mut f: impl FnMut() -> Vec<Vec<f32>>) {
    par::set_width(1);
    let want = f();
    for width in WIDER {
        par::set_width(width);
        let got = f();
        assert_eq!(got.len(), want.len());
        for (b, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_same_bits(g, w, &format!("{what}, width {width}, buffer {b}"));
        }
    }
}

/// One forward and backward of `layer` from zeroed gradients: output,
/// input gradient, then every parameter gradient.
fn step(layer: &mut dyn Layer, x: &Tensor, dy: &Tensor) -> Vec<Vec<f32>> {
    for p in layer.params_mut() {
        p.grad.zero_();
    }
    let y = layer.forward(x.clone());
    let dx = layer.backward(dy.clone());
    let mut out = vec![y.data().to_vec(), dx.data().to_vec()];
    out.extend(layer.params().iter().map(|p| p.grad.data().to_vec()));
    out
}

#[test]
fn conv_forward_and_backward() {
    // (cin, cout, hw, k, stride, pad, batch): a 3x3 layer whose per-image
    // GEMMs split on their own, a strided 5x5 one (the climate encoder's
    // kind), and a first-layer shape (3 channels, one B panel).
    for (cin, cout, hw, k, stride, pad, batch) in [
        (32, 64, 32, 3, 1, 1, 3),
        (8, 24, 48, 5, 2, 2, 4),
        (3, 128, 64, 3, 1, 1, 2),
        (16, 32, 24, 3, 1, 1, 8),
    ] {
        let mut rng = TensorRng::new(7);
        let mut conv = Conv2d::new("c", cin, cout, k, stride, pad, &mut rng);
        let x = rng.uniform_tensor(Shape4::new(batch, cin, hw, hw), -1.0, 1.0);
        let dy = rng.uniform_tensor(conv.out_shape(x.shape()), -1.0, 1.0);
        assert!(batch * conv.geometry(hw, hw).macs_per_image() as usize >= PAR_WORK);
        same_at_every_width(
            &format!("conv {cin}->{cout} {hw}px k{k} s{stride} n{batch}"),
            || step(&mut conv, &x, &dy),
        );
    }
}

/// The conv step as `im2col` + GEMM, with backward-data the whole
/// `dcol = Wᵀ · dY` scattered by one `col2im`.
fn conv_by_col_matrix(
    geo: &ConvGeometry,
    w: &[f32],
    b: &[f32],
    x: &Tensor,
    dy: &Tensor,
) -> Vec<Vec<f32>> {
    let (rows, cols, cout) = (geo.col_rows(), geo.col_cols(), geo.cout);
    let (mut col, mut dcol) = (vec![0.0; rows * cols], vec![0.0; rows * cols]);
    let (mut y, mut dx) = (Tensor::zeros(dy.shape()), Tensor::zeros(x.shape()));
    let (mut dw, mut db) = (vec![0.0; w.len()], vec![0.0f32; cout]);
    for n in 0..x.shape().n {
        let g = dy.item(n);
        im2col(geo, x.item(n), &mut col);
        gemm_bias(
            Transpose::No,
            Transpose::No,
            cout,
            cols,
            rows,
            w,
            &col,
            b,
            y.item_mut(n),
        );
        gemm(
            Transpose::No,
            Transpose::Yes,
            cout,
            rows,
            cols,
            1.0,
            g,
            &col,
            1.0,
            &mut dw,
        );
        for (db, g) in db.iter_mut().zip(g.chunks(cols)) {
            *db += g.iter().sum::<f32>();
        }
        gemm(
            Transpose::Yes,
            Transpose::No,
            rows,
            cols,
            cout,
            1.0,
            w,
            g,
            0.0,
            &mut dcol,
        );
        col2im(geo, &dcol, dx.item_mut(n));
    }
    vec![y.data().to_vec(), dx.data().to_vec(), dw, db]
}

/// The deconv step the same way: forward the whole `Wᵀ · x` scattered by
/// `col2im` (then the bias), backward-data and weight gradient against
/// `im2col(dY)` of the mirror conv `geo`.
fn deconv_by_col_matrix(
    geo: &ConvGeometry,
    w: &[f32],
    b: &[f32],
    x: &Tensor,
    dy: &Tensor,
) -> Vec<Vec<f32>> {
    let (rows, cols, cin) = (geo.col_rows(), geo.col_cols(), geo.cout);
    let mut col = vec![0.0; rows * cols];
    let (mut y, mut dx) = (Tensor::zeros(dy.shape()), Tensor::zeros(x.shape()));
    let (mut dw, mut db) = (vec![0.0; w.len()], vec![0.0f32; geo.cin]);
    let plane = geo.h * geo.w;
    for n in 0..x.shape().n {
        gemm(
            Transpose::Yes,
            Transpose::No,
            rows,
            cols,
            cin,
            1.0,
            w,
            x.item(n),
            0.0,
            &mut col,
        );
        col2im(geo, &col, y.item_mut(n));
        for (out, &b) in y
            .item_mut(n)
            .chunks_mut(plane)
            .zip(b)
            .filter(|(_, &b)| b != 0.0)
        {
            out.iter_mut().for_each(|v| *v += b);
        }
        let g = dy.item(n);
        im2col(geo, g, &mut col);
        gemm(
            Transpose::No,
            Transpose::No,
            cin,
            cols,
            rows,
            1.0,
            w,
            &col,
            0.0,
            dx.item_mut(n),
        );
        gemm(
            Transpose::No,
            Transpose::Yes,
            cin,
            rows,
            cols,
            1.0,
            x.item(n),
            &col,
            1.0,
            &mut dw,
        );
        for (db, g) in db.iter_mut().zip(g.chunks(plane)) {
            *db += g.iter().sum::<f32>();
        }
    }
    vec![y.data().to_vec(), dx.data().to_vec(), dw, db]
}

#[test]
fn conv_and_deconv_match_the_col_matrix_lowering() {
    // (cin, cout, hw, k, stride, pad, batch). Conv: HEP's 3x3 with its
    // groups and B slabs split across threads, a ragged last channel
    // group (29·9 = 261 col rows), the climate encoder's strided 5x5,
    // one 3-channel first layer; deconv: the climate decoder's 4x4/s2, a
    // 3x3/s1 and a 5x5/s2. Non-zero biases, so every bias path runs.
    let convs = [
        (64, 64, 24, 3, 1, 1, 2),
        (29, 16, 17, 3, 1, 1, 2),
        (8, 24, 48, 5, 2, 2, 2),
        (3, 32, 40, 3, 1, 1, 2),
    ];
    let deconvs = [
        (64, 32, 12, 4, 2, 1, 2),
        (8, 29, 9, 3, 1, 1, 3),
        (24, 12, 10, 5, 2, 2, 2),
    ];
    for width in [1, 2] {
        par::set_width(width);
        for (cin, cout, hw, k, stride, pad, batch) in convs {
            let mut rng = TensorRng::new(17);
            let mut conv = Conv2d::new("c", cin, cout, k, stride, pad, &mut rng);
            conv.params_mut()[1].value = rng.uniform_tensor(Shape4::flat(cout), -1.0, 1.0);
            let x = rng.uniform_tensor(Shape4::new(batch, cin, hw, hw), -1.0, 1.0);
            let dy = rng.uniform_tensor(conv.out_shape(x.shape()), -1.0, 1.0);
            let (w, b) = (
                conv.params()[0].value.clone(),
                conv.params()[1].value.clone(),
            );
            let want = conv_by_col_matrix(&conv.geometry(hw, hw), w.data(), b.data(), &x, &dy);
            for (i, (g, w)) in step(&mut conv, &x, &dy).iter().zip(&want).enumerate() {
                assert_same_bits(
                    g,
                    w,
                    &format!("conv {cin}->{cout} {hw}px k{k} s{stride}, width {width}, buffer {i}"),
                );
            }
        }
        for (cin, cout, hw, k, stride, pad, batch) in deconvs {
            let mut rng = TensorRng::new(19);
            let mut deconv = Deconv2d::new("d", cin, cout, k, stride, pad, &mut rng);
            deconv.params_mut()[1].value = rng.uniform_tensor(Shape4::flat(cout), -1.0, 1.0);
            let x = rng.uniform_tensor(Shape4::new(batch, cin, hw, hw), -1.0, 1.0);
            let dy = rng.uniform_tensor(deconv.out_shape(x.shape()), -1.0, 1.0);
            let (oh, ow) = (dy.shape().h, dy.shape().w);
            let geo = ConvGeometry::new(cout, cin, oh, ow, k, stride, pad);
            let (w, b) = (
                deconv.params()[0].value.clone(),
                deconv.params()[1].value.clone(),
            );
            let want = deconv_by_col_matrix(&geo, w.data(), b.data(), &x, &dy);
            for (i, (g, w)) in step(&mut deconv, &x, &dy).iter().zip(&want).enumerate() {
                assert_same_bits(
                    g,
                    w,
                    &format!(
                        "deconv {cin}->{cout} {hw}px k{k} s{stride}, width {width}, buffer {i}"
                    ),
                );
            }
        }
    }
}

#[test]
fn relu_and_max_pool() {
    let mut rng = TensorRng::new(9);
    // Several PAR_CHUNK units; 2x2/2 pooling (the HEP net's) and an
    // overlapping 3x3/2 window, whose backward adds twice into one input.
    let x = rng.uniform_tensor(Shape4::new(3, 16, 48, 48), -1.0, 1.0);
    assert!(x.len() >= 3 * PAR_CHUNK);
    for (k, stride) in [(2, 2), (3, 2)] {
        let mut relu = Relu::new("r");
        let mut pool = MaxPool2d::new("p", k, stride);
        let dy = rng.uniform_tensor(pool.out_shape(x.shape()), -1.0, 1.0);
        same_at_every_width(&format!("relu + pool {k}/{stride}"), || {
            let a = relu.forward(x.clone());
            let y = pool.forward(a.clone());
            let da = pool.backward(dy.clone());
            let dx = relu.backward(da.clone());
            vec![
                a.data().to_vec(),
                y.data().to_vec(),
                da.data().to_vec(),
                dx.data().to_vec(),
            ]
        });
    }
}

/// The triple's buffers as its three layers give them one at a time:
/// forward output, `infer` output, input gradient, then the conv's weight
/// and bias gradients.
fn triple_by_layers(net: &mut Network, x: &Tensor, g: &Tensor) -> Vec<Vec<f32>> {
    net.zero_grads();
    let inferred = net.layers().iter().fold(x.clone(), |x, l| l.infer(&x));
    let y = net
        .layers_mut()
        .iter_mut()
        .fold(x.clone(), |x, l| l.forward(x));
    let dx = net
        .layers_mut()
        .iter_mut()
        .rev()
        .fold(g.clone(), |g, l| l.backward(g));
    triple_buffers(net, [y, inferred, dx])
}

/// The same buffers from `Network`'s walks, which fuse the triple.
fn triple_fused(net: &mut Network, x: &Tensor, g: &Tensor) -> Vec<Vec<f32>> {
    net.zero_grads();
    let inferred = net.infer(x);
    let y = net.forward(x);
    let dx = net.backward(g);
    triple_buffers(net, [y, inferred, dx])
}

fn triple_buffers(net: &Network, tensors: [Tensor; 3]) -> Vec<Vec<f32>> {
    let grads = net
        .param_blocks()
        .into_iter()
        .map(|b| b.grad.data().to_vec());
    tensors
        .iter()
        .map(|t| t.data().to_vec())
        .chain(grads)
        .collect()
}

#[test]
fn fused_conv_relu_pool_matches_its_three_layers() {
    // (cin, cout, hw, pool k, pool stride, batch): HEP's conv1 and conv2
    // at batch 1 (one item, the GEMM split inside it) and 8 (items split
    // across threads); an odd 5x5 input, whose last row and column no
    // window reads; overlapping 3x3/2 windows, where one conv output
    // takes two windows' gradients; items of 245 and 486 elements, not
    // whole ReLU mask words. Random non-zero biases.
    let cases = [
        (3, 128, 64, 2, 2, 1),
        (3, 128, 64, 2, 2, 8),
        (128, 128, 32, 2, 2, 1),
        (128, 128, 32, 2, 2, 8),
        (2, 3, 5, 2, 2, 3),
        (4, 6, 9, 3, 2, 4),
        (3, 5, 7, 2, 2, 2),
    ];
    for (cin, cout, hw, k, stride, batch) in cases {
        let mut rng = TensorRng::new(23);
        let mut conv = Conv2d::new("conv", cin, cout, 3, 1, 1, &mut rng);
        conv.params_mut()[1].value = rng.uniform_tensor(Shape4::flat(cout), -0.5, 0.5);
        let mut net = Network::new("triple")
            .push(conv)
            .push(Relu::new("relu"))
            .push(MaxPool2d::new("pool", k, stride));
        let x = rng.uniform_tensor(Shape4::new(batch, cin, hw, hw), -1.0, 1.0);
        let g = rng.uniform_tensor(net.out_shape(x.shape()), -1.0, 1.0);
        for width in [1, 2] {
            par::set_width(width);
            let want = triple_by_layers(&mut net, &x, &g);
            let got = triple_fused(&mut net, &x, &g);
            assert_eq!(got.len(), 5);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let what = [
                    "forward",
                    "infer",
                    "input gradient",
                    "weight gradient",
                    "bias gradient",
                ][i];
                let case =
                    format!("{cin}->{cout} {hw}px pool {k}/{stride} n{batch}, width {width}");
                assert_same_bits(g, w, &format!("{case}: {what}"));
            }
        }
    }
}

/// What the in-place ReLU must treat exactly as `infer` and the masked
/// gradient do: NaN, both infinities and zeros, subnormals of both signs,
/// and ordinary values.
const PALETTE: [f32; 10] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    1e-40,
    -1e-40,
    f32::MIN_POSITIVE,
    0.75,
    -2.5,
];

#[test]
fn relu_in_place_matches_infer_and_the_masked_gradient() {
    // Lengths around one mask word and one thread unit, and a ragged
    // multiple of both. One layer throughout, so a forward also runs on
    // a longer one's mask.
    let lengths = [
        1,
        63,
        64,
        65,
        PAR_CHUNK - 1,
        PAR_CHUNK,
        PAR_CHUNK + 1,
        3 * PAR_CHUNK + 17,
    ];
    let mut relu = Relu::new("r");
    for width in [1, 2] {
        par::set_width(width);
        for len in lengths {
            // Every (input, gradient) pair of the palette in the first
            // 100 elements, then palette values among random ones.
            let mut rng = TensorRng::new(len as u64);
            let mut value = |i: usize, pick: usize| {
                if i < 100 || i.is_multiple_of(7) {
                    PALETTE[pick % PALETTE.len()]
                } else {
                    rng.uniform_range(-1.0, 1.0) as f32
                }
            };
            let x = Tensor::from_flat((0..len).map(|i| value(i, i)).collect());
            let g = Tensor::from_flat((0..len).map(|i| value(i, i / 10)).collect());
            let what = format!("relu, {len} elements, width {width}");

            let y = relu.forward(x.clone());
            assert_same_bits(
                y.data(),
                relu.infer(&x).data(),
                &format!("{what}: forward vs infer"),
            );
            let dx = relu.backward(g.clone());
            let masked: Vec<f32> = x
                .data()
                .iter()
                .zip(g.data())
                .map(|(&x, &g)| if x > 0.0 { g } else { 0.0 })
                .collect();
            assert_same_bits(
                dx.data(),
                &masked,
                &format!("{what}: backward vs the masked gradient"),
            );
            // Spelled out: a NaN or infinite gradient where the input was
            // not positive comes out as +0.0.
            for (i, (&x, (&g, &d))) in x
                .data()
                .iter()
                .zip(g.data().iter().zip(dx.data()))
                .enumerate()
            {
                if (x.is_nan() || x <= 0.0) && !g.is_finite() {
                    assert_eq!(d.to_bits(), 0, "{what} [{i}]: x {x}, g {g} gave {d}");
                }
            }
        }
    }
}

#[test]
fn hep_network_gradient() {
    let mut rng = TensorRng::new(3);
    let mut net = arch::hep_network(&mut rng);
    let x = rng.uniform_tensor(Shape4::new(4, 3, 64, 64), -1.0, 1.0);
    let labels = [0usize, 1, 1, 0];
    same_at_every_width("hep_network forward + backward", || {
        for layer in net.layers_mut() {
            for p in layer.params_mut() {
                p.grad.zero_();
            }
        }
        let logits = net.forward(&x);
        let (loss, dlogits) = SoftmaxCrossEntropy::forward(&logits, &labels);
        let dx = net.backward(&dlogits);
        let mut out = vec![vec![loss], logits.data().to_vec(), dx.data().to_vec()];
        for layer in net.layers() {
            out.extend(layer.params().iter().map(|p| p.grad.data().to_vec()));
        }
        out
    });
    let inferred: Vec<Tensor> = [1usize, 7]
        .into_iter()
        .map(|width| {
            par::set_width(width);
            net.infer(&x)
        })
        .collect();
    assert_same_bits(
        inferred[1].data(),
        inferred[0].data(),
        "hep_network infer, width 7 vs 1",
    );
}
