//! Thread-count identity of the layers: conv forward/backward (image-
//! parallel forward, per-image backward with parallel lowering, GEMM and
//! bias gradient), ReLU, max pooling and one full `hep_network` gradient
//! must give the same bits at widths 2, 3, 4 and 7 as at width 1 (the
//! sequential loops). Shapes sit above the kernels' fan-out thresholds;
//! below them every width runs the same inline code.

use scidl_nn::{arch, Conv2d, Layer, MaxPool2d, Relu, SoftmaxCrossEntropy};
use scidl_tensor::{par, Shape4, Tensor, TensorRng, PAR_CHUNK, PAR_WORK};

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

#[test]
fn conv_forward_and_backward() {
    // (cin, cout, hw, k, stride, pad, batch): a 3x3 layer whose per-image
    // GEMMs split on their own, a strided 5x5 one (the climate encoder's
    // kind), and a first-layer shape (3 channels, one B panel).
    for (cin, cout, hw, k, stride, pad, batch) in
        [(32, 64, 32, 3, 1, 1, 3), (8, 24, 48, 5, 2, 2, 4), (3, 128, 64, 3, 1, 1, 2), (16, 32, 24, 3, 1, 1, 8)]
    {
        let mut rng = TensorRng::new(7);
        let mut conv = Conv2d::new("c", cin, cout, k, stride, pad, &mut rng);
        let x = rng.uniform_tensor(Shape4::new(batch, cin, hw, hw), -1.0, 1.0);
        let dy = rng.uniform_tensor(conv.out_shape(x.shape()), -1.0, 1.0);
        assert!(batch * conv.geometry(hw, hw).macs_per_image() as usize >= PAR_WORK);
        same_at_every_width(&format!("conv {cin}->{cout} {hw}px k{k} s{stride} n{batch}"), || {
            for p in conv.params_mut() {
                p.grad.zero_();
            }
            let y = conv.forward(&x);
            let dx = conv.backward(&dy);
            let mut out = vec![y.data().to_vec(), dx.data().to_vec()];
            out.extend(conv.params().iter().map(|p| p.grad.data().to_vec()));
            out
        });
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
            let a = relu.forward(&x);
            let y = pool.forward(&a);
            let da = pool.backward(&dy);
            let dx = relu.backward(&da);
            vec![a.data().to_vec(), y.data().to_vec(), da.data().to_vec(), dx.data().to_vec()]
        });
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
    assert_same_bits(inferred[1].data(), inferred[0].data(), "hep_network infer, width 7 vs 1");
}
