//! Poison never launders, layer by layer: a non-finite input element
//! reaches the output of every layer in the zoo as a non-finite value,
//! through `infer` and `forward` alike — so a NaN weight or activation
//! always arrives at the loss/gradient health sentinel in training and at
//! the registry's finite-probe gate in serving. The `Conv2d → Relu →
//! MaxPool2d` pass `Network` fuses treats NaN, infinities, signed zeros
//! and ties exactly as its three layers do one at a time.

use scidl_nn::network::Model;
use scidl_nn::{Conv2d, Deconv2d, Dense, GlobalAvgPool, Layer, MaxPool2d, Network, Relu};
use scidl_tensor::{par, Shape4, Tensor, TensorRng};

/// `x` with element 21 (mid-plane, off every window corner) replaced.
fn poisoned(x: &Tensor, poison: f32) -> Tensor {
    let mut x = x.clone();
    x.data_mut()[21] = poison;
    x
}

#[test]
fn nonfinite_in_means_nonfinite_out_for_every_layer() {
    let mut rng = TensorRng::new(404);
    let mut zoo: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new("conv", 2, 3, 3, 1, 1, &mut rng)),
        Box::new(Deconv2d::new("deconv", 2, 3, 4, 2, 1, &mut rng)),
        Box::new(Dense::new("fc", 2 * 6 * 6, 4, &mut rng)),
        Box::new(Relu::new("relu")),
        Box::new(MaxPool2d::new("maxpool", 2, 2)),
        Box::new(GlobalAvgPool::new("gap")),
    ];
    let x = rng.uniform_tensor(Shape4::new(2, 2, 6, 6), 0.5, 1.0);
    for layer in &mut zoo {
        let name = layer.name().to_string();
        // `-inf` is the one poison a rectifier or a max may drop by
        // definition: `max(0, -inf) = 0`, `max(1, -inf) = 1`.
        let clamps = matches!(name.as_str(), "relu" | "maxpool");
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            if clamps && poison == f32::NEG_INFINITY {
                continue;
            }
            let x = poisoned(&x, poison);
            let served = layer.infer(&x);
            let trained = layer.forward(x);
            assert!(!served.all_finite(), "{name}: infer laundered {poison}");
            assert!(!trained.all_finite(), "{name}: forward laundered {poison}");
            // Item 1 is clean: poison must not leak across batch items.
            assert!(
                served.item(1).iter().all(|v| v.is_finite()),
                "{name}: {poison} crossed items"
            );
        }
    }
}

#[test]
fn relu_and_maxpool_pass_nan_through_exactly() {
    let x = Tensor::from_flat(vec![1.0, f32::NAN, -3.0, -0.0, 0.0, 2.0]);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut relu = Relu::new("r");
    let y = relu.forward(x.clone());
    assert_eq!(bits(&relu.infer(&x)), bits(&y));
    for (i, (&x, &y)) in x.data().iter().zip(y.data()).enumerate() {
        if x.is_nan() {
            assert!(y.is_nan(), "element {i}: NaN became {y}");
        } else {
            // What `max(0, x)` always gave, sign of zero included.
            assert_eq!(y.to_bits(), x.max(0.0).to_bits(), "element {i}");
        }
    }

    // One NaN among finite values, and an all-NaN window (`v > best`
    // alone gives 2.0 and `-inf`): the NaN wins both and owns the argmax,
    // so backward routes each window's gradient to a poisoned position.
    let x = Tensor::from_vec(
        Shape4::new(1, 1, 2, 4),
        vec![
            1.0,
            f32::NAN,
            f32::NAN,
            f32::NAN, //
            2.0,
            0.5,
            f32::NAN,
            f32::NAN,
        ],
    );
    let mut pool = MaxPool2d::new("p", 2, 2);
    let y = pool.forward(x.clone());
    assert!(y.data().iter().all(|v| v.is_nan()), "{:?}", y.data());
    assert!(pool.infer(&x).data().iter().all(|v| v.is_nan()));
    let gx = pool.backward(Tensor::from_vec(y.shape(), vec![5.0, 7.0]));
    assert_eq!(
        [gx.data()[0], gx.data()[1], gx.data()[4], gx.data()[5]],
        [0.0, 5.0, 0.0, 0.0]
    );
    assert_eq!([2, 3, 6, 7].map(|i| gx.data()[i]).iter().sum::<f32>(), 7.0);
}

/// A 1x1 convolution that copies its one channel exactly (weight `1`,
/// bias `-0.0`, so even `-0.0` comes through), then a ReLU and a 2x2/2
/// max pool: the fused pass sees the values it is handed.
fn copy_relu_pool() -> Network {
    let mut conv = Conv2d::new("copy", 1, 1, 1, 1, 0, &mut TensorRng::new(1));
    conv.params_mut()[0].value = Tensor::filled(Shape4::new(1, 1, 1, 1), 1.0);
    conv.params_mut()[1].value = Tensor::filled(Shape4::flat(1), -0.0);
    Network::new("copy-relu-pool")
        .push(conv)
        .push(Relu::new("relu"))
        .push(MaxPool2d::new("pool", 2, 2))
}

#[test]
fn fused_triple_treats_poison_zeros_and_ties_as_its_layers_do() {
    const NAN: f32 = f32::NAN;
    const INF: f32 = f32::INFINITY;
    // One 5x5 plane per item: four 2x2 windows, and a last row and
    // column no window reads (large, so a gradient landing there shows).
    // Windows, by tap (row-major within the window):
    //   (0,0) NaN among finite values  (0,1) +inf among finite values
    //   (1,0) all negative             (1,1) an exact tie, taps 1 and 2
    // Item 1: -0.0 and +0.0 only; -inf, NaN and +inf together; a
    // subnormal; and every tap equal.
    #[rustfmt::skip]
    let x = Tensor::from_vec(Shape4::new(2, 1, 5, 5), vec![
        1.0,  NAN,  0.5,  INF,  9.0,
        2.0,  3.0,  0.25, 4.0,  9.0,
        -1.0, -2.0, 1.0,  7.0,  9.0,
        -3.0, -0.5, 7.0,  2.0,  9.0,
        9.0,  9.0,  9.0,  9.0,  9.0,

        -0.0, 0.0,  -INF, NAN,  9.0,
        -0.0, -0.0, INF,  1.0,  9.0,
        1e-40, -1e-40, 6.0, 6.0, 9.0,
        -2.0, -1e-40, 6.0, 6.0,  9.0,
        9.0,  9.0,  9.0,  9.0,  9.0,
    ]);
    // Non-finite gradients on windows that pass nothing must vanish.
    let g = Tensor::from_vec(
        Shape4::new(2, 1, 2, 2),
        vec![NAN, 5.0, INF, 3.0, -INF, NAN, 2.0, 0.75],
    );

    let mut net = copy_relu_pool();
    for width in [1, 2] {
        par::set_width(width);
        net.zero_grads();
        let by_layers_infer = net.layers().iter().fold(x.clone(), |x, l| l.infer(&x));
        let by_layers_y = net
            .layers_mut()
            .iter_mut()
            .fold(x.clone(), |x, l| l.forward(x));
        let by_layers_dx = net
            .layers_mut()
            .iter_mut()
            .rev()
            .fold(g.clone(), |g, l| l.backward(g));
        let by_layers_grads = net.flat_grads();
        assert_eq!(
            bits(&net.layers()[0].infer(&x)),
            bits(&x),
            "the 1x1 conv must copy its input exactly"
        );

        net.zero_grads();
        let inferred = net.infer(&x);
        let y = net.forward(&x);
        let dx = net.backward(&g);
        let what = format!("width {width}");
        assert_eq!(bits(&y), bits(&by_layers_y), "{what}: forward");
        assert_eq!(bits(&inferred), bits(&by_layers_infer), "{what}: infer");
        assert_eq!(bits(&dx), bits(&by_layers_dx), "{what}: input gradient");
        let grad_bits = |g: &[f32]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            grad_bits(&net.flat_grads()),
            grad_bits(&by_layers_grads),
            "{what}: weight and bias gradients"
        );

        // Spelled out. A NaN wins its window and passes no gradient; +inf
        // passes; an all-negative or all-zero window pools to +0.0 and
        // passes nothing; a tie goes to the first tap; the row and column
        // no window reads get +0.0.
        let y = y.data();
        assert!(y[0].is_nan() && y[5].is_nan(), "{what}: {y:?}");
        assert_eq!(
            [y[1], y[2], y[3]].map(f32::to_bits),
            [INF, 0.0, 7.0].map(f32::to_bits),
            "{what}"
        );
        assert_eq!(
            [y[4], y[6], y[7]].map(f32::to_bits),
            [0.0, 1e-40, 6.0].map(f32::to_bits),
            "{what}"
        );
        let mut want = [0.0f32; 50];
        want[3] = 5.0; // +inf, item 0
        want[13] = 3.0; // first of the tied 7.0s, item 0
        want[35] = 2.0; // the subnormal, item 1
        want[37] = 0.75; // first of four 6.0s, item 1
        assert_eq!(
            bits(&dx),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{what}: input gradient"
        );
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}
