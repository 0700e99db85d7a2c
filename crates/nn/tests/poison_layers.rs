//! Poison never launders, layer by layer: a non-finite input element
//! reaches the output of every layer in the zoo as a non-finite value,
//! through `infer` and `forward` alike — so a NaN weight or activation
//! always arrives at the loss/gradient health sentinel in training and at
//! the registry's finite-probe gate in serving.

use scidl_nn::{Conv2d, Deconv2d, Dense, GlobalAvgPool, Layer, MaxPool2d, Network, Relu, Residual};
use scidl_tensor::{Shape4, Tensor, TensorRng};

/// `x` with element 21 (mid-plane, off every window corner) replaced.
fn poisoned(x: &Tensor, poison: f32) -> Tensor {
    let mut x = x.clone();
    x.data_mut()[21] = poison;
    x
}

#[test]
fn nonfinite_in_means_nonfinite_out_for_every_layer() {
    let mut rng = TensorRng::new(404);
    let inner = Network::new("inner")
        .push(Conv2d::new("rc", 2, 2, 3, 1, 1, &mut rng))
        .push(Relu::new("rr"));
    let mut zoo: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new("conv", 2, 3, 3, 1, 1, &mut rng)),
        Box::new(Deconv2d::new("deconv", 2, 3, 4, 2, 1, &mut rng)),
        Box::new(Dense::new("fc", 2 * 6 * 6, 4, &mut rng)),
        Box::new(Relu::new("relu")),
        Box::new(MaxPool2d::new("maxpool", 2, 2)),
        Box::new(GlobalAvgPool::new("gap")),
        Box::new(Residual::identity("res", inner)),
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
            assert!(served.item(1).iter().all(|v| v.is_finite()), "{name}: {poison} crossed items");
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
            1.0, f32::NAN, f32::NAN, f32::NAN, //
            2.0, 0.5, f32::NAN, f32::NAN,
        ],
    );
    let mut pool = MaxPool2d::new("p", 2, 2);
    let y = pool.forward(x.clone());
    assert!(y.data().iter().all(|v| v.is_nan()), "{:?}", y.data());
    assert!(pool.infer(&x).data().iter().all(|v| v.is_nan()));
    let gx = pool.backward(Tensor::from_vec(y.shape(), vec![5.0, 7.0]));
    assert_eq!([gx.data()[0], gx.data()[1], gx.data()[4], gx.data()[5]], [0.0, 5.0, 0.0, 0.0]);
    assert_eq!([2, 3, 6, 7].map(|i| gx.data()[i]).iter().sum::<f32>(), 7.0);
}
