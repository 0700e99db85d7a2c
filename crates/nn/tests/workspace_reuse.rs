//! Workspace reuse guarantees at the layer level: same-shape forwards
//! reuse their pooled col/pack scratch (pool size is stable, buffers are
//! pointer-stable), the threads of an image-parallel forward never share
//! a live buffer, and pooled reuse never changes numerical results.

use scidl_nn::{Conv2d, Deconv2d, Layer};
use scidl_tensor::{Shape4, TensorRng, Workspace};

#[test]
fn same_shape_forwards_keep_the_pool_stable() {
    let mut rng = TensorRng::new(7);
    let mut conv = Conv2d::new("c", 3, 8, 3, 1, 1, &mut rng);
    let x = rng.uniform_tensor(Shape4::new(1, 3, 12, 12), -1.0, 1.0);

    Workspace::clear();
    conv.forward(x.clone()); // warm-up populates the pool
    let warm = Workspace::pooled();
    assert!(warm >= 1, "forward should park its col/pack scratch");

    conv.forward(x.clone());
    assert_eq!(
        Workspace::pooled(),
        warm,
        "a same-shape forward must reuse pooled buffers, not grow the pool"
    );
    conv.forward(x.clone());
    assert_eq!(Workspace::pooled(), warm);
}

#[test]
fn pooled_scratch_is_pointer_stable_across_same_size_takes() {
    Workspace::clear();
    let len = 3 * 3 * 3 * 100; // a col-matrix-ish size
    let p1 = {
        let b = Workspace::take(len);
        b.as_ptr()
    };
    let p2 = {
        let b = Workspace::take(len);
        b.as_ptr()
    };
    assert_eq!(p1, p2, "same-size takes must hand back the same heap block");
}

#[test]
fn rayon_parallel_forward_never_aliases_live_buffers() {
    // The par_batch conv path takes one Workspace buffer per in-flight
    // item, on whichever thread (the caller or one of its helpers) took
    // the item. Correctness under any schedule requires live buffers to
    // be distinct; we verify through the result: the parallel batch
    // forward must equal per-item forwards exactly. Width 3 on purpose
    // (more threads than a 2-CPU box has), and a layer large enough to
    // be split at all.
    scidl_tensor::par::set_width(3);
    let mut rng = TensorRng::new(11);
    let mut conv = Conv2d::new("c", 16, 32, 3, 1, 1, &mut rng);
    let x = rng.uniform_tensor(Shape4::new(8, 16, 24, 24), -1.0, 1.0);
    assert!(8 * conv.geometry(24, 24).macs_per_image() as usize >= scidl_tensor::PAR_WORK);
    Workspace::clear();
    for round in 0..4 {
        let batch = conv.forward(x.clone()); // batch > 1 and small cols → par_batch path
        for i in 0..8 {
            let single = x.batch_slice(i, 1);
            let one = conv.forward(single);
            assert_eq!(
                batch.item(i),
                one.item(0),
                "round {round} item {i}: parallel batch path diverged from sequential"
            );
        }
    }
}

#[test]
fn reuse_never_changes_results_across_layers() {
    // Run conv and deconv twice each through a dirty pool; second
    // results must be bit-identical to the first (stale pooled contents
    // must never leak into outputs).
    let mut rng = TensorRng::new(23);
    let mut conv = Conv2d::new("c", 3, 6, 3, 1, 1, &mut rng);
    let mut dec = Deconv2d::new("d", 6, 3, 4, 2, 1, &mut rng);

    let x = rng.uniform_tensor(Shape4::new(2, 3, 8, 8), -1.0, 1.0);

    Workspace::clear();
    let y1 = conv.forward(x.clone());
    let d1 = dec.forward(y1.clone());

    // Dirty the pool with unrelated sizes, then repeat.
    drop(Workspace::take(17));
    drop(Workspace::take(4099));
    let y2 = conv.forward(x.clone());
    let d2 = dec.forward(y1.clone());

    assert_eq!(y1.data(), y2.data(), "conv output changed on pooled reuse");
    assert_eq!(
        d1.data(),
        d2.data(),
        "deconv output changed on pooled reuse"
    );
}
