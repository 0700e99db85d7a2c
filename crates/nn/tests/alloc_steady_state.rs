//! Steady-state allocation audit for the gemm/col hot path.
//!
//! A counting `#[global_allocator]` proves the Workspace pool keeps the
//! heap allocator off the training loop: after a warm-up iteration, a
//! bare packed GEMM performs **zero** allocations, and a full conv
//! forward+backward iteration allocates only its unavoidable outputs
//! (the output tensor, the cached-input clone, the input-gradient
//! tensor) — never gemm pack panels or im2col scratch. The same holds
//! for a layer large enough to be split across the thread pool: regions
//! are posted from the caller's stack, and a helper's scratch comes from
//! its own warmed pool. And it holds for serving: a warm
//! `Network::infer` allocates its layers' outputs and nothing else.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a second test running on a sibling thread would
//! pollute the armed window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A pool buffer growing counts as an allocation — the steady
        // state must not resize its scratch either.
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with the counter armed and returns the number of heap
/// allocations (including reallocs) it performed.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (usize, R) {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let r = f();
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), r)
}

#[test]
fn second_iteration_allocates_nothing_on_the_gemm_path() {
    use scidl_nn::{Conv2d, Layer};
    use scidl_tensor::{gemm, Shape4, Tensor, TensorRng, Transpose, Workspace};

    // --- Part 1: a bare packed GEMM is allocation-free once warm. ---
    // Shape crosses the small-problem, parallel and KC thresholds, so the
    // full pack machinery (B slab + per-tile A panels) runs.
    let (m, n, k) = (64, 300, 288);
    let mut rng = TensorRng::new(42);
    let a: Vec<f32> = (0..m * k).map(|_| rng.uniform_range(-1.0, 1.0) as f32).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.uniform_range(-1.0, 1.0) as f32).collect();
    let mut c = vec![0.0f32; m * n];

    Workspace::clear();
    // Warm-up: populates the thread-local pool with the pack panels.
    gemm(Transpose::No, Transpose::No, m, n, k, 1.0, &a, &b, 0.0, &mut c);
    let (gemm_allocs, _) = count_allocs(|| {
        gemm(Transpose::No, Transpose::No, m, n, k, 1.0, &a, &b, 0.0, &mut c);
    });
    assert_eq!(
        gemm_allocs, 0,
        "warm packed gemm performed {gemm_allocs} heap allocations; the pack workspace must be pooled"
    );

    // --- Part 2: a warm conv forward+backward allocates only tensors. ---
    let mut conv = Conv2d::new("c", 3, 16, 3, 1, 1, &mut rng);
    let x = rng.uniform_tensor(Shape4::new(2, 3, 14, 14), -1.0, 1.0);
    let dy_shape = conv.out_shape(x.shape());
    let dy = Tensor::filled(dy_shape, 1.0);

    // Two warm iterations: the first grows the pool, the second settles
    // best-fit reuse ordering.
    for _ in 0..2 {
        conv.forward(&x);
        conv.backward(&dy);
    }

    let (conv_allocs, _) = count_allocs(|| {
        let y = conv.forward(&x);
        let dx = conv.backward(&dy);
        (y, dx)
    });
    // Unavoidable steady-state allocations: the output tensor, the
    // cached-input clone, and the input-gradient tensor. Anything above
    // that means col/pack scratch leaked back onto the heap path.
    assert!(
        conv_allocs <= 3,
        "warm conv iteration performed {conv_allocs} heap allocations (expected ≤ 3: \
         output, cached input, input gradient)"
    );

    // --- Part 3: the same with a helper thread taking part. ---
    // Width 2 whatever the machine has; a layer above the fan-out
    // thresholds (image-parallel forward; parallel im2col, bias gradient
    // and col2im in backward).
    scidl_tensor::par::set_width(2);
    let mut conv = Conv2d::new("c", 16, 32, 3, 1, 1, &mut rng);
    let x = rng.uniform_tensor(Shape4::new(8, 16, 24, 24), -1.0, 1.0);
    assert!(8 * conv.geometry(24, 24).macs_per_image() as usize >= scidl_tensor::PAR_WORK);
    let dy = Tensor::filled(conv.out_shape(x.shape()), 1.0);
    for _ in 0..2 {
        conv.forward(&x);
        conv.backward(&dy);
    }
    // Which thread takes which image is the scheduler's business, so the
    // helper may have sat the warm-up out. Two units that wait for each
    // other put one on the helper for certain; it parks the two scratch
    // buffers (col, B slab) an image-parallel unit holds at once.
    let arrived = AtomicUsize::new(0);
    scidl_tensor::par::for_each_index(2, |_| {
        arrived.fetch_add(1, Ordering::SeqCst);
        while arrived.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        let scratch = (Workspace::take(1 << 18), Workspace::take(1 << 18));
        drop(scratch);
    });
    for round in 0..3 {
        let (pooled_allocs, _) = count_allocs(|| {
            let y = conv.forward(&x);
            let dx = conv.backward(&dy);
            (y, dx)
        });
        assert!(
            pooled_allocs <= 3,
            "round {round}: warm conv iteration with a helper performed {pooled_allocs} heap \
             allocations (expected ≤ 3: output, cached input, input gradient)"
        );
    }

    // --- Part 4: a warm `Network::infer` allocates one buffer per layer. ---
    // No batch clone, no per-call scratch: the lowering and the pack
    // panels come from the same pool training warmed.
    use scidl_nn::{Dense, MaxPool2d, Network, Relu};
    let net = Network::new("served")
        .push(Conv2d::new("conv", 3, 8, 3, 1, 1, &mut rng))
        .push(Relu::new("relu"))
        .push(MaxPool2d::new("pool", 2, 2))
        .push(Dense::new("fc", 8 * 6 * 6, 4, &mut rng));
    let x = rng.uniform_tensor(Shape4::new(2, 3, 12, 12), -1.0, 1.0);
    for _ in 0..2 {
        net.infer(&x);
    }
    let (infer_allocs, _) = count_allocs(|| net.infer(&x));
    assert!(
        infer_allocs <= net.layers().len(),
        "warm Network::infer performed {infer_allocs} heap allocations (expected ≤ {}: one \
         output per layer)",
        net.layers().len()
    );
}
