//! Steady-state allocation audit for the gemm/conv hot path.
//!
//! A counting `#[global_allocator]` proves the Workspace pool keeps the
//! heap allocator off the training loop: after a warm-up iteration, a
//! bare packed GEMM performs **zero** allocations, and a full conv
//! forward+backward iteration allocates only its unavoidable outputs
//! (the output tensor and the input-gradient tensor: the input it caches
//! is the one it was handed, not a copy) — its pack panels and
//! backward-data slab come from the pool. The same holds for a layer
//! large enough to be split across the thread pool: regions are posted
//! from the caller's stack, and a helper's scratch comes from its own
//! warmed pool. It holds for serving: a warm `Network::infer` allocates
//! its layers' outputs and nothing else. And a warm ReLU step, which
//! rectifies and masks the buffers it is handed, allocates nothing.
//!
//! The allocator also keeps a high-water mark of live bytes, which bounds
//! what that pool holds: a warm conv step at HEP's conv2 shape keeps less
//! scratch, parked buffers included, than one col matrix of its input;
//! and a warm `Conv2d → Relu → MaxPool2d` triple at HEP's first shape,
//! which `Network` runs as one pass per item, never holds one full-batch
//! conv output.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a second test running on a sibling thread would
//! pollute the armed window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// Heap bytes live now, and the most live at once since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Counts one allocation of `bytes` if the counter is armed.
fn counted(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A pool buffer growing counts as an allocation — the steady
        // state must not resize its scratch either.
        counted(new_size);
        let ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !ptr.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => _ = LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed),
            }
        }
        ptr
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with the counter armed and returns the number of heap
/// allocations (including reallocs) it performed and the bytes they
/// asked for.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (usize, usize, R) {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let r = f();
    ARMED.store(false, Ordering::SeqCst);
    (
        ALLOCS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
        r,
    )
}

/// Runs `f` on two threads of the pool at once — the caller and, for
/// certain, a helper — whichever thread the scheduler would pick.
fn on_caller_and_helper(f: impl Fn() + Sync) {
    let arrived = AtomicUsize::new(0);
    scidl_tensor::par::for_each_index(2, |_| {
        arrived.fetch_add(1, Ordering::SeqCst);
        while arrived.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        f();
    });
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
    let a: Vec<f32> = (0..m * k)
        .map(|_| rng.uniform_range(-1.0, 1.0) as f32)
        .collect();
    let b: Vec<f32> = (0..k * n)
        .map(|_| rng.uniform_range(-1.0, 1.0) as f32)
        .collect();
    let mut c = vec![0.0f32; m * n];

    Workspace::clear();
    // Warm-up: populates the thread-local pool with the pack panels.
    gemm(
        Transpose::No,
        Transpose::No,
        m,
        n,
        k,
        1.0,
        &a,
        &b,
        0.0,
        &mut c,
    );
    let (gemm_allocs, _, _) = count_allocs(|| {
        gemm(
            Transpose::No,
            Transpose::No,
            m,
            n,
            k,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
        );
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
        conv.forward(x.clone());
        conv.backward(dy.clone());
    }

    // The step owns its input and gradient; their copies are made here,
    // outside the counted window, as the layer before would have made
    // them.
    let (xin, dyin) = (x.clone(), dy.clone());
    let (conv_allocs, _, _) = count_allocs(|| {
        let y = conv.forward(xin);
        let dx = conv.backward(dyin);
        (y, dx)
    });
    // Unavoidable steady-state allocations: the output tensor and the
    // input-gradient tensor. Anything above that means an input copy or
    // col/pack scratch leaked back onto the heap path.
    assert!(
        conv_allocs <= 2,
        "warm conv iteration performed {conv_allocs} heap allocations (expected ≤ 2: \
         output, input gradient)"
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
        conv.forward(x.clone());
        conv.backward(dy.clone());
    }
    // Which thread takes which image is the scheduler's business, so the
    // helper may have sat the warm-up out. Give it what an image-parallel
    // unit's first run sets up: its width (read once per thread) and the
    // one scratch buffer, a B slab, the unit holds.
    on_caller_and_helper(|| {
        scidl_tensor::par::width();
        drop(Workspace::take(1 << 18));
    });
    for round in 0..3 {
        let (xin, dyin) = (x.clone(), dy.clone());
        let (pooled_allocs, _, _) = count_allocs(|| {
            let y = conv.forward(xin);
            let dx = conv.backward(dyin);
            (y, dx)
        });
        assert!(
            pooled_allocs <= 2,
            "round {round}: warm conv iteration with a helper performed {pooled_allocs} heap \
             allocations (expected ≤ 2: output, input gradient)"
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
    let (infer_allocs, _, _) = count_allocs(|| net.infer(&x));
    assert!(
        infer_allocs <= net.layers().len(),
        "warm Network::infer performed {infer_allocs} heap allocations (expected ≤ {}: one \
         output per layer)",
        net.layers().len()
    );

    // --- Part 5: a warm ReLU step allocates nothing. ---
    // Two threads' units and a ragged last mask word: forward rectifies
    // the buffer it is handed and fills its mask, backward clears the
    // gradient it is handed in place.
    let mut relu = Relu::new("relu");
    let x = rng.uniform_tensor(Shape4::new(2, 31, 33, 33), -1.0, 1.0);
    assert!(x.len() > 2 * scidl_tensor::PAR_CHUNK && !x.len().is_multiple_of(64));
    for _ in 0..2 {
        let y = relu.forward(x.clone());
        relu.backward(y);
    }
    let (xin, gin) = (x.clone(), x.clone());
    let (relu_allocs, relu_bytes, _) = count_allocs(|| {
        let y = relu.forward(xin);
        let dx = relu.backward(gin);
        (y, dx)
    });
    assert_eq!(
        (relu_allocs, relu_bytes),
        (0, 0),
        "a warm ReLU forward+backward allocated {relu_bytes} B in {relu_allocs} allocations"
    );

    // --- Part 6: a warm conv step holds less than one col matrix. ---
    // HEP's conv2 (128→128, 3x3, 32x32, batch 2), on the caller and a
    // helper with their pools emptied first: every byte live at the
    // step's peak beyond the pools' start is scratch — parked pack panels
    // and slabs included — except the output and the input gradient (the
    // input and output gradient the step is handed are live before it).
    // Lowering through a col matrix held two per thread.
    let mut conv = Conv2d::new("conv2", 128, 128, 3, 1, 1, &mut rng);
    let x = rng.uniform_tensor(Shape4::new(2, 128, 32, 32), -1.0, 1.0);
    let dy = Tensor::filled(conv.out_shape(x.shape()), 1.0);
    let geo = conv.geometry(32, 32);
    let col_bytes = geo.col_rows() * geo.col_cols() * std::mem::size_of::<f32>();
    let tensor_bytes = (dy.len() + x.len()) * std::mem::size_of::<f32>();
    let (xin, dyin) = (x.clone(), dy.clone());
    on_caller_and_helper(Workspace::clear);
    let base = LIVE.load(Ordering::SeqCst);
    for _ in 0..2 {
        conv.forward(x.clone());
        conv.backward(dy.clone());
    }
    PEAK.store(LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
    let step = (conv.forward(xin), conv.backward(dyin));
    let scratch = PEAK.load(Ordering::SeqCst) - base - tensor_bytes;
    drop(step);
    assert!(
        scratch < col_bytes,
        "a warm HEP conv2 step holds {scratch} B of scratch beyond its tensors, not less than one \
         {col_bytes} B col matrix"
    );

    // --- Part 7: a warm conv forward makes no copy of its input. ---
    // Same layer: what it allocates is its output and pool-sized change,
    // short of the output plus one input's bytes a cached copy would add.
    let out_bytes = dy.len() * std::mem::size_of::<f32>();
    let in_bytes = x.len() * std::mem::size_of::<f32>();
    let xin = x.clone();
    let (_, fwd_bytes, y) = count_allocs(|| conv.forward(xin));
    conv.backward(y);
    assert!(
        fwd_bytes < out_bytes + in_bytes,
        "a warm HEP conv2 forward allocated {fwd_bytes} B, not less than its {out_bytes} B output \
         plus one {in_bytes} B input: it copied its input"
    );

    // --- Part 8: a warm fused triple holds less than one conv output. ---
    // HEP's conv1 → relu1 → pool1 (3→128, 64x64, batch 8) through
    // `Network`, which runs it as one pass per item, at width 2: every
    // byte its forward and backward add at their peak — the pooled
    // output, the input gradient, `Network`'s copies of the input and of
    // the output gradient, the per-item scratch — stays short of the one
    // full-batch conv output the three layers one at a time would write.
    let mut net = Network::new("triple")
        .push(Conv2d::new("conv1", 3, 128, 3, 1, 1, &mut rng))
        .push(Relu::new("relu1"))
        .push(MaxPool2d::new("pool1", 2, 2));
    let x = rng.uniform_tensor(Shape4::new(8, 3, 64, 64), -1.0, 1.0);
    let conv_out_bytes = net.layers()[0].out_shape(x.shape()).len() * std::mem::size_of::<f32>();
    let g = Tensor::filled(net.out_shape(x.shape()), 1.0);
    for _ in 0..2 {
        net.forward(&x);
        net.backward(&g);
    }
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let step = (net.forward(&x), net.backward(&g));
    let held = PEAK.load(Ordering::SeqCst) - base;
    drop(step);
    assert!(
        held < conv_out_bytes,
        "a warm fused conv1+relu1+pool1 step held {held} B at its peak, not less than one {conv_out_bytes} B \
         full-batch conv output"
    );
}
