//! Heap guard for `ThreadEngine`: one copy of the model per role.
//!
//! A hybrid step needs, per rank, the model's values and its gradient,
//! and at the parameter servers the values, the solver's momentum and the
//! supervisor's failover snapshot. Everything else parameter-sized is
//! transient — the root's encoded PS message, each reply until it
//! replaces its block's value, the bucket being reduced; the group
//! broadcast copies straight between the ranks' models. A counting
//! `#[global_allocator]` reads the high-water mark of live heap bytes
//! over a whole run of a dense model of P bytes, above what was live when
//! the run started (the dataset), and holds it to a multiple of P. Both
//! limits sit less than `fc1.weight` (0.75 P) above the measured peak, so
//! one more buffer of the largest block fails them:
//!
//! * 1 group × 2 ranks, overlapped bucketed reduction: ≤ 11 P (4 P of
//!   rank models + 3 P at the servers + the transients; measured
//!   10.38 P). A staging copy of the largest block in the broadcast
//!   (11.13 P) fails it; a rank mirror of the model, a per-step flat
//!   gradient or a kept template each add 1–2 P.
//! * 1 group × 1 rank: ≤ 8 P (2 P + 3 P + the transients; measured
//!   7.31 P). A template model kept for the run adds 2 P and fails it.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a second test running on a sibling thread would
//! pollute the measured window.

use scidl_core::task::HepGradTask;
use scidl_core::thread_engine::{ThreadEngine, ThreadEngineConfig};
use scidl_data::{HepConfig, HepDataset};
use scidl_nn::network::Model;
use scidl_nn::{Dense, Network, Relu};
use scidl_tensor::TensorRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct CountingAlloc;

/// Heap bytes live now, and the most live at once since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// side statistics that publish no other data (hence `Relaxed`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller guarantees for `GlobalAlloc::alloc`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` come from this allocator, which is `System`.
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

const IMAGE: usize = 16;

/// `wide_train`'s shape at a quarter of its width: 1.05 M parameters,
/// three quarters of them in `fc1.weight`.
fn dense(seed: u64) -> Network {
    let rng = &mut TensorRng::new(seed);
    Network::new("dense")
        .push(Dense::new("fc1", 3 * IMAGE * IMAGE, 1024, rng))
        .push(Relu::new("relu1"))
        .push(Dense::new("fc2", 1024, 256, rng))
        .push(Relu::new("relu2"))
        .push(Dense::new("fc3", 256, 2, rng))
}

/// Peak live heap above entry during one run, in units of the model's
/// parameter bytes.
fn peak_over_entry(ds: &Arc<HepDataset>, ranks: usize) -> f64 {
    let p = 4 * dense(0).num_params();
    let mut cfg = ThreadEngineConfig::new(1, ranks, 4 * ranks);
    cfg.iterations = 3;
    cfg.lr = 1e-3;
    cfg.momentum = 0.9;
    cfg.overlap_comm = true;
    let entry = LIVE.load(Ordering::Relaxed);
    PEAK.store(entry, Ordering::Relaxed);
    let run = ThreadEngine::run_with(&cfg, ds.len(), dense, HepGradTask::new(Arc::clone(ds)));
    let peak = PEAK.load(Ordering::Relaxed);
    assert_eq!(run.updates, 3);
    assert!(run.final_params.iter().all(|x| x.is_finite()));
    (peak - entry) as f64 / p as f64
}

#[test]
fn thread_engine_keeps_one_model_copy_per_role() {
    let ds = Arc::new(HepDataset::generate(
        HepConfig {
            image_size: IMAGE,
            ..HepConfig::small()
        },
        32,
        7,
    ));
    let two = peak_over_entry(&ds, 2);
    let one = peak_over_entry(&ds, 1);
    eprintln!("peak above entry: 1 × 2 ranks {two:.2} P, 1 × 1 rank {one:.2} P");
    assert!(
        two <= 11.0,
        "1 × 2 ranks peaked at {two:.2} P above entry (limit 11 P)"
    );
    assert!(
        one <= 8.0,
        "1 × 1 rank peaked at {one:.2} P above entry (limit 8 P)"
    );
}
