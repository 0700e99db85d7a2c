//! Cost tables build no weights.
//!
//! The simulators' workloads, the serving cost model and the
//! architecture ablation's pair read layer shapes and FLOPs off spec
//! lists (`scidl_nn::LayerSpec`); none builds a network. A counting
//! `#[global_allocator]` adds up every byte asked of the heap while
//! they are made: under 1 MiB for all five, where building the climate
//! model alone asks for ≈ 612 MiB (80.3 M weights and their gradients)
//! and the dense-head HEP variant for ≈ 789 MiB.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a second test running on a sibling thread would
//! pollute the measured window.

use scidl_core::experiments::arch_workloads;
use scidl_core::workloads::{climate_workload, hep_workload};
use scidl_serve::sim::ServiceModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

/// Bytes requested since the process started, frees not subtracted.
static ASKED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// side statistic that publishes no other data (hence `Relaxed`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ASKED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout the caller guarantees for `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ASKED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn cost_tables_allocate_under_one_mib() {
    let before = ASKED.load(Ordering::Relaxed);
    let (hep, climate, service, pair) = (
        hep_workload(),
        climate_workload(),
        ServiceModel::hep(),
        arch_workloads(),
    );
    let asked = ASKED.load(Ordering::Relaxed) - before;
    assert!(
        asked < 1 << 20,
        "cost tables asked the heap for {asked} bytes"
    );
    // What they describe is the full-size models.
    assert_eq!(hep.params, 594_178);
    assert!(climate.params > 80_000_000, "{}", climate.params);
    assert_eq!(service.layers.len(), hep.layers.len());
    assert!(pair[1].1.params > 100_000_000, "{}", pair[1].1.params);
}
