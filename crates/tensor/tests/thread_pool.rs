//! Invariants of the in-tree thread pool (`vendor/rayon`), exercised
//! through the `scidl_tensor::par` re-export so the workspace's own
//! `cargo test` runs them: every unit exactly once at any width, nested
//! regions inline, a unit's panic delivered to its caller with the pool
//! left usable, no deadlock under eight callers at once, and width and
//! helper placement following the owner's affinity mask.
//!
//! Widths above the machine's CPU count are used on purpose: an
//! oversubscribed pool must stay correct, only slower.

use scidl_tensor::par;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const WIDTHS: [usize; 5] = [1, 2, 3, 4, 7];

/// Blocks until `n` units have arrived: forces the units of one region
/// onto `n` distinct threads at the same time (a thread cannot wait in two
/// units at once). Yields so it also works with fewer CPUs than threads.
fn rendezvous(arrived: &AtomicUsize, n: usize) {
    arrived.fetch_add(1, Ordering::SeqCst);
    let start = Instant::now();
    while arrived.load(Ordering::SeqCst) < n {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "helper never picked its unit up"
        );
        std::thread::yield_now();
    }
}

#[test]
fn every_unit_runs_exactly_once_at_every_width() {
    for width in WIDTHS {
        par::set_width(width);
        for n in [0usize, 1, 2, 5, 64, 1000] {
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            par::for_each_index(n, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "width {width}, {n} units"
            );
        }
        // Many short regions back to back: helpers picking a region up
        // race the owner taking it back.
        let total = AtomicUsize::new(0);
        for _ in 0..5_000 {
            par::for_each_index(3, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 15_000, "width {width}");
    }
}

#[test]
fn chunks_cover_the_slice_without_overlap() {
    for width in WIDTHS {
        par::set_width(width);
        for (len, chunk) in [
            (0usize, 3usize),
            (1, 1),
            (10, 3),
            (4096, 64),
            (1000, 7),
            (5, 100),
        ] {
            let mut data = vec![0u32; len];
            let mut tags = vec![0u32; len];
            par::for_each_chunk_mut(&mut data, chunk, |i, part| {
                assert!(
                    part.len() == chunk || i == len / chunk,
                    "only the last chunk is short"
                );
                part.iter_mut().for_each(|v| *v += 1 + i as u32);
            });
            par::for_each_chunk_pair_mut(&mut data, &mut tags, chunk, |i, a, b| {
                assert_eq!(a.len(), b.len());
                a.iter_mut()
                    .zip(b)
                    .for_each(|(a, b)| *b = *a * 10 + i as u32);
            });
            for (j, (&d, &t)) in data.iter().zip(&tags).enumerate() {
                let i = (j / chunk) as u32;
                assert_eq!(
                    (d, t),
                    (1 + i, (1 + i) * 10 + i),
                    "width {width} len {len} chunk {chunk} [{j}]"
                );
            }
        }
    }
}

#[test]
fn a_region_is_shared_with_a_helper_thread() {
    par::set_width(2);
    let arrived = AtomicUsize::new(0);
    let ids = std::sync::Mutex::new(Vec::new());
    par::for_each_index(2, |_| {
        rendezvous(&arrived, 2);
        ids.lock().unwrap().push(std::thread::current().id());
    });
    let ids = ids.into_inner().unwrap();
    assert_ne!(
        ids[0], ids[1],
        "two units that wait for each other need two threads"
    );
    assert!(
        ids.contains(&std::thread::current().id()),
        "the caller always takes part"
    );
}

#[test]
fn nested_regions_run_inline_on_the_thread_that_reached_them() {
    par::set_width(4);
    let arrived = AtomicUsize::new(0);
    let inner_runs = AtomicUsize::new(0);
    par::for_each_index(2, |_| {
        // Both an owner-run and a helper-run unit start a nested region.
        rendezvous(&arrived, 2);
        let outer: ThreadId = std::thread::current().id();
        par::for_each_index(16, |_| {
            assert_eq!(
                std::thread::current().id(),
                outer,
                "nested unit left its thread"
            );
            inner_runs.fetch_add(1, Ordering::Relaxed);
        });
    });
    assert_eq!(inner_runs.load(Ordering::Relaxed), 32);
}

#[test]
fn a_panicking_unit_reaches_its_caller_and_leaves_the_pool_usable() {
    par::set_width(3);
    let caller = std::thread::current().id();
    // Once from a unit the caller runs, once from a unit a helper runs.
    for on_caller in [true, false] {
        let arrived = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par::for_each_index(2, |_| {
                rendezvous(&arrived, 2);
                if (std::thread::current().id() == caller) == on_caller {
                    panic!("unit failed");
                }
            });
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"unit failed"));

        let runs = AtomicUsize::new(0);
        par::for_each_index(100, |_| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(
            runs.load(Ordering::Relaxed),
            100,
            "pool unusable after a panic (on_caller = {on_caller})"
        );
    }
}

#[test]
fn eight_callers_hammering_nested_regions_neither_deadlock_nor_lose_units() {
    const CALLERS: usize = 8;
    const ROUNDS: usize = 300;
    let (done_tx, done_rx) = mpsc::channel();
    let handles: Vec<_> = (0..CALLERS)
        .map(|c| {
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                // 8 owners × 2 helpers on a small box: oversubscribed.
                par::set_width(3);
                let mut total = 0usize;
                for round in 0..ROUNDS {
                    let runs = AtomicUsize::new(0);
                    par::for_each_index(6, |i| {
                        par::for_each_index(5, |j| {
                            runs.fetch_add(1 + (i + j + round + c) % 2, Ordering::Relaxed);
                        });
                    });
                    total += runs.load(Ordering::Relaxed);
                }
                done_tx.send(total).unwrap();
            })
        })
        .collect();
    // Σ over i<6, j<5 of 1 + (i + j + s) % 2 is 45 for either parity of s.
    for _ in 0..CALLERS {
        let total = done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("a caller is stuck: deadlock");
        assert_eq!(total, ROUNDS * 45);
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn budget_splits_the_cpus_between_sharers() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(par::budget(1), cpus);
    assert_eq!(par::budget(0), cpus, "no sharers is one sharer");
    assert_eq!(par::budget(2), (cpus / 2).max(1));
    assert_eq!(par::budget(cpus * 4), 1, "never below one thread");
}

#[cfg(target_os = "linux")]
mod affinity {
    use super::*;

    /// glibc's `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    fn mask() -> CpuSet {
        let mut set: CpuSet = [0; 16];
        // SAFETY: a writable buffer of exactly the size passed; pid 0 is
        // the calling thread.
        assert_eq!(
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) },
            0
        );
        set
    }

    /// Pins the calling thread to the first CPU it is allowed (what
    /// `taskset -c` or the benchmark's `Pin` do) and returns that mask.
    fn pin_to_first_cpu() -> CpuSet {
        let allowed = mask();
        let cpu = (0..1024)
            .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
            .expect("no CPU allowed");
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: a readable buffer of exactly the size passed.
        assert_eq!(
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) },
            0
        );
        one
    }

    #[test]
    fn a_pinned_thread_derives_width_one_and_hands_out_budget_one() {
        // Own thread: the pin must not leak into the harness's threads.
        std::thread::spawn(|| {
            pin_to_first_cpu();
            assert_eq!(par::width(), 1);
            assert_eq!(par::budget(1), 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn helpers_inherit_and_keep_their_owners_affinity_mask() {
        std::thread::spawn(|| {
            par::set_width(2);
            let caller = std::thread::current().id();
            // First with the mask the test started under, then pinned to
            // one CPU (the helper exists by then and is told nothing: the
            // region must still complete with both on that CPU or not).
            for pin in [false, true] {
                let expected = if pin { None } else { Some(mask()) };
                if pin {
                    pin_to_first_cpu();
                }
                for _ in 0..3 {
                    let arrived = AtomicUsize::new(0);
                    par::for_each_index(2, |_| {
                        rendezvous(&arrived, 2);
                        if let Some(expected) =
                            expected.filter(|_| std::thread::current().id() != caller)
                        {
                            assert_eq!(mask(), expected, "helper left its owner's affinity mask");
                        }
                    });
                    // Let the helper park, so the next region wakes it and
                    // exercises its move-off-the-owner's-CPU path.
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_helper_spawned_by_a_pinned_owner_stays_on_its_cpu() {
        std::thread::spawn(|| {
            let pinned = pin_to_first_cpu();
            // Forced wider than the mask: the helper shares the one CPU.
            par::set_width(2);
            let caller = std::thread::current().id();
            let arrived = AtomicUsize::new(0);
            par::for_each_index(2, |_| {
                rendezvous(&arrived, 2);
                if std::thread::current().id() != caller {
                    assert_eq!(mask(), pinned, "helper escaped its owner's pin");
                }
            });
        })
        .join()
        .unwrap();
    }
}
