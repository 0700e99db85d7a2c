//! Thread-local scratch-buffer pool (the kernel *workspace*).
//!
//! The packed GEMM and the conv layers built on it need `f32` scratch
//! buffers whose sizes repeat every iteration: A and B pack panels,
//! backward-data's one-channel-group slab of the col-space gradient, and
//! the phase planes of the image part one block of a B slab, or one
//! channel group, reads. No col matrix is among them — B panels are copied straight
//! from the planes — so what a thread parks is a few panels' worth, not
//! a `cin·k² x oh·ow` matrix. Allocating them per call puts the heap
//! allocator on the steady-state training path — the exact overhead
//! MKL-class kernels avoid with persistent workspaces. [`Workspace`]
//! keeps a small per-thread pool of reusable buffers instead: after a
//! one-iteration warm-up, every later training or inference iteration
//! performs **zero heap allocations** for GEMM scratch (asserted, with a
//! bound on the bytes parked, by a counting-allocator test in
//! `scidl-nn`).
//!
//! The pool is `thread_local!`, so it is trivially safe under the thread
//! pool (`crate::par`): the caller and each of its helpers own their own
//! free list, there is no locking on the hot path, and buffers never
//! migrate between threads (a buffer dropped on a helper parks in *that
//! helper's* pool, where the same helper's next unit finds it).

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Maximum buffers parked per thread. Dropping a buffer into a full pool
/// frees it instead — bounds worst-case memory at roughly
/// `MAX_POOLED x largest-scratch` per thread.
const MAX_POOLED: usize = 16;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Handle to the calling thread's scratch-buffer pool.
///
/// All methods are associated functions — the pool itself lives in
/// thread-local storage, so there is nothing to construct or thread
/// through call sites.
pub struct Workspace;

impl Workspace {
    /// Borrows a scratch buffer of exactly `len` elements from the
    /// calling thread's pool, allocating only when no pooled buffer has
    /// sufficient capacity. **Contents are unspecified** (typically stale
    /// data from a previous use) — callers must fully overwrite the
    /// buffer or use [`Workspace::take_zeroed`]. The buffer returns to
    /// the pool when the guard drops.
    pub fn take(len: usize) -> WsBuf {
        let mut buf = POOL.with(|p| {
            let mut pool = p.borrow_mut();
            // Best fit: the smallest buffer whose capacity suffices;
            // otherwise the largest available (its grow realloc is the
            // cheapest of the options).
            let mut best: Option<(usize, usize, bool)> = None; // (idx, cap, fits)
            for (i, b) in pool.iter().enumerate() {
                let cap = b.capacity();
                let fits = cap >= len;
                let better = match best {
                    None => true,
                    Some((_, bcap, bfits)) => {
                        if fits != bfits {
                            fits
                        } else if fits {
                            cap < bcap
                        } else {
                            cap > bcap
                        }
                    }
                };
                if better {
                    best = Some((i, cap, fits));
                }
            }
            match best {
                Some((i, _, _)) => pool.swap_remove(i),
                None => Vec::with_capacity(len),
            }
        });
        // Truncate-then-resize touches only the zero-filled tail beyond
        // the buffer's previous length — no full memset on reuse.
        buf.truncate(len);
        buf.resize(len, 0.0);
        WsBuf { buf }
    }

    /// Like [`Workspace::take`] but with every element zeroed.
    pub fn take_zeroed(len: usize) -> WsBuf {
        let mut b = Self::take(len);
        b.fill(0.0);
        b
    }

    /// Number of buffers currently parked in this thread's pool. Test
    /// hook: steady-state code should neither grow nor shrink this
    /// between identical iterations.
    pub fn pooled() -> usize {
        POOL.with(|p| p.borrow().len())
    }

    /// Frees every buffer parked in this thread's pool.
    pub fn clear() {
        POOL.with(|p| p.borrow_mut().clear());
    }
}

/// RAII guard over a pooled scratch buffer; derefs to `[f32]` and returns
/// the buffer to the owning thread's pool on drop.
pub struct WsBuf {
    buf: Vec<f32>,
}

impl Deref for WsBuf {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for WsBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for WsBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        if buf.capacity() == 0 {
            return;
        }
        // `try_with` so drops racing thread teardown are silently leaked
        // instead of panicking.
        let _ = POOL.try_with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < MAX_POOLED {
                pool.push(buf);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_length_never_undersized() {
        Workspace::clear();
        for &len in &[0usize, 1, 7, 1000, 5, 1000, 64] {
            let b = Workspace::take(len);
            assert_eq!(b.len(), len, "take({len}) returned {} elements", b.len());
        }
        let z = Workspace::take_zeroed(513);
        assert_eq!(z.len(), 513);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn buffer_is_pointer_stable_across_reuse() {
        Workspace::clear();
        let p1 = {
            let b = Workspace::take(4096);
            b.as_ptr()
        };
        // Same-size request immediately after: must get the same heap
        // block back (this is what makes same-shape forwards reuse their
        // col/pack scratch instead of reallocating).
        let p2 = {
            let b = Workspace::take(4096);
            b.as_ptr()
        };
        assert_eq!(p1, p2, "pool failed to reuse the parked buffer");
        // A smaller request also reuses it (truncate, no realloc).
        let p3 = {
            let b = Workspace::take(128);
            b.as_ptr()
        };
        assert_eq!(p1, p3);
    }

    #[test]
    fn concurrent_takes_get_distinct_buffers() {
        Workspace::clear();
        let a = Workspace::take(256);
        let b = Workspace::take(256);
        assert_ne!(a.as_ptr(), b.as_ptr(), "live buffers must never alias");
        drop(a);
        drop(b);
        assert_eq!(Workspace::pooled(), 2);
    }

    #[test]
    fn stale_contents_are_truncated_to_len() {
        Workspace::clear();
        {
            let mut b = Workspace::take(100);
            b.fill(7.0);
        }
        // Shorter reuse: stale prefix allowed, but length must be exact.
        let b = Workspace::take(10);
        assert_eq!(b.len(), 10);
        // Longer reuse: tail beyond the stale region is zero-filled
        // (Vec::resize semantics), never uninitialised.
        drop(b);
        let b = Workspace::take(200);
        assert_eq!(b.len(), 200);
        assert!(b[100..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pool_is_bounded() {
        Workspace::clear();
        let bufs: Vec<WsBuf> = (0..40).map(|_| Workspace::take(8)).collect();
        drop(bufs);
        assert!(Workspace::pooled() <= MAX_POOLED);
    }

    #[test]
    fn pools_are_per_thread() {
        Workspace::clear();
        drop(Workspace::take(1024)); // park one buffer here
        let here = Workspace::pooled();
        assert!(here >= 1);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    // Fresh thread: empty pool, takes allocate cleanly.
                    assert_eq!(Workspace::pooled(), 0);
                    for i in 0..8 {
                        let mut b = Workspace::take(64 * (i + 1));
                        b.fill(t as f32);
                        assert!(b.iter().all(|&v| v == t as f32));
                    }
                    Workspace::pooled()
                })
            })
            .collect();
        for h in handles {
            let other = h.join().unwrap();
            assert!(other >= 1);
        }
        // This thread's pool is untouched by the workers.
        assert_eq!(Workspace::pooled(), here);
    }
}
