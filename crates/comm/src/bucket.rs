//! Bucketed, backward-overlapped gradient all-reduce.
//!
//! The paper's hardware efficiency at scale rests on overlapping
//! gradient communication with backward compute (Sec. V, via MLSL; the
//! technique is detailed in Das et al., *Distributed Deep Learning Using
//! Synchronous SGD*, arXiv:1602.06709): as soon as a layer's backward
//! pass has produced its parameter gradients, those gradients can start
//! their all-reduce while shallower layers are still backpropagating.
//! Tiny layers (biases, batch-norm scales) would drown in per-message
//! latency, so gradients are *bucketed*: a [`BucketPlan`] coalesces
//! parameter blocks — walked in readiness order, deepest first — into
//! buckets of roughly `target_bytes` each, and every bucket is one
//! [`ring_allreduce_mean_scratch`] on a dedicated per-rank comm thread
//! ([`OverlapContext`]).
//!
//! ## Determinism
//!
//! The whole design preserves the repo's bit-determinism guarantee:
//!
//! * every bucket is reduced by the deterministic ring algorithm over a
//!   fixed flat range, so the summation order inside a bucket is a pure
//!   function of the plan and the rank count;
//! * buckets are *shipped* in plan order on every rank (backward
//!   readiness order is the same everywhere) and the comm thread reduces
//!   them in arrival order, so the per-bucket rings pair up across ranks
//!   without deadlock;
//! * therefore an overlapped step is **bit-identical** to the sequential
//!   baseline [`bucketed_allreduce_mean`] — same plan, same rings, just
//!   scheduled concurrently with backward compute. The differential test
//!   battery in this module and `tests/integration_overlap.rs` proves it.
//!
//! A vanished ring neighbour mid-bucket surfaces as
//! [`CommError::ChannelClosed`] from [`BucketStream::finish`], never as
//! a panic or a hang: channel disconnection cascades around the ring, so
//! every surviving rank's reduce fails fast.

use crate::allreduce::{ring_allreduce_mean_scratch, RingEndpoint, RingScratch};
use crate::compress::{Compression, ErrorFeedback};
use crate::error::{CommError, CommResult};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::thread::JoinHandle;

/// Maps parameter blocks (in forward/flat order) onto gradient buckets
/// (in readiness order: deepest blocks first) and each bucket onto its
/// contiguous range of the flat gradient vector.
///
/// Blocks become ready back-to-front during backward, so walking blocks
/// last-to-first and cutting a new bucket whenever the running size
/// would exceed `target_bytes` yields buckets that are contiguous flat
/// ranges: bucket 0 covers the trailing blocks, the last bucket the
/// leading ones. A block larger than `target_bytes` gets a bucket of its
/// own — blocks are never split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketPlan {
    /// `block_bucket[b]` = bucket index of block `b` (blocks in flat order).
    block_bucket: Vec<usize>,
    /// `block_range[b]` = flat range `[lo, hi)` of block `b`.
    block_range: Vec<(usize, usize)>,
    /// `ranges[k]` = flat range `[lo, hi)` of bucket `k` (readiness order).
    ranges: Vec<(usize, usize)>,
    /// Total flat length (sum of block sizes).
    total: usize,
}

impl BucketPlan {
    /// Builds the plan for parameter blocks of the given sizes (flat
    /// order, i.e. the order of `Model::flat_grads`) with roughly
    /// `target_bytes` of f32 gradient per bucket. `target_bytes == 0`
    /// puts every block in its own bucket.
    pub fn new(block_sizes: &[usize], target_bytes: usize) -> Self {
        let total: usize = block_sizes.iter().sum();
        let mut block_range = Vec::with_capacity(block_sizes.len());
        let mut lo = 0usize;
        for &s in block_sizes {
            block_range.push((lo, lo + s));
            lo += s;
        }
        // Walk blocks in readiness order (last first), coalescing.
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        let mut block_bucket = vec![0usize; block_sizes.len()];
        let mut acc_bytes = 0usize;
        for b in (0..block_sizes.len()).rev() {
            let bytes = block_sizes[b] * std::mem::size_of::<f32>();
            if ranges.is_empty() || acc_bytes + bytes > target_bytes {
                // Start a new bucket with this block (a block larger than
                // the target simply gets its own bucket).
                ranges.push(block_range[b]);
                acc_bytes = bytes;
            } else {
                // Extend the current bucket downwards.
                let last = ranges.last_mut().expect("bucket exists");
                last.0 = block_range[b].0;
                acc_bytes += bytes;
            }
            block_bucket[b] = ranges.len() - 1;
        }
        Self {
            block_bucket,
            block_range,
            ranges,
            total,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.ranges.len()
    }

    /// Number of parameter blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_bucket.len()
    }

    /// Bucket index of block `b` (blocks in flat order).
    pub fn bucket_of(&self, b: usize) -> usize {
        self.block_bucket[b]
    }

    /// Flat range `[lo, hi)` of bucket `k` (buckets in readiness order).
    pub fn bucket_range(&self, k: usize) -> (usize, usize) {
        self.ranges[k]
    }

    /// Flat range `[lo, hi)` of block `b`.
    pub fn block_flat_range(&self, b: usize) -> (usize, usize) {
        self.block_range[b]
    }

    /// Total flat gradient length the plan covers.
    pub fn total_len(&self) -> usize {
        self.total
    }
}

/// Where an overlapped backward pass delivers gradient blocks as they
/// become ready. Implemented by [`BucketStream`]; taken as `&mut dyn`
/// so gradient tasks stay object-safe and engine-agnostic.
pub trait BucketSink {
    /// Delivers the gradient of parameter block `block` (flat-order
    /// index). Blocks should arrive in readiness order — deepest layer
    /// first, and within a layer in reverse block order — but any order
    /// is *correct*; out-of-order pushes only delay bucket shipment.
    fn push_block(&mut self, block: usize, grad: &[f32]);

    /// Delivers a complete flat gradient by replaying its blocks in
    /// readiness order. This is the non-overlapping fallback for models
    /// without a layered backward: correct and bit-identical, it just
    /// hides no communication behind compute that has already finished.
    fn push_flat(&mut self, flat: &[f32]);
}

/// Message to the comm thread: one staged bucket to ring-reduce.
type BucketMsg = (usize, Vec<f32>);
/// Reply from the comm thread: the reduced bucket plus the wire bytes
/// this rank's compressed contribution occupied, or the first error.
type BucketReply = (usize, CommResult<(Vec<f32>, usize)>);

/// The one place a bucket meets the ring — the comm thread and the
/// sequential baselines all come through here, so their bit-identity is
/// structural. One error-feedback round on bucket `k` (accumulators in
/// `efs`, grown lazily under `policy`), then its ring all-reduce; returns
/// the wire bytes of this rank's contribution. A single rank has no wire:
/// values untouched, zero bytes.
#[allow(clippy::too_many_arguments)]
fn reduce_bucket(
    k: usize,
    data: &mut [f32],
    rank: usize,
    n: usize,
    policy: Compression,
    efs: &mut Vec<ErrorFeedback>,
    scratch: &mut RingScratch,
    (send_next, recv_prev): (&Sender<Vec<f32>>, &Receiver<Vec<f32>>),
) -> CommResult<usize> {
    if n <= 1 {
        return Ok(0);
    }
    while efs.len() <= k {
        efs.push(ErrorFeedback::new(policy));
    }
    let bytes = efs[k].apply(data);
    ring_allreduce_mean_scratch(rank, n, data, scratch, send_next, recv_prev)?;
    Ok(bytes)
}

/// A dedicated per-rank communication thread owning this rank's ring
/// endpoint and scratch. Mirrors MLSL's endpoint proxy threads
/// (Sec. III-D): the training thread stages gradient buckets and keeps
/// computing while the comm thread runs the ring all-reduces.
///
/// One context is created per rank per run; [`OverlapContext::stream`]
/// borrows it for one training step. After any bucket fails the context
/// is poisoned — subsequent reduces report the failure immediately —
/// which matches the engines' treatment of a dead rank as fatal for the
/// whole synchronous group.
pub struct OverlapContext {
    rank: usize,
    to_comm: Sender<BucketMsg>,
    from_comm: Receiver<BucketReply>,
    handle: Option<JoinHandle<()>>,
}

impl OverlapContext {
    /// Spawns the comm thread for `rank` of `n`, taking ownership of the
    /// rank's ring endpoint, with a gradient compression policy
    /// ([`Compression::None`] = uncompressed). The comm thread owns one
    /// [`ErrorFeedback`] accumulator **per bucket** (grown lazily, reused
    /// across steps): each bucket covers a fixed flat range, so its
    /// residual stream is consistent from step to step, and because
    /// residuals never cross buckets — and both sides run the same
    /// `reduce_bucket` — the overlapped schedule stays bit-identical to
    /// the sequential baseline [`bucketed_allreduce_mean_compressed`].
    /// With a single rank there is no wire, so compression is skipped
    /// entirely (zero bytes, untouched values).
    pub fn spawn(rank: usize, n: usize, endpoint: RingEndpoint, policy: Compression) -> Self {
        let (to_comm, work_rx) = unbounded::<BucketMsg>();
        let (reply_tx, from_comm) = unbounded::<BucketReply>();
        let handle = std::thread::Builder::new()
            .name(format!("overlap-comm-{rank}"))
            .spawn(move || {
                // The proxy overlaps with its rank's backward pass and
                // must not take that rank's helpers' CPUs.
                scidl_tensor::par::set_width(1);
                let (send_next, recv_prev) = endpoint;
                let (mut efs, mut scratch) = (Vec::new(), RingScratch::new());
                let mut poisoned = false;
                while let Ok((idx, mut data)) = work_rx.recv() {
                    let res = if poisoned {
                        Err(CommError::ChannelClosed {
                            context: "ring neighbour",
                        })
                    } else {
                        let ring = (&send_next, &recv_prev);
                        reduce_bucket(
                            idx,
                            &mut data,
                            rank,
                            n,
                            policy,
                            &mut efs,
                            &mut scratch,
                            ring,
                        )
                    };
                    poisoned |= res.is_err();
                    if reply_tx
                        .send((idx, res.map(|bytes| (data, bytes))))
                        .is_err()
                    {
                        break; // training thread is gone
                    }
                }
            })
            .expect("spawn overlap comm thread");
        Self {
            rank,
            to_comm,
            from_comm,
            handle: Some(handle),
        }
    }

    /// Begins one overlapped training step over `plan`, borrowing the
    /// context until [`BucketStream::finish`].
    pub fn stream<'a>(&'a mut self, plan: &'a BucketPlan) -> BucketStream<'a> {
        let buckets = plan.num_buckets();
        BucketStream {
            ctx: self,
            plan,
            staging: (0..buckets).map(|_| Vec::new()).collect(),
            filled: vec![0; buckets],
            next_to_ship: 0,
            t_first_ship: None,
        }
    }
}

impl Drop for OverlapContext {
    fn drop(&mut self) {
        // Disconnect the work channel so the comm thread's iterator ends.
        let (dead_tx, _) = unbounded::<BucketMsg>();
        let _ = std::mem::replace(&mut self.to_comm, dead_tx);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One training step's view of an [`OverlapContext`]: stages gradient
/// blocks into buckets, ships complete buckets to the comm thread in
/// plan order while backward continues, and gathers the reduced buckets
/// in [`finish`](Self::finish).
pub struct BucketStream<'a> {
    ctx: &'a mut OverlapContext,
    plan: &'a BucketPlan,
    /// Per-bucket staging buffers (lazily sized to the bucket range).
    staging: Vec<Vec<f32>>,
    /// Elements staged so far per bucket.
    filled: Vec<usize>,
    /// Buckets must ship in plan order so per-bucket rings pair up
    /// across ranks; complete-but-early buckets wait here.
    next_to_ship: usize,
    /// Trace timestamp of the first shipped bucket.
    t_first_ship: Option<f64>,
}

impl BucketStream<'_> {
    fn ship_ready(&mut self) {
        while self.next_to_ship < self.plan.num_buckets() {
            let k = self.next_to_ship;
            let (lo, hi) = self.plan.bucket_range(k);
            if self.filled[k] < hi - lo {
                break;
            }
            let data = std::mem::take(&mut self.staging[k]);
            debug_assert_eq!(data.len(), hi - lo);
            if self.t_first_ship.is_none() {
                self.t_first_ship = Some(scidl_trace::TraceHandle::current().now());
            }
            // A send failure means the comm thread died; the error will
            // surface from finish() when the replies come up short.
            let _ = self.ctx.to_comm.send((k, data));
            self.next_to_ship += 1;
        }
    }

    /// Waits for every bucket's reduced result and scatters each into the
    /// blocks of `out` its flat range covers. `out` is the flat gradient
    /// cut into consecutive blocks of any sizes summing to
    /// [`BucketPlan::total_len`] — a model's own gradient blocks, or one
    /// flat buffer as a one-block slice. Returns the total wire bytes this
    /// rank's compressed contributions occupied, or the first
    /// communication error, e.g. a ring neighbour that died mid-bucket —
    /// in which case no element of the failed bucket was written to `out`
    /// (only fully reduced buckets are ever scattered).
    /// Emits an [`scidl_trace::EventKind::Overlap`] span covering first
    /// ship → drain, with the backward-concurrent time as `hidden_s`.
    pub fn finish(self, out: &mut [&mut [f32]]) -> CommResult<usize> {
        let out_len: usize = out.iter().map(|b| b.len()).sum();
        assert_eq!(
            out_len,
            self.plan.total_len(),
            "finish buffer length mismatch"
        );
        let buckets = self.plan.num_buckets();
        assert_eq!(
            self.next_to_ship, buckets,
            "finish called with incomplete buckets: {} of {buckets} shipped",
            self.next_to_ship
        );
        let tr = scidl_trace::TraceHandle::current();
        let t_backward_done = tr.now();
        let mut first_err: Option<CommError> = None;
        let mut wire_bytes = 0usize;
        for _ in 0..buckets {
            match self.ctx.from_comm.recv() {
                Ok((k, Ok((data, bytes)))) => {
                    scatter(out, self.plan.bucket_range(k).0, &data);
                    wire_bytes += bytes;
                }
                Ok((_, Err(e))) => {
                    first_err = first_err.or(Some(e));
                }
                Err(_) => {
                    first_err = first_err.or(Some(CommError::ChannelClosed {
                        context: "overlap comm thread",
                    }));
                    break;
                }
            }
        }
        let t0 = self.t_first_ship.unwrap_or(t_backward_done);
        let hidden_s = (t_backward_done - t0).max(0.0);
        tr.span(
            self.ctx.rank as u64,
            t0,
            scidl_trace::EventKind::Overlap {
                buckets: buckets as u64,
                hidden_s,
            },
        );
        match first_err {
            None => Ok(wire_bytes),
            Some(e) => Err(e),
        }
    }
}

/// Copies `src` into the concatenation of `blocks`, starting at flat
/// offset `at`.
fn scatter(blocks: &mut [&mut [f32]], mut at: usize, mut src: &[f32]) {
    for block in blocks.iter_mut() {
        if src.is_empty() {
            return;
        }
        if at >= block.len() {
            at -= block.len();
            continue;
        }
        let n = (block.len() - at).min(src.len());
        block[at..at + n].copy_from_slice(&src[..n]);
        src = &src[n..];
        at = 0;
    }
}

impl BucketSink for BucketStream<'_> {
    fn push_block(&mut self, block: usize, grad: &[f32]) {
        let (blo, bhi) = self.plan.block_flat_range(block);
        assert_eq!(
            grad.len(),
            bhi - blo,
            "block {block} gradient length mismatch"
        );
        let k = self.plan.bucket_of(block);
        let (lo, hi) = self.plan.bucket_range(k);
        let staging = &mut self.staging[k];
        if staging.is_empty() && hi > lo {
            staging.resize(hi - lo, 0.0);
        }
        staging[blo - lo..bhi - lo].copy_from_slice(grad);
        self.filled[k] += grad.len();
        self.ship_ready();
    }

    fn push_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.plan.total_len(),
            "flat gradient length mismatch"
        );
        for b in (0..self.plan.num_blocks()).rev() {
            let (lo, hi) = self.plan.block_flat_range(b);
            self.push_block(b, &flat[lo..hi]);
        }
    }
}

/// Sequential baseline: bucketed ring all-reduce with **no** overlap
/// and no compression — the buckets of `plan` are reduced one after
/// another on the calling thread. Because the overlapped path ships
/// buckets in exactly this order through the same per-bucket reduce, an
/// overlapped step is bit-identical to this function applied to the same
/// flat gradient. The differential tests pin that equivalence.
pub fn bucketed_allreduce_mean(
    plan: &BucketPlan,
    rank: usize,
    n: usize,
    data: &mut [f32],
    scratch: &mut RingScratch,
    send_next: &Sender<Vec<f32>>,
    recv_prev: &Receiver<Vec<f32>>,
) -> CommResult<()> {
    let (policy, mut efs) = (Compression::None, Vec::new());
    bucketed_allreduce_mean_compressed(
        plan, rank, n, data, policy, &mut efs, scratch, send_next, recv_prev,
    )
    .map(|_| ())
}

/// Sequential compressed baseline: one error-feedback round per bucket
/// before its ring, using the caller-owned per-bucket accumulators in
/// `efs` (grown lazily with `policy`, so a fresh empty `Vec` is a valid
/// start). Returns the total wire bytes this rank's compressed
/// contributions occupied; with `n <= 1` there is no wire, so compression
/// is skipped and zero bytes reported — the overlapped path's semantics,
/// because it is the overlapped path's per-bucket reduce.
#[allow(clippy::too_many_arguments)]
pub fn bucketed_allreduce_mean_compressed(
    plan: &BucketPlan,
    rank: usize,
    n: usize,
    data: &mut [f32],
    policy: Compression,
    efs: &mut Vec<ErrorFeedback>,
    scratch: &mut RingScratch,
    send_next: &Sender<Vec<f32>>,
    recv_prev: &Receiver<Vec<f32>>,
) -> CommResult<usize> {
    assert_eq!(
        data.len(),
        plan.total_len(),
        "flat gradient length mismatch"
    );
    let ring = (send_next, recv_prev);
    (0..plan.num_buckets())
        .map(|k| {
            let (lo, hi) = plan.bucket_range(k);
            reduce_bucket(k, &mut data[lo..hi], rank, n, policy, efs, scratch, ring)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::RingFabric;
    use std::thread;

    fn plan_invariants(plan: &BucketPlan, block_sizes: &[usize]) {
        assert_eq!(plan.num_blocks(), block_sizes.len());
        let total: usize = block_sizes.iter().sum();
        assert_eq!(plan.total_len(), total);
        // Buckets tile the flat range back-to-front with no gaps.
        let mut hi = total;
        for k in 0..plan.num_buckets() {
            let (lo, khi) = plan.bucket_range(k);
            assert_eq!(khi, hi, "bucket {k} not contiguous");
            assert!(lo < khi || (lo == khi && total == 0), "bucket {k} empty");
            hi = lo;
        }
        assert_eq!(hi, 0, "buckets do not cover the flat range");
        // Every block maps into the bucket containing its flat range.
        for b in 0..block_sizes.len() {
            let (blo, bhi) = plan.block_flat_range(b);
            let (lo, khi) = plan.bucket_range(plan.bucket_of(b));
            assert!(lo <= blo && bhi <= khi, "block {b} escapes its bucket");
        }
    }

    #[test]
    fn plan_coalesces_small_blocks_and_isolates_large_ones() {
        // Sizes in elements; target 64 bytes = 16 f32.
        let sizes = [100usize, 4, 8, 2, 30, 3];
        let plan = BucketPlan::new(&sizes, 64);
        plan_invariants(&plan, &sizes);
        // Readiness walk: 3, 30, 2, 8, 4, 100.
        // Bucket 0: block 5 (3) + would 30 exceed 16? 3+30=33 > 16 → yes.
        assert_eq!(plan.bucket_of(5), 0);
        assert_eq!(plan.bucket_of(4), 1); // 30 alone (oversized)
        assert_eq!(plan.bucket_of(3), 2);
        assert_eq!(plan.bucket_of(2), 2); // 2+8=10 ≤ 16
        assert_eq!(plan.bucket_of(1), 2); // 2+8+4=14 ≤ 16
        assert_eq!(plan.bucket_of(0), 3); // 100 alone
        assert_eq!(plan.num_buckets(), 4);
    }

    #[test]
    fn zero_target_gives_one_bucket_per_block() {
        let sizes = [5usize, 7, 1];
        let plan = BucketPlan::new(&sizes, 0);
        plan_invariants(&plan, &sizes);
        assert_eq!(plan.num_buckets(), 3);
        assert_eq!(plan.bucket_of(2), 0);
        assert_eq!(plan.bucket_of(1), 1);
        assert_eq!(plan.bucket_of(0), 2);
    }

    #[test]
    fn huge_target_gives_single_bucket() {
        let sizes = [5usize, 7, 1];
        let plan = BucketPlan::new(&sizes, usize::MAX);
        plan_invariants(&plan, &sizes);
        assert_eq!(plan.num_buckets(), 1);
        assert_eq!(plan.bucket_range(0), (0, 13));
    }

    fn rank_grad(rank: usize, len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed)
                    ^ ((rank as u64) << 17);
                ((x % 2003) as f32 - 1001.0) * 1e-3
            })
            .collect()
    }

    /// Overlapped reduce (comm thread, blocks pushed in readiness order)
    /// vs sequential bucketed baseline: bit-identical on every rank.
    fn check_overlap_matches_sequential(n: usize, block_sizes: &[usize], target_bytes: usize) {
        let plan = BucketPlan::new(block_sizes, target_bytes);
        plan_invariants(&plan, block_sizes);
        let total = plan.total_len();

        // Overlapped path.
        let endpoints = RingFabric::new(n).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, ep)| {
                let plan = plan.clone();
                let sizes: Vec<usize> = block_sizes.to_vec();
                thread::spawn(move || {
                    let mut ctx = OverlapContext::spawn(rank, n, ep, Compression::None);
                    let flat = rank_grad(rank, total, 42);
                    let mut stream = ctx.stream(&plan);
                    for b in (0..sizes.len()).rev() {
                        let (lo, hi) = plan.block_flat_range(b);
                        stream.push_block(b, &flat[lo..hi]);
                    }
                    let mut out = vec![0.0f32; total];
                    stream.finish(&mut [&mut out]).unwrap();
                    out
                })
            })
            .collect();
        let overlapped: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        // Sequential baseline.
        let endpoints = RingFabric::new(n).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, (tx, rx))| {
                let plan = plan.clone();
                thread::spawn(move || {
                    let mut data = rank_grad(rank, total, 42);
                    let mut scratch = RingScratch::new();
                    bucketed_allreduce_mean(&plan, rank, n, &mut data, &mut scratch, &tx, &rx)
                        .unwrap();
                    data
                })
            })
            .collect();
        let sequential: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        for rank in 0..n {
            assert_eq!(
                overlapped[rank], sequential[rank],
                "rank {rank} diverged (n={n}, sizes={block_sizes:?}, target={target_bytes})"
            );
        }
        // All ranks agree with each other too.
        for rank in 1..n {
            assert_eq!(overlapped[0], overlapped[rank]);
        }
    }

    #[test]
    fn overlap_matches_sequential_basic() {
        check_overlap_matches_sequential(4, &[100, 4, 8, 2, 30, 3], 64);
        check_overlap_matches_sequential(2, &[17, 5], 32);
        check_overlap_matches_sequential(1, &[9, 3], 16);
    }

    #[test]
    fn push_flat_equals_push_block_order() {
        let n = 3;
        let sizes = [11usize, 6, 2, 9];
        let plan = BucketPlan::new(&sizes, 40);
        let total = plan.total_len();

        let run = |use_flat: bool| -> Vec<Vec<f32>> {
            let endpoints = RingFabric::new(n).into_endpoints();
            let handles: Vec<_> = endpoints
                .into_iter()
                .enumerate()
                .map(|(rank, ep)| {
                    let plan = plan.clone();
                    thread::spawn(move || {
                        let mut ctx = OverlapContext::spawn(rank, n, ep, Compression::None);
                        let flat = rank_grad(rank, total, 7);
                        let mut stream = ctx.stream(&plan);
                        if use_flat {
                            stream.push_flat(&flat);
                        } else {
                            for b in (0..plan.num_blocks()).rev() {
                                let (lo, hi) = plan.block_flat_range(b);
                                stream.push_block(b, &flat[lo..hi]);
                            }
                        }
                        let mut out = vec![0.0f32; total];
                        stream.finish(&mut [&mut out]).unwrap();
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        };
        assert_eq!(run(true), run(false));
    }

    /// Cuts `flat` into consecutive blocks of the given sizes.
    fn split<'a>(mut flat: &'a mut [f32], sizes: &[usize]) -> Vec<&'a mut [f32]> {
        let mut blocks = Vec::with_capacity(sizes.len());
        for &n in sizes {
            let (block, rest) = std::mem::take(&mut flat).split_at_mut(n);
            blocks.push(block);
            flat = rest;
        }
        assert!(flat.is_empty(), "sizes must cover the buffer");
        blocks
    }

    /// The same step finished into one flat buffer, into the plan's own
    /// blocks, and into a partition that cuts across bucket boundaries:
    /// every destination holds the same bits on every rank.
    fn check_finish_into_blocks_matches_flat(n: usize, block_sizes: &[usize], target_bytes: usize) {
        let plan = BucketPlan::new(block_sizes, target_bytes);
        plan_invariants(&plan, block_sizes);
        let total = plan.total_len();
        // Uneven cuts (7, 1, 13, 2, 7, 1, …) unrelated to the plan.
        let mut ragged = Vec::new();
        let mut left = total;
        for cut in [7usize, 1, 13, 2].iter().cycle() {
            let c = (*cut).min(left);
            ragged.push(c);
            left -= c;
            if left == 0 {
                break;
            }
        }
        let endpoints = RingFabric::new(n).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, ep)| {
                let plan = plan.clone();
                let (sizes, ragged) = (block_sizes.to_vec(), ragged.clone());
                thread::spawn(move || {
                    let mut ctx = OverlapContext::spawn(rank, n, ep, Compression::None);
                    let flat = rank_grad(rank, total, 314);
                    let mut outs = Vec::new();
                    for cuts in [vec![total], sizes, ragged] {
                        let mut stream = ctx.stream(&plan);
                        stream.push_flat(&flat);
                        let mut out = vec![f32::NAN; total];
                        stream.finish(&mut split(&mut out, &cuts)).unwrap();
                        outs.push(out);
                    }
                    outs
                })
            })
            .collect();
        let per_rank: Vec<Vec<Vec<f32>>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (rank, outs) in per_rank.iter().enumerate() {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert!(
                outs[0].iter().all(|x| x.is_finite()),
                "flat finish left a gap"
            );
            for out in &outs[1..] {
                assert_eq!(
                    bits(out),
                    bits(&outs[0]),
                    "rank {rank}: blocks ≠ flat (n={n}, sizes={block_sizes:?}, target={target_bytes})"
                );
            }
            assert_eq!(bits(&outs[0]), bits(&per_rank[0][0]), "ranks disagree");
        }
    }

    #[test]
    fn finish_into_blocks_is_bit_equal_to_flat() {
        // 64 B = 16 f32: blocks 100 and 30 are larger than a bucket and
        // get their own, 4 + 8 + 2 share one.
        let sizes = [100usize, 4, 8, 2, 30, 3];
        for n in [1, 2, 3] {
            check_finish_into_blocks_matches_flat(n, &sizes, 64);
        }
        // 1 KiB = 256 f32: 700 and 260 exceed it; 3 + 9 + 1 + 5 coalesce
        // and the bucket holding 41 + 33 + 17 + 97 is uneven.
        check_finish_into_blocks_matches_flat(2, &[5, 700, 3, 9, 1, 260, 41, 33, 17, 97], 1024);
        check_finish_into_blocks_matches_flat(3, &[1, 1, 1, 64], 0);
    }

    #[test]
    fn context_reuse_across_steps_is_bit_identical() {
        // The same context (warm scratch on the comm thread) must give
        // the same result every step for the same inputs.
        let n = 2;
        let sizes = [8usize, 8, 4];
        let plan = BucketPlan::new(&sizes, 32);
        let total = plan.total_len();
        let endpoints = RingFabric::new(n).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, ep)| {
                let plan = plan.clone();
                thread::spawn(move || {
                    let mut ctx = OverlapContext::spawn(rank, n, ep, Compression::None);
                    let mut outs = Vec::new();
                    for _ in 0..3 {
                        let flat = rank_grad(rank, total, 99);
                        let mut stream = ctx.stream(&plan);
                        stream.push_flat(&flat);
                        let mut out = vec![0.0f32; total];
                        stream.finish(&mut [&mut out]).unwrap();
                        outs.push(out);
                    }
                    outs
                })
            })
            .collect();
        for outs in handles.into_iter().map(|h| h.join().unwrap()) {
            assert_eq!(outs[0], outs[1]);
            assert_eq!(outs[1], outs[2]);
        }
    }

    /// Compressed overlapped reduce vs compressed sequential baseline:
    /// bit-identical per rank across multiple steps (residuals carried
    /// per bucket on both sides), with identical wire-byte accounting.
    fn check_compressed_overlap_matches_sequential(
        n: usize,
        block_sizes: &[usize],
        target_bytes: usize,
        policy: Compression,
        steps: usize,
    ) {
        let plan = BucketPlan::new(block_sizes, target_bytes);
        let total = plan.total_len();

        let endpoints = RingFabric::new(n).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, ep)| {
                let plan = plan.clone();
                thread::spawn(move || {
                    let mut ctx = OverlapContext::spawn(rank, n, ep, policy);
                    let mut outs = Vec::new();
                    for step in 0..steps {
                        let flat = rank_grad(rank, total, 1000 + step as u64);
                        let mut stream = ctx.stream(&plan);
                        stream.push_flat(&flat);
                        let mut out = vec![0.0f32; total];
                        let bytes = stream.finish(&mut [&mut out]).unwrap();
                        outs.push((out, bytes));
                    }
                    outs
                })
            })
            .collect();
        let overlapped: Vec<Vec<(Vec<f32>, usize)>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        let endpoints = RingFabric::new(n).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, (tx, rx))| {
                let plan = plan.clone();
                thread::spawn(move || {
                    let mut scratch = RingScratch::new();
                    let mut efs: Vec<ErrorFeedback> = Vec::new();
                    let mut outs = Vec::new();
                    for step in 0..steps {
                        let mut data = rank_grad(rank, total, 1000 + step as u64);
                        let bytes = bucketed_allreduce_mean_compressed(
                            &plan,
                            rank,
                            n,
                            &mut data,
                            policy,
                            &mut efs,
                            &mut scratch,
                            &tx,
                            &rx,
                        )
                        .unwrap();
                        outs.push((data, bytes));
                    }
                    outs
                })
            })
            .collect();
        let sequential: Vec<Vec<(Vec<f32>, usize)>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        for rank in 0..n {
            assert_eq!(
                overlapped[rank], sequential[rank],
                "rank {rank} diverged under {policy:?} (n={n}, sizes={block_sizes:?})"
            );
        }
        for rank in 1..n {
            assert_eq!(
                overlapped[0], overlapped[rank],
                "ranks disagree under {policy:?}"
            );
        }
    }

    #[test]
    fn compressed_overlap_matches_sequential_compressed() {
        for policy in [
            Compression::Int8,
            Compression::Int16,
            Compression::TopK { density: 0.1 },
            Compression::TopK { density: 1.0 },
            Compression::None,
        ] {
            check_compressed_overlap_matches_sequential(3, &[100, 4, 8, 2, 30, 3], 64, policy, 3);
            check_compressed_overlap_matches_sequential(2, &[17, 5], 32, policy, 2);
        }
    }

    #[test]
    fn single_rank_compressed_is_bitwise_identity_with_zero_bytes() {
        // One rank has no wire: compression must neither touch the
        // values nor report bytes, on both the overlapped and the
        // sequential compressed paths.
        let sizes = [9usize, 3];
        let plan = BucketPlan::new(&sizes, 16);
        let total = plan.total_len();
        let flat = rank_grad(0, total, 21);

        let ep = RingFabric::new(1).into_endpoints().pop().unwrap();
        let mut ctx = OverlapContext::spawn(0, 1, ep, Compression::Int8);
        let mut stream = ctx.stream(&plan);
        stream.push_flat(&flat);
        let mut out = vec![0.0f32; total];
        assert_eq!(stream.finish(&mut [&mut out]).unwrap(), 0);
        assert_eq!(out, flat);

        let (tx, rx) = RingFabric::new(1).into_endpoints().pop().unwrap();
        let mut data = flat.clone();
        let mut efs = Vec::new();
        let bytes = bucketed_allreduce_mean_compressed(
            &plan,
            0,
            1,
            &mut data,
            Compression::Int8,
            &mut efs,
            &mut RingScratch::new(),
            &tx,
            &rx,
        )
        .unwrap();
        assert_eq!(bytes, 0);
        assert_eq!(data, flat);
    }

    #[test]
    fn compressed_wire_bytes_sum_bucket_formats() {
        // 2 ranks, int8: each bucket charges `4 + elems` bytes.
        let n = 2;
        let sizes = [10usize, 20, 30];
        let plan = BucketPlan::new(&sizes, 0); // one bucket per block
        let total = plan.total_len();
        let want: usize = (0..plan.num_buckets())
            .map(|k| {
                let (lo, hi) = plan.bucket_range(k);
                Compression::Int8.wire_bytes(hi - lo)
            })
            .sum();
        let endpoints = RingFabric::new(n).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, ep)| {
                let plan = plan.clone();
                thread::spawn(move || {
                    let mut ctx = OverlapContext::spawn(rank, n, ep, Compression::Int8);
                    let flat = rank_grad(rank, total, 77);
                    let mut stream = ctx.stream(&plan);
                    stream.push_flat(&flat);
                    let mut out = vec![0.0f32; total];
                    stream.finish(&mut [&mut out]).unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), want);
        }
    }

    #[test]
    fn dead_neighbour_mid_bucket_is_comm_error_not_hang() {
        // Rank 1 of 2 vanishes after the first bucket: rank 0's stream
        // must report ChannelClosed from finish(), not panic or hang.
        let n = 2;
        let sizes = [6usize, 6, 6];
        let plan = BucketPlan::new(&sizes, 24); // one bucket per block
        assert_eq!(plan.num_buckets(), 3);
        let total = plan.total_len();
        let mut endpoints = RingFabric::new(n).into_endpoints();
        let ep1 = endpoints.pop().unwrap();
        let ep0 = endpoints.pop().unwrap();

        let vplan = plan.clone();
        let victim = thread::spawn(move || {
            // Participate in bucket 0 only (block 2 is readiness-first),
            // then die with buckets 1 and 2 outstanding.
            let (tx, rx) = ep1;
            let (lo, hi) = vplan.bucket_range(0);
            let mut data = rank_grad(1, total, 5)[lo..hi].to_vec();
            let mut scratch = RingScratch::new();
            ring_allreduce_mean_scratch(1, n, &mut data, &mut scratch, &tx, &rx).unwrap();
            drop((tx, rx));
        });

        let mut ctx = OverlapContext::spawn(0, n, ep0, Compression::None);
        let flat = rank_grad(0, total, 5);
        let mut stream = ctx.stream(&plan);
        for b in (0..plan.num_blocks()).rev() {
            let (lo, hi) = plan.block_flat_range(b);
            stream.push_block(b, &flat[lo..hi]);
        }
        // Finished into the plan's own blocks, as a model's gradient.
        const SENTINEL: f32 = -777.25;
        let mut out = vec![SENTINEL; total];
        let err = stream.finish(&mut split(&mut out, &sizes)).unwrap_err();
        assert!(
            matches!(err, CommError::ChannelClosed { .. }),
            "expected ChannelClosed, got {err:?}"
        );
        // Block 2 is bucket 0, which completed; the failed buckets'
        // blocks 0 and 1 are untouched.
        let (lo2, hi2) = plan.block_flat_range(2);
        assert!(
            out[lo2..hi2].iter().all(|&x| x != SENTINEL),
            "block 2 should be applied"
        );
        for b in 0..2 {
            let (lo, hi) = plan.block_flat_range(b);
            assert!(
                out[lo..hi].iter().all(|&x| x == SENTINEL),
                "block {b} was written after its bucket failed"
            );
        }
        victim.join().unwrap();
    }

    #[test]
    fn dead_neighbour_with_compression_never_applies_partial_bucket() {
        // Same crash shape as above, with compression on: the failed
        // buckets' ranges in `out` must keep their sentinel values —
        // a partially-decompressed bucket is never applied.
        let n = 2;
        let sizes = [6usize, 6, 6];
        let plan = BucketPlan::new(&sizes, 24); // one bucket per block
        let total = plan.total_len();
        let mut endpoints = RingFabric::new(n).into_endpoints();
        let ep1 = endpoints.pop().unwrap();
        let ep0 = endpoints.pop().unwrap();

        let policy = Compression::Int8;
        let vplan = plan.clone();
        let victim = thread::spawn(move || {
            // Participate in bucket 0 only (with the same compression the
            // survivor uses), then die with buckets 1 and 2 outstanding.
            let (tx, rx) = ep1;
            let (lo, hi) = vplan.bucket_range(0);
            let mut data = rank_grad(1, total, 5)[lo..hi].to_vec();
            let mut ef = ErrorFeedback::new(policy);
            ef.apply(&mut data);
            let mut scratch = RingScratch::new();
            ring_allreduce_mean_scratch(1, n, &mut data, &mut scratch, &tx, &rx).unwrap();
            drop((tx, rx));
        });

        let mut ctx = OverlapContext::spawn(0, n, ep0, policy);
        let flat = rank_grad(0, total, 5);
        let mut stream = ctx.stream(&plan);
        for b in (0..plan.num_blocks()).rev() {
            let (lo, hi) = plan.block_flat_range(b);
            stream.push_block(b, &flat[lo..hi]);
        }
        const SENTINEL: f32 = -12345.5;
        let mut out = vec![SENTINEL; total];
        // Destination blocks that straddle the buckets: 4 | 5 | 9.
        let err = stream.finish(&mut split(&mut out, &[4, 5, 9])).unwrap_err();
        assert!(
            matches!(err, CommError::ChannelClosed { .. }),
            "expected ChannelClosed, got {err:?}"
        );
        // Bucket 0 (the trailing block) completed; buckets 1 and 2 must
        // be untouched sentinels, in whichever destination block they
        // land (block 2 holds the tail of bucket 1 and all of bucket 0).
        let (lo0, hi0) = plan.bucket_range(0);
        assert!(
            out[lo0..hi0].iter().all(|&x| x != SENTINEL),
            "bucket 0 should be applied"
        );
        for k in 1..plan.num_buckets() {
            let (lo, hi) = plan.bucket_range(k);
            assert!(
                out[lo..hi].iter().all(|&x| x == SENTINEL),
                "bucket {k} was partially applied after a comm error"
            );
        }
        victim.join().unwrap();
    }
}
