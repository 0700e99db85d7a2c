//! The dynamic batcher: a bounded request queue plus a deadline-driven
//! batch former, with the admission-control and recovery hooks the
//! resilient serving tier is built on.
//!
//! The core serving problem on KNL-class hardware is the small-batch
//! efficiency cliff (Sec. II-A / Fig. 5 of the paper): a batch-1 forward
//! pass achieves a fraction of the throughput of a batch-32 pass. The
//! batch former therefore coalesces queued requests until either
//! `max_batch` requests are waiting or the *oldest* request has waited
//! `max_delay` — bounding added latency while letting throughput ride the
//! batch-efficiency curve.
//!
//! Backpressure is open-loop friendly: `submit` never blocks. Admission
//! is rejected with a typed [`SubmitError`] in two cases, and the
//! request is handed back to the caller either way:
//!
//! * [`SubmitError::Full`] — the queue depth reached its capacity, the
//!   one bound on waiting requests, which keeps the tail latency of
//!   accepted work bounded; the error carries the depth so callers can
//!   derive a retry-after hint.
//! * [`SubmitError::Closed`] — the queue was closed; nothing submitted
//!   after `close()` is ever enqueued, so no request can sit in a queue
//!   no consumer will drain.
//!
//! Requests may carry a *deadline* ([`BatchQueue::submit_with_deadline`]).
//! The batch former sheds expired requests **before** compute: they are
//! returned to the consumer in [`Popped::expired`] so it can give each a
//! terminal answer instead of burning batch slots on work nobody is
//! waiting for.
//!
//! Two recovery hooks serve the worker supervisor:
//! [`BatchQueue::requeue_front`] puts a dead worker's in-flight requests
//! back at the head of the line (capacity- and close-exempt — they were
//! already admitted once), and [`BatchQueue::drain_all`] empties the
//! queue when no consumer remains so every leftover request can be
//! failed instead of stranded.
//!
//! Built directly on `std::sync::{Mutex, Condvar}` because the batch
//! former needs `wait_timeout` for the deadline path.

use crate::policy::{batch_trigger, lapsed};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Batch-formation policy: coalesce up to `max_batch` requests, but never
/// hold the oldest request longer than `max_delay`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest batch the former will assemble.
    pub max_batch: usize,
    /// Longest the oldest queued request may wait for co-batching.
    pub max_delay: Duration,
}

impl BatchPolicy {
    /// Dynamic batching: up to `max_batch`, deadline `max_delay`.
    pub fn dynamic(max_batch: usize, max_delay: Duration) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        Self {
            max_batch,
            max_delay,
        }
    }

    /// The baseline policy: every request is its own batch.
    pub fn batch1() -> Self {
        Self {
            max_batch: 1,
            max_delay: Duration::ZERO,
        }
    }
}

/// Why [`BatchQueue::submit`] rejected a request; the request itself is
/// handed back in either variant.
#[derive(Debug)]
pub enum SubmitError<T> {
    /// The queue depth reached the capacity. `depth`
    /// is the number of requests that were waiting at rejection time —
    /// the raw material for a retry-after hint.
    Full {
        /// The rejected request, handed back.
        item: T,
        /// Queue depth observed at rejection.
        depth: usize,
    },
    /// The queue was closed; nothing is enqueued after `close()`.
    Closed(T),
}

impl<T> SubmitError<T> {
    /// The rejected request, regardless of variant.
    pub fn into_item(self) -> T {
        match self {
            SubmitError::Full { item, .. } | SubmitError::Closed(item) => item,
        }
    }
}

/// One queued request with its arrival timestamp (for the queue-wait
/// component of the latency split) and optional absolute deadline.
struct Pending<T> {
    item: T,
    arrived: Instant,
    deadline: Option<Instant>,
}

/// What one [`BatchQueue::pop_expiring`] call produced: a (possibly
/// empty) batch ready for compute, plus every request whose deadline
/// passed while it waited. Expired requests are surfaced *before* the
/// compute they would otherwise ride, so the consumer can shed them with
/// a typed terminal answer.
pub struct Popped<T> {
    /// Requests to serve, paired with their queue wait. May be empty
    /// when the call only harvested expired requests.
    pub batch: Vec<(T, Duration)>,
    /// Requests whose deadline expired in the queue.
    pub expired: Vec<T>,
}

struct Inner<T> {
    items: VecDeque<Pending<T>>,
    closed: bool,
}

/// Bounded MPMC request queue with batch-forming consumers, load
/// shedding at capacity and deadline expiry.
pub struct BatchQueue<T> {
    inner: Mutex<Inner<T>>,
    notify: Condvar,
    capacity: usize,
}

impl<T> BatchQueue<T> {
    /// Creates a queue admitting at most `capacity` waiting requests.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must be at least 1");
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            notify: Condvar::new(),
            capacity,
        }
    }

    /// Bound on submitted waiting requests (re-queues may exceed it).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues a request without blocking; equivalent to
    /// [`BatchQueue::submit_with_deadline`] with no deadline.
    pub fn submit(&self, item: T) -> Result<(), SubmitError<T>> {
        self.submit_with_deadline(item, None)
    }

    /// Enqueues a request without blocking. Rejects with
    /// [`SubmitError::Closed`] after `close()` and with
    /// [`SubmitError::Full`] once the capacity is reached. A
    /// request with a `deadline` that passes while queued is shed by the
    /// batch former before compute (see [`Popped::expired`]).
    pub fn submit_with_deadline(
        &self,
        item: T,
        deadline: Option<Instant>,
    ) -> Result<(), SubmitError<T>> {
        let mut g = self.inner.lock().unwrap();
        if g.closed {
            return Err(SubmitError::Closed(item));
        }
        if g.items.len() >= self.capacity {
            let depth = g.items.len();
            return Err(SubmitError::Full { item, depth });
        }
        g.items.push_back(Pending {
            item,
            arrived: Instant::now(),
            deadline,
        });
        drop(g);
        // One item can satisfy one consumer: `notify_one` avoids a
        // thundering herd of the whole worker pool per submit. Waiters
        // re-evaluate in `pop_expiring`'s loop (and park with a
        // deadline), so an absorbed wake cannot strand a request;
        // `close` still uses `notify_all` so every consumer observes
        // end-of-stream.
        self.notify.notify_one();
        Ok(())
    }

    /// Puts recovered in-flight requests back at the *head* of the line,
    /// in order (`items[0]` will be popped first). Exempt from both the
    /// capacity and the closed flag: these requests were admitted once
    /// already, and after `close()` consumers still drain what remains.
    /// Each item carries its (possibly already expired) deadline so the
    /// expiry path still applies; arrival is reset to now, so the queue
    /// wait of a retried request counts from its re-queue.
    pub fn requeue_front(&self, items: Vec<(T, Option<Instant>)>) {
        if items.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut g = self.inner.lock().unwrap();
        for (item, deadline) in items.into_iter().rev() {
            g.items.push_front(Pending {
                item,
                arrived: now,
                deadline,
            });
        }
        drop(g);
        // Several consumers may be parked and several items arrived.
        self.notify.notify_all();
    }

    /// Empties the queue immediately, returning every waiting request.
    /// The supervisor's last resort: when no worker remains to consume,
    /// each drained request gets failed explicitly instead of sitting in
    /// a queue forever.
    pub fn drain_all(&self) -> Vec<T> {
        let mut g = self.inner.lock().unwrap();
        g.items.drain(..).map(|p| p.item).collect()
    }

    /// Number of requests currently waiting.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// True when no requests are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once [`BatchQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// Closes the queue: subsequent `submit`s are rejected; consumers
    /// drain what remains and then observe end-of-stream.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.notify.notify_all();
    }

    /// Blocks until a batch can be formed under `policy` *or* a queued
    /// request's deadline expires, returning both the ready batch and
    /// the expired requests. Returns `None` once the queue is closed
    /// *and* drained.
    ///
    /// Formation rule: dispatch as soon as `max_batch` live requests
    /// wait, or when the oldest has waited `max_delay` (then take
    /// whatever is present). Close flushes immediately. Expired requests
    /// never enter a batch — they are shed the moment any consumer
    /// observes them, waking early if needed, and returned in
    /// [`Popped::expired`] (possibly with an empty batch) so the caller
    /// answers them before any compute.
    pub fn pop_expiring(&self, policy: &BatchPolicy) -> Option<Popped<T>> {
        let trigger = |g: &Inner<T>| {
            batch_trigger(g.items.len(), policy.max_batch, policy.max_delay, |i| {
                g.items[i].arrived
            })
        };
        let mut g = self.inner.lock().unwrap();
        loop {
            // One timestamp per former pass: expiry, batch readiness,
            // queue-wait accounting and the park decision all observe
            // the same `now`, so a single request can never straddle two
            // clock reads and be both shed as expired *and* batched (or
            // double-counted) within one tick.
            let now = Instant::now();
            let expired = Self::extract_expired(&mut g, now);
            let batch_ready = !g.items.is_empty() && (g.closed || now >= trigger(&g));
            if batch_ready {
                return Some(Popped {
                    batch: Self::drain(&mut g, policy.max_batch, now),
                    expired,
                });
            }
            if !expired.is_empty() {
                // Shed promptly: don't hold the expired requests' typed
                // answers hostage to batch formation.
                return Some(Popped {
                    batch: Vec::new(),
                    expired,
                });
            }
            if g.items.is_empty() {
                if g.closed {
                    return None;
                }
                g = self.notify.wait(g).unwrap();
                continue;
            }
            // Park until whichever fires first: the batch trigger or the
            // earliest request deadline in the queue.
            let mut wake = trigger(&g);
            for p in &g.items {
                if let Some(d) = p.deadline {
                    wake = wake.min(d);
                }
            }
            if now >= wake {
                continue;
            }
            // Woken by a new arrival, close, or the timeout; the loop
            // re-evaluates everything, so spurious wakes and consumer
            // races are benign.
            (g, _) = self.notify.wait_timeout(g, wake - now).unwrap();
        }
    }

    /// Blocks until a batch forms, for queues whose producers never set
    /// deadlines. Panics if it encounters an expired request — such
    /// queues must be consumed through [`BatchQueue::pop_expiring`],
    /// which returns the expired requests for typed shedding.
    pub fn pop_batch(&self, policy: &BatchPolicy) -> Option<Vec<(T, Duration)>> {
        let popped = self.pop_expiring(policy)?;
        assert!(
            popped.expired.is_empty(),
            "pop_batch on a queue with deadline submissions — use pop_expiring"
        );
        Some(popped.batch)
    }

    fn extract_expired(g: &mut Inner<T>, now: Instant) -> Vec<T> {
        if !g.items.iter().any(|p| lapsed(p.deadline, now)) {
            return Vec::new();
        }
        let mut expired = Vec::new();
        let mut keep = VecDeque::with_capacity(g.items.len());
        for p in g.items.drain(..) {
            if lapsed(p.deadline, now) {
                expired.push(p.item);
            } else {
                keep.push_back(p);
            }
        }
        g.items = keep;
        expired
    }

    fn drain(g: &mut Inner<T>, max_batch: usize, now: Instant) -> Vec<(T, Duration)> {
        let k = g.items.len().min(max_batch);
        g.items
            .drain(..k)
            .map(|p| (p.item, now.saturating_duration_since(p.arrived)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_batch_dispatches_without_waiting_for_deadline() {
        let q = BatchQueue::new(16);
        for i in 0..4 {
            q.submit(i).unwrap();
        }
        let policy = BatchPolicy::dynamic(4, Duration::from_secs(3600));
        let t0 = Instant::now();
        let batch = q.pop_batch(&policy).unwrap();
        assert_eq!(batch.len(), 4);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "must not wait for the deadline"
        );
        let ids: Vec<i32> = batch.into_iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "FIFO order");
    }

    #[test]
    fn deadline_flushes_partial_batch() {
        let q = BatchQueue::new(16);
        q.submit(7).unwrap();
        let policy = BatchPolicy::dynamic(8, Duration::from_millis(20));
        let t0 = Instant::now();
        let batch = q.pop_batch(&policy).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(
            t0.elapsed() >= Duration::from_millis(15),
            "should wait out the deadline"
        );
    }

    #[test]
    fn batch1_policy_never_coalesces() {
        let q = BatchQueue::new(16);
        q.submit(1).unwrap();
        q.submit(2).unwrap();
        let policy = BatchPolicy::batch1();
        assert_eq!(q.pop_batch(&policy).unwrap().len(), 1);
        assert_eq!(q.pop_batch(&policy).unwrap().len(), 1);
    }

    #[test]
    fn capacity_rejects_and_hands_back_with_depth() {
        let q = BatchQueue::new(2);
        q.submit(1).unwrap();
        q.submit(2).unwrap();
        match q.submit(3).unwrap_err() {
            SubmitError::Full { item, depth } => {
                assert_eq!(item, 3);
                assert_eq!(depth, 2);
            }
            e => panic!("expected Full, got {e:?}"),
        }
        assert_eq!(q.len(), 2);
        // Requeue is capacity-exempt: recovered in-flight work still fits.
        q.requeue_front(vec![(9, None)]);
        assert_eq!(q.len(), 3);
    }

    /// Regression (resilience satellite): nothing submitted after
    /// `close()` may ever be enqueued — a closed queue can have no
    /// consumers left, and a silently enqueued request would hang its
    /// client forever.
    #[test]
    fn submit_after_close_returns_closed_and_enqueues_nothing() {
        let q = BatchQueue::new(8);
        q.submit(1).unwrap();
        q.close();
        match q.submit(2).unwrap_err() {
            SubmitError::Closed(item) => assert_eq!(item, 2),
            e => panic!("expected Closed, got {e:?}"),
        }
        assert_eq!(q.len(), 1, "the rejected request must not be enqueued");
        assert!(q.is_closed());
        // Drain the survivor; the stream then ends — the closed-submit
        // request is not lurking behind it.
        let policy = BatchPolicy::dynamic(8, Duration::from_secs(3600));
        assert_eq!(q.pop_batch(&policy).unwrap().len(), 1);
        assert!(q.pop_batch(&policy).is_none());
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BatchQueue::new(8);
        q.submit(1).unwrap();
        q.submit(2).unwrap();
        q.close();
        assert!(q.submit(3).is_err(), "closed queue rejects");
        let policy = BatchPolicy::dynamic(8, Duration::from_secs(3600));
        // Close flushes immediately even though the batch is partial.
        assert_eq!(q.pop_batch(&policy).unwrap().len(), 2);
        assert!(
            q.pop_batch(&policy).is_none(),
            "drained + closed = end of stream"
        );
    }

    #[test]
    fn expired_requests_are_shed_before_compute() {
        let q = BatchQueue::new(8);
        let now = Instant::now();
        q.submit_with_deadline(1, Some(now + Duration::from_millis(5)))
            .unwrap();
        q.submit_with_deadline(2, Some(now + Duration::from_secs(3600)))
            .unwrap();
        q.submit(3).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        // Request 1 expired while queued: it must come back via
        // `expired`, never inside the batch formed from the survivors.
        let popped = q
            .pop_expiring(&BatchPolicy::dynamic(2, Duration::from_secs(3600)))
            .unwrap();
        assert_eq!(popped.expired, vec![1]);
        let ids: Vec<i32> = popped.batch.into_iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn expiry_wakes_a_parked_consumer_promptly() {
        let q = Arc::new(BatchQueue::new(8));
        q.submit_with_deadline(7, Some(Instant::now() + Duration::from_millis(20)))
            .unwrap();
        // Batch former alone would park for the full hour-long max_delay;
        // the request's own deadline must wake it in ~20 ms.
        let t0 = Instant::now();
        let popped = q
            .pop_expiring(&BatchPolicy::dynamic(8, Duration::from_secs(3600)))
            .unwrap();
        assert!(popped.batch.is_empty());
        assert_eq!(popped.expired, vec![7]);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "expiry must not wait for the batch deadline: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn requeue_front_preserves_order_and_beats_the_line() {
        let q = BatchQueue::new(8);
        q.submit(10).unwrap();
        q.requeue_front(vec![(1, None), (2, None)]);
        let policy = BatchPolicy::dynamic(3, Duration::ZERO);
        let ids: Vec<i32> = q
            .pop_batch(&policy)
            .unwrap()
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            ids,
            vec![1, 2, 10],
            "requeued requests are served first, in order"
        );
    }

    #[test]
    fn requeue_front_works_after_close_so_recovery_can_drain() {
        let q = BatchQueue::new(4);
        q.close();
        q.requeue_front(vec![(5, None)]);
        assert_eq!(q.len(), 1);
        let policy = BatchPolicy::batch1();
        assert_eq!(q.pop_batch(&policy).unwrap()[0].0, 5);
        assert!(q.pop_batch(&policy).is_none());
    }

    #[test]
    fn drain_all_empties_the_queue() {
        let q = BatchQueue::new(8);
        q.submit(1).unwrap();
        q.submit_with_deadline(2, Some(Instant::now() + Duration::from_secs(1)))
            .unwrap();
        assert_eq!(q.drain_all(), vec![1, 2]);
        assert!(q.is_empty());
        assert_eq!(q.drain_all(), Vec::<i32>::new());
    }

    #[test]
    fn producer_wakes_blocked_consumer() {
        let q = Arc::new(BatchQueue::new(8));
        let qc = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            qc.pop_batch(&BatchPolicy::dynamic(2, Duration::from_millis(50)))
        });
        std::thread::sleep(Duration::from_millis(10));
        q.submit(41).unwrap();
        q.submit(42).unwrap();
        let batch = consumer.join().unwrap().unwrap();
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn multi_consumer_exactly_once_fifo() {
        // Four consumers race on one queue while a producer trickles in
        // requests; with `notify_one` in `submit` every request must
        // still be dispatched exactly once, each batch internally FIFO,
        // and all consumers must terminate once the queue closes.
        const N: usize = 400;
        const CONSUMERS: usize = 4;
        let q = Arc::new(BatchQueue::new(N));
        let policy = BatchPolicy::dynamic(8, Duration::from_millis(2));
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let qc = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut batches: Vec<Vec<usize>> = Vec::new();
                    while let Some(batch) = qc.pop_batch(&policy) {
                        batches.push(batch.into_iter().map(|(i, _)| i).collect());
                    }
                    batches
                })
            })
            .collect();
        for i in 0..N {
            q.submit(i).unwrap();
            if i % 16 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        q.close();
        let mut all: Vec<usize> = Vec::new();
        for c in consumers {
            for batch in c.join().unwrap() {
                assert!(
                    batch.windows(2).all(|w| w[0] < w[1]),
                    "batch must preserve FIFO order: {batch:?}"
                );
                all.extend(batch);
            }
        }
        all.sort_unstable();
        let expect: Vec<usize> = (0..N).collect();
        assert_eq!(
            all, expect,
            "every request exactly once, none lost to a missed wakeup"
        );
    }

    /// Regression (fleet satellite): the batch former takes exactly one
    /// timestamp per pass, so every popped request lands in *either*
    /// `expired` or `batch`, never both and never neither — even when
    /// deadlines race the pop. Hammers the boundary with deadlines that
    /// straddle "now" and checks the dispositions partition the ids.
    #[test]
    fn one_timestamp_per_pass_partitions_dispositions() {
        let policy = BatchPolicy::dynamic(64, Duration::ZERO);
        for round in 0..200u64 {
            let q = BatchQueue::new(64);
            let now = Instant::now();
            for i in 0..8u64 {
                let id = round * 8 + i;
                // Deadlines from "already expired" through "a few µs out":
                // some will flip to expired between submit and pop.
                let d = now + Duration::from_micros(i * 3);
                q.submit_with_deadline(id, Some(d)).unwrap();
            }
            let mut seen: Vec<u64> = Vec::new();
            while !q.is_empty() {
                let popped = q.pop_expiring(&policy).unwrap();
                seen.extend(popped.expired.iter().copied());
                seen.extend(popped.batch.iter().map(|(id, _)| *id));
            }
            seen.sort_unstable();
            let expect: Vec<u64> = (round * 8..round * 8 + 8).collect();
            assert_eq!(seen, expect, "each request exactly one disposition");
        }
    }

    #[test]
    fn queue_wait_is_recorded() {
        let q = BatchQueue::new(8);
        q.submit(1).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let batch = q.pop_batch(&BatchPolicy::batch1()).unwrap();
        assert!(
            batch[0].1 >= Duration::from_millis(5),
            "wait {:?}",
            batch[0].1
        );
    }
}
