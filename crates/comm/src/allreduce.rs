//! True ring all-reduce over per-rank mailboxes.
//!
//! The shared-accumulator collective in [`crate::world`] is the simplest
//! correct implementation for threads; MLSL on the Aries network runs a
//! *ring*: a reduce-scatter phase (each rank ends up owning the fully
//! reduced sum of one chunk) followed by an all-gather phase (chunks
//! circulate until everyone has everything) — `2·(n−1)` steps moving
//! `bytes/n` each, which is where the `2·(n−1)/n · bytes/bw` cost model
//! in `scidl-cluster::aries` comes from. This module implements that
//! algorithm faithfully over crossbeam channels so the cost model's
//! step structure corresponds to real code.

use crate::error::{CommError, CommResult};
use crossbeam::channel::{unbounded, Receiver, Sender};

/// Mailbox fabric connecting `n` ranks in a ring.
pub struct RingFabric {
    /// `to_next[r]` sends to rank `(r+1) % n`.
    to_next: Vec<Sender<Vec<f32>>>,
    /// `from_prev[r]` receives from rank `(r-1+n) % n`.
    from_prev: Vec<Receiver<Vec<f32>>>,
}

impl RingFabric {
    /// Builds the ring for `n` ranks.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        // Sender r feeds receiver (r+1) % n: rotate receivers left by one.
        receivers.rotate_left(n - 1);
        Self {
            to_next: senders,
            from_prev: receivers,
        }
    }

    /// Splits the fabric into per-rank endpoints `(send_next, recv_prev)`.
    pub fn into_endpoints(self) -> Vec<RingEndpoint> {
        self.to_next.into_iter().zip(self.from_prev).collect()
    }
}

/// One rank's pair of ring channels: `(send to next, receive from prev)`.
pub type RingEndpoint = (Sender<Vec<f32>>, Receiver<Vec<f32>>);

/// Reusable per-rank scratch state for ring all-reduces.
///
/// A bucketed-overlap training step runs one ring all-reduce *per
/// gradient bucket*, so the per-call costs of [`ring_allreduce_mean`] —
/// the chunk-boundary table and a fresh send buffer per step — would
/// grow linearly with bucket count. The scratch caches the boundary
/// table (keyed on `(n, len)`) and recycles received message buffers as
/// the next step's send buffers: messages circulate the ring, so in
/// steady state a reduce allocates nothing at all. Reuse never changes
/// arithmetic — results are bit-identical with or without scratch.
#[derive(Debug, Default)]
pub struct RingScratch {
    /// Cached chunk boundaries for `starts_key == (n, len)`.
    starts: Vec<usize>,
    starts_key: (usize, usize),
    /// Recycled message buffers (bounded pool).
    free: Vec<Vec<f32>>,
}

impl RingScratch {
    /// Empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn take_buf(&mut self, src: &[f32]) -> Vec<f32> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(src);
        buf
    }

    fn recycle(&mut self, buf: Vec<f32>) {
        // At most a handful of messages are ever in flight per rank.
        if self.free.len() < 4 {
            self.free.push(buf);
        }
    }
}

/// Ring all-reduce (mean) for rank `rank` of `n`: reduce-scatter then
/// all-gather. All ranks must call this concurrently with equal-length
/// buffers; on success `data` holds the elementwise mean. A vanished
/// neighbour (dead rank, Sec. VIII-A) surfaces as
/// [`CommError::ChannelClosed`] — in a synchronous group that is fatal
/// for the whole group, but the *caller* decides that, not this crate.
///
/// Allocates working buffers per call; hot paths that reduce many
/// buckets per iteration should hold a [`RingScratch`] and call
/// [`ring_allreduce_mean_scratch`] instead.
pub fn ring_allreduce_mean(
    rank: usize,
    n: usize,
    data: &mut [f32],
    send_next: &Sender<Vec<f32>>,
    recv_prev: &Receiver<Vec<f32>>,
) -> CommResult<()> {
    let mut scratch = RingScratch::new();
    ring_allreduce_mean_scratch(rank, n, data, &mut scratch, send_next, recv_prev)
}

#[inline]
fn chunk_range(starts: &[usize], c: usize) -> std::ops::Range<usize> {
    starts[c]..starts[c + 1]
}

/// [`ring_allreduce_mean`] with caller-owned scratch: bit-identical
/// results, but the chunk table is cached and message buffers are
/// recycled across calls, so repeated reduces (one per gradient bucket)
/// stop allocating once the pool is warm.
pub fn ring_allreduce_mean_scratch(
    rank: usize,
    n: usize,
    data: &mut [f32],
    scratch: &mut RingScratch,
    send_next: &Sender<Vec<f32>>,
    recv_prev: &Receiver<Vec<f32>>,
) -> CommResult<()> {
    if n <= 1 {
        return Ok(());
    }
    // Attach to whichever trace run is in flight (one atomic load and
    // no-op timestamps when tracing is off).
    let tr = scidl_trace::TraceHandle::current();
    let t0 = tr.now();
    let len = data.len();
    // Chunk boundaries: chunk c covers [starts[c], starts[c+1]).
    if scratch.starts_key != (n, len) || scratch.starts.is_empty() {
        scratch.starts.clear();
        scratch.starts.extend((0..=n).map(|c| c * len / n));
        scratch.starts_key = (n, len);
    }
    let gone = || CommError::ChannelClosed {
        context: "ring neighbour",
    };

    // Reduce-scatter: in step s, send chunk (rank - s) and receive+add
    // chunk (rank - s - 1).
    for s in 0..n - 1 {
        let send_c = (rank + n - s) % n;
        let recv_c = (rank + n - s - 1) % n;
        let send_r = chunk_range(&scratch.starts, send_c);
        let recv_r = chunk_range(&scratch.starts, recv_c);
        let out = scratch.take_buf(&data[send_r]);
        send_next.send(out).map_err(|_| gone())?;
        let incoming = recv_prev.recv().map_err(|_| gone())?;
        for (d, v) in data[recv_r].iter_mut().zip(&incoming) {
            *d += v;
        }
        scratch.recycle(incoming);
    }
    // Rank now owns the full sum of chunk (rank + 1) % n; scale it.
    let own = (rank + 1) % n;
    let inv = 1.0 / n as f32;
    for d in &mut data[chunk_range(&scratch.starts, own)] {
        *d *= inv;
    }
    // All-gather: circulate finished chunks.
    for s in 0..n - 1 {
        let send_c = (rank + 1 + n - s) % n;
        let recv_c = (rank + n - s) % n;
        let send_r = chunk_range(&scratch.starts, send_c);
        let recv_r = chunk_range(&scratch.starts, recv_c);
        let out = scratch.take_buf(&data[send_r]);
        send_next.send(out).map_err(|_| gone())?;
        let incoming = recv_prev.recv().map_err(|_| gone())?;
        data[recv_r].copy_from_slice(&incoming);
        scratch.recycle(incoming);
    }
    tr.span(
        rank as u64,
        t0,
        scidl_trace::EventKind::Allreduce {
            elems: len as u64,
            bytes: len as u64 * 4,
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_ring(n: usize, len: usize) -> Vec<Vec<f32>> {
        let endpoints = RingFabric::new(n).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, (tx, rx))| {
                thread::spawn(move || {
                    let mut data: Vec<f32> = (0..len).map(|i| (rank * len + i) as f32).collect();
                    ring_allreduce_mean(rank, n, &mut data, &tx, &rx).unwrap();
                    data
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    fn expected(n: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| (0..n).map(|r| (r * len + i) as f32).sum::<f32>() / n as f32)
            .collect()
    }

    #[test]
    fn ring_matches_mean_small() {
        for n in [2, 3, 4, 5, 8] {
            let len = 12;
            let results = run_ring(n, len);
            let want = expected(n, len);
            for (r, got) in results.iter().enumerate() {
                for (a, b) in got.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-4, "n={n} rank={r}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn ring_handles_len_not_divisible_by_n() {
        let results = run_ring(4, 10);
        let want = expected(4, 10);
        for got in results {
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn ring_handles_len_smaller_than_n() {
        // Some chunks are empty; the algorithm must still terminate.
        let results = run_ring(6, 3);
        let want = expected(6, 3);
        for got in results {
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn single_rank_is_identity() {
        let endpoints = RingFabric::new(1).into_endpoints();
        let (tx, rx) = &endpoints[0];
        let mut data = vec![1.0, 2.0];
        ring_allreduce_mean(0, 1, &mut data, tx, rx).unwrap();
        assert_eq!(data, vec![1.0, 2.0]);
    }

    #[test]
    fn dead_neighbour_is_an_error_not_a_panic() {
        // Rank 1 dies before participating: rank 0's reduce must fail
        // with ChannelClosed (the sync-group fatality of Sec. VIII-A)
        // instead of aborting the process.
        let mut endpoints = RingFabric::new(2).into_endpoints();
        let (tx1, rx1) = endpoints.pop().unwrap();
        let (tx0, rx0) = endpoints.pop().unwrap();
        drop((tx1, rx1)); // rank 1 is gone
        let mut data = vec![1.0, 2.0];
        let err = ring_allreduce_mean(0, 2, &mut data, &tx0, &rx0).unwrap_err();
        assert!(matches!(err, crate::error::CommError::ChannelClosed { .. }));
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_rounds_and_lengths() {
        // A warm scratch (recycled buffers, cached then invalidated chunk
        // tables) must produce bit-identical results to fresh per-call
        // state, including when consecutive calls change length.
        let n = 4;
        let lens = [13usize, 13, 7, 32, 7];
        let endpoints = RingFabric::new(n).into_endpoints();
        let scratch_out: Vec<Vec<Vec<f32>>> = {
            let handles: Vec<_> = endpoints
                .into_iter()
                .enumerate()
                .map(|(rank, (tx, rx))| {
                    thread::spawn(move || {
                        let mut scratch = RingScratch::new();
                        let mut rounds = Vec::new();
                        for (round, &len) in lens.iter().enumerate() {
                            let mut data: Vec<f32> = (0..len)
                                .map(|i| ((rank + 1) * (i + 1) * (round + 1)) as f32 * 0.37)
                                .collect();
                            ring_allreduce_mean_scratch(rank, n, &mut data, &mut scratch, &tx, &rx)
                                .unwrap();
                            rounds.push(data);
                        }
                        rounds
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        };
        // Reference: fresh allocating calls, one ring per round.
        for (round, &len) in lens.iter().enumerate() {
            let endpoints = RingFabric::new(n).into_endpoints();
            let handles: Vec<_> = endpoints
                .into_iter()
                .enumerate()
                .map(|(rank, (tx, rx))| {
                    thread::spawn(move || {
                        let mut data: Vec<f32> = (0..len)
                            .map(|i| ((rank + 1) * (i + 1) * (round + 1)) as f32 * 0.37)
                            .collect();
                        ring_allreduce_mean(rank, n, &mut data, &tx, &rx).unwrap();
                        data
                    })
                })
                .collect();
            let fresh: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for rank in 0..n {
                assert_eq!(
                    scratch_out[rank][round], fresh[rank],
                    "rank {rank} round {round}"
                );
            }
        }
    }

    #[test]
    fn ring_agrees_with_tree_allreduce() {
        use crate::world::CommWorld;
        let n = 5;
        let len = 37;
        let ring = run_ring(n, len);

        let comms = CommWorld::new(n);
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, c)| {
                thread::spawn(move || {
                    let mut data: Vec<f32> = (0..len).map(|i| (rank * len + i) as f32).collect();
                    c.allreduce_mean(&mut data);
                    data
                })
            })
            .collect();
        let tree: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (a, b) in ring[0].iter().zip(&tree[0]) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}
