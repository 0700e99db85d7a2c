//! Communicator: rank/size handles over a shared-memory fabric, with
//! tree all-reduce, broadcast and barrier collectives, and `split` for
//! forming disjoint compute groups.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

/// State shared by all ranks of one communicator.
struct Shared {
    n: usize,
    m: Mutex<State>,
    cv: Condvar,
}

struct State {
    /// The in-flight reduction's contributions, one slot per rank.
    parts: Vec<Vec<f32>>,
    /// Contributions received this round.
    count: usize,
    /// Completed round counter.
    generation: u64,
    /// Double-buffered results, indexed by `generation & 1` of the round
    /// that produced them.
    results: [Vec<f32>; 2],
    /// Where the current broadcast's root holds its block, and the
    /// block's length: the root's own buffer, read by the others between
    /// the broadcast's two barriers (stale, and never read, outside them).
    bcast: (AtomicPtr<f32>, usize),
    /// Barrier arrival count and generation.
    barrier_count: usize,
    barrier_gen: u64,
}

/// A rank's handle on a communicator (clonable only via [`CommWorld`]).
pub struct Communicator {
    rank: usize,
    shared: Arc<Shared>,
}

/// Factory for the communicators of an `n`-rank world.
pub struct CommWorld;

impl CommWorld {
    /// Creates `n` communicator handles for one world.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(n: usize) -> Vec<Communicator> {
        assert!(n >= 1, "world must have at least one rank");
        let shared = Arc::new(Shared {
            n,
            m: Mutex::new(State {
                parts: vec![Vec::new(); n],
                count: 0,
                generation: 0,
                results: [Vec::new(), Vec::new()],
                bcast: (AtomicPtr::new(std::ptr::null_mut()), 0),
                barrier_count: 0,
                barrier_gen: 0,
            }),
            cv: Condvar::new(),
        });
        (0..n)
            .map(|rank| Communicator {
                rank,
                shared: Arc::clone(&shared),
            })
            .collect()
    }

    /// Splits `n` ranks into `groups` contiguous groups, returning for
    /// each global rank its `(group index, group communicator)`. This is
    /// the analogue of the MLSL extension the paper built for placing
    /// nodes into disjoint communication groups (Sec. III-E(b)).
    pub fn split(n: usize, groups: usize) -> Vec<(usize, Communicator)> {
        assert!(groups >= 1 && groups <= n, "invalid group count");
        let base = n / groups;
        let rem = n % groups;
        let mut out: Vec<(usize, Communicator)> = Vec::with_capacity(n);
        for g in 0..groups {
            let size = base + usize::from(g < rem);
            for comm in CommWorld::new(size) {
                out.push((g, comm));
            }
        }
        out
    }
}

impl Communicator {
    /// This rank's index in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.shared.n
    }

    /// In-place all-reduce: on return every rank's `data` holds the
    /// elementwise **mean** of all contributions (data-parallel gradient
    /// averaging), summed in rank order whichever rank arrives first, so
    /// its bits do not depend on the schedule. All ranks must pass
    /// equal-length buffers.
    pub fn allreduce_mean(&self, data: &mut [f32]) {
        let sh = &*self.shared;
        if sh.n == 1 {
            return;
        }
        let mut st = sh.m.lock();
        // A rank's slot is free again: the last round completed before it
        // could return from it.
        let part = &mut st.parts[self.rank];
        part.clear();
        part.extend_from_slice(data);
        st.count += 1;
        let my_gen = st.generation;
        if st.count == sh.n {
            let inv = 1.0 / sh.n as f32;
            let mut result = vec![0.0f32; data.len()];
            for part in &st.parts {
                assert_eq!(
                    part.len(),
                    data.len(),
                    "allreduce length mismatch across ranks"
                );
                result.iter_mut().zip(part).for_each(|(s, &d)| *s += d);
            }
            result.iter_mut().for_each(|v| *v *= inv);
            let slot = (my_gen & 1) as usize;
            st.results[slot] = result;
            st.count = 0;
            st.generation += 1;
            sh.cv.notify_all();
        } else {
            sh.cv.wait_while(&mut st, |st| st.generation == my_gen);
        }
        let slot = (my_gen & 1) as usize;
        data.copy_from_slice(&st.results[slot]);
    }

    /// Broadcast from `root`: after return every rank's `data` equals the
    /// root's. The root publishes where its `data` lies, all meet at a
    /// barrier, each other rank copies straight out of the root's buffer,
    /// and a second barrier holds the root — and so its buffer — until
    /// the last copy is done: one copy per non-root, no staging buffer.
    pub fn broadcast(&self, root: usize, data: &mut [f32]) {
        let sh = &*self.shared;
        if sh.n == 1 {
            return;
        }
        assert!(root < sh.n, "broadcast root out of range");
        if self.rank == root {
            sh.m.lock().bcast = (AtomicPtr::new(data.as_mut_ptr()), data.len());
        }
        self.barrier();
        if self.rank != root {
            let (src, len) = {
                let st = sh.m.lock();
                (st.bcast.0.load(Ordering::Relaxed), st.bcast.1)
            };
            assert_eq!(len, data.len(), "broadcast length mismatch");
            // SAFETY: `src` and `len` are the root's `data`, published
            // before the first barrier by a root that holds that borrow
            // until it returns and neither reads nor writes it until it
            // passes the second barrier below — which waits for this rank,
            // so the slice is live and unchanged for the whole copy. The
            // previous round's pointer cannot be read here: its root left
            // only after every rank passed that round's second barrier,
            // and this round's root overwrote it before the first. The
            // mutex both barriers take orders the root's writes to `data`
            // before this read.
            let src = unsafe { std::slice::from_raw_parts(src, len) };
            data.copy_from_slice(src);
        }
        self.barrier();
    }

    /// Full barrier across the communicator.
    pub fn barrier(&self) {
        let sh = &*self.shared;
        if sh.n == 1 {
            return;
        }
        let mut st = sh.m.lock();
        let my_gen = st.barrier_gen;
        st.barrier_count += 1;
        if st.barrier_count == sh.n {
            st.barrier_count = 0;
            st.barrier_gen += 1;
            sh.cv.notify_all();
        } else {
            sh.cv.wait_while(&mut st, |st| st.barrier_gen == my_gen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_ranks<F>(n: usize, f: F) -> Vec<Vec<f32>>
    where
        F: Fn(Communicator) -> Vec<f32> + Send + Sync + Copy + 'static,
    {
        let comms = CommWorld::new(n);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| thread::spawn(move || f(c)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn allreduce_mean_of_ranks() {
        let results = run_ranks(4, |c| {
            let mut data = vec![c.rank() as f32, 10.0 * c.rank() as f32];
            c.allreduce_mean(&mut data);
            data
        });
        for r in results {
            assert_eq!(r, vec![1.5, 15.0]); // mean of 0..4 and 0,10,20,30
        }
    }

    #[test]
    fn allreduce_sums_in_rank_order_whoever_arrives_first() {
        // In rank order 1 + 1e8 rounds to 1e8 and the mean is 0; summed
        // in arrival order with rank 0 last it would be 1/3. The result
        // must hold under any schedule; the delays make the reverse
        // arrival the likely one.
        let results = run_ranks(3, |c| {
            thread::sleep(std::time::Duration::from_millis(20 * (2 - c.rank()) as u64));
            let mut data = vec![[1.0f32, 1e8, -1e8][c.rank()]];
            c.allreduce_mean(&mut data);
            data
        });
        assert!(
            results.iter().all(|r| r[0].to_bits() == 0.0f32.to_bits()),
            "{results:?}"
        );
    }

    #[test]
    fn allreduce_repeated_rounds_stay_consistent() {
        let results = run_ranks(3, |c| {
            let mut acc = Vec::new();
            for round in 0..20 {
                let mut data = vec![(c.rank() + round) as f32];
                c.allreduce_mean(&mut data);
                acc.push(data[0]);
            }
            acc
        });
        for r in &results {
            for (round, &v) in r.iter().enumerate() {
                let expect = round as f32 + 1.0; // mean of rank+round over ranks 0..3
                assert_eq!(v, expect, "round {round}");
            }
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn single_rank_allreduce_is_identity() {
        let mut comms = CommWorld::new(1);
        let c = comms.pop().unwrap();
        let mut data = vec![3.0, 4.0];
        c.allreduce_mean(&mut data);
        assert_eq!(data, vec![3.0, 4.0]);
    }

    #[test]
    fn broadcast_distributes_root_data() {
        let results = run_ranks(4, |c| {
            let mut data = if c.rank() == 2 {
                vec![7.0, 8.0, 9.0]
            } else {
                vec![0.0; 3]
            };
            c.broadcast(2, &mut data);
            data
        });
        for r in results {
            assert_eq!(r, vec![7.0, 8.0, 9.0]);
        }
    }

    #[test]
    fn broadcast_rounds_do_not_bleed() {
        let results = run_ranks(3, |c| {
            let mut out = Vec::new();
            for round in 0..10 {
                let mut data = if c.rank() == 0 {
                    vec![round as f32]
                } else {
                    vec![-1.0]
                };
                c.broadcast(0, &mut data);
                out.push(data[0]);
            }
            out
        });
        for r in results {
            assert_eq!(r, (0..10).map(|x| x as f32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn broadcast_soak_root_reuses_its_buffer_at_once() {
        // The non-roots read the root's own buffer, so a root that
        // returned before the last copy finished would leak the value it
        // writes next. Every root overwrites its buffer the moment
        // `broadcast` returns; no other rank may ever see that value.
        const ROUNDS: usize = 1500;
        const MAX_LEN: usize = 4096;
        fn soak(c: Communicator) -> Vec<f32> {
            let n = c.size();
            let mut buf = vec![f32::NAN; MAX_LEN];
            for round in 0..ROUNDS {
                let root = (round + round / n) % n;
                let len = 1 + round * 2_654_435_761 % MAX_LEN;
                let data = &mut buf[..len];
                let want = |i: usize| (round * MAX_LEN + i) as f32;
                if c.rank() == root {
                    data.iter_mut().enumerate().for_each(|(i, x)| *x = want(i));
                }
                c.broadcast(root, data);
                if c.rank() == root {
                    data.fill(-1.0 - round as f32);
                } else {
                    let bad = (0..len).find(|&i| data[i].to_bits() != want(i).to_bits());
                    assert_eq!(bad, None, "rank {} round {round} root {root}", c.rank());
                }
            }
            buf
        }
        for n in [3, 4] {
            run_ranks(n, soak);
        }
    }

    #[test]
    fn split_forms_disjoint_groups_of_expected_size() {
        let members = CommWorld::split(10, 3);
        assert_eq!(members.len(), 10);
        let sizes: Vec<usize> = (0..3)
            .map(|g| members.iter().filter(|(gg, _)| *gg == g).count())
            .collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        for (g, c) in &members {
            assert_eq!(c.size(), sizes[*g]);
        }
    }

    #[test]
    fn group_allreduce_is_scoped_to_group() {
        let members = CommWorld::split(4, 2);
        let handles: Vec<_> = members
            .into_iter()
            .map(|(g, c)| {
                thread::spawn(move || {
                    let mut data = vec![(g * 100 + c.rank()) as f32];
                    c.allreduce_mean(&mut data);
                    (g, data[0])
                })
            })
            .collect();
        for h in handles {
            let (g, v) = h.join().unwrap();
            // Group 0: ranks {0,1} → mean 0.5; group 1: {100,101} → 100.5.
            let expect = g as f32 * 100.0 + 0.5;
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let flag = Arc::new(AtomicUsize::new(0));
        let comms = CommWorld::new(4);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let flag = Arc::clone(&flag);
                thread::spawn(move || {
                    flag.fetch_add(1, Ordering::SeqCst);
                    c.barrier();
                    // After the barrier every increment must be visible.
                    assert_eq!(flag.load(Ordering::SeqCst), 4);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
