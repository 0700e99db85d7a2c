//! Declarative fault injection shared by both backends.
//!
//! Sec. VIII-A of the paper studies what failures do to each
//! configuration: a synchronous run dies with its first node, a hybrid
//! run only loses the affected group. A [`FaultPlan`] turns that study
//! into a first-class input: it describes *scheduled* group and node
//! crashes, PS crashes, stragglers and message delays, plus an optional
//! recovery policy, and both the thread engine (`scidl-core::thread_engine`) and
//! the discrete-event simulator ([`crate::sim`], and so the real-gradient
//! `SimEngine` that trains on its clock) accept one and inject the same
//! scenario at their own timescales; what a crash means for a group is
//! decided once, by [`crate::lifecycle::GroupLifecycle`].
//!
//! Quantities come in engine-appropriate units: crash points and MTTR
//! are given both in iterations (thread engine) and seconds (simulator);
//! each backend reads the field it understands.

/// A compute group dying at a given iteration (its node is lost).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroupCrash {
    /// Which group dies.
    pub group: usize,
    /// Iteration at which it dies (before doing the iteration's work).
    pub iteration: usize,
}

/// A single rank (node) of a compute group dying at a given iteration;
/// its group is lost for good, recovery or not (Sec. VIII-A's
/// "synchronous run dies with its first node"). The thread engine
/// observes it rather than assuming it: the rest of the group runs into
/// dead ring channels and stops on a `CommError`. The simulator's clock
/// stops the group at that iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeCrash {
    /// Which group loses a node.
    pub group: usize,
    /// Rank within the group that dies.
    pub rank: usize,
    /// Iteration at which it dies (before doing the iteration's work).
    pub iteration: usize,
}

/// A parameter-server shard dying after serving some requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PsCrash {
    /// Which PS shard (layer block) dies.
    pub shard: usize,
    /// The shard dies after this many successfully served requests.
    pub after_requests: u64,
    /// Simulator: wall-clock seconds to restart the shard from its
    /// snapshot. The thread engine's supervisor respawns threads in
    /// microseconds, so it ignores this.
    pub repair_secs: f64,
}

/// A group running slow for a window of iterations (degraded node,
/// OS jitter storm, thermal throttling).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Straggler {
    /// Which group is slow.
    pub group: usize,
    /// First affected iteration (inclusive).
    pub from_iter: usize,
    /// Last affected iteration (exclusive).
    pub to_iter: usize,
    /// Compute-time multiplier (`2.0` = twice as slow). Must be ≥ 1.
    pub factor: f64,
}

/// Extra latency injected in front of a group's PS exchange at one
/// iteration (congested link, adaptive-routing detour).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MessageDelay {
    /// Which group's exchange is delayed.
    pub group: usize,
    /// Iteration whose exchange is delayed.
    pub iteration: usize,
    /// Added latency in seconds (the thread engine sleeps this long,
    /// so keep it small — e.g. `0.002` — in thread-engine scenarios).
    pub secs: f64,
}

/// A serving worker dying mid-batch: whichever slot dispatches the
/// scheduled batch of its replica — counted by one per-replica schedule
/// both the threaded server and the serving simulator consult — so the
/// slot is an output (the `worker_respawn` span names it). The threaded
/// server's supervisor catches the panic, re-queues the worker's in-flight
/// requests and respawns the slot with exponential backoff; the
/// virtual-time serving simulator charges `respawn_secs` before the slot
/// takes batches again.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkerCrash {
    /// A worker slot of the replica the crash strikes (fleet plans index
    /// workers globally: replica `r` of `w` slots owns `[r·w, (r+1)·w)`).
    pub worker: usize,
    /// Batches the replica dispatches, crashed ones included, before the
    /// one this crash strikes (or a later one, if another crash took it).
    pub after_batches: u64,
    /// Simulator: virtual seconds before the slot serves again. The
    /// threaded supervisor respawns on its own backoff schedule, so it
    /// ignores this.
    pub respawn_secs: f64,
}

/// A serving worker running slow for a window of its batches (thermal
/// throttling, a noisy neighbour): the serving analogue of
/// [`Straggler`]. The window counts the batches the slot has served,
/// across respawns and heartbeat replacements; a dispatch that crashed
/// served nothing and does not count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlowWorker {
    /// Which serving worker slot is slow.
    pub worker: usize,
    /// First affected served batch of that slot (inclusive).
    pub from_batch: u64,
    /// Last affected batch (exclusive).
    pub to_batch: u64,
    /// Compute-time multiplier (`3.0` = three times as slow). Must be ≥ 1.
    pub factor: f64,
}

/// A hot-swap attempt delivering a corrupt checkpoint (bit rot, a torn
/// write from a crashed trainer, NaN-poisoned parameters). The registry
/// must reject it before publication; enough consecutive corrupt swaps
/// open the circuit breaker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorruptSwap {
    /// Index of the corrupt swap attempt (0 = the first swap of the run).
    pub swap: u64,
}

/// Recovery policy for crashed groups. Without one, a dead group stays
/// dead — the seed behaviour and the paper's baseline observation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recovery {
    /// Thread engine: iterations a crashed group sits out before it
    /// re-fetches the model from the PS bank and resumes.
    pub mttr_iters: u64,
    /// Simulator: seconds between the crash and the group re-entering
    /// the event queue.
    pub mttr_secs: f64,
}

/// A complete fault-injection scenario.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Scheduled group deaths.
    pub group_crashes: Vec<GroupCrash>,
    /// Scheduled single-rank deaths (dead ring neighbour scenarios).
    pub node_crashes: Vec<NodeCrash>,
    /// Scheduled PS-shard deaths.
    pub ps_crashes: Vec<PsCrash>,
    /// Slow-group windows.
    pub stragglers: Vec<Straggler>,
    /// Per-exchange injected latencies.
    pub message_delays: Vec<MessageDelay>,
    /// Scheduled serving-worker deaths.
    pub worker_crashes: Vec<WorkerCrash>,
    /// Slow serving-worker windows.
    pub slow_workers: Vec<SlowWorker>,
    /// Hot-swap attempts that deliver a corrupt checkpoint.
    pub corrupt_swaps: Vec<CorruptSwap>,
    /// If set, crashed groups come back after the MTTR.
    pub recovery: Option<Recovery>,
}

impl FaultPlan {
    /// A plan injecting nothing — the fault-free baseline.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a group crash (builder style).
    pub fn with_group_crash(mut self, group: usize, iteration: usize) -> Self {
        self.group_crashes.push(GroupCrash { group, iteration });
        self
    }

    /// Adds a single-rank crash (builder style).
    pub fn with_node_crash(mut self, group: usize, rank: usize, iteration: usize) -> Self {
        self.node_crashes.push(NodeCrash {
            group,
            rank,
            iteration,
        });
        self
    }

    /// Adds a PS-shard crash (builder style).
    pub fn with_ps_crash(mut self, shard: usize, after_requests: u64, repair_secs: f64) -> Self {
        self.ps_crashes.push(PsCrash {
            shard,
            after_requests,
            repair_secs,
        });
        self
    }

    /// Adds a straggler window (builder style).
    pub fn with_straggler(
        mut self,
        group: usize,
        from_iter: usize,
        to_iter: usize,
        factor: f64,
    ) -> Self {
        assert!(factor >= 1.0, "a straggler cannot be faster than healthy");
        assert!(from_iter <= to_iter);
        self.stragglers.push(Straggler {
            group,
            from_iter,
            to_iter,
            factor,
        });
        self
    }

    /// Adds a one-off message delay (builder style).
    pub fn with_message_delay(mut self, group: usize, iteration: usize, secs: f64) -> Self {
        assert!(secs >= 0.0);
        self.message_delays.push(MessageDelay {
            group,
            iteration,
            secs,
        });
        self
    }

    /// Adds a serving-worker crash (builder style).
    pub fn with_worker_crash(
        mut self,
        worker: usize,
        after_batches: u64,
        respawn_secs: f64,
    ) -> Self {
        assert!(respawn_secs >= 0.0);
        self.worker_crashes.push(WorkerCrash {
            worker,
            after_batches,
            respawn_secs,
        });
        self
    }

    /// Adds a slow serving-worker window (builder style).
    pub fn with_slow_worker(
        mut self,
        worker: usize,
        from_batch: u64,
        to_batch: u64,
        factor: f64,
    ) -> Self {
        assert!(factor >= 1.0, "a slow worker cannot be faster than healthy");
        assert!(from_batch <= to_batch);
        self.slow_workers.push(SlowWorker {
            worker,
            from_batch,
            to_batch,
            factor,
        });
        self
    }

    /// Marks the `swap`-th hot-swap attempt as delivering a corrupt
    /// checkpoint (builder style).
    pub fn with_corrupt_swap(mut self, swap: u64) -> Self {
        self.corrupt_swaps.push(CorruptSwap { swap });
        self
    }

    /// Enables group recovery with the given mean-time-to-repair.
    pub fn with_recovery(mut self, mttr_iters: u64, mttr_secs: f64) -> Self {
        self.recovery = Some(Recovery {
            mttr_iters,
            mttr_secs,
        });
        self
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.group_crashes.is_empty()
            && self.node_crashes.is_empty()
            && self.ps_crashes.is_empty()
            && self.stragglers.is_empty()
            && self.message_delays.is_empty()
            && self.worker_crashes.is_empty()
            && self.slow_workers.is_empty()
            && self.corrupt_swaps.is_empty()
    }

    /// Iteration at which `group` is scheduled to crash, if any. With
    /// several crashes scheduled for one group the earliest wins.
    pub fn group_crash_at(&self, group: usize) -> Option<usize> {
        self.group_crashes
            .iter()
            .filter(|c| c.group == group)
            .map(|c| c.iteration)
            .min()
    }

    /// Combined slow-down multiplier for `group` at `iteration`
    /// (overlapping windows multiply; `1.0` = healthy).
    pub fn straggler_factor(&self, group: usize, iteration: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.group == group && (s.from_iter..s.to_iter).contains(&iteration))
            .map(|s| s.factor)
            .product()
    }

    /// Total injected latency for `group`'s exchange at `iteration`.
    pub fn message_delay_secs(&self, group: usize, iteration: usize) -> f64 {
        self.message_delays
            .iter()
            .filter(|d| d.group == group && d.iteration == iteration)
            .map(|d| d.secs)
            .sum()
    }

    /// Combined compute slow-down for worker `worker`'s `batch`-th batch
    /// (overlapping windows multiply; `1.0` = healthy).
    pub fn slow_worker_factor(&self, worker: usize, batch: u64) -> f64 {
        self.slow_workers
            .iter()
            .filter(|s| s.worker == worker && (s.from_batch..s.to_batch).contains(&batch))
            .map(|s| s.factor)
            .product()
    }

    /// Whether the `swap`-th hot-swap attempt delivers a corrupt
    /// checkpoint.
    pub fn swap_is_corrupt(&self, swap: u64) -> bool {
        self.corrupt_swaps.iter().any(|c| c.swap == swap)
    }

    /// Slices a fleet-wide serving plan down to one replica's view.
    ///
    /// Fleet plans address serving workers by *global* index: replica
    /// `r` owns global workers `r*workers_per_replica ..
    /// (r+1)*workers_per_replica`. The returned plan re-indexes the
    /// crashes and slow windows that land in that range to the replica's
    /// *local* worker slots, so a per-replica `Server` (or simulated
    /// replica) consumes exactly its share of the chaos. Registry-level
    /// events (`corrupt_swaps`) and training events stay with the fleet
    /// plan — they are not per-replica — so they are dropped here.
    pub fn for_replica(&self, replica: usize, workers_per_replica: usize) -> FaultPlan {
        assert!(
            workers_per_replica >= 1,
            "a replica needs at least one worker"
        );
        let lo = replica * workers_per_replica;
        let hi = lo + workers_per_replica;
        let mut p = FaultPlan::none();
        p.worker_crashes = self
            .worker_crashes
            .iter()
            .filter(|c| (lo..hi).contains(&c.worker))
            .map(|c| WorkerCrash {
                worker: c.worker - lo,
                ..*c
            })
            .collect();
        p.slow_workers = self
            .slow_workers
            .iter()
            .filter(|s| (lo..hi).contains(&s.worker))
            .map(|s| SlowWorker {
                worker: s.worker - lo,
                ..*s
            })
            .collect();
        p
    }

    /// The scheduled crash for PS `shard`, if any (earliest wins).
    pub fn ps_crash_for_shard(&self, shard: usize) -> Option<PsCrash> {
        self.ps_crashes
            .iter()
            .filter(|c| c.shard == shard)
            .min_by_key(|c| c.after_requests)
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.group_crash_at(0), None);
        assert_eq!(p.straggler_factor(0, 0), 1.0);
        assert_eq!(p.message_delay_secs(0, 0), 0.0);
        assert!(p.ps_crash_for_shard(0).is_none());
    }

    #[test]
    fn builders_accumulate() {
        let p = FaultPlan::none()
            .with_group_crash(1, 5)
            .with_group_crash(1, 3)
            .with_ps_crash(0, 10, 0.5)
            .with_straggler(2, 4, 8, 3.0)
            .with_message_delay(0, 6, 0.25)
            .with_recovery(2, 30.0);
        assert!(!p.is_empty());
        assert_eq!(p.group_crash_at(1), Some(3), "earliest crash wins");
        assert_eq!(p.group_crash_at(0), None);
        assert_eq!(p.ps_crash_for_shard(0).unwrap().after_requests, 10);
        assert_eq!(p.recovery.unwrap().mttr_iters, 2);
    }

    #[test]
    fn node_crashes_are_per_rank_and_earliest_wins() {
        use crate::lifecycle::{GroupLifecycle, Step};
        let p = FaultPlan::none()
            .with_node_crash(0, 2, 7)
            .with_node_crash(0, 2, 4)
            .with_node_crash(1, 0, 9);
        assert!(!p.is_empty());
        // The first iteration a single rank's lifecycle stops at.
        let lost_at = |g: usize, r: usize| {
            let life = GroupLifecycle::new(&p, g, r..r + 1, true);
            (0..20).find(|&k| life.before(k) == Step::Stop)
        };
        assert_eq!(lost_at(0, 2), Some(4));
        assert_eq!(lost_at(0, 0), None, "other ranks unaffected");
        assert_eq!(lost_at(1, 0), Some(9));
        assert_eq!(lost_at(2, 2), None, "other groups unaffected");
    }

    #[test]
    fn straggler_windows_are_half_open_and_multiply() {
        let p = FaultPlan::none()
            .with_straggler(0, 2, 5, 2.0)
            .with_straggler(0, 4, 6, 1.5);
        assert_eq!(p.straggler_factor(0, 1), 1.0);
        assert_eq!(p.straggler_factor(0, 2), 2.0);
        assert_eq!(p.straggler_factor(0, 4), 3.0, "overlap multiplies");
        assert_eq!(p.straggler_factor(0, 5), 1.5, "to_iter is exclusive");
        assert_eq!(p.straggler_factor(1, 3), 1.0, "other groups unaffected");
    }

    #[test]
    fn serving_faults_accumulate_and_resolve() {
        let p = FaultPlan::none()
            .with_worker_crash(1, 5, 0.2)
            .with_worker_crash(1, 3, 0.1)
            .with_slow_worker(0, 2, 6, 3.0)
            .with_slow_worker(0, 4, 8, 1.5)
            .with_corrupt_swap(0)
            .with_corrupt_swap(2);
        assert!(!p.is_empty());
        assert_eq!(
            p.worker_crashes
                .iter()
                .map(|c| c.after_batches)
                .collect::<Vec<_>>(),
            [5, 3]
        );
        assert_eq!(p.slow_worker_factor(0, 1), 1.0);
        assert_eq!(p.slow_worker_factor(0, 5), 4.5, "overlap multiplies");
        assert_eq!(p.slow_worker_factor(0, 6), 1.5, "to_batch is exclusive");
        assert_eq!(p.slow_worker_factor(1, 3), 1.0, "other workers unaffected");
        assert!(p.swap_is_corrupt(0));
        assert!(!p.swap_is_corrupt(1));
        assert!(p.swap_is_corrupt(2));
    }

    #[test]
    fn for_replica_slices_and_reindexes_serving_faults() {
        let p = FaultPlan::none()
            .with_worker_crash(0, 3, 0.05) // replica 0, local 0
            .with_worker_crash(3, 1, 0.10) // replica 1, local 1
            .with_slow_worker(2, 2, 6, 3.0) // replica 1, local 0
            .with_slow_worker(5, 0, 4, 2.0) // replica 2, local 1
            .with_corrupt_swap(0) // registry-level: stays with the fleet
            .with_group_crash(0, 1); // training event: not per-replica
        let r0 = p.for_replica(0, 2);
        assert_eq!(
            r0.worker_crashes,
            vec![WorkerCrash {
                worker: 0,
                after_batches: 3,
                respawn_secs: 0.05
            }]
        );
        assert!(r0.slow_workers.is_empty());
        assert!(r0.corrupt_swaps.is_empty(), "swap faults are fleet-level");
        assert!(r0.group_crashes.is_empty(), "training faults dropped");
        let r1 = p.for_replica(1, 2);
        assert_eq!(
            r1.worker_crashes,
            vec![WorkerCrash {
                worker: 1,
                after_batches: 1,
                respawn_secs: 0.10
            }]
        );
        assert_eq!(
            r1.slow_workers,
            vec![SlowWorker {
                worker: 0,
                from_batch: 2,
                to_batch: 6,
                factor: 3.0
            }]
        );
        let r2 = p.for_replica(2, 2);
        assert_eq!(r2.slow_workers.len(), 1);
        assert_eq!(r2.slow_workers[0].worker, 1);
        assert!(
            p.for_replica(3, 2).is_empty(),
            "replicas past the plan see nothing"
        );
    }

    #[test]
    fn message_delays_sum_per_iteration() {
        let p = FaultPlan::none()
            .with_message_delay(0, 3, 0.1)
            .with_message_delay(0, 3, 0.2);
        assert!((p.message_delay_secs(0, 3) - 0.3).abs() < 1e-12);
        assert_eq!(p.message_delay_secs(0, 4), 0.0);
    }
}
