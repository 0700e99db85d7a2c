//! Fault-injection plans for the training engines.
//!
//! The plan type itself lives in `scidl-cluster` (the simulator consumes
//! it too); this module re-exports it alongside convenience constructors
//! for the thread-engine scenarios the tests and examples use. See
//! [`crate::thread_engine::ThreadEngineConfig::faults`] and
//! `scidl_cluster::SimConfig::faults` for the injection points.

pub use scidl_cluster::faults::{
    CorruptSwap, FaultPlan, GroupCrash, MessageDelay, NodeCrash, PsCrash, Recovery, SlowWorker,
    Straggler, WorkerCrash,
};

/// A plan that kills `group` at `iteration` and never repairs it — the
/// seed engine's `fail_group_at` behaviour (Sec. VIII-A baseline).
pub fn kill_group(group: usize, iteration: usize) -> FaultPlan {
    FaultPlan::none().with_group_crash(group, iteration)
}

/// A plan that kills `group` at `iteration` and brings it back after
/// `mttr_iters` iterations' worth of wall-clock time (thread engine) or
/// `mttr_secs` simulated seconds (cluster sim).
pub fn kill_and_recover_group(
    group: usize,
    iteration: usize,
    mttr_iters: u64,
    mttr_secs: f64,
) -> FaultPlan {
    FaultPlan::none()
        .with_group_crash(group, iteration)
        .with_recovery(mttr_iters, mttr_secs)
}

/// A plan that kills rank `rank` of `group` at `iteration` and never
/// repairs it. In the thread engine the group's survivors hit the dead
/// ring neighbour mid-bucket (overlapped or not) and abort with a
/// `CommError` (Sec. VIII-A: a synchronous group dies with its first
/// node).
pub fn kill_node(group: usize, rank: usize, iteration: usize) -> FaultPlan {
    FaultPlan::none().with_node_crash(group, rank, iteration)
}

/// A plan that crashes PS shard `shard` after it has served
/// `after_requests` requests; the supervisor (thread engine) or the
/// repair model (sim, `repair_secs`) brings it back.
pub fn kill_ps_shard(shard: usize, after_requests: u64, repair_secs: f64) -> FaultPlan {
    FaultPlan::none().with_ps_crash(shard, after_requests, repair_secs)
}

/// A plan that kills serving worker `worker` mid-batch once it has
/// dispatched `after_batches` batches. The threaded server's supervisor
/// re-queues the in-flight requests and respawns the slot; the serving
/// simulator charges `respawn_secs` of downtime.
pub fn crash_worker(worker: usize, after_batches: u64, respawn_secs: f64) -> FaultPlan {
    FaultPlan::none().with_worker_crash(worker, after_batches, respawn_secs)
}

/// The canonical serving-chaos scenario the acceptance criterion and the
/// chaos smoke run: one worker crash, one straggling worker and one
/// corrupt hot-swap, all in a single plan that drives the threaded
/// server and the virtual-time serving simulator identically.
pub fn serving_chaos() -> FaultPlan {
    FaultPlan::none()
        .with_worker_crash(0, 3, 0.05)
        .with_slow_worker(1, 2, 6, 3.0)
        .with_corrupt_swap(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_helpers_build_the_expected_plans() {
        let p = crash_worker(1, 4, 0.25);
        assert_eq!(p.worker_crash_for(1).unwrap().after_batches, 4);
        assert!(p.has_serving_faults());

        let p = serving_chaos();
        assert!(p.worker_crash_for(0).is_some());
        assert!(p.slow_worker_factor(1, 3) > 1.0);
        assert!(p.swap_is_corrupt(0) && !p.swap_is_corrupt(1));
    }

    #[test]
    fn helpers_build_the_expected_plans() {
        let p = kill_group(1, 3);
        assert_eq!(p.group_crash_at(1), Some(3));
        assert!(p.recovery.is_none());

        let p = kill_and_recover_group(0, 2, 4, 9.0);
        assert_eq!(p.group_crash_at(0), Some(2));
        assert_eq!(p.recovery.unwrap().mttr_iters, 4);

        let p = kill_ps_shard(2, 50, 1.5);
        assert_eq!(p.ps_crash_for_shard(2).unwrap().after_requests, 50);
        assert!(p.group_crash_at(0).is_none());
    }
}
