//! Fault-injection plans for the training engines.
//!
//! The plan type itself lives in `scidl-cluster` (the simulator consumes
//! it too); this module re-exports it alongside the canonical serving-chaos
//! scenario. Build training scenarios with the `FaultPlan::none().with_…`
//! builders. See
//! [`crate::thread_engine::ThreadEngineConfig::faults`] and
//! `scidl_cluster::SimConfig::faults` for the injection points.

pub use scidl_cluster::faults::{
    CorruptSwap, FaultPlan, GroupCrash, MessageDelay, NodeCrash, PsCrash, Recovery, SlowWorker,
    Straggler, WorkerCrash,
};

/// The canonical serving-chaos scenario the acceptance criterion and the
/// chaos smoke run: a crash on the fourth dispatched batch, one straggling
/// worker and one corrupt hot-swap, all in a single plan that drives the
/// threaded server and the virtual-time serving simulator identically.
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
        let p = serving_chaos();
        assert_eq!(p.worker_crashes.len(), 1);
        assert!(p.slow_worker_factor(1, 3) > 1.0);
        assert!(p.swap_is_corrupt(0) && !p.swap_is_corrupt(1));
    }
}
