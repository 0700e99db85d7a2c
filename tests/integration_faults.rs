//! Cross-crate integration of the fault-injection subsystem: a
//! parameter-server thread is killed in the middle of real multi-group
//! training and the run must complete anyway — the supervisor fails the
//! shard over from its snapshot instead of aborting the process
//! (Sec. VIII-A taken one step past the paper) — and one plan decides the
//! same group fates in the thread engine and on the simulated clock.

use scidl_cluster::{ClusterSim, JitterModel};
use scidl_core::faults::FaultPlan;
use scidl_core::metrics::LossCurve;
use scidl_core::sim_engine::{SimEngine, SimEngineConfig};
use scidl_core::thread_engine::{ThreadEngine, ThreadEngineConfig};
use scidl_core::workloads::hep_workload;
use scidl_data::{HepConfig, HepDataset};
use scidl_tensor::TensorRng;
use std::sync::Arc;

/// Killing a PS shard mid-run no longer takes the process down: every
/// group finishes its budget, the failover is visible in the summary,
/// and the loss curve has the same shape as a fault-free run.
#[test]
fn ps_kill_mid_run_completes_training() {
    let ds = Arc::new(HepDataset::generate(HepConfig::small(), 192, 91));
    let mut cfg = ThreadEngineConfig::new(3, 2, 12);
    cfg.iterations = 8;
    cfg.lr = 3e-3;
    cfg.momentum = 0.5;
    cfg.seed = 0xFA17;

    let clean = ThreadEngine::run(&cfg, Arc::clone(&ds));
    assert_eq!(clean.updates, 3 * 8);
    assert_eq!(clean.ps_respawns, 0);

    // Same run, but shard 1 dies after serving 7 requests.
    cfg.faults = FaultPlan::none().with_ps_crash(1, 7, 0.0);
    let faulted = ThreadEngine::run(&cfg, ds);

    assert_eq!(
        faulted.updates,
        3 * 8,
        "the PS crash must not cost any group any iteration"
    );
    assert!(
        faulted.ps_respawns >= 1,
        "the supervisor should have failed the shard over at least once"
    );
    assert_eq!(faulted.curve.len(), clean.curve.len());

    // Loss-curve shape is preserved: the failover neither spikes nor
    // stalls the curve relative to a fault-free run of the same config.
    let tail_mean = |c: &scidl_core::metrics::LossCurve| {
        let n = c.points.len();
        c.points[n - 6..].iter().map(|p| p.1).sum::<f32>() / 6.0
    };
    let (clean_tail, faulted_tail) = (tail_mean(&clean.curve), tail_mean(&faulted.curve));
    assert!(
        (clean_tail - faulted_tail).abs() < 0.1,
        "failover distorted the loss curve: clean tail {clean_tail}, faulted tail {faulted_tail}"
    );
    assert!(faulted.curve.points.iter().all(|p| p.1.is_finite()));
    for p in &faulted.final_params {
        assert!(p.is_finite());
    }
}

/// A group crash and a PS crash in the same run: recovery and failover
/// compose, and the run still beats the no-recovery update count.
#[test]
fn combined_group_and_ps_faults_compose() {
    let ds = Arc::new(HepDataset::generate(HepConfig::small(), 192, 92));
    let mut cfg = ThreadEngineConfig::new(3, 2, 12);
    cfg.iterations = 8;
    cfg.seed = 0xFA18;
    cfg.faults = FaultPlan::none()
        .with_group_crash(2, 3)
        .with_recovery(2, 0.0)
        .with_ps_crash(0, 9, 0.0);

    let run = ThreadEngine::run(&cfg, ds);
    assert_eq!(run.updates, 3 * 8, "recovery restores the full budget");
    assert_eq!(run.recovered_updates, 8 - 3);
    assert!(run.ps_respawns >= 1);
}

/// One plan, both drivers: a group crash with recovery, a node crash and
/// a PS crash leave the same groups dead and recovered, with the same
/// update count per group, in the thread engine and on the `ClusterSim`
/// clock `SimEngine` trains on — both ask the same group lifecycle.
#[test]
fn one_fault_plan_gives_threads_and_the_clock_the_same_group_fates() {
    let plan = FaultPlan::none()
        .with_group_crash(0, 2)
        .with_recovery(1, 0.05)
        .with_node_crash(1, 1, 3)
        .with_ps_crash(0, 5, 0.01);
    let (groups, ranks, iterations) = (3, 2, 6);
    let ds = Arc::new(HepDataset::generate(HepConfig::small(), 96, 93));

    let mut cfg = ThreadEngineConfig::new(groups, ranks, 6);
    cfg.iterations = iterations;
    cfg.faults = plan.clone();
    let threads = ThreadEngine::run(&cfg, Arc::clone(&ds));

    let mut sim = SimEngineConfig::fig8(groups * ranks, groups, 6 * groups, hep_workload());
    sim.iterations = iterations;
    sim.jitter = JitterModel::none();
    sim.faults = plan;
    let mut model = scidl_nn::arch::hep_small(&mut TensorRng::new(cfg.seed));
    let engine = SimEngine::run(&sim, &mut model, &ds);
    let clock = ClusterSim::new(sim.sim.clone()).run();

    let counts = |curves: &[LossCurve]| curves.iter().map(LossCurve::len).collect::<Vec<_>>();
    assert_eq!(
        counts(&threads.per_group),
        [6, 3, 6],
        "group 1 dies with its node at 3"
    );
    assert_eq!(counts(&engine.per_group), counts(&threads.per_group));
    assert_eq!(
        threads.recovered_updates, 4,
        "group 0 rejoins for iterations 2..6"
    );
    assert_eq!(clock.recovered_iterations, 4);
    assert_eq!(clock.live_groups, 2, "only group 1 stays dead");
    assert!(threads.ps_respawns >= 1 && clock.ps_respawns == 1);
}
