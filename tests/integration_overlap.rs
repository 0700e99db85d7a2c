//! Overlap-mode integration: the bucketed backward-overlapped all-reduce
//! (`overlap_comm`) wired through both engines.
//!
//! * Thread and sim engines must tell the same training story with the
//!   knob on or off — overlap changes *when* communication happens, never
//!   what is computed.
//! * The sim engine charges the overlap cost model: identical parameters,
//!   strictly less simulated wall-clock.
//! * A dead ring neighbour mid-run surfaces through the `FaultPlan` as a
//!   detected communication error that stops the group — not a panic and
//!   not a hang.

use scidl_core::faults::FaultPlan;
use scidl_core::sim_engine::{SimEngine, SimEngineConfig, SolverKind};
use scidl_core::thread_engine::{ThreadEngine, ThreadEngineConfig};
use scidl_core::workloads::hep_workload;
use scidl_data::{HepConfig, HepDataset};
use scidl_tensor::TensorRng;
use std::sync::Arc;

/// Synchronous single-node training is plain SGD in both engines, so all
/// four seeded loss trajectories — thread/sim × overlap on/off — must
/// coincide: the engine pairs to float tolerance, the overlap pairs
/// exactly.
#[test]
fn thread_and_sim_loss_trajectories_agree_with_overlap_on_and_off() {
    let seed = 0xB7;
    let (batch, iterations, lr, momentum) = (8usize, 6usize, 1e-3f32, 0.9f32);
    let ds = Arc::new(HepDataset::generate(HepConfig::small(), 64, seed));

    let thread_losses = |overlap: bool| -> Vec<f32> {
        let mut cfg = ThreadEngineConfig::new(1, 1, batch);
        cfg.iterations = iterations;
        cfg.lr = lr;
        cfg.momentum = momentum;
        cfg.seed = seed;
        cfg.overlap_comm = overlap;
        cfg.bucket_bytes = 2048; // several buckets per step
        let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
        run.curve.points.iter().map(|p| p.1).collect()
    };
    let sim_losses = |overlap: bool| -> Vec<f32> {
        let mut cfg = SimEngineConfig::fig8(1, 1, batch, hep_workload());
        cfg.iterations = iterations;
        cfg.lr = lr;
        cfg.solver = SolverKind::Sgd { momentum };
        cfg.seed = seed;
        cfg.overlap_comm = overlap;
        let mut rng = TensorRng::new(seed);
        let mut model = scidl_nn::arch::hep_small(&mut rng);
        let run = SimEngine::run(&cfg, &mut model, &ds);
        run.curve.points.iter().map(|p| p.1).collect()
    };

    let t_off = thread_losses(false);
    let t_on = thread_losses(true);
    let s_off = sim_losses(false);
    let s_on = sim_losses(true);
    assert_eq!(t_off, t_on, "thread overlap must not change the math");
    assert_eq!(s_off, s_on, "sim overlap must not change the math");
    assert_eq!(t_on.len(), s_on.len());
    for (i, (a, b)) in t_on.iter().zip(&s_on).enumerate() {
        assert!(
            (a - b).abs() < 1e-5,
            "iteration {i}: thread loss {a} vs sim loss {b}"
        );
    }
}

/// The sim engine's overlap knob is pure timing: a multi-node seeded run
/// keeps bit-identical parameters and loss points while the simulated
/// clock advances strictly less.
#[test]
fn sim_overlap_keeps_parameters_and_shrinks_simulated_time() {
    let ds = HepDataset::generate(HepConfig::small(), 96, 19);
    let run = |overlap: bool| {
        let mut cfg = SimEngineConfig::fig8(32, 1, 32, hep_workload());
        cfg.iterations = 10;
        cfg.overlap_comm = overlap;
        let mut rng = TensorRng::new(19);
        let mut model = scidl_nn::arch::hep_small(&mut rng);
        SimEngine::run(&cfg, &mut model, &ds)
    };
    let plain = run(false);
    let overlapped = run(true);
    assert_eq!(plain.final_params, overlapped.final_params);
    assert_eq!(plain.curve.points.len(), overlapped.curve.points.len());
    for ((_, a), (_, b)) in plain.curve.points.iter().zip(&overlapped.curve.points) {
        assert_eq!(a, b, "loss values must be untouched by overlap");
    }
    assert!(
        overlapped.total_time < plain.total_time,
        "overlap must hide communication: {} vs {}",
        overlapped.total_time,
        plain.total_time
    );
}

/// A single rank dying mid-run (`FaultPlan::with_node_crash`) leaves its
/// ring neighbours sending into dead channels in the middle of a bucket
/// schedule. The comm thread surfaces that as a detected error, the
/// group's survivors stop together before any tree collective could
/// deadlock, and the other group finishes the run — no panic, no hang.
#[test]
fn dead_ring_neighbour_mid_bucket_stops_the_group_via_comm_error() {
    let ds = Arc::new(HepDataset::generate(HepConfig::small(), 64, 31));
    let mut cfg = ThreadEngineConfig::new(2, 3, 6);
    cfg.iterations = 10;
    cfg.overlap_comm = true;
    cfg.bucket_bytes = 512; // many buckets: the death lands mid-schedule
    cfg.faults = FaultPlan::none().with_node_crash(1, 2, 3);
    let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
    // Group 1 contributes only its 3 pre-crash updates; group 0 all 10.
    assert_eq!(run.updates, 10 + 3);
    assert!(run.final_params.iter().all(|p| p.is_finite()));
    // The healthy group's updates kept flowing after the crash.
    assert_eq!(run.curve.len(), 13);
}

/// Recovered-crash machinery and overlap compose: a whole-group crash
/// with recovery still works when gradients ride the bucketed ring.
#[test]
fn group_recovery_composes_with_overlap_mode() {
    let ds = Arc::new(HepDataset::generate(HepConfig::small(), 64, 37));
    let mut cfg = ThreadEngineConfig::new(2, 2, 4);
    cfg.iterations = 8;
    cfg.overlap_comm = true;
    cfg.bucket_bytes = 1024;
    cfg.faults = FaultPlan::none()
        .with_group_crash(0, 3)
        .with_recovery(1, 0.0);
    let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
    assert_eq!(
        run.updates,
        2 * 8,
        "the crashed group must rejoin and finish"
    );
    assert_eq!(run.recovered_updates, 5);
    assert!(run.final_params.iter().all(|p| p.is_finite()));
}
