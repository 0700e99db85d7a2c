//! Fault injection and recovery on real threads (Sec. VIII-A).
//!
//! The paper observes that "even a single node failure can cause
//! complete failure of synchronous runs; hybrid runs are much more
//! resilient since only one of the compute groups gets affected." This
//! demo goes one step further than the paper: the dead group *comes
//! back*. Three runs of the same scenario:
//!
//! 1. **No recovery** — group 2 dies at iteration 5 and stays dead
//!    (the paper's baseline: its remaining work is lost).
//! 2. **With recovery** — the crashed group sits out its MTTR, re-fetches
//!    the current model from the parameter-server bank and finishes its
//!    budget; the run also writes crash-safe checkpoints as it goes.
//! 3. **PS crash** — a parameter-server thread is killed mid-run; the
//!    supervisor respawns it from its snapshot and training completes.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use scidl_core::checkpoint::Checkpoint;
use scidl_core::faults::FaultPlan;
use scidl_core::thread_engine::{ThreadEngine, ThreadEngineConfig};
use scidl_data::{HepConfig, HepDataset};
use std::sync::Arc;

fn main() {
    let ds = Arc::new(HepDataset::generate(HepConfig::small(), 384, 55));

    let base = {
        let mut cfg = ThreadEngineConfig::new(4, 2, 16);
        cfg.iterations = 25;
        cfg.lr = 3e-3;
        cfg.momentum = 0.6;
        cfg
    };

    // --- 1. group crash, no recovery: the paper's baseline -------------
    println!("hybrid run: 4 groups x 2 nodes; group 2 dies at iteration 5\n");
    let mut cfg = base.clone();
    cfg.faults = FaultPlan::none().with_group_crash(2, 5);
    let baseline = ThreadEngine::run(&cfg, Arc::clone(&ds));
    println!(
        "[no recovery]   updates: {:2} (3 healthy groups x 25 + 5 from the dead group)",
        baseline.updates
    );
    assert_eq!(baseline.updates, 3 * 25 + 5);

    // --- 2. same crash, with recovery + crash-safe checkpoints ---------
    let mut ckpt = std::env::temp_dir();
    ckpt.push("scidl_fault_tolerance_demo.ckpt");
    let mut cfg = base.clone();
    cfg.faults = FaultPlan::none()
        .with_group_crash(2, 5)
        .with_recovery(3, 0.0);
    cfg.checkpoint_every = 5;
    cfg.checkpoint_path = Some(ckpt.clone());
    let recovered = ThreadEngine::run(&cfg, Arc::clone(&ds));
    println!(
        "[with recovery] updates: {:2} ({} of them after the group rejoined from the PS bank)",
        recovered.updates, recovered.recovered_updates
    );
    assert_eq!(recovered.updates, 4 * 25, "every group finishes its budget");
    assert_eq!(recovered.recovered_updates, 25 - 5);
    assert!(
        recovered.updates > baseline.updates,
        "recovery must beat the no-recovery baseline"
    );
    let pts = &recovered.curve.points;
    println!(
        "                loss: {:.4} -> {:.4} across the crash and recovery",
        pts.first().map(|p| p.1).unwrap_or(f32::NAN),
        pts.last().map(|p| p.1).unwrap_or(f32::NAN)
    );

    // The periodic checkpoints are crash-safe (tmp + rename, checksum
    // verified on load): the latest one is always intact.
    let ck = Checkpoint::load(&ckpt).expect("periodic checkpoint unreadable");
    std::fs::remove_file(&ckpt).ok();
    println!(
        "                {} checkpoints written; latest at iteration {} ({} params, checksum ok)",
        recovered.checkpoints_written,
        ck.iteration,
        ck.params.len()
    );

    // --- 3. parameter-server crash: supervisor failover -----------------
    let mut cfg = base;
    cfg.faults = FaultPlan::none().with_ps_crash(0, 12, 0.0);
    let ps_run = ThreadEngine::run(&cfg, ds);
    println!(
        "[PS crash]      updates: {:2} with {} PS failover(s) — no iteration lost",
        ps_run.updates, ps_run.ps_respawns
    );
    assert_eq!(ps_run.updates, 4 * 25);
    assert!(ps_run.ps_respawns >= 1);

    println!("\na synchronous run would have died with the first failed node;");
    println!("here every failure is either tolerated or repaired mid-run.");
}
