//! Ablations of the paper's design choices:
//!
//! * **Per-layer parameter servers** (Sec. III-E(c), Fig. 4): a single PS
//!   saturates as group count grows; sharding the model over per-layer
//!   servers removes the bottleneck.
//! * **Momentum under asynchrony** (Sec. II-B2a, ref. [31]): more groups
//!   inject implicit momentum, so the optimal explicit momentum falls.
//! * **Resilience** (Sec. VIII-A): one node failure kills a synchronous
//!   run; a hybrid run loses only the affected group.

use super::scaling::{weak_scaling, ScalingOptions};
use crate::sim_engine::{SimEngine, SimEngineConfig, SolverKind};
use crate::workloads::hep_workload;
use scidl_cluster::sim::{ClusterSim, SimConfig, Workload};
use scidl_cluster::JitterModel;
use scidl_data::{HepConfig, HepDataset};
use scidl_tensor::TensorRng;

/// One row of the PS-sharding ablation.
#[derive(Clone, Debug)]
pub struct PsAblationRow {
    /// Compute groups.
    pub groups: usize,
    /// Parameter servers used.
    pub num_ps: usize,
    /// Achieved throughput, images/second.
    pub images_per_sec: f64,
}

/// Sweeps group counts with a single PS vs a per-layer PS bank.
pub fn ps_ablation(
    workload: &Workload,
    nodes: usize,
    group_counts: &[usize],
    batch_per_group: usize,
    iterations: usize,
    seed: u64,
) -> Vec<PsAblationRow> {
    let mut rows = Vec::new();
    for &groups in group_counts {
        for num_ps in [1usize, 0] {
            let mut cfg = SimConfig::new(workload.clone(), nodes, groups, batch_per_group);
            cfg.iterations = iterations;
            cfg.num_ps = num_ps; // 0 → per-layer bank
            cfg.seed = seed ^ groups as u64;
            cfg.jitter = JitterModel::none();
            let r = ClusterSim::new(cfg.clone()).run();
            rows.push(PsAblationRow {
                groups,
                num_ps: if num_ps == 0 {
                    cfg.workload.layers.len().clamp(1, 16)
                } else {
                    1
                },
                images_per_sec: r.images_per_sec(),
            });
        }
    }
    rows
}

/// One row of the momentum–asynchrony grid.
#[derive(Clone, Debug)]
pub struct MomentumRow {
    /// Compute groups.
    pub groups: usize,
    /// Explicit SGD momentum.
    pub momentum: f32,
    /// Best smoothed training loss achieved.
    pub best_loss: f32,
}

/// Grid of (groups × momentum) training runs on the scaled-down HEP
/// problem, reporting the best smoothed loss each achieves in a fixed
/// update budget — the paper tunes momentum over {0.0, 0.4, 0.7} for
/// hybrid runs and finds lower explicit momentum compensates asynchrony.
pub fn momentum_ablation(
    group_counts: &[usize],
    momenta: &[f32],
    updates: usize,
    total_batch: usize,
    events: usize,
    seed: u64,
) -> Vec<MomentumRow> {
    let ds = HepDataset::generate(HepConfig::small(), events, seed);
    let timing = hep_workload();
    let mut rows = Vec::new();
    for &groups in group_counts {
        for &momentum in momenta {
            let mut cfg =
                SimEngineConfig::fig8(64.max(groups), groups, total_batch, timing.clone());
            cfg.iterations = updates / groups;
            cfg.solver = SolverKind::Sgd { momentum };
            cfg.lr = 2.5e-2;
            cfg.seed = seed ^ 0x40;
            let mut rng = TensorRng::new(seed ^ 0x31415);
            let mut model = scidl_nn::arch::hep_small(&mut rng);
            let r = SimEngine::run(&cfg, &mut model, &ds);
            rows.push(MomentumRow {
                groups,
                momentum,
                best_loss: r.curve.best_smoothed(6).unwrap_or(f32::INFINITY),
            });
        }
    }
    rows
}

/// One row of the architecture-choice ablation.
#[derive(Clone, Debug)]
pub struct ArchRow {
    /// Design label.
    pub label: &'static str,
    /// Scalar parameter count.
    pub params: u64,
    /// Model size in MiB (what every all-reduce and PS exchange moves).
    pub model_mib: f64,
    /// All-reduce seconds at 1024 nodes.
    pub allreduce_secs: f64,
    /// Weak-scaling speedup at 1024 nodes (batch 8/node, hybrid-4).
    /// Note: speedup flatters the dense head because its *single-node*
    /// baseline is crippled by the 1.5 s local solver pass; compare
    /// `images_per_sec_1024` for the absolute story.
    pub weak_speedup_1024: f64,
    /// Absolute throughput at 1024 nodes (images/second).
    pub images_per_sec_1024: f64,
}

/// [`arch_ablation`]'s two HEP heads as workloads: the published one
/// ([`hep_workload`]) and a flattened dense head on the same conv stack.
pub fn arch_workloads() -> [(&'static str, Workload); 2] {
    let (hep, input) = (hep_workload(), scidl_nn::arch::HEP_INPUT);
    let dense = crate::workloads::workload_for_network(
        "hep-dense",
        scidl_nn::arch::hep_dense_variant_spec().walk(input),
        input,
        hep.io_bw,
        hep.solver_flops_per_param,
        hep.solver_bytes_per_param,
        hep.solver_bw,
    );
    [
        ("paper design (GAP + 128->2 FC)", hep),
        ("dense head (flatten -> 4096)", dense),
    ]
}

/// The paper's design rule quantified (Sec. I: "not use layers with
/// large dense weights"): [`arch_workloads`]' two heads weak-scaled.
pub fn arch_ablation(iterations: usize, seed: u64) -> Vec<ArchRow> {
    use scidl_cluster::AriesModel;

    let net = AriesModel::default();
    let mut rows = Vec::new();
    for (label, workload) in arch_workloads() {
        let weak = weak_scaling(
            &workload,
            &[1024],
            &[4],
            8,
            iterations,
            seed,
            &ScalingOptions::default(),
        );
        rows.push(ArchRow {
            label,
            params: workload.params,
            model_mib: workload.model_bytes as f64 / (1024.0 * 1024.0),
            allreduce_secs: net.allreduce_time(1024, workload.model_bytes),
            weak_speedup_1024: weak[0].speedup,
            images_per_sec_1024: weak[0].images_per_sec,
        });
    }
    rows
}

/// Result of the failure-resilience experiment.
#[derive(Clone, Debug)]
pub struct ResilienceResult {
    /// Did the synchronous run die?
    pub sync_failed: bool,
    /// Iterations the synchronous run completed before dying.
    pub sync_iterations_done: usize,
    /// Groups the hybrid run (no recovery) finished with.
    pub hybrid_live_groups: usize,
    /// Total iterations hybrid groups completed despite the failure
    /// (no recovery — the paper's baseline observation).
    pub hybrid_iterations_done: usize,
    /// Total iterations with the recovery policy enabled: crashed groups
    /// rejoin from the PS bank after the MTTR.
    pub recovery_iterations_done: usize,
    /// Of those, iterations contributed *after* a recovery.
    pub recovered_iterations: usize,
    /// Groups alive at the end of the recovery-enabled run.
    pub recovery_live_groups: usize,
}

/// Injects an aggressive failure rate and compares three runs
/// (Sec. VIII-A): a synchronous run (one failure kills everything), a
/// hybrid run (only the affected group is lost), and a hybrid run with
/// the recovery policy (the lost group rejoins from the PS bank).
pub fn resilience(workload: &Workload, nodes: usize, groups: usize, seed: u64) -> ResilienceResult {
    let deadly = JitterModel {
        fail_rate_per_node_hour: 100.0,
        ..JitterModel::none()
    };
    let iterations = 400;

    let mut sync_cfg = SimConfig::new(workload.clone(), nodes, 1, 8 * nodes);
    sync_cfg.jitter = deadly.clone();
    sync_cfg.iterations = iterations;
    sync_cfg.seed = seed;
    let sync = ClusterSim::new(sync_cfg).run();

    let mut hyb_cfg = SimConfig::new(workload.clone(), nodes, groups, 8 * nodes / groups);
    hyb_cfg.jitter = deadly;
    hyb_cfg.iterations = iterations;
    hyb_cfg.seed = seed;
    let hyb = ClusterSim::new(hyb_cfg.clone()).run();

    // Same scenario, same seed, plus a recovery policy: repair takes
    // roughly ten mean iterations of wall-clock.
    let mut rec_cfg = hyb_cfg;
    let est_iter = rec_cfg.workload.node_iteration_time(&rec_cfg.knl, 8);
    rec_cfg.faults = scidl_cluster::FaultPlan::none().with_recovery(10, 10.0 * est_iter);
    let rec = ClusterSim::new(rec_cfg).run();

    ResilienceResult {
        sync_failed: sync.failure_at.is_some() && sync.live_groups == 0,
        sync_iterations_done: sync.iter_times[0].len(),
        hybrid_live_groups: hyb.live_groups,
        hybrid_iterations_done: hyb.iter_times.iter().map(|v| v.len()).sum(),
        recovery_iterations_done: rec.iter_times.iter().map(|v| v.len()).sum(),
        recovered_iterations: rec.recovered_iterations,
        recovery_live_groups: rec.live_groups,
    }
}

/// One row of the topology-placement ablation (Fig. 3).
#[derive(Clone, Debug)]
pub struct PlacementRow {
    /// Placement label.
    pub label: &'static str,
    /// Electrical groups the compute group spans.
    pub groups_spanned: usize,
    /// Flat-ring all-reduce seconds for the model.
    pub allreduce_secs: f64,
    /// Hierarchical (intra-group ring + inter-group tree) all-reduce
    /// seconds on the same placement.
    pub hierarchical_secs: f64,
}

/// Compares the ideal contiguous placement of Fig. 3 against a
/// topology-oblivious scattered placement for a compute group of
/// `nodes` nodes on a `machine_nodes`-node machine, under both the flat
/// placed ring and the hierarchical two-level collective.
pub fn placement_ablation(
    nodes: usize,
    machine_nodes: usize,
    model_bytes: u64,
    seed: u64,
) -> Vec<PlacementRow> {
    use scidl_cluster::topology::{
        allreduce_time_placed, hierarchical_allreduce_time, Dragonfly, Placement,
    };
    let fly = Dragonfly::default();
    let net = scidl_cluster::AriesModel::default();
    let contiguous = Placement::contiguous(nodes, &fly);
    let scattered = Placement::scattered(nodes, machine_nodes, &fly, seed);
    [
        ("contiguous (Fig. 3)", contiguous),
        ("scattered", scattered),
    ]
    .into_iter()
    .map(|(label, p)| PlacementRow {
        label,
        groups_spanned: p.groups_spanned(),
        allreduce_secs: allreduce_time_placed(&net, &fly, &p, model_bytes),
        hierarchical_secs: hierarchical_allreduce_time(&net, &fly, &p, model_bytes),
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_ps_beats_single_ps_at_high_group_counts() {
        let rows = ps_ablation(&hep_workload(), 256, &[16], 256, 8, 3);
        let single = rows.iter().find(|r| r.num_ps == 1).unwrap();
        let sharded = rows.iter().find(|r| r.num_ps > 1).unwrap();
        assert!(
            sharded.images_per_sec >= single.images_per_sec,
            "sharded {} vs single {}",
            sharded.images_per_sec,
            single.images_per_sec
        );
    }

    #[test]
    fn momentum_grid_produces_finite_losses() {
        let rows = momentum_ablation(&[1, 4], &[0.0, 0.7], 12, 32, 128, 5);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.best_loss.is_finite()));
    }

    #[test]
    fn resilience_matches_paper_story() {
        let r = resilience(&hep_workload(), 64, 4, 9);
        assert!(
            r.sync_failed,
            "sync run should die under heavy failure rate"
        );
        assert_eq!(
            r.hybrid_live_groups, 3,
            "hybrid should lose exactly one group"
        );
        assert!(r.hybrid_iterations_done > r.sync_iterations_done);
        // Recovery recoups the crashed group's remaining iterations.
        assert!(
            r.recovery_iterations_done > r.hybrid_iterations_done,
            "recovery {} should beat no-recovery {}",
            r.recovery_iterations_done,
            r.hybrid_iterations_done
        );
        assert!(r.recovered_iterations > 0);
        assert_eq!(
            r.recovery_iterations_done - r.hybrid_iterations_done,
            r.recovered_iterations,
            "the gain is exactly the recovered iterations"
        );
    }

    #[test]
    fn dense_head_pays_in_model_size_and_scaling() {
        let rows = arch_ablation(6, 3);
        let paper = &rows[0];
        let dense = &rows[1];
        assert!(
            dense.params > 100 * paper.params,
            "dense head should dwarf the model"
        );
        assert!(dense.allreduce_secs > 10.0 * paper.allreduce_secs);
        assert!(
            dense.images_per_sec_1024 < 0.5 * paper.images_per_sec_1024,
            "dense head should cost real throughput: {} vs {}",
            dense.images_per_sec_1024,
            paper.images_per_sec_1024
        );
    }

    #[test]
    fn placement_ablation_prefers_contiguous() {
        let rows = placement_ablation(1024, 9688, 2_411_724, 3);
        let good = &rows[0];
        let bad = &rows[1];
        assert!(good.groups_spanned < bad.groups_spanned);
        assert!(good.allreduce_secs < bad.allreduce_secs);
        // The hierarchical collective never loses to the flat ring, and
        // it claws back most of the scattered-placement penalty.
        for r in &rows {
            assert!(
                r.hierarchical_secs <= r.allreduce_secs + 1e-15,
                "{}",
                r.label
            );
        }
        assert!(
            bad.hierarchical_secs < bad.allreduce_secs,
            "hierarchy should strictly win on the multi-group scattered placement"
        );
    }
}
