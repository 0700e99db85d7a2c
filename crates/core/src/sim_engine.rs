//! Deterministic simulated-time hybrid training: the paper's
//! *convergence* experiments (Fig. 8) at laptop scale. Losses come from
//! real gradients on a scaled-down problem; *when* each update lands comes
//! from the one training clock, [`ClusterSim`] — the event loop, cost
//! models, jitter, PS bank and [`FaultPlan`](scidl_cluster::FaultPlan)
//! that regenerate Figs. 6–7. The engine holds no clock; it observes the
//! loop with the hybrid architecture's semantics:
//!
//! * a group snapshots the central model when it *starts* an iteration
//!   (a recovered group, at its restart),
//! * when the iteration is *done*, its real gradient against that
//!   snapshot is applied by the per-layer PS bank — other groups may have
//!   advanced the model meanwhile (staleness),
//! * with `groups == 1` this is exact synchronous SGD; a synchronous run
//!   that loses its group stops there. Gossip is not modelled here.

use crate::metrics::{LossCurve, TrainTrace};
use crate::task::hep_gradient;
use scidl_cluster::sim::{ClusterSim, IterBreakdown, Observer, SimConfig, Workload};
use scidl_comm::compress::{Compression, ErrorFeedback};
use scidl_data::{BatchSampler, HepDataset};
use scidl_nn::network::{Model, Network};
pub use scidl_nn::solver::SolverKind;
use scidl_nn::Solver;
use std::ops::{Deref, DerefMut};

/// Configuration of one simulated-time training run: the clock's
/// [`SimConfig`] (its fields read through `Deref`) plus what the clock
/// does not read.
#[derive(Clone, Debug)]
pub struct SimEngineConfig {
    /// The simulated machine and run; `gossip` must stay off.
    pub sim: SimConfig,
    /// Learning rate.
    pub lr: f32,
    /// Solver kind.
    pub solver: SolverKind,
    /// Reduce SGD momentum by the implicit momentum of asynchrony
    /// (Mitliagkas et al. [31], [`SolverKind::for_groups`]).
    pub auto_momentum: bool,
    /// Gradient compression with per-group error feedback (Sec. VIII-B):
    /// the sent values land on the central model, the residual stays with
    /// the group, and the clock charges the policy's wire size as
    /// `sim.wire_bytes`. [`Compression::None`] is the dense run exactly.
    pub compression: Compression,
}

impl SimEngineConfig {
    /// A Fig. 8-style configuration: `nodes` virtual nodes in `groups`
    /// groups sharing a fixed total batch (`batch_per_group = total /
    /// groups`), 60 iterations per group, ADAM.
    pub fn fig8(nodes: usize, groups: usize, total_batch: usize, timing: Workload) -> Self {
        assert!(groups >= 1 && total_batch >= groups);
        let mut sim = SimConfig::new(timing, nodes, groups, total_batch / groups);
        sim.iterations = 60;
        sim.seed = 0xF18;
        let compression = Compression::None;
        Self {
            sim,
            lr: 1e-3,
            solver: SolverKind::Adam,
            auto_momentum: false,
            compression,
        }
    }

    /// The clock of this run over `iterations` per group: `sim` with the
    /// compression policy's wire size.
    fn clock(&self, iterations: usize) -> ClusterSim {
        assert!(
            !self.gossip,
            "gossip averaging is not modelled with real gradients"
        );
        let mut sim = self.sim.clone();
        sim.iterations = iterations;
        if self.compression != Compression::None {
            sim.wire_bytes = self.compression.wire_bytes_u64(sim.workload.params);
        }
        ClusterSim::new(sim)
    }
}

impl Deref for SimEngineConfig {
    type Target = SimConfig;
    fn deref(&self) -> &SimConfig {
        &self.sim
    }
}

impl DerefMut for SimEngineConfig {
    fn deref_mut(&mut self) -> &mut SimConfig {
        &mut self.sim
    }
}

/// Result of one simulated-time run.
#[derive(Debug)]
pub struct SimRunSummary {
    /// Training loss at every group update, in simulated-time order.
    pub curve: LossCurve,
    /// Per-group curves.
    pub per_group: Vec<LossCurve>,
    /// Mean gradient staleness in group-updates (the clock's counter).
    pub mean_staleness: f64,
    /// Total simulated seconds.
    pub total_time: f64,
    /// Total group updates applied.
    pub updates: usize,
    /// The trained flat parameter vector.
    pub final_params: Vec<f32>,
    /// Bytes the gradient exchanges put on the wire under the
    /// [`Compression`] policy (all-reduce leg, plus PS up-leg when hybrid).
    pub wire_bytes: u64,
}

/// The simulated-time hybrid training engine.
pub struct SimEngine;

impl SimEngine {
    /// Runs HEP classification training of `model` on `ds` under `cfg`.
    /// The model is used as the initial point and is left holding the
    /// final parameters.
    pub fn run(cfg: &SimEngineConfig, model: &mut Network, ds: &HepDataset) -> SimRunSummary {
        Self::run_with(cfg, model, ds.len(), |m, idx| hep_gradient(m, ds, idx))
    }

    /// Generic simulated-time hybrid training: works for any [`Model`]
    /// and task. `grad_fn` computes `(loss, flat gradient)` for the given
    /// sample indices against the model's current parameters — the
    /// climate semi-supervised objective plugs in here just like the HEP
    /// classifier.
    pub fn run_with<M: Model>(
        cfg: &SimEngineConfig,
        model: &mut M,
        dataset_len: usize,
        grad_fn: impl FnMut(&mut M, &[usize]) -> (f32, Vec<f32>),
    ) -> SimRunSummary {
        let groups = cfg.groups;
        let kind = if cfg.auto_momentum {
            cfg.solver.for_groups(groups)
        } else {
            cfg.solver
        };
        let block_sizes = model.param_blocks().iter().map(|b| b.len()).collect();
        let central = model.flat_params();
        let mut trainer = Trainer {
            cfg,
            // Virtual timestamps: a seeded run traces bit-identically.
            trace: TrainTrace::begin(
                "sim-engine",
                model,
                cfg.workload.params,
                cfg.batch_per_group,
            ),
            snapshots: vec![central.clone(); groups],
            central,
            model,
            grad_fn,
            solver: kind.build(cfg.lr),
            samplers: (0..groups)
                .map(|g| {
                    BatchSampler::for_node(dataset_len, cfg.batch_per_group, cfg.seed, g, groups)
                })
                .collect(),
            efs: (0..groups)
                .map(|_| ErrorFeedback::new(cfg.compression))
                .collect(),
            block_sizes,
            curve: LossCurve::new(),
            per_group: vec![LossCurve::new(); groups],
            wire_bytes: 0,
        };
        let clock = cfg.clock(cfg.iterations).run_with(&mut trainer);
        trainer.model.set_flat_params(&trainer.central);
        SimRunSummary {
            updates: trainer.curve.len(),
            curve: trainer.curve,
            per_group: trainer.per_group,
            mean_staleness: clock.mean_staleness,
            total_time: clock.total_time,
            final_params: trainer.central,
            wire_bytes: trainer.wire_bytes,
        }
    }

    /// Mean simulated seconds per group iteration under `cfg`: the clock
    /// alone over `samples` iterations per group (fig8's timing columns).
    pub fn mean_iteration_secs(cfg: &SimEngineConfig, samples: usize) -> f64 {
        assert!(samples > 0, "need at least one sampled iteration");
        cfg.clock(samples).run().total_time / samples as f64
    }
}

/// The observer that trains on the clock: snapshot at start; gradient,
/// PS update, curve point and trace at done.
struct Trainer<'a, M, F> {
    cfg: &'a SimEngineConfig,
    /// The PS bank's contents, flattened.
    central: Vec<f32>,
    /// Each group's model as of its current iteration's start.
    snapshots: Vec<Vec<f32>>,
    model: &'a mut M,
    grad_fn: F,
    solver: Box<dyn Solver>,
    samplers: Vec<BatchSampler>,
    /// Per-group error feedback (the residual never leaves the group).
    efs: Vec<ErrorFeedback>,
    block_sizes: Vec<usize>,
    trace: TrainTrace,
    curve: LossCurve,
    per_group: Vec<LossCurve>,
    wire_bytes: u64,
}

impl<M: Model, F: FnMut(&mut M, &[usize]) -> (f32, Vec<f32>)> Observer for Trainer<'_, M, F> {
    fn start(&mut self, _: f64, g: usize, _: usize) {
        self.snapshots[g].copy_from_slice(&self.central);
    }

    fn done(&mut self, t: &IterBreakdown) {
        let g = t.group;
        self.model.set_flat_params(&self.snapshots[g]);
        let indices = self.samplers[g].next_batch();
        let (loss, mut grad) = (self.grad_fn)(self.model, &indices);
        // `grad` now holds the sent values; they ride the PS up-leg too.
        let wire = self.efs[g].apply(&mut grad) as u64;
        self.wire_bytes += if self.cfg.groups > 1 { 2 * wire } else { wire };
        self.solver
            .step_flat(&mut self.central, &grad, &self.block_sizes);
        self.curve.push(t.end, loss);
        self.per_group[g].push(t.end, loss);
        if !self.trace.tr.enabled() {
            return;
        }
        let blocks: Vec<&[f32]> = (self.block_sizes.iter())
            .scan(&grad[..], |rest, &n| {
                let (block, tail) = rest.split_at(n);
                *rest = tail;
                Some(block)
            })
            .collect();
        self.trace
            .tr
            .check_step(t.iter as u64, loss, &blocks, &self.trace.names);
        self.trace.iteration(t, loss, [wire, wire]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::hep_workload;
    use scidl_cluster::{CollectiveKind, FaultPlan, JitterModel, TopologyConfig};
    use scidl_data::HepConfig;
    use scidl_nn::solver::asynchrony_adjusted_momentum;
    use scidl_nn::Sgd;
    use scidl_tensor::TensorRng;

    fn tiny_dataset() -> HepDataset {
        HepDataset::generate(HepConfig::small(), 96, 42)
    }

    fn base_cfg(groups: usize) -> SimEngineConfig {
        let mut cfg = SimEngineConfig::fig8(32, groups, 32, hep_workload());
        cfg.iterations = 12;
        cfg.lr = 2e-3;
        cfg
    }

    fn run_seeded(cfg: &SimEngineConfig, ds: &HepDataset, seed: u64) -> SimRunSummary {
        let mut m = scidl_nn::arch::hep_small(&mut TensorRng::new(seed));
        SimEngine::run(cfg, &mut m, ds)
    }

    #[test]
    fn sync_run_is_deterministic() {
        let ds = tiny_dataset();
        let cfg = base_cfg(1);
        let a = run_seeded(&cfg, &ds, 9);
        let b = run_seeded(&cfg, &ds, 9);
        assert_eq!(a.final_params, b.final_params);
        assert_eq!(a.curve.points, b.curve.points);
    }

    #[test]
    fn sync_has_zero_staleness_hybrid_nonzero() {
        let ds = tiny_dataset();
        let sync = run_seeded(&base_cfg(1), &ds, 9);
        assert_eq!(sync.mean_staleness, 0.0);
        let hyb = run_seeded(&base_cfg(4), &ds, 9);
        assert!(hyb.mean_staleness > 0.5, "staleness {}", hyb.mean_staleness);
    }

    #[test]
    fn training_reduces_loss() {
        let ds = tiny_dataset();
        let mut cfg = base_cfg(1);
        cfg.iterations = 40;
        let r = run_seeded(&cfg, &ds, 10);
        let first: f32 = r.curve.points[..5].iter().map(|p| p.1).sum::<f32>() / 5.0;
        let last: f32 = r.curve.points[r.curve.len() - 5..]
            .iter()
            .map(|p| p.1)
            .sum::<f32>()
            / 5.0;
        assert!(last < first, "loss should fall: {first} → {last}");
    }

    #[test]
    fn sync_matches_plain_sgd_reference() {
        // With one group and no jitter, the engine must be *exactly*
        // sequential minibatch training.
        let ds = tiny_dataset();
        let mut cfg = base_cfg(1);
        cfg.jitter = JitterModel::none();
        cfg.solver = SolverKind::Sgd { momentum: 0.9 };
        cfg.iterations = 6;
        let engine_run = run_seeded(&cfg, &ds, 11);

        // Reference: same sampler stream, same solver, sequential.
        let mut mref = scidl_nn::arch::hep_small(&mut TensorRng::new(11));
        let mut sampler = BatchSampler::for_node(ds.len(), cfg.batch_per_group, cfg.seed, 0, 1);
        let mut solver = Sgd::new(cfg.lr, 0.9);
        let sizes: Vec<usize> = mref.param_blocks().iter().map(|b| b.len()).collect();
        for _ in 0..cfg.iterations {
            let idx = sampler.next_batch();
            let (_, grad) = crate::task::hep_gradient(&mut mref, &ds, &idx);
            let mut flat = mref.flat_params();
            solver.step_flat(&mut flat, &grad, &sizes);
            mref.set_flat_params(&flat);
        }
        let want = mref.flat_params();
        assert_eq!(engine_run.final_params.len(), want.len());
        let max_err = engine_run
            .final_params
            .iter()
            .zip(&want)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_err < 1e-5,
            "engine diverges from SGD reference by {max_err}"
        );
    }

    #[test]
    fn hybrid_events_interleave_groups() {
        let ds = tiny_dataset();
        let cfg = base_cfg(2);
        let r = run_seeded(&cfg, &ds, 12);
        assert_eq!(r.updates, 2 * cfg.iterations);
        // Both groups contribute points spread over the run.
        assert!(r.per_group.iter().all(|c| c.len() == cfg.iterations));
        assert!(r.total_time > 0.0);
    }

    #[test]
    fn overlap_changes_only_simulated_time_never_the_math() {
        let ds = tiny_dataset();
        let run = |overlap: bool| {
            let mut cfg = base_cfg(1);
            cfg.overlap_comm = overlap;
            run_seeded(&cfg, &ds, 21)
        };
        let plain = run(false);
        let overlapped = run(true);
        // Gradients are timing-independent with one group, so the
        // trajectory and final parameters are bit-identical…
        assert_eq!(plain.final_params, overlapped.final_params);
        let pl: Vec<f32> = plain.curve.points.iter().map(|p| p.1).collect();
        let ov: Vec<f32> = overlapped.curve.points.iter().map(|p| p.1).collect();
        assert_eq!(pl, ov);
        // …while the simulated clock advances strictly less.
        assert!(
            overlapped.total_time < plain.total_time,
            "overlap must hide communication: {} vs {}",
            overlapped.total_time,
            plain.total_time
        );
    }

    #[test]
    fn mean_iteration_secs_tracks_overlap_savings() {
        let mut cfg = base_cfg(1);
        cfg.jitter = JitterModel::none();
        let plain = SimEngine::mean_iteration_secs(&cfg, 16);
        cfg.overlap_comm = true;
        let overlapped = SimEngine::mean_iteration_secs(&cfg, 16);
        assert!(plain > 0.0 && overlapped > 0.0);
        assert!(
            overlapped < plain,
            "overlap column must be lower: {overlapped} vs {plain}"
        );
        // Without jitter the saving is exactly min(allreduce, window).
        let nodes = cfg.nodes / cfg.groups;
        let allreduce = cfg.net.allreduce_time(nodes, cfg.workload.model_bytes);
        let b = (cfg.batch_per_group / nodes).max(1);
        let window = 0.5 * cfg.workload.node_iteration_time(&cfg.knl, b);
        let saved = plain - overlapped;
        let want = allreduce.min(window);
        assert!(
            (saved - want).abs() < 1e-9,
            "saved {saved} vs expected hidden {want}"
        );
    }

    #[test]
    fn identity_compression_is_bit_identical_to_none() {
        // Density-1.0 top-k drops nothing: the trajectory must match the
        // uncompressed run exactly (timing may differ — top-k's wire
        // format is index+value — but one-group math is timing-free).
        let ds = tiny_dataset();
        let run = |policy: Compression| {
            let mut cfg = base_cfg(1);
            cfg.compression = policy;
            run_seeded(&cfg, &ds, 33)
        };
        let dense = run(Compression::None);
        let identity = run(Compression::TopK { density: 1.0 });
        assert_eq!(dense.final_params, identity.final_params);
        let dl: Vec<f32> = dense.curve.points.iter().map(|p| p.1).collect();
        let il: Vec<f32> = identity.curve.points.iter().map(|p| p.1).collect();
        assert_eq!(dl, il);
        assert!(dense.wire_bytes > 0 && identity.wire_bytes > 0);
    }

    #[test]
    fn topk_compression_cuts_wire_bytes_and_simulated_time() {
        let ds = tiny_dataset();
        let run = |policy: Compression| {
            let mut cfg = base_cfg(2);
            cfg.compression = policy;
            run_seeded(&cfg, &ds, 34)
        };
        let dense = run(Compression::None);
        let sparse = run(Compression::TopK { density: 0.1 });
        assert!(
            sparse.wire_bytes * 4 <= dense.wire_bytes,
            "top-k 10% must cut wire bytes ≥4×: {} vs {}",
            sparse.wire_bytes,
            dense.wire_bytes
        );
        assert!(
            sparse.total_time < dense.total_time,
            "smaller messages must shorten the simulated clock: {} vs {}",
            sparse.total_time,
            dense.total_time
        );
        assert!(sparse.curve.points.iter().all(|p| p.1.is_finite()));
    }

    #[test]
    fn int8_compression_still_trains() {
        let ds = tiny_dataset();
        let mut cfg = base_cfg(1);
        cfg.iterations = 40;
        cfg.compression = Compression::Int8;
        let r = run_seeded(&cfg, &ds, 35);
        let first: f32 = r.curve.points[..5].iter().map(|p| p.1).sum::<f32>() / 5.0;
        let last: f32 = r.curve.points[r.curve.len() - 5..]
            .iter()
            .map(|p| p.1)
            .sum::<f32>()
            / 5.0;
        assert!(last < first, "int8+EF should still learn: {first} → {last}");
    }

    #[test]
    fn topology_moves_only_the_simulated_clock() {
        let ds = tiny_dataset();
        let run = |topology: Option<TopologyConfig>| {
            let mut cfg = base_cfg(1);
            cfg.nodes = 1024;
            cfg.iterations = 6;
            cfg.topology = topology;
            run_seeded(&cfg, &ds, 51)
        };
        let plain = run(None);
        let flat = run(Some(TopologyConfig::packed(CollectiveKind::FlatRing)));
        let hier = run(Some(TopologyConfig::packed(CollectiveKind::Hierarchical)));
        // Gradient math is timing-independent.
        assert_eq!(plain.final_params, flat.final_params);
        assert_eq!(plain.final_params, hier.final_params);
        // A placed flat ring pays topology costs the plain model skips;
        // the hierarchical algorithm recovers some of them.
        assert!(flat.total_time > plain.total_time);
        assert!(hier.total_time <= flat.total_time);
    }

    #[test]
    fn auto_momentum_reduces_explicit_momentum_for_groups() {
        // `auto_momentum` is exactly SGD at the asynchrony-adjusted
        // momentum: same parameters and loss curve, bit for bit.
        let ds = tiny_dataset();
        let run = |momentum: f32, auto_momentum: bool| {
            let mut cfg = base_cfg(4);
            cfg.solver = SolverKind::Sgd { momentum };
            cfg.auto_momentum = auto_momentum;
            run_seeded(&cfg, &ds, 36)
        };
        let adjusted = asynchrony_adjusted_momentum(0.9, 4);
        assert!(adjusted < 0.9);
        let auto = run(0.9, true);
        let explicit = run(adjusted, false);
        assert_eq!(auto.final_params, explicit.final_params);
        assert_eq!(auto.curve.points, explicit.curve.points);
        assert_ne!(
            auto.final_params,
            run(0.9, false).final_params,
            "the adjustment must bite"
        );
    }

    /// The engine keeps no clock of its own: every simulated second of a
    /// real-gradient run — jitter on the all-reduce, the node remainder
    /// spread over groups, the PS bank and its one delay stream, the
    /// compressed wire bytes — is `ClusterSim`'s.
    #[test]
    fn engine_clock_is_the_cluster_clock() {
        let ds = tiny_dataset();
        for groups in [1usize, 4] {
            let mut cfg = base_cfg(groups);
            cfg.nodes = 30; // 8 + 8 + 7 + 7 at four groups
            cfg.overlap_comm = true;
            cfg.topology = Some(TopologyConfig::packed(CollectiveKind::Hierarchical));
            cfg.compression = Compression::TopK { density: 0.1 };
            let run = run_seeded(&cfg, &ds, 37);

            let mut sim = cfg.sim.clone();
            sim.wire_bytes = cfg.compression.wire_bytes_u64(sim.workload.params);
            let clock = ClusterSim::new(sim).run();
            assert_eq!(
                run.total_time.to_bits(),
                clock.total_time.to_bits(),
                "groups {groups}"
            );
            assert_eq!(run.mean_staleness.to_bits(), clock.mean_staleness.to_bits());
            assert_eq!(run.updates, clock.timeline.len());
            let ends: Vec<f64> = clock.timeline.iter().map(|e| e.2).collect();
            let times: Vec<f64> = run.curve.points.iter().map(|p| p.0).collect();
            assert_eq!(
                times, ends,
                "groups {groups}: the curve is stamped by the clock"
            );
            for (g, curve) in run.per_group.iter().enumerate() {
                let ends: Vec<f64> = clock
                    .timeline
                    .iter()
                    .filter(|e| e.0 == g)
                    .map(|e| e.2)
                    .collect();
                let times: Vec<f64> = curve.points.iter().map(|p| p.0).collect();
                assert_eq!(times, ends, "groups {groups}, group {g}");
            }
        }
    }

    /// A counting model for fault tests: parameters start at zero, every
    /// gradient is all ones and plain SGD at lr 1 subtracts exactly 1 per
    /// applied update, so the loss a group reports (`-params[0]`) is the
    /// number of updates in the central model its snapshot was taken from.
    fn counting_run(cfg: &SimEngineConfig) -> SimRunSummary {
        let mut cfg = cfg.clone();
        (cfg.lr, cfg.solver) = (1.0, SolverKind::Sgd { momentum: 0.0 });
        let mut m = scidl_nn::arch::hep_small(&mut TensorRng::new(38));
        m.set_flat_params(&vec![0.0; m.num_params()]);
        SimEngine::run_with(&cfg, &mut m, 96, |m, _| {
            let p = m.flat_params();
            (-p[0], vec![1.0; p.len()])
        })
    }

    /// Sec. VIII-A with real gradients: a crashed group of a hybrid run
    /// comes back and takes its first gradient against the central model
    /// as of its restart; every update the clock completed is applied.
    #[test]
    fn recovered_group_resumes_from_the_model_at_its_restart() {
        let mut cfg = base_cfg(4);
        let mttr = 0.05;
        cfg.faults = FaultPlan::none()
            .with_group_crash(2, 5)
            .with_recovery(1, mttr);
        let run = counting_run(&cfg);
        let clock = ClusterSim::new(cfg.sim.clone()).run();
        assert_eq!(clock.recovered_iterations, 7);
        assert_eq!(run.updates, clock.timeline.len());
        assert_eq!(
            run.updates,
            4 * cfg.iterations,
            "the crashed group finishes its budget"
        );

        // Group 2 dies at the end of its 5th iteration and rejoins MTTR
        // seconds later, holding the model as of that moment.
        let crashed_at = clock.timeline.iter().filter(|e| e.0 == 2).nth(4).unwrap().2;
        let restart = crashed_at + mttr;
        let applied = clock.timeline.iter().filter(|e| e.2 <= restart).count();
        assert!(
            applied > 5 * 4 - 4,
            "other groups kept updating while group 2 was down"
        );
        assert_eq!(run.per_group[2].points[5].1, applied as f32);
        assert!(run.final_params.iter().all(|p| p.is_finite()));
        assert_eq!(run.final_params[0], -(run.updates as f32));
    }

    #[test]
    fn ps_crash_stalls_real_gradient_runs_but_every_update_lands() {
        let ds = tiny_dataset();
        let mut cfg = base_cfg(4);
        let healthy = run_seeded(&cfg, &ds, 39);
        cfg.faults = FaultPlan::none().with_ps_crash(0, 8, 5.0);
        let crashed = run_seeded(&cfg, &ds, 39);
        let clock = ClusterSim::new(cfg.sim.clone()).run();
        assert_eq!(clock.ps_respawns, 1);
        assert_eq!(crashed.updates, 4 * cfg.iterations);
        assert_eq!(crashed.updates, clock.timeline.len());
        assert_eq!(crashed.total_time, clock.total_time);
        assert!(
            crashed.total_time > healthy.total_time + 4.0,
            "the repair is visible"
        );
        assert!(crashed.curve.points.iter().all(|p| p.1.is_finite()));
        assert!(crashed.final_params.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn synchronous_run_stops_with_its_group() {
        let ds = tiny_dataset();
        let mut cfg = base_cfg(1);
        cfg.faults = FaultPlan::none()
            .with_group_crash(0, 3)
            .with_recovery(1, 0.05);
        let r = run_seeded(&cfg, &ds, 40);
        assert_eq!(r.updates, 3, "no surviving state to rejoin (Sec. VIII-A)");
        assert!(r.final_params.iter().all(|p| p.is_finite()));
    }
}
