//! Iteration-level discrete-event simulation of distributed training on
//! Cori — regenerates the scaling studies (Figs. 6–7), the full-system
//! throughput numbers (Sec. VI-B3) and the simulated half of Fig. 5.
//!
//! Entities: `groups` compute groups iterating independently (a single
//! group = fully synchronous training), and a bank of per-layer parameter
//! servers that hybrid configurations exchange updates with. Within a
//! group, the cost of an iteration is:
//!
//! ```text
//! max-over-nodes(compute × jitter) + all-reduce(group) [+ PS exchange]
//! ```
//!
//! The PS exchange is a fork-join over the per-layer PS servers, each a
//! FIFO queue — saturation of a single PS under many groups is exactly
//! what Sec. III-E(c)'s per-layer PS design avoids, and what the
//! `ablation_ps` bench demonstrates.
//!
//! This event loop is the repo's one training clock. [`ClusterSim::run`]
//! drives it alone; [`ClusterSim::run_with`] hands every group-iteration
//! start and completion (an [`IterBreakdown`], the record both training
//! drivers fill) to an [`Observer`] — the simulated-time trainer in
//! `scidl-core` snapshots the central model at the start and applies a
//! real gradient at the completion, so Fig. 8's machine is Figs. 6–7's.
//!
//! Whether a group runs, stops or is repaired before an iteration, and
//! how stale its update is, the loop asks each group's [`GroupLifecycle`]
//! (as the thread engine does) and turns the answer into events.

use crate::aries::AriesModel;
use crate::event::EventQueue;
use crate::faults::FaultPlan;
use crate::jitter::JitterModel;
use crate::knl::{KnlModel, LayerCost};
use crate::lifecycle::{GroupLifecycle, Step};
use crate::topology::{allreduce_time_placed, hierarchical_allreduce_time, Dragonfly, Placement};
use scidl_tensor::TensorRng;

/// Splits `total` into `parts` shard sizes whose sum is exactly `total`
/// (remainder spread over the first shards). The PS cost model charges
/// these per-shard byte/parameter counts; plain integer division would
/// silently drop up to `parts - 1` units from every exchange.
pub fn split_even(total: u64, parts: usize) -> Vec<u64> {
    let parts = parts.max(1);
    let base = total / parts as u64;
    let rem = total % parts as u64;
    (0..parts as u64)
        .map(|i| base + u64::from(i < rem))
        .collect()
}

/// Static cost description of a training workload (built from a real
/// `scidl-nn` network by `scidl-core::workloads`).
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name ("hep", "climate").
    pub name: String,
    /// Per-layer cost table.
    pub layers: Vec<LayerCost>,
    /// Scalar parameter count.
    pub params: u64,
    /// Model size in bytes (what all-reduce and PS exchanges move).
    pub model_bytes: u64,
    /// Bytes of one input image.
    pub image_bytes: u64,
    /// Effective input-pipeline bandwidth per node (B/s). The paper's
    /// single-core HDF5 reader is slow; climate's 16-channel hyperslab
    /// reads are slower still (13% of runtime vs 2% for HEP, Sec. VI-A).
    pub io_bw: f64,
    /// Solver arithmetic per parameter (ADAM ≈ 12, SGD ≈ 6).
    pub solver_flops_per_param: u64,
    /// Bytes touched per parameter per solver update (ADAM's history
    /// copies are heavy; plain SGD-momentum is light).
    pub solver_bytes_per_param: f64,
    /// Effective bandwidth of the solver-update phase (B/s). The paper's
    /// HEP/ADAM update is a slow, copy-dominated serial phase (12.5% of
    /// runtime); the climate SGD update is well under 2%.
    pub solver_bw: f64,
}

impl Workload {
    /// Solver-update seconds for a shard of `params` parameters.
    pub fn solver_secs(&self, params: u64) -> f64 {
        params as f64 * self.solver_bytes_per_param / self.solver_bw
    }

    /// Training FLOPs per image (sum over layers).
    pub fn flops_per_image(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| l.train_flops_per_image as f64)
            .sum()
    }

    /// Input-pipeline seconds for `batch` images on one node.
    pub fn io_time(&self, batch: usize) -> f64 {
        batch as f64 * self.image_bytes as f64 / self.io_bw
    }

    /// Single-node iteration time at minibatch `batch`: layers + solver
    /// update + input pipeline (Sec. VI-A's decomposition).
    pub fn node_iteration_time(&self, knl: &KnlModel, batch: usize) -> f64 {
        knl.compute_time(&self.layers, batch) + self.solver_secs(self.params) + self.io_time(batch)
    }

    /// Single-node achieved FLOP rate at minibatch `batch` — the Fig. 5
    /// headline numbers (HEP 1.90 TF/s, Climate 2.09 TF/s at batch 8).
    pub fn single_node_rate(&self, knl: &KnlModel, batch: usize) -> f64 {
        let flops = self.flops_per_image() * batch as f64
            + (self.params * self.solver_flops_per_param) as f64;
        flops / self.node_iteration_time(knl, batch)
    }
}

/// One entry of the simulated single-node profile (Fig. 5).
#[derive(Clone, Debug)]
pub struct ProfileEntry {
    /// Component name (layer name, "solver" or "io").
    pub name: String,
    /// Seconds per iteration.
    pub secs: f64,
    /// FLOPs per iteration (0 for non-arithmetic components).
    pub flops: f64,
}

/// Simulated per-component single-node profile at minibatch `batch`.
pub fn single_node_profile(w: &Workload, knl: &KnlModel, batch: usize) -> Vec<ProfileEntry> {
    let mut out: Vec<ProfileEntry> = w
        .layers
        .iter()
        .map(|l| ProfileEntry {
            name: l.name.clone(),
            secs: knl.layer_time(l, batch),
            flops: l.train_flops_per_image as f64 * batch as f64,
        })
        .collect();
    out.push(ProfileEntry {
        name: "solver".into(),
        secs: w.solver_secs(w.params),
        flops: (w.params * w.solver_flops_per_param) as f64,
    });
    out.push(ProfileEntry {
        name: "io".into(),
        secs: w.io_time(batch),
        flops: 0.0,
    });
    out
}

/// Which all-reduce algorithm the collective cost model charges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectiveKind {
    /// One flat ring over every node of a compute group, charged the
    /// placement's global-hop latency and contention on crossing steps.
    FlatRing,
    /// Intra-electrical-group ring + inter-group leader tree; dragonfly
    /// global-hop latency and contention are charged only on the
    /// inter-group leg (falls back to the flat ring when cheaper).
    Hierarchical,
}

/// Where a compute group's nodes land on the dragonfly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Dragonfly-aware scheduler: compute groups packed onto disjoint,
    /// balanced runs of electrical groups (Fig. 3's ideal layout).
    Packed,
    /// Topology-oblivious scheduler: each group's nodes scattered
    /// uniformly over a machine of `machine_nodes` nodes.
    Scattered {
        /// Total nodes of the machine the job is scattered across.
        machine_nodes: usize,
    },
}

/// Topology-aware collective configuration. When present on a
/// [`SimConfig`], intra-group all-reduce costs become placement-aware;
/// when absent the legacy plain [`AriesModel`] ring is charged.
#[derive(Clone, Debug)]
pub struct TopologyConfig {
    /// Dragonfly dimensions (electrical group size, optical latency,
    /// global-link contention).
    pub fly: Dragonfly,
    /// How compute groups are placed on the machine.
    pub placement: PlacementPolicy,
    /// Which collective algorithm the cost model charges.
    pub collective: CollectiveKind,
}

impl TopologyConfig {
    /// Dragonfly-aware packed placement with the given collective.
    pub fn packed(collective: CollectiveKind) -> Self {
        Self {
            fly: Dragonfly::default(),
            placement: PlacementPolicy::Packed,
            collective,
        }
    }

    /// Topology-oblivious scattered placement on a `machine_nodes`-node
    /// machine with the given collective.
    pub fn scattered(machine_nodes: usize, collective: CollectiveKind) -> Self {
        Self {
            fly: Dragonfly::default(),
            placement: PlacementPolicy::Scattered { machine_nodes },
            collective,
        }
    }
}

/// Configuration of one cluster simulation.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The workload.
    pub workload: Workload,
    /// Bytes one gradient exchange puts on the wire: charged on the
    /// all-reduce leg and the PS up-leg (the PS down-leg and the model
    /// broadcast move the dense `model_bytes`). [`SimConfig::new`] sets
    /// the dense size; a gradient-compression policy sets its own.
    pub wire_bytes: u64,
    /// Total compute nodes (parameter servers are extra).
    pub nodes: usize,
    /// Number of compute groups; 1 = fully synchronous.
    pub groups: usize,
    /// Global minibatch per group per update.
    pub batch_per_group: usize,
    /// Node model.
    pub knl: KnlModel,
    /// Interconnect model.
    pub net: AriesModel,
    /// Variability model.
    pub jitter: JitterModel,
    /// Iterations per group to simulate.
    pub iterations: usize,
    /// Snapshot the model every `checkpoint_every` iterations (0 = off).
    pub checkpoint_every: usize,
    /// Filesystem bandwidth for snapshots (B/s).
    pub fs_bw: f64,
    /// Parameter servers (hybrid only). 0 derives one per layer with
    /// parameters, capped at 16 (the paper uses 6 for HEP, 14 for
    /// climate).
    pub num_ps: usize,
    /// Overlap the all-reduce with backward compute, as MLSL's
    /// layer-wise communication does (Sec. III-D): the exposed
    /// communication time is what remains after hiding up to the
    /// backward half of the iteration.
    pub overlap_comm: bool,
    /// Scheduled fault injection (group/PS crashes, stragglers, delays)
    /// and the recovery policy (Sec. VIII-A). Random failures from
    /// [`JitterModel`] still apply on top.
    pub faults: FaultPlan,
    /// Topology-aware collective model (`None` = legacy plain ring).
    pub topology: Option<TopologyConfig>,
    /// Decentralized averaging (Jin et al.): instead of a PS exchange,
    /// each group pairwise-averages its model with a rotating partner
    /// group. Only meaningful with `groups > 1`.
    pub gossip: bool,
    /// RNG seed.
    pub seed: u64,
}

impl SimConfig {
    /// A reasonable default configuration for `workload` on `nodes`
    /// nodes in `groups` groups.
    pub fn new(workload: Workload, nodes: usize, groups: usize, batch_per_group: usize) -> Self {
        Self {
            wire_bytes: workload.model_bytes,
            workload,
            nodes,
            groups,
            batch_per_group,
            knl: KnlModel::default(),
            net: AriesModel::default(),
            jitter: JitterModel::default(),
            iterations: 30,
            checkpoint_every: 0,
            fs_bw: 2.0e8,
            num_ps: 0,
            overlap_comm: false,
            faults: FaultPlan::none(),
            topology: None,
            gossip: false,
            seed: 0xC0121,
        }
    }

    /// Disables all stochastic variability (for deterministic tests).
    pub fn ideal(mut self) -> Self {
        self.jitter = JitterModel::none();
        self
    }

    fn effective_num_ps(&self) -> usize {
        if self.num_ps > 0 {
            self.num_ps
        } else {
            // One per parameterised layer, capped: the paper dedicates 6
            // (HEP) / 14 (climate) PS nodes.
            self.workload
                .layers
                .iter()
                .filter(|l| {
                    matches!(
                        l.class,
                        crate::knl::RateClass::Conv { .. } | crate::knl::RateClass::DenseSmall
                    )
                })
                .count()
                .clamp(1, 16)
        }
    }
}

/// Result of a cluster simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Per-group iteration durations (seconds).
    pub iter_times: Vec<Vec<f64>>,
    /// Completed iteration intervals `(group, start, end)` in completion
    /// order — the timeline Gantt charts are drawn from.
    pub timeline: Vec<(usize, f64, f64)>,
    /// Total simulated wall-clock seconds.
    pub total_time: f64,
    /// Total training FLOPs executed.
    pub total_flops: f64,
    /// Images processed.
    pub images: u64,
    /// Peak system FLOP rate (best time bin), FLOP/s.
    pub peak_rate: f64,
    /// Sustained system FLOP rate (best contiguous window ≈ 10 mean
    /// iterations), FLOP/s.
    pub sustained_rate: f64,
    /// Mean update staleness in group-updates (0 for synchronous).
    pub mean_staleness: f64,
    /// Simulated time of the first node failure that halted a group, if
    /// any.
    pub failure_at: Option<f64>,
    /// Groups still alive at the end.
    pub live_groups: usize,
    /// Iterations completed by groups *after* they came back from a
    /// crash — work the recovery policy saved (0 without recovery).
    pub recovered_iterations: usize,
    /// PS-shard crash/repair cycles that occurred during the run.
    pub ps_respawns: u64,
    /// Discrete events processed by the simulation loop — the numerator
    /// of the ledger's `sim_suite` events/sec (`cluster_events_per_s`).
    pub events_processed: u64,
}

impl SimResult {
    /// Throughput in images per second.
    pub fn images_per_sec(&self) -> f64 {
        if self.total_time <= 0.0 {
            0.0
        } else {
            self.images as f64 / self.total_time
        }
    }

    /// Average FLOP rate over the whole run.
    pub fn average_rate(&self) -> f64 {
        if self.total_time <= 0.0 {
            0.0
        } else {
            self.total_flops / self.total_time
        }
    }
}

/// One group iteration: the record both training drivers fill, in
/// seconds of the clock that runs them (simulated here, the trace clock
/// in the thread engine). The parts tile it: `compute + straggler +
/// allreduce + ps + checkpoint = end − start`.
#[derive(Clone, Copy, Debug, Default)]
pub struct IterBreakdown {
    /// Compute group.
    pub group: usize,
    /// Iteration of the group.
    pub iter: usize,
    /// When the iteration started.
    pub start: f64,
    /// When it completed, checkpoint stall included.
    pub end: f64,
    /// Nominal forward + backward compute.
    pub compute: f64,
    /// Wait for the slowest node (straggler window; here also jitter).
    pub straggler: f64,
    /// All-reduce seconds left exposed after the overlap window.
    pub allreduce: f64,
    /// All-reduce seconds hidden behind backward, within the compute.
    pub hidden: f64,
    /// From the end of the all-reduce until every node holds the fresh
    /// model: injected delay, PS fork-join with queueing and broadcast
    /// (or the gossip swap); 0 when synchronous here.
    pub ps: f64,
    /// Checkpoint stall.
    pub checkpoint: f64,
    /// Updates applied since the group last took the model.
    pub staleness: u64,
}

/// Callbacks from [`ClusterSim::run_with`]'s event loop. Both default to
/// no-ops, so `()` observes nothing.
pub trait Observer {
    /// `group` launches iteration `iter`, starting at `start`. Called while
    /// the loop handles the event that launches it (the previous
    /// completion, the kick-off or a recovery), so the observer sees the
    /// system as of that moment — when a group takes its model snapshot.
    fn start(&mut self, _start: f64, _group: usize, _iter: usize) {}
    /// A group iteration completed at `t.end`.
    fn done(&mut self, _t: &IterBreakdown) {}
}

impl Observer for () {}

enum Ev {
    /// Group finished compute + intra-group all-reduce.
    GroupLocalDone {
        group: usize,
        iter: usize,
        start: f64,
    },
    /// Group received all PS responses (or skipped PS when synchronous).
    GroupIterDone {
        group: usize,
        iter: usize,
        start: f64,
    },
    /// A node failure strikes the given group.
    Failure { group: usize },
    /// A crashed group finished its repair and re-enters the run at the
    /// given iteration (recovery policy, Sec. VIII-A).
    GroupRecover { group: usize, iter: usize },
}

/// The cluster simulator.
pub struct ClusterSim {
    cfg: SimConfig,
}

impl ClusterSim {
    /// Creates a simulator for the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        assert!(cfg.nodes >= 1 && cfg.groups >= 1, "need nodes and groups");
        assert!(cfg.groups <= cfg.nodes, "more groups than nodes");
        assert!(cfg.batch_per_group >= 1, "empty batch");
        Self { cfg }
    }

    /// Runs the simulation to completion.
    pub fn run(&self) -> SimResult {
        self.run_with(&mut ())
    }

    /// Runs the simulation to completion, reporting every group
    /// iteration's start and completion to `obs`. The observer cannot
    /// move the clock: any observer yields the [`SimResult`] of
    /// [`ClusterSim::run`].
    pub fn run_with<O: Observer>(&self, obs: &mut O) -> SimResult {
        let cfg = &self.cfg;
        let mut rng = TensorRng::new(cfg.seed ^ 0x5157);
        let groups = cfg.groups;
        let hybrid = groups > 1;
        let gossip = hybrid && cfg.gossip;
        let num_ps = cfg.effective_num_ps();
        let group_nodes_base = cfg.nodes / groups;
        assert!(group_nodes_base >= 1, "groups larger than node count");

        // Per-group node counts (remainder spread over the first groups).
        let group_nodes: Vec<usize> = (0..groups)
            .map(|g| group_nodes_base + usize::from(g < cfg.nodes % groups))
            .collect();

        // Placement-aware collective costs, precomputed once per group —
        // the hot loop never re-walks the workload or the placement.
        let placements: Option<Vec<Placement>> = cfg.topology.as_ref().map(|t| match t.placement {
            PlacementPolicy::Packed => Placement::pack_groups(&group_nodes, &t.fly),
            PlacementPolicy::Scattered { machine_nodes } => group_nodes
                .iter()
                .enumerate()
                .map(|(g, &n)| {
                    Placement::scattered(n, machine_nodes, &t.fly, cfg.seed ^ ((g as u64) << 4))
                })
                .collect(),
        });
        let allreduce_base = |g: usize| -> f64 {
            match (&cfg.topology, &placements) {
                (Some(t), Some(ps)) => match t.collective {
                    CollectiveKind::FlatRing => {
                        allreduce_time_placed(&cfg.net, &t.fly, &ps[g], cfg.wire_bytes)
                    }
                    CollectiveKind::Hierarchical => {
                        hierarchical_allreduce_time(&cfg.net, &t.fly, &ps[g], cfg.wire_bytes)
                    }
                },
                _ => cfg.net.allreduce_time(group_nodes[g], cfg.wire_bytes),
            }
        };

        // In hybrid-PS mode the solver runs on the PS, not the nodes; in
        // gossip mode there is no PS, so nodes keep their solver phase.
        let solver_on_ps = hybrid && !gossip;
        let mut states: Vec<GroupState> = (0..groups)
            .map(|g| {
                let nodes = group_nodes[g];
                let b = (cfg.batch_per_group / nodes).max(1);
                let compute_base = cfg.workload.node_iteration_time(&cfg.knl, b)
                    - if solver_on_ps {
                        cfg.workload.solver_secs(cfg.workload.params)
                    } else {
                        0.0
                    };
                GroupState {
                    nodes,
                    compute_base,
                    allreduce_base: allreduce_base(g),
                    rng: TensorRng::new(0), // re-seeded below, in seed order
                    alive: true,
                    // Only a multi-group run has surviving state (the PS bank
                    // or a peer group) to rejoin from (Sec. VIII-A).
                    life: GroupLifecycle::new(&cfg.faults, g, 0..nodes, hybrid),
                    failed_at: None,
                    done: 0,
                    pending: IterBreakdown::default(),
                }
            })
            .collect();

        // PS bank: next-free times, model and wire shards (remainder-aware
        // so the charged bytes sum exactly to their totals), delay-spike
        // stream.
        let ps_bytes = split_even(cfg.workload.model_bytes, num_ps);
        let ps_wire = split_even(cfg.wire_bytes, num_ps);
        let ps_params = split_even(cfg.workload.params, num_ps);
        let mut ps_free = vec![0.0f64; num_ps];

        // The extra per-exchange hop gossip pays for crossing between the
        // partner groups' electrical groups (packed groups never share
        // one).
        let gossip_hop = cfg
            .topology
            .as_ref()
            .map_or(0.0, |t| t.fly.global_hop_latency);

        // Failure horizon from a *full* iteration estimate — compute plus
        // collective plus the exchange leg. The seed's compute-only
        // estimate made pre-sampled failures land past the real end of
        // any run whose communication dominates (exactly the large-node
        // regime the failure model matters for).
        let est_iter = {
            let mut est = states[0].compute_base.max(0.0) + states[0].allreduce_base;
            if gossip {
                est += cfg.net.p2p_time(cfg.workload.model_bytes)
                    + gossip_hop
                    + cfg
                        .net
                        .broadcast_time(states[0].nodes, cfg.workload.model_bytes);
            } else if hybrid {
                // Every iteration each shard serves all G groups; in
                // steady state a group waits ~G services on the slowest
                // shard before its broadcast.
                let worst_service = (0..num_ps)
                    .map(|s| {
                        cfg.net.p2p_time(ps_wire[s])
                            + cfg.net.p2p_time(ps_bytes[s])
                            + cfg.workload.solver_secs(ps_params[s])
                    })
                    .fold(0.0, f64::max);
                est += worst_service * groups as f64
                    + cfg
                        .net
                        .broadcast_time(states[0].nodes, cfg.workload.model_bytes);
            }
            est
        };
        let horizon = est_iter * cfg.iterations as f64 * 1.5;
        let failure = cfg
            .jitter
            .first_failure(&mut rng, cfg.nodes, horizon)
            .map(|t| (t, rng.below(groups)));

        let mut queue: EventQueue<Ev> = EventQueue::with_capacity(groups + 2);
        if let Some((t, g)) = failure {
            queue.schedule(t, Ev::Failure { group: g });
        }
        let mut ps_rng = rng.fork(0x505);

        // Global PS update counter for staleness accounting (per-group
        // last-seen versions live in the lifecycles).
        let mut global_updates: u64 = 0;

        // Flat, capacity-reserved result buffers: at most
        // `groups × iterations` iterations complete, so the hot loop
        // never grows a Vec.
        let mut iter_times: Vec<Vec<f64>> = (0..groups)
            .map(|_| Vec::with_capacity(cfg.iterations))
            .collect();
        let mut timeline: Vec<(usize, f64, f64)> = Vec::with_capacity(groups * cfg.iterations);
        let mut staleness_sum = 0u64;
        for (g, gs) in states.iter_mut().enumerate() {
            gs.rng = rng.fork(g as u64 + 101);
        }

        // Fault-injection state: per-shard request counts driving
        // scheduled PS crashes.
        let mut recovered_iterations = 0usize;
        let mut ps_respawns = 0u64;
        let mut events_processed = 0u64;
        let mut ps_served = vec![0u64; num_ps];
        let mut ps_crashed = vec![false; num_ps];

        let iter_flops_per_group = cfg.workload.flops_per_image() * cfg.batch_per_group as f64
            + (cfg.workload.params * cfg.workload.solver_flops_per_param) as f64;

        // Kick off: every group starts its first iteration at t=0
        // (unless the plan kills it before it does anything).
        for (g, state) in states.iter_mut().enumerate() {
            self.launch(state, g, 0, 0.0, &mut queue, obs);
        }

        while let Some((now, ev)) = queue.pop() {
            events_processed += 1;
            match ev {
                Ev::Failure { group } => {
                    // A failure only matters for a group still working
                    // through its iterations; one that popped after the
                    // group finished (or died) is a no-op.
                    let gs = &mut states[group];
                    if gs.alive && gs.done < cfg.iterations {
                        gs.halt(gs.life.crash(), group, gs.done, now, &mut queue);
                    }
                }
                Ev::GroupRecover { group, iter } => {
                    // The repaired group (one repair at most is pending)
                    // re-fetches the *current* model from the PS bank (or a
                    // peer group, under gossip), broadcasts it internally
                    // and resumes at the iteration it lost.
                    let gs = &mut states[group];
                    gs.alive = true;
                    gs.life.rejoin(global_updates);
                    let refetch = cfg.net.p2p_time(cfg.workload.model_bytes)
                        + cfg.net.broadcast_time(gs.nodes, cfg.workload.model_bytes);
                    self.launch(gs, group, iter, now + refetch, &mut queue, obs);
                }
                Ev::GroupLocalDone { group, iter, start } => {
                    if !states[group].alive {
                        continue;
                    }
                    // Injected latency in front of this exchange, if the
                    // plan has one (congested link).
                    let arrive = now + cfg.faults.message_delay_secs(group, iter);
                    let resume = if gossip {
                        // Decentralized averaging: the group root swaps
                        // models with a rotating partner group's root
                        // (full-duplex p2p across the global links) and
                        // broadcasts the average internally — no PS, no
                        // global barrier (Jin et al.).
                        arrive
                            + cfg.net.p2p_time(cfg.workload.model_bytes)
                            + gossip_hop
                            + cfg
                                .net
                                .broadcast_time(states[group].nodes, cfg.workload.model_bytes)
                    } else if hybrid {
                        // Fork-join over the per-layer PS bank (FIFO).
                        let mut resume = arrive;
                        for (shard, free) in ps_free.iter_mut().enumerate() {
                            let begin = free.max(arrive);
                            let service = cfg.net.p2p_time(ps_wire[shard]) // gradient up
                                + cfg.workload.solver_secs(ps_params[shard]) // PS applies update
                                + cfg.net.p2p_time(ps_bytes[shard]) // model down
                                + cfg.jitter.ps_request_delay(&mut ps_rng);
                            *free = begin + service;
                            // Scheduled PS crash: after this many served
                            // requests the shard dies and spends
                            // `repair_secs` restarting from its snapshot —
                            // later requests queue behind the repair.
                            ps_served[shard] += 1;
                            if !ps_crashed[shard] {
                                if let Some(c) = cfg.faults.ps_crash_for_shard(shard) {
                                    if ps_served[shard] >= c.after_requests {
                                        ps_crashed[shard] = true;
                                        ps_respawns += 1;
                                        *free += c.repair_secs;
                                    }
                                }
                            }
                            resume = resume.max(*free);
                        }
                        // Root broadcasts the fresh model to its group.
                        resume
                            + cfg
                                .net
                                .broadcast_time(states[group].nodes, cfg.workload.model_bytes)
                    } else {
                        now
                    };
                    states[group].pending.ps = resume - now;
                    queue.schedule(resume, Ev::GroupIterDone { group, iter, start });
                }
                Ev::GroupIterDone { group, iter, start } => {
                    if !states[group].alive {
                        continue;
                    }
                    // Staleness: updates applied system-wide since this
                    // group last synchronised.
                    global_updates += 1;
                    let staleness = states[group].life.applied(global_updates);

                    let mut t = IterBreakdown {
                        group,
                        iter,
                        start,
                        end: now,
                        staleness,
                        ..states[group].pending
                    };
                    if cfg.checkpoint_every > 0 && (iter + 1) % cfg.checkpoint_every == 0 {
                        t.checkpoint = cfg.workload.model_bytes as f64 / cfg.fs_bw;
                        t.end += t.checkpoint;
                    }

                    iter_times[group].push(t.end - start);
                    timeline.push((group, start, t.end));
                    staleness_sum += staleness;
                    states[group].done = iter + 1;
                    recovered_iterations += usize::from(states[group].life.recovered());
                    obs.done(&t);

                    if iter + 1 < cfg.iterations {
                        self.launch(&mut states[group], group, iter + 1, t.end, &mut queue, obs);
                    }
                }
            }
        }

        let n = timeline.len();
        let total_time = timeline.iter().map(|r| r.2).fold(0.0, f64::max);
        let total_flops: f64 = (0..n).map(|_| iter_flops_per_group).sum();
        let (peak, sustained) = rate_windows(&timeline, iter_flops_per_group);
        let mean_staleness = if n == 0 {
            0.0
        } else {
            staleness_sum as f64 / n as f64
        };

        SimResult {
            iter_times,
            timeline,
            total_time,
            total_flops,
            images: n as u64 * cfg.batch_per_group as u64,
            peak_rate: peak,
            sustained_rate: sustained,
            mean_staleness,
            failure_at: states.iter().filter_map(|s| s.failed_at).reduce(f64::min),
            live_groups: states.iter().filter(|s| s.alive).count(),
            recovered_iterations,
            ps_respawns,
            events_processed,
        }
    }

    /// Group `g` reaches `iter` at `at`: it starts it or, if told so, halts.
    fn launch<O: Observer>(
        &self,
        gs: &mut GroupState,
        g: usize,
        iter: usize,
        at: f64,
        queue: &mut EventQueue<Ev>,
        obs: &mut O,
    ) {
        match gs.life.before(iter) {
            Step::Run => {
                obs.start(at, g, iter);
                let dur = self.group_local_time(gs, g, iter);
                queue.schedule(
                    at + dur,
                    Ev::GroupLocalDone {
                        group: g,
                        iter,
                        start: at,
                    },
                );
            }
            step => gs.halt(step, g, iter, at, queue),
        }
    }

    /// Compute + intra-group all-reduce time for one group iteration; the
    /// parts are left in `gs.pending` for the observer. O(1): the
    /// workload walk and the placement-aware collective cost were folded
    /// into the group's precomputed bases, and the barrier max is one
    /// inverse-transform draw.
    fn group_local_time(&self, gs: &mut GroupState, group: usize, iter: usize) -> f64 {
        let cfg = &self.cfg;
        // Scheduled straggler window: the whole group crawls at the pace
        // of its slowest node.
        let compute = gs.compute_base * cfg.faults.straggler_factor(group, iter);
        let barrier = cfg.jitter.barrier_multiplier(&mut gs.rng, gs.nodes);
        let delay = cfg.jitter.barrier_delay(&mut gs.rng, gs.nodes);
        let mut allreduce = gs.allreduce_base * cfg.jitter.compute_multiplier(&mut gs.rng);
        let mut hidden = 0.0;
        if cfg.overlap_comm {
            // Layer-wise all-reduce overlaps with the backward pass
            // (≈ half of the compute); only the excess is exposed.
            let window = 0.5 * compute * barrier;
            hidden = allreduce.min(window);
            allreduce = (allreduce - window).max(0.0);
        }
        // The record splits the stretched compute; the clock adds it whole.
        let stretched = compute * barrier + delay;
        gs.pending.compute = gs.compute_base;
        gs.pending.straggler = stretched - gs.compute_base;
        gs.pending.allreduce = allreduce;
        gs.pending.hidden = hidden;
        stretched + allreduce
    }
}

/// Reusable per-group simulation state: everything the hot loop needs,
/// precomputed once, so one group-iteration is O(1) — no allocation, no
/// per-node jitter sampling, no workload or placement re-walks.
struct GroupState {
    /// Nodes in this compute group.
    nodes: usize,
    /// Ideal compute seconds per iteration (jitter and scheduled
    /// stragglers are applied on top per iteration).
    compute_base: f64,
    /// Collective cost for this group's size, placement and algorithm.
    allreduce_base: f64,
    /// This group's private jitter stream.
    rng: TensorRng,
    alive: bool,
    /// Crash, rejoin and staleness decisions.
    life: GroupLifecycle,
    /// When the group first halted.
    failed_at: Option<f64>,
    /// Iterations completed.
    done: usize,
    /// Breakdown of the iteration in flight (its `start` travels in the
    /// event).
    pending: IterBreakdown,
}

impl GroupState {
    /// Stops the group before `iter` at `at`; a repair returns it there.
    fn halt(&mut self, step: Step, g: usize, iter: usize, at: f64, queue: &mut EventQueue<Ev>) {
        self.alive = false;
        self.failed_at.get_or_insert(at);
        if let Step::Repair(rec) = step {
            queue.schedule(at + rec.mttr_secs, Ev::GroupRecover { group: g, iter });
        }
    }
}

/// Computes (peak, sustained) system FLOP rates from the timeline: each
/// iteration's `flops` are spread uniformly over its interval, binned at the
/// mean iteration duration; peak is the best bin, sustained the best
/// 10-bin contiguous window (mirroring the paper's best-iteration /
/// best-100-iteration-window definitions in Sec. V).
fn rate_windows(timeline: &[(usize, f64, f64)], flops: f64) -> (f64, f64) {
    if timeline.is_empty() {
        return (0.0, 0.0);
    }
    let t_end = timeline.iter().map(|r| r.2).fold(0.0, f64::max);
    let mean_dur = timeline.iter().map(|r| r.2 - r.1).sum::<f64>() / timeline.len() as f64;
    let bin = mean_dur.max(t_end / 1000.0).max(1e-9);
    let nbins = (t_end / bin).ceil() as usize + 1;
    let mut bins = vec![0.0f64; nbins];
    for &(_, start, end) in timeline {
        let dur = (end - start).max(1e-12);
        let rate = flops / dur;
        let first = (start / bin) as usize;
        let last = ((end / bin) as usize).min(nbins - 1);
        for (off, slot) in bins[first..=last].iter_mut().enumerate() {
            let b = first + off;
            let lo = (b as f64 * bin).max(start);
            let hi = ((b + 1) as f64 * bin).min(end);
            if hi > lo {
                *slot += rate * (hi - lo);
            }
        }
    }
    // Drop the ramp-up/ramp-down edge bins from the peak estimate.
    let interior = if bins.len() > 4 {
        &bins[1..bins.len() - 2]
    } else {
        &bins[..]
    };
    let peak = interior.iter().copied().fold(0.0, f64::max) / bin;
    let window = 10.min(interior.len()).max(1);
    let mut sustained = 0.0f64;
    for w in interior.windows(window) {
        sustained = sustained.max(w.iter().sum::<f64>() / (window as f64 * bin));
    }
    (peak, sustained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knl::RateClass;

    fn toy_workload() -> Workload {
        Workload {
            name: "toy".into(),
            layers: vec![
                LayerCost {
                    name: "conv1".into(),
                    train_flops_per_image: 1_000_000_000,
                    class: RateClass::Conv { cin: 3 },
                },
                LayerCost {
                    name: "conv2".into(),
                    train_flops_per_image: 10_000_000_000,
                    class: RateClass::Conv { cin: 128 },
                },
                LayerCost {
                    name: "relu".into(),
                    train_flops_per_image: 1_000_000,
                    class: RateClass::MemoryBound {
                        bytes_per_image: 50_000_000,
                    },
                },
            ],
            params: 600_000,
            model_bytes: 2_400_000,
            image_bytes: 600_000,
            io_bw: 3.0e9,
            solver_flops_per_param: 12,
            solver_bytes_per_param: 24.0,
            solver_bw: 1.6e9,
        }
    }

    #[test]
    fn single_node_rate_is_sane() {
        let w = toy_workload();
        let knl = KnlModel::default();
        let r = w.single_node_rate(&knl, 8);
        assert!((5e11..4e12).contains(&r), "rate {r:.3e}");
        // Larger batches are more efficient.
        assert!(w.single_node_rate(&knl, 64) > w.single_node_rate(&knl, 2));
    }

    #[test]
    fn profile_includes_solver_and_io() {
        let w = toy_workload();
        let p = single_node_profile(&w, &KnlModel::default(), 8);
        assert_eq!(p.len(), w.layers.len() + 2);
        assert!(p.iter().any(|e| e.name == "solver" && e.secs > 0.0));
        assert!(p.iter().any(|e| e.name == "io" && e.secs > 0.0));
    }

    #[test]
    fn sim_is_deterministic_given_seed() {
        let cfg = SimConfig::new(toy_workload(), 16, 4, 64);
        let a = ClusterSim::new(cfg.clone()).run();
        let b = ClusterSim::new(cfg).run();
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.total_flops, b.total_flops);
    }

    #[test]
    fn sync_iterations_have_no_staleness() {
        let mut cfg = SimConfig::new(toy_workload(), 8, 1, 64).ideal();
        cfg.iterations = 10;
        let r = ClusterSim::new(cfg).run();
        assert_eq!(r.mean_staleness, 0.0);
        assert_eq!(r.iter_times[0].len(), 10);
    }

    #[test]
    fn hybrid_groups_have_staleness_near_group_count() {
        let mut cfg = SimConfig::new(toy_workload(), 16, 4, 64).ideal();
        cfg.iterations = 40;
        let r = ClusterSim::new(cfg).run();
        // In steady state every group sees ~G-1 other updates between its
        // own (plus start-up transients).
        assert!(
            r.mean_staleness > 1.5 && r.mean_staleness < 4.5,
            "staleness {}",
            r.mean_staleness
        );
    }

    #[test]
    fn more_nodes_increase_throughput_ideal() {
        let mut t = Vec::new();
        for nodes in [1usize, 4, 16] {
            let mut cfg = SimConfig::new(toy_workload(), nodes, 1, 256).ideal();
            cfg.iterations = 10;
            let r = ClusterSim::new(cfg).run();
            t.push(r.images_per_sec());
        }
        assert!(t[1] > t[0] * 2.0, "4 nodes ≥ 2x: {t:?}");
        assert!(t[2] > t[1] * 2.0, "16 nodes ≥ 2x over 4: {t:?}");
    }

    #[test]
    fn strong_scaling_sync_saturates_with_jitter() {
        // Fixed total batch: per-node batch shrinks with node count and
        // stragglers grow — the Fig. 6 mechanism.
        let run = |nodes: usize| {
            let mut cfg = SimConfig::new(toy_workload(), nodes, 1, 2048);
            cfg.iterations = 12;
            cfg.seed = 7;
            ClusterSim::new(cfg).run().images_per_sec()
        };
        let t256 = run(256);
        let t1024 = run(1024);
        let speedup = t1024 / t256;
        // Far from the ideal 4x.
        assert!(
            speedup < 3.0,
            "sync strong scaling should saturate: {speedup}"
        );
    }

    #[test]
    fn hybrid_beats_sync_at_scale_strong_scaling() {
        let run = |groups: usize| {
            let mut cfg = SimConfig::new(toy_workload(), 1024, groups, 2048);
            cfg.iterations = 12;
            cfg.seed = 11;
            ClusterSim::new(cfg).run().images_per_sec()
        };
        let sync = run(1);
        let hybrid4 = run(4);
        assert!(
            hybrid4 > sync,
            "hybrid-4 {hybrid4} should beat sync {sync} at 1024 nodes"
        );
    }

    #[test]
    fn failure_kills_sync_but_not_hybrid() {
        let deadly = JitterModel {
            fail_rate_per_node_hour: 50.0,
            ..JitterModel::none()
        };
        let mut sync_cfg = SimConfig::new(toy_workload(), 64, 1, 512);
        sync_cfg.jitter = deadly.clone();
        sync_cfg.iterations = 2000;
        let sync = ClusterSim::new(sync_cfg).run();
        assert!(sync.failure_at.is_some());
        assert_eq!(sync.live_groups, 0);

        let mut hyb_cfg = SimConfig::new(toy_workload(), 64, 4, 512);
        hyb_cfg.jitter = deadly;
        hyb_cfg.iterations = 2000;
        let hyb = ClusterSim::new(hyb_cfg).run();
        assert!(hyb.failure_at.is_some());
        assert_eq!(hyb.live_groups, 3, "hybrid should lose exactly one group");
    }

    #[test]
    fn checkpoint_overhead_lowers_sustained_rate() {
        let mut with = SimConfig::new(toy_workload(), 8, 1, 64).ideal();
        with.iterations = 30;
        with.checkpoint_every = 5;
        with.fs_bw = 1.0e6; // slow FS to make it visible
        let r_with = ClusterSim::new(with).run();

        let mut without = SimConfig::new(toy_workload(), 8, 1, 64).ideal();
        without.iterations = 30;
        let r_without = ClusterSim::new(without).run();

        assert!(r_with.sustained_rate < r_without.sustained_rate);
        assert!(r_with.peak_rate >= r_with.sustained_rate);
    }

    #[test]
    fn comm_overlap_never_hurts_and_helps_big_models() {
        // A workload with a heavy model (large all-reduce) benefits from
        // overlap; overlap must never make an iteration slower.
        let mut w = toy_workload();
        w.model_bytes = 320 * 1024 * 1024; // climate-sized
        let run = |overlap: bool| {
            let mut cfg = SimConfig::new(w.clone(), 256, 1, 2048).ideal();
            cfg.iterations = 6;
            cfg.overlap_comm = overlap;
            ClusterSim::new(cfg).run().images_per_sec()
        };
        let plain = run(false);
        let overlapped = run(true);
        assert!(
            overlapped > plain * 1.02,
            "overlap should hide a heavy all-reduce: {plain} vs {overlapped}"
        );
    }

    #[test]
    fn planned_group_crash_without_recovery_matches_jitter_failure_story() {
        let mut cfg = SimConfig::new(toy_workload(), 16, 4, 64).ideal();
        cfg.iterations = 20;
        cfg.faults = crate::faults::FaultPlan::none().with_group_crash(2, 5);
        let r = ClusterSim::new(cfg).run();
        assert!(r.failure_at.is_some());
        assert_eq!(r.live_groups, 3);
        assert_eq!(r.recovered_iterations, 0);
        assert_eq!(r.iter_times[2].len(), 5, "group 2 dies before iteration 5");
        assert_eq!(r.iter_times[0].len(), 20, "others run to completion");
    }

    #[test]
    fn recovery_brings_a_crashed_group_back() {
        let mut cfg = SimConfig::new(toy_workload(), 16, 4, 64).ideal();
        cfg.iterations = 20;
        cfg.faults = crate::faults::FaultPlan::none()
            .with_group_crash(2, 5)
            .with_recovery(2, 0.5);
        let r = ClusterSim::new(cfg).run();
        assert_eq!(r.live_groups, 4, "the crashed group must rejoin");
        assert_eq!(r.iter_times[2].len(), 20, "it finishes all its iterations");
        assert_eq!(
            r.recovered_iterations, 15,
            "iterations 5..20 ran post-recovery"
        );
        assert!(r.failure_at.is_some());
    }

    #[test]
    fn recovery_does_not_resurrect_a_synchronous_run() {
        let mut cfg = SimConfig::new(toy_workload(), 8, 1, 64).ideal();
        cfg.iterations = 20;
        cfg.faults = crate::faults::FaultPlan::none()
            .with_group_crash(0, 3)
            .with_recovery(2, 0.5);
        let r = ClusterSim::new(cfg).run();
        assert_eq!(r.live_groups, 0, "sync has no surviving state to rejoin");
        assert_eq!(r.recovered_iterations, 0);
        assert_eq!(r.iter_times[0].len(), 3);
    }

    #[test]
    fn node_crash_stops_its_group_for_good_even_with_recovery() {
        // As in the thread engine: a lost node takes its group down
        // before iteration k, and no recovery policy brings it back.
        let mut cfg = SimConfig::new(toy_workload(), 16, 4, 64).ideal();
        cfg.iterations = 20;
        cfg.faults = crate::faults::FaultPlan::none()
            .with_node_crash(1, 2, 6)
            .with_recovery(2, 0.5);
        let r = ClusterSim::new(cfg).run();
        assert_eq!(
            r.iter_times[1].len(),
            6,
            "group 1 completes exactly 6 iterations"
        );
        assert_eq!(r.live_groups, 3);
        assert_eq!(r.recovered_iterations, 0, "a lost node is not repaired");
        assert!(r.failure_at.is_some());
        for g in [0, 2, 3] {
            assert_eq!(r.iter_times[g].len(), 20, "group {g} runs to completion");
        }
    }

    #[test]
    fn recovered_group_staleness_counts_from_its_restart() {
        // Every update's staleness is the number of updates applied since
        // its group last took the model: at its previous update, or at its
        // restart after a crash — the thread engine's rule.
        struct Log {
            applied: u64,
            synced: Vec<u64>,
            recovered_updates: usize,
        }
        impl Observer for Log {
            fn start(&mut self, _: f64, g: usize, _: usize) {
                self.synced[g] = self.applied;
            }
            fn done(&mut self, t: &IterBreakdown) {
                let (g, iter) = (t.group, t.iter);
                assert_eq!(
                    t.staleness,
                    self.applied - self.synced[g],
                    "group {g} iteration {iter}"
                );
                self.applied += 1;
                self.recovered_updates += usize::from(g == 2 && iter >= 5);
            }
        }
        let mut cfg = SimConfig::new(toy_workload(), 16, 4, 64).ideal();
        cfg.iterations = 20;
        cfg.faults = crate::faults::FaultPlan::none()
            .with_group_crash(2, 5)
            .with_recovery(2, 0.5);
        let mut log = Log {
            applied: 0,
            synced: vec![0; 4],
            recovered_updates: 0,
        };
        let r = ClusterSim::new(cfg).run_with(&mut log);
        assert_eq!(log.applied, 80);
        assert_eq!(log.recovered_updates, 15);
        assert_eq!(r.recovered_iterations, 15);
    }

    #[test]
    fn straggler_window_slows_only_its_group_and_window() {
        let base = {
            let mut cfg = SimConfig::new(toy_workload(), 16, 4, 64).ideal();
            cfg.iterations = 10;
            ClusterSim::new(cfg).run()
        };
        let slow = {
            let mut cfg = SimConfig::new(toy_workload(), 16, 4, 64).ideal();
            cfg.iterations = 10;
            cfg.faults = crate::faults::FaultPlan::none().with_straggler(1, 2, 6, 4.0);
            ClusterSim::new(cfg).run()
        };
        assert!(slow.total_time > base.total_time);
        // Inside the window group 1 is ~4x slower than its own baseline.
        assert!(slow.iter_times[1][3] > 2.0 * base.iter_times[1][3]);
        // Outside the window it matches the baseline.
        assert!((slow.iter_times[1][8] - base.iter_times[1][8]).abs() < 1e-9);
    }

    #[test]
    fn ps_crash_repair_stalls_but_run_completes() {
        let base = {
            let mut cfg = SimConfig::new(toy_workload(), 16, 4, 64).ideal();
            cfg.iterations = 12;
            ClusterSim::new(cfg).run()
        };
        let crashed = {
            let mut cfg = SimConfig::new(toy_workload(), 16, 4, 64).ideal();
            cfg.iterations = 12;
            cfg.faults = crate::faults::FaultPlan::none().with_ps_crash(0, 8, 5.0);
            ClusterSim::new(cfg).run()
        };
        assert_eq!(crashed.ps_respawns, 1);
        assert_eq!(crashed.live_groups, 4, "a PS repair must not kill groups");
        assert_eq!(
            crashed.images, base.images,
            "all iterations still complete after the PS repair"
        );
        assert!(
            crashed.total_time > base.total_time + 4.0,
            "repair time is visible"
        );
    }

    #[test]
    fn message_delay_shows_up_in_one_iteration() {
        let mut cfg = SimConfig::new(toy_workload(), 16, 4, 64).ideal();
        cfg.iterations = 10;
        cfg.faults = crate::faults::FaultPlan::none().with_message_delay(0, 4, 2.0);
        let r = ClusterSim::new(cfg).run();
        let mut base_cfg = SimConfig::new(toy_workload(), 16, 4, 64).ideal();
        base_cfg.iterations = 10;
        let base = ClusterSim::new(base_cfg).run();
        assert!(r.iter_times[0][4] >= base.iter_times[0][4] + 2.0);
    }

    #[test]
    fn split_even_conserves_totals() {
        for (total, parts) in [
            (100u64, 16usize),
            (2_411_724, 6),
            (321_120_352, 14),
            (5, 16),
            (0, 4),
        ] {
            let shards = split_even(total, parts);
            assert_eq!(shards.len(), parts);
            assert_eq!(shards.iter().sum::<u64>(), total, "{total} over {parts}");
            let (min, max) = (shards.iter().min().unwrap(), shards.iter().max().unwrap());
            assert!(max - min <= 1, "shards must be balanced: {shards:?}");
        }
    }

    #[test]
    fn ps_shards_conserve_model_bytes_wire_and_params() {
        // The wire-bytes case: a compressed gradient's wire size, split
        // over the bank like the dense model bytes and the parameters,
        // conserves its total at every bank size.
        let mut cfg = SimConfig::new(toy_workload(), 16, 4, 64).ideal();
        assert_eq!(cfg.wire_bytes, cfg.workload.model_bytes, "dense by default");
        cfg.wire_bytes = 480_017;
        for num_ps in [1usize, 6, 14, 16] {
            for total in [
                cfg.workload.model_bytes,
                cfg.wire_bytes,
                cfg.workload.params,
            ] {
                assert_eq!(
                    split_even(total, num_ps).iter().sum::<u64>(),
                    total,
                    "{num_ps}"
                );
            }
        }
        // Setting the dense size explicitly is the default run bit for
        // bit; fewer wire bytes shorten the all-reduce and the PS up-leg.
        let dense = ClusterSim::new(SimConfig::new(toy_workload(), 16, 4, 64)).run();
        let mut same = SimConfig::new(toy_workload(), 16, 4, 64);
        same.wire_bytes = same.workload.model_bytes;
        let mut small = same.clone();
        small.wire_bytes /= 10;
        assert_eq!(ClusterSim::new(same).run().timeline, dense.timeline);
        assert!(ClusterSim::new(small).run().total_time < dense.total_time);
    }

    #[test]
    fn observer_sees_every_iteration_and_cannot_move_the_clock() {
        #[derive(Default)]
        struct Log {
            starts: Vec<(usize, usize, f64)>,
            dones: Vec<IterBreakdown>,
        }
        impl Observer for Log {
            fn start(&mut self, start: f64, group: usize, iter: usize) {
                self.starts.push((group, iter, start));
            }
            fn done(&mut self, t: &IterBreakdown) {
                self.dones.push(*t);
            }
        }
        let mut cfg = SimConfig::new(toy_workload(), 16, 4, 64);
        cfg.iterations = 10;
        cfg.overlap_comm = true;
        cfg.checkpoint_every = 3;
        cfg.faults = FaultPlan::none()
            .with_straggler(1, 2, 5, 3.0)
            .with_message_delay(2, 4, 0.05);
        let window = |t: &IterBreakdown| t.group == 1 && (2..5).contains(&t.iter);
        for cfg in [cfg.clone(), cfg.ideal()] {
            let ideal = cfg.jitter.sigma == 0.0;
            let plain = ClusterSim::new(cfg.clone()).run();
            let mut log = Log::default();
            let seen = ClusterSim::new(cfg).run_with(&mut log);
            assert_eq!(seen.timeline, plain.timeline);
            assert_eq!(seen.total_time, plain.total_time);
            assert_eq!(log.starts.len(), 40);
            assert_eq!(log.dones.len(), 40);
            let mut stale_sum = 0;
            for (t, &(tg, start, end)) in log.dones.iter().zip(&plain.timeline) {
                assert_eq!((t.group, t.start, t.end), (tg, start, end));
                assert!(
                    log.starts.contains(&(t.group, t.iter, start)),
                    "every completed iteration was started"
                );
                // The parts tile the iteration, checkpoint stall included.
                let parts = t.compute + t.straggler + t.allreduce + t.ps + t.checkpoint;
                assert!(
                    (parts - (end - start)).abs() < 1e-9 * end.max(1.0),
                    "{parts} vs {}",
                    end - start
                );
                assert!(t.hidden >= 0.0 && t.ps > 0.0 && t.straggler >= 0.0);
                assert_eq!(t.checkpoint > 0.0, (t.iter + 1) % 3 == 0);
                if ideal {
                    assert_eq!(
                        t.straggler > 0.0,
                        window(t),
                        "group {} iter {}",
                        t.group,
                        t.iter
                    );
                }
                stale_sum += t.staleness;
            }
            assert_eq!(stale_sum as f64 / 40.0, plain.mean_staleness);
            // The delay lands in the PS leg of the iteration it precedes.
            let delayed = log
                .dones
                .iter()
                .find(|t| (t.group, t.iter) == (2, 4))
                .unwrap();
            assert!(
                delayed.ps >= 0.05,
                "the delay is booked under ps: {delayed:?}"
            );
        }
    }

    #[test]
    fn ps_charges_exactly_model_bytes_across_shards() {
        // Regression for the truncating shard sizing: with a model size
        // that is not a multiple of the PS count, the total charged
        // exchange time must reflect *all* bytes. A sim with the true
        // model size must be at least as slow as one with the truncated
        // size actually charged by the old code.
        let mut w = toy_workload();
        w.model_bytes = 16 * 1_000_000 + 15; // 15 remainder bytes lost pre-fix
        w.params = 16 * 250_000 + 7;
        let num_ps = 16;
        let shards = split_even(w.model_bytes, num_ps);
        assert_eq!(shards.iter().sum::<u64>(), w.model_bytes);

        // Per-exchange charged bytes: each shard moves its bytes up and
        // down once per group iteration.
        let net = AriesModel::default();
        let charged: f64 = shards.iter().map(|&b| 2.0 * net.p2p_time(b)).sum();
        let truncated: f64 = (0..num_ps)
            .map(|_| 2.0 * net.p2p_time(w.model_bytes / num_ps as u64))
            .sum();
        assert!(
            charged > truncated,
            "remainder bytes must show up in the cost"
        );

        let mut cfg = SimConfig::new(w, 16, 4, 64).ideal();
        cfg.iterations = 8;
        cfg.num_ps = num_ps;
        let r = ClusterSim::new(cfg).run();
        assert_eq!(r.iter_times.iter().map(Vec::len).sum::<usize>(), 32);
    }

    #[test]
    fn topology_flat_ring_is_slower_than_plain_model() {
        // A placed flat ring pays contention and optical hops on top of
        // the plain Aries cost, so throughput can only drop.
        let mut w = toy_workload();
        w.model_bytes = 32 * 1024 * 1024;
        let run = |topology: Option<TopologyConfig>| {
            let mut cfg = SimConfig::new(w.clone(), 2048, 1, 4096).ideal();
            cfg.iterations = 6;
            cfg.topology = topology;
            ClusterSim::new(cfg).run().images_per_sec()
        };
        let plain = run(None);
        let flat = run(Some(TopologyConfig::packed(CollectiveKind::FlatRing)));
        assert!(
            flat < plain,
            "placed flat ring must pay topology costs: {flat} vs {plain}"
        );
    }

    #[test]
    fn hierarchical_collective_beats_flat_ring_at_2048() {
        let mut w = toy_workload();
        w.model_bytes = 32 * 1024 * 1024;
        let run = |collective: CollectiveKind| {
            let mut cfg = SimConfig::new(w.clone(), 2048, 1, 4096);
            cfg.iterations = 8;
            cfg.seed = 42;
            cfg.topology = Some(TopologyConfig::packed(collective));
            ClusterSim::new(cfg).run().images_per_sec()
        };
        // Same seed → identical jitter streams; only the collective model
        // differs, so hierarchical wins deterministically.
        let flat = run(CollectiveKind::FlatRing);
        let hier = run(CollectiveKind::Hierarchical);
        assert!(
            hier > flat,
            "hierarchical should beat flat at 2048 nodes: {hier} vs {flat}"
        );
    }

    #[test]
    fn gossip_runs_without_ps_and_keeps_groups_independent() {
        let mut cfg = SimConfig::new(toy_workload(), 16, 4, 64).ideal();
        cfg.iterations = 20;
        cfg.gossip = true;
        let r = ClusterSim::new(cfg).run();
        assert_eq!(r.iter_times.iter().map(Vec::len).sum::<usize>(), 80);
        assert_eq!(r.live_groups, 4);
        assert!(
            r.mean_staleness > 0.0,
            "gossip averaging is still asynchronous"
        );

        // Gossip exchanges a model p2p + broadcast instead of queueing on
        // the PS bank: with many groups hammering few shards, gossip must
        // be faster per iteration.
        let mut ps_cfg = SimConfig::new(toy_workload(), 16, 8, 64).ideal();
        ps_cfg.iterations = 20;
        ps_cfg.num_ps = 1; // pathological PS bottleneck
        let ps = ClusterSim::new(ps_cfg.clone()).run();
        let mut go_cfg = ps_cfg;
        go_cfg.gossip = true;
        let go = ClusterSim::new(go_cfg).run();
        assert!(
            go.total_time < ps.total_time,
            "gossip should dodge the PS bottleneck: {} vs {}",
            go.total_time,
            ps.total_time
        );
    }

    #[test]
    fn events_processed_counts_the_run() {
        // Hybrid: one GroupLocalDone + one GroupIterDone per group
        // iteration, whatever the node count — O(1) work per group
        // iteration up to twice the paper's machine, on the packed
        // hierarchical-collective topology.
        let grid = [
            (16, 4, 10),
            (1024, 4, 1000),
            (4096, 8, 1000),
            (9688, 8, 1000),
            (19_376, 16, 1000),
        ];
        for (nodes, groups, iterations) in grid {
            let mut cfg =
                SimConfig::new(toy_workload(), nodes, groups, 8 * (nodes / groups)).ideal();
            cfg.iterations = iterations;
            cfg.seed = 0x51CA1E ^ nodes as u64;
            cfg.topology = Some(TopologyConfig::packed(CollectiveKind::Hierarchical));
            let r = ClusterSim::new(cfg).run();
            assert_eq!(
                r.events_processed,
                2 * (groups * iterations) as u64,
                "{nodes} nodes"
            );
        }
    }

    #[test]
    fn failure_horizon_covers_communication_dominated_runs_at_9688() {
        // A 9688-node hybrid run whose per-iteration time is dominated by
        // the PS exchange (huge model, tiny compute): the seed's
        // compute-only horizon estimate would undershoot the real run
        // length by an order of magnitude and the pre-sampled MTBF
        // failure would land past the end. With the full-iteration
        // estimate the failure fires mid-run.
        let mut w = toy_workload();
        w.model_bytes = 320 * 1024 * 1024; // climate-sized exchanges
        for l in &mut w.layers {
            l.train_flops_per_image /= 100; // compute is negligible
        }
        let mut cfg = SimConfig::new(w, 9688, 8, 9688);
        cfg.iterations = 1000;
        cfg.num_ps = 14;
        cfg.seed = 0x9688;
        // MTBF tuned so the expected first failure lands well inside the
        // communication-dominated run but *past* the compute-only
        // horizon the old estimate produced.
        cfg.jitter = JitterModel {
            fail_rate_per_node_hour: 7.0e-3,
            ..JitterModel::default()
        };
        let r = ClusterSim::new(cfg.clone()).run();
        let compute_only_horizon =
            cfg.workload.node_iteration_time(&cfg.knl, 8) * cfg.iterations as f64 * 1.5;
        let failure = r
            .failure_at
            .expect("mid-run MTBF failure must fire at 9688 nodes");
        assert!(
            failure > compute_only_horizon,
            "failure at {failure:.1}s should be beyond the compute-only horizon \
             ({compute_only_horizon:.1}s) the old estimate used"
        );
        assert!(
            failure < r.total_time,
            "failure fires mid-run, not after it"
        );
        assert_eq!(r.live_groups, 7, "one group lost, seven carry on");
    }

    #[test]
    fn peak_at_least_sustained_at_least_zero() {
        let mut cfg = SimConfig::new(toy_workload(), 32, 2, 256);
        cfg.iterations = 20;
        let r = ClusterSim::new(cfg).run();
        assert!(r.peak_rate >= r.sustained_rate);
        assert!(r.sustained_rate > 0.0);
    }
}
