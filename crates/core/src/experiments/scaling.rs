//! Scaling studies (Figs. 6–7) and full-system throughput (Sec. VI-B3),
//! run on the calibrated cluster simulator.

use scidl_cluster::sim::{ClusterSim, SimConfig, Workload};
use scidl_cluster::{CollectiveKind, TopologyConfig};

/// Knobs shared by the scaling studies: which interconnect model to
/// charge for collectives (`None` = the plain non-topology ring) and
/// whether groups exchange models by gossip instead of through the PS.
#[derive(Clone, Debug, Default)]
pub struct ScalingOptions {
    /// Dragonfly topology + placement + collective algorithm; `None`
    /// charges the plain Aries ring regardless of placement.
    pub topology: Option<TopologyConfig>,
    /// Replace the parameter-server exchange with decentralized
    /// averaging between group roots.
    pub gossip: bool,
}

impl ScalingOptions {
    /// Packed placement with the hierarchical two-level collective.
    pub fn hierarchical() -> Self {
        ScalingOptions {
            topology: Some(TopologyConfig::packed(CollectiveKind::Hierarchical)),
            gossip: false,
        }
    }

    /// Packed placement with the flat topology-placed ring.
    pub fn flat() -> Self {
        ScalingOptions {
            topology: Some(TopologyConfig::packed(CollectiveKind::FlatRing)),
            gossip: false,
        }
    }
}

/// One point of a scaling curve.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Compute nodes.
    pub nodes: usize,
    /// Compute groups (1 = synchronous).
    pub groups: usize,
    /// Throughput in images/second.
    pub images_per_sec: f64,
    /// Speedup over the single-node baseline of the same study.
    pub speedup: f64,
    /// Mean update staleness.
    pub staleness: f64,
}

/// Strong scaling (Fig. 6): fixed batch of `batch` per synchronous
/// group; the hybrid configurations assign each group a complete batch.
/// Returns one row per `(nodes, groups)` combination, with speedups
/// relative to a single-node run at the same batch.
pub fn strong_scaling(
    workload: &Workload,
    node_counts: &[usize],
    group_counts: &[usize],
    batch: usize,
    iterations: usize,
    seed: u64,
    opts: &ScalingOptions,
) -> Vec<ScalingRow> {
    sweep(
        workload,
        node_counts,
        group_counts,
        iterations,
        seed,
        opts,
        |_, _| batch,
    )
}

/// Weak scaling (Fig. 7): fixed batch per node (8 in the paper).
pub fn weak_scaling(
    workload: &Workload,
    node_counts: &[usize],
    group_counts: &[usize],
    batch_per_node: usize,
    iterations: usize,
    seed: u64,
    opts: &ScalingOptions,
) -> Vec<ScalingRow> {
    sweep(
        workload,
        node_counts,
        group_counts,
        iterations,
        seed,
        opts,
        |nodes, groups| batch_per_node * (nodes / groups),
    )
}

/// The `(groups, nodes)` grid behind both scaling studies, which differ
/// only in `batch_per_group(nodes, groups)`; speedups are relative to a
/// single-node run at `batch_per_group(1, 1)`.
fn sweep(
    workload: &Workload,
    node_counts: &[usize],
    group_counts: &[usize],
    iterations: usize,
    seed: u64,
    opts: &ScalingOptions,
    batch_per_group: impl Fn(usize, usize) -> usize,
) -> Vec<ScalingRow> {
    let base_ips = {
        let mut cfg = SimConfig::new(workload.clone(), 1, 1, batch_per_group(1, 1));
        cfg.iterations = iterations;
        cfg.seed = seed;
        ClusterSim::new(cfg).run().images_per_sec()
    };
    let mut rows = Vec::new();
    for &groups in group_counts {
        for &nodes in node_counts {
            if nodes < groups {
                continue;
            }
            let mut cfg = SimConfig::new(
                workload.clone(),
                nodes,
                groups,
                batch_per_group(nodes, groups),
            );
            cfg.iterations = iterations;
            cfg.seed = seed ^ (nodes as u64) << 8 ^ groups as u64;
            cfg.topology = opts.topology.clone();
            cfg.gossip = opts.gossip && groups > 1;
            let r = ClusterSim::new(cfg).run();
            rows.push(ScalingRow {
                nodes,
                groups,
                images_per_sec: r.images_per_sec(),
                speedup: r.images_per_sec() / base_ips,
                staleness: r.mean_staleness,
            });
        }
    }
    rows
}

/// One node count of the flat-vs-hierarchical collective comparison.
#[derive(Clone, Debug)]
pub struct CollectiveRow {
    /// Compute nodes.
    pub nodes: usize,
    /// Throughput with the topology-placed flat ring (images/second).
    pub flat_ips: f64,
    /// Throughput with the hierarchical two-level collective.
    pub hier_ips: f64,
    /// Total simulated seconds, flat ring.
    pub flat_secs: f64,
    /// Total simulated seconds, hierarchical.
    pub hier_secs: f64,
}

impl CollectiveRow {
    /// Hierarchical throughput gain over the flat ring (≥ 1 at scale).
    pub fn gain(&self) -> f64 {
        self.hier_ips / self.flat_ips
    }
}

/// Same-seed flat-ring vs hierarchical runs over a node sweep: each
/// pair shares every RNG draw, so the only difference is the collective
/// cost model. Weak scaling at `batch_per_node`, `groups` compute
/// groups.
pub fn collective_comparison(
    workload: &Workload,
    node_counts: &[usize],
    groups: usize,
    batch_per_node: usize,
    iterations: usize,
    seed: u64,
) -> Vec<CollectiveRow> {
    let mut rows = Vec::new();
    for &nodes in node_counts {
        if nodes < groups {
            continue;
        }
        let batch_per_group = batch_per_node * (nodes / groups);
        let run = |collective: CollectiveKind| {
            let mut cfg = SimConfig::new(workload.clone(), nodes, groups, batch_per_group);
            cfg.iterations = iterations;
            cfg.seed = seed ^ (nodes as u64) << 8;
            cfg.topology = Some(TopologyConfig::packed(collective));
            ClusterSim::new(cfg).run()
        };
        let flat = run(CollectiveKind::FlatRing);
        let hier = run(CollectiveKind::Hierarchical);
        rows.push(CollectiveRow {
            nodes,
            flat_ips: flat.images_per_sec(),
            hier_ips: hier.images_per_sec(),
            flat_secs: flat.total_time,
            hier_secs: hier.total_time,
        });
    }
    rows
}

/// One contender of the architecture shoot-out.
#[derive(Clone, Debug)]
pub struct ShootoutRow {
    /// Contender label.
    pub label: &'static str,
    /// Compute nodes.
    pub nodes: usize,
    /// Compute groups.
    pub groups: usize,
    /// Achieved throughput (images/second).
    pub images_per_sec: f64,
    /// Sustained PFLOP/s.
    pub sustained_pflops: f64,
    /// Mean update staleness.
    pub staleness: f64,
}

/// Three-way shoot-out at a fixed node count: fully-synchronous
/// all-reduce, the paper's hybrid parameter-server design, and
/// gossip/decentralized averaging between group roots. All three run
/// with packed placement and the hierarchical collective, batch 8/node.
pub fn architecture_shootout(
    workload: &Workload,
    nodes: usize,
    groups: usize,
    iterations: usize,
    seed: u64,
) -> Vec<ShootoutRow> {
    let run = |label: &'static str, g: usize, gossip: bool| {
        let mut cfg = SimConfig::new(workload.clone(), nodes, g, 8 * (nodes / g));
        cfg.iterations = iterations;
        cfg.seed = seed;
        cfg.topology = Some(TopologyConfig::packed(CollectiveKind::Hierarchical));
        cfg.gossip = gossip;
        let r = ClusterSim::new(cfg).run();
        ShootoutRow {
            label,
            nodes,
            groups: g,
            images_per_sec: r.images_per_sec(),
            sustained_pflops: r.sustained_rate / 1e15,
            staleness: r.mean_staleness,
        }
    };
    vec![
        run("fully-sync", 1, false),
        run("hybrid PS", groups, false),
        run("gossip", groups, true),
    ]
}

/// Full-system throughput (Sec. VI-B3).
#[derive(Clone, Debug)]
pub struct FullSystemResult {
    /// Peak system FLOP rate (PFLOP/s).
    pub peak_pflops: f64,
    /// Sustained system FLOP rate (PFLOP/s).
    pub sustained_pflops: f64,
    /// Speedup of sustained throughput over one node.
    pub speedup_vs_single: f64,
    /// Mean iteration seconds per group.
    pub mean_iter_secs: f64,
    /// Mean staleness.
    pub staleness: f64,
}

/// Runs the paper's full-system configuration: `nodes` compute nodes in
/// `groups` groups with `batch_per_group`, checkpointing every
/// `checkpoint_every` iterations (the climate number includes a snapshot
/// every 10 iterations). The 9,688-node reproduction row passes the
/// topology-aware options.
#[allow(clippy::too_many_arguments)]
pub fn full_system(
    workload: &Workload,
    nodes: usize,
    groups: usize,
    batch_per_group: usize,
    iterations: usize,
    checkpoint_every: usize,
    seed: u64,
    opts: &ScalingOptions,
) -> FullSystemResult {
    let mut cfg = SimConfig::new(workload.clone(), nodes, groups, batch_per_group);
    cfg.iterations = iterations;
    cfg.checkpoint_every = checkpoint_every;
    cfg.seed = seed;
    cfg.topology = opts.topology.clone();
    cfg.gossip = opts.gossip && groups > 1;
    let r = ClusterSim::new(cfg).run();

    // Single-node baseline rate for the speedup quote (6173x / 7205x in
    // the paper).
    let single = {
        let mut c = SimConfig::new(workload.clone(), 1, 1, 8);
        c.iterations = iterations.min(10);
        c.seed = seed;
        ClusterSim::new(c).run()
    };

    let all_iters: Vec<f64> = r.iter_times.iter().flatten().copied().collect();
    let mean_iter = all_iters.iter().sum::<f64>() / all_iters.len().max(1) as f64;

    FullSystemResult {
        peak_pflops: r.peak_rate / 1e15,
        sustained_pflops: r.sustained_rate / 1e15,
        speedup_vs_single: r.sustained_rate / single.average_rate(),
        mean_iter_secs: mean_iter,
        staleness: r.mean_staleness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::hep_workload;

    #[test]
    fn strong_scaling_rows_cover_grid() {
        let rows = strong_scaling(
            &hep_workload(),
            &[1, 16, 64],
            &[1, 2],
            256,
            6,
            3,
            &ScalingOptions::default(),
        );
        // groups=2 is skipped at nodes=1.
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.speedup > 0.0));
    }

    #[test]
    fn single_node_speedup_is_one() {
        let rows = strong_scaling(
            &hep_workload(),
            &[1],
            &[1],
            64,
            6,
            3,
            &ScalingOptions::default(),
        );
        assert!(
            (rows[0].speedup - 1.0).abs() < 0.25,
            "speedup {}",
            rows[0].speedup
        );
    }

    #[test]
    fn weak_scaling_grows_with_nodes() {
        let rows = weak_scaling(
            &hep_workload(),
            &[1, 16, 64],
            &[1],
            8,
            20,
            5,
            &ScalingOptions::default(),
        );
        assert!(rows[1].speedup > 8.0, "16 nodes: {}", rows[1].speedup);
        assert!(
            rows[2].speedup > rows[1].speedup * 2.0,
            "64 nodes {} vs 16 nodes {}",
            rows[2].speedup,
            rows[1].speedup
        );
    }

    #[test]
    fn full_system_reports_positive_rates() {
        let r = full_system(
            &hep_workload(),
            256,
            4,
            512,
            8,
            0,
            7,
            &ScalingOptions::default(),
        );
        assert!(r.peak_pflops > 0.0);
        assert!(r.sustained_pflops > 0.0);
        assert!(r.peak_pflops >= r.sustained_pflops * 0.8);
        assert!(r.speedup_vs_single > 32.0);
    }

    #[test]
    fn collective_comparison_favors_hierarchical_at_scale() {
        let rows = collective_comparison(&hep_workload(), &[256, 2048], 4, 8, 5, 11);
        assert_eq!(rows.len(), 2);
        // Within one electrical group the two collectives are identical.
        assert!(
            (rows[0].gain() - 1.0).abs() < 1e-9,
            "256-node gain {}",
            rows[0].gain()
        );
        // Across many groups the hierarchical tree wins.
        assert!(rows[1].gain() > 1.0, "2048-node gain {}", rows[1].gain());
        assert!(rows[1].hier_secs < rows[1].flat_secs);
    }

    #[test]
    fn shootout_produces_three_contenders() {
        let rows = architecture_shootout(&hep_workload(), 512, 4, 5, 13);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].groups, 1);
        assert_eq!(rows[0].staleness, 0.0, "fully-sync has no staleness");
        assert!(rows
            .iter()
            .all(|r| r.images_per_sec > 0.0 && r.sustained_pflops > 0.0));
        // Hybrid and gossip split the machine into independent groups,
        // so their updates are stale; they stay in the same throughput
        // class as the synchronous run at this modest scale.
        assert!(rows[1].staleness > 0.0);
        assert!(rows[2].images_per_sec > rows[0].images_per_sec * 0.5);
    }

    #[test]
    fn topology_options_plumb_through_weak_scaling() {
        let flat = weak_scaling(
            &hep_workload(),
            &[2048],
            &[4],
            8,
            5,
            17,
            &ScalingOptions::flat(),
        );
        let hier = weak_scaling(
            &hep_workload(),
            &[2048],
            &[4],
            8,
            5,
            17,
            &ScalingOptions::hierarchical(),
        );
        assert!(
            hier[0].images_per_sec > flat[0].images_per_sec,
            "hier {} vs flat {}",
            hier[0].images_per_sec,
            flat[0].images_per_sec
        );
    }
}
