//! Dragonfly topology and compute-group placement (Fig. 3).
//!
//! Cori's Aries interconnect is a dragonfly: nodes attach to routers,
//! routers form all-to-all *electrical groups* (two cabinets each), and
//! groups connect through optical global links. Fig. 3 shows the paper's
//! ideal placement — compute groups laid out so intra-group all-reduce
//! traffic stays inside electrical groups, with parameter servers
//! reachable over the global links. This module models that: placements
//! map compute-group members to electrical groups, and the collective
//! cost model charges extra latency and shared-bandwidth contention for
//! traffic that crosses group boundaries.

use crate::aries::AriesModel;
use scidl_tensor::TensorRng;

/// Static dragonfly dimensions.
#[derive(Clone, Copy, Debug)]
pub struct Dragonfly {
    /// Nodes per electrical group (Cori: 384 — two cabinets).
    pub nodes_per_group: usize,
    /// Extra one-way latency of a global (optical, inter-group) hop.
    pub global_hop_latency: f64,
    /// Bandwidth de-rating per additional electrical group spanned by a
    /// collective (global links are shared).
    pub global_contention: f64,
}

impl Default for Dragonfly {
    fn default() -> Self {
        Self {
            nodes_per_group: 384,
            global_hop_latency: 1.5e-6,
            global_contention: 0.04,
        }
    }
}

/// An assignment of compute nodes to electrical groups.
#[derive(Clone, Debug)]
pub struct Placement {
    /// `electrical_group[i]` for each node `i` of the compute group.
    pub electrical_group: Vec<usize>,
}

impl Placement {
    /// The ideal Fig. 3 placement: nodes packed contiguously so a compute
    /// group spans the minimum number of electrical groups.
    pub fn contiguous(nodes: usize, fly: &Dragonfly) -> Self {
        Self {
            electrical_group: (0..nodes).map(|i| i / fly.nodes_per_group).collect(),
        }
    }

    /// A scattered placement: nodes land in random electrical groups of a
    /// machine with `machine_nodes` total nodes (what a busy scheduler
    /// without topology awareness produces).
    pub fn scattered(nodes: usize, machine_nodes: usize, fly: &Dragonfly, seed: u64) -> Self {
        let mut rng = TensorRng::new(seed ^ 0xD4A);
        let machine_groups = machine_nodes.div_ceil(fly.nodes_per_group).max(1);
        Self {
            electrical_group: (0..nodes).map(|_| rng.below(machine_groups)).collect(),
        }
    }

    /// Minimal-span *balanced* placement: the compute group occupies
    /// `ceil(n / nodes_per_group)` electrical groups in contiguous blocks
    /// of even size — what the dragonfly-aware scheduler of Fig. 3
    /// produces for one compute group. Balancing keeps the hierarchical
    /// collective's local rings equally long, so no electrical group
    /// straggles behind the others on the intra-group leg.
    pub fn balanced(nodes: usize, fly: &Dragonfly) -> Self {
        let span = nodes.div_ceil(fly.nodes_per_group.max(1)).max(1);
        let per = nodes.div_ceil(span);
        Self {
            electrical_group: (0..nodes).map(|i| i / per).collect(),
        }
    }

    /// Dragonfly-aware placement of a whole job: each compute group gets
    /// its own balanced run of electrical groups, starting on a fresh
    /// group boundary so no two compute groups share global links on
    /// their local legs (the Fig. 3 layout generalised to hybrid jobs).
    /// Returns one placement per compute group.
    pub fn pack_groups(group_sizes: &[usize], fly: &Dragonfly) -> Vec<Placement> {
        let mut first_free = 0usize;
        group_sizes
            .iter()
            .map(|&n| {
                let mut p = Placement::balanced(n, fly);
                for eg in &mut p.electrical_group {
                    *eg += first_free;
                }
                first_free += n.div_ceil(fly.nodes_per_group.max(1)).max(1);
                p
            })
            .collect()
    }

    /// Members in this compute group's most-populated electrical group —
    /// the ring length of the hierarchical collective's local leg.
    pub fn max_occupancy(&self) -> usize {
        let mut sorted: Vec<usize> = self.electrical_group.clone();
        sorted.sort_unstable();
        let mut best = 0usize;
        let mut run = 0usize;
        let mut prev = usize::MAX;
        for &g in &sorted {
            if g == prev {
                run += 1;
            } else {
                run = 1;
                prev = g;
            }
            best = best.max(run);
        }
        best
    }

    /// Number of distinct electrical groups this compute group spans.
    pub fn groups_spanned(&self) -> usize {
        let mut seen: Vec<usize> = self.electrical_group.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Fraction of ring-neighbour pairs whose link crosses an electrical
    /// group boundary (the traffic that uses global links in a ring
    /// all-reduce).
    pub fn boundary_fraction(&self) -> f64 {
        let n = self.electrical_group.len();
        if n <= 1 {
            return 0.0;
        }
        let crossings = (0..n)
            .filter(|&i| self.electrical_group[i] != self.electrical_group[(i + 1) % n])
            .count();
        crossings as f64 / n as f64
    }
}

/// Placement-aware all-reduce time: the base [`AriesModel`] cost plus
/// global-hop latency on the crossing steps and contention de-rating of
/// the bandwidth term when the collective spans many electrical groups.
pub fn allreduce_time_placed(
    net: &AriesModel,
    fly: &Dragonfly,
    placement: &Placement,
    bytes: u64,
) -> f64 {
    let nodes = placement.electrical_group.len();
    if nodes <= 1 {
        return 0.0;
    }
    let base = net.allreduce_time(nodes, bytes);
    let spanned = placement.groups_spanned();
    let crossing = placement.boundary_fraction();
    // Latency: each of the 2(n-1) ring steps that crosses a boundary pays
    // the optical hop; we charge the average over the pipeline depth.
    let steps = 2.0 * (nodes as f64 - 1.0);
    let lat_extra = steps * crossing * fly.global_hop_latency;
    // Bandwidth: global links shared between the spanned groups.
    let bw_derate = 1.0 + fly.global_contention * (spanned.saturating_sub(1)) as f64;
    base * bw_derate + lat_extra
}

/// Topology-aware hierarchical all-reduce: a ring reduce-scatter +
/// allgather *inside* each electrical group (pure electrical traffic, the
/// base [`AriesModel`] cost for the longest local ring), then a
/// binomial-tree all-reduce across the spanned electrical groups on the
/// locally-reduced shards (`bytes / max_occupancy` per rank) — the only
/// leg charged the [`Dragonfly`] optical-hop latency and shared-link
/// contention. When the flat placed ring is cheaper (small spans, tiny
/// messages) that algorithm is selected instead, as real collective
/// libraries do, so the hierarchical choice never loses to the flat one.
pub fn hierarchical_allreduce_time(
    net: &AriesModel,
    fly: &Dragonfly,
    placement: &Placement,
    bytes: u64,
) -> f64 {
    let nodes = placement.electrical_group.len();
    if nodes <= 1 {
        return 0.0;
    }
    let flat = allreduce_time_placed(net, fly, placement, bytes);
    let spanned = placement.groups_spanned();
    if spanned <= 1 {
        return flat;
    }
    let m = placement.max_occupancy().max(1);
    // Local leg: ring all-reduce over the longest intra-group ring. Every
    // electrical group runs in parallel; the longest one gates the job.
    let local = net.allreduce_time(m, bytes);
    // Inter leg: each local rank joins a tree over its peers in the other
    // electrical groups, carrying its locally-reduced shard. Optical-hop
    // latency on every round; bandwidth derated by the number of groups
    // sharing the global links.
    let shard = bytes as f64 / m as f64;
    let bw_derate = 1.0 + fly.global_contention * (spanned - 1) as f64;
    let inter = net.tree_allreduce_time(spanned, shard, fly.global_hop_latency, bw_derate);
    (local + inter).min(flat)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_spans_minimum_groups() {
        let fly = Dragonfly::default();
        let p = Placement::contiguous(1000, &fly);
        assert_eq!(p.groups_spanned(), 3); // ceil(1000/384)
                                           // Only 2 internal boundaries + the ring wrap cross groups.
        assert!(p.boundary_fraction() < 0.01);
    }

    #[test]
    fn scattered_spans_many_groups() {
        let fly = Dragonfly::default();
        let p = Placement::scattered(1000, 9688, &fly, 7);
        assert!(p.groups_spanned() > 10);
        assert!(p.boundary_fraction() > 0.5);
    }

    #[test]
    fn contiguous_beats_scattered_allreduce() {
        let fly = Dragonfly::default();
        let net = AriesModel::default();
        let bytes = 2_411_724; // HEP model
        let good = allreduce_time_placed(&net, &fly, &Placement::contiguous(1024, &fly), bytes);
        let bad = allreduce_time_placed(
            &net,
            &fly,
            &Placement::scattered(1024, 9688, &fly, 3),
            bytes,
        );
        assert!(
            bad > good * 1.2,
            "scattered placement should cost noticeably more: {good} vs {bad}"
        );
    }

    #[test]
    fn single_node_is_free() {
        let fly = Dragonfly::default();
        let net = AriesModel::default();
        assert_eq!(
            allreduce_time_placed(&net, &fly, &Placement::contiguous(1, &fly), 1 << 20),
            0.0
        );
    }

    #[test]
    fn within_one_group_matches_base_model() {
        let fly = Dragonfly::default();
        let net = AriesModel::default();
        let p = Placement::contiguous(128, &fly);
        assert_eq!(p.groups_spanned(), 1);
        let placed = allreduce_time_placed(&net, &fly, &p, 1 << 20);
        let base = net.allreduce_time(128, 1 << 20);
        assert!((placed - base).abs() < 1e-12);
    }

    #[test]
    fn balanced_spans_minimum_groups_evenly() {
        let fly = Dragonfly::default();
        let p = Placement::balanced(1000, &fly);
        assert_eq!(p.groups_spanned(), 3);
        // 1000 over 3 groups: the longest local ring is ceil(1000/3).
        assert_eq!(p.max_occupancy(), 334);
        // Contiguous packing instead maxes out the first groups at 384.
        assert_eq!(Placement::contiguous(1000, &fly).max_occupancy(), 384);
    }

    #[test]
    fn pack_groups_gives_disjoint_electrical_groups() {
        let fly = Dragonfly::default();
        let placements = Placement::pack_groups(&[500, 500, 100], &fly);
        assert_eq!(placements.len(), 3);
        // Each compute group starts on a fresh electrical-group boundary.
        let sets: Vec<Vec<usize>> = placements
            .iter()
            .map(|p| {
                let mut s = p.electrical_group.clone();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        for i in 0..sets.len() {
            for j in i + 1..sets.len() {
                assert!(
                    sets[i].iter().all(|g| !sets[j].contains(g)),
                    "compute groups {i} and {j} share an electrical group"
                );
            }
        }
        assert_eq!(placements[2].groups_spanned(), 1);
    }

    #[test]
    fn hierarchical_beats_flat_ring_at_scale() {
        let fly = Dragonfly::default();
        let net = AriesModel::default();
        let bytes = 2_411_724; // HEP model
        for nodes in [2048usize, 4096, 9688] {
            let p = Placement::balanced(nodes, &fly);
            let flat = allreduce_time_placed(&net, &fly, &p, bytes);
            let hier = hierarchical_allreduce_time(&net, &fly, &p, bytes);
            assert!(
                hier < flat,
                "hierarchical should beat the flat ring at {nodes} nodes: {hier} vs {flat}"
            );
        }
    }

    #[test]
    fn hierarchical_within_one_group_is_flat() {
        let fly = Dragonfly::default();
        let net = AriesModel::default();
        let p = Placement::balanced(256, &fly);
        assert_eq!(p.groups_spanned(), 1);
        let hier = hierarchical_allreduce_time(&net, &fly, &p, 1 << 20);
        assert!((hier - net.allreduce_time(256, 1 << 20)).abs() < 1e-12);
        assert_eq!(
            hierarchical_allreduce_time(&net, &fly, &Placement::balanced(1, &fly), 1 << 20),
            0.0
        );
    }

    #[test]
    fn scattered_is_deterministic_per_seed() {
        let fly = Dragonfly::default();
        let a = Placement::scattered(100, 9688, &fly, 5);
        let b = Placement::scattered(100, 9688, &fly, 5);
        assert_eq!(a.electrical_group, b.electrical_group);
        let c = Placement::scattered(100, 9688, &fly, 6);
        assert_ne!(a.electrical_group, c.electrical_group);
    }
}
