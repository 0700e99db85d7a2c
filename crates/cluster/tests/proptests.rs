//! Property-based tests for the cluster simulator: event-calendar
//! ordering, cost-model monotonicity and simulation invariants under
//! arbitrary configurations.

use proptest::prelude::*;
use scidl_cluster::event::EventQueue;
use scidl_cluster::knl::{KnlModel, LayerCost, RateClass};
use scidl_cluster::sim::{split_even, ClusterSim, SimConfig, Workload};
use scidl_cluster::topology::{
    allreduce_time_placed, hierarchical_allreduce_time, Dragonfly, Placement,
};
use scidl_cluster::AriesModel;

fn toy_workload(flops_gf: u64) -> Workload {
    Workload {
        name: "toy".into(),
        layers: vec![
            LayerCost {
                name: "conv".into(),
                train_flops_per_image: flops_gf * 1_000_000_000,
                class: RateClass::Conv { cin: 64 },
            },
            LayerCost {
                name: "relu".into(),
                train_flops_per_image: 1_000_000,
                class: RateClass::MemoryBound {
                    bytes_per_image: 10_000_000,
                },
            },
        ],
        params: 500_000,
        model_bytes: 2_000_000,
        image_bytes: 500_000,
        io_bw: 3.0e9,
        solver_flops_per_param: 6,
        solver_bytes_per_param: 12.0,
        solver_bw: 2.0e9,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Events pop in nondecreasing time order regardless of insertion
    /// order.
    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0.0f64..1000.0, 1..50)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last = f64::NEG_INFINITY;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// The conv rate model is monotone in both channels and batch and
    /// never exceeds the hardware peak.
    #[test]
    fn knl_rates_monotone_and_bounded(
        cin in 1usize..2048,
        batch in 1usize..512,
    ) {
        let m = KnlModel::default();
        let r = m.conv_rate(cin, batch);
        prop_assert!(r > 0.0 && r < m.peak_flops);
        prop_assert!(m.conv_rate(cin + 1, batch) >= r);
        prop_assert!(m.conv_rate(cin, batch + 1) >= r);
    }

    /// All-reduce cost grows with message size and never becomes
    /// negative; broadcast is cheaper than all-reduce for large payloads.
    #[test]
    fn aries_costs_behave(nodes in 2usize..4096, kb in 1u64..100_000) {
        let m = AriesModel::default();
        let bytes = kb * 1024;
        let t = m.allreduce_time(nodes, bytes);
        prop_assert!(t > 0.0);
        prop_assert!(m.allreduce_time(nodes, bytes * 2) > t);
        prop_assert!(m.broadcast_time(nodes, bytes) <= t + 1e-12);
    }

    /// A simulation always completes the requested iterations (absent
    /// failures), processes the matching image count, and reports
    /// non-negative times.
    #[test]
    fn sim_completes_all_iterations(
        nodes_pow in 0u32..8,
        groups_pow in 0u32..3,
        iterations in 2usize..12,
        seed in any::<u64>(),
    ) {
        let nodes = 1usize << nodes_pow;
        let groups = (1usize << groups_pow).min(nodes);
        let mut cfg = SimConfig::new(toy_workload(2), nodes, groups, 64.max(nodes));
        cfg.iterations = iterations;
        cfg.seed = seed;
        cfg.jitter.fail_rate_per_node_hour = 0.0; // no failures
        let r = ClusterSim::new(cfg.clone()).run();
        let expect_iters = groups * iterations;
        let done: usize = r.iter_times.iter().map(|v| v.len()).sum();
        prop_assert_eq!(done, expect_iters);
        prop_assert_eq!(r.images, (expect_iters * cfg.batch_per_group) as u64);
        prop_assert!(r.total_time > 0.0);
        prop_assert!(r.iter_times.iter().flatten().all(|&t| t > 0.0));
        prop_assert!(r.peak_rate >= r.sustained_rate * 0.99);
    }

    /// Bit-identical determinism for any seed.
    #[test]
    fn sim_is_deterministic(seed in any::<u64>()) {
        let mut cfg = SimConfig::new(toy_workload(1), 16, 2, 64);
        cfg.iterations = 5;
        cfg.seed = seed;
        let a = ClusterSim::new(cfg.clone()).run();
        let b = ClusterSim::new(cfg).run();
        prop_assert_eq!(a.total_time, b.total_time);
        prop_assert_eq!(a.iter_times, b.iter_times);
    }

    /// Timeline invariants: per group, iteration intervals are disjoint
    /// and time-ordered; every interval has positive length.
    #[test]
    fn timeline_intervals_are_disjoint_per_group(
        groups in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut cfg = SimConfig::new(toy_workload(1), 8.max(groups), groups, 32);
        cfg.iterations = 6;
        cfg.seed = seed;
        cfg.jitter.fail_rate_per_node_hour = 0.0;
        let r = ClusterSim::new(cfg).run();
        for g in 0..groups {
            let mut intervals: Vec<(f64, f64)> = r
                .timeline
                .iter()
                .filter(|(gg, _, _)| *gg == g)
                .map(|&(_, s, e)| (s, e))
                .collect();
            intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            prop_assert_eq!(intervals.len(), 6);
            for w in intervals.windows(2) {
                prop_assert!(w[0].1 <= w[1].0 + 1e-12, "intervals overlap: {w:?}");
            }
            prop_assert!(intervals.iter().all(|&(s, e)| e > s));
        }
    }

    /// Hierarchical all-reduce never exceeds the placed flat ring, for
    /// any node count spanning more than one electrical group and any
    /// placement style.
    #[test]
    fn hierarchical_never_exceeds_flat(
        nodes in 385usize..6000,
        kb in 1u64..400_000,
        seed in any::<u64>(),
    ) {
        let fly = Dragonfly::default();
        let net = AriesModel::default();
        let bytes = kb * 1024;
        for p in [
            Placement::balanced(nodes, &fly),
            Placement::contiguous(nodes, &fly),
            Placement::scattered(nodes, 9688.max(nodes), &fly, seed),
        ] {
            prop_assert!(p.groups_spanned() >= 1);
            let flat = allreduce_time_placed(&net, &fly, &p, bytes);
            let hier = hierarchical_allreduce_time(&net, &fly, &p, bytes);
            prop_assert!(
                hier <= flat + 1e-15,
                "hier {hier} > flat {flat} at {nodes} nodes, {} groups",
                p.groups_spanned()
            );
        }
    }

    /// Hierarchical all-reduce time is monotone in message size.
    #[test]
    fn hierarchical_monotone_in_bytes(
        nodes in 2usize..6000,
        kb in 1u64..200_000,
        extra_kb in 1u64..200_000,
        seed in any::<u64>(),
    ) {
        let fly = Dragonfly::default();
        let net = AriesModel::default();
        let p = if seed.is_multiple_of(2) {
            Placement::balanced(nodes, &fly)
        } else {
            Placement::scattered(nodes, 9688.max(nodes), &fly, seed)
        };
        let small = hierarchical_allreduce_time(&net, &fly, &p, kb * 1024);
        let large = hierarchical_allreduce_time(&net, &fly, &p, (kb + extra_kb) * 1024);
        prop_assert!(large >= small, "more bytes must not be cheaper: {small} vs {large}");
    }

    /// Dragonfly-aware (balanced, minimal-span) placement never loses to
    /// a scattered one on the same machine, under either collective.
    #[test]
    fn packed_placement_never_loses_to_scattered(
        nodes in 2usize..4096,
        kb in 64u64..400_000,
        seed in any::<u64>(),
    ) {
        let fly = Dragonfly::default();
        let net = AriesModel::default();
        let bytes = kb * 1024;
        let packed = Placement::balanced(nodes, &fly);
        let scattered = Placement::scattered(nodes, 9688.max(nodes), &fly, seed);
        let flat_p = allreduce_time_placed(&net, &fly, &packed, bytes);
        let flat_s = allreduce_time_placed(&net, &fly, &scattered, bytes);
        prop_assert!(flat_p <= flat_s + 1e-15, "flat: packed {flat_p} > scattered {flat_s}");
        let hier_p = hierarchical_allreduce_time(&net, &fly, &packed, bytes);
        let hier_s = hierarchical_allreduce_time(&net, &fly, &scattered, bytes);
        prop_assert!(hier_p <= hier_s + 1e-15, "hier: packed {hier_p} > scattered {hier_s}");
    }

    /// PS shard sizing conserves the total for any split.
    #[test]
    fn split_even_total_conserved(total in any::<u64>(), parts in 1usize..64) {
        let shards = split_even(total, parts);
        prop_assert_eq!(shards.len(), parts);
        prop_assert_eq!(shards.iter().sum::<u64>(), total);
        let min = *shards.iter().min().unwrap();
        let max = *shards.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// Synchronous runs never report staleness; hybrid runs with G>=2
    /// always do (in an ideal machine, steady state interleaves).
    #[test]
    fn staleness_semantics(groups in 1usize..5, seed in any::<u64>()) {
        let mut cfg = SimConfig::new(toy_workload(1), 16, groups, 64).ideal();
        cfg.iterations = 12;
        cfg.seed = seed;
        let r = ClusterSim::new(cfg).run();
        if groups == 1 {
            prop_assert_eq!(r.mean_staleness, 0.0);
        } else {
            prop_assert!(r.mean_staleness > 0.0);
        }
    }
}
