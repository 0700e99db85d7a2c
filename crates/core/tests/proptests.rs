//! Property-based tests for the training engines, metrics and
//! checkpointing under arbitrary configurations.

use proptest::prelude::*;
use scidl_core::checkpoint::Checkpoint;
use scidl_core::metrics::LossCurve;
use scidl_core::sim_engine::{SimEngine, SimEngineConfig, SolverKind};
use scidl_core::workloads::hep_workload;
use scidl_data::{HepConfig, HepDataset};
use scidl_nn::network::Model;
use scidl_tensor::TensorRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The simulated engine applies exactly `groups × iterations`
    /// updates, records one loss point per update in nondecreasing time,
    /// and keeps the model finite — for any seed and group count.
    #[test]
    fn engine_invariants(groups in 1usize..4, seed in any::<u64>()) {
        let ds = HepDataset::generate(HepConfig::small(), 48, seed);
        let mut cfg = SimEngineConfig::fig8(8, groups, 16, hep_workload());
        cfg.iterations = 4;
        cfg.seed = seed;
        cfg.solver = SolverKind::Sgd { momentum: 0.5 };
        let mut rng = TensorRng::new(seed);
        let mut model = scidl_nn::arch::hep_small(&mut rng);
        let run = SimEngine::run(&cfg, &mut model, &ds);
        prop_assert_eq!(run.updates, groups * 4);
        prop_assert_eq!(run.curve.len(), groups * 4);
        let times: Vec<f64> = run.curve.points.iter().map(|p| p.0).collect();
        prop_assert!(times.windows(2).all(|w| w[1] >= w[0]));
        prop_assert!(run.final_params.iter().all(|p| p.is_finite()));
        prop_assert_eq!(model.flat_params(), run.final_params);
    }

    /// The thread engine conserves update counts under arbitrary
    /// group-crash fault plans: without recovery the dead group
    /// contributes exactly its pre-crash iterations; with recovery every
    /// group finishes its budget and the rejoined work is counted as
    /// recovered. The staleness histogram accounts for every update and
    /// staleness stays bounded by the work other groups can do.
    #[test]
    fn thread_engine_fault_plan_invariants(
        groups in 1usize..4,
        crash_iter in 0usize..5,
        recover in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use scidl_core::faults::FaultPlan;
        use scidl_core::thread_engine::{ThreadEngine, ThreadEngineConfig};
        let iters = 5usize;
        let ds = std::sync::Arc::new(HepDataset::generate(HepConfig::small(), 48, seed));
        let mut cfg = ThreadEngineConfig::new(groups, 2, 8);
        cfg.iterations = iters;
        cfg.seed = seed;
        cfg.faults = if recover {
            FaultPlan::none().with_group_crash(0, crash_iter).with_recovery(1, 0.0)
        } else {
            FaultPlan::none().with_group_crash(0, crash_iter)
        };
        let run = ThreadEngine::run(&cfg, ds);
        let expected = if recover {
            (groups * iters) as u64
        } else {
            ((groups - 1) * iters + crash_iter) as u64
        };
        prop_assert_eq!(run.updates, expected);
        if recover {
            prop_assert_eq!(run.recovered_updates, (iters - crash_iter) as u64);
        } else {
            prop_assert_eq!(run.recovered_updates, 0);
        }
        prop_assert_eq!(run.staleness_histogram.iter().sum::<u64>(), run.updates);
        prop_assert_eq!(run.curve.len() as u64, run.updates);
        // Staleness is bounded by the total work the *other* groups can
        // interleave; a single group is fully synchronous even across a
        // crash-and-recover cycle.
        prop_assert!(run.mean_staleness <= ((groups - 1) * iters) as f64);
        if groups == 1 {
            prop_assert_eq!(run.mean_staleness, 0.0);
        }
        prop_assert_eq!(run.ps_respawns, 0);
        prop_assert!(run.final_params.iter().all(|p| p.is_finite()));
    }

    /// Checkpoints round-trip arbitrary parameter vectors exactly.
    #[test]
    fn checkpoint_roundtrip_arbitrary_params(
        params in proptest::collection::vec(-1e6f32..1e6, 1..200),
        iteration in any::<u64>(),
        seed in any::<u64>(),
    ) {
        struct Raw(Vec<f32>);
        impl Model for Raw {
            fn param_blocks(&self) -> Vec<&scidl_nn::ParamBlock> { Vec::new() }
            fn param_blocks_mut(&mut self) -> Vec<&mut scidl_nn::ParamBlock> { Vec::new() }
            fn flat_params(&self) -> Vec<f32> { self.0.clone() }
            fn set_flat_params(&mut self, flat: &[f32]) { self.0 = flat.to_vec(); }
        }
        let model = Raw(params.clone());
        let ck = Checkpoint::capture(&model, iteration, seed);
        let mut path = std::env::temp_dir();
        path.push(format!("scidl_prop_{}_{}", std::process::id(), iteration & 0xFFFF));
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back.params, params);
        prop_assert_eq!(back.iteration, iteration);
        prop_assert_eq!(back.seed, seed);
    }

    /// time_to_loss is monotone in the target: an easier target is never
    /// reached later than a harder one.
    #[test]
    fn time_to_loss_monotone_in_target(
        losses in proptest::collection::vec(0.0f32..2.0, 2..50),
        t_easy in 0.2f32..2.0,
        delta in 0.01f32..0.5,
    ) {
        let mut curve = LossCurve::new();
        for (i, &l) in losses.iter().enumerate() {
            curve.push(i as f64, l);
        }
        let t_hard = t_easy - delta;
        match (curve.time_to_loss(t_easy, 1), curve.time_to_loss(t_hard.max(0.0), 1)) {
            (Some(easy), Some(hard)) => prop_assert!(easy <= hard),
            (None, Some(_)) => prop_assert!(false, "harder target reached but easier not"),
            _ => {}
        }
    }

    /// The random-search tuner returns exactly `trials` results sorted by
    /// score, and the best score is no worse than any other.
    #[test]
    fn tuner_sorted_output(trials in 1usize..5, seed in any::<u64>()) {
        use scidl_core::tuner::{random_search, SearchSpace, TunerConfig};
        let ds = HepDataset::generate(HepConfig::small(), 32, seed);
        let cfg = TunerConfig { trials, updates: 4, total_batch: 8, nodes: 4, smooth_window: 2 };
        let results = random_search(&SearchSpace::default(), &cfg, &hep_workload(), &ds, seed);
        prop_assert_eq!(results.len(), trials);
        for pair in results.windows(2) {
            prop_assert!(pair[0].score <= pair[1].score);
        }
    }
}
