//! Hyper-parameter search.
//!
//! Sec. VIII-B: "it is unreasonable to expect scientists to be conversant
//! in the art of hyper-parameter tuning … hybrid schemes add an extra
//! parameter to be tuned, which stresses the need for principled
//! momentum tuning approaches", and "higher-level libraries such as
//! Spearmint can be used for automating the search". This module is the
//! minimal such layer for scidl: a deterministic random-search tuner
//! over (learning rate, momentum, group count) driving the simulated
//! engine, scoring configurations by best smoothed loss within a fixed
//! update budget. The asynchrony-aware momentum prior of [31] is used to
//! bias the momentum proposal for high group counts.

use crate::metrics::LossCurve;
use crate::sim_engine::{SimEngine, SimEngineConfig, SolverKind};
use scidl_cluster::sim::Workload;
use scidl_data::HepDataset;
use scidl_nn::solver::asynchrony_adjusted_momentum;
use scidl_tensor::TensorRng;

/// The search space.
#[derive(Clone, Debug)]
pub struct SearchSpace {
    /// Log-uniform learning-rate range.
    pub lr: (f32, f32),
    /// Momentum candidates.
    pub momenta: Vec<f32>,
    /// Group-count candidates.
    pub groups: Vec<usize>,
    /// Bias momentum proposals with the asynchrony correction of [31].
    pub momentum_prior: bool,
}

impl Default for SearchSpace {
    fn default() -> Self {
        Self {
            lr: (1e-4, 5e-2),
            momenta: vec![0.0, 0.4, 0.7, 0.9],
            groups: vec![1, 2, 4, 8],
            momentum_prior: true,
        }
    }
}

/// One evaluated trial.
#[derive(Clone, Debug)]
pub struct Trial {
    /// Learning rate.
    pub lr: f32,
    /// Explicit momentum.
    pub momentum: f32,
    /// Group count.
    pub groups: usize,
    /// Best smoothed training loss achieved.
    pub score: f32,
    /// The loss trajectory.
    pub curve: LossCurve,
}

/// Tuning budget and problem size.
#[derive(Clone, Debug)]
pub struct TunerConfig {
    /// Number of random trials.
    pub trials: usize,
    /// Model updates per trial.
    pub updates: usize,
    /// Total batch across the system.
    pub total_batch: usize,
    /// Virtual nodes.
    pub nodes: usize,
    /// Smoothing window for scoring.
    pub smooth_window: usize,
}

impl Default for TunerConfig {
    fn default() -> Self {
        Self {
            trials: 12,
            updates: 40,
            total_batch: 64,
            nodes: 64,
            smooth_window: 5,
        }
    }
}

/// Runs the random search; returns trials sorted best-first.
pub fn random_search(
    space: &SearchSpace,
    cfg: &TunerConfig,
    timing: &Workload,
    ds: &HepDataset,
    seed: u64,
) -> Vec<Trial> {
    assert!(cfg.trials >= 1 && !space.momenta.is_empty() && !space.groups.is_empty());
    let mut rng = TensorRng::new(seed ^ 0x7C7E);
    let mut trials = Vec::with_capacity(cfg.trials);
    for t in 0..cfg.trials {
        let lr =
            (space.lr.0 as f64 * ((space.lr.1 / space.lr.0) as f64).powf(rng.uniform())) as f32;
        let groups = space.groups[rng.below(space.groups.len())];
        let momentum = if space.momentum_prior {
            // Propose around the theory value for this group count.
            let target = space.momenta[rng.below(space.momenta.len())];
            asynchrony_adjusted_momentum(target, groups)
        } else {
            space.momenta[rng.below(space.momenta.len())]
        };

        let mut ecfg = SimEngineConfig::fig8(
            cfg.nodes.max(groups),
            groups,
            cfg.total_batch,
            timing.clone(),
        );
        ecfg.iterations = (cfg.updates / groups).max(1);
        ecfg.lr = lr;
        ecfg.solver = SolverKind::Sgd { momentum };
        ecfg.seed = seed ^ (t as u64) << 8;

        let mut mrng = TensorRng::new(seed ^ 0xB00);
        let mut model = scidl_nn::arch::hep_small(&mut mrng);
        let run = SimEngine::run(&ecfg, &mut model, ds);
        let score = run
            .curve
            .best_smoothed(cfg.smooth_window)
            .unwrap_or(f32::INFINITY);
        trials.push(Trial {
            lr,
            momentum,
            groups,
            score,
            curve: run.curve,
        });
    }
    trials.sort_by(|a, b| {
        a.score
            .partial_cmp(&b.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    trials
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::hep_workload;
    use scidl_data::HepConfig;

    fn small_setup() -> (Workload, HepDataset) {
        (
            hep_workload(),
            HepDataset::generate(HepConfig::small(), 128, 3),
        )
    }

    #[test]
    fn search_returns_sorted_trials() {
        let (w, ds) = small_setup();
        let cfg = TunerConfig {
            trials: 4,
            updates: 8,
            total_batch: 16,
            nodes: 8,
            smooth_window: 3,
        };
        let trials = random_search(&SearchSpace::default(), &cfg, &w, &ds, 5);
        assert_eq!(trials.len(), 4);
        for pair in trials.windows(2) {
            assert!(pair[0].score <= pair[1].score);
        }
        assert!(trials.iter().all(|t| t.score.is_finite()));
    }

    #[test]
    fn search_is_deterministic() {
        let (w, ds) = small_setup();
        let cfg = TunerConfig {
            trials: 3,
            updates: 6,
            total_batch: 16,
            nodes: 8,
            smooth_window: 3,
        };
        let a = random_search(&SearchSpace::default(), &cfg, &w, &ds, 9);
        let b = random_search(&SearchSpace::default(), &cfg, &w, &ds, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.lr, y.lr);
            assert_eq!(x.score, y.score);
        }
    }

    #[test]
    fn proposals_respect_the_search_space() {
        let (w, ds) = small_setup();
        let space = SearchSpace {
            lr: (1e-3, 1e-2),
            momenta: vec![0.5],
            groups: vec![2],
            momentum_prior: false,
        };
        let cfg = TunerConfig {
            trials: 5,
            updates: 4,
            total_batch: 8,
            nodes: 4,
            smooth_window: 2,
        };
        for t in random_search(&space, &cfg, &w, &ds, 11) {
            assert!((1e-3..=1e-2).contains(&t.lr), "lr {}", t.lr);
            assert_eq!(t.momentum, 0.5);
            assert_eq!(t.groups, 2);
        }
    }

    #[test]
    fn momentum_prior_reduces_momentum_for_many_groups() {
        let (w, ds) = small_setup();
        let space = SearchSpace {
            lr: (1e-3, 1e-3),
            momenta: vec![0.9],
            groups: vec![8],
            momentum_prior: true,
        };
        let cfg = TunerConfig {
            trials: 3,
            updates: 4,
            total_batch: 16,
            nodes: 8,
            smooth_window: 2,
        };
        for t in random_search(&space, &cfg, &w, &ds, 13) {
            assert!(
                t.momentum < 0.9,
                "prior should shrink momentum: {}",
                t.momentum
            );
        }
    }
}
