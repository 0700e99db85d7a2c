//! Automated hyper-parameter search (Sec. VIII-B: "it is unreasonable to
//! expect scientists to be conversant in the art of hyper-parameter
//! tuning … higher-level libraries such as Spearmint can be used"):
//! random search over (learning rate, momentum, group count) driving the
//! simulated hybrid engine, with the asynchrony-aware momentum prior of
//! Mitliagkas et al. [31] biasing the proposals.
//!
//! ```text
//! cargo run --release --example hyperparameter_search
//! ```

use scidl_core::tuner::{random_search, SearchSpace, TunerConfig};
use scidl_core::workloads::hep_workload;
use scidl_data::{HepConfig, HepDataset};

fn main() {
    let ds = HepDataset::generate(HepConfig::small(), 768, 99);
    let space = SearchSpace::default();
    let cfg = TunerConfig {
        trials: 10,
        updates: 48,
        total_batch: 64,
        nodes: 64,
        smooth_window: 6,
    };

    println!(
        "random search: {} trials x {} updates over lr in [{:.0e}, {:.0e}], momentum prior on\n",
        cfg.trials, cfg.updates, space.lr.0, space.lr.1
    );
    let trials = random_search(&space, &cfg, &hep_workload(), &ds, 7);

    println!(
        "{:>4} {:>10} {:>9} {:>7} {:>10}",
        "rank", "lr", "momentum", "groups", "best loss"
    );
    for (i, t) in trials.iter().enumerate() {
        println!(
            "{:>4} {:>10.2e} {:>9.2} {:>7} {:>10.4}",
            i + 1,
            t.lr,
            t.momentum,
            t.groups,
            t.score
        );
    }
    let best = &trials[0];
    println!(
        "\nbest configuration: lr {:.2e}, momentum {:.2}, {} group(s) -> loss {:.4}",
        best.lr, best.momentum, best.groups, best.score
    );
}
