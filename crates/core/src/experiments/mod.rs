//! One driver per table/figure of the paper (see DESIGN.md's
//! per-experiment index). The `scidl-bench` subcommands are thin wrappers
//! that print these results as the paper's rows/series.

pub mod ablations;
pub mod convergence;
pub mod scaling;
pub mod science;

pub use ablations::{
    arch_ablation, arch_workloads, momentum_ablation, placement_ablation, ps_ablation, resilience,
};
pub use convergence::{fig8, fig8_compress, Fig8CompressResult, Fig8Result};
pub use scaling::{
    architecture_shootout, collective_comparison, full_system, strong_scaling, weak_scaling,
    CollectiveRow, FullSystemResult, ScalingOptions, ScalingRow, ShootoutRow,
};
pub use science::{
    climate_distributed, climate_science, hep_science, ClimateDistributedResult,
    ClimateScienceResult, HepScienceResult,
};
