#![warn(missing_docs)]
//! # scidl-core
//!
//! The primary contribution of *Deep Learning at 15PF* (Kurth et al.,
//! SC'17), rebuilt in Rust: a **hybrid synchronous/asynchronous
//! distributed training system**. Nodes form *compute groups* that are
//! internally synchronous — data-parallel SGD with an all-reduce — while
//! groups communicate asynchronously through dedicated per-layer
//! parameter servers. The group count is the knob trading *hardware
//! efficiency* (stragglers, small-batch kernel efficiency) against
//! *statistical efficiency* (gradient staleness), tuned jointly with
//! momentum (Sec. II-B2, III-E).
//!
//! Two execution backends implement the same architecture:
//!
//! * [`ThreadEngine`](thread_engine::ThreadEngine) — every simulated node
//!   is a real thread; groups all-reduce through `scidl-comm` and
//!   exchange updates with real per-layer PS threads. Used to validate
//!   the *correctness* of the architecture (sync ≡ single-process SGD;
//!   staleness is real).
//! * [`SimEngine`](sim_engine::SimEngine) — deterministic simulated-time
//!   execution: gradients are computed for real (so loss trajectories
//!   and staleness effects are genuine), while *when* each update lands
//!   comes from `scidl-cluster`'s `ClusterSim` event loop — the same
//!   clock and calibrated Cori models as the scaling studies. Used for
//!   the wall-clock convergence results (Fig. 8) where thousands of
//!   virtual nodes are needed.
//!
//! [`experiments`] contains one driver per table/figure of the paper;
//! the `scidl-bench` subcommands are thin wrappers around them.
//!
//! ## Example
//!
//! ```
//! use scidl_core::sim_engine::{SimEngine, SimEngineConfig, SolverKind};
//! use scidl_core::workloads::hep_workload;
//! use scidl_data::{HepConfig, HepDataset};
//! use scidl_tensor::TensorRng;
//!
//! // Hybrid training: 2 groups of virtual nodes, real gradients,
//! // simulated Cori wall-clock.
//! let ds = HepDataset::generate(HepConfig::small(), 32, 1);
//! let mut cfg = SimEngineConfig::fig8(4, 2, 8, hep_workload());
//! cfg.iterations = 3;
//! cfg.solver = SolverKind::Sgd { momentum: 0.7 };
//! let mut model = scidl_nn::arch::hep_small(&mut TensorRng::new(1));
//! let run = SimEngine::run(&cfg, &mut model, &ds);
//! assert_eq!(run.updates, 6);
//! assert!(run.mean_staleness > 0.0); // groups really interleave
//! ```

pub use scidl_trace as trace;

pub mod checkpoint;
pub mod experiments;
pub mod faults;
pub mod metrics;
pub mod sim_engine;
pub mod task;
pub mod thread_engine;
pub mod tuner;
pub mod workloads;

pub use faults::FaultPlan;
pub use metrics::LossCurve;
pub use sim_engine::{SimEngine, SimEngineConfig, SimRunSummary};
pub use thread_engine::{ThreadEngine, ThreadEngineConfig, ThreadRunSummary};
pub use workloads::{climate_workload, hep_workload};
