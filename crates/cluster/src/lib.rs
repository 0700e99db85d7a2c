#![warn(missing_docs)]
//! # scidl-cluster
//!
//! Discrete-event simulator of the Cori Phase II system (Sec. IV) — the
//! substitute for the 9,688-node Cray XC40 the paper ran on. It models:
//!
//! * [`knl`] — the Intel Xeon Phi 7250 (Knights Landing) node: peak and
//!   sustained FLOP rates, DeepBench-style efficiency collapse at small
//!   minibatch sizes, channel-count-dependent convolution efficiency and
//!   memory-bandwidth-bound layers, calibrated against the paper's
//!   measured single-node rates (1.90 TF/s HEP, 2.09 TF/s Climate at
//!   batch 8 — Sec. VI-A),
//! * [`aries`] — the Cray Aries dragonfly interconnect: ring/tree
//!   all-reduce and broadcast cost models, point-to-point transfers and
//!   parameter-server service times,
//! * [`jitter`] — run-to-run variability: lognormal compute jitter,
//!   heavy straggler tails and node-failure injection (Sec. VIII-A
//!   reports up to 30% runtime variability and non-zero failure
//!   probability at full scale),
//! * [`event`] — a generic binary-heap event calendar (the one
//!   [`sim`] loop runs on),
//! * [`faults`] — declarative fault-injection scenarios ([`FaultPlan`]):
//!   scheduled group/PS crashes, stragglers, message delays and a
//!   recovery policy, consumed by both [`sim`] and the thread engine in
//!   `scidl-core` (Sec. VIII-A),
//! * [`lifecycle`] — the one [`GroupLifecycle`] both training drivers
//!   ask before every iteration (run, stop or repair) and after every
//!   update (its staleness),
//! * [`sim`] — iteration-level cluster simulations of synchronous and
//!   hybrid training that regenerate the scaling studies of
//!   Figs. 6–7 and the full-system throughput numbers of Sec. VI-B3; its
//!   event loop is also the clock `scidl-core`'s simulated-time trainer
//!   runs real gradients on (Fig. 8), through an [`Observer`].
//!
//! ## Example
//!
//! ```
//! use scidl_cluster::KnlModel;
//!
//! let knl = KnlModel::default();
//! // Many-channel convolutions run far faster than the few-channel
//! // input layers, and small minibatches collapse efficiency — the two
//! // DeepBench effects the paper builds its scaling story on.
//! assert!(knl.conv_rate(128, 8) > 2.0 * knl.conv_rate(3, 8));
//! assert!(knl.conv_rate(128, 64) > 2.0 * knl.conv_rate(128, 1));
//! ```

pub mod aries;
pub mod event;
pub mod faults;
pub mod jitter;
pub mod knl;
pub mod lifecycle;
pub mod sim;
pub mod topology;

pub use aries::AriesModel;
pub use event::{EventQueue, SimTime};
pub use faults::{FaultPlan, GroupCrash, MessageDelay, PsCrash, Recovery, Straggler};
pub use jitter::JitterModel;
pub use knl::{KnlModel, LayerCost, RateClass};
pub use lifecycle::{GroupLifecycle, Step};
pub use sim::{
    split_even, ClusterSim, CollectiveKind, IterBreakdown, Observer, PlacementPolicy, SimConfig,
    SimResult, TopologyConfig,
};
pub use topology::{allreduce_time_placed, hierarchical_allreduce_time, Dragonfly, Placement};
