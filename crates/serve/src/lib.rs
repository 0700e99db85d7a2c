//! `scidl-serve` — dynamic-batching inference serving for trained
//! `scidl` models.
//!
//! Training at 15 PF (the paper's subject) produces checkpoints; this
//! crate is the other half of the lifecycle: answering classification
//! requests from those checkpoints at low latency. The KNL efficiency
//! analysis that shapes training (small minibatches waste the node —
//! Sec. II-A) bites serving even harder, because an open-loop request
//! stream naturally arrives one image at a time. The subsystem therefore
//! centres on a *dynamic batcher* that coalesces concurrent requests up
//! to a batch-size cap or a queueing deadline, trading a bounded latency
//! increase for a multiple of sustained throughput.
//!
//! Serving is also the tier where failures are most visible: a crashed
//! worker thread or a corrupt checkpoint turns directly into user-facing
//! errors. The crate therefore layers a resilience stack over the
//! batcher — supervised workers (panic containment, heartbeat-based hang
//! detection, backoff respawn, in-flight re-queue), deadline-aware
//! admission control with typed sheds that carry a retry-after hint, and
//! a validate-before-publish hot-swap guarded by a circuit breaker — all
//! drivable by the same declarative [`FaultPlan`](scidl_cluster::faults::FaultPlan)
//! chaos schedule in both the threaded server and the virtual-time sim,
//! which take every crash and straggler decision from one per-replica
//! dispatch schedule in [`policy`]. The budgets that stack applies
//! (re-queues per request, reroutes per request, the breaker threshold,
//! the priority shed fractions and mix, the autoscaler's utilisation
//! target) are constants of [`policy`], read by both drivers.
//!
//! Modules:
//!
//! * [`policy`] — the policy core: every serving decision (dispatch,
//!   admission, retry hint, which dispatch crashes and which batch
//!   straggles, crash recovery, breaker, autoscaler sizing, canary
//!   verdict) as a pure function or a clock-free state machine, and
//!   every budget those decisions apply as a constant, called by the
//!   drivers below,
//! * [`queue`] — bounded MPMC request queue + deadline batch former with
//!   shedding at capacity and expiry ([`BatchPolicy`], [`BatchQueue`]),
//! * [`registry`] — checkpoint loading with the bit-identical round-trip
//!   guarantee, atomic hot-swap, and the swap circuit breaker
//!   ([`ModelRegistry`]),
//! * [`server`] — the supervised worker pool over
//!   `scidl_nn::Network::infer` ([`Server`], [`Client`]),
//! * [`loadgen`] — seeded open-loop Poisson arrivals and HEP request
//!   inputs ([`PoissonArrivals`]),
//! * [`sim`] — the virtual-time driver: one replica (queue, worker
//!   pool, chaos) replayed against the calibrated KNL cost model
//!   ([`simulate`]), which is what `scidl-bench serving` sweeps,
//! * [`fleet`] — the fleet tier: a replicated [`Router`] with pluggable
//!   dispatch, fleet-level priority admission and replica-loss
//!   rerouting (threaded driver), and [`simulate_fleet`], the same
//!   routing over a `Vec` of `sim` replicas in virtual time plus an SLO
//!   autoscaler and canary rollouts (what `scidl-bench serving_fleet`
//!   sweeps).

#![warn(missing_docs)]

pub mod fleet;
pub mod loadgen;
pub mod policy;
pub mod queue;
pub mod registry;
pub mod server;
pub mod sim;

pub use fleet::{
    simulate_fleet, FleetConfig, FleetReport, FleetSimConfig, FleetSimOutcome, Router,
    SimAutoscaler, SimCanary,
};
pub use loadgen::{HepRequestSource, PoissonArrivals};
pub use policy::{CanaryGate, DispatchPolicy, Priority, ScalingBand};
pub use queue::{BatchPolicy, BatchQueue, Popped, SubmitError};
pub use registry::{check_roundtrip, ModelRegistry, ServingModel, SwapError};
pub use server::{
    Client, InferResult, ReplyReceiver, ServeError, Server, ServerConfig, ServerReport,
    SupervisorConfig,
};
pub use sim::{simulate, ServiceModel, SimConfig, SimOutcome};

/// The trace record of one dispatched batch — a `batch_dispatch` span
/// and a `serve` iteration row — built in one place so the threaded
/// worker and the virtual-time replica emit the same shape.
fn batch_trace(
    worker: u64,
    iter: u64,
    start_s: f64,
    queue_s: f64,
    compute_s: f64,
    batch: u64,
) -> (scidl_trace::EventKind, scidl_trace::IterRow) {
    let span = scidl_trace::EventKind::BatchDispatch {
        worker,
        batch,
        queue_s,
        compute_s,
    };
    let row = scidl_trace::IterRow {
        kind: "serve",
        track: worker,
        iter,
        start_s,
        compute_s,
        queue_s,
        batch,
        ..Default::default()
    };
    (span, row)
}
