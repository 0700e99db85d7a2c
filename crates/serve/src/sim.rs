//! Deterministic discrete-event simulation of the serving tier — the
//! virtual-time driver of the policy core ([`crate::policy`]).
//!
//! The real threaded server ([`crate::server`]) measures wall-clock time
//! and is therefore not reproducible run to run. The benchmark sweep
//! instead replays a fixed arrival schedule against a *virtual-time*
//! model of the same queue/batcher/worker-pool semantics, with batch
//! service times taken from the calibrated KNL node model
//! (`scidl-cluster::knl`). Every quantity is pure f64 arithmetic over the
//! seeded schedule, so a given `(seed, rate, policy, plan)` produces
//! bit-identical latency frontiers on every run — the property the
//! `scidl-bench serving`, `serving_chaos` and `serving_fleet` acceptance
//! checks rely on.
//!
//! There is one virtual-time replica, [`Replica`]: a queue, a worker
//! pool and the batch former's drain/expire/crash-recovery loop.
//! [`simulate`] drives one of them (reroute budget 0, no fleet
//! admission); [`crate::fleet::simulate_fleet`] routes over a `Vec` of
//! them. Its semantics:
//!
//! * bounded queue, arrivals shed once `queue_capacity` are waiting,
//! * batch forms when `max_batch` requests wait or the oldest has waited
//!   `max_delay`, whichever comes first,
//! * a batch starts when a worker is free (the trigger can be delayed by
//!   a busy pool, in which case later arrivals may join the batch),
//! * requests whose deadline lapses in the queue are shed before any
//!   compute is charged,
//! * per-request latency = queue wait (arrival → batch start) + compute
//!   (the whole batch's service time).
//!
//! And the resilience semantics, driven by the *same*
//! [`FaultPlan`](scidl_cluster::faults::FaultPlan) the threaded server
//! consumes (worker indices are global: replica `r` owns workers
//! `[r·w, (r+1)·w)`), through the same per-replica
//! `policy::DispatchSchedule` that decides the threaded server's crashes
//! and stragglers:
//!
//! * a [`WorkerCrash`](scidl_cluster::faults::WorkerCrash) kills the slot
//!   dispatching the scheduled batch, halfway through it; each of the
//!   batch's requests is re-queued at the head of the line, handed to
//!   the caller for rerouting, or counted *lost*, as
//!   `policy::Recovery` decides at the policy core's budgets (2
//!   re-queues, 1 reroute in a fleet), and the slot returns
//!   `respawn_secs` later,
//! * a [`SlowWorker`](scidl_cluster::faults::SlowWorker) stretches the
//!   slot's service times by its factor over its window of the slot's
//!   served batches,
//! * scheduled hot-swap attempts ([`SimConfig::swap_schedule`]) replay
//!   the registry's validate-before-publish circuit breaker
//!   (`policy::Breaker`): attempts the plan marks corrupt are
//!   rejected, three consecutive rejections open the breaker, and an
//!   open breaker fails attempts fast.

use crate::policy::{
    batch_trigger, lapsed, Breaker, DispatchSchedule, Recovery, BREAKER_THRESHOLD, MAX_REQUEUES,
};
use crate::queue::BatchPolicy;
use scidl_cluster::faults::FaultPlan;
use scidl_cluster::knl::{KnlModel, LayerCost};
use scidl_core::metrics::LatencyRecorder;
use scidl_core::workloads::layer_costs;
use scidl_nn::arch;
use scidl_nn::NetSpec;
use scidl_tensor::Shape4;
use scidl_trace::{EventKind, TraceHandle};

/// Inference-time cost model of one network on one KNL node: per-layer
/// *forward-only* costs plus the calibrated node model.
pub struct ServiceModel {
    /// Human-readable workload name.
    pub name: String,
    /// Forward-only per-layer costs (`train_flops_per_image` holds the
    /// forward FLOPs here; there is no backward pass at serving time).
    pub layers: Vec<LayerCost>,
    /// The node model supplying rates and the small-batch penalty.
    pub knl: KnlModel,
}

impl ServiceModel {
    /// Builds the forward-only cost table for `net` at `input` with
    /// `scidl_core::workloads::layer_costs`, the rate classification the
    /// training workloads use.
    pub fn for_network(name: &str, net: &NetSpec, input: Shape4, knl: KnlModel) -> Self {
        Self {
            name: name.into(),
            layers: layer_costs(net.walk(input), false),
            knl,
        }
    }

    /// The paper's HEP classifier at its 224×224 input on a default KNL
    /// node — the workload the serving acceptance criterion is stated on.
    pub fn hep() -> Self {
        Self::for_network(
            "hep",
            &arch::hep_network_spec(),
            arch::HEP_INPUT,
            KnlModel::default(),
        )
    }

    /// Service time of one forward pass over a batch of `b` requests.
    pub fn batch_secs(&self, b: usize) -> f64 {
        self.knl.compute_time(&self.layers, b)
    }

    /// Saturated throughput (images/s) when serving back-to-back batches
    /// of exactly `b`.
    pub fn saturated_rate(&self, b: usize) -> f64 {
        b.max(1) as f64 / self.batch_secs(b)
    }
}

/// Virtual-time serving configuration. Not `Copy` — it carries the chaos
/// plan; clone it to vary one knob across runs.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of parallel workers (KNL nodes) pulling batches.
    pub workers: usize,
    /// Bounded queue capacity; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Batch-formation policy.
    pub policy: BatchPolicy,
    /// Relative deadline attached to every arrival; requests still
    /// queued when it lapses are shed before compute.
    pub deadline_secs: Option<f64>,
    /// Chaos plan: worker crashes, slow workers, corrupt swap attempts.
    pub faults: FaultPlan,
    /// Virtual times of hot-swap attempts (replayed through the breaker
    /// model; corruption comes from `faults.swap_is_corrupt`).
    pub swap_schedule: Vec<f64>,
}

impl SimConfig {
    /// A fault-free configuration with no deadlines and no swaps.
    pub fn new(workers: usize, queue_capacity: usize, policy: BatchPolicy) -> Self {
        Self {
            workers,
            queue_capacity,
            policy,
            deadline_secs: None,
            faults: FaultPlan::none(),
            swap_schedule: Vec::new(),
        }
    }
}

/// Everything a virtual-time run observed — the one accounting type of
/// [`simulate`] and [`crate::fleet::simulate_fleet`]. Fleet-level
/// fields stay at their `Default` in a single-replica run; the swap
/// counters stay zero in a fleet run (fleet rollouts are canaries).
#[derive(Default)]
pub struct SimOutcome {
    /// Queue-wait / compute split of every *served* request.
    pub recorder: LatencyRecorder,
    /// Requests served to completion (any replica).
    pub completed: usize,
    /// Requests shed at a replica's full queue.
    pub rejected: usize,
    /// Requests shed by fleet-level priority admission, per class.
    pub fleet_shed: [usize; 3],
    /// Requests shed in a queue when their deadline lapsed.
    pub expired: usize,
    /// Requests lost to worker crashes after exhausting their re-queue
    /// (and, in a fleet, reroute) budget.
    pub lost: usize,
    /// Cross-replica reroutes of crash-orphaned requests.
    pub rerouted: usize,
    /// Same-replica re-queues of crash-recovered requests.
    pub requeued: usize,
    /// Worker crashes that fired.
    pub crashes: usize,
    /// Hot-swap attempts that reached validation (breaker closed).
    pub swap_attempts: usize,
    /// Swap attempts rejected: corrupt checkpoints plus breaker-open
    /// fast failures.
    pub swap_rejects: usize,
    /// Swaps that validated and published.
    pub swap_published: usize,
    /// Whether swap or rollout failures opened the breaker.
    pub breaker_opened: bool,
    /// Autoscaler scale-up steps.
    pub scale_ups: usize,
    /// Autoscaler scale-down steps.
    pub scale_downs: usize,
    /// Σ over replicas of (retirement − birth) virtual seconds — the
    /// fleet's cost denominator.
    pub replica_seconds: f64,
    /// Routable replicas when the fleet simulation ended.
    pub final_replicas: usize,
    /// Whether the canary was promoted.
    pub canary_promoted: bool,
    /// Whether the canary was rolled back.
    pub canary_rolled_back: bool,
    /// Requests the canary replica served.
    pub canary_served: usize,
    /// Iteration of the model serving at the end (the candidate's after
    /// a promotion, the original's otherwise).
    pub final_iteration: u64,
    /// Virtual time at which the pool (or fleet) went fully idle.
    pub makespan: f64,
    /// Ids of served requests, in dispatch order.
    pub served_ids: Vec<usize>,
    /// Ids of requests shed at admission (fleet or full queue), in
    /// arrival order.
    pub rejected_ids: Vec<usize>,
    /// Ids of deadline-expired requests, in expiry order.
    pub expired_ids: Vec<usize>,
    /// Ids of crash-lost requests, in loss order.
    pub lost_ids: Vec<usize>,
    /// Size of every dispatched batch, in dispatch order.
    pub batch_sizes: Vec<usize>,
}

impl SimOutcome {
    /// Sustained goodput: served requests per virtual second.
    pub fn throughput(&self) -> f64 {
        if self.makespan > 0.0 {
            self.completed as f64 / self.makespan
        } else {
            0.0
        }
    }

    /// Total requests offered (served + every shed/lost category).
    pub fn offered(&self) -> usize {
        self.completed
            + self.rejected
            + self.fleet_shed.iter().sum::<usize>()
            + self.expired
            + self.lost
    }

    /// Fraction of offered requests that did not get an answer:
    /// admission sheds, deadline expiries and crash losses.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            (offered - self.completed) as f64 / offered as f64
        }
    }

    /// p99 of served total latency (0 when nothing was served).
    pub fn p99(&self) -> f64 {
        self.recorder.total_summary().map(|s| s.p99).unwrap_or(0.0)
    }
}

/// One queued request.
#[derive(Clone, Copy)]
pub(crate) struct Queued {
    pub(crate) id: usize,
    /// Last (re-)queueing time; queue wait counts from here.
    pub(crate) arrived: f64,
    /// Absolute deadline from the original arrival.
    deadline: Option<f64>,
    attempts: u32,
    reroutes: u32,
}

/// What every replica of one run shares: the cost model, the
/// per-replica configuration, the canary sample sinks, the trace handle
/// and the outcome being accumulated.
pub(crate) struct SimCore<'a> {
    pub(crate) model: &'a ServiceModel,
    cfg: &'a SimConfig,
    max_delay: f64,
    reroute_budget: u32,
    /// While set, served latencies are sampled into the canary arms.
    pub(crate) canary_window: bool,
    pub(crate) base_lat: Vec<f64>,
    pub(crate) canary_lat: Vec<f64>,
    pub(crate) tr: TraceHandle,
    pub(crate) out: SimOutcome,
}

impl<'a> SimCore<'a> {
    /// Validates the shared inputs and starts trace run `label`.
    pub(crate) fn new(
        model: &'a ServiceModel,
        arrivals: &[f64],
        cfg: &'a SimConfig,
        reroute_budget: u32,
        label: &'static str,
    ) -> Self {
        assert!(cfg.workers >= 1 && cfg.queue_capacity >= 1);
        assert!(
            arrivals.windows(2).all(|w| w[1] >= w[0]),
            "arrival schedule must be sorted"
        );
        assert!(
            cfg.deadline_secs.is_none_or(|d| d > 0.0),
            "deadline must be positive"
        );
        Self {
            model,
            cfg,
            max_delay: cfg.policy.max_delay.as_secs_f64(),
            reroute_budget,
            canary_window: false,
            base_lat: Vec::new(),
            canary_lat: Vec::new(),
            tr: TraceHandle::begin(label),
            out: SimOutcome::default(),
        }
    }

    /// Replays the scheduled hot-swap attempts through the registry's
    /// breaker model: corrupt attempts are rejected and advance the
    /// consecutive-failure counter; the open breaker fails attempts fast
    /// without consuming an attempt ordinal, like
    /// `ModelRegistry::load_and_swap_guarded`.
    fn replay_swaps(&mut self) {
        let mut schedule = self.cfg.swap_schedule.clone();
        schedule.sort_by(f64::total_cmp);
        let mut breaker = Breaker::default();
        for t in schedule {
            let mut opened = false;
            let reason = if breaker.open {
                "breaker_open"
            } else {
                let k = self.out.swap_attempts as u64;
                self.out.swap_attempts += 1;
                if !self.cfg.faults.swap_is_corrupt(k) {
                    breaker.succeed();
                    self.out.swap_published += 1;
                    continue;
                }
                opened = breaker.fail(BREAKER_THRESHOLD);
                "checksum"
            };
            self.out.swap_rejects += 1;
            self.out.breaker_opened |= opened;
            let failures = breaker.failures as u64;
            self.tr
                .event_at(u64::MAX, t, 0.0, EventKind::SwapReject { reason, failures });
            if opened {
                self.tr.event_at(
                    u64::MAX,
                    t,
                    0.0,
                    EventKind::Breaker {
                        open: true,
                        failures,
                    },
                );
            }
        }
    }
}

/// The one virtual-time replica: a request queue in front of a worker
/// pool, drained by the batch former.
pub(crate) struct Replica {
    pub(crate) id: usize,
    /// Serves a canary candidate (its latencies feed the canary arm).
    pub(crate) canary: bool,
    /// Service-time multiplier (canary candidates may be slower).
    pub(crate) factor: f64,
    /// Fleet lifecycle: birth, start of draining (no new traffic) and
    /// the instant a drained replica's last worker went idle.
    pub(crate) born: f64,
    pub(crate) draining: Option<f64>,
    pub(crate) retired: Option<f64>,
    pub(crate) queue: Vec<Queued>,
    worker_free: Vec<f64>,
    /// Which dispatch crashes and which batch straggles.
    schedule: DispatchSchedule,
}

impl Replica {
    /// Replica `id` of `core`'s run, born at `born`, whose workers
    /// accept batches from virtual time `ready`.
    pub(crate) fn new(
        core: &SimCore<'_>,
        id: usize,
        born: f64,
        ready: f64,
        canary: bool,
        factor: f64,
    ) -> Self {
        let workers = core.cfg.workers;
        Self {
            id,
            canary,
            factor,
            born,
            draining: None,
            retired: None,
            queue: Vec::new(),
            worker_free: vec![ready; workers],
            schedule: DispatchSchedule::new(&core.cfg.faults, id, workers),
        }
    }

    /// Whether the replica takes new traffic of its kind (live or canary).
    pub(crate) fn in_service(&self) -> bool {
        self.draining.is_none() && self.retired.is_none()
    }

    /// Admits request `id` arriving at `t`, or sheds it at a full
    /// queue. Returns whether it was admitted. Once per request in
    /// both drivers' loops, hence `#[inline]` (≈ 2 ns of `simulate`'s
    /// ≈ 30 ns per request otherwise).
    #[inline]
    pub(crate) fn admit(&mut self, core: &mut SimCore<'_>, id: usize, t: f64) -> bool {
        let depth = self.queue.len();
        if depth >= core.cfg.queue_capacity {
            core.out.rejected += 1;
            core.out.rejected_ids.push(id);
            if core.tr.enabled() {
                core.tr.event_at(
                    self.id as u64,
                    t,
                    0.0,
                    EventKind::Shed {
                        worker: u64::MAX,
                        count: 1,
                        depth: depth as u64,
                        reason: "watermark",
                    },
                );
            }
            return false;
        }
        let deadline = core.cfg.deadline_secs.map(|d| t + d);
        self.queue.push(Queued {
            id,
            arrived: t,
            deadline,
            attempts: 0,
            reroutes: 0,
        });
        true
    }

    /// Inserts a request rerouted from a sibling, keeping arrival order.
    pub(crate) fn adopt(&mut self, q: Queued) {
        let pos = self.queue.partition_point(|x| x.arrived <= q.arrived);
        self.queue.insert(pos, q);
    }

    /// Sheds every queued request whose deadline lapsed by `cut`.
    /// Returns whether any was shed.
    fn expire(&mut self, core: &mut SimCore<'_>, cut: f64) -> bool {
        let before = self.queue.len();
        let out = &mut core.out;
        self.queue.retain(|q| {
            let gone = lapsed(q.deadline, cut);
            if gone {
                out.expired += 1;
                out.expired_ids.push(q.id);
            }
            !gone
        });
        let n = before - self.queue.len();
        if n > 0 && core.tr.enabled() {
            core.tr.event_at(
                self.id as u64,
                cut,
                0.0,
                EventKind::Shed {
                    worker: u64::MAX,
                    count: n as u64,
                    depth: self.queue.len() as u64,
                    reason: "deadline",
                },
            );
        }
        n > 0
    }

    /// Forms and dispatches every batch whose start time is ≤ `t_limit`.
    /// Crash-orphaned requests the recovery policy reroutes are pushed
    /// to `orphans` with this replica's id. A draining replica retires
    /// once its queue is empty, at the instant its last worker goes idle.
    pub(crate) fn drain(
        &mut self,
        core: &mut SimCore<'_>,
        t_limit: f64,
        orphans: &mut Vec<(Queued, usize)>,
    ) {
        while !self.queue.is_empty() {
            let cfg = core.cfg;
            let max_batch = cfg.policy.max_batch;
            let trigger = batch_trigger(self.queue.len(), max_batch, core.max_delay, |i| {
                self.queue[i].arrived
            });
            // The batch actually starts when a worker is also free.
            let free = self
                .worker_free
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            let start = trigger.max(free).max(self.queue[0].arrived);
            // Expired requests never enter a batch: shed everything that
            // lapsed by the would-be start (bounded by `t_limit` so
            // expiry cannot run ahead of the arrival being admitted),
            // then re-evaluate batch formation against the survivors.
            // (Without deadlines nothing can lapse: skip the sweep.)
            if cfg.deadline_secs.is_some() && self.expire(core, start.min(t_limit)) {
                continue;
            }
            if start > t_limit {
                break;
            }
            // Everything that arrived by the start instant is eligible;
            // a busy pool lets late arrivals ride along.
            let eligible = self.queue.iter().take_while(|q| q.arrived <= start).count();
            let b = eligible.min(max_batch);
            // The earliest-free slot, lowest index on ties.
            let slot = (self.worker_free.iter().position(|&f| f == free)).expect("a worker pool");
            let worker = self.id * cfg.workers + slot;
            // The schedule decides the dispatch: a chaos straggler
            // stretches this slot's service time; a chaos crash kills the
            // slot halfway through the batch, the slot returns after its
            // respawn time, and the recovery policy disposes of each
            // request it held.
            let d = self.schedule.dispatch(slot);
            let svc = core.model.batch_secs(b) * d.slow * self.factor;
            if let Some(respawn) = d.crash {
                let t_crash = start + 0.5 * svc;
                core.out.crashes += 1;
                self.worker_free[slot] = t_crash + respawn;
                core.out.makespan = core.out.makespan.max(self.worker_free[slot]);
                let mut kept = 0;
                for i in 0..b {
                    let mut q = self.queue[i];
                    q.attempts += 1;
                    q.arrived = t_crash;
                    match Recovery::after_crash(
                        q.attempts,
                        MAX_REQUEUES,
                        q.reroutes,
                        core.reroute_budget,
                    ) {
                        Recovery::Requeue => {
                            core.out.requeued += 1;
                            self.queue[kept] = q;
                            kept += 1;
                        }
                        Recovery::Reroute => {
                            q.reroutes += 1;
                            q.attempts = 0;
                            orphans.push((q, self.id));
                        }
                        Recovery::Lost => {
                            core.out.lost += 1;
                            core.out.lost_ids.push(q.id);
                        }
                    }
                }
                self.queue.drain(kept..b);
                core.tr.event_at(
                    worker as u64,
                    t_crash,
                    respawn,
                    EventKind::WorkerRespawn {
                        worker: worker as u64,
                        incarnation: core.out.crashes as u64,
                        backoff_s: respawn,
                        requeued: kept as u64,
                    },
                );
                continue;
            }

            if core.tr.enabled() {
                // Virtual timestamps: the trace of a seeded schedule is
                // bit-identical run to run.
                let (wu, iter) = (worker as u64, core.out.batch_sizes.len() as u64);
                let queue_s = start - self.queue[0].arrived;
                let (span, row) = crate::batch_trace(wu, iter, start, queue_s, svc, b as u64);
                core.tr.event_at(wu, start, svc, span);
                core.tr.row(row);
            }
            for q in &self.queue[..b] {
                core.out.recorder.push(start - q.arrived, svc);
                core.out.served_ids.push(q.id);
            }
            if core.canary_window {
                let arm = if self.canary {
                    &mut core.canary_lat
                } else {
                    &mut core.base_lat
                };
                arm.extend(self.queue[..b].iter().map(|q| start - q.arrived + svc));
            }
            if self.canary {
                core.out.canary_served += b;
            }
            core.out.batch_sizes.push(b);
            core.out.completed += b;
            let end = start + svc;
            core.out.makespan = core.out.makespan.max(end);
            self.worker_free[slot] = end;
            self.queue.drain(..b);
        }
        if let (Some(since), None) = (self.draining, self.retired) {
            if self.queue.is_empty() {
                let idle = self.worker_free.iter().copied().fold(since, f64::max);
                self.retired = Some(idle);
                core.out.makespan = core.out.makespan.max(idle);
            }
        }
    }
}

/// Replays `arrivals` (sorted virtual timestamps, request id = index)
/// through one replica — including the configuration's chaos plan — and
/// returns the full outcome. Bit-deterministic in all inputs.
pub fn simulate(model: &ServiceModel, arrivals: &[f64], cfg: &SimConfig) -> SimOutcome {
    // Reroute budget 0: a single replica has no sibling, so the
    // recovery policy never fills `orphans`.
    let mut core = SimCore::new(model, arrivals, cfg, 0, "serve-sim");
    let mut replica = Replica::new(&core, 0, 0.0, 0.0, false, 1.0);
    let mut orphans = Vec::new();
    for (id, &t) in arrivals.iter().enumerate() {
        // Dispatch everything that happened before this arrival, then
        // apply admission control against the *current* queue depth.
        replica.drain(&mut core, t, &mut orphans);
        replica.admit(&mut core, id, t);
    }
    replica.drain(&mut core, f64::INFINITY, &mut orphans);
    core.replay_swaps();
    core.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::PoissonArrivals;
    use std::time::Duration;

    fn dyn_cfg(max_batch: usize, delay_ms: u64) -> SimConfig {
        SimConfig::new(
            1,
            256,
            BatchPolicy::dynamic(max_batch, Duration::from_millis(delay_ms)),
        )
    }

    #[test]
    fn hep_model_shows_the_batch_efficiency_cliff() {
        let m = ServiceModel::hep();
        let r1 = m.saturated_rate(1);
        let r32 = m.saturated_rate(32);
        assert!(
            r32 >= 2.0 * r1,
            "batch-32 rate {r32:.1}/s must be ≥2× batch-1 rate {r1:.1}/s"
        );
    }

    #[test]
    fn simulation_is_bit_deterministic() {
        let m = ServiceModel::hep();
        let arrivals: Vec<f64> = PoissonArrivals::new(7, 300.0, 400).collect();
        let a = simulate(&m, &arrivals, &dyn_cfg(32, 10));
        let b = simulate(&m, &arrivals, &dyn_cfg(32, 10));
        assert_eq!(a.served_ids, b.served_ids);
        assert_eq!(a.batch_sizes, b.batch_sizes);
        assert_eq!(
            a.recorder.total_summary().unwrap().p99.to_bits(),
            b.recorder.total_summary().unwrap().p99.to_bits()
        );
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    }

    #[test]
    fn light_load_batch1_has_no_queue_wait() {
        let m = ServiceModel::hep();
        // Arrivals far slower than batch-1 service: each request is
        // served alone, immediately.
        let arrivals: Vec<f64> = (0..20).map(|i| i as f64 * 1.0).collect();
        let out = simulate(&m, &arrivals, &dyn_cfg(1, 0));
        assert_eq!(out.completed, 20);
        assert_eq!(out.rejected, 0);
        assert!(out.batch_sizes.iter().all(|&b| b == 1));
        let q = out.recorder.queue_summary().unwrap();
        assert!(
            q.max < 1e-12,
            "idle server should start batches instantly, got {}",
            q.max
        );
    }

    #[test]
    fn saturating_load_forms_full_batches() {
        let m = ServiceModel::hep();
        // Offer ~3× the batch-32 saturated rate: the queue stays deep and
        // the vast majority of batches reach max_batch.
        let rate = 3.0 * m.saturated_rate(32);
        let arrivals: Vec<f64> = PoissonArrivals::new(11, rate, 600).collect();
        let mut cfg = dyn_cfg(32, 10);
        cfg.queue_capacity = 64;
        let out = simulate(&m, &arrivals, &cfg);
        assert!(out.rejected > 0, "overload must shed load");
        let full = out.batch_sizes.iter().filter(|&&b| b == 32).count();
        assert!(
            full * 2 > out.batch_sizes.len(),
            "most batches should be full: {full}/{}",
            out.batch_sizes.len()
        );
        // Dynamic batching at saturation clears ≥2× what batch-1 can.
        let out1 = simulate(&m, &arrivals, &{
            let mut c = dyn_cfg(1, 0);
            c.queue_capacity = 64;
            c
        });
        assert!(out.throughput() >= 2.0 * out1.throughput());
    }

    #[test]
    fn deadline_caps_queue_wait_when_pool_is_idle() {
        let m = ServiceModel::hep();
        // Two requests 1 ms apart, max_batch 32, 5 ms deadline: the
        // batch fires at t0 + 5 ms with both aboard.
        let arrivals = vec![0.0, 0.001];
        let out = simulate(&m, &arrivals, &dyn_cfg(32, 5));
        assert_eq!(out.batch_sizes, vec![2]);
        let q = out.recorder.queue_summary().unwrap();
        assert!((q.max - 0.005).abs() < 1e-12, "head waited {}", q.max);
    }

    #[test]
    fn rejected_plus_served_partition_all_arrivals() {
        let m = ServiceModel::hep();
        let rate = 4.0 * m.saturated_rate(8);
        let arrivals: Vec<f64> = PoissonArrivals::new(13, rate, 300).collect();
        let mut cfg = dyn_cfg(8, 2);
        cfg.queue_capacity = 16;
        let out = simulate(&m, &arrivals, &cfg);
        let mut all: Vec<usize> = out
            .served_ids
            .iter()
            .chain(&out.rejected_ids)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..arrivals.len()).collect::<Vec<_>>());
        assert_eq!(out.completed + out.rejected, arrivals.len());
        assert_eq!(out.recorder.len(), out.completed);
    }

    #[test]
    fn multiple_workers_increase_throughput() {
        let m = ServiceModel::hep();
        let rate = 6.0 * m.saturated_rate(32);
        let arrivals: Vec<f64> = PoissonArrivals::new(17, rate, 800).collect();
        let mut one = dyn_cfg(32, 10);
        one.queue_capacity = 512;
        let mut two = one.clone();
        two.workers = 2;
        let t1 = simulate(&m, &arrivals, &one).throughput();
        let t2 = simulate(&m, &arrivals, &two).throughput();
        assert!(t2 > 1.5 * t1, "2 workers: {t2:.0}/s vs 1 worker: {t1:.0}/s");
    }

    #[test]
    fn worker_crash_requeues_and_every_request_resolves() {
        let m = ServiceModel::hep();
        let rate = 1.2 * m.saturated_rate(8);
        let arrivals: Vec<f64> = PoissonArrivals::new(23, rate, 200).collect();
        let mut cfg = dyn_cfg(8, 5);
        cfg.faults = FaultPlan::none().with_worker_crash(0, 2, 0.05);
        let out = simulate(&m, &arrivals, &cfg);
        assert_eq!(out.crashes, 1);
        assert!(out.requeued > 0, "the crashed batch must be recovered");
        assert_eq!(out.lost, 0, "one crash cannot exhaust the re-queue budget");
        // Exactly-once accounting: every arrival has one terminal
        // outcome even under the crash.
        assert_eq!(out.offered(), arrivals.len());
        assert_eq!(out.recorder.len(), out.completed);
    }

    #[test]
    fn repeated_crashes_past_requeue_budget_lose_requests() {
        let m = ServiceModel::hep();
        let arrivals: Vec<f64> = (0..4).map(|i| i as f64 * 1e-4).collect();
        let mut cfg = dyn_cfg(4, 1);
        // Three crashes on slot 0 with an instant respawn: the same batch
        // dies three times, exceeding the two-re-queue budget.
        cfg.faults = FaultPlan::none()
            .with_worker_crash(0, 0, 0.0)
            .with_worker_crash(0, 0, 0.0)
            .with_worker_crash(0, 0, 0.0);
        let out = simulate(&m, &arrivals, &cfg);
        assert_eq!((out.crashes, out.requeued), (3, 8));
        assert_eq!(out.lost, 4, "the thrice-crashed batch is abandoned");
        assert_eq!(out.completed, 0);
        assert_eq!(out.offered(), arrivals.len());
    }

    #[test]
    fn slow_worker_stretches_its_batches() {
        let m = ServiceModel::hep();
        let arrivals: Vec<f64> = (0..6).map(|i| i as f64 * 1e-5).collect();
        let clean = simulate(&m, &arrivals, &dyn_cfg(2, 0));
        let mut cfg = dyn_cfg(2, 0);
        cfg.faults = FaultPlan::none().with_slow_worker(0, 0, 100, 5.0);
        let slow = simulate(&m, &arrivals, &cfg);
        assert_eq!(slow.completed, clean.completed);
        assert!(
            slow.makespan > 4.0 * clean.makespan,
            "5× straggler: {} vs {}",
            slow.makespan,
            clean.makespan
        );
    }

    #[test]
    fn deadlines_shed_stale_requests_before_compute() {
        let m = ServiceModel::hep();
        let svc1 = m.batch_secs(1);
        // Burst of 6 at t=0, batch-1 service: the pool serves them one
        // at a time, so late positions blow a 2.5-service deadline.
        let arrivals = vec![0.0; 6];
        let mut cfg = dyn_cfg(1, 0);
        cfg.deadline_secs = Some(2.5 * svc1);
        let out = simulate(&m, &arrivals, &cfg);
        assert!(out.expired > 0, "tail of the burst must expire");
        assert_eq!(out.completed + out.expired, 6);
        // Expired requests never entered a batch.
        assert_eq!(out.recorder.len(), out.completed);
        assert_eq!(out.batch_sizes.len(), out.completed);
    }

    #[test]
    fn corrupt_swap_schedule_trips_the_breaker() {
        let m = ServiceModel::hep();
        let arrivals: Vec<f64> = (0..4).map(|i| i as f64 * 0.01).collect();
        let mut cfg = dyn_cfg(4, 1);
        cfg.swap_schedule = vec![0.01, 0.02, 0.03, 0.04, 0.05];
        cfg.faults = (0..3).fold(FaultPlan::none(), FaultPlan::with_corrupt_swap);
        let out = simulate(&m, &arrivals, &cfg);
        // Attempts 0, 1 and 2 are corrupt → breaker opens; attempts at
        // 0.04/0.05 fail fast without consuming an ordinal.
        assert_eq!(out.swap_attempts, 3);
        assert_eq!(out.swap_rejects, 5);
        assert_eq!(out.swap_published, 0);
        assert!(out.breaker_opened);
        assert_eq!(
            out.completed, 4,
            "serving continues on the old model throughout"
        );
    }

    /// The replay wires a published swap to the breaker's success path:
    /// corrupt attempts 0, 1, 3 and 4 with a healthy one between them
    /// never reach a streak of 3. (The breaker's own threshold/reset
    /// table is pinned once, in `policy`.)
    #[test]
    fn published_swap_clears_the_failure_streak_in_virtual_time() {
        let m = ServiceModel::hep();
        let arrivals: Vec<f64> = (0..4).map(|i| i as f64 * 0.01).collect();
        let mut cfg = dyn_cfg(4, 1);
        cfg.swap_schedule = vec![0.01, 0.02, 0.03, 0.04, 0.05];
        cfg.faults = [0, 1, 3, 4]
            .into_iter()
            .fold(FaultPlan::none(), FaultPlan::with_corrupt_swap);
        let out = simulate(&m, &arrivals, &cfg);
        assert_eq!(out.swap_attempts, 5);
        assert_eq!(out.swap_published, 1);
        assert_eq!(out.swap_rejects, 4);
        assert!(!out.breaker_opened, "the published swap resets the streak");
    }

    #[test]
    fn chaos_run_is_bit_deterministic() {
        let m = ServiceModel::hep();
        let rate = 1.5 * m.saturated_rate(8);
        let arrivals: Vec<f64> = PoissonArrivals::new(29, rate, 300).collect();
        let mut cfg = dyn_cfg(8, 5);
        cfg.workers = 2;
        cfg.deadline_secs = Some(0.5);
        cfg.queue_capacity = 128;
        cfg.swap_schedule = vec![0.1, 0.2];
        cfg.faults = scidl_core::faults::serving_chaos();
        let a = simulate(&m, &arrivals, &cfg);
        let b = simulate(&m, &arrivals, &cfg);
        assert_eq!(a.served_ids, b.served_ids);
        assert_eq!(a.expired_ids, b.expired_ids);
        assert_eq!(a.lost_ids, b.lost_ids);
        assert_eq!(a.batch_sizes, b.batch_sizes);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.crashes, b.crashes);
    }
}
