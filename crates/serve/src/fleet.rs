//! Fleet-scale serving: a replicated router in front of N per-replica
//! [`Server`]s with pluggable dispatch and fleet-level priority
//! admission, and the virtual-time fleet simulator that adds an SLO
//! autoscaler and canary rollouts.
//!
//! The threaded [`Router`] composes N supervised replicas (each a
//! [`Server`] with its own worker pool, deadline admission and chaos
//! injection):
//!
//! * **Dispatch** — [`DispatchPolicy`]: round-robin, least-loaded, or
//!   power-of-two-choices over queue depth. Under skewed load (one slow
//!   replica) p2c avoids the hot replica with two cheap depth probes,
//!   beating round-robin's p99 — the property the `scidl-bench
//!   serving_fleet` acceptance check pins.
//! * **Admission** — [`PriorityAdmission`] layers fleet-wide priority
//!   classes on top of each replica's shed watermark: lower-priority
//!   classes shed at a smaller fraction of aggregate fleet headroom, so
//!   interactive traffic survives overload that drops batch traffic.
//! * **Fault routing** — a [`FaultPlan`] with *global* worker indices is
//!   sliced per replica ([`FaultPlan::for_replica`]); when a replica
//!   loses its whole pool the router reroutes in-flight work to a
//!   sibling instead of losing it (budgeted by
//!   [`FleetConfig::reroute_budget`]).
//!
//! [`simulate_fleet`] runs the same dispatch, admission and rerouting
//! over a `Vec` of the one [`crate::sim`] replica in virtual time, and
//! adds the fleet's sizing and rollout decisions:
//!
//! * **Autoscaling** — [`SimAutoscaler`] sizes the fleet from the
//!   arrival rate against the calibrated KNL cost model's per-replica
//!   sustainable rate, stepping ±1 replica per tick. Scale-down drains
//!   the victim replica (its in-flight work completes) — zero downtime.
//! * **Canary** — [`SimCanary`] routes a seeded fraction of traffic to a
//!   candidate model on a dedicated replica, then promotes it (p99
//!   within tolerance of the live model) or rolls it back. Rollbacks
//!   charge the circuit breaker.
//!
//! Every decision above — dispatch pick, priority admission, autoscaler
//! sizing and victim, canary verdict, breaker charge, crash-recovery
//! disposition — is taken by [`crate::policy`]; the [`Router`] feeds it
//! wall-clock observations, [`simulate_fleet`] the event calendar.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::policy::{
    canary_draw, effective_watermark, priority_draw, retry_after, scale_down_victim, Breaker,
    Recovery, ScaleStep,
};
pub use crate::policy::{CanaryGate, DispatchPolicy, Priority, PriorityAdmission, ScalingBand};
use crate::registry::ModelRegistry;
use crate::server::{Client, InferResult, ServeError, Server, ServerConfig, ServerReport};
use crate::sim::{Replica, ServiceModel, SimConfig, SimCore, SimOutcome};
use scidl_cluster::faults::FaultPlan;
use scidl_core::metrics::LatencyRecorder;
use scidl_tensor::Tensor;
use scidl_trace::{EventKind, TraceHandle};

/// Fleet configuration: a per-replica [`ServerConfig`] template plus
/// fleet-level routing, admission and chaos knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Initial replica count.
    pub replicas: usize,
    /// Template for every replica. Its `faults` field is ignored: the
    /// fleet-level [`FleetConfig::faults`] plan (global worker indices)
    /// is sliced per replica instead.
    pub replica: ServerConfig,
    /// Dispatch policy.
    pub dispatch: DispatchPolicy,
    /// Seed for the routing RNG (p2c probes).
    pub seed: u64,
    /// Fleet-level priority admission thresholds.
    pub admission: PriorityAdmission,
    /// How many times a request that lost its replica (pool death) is
    /// rerouted to a sibling before the error surfaces to the caller.
    pub reroute_budget: u32,
    /// Chaos plan with *global* worker indices: replica `r` owns workers
    /// `[r·w, (r+1)·w)` where `w` is the template worker count.
    pub faults: FaultPlan,
}

impl FleetConfig {
    /// A fleet of `replicas` copies of `replica` with default admission
    /// and no chaos.
    pub fn new(replicas: usize, replica: ServerConfig, dispatch: DispatchPolicy) -> Self {
        Self {
            replicas,
            replica,
            dispatch,
            seed: 0,
            admission: PriorityAdmission::default(),
            reroute_budget: 1,
            faults: FaultPlan::none(),
        }
    }
}

/// What the fleet machinery did over the router's lifetime.
#[derive(Clone, Debug, Default)]
pub struct FleetReport {
    /// Requests the router dispatched to a replica.
    pub routed: u64,
    /// Requests shed by fleet-level priority admission, per class.
    pub fleet_shed: [u64; 3],
    /// Reroutes after a replica lost the request (pool death).
    pub rerouted: u64,
    /// Replicas retired after losing their pool.
    pub replicas_lost: u64,
    /// Live replicas at shutdown.
    pub final_replicas: usize,
    /// Aggregated per-replica resilience counters (live + retired).
    pub servers: ServerReport,
}

fn merge_reports(into: &mut ServerReport, r: &ServerReport) {
    into.served += r.served;
    into.shed += r.shed;
    into.expired += r.expired;
    into.panics += r.panics;
    into.respawns += r.respawns;
    into.replacements += r.replacements;
    into.requeued += r.requeued;
    into.worker_lost += r.worker_lost;
}

// ---------------------------------------------------------------------------
// The threaded router.
// ---------------------------------------------------------------------------

struct Slot {
    id: usize,
    server: Server,
    client: Client,
}

#[derive(Default)]
struct Retired {
    recorder: LatencyRecorder,
    reports: Vec<ServerReport>,
}

/// Replicated serving front end: owns N replica [`Server`]s and routes
/// every request through fleet admission and the configured dispatch
/// policy. All methods take `&self`; the router is shared across client
/// threads behind an `Arc`.
pub struct Router {
    cfg: FleetConfig,
    slots: RwLock<Vec<Slot>>,
    rr: AtomicUsize,
    ordinal: AtomicU64,
    routed: AtomicU64,
    fleet_shed: [AtomicU64; 3],
    rerouted: AtomicU64,
    replicas_lost: AtomicU64,
    retired: Mutex<Retired>,
    tr: TraceHandle,
}

impl Router {
    /// Starts `cfg.replicas` replica servers against `registry` and
    /// returns the router.
    pub fn start(registry: Arc<ModelRegistry>, cfg: FleetConfig) -> Self {
        assert!(cfg.replicas >= 1, "fleet needs at least one replica");
        assert!(
            cfg.admission.shed_frac.iter().all(|&f| f > 0.0 && f <= 1.0),
            "admission shed fractions must be in (0, 1]"
        );
        let slots: Vec<Slot> = (0..cfg.replicas)
            .map(|id| {
                let mut rc = cfg.replica.clone();
                rc.faults = cfg.faults.for_replica(id, cfg.replica.workers);
                let server = Server::start(Arc::clone(&registry), rc);
                Slot {
                    id,
                    client: server.client(),
                    server,
                }
            })
            .collect();
        Self {
            cfg,
            slots: RwLock::new(slots),
            rr: AtomicUsize::new(0),
            ordinal: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            fleet_shed: Default::default(),
            rerouted: AtomicU64::new(0),
            replicas_lost: AtomicU64::new(0),
            retired: Mutex::new(Retired::default()),
            tr: TraceHandle::begin("fleet"),
        }
    }

    /// Live replicas.
    pub fn live_replicas(&self) -> usize {
        self.slots.read().unwrap().len()
    }

    /// Aggregate queued requests across live replicas.
    pub fn fleet_depth(&self) -> usize {
        self.slots
            .read()
            .unwrap()
            .iter()
            .map(|s| s.server.queue_depth())
            .sum()
    }

    /// [`Router::infer_with_priority`] at [`Priority::Standard`] with no
    /// deadline.
    pub fn infer(&self, input: Tensor) -> Result<InferResult, ServeError> {
        self.infer_with_priority(input, Priority::Standard, None)
    }

    /// Routes one request through fleet admission and the dispatch
    /// policy; a replica that dies holding the request is retired and
    /// the request rerouted within [`FleetConfig::reroute_budget`].
    pub fn infer_with_priority(
        &self,
        input: Tensor,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<InferResult, ServeError> {
        let ordinal = self.ordinal.fetch_add(1, Ordering::Relaxed);
        // Fleet-level priority admission against aggregate headroom.
        let p = priority.index();
        let backlog = self.fleet_depth();
        let live = self.live_replicas().max(1);
        let replica = &self.cfg.replica;
        let watermark = effective_watermark(replica.shed_watermark, replica.queue_capacity);
        if self.cfg.admission.sheds(p, backlog, live, watermark) {
            self.fleet_shed[p].fetch_add(1, Ordering::Relaxed);
            let retry_after = retry_after(&replica.policy, backlog);
            return Err(ServeError::Shed {
                depth: backlog,
                retry_after,
            });
        }
        let start = Instant::now();
        let mut avoid: Option<usize> = None;
        let mut attempt: u32 = 0;
        loop {
            let remaining = match deadline {
                Some(d) => {
                    let left = d.saturating_sub(start.elapsed());
                    if left.is_zero() {
                        return Err(ServeError::DeadlineExceeded);
                    }
                    Some(left)
                }
                None => None,
            };
            let Some((rid, depth, client)) = self.pick(ordinal, avoid) else {
                return Err(ServeError::Closed);
            };
            if self.tr.enabled() {
                self.tr.instant(
                    rid as u64,
                    EventKind::Route {
                        replica: rid as u64,
                        depth: depth as u64,
                        policy: self.cfg.dispatch.name(),
                    },
                );
            }
            match client.infer_with_deadline(input.clone(), remaining) {
                Ok(r) => {
                    self.routed.fetch_add(1, Ordering::Relaxed);
                    return Ok(r);
                }
                Err(e @ (ServeError::WorkerLost | ServeError::Closed)) => {
                    if matches!(e, ServeError::Closed) {
                        // The replica's pool is gone: retire it so no
                        // future request routes there.
                        self.retire_slot(rid, true);
                    }
                    // The replica already spent the request's re-queue
                    // budget (that is what these errors mean): only the
                    // reroute half of the disposition is left to take.
                    if Recovery::after_crash(1, 0, attempt, self.cfg.reroute_budget)
                        == Recovery::Lost
                    {
                        return Err(e);
                    }
                    attempt += 1;
                    avoid = Some(rid);
                    self.rerouted.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Picks `(replica id, depth, client)` under the read lock, then
    /// drops the lock so the blocking infer call cannot deadlock a
    /// replica's retirement.
    fn pick(&self, ordinal: u64, avoid: Option<usize>) -> Option<(usize, usize, Client)> {
        let slots = self.slots.read().unwrap();
        let live_but = |skip: Option<usize>| -> Vec<&Slot> {
            slots.iter().filter(|s| Some(s.id) != skip).collect()
        };
        let mut live = live_but(avoid);
        if live.is_empty() {
            // Only the avoided replica remains: better to retry it than
            // to fail outright.
            live = live_but(None);
        }
        if live.is_empty() {
            return None;
        }
        // Slots are created with ascending ids and only ever removed,
        // so `live` is in the id order `DispatchPolicy::pick` expects.
        let turn = self.rr.fetch_add(1, Ordering::Relaxed);
        let s = live[self
            .cfg
            .dispatch
            .pick(self.cfg.seed, ordinal, turn, live.len(), |i| {
                live[i].server.queue_depth()
            })];
        Some((s.id, s.server.queue_depth(), s.client.clone()))
    }

    /// Removes slot `id` (if still present), drains it and merges its
    /// latency recorder and report into the retired pool.
    fn retire_slot(&self, id: usize, lost: bool) {
        let slot = {
            let mut slots = self.slots.write().unwrap();
            match slots.iter().position(|s| s.id == id) {
                Some(i) => slots.remove(i),
                None => return,
            }
        };
        if lost {
            self.replicas_lost.fetch_add(1, Ordering::Relaxed);
            if self.tr.enabled() {
                self.tr.instant(
                    id as u64,
                    EventKind::ScaleDown {
                        replicas: self.live_replicas() as u64,
                        backlog: self.fleet_depth() as u64,
                    },
                );
            }
        }
        let (rec, rep) = slot.server.shutdown_with_report();
        let mut retired = self.retired.lock().unwrap();
        retired.recorder.merge(&rec);
        retired.reports.push(rep);
    }

    /// Snapshot of the fleet counters plus aggregated per-replica
    /// reports (live and retired).
    pub fn report(&self) -> FleetReport {
        let mut servers = ServerReport::default();
        for s in self.slots.read().unwrap().iter() {
            merge_reports(&mut servers, &s.server.report());
        }
        for r in &self.retired.lock().unwrap().reports {
            merge_reports(&mut servers, r);
        }
        FleetReport {
            routed: self.routed.load(Ordering::Relaxed),
            fleet_shed: [
                self.fleet_shed[0].load(Ordering::Relaxed),
                self.fleet_shed[1].load(Ordering::Relaxed),
                self.fleet_shed[2].load(Ordering::Relaxed),
            ],
            rerouted: self.rerouted.load(Ordering::Relaxed),
            replicas_lost: self.replicas_lost.load(Ordering::Relaxed),
            final_replicas: self.live_replicas(),
            servers,
        }
    }

    /// Drains and shuts down every replica; returns the merged latency
    /// recorder and the final fleet report.
    pub fn shutdown_with_report(self) -> (LatencyRecorder, FleetReport) {
        let final_replicas = self.live_replicas();
        let ids: Vec<usize> = self.slots.read().unwrap().iter().map(|s| s.id).collect();
        for id in ids {
            self.retire_slot(id, false);
        }
        let report = FleetReport {
            final_replicas,
            ..self.report()
        };
        (self.retired.into_inner().unwrap().recorder, report)
    }
}

// ---------------------------------------------------------------------------
// Virtual-time fleet simulator.
// ---------------------------------------------------------------------------

/// Autoscaler knobs for the fleet simulator, evaluated at fixed
/// virtual-time ticks against the cost model's per-replica saturated
/// rate. The simulator keeps no latency window, so the SLO never reads
/// as breached.
#[derive(Clone, Copy, Debug)]
pub struct SimAutoscaler {
    /// The sizing policy.
    pub band: ScalingBand,
    /// Interval between autoscaler evaluations (virtual seconds).
    pub tick_secs: f64,
    /// Delay before a scaled-up replica's workers accept batches.
    pub startup_secs: f64,
}

impl Default for SimAutoscaler {
    fn default() -> Self {
        Self {
            band: ScalingBand::default(),
            tick_secs: 0.25,
            startup_secs: 0.05,
        }
    }
}

/// Canary rollout knobs for the fleet simulator. The decision instant
/// is scheduled, so one sample per arm suffices and an empty arm rolls
/// back.
#[derive(Clone, Copy, Debug)]
pub struct SimCanary {
    /// The traffic split and promotion bar.
    pub gate: CanaryGate,
    /// Virtual time the canary replica starts taking traffic.
    pub start_secs: f64,
    /// Virtual time the promote/rollback decision is taken.
    pub decide_secs: f64,
    /// Service-time multiplier of the candidate model (1.0 = identical
    /// cost to the live model; larger = an injected SLO regression).
    pub service_factor: f64,
    /// Iteration stamp of the candidate model (the outcome's
    /// `final_iteration` proves which model ended up serving).
    pub candidate_iteration: u64,
}

/// Fleet-level virtual-time configuration, extending the per-replica
/// [`SimConfig`].
///
/// `base` supplies the per-replica semantics (workers per replica,
/// queue, policy, watermark, deadlines, breaker threshold, re-queue
/// budget). Two `base` fields are reinterpreted at fleet scope:
///
/// * `base.faults` worker indices are **global**: replica `r` owns
///   workers `[r·w, (r+1)·w)` for `w = base.workers`, exactly like the
///   threaded [`FleetConfig::faults`] plan.
/// * `base.swap_schedule` is **ignored** — fleet rollouts happen
///   through the [`SimCanary`] machinery, whose rollbacks charge the
///   same breaker (`base.breaker_threshold`).
#[derive(Clone, Debug)]
pub struct FleetSimConfig {
    /// Per-replica serving semantics (see the type-level docs for the
    /// fields reinterpreted at fleet scope).
    pub base: SimConfig,
    /// Initial replica count.
    pub replicas: usize,
    /// Dispatch policy.
    pub dispatch: DispatchPolicy,
    /// Seed for the routing RNG (priority draw, canary split, p2c).
    pub seed: u64,
    /// Fleet-level priority admission thresholds.
    pub admission: PriorityAdmission,
    /// Relative weights of the three priority classes assigned to
    /// arrivals by the seeded draw (need not sum to 1).
    pub priority_mix: [f64; 3],
    /// Reroutes a request survives after its replica dies holding it.
    pub reroute_budget: u32,
    /// Optional SLO autoscaler.
    pub autoscaler: Option<SimAutoscaler>,
    /// Optional canary rollout.
    pub canary: Option<SimCanary>,
}

impl FleetSimConfig {
    /// A fleet of `replicas` identical replicas with default admission,
    /// a standard-heavy priority mix, and neither autoscaler nor canary.
    pub fn new(replicas: usize, base: SimConfig, dispatch: DispatchPolicy) -> Self {
        Self {
            base,
            replicas,
            dispatch,
            seed: 0,
            admission: PriorityAdmission::default(),
            priority_mix: [0.2, 0.5, 0.3],
            reroute_budget: 1,
            autoscaler: None,
            canary: None,
        }
    }
}

/// Everything the fleet simulation observed: the one virtual-time
/// accounting type.
pub type FleetSimOutcome = SimOutcome;

/// Whether the router may send new (non-canary) traffic to `r`.
fn routable(r: &Replica) -> bool {
    !r.canary && r.in_service()
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FleetEvent {
    AutoscaleTick,
    CanaryStart,
    CanaryDecide,
}

/// The fleet-level half of the simulation: routing, reroute placement
/// and the autoscale/canary events. Replicas are never removed from
/// `reps`, so a replica's id is its index.
struct FleetSim<'a> {
    core: SimCore<'a>,
    cfg: &'a FleetSimConfig,
    reps: Vec<Replica>,
    /// Scratch: indices of the routable replicas at the current arrival.
    routable: Vec<usize>,
    rr: usize,
    arrivals_since_tick: u64,
    breaker: Breaker,
}

impl FleetSim<'_> {
    fn spawn(&mut self, born: f64, ready: f64, canary: bool, factor: f64) -> usize {
        let id = self.reps.len();
        self.reps
            .push(Replica::new(&self.core, id, born, ready, canary, factor));
        id
    }

    /// `(live replicas, their aggregate backlog)`.
    fn load(&self) -> (usize, usize) {
        (self.reps.iter().filter(|r| routable(r))).fold((0, 0), |(live, backlog), r| {
            (live + 1, backlog + r.queue.len())
        })
    }

    /// Drains every replica up to `t`, rerouting crash-orphaned work to
    /// sibling replicas until no reroutes remain.
    fn drain_all(&mut self, t: f64) {
        let mut orphans = Vec::new();
        loop {
            for r in &mut self.reps {
                r.drain(&mut self.core, t, &mut orphans);
            }
            if orphans.is_empty() {
                return;
            }
            for (q, src) in orphans.drain(..) {
                // Least-loaded placement, excluding the dead replica —
                // unless it is the only one left.
                let place = |skip: Option<usize>| {
                    (self.reps.iter().enumerate())
                        .filter(|(i, r)| routable(r) && Some(*i) != skip)
                        .min_by_key(|(_, r)| r.queue.len())
                        .map(|(i, _)| i)
                };
                let Some(ti) = place(Some(src)).or_else(|| place(None)) else {
                    self.core.out.lost += 1;
                    self.core.out.lost_ids.push(q.id);
                    continue;
                };
                self.core.out.rerouted += 1;
                self.core.tr.event_at(
                    ti as u64,
                    q.arrived,
                    0.0,
                    EventKind::Route {
                        replica: ti as u64,
                        depth: self.reps[ti].queue.len() as u64,
                        policy: "reroute",
                    },
                );
                self.reps[ti].adopt(q);
            }
        }
    }

    /// Routes one arrival: priority draw, fleet admission, canary
    /// split, dispatch policy, replica watermark.
    fn arrival(&mut self, id: usize, t: f64) {
        let (cfg, ordinal) = (self.cfg, id as u64);
        self.arrivals_since_tick += 1;
        let class = priority_draw(cfg.seed, ordinal, cfg.priority_mix);
        self.routable.clear();
        self.routable
            .extend((0..self.reps.len()).filter(|&i| routable(&self.reps[i])));
        let live = self.routable.len();
        if live == 0 {
            self.core.out.rejected += 1;
            self.core.out.rejected_ids.push(id);
            return;
        }
        let backlog: usize = self
            .routable
            .iter()
            .map(|&i| self.reps[i].queue.len())
            .sum();
        if cfg
            .admission
            .sheds(class, backlog, live, self.core.watermark)
        {
            self.core.out.fleet_shed[class] += 1;
            self.core.out.rejected_ids.push(id);
            if self.core.tr.enabled() {
                self.core.tr.event_at(
                    u64::MAX,
                    t,
                    0.0,
                    EventKind::Shed {
                        worker: u64::MAX,
                        count: 1,
                        depth: backlog as u64,
                        reason: "fleet",
                    },
                );
            }
            return;
        }
        let canary = (cfg.canary.filter(|_| self.core.canary_window))
            .filter(|c| canary_draw(cfg.seed, ordinal, c.gate.fraction))
            .and_then(|_| self.reps.iter().position(|r| r.canary && r.in_service()));
        let (ri, policy) = match canary {
            Some(ci) => (ci, "canary"),
            None => {
                let k = cfg.dispatch.pick(cfg.seed, ordinal, self.rr, live, |k| {
                    self.reps[self.routable[k]].queue.len()
                });
                self.rr += 1;
                (self.routable[k], cfg.dispatch.name())
            }
        };
        let depth = self.reps[ri].queue.len() as u64;
        if self.reps[ri].admit(&mut self.core, id, t) && self.core.tr.enabled() {
            let replica = ri as u64;
            self.core.tr.event_at(
                replica,
                t,
                0.0,
                EventKind::Route {
                    replica,
                    depth,
                    policy,
                },
            );
        }
    }

    fn handle_event(&mut self, et: f64, event: FleetEvent) {
        match event {
            FleetEvent::AutoscaleTick => self.autoscale(et),
            FleetEvent::CanaryStart => {
                let c = self.cfg.canary.expect("canary event without config");
                let id = self.spawn(et, et, true, c.service_factor) as u64;
                self.core.canary_window = true;
                self.core.tr.event_at(
                    id,
                    et,
                    0.0,
                    EventKind::Canary {
                        action: "begin",
                        replica: id,
                        fraction: c.gate.fraction,
                    },
                );
            }
            FleetEvent::CanaryDecide => self.decide_canary(et),
        }
    }

    fn autoscale(&mut self, et: f64) {
        let a = self.cfg.autoscaler.expect("autoscale tick without config");
        let base = &self.cfg.base;
        let rate = self.arrivals_since_tick as f64 / a.tick_secs;
        self.arrivals_since_tick = 0;
        let per_rep = base.workers as f64 * self.core.model.saturated_rate(base.policy.max_batch);
        let (live, backlog) = self.load();
        let desired = a.band.desired_replicas(rate, per_rep);
        match a.band.step(desired, live, backlog) {
            ScaleStep::Up => {
                let id = self.spawn(et, et + a.startup_secs, false, 1.0);
                self.core.out.scale_ups += 1;
                self.core.tr.event_at(
                    id as u64,
                    et,
                    a.startup_secs,
                    EventKind::ScaleUp {
                        replicas: (live + 1) as u64,
                        backlog: backlog as u64,
                    },
                );
            }
            ScaleStep::Down => {
                let candidates = self.reps.iter().filter(|r| routable(r));
                let victim = scale_down_victim(candidates.map(|r| (r.queue.len(), r.id)))
                    .expect("a live replica above the floor");
                self.reps[victim].draining = Some(et);
                self.core.out.scale_downs += 1;
                self.core.tr.event_at(
                    victim as u64,
                    et,
                    0.0,
                    EventKind::ScaleDown {
                        replicas: (live - 1) as u64,
                        backlog: backlog as u64,
                    },
                );
            }
            ScaleStep::Hold => {}
        }
    }

    fn decide_canary(&mut self, et: f64) {
        let c = self.cfg.canary.expect("canary decision without config");
        self.core.canary_window = false;
        let Some(ci) = self.reps.iter().position(|r| r.canary) else {
            return;
        };
        let pass = c.gate.verdict(&self.core.base_lat, &self.core.canary_lat);
        if pass {
            // Promote: the candidate serves everywhere from here on.
            self.core.out.final_iteration = c.candidate_iteration;
            for r in &mut self.reps {
                r.factor = c.service_factor;
            }
            self.reps[ci].canary = false;
            self.core.out.canary_promoted = true;
        } else {
            // Rollback: drain the canary replica; the regression is a
            // rollout failure charged to the breaker.
            self.reps[ci].draining = Some(et);
            self.core.out.canary_rolled_back = true;
            if self.breaker.fail(self.cfg.base.breaker_threshold) {
                self.core.out.breaker_opened = true;
                self.core.tr.event_at(
                    u64::MAX,
                    et,
                    0.0,
                    EventKind::Breaker {
                        open: true,
                        failures: self.breaker.failures as u64,
                    },
                );
            }
        }
        self.core.tr.event_at(
            ci as u64,
            et,
            0.0,
            EventKind::Canary {
                action: if pass { "promote" } else { "rollback" },
                replica: ci as u64,
                fraction: c.gate.fraction,
            },
        );
    }
}

/// Replays `arrivals` (sorted virtual timestamps, request id = index)
/// through the replicated router model — dispatch policy, priority
/// admission, canary rollout, autoscaler and the global chaos plan —
/// and returns the full fleet outcome. Bit-deterministic in all inputs.
pub fn simulate_fleet(
    model: &ServiceModel,
    arrivals: &[f64],
    cfg: &FleetSimConfig,
) -> FleetSimOutcome {
    assert!(cfg.replicas >= 1, "fleet needs at least one replica");
    assert!(
        cfg.priority_mix.iter().sum::<f64>() > 0.0,
        "priority mix must have positive mass"
    );

    // Scheduled events: autoscaler ticks while arrivals flow, plus the
    // canary start/decide pair. Ties process in (tick, start, decide)
    // order.
    let mut events: Vec<(f64, FleetEvent)> = Vec::new();
    if let Some(a) = &cfg.autoscaler {
        assert!(a.tick_secs > 0.0, "autoscaler tick must be positive");
        let last = arrivals.last().copied().unwrap_or(0.0);
        let ticks = (1u64..)
            .map(|k| k as f64 * a.tick_secs)
            .take_while(|&t| t <= last);
        events.extend(ticks.map(|t| (t, FleetEvent::AutoscaleTick)));
    }
    if let Some(c) = &cfg.canary {
        assert!(
            c.decide_secs > c.start_secs,
            "canary must decide after it starts"
        );
        events.push((c.start_secs, FleetEvent::CanaryStart));
        events.push((c.decide_secs, FleetEvent::CanaryDecide));
    }
    events.sort_by(|a, b| f64::total_cmp(&a.0, &b.0).then(a.1.cmp(&b.1)));

    let mut st = FleetSim {
        core: SimCore::new(model, arrivals, &cfg.base, cfg.reroute_budget, "fleet-sim"),
        cfg,
        reps: Vec::new(),
        routable: Vec::new(),
        rr: 0,
        arrivals_since_tick: 0,
        breaker: Breaker::default(),
    };
    for _ in 0..cfg.replicas {
        st.spawn(0.0, 0.0, false, 1.0);
    }
    let mut events = events.into_iter().peekable();
    for (id, &t) in arrivals.iter().enumerate() {
        while let Some((et, event)) = events.next_if(|e| e.0 <= t) {
            st.drain_all(et);
            st.handle_event(et, event);
        }
        st.drain_all(t);
        st.arrival(id, t);
    }
    for (et, event) in events {
        st.drain_all(et);
        st.handle_event(et, event);
    }
    st.drain_all(f64::INFINITY);
    let mut out = st.core.out;
    out.replica_seconds = st
        .reps
        .iter()
        .map(|r| r.retired.unwrap_or(out.makespan).max(r.born) - r.born)
        .sum();
    out.final_replicas = st.reps.iter().filter(|r| routable(r)).count();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::PoissonArrivals;
    use crate::queue::BatchPolicy;
    use crate::registry::ServingModel;
    use scidl_nn::arch::hep_small;
    use scidl_tensor::{Shape4, TensorRng};

    fn registry(seed: u64, iteration: u64) -> Arc<ModelRegistry> {
        let mut rng = TensorRng::new(seed);
        Arc::new(ModelRegistry::new(ServingModel::new(
            hep_small(&mut rng),
            iteration,
            seed,
        )))
    }

    fn probe(seed: u64) -> Tensor {
        let mut rng = TensorRng::new(seed);
        rng.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0)
    }

    fn base_cfg() -> SimConfig {
        SimConfig::new(
            2,
            64,
            BatchPolicy::dynamic(8, std::time::Duration::from_millis(5)),
        )
    }

    #[test]
    fn fleet_sim_is_bit_deterministic() {
        let m = ServiceModel::hep();
        let arrivals: Vec<f64> = PoissonArrivals::new(11, 600.0, 500).collect();
        let mut cfg = FleetSimConfig::new(3, base_cfg(), DispatchPolicy::PowerOfTwoChoices);
        cfg.seed = 42;
        let a = simulate_fleet(&m, &arrivals, &cfg);
        let b = simulate_fleet(&m, &arrivals, &cfg);
        assert_eq!(a.served_ids, b.served_ids);
        assert_eq!(a.batch_sizes, b.batch_sizes);
        assert_eq!(a.p99().to_bits(), b.p99().to_bits());
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.replica_seconds.to_bits(), b.replica_seconds.to_bits());
    }

    #[test]
    fn p2c_beats_round_robin_p99_under_skewed_load() {
        let m = ServiceModel::hep();
        // Replica 0's workers are 4x stragglers for their whole life:
        // round-robin keeps feeding the hot replica, p2c's depth probes
        // steer around it once its queue grows. A deep queue keeps the
        // watermark from truncating round-robin's tail.
        let mut base = SimConfig::new(
            2,
            512,
            BatchPolicy::dynamic(8, std::time::Duration::from_millis(5)),
        );
        for w in 0..base.workers {
            base.faults = base.faults.clone().with_slow_worker(w, 0, u64::MAX, 4.0);
        }
        // Saturating offered load: per-replica capacity is ~2 workers *
        // saturated_rate(8); offer ~80% of 3 healthy replicas' worth so
        // the slow replica's queue visibly backs up.
        let rate = 3.0 * 2.0 * m.saturated_rate(8) * 0.8;
        let arrivals: Vec<f64> = PoissonArrivals::new(9, rate, 1500).collect();
        let p99 = |d: DispatchPolicy| {
            let mut cfg = FleetSimConfig::new(3, base.clone(), d);
            cfg.seed = 4242;
            // Single class: isolate dispatch from priority admission.
            cfg.priority_mix = [0.0, 1.0, 0.0];
            cfg.admission = PriorityAdmission {
                shed_frac: [1.0, 1.0, 1.0],
            };
            simulate_fleet(&m, &arrivals, &cfg).p99()
        };
        let rr = p99(DispatchPolicy::RoundRobin);
        let p2c = p99(DispatchPolicy::PowerOfTwoChoices);
        assert!(
            p2c <= rr,
            "p2c p99 {p2c:.4}s must not exceed round-robin p99 {rr:.4}s under skew"
        );
    }

    #[test]
    fn autoscaler_grows_under_burst_and_shrinks_when_quiet() {
        let m = ServiceModel::hep();
        let base = base_cfg();
        let per_rep = 2.0 * m.saturated_rate(8);
        // A burst at ~3 replicas' worth of load, then a long quiet tail.
        let burst: Vec<f64> = PoissonArrivals::new(5, 3.0 * per_rep, 1200).collect();
        let burst_end = *burst.last().unwrap();
        let mut arrivals = burst;
        for i in 0..40 {
            arrivals.push(burst_end + 0.5 + i as f64 * 0.5);
        }
        let mut cfg = FleetSimConfig::new(1, base, DispatchPolicy::LeastLoaded);
        cfg.autoscaler = Some(SimAutoscaler {
            band: ScalingBand {
                min_replicas: 1,
                max_replicas: 6,
                target_util: 0.7,
                scale_down_backlog: 4,
            },
            tick_secs: 0.2,
            startup_secs: 0.02,
        });
        let out = simulate_fleet(&m, &arrivals, &cfg);
        assert!(
            out.scale_ups >= 2,
            "burst must trigger scale-ups, got {}",
            out.scale_ups
        );
        assert!(
            out.scale_downs >= 1,
            "quiet tail must shrink, got {}",
            out.scale_downs
        );
        let a = cfg.autoscaler.unwrap().band;
        assert!(
            (a.min_replicas..=a.max_replicas).contains(&out.final_replicas),
            "final replica count {} outside [{}, {}]",
            out.final_replicas,
            a.min_replicas,
            a.max_replicas
        );
    }

    #[test]
    fn canary_promotes_equal_candidate_and_rolls_back_regression() {
        let m = ServiceModel::hep();
        let arrivals: Vec<f64> = PoissonArrivals::new(3, 400.0, 800).collect();
        let mk = |factor: f64| {
            let mut cfg = FleetSimConfig::new(2, base_cfg(), DispatchPolicy::LeastLoaded);
            cfg.seed = 7;
            cfg.base.breaker_threshold = 1;
            cfg.canary = Some(SimCanary {
                start_secs: 0.1,
                decide_secs: *arrivals.last().unwrap() * 0.9,
                gate: CanaryGate {
                    fraction: 0.25,
                    regression_tol: 0.25,
                },
                service_factor: factor,
                candidate_iteration: 9000,
            });
            simulate_fleet(&m, &arrivals, &cfg)
        };
        let good = mk(1.0);
        assert!(good.canary_promoted && !good.canary_rolled_back);
        assert_eq!(
            good.final_iteration, 9000,
            "promotion must publish the candidate"
        );
        assert!(good.canary_served > 0, "the canary must have taken traffic");
        let bad = mk(8.0);
        assert!(bad.canary_rolled_back && !bad.canary_promoted);
        assert_eq!(
            bad.final_iteration, 0,
            "rollback must leave the old model serving"
        );
        assert!(
            bad.breaker_opened,
            "rollout failure must charge the breaker"
        );
    }

    #[test]
    fn replica_crash_reroutes_without_losing_or_duplicating_requests() {
        let m = ServiceModel::hep();
        // Both workers of replica 0 crash early and respawn very late —
        // effectively a replica loss. With zero same-replica re-queues
        // every orphan must cross to replica 1 (or be counted lost).
        let mut base = base_cfg();
        base.max_requeues = 0;
        base.faults = base
            .faults
            .clone()
            .with_worker_crash(0, 1, 1e6)
            .with_worker_crash(1, 1, 1e6);
        let arrivals: Vec<f64> = PoissonArrivals::new(13, 500.0, 600).collect();
        let mut cfg = FleetSimConfig::new(2, base, DispatchPolicy::RoundRobin);
        cfg.seed = 99;
        cfg.reroute_budget = 2;
        let out = simulate_fleet(&m, &arrivals, &cfg);
        assert!(
            out.crashes >= 2,
            "both crash events must fire, got {}",
            out.crashes
        );
        assert!(out.rerouted > 0, "orphans must reroute to the sibling");
        // Exactly-once: every arrival id lands in exactly one terminal
        // category.
        let mut all: Vec<usize> = out
            .served_ids
            .iter()
            .chain(&out.rejected_ids)
            .chain(&out.expired_ids)
            .chain(&out.lost_ids)
            .copied()
            .collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..arrivals.len()).collect();
        assert_eq!(all, expect, "terminal outcomes must partition the arrivals");
        assert_eq!(out.offered(), arrivals.len());
    }

    #[test]
    fn threaded_router_routes_across_replicas() {
        let reg = registry(50, 1);
        let rc = ServerConfig {
            workers: 1,
            queue_capacity: 32,
            ..Default::default()
        };
        let cfg = FleetConfig::new(2, rc, DispatchPolicy::RoundRobin);
        let router = Router::start(reg, cfg);
        for i in 0..8 {
            let r = router.infer(probe(60 + i)).expect("infer must succeed");
            assert_eq!(r.model_iteration, 1);
        }
        assert_eq!(router.live_replicas(), 2);
        let (rec, report) = router.shutdown_with_report();
        assert_eq!(report.routed, 8);
        assert_eq!(report.servers.served, 8);
        assert_eq!(rec.len(), 8);
        assert_eq!(report.final_replicas, 2);
    }
}
