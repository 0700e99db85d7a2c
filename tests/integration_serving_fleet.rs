//! Fleet-tier acceptance: the same seed and `FaultPlan` (global worker
//! indices) drive BOTH the threaded `Router` and the virtual-time fleet
//! simulator, proving:
//!
//! * exactly-once terminal outcomes fleet-wide under replica-crash
//!   chaos — a replica that loses its pool is retired and its work
//!   rerouted to a sibling, never dropped or answered twice,
//! * a simulated canary rollback on an injected SLO regression leaves
//!   the old model serving (and charges the circuit breaker) while the
//!   autoscaler keeps the replica count within its configured band,
//! * a seeded fleet simulation replays bit-identically,
//! * a one-replica fleet simulation and `simulate` are the same replica
//!   (field-for-field equal outcomes where the fleet layer cannot bite),
//!   and both reproduce the outcome digests captured before the two
//!   replica implementations were merged.

use scidl_cluster::faults::FaultPlan;
use scidl_serve::fleet::{
    simulate_fleet, CanaryGate, DispatchPolicy, FleetConfig, FleetSimConfig, ScalingBand,
    SimAutoscaler, SimCanary,
};
use scidl_serve::queue::BatchPolicy;
use scidl_serve::sim::{simulate, ServiceModel, SimConfig, SimOutcome};
use scidl_serve::{
    ModelRegistry, PoissonArrivals, ServeError, ServerConfig, ServingModel, SupervisorConfig,
};
use scidl_tensor::{Shape4, Tensor, TensorRng};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 4242;

fn probe(seed: u64) -> Tensor {
    let mut rng = TensorRng::new(seed);
    rng.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0)
}

fn registry(seed: u64, iteration: u64) -> Arc<ModelRegistry> {
    let mut rng = TensorRng::new(seed);
    Arc::new(ModelRegistry::new(ServingModel::new(
        scidl_nn::arch::hep_small(&mut rng),
        iteration,
        seed,
    )))
}

/// The shared chaos plan: replica 0's only worker (global worker 0)
/// crashes on its second dispatch and the two after it, the third time
/// for good — a replica loss. Under threads with no respawns the first
/// crash already ends the pool; in virtual time, where a slot always
/// respawns, the batch it held dies three times, one more than its two
/// re-queues, and is rerouted.
fn replica_loss_plan() -> FaultPlan {
    FaultPlan::none()
        .with_worker_crash(0, 1, 0.0)
        .with_worker_crash(0, 1, 0.0)
        .with_worker_crash(0, 1, 1e6)
}

/// Replica-crash chaos against real threads: one-worker replicas with a
/// zero-respawn supervisor turn the injected crash into a pool loss;
/// the router must retire the dead replica, reroute its in-flight work,
/// and still deliver exactly one terminal outcome per request.
#[test]
fn threaded_router_survives_replica_loss_with_exactly_once_outcomes() {
    let plan = replica_loss_plan();
    let reg = registry(31, 1);
    let template = ServerConfig {
        workers: 1,
        queue_capacity: 64,
        policy: BatchPolicy::dynamic(4, Duration::from_millis(2)),
        // No respawns: the crashed worker's death is the replica's death.
        supervisor: SupervisorConfig {
            max_respawns: 0,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut cfg = FleetConfig::new(2, template, DispatchPolicy::RoundRobin);
    cfg.seed = SEED;
    cfg.faults = plan;
    let router = Arc::new(scidl_serve::Router::start(Arc::clone(&reg), cfg));

    let mut producers = Vec::new();
    for p in 0..4u64 {
        let router = Arc::clone(&router);
        producers.push(std::thread::spawn(move || {
            let mut outcomes = Vec::new();
            for i in 0..12u64 {
                outcomes.push(router.infer_with_priority(
                    probe(200 + p * 64 + i),
                    scidl_serve::Priority::Standard,
                    Some(Duration::from_millis(500)),
                ));
            }
            outcomes
        }));
    }

    let mut ok = 0u64;
    let mut typed = 0u64;
    for h in producers {
        for outcome in h.join().expect("producer panicked") {
            match outcome {
                Ok(r) => {
                    assert!(r.logits.iter().all(|v| v.is_finite()));
                    assert_eq!(r.model_iteration, 1);
                    ok += 1;
                }
                Err(
                    ServeError::Shed { .. }
                    | ServeError::DeadlineExceeded
                    | ServeError::WorkerLost
                    | ServeError::Closed,
                ) => typed += 1,
                Err(e) => panic!("non-terminal outcome {e}"),
            }
        }
    }
    // Exactly-once fleet-wide: the joins completing proves no reply
    // channel was stranded, and every request has one terminal outcome.
    assert_eq!(ok + typed, 48);

    let router = Arc::try_unwrap(router).ok().expect("producers joined");
    let (recorder, report) = router.shutdown_with_report();
    assert_eq!(
        report.routed, ok,
        "router routed-counter == delivered replies"
    );
    assert_eq!(
        recorder.len() as u64,
        ok,
        "one latency sample per served request"
    );
    assert!(
        report.servers.panics >= 1,
        "the injected crash must fire: {report:?}"
    );
    assert!(
        report.final_replicas <= 2,
        "the dead replica must not outlive its pool"
    );
    assert!(ok >= 1, "the surviving replica must keep serving");
}

/// The same plan in virtual time: the crash orphans replica 0's queue,
/// every orphan reroutes to replica 1 (same global-index plan, same
/// seed), the terminal categories partition the arrivals exactly, and
/// the whole run replays bit-identically.
#[test]
fn fleet_sim_same_plan_reroutes_and_replays_bit_identically() {
    let model = ServiceModel::hep();
    let mut base = SimConfig::new(1, 64, BatchPolicy::dynamic(4, Duration::from_millis(2)));
    base.faults = replica_loss_plan();
    base.deadline_secs = Some(0.5);
    let mut cfg = FleetSimConfig::new(2, base, DispatchPolicy::RoundRobin);
    cfg.seed = SEED;
    let arrivals: Vec<f64> = PoissonArrivals::new(SEED, 400.0, 300).collect();

    let out = simulate_fleet(&model, &arrivals, &cfg);
    assert_eq!(
        out.crashes, 3,
        "the shared plan's crashes fire in virtual time"
    );
    assert!(
        out.rerouted >= 1,
        "orphans must cross to the surviving replica"
    );
    assert_eq!(
        out.final_replicas, 2,
        "the sim replica keeps its (dead) slot"
    );
    let mut all: Vec<usize> = out
        .served_ids
        .iter()
        .chain(&out.rejected_ids)
        .chain(&out.expired_ids)
        .chain(&out.lost_ids)
        .copied()
        .collect();
    all.sort_unstable();
    assert_eq!(
        all,
        (0..arrivals.len()).collect::<Vec<_>>(),
        "terminal outcomes must partition the arrivals exactly once"
    );
    assert_eq!(out.offered(), arrivals.len());

    let again = simulate_fleet(&model, &arrivals, &cfg);
    assert_eq!(
        out.served_ids, again.served_ids,
        "seeded replay must be bit-identical"
    );
    assert_eq!(out.lost_ids, again.lost_ids);
    assert_eq!(out.batch_sizes, again.batch_sizes);
    assert_eq!(out.makespan.to_bits(), again.makespan.to_bits());
    assert_eq!(out.p99().to_bits(), again.p99().to_bits());
    assert_eq!(
        out.replica_seconds.to_bits(),
        again.replica_seconds.to_bits()
    );
}

/// Canary rollback and autoscaler band in virtual time, both active in
/// the same seeded run — and the whole composite replays
/// bit-identically.
#[test]
fn fleet_sim_canary_rollback_and_autoscaler_band_replay_deterministically() {
    let model = ServiceModel::hep();
    let base = SimConfig::new(2, 128, BatchPolicy::dynamic(8, Duration::from_millis(5)));
    let per_rep = 2.0 * model.saturated_rate(8);
    let arrivals: Vec<f64> = PoissonArrivals::new(SEED, 2.5 * per_rep, 1200).collect();
    let end = *arrivals.last().unwrap();

    let mut cfg = FleetSimConfig::new(1, base, DispatchPolicy::PowerOfTwoChoices);
    cfg.seed = SEED;
    cfg.autoscaler = Some(SimAutoscaler {
        band: ScalingBand {
            min_replicas: 1,
            max_replicas: 4,
            ..Default::default()
        },
        tick_secs: 0.1,
        startup_secs: 0.02,
    });
    cfg.canary = Some(SimCanary {
        gate: CanaryGate {
            fraction: 0.25,
            regression_tol: 0.25,
        },
        start_secs: end * 0.2,
        decide_secs: end * 0.8,
        service_factor: 8.0, // the injected SLO regression
        candidate_iteration: 777,
    });

    let out = simulate_fleet(&model, &arrivals, &cfg);
    assert!(
        out.canary_rolled_back,
        "the 8x-slower candidate must roll back"
    );
    assert!(!out.canary_promoted);
    assert_eq!(
        out.final_iteration, 0,
        "the old model must still be serving"
    );
    assert!(
        !out.breaker_opened,
        "one rollback is below the breaker threshold of 3"
    );
    assert!(out.scale_ups >= 1, "the overload must grow the fleet");
    let a = cfg.autoscaler.unwrap().band;
    assert!(
        (a.min_replicas..=a.max_replicas).contains(&out.final_replicas),
        "final replica count {} outside the [{}, {}] band",
        out.final_replicas,
        a.min_replicas,
        a.max_replicas
    );

    let again = simulate_fleet(&model, &arrivals, &cfg);
    assert_eq!(
        out.served_ids, again.served_ids,
        "composite run must replay bit-identically"
    );
    assert_eq!(out.makespan.to_bits(), again.makespan.to_bits());
    assert_eq!(out.p99().to_bits(), again.p99().to_bits());
    assert_eq!(out.canary_served, again.canary_served);
    assert_eq!(out.scale_ups, again.scale_ups);
    assert_eq!(out.scale_downs, again.scale_downs);
}

/// `simulate` against a one-replica `simulate_fleet` on a configuration
/// where the fleet layer cannot bite: the backlog never reaches the
/// smallest priority shed fraction (0.45) of the queue, so no class is
/// shed, and no request exhausts its two re-queues, so none is rerouted
/// (there is no autoscaler and no canary either). The outcomes must then
/// agree field for field. Returns the single-replica outcome.
fn assert_single_matches_one_replica_fleet(base: SimConfig, arrivals: &[f64]) -> SimOutcome {
    let model = ServiceModel::hep();
    let single = simulate(&model, arrivals, &base);
    let cfg = FleetSimConfig::new(1, base, DispatchPolicy::RoundRobin);
    let fleet = simulate_fleet(&model, arrivals, &cfg);
    assert_eq!(
        fleet.fleet_shed, [0; 3],
        "no class may reach its shed fraction"
    );
    assert_eq!(fleet.rerouted, 0, "no request may exhaust its re-queues");
    assert_eq!(
        format!("{:?}", single.recorder),
        format!("{:?}", fleet.recorder)
    );
    assert_eq!(single.served_ids, fleet.served_ids);
    assert_eq!(single.rejected_ids, fleet.rejected_ids);
    assert_eq!(single.expired_ids, fleet.expired_ids);
    assert_eq!(single.lost_ids, fleet.lost_ids);
    assert_eq!(single.batch_sizes, fleet.batch_sizes);
    assert_eq!(single.completed, fleet.completed);
    assert_eq!(single.rejected, fleet.rejected);
    assert_eq!(single.expired, fleet.expired);
    assert_eq!(single.lost, fleet.lost);
    assert_eq!(single.requeued, fleet.requeued);
    assert_eq!(single.crashes, fleet.crashes);
    assert_eq!(single.makespan.to_bits(), fleet.makespan.to_bits());
    assert!(
        single.completed > 0 && single.requeued > 0,
        "the config must exercise a crash"
    );
    single
}

#[test]
fn one_replica_fleet_sim_and_single_sim_agree_field_for_field() {
    let model = ServiceModel::hep();
    let mut base = SimConfig::new(2, 256, BatchPolicy::dynamic(8, Duration::from_millis(5)));
    base.faults = scidl_core::faults::serving_chaos();
    let arrivals: Vec<f64> =
        PoissonArrivals::new(SEED, 1.5 * model.saturated_rate(8), 600).collect();
    assert_single_matches_one_replica_fleet(base, &arrivals);

    // Deadlines biting under 8x overload (584 expiries); the 30 ms
    // deadline keeps the backlog below 0.45 of the deep queue, so
    // nothing is shed.
    let mut base = SimConfig::new(2, 256, BatchPolicy::dynamic(8, Duration::from_millis(5)));
    base.deadline_secs = Some(0.03);
    base.faults = FaultPlan::none().with_worker_crash(1, 4, 0.02);
    let arrivals: Vec<f64> =
        PoissonArrivals::new(SEED + 1, 8.0 * model.saturated_rate(8), 800).collect();
    let out = assert_single_matches_one_replica_fleet(base, &arrivals);
    assert_eq!(out.expired, 584, "the deadline must bite");
}

/// FNV-1a over every field of a virtual-time outcome, by bit pattern.
fn digest(o: &SimOutcome) -> u64 {
    let fnv = |h: u64, x: u64| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    let mut h = format!("{:?}", o.recorder)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| fnv(h, b as u64));
    for ids in [
        &o.served_ids,
        &o.rejected_ids,
        &o.expired_ids,
        &o.lost_ids,
        &o.batch_sizes,
    ] {
        h = ids
            .iter()
            .fold(fnv(h, ids.len() as u64), |h, &i| fnv(h, i as u64));
    }
    for x in [
        o.completed,
        o.rejected,
        o.fleet_shed[0],
        o.fleet_shed[1],
        o.fleet_shed[2],
        o.expired,
        o.lost,
        o.rerouted,
        o.requeued,
        o.crashes,
        o.swap_attempts,
        o.swap_rejects,
        o.swap_published,
        o.scale_ups,
        o.scale_downs,
        o.final_replicas,
        o.canary_served,
        o.canary_promoted as usize,
        o.canary_rolled_back as usize,
        o.breaker_opened as usize,
        o.final_iteration as usize,
    ] {
        h = fnv(h, x as u64);
    }
    fnv(fnv(h, o.replica_seconds.to_bits()), o.makespan.to_bits())
}

/// Golden digests captured at the commit before `simulate` and
/// `simulate_fleet` shared one replica (PR 12's parent), on the
/// committed `results/serving_chaos` storm cell, the `results/
/// serving_fleet` autoscaler + canary demo, and a fleet run that
/// crosses every recovery path (crash, re-queue, reroute, expiry, both
/// sheds, canary rollback charged to the breaker). The storm cell and
/// the crash fleet were captured again, once, when a `WorkerCrash` came
/// to strike its replica's n-th dispatched batch instead of one slot's
/// n-th batch. The crash fleet was restated once more when the serving
/// budgets became constants of the policy core: it used to set zero
/// re-queues, two reroutes and a breaker threshold of 1, and now
/// schedules extra crashes to reach a reroute at the fixed budgets; its
/// digest was captured on the last commit that still had the settings,
/// with them at the values the constants took.
#[test]
fn outcomes_reproduce_the_digests_captured_before_the_replicas_merged() {
    let model = ServiceModel::hep();

    // `scidl-bench serving_chaos`, storm level at 1.5x the batch-1 rate.
    let arrivals: Vec<f64> =
        PoissonArrivals::new(SEED, 1.5 * model.saturated_rate(1), 2000).collect();
    let mut cfg = SimConfig::new(2, 128, BatchPolicy::dynamic(32, Duration::from_millis(10)));
    cfg.deadline_secs = Some(0.25);
    cfg.faults = FaultPlan::none()
        .with_worker_crash(0, 2, 0.1)
        .with_worker_crash(1, 4, 0.1)
        .with_worker_crash(0, 8, 0.2)
        .with_slow_worker(0, 3, 12, 4.0)
        .with_slow_worker(1, 6, 18, 3.0)
        .with_corrupt_swap(0)
        .with_corrupt_swap(1)
        .with_corrupt_swap(2);
    cfg.swap_schedule = vec![0.05, 0.1, 0.15, 0.2, 0.25];
    let storm = simulate(&model, &arrivals, &cfg);
    assert_eq!(
        (storm.completed, storm.requeued, storm.swap_rejects),
        (2000, 9, 5)
    );
    assert_eq!(digest(&storm), 0x7da7_f6b0_bd75_5314, "storm cell drifted");

    // `scidl-bench serving_fleet`, the autoscaler + canary demo.
    let base = SimConfig::new(2, 512, BatchPolicy::dynamic(8, Duration::from_millis(5)));
    let per_rep = base.workers as f64 * model.saturated_rate(base.policy.max_batch);
    let mut arrivals: Vec<f64> = PoissonArrivals::new(SEED, 3.0 * per_rep, 2000).collect();
    let burst_end = *arrivals.last().unwrap();
    arrivals.extend((0..40).map(|i| burst_end + 0.5 + i as f64 * 0.5));
    let mut cfg = FleetSimConfig::new(1, base, DispatchPolicy::LeastLoaded);
    cfg.seed = SEED;
    cfg.autoscaler = Some(SimAutoscaler {
        band: ScalingBand {
            min_replicas: 1,
            max_replicas: 6,
            scale_down_backlog: 4,
        },
        tick_secs: 0.2,
        startup_secs: 0.02,
    });
    cfg.canary = Some(SimCanary {
        gate: CanaryGate {
            fraction: 0.2,
            regression_tol: 0.25,
        },
        start_secs: burst_end * 0.1,
        decide_secs: burst_end * 0.9,
        service_factor: 1.0,
        candidate_iteration: 9000,
    });
    let demo = simulate_fleet(&model, &arrivals, &cfg);
    assert_eq!(
        (demo.scale_ups, demo.scale_downs, demo.canary_served),
        (3, 4, 318)
    );
    assert_eq!(digest(&demo), 0x84e7_b493_c694_10bb, "fleet demo drifted");

    // Three replicas losing one to crashes, with deadlines, p2c and a
    // rolled-back canary. Replica 0's first crashed batch dies three
    // times (two instant respawns), one more than its re-queues, and is
    // rerouted; its next two crashes take both workers for good.
    let mut base = SimConfig::new(2, 64, BatchPolicy::dynamic(8, Duration::from_millis(5)));
    base.deadline_secs = Some(0.2);
    base.faults = FaultPlan::none()
        .with_worker_crash(0, 1, 0.0)
        .with_worker_crash(0, 1, 0.0)
        .with_worker_crash(0, 1, 1e6)
        .with_worker_crash(1, 1, 1e6)
        .with_worker_crash(3, 5, 0.05)
        .with_slow_worker(2, 2, 30, 3.0);
    let arrivals: Vec<f64> =
        PoissonArrivals::new(SEED, 2.6 * 2.0 * model.saturated_rate(8), 1500).collect();
    let end = *arrivals.last().unwrap();
    let mut cfg = FleetSimConfig::new(3, base, DispatchPolicy::PowerOfTwoChoices);
    cfg.seed = SEED;
    cfg.canary = Some(SimCanary {
        gate: CanaryGate {
            fraction: 0.25,
            regression_tol: 0.25,
        },
        start_secs: end * 0.2,
        decide_secs: end * 0.7,
        service_factor: 8.0,
        candidate_iteration: 777,
    });
    let chaos = simulate_fleet(&model, &arrivals, &cfg);
    assert_eq!(
        (chaos.crashes, chaos.rerouted, chaos.expired, chaos.rejected),
        (5, 8, 213, 51)
    );
    assert_eq!(chaos.fleet_shed, [0, 16, 178]);
    assert!(chaos.canary_rolled_back && !chaos.breaker_opened);
    assert_eq!(digest(&chaos), 0xd321_713f_dc76_9fed, "chaos fleet drifted");
}
