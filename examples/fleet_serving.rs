//! Fleet-scale serving: a replicated router with replica-loss rerouting,
//! then an SLO autoscaler and a canary rollout in virtual time — the
//! serving tier one level up from `inference_serving`.
//!
//! Three replicas serve a HEP classifier behind a `Router` with
//! power-of-two-choices dispatch while a `FaultPlan` (global worker
//! indices) kills replica 0's only worker mid-batch: the router retires
//! the dead replica and reroutes its in-flight work to a sibling, so
//! every request still resolves. The fleet's sizing and rollout
//! decisions are then replayed by `simulate_fleet` on the calibrated KNL
//! cost model (the path behind `results/serving_fleet.*`): the
//! autoscaler grows the fleet under a burst and shrinks it when traffic
//! stops, a healthy candidate model is promoted from its canary replica,
//! and a regressed one is rolled back while the old model keeps serving.
//!
//! ```text
//! cargo run --release --example fleet_serving
//! ```

use scidl_cluster::faults::FaultPlan;
use scidl_serve::fleet::{
    simulate_fleet, CanaryGate, DispatchPolicy, FleetConfig, FleetSimConfig, Router, ScalingBand,
    SimAutoscaler, SimCanary,
};
use scidl_serve::{
    BatchPolicy, ModelRegistry, PoissonArrivals, ServiceModel, ServingModel, SimConfig,
    SupervisorConfig,
};
use scidl_tensor::{Shape4, TensorRng};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut rng = TensorRng::new(42);
    let registry = Arc::new(ModelRegistry::new(ServingModel::new(
        scidl_nn::arch::hep_small(&mut rng),
        1000,
        42,
    )));

    // --- threads: a three-replica fleet with a replica-loss chaos plan --
    let template = scidl_serve::ServerConfig {
        workers: 1,
        queue_capacity: 64,
        policy: BatchPolicy::dynamic(8, Duration::from_millis(3)),
        // One worker per replica and no respawns: the injected crash below
        // is a whole-replica loss, not a blip the supervisor absorbs.
        supervisor: SupervisorConfig {
            max_respawns: 0,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut cfg = FleetConfig::new(3, template, DispatchPolicy::PowerOfTwoChoices);
    cfg.seed = 4242;
    cfg.reroute_budget = 2;
    // Global worker indices: worker 0 IS replica 0 (one worker each).
    cfg.faults = FaultPlan::none().with_worker_crash(0, 1, 1e6);
    let router = Router::start(registry, cfg);

    let mut xr = TensorRng::new(3);
    let mut probe = move || xr.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0);
    let mut served = 0usize;
    for _ in 0..48 {
        // The crash fires mid-run; rerouting keeps every request alive.
        if router
            .infer_with_priority(
                probe(),
                scidl_serve::Priority::Interactive,
                Some(Duration::from_millis(500)),
            )
            .is_ok()
        {
            served += 1;
        }
    }
    println!(
        "served {served}/48 requests across {} surviving replicas (replica 0 was killed mid-run)",
        router.live_replicas()
    );
    let (recorder, report) = router.shutdown_with_report();
    println!(
        "fleet report: {} routed, {} rerouted, {} replica(s) lost",
        report.routed, report.rerouted, report.replicas_lost
    );
    let p99 = recorder.total_summary().expect("requests served").p99;
    println!(
        "fleet p99: {:.2} ms over {} served requests",
        p99 * 1e3,
        recorder.len()
    );
    assert!(
        report.servers.panics >= 1,
        "the injected replica loss fired"
    );

    // --- virtual time: autoscaler and canary on the KNL cost model ------
    let model = ServiceModel::hep();
    let base = SimConfig::new(2, 512, BatchPolicy::dynamic(8, Duration::from_millis(5)));
    let per_rep = base.workers as f64 * model.saturated_rate(base.policy.max_batch);
    // A burst at three replicas' worth of load, then a quiet tail.
    let mut arrivals: Vec<f64> = PoissonArrivals::new(7, 3.0 * per_rep, 2000).collect();
    let burst_end = *arrivals.last().unwrap();
    arrivals.extend((0..40).map(|i| burst_end + 0.5 + i as f64 * 0.5));
    let band = ScalingBand {
        min_replicas: 1,
        max_replicas: 6,
        scale_down_backlog: 4,
        ..Default::default()
    };
    let run = |service_factor: f64| {
        let mut cfg = FleetSimConfig::new(1, base.clone(), DispatchPolicy::LeastLoaded);
        cfg.seed = 4242;
        cfg.base.breaker_threshold = 1;
        cfg.autoscaler = Some(SimAutoscaler {
            band,
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
            service_factor,
            candidate_iteration: 2000,
        });
        simulate_fleet(&model, &arrivals, &cfg)
    };

    let good = run(1.0);
    println!(
        "autoscaler: {} scale-ups under the burst, {} scale-downs in the quiet, final {} replica(s)",
        good.scale_ups, good.scale_downs, good.final_replicas
    );
    assert!(good.scale_ups >= 1, "the burst grows the fleet");
    assert!(good.scale_downs >= 1, "the quiet tail shrinks it");
    assert!((band.min_replicas..=band.max_replicas).contains(&good.final_replicas));
    assert!(good.canary_promoted && good.canary_served > 0);
    assert_eq!(
        good.final_iteration, 2000,
        "promotion publishes the candidate"
    );
    println!(
        "canary: healthy candidate served {} requests, promoted; fleet serves iteration {}",
        good.canary_served, good.final_iteration
    );

    let bad = run(8.0);
    assert!(bad.canary_rolled_back && !bad.canary_promoted);
    assert!(bad.breaker_opened, "the rollback charges the breaker");
    assert_eq!(bad.final_iteration, 0, "the old model keeps serving");
    println!(
        "canary: 8x-slower candidate rolled back after {} requests; breaker open, old model serving",
        bad.canary_served
    );
}
