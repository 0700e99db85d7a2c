//! Fleet-scale serving: a replicated router, a canary rollout, and an
//! SLO autoscaler — the serving tier one level up from
//! `inference_serving`.
//!
//! Three replicas serve a HEP classifier behind a `Router` with
//! power-of-two-choices dispatch while a `FaultPlan` (global worker
//! indices) kills replica 0's only worker mid-batch: the router retires
//! the dead replica and reroutes its in-flight work to a sibling, so
//! every request still resolves. A candidate model then rides a canary
//! replica for a seeded fraction of traffic and is promoted fleet-wide
//! once its p99 holds up; finally the autoscaler grows the fleet under
//! a burst and shrinks it back when the traffic stops.
//!
//! ```text
//! cargo run --release --example fleet_serving
//! ```

use scidl_cluster::faults::FaultPlan;
use scidl_serve::fleet::{
    AutoscalerConfig, CanaryConfig, CanaryDecision, CanaryGate, DispatchPolicy, FleetConfig,
    Router, ScalingBand,
};
use scidl_serve::{BatchPolicy, ModelRegistry, ServingModel, SupervisorConfig};
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

    // --- a three-replica fleet with a replica-loss chaos plan ----------
    let template = scidl_serve::ServerConfig {
        workers: 1,
        queue_capacity: 64,
        policy: BatchPolicy::dynamic(8, Duration::from_millis(3)),
        // One worker per replica and no respawns: the injected crash below
        // is a whole-replica loss, not a blip the supervisor absorbs.
        supervisor: SupervisorConfig { max_respawns: 0, ..Default::default() },
        ..Default::default()
    };
    let mut cfg = FleetConfig::new(3, template, DispatchPolicy::PowerOfTwoChoices);
    cfg.seed = 4242;
    cfg.reroute_budget = 2;
    cfg.autoscaler = AutoscalerConfig {
        band: ScalingBand { min_replicas: 1, max_replicas: 4, ..Default::default() },
        replica_rate: 1.0, // tiny: any burst demands the ceiling
        ..Default::default()
    };
    // Global worker indices: worker 0 IS replica 0 (one worker each).
    cfg.faults = FaultPlan::none().with_worker_crash(0, 1, 1e6);
    let router = Router::start(Arc::clone(&registry), cfg);

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

    // --- canary rollout: candidate rides 40% of traffic ----------------
    let mut rng2 = TensorRng::new(43);
    let candidate = ServingModel::new(scidl_nn::arch::hep_small(&mut rng2), 2000, 43);
    let ccfg = CanaryConfig {
        gate: CanaryGate { fraction: 0.4, regression_tol: 1.0 },
        min_samples: 8,
    };
    router
        .begin_canary(candidate, ccfg, FaultPlan::none())
        .expect("breaker closed: canary may start");
    let mut decision = CanaryDecision::Pending;
    for _ in 0..300 {
        router.infer(probe()).expect("fleet keeps serving during the rollout");
        decision = router.resolve_canary();
        if decision != CanaryDecision::Pending {
            break;
        }
    }
    assert_eq!(decision, CanaryDecision::Promoted, "a healthy candidate promotes");
    assert_eq!(registry.current().iteration, 2000);
    println!("canary promoted: fleet now serves iteration 2000 (zero downtime)");

    // --- autoscaler: burst grows the fleet, quiet shrinks it -----------
    for _ in 0..2 {
        for _ in 0..20 {
            router.infer(probe()).expect("burst traffic");
        }
        println!("burst tick: fleet sized to {} replicas", router.autoscale_tick());
    }
    for _ in 0..4 {
        router.autoscale_tick();
    }
    println!("quiet ticks: fleet converged to {} replica(s)", router.live_replicas());

    let (recorder, report) = router.shutdown_with_report();
    println!(
        "fleet report: {} routed, {} rerouted, {} replica(s) lost, {} scale-ups, {} scale-downs",
        report.routed, report.rerouted, report.replicas_lost, report.scale_ups, report.scale_downs
    );
    let p99 = recorder.total_summary().expect("requests served").p99;
    println!("fleet p99: {:.2} ms over {} served requests", p99 * 1e3, recorder.len());
    assert!(report.canary_promoted);
    assert!(report.servers.panics >= 1, "the injected replica loss fired");
}
