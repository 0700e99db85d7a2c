//! `sim_suite`: the virtual-time drivers, measured in host time.
//!
//! One cycle is a fixed amount of simulation: (a) `ClusterSim::run` on the
//! paper's configurations — HEP 9 594 nodes / 9 groups, climate 9 608 / 8
//! and 1 024 / 4, hierarchical collective, 1 000 iterations — each over
//! 40 consecutive simulator seeds; (b) `serve::simulate_fleet`, 4
//! replicas, power-of-two-choices, the `serving_chaos()` plan, 200 k
//! arrivals, over 12 routing seeds; (c) `SimEngine::run`
//! (`SimEngineConfig::fig8`, 64 nodes / 4 groups, `hep_small`, real
//! gradients, 80 updates). Cycles repeat on fresh seeds for the measured
//! seconds; the three parts take roughly a third of a cycle each.
//!
//! These drivers are the paper reproduction and the code a later refactor
//! will rewrite. (a) and (b) do almost no tensor work, so kernel PRs must
//! leave them flat and a refactor cannot slow them unseen.

use crate::host::Threads;
use crate::report::{Metric, Outcome};
use crate::span::{self, Layer};
use crate::workloads::Workload;
use scidl_cluster::{ClusterSim, CollectiveKind, SimConfig, SimResult, TopologyConfig};
use scidl_core::faults::serving_chaos;
use scidl_core::sim_engine::{SimEngine, SimEngineConfig, SimRunSummary};
use scidl_core::task::hep_gradient;
use scidl_core::workloads::{climate_workload, hep_workload};
use scidl_data::{HepConfig, HepDataset};
use scidl_serve::fleet::{simulate_fleet, DispatchPolicy, FleetSimConfig, FleetSimOutcome};
use scidl_serve::sim::ServiceModel;
use scidl_serve::{BatchPolicy, PoissonArrivals};
use scidl_tensor::TensorRng;
use std::time::{Duration, Instant};

pub const NAME: &str = "sim_suite";
pub const WHY: &str = "virtual-time simulators in host time: almost no tensor work, so kernel PRs leave it flat and driver refactors cannot slow it unseen";

/// `(label, nodes, groups)` of the cluster configurations.
pub const CLUSTER: [(&str, usize, usize); 3] = [
    ("hep9594", 9594, 9),
    ("climate9608", 9608, 8),
    ("n1024", 1024, 4),
];
pub const CLUSTER_ITERATIONS: usize = 1000;
/// Consecutive simulator seeds each configuration runs on per cycle.
pub const CLUSTER_SEEDS: u64 = 40;
pub const FLEET_REPLICAS: usize = 4;
pub const FLEET_ARRIVALS: usize = 200_000;
/// Routing seeds the arrival schedule is replayed under per cycle.
pub const FLEET_SEEDS: u64 = 12;
/// Offered load as a share of the fleet's nominal saturated rate.
pub const FLEET_LOAD: f64 = 0.7;
pub const ENGINE_NODES: usize = 64;
pub const ENGINE_GROUPS: usize = 4;
pub const ENGINE_BATCH: usize = 32;
/// Iterations per group of one `SimEngine` run (updates = groups × this).
pub const ENGINE_ITERATIONS: usize = 20;
pub const ENGINE_EVENTS: usize = 512;
pub const MODEL_SEED: u64 = 0x0513;

/// Reference constants: `events_processed` of each cluster configuration
/// on `REF_SEED`; see README, "Rebaselining".
pub const REF_SEED: u64 = 1;
pub const REF_EVENTS: [u64; 3] = [18_000, 14_270, 8_000];

pub struct Env {
    pub cluster: Vec<SimConfig>,
    pub service: ServiceModel,
    pub arrivals: Vec<f64>,
    pub fleet: FleetSimConfig,
    pub engine: SimEngineConfig,
    pub ds: HepDataset,
}

pub struct SimSuite;

impl Workload for SimSuite {
    type Env = Env;
    const NAME: &'static str = NAME;
    const WHY: &'static str = WHY;

    fn threads() -> Threads {
        Threads {
            ranks: 1,
            workers: 0,
            clients: 0,
        }
    }

    /// Set-up: cost tables from the real networks (this builds the 80 M
    /// parameter climate model once), the arrival schedule and the events the
    /// `SimEngine` gradients run on.
    fn setup(seed: u64) -> Env {
        let cluster = CLUSTER
            .iter()
            .map(|&(label, nodes, groups)| {
                let w = if label.starts_with("climate") {
                    climate_workload()
                } else {
                    hep_workload()
                };
                let mut cfg = SimConfig::new(w, nodes, groups, 8 * (nodes / groups));
                cfg.iterations = CLUSTER_ITERATIONS;
                cfg.topology = Some(TopologyConfig::packed(CollectiveKind::Hierarchical));
                cfg
            })
            .collect();
        let service = ServiceModel::hep();
        let mut base = scidl_serve::sim::SimConfig::new(
            2,
            512,
            BatchPolicy::dynamic(8, Duration::from_millis(5)),
        );
        base.faults = serving_chaos();
        let per_replica = base.workers as f64 * service.saturated_rate(base.policy.max_batch);
        let rate = FLEET_LOAD * FLEET_REPLICAS as f64 * per_replica;
        let arrivals = PoissonArrivals::new(seed, rate, FLEET_ARRIVALS).collect();
        let mut fleet =
            FleetSimConfig::new(FLEET_REPLICAS, base, DispatchPolicy::PowerOfTwoChoices);
        fleet.seed = seed;
        let mut engine =
            SimEngineConfig::fig8(ENGINE_NODES, ENGINE_GROUPS, ENGINE_BATCH, hep_workload());
        engine.iterations = ENGINE_ITERATIONS;
        let ds = HepDataset::generate(HepConfig::small(), ENGINE_EVENTS, seed);
        Env {
            cluster,
            service,
            arrivals,
            fleet,
            engine,
            ds,
        }
    }

    fn measure(env: &mut Env, seed: u64, seconds: f64) -> Outcome {
        let mut out = Outcome::default();
        let cycles: Vec<Cycle> = crate::workloads::repeat_for(seconds, |k| {
            cycle(env, seed.wrapping_add(k as u64 * CLUSTER_SEEDS))
        });
        let per = |f: &dyn Fn(&Cycle) -> f64| cycles.iter().map(f).collect::<Vec<f64>>();
        out.push(Metric::median_of(
            "cluster_events_per_s",
            "1/s",
            &per(&|c| c.events.iter().sum::<u64>() as f64 / c.cluster_s.iter().sum::<f64>()),
        ));
        out.push(Metric::median_of(
            "fleet_sim_requests_per_s",
            "1/s",
            &per(&|c| c.fleet_offered as f64 / c.fleet_s),
        ));
        out.push(Metric::median_of(
            "sim_engine_updates_per_s",
            "1/s",
            &per(&|c| c.engine_updates as f64 / c.engine_s),
        ));
        out.push(Metric::median_of(
            "suite_cycle_ms_p50",
            "ms",
            &per(&|c| c.total_s() * 1e3),
        ));

        // Outside the measured seconds: the same seed twice is bit-identical.
        let same = (0..CLUSTER.len()).all(|i| {
            digest_cluster(&run_cluster(env, i, seed)) == digest_cluster(&run_cluster(env, i, seed))
        }) && digest_fleet(&run_fleet(env, seed)) == digest_fleet(&run_fleet(env, seed))
            && digest_engine(&run_engine(env, seed)) == digest_engine(&run_engine(env, seed));
        out.check(
            "same_seed_bit_identical",
            same,
            "each driver run twice on the seed: equal digests over every result field",
        );
        let want_updates = ENGINE_GROUPS * ENGINE_ITERATIONS;
        let runs = (3 * CLUSTER_SEEDS + FLEET_SEEDS + 1) * cycles.len() as u64;
        let complete = cycles.iter().all(|c| {
            c.fleet_offered == FLEET_ARRIVALS * FLEET_SEEDS as usize
                && c.engine_updates == want_updates
        });
        out.ops(runs, if complete { 0 } else { 1 });
        out.check(
            "sims_complete",
            complete,
            format!("{runs} simulations; every fleet run resolves {FLEET_ARRIVALS} arrivals, every engine run applies {want_updates} updates"),
        );
        for (i, (label, ..)) in CLUSTER.iter().enumerate() {
            out.push(Metric::value(
                format!("events_processed_{label}"),
                "count",
                cycles[0].first_events[i] as f64,
            ));
        }
        if seed == REF_SEED {
            out.check(
                "events_processed_reference",
                cycles[0].first_events == REF_EVENTS,
                format!(
                    "{:?} vs stored {REF_EVENTS:?} on seed {REF_SEED}",
                    cycles[0].first_events
                ),
            );
        }
        out
    }

    /// One cycle under a root span; returns cycles per second.
    fn traced_section(env: &mut Env, seed: u64) -> f64 {
        span::span(Layer::Harness, "harness.sim_suite.cycle", || {
            1.0 / cycle(env, seed).total_s()
        })
    }
}

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

const FNV0: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest over every field of a `SimResult`, by bit pattern.
pub fn digest_cluster(r: &SimResult) -> u64 {
    let mut h = FNV0;
    for g in &r.iter_times {
        h = g
            .iter()
            .fold(fnv(h, g.len() as u64), |h, t| fnv(h, t.to_bits()));
    }
    for &(g, a, b) in &r.timeline {
        h = fnv(fnv(fnv(h, g as u64), a.to_bits()), b.to_bits());
    }
    for x in [
        r.total_time,
        r.total_flops,
        r.peak_rate,
        r.sustained_rate,
        r.mean_staleness,
    ] {
        h = fnv(h, x.to_bits());
    }
    h = fnv(h, r.failure_at.map_or(u64::MAX, f64::to_bits));
    for x in [
        r.images,
        r.live_groups as u64,
        r.recovered_iterations as u64,
        r.ps_respawns,
        r.events_processed,
    ] {
        h = fnv(h, x);
    }
    h
}

/// Digest over every field of a `FleetSimOutcome`.
pub fn digest_fleet(o: &FleetSimOutcome) -> u64 {
    let mut h = format!("{:?}", o.recorder)
        .bytes()
        .fold(FNV0, |h, b| fnv(h, b as u64));
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

/// Digest of a `SimEngine` run: loss curve, final parameters, counts.
pub fn digest_engine(r: &SimRunSummary) -> u64 {
    let mut h = FNV0;
    for &(t, l) in &r.curve.points {
        h = fnv(fnv(h, t.to_bits()), l.to_bits() as u64);
    }
    h = r
        .final_params
        .iter()
        .fold(h, |h, p| fnv(h, p.to_bits() as u64));
    for x in [
        r.mean_staleness.to_bits(),
        r.total_time.to_bits(),
        r.updates as u64,
        r.wire_bytes,
    ] {
        h = fnv(h, x);
    }
    h
}

pub fn run_cluster(env: &Env, i: usize, seed: u64) -> SimResult {
    let mut cfg = env.cluster[i].clone();
    cfg.seed = seed;
    span::span(Layer::Cluster, "cluster.sim.run", || {
        ClusterSim::new(cfg).run()
    })
}

pub fn run_fleet(env: &Env, seed: u64) -> FleetSimOutcome {
    let mut cfg = env.fleet.clone();
    cfg.seed = seed;
    span::span(Layer::Serve, "serve.simulate_fleet", || {
        simulate_fleet(&env.service, &env.arrivals, &cfg)
    })
}

pub fn run_engine(env: &Env, seed: u64) -> SimRunSummary {
    let mut cfg = env.engine.clone();
    cfg.seed = seed;
    let mut model = scidl_nn::arch::hep_small(&mut TensorRng::new(MODEL_SEED));
    span::span(Layer::Core, "core.sim_engine.run_with", || {
        SimEngine::run_with(&cfg, &mut model, env.ds.len(), |m, idx| {
            span::span(Layer::Core, "core.task.hep_gradient", || {
                hep_gradient(m, &env.ds, idx)
            })
        })
    })
}

/// Host seconds of each part of one cycle, and the counts they produced.
#[derive(Default)]
pub struct Cycle {
    pub cluster_s: [f64; 3],
    /// Events summed over the cycle's seeds, per configuration.
    pub events: [u64; 3],
    /// Events of the cycle's first seed, per configuration.
    pub first_events: [u64; 3],
    pub fleet_s: f64,
    pub fleet_offered: usize,
    pub engine_s: f64,
    pub engine_updates: usize,
}

impl Cycle {
    pub fn total_s(&self) -> f64 {
        self.cluster_s.iter().sum::<f64>() + self.fleet_s + self.engine_s
    }
}

/// Cycle `k` of a run uses simulator seeds from `seed + k × CLUSTER_SEEDS`.
pub fn cycle(env: &Env, seed: u64) -> Cycle {
    let mut c = Cycle::default();
    for i in 0..CLUSTER.len() {
        let t = Instant::now();
        for k in 0..CLUSTER_SEEDS {
            let r = std::hint::black_box(run_cluster(env, i, seed.wrapping_add(k)));
            c.events[i] += r.events_processed;
            if k == 0 {
                c.first_events[i] = r.events_processed;
            }
        }
        c.cluster_s[i] = t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    for k in 0..FLEET_SEEDS {
        c.fleet_offered += std::hint::black_box(run_fleet(env, seed.wrapping_add(k))).offered();
    }
    c.fleet_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let e = std::hint::black_box(run_engine(env, seed));
    c.engine_s = t.elapsed().as_secs_f64();
    c.engine_updates = e.updates;
    c
}
