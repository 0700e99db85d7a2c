//! `scidl-cluster` and the other virtual-time drivers: host nanoseconds
//! per simulated event, per jitter draw, per collective cost evaluation,
//! per event-queue operation and per simulated serving request, and the
//! share of a `SimEngine` run that is driver rather than gradient.

use super::median_secs;
use crate::catalogue::Better::Lower;
use crate::report::{Metric, Outcome};
use crate::workloads::sim_suite::{self, CLUSTER};
use crate::workloads::Workload;
use scidl_cluster::{
    hierarchical_allreduce_time, AriesModel, Dragonfly, EventQueue, JitterModel, Placement,
};
use scidl_core::sim_engine::SimEngine;
use scidl_core::task::hep_gradient;
use scidl_serve::sim::simulate;
use scidl_tensor::TensorRng;
use std::hint::black_box;
use std::time::Instant;

/// `(name, unit, better)` of every metric this section reports.
pub const NAMES: &[super::Def] = &[
    ("cluster.sim.ns_per_event.hep9594", "ns", Lower),
    ("cluster.sim.ns_per_event.climate9608", "ns", Lower),
    ("cluster.sim.ns_per_event.n1024", "ns", Lower),
    ("cluster.jitter.ns_per_barrier_draw", "ns", Lower),
    ("cluster.topology.hier_allreduce_ns", "ns", Lower),
    ("cluster.event_queue.ns_per_op", "ns", Lower),
    ("serve.fleet_sim.ns_per_request", "ns", Lower),
    ("serve.sim.ns_per_request", "ns", Lower),
    ("core.sim_engine.driver_share", "share", Lower),
];

const DRAWS: usize = 200_000;
const QUEUE_OPS: usize = 100_000;

pub fn run(out: &mut Outcome, seed: u64) {
    let env = sim_suite::SimSuite::setup(seed);

    for (i, (label, ..)) in CLUSTER.iter().enumerate() {
        let mut events = 0u64;
        let secs = median_secs(1, 9, || {
            events = sim_suite::run_cluster(&env, i, seed).events_processed
        });
        out.push(Metric::value(
            format!("cluster.sim.ns_per_event.{label}"),
            "ns",
            secs * 1e9 / events as f64,
        ));
    }

    let jitter = JitterModel::default();
    let mut rng = TensorRng::new(seed);
    let nodes = CLUSTER[0].1 / CLUSTER[0].2;
    let secs = median_secs(1, 5, || {
        let mut acc = 0.0;
        for _ in 0..DRAWS {
            acc += jitter.barrier_multiplier(&mut rng, nodes);
        }
        black_box(acc);
    });
    out.push(Metric::value(
        "cluster.jitter.ns_per_barrier_draw",
        "ns",
        secs * 1e9 / DRAWS as f64,
    ));

    // One compute group of the HEP configuration moving the HEP model.
    let (net, fly) = (AriesModel::default(), Dragonfly::default());
    let placement = Placement::balanced(nodes, &fly);
    let bytes = env.cluster[0].workload.model_bytes;
    let secs = median_secs(1, 5, || {
        for _ in 0..1000 {
            black_box(hierarchical_allreduce_time(
                &net,
                &fly,
                black_box(&placement),
                bytes,
            ));
        }
    });
    out.push(Metric::value(
        "cluster.topology.hier_allreduce_ns",
        "ns",
        secs * 1e9 / 1000.0,
    ));

    // Schedule then pop, at the depth a 9-group simulation keeps.
    let secs = median_secs(1, 5, || {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(64);
        for i in 0..16u32 {
            q.schedule_in(i as f64, i);
        }
        for i in 0..QUEUE_OPS as u32 {
            let (at, _) = q.pop().expect("queue stays non-empty");
            q.schedule(at + 16.0, i);
        }
        black_box(q.len());
    });
    out.push(Metric::value(
        "cluster.event_queue.ns_per_op",
        "ns",
        secs * 1e9 / (2 * QUEUE_OPS) as f64,
    ));

    let secs = median_secs(1, 5, || {
        black_box(sim_suite::run_fleet(&env, seed));
    });
    out.push(Metric::value(
        "serve.fleet_sim.ns_per_request",
        "ns",
        secs * 1e9 / env.arrivals.len() as f64,
    ));
    // One replica's share of the same arrivals through the single-server sim.
    let single: Vec<f64> = env
        .arrivals
        .iter()
        .step_by(sim_suite::FLEET_REPLICAS)
        .copied()
        .collect();
    let secs = median_secs(1, 5, || {
        black_box(simulate(&env.service, &single, &env.fleet.base));
    });
    out.push(Metric::value(
        "serve.sim.ns_per_request",
        "ns",
        secs * 1e9 / single.len() as f64,
    ));

    // SimEngine: wall time not spent computing gradients.
    let mut cfg = env.engine.clone();
    cfg.seed = seed;
    let mut model = scidl_nn::arch::hep_small(&mut TensorRng::new(sim_suite::MODEL_SEED));
    let mut grad_s = 0.0;
    let t = Instant::now();
    black_box(SimEngine::run_with(
        &cfg,
        &mut model,
        env.ds.len(),
        |m, idx| {
            let t = Instant::now();
            let g = hep_gradient(m, &env.ds, idx);
            grad_s += t.elapsed().as_secs_f64();
            g
        },
    ));
    out.push(Metric::value(
        "core.sim_engine.driver_share",
        "share",
        1.0 - grad_s / t.elapsed().as_secs_f64(),
    ));
}
