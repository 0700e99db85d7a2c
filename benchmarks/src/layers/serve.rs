//! `scidl-serve`: the batch queue alone, one idle request through `Server`
//! and through `Router`, short open-loop phases at the three fixed rates
//! (batch size, queue wait and compute from `InferResult`), an overload
//! burst, and the guarded hot-swap.

use super::median_secs;
use crate::catalogue::Better::{Higher, Lower};
use crate::host;
use crate::report::{Metric, Outcome};
use crate::stats::{median, percentile};
use crate::workloads::serve_hep::{self, Phase, RATES};
use crate::workloads::Workload;
use scidl_core::checkpoint::Checkpoint;
use scidl_serve::fleet::{DispatchPolicy, FleetConfig};
use scidl_serve::{
    BatchPolicy, BatchQueue, InferResult, ModelRegistry, Router, ServeError, ServingModel,
};
use scidl_tensor::{Tensor, TensorRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// `(name, unit, better)` of every metric this section reports.
pub const NAMES: &[super::Def] = &[
    ("serve.queue.submit_pop_us", "us", Lower),
    ("serve.server.idle_overhead_us", "us", Lower),
    ("serve.router.dispatch_us", "us", Lower),
    ("serve.batch.mean_size_lo", "count", Higher),
    ("serve.queue_wait_ms_p50_lo", "ms", Lower),
    ("serve.compute_ms_p50_lo", "ms", Lower),
    ("serve.batch.mean_size_mid", "count", Higher),
    ("serve.queue_wait_ms_p50_mid", "ms", Lower),
    ("serve.compute_ms_p50_mid", "ms", Lower),
    ("serve.batch.mean_size_hi", "count", Higher),
    ("serve.queue_wait_ms_p50_hi", "ms", Lower),
    ("serve.compute_ms_p50_hi", "ms", Lower),
    ("serve.lat_ms_p50_mid", "ms", Lower),
    ("serve.lat_ms_p95_mid", "ms", Lower),
    ("serve.shed_share_burst", "share", Lower),
    ("serve.loadgen.late_ms_p95", "ms", Lower),
    ("serve.registry.guarded_swap_ms", "ms", Lower),
];

/// Requests per open-loop phase: enough for medians; `mid` also reports
/// a p95, which 200 requests carry.
const PHASE_REQUESTS: usize = 100;
const TAIL_REQUESTS: usize = 200;
const IDLE_PAIRS: usize = 40;
/// Overload burst: four queue capacities sent back to back.
const BURST: usize = 4 * serve_hep::QUEUE;

fn account(out: &mut Outcome, name: &'static str, p: &Phase) {
    // Sheds are this probe's expected answer, not failed operations.
    out.ops(p.sent, p.sent - p.ok - p.shed);
    out.check(
        name,
        p.accounted() && p.wrong == 0,
        format!(
            "sent {} = ok {} + shed {} + expired {} + lost {}",
            p.sent, p.ok, p.shed, p.expired, p.lost
        ),
    );
}

pub fn run(out: &mut Outcome, seed: u64) {
    // The queue alone: eight submits and the pop of the full batch.
    let policy = BatchPolicy::dynamic(serve_hep::MAX_BATCH, serve_hep::MAX_DELAY);
    let queue: BatchQueue<u32> = BatchQueue::new(serve_hep::QUEUE);
    let per_batch = median_secs(10, 2001, || {
        for i in 0..serve_hep::MAX_BATCH as u32 {
            queue.submit(i).expect("queue has room");
        }
        black_box(queue.pop_batch(&policy));
    });
    out.push(Metric::value(
        "serve.queue.submit_pop_us",
        "us",
        per_batch * 1e6 / serve_hep::MAX_BATCH as f64,
    ));

    let mut env = serve_hep::ServeHep::setup(seed);
    env.fill_refs();
    let client = env.server.client();
    let registry = Arc::new(ModelRegistry::new(ServingModel::new(
        serve_hep::build(),
        0,
        serve_hep::MODEL_SEED,
    )));
    let mut cfg = FleetConfig::new(
        2,
        serve_hep::server_config(),
        DispatchPolicy::PowerOfTwoChoices,
    );
    cfg.seed = seed;
    let router = Router::start(Arc::clone(&registry), cfg);

    // A lone request, alternately to the server and through the idle
    // 2-replica router. Server overhead: everything between submit and
    // reply that is not the forward pass (including the batch former's
    // wait for company). Router dispatch: what the router adds outside
    // queue wait and compute, as the median of the paired differences.
    let mut overhead_us = Vec::new();
    let mut dispatch_us = Vec::new();
    for i in 0..IDLE_PAIRS {
        let lone = |infer: &dyn Fn(Tensor) -> Result<InferResult, ServeError>| {
            let t = Instant::now();
            let r = infer(env.pool[i].clone()).expect("idle request");
            let lat = t.elapsed();
            (
                (lat - r.compute).as_secs_f64() * 1e6,
                lat.saturating_sub(r.compute + r.queue_wait).as_secs_f64() * 1e6,
            )
        };
        let (overhead, direct) = lone(&|x| client.infer(x));
        let (_, routed) = lone(&|x| router.infer(x));
        overhead_us.push(overhead);
        dispatch_us.push(routed - direct);
    }
    router.shutdown_with_report();
    out.push(Metric::value(
        "serve.server.idle_overhead_us",
        "us",
        median(&overhead_us),
    ));
    out.push(Metric::value(
        "serve.router.dispatch_us",
        "us",
        median(&dispatch_us),
    ));

    let mut late = Vec::new();
    for (i, (label, rate, _)) in RATES.iter().enumerate() {
        let requests = if *label == "mid" {
            TAIL_REQUESTS
        } else {
            PHASE_REQUESTS
        };
        let p = serve_hep::open_loop(&env, *rate, requests, seed.wrapping_add(i as u64));
        serve_hep::phase_layer_metrics(out, label, &p);
        if *label == "mid" {
            out.push(Metric::value(
                "serve.lat_ms_p50_mid",
                "ms",
                median(&p.lat_ms),
            ));
            out.push(Metric::value(
                "serve.lat_ms_p95_mid",
                "ms",
                percentile(&p.lat_ms, 95.0),
            ));
        }
        late.extend(&p.late_ms);
        account(
            out,
            ["suite_open_lo", "suite_open_mid", "suite_open_hi"][i],
            &p,
        );
    }
    out.push(Metric::value(
        "serve.loadgen.late_ms_p95",
        "ms",
        percentile(&late, 95.0),
    ));

    // Overload: the queue bound sheds what the worker cannot take.
    let burst = serve_hep::burst(&env, BURST, seed);
    out.push(Metric::value(
        "serve.shed_share_burst",
        "share",
        burst.shed as f64 / burst.sent as f64,
    ));
    account(out, "suite_burst", &burst);
    env.server.shutdown();

    // Validate-before-publish swap of a checkpoint of the same model.
    let source = serve_hep::build();
    let path = host::out_dir().join(format!("swap_{}.ckpt", std::process::id()));
    Checkpoint::capture(&source, 7, seed)
        .save(&path)
        .expect("save swap checkpoint");
    let size = serve_hep::IMAGE;
    let probe =
        TensorRng::new(5).uniform_tensor(scidl_tensor::Shape4::new(1, 3, size, size), 0.0, 1.0);
    let swap = median_secs(1, 5, || {
        registry
            .load_and_swap_guarded(&path, serve_hep::build(), &probe, Some(&source))
            .expect("guarded swap");
    });
    let _ = std::fs::remove_file(&path);
    out.push(Metric::value(
        "serve.registry.guarded_swap_ms",
        "ms",
        swap * 1e3,
    ));
}
