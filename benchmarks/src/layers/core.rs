//! `scidl-core`: for each training workload a short `ThreadEngine` run and
//! the same step replayed from outside (gather → forward/backward →
//! flat_grads → ring → PS update → fetch → set params) with one span per
//! call, so the engine's iteration splits into compute / comm / PS / data
//! shares and what is left over is the engine's own overhead. Plus the
//! two-rank run of `hep_train`'s task and checkpoint save/load.

use super::median_secs;
use crate::catalogue::Better::{Higher, Lower};
use crate::host;
use crate::report::{Metric, Outcome};
use crate::span::{self, Layer, Span};
use crate::stats::median;
use crate::train::{self, Replay};
use crate::workloads::Workload;
use crate::workloads::{climate_train, hep_train, wide_train};
use scidl_core::checkpoint::Checkpoint;
use scidl_core::task::HepGradTask;
use scidl_core::thread_engine::{ThreadEngine, ThreadRunSummary};
use scidl_data::HepDataset;
use scidl_nn::network::Model;
use scidl_nn::{Network, SoftmaxCrossEntropy};
use scidl_tensor::Tensor;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// `(name, unit, better)` of every metric this section reports.
pub const NAMES: &[super::Def] = &[
    ("core.hep.compute_share", "share", Higher),
    ("core.hep.comm_share", "share", Lower),
    ("core.hep.ps_share", "share", Lower),
    ("core.hep.data_share", "share", Lower),
    ("core.hep.engine_overhead_ms", "ms", Lower),
    ("core.wide.compute_share", "share", Higher),
    ("core.wide.comm_share", "share", Lower),
    ("core.wide.ps_share", "share", Lower),
    ("core.wide.data_share", "share", Lower),
    ("core.wide.engine_overhead_ms", "ms", Lower),
    ("core.climate.compute_share", "share", Higher),
    ("core.climate.comm_share", "share", Lower),
    ("core.climate.ps_share", "share", Lower),
    ("core.climate.data_share", "share", Lower),
    ("core.climate.engine_overhead_ms", "ms", Lower),
    ("core.hep.single_rank_images_per_s", "1/s", Higher),
    ("core.hep.scaling_efficiency_2r", "share", Higher),
    ("core.climate.staleness_mean", "updates", Lower),
    ("core.checkpoint.save_ms", "ms", Lower),
    ("core.checkpoint.load_ms", "ms", Lower),
    ("comm.wire_bytes_per_update.hep", "B", Lower),
    ("comm.wire_bytes_per_update.wide", "B", Lower),
    ("comm.wire_bytes_per_update.climate", "B", Lower),
];

fn wire_per_update(out: &mut Outcome, w: &str, run: &ThreadRunSummary) {
    out.push(Metric::value(
        format!("comm.wire_bytes_per_update.{w}"),
        "B",
        run.wire_bytes as f64 / run.updates.max(1) as f64,
    ));
}

/// Forward + loss + backward of a classification network on one batch,
/// one span per call.
fn classify_step(model: &mut Network, (batch, labels): (Tensor, Vec<usize>)) {
    model.zero_grads();
    let logits = span::span(Layer::Nn, "nn.forward", || model.forward(&batch));
    let (_, d) = span::span(Layer::Nn, "nn.loss", || {
        SoftmaxCrossEntropy::forward(&logits, &labels)
    });
    span::span(Layer::Nn, "nn.backward", || model.backward(&d));
}

/// Replays `steps` steps of a classification workload on `ds`
/// (one rank's share of the batch) and reports its `core.<w>.*` rows
/// against the engine's median iteration time.
fn replay_classifier(
    out: &mut Outcome,
    (w, span_name): (&str, &'static str),
    ds: &HepDataset,
    replay: Replay<'_, Network>,
    (rank_batch, steps): (usize, usize),
    engine: &ThreadRunSummary,
) {
    let parts = span::span(Layer::Harness, span_name, || {
        train::replay_steps(
            replay,
            steps,
            |step| {
                let idx: Vec<usize> = (0..rank_batch)
                    .map(|i| (step * rank_batch + i) % ds.len())
                    .collect();
                span::span(Layer::Data, "data.hep.gather", || ds.gather(&idx))
            },
            classify_step,
        )
    });
    train::report_replay(out, w, parts, median(&train::curve_gaps_ms(engine)));
}

pub fn run(out: &mut Outcome, seed: u64) -> Vec<Span> {
    span::enable();

    // hep_train (one rank), the same task on two ranks, then the replay.
    let env = hep_train::HepTrain::setup(seed);
    let task = || HepGradTask::new(Arc::clone(&env.ds));
    let engine = |ranks: usize| {
        let cfg = hep_train::config(seed, ranks, 3);
        ThreadEngine::run_with(&cfg, env.ds.len(), |_| hep_train::build(), task())
    };
    let run1 = engine(hep_train::RANKS);
    wire_per_update(out, "hep", &run1);
    // Both rates are per steady iteration (loss-curve gaps), without
    // engine start-up; the batch is the same, so two ranks halve it.
    let run2 = engine(2);
    let per_iter =
        |run: &ThreadRunSummary| hep_train::BATCH as f64 * 1e3 / median(&train::curve_gaps_ms(run));
    out.push(Metric::value(
        "core.hep.single_rank_images_per_s",
        "1/s",
        per_iter(&run1),
    ));
    out.push(Metric::value(
        "core.hep.scaling_efficiency_2r",
        "share",
        per_iter(&run2) / (2.0 * per_iter(&run1)),
    ));
    let mut model = hep_train::build();
    let replay = Replay {
        model: &mut model,
        ranks: hep_train::RANKS,
        adam: true,
        lr: hep_train::LR,
        momentum: 0.0,
    };
    let rank_batch = hep_train::BATCH / hep_train::RANKS;
    replay_classifier(
        out,
        ("hep", "harness.replay.hep"),
        &env.ds,
        replay,
        (rank_batch, 3),
        &run1,
    );

    // Checkpoint of the HEP parameters.
    let path = host::out_dir().join(format!("checkpoint_{}.ckpt", std::process::id()));
    let ck = Checkpoint::capture(&model, 1, seed);
    let save = median_secs(1, 5, || ck.save(&path).expect("checkpoint save"));
    let load = median_secs(1, 5, || {
        black_box(Checkpoint::load(&path).expect("checkpoint load"));
    });
    let _ = std::fs::remove_file(&path);
    out.push(Metric::value("core.checkpoint.save_ms", "ms", save * 1e3));
    out.push(Metric::value("core.checkpoint.load_ms", "ms", load * 1e3));
    drop((model, env));

    // wide_train.
    let env = wide_train::WideTrain::setup(seed);
    let cfg = wide_train::config(seed, 10);
    let run = ThreadEngine::run_with(
        &cfg,
        env.ds.len(),
        |_| wide_train::build(),
        HepGradTask::new(Arc::clone(&env.ds)),
    );
    wire_per_update(out, "wide", &run);
    let mut model = wide_train::build();
    let replay = Replay {
        model: &mut model,
        ranks: wide_train::RANKS,
        adam: false,
        lr: wide_train::LR,
        momentum: wide_train::MOMENTUM,
    };
    let rank_batch = wide_train::BATCH / wide_train::RANKS;
    replay_classifier(
        out,
        ("wide", "harness.replay.wide"),
        &env.ds,
        replay,
        (rank_batch, 5),
        &run,
    );
    drop((model, env));

    // climate_train: two asynchronous single-rank groups, so no ring.
    let env = climate_train::ClimateTrain::setup(seed);
    let iterations = 30;
    let cfg = climate_train::config(seed, iterations);
    let t = Instant::now();
    let run = climate_train::run_engine(&env, &cfg, 0);
    let wall = t.elapsed().as_secs_f64();
    wire_per_update(out, "climate", &run);
    out.push(Metric::value(
        "core.climate.staleness_mean",
        "updates",
        run.mean_staleness,
    ));
    let mut model = climate_train::build();
    let parts = span::span(Layer::Harness, "harness.replay.climate", || {
        train::replay_steps(
            Replay {
                model: &mut model,
                ranks: 1,
                adam: false,
                lr: climate_train::LR,
                momentum: climate_train::MOMENTUM,
            },
            15,
            |step| {
                let idx: Vec<usize> = (0..climate_train::BATCH)
                    .map(|i| (step * climate_train::BATCH + i) % env.ds.len())
                    .collect();
                span::span(Layer::Data, "data.climate.gather", || env.ds.gather(&idx))
            },
            |net, (batch, boxes)| {
                span::span(Layer::Nn, "nn.climate.forward_backward", || {
                    black_box(climate_train::step(net, &batch, &boxes));
                })
            },
        )
    });
    train::report_replay(out, "climate", parts, wall * 1e3 / iterations as f64);

    span::disable();
    span::drain()
}
