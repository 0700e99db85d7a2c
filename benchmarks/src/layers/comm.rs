//! `scidl-comm`: ring and bucketed all-reduce between two rank threads,
//! parameter-server round trips by message size, the supervised PS bank
//! on each model's block sizes, and the gradient codecs.

use super::median_secs;
use crate::catalogue::Better::{Higher, Lower};
use crate::report::{Metric, Outcome};
use crate::stats::median;
use crate::workloads::{climate_train, hep_train, wide_train};
use scidl_comm::ps::UpdateFn;
use scidl_comm::{
    bucketed_allreduce_mean, ring_allreduce_mean_scratch, BucketPlan, Compression, ErrorFeedback,
    PsServer, RingEndpoint, RingFabric, RingScratch, SupervisedPsBank, SupervisorConfig,
    UpdateFactory,
};
use scidl_nn::network::Model;
use scidl_nn::Solver;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// `(name, unit, better)` of every metric this section reports.
pub const NAMES: &[super::Def] = &[
    ("comm.ring.hep.ms", "ms", Lower),
    ("comm.ring.wide.ms", "ms", Lower),
    ("comm.ring.wide.gbytes_per_s", "GB/s", Higher),
    ("comm.bucket.wide.ms", "ms", Lower),
    ("comm.ps.update_us.1k", "us", Lower),
    ("comm.ps.update_us.1m", "us", Lower),
    ("comm.ps.update_us.16m", "us", Lower),
    ("comm.ps.fetch_us.1k", "us", Lower),
    ("comm.ps.fetch_us.1m", "us", Lower),
    ("comm.ps.fetch_us.16m", "us", Lower),
    ("comm.ps_bank.exchange_ms.hep", "ms", Lower),
    ("comm.ps_bank.exchange_ms.climate", "ms", Lower),
    ("comm.ps_bank.exchange_ms.wide", "ms", Lower),
    ("comm.compress.int8.encode_gbytes_per_s", "GB/s", Higher),
    ("comm.compress.int8.decode_gbytes_per_s", "GB/s", Higher),
    ("comm.compress.topk01.encode_gbytes_per_s", "GB/s", Higher),
    ("comm.compress.int8.ratio", "share", Lower),
    ("comm.compress.topk01.ratio", "share", Lower),
];

const RANKS: usize = 2;
/// Bucket size of `ThreadEngineConfig::new` (`bucket_bytes`).
const BUCKET_BYTES: usize = 1 << 16;

/// Median seconds rank 0 spends in `reduce`, run concurrently by two rank
/// threads on `len` floats; both start each repetition from a barrier.
fn collective_secs(
    len: usize,
    reps: usize,
    reduce: impl Fn(usize, &mut [f32], &RingEndpoint, &mut RingScratch) + Sync,
) -> f64 {
    let mut endpoints = RingFabric::new(RANKS).into_endpoints();
    let peer = endpoints.pop().expect("two endpoints");
    let root = endpoints.pop().expect("two endpoints");
    let start = Barrier::new(RANKS);
    let rounds = reps + 1;
    let mut times = Vec::with_capacity(reps);
    std::thread::scope(|s| {
        s.spawn(|| {
            let (mut data, mut scratch) = (vec![2.0f32; len], RingScratch::new());
            for _ in 0..rounds {
                start.wait();
                reduce(1, &mut data, &peer, &mut scratch);
            }
        });
        let (mut data, mut scratch) = (vec![1.0f32; len], RingScratch::new());
        for round in 0..rounds {
            start.wait();
            let t = Instant::now();
            reduce(0, &mut data, &root, &mut scratch);
            if round > 0 {
                times.push(t.elapsed().as_secs_f64());
            }
        }
    });
    median(&times)
}

fn ring_secs(len: usize, reps: usize) -> f64 {
    collective_secs(len, reps, |rank, data, (tx, rx), scratch| {
        ring_allreduce_mean_scratch(rank, RANKS, data, scratch, tx, rx).expect("ring all-reduce")
    })
}

fn sgd_update() -> UpdateFn {
    let mut solver = scidl_nn::Sgd::new(1e-3, 0.9);
    Box::new(move |p: &mut [f32], g: &[f32]| solver.step_block(0, p, g))
}

/// `(update µs, fetch µs)` round trips against one `PsServer` holding
/// `bytes` of parameters.
fn ps_round_trip(bytes: usize, reps: usize) -> (f64, f64) {
    let len = bytes / 4;
    let ps = PsServer::spawn(vec![0.5f32; len], sgd_update());
    // The gradient is moved into the request; clone it outside the clock.
    let mut grads: Vec<Vec<f32>> = (0..=reps).map(|_| vec![1e-3f32; len]).collect();
    let update = median_secs(1, reps, || {
        black_box(
            ps.update(grads.pop().expect("one gradient per call"))
                .expect("PS update"),
        );
    });
    let fetch = median_secs(1, reps, || {
        black_box(ps.fetch().expect("PS fetch"));
    });
    ps.shutdown().expect("PS shutdown");
    (update * 1e6, fetch * 1e6)
}

/// Median ms of `update_all` + `fetch_all` on a supervised bank with one
/// shard per parameter block of `model`.
fn bank_exchange_ms(model: &dyn Model, adam: bool, reps: usize) -> f64 {
    let blocks: Vec<Vec<f32>> = model
        .param_blocks()
        .iter()
        .map(|b| b.value.data().to_vec())
        .collect();
    let grads: Vec<Vec<f32>> = blocks.iter().map(|b| vec![1e-3f32; b.len()]).collect();
    let bank = SupervisedPsBank::spawn(
        blocks
            .into_iter()
            .map(|p| {
                let factory: UpdateFactory = Box::new(move || {
                    if adam {
                        let mut solver = scidl_nn::Adam::new(1e-3);
                        Box::new(move |p: &mut [f32], g: &[f32]| solver.step_block(0, p, g))
                            as UpdateFn
                    } else {
                        sgd_update()
                    }
                });
                (p, factory)
            })
            .collect(),
        SupervisorConfig::default(),
    );
    let secs = median_secs(1, reps, || {
        bank.update_all(&grads).expect("bank update");
        black_box(bank.fetch_all().expect("bank fetch"));
    });
    bank.shutdown().expect("bank shutdown");
    secs * 1e3
}

pub fn run(out: &mut Outcome) {
    let hep = hep_train::build();
    let wide = wide_train::build();
    let climate = climate_train::build();
    let (hep_len, wide_len) = (hep.num_params(), wide.num_params());

    out.push(Metric::value(
        "comm.ring.hep.ms",
        "ms",
        ring_secs(hep_len, 15) * 1e3,
    ));
    let ring = ring_secs(wide_len, 7);
    out.push(Metric::value("comm.ring.wide.ms", "ms", ring * 1e3));
    out.push(Metric::value(
        "comm.ring.wide.gbytes_per_s",
        "GB/s",
        4.0 * wide_len as f64 / ring / 1e9,
    ));

    let sizes: Vec<usize> = wide.param_blocks().iter().map(|b| b.len()).collect();
    let plan = BucketPlan::new(&sizes, BUCKET_BYTES);
    let bucket = collective_secs(wide_len, 7, |rank, data, (tx, rx), scratch| {
        bucketed_allreduce_mean(&plan, rank, RANKS, data, scratch, tx, rx)
            .expect("bucketed all-reduce")
    });
    out.push(Metric::value("comm.bucket.wide.ms", "ms", bucket * 1e3));

    for (label, bytes, reps) in [
        ("1k", 1 << 10, 201),
        ("1m", 1 << 20, 21),
        ("16m", 16 << 20, 5),
    ] {
        let (update, fetch) = ps_round_trip(bytes, reps);
        out.push(Metric::value(
            format!("comm.ps.update_us.{label}"),
            "us",
            update,
        ));
        out.push(Metric::value(
            format!("comm.ps.fetch_us.{label}"),
            "us",
            fetch,
        ));
    }

    out.push(Metric::value(
        "comm.ps_bank.exchange_ms.hep",
        "ms",
        bank_exchange_ms(&hep, true, 9),
    ));
    out.push(Metric::value(
        "comm.ps_bank.exchange_ms.climate",
        "ms",
        bank_exchange_ms(&climate, false, 51),
    ));
    out.push(Metric::value(
        "comm.ps_bank.exchange_ms.wide",
        "ms",
        bank_exchange_ms(&wide, false, 5),
    ));

    // Codecs on a gradient the size of the HEP model; rates count the
    // dense bytes that go in (encode) or come out (decode).
    let dense_bytes = 4.0 * hep_len as f64;
    let grad: Vec<f32> = (0..hep_len)
        .map(|i| ((i * 2_654_435_761) % 2001) as f32 / 1e3 - 1.0)
        .collect();
    for (label, policy) in [
        ("int8", Compression::Int8),
        ("topk01", Compression::TopK { density: 0.01 }),
    ] {
        let mut ef = ErrorFeedback::new(policy);
        let mut work = grad.clone();
        let mut msg = None;
        let encode = median_secs(1, 5, || {
            work.copy_from_slice(&grad);
            msg = Some(ef.encode(black_box(&mut work)));
        });
        let msg = msg.expect("encoded at least once");
        out.push(Metric::value(
            format!("comm.compress.{label}.encode_gbytes_per_s"),
            "GB/s",
            dense_bytes / encode / 1e9,
        ));
        // Exact: wire bytes over dense bytes.
        out.push(Metric::value(
            format!("comm.compress.{label}.ratio"),
            "share",
            msg.wire_bytes() as f64 / dense_bytes,
        ));
        if label == "int8" {
            let mut back = vec![0.0f32; hep_len];
            let decode = median_secs(1, 9, || msg.decompress_into(black_box(&mut back)));
            out.push(Metric::value(
                "comm.compress.int8.decode_gbytes_per_s",
                "GB/s",
                dense_bytes / decode / 1e9,
            ));
        }
    }
}
