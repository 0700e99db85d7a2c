//! Serving a trained HEP classifier with dynamic batching — and keeping
//! it up under chaos.
//!
//! The end of the training story: a checkpoint written by the training
//! loop is loaded into a `ModelRegistry` (verified bit-identical to the
//! network that wrote it), a supervised worker pool serves it through
//! the dynamic batcher while a `FaultPlan` crashes a worker mid-batch,
//! a corrupt checkpoint is rejected by the guarded hot-swap (the old
//! model keeps serving), a healthy one swaps in with zero downtime, and
//! the run closes with the queue-wait / compute latency split plus the
//! supervisor's incident report.
//!
//! ```text
//! cargo run --release --example inference_serving [-- --int8]
//! ```
//!
//! With `--int8` the healthy hot-swap goes through
//! `load_and_swap_quantized_guarded` instead: the checkpoint is
//! quantized to int8 weights behind the same guard chain plus an
//! argmax-agreement probe, and the worker pool serves the int8 sidecar
//! from then on.

use scidl_cluster::faults::FaultPlan;
use scidl_core::checkpoint::Checkpoint;
use scidl_core::metrics::Summary;
use scidl_serve::{
    check_roundtrip, BatchPolicy, ModelRegistry, Server, ServerConfig, ServingModel, SwapError,
};
use scidl_tensor::{Shape4, TensorRng};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // --- a "trained" model writes a checkpoint -------------------------
    let mut rng = TensorRng::new(42);
    let trained = scidl_nn::arch::hep_small(&mut rng);
    let mut path = std::env::temp_dir();
    path.push("scidl_inference_serving_demo.ckpt");
    Checkpoint::capture(&trained, 1000, 42)
        .save(&path)
        .expect("checkpoint write");

    // --- load it back under the round-trip guarantee -------------------
    let mut arch_rng = TensorRng::new(0);
    let model = ServingModel::load(&path, scidl_nn::arch::hep_small(&mut arch_rng))
        .expect("checkpoint load");
    let mut probe_rng = TensorRng::new(7);
    let probe = probe_rng.uniform_tensor(Shape4::new(4, 3, 32, 32), -1.0, 1.0);
    check_roundtrip(&trained, &model.network, &probe)
        .expect("loaded checkpoint must serve bit-identical logits");
    println!(
        "checkpoint round-trip verified: logits bit-identical (iteration {}, seed {})",
        model.iteration, model.seed
    );

    // --- serve it through the batcher while chaos crashes a worker -----
    let registry = Arc::new(ModelRegistry::new(model));
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            policy: BatchPolicy::dynamic(8, Duration::from_millis(5)),
            // Declarative chaos: worker 0 panics mid-way through its
            // first batch; the supervisor respawns it and requeues the
            // in-flight requests.
            faults: FaultPlan::none().with_worker_crash(0, 0, 0.005),
            ..Default::default()
        },
    );
    let client = server.client();

    let mut xr = TensorRng::new(3);
    let pending: Vec<_> = (0..24)
        .map(|_| {
            let x = xr.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0);
            client.submit(x).expect("queue has room")
        })
        .collect();
    let mut batched = 0usize;
    for rx in pending {
        // The crashed worker's in-flight batch is requeued by the
        // supervisor, so every request resolves `Ok`.
        let r = rx
            .recv()
            .expect("reply channel")
            .expect("the requeue absorbs the crash");
        assert_eq!(r.logits.len(), scidl_nn::arch::HEP_CLASSES);
        assert_eq!(r.model_iteration, 1000);
        if r.batch_size > 1 {
            batched += 1;
        }
    }
    println!(
        "served 24 requests through an injected worker crash; \
         {batched} rode in a coalesced batch"
    );

    // --- a corrupt snapshot is rejected before publication -------------
    let mut rng2 = TensorRng::new(43);
    let newer = scidl_nn::arch::hep_small(&mut rng2);
    Checkpoint::capture(&newer, 2000, 43)
        .save(&path)
        .expect("checkpoint write");
    let mut corrupt = std::fs::read(&path).expect("read checkpoint");
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xFF;
    let mut bad_path = std::env::temp_dir();
    bad_path.push("scidl_inference_serving_demo_corrupt.ckpt");
    std::fs::write(&bad_path, &corrupt).expect("write corrupt checkpoint");

    let mut arch_rng2 = TensorRng::new(0);
    let err = registry
        .load_and_swap_guarded(
            &bad_path,
            scidl_nn::arch::hep_small(&mut arch_rng2),
            &probe,
            Some(&newer),
        )
        .expect_err("bit-flipped checkpoint must not publish");
    std::fs::remove_file(&bad_path).ok();
    assert!(matches!(err, SwapError::Load(_)));
    let x = xr.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0);
    let still = client.infer(x).expect("serve after rejected swap");
    assert_eq!(still.model_iteration, 1000, "previous model keeps serving");
    println!("corrupt checkpoint rejected ({err}); iteration 1000 kept serving");

    // --- the healthy snapshot hot-swaps with zero downtime -------------
    let int8 = std::env::args().any(|a| a == "--int8");
    let mut arch_rng3 = TensorRng::new(0);
    if int8 {
        // The quantized swap runs the same guard chain plus an int8
        // argmax-agreement probe before publishing the sidecar.
        registry
            .load_and_swap_quantized_guarded(
                &path,
                scidl_nn::arch::hep_small(&mut arch_rng3),
                &probe,
                Some(&newer),
                0.25,
            )
            .expect("quantized hot swap");
    } else {
        registry
            .load_and_swap_guarded(
                &path,
                scidl_nn::arch::hep_small(&mut arch_rng3),
                &probe,
                Some(&newer),
            )
            .expect("hot swap");
    }
    std::fs::remove_file(&path).ok();
    let x = xr.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0);
    let after = client.infer(x).expect("serve after swap");
    assert_eq!(after.model_iteration, 2000, "new snapshot answers");
    let cur = registry.current();
    if int8 {
        let q = cur.quant.as_ref().expect("int8 swap publishes a sidecar");
        println!(
            "hot-swapped to iteration 2000 with zero downtime — served int8 \
             ({} quantized layers, {} weight bytes)",
            q.num_quantized(),
            q.weight_bytes()
        );
        assert!(cur.is_quantized());
    } else {
        println!("hot-swapped to iteration 2000 with zero downtime");
    }

    // --- the latency account and the incident report -------------------
    let (recorder, report) = server.shutdown_with_report();
    let fmt = |s: &Summary| format!("p50 {:6.2} ms  p99 {:6.2} ms", s.p50 * 1e3, s.p99 * 1e3);
    println!("requests served: {}", recorder.len());
    println!(
        "  total   latency: {}",
        fmt(&recorder.total_summary().unwrap())
    );
    println!(
        "  queue   wait:    {}",
        fmt(&recorder.queue_summary().unwrap())
    );
    println!(
        "  compute:         {}",
        fmt(&recorder.compute_summary().unwrap())
    );
    println!(
        "  queue share of total: {:.0}%",
        recorder.queue_share().unwrap() * 100.0
    );
    println!(
        "incident report: {} panics, {} respawns, {} requeued, {} lost",
        report.panics, report.respawns, report.requeued, report.worker_lost
    );
    assert!(report.panics >= 1, "the injected crash fired");
    assert_eq!(
        report.worker_lost, 0,
        "requeue recovered every in-flight request"
    );
}
