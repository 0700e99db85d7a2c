//! Cross-crate integration of the serving subsystem: checkpoint →
//! registry → worker pool → client, plus the exactly-once property of
//! the dynamic batcher under randomized schedules (real threads *and*
//! the virtual-time simulator).

use proptest::prelude::*;
use scidl_core::checkpoint::Checkpoint;
use scidl_serve::queue::{BatchPolicy, BatchQueue};
use scidl_serve::sim::{simulate, ServiceModel, SimConfig};
use scidl_serve::{
    HepRequestSource, ModelRegistry, PoissonArrivals, Server, ServerConfig, ServingModel,
};
use scidl_tensor::TensorRng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// End-to-end: train-side checkpoint, verified load, batched serving of
/// real HEP samples, answers bit-identical to direct inference.
#[test]
fn checkpoint_to_client_end_to_end() {
    let mut rng = TensorRng::new(61);
    let trained = scidl_nn::arch::hep_small(&mut rng);
    let mut path = std::env::temp_dir();
    path.push(format!("scidl_it_serving_{}.ckpt", std::process::id()));
    Checkpoint::capture(&trained, 500, 61).save(&path).unwrap();

    let mut arch_rng = TensorRng::new(0);
    let model = ServingModel::load(&path, scidl_nn::arch::hep_small(&mut arch_rng)).unwrap();
    std::fs::remove_file(&path).ok();
    let registry = Arc::new(ModelRegistry::new(model));

    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 2,
            queue_capacity: 32,
            policy: BatchPolicy::dynamic(4, Duration::from_millis(5)),
            ..Default::default()
        },
    );
    let client = server.client();

    let mut source = HepRequestSource::new(scidl_data::HepConfig::small(), 16, 9);
    let inputs: Vec<_> = (0..12).map(|_| source.next_request()).collect();
    let rxs: Vec<_> = inputs
        .iter()
        .map(|x| client.submit(x.clone()).unwrap())
        .collect();
    for (x, rx) in inputs.iter().zip(rxs) {
        let got = rx
            .recv()
            .unwrap()
            .expect("healthy pool answers every request");
        let want = registry.current().network.infer(x);
        assert_eq!(
            got.logits,
            want.item(0),
            "served logits must be bit-identical"
        );
        assert_eq!(got.model_iteration, 500);
    }
    let recorder = server.shutdown();
    assert_eq!(recorder.len(), 12);
    assert!(recorder.total_summary().unwrap().p99 >= recorder.total_summary().unwrap().p50);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite guarantee, real threads: across random arrival bursts,
    /// batch sizes, deadlines, capacities and worker counts — with
    /// queue-full backpressure in play — every *accepted* request is
    /// served exactly once (no drops, no duplicates) and every rejected
    /// request is handed back at submission.
    #[test]
    fn batch_queue_serves_accepted_requests_exactly_once(
        n in 1usize..60,
        capacity in 1usize..12,
        max_batch in 1usize..9,
        delay_us in 0u64..3000,
        consumers in 1usize..4,
        gap_us in 0u64..300,
    ) {
        let queue = Arc::new(BatchQueue::new(capacity));
        let policy = BatchPolicy::dynamic(max_batch, Duration::from_micros(delay_us));
        let handles: Vec<_> = (0..consumers)
            .map(|_| {
                let q = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Some(batch) = q.pop_batch(&policy) {
                        assert!(batch.len() <= max_batch, "over-full batch");
                        seen.extend(batch.into_iter().map(|(id, _wait)| id));
                    }
                    seen
                })
            })
            .collect();

        let mut accepted = HashSet::new();
        let mut rejected = HashSet::new();
        for id in 0..n {
            match queue.submit(id) {
                Ok(()) => accepted.insert(id),
                Err(e) => {
                    prop_assert!(
                        matches!(e, scidl_serve::SubmitError::Full { .. }),
                        "pre-close rejections must be Full"
                    );
                    prop_assert_eq!(e.into_item(), id, "rejection must hand the request back");
                    rejected.insert(id)
                }
            };
            if gap_us > 0 && id % 7 == 0 {
                std::thread::sleep(Duration::from_micros(gap_us));
            }
        }
        queue.close();

        let mut served = Vec::new();
        for h in handles {
            served.extend(h.join().expect("consumer panicked"));
        }
        prop_assert_eq!(served.len(), accepted.len(), "no drops, no duplicates");
        let unique: HashSet<_> = served.iter().copied().collect();
        prop_assert_eq!(unique.len(), served.len(), "duplicate service");
        prop_assert_eq!(&unique, &accepted, "served set must equal accepted set");
        prop_assert_eq!(accepted.len() + rejected.len(), n);
    }

    /// Same guarantee on the virtual-time simulator across random
    /// Poisson schedules and policies: served + rejected ids partition
    /// the arrivals exactly.
    #[test]
    fn simulator_partitions_arrivals_exactly_once(
        seed in 0u64..1000,
        n in 1usize..300,
        rate in 20.0f64..3000.0,
        max_batch in 1usize..40,
        delay_ms in 0u64..40,
        capacity in 1usize..64,
        workers in 1usize..4,
    ) {
        let model = ServiceModel::hep();
        let arrivals: Vec<f64> = PoissonArrivals::new(seed, rate, n).collect();
        let cfg = SimConfig::new(
            workers,
            capacity,
            BatchPolicy::dynamic(max_batch, Duration::from_millis(delay_ms)),
        );
        let out = simulate(&model, &arrivals, &cfg);
        let mut all: Vec<usize> = out.served_ids.iter().chain(&out.rejected_ids).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        prop_assert_eq!(out.completed + out.rejected, n);
        prop_assert_eq!(out.recorder.len(), out.completed);
        prop_assert!(out.batch_sizes.iter().all(|&b| b >= 1 && b <= max_batch));
        prop_assert_eq!(out.batch_sizes.iter().sum::<usize>(), out.completed);
    }
}
