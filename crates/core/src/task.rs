//! The supervised HEP training task used by both engines: compute loss
//! and flattened gradient for a minibatch, as a plain function and as a
//! [`GradTask`] capable of overlapping gradient communication with the
//! backward pass.

use scidl_comm::bucket::BucketSink;
use scidl_data::HepDataset;
use scidl_nn::network::{Model, Network};
use scidl_nn::SoftmaxCrossEntropy;
use std::sync::Arc;

/// A training task the engines can drive: given a model and a minibatch
/// of sample indices, produce the loss and the flat gradient.
///
/// Any `Fn(&mut M, &[usize]) -> (f32, Vec<f32>)` closure is a
/// `GradTask` via the blanket impl (the non-overlapping path). Tasks
/// that know their model's backward structure — like [`HepGradTask`] —
/// additionally override [`GradTask::grad_overlapped`] to deliver each
/// parameter block into a [`BucketSink`] the moment its gradients are
/// final, so bucketed all-reduces run while shallower layers still
/// backpropagate (the paper's MLSL overlap, Sec. V).
///
/// The engine reduces into the model's own gradient blocks: after a step
/// they hold the *group-reduced* gradient, not this rank's. A task must
/// therefore zero the gradients before its backward (as [`hep_gradient`],
/// [`HepGradTask`] and the climate tasks do) rather than accumulate onto
/// what the previous step left there.
pub trait GradTask<M: Model>: Send + Sync {
    /// One forward/backward over the minibatch: `(mean loss, flat gradient)`.
    fn grad(&self, model: &mut M, indices: &[usize]) -> (f32, Vec<f32>);

    /// Overlapped variant: compute the gradient, pushing parameter
    /// blocks into `sink` in backward-readiness order (deepest layer
    /// first; within a layer, reverse block order). Returns the loss;
    /// the reduced gradient comes back from the sink's stream.
    ///
    /// The default computes the full flat gradient first and then
    /// replays its blocks — bit-identical to a true layered backward,
    /// it just hides no communication. Override it to overlap for real.
    fn grad_overlapped(&self, model: &mut M, indices: &[usize], sink: &mut dyn BucketSink) -> f32 {
        let (loss, grads) = self.grad(model, indices);
        sink.push_flat(&grads);
        loss
    }
}

impl<M: Model, F> GradTask<M> for F
where
    F: Fn(&mut M, &[usize]) -> (f32, Vec<f32>) + Send + Sync,
{
    fn grad(&self, model: &mut M, indices: &[usize]) -> (f32, Vec<f32>) {
        self(model, indices)
    }
}

/// The supervised HEP classification task as a [`GradTask`] with a true
/// layer-wise overlapped backward: [`GradTask::grad_overlapped`] walks
/// [`Network::backward_params`] and ships each layer's blocks as soon
/// as that layer's backward completes.
pub struct HepGradTask {
    ds: Arc<HepDataset>,
}

impl HepGradTask {
    /// Wraps the dataset the task samples minibatches from.
    pub fn new(ds: Arc<HepDataset>) -> Self {
        Self { ds }
    }
}

impl GradTask<Network> for HepGradTask {
    fn grad(&self, model: &mut Network, indices: &[usize]) -> (f32, Vec<f32>) {
        hep_gradient(model, &self.ds, indices)
    }

    fn grad_overlapped(
        &self,
        model: &mut Network,
        indices: &[usize],
        sink: &mut dyn BucketSink,
    ) -> f32 {
        let (batch, labels) = self.ds.gather(indices);
        model.zero_grads();
        let logits = model.forward(&batch);
        let (loss, dlogits) = SoftmaxCrossEntropy::forward(&logits, &labels);
        // Flat-order index of each layer's first parameter block.
        let first_block: Vec<usize> = model
            .layers()
            .iter()
            .scan(0usize, |acc, l| {
                let first = *acc;
                *acc += l.params().len();
                Some(first)
            })
            .collect();
        model.backward_params(&dlogits, |li, layer| {
            // Within a layer all blocks become final together; pushing
            // them in reverse keeps the global delivery order equal to
            // strict reverse flat order, matching the bucket plan.
            let params = layer.params();
            for (bi, b) in params.iter().enumerate().rev() {
                sink.push_block(first_block[li] + bi, b.grad.data());
            }
        });
        loss
    }
}

/// Runs one forward/backward over the indexed minibatch and returns
/// `(mean loss, flat gradient)`. Gradients are fresh (zeroed first), so
/// the result is exactly the minibatch-mean gradient.
pub fn hep_gradient(model: &mut Network, ds: &HepDataset, indices: &[usize]) -> (f32, Vec<f32>) {
    let (batch, labels) = ds.gather(indices);
    model.zero_grads();
    let logits = model.forward(&batch);
    let (loss, grad) = SoftmaxCrossEntropy::forward(&logits, &labels);
    model.backward_params(&grad, |_, _| {});
    (loss, model.flat_grads())
}

/// Classification accuracy of `model` over the given indices, through the
/// serving forward: evaluation leaves no activation cached.
pub fn hep_accuracy(model: &Network, ds: &HepDataset, indices: &[usize]) -> f64 {
    let (batch, labels) = ds.gather(indices);
    let logits = model.infer(&batch);
    let probs = SoftmaxCrossEntropy::probabilities(&logits);
    let mut correct = 0usize;
    for (i, &label) in labels.iter().enumerate() {
        if scidl_tensor::ops::argmax(probs.item(i)) == label {
            correct += 1;
        }
    }
    correct as f64 / labels.len().max(1) as f64
}

/// Signal-class probabilities (scores) for ROC evaluation, through the
/// serving forward like [`hep_accuracy`].
pub fn hep_scores(model: &Network, ds: &HepDataset, indices: &[usize]) -> Vec<f32> {
    // Evaluate in chunks to bound memory.
    let mut scores = Vec::with_capacity(indices.len());
    for chunk in indices.chunks(64) {
        let (batch, _) = ds.gather(chunk);
        let logits = model.infer(&batch);
        let probs = SoftmaxCrossEntropy::probabilities(&logits);
        for i in 0..chunk.len() {
            scores.push(probs.item(i)[1]);
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use scidl_data::HepConfig;
    use scidl_tensor::TensorRng;

    #[test]
    fn gradient_is_deterministic_and_nonzero() {
        let ds = HepDataset::generate(HepConfig::small(), 8, 1);
        let mut rng = TensorRng::new(5);
        let mut model = scidl_nn::arch::hep_small(&mut rng);
        let (l1, g1) = hep_gradient(&mut model, &ds, &[0, 1, 2, 3]);
        let (l2, g2) = hep_gradient(&mut model, &ds, &[0, 1, 2, 3]);
        assert_eq!(l1, l2);
        assert_eq!(g1, g2);
        assert!(g1.iter().any(|&g| g != 0.0));
    }

    #[test]
    fn overlapped_gradient_is_bit_identical_and_deepest_first() {
        struct Collect {
            blocks: Vec<(usize, Vec<f32>)>,
        }
        impl BucketSink for Collect {
            fn push_block(&mut self, block: usize, grad: &[f32]) {
                self.blocks.push((block, grad.to_vec()));
            }
            fn push_flat(&mut self, _flat: &[f32]) {
                panic!("HepGradTask must deliver per-block, not flat");
            }
        }

        let ds = Arc::new(HepDataset::generate(HepConfig::small(), 8, 11));
        let task = HepGradTask::new(Arc::clone(&ds));
        let mut rng = TensorRng::new(15);
        let mut model = scidl_nn::arch::hep_small(&mut rng);
        let idx = [0usize, 1, 2, 3];

        let (loss_ref, grads_ref) = task.grad(&mut model, &idx);

        let mut sink = Collect { blocks: Vec::new() };
        let loss = task.grad_overlapped(&mut model, &idx, &mut sink);
        assert_eq!(loss, loss_ref);

        let num_blocks = model.param_blocks().len();
        assert_eq!(sink.blocks.len(), num_blocks);
        // Delivery order is strict reverse flat order (readiness order).
        let order: Vec<usize> = sink.blocks.iter().map(|(b, _)| *b).collect();
        let want: Vec<usize> = (0..num_blocks).rev().collect();
        assert_eq!(order, want);
        // Reassembling the blocks in flat order reproduces the flat
        // gradient bit-for-bit.
        let mut sorted = sink.blocks.clone();
        sorted.sort_by_key(|(b, _)| *b);
        let flat: Vec<f32> = sorted.into_iter().flat_map(|(_, g)| g).collect();
        assert_eq!(flat, grads_ref);
    }

    #[test]
    fn scores_are_probabilities() {
        let ds = HepDataset::generate(HepConfig::small(), 8, 2);
        let mut rng = TensorRng::new(6);
        let model = scidl_nn::arch::hep_small(&mut rng);
        let idx: Vec<usize> = (0..8).collect();
        let s = hep_scores(&model, &ds, &idx);
        assert_eq!(s.len(), 8);
        assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn accuracy_bounded() {
        let ds = HepDataset::generate(HepConfig::small(), 16, 3);
        let mut rng = TensorRng::new(7);
        let model = scidl_nn::arch::hep_small(&mut rng);
        let idx: Vec<usize> = (0..16).collect();
        let a = hep_accuracy(&model, &ds, &idx);
        assert!((0.0..=1.0).contains(&a));
    }
}
