//! Deterministic minibatch sampling with per-node sharding.
//!
//! In the paper's data-parallel setting every node draws its own chunk of
//! the global minibatch from its local shard of the dataset. The sampler
//! reproduces that: each (seed, node) pair yields an independent,
//! reproducible shuffled stream over the node's shard.

use scidl_tensor::TensorRng;

/// An epoch-reshuffling minibatch index sampler.
pub struct BatchSampler {
    indices: Vec<usize>,
    batch: usize,
    pos: usize,
    rng: TensorRng,
}

impl BatchSampler {
    /// Samples batches of `batch` indices from `0..n`.
    pub fn new(n: usize, batch: usize, seed: u64) -> Self {
        assert!(batch > 0, "batch size must be positive");
        assert!(n > 0, "dataset must be non-empty");
        let mut s = Self {
            indices: (0..n).collect(),
            batch,
            pos: 0,
            rng: TensorRng::new(seed ^ 0xBA7C4),
        };
        s.reshuffle();
        s
    }

    /// Sampler over the shard owned by `node` of `num_nodes` (round-robin
    /// assignment of indices), with a node-specific stream.
    pub fn for_node(n: usize, batch: usize, seed: u64, node: usize, num_nodes: usize) -> Self {
        assert!(num_nodes > 0 && node < num_nodes);
        let shard: Vec<usize> = (0..n).filter(|i| i % num_nodes == node).collect();
        assert!(
            !shard.is_empty(),
            "shard for node {node} is empty (n={n}, nodes={num_nodes})"
        );
        let mut rng = TensorRng::new(seed ^ 0xBA7C4);
        let mut s = Self {
            indices: shard,
            batch,
            pos: 0,
            rng: rng.fork(node as u64 + 1),
        };
        s.reshuffle();
        s
    }

    fn reshuffle(&mut self) {
        // Fisher–Yates.
        for i in (1..self.indices.len()).rev() {
            let j = self.rng.below(i + 1);
            self.indices.swap(i, j);
        }
        self.pos = 0;
    }

    /// Number of items in this sampler's shard.
    pub fn shard_len(&self) -> usize {
        self.indices.len()
    }

    /// Draws the next minibatch of indices, reshuffling at epoch
    /// boundaries. Batches always have exactly `batch` entries; a partial
    /// tail wraps into the next epoch.
    pub fn next_batch(&mut self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.batch);
        while out.len() < self.batch {
            if self.pos >= self.indices.len() {
                self.reshuffle();
            }
            out.push(self.indices[self.pos]);
            self.pos += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn batches_have_requested_size() {
        let mut s = BatchSampler::new(10, 3, 1);
        for _ in 0..5 {
            assert_eq!(s.next_batch().len(), 3);
        }
    }

    #[test]
    fn one_epoch_covers_every_index() {
        let mut s = BatchSampler::new(12, 4, 2);
        let mut seen = HashSet::new();
        for _ in 0..3 {
            seen.extend(s.next_batch());
        }
        assert_eq!(seen.len(), 12);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = BatchSampler::new(20, 5, 7);
        let mut b = BatchSampler::new(20, 5, 7);
        for _ in 0..4 {
            assert_eq!(a.next_batch(), b.next_batch());
        }
        let mut c = BatchSampler::new(20, 5, 8);
        let batches_a: Vec<_> = (0..4).map(|_| a.next_batch()).collect();
        let batches_c: Vec<_> = (0..4).map(|_| c.next_batch()).collect();
        assert_ne!(batches_a, batches_c);
    }

    #[test]
    fn shards_partition_the_dataset() {
        let n = 17;
        let nodes = 4;
        let mut all = HashSet::new();
        let mut total = 0;
        for node in 0..nodes {
            let s = BatchSampler::for_node(n, 2, 3, node, nodes);
            total += s.shard_len();
            all.extend(s.indices.iter().copied());
        }
        assert_eq!(total, n);
        assert_eq!(all.len(), n);
    }

    #[test]
    fn node_streams_differ() {
        let a = BatchSampler::for_node(100, 4, 9, 0, 2);
        let b = BatchSampler::for_node(100, 4, 9, 1, 2);
        // Shards are disjoint by construction.
        let sa: HashSet<_> = a.indices.iter().collect();
        assert!(b.indices.iter().all(|i| !sa.contains(i)));
    }

    #[test]
    fn wraps_across_epochs() {
        let mut s = BatchSampler::new(3, 2, 4);
        let mut counts = [0usize; 3];
        for _ in 0..30 {
            for i in s.next_batch() {
                counts[i] += 1;
            }
        }
        // 60 draws over 3 items → 20 each.
        assert_eq!(counts, [20, 20, 20]);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn rejects_zero_batch() {
        let _ = BatchSampler::new(10, 0, 1);
    }
}
