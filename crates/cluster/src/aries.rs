//! Cost model of the Cray Aries dragonfly interconnect (Sec. IV) and of
//! the MLSL-style communication primitives built on it (Sec. III-D/E).
//!
//! All-reduce follows the standard ring model (bandwidth term
//! `2·(n−1)/n · bytes/bw`) plus a logarithmic latency term; MLSL's
//! endpoint proxy threads improve effective bandwidth utilisation, which
//! is folded into `effective_bw`. Parameter-server exchanges are modelled
//! as point-to-point transfers plus a per-message software overhead.

/// Interconnect model parameters.
#[derive(Clone, Debug)]
pub struct AriesModel {
    /// One-way hardware + software latency per message (seconds).
    pub latency: f64,
    /// Per-node effective injection bandwidth with MLSL endpoints (B/s).
    pub effective_bw: f64,
    /// Additional per-hop latency multiplier applied `log2(n)` times in
    /// collectives.
    pub hop_latency: f64,
}

impl Default for AriesModel {
    fn default() -> Self {
        Self {
            latency: 6.0e-6,
            effective_bw: 9.0e9,
            hop_latency: 2.0e-6,
        }
    }
}

impl AriesModel {
    /// Time for an all-reduce of `bytes` across `nodes` ranks.
    pub fn allreduce_time(&self, nodes: usize, bytes: u64) -> f64 {
        if nodes <= 1 {
            return 0.0;
        }
        let n = nodes as f64;
        let steps = (nodes as f64).log2().ceil();
        let bw_term = 2.0 * (n - 1.0) / n * bytes as f64 / self.effective_bw;
        let lat_term = steps * (self.latency + self.hop_latency);
        bw_term + lat_term
    }

    /// Time to broadcast `bytes` from one rank to `nodes` ranks
    /// (binomial tree, pipelined).
    pub fn broadcast_time(&self, nodes: usize, bytes: u64) -> f64 {
        if nodes <= 1 {
            return 0.0;
        }
        let steps = (nodes as f64).log2().ceil();
        bytes as f64 / self.effective_bw + steps * (self.latency + self.hop_latency)
    }

    /// Point-to-point transfer of `bytes`.
    pub fn p2p_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.effective_bw
    }

    /// Binomial-tree all-reduce over `ranks` peers moving `bytes` per
    /// rank per round (reduce tree + broadcast tree, `2·⌈log₂ ranks⌉`
    /// rounds). `extra_latency` is charged once per round and `bw_derate`
    /// scales the bandwidth term — the hierarchical collective's
    /// inter-group leg uses these for the dragonfly's optical-hop latency
    /// and shared-global-link contention.
    pub fn tree_allreduce_time(
        &self,
        ranks: usize,
        bytes: f64,
        extra_latency: f64,
        bw_derate: f64,
    ) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let rounds = 2.0 * (ranks as f64).log2().ceil();
        rounds * (self.latency + self.hop_latency + extra_latency)
            + rounds * bytes / self.effective_bw * bw_derate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_collectives_are_free() {
        let m = AriesModel::default();
        assert_eq!(m.allreduce_time(1, 1 << 30), 0.0);
        assert_eq!(m.broadcast_time(1, 1 << 30), 0.0);
    }

    #[test]
    fn allreduce_bandwidth_term_saturates_with_nodes() {
        let m = AriesModel::default();
        let bytes = 300 * 1024 * 1024; // climate-sized model
        let t64 = m.allreduce_time(64, bytes);
        let t1024 = m.allreduce_time(1024, bytes);
        // Ring bandwidth term approaches 2·bytes/bw; only latency grows.
        assert!(t1024 > t64);
        assert!(
            t1024 < t64 * 1.2,
            "allreduce should be nearly node-count independent: {t64} vs {t1024}"
        );
    }

    #[test]
    fn allreduce_scales_linearly_in_bytes_for_large_messages() {
        let m = AriesModel::default();
        let t1 = m.allreduce_time(256, 10_000_000);
        let t2 = m.allreduce_time(256, 20_000_000);
        assert!((t2 / t1 - 2.0).abs() < 0.05, "ratio {}", t2 / t1);
    }

    #[test]
    fn latency_dominates_small_messages_at_scale() {
        let m = AriesModel::default();
        // HEP's 2.3 MiB model at 2048 nodes: latency share grows with
        // node count — the jitter amplification mechanism of Sec. VI-B2.
        let small = m.allreduce_time(2048, 1024);
        let floor = (2048f64).log2().ceil() * (m.latency + m.hop_latency);
        assert!(small >= floor);
        assert!(small < floor + 1e-6);
    }

    #[test]
    fn hep_allreduce_in_expected_range() {
        let m = AriesModel::default();
        // 2.3 MiB over 1024 nodes: sub-millisecond — small next to the
        // ~12 ms/layer compute the paper quotes.
        let t = m.allreduce_time(1024, 2_411_724);
        assert!((1e-4..2e-3).contains(&t), "HEP allreduce {t}");
    }

    #[test]
    fn tree_allreduce_charges_rounds_and_derate() {
        let m = AriesModel::default();
        assert_eq!(m.tree_allreduce_time(1, 1e6, 1.5e-6, 1.0), 0.0);
        // 8 ranks → 6 rounds; each pays latency + hop + extra.
        let t = m.tree_allreduce_time(8, 0.0, 1.5e-6, 1.0);
        assert!((t - 6.0 * (m.latency + m.hop_latency + 1.5e-6)).abs() < 1e-12);
        // Bandwidth derate scales only the byte term.
        let base = m.tree_allreduce_time(8, 1e6, 0.0, 1.0);
        let derated = m.tree_allreduce_time(8, 1e6, 0.0, 2.0);
        let bw_term = 6.0 * 1e6 / m.effective_bw;
        assert!((derated - base - bw_term).abs() < 1e-12);
    }

    #[test]
    fn p2p_is_latency_plus_bandwidth() {
        let m = AriesModel::default();
        assert!((m.p2p_time(9_000_000_000) - (m.latency + 1.0)).abs() < 1e-9);
    }
}
