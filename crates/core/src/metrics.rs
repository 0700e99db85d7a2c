//! Training-run metrics: loss curves over (simulated or real) time and
//! the time-to-loss readout of Fig. 8 — plus the
//! per-request latency accounting used by the `scidl-serve` inference
//! subsystem (queue wait vs compute split, p50/p95/p99), and the one
//! emitter of a training iteration's trace.
//!
//! Percentile/summary-stat math is shared workspace-wide through
//! [`scidl_tensor::stats`]; this module re-exports it so metrics
//! consumers have a single import point.

use scidl_cluster::IterBreakdown;
use scidl_nn::network::Model;
pub use scidl_tensor::stats::{median, percentile, percentile_sorted, Summary};
use scidl_trace::{EventKind, IterRow, TraceHandle};

/// Per-request serving latency accounting: each completed request
/// contributes its queue wait (submit → batch formation) and its compute
/// time (share of the batched forward pass). Total latency is their sum.
///
/// This is the serving-side analogue of the paper's throughput
/// bookkeeping (Sec. V): sustained numbers come from completed work over
/// wall-clock, and the tail (p99) — not the mean — is what a
/// production latency budget is written against.
#[derive(Clone, Debug, Default)]
pub struct LatencyRecorder {
    queue: Vec<f64>,
    compute: Vec<f64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed request.
    pub fn push(&mut self, queue_secs: f64, compute_secs: f64) {
        debug_assert!(queue_secs >= 0.0 && compute_secs >= 0.0);
        self.queue.push(queue_secs);
        self.compute.push(compute_secs);
    }

    /// Merges another recorder's samples (used to combine per-worker
    /// recorders).
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.queue.extend_from_slice(&other.queue);
        self.compute.extend_from_slice(&other.compute);
    }

    /// Number of completed requests recorded.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Summary of total (queue + compute) request latency. `None` when
    /// empty.
    pub fn total_summary(&self) -> Option<Summary> {
        (!self.is_empty()).then(|| {
            let totals: Vec<f64> = self
                .queue
                .iter()
                .zip(&self.compute)
                .map(|(q, c)| q + c)
                .collect();
            Summary::from_samples(&totals)
        })
    }

    /// Summary of queue-wait time alone.
    pub fn queue_summary(&self) -> Option<Summary> {
        (!self.is_empty()).then(|| Summary::from_samples(&self.queue))
    }

    /// Summary of compute time alone.
    pub fn compute_summary(&self) -> Option<Summary> {
        (!self.is_empty()).then(|| Summary::from_samples(&self.compute))
    }

    /// Fraction of mean total latency spent waiting in the queue, in
    /// `[0, 1]`. `None` when empty.
    pub fn queue_share(&self) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let q: f64 = self.queue.iter().sum();
        let c: f64 = self.compute.iter().sum();
        let t = q + c;
        (t > 0.0).then(|| q / t)
    }
}

/// A loss trajectory over time.
#[derive(Clone, Debug, Default)]
pub struct LossCurve {
    /// `(seconds, loss)` samples in nondecreasing time order.
    pub points: Vec<(f64, f32)>,
}

impl LossCurve {
    /// Creates an empty curve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample; time must not go backwards.
    pub fn push(&mut self, time: f64, loss: f32) {
        if let Some(&(t, _)) = self.points.last() {
            assert!(time >= t, "loss curve time went backwards: {time} < {t}");
        }
        self.points.push((time, loss));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the curve has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Final loss value, if any.
    pub fn final_loss(&self) -> Option<f32> {
        self.points.last().map(|&(_, l)| l)
    }

    /// First time at which a *smoothed* loss (trailing window of
    /// `window` samples) reaches `target`. This is the paper's Fig. 8
    /// readout: "wall-clock time speedups with respect to a loss of
    /// 0.05". Returns `None` when the target is never reached.
    pub fn time_to_loss(&self, target: f32, window: usize) -> Option<f64> {
        let w = window.max(1);
        let mut sum = 0.0f64;
        let mut buf: std::collections::VecDeque<f32> = Default::default();
        for &(t, l) in &self.points {
            buf.push_back(l);
            sum += l as f64;
            if buf.len() > w {
                sum -= buf.pop_front().unwrap() as f64;
            }
            if buf.len() == w && (sum / w as f64) <= target as f64 {
                return Some(t);
            }
        }
        None
    }

    /// Minimum smoothed loss over the run.
    pub fn best_smoothed(&self, window: usize) -> Option<f32> {
        let w = window.max(1);
        if self.points.len() < w {
            return self
                .points
                .iter()
                .map(|&(_, l)| l)
                .fold(None, |acc: Option<f32>, l| {
                    Some(acc.map_or(l, |a| a.min(l)))
                });
        }
        let losses: Vec<f32> = self.points.iter().map(|&(_, l)| l).collect();
        losses
            .windows(w)
            .map(|win| win.iter().sum::<f32>() / w as f32)
            .fold(None, |acc: Option<f32>, v| {
                Some(acc.map_or(v, |a| a.min(v)))
            })
    }
}

/// A training run's trace, shared by both training drivers: the handle,
/// the block names the health sentinel attributes to, the elements one
/// all-reduce reduces and a group's minibatch.
pub(crate) struct TrainTrace {
    pub(crate) tr: TraceHandle,
    pub(crate) names: Vec<String>,
    elems: u64,
    batch: u64,
}

impl TrainTrace {
    /// Begins trace run `label` (a no-op trace when no sink is installed).
    pub(crate) fn begin(label: &'static str, model: &impl Model, elems: u64, batch: usize) -> Self {
        let names = model
            .param_blocks()
            .iter()
            .map(|b| b.name.clone())
            .collect();
        Self {
            tr: TraceHandle::begin(label),
            names,
            elems,
            batch: batch as u64,
        }
    }

    /// One training iteration's trace, whichever driver ran it: its
    /// `Iteration` span, a span per non-zero part of `t` laid end to end
    /// on lane `t.group` (`Overlap`, one bucket per block, ends where the
    /// compute does), and its `train` row. `wire` is what the all-reduce
    /// and PS legs carried.
    pub(crate) fn iteration(&self, t: &IterBreakdown, loss: f32, wire: [u64; 2]) {
        if !self.tr.enabled() {
            return;
        }
        let (group, iter, staleness, hidden_s) =
            (t.group as u64, t.iter as u64, t.staleness, t.hidden);
        let computed = t.start + (t.compute + t.straggler);
        let factor = (t.compute + t.straggler) / t.compute;
        let (elems, buckets) = (self.elems, self.names.len() as u64);
        for (at, secs, kind) in [
            (
                t.start,
                t.end - t.start,
                EventKind::Iteration { group, iter },
            ),
            (t.start, t.compute, EventKind::Compute { group, iter }),
            (
                t.start + t.compute,
                t.straggler,
                EventKind::Straggler { group, factor },
            ),
            (
                computed,
                t.allreduce,
                EventKind::Allreduce {
                    elems,
                    bytes: wire[0],
                },
            ),
            (
                computed - t.hidden,
                t.hidden,
                EventKind::Overlap { buckets, hidden_s },
            ),
            (
                computed + t.allreduce,
                t.ps,
                EventKind::PsExchange {
                    group,
                    staleness,
                    bytes: wire[1],
                },
            ),
            (
                t.end - t.checkpoint,
                t.checkpoint,
                EventKind::Checkpoint {
                    iter: iter + 1,
                    bytes: 4 * elems,
                },
            ),
        ] {
            if secs > 0.0 {
                self.tr.event_at(group, at, secs, kind);
            }
        }
        self.tr.row(IterRow {
            kind: "train",
            track: group,
            iter,
            start_s: t.start,
            compute_s: t.compute + t.straggler,
            comm_s: t.allreduce,
            ps_s: t.ps,
            staleness,
            loss: loss as f64,
            batch: self.batch,
            ..IterRow::default() // `run` is filled in by the handle
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(points: &[(f64, f32)]) -> LossCurve {
        let mut c = LossCurve::new();
        for &(t, l) in points {
            c.push(t, l);
        }
        c
    }

    #[test]
    fn time_to_loss_finds_first_crossing() {
        let c = curve(&[(0.0, 1.0), (1.0, 0.5), (2.0, 0.04), (3.0, 0.03)]);
        assert_eq!(c.time_to_loss(0.05, 1), Some(2.0));
        assert_eq!(c.time_to_loss(0.001, 1), None);
    }

    #[test]
    fn smoothing_ignores_transient_dips() {
        // A single noisy dip at t=1 must not count with window 3.
        let c = curve(&[
            (0.0, 1.0),
            (1.0, 0.01),
            (2.0, 1.0),
            (3.0, 0.04),
            (4.0, 0.04),
            (5.0, 0.04),
        ]);
        assert_eq!(c.time_to_loss(0.05, 3), Some(5.0));
        assert_eq!(c.time_to_loss(0.05, 1), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn rejects_nonmonotone_time() {
        let mut c = LossCurve::new();
        c.push(1.0, 0.5);
        c.push(0.5, 0.4);
    }

    #[test]
    fn best_smoothed_handles_short_curves() {
        let c = curve(&[(0.0, 0.8), (1.0, 0.6)]);
        assert_eq!(c.best_smoothed(5), Some(0.6));
        let c2 = curve(&[(0.0, 1.0), (1.0, 0.5), (2.0, 0.7), (3.0, 0.2)]);
        // Window-2 means: (0.75, 0.6, 0.45) → min 0.45.
        assert!((c2.best_smoothed(2).unwrap() - 0.45).abs() < 1e-6);
    }
}
