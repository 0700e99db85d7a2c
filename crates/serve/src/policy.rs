//! The serving policy core: every serving *decision* as a pure function
//! or a tiny state machine — no clock, no lock, no trace, no I/O.
//!
//! Two drivers call into this module and nothing else decides: the
//! **threaded driver** ([`crate::server`], [`crate::registry`],
//! [`crate::fleet::Router`]) feeds it `Instant`-derived numbers and
//! atomics read under its own locks; the **virtual-time driver**
//! ([`crate::sim`], [`crate::fleet::simulate_fleet`]) feeds it calendar
//! times. "Threads and sim take the same decision on the same inputs"
//! therefore holds by construction; the differential suites test the
//! drivers, and the table tests below pin the arithmetic once.

use crate::queue::BatchPolicy;
use scidl_cluster::faults::FaultPlan;
use scidl_tensor::stats::percentile;
use std::ops::Add;
use std::time::Duration;

const SALT_PRIORITY: u64 = 0x9E37_79B9_7F4A_7C15;
const SALT_CANARY: u64 = 0xD1B5_4A32_D192_ED03;
const SALT_P2C_A: u64 = 0xA076_1D64_78BD_642F;
const SALT_P2C_B: u64 = 0xE703_7ED1_A0B4_28DB;

pub(crate) fn xorshift64(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Deterministic uniform draw in `[0, 1)` from `(seed, salt, ordinal)`.
/// Every routing draw of request `ordinal` goes through this, so a
/// shared seed yields identical decisions in both drivers.
fn rand01(seed: u64, salt: u64, ordinal: u64) -> f64 {
    let mut x = seed.wrapping_mul(0x2545_F491_4F6C_DD1D)
        ^ salt
        ^ ordinal.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if x == 0 {
        x = salt | 1;
    }
    x = xorshift64(xorshift64(xorshift64(x)));
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Whether request `ordinal` rides the canary arm at traffic `fraction`.
pub(crate) fn canary_draw(seed: u64, ordinal: u64, fraction: f64) -> bool {
    rand01(seed, SALT_CANARY, ordinal) < fraction
}

/// The priority class ([`Priority::index`]) the seeded draw assigns to
/// request `ordinal` under relative class weights `mix`.
pub(crate) fn priority_draw(seed: u64, ordinal: u64, mix: [f64; 3]) -> usize {
    let draw = rand01(seed, SALT_PRIORITY, ordinal) * mix.iter().sum::<f64>();
    if draw < mix[0] {
        0
    } else if draw < mix[0] + mix[1] {
        1
    } else {
        2
    }
}

/// How the router picks a replica for an admitted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Cycle through live replicas in order, ignoring load.
    RoundRobin,
    /// Scan every live replica and pick the shallowest queue
    /// (ties break toward the lowest replica id).
    LeastLoaded,
    /// Sample two replicas with the seeded RNG and pick the shallower —
    /// near-least-loaded balance at O(1) probe cost.
    PowerOfTwoChoices,
}

impl DispatchPolicy {
    /// Stable name used in traces and benchmark CSV rows.
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastLoaded => "least-loaded",
            DispatchPolicy::PowerOfTwoChoices => "p2c",
        }
    }

    /// Picks one of `n ≥ 1` candidates, listed in ascending replica-id
    /// order, for request `ordinal`. `turn` is the caller's round-robin
    /// counter (one tick per pick); `depth(i)` probes candidate `i`'s
    /// queue depth and is called only as often as the policy needs.
    pub fn pick(
        self,
        seed: u64,
        ordinal: u64,
        turn: usize,
        n: usize,
        depth: impl Fn(usize) -> usize,
    ) -> usize {
        let probe = |salt| ((rand01(seed, salt, ordinal) * n as f64) as usize).min(n - 1);
        match self {
            DispatchPolicy::RoundRobin => turn % n,
            // `min_by_key` keeps the first minimum: the lowest id.
            DispatchPolicy::LeastLoaded => (0..n).min_by_key(|&i| depth(i)).expect("n >= 1"),
            DispatchPolicy::PowerOfTwoChoices => {
                let (a, b) = (probe(SALT_P2C_A), probe(SALT_P2C_B));
                if depth(b) < depth(a) {
                    b
                } else {
                    a
                }
            }
        }
    }
}

/// Fleet-level request priority class. Lower classes shed earlier under
/// overload (see [`PriorityAdmission`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    /// User-facing traffic: sheds only when the whole fleet is full.
    Interactive,
    /// Default class.
    Standard,
    /// Offline / bulk traffic: first to shed.
    Batch,
}

impl Priority {
    /// Index into per-class arrays (`Interactive = 0 … Batch = 2`).
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Batch => 2,
        }
    }
}

/// Fleet-wide admission thresholds by priority class.
///
/// A class-`p` request is shed when the aggregate fleet backlog has
/// reached `shed_frac[p]` of the fleet's total shed headroom
/// (`live_replicas × per-replica watermark`). `shed_frac[0] = 1.0`
/// means interactive traffic only sheds when every replica is at its
/// own watermark.
#[derive(Clone, Copy, Debug)]
pub struct PriorityAdmission {
    /// Backlog fraction, per [`Priority::index`], at which the class
    /// sheds. Each entry must be in `(0, 1]`.
    pub shed_frac: [f64; 3],
}

impl Default for PriorityAdmission {
    fn default() -> Self {
        Self {
            shed_frac: [1.0, 0.7, 0.45],
        }
    }
}

impl PriorityAdmission {
    /// Whether a request of priority `class` (a [`Priority::index`]) is
    /// shed at fleet `backlog` over `live` replicas of per-replica
    /// `watermark`.
    pub fn sheds(&self, class: usize, backlog: usize, live: usize, watermark: usize) -> bool {
        backlog as f64 >= self.shed_frac[class] * (live * watermark) as f64
    }
}

/// The queue depth at which a replica sheds: the configured watermark,
/// never above the physical capacity.
pub(crate) fn effective_watermark(shed_watermark: Option<usize>, capacity: usize) -> usize {
    shed_watermark.unwrap_or(capacity).min(capacity)
}

/// Retry-after hint for a request shed at queue `depth`: the time that
/// backlog needs to drain through the batch former, assuming full
/// batches at the configured deadline cadence.
pub(crate) fn retry_after(policy: &BatchPolicy, depth: usize) -> Duration {
    let batches = depth.div_ceil(policy.max_batch.max(1)).max(1) as u32;
    policy
        .max_delay
        .max(Duration::from_millis(1))
        .saturating_mul(batches)
}

/// The batch former's trigger, for either clock: a queue of `len ≥ 1`
/// requests whose `i`-th (oldest first) arrived at `arrived(i)` forms a
/// batch once `max_batch` are waiting — at the `max_batch`-th arrival —
/// or once the head has waited `max_delay`, whichever comes first.
pub(crate) fn batch_trigger<T: Add<D, Output = T>, D>(
    len: usize,
    max_batch: usize,
    max_delay: D,
    arrived: impl Fn(usize) -> T,
) -> T {
    if len >= max_batch {
        arrived(max_batch - 1)
    } else {
        arrived(0) + max_delay
    }
}

/// The batch former's expiry rule, for either clock: a queued request
/// with a `deadline` has lapsed at `now` once the deadline is not after it.
pub(crate) fn lapsed<T: PartialOrd>(deadline: Option<T>, now: T) -> bool {
    deadline.is_some_and(|d| d <= now)
}

/// What one batch dispatch meets under its replica's chaos plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Dispatch {
    /// The dispatching slot's served-batch ordinal: the index its slow
    /// windows are read at.
    pub(crate) batch: u64,
    /// Compute-time multiplier of the batch (`1.0` = healthy).
    pub(crate) slow: f64,
    /// `Some(respawn_secs)` when the slot dies holding the batch.
    pub(crate) crash: Option<f64>,
}

/// One replica's crash-and-straggler schedule, for either clock: the
/// replica's dispatch ordinal (which a [`WorkerCrash`] counts), each
/// crash's fired flag (a respawned slot must not re-crash on the same
/// event forever) and each slot's count of served batches (which a
/// [`SlowWorker`] window counts, across respawns and replacements).
/// `sim::Replica` owns one; a `Server`'s workers share one behind a
/// mutex.
///
/// [`WorkerCrash`]: scidl_cluster::faults::WorkerCrash
/// [`SlowWorker`]: scidl_cluster::faults::SlowWorker
#[derive(Debug, PartialEq)]
pub(crate) struct DispatchSchedule {
    /// The replica-local plan: its worker indices are slots.
    plan: FaultPlan,
    /// Batches dispatched by any slot, crashed ones included.
    dispatched: u64,
    /// One flag per crash of `plan`.
    fired: Vec<bool>,
    /// Batches each slot served; a crashed dispatch does not count.
    served: Vec<u64>,
}

impl DispatchSchedule {
    /// The schedule of replica `replica` of `workers` slots under `plan`,
    /// whose worker indices are global (replica `r` owns
    /// `[r·workers, (r+1)·workers)`; a lone server is replica 0).
    pub(crate) fn new(plan: &FaultPlan, replica: usize, workers: usize) -> Self {
        let plan = plan.for_replica(replica, workers);
        let fired = vec![false; plan.worker_crashes.len()];
        Self {
            plan,
            dispatched: 0,
            fired,
            served: vec![0; workers],
        }
    }

    /// Decides the replica's next dispatch, by `slot`: the slow factor of
    /// the slot's next batch and whether the first unfired crash due by
    /// this ordinal strikes it. Only a dispatch that does not crash
    /// moves the slot's count.
    pub(crate) fn dispatch(&mut self, slot: usize) -> Dispatch {
        let batch = self.served[slot];
        let slow = self.plan.slow_worker_factor(slot, batch);
        let ordinal = self.dispatched;
        self.dispatched += 1;
        let crash = (self.plan.worker_crashes.iter().zip(&mut self.fired))
            .find(|(c, fired)| ordinal >= c.after_batches && !**fired)
            .map(|(c, fired)| {
                *fired = true;
                c.respawn_secs
            });
        if crash.is_none() {
            self.served[slot] += 1;
        }
        Dispatch { batch, slow, crash }
    }
}

/// What happens to a request whose worker died holding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Recovery {
    /// Back to the head of the same replica's queue.
    Requeue,
    /// Re-queue budget spent: hand it to a sibling replica.
    Reroute,
    /// Both budgets spent: the request is abandoned.
    Lost,
}

impl Recovery {
    /// Disposition of a request that has now lost its worker `attempts`
    /// times on this replica and has been rerouted `reroutes` times.
    pub(crate) fn after_crash(
        attempts: u32,
        max_requeues: u32,
        reroutes: u32,
        reroute_budget: u32,
    ) -> Self {
        if attempts <= max_requeues {
            Recovery::Requeue
        } else if reroutes < reroute_budget {
            Recovery::Reroute
        } else {
            Recovery::Lost
        }
    }
}

/// Consecutive-failure circuit breaker over model rollouts (guarded
/// swaps and canary verdicts). The owner supplies the threshold and any
/// locking.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Breaker {
    /// Consecutive failures since the last success or reset.
    pub(crate) failures: u32,
    /// Whether the breaker is refusing rollouts.
    pub(crate) open: bool,
}

impl Breaker {
    /// Charges one failure; returns `true` when this one opened the
    /// breaker (the streak reached `threshold`).
    pub(crate) fn fail(&mut self, threshold: u32) -> bool {
        self.failures += 1;
        let opened = !self.open && self.failures >= threshold;
        self.open |= opened;
        opened
    }

    /// A healthy rollout clears the streak.
    pub(crate) fn succeed(&mut self) {
        self.failures = 0;
    }

    /// Operator reset: closes the breaker and clears the streak.
    /// Returns whether it was open.
    pub(crate) fn reset(&mut self) -> bool {
        std::mem::take(self).open
    }
}

/// Fleet-sizing policy of the virtual-time autoscaler
/// ([`crate::fleet::SimAutoscaler`]): a replica band, a utilisation
/// target and the backlog guard on shrinking.
#[derive(Clone, Copy, Debug)]
pub struct ScalingBand {
    /// Lower bound on live replicas.
    pub min_replicas: usize,
    /// Upper bound on live replicas.
    pub max_replicas: usize,
    /// Target utilisation of the per-replica sustainable rate; desired
    /// size is `ceil(rate / (replica_rate × target_util))`.
    pub target_util: f64,
    /// Scale-down only when the fleet backlog is at most this many
    /// requests per live replica (don't shrink into a backlog).
    pub scale_down_backlog: usize,
}

impl Default for ScalingBand {
    fn default() -> Self {
        Self {
            min_replicas: 1,
            max_replicas: 8,
            target_util: 0.7,
            scale_down_backlog: 2,
        }
    }
}

/// One autoscaler step: at most one replica either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ScaleStep {
    /// Start one replica.
    Up,
    /// Drain one replica (see [`scale_down_victim`]).
    Down,
    /// Leave the fleet as it is.
    Hold,
}

impl ScalingBand {
    /// Band-clamped fleet size for arrival `rate` (req/s) against
    /// `replica_rate` (req/s one replica sustains).
    pub(crate) fn desired_replicas(&self, rate: f64, replica_rate: f64) -> usize {
        let desired = ((rate / (replica_rate * self.target_util)).ceil() as usize).max(1);
        desired.clamp(self.min_replicas, self.max_replicas)
    }

    /// The step from `live` replicas toward `desired`, shrinking only
    /// above the floor and only when `backlog` is quiet.
    pub(crate) fn step(&self, desired: usize, live: usize, backlog: usize) -> ScaleStep {
        if desired > live {
            ScaleStep::Up
        } else if desired < live
            && live > self.min_replicas
            && backlog <= self.scale_down_backlog * live
        {
            ScaleStep::Down
        } else {
            ScaleStep::Hold
        }
    }
}

/// The replica a scale-down drains, from `(queue depth, replica id)`
/// pairs: the shallowest queue, ties toward the youngest replica.
pub(crate) fn scale_down_victim(replicas: impl Iterator<Item = (usize, usize)>) -> Option<usize> {
    replicas
        .min_by_key(|&(depth, id)| (depth, std::cmp::Reverse(id)))
        .map(|(_, id)| id)
}

/// Canary rollout policy of the virtual-time fleet
/// ([`crate::fleet::SimCanary`]).
#[derive(Clone, Copy, Debug)]
pub struct CanaryGate {
    /// Fraction of admitted traffic routed to the canary replica.
    pub fraction: f64,
    /// Promote iff `canary_p99 ≤ base_p99 × (1 + regression_tol)`.
    pub regression_tol: f64,
}

impl Default for CanaryGate {
    fn default() -> Self {
        Self {
            fraction: 0.2,
            regression_tol: 0.25,
        }
    }
}

impl CanaryGate {
    /// Whether to promote, from the two arms' served latencies: an arm
    /// that served nothing rolls the canary back.
    pub(crate) fn verdict(&self, base: &[f64], canary: &[f64]) -> bool {
        !base.is_empty()
            && !canary.is_empty()
            && percentile(canary, 0.99) <= percentile(base, 0.99) * (1.0 + self.regression_tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_pick_table() {
        use DispatchPolicy::*;
        let depths = [5usize, 2, 2, 9];
        let d = |i: usize| depths[i];
        for turn in 0..9 {
            assert_eq!(RoundRobin.pick(1, 0, turn, 4, d), turn % 4);
        }
        assert_eq!(
            LeastLoaded.pick(1, 0, 0, 4, d),
            1,
            "ties break toward the lowest id"
        );
        assert_eq!(LeastLoaded.pick(1, 0, 0, 1, d), 0);
        // p2c: both probes are in range, the pick is one of them and
        // never the deeper, and the draw is a pure function of
        // (seed, ordinal) — the property that lets both drivers share a
        // decision stream.
        for ordinal in 0..500u64 {
            let (a, b) = (
                ((rand01(7, SALT_P2C_A, ordinal) * 4.0) as usize).min(3),
                ((rand01(7, SALT_P2C_B, ordinal) * 4.0) as usize).min(3),
            );
            let got = PowerOfTwoChoices.pick(7, ordinal, 0, 4, d);
            assert!(got == a || got == b);
            assert_eq!(depths[got], depths[a].min(depths[b]));
            assert_eq!(got, PowerOfTwoChoices.pick(7, ordinal, 99, 4, d));
        }
        assert_eq!(PowerOfTwoChoices.pick(7, 3, 0, 1, d), 0);
        // Equal depths keep the first probe.
        let flat = |_| 3usize;
        for ordinal in 0..50u64 {
            let a = ((rand01(9, SALT_P2C_A, ordinal) * 3.0) as usize).min(2);
            assert_eq!(PowerOfTwoChoices.pick(9, ordinal, 0, 3, flat), a);
        }
    }

    #[test]
    fn draws_are_uniform_enough_and_seed_sensitive() {
        let n = 4000u64;
        let hits = (0..n).filter(|&o| canary_draw(11, o, 0.25)).count() as f64 / n as f64;
        assert!((hits - 0.25).abs() < 0.03, "canary share {hits}");
        let mut classes = [0usize; 3];
        for o in 0..n {
            classes[priority_draw(11, o, [0.2, 0.5, 0.3])] += 1;
        }
        for (c, want) in classes.iter().zip([0.2, 0.5, 0.3]) {
            assert!((*c as f64 / n as f64 - want).abs() < 0.03, "{classes:?}");
        }
        assert_eq!(priority_draw(11, 5, [0.0, 1.0, 0.0]), 1);
        assert!((0..64).any(|o| canary_draw(1, o, 0.5) != canary_draw(2, o, 0.5)));
    }

    #[test]
    fn admission_table() {
        let a = PriorityAdmission::default();
        // 2 live replicas × watermark 10 = headroom 20.
        for (class, backlog, shed) in [
            (0, 19, false),
            (0, 20, true),
            (1, 13, false),
            (1, 14, true),
            (2, 8, false),
            (2, 9, true),
        ] {
            assert_eq!(
                a.sheds(class, backlog, 2, 10),
                shed,
                "class {class} backlog {backlog}"
            );
        }
        assert_eq!(effective_watermark(None, 64), 64);
        assert_eq!(effective_watermark(Some(8), 64), 8);
        assert_eq!(effective_watermark(Some(99), 64), 64);
        let p = BatchPolicy::dynamic(8, Duration::from_millis(10));
        for (depth, ms) in [(0, 10), (1, 10), (8, 10), (9, 20), (64, 80)] {
            assert_eq!(
                retry_after(&p, depth),
                Duration::from_millis(ms),
                "depth {depth}"
            );
        }
        assert_eq!(
            retry_after(&BatchPolicy::batch1(), 3),
            Duration::from_millis(3)
        );
    }

    #[test]
    fn batch_former_table() {
        let arrived = [0.0, 1.0, 2.0, 3.0];
        let at = |i: usize| arrived[i];
        assert_eq!(
            batch_trigger(4, 3, 10.0, at),
            2.0,
            "full: the max_batch-th arrival"
        );
        assert_eq!(
            batch_trigger(2, 3, 10.0, at),
            10.0,
            "partial: head + max_delay"
        );
        assert_eq!(
            batch_trigger(1, 1, 10.0, at),
            0.0,
            "max_batch 1 never waits"
        );
        assert!(lapsed(Some(5.0), 5.0), "a deadline at now has lapsed");
        assert!(!lapsed(Some(5.0), 4.9));
        assert!(!lapsed(None, f64::INFINITY), "no deadline never lapses");
    }

    #[test]
    fn recovery_table() {
        use Recovery::*;
        for (attempts, max_requeues, reroutes, budget, want) in [
            (1, 2, 0, 0, Requeue),
            (2, 2, 0, 0, Requeue),
            (3, 2, 0, 0, Lost),
            (1, 0, 0, 1, Reroute),
            (1, 0, 1, 1, Lost),
            (3, 2, 1, 2, Reroute),
            (3, 2, 2, 2, Lost),
        ] {
            assert_eq!(
                Recovery::after_crash(attempts, max_requeues, reroutes, budget),
                want,
                "({attempts}, {max_requeues}, {reroutes}, {budget})"
            );
        }
    }

    #[test]
    fn dispatch_schedule_table() {
        let d = |batch, slow, crash| Dispatch { batch, slow, crash };
        let run = |mut s: DispatchSchedule, slots: &[usize]| {
            slots
                .iter()
                .map(|&slot| s.dispatch(slot))
                .collect::<Vec<_>>()
        };
        // Crash at replica ordinal 2, slot 0 slow over its served batches
        // [2, 3): the crashed dispatch does not count, so the respawned
        // slot's first batch is still slot batch 2, the 3rd served.
        let plan = FaultPlan::none()
            .with_worker_crash(0, 2, 0.5)
            .with_slow_worker(0, 2, 3, 40.0);
        assert_eq!(
            run(DispatchSchedule::new(&plan, 0, 1), &[0; 5]),
            [
                d(0, 1.0, None),
                d(1, 1.0, None),
                d(2, 40.0, Some(0.5)),
                d(2, 40.0, None),
                d(3, 1.0, None),
            ]
        );
        // A heartbeat replacement dispatches on the stuck batch's slot and
        // continues its count: the stuck batch is slot batch 1, the
        // replacement's first is slot batch 2 and healthy.
        let plan = FaultPlan::none().with_slow_worker(0, 1, 2, 3000.0);
        assert_eq!(
            run(DispatchSchedule::new(&plan, 0, 1), &[0; 3]),
            [d(0, 1.0, None), d(1, 3000.0, None), d(2, 1.0, None),]
        );
        // Two crashes due at ordinal 0 fire on consecutive dispatches, in
        // plan order, each once.
        let plan = FaultPlan::none()
            .with_worker_crash(0, 0, 0.1)
            .with_worker_crash(0, 0, 0.2);
        assert_eq!(
            run(DispatchSchedule::new(&plan, 0, 1), &[0; 3]),
            [d(0, 1.0, Some(0.1)), d(0, 1.0, Some(0.2)), d(0, 1.0, None),]
        );
        // Global worker indices: replica 1 of 2 slots owns workers 2 and 3;
        // the crash counts the replica's dispatches, the slow window the
        // slot's, and worker 0's window belongs to replica 0.
        let plan = FaultPlan::none()
            .with_worker_crash(3, 1, 0.0)
            .with_slow_worker(2, 0, 2, 3.0)
            .with_slow_worker(0, 0, 9, 7.0);
        assert_eq!(
            run(DispatchSchedule::new(&plan, 1, 2), &[0, 1, 0, 1, 0]),
            [
                d(0, 3.0, None),
                d(0, 1.0, Some(0.0)),
                d(1, 3.0, None),
                d(0, 1.0, None),
                d(2, 1.0, None),
            ]
        );
    }

    #[test]
    fn breaker_threshold_reset_and_success() {
        let mut b = Breaker::default();
        assert!(!b.fail(3) && !b.fail(3) && !b.open);
        assert!(b.fail(3), "the third consecutive failure opens");
        assert!(b.open && b.failures == 3);
        assert!(!b.fail(3), "an open breaker does not re-open");
        assert_eq!(b.failures, 4);
        assert!(b.reset(), "reset reports it was open");
        assert!(!b.open && b.failures == 0);
        assert!(!b.reset());
        // A success between failures restarts the streak.
        assert!(!b.fail(2));
        b.succeed();
        assert!(!b.fail(2) && !b.open);
        assert!(b.fail(2));
        // Success clears the streak but never closes an open breaker.
        b.succeed();
        assert!(b.open && b.failures == 0);
        assert!(
            Breaker::default().fail(1),
            "threshold 1 opens on the first failure"
        );
    }

    #[test]
    fn autoscaler_table() {
        let band = ScalingBand {
            min_replicas: 1,
            max_replicas: 4,
            target_util: 0.5,
            scale_down_backlog: 2,
        };
        // replica_rate 100 at 50 % target: 50 req/s per replica.
        for (rate, want) in [(0.0, 1), (50.0, 1), (50.1, 2), (149.0, 3), (1e6, 4)] {
            assert_eq!(band.desired_replicas(rate, 100.0), want, "rate {rate}");
        }
        let floor = ScalingBand {
            min_replicas: 2,
            ..band
        };
        assert_eq!(floor.desired_replicas(0.0, 100.0), 2);
        for (desired, live, backlog, want) in [
            (3, 2, 0, ScaleStep::Up),
            (2, 2, 0, ScaleStep::Hold),
            (1, 2, 4, ScaleStep::Down),
            (1, 2, 5, ScaleStep::Hold),
            (1, 1, 0, ScaleStep::Hold),
        ] {
            assert_eq!(
                band.step(desired, live, backlog),
                want,
                "{desired} {live} {backlog}"
            );
        }
        assert_eq!(
            floor.step(2, 2, 0),
            ScaleStep::Hold,
            "never below the floor"
        );
        assert_eq!(
            scale_down_victim([(3, 0), (1, 1), (1, 2)].into_iter()),
            Some(2)
        );
        assert_eq!(scale_down_victim([(0, 0), (1, 5)].into_iter()), Some(0));
        assert_eq!(scale_down_victim(std::iter::empty()), None);
    }

    #[test]
    fn canary_verdict_table() {
        let gate = CanaryGate {
            fraction: 0.2,
            regression_tol: 0.25,
        };
        let base = [1.0; 10];
        assert!(gate.verdict(&base, &[1.25; 10]));
        assert!(!gate.verdict(&base, &[1.26; 10]));
        assert!(!gate.verdict(&base, &[]), "an empty arm rolls back");
        assert!(!gate.verdict(&[], &[1.0]), "an empty arm rolls back");
        assert!(!gate.verdict(&base[..1], &[9.0]));
    }
}
