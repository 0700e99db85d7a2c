//! One group lifecycle for both training drivers (Sec. VIII-A).
//!
//! When a compute group dies, whether it rejoins and how stale its
//! updates are: [`GroupLifecycle`] decides each once, for `scidl-core`'s
//! thread engine and [`crate::sim`]'s clock alike. It holds no clock and
//! no lock; each driver acts on its answers in its own terms (sleeps, a
//! status word and a PS fetch in threads; scheduled events on the clock).

use crate::faults::{FaultPlan, Recovery};
use std::ops::Range;

/// What a group does before an iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Step {
    /// Run the iteration.
    Run,
    /// The group is lost for good.
    Stop,
    /// Sit out the MTTR, re-fetch the current model,
    /// [`GroupLifecycle::rejoin`], then run the iteration.
    Repair(Recovery),
}

/// One group's scheduled deaths, rejoin rule, whether it has come back
/// once and its last-seen parameter-server version.
#[derive(Clone, Debug)]
pub struct GroupLifecycle {
    crash_at: Option<usize>,
    node_lost_at: Option<usize>,
    /// The plan's recovery policy, if the group may rejoin.
    recovery: Option<Recovery>,
    recovered: bool,
    version: u64,
}

impl GroupLifecycle {
    /// `group`'s lifecycle under `plan`, watching the node crashes of
    /// `ranks` (a rank whose peers' deaths reach it as ring errors
    /// watches only itself). `rejoin`: whether a crashed group has state
    /// to come back to — the thread engine's PS bank always exists; on
    /// the clock only a hybrid run has one.
    pub fn new(plan: &FaultPlan, group: usize, ranks: Range<usize>, rejoin: bool) -> Self {
        let node_lost_at = (plan.node_crashes.iter())
            .filter(|c| c.group == group && ranks.contains(&c.rank))
            .map(|c| c.iteration)
            .min();
        let recovery = plan.recovery.filter(|_| rejoin);
        let crash_at = plan.group_crash_at(group);
        Self {
            crash_at,
            node_lost_at,
            recovery,
            recovered: false,
            version: 0,
        }
    }

    /// The decision before iteration `iter`. A lost node stops the group
    /// for good, recovery or not; the group crash fires once, so a group
    /// that came back is not re-killed by it.
    pub fn before(&self, iter: usize) -> Step {
        if self.node_lost_at.is_some_and(|k| iter >= k) {
            Step::Stop
        } else if !self.recovered && self.crash_at == Some(iter) {
            self.crash()
        } else {
            Step::Run
        }
    }

    /// The group crashes now (scheduled, or a random node failure).
    pub fn crash(&self) -> Step {
        self.recovery.map_or(Step::Stop, Step::Repair)
    }

    /// The repaired group is back with the model as of PS `version`
    /// (updates applied so far); its staleness counts from here.
    pub fn rejoin(&mut self, version: u64) {
        self.recovered = true;
        self.version = version;
    }

    /// Whether the group has come back from a crash.
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// The group's update was applied as PS `version` (this one
    /// included): its staleness, the updates applied since the group
    /// last synchronised.
    pub fn applied(&mut self, version: u64) -> u64 {
        let stale = version.saturating_sub(self.version + 1);
        self.version = version;
        stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_repairs_once_and_only_where_the_group_may_rejoin() {
        let plan = FaultPlan::none()
            .with_group_crash(1, 3)
            .with_recovery(2, 0.5);
        let rec = plan.recovery.unwrap();
        let mut life = GroupLifecycle::new(&plan, 1, 0..4, true);
        assert_eq!(life.before(2), Step::Run);
        assert_eq!(life.before(3), Step::Repair(rec));
        life.rejoin(7);
        assert!(life.recovered());
        assert_eq!(
            life.before(3),
            Step::Run,
            "the same crash does not fire twice"
        );
        let sync = GroupLifecycle::new(&plan, 1, 0..4, false);
        assert_eq!(sync.before(3), Step::Stop, "nothing to rejoin");
        assert_eq!(
            GroupLifecycle::new(&plan, 0, 0..4, true).before(3),
            Step::Run
        );
    }

    #[test]
    fn a_lost_node_stops_its_group_for_good_and_only_where_watched() {
        let plan = FaultPlan::none()
            .with_node_crash(0, 2, 4)
            .with_group_crash(0, 4)
            .with_recovery(1, 0.1);
        let life = GroupLifecycle::new(&plan, 0, 0..3, true);
        assert_eq!(life.before(3), Step::Run);
        assert_eq!(
            life.before(4),
            Step::Stop,
            "a node loss wins over the repair"
        );
        assert_eq!(life.before(9), Step::Stop);
        let other_rank = GroupLifecycle::new(&plan, 0, 1..2, true);
        assert!(
            matches!(other_rank.before(4), Step::Repair(_)),
            "rank 2 not watched"
        );
    }

    #[test]
    fn staleness_counts_updates_since_the_last_sync() {
        let mut life = GroupLifecycle::new(&FaultPlan::none(), 0, 0..1, true);
        assert_eq!(life.applied(1), 0);
        assert_eq!(life.applied(4), 2, "versions 2 and 3 landed in between");
        life.rejoin(10);
        assert_eq!(
            life.applied(12),
            1,
            "counted from the rejoin, not the crash"
        );
    }
}
