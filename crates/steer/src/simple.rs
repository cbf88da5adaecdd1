//! The trivial hardware policies: `one-cluster` and the static-assignment
//! follower used by the software-only configurations (OB/SPDI and RHOP).

use virtclust_sim::{SteerDecision, SteerView, SteeringPolicy};
use virtclust_uarch::DynUop;

/// The paper's `one-cluster` configuration: *"Every instruction goes to one
/// cluster."* Zero communication, worst-possible balance — the lower bound
/// that shows how much the `OP` baseline gains from clustering at all.
#[derive(Debug, Clone, Default)]
pub struct OneCluster;

impl OneCluster {
    /// Create the policy.
    pub fn new() -> Self {
        OneCluster
    }
}

impl SteeringPolicy for OneCluster {
    fn name(&self) -> String {
        "one-cluster".into()
    }

    fn steer(&mut self, _uop: &DynUop, _view: &SteerView<'_>) -> SteerDecision {
        SteerDecision::Cluster(0)
    }

    fn steer_is_pure(&self) -> bool {
        true
    }
}

/// Hardware side of the **software-only** schemes (`OB` = SPDI static
/// placement / dynamic issue, and `RHOP`): the compiler bound every static
/// instruction to a physical cluster; the hardware merely obeys
/// (`SteerHint::Static`), performing no dependence checking and no voting.
///
/// Micro-ops without a static hint (possible if a region was never compiled)
/// fall back to cluster 0 and are counted in
/// [`StaticFollow::unannotated`].
///
/// The decision is a pure function of `(uop, view)`, and the hint-less
/// counter is a per-micro-op-idempotent cursor (each distinct `uop.seq` is
/// counted once no matter how many times the simulator consults the policy
/// for it), so the policy declares
/// [`SteeringPolicy::steer_is_pure`] — which is what lets the simulator
/// skip OB/RHOP dispatch-stall spans instead of re-steering every stalled
/// cycle.
#[derive(Debug, Clone, Default)]
pub struct StaticFollow {
    unannotated: u64,
    /// Sequence number of the last hint-less micro-op counted — the cursor
    /// that makes the count idempotent per micro-op. Re-steers of a
    /// stalled front micro-op and idle-span probe calls repeat the same
    /// `uop.seq`, and the dispatch pipeline only ever revisits the
    /// *current* front micro-op, so one slot suffices.
    last_unannotated: Option<u64>,
}

impl StaticFollow {
    /// Create the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct micro-ops seen without a static-cluster annotation.
    pub fn unannotated(&self) -> u64 {
        self.unannotated
    }
}

impl SteeringPolicy for StaticFollow {
    fn name(&self) -> String {
        "static-follow".into()
    }

    fn steer(&mut self, uop: &DynUop, view: &SteerView<'_>) -> SteerDecision {
        match uop.hint.static_cluster() {
            Some(c) => SteerDecision::Cluster(c % view.num_clusters() as u8),
            None => {
                if self.last_unannotated != Some(uop.seq) {
                    self.unannotated += 1;
                    self.last_unannotated = Some(uop.seq);
                }
                SteerDecision::Cluster(0)
            }
        }
    }

    fn reset(&mut self) {
        self.unannotated = 0;
        self.last_unannotated = None;
    }

    fn steer_is_pure(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtclust_sim::{RunLimits, SimSession};
    use virtclust_uarch::{ArchReg, MachineConfig, RegionBuilder, SliceTrace, SteerHint};

    fn r(i: u8) -> ArchReg {
        ArchReg::int(i)
    }

    #[test]
    fn one_cluster_uses_only_cluster_zero() {
        let region = RegionBuilder::new(0, "t")
            .alu(r(1), &[r(1)])
            .alu(r(2), &[r(1)])
            .build();
        let mut uops = Vec::new();
        let mut seq = 0;
        for _ in 0..50 {
            seq = virtclust_uarch::trace::expand_region(
                &region,
                seq,
                &mut uops,
                |_, _| 0,
                |_, _| true,
            );
        }
        let mut trace = SliceTrace::new(&uops);
        let stats = SimSession::new(&MachineConfig::default()).run(
            &mut trace,
            &mut OneCluster::new(),
            &RunLimits::unlimited(),
        );
        assert_eq!(stats.copies_generated, 0);
        assert_eq!(stats.clusters[1].dispatched, 0);
        assert_eq!(stats.clusters[0].dispatched, 100);
    }

    #[test]
    fn static_follow_obeys_annotations() {
        let mut region = RegionBuilder::new(0, "t")
            .alu(r(1), &[r(1)])
            .alu(r(2), &[r(2)])
            .build();
        region.insts[0].hint = SteerHint::Static { cluster: 1 };
        region.insts[1].hint = SteerHint::Static { cluster: 0 };
        let mut uops = Vec::new();
        let mut seq = 0;
        for _ in 0..30 {
            seq = virtclust_uarch::trace::expand_region(
                &region,
                seq,
                &mut uops,
                |_, _| 0,
                |_, _| true,
            );
        }
        let mut trace = SliceTrace::new(&uops);
        let mut policy = StaticFollow::new();
        let stats = SimSession::new(&MachineConfig::default()).run(
            &mut trace,
            &mut policy,
            &RunLimits::unlimited(),
        );
        assert_eq!(stats.clusters[1].dispatched, 30);
        assert_eq!(stats.clusters[0].dispatched, 30);
        assert_eq!(policy.unannotated(), 0);
    }

    #[test]
    fn static_follow_counts_missing_hints_and_falls_back() {
        let region = RegionBuilder::new(0, "bare").alu(r(1), &[r(1)]).build();
        let mut uops = Vec::new();
        virtclust_uarch::trace::expand_region(&region, 0, &mut uops, |_, _| 0, |_, _| true);
        let mut trace = SliceTrace::new(&uops);
        let mut policy = StaticFollow::new();
        let stats = SimSession::new(&MachineConfig::default()).run(
            &mut trace,
            &mut policy,
            &RunLimits::unlimited(),
        );
        assert_eq!(stats.clusters[0].dispatched, 1);
        assert_eq!(policy.unannotated(), 1);
    }

    #[test]
    fn static_follow_clamps_out_of_range_clusters() {
        let mut region = RegionBuilder::new(0, "t").alu(r(1), &[r(1)]).build();
        region.insts[0].hint = SteerHint::Static { cluster: 7 }; // 2-cluster machine
        let mut uops = Vec::new();
        virtclust_uarch::trace::expand_region(&region, 0, &mut uops, |_, _| 0, |_, _| true);
        let mut trace = SliceTrace::new(&uops);
        let stats = SimSession::new(&MachineConfig::default()).run(
            &mut trace,
            &mut StaticFollow::new(),
            &RunLimits::unlimited(),
        );
        assert_eq!(stats.clusters[1].dispatched, 1, "7 % 2 == 1");
    }
}
