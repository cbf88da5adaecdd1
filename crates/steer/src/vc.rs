//! The hardware half of the paper's contribution: mapping virtual clusters
//! to physical clusters at run time (Fig. 4).
//!
//! *"The only hardware required is: (1) a set of counters that indicates the
//! distribution of instructions among clusters; and (2) a small table to
//! keep track of the mapping between virtual clusters and physical
//! clusters."*
//!
//! When a decoded micro-op carries the chain-leader mark, the workload
//! counters are consulted and the leader's virtual cluster is remapped to
//! the least-loaded physical cluster; all following non-leader micro-ops of
//! that virtual cluster look the mapping table up. No dependence checking,
//! no voting, no serialization — steering one micro-op never requires
//! knowing where the previous one went.

use virtclust_sim::{SteerDecision, SteerView, SteeringPolicy};
use virtclust_uarch::DynUop;

/// The virtual-cluster → physical-cluster mapper.
///
/// A leader's decision reads the mapping table, so it depends on call
/// history; but steering the same micro-op again with an unchanged view
/// returns the same cluster and rewrites the table entry with the value it
/// already holds, and the counters move once per micro-op (a sequence
/// cursor, as in [`StaticFollow`](crate::StaticFollow)). The mapper reads
/// no location view. That is what
/// [`SteeringPolicy::steer_is_pure`] asks for, so VC dispatch-stall spans
/// skip like the other schemes'.
#[derive(Debug, Clone)]
pub struct VcMapper {
    num_vcs: usize,
    table: Vec<Option<u8>>,
    remap_threshold: u32,
    remaps: u64,
    migrations: u64,
    unannotated: u64,
    /// Sequence number of the last micro-op counted. A stalled front
    /// micro-op is steered again with the same `uop.seq`, and only the
    /// current front is ever revisited, so one slot suffices.
    last_counted: Option<u64>,
}

impl VcMapper {
    /// Default remap hysteresis (in-flight micro-ops of advantage another
    /// cluster must show before a chain leader moves its VC). Without
    /// hysteresis, loop-carried chains ping-pong between clusters and every
    /// migration pays copies for the carried values — the mapping decision
    /// in the paper's Fig. 4 ("map to the less loaded cluster") needs this
    /// dead-band to be usable, and `bench`'s ablation sweeps it.
    pub const DEFAULT_REMAP_THRESHOLD: u32 = 12;

    /// Create a mapper for programs compiled with `num_vcs` virtual
    /// clusters. (The paper fixes this in hardware and exposes it to the
    /// compiler through the ISA; 2 VCs is the paper's best configuration on
    /// both 2- and 4-cluster machines.)
    pub fn new(num_vcs: usize) -> Self {
        Self::with_threshold(num_vcs, Self::DEFAULT_REMAP_THRESHOLD)
    }

    /// Create a mapper with an explicit remap hysteresis (0 = remap on
    /// every leader, the literal reading of Fig. 4).
    pub fn with_threshold(num_vcs: usize, remap_threshold: u32) -> Self {
        assert!(num_vcs >= 1, "need at least one virtual cluster");
        VcMapper {
            num_vcs,
            table: vec![None; num_vcs],
            remap_threshold,
            remaps: 0,
            migrations: 0,
            unannotated: 0,
            last_counted: None,
        }
    }

    /// How many leader decisions actually *moved* a VC to a different
    /// cluster (a subset of [`VcMapper::remaps`]).
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Number of virtual clusters (mapping-table entries).
    pub fn num_vcs(&self) -> usize {
        self.num_vcs
    }

    /// Distinct chain-leader micro-ops that updated the mapping table.
    pub fn remaps(&self) -> u64 {
        self.remaps
    }

    /// Distinct micro-ops seen without a VC annotation (treated as VC 0
    /// followers).
    pub fn unannotated(&self) -> u64 {
        self.unannotated
    }

    /// Default mapping before any leader updates an entry: VC `i` starts on
    /// physical cluster `i mod num_clusters`, the natural power-on state.
    fn default_map(&self, vc: usize, num_clusters: usize) -> u8 {
        (vc % num_clusters) as u8
    }
}

impl SteeringPolicy for VcMapper {
    fn name(&self) -> String {
        format!("VC({}→)", self.num_vcs)
    }

    fn steer(&mut self, uop: &DynUop, view: &SteerView<'_>) -> SteerDecision {
        let first_call = self.last_counted != Some(uop.seq);
        self.last_counted = Some(uop.seq);
        let (vc, leader) = match uop.hint {
            virtclust_uarch::SteerHint::Vc { vc, leader } => (vc as usize % self.num_vcs, leader),
            _ => {
                self.unannotated += u64::from(first_call);
                (0, false)
            }
        };
        if leader {
            // Fig. 4: on a chain leader, read the workload counters and map
            // this VC to the less loaded physical cluster. "Load" is judged
            // by what actually throttles a cluster — the occupancy of the
            // issue queue this chain will dispatch into — backed by the
            // in-flight counters; hysteresis keeps marginal imbalances from
            // migrating loop-carried chains (every migration pays copies
            // for the carried values).
            let kind = uop.op.queue();
            let n = view.num_clusters() as u8;
            let least = view.least_loaded();
            let target = (0..n)
                .min_by_key(|&c| (view.occupancy(c, kind), view.inflight(c), c))
                .expect("at least one cluster");
            let c = match self.table[vc] {
                Some(cur) => {
                    let congested = view.is_busy(cur, kind)
                        && view.occupancy(target, kind) < view.occupancy(cur, kind);
                    let imbalanced = view.inflight(cur)
                        > view.inflight(least).saturating_add(self.remap_threshold);
                    if congested || imbalanced {
                        if cur != target {
                            self.migrations += 1;
                        }
                        target
                    } else {
                        cur
                    }
                }
                None => target,
            };
            self.table[vc] = Some(c);
            self.remaps += u64::from(first_call);
            SteerDecision::Cluster(c)
        } else {
            let c = self.table[vc].unwrap_or_else(|| self.default_map(vc, view.num_clusters()));
            SteerDecision::Cluster(c)
        }
    }

    fn reset(&mut self) {
        self.table = vec![None; self.num_vcs];
        self.remaps = 0;
        self.migrations = 0;
        self.unannotated = 0;
        self.last_counted = None;
    }

    // A repeat call with an unchanged view finds the table entry its first
    // call wrote: that entry is the least-occupied cluster or one no
    // remap condition moves off, so the decision and the entry hold, and
    // a migration counts only when the entry changes.
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

    /// Two independent chains annotated as two VCs, leaders at iteration
    /// heads. The mapper must put them on different clusters (balance) and
    /// keep each chain internally copy-free.
    fn two_chain_region() -> virtclust_uarch::Region {
        let mut region = RegionBuilder::new(0, "2vc")
            .alu(r(1), &[r(1)]) // VC0 leader
            .alu(r(2), &[r(2)]) // VC1 leader
            .alu(r(1), &[r(1)]) // VC0
            .alu(r(2), &[r(2)]) // VC1
            .build();
        region.insts[0].hint = SteerHint::Vc {
            vc: 0,
            leader: true,
        };
        region.insts[1].hint = SteerHint::Vc {
            vc: 1,
            leader: true,
        };
        region.insts[2].hint = SteerHint::Vc {
            vc: 0,
            leader: false,
        };
        region.insts[3].hint = SteerHint::Vc {
            vc: 1,
            leader: false,
        };
        region
    }

    #[test]
    fn followers_obey_their_leaders_mapping() {
        let region = two_chain_region();
        let mut uops = Vec::new();
        let mut seq = 0;
        for _ in 0..100 {
            seq = virtclust_uarch::trace::expand_region(
                &region,
                seq,
                &mut uops,
                |_, _| 0,
                |_, _| true,
            );
        }
        let mut trace = SliceTrace::new(&uops);
        let mut policy = VcMapper::new(2);
        let stats = SimSession::new(&MachineConfig::default()).run(
            &mut trace,
            &mut policy,
            &RunLimits::unlimited(),
        );
        assert_eq!(stats.committed_uops, 400);
        // One remap per dynamic leader.
        assert_eq!(policy.remaps(), 200);
        assert_eq!(policy.unannotated(), 0);
        // Two independent chains: good balance and few copies. Copies can
        // still occur when a whole VC migrates between clusters.
        assert!(
            stats.dispatch_imbalance() < 0.5,
            "imbalance={}",
            stats.dispatch_imbalance()
        );
        let copy_rate = stats.copies_generated as f64 / stats.committed_uops as f64;
        assert!(
            copy_rate < 0.2,
            "chain-internal values never move, rate={copy_rate}"
        );
    }

    /// Steers every micro-op twice against the same view, asserting the
    /// second call changes nothing, and keeps the trait's impure default so
    /// the session re-steers a stalled micro-op every cycle.
    struct SteerTwice {
        inner: VcMapper,
        last_seq: Option<u64>,
        resteered_leaders: u64,
    }

    impl SteeringPolicy for SteerTwice {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn steer(&mut self, uop: &DynUop, view: &SteerView<'_>) -> SteerDecision {
            let leader = matches!(uop.hint, SteerHint::Vc { leader: true, .. });
            if leader && self.last_seq == Some(uop.seq) {
                self.resteered_leaders += 1;
            }
            self.last_seq = Some(uop.seq);
            let first = self.inner.steer(uop, view);
            let state = (
                self.inner.table.clone(),
                self.inner.remaps(),
                self.inner.migrations(),
            );
            assert_eq!(self.inner.steer(uop, view), first, "uop {}", uop.seq);
            let again = (
                self.inner.table.clone(),
                self.inner.remaps(),
                self.inner.migrations(),
            );
            assert_eq!(again, state, "uop {}", uop.seq);
            first
        }
    }

    #[test]
    fn resteering_a_stalled_leader_changes_nothing() {
        // Long loads keep the ROB full, so leaders stall at dispatch and
        // the session steers them again on every stalled cycle.
        let mut region = RegionBuilder::new(0, "stall")
            .load(r(1), r(1)) // VC0 leader
            .alu(r(2), &[r(2)]) // VC1 leader
            .alu(r(3), &[r(1)]) // VC0
            .build();
        for (inst, (vc, leader)) in region
            .insts
            .iter_mut()
            .zip([(0, true), (1, true), (0, false)])
        {
            inst.hint = SteerHint::Vc { vc, leader };
        }
        let mut uops = Vec::new();
        let mut seq = 0;
        for i in 0..400u64 {
            seq = virtclust_uarch::trace::expand_region(
                &region,
                seq,
                &mut uops,
                |_, _| i * 4096,
                |_, _| true,
            );
        }
        let mut policy = SteerTwice {
            inner: VcMapper::new(2),
            last_seq: None,
            resteered_leaders: 0,
        };
        let stats = SimSession::new(&MachineConfig::default()).run(
            &mut SliceTrace::new(&uops),
            &mut policy,
            &RunLimits::unlimited(),
        );
        assert_eq!(stats.committed_uops, 1_200);
        assert!(policy.resteered_leaders > 0, "no leader ever stalled");
        assert_eq!(policy.inner.remaps(), 800, "one per dynamic leader");
    }

    #[test]
    fn non_leader_before_any_leader_uses_default_mapping() {
        let mut region = RegionBuilder::new(0, "follower-first")
            .alu(r(1), &[r(1)])
            .build();
        region.insts[0].hint = SteerHint::Vc {
            vc: 1,
            leader: false,
        };
        let mut uops = Vec::new();
        virtclust_uarch::trace::expand_region(&region, 0, &mut uops, |_, _| 0, |_, _| true);
        let mut trace = SliceTrace::new(&uops);
        let stats = SimSession::new(&MachineConfig::default()).run(
            &mut trace,
            &mut VcMapper::new(2),
            &RunLimits::unlimited(),
        );
        assert_eq!(stats.clusters[1].dispatched, 1, "VC1 defaults to cluster 1");
    }

    #[test]
    fn unannotated_uops_are_counted_and_routed() {
        let region = RegionBuilder::new(0, "bare").alu(r(1), &[r(1)]).build();
        let mut uops = Vec::new();
        virtclust_uarch::trace::expand_region(&region, 0, &mut uops, |_, _| 0, |_, _| true);
        let mut trace = SliceTrace::new(&uops);
        let mut policy = VcMapper::new(2);
        let _ = SimSession::new(&MachineConfig::default()).run(
            &mut trace,
            &mut policy,
            &RunLimits::unlimited(),
        );
        assert_eq!(policy.unannotated(), 1);
    }

    #[test]
    fn two_vcs_on_four_clusters_use_at_most_two_at_a_time() {
        // VC(2→4): the mapping table has 2 entries, so at any instant at
        // most 2 of the 4 clusters receive new work — but remaps can move
        // chains to any cluster over time.
        let region = two_chain_region();
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
        let stats = SimSession::new(&MachineConfig::paper_4cluster()).run(
            &mut trace,
            &mut VcMapper::new(2),
            &RunLimits::unlimited(),
        );
        assert_eq!(stats.committed_uops, 200);
        assert_eq!(stats.clusters.len(), 4);
    }

    #[test]
    fn reset_clears_table_and_counters() {
        let mut p = VcMapper::new(2);
        p.remaps = 5;
        p.unannotated = 2;
        p.table[0] = Some(1);
        p.reset();
        assert_eq!(p.remaps(), 0);
        assert_eq!(p.unannotated(), 0);
        assert!(p.table.iter().all(Option::is_none));
    }
}
