//! The occupancy-aware hardware-only steering policy (the paper's `OP`
//! baseline, from [González, Latorre, González, WMPI'04]), plus its
//! *parallel* variant used for the Sec. 2.1 complexity motivation.
//!
//! Heuristic: an instruction is *"distributed to a cluster holding most of
//! its inputs. In case of a tie, it is sent to the least loaded cluster."*
//! Occupancy-awareness: *"stalls the steering unit if the preferred cluster
//! cannot be chosen (due to lack of resources) and the other ones are busy"*
//! — i.e. stalling beats dumping a dependent instruction on a far cluster.
//!
//! The **sequential** mode reads up-to-date value locations (each decision
//! sees the effects of all earlier ones — the expensive serialized hardware
//! the paper wants to remove). The **parallel** mode reads the stale
//! bundle-entry snapshot, the cheap renaming-style implementation that
//! mis-steers dependent bundles (Sec. 2.1: 2 copies where sequential needs
//! none).
//!
//! The queue occupancies this policy consults
//! ([`SteerView::occupancy`]/[`SteerView::is_busy`]) are cached counters
//! the simulator maintains at every issue-queue insert and remove — per
//! decision they cost a read, not a walk over the queues (the
//! per-dispatched-uop occupancy rebuild was removed alongside the
//! event-driven wakeup/select refactor in `virtclust-sim`).

use virtclust_sim::{cluster_bit, SteerDecision, SteerView, SteeringPolicy};
use virtclust_uarch::DynUop;

/// Which location information the dependence heuristic reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocationMode {
    /// Up-to-date locations (sequential steering; the paper's `OP`).
    Sequential,
    /// Bundle-entry snapshot (parallel steering straw-man of Sec. 2.1).
    ParallelStale,
}

/// The occupancy-aware dependence-based steering policy.
#[derive(Debug, Clone)]
pub struct OccupancyAware {
    mode: LocationMode,
    stall_over_steer: bool,
}

impl OccupancyAware {
    /// The paper's `OP` configuration: sequential, occupancy-aware.
    pub fn new() -> Self {
        OccupancyAware {
            mode: LocationMode::Sequential,
            stall_over_steer: true,
        }
    }

    /// The parallel (stale-information) variant of Sec. 2.1.
    pub fn parallel() -> Self {
        OccupancyAware {
            mode: LocationMode::ParallelStale,
            stall_over_steer: true,
        }
    }

    /// Dependence steering *without* stall-over-steer: when the preferred
    /// cluster is full the micro-op is dumped on any cluster with space.
    /// This is the behaviour the paper's references 15 and 24 improved
    /// on — an ablation of the "stalling beats steering" insight.
    pub fn without_stall() -> Self {
        OccupancyAware {
            mode: LocationMode::Sequential,
            stall_over_steer: false,
        }
    }

    /// The location mode in use.
    pub fn mode(&self) -> LocationMode {
        self.mode
    }

    /// Count, per cluster, how many of `uop`'s source reads are satisfied
    /// locally.
    fn input_counts(&self, uop: &DynUop, view: &SteerView<'_>) -> [u32; 8] {
        let mut counts = [0u32; 8];
        for src in uop.srcs.iter() {
            let mask = match self.mode {
                LocationMode::Sequential => view.location(src),
                LocationMode::ParallelStale => view.location_stale(src),
            };
            for (c, count) in counts.iter_mut().enumerate().take(view.num_clusters()) {
                if mask & cluster_bit(c as u8) != 0 {
                    *count += 1;
                }
            }
        }
        counts
    }
}

impl Default for OccupancyAware {
    fn default() -> Self {
        Self::new()
    }
}

impl SteeringPolicy for OccupancyAware {
    fn name(&self) -> String {
        match (self.mode, self.stall_over_steer) {
            (LocationMode::Sequential, true) => "OP".into(),
            (LocationMode::Sequential, false) => "OP-nostall".into(),
            (LocationMode::ParallelStale, _) => "OP-parallel".into(),
        }
    }

    fn steer(&mut self, uop: &DynUop, view: &SteerView<'_>) -> SteerDecision {
        let n = view.num_clusters();
        let counts = self.input_counts(uop, view);

        // Preferred cluster: most inputs, ties to the least-loaded cluster,
        // then to the lowest index.
        let preferred = (0..n as u8)
            .min_by_key(|&c| (std::cmp::Reverse(counts[c as usize]), view.inflight(c), c))
            .expect("at least one cluster");

        let kind = uop.op.queue();
        if view.has_queue_space(preferred, kind) {
            return SteerDecision::Cluster(preferred);
        }

        // Preferred cluster lacks resources. Steer to the best non-busy
        // alternative with space; if every alternative is busy, stall —
        // "it is better to stall the processor frontend". The no-stall
        // ablation takes any cluster with space regardless of busyness.
        let alt = (0..n as u8)
            .filter(|&c| {
                c != preferred
                    && view.has_queue_space(c, kind)
                    && (!self.stall_over_steer || !view.is_busy(c, kind))
            })
            .min_by_key(|&c| (std::cmp::Reverse(counts[c as usize]), view.inflight(c), c));
        match alt {
            Some(c) => SteerDecision::Cluster(c),
            None => SteerDecision::Stall,
        }
    }

    // `mode` and `stall_over_steer` are configuration, fixed for the
    // policy's lifetime: the decision is a function of the micro-op and
    // the view alone.
    fn steer_is_pure(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtclust_sim::{RunLimits, SimSession};
    use virtclust_uarch::{ArchReg, MachineConfig, RegionBuilder, SliceTrace};

    fn r(i: u8) -> ArchReg {
        ArchReg::int(i)
    }

    /// The Sec. 2.1 example (mirrored so the tie-break picks cluster 0):
    ///   I1: r1 <- r1 + r2   (tie: r1 in c1, r2 in c0 -> least loaded/lowest)
    ///   I2: r3 <- load(r1)
    ///   I3: r4 <- load(r3)
    /// Sequential steering keeps the chain together after I1 (1 copy total,
    /// for I1's remote input); parallel steering bounces I2 and I3 using
    /// stale locations (2 extra copies — the paper's "two copies").
    fn sec21_uops() -> Vec<virtclust_uarch::DynUop> {
        let region = RegionBuilder::new(0, "sec2.1")
            .alu(r(1), &[r(1), r(2)])
            .load(r(3), r(1))
            .load(r(4), r(3))
            .build();
        let mut uops = Vec::new();
        virtclust_uarch::trace::expand_region(&region, 0, &mut uops, |_, _| 0x100, |_, _| true);
        uops
    }

    fn run_sec21(policy: &mut dyn SteeringPolicy) -> virtclust_sim::SimStats {
        let uops = sec21_uops();
        let mut trace = SliceTrace::new(&uops);
        let mut session = SimSession::new(&MachineConfig::default());
        // Initial placements (mirror of the paper's): r1 in cluster 1,
        // r2 and r3 in cluster 0, both clusters idle.
        session.place_register(r(1), 1);
        session.place_register(r(2), 0);
        session.place_register(r(3), 0);
        session.run(&mut trace, policy, &RunLimits::unlimited())
    }

    #[test]
    fn sec21_sequential_keeps_chain_together() {
        let stats = run_sec21(&mut OccupancyAware::new());
        assert_eq!(stats.committed_uops, 3);
        assert_eq!(
            stats.copies_generated, 1,
            "only I1's remote input needs a copy; the chain stays put"
        );
    }

    #[test]
    fn sec21_parallel_generates_two_extra_copies() {
        let stats = run_sec21(&mut OccupancyAware::parallel());
        assert_eq!(stats.committed_uops, 3);
        assert_eq!(
            stats.copies_generated, 3,
            "stale locations bounce I2 and I3: the paper's 2 extra copies"
        );
    }

    #[test]
    fn dependence_steering_prefers_input_cluster() {
        // A value parked in cluster 1; a long chain of consumers must all
        // land in cluster 1 and generate no copies.
        let region = RegionBuilder::new(0, "chain")
            .alu(r(2), &[r(1)])
            .alu(r(3), &[r(2)])
            .alu(r(4), &[r(3)])
            .build();
        let mut uops = Vec::new();
        virtclust_uarch::trace::expand_region(&region, 0, &mut uops, |_, _| 0, |_, _| true);
        let mut trace = SliceTrace::new(&uops);
        let mut session = SimSession::new(&MachineConfig::default());
        session.place_register(r(1), 1);
        let stats = session.run(
            &mut trace,
            &mut OccupancyAware::new(),
            &RunLimits::unlimited(),
        );
        assert_eq!(stats.copies_generated, 0);
        assert_eq!(
            stats.clusters[1].dispatched, 3,
            "whole chain follows r1 to cluster 1"
        );
        assert_eq!(stats.clusters[0].dispatched, 0);
    }

    #[test]
    fn balances_independent_streams() {
        // Many independent single-uop chains: ties everywhere, so the
        // least-loaded tie-break must spread them.
        let mut b = RegionBuilder::new(0, "indep");
        for i in 0..8u8 {
            b = b.alu(r(i % 8), &[r(i % 8)]);
        }
        let region = b.build();
        let mut uops = Vec::new();
        let mut seq = 0;
        for _ in 0..200 {
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
            &mut OccupancyAware::new(),
            &RunLimits::unlimited(),
        );
        assert!(
            stats.dispatch_imbalance() < 0.8,
            "both clusters must see work, imbalance={}",
            stats.dispatch_imbalance()
        );
    }

    #[test]
    fn parallel_mode_never_beats_sequential_on_dependent_code() {
        // Serial dependent chain crossing registers: sequential OP should
        // generate no more copies than the stale-information variant.
        let region = RegionBuilder::new(0, "serial")
            .alu(r(1), &[r(1), r(2)])
            .alu(r(2), &[r(1)])
            .alu(r(3), &[r(2)])
            .alu(r(1), &[r(3), r(2)])
            .build();
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
        let run = |p: &mut dyn SteeringPolicy| {
            let mut trace = SliceTrace::new(&uops);
            SimSession::new(&MachineConfig::default()).run(&mut trace, p, &RunLimits::unlimited())
        };
        let seq_stats = run(&mut OccupancyAware::new());
        let par_stats = run(&mut OccupancyAware::parallel());
        assert!(
            seq_stats.copies_generated <= par_stats.copies_generated,
            "sequential {} vs parallel {}",
            seq_stats.copies_generated,
            par_stats.copies_generated
        );
        assert!(seq_stats.cycles <= par_stats.cycles + 5);
    }
}
