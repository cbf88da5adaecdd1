//! Mod-N steering [Baniasadi & Moshovos, MICRO'00 — the paper's ref. 3]:
//! send every run of N consecutive micro-ops to the next cluster in
//! round-robin order.
//!
//! Historically the simplest hardware distribution heuristic for clustered
//! superscalars: perfect long-run balance, zero dependence awareness. It is
//! not part of the paper's Table 3 but is the classic point of comparison
//! for *why* dependence-based steering (OP) and chain-based steering (VC)
//! exist at all — Mod-N pays a copy for nearly every cross-slice
//! dependence.

use virtclust_sim::{SteerDecision, SteerView, SteeringPolicy};
use virtclust_uarch::DynUop;

/// Round-robin steering with a configurable slice length.
///
/// The slice index is derived from the micro-op's program-order sequence
/// number (`uop.seq / n`), not from a call counter: "N consecutive
/// micro-ops" is a program-order property, so the decision is a pure
/// function of the micro-op and the policy declares
/// [`SteeringPolicy::steer_is_pure`]. (A call counter would also rotate on
/// the re-steers of a stalled front micro-op — a simulation artifact, not
/// part of the published heuristic.)
#[derive(Debug, Clone)]
pub struct ModN {
    n: u64,
}

impl ModN {
    /// Steer in slices of `n` micro-ops (Mod-3 was the published sweet
    /// spot for 4-cluster machines).
    pub fn new(n: u64) -> Self {
        assert!(n >= 1, "slice length must be positive");
        ModN { n }
    }

    /// Slice length.
    pub fn slice_len(&self) -> u64 {
        self.n
    }
}

impl SteeringPolicy for ModN {
    fn name(&self) -> String {
        format!("mod-{}", self.n)
    }

    fn steer(&mut self, uop: &DynUop, view: &SteerView<'_>) -> SteerDecision {
        let slice = uop.seq / self.n;
        SteerDecision::Cluster((slice % view.num_clusters() as u64) as u8)
    }

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

    fn serial_trace(len: usize) -> Vec<virtclust_uarch::DynUop> {
        let mut b = RegionBuilder::new(0, "serial");
        for _ in 0..len {
            b = b.alu(r(1), &[r(1)]);
        }
        let region = b.build();
        let mut uops = Vec::new();
        virtclust_uarch::trace::expand_region(&region, 0, &mut uops, |_, _| 0, |_, _| true);
        uops
    }

    #[test]
    fn slices_rotate_round_robin() {
        let uops = serial_trace(12);
        let mut trace = SliceTrace::new(&uops);
        let stats = SimSession::new(&MachineConfig::default()).run(
            &mut trace,
            &mut ModN::new(3),
            &RunLimits::unlimited(),
        );
        // 12 uops in slices of 3 over 2 clusters: 6 per cluster.
        assert_eq!(stats.clusters[0].dispatched, 6);
        assert_eq!(stats.clusters[1].dispatched, 6);
    }

    #[test]
    fn serial_chain_pays_one_copy_per_slice_boundary() {
        let uops = serial_trace(12);
        let mut trace = SliceTrace::new(&uops);
        let stats = SimSession::new(&MachineConfig::default()).run(
            &mut trace,
            &mut ModN::new(3),
            &RunLimits::unlimited(),
        );
        // 4 slice boundaries in 12 uops -> 3 cluster switches after the
        // first slice, each forcing a copy of the chain value.
        assert_eq!(stats.copies_generated, 3);
    }

    #[test]
    fn dependence_blind_is_worse_than_dependence_aware() {
        let uops = serial_trace(400);
        let run = |policy: &mut dyn SteeringPolicy| {
            let mut trace = SliceTrace::new(&uops);
            SimSession::new(&MachineConfig::default()).run(
                &mut trace,
                policy,
                &RunLimits::unlimited(),
            )
        };
        let modn = run(&mut ModN::new(3));
        let op = run(&mut crate::OccupancyAware::new());
        assert!(modn.copies_generated > op.copies_generated);
        assert!(modn.cycles > op.cycles, "Mod-N must lose on a serial chain");
    }

    #[test]
    fn decision_is_a_pure_function_of_the_sequence_number() {
        // Two fresh runs over the same trace must distribute identically —
        // and the policy advertises purity so stall spans can skip.
        let p = ModN::new(2);
        assert!(p.steer_is_pure());
        assert_eq!(p.slice_len(), 2);
        let uops = serial_trace(8);
        let run = || {
            let mut trace = SliceTrace::new(&uops);
            SimSession::new(&MachineConfig::default()).run(
                &mut trace,
                &mut ModN::new(2),
                &RunLimits::unlimited(),
            )
        };
        assert_eq!(run(), run());
    }
}
