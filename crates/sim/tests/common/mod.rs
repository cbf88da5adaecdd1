//! Steering policies and trace helpers shared by the sim integration tests.

use virtclust_sim::{SteerDecision, SteerView, SteeringPolicy};
use virtclust_uarch::{ArchReg, DynUop, Region};

/// Steer everything to cluster 0.
pub struct ToZero;
impl SteeringPolicy for ToZero {
    fn name(&self) -> String {
        "to-zero".into()
    }
    fn steer(&mut self, _uop: &DynUop, _view: &SteerView<'_>) -> SteerDecision {
        SteerDecision::Cluster(0)
    }
}

/// Round-robin per uop (maximally copy-happy).
pub struct RoundRobin(pub u8);
impl SteeringPolicy for RoundRobin {
    fn name(&self) -> String {
        "round-robin".into()
    }
    fn steer(&mut self, _uop: &DynUop, view: &SteerView<'_>) -> SteerDecision {
        let c = self.0;
        self.0 = (self.0 + 1) % view.num_clusters() as u8;
        SteerDecision::Cluster(c)
    }
    fn reset(&mut self) {
        self.0 = 0;
    }
}

pub fn r(i: u8) -> ArchReg {
    ArchReg::int(i)
}

/// `iters` always-taken iterations of `region`; memory micro-op `s` (by
/// sequence number) accesses `addr(s)`.
pub fn expand(region: &Region, iters: usize, addr: fn(u64) -> u64) -> Vec<DynUop> {
    let mut uops = Vec::new();
    let mut seq = 0;
    for _ in 0..iters {
        seq = virtclust_uarch::trace::expand_region(
            region,
            seq,
            &mut uops,
            |s, _| addr(s),
            |_, _| true,
        );
    }
    uops
}
