//! Edge tests for stalled dispatch under a *pure* policy. A
//! [`SimSession`] may skip a pure policy's dispatch-stall spans, steering
//! the stalled front micro-op once per stale location epoch instead of
//! once per cycle; an impure policy is re-steered every cycle. Each test
//! builds a workload that changes the stall's inputs mid-epoch (an issue
//! drain flipping a busy bit, a mispredict squash, an observer boundary)
//! and pins a pure policy against its [`ImpureShim`] twin bit for bit,
//! asserting — via the stats — that the edge actually fired. In debug
//! builds (how `cargo test` runs this) every skipped span is also
//! single-stepped and compared.

use virtclust::core::Configuration;
use virtclust::obs::{MemSink, Shared};
use virtclust::sim::{RunLimits, SimSession, SimStats, SteerDecision, SteerView, SteeringPolicy};
use virtclust::uarch::{
    ArchReg, DynUop, MachineConfig, Program, Region, RegionBuilder, SliceTrace,
};

/// Delegates decisions but keeps the trait-default `steer_is_pure() ==
/// false`: the session then re-steers every stalled cycle (no
/// policy-dependent idle spans), which is the oracle the pure policy
/// must match bit for bit.
struct ImpureShim(Box<dyn SteeringPolicy>);
impl SteeringPolicy for ImpureShim {
    fn name(&self) -> String {
        self.0.name()
    }
    fn steer(&mut self, uop: &DynUop, view: &SteerView<'_>) -> SteerDecision {
        self.0.steer(uop, view)
    }
    fn reset(&mut self) {
        self.0.reset()
    }
}

fn r(i: u8) -> ArchReg {
    ArchReg::int(i)
}

/// Stall cycles whose outcome depends on the steer: the post-policy
/// outcomes (policy stall, IQ/RF/copy-queue full). OP's stall-over-steer
/// reports a tiny issue queue as `PolicyStall` (the occupancy threshold
/// trips before the queue literally fills); StaticFollow schemes report
/// `IqFull` — either way a pure policy may skip the epoch.
fn post_policy_stalls(stats: &SimStats) -> u64 {
    use virtclust::sim::StallReason as R;
    [R::PolicyStall, R::IqFull, R::RfFull, R::CopyQueueFull]
        .iter()
        .map(|r| stats.dispatch_stalls[r.index()])
        .sum()
}

/// Expand `region` `iters` times; every `mispredict_every`-th branch
/// (1-based, 0 = never) is marked mispredicted.
fn expand(region: &Region, iters: usize, mispredict_every: u64) -> Vec<DynUop> {
    let mut uops = Vec::new();
    let mut seq = 0;
    let mut branches = 0u64;
    for _ in 0..iters {
        seq = virtclust::uarch::trace::expand_region(
            region,
            seq,
            &mut uops,
            |s, _| 0x1000 + (s % 64) * 8,
            |_, _| {
                branches += 1;
                mispredict_every == 0 || !branches.is_multiple_of(mispredict_every)
            },
        );
    }
    uops
}

/// Run one cell twice — pure policy as-is and per-cycle (behind
/// [`ImpureShim`]) — on fresh sessions and assert full `SimStats`
/// equality, returning the stats for edge-specific asserts.
fn pure_vs_per_cycle(machine: &MachineConfig, config: Configuration, uops: &[DynUop]) -> SimStats {
    let pure = {
        let mut session = SimSession::new(machine);
        let mut trace = SliceTrace::new(uops);
        let mut policy = config.make_policy();
        session.simulate(
            machine,
            &mut trace,
            policy.as_mut(),
            &RunLimits::unlimited(),
        )
    };
    let plain = {
        let mut session = SimSession::new(machine);
        let mut trace = SliceTrace::new(uops);
        let mut policy = ImpureShim(config.make_policy());
        session.simulate(machine, &mut trace, &mut policy, &RunLimits::unlimited())
    };
    assert_eq!(
        pure, plain,
        "pure-policy dispatch diverged from per-cycle re-derivation"
    );
    pure
}

/// Compile `region` for `config` on `machine` (the software schemes need
/// their pass to run before expansion).
fn compile(region: Region, config: Configuration, machine: &MachineConfig) -> Region {
    let mut program = Program::new("plan-memo");
    program.add_region(region);
    config
        .software_pass(machine.num_clusters as u32)
        .apply(&mut program, &machine.latencies);
    program.regions.remove(0)
}

/// A busy-bit flip mid-epoch must end the stall: dispatch stalls on a
/// full issue queue (a post-policy outcome), then issue drains an entry —
/// flipping the occupancy summary's busy bit — and the very next dispatch
/// decision must see it. A long serial dependence chain into a tiny IQ
/// makes the queue fill (nothing issues while the chain head executes)
/// and drain one entry at a time.
#[test]
fn busy_bit_flip_mid_epoch_matches_per_cycle() {
    let machine = MachineConfig {
        iq_int_entries: 4,
        rob_entries: 64,
        ..Default::default()
    };
    let mut b = RegionBuilder::new(0, "serial");
    for _ in 0..24 {
        b = b.mul(r(1), r(1), r(2)); // serial chain: one issues per latency
    }
    let region = b.build();
    for config in [Configuration::Op, Configuration::Ob, Configuration::Rhop] {
        let compiled = compile(region.clone(), config, &machine);
        let uops = expand(&compiled, 4, 0);
        let stats = pure_vs_per_cycle(&machine, config, &uops);
        assert!(
            post_policy_stalls(&stats) > 0,
            "{:?}: workload must hit post-policy stalls (the skippable kinds) \
             to exercise the edge",
            config
        );
        assert!(stats.clusters.iter().map(|c| c.issued).sum::<u64>() > 0);
    }
}

/// A branch-mispredict squash while dispatch is stalled must leave no
/// trace of the stalled micro-op: the post-squash front micro-op has a
/// different sequence number, and a pure policy's answer for the stalled
/// predecessor must not leak into its classification. Mispredicted
/// branches are interleaved with the same IQ-filling serial chain so
/// squashes land while dispatch is stalled.
#[test]
fn squash_while_stalled_matches_per_cycle() {
    let machine = MachineConfig {
        iq_int_entries: 4,
        ..Default::default()
    };
    let mut b = RegionBuilder::new(0, "squashy");
    for _ in 0..6 {
        b = b.mul(r(1), r(1), r(2)).branch(r(1));
    }
    let region = b.build();
    for config in [Configuration::Op, Configuration::Ob, Configuration::Rhop] {
        let compiled = compile(region.clone(), config, &machine);
        let uops = expand(&compiled, 6, 2); // every 2nd branch mispredicts
        let stats = pure_vs_per_cycle(&machine, config, &uops);
        assert!(
            stats.mispredicts > 0,
            "{:?}: workload must squash to exercise the edge",
            config
        );
        assert!(
            stats.dispatch_stalls.iter().sum::<u64>() > 0,
            "{:?}: workload must stall dispatch to exercise the edge",
            config
        );
    }
}

/// An interval-observer boundary landing inside a stall epoch must not
/// perturb dispatch (the observer is a pure reader): with a 16-cycle
/// interval, boundaries fall inside IQ-full stall epochs, and both the
/// final stats and the emitted interval deltas must be bit-identical to
/// the per-cycle run.
#[test]
fn observer_boundary_inside_epoch_is_unperturbed() {
    let machine = MachineConfig {
        iq_int_entries: 4,
        ..Default::default()
    };
    let mut b = RegionBuilder::new(0, "observed");
    for _ in 0..24 {
        b = b.mul(r(1), r(1), r(2));
    }
    let region = b.build();
    let config = Configuration::Op;
    let compiled = compile(region, config, &machine);
    let uops = expand(&compiled, 4, 0);

    let run = |policy: &mut dyn SteeringPolicy| {
        let mut session = SimSession::new(&machine);
        let handle = Shared::new(MemSink::<SimStats>::new());
        session.attach_observer(16, Box::new(handle.clone()));
        let mut trace = SliceTrace::new(&uops);
        let stats = session.simulate(&machine, &mut trace, policy, &RunLimits::unlimited());
        session.detach_observer();
        let intervals = handle.with(|sink| sink.intervals.clone());
        (stats, intervals)
    };
    let (pure_stats, pure_intervals) = run(config.make_policy().as_mut());
    let (plain_stats, plain_intervals) = run(&mut ImpureShim(config.make_policy()));
    assert_eq!(pure_stats, plain_stats, "observed stats diverged");
    assert_eq!(
        pure_intervals.len(),
        plain_intervals.len(),
        "interval streams diverged in length"
    );
    for (m, p) in pure_intervals.iter().zip(&plain_intervals) {
        assert_eq!(m.start_cycle, p.start_cycle);
        assert_eq!(m.end_cycle, p.end_cycle);
        assert_eq!(m.delta, p.delta, "interval delta diverged");
    }
    assert!(
        post_policy_stalls(&pure_stats) > 0,
        "workload must hit post-policy stalls so boundaries land inside epochs"
    );
}
