//! End-to-end runs of the pipeline on hand-built regions: IPC bounds,
//! copy generation and delivery, memory and branch paths, run limits,
//! determinism and the steering range check.

mod common;

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;

use common::{expand, r, RoundRobin, ToZero};
use virtclust_sim::{RunLimits, SimSession, SimStats, SteerDecision, SteerView, SteeringPolicy};
use virtclust_uarch::{DynUop, MachineConfig, Region, RegionBuilder, SliceTrace};

/// A small hot working set: 64 consecutive words.
fn hot(s: u64) -> u64 {
    0x1000 + (s % 64) * 8
}

fn alu_chain_region(len: usize) -> Region {
    let mut b = RegionBuilder::new(0, "chain");
    for _ in 0..len {
        b = b.alu(r(1), &[r(1)]);
    }
    b.build()
}

fn run_on(
    cfg: &MachineConfig,
    uops: &[DynUop],
    policy: &mut dyn SteeringPolicy,
    limits: &RunLimits,
) -> SimStats {
    SimSession::new(cfg).run(&mut SliceTrace::new(uops), policy, limits)
}

fn run(uops: &[DynUop], policy: &mut dyn SteeringPolicy) -> SimStats {
    run_on(
        &MachineConfig::default(),
        uops,
        policy,
        &RunLimits::unlimited(),
    )
}

#[test]
fn single_dependent_chain_runs_at_ipc_one_ish() {
    let uops = expand(&alu_chain_region(8), 100, hot);
    let stats = run(&uops, &mut ToZero);
    assert_eq!(stats.committed_uops, uops.len() as u64);
    assert_eq!(stats.copies_generated, 0, "everything in one cluster");
    // A fully serial chain commits ~1 uop/cycle at best.
    assert!(stats.ipc() <= 1.05, "ipc={}", stats.ipc());
    assert!(stats.ipc() > 0.5, "ipc={}", stats.ipc());
}

#[test]
fn independent_chains_to_one_cluster_limited_by_issue_width() {
    // 5 independent chains; one cluster can only issue 2 INT/cycle.
    let mut b = RegionBuilder::new(0, "par5");
    for reg in 1..=5u8 {
        b = b.alu(r(reg), &[r(reg)]);
    }
    let uops = expand(&b.build(), 200, hot);
    let one = run(&uops, &mut ToZero);
    assert!(
        one.ipc() <= 2.05,
        "single cluster INT issue width is 2, ipc={}",
        one.ipc()
    );

    // Round-robin over 2 clusters with 5 (odd) uops per iteration makes
    // every chain alternate clusters each iteration, forcing copies,
    // but the program still completes identically.
    let two = run(&uops, &mut RoundRobin(0));
    assert_eq!(two.committed_uops, one.committed_uops);
    assert!(
        two.copies_generated > 0,
        "round robin over odd stride must copy"
    );
}

#[test]
fn copies_are_generated_and_delivered_exactly() {
    let uops = expand(&alu_chain_region(4), 50, hot);
    let stats = run(&uops, &mut RoundRobin(0));
    // A serial chain bouncing between clusters needs one copy per hop.
    assert!(stats.copies_generated > 0);
    assert_eq!(
        stats.copies_generated, stats.copies_delivered,
        "all generated copies must eventually be delivered"
    );
}

#[test]
fn loads_and_stores_complete_and_hit_cache() {
    let region = RegionBuilder::new(0, "mem")
        .alu(r(1), &[r(1)])
        .load(r(2), r(1))
        .store(r(1), r(2))
        .build();
    let uops = expand(&region, 100, hot);
    let stats = run(&uops, &mut ToZero);
    assert_eq!(stats.committed_uops, uops.len() as u64);
    assert!(stats.l1_hits + stats.l1_misses + stats.store_forwards > 0);
    // Working set is 64 lines -> overwhelmingly hits after warmup.
    assert!(stats.l1_hit_rate() > 0.5 || stats.store_forwards > 50);
}

#[test]
fn branch_mispredicts_cost_cycles() {
    let region = RegionBuilder::new(0, "br")
        .alu(r(1), &[r(1)])
        .branch(r(1))
        .build();
    // One iteration, one branch, per outcome.
    let branches = |outcomes: &[bool]| {
        let mut uops = Vec::new();
        let mut seq = 0;
        for &taken in outcomes {
            seq = virtclust_uarch::trace::expand_region(
                &region,
                seq,
                &mut uops,
                |_, _| 0,
                |_, _| taken,
            );
        }
        uops
    };
    // Branch outcome alternates with a LCG pattern -> mispredicts.
    let mut x = 1u64;
    let lcg: Vec<bool> = (0..500)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 62) & 1 == 1
        })
        .collect();
    let noisy = run(&branches(&lcg), &mut ToZero);
    assert!(noisy.branches == 500);
    assert!(
        noisy.mispredicts > 50,
        "random-ish stream should mispredict"
    );

    // Same region, always-taken -> almost no mispredicts, fewer cycles.
    let clean = run(&branches(&[true; 500]), &mut ToZero);
    assert!(clean.mispredicts < 20);
    assert!(clean.cycles < noisy.cycles);
}

#[test]
fn determinism_same_inputs_same_stats() {
    let uops = expand(&alu_chain_region(5), 80, hot);
    assert_eq!(
        run(&uops, &mut RoundRobin(0)),
        run(&uops, &mut RoundRobin(0))
    );
}

#[test]
fn max_uops_limit_truncates() {
    let uops = expand(&alu_chain_region(4), 100, hot);
    let limits = RunLimits::uops(40);
    let stats = run_on(&MachineConfig::default(), &uops, &mut ToZero, &limits);
    assert_eq!(stats.committed_uops, 40);
}

#[test]
fn max_cycles_limit_stops_cleanly() {
    let uops = expand(&alu_chain_region(4), 1000, hot);
    let limits = RunLimits {
        max_uops: None,
        max_cycles: Some(50),
    };
    let stats = run_on(&MachineConfig::default(), &uops, &mut ToZero, &limits);
    assert_eq!(stats.cycles, 50);
    assert!(stats.committed_uops < 1000);
}

#[test]
fn four_cluster_machine_runs() {
    let uops = expand(&alu_chain_region(6), 60, hot);
    let stats = run_on(
        &MachineConfig::paper_4cluster(),
        &uops,
        &mut RoundRobin(0),
        &RunLimits::unlimited(),
    );
    assert_eq!(stats.committed_uops, uops.len() as u64);
    assert_eq!(stats.clusters.len(), 4);
    assert_eq!(stats.copies_generated, stats.copies_delivered);
}

#[test]
fn empty_trace_finishes_immediately() {
    let stats = run(&[], &mut ToZero);
    assert_eq!(stats.committed_uops, 0);
    assert!(stats.cycles <= 2);
}

/// Steers every micro-op to the first cluster the machine does not have,
/// counting its calls; `pure` is what it declares.
struct OutOfRange {
    pure: bool,
    calls: Rc<Cell<u32>>,
}

impl SteeringPolicy for OutOfRange {
    fn name(&self) -> String {
        "out-of-range".into()
    }
    fn steer(&mut self, _uop: &DynUop, view: &SteerView<'_>) -> SteerDecision {
        self.calls.set(self.calls.get() + 1);
        SteerDecision::Cluster(view.num_clusters() as u8)
    }
    fn steer_is_pure(&self) -> bool {
        self.pure
    }
}

/// A decision naming a cluster the machine does not have panics in
/// dispatch, for a pure and an impure policy, with skipping on and off.
/// The idle-span probe treats such a decision as dispatch acting this
/// cycle: under skipping a pure policy is steered once by the probe and
/// once more by dispatch, whose call raises the panic.
#[test]
fn steering_to_a_nonexistent_cluster_panics_in_dispatch() {
    let uops = expand(&alu_chain_region(1), 1, hot);
    let cfg = MachineConfig::default();
    for pure in [true, false] {
        for skip in [true, false] {
            let calls = Rc::new(Cell::new(0));
            let mut policy = OutOfRange {
                pure,
                calls: calls.clone(),
            };
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut session = SimSession::new(&cfg);
                session.set_cycle_skipping(skip);
                session.run(
                    &mut SliceTrace::new(&uops),
                    &mut policy,
                    &RunLimits::unlimited(),
                )
            }))
            .expect_err("steering out of range must panic");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                msg.contains("policy steered to nonexistent cluster 2"),
                "pure={pure} skip={skip}: {msg}"
            );
            let expected_calls = if pure && skip { 2 } else { 1 };
            assert_eq!(
                calls.get(),
                expected_calls,
                "pure={pure} skip={skip}: the panic must come from dispatch's call"
            );
        }
    }
}
