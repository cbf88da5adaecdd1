//! Integration tests driving the machine into each structural-stall path
//! with deliberately shrunken resources, verifying both that the stall is
//! detected (the accounting the paper's balance metric builds on) and that
//! the machine still completes the program exactly.
#![allow(clippy::field_reassign_with_default)] // configs are tweaked per test

mod common;

use common::{expand, r, RoundRobin, ToZero};
use virtclust_sim::{RunLimits, SimSession, SimStats, StallReason, SteeringPolicy};
use virtclust_uarch::{
    DynUop, MachineConfig, OpClass, Region, RegionBuilder, StaticInst, VecTrace,
};

/// A miss-heavy address stream.
fn miss_heavy(s: u64) -> u64 {
    0x100000 + (s * 8192) % (1 << 24)
}

fn run(cfg: &MachineConfig, uops: &[DynUop], policy: &mut dyn SteeringPolicy) -> SimStats {
    let mut trace = VecTrace::new(uops.to_vec());
    SimSession::new(cfg).run(&mut trace, policy, &RunLimits::unlimited())
}

#[test]
fn iq_full_stalls_are_detected_and_program_completes() {
    // Long-latency loads feeding dependents, 4-entry INT queue: the queue
    // fills with waiting consumers.
    let mut cfg = MachineConfig::default();
    cfg.iq_int_entries = 4;
    let region = RegionBuilder::new(0, "iq")
        .load(r(2), r(1))
        .alu(r(3), &[r(2)])
        .alu(r(4), &[r(2)])
        .alu(r(5), &[r(2)])
        .build();
    let uops = expand(&region, 60, miss_heavy);
    let stats = run(&cfg, &uops, &mut ToZero);
    assert_eq!(stats.committed_uops, uops.len() as u64);
    assert!(
        stats.dispatch_stalls[StallReason::IqFull.index()] > 0,
        "tiny IQ must fill: {:?}",
        stats.dispatch_stalls
    );
}

#[test]
fn lsq_full_stalls_are_detected() {
    let mut cfg = MachineConfig::default();
    cfg.lsq_entries = 4;
    let mut b = RegionBuilder::new(0, "lsq");
    for i in 2..8u8 {
        b = b.load(r(i), r(1));
    }
    let uops = expand(&b.build(), 60, miss_heavy);
    let stats = run(&cfg, &uops, &mut ToZero);
    assert_eq!(stats.committed_uops, uops.len() as u64);
    assert!(stats.dispatch_stalls[StallReason::LsqFull.index()] > 0);
}

#[test]
fn rob_full_stalls_are_detected() {
    let mut cfg = MachineConfig::default();
    cfg.rob_entries = 8;
    let region = RegionBuilder::new(0, "rob")
        .load(r(2), r(1)) // long-latency head blocks commit
        .alu(r(3), &[r(3)])
        .alu(r(4), &[r(4)])
        .alu(r(5), &[r(5)])
        .build();
    let uops = expand(&region, 40, miss_heavy);
    let stats = run(&cfg, &uops, &mut ToZero);
    assert_eq!(stats.committed_uops, uops.len() as u64);
    assert!(stats.dispatch_stalls[StallReason::RobFull.index()] > 0);
}

#[test]
fn copy_queue_full_stalls_are_detected() {
    // Round-robin over a serial chain: every uop needs a copy; a 1-entry
    // copy queue backs dispatch up.
    let mut cfg = MachineConfig::default();
    cfg.copy_queue_entries = 1;
    let mut b = RegionBuilder::new(0, "copyq");
    for _ in 0..6 {
        b = b.alu(r(1), &[r(1)]);
    }
    let uops = expand(&b.build(), 80, miss_heavy);
    let stats = run(&cfg, &uops, &mut RoundRobin(0));
    assert_eq!(stats.committed_uops, uops.len() as u64);
    assert!(stats.copies_generated > 0);
    assert!(stats.dispatch_stalls[StallReason::CopyQueueFull.index()] > 0);
    assert_eq!(stats.copies_generated, stats.copies_delivered);
}

#[test]
fn rf_full_stalls_are_detected() {
    // Shrink the INT register file to just above the architected count;
    // a burst of long-lived defs exhausts it.
    let mut cfg = MachineConfig::default();
    cfg.int_regs_per_cluster = 40;
    let region = RegionBuilder::new(0, "rf")
        .load(r(2), r(1))
        .alu(r(3), &[r(2)])
        .alu(r(4), &[r(3)])
        .alu(r(5), &[r(4)])
        .alu(r(6), &[r(5)])
        .alu(r(7), &[r(6)])
        .build();
    let uops = expand(&region, 80, miss_heavy);
    let stats = run(&cfg, &uops, &mut ToZero);
    assert_eq!(stats.committed_uops, uops.len() as u64);
    assert!(
        stats.dispatch_stalls[StallReason::RfFull.index()] > 0,
        "tiny RF must bind: {:?}",
        stats.dispatch_stalls
    );
}

#[test]
fn nops_flow_through_the_pipeline() {
    let mut region = Region::new(0, "nops");
    for _ in 0..10 {
        region.push(StaticInst::new(OpClass::Nop, &[], None));
    }
    let uops = expand(&region, 5, miss_heavy);
    let stats = run(&MachineConfig::default(), &uops, &mut ToZero);
    assert_eq!(stats.committed_uops, 50);
    assert_eq!(stats.copies_generated, 0);
}

#[test]
fn stats_are_internally_consistent_under_pressure() {
    let mut cfg = MachineConfig::default();
    cfg.iq_int_entries = 6;
    cfg.lsq_entries = 8;
    let region = RegionBuilder::new(0, "mix")
        .load(r(2), r(1))
        .alu(r(3), &[r(2)])
        .store(r(1), r(3))
        .branch(r(3))
        .build();
    let uops = expand(&region, 100, miss_heavy);
    let stats = run(&cfg, &uops, &mut RoundRobin(0));
    assert_eq!(stats.committed_uops, uops.len() as u64);
    let dispatched: u64 = stats.clusters.iter().map(|c| c.dispatched).sum();
    assert_eq!(dispatched, stats.committed_uops);
    assert_eq!(stats.copies_generated, stats.copies_delivered);
    assert_eq!(stats.branches, 100);
}
