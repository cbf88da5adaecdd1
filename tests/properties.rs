//! Property-based tests (proptest) over randomly generated regions and
//! traces: structural invariants of the analyses, validity of every
//! partitioner's output, and conservation laws of the simulator under
//! arbitrary (even adversarial) steering.

use proptest::prelude::*;
use virtclust::compiler::{
    identify_chains, GreedyPlacer, PlacerConfig, RhopConfig, RhopPartitioner,
};
use virtclust::core::{replay_trace, run_point, Configuration, EvalDriver, EvalJob};
use virtclust::ddg::{Criticality, Ddg};
use virtclust::sim::{
    LoadCheck, Lsq, RunLimits, SimSession, SteerDecision, SteerView, SteeringPolicy,
};
use virtclust::trace::{Codec, TraceReader, TraceWriter};
use virtclust::uarch::{
    ArchReg, DynUop, LatencyModel, MachineConfig, OpClass, Program, Region, SliceTrace, StaticInst,
    SteerHint, TraceSource, VecTrace,
};
use virtclust::workloads::{spec2000_points, KernelParams, TraceExpander, TracePoint};

/// Strategy: a random static instruction over a small register window.
fn inst_strategy() -> impl Strategy<Value = StaticInst> {
    let reg = (0u8..8).prop_map(ArchReg::int);
    let freg = (0u8..8).prop_map(ArchReg::flt);
    prop_oneof![
        // Integer compute
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(d, a, b)| StaticInst::new(
            OpClass::IntAlu,
            &[a, b],
            Some(d)
        )),
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(d, a, b)| StaticInst::new(
            OpClass::IntMul,
            &[a, b],
            Some(d)
        )),
        // FP compute
        (freg.clone(), freg.clone(), freg.clone()).prop_map(|(d, a, b)| StaticInst::new(
            OpClass::FpAdd,
            &[a, b],
            Some(d)
        )),
        // Memory
        (reg.clone(), reg.clone()).prop_map(|(d, a)| StaticInst::new(OpClass::Load, &[a], Some(d))),
        (reg.clone(), reg.clone()).prop_map(|(a, v)| StaticInst::new(
            OpClass::Store,
            &[a, v],
            None
        )),
        // Branch
        reg.clone()
            .prop_map(|c| StaticInst::new(OpClass::Branch, &[c], None)),
    ]
}

/// Strategy: a random steering annotation (the static side the trace
/// format must round-trip along with the dynamic facts).
fn hint_strategy() -> impl Strategy<Value = SteerHint> {
    prop_oneof![
        (0u8..1).prop_map(|_| SteerHint::None),
        (0u8..4).prop_map(|cluster| SteerHint::Static { cluster }),
        (0u8..8).prop_map(|bits| SteerHint::Vc {
            vc: bits >> 1,
            leader: bits & 1 == 1,
        }),
    ]
}

fn region_strategy(max_len: usize) -> impl Strategy<Value = Region> {
    prop::collection::vec(inst_strategy(), 1..max_len).prop_map(|insts| {
        let mut r = Region::new(0, "prop");
        for i in insts {
            r.push(i);
        }
        r
    })
}

/// A policy that steers by an arbitrary (but deterministic) hash of the
/// sequence number — the adversarial case for the copy machinery.
struct HashSteer {
    clusters: u8,
}
impl SteeringPolicy for HashSteer {
    fn name(&self) -> String {
        "hash-steer".into()
    }
    fn steer(&mut self, uop: &DynUop, _view: &SteerView<'_>) -> SteerDecision {
        let h = uop.seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        SteerDecision::Cluster((h % u64::from(self.clusters)) as u8)
    }
}

fn expand(region: &Region, iters: usize) -> Vec<DynUop> {
    let mut uops = Vec::new();
    let mut seq = 0;
    for it in 0..iters {
        seq = virtclust::uarch::trace::expand_region(
            region,
            seq,
            &mut uops,
            |s, _| 0x1000 + (s % 128) * 8,
            |s, _| !(s + it as u64).is_multiple_of(3),
        );
    }
    uops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn criticality_invariants_hold(region in region_strategy(40)) {
        let ddg = Ddg::from_region(&region, &LatencyModel::default());
        ddg.check_invariants().unwrap();
        let crit = Criticality::compute(&ddg);
        for i in 0..ddg.n() as u32 {
            // criticality = depth + height, bounded by the critical path.
            prop_assert_eq!(
                crit.criticality[i as usize],
                crit.depth[i as usize] + crit.height[i as usize]
            );
            prop_assert!(crit.criticality[i as usize] <= crit.cp_length);
            // Edges can only increase depth downstream.
            for &s in ddg.succs(i) {
                prop_assert!(
                    crit.depth[s as usize]
                        >= crit.depth[i as usize] + u64::from(ddg.latency(i))
                );
            }
            // height >= own latency.
            prop_assert!(crit.height[i as usize] >= u64::from(ddg.latency(i)));
        }
    }

    #[test]
    fn placers_emit_valid_partitions(region in region_strategy(40), k in 1u32..5) {
        let ddg = Ddg::from_region(&region, &LatencyModel::default());
        let crit = Criticality::compute(&ddg);
        let greedy = GreedyPlacer::new(PlacerConfig::new(k)).place(&ddg, &crit);
        prop_assert!(greedy.is_valid());
        prop_assert_eq!(greedy.n(), ddg.n());
        let rhop = RhopPartitioner::new(RhopConfig::new(k)).partition(&ddg, &crit);
        prop_assert!(rhop.is_valid());
        prop_assert_eq!(rhop.n(), ddg.n());
    }

    #[test]
    fn chains_partition_each_vc(region in region_strategy(40), k in 1u32..4) {
        let ddg = Ddg::from_region(&region, &LatencyModel::default());
        let crit = Criticality::compute(&ddg);
        let parts = GreedyPlacer::new(PlacerConfig::new(k)).place(&ddg, &crit);
        let chains = identify_chains(&ddg, &parts, None);
        let mut seen = vec![false; ddg.n()];
        for c in &chains {
            prop_assert!(!c.members.is_empty());
            prop_assert_eq!(c.leader(), c.members[0]);
            for &m in &c.members {
                prop_assert!(!seen[m as usize], "node in two chains");
                seen[m as usize] = true;
                prop_assert_eq!(parts.part(m), c.vc);
            }
            // Members ascend in program order.
            prop_assert!(c.members.windows(2).all(|w| w[0] < w[1]));
        }
        prop_assert!(seen.iter().all(|&s| s), "every node belongs to a chain");
    }

    #[test]
    fn simulator_conserves_uops_under_adversarial_steering(
        region in region_strategy(24),
        clusters in 1usize..5,
        iters in 1usize..6,
    ) {
        let uops = expand(&region, iters);
        let total = uops.len() as u64;
        let mut trace = VecTrace::new(uops);
        let cfg = MachineConfig::default().with_clusters(clusters);
        let mut policy = HashSteer { clusters: clusters as u8 };
        let stats = SimSession::new(&cfg).run(&mut trace, &mut policy, &RunLimits::unlimited());
        prop_assert_eq!(stats.committed_uops, total, "lost micro-ops");
        prop_assert_eq!(stats.copies_generated, stats.copies_delivered);
        prop_assert!(stats.cycles > 0 || total == 0);
        let dispatched: u64 = stats.clusters.iter().map(|c| c.dispatched).sum();
        prop_assert_eq!(dispatched, total);
    }

    #[test]
    fn reused_session_is_bit_identical_to_fresh_machines(
        region in region_strategy(24),
        iters in 1usize..5,
        cluster_seq in prop::collection::vec(1usize..5, 2..5),
    ) {
        // One SimSession serves a random sequence of runs with mixed
        // cluster counts (2-/4-/3-cluster machines interleaved) and a
        // rewound trace; every run must be bit-identical to a fresh
        // `SimSession::new` run of the same cell. This is the session-reuse
        // contract the batch engine is built on.
        let uops = expand(&region, iters);
        let mut session = SimSession::new(&MachineConfig::default());
        let mut reused_trace = SliceTrace::new(&uops);
        for &clusters in &cluster_seq {
            let cfg = MachineConfig::default().with_clusters(clusters);
            let fresh = {
                let mut trace = SliceTrace::new(&uops);
                let mut policy = HashSteer { clusters: clusters as u8 };
                SimSession::new(&cfg).run(&mut trace, &mut policy, &RunLimits::unlimited())
            };
            let reused = {
                reused_trace.rewind().expect("slice traces rewind");
                let mut policy = HashSteer { clusters: clusters as u8 };
                session.simulate(&cfg, &mut reused_trace, &mut policy, &RunLimits::unlimited())
            };
            prop_assert_eq!(fresh, reused, "{} clusters", clusters);
        }
    }

    #[test]
    fn simulation_is_deterministic(region in region_strategy(24), clusters in 1usize..4) {
        let uops = expand(&region, 3);
        let run = || {
            let mut trace = VecTrace::new(uops.clone());
            let cfg = MachineConfig::default().with_clusters(clusters);
            let mut policy = HashSteer { clusters: clusters as u8 };
            SimSession::new(&cfg).run(&mut trace, &mut policy, &RunLimits::unlimited())
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn trace_codecs_roundtrip_the_dynamic_stream_exactly(
        region in region_strategy(32),
        hints in prop::collection::vec(hint_strategy(), 32..33),
        iters in 1usize..6,
    ) {
        // Random annotations on the static side: hints live in the program
        // section and must round-trip along with the dynamic facts.
        let mut region = region;
        for (inst, hint) in region.insts.iter_mut().zip(hints) {
            inst.hint = hint;
        }
        let mut program = Program::new("prop");
        program.add_region(region);
        let uops = expand(&program.regions[0], iters);
        for codec in [Codec::Text, Codec::Binary] {
            let mut buf = Vec::new();
            let mut w = TraceWriter::new(&mut buf, &program, codec, Some(uops.len() as u64))
                .expect("writer");
            for u in &uops {
                w.write_uop(u).expect("write");
            }
            w.finish().expect("finish");
            let mut reader = TraceReader::new(std::io::Cursor::new(&buf)).expect("reader");
            prop_assert_eq!(reader.program(), &program, "{:?}", codec);
            let back = reader.read_all().expect("read");
            prop_assert_eq!(&back, &uops, "{:?}", codec);
        }
    }

    #[test]
    fn edge_cut_is_zero_iff_parts_agree_on_every_edge(
        region in region_strategy(32),
        k in 2u32..4,
    ) {
        let ddg = Ddg::from_region(&region, &LatencyModel::default());
        let crit = Criticality::compute(&ddg);
        let parts = GreedyPlacer::new(PlacerConfig::new(k)).place(&ddg, &crit);
        let cut = parts.edge_cut(&ddg);
        let disagree = ddg
            .edges()
            .iter()
            .filter(|e| parts.part(e.from) != parts.part(e.to))
            .count();
        prop_assert_eq!(cut, disagree);
    }
}

/// One randomly scripted operation against a [`Lsq`] (applied only when
/// valid for the current queue state).
#[derive(Debug, Clone, Copy)]
struct LsqScript {
    is_store: bool,
    /// Index into the aliasing line set (includes pairs of distinct lines
    /// that collide onto one index bucket).
    line: u8,
    offset: u8,
    addr_known: bool,
    data_ready: bool,
    freed: bool,
}

fn lsq_script_strategy() -> impl Strategy<Value = Vec<LsqScript>> {
    prop::collection::vec(
        (0u8..2, 0u8..6, 0u8..4, 0u8..8).prop_map(|(is_store, line, offset, flags)| LsqScript {
            is_store: is_store == 1,
            line,
            offset,
            addr_known: flags & 1 != 0,
            data_ready: flags & 2 != 0,
            freed: flags & 4 != 0,
        }),
        1..48,
    )
}

/// Map the small line index to real line numbers, deliberately including
/// pairs that collide modulo the LSQ index's bucket count (64): lines 0/64
/// and 1/65 share a bucket but must never cross-match.
fn lsq_addr(line: u8, offset: u8) -> u64 {
    let line_no: u64 = [0, 1, 2, 64, 65, 128][line as usize];
    line_no * 64 + u64::from(offset) * 8
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Differential property for the tentpole LSQ index: drive random
    // same-line/aliasing op scripts through the indexed `Lsq` and compare
    // EVERY load check against the linear-scan reference implementation,
    // through address arrival, data-ready transitions and frees.
    // Runs the comparison explicitly, so it has teeth in release builds
    // too (debug builds additionally assert the same equivalence inside
    // every `check_load`).
    #[test]
    fn indexed_lsq_is_bit_identical_to_scan(script in lsq_script_strategy()) {
        let mut lsq = Lsq::new(script.len().max(1));
        // Allocate in program order; sprinkle seq gaps like real dispatch.
        let seqs: Vec<u64> = script.iter().enumerate().map(|(i, _)| 3 * i as u64 + 1).collect();
        for (op, &seq) in script.iter().zip(&seqs) {
            lsq.alloc(seq, op.is_store);
        }
        let compare_all = |lsq: &Lsq| -> Result<(), TestCaseError> {
            for &seq in seqs.iter().chain([0, u64::MAX].iter()) {
                for line in 0..6u8 {
                    for offset in 0..4u8 {
                        let addr = lsq_addr(line, offset);
                        prop_assert_eq!(
                            lsq.check_load(seq, addr),
                            lsq.check_load_scan(seq, addr),
                            "seq {} addr {:#x}", seq, addr
                        );
                    }
                }
            }
            Ok(())
        };
        for (op, &seq) in script.iter().zip(&seqs) {
            if op.addr_known {
                lsq.set_addr(seq, lsq_addr(op.line, op.offset));
            }
            if op.is_store && op.data_ready {
                lsq.set_data_ready(seq);
            }
        }
        compare_all(&lsq)?;
        for (op, &seq) in script.iter().zip(&seqs) {
            if op.freed {
                lsq.free(seq);
            }
        }
        compare_all(&lsq)?;
        // The index retains exactly the alive, address-known stores.
        let expected_indexed = script
            .iter()
            .filter(|op| op.is_store && op.addr_known && !op.freed)
            .count();
        prop_assert_eq!(lsq.indexed_stores(), expected_indexed);
        // Reset reuse leaves no stale bucket behind.
        lsq.reset(script.len().max(1));
        prop_assert_eq!(lsq.indexed_stores(), 0);
        lsq.alloc(1, false);
        for line in 0..6u8 {
            prop_assert_eq!(lsq.check_load(1, lsq_addr(line, 0)), LoadCheck::GoToCache);
        }
    }
}

proptest! {
    // Fewer cases: each one simulates 8 schemes × 3 machines twice, with
    // the per-cycle debug cross-checks doing the heavy verification.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn wakeup_issue_is_bit_identical_to_scan(
        region in region_strategy(28),
        hints in prop::collection::vec(hint_strategy(), 28..29),
        iters in 1usize..4,
    ) {
        // The wakeup/select refactor replaced the per-cycle issue-queue
        // readiness scan with dependency-driven wakeup lists; debug builds
        // (this test runs as one) assert the wakeup-derived ready ring
        // against the full readiness scan every cycle in every cluster and
        // queue, and assert the incrementally maintained occupancy counters
        // against the queues' own books. Driving the Table 3 schemes plus
        // the ablations across 2-/4-/8-cluster machines over random hinted
        // programs exercises those checks; the fresh-vs-reused equality
        // additionally pins full `SimStats` bit-identity.
        let mut region = region;
        for (inst, hint) in region.insts.iter_mut().zip(hints) {
            inst.hint = hint;
        }
        let schemes = [
            Configuration::Op,
            Configuration::OpParallel,
            Configuration::OneCluster,
            Configuration::Ob,
            Configuration::Rhop,
            Configuration::Vc { num_vcs: 2 },
            Configuration::ModN { slice: 3 },
            Configuration::OpNoStall,
        ];
        let mut session = SimSession::new(&MachineConfig::default());
        for clusters in [2usize, 4, 8] {
            let machine = MachineConfig::default().with_clusters(clusters);
            for config in schemes {
                let mut program = Program::new("prop");
                program.add_region(region.clone());
                config
                    .software_pass(clusters as u32)
                    .apply(&mut program, &machine.latencies);
                let uops = expand(&program.regions[0], iters);
                let fresh = {
                    let mut trace = SliceTrace::new(&uops);
                    let mut policy = config.make_policy();
                    SimSession::new(&machine).run(&mut trace, policy.as_mut(), &RunLimits::unlimited())
                };
                let reused = {
                    let mut trace = SliceTrace::new(&uops);
                    let mut policy = config.make_policy();
                    session.simulate(&machine, &mut trace, policy.as_mut(), &RunLimits::unlimited())
                };
                prop_assert_eq!(
                    &fresh, &reused,
                    "{} on {} clusters", config.name(clusters as u32), clusters
                );
                prop_assert_eq!(fresh.committed_uops, uops.len() as u64);
                prop_assert_eq!(fresh.copies_generated, fresh.copies_delivered);
            }
        }
    }
}

/// Memory-dense random region: every other slot a load or store, so the
/// LSQ index and the memory stage see sustained pressure.
fn mem_heavy_region_strategy(max_len: usize) -> impl Strategy<Value = Region> {
    let reg = (0u8..8).prop_map(ArchReg::int);
    let mem = prop_oneof![
        (reg.clone(), reg.clone()).prop_map(|(d, a)| StaticInst::new(OpClass::Load, &[a], Some(d))),
        (reg.clone(), reg.clone()).prop_map(|(a, v)| StaticInst::new(
            OpClass::Store,
            &[a, v],
            None
        )),
    ];
    prop::collection::vec((inst_strategy(), mem), 1..max_len / 2).prop_map(|pairs| {
        let mut r = Region::new(0, "mem-prop");
        for (a, b) in pairs {
            r.push(a);
            r.push(b);
        }
        r
    })
}

/// Address model with heavy line aliasing plus index-bucket collisions
/// (line numbers 0/64 and 1/65 share an LSQ index bucket): repeated exact
/// addresses across iterations make store-to-load forwarding and
/// WaitOnStore paths reachable.
fn aliasing_addr(s: u64) -> u64 {
    let line: u64 = [0, 1, 2, 64, 65, 128][(s % 6) as usize];
    line * 64 + ((s / 6) % 8) * 8
}

proptest! {
    // Each case simulates 8 schemes × 3 machines twice; the per-dispatch
    // debug cross-checks (`debug_assert_steering_view_matches_rebuild`,
    // the scan-vs-index assert inside every `Lsq::check_load`, and the
    // ready-ring mirrors) do the heavy verification.
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The tentpole's second prong: the incrementally maintained steering
    // view (live location masks, occupancy counters, busy/full bit masks)
    // must be indistinguishable from a per-uop rebuild. Debug builds
    // assert the view against a from-scratch reconstruction every dispatch
    // cycle; this property drives those checks across random hinted
    // programs × all schemes × 2/4/8-cluster machines under memory-dense
    // aliasing traffic, and pins full-stats bit-identity fresh-vs-reused.
    #[test]
    fn incremental_steering_view_matches_rebuild(
        region in mem_heavy_region_strategy(24),
        hints in prop::collection::vec(hint_strategy(), 24..25),
        iters in 1usize..4,
    ) {
        let mut region = region;
        for (inst, hint) in region.insts.iter_mut().zip(hints) {
            inst.hint = hint;
        }
        let schemes = [
            Configuration::Op,
            Configuration::OpParallel,
            Configuration::OneCluster,
            Configuration::Ob,
            Configuration::Rhop,
            Configuration::Vc { num_vcs: 2 },
            Configuration::ModN { slice: 3 },
            Configuration::OpNoStall,
        ];
        let mut session = SimSession::new(&MachineConfig::default());
        for clusters in [2usize, 4, 8] {
            let machine = MachineConfig::default().with_clusters(clusters);
            for config in schemes {
                let mut program = Program::new("mem-prop");
                program.add_region(region.clone());
                config
                    .software_pass(clusters as u32)
                    .apply(&mut program, &machine.latencies);
                let mut uops = Vec::new();
                let mut seq = 0;
                for it in 0..iters {
                    seq = virtclust::uarch::trace::expand_region(
                        &program.regions[0],
                        seq,
                        &mut uops,
                        |s, _| aliasing_addr(s),
                        |s, _| !(s + it as u64).is_multiple_of(3),
                    );
                }
                let fresh = {
                    let mut trace = SliceTrace::new(&uops);
                    let mut policy = config.make_policy();
                    SimSession::new(&machine).run(&mut trace, policy.as_mut(), &RunLimits::unlimited())
                };
                let reused = {
                    let mut trace = SliceTrace::new(&uops);
                    let mut policy = config.make_policy();
                    session.simulate(&machine, &mut trace, policy.as_mut(), &RunLimits::unlimited())
                };
                prop_assert_eq!(
                    &fresh, &reused,
                    "{} on {} clusters", config.name(clusters as u32), clusters
                );
                prop_assert_eq!(fresh.committed_uops, uops.len() as u64);
            }
        }
    }

    // The cycle-skipping contract: advancing `now` over a provably idle
    // span — every per-cycle counter replicated arithmetically, and
    // pure-policy dispatch stalls probed instead of stepped — must be
    // invisible in the statistics. Random hinted programs run through all
    // eight schemes on 2/4/8-cluster machines under two address models
    // (line-aliasing store/load traffic, and a stride that misses every
    // cache level and maximises idle spans); a skipping run must produce
    // `SimStats` bit-identical to a forced single-stepping run, from a
    // reused session and from a fresh machine alike. Debug builds
    // additionally single-step a mirror of every skipped span inside the
    // session and assert the replicated counters cycle by cycle.
    #[test]
    fn cycle_skipping_is_bit_identical_to_stepping(
        region in mem_heavy_region_strategy(24),
        hints in prop::collection::vec(hint_strategy(), 24..25),
        iters in 1usize..4,
        far_misses in (0u8..2).prop_map(|b| b == 1),
    ) {
        let mut region = region;
        for (inst, hint) in region.insts.iter_mut().zip(hints) {
            inst.hint = hint;
        }
        let schemes = [
            Configuration::Op,
            Configuration::OpParallel,
            Configuration::OneCluster,
            Configuration::Ob,
            Configuration::Rhop,
            Configuration::Vc { num_vcs: 2 },
            Configuration::ModN { slice: 3 },
            Configuration::OpNoStall,
        ];
        let addr = move |s: u64| {
            if far_misses {
                (s.wrapping_mul(4096)) % (1 << 30)
            } else {
                aliasing_addr(s)
            }
        };
        let mut stepping = SimSession::new(&MachineConfig::default());
        stepping.set_cycle_skipping(false);
        let mut skipping = SimSession::new(&MachineConfig::default());
        skipping.set_cycle_skipping(true);
        for clusters in [2usize, 4, 8] {
            let machine = MachineConfig::default().with_clusters(clusters);
            for config in schemes {
                let mut program = Program::new("skip-prop");
                program.add_region(region.clone());
                config
                    .software_pass(clusters as u32)
                    .apply(&mut program, &machine.latencies);
                let mut uops = Vec::new();
                let mut seq = 0;
                for it in 0..iters {
                    seq = virtclust::uarch::trace::expand_region(
                        &program.regions[0],
                        seq,
                        &mut uops,
                        |s, _| addr(s),
                        |s, _| !(s + it as u64).is_multiple_of(3),
                    );
                }
                let run = |session: &mut SimSession| {
                    let mut trace = SliceTrace::new(&uops);
                    let mut policy = config.make_policy();
                    session.simulate(&machine, &mut trace, policy.as_mut(), &RunLimits::unlimited())
                };
                let strict = run(&mut stepping);
                let skipped = run(&mut skipping);
                prop_assert_eq!(
                    &strict, &skipped,
                    "skip-on vs skip-off (reused): {} on {} clusters",
                    config.name(clusters as u32), clusters
                );
                let fresh_strict = {
                    let mut session = SimSession::new(&machine);
                    session.set_cycle_skipping(false);
                    let mut trace = SliceTrace::new(&uops);
                    let mut policy = config.make_policy();
                    session.run(&mut trace, policy.as_mut(), &RunLimits::unlimited())
                };
                prop_assert_eq!(
                    &strict, &fresh_strict,
                    "fresh stepping machine: {} on {} clusters",
                    config.name(clusters as u32), clusters
                );
            }
        }
    }
}

/// Hides the inner policy's purity declaration: decisions delegate, but
/// `steer_is_pure` keeps the trait default `false`, forcing the session
/// onto the per-cycle re-steer path — no epoch-batched dispatch plan, no
/// policy-dependent idle spans. For a genuinely pure policy the elided
/// and extra calls are unobservable by the purity contract, so routing
/// the same policy through the shim must not change a single statistic.
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

proptest! {
    // Each case simulates 8 schemes × 3 machines × skip on/off, twice
    // per cell (memoized vs shimmed) — keep the case count low and let
    // the debug-build plan mirror do the per-cycle heavy lifting.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn epoch_batched_dispatch_is_bit_identical_to_per_cycle(
        region in region_strategy(28),
        hints in prop::collection::vec(hint_strategy(), 28..29),
        iters in 1usize..4,
    ) {
        // The dispatch-plan memo replays a pure policy's stall
        // classification across the cycles of an epoch instead of
        // re-deriving it. Differential oracle: the same scheme behind
        // `ImpureShim` takes the plain per-cycle path (memo and
        // policy-span skipping are keyed on `steer_is_pure`), so full
        // `SimStats` equality pins the batching to pure elision — across
        // every Table 3 scheme plus the ablations, 2/4/8 clusters,
        // cycle skipping forced on and off, and fresh vs reused sessions
        // (the reused pair also proves plan state cannot leak between
        // runs through `reset`).
        let mut region = region;
        for (inst, hint) in region.insts.iter_mut().zip(hints) {
            inst.hint = hint;
        }
        let schemes = [
            Configuration::Op,
            Configuration::OpParallel,
            Configuration::OneCluster,
            Configuration::Ob,
            Configuration::Rhop,
            Configuration::Vc { num_vcs: 2 },
            Configuration::ModN { slice: 3 },
            Configuration::OpNoStall,
        ];
        let mut memo_session = SimSession::new(&MachineConfig::default());
        let mut plain_session = SimSession::new(&MachineConfig::default());
        for clusters in [2usize, 4, 8] {
            let machine = MachineConfig::default().with_clusters(clusters);
            for config in schemes {
                let mut program = Program::new("prop");
                program.add_region(region.clone());
                config
                    .software_pass(clusters as u32)
                    .apply(&mut program, &machine.latencies);
                let uops = expand(&program.regions[0], iters);
                for skip in [true, false] {
                    memo_session.set_cycle_skipping(skip);
                    plain_session.set_cycle_skipping(skip);
                    let fresh_memo = {
                        let mut session = SimSession::new(&machine);
                        session.set_cycle_skipping(skip);
                        let mut trace = SliceTrace::new(&uops);
                        let mut policy = config.make_policy();
                        session.simulate(
                            &machine, &mut trace, policy.as_mut(), &RunLimits::unlimited(),
                        )
                    };
                    let fresh_plain = {
                        let mut session = SimSession::new(&machine);
                        session.set_cycle_skipping(skip);
                        let mut trace = SliceTrace::new(&uops);
                        let mut policy = ImpureShim(config.make_policy());
                        session.simulate(
                            &machine, &mut trace, &mut policy, &RunLimits::unlimited(),
                        )
                    };
                    let reused_memo = {
                        let mut trace = SliceTrace::new(&uops);
                        let mut policy = config.make_policy();
                        memo_session.simulate(
                            &machine, &mut trace, policy.as_mut(), &RunLimits::unlimited(),
                        )
                    };
                    let reused_plain = {
                        let mut trace = SliceTrace::new(&uops);
                        let mut policy = ImpureShim(config.make_policy());
                        plain_session.simulate(
                            &machine, &mut trace, &mut policy, &RunLimits::unlimited(),
                        )
                    };
                    prop_assert_eq!(
                        &fresh_memo, &fresh_plain,
                        "fresh memo vs per-cycle: {} on {} clusters, skip={}",
                        config.name(clusters as u32), clusters, skip
                    );
                    prop_assert_eq!(
                        &reused_memo, &reused_plain,
                        "reused memo vs per-cycle: {} on {} clusters, skip={}",
                        config.name(clusters as u32), clusters, skip
                    );
                    prop_assert_eq!(
                        &fresh_memo, &reused_memo,
                        "fresh vs reused: {} on {} clusters, skip={}",
                        config.name(clusters as u32), clusters, skip
                    );
                }
            }
        }
    }
}

/// A kernel job's uncached reference: clear the program's hints, run the
/// configuration's pass by hand, expand and simulate on a fresh machine.
fn hand_annotated_kernel_run(
    program: &Program,
    seed: u64,
    config: &Configuration,
    machine: &MachineConfig,
    uops: u64,
) -> virtclust::sim::SimStats {
    let mut annotated = program.clone();
    annotated.clear_hints();
    config
        .software_pass(machine.num_clusters as u32)
        .apply(&mut annotated, &machine.latencies);
    let mut trace = TraceExpander::new(&annotated, &KernelParams::base_int(), seed);
    let mut policy = config.make_policy();
    SimSession::new(machine).run(&mut trace, policy.as_mut(), &RunLimits::uops(uops))
}

proptest! {
    // Each case drains its job list three times, and a job runs a few
    // hundred micro-ops plus, on a miss, a compiler pass.
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The batch engine compiles once per (source, configuration) key in a
    // drain and reuses the pass's hints. Differential oracle: every job
    // of a random list, drained by 1, 2 and 8 workers, must equal its
    // uncached reference — `run_point`, `replay_trace`, or a
    // hand-annotated expander run. Each list runs twice over, so keys
    // repeat. The pool holds two suite points under one name (they
    // differ in `program_seed`), two kernels with the same instructions
    // under different stale hints (one key: hints are cleared first), a
    // second kernel program, and a text and a binary stored trace.
    #[test]
    fn compile_cache_is_bit_identical_to_uncached_runs(
        region in region_strategy(24),
        stale in prop::collection::vec(hint_strategy(), 24..25),
        other in region_strategy(12),
        picks in prop::collection::vec((0usize..7, 0usize..5, 150u64..450), 3..9),
    ) {
        let machine = MachineConfig::paper_2cluster();
        let gzip = spec2000_points().into_iter().find(|p| p.name == "gzip-1").expect("suite point");
        let reseeded = TracePoint { program_seed: gzip.program_seed + 1, ..gzip.clone() };
        let kernel = |region: &Region, hints: &[SteerHint]| {
            let mut program = Program::new("prop-kernel");
            program.add_region(region.clone());
            for (inst, &hint) in program.regions[0].insts.iter_mut().zip(hints) {
                inst.hint = hint;
            }
            program
        };
        let kernels = [
            kernel(&region, &stale),
            kernel(&region, &[]),
            kernel(&other, &stale),
        ];
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/results/traces/");
        let traces = [format!("{corpus}gzip-1.vct"), format!("{corpus}galgel.vctb")];

        let mut jobs = Vec::new();
        let mut reference = Vec::new();
        for &(source, scheme, uops) in &picks {
            let config = Configuration::table3()[scheme];
            let (job, direct) = match source {
                0 | 1 => {
                    let point = if source == 0 { &gzip } else { &reseeded };
                    let job = EvalJob::Point { point: point.clone(), config, uops };
                    (job, run_point(point, &config, &machine, uops))
                }
                2..=4 => {
                    let program = kernels[source - 2].clone();
                    let direct = hand_annotated_kernel_run(&program, uops, &config, &machine, uops);
                    let params = KernelParams::base_int();
                    (EvalJob::Kernel { program, params, seed: uops, config, uops }, direct)
                }
                _ => {
                    let path = &traces[source - 5];
                    let limits = RunLimits::uops(uops);
                    let direct = replay_trace(path, &config, &machine, &limits).expect("corpus");
                    (EvalJob::Trace { path: path.into(), config, limits }, direct)
                }
            };
            jobs.push(job);
            reference.push(direct);
        }
        jobs.extend_from_within(..);
        reference.extend_from_within(..);

        for threads in [1, 2, 8] {
            let outcomes = EvalDriver::new(&machine).threads(threads).run(&jobs);
            for (i, (outcome, want)) in outcomes.iter().zip(&reference).enumerate() {
                prop_assert_eq!(
                    outcome.stats.as_ref().expect("job runs"), want,
                    "job {} ({}) with {} workers", i, jobs[i].label(2), threads
                );
            }
        }
    }
}
