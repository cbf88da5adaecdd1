//! The five steering configurations of the paper's Table 3, and the
//! single-point experiment runner.

use std::str::FromStr;

use virtclust_compiler::{SoftwarePass, VcConfig};
use virtclust_sim::{RunLimits, SimSession, SimStats, SteeringPolicy};
use virtclust_steer::{ModN, OccupancyAware, OneCluster, StaticFollow, VcMapper};
use virtclust_uarch::MachineConfig;
use virtclust_workloads::TracePoint;

use crate::compile::run_pass;

/// A steering configuration (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Configuration {
    /// Occupancy-aware hardware-only steering — the baseline all slowdowns
    /// are measured against.
    Op,
    /// The parallel (stale-location) variant of OP — Sec. 2.1's motivation,
    /// not part of Table 3 but reproduced for the complexity argument.
    OpParallel,
    /// Every instruction to cluster 0.
    OneCluster,
    /// SPDI operation-based software-only steering.
    Ob,
    /// RHOP multilevel-partitioning software-only steering.
    Rhop,
    /// The paper's hybrid virtual-cluster steering with `num_vcs` virtual
    /// clusters (`VC(v→c)` in Sec. 5.4's notation).
    Vc {
        /// Number of virtual clusters the compiler partitions into.
        num_vcs: u32,
    },
    /// Mod-N round-robin steering [Baniasadi & Moshovos '00] — a classic
    /// dependence-blind baseline, for ablations (not in Table 3).
    ModN {
        /// Slice length in micro-ops.
        slice: u64,
    },
    /// OP without the stall-over-steer rule — ablates the "stalling beats
    /// steering" insight of [González '04] / [Salverda & Zilles '05].
    OpNoStall,
}

impl Configuration {
    /// The compile-time pass this configuration needs (hardware-only
    /// configurations need none).
    pub fn software_pass(&self, clusters: u32) -> SoftwarePass {
        match *self {
            Configuration::Op
            | Configuration::OpParallel
            | Configuration::OneCluster
            | Configuration::ModN { .. }
            | Configuration::OpNoStall => SoftwarePass::None,
            Configuration::Ob => SoftwarePass::Ob { clusters },
            Configuration::Rhop => SoftwarePass::Rhop { clusters },
            Configuration::Vc { num_vcs } => SoftwarePass::Vc(VcConfig::new(num_vcs)),
        }
    }

    /// Instantiate the hardware steering policy.
    pub fn make_policy(&self) -> Box<dyn SteeringPolicy> {
        match *self {
            Configuration::Op => Box::new(OccupancyAware::new()),
            Configuration::OpParallel => Box::new(OccupancyAware::parallel()),
            Configuration::OneCluster => Box::new(OneCluster::new()),
            Configuration::Ob | Configuration::Rhop => Box::new(StaticFollow::new()),
            Configuration::Vc { num_vcs } => Box::new(VcMapper::new(num_vcs as usize)),
            Configuration::ModN { slice } => Box::new(ModN::new(slice)),
            Configuration::OpNoStall => Box::new(OccupancyAware::without_stall()),
        }
    }

    /// Display name; `clusters` disambiguates `VC(v→c)`.
    pub fn name(&self, clusters: u32) -> String {
        match *self {
            Configuration::Op => "OP".into(),
            Configuration::OpParallel => "OP-parallel".into(),
            Configuration::OneCluster => "one-cluster".into(),
            Configuration::Ob => "OB".into(),
            Configuration::Rhop => "RHOP".into(),
            Configuration::Vc { num_vcs } => format!("VC({num_vcs}->{clusters})"),
            Configuration::ModN { slice } => format!("mod-{slice}"),
            Configuration::OpNoStall => "OP-nostall".into(),
        }
    }

    /// The exact five configurations of Table 3, for a 2-cluster machine.
    pub fn table3() -> [Configuration; 5] {
        [
            Configuration::Op,
            Configuration::OneCluster,
            Configuration::Ob,
            Configuration::Rhop,
            Configuration::Vc { num_vcs: 2 },
        ]
    }
}

/// Scheme names, case-insensitive: `op`, `op-parallel`, `op-nostall`,
/// `1c`/`one-cluster`, `ob`, `rhop`, `vcN` with 1 ≤ N ≤ 64, and `modN`
/// with N ≥ 1. The one parser behind every scheme a user or client names
/// (`trace_replay --scheme`, the service wire); out-of-range counts are
/// errors here, not constructor panics later.
impl FromStr for Configuration {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let name = s.to_ascii_lowercase();
        let count = |prefix: &str| name.strip_prefix(prefix)?.parse::<u64>().ok();
        Ok(match name.as_str() {
            "op" => Configuration::Op,
            "op-parallel" => Configuration::OpParallel,
            "op-nostall" => Configuration::OpNoStall,
            "1c" | "one-cluster" => Configuration::OneCluster,
            "ob" => Configuration::Ob,
            "rhop" => Configuration::Rhop,
            _ => match (count("vc"), count("mod")) {
                (Some(n @ 1..=64), _) => Configuration::Vc { num_vcs: n as u32 },
                (_, Some(slice @ 1..)) => Configuration::ModN { slice },
                _ => return Err(format!("unknown scheme '{s}'")),
            },
        })
    }
}

/// Run one (trace point × configuration) cell: generate the point's
/// program, apply the configuration's software pass, expand the trace and
/// simulate `uops` micro-ops on `machine`.
pub fn run_point(
    point: &TracePoint,
    config: &Configuration,
    machine: &MachineConfig,
    uops: u64,
) -> SimStats {
    run_point_on(&mut SimSession::new(machine), point, config, machine, uops)
}

/// [`run_point`] on a caller-provided session: the one point path. It
/// builds the program and runs the pass on every call; the batch engine
/// runs it on a result-table miss and answers a repeat of the same key
/// from that table. `run_point` is this over a fresh session, and
/// sessions are bit-identical to fresh machines by contract.
pub fn run_point_on(
    session: &mut SimSession,
    point: &TracePoint,
    config: &Configuration,
    machine: &MachineConfig,
    uops: u64,
) -> SimStats {
    let mut program = point.build_program();
    run_pass(&mut program, config, machine);
    let mut trace = point.expander(&program);
    let mut policy = config.make_policy();
    session.simulate(machine, &mut trace, policy.as_mut(), &RunLimits::uops(uops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtclust_workloads::spec2000_points;

    #[test]
    fn table3_has_the_five_configurations() {
        let names: Vec<String> = Configuration::table3().iter().map(|c| c.name(2)).collect();
        assert_eq!(names, vec!["OP", "one-cluster", "OB", "RHOP", "VC(2->2)"]);
    }

    #[test]
    fn scheme_names_parse() {
        let named = [
            ("op", Configuration::Op),
            ("op-parallel", Configuration::OpParallel),
            ("op-nostall", Configuration::OpNoStall),
            ("1c", Configuration::OneCluster),
            ("one-cluster", Configuration::OneCluster),
            ("ob", Configuration::Ob),
            ("rhop", Configuration::Rhop),
            ("vc1", Configuration::Vc { num_vcs: 1 }),
            ("vc2", Configuration::Vc { num_vcs: 2 }),
            ("vc4", Configuration::Vc { num_vcs: 4 }),
            ("vc64", Configuration::Vc { num_vcs: 64 }),
            ("mod1", Configuration::ModN { slice: 1 }),
            ("mod64", Configuration::ModN { slice: 64 }),
        ];
        for (name, config) in named {
            assert_eq!(name.parse(), Ok(config), "{name}");
            assert_eq!(name.to_ascii_uppercase().parse(), Ok(config), "{name}");
        }
        assert_eq!("One-Cluster".parse(), Ok(Configuration::OneCluster));
        for bad in ["vc0", "VC0", "vc65", "mod0", "nope", "vc", "mod", ""] {
            let err = bad.parse::<Configuration>().unwrap_err();
            assert_eq!(err, format!("unknown scheme '{bad}'"));
        }
    }

    #[test]
    fn all_configurations_commit_the_same_instructions() {
        let points = spec2000_points();
        let point = points.iter().find(|p| p.name == "crafty").unwrap();
        let machine = MachineConfig::paper_2cluster();
        let budget = 3_000;
        let mut committed = Vec::new();
        for config in Configuration::table3() {
            let stats = run_point(point, &config, &machine, budget);
            committed.push(stats.committed_uops);
        }
        assert!(committed.iter().all(|&c| c == budget), "{committed:?}");
    }

    #[test]
    fn one_cluster_generates_zero_copies() {
        let points = spec2000_points();
        let point = &points[0];
        let machine = MachineConfig::paper_2cluster();
        let stats = run_point(point, &Configuration::OneCluster, &machine, 2_000);
        assert_eq!(stats.copies_generated, 0);
    }

    #[test]
    fn runs_are_reproducible() {
        let points = spec2000_points();
        let point = points.iter().find(|p| p.name == "gzip-1").unwrap();
        let machine = MachineConfig::paper_2cluster();
        let a = run_point(point, &Configuration::Vc { num_vcs: 2 }, &machine, 2_000);
        let b = run_point(point, &Configuration::Vc { num_vcs: 2 }, &machine, 2_000);
        assert_eq!(a, b);
    }

    #[test]
    fn vc_2_to_4_works_on_four_cluster_machine() {
        let points = spec2000_points();
        let point = points.iter().find(|p| p.name == "galgel").unwrap();
        let machine = MachineConfig::paper_4cluster();
        let stats = run_point(point, &Configuration::Vc { num_vcs: 2 }, &machine, 2_000);
        assert_eq!(stats.committed_uops, 2_000);
        assert_eq!(stats.clusters.len(), 4);
    }
}
