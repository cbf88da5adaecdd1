//! Bring your own kernel: write a region with `RegionBuilder`, run the
//! whole pipeline — DDG analysis, virtual-cluster partitioning, chain
//! identification, trace expansion, cycle-level simulation — and inspect
//! each stage. This is the downstream-user API tour.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use virtclust::compiler::{SoftwarePass, VcConfig};
use virtclust::ddg::{Criticality, Ddg};
use virtclust::sim::{RunLimits, SimSession};
use virtclust::steer::VcMapper;
use virtclust::uarch::{ArchReg, LatencyModel, MachineConfig, Program, RegionBuilder, VecTrace};

fn main() {
    let r = ArchReg::int;
    let f = ArchReg::flt;

    // A hand-written kernel: an integer recurrence, an independent FP
    // stream, and a store that ties them together.
    let region = RegionBuilder::new(0, "my_kernel")
        .alu(r(2), &[r(2), r(0)]) // i += 1           (recurrence)
        .load(r(3), r(2)) //          x = a[i]
        .fmul(f(1), f(1), f(0)) //    acc *= c        (independent FP chain)
        .fadd(f(2), f(1), f(0)) //    t = acc + c
        .alu(r(4), &[r(3), r(2)]) //  y = x + i
        .store(r(4), r(3)) //         b[y] = x
        .branch(r(2)) //              loop
        .build();
    println!("== static region ==\n{region}");

    // Stage 1: dependence analysis.
    let lat = LatencyModel::default();
    let ddg = Ddg::from_region(&region, &lat);
    let crit = Criticality::compute(&ddg);
    println!(
        "== criticality (critical path = {} cycles) ==",
        crit.cp_length
    );
    for i in 0..ddg.n() as u32 {
        println!(
            "  inst {i}: depth={} height={} slack={}{}",
            crit.depth[i as usize],
            crit.height[i as usize],
            crit.slack(i),
            if crit.is_critical(i) {
                "  <- critical"
            } else {
                ""
            }
        );
    }

    // Stage 2: the virtual-cluster pass annotates the program.
    let mut program = Program::new("custom");
    program.add_region(region);
    SoftwarePass::Vc(VcConfig::new(2)).apply(&mut program, &lat);
    println!(
        "\n== after VC partitioning (vc ids + chain leaders) ==\n{}",
        program.regions[0]
    );

    // Stage 3: expand a trace (200 iterations) and simulate.
    let mut uops = Vec::new();
    let mut seq = 0;
    for it in 0..200u64 {
        seq = virtclust::uarch::trace::expand_region(
            &program.regions[0],
            seq,
            &mut uops,
            |s, _| 0x4000 + (s % 512) * 8,
            |_, _| it != 199, // loop branch: taken until the last iteration
        );
    }
    let mut trace = VecTrace::new(uops);
    let mut policy = VcMapper::new(2);
    let stats = SimSession::new(&MachineConfig::paper_2cluster()).run(
        &mut trace,
        &mut policy,
        &RunLimits::unlimited(),
    );
    println!("== simulation ==\n  {}", stats.summary());
    println!(
        "  cluster uops: {:?}  (mapper remaps: {}, migrations: {})",
        stats
            .clusters
            .iter()
            .map(|c| c.dispatched)
            .collect::<Vec<_>>(),
        policy.remaps(),
        policy.migrations()
    );
}
