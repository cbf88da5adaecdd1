//! The paper's Sec. 2.1 motivating example, executed on the real simulator:
//! why hardware steering must be *sequential* to avoid copies, and why that
//! serialization is the complexity problem the hybrid scheme removes.
//!
//! ```sh
//! cargo run --release --example sec21_motivation
//! ```

use virtclust::sim::{RunLimits, SimSession};
use virtclust::steer::OccupancyAware;
use virtclust::uarch::{ArchReg, MachineConfig, RegionBuilder, SliceTrace};

fn main() {
    let r = ArchReg::int;
    // I1: R1 <- R1 + R2 ; I2: R3 <- Load(R1) ; I3: R4 <- Load(R3)
    let region = RegionBuilder::new(0, "sec2.1")
        .alu(r(1), &[r(1), r(2)])
        .load(r(3), r(1))
        .load(r(4), r(3))
        .build();
    println!("{region}");

    let mut uops = Vec::new();
    virtclust::uarch::trace::expand_region(&region, 0, &mut uops, |_, _| 0x100, |_, _| true);

    for (label, mut policy) in [
        (
            "sequential steering (each decision sees the previous one)",
            OccupancyAware::new(),
        ),
        (
            "parallel steering (stale bundle-entry locations)",
            OccupancyAware::parallel(),
        ),
    ] {
        let mut trace = SliceTrace::new(&uops);
        let mut session = SimSession::new(&MachineConfig::paper_2cluster());
        // Initial placements (mirrored form of the paper's): r1 lives in
        // cluster 1; r2 and r3 live in cluster 0.
        session.place_register(r(1), 1);
        session.place_register(r(2), 0);
        session.place_register(r(3), 0);
        let stats = session.run(&mut trace, &mut policy, &RunLimits::unlimited());
        println!("{label}:");
        println!(
            "  copies generated = {}, cycles = {}\n",
            stats.copies_generated, stats.cycles
        );
    }

    println!(
        "The 2-copy difference is the paper's point: precise steering requires\n\
         knowing where the *previous* instruction just went, serializing the\n\
         steering logic across the decode bundle. The hybrid VC scheme removes\n\
         that serialization entirely — followers only read a mapping table."
    );
}
