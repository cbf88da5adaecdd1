//! Quick profiling probe: wall time of memory-bound suite points plus a
//! synthetic LSQ-pressure kernel (deep queue + port-saturated load burst:
//! every queued load re-checks the LSQ each cycle until it wins a port).
use std::time::Instant;
use virtclust::core::{run_point, Configuration};
use virtclust::sim::{RunLimits, SimSession};
use virtclust::steer::OccupancyAware;
use virtclust::uarch::{ArchReg, MachineConfig, RegionBuilder, SliceTrace};
use virtclust::workloads::spec2000_points;

fn lsq_pressure(uops: usize) -> Vec<virtclust::uarch::DynUop> {
    let r = ArchReg::int;
    // Window shape: a serial L2-missing load throttles commit, then an
    // interleaved burst of independent L1-hitting loads and stores fills
    // the LSQ. The loads outnumber the cache's ports, so they sit in the
    // memory stage re-checking against the deep store population.
    let mut b = RegionBuilder::new(0, "lsqstress").load(r(1), r(1));
    for i in 0..60u8 {
        b = b
            .store(r(8 + i % 4), r(12 + i % 4))
            .load(r(2 + i % 4), r(6));
    }
    let region = b.build();
    let mut out = Vec::new();
    let mut seq = 0u64;
    while out.len() < uops {
        seq = virtclust::uarch::trace::expand_region(
            &region,
            seq,
            &mut out,
            |s, id| {
                if id.index == 0 {
                    0x4000_0000 + s * 8192 // serial head load: always misses
                } else if id.index % 2 == 1 {
                    0x2000 + (s % 96) * 64 + (s % 8) * 8 // stores: 96 lines
                } else {
                    0x800 + (s % 8) * 64 // burst loads: L1-resident lines
                }
            },
            |_, _| true,
        );
    }
    out
}

fn main() {
    let machine = MachineConfig::paper_2cluster();
    for name in ["mcf", "gzip-1"] {
        let point = spec2000_points()
            .into_iter()
            .find(|p| p.name == name)
            .unwrap();
        let t0 = Instant::now();
        let stats = run_point(&point, &Configuration::Op, &machine, 100_000);
        println!("{name}: cycles={} wall={:?}", stats.cycles, t0.elapsed());
    }
    let uops = lsq_pressure(60_000);
    let t0 = Instant::now();
    let mut trace = SliceTrace::new(&uops);
    let stats = SimSession::new(&machine).run(
        &mut trace,
        &mut OccupancyAware::new(),
        &RunLimits::unlimited(),
    );
    println!(
        "lsq-pressure: cycles={} ipc={:.3} fwd={} l2miss={} wall={:?} ({:.0} uops/s)",
        stats.cycles,
        stats.ipc(),
        stats.store_forwards,
        stats.l2_misses,
        t0.elapsed(),
        stats.committed_uops as f64 / t0.elapsed().as_secs_f64(),
    );
}
