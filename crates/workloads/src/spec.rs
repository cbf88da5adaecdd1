//! The 40 SPEC CPU2000 trace points of the paper's Figure 5.
//!
//! The paper selects representative simulation points with PinPoints (10 M
//! instructions each, ≤ 10 phases per benchmark) and reports per-point
//! slowdowns: 26 SPECint points (`gzip-1`…`twolf`) and 14 SPECfp points
//! (`wupwise`…`apsi`). Here each point is a [`TracePoint`]: a benchmark
//! parameter set (chosen to match the real program's published structural
//! character), a per-point seed perturbation, and a PinPoints-style weight.
//!
//! Parameter rationale, per benchmark family:
//! * `mcf` — pointer-chasing, memory-bound, almost serial: clustering buys
//!   little, `one-cluster` is nearly free;
//! * `galgel` — wide independent FP loop nests: the paper's best VC case
//!   (up to 20% over software-only schemes);
//! * `gcc` — large static code footprint, branchy, modest ILP;
//! * `swim`/`art`/`lucas` — streaming FP with large footprints;
//! * `crafty`/`eon` — compute-dense, predictable, mid ILP; etc.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use virtclust_uarch::Program;

use crate::expand::TraceExpander;
use crate::gen::build_program;
use crate::params::{KernelParams, Suite};

/// One named simulation point (e.g. `gzip-2`).
#[derive(Debug, Clone)]
pub struct TracePoint {
    /// Point name as it appears in Fig. 5 (e.g. `"gzip-2"`).
    pub name: String,
    /// Benchmark family name (e.g. `"gzip"`).
    pub bench: &'static str,
    /// SPECint or SPECfp.
    pub suite: Suite,
    /// PinPoints weight of this point within its benchmark (the paper
    /// weights reported numbers by the PinPoints weights).
    pub weight: f64,
    /// Structural parameters of the synthetic analogue.
    pub params: KernelParams,
    /// Seed for static program generation.
    pub program_seed: u64,
    /// Seed for trace expansion.
    pub trace_seed: u64,
}

impl TracePoint {
    /// Generate this point's static program.
    pub fn build_program(&self) -> Program {
        build_program(&self.name, &self.params, self.program_seed)
    }

    /// Create the dynamic trace expander over `program` (which must come
    /// from [`TracePoint::build_program`], possibly annotated).
    pub fn expander<'p>(&self, program: &'p Program) -> TraceExpander<'p> {
        TraceExpander::new(program, &self.params, self.trace_seed)
    }
}

struct BenchDef {
    name: &'static str,
    suite: Suite,
    points: u32,
    params: KernelParams,
}

fn int_bench(name: &'static str, points: u32, f: impl FnOnce(&mut KernelParams)) -> BenchDef {
    let mut params = KernelParams::base_int();
    f(&mut params);
    BenchDef {
        name,
        suite: Suite::Int,
        points,
        params,
    }
}

fn fp_bench(name: &'static str, points: u32, f: impl FnOnce(&mut KernelParams)) -> BenchDef {
    let mut params = KernelParams::base_fp();
    f(&mut params);
    BenchDef {
        name,
        suite: Suite::Fp,
        points,
        params,
    }
}

fn suite_definition() -> Vec<BenchDef> {
    vec![
        // ----- SPECint 2000: 26 points ---------------------------------
        int_bench("gzip", 5, |p| {
            p.chains = 4;
            p.chain_break = 0.15;
            p.footprint_log2 = 20;
            p.branch_entropy = 0.12;
            p.pointer_chase = 0.03;
        }),
        int_bench("vpr", 2, |p| {
            p.chains = 3;
            p.pointer_chase = 0.18;
            p.branch_entropy = 0.15;
            p.footprint_log2 = 20;
        }),
        int_bench("gcc", 5, |p| {
            p.regions = 28;
            p.region_insts = 56;
            p.chains = 3;
            p.branch_frac = 0.12;
            p.branch_entropy = 0.18;
            p.footprint_log2 = 21;
            p.pointer_chase = 0.12;
            p.mean_iters = 10;
        }),
        int_bench("mcf", 1, |p| {
            p.chains = 2;
            p.pointer_chase = 0.60;
            p.footprint_log2 = 24;
            p.load_frac = 0.32;
            p.branch_entropy = 0.15;
        }),
        int_bench("crafty", 1, |p| {
            p.chains = 5;
            p.chain_break = 0.18;
            p.footprint_log2 = 18;
            p.branch_entropy = 0.08;
            p.mul_frac = 0.05;
            p.cross_links = 0.20;
        }),
        int_bench("parser", 1, |p| {
            p.chains = 2;
            p.pointer_chase = 0.25;
            p.branch_entropy = 0.18;
            p.footprint_log2 = 21;
        }),
        int_bench("eon", 3, |p| {
            p.chains = 4;
            p.chain_break = 0.16;
            p.fp_frac = 0.30;
            p.branch_entropy = 0.06;
            p.footprint_log2 = 18;
            p.mul_frac = 0.15;
        }),
        int_bench("perlbmk", 1, |p| {
            p.chains = 3;
            p.branch_frac = 0.13;
            p.branch_entropy = 0.16;
            p.pointer_chase = 0.15;
            p.regions = 18;
            p.mean_iters = 12;
        }),
        int_bench("gap", 1, |p| {
            p.chains = 4;
            p.chain_break = 0.15;
            p.footprint_log2 = 21;
            p.branch_entropy = 0.10;
            p.mul_frac = 0.12;
        }),
        int_bench("vortex", 2, |p| {
            p.chains = 3;
            p.load_frac = 0.30;
            p.footprint_log2 = 22;
            p.pointer_chase = 0.15;
            p.branch_entropy = 0.10;
        }),
        int_bench("bzip2", 3, |p| {
            p.chains = 4;
            p.chain_break = 0.15;
            p.footprint_log2 = 21;
            p.branch_entropy = 0.12;
            p.pointer_chase = 0.05;
        }),
        int_bench("twolf", 1, |p| {
            p.chains = 3;
            p.pointer_chase = 0.20;
            p.branch_entropy = 0.15;
            p.footprint_log2 = 20;
        }),
        // ----- SPECfp 2000: 14 points -----------------------------------
        fp_bench("wupwise", 1, |p| {
            p.chains = 4;
            p.chain_break = 0.25;
            p.footprint_log2 = 22;
        }),
        fp_bench("swim", 1, |p| {
            p.chains = 6;
            p.chain_break = 0.30;
            p.footprint_log2 = 24;
            p.stride = 8;
            p.branch_entropy = 0.02;
            p.region_insts = 80;
        }),
        fp_bench("applu", 1, |p| {
            p.chains = 4;
            p.chain_break = 0.25;
            p.footprint_log2 = 24;
            p.region_insts = 72;
        }),
        fp_bench("mesa", 1, |p| {
            p.chains = 3;
            p.fp_frac = 0.45;
            p.footprint_log2 = 20;
            p.branch_entropy = 0.12;
        }),
        fp_bench("galgel", 1, |p| {
            p.chains = 8;
            p.chain_break = 0.35;
            p.fp_frac = 0.8;
            p.footprint_log2 = 19;
            p.branch_entropy = 0.03;
            p.region_insts = 96;
            p.cross_links = 0.04;
        }),
        fp_bench("art", 2, |p| {
            p.chains = 2;
            p.footprint_log2 = 25;
            p.fp_frac = 0.55;
            p.load_frac = 0.30;
        }),
        fp_bench("facerec", 1, |p| {
            p.chains = 4;
            p.chain_break = 0.25;
            p.footprint_log2 = 22;
            p.fp_frac = 0.6;
        }),
        fp_bench("equake", 1, |p| {
            p.chains = 2;
            p.pointer_chase = 0.20;
            p.footprint_log2 = 23;
            p.fp_frac = 0.5;
        }),
        fp_bench("ammp", 1, |p| {
            p.chains = 3;
            p.pointer_chase = 0.25;
            p.footprint_log2 = 23;
            p.fp_frac = 0.55;
        }),
        fp_bench("lucas", 1, |p| {
            p.chains = 4;
            p.chain_break = 0.22;
            p.footprint_log2 = 24;
            p.fp_frac = 0.65;
            p.stride = 64;
        }),
        fp_bench("fma3d", 1, |p| {
            p.chains = 3;
            p.footprint_log2 = 23;
            p.fp_frac = 0.55;
        }),
        fp_bench("sixtrack", 1, |p| {
            p.chains = 5;
            p.chain_break = 0.28;
            p.footprint_log2 = 20;
            p.fp_frac = 0.65;
            p.branch_entropy = 0.04;
        }),
        fp_bench("apsi", 1, |p| {
            p.chains = 4;
            p.chain_break = 0.22;
            p.footprint_log2 = 22;
            p.fp_frac = 0.6;
        }),
    ]
}

/// Base seed mixed into every trace point.
const SUITE_SEED: u64 = 0x05EC_2000;

/// The full 40-point suite of the paper's Fig. 5 (26 SPECint + 14 SPECfp
/// points), with deterministic PinPoints-style weights.
pub fn spec2000_points() -> Vec<TracePoint> {
    let mut points = Vec::with_capacity(40);
    for (bi, bench) in suite_definition().into_iter().enumerate() {
        // Deterministic per-benchmark rng for weights and point jitter.
        let mut rng = SmallRng::seed_from_u64(SUITE_SEED ^ ((bi as u64) << 32));
        let raw_weights: Vec<f64> = (0..bench.points).map(|_| rng.gen_range(0.5..1.5)).collect();
        let total: f64 = raw_weights.iter().sum();
        for pi in 0..bench.points {
            let name = if bench.points == 1 {
                bench.name.to_string()
            } else {
                format!("{}-{}", bench.name, pi + 1)
            };
            // Per-point jitter: different program phases stress slightly
            // different mixes, like real PinPoints slices do.
            let mut params = bench.params;
            params.branch_entropy = (params.branch_entropy * rng.gen_range(0.8..1.25)).min(1.0);
            params.pointer_chase = (params.pointer_chase * rng.gen_range(0.8..1.25)).min(1.0);
            params.mean_iters = (params.mean_iters as f64 * rng.gen_range(0.7..1.4)) as u32 + 1;
            let seed_base = SUITE_SEED ^ ((bi as u64) << 24) ^ ((pi as u64) << 8);
            points.push(TracePoint {
                name,
                bench: bench.name,
                suite: bench.suite,
                weight: raw_weights[pi as usize] / total,
                params,
                program_seed: splitseed(seed_base),
                trace_seed: splitseed(seed_base ^ 0xABCD),
            });
        }
    }
    points
}

fn splitseed(x: u64) -> u64 {
    // splitmix64 finalizer
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_exactly_the_papers_40_points() {
        let points = spec2000_points();
        assert_eq!(points.len(), 40);
        let ints = points.iter().filter(|p| p.suite == Suite::Int).count();
        let fps = points.iter().filter(|p| p.suite == Suite::Fp).count();
        assert_eq!(ints, 26, "Fig. 5(a) lists 26 SPECint points");
        assert_eq!(fps, 14, "Fig. 5(b) lists 14 SPECfp points");
    }

    #[test]
    fn point_names_match_figure5() {
        let points = spec2000_points();
        let names: Vec<&str> = points.iter().map(|p| p.name.as_str()).collect();
        for expected in [
            "gzip-1", "gzip-5", "vpr-2", "gcc-5", "mcf", "crafty", "parser", "eon-3", "perlbmk",
            "gap", "vortex-2", "bzip2-3", "twolf", "wupwise", "swim", "applu", "mesa", "galgel",
            "art-1", "art-2", "facerec", "equake", "ammp", "lucas", "fma3d", "sixtrack", "apsi",
        ] {
            assert!(names.contains(&expected), "missing point {expected}");
        }
    }

    #[test]
    fn weights_sum_to_one_per_benchmark() {
        let points = spec2000_points();
        let mut by_bench: std::collections::HashMap<&str, f64> = Default::default();
        for p in &points {
            *by_bench.entry(p.bench).or_default() += p.weight;
        }
        for (bench, w) in by_bench {
            assert!((w - 1.0).abs() < 1e-9, "{bench} weights sum to {w}");
        }
    }

    #[test]
    fn points_are_deterministic_across_calls() {
        let a = spec2000_points();
        let b = spec2000_points();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.program_seed, y.program_seed);
            assert_eq!(x.trace_seed, y.trace_seed);
            assert_eq!(x.weight, y.weight);
        }
    }

    #[test]
    fn every_point_builds_a_program_and_expands() {
        for point in spec2000_points() {
            point.params.validate();
            let program = point.build_program();
            assert!(program.static_len() > 0, "{} empty", point.name);
            let mut ex = point.expander(&program);
            use virtclust_uarch::TraceSource;
            for _ in 0..200 {
                assert!(ex.next_uop().is_some(), "{} ended early", point.name);
            }
        }
    }

    #[test]
    fn mcf_is_serial_and_memory_bound_galgel_is_wide() {
        let points = spec2000_points();
        let mcf = points.iter().find(|p| p.name == "mcf").unwrap();
        let galgel = points.iter().find(|p| p.name == "galgel").unwrap();
        assert!(mcf.params.chains <= 2, "mcf is nearly serial");
        assert!(mcf.params.pointer_chase > 0.5);
        assert!(mcf.params.footprint_log2 >= 24);
        assert_eq!(galgel.params.chains, 8);
        assert!(galgel.params.fp_frac > 0.5);
    }

    #[test]
    fn fp_points_emit_fp_work() {
        let points = spec2000_points();
        for p in points.iter().filter(|p| p.suite == Suite::Fp) {
            assert!(p.params.fp_frac > 0.3, "{} fp_frac too low", p.name);
        }
    }
}
