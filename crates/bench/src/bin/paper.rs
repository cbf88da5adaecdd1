//! The paper's tables, figures and ablations, one subcommand each:
//!
//! ```text
//! paper table1|table2|table3|fig5|fig6|fig7|ablation-steering|ablation-vc|motivation
//! ```
//!
//! Each subcommand prints its result and writes it under `results/`. The
//! simulating ones read `VIRTCLUST_UOPS` (micro-ops per cell; defaults:
//! 120 000 for the figures, 60 000 for `motivation`, 40 000 for the
//! ablations) and `VIRTCLUST_THREADS`.

use virtclust_bench::{threads, uop_budget, write_result, Cli};
use virtclust_compiler::{SoftwarePass, VcConfig};
use virtclust_core::{figures, run_matrix, Configuration};
use virtclust_sim::{simulate, Machine, RunLimits};
use virtclust_steer::{table1_markdown, OccupancyAware, VcMapper};
use virtclust_uarch::{ArchReg, MachineConfig, RegionBuilder, SliceTrace};
use virtclust_workloads::spec2000_points;

/// Subcommand names and the functions that run them.
const SUBCOMMANDS: [(&str, fn()); 9] = [
    ("table1", table1_complexity),
    ("table2", table2_parameters),
    ("table3", table3_configs),
    ("fig5", fig5_two_cluster),
    ("fig6", fig6_tradeoff),
    ("fig7", fig7_four_cluster),
    ("ablation-steering", ablation_steering),
    ("ablation-vc", ablation_vc),
    ("motivation", motivation_seq_vs_parallel),
];

const CLI: Cli = Cli {
    usage:
        "usage: paper table1|table2|table3|fig5|fig6|fig7|ablation-steering|ablation-vc|motivation",
    switches: "",
    values: "",
    operands: true,
};

fn main() {
    let args = CLI.parse();
    let [name] = args.operands() else {
        args.fail("expected one subcommand");
    };
    match SUBCOMMANDS.iter().find(|(n, _)| n == name) {
        Some((_, run)) => run(),
        None => args.fail(&format!("unknown subcommand {name}")),
    }
}

/// Regenerates **Table 1**: steering-unit complexity comparison between the
/// hardware-only occupancy-aware scheme and the hybrid virtual-clustering
/// scheme — the qualitative component table plus this reproduction's
/// quantitative structural estimates.
fn table1_complexity() {
    let md2 = table1_markdown(&MachineConfig::paper_2cluster(), 2);
    let md4 = table1_markdown(&MachineConfig::paper_4cluster(), 2);
    println!("## Table 1 — steering complexity, 2-cluster machine (2 VCs)\n");
    println!("{md2}");
    println!("## Table 1 (extension) — 4-cluster machine (2 VCs)\n");
    println!("{md4}");
    let out = format!(
        "## Table 1 — 2-cluster machine (2 VCs)\n\n{md2}\n## 4-cluster machine (2 VCs)\n\n{md4}"
    );
    let path = write_result("table1.md", &out);
    eprintln!("wrote {}", path.display());
}

/// Regenerates **Table 2**: the architectural parameters of the simulated
/// machine, as actually resolved by the simulator's configuration.
fn table2_parameters() {
    let cfg = MachineConfig::paper_2cluster();
    cfg.validate().expect("paper configuration must validate");
    let md = cfg.table2_markdown();
    println!("## Table 2 — architectural parameters (baseline 2-cluster machine)\n");
    println!("{md}");
    let path = write_result("table2.md", &md);
    eprintln!("wrote {}", path.display());
}

/// Regenerates **Table 3**: the five steering configurations evaluated in
/// the paper, with the software pass and hardware policy each one maps to
/// in this reproduction.
fn table3_configs() {
    let rows = [
        (
            Configuration::Op,
            "Occupancy-aware steering [González et al. '04]",
        ),
        (
            Configuration::OneCluster,
            "Every instruction goes to one cluster",
        ),
        (
            Configuration::Ob,
            "Static-placement dynamic-issue operation-based steering [Nagarajan et al. '04]",
        ),
        (
            Configuration::Rhop,
            "Region-based hierarchical operation partitioning [Chu et al. '03]",
        ),
        (
            Configuration::Vc { num_vcs: 2 },
            "Our hybrid steering based on virtual clustering",
        ),
    ];
    let mut md = String::from(
        "| Configuration | Description | Software pass | Hardware policy |\n|---|---|---|---|\n",
    );
    for (config, desc) in rows {
        md.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            config.name(2),
            desc,
            config.software_pass(2).name(),
            config.make_policy().name(),
        ));
    }
    println!("## Table 3 — evaluated configurations\n");
    println!("{md}");
    let path = write_result("table3.md", &md);
    eprintln!("wrote {}", path.display());
}

/// Regenerates **Figure 5**: performance of one-cluster, OB, RHOP and VC
/// relative to the hardware-only OP baseline on the 2-cluster machine —
/// per trace point (a: SPECint, b: SPECfp) and the averages (c).
///
/// Paper reference values (CPU2000 AVG slowdown vs OP): one-cluster
/// 12.19 %, OB 6.50 %, RHOP 5.40 %, VC 2.62 %.
fn fig5_two_cluster() {
    let uops = uop_budget(120_000);
    let machine = MachineConfig::paper_2cluster();
    let points = spec2000_points();
    let configs = Configuration::table3().to_vec();

    eprintln!(
        "fig5: {} points x {} configs, {} uops/cell, 2 clusters...",
        points.len(),
        configs.len(),
        uops
    );
    let t0 = std::time::Instant::now();
    let matrix = run_matrix(&machine, &configs, &points, uops, threads());
    eprintln!("fig5: simulated in {:.1}s", t0.elapsed().as_secs_f64());

    let data = figures::fig5(&matrix);
    println!("## Figure 5 — slowdown (%) vs OP, 2-cluster machine\n");
    println!("{}", data.to_markdown());
    println!("Paper (CPU2000 AVG): one-cluster 12.19, OB 6.50, RHOP 5.40, VC 2.62\n");
    let md_path = write_result("fig5.md", &data.to_markdown());
    let csv_path = write_result("fig5.csv", &data.to_csv());

    // Fig. 6 shares the same matrix; persist its CSV here too so a single
    // expensive run feeds both figures.
    let f6 = figures::fig6(&matrix);
    let f6_path = write_result("fig6.csv", &f6.to_csv());

    eprintln!(
        "wrote {}, {}, {}",
        md_path.display(),
        csv_path.display(),
        f6_path.display()
    );
}

/// Regenerates **Figure 6**: per-trace scatter data of copy reduction
/// (a-row) and workload-balance improvement (b-row) against speedup, for
/// VC vs OB (x.1), VC vs RHOP (x.2) and VC vs OP (x.3).
///
/// The paper reads three facts off these plots (Sec. 5.3): VC beats OB via
/// both fewer copies and better balance; VC beats RHOP via copies while
/// losing balance; OP beats VC via copies while losing balance — copy
/// reduction matters more than balance for most benchmarks.
fn fig6_tradeoff() {
    let uops = uop_budget(120_000);
    let machine = MachineConfig::paper_2cluster();
    let points = spec2000_points();
    let configs = vec![
        Configuration::Op,
        Configuration::Ob,
        Configuration::Rhop,
        Configuration::Vc { num_vcs: 2 },
    ];

    eprintln!(
        "fig6: {} points x {} configs, {} uops/cell...",
        points.len(),
        configs.len(),
        uops
    );
    let matrix = run_matrix(&machine, &configs, &points, uops, threads());
    let data = figures::fig6(&matrix);

    println!("## Figure 6 — VC trade-off scatter data (2-cluster machine)\n");
    println!("{}", data.quadrant_summary());
    println!("Full per-point series written as CSV (plot speedup on x, copy");
    println!("reduction / balance improvement on y to recreate the six panels).");

    let csv_path = write_result("fig6.csv", &data.to_csv());
    let md_path = write_result("fig6_quadrants.md", &data.quadrant_summary());
    eprintln!("wrote {}, {}", csv_path.display(), md_path.display());
}

/// Regenerates **Figure 7**: 4-cluster scalability — slowdown vs OP for
/// OB, RHOP, VC(4→4) and VC(2→4), plus the Sec. 5.4 copy comparison
/// (paper: VC(4→4) generates ~28 % more copies than VC(2→4)).
///
/// Paper reference values (CPU2000 AVG slowdown vs OP): OB 12.45 %,
/// RHOP 12.69 %, VC(4→4) 12.96 %, VC(2→4) 3.64 %.
fn fig7_four_cluster() {
    let uops = uop_budget(120_000);
    let machine = MachineConfig::paper_4cluster();
    let points = spec2000_points();
    let configs = vec![
        Configuration::Op,
        Configuration::Ob,
        Configuration::Rhop,
        Configuration::Vc { num_vcs: 4 },
        Configuration::Vc { num_vcs: 2 },
    ];

    eprintln!(
        "fig7: {} points x {} configs, {} uops/cell, 4 clusters...",
        points.len(),
        configs.len(),
        uops
    );
    let t0 = std::time::Instant::now();
    let matrix = run_matrix(&machine, &configs, &points, uops, threads());
    eprintln!("fig7: simulated in {:.1}s", t0.elapsed().as_secs_f64());

    let data = figures::fig7(&matrix);
    println!("## Figure 7 — slowdown (%) vs OP, 4-cluster machine\n");
    println!("{}", data.table.to_markdown());
    println!(
        "VC(4->4) generates {:.1}% more copies than VC(2->4) on average (paper: ~28%).\n",
        data.vc44_copy_inflation_pct
    );
    println!("Paper (CPU2000 AVG): OB 12.45, RHOP 12.69, VC(4->4) 12.96, VC(2->4) 3.64\n");

    let mut md = data.table.to_markdown();
    md.push_str(&format!(
        "\nVC(4->4) copy inflation vs VC(2->4): {:.1}% (paper ~28%)\n",
        data.vc44_copy_inflation_pct
    ));
    let md_path = write_result("fig7.md", &md);
    let csv_path = write_result("fig7.csv", &data.table.to_csv());
    eprintln!("wrote {}, {}", md_path.display(), csv_path.display());
}

/// Hardware-steering ablations beyond Table 3: what each ingredient of the
/// OP baseline buys, measured against historical alternatives.
///
/// * `mod-N` [Baniasadi & Moshovos '00] — dependence-blind round-robin:
///   shows why dependence awareness exists;
/// * `OP-nostall` — OP without the stall-over-steer rule: ablates the
///   "stalling beats steering" insight of [González '04] / [Salverda &
///   Zilles '05] that the paper's baseline incorporates;
/// * `OP-parallel` — OP with stale bundle-entry locations (Sec. 2.1).
fn ablation_steering() {
    let uops = uop_budget(40_000);
    let machine = MachineConfig::paper_2cluster();
    let points: Vec<_> = spec2000_points()
        .into_iter()
        .filter(|p| {
            [
                "gzip-1", "crafty", "eon-1", "vortex-1", "galgel", "swim", "mesa", "sixtrack",
            ]
            .contains(&p.name.as_str())
        })
        .collect();
    let configs = vec![
        Configuration::Op,
        Configuration::OpNoStall,
        Configuration::OpParallel,
        Configuration::ModN { slice: 1 },
        Configuration::ModN { slice: 3 },
        Configuration::ModN { slice: 8 },
        Configuration::OneCluster,
    ];

    eprintln!(
        "ablation_steering: {} points x {} configs, {uops} uops/cell...",
        points.len(),
        configs.len()
    );
    let matrix = run_matrix(&machine, &configs, &points, uops, threads());

    let mut out = String::from(
        "## Hardware-steering ablation (2-cluster machine, mini-suite)\n\n\
         | config | mean slowdown vs OP (%) | copies/kuop | alloc stalls |\n|---|---|---|---|\n",
    );
    for (ci, config) in matrix.configs.iter().enumerate() {
        let (mut slow, mut cpk, mut stalls) = (0.0, 0.0, 0u64);
        for pi in 0..points.len() {
            let base = matrix.cell(pi, 0);
            let s = matrix.cell(pi, ci);
            slow += (s.cycles as f64 / base.cycles as f64 - 1.0) * 100.0;
            cpk += s.copies_per_kuop();
            stalls += s.allocation_stalls();
        }
        let n = points.len() as f64;
        out.push_str(&format!(
            "| {} | {:+.2} | {:.1} | {} |\n",
            config.name(2),
            slow / n,
            cpk / n,
            stalls / points.len() as u64
        ));
    }
    out.push_str(
        "\nReading: dependence-blind mod-N pays heavily in copies; removing\n\
         stall-over-steer from OP trades policy stalls for mis-steered copies;\n\
         stale-location (parallel) steering shows the Sec. 2.1 cost at scale.\n",
    );
    println!("{out}");
    let path = write_result("ablation_steering.md", &out);
    eprintln!("wrote {}", path.display());
}

/// Ablations of two VC design choices:
///
/// 1. **Remap hysteresis** — the dead-band on the Fig. 4 mapping decision
///    (0 = remap at every chain leader, the literal reading of the paper).
///    Sweeping it shows the copy/balance trade-off directly.
/// 2. **Chain granularity** — bounding chain length inserts extra leaders
///    (more remap opportunities, more migration copies).
fn ablation_vc() {
    let uops = uop_budget(40_000);
    let machine = MachineConfig::paper_2cluster();
    let points = spec2000_points();
    let subset: Vec<_> = points
        .iter()
        .filter(|p| ["gzip-1", "crafty", "galgel", "swim", "vortex-1"].contains(&p.name.as_str()))
        .collect();

    let mut out = String::from("## Ablation 1 — VC remap hysteresis\n\n");
    out.push_str("| threshold | mean cycles | copies/kuop | alloc stalls |\n|---|---|---|---|\n");
    for threshold in [0u32, 4, 8, 16, 32, 64, 128] {
        let (mut cyc, mut cpk, mut stalls) = (0u64, 0.0, 0u64);
        for point in &subset {
            let mut program = point.build_program();
            SoftwarePass::Vc(VcConfig::new(2)).apply(&mut program, &machine.latencies);
            let mut trace = point.expander(&program);
            let mut policy = VcMapper::with_threshold(2, threshold);
            let stats = simulate(&machine, &mut trace, &mut policy, &RunLimits::uops(uops));
            cyc += stats.cycles;
            cpk += stats.copies_per_kuop();
            stalls += stats.allocation_stalls();
        }
        let n = subset.len() as u64;
        out.push_str(&format!(
            "| {threshold} | {} | {:.1} | {} |\n",
            cyc / n,
            cpk / n as f64,
            stalls / n
        ));
    }

    out.push_str("\n## Ablation 2 — maximum chain length (extra leaders)\n\n");
    out.push_str(
        "| max chain len | mean cycles | copies/kuop | leaders/kuop |\n|---|---|---|---|\n",
    );
    for max_len in [None, Some(32usize), Some(16), Some(8), Some(4), Some(2)] {
        let (mut cyc, mut cpk, mut remaps) = (0u64, 0.0, 0u64);
        let mut committed = 0u64;
        for point in &subset {
            let mut program = point.build_program();
            let mut cfg = VcConfig::new(2);
            cfg.max_chain_len = max_len;
            SoftwarePass::Vc(cfg).apply(&mut program, &machine.latencies);
            let mut trace = point.expander(&program);
            let mut policy = VcMapper::new(2);
            let stats = simulate(&machine, &mut trace, &mut policy, &RunLimits::uops(uops));
            cyc += stats.cycles;
            cpk += stats.copies_per_kuop();
            remaps += policy.remaps();
            committed += stats.committed_uops;
        }
        let n = subset.len() as u64;
        let label = max_len.map_or("unbounded".to_string(), |l| l.to_string());
        out.push_str(&format!(
            "| {label} | {} | {:.1} | {:.1} |\n",
            cyc / n,
            cpk / n as f64,
            1000.0 * remaps as f64 / committed as f64
        ));
    }

    println!("{out}");
    let path = write_result("ablation_vc.md", &out);
    eprintln!("wrote {}", path.display());
}

fn sec21_example() -> String {
    let r = ArchReg::int;
    let region = RegionBuilder::new(0, "sec2.1")
        .alu(r(1), &[r(1), r(2)])
        .load(r(3), r(1))
        .load(r(4), r(3))
        .build();
    let mut uops = Vec::new();
    virtclust_uarch::trace::expand_region(&region, 0, &mut uops, |_, _| 0x100, |_, _| true);

    let mut out = String::from("| steering | copies generated |\n|---|---|\n");
    for (label, mut policy) in [
        ("sequential (OP)", OccupancyAware::new()),
        ("parallel (stale)", OccupancyAware::parallel()),
    ] {
        let mut trace = SliceTrace::new(&uops);
        let mut m = Machine::new(&MachineConfig::paper_2cluster());
        m.place_register(r(1), 1);
        m.place_register(r(2), 0);
        m.place_register(r(3), 0);
        let stats = m.run(&mut trace, &mut policy, &RunLimits::unlimited());
        out.push_str(&format!("| {label} | {} |\n", stats.copies_generated));
    }
    out.push_str(
        "\nThe difference is the paper's \"two copies\": with stale locations, I2 and I3\n\
         chase out-of-date operand positions (the common input copy of I1 appears in both).\n",
    );
    out
}

/// Regenerates the **Sec. 2.1 motivation**: sequential vs parallel
/// (renaming-style) hardware steering.
///
/// Part 1 replays the paper's three-instruction example exactly
/// (I1: R1←R1+R2; I2: R3←Load(R1); I3: R4←Load(R3) with R1/R2/R3 pre-placed)
/// and shows the 2-copy difference. Part 2 sweeps the whole suite to show
/// the aggregate cost of steering with stale bundle-entry information —
/// the complexity-vs-performance dilemma the hybrid scheme resolves.
fn motivation_seq_vs_parallel() {
    println!("## Sec. 2.1 — sequential vs parallel steering\n");
    let example = sec21_example();
    println!("{example}");

    let uops = uop_budget(60_000);
    let machine = MachineConfig::paper_2cluster();
    let points = spec2000_points();
    let configs = vec![Configuration::Op, Configuration::OpParallel];
    eprintln!("motivation: sweeping the suite ({uops} uops/cell)...");
    let matrix = run_matrix(&machine, &configs, &points, uops, threads());

    let mut sweep = String::from("| point | OP copies/kuop | parallel copies/kuop | parallel slowdown % |\n|---|---|---|---|\n");
    let (mut slow_sum, mut n) = (0.0, 0);
    for (pi, point) in matrix.points.iter().enumerate() {
        let seq = matrix.cell(pi, 0);
        let par = matrix.cell(pi, 1);
        let slow = (par.cycles as f64 / seq.cycles as f64 - 1.0) * 100.0;
        slow_sum += slow;
        n += 1;
        sweep.push_str(&format!(
            "| {} | {:.1} | {:.1} | {:.2} |\n",
            point.name,
            seq.copies_per_kuop(),
            par.copies_per_kuop(),
            slow
        ));
    }
    sweep.push_str(&format!(
        "\nMean slowdown of parallel (stale-information) steering: {:.2}%\n",
        slow_sum / n as f64
    ));
    println!("{sweep}");

    let out = format!("## Sec. 2.1 example\n\n{example}\n## Suite sweep\n\n{sweep}");
    let path = write_result("motivation_seq_vs_parallel.md", &out);
    eprintln!("wrote {}", path.display());
}
