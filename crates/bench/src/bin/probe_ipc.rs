//! Diagnostic probe: per-point IPC and bottleneck stats. Not part of the
//! paper reproduction; used to calibrate the workload suite (parameter
//! rationale in `virtclust_workloads::spec`) and to pin the simulator's
//! output bit for bit.
//!
//! Two output modes:
//!
//! * default — a human-readable table of OP vs one-cluster bottleneck
//!   stats over a 12-point calibration subset;
//! * `--json` — one machine-readable line per (point × Table 3 scheme)
//!   over the **full 40-point suite** (or a single point with
//!   `--point NAME` — the CI debug-mirror smoke runs one cell per cluster
//!   count that way), run as one [`EvalDriver`] batch (per-worker session
//!   reuse):
//!   `{"point":"gzip-1","scheme":"OP","ipc":0.733,"copies":1408,"uops":20000,
//!   "stalls":{"rob-full":…,…},"frontend_starved":…,"l1_hit":0.97,
//!   "l2_hit":0.41,"store_forwards":…}`.
//!   A final aggregate line sums the whole batch. The output carries no
//!   wall-clock field, so it is deterministic: the CI bit-identity gate
//!   diffs it across cycle-skipping modes, and the simulator's speed is
//!   measured by the benchmark under `vcbench/`. With `--retries N`,
//!   `--deadline-ms MS` and/or `--chaos SCHEDULE` (or
//!   `VIRTCLUST_FAILPOINTS`) the batch runs resiliently: failed cells
//!   become `{"point":…,"scheme":…,"error":…}` rows, the degraded-
//!   completion summary goes to stderr, and the process still exits 0 —
//!   the CI chaos job's process-stays-alive demonstration. This feeds
//!   the IPC tables of `results/BASELINES.md`:
//!
//!   ```sh
//!   VIRTCLUST_UOPS=20000 VIRTCLUST_THREADS=1 \
//!     cargo run --release -p virtclust-bench --bin probe_ipc -- --json
//!   ```

use std::fmt::Write as _;

use virtclust_bench::{threads, uop_budget, Cli, RESILIENCE_FLAGS};
use virtclust_core::{run_point, Configuration, EvalDriver, EvalJob, ResilientOptions};
use virtclust_sim::{SimStats, StallReason};
use virtclust_uarch::MachineConfig;
use virtclust_workloads::spec2000_points;

/// The per-cell fields `SimStats` carries beyond IPC/copies: the
/// dispatch-stall breakdown (by `StallReason` display name), front-end
/// starvation, cache hit rates and store forwarding. All deterministic —
/// the CI bit-identity gate diffs them across skip modes.
fn detail_fields(stats: &SimStats) -> String {
    let mut out = String::with_capacity(160);
    out.push_str(",\"stalls\":{");
    for (i, reason) in StallReason::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{reason}\":{}",
            stats.dispatch_stalls[reason.index()]
        );
    }
    let _ = write!(
        out,
        "}},\"frontend_starved\":{},\"l1_hit\":{:.4},\"l2_hit\":{:.4},\"store_forwards\":{}",
        stats.frontend_starved_cycles,
        stats.l1_hit_rate(),
        stats.l2_hit_rate(),
        stats.store_forwards,
    );
    out
}

fn json_mode(
    uops: u64,
    machine: &MachineConfig,
    point_filter: Option<&str>,
    resilience: Option<ResilientOptions>,
) {
    let mut points = spec2000_points();
    if let Some(name) = point_filter {
        points.retain(|p| p.name == name);
        if points.is_empty() {
            eprintln!("probe_ipc: --point {name} matches no suite point");
            std::process::exit(2);
        }
    }
    let configs = Configuration::table3();
    // Row-major (point × scheme) job list — the batch path.
    let jobs: Vec<EvalJob> = points
        .iter()
        .flat_map(|point| {
            configs.iter().map(|config| EvalJob::Point {
                point: point.clone(),
                config: *config,
                uops,
            })
        })
        .collect();
    let driver = EvalDriver::new(machine).threads(threads());
    // With resilience/chaos in play, the degraded-completion path: one
    // erroring/panicking cell is one error row, the process stays alive
    // and exits 0 with a BatchReport summary on stderr.
    let resilient = resilience.is_some();
    let outcomes = match resilience {
        Some(opts) => {
            let (outcomes, report) = driver.run_resilient(&jobs, &opts, |_, _| {});
            eprintln!("probe_ipc: {}", report.summary());
            outcomes
        }
        None => driver.run(&jobs),
    };
    let mut total_uops = 0u64;
    let mut ok_cells = 0u64;
    for (pi, point) in points.iter().enumerate() {
        for (ci, config) in configs.iter().enumerate() {
            let outcome = &outcomes[pi * configs.len() + ci];
            let scheme = config.name(machine.num_clusters as u32);
            match &outcome.stats {
                Ok(stats) => {
                    total_uops += stats.committed_uops;
                    ok_cells += 1;
                    println!(
                        "{{\"point\":\"{}\",\"scheme\":\"{scheme}\",\"ipc\":{:.4},\"copies\":{},\"uops\":{}{}}}",
                        point.name,
                        stats.ipc(),
                        stats.copies_generated,
                        stats.committed_uops,
                        detail_fields(stats),
                    );
                }
                Err(e) if resilient => {
                    println!(
                        "{{\"point\":\"{}\",\"scheme\":\"{scheme}\",\"error\":\"{}\"}}",
                        point.name,
                        e.to_string().replace('"', "'"),
                    );
                }
                Err(e) => {
                    // Without resilience flags, point jobs cannot fail.
                    panic!("point job failed without chaos armed: {e}");
                }
            }
        }
    }
    // Exact ok/failed accounting, so an all-fail chaos run still emits
    // one well-formed aggregate row and exits 0.
    println!(
        "{{\"aggregate\":\"table3\",\"cells\":{},\"ok\":{ok_cells},\"failed\":{},\"uops\":{}}}",
        outcomes.len(),
        outcomes.len() as u64 - ok_cells,
        total_uops,
    );
}

fn table_mode(uops: u64, machine: &MachineConfig) {
    println!(
        "{:<10} {:>6} {:>6} {:>7} {:>7} {:>7} {:>8} {:>8} {:>7}",
        "point", "ipcOP", "ipc1c", "mispr%", "l1hit%", "cp/ku", "iqstall", "starved", "robfull"
    );
    for point in spec2000_points().iter().filter(|p| {
        [
            "gzip-1", "gcc-1", "mcf", "crafty", "eon-1", "vpr-2", "galgel", "swim", "mesa",
            "art-1", "sixtrack", "equake",
        ]
        .contains(&p.name.as_str())
    }) {
        let op = run_point(point, &Configuration::Op, machine, uops);
        let one = run_point(point, &Configuration::OneCluster, machine, uops);
        println!(
            "{:<10} {:>6.2} {:>6.2} {:>6.2} {:>7.1} {:>7.1} {:>8} {:>8} {:>7}",
            point.name,
            op.ipc(),
            one.ipc(),
            100.0 * op.mispredict_rate(),
            100.0 * op.l1_hit_rate(),
            op.copies_per_kuop(),
            op.allocation_stalls(),
            op.frontend_starved_cycles,
            op.dispatch_stalls[0],
        );
    }
}

const CLI: Cli = Cli {
    usage: "usage: probe_ipc [--clusters 2|4|8]\n       \
            probe_ipc --json [--clusters 2|4|8] [--point NAME]\n                 \
            [--retries N] [--deadline-ms MS] [--chaos SCHEDULE]",
    switches: "--json",
    values: "--clusters --point --retries --deadline-ms --chaos",
    operands: false,
};

fn main() {
    let args = CLI.parse();
    let machine = args.machine();
    let resilience = args.resilience();
    let uops = uop_budget(20_000);
    let point_filter = args.str("--point");
    if args.has("--json") {
        json_mode(uops, &machine, point_filter, resilience);
    } else {
        args.only_in("--json mode", "--point");
        args.only_in("--json mode", RESILIENCE_FLAGS);
        table_mode(uops, &machine);
    }
}
