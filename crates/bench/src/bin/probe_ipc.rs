//! Diagnostic probe: per-point IPC and bottleneck stats. Not part of the
//! paper reproduction; used to calibrate the workload suite (parameter
//! rationale in `virtclust_workloads::spec`) and to pin perf baselines.
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
//!   "l2_hit":0.41,"store_forwards":…,"uops_per_sec":1445000}`.
//!   Everything except `uops_per_sec` is deterministic (the CI
//!   bit-identity gate diffs those fields across cycle-skipping modes);
//!   `uops_per_sec` is the cell's wall-clock simulation throughput on its
//!   worker (only meaningful with `VIRTCLUST_THREADS` ≤ physical cores).
//!   A final aggregate line sums the whole batch. `--metrics-out FILE`
//!   additionally writes per-job scheduling metrics (queue wait, run span,
//!   worker, latency percentiles) as JSONL. With `--retries N`,
//!   `--deadline-ms MS` and/or `--chaos SCHEDULE` (or
//!   `VIRTCLUST_FAILPOINTS`) the batch runs resiliently: failed cells
//!   become `{"point":…,"scheme":…,"error":…}` rows, the degraded-
//!   completion summary goes to stderr, and the process still exits 0 —
//!   the CI chaos job's process-stays-alive demonstration. This feeds
//!   `results/BASELINES.md` (see ROADMAP "Perf baselines"):
//!
//!   ```sh
//!   VIRTCLUST_UOPS=20000 VIRTCLUST_THREADS=1 \
//!     cargo run --release -p virtclust-bench --bin probe_ipc -- --json
//!   ```

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use virtclust_bench::{threads, uop_budget, Cli, RESILIENCE_FLAGS};
use virtclust_core::{
    run_point, BatchMetrics, Configuration, EvalDriver, EvalJob, ResilientOptions,
};
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

/// Write per-job scheduling metrics as JSONL: one line per job plus an
/// aggregate (wall clock, utilization, latency percentiles).
fn write_metrics(path: &Path, labels: &[String], metrics: &BatchMetrics) {
    let mut out = String::new();
    for (label, m) in labels.iter().zip(&metrics.jobs) {
        let _ = writeln!(
            out,
            "{{\"job\":\"{label}\",\"worker\":{},\"queued_us\":{},\"run_us\":{},\"done_us\":{}}}",
            m.worker,
            m.queued.as_micros(),
            m.run.as_micros(),
            m.done_at.as_micros(),
        );
    }
    // The success/failed split keeps this row well-formed even when every
    // job failed under chaos: the success percentiles report 0 (empty
    // histogram), and the failed-side percentiles carry the latency signal
    // the degraded run still has.
    let _ = writeln!(
        out,
        "{{\"aggregate\":\"batch\",\"jobs\":{},\"ok\":{},\"failed\":{},\"workers\":{},\"wall_us\":{},\"utilization\":{:.3},\"latency_p50_us\":{},\"latency_p99_us\":{},\"failed_p50_us\":{},\"failed_p99_us\":{}}}",
        metrics.jobs.len(),
        metrics.latency_hist.count(),
        metrics.failed_latency_hist.count(),
        metrics.workers,
        metrics.wall.as_micros(),
        metrics.utilization(),
        metrics.latency_percentile(0.5),
        metrics.latency_percentile(0.99),
        metrics.failed_latency_hist.percentile(0.5),
        metrics.failed_latency_hist.percentile(0.99),
    );
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("probe_ipc: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

fn json_mode(
    uops: u64,
    machine: &MachineConfig,
    point_filter: Option<&str>,
    metrics_out: Option<&Path>,
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
    let start = Instant::now();
    let driver = EvalDriver::new(machine).threads(threads());
    // With resilience/chaos in play, the degraded-completion path: one
    // erroring/panicking cell is one error row, the process stays alive
    // and exits 0 with a BatchReport summary on stderr.
    let resilient = resilience.is_some();
    let (outcomes, metrics) = match resilience {
        Some(opts) => {
            let (outcomes, report) = driver.run_resilient(&jobs, &opts, |_, _| {});
            eprintln!("probe_ipc: {}", report.summary());
            (outcomes, report.metrics)
        }
        None => driver.run_with_metrics(&jobs, |_, _| {}),
    };
    let wall = start.elapsed();
    if let Some(path) = metrics_out {
        let clusters = machine.num_clusters as u32;
        let labels: Vec<String> = jobs.iter().map(|j| j.label(clusters)).collect();
        write_metrics(path, &labels, &metrics);
    }
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
                        "{{\"point\":\"{}\",\"scheme\":\"{scheme}\",\"ipc\":{:.4},\"copies\":{},\"uops\":{}{},\"uops_per_sec\":{:.0}}}",
                        point.name,
                        stats.ipc(),
                        stats.copies_generated,
                        stats.committed_uops,
                        detail_fields(stats),
                        outcome.uops_per_sec(),
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
    // Exact ok/failed accounting; the throughput quotient stays finite
    // (and 0) even when every cell failed, so an all-fail chaos run still
    // emits one well-formed aggregate row and exits 0.
    println!(
        "{{\"aggregate\":\"table3\",\"cells\":{},\"ok\":{ok_cells},\"failed\":{},\"uops\":{},\"wall_s\":{:.3},\"uops_per_sec\":{:.0}}}",
        outcomes.len(),
        outcomes.len() as u64 - ok_cells,
        total_uops,
        wall.as_secs_f64(),
        total_uops as f64 / wall.as_secs_f64().max(1e-9),
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
            probe_ipc --json [--clusters 2|4|8] [--point NAME] [--metrics-out FILE]\n                 \
            [--retries N] [--deadline-ms MS] [--chaos SCHEDULE]",
    switches: "--json",
    values: "--clusters --point --metrics-out --retries --deadline-ms --chaos",
    operands: false,
};

fn main() {
    let args = CLI.parse();
    let machine = args.machine();
    let resilience = args.resilience();
    let uops = uop_budget(20_000);
    let point_filter = args.str("--point");
    let metrics_out = args.str("--metrics-out").map(Path::new);
    if args.has("--json") {
        json_mode(uops, &machine, point_filter, metrics_out, resilience);
    } else {
        args.only_in("--json mode", "--point --metrics-out");
        args.only_in("--json mode", RESILIENCE_FLAGS);
        table_mode(uops, &machine);
    }
}
