//! Trace capture / replay harness: persist a workload's dynamic stream
//! once, then replay the frozen stream under any steering scheme — the
//! paper's "execute traces of IA32 binaries" methodology (Sec. 5.1) as a
//! command-line round trip.
//!
//! ```text
//! trace_replay record    <point>  <out-file> [--binary] [--uops N] [--clusters 2|4|8]
//! trace_replay replay    <file>   [--scheme op|1c|ob|rhop|vcN|modN] [--uops N] [--clusters 2|4|8]
//! trace_replay intervals <file>   [--scheme ...] [--every K] [--uops N] [--clusters 2|4|8]
//!                                 [--timeline OUT]
//! trace_replay compare   <file>   [--clusters 2|4|8]
//! trace_replay batch     <file>...  [--uops N] [--clusters 2|4|8]
//! trace_replay import    <kernel> <out-file> [--binary] [--uops N] [--seed S]
//! ```
//!
//! * `record` captures a SPEC-like suite point (by Fig. 5 name, e.g.
//!   `gzip-1`) into a trace file;
//! * `replay` runs one steering scheme over a stored trace;
//! * `intervals` is the one observed run: it replays one scheme with a
//!   `virtclust-obs` interval observer attached (`--every K` cycles,
//!   default 1000) and prints one row per interval — phase-resolved IPC,
//!   copies, stalls and front-end starvation over the run. It checks that
//!   the interval deltas sum *exactly* to the final stats and that the
//!   observed stats equal an unobserved `replay` (exit code 1 if either
//!   fails), then prints one skip-summary line: idle spans skipped, cycles
//!   replicated and their share, median and longest span, and spans per
//!   idle kind. `--timeline OUT` also writes the run's Chrome trace
//!   (skipped spans plus IPC, stall, occupancy and queue counter tracks);
//! * `compare` replays all five Table 3 schemes over the same stored
//!   stream and checks they commit identical micro-op counts (exit code 1
//!   if not) — the CI round-trip smoke;
//! * `batch` feeds (file × Table 3 scheme) cells through the batch engine
//!   (`core::batch::EvalDriver`): per-worker reusable sessions, each cell a
//!   `replay` of its file on the worker's session unless the drain's
//!   result table already holds its key, completions streamed as they
//!   land. Applies the same identical-commit check per file — the CI
//!   batch-engine smoke. With `--retries N`, `--deadline-ms MS` and/or
//!   `--chaos SCHEDULE` (or `VIRTCLUST_FAILPOINTS`) the batch runs
//!   through the resilient engine: failed cells print `ERROR` lines, the
//!   degraded-completion [`BatchReport`] summary is printed at the end,
//!   and the command still exits 0 — the CI chaos job's
//!   process-stays-alive demonstration;
//! * `import` reads a one-uop-per-line kernel description, expands it with
//!   the synthetic dynamic model and records the result, so externally
//!   authored programs enter the pipeline.
//!
//! `--uops` defaults to `VIRTCLUST_UOPS` or 20 000 (`batch` replays whole
//! streams unless `--uops` is given).

use std::num::NonZeroU64;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use virtclust_bench::{threads, uop_budget, Args, Cli, RESILIENCE_FLAGS};
use virtclust_core::{
    record_point, replay_compare, replay_trace, replay_trace_observed, BatchReport, CellOutcome,
    Configuration, EvalDriver, EvalJob,
};
use virtclust_obs::{ChromeTrace, MemSink, Shared};
use virtclust_sim::{IdleCycleKind, RunLimits, SimStats, StallReason};
use virtclust_trace::{import_kernel_file, Codec, TraceWriter};
use virtclust_workloads::{spec2000_points, KernelParams, TraceExpander};

const USAGE: &str = "\
usage:
  trace_replay record    <point>  <out-file> [--binary] [--uops N] [--clusters 2|4|8]
  trace_replay replay    <file>   [--scheme op|1c|ob|rhop|vcN|modN] [--uops N] [--clusters 2|4|8]
  trace_replay intervals <file>   [--scheme ...] [--every K] [--uops N] [--clusters 2|4|8]
                                  [--timeline OUT]
  trace_replay compare   <file>   [--clusters 2|4|8]
  trace_replay batch     <file>...  [--uops N] [--clusters 2|4|8]
                                    [--retries N] [--deadline-ms MS] [--chaos SCHEDULE]
  trace_replay import    <kernel> <out-file> [--binary] [--uops N] [--seed S]

schemes (any case): op, op-parallel, op-nostall, 1c (one-cluster), ob, rhop,
vc1 ... vc64, modN (N >= 1).
point names are the Fig. 5 suite points (gzip-1 ... apsi); --uops defaults
to VIRTCLUST_UOPS or 20000 (batch: whole stream). A chaos SCHEDULE is
site=kind@N|%K|~P:S pairs, e.g. 'trace.open=io@2,job.run=panic@5' (also
read from VIRTCLUST_FAILPOINTS).";

const CLI: Cli = Cli {
    usage: USAGE,
    switches: "--binary",
    values: "--uops --seed --clusters --scheme --every --timeline --retries --deadline-ms --chaos",
    operands: true,
};

/// Run `cmd` over its `operands`. Every flag is parsed first, so a usage
/// error exits 2 before any work.
fn run(args: &Args, cmd: &str, operands: &[String]) -> Result<(), String> {
    let uops: Option<u64> = args.value("--uops");
    // Capture and import take `--uops`, else `VIRTCLUST_UOPS`, else 20 000;
    // replays take `--uops`, else the whole stored stream.
    let budget = || uops.unwrap_or_else(|| uop_budget(20_000));
    let limits = uops.map_or(RunLimits::unlimited(), RunLimits::uops);
    let seed = args.value("--seed").unwrap_or(1);
    let machine = &args.machine();
    let config = args
        .value("--scheme")
        .unwrap_or(Configuration::Vc { num_vcs: 2 });
    let every = args.value("--every").map_or(1_000, NonZeroU64::get);
    let codec = if args.has("--binary") {
        Codec::Binary
    } else {
        Codec::Text
    };
    if cmd != "batch" {
        args.only_in("batch", RESILIENCE_FLAGS);
    }
    if cmd != "intervals" {
        args.only_in("intervals", "--timeline");
    }
    match cmd {
        "record" => {
            let [point_name, out] = operands else {
                args.fail("record needs <point> <out-file>");
            };
            let point = spec2000_points()
                .into_iter()
                .find(|p| &p.name == point_name)
                .unwrap_or_else(|| args.fail(&format!("unknown suite point {point_name}")));
            let n = record_point(&point, budget(), codec, out).map_err(|e| e.to_string())?;
            let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
            println!(
                "recorded {n} uops of {point_name} to {out} ({codec} codec, {bytes} bytes, {:.1} B/uop)",
                bytes as f64 / n.max(1) as f64,
            );
            Ok(())
        }
        "replay" => {
            let [file] = operands else {
                args.fail("replay needs <file>");
            };
            let stats = replay_trace(file, &config, machine, &limits).map_err(|e| e.to_string())?;
            println!(
                "{} over {file}: {}",
                config.name(machine.num_clusters as u32),
                stats.summary()
            );
            Ok(())
        }
        "intervals" => {
            let [file] = operands else {
                args.fail("intervals needs <file>");
            };
            let handle = Shared::new(MemSink::<SimStats>::new());
            let stats = replay_trace_observed(
                file,
                &config,
                machine,
                &limits,
                every,
                Box::new(handle.clone()),
            )
            .map_err(|e| e.to_string())?;
            println!(
                "{} over {file}, one row per {}-cycle interval:",
                config.name(machine.num_clusters as u32),
                every
            );
            println!(
                "{:<5} {:>10} {:>10} {:>7} {:>7} {:>8} {:>8} {:>8} {:>6}",
                "#", "start", "end", "uops", "ipc", "copies", "stalls", "starved", "spans"
            );
            let sum = handle.with(|sink| {
                let mut sum = SimStats::default();
                for s in &sink.intervals {
                    // Skip spans whose replicated cycles land in this
                    // interval (spans are chunked at boundaries, so a
                    // span touching N intervals counts in each).
                    let spans = sink
                        .skip_spans
                        .iter()
                        .filter(|sp| {
                            sp.start_cycle < s.end_cycle && sp.start_cycle + sp.len > s.start_cycle
                        })
                        .count();
                    println!(
                        "{:<5} {:>10} {:>10} {:>7} {:>7.3} {:>8} {:>8} {:>8} {:>6}",
                        s.index,
                        s.start_cycle,
                        s.end_cycle,
                        s.delta.committed_uops,
                        s.delta.ipc(),
                        s.delta.copies_generated,
                        s.delta.allocation_stalls(),
                        s.delta.frontend_starved_cycles,
                        spans,
                    );
                    sum.accumulate(&s.delta);
                }
                sum
            });
            if sum != stats {
                return Err(format!(
                    "interval deltas do not sum to the final stats:\n  sum   {}\n  final {}",
                    sum.summary(),
                    stats.summary()
                ));
            }
            let unobserved =
                replay_trace(file, &config, machine, &limits).map_err(|e| e.to_string())?;
            if unobserved != stats {
                return Err(format!(
                    "the observed run diverged from an unobserved replay:\n  \
                     observed   {}\n  unobserved {}",
                    stats.summary(),
                    unobserved.summary()
                ));
            }
            let (n_intervals, n_spans) =
                handle.with(|sink| (sink.intervals.len(), sink.skip_spans.len()));
            println!(
                "sum of {n_intervals} interval deltas reconstructs the final stats exactly \
                 ({} uops, {} cycles, {n_spans} idle spans skipped); {}",
                stats.committed_uops,
                stats.cycles,
                stats.summary()
            );
            println!("{}", handle.with(|sink| skip_summary(sink, stats.cycles)));
            if let Some(out) = args.str("--timeline") {
                let name = format!("{} · {file}", config.name(machine.num_clusters as u32));
                let trace = handle.with(|sink| chrome_trace(sink, &name));
                trace
                    .save(Path::new(out))
                    .map_err(|e| format!("cannot write {out}: {e}"))?;
                println!(
                    "{} trace events written to {out} (open in chrome://tracing or \
                     https://ui.perfetto.dev; 1 cycle = 1 µs)",
                    trace.len()
                );
            }
            Ok(())
        }
        "compare" => {
            let [file] = operands else {
                args.fail("compare needs <file>");
            };
            let rows = replay_compare(file, &Configuration::table3(), machine)
                .map_err(|e| e.to_string())?;
            println!(
                "{:<14} {:>10} {:>10} {:>8} {:>9} {:>9}",
                "scheme", "committed", "cycles", "ipc", "copies", "cp/kuop"
            );
            for (name, stats) in &rows {
                println!(
                    "{:<14} {:>10} {:>10} {:>8.3} {:>9} {:>9.1}",
                    name,
                    stats.committed_uops,
                    stats.cycles,
                    stats.ipc(),
                    stats.copies_generated,
                    stats.copies_per_kuop()
                );
            }
            let commits: Vec<u64> = rows.iter().map(|(_, s)| s.committed_uops).collect();
            if commits.windows(2).any(|w| w[0] != w[1]) {
                return Err(format!(
                    "schemes committed different micro-op counts over the same trace: {commits:?}"
                ));
            }
            println!(
                "all schemes committed {} uops over the same stored stream",
                commits[0]
            );
            Ok(())
        }
        "batch" => {
            if operands.is_empty() {
                args.fail("batch needs at least one <file>");
            }
            let clusters = machine.num_clusters as u32;
            let resilience = args.resilience();
            let jobs: Vec<EvalJob> = operands
                .iter()
                .flat_map(|file| {
                    Configuration::table3()
                        .into_iter()
                        .map(|config| EvalJob::Trace {
                            path: file.into(),
                            config,
                            limits,
                        })
                })
                .collect();
            let finished = AtomicUsize::new(0);
            let total = jobs.len();
            let progress = |i: usize, outcome: &CellOutcome| {
                let n = finished.fetch_add(1, Ordering::Relaxed) + 1;
                match &outcome.stats {
                    Ok(stats) => println!(
                        "[{n}/{total}] {}: ipc={:.3} copies={}",
                        jobs[i].label(clusters),
                        stats.ipc(),
                        stats.copies_generated,
                    ),
                    Err(e) => {
                        println!("[{n}/{total}] {}: ERROR {e}", jobs[i].label(clusters))
                    }
                }
            };
            let driver = EvalDriver::new(machine).threads(threads());
            let (outcomes, report): (_, Option<BatchReport>) = match resilience {
                Some(opts) => {
                    let (outcomes, report) = driver.run_resilient(&jobs, &opts, progress);
                    (outcomes, Some(report))
                }
                None => (driver.run_with_metrics(&jobs, progress).0, None),
            };

            // Per-file identical-commit check (the `compare` contract).
            let stride = Configuration::table3().len();
            let mut failures = Vec::new();
            for (fi, file) in operands.iter().enumerate() {
                let cells = fi * stride..(fi + 1) * stride;
                let row = &outcomes[cells.clone()];
                let mut commits = Vec::with_capacity(stride);
                for (job, outcome) in jobs[cells].iter().zip(row) {
                    match &outcome.stats {
                        Ok(stats) => commits.push(stats.committed_uops),
                        Err(e) => {
                            // Under the resilient engine failed cells are
                            // expected (already printed as ERROR lines and
                            // tallied in the report); without it they are
                            // fatal.
                            if report.is_none() {
                                failures.push(format!("{}: {e}", job.label(clusters)));
                            }
                        }
                    }
                }
                // Bit-identity must hold across whichever schemes
                // succeeded, chaos or not.
                if commits.windows(2).any(|w| w[0] != w[1]) {
                    failures.push(format!(
                        "{file}: schemes committed different micro-op counts: {commits:?}"
                    ));
                }
            }
            println!("batch: {total} cells over {} file(s)", operands.len());
            if let Some(report) = &report {
                println!("batch: {}", report.summary());
            }
            if failures.is_empty() {
                Ok(())
            } else {
                Err(failures.join("\n"))
            }
        }
        "import" => {
            let [kernel, out] = operands else {
                args.fail("import needs <kernel> <out-file>");
            };
            let budget = budget();
            let program = import_kernel_file(kernel).map_err(|e| e.to_string())?;
            let params = KernelParams::base_int();
            let mut expander = TraceExpander::new(&program, &params, seed);
            // The expander is endless, so the budget is the exact record
            // count and can be declared in the header up front.
            let mut writer = TraceWriter::create(out, &program, codec, Some(budget))
                .map_err(|e| e.to_string())?;
            expander
                .capture(budget, |u| writer.write_uop(u))
                .map_err(|e| e.to_string())?;
            let n = writer.finish().map_err(|e| e.to_string())?;
            println!(
                "imported {} ({} regions, {} static uops) and recorded {n} dynamic uops to {out}",
                program.name,
                program.regions.len(),
                program.static_len()
            );
            Ok(())
        }
        other => args.fail(&format!("unknown command {other}")),
    }
}

/// One line on the skipped idle spans an observer saw: how many, the
/// cycles they replicated and their share of the run's `cycles`, the
/// median (a log2-bucket lower bound) and longest span, and the spans of
/// each idle kind. The iq-full, copyq-full, rf-full and policy-stall
/// spans are the ones only a pure steering policy can skip.
fn skip_summary(sink: &MemSink<SimStats>, cycles: u64) -> String {
    let hist = &sink.skip_hist;
    let replicated = hist.sum();
    let share = if cycles == 0 {
        0.0
    } else {
        100.0 * replicated as f64 / cycles as f64
    };
    let kinds: Vec<String> = std::iter::once(IdleCycleKind::FrontendStarved)
        .chain(StallReason::ALL.map(IdleCycleKind::DispatchStall))
        .map(|kind| {
            let label = kind.label();
            let n = sink.skip_spans.iter().filter(|s| s.label == label).count();
            format!("{label} {n}")
        })
        .collect();
    format!(
        "skip summary: {} idle spans, {replicated} of {cycles} cycles replicated ({share:.1}%), \
         median span {}, max span {}; by kind: {}",
        hist.count(),
        hist.percentile(0.5),
        hist.max(),
        kinds.join(", ")
    )
}

/// The observed run as a Chrome trace (`chrome://tracing`, Perfetto): one
/// process, pid 1, called `name`, with the skipped idle spans as slices
/// and counter tracks for IPC, the dispatch-stall breakdown, per-cluster
/// occupancy and queue depths. One cycle maps to one microsecond, so the
/// timeline reads in cycles.
fn chrome_trace(sink: &MemSink<SimStats>, name: &str) -> ChromeTrace {
    const PID: u64 = 1;
    const SKIP_TID: u64 = 0;
    let mut trace = ChromeTrace::new();
    trace.process_name(PID, name);
    trace.thread_name(PID, SKIP_TID, "skipped spans");
    for span in &sink.skip_spans {
        trace.complete(
            span.label,
            PID,
            SKIP_TID,
            span.start_cycle,
            span.len,
            &[("cycles", span.len)],
        );
    }
    for s in &sink.intervals {
        let d = &s.delta;
        trace.counter("ipc", PID, s.start_cycle, &[("ipc", d.ipc())]);
        let stalls: Vec<(&str, f64)> = StallReason::ALL
            .iter()
            .map(|&r| {
                let label = IdleCycleKind::DispatchStall(r).label();
                (label, d.dispatch_stalls[r.index()] as f64)
            })
            .collect();
        trace.counter("stalls", PID, s.start_cycle, &stalls);
        let occupancy: Vec<(String, f64)> = d
            .clusters
            .iter()
            .enumerate()
            .map(|(c, cs)| {
                (
                    format!("c{c}"),
                    cs.occupancy_integral as f64 / d.cycles.max(1) as f64,
                )
            })
            .collect();
        let occupancy: Vec<(&str, f64)> = occupancy.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        trace.counter("occupancy", PID, s.start_cycle, &occupancy);
    }
    for (cycle, gauges) in &sink.gauges {
        trace.counter("queues", PID, *cycle, gauges);
    }
    trace
}

fn main() -> ExitCode {
    let args = CLI.parse();
    let Some((cmd, operands)) = args.operands().split_first() else {
        args.fail("missing command");
    };
    match run(&args, cmd, operands) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("trace_replay: {msg}");
            ExitCode::FAILURE
        }
    }
}
