//! Session-reuse throughput harness: measures simulated micro-ops per
//! wall-clock second **with and without** session reuse, per Table 3
//! scheme, against the committed numbers in `results/BASELINES.md`.
//!
//! ```text
//! throughput [--uops N] [--runs R] [--clusters 2|4|8] [--point NAME]
//!            [--trace FILE] [--stages] [--timeline FILE] [--observe]
//!            [--every K] [--json-out FILE]
//!            [--retries N] [--deadline-ms MS] [--chaos SCHEDULE]
//! ```
//!
//! Default mode expands a suite point (`--point`, default `gzip-1`; any
//! Fig. 5 name, e.g. `mcf` for an idle-heavy memory-bound stream) once
//! per scheme into an in-memory trace, then runs it `R` times two ways:
//!
//! * **fresh** — `SimSession::new(cfg).run(..)` per run (the pre-refactor
//!   cost model: every run reallocates caches, predictor tables, the event
//!   calendar);
//! * **reused** — one [`SimSession`] reset per run, with the trace
//!   [`rewound`](virtclust_uarch::TraceSource::rewind) instead of rebuilt.
//!
//! Both modes must produce bit-identical statistics (checked every run);
//! the report is the throughput of each and the speedup. `--trace FILE`
//! instead measures batched replay of a stored trace through
//! [`EvalDriver`] (`R` × Table 3 cells, readers parsed once and rewound);
//! with `--retries`/`--deadline-ms`/`--chaos` (or `VIRTCLUST_FAILPOINTS`,
//! trace mode only) the batch goes through the resilient engine and the
//! report carries the degraded-completion summary instead of failing on
//! the first faulted cell.
//!
//! `--stages` instead reports the per-stage wall-time share of a cycle
//! (events+wakeup / commit / store-drain / memory / issue / stale-view /
//! dispatch / fetch / skip) via [`SimSession::step_timed`] — the instrumented step
//! loop the plain run never pays for — so perf PRs can point at the next
//! bottleneck. The `skip` bucket is the idle-span probe plus span
//! application, so shares sum to 100 % of wall time even on idle-heavy
//! points like `mcf`.
//!
//! `--timeline FILE` runs each scheme once with an interval observer
//! attached and writes a Chrome-trace-event JSON (`chrome://tracing` /
//! Perfetto) with per-stage slices, skipped idle spans, and IPC / stall /
//! occupancy / queue-depth counter tracks, one interval every `--every`
//! cycles (default 1000). Point mode prints the skip-path diagnostics
//! (spans, replicated cycles, span-length percentiles) per scheme;
//! `--observe` adds a third measured loop with a live `MemSink` interval
//! observer (interval `--every`) and reports its overhead vs the bare
//! reused session — the source of the observer-overhead row in
//! `results/BASELINES.md`.
//!
//! `--json-out FILE` (point mode only) additionally writes the run as a
//! machine-readable perf-trajectory document: per-scheme fresh/reused
//! uops/s, the reused run's stepped-vs-replicated cycle split, and
//! ns per busy (stepped) cycle. Committed snapshots live under
//! `results/bench/` (`prN-before.json` / `prN-after.json`); the CI
//! bench-smoke job compares a fresh run against the newest committed file
//! and warns on >10 % uops/s regression.
//!
//! In `gzip-1` point mode on the 2-cluster machine the report ends with a
//! delta against the committed per-scheme mean in `results/BASELINES.md`
//! (other points have no committed pin).
//!
//! `--uops` defaults to `VIRTCLUST_UOPS` or 20 000; `--runs` defaults
//! to 8. Results are also written to `results/throughput.md`.

use std::fmt::Write as _;
use std::num::NonZeroU64;
use std::process::ExitCode;
use std::time::Instant;

use virtclust_bench::{results_dir, threads, uop_budget, write_result, Cli, RESILIENCE_FLAGS};
use virtclust_core::{Configuration, EvalDriver, EvalJob, ResilientOptions};
use virtclust_obs::{ChromeTrace, MemSink, Shared};
use virtclust_sim::{RunLimits, SimSession, SimStats, StageTimers, StallReason};
use virtclust_trace::TraceReader;
use virtclust_uarch::{DynUop, MachineConfig, SliceTrace, TraceSource};
use virtclust_workloads::spec2000_points;

const CLI: Cli = Cli {
    usage: "usage: throughput [--uops N] [--runs R] [--clusters 2|4|8] [--point NAME]\n                  \
            [--trace FILE] [--stages] [--timeline FILE] [--observe]\n                  \
            [--every K] [--json-out FILE]\n                  \
            [--retries N] [--deadline-ms MS] [--chaos SCHEDULE]",
    switches: "--stages --observe",
    values: "--uops --runs --clusters --point --trace --timeline --every --json-out \
             --retries --deadline-ms --chaos",
    operands: false,
};

struct Args {
    uops: u64,
    runs: u64,
    machine: MachineConfig,
    point: String,
    trace: Option<String>,
    stages: bool,
    timeline: Option<String>,
    every: u64,
    observe: bool,
    json_out: Option<String>,
    /// Batch resilience (trace mode only).
    resilience: Option<ResilientOptions>,
}

fn parse_args() -> Args {
    let cli = CLI.parse();
    let point = cli.str("--point").unwrap_or("gzip-1");
    if !spec2000_points().iter().any(|p| p.name == point) {
        cli.fail(&format!("--point: unknown suite point {point}"));
    }
    let modes = ["--trace", "--stages", "--timeline"];
    if modes.iter().filter(|m| cli.has(m)).count() > 1 {
        cli.fail("--stages, --trace and --timeline are mutually exclusive");
    }
    let resilience = if cli.has("--trace") {
        cli.resilience()
    } else {
        cli.only_in("--trace mode", RESILIENCE_FLAGS);
        None
    };
    Args {
        uops: cli.value("--uops").unwrap_or_else(|| uop_budget(20_000)),
        runs: cli.value("--runs").map_or(8, NonZeroU64::get),
        machine: cli.machine(),
        point: point.to_string(),
        trace: cli.str("--trace").map(String::from),
        stages: cli.has("--stages"),
        timeline: cli.str("--timeline").map(String::from),
        every: cli.value("--every").map_or(1_000, NonZeroU64::get),
        observe: cli.has("--observe"),
        json_out: cli.str("--json-out").map(String::from),
        resilience,
    }
}

/// Expand `uops` micro-ops of a suite point under `config`'s compiler pass
/// into an in-memory trace (hints baked in, like a frozen per-scheme
/// stream).
fn expand_scheme(
    config: &Configuration,
    machine: &MachineConfig,
    uops: u64,
    point: &str,
) -> Vec<DynUop> {
    let point = spec2000_points()
        .into_iter()
        .find(|p| p.name == point)
        .expect("suite point validated in parse_args");
    let mut program = point.build_program();
    config
        .software_pass(machine.num_clusters as u32)
        .apply(&mut program, &machine.latencies);
    let mut expander = point.expander(&program);
    (0..uops)
        .map(|_| expander.next_uop().expect("endless stream"))
        .collect()
}

/// One scheme's measurements for the machine-readable perf trajectory
/// (`--json-out`): throughput both ways, the stepped-vs-replicated cycle
/// split of the reused run, and the wall cost of a cycle the skipper could
/// not replicate (the busy-cycle metric the hot-path work tracks).
struct SchemeBench {
    scheme: String,
    fresh_uops_per_sec: f64,
    reused_uops_per_sec: f64,
    cycles: u64,
    replicated_cycles: u64,
    /// Skipped spans whose classification consulted the (pure) steering
    /// policy — zero for impure policies by construction.
    policy_stall_spans: u64,
    ns_per_busy_cycle: f64,
}

/// Render the `--json-out` document: run parameters plus one entry per
/// scheme and the per-scheme means. Hand-rolled JSON (the schema is flat
/// and the repo carries no serializer dependency).
fn render_bench_json(args: &Args, clusters: usize, rows: &[SchemeBench]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"bench\": \"throughput\",\n  \"point\": \"{}\",\n  \"clusters\": {},\n  \
         \"uops\": {},\n  \"runs\": {},\n  \"schemes\": [",
        args.point, clusters, args.uops, args.runs,
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"scheme\": \"{}\", \"fresh_uops_per_sec\": {:.0}, \
             \"reused_uops_per_sec\": {:.0}, \"cycles\": {}, \"replicated_cycles\": {}, \
             \"stepped_cycles\": {}, \"policy_stall_spans\": {}, \
             \"ns_per_busy_cycle\": {:.1}}}{}",
            r.scheme,
            r.fresh_uops_per_sec,
            r.reused_uops_per_sec,
            r.cycles,
            r.replicated_cycles,
            r.cycles - r.replicated_cycles,
            r.policy_stall_spans,
            r.ns_per_busy_cycle,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    let n = rows.len().max(1) as f64;
    let _ = writeln!(
        out,
        "  ],\n  \"mean_fresh_uops_per_sec\": {:.0},\n  \"mean_reused_uops_per_sec\": {:.0}\n}}",
        rows.iter().map(|r| r.fresh_uops_per_sec).sum::<f64>() / n,
        rows.iter().map(|r| r.reused_uops_per_sec).sum::<f64>() / n,
    );
    out
}

/// Parse the committed per-scheme mean (fresh, reused uops/s) from the
/// first `| **mean** | … |` row of `results/BASELINES.md`, if present.
/// Numbers may use spaces as thousands separators.
fn committed_mean() -> Option<(f64, f64)> {
    let text = std::fs::read_to_string(results_dir().join("BASELINES.md")).ok()?;
    let row = text.lines().find(|l| l.starts_with("| **mean**"))?;
    let mut nums = row.split("**").filter_map(|cell| {
        let digits: String = cell.chars().filter(char::is_ascii_digit).collect();
        (!digits.is_empty() && !cell.contains('%')).then(|| digits.parse::<f64>().ok())?
    });
    Some((nums.next()?, nums.next()?))
}

fn point_mode(args: &Args, machine: &MachineConfig) -> Result<String, String> {
    let clusters = machine.num_clusters as u32;
    let mut report = String::from(
        "| scheme | fresh machine/run (uops/s) | reused session (uops/s) | speedup |\n|---|---|---|---|\n",
    );
    let mut session = SimSession::new(machine);
    let (mut sum_fresh, mut sum_reused) = (0.0f64, 0.0f64);
    let mut skip_report = String::from(
        "\nSkip-path diagnostics (last reused run per scheme):\n\n\
         | scheme | cycles | spans skipped | cycles replicated | share | policy spans | median span | max span |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    let mut observe_report = format!(
        "\nObserver overhead (reused session, MemSink interval observer, K={}):\n\n\
         | scheme | reused (uops/s) | observed (uops/s) | overhead |\n|---|---|---|---|\n",
        args.every,
    );
    let mut sum_observed = 0.0f64;
    let mut bench_rows: Vec<SchemeBench> = Vec::new();
    for config in Configuration::table3() {
        let uops = expand_scheme(&config, machine, args.uops, &args.point);

        // Fresh: a new session (and a new trace view) per run.
        let t0 = Instant::now();
        let mut fresh_stats = None;
        for _ in 0..args.runs {
            let mut trace = SliceTrace::new(&uops);
            let mut policy = config.make_policy();
            let stats =
                SimSession::new(machine).run(&mut trace, policy.as_mut(), &RunLimits::unlimited());
            fresh_stats.get_or_insert(stats);
        }
        let fresh_wall = t0.elapsed().as_secs_f64();
        let fresh_stats = fresh_stats.expect("runs >= 1");

        // Reused: one session, one rewindable trace, one policy.
        let mut trace = SliceTrace::new(&uops);
        let mut policy = config.make_policy();
        let t0 = Instant::now();
        for _ in 0..args.runs {
            trace.rewind().map_err(|e| e.to_string())?;
            let stats = session.simulate(
                machine,
                &mut trace,
                policy.as_mut(),
                &RunLimits::unlimited(),
            );
            if stats != fresh_stats {
                return Err(format!(
                    "{}: reused session diverged from fresh machine",
                    config.name(clusters)
                ));
            }
        }
        let reused_wall = t0.elapsed().as_secs_f64();

        // Observed: the same reused loop with a live `MemSink` interval
        // observer (one fresh sink per run, interval = --every cycles).
        // Stats must stay bit-identical — the observer reads, never
        // steers — so the only difference the table can show is the
        // telemetry's wall-clock cost.
        let observed_ups = if args.observe {
            let mut trace = SliceTrace::new(&uops);
            let mut policy = config.make_policy();
            let t0 = Instant::now();
            for _ in 0..args.runs {
                trace.rewind().map_err(|e| e.to_string())?;
                let handle = Shared::new(MemSink::<SimStats>::new());
                session.attach_observer(args.every, Box::new(handle.clone()));
                let stats = session.simulate(
                    machine,
                    &mut trace,
                    policy.as_mut(),
                    &RunLimits::unlimited(),
                );
                if stats != fresh_stats {
                    return Err(format!(
                        "{}: observed session diverged from fresh machine",
                        config.name(clusters)
                    ));
                }
            }
            let wall = t0.elapsed().as_secs_f64();
            session.detach_observer();
            Some((fresh_stats.committed_uops * args.runs) as f64 / wall.max(1e-9))
        } else {
            None
        };

        // PR 6's replicated-cycle claim, reproducible from the tool: the
        // session's skip diagnostics cover the last reused run (reset per
        // run), and cannot live in `SimStats` without breaking the
        // skipping-vs-stepping bit-identity contract.
        let diag = session.skip_diag();
        let _ = writeln!(
            skip_report,
            "| {} | {} | {} | {} | {:.1}% | {} | {} | {} |",
            config.name(clusters),
            fresh_stats.cycles,
            diag.spans,
            diag.cycles,
            100.0 * diag.replicated_share(fresh_stats.cycles),
            diag.policy_dependent_spans(),
            diag.hist.percentile(0.5),
            diag.hist.max(),
        );

        let total = (fresh_stats.committed_uops * args.runs) as f64;
        let fresh_ups = total / fresh_wall.max(1e-9);
        let reused_ups = total / reused_wall.max(1e-9);
        sum_fresh += fresh_ups;
        sum_reused += reused_ups;
        // `ns_per_busy_cycle`: reused wall per run over the cycles the
        // skipper had to step (diag covers the last reused run; every
        // reused run is identical, so one run's split is the split).
        let stepped = fresh_stats.cycles - diag.cycles;
        bench_rows.push(SchemeBench {
            scheme: config.name(clusters).to_string(),
            fresh_uops_per_sec: fresh_ups,
            reused_uops_per_sec: reused_ups,
            cycles: fresh_stats.cycles,
            replicated_cycles: diag.cycles,
            policy_stall_spans: diag.policy_dependent_spans(),
            ns_per_busy_cycle: reused_wall / args.runs as f64 / stepped.max(1) as f64 * 1e9,
        });
        if let Some(oups) = observed_ups {
            sum_observed += oups;
            let _ = writeln!(
                observe_report,
                "| {} | {:.0} | {:.0} | {:+.1}% |",
                config.name(clusters),
                reused_ups,
                oups,
                (oups / reused_ups - 1.0) * 100.0,
            );
        }
        let _ = writeln!(
            report,
            "| {} | {:.0} | {:.0} | {:+.1}% |",
            config.name(clusters),
            fresh_ups,
            reused_ups,
            (reused_ups / fresh_ups - 1.0) * 100.0,
        );
    }
    let n = Configuration::table3().len() as f64;
    let _ = writeln!(
        report,
        "| **mean** | **{:.0}** | **{:.0}** | **{:+.1}%** |",
        sum_fresh / n,
        sum_reused / n,
        (sum_reused / sum_fresh - 1.0) * 100.0,
    );
    report.push_str(&skip_report);
    if args.observe {
        let _ = writeln!(
            observe_report,
            "| **mean** | **{:.0}** | **{:.0}** | **{:+.1}%** |",
            sum_reused / n,
            sum_observed / n,
            (sum_observed / sum_reused - 1.0) * 100.0,
        );
        report.push_str(&observe_report);
    }
    if let Some(path) = &args.json_out {
        let doc = render_bench_json(args, machine.num_clusters, &bench_rows);
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(report, "\nbench JSON written to {path}");
    }
    // Delta against the committed reference (2-cluster table only — that
    // is what BASELINES.md pins). Informational: wall-clock comparisons
    // across hosts are noise, but on the CI runner a large regression
    // shows up here without digging through two tables.
    if machine.num_clusters == 2 && args.point == "gzip-1" {
        match committed_mean() {
            Some((base_fresh, base_reused)) => {
                let _ = writeln!(
                    report,
                    "\nvs committed baseline (results/BASELINES.md, mean uops/s): \
                     fresh {:.0} -> {:.0} ({:+.1}%), reused {:.0} -> {:.0} ({:+.1}%)",
                    base_fresh,
                    sum_fresh / n,
                    (sum_fresh / n / base_fresh - 1.0) * 100.0,
                    base_reused,
                    sum_reused / n,
                    (sum_reused / n / base_reused - 1.0) * 100.0,
                );
            }
            None => {
                let _ = writeln!(
                    report,
                    "\n(no committed mean row found in results/BASELINES.md — delta skipped)"
                );
            }
        }
    }
    Ok(report)
}

/// `--stages`: run each Table 3 scheme through the instrumented
/// [`SimSession::step_timed`] loop and report where the wall-clock cycle
/// budget goes, stage by stage.
fn stages_mode(args: &Args, machine: &MachineConfig) -> Result<String, String> {
    let clusters = machine.num_clusters as u32;
    let mut report = String::from("| scheme | cycles |");
    for name in StageTimers::NAMES {
        let _ = write!(report, " {name} |");
    }
    report.push_str("\n|---|---|");
    report.push_str(&"---|".repeat(StageTimers::NUM_STAGES));
    report.push('\n');
    let mut session = SimSession::new(machine);
    let mut totals = StageTimers::default();
    for config in Configuration::table3() {
        let uops = expand_scheme(&config, machine, args.uops, &args.point);
        let mut trace = SliceTrace::new(&uops);
        let mut policy = config.make_policy();
        let mut timers = StageTimers::default();
        for _ in 0..args.runs {
            trace.rewind().map_err(|e| e.to_string())?;
            session.reset(machine);
            policy.reset();
            loop {
                session.step_timed(
                    &mut trace,
                    policy.as_mut(),
                    &RunLimits::unlimited(),
                    &mut timers,
                );
                if session.done() {
                    break;
                }
            }
        }
        let _ = write!(report, "| {} | {} |", config.name(clusters), timers.cycles);
        for i in 0..StageTimers::NUM_STAGES {
            let _ = write!(report, " {:.1}% |", 100.0 * timers.share(i));
        }
        report.push('\n');
        for (bucket, add) in totals.buckets.iter_mut().zip(timers.buckets) {
            *bucket += add;
        }
        totals.cycles += timers.cycles;
    }
    let _ = write!(report, "| **all schemes** | {} |", totals.cycles);
    for i in 0..StageTimers::NUM_STAGES {
        let _ = write!(report, " **{:.1}%** |", 100.0 * totals.share(i));
    }
    let _ = writeln!(
        report,
        "\n\nShares are wall-clock per stage over {} run(s)/scheme at {} uops/cell \
         ({:.0} ns/cycle all-in); the plain (untimed) step loop contains none of \
         this instrumentation.",
        args.runs,
        args.uops,
        totals.total().as_nanos() as f64 / totals.cycles.max(1) as f64,
    );
    Ok(report)
}

/// `--timeline FILE`: run each Table 3 scheme once through the
/// instrumented, observed step loop and render a Chrome-trace-event
/// timeline (loadable in `chrome://tracing` / Perfetto): per-stage
/// wall-time slices and skipped idle spans per interval, plus counter
/// tracks for IPC, the dispatch-stall breakdown, per-cluster occupancy and
/// queue-depth gauges. One simulated cycle maps to one microsecond, so
/// the timeline reads directly in cycles. Each scheme's observed stats are
/// asserted bit-identical to an unobserved, untimed reference run.
fn timeline_mode(args: &Args, machine: &MachineConfig, out_path: &str) -> Result<String, String> {
    let clusters = machine.num_clusters as u32;
    let every = args.every;
    let mut trace_out = ChromeTrace::new();
    let mut report = String::from(
        "| scheme | cycles | intervals | spans skipped | replicated |\n|---|---|---|---|---|\n",
    );
    for (si, config) in Configuration::table3().into_iter().enumerate() {
        let pid = si as u64 + 1;
        let scheme = config.name(clusters);
        trace_out.process_name(pid, &format!("{scheme} · {}", args.point));
        let skip_tid = StageTimers::NUM_STAGES as u64;
        trace_out.thread_name(pid, skip_tid, "skipped spans");
        trace_out.thread_sort_index(pid, skip_tid, 0);
        for (i, name) in StageTimers::NAMES.iter().enumerate() {
            trace_out.thread_name(pid, i as u64, name);
            trace_out.thread_sort_index(pid, i as u64, i as u64 + 1);
        }

        let uops = expand_scheme(&config, machine, args.uops, &args.point);
        // Unobserved, untimed reference: the bit-identity check below is
        // the tool-level restatement of the observer's hard contract.
        let reference = {
            let mut trace = SliceTrace::new(&uops);
            let mut policy = config.make_policy();
            SimSession::new(machine).run(&mut trace, policy.as_mut(), &RunLimits::unlimited())
        };

        let handle = Shared::new(MemSink::<SimStats>::new());
        let mut session = SimSession::new(machine);
        session.attach_observer(every, Box::new(handle.clone()));
        let mut trace = SliceTrace::new(&uops);
        let mut policy = config.make_policy();
        policy.reset();
        let mut timers = StageTimers::default();
        // Cumulative stage-timer snapshots at interval boundaries, so each
        // interval's slices reflect where *that* interval's host time went.
        let mut marks: Vec<(u64, StageTimers)> = Vec::new();
        let mut next_mark = every;
        loop {
            session.step_timed(
                &mut trace,
                policy.as_mut(),
                &RunLimits::unlimited(),
                &mut timers,
            );
            while session.cycle() >= next_mark {
                marks.push((next_mark, timers.clone()));
                next_mark += every;
            }
            if session.done() {
                break;
            }
        }
        session.flush_observer();
        let observed = session.stats().clone();
        if observed != reference {
            return Err(format!(
                "{scheme}: observed run diverged from unobserved reference"
            ));
        }
        if marks.last().map(|(c, _)| *c) != Some(observed.cycles) {
            marks.push((observed.cycles, timers.clone()));
        }
        let diag = session.skip_diag().clone();

        // Per-interval stage slices: the interval's simulated length split
        // by that interval's per-stage host-time shares.
        let mut prev = (0u64, StageTimers::default());
        for (cycle, cum) in marks {
            let interval = cycle - prev.0;
            let deltas: Vec<std::time::Duration> = cum
                .buckets
                .iter()
                .zip(&prev.1.buckets)
                .map(|(a, b)| *a - *b)
                .collect();
            let total: f64 = deltas.iter().map(std::time::Duration::as_secs_f64).sum();
            if total > 0.0 {
                for (i, d) in deltas.iter().enumerate() {
                    let dur = (interval as f64 * d.as_secs_f64() / total) as u64;
                    if dur > 0 {
                        trace_out.complete(StageTimers::NAMES[i], pid, i as u64, prev.0, dur, &[]);
                    }
                }
            }
            prev = (cycle, cum);
        }

        handle.with(|sink| {
            for span in &sink.skip_spans {
                trace_out.complete(
                    span.label,
                    pid,
                    skip_tid,
                    span.start_cycle,
                    span.len,
                    &[("cycles", span.len)],
                );
            }
            for s in &sink.intervals {
                let d = &s.delta;
                trace_out.counter("ipc", pid, s.start_cycle, &[("ipc", d.ipc())]);
                let stall_series: Vec<(String, f64)> = StallReason::ALL
                    .iter()
                    .map(|r| (r.to_string(), d.dispatch_stalls[r.index()] as f64))
                    .collect();
                let stall_refs: Vec<(&str, f64)> =
                    stall_series.iter().map(|(k, v)| (k.as_str(), *v)).collect();
                trace_out.counter("stalls", pid, s.start_cycle, &stall_refs);
                let occ: Vec<(String, f64)> = d
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
                let occ_refs: Vec<(&str, f64)> =
                    occ.iter().map(|(k, v)| (k.as_str(), *v)).collect();
                trace_out.counter("occupancy", pid, s.start_cycle, &occ_refs);
            }
            for (cycle, gauges) in &sink.gauges {
                trace_out.counter("queues", pid, *cycle, gauges);
            }
        });

        let _ = writeln!(
            report,
            "| {scheme} | {} | {} | {} | {:.1}% |",
            observed.cycles,
            handle.with(|s| s.intervals.len()),
            diag.spans,
            100.0 * diag.replicated_share(observed.cycles),
        );
    }
    trace_out
        .save(std::path::Path::new(out_path))
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let _ = writeln!(
        report,
        "\n{} trace events written to {out_path} (interval {every} cycles; open in \
         chrome://tracing or https://ui.perfetto.dev; 1 cycle = 1 µs).\n\
         Observed stats verified bit-identical to unobserved reference runs.",
        trace_out.len(),
    );
    Ok(report)
}

fn trace_mode(args: &Args, machine: &MachineConfig, file: &str) -> Result<String, String> {
    // Sanity: the file parses and declares a stream.
    let reader = TraceReader::open(file).map_err(|e| e.to_string())?;
    let declared = reader.declared_len();
    drop(reader);
    let jobs: Vec<EvalJob> = (0..args.runs)
        .flat_map(|_| {
            Configuration::table3()
                .into_iter()
                .map(|config| EvalJob::Trace {
                    path: file.into(),
                    config,
                    limits: RunLimits::unlimited(),
                })
        })
        .collect();
    let driver = EvalDriver::new(machine).threads(threads());
    let t0 = Instant::now();
    let (outcomes, report) = match &args.resilience {
        Some(opts) => {
            let (outcomes, report) = driver.run_resilient(&jobs, opts, |_, _| {});
            (outcomes, Some(report))
        }
        None => (driver.run(&jobs), None),
    };
    let wall = t0.elapsed().as_secs_f64();
    let mut total_uops = 0u64;
    for outcome in &outcomes {
        match &outcome.stats {
            Ok(stats) => total_uops += stats.committed_uops,
            // Under the resilient engine failed cells are tallied in the
            // report; without it the first failure is fatal.
            Err(_) if report.is_some() => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    let mut out = format!(
        "batched replay of {file} (declared {declared:?} uops): {} cells, {total_uops} uops \
         in {wall:.2}s = {:.0} uops/s aggregate (readers parsed once per worker, rewound per cell)\n",
        outcomes.len(),
        total_uops as f64 / wall.max(1e-9),
    );
    if let Some(report) = &report {
        let _ = writeln!(out, "resilient engine: {}", report.summary());
    }
    Ok(out)
}

fn run(args: &Args) -> Result<(), String> {
    let machine = &args.machine;
    let header = format!(
        "# Simulation throughput ({} clusters, {} point, {} uops/cell, {} runs/scheme)\n\n\
         Wall-clock numbers; compare only against runs on the same host.\n\
         Committed reference: results/BASELINES.md.\n\n",
        machine.num_clusters, args.point, args.uops, args.runs,
    );
    let body = match (&args.trace, &args.timeline) {
        (Some(file), _) => trace_mode(args, machine, file)?,
        (None, Some(out)) => timeline_mode(args, machine, out)?,
        (None, None) if args.stages => stages_mode(args, machine)?,
        (None, None) => point_mode(args, machine)?,
    };
    let out = format!("{header}{body}");
    print!("{out}");
    let path = write_result("throughput.md", &out);
    println!("\nwritten to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    match run(&parse_args()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("throughput: {msg}");
            ExitCode::FAILURE
        }
    }
}
