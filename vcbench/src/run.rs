//! One run of one workload: generate its inputs from the seed, measure,
//! check every output, and turn what was measured into metrics.
//!
//! An untraced run measures the end-to-end metrics. A traced run measures
//! the per-layer ones: it drives the same workload, then re-runs its jobs
//! once through the batch engine (the untraced reference) and once
//! through the traced path of [`crate::layers`], and checks that all three
//! agree bit for bit.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::HashMap;
use std::hint::black_box;
use std::ops::Range;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use virtclust_core::{
    run_point, slowdown_pct, BatchMetrics, CellOutcome, Configuration, EvalDriver, EvalJob,
    JobDone, JobSource, ResilientOptions, SourcedJob,
};
use virtclust_sim::{SimSession, SimStats};
use virtclust_svc::{resolve_spec, stats_digest, JobSpec, WireStats};
use virtclust_trace::TraceWriter;
use virtclust_uarch::{DynUop, MachineConfig, TraceSource};
use virtclust_workloads::spec2000_points;

use crate::calib;
use crate::layers::{ratio, traced_run, Ledger, TracedRun};
use crate::plan::{self, ReplayTrace, SvcShape, Workload, SCHEMES};
use crate::report::Metrics;
use crate::service::{peak_rss_mb, run_phase, Daemon, Pace, PhaseLog, DAEMON_THREADS};
use crate::stats::{median, percentile, sorted, windowed_percentile, Rng};

/// Extra daemon launches between every two phases of a service run;
/// `setup_s` is the median of all launches.
const SETUP_LAUNCHES: usize = 2;
/// Driver-and-session builds before the first drain of a batch run and
/// after each one; `setup_s` is the median of all of them.
const BATCH_SETUPS: usize = 10;
/// Paced samples per latency window (at least ten lie beyond each
/// window's p99).
const WINDOW_SAMPLES: usize = 1_000;
/// Jobs kept in flight during a flood: far more than the daemon has
/// workers, far fewer than its per-client quota.
const FLOOD_WINDOW: usize = 64;
/// Consecutive slices of each flood phase; `jobs_per_s` is the median
/// slice's rate over all of them.
const FLOOD_SLICES: usize = 5;
/// Untimed drains before a batch run measures.
const WARMUP_DRAINS: usize = 2;
/// Fewest full drains a batch run measures, however short `--seconds`.
const MIN_DRAINS: usize = 3;
/// Jobs per direct verification batch.
const VERIFY_CHUNK: usize = 512;
/// Jobs a traced service run re-runs in process (a prefix of its
/// schedule), which bounds the traced run's length.
const TRACED_JOBS: usize = 10_000;
/// Batch cells re-run directly through `run_point` per run.
const SPOT_CHECKS: usize = 3;

/// The paper's VC figures each workload must reproduce exactly:
/// `(workload, vc_slowdown_pct, vc_copies_per_kuop)` over the 40 suite
/// points at the workload's job size. They move only when the simulated
/// model changes.
const PINNED_FIGURES: [(Workload, f64, f64); 3] = [
    (Workload::SvcShortMix, 0.4383328927788271, 142.05),
    (Workload::BatchLongSim, 0.7745741478343025, 139.2055),
    (Workload::SvcUniqueReplay, 0.7756805795147932, 141.815),
];

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    /// The `serve` daemon binary.
    pub serve_bin: PathBuf,
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Scratch directory for sockets and generated traces.
    pub work: PathBuf,
    /// The committed trace corpus (`results/traces`).
    pub corpus: PathBuf,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metrics.
    pub metrics: Metrics,
    /// Operations attempted (jobs submitted, cells run).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Human-readable context (sample counts, bases of ratios).
    pub notes: Vec<String>,
    /// Every output that was wrong. Non-empty means no metrics count.
    pub mismatches: Vec<String>,
}

/// Run `args.workload` once.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match SvcShape::of(args.workload) {
        Some(shape) => service(args, shape, &mut out)?,
        None => batch(args, &mut out)?,
    }
    Ok(out)
}

/// The machine every workload simulates.
fn machine() -> MachineConfig {
    MachineConfig::paper_2cluster()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Stats as `Result`s with printable errors, in job order.
fn stats_of(outcomes: Vec<CellOutcome>) -> Vec<Result<SimStats, String>> {
    outcomes
        .into_iter()
        .map(|o| o.stats.map_err(|e| e.to_string()))
        .collect()
}

// ---------------------------------------------------------------- service

fn service(args: &Args, shape: SvcShape, out: &mut Outcome) -> Result<(), String> {
    let machine = machine();
    let mut rng = Rng::new(args.seed);
    let (n_flood, n_paced) = shape.counts(args.seconds);
    let n = n_flood + n_paced;
    let mut write = Ledger::default();
    let specs: Vec<JobSpec> = match args.workload {
        Workload::SvcUniqueReplay => {
            let traces = plan::unique_replays(&mut rng, n, &args.work);
            for t in &traces {
                record(t, plan::REPLAY_UOPS, &mut write)?;
            }
            // Write the traces back to disk now: left to the kernel, the
            // writeback of several hundred MB lands mid-measurement.
            let synced = Command::new("sync")
                .arg("--file-system")
                .arg(&args.work)
                .status()
                .map_err(|e| format!("sync: {e}"))?;
            if !synced.success() {
                return Err(format!("sync exited with {synced}"));
            }
            traces.iter().map(ReplayTrace::spec).collect()
        }
        _ => plan::short_mix(&mut rng, n, &args.corpus),
    };
    // Tickets index `specs`: the flood jobs, then the paced jobs.
    let flood_rounds: Vec<Range<usize>> = (0..shape.rounds)
        .map(|r| round(n_flood, shape.rounds, r))
        .collect();
    let paced_rounds: Vec<(Range<usize>, Vec<Duration>)> = (0..shape.rounds)
        .map(|r| {
            let jobs = round(n_paced, shape.rounds, r);
            let offsets = plan::arrivals(&mut rng, jobs.len(), shape.paced_per_s);
            (n_flood + jobs.start..n_flood + jobs.end, offsets)
        })
        .collect();
    let jobs: Vec<EvalJob> = specs
        .iter()
        .map(|s| resolve_spec(s).map_err(|e| format!("job {s:?}: {e}")))
        .collect::<Result<_, _>>()?;

    // Set-up: launch the measured daemon, then between every two phases
    // launch and stop SETUP_LAUNCHES more, so the set-up times sample the
    // host across the whole run.
    let mut setups = Vec::new();
    let gap = |setups: &mut Vec<f64>| -> Result<f64, String> {
        for _ in 0..SETUP_LAUNCHES {
            let sock = args.work.join(format!("d{}.sock", setups.len()));
            let (daemon, client, took) = Daemon::launch(&args.serve_bin, &sock)?;
            setups.push(took.as_secs_f64());
            let (mut tx, mut rx) = client.split().map_err(|e| format!("split: {e}"))?;
            daemon.stop(&mut tx, &mut rx)?;
        }
        Ok(calib::slowness())
    };
    let sock = args.work.join("daemon.sock");
    let (daemon, client, took) = Daemon::launch(&args.serve_bin, &sock)?;
    setups.push(took.as_secs_f64());
    let (mut tx, mut rx) = client.split().map_err(|e| format!("split: {e}"))?;

    // Rounds alternate a flood and a paced phase, so both sample the
    // host across the whole run rather than one stretch of it. The host's
    // speed is calibrated before the first phase and after each one, while
    // the daemon is idle.
    let mut floods = Vec::with_capacity(shape.rounds);
    let mut paced = Vec::with_capacity(shape.rounds);
    let mut calibs = vec![calib::slowness()];
    for (f, (p, offsets)) in flood_rounds.into_iter().zip(&paced_rounds) {
        let window = FLOOD_WINDOW;
        let flood = run_phase(
            &mut tx,
            &mut rx,
            &specs[f.clone()],
            f.start as u64,
            Pace::Flood { window },
        );
        floods.push(flood?);
        calibs.push(gap(&mut setups)?);
        let open = Pace::Open { offsets };
        paced.push(run_phase(
            &mut tx,
            &mut rx,
            &specs[p.clone()],
            p.start as u64,
            open,
        )?);
        calibs.push(gap(&mut setups)?);
    }
    // Phase `k` (flood `k / 2` or paced `k / 2`) ran between calibrations
    // `k` and `k + 1`.
    let slow: Vec<f64> = calibs
        .windows(2)
        .map(|w| calib::between(w[0], w[1]))
        .collect();
    let flood_slow = slow.iter().step_by(2);
    let paced_slow = slow.iter().skip(1).step_by(2);
    let rss = daemon.peak_rss_mb()?;
    let accounting = daemon.stop(&mut tx, &mut rx)?;

    // Accounting: every job resolved exactly once, on both sides.
    let mut replies: Vec<Option<&Result<WireStats, String>>> = vec![None; n];
    for phase in floods.iter().chain(&paced) {
        for (i, r) in phase.replies.iter().enumerate() {
            replies[phase.first_ticket as usize + i] = r.as_ref().map(|r| &r.result.outcome);
        }
    }
    let busy: u64 = floods.iter().chain(&paced).map(|p| p.busy).sum();
    let answered = replies.iter().flatten().count() as u64;
    let ok = replies.iter().flatten().filter(|r| r.is_ok()).count() as u64;
    out.attempted = n as u64;
    out.failed = n as u64 - ok;
    let field = |name: &str| accounting_field(&accounting, name);
    if field("accepted") != Some(answered)
        || field("completed") != Some(answered)
        || field("rejected") != Some(busy)
    {
        out.mismatches.push(format!(
            "daemon accounting {accounting} disagrees with the client: {answered} answered, {busy} busy"
        ));
    }

    // Correctness: every result against a direct run of the same job.
    let expected = direct_dedup(&machine, &specs, &jobs);
    for (i, (reply, want)) in replies.iter().zip(&expected).enumerate() {
        if let Some(m) = wire_mismatch(*reply, want) {
            out.mismatches
                .push(format!("job {i} ({:?}): {m}", specs[i]));
        }
    }

    let outside: Vec<f64> = paced
        .iter()
        .flat_map(paced_latencies)
        .map(|(_, o)| o)
        .collect();
    let gen_lag = floods
        .iter()
        .chain(&paced)
        .map(PhaseLog::max_lag)
        .max()
        .unwrap_or_default();
    if args.trace {
        let outside = sorted(outside);
        let svc = SvcLayer {
            outside_p50: percentile(&outside, 0.5),
            outside_p99: percentile(&outside, 0.99),
            busy_frac: busy as f64 / n as f64,
            gen_lag_ms: ms(gen_lag),
        };
        let sample = &jobs[..jobs.len().min(TRACED_JOBS)];
        traced_layers(out, &machine, sample, Some(svc), &write);
        return Ok(());
    }

    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    // Host times scaled to the reference speed (see `calib`).
    let (jobs_rates, uop_rates): (Vec<f64>, Vec<f64>) = floods
        .iter()
        .zip(flood_slow)
        .flat_map(|(f, &s)| flood_rates(f).into_iter().map(move |(j, u)| (j * s, u * s)))
        .unzip();
    m.set("jobs_per_s", median(&jobs_rates));
    m.set("sim_uops_per_s", median(&uop_rates));
    // Windows of at least WINDOW_SAMPLES consecutive paced jobs.
    let latency: Vec<f64> = paced
        .iter()
        .zip(paced_slow)
        .flat_map(|(p, &s)| paced_latencies(p).into_iter().map(move |(l, _)| l / s))
        .collect();
    // Reported in the notes, not as metrics: see README.md, "Noise".
    let windows = (latency.len() / WINDOW_SAMPLES).max(1);
    let p50 = windowed_percentile(&latency, windows, 0.5);
    let p99 = windowed_percentile(&latency, windows, 0.99);
    m.set("success_rate", ok as f64 / n as f64);
    m.set("peak_rss_mb", rss);
    let (slowdown, copies) = vc_figures_direct(&machine, args.workload.job_uops());
    record_figures(args.workload, slowdown, copies, out);
    out.notes.push(format!(
        "{} rounds; flood: {n_flood} jobs, scaled jobs/s per slice: {}; paced: {n_paced} jobs offered at {} jobs/s, scaled latency p50 {p50:.4} ms, p99 {p99:.4} ms (median over {windows} windows of {} samples in all); generator lag max {:.3} ms; {busy} busy, {} failed",
        shape.rounds,
        rates_list(&jobs_rates),
        shape.paced_per_s,
        latency.len(),
        ms(gen_lag),
        answered - ok,
    ));
    out.notes.push(slowness_note(&slow));
    Ok(())
}

/// The `r`-th of `rounds` near-equal consecutive ranges of `0..total`.
fn round(total: usize, rounds: usize, r: usize) -> Range<usize> {
    total * r / rounds..total * (r + 1) / rounds
}

fn rates_list(rates: &[f64]) -> String {
    rates
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// `(jobs/s, committed uops/s)` of each of [`FLOOD_SLICES`] consecutive
/// slices of a flood's successful results, in completion order.
fn flood_rates(flood: &PhaseLog) -> Vec<(f64, f64)> {
    let mut done: Vec<(Instant, u64)> = flood
        .replies
        .iter()
        .flatten()
        .filter_map(|r| Some((r.at, r.result.outcome.as_ref().ok()?.committed_uops)))
        .collect();
    done.sort_by_key(|&(at, _)| at);
    let per = done.len().div_ceil(FLOOD_SLICES).max(1);
    let mut from = flood.start;
    done.chunks(per)
        .map(|slice| {
            let to = slice.last().expect("chunks are non-empty").0;
            let secs = (to - from).as_secs_f64();
            from = to;
            let uops: u64 = slice.iter().map(|&(_, u)| u).sum();
            (ratio(slice.len() as f64, secs), ratio(uops as f64, secs))
        })
        .collect()
}

/// The host's slowness over the measured phases, for the notes.
fn slowness_note(slow: &[f64]) -> String {
    let s = sorted(slow.to_vec());
    format!(
        "host slowness against the reference (host times are scaled by it): median {:.3}, range {:.3}-{:.3} over {} phases",
        median(&s),
        s.first().copied().unwrap_or_default(),
        s.last().copied().unwrap_or_default(),
        s.len()
    )
}

/// Record one generated trace, timing the writer alone.
fn record(t: &ReplayTrace, uops: u64, led: &mut Ledger) -> Result<(), String> {
    let program = t.point.build_program();
    let mut expander = t.point.expander(&program);
    let stream: Vec<DynUop> = (0..uops).map_while(|_| expander.next_uop()).collect();
    let fail = |e: virtclust_trace::TraceError| format!("recording {}: {e}", t.path.display());
    let started = Instant::now();
    let mut writer =
        TraceWriter::create(&t.path, &program, t.codec, Some(stream.len() as u64)).map_err(fail)?;
    for u in &stream {
        writer.write_uop(u).map_err(fail)?;
    }
    writer.finish().map_err(fail)?;
    led.time("trace.write", started.elapsed(), stream.len() as u64);
    Ok(())
}

/// A number field of the daemon's JSON accounting line.
fn accounting_field(line: &str, name: &str) -> Option<u64> {
    let rest = line.split(&format!("\"{name}\":")).nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Run each distinct spec once through `EvalDriver::run_resilient`, and
/// hand every job the result of its spec.
fn direct_dedup(
    machine: &MachineConfig,
    specs: &[JobSpec],
    jobs: &[EvalJob],
) -> Vec<Result<SimStats, String>> {
    let mut slot: HashMap<String, usize> = HashMap::new();
    let mut unique: Vec<EvalJob> = Vec::new();
    let index: Vec<usize> = specs
        .iter()
        .zip(jobs)
        .map(|(spec, job)| {
            *slot.entry(format!("{spec:?}")).or_insert_with(|| {
                unique.push(job.clone());
                unique.len() - 1
            })
        })
        .collect();
    // Chunked, so the engine's per-worker trace cache (which keeps every
    // file it opened) is dropped every VERIFY_CHUNK jobs.
    let driver = EvalDriver::new(machine).threads(DAEMON_THREADS);
    let mut stats = Vec::with_capacity(unique.len());
    for chunk in unique.chunks(VERIFY_CHUNK) {
        let (outcomes, _) = driver.run_resilient(chunk, &ResilientOptions::new(), |_, _| {});
        stats.extend(stats_of(outcomes));
    }
    index.into_iter().map(|i| stats[i].clone()).collect()
}

/// Why a service reply disagrees with the direct result, if it does. A
/// job that failed on both sides agrees; a bounced job is not compared.
fn wire_mismatch(
    reply: Option<&Result<WireStats, String>>,
    want: &Result<SimStats, String>,
) -> Option<String> {
    match (reply, want) {
        (Some(Ok(got)), Ok(s)) => {
            let expected = WireStats {
                cycles: s.cycles,
                committed_uops: s.committed_uops,
                copies: s.copies_generated,
                digest: stats_digest(s),
            };
            (*got != expected).then(|| format!("service {got:?} != direct {expected:?}"))
        }
        (Some(Ok(got)), Err(e)) => Some(format!("service {got:?} but the direct run failed: {e}")),
        (Some(Err(e)), Ok(_)) => Some(format!(
            "the service failed ({e}) but the direct run did not"
        )),
        (Some(Err(_)), Err(_)) | (None, _) => None,
    }
}

/// `(latency ms, outside-worker ms)` of every paced job that produced
/// stats, each timed from its due instant.
fn paced_latencies(paced: &PhaseLog) -> Vec<(f64, f64)> {
    paced
        .replies
        .iter()
        .zip(&paced.due)
        .filter_map(|(r, due)| {
            let r = r.as_ref().filter(|r| r.result.outcome.is_ok())?;
            let latency = ms(r.at - *due);
            Some((latency, latency - r.result.wall_us as f64 / 1e3))
        })
        .collect()
}

/// The service-side per-layer figures, from the phases.
struct SvcLayer {
    outside_p50: f64,
    outside_p99: f64,
    busy_frac: f64,
    gen_lag_ms: f64,
}

// ------------------------------------------------------------------ batch

fn batch(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let machine = machine();
    let mut rng = Rng::new(args.seed);
    let jobs = plan::batch_cells(&mut rng);
    let driver = EvalDriver::new(&machine).threads(DAEMON_THREADS);

    if args.trace {
        out.attempted = jobs.len() as u64;
        out.failed = traced_layers(out, &machine, &jobs, None, &Ledger::default());
        return Ok(());
    }

    // Set-up: what a drain builds before its first job, the `EvalDriver` and
    // one session per worker; BATCH_SETUPS builds before the first drain
    // and after each one, so the set-up times sample the whole run.
    let mut setups = Vec::new();
    let setup = |setups: &mut Vec<f64>| {
        for _ in 0..BATCH_SETUPS {
            let t = Instant::now();
            let driver = EvalDriver::new(&machine).threads(DAEMON_THREADS);
            let sessions: Vec<SimSession> = (0..DAEMON_THREADS)
                .map(|_| SimSession::new(&machine))
                .collect();
            black_box((&driver, &sessions));
            setups.push(t.elapsed().as_secs_f64());
        }
    };
    setup(&mut setups);

    // Warm-up: the first drains after the host has been idle run their
    // heaviest cells markedly slower (fresh memory), which would set the
    // p99 of a whole run.
    for _ in 0..WARMUP_DRAINS {
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        rng.shuffle(&mut order);
        calibrated_drain(&driver, &jobs, &order);
    }

    // Host times are scaled to the reference speed, calibrated on the
    // workers in line with the cells (see `calibrated_drain`).
    let started = Instant::now();
    let mut rates = Vec::new();
    let mut uop_rates = Vec::new();
    let mut runs_ms = Vec::new();
    let mut slow = Vec::new();
    let mut first: Option<Vec<Result<SimStats, String>>> = None;
    while rates.len() < MIN_DRAINS || started.elapsed().as_secs_f64() < args.seconds {
        // A fresh order every drain, so which cells run side by side on
        // the two workers (which moves their times) varies within the run
        // rather than from seed to seed.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        rng.shuffle(&mut order);
        let drain = calibrated_drain(&driver, &jobs, &order);
        setup(&mut setups);
        let secs = drain.net.as_secs_f64();
        let s = drain.slowness;
        slow.push(s);
        runs_ms.extend(
            drain
                .outcomes
                .iter()
                .zip(&drain.around)
                .map(|(o, around)| ms(o.wall) / around),
        );
        let stats = stats_of(drain.outcomes);
        let uops: u64 = stats.iter().flatten().map(|s| s.committed_uops).sum();
        out.attempted += jobs.len() as u64;
        out.failed += stats.iter().filter(|s| s.is_err()).count() as u64;
        rates.push(jobs.len() as f64 / secs * s);
        uop_rates.push(uops as f64 / secs * s);
        match &first {
            None => first = Some(stats),
            Some(f) if *f != stats => out.mismatches.push(format!(
                "drain {} differs from the first drain",
                rates.len()
            )),
            Some(_) => {}
        }
    }
    let rss = peak_rss_mb("/proc/self/status")?;
    let stats = first.expect("at least one drain");

    for (job, s) in jobs.iter().zip(&stats) {
        match s {
            Ok(s) if s.committed_uops == plan::BATCH_UOPS => {}
            Ok(s) => out.mismatches.push(format!(
                "{} committed {} micro-ops, not {}",
                job.label(2),
                s.committed_uops,
                plan::BATCH_UOPS
            )),
            Err(e) => out.mismatches.push(format!("{} failed: {e}", job.label(2))),
        }
    }
    for _ in 0..SPOT_CHECKS {
        let i = rng.below(jobs.len());
        if let EvalJob::Point {
            point,
            config,
            uops,
        } = &jobs[i]
        {
            if stats[i].as_ref().ok() != Some(&run_point(point, config, &machine, *uops)) {
                out.mismatches
                    .push(format!("{} differs from run_point", jobs[i].label(2)));
            }
        }
    }

    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    m.set("jobs_per_s", median(&rates));
    m.set("sim_uops_per_s", median(&uop_rates));
    // Each drain's percentiles over its cells, and the median drain's. A
    // percentile pooled over the run would sit on the edge between the two
    // heaviest of the 200 cells and the rest (exactly 1 % of the samples),
    // where one slow sample of the third heaviest cell sets the p99.
    let drains = rates.len();
    let p50 = windowed_percentile(&runs_ms, drains, 0.5);
    let p99 = windowed_percentile(&runs_ms, drains, 0.99);
    m.set(
        "success_rate",
        (out.attempted - out.failed) as f64 / out.attempted as f64,
    );
    m.set("peak_rss_mb", rss);
    let cell = |name: &str, config: Configuration| {
        jobs.iter()
            .zip(&stats)
            .find(|(j, _)| matches!(j, EvalJob::Point { point, config: c, .. } if point.name == name && *c == config))
            .and_then(|(_, s)| s.as_ref().ok())
    };
    let points = spec2000_points();
    let pairs: Option<Vec<(&SimStats, &SimStats)>> = points
        .iter()
        .map(|p| Some((cell(&p.name, Configuration::Op)?, cell(&p.name, VC2)?)))
        .collect();
    match pairs {
        Some(pairs) => {
            let (slowdown, copies) = vc_figures(&pairs);
            record_figures(args.workload, slowdown, copies, out);
        }
        None => out
            .mismatches
            .push("a suite point lacks its OP or VC(2->2) cell".into()),
    }
    out.notes.push(format!(
        "{} drains of {} cells after {WARMUP_DRAINS} untimed (scaled jobs/s per drain: {}); scaled cell time p50 {p50:.4} ms, p99 {p99:.4} ms (median over the drains of each drain's percentile)",
        rates.len(),
        jobs.len(),
        rates_list(&rates),
    ));
    out.notes.push(slowness_note(&slow));
    Ok(())
}

thread_local! {
    /// The job this worker thread finished last, until its next pull.
    static LAST_JOB: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The batch workload's job source: the cells in a given order, each with
/// its index in `jobs` as its ticket, like the engine's own slice source
/// except that every pull first times a calibration chunk on the pulling
/// worker. Each cell thus has a calibration on its own thread just before
/// it and just after it (the pull that finds the source dry gives the last
/// one).
struct CalibratedCells<'a> {
    jobs: &'a [EvalJob],
    order: &'a [usize],
    next: AtomicUsize,
    /// `(slowness before, slowness after)` per job.
    around: Mutex<Vec<(f64, f64)>>,
    /// The chunks' total time.
    chunks: Mutex<Duration>,
}

impl JobSource for CalibratedCells<'_> {
    fn pull(&self) -> Option<SourcedJob<'_>> {
        let (s, took) = calib::chunk();
        *self.chunks.lock().expect("no holder panics") += took;
        let mut around = self.around.lock().expect("no holder panics");
        if let Some(done) = LAST_JOB.take() {
            around[done].1 = s;
        }
        let &i = self.order.get(self.next.fetch_add(1, Ordering::Relaxed))?;
        around[i].0 = s;
        Some(SourcedJob::new(i as u64, Cow::Borrowed(&self.jobs[i])))
    }
}

/// One drain of the batch, calibrated in line.
struct Drain {
    /// Outcomes in job order.
    outcomes: Vec<CellOutcome>,
    /// Wall time of the drain less one worker's share of the calibration.
    net: Duration,
    /// Slowness over the drain: its cells' total time over their total
    /// time scaled cell by cell.
    slowness: f64,
    /// Slowness each job ran at: the mean of the chunks around it.
    around: Vec<f64>,
}

/// Drain `jobs` in `order` through `EvalDriver::drain_source` — the loop
/// every entry point of the engine runs, `run_with_metrics` included —
/// with a calibration chunk timed on the worker before every job.
fn calibrated_drain(driver: &EvalDriver, jobs: &[EvalJob], order: &[usize]) -> Drain {
    let source = CalibratedCells {
        jobs,
        order,
        next: AtomicUsize::new(0),
        around: Mutex::new(vec![(0.0, 0.0); jobs.len()]),
        chunks: Mutex::new(Duration::ZERO),
    };
    let slots: Mutex<Vec<Option<CellOutcome>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    let started = Instant::now();
    driver.drain_source(&source, &ResilientOptions::default(), &|done: JobDone| {
        let i = done.ticket as usize;
        LAST_JOB.set(Some(i));
        slots.lock().expect("no holder panics")[i] = Some(done.outcome);
    });
    let wall = started.elapsed();
    let calibrating = source.chunks.into_inner().expect("no holder panics");
    let outcomes: Vec<CellOutcome> = slots
        .into_inner()
        .expect("no holder panics")
        .into_iter()
        .map(|o| o.expect("the drain resolves every job"))
        .collect();
    let around: Vec<f64> = source
        .around
        .into_inner()
        .expect("no holder panics")
        .into_iter()
        .map(|(b, a)| calib::between(b, a))
        .collect();
    // Each cell's time counts at the slowness around it.
    let run: f64 = outcomes.iter().map(|o| o.wall.as_secs_f64()).sum();
    let scaled: f64 = outcomes
        .iter()
        .zip(&around)
        .map(|(o, s)| o.wall.as_secs_f64() / s)
        .sum();
    Drain {
        outcomes,
        net: wall.saturating_sub(calibrating / DAEMON_THREADS as u32),
        slowness: ratio(run, scaled),
        around,
    }
}

// --------------------------------------------------------- paper figures

const VC2: Configuration = Configuration::Vc { num_vcs: 2 };

/// `(vc_slowdown_pct, vc_copies_per_kuop)` from `(OP, VC(2->2))` stats per
/// suite point: the unweighted mean slowdown over the points, and VC's
/// copies per 1000 committed micro-ops over all of them.
fn vc_figures(pairs: &[(&SimStats, &SimStats)]) -> (f64, f64) {
    let slowdown = pairs
        .iter()
        .map(|(op, vc)| slowdown_pct(op.cycles, vc.cycles))
        .sum::<f64>()
        / pairs.len() as f64;
    let copies: u64 = pairs.iter().map(|(_, vc)| vc.copies_generated).sum();
    let uops: u64 = pairs.iter().map(|(_, vc)| vc.committed_uops).sum();
    (slowdown, ratio(copies as f64 * 1e3, uops as f64))
}

/// The figures at `uops` per cell, run directly (outside any timing).
fn vc_figures_direct(machine: &MachineConfig, uops: u64) -> (f64, f64) {
    let jobs: Vec<EvalJob> = spec2000_points()
        .into_iter()
        .flat_map(|point| {
            [Configuration::Op, VC2].map(|config| EvalJob::Point {
                point: point.clone(),
                config,
                uops,
            })
        })
        .collect();
    let outcomes = EvalDriver::new(machine).threads(DAEMON_THREADS).run(&jobs);
    let stats: Vec<&SimStats> = outcomes
        .iter()
        .map(|o| o.stats.as_ref().expect("point jobs cannot fail"))
        .collect();
    let pairs: Vec<(&SimStats, &SimStats)> = stats.chunks(2).map(|c| (c[0], c[1])).collect();
    vc_figures(&pairs)
}

/// Report the figures, and flag them unless they equal the pinned values.
fn record_figures(workload: Workload, slowdown: f64, copies: f64, out: &mut Outcome) {
    out.metrics.set("vc_slowdown_pct", slowdown);
    out.metrics.set("vc_copies_per_kuop", copies);
    let (_, want_slowdown, want_copies) = PINNED_FIGURES
        .into_iter()
        .find(|(w, _, _)| *w == workload)
        .expect("every workload has pinned figures");
    if slowdown != want_slowdown || copies != want_copies {
        out.mismatches.push(format!(
            "VC figures {slowdown} % / {copies} per kuop, pinned {want_slowdown} % / {want_copies} per kuop"
        ));
    }
}

// ------------------------------------------------------------- per layer

/// The traced run's in-process half: `jobs` once through
/// `EvalDriver::run_with_metrics` (the untraced reference) and once through
/// the traced path, whose statistics must equal the reference's job for
/// job; then every per-layer metric. Returns the reference's failed jobs.
fn traced_layers(
    out: &mut Outcome,
    machine: &MachineConfig,
    jobs: &[EvalJob],
    svc: Option<SvcLayer>,
    write: &Ledger,
) -> u64 {
    let t = Instant::now();
    let (outcomes, metrics) = EvalDriver::new(machine)
        .threads(DAEMON_THREADS)
        .run_with_metrics(jobs, |_, _| {});
    let untraced = t.elapsed();
    let reference = stats_of(outcomes);
    let traced = traced_run(machine, jobs, DAEMON_THREADS);
    for (i, (t, r)) in traced.stats.iter().zip(&reference).enumerate() {
        if t != r {
            out.mismatches.push(format!(
                "job {i}: the traced run's stats differ from the untraced run's"
            ));
        }
    }
    layer_metrics(out, &traced, jobs, &metrics, untraced, svc, write);
    reference.iter().filter(|s| s.is_err()).count() as u64
}

/// Every per-layer metric, from the traced ledger, the reference drain's
/// job spans and (for service workloads) the phases. A layer the
/// workload does not exercise reads 0.
fn layer_metrics(
    out: &mut Outcome,
    traced: &TracedRun,
    jobs: &[EvalJob],
    reference: &BatchMetrics,
    untraced: Duration,
    svc: Option<SvcLayer>,
    write: &Ledger,
) {
    let led = &traced.ledger;
    let m = &mut out.metrics;
    let svc = svc.unwrap_or(SvcLayer {
        outside_p50: 0.0,
        outside_p99: 0.0,
        busy_frac: 0.0,
        gen_lag_ms: 0.0,
    });
    m.set("svc.outside_worker_ms_p50", svc.outside_p50);
    m.set("svc.outside_worker_ms_p99", svc.outside_p99);
    m.set("svc.busy_frac", svc.busy_frac);
    m.set("svc.digest_us", led.ns_per("svc.digest") / 1e3);
    m.set("svc.frame_ns", led.ns_per("svc.frame"));

    m.set("core.worker_util", reference.utilization());
    let queued = sorted(reference.jobs.iter().map(|j| ms(j.queued)).collect());
    let runs = sorted(reference.jobs.iter().map(|j| ms(j.run)).collect());
    m.set("core.queue_wait_ms_p99", percentile(&queued, 0.99));
    m.set("core.run_ms_p50", percentile(&runs, 0.5));

    m.set(
        "workloads.build_program_us",
        led.ns_per("workloads.build_program") / 1e3,
    );
    m.set(
        "workloads.expand_ns_per_uop",
        led.ns_per("workloads.expand"),
    );

    let pass_ns = |s: &str| led.get(&format!("compiler.pass.{s}")).ns as f64;
    let job_ns = |s: &str| led.get(&format!("job.{s}")).ns as f64;
    let all_pass: f64 = SCHEMES.iter().map(|s| pass_ns(s)).sum();
    m.set(
        "compiler.pass_share",
        ratio(all_pass, led.get("job").ns as f64),
    );
    for (scheme, us, share) in [
        ("OB", "compiler.pass_us.OB", "compiler.pass_share.OB"),
        ("RHOP", "compiler.pass_us.RHOP", "compiler.pass_share.RHOP"),
        ("VC2", "compiler.pass_us.VC2", "compiler.pass_share.VC2"),
    ] {
        m.set(us, led.ns_per(&format!("compiler.pass.{scheme}")) / 1e3);
        m.set(share, ratio(pass_ns(scheme), job_ns(scheme)));
    }
    let keys: Vec<String> = jobs.iter().filter_map(plan::pass_key).collect();
    let mut seen = std::collections::HashSet::new();
    let repeats = keys.iter().filter(|k| !seen.insert(k.as_str())).count();
    m.set(
        "compiler.repeat_key_frac",
        ratio(repeats as f64, keys.len() as f64),
    );

    let opens = led.get("trace.open").n as f64;
    let hits = led.get("trace.reader_hit").n as f64;
    m.set("trace.open_us", led.ns_per("trace.open") / 1e3);
    m.set(
        "trace.decode_ns_per_uop.text",
        led.ns_per("trace.decode.text"),
    );
    m.set(
        "trace.decode_ns_per_uop.binary",
        led.ns_per("trace.decode.binary"),
    );
    m.set("trace.reader_reuse_frac", ratio(hits, hits + opens));
    m.set("trace.write_ns_per_uop", write.ns_per("trace.write"));

    m.set("sim.reset_us", led.ns_per("sim.reset") / 1e3);
    m.set("sim.ns_per_uop", led.ns_per("sim.run"));
    m.set("sim.ns_per_stepped_cycle", led.ns_per("sim.stepped"));
    m.set(
        "sim.stepped_cycle_frac",
        ratio(
            led.get("sim.stepped").n as f64,
            led.get("sim.cycles").n as f64,
        ),
    );
    let per_job = |key: &str, scheme: &str| {
        ratio(
            led.get(key).n as f64,
            led.get(&format!("job.{scheme}")).n as f64,
        )
    };
    m.set("sim.stepped_cycles.OP", per_job("sim.stepped.OP", "OP"));
    m.set("sim.stepped_cycles.OB", per_job("sim.stepped.OB", "OB"));
    m.set(
        "sim.stepped_cycles.RHOP",
        per_job("sim.stepped.RHOP", "RHOP"),
    );
    m.set("sim.stepped_cycles.VC2", per_job("sim.stepped.VC2", "VC2"));
    m.set(
        "sim.policy_spans",
        ratio(
            led.get("sim.policy_spans").n as f64,
            led.get("job").n as f64,
        ),
    );
    for (scheme, name) in [
        ("OP", "steer.calls_per_uop.OP"),
        ("OB", "steer.calls_per_uop.OB"),
        ("RHOP", "steer.calls_per_uop.RHOP"),
        ("VC2", "steer.calls_per_uop.VC2"),
    ] {
        m.set(
            name,
            ratio(
                led.get(&format!("steer.calls.{scheme}")).n as f64,
                led.get(&format!("steer.uops.{scheme}")).n as f64,
            ),
        );
    }

    m.set("bench.gen_lag_ms_max", svc.gen_lag_ms);
    let untraced_jps = jobs.len() as f64 / untraced.as_secs_f64();
    let traced_jps = jobs.len() as f64 / traced.wall.as_secs_f64();
    m.set("bench.untraced_jobs_per_s", untraced_jps);
    m.set("bench.traced_jobs_per_s", traced_jps);
    m.set("bench.trace_overhead_frac", untraced_jps / traced_jps - 1.0);
    out.notes.push(format!(
        "traced {} jobs: {} trace opens, {} reader reuses, {} of {} compiler passes repeat a key",
        jobs.len(),
        opens,
        hits,
        repeats,
        keys.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_daemon_accounting_line() {
        let line = r#"{"daemon":"serve","accepted":12,"rejected":0,"completed":12}"#;
        assert_eq!(accounting_field(line, "accepted"), Some(12));
        assert_eq!(accounting_field(line, "rejected"), Some(0));
        assert_eq!(accounting_field(line, "missing"), None);
    }
}
