//! The batched evaluation engine: a job queue of heterogeneous simulation
//! cells drained by workers that **reuse** everything reusable — and keep
//! draining when individual cells fail.
//!
//! [`run_matrix`](crate::runner::run_matrix) fans the (point ×
//! configuration) matrix out over threads, but historically every cell
//! built a fresh machine (≈1 MB of allocations: cache line arrays,
//! predictor tables, event calendar) and simulated whatever it had run
//! before. [`EvalDriver`] replaces that with service-style plumbing:
//!
//! * each worker owns one [`SimSession`], reset — not reallocated — per
//!   cell;
//! * each drain shares one result table across its workers: a repeated
//!   suite-point or stored-trace job reuses the finished stats of its
//!   first run (bounded, cleared when full; see
//!   [`drain_source`](EvalDriver::drain_source)), and a job that misses it
//!   runs its uncached reference on the worker's session — the point
//!   path of [`crate::run_point`], the replay body of
//!   [`crate::replay_trace`], or a kernel's pass and expansion;
//! * jobs are heterogeneous ([`EvalJob`]): generated suite points, imported
//!   kernel programs, and stored-trace replays mix freely in one queue;
//! * completion streams through an `on_cell` callback as cells finish
//!   (out of order), while the returned vector is always in job order —
//!   so results are deterministic regardless of worker count.
//!
//! # Fault tolerance
//!
//! A batch is only as useful as its worst job lets it be, so the engine
//! hardens every per-cell seam (testable deterministically via
//! [`crate::fault`]):
//!
//! * **Typed failures** — every cell resolves to a [`CellOutcome`] whose
//!   error is a [`JobError`]: a trace error (split transient vs permanent
//!   by [`TraceError::is_transient`]), a caught panic, a missed deadline,
//!   or a cancellation. One bad job is one bad outcome, never an abort.
//! * **Panic isolation** — `catch_unwind` wraps each attempt; a panicked
//!   worker *quarantines* (fresh session, since its state died
//!   mid-mutation) and keeps draining the queue. Outcomes are
//!   collected over a channel, not shared mutexes, so a panic anywhere
//!   can poison nothing. A panicking `on_cell` callback is caught too and
//!   the first one is resurfaced exactly once after all workers join.
//! * **Bounded retries** — [`run_resilient`](EvalDriver::run_resilient)
//!   takes a retry budget ([`ResilientOptions::retries`]); transient
//!   errors re-attempt after a full worker-state rebuild, so a retried
//!   success is bit-identical to a fault-free run (the session
//!   bit-identity contract: a rebuilt worker *is* a fresh machine).
//! * **Deadlines and cancellation** — per-job wall-clock deadlines and
//!   the [`CancelToken`] a [`SourcedJob`] carries ride the cooperative
//!   interrupt checks inside [`SimSession`]'s run loop (one relaxed load
//!   per `CHECK_INTERVAL_CYCLES`, composing with cycle skipping): a
//!   running job stops at the next check, a job whose token was cancelled
//!   before it started resolves to [`JobError::Cancelled`] without
//!   running, and the worker's session resets cleanly for whatever comes
//!   next.
//!
//! `run_matrix` is now one [`EvalDriver::run`] call, so every figure,
//! metric and replay-comparison path in the repo goes through the batch
//! engine; the fault machinery costs the fault-free path nothing
//! measurable (a disarmed failpoint is one relaxed atomic load, and the
//! interrupt poll is one `Option` branch).
//!
//! # Job intake
//!
//! Jobs reach the workers through a pull-based [`JobSource`]: the
//! slice-based entry points wrap their `&[EvalJob]` in an internal
//! atomic-cursor source, and a long-lived front end (the `virtclust-svc`
//! evaluation service) implements the trait over its priority queues —
//! both drain through [`EvalDriver::drain_source`], the one worker loop,
//! so batch and service execution are the same code path. A [`SourcedJob`]
//! may carry a cancellation token, the job's only cancellation source, and
//! a deadline, which composes with the one in [`ResilientOptions`].
//!
//! Driver-side seams degrade, never panic: outcome collection recovers
//! from a poisoned slot mutex ([`std::sync::PoisonError::into_inner`] —
//! the slots are plain writes), a worker that somehow produces no outcome
//! yields a typed [`JobError::Panicked`] placeholder instead of unwinding
//! the collector, and trace opens and decodes surface [`TraceError`]s
//! through the retry machinery. The module denies `clippy::unwrap_used` /
//! `clippy::expect_used` outside tests to keep it that way.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::any::Any;
use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use virtclust_sim::{CancelToken, RunLimits, SimSession, SimStats, StopCause};
use virtclust_trace::{TraceError, TraceReader};
use virtclust_uarch::{MachineConfig, Program};
use virtclust_workloads::{KernelParams, TraceExpander, TracePoint};

use crate::compile::{run_pass, FileId, ResultTable, RunKey};
use crate::experiment::{run_point_on, Configuration};
use crate::fault;
use crate::replay::replay_on;

/// One unit of work for the [`EvalDriver`]: a workload crossed with a
/// steering configuration.
#[derive(Debug, Clone)]
pub enum EvalJob {
    /// A generated suite point, exactly as [`crate::run_point`] would run
    /// it: build the point's program, apply the configuration's compiler
    /// pass, expand and simulate `uops` micro-ops.
    Point {
        /// The suite point to generate.
        point: TracePoint,
        /// Steering configuration.
        config: Configuration,
        /// Micro-op budget.
        uops: u64,
    },
    /// An imported (or hand-built) kernel program expanded with the
    /// synthetic dynamic model. Hints are cleared before the
    /// configuration's pass runs, so an annotated input does not leak
    /// stale steering decisions.
    Kernel {
        /// The static program (e.g. from `virtclust-trace`'s importer).
        program: Program,
        /// Dynamic-behaviour parameters for the expander.
        params: KernelParams,
        /// Expansion seed.
        seed: u64,
        /// Steering configuration.
        config: Configuration,
        /// Micro-op budget.
        uops: u64,
    },
    /// Replay of a stored `.vct`/`.vctb` trace, exactly as
    /// [`crate::replay_trace`] would: clear the embedded program's hints,
    /// apply the configuration's pass, stream the stored dynamic facts.
    /// The path must name a regular file; anything else fails at once
    /// with a permanent error, before any `open`. A drain simulates each
    /// (file, configuration, limits) key once and answers repeats from its
    /// result table; the file is told by its device, inode, length and
    /// modification time, read when each job starts.
    Trace {
        /// Path of the stored trace.
        path: PathBuf,
        /// Steering configuration.
        config: Configuration,
        /// Run limits (use [`RunLimits::unlimited`] for the whole stream).
        limits: RunLimits,
    },
}

impl EvalJob {
    /// The steering configuration of the job.
    pub fn config(&self) -> &Configuration {
        match self {
            EvalJob::Point { config, .. }
            | EvalJob::Kernel { config, .. }
            | EvalJob::Trace { config, .. } => config,
        }
    }

    /// Short human-readable label (`workload × scheme`).
    pub fn label(&self, clusters: u32) -> String {
        let scheme = self.config().name(clusters);
        match self {
            EvalJob::Point { point, .. } => format!("{} × {scheme}", point.name),
            EvalJob::Kernel { program, .. } => format!("{} × {scheme}", program.name),
            EvalJob::Trace { path, .. } => {
                let file = path.file_name().map_or_else(
                    || path.display().to_string(),
                    |f| f.to_string_lossy().into_owned(),
                );
                format!("{file} × {scheme}")
            }
        }
    }
}

/// A pull-based job intake: workers call [`pull`](Self::pull)
/// concurrently until it returns `None`, which ends the drain (a source
/// is drained once, not polled again). The slice entry points use an
/// internal atomic-cursor source over `&[EvalJob]`; a service front end
/// implements this over its priority queues (blocking in `pull` until a
/// job arrives or the service shuts down) so socket intake and batch
/// intake share one worker loop.
pub trait JobSource: Sync {
    /// The next job to run, or `None` when the source is permanently
    /// drained. Called concurrently from every worker thread; a blocking
    /// implementation stalls only the calling worker.
    fn pull(&self) -> Option<SourcedJob<'_>>;
}

/// One job handed out by a [`JobSource`], with optional per-job interrupt
/// sources (a service connection's cancellation token, a per-request
/// deadline). The `ticket` is the source's own identifier for the job and
/// is passed through verbatim to the [`JobDone`] delivery.
#[derive(Debug)]
pub struct SourcedJob<'a> {
    /// Source-chosen identifier, echoed in [`JobDone::ticket`].
    pub ticket: u64,
    /// The job itself; borrowed for slice sources, owned for queues that
    /// hand over their jobs.
    pub job: Cow<'a, EvalJob>,
    /// The job's cancellation token, its only cancellation source:
    /// cancelled before the job starts, the job resolves to
    /// [`JobError::Cancelled`] without running; cancelled while it runs,
    /// the run stops at its next cooperative check.
    pub token: Option<CancelToken>,
    /// Per-job wall-clock budget; the effective deadline is the smaller
    /// of this and [`ResilientOptions::deadline`].
    pub deadline: Option<Duration>,
}

impl<'a> SourcedJob<'a> {
    /// A sourced job with no token and no deadline of its own.
    pub fn new(ticket: u64, job: Cow<'a, EvalJob>) -> Self {
        SourcedJob {
            ticket,
            job,
            token: None,
            deadline: None,
        }
    }
}

/// A completed sourced job, delivered to [`EvalDriver::drain_source`]'s
/// sink from the worker thread that ran it (completion order is
/// scheduling-dependent).
#[derive(Debug)]
pub struct JobDone {
    /// The [`SourcedJob::ticket`] this outcome belongs to.
    pub ticket: u64,
    /// When the worker pulled the job off the source (queue wait is
    /// `picked_at` minus the source's own submit timestamp).
    pub picked_at: Instant,
    /// The job's outcome.
    pub outcome: CellOutcome,
    /// Fault bookkeeping across the job's attempts.
    pub tally: JobTally,
}

/// The internal source behind the slice-based entry points: an atomic
/// cursor over a borrowed job slice — exactly the pre-service drain
/// order, so slice batches stay deterministic for any worker count.
struct SliceSource<'a> {
    jobs: &'a [EvalJob],
    next: AtomicUsize,
}

impl JobSource for SliceSource<'_> {
    fn pull(&self) -> Option<SourcedJob<'_>> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.jobs
            .get(i)
            .map(|job| SourcedJob::new(i as u64, Cow::Borrowed(job)))
    }
}

/// Why a job failed. The taxonomy drives retries
/// ([`is_transient`](JobError::is_transient)): trace errors split
/// transient-vs-permanent via [`TraceError::is_transient`], and panics,
/// deadlines and cancellations are never retried.
#[derive(Debug)]
pub enum JobError {
    /// The trace layer failed (open, parse, program swap, or an
    /// error surfaced mid-stream).
    Trace(TraceError),
    /// The job panicked on its worker; the panic was caught, the worker
    /// quarantined, and the batch kept going.
    Panicked {
        /// The panic payload's message.
        message: String,
    },
    /// The job's wall-clock deadline passed; the run stopped at the next
    /// cooperative check.
    DeadlineExceeded {
        /// How long the job had been running (across attempts) when it
        /// was stopped.
        after: Duration,
    },
    /// The job's token was cancelled: either before the job started (it
    /// never ran) or mid-run (it stopped at the next cooperative check).
    Cancelled,
}

impl JobError {
    /// Whether retrying could plausibly succeed, the rule every retry
    /// follows: transient trace errors only. A panic is a bug, and
    /// retrying one would hide it; deadline and cancellation are final by
    /// definition (the budget or the caller already decided).
    pub fn is_transient(&self) -> bool {
        match self {
            JobError::Trace(e) => e.is_transient(),
            _ => false,
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Trace(e) => write!(f, "{e}"),
            JobError::Panicked { message } => write!(f, "job panicked: {message}"),
            JobError::DeadlineExceeded { after } => {
                write!(f, "job deadline exceeded after {after:?}")
            }
            JobError::Cancelled => write!(f, "job cancelled"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for JobError {
    fn from(e: TraceError) -> Self {
        JobError::Trace(e)
    }
}

/// Options for [`EvalDriver::run_resilient`] and
/// [`EvalDriver::drain_source`]: retry budget and per-job wall-clock
/// deadline.
#[derive(Debug, Clone, Default)]
pub struct ResilientOptions {
    /// Maximum *re*-attempts per job (default 0: the first failure is
    /// final). A job retries exactly when it has made at most `retries`
    /// attempts and its error [is transient](JobError::is_transient).
    /// Every retry rebuilds the worker's state (a fresh session), so a
    /// retried success is bit-identical to a fault-free run.
    pub retries: u32,
    /// Per-job wall-clock budget, covering all of the job's attempts.
    /// `None` = no deadline.
    pub deadline: Option<Duration>,
}

impl ResilientOptions {
    /// Defaults: no retries, no deadline.
    pub fn new() -> Self {
        ResilientOptions::default()
    }

    /// Retry transient failures up to `n` times per job.
    #[must_use]
    pub fn retries(mut self, n: u32) -> Self {
        self.retries = n;
        self
    }

    /// Give every job a wall-clock budget of `d` (all attempts included).
    #[must_use]
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// Outcome of one job: the statistics (or the typed [`JobError`] that
/// stopped it) plus the cell's wall-clock time on its worker.
#[derive(Debug)]
pub struct CellOutcome {
    /// Simulation statistics, or why the job failed. Under
    /// [`EvalDriver::run`]/[`run_with_metrics`](EvalDriver::run_with_metrics)
    /// `Point`/`Kernel` jobs cannot fail (only trace jobs can); under
    /// [`run_resilient`](EvalDriver::run_resilient) any job can resolve
    /// to a deadline or (isolated) panic, and a sourced job with a token
    /// to a cancellation.
    pub stats: Result<SimStats, JobError>,
    /// Wall-clock time the cell spent on its worker thread (includes
    /// program generation / compiler pass / trace open and every retry
    /// attempt, excludes queue wait; zero for jobs cancelled before they
    /// started).
    pub wall: Duration,
}

/// Scheduling telemetry of one job within a batch: how long it waited and
/// ran. All durations are measured from the batch's start instant on the
/// driver's clock.
#[derive(Debug, Clone)]
pub struct JobMetrics {
    /// Time from batch start until a worker picked the job up (queue wait).
    pub queued: Duration,
    /// Time the job spent running on its worker (same figure as
    /// [`CellOutcome::wall`]).
    pub run: Duration,
}

/// Batch-level telemetry from [`EvalDriver::run_with_metrics`]: per-job
/// spans and per-worker utilization.
#[derive(Debug)]
pub struct BatchMetrics {
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
    /// Per-job telemetry, in job order (parallel to the outcome vector).
    pub jobs: Vec<JobMetrics>,
}

impl BatchMetrics {
    /// Fraction of the batch's `workers × wall` budget spent running jobs,
    /// in [0, 1]. Low utilization with a deep queue means stragglers or
    /// load imbalance.
    pub fn utilization(&self) -> f64 {
        let budget = self.wall.as_secs_f64() * self.workers as f64;
        if budget <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.jobs.iter().map(|m| m.run.as_secs_f64()).sum();
        (busy / budget).min(1.0)
    }
}

/// Degraded-completion summary from [`EvalDriver::run_resilient`]:
/// per-job attempt counts and fault/retry counters, plus the batch
/// telemetry.
#[derive(Debug)]
pub struct BatchReport {
    /// Attempts per job, in job order (1 = succeeded or failed on the
    /// first attempt; >1 = retried).
    pub attempts: Vec<u32>,
    /// Jobs that produced statistics.
    pub ok: u64,
    /// Jobs whose final outcome is an error of any kind.
    pub failed: u64,
    /// Total re-attempts across the batch (Σ max(attempts − 1, 0)).
    pub retries: u64,
    /// Panics caught across all attempts (retried panics count too).
    pub panics: u64,
    /// Transient trace errors observed across all attempts (a retried-
    /// then-successful fault still counts — this is the fault counter,
    /// not the failure counter).
    pub transient_faults: u64,
    /// Jobs whose final outcome is [`JobError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Batch telemetry (per-job spans, worker utilization).
    pub metrics: BatchMetrics,
}

impl BatchReport {
    fn build(outcomes: &[CellOutcome], tallies: &[JobTally], metrics: BatchMetrics) -> Self {
        let mut report = BatchReport {
            attempts: tallies.iter().map(|t| t.attempts).collect(),
            ok: 0,
            failed: 0,
            retries: 0,
            panics: 0,
            transient_faults: 0,
            deadline_exceeded: 0,
            metrics,
        };
        for (outcome, tally) in outcomes.iter().zip(tallies) {
            match &outcome.stats {
                Ok(_) => report.ok += 1,
                Err(e) => {
                    report.failed += 1;
                    if matches!(e, JobError::DeadlineExceeded { .. }) {
                        report.deadline_exceeded += 1;
                    }
                }
            }
            report.retries += u64::from(tally.attempts.saturating_sub(1));
            report.panics += u64::from(tally.panics);
            report.transient_faults += u64::from(tally.transient);
        }
        report
    }

    /// Whether any job's final outcome is an error — the batch completed
    /// degraded rather than fully.
    pub fn degraded(&self) -> bool {
        self.failed > 0
    }

    /// One-line human-readable completion summary.
    pub fn summary(&self) -> String {
        format!(
            "{} jobs: {} ok, {} failed ({} deadline-exceeded); \
             {} retries, {} panics caught, {} transient faults",
            self.attempts.len(),
            self.ok,
            self.failed,
            self.deadline_exceeded,
            self.retries,
            self.panics,
            self.transient_faults,
        )
    }
}

/// Per-job fault bookkeeping, carried next to the outcome (and delivered
/// with every [`JobDone`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct JobTally {
    /// Attempts made (0 = cancelled before the first).
    pub attempts: u32,
    /// Panics caught (across attempts).
    pub panics: u32,
    /// Transient trace errors observed (across attempts).
    pub transient: u32,
}

/// The batch engine: drains an [`EvalJob`] queue over worker threads with
/// per-worker session reuse and one result table per drain.
#[derive(Debug, Clone)]
pub struct EvalDriver {
    machine: MachineConfig,
    threads: usize,
}

impl EvalDriver {
    /// A driver simulating every job on `machine`, with one worker per
    /// available CPU.
    pub fn new(machine: &MachineConfig) -> Self {
        EvalDriver {
            machine: machine.clone(),
            threads: 0,
        }
    }

    /// Use up to `n` worker threads (0 = one per available CPU).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Run every job to completion, returning outcomes in job order.
    pub fn run(&self, jobs: &[EvalJob]) -> Vec<CellOutcome> {
        self.run_with_metrics(jobs, |_, _| {}).0
    }

    /// Run every job, invoking `on_cell(index, outcome)` from the worker
    /// thread as each cell completes, and return the outcomes in job order
    /// with the batch telemetry: per-job queue-wait/run spans and worker
    /// utilization. Completion order is scheduling-dependent; the returned
    /// statistics are deterministic for any thread count and identical to
    /// the other entry points (all of them run through here). A panicking
    /// callback does not disturb the batch: every job still runs, and the
    /// first panic is rethrown once after the workers join.
    pub fn run_with_metrics(
        &self,
        jobs: &[EvalJob],
        on_cell: impl Fn(usize, &CellOutcome) + Sync,
    ) -> (Vec<CellOutcome>, BatchMetrics) {
        let (outcomes, metrics, _) = self.run_engine(jobs, None, &on_cell);
        (outcomes, metrics)
    }

    /// The degraded-completion entry point: run every job under `opts`'s
    /// retry policy and per-job deadline, and report what it took. One
    /// panicking/erroring/hung cell costs exactly its own outcome — the
    /// rest of the batch completes normally, with statistics
    /// bit-identical to a fault-free run (enforced by test).
    pub fn run_resilient(
        &self,
        jobs: &[EvalJob],
        opts: &ResilientOptions,
        on_cell: impl Fn(usize, &CellOutcome) + Sync,
    ) -> (Vec<CellOutcome>, BatchReport) {
        let (outcomes, metrics, tallies) = self.run_engine(jobs, Some(opts), &on_cell);
        let report = BatchReport::build(&outcomes, &tallies, metrics);
        (outcomes, report)
    }

    /// Drain a pull-based [`JobSource`] to completion: spawn the worker
    /// pool, have every worker pull from `source` until the source
    /// returns `None`, and deliver each finished job to `on_done` from
    /// the worker thread that ran it. This is **the** drain loop — the
    /// slice entry points run through it via an internal cursor source,
    /// and the evaluation service points its scheduler at it directly.
    ///
    /// The workers share one result table for the length of the call. It
    /// keeps the stats of every point and trace job that finished with no
    /// error and no stop cause (about 0.5 KiB each, 256 at most across
    /// both kinds, cleared when full). A repeat of the same point,
    /// `trace_seed`, configuration and budget, or of the same trace file
    /// (device, inode, length and modification time, read per job),
    /// configuration and run limits, is answered without simulating. A
    /// miss runs its uncached reference on the worker's session: a point
    /// runs [`crate::run_point_on`], a trace opens its file and runs the
    /// body of [`crate::replay_trace`]. Kernel jobs always simulate, with
    /// their compiler pass: their key would be a client program to keep in
    /// memory. Outcomes are bit-identical to the uncached
    /// [`crate::run_point`] and [`crate::replay_trace`]. A service drains
    /// once for its whole life, so there a point's or trace's simulation
    /// becomes a once-per-key cost.
    ///
    /// A [`SourcedJob`]'s token is the job's only cancellation source, and
    /// its deadline composes with `opts`': the effective deadline is the
    /// smaller of the two. `on_done` must not panic: a panic there kills
    /// its worker and resurfaces when the pool joins (the slice entry
    /// points wrap their user callback in `catch_unwind` for exactly this
    /// reason).
    pub fn drain_source(
        &self,
        source: &(dyn JobSource + '_),
        opts: &ResilientOptions,
        on_done: &(dyn Fn(JobDone) + Sync),
    ) {
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            self.threads
        };
        // Workers inherit the spawning thread's failpoint participation,
        // so a chaos test's schedule reaches its own workers and no one
        // else's (see `fault::participate`).
        let participates = fault::participating();
        let results = ResultTable::default();
        let results = &results;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(move || {
                    fault::participate(participates);
                    let mut worker = Worker::new(&self.machine, results);
                    while let Some(sourced) = source.pull() {
                        let picked_at = Instant::now();
                        let deadline = match (sourced.deadline, opts.deadline) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, b) => a.or(b),
                        };
                        let (outcome, tally) = run_one(
                            &mut worker,
                            sourced.job.as_ref(),
                            opts.retries,
                            sourced.token.as_ref(),
                            deadline,
                        );
                        on_done(JobDone {
                            ticket: sourced.ticket,
                            picked_at,
                            outcome,
                            tally,
                        });
                    }
                });
            }
        });
    }

    /// The slice-based engine every batch entry point drains through: a
    /// cursor source over `jobs`, outcome slots filled as cells finish,
    /// metrics assembled in job order.
    fn run_engine(
        &self,
        jobs: &[EvalJob],
        opts: Option<&ResilientOptions>,
        on_cell: &(dyn Fn(usize, &CellOutcome) + Sync),
    ) -> (Vec<CellOutcome>, BatchMetrics, Vec<JobTally>) {
        let t0 = Instant::now();
        let n_jobs = jobs.len();
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            self.threads
        }
        .min(n_jobs.max(1));
        let default_opts = ResilientOptions::default();
        let opts = opts.unwrap_or(&default_opts);

        // Outcome slots behind one mutex of plain writes. Poisoning is
        // survivable by construction: the critical section cannot panic,
        // and the collector below recovers the inner value anyway instead
        // of unwrapping a poisoned lock into a driver-thread panic.
        let slots: Mutex<Vec<Option<(CellOutcome, JobMetrics, JobTally)>>> =
            Mutex::new((0..n_jobs).map(|_| None).collect());
        let callback_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        if n_jobs > 0 {
            let source = SliceSource {
                jobs,
                next: AtomicUsize::new(0),
            };
            let sized = self.clone().threads(threads);
            sized.drain_source(&source, opts, &|done: JobDone| {
                let i = done.ticket as usize;
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| on_cell(i, &done.outcome))) {
                    let mut first = callback_panic
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    first.get_or_insert(p);
                }
                let metrics = JobMetrics {
                    queued: done.picked_at.saturating_duration_since(t0),
                    run: done.outcome.wall,
                };
                let mut slots = slots
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if let Some(slot) = slots.get_mut(i) {
                    *slot = Some((done.outcome, metrics, done.tally));
                }
            });
        }
        // Resurface the first on_cell panic exactly once, after every
        // worker joined and every other job completed normally.
        if let Some(p) = callback_panic
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            resume_unwind(p);
        }
        let slots = slots
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let wall = t0.elapsed();
        let mut outcomes = Vec::with_capacity(n_jobs);
        let mut job_metrics = Vec::with_capacity(n_jobs);
        let mut tallies = Vec::with_capacity(n_jobs);
        for slot in slots {
            let (outcome, metrics, tally) = slot.unwrap_or_else(|| {
                // Defensive: every code path above produces an outcome;
                // should one ever not, degrade to a typed error instead
                // of aborting the whole batch.
                (
                    CellOutcome {
                        stats: Err(JobError::Panicked {
                            message: "worker produced no outcome for this job".into(),
                        }),
                        wall: Duration::ZERO,
                    },
                    JobMetrics {
                        queued: Duration::ZERO,
                        run: Duration::ZERO,
                    },
                    JobTally::default(),
                )
            });
            outcomes.push(outcome);
            job_metrics.push(metrics);
            tallies.push(tally);
        }
        (
            outcomes,
            BatchMetrics {
                wall,
                workers: threads,
                jobs: job_metrics,
            },
            tallies,
        )
    }
}

/// Run one job to its final outcome: the attempt/retry loop, with panic
/// isolation and quarantine around every attempt. `token` is the job's
/// own, and `deadline` the effective budget ([`EvalDriver::drain_source`]
/// composes the job's with the options').
fn run_one(
    worker: &mut Worker<'_>,
    job: &EvalJob,
    retries: u32,
    token: Option<&CancelToken>,
    deadline: Option<Duration>,
) -> (CellOutcome, JobTally) {
    let mut tally = JobTally::default();
    // The job's token was cancelled while it queued: resolve without
    // running (attempts = 0).
    if token.is_some_and(CancelToken::is_cancelled) {
        return (
            CellOutcome {
                stats: Err(JobError::Cancelled),
                wall: Duration::ZERO,
            },
            tally,
        );
    }
    let start = Instant::now();
    let deadline = deadline.map(|d| start + d);
    let stats = loop {
        tally.attempts += 1;
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            worker.run_job(job, token, deadline, start)
        }));
        let err = match attempt {
            Ok(Ok(stats)) => break Ok(stats),
            Ok(Err(e)) => e,
            Err(payload) => {
                // The worker's session died mid-mutation: quarantine
                // before anything else touches it.
                worker.quarantine();
                JobError::Panicked {
                    message: panic_message(payload.as_ref()),
                }
            }
        };
        match &err {
            JobError::Panicked { .. } => tally.panics += 1,
            JobError::Trace(e) if e.is_transient() => tally.transient += 1,
            _ => {}
        }
        let retry = tally.attempts <= retries
            && err.is_transient()
            && !token.is_some_and(CancelToken::is_cancelled)
            && deadline.is_none_or(|d| Instant::now() < d);
        if !retry {
            break Err(err);
        }
        // Per-attempt worker-state rebuild (its own failpoint — a second
        // fault here fails the job instead of looping).
        match catch_unwind(AssertUnwindSafe(|| worker.rebuild())) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => break Err(e),
            Err(payload) => {
                worker.quarantine();
                break Err(JobError::Panicked {
                    message: panic_message(payload.as_ref()),
                });
            }
        }
    };
    (
        CellOutcome {
            stats,
            wall: start.elapsed(),
        },
        tally,
    )
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Per-worker reusable state: a session and the drain's result table.
struct Worker<'m> {
    machine: &'m MachineConfig,
    results: &'m ResultTable,
    session: SimSession,
}

impl<'m> Worker<'m> {
    fn new(machine: &'m MachineConfig, results: &'m ResultTable) -> Self {
        Worker {
            machine,
            results,
            session: SimSession::new(machine),
        }
    }

    /// Replace the session, whose state may have died mid-mutation in a
    /// panic. The bit-identity contract makes this safe: a rebuilt worker
    /// *is* a fresh machine. The drain's result table stays: it only ever
    /// holds finished runs.
    fn quarantine(&mut self) {
        self.session = SimSession::new(self.machine);
    }

    /// Per-attempt state rebuild before a retry — the quarantine plus the
    /// `session.reset` failpoint, so chaos schedules can exercise a fault
    /// *inside* fault recovery.
    fn rebuild(&mut self) -> Result<(), JobError> {
        fault::fire(fault::SESSION_RESET)?;
        self.quarantine();
        Ok(())
    }

    /// One attempt at one job, with interruption wired into the session.
    fn run_job(
        &mut self,
        job: &EvalJob,
        token: Option<&CancelToken>,
        deadline: Option<Instant>,
        started: Instant,
    ) -> Result<SimStats, JobError> {
        fault::fire(fault::JOB_RUN)?;
        if token.is_some() || deadline.is_some() {
            self.session.set_interrupt(token.cloned(), deadline);
        }
        let result = self.dispatch(job);
        let cause = self.session.stop_cause();
        self.session.clear_interrupt();
        match cause {
            Some(StopCause::Cancelled) => Err(JobError::Cancelled),
            Some(StopCause::DeadlineExceeded) => Err(JobError::DeadlineExceeded {
                after: started.elapsed(),
            }),
            None => result.map_err(JobError::from),
        }
    }

    /// Run one job. A point or trace job whose key already finished in
    /// this drain returns the kept stats without simulating (`run_job` has
    /// fired `job.run` and armed the interrupts by then). A miss runs the
    /// uncached reference on this worker's session: `run_point_on` for a
    /// point, `replay_trace`'s body for a trace. A kernel job runs its
    /// configuration's pass on a copy of its program and expands it.
    fn dispatch(&mut self, job: &EvalJob) -> Result<SimStats, TraceError> {
        let (machine, results) = (self.machine, self.results);
        match job {
            EvalJob::Point {
                point,
                config,
                uops,
            } => {
                let run = RunKey::point(point, config, *uops);
                if let Some(stats) = results.get(&run) {
                    return Ok(stats);
                }
                let stats = run_point_on(&mut self.session, point, config, machine, *uops);
                if self.session.stop_cause().is_none() {
                    results.keep(run, &stats);
                }
                Ok(stats)
            }
            EvalJob::Kernel {
                program,
                params,
                seed,
                config,
                uops,
            } => {
                let mut program = program.clone();
                run_pass(&mut program, config, machine);
                let mut trace = TraceExpander::new(&program, params, *seed);
                let mut policy = config.make_policy();
                Ok(self.session.simulate(
                    machine,
                    &mut trace,
                    policy.as_mut(),
                    &RunLimits::uops(*uops),
                ))
            }
            EvalJob::Trace {
                path,
                config,
                limits,
            } => {
                let file = FileId::of(&std::fs::metadata(path)?)?;
                if let Some(stats) = results.get(&RunKey::trace(file, config, limits)) {
                    return Ok(stats);
                }
                fault::fire(fault::TRACE_OPEN)?;
                let opened = File::open(path)?;
                // The opened file's own identity: a result kept under it
                // belongs to the bytes this reader decodes, even if the path
                // was replaced since the lookup.
                let file = FileId::of(&opened.metadata()?)?;
                let reader = TraceReader::new(BufReader::new(opened))?;
                let stats = replay_on(&mut self.session, reader, config, machine, limits)?;
                if self.session.stop_cause().is_none() {
                    results.keep(RunKey::trace(file, config, limits), &stats);
                }
                Ok(stats)
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::experiment::run_point;
    use crate::fault::{FaultKind, FaultSchedule, FaultSpec, ScopedFaults, Trigger};
    use crate::replay::{record_point, replay_trace};
    use std::path::Path;
    use virtclust_trace::Codec;
    use virtclust_uarch::{ArchReg, RegionBuilder, SteerHint};
    use virtclust_workloads::spec2000_points;

    fn point(name: &str) -> TracePoint {
        spec2000_points()
            .into_iter()
            .find(|p| p.name == name)
            .expect("suite point")
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("virtclust-batch-{}-{name}", std::process::id()))
    }

    fn sched(site: &str, kind: FaultKind, trigger: Trigger) -> FaultSchedule {
        FaultSchedule::new().with(site, FaultSpec { kind, trigger })
    }

    #[test]
    fn point_jobs_match_run_point_bit_for_bit() {
        let machine = MachineConfig::paper_2cluster();
        let p = point("gzip-1");
        // More runs under the same name: the result table must tell them
        // apart by both seeds, every parameter and the budget, not the
        // name.
        let reseeded = TracePoint {
            program_seed: p.program_seed + 1,
            ..p.clone()
        };
        let retraced = TracePoint {
            trace_seed: p.trace_seed + 1,
            ..p.clone()
        };
        let mut reparam = p.clone();
        reparam.params.cross_links += 0.125;
        let runs = [
            (p.clone(), 1_500),
            (reseeded, 1_500),
            (reparam, 1_500),
            (retraced, 1_500),
            (p, 1_200),
        ];
        let mut jobs: Vec<EvalJob> = runs
            .iter()
            .flat_map(|(p, uops)| {
                Configuration::table3().map(|config| EvalJob::Point {
                    point: p.clone(),
                    config,
                    uops: *uops,
                })
            })
            .collect();
        let live: Vec<SimStats> = jobs
            .iter()
            .map(|job| {
                let EvalJob::Point {
                    point,
                    config,
                    uops,
                } = job
                else {
                    unreachable!()
                };
                run_point(point, config, &machine, *uops)
            })
            .collect();
        // Every job twice: on one worker the second pass is all hits.
        jobs.extend_from_within(..);
        let outcomes = EvalDriver::new(&machine).threads(1).run(&jobs);
        for (i, (job, outcome)) in jobs.iter().zip(&outcomes).enumerate() {
            let EvalJob::Point { point, uops, .. } = job else {
                unreachable!()
            };
            assert_eq!(
                &live[i % live.len()],
                outcome.stats.as_ref().unwrap(),
                "{} (seeds {}/{}, cross_links {}, {uops} uops)",
                job.label(2),
                point.program_seed,
                point.trace_seed,
                point.params.cross_links
            );
        }
        // The runs really differ: a key that left any of these out would
        // fail the loop above.
        let per_run: Vec<&[SimStats]> = live.chunks(5).collect();
        assert_ne!(per_run[0], per_run[1], "program_seed changes the run");
        assert_ne!(per_run[0], per_run[2], "params change the run");
        assert_ne!(per_run[0], per_run[3], "trace_seed changes the run");
        assert_ne!(per_run[0], per_run[4], "the budget changes the run");
    }

    #[test]
    fn a_stopped_point_run_is_not_kept() {
        // Long enough to reach the first interrupt check (cycle 1 024).
        let machine = MachineConfig::paper_2cluster();
        let config = Configuration::Vc { num_vcs: 2 };
        let job = EvalJob::Point {
            point: point("gzip-1"),
            config,
            uops: 6_000,
        };
        let clean = run_point(&point("gzip-1"), &config, &machine, 6_000);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        for (token, deadline) in [(None, Some(Instant::now())), (Some(&cancelled), None)] {
            let results = ResultTable::default();
            let mut worker = Worker::new(&machine, &results);
            let stopped = worker.run_job(&job, token, deadline, Instant::now());
            assert!(
                matches!(
                    stopped,
                    Err(JobError::DeadlineExceeded { .. } | JobError::Cancelled)
                ),
                "{stopped:?}"
            );
            // The cut-short stats were not kept: the same key runs again.
            let next = worker.run_job(&job, None, None, Instant::now()).unwrap();
            assert_eq!(next, clean);
        }
    }

    #[test]
    fn job_run_fires_before_a_hit() {
        let machine = MachineConfig::paper_2cluster();
        let job = EvalJob::Point {
            point: point("gzip-1"),
            config: Configuration::Op,
            uops: 400,
        };
        let clean = run_point(&point("gzip-1"), &Configuration::Op, &machine, 400);
        let _faults = ScopedFaults::arm(&sched(fault::JOB_RUN, FaultKind::Io, Trigger::Nth(2)));
        let outcomes = EvalDriver::new(&machine)
            .threads(1)
            .run(&[job.clone(), job]);
        assert_eq!(outcomes[0].stats.as_ref().unwrap(), &clean, "the miss");
        // The second job's key is in the table, but the fault schedule
        // sees its start exactly as it would without the table.
        match &outcomes[1].stats {
            Err(JobError::Trace(e)) => assert!(e.is_transient(), "{e}"),
            other => panic!("job.run must fire on the hit, got {other:?}"),
        }
    }

    #[test]
    fn trace_jobs_match_replay_trace() {
        let machine = MachineConfig::paper_2cluster();
        let p = point("eon-1");
        let path = tmp("eon.vctb");
        record_point(&p, 2_000, Codec::Binary, &path).unwrap();
        // One worker, five schemes × two limits over the same file: ten
        // misses, each opening and replaying the file. Then every job
        // again: the second pass is all result-table hits, which must
        // tell the keys apart by configuration and by limits.
        let mut jobs: Vec<EvalJob> = [RunLimits::unlimited(), RunLimits::uops(1_200)]
            .into_iter()
            .flat_map(|limits| {
                Configuration::table3().map(|config| EvalJob::Trace {
                    path: path.clone(),
                    config,
                    limits,
                })
            })
            .collect();
        jobs.extend_from_within(..);
        let outcomes = EvalDriver::new(&machine).threads(1).run(&jobs);
        for (job, outcome) in jobs.iter().zip(&outcomes) {
            let EvalJob::Trace { limits, .. } = job else {
                unreachable!()
            };
            let direct = replay_trace(&path, job.config(), &machine, limits).unwrap();
            assert_eq!(
                &direct,
                outcome.stats.as_ref().unwrap(),
                "{} {limits:?}",
                job.label(2)
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_stopped_trace_run_is_not_kept() {
        // Long enough to reach the first interrupt check (cycle 1 024).
        let machine = MachineConfig::paper_2cluster();
        let path = tmp("stopped.vctb");
        record_point(&point("gzip-1"), 6_000, Codec::Binary, &path).unwrap();
        let config = Configuration::Vc { num_vcs: 2 };
        let limits = RunLimits::unlimited();
        let job = EvalJob::Trace {
            path: path.clone(),
            config,
            limits,
        };
        let clean = replay_trace(&path, &config, &machine, &limits).unwrap();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        for (token, deadline) in [(None, Some(Instant::now())), (Some(&cancelled), None)] {
            let results = ResultTable::default();
            let mut worker = Worker::new(&machine, &results);
            let stopped = worker.run_job(&job, token, deadline, Instant::now());
            assert!(
                matches!(
                    stopped,
                    Err(JobError::DeadlineExceeded { .. } | JobError::Cancelled)
                ),
                "{stopped:?}"
            );
            // The cut-short stats were not kept: the same key runs again.
            let next = worker.run_job(&job, None, None, Instant::now()).unwrap();
            assert_eq!(next, clean);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_trace_run_whose_reader_failed_is_not_kept() {
        let machine = MachineConfig::paper_2cluster();
        let path = tmp("cut.vctb");
        record_point(&point("gzip-1"), 1_000, Codec::Binary, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let job = EvalJob::Trace {
            path: path.clone(),
            config: Configuration::Op,
            limits: RunLimits::unlimited(),
        };
        let direct = replay_trace(&path, &Configuration::Op, &machine, &RunLimits::unlimited())
            .expect_err("a cut trace fails");
        // One worker, the same key twice: the second job must decode the
        // file again and fail the same way, not return the first run's
        // short stats.
        let outcomes = EvalDriver::new(&machine)
            .threads(1)
            .run(&[job.clone(), job]);
        for outcome in &outcomes {
            match &outcome.stats {
                Err(JobError::Trace(e)) => assert_eq!(e.to_string(), direct.to_string()),
                other => panic!("expected {direct}, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_job_run_fires_before_a_hit() {
        let machine = MachineConfig::paper_2cluster();
        let path = tmp("fires.vctb");
        record_point(&point("gzip-1"), 400, Codec::Binary, &path).unwrap();
        let job = EvalJob::Trace {
            path: path.clone(),
            config: Configuration::Op,
            limits: RunLimits::unlimited(),
        };
        let clean =
            replay_trace(&path, &Configuration::Op, &machine, &RunLimits::unlimited()).unwrap();
        let _faults = ScopedFaults::arm(&sched(fault::JOB_RUN, FaultKind::Io, Trigger::Nth(2)));
        let outcomes = EvalDriver::new(&machine)
            .threads(1)
            .run(&[job.clone(), job]);
        assert_eq!(outcomes[0].stats.as_ref().unwrap(), &clean, "the miss");
        match &outcomes[1].stats {
            Err(JobError::Trace(e)) => assert!(e.is_transient(), "{e}"),
            other => panic!("job.run must fire on the hit, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_replaced_or_deleted_trace_file_is_never_replayed_stale() {
        let machine = MachineConfig::paper_2cluster();
        let (path, other) = (tmp("swap.vct"), tmp("swap-next.vct"));
        record_point(&point("gzip-1"), 2_000, Codec::Text, &path).unwrap();
        record_point(&point("mcf"), 2_000, Codec::Text, &other).unwrap();
        let limits = RunLimits::unlimited();
        let old = replay_trace(&path, &Configuration::Op, &machine, &limits).unwrap();
        let new = replay_trace(&other, &Configuration::Op, &machine, &limits).unwrap();
        assert_ne!(old, new);
        let job = EvalJob::Trace {
            path: path.clone(),
            config: Configuration::Op,
            limits,
        };
        // The same job three times. Before the second pull the source
        // renames the other recording over the path; before the third it
        // deletes the path.
        struct Swap<'a> {
            job: &'a EvalJob,
            path: &'a Path,
            other: &'a Path,
            pulls: AtomicUsize,
        }
        impl JobSource for Swap<'_> {
            fn pull(&self) -> Option<SourcedJob<'_>> {
                let n = self.pulls.fetch_add(1, Ordering::SeqCst);
                match n {
                    0 => {}
                    1 => std::fs::rename(self.other, self.path).unwrap(),
                    2 => std::fs::remove_file(self.path).unwrap(),
                    _ => return None,
                }
                Some(SourcedJob::new(n as u64, Cow::Borrowed(self.job)))
            }
        }
        let source = Swap {
            job: &job,
            path: &path,
            other: &other,
            pulls: AtomicUsize::new(0),
        };
        let done: Mutex<Vec<(u64, CellOutcome)>> = Mutex::new(Vec::new());
        EvalDriver::new(&machine).threads(1).drain_source(
            &source,
            &ResilientOptions::new(),
            &|d: JobDone| done.lock().unwrap().push((d.ticket, d.outcome)),
        );
        let done = done.into_inner().unwrap();
        assert_eq!(done.len(), 3);
        assert_eq!(done[0].1.stats.as_ref().unwrap(), &old, "the first file");
        assert_eq!(done[1].1.stats.as_ref().unwrap(), &new, "the renamed file");
        let gone = replay_trace(&path, &Configuration::Op, &machine, &limits)
            .expect_err("the path is gone");
        match &done[2].1.stats {
            Err(JobError::Trace(e)) => assert_eq!(e.to_string(), gone.to_string()),
            other => panic!("expected {gone}, got {other:?}"),
        }
        std::fs::remove_file(&other).ok();
    }

    #[test]
    fn trace_paths_that_are_not_regular_files_fail_at_once() {
        let fifo = tmp("fifo.vct");
        let status = std::process::Command::new("mkfifo")
            .arg(&fifo)
            .status()
            .expect("mkfifo runs");
        assert!(status.success(), "mkfifo {}", fifo.display());
        let dir = tmp("dir.vct");
        std::fs::create_dir_all(&dir).unwrap();
        for path in [&fifo, &dir] {
            let job = EvalJob::Trace {
                path: path.clone(),
                config: Configuration::Op,
                limits: RunLimits::unlimited(),
            };
            // On a helper thread: a worker that opened the FIFO would block
            // until a writer appeared, and the test must fail, not hang.
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let machine = MachineConfig::paper_2cluster();
                let (outcomes, report) = EvalDriver::new(&machine).threads(1).run_resilient(
                    &[job],
                    &ResilientOptions::new().retries(2),
                    |_, _| {},
                );
                tx.send((outcomes, report.attempts)).ok();
            });
            let (outcomes, attempts) = rx
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|e| panic!("{} did not fail at once: {e}", path.display()));
            match &outcomes[0].stats {
                Err(JobError::Trace(e)) => assert!(!e.is_transient(), "{e}"),
                other => panic!("{}: expected a trace error, got {other:?}", path.display()),
            }
            assert_eq!(attempts, vec![1], "{}", path.display());
        }
        std::fs::remove_file(&fifo).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn kernel_jobs_match_a_manual_expander_run() {
        let machine = MachineConfig::paper_2cluster();
        let r = ArchReg::int;
        let mut program = Program::new("kern");
        program.add_region(
            RegionBuilder::new(0, "body")
                .alu(r(1), &[r(1), r(2)])
                .load(r(3), r(1))
                .alu(r(2), &[r(3)])
                .branch(r(2))
                .build(),
        );
        // Stale hints from some earlier pass: cleared before VC's pass
        // runs.
        for inst in &mut program.regions[0].insts {
            inst.hint = SteerHint::Static { cluster: 1 };
        }
        let params = KernelParams::base_int();
        let config = Configuration::Vc { num_vcs: 2 };
        let job = EvalJob::Kernel {
            program: program.clone(),
            params,
            seed: 9,
            config,
            uops: 1_200,
        };
        // One worker, the same job twice: both simulate, the second on the
        // reused session.
        let outcomes = EvalDriver::new(&machine)
            .threads(1)
            .run(&[job.clone(), job]);
        let manual = {
            let mut annotated = program.clone();
            annotated.clear_hints();
            config
                .software_pass(2)
                .apply(&mut annotated, &machine.latencies);
            let mut trace = TraceExpander::new(&annotated, &params, 9);
            let mut policy = config.make_policy();
            SimSession::new(&machine).run(&mut trace, policy.as_mut(), &RunLimits::uops(1_200))
        };
        assert_eq!(&manual, outcomes[0].stats.as_ref().unwrap(), "first");
        assert_eq!(&manual, outcomes[1].stats.as_ref().unwrap(), "second");
    }

    #[test]
    fn heterogeneous_queue_is_deterministic_across_1_2_8_threads() {
        let machine = MachineConfig::paper_2cluster();
        let path = tmp("mix.vct");
        record_point(&point("gzip-1"), 1_000, Codec::Text, &path).unwrap();
        let mut jobs: Vec<EvalJob> = vec![
            EvalJob::Point {
                point: point("crafty"),
                config: Configuration::Op,
                uops: 800,
            },
            EvalJob::Trace {
                path: path.clone(),
                config: Configuration::Vc { num_vcs: 2 },
                limits: RunLimits::unlimited(),
            },
        ];
        for config in Configuration::table3() {
            jobs.push(EvalJob::Point {
                point: point("galgel"),
                config,
                uops: 600,
            });
            jobs.push(EvalJob::Trace {
                path: path.clone(),
                config,
                limits: RunLimits::uops(500),
            });
        }
        let stats_of = |threads: usize| -> Vec<SimStats> {
            EvalDriver::new(&machine)
                .threads(threads)
                .run(&jobs)
                .into_iter()
                .map(|o| o.stats.expect("readable"))
                .collect()
        };
        let one = stats_of(1);
        let two = stats_of(2);
        let eight = stats_of(8);
        assert_eq!(one, two, "1 vs 2 workers");
        assert_eq!(one, eight, "1 vs 8 workers");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_callback_sees_every_cell_exactly_once() {
        let machine = MachineConfig::paper_2cluster();
        let jobs: Vec<EvalJob> = Configuration::table3()
            .into_iter()
            .map(|config| EvalJob::Point {
                point: point("gzip-1"),
                config,
                uops: 400,
            })
            .collect();
        let seen = std::sync::Mutex::new(vec![0u32; jobs.len()]);
        let (outcomes, _) =
            EvalDriver::new(&machine)
                .threads(2)
                .run_with_metrics(&jobs, |i, outcome| {
                    assert!(outcome.stats.is_ok());
                    seen.lock().unwrap()[i] += 1;
                });
        assert_eq!(outcomes.len(), jobs.len());
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn run_with_metrics_matches_run_and_accounts_every_job() {
        let machine = MachineConfig::paper_2cluster();
        let jobs: Vec<EvalJob> = Configuration::table3()
            .into_iter()
            .map(|config| EvalJob::Point {
                point: point("gzip-1"),
                config,
                uops: 500,
            })
            .collect();
        let driver = EvalDriver::new(&machine).threads(2);
        let plain = driver.run(&jobs);
        let (outcomes, metrics) = driver.run_with_metrics(&jobs, |_, _| {});
        for (a, b) in plain.iter().zip(&outcomes) {
            assert_eq!(a.stats.as_ref().unwrap(), b.stats.as_ref().unwrap());
        }

        assert_eq!(metrics.workers, 2);
        assert_eq!(metrics.jobs.len(), jobs.len());
        let u = metrics.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
    }

    #[test]
    fn unreadable_trace_jobs_error_without_poisoning_the_queue() {
        let machine = MachineConfig::paper_2cluster();
        let jobs = vec![
            EvalJob::Trace {
                path: PathBuf::from("/nonexistent/ghost.vctb"),
                config: Configuration::Op,
                limits: RunLimits::unlimited(),
            },
            EvalJob::Point {
                point: point("gzip-1"),
                config: Configuration::Op,
                uops: 300,
            },
        ];
        let outcomes = EvalDriver::new(&machine).threads(1).run(&jobs);
        assert!(outcomes[0].stats.is_err());
        assert_eq!(
            outcomes[1].stats.as_ref().unwrap().committed_uops,
            300,
            "the queue keeps draining after an error"
        );
    }

    #[test]
    fn all_failed_batch_metrics_stay_well_formed() {
        // Regression for the all-fail chaos aggregate: when every job
        // fails, every derived quantity (utilization, uops/s, the summary
        // line) must stay finite instead of dividing by zero or panicking
        // — the CLI tools print exactly these.
        let machine = MachineConfig::paper_2cluster();
        let jobs: Vec<EvalJob> = Configuration::table3()
            .into_iter()
            .map(|config| EvalJob::Point {
                point: point("gzip-1"),
                config,
                uops: 300,
            })
            .collect();
        let _faults = ScopedFaults::arm(&sched(fault::JOB_RUN, FaultKind::Io, Trigger::Every(1)));
        let (outcomes, report) = EvalDriver::new(&machine).threads(2).run_resilient(
            &jobs,
            &ResilientOptions::new(),
            |_, _| {},
        );
        assert!(outcomes.iter().all(|o| o.stats.is_err()), "chaos fails all");
        assert_eq!(report.ok, 0);
        assert_eq!(report.failed, jobs.len() as u64);
        let u = report.metrics.utilization();
        assert!(u.is_finite() && (0.0..=1.0).contains(&u));
        assert!(report.summary().contains("0 ok"));
    }

    #[test]
    fn injected_panic_isolates_one_job_and_keeps_the_rest_bit_identical() {
        let machine = MachineConfig::paper_2cluster();
        let jobs: Vec<EvalJob> = Configuration::table3()
            .into_iter()
            .map(|config| EvalJob::Point {
                point: point("gzip-1"),
                config,
                uops: 400,
            })
            .collect();
        // Fault-free reference first (the registry is disarmed here).
        let clean = EvalDriver::new(&machine).threads(1).run(&jobs);
        let _faults = ScopedFaults::arm(&sched(fault::JOB_RUN, FaultKind::Panic, Trigger::Nth(2)));
        let (outcomes, report) = EvalDriver::new(&machine).threads(1).run_resilient(
            &jobs,
            &ResilientOptions::new(),
            |_, _| {},
        );
        match &outcomes[1].stats {
            Err(JobError::Panicked { message }) => {
                assert!(message.contains("injected panic"), "{message}");
            }
            other => panic!("job 1 should have panicked, got {other:?}"),
        }
        for (i, (clean, got)) in clean.iter().zip(&outcomes).enumerate() {
            if i == 1 {
                continue;
            }
            assert_eq!(
                clean.stats.as_ref().unwrap(),
                got.stats.as_ref().unwrap(),
                "job {i} must be bit-identical despite job 1 panicking"
            );
        }
        assert_eq!(report.ok, jobs.len() as u64 - 1);
        assert_eq!(report.failed, 1);
        assert_eq!(report.panics, 1);
        assert_eq!(report.retries, 0);
        assert!(report.degraded());
        assert!(
            report.summary().contains("1 failed"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn transient_open_fault_retries_to_bit_identical_stats() {
        let machine = MachineConfig::paper_2cluster();
        let path = tmp("retry.vctb");
        record_point(&point("gzip-1"), 1_000, Codec::Binary, &path).unwrap();
        let clean =
            replay_trace(&path, &Configuration::Op, &machine, &RunLimits::unlimited()).unwrap();
        let jobs = vec![EvalJob::Trace {
            path: path.clone(),
            config: Configuration::Op,
            limits: RunLimits::unlimited(),
        }];
        let _faults = ScopedFaults::arm(&sched(fault::TRACE_OPEN, FaultKind::Io, Trigger::Nth(1)));
        let (outcomes, report) = EvalDriver::new(&machine).threads(1).run_resilient(
            &jobs,
            &ResilientOptions::new().retries(2),
            |_, _| {},
        );
        assert_eq!(
            outcomes[0].stats.as_ref().unwrap(),
            &clean,
            "the retried success must match the fault-free run bit for bit"
        );
        assert_eq!(report.attempts, vec![2]);
        assert_eq!(report.retries, 1);
        assert_eq!(report.transient_faults, 1);
        assert!(!report.degraded());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn permanent_faults_fail_without_retry() {
        let machine = MachineConfig::paper_2cluster();
        let path = tmp("perm.vctb");
        record_point(&point("gzip-1"), 500, Codec::Binary, &path).unwrap();
        let jobs = vec![EvalJob::Trace {
            path: path.clone(),
            config: Configuration::Op,
            limits: RunLimits::unlimited(),
        }];
        let _faults = ScopedFaults::arm(&sched(
            fault::TRACE_OPEN,
            FaultKind::Corrupt,
            Trigger::Nth(1),
        ));
        let (outcomes, report) = EvalDriver::new(&machine).threads(1).run_resilient(
            &jobs,
            &ResilientOptions::new().retries(3),
            |_, _| {},
        );
        match &outcomes[0].stats {
            Err(JobError::Trace(e)) => assert!(!e.is_transient(), "{e}"),
            other => panic!("expected a permanent trace error, got {other:?}"),
        }
        assert_eq!(report.attempts, vec![1], "permanent errors retry nothing");
        assert_eq!(report.retries, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retries_are_bounded_by_the_policy() {
        let machine = MachineConfig::paper_2cluster();
        let path = tmp("bounded.vctb");
        record_point(&point("gzip-1"), 500, Codec::Binary, &path).unwrap();
        let jobs = vec![EvalJob::Trace {
            path: path.clone(),
            config: Configuration::Op,
            limits: RunLimits::unlimited(),
        }];
        // Every program swap fails — the job must give up after
        // 1 + max_retries attempts.
        let _faults = ScopedFaults::arm(&sched(
            fault::TRACE_SET_PROGRAM,
            FaultKind::Io,
            Trigger::Every(1),
        ));
        let (outcomes, report) = EvalDriver::new(&machine).threads(1).run_resilient(
            &jobs,
            &ResilientOptions::new().retries(2),
            |_, _| {},
        );
        assert!(matches!(&outcomes[0].stats, Err(JobError::Trace(_))));
        assert_eq!(report.attempts, vec![3], "1 initial + 2 retries");
        assert_eq!(report.retries, 2);
        assert_eq!(report.transient_faults, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_fault_during_rebuild_fails_the_job_instead_of_looping() {
        let machine = MachineConfig::paper_2cluster();
        let path = tmp("rebuild.vctb");
        record_point(&point("gzip-1"), 500, Codec::Binary, &path).unwrap();
        let jobs = vec![EvalJob::Trace {
            path: path.clone(),
            config: Configuration::Op,
            limits: RunLimits::unlimited(),
        }];
        let schedule = sched(fault::TRACE_SET_PROGRAM, FaultKind::Io, Trigger::Nth(1)).with(
            fault::SESSION_RESET,
            FaultSpec {
                kind: FaultKind::Io,
                trigger: Trigger::Every(1),
            },
        );
        let _faults = ScopedFaults::arm(&schedule);
        let (outcomes, report) = EvalDriver::new(&machine).threads(1).run_resilient(
            &jobs,
            &ResilientOptions::new().retries(5),
            |_, _| {},
        );
        // The transient program-swap fault would retry, but the rebuild itself
        // faults: double fault, job over, no infinite loop.
        assert!(matches!(&outcomes[0].stats, Err(JobError::Trace(_))));
        assert_eq!(report.attempts, vec![1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deadline_stops_a_runaway_job_and_the_worker_recovers() {
        let machine = MachineConfig::paper_2cluster();
        let small = point("gzip-1");
        let jobs = vec![
            // Far more work than fits in the budget below.
            EvalJob::Point {
                point: point("crafty"),
                config: Configuration::Op,
                uops: 3_000_000,
            },
            EvalJob::Point {
                point: small.clone(),
                config: Configuration::Op,
                uops: 300,
            },
        ];
        let (outcomes, report) = EvalDriver::new(&machine).threads(1).run_resilient(
            &jobs,
            &ResilientOptions::new().deadline(Duration::from_millis(80)),
            |_, _| {},
        );
        match &outcomes[0].stats {
            Err(JobError::DeadlineExceeded { after }) => {
                assert!(*after >= Duration::from_millis(80), "stopped at {after:?}");
            }
            other => panic!("expected a deadline outcome, got {other:?}"),
        }
        // The same worker (threads = 1) runs the next job on its cleanly
        // reset session: bit-identical to a fresh fault-free run.
        let clean = run_point(&small, &Configuration::Op, &machine, 300);
        assert_eq!(outcomes[1].stats.as_ref().unwrap(), &clean);
        assert_eq!(report.deadline_exceeded, 1);
        assert_eq!(report.ok, 1);
    }

    #[test]
    fn deadline_fires_promptly_on_idle_heavy_skipping_points() {
        // Regression for the deadline-vs-cycle-skipping bug: `mcf` is the
        // suite's memory-bound point, where the PR 6 skipper replicates
        // most cycles in long idle spans. Before the span clamp a skip
        // could carry the session past many interrupt-check boundaries in
        // one step, so a tight deadline fired late (bounded only by the
        // span length, not CHECK_INTERVAL_CYCLES). With the clamp the run
        // stops within one check interval of the deadline passing — in
        // wall-clock terms, microseconds after it.
        let machine = MachineConfig::paper_2cluster();
        let deadline = Duration::from_millis(60);
        let jobs = vec![EvalJob::Point {
            point: point("mcf"),
            config: Configuration::Op,
            uops: 50_000_000, // far more than fits in the budget
        }];
        let (outcomes, report) = EvalDriver::new(&machine).threads(1).run_resilient(
            &jobs,
            &ResilientOptions::new().deadline(deadline),
            |_, _| {},
        );
        match &outcomes[0].stats {
            Err(JobError::DeadlineExceeded { after }) => {
                assert!(*after >= deadline, "stopped early at {after:?}");
                // Generous CI margin, but far below what an unclamped
                // multi-thousand-cycle span overshoot used to allow on a
                // point this idle-heavy.
                assert!(
                    *after < deadline + Duration::from_secs(2),
                    "deadline enforcement lagged: stopped only after {after:?}"
                );
            }
            other => panic!("expected a deadline outcome, got {other:?}"),
        }
        assert_eq!(report.deadline_exceeded, 1);
    }

    #[test]
    fn drain_source_matches_the_slice_engine_bit_for_bit() {
        // A hand-rolled pull source must produce exactly what the slice
        // entry points produce — they are the same drain loop.
        let machine = MachineConfig::paper_2cluster();
        let jobs: Vec<EvalJob> = Configuration::table3()
            .into_iter()
            .map(|config| EvalJob::Point {
                point: point("gzip-1"),
                config,
                uops: 500,
            })
            .collect();
        let reference = EvalDriver::new(&machine).threads(2).run(&jobs);

        struct Queue<'a> {
            jobs: &'a [EvalJob],
            next: AtomicUsize,
        }
        impl JobSource for Queue<'_> {
            fn pull(&self) -> Option<SourcedJob<'_>> {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                self.jobs
                    .get(i)
                    .map(|j| SourcedJob::new(i as u64, Cow::Owned(j.clone())))
            }
        }
        let source = Queue {
            jobs: &jobs,
            next: AtomicUsize::new(0),
        };
        let done: Mutex<Vec<Option<CellOutcome>>> =
            Mutex::new((0..jobs.len()).map(|_| None).collect());
        EvalDriver::new(&machine).threads(2).drain_source(
            &source,
            &ResilientOptions::new(),
            &|d: JobDone| {
                assert!(d.tally.attempts == 1);
                done.lock().unwrap()[d.ticket as usize] = Some(d.outcome);
            },
        );
        let done = done.into_inner().unwrap();
        for (i, (reference, got)) in reference.iter().zip(&done).enumerate() {
            let got = got.as_ref().expect("every ticket delivered");
            assert_eq!(
                reference.stats.as_ref().unwrap(),
                got.stats.as_ref().unwrap(),
                "job {i}"
            );
        }
    }

    #[test]
    fn per_job_token_cancels_one_sourced_job_without_touching_others() {
        // Per-client fan-out at the engine level: two jobs share a source,
        // one carries a pre-cancelled per-job token, the other must run
        // to bit-identical completion.
        let machine = MachineConfig::paper_2cluster();
        let job = EvalJob::Point {
            point: point("gzip-1"),
            config: Configuration::Op,
            uops: 400,
        };
        let clean = run_point(&point("gzip-1"), &Configuration::Op, &machine, 400);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let items: Mutex<Vec<SourcedJob<'static>>> = Mutex::new(vec![
            SourcedJob {
                ticket: 0,
                job: Cow::Owned(job.clone()),
                token: Some(cancelled),
                deadline: None,
            },
            SourcedJob::new(1, Cow::Owned(job)),
        ]);
        struct Once<'a>(&'a Mutex<Vec<SourcedJob<'static>>>);
        impl JobSource for Once<'_> {
            fn pull(&self) -> Option<SourcedJob<'_>> {
                let mut items = self.0.lock().unwrap();
                if items.is_empty() {
                    None
                } else {
                    Some(items.remove(0))
                }
            }
        }
        let done: Mutex<Vec<(u64, CellOutcome)>> = Mutex::new(Vec::new());
        EvalDriver::new(&machine).threads(1).drain_source(
            &Once(&items),
            &ResilientOptions::new(),
            &|d: JobDone| done.lock().unwrap().push((d.ticket, d.outcome)),
        );
        let mut done = done.into_inner().unwrap();
        done.sort_by_key(|(t, _)| *t);
        assert!(matches!(done[0].1.stats, Err(JobError::Cancelled)));
        assert_eq!(done[0].1.wall, Duration::ZERO, "never ran");
        assert_eq!(done[1].1.stats.as_ref().unwrap(), &clean);
    }

    #[test]
    fn cancelling_from_the_callback_resolves_queued_jobs_without_running_them() {
        // Every job carries one shared token, cancelled by the sink as the
        // first job completes: the rest were still queued.
        let machine = MachineConfig::paper_2cluster();
        let job = EvalJob::Point {
            point: point("gzip-1"),
            config: Configuration::Op,
            uops: 400,
        };
        const JOBS: usize = 6;
        struct Shared<'a> {
            job: &'a EvalJob,
            token: &'a CancelToken,
            next: AtomicUsize,
        }
        impl JobSource for Shared<'_> {
            fn pull(&self) -> Option<SourcedJob<'_>> {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                (i < JOBS).then(|| SourcedJob {
                    token: Some(self.token.clone()),
                    ..SourcedJob::new(i as u64, Cow::Borrowed(self.job))
                })
            }
        }
        let token = CancelToken::new();
        let source = Shared {
            job: &job,
            token: &token,
            next: AtomicUsize::new(0),
        };
        let done: Mutex<Vec<Option<(CellOutcome, JobTally)>>> =
            Mutex::new((0..JOBS).map(|_| None).collect());
        EvalDriver::new(&machine).threads(1).drain_source(
            &source,
            &ResilientOptions::new(),
            &|d: JobDone| {
                token.cancel();
                let slot = &mut done.lock().unwrap()[d.ticket as usize];
                assert!(slot.is_none(), "job {} delivered twice", d.ticket);
                *slot = Some((d.outcome, d.tally));
            },
        );
        let done: Vec<(CellOutcome, JobTally)> = done
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|d| d.expect("every job is accounted"))
            .collect();
        assert!(done[0].0.stats.is_ok(), "the first job had already run");
        assert_eq!(done[0].1.attempts, 1);
        for (i, (outcome, tally)) in done.iter().enumerate().skip(1) {
            assert!(
                matches!(outcome.stats, Err(JobError::Cancelled)),
                "job {i} was queued at cancellation"
            );
            assert_eq!(outcome.wall, Duration::ZERO, "job {i} never ran");
            assert_eq!(tally.attempts, 0);
        }
    }

    #[test]
    fn on_cell_panic_is_resurfaced_once_after_every_job_ran() {
        let machine = MachineConfig::paper_2cluster();
        let jobs: Vec<EvalJob> = Configuration::table3()
            .into_iter()
            .map(|config| EvalJob::Point {
                point: point("gzip-1"),
                config,
                uops: 300,
            })
            .collect();
        let calls = AtomicUsize::new(0);
        let n = jobs.len();
        let result = catch_unwind(AssertUnwindSafe(|| {
            EvalDriver::new(&machine)
                .threads(2)
                .run_with_metrics(&jobs, |_, _| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    panic!("callback exploded");
                })
        }));
        let payload = result.expect_err("the first callback panic resurfaces");
        assert_eq!(panic_message(payload.as_ref()), "callback exploded");
        assert_eq!(
            calls.load(Ordering::SeqCst),
            n,
            "every job still ran and streamed despite the panicking callback"
        );
    }
}
