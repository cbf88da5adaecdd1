//! Chaos property tests over the resilient batch engine: random failpoint
//! schedules against a heterogeneous (point + trace) job queue on 1/2/8
//! worker threads. The invariants, whatever the schedule:
//!
//! 1. the batch never aborts, deadlocks or loses a worker — `run_resilient`
//!    always returns, with one [`CellOutcome`] per job;
//! 2. every job is accounted for exactly once in the [`BatchReport`]
//!    (`ok + failed == jobs`, attempt counts within the retry budget);
//! 3. every cell that *does* succeed is bit-identical to the fault-free
//!    reference — injected faults may kill a job, never skew it;
//! 4. a schedule of finite transient faults (`io@N`) with a sufficient
//!    retry budget heals completely: zero failed jobs, all bit-identical.
//!
//! Faults are armed through [`ScopedFaults`], so these cases are invisible
//! to concurrently running tests and serialized among themselves.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use virtclust::core::fault::{self, FaultKind, FaultSchedule, FaultSpec, ScopedFaults, Trigger};
use virtclust::core::{Configuration, EvalDriver, EvalJob, ResilientOptions};
use virtclust::sim::{RunLimits, SimStats};
use virtclust::uarch::MachineConfig;
use virtclust::workloads::spec2000_points;

fn corpus(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results/traces")
        .join(file)
}

/// The queue every case runs: (generated point + committed-corpus trace)
/// × the five Table 3 schemes — both job kinds, so every failpoint site
/// (`trace.open`, `trace.set_program`, `job.run`, `session.reset`) is
/// reachable.
fn jobs() -> Vec<EvalJob> {
    let gzip = spec2000_points()
        .into_iter()
        .find(|p| p.name == "gzip-1")
        .expect("suite point");
    let mut jobs = Vec::new();
    for config in Configuration::table3() {
        jobs.push(EvalJob::Point {
            point: gzip.clone(),
            config,
            uops: 700,
        });
        jobs.push(EvalJob::Trace {
            path: corpus("galgel.vctb"),
            config,
            limits: RunLimits::uops(900),
        });
    }
    jobs
}

/// The fault-free per-job stats, computed once (single worker, nothing
/// armed) and shared by every case as the bit-identity reference.
fn reference() -> &'static Vec<SimStats> {
    static REF: OnceLock<Vec<SimStats>> = OnceLock::new();
    REF.get_or_init(|| {
        let machine = MachineConfig::paper_2cluster();
        EvalDriver::new(&machine)
            .threads(1)
            .run(&jobs())
            .into_iter()
            .map(|o| o.stats.expect("fault-free corpus run"))
            .collect()
    })
}

fn spec_strategy() -> impl Strategy<Value = FaultSpec> {
    let kind = prop_oneof![
        Just(FaultKind::Io),
        Just(FaultKind::Corrupt),
        Just(FaultKind::Panic),
    ];
    let trigger = prop_oneof![
        (1u64..8).prop_map(Trigger::Nth),
        (2u64..5).prop_map(Trigger::Every),
        // Moderate p so cases exercise both faulted and clean jobs.
        ((5u64..50), (1u64..1_000_000)).prop_map(|(p, seed)| Trigger::Prob {
            p: p as f64 / 100.0,
            seed,
        }),
    ];
    (kind, trigger).prop_map(|(kind, trigger)| FaultSpec { kind, trigger })
}

/// An optional spec, biased toward `None` so most schedules arm only a
/// couple of the four sites.
fn maybe_spec() -> impl Strategy<Value = Option<FaultSpec>> {
    prop_oneof![
        Just(None),
        Just(None),
        spec_strategy().prop_map(Some),
        spec_strategy().prop_map(Some),
    ]
}

fn schedule_of(specs: [Option<FaultSpec>; fault::SITES.len()]) -> FaultSchedule {
    let mut schedule = FaultSchedule::new();
    for (site, spec) in fault::SITES.into_iter().zip(specs) {
        if let Some(spec) = spec {
            schedule = schedule.with(site, spec);
        }
    }
    schedule
}

proptest! {
    // Each case runs a 10-job batch (and the first pays the shared
    // reference run); keep the count low.
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Invariants 1–3: any schedule, any thread count, any retry budget.
    #[test]
    fn chaos_never_aborts_loses_jobs_or_skews_survivors(
        s0 in maybe_spec(),
        s1 in maybe_spec(),
        s2 in maybe_spec(),
        s3 in maybe_spec(),
        threads_idx in 0usize..3,
        max_retries in 0u32..3,
    ) {
        let reference = reference();
        let jobs = jobs();
        let machine = MachineConfig::paper_2cluster();
        let threads = [1, 2, 8][threads_idx];
        let schedule = schedule_of([s0, s1, s2, s3]);
        let opts = ResilientOptions::default().retries(max_retries);

        let guard = ScopedFaults::arm(&schedule);
        let (outcomes, report) = EvalDriver::new(&machine)
            .threads(threads)
            .run_resilient(&jobs, &opts, |_, _| {});
        drop(guard);

        // 1. the batch returned with one outcome per job.
        prop_assert_eq!(outcomes.len(), jobs.len());
        prop_assert_eq!(report.attempts.len(), jobs.len());

        // 2. exact accounting: ok + failed covers every job once; no
        //    deadline was configured; attempts stay within the budget and
        //    every job ran at least once.
        prop_assert_eq!(
            report.ok + report.failed,
            jobs.len() as u64,
            "schedule {}",
            schedule
        );
        prop_assert_eq!(report.deadline_exceeded, 0);
        for (i, &attempts) in report.attempts.iter().enumerate() {
            prop_assert!(
                (1..=max_retries + 1).contains(&attempts),
                "job {i}: {attempts} attempts against a budget of {} (schedule {})",
                max_retries + 1,
                schedule
            );
        }

        // 3. survivors are bit-identical to the fault-free reference.
        for (i, outcome) in outcomes.iter().enumerate() {
            if let Ok(stats) = &outcome.stats {
                prop_assert_eq!(
                    stats,
                    &reference[i],
                    "job {} diverged under schedule {}",
                    i,
                    schedule
                );
            }
        }
    }

    // Invariant 4: finite transient faults + enough retries = full
    // recovery. `io@N` fires at most once per site, so three armed sites
    // inject at most three faults total; a budget of four retries per job
    // covers even the worst case of one job absorbing all of them.
    // (`session.reset` stays unarmed: a fault during quarantine rebuild
    // deliberately fails the job rather than looping.)
    #[test]
    fn finite_transient_faults_heal_to_a_clean_batch(
        n0 in 1u64..6,
        n1 in 1u64..6,
        n2 in 1u64..6,
        threads_idx in 0usize..3,
    ) {
        let reference = reference();
        let jobs = jobs();
        let machine = MachineConfig::paper_2cluster();
        let threads = [1, 2, 8][threads_idx];
        let io_at = |n| FaultSpec { kind: FaultKind::Io, trigger: Trigger::Nth(n) };
        let schedule = FaultSchedule::new()
            .with(fault::TRACE_OPEN, io_at(n0))
            .with(fault::TRACE_SET_PROGRAM, io_at(n1))
            .with(fault::JOB_RUN, io_at(n2));
        let opts = ResilientOptions::default().retries(4);

        let guard = ScopedFaults::arm(&schedule);
        let (outcomes, report) = EvalDriver::new(&machine)
            .threads(threads)
            .run_resilient(&jobs, &opts, |_, _| {});
        drop(guard);

        prop_assert!(
            !report.degraded(),
            "transient-only chaos left failures: {} (schedule {})",
            report.summary(),
            schedule
        );
        prop_assert_eq!(report.ok, jobs.len() as u64);
        prop_assert_eq!(report.panics, 0);
        for (i, outcome) in outcomes.iter().enumerate() {
            let stats = outcome.stats.as_ref().expect("healed batch");
            prop_assert_eq!(stats, &reference[i], "job {} after retry", i);
        }
    }
}
