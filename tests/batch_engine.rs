//! Integration tests for the session/batch layer — this PR's acceptance
//! criteria:
//!
//! 1. a [`SimSession`] reused across runs (mixed machine configurations
//!    and real Table 3 steering schemes) produces `SimStats` bit-identical
//!    to fresh `SimSession::new` runs;
//! 2. [`EvalDriver`] output is deterministic across 1/2/8 worker threads
//!    for heterogeneous job queues;
//! 3. `run_matrix` (now one `EvalDriver` call) stays bit-identical to
//!    per-cell `run_point`, so every figures/metrics/replay consumer
//!    migrates unchanged;
//! 4. batched replay of the committed corpus matches the one-shot
//!    `replay_trace` path.

use std::path::PathBuf;

use virtclust::core::{replay_trace, run_matrix, run_point, Configuration, EvalDriver, EvalJob};
use virtclust::sim::{RunLimits, SimSession, SimStats};
use virtclust::uarch::MachineConfig;
use virtclust::workloads::{spec2000_points, TracePoint};

fn point(name: &str) -> TracePoint {
    spec2000_points()
        .into_iter()
        .find(|p| p.name == name)
        .expect("suite point")
}

fn corpus(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results/traces")
        .join(file)
}

#[test]
fn one_session_serves_every_table3_scheme_bit_identically() {
    // Mixed machines (2- and 4-cluster) and all five schemes, through one
    // session, in an order that forces repeated reconfiguration.
    let budget = 2_000;
    let two = MachineConfig::paper_2cluster();
    let four = MachineConfig::paper_4cluster();
    let mut session = SimSession::new(&two);
    for (machine, pname) in [(&two, "crafty"), (&four, "galgel"), (&two, "gzip-1")] {
        let p = point(pname);
        for config in Configuration::table3() {
            let fresh = run_point(&p, &config, machine, budget);
            let reused = {
                let mut program = p.build_program();
                config
                    .software_pass(machine.num_clusters as u32)
                    .apply(&mut program, &machine.latencies);
                let mut trace = p.expander(&program);
                let mut policy = config.make_policy();
                session.simulate(
                    machine,
                    &mut trace,
                    policy.as_mut(),
                    &RunLimits::uops(budget),
                )
            };
            assert_eq!(
                fresh,
                reused,
                "{pname} × {} on {} clusters",
                config.name(machine.num_clusters as u32),
                machine.num_clusters
            );
        }
    }
}

#[test]
fn eval_driver_is_deterministic_across_1_2_8_threads() {
    let machine = MachineConfig::paper_2cluster();
    // Heterogeneous queue: generated points and committed-corpus replays.
    let mut jobs: Vec<EvalJob> = Vec::new();
    for config in Configuration::table3() {
        jobs.push(EvalJob::Point {
            point: point("gzip-1"),
            config,
            uops: 700,
        });
        jobs.push(EvalJob::Trace {
            path: corpus("galgel.vctb"),
            config,
            limits: RunLimits::uops(900),
        });
    }
    let stats_of = |threads: usize| -> Vec<SimStats> {
        EvalDriver::new(&machine)
            .threads(threads)
            .run(&jobs)
            .into_iter()
            .map(|o| o.stats.expect("corpus is readable"))
            .collect()
    };
    let one = stats_of(1);
    assert_eq!(one, stats_of(2), "1 vs 2 worker threads");
    assert_eq!(one, stats_of(8), "1 vs 8 worker threads");
}

#[test]
fn run_matrix_through_the_batch_engine_matches_run_point() {
    let machine = MachineConfig::paper_2cluster();
    let points: Vec<TracePoint> = spec2000_points()
        .into_iter()
        .filter(|p| ["gzip-1", "mcf", "galgel"].contains(&p.name.as_str()))
        .collect();
    let configs = [Configuration::Op, Configuration::Vc { num_vcs: 2 }];
    let matrix = run_matrix(&machine, &configs, &points, 1_000, 3);
    for (pi, p) in points.iter().enumerate() {
        for (ci, config) in configs.iter().enumerate() {
            let standalone = run_point(p, config, &machine, 1_000);
            assert_eq!(
                &standalone,
                matrix.cell(pi, ci),
                "{} × {}",
                p.name,
                config.name(2)
            );
        }
    }
}

#[test]
fn batched_corpus_replay_matches_one_shot_replay_trace() {
    let machine = MachineConfig::paper_2cluster();
    let path = corpus("gzip-1.vct");
    let jobs: Vec<EvalJob> = Configuration::table3()
        .into_iter()
        .map(|config| EvalJob::Trace {
            path: path.clone(),
            config,
            limits: RunLimits::unlimited(),
        })
        .collect();
    // One worker: the five cells replay the file in turn on one reused
    // session.
    let outcomes = EvalDriver::new(&machine).threads(1).run(&jobs);
    for (job, outcome) in jobs.iter().zip(&outcomes) {
        let one_shot =
            replay_trace(&path, job.config(), &machine, &RunLimits::unlimited()).unwrap();
        assert_eq!(
            &one_shot,
            outcome.stats.as_ref().unwrap(),
            "{}",
            job.label(2)
        );
    }
}

#[test]
fn non_rewindable_source_fails_typed_instead_of_panicking() {
    // The batch engine's per-worker reuse pattern — simulate a cell, rewind
    // the source, simulate the next cell — against a source that cannot
    // restart. The second cell must surface `RewindError::Unsupported`
    // naming the source kind at the seam, instead of a panic (or a silent
    // empty re-run) deep inside the driver loop.
    use virtclust::uarch::{DynUop, RewindError, TraceSource};

    struct OneShot {
        uops: Vec<DynUop>,
        pos: usize,
    }
    impl TraceSource for OneShot {
        fn next_uop(&mut self) -> Option<DynUop> {
            let u = self.uops.get(self.pos).copied();
            self.pos += 1;
            u
        }
        fn source_kind(&self) -> &'static str {
            "OneShot"
        }
        // No `rewind` override: the default refusal applies.
    }

    let machine = MachineConfig::paper_2cluster();
    let p = point("gzip-1");
    let program = p.build_program();
    let mut expander = p.expander(&program);
    let uops: Vec<DynUop> = (0..500)
        .map(|_| expander.next_uop().expect("endless"))
        .collect();

    let mut session = SimSession::new(&machine);
    let mut source = OneShot { uops, pos: 0 };
    let config = Configuration::Op;

    // Cell 1 runs fine.
    let mut policy = config.make_policy();
    let first = session.simulate(
        &machine,
        &mut source,
        policy.as_mut(),
        &RunLimits::unlimited(),
    );
    assert_eq!(first.committed_uops, 500);

    // Cell 2: the reuse loop must see the typed refusal before re-running.
    let err = source.rewind().expect_err("OneShot cannot rewind");
    assert_eq!(err, RewindError::Unsupported { source: "OneShot" });
    assert!(matches!(err, RewindError::Unsupported { source } if source == "OneShot"));
}
