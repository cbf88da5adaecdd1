//! Record/replay: persist a point's dynamic stream once, then feed the
//! stored trace through the experiment plumbing under any steering scheme.
//!
//! The contract (verified by the tests here and in `tests/trace_replay.rs`)
//! is **bit-identical replay**: for every configuration, simulating a
//! recorded trace produces *exactly* the [`SimStats`] of the equivalent
//! in-process run — same committed micro-ops, same cycles, same IPC. Three
//! properties make that work:
//!
//! 1. the expander's dynamic facts do not depend on annotations, so a trace
//!    captured from the *unannotated* program is scheme-neutral;
//! 2. the trace stores only dynamic facts and re-derives static metadata
//!    from its embedded program, so replay can clear the hints and run each
//!    configuration's compiler pass — exactly like [`run_point`] does;
//! 3. the reader mirrors the expander's [`TraceSource`] semantics
//!    (`region_uops`, end-of-stream), so the simulator's front-end sees an
//!    indistinguishable source.
//!
//! ```
//! use virtclust_core::{record_point, replay_trace, run_point, Configuration};
//! use virtclust_sim::RunLimits;
//! use virtclust_trace::Codec;
//! use virtclust_uarch::MachineConfig;
//! use virtclust_workloads::spec2000_points;
//!
//! let point = &spec2000_points()[0]; // gzip-1
//! let machine = MachineConfig::paper_2cluster();
//! let path = std::env::temp_dir().join("virtclust-doc-replay.vct");
//! record_point(point, 600, Codec::Text, &path).unwrap();
//! for config in [Configuration::Op, Configuration::Vc { num_vcs: 2 }] {
//!     let live = run_point(point, &config, &machine, 600);
//!     let replayed = replay_trace(&path, &config, &machine, &RunLimits::unlimited()).unwrap();
//!     assert_eq!(live, replayed, "replay is bit-identical");
//! }
//! # std::fs::remove_file(&path).ok();
//! ```
//!
//! [`run_point`]: crate::run_point
//! [`TraceSource`]: virtclust_uarch::TraceSource

use std::io::{BufRead, Seek};
use std::path::Path;

use virtclust_obs::ObsSink;
use virtclust_sim::{RunLimits, SimSession, SimStats};
use virtclust_trace::{Codec, Result, TraceReader, TraceWriter};
use virtclust_uarch::MachineConfig;
use virtclust_workloads::TracePoint;

use crate::compile::run_pass;
use crate::experiment::Configuration;

/// Record `uops` micro-ops of `point`'s dynamic stream into a trace file.
///
/// The capture runs over the point's *unannotated* program (the canonical,
/// scheme-neutral form): the expander's dynamic facts are independent of
/// steering hints, and replay re-annotates per configuration anyway.
/// Returns the number of records written.
pub fn record_point(
    point: &TracePoint,
    uops: u64,
    codec: Codec,
    path: impl AsRef<Path>,
) -> Result<u64> {
    let program = point.build_program();
    let mut expander = point.expander(&program);
    let mut writer = TraceWriter::create(path, &program, codec, Some(uops))?;
    expander.capture(uops, |u| writer.write_uop(u))?;
    writer.finish()
}

/// Replay a stored trace under `config` on `machine`.
///
/// Opens the trace, clears the embedded program's steering hints, applies
/// the configuration's compiler pass (exactly as [`run_point`] would), and
/// feeds the stored stream to the simulator. With
/// [`RunLimits::unlimited`] the whole trace is consumed; a tighter
/// `max_uops` replays a prefix.
///
/// [`run_point`]: crate::run_point
pub fn replay_trace(
    path: impl AsRef<Path>,
    config: &Configuration,
    machine: &MachineConfig,
    limits: &RunLimits,
) -> Result<SimStats> {
    crate::fault::fire(crate::fault::TRACE_OPEN)?;
    replay_reader(TraceReader::open(path)?, config, machine, limits)
}

/// [`replay_trace`] over an already-open reader (any seekable byte
/// source).
pub fn replay_reader<R: BufRead + Seek>(
    reader: TraceReader<R>,
    config: &Configuration,
    machine: &MachineConfig,
    limits: &RunLimits,
) -> Result<SimStats> {
    replay_on(
        &mut SimSession::new(machine),
        reader,
        config,
        machine,
        limits,
    )
}

/// [`replay_trace`] with an interval observer attached: replays the
/// stored stream under `config` while `sink` receives one
/// [`SimStats`] delta every `every` cycles (plus the trailing partial
/// interval and an `on_finish` with the final stats). The returned
/// stats are bit-identical to an unobserved [`replay_trace`] of the
/// same file — the observer reads, never steers.
pub fn replay_trace_observed(
    path: impl AsRef<Path>,
    config: &Configuration,
    machine: &MachineConfig,
    limits: &RunLimits,
    every: u64,
    sink: Box<dyn ObsSink<SimStats> + Send>,
) -> Result<SimStats> {
    crate::fault::fire(crate::fault::TRACE_OPEN)?;
    let reader = TraceReader::open(path)?;
    let mut session = SimSession::new(machine);
    session.attach_observer(every, sink);
    replay_on(&mut session, reader, config, machine, limits)
}

/// [`replay_reader`] on a caller-provided session, the one replay body:
/// re-annotate the trace's program for `config` through the same
/// [`run_pass`] that [`run_point`] applies to a freshly generated program,
/// then simulate the stored stream.
///
/// [`run_point`]: crate::run_point
fn replay_on<R: BufRead + Seek>(
    session: &mut SimSession,
    mut reader: TraceReader<R>,
    config: &Configuration,
    machine: &MachineConfig,
    limits: &RunLimits,
) -> Result<SimStats> {
    let mut program = reader.program().clone();
    run_pass(&mut program, config, machine);
    reader.set_program(program)?;
    let mut policy = config.make_policy();
    let stats = session.simulate(machine, &mut reader, policy.as_mut(), limits);
    // Errors inside the simulation loop surface as a silently-ended trace;
    // re-raise them so a corrupt file can never masquerade as a short run.
    if let Some(err) = reader.take_error() {
        return Err(err);
    }
    Ok(stats)
}

/// Replay a stored trace under several configurations, returning
/// `(name, stats)` per configuration — the cross-scheme comparison the
/// paper's evaluation is built on, over one frozen stream.
pub fn replay_compare(
    path: impl AsRef<Path>,
    configs: &[Configuration],
    machine: &MachineConfig,
) -> Result<Vec<(String, SimStats)>> {
    let path = path.as_ref();
    configs
        .iter()
        .map(|config| {
            let stats = replay_trace(path, config, machine, &RunLimits::unlimited())?;
            Ok((config.name(machine.num_clusters as u32), stats))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtclust_workloads::spec2000_points;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("virtclust-replay-{}-{name}", std::process::id()))
    }

    fn point(name: &str) -> TracePoint {
        spec2000_points()
            .into_iter()
            .find(|p| p.name == name)
            .expect("suite point")
    }

    #[test]
    fn replay_is_bit_identical_for_every_table3_scheme() {
        let machine = MachineConfig::paper_2cluster();
        let p = point("crafty");
        let budget = 3_000;
        let path = tmp("crafty.vctb");
        assert_eq!(
            record_point(&p, budget, Codec::Binary, &path).unwrap(),
            budget
        );
        for config in Configuration::table3() {
            let live = crate::run_point(&p, &config, &machine, budget);
            let replayed = replay_trace(&path, &config, &machine, &RunLimits::unlimited()).unwrap();
            assert_eq!(live, replayed, "{}", config.name(2));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn observed_replay_matches_replay_trace_and_its_deltas_sum() {
        use virtclust_obs::{MemSink, Shared};
        let machine = MachineConfig::paper_2cluster();
        let path = tmp("observed.vctb");
        record_point(&point("gzip-1"), 1_500, Codec::Binary, &path).unwrap();
        let limits = RunLimits::unlimited();
        for config in Configuration::table3() {
            let plain = replay_trace(&path, &config, &machine, &limits).unwrap();
            let sink = Shared::new(MemSink::<SimStats>::new());
            let observed = replay_trace_observed(
                &path,
                &config,
                &machine,
                &limits,
                250,
                Box::new(sink.clone()),
            )
            .unwrap();
            assert_eq!(observed, plain, "{}", config.name(2));
            let mut sum = SimStats::default();
            sink.with(|s| s.intervals.iter().for_each(|i| sum.accumulate(&i.delta)));
            assert_eq!(sum, plain, "{}: interval deltas sum", config.name(2));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_and_binary_codecs_replay_identically() {
        let machine = MachineConfig::paper_2cluster();
        let p = point("gzip-1");
        let (t, b) = (tmp("gzip.vct"), tmp("gzip.vctb"));
        record_point(&p, 2_000, Codec::Text, &t).unwrap();
        record_point(&p, 2_000, Codec::Binary, &b).unwrap();
        let config = Configuration::Vc { num_vcs: 2 };
        let from_text = replay_trace(&t, &config, &machine, &RunLimits::unlimited()).unwrap();
        let from_bin = replay_trace(&b, &config, &machine, &RunLimits::unlimited()).unwrap();
        assert_eq!(from_text, from_bin);
        std::fs::remove_file(&t).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn replay_compare_runs_every_scheme_over_one_stream() {
        let machine = MachineConfig::paper_2cluster();
        let p = point("eon-1");
        let path = tmp("eon.vct");
        record_point(&p, 1_500, Codec::Text, &path).unwrap();
        let rows = replay_compare(&path, &Configuration::table3(), &machine).unwrap();
        assert_eq!(rows.len(), 5);
        for (name, stats) in &rows {
            assert_eq!(stats.committed_uops, 1_500, "{name}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_with_a_budget_prefix_still_commits_the_budget() {
        let machine = MachineConfig::paper_2cluster();
        let p = point("gzip-1");
        let path = tmp("prefix.vctb");
        record_point(&p, 2_000, Codec::Binary, &path).unwrap();
        let stats =
            replay_trace(&path, &Configuration::Op, &machine, &RunLimits::uops(800)).unwrap();
        assert_eq!(stats.committed_uops, 800);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_trace_files_error_instead_of_short_running() {
        let machine = MachineConfig::paper_2cluster();
        let p = point("gzip-1");
        let path = tmp("corrupt.vctb");
        record_point(&p, 1_000, Codec::Binary, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let err = replay_trace(&path, &Configuration::Op, &machine, &RunLimits::unlimited());
        assert!(err.is_err());
        std::fs::remove_file(&path).ok();
    }
}
