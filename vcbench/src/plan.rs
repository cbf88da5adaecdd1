//! The three workloads and the seeded inputs each one generates.
//!
//! The seed is the only source of variation: it draws job order, job kind,
//! suite point, scheme, kernel expansion seeds, open-loop arrival times
//! and the programs of the generated traces. The program under test only
//! ever sees the generated inputs.

use std::path::{Path, PathBuf};
use std::time::Duration;

use virtclust_core::{Configuration, EvalJob};
use virtclust_svc::JobSpec;
use virtclust_trace::Codec;
use virtclust_workloads::{spec2000_points, TracePoint};

use crate::stats::Rng;

/// The scheme names the service understands, in report order: the five
/// configurations of the paper's Table 3 on a 2-cluster machine.
pub const SCHEMES: [&str; 5] = ["OP", "1C", "OB", "RHOP", "VC2"];

/// Report label of a Table 3 configuration (the index into [`SCHEMES`]).
pub fn scheme_index(config: &Configuration) -> usize {
    match config {
        Configuration::Op => 0,
        Configuration::OneCluster => 1,
        Configuration::Ob => 2,
        Configuration::Rhop => 3,
        Configuration::Vc { num_vcs: 2 } => 4,
        other => panic!("configuration {other:?} is not in the benchmark's Table 3 set"),
    }
}

/// Committed corpus files the short mix replays and expands (relative to
/// the corpus directory, `results/traces` in a checkout). Both traces
/// hold at least [`SHORT_UOPS`] micro-ops, so every job is the same size.
const CORPUS_TRACES: [&str; 2] = ["gzip-1.vct", "galgel.vctb"];
const CORPUS_KERNELS: [&str; 2] = ["dotprod.kernel", "smoke8.kernel"];

/// Micro-ops per job on `svc_short_mix` (the `loadgen` job size).
pub const SHORT_UOPS: u64 = 2_000;
/// Micro-ops per recorded trace on `svc_unique_replay`.
pub const REPLAY_UOPS: u64 = 5_000;
/// Micro-ops per cell on `batch_long_sim`.
pub const BATCH_UOPS: u64 = 50_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `loadgen`-style mix of short, repeating jobs through the daemon.
    SvcShortMix,
    /// An in-process `EvalDriver` drain of 40 points × Table 3 at 50 000
    /// micro-ops per cell.
    BatchLongSim,
    /// Replays of freshly recorded traces through the daemon; no program
    /// repeats.
    SvcUniqueReplay,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SvcShortMix,
        Workload::BatchLongSim,
        Workload::SvcUniqueReplay,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SvcShortMix => "svc_short_mix",
            Workload::BatchLongSim => "batch_long_sim",
            Workload::SvcUniqueReplay => "svc_unique_replay",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Micro-ops per job.
    pub fn job_uops(self) -> u64 {
        match self {
            Workload::SvcShortMix => SHORT_UOPS,
            Workload::BatchLongSim => BATCH_UOPS,
            Workload::SvcUniqueReplay => REPLAY_UOPS,
        }
    }
}

/// How a service workload spends its `--seconds`: closed-window floods
/// that measure capacity, alternating with open-loop paced phases that
/// measure latency at a fixed offered rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvcShape {
    /// Flood jobs per measured second: the daemon's capacity on a 2-core
    /// x86-64 host, so the flood lasts about `flood_share` of the run
    /// there.
    pub flood_per_s: f64,
    /// Share of `--seconds` given to the flood.
    pub flood_share: f64,
    /// The paced phase's fixed offered rate, jobs per second: about a
    /// quarter of that capacity. The host's speed drifts by up to 40 %,
    /// and the rate must stay well below capacity on a slow stretch too;
    /// much lower rates leave the cores idle between jobs, and waking an
    /// idle virtual core makes the latency tail longer and no steadier.
    pub paced_per_s: f64,
    /// Share of `--seconds` given to the paced phase.
    pub paced_share: f64,
    /// Flood-then-paced rounds the phases are split into.
    pub rounds: usize,
}

impl SvcShape {
    /// The shape of a service workload (`None` for the batch workload).
    /// `svc_unique_replay` measures for only part of the run: every job it
    /// runs is a trace file written beforehand, about 12 bytes per
    /// micro-op on disk.
    pub fn of(w: Workload) -> Option<SvcShape> {
        match w {
            Workload::SvcShortMix => Some(SvcShape {
                flood_per_s: 2_300.0,
                flood_share: 0.4,
                paced_per_s: 600.0,
                paced_share: 0.6,
                rounds: 10,
            }),
            Workload::SvcUniqueReplay => Some(SvcShape {
                flood_per_s: 800.0,
                flood_share: 0.2,
                paced_per_s: 180.0,
                paced_share: 0.7,
                rounds: 2,
            }),
            Workload::BatchLongSim => None,
        }
    }

    /// `(flood jobs, paced jobs)` for a run of `seconds`.
    pub fn counts(&self, seconds: f64) -> (usize, usize) {
        let flood = (self.flood_per_s * seconds * self.flood_share).round() as usize;
        let paced = (self.paced_per_s * seconds * self.paced_share).round() as usize;
        (flood.max(1), paced.max(1))
    }
}

/// Poisson arrivals at `rate` per second: `n` due offsets from the start
/// of the paced phase.
pub fn arrivals(rng: &mut Rng, n: usize, rate: f64) -> Vec<Duration> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// The `svc_short_mix` job stream: 80 % suite points, 10 % kernel
/// expansions and 10 % trace replays from the committed corpus under
/// `corpus`, each under a uniformly drawn Table 3 scheme, all
/// [`SHORT_UOPS`] micro-ops.
pub fn short_mix(rng: &mut Rng, n: usize, corpus: &Path) -> Vec<JobSpec> {
    let points = spec2000_points();
    let corpus_path = |f: &str| corpus.join(f).to_string_lossy().into_owned();
    (0..n)
        .map(|_| {
            let draw = rng.unit();
            let scheme = SCHEMES[rng.below(SCHEMES.len())].to_string();
            if draw < 0.8 {
                JobSpec::Point {
                    name: points[rng.below(points.len())].name.clone(),
                    scheme,
                    uops: SHORT_UOPS,
                }
            } else if draw < 0.9 {
                JobSpec::Kernel {
                    path: corpus_path(CORPUS_KERNELS[rng.below(CORPUS_KERNELS.len())]),
                    seed: rng.next_u64(),
                    scheme,
                    uops: SHORT_UOPS,
                }
            } else {
                JobSpec::Trace {
                    path: corpus_path(CORPUS_TRACES[rng.below(CORPUS_TRACES.len())]),
                    scheme,
                    max_uops: SHORT_UOPS,
                }
            }
        })
        .collect()
}

/// One trace `svc_unique_replay` records before it starts the daemon.
#[derive(Debug, Clone)]
pub struct ReplayTrace {
    /// A suite point with a seed-derived `program_seed`, so no two
    /// recorded programs are the same.
    pub point: TracePoint,
    /// Text for even indices, binary for odd: half `.vct`, half `.vctb`.
    pub codec: Codec,
    /// Scheme the replay job runs under.
    pub scheme: &'static str,
    /// Where the trace is written.
    pub path: PathBuf,
}

impl ReplayTrace {
    /// The replay job for this trace: the whole recorded stream.
    pub fn spec(&self) -> JobSpec {
        JobSpec::Trace {
            path: self.path.to_string_lossy().into_owned(),
            scheme: self.scheme.to_string(),
            max_uops: 0,
        }
    }
}

/// The `svc_unique_replay` traces: `n` suite points with fresh programs,
/// alternating codecs, to be recorded under `dir`.
pub fn unique_replays(rng: &mut Rng, n: usize, dir: &Path) -> Vec<ReplayTrace> {
    let points = spec2000_points();
    (0..n)
        .map(|i| {
            let mut point = points[rng.below(points.len())].clone();
            point.program_seed = rng.next_u64();
            let codec = if i % 2 == 0 {
                Codec::Text
            } else {
                Codec::Binary
            };
            ReplayTrace {
                path: dir.join(format!("u{i}.{}", codec.extension())),
                point,
                codec,
                scheme: SCHEMES[rng.below(SCHEMES.len())],
            }
        })
        .collect()
}

/// The `batch_long_sim` job list: every suite point under every Table 3
/// configuration at [`BATCH_UOPS`], in a seed-shuffled order.
pub fn batch_cells(rng: &mut Rng) -> Vec<EvalJob> {
    let mut jobs: Vec<EvalJob> = spec2000_points()
        .into_iter()
        .flat_map(|point| {
            Configuration::table3().map(|config| EvalJob::Point {
                point: point.clone(),
                config,
                uops: BATCH_UOPS,
            })
        })
        .collect();
    rng.shuffle(&mut jobs);
    jobs
}

/// The identity of a compiler pass's input: the same key always yields
/// the same annotated program (one machine, so cluster count and
/// latencies are fixed). `None` for hardware-only schemes, which run no
/// pass.
pub fn pass_key(job: &EvalJob) -> Option<String> {
    let config = job.config();
    if matches!(config, Configuration::Op | Configuration::OneCluster) {
        return None;
    }
    let program = match job {
        EvalJob::Point { point, .. } => format!("point:{}:{}", point.name, point.program_seed),
        EvalJob::Kernel { program, .. } => format!("kernel:{}", program.name),
        EvalJob::Trace { path, .. } => format!("trace:{}", path.display()),
    };
    Some(format!("{program}|{config:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(s: &JobSpec) -> usize {
        match s {
            JobSpec::Point { .. } => 0,
            JobSpec::Kernel { .. } => 1,
            JobSpec::Trace { .. } => 2,
        }
    }

    #[test]
    fn the_schedule_is_identical_for_a_seed_and_differs_across_seeds() {
        let corpus = Path::new("corpus");
        let a = short_mix(&mut Rng::new(11), 500, corpus);
        let b = short_mix(&mut Rng::new(11), 500, corpus);
        let c = short_mix(&mut Rng::new(12), 500, corpus);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let ta = arrivals(&mut Rng::new(11), 100, 500.0);
        assert_eq!(ta, arrivals(&mut Rng::new(11), 100, 500.0));
        assert!(ta.windows(2).all(|w| w[0] <= w[1]));
        let ua = unique_replays(&mut Rng::new(5), 20, corpus);
        let ub = unique_replays(&mut Rng::new(5), 20, corpus);
        assert!(ua
            .iter()
            .zip(&ub)
            .all(|(x, y)| x.point.program_seed == y.point.program_seed && x.spec() == y.spec()));
        let labels = |jobs: &[EvalJob]| jobs.iter().map(|j| j.label(2)).collect::<Vec<_>>();
        assert_eq!(
            labels(&batch_cells(&mut Rng::new(3))),
            labels(&batch_cells(&mut Rng::new(3)))
        );
    }

    #[test]
    fn the_mix_ratios_hold() {
        let n = 20_000;
        let jobs = short_mix(&mut Rng::new(99), n, Path::new("corpus"));
        let mut kinds = [0usize; 3];
        let mut schemes = [0usize; 5];
        for j in &jobs {
            kinds[kind(j)] += 1;
            let (JobSpec::Point { scheme, .. }
            | JobSpec::Kernel { scheme, .. }
            | JobSpec::Trace { scheme, .. }) = j;
            schemes[SCHEMES.iter().position(|s| s == scheme).unwrap()] += 1;
        }
        let share = |k: usize| k as f64 / n as f64;
        assert!((share(kinds[0]) - 0.8).abs() < 0.015, "{kinds:?}");
        assert!((share(kinds[1]) - 0.1).abs() < 0.01, "{kinds:?}");
        assert!((share(kinds[2]) - 0.1).abs() < 0.01, "{kinds:?}");
        assert!(
            schemes.iter().all(|&s| (share(s) - 0.2).abs() < 0.015),
            "{schemes:?}"
        );
        let replays = unique_replays(&mut Rng::new(1), 100, Path::new("d"));
        let text = replays.iter().filter(|r| r.codec == Codec::Text).count();
        assert_eq!(text, 50);
        let mut seeds: Vec<u64> = replays.iter().map(|r| r.point.program_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 100, "every recorded program is distinct");
        assert_eq!(batch_cells(&mut Rng::new(0)).len(), 200);
    }

    #[test]
    fn arrivals_average_the_offered_rate() {
        let t = arrivals(&mut Rng::new(4), 10_000, 500.0);
        let rate = 10_000.0 / t.last().unwrap().as_secs_f64();
        assert!((rate / 500.0 - 1.0).abs() < 0.05, "{rate}");
    }
}
