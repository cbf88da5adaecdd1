//! The traced per-layer path: the batch engine's per-job work, re-run from
//! the benchmark's own code with a timer or counter around every call into
//! a layer's public API. Nothing inside the program is instrumented.
//!
//! [`TracedWorker::run`] mirrors what an `EvalDriver` worker does for each
//! job kind — build or open the program, clear hints, run the compiler
//! pass, reset the reused session, simulate — so its statistics must equal
//! the engine's bit for bit; the benchmark checks that on every traced
//! run. Two forwarding wrappers see inside the simulation without touching
//! it: [`TimedSource`] times every micro-op pulled from the trace source
//! (expander or trace reader), and [`CountedPolicy`] counts steering calls.

use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use virtclust_core::EvalJob;
use virtclust_sim::{RunLimits, SimSession, SimStats, SteerDecision, SteerView, SteeringPolicy};
use virtclust_svc::wire::{decode_server, encode_server, split_frame};
use virtclust_svc::{stats_digest, ServerMsg, WireResult, WireStats};
use virtclust_trace::{Codec, TraceReader};
use virtclust_uarch::{DynUop, MachineConfig, Program, RewindError, TraceSource};
use virtclust_workloads::TraceExpander;

use crate::plan::{scheme_index, SCHEMES};

/// Accumulated time and count under one ledger key.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Nanoseconds spent.
    pub ns: u128,
    /// Events (calls, micro-ops, cycles — whatever the key counts).
    pub n: u64,
}

/// Per-layer time and counts, keyed by `layer.what[.scheme]`. Each worker
/// fills its own ledger; [`Ledger::merge`] sums them.
#[derive(Debug, Clone, Default)]
pub struct Ledger(BTreeMap<String, Tally>);

impl Ledger {
    /// Add `d` and `n` events under `key`.
    pub fn time(&mut self, key: &str, d: Duration, n: u64) {
        let t = self.0.entry(key.to_string()).or_default();
        t.ns += d.as_nanos();
        t.n += n;
    }

    /// Add `n` events under `key`.
    pub fn count(&mut self, key: &str, n: u64) {
        self.0.entry(key.to_string()).or_default().n += n;
    }

    /// Sum another ledger into this one.
    pub fn merge(&mut self, other: Ledger) {
        for (k, t) in other.0 {
            let mine = self.0.entry(k).or_default();
            mine.ns += t.ns;
            mine.n += t.n;
        }
    }

    /// The tally under `key` (zero if never recorded).
    pub fn get(&self, key: &str) -> Tally {
        self.0.get(key).copied().unwrap_or_default()
    }

    /// Nanoseconds per event under `key` (0 when nothing was recorded).
    pub fn ns_per(&self, key: &str) -> f64 {
        let t = self.get(key);
        ratio(t.ns as f64, t.n as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A forwarding [`TraceSource`] that times every micro-op pulled.
pub struct TimedSource<'a> {
    inner: &'a mut dyn TraceSource,
    /// Time spent inside the wrapped source.
    pub busy: Duration,
    /// Micro-ops the wrapped source produced.
    pub pulled: u64,
}

impl<'a> TimedSource<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn TraceSource) -> Self {
        TimedSource {
            inner,
            busy: Duration::ZERO,
            pulled: 0,
        }
    }
}

impl TraceSource for TimedSource<'_> {
    fn next_uop(&mut self) -> Option<DynUop> {
        let t = Instant::now();
        let uop = self.inner.next_uop();
        self.busy += t.elapsed();
        self.pulled += u64::from(uop.is_some());
        uop
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn region_uops(&self, region: u32) -> usize {
        self.inner.region_uops(region)
    }

    fn source_kind(&self) -> &'static str {
        self.inner.source_kind()
    }

    fn rewind(&mut self) -> Result<(), RewindError> {
        self.inner.rewind()
    }
}

/// A forwarding [`SteeringPolicy`] that counts `steer` calls. It forwards
/// `steer_is_pure` too, so the simulator skips exactly the spans it would
/// skip for the wrapped policy.
pub struct CountedPolicy<'a> {
    inner: &'a mut dyn SteeringPolicy,
    /// `steer` calls made.
    pub calls: u64,
}

impl<'a> CountedPolicy<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn SteeringPolicy) -> Self {
        CountedPolicy { inner, calls: 0 }
    }
}

impl SteeringPolicy for CountedPolicy<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn steer(&mut self, uop: &DynUop, view: &SteerView<'_>) -> SteerDecision {
        self.calls += 1;
        self.inner.steer(uop, view)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn steer_is_pure(&self) -> bool {
        self.inner.steer_is_pure()
    }
}

/// An open trace kept across jobs, as an engine worker keeps it.
struct CachedTrace {
    reader: TraceReader<BufReader<File>>,
    pristine: Program,
}

/// A worker's reused session and the machine it simulates.
struct Sim<'m> {
    machine: &'m MachineConfig,
    session: SimSession,
}

impl Sim<'_> {
    /// Reset the session and run it over `source`, timing both separately
    /// (together they are `SimSession::simulate`) and recording the
    /// simulator's and the steering policy's counts.
    fn run(
        &mut self,
        source: &mut dyn TraceSource,
        policy: &mut CountedPolicy<'_>,
        limits: &RunLimits,
        source_key: &str,
        scheme: &str,
        led: &mut Ledger,
    ) -> SimStats {
        let mut source = TimedSource::new(source);
        let t = Instant::now();
        self.session.reset(self.machine);
        led.time("sim.reset", t.elapsed(), 1);
        let t = Instant::now();
        let stats = self.session.run(&mut source, policy, limits);
        let run = t.elapsed();
        let diag = self.session.skip_diag();
        let stepped = stats.cycles - diag.cycles;
        led.time("sim.run", run, stats.committed_uops);
        led.time("sim.stepped", run, stepped);
        led.count("sim.cycles", stats.cycles);
        led.count("sim.policy_spans", diag.policy_dependent_spans());
        led.count(&format!("sim.stepped.{scheme}"), stepped);
        led.time(source_key, source.busy, source.pulled);
        led.count(&format!("steer.calls.{scheme}"), policy.calls);
        led.count(&format!("steer.uops.{scheme}"), stats.committed_uops);
        stats
    }
}

/// One traced worker: a reused session and trace-reader cache, like an
/// `EvalDriver` worker's.
pub struct TracedWorker<'m> {
    sim: Sim<'m>,
    traces: HashMap<PathBuf, CachedTrace>,
}

impl<'m> TracedWorker<'m> {
    /// A worker with a fresh session for `machine`.
    pub fn new(machine: &'m MachineConfig) -> Self {
        TracedWorker {
            sim: Sim {
                machine,
                session: SimSession::new(machine),
            },
            traces: HashMap::new(),
        }
    }

    /// Run one job, recording every layer's share into `led`.
    pub fn run(&mut self, job: &EvalJob, led: &mut Ledger) -> Result<SimStats, String> {
        let started = Instant::now();
        let scheme = SCHEMES[scheme_index(job.config())];
        let machine = self.sim.machine;
        let pass = job.config().software_pass(machine.num_clusters as u32);
        let apply_pass = |program: &mut Program, led: &mut Ledger| {
            let t = Instant::now();
            pass.apply(program, &machine.latencies);
            led.time(&format!("compiler.pass.{scheme}"), t.elapsed(), 1);
        };
        let mut policy = job.config().make_policy();
        let mut policy = CountedPolicy::new(policy.as_mut());
        const EXPAND: &str = "workloads.expand";
        let stats = match job {
            EvalJob::Point { point, uops, .. } => {
                let t = Instant::now();
                let mut program = point.build_program();
                led.time("workloads.build_program", t.elapsed(), 1);
                apply_pass(&mut program, led);
                let mut expander = point.expander(&program);
                let limits = RunLimits::uops(*uops);
                self.sim
                    .run(&mut expander, &mut policy, &limits, EXPAND, scheme, led)
            }
            EvalJob::Kernel {
                program,
                params,
                seed,
                uops,
                ..
            } => {
                let mut program = program.clone();
                program.clear_hints();
                apply_pass(&mut program, led);
                let mut expander = TraceExpander::new(&program, params, *seed);
                let limits = RunLimits::uops(*uops);
                self.sim
                    .run(&mut expander, &mut policy, &limits, EXPAND, scheme, led)
            }
            EvalJob::Trace { path, limits, .. } => {
                let cached = match self.traces.entry(path.clone()) {
                    Entry::Occupied(e) => {
                        led.count("trace.reader_hit", 1);
                        e.into_mut()
                    }
                    Entry::Vacant(e) => {
                        let t = Instant::now();
                        let reader = TraceReader::open(path).map_err(|e| e.to_string())?;
                        let pristine = reader.program().clone();
                        led.time("trace.open", t.elapsed(), 1);
                        e.insert(CachedTrace { reader, pristine })
                    }
                };
                let mut program = cached.pristine.clone();
                program.clear_hints();
                apply_pass(&mut program, led);
                let reader = &mut cached.reader;
                reader.set_program(program).map_err(|e| e.to_string())?;
                reader.rewind().map_err(|e| e.to_string())?;
                let key = match reader.codec() {
                    Codec::Text => "trace.decode.text",
                    Codec::Binary => "trace.decode.binary",
                };
                let stats = self.sim.run(reader, &mut policy, limits, key, scheme, led);
                if let Some(err) = reader.take_error() {
                    return Err(err.to_string());
                }
                stats
            }
        };
        let spent = started.elapsed();
        led.time("job", spent, 1);
        led.time(&format!("job.{scheme}"), spent, 1);
        Ok(stats)
    }
}

/// Time the service's per-result work for `stats` outside the daemon: the
/// stats digest, and one Result frame through `encode_server`,
/// `split_frame` and `decode_server`, which must give back the message.
pub fn wire_round_trip(
    ticket: u64,
    wall: Duration,
    stats: &SimStats,
    led: &mut Ledger,
) -> Result<(), String> {
    let t = Instant::now();
    let digest = stats_digest(stats);
    led.time("svc.digest", t.elapsed(), 1);
    let msg = ServerMsg::Result(WireResult {
        ticket,
        wall_us: wall.as_micros() as u64,
        outcome: Ok(WireStats {
            cycles: stats.cycles,
            committed_uops: stats.committed_uops,
            copies: stats.copies_generated,
            digest,
        }),
    });
    let t = Instant::now();
    let mut frame = Vec::with_capacity(64);
    encode_server(&mut frame, &msg).map_err(|e| e.to_string())?;
    let (msg_type, body, used) = split_frame(&frame)
        .map_err(|e| e.to_string())?
        .ok_or("an encoded frame did not split")?;
    let back = decode_server(msg_type, &body).map_err(|e| e.to_string())?;
    led.time("svc.frame", t.elapsed(), 1);
    if used != frame.len() || back.as_ref() != Some(&msg) {
        return Err("a Result frame did not round-trip".into());
    }
    Ok(())
}

/// What [`traced_run`] measured.
pub struct TracedRun {
    /// Per-job statistics, in job order.
    pub stats: Vec<Result<SimStats, String>>,
    /// All workers' ledgers, merged.
    pub ledger: Ledger,
    /// Wall time of the whole drain.
    pub wall: Duration,
}

/// One traced worker's ledger and `(job index, stats)` results.
type WorkerOutput = (Ledger, Vec<(usize, Result<SimStats, String>)>);

/// Drain `jobs` over `threads` traced workers pulling from one cursor, as
/// the engine's workers do.
pub fn traced_run(machine: &MachineConfig, jobs: &[EvalJob], threads: usize) -> TracedRun {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let per_worker: Vec<WorkerOutput> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut worker = TracedWorker::new(machine);
                    let mut led = Ledger::default();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let t = Instant::now();
                        let stats = worker.run(job, &mut led);
                        if let Ok(s) = &stats {
                            let wall = t.elapsed();
                            if let Err(e) = wire_round_trip(i as u64, wall, s, &mut led) {
                                done.push((i, Err(e)));
                                continue;
                            }
                        }
                        done.push((i, stats));
                    }
                    (led, done)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a traced worker panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut ledger = Ledger::default();
    let mut stats: Vec<Result<SimStats, String>> =
        (0..jobs.len()).map(|_| Err("not run".into())).collect();
    for (led, done) in per_worker {
        ledger.merge(led);
        for (i, s) in done {
            stats[i] = s;
        }
    }
    TracedRun {
        stats,
        ledger,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtclust_core::{run_point, Configuration, EvalDriver};
    use virtclust_workloads::{spec2000_points, TracePoint};

    fn point(name: &str) -> TracePoint {
        spec2000_points()
            .into_iter()
            .find(|p| p.name == name)
            .expect("suite point")
    }

    #[test]
    fn a_point_job_through_the_traced_path_equals_run_point() {
        let machine = MachineConfig::paper_2cluster();
        let mut worker = TracedWorker::new(&machine);
        let mut led = Ledger::default();
        for config in Configuration::table3() {
            for name in ["gzip-1", "mcf"] {
                let job = EvalJob::Point {
                    point: point(name),
                    config,
                    uops: 3_000,
                };
                let traced = worker.run(&job, &mut led).unwrap();
                assert_eq!(traced, run_point(&point(name), &config, &machine, 3_000));
            }
        }
        assert_eq!(led.get("job").n, 10);
        assert_eq!(led.get("workloads.expand").n, led.get("sim.run").n);
        assert!(led.get("steer.calls.VC2").n >= led.get("steer.uops.VC2").n);
    }

    #[test]
    fn the_policy_wrapper_leaves_purity_stats_and_skip_diag_identical() {
        let machine = MachineConfig::paper_2cluster();
        let p = point("mcf");
        let limits = RunLimits::uops(4_000);
        for config in [Configuration::Op, Configuration::Ob] {
            let mut program = p.build_program();
            config
                .software_pass(machine.num_clusters as u32)
                .apply(&mut program, &machine.latencies);
            let mut session = SimSession::new(&machine);

            let mut plain = config.make_policy();
            let plain_pure = plain.steer_is_pure();
            let want =
                session.simulate(&machine, &mut p.expander(&program), plain.as_mut(), &limits);
            let want_diag = format!("{:?}", session.skip_diag());

            let mut inner = config.make_policy();
            let mut counted = CountedPolicy::new(inner.as_mut());
            assert_eq!(counted.steer_is_pure(), plain_pure, "{config:?}");
            let mut expander = p.expander(&program);
            let mut timed = TimedSource::new(&mut expander);
            let got = session.simulate(&machine, &mut timed, &mut counted, &limits);
            assert_eq!(got, want, "{config:?}");
            assert_eq!(
                format!("{:?}", session.skip_diag()),
                want_diag,
                "{config:?}"
            );
            assert!(counted.calls >= got.committed_uops, "{config:?}");
            assert!(timed.pulled >= got.committed_uops, "{config:?}");
        }
    }

    #[test]
    fn a_traced_drain_equals_the_engine_drain() {
        let machine = MachineConfig::paper_2cluster();
        let jobs: Vec<EvalJob> = ["gzip-1", "galgel", "swim"]
            .into_iter()
            .flat_map(|name| {
                Configuration::table3().map(|config| EvalJob::Point {
                    point: point(name),
                    config,
                    uops: 1_500,
                })
            })
            .collect();
        let traced = traced_run(&machine, &jobs, 2);
        let engine = EvalDriver::new(&machine).threads(2).run(&jobs);
        for (t, e) in traced.stats.iter().zip(&engine) {
            assert_eq!(t.as_ref().unwrap(), e.stats.as_ref().unwrap());
        }
        assert_eq!(traced.ledger.get("svc.frame").n, jobs.len() as u64);
        assert_eq!(traced.ledger.get("compiler.pass.RHOP").n, 3);
    }
}
