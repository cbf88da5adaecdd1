//! Compile once per key, simulate once per point key: the drain-wide
//! cache of compiler-pass hints and finished suite-point results.
//!
//! In the paper the software half of every steering scheme is a
//! compile-time pass that runs once per program (Fig. 2: critical paths,
//! then the DDG partition into virtual clusters, then chain leaders). A
//! batch or a service drain runs the same (program, scheme) pair many
//! times, so [`EvalDriver::drain_source`](crate::EvalDriver::drain_source)
//! gives its workers one [`CompileCache`]: the first job of a key runs the
//! pass, and every later job in the drain reuses what it produced.
//!
//! The cache stores only what a pass produces — one [`SteerHint`] per
//! static instruction (2 bytes, against 12 for a `StaticInst`) — plus one
//! hint-free [`Program`] per suite point, so `build_program` runs once
//! too. Every job, hit or miss, runs its hint-free program with the cached
//! hints written in; a miss only computes the hints, through [`run_pass`],
//! the function [`run_point_on`](crate::run_point_on) and replay use. So
//! if a pass ever wrote anything but hints, every cached run would diverge
//! from `run_point`, not only the hits.
//!
//! A key covers every input of its value within one drain, whose machine
//! is fixed: a suite point by everything `build_program` reads (name,
//! `program_seed` and `params`, compared in full), a kernel or trace by
//! its hint-free content (hashed once with the std hasher, since those
//! programs come from client-named files, and compared in full), and the
//! [`Configuration`]. Configurations without a pass store no hints. The
//! lock is never held while compiling: two workers that miss the same key
//! may both compile it, and the first insert wins.
//!
//! # Finished point results
//!
//! A suite-point job is deterministic too, so the cache also keeps the
//! [`SimStats`] of every point run that finished with no error and no
//! stop cause, keyed by [`RunKey`]: the point key above, the expander's
//! `trace_seed`, the configuration and the micro-op budget. A later job
//! of the same key skips program build, pass, expansion, session reset
//! and simulation. The worker looks the key up only after the `job.run`
//! failpoint fired and the job's interrupts were armed, so cancellation
//! before start, chaos schedules and retries see the same sequence on a
//! hit as on a miss. The table has its own cap ([`MAX_RESULTS`]) and
//! clears when full, like the hint tables.
//!
//! Kernel and trace jobs are never stored: their key would be client
//! content (a content hash per job, a client program kept in memory, and
//! trace bytes the drain never hashes), while the traffic that repeats is
//! the suite matrix.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use virtclust_compiler::SoftwarePass;
use virtclust_sim::SimStats;
use virtclust_uarch::{MachineConfig, Program, SteerHint};
use virtclust_workloads::{KernelParams, TracePoint};

use crate::experiment::Configuration;

/// Most entries (point programs plus hint arrays) one drain's cache holds
/// before it clears. The suite's working set is 40 programs plus 40 × 3
/// hint arrays (OB, RHOP and one VC width): 160 entries, ~400 KiB. 256
/// leaves room for the corpus kernels and traces, or for a second VC
/// width. The largest suite program has 1 588 instructions (19 KiB, its
/// hints 3.1 KiB), so suite keys alone stay under 6 MiB. A kernel or trace
/// entry also keeps its hint-free program, which every decoder caps at
/// [`MAX_PROGRAM_INSTS`](virtclust_trace::text::MAX_PROGRAM_INSTS)
/// (16 384) instructions: about 192 KiB, plus 32 KiB of hints. The worst
/// case is 256 such entries, about 56 MiB.
const MAX_ENTRIES: usize = 256;

/// Most finished point results one drain's cache holds before that table
/// clears. The suite × Table 3 at one budget is 200 keys, and 256 leaves
/// room for a second VC width or budget on a few points. An entry is a
/// 176-byte key (the point's name, two seeds and parameters, the
/// configuration and the budget) and a 176-byte [`SimStats`], plus the
/// name and the per-cluster counters on the heap: about 0.5 KiB on a
/// 2-cluster machine with the map's spare buckets, so a full table stays
/// under 0.25 MiB.
const MAX_RESULTS: usize = 256;

/// Apply `config`'s compiler pass to `program` for `machine`: clear every
/// steering hint, then annotate. The one compile step that
/// [`run_point_on`](crate::run_point_on), replay and the cache's misses
/// share.
pub(crate) fn run_pass(program: &mut Program, config: &Configuration, machine: &MachineConfig) {
    config
        .software_pass(machine.num_clusters as u32)
        .apply(program, &machine.latencies);
}

/// A suite point by everything `build_program` reads. Hashing covers the
/// name and seed only (no formatting, no float bits); equality compares
/// the parameters too. `build_program` rejects non-finite parameters
/// before a key is ever stored, so equality is reflexive on every key.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PointKey {
    name: String,
    program_seed: u64,
    params: KernelParams,
}

impl PointKey {
    fn of(point: &TracePoint) -> Self {
        PointKey {
            name: point.name.clone(),
            program_seed: point.program_seed,
            params: point.params,
        }
    }
}

impl Eq for PointKey {}

impl Hash for PointKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        self.program_seed.hash(state);
    }
}

/// Everything that fixes a point job's stats within one drain: the
/// program ([`PointKey`]), the expander's other input (`trace_seed`; its
/// parameters are in the point key), the configuration and the budget.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct RunKey {
    pub(crate) point: PointKey,
    trace_seed: u64,
    config: Configuration,
    uops: u64,
}

impl RunKey {
    pub(crate) fn of(point: &TracePoint, config: &Configuration, uops: u64) -> Self {
        RunKey {
            point: PointKey::of(point),
            trace_seed: point.trace_seed,
            config: *config,
            uops,
        }
    }
}

/// What a pass ran over: a suite point, or a kernel or trace program by
/// its hint-free content.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Source {
    Point(PointKey),
    Program(ContentKey),
}

impl Source {
    /// The key of a hint-free kernel or trace program whose
    /// [`content_hash`](CompileCache::content_hash) is `hash`.
    pub(crate) fn program(hash: u64, program: Arc<Program>) -> Self {
        Source::Program(ContentKey { hash, program })
    }
}

/// A hint-free program and its content hash, taken once by
/// [`CompileCache::content_hash`]. The map hashes only that `u64`;
/// equality compares the programs in full (`Arc`'s `==` tries the pointer
/// first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ContentKey {
    hash: u64,
    program: Arc<Program>,
}

impl Hash for ContentKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

#[derive(Debug, Default)]
struct Tables {
    programs: HashMap<PointKey, Arc<Program>>,
    hints: HashMap<(Source, Configuration), Arc<[SteerHint]>>,
    results: HashMap<RunKey, SimStats>,
}

impl Tables {
    /// Make room for one more entry: past [`MAX_ENTRIES`], start over.
    fn reserve_one(&mut self) {
        if self.programs.len() + self.hints.len() >= MAX_ENTRIES {
            self.programs.clear();
            self.hints.clear();
        }
    }
}

/// One drain's compile cache, shared by its workers. Allocates nothing
/// until the first insert.
#[derive(Debug, Default)]
pub(crate) struct CompileCache {
    content: RandomState,
    tables: Mutex<Tables>,
}

impl CompileCache {
    /// The tables, recovered from a poisoned lock: every critical section
    /// is a lookup or an insert, which leaves the maps consistent.
    fn tables(&self) -> MutexGuard<'_, Tables> {
        self.tables.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The content key of a hint-free kernel or trace program. Hashing a
    /// whole program costs most of an OB pass (61 µs against 85 µs for
    /// gzip-1's 394 instructions on a 2-core Xeon; `==` takes 4 µs), so
    /// callers take it only for configurations with a pass, at most once
    /// per job.
    pub(crate) fn content_hash(&self, program: &Program) -> u64 {
        self.content.hash_one(program)
    }

    /// The stats of an earlier finished run of `key` in this drain.
    pub(crate) fn result(&self, key: &RunKey) -> Option<SimStats> {
        self.tables().results.get(key).cloned()
    }

    /// Keep `stats` for `key`. The caller passes only runs that ended with
    /// no error and no stop cause: a cut-short run must not answer later
    /// jobs.
    pub(crate) fn keep_result(&self, key: RunKey, stats: &SimStats) {
        let stats = stats.clone();
        let mut tables = self.tables();
        if tables.results.len() >= MAX_RESULTS {
            tables.results.clear();
        }
        tables.results.entry(key).or_insert(stats);
    }

    /// `point`'s hint-free program, built once per drain.
    pub(crate) fn point_program(&self, key: &PointKey, point: &TracePoint) -> Arc<Program> {
        if let Some(program) = self.tables().programs.get(key) {
            return Arc::clone(program);
        }
        let mut program = point.build_program();
        // `build_program` grows its regions by pushing; a resident copy
        // should not keep up to half of each as spare capacity.
        for region in &mut program.regions {
            region.insts.shrink_to_fit();
        }
        let program = Arc::new(program);
        let mut tables = self.tables();
        tables.reserve_one();
        Arc::clone(tables.programs.entry(key.clone()).or_insert(program))
    }

    /// `base`, a hint-free program, annotated for `config`: `base` itself
    /// when the configuration has no pass, otherwise a copy carrying the
    /// hints cached under (`source()`, `config`), which the first miss
    /// computes.
    pub(crate) fn annotate<'p>(
        &self,
        source: impl FnOnce() -> Source,
        base: &'p Program,
        config: &Configuration,
        machine: &MachineConfig,
    ) -> Cow<'p, Program> {
        if matches!(
            config.software_pass(machine.num_clusters as u32),
            SoftwarePass::None
        ) {
            return Cow::Borrowed(base);
        }
        let key = (source(), *config);
        let cached = self.tables().hints.get(&key).map(Arc::clone);
        let hints = cached.unwrap_or_else(|| {
            let mut annotated = base.clone();
            run_pass(&mut annotated, config, machine);
            let hints: Arc<[SteerHint]> = annotated
                .regions
                .iter()
                .flat_map(|r| r.insts.iter().map(|i| i.hint))
                .collect();
            let mut tables = self.tables();
            tables.reserve_one();
            Arc::clone(tables.hints.entry(key).or_insert(hints))
        });
        let mut program = base.clone();
        debug_assert_eq!(hints.len(), program.static_len());
        let insts = program.regions.iter_mut().flat_map(|r| r.insts.iter_mut());
        for (inst, &hint) in insts.zip(hints.iter()) {
            inst.hint = hint;
        }
        Cow::Owned(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtclust_workloads::spec2000_points;

    #[test]
    fn result_table_never_exceeds_its_cap() {
        let cache = CompileCache::default();
        let point = &spec2000_points()[0];
        for uops in 0..3 * MAX_RESULTS as u64 {
            let key = RunKey::of(point, &Configuration::Op, uops);
            let stats = SimStats {
                committed_uops: uops,
                ..SimStats::default()
            };
            cache.keep_result(key.clone(), &stats);
            assert!(cache.tables().results.len() <= MAX_RESULTS, "{uops}");
            assert_eq!(cache.result(&key), Some(stats), "the newest key is kept");
        }
    }
}
