//! Compile once per key, simulate once per point or trace key: the
//! drain-wide cache of finished suite-point and stored-trace results and
//! of compiler-pass hints for kernel and trace programs.
//!
//! In the paper the software half of every steering scheme is a
//! compile-time pass that runs once per program (Fig. 2: critical paths,
//! then the DDG partition into virtual clusters, then chain leaders). A
//! batch or a service drain runs the same jobs many times, so
//! [`EvalDriver::drain_source`](crate::EvalDriver::drain_source) gives its
//! workers one [`CompileCache`] with two tables.
//!
//! # Finished results
//!
//! Suite-point and stored-trace jobs are deterministic, so the cache keeps
//! the [`SimStats`] of every such run that finished with no error and no
//! stop cause, keyed by [`RunKey`]. A point key is everything
//! `build_program` reads (name, `program_seed` and `params`), the
//! expander's `trace_seed`, the configuration and the micro-op budget. A
//! trace key is the identity of the file the simulating reader had open
//! ([`FileId`]: device, inode, length and modification time), the
//! configuration and the [`RunLimits`]. The machine is the drain's. A
//! later job of the same key skips everything up to and including the
//! simulation: program build, pass and expansion for a point; open,
//! annotation, rewind and decode for a trace. A point miss runs
//! [`run_point_on`](crate::run_point_on) on the worker's session, the
//! uncached reference itself; a trace miss runs the `replay_trace`
//! preparation over the worker's reader. The worker looks a key up only
//! after the `job.run` failpoint fired and the job's interrupts were
//! armed, so cancellation before start, chaos schedules and retries see
//! the same sequence on a hit as on a miss.
//!
//! A trace job reads its path's identity with one `metadata` call before
//! the lookup, so a file replaced or deleted since an earlier job is never
//! answered with the old file's stats. The one change the identity cannot
//! see is an in-place rewrite that keeps the inode, the length and the
//! modification time. Kernel jobs are never stored: their key would be a
//! client program kept in memory, and the service's clients draw each
//! kernel job's expansion seed anew, so such keys would rarely repeat and
//! would only churn the table.
//!
//! Point and trace keys share one table and its cap ([`MAX_RESULTS`]);
//! the table clears when full. So a stream of unique traces clears the
//! point results, as a stream of unique points already does.
//!
//! # Kernel and trace hints
//!
//! A kernel or trace program's pass runs once per (program,
//! configuration) key. The cache stores only what a pass produces — one
//! [`SteerHint`] per static instruction (2 bytes, against 12 for a
//! `StaticInst`) — keyed by the program's hint-free content (hashed once
//! with the std hasher, since those programs come from client-named files,
//! and compared in full) and the [`Configuration`]. Every such job that
//! simulates, hit or miss, runs its hint-free program with the cached
//! hints written in; a miss only computes the hints, through [`run_pass`],
//! the function `run_point_on` and replay use. So if a pass ever wrote
//! anything but hints, every cached run would diverge from
//! `replay_trace`, not only the hits. Configurations without a pass store
//! no hints. The lock is never held while compiling or simulating: two
//! workers that miss the same key may both compute it, and the first
//! insert wins.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fs::Metadata;
use std::hash::{BuildHasher, Hash, Hasher};
use std::io;
use std::os::unix::fs::MetadataExt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use virtclust_compiler::SoftwarePass;
use virtclust_sim::{RunLimits, SimStats};
use virtclust_trace::TraceError;
use virtclust_uarch::{MachineConfig, Program, SteerHint};
use virtclust_workloads::{KernelParams, TracePoint};

use crate::experiment::Configuration;

/// Most hint arrays one drain's cache holds before that table clears.
/// Only kernel and trace programs reach it: a suite point's repeat is
/// answered from the result table, and a miss runs its own pass. The
/// committed corpus under every scheme with a pass is a few dozen keys,
/// so 256 leaves room for many client programs. An entry also keeps its
/// hint-free program, which every decoder caps at
/// [`MAX_PROGRAM_INSTS`](virtclust_trace::text::MAX_PROGRAM_INSTS)
/// (16 384) instructions: about 192 KiB, plus 32 KiB of hints. The worst
/// case is 256 such entries, about 56 MiB.
const MAX_ENTRIES: usize = 256;

/// Most finished results one drain's cache holds before that table
/// clears. Point and trace keys share it. The suite × Table 3 at one
/// budget is 200 point keys, and the four committed traces under Table 3
/// at one budget are 20 trace keys, so 256 leaves room for a few more
/// budgets or traces before a clear; a stream of unique traces clears the
/// point results, as a stream of unique points does. An entry is a
/// 176-byte key (a point's name, two seeds and parameters, the
/// configuration and the budget; a trace key is smaller) and a 176-byte
/// [`SimStats`], plus the name and the per-cluster counters on the heap:
/// about 0.5 KiB on a 2-cluster machine with the map's spare buckets, so
/// a full table stays under 0.25 MiB.
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

/// The identity of a stored trace file: device, inode, length and
/// modification time (seconds and nanoseconds). A file replaced by
/// `rename`, rewritten to another length or touched gets a new identity;
/// an in-place rewrite that keeps all five does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct FileId {
    dev: u64,
    ino: u64,
    len: u64,
    mtime: i64,
    mtime_nsec: i64,
}

impl FileId {
    /// The identity `meta` describes. Anything but a regular file (a FIFO,
    /// a directory, a socket, a device) is a permanent error, so a caller
    /// that checks a path first never blocks in `open` on a FIFO.
    pub(crate) fn of(meta: &Metadata) -> Result<Self, TraceError> {
        if !meta.is_file() {
            return Err(TraceError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "not a regular file",
            )));
        }
        Ok(FileId {
            dev: meta.dev(),
            ino: meta.ino(),
            len: meta.len(),
            mtime: meta.mtime(),
            mtime_nsec: meta.mtime_nsec(),
        })
    }
}

/// Everything that fixes a finished run's stats within one drain.
///
/// A point key is what `build_program` reads (name, `program_seed`,
/// `params`), the expander's other input (`trace_seed`), the
/// configuration and the budget. Hashing skips the parameters (no float
/// bits); equality compares them too. `build_program` rejects non-finite
/// parameters before a key is ever stored, so equality is reflexive on
/// every stored key.
///
/// A trace key is the file the simulating reader had open, the
/// configuration and the run limits: a replay reads nothing else.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RunKey {
    Point {
        name: String,
        program_seed: u64,
        params: KernelParams,
        trace_seed: u64,
        config: Configuration,
        uops: u64,
    },
    Trace {
        file: FileId,
        config: Configuration,
        limits: RunLimits,
    },
}

impl RunKey {
    pub(crate) fn point(point: &TracePoint, config: &Configuration, uops: u64) -> Self {
        RunKey::Point {
            name: point.name.clone(),
            program_seed: point.program_seed,
            params: point.params,
            trace_seed: point.trace_seed,
            config: *config,
            uops,
        }
    }

    pub(crate) fn trace(file: FileId, config: &Configuration, limits: &RunLimits) -> Self {
        RunKey::Trace {
            file,
            config: *config,
            limits: *limits,
        }
    }
}

impl Eq for RunKey {}

impl Hash for RunKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            RunKey::Point {
                name,
                program_seed,
                params: _,
                trace_seed,
                config,
                uops,
            } => {
                name.hash(state);
                program_seed.hash(state);
                trace_seed.hash(state);
                config.hash(state);
                uops.hash(state);
            }
            RunKey::Trace {
                file,
                config,
                limits,
            } => {
                file.hash(state);
                config.hash(state);
                limits.hash(state);
            }
        }
    }
}

/// A hint-free kernel or trace program and its content hash, taken once
/// by [`CompileCache::content_hash`]. The map hashes only that `u64`;
/// equality compares the programs in full (`Arc`'s `==` tries the pointer
/// first).
#[derive(Debug, Clone, PartialEq, Eq)]
struct ContentKey {
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
    hints: HashMap<(ContentKey, Configuration), Arc<[SteerHint]>>,
    results: HashMap<RunKey, SimStats>,
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

    /// The content hash of a hint-free kernel or trace program. Hashing a
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

    /// `base`, a hint-free kernel or trace program, annotated for
    /// `config`: `base` itself when the configuration has no pass,
    /// otherwise a copy carrying the hints cached under (`base`'s content,
    /// `config`), which the first miss computes. `hash` yields `base`'s
    /// [`content_hash`](CompileCache::content_hash).
    pub(crate) fn annotate<'p>(
        &self,
        hash: impl FnOnce() -> u64,
        base: &'p Arc<Program>,
        config: &Configuration,
        machine: &MachineConfig,
    ) -> Cow<'p, Program> {
        if matches!(
            config.software_pass(machine.num_clusters as u32),
            SoftwarePass::None
        ) {
            return Cow::Borrowed(base);
        }
        let key = (
            ContentKey {
                hash: hash(),
                program: Arc::clone(base),
            },
            *config,
        );
        let cached = self.tables().hints.get(&key).map(Arc::clone);
        let hints = cached.unwrap_or_else(|| {
            let mut annotated = Program::clone(base);
            run_pass(&mut annotated, config, machine);
            let hints: Arc<[SteerHint]> = annotated
                .regions
                .iter()
                .flat_map(|r| r.insts.iter().map(|i| i.hint))
                .collect();
            let mut tables = self.tables();
            if tables.hints.len() >= MAX_ENTRIES {
                tables.hints.clear();
            }
            Arc::clone(tables.hints.entry(key).or_insert(hints))
        });
        let mut program = Program::clone(base);
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
    use virtclust_uarch::{ArchReg, RegionBuilder};
    use virtclust_workloads::spec2000_points;

    #[test]
    fn result_table_never_exceeds_its_cap() {
        let cache = CompileCache::default();
        let point = &spec2000_points()[0];
        let file = FileId {
            dev: 1,
            ino: 2,
            len: 3,
            mtime: 4,
            mtime_nsec: 5,
        };
        for uops in 0..3 * MAX_RESULTS as u64 {
            // Point and trace keys take turns filling the one table.
            let key = if uops % 2 == 0 {
                RunKey::point(point, &Configuration::Op, uops)
            } else {
                RunKey::trace(file, &Configuration::Op, &RunLimits::uops(uops))
            };
            let stats = SimStats {
                committed_uops: uops,
                ..SimStats::default()
            };
            cache.keep_result(key.clone(), &stats);
            assert!(cache.tables().results.len() <= MAX_RESULTS, "{uops}");
            assert_eq!(cache.result(&key), Some(stats), "the newest key is kept");
        }
    }

    #[test]
    fn hint_table_never_exceeds_its_cap() {
        let cache = CompileCache::default();
        let machine = MachineConfig::paper_2cluster();
        let config = Configuration::Ob;
        let r = ArchReg::int;
        for i in 0..3 * MAX_ENTRIES {
            let mut program = Program::new(format!("kernel-{i}"));
            program.add_region(
                RegionBuilder::new(0, "loop")
                    .alu(r(1), &[r(1), r(2)])
                    .alu(r(2), &[r(1)])
                    .branch(r(2))
                    .build(),
            );
            let base = Arc::new(program);
            let hash = cache.content_hash(&base);
            let annotated = cache.annotate(|| hash, &base, &config, &machine);
            let mut want = Program::clone(&base);
            run_pass(&mut want, &config, &machine);
            assert_eq!(*annotated, want, "{i}");
            let tables = cache.tables();
            assert!(tables.hints.len() <= MAX_ENTRIES, "{i}");
            let key = (
                ContentKey {
                    hash,
                    program: base,
                },
                config,
            );
            assert!(tables.hints.contains_key(&key), "the newest key is kept");
        }
    }
}
