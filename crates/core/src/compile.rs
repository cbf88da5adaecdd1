//! Simulate once per point or trace key: the drain-wide table of finished
//! suite-point and stored-trace results.
//!
//! In the paper the software half of every steering scheme is a
//! compile-time pass that runs once per program (Fig. 2: critical paths,
//! then the DDG partition into virtual clusters, then chain leaders). Here
//! every job that simulates runs its pass through [`run_pass`], the one
//! compile step; a batch or a service drain runs the same jobs many times,
//! so [`EvalDriver::drain_source`](crate::EvalDriver::drain_source) gives
//! its workers one [`ResultTable`], which answers a repeated job without
//! compiling or simulating it again.
//!
//! Suite-point and stored-trace jobs are deterministic, so the table keeps
//! the [`SimStats`] of every such run that finished with no error and no
//! stop cause, keyed by [`RunKey`]. A point key is everything
//! `build_program` reads (name, `program_seed` and `params`), the
//! expander's `trace_seed`, the configuration and the micro-op budget. A
//! trace key is the identity of the file the simulating job had open
//! ([`FileId`]: device, inode, length and modification time), the
//! configuration and the [`RunLimits`]. The machine is the drain's. A
//! later job of the same key skips everything up to and including the
//! simulation: program build, pass and expansion for a point; open, pass
//! and decode for a trace. A miss runs its uncached reference on the
//! worker's session: [`run_point_on`](crate::run_point_on) for a point,
//! the body of [`replay_trace`](crate::replay_trace) for a trace. The
//! worker looks a key up only after the `job.run` failpoint fired and the
//! job's interrupts were armed, so cancellation before start, chaos
//! schedules and retries see the same sequence on a hit as on a miss.
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
//! point results, as a stream of unique points already does. The lock is
//! never held while compiling or simulating: two workers that miss the
//! same key may both simulate it, and the first insert wins.

use std::collections::HashMap;
use std::fs::Metadata;
use std::hash::{Hash, Hasher};
use std::os::unix::fs::MetadataExt;
use std::sync::{Mutex, MutexGuard, PoisonError};

use virtclust_sim::{RunLimits, SimStats};
use virtclust_trace::TraceError;
use virtclust_uarch::{MachineConfig, Program};
use virtclust_workloads::{KernelParams, TracePoint};

use crate::experiment::Configuration;

/// Most finished results one drain's table holds before it clears. Point
/// and trace keys share it. The suite × Table 3 at one budget is 200
/// point keys, and the four committed traces under Table 3
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
/// [`run_point_on`](crate::run_point_on), replay and kernel jobs share.
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
    /// a directory, a socket, a device) is the permanent error of
    /// [`require_regular_file`](virtclust_trace::require_regular_file), so
    /// a caller that checks a path first never blocks in `open` on a FIFO.
    pub(crate) fn of(meta: &Metadata) -> Result<Self, TraceError> {
        virtclust_trace::require_regular_file(meta)?;
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
/// A trace key is the file the simulating job had open, the
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

/// One drain's result table, shared by its workers. Allocates nothing
/// until the first insert.
#[derive(Debug, Default)]
pub(crate) struct ResultTable {
    results: Mutex<HashMap<RunKey, SimStats>>,
}

impl ResultTable {
    /// The map, recovered from a poisoned lock: every critical section is
    /// a lookup or an insert, which leaves it consistent.
    fn results(&self) -> MutexGuard<'_, HashMap<RunKey, SimStats>> {
        self.results.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The stats of an earlier finished run of `key` in this drain.
    pub(crate) fn get(&self, key: &RunKey) -> Option<SimStats> {
        self.results().get(key).cloned()
    }

    /// Keep `stats` for `key`. The caller passes only runs that ended with
    /// no error and no stop cause: a cut-short run must not answer later
    /// jobs.
    pub(crate) fn keep(&self, key: RunKey, stats: &SimStats) {
        let stats = stats.clone();
        let mut results = self.results();
        if results.len() >= MAX_RESULTS {
            results.clear();
        }
        results.entry(key).or_insert(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtclust_workloads::spec2000_points;

    #[test]
    fn result_table_never_exceeds_its_cap() {
        let table = ResultTable::default();
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
            table.keep(key.clone(), &stats);
            assert!(table.results().len() <= MAX_RESULTS, "{uops}");
            assert_eq!(table.get(&key), Some(stats), "the newest key is kept");
        }
    }
}
