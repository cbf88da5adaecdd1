//! # virtclust-core
//!
//! The experiment driver for the reproduction of *"A Software-Hardware
//! Hybrid Steering Mechanism for Clustered Microarchitectures"*
//! (Cai et al., IPDPS 2008): the five steering configurations of the
//! paper's Table 3, a batched evaluation engine ([`batch::EvalDriver`])
//! that drains heterogeneous job queues over reusable per-worker
//! simulation sessions, the parallel matrix runner built on it, the
//! paper's metrics (slowdown vs the `OP` baseline, copy reduction,
//! workload-balance improvement), and generators for every figure in the
//! evaluation (Figs. 5, 6, 7).
//!
//! Quick start:
//!
//! ```
//! use virtclust_core::{run_point, Configuration};
//! use virtclust_uarch::MachineConfig;
//! use virtclust_workloads::spec2000_points;
//!
//! let point = &spec2000_points()[0]; // gzip-1
//! let machine = MachineConfig::paper_2cluster();
//! let op = run_point(point, &Configuration::Op, &machine, 5_000);
//! let vc = run_point(point, &Configuration::Vc { num_vcs: 2 }, &machine, 5_000);
//! assert_eq!(op.committed_uops, vc.committed_uops);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod compile;
pub mod experiment;
pub mod fault;
pub mod figures;
pub mod metrics;
pub mod replay;
pub mod runner;

pub use batch::{
    BatchMetrics, BatchReport, CellOutcome, EvalDriver, EvalJob, JobDone, JobError, JobMetrics,
    JobSource, JobTally, ResilientOptions, SourcedJob,
};
pub use experiment::{run_point, run_point_on, Configuration};
pub use figures::{fig5, fig6, fig7, Fig5Data, Fig6Data, Fig7Data};
pub use metrics::{slowdown_pct, suite_weighted_average, PointOutcome};
pub use replay::{record_point, replay_compare, replay_trace, replay_trace_observed};
pub use runner::{run_matrix, EvalMatrix};
pub use virtclust_sim::{CancelToken, StopCause};
