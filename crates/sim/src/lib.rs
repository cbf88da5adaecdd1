//! # virtclust-sim
//!
//! A cycle-level, trace-driven simulator of the clustered x86-like
//! out-of-order microarchitecture of *"A Software-Hardware Hybrid Steering
//! Mechanism for Clustered Microarchitectures"* (Cai et al., IPDPS 2008).
//!
//! The machine (paper Fig. 1 / Table 2): a **monolithic front-end** (24 K-uop
//! trace cache, 6-wide fetch, 5-cycle fetch-to-dispatch, 3+3-wide
//! decode/rename/steer) feeding a **clustered back-end** — per cluster a
//! 48-entry INT issue queue (2 issues/cycle), 48-entry FP queue (2/cycle),
//! 24-entry COPY queue (1/cycle) and 256+256-entry register files — over a
//! **unified memory subsystem** (256-entry LSQ, 32 KB L1D, 2 MB L2). Values
//! consumed in a cluster other than their producer's require an explicit
//! copy micro-op across a 1-cycle point-to-point link.
//!
//! Steering is pluggable via [`SteeringPolicy`]; the simulator invokes the
//! policy per micro-op in program order with each decision's effects applied
//! before the next call, so dependence-based policies naturally get the
//! paper's *sequential* steering semantics, and the stale bundle-entry
//! snapshot ([`SteerView::location_stale`]) is available to model the
//! cheaper *parallel* steering of Sec. 2.1.
//!
//! [`SimSession`] is the one way to run the machine: `SimSession::new(cfg)`
//! then [`SimSession::run`] for a one-off run, or one session and
//! [`SimSession::simulate`] per run to reuse its allocations across a batch
//! (bit-identical either way); [`SimSession::step`] single-steps.
//!
//! ```
//! use virtclust_sim::{RunLimits, SimSession, SteerDecision, SteerView, SteeringPolicy};
//! use virtclust_uarch::{ArchReg, DynUop, MachineConfig, RegionBuilder, SliceTrace};
//!
//! struct Everything0;
//! impl SteeringPolicy for Everything0 {
//!     fn name(&self) -> String { "one-cluster".into() }
//!     fn steer(&mut self, _u: &DynUop, _v: &SteerView<'_>) -> SteerDecision {
//!         SteerDecision::Cluster(0)
//!     }
//! }
//!
//! let r = ArchReg::int;
//! let region = RegionBuilder::new(0, "demo").alu(r(1), &[r(1), r(2)]).build();
//! let mut uops = Vec::new();
//! virtclust_uarch::trace::expand_region(&region, 0, &mut uops, |_, _| 0, |_, _| true);
//! let mut trace = SliceTrace::new(&uops);
//! let stats = SimSession::new(&MachineConfig::default())
//!     .run(&mut trace, &mut Everything0, &RunLimits::unlimited());
//! assert_eq!(stats.committed_uops, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cancel;
pub mod lsq;
pub mod predictor;
pub mod queues;
pub mod session;
pub mod stats;
pub mod steering;
pub mod value;

pub use cache::{Cache, LoadPath, MemorySystem};
pub use cancel::{CancelToken, StopCause};
pub use lsq::{LoadCheck, Lsq};
pub use predictor::{LocalHistory, TraceCache};
pub use queues::{CopyOp, CopySlab, IssueQueue, LinkArbiter};
pub use session::{RunLimits, SimSession, SkipDiag};
pub use stats::{ClusterStats, IdleCycleKind, SimStats, StallReason};
pub use steering::{SteerDecision, SteerSummary, SteerView, SteeringPolicy};
pub use value::{
    all_clusters, cluster_bit, ClusterMask, RenameTable, ValueTag, ValueTracker, Waiter,
};
