//! # virtclust-svc
//!
//! An always-on evaluation service over the batch engine: jobs arrive
//! through a Unix/TCP socket *while the worker pool drains*, instead of
//! as one pre-built `Vec` handed to
//! [`EvalDriver::run`](virtclust_core::EvalDriver::run) up front.
//!
//! The pieces, bottom-up:
//!
//! * [`wire`] — the protocol: `b"VCSV"` + version preamble, varint
//!   length-prefixed frames with forward-compatible skipping (the
//!   [`virtclust_trace::frame`] discipline), job specs as names/paths
//!   resolved server-side, and per-cell results summarised as key
//!   figures + an FNV digest of the full statistics for bit-identity
//!   verification;
//! * [`sched`] — the job queue the engine's workers pull from, and the
//!   one owner of each job's books from admission to result: three strict
//!   priority levels, round-robin across clients within a level,
//!   per-client quotas and a service-wide cap (both bounce `Busy` instead
//!   of buffering), and under one lock each job's result route and
//!   submitter's cancellation token, the running set, the service
//!   counters and the queue-wait histograms per priority, so a `Stats`
//!   snapshot adds up;
//! * [`server`] — glues them together:
//!   [`ServerBuilder`] → [`Server`] →
//!   [`serve_unix`](Server::serve_unix)/[`serve_tcp`](Server::serve_tcp);
//!   results stream back to each submitter as jobs complete. Sockets use
//!   blocking `std` I/O: an acceptor thread, and per connection a reader
//!   thread that feeds the scheduler and owns the connection's
//!   cancellation token, and a writer thread that drains a bounded outbox
//!   the workers append to;
//! * [`client`] — the blocking socket [`Client`] (`loadgen`'s side).
//!
//! Determinism carries through end to end: a job's statistics depend
//! only on its spec, so the same job set yields the same per-cell
//! results regardless of arrival order, Unix vs. TCP transport, or
//! worker count — the service integration tests and the CI smoke job
//! (`loadgen --verify`) hold the service to bit-identity against a
//! direct [`EvalDriver::run_resilient`](virtclust_core::EvalDriver::run_resilient)
//! of the same jobs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod sched;
pub mod server;
pub mod wire;

pub use client::{Client, Stream};
pub use sched::{SchedConfig, Scheduler};
pub use server::{Server, ServerBuilder, CANCELLED_BEFORE_START};
pub use wire::{
    resolve_spec, stats_digest, BusyReason, ClientMsg, JobSpec, Priority, ServerMsg, Submit,
    SvcStats, WireResult, WireStats, MAX_CLIENT_FRAME_LEN, MAX_JOB_UOPS,
};
