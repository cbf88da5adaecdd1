//! Zero-dependency observability kit for the virtclust simulator.
//!
//! The simulator's end-of-run `SimStats`-shaped aggregates hide how
//! strongly behavior varies by program phase — and phase-resolved views are
//! exactly what an adaptive steering controller or an async evaluation
//! service needs. This crate supplies the plumbing without knowing anything
//! about the simulator itself:
//!
//! - [`ObsSink`]: the observer trait, generic over the delta payload so the
//!   simulator can emit full-stats deltas without this crate depending on it.
//! - [`metrics`]: log2-bucket histograms for latency/length distributions
//!   (job latency, queue wait, skip-span length).
//! - [`chrome`]: a Chrome-trace-event JSON builder whose output loads in
//!   `chrome://tracing` and Perfetto.
//!
//! The crate is `std`-only by design: it sits *below* the simulator in the
//! dependency graph, so anything here is usable from the hot path without
//! cycles or feature gates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod metrics;
pub mod sink;

pub use chrome::ChromeTrace;
pub use metrics::Log2Hist;
pub use sink::{IntervalSample, MemSink, ObsSink, Shared, SkipSpan};
