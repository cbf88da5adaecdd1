//! # vcbench
//!
//! The virtclust benchmark: three workloads that exercise the evaluation
//! service, the batch engine and the simulator underneath them, measured
//! end to end and, in a separate traced run, layer by layer. See
//! `README.md` beside this package for how to run it and what each
//! metric means.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod layers;
pub mod plan;
pub mod report;
pub mod run;
pub mod service;
pub mod stats;
