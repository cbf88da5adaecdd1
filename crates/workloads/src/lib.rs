//! # virtclust-workloads
//!
//! The workload substrate of the reproduction: a synthetic stand-in for
//! *SPEC CPU2000 compiled by the Intel production compiler and sliced by
//! PinPoints* (Sec. 5.1 of Cai et al., IPDPS 2008).
//!
//! Why synthetic workloads are a sound substitution:
//! every steering mechanism in the paper — hardware, software and hybrid —
//! reads only *structural* properties of the instruction stream: the shape
//! of each region's data-dependence graph (how many independent chains, how
//! long, how tangled), the INT/FP mix, memory footprint and access
//! regularity, and branch predictability. [`KernelParams`] parameterises
//! exactly those axes; [`spec`] instantiates 40 named trace points matching
//! the paper's Figure 5 list (26 SPECint points, 14 SPECfp points), each
//! with a PinPoints-style weight.
//!
//! Pipeline: [`build_program`] deterministically generates the static
//! [`virtclust_uarch::Program`] for a point → a compiler pass annotates it →
//! [`TraceExpander`] (a [`virtclust_uarch::TraceSource`]) replays regions
//! with realistic loop behaviour, memory addresses and branch outcomes.
//! Both stages are seeded, so every steering configuration sees the *same*
//! dynamic instruction stream, differing only in annotations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expand;
pub mod gen;
pub mod params;
pub mod spec;

pub use expand::TraceExpander;
pub use gen::build_program;
pub use params::{KernelParams, Suite};
pub use spec::{spec2000_points, TracePoint};
