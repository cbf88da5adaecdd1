//! # virtclust-trace
//!
//! Dynamic micro-op traces as first-class, serializable artifacts.
//!
//! The paper's hardware side "executes traces of IA32 binaries" (Sec. 5.1);
//! until this crate, every experiment regenerated its synthetic stream
//! in-process and nothing could be persisted, diffed, imported or replayed.
//! This crate adds a **versioned, self-describing on-disk format** with two
//! interchangeable codecs and the plumbing around it:
//!
//! * **format** — a trace file carries the static
//!   [`Program`](virtclust_uarch::Program) (regions, instructions, steering
//!   hints) once, followed by the dynamic stream as pure dynamic facts
//!   (`seq`, instruction id, memory address, branch outcome). Static
//!   metadata is *never* duplicated per record: it is
//!   re-derived from the embedded program on read through
//!   [`StaticInst::instantiate`](virtclust_uarch::StaticInst::instantiate),
//!   the single source of truth — which is precisely what lets one stored
//!   stream be replayed under every steering scheme (clear the hints, run a
//!   different compiler pass, stream the same dynamic facts);
//! * **codecs** — [`Codec::Text`] is line-oriented, human-readable and
//!   diffable (author a trace in an editor, review one in a PR);
//!   [`Codec::Binary`] is a varint-packed form roughly 4× smaller for
//!   multi-million-uop captures. Readers auto-detect the codec;
//! * **streaming** — [`TraceWriter`] appends record by record and
//!   [`TraceReader`] materialises one [`DynUop`](virtclust_uarch::DynUop)
//!   at a time (and implements
//!   [`TraceSource`](virtclust_uarch::TraceSource), so it plugs straight
//!   into the simulator); traces never need to be memory-resident, and a
//!   reader [`rewinds`](TraceReader::rewind) to the first record without
//!   re-parsing, so one parsed trace feeds many simulations;
//! * **capture** — [`capture::record_stream`] /
//!   [`capture::capture_to_file`] record any live `TraceSource` (such as
//!   the synthetic workload expander);
//! * **import** — [`import::parse_kernel`] reads a one-uop-per-line textual
//!   kernel, so externally authored programs enter the pipeline without
//!   touching the generator.
//!
//! ```
//! use virtclust_trace::{capture, Codec, TraceReader, TraceWriter};
//! use virtclust_uarch::{ArchReg, RegionBuilder, Program, VecTrace};
//!
//! // A toy program and its dynamic stream.
//! let r = ArchReg::int;
//! let mut program = Program::new("toy");
//! program.add_region(
//!     RegionBuilder::new(0, "loop").alu(r(1), &[r(1), r(2)]).branch(r(1)).build(),
//! );
//! let mut uops = Vec::new();
//! virtclust_uarch::trace::expand_region(
//!     &program.regions[0], 0, &mut uops, |_, _| 0, |s, _| s % 4 != 3,
//! );
//!
//! // Write it as text, read it back, get the identical stream.
//! let mut buf = Vec::new();
//! let mut w = TraceWriter::new(&mut buf, &program, Codec::Text, None).unwrap();
//! for u in &uops { w.write_uop(u).unwrap(); }
//! w.finish().unwrap();
//! let mut reader = TraceReader::new(std::io::Cursor::new(&buf)).unwrap();
//! assert_eq!(reader.read_all().unwrap(), uops);
//! // Seekable sources rewind without re-parsing the embedded program.
//! reader.rewind().unwrap();
//! assert_eq!(reader.read_all().unwrap(), uops);
//!
//! // Capture helpers record any live TraceSource with a budget.
//! let mut live = VecTrace::new(uops.clone());
//! let mut w = TraceWriter::new(Vec::new(), &program, Codec::Binary, None).unwrap();
//! assert_eq!(capture::record_stream(&mut live, 1, &mut w).unwrap(), 1);
//! ```
//!
//! The replay pipeline that feeds stored traces through the experiment
//! driver (record a SPEC-like point once, replay it under OB / RHOP / OP /
//! VC) lives in `virtclust-core::replay`, on top of this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod capture;
pub mod error;
pub mod frame;
pub mod import;
pub mod reader;
pub mod record;
pub mod text;
pub mod writer;

pub use capture::{capture_to_file, record_stream};
pub use error::{Result, TraceError};
pub use import::{import_kernel_file, parse_kernel};
pub use reader::TraceReader;
pub use record::{default_branch_pc, RawRecord};
pub use writer::TraceWriter;

/// Version of the on-disk format this build reads and writes. Bumped on any
/// incompatible grammar or layout change; readers reject other versions
/// with [`TraceError::Unsupported`].
pub const FORMAT_VERSION: u32 = 1;

/// The two interchangeable encodings of the same format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Codec {
    /// Line-oriented human-readable form — authorable, diffable, greppable.
    #[default]
    Text,
    /// Varint-packed compact form for large captures (~4× smaller).
    Binary,
}

impl Codec {
    /// Conventional file extension (`vct` / `vctb`).
    pub fn extension(self) -> &'static str {
        match self {
            Codec::Text => "vct",
            Codec::Binary => "vctb",
        }
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Codec::Text => write!(f, "text"),
            Codec::Binary => write!(f, "binary"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_metadata() {
        assert_eq!(Codec::Text.extension(), "vct");
        assert_eq!(Codec::Binary.extension(), "vctb");
        assert_eq!(Codec::Text.to_string(), "text");
        assert_eq!(Codec::default(), Codec::Text);
    }
}
