//! Streaming trace reader.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom};
use std::path::Path;

use virtclust_uarch::{DynUop, Program, RewindError, TraceSource};

use crate::error::{Result, TraceError};
use crate::import::require_regular_file;
use crate::record::RawRecord;
use crate::{binary, text, Codec};

/// Reads a trace incrementally, materialising one [`DynUop`] at a time
/// against the embedded program — a multi-million-uop trace never needs to
/// be resident in memory.
///
/// The reader implements [`TraceSource`], so a `virtclust_sim::SimSession`
/// runs it in place of the live workload expander. For replay under a
/// different steering scheme, swap the embedded program's annotations with
/// [`TraceReader::set_program`]: every subsequent record picks up the new
/// hints, because on-disk records carry only dynamic facts.
///
/// The byte source must be seekable ([`Seek`]) so the reader can
/// [`TraceReader::rewind`] to the first record without reopening the file
/// or re-parsing the header and embedded program, and one parsed trace can
/// feed many simulations. In-memory sources wrap their bytes in
/// [`std::io::Cursor`].
pub struct TraceReader<R: BufRead> {
    r: R,
    codec: Codec,
    program: Program,
    declared: Option<u64>,
    line_no: u64,
    read: u64,
    last_seq: Option<u64>,
    done: bool,
    pending_err: Option<TraceError>,
    /// The text codec's current line, one buffer for the whole stream.
    line: String,
    /// Byte offset of the first dynamic record (the rewind target) and the
    /// text line number at that offset.
    data_start: u64,
    data_line: u64,
}

impl TraceReader<BufReader<File>> {
    /// Open a trace file, auto-detecting the codec from its first bytes.
    /// The path must name a regular file ([`require_regular_file`]),
    /// checked before the `open`, which would block on a FIFO with no
    /// writer.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        require_regular_file(&std::fs::metadata(path)?)?;
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl<R: BufRead + Seek> TraceReader<R> {
    /// Wrap an arbitrary buffered, seekable byte source; parses the header
    /// and the embedded program eagerly, leaving the cursor at the first
    /// record.
    pub fn new(mut r: R) -> Result<Self> {
        // Codec sniffing must work with a single buffered byte (the
        // `BufRead` contract only guarantees a non-empty `fill_buf` before
        // EOF). One byte is enough: a binary trace starts with `V`
        // (`VCTB`), while a text trace can only open with the lowercase
        // `virtclust-trace` header, whitespace or a `#` comment. Anything
        // else routed to the binary path still fails cleanly on the full
        // magic check in `read_header`.
        let codec = if r.fill_buf()?.first() == Some(&binary::BINARY_MAGIC[0]) {
            Codec::Binary
        } else {
            Codec::Text
        };
        let mut line_no = 0u64;
        let (program, declared) = match codec {
            Codec::Binary => {
                let (section, declared) = binary::read_header(&mut r)?;
                let lines = section.lines().enumerate().map(|(i, l)| (i as u64 + 1, l));
                (text::parse_program_section(lines, false)?, declared)
            }
            Codec::Text => {
                // The header and program section are buffered before they
                // are parsed: read them through a window of the
                // program-text bound, so an endless section ends there.
                let mut head = (&mut r).take(text::MAX_PROGRAM_BYTES);
                let end_of_head = |left: u64, what: &str| {
                    if left == 0 {
                        text::program_text_too_large()
                    } else {
                        TraceError::Corrupt(what.into())
                    }
                };
                // Header line (leading blanks/comments tolerated for
                // hand-edited files).
                let mut line = String::new();
                loop {
                    if !read_text_line(&mut head, &mut line_no, &mut line)? {
                        return Err(end_of_head(
                            head.limit(),
                            "empty input where a trace was expected",
                        ));
                    }
                    let trimmed = line.trim();
                    if trimmed.is_empty() || trimmed.starts_with('#') {
                        continue;
                    }
                    text::parse_header(line_no, trimmed)?;
                    break;
                }
                // Program section, up to the `dyn` marker.
                let mut declared = None;
                let mut section: Vec<(u64, String)> = Vec::new();
                loop {
                    if !read_text_line(&mut head, &mut line_no, &mut line)? {
                        return Err(end_of_head(
                            head.limit(),
                            "trace ends before its `dyn` section",
                        ));
                    }
                    let trimmed = line.trim();
                    if trimmed == "dyn" {
                        break;
                    }
                    if let Some(n) = trimmed.strip_prefix("count ") {
                        declared = Some(n.trim().parse().map_err(|_| {
                            TraceError::parse(line_no, format!("bad declared count `{n}`"))
                        })?);
                        continue;
                    }
                    section.push((line_no, std::mem::take(&mut line)));
                }
                let lines = section.iter().map(|(n, l)| (*n, l.as_str()));
                (text::parse_program_section(lines, false)?, declared)
            }
        };
        let data_start = r.stream_position()?;
        Ok(TraceReader {
            r,
            codec,
            program,
            declared,
            line_no,
            read: 0,
            last_seq: None,
            done: false,
            pending_err: None,
            line: String::new(),
            data_start,
            data_line: line_no,
        })
    }

    /// Seek back to the first dynamic record, clearing end-of-stream and
    /// error state, so the same stream can be traversed again. The header
    /// and the embedded program are **not** re-parsed; a replacement
    /// program installed via [`TraceReader::set_program`] stays in effect —
    /// which is exactly what per-configuration replay over one parsed
    /// trace needs (swap hints, rewind, simulate).
    pub fn rewind(&mut self) -> Result<()> {
        self.r.seek(SeekFrom::Start(self.data_start))?;
        self.line_no = self.data_line;
        self.read = 0;
        self.last_seq = None;
        self.done = false;
        self.pending_err = None;
        Ok(())
    }
}

impl<R: BufRead> TraceReader<R> {
    /// The program embedded in the trace (as currently set).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The codec the file was written with.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Replace the embedded program — the replay hook. `program` must have
    /// the same *shape* as the embedded one (same regions, same ops, same
    /// operands); only the steering hints may differ, which is exactly what
    /// re-running a compiler pass produces. Subsequent records materialise
    /// against the new program.
    pub fn set_program(&mut self, program: Program) -> Result<()> {
        let same_shape = program.regions.len() == self.program.regions.len()
            && program
                .regions
                .iter()
                .zip(&self.program.regions)
                .all(|(a, b)| {
                    a.insts.len() == b.insts.len()
                        && a.insts
                            .iter()
                            .zip(&b.insts)
                            .all(|(x, y)| x.op == y.op && x.srcs == y.srcs && x.dst == y.dst)
                });
        if !same_shape {
            return Err(TraceError::Inconsistent(
                "replacement program differs from the embedded one beyond steering hints".into(),
            ));
        }
        self.program = program;
        Ok(())
    }

    /// Produce the next micro-op, or `None` after the footer.
    pub fn next_record(&mut self) -> Result<Option<DynUop>> {
        if self.done {
            return Ok(None);
        }
        loop {
            let item: Option<RawRecord> = match self.codec {
                Codec::Binary => match binary::read_item(&mut self.r)? {
                    binary::BinItem::Uop(rec) => Some(rec),
                    binary::BinItem::End(count) => {
                        self.check_footer(count)?;
                        None
                    }
                },
                Codec::Text => {
                    if !read_text_line(&mut self.r, &mut self.line_no, &mut self.line)? {
                        return Err(TraceError::Corrupt(
                            "trace ends without an `end` footer".into(),
                        ));
                    }
                    match text::parse_dyn_line(self.line_no, &self.line)? {
                        None => continue,
                        Some(text::TextItem::Uop(rec)) => Some(rec),
                        Some(text::TextItem::End(count)) => {
                            self.check_footer(count)?;
                            None
                        }
                    }
                }
            };
            let Some(rec) = item else {
                self.done = true;
                return Ok(None);
            };
            if let Some(last) = self.last_seq {
                if rec.seq <= last {
                    return Err(TraceError::Corrupt(format!(
                        "sequence numbers must increase strictly: {} after {last}",
                        rec.seq
                    )));
                }
            }
            self.last_seq = Some(rec.seq);
            let uop = rec.materialize(&self.program)?;
            self.read += 1;
            return Ok(Some(uop));
        }
    }

    fn check_footer(&self, count: u64) -> Result<()> {
        if count != self.read {
            return Err(TraceError::Corrupt(format!(
                "footer says {count} records but {} were read",
                self.read
            )));
        }
        Ok(())
    }

    /// Read the remaining records into memory.
    pub fn read_all(&mut self) -> Result<Vec<DynUop>> {
        let mut out = Vec::new();
        while let Some(u) = self.next_record()? {
            out.push(u);
        }
        Ok(out)
    }

    /// The first error [`TraceSource::next_uop`] swallowed, if any. Callers
    /// that drive the reader through the `TraceSource` trait (where errors
    /// cannot propagate) must check this after the run.
    pub fn take_error(&mut self) -> Option<TraceError> {
        self.pending_err.take()
    }
}

impl<R: BufRead + Seek> TraceSource for TraceReader<R> {
    fn next_uop(&mut self) -> Option<DynUop> {
        if self.pending_err.is_some() {
            return None;
        }
        match self.next_record() {
            Ok(u) => u,
            Err(e) => {
                self.pending_err = Some(e);
                None
            }
        }
    }

    fn len_hint(&self) -> Option<u64> {
        self.declared
    }

    /// Mirrors `TraceExpander::region_uops` exactly (program region length,
    /// 64 for unknown regions) so a replayed trace drives the front-end's
    /// trace-cache model identically to the live run.
    fn region_uops(&self, region: u32) -> usize {
        self.program
            .regions
            .get(region as usize)
            .map_or(64, |r| r.len())
    }

    fn source_kind(&self) -> &'static str {
        "TraceReader"
    }

    fn rewind(&mut self) -> std::result::Result<(), RewindError> {
        // A reader *is* rewindable; an error here is a failed attempt, not
        // a refusal, and it carries the trace error's own transience
        // classification (an interrupted seek is retryable, a corrupt
        // header is not).
        TraceReader::rewind(self).map_err(|e| RewindError::failed(e.to_string(), e.is_transient()))
    }
}

/// Read the next line into `line`, replacing what it held; `Ok(false)` at
/// the end of the input.
fn read_text_line<R: BufRead>(r: &mut R, line_no: &mut u64, line: &mut String) -> Result<bool> {
    line.clear();
    if r.read_line(line)? == 0 {
        return Ok(false);
    }
    *line_no += 1;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use virtclust_uarch::{ArchReg, InstId, RegionBuilder, SteerHint};

    fn demo_program() -> Program {
        let r = ArchReg::int;
        let mut p = Program::new("demo");
        p.add_region(
            RegionBuilder::new(0, "body")
                .alu(r(1), &[r(1), r(2)])
                .load(r(3), r(1))
                .store(r(1), r(3))
                .branch(r(3))
                .build(),
        );
        p.add_region(RegionBuilder::new(1, "cold").nop().build());
        p
    }

    fn demo_uops(p: &Program, iters: usize) -> Vec<DynUop> {
        let mut out = Vec::new();
        let mut seq = 0;
        for i in 0..iters {
            seq = virtclust_uarch::trace::expand_region(
                &p.regions[0],
                seq,
                &mut out,
                |s, _| 0x1000 + s * 8,
                |s, _| !(s + i as u64).is_multiple_of(3),
            );
        }
        out
    }

    #[test]
    fn text_and_binary_roundtrip_exactly() {
        let p = demo_program();
        let uops = demo_uops(&p, 5);
        for codec in [Codec::Text, Codec::Binary] {
            let mut buf = Vec::new();
            {
                let mut w = TraceWriter::new(&mut buf, &p, codec, Some(uops.len() as u64)).unwrap();
                for u in &uops {
                    w.write_uop(u).unwrap();
                }
                w.finish().unwrap();
            }
            let mut reader = TraceReader::new(std::io::Cursor::new(&buf)).unwrap();
            assert_eq!(reader.codec(), codec);
            assert_eq!(reader.program(), &p);
            assert_eq!(reader.len_hint(), Some(uops.len() as u64));
            let back = reader.read_all().unwrap();
            assert_eq!(back, uops, "{codec:?}");
            assert_eq!(reader.next_record().unwrap(), None, "idempotent at end");
        }
    }

    #[test]
    fn reader_is_a_trace_source_with_expander_region_semantics() {
        let p = demo_program();
        let uops = demo_uops(&p, 2);
        let mut buf = Vec::new();
        {
            let mut w = TraceWriter::new(&mut buf, &p, Codec::Binary, None).unwrap();
            for u in &uops {
                w.write_uop(u).unwrap();
            }
            w.finish().unwrap();
        }
        let mut reader = TraceReader::new(std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(reader.region_uops(0), p.regions[0].len());
        assert_eq!(reader.region_uops(1), p.regions[1].len());
        assert_eq!(reader.region_uops(999), 64, "unknown region falls back");
        let mut n = 0;
        while let Some(u) = reader.next_uop() {
            assert_eq!(u, uops[n]);
            n += 1;
        }
        assert_eq!(n, uops.len());
        assert!(reader.take_error().is_none());
    }

    #[test]
    fn rewind_replays_the_stream_without_reparsing() {
        let p = demo_program();
        let uops = demo_uops(&p, 4);
        for codec in [Codec::Text, Codec::Binary] {
            let mut buf = Vec::new();
            {
                let mut w = TraceWriter::new(&mut buf, &p, codec, Some(uops.len() as u64)).unwrap();
                for u in &uops {
                    w.write_uop(u).unwrap();
                }
                w.finish().unwrap();
            }
            let mut reader = TraceReader::new(std::io::Cursor::new(&buf)).unwrap();
            // Rewind from every interesting position: untouched, mid-stream
            // and fully consumed (after the footer).
            let first = reader.read_all().unwrap();
            reader.rewind().unwrap();
            let second = reader.read_all().unwrap();
            assert_eq!(first, second, "{codec:?}");
            reader.rewind().unwrap();
            for _ in 0..3 {
                reader.next_record().unwrap().unwrap();
            }
            reader.rewind().unwrap();
            assert_eq!(reader.read_all().unwrap(), uops, "{codec:?} mid-stream");
        }
    }

    #[test]
    fn rewind_keeps_a_replacement_program_in_effect() {
        let p = demo_program();
        let uops = demo_uops(&p, 1);
        let mut buf = Vec::new();
        {
            let mut w = TraceWriter::new(&mut buf, &p, Codec::Text, None).unwrap();
            for u in &uops {
                w.write_uop(u).unwrap();
            }
            w.finish().unwrap();
        }
        let mut reader = TraceReader::new(std::io::Cursor::new(&buf)).unwrap();
        let mut annotated = p.clone();
        annotated.inst_mut(InstId::new(0, 0)).hint = SteerHint::Static { cluster: 1 };
        reader.set_program(annotated).unwrap();
        reader.read_all().unwrap();
        reader.rewind().unwrap();
        let first = reader.next_record().unwrap().unwrap();
        assert_eq!(
            first.hint,
            SteerHint::Static { cluster: 1 },
            "the swapped program survives a rewind"
        );
    }

    #[test]
    fn rewind_clears_a_stashed_trace_source_error() {
        let p = demo_program();
        let uops = demo_uops(&p, 2);
        let mut buf = Vec::new();
        {
            let mut w = TraceWriter::new(&mut buf, &p, Codec::Binary, None).unwrap();
            for u in &uops {
                w.write_uop(u).unwrap();
            }
            w.finish().unwrap();
        }
        buf.truncate(buf.len() - 6);
        let mut reader = TraceReader::new(std::io::Cursor::new(&buf)).unwrap();
        while reader.next_uop().is_some() {}
        assert!(reader.pending_err.is_some());
        reader.rewind().unwrap();
        assert!(reader.pending_err.is_none(), "rewind clears the error");
        assert!(reader.next_uop().is_some(), "stream restarts from record 0");
    }

    #[test]
    fn set_program_swaps_hints_but_rejects_shape_changes() {
        let p = demo_program();
        let uops = demo_uops(&p, 1);
        let mut buf = Vec::new();
        {
            let mut w = TraceWriter::new(&mut buf, &p, Codec::Text, None).unwrap();
            for u in &uops {
                w.write_uop(u).unwrap();
            }
            w.finish().unwrap();
        }
        let mut reader = TraceReader::new(std::io::Cursor::new(&buf)).unwrap();
        let mut annotated = p.clone();
        annotated.inst_mut(InstId::new(0, 0)).hint = SteerHint::Vc {
            vc: 1,
            leader: true,
        };
        reader.set_program(annotated.clone()).unwrap();
        let first = reader.next_record().unwrap().unwrap();
        assert_eq!(
            first.hint,
            SteerHint::Vc {
                vc: 1,
                leader: true
            },
            "replay picks up the new annotation"
        );

        let mut reshaped = p.clone();
        reshaped.regions[0].insts.pop();
        let mut reader = TraceReader::new(std::io::Cursor::new(&buf)).unwrap();
        assert!(matches!(
            reader.set_program(reshaped),
            Err(TraceError::Inconsistent(_))
        ));
    }

    #[test]
    fn truncated_traces_are_rejected() {
        let p = demo_program();
        let uops = demo_uops(&p, 2);
        for codec in [Codec::Text, Codec::Binary] {
            let mut buf = Vec::new();
            {
                let mut w = TraceWriter::new(&mut buf, &p, codec, None).unwrap();
                for u in &uops {
                    w.write_uop(u).unwrap();
                }
                w.finish().unwrap();
            }
            // Chop off the footer (and a bit more).
            buf.truncate(buf.len() - 6);
            let mut reader = TraceReader::new(std::io::Cursor::new(&buf)).unwrap();
            let err = reader.read_all().unwrap_err();
            assert!(
                matches!(err, TraceError::Corrupt(_) | TraceError::Parse { .. }),
                "{codec:?}: {err}"
            );
            // Through the TraceSource trait the error is stashed instead.
            let mut reader = TraceReader::new(std::io::Cursor::new(&buf)).unwrap();
            while reader.next_uop().is_some() {}
            assert!(reader.take_error().is_some(), "{codec:?}");
        }
    }

    #[test]
    fn footer_count_mismatch_is_corrupt() {
        let p = demo_program();
        let text = format!(
            "{}\nprogram p\nregion 0 r\ni nop\ndyn\nu 0 0 0\nend 2\n",
            text::header_line()
        );
        let mut reader = TraceReader::new(std::io::Cursor::new(text.as_bytes())).unwrap();
        assert!(matches!(reader.read_all(), Err(TraceError::Corrupt(_))));
        let _ = p;
    }

    #[test]
    fn comments_and_blank_lines_are_tolerated_everywhere() {
        let text = format!(
            "# a hand-written trace\n\n{}\nprogram toy\n# static side\nregion 0 k\ni alu r1 = r1 r2\n\ndyn\n# dynamic side\nu 0 0 0\n\nend 1\n",
            text::header_line()
        );
        let mut reader = TraceReader::new(std::io::Cursor::new(text.as_bytes())).unwrap();
        let uops = reader.read_all().unwrap();
        assert_eq!(uops.len(), 1);
        assert_eq!(uops[0].op, virtclust_uarch::OpClass::IntAlu);
    }

    /// A trace whose program is `insts` ALU instructions, with no records.
    fn trace_with_program(insts: usize, codec: Codec) -> Vec<u8> {
        let r = ArchReg::int;
        let mut b = RegionBuilder::new(0, "wide");
        for _ in 0..insts {
            b = b.alu(r(1), &[r(1), r(2)]);
        }
        let mut p = Program::new("wide");
        p.add_region(b.build());
        let mut buf = Vec::new();
        TraceWriter::new(&mut buf, &p, codec, None)
            .unwrap()
            .finish()
            .unwrap();
        buf
    }

    #[test]
    fn text_trace_one_instruction_over_the_cap_is_too_large() {
        let at_cap = trace_with_program(text::MAX_PROGRAM_INSTS, Codec::Text);
        let reader = TraceReader::new(std::io::Cursor::new(&at_cap)).unwrap();
        assert_eq!(reader.program().static_len(), text::MAX_PROGRAM_INSTS);
        let over = trace_with_program(text::MAX_PROGRAM_INSTS + 1, Codec::Text);
        let err = TraceReader::new(std::io::Cursor::new(&over)).err().unwrap();
        assert!(matches!(err, TraceError::TooLarge(_)), "{err}");
        // A section that never reaches `dyn` stops at the text bound.
        let mut endless = format!("{}\nprogram p\n", text::header_line()).into_bytes();
        endless.resize(text::MAX_PROGRAM_BYTES as usize + 1, b'#');
        let err = TraceReader::new(std::io::Cursor::new(&endless))
            .err()
            .unwrap();
        assert!(matches!(err, TraceError::TooLarge(_)), "{err}");
    }

    /// A trace of one `r12 = r1 + r2` instruction whose `r12` token is
    /// replaced by `é1`, the same three bytes opening with a two-byte
    /// character.
    fn trace_with_multi_byte_register(codec: Codec) -> Vec<u8> {
        let r = ArchReg::int;
        let mut p = Program::new("utf8");
        p.add_region(RegionBuilder::new(0, "r").alu(r(12), &[r(1), r(2)]).build());
        let mut buf = Vec::new();
        TraceWriter::new(&mut buf, &p, codec, None)
            .unwrap()
            .finish()
            .unwrap();
        let at = buf.windows(3).position(|w| w == b"r12").unwrap();
        buf[at..at + 3].copy_from_slice("é1".as_bytes());
        buf
    }

    #[test]
    fn text_trace_with_a_multi_byte_register_is_a_parse_error() {
        let bytes = trace_with_multi_byte_register(Codec::Text);
        let err = TraceReader::new(std::io::Cursor::new(&bytes))
            .err()
            .unwrap();
        assert!(matches!(err, TraceError::Parse { .. }), "{err}");
    }

    #[test]
    fn binary_trace_with_a_multi_byte_register_is_a_parse_error() {
        let bytes = trace_with_multi_byte_register(Codec::Binary);
        let err = TraceReader::new(std::io::Cursor::new(&bytes))
            .err()
            .unwrap();
        assert!(matches!(err, TraceError::Parse { .. }), "{err}");
    }

    #[test]
    fn binary_trace_one_instruction_over_the_cap_is_too_large() {
        let at_cap = trace_with_program(text::MAX_PROGRAM_INSTS, Codec::Binary);
        let reader = TraceReader::new(std::io::Cursor::new(&at_cap)).unwrap();
        assert_eq!(reader.program().static_len(), text::MAX_PROGRAM_INSTS);
        let over = trace_with_program(text::MAX_PROGRAM_INSTS + 1, Codec::Binary);
        let err = TraceReader::new(std::io::Cursor::new(&over)).err().unwrap();
        assert!(matches!(err, TraceError::TooLarge(_)), "{err}");
        // Program text past the bound is refused once the bound is read.
        let mut claim = binary::BINARY_MAGIC.to_vec();
        claim.push(crate::FORMAT_VERSION as u8);
        binary::write_varint(&mut claim, 1 << 40).unwrap();
        claim.resize(claim.len() + text::MAX_PROGRAM_BYTES as usize + 1, b'#');
        let err = TraceReader::new(std::io::Cursor::new(&claim))
            .err()
            .unwrap();
        assert!(matches!(err, TraceError::TooLarge(_)), "{err}");
    }
}
