//! The human-readable text codec (and the grammar the kernel importer
//! shares).
//!
//! A text trace is line-oriented and diffable:
//!
//! ```text
//! virtclust-trace 1 text
//! program gzip-1
//! region 0 body
//! i alu r1 = r1 r2
//! i ld r3 = r1 @vc 1 leader
//! i st r1 r3
//! i br r3 @cluster 1
//! count 4
//! dyn
//! u 0 0 0
//! u 1 0 1 m 1000
//! u 2 0 2 m 1008
//! u 3 0 3 b t
//! end 4
//! ```
//!
//! * the **program section** (`program` / `region` / `i` lines) carries the
//!   static side once — instruction lines are `i <mnemonic> [<dst> =]
//!   <src>… [@cluster <n> | @vc <n> [leader]]`;
//! * the **dynamic section** after `dyn` is one micro-op per line: `u <seq>
//!   <region> <index> [m <hex-addr>] [b t|n [pc <hex>]]` — only dynamic
//!   facts, the static metadata is re-derived from the program on read;
//! * `end <n>` closes the stream with the authoritative record count.
//!
//! Lines starting with `#` and blank lines are ignored everywhere, so both
//! traces and imported kernels can be annotated freely.

use std::io::Write;

use virtclust_uarch::{
    ArchReg, OpClass, Program, Region, SrcList, StaticInst, SteerHint, NUM_FLT_ARCH_REGS,
    NUM_INT_ARCH_REGS,
};

use crate::error::{Result, TraceError};
use crate::record::RawRecord;
use crate::FORMAT_VERSION;

/// First token of a text trace's header line (doubles as the magic the
/// reader sniffs to tell the codecs apart).
pub const TEXT_MAGIC: &str = "virtclust-trace";

/// Render the header line (`virtclust-trace 1 text`).
pub fn header_line() -> String {
    format!("{TEXT_MAGIC} {FORMAT_VERSION} text")
}

/// Parse the header line, returning the format version.
pub fn parse_header(line_no: u64, line: &str) -> Result<u32> {
    let mut toks = line.split_whitespace();
    if toks.next() != Some(TEXT_MAGIC) {
        return Err(TraceError::parse(
            line_no,
            format!("expected `{TEXT_MAGIC}` header"),
        ));
    }
    let version: u32 = toks
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| TraceError::parse(line_no, "missing format version"))?;
    if version != FORMAT_VERSION {
        return Err(TraceError::Unsupported(format!(
            "trace format version {version} (this build reads version {FORMAT_VERSION})"
        )));
    }
    match toks.next() {
        Some("text") | None => Ok(version),
        Some(other) => Err(TraceError::parse(
            line_no,
            format!("unknown codec tag `{other}`"),
        )),
    }
}

// ---------------------------------------------------------------------------
// Program section: serialisation.
// ---------------------------------------------------------------------------

fn check_name(kind: &str, name: &str) -> Result<()> {
    if name.contains(['\n', '\r']) {
        return Err(TraceError::Inconsistent(format!(
            "{kind} name {name:?} contains a line break"
        )));
    }
    Ok(())
}

fn format_hint(hint: SteerHint) -> String {
    match hint {
        SteerHint::None => String::new(),
        SteerHint::Static { cluster } => format!(" @cluster {cluster}"),
        SteerHint::Vc { vc, leader } => {
            format!(" @vc {vc}{}", if leader { " leader" } else { "" })
        }
    }
}

fn format_inst(inst: &StaticInst) -> String {
    let mut s = format!("i {}", inst.op.mnemonic());
    if let Some(d) = inst.dst {
        s.push_str(&format!(" {d} ="));
    }
    for r in inst.srcs.iter() {
        s.push_str(&format!(" {r}"));
    }
    s.push_str(&format_hint(inst.hint));
    s
}

/// Write the program section (`program` line, then `region`/`i` lines).
pub fn write_program_section<W: Write>(w: &mut W, program: &Program) -> Result<()> {
    check_name("program", &program.name)?;
    writeln!(w, "program {}", program.name)?;
    for region in &program.regions {
        check_name("region", &region.name)?;
        if region.insts.iter().any(|i| i.op == OpClass::Copy) {
            return Err(TraceError::Inconsistent(format!(
                "region {} contains a copy micro-op; copies are hardware-generated \
                 and never appear in programs or traces",
                region.id
            )));
        }
        writeln!(w, "region {} {}", region.id, region.name)?;
        for inst in &region.insts {
            writeln!(w, "{}", format_inst(inst))?;
        }
    }
    Ok(())
}

/// The program section as a string (embedded verbatim by the binary codec).
pub fn program_section_to_string(program: &Program) -> Result<String> {
    let mut buf = Vec::new();
    write_program_section(&mut buf, program)?;
    Ok(String::from_utf8(buf).expect("program section is UTF-8"))
}

// ---------------------------------------------------------------------------
// Program section: parsing (shared with the kernel importer).
// ---------------------------------------------------------------------------

fn parse_reg(line_no: u64, tok: &str) -> Result<ArchReg> {
    let err = || TraceError::parse(line_no, format!("bad register `{tok}`"));
    // The class is the first character, not the first byte: a token may
    // open with a multi-byte character.
    let mut chars = tok.chars();
    let class = chars.next().ok_or_else(err)?;
    let idx: u8 = chars.as_str().parse().map_err(|_| err())?;
    match class {
        'r' if (idx as usize) < NUM_INT_ARCH_REGS => Ok(ArchReg::int(idx)),
        'f' if (idx as usize) < NUM_FLT_ARCH_REGS => Ok(ArchReg::flt(idx)),
        _ => Err(err()),
    }
}

fn parse_mnemonic(line_no: u64, tok: &str) -> Result<OpClass> {
    OpClass::PROGRAM_CLASSES
        .into_iter()
        .find(|op| op.mnemonic() == tok)
        .ok_or_else(|| TraceError::parse(line_no, format!("unknown op mnemonic `{tok}`")))
}

/// Parse one `i …` instruction line (without the leading `i` token).
fn parse_inst(line_no: u64, toks: &[&str]) -> Result<StaticInst> {
    let (&mnem, mut rest) = toks
        .split_first()
        .ok_or_else(|| TraceError::parse(line_no, "instruction line without a mnemonic"))?;
    let op = parse_mnemonic(line_no, mnem)?;

    // Optional steering hint tail, introduced by an `@…` token.
    let mut hint = SteerHint::None;
    if let Some(at) = rest.iter().position(|t| t.starts_with('@')) {
        let hint_toks = &rest[at..];
        rest = &rest[..at];
        let arg = |i: usize| -> Result<u8> {
            hint_toks
                .get(i)
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| TraceError::parse(line_no, "hint missing its numeric argument"))
        };
        hint = match hint_toks[0] {
            "@cluster" if hint_toks.len() == 2 => SteerHint::Static { cluster: arg(1)? },
            "@vc" if hint_toks.len() == 2 => SteerHint::Vc {
                vc: arg(1)?,
                leader: false,
            },
            "@vc" if hint_toks.len() == 3 && hint_toks[2] == "leader" => SteerHint::Vc {
                vc: arg(1)?,
                leader: true,
            },
            other => {
                return Err(TraceError::parse(
                    line_no,
                    format!("bad steering hint starting at `{other}`"),
                ))
            }
        };
    }

    // Optional destination, marked by `<dst> =`.
    let mut dst = None;
    if rest.len() >= 2 && rest[1] == "=" {
        dst = Some(parse_reg(line_no, rest[0])?);
        rest = &rest[2..];
    }

    if rest.len() > virtclust_uarch::inst::MAX_SRCS {
        return Err(TraceError::parse(
            line_no,
            format!("too many sources ({}, max 3)", rest.len()),
        ));
    }
    let mut srcs = SrcList::new();
    for tok in rest {
        srcs.push(parse_reg(line_no, tok)?);
    }

    Ok(StaticInst {
        op,
        srcs,
        dst,
        hint,
    })
}

/// Most static instructions a decoded program may hold. Kernel files,
/// `.vct` and `.vctb` traces all parse their program through
/// [`parse_program_section`], which returns [`TraceError::TooLarge`] past
/// it. The largest suite program has 1 588 instructions, so the cap
/// leaves ten times that room for client kernels and captures.
pub const MAX_PROGRAM_INSTS: usize = 16_384;

/// Most bytes of program text a decoder buffers before parsing it: 256
/// per instruction under [`MAX_PROGRAM_INSTS`] (4 MiB), room for hints,
/// comments and blank lines.
pub(crate) const MAX_PROGRAM_BYTES: u64 = 256 * MAX_PROGRAM_INSTS as u64;

/// The error for program text past [`MAX_PROGRAM_BYTES`].
pub(crate) fn program_text_too_large() -> TraceError {
    TraceError::TooLarge(format!("program text exceeds {MAX_PROGRAM_BYTES} bytes"))
}

/// Parse a program section from `(line_no, line)` pairs.
///
/// In strict mode (the trace reader) a `program` line must come first and
/// every `region` line must carry an explicit id equal to its position. In
/// lenient mode (the kernel importer) both are optional: a nameless program
/// is called `imported`, instructions before any `region` line open an
/// implicit region `kernel`, and `region <name>` lines get sequential ids.
/// A program over [`MAX_PROGRAM_INSTS`] instructions is
/// [`TraceError::TooLarge`].
pub fn parse_program_section<'a, I>(lines: I, lenient: bool) -> Result<Program>
where
    I: IntoIterator<Item = (u64, &'a str)>,
{
    let mut program: Option<Program> = None;
    let mut current: Option<Region> = None;
    let mut saw_program_line = false;
    let mut insts = 0usize;
    for (line_no, raw) in lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks[0] {
            "program" => {
                if saw_program_line || program.is_some() {
                    return Err(TraceError::parse(line_no, "duplicate `program` line"));
                }
                saw_program_line = true;
                let name = line["program".len()..].trim();
                program = Some(Program::new(name));
            }
            "region" => {
                if !lenient && !saw_program_line {
                    return Err(TraceError::parse(line_no, "`region` before `program` line"));
                }
                let program = program.get_or_insert_with(|| Program::new("imported"));
                if let Some(done) = current.take() {
                    program.add_region(done);
                }
                let expected_id = program.regions.len() as u32;
                // `region <id> <name…>` when the second token is numeric,
                // otherwise `region <name…>` (lenient only). A *lone*
                // numeric token in lenient mode is a name (`region 7`
                // names a region "7"); only the strict codec — whose
                // writer always emits an id — reads it as one.
                let (id, name) = match toks.get(1).and_then(|t| t.parse::<u32>().ok()) {
                    Some(_) if lenient && toks.len() == 2 => (None, line["region".len()..].trim()),
                    Some(id) => {
                        let tail = line["region".len()..].trim();
                        let name = tail[toks[1].len()..].trim();
                        (Some(id), name)
                    }
                    None => (None, line["region".len()..].trim()),
                };
                match id {
                    Some(id) if id != expected_id => {
                        return Err(TraceError::parse(
                            line_no,
                            format!("region id {id} out of order (expected {expected_id})"),
                        ));
                    }
                    None if !lenient => {
                        return Err(TraceError::parse(line_no, "region line without an id"));
                    }
                    _ => {}
                }
                current = Some(Region::new(expected_id, name));
            }
            "i" => {
                insts += 1;
                if insts > MAX_PROGRAM_INSTS {
                    return Err(TraceError::TooLarge(format!(
                        "line {line_no}: program exceeds {MAX_PROGRAM_INSTS} instructions"
                    )));
                }
                let inst = parse_inst(line_no, &toks[1..])?;
                match &mut current {
                    Some(region) => {
                        region.push(inst);
                    }
                    None if lenient => {
                        if program.is_none() {
                            program = Some(Program::new("imported"));
                        }
                        let mut region = Region::new(0, "kernel");
                        region.push(inst);
                        current = Some(region);
                    }
                    None => {
                        return Err(TraceError::parse(
                            line_no,
                            "instruction outside any `region`",
                        ));
                    }
                }
            }
            other => {
                return Err(TraceError::parse(
                    line_no,
                    format!("unexpected token `{other}` in program section"),
                ));
            }
        }
    }
    let mut program =
        program.ok_or_else(|| TraceError::parse(0, "input contains no program at all"))?;
    if let Some(done) = current.take() {
        program.add_region(done);
    }
    if program.regions.is_empty() || program.static_len() == 0 {
        return Err(TraceError::parse(0, "program has no instructions"));
    }
    Ok(program)
}

// ---------------------------------------------------------------------------
// Dynamic section.
// ---------------------------------------------------------------------------

/// Render one dynamic record as a `u …` line.
pub fn format_record(rec: &RawRecord) -> String {
    let mut s = format!("u {} {} {}", rec.seq, rec.region, rec.index);
    if let Some(addr) = rec.mem_addr {
        s.push_str(&format!(" m {addr:x}"));
    }
    if let Some(taken) = rec.taken {
        s.push_str(if taken { " b t" } else { " b n" });
        if let Some(pc) = rec.pc {
            s.push_str(&format!(" pc {pc:x}"));
        }
    }
    s
}

/// One parsed line of the dynamic section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextItem {
    /// A `u …` record line.
    Uop(RawRecord),
    /// The `end <count>` footer.
    End(u64),
}

/// Parse a dynamic-section line (`u …` or `end <n>`); `Ok(None)` for blank
/// and comment lines. Walks the tokens in place, allocating nothing on
/// success.
pub fn parse_dyn_line(line_no: u64, raw: &str) -> Result<Option<TextItem>> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut toks = line.split_whitespace();
    let int = |tok: &str, what: &str| -> Result<u64> {
        tok.parse()
            .map_err(|_| TraceError::parse(line_no, format!("bad {what} `{tok}`")))
    };
    let hex = |tok: &str, what: &str| -> Result<u64> {
        u64::from_str_radix(tok, 16)
            .map_err(|_| TraceError::parse(line_no, format!("bad {what} `{tok}`")))
    };
    // A trimmed non-empty line has a first token.
    match toks.next().unwrap_or_default() {
        "end" => {
            let n = toks
                .next()
                .ok_or_else(|| TraceError::parse(line_no, "`end` without a count"))?;
            Ok(Some(TextItem::End(int(n, "record count")?)))
        }
        "u" => {
            let (Some(seq), Some(region), Some(index)) = (toks.next(), toks.next(), toks.next())
            else {
                return Err(TraceError::parse(
                    line_no,
                    "record needs seq, region, index",
                ));
            };
            let int32 = |tok: &str, what: &str| -> Result<u32> {
                int(tok, what).and_then(|v| {
                    u32::try_from(v).map_err(|_| {
                        TraceError::parse(line_no, format!("{what} `{tok}` overflows u32"))
                    })
                })
            };
            let mut rec = RawRecord {
                seq: int(seq, "sequence number")?,
                region: int32(region, "region index")?,
                index: int32(index, "instruction index")?,
                mem_addr: None,
                taken: None,
                pc: None,
            };
            while let Some(key) = toks.next() {
                match key {
                    "m" => {
                        let v = toks
                            .next()
                            .ok_or_else(|| TraceError::parse(line_no, "`m` without an address"))?;
                        rec.mem_addr = Some(hex(v, "memory address")?);
                    }
                    "b" => {
                        let v = toks
                            .next()
                            .ok_or_else(|| TraceError::parse(line_no, "`b` without an outcome"))?;
                        rec.taken = Some(match v {
                            "t" => true,
                            "n" => false,
                            other => {
                                return Err(TraceError::parse(
                                    line_no,
                                    format!("branch outcome must be t or n, got `{other}`"),
                                ))
                            }
                        });
                    }
                    "pc" => {
                        if rec.taken.is_none() {
                            return Err(TraceError::parse(line_no, "`pc` before `b`"));
                        }
                        let v = toks
                            .next()
                            .ok_or_else(|| TraceError::parse(line_no, "`pc` without a value"))?;
                        rec.pc = Some(hex(v, "branch pc")?);
                    }
                    other => {
                        return Err(TraceError::parse(
                            line_no,
                            format!("unknown record field `{other}`"),
                        ));
                    }
                }
            }
            Ok(Some(TextItem::Uop(rec)))
        }
        other => Err(TraceError::parse(
            line_no,
            format!("unexpected token `{other}` in dynamic section"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtclust_uarch::RegionBuilder;

    fn demo_program() -> Program {
        let r = ArchReg::int;
        let f = ArchReg::flt;
        let mut p = Program::new("demo kernel");
        p.add_region(
            RegionBuilder::new(0, "hot loop")
                .alu(r(1), &[r(1), r(2)])
                .load(r(3), r(1))
                .fadd(f(0), f(0), f(1))
                .store(r(1), r(3))
                .branch(r(3))
                .build(),
        );
        p.add_region(RegionBuilder::new(1, "tail").nop().build());
        p
    }

    fn reparse(p: &Program, lenient: bool) -> Program {
        let text = program_section_to_string(p).unwrap();
        let lines = text.lines().enumerate().map(|(i, l)| (i as u64 + 1, l));
        parse_program_section(lines, lenient).unwrap()
    }

    #[test]
    fn program_section_roundtrips() {
        let mut p = demo_program();
        // Annotate a couple of instructions so hints round-trip too.
        p.inst_mut(virtclust_uarch::InstId::new(0, 0)).hint = SteerHint::Vc {
            vc: 1,
            leader: true,
        };
        p.inst_mut(virtclust_uarch::InstId::new(0, 1)).hint = SteerHint::Vc {
            vc: 0,
            leader: false,
        };
        p.inst_mut(virtclust_uarch::InstId::new(0, 3)).hint = SteerHint::Static { cluster: 1 };
        assert_eq!(reparse(&p, false), p);
        assert_eq!(reparse(&p, true), p);
    }

    #[test]
    fn record_lines_roundtrip() {
        for rec in [
            RawRecord {
                seq: 0,
                region: 0,
                index: 0,
                mem_addr: None,
                taken: None,
                pc: None,
            },
            RawRecord {
                seq: 123_456_789,
                region: 3,
                index: 17,
                mem_addr: Some(0xdead_beef),
                taken: None,
                pc: None,
            },
            RawRecord {
                seq: 9,
                region: 0,
                index: 4,
                mem_addr: None,
                taken: Some(false),
                pc: Some(0x1234),
            },
        ] {
            let line = format_record(&rec);
            assert_eq!(
                parse_dyn_line(1, &line).unwrap(),
                Some(TextItem::Uop(rec)),
                "{line}"
            );
        }
        assert_eq!(
            parse_dyn_line(1, "end 42").unwrap(),
            Some(TextItem::End(42))
        );
        assert_eq!(parse_dyn_line(1, "# comment").unwrap(), None);
        assert_eq!(parse_dyn_line(1, "   ").unwrap(), None);
    }

    #[test]
    fn malformed_lines_error_with_line_numbers() {
        for bad in [
            "u 1 0",            // missing index
            "u 1 0 0 m",        // m without address
            "u 1 0 0 b x",      // bad outcome
            "u 1 0 0 pc 12",    // pc before b
            "u 1 0 0 zz 3",     // unknown field
            "flub",             // unknown keyword
            "end",              // end without count
            "u x 0 0",          // bad seq
            "u 1 4294967296 0", // region overflows u32 (no silent truncation)
            "u 1 0 4294967296", // index overflows u32
        ] {
            let err = parse_dyn_line(7, bad).unwrap_err();
            assert!(
                matches!(err, TraceError::Parse { line: 7, .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn header_roundtrips_and_rejects_future_versions() {
        assert_eq!(parse_header(1, &header_line()).unwrap(), FORMAT_VERSION);
        assert!(matches!(
            parse_header(1, "virtclust-trace 999 text"),
            Err(TraceError::Unsupported(_))
        ));
        assert!(parse_header(1, "something-else 1 text").is_err());
    }

    #[test]
    fn strict_mode_rejects_what_lenient_mode_accepts() {
        let kernel = "i alu r1 = r1 r2\ni br r1\n";
        let lines = || kernel.lines().enumerate().map(|(i, l)| (i as u64 + 1, l));
        let p = parse_program_section(lines(), true).unwrap();
        assert_eq!(p.name, "imported");
        assert_eq!(p.regions[0].name, "kernel");
        assert_eq!(p.static_len(), 2);
        assert!(parse_program_section(lines(), false).is_err());
    }

    #[test]
    fn region_ids_must_be_in_order() {
        let text = "program p\nregion 1 body\ni nop\n";
        let lines = text.lines().enumerate().map(|(i, l)| (i as u64 + 1, l));
        assert!(parse_program_section(lines, false).is_err());
    }

    #[test]
    fn lenient_mode_takes_a_lone_numeric_token_as_a_region_name() {
        let text = "region 7\ni nop\n";
        let lines = || text.lines().enumerate().map(|(i, l)| (i as u64 + 1, l));
        let p = parse_program_section(lines(), true).unwrap();
        assert_eq!(p.regions[0].name, "7");
        assert_eq!(p.regions[0].id, 0, "ids are auto-assigned");
        // Strict mode reads the same token as an explicit id.
        let strict = "program p\nregion 0\ni nop\n";
        let lines = strict.lines().enumerate().map(|(i, l)| (i as u64 + 1, l));
        let p = parse_program_section(lines, false).unwrap();
        assert_eq!(p.regions[0].name, "");
    }

    #[test]
    fn copy_ops_are_rejected_on_write() {
        let mut p = Program::new("p");
        let mut region = Region::new(0, "r");
        region.push(StaticInst::new(OpClass::Copy, &[], None));
        p.add_region(region);
        assert!(program_section_to_string(&p).is_err());
    }
}
