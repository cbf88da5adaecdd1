//! The compact binary codec.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! magic  b"VCTB"                      4 bytes
//! version                             u8
//! program_len, program_bytes          the text codec's program section,
//!                                     embedded verbatim (one grammar for
//!                                     both codecs)
//! declared_plus_one                   0 = unknown, else count + 1
//! record*                             see below
//! 0xFF, count                         footer with authoritative count
//! ```
//!
//! Each record is a flags byte followed by varints: `seq`, `region`,
//! `index`, then `mem_addr` if [`FLAG_MEM`], then `pc` if [`FLAG_PC`] (a
//! branch whose PC surrogate differs from the derivable default). The
//! branch outcome rides in [`FLAG_TAKEN`]. A typical record is 5–8 bytes,
//! roughly 4× smaller than its text form.

use std::io::{BufRead, Read, Write};

use crate::error::{Result, TraceError};
use crate::record::RawRecord;
use crate::text;
use crate::FORMAT_VERSION;

/// Magic bytes opening a binary trace.
pub const BINARY_MAGIC: &[u8; 4] = b"VCTB";

/// Record carries a memory address.
pub const FLAG_MEM: u8 = 1 << 0;
/// Record is a branch (outcome in [`FLAG_TAKEN`]).
pub const FLAG_BRANCH: u8 = 1 << 1;
/// Branch outcome: taken.
pub const FLAG_TAKEN: u8 = 1 << 2;
/// Branch PC surrogate differs from the default and is stored explicitly.
pub const FLAG_PC: u8 = 1 << 3;
/// Flags value marking the end-of-stream footer.
pub const END_MARKER: u8 = 0xFF;

/// Write a LEB128 unsigned varint.
pub fn write_varint<W: Write>(w: &mut W, mut v: u64) -> std::io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Fold the varint byte at bit `shift` into `v`; `Ok(true)` when it is
/// the last byte.
fn varint_step(v: &mut u64, shift: u32, byte: u8) -> Result<bool> {
    let bits = u64::from(byte & 0x7f);
    // The 10th byte (shift 63) may only contribute the final bit and must
    // terminate; a continuation there, or any higher payload bits, would
    // shift data silently out of the u64 and decode a wrong value.
    if shift == 63 && (bits > 1 || byte & 0x80 != 0) {
        return Err(TraceError::Corrupt("varint overflows u64".into()));
    }
    *v |= bits << shift;
    Ok(byte & 0x80 == 0)
}

/// Read a LEB128 unsigned varint.
pub fn read_varint<R: Read>(r: &mut R) -> Result<u64> {
    let mut v = 0u64;
    for shift in (0..).step_by(7) {
        let mut byte = [0u8];
        r.read_exact(&mut byte)
            .map_err(|_| TraceError::Corrupt("truncated varint".into()))?;
        if varint_step(&mut v, shift, byte[0])? {
            break;
        }
    }
    Ok(v)
}

/// [`read_varint`] straight from `r`'s buffer, with no per-byte read
/// call. A varint that runs past the buffered bytes (a buffer edge, or the
/// end of the input) goes through `read_varint`, so both paths decode
/// the same values and fail with the same errors.
fn read_buffered_varint<R: BufRead>(r: &mut R) -> Result<u64> {
    if let Ok(buf) = r.fill_buf() {
        let mut v = 0u64;
        for (i, &byte) in buf.iter().take(10).enumerate() {
            if varint_step(&mut v, 7 * i as u32, byte)? {
                r.consume(i + 1);
                return Ok(v);
            }
        }
    }
    read_varint(r)
}

/// Write the file header (magic, version, embedded program text, declared
/// count).
pub fn write_header<W: Write>(w: &mut W, program_text: &str, declared: Option<u64>) -> Result<()> {
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&[FORMAT_VERSION as u8])?;
    write_varint(w, program_text.len() as u64)?;
    w.write_all(program_text.as_bytes())?;
    write_varint(w, declared.map_or(0, |n| n + 1))?;
    Ok(())
}

/// Read the file header; returns the embedded program text and the
/// declared count. Assumes the caller already verified the magic is next.
pub fn read_header<R: BufRead>(r: &mut R) -> Result<(String, Option<u64>)> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(TraceError::Corrupt("bad binary magic".into()));
    }
    let mut version = [0u8];
    r.read_exact(&mut version)?;
    if u32::from(version[0]) != FORMAT_VERSION {
        return Err(TraceError::Unsupported(format!(
            "binary trace version {} (this build reads version {FORMAT_VERSION})",
            version[0]
        )));
    }
    // The length comes from the file: read through `take` so the buffer
    // grows with the bytes that actually arrive, never to a corrupt
    // prefix's claim, and never past the program-text bound.
    let len = read_varint(r)?;
    let mut bytes = Vec::new();
    r.take(len.min(text::MAX_PROGRAM_BYTES + 1))
        .read_to_end(&mut bytes)?;
    if bytes.len() as u64 > text::MAX_PROGRAM_BYTES {
        return Err(text::program_text_too_large());
    }
    if (bytes.len() as u64) < len {
        return Err(TraceError::Corrupt("truncated embedded program".into()));
    }
    let text = String::from_utf8(bytes)
        .map_err(|_| TraceError::Corrupt("embedded program is not UTF-8".into()))?;
    let declared = match read_varint(r)? {
        0 => None,
        n => Some(n - 1),
    };
    Ok((text, declared))
}

/// Encode one record.
pub fn write_record<W: Write>(w: &mut W, rec: &RawRecord) -> Result<()> {
    let mut flags = 0u8;
    if rec.mem_addr.is_some() {
        flags |= FLAG_MEM;
    }
    if let Some(taken) = rec.taken {
        flags |= FLAG_BRANCH;
        if taken {
            flags |= FLAG_TAKEN;
        }
        if rec.pc.is_some() {
            flags |= FLAG_PC;
        }
    }
    w.write_all(&[flags])?;
    write_varint(w, rec.seq)?;
    write_varint(w, u64::from(rec.region))?;
    write_varint(w, u64::from(rec.index))?;
    if let Some(addr) = rec.mem_addr {
        write_varint(w, addr)?;
    }
    // Gated on the flag, not on `rec.pc`: a malformed record with a pc but
    // no branch outcome must not emit bytes the flags byte does not
    // announce (that would desynchronize the whole stream downstream).
    if flags & FLAG_PC != 0 {
        write_varint(w, rec.pc.expect("FLAG_PC implies pc"))?;
    }
    Ok(())
}

/// Write the end-of-stream footer.
pub fn write_footer<W: Write>(w: &mut W, count: u64) -> Result<()> {
    w.write_all(&[END_MARKER])?;
    write_varint(w, count)?;
    Ok(())
}

/// One decoded item of the record stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinItem {
    /// A record.
    Uop(RawRecord),
    /// The footer, with the authoritative count.
    End(u64),
}

/// Decode the next record or the footer, reading its varints straight
/// from `r`'s buffer.
pub fn read_item<R: BufRead>(r: &mut R) -> Result<BinItem> {
    let mut flags = [0u8];
    r.read_exact(&mut flags)
        .map_err(|_| TraceError::Corrupt("trace ends without an end marker".into()))?;
    let flags = flags[0];
    if flags == END_MARKER {
        return Ok(BinItem::End(read_buffered_varint(r)?));
    }
    if flags & !(FLAG_MEM | FLAG_BRANCH | FLAG_TAKEN | FLAG_PC) != 0 {
        return Err(TraceError::Corrupt(format!(
            "unknown record flags {flags:#04x}"
        )));
    }
    if flags & (FLAG_TAKEN | FLAG_PC) != 0 && flags & FLAG_BRANCH == 0 {
        return Err(TraceError::Corrupt(format!(
            "branch flags without FLAG_BRANCH ({flags:#04x})"
        )));
    }
    let seq = read_buffered_varint(r)?;
    let region = u32::try_from(read_buffered_varint(r)?)
        .map_err(|_| TraceError::Corrupt("region index overflows u32".into()))?;
    let index = u32::try_from(read_buffered_varint(r)?)
        .map_err(|_| TraceError::Corrupt("instruction index overflows u32".into()))?;
    let mem_addr = if flags & FLAG_MEM != 0 {
        Some(read_buffered_varint(r)?)
    } else {
        None
    };
    let pc = if flags & FLAG_PC != 0 {
        Some(read_buffered_varint(r)?)
    } else {
        None
    };
    Ok(BinItem::Uop(RawRecord {
        seq,
        region,
        index,
        mem_addr,
        taken: (flags & FLAG_BRANCH != 0).then_some(flags & FLAG_TAKEN != 0),
        pc,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            0xffff,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v, "{v}");
        }
        // Small values are one byte.
        let mut buf = Vec::new();
        write_varint(&mut buf, 42).unwrap();
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_varint_is_corrupt() {
        let buf = [0x80u8, 0x80];
        assert!(matches!(
            read_varint(&mut buf.as_ref()),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn over_64_bit_varints_are_corrupt_not_truncated_values() {
        // 10th byte carrying payload bits above bit 63.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x42);
        assert!(matches!(
            read_varint(&mut buf.as_slice()),
            Err(TraceError::Corrupt(_))
        ));
        // 10th byte with a continuation bit.
        let mut buf = vec![0x80u8; 9];
        buf.extend([0x81, 0x00]);
        assert!(matches!(
            read_varint(&mut buf.as_slice()),
            Err(TraceError::Corrupt(_))
        ));
        // u64::MAX itself (10th byte = 0x01) still decodes.
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX).unwrap();
        assert_eq!(buf.len(), 10);
        assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), u64::MAX);
    }

    #[test]
    fn records_roundtrip() {
        let recs = [
            RawRecord {
                seq: 0,
                region: 0,
                index: 0,
                mem_addr: None,
                taken: None,
                pc: None,
            },
            RawRecord {
                seq: u64::MAX,
                region: u32::MAX,
                index: 12345,
                mem_addr: Some(0xdead_beef_cafe),
                taken: None,
                pc: None,
            },
            RawRecord {
                seq: 77,
                region: 1,
                index: 2,
                mem_addr: None,
                taken: Some(true),
                pc: Some(0x4000_0000_1234),
            },
            RawRecord {
                seq: 78,
                region: 1,
                index: 3,
                mem_addr: None,
                taken: Some(false),
                pc: None,
            },
        ];
        let mut buf = Vec::new();
        for rec in &recs {
            write_record(&mut buf, rec).unwrap();
        }
        write_footer(&mut buf, recs.len() as u64).unwrap();
        let mut r = buf.as_slice();
        for rec in &recs {
            assert_eq!(read_item(&mut r).unwrap(), BinItem::Uop(*rec));
        }
        assert_eq!(read_item(&mut r).unwrap(), BinItem::End(recs.len() as u64));
    }

    #[test]
    fn records_decode_the_same_at_every_buffer_edge() {
        // A varint that straddles the reader's buffer goes through the
        // byte-wise path; every capacity must decode the same items, and
        // a cut or overflowing stream must fail with the same error.
        let recs = [
            RawRecord {
                seq: u64::MAX,
                region: 3,
                index: 300,
                mem_addr: Some(0xdead_beef_cafe),
                taken: None,
                pc: None,
            },
            RawRecord {
                seq: u64::MAX - 1,
                region: 0,
                index: 1,
                mem_addr: None,
                taken: Some(true),
                pc: Some(0x4000_0000_1234),
            },
        ];
        let mut buf = Vec::new();
        for rec in &recs {
            write_record(&mut buf, rec).unwrap();
        }
        write_footer(&mut buf, 2).unwrap();
        let mut overflow = vec![0u8];
        overflow.extend([0x80; 9]);
        overflow.push(0x42);
        let decode = |bytes: &[u8], cap: usize| -> Vec<Result<BinItem>> {
            let mut r = std::io::BufReader::with_capacity(cap, bytes);
            (0..3).map(|_| read_item(&mut r)).collect()
        };
        let show = |items: Vec<Result<BinItem>>| -> Vec<String> {
            items.into_iter().map(|item| format!("{item:?}")).collect()
        };
        let whole = show(decode(&buf, buf.len()));
        assert_eq!(whole[2], format!("{:?}", Ok::<_, ()>(BinItem::End(2))));
        let cut = &buf[..buf.len() - 3];
        for cap in 1..=24 {
            assert_eq!(show(decode(&buf, cap)), whole, "capacity {cap}");
            assert_eq!(
                show(decode(cut, cap)),
                show(decode(cut, cut.len())),
                "cut, capacity {cap}"
            );
            let err = read_item(&mut std::io::BufReader::with_capacity(cap, &overflow[..]));
            assert_eq!(
                err.unwrap_err().to_string(),
                "corrupt trace: varint overflows u64",
                "capacity {cap}"
            );
        }
    }

    #[test]
    fn malformed_pc_without_branch_does_not_desync_the_stream() {
        // A record with a pc but no branch outcome must not emit bytes the
        // flags byte does not announce.
        let bad = RawRecord {
            seq: 1,
            region: 0,
            index: 0,
            mem_addr: None,
            taken: None,
            pc: Some(0xdead),
        };
        let good = RawRecord {
            seq: 2,
            region: 0,
            index: 1,
            mem_addr: None,
            taken: None,
            pc: None,
        };
        let mut buf = Vec::new();
        write_record(&mut buf, &bad).unwrap();
        write_record(&mut buf, &good).unwrap();
        let mut r = buf.as_slice();
        // The pc is dropped (it was never announced), the stream stays
        // aligned and the following record decodes intact.
        let first = read_item(&mut r).unwrap();
        assert_eq!(first, BinItem::Uop(RawRecord { pc: None, ..bad }));
        assert_eq!(read_item(&mut r).unwrap(), BinItem::Uop(good));
    }

    #[test]
    fn header_roundtrips() {
        let mut buf = Vec::new();
        write_header(&mut buf, "program p\nregion 0 r\ni nop\n", Some(9)).unwrap();
        let (text, declared) = read_header(&mut buf.as_slice()).unwrap();
        assert_eq!(text, "program p\nregion 0 r\ni nop\n");
        assert_eq!(declared, Some(9));

        let mut buf = Vec::new();
        write_header(&mut buf, "x", None).unwrap();
        let (_, declared) = read_header(&mut buf.as_slice()).unwrap();
        assert_eq!(declared, None);
    }

    #[test]
    fn bad_flags_and_missing_footer_are_corrupt() {
        // Reserved flag bit set.
        let buf = [0x40u8, 0, 0, 0];
        assert!(matches!(
            read_item(&mut buf.as_ref()),
            Err(TraceError::Corrupt(_))
        ));
        // Taken without branch.
        let buf = [FLAG_TAKEN, 0, 0, 0];
        assert!(matches!(
            read_item(&mut buf.as_ref()),
            Err(TraceError::Corrupt(_))
        ));
        // EOF instead of a record.
        let buf: [u8; 0] = [];
        assert!(matches!(
            read_item(&mut buf.as_ref()),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn future_version_is_unsupported() {
        let mut buf = Vec::new();
        buf.extend_from_slice(BINARY_MAGIC);
        buf.push(99);
        assert!(matches!(
            read_header(&mut buf.as_slice()),
            Err(TraceError::Unsupported(_))
        ));
    }

    #[test]
    fn huge_program_length_is_corrupt_not_an_allocation() {
        // 11 bytes claiming a 1 TiB embedded program.
        let mut buf = Vec::new();
        buf.extend_from_slice(BINARY_MAGIC);
        buf.push(FORMAT_VERSION as u8);
        write_varint(&mut buf, 1 << 40).unwrap();
        assert_eq!(buf.len(), 11);
        assert!(matches!(
            read_header(&mut buf.as_slice()),
            Err(TraceError::Corrupt(_))
        ));
    }
}
