//! Length-prefixed message framing over any byte stream — the wire
//! discipline of the trace format ([`crate::binary`]) lifted out for
//! reuse by stream protocols (the `virtclust-svc` evaluation service):
//! LEB128 varint framing, a version byte in the connection preamble, and
//! forward-compatible skipping of unknown message types.
//!
//! A connection opens with a caller-chosen 4-byte magic plus a version
//! byte; after that the stream is a sequence of self-delimiting frames:
//!
//! ```text
//! frame := varint(1 + body_len)  msg_type: u8  body bytes
//! ```
//!
//! The length prefix covers the type byte, so a reader that does not know
//! a `msg_type` can still consume the frame exactly and move on — the
//! same forward-compat posture as the trace format's versioned header.
//! A frame longer than its reader accepts (at most [`MAX_FRAME_LEN`]) is
//! rejected as [`TraceError::Corrupt`] before any of its body is read,
//! and a frame's buffer grows as its bytes arrive, so a garbled length
//! prefix cannot ask the reader for more memory than the stream delivers.
//!
//! ```
//! use virtclust_trace::frame;
//!
//! let mut buf = Vec::new();
//! frame::write_preamble(&mut buf, b"DEMO", 1).unwrap();
//! frame::write_frame(&mut buf, 7, b"payload").unwrap();
//! let mut r = buf.as_slice();
//! assert_eq!(frame::read_preamble(&mut r, b"DEMO", 1).unwrap(), 1);
//! let cap = frame::MAX_FRAME_LEN;
//! assert_eq!(frame::read_frame(&mut r, cap).unwrap(), Some((7, b"payload".to_vec())));
//! assert_eq!(frame::read_frame(&mut r, cap).unwrap(), None, "clean EOF");
//! ```

use std::io::{Read, Write};

use crate::binary::{read_varint, write_varint};
use crate::error::{Result, TraceError};

/// Hard upper bound on one frame's length (type byte + body). Large
/// enough for any legitimate message (job specs, per-cell stats, batch
/// summaries are all well under a megabyte); small enough that a corrupt
/// length prefix fails fast instead of allocating unboundedly.
pub const MAX_FRAME_LEN: u64 = 16 * 1024 * 1024;

/// The most [`read_frame`] allocates before a frame's bytes arrive; a
/// longer frame's buffer grows as they do.
const PREALLOC: u64 = 8 * 1024;

/// Write the connection preamble: 4-byte magic plus a version byte.
pub fn write_preamble<W: Write>(w: &mut W, magic: &[u8; 4], version: u8) -> Result<()> {
    w.write_all(magic)?;
    w.write_all(&[version])?;
    Ok(())
}

/// Read and verify the connection preamble. Returns the peer's version
/// byte; rejects a wrong magic as [`TraceError::Corrupt`] and a version
/// newer than `supported` as [`TraceError::Unsupported`] (older versions
/// are the caller's call — they are returned, not rejected).
pub fn read_preamble<R: Read>(r: &mut R, magic: &[u8; 4], supported: u8) -> Result<u8> {
    let mut got = [0u8; 4];
    r.read_exact(&mut got)
        .map_err(|_| TraceError::Corrupt("stream ends inside the preamble".into()))?;
    if &got != magic {
        return Err(TraceError::Corrupt(format!(
            "bad preamble magic {got:02x?} (expected {magic:02x?})"
        )));
    }
    let mut version = [0u8];
    r.read_exact(&mut version)
        .map_err(|_| TraceError::Corrupt("stream ends before the version byte".into()))?;
    if version[0] > supported {
        return Err(TraceError::Unsupported(format!(
            "peer speaks protocol version {} (this build supports up to {supported})",
            version[0]
        )));
    }
    Ok(version[0])
}

/// Write one frame: varint length prefix (covering the type byte), the
/// message type, the body. The frame is assembled first and leaves in one
/// `write_all`, so an unbuffered socket sees one write per frame.
pub fn write_frame<W: Write>(w: &mut W, msg_type: u8, body: &[u8]) -> Result<()> {
    let len = 1 + body.len() as u64;
    if len > MAX_FRAME_LEN {
        return Err(TraceError::Inconsistent(format!(
            "frame of {len} bytes exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})"
        )));
    }
    // A varint of a length up to MAX_FRAME_LEN takes at most 4 bytes.
    let mut frame = Vec::with_capacity(body.len() + 5);
    put_u64(&mut frame, len);
    frame.push(msg_type);
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    Ok(())
}

/// Read one frame of at most `max_len` bytes (type byte and body). Returns `Ok(None)` on a clean end of stream (EOF
/// exactly at a frame boundary); a stream that ends *inside* a frame, or
/// a length prefix past the cap, is [`TraceError::Corrupt`], the latter
/// before any of the body is read. Unknown message types are the caller's
/// to skip — the frame is already fully consumed, so ignoring the
/// returned pair is a correct skip.
pub fn read_frame<R: Read>(r: &mut R, max_len: u64) -> Result<Option<(u8, Vec<u8>)>> {
    // A clean EOF is only clean before the first length byte.
    let mut first = [0u8];
    match r.read(&mut first) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    // Decode the varint whose first byte we already hold.
    let len = if first[0] & 0x80 == 0 {
        u64::from(first[0])
    } else {
        let rest = read_varint(r)?;
        rest.checked_shl(7)
            .filter(|_| rest.leading_zeros() >= 7)
            .map(|hi| hi | u64::from(first[0] & 0x7f))
            .ok_or_else(|| TraceError::Corrupt("frame length varint overflows u64".into()))?
    };
    if len == 0 {
        return Err(TraceError::Corrupt(
            "zero-length frame (no type byte)".into(),
        ));
    }
    if len > max_len {
        return Err(TraceError::Corrupt(format!(
            "frame length {len} exceeds the reader's cap ({max_len})"
        )));
    }
    let mut payload = Vec::with_capacity(len.min(PREALLOC) as usize);
    let read = Read::take(&mut *r, len).read_to_end(&mut payload);
    if read.ok() != Some(len as usize) {
        return Err(TraceError::Corrupt("stream ends inside a frame".into()));
    }
    let body = payload.split_off(1);
    Ok(Some((payload[0], body)))
}

/// Append a varint-length-prefixed byte string to `out` (strings and blobs
/// inside frame bodies).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    // Writing to a Vec cannot fail.
    let _ = write_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Append a varint to `out`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    let _ = write_varint(out, v);
}

/// Read a varint-length-prefixed byte string from the front of a frame
/// body, advancing `body` past it. A length longer than what is left of
/// the body is refused before anything is allocated.
pub fn take_bytes(body: &mut &[u8]) -> Result<Vec<u8>> {
    let len = read_varint(body)?;
    if len > MAX_FRAME_LEN {
        return Err(TraceError::Corrupt(format!(
            "byte string of {len} bytes inside a frame"
        )));
    }
    if len > body.len() as u64 {
        return Err(TraceError::Corrupt("truncated byte string".into()));
    }
    let (bytes, rest) = body.split_at(len as usize);
    *body = rest;
    Ok(bytes.to_vec())
}

/// Read a varint-length-prefixed UTF-8 string from the front of a frame
/// body, like [`take_bytes`].
pub fn take_string(body: &mut &[u8]) -> Result<String> {
    String::from_utf8(take_bytes(body)?)
        .map_err(|_| TraceError::Corrupt("byte string is not UTF-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(r: &mut &[u8]) -> Result<Option<(u8, Vec<u8>)>> {
        read_frame(r, MAX_FRAME_LEN)
    }

    #[test]
    fn frames_roundtrip_and_end_cleanly() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"").unwrap();
        write_frame(&mut buf, 200, &[0u8; 300]).unwrap();
        write_frame(&mut buf, 7, b"hello").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read(&mut r).unwrap(), Some((1, Vec::new())));
        assert_eq!(read(&mut r).unwrap(), Some((200, vec![0u8; 300])));
        assert_eq!(read(&mut r).unwrap(), Some((7, b"hello".to_vec())));
        assert_eq!(read(&mut r).unwrap(), None);
        assert_eq!(read(&mut r).unwrap(), None, "EOF is sticky");
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        /// Counts `write` calls and keeps the bytes.
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        for body_len in [0, 10, 200, 70_000] {
            let body = vec![0xA5; body_len];
            let mut w = Counting::default();
            write_frame(&mut w, 9, &body).unwrap();
            assert_eq!(w.writes, 1, "a {body_len}-byte body");
            // The same bytes as a length prefix, the type, the body.
            let mut expected = Vec::new();
            put_u64(&mut expected, 1 + body_len as u64);
            expected.push(9);
            expected.extend_from_slice(&body);
            assert_eq!(w.bytes, expected);
        }
    }

    #[test]
    fn unknown_types_are_skippable_by_construction() {
        // A reader that ignores a frame it does not understand is exactly
        // aligned for the next one.
        let mut buf = Vec::new();
        write_frame(&mut buf, 250, b"from the future").unwrap();
        write_frame(&mut buf, 1, b"known").unwrap();
        let mut r = buf.as_slice();
        let (t, _) = read(&mut r).unwrap().unwrap();
        assert_eq!(t, 250); // caller shrugs and drops it
        assert_eq!(read(&mut r).unwrap(), Some((1, b"known".to_vec())));
    }

    #[test]
    fn truncated_frames_are_corrupt_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, b"abcdef").unwrap();
        let cut = &buf[..buf.len() - 2];
        let mut r = cut;
        assert!(matches!(read(&mut r), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn oversized_and_zero_frames_are_rejected() {
        let mut buf = Vec::new();
        write_varint(&mut buf, MAX_FRAME_LEN + 1).unwrap();
        assert!(matches!(
            read(&mut buf.as_slice()),
            Err(TraceError::Corrupt(_))
        ));
        let mut buf = Vec::new();
        write_varint(&mut buf, 0).unwrap();
        assert!(matches!(
            read(&mut buf.as_slice()),
            Err(TraceError::Corrupt(_))
        ));
        // The writer refuses to emit one too.
        assert!(write_frame(&mut Vec::new(), 0, &vec![0u8; MAX_FRAME_LEN as usize]).is_err());
        // A reader's own cap counts the type byte.
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, &[0u8; 16]).unwrap();
        assert!(read_frame(&mut buf.as_slice(), 16).is_err());
        assert!(read_frame(&mut buf.as_slice(), 17).unwrap().is_some());
    }

    #[test]
    fn preamble_verifies_magic_and_version() {
        let mut buf = Vec::new();
        write_preamble(&mut buf, b"VCSV", 1).unwrap();
        assert_eq!(read_preamble(&mut buf.as_slice(), b"VCSV", 1).unwrap(), 1);
        assert!(matches!(
            read_preamble(&mut buf.as_slice(), b"XXXX", 1),
            Err(TraceError::Corrupt(_))
        ));
        let mut newer = Vec::new();
        write_preamble(&mut newer, b"VCSV", 9).unwrap();
        assert!(matches!(
            read_preamble(&mut newer.as_slice(), b"VCSV", 1),
            Err(TraceError::Unsupported(_))
        ));
        // Older peers are returned, not rejected (caller's policy).
        let mut older = Vec::new();
        write_preamble(&mut older, b"VCSV", 0).unwrap();
        assert_eq!(read_preamble(&mut older.as_slice(), b"VCSV", 1).unwrap(), 0);
    }

    #[test]
    fn body_helpers_roundtrip() {
        let mut body = Vec::new();
        put_u64(&mut body, 300);
        put_bytes(&mut body, b"name");
        put_u64(&mut body, 0);
        let mut r = body.as_slice();
        assert_eq!(read_varint(&mut r).unwrap(), 300);
        assert_eq!(take_string(&mut r).unwrap(), "name");
        assert_eq!(read_varint(&mut r).unwrap(), 0);
        assert!(
            matches!(take_bytes(&mut r), Err(TraceError::Corrupt(_)),),
            "reading past the body is corrupt"
        );
    }
}
