//! Decoder properties over hostile input: every decoder at an untrusted
//! boundary returns `Ok` or a typed error, never a panic, and the trace
//! and kernel decoders never allocate much more than the bytes they were
//! given. The inputs are the committed corpus (`results/traces/`)
//! truncated, bit-flipped, overwritten, spliced, and with multi-byte
//! characters inserted at the start of tokens, plus arbitrary
//! fault-schedule strings. These run in debug under `cargo test`, so
//! integer overflow panics too.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use virtclust::core::fault::{FaultSchedule, SITES};
use virtclust::trace::{parse_kernel, Codec, TraceReader, TraceWriter};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::largest_alloc;

/// The most one decode of `len` input bytes may allocate at once: a
/// constant for buffers and tables, plus a small multiple of the input,
/// never a length or count the input claims.
fn alloc_bound(len: usize) -> usize {
    64 * 1024 + 4 * len
}

/// Decode `bytes` as a trace the way a replay does, one record at a time
/// until the end or the first error, and return the largest single
/// allocation that made.
fn trace_decode_peak(bytes: &[u8]) -> usize {
    let ((), largest) = largest_alloc(|| {
        if let Ok(mut reader) = TraceReader::new(Cursor::new(bytes)) {
            while let Ok(Some(_)) = reader.next_record() {}
        }
    });
    largest
}

/// One corruption of a byte string. Positions are taken modulo the
/// current length, so one strategy serves files of any size.
#[derive(Debug, Clone)]
enum Edit {
    /// Keep only the first `at` bytes.
    Truncate(usize),
    /// Flip one bit of the byte at `at`.
    FlipBit(usize, u8),
    /// Overwrite the bytes from `at` on.
    Overwrite(usize, Vec<u8>),
    /// Insert a copy of `len` bytes from `from` at `at`.
    Splice { from: usize, len: usize, at: usize },
    /// Insert a character at the first token start at or after `at`.
    MultiByte(usize, char),
}

/// Characters of two, three and four bytes, and the replacement
/// character that lossy decoding produces.
const WIDE: [char; 4] = ['é', '€', '𝄞', '\u{fffd}'];

fn edit() -> impl Strategy<Value = Edit> {
    let at = || 0usize..1 << 16;
    prop_oneof![
        at().prop_map(Edit::Truncate),
        (at(), 0u8..8).prop_map(|(at, bit)| Edit::FlipBit(at, bit)),
        (at(), prop::collection::vec(0u8..=255, 1..8)).prop_map(|(at, b)| Edit::Overwrite(at, b)),
        (at(), 1usize..256, at()).prop_map(|(from, len, at)| Edit::Splice { from, len, at }),
        (at(), 0usize..WIDE.len()).prop_map(|(at, c)| Edit::MultiByte(at, WIDE[c])),
    ]
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec(edit(), 1..4)
}

/// The first byte at or after `at` that starts a token (a non-space
/// byte at the start or after a space), or `at` if none does.
fn token_start(bytes: &[u8], at: usize) -> usize {
    (at..bytes.len())
        .find(|&i| {
            !bytes[i].is_ascii_whitespace() && (i == 0 || bytes[i - 1].is_ascii_whitespace())
        })
        .unwrap_or(at)
}

fn mutate(mut bytes: Vec<u8>, edits: &[Edit]) -> Vec<u8> {
    for edit in edits {
        let n = bytes.len();
        let pos = |at: usize| at % (n + 1);
        match *edit {
            Edit::Truncate(at) => bytes.truncate(pos(at)),
            Edit::FlipBit(at, bit) => {
                if n > 0 {
                    bytes[at % n] ^= 1 << bit;
                }
            }
            Edit::Overwrite(at, ref new) => {
                let at = pos(at);
                let end = (at + new.len()).min(n);
                bytes[at..end].copy_from_slice(&new[..end - at]);
            }
            Edit::Splice { from, len, at } => {
                let from = pos(from);
                let piece = bytes[from..(from + len).min(n)].to_vec();
                let at = pos(at);
                bytes.splice(at..at, piece);
            }
            Edit::MultiByte(at, c) => {
                let at = token_start(&bytes, pos(at));
                let mut utf8 = [0; 4];
                bytes.splice(at..at, c.encode_utf8(&mut utf8).bytes());
            }
        }
    }
    bytes
}

fn corpus(name: &str) -> Vec<u8> {
    let path = format!("{}/results/traces/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Whether `f` returned rather than panicked.
fn returns(f: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(f)).is_ok()
}

#[test]
fn a_trace_claiming_a_huge_record_count_allocates_little() {
    // gzip-1's 2 000 records under a header that claims a million: a
    // decoder that sized a buffer by the claim would exceed the bound.
    const CLAIMED: u64 = 1_000_000;
    let mut source = TraceReader::new(Cursor::new(corpus("gzip-1.vct"))).unwrap();
    let program = source.program().clone();
    let uops = source.read_all().unwrap();
    for codec in [Codec::Text, Codec::Binary] {
        let mut bytes = Vec::new();
        let mut writer = TraceWriter::new(&mut bytes, &program, codec, Some(CLAIMED)).unwrap();
        for u in &uops {
            writer.write_uop(u).unwrap();
        }
        writer.finish().unwrap();
        let largest = trace_decode_peak(&bytes);
        assert!(
            largest <= alloc_bound(bytes.len()),
            "{codec:?}: allocated {largest} bytes decoding {}",
            bytes.len()
        );
    }
}

/// Fault-schedule pieces: every site, the syntax's punctuation and kind
/// names, whitespace and a multi-byte character.
const PIECES: [&str; 13] = [
    "=", "@", "%", "~", ":", ",", " ", "io", "corrupt", "panic", "NaN", "inf", "é",
];

fn schedule_text() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        (0usize..SITES.len()).prop_map(|i| SITES[i].to_string()),
        (0usize..PIECES.len()).prop_map(|i| PIECES[i].to_string()),
        (0u64..u64::MAX).prop_map(|n| n.to_string()),
        (-2.0f64..2.0).prop_map(|p| p.to_string()),
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}').to_string()),
    ];
    prop::collection::vec(piece, 0..16).prop_map(|pieces| pieces.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Both codecs: the text trace and the binary one.
    #[test]
    fn trace_reader_never_panics_on_a_mutated_corpus(
        file in 0usize..2,
        edits in edits(),
    ) {
        let name = ["gzip-1.vct", "galgel.vctb"][file];
        let bytes = mutate(corpus(name), &edits);
        let mut largest = 0;
        let ok = returns(|| largest = trace_decode_peak(&bytes));
        prop_assert!(ok, "{} panicked under {:?}", name, edits);
        prop_assert!(
            largest <= alloc_bound(bytes.len()),
            "{} allocated {} bytes decoding {} under {:?}", name, largest, bytes.len(), edits
        );
    }

    // Kernel files reach the importer as text; invalid UTF-8 becomes the
    // replacement character.
    #[test]
    fn kernel_parser_never_panics_on_a_mutated_corpus(
        file in 0usize..2,
        edits in edits(),
    ) {
        let name = ["dotprod.kernel", "smoke8.kernel"][file];
        let bytes = mutate(corpus(name), &edits);
        let text = String::from_utf8_lossy(&bytes);
        let mut largest = 0;
        let ok = returns(|| largest = largest_alloc(|| parse_kernel(&text)).1);
        prop_assert!(ok, "{} panicked under {:?}", name, edits);
        prop_assert!(
            largest <= alloc_bound(text.len()),
            "{} allocated {} bytes parsing {} under {:?}", name, largest, text.len(), edits
        );
    }

    #[test]
    fn fault_schedule_parser_never_panics(text in schedule_text()) {
        let ok = returns(|| {
            let _ = FaultSchedule::parse(&text);
        });
        prop_assert!(ok, "panicked on {:?}", text);
    }
}
