//! The daemon's frame decoders over hostile input: `split_frame` and
//! `decode_client` return `Ok` or a typed error on any bytes, never a
//! panic, and never allocate much more than the bytes they were given.
//! Inputs start from nothing or from a valid client frame, then take
//! arbitrary bytes, overwrites and a cut. These run in debug under
//! `cargo test`, so integer overflow panics too.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use virtclust_svc::wire::{decode_client, encode_client, msg, split_frame};
use virtclust_svc::{ClientMsg, JobSpec, Priority, Submit};
use virtclust_trace::frame::{read_frame, MAX_FRAME_LEN};
use virtclust_trace::TraceError;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::largest_alloc;

/// A length prefix that claims 16 MiB, the most a frame may hold.
const CLAIMS_16_MIB: [u8; 4] = [0x80, 0x80, 0x80, 0x08];

#[test]
fn a_submit_claiming_a_16_mib_name_allocates_little() {
    // ticket 1, priority High, no deadline, a Point spec whose name
    // claims 16 MiB: 8 bytes in all.
    let mut body = vec![1, 0, 0, 0];
    body.extend_from_slice(&CLAIMS_16_MIB);
    assert_eq!(body.len(), 8);
    let (decoded, largest) = largest_alloc(|| decode_client(msg::SUBMIT, &body));
    match decoded {
        Err(TraceError::Corrupt(m)) => assert_eq!(m, "truncated byte string"),
        other => panic!("expected a truncated byte string, got {other:?}"),
    }
    assert!(largest < 64 * 1024, "allocated {largest} bytes");
}

#[test]
fn a_frame_claiming_16_mib_on_an_8_byte_stream_allocates_little() {
    let mut stream = CLAIMS_16_MIB.to_vec();
    stream.extend_from_slice(&[msg::SUBMIT, 1, 0, 0]);
    assert_eq!(stream.len(), 8);
    let (read, largest) = largest_alloc(|| read_frame(&mut stream.as_slice(), MAX_FRAME_LEN));
    match read {
        Err(TraceError::Corrupt(m)) => assert_eq!(m, "stream ends inside a frame"),
        other => panic!("expected a cut frame, got {other:?}"),
    }
    assert!(largest < 64 * 1024, "allocated {largest} bytes");
}

/// A valid frame to corrupt, or none.
fn seed_frame(which: usize) -> Vec<u8> {
    let msg = match which {
        0 => return Vec::new(),
        1 => ClientMsg::Submit(Submit {
            ticket: 7,
            priority: Priority::High,
            deadline_ms: 250,
            spec: JobSpec::Kernel {
                path: "results/traces/dotprod.kernel".into(),
                seed: 3,
                scheme: "vc2".into(),
                uops: 2_000,
            },
        }),
        2 => ClientMsg::Submit(Submit {
            ticket: u64::MAX,
            priority: Priority::Low,
            deadline_ms: 0,
            spec: JobSpec::Point {
                name: "gzip-1".into(),
                scheme: "rhop".into(),
                uops: u64::MAX,
            },
        }),
        3 => ClientMsg::CancelAll,
        _ => ClientMsg::GetStats,
    };
    let mut frame = Vec::new();
    encode_client(&mut frame, &msg).unwrap();
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn frame_decoders_never_panic_on_arbitrary_bytes(
        which in 0usize..5,
        tail in prop::collection::vec(0u8..=255, 0..48),
        overwrites in prop::collection::vec((0usize..1 << 10, 0u8..=255), 0..6),
        cut in 0usize..1 << 10,
    ) {
        let mut buf = seed_frame(which);
        buf.extend_from_slice(&tail);
        for &(at, byte) in &overwrites {
            let n = buf.len();
            if n > 0 {
                buf[at % n] = byte;
            }
        }
        // Half the time keep everything; otherwise cut somewhere.
        if cut % 2 == 1 {
            buf.truncate(cut % (buf.len() + 1));
        }
        let mut largest = 0;
        let ok = catch_unwind(AssertUnwindSafe(|| {
            let mut rest = &buf[..];
            loop {
                let (used, size) = largest_alloc(|| match split_frame(rest) {
                    Ok(Some((msg_type, body, used))) => {
                        let _ = decode_client(msg_type, &body);
                        Some(used)
                    }
                    _ => None,
                });
                largest = largest.max(size);
                let Some(used) = used else { break };
                assert!(used > 0 && used <= rest.len(), "split {used} of {}", rest.len());
                rest = &rest[used..];
            }
        }))
        .is_ok();
        prop_assert!(ok, "panicked on {:?}", buf);
        prop_assert!(
            largest <= buf.len() + 4096,
            "allocated {largest} bytes decoding {} bytes: {:?}", buf.len(), buf
        );
    }
}
