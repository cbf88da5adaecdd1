//! The daemon's frame decoders over hostile input: `split_frame` and
//! `decode_client` return `Ok` or a typed error on any bytes, never a
//! panic. Inputs start from nothing or from a valid client frame, then
//! take arbitrary bytes, overwrites and a cut. These run in debug under
//! `cargo test`, so integer overflow panics too.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use virtclust_svc::wire::{decode_client, encode_client, split_frame};
use virtclust_svc::{ClientMsg, JobSpec, Priority, Submit};

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
        let ok = catch_unwind(AssertUnwindSafe(|| {
            let mut rest = &buf[..];
            while let Ok(Some((msg_type, body, used))) = split_frame(rest) {
                assert!(used > 0 && used <= rest.len(), "split {used} of {}", rest.len());
                let _ = decode_client(msg_type, &body);
                rest = &rest[used..];
            }
        }))
        .is_ok();
        prop_assert!(ok, "panicked on {:?}", buf);
    }
}
