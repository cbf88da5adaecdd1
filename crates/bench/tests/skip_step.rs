//! Cycle skipping is bit-identical to stepping at the harness surface:
//! `probe_ipc --json` prints the same bytes with skipping on and with
//! `VIRTCLUST_NO_SKIP=1`. Under `cargo test` the binary is a debug build,
//! so every skipped span is also single-stepped by the skip mirror.

use std::process::Command;

const PROBE_IPC: &str = env!("CARGO_BIN_EXE_probe_ipc");

/// `probe_ipc --json --point <point>` at 2 000 micro-ops on one worker,
/// stepping every cycle when `no_skip` is set. Returns stdout.
fn probe(point: &str, no_skip: bool) -> String {
    let mut cmd = Command::new(PROBE_IPC);
    cmd.args(["--json", "--point", point])
        .env("VIRTCLUST_UOPS", "2000")
        .env("VIRTCLUST_THREADS", "1")
        .env_remove("VIRTCLUST_FAILPOINTS")
        .env_remove("VIRTCLUST_NO_SKIP");
    if no_skip {
        cmd.env("VIRTCLUST_NO_SKIP", "1");
    }
    let out = cmd.output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "probe_ipc --point {point}: {stderr}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn probe_ipc_json_is_byte_identical_with_skipping_on_and_off() {
    for point in ["mcf", "gzip-1"] {
        let skip = probe(point, false);
        let step = probe(point, true);
        // Five Table 3 rows plus the aggregate.
        assert_eq!(skip.lines().count(), 6, "{point}:\n{skip}");
        assert_eq!(skip, step, "{point}: skipping diverged from stepping");
    }
}
