//! Command-line contract of the six harness binaries: every usage error
//! (an unknown, repeated or valueless flag, a malformed value or
//! environment variable, a bad command, subcommand or scheme) exits 2
//! with the offending flag or variable named on stderr, before any work.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const PROBE_IPC: &str = env!("CARGO_BIN_EXE_probe_ipc");
const THROUGHPUT: &str = env!("CARGO_BIN_EXE_throughput");
const TRACE_REPLAY: &str = env!("CARGO_BIN_EXE_trace_replay");
const LOADGEN: &str = env!("CARGO_BIN_EXE_loadgen");
const SERVE: &str = env!("CARGO_BIN_EXE_serve");
const PAPER: &str = env!("CARGO_BIN_EXE_paper");

/// Run `bin` on the words of `line`, where leading `VIRTCLUST_*=value`
/// words set the environment (the harness variables are otherwise unset)
/// and `TRACE` stands for the committed smoke trace. Assert it exits 2
/// naming `name` on stderr. A binary still running after a minute got
/// past argument parsing: it is killed and fails the test.
fn usage_error(bin: &str, line: &str, name: &str) {
    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/traces/smoke8.vct"
    );
    let mut cmd = Command::new(bin);
    for var in ["UOPS", "THREADS", "FAILPOINTS", "NO_SKIP"] {
        cmd.env_remove(format!("VIRTCLUST_{var}"));
    }
    for word in line.split_whitespace() {
        match word.split_once('=') {
            Some((var, value)) if var.starts_with("VIRTCLUST_") => cmd.env(var, value),
            _ => cmd.arg(if word == "TRACE" { trace } else { word }),
        };
    }
    let io = (Stdio::null(), Stdio::null(), Stdio::piped());
    let mut child = cmd.stdin(io.0).stdout(io.1).stderr(io.2).spawn().unwrap();
    let started = Instant::now();
    while child.try_wait().unwrap().is_none() {
        if started.elapsed() > Duration::from_secs(60) {
            child.kill().ok();
            panic!("{bin} {line} did not stop at argument parsing");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {line}: {stderr}");
    assert!(stderr.contains(name), "{bin} {line}: {stderr}");
}

#[test]
fn unknown_flags_are_usage_errors() {
    usage_error(PROBE_IPC, "--json --cluster 4", "--cluster");
    usage_error(THROUGHPUT, "--cluster 4", "--cluster");
    usage_error(TRACE_REPLAY, "compare TRACE --cluster 4", "--cluster");
    usage_error(LOADGEN, "--unix /no.sock --verfy", "--verfy");
    usage_error(SERVE, "--qouta 2 --cluster 4", "--qouta");
    usage_error(PAPER, "table1 --cluster 4", "--cluster");
    usage_error(THROUGHPUT, "--stages", "--stages");
    usage_error(THROUGHPUT, "--json-out x", "--json-out");
    usage_error(PROBE_IPC, "--json --metrics-out x", "--metrics-out");
}

#[test]
fn repeated_and_valueless_flags_are_usage_errors() {
    usage_error(PROBE_IPC, "--json --json", "--json");
    usage_error(THROUGHPUT, "--uops 10 --uops 20", "--uops");
    usage_error(
        TRACE_REPLAY,
        "compare TRACE --clusters 2 --clusters 2",
        "--clusters",
    );
    usage_error(LOADGEN, "--verify --verify", "--verify");
    usage_error(SERVE, "--tcp 127.0.0.1:0 --tcp 127.0.0.1:0", "--tcp");
    usage_error(PROBE_IPC, "--json --point", "--point");
    usage_error(LOADGEN, "--unix --verify", "--unix");
    usage_error(SERVE, "--unix", "--unix");
}

#[test]
fn malformed_values_are_usage_errors() {
    usage_error(PROBE_IPC, "--json --clusters 3", "--clusters");
    usage_error(THROUGHPUT, "--uops x", "--uops");
    usage_error(THROUGHPUT, "--runs 0", "--runs");
    usage_error(TRACE_REPLAY, "replay TRACE --uops x", "--uops");
    usage_error(TRACE_REPLAY, "compare TRACE --every 0", "--every");
    usage_error(LOADGEN, "--unix /no.sock --uops x", "--uops");
    usage_error(SERVE, "--tcp 127.0.0.1:0 --quota x", "--quota");
    for scheme in ["vc0", "mod0", "vc65", "nope"] {
        let line = format!("replay TRACE --scheme {scheme}");
        usage_error(TRACE_REPLAY, &line, "--scheme");
    }
}

#[test]
fn serve_rejects_bad_flags_before_it_binds() {
    let sock = std::env::temp_dir().join(format!("virtclust-cli-{}.sock", std::process::id()));
    let sock = sock.to_str().unwrap();
    usage_error(SERVE, &format!("--unix {sock} --clusters 3"), "--clusters");
    usage_error(SERVE, &format!("--unix {sock} --retries x"), "--retries");
    assert!(!std::path::Path::new(sock).exists(), "serve bound {sock}");
}

#[test]
fn malformed_environment_values_are_usage_errors() {
    usage_error(PAPER, "VIRTCLUST_UOPS=x fig5", "VIRTCLUST_UOPS");
    usage_error(PROBE_IPC, "VIRTCLUST_UOPS=x --json", "VIRTCLUST_UOPS");
    let threads = "VIRTCLUST_UOPS=100 VIRTCLUST_THREADS=two";
    usage_error(PAPER, &format!("{threads} fig5"), "VIRTCLUST_THREADS");
    let line = format!("{threads} --json --point mcf");
    usage_error(PROBE_IPC, &line, "VIRTCLUST_THREADS");
    let line = "VIRTCLUST_FAILPOINTS=nowhere=io@1 --json";
    usage_error(PROBE_IPC, line, "VIRTCLUST_FAILPOINTS");
}

#[test]
fn commands_operands_and_modes_are_checked() {
    usage_error(PAPER, "", "subcommand");
    usage_error(PAPER, "fig8", "fig8");
    usage_error(PAPER, "fig5 fig6", "subcommand");
    usage_error(TRACE_REPLAY, "", "missing command");
    usage_error(TRACE_REPLAY, "replay-all", "replay-all");
    usage_error(TRACE_REPLAY, "compare", "compare needs <file>");
    usage_error(TRACE_REPLAY, "replay TRACE --retries 1", "--retries");
    usage_error(PROBE_IPC, "--point mcf", "--point");
    usage_error(THROUGHPUT, "--trace TRACE --timeline t.json", "--timeline");
}
