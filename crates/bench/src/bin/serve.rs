//! The evaluation-service daemon: start a `virtclust-svc` server on a
//! Unix or TCP socket and run until a client sends a `Shutdown` frame.
//!
//! ```sh
//! cargo run --release -p virtclust-bench --bin serve -- --unix /tmp/vc.sock
//! cargo run --release -p virtclust-bench --bin serve -- --tcp 127.0.0.1:7077
//! ```
//!
//! Flags:
//!
//! * `--unix PATH` | `--tcp ADDR` — where to listen (exactly one);
//! * `--clusters 2|4|8` — machine preset (default 2);
//! * `--queue-cap N` / `--quota N` — admission bounds (submits beyond
//!   either bound bounce with `Busy`; nothing is buffered);
//! * `--retries N`, `--deadline-ms MS`, `--chaos SCHEDULE` — batch-engine
//!   resilience every job runs under (same flags as `probe_ipc`);
//! * `VIRTCLUST_THREADS` — worker-pool size (0/unset = all CPUs).
//!
//! On shutdown the daemon prints one JSON accounting line to stdout:
//! `{"daemon":"serve","accepted":…,"rejected":…,"completed":…}` — the CI
//! smoke job asserts exact accounting against `loadgen`'s view.

use virtclust_bench::{resilience_from_args, threads};
use virtclust_svc::ServerBuilder;
use virtclust_uarch::MachineConfig;

fn value_of<'a>(argv: &'a [String], flag: &str) -> Option<&'a String> {
    argv.iter().position(|a| a == flag).map(|i| {
        argv.get(i + 1)
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    })
}

fn usage(msg: &str) -> ! {
    eprintln!("serve: {msg}");
    eprintln!("usage: serve (--unix PATH | --tcp ADDR) [--clusters 2|4|8] [--queue-cap N] [--quota N] [--retries N] [--deadline-ms MS] [--chaos SCHEDULE]");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let machine = match value_of(&argv, "--clusters") {
        None => MachineConfig::paper_2cluster(),
        Some(v) => v
            .parse()
            .ok()
            .and_then(virtclust_bench::cluster_preset)
            .unwrap_or_else(|| usage(&format!("--clusters must be 2, 4 or 8, got {v}"))),
    };
    let resilience = resilience_from_args(&argv, "serve");
    let parse_n = |flag: &str| {
        value_of(&argv, flag).map(|v| {
            v.parse::<usize>()
                .unwrap_or_else(|_| usage(&format!("{flag} must be a count, got {v}")))
        })
    };
    let mut builder = ServerBuilder::new(&machine)
        .threads(threads())
        .options(resilience.opts);
    if let Some(n) = parse_n("--queue-cap") {
        builder = builder.queue_cap(n);
    }
    if let Some(n) = parse_n("--quota") {
        builder = builder.client_quota(n);
    }
    let mut server = builder.start();

    match (value_of(&argv, "--unix"), value_of(&argv, "--tcp")) {
        (Some(path), None) => {
            if let Err(e) = server.serve_unix(path) {
                eprintln!("serve: cannot listen on {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("serve: listening on unix socket {path}");
        }
        (None, Some(addr)) => match server.serve_tcp(addr) {
            Ok(bound) => eprintln!("serve: listening on tcp {bound}"),
            Err(e) => {
                eprintln!("serve: cannot listen on {addr}: {e}");
                std::process::exit(1);
            }
        },
        _ => usage("exactly one of --unix PATH or --tcp ADDR is required"),
    }

    // Runs until a client's Shutdown frame stops the scheduler; then the
    // worker pool drains, every connection flushes its results and
    // closes, and `join` stops the acceptor.
    let stats = match server.join() {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("serve: service error: {e}");
            std::process::exit(1);
        }
    };
    // Accounting line for the CI smoke job: every accepted job was
    // completed (with some outcome) by the time the pool drained.
    println!(
        "{{\"daemon\":\"serve\",\"accepted\":{},\"rejected\":{},\"completed\":{}}}",
        stats.accepted, stats.rejected, stats.completed,
    );
}
