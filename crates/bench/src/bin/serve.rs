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

use virtclust_bench::{threads, Cli};
use virtclust_svc::ServerBuilder;

const CLI: Cli = Cli {
    usage: "usage: serve (--unix PATH | --tcp ADDR) [--clusters 2|4|8] [--queue-cap N] [--quota N]\n             \
            [--retries N] [--deadline-ms MS] [--chaos SCHEDULE]",
    switches: "",
    values: "--unix --tcp --clusters --queue-cap --quota --retries --deadline-ms --chaos",
    operands: false,
};

fn main() {
    // Every usage error exits 2 here, before a worker starts or a socket
    // is bound.
    let args = CLI.parse();
    let machine = args.machine();
    let (unix, tcp) = (args.str("--unix"), args.str("--tcp"));
    if unix.is_some() == tcp.is_some() {
        args.fail("exactly one of --unix PATH or --tcp ADDR is required");
    }
    let queue_cap = args.value("--queue-cap");
    let quota = args.value("--quota");
    let mut builder = ServerBuilder::new(&machine)
        .threads(threads())
        .options(args.resilience().unwrap_or_default());
    if let Some(n) = queue_cap {
        builder = builder.queue_cap(n);
    }
    if let Some(n) = quota {
        builder = builder.client_quota(n);
    }
    let mut server = builder.start();

    if let Some(path) = unix {
        if let Err(e) = server.serve_unix(path) {
            eprintln!("serve: cannot listen on {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("serve: listening on unix socket {path}");
    } else {
        let addr = tcp.expect("exactly one listener flag");
        match server.serve_tcp(addr) {
            Ok(bound) => eprintln!("serve: listening on tcp {bound}"),
            Err(e) => {
                eprintln!("serve: cannot listen on {addr}: {e}");
                std::process::exit(1);
            }
        }
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
