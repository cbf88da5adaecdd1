//! Service-layer integration over sockets: determinism across arrival
//! orders, backpressure isolation, cancellation, Unix and TCP round-trips
//! held bit-identical to a direct batch-engine run, and a daemon that
//! outlives hostile clients, undecodable job files and job paths that
//! are not regular files.

use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use virtclust_core::{EvalDriver, EvalJob, ResilientOptions};
use virtclust_svc::wire::{decode_server, encode_client, recv_preamble, send_preamble};
use virtclust_svc::{
    resolve_spec, stats_digest, BusyReason, Client, ClientMsg, JobSpec, Priority, Server,
    ServerBuilder, ServerMsg, Submit, CANCELLED_BEFORE_START, MAX_CLIENT_FRAME_LEN,
};
use virtclust_trace::frame::{put_u64, read_frame, MAX_FRAME_LEN};
use virtclust_uarch::MachineConfig;

const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// A small mixed schedule: suite points across Table 3 schemes plus a
/// trace replay from the committed corpus.
fn mixed_specs() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for point in ["gzip-1", "mcf", "crafty"] {
        for scheme in ["OP", "1C", "VC2"] {
            specs.push(JobSpec::Point {
                name: point.into(),
                scheme: scheme.into(),
                uops: 2_000,
            });
        }
    }
    specs.push(JobSpec::Trace {
        path: trace_path("smoke8.vct"),
        scheme: "OP".into(),
        max_uops: 0,
    });
    specs
}

fn trace_path(name: &str) -> String {
    // Integration tests run with the crate as cwd; the corpus lives at
    // the repo root.
    let p = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/traces")
        .join(name);
    p.to_string_lossy().into_owned()
}

/// Digests of the same specs run directly through the batch engine.
fn direct_digests(specs: &[JobSpec]) -> Vec<u64> {
    let jobs: Vec<EvalJob> = specs.iter().map(|s| resolve_spec(s).unwrap()).collect();
    let machine = MachineConfig::paper_2cluster();
    let (outcomes, _) = EvalDriver::new(&machine).threads(2).run_resilient(
        &jobs,
        &ResilientOptions::new(),
        |_, _| {},
    );
    outcomes
        .iter()
        .map(|o| stats_digest(o.stats.as_ref().expect("direct run cannot fail")))
        .collect()
}

/// A server started from `builder` and listening on a fresh Unix socket
/// for the test named `name`.
fn unix_server(name: &str, builder: ServerBuilder) -> (Server, PathBuf) {
    let sock = sock_path(name);
    let mut server = builder.start();
    server.serve_unix(&sock).unwrap();
    (server, sock)
}

/// A normal-priority submit of `spec` with no deadline.
fn normal(ticket: u64, spec: &JobSpec) -> Submit {
    Submit {
        ticket,
        priority: Priority::Normal,
        deadline_ms: 0,
        spec: spec.clone(),
    }
}

/// A suite-point spec under OP.
fn op_point(name: &str, uops: u64) -> JobSpec {
    JobSpec::Point {
        name: name.into(),
        scheme: "OP".into(),
        uops,
    }
}

/// Fail on any reply but `Accepted`.
fn accepted(msg: ServerMsg) {
    assert!(matches!(msg, ServerMsg::Accepted { .. }), "{msg:?}");
}

#[test]
fn arrival_order_does_not_change_the_result_set() {
    let specs = mixed_specs();
    let mut digests = Vec::new();
    for reversed in [false, true] {
        let builder = ServerBuilder::new(&MachineConfig::paper_2cluster()).threads(2);
        let (server, sock) = unix_server(&format!("order-{reversed}"), builder);
        let mut client = Client::connect_unix(&sock).unwrap();
        let order: Vec<usize> = if reversed {
            (0..specs.len()).rev().collect()
        } else {
            (0..specs.len()).collect()
        };
        for &i in &order {
            client.submit(&normal(i as u64, &specs[i])).unwrap();
        }
        let mut got = HashMap::new();
        while got.len() < specs.len() {
            let r = client.recv_result(accepted).unwrap().expect("server alive");
            got.insert(r.ticket, r.outcome.expect("job ok").digest);
        }
        digests.push(got);
        server.shutdown();
        server.join().unwrap();
    }
    assert_eq!(
        digests[0], digests[1],
        "per-cell results must not depend on arrival order"
    );
}

#[test]
fn over_quota_client_bounces_without_perturbing_others() {
    // One worker and one slow job keep the queue occupied long enough to
    // exercise the quota deterministically.
    let builder = ServerBuilder::new(&MachineConfig::paper_2cluster())
        .threads(1)
        .client_quota(2);
    let (server, sock) = unix_server("quota", builder);
    let mut greedy = Client::connect_unix(&sock).unwrap();
    let mut modest = Client::connect_unix(&sock).unwrap();
    let job = op_point("gzip-1", 50_000);
    // The greedy client fills its quota plus the worker...
    for t in 0..8 {
        greedy.submit(&normal(t, &job)).unwrap();
    }
    let (mut admitted, mut busy, mut done) = (0, 0, 0);
    while admitted + busy < 8 {
        match greedy.recv().unwrap().expect("server alive") {
            ServerMsg::Accepted { .. } => admitted += 1,
            ServerMsg::Busy {
                reason: BusyReason::OverQuota,
                ..
            } => busy += 1,
            ServerMsg::Result(r) => {
                assert!(r.outcome.is_ok());
                done += 1;
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert!(busy > 0, "quota never engaged");
    // ...and the modest client still gets in regardless.
    modest.submit(&normal(100, &job)).unwrap();
    let r = modest
        .recv_result(accepted)
        .unwrap()
        .expect("modest result");
    assert_eq!(r.ticket, 100);
    assert!(r.outcome.is_ok());
    while done < admitted {
        let r = greedy
            .recv_result(accepted)
            .unwrap()
            .expect("greedy result");
        assert!(r.outcome.is_ok());
        done += 1;
    }
    greedy.get_stats().unwrap();
    match greedy.recv().unwrap().expect("stats frame") {
        ServerMsg::Stats(stats) => {
            assert_eq!(stats.rejected, busy);
            assert_eq!(stats.accepted, admitted + 1);
            assert_eq!(stats.completed, admitted + 1);
            assert_eq!(stats.queued, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    server.shutdown();
    server.join().unwrap();
}

#[test]
fn cancel_all_reports_queued_jobs_cancelled() {
    let builder = ServerBuilder::new(&MachineConfig::paper_2cluster()).threads(1);
    let (server, sock) = unix_server("cancel", builder);
    let mut client = Client::connect_unix(&sock).unwrap();
    // A long job pins the single worker; everything behind it stays
    // queued until the cancel.
    for t in 0..4 {
        client
            .submit(&normal(t, &op_point("mcf", 500_000)))
            .unwrap();
    }
    client.cancel_all().unwrap();
    let mut cancelled_before_start = 0;
    let mut stopped = 0;
    for _ in 0..4 {
        let r = client
            .recv_result(accepted)
            .unwrap()
            .expect("all jobs report");
        match r.outcome {
            Err(e) if e == CANCELLED_BEFORE_START => cancelled_before_start += 1,
            Err(e) if e.contains("cancelled") => stopped += 1,
            Ok(_) => stopped += 1, // the running job may finish first
            Err(e) => panic!("unexpected outcome: {e}"),
        }
    }
    assert!(
        cancelled_before_start >= 2,
        "queued jobs should cancel before starting (got {cancelled_before_start})"
    );
    assert_eq!(cancelled_before_start + stopped, 4);
    server.shutdown();
    server.join().unwrap();
}

#[test]
fn cancel_all_cancels_a_job_a_worker_just_dequeued() {
    // One worker, idle at each submit, so the CancelAll lands while the
    // job is queued, being dequeued or running. Each round's budget is a
    // new key (no result-table hit), and a run to completion would take
    // seconds: every result must be a cancellation.
    let builder = ServerBuilder::new(&MachineConfig::paper_2cluster()).threads(1);
    let (server, sock) = unix_server("cancel-race", builder);
    let mut client = Client::connect_unix(&sock).unwrap();
    for round in 0..1_000 {
        client
            .submit(&normal(round, &op_point("mcf", 5_000_000 + round)))
            .unwrap();
        client.cancel_all().unwrap();
        let r = client.recv_result(accepted).unwrap().expect("server alive");
        assert_eq!(r.ticket, round);
        match r.outcome {
            Err(e) if e == CANCELLED_BEFORE_START || e == "job cancelled" => {}
            other => panic!("round {round} was not cancelled: {other:?}"),
        }
    }
    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!((stats.accepted, stats.completed), (1_000, 1_000));
}

/// Submit a kernel job naming `kernel`, then `Shutdown`, to a fresh daemon
/// over a raw connection, and return the error of the job's `Result`. The
/// connection has a read timeout, so a daemon that never answers fails the
/// test instead of hanging it; the daemon must then close the connection
/// and join cleanly.
fn kernel_submit_error(name: &str, kernel: &Path) -> String {
    let builder = ServerBuilder::new(&MachineConfig::paper_2cluster()).threads(1);
    let (server, sock) = unix_server(name, builder);
    let mut conn = handshake(&sock);
    conn.set_read_timeout(Some(RECV_TIMEOUT)).unwrap();
    let spec = JobSpec::Kernel {
        path: kernel.to_string_lossy().into_owned(),
        seed: 1,
        scheme: "OP".into(),
        uops: 1_000,
    };
    let mut frames = Vec::new();
    encode_client(&mut frames, &ClientMsg::Submit(normal(7, &spec))).unwrap();
    encode_client(&mut frames, &ClientMsg::Shutdown).unwrap();
    conn.write_all(&frames).unwrap();
    let (msg_type, body) = read_frame(&mut conn, MAX_FRAME_LEN)
        .unwrap()
        .expect("a reply");
    let err = match decode_server(msg_type, &body).unwrap() {
        Some(ServerMsg::Result(r)) => {
            assert_eq!(r.ticket, 7);
            r.outcome.expect_err("the kernel cannot run")
        }
        other => panic!("expected a Result frame, got {other:?}"),
    };
    assert!(
        read_frame(&mut conn, MAX_FRAME_LEN).unwrap().is_none(),
        "EOF after shutdown"
    );
    server.join().expect("every daemon thread survived");
    err
}

#[test]
fn a_kernel_file_with_a_multi_byte_register_gets_an_error_result() {
    let dir = std::env::temp_dir().join(format!("virtclust-svc-utf8-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = dir.join("utf8.kernel");
    std::fs::write(&kernel, "i alu é1 = r1 r2\n").unwrap();
    let err = kernel_submit_error("utf8", &kernel);
    assert!(err.contains("bad register"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_fifo_kernel_path_gets_an_error_result_at_once() {
    let dir = std::env::temp_dir().join(format!("virtclust-svc-fifo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fifo = dir.join("fifo.kernel");
    let status = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("mkfifo runs");
    assert!(status.success(), "mkfifo {}", fifo.display());
    // Opening the FIFO would block the connection's reader thread until a
    // writer appeared; the path must be refused before any open.
    let err = kernel_submit_error("fifo", &fifo);
    assert!(err.contains("not a regular file"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Where a socket test's server listens.
enum Transport {
    Unix(PathBuf),
    Tcp(&'static str),
}

/// A fresh Unix socket path for the test named `name`.
fn sock_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("virtclust-svc-{name}-{}.sock", std::process::id()))
}

/// Run the mixed schedule over one socket connection: digests must equal
/// a direct driver run, each ticket's `Accepted` must precede its
/// `Result`, and a wire shutdown must end in EOF and a clean `join`.
fn socket_round_trip(transport: Transport) {
    let specs = mixed_specs();
    let expected = direct_digests(&specs);
    let mut server = ServerBuilder::new(&MachineConfig::paper_2cluster())
        .threads(2)
        .start();
    let mut client = match &transport {
        Transport::Unix(sock) => {
            server.serve_unix(sock).unwrap();
            Client::connect_unix(sock).unwrap()
        }
        Transport::Tcp(addr) => {
            let bound = server.serve_tcp(addr).unwrap();
            Client::connect_tcp(&bound.to_string()).unwrap()
        }
    };
    for (i, spec) in specs.iter().enumerate() {
        client.submit(&normal(i as u64, spec)).unwrap();
    }
    let mut accepted = HashSet::new();
    let mut results = HashMap::new();
    while results.len() < specs.len() {
        match client.recv().unwrap().expect("server alive") {
            ServerMsg::Accepted { ticket } => assert!(accepted.insert(ticket)),
            ServerMsg::Result(r) => {
                assert!(
                    accepted.contains(&r.ticket),
                    "ticket {} got its Result before its Accepted",
                    r.ticket
                );
                let stats = r.outcome.expect("job ok");
                results.insert(r.ticket, stats);
            }
            other => panic!("unexpected message: {other:?}"),
        }
    }
    assert_eq!(accepted.len(), specs.len());
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(
            results[&(i as u64)].digest,
            *want,
            "job {i} differs from direct run over the socket"
        );
    }
    // Stats snapshot over the wire.
    client.get_stats().unwrap();
    match client.recv().unwrap().expect("stats frame") {
        ServerMsg::Stats(s) => {
            assert_eq!(s.accepted, specs.len() as u64);
            assert_eq!(s.completed, specs.len() as u64);
            assert_eq!(s.inflight, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    // Wire shutdown stops the daemon; the connection closes before
    // anyone calls `join`.
    client.shutdown().unwrap();
    assert!(client.recv().unwrap().is_none(), "EOF after shutdown");
    server.join().unwrap();
    if let Transport::Unix(sock) = transport {
        assert!(!sock.exists(), "socket file removed on exit");
    }
}

#[test]
fn unix_socket_round_trip_is_bit_identical_and_shuts_down() {
    socket_round_trip(Transport::Unix(sock_path("round-trip")));
}

#[test]
fn tcp_socket_round_trip_is_bit_identical_and_shuts_down() {
    socket_round_trip(Transport::Tcp("127.0.0.1:0"));
}

/// A raw connection past the preamble exchange.
fn handshake(sock: &Path) -> UnixStream {
    let mut s = UnixStream::connect(sock).unwrap();
    send_preamble(&mut s).unwrap();
    recv_preamble(&mut s).unwrap();
    s
}

/// Whether the daemon closed `s`: reading it to the end neither hangs
/// nor times out.
fn closed_by_daemon(mut s: UnixStream) -> bool {
    s.set_read_timeout(Some(RECV_TIMEOUT)).unwrap();
    match s.read_to_end(&mut Vec::new()) {
        Ok(_) => true,
        Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
    }
}

#[test]
fn hostile_clients_neither_stop_nor_skew_the_daemon() {
    let specs = mixed_specs();
    let expected = direct_digests(&specs);
    let sock = sock_path("hostile");
    // A small quota bounces most of the flood below, so little of it runs.
    let mut server = ServerBuilder::new(&MachineConfig::paper_2cluster())
        .threads(2)
        .client_quota(2)
        .start();
    server.serve_unix(&sock).unwrap();

    let mut wrong_preamble = UnixStream::connect(&sock).unwrap();
    wrong_preamble.write_all(b"NOPE\x01").unwrap();

    let mut oversized = handshake(&sock);
    let mut prefix = Vec::new();
    put_u64(&mut prefix, MAX_FRAME_LEN + 1);
    oversized.write_all(&prefix).unwrap();

    let submit = |ticket| {
        let mut frame = Vec::new();
        let spec = JobSpec::Point {
            name: "gzip-1".into(),
            scheme: "OP".into(),
            uops: 200,
        };
        encode_client(
            &mut frame,
            &ClientMsg::Submit(Submit {
                ticket,
                priority: Priority::Low,
                deadline_ms: 0,
                spec,
            }),
        )
        .unwrap();
        frame
    };
    let mut half_frame = handshake(&sock);
    let frame = submit(0);
    half_frame.write_all(&frame[..frame.len() / 2]).unwrap();
    drop(half_frame);

    // Submit without ever reading. Once the replies fill the socket and
    // the outbox, the daemon stops reading this client and a write times
    // out (a broken pipe instead means it read on until it dropped us).
    let mut flooder = handshake(&sock);
    flooder
        .set_write_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let mut ticket = 0;
    let stall = (0..1_000).find_map(|_| {
        let chunk: Vec<u8> = (0..1_000)
            .flat_map(|_| {
                ticket += 1;
                submit(ticket)
            })
            .collect();
        flooder.write_all(&chunk).err()
    });
    assert!(
        matches!(
            stall.as_ref().map(std::io::Error::kind),
            Some(ErrorKind::WouldBlock | ErrorKind::TimedOut)
        ),
        "after {ticket} submits from a client that never reads: {stall:?}"
    );

    assert!(
        closed_by_daemon(wrong_preamble),
        "wrong preamble not refused"
    );
    assert!(closed_by_daemon(oversized), "oversized frame not refused");

    // Idle clients past the connection cap (64): open handshaked ones
    // until the daemon closes one without greeting it, which must happen
    // before 65 are open.
    let mut idle = Vec::new();
    loop {
        assert!(idle.len() < 65, "65 idle connections accepted");
        let mut s = UnixStream::connect(&sock).unwrap();
        s.set_read_timeout(Some(RECV_TIMEOUT)).unwrap();
        match s.read_exact(&mut [0u8; 5]) {
            Ok(()) => {
                send_preamble(&mut s).unwrap();
                idle.push(s);
            }
            Err(e) => {
                assert!(
                    !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                    "connection {} neither greeted nor closed",
                    idle.len() + 1
                );
                break;
            }
        }
    }
    // The daemon retires the idle connections as their readers see EOF;
    // until then a new client may still be turned away.
    drop(idle);
    let give_up = Instant::now() + RECV_TIMEOUT;

    // A well-behaved client, one job at a time to stay inside the quota.
    let mut client = loop {
        match Client::connect_unix(&sock) {
            Ok(client) => break client,
            Err(_) if Instant::now() < give_up => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("daemon still full after the idle clients left: {e}"),
        }
    };
    for (i, (spec, want)) in specs.iter().zip(&expected).enumerate() {
        client.submit(&normal(i as u64, spec)).unwrap();
        let r = client
            .recv_result(|m| assert_eq!(m, ServerMsg::Accepted { ticket: i as u64 }))
            .unwrap()
            .expect("server alive");
        assert_eq!(r.ticket, i as u64);
        assert_eq!(r.outcome.expect("job ok").digest, *want, "job {i} differs");
    }

    // The flooder never reads: its stalled writer must not keep `join`
    // from returning.
    server.shutdown();
    server.join().unwrap();
    assert!(!sock.exists(), "socket file removed on exit");
    drop(flooder);
}

#[test]
fn a_client_frame_past_the_cap_ends_its_connection_at_once() {
    let builder = ServerBuilder::new(&MachineConfig::paper_2cluster()).threads(1);
    let (server, sock) = unix_server("frame-cap", builder);
    let mut client = Client::connect_unix(&sock).unwrap();
    // A length prefix one byte over the cap and no body: a reader that
    // waited for the body would hold the connection until the read here
    // timed out.
    let mut oversized = handshake(&sock);
    let mut prefix = Vec::new();
    put_u64(&mut prefix, MAX_CLIENT_FRAME_LEN + 1);
    oversized.write_all(&prefix).unwrap();
    assert!(closed_by_daemon(oversized), "oversized frame not refused");

    client
        .submit(&normal(1, &op_point("gzip-1", 2_000)))
        .unwrap();
    let r = client.recv_result(accepted).unwrap().expect("server alive");
    assert!(r.outcome.is_ok(), "{:?}", r.outcome);
    server.shutdown();
    server.join().expect("every daemon thread survived");
}
