//! Open-loop load generator for the evaluation service: replays a
//! deterministic mixed schedule (suite points / imported kernels / trace
//! replays) against a running `serve` daemon, measures sustained uops/s
//! and ok-vs-failed job-latency percentiles, and optionally verifies
//! every successful cell bit-identical against a direct
//! [`EvalDriver::run_resilient`] that runs each distinct job once.
//!
//! ```sh
//! cargo run --release -p virtclust-bench --bin serve -- --unix /tmp/vc.sock &
//! cargo run --release -p virtclust-bench --bin loadgen -- \
//!   --unix /tmp/vc.sock --jobs 10000 --verify --shutdown
//! ```
//!
//! Flags: `--jobs N` (default 10000), `--uops N` (per-point budget,
//! default 2000, `VIRTCLUST_UOPS` also respected), `--traces DIR`
//! (kernel/trace corpus, default `results/traces`), `--rate R`
//! (submissions/sec; 0 = as fast as possible), `--priority-mix`
//! (cycle High/Normal/Low instead of all-Normal), `--verify`,
//! `--shutdown` (stop the daemon afterwards).
//!
//! The submission side never waits for results (open loop): a `Busy`
//! bounce is counted, not retried — the backpressure demonstration.
//! Accounting is exact: every submitted ticket resolves to exactly one
//! of accepted→result, busy, or immediate-error result, and the summary
//! line reports all of them.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use virtclust_bench::{uop_budget, Cli};
use virtclust_core::{EvalDriver, EvalJob, ResilientOptions};
use virtclust_obs::Log2Hist;
use virtclust_svc::{resolve_spec, stats_digest, Client, JobSpec, Priority, ServerMsg, Submit};
use virtclust_uarch::MachineConfig;

const CLI: Cli = Cli {
    usage: "usage: loadgen (--unix PATH | --tcp ADDR) [--jobs N] [--uops N] [--traces DIR]\n               \
            [--rate R] [--priority-mix] [--verify] [--shutdown]",
    switches: "--priority-mix --verify --shutdown",
    values: "--unix --tcp --jobs --uops --traces --rate",
    operands: false,
};

/// The deterministic mixed schedule: mostly suite points across Table 3
/// schemes, with every tenth job a trace replay and every tenth a kernel
/// expansion from the committed corpus.
fn schedule(jobs: u64, uops: u64, traces: &str, priority_mix: bool) -> Vec<Submit> {
    let points = [
        "gzip-1", "gcc-1", "mcf", "crafty", "eon-1", "vpr-2", "galgel", "swim", "mesa", "art-1",
        "sixtrack", "equake",
    ];
    let schemes = ["OP", "1C", "OB", "RHOP", "VC2"];
    let trace_files = ["smoke8.vct", "dotprod.vct", "gzip-1.vct", "galgel.vctb"];
    let kernel_files = ["dotprod.kernel", "smoke8.kernel"];
    (0..jobs)
        .map(|i| {
            let scheme = schemes[(i % schemes.len() as u64) as usize].to_string();
            let spec = match i % 10 {
                3 => JobSpec::Kernel {
                    path: format!("{traces}/{}", kernel_files[(i / 10 % 2) as usize]),
                    seed: i,
                    scheme,
                    uops,
                },
                7 => JobSpec::Trace {
                    path: format!("{traces}/{}", trace_files[(i / 10 % 4) as usize]),
                    scheme,
                    max_uops: uops,
                },
                _ => JobSpec::Point {
                    name: points[(i % points.len() as u64) as usize].to_string(),
                    scheme,
                    uops,
                },
            };
            let priority = if priority_mix {
                Priority::ALL[(i % 3) as usize]
            } else {
                Priority::Normal
            };
            Submit {
                ticket: i,
                priority,
                deadline_ms: 0,
                spec,
            }
        })
        .collect()
}

/// Run each distinct spec once directly through the batch engine and
/// return every job's stats digest (None for jobs that fail locally too).
/// Once per spec, so that no direct job answers from the drain's result
/// table: the check stays independent of the cache the daemon uses.
fn direct_digests(submits: &[Submit]) -> HashMap<u64, Option<u64>> {
    let machine = MachineConfig::paper_2cluster();
    let mut slot: HashMap<String, Option<usize>> = HashMap::new();
    let mut jobs: Vec<EvalJob> = Vec::new();
    let index: Vec<(u64, Option<usize>)> = submits
        .iter()
        .map(|s| {
            let i = *slot.entry(format!("{:?}", s.spec)).or_insert_with(|| {
                let job = resolve_spec(&s.spec).ok()?;
                jobs.push(job);
                Some(jobs.len() - 1)
            });
            (s.ticket, i)
        })
        .collect();
    let (outcomes, _) =
        EvalDriver::new(&machine).run_resilient(&jobs, &ResilientOptions::new(), |_, _| {});
    index
        .into_iter()
        .map(|(ticket, i)| {
            let digest = i.and_then(|i| outcomes[i].stats.as_ref().ok().map(stats_digest));
            (ticket, digest)
        })
        .collect()
}

fn main() {
    let args = CLI.parse();
    let jobs: u64 = args.value("--jobs").unwrap_or(10_000);
    let uops = args.value("--uops").unwrap_or_else(|| uop_budget(2_000));
    let traces = args.str("--traces").unwrap_or("results/traces");
    let rate: f64 = args.value("--rate").unwrap_or(0.0);
    let priority_mix = args.has("--priority-mix");
    let verify = args.has("--verify");
    let shutdown = args.has("--shutdown");

    let client = match (args.str("--unix"), args.str("--tcp")) {
        (Some(path), None) => Client::connect_unix(path),
        (None, Some(addr)) => Client::connect_tcp(addr),
        _ => args.fail("exactly one of --unix PATH or --tcp ADDR is required"),
    }
    .unwrap_or_else(|e| {
        eprintln!("loadgen: cannot connect: {e}");
        std::process::exit(1);
    });

    let submits = schedule(jobs, uops, traces, priority_mix);
    let expected = verify.then(|| direct_digests(&submits));

    let (mut tx, mut rx) = client.split().unwrap_or_else(|e| {
        eprintln!("loadgen: cannot split connection: {e}");
        std::process::exit(1);
    });

    // Submit timestamps, shared with the receiving side for latency.
    let submitted_at: Mutex<HashMap<u64, Instant>> = Mutex::new(HashMap::new());
    let start = Instant::now();
    let mut accepted = 0u64;
    let mut busy = 0u64;
    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut total_uops = 0u64;
    let mut ok_hist = Log2Hist::new();
    let mut failed_hist = Log2Hist::new();
    let mut mismatches = 0u64;

    std::thread::scope(|scope| {
        let submitted_at = &submitted_at;
        let sender = scope.spawn(move || {
            for (i, s) in submits.iter().enumerate() {
                if rate > 0.0 {
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                }
                submitted_at
                    .lock()
                    .unwrap()
                    .insert(s.ticket, Instant::now());
                if let Err(e) = tx.submit(s) {
                    eprintln!("loadgen: submit failed: {e}");
                    std::process::exit(1);
                }
            }
            tx
        });

        // Every ticket terminates with exactly one Busy or Result frame
        // (Accepted is informational), so drain until all are resolved.
        // Blocking recv is safe while the sender is still submitting:
        // replies only ever follow submits.
        let mut done = 0u64;
        while busy + done < jobs {
            match rx.recv() {
                Ok(Some(ServerMsg::Accepted { .. })) => {
                    accepted += 1;
                }
                Ok(Some(ServerMsg::Busy { ticket, .. })) => {
                    busy += 1;
                    submitted_at.lock().unwrap().remove(&ticket);
                }
                Ok(Some(ServerMsg::Result(r))) => {
                    done += 1;
                    let latency_us = submitted_at
                        .lock()
                        .unwrap()
                        .remove(&r.ticket)
                        .map_or(0, |t| t.elapsed().as_micros() as u64);
                    match &r.outcome {
                        Ok(stats) => {
                            ok += 1;
                            total_uops += stats.committed_uops;
                            ok_hist.record(latency_us);
                            if let Some(expected) = &expected {
                                if expected.get(&r.ticket) != Some(&Some(stats.digest)) {
                                    mismatches += 1;
                                    eprintln!(
                                        "loadgen: VERIFY MISMATCH ticket {} digest {:016x}",
                                        r.ticket, stats.digest
                                    );
                                }
                            }
                        }
                        Err(e) => {
                            failed += 1;
                            failed_hist.record(latency_us);
                            if verify {
                                eprintln!("loadgen: ticket {} failed: {e}", r.ticket);
                            }
                        }
                    }
                }
                Ok(Some(_)) => {}
                Ok(None) => {
                    eprintln!("loadgen: server closed the connection early");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("loadgen: receive error: {e}");
                    std::process::exit(1);
                }
            }
        }
        let mut tx = sender.join().expect("sender thread");
        if shutdown {
            if let Err(e) = tx.shutdown() {
                eprintln!("loadgen: shutdown send failed: {e}");
                std::process::exit(1);
            }
            // The daemon flushes and closes; EOF confirms it drained.
            loop {
                match rx.recv() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        eprintln!("loadgen: error awaiting shutdown: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
    });

    let wall = start.elapsed();
    let verified = expected.is_some() && mismatches == 0;
    println!(
        "{{\"client\":\"loadgen\",\"jobs\":{jobs},\"accepted\":{accepted},\"busy\":{busy},\"ok\":{ok},\"failed\":{failed},\"uops\":{total_uops},\"wall_s\":{:.3},\"uops_per_sec\":{:.0},\"ok_p50_us\":{},\"ok_p99_us\":{},\"failed_p50_us\":{},\"failed_p99_us\":{},\"verify\":{}}}",
        wall.as_secs_f64(),
        total_uops as f64 / wall.as_secs_f64().max(1e-9),
        ok_hist.percentile(0.5),
        ok_hist.percentile(0.99),
        failed_hist.percentile(0.5),
        failed_hist.percentile(0.99),
        if expected.is_none() {
            "\"off\""
        } else if verified {
            "\"ok\""
        } else {
            "\"MISMATCH\""
        },
    );
    // Exact accounting: every ticket resolved exactly once, and every
    // accepted job produced a streamed result.
    assert_eq!(
        busy + ok + failed,
        jobs,
        "accounting drift: accepted={accepted} busy={busy} ok={ok} failed={failed} jobs={jobs}"
    );
    assert!(
        accepted <= ok + failed,
        "accepted jobs missing results: accepted={accepted} ok={ok} failed={failed}"
    );
    if expected.is_some() && !verified {
        std::process::exit(1);
    }
}
