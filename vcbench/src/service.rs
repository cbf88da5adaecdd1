//! The service side: launching the `serve` daemon, driving it over one
//! Unix-socket connection, and reading what it reports about itself.
//!
//! A phase runs on two threads, the connection's sender and receiver. Each
//! job is timed from the instant it was *due*, not from when the sender got
//! round to it, so a stalled generator shows up as latency (and as
//! generator lag) instead of hiding it.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use virtclust_svc::{Client, JobSpec, Priority, ServerMsg, Submit, WireResult};

/// How long a launched daemon may take to accept its first connection.
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(30);

/// Worker threads the daemon runs (the benchmark host's core count).
pub const DAEMON_THREADS: usize = 2;

/// A running `serve` process. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Option<Child>,
    pid: u32,
}

impl Daemon {
    /// Start `serve_bin` listening on `sock` and connect to it. The
    /// returned duration runs from the spawn until the daemon accepted the
    /// connection and answered the handshake: its set-up time.
    pub fn launch(serve_bin: &Path, sock: &Path) -> Result<(Daemon, Client, Duration), String> {
        let started = Instant::now();
        let child = Command::new(serve_bin)
            .arg("--unix")
            .arg(sock)
            .env("VIRTCLUST_THREADS", DAEMON_THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", serve_bin.display()))?;
        let mut daemon = Daemon {
            pid: child.id(),
            child: Some(child),
        };
        loop {
            match Client::connect_unix(sock) {
                Ok(client) => return Ok((daemon, client, started.elapsed())),
                Err(e) => {
                    if let Some(child) = daemon.child.as_mut() {
                        if let Ok(Some(status)) = child.try_wait() {
                            return Err(format!("the daemon exited before accepting: {status}"));
                        }
                    }
                    if started.elapsed() > LAUNCH_TIMEOUT {
                        return Err(format!("the daemon never accepted a connection: {e}"));
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }

    /// The daemon's peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.pid))
    }

    /// Send `Shutdown` over `tx`, read `rx` to end of stream, and wait for
    /// the process. Returns the accounting line it prints on exit.
    pub fn stop(mut self, tx: &mut Client, rx: &mut Client) -> Result<String, String> {
        tx.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        while rx
            .recv()
            .map_err(|e| format!("awaiting shutdown: {e}"))?
            .is_some()
        {}
        let child = self.child.take().expect("a daemon is stopped once");
        let out = child
            .wait_with_output()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if !out.status.success() {
            return Err(format!("the daemon exited with {}", out.status));
        }
        Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `VmHWM` of the `/proc/<pid>/status` file at `status_path`, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status_path} has no VmHWM line"))
}

/// How a phase submits.
#[derive(Debug, Clone, Copy)]
pub enum Pace<'a> {
    /// Closed window: keep `window` jobs unresolved at all times, which
    /// saturates the daemon without ever tripping its queue bounds.
    Flood {
        /// Jobs in flight.
        window: usize,
    },
    /// Open loop: job `i` is due `offsets[i]` after the phase starts,
    /// whatever the daemon is doing.
    Open {
        /// Due offsets, one per job.
        offsets: &'a [Duration],
    },
}

/// One job's result frame and when it arrived.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Arrival instant of the Result frame.
    pub at: Instant,
    /// The frame.
    pub result: WireResult,
}

/// Everything a phase observed, indexed by job.
#[derive(Debug)]
pub struct PhaseLog {
    /// Ticket of the phase's first job; job `i` has ticket
    /// `first_ticket + i`.
    pub first_ticket: u64,
    /// When the phase started.
    pub start: Instant,
    /// When each job was due (for a flood: when the window let it go).
    pub due: Vec<Instant>,
    /// When the sender actually began submitting each job.
    pub sent: Vec<Instant>,
    /// Each job's result; `None` for a job the daemon bounced with `Busy`.
    pub replies: Vec<Option<Reply>>,
    /// Jobs bounced with `Busy`.
    pub busy: u64,
}

impl PhaseLog {
    /// How late the generator ran: the largest `sent − due`.
    pub fn max_lag(&self) -> Duration {
        self.due
            .iter()
            .zip(&self.sent)
            .map(|(d, s)| s.saturating_duration_since(*d))
            .max()
            .unwrap_or_default()
    }
}

/// Flood bookkeeping shared by a phase's two threads.
struct Progress {
    /// Jobs resolved (Result or Busy) so far.
    resolved: usize,
    /// The receiver gave up; the sender must stop.
    aborted: bool,
    /// The sender sleeps until `resolved` reaches this.
    wake_at: usize,
}

/// Submit `specs` (tickets from `first_ticket`) over `tx` under `pace`
/// while reading every reply from `rx`, until each job has resolved to a
/// Result or a Busy frame.
pub fn run_phase(
    tx: &mut Client,
    rx: &mut Client,
    specs: &[JobSpec],
    first_ticket: u64,
    pace: Pace<'_>,
) -> Result<PhaseLog, String> {
    let n = specs.len();
    let progress = (
        Mutex::new(Progress {
            resolved: 0,
            aborted: false,
            wake_at: usize::MAX,
        }),
        Condvar::new(),
    );
    let start = Instant::now();
    std::thread::scope(|scope| {
        let progress = &progress;
        let sender = scope.spawn(move || -> Result<(Vec<Instant>, Vec<Instant>), String> {
            let mut due = Vec::with_capacity(n);
            let mut sent = Vec::with_capacity(n);
            for (i, spec) in specs.iter().enumerate() {
                let due_at = match pace {
                    Pace::Flood { window } => {
                        // A full window refills once half of it has
                        // drained, so the sender wakes once per half
                        // window rather than once per result.
                        let (lock, cv) = progress;
                        let mut p = lock.lock().expect("the receiver never panics holding it");
                        if i >= p.resolved + window {
                            p.wake_at = i + 1 - window / 2;
                            while p.resolved < p.wake_at && !p.aborted {
                                p = cv.wait(p).expect("the receiver never panics holding it");
                            }
                            p.wake_at = usize::MAX;
                        }
                        if p.aborted {
                            return Err("the receiver stopped".into());
                        }
                        Instant::now()
                    }
                    Pace::Open { offsets } => {
                        let due_at = start + offsets[i];
                        let now = Instant::now();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        due_at
                    }
                };
                sent.push(Instant::now());
                due.push(due_at);
                let submit = Submit {
                    ticket: first_ticket + i as u64,
                    priority: Priority::Normal,
                    deadline_ms: 0,
                    spec: spec.clone(),
                };
                tx.submit(&submit).map_err(|e| format!("submit: {e}"))?;
            }
            Ok((due, sent))
        });

        let mut replies: Vec<Option<Reply>> = vec![None; n];
        let mut busy = 0u64;
        let received = receive(rx, first_ticket, &mut replies, &mut busy, progress);
        if received.is_err() {
            let (lock, cv) = progress;
            lock.lock()
                .expect("the sender never panics holding it")
                .aborted = true;
            cv.notify_all();
        }
        let sent = sender.join().expect("the sender thread panicked");
        received?;
        let (due, sent) = sent?;
        Ok(PhaseLog {
            first_ticket,
            start,
            due,
            sent,
            replies,
            busy,
        })
    })
}

/// The receiving half of [`run_phase`].
fn receive(
    rx: &mut Client,
    first_ticket: u64,
    replies: &mut [Option<Reply>],
    busy: &mut u64,
    progress: &(Mutex<Progress>, Condvar),
) -> Result<(), String> {
    let n = replies.len();
    let index = |ticket: u64| {
        ticket
            .checked_sub(first_ticket)
            .map(|i| i as usize)
            .filter(|&i| i < n)
            .ok_or_else(|| format!("reply for unknown ticket {ticket}"))
    };
    let mut done = 0;
    while done < n {
        match rx.recv().map_err(|e| format!("receive: {e}"))? {
            None => return Err("the daemon closed the connection mid-phase".into()),
            Some(ServerMsg::Busy { ticket, .. }) => {
                index(ticket)?;
                *busy += 1;
            }
            Some(ServerMsg::Result(result)) => {
                let at = Instant::now();
                let i = index(result.ticket)?;
                if replies[i].is_some() {
                    return Err(format!("two results for ticket {}", result.ticket));
                }
                replies[i] = Some(Reply { at, result });
            }
            Some(ServerMsg::Accepted { .. } | ServerMsg::Stats(_)) => continue,
        }
        done += 1;
        let (lock, cv) = progress;
        let mut p = lock.lock().expect("the sender never panics holding it");
        p.resolved = done;
        if p.resolved >= p.wake_at {
            cv.notify_one();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_peak_resident_set_of_this_process() {
        let mb = peak_rss_mb("/proc/self/status").unwrap();
        assert!(mb > 0.5 && mb < 4096.0, "{mb}");
        assert!(peak_rss_mb("/proc/self/no-such-file").is_err());
    }
}
