//! The service's wire protocol, built on [`virtclust_trace::frame`]:
//! `b"VCSV"` + version preamble in both directions, then self-delimiting
//! varint-framed messages. The length prefix covers the type byte, so
//! either side skips message types it does not know — the same
//! forward-compat posture as the trace file format.
//!
//! Client → server: [`Submit`](ClientMsg::Submit) (ticket, priority,
//! optional deadline, job spec), [`CancelAll`](ClientMsg::CancelAll),
//! [`GetStats`](ClientMsg::GetStats), [`Shutdown`](ClientMsg::Shutdown).
//! Server → client: [`Accepted`](ServerMsg::Accepted),
//! [`Busy`](ServerMsg::Busy) (backpressure — the queue or the client's
//! quota is full; nothing was buffered), streaming [`Result`](ServerMsg::Result)
//! per job as it completes, and a [`Stats`](ServerMsg::Stats) snapshot.
//!
//! Job specs travel as *names and paths*, not as materialised programs:
//! the server resolves them against its own suite, kernel importer and
//! trace store ([`resolve_spec`]), so a submit frame is tens of bytes
//! regardless of workload size. Full per-cell statistics are summarised
//! on the wire as key figures plus an FNV-1a digest of the complete
//! [`SimStats`] ([`stats_digest`]) — enough for a client to verify
//! bit-identity against a local [`EvalDriver`](virtclust_core::EvalDriver)
//! run without shipping every counter.

use std::io::{Read, Write};
use std::sync::OnceLock;

use virtclust_core::{Configuration, EvalJob};
use virtclust_sim::{RunLimits, SimStats};
use virtclust_trace::frame::{
    put_bytes, put_u64, read_preamble, take_string, write_frame, write_preamble,
};
use virtclust_trace::{import_kernel_file, Result as TraceResult, TraceError};
use virtclust_workloads::{spec2000_points, KernelParams, TracePoint};

/// Connection magic, both directions.
pub const MAGIC: &[u8; 4] = b"VCSV";
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Message type bytes. Client-to-server types live below 0x10,
/// server-to-client at and above it; unknown types are skipped.
pub mod msg {
    /// Client → server: submit one job.
    pub const SUBMIT: u8 = 0x01;
    /// Client → server: cancel everything this client has in the service.
    pub const CANCEL_ALL: u8 = 0x02;
    /// Client → server: stop the daemon (queued jobs cancel, running
    /// jobs finish, then the process exits).
    pub const SHUTDOWN: u8 = 0x03;
    /// Client → server: request a service statistics snapshot.
    pub const GET_STATS: u8 = 0x04;
    /// Server → client: the job was queued.
    pub const ACCEPTED: u8 = 0x11;
    /// Server → client: backpressure — nothing was buffered.
    pub const BUSY: u8 = 0x12;
    /// Server → client: one job's final outcome.
    pub const RESULT: u8 = 0x13;
    /// Server → client: statistics snapshot.
    pub const STATS: u8 = 0x14;
}

/// Job priority: strict across levels, round-robin across clients within
/// a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Served before everything else.
    High = 0,
    /// The default.
    #[default]
    Normal = 1,
    /// Served only when nothing higher is queued.
    Low = 2,
}

impl Priority {
    /// All levels, highest first (index matches the wire byte).
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Decode a wire byte.
    pub fn from_byte(b: u8) -> Option<Priority> {
        match b {
            0 => Some(Priority::High),
            1 => Some(Priority::Normal),
            2 => Some(Priority::Low),
            _ => None,
        }
    }
}

/// Why a submit bounced. The contract in every case: the service buffered
/// nothing, and resubmitting later (or to a less loaded service) is safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyReason {
    /// The service-wide bounded queue is full.
    QueueFull = 0,
    /// This client is at its per-client quota (other clients may still
    /// submit — fairness isolation).
    OverQuota = 1,
    /// The service is shutting down and no longer accepts work.
    ShuttingDown = 2,
}

impl BusyReason {
    /// Decode a wire byte.
    pub fn from_byte(b: u8) -> Option<BusyReason> {
        match b {
            0 => Some(BusyReason::QueueFull),
            1 => Some(BusyReason::OverQuota),
            2 => Some(BusyReason::ShuttingDown),
            _ => None,
        }
    }
}

impl std::fmt::Display for BusyReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BusyReason::QueueFull => write!(f, "queue-full"),
            BusyReason::OverQuota => write!(f, "over-quota"),
            BusyReason::ShuttingDown => write!(f, "shutting-down"),
        }
    }
}

/// The largest micro-op budget a [`JobSpec::Point`] or [`JobSpec::Kernel`]
/// may ask for: the paper's PinPoints slice length. Their expanders never
/// end, so the budget alone bounds the run, and `Shutdown` waits for
/// running jobs: one uncapped submit could pin a worker and keep the
/// daemon from ever shutting down. [`resolve_spec`] refuses a budget past
/// the cap; [`JobSpec::Trace`] jobs are bounded by their file and stay
/// uncapped.
pub const MAX_JOB_UOPS: u64 = 10_000_000;

/// The longest client frame (type byte and body) the daemon reads. Client
/// frames hold names, paths and integers: a [`Submit`] naming a
/// 4 096-byte path fits with room to spare. A longer length prefix ends
/// the connection before any of its body is read.
pub const MAX_CLIENT_FRAME_LEN: u64 = 16 * 1024;

/// A job as it travels on the wire: names and paths, resolved server-side.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A generated suite point by name (e.g. `"mcf"`).
    Point {
        /// Suite point name ([`spec2000_points`]).
        name: String,
        /// Scheme name, parsed by [`Configuration`]'s `FromStr`: the same
        /// case-insensitive set `trace_replay --scheme` takes, so the
        /// ablation schemes `op-parallel`, `op-nostall` and `modN` run
        /// over the wire too.
        scheme: String,
        /// Micro-op budget, at most [`MAX_JOB_UOPS`].
        uops: u64,
    },
    /// An imported kernel file expanded with the synthetic dynamic model.
    Kernel {
        /// Path of the kernel file (server-side).
        path: String,
        /// Expansion seed.
        seed: u64,
        /// Scheme name.
        scheme: String,
        /// Micro-op budget, at most [`MAX_JOB_UOPS`].
        uops: u64,
    },
    /// Replay of a stored `.vct`/`.vctb` trace file (server-side path).
    Trace {
        /// Path of the trace file.
        path: String,
        /// Scheme name.
        scheme: String,
        /// Micro-op cap (0 = the whole stream).
        max_uops: u64,
    },
}

/// One submit request.
#[derive(Debug, Clone, PartialEq)]
pub struct Submit {
    /// Client-chosen job identifier, echoed in every reply about the job.
    pub ticket: u64,
    /// Priority level.
    pub priority: Priority,
    /// Per-job wall-clock deadline in milliseconds (0 = none).
    pub deadline_ms: u64,
    /// The job.
    pub spec: JobSpec,
}

/// A decoded client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Submit one job.
    Submit(Submit),
    /// Cancel all of this client's queued and running jobs.
    CancelAll,
    /// Stop the daemon.
    Shutdown,
    /// Request a [`SvcStats`] snapshot.
    GetStats,
}

/// One job's final outcome as reported on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    /// The client's ticket.
    pub ticket: u64,
    /// Wall-clock time the job spent on its worker, microseconds.
    pub wall_us: u64,
    /// Key figures + digest, or the failure rendered as a string.
    pub outcome: Result<WireStats, String>,
}

/// The deterministic key figures of a completed cell, plus a digest of
/// the full statistics for bit-identity checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Program micro-ops committed.
    pub committed_uops: u64,
    /// Copy micro-ops generated.
    pub copies: u64,
    /// [`stats_digest`] of the full [`SimStats`].
    pub digest: u64,
}

/// A service statistics snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SvcStats {
    /// Jobs accepted (queued) since start.
    pub accepted: u64,
    /// Submits bounced with [`ServerMsg::Busy`].
    pub rejected: u64,
    /// Jobs completed (any outcome).
    pub completed: u64,
    /// Jobs currently on a worker.
    pub inflight: u64,
    /// Jobs currently queued.
    pub queued: u64,
    /// Per-priority queue-wait figures `(count, p50_us, p99_us)`,
    /// indexed like [`Priority::ALL`].
    pub queue_wait: [(u64, u64, u64); 3],
}

/// A decoded server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// The job was queued.
    Accepted {
        /// The client's ticket.
        ticket: u64,
    },
    /// Backpressure: the job was *not* queued.
    Busy {
        /// The client's ticket.
        ticket: u64,
        /// Why.
        reason: BusyReason,
    },
    /// One job finished.
    Result(WireResult),
    /// Statistics snapshot.
    Stats(SvcStats),
}

/// FNV-1a 64-bit digest of a [`SimStats`]' canonical encoding
/// ([`SimStats::write_canonical`], the text the golden pins hold). Every
/// counter the simulator tracks participates, so two runs with the same
/// digest are bit-identical for all practical purposes — this is what
/// `loadgen --verify` compares against a local driver run. The text is
/// hashed as it is written; nothing is allocated.
pub fn stats_digest(stats: &SimStats) -> u64 {
    struct Fnv1a(u64);
    impl std::fmt::Write for Fnv1a {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    stats.write_canonical(&mut h).expect("hashing never fails");
    h.0
}

/// Resolve a wire [`JobSpec`] into a runnable [`EvalJob`] against this
/// server's suite, kernel importer and filesystem. Errors are returned as
/// the string the client will see in its [`WireResult`]. A point or
/// kernel budget past [`MAX_JOB_UOPS`] is refused before any file is read.
pub fn resolve_spec(spec: &JobSpec) -> Result<EvalJob, String> {
    let capped = |uops: u64| {
        if uops > MAX_JOB_UOPS {
            Err(format!(
                "budget of {uops} uops exceeds MAX_JOB_UOPS ({MAX_JOB_UOPS})"
            ))
        } else {
            Ok(uops)
        }
    };
    match spec {
        JobSpec::Point { name, scheme, uops } => {
            let uops = capped(*uops)?;
            let config: Configuration = scheme.parse()?;
            // Built once per process: every reader thread resolves its
            // point submits against the same 40 points.
            static SUITE: OnceLock<Vec<TracePoint>> = OnceLock::new();
            let point = SUITE
                .get_or_init(spec2000_points)
                .iter()
                .find(|p| p.name == *name)
                .ok_or_else(|| format!("unknown suite point '{name}'"))?;
            Ok(EvalJob::Point {
                point: point.clone(),
                config,
                uops,
            })
        }
        JobSpec::Kernel {
            path,
            seed,
            scheme,
            uops,
        } => {
            let uops = capped(*uops)?;
            let config: Configuration = scheme.parse()?;
            let program = import_kernel_file(path).map_err(|e| format!("kernel '{path}': {e}"))?;
            Ok(EvalJob::Kernel {
                program,
                params: KernelParams::base_int(),
                seed: *seed,
                config,
                uops,
            })
        }
        JobSpec::Trace {
            path,
            scheme,
            max_uops,
        } => {
            let config: Configuration = scheme.parse()?;
            Ok(EvalJob::Trace {
                path: path.into(),
                config,
                limits: if *max_uops == 0 {
                    RunLimits::unlimited()
                } else {
                    RunLimits::uops(*max_uops)
                },
            })
        }
    }
}

/// Write this side's preamble.
pub fn send_preamble<W: Write>(w: &mut W) -> TraceResult<()> {
    write_preamble(w, MAGIC, VERSION)
}

/// Read and verify the peer's preamble; returns its version.
pub fn recv_preamble<R: Read>(r: &mut R) -> TraceResult<u8> {
    read_preamble(r, MAGIC, VERSION)
}

fn take_u64(r: &mut &[u8]) -> TraceResult<u64> {
    virtclust_trace::binary::read_varint(r)
}

fn take_byte(r: &mut &[u8]) -> TraceResult<u8> {
    let mut b = [0u8];
    r.read_exact(&mut b)
        .map_err(|_| TraceError::Corrupt("frame body ends early".into()))?;
    Ok(b[0])
}

/// Encode a client-to-server message as one frame.
pub fn encode_client<W: Write>(w: &mut W, m: &ClientMsg) -> TraceResult<()> {
    match m {
        ClientMsg::Submit(s) => {
            let mut body = Vec::with_capacity(48);
            put_u64(&mut body, s.ticket);
            body.push(s.priority as u8);
            put_u64(&mut body, s.deadline_ms);
            match &s.spec {
                JobSpec::Point { name, scheme, uops } => {
                    body.push(0);
                    put_bytes(&mut body, name.as_bytes());
                    put_bytes(&mut body, scheme.as_bytes());
                    put_u64(&mut body, *uops);
                }
                JobSpec::Kernel {
                    path,
                    seed,
                    scheme,
                    uops,
                } => {
                    body.push(1);
                    put_bytes(&mut body, path.as_bytes());
                    put_u64(&mut body, *seed);
                    put_bytes(&mut body, scheme.as_bytes());
                    put_u64(&mut body, *uops);
                }
                JobSpec::Trace {
                    path,
                    scheme,
                    max_uops,
                } => {
                    body.push(2);
                    put_bytes(&mut body, path.as_bytes());
                    put_bytes(&mut body, scheme.as_bytes());
                    put_u64(&mut body, *max_uops);
                }
            }
            write_frame(w, msg::SUBMIT, &body)
        }
        ClientMsg::CancelAll => write_frame(w, msg::CANCEL_ALL, &[]),
        ClientMsg::Shutdown => write_frame(w, msg::SHUTDOWN, &[]),
        ClientMsg::GetStats => write_frame(w, msg::GET_STATS, &[]),
    }
}

/// Decode a client-to-server frame. `Ok(None)` for message types this
/// build does not know (forward compat: the frame is already consumed).
pub fn decode_client(msg_type: u8, body: &[u8]) -> TraceResult<Option<ClientMsg>> {
    let mut r = body;
    Ok(match msg_type {
        msg::SUBMIT => {
            let ticket = take_u64(&mut r)?;
            let priority = Priority::from_byte(take_byte(&mut r)?)
                .ok_or_else(|| TraceError::Corrupt("bad priority byte".into()))?;
            let deadline_ms = take_u64(&mut r)?;
            let spec = match take_byte(&mut r)? {
                0 => JobSpec::Point {
                    name: take_string(&mut r)?,
                    scheme: take_string(&mut r)?,
                    uops: take_u64(&mut r)?,
                },
                1 => JobSpec::Kernel {
                    path: take_string(&mut r)?,
                    seed: take_u64(&mut r)?,
                    scheme: take_string(&mut r)?,
                    uops: take_u64(&mut r)?,
                },
                2 => JobSpec::Trace {
                    path: take_string(&mut r)?,
                    scheme: take_string(&mut r)?,
                    max_uops: take_u64(&mut r)?,
                },
                t => {
                    return Err(TraceError::Corrupt(format!("unknown job spec tag {t}")));
                }
            };
            Some(ClientMsg::Submit(Submit {
                ticket,
                priority,
                deadline_ms,
                spec,
            }))
        }
        msg::CANCEL_ALL => Some(ClientMsg::CancelAll),
        msg::SHUTDOWN => Some(ClientMsg::Shutdown),
        msg::GET_STATS => Some(ClientMsg::GetStats),
        _ => None,
    })
}

/// Encode a server-to-client message as one frame.
pub fn encode_server<W: Write>(w: &mut W, m: &ServerMsg) -> TraceResult<()> {
    match m {
        ServerMsg::Accepted { ticket } => {
            let mut body = Vec::with_capacity(10);
            put_u64(&mut body, *ticket);
            write_frame(w, msg::ACCEPTED, &body)
        }
        ServerMsg::Busy { ticket, reason } => {
            let mut body = Vec::with_capacity(11);
            put_u64(&mut body, *ticket);
            body.push(*reason as u8);
            write_frame(w, msg::BUSY, &body)
        }
        ServerMsg::Result(res) => {
            let mut body = Vec::with_capacity(64);
            put_u64(&mut body, res.ticket);
            put_u64(&mut body, res.wall_us);
            match &res.outcome {
                Ok(s) => {
                    body.push(0);
                    put_u64(&mut body, s.cycles);
                    put_u64(&mut body, s.committed_uops);
                    put_u64(&mut body, s.copies);
                    body.extend_from_slice(&s.digest.to_le_bytes());
                }
                Err(e) => {
                    body.push(1);
                    put_bytes(&mut body, e.as_bytes());
                }
            }
            write_frame(w, msg::RESULT, &body)
        }
        ServerMsg::Stats(s) => {
            let mut body = Vec::with_capacity(48);
            for v in [s.accepted, s.rejected, s.completed, s.inflight, s.queued] {
                put_u64(&mut body, v);
            }
            for (count, p50, p99) in s.queue_wait {
                put_u64(&mut body, count);
                put_u64(&mut body, p50);
                put_u64(&mut body, p99);
            }
            write_frame(w, msg::STATS, &body)
        }
    }
}

/// Decode a server-to-client frame. `Ok(None)` for unknown types.
pub fn decode_server(msg_type: u8, body: &[u8]) -> TraceResult<Option<ServerMsg>> {
    let mut r = body;
    Ok(match msg_type {
        msg::ACCEPTED => Some(ServerMsg::Accepted {
            ticket: take_u64(&mut r)?,
        }),
        msg::BUSY => {
            let ticket = take_u64(&mut r)?;
            let reason = BusyReason::from_byte(take_byte(&mut r)?)
                .ok_or_else(|| TraceError::Corrupt("bad busy reason".into()))?;
            Some(ServerMsg::Busy { ticket, reason })
        }
        msg::RESULT => {
            let ticket = take_u64(&mut r)?;
            let wall_us = take_u64(&mut r)?;
            let outcome = match take_byte(&mut r)? {
                0 => {
                    let cycles = take_u64(&mut r)?;
                    let committed_uops = take_u64(&mut r)?;
                    let copies = take_u64(&mut r)?;
                    let mut digest = [0u8; 8];
                    r.read_exact(&mut digest)
                        .map_err(|_| TraceError::Corrupt("truncated digest".into()))?;
                    Ok(WireStats {
                        cycles,
                        committed_uops,
                        copies,
                        digest: u64::from_le_bytes(digest),
                    })
                }
                _ => Err(take_string(&mut r)?),
            };
            Some(ServerMsg::Result(WireResult {
                ticket,
                wall_us,
                outcome,
            }))
        }
        msg::STATS => {
            let mut s = SvcStats {
                accepted: take_u64(&mut r)?,
                rejected: take_u64(&mut r)?,
                completed: take_u64(&mut r)?,
                inflight: take_u64(&mut r)?,
                queued: take_u64(&mut r)?,
                ..SvcStats::default()
            };
            for slot in &mut s.queue_wait {
                *slot = (take_u64(&mut r)?, take_u64(&mut r)?, take_u64(&mut r)?);
            }
            Some(ServerMsg::Stats(s))
        }
        _ => None,
    })
}

/// Try to split one frame off the front of a read buffer, for callers
/// that gather bytes themselves instead of reading a stream with
/// [`read_frame`](virtclust_trace::frame::read_frame). Returns
/// `Ok(Some((msg_type, body, consumed)))` when a whole frame is buffered,
/// `Ok(None)` when more bytes are needed, and [`TraceError::Corrupt`] on
/// a garbled length prefix. Never consumes a partial frame.
pub fn split_frame(buf: &[u8]) -> TraceResult<Option<(u8, Vec<u8>, usize)>> {
    let Some((len, hdr)) = peek_varint(buf)? else {
        return Ok(None);
    };
    if len == 0 {
        return Err(TraceError::Corrupt(
            "zero-length frame (no type byte)".into(),
        ));
    }
    if len > virtclust_trace::frame::MAX_FRAME_LEN {
        return Err(TraceError::Corrupt(format!(
            "frame length {len} exceeds MAX_FRAME_LEN"
        )));
    }
    let total = hdr + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let msg_type = buf[hdr];
    let body = buf[hdr + 1..total].to_vec();
    Ok(Some((msg_type, body, total)))
}

/// Decode a varint from the front of `buf` without consuming: returns the
/// value and encoded length, or `None` if the buffer ends mid-varint.
fn peek_varint(buf: &[u8]) -> TraceResult<Option<(u64, usize)>> {
    let mut value = 0u64;
    for (i, &b) in buf.iter().enumerate() {
        if i == 10 || (i == 9 && b > 1) {
            return Err(TraceError::Corrupt("varint overflows u64".into()));
        }
        value |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            return Ok(Some((value, i + 1)));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_client(m: ClientMsg) {
        let mut buf = Vec::new();
        encode_client(&mut buf, &m).unwrap();
        let (t, body, used) = split_frame(&buf).unwrap().unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(decode_client(t, &body).unwrap(), Some(m));
    }

    fn roundtrip_server(m: ServerMsg) {
        let mut buf = Vec::new();
        encode_server(&mut buf, &m).unwrap();
        let (t, body, used) = split_frame(&buf).unwrap().unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(decode_server(t, &body).unwrap(), Some(m));
    }

    #[test]
    fn client_messages_roundtrip() {
        roundtrip_client(ClientMsg::Submit(Submit {
            ticket: 300,
            priority: Priority::High,
            deadline_ms: 2500,
            spec: JobSpec::Point {
                name: "mcf".into(),
                scheme: "VC2".into(),
                uops: 20_000,
            },
        }));
        roundtrip_client(ClientMsg::Submit(Submit {
            ticket: 1,
            priority: Priority::Low,
            deadline_ms: 0,
            spec: JobSpec::Kernel {
                path: "results/traces/dotprod.kernel".into(),
                seed: 7,
                scheme: "OB".into(),
                uops: 4096,
            },
        }));
        roundtrip_client(ClientMsg::Submit(Submit {
            ticket: u64::MAX,
            priority: Priority::Normal,
            deadline_ms: 1,
            spec: JobSpec::Trace {
                path: "results/traces/smoke8.vct".into(),
                scheme: "RHOP".into(),
                max_uops: 0,
            },
        }));
        roundtrip_client(ClientMsg::CancelAll);
        roundtrip_client(ClientMsg::Shutdown);
        roundtrip_client(ClientMsg::GetStats);
    }

    #[test]
    fn server_messages_roundtrip() {
        roundtrip_server(ServerMsg::Accepted { ticket: 9 });
        roundtrip_server(ServerMsg::Busy {
            ticket: 10,
            reason: BusyReason::OverQuota,
        });
        roundtrip_server(ServerMsg::Result(WireResult {
            ticket: 11,
            wall_us: 123_456,
            outcome: Ok(WireStats {
                cycles: 999,
                committed_uops: 20_000,
                copies: 1408,
                digest: 0xdead_beef_cafe_f00d,
            }),
        }));
        roundtrip_server(ServerMsg::Result(WireResult {
            ticket: 12,
            wall_us: 5,
            outcome: Err("job panicked: boom".into()),
        }));
        roundtrip_server(ServerMsg::Stats(SvcStats {
            accepted: 100,
            rejected: 3,
            completed: 97,
            inflight: 2,
            queued: 1,
            queue_wait: [(50, 128, 1024), (40, 256, 2048), (7, 512, 4096)],
        }));
    }

    #[test]
    fn split_frame_waits_for_whole_frames() {
        let mut buf = Vec::new();
        encode_client(&mut buf, &ClientMsg::GetStats).unwrap();
        encode_client(&mut buf, &ClientMsg::CancelAll).unwrap();
        for cut in 0..buf.len() {
            // A prefix that ends inside the *first* frame parses to None.
            if cut < 2 {
                assert_eq!(split_frame(&buf[..cut]).unwrap(), None);
            }
        }
        let (t1, _, used1) = split_frame(&buf).unwrap().unwrap();
        assert_eq!(t1, msg::GET_STATS);
        let (t2, _, used2) = split_frame(&buf[used1..]).unwrap().unwrap();
        assert_eq!(t2, msg::CANCEL_ALL);
        assert_eq!(used1 + used2, buf.len());
    }

    #[test]
    fn unknown_message_types_decode_to_none() {
        assert_eq!(decode_client(0x7f, &[]).unwrap(), None);
        assert_eq!(decode_server(0x7f, &[]).unwrap(), None);
    }

    #[test]
    fn specs_resolve_against_the_suite() {
        let job = resolve_spec(&JobSpec::Point {
            name: "mcf".into(),
            scheme: "OP".into(),
            uops: 1000,
        })
        .unwrap();
        assert!(matches!(job, EvalJob::Point { uops: 1000, .. }));
        assert!(resolve_spec(&JobSpec::Point {
            name: "not-a-point".into(),
            scheme: "OP".into(),
            uops: 1,
        })
        .unwrap_err()
        .contains("unknown suite point"));
        assert!(resolve_spec(&JobSpec::Trace {
            path: "x.vct".into(),
            scheme: "bogus".into(),
            max_uops: 0,
        })
        .unwrap_err()
        .contains("unknown scheme"));

        // Point and kernel budgets are capped; the kernel is refused
        // before its (missing) file is read.
        let point = |uops| JobSpec::Point {
            name: "mcf".into(),
            scheme: "OP".into(),
            uops,
        };
        assert!(resolve_spec(&point(MAX_JOB_UOPS)).is_ok());
        let err = resolve_spec(&point(MAX_JOB_UOPS + 1)).unwrap_err();
        assert!(err.contains("MAX_JOB_UOPS"), "{err}");
        let err = resolve_spec(&JobSpec::Kernel {
            path: "/nonexistent/k.kernel".into(),
            seed: 1,
            scheme: "OP".into(),
            uops: u64::MAX,
        })
        .unwrap_err();
        assert!(err.contains("MAX_JOB_UOPS"), "{err}");
    }

    #[test]
    fn digest_separates_different_stats() {
        let a = SimStats::new(2);
        let b = SimStats {
            committed_uops: 1,
            ..SimStats::new(2)
        };
        let mut c = SimStats::new(2);
        c.clusters[1].issued = 1;
        assert_eq!(stats_digest(&a), stats_digest(&a.clone()));
        assert_ne!(stats_digest(&a), stats_digest(&b));
        assert_ne!(stats_digest(&a), stats_digest(&c));
        assert_ne!(stats_digest(&a), stats_digest(&SimStats::new(4)));
    }
}
