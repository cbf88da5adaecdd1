//! The evaluation server: a [`Scheduler`] fed by socket connections,
//! drained by the batch engine's worker pool
//! ([`EvalDriver::drain_source`]), with per-cell results streamed back to
//! whichever connection submitted each job.
//!
//! Sockets use blocking `std` I/O. These threads cooperate:
//!
//! * **workers** — `drain_source` pulls jobs from the scheduler and
//!   invokes the completion sink from whichever worker finished; a socket
//!   client's result is appended to its connection's outbox, so a worker
//!   never writes to or waits on a socket;
//! * **the acceptor** — blocked in `accept`; it greets each connection
//!   and starts the connection's two threads;
//! * **a reader per connection** — `read_frame` → `decode_client` →
//!   dispatch into the scheduler. It stops taking requests while the
//!   outbox is full, which pushes back on a client that does not read;
//! * **a writer per connection** — drains the outbox to the socket.
//!
//! A job's result route (the submitting connection's outbox and the
//! client's own ticket) rides with the job in the [`Scheduler`], which
//! hands it back when a worker finishes the job or when a drain cancels
//! it. The reader holds the outbox across admission, so a ticket's
//! `Accepted` or `Busy` always precedes its `Result`. Nobody posts to an
//! outbox while holding the scheduler's lock.
//!
//! Each connection's reader owns one [`CancelToken`], which every job it
//! submits clones. `CancelAll` cancels that token, replaces it with a
//! fresh one and drains the connection's queued jobs; a hang-up cancels
//! and drains the same way. Since a connection's submits and its
//! `CancelAll` run in order on its reader, every job submitted before the
//! `CancelAll` carries the cancelled token, wherever it is, and none
//! submitted after it does.
//!
//! Once the pool has drained after a shutdown, every outbox is flushed
//! and its socket shut down, so clients see EOF on their own;
//! [`Server::join`] then wakes the acceptor and waits for it and for
//! every connection thread.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Scope};
use std::time::Duration;

use virtclust_core::{EvalDriver, JobDone, ResilientOptions};
use virtclust_sim::{CancelToken, SimStats};
use virtclust_trace::frame::read_frame;
use virtclust_uarch::MachineConfig;

use crate::client::Stream;
use crate::sched::{SchedConfig, Scheduler};
use crate::wire::{
    decode_client, encode_server, recv_preamble, resolve_spec, send_preamble, stats_digest,
    ClientMsg, ServerMsg, Submit, SvcStats, WireResult, WireStats, MAX_CLIENT_FRAME_LEN,
};

/// What a cancelled-before-start job reports as its error.
pub const CANCELLED_BEFORE_START: &str = "cancelled before start";

/// Frames an outbox may hold before its reader stops taking requests.
/// A reply is a few bytes, so a client that submits without reading
/// pins a few KiB; one that reads never gets near the cap.
const OUTBOX_FRAMES: usize = 1024;

/// How long a socket write may make no progress before the peer counts
/// as gone (its connection closes and its jobs are cancelled). This is
/// also the longest one stuck client can hold up [`Server::join`].
const WRITE_STALL: Duration = Duration::from_secs(5);

/// Pause after a failed `accept` (EMFILE and the like): the connection
/// stays in the backlog, and retrying at once would spin until a
/// descriptor frees up.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Live socket connections. Each costs two threads, two descriptors and
/// up to one [`MAX_CLIENT_FRAME_LEN`] frame in its reader (64 × 16 KiB of
/// frames in all); a connection past the cap is closed as soon as it is
/// accepted.
const MAX_CONNS: usize = 64;

/// A socket connection's encoded server→client frames. Workers and the
/// reader append without blocking; the connection's writer drains it.
#[derive(Default)]
struct Outbox {
    state: Mutex<Pending>,
    /// Wakes the writer: frames arrived, or the outbox is closing or dead.
    ready: Condvar,
    /// Wakes a reader waiting for room: the writer wrote a batch, or the
    /// connection died.
    room: Condvar,
}

#[derive(Default)]
struct Pending {
    /// Encoded frames the writer has not taken yet.
    bytes: Vec<u8>,
    /// Frames not yet written: those in `bytes` plus the writer's batch.
    frames: usize,
    /// The pool has drained: write what is left, then shut the socket.
    closing: bool,
    /// The connection is over: drop everything.
    dead: bool,
}

impl Outbox {
    fn lock(&self) -> MutexGuard<'_, Pending> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append the frame `reply` builds. `reply` runs with the outbox
    /// held, so a frame posted meanwhile by another thread (a worker's
    /// `Result`) lands after it.
    fn post(&self, reply: impl FnOnce() -> ServerMsg) {
        let mut st = self.lock();
        let msg = reply();
        // Encoding only fails on a frame past MAX_FRAME_LEN, which no
        // ServerMsg reaches, and writes nothing then.
        if !st.dead && encode_server(&mut st.bytes, &msg).is_ok() {
            st.frames += 1;
        }
        drop(st);
        self.ready.notify_one();
    }

    /// Block until there is room for another request's reply; `false`
    /// once the connection is dead.
    fn wait_for_room(&self) -> bool {
        let mut st = self.lock();
        while st.frames >= OUTBOX_FRAMES && !st.dead {
            st = self.room.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        !st.dead
    }

    /// Have the writer flush what is queued and then shut the socket.
    fn close(&self) {
        self.lock().closing = true;
        self.ready.notify_one();
    }

    /// Drop what is queued and release both of the connection's threads.
    fn kill(&self) {
        let mut st = self.lock();
        st.dead = true;
        st.bytes = Vec::new();
        drop(st);
        self.ready.notify_one();
        self.room.notify_one();
    }
}

/// Where a completed job's result goes.
struct Route {
    /// The submitting connection's outbox.
    outbox: Arc<Outbox>,
    /// The client's own ticket for the job.
    ticket: u64,
}

impl Route {
    /// Post one outcome to the connection that submitted the job.
    fn deliver(self, wall: Duration, stats: Result<SimStats, String>) {
        let result = WireResult {
            ticket: self.ticket,
            wall_us: wall.as_micros() as u64,
            outcome: stats.map(|s| WireStats {
                cycles: s.cycles,
                committed_uops: s.committed_uops,
                copies: s.copies_generated,
                digest: stats_digest(&s),
            }),
        };
        self.outbox.post(|| ServerMsg::Result(result));
    }

    /// Report jobs drained before they started (by `CancelAll`, a
    /// hang-up or shutdown) cancelled.
    fn cancelled(routes: Vec<Route>) {
        for route in routes {
            route.deliver(Duration::ZERO, Err(CANCELLED_BEFORE_START.into()));
        }
    }
}

/// Shared server state.
struct SvcInner {
    sched: Scheduler<Route>,
    /// Live socket connections' outboxes by client id; `None` once the
    /// pool has drained and every connection was told to close.
    conns: Mutex<Option<HashMap<u64, Arc<Outbox>>>>,
    /// Connection ids, which are the scheduler's client ids.
    next_client: AtomicU64,
}

impl SvcInner {
    fn lock_conns(&self) -> MutexGuard<'_, Option<HashMap<u64, Arc<Outbox>>>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The completion sink handed to `drain_source` — must not panic.
    /// `finish` releases the scheduler's lock before the delivery takes
    /// the outbox's.
    fn complete(&self, done: JobDone) {
        if let Some(route) = self.sched.finish(done.ticket) {
            route.deliver(
                done.outcome.wall,
                done.outcome.stats.map_err(|e| e.to_string()),
            );
        }
    }

    /// Close intake and report the queued jobs cancelled. The connection
    /// map stays locked meanwhile, so the pool's final
    /// [`close_conns`](SvcInner::close_conns) cannot overtake a report.
    fn shutdown(&self) {
        let _conns = self.lock_conns();
        Route::cancelled(self.sched.shutdown());
    }

    /// The pool has drained: flush and close every connection, and turn
    /// new ones away.
    fn close_conns(&self) {
        if let Some(live) = self.lock_conns().take() {
            for outbox in live.into_values() {
                outbox.close();
            }
        }
    }

    /// Retire connection `id`: forget it, stop its writer, and drain
    /// what it left queued. What it left running was stopped by the
    /// cancelled token of its reader (a vanished client implicitly
    /// cancels its outstanding work).
    fn hang_up(&self, id: u64, outbox: &Outbox) {
        if let Some(live) = self.lock_conns().as_mut() {
            live.remove(&id);
        }
        outbox.kill();
        Route::cancelled(self.sched.cancel_client(id));
    }
}

/// Configures and starts a [`Server`].
pub struct ServerBuilder {
    machine: MachineConfig,
    threads: usize,
    sched: SchedConfig,
    opts: ResilientOptions,
}

impl ServerBuilder {
    /// A server simulating on `machine` with default bounds.
    pub fn new(machine: &MachineConfig) -> Self {
        ServerBuilder {
            machine: machine.clone(),
            threads: 0,
            sched: SchedConfig::default(),
            opts: ResilientOptions::new(),
        }
    }

    /// Worker threads (0 = one per available CPU).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Service-wide queued-job cap.
    #[must_use]
    pub fn queue_cap(mut self, n: usize) -> Self {
        self.sched.queue_cap = n;
        self
    }

    /// Per-client queued-job quota.
    #[must_use]
    pub fn client_quota(mut self, n: usize) -> Self {
        self.sched.client_quota = n;
        self
    }

    /// Batch-engine options every job runs under: retries, and a per-job
    /// deadline that composes with one from the wire.
    #[must_use]
    pub fn options(mut self, opts: ResilientOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Start the worker pool and return the running server.
    pub fn start(self) -> Server {
        let inner = Arc::new(SvcInner {
            sched: Scheduler::new(self.sched),
            conns: Mutex::new(Some(HashMap::new())),
            next_client: AtomicU64::new(1),
        });
        let driver = EvalDriver::new(&self.machine).threads(self.threads);
        let drain = {
            let inner = Arc::clone(&inner);
            let opts = self.opts;
            thread::spawn(move || {
                driver.drain_source(&inner.sched, &opts, &|done| inner.complete(done));
                inner.close_conns();
            })
        };
        Server {
            inner,
            drain,
            acceptor: None,
        }
    }
}

/// A running evaluation service.
pub struct Server {
    inner: Arc<SvcInner>,
    drain: JoinHandle<()>,
    /// The acceptor thread and the address [`join`](Server::join) wakes
    /// it through.
    acceptor: Option<(JoinHandle<()>, Addr)>,
}

impl Server {
    /// Serve connections on a Unix domain socket at `path` (an existing
    /// socket file is replaced). One listener per server.
    pub fn serve_unix(&mut self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        self.spawn_acceptor(Listener::Unix(listener), Addr::Unix(path))
    }

    /// Serve connections on a TCP address (e.g. `"127.0.0.1:0"`);
    /// returns the bound address. One listener per server.
    pub fn serve_tcp(&mut self, addr: &str) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        self.spawn_acceptor(Listener::Tcp(listener), Addr::Tcp(bound))?;
        Ok(bound)
    }

    fn spawn_acceptor(&mut self, listener: Listener, addr: Addr) -> io::Result<()> {
        if self.acceptor.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "server already has a listener",
            ));
        }
        let inner = Arc::clone(&self.inner);
        let acceptor = thread::spawn(move || accept_loop(&inner, &listener));
        self.acceptor = Some((acceptor, addr));
        Ok(())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SvcStats {
        self.inner.sched.stats()
    }

    /// Close intake, cancel queued jobs (reported cancelled to their
    /// owners), let running jobs finish; then the workers stop and every
    /// connection flushes and closes.
    pub fn shutdown(&self) {
        self.inner.shutdown();
    }

    /// Wait for the service to stop (a [`shutdown`](Server::shutdown)
    /// call or a wire `Shutdown` frame), then stop the acceptor and
    /// remove the Unix socket file. On success returns the final
    /// statistics snapshot (taken after the pool drained, so `completed`
    /// is the last word).
    pub fn join(self) -> io::Result<SvcStats> {
        let Server {
            inner,
            drain,
            acceptor,
        } = self;
        let mut result = Ok(());
        if drain.join().is_err() {
            // The pool never reached its own close_conns.
            inner.close_conns();
            result = Err(io::Error::other("worker pool panicked"));
        }
        if let Some((acceptor, addr)) = acceptor {
            // The acceptor is blocked in `accept`: a throwaway connection
            // wakes it to find the connection map closed.
            match addr.wake() {
                Ok(()) => {
                    if acceptor.join().is_err() {
                        result = Err(io::Error::other("acceptor panicked"));
                    }
                }
                Err(e) => result = result.and(Err(e)),
            }
            if let Addr::Unix(path) = addr {
                let _ = std::fs::remove_file(path);
            }
        }
        result.map(|()| inner.sched.stats())
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Accept one connection, its writes bounded by [`WRITE_STALL`].
    fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_write_timeout(Some(WRITE_STALL))?;
                Stream::Unix(s)
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                s.set_write_timeout(Some(WRITE_STALL))?;
                Stream::Tcp(s)
            }
        })
    }
}

/// Where the acceptor listens.
enum Addr {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

impl Addr {
    /// Connect and hang up at once.
    fn wake(&self) -> io::Result<()> {
        match self {
            Addr::Unix(path) => UnixStream::connect(path).map(drop),
            Addr::Tcp(addr) => TcpStream::connect(addr).map(drop),
        }
    }
}

/// The acceptor: start every connection until the connection map is
/// closed, then wait for every connection thread to finish.
fn accept_loop(inner: &SvcInner, listener: &Listener) {
    thread::scope(|scope| loop {
        let accepted = listener.accept();
        let mut conns = inner.lock_conns();
        // Closed: the pool has drained, and this is `join` waking us.
        let Some(live) = conns.as_mut() else {
            return;
        };
        let stream = match accepted {
            Ok(stream) if live.len() < MAX_CONNS => stream,
            // Past the cap: dropping the stream closes just this one.
            Ok(_) => continue,
            Err(_) => {
                drop(conns);
                thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        let id = inner.next_client.fetch_add(1, Ordering::Relaxed);
        let outbox = Arc::new(Outbox::default());
        live.insert(id, Arc::clone(&outbox));
        drop(conns);
        if start_conn(scope, inner, id, &outbox, stream).is_err() {
            inner.hang_up(id, &outbox);
        }
    });
}

/// Greet a new connection, then start its writer and reader. A failed
/// spawn returns an error instead of panicking, and costs only this
/// connection.
fn start_conn<'scope>(
    scope: &'scope Scope<'scope, '_>,
    inner: &'scope SvcInner,
    id: u64,
    outbox: &Arc<Outbox>,
    mut stream: Stream,
) -> io::Result<()> {
    // One write, first thing: the client's handshake is waiting on it.
    let mut hello = Vec::with_capacity(5);
    let _ = send_preamble(&mut hello); // into a Vec: cannot fail
    stream.write_all(&hello)?;
    let to_client = stream.try_clone()?;
    let writer_outbox = Arc::clone(outbox);
    thread::Builder::new()
        .name("svc-writer".into())
        .spawn_scoped(scope, move || write_loop(&writer_outbox, to_client))?;
    let outbox = Arc::clone(outbox);
    thread::Builder::new()
        .name("svc-reader".into())
        .spawn_scoped(scope, move || read_loop(inner, id, outbox, stream))?;
    Ok(())
}

/// A connection's writer: drain the outbox to the socket until it is
/// closed and empty or the connection dies, then shut the socket (the
/// client reads EOF; the reader's blocked read returns).
fn write_loop(outbox: &Outbox, mut stream: Stream) {
    let mut batch = Vec::new();
    loop {
        let frames = {
            let mut st = outbox.lock();
            while st.bytes.is_empty() && !st.closing && !st.dead {
                st = outbox
                    .ready
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if st.dead || st.bytes.is_empty() {
                break;
            }
            batch.clear();
            std::mem::swap(&mut batch, &mut st.bytes);
            st.frames
        };
        if stream.write_all(&batch).is_err() {
            outbox.kill();
            break;
        }
        outbox.lock().frames -= frames;
        outbox.room.notify_one();
    }
    stream.shutdown();
}

/// A connection's reader: take requests until the client hangs up,
/// breaks the protocol or the connection dies, then cancel its jobs and
/// retire it.
fn read_loop(inner: &SvcInner, id: u64, outbox: Arc<Outbox>, stream: Stream) {
    let mut from_client = BufReader::new(stream);
    // Every job this connection submits clones it.
    let mut token = CancelToken::new();
    if recv_preamble(&mut from_client).is_ok() {
        while outbox.wait_for_room() {
            // EOF, a broken frame or a dead socket all end the connection.
            let Ok(Some((msg_type, body))) = read_frame(&mut from_client, MAX_CLIENT_FRAME_LEN)
            else {
                break;
            };
            match decode_client(msg_type, &body) {
                Ok(Some(msg)) => dispatch(inner, id, &outbox, &mut token, msg),
                // Unknown type: consumed and skipped (forward compat).
                Ok(None) => {}
                Err(_) => break,
            }
        }
    }
    // Fails a write stalled on this client at once, not after WRITE_STALL.
    from_client.get_ref().shutdown();
    token.cancel();
    inner.hang_up(id, &outbox);
}

/// Handle one decoded request from connection `id`, whose jobs clone
/// `token`.
fn dispatch(
    inner: &SvcInner,
    id: u64,
    outbox: &Arc<Outbox>,
    token: &mut CancelToken,
    msg: ClientMsg,
) {
    match msg {
        ClientMsg::Submit(Submit {
            ticket,
            priority,
            deadline_ms,
            spec,
        }) => match resolve_spec(&spec) {
            Ok(job) => {
                let deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
                let route = Route {
                    outbox: Arc::clone(outbox),
                    ticket,
                };
                outbox.post(|| {
                    match inner
                        .sched
                        .submit(id, job, priority, deadline, token.clone(), route)
                    {
                        Ok(_) => ServerMsg::Accepted { ticket },
                        Err(reason) => ServerMsg::Busy { ticket, reason },
                    }
                });
            }
            // Resolution failures are immediate Result frames — the job
            // never existed service-side.
            Err(e) => outbox.post(|| {
                ServerMsg::Result(WireResult {
                    ticket,
                    wall_us: 0,
                    outcome: Err(e),
                })
            }),
        },
        ClientMsg::CancelAll => {
            token.cancel();
            *token = CancelToken::new();
            Route::cancelled(inner.sched.cancel_client(id));
        }
        ClientMsg::GetStats => outbox.post(|| ServerMsg::Stats(inner.sched.stats())),
        ClientMsg::Shutdown => inner.shutdown(),
    }
}
