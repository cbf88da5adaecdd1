//! Blocking socket client for the evaluation service.
//!
//! [`Client::connect_unix`]/[`Client::connect_tcp`] perform the preamble
//! handshake; [`Client::submit`] sends jobs and [`Client::recv`] streams
//! replies back ([`ServerMsg::Accepted`]/[`Busy`](ServerMsg::Busy)
//! immediately, a [`ServerMsg::Result`] per job as it completes). For
//! open-loop load generation [`Client::split`] clones the stream into an
//! independently owned sender and receiver so submission never waits on
//! result draining. Replies are read through a buffer, so a small frame
//! costs no more than one read.

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::Path;

use virtclust_trace::frame::{read_frame, MAX_FRAME_LEN};
use virtclust_trace::Result as TraceResult;

use crate::wire::{
    decode_server, encode_client, recv_preamble, send_preamble, ClientMsg, ServerMsg, Submit,
};

/// A connected byte stream, Unix or TCP.
#[derive(Debug)]
pub enum Stream {
    /// A Unix domain socket.
    Unix(UnixStream),
    /// A TCP socket (Nagle disabled — frames are latency-sensitive).
    Tcp(TcpStream),
}

impl Stream {
    /// Clone the underlying socket (both halves share the fd).
    pub fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    /// Shut both directions: the peer reads EOF, and a thread blocked on
    /// this socket through any clone returns.
    pub(crate) fn shutdown(&self) {
        // An error means the socket is already shut or the peer is gone.
        let _ = match self {
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A blocking service client.
pub struct Client {
    /// Requests go out on the socket itself, one write per frame.
    stream: Stream,
    /// Replies come in through a buffer over a clone of the socket.
    replies: BufReader<Stream>,
}

impl Client {
    fn handshake(mut stream: Stream) -> TraceResult<Client> {
        send_preamble(&mut stream)?;
        stream.flush()?;
        let mut replies = BufReader::new(stream.try_clone()?);
        recv_preamble(&mut replies)?;
        Ok(Client { stream, replies })
    }

    /// Connect over a Unix domain socket.
    pub fn connect_unix(path: impl AsRef<Path>) -> TraceResult<Client> {
        Client::handshake(Stream::Unix(UnixStream::connect(path)?))
    }

    /// Connect over TCP.
    pub fn connect_tcp(addr: &str) -> TraceResult<Client> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Client::handshake(Stream::Tcp(s))
    }

    /// Submit one job. The server replies with `Accepted` or `Busy`
    /// (read it with [`recv`](Client::recv)).
    pub fn submit(&mut self, submit: &Submit) -> TraceResult<()> {
        encode_client(&mut self.stream, &ClientMsg::Submit(submit.clone()))?;
        self.stream.flush()?;
        Ok(())
    }

    /// Cancel everything this client has in the service.
    pub fn cancel_all(&mut self) -> TraceResult<()> {
        encode_client(&mut self.stream, &ClientMsg::CancelAll)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Ask the daemon to stop (queued jobs cancel, running jobs finish).
    pub fn shutdown(&mut self) -> TraceResult<()> {
        encode_client(&mut self.stream, &ClientMsg::Shutdown)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Request a statistics snapshot (arrives as [`ServerMsg::Stats`]).
    pub fn get_stats(&mut self) -> TraceResult<()> {
        encode_client(&mut self.stream, &ClientMsg::GetStats)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Block for the next server message; `Ok(None)` when the server
    /// closed the connection. Unknown message types are skipped (forward
    /// compat).
    pub fn recv(&mut self) -> TraceResult<Option<ServerMsg>> {
        loop {
            let Some((msg_type, body)) = read_frame(&mut self.replies, MAX_FRAME_LEN)? else {
                return Ok(None);
            };
            if let Some(m) = decode_server(msg_type, &body)? {
                return Ok(Some(m));
            }
        }
    }

    /// Split into an independently owned sender and receiver over the
    /// same connection, so results can drain while jobs keep flowing. The
    /// receiver takes the reply buffer, with whatever it already holds.
    pub fn split(self) -> TraceResult<(Client, Client)> {
        let sender = Client {
            replies: BufReader::new(self.stream.try_clone()?),
            stream: self.stream.try_clone()?,
        };
        let receiver = Client {
            stream: self.stream,
            replies: self.replies,
        };
        Ok((sender, receiver))
    }

    /// Convenience: block until the next [`ServerMsg::Result`] frame,
    /// passing intermediate messages to `on_other`. `Ok(None)` on EOF.
    pub fn recv_result(
        &mut self,
        mut on_other: impl FnMut(ServerMsg),
    ) -> TraceResult<Option<crate::wire::WireResult>> {
        loop {
            match self.recv()? {
                None => return Ok(None),
                Some(ServerMsg::Result(r)) => return Ok(Some(r)),
                Some(other) => on_other(other),
            }
        }
    }
}
