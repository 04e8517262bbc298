//! A small blocking client for the probe service: `ckprobe submit`,
//! the soak tests, and the bench harness all talk through it.
//!
//! The client is deliberately thin — one connection, blocking
//! one-shot [`read_frame`] calls, one [`SharedWriter`] — and
//! deliberately honest about failure: every path out is a typed
//! [`ClientError`], including the service's own `Error` frames, which
//! surface as [`ClientError::Remote`] with the service's message
//! intact.
//!
//! A receive that runs out of budget fails with
//! [`FrameError::TimedOut`] and may leave part of a frame read, so the
//! stream position is untrusted afterwards: drop the client and
//! connect a new one.

use std::fmt;
use std::net::TcpStream;
use std::time::Duration;

use ck_congest::clock::Deadline;
use ck_congest::net::frame::{read_frame, FrameError, FrameKind};
use ck_congest::net::link::{connect_with_retry, SharedWriter};

use crate::rpc::{
    decode_serve_body, encode_serve_body, JobRequest, JobResult, ServeMsg, StatsSnapshot,
};

/// Typed failure of a client call.
#[derive(Clone, Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, send).
    Io(String),
    /// The reply stream was malformed or timed out.
    Frame(FrameError),
    /// The service answered with an `Error` frame; the payload is its
    /// message. The connection is still usable — the service keeps
    /// links whose frame boundary survived.
    Remote(String),
    /// A well-formed reply of the wrong RPC type for this call.
    Protocol(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Frame(e) => write!(f, "frame: {e}"),
            ClientError::Remote(msg) => write!(f, "service error: {msg}"),
            ClientError::Protocol(what) => write!(f, "protocol: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A blocking connection to one probe service.
pub struct ServeClient {
    reader: TcpStream,
    writer: SharedWriter<TcpStream>,
    /// Per-receive budget in milliseconds.
    timeout_ms: u64,
}

impl ServeClient {
    /// Connects with bounded retry (covers the race between spawning
    /// `ckprobe serve` and its listener coming up). `timeout_ms` is
    /// the budget of each receive.
    pub fn connect(addr: &str, timeout_ms: u64) -> Result<ServeClient, ClientError> {
        let io = |e: std::io::Error| ClientError::Io(e.to_string());
        let stream = connect_with_retry(addr, 10, 20).map_err(io)?;
        let timeout_ms = timeout_ms.max(1);
        stream.set_read_timeout(Some(Duration::from_millis(timeout_ms))).map_err(io)?;
        let reader = stream.try_clone().map_err(io)?;
        Ok(ServeClient { reader, writer: SharedWriter::new(stream), timeout_ms })
    }

    /// Sends one RPC.
    pub fn send(&self, msg: &ServeMsg) -> Result<(), ClientError> {
        let body = encode_serve_body(msg)?;
        self.writer.send(FrameKind::Serve, &body).map_err(|e| ClientError::Io(e.to_string()))
    }

    /// Sends raw bytes as one `Serve` frame — the truncation and
    /// garbage-recovery tests drive malformed bodies through this.
    pub fn send_raw_body(&self, body: &[u8]) -> Result<(), ClientError> {
        self.writer.send(FrameKind::Serve, body).map_err(|e| ClientError::Io(e.to_string()))
    }

    /// Receives the next RPC, skipping heartbeats; the service's
    /// `Error` frames come back as [`ClientError::Remote`]. Past the
    /// receive budget this is [`FrameError::TimedOut`]: drop the client.
    pub fn recv(&mut self) -> Result<ServeMsg, ClientError> {
        let deadline = Deadline::after_ms(self.timeout_ms);
        loop {
            let frame = read_frame(&mut self.reader, &deadline)?;
            match frame.kind {
                FrameKind::Serve => return Ok(decode_serve_body(&frame.body)?),
                FrameKind::Heartbeat => {}
                FrameKind::Error => {
                    return Err(ClientError::Remote(
                        String::from_utf8_lossy(&frame.body).into_owned(),
                    ))
                }
                _ => return Err(ClientError::Protocol("unexpected frame kind from service")),
            }
        }
    }

    /// Submits a job without waiting for its result.
    pub fn submit(&self, req: &JobRequest) -> Result<(), ClientError> {
        self.send(&ServeMsg::Submit(req.clone()))
    }

    /// Receives the next job result, whatever its job id (results
    /// stream back in completion order, not submit order).
    pub fn recv_result(&mut self) -> Result<JobResult, ClientError> {
        match self.recv()? {
            ServeMsg::Result(res) => Ok(res),
            _ => Err(ClientError::Protocol("expected a Result RPC")),
        }
    }

    /// Submit-and-wait for a single job.
    pub fn run_job(&mut self, req: &JobRequest) -> Result<JobResult, ClientError> {
        self.submit(req)?;
        self.recv_result()
    }

    /// Fetches a counter snapshot. Drain any outstanding job results
    /// first — the next serve RPC on the wire must be the Stats reply.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.send(&ServeMsg::StatsRequest)?;
        match self.recv()? {
            ServeMsg::Stats(snap) => Ok(snap),
            _ => Err(ClientError::Protocol("expected a Stats RPC")),
        }
    }

    /// Asks the service to drain and stop; returns its lifetime
    /// completed-job count from the acknowledgement.
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        self.send(&ServeMsg::Shutdown)?;
        match self.recv()? {
            ServeMsg::ShutdownAck { jobs_completed } => Ok(jobs_completed),
            _ => Err(ClientError::Protocol("expected a ShutdownAck RPC")),
        }
    }
}
