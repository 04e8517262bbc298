//! Physical-layer fault injection: the transport sibling of the
//! logical [`crate::fault::FaultPlan`].
//!
//! PR 6's fault plan tampers with *messages* inside one address space;
//! [`ChaosTransport`] tampers with the *byte stream* between processes:
//! truncated writes that cut a frame mid-body, delayed writes that push
//! a link past its round deadline, and hard disconnects. Wrapping the
//! coordinator's side of one worker link with a [`ChaosPlan`] drives
//! the recovery machinery (deadline → [`super::NetError::WorkerLost`]
//! → sequential fallback) down paths a healthy loopback socket never
//! exercises.

use std::io::{Read, Write};
use std::time::Duration;

/// What goes wrong on one worker link, and when.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The worker whose link this plan torments.
    pub worker: u32,
    /// After this many bytes have been written, the next write is cut
    /// short (a frame dies mid-body) and every later write fails with
    /// `BrokenPipe` — a mid-frame disconnect as the peer observes it.
    /// The count runs over the link's life, which spans every job of a
    /// worker fleet.
    pub truncate_after_bytes: Option<u64>,
    /// Sleep this long before every write — an overloaded or
    /// rate-limited link. Large values push the round past its
    /// deadline.
    pub delay_write_ms: u64,
    /// At the start of this round the coordinator drops the link
    /// entirely (TCP shutdown), orphaning the worker.
    pub disconnect_at_round: Option<u32>,
    /// Shipped to the worker in its spec: the worker process calls
    /// `std::process::abort()` when told to execute this round — a
    /// crash indistinguishable from `kill -9` to the coordinator.
    pub abort_at_round: Option<u32>,
}

impl ChaosPlan {
    /// A plan that does nothing, for `worker`.
    pub fn for_worker(worker: u32) -> Self {
        ChaosPlan { worker, ..ChaosPlan::default() }
    }
}

/// A `Read + Write` wrapper executing a [`ChaosPlan`]'s byte-level
/// faults. Reads pass through untouched (the plan torments what *this*
/// side sends); writes are delayed, truncated, or refused per the plan.
pub struct ChaosTransport<T> {
    inner: T,
    written: u64,
    truncate_after: Option<u64>,
    delay: Duration,
}

impl<T> ChaosTransport<T> {
    /// Wraps `inner` under `plan` (only the write-side fields apply;
    /// round-indexed faults are the coordinator's job).
    pub fn new(inner: T, plan: &ChaosPlan) -> Self {
        ChaosTransport {
            inner,
            written: 0,
            truncate_after: plan.truncate_after_bytes,
            delay: Duration::from_millis(plan.delay_write_ms),
        }
    }

    /// The wrapped stream (for socket options, shutdown).
    pub fn get_ref(&self) -> &T {
        &self.inner
    }

    /// True once the truncation point has been crossed — the caller
    /// should hard-close the underlying socket so the peer observes the
    /// cut instead of a silent stall.
    pub fn cut_reached(&self) -> bool {
        self.truncate_after.is_some_and(|cut| self.written >= cut)
    }

    /// Total bytes accepted (delivered or claimed) so far.
    pub fn bytes_written(&self) -> u64 {
        self.written
    }
}

impl<T: Read> Read for ChaosTransport<T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl<T: Write> Write for ChaosTransport<T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        if let Some(cut) = self.truncate_after {
            if self.written >= cut {
                return Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "chaos: link cut"));
            }
            let room = (cut - self.written) as usize;
            if buf.len() > room {
                // Deliver the prefix — the frame dies mid-body on the
                // peer's side — and fail from the next call on.
                let k = self.inner.write(&buf[..room])?;
                self.written += k as u64;
                return Ok(k);
            }
        }
        let k = self.inner.write(buf)?;
        self.written += k as u64;
        Ok(k)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Deadline;
    use crate::net::frame::{read_frame, write_frame, FrameError, FrameKind};

    #[test]
    fn truncation_cuts_a_frame_mid_body() {
        let plan = ChaosPlan { worker: 0, truncate_after_bytes: Some(8), ..ChaosPlan::default() };
        let mut t = ChaosTransport::new(Vec::new(), &plan);
        // 5-byte header + 9-byte body = 14 bytes; only 8 survive.
        let res = write_frame(&mut t, FrameKind::Msg, &[9u8; 9]);
        assert!(res.is_err() || t.cut_reached());
        let wire = t.get_ref().clone();
        assert_eq!(wire.len(), 8);
        let d = Deadline::after_ms(50);
        assert_eq!(read_frame(&mut &wire[..], &d), Err(FrameError::Truncated));
    }

    #[test]
    fn writes_after_the_cut_break() {
        let plan = ChaosPlan { worker: 0, truncate_after_bytes: Some(0), ..ChaosPlan::default() };
        let mut t = ChaosTransport::new(Vec::new(), &plan);
        assert!(t.cut_reached());
        assert_eq!(t.write(&[1, 2, 3]).unwrap_err().kind(), std::io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn clean_plan_is_a_passthrough() {
        let plan = ChaosPlan::for_worker(2);
        let mut t = ChaosTransport::new(Vec::new(), &plan);
        write_frame(&mut t, FrameKind::Ready, &[]).unwrap();
        let d = Deadline::after_ms(50);
        let wire = t.get_ref().clone();
        assert_eq!(read_frame(&mut &wire[..], &d).unwrap().kind, FrameKind::Ready);
    }
}
