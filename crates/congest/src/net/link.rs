//! Connection establishment and liveness plumbing: bounded-retry
//! connect with exponential backoff, the buffered frame writer a
//! protocol thread shares with its heartbeat, and the worker-side
//! heartbeat that keeps a long round from being mistaken for a dead
//! process — beating while a job is in flight, parked between jobs.

use std::io::{BufWriter, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use super::frame::{write_frame, FrameKind};
use crate::clock::Deadline;

/// Connects to `addr`, retrying with exponential backoff (`base_ms`,
/// doubling per attempt) up to `attempts` tries. Bounded time by
/// construction: the worst case is `base_ms · (2^attempts − 1)` of
/// sleeping plus the OS connect timeouts.
pub fn connect_with_retry(
    addr: &str,
    attempts: u32,
    base_ms: u64,
) -> Result<TcpStream, std::io::Error> {
    let mut delay = Duration::from_millis(base_ms);
    let mut last = None;
    for attempt in 0..attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
        if attempt + 1 < attempts.max(1) {
            std::thread::sleep(delay);
            delay = delay.saturating_mul(2);
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("no connect attempts made")))
}

/// A buffered frame writer shared between a protocol thread and its
/// heartbeat thread. Every frame goes into the buffer under one lock,
/// so heartbeats can never interleave into the middle of a protocol
/// frame. [`send`](Self::send) flushes; [`queue`](Self::queue) does
/// not, so a batch of queued frames closed by one `send` leaves in a
/// single write.
pub struct SharedWriter<W: Write + Send> {
    inner: Arc<Mutex<BufWriter<W>>>,
}

impl<W: Write + Send> Clone for SharedWriter<W> {
    fn clone(&self) -> Self {
        SharedWriter { inner: Arc::clone(&self.inner) }
    }
}

impl<W: Write + Send + 'static> SharedWriter<W> {
    pub fn new(w: W) -> Self {
        SharedWriter { inner: Arc::new(Mutex::new(BufWriter::new(w))) }
    }

    fn lock(&self) -> MutexGuard<'_, BufWriter<W>> {
        // A poisoned lock means a peer thread panicked mid-write; the
        // stream may carry a torn frame, which the reader's length
        // checks surface as a typed FrameError. Propagating the write
        // is strictly more informative than poisoning-panicking here.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Writes one frame and flushes it together with every frame
    /// queued before it.
    pub fn send(&self, kind: FrameKind, body: &[u8]) -> std::io::Result<()> {
        let mut w = self.lock();
        write_frame(&mut *w, kind, body)?;
        w.flush()
    }

    /// Writes one frame into the buffer without flushing; the next
    /// [`send`](Self::send) (the caller's, or a heartbeat's) carries it
    /// out. A body larger than the buffer goes straight through.
    pub fn queue(&self, kind: FrameKind, body: &[u8]) -> std::io::Result<()> {
        write_frame(&mut *self.lock(), kind, body)
    }
}

/// Emits [`FrameKind::Heartbeat`] frames while a job is in flight.
/// The beat starts parked; [`resume`](Self::resume) starts beating
/// every `interval` and [`park`](Self::park) stops it again, so one
/// thread serves every job of a worker's life without a spawn or a
/// join per job. A parked beat blocks on a condition variable: it
/// wakes for nothing until it is resumed or stopped. Write failures
/// end the beat silently (the protocol side observes the dead link
/// itself), and [`stop`](Self::stop) (or drop) wakes the thread at once
/// instead of waiting out the interval.
pub struct HeartbeatHandle {
    beat: Arc<Beat>,
    join: Option<std::thread::JoinHandle<()>>,
}

struct Beat {
    state: Mutex<BeatState>,
    wake: Condvar,
}

#[derive(Clone, Copy)]
enum BeatState {
    Parked,
    Running { interval: Duration, due: Deadline },
    Stopped,
}

impl Beat {
    fn lock(&self) -> MutexGuard<'_, BeatState> {
        // The state is a plain enum that every writer leaves whole, so
        // a poisoned lock still holds a valid state.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn set(&self, next: BeatState) {
        *self.lock() = next;
        self.wake.notify_one();
    }
}

impl HeartbeatHandle {
    /// Spawns a parked beat on `writer`; nothing is sent before the
    /// first [`resume`](Self::resume).
    pub fn parked<W: Write + Send + 'static>(writer: SharedWriter<W>) -> Self {
        let beat = Arc::new(Beat { state: Mutex::new(BeatState::Parked), wake: Condvar::new() });
        let shared = Arc::clone(&beat);
        let join = std::thread::spawn(move || {
            let mut state = shared.lock();
            loop {
                state = match *state {
                    BeatState::Stopped => return,
                    BeatState::Parked => shared.wake.wait(state).unwrap_or_else(|p| p.into_inner()),
                    BeatState::Running { due, .. } if !due.expired() => {
                        let (s, _) = shared
                            .wake
                            .wait_timeout(state, due.remaining())
                            .unwrap_or_else(|p| p.into_inner());
                        s
                    }
                    BeatState::Running { interval, .. } => {
                        // The beat is written with the state lock held,
                        // so once `park` returns no beat is in flight.
                        if writer.send(FrameKind::Heartbeat, &[]).is_err() {
                            return;
                        }
                        *state = BeatState::Running { interval, due: Deadline::after(interval) };
                        state
                    }
                };
            }
        });
        HeartbeatHandle { beat, join: Some(join) }
    }

    /// Starts beating every `interval`; the first beat is due one
    /// interval from now.
    pub fn resume(&self, interval: Duration) {
        self.beat.set(BeatState::Running { interval, due: Deadline::after(interval) });
    }

    /// Stops beating until the next [`resume`](Self::resume). Returns
    /// once no beat is in flight, so a frame the caller sends next is
    /// never followed by a beat of this job.
    pub fn park(&self) {
        self.beat.set(BeatState::Parked);
    }

    /// Stops the beat and joins the thread; returns without waiting
    /// for the current interval to run out.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.beat.set(BeatState::Stopped);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for HeartbeatHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::frame::{read_frame, FrameError};
    use std::time::Instant;

    #[test]
    fn connect_retry_fails_typed_and_bounded() {
        // A port nothing listens on: every attempt errors, the call
        // returns instead of hanging.
        let err = connect_with_retry("127.0.0.1:1", 2, 1);
        assert!(err.is_err());
    }

    #[test]
    fn heartbeats_never_split_protocol_frames() {
        let buf: Vec<u8> = Vec::new();
        let shared = SharedWriter::new(buf);
        let hb = HeartbeatHandle::parked(shared.clone());
        hb.resume(Duration::from_micros(200));
        // Even frames are queued, odd ones sent: a heartbeat may flush
        // a half-built batch, but never lands inside a frame.
        for i in 0..50u32 {
            if i % 2 == 0 {
                shared.queue(FrameKind::Go, &i.to_le_bytes()).unwrap();
            } else {
                shared.send(FrameKind::Go, &i.to_le_bytes()).unwrap();
            }
        }
        hb.stop();
        let wire = shared.lock().get_ref().clone();
        // Every frame parses cleanly — no interleaving corrupted one.
        let d = Deadline::after_ms(200);
        let mut r = &wire[..];
        let mut gos = 0;
        loop {
            match read_frame(&mut r, &d) {
                Ok(f) => {
                    if f.kind == FrameKind::Go {
                        assert_eq!(f.body, (gos as u32).to_le_bytes());
                        gos += 1;
                    } else {
                        assert_eq!(f.kind, FrameKind::Heartbeat);
                    }
                }
                Err(FrameError::Truncated) if r.is_empty() => break,
                Err(e) => panic!("corrupted stream: {e:?}"),
            }
        }
        assert_eq!(gos, 50);
    }

    /// A sink that records every `write` call it receives.
    #[derive(Default)]
    struct CountingSink {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn queued_frames_leave_with_the_next_send_in_one_write() {
        const N: u32 = 16;
        let shared = SharedWriter::new(CountingSink::default());
        let mut expected = Vec::new();
        for i in 0..N {
            let body = [i as u8; 9];
            shared.queue(FrameKind::Msg, &body).unwrap();
            write_frame(&mut expected, FrameKind::Msg, &body).unwrap();
        }
        assert_eq!(shared.lock().get_ref().writes, 0, "queue must not write through");
        shared.send(FrameKind::Done, &N.to_le_bytes()).unwrap();
        write_frame(&mut expected, FrameKind::Done, &N.to_le_bytes()).unwrap();
        let w = shared.lock();
        assert_eq!(w.get_ref().writes, 1, "N queued frames and one send are one write");
        assert_eq!(w.get_ref().bytes, expected, "batching leaves the bytes unchanged");
    }

    #[test]
    fn stop_does_not_wait_out_the_interval() {
        let shared = SharedWriter::new(Vec::<u8>::new());
        let hb = HeartbeatHandle::parked(shared.clone());
        hb.resume(Duration::from_secs(5));
        let started = Instant::now();
        hb.stop();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "stop waited {took:?} for a 5 s beat");
        assert!(shared.lock().get_ref().is_empty(), "no beat was due yet");
    }

    fn beats(shared: &SharedWriter<Vec<u8>>) -> usize {
        // Every frame on this wire is an empty-bodied heartbeat.
        shared.lock().get_ref().len() / 5
    }

    #[test]
    fn a_parked_beat_sends_nothing_until_resumed() {
        let shared = SharedWriter::new(Vec::<u8>::new());
        let hb = HeartbeatHandle::parked(shared.clone());
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(beats(&shared), 0, "a beat that was never resumed stays silent");
        for job in 0..3 {
            hb.resume(Duration::from_millis(1));
            let deadline = Deadline::after_ms(5_000);
            while beats(&shared) < 2 && !deadline.expired() {
                std::thread::sleep(Duration::from_millis(1));
            }
            hb.park();
            let parked_at = beats(&shared);
            assert!(parked_at >= 2, "job {job}: a resumed beat beats");
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(beats(&shared), parked_at, "job {job}: no beat follows park");
        }
        let started = Instant::now();
        hb.stop();
        assert!(started.elapsed() < Duration::from_secs(1), "stopping a parked beat is prompt");
    }
}
