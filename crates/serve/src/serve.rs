//! The probe service: a `std::net` accept loop feeding a worker-thread
//! pool that holds one warm [`TesterSession`] per worker.
//!
//! Concurrency shape (the PR 7 executor idiom, turned long-running):
//!
//! - The acceptor thread blocks in `accept` and spawns one handler
//!   thread per client connection, sharing the socket with it.
//! - Handlers read RPC frames with blocking, one-shot
//!   [`read_frame`] calls, run **admission control** inline
//!   (config validation, graph-size cap, in-flight budget, drain
//!   state — every refusal a typed [`ServeError`] frame with the job
//!   id echoed), and push admitted jobs onto one shared queue.
//! - Workers pop jobs, run them through [`warm_job`] — reconfigure the
//!   session for the job's parameters, then
//!   [`TesterSession::test_into`] on a per-worker recycled
//!   [`TesterRun`], the zero-steady-state-allocation path the
//!   alloc-gate suite pins — and stream results back on the
//!   submitting client's writer in completion order, each encoded
//!   from the run's verdicts into one reused buffer.
//! - A worker idle for `idle_reclaim_ms` drops its session (arenas
//!   and all) and rebuilds on the next job; the reclaim is counted in
//!   the Stats RPC.
//! - `Shutdown` flips the service into draining (new submits refused
//!   with [`ServeError::Draining`]), waits on a condvar for the
//!   in-flight count to reach zero, and acknowledges with the lifetime
//!   completion count. Only then does that handler stop the pool and
//!   wake the acceptor with one connection to the listener; the
//!   acceptor shuts every tracked connection down, so handlers
//!   blocked in a read see EOF, and joins everything.
//!
//! Verdict bits come exclusively from the session/engine layers below.
//! The service's timings — a job's wall time and its submit-to-result
//! latency — are [`Stopwatch`] readings that land in the result's
//! `wall_us` field and the latency histogram, never in a verdict.

use std::collections::VecDeque;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use ck_congest::clock::{Deadline, Stopwatch};
use ck_congest::engine::{EngineConfig, Executor};
use ck_congest::graph::Graph;
use ck_congest::net::frame::{read_frame, ByteWriter, FrameError, FrameKind};
use ck_congest::net::link::SharedWriter;
use ck_core::session::TesterSession;
use ck_core::tester::{TesterConfig, TesterRun};

use crate::rpc::{
    decode_serve_body, encode_result_into, encode_serve_body, JobResult, LatencySummary,
    ServeError, ServeMsg, StatsSnapshot,
};

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`BoundServer::addr`]).
    pub addr: String,
    /// Worker threads = warm sessions in the pool.
    pub workers: usize,
    /// Admission cap on a job graph's node count (the warm-workspace
    /// bound): larger graphs are refused with
    /// [`ServeError::GraphTooLarge`].
    pub max_nodes: usize,
    /// Admission cap on jobs in flight (queued + executing): beyond
    /// it, submits get an [`ServeError::Overloaded`] backpressure
    /// frame.
    pub inflight_budget: u32,
    /// A worker idle this long tears down its warm session, returning
    /// arena memory; the next job rebuilds it.
    pub idle_reclaim_ms: u64,
    /// Cap on concurrently connected clients (one handler thread
    /// each). At the cap a new connection is answered with an `Error`
    /// frame and closed, so the service's thread count and handler
    /// bookkeeping stay bounded over its lifetime.
    pub max_conns: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_nodes: 1 << 20,
            inflight_budget: 256,
            idle_reclaim_ms: 30_000,
            max_conns: 1024,
        }
    }
}

/// The engine template every pool session runs: the sequential fused
/// path (bit-identical to the parallel executors, and the layout the
/// zero-allocation warm-rerun gate is proved on). Exposed so oracles
/// in tests and benches execute the exact configuration the service
/// does.
pub fn engine_template() -> EngineConfig {
    EngineConfig { executor: Executor::Sequential, ..EngineConfig::default() }
}

/// One warm job on a pool session: revalidate-and-swap the
/// configuration ([`TesterSession::reconfigure`]), then run into the
/// recycled `run` buffer. On the steady state (same graph size, warm
/// arenas) this performs **zero** heap operations — the claim
/// `tests/alloc_gate.rs` turns into a CI gate for the serve path.
pub fn warm_job(
    session: &mut TesterSession,
    graph: &Graph,
    cfg: TesterConfig,
    run: &mut TesterRun,
) -> Result<(), ServeError> {
    session.reconfigure(cfg).map_err(ServeError::Config)?;
    session.test_into(graph, run).map_err(|e| ServeError::Engine(e.to_string()))
}

/// Sub-buckets per octave of [`LatencyHistogram`] (a power of two).
const SUB_BUCKETS: u64 = 4;
/// `log2(SUB_BUCKETS)`.
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Values below `SUB_BUCKETS` get one exact bucket each; every octave
/// `[2^e, 2^(e+1))` above them splits into `SUB_BUCKETS` equal parts.
const BUCKETS: usize = (SUB_BUCKETS as usize) * (64 - SUB_BITS as usize + 1);

/// Log-linear latency histogram in the HdrHistogram style: each octave
/// `[2^e, 2^(e+1))` splits into 4 equal sub-buckets, so a quantile
/// comes back as its bucket's upper bound, less than 25% above any
/// sample in that bucket, and clamped to the observed max (a quantile
/// never exceeds `max_us`). Values 0..=3 are exact. Fixed-size,
/// allocation-free, and mergeable by field addition; every `u64`
/// sample, `u64::MAX` included, lands in exactly one bucket and
/// contributes quantile mass.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; BUCKETS], count: 0, max_us: 0 }
    }
}

/// The bucket holding `us`.
fn bucket_of(us: u64) -> usize {
    if us < SUB_BUCKETS {
        return us as usize;
    }
    // us ≥ 4, so its top bit e ≥ SUB_BITS; the SUB_BITS bits below it
    // pick the sub-bucket.
    let e = 63 - us.leading_zeros();
    let sub = (us >> (e - SUB_BITS)) & (SUB_BUCKETS - 1);
    ((e - SUB_BITS + 1) as u64 * SUB_BUCKETS + sub) as usize
}

/// The largest value [`bucket_of`] maps to bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        return i;
    }
    let shift = (i / SUB_BUCKETS - 1) as u32;
    let lower = (SUB_BUCKETS + i % SUB_BUCKETS) << shift;
    // lower + width − 1, which reaches exactly u64::MAX in the top
    // bucket and never overflows.
    lower + ((1u64 << shift) - 1)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record_us(&mut self, us: u64) {
        if let Some(slot) = self.buckets.get_mut(bucket_of(us)) {
            *slot += 1;
        }
        self.count += 1;
        self.max_us = self.max_us.max(us);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The upper bound of the bucket at or below which at least
    /// `num/den` of the recorded mass lies, clamped to the observed max
    /// (0 when empty).
    pub fn quantile_us(&self, num: u64, den: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let need = (self.count * num).div_ceil(den.max(1));
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= need {
                return bucket_upper(i).min(self.max_us);
            }
        }
        self.max_us
    }

    /// p50/p99/max summary for the Stats RPC.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            p50_us: self.quantile_us(1, 2),
            p99_us: self.quantile_us(99, 100),
            max_us: self.max_us,
        }
    }
}

/// An admitted job waiting for (or on) a worker.
struct Job {
    job_id: u64,
    graph: Graph,
    cfg: TesterConfig,
    reply: SharedWriter<TcpStream>,
    /// Started at admission; read for the latency histogram.
    submitted: Stopwatch,
}

/// Lifetime counters behind one short-critical-section lock.
#[derive(Default)]
struct StatsInner {
    jobs_submitted: u64,
    jobs_completed: u64,
    jobs_refused: u64,
    sessions_reclaimed: u64,
    slot_takes: u64,
    slot_misses: u64,
    latency: LatencyHistogram,
}

/// State shared by the acceptor, handlers, and workers.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    work_cv: Condvar,
    /// Signalled, under `queue`'s lock, when `in_flight` reaches 0.
    drained_cv: Condvar,
    stats: Mutex<StatsInner>,
    /// Admitted and unanswered (queued + executing).
    in_flight: AtomicU32,
    /// Checked out of the queue by a worker right now.
    executing: AtomicU64,
    /// Refuse new admissions; drain what's in.
    draining: AtomicBool,
    /// Everything winds down.
    stop: AtomicBool,
    /// Where one connection wakes the acceptor blocked in `accept`.
    wake: SocketAddr,
}

impl Shared {
    fn new(wake: SocketAddr) -> Self {
        Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            drained_cv: Condvar::new(),
            stats: Mutex::new(StatsInner::default()),
            in_flight: AtomicU32::new(0),
            executing: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            wake,
        }
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        // Poisoning (a peer thread panicking mid-push) leaves the queue
        // structurally sound; refusing to serve would turn one dead
        // thread into a dead service.
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Answers for one admitted job; the last one out wakes `drain`.
    fn release(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Taking the lock orders this wake after a drainer's
            // check-then-wait, so the wake cannot be missed.
            let _q = self.lock_queue();
            self.drained_cv.notify_all();
        }
    }

    /// Stops the workers and wakes the acceptor, which then shuts every
    /// connection down.
    fn stop_service(&self) {
        // Set under the queue lock, so no worker sits between its
        // `stop` check and its wait when the notify lands.
        let q = self.lock_queue();
        self.stop.store(true, Ordering::SeqCst);
        drop(q);
        self.work_cv.notify_all();
        let _ = TcpStream::connect(self.wake);
    }

    /// Pops the next job, waiting at most `idle_ms`. `None` means
    /// either an idle tick or shutdown — the caller checks `stop`.
    fn next_job(&self, idle_ms: u64) -> Option<Job> {
        let mut q = self.lock_queue();
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, timeout) = self
                .work_cv
                .wait_timeout(q, Duration::from_millis(idle_ms.max(1)))
                .unwrap_or_else(|p| p.into_inner());
            q = guard;
            if timeout.timed_out() {
                return None;
            }
        }
    }

    fn stats<R>(&self, f: impl FnOnce(&mut StatsInner) -> R) -> R {
        let mut s = self.stats.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut s)
    }

    fn queue_depth(&self) -> u32 {
        self.lock_queue().len() as u32
    }

    fn snapshot(&self, workers: u32) -> StatsSnapshot {
        let queue_depth = self.queue_depth();
        let in_flight = self.in_flight.load(Ordering::SeqCst);
        let pool_outstanding = self.executing.load(Ordering::SeqCst);
        self.stats(|s| StatsSnapshot {
            workers,
            queue_depth,
            in_flight,
            pool_outstanding,
            jobs_submitted: s.jobs_submitted,
            jobs_completed: s.jobs_completed,
            jobs_refused: s.jobs_refused,
            sessions_reclaimed: s.sessions_reclaimed,
            slot_takes: s.slot_takes,
            slot_misses: s.slot_misses,
            latency: s.latency.summary(),
        })
    }
}

/// Best-effort send of an encoded RPC body: a vanished client is that
/// client's problem, never the service's. A body no frame can carry
/// (in practice a Result whose verdicts outgrow [`MAX_BODY`]) is
/// answered with an `Error` frame naming its size.
///
/// [`MAX_BODY`]: ck_congest::net::frame::MAX_BODY
fn send_body(writer: &SharedWriter<TcpStream>, body: Result<&[u8], &FrameError>) {
    let _ = match body {
        Ok(body) => writer.send(FrameKind::Serve, body),
        Err(e) => writer.send(FrameKind::Error, e.to_string().as_bytes()),
    };
}

fn send_msg(writer: &SharedWriter<TcpStream>, msg: &ServeMsg) {
    send_body(writer, encode_serve_body(msg).as_deref());
}

/// The worker loop: one warm session, one recycled run buffer, and one
/// reused output buffer that each Result is encoded into straight from
/// the run's verdicts.
fn worker_loop(shared: Arc<Shared>, opts: Arc<ServeOptions>) {
    let mut session: Option<TesterSession> = None;
    let mut run = TesterRun::default();
    let mut out = ByteWriter::new();
    // Slot-stats folding base for the current session incarnation.
    let mut folded = (0u64, 0u64);
    loop {
        match shared.next_job(opts.idle_reclaim_ms) {
            Some(job) => {
                shared.executing.fetch_add(1, Ordering::SeqCst);
                let t0 = Stopwatch::start();
                let outcome = match session.as_mut() {
                    Some(s) => warm_job(s, &job.graph, job.cfg, &mut run),
                    None => match TesterSession::from_config(job.cfg, engine_template()) {
                        Ok(s) => {
                            folded = (0, 0);
                            warm_job(session.insert(s), &job.graph, job.cfg, &mut run)
                        }
                        Err(e) => Err(ServeError::Config(e)),
                    },
                };
                let wall_us = t0.elapsed().as_micros() as u64;
                let ok = outcome.is_ok();
                let verdict =
                    outcome.as_ref().map(|()| (run.reject, wall_us, &run.outcome.verdicts[..]));
                let encoded = encode_result_into(&mut out, job.job_id, verdict);
                let delta = session
                    .as_ref()
                    .map(|s| {
                        let now = s.slot_stats();
                        let d = (now.takes - folded.0, now.misses - folded.1);
                        folded = (now.takes, now.misses);
                        d
                    })
                    .unwrap_or((0, 0));
                let latency_us = job.submitted.elapsed().as_micros() as u64;
                shared.stats(|s| {
                    if ok {
                        s.jobs_completed += 1;
                    } else {
                        s.jobs_refused += 1;
                    }
                    s.slot_takes += delta.0;
                    s.slot_misses += delta.1;
                    s.latency.record_us(latency_us);
                });
                // The job is counted before its Result leaves, so a Stats
                // RPC issued after the client holds the Result sees it.
                // `release` stays after the send: a drain never stops the
                // pool before the last Result is written, and `in_flight`
                // may still count a job whose Result just left.
                shared.executing.fetch_sub(1, Ordering::SeqCst);
                send_body(&job.reply, encoded.as_ref().map(|()| &out.0[..]));
                shared.release();
            }
            None => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                // Idle tick: return the warm arenas to the allocator.
                if session.take().is_some() {
                    folded = (0, 0);
                    shared.stats(|s| s.sessions_reclaimed += 1);
                }
            }
        }
    }
}

/// Admission control for one submit. Refusals echo the job id.
fn handle_submit(
    shared: &Shared,
    opts: &ServeOptions,
    writer: &SharedWriter<TcpStream>,
    req: crate::rpc::JobRequest,
) {
    shared.stats(|s| s.jobs_submitted += 1);
    let refusal = if shared.draining.load(Ordering::SeqCst) {
        Some(ServeError::Draining)
    } else if let Err(e) = req.tester_config().validate() {
        Some(ServeError::Config(e))
    } else if req.graph.n() > opts.max_nodes {
        Some(ServeError::GraphTooLarge { n: req.graph.n() as u64, max: opts.max_nodes as u64 })
    } else {
        match shared.in_flight.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
            if cur >= opts.inflight_budget {
                None
            } else {
                Some(cur + 1)
            }
        }) {
            Ok(_) => {
                // A drain can begin between the check at the top and
                // this increment — and may already have observed
                // in_flight == 0 and stopped the pool. Re-check and
                // refund so no job is ever queued with no workers
                // left to answer it.
                if shared.draining.load(Ordering::SeqCst) {
                    shared.release();
                    Some(ServeError::Draining)
                } else {
                    None
                }
            }
            Err(cur) => {
                Some(ServeError::Overloaded { in_flight: cur, budget: opts.inflight_budget })
            }
        }
    };
    match refusal {
        Some(err) => {
            shared.stats(|s| s.jobs_refused += 1);
            send_msg(
                writer,
                &ServeMsg::Result(JobResult { job_id: req.job_id, outcome: Err(err) }),
            );
        }
        None => {
            let cfg = req.tester_config();
            let job = Job {
                job_id: req.job_id,
                graph: req.graph,
                cfg,
                reply: writer.clone(),
                submitted: Stopwatch::start(),
            };
            shared.lock_queue().push_back(job);
            shared.work_cv.notify_one();
        }
    }
}

/// Graceful drain: refuse new work and wait out the in-flight jobs.
fn drain(shared: &Shared) -> u64 {
    shared.draining.store(true, Ordering::SeqCst);
    let q = shared.lock_queue();
    let q = shared
        .drained_cv
        .wait_while(q, |_| shared.in_flight.load(Ordering::SeqCst) != 0)
        .unwrap_or_else(|p| p.into_inner());
    drop(q);
    shared.stats(|s| s.jobs_completed)
}

/// One RPC dispatched; `false` ends the connection.
fn handle_msg(
    shared: &Shared,
    opts: &ServeOptions,
    writer: &SharedWriter<TcpStream>,
    msg: ServeMsg,
) -> bool {
    match msg {
        ServeMsg::Submit(req) => {
            handle_submit(shared, opts, writer, req);
            true
        }
        ServeMsg::StatsRequest => {
            send_msg(writer, &ServeMsg::Stats(shared.snapshot(opts.workers.max(1) as u32)));
            true
        }
        ServeMsg::Shutdown => {
            let jobs_completed = drain(shared);
            // The ack goes out before any connection is shut down.
            send_msg(writer, &ServeMsg::ShutdownAck { jobs_completed });
            shared.stop_service();
            false
        }
        // Service-bound links never carry service-to-client RPCs; the
        // framing is intact, so answer typed and keep the connection.
        ServeMsg::Result(_) | ServeMsg::Stats(_) | ServeMsg::ShutdownAck { .. } => {
            let _ = writer.send(FrameKind::Error, b"protocol: client sent a service-to-client RPC");
            true
        }
    }
}

/// Per-connection handler: the service's read loop, one blocking
/// [`read_frame`] per RPC. Body-level decode failures (intact frame
/// boundary) answer with a typed `Error` frame and keep reading — the
/// garbage-then-valid recovery path; framing failures and EOF drop
/// the connection, and the service stays up either way.
fn client_loop(shared: &Shared, opts: &ServeOptions, stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    if let Ok(w) = stream.try_clone() {
        let writer = SharedWriter::new(w);
        let mut reader = stream;
        loop {
            let msg = match read_frame(&mut reader, &Deadline::never()) {
                Ok(frame) => match frame.kind {
                    FrameKind::Serve => decode_serve_body(&frame.body),
                    FrameKind::Heartbeat => continue,
                    _ => Err(FrameError::BadBody("unexpected frame kind on a serve link")),
                },
                Err(e) => {
                    let _ = writer.send(FrameKind::Error, e.to_string().as_bytes());
                    break;
                }
            };
            match msg {
                Ok(msg) => {
                    if !handle_msg(shared, opts, &writer, msg) {
                        break;
                    }
                }
                Err(e) => {
                    let _ = writer.send(FrameKind::Error, e.to_string().as_bytes());
                }
            }
        }
    }
    // The acceptor shares this socket, so dropping our handle would
    // not close it: shut it down so the peer sees EOF now.
    let _ = stream.shutdown(Shutdown::Both);
}

/// The address a handler connects to in order to wake the acceptor:
/// the listener itself, through loopback when it is bound to every
/// interface.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// A bound-but-not-yet-serving service: the split lets callers learn
/// the OS-assigned port before the blocking loop starts.
pub struct BoundServer {
    listener: TcpListener,
    addr: SocketAddr,
    opts: ServeOptions,
}

impl BoundServer {
    /// Binds the listener (port 0 allocates).
    pub fn bind(opts: ServeOptions) -> io::Result<BoundServer> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        Ok(BoundServer { listener, addr, opts })
    }

    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the service to completion (a client's `Shutdown` drains
    /// and stops it); returns the final counter snapshot.
    pub fn run(self) -> StatsSnapshot {
        let shared = Arc::new(Shared::new(wake_addr(self.addr)));
        let opts = Arc::new(self.opts);
        let workers: Vec<_> = (0..opts.workers.max(1))
            .map(|_| {
                let sh = Arc::clone(&shared);
                let o = Arc::clone(&opts);
                thread::spawn(move || worker_loop(sh, o))
            })
            .collect();
        // Each live handler with its socket, so shutdown can end a
        // handler blocked in a read.
        let mut conns: Vec<(Arc<TcpStream>, thread::JoinHandle<()>)> = Vec::new();
        for stream in self.listener.incoming() {
            // The wake connection of `Shared::stop_service` lands here.
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            // Reap finished handlers on every accept, so the vec and
            // the peak thread count track *live* connections, not
            // lifetime ones. A failed accept reaps too: that frees the
            // descriptors a retry may be short of.
            conns.retain(|(_, h)| !h.is_finished());
            let Ok(stream) = stream else { continue };
            if conns.len() >= opts.max_conns.max(1) {
                // At the connection cap: refuse loudly, then close
                // (dropping the stream closes it).
                let w = SharedWriter::new(stream);
                let _ = w.send(FrameKind::Error, b"connection limit reached");
                continue;
            }
            let stream = Arc::new(stream);
            let (sh, o, st) = (Arc::clone(&shared), Arc::clone(&opts), Arc::clone(&stream));
            conns.push((stream, thread::spawn(move || client_loop(&sh, &o, &st))));
        }
        for (conn, _) in &conns {
            let _ = conn.shutdown(Shutdown::Both);
        }
        for w in workers {
            let _ = w.join();
        }
        for (_, h) in conns {
            let _ = h.join();
        }
        shared.snapshot(opts.workers.max(1) as u32)
    }

    /// Runs the service on its own thread; the handle joins for the
    /// final snapshot.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        ServerHandle { addr, join: thread::spawn(move || self.run()) }
    }
}

/// A running service spawned by [`BoundServer::spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    join: thread::JoinHandle<StatsSnapshot>,
}

impl ServerHandle {
    /// The service's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the service to drain and stop (a client must have
    /// sent `Shutdown`); a worker panic degrades to default counters
    /// rather than propagating.
    pub fn join(self) -> StatsSnapshot {
        self.join.join().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_reaches_an_unspecified_listener_through_loopback() {
        let wake = |a: &str| wake_addr(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7070"), "127.0.0.1:7070");
        assert_eq!(wake("[::]:7070"), "[::1]:7070");
        assert_eq!(wake("10.1.2.3:7070"), "10.1.2.3:7070");
    }

    #[test]
    fn histogram_quantiles_cover_the_mass() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.summary(), LatencySummary::default());
        for us in [3u64, 3, 3, 3, 3, 3, 3, 3, 3, 1000] {
            h.record_us(us);
        }
        let s = h.summary();
        assert_eq!(s.count, 10);
        assert_eq!(s.max_us, 1000);
        // p50 lands in the exact bucket of 3.
        assert_eq!(s.p50_us, 3);
        // p99 needs all 10 samples: the 1000 µs bucket (896..=1023),
        // whose 1023 upper bound is clamped to the observed max.
        assert_eq!(s.p99_us, 1000);
        assert!(s.p50_us <= s.p99_us && s.p99_us <= s.max_us);
        // A bucket bound below the max is reported as is.
        assert_eq!(h.quantile_us(9, 10), 3);
        for (num, den) in [(1, 2), (9, 10), (99, 100), (1, 1)] {
            assert!(h.quantile_us(num, den) <= s.max_us, "{num}/{den} above the max");
        }
    }

    #[test]
    fn histogram_zero_and_extremes() {
        let mut h = LatencyHistogram::new();
        h.record_us(0);
        h.record_us(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.summary().max_us, u64::MAX);
        // 0 and u64::MAX sit in the first and the last bucket; both
        // must carry quantile mass, so p50 is the zero bucket and p99
        // the top one — not a silent fall-through to max_us.
        assert_eq!(h.quantile_us(1, 2), 0);
        assert_eq!(h.quantile_us(99, 100), u64::MAX);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_sub_buckets_keep_quantiles_within_a_quarter() {
        let mut h = LatencyHistogram::new();
        for _ in 0..900 {
            h.record_us(520);
        }
        for _ in 0..100 {
            h.record_us(1000);
        }
        // 520 sits in 512..=639; a power-of-two bucket would say 1000
        // (its 1023 bound, clamped to the max).
        let p50 = h.quantile_us(1, 2);
        assert!((520..=650).contains(&p50), "p50 {p50}");
        assert_eq!(h.quantile_us(99, 100), 1000);
    }

    #[test]
    fn histogram_buckets_tile_u64_with_bounded_error() {
        // Buckets are contiguous and each upper bound maps back to its
        // own bucket; within a bucket the bound is < 25% above the
        // lowest value it holds.
        for i in 0..BUCKETS - 1 {
            let upper = bucket_upper(i);
            assert_eq!(bucket_of(upper), i, "bucket {i}");
            assert_eq!(bucket_of(upper + 1), i + 1, "bucket {i} + 1");
            let lower = if i == 0 { 0 } else { bucket_upper(i - 1) + 1 };
            assert!((upper - lower) as f64 <= 0.25 * lower as f64, "bucket {i}: {lower}..={upper}");
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }
}
