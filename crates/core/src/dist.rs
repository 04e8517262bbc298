//! The distributed tester executor: a coordinator that partitions the
//! graph across worker processes (or protocol-identical worker
//! threads) and drives lock-step rounds over the
//! [`ck_congest::net`] frame protocol.
//!
//! This is the protocol-specific half of the distributed executor —
//! the generic engine cannot ship arbitrary in-process programs, but
//! the tester's node program is fully described by a [`TesterConfig`]
//! plus the graph, so a [`JobSpec`] frame reconstructs byte-identical
//! node programs inside every worker. Each worker steps its contiguous
//! node range through a [`PartitionEngine`] as one chunk of the
//! engine's round loop (the *same* per-node step and fused send path
//! as the in-process executors), its programs running over views into
//! one worker-owned [`SoaArena`] exactly as the in-process executors'
//! do; cross-partition
//! deliveries travel as `Msg` frames whose payload is the canonical
//! [`CkCodec`] bit string and whose header carries the
//! [`ContextCodec`] handshake word, so the receiving worker rebuilds
//! the sender's codec without any shared round state.
//!
//! ## Protocol
//!
//! ```text
//! once per fleet (spawn, or respawn):
//!   worker → Hello(magic, index) ⇥
//! per job, over the same links:
//!   coord  → Spec(job) ⇥               worker → Ready ⇥
//!   per round r:
//!     coord → Go(r) ⇥
//!     worker: step; → Msg* ; → Done(r, digest) ⇥   [Heartbeat ⇥ freely]
//!     coord: merge digests, route every Msg to its owner
//!     coord → Msg* ; → Barrier(r)      worker: inject, commit
//!   coord  → Finish ⇥                  worker → Verdicts ⇥
//! between jobs: the worker blocks reading its next Spec
//! end of the fleet: coord → Abort ⇥, or the coordinator closes its end
//! any failure: coord → Abort ⇥ / worker → Error ⇥; the fleet is reaped
//! ```
//!
//! The coordinator's links outlive a run: a *fleet*, owned by the
//! [`crate::session::TesterSession`], spawns and handshakes its workers
//! on the session's first distributed run, and each later run is only
//! `Spec` to `Verdicts`. Between jobs a worker waits in one blocking
//! read with no deadline and no tick, its heartbeat thread parked on a
//! condition variable; the wait ends with the next `Spec`, with
//! `Abort`, or at EOF when the coordinator closes its end. Inside a job
//! the worker gives up on a coordinator that stays silent for ten round
//! deadlines (at least 10 s). The fleet is reaped after any failed run
//! (the fallback to the sequential oracle then runs as before) and
//! respawned when a run asks for another worker count or other
//! [`NetOptions`]; a reused fleet found dead before `Ready` is respawned
//! once, inside the same run's connect budget. Dropping the fleet ends
//! every worker and joins every worker thread.
//!
//! `Hello` carries the magic `ckd8` and the worker's index, so a worker
//! from a build with another `Spec`, `Done` or `Verdicts` layout or job
//! loop fails the handshake typed.
//! A `Spec` body opens with the graph's varint section
//! ([`Graph::write_bytes`]), followed by fixed-width tester, engine and
//! worker fields. The tester fields are `k`, `ε`, the seed, the
//! optional repetition override and the optional assumed loss rate:
//! every [`TesterConfig`] field. The engine fields are the round cap,
//! the bandwidth policy and the fault plan; nothing says whether rounds
//! are recorded, because only the coordinator closes rounds, and every
//! closed round leaves its row. A `Verdicts` body is the
//! [`write_verdicts`] section of the worker's range. Nothing says
//! whether witnesses are validated either: the coordinator validates
//! the merged verdicts of a run whose merged round digests count a
//! delivered corrupted frame, as an in-process run does its own.
//!
//! `⇥` marks a flush. Both sides write through buffers and flush only
//! before they wait for an answer, so every frame queued on a link
//! since its last flush leaves in one write: a worker's round is one
//! write (its `Msg`s and `Done`), and so is the coordinator's answer to
//! it (the routed `Msg`s, `Barrier(r)` and `Go(r+1)`, or `Finish` after
//! the last round). Both sides read through buffers too, so one read
//! returns a whole batch. Heartbeats carry liveness only: no step of
//! the protocol waits for one.
//!
//! Every failure is a typed [`NetError`] produced within the
//! configured deadlines (see the [`ck_congest::net`] failure table);
//! [`crate::tester`] degrades a failed distributed run to the
//! sequential oracle and records the fallback in the run report.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

// The clock only bounds reads and dates heartbeats: a late worker
// becomes a typed `NetError` and the run falls back to the sequential
// oracle, so verdict bits never depend on it.
use ck_congest::clock::{Deadline, Stopwatch};
use ck_congest::engine::{BandwidthPolicy, EngineConfig, EngineError, Executor, RunOutcome};
use ck_congest::graph::Graph;
use ck_congest::message::{BitReader, ContextCodec, WireCodec, WireParams};
use ck_congest::metrics::{NetReport, RunReport};
use ck_congest::net::chaos::{ChaosPlan, ChaosTransport};
use ck_congest::net::frame::{
    decode_msg_body, encode_msg_body, read_frame, write_frame, ByteReader, ByteWriter, Frame,
    FrameError, FrameKind, MsgHeader,
};
use ck_congest::net::link::{connect_with_retry, HeartbeatHandle, SharedWriter};
use ck_congest::net::partition::{partition_range, OutFrame, PartitionEngine, RoundDigest};
use ck_congest::net::{LostCause, NetError, NetOptions};

use crate::decide::RejectWitness;
use crate::msg::{CkCodec, CkMsg, EdgeTag};
use crate::seq::{IdSeq, MAX_K};
use crate::soa::{SoaArena, SoaView};
use crate::tester::{CkTester, NodeVerdict, Rejection, TesterConfig};

/// Hello-frame magic: protocol name + version byte.
const MAGIC: &[u8; 4] = b"ckd8";

/// A distributed run fails in one of two distinct worlds.
#[derive(Debug)]
pub enum DistError {
    /// The transport failed — candidates for graceful degradation.
    Net(NetError),
    /// The *computation* failed exactly as the oracle would have
    /// (bandwidth enforcement); never retried, always surfaced.
    Engine(EngineError),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Net(e) => write!(f, "{e}"),
            DistError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DistError {}

// ---------------------------------------------------------------------------
// Job spec: everything a worker needs to rebuild its partition.
// ---------------------------------------------------------------------------

/// The serialized job a worker reconstructs its partition from. The
/// fault plan ships its internal fixed-point thresholds
/// ([`ck_congest::fault::FaultPlan::to_bytes`]), so worker-side fault
/// coins replay bit-identically to the oracle's.
pub struct JobSpec {
    /// The input graph, on the wire as its
    /// [`Graph::write_bytes`] section.
    pub graph: Graph,
    /// Tester parameters.
    pub cfg: TesterConfig,
    /// Engine parameters (`max_rounds` already resolved to the
    /// schedule's total).
    pub engine: EngineConfig,
    /// Total worker count.
    pub workers: u32,
    /// This worker's index.
    pub worker: u32,
    /// Chaos: die (hard-abort or link close) when told to run this
    /// round.
    pub abort_at_round: Option<u32>,
    /// Worker heartbeat interval.
    pub heartbeat_ms: u64,
    /// Coordinator round deadline; the worker's idle bound derives
    /// from it.
    pub round_deadline_ms: u64,
}

impl JobSpec {
    /// Encodes the spec as a `Spec` frame body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = encode_spec_prefix(&self.graph, &self.cfg, &self.engine, self.workers);
        encode_spec_tail(
            &mut w,
            self.worker,
            self.abort_at_round,
            self.heartbeat_ms,
            self.round_deadline_ms,
        );
        w.0
    }

    /// Decodes a `Spec` frame body; all failures are typed.
    pub fn from_bytes(body: &[u8]) -> Result<JobSpec, FrameError> {
        let mut r = ByteReader::new(body);
        let graph = Graph::read_bytes(&mut r)?;
        let k = r.u32()? as usize;
        let eps = r.f64()?;
        let seed = r.u64()?;
        let repetitions = if r.u8()? != 0 { Some(r.u32()?) } else { None };
        let assumed_loss = if r.u8()? != 0 { Some(r.f64()?) } else { None };
        let cfg = TesterConfig { k, eps, seed, repetitions, assumed_loss };
        cfg.validate().map_err(|_| FrameError::BadBody("tester config out of domain"))?;
        let max_rounds = r.u32()?;
        let bandwidth = match r.u8()? {
            0 => BandwidthPolicy::Measure,
            1 => BandwidthPolicy::Enforce { bits: r.u64()? },
            _ => return Err(FrameError::BadBody("unknown bandwidth tag")),
        };
        let faults = ck_congest::fault::FaultPlan::from_bytes(r.bytes()?)?;
        let engine = EngineConfig {
            max_rounds,
            bandwidth,
            // The worker steps its range as one chunk of the engine's
            // round loop; the executor field is irrelevant inside it.
            executor: Executor::Sequential,
            faults,
            net: NetOptions::default(),
        };
        let workers = r.u32()?;
        let worker = r.u32()?;
        if workers == 0 || worker >= workers {
            return Err(FrameError::BadBody("worker index outside worker count"));
        }
        let abort_at_round = if r.u8()? != 0 { Some(r.u32()?) } else { None };
        let heartbeat_ms = r.u64()?;
        let round_deadline_ms = r.u64()?;
        r.finish()?;
        Ok(JobSpec {
            graph,
            cfg,
            engine,
            workers,
            worker,
            abort_at_round,
            heartbeat_ms,
            round_deadline_ms,
        })
    }
}

/// The part of a `Spec` body that every worker of one run shares: the
/// graph, the tester and engine parameters, and the worker count.
fn encode_spec_prefix(
    graph: &Graph,
    cfg: &TesterConfig,
    engine: &EngineConfig,
    workers: u32,
) -> ByteWriter {
    let mut w = ByteWriter::new();
    graph.write_bytes(&mut w);
    w.u32(cfg.k as u32);
    w.f64(cfg.eps);
    w.u64(cfg.seed);
    match cfg.repetitions {
        Some(r) => {
            w.u8(1);
            w.u32(r);
        }
        None => w.u8(0),
    }
    match cfg.assumed_loss {
        Some(l) => {
            w.u8(1);
            w.f64(l);
        }
        None => w.u8(0),
    }
    w.u32(engine.max_rounds);
    match engine.bandwidth {
        BandwidthPolicy::Measure => w.u8(0),
        BandwidthPolicy::Enforce { bits } => {
            w.u8(1);
            w.u64(bits);
        }
    }
    w.bytes(&engine.faults.to_bytes());
    w.u32(workers);
    w
}

/// Appends one worker's own fields, and the liveness timings that
/// follow them on the wire, to a [`encode_spec_prefix`] body.
fn encode_spec_tail(
    w: &mut ByteWriter,
    worker: u32,
    abort_at_round: Option<u32>,
    heartbeat_ms: u64,
    round_deadline_ms: u64,
) {
    w.u32(worker);
    match abort_at_round {
        Some(r) => {
            w.u8(1);
            w.u32(r);
        }
        None => w.u8(0),
    }
    w.u64(heartbeat_ms);
    w.u64(round_deadline_ms);
}

// ---------------------------------------------------------------------------
// Verdict serialization (worker → coordinator).
// ---------------------------------------------------------------------------

/// Flag bits of a node's verdict: `rejected`, and a rejection record
/// follows.
const VERDICT_REJECTED: u8 = 1;
const VERDICT_HAS_REJECTION: u8 = 2;

fn write_seq(w: &mut ByteWriter, s: &IdSeq) {
    w.u8(s.len() as u8);
    for id in s.iter() {
        w.varint(id);
    }
}

fn read_seq(r: &mut ByteReader<'_>) -> Result<IdSeq, FrameError> {
    let len = r.u8()? as usize;
    let mut ids = [0; crate::seq::MAX_SEQ_LEN];
    let ids =
        ids.get_mut(..len).ok_or(FrameError::BadBody("sequence length exceeds MAX_SEQ_LEN"))?;
    for id in ids.iter_mut() {
        *id = r.varint()?;
    }
    Ok(IdSeq::from_slice(ids))
}

/// Appends the verdict section of a `Verdicts` frame or a serve
/// `Result`: a varint node count, then per node
///
/// ```text
/// [flags u8][max_sent_seqs] [rejection if flags & 2]
/// rejection = [repetition][rank][lo][hi][myid][k] seq seq
/// seq       = [len u8][id]×len
/// ```
///
/// Flag bit 0 is `rejected` and bit 1 says a rejection follows; every
/// other integer is a [`ByteWriter::varint`].
pub fn write_verdicts(w: &mut ByteWriter, verdicts: &[NodeVerdict]) {
    w.varint(verdicts.len() as u64);
    for v in verdicts {
        let mut flags = if v.rejected { VERDICT_REJECTED } else { 0 };
        if v.first_rejection.is_some() {
            flags |= VERDICT_HAS_REJECTION;
        }
        w.u8(flags);
        w.varint(v.max_sent_seqs as u64);
        if let Some(rej) = v.first_rejection.as_deref() {
            w.varint(u64::from(rej.repetition));
            w.varint(rej.tag.rank);
            w.varint(rej.tag.lo);
            w.varint(rej.tag.hi);
            w.varint(rej.witness.myid);
            w.varint(rej.witness.k as u64);
            write_seq(w, &rej.witness.l1);
            write_seq(w, &rej.witness.l2);
        }
    }
}

/// Reads a [`write_verdicts`] section. The node count is checked
/// against the bytes that remain (a node costs at least two) before
/// anything is sized from it; unknown flag bits, a repetition past
/// `u32`, `lo >= hi`, a witness `k` outside `3..=`[`MAX_K`] and a
/// sequence longer than [`MAX_SEQ_LEN`](crate::seq::MAX_SEQ_LEN) are
/// [`FrameError::BadBody`].
pub fn read_verdicts(r: &mut ByteReader<'_>) -> Result<Vec<NodeVerdict>, FrameError> {
    let count = r.varint()?;
    if count > (r.remaining() / 2) as u64 {
        return Err(FrameError::BadBody("verdict count exceeds the bytes that remain"));
    }
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let flags = r.u8()?;
        if flags & !(VERDICT_REJECTED | VERDICT_HAS_REJECTION) != 0 {
            return Err(FrameError::BadBody("unknown verdict flag bits"));
        }
        let max_sent_seqs = r.varint()? as usize;
        let first_rejection = if flags & VERDICT_HAS_REJECTION != 0 {
            let repetition = u32::try_from(r.varint()?)
                .map_err(|_| FrameError::BadBody("repetition past u32"))?;
            let (rank, lo, hi) = (r.varint()?, r.varint()?, r.varint()?);
            if lo >= hi {
                return Err(FrameError::BadBody("edge tag endpoints must satisfy lo < hi"));
            }
            let myid = r.varint()?;
            let k = usize::try_from(r.varint()?)
                .ok()
                .filter(|k| (3..=MAX_K).contains(k))
                .ok_or(FrameError::BadBody("witness k outside 3..=MAX_K"))?;
            let l1 = read_seq(r)?;
            let l2 = read_seq(r)?;
            Some(Box::new(Rejection {
                repetition,
                tag: EdgeTag { rank, lo, hi },
                witness: RejectWitness { l1, l2, myid, k },
            }))
        } else {
            None
        };
        out.push(NodeVerdict {
            rejected: flags & VERDICT_REJECTED != 0,
            first_rejection,
            max_sent_seqs,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------

/// Encodes one cross-partition delivery as a `Msg` frame body — the
/// exact bytes a worker puts on the wire:
///
/// ```text
/// [receiver u32 LE][port u32 LE][ctx u16 LE][bit_len u32 LE][payload]
/// ```
///
/// `ctx` is the [`ContextCodec`] word (the row width of a nonempty
/// `Seqs` payload, `0` otherwise) and `payload` is the
/// canonical [`CkCodec`] bit string — exactly `bit_len` bits,
/// zero-padded MSB-first to `ceil(bit_len/8)` bytes, matching the
/// `wire_bits` accounting of the in-process engine bit for bit.
pub fn encode_out_frame(f: &OutFrame<CkMsg>, params: &WireParams) -> Result<Vec<u8>, FrameError> {
    let codec = CkCodec::for_msg(&f.msg);
    let ctx = codec.context_for(&f.msg);
    let buf = codec.encode_to_buf(&f.msg, params).map_err(FrameError::Codec)?;
    let header =
        MsgHeader { receiver: f.receiver, port: f.port, ctx, bit_len: buf.len_bits() as u32 };
    Ok(encode_msg_body(&header, buf.as_bytes()))
}

/// Decodes a `Msg` frame body back into a delivery, rebuilding the
/// sender's codec from the context word.
///
/// Total on every input: any truncation, context word outside
/// `0..=MAX_SEQ_LEN`, payload/`bit_len` disagreement, or codec
/// failure is a typed [`FrameError`]; no byte past the announced
/// payload is ever read.
pub fn decode_in_frame(body: &[u8], params: &WireParams) -> Result<(MsgHeader, CkMsg), FrameError> {
    let (header, payload) = decode_msg_body(body)?;
    let codec = CkCodec::from_context(header.ctx)
        .ok_or(FrameError::BadBody("context word out of domain"))?;
    let mut bits = BitReader::new(payload, u64::from(header.bit_len));
    let msg = codec.decode(params, &mut bits).map_err(FrameError::Codec)?;
    Ok((header, msg))
}

/// Serves one worker connection for the life of its fleet: `Hello`,
/// then one job per `Spec` until the coordinator ends the link (EOF or
/// `Abort`), or a typed failure, reported to the coordinator as an
/// `Error` frame on a best-effort basis. `hard_abort` selects how a
/// scheduled [`ChaosPlan::abort_at_round`] dies: `std::process::abort()`
/// in a spawned worker process, a silent link close for in-process
/// worker threads.
pub fn worker_serve(stream: TcpStream, index: u32, hard_abort: bool) -> Result<(), FrameError> {
    let _ = stream.set_nodelay(true);
    let reader = stream.try_clone().map_err(FrameError::from)?;
    let mut reader = BufReader::new(reader);
    let writer = SharedWriter::new(stream);
    let result = worker_serve_inner(&mut reader, &writer, index, hard_abort);
    if let Err(e) = &result {
        let _ = writer.send(FrameKind::Error, e.to_string().as_bytes());
    }
    result
}

/// How a job ended on the worker's side.
enum JobEnd {
    /// `Verdicts` went out; the worker waits for its next `Spec`.
    Verdicts,
    /// The coordinator aborted, or scheduled chaos killed the link.
    Exit,
}

fn worker_serve_inner(
    reader: &mut BufReader<TcpStream>,
    writer: &SharedWriter<TcpStream>,
    index: u32,
    hard_abort: bool,
) -> Result<(), FrameError> {
    let mut hello = Vec::with_capacity(8);
    hello.extend_from_slice(MAGIC);
    hello.extend_from_slice(&index.to_le_bytes());
    writer.send(FrameKind::Hello, &hello)?;
    let hb = HeartbeatHandle::parked(writer.clone());
    // Node state for every job of this link, re-prepared per job with
    // its buffers kept.
    let mut arena = SoaArena::default();
    loop {
        // Idle between jobs: one blocking read with no deadline and no
        // tick. The coordinator ends it with the next `Spec`, with
        // `Abort`, or by closing its end when it retires the fleet.
        reader.get_ref().set_read_timeout(None).map_err(FrameError::from)?;
        let frame = match read_frame(reader, &Deadline::never()) {
            Ok(frame) => frame,
            Err(FrameError::Truncated) => return Ok(()),
            Err(e) => return Err(e),
        };
        match frame.kind {
            FrameKind::Spec => {}
            FrameKind::Abort => return Ok(()),
            _ => return Err(FrameError::BadBody("expected a Spec frame")),
        }
        let spec = JobSpec::from_bytes(&frame.body)?;
        if let JobEnd::Exit = serve_job(reader, writer, &hb, &spec, &mut arena, hard_abort)? {
            return Ok(());
        }
    }
}

/// Runs one job whose `Spec` was just read: builds the partition,
/// answers `Ready`, then steps rounds until `Finish` (answered with
/// `Verdicts`) or `Abort`. The heartbeat beats from `Ready` to
/// `Verdicts` and is parked again before `Verdicts` leaves.
fn serve_job(
    reader: &mut BufReader<TcpStream>,
    writer: &SharedWriter<TcpStream>,
    hb: &HeartbeatHandle,
    spec: &JobSpec,
    arena: &mut SoaArena,
    hard_abort: bool,
) -> Result<JobEnd, FrameError> {
    let params = WireParams::for_graph(&spec.graph);
    let cfg = spec.cfg;
    // Node state lives in the worker's arena, prepared for the whole
    // graph as a single chunk: the partition engine steps the owned
    // range on this one thread. The arena outlives every view the
    // engine's programs hold; views are built for owned nodes only.
    arena.prepare(&spec.graph, spec.graph.n().max(1));
    let bases = arena.bases();
    let mut engine = PartitionEngine::new(
        &spec.graph,
        &spec.engine,
        params,
        spec.workers,
        spec.worker,
        |init| CkTester::new(&cfg, &init, SoaView::new(bases, init.position as usize)),
    );

    // The worker's own liveness bound inside a job: a coordinator
    // silent for ten round deadlines is gone; exit instead of
    // lingering forever.
    let idle = Duration::from_millis(spec.round_deadline_ms.saturating_mul(10).max(10_000));
    reader.get_ref().set_read_timeout(Some(idle)).map_err(FrameError::from)?;
    hb.resume(Duration::from_millis(spec.heartbeat_ms.max(1)));
    writer.send(FrameKind::Ready, &[])?;

    let mut out: Vec<OutFrame<CkMsg>> = Vec::new();
    loop {
        let frame = read_frame(reader, &Deadline::after(idle))?;
        match frame.kind {
            FrameKind::Go => {
                let round = round_of(&frame)?;
                if spec.abort_at_round == Some(round) {
                    if hard_abort {
                        // A death the coordinator cannot tell from
                        // `kill -9`: no unwinding, no goodbye frame.
                        std::process::abort();
                    }
                    let _ = reader.get_ref().shutdown(Shutdown::Both);
                    return Ok(JobEnd::Exit);
                }
                out.clear();
                let digest = engine.step_round(round, &mut out);
                // The round's deliveries and its Done leave in one write.
                for f in &out {
                    writer.queue(FrameKind::Msg, &encode_out_frame(f, &params)?)?;
                }
                let mut done = Vec::with_capacity(4 + 128);
                done.extend_from_slice(&round.to_le_bytes());
                done.extend_from_slice(&digest.to_bytes());
                writer.send(FrameKind::Done, &done)?;
            }
            FrameKind::Msg => {
                let (header, msg) = decode_in_frame(&frame.body, &params)?;
                engine.inject(header.receiver, header.port, msg)?;
            }
            FrameKind::Barrier => engine.commit_round(),
            FrameKind::Finish => {
                let mut body = ByteWriter::new();
                write_verdicts(&mut body, &engine.verdicts());
                // Parked first: no beat of this job trails its Verdicts
                // into the coordinator's next job.
                hb.park();
                writer.send(FrameKind::Verdicts, &body.0)?;
                return Ok(JobEnd::Verdicts);
            }
            FrameKind::Abort => return Ok(JobEnd::Exit),
            FrameKind::Heartbeat => {}
            _ => return Err(FrameError::BadBody("unexpected frame kind at worker")),
        }
    }
}

fn round_of(frame: &Frame) -> Result<u32, FrameError> {
    let b: [u8; 4] = frame
        .body
        .as_slice()
        .try_into()
        .map_err(|_| FrameError::BadBody("round frame body must be 4 bytes"))?;
    Ok(u32::from_le_bytes(b))
}

/// Process-mode worker entry point (the `ckprobe net-worker`
/// subcommand): connect to the coordinator and serve.
pub fn worker_main(addr: &str, index: u32) -> Result<(), String> {
    let stream = connect_with_retry(addr, 8, 20).map_err(|e| e.to_string())?;
    worker_serve(stream, index, true).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------

struct WorkerLink {
    reader: BufReader<TcpStream>,
    writer: BufWriter<ChaosTransport<TcpStream>>,
    /// Time since the worker's last heartbeat (or since the job began).
    last_beat: Stopwatch,
    child: Option<std::process::Child>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl WorkerLink {
    fn shutdown(&mut self) {
        let _ = self.reader.get_ref().shutdown(Shutdown::Both);
    }

    /// Ends the worker whatever state its link is in: the link is cut
    /// first, so a worker blocked on it wakes to EOF.
    fn reap(&mut self) {
        self.shutdown();
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(join) = self.thread.take() {
            let _ = join.join();
        }
    }

    /// Ends an idle worker: it reads `Abort` and closes its end first,
    /// and a thread worker is joined before the coordinator closes
    /// its own, so the connection's TIME_WAIT sits on the worker's
    /// ephemeral port, which later connects may reuse, and never pins
    /// the listener's port. A link the `Abort` cannot cross is reaped.
    fn retire(&mut self) {
        let said = write_frame(&mut self.writer, FrameKind::Abort, &[]);
        if said.and_then(|()| self.writer.flush()).is_err() {
            self.shutdown();
        }
        if let Some(join) = self.thread.take() {
            let _ = join.join();
        }
        self.reap();
    }
}

/// The coordinator's worker links (the *fleet*), kept across runs. A
/// [`crate::session::TesterSession`] owns one: its first distributed
/// run spawns the workers, connects them and reads their `Hello`; each
/// later run is only `Spec → Ready → rounds → Finish → Verdicts` over
/// the same links, with the workers waiting in a blocking read between
/// jobs. The fleet is reaped after any failed run and respawned when a
/// run asks for another worker count or other [`NetOptions`]; dropping
/// it ends every worker and joins every worker thread.
#[derive(Default)]
pub(crate) struct Fleet {
    links: Vec<WorkerLink>,
    /// The options the links were spawned under.
    net: NetOptions,
    /// True between runs of a live fleet: every worker has answered
    /// its last job and waits for the next `Spec`.
    idle: bool,
    /// The current (or last) run's transport record.
    report: NetReport,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.release();
    }
}

impl Fleet {
    /// Whether the latest run spawned (or respawned) the workers
    /// rather than reusing the previous run's.
    pub fn spawned(&self) -> bool {
        self.report.fleet_spawned
    }

    /// Ends every worker and forgets the links: an idle fleet's workers
    /// are retired ([`WorkerLink::retire`]), any other's links are cut
    /// first ([`WorkerLink::reap`]).
    fn release(&mut self) {
        for link in &mut self.links {
            if self.idle {
                link.retire();
            } else {
                link.reap();
            }
        }
        self.links.clear();
        self.idle = false;
    }

    /// Best-effort broadcast of `Abort` (the failed run's reap then
    /// tears the links down).
    fn abort_all(&mut self) {
        for link in &mut self.links {
            let _ = write_frame(&mut link.writer, FrameKind::Abort, &[]);
            let _ = link.writer.flush();
        }
    }

    /// Queues one frame for worker `w`; it leaves with the link's next
    /// [`flush_all`](Self::flush_all). A write failure (a body too
    /// large for the buffer goes straight through) is the link
    /// observing that worker's death.
    fn send_to(
        &mut self,
        w: usize,
        kind: FrameKind,
        body: &[u8],
        round: u32,
    ) -> Result<(), NetError> {
        write_frame(&mut self.links[w].writer, kind, body).map_err(|_| self.lost(w, round))
    }

    /// Flushes every link, each in one write; called once before each
    /// blocking read. A failed flush is that worker's death.
    fn flush_all(&mut self, round: u32) -> Result<(), NetError> {
        for w in 0..self.links.len() {
            self.links[w].writer.flush().map_err(|_| self.lost(w, round))?;
        }
        Ok(())
    }

    fn lost(&mut self, w: usize, round: u32) -> NetError {
        self.links[w].shutdown();
        NetError::WorkerLost { worker: w as u32, round, cause: LostCause::Death }
    }

    /// Reads the next protocol frame from worker `w`, consuming (and
    /// counting) heartbeats, bounded by `deadline`.
    fn read_protocol(
        &mut self,
        w: usize,
        deadline: &Deadline,
        round: u32,
    ) -> Result<Frame, NetError> {
        loop {
            match read_frame(&mut self.links[w].reader, deadline) {
                Ok(f) if f.kind == FrameKind::Heartbeat => {
                    self.links[w].last_beat = Stopwatch::start();
                    self.report.heartbeats += 1;
                }
                Ok(f) if f.kind == FrameKind::Error => {
                    return Err(NetError::Worker {
                        worker: w as u32,
                        detail: String::from_utf8_lossy(&f.body).into_owned(),
                    });
                }
                Ok(f) => return Ok(f),
                Err(FrameError::TimedOut) => {
                    // The deadline decides *that* the worker is lost;
                    // heartbeat freshness decides *why*.
                    let fresh = self.links[w].last_beat.elapsed()
                        <= Duration::from_millis(self.net.heartbeat_ms.saturating_mul(3).max(50));
                    let cause =
                        if fresh { LostCause::Deadline } else { LostCause::MissedHeartbeat };
                    return Err(NetError::WorkerLost { worker: w as u32, round, cause });
                }
                Err(FrameError::Truncated | FrameError::Io(_)) => {
                    return Err(NetError::WorkerLost {
                        worker: w as u32,
                        round,
                        cause: LostCause::Death,
                    });
                }
                Err(e) => {
                    return Err(NetError::Frame { worker: w as u32, round, err: e });
                }
            }
        }
    }

    /// Spawns `w_count` workers and handshakes them, all inside
    /// `deadline`: worker processes when a command is configured,
    /// protocol-identical worker threads over real sockets otherwise.
    fn spawn(
        &mut self,
        w_count: u32,
        net: &NetOptions,
        deadline: &Deadline,
    ) -> Result<(), NetError> {
        let spawn_err = |e: std::io::Error| NetError::Spawn(e.to_string());
        let listener = TcpListener::bind("127.0.0.1:0").map_err(spawn_err)?;
        let addr = listener.local_addr().map_err(spawn_err)?.to_string();
        // Only worker processes connect on their own schedule, so only
        // their accepts poll; a thread worker's connection is already
        // queued when the coordinator accepts it.
        listener.set_nonblocking(net.worker_cmd.is_some()).map_err(spawn_err)?;

        // Handles sit at their worker's index until `admit` files them
        // with its link.
        let mut children: Vec<Option<std::process::Child>> = (0..w_count).map(|_| None).collect();
        let mut threads: Vec<Option<std::thread::JoinHandle<()>>> =
            (0..w_count).map(|_| None).collect();
        let mut slots: Vec<Option<WorkerLink>> = (0..w_count).map(|_| None).collect();
        let mut accepted = 0u32;
        // Connect attempts for a thread worker's socket, with the
        // backoff base of `connect_with_retry` between them.
        const CONNECT_ATTEMPTS: u32 = 6;
        const CONNECT_BACKOFF_MS: u64 = 20;
        for i in 0..w_count {
            let started = match &net.worker_cmd {
                Some(argv) => argv
                    .split_first()
                    .ok_or(NetError::Spawn("empty worker command".to_string()))
                    .and_then(|(head, rest)| {
                        std::process::Command::new(head)
                            .args(rest)
                            .arg(&addr)
                            .arg(i.to_string())
                            .stdout(std::process::Stdio::null())
                            .stderr(std::process::Stdio::null())
                            .spawn()
                            .map_err(|e| NetError::Spawn(e.to_string()))
                    })
                    .map(|child| children[i as usize] = Some(child)),
                // The coordinator connects the thread worker's socket
                // itself, accepts it at once and hands the client end to
                // the thread, so this accept never waits or polls.
                None => connect_with_retry(&addr, CONNECT_ATTEMPTS, CONNECT_BACKOFF_MS)
                    .and_then(|client| {
                        let (server, _) = listener.accept()?;
                        threads[i as usize] = Some(std::thread::spawn(move || {
                            let _ = worker_serve(client, i, false);
                        }));
                        Ok(server)
                    })
                    .map_err(|e| NetError::Connect { worker: i, detail: e.to_string() })
                    .and_then(|server| {
                        admit(server, deadline, net, &mut slots, &mut children, &mut threads)
                    })
                    .map(|()| accepted += 1),
            };
            if let Err(e) = started {
                teardown_partial(&mut slots, &mut children, &mut threads);
                return Err(e);
            }
        }

        // Accept + Hello for worker processes: they self-identify, so
        // process handles and links stay index-aligned regardless of
        // connect order. This accept polls, once per fleet spawn.
        while accepted < w_count {
            if deadline.expired() {
                let missing = slots.iter().position(|s| s.is_none()).unwrap_or(0) as u32;
                teardown_partial(&mut slots, &mut children, &mut threads);
                return Err(NetError::Connect {
                    worker: missing,
                    detail: "accept deadline passed before the handshake".to_string(),
                });
            }
            let admitted = match listener.accept() {
                Ok((stream, _)) => {
                    admit(stream, deadline, net, &mut slots, &mut children, &mut threads)
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
                Err(e) => Err(NetError::Spawn(e.to_string())),
            };
            if let Err(e) = admitted {
                teardown_partial(&mut slots, &mut children, &mut threads);
                return Err(e);
            }
            accepted += 1;
        }
        self.links = slots.into_iter().flatten().collect();
        self.net = net.clone();
        if self.links.len() != w_count as usize {
            // Unreachable while the accept loop above insists on
            // `accepted == workers`, but a typed error keeps the invariant
            // local instead of trusting it across the function.
            return Err(NetError::Connect {
                worker: 0,
                detail: "accept loop finished with unfilled worker slots".to_string(),
            });
        }
        Ok(())
    }

    /// Sends every worker its `Spec` and reads every `Ready`, inside
    /// `deadline`. `spec` holds the shared prefix in its first
    /// `prefix_len` bytes; each worker's body appends its own fields.
    fn start_job(
        &mut self,
        spec: &mut ByteWriter,
        prefix_len: usize,
        net: &NetOptions,
        deadline: &Deadline,
    ) -> Result<(), NetError> {
        for i in 0..self.links.len() {
            let abort_at_round = match net.chaos {
                Some(c) if c.worker == i as u32 => c.abort_at_round,
                _ => None,
            };
            spec.0.truncate(prefix_len);
            encode_spec_tail(
                spec,
                i as u32,
                abort_at_round,
                net.heartbeat_ms,
                net.round_deadline_ms,
            );
            self.send_to(i, FrameKind::Spec, &spec.0, 0)?;
        }
        self.flush_all(0)?;
        // Heartbeats flow only while a job is in flight, so freshness
        // counts from this job's start.
        for link in &mut self.links {
            link.last_beat = Stopwatch::start();
        }
        for i in 0..self.links.len() {
            if self.read_protocol(i, deadline, 0)?.kind != FrameKind::Ready {
                return Err(NetError::WorkerLost {
                    worker: i as u32,
                    round: 0,
                    cause: LostCause::Protocol,
                });
            }
        }
        Ok(())
    }

    /// Runs the full tester distributed over `workers` partitions on
    /// this fleet, spawning it first unless the previous run left it
    /// connected under the same worker count and [`NetOptions`];
    /// `engine.max_rounds` must already hold the schedule's total
    /// round count (as [`crate::tester`] resolves it). On success the
    /// outcome is bit-identical to the in-process sequential oracle —
    /// verdicts, round statistics, and fault accounting included —
    /// plus the transport's own [`NetReport`]. On any failure the fleet
    /// is reaped, and the next run spawns a new one.
    pub fn run(
        &mut self,
        g: &Graph,
        cfg: &TesterConfig,
        engine: &EngineConfig,
        workers: u32,
    ) -> Result<RunOutcome<NodeVerdict>, DistError> {
        let result = self.run_job(g, cfg, engine, workers.max(1));
        if result.is_err() {
            self.release();
        }
        result
    }

    fn run_job(
        &mut self,
        g: &Graph,
        cfg: &TesterConfig,
        engine: &EngineConfig,
        w_count: u32,
    ) -> Result<RunOutcome<NodeVerdict>, DistError> {
        let net = &engine.net;
        let n = g.n();
        let connect = Deadline::after_ms(net.connect_timeout_ms);
        if self.links.len() != w_count as usize || self.net != *net {
            self.release();
        }
        self.idle = false;
        self.report = NetReport { workers: w_count, ..NetReport::default() };

        // Spec out, Ready back. The shared prefix (graph and parameters)
        // is encoded once; each worker's body appends its own fields.
        let mut spec = encode_spec_prefix(g, cfg, engine, w_count);
        let prefix_len = spec.0.len();
        loop {
            let fresh = self.links.is_empty();
            if fresh {
                self.report.fleet_spawned = true;
                self.spawn(w_count, net, &connect).map_err(DistError::Net)?;
            }
            match self.start_job(&mut spec, prefix_len, net, &connect) {
                Ok(()) => break,
                // A reused fleet found dead before `Ready` is respawned
                // once, inside the same connect budget: a run never
                // fails where a fresh spawn would have succeeded.
                Err(_) if !fresh => self.release(),
                Err(e) => return Err(DistError::Net(e)),
            }
        }

        let ranges: Vec<std::ops::Range<u32>> =
            (0..w_count).map(|i| partition_range(n, w_count, i)).collect();
        let mut report = RunReport {
            executor: "distributed",
            threads: w_count as usize,
            ..RunReport::default()
        };
        let mut active = n;
        let mut round = 0u32;
        // Buffered per round: `(owner, body)` of every routed delivery.
        let mut routed: Vec<(usize, Vec<u8>)> = Vec::new();
        while round < engine.max_rounds {
            if active == 0 {
                break;
            }
            // Scheduled coordinator-side chaos fires at the round
            // boundary, after the previous round's queued frames have
            // left: the cut lands at the same protocol point as on an
            // unbuffered link.
            if let Some((kw, kr)) = net.kill_worker {
                if kr == round && (kw as usize) < self.links.len() {
                    let link = &mut self.links[kw as usize];
                    let _ = link.writer.flush();
                    match link.child.take() {
                        Some(mut child) => {
                            // The real thing: SIGKILL, no cleanup handlers.
                            let _ = child.kill();
                            let _ = child.wait();
                        }
                        // Thread mode has no process to kill; severing the
                        // link is the same observable (EOF ⇒ Death).
                        None => link.shutdown(),
                    }
                }
            }
            if let Some(c) = net.chaos {
                if c.disconnect_at_round == Some(round) && (c.worker as usize) < self.links.len() {
                    let link = &mut self.links[c.worker as usize];
                    let _ = link.writer.flush();
                    link.shutdown();
                }
            }

            // Go(r) joins the routed Msgs and Barrier(r−1) still queued on
            // each link: one write per worker per round.
            for i in 0..w_count as usize {
                self.send_to(i, FrameKind::Go, &round.to_le_bytes(), round)
                    .map_err(DistError::Net)?;
            }
            self.flush_all(round).map_err(DistError::Net)?;

            // Collect this round: Msg frames buffer for routing, Done
            // frames carry the partition digests, merged in ascending
            // worker (= node-range) order; the merge keeps the violation
            // of the lowest node index, as every in-process fold does.
            let deadline = Deadline::after_ms(net.round_deadline_ms);
            routed.clear();
            let mut digest = RoundDigest::default();
            for i in 0..w_count as usize {
                loop {
                    let frame = self.read_protocol(i, &deadline, round).map_err(DistError::Net)?;
                    match frame.kind {
                        FrameKind::Msg => {
                            let (header, _) = decode_msg_body(&frame.body).map_err(|err| {
                                DistError::Net(NetError::Frame { worker: i as u32, round, err })
                            })?;
                            let owner = ranges
                                .iter()
                                .position(|r| r.contains(&header.receiver))
                                .ok_or(DistError::Net(NetError::Frame {
                                    worker: i as u32,
                                    round,
                                    err: FrameError::BadBody("receiver outside the graph"),
                                }))?;
                            routed.push((owner, frame.body));
                        }
                        FrameKind::Done => {
                            if frame.body.len() < 4 || frame.body[0..4] != round.to_le_bytes() {
                                return Err(DistError::Net(NetError::WorkerLost {
                                    worker: i as u32,
                                    round,
                                    cause: LostCause::Protocol,
                                }));
                            }
                            let part =
                                RoundDigest::from_bytes(&frame.body[4..]).map_err(|err| {
                                    DistError::Net(NetError::Frame { worker: i as u32, round, err })
                                })?;
                            digest = RoundDigest::merge(digest, part);
                            break;
                        }
                        _ => {
                            return Err(DistError::Net(NetError::WorkerLost {
                                worker: i as u32,
                                round,
                                cause: LostCause::Protocol,
                            }));
                        }
                    }
                }
            }

            // The engine loop's own post-round step, on the merged digest.
            if let Err(e) = digest.close_round(round, engine, &mut active, &mut report) {
                self.abort_all();
                return Err(DistError::Engine(e));
            }

            // Route, then barrier: a worker that saw `Barrier(r)` has, by
            // FIFO, already received every delivery of round `r`. Both are
            // queued; the next Go or Finish flushes them.
            for (owner, body) in routed.drain(..) {
                self.report.frames_routed += 1;
                self.report.frame_bytes += body.len() as u64;
                self.send_to(owner, FrameKind::Msg, &body, round).map_err(DistError::Net)?;
            }
            for i in 0..w_count as usize {
                self.send_to(i, FrameKind::Barrier, &round.to_le_bytes(), round)
                    .map_err(DistError::Net)?;
                self.report.barriers += 1;
            }
            round += 1;
        }

        // Verdict collection, in worker order = node order.
        let mut verdicts: Vec<NodeVerdict> = Vec::with_capacity(n);
        for i in 0..w_count as usize {
            self.send_to(i, FrameKind::Finish, &[], round).map_err(DistError::Net)?;
        }
        self.flush_all(round).map_err(DistError::Net)?;
        let final_deadline = Deadline::after_ms(net.round_deadline_ms);
        for (i, range) in ranges.iter().enumerate() {
            let frame = self.read_protocol(i, &final_deadline, round).map_err(DistError::Net)?;
            if frame.kind != FrameKind::Verdicts {
                return Err(DistError::Net(NetError::WorkerLost {
                    worker: i as u32,
                    round,
                    cause: LostCause::Protocol,
                }));
            }
            let mut r = ByteReader::new(&frame.body);
            let part = read_verdicts(&mut r)
                .and_then(|part| r.finish().map(|()| part))
                .map_err(|err| DistError::Net(NetError::Frame { worker: i as u32, round, err }))?;
            if part.len() != range.len() {
                return Err(DistError::Net(NetError::WorkerLost {
                    worker: i as u32,
                    round,
                    cause: LostCause::Protocol,
                }));
            }
            verdicts.extend(part);
        }

        // Every worker has answered and waits for its next `Spec`.
        self.idle = true;
        report.rounds = round;
        report.all_halted = active == 0;
        report.faults.crashed_nodes = engine.faults.crashed_by(round, n);
        report.net = Some(self.report.clone());
        Ok(RunOutcome { report, verdicts })
    }
}

/// Reads and validates the Hello on a fresh connection, then files its
/// link, with the worker's process or thread handle, under the index
/// the worker announced.
fn admit(
    stream: TcpStream,
    deadline: &Deadline,
    net: &NetOptions,
    slots: &mut [Option<WorkerLink>],
    children: &mut [Option<std::process::Child>],
    threads: &mut [Option<std::thread::JoinHandle<()>>],
) -> Result<(), NetError> {
    let _ = stream.set_nodelay(true);
    let reader =
        stream.try_clone().map_err(|e| NetError::Connect { worker: 0, detail: e.to_string() })?;
    let _ = reader.set_read_timeout(Some(Duration::from_millis(20)));
    let mut reader = BufReader::new(reader);
    let hello = read_frame(&mut reader, deadline)
        .map_err(|e| NetError::Connect { worker: 0, detail: format!("bad hello: {e}") })?;
    if hello.kind != FrameKind::Hello || hello.body.len() != 8 || &hello.body[0..4] != MAGIC {
        return Err(NetError::Connect {
            worker: 0,
            detail: "hello frame failed validation".to_string(),
        });
    }
    // The slice is exactly 4 bytes (hello.body.len() == 8 was just
    // validated), so the copy cannot fail.
    let mut idx_bytes = [0u8; 4];
    idx_bytes.copy_from_slice(&hello.body[4..8]);
    let index = u32::from_le_bytes(idx_bytes);
    let i = index as usize;
    if i >= slots.len() || slots[i].is_some() {
        return Err(NetError::Connect {
            worker: index,
            detail: "worker index out of range or duplicated".to_string(),
        });
    }
    let plan = match net.chaos {
        Some(c) if c.worker == index => c,
        _ => ChaosPlan::for_worker(index),
    };
    slots[i] = Some(WorkerLink {
        reader,
        writer: BufWriter::new(ChaosTransport::new(stream, &plan)),
        last_beat: Stopwatch::start(),
        child: children.get_mut(i).and_then(Option::take),
        thread: threads.get_mut(i).and_then(Option::take),
    });
    Ok(())
}

fn teardown_partial(
    slots: &mut [Option<WorkerLink>],
    children: &mut [Option<std::process::Child>],
    threads: &mut [Option<std::thread::JoinHandle<()>>],
) {
    for link in slots.iter_mut().flatten() {
        link.reap();
    }
    for child in children.iter_mut().flatten() {
        let _ = child.kill();
        let _ = child.wait();
    }
    for join in threads.iter_mut().filter_map(Option::take) {
        let _ = join.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> JobSpec {
        let g = ck_congest::graph::GraphBuilder::new(4)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .edge(3, 0)
            .build()
            .unwrap();
        JobSpec {
            graph: g,
            cfg: TesterConfig::new(4, 0.3, 7),
            engine: EngineConfig {
                executor: Executor::Sequential,
                max_rounds: 44,
                bandwidth: BandwidthPolicy::Enforce { bits: 4096 },
                ..EngineConfig::default()
            },
            workers: 3,
            worker: 1,
            abort_at_round: Some(9),
            heartbeat_ms: 50,
            round_deadline_ms: 2000,
        }
    }

    #[test]
    fn job_spec_roundtrip() {
        let spec = sample_spec();
        let bytes = spec.to_bytes();
        let back = JobSpec::from_bytes(&bytes).unwrap();
        assert_eq!(back.graph.edges(), spec.graph.edges());
        assert_eq!(back.graph.ids(), spec.graph.ids());
        assert_eq!(back.cfg.k, spec.cfg.k);
        assert_eq!(back.cfg.seed, spec.cfg.seed);
        assert_eq!(back.engine.max_rounds, spec.engine.max_rounds);
        assert_eq!(back.engine.bandwidth, spec.engine.bandwidth);
        assert_eq!(back.workers, 3);
        assert_eq!(back.worker, 1);
        assert_eq!(back.abort_at_round, Some(9));
    }

    #[test]
    fn job_spec_every_prefix_fails_typed() {
        let bytes = sample_spec().to_bytes();
        for cut in 0..bytes.len() {
            assert!(JobSpec::from_bytes(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(JobSpec::from_bytes(&long).is_err(), "trailing byte");
    }

    #[test]
    fn job_spec_with_a_hostile_node_count_is_a_bad_body() {
        // A graph section announcing n = 2^32 − 1 and m = 0, then nothing.
        let body = [0xff, 0xff, 0xff, 0xff, 0x0f, 0x00];
        assert!(matches!(JobSpec::from_bytes(&body), Err(FrameError::BadBody(_))));
    }

    #[test]
    fn verdict_roundtrip_including_witness() {
        let verdicts = vec![
            NodeVerdict::default(),
            NodeVerdict {
                rejected: true,
                first_rejection: Some(Box::new(Rejection {
                    repetition: 3,
                    tag: EdgeTag { rank: 17, lo: 2, hi: 9 },
                    witness: RejectWitness {
                        l1: IdSeq::from_slice(&[2, 5]),
                        l2: IdSeq::from_slice(&[9, 4]),
                        myid: 5,
                        k: 5,
                    },
                })),
                max_sent_seqs: 11,
            },
        ];
        let mut w = ByteWriter::new();
        write_verdicts(&mut w, &verdicts);
        let body = w.0;
        // Count, a two-byte accepting node, then the rejecting node:
        // flags, one varint, six one-byte varints and two sequences.
        assert_eq!(body.len(), 1 + 2 + (2 + 6 + 3 + 3));
        let mut r = ByteReader::new(&body);
        assert_eq!(read_verdicts(&mut r).unwrap(), verdicts);
        r.finish().unwrap();
        for cut in 0..body.len() {
            assert!(read_verdicts(&mut ByteReader::new(&body[..cut])).is_err(), "prefix {cut}");
        }
        // Flag bits past the two defined ones, a witness `k` outside
        // `3..=MAX_K` (the coordinator sizes the cycle it validates by
        // it) and a count the bytes cannot hold are bad bodies.
        let mut bad = body.clone();
        bad[1] |= 4;
        let err = read_verdicts(&mut ByteReader::new(&bad)).unwrap_err();
        assert!(matches!(err, FrameError::BadBody(_)), "{err:?}");
        for k in [2, 1 << 62] {
            let mut bad = verdicts.clone();
            bad[1].first_rejection.as_mut().unwrap().witness.k = k;
            let mut w = ByteWriter::new();
            write_verdicts(&mut w, &bad);
            let err = read_verdicts(&mut ByteReader::new(&w.0)).unwrap_err();
            assert!(matches!(err, FrameError::BadBody(_)), "k = {k}: {err:?}");
        }
        let mut hostile = ByteWriter::new();
        hostile.varint(1 << 40);
        let err = read_verdicts(&mut ByteReader::new(&hostile.0)).unwrap_err();
        assert!(matches!(err, FrameError::BadBody(_)), "{err:?}");
    }

    #[test]
    fn admit_refuses_the_previous_hello_magic() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut hello = b"ckd7".to_vec();
        hello.extend_from_slice(&0u32.to_le_bytes());
        write_frame(&mut client, FrameKind::Hello, &hello).unwrap();
        let mut slots: Vec<Option<WorkerLink>> = vec![None];
        let err = admit(
            server,
            &Deadline::after_ms(5_000),
            &NetOptions::default(),
            &mut slots,
            &mut [None],
            &mut [None],
        )
        .unwrap_err();
        assert!(matches!(err, NetError::Connect { .. }), "{err:?}");
        assert!(slots[0].is_none());
    }

    /// A repeated coordinator `Msg` frame puts a second `Seqs` delivery
    /// on one link: worker 0 of 2 on the path 0–1–2–3 (k = 5) gets two
    /// from node 2 on node 1's port towards it after round 1, when node
    /// 0 also broadcasts its seed to node 1. The second inject is
    /// refused typed, and round 2 steps on the deliveries that landed.
    #[test]
    fn a_repeated_delivery_is_refused_and_the_next_round_steps() {
        let g = ck_congest::graph::GraphBuilder::new(4)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .build()
            .unwrap();
        let cfg = TesterConfig::new(5, 0.3, 7);
        let engine = EngineConfig { executor: Executor::Sequential, ..EngineConfig::default() };
        let mut arena = SoaArena::default();
        arena.prepare(&g, g.n());
        let bases = arena.bases();
        let mut part = PartitionEngine::new(&g, &engine, WireParams::for_graph(&g), 2, 0, |init| {
            CkTester::new(&cfg, &init, SoaView::new(bases, init.position as usize))
        });
        let mut out = Vec::new();
        part.step_round(0, &mut out);
        part.commit_round();
        part.step_round(1, &mut out);
        let port = g.neighbors(1).iter().position(|&w| w == 2).unwrap() as u32;
        let seqs = || CkMsg::Seqs {
            tag: EdgeTag { rank: 1, lo: 2, hi: 3 },
            seqs: crate::seq::SeqRows::from_rows(1, &[&[2]]),
        };
        assert_eq!(part.inject(1, port, seqs()), Ok(()));
        let second = part.inject(1, port, seqs());
        assert!(matches!(second, Err(FrameError::BadBody(_))), "{second:?}");
        part.commit_round();
        part.step_round(2, &mut out);
        assert_eq!(part.verdicts().len(), 2);
    }

    #[test]
    fn msg_frame_roundtrip_via_context_handshake() {
        let g = ck_congest::graph::GraphBuilder::new(3)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 0)
            .build()
            .unwrap();
        let params = WireParams::for_graph(&g);
        let msgs = [
            CkMsg::Rank(5),
            CkMsg::Seqs {
                tag: EdgeTag { rank: 1, lo: 0, hi: 2 },
                seqs: crate::seq::SeqRows::from_rows(2, &[&[1, 2], &[0, 2]]),
            },
        ];
        for msg in msgs {
            let out = OutFrame { receiver: 1, port: 0, msg: msg.clone() };
            let body = encode_out_frame(&out, &params).unwrap();
            let (header, back) = decode_in_frame(&body, &params).unwrap();
            assert_eq!(header.receiver, 1);
            assert_eq!(back, msg);
        }
    }
}
