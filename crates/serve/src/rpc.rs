//! The `ServeMsg` RPC grammar: everything that crosses a probe-service
//! link, as one self-describing byte body inside a
//! [`FrameKind::Serve`](ck_congest::net::frame::FrameKind::Serve) frame.
//!
//! The transport stays the repo's one wire format — the
//! length-prefixed `[kind u8][len u32 LE][body]` frame of
//! [`ck_congest::net::frame`] — and the body is plain
//! [`ByteWriter`] bytes, like the distributed executor's `Spec`, `Done`
//! and `Verdicts` bodies: [`encode_serve_body`] writes it and
//! [`decode_serve_body`] reads it.
//!
//! Every RPC body starts with a tag byte:
//!
//! ```text
//! body = [tag u8][payload]
//!
//! tag 1  Submit       [job_id u64][graph section][k u32][eps f64][seed u64]
//!                     [reps u8 ∈ {0,1}] [reps = 1 → repetitions u32]
//! tag 2  Result       [job_id u64][ok u8 ∈ {0,1}]
//!                     [ok = 1 → verdict]   [ok = 0 → refusal]
//! tag 3  StatsRequest (empty)
//! tag 4  Stats        snapshot (see below)
//! tag 5  Shutdown     (empty)
//! tag 6  ShutdownAck  [jobs_completed u64]
//!
//! verdict = [reject u8][wall_us u64][verdict section]
//! ```
//!
//! Fixed-width integers are little-endian, and `bytes` fields are a
//! `u32 LE` length prefix followed by that many raw bytes
//! ([`ByteWriter::bytes`]). The two variable-length parts are written
//! inline in varints ([`ByteWriter::varint`]), with no length prefix:
//!
//! - the graph section is [`Graph::write_bytes`]'s, the same one the
//!   distributed executor ships in its `Spec` frames: `n`, `m`, per
//!   node the count of its higher neighbours and their gaps, and an ID
//!   flag with, when the IDs are not the identity, the ID table. It
//!   decodes straight into the CSR graph, and `n` and `m` are checked
//!   against the bytes that remain before anything is sized from them;
//! - the verdict section is [`ck_core::dist::write_verdicts`]'s, the
//!   same one a distributed worker's `Verdicts` frame carries: a node
//!   count, then per node a flag byte, `max_sent_seqs` and any
//!   rejection witness, so a served result can be compared bit for bit
//!   against a direct `TesterSession` run.
//!
//! A `refusal` is a [`ServeError`]:
//!
//! ```text
//! refusal = [err u8][payload]
//!   err 1  Config(KOutOfRange)    [k u64]
//!   err 2  Config(EpsOutOfRange)  [eps f64]
//!   err 3  Config(LossOutOfRange) [loss f64]
//!   err 4  GraphTooLarge          [n u64][max u64]
//!   err 5  Overloaded             [in_flight u32][budget u32]
//!   err 6  Draining               (empty)
//!   err 7  Engine                 [detail bytes (UTF-8)]
//! ```
//!
//! The `Stats` snapshot payload, in field order:
//!
//! ```text
//! [workers u32][queue_depth u32][in_flight u32][pool_outstanding u64]
//! [jobs_submitted u64][jobs_completed u64][jobs_refused u64]
//! [sessions_reclaimed u64][slot_takes u64][slot_misses u64]
//! [lat_count u64][lat_p50_us u64][lat_p99_us u64][lat_max_us u64]
//! ```
//!
//! Decoding is **total**: every byte prefix of every encoded message
//! fails with a typed [`FrameError`] (the truncation suite proves it
//! per prefix), unknown tags are [`FrameError::BadBody`], and a
//! well-formed message followed by trailing bytes is rejected by
//! [`ByteReader::finish`]. Submitted configurations are deliberately
//! *not* validated here — admission control in [`crate::serve`] owns
//! that, so a hostile `k = u32::MAX` decodes fine and is refused with
//! a typed error frame instead of being dropped at the frame layer.

use ck_congest::graph::Graph;
use ck_congest::net::frame::{ByteReader, ByteWriter, FrameError, MAX_BODY};
use ck_core::dist::{read_verdicts, write_verdicts};
use ck_core::tester::{ConfigError, NodeVerdict, TesterConfig};

/// One client job: a graph plus the tester parameters to run it under.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// Client-chosen id, echoed on the matching [`JobResult`] — the
    /// only correlation between a submit and its (completion-ordered)
    /// result.
    pub job_id: u64,
    /// The input graph.
    pub graph: Graph,
    /// Cycle length `k` (unvalidated on the wire; admission validates).
    pub k: u32,
    /// Property-testing parameter `ε` (unvalidated on the wire).
    pub eps: f64,
    /// Phase-1 master seed.
    pub seed: u64,
    /// Repetition override; `None` runs the paper schedule.
    pub repetitions: Option<u32>,
}

impl JobRequest {
    /// The tester configuration this request asks for — possibly out
    /// of domain; callers validate via [`TesterConfig::validate`].
    pub fn tester_config(&self) -> TesterConfig {
        let mut cfg = TesterConfig::new(self.k as usize, self.eps, self.seed);
        cfg.repetitions = self.repetitions;
        cfg
    }
}

/// A completed job's verdict payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobVerdict {
    /// Network-level reject (any node rejected in any repetition).
    pub reject: bool,
    /// Service-side wall-clock execution time, microseconds. Measured
    /// data about the run, not an input to any verdict bit.
    pub wall_us: u64,
    /// Per-node verdicts, bit-identical to a direct
    /// [`ck_core::session::TesterSession::test`] run of the same job.
    pub verdicts: Vec<NodeVerdict>,
}

/// Why the service refused (or failed) a job — the typed outcomes the
/// tentpole demands: a bad job fails *that client*, never the process.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The job's tester configuration is out of domain
    /// ([`TesterConfig::validate`] / `try_repetitions_for` failed).
    Config(ConfigError),
    /// The job's graph exceeds the service's warm-workspace admission
    /// cap.
    GraphTooLarge {
        /// Submitted node count.
        n: u64,
        /// The service's cap.
        max: u64,
    },
    /// The in-flight budget is full — backpressure; retry later.
    Overloaded {
        /// Jobs admitted and not yet answered at refusal time.
        in_flight: u32,
        /// The configured budget.
        budget: u32,
    },
    /// The service is draining after a shutdown request and admits
    /// nothing new.
    Draining,
    /// The engine failed executing the job (e.g. a bandwidth-policy
    /// violation) — surfaced verbatim, never retried.
    Engine(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(e) => write!(f, "config rejected: {e}"),
            ServeError::GraphTooLarge { n, max } => {
                write!(f, "graph of {n} nodes exceeds the admission cap of {max}")
            }
            ServeError::Overloaded { in_flight, budget } => {
                write!(f, "overloaded: {in_flight} jobs in flight against a budget of {budget}")
            }
            ServeError::Draining => write!(f, "service is draining and admits no new jobs"),
            ServeError::Engine(detail) => write!(f, "engine failure: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The service's answer to one [`JobRequest`], streamed back in
/// completion order.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// The submitting client's job id, echoed back — including on
    /// every refusal path.
    pub job_id: u64,
    /// Verdict or typed refusal.
    pub outcome: Result<JobVerdict, ServeError>,
}

/// Latency quantiles of the per-job service histogram, microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Jobs measured.
    pub count: u64,
    /// Median job latency (submit-to-result, service side).
    pub p50_us: u64,
    /// 99th-percentile job latency.
    pub p99_us: u64,
    /// Worst observed job latency.
    pub max_us: u64,
}

/// The Stats RPC payload: queue/budget gauges, lifetime counters, the
/// aggregated warm-session [`ck_congest::engine::SlotStats`], and the
/// latency histogram summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Worker-thread (= warm session) count.
    pub workers: u32,
    /// Jobs admitted and waiting for a worker.
    pub queue_depth: u32,
    /// Jobs admitted and not yet answered (queued + executing).
    pub in_flight: u32,
    /// Jobs currently checked out of the queue by workers — 0 after a
    /// graceful drain, by construction.
    pub pool_outstanding: u64,
    /// Submits seen (admitted or refused).
    pub jobs_submitted: u64,
    /// Jobs answered with a verdict.
    pub jobs_completed: u64,
    /// Jobs answered with a typed refusal (config, admission, engine).
    pub jobs_refused: u64,
    /// Warm sessions torn down by the idle reclaimer.
    pub sessions_reclaimed: u64,
    /// Aggregated slot-array takes over all pool sessions, living and
    /// reclaimed ([`ck_core::session::TesterSession::slot_stats`]).
    pub slot_takes: u64,
    /// Aggregated slot-array misses; `takes - misses` warm jobs reused
    /// an arena instead of allocating one.
    pub slot_misses: u64,
    /// Per-job latency summary.
    pub latency: LatencySummary,
}

/// One probe-service RPC. See the module doc for the byte layout.
// The size skew is real (Submit carries a whole graph) but harmless:
// every ServeMsg is transient — decoded, dispatched, dropped — and
// boxing the payload would put an allocation on the submit path.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ServeMsg {
    /// Client → service: run a job.
    Submit(JobRequest),
    /// Service → client: a job's verdict or typed refusal.
    Result(JobResult),
    /// Client → service: report counters.
    StatsRequest,
    /// Service → client: the counters.
    Stats(StatsSnapshot),
    /// Client → service: stop admitting, drain, then acknowledge.
    Shutdown,
    /// Service → client: drain complete.
    ShutdownAck {
        /// Jobs answered with a verdict over the service's lifetime.
        jobs_completed: u64,
    },
}

const TAG_SUBMIT: u8 = 1;
const TAG_RESULT: u8 = 2;
const TAG_STATS_REQUEST: u8 = 3;
const TAG_STATS: u8 = 4;
const TAG_SHUTDOWN: u8 = 5;
const TAG_SHUTDOWN_ACK: u8 = 6;

const ERR_K: u8 = 1;
const ERR_EPS: u8 = 2;
const ERR_LOSS: u8 = 3;
const ERR_TOO_LARGE: u8 = 4;
const ERR_OVERLOADED: u8 = 5;
const ERR_DRAINING: u8 = 6;
const ERR_ENGINE: u8 = 7;

fn encode_error(w: &mut ByteWriter, e: &ServeError) {
    match e {
        ServeError::Config(ConfigError::KOutOfRange { k }) => {
            w.u8(ERR_K);
            w.u64(*k as u64);
        }
        ServeError::Config(ConfigError::EpsOutOfRange { eps }) => {
            w.u8(ERR_EPS);
            w.f64(*eps);
        }
        ServeError::Config(ConfigError::LossOutOfRange { loss }) => {
            w.u8(ERR_LOSS);
            w.f64(*loss);
        }
        ServeError::GraphTooLarge { n, max } => {
            w.u8(ERR_TOO_LARGE);
            w.u64(*n);
            w.u64(*max);
        }
        ServeError::Overloaded { in_flight, budget } => {
            w.u8(ERR_OVERLOADED);
            w.u32(*in_flight);
            w.u32(*budget);
        }
        ServeError::Draining => w.u8(ERR_DRAINING),
        ServeError::Engine(detail) => {
            w.u8(ERR_ENGINE);
            w.bytes(detail.as_bytes());
        }
    }
}

fn decode_error(r: &mut ByteReader<'_>) -> Result<ServeError, FrameError> {
    Ok(match r.u8()? {
        ERR_K => ServeError::Config(ConfigError::KOutOfRange { k: r.u64()? as usize }),
        ERR_EPS => ServeError::Config(ConfigError::EpsOutOfRange { eps: r.f64()? }),
        ERR_LOSS => ServeError::Config(ConfigError::LossOutOfRange { loss: r.f64()? }),
        ERR_TOO_LARGE => ServeError::GraphTooLarge { n: r.u64()?, max: r.u64()? },
        ERR_OVERLOADED => ServeError::Overloaded { in_flight: r.u32()?, budget: r.u32()? },
        ERR_DRAINING => ServeError::Draining,
        ERR_ENGINE => {
            let detail = std::str::from_utf8(r.bytes()?)
                .map_err(|_| FrameError::BadBody("engine detail is not UTF-8"))?
                .to_string();
            ServeError::Engine(detail)
        }
        _ => return Err(FrameError::BadBody("unknown serve error tag")),
    })
}

/// Encodes one RPC as a ready-to-send `Serve` frame body (see the
/// module doc for the layout). A body over [`MAX_BODY`] is
/// [`FrameError::Oversized`]: no frame could carry it.
pub fn encode_serve_body(msg: &ServeMsg) -> Result<Vec<u8>, FrameError> {
    let mut w = ByteWriter::new();
    match msg {
        ServeMsg::Submit(req) => {
            w.u8(TAG_SUBMIT);
            w.u64(req.job_id);
            req.graph.write_bytes(&mut w);
            w.u32(req.k);
            w.f64(req.eps);
            w.u64(req.seed);
            match req.repetitions {
                Some(reps) => {
                    w.u8(1);
                    w.u32(reps);
                }
                None => w.u8(0),
            }
        }
        ServeMsg::Result(res) => {
            let outcome = res.outcome.as_ref().map(|v| (v.reject, v.wall_us, &v.verdicts[..]));
            encode_result_into(&mut w, res.job_id, outcome)?;
        }
        ServeMsg::StatsRequest => w.u8(TAG_STATS_REQUEST),
        ServeMsg::Stats(s) => {
            w.u8(TAG_STATS);
            w.u32(s.workers);
            w.u32(s.queue_depth);
            w.u32(s.in_flight);
            w.u64(s.pool_outstanding);
            w.u64(s.jobs_submitted);
            w.u64(s.jobs_completed);
            w.u64(s.jobs_refused);
            w.u64(s.sessions_reclaimed);
            w.u64(s.slot_takes);
            w.u64(s.slot_misses);
            w.u64(s.latency.count);
            w.u64(s.latency.p50_us);
            w.u64(s.latency.p99_us);
            w.u64(s.latency.max_us);
        }
        ServeMsg::Shutdown => w.u8(TAG_SHUTDOWN),
        ServeMsg::ShutdownAck { jobs_completed } => {
            w.u8(TAG_SHUTDOWN_ACK);
            w.u64(*jobs_completed);
        }
    }
    check_body_len(&w)?;
    Ok(w.0)
}

/// [`FrameError::Oversized`] for a body no frame can carry.
fn check_body_len(w: &ByteWriter) -> Result<(), FrameError> {
    let len = w.0.len();
    if len as u64 > u64::from(MAX_BODY) {
        return Err(FrameError::Oversized { len: u32::try_from(len).unwrap_or(u32::MAX) });
    }
    Ok(())
}

/// Writes a `Result` body into `w`, replacing what it held: the
/// verdict `(reject, wall_us, verdicts)` or the refusal. A service
/// worker encodes straight from its run buffer into one reused writer
/// with this, and [`encode_serve_body`] encodes [`ServeMsg::Result`]
/// with it. A body over [`MAX_BODY`] is [`FrameError::Oversized`],
/// naming its size.
pub fn encode_result_into(
    w: &mut ByteWriter,
    job_id: u64,
    outcome: Result<(bool, u64, &[NodeVerdict]), &ServeError>,
) -> Result<(), FrameError> {
    w.0.clear();
    w.u8(TAG_RESULT);
    w.u64(job_id);
    match outcome {
        Ok((reject, wall_us, verdicts)) => {
            w.u8(1);
            w.u8(reject as u8);
            w.u64(wall_us);
            write_verdicts(w, verdicts);
        }
        Err(e) => {
            w.u8(0);
            encode_error(w, e);
        }
    }
    check_body_len(w)
}

/// Decodes a `Serve` frame body. Total: every prefix, every unknown
/// tag, and every trailing byte is a typed error, and nothing is
/// validated beyond structure (domain checks belong to admission
/// control).
pub fn decode_serve_body(body: &[u8]) -> Result<ServeMsg, FrameError> {
    let mut r = ByteReader::new(body);
    let msg = match r.u8()? {
        TAG_SUBMIT => {
            let job_id = r.u64()?;
            let graph = Graph::read_bytes(&mut r)?;
            let k = r.u32()?;
            let eps = r.f64()?;
            let seed = r.u64()?;
            let repetitions = if r.u8()? != 0 { Some(r.u32()?) } else { None };
            ServeMsg::Submit(JobRequest { job_id, graph, k, eps, seed, repetitions })
        }
        TAG_RESULT => {
            let job_id = r.u64()?;
            let outcome = if r.u8()? != 0 {
                let reject = r.u8()? != 0;
                let wall_us = r.u64()?;
                let verdicts = read_verdicts(&mut r)?;
                Ok(JobVerdict { reject, wall_us, verdicts })
            } else {
                Err(decode_error(&mut r)?)
            };
            ServeMsg::Result(JobResult { job_id, outcome })
        }
        TAG_STATS_REQUEST => ServeMsg::StatsRequest,
        TAG_STATS => ServeMsg::Stats(StatsSnapshot {
            workers: r.u32()?,
            queue_depth: r.u32()?,
            in_flight: r.u32()?,
            pool_outstanding: r.u64()?,
            jobs_submitted: r.u64()?,
            jobs_completed: r.u64()?,
            jobs_refused: r.u64()?,
            sessions_reclaimed: r.u64()?,
            slot_takes: r.u64()?,
            slot_misses: r.u64()?,
            latency: LatencySummary {
                count: r.u64()?,
                p50_us: r.u64()?,
                p99_us: r.u64()?,
                max_us: r.u64()?,
            },
        }),
        TAG_SHUTDOWN => ServeMsg::Shutdown,
        TAG_SHUTDOWN_ACK => ServeMsg::ShutdownAck { jobs_completed: r.u64()? },
        _ => return Err(FrameError::BadBody("unknown serve RPC tag")),
    };
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ck_congest::graph::GraphBuilder;
    use ck_congest::net::frame::{read_frame, write_frame, Deadline, FrameKind};
    use ck_core::decide::RejectWitness;
    use ck_core::msg::EdgeTag;
    use ck_core::seq::IdSeq;
    use ck_core::tester::Rejection;

    fn small_graph() -> Graph {
        GraphBuilder::new(5).edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).build().unwrap()
    }

    fn sample_msgs() -> Vec<ServeMsg> {
        let witness = Rejection {
            repetition: 2,
            tag: EdgeTag { rank: 7, lo: 1, hi: 4 },
            witness: RejectWitness {
                l1: IdSeq::from_slice(&[4, 9]),
                l2: IdSeq::from_slice(&[2]),
                myid: 9,
                k: 5,
            },
        };
        vec![
            ServeMsg::Submit(JobRequest {
                job_id: 42,
                graph: small_graph(),
                k: 5,
                eps: 0.15,
                seed: 11,
                repetitions: Some(2),
            }),
            ServeMsg::Submit(JobRequest {
                job_id: u64::MAX,
                graph: small_graph().with_ids(vec![10, 20, 30, 40, 1 << 50]).unwrap(),
                k: u32::MAX,
                eps: f64::NAN,
                seed: 0,
                repetitions: None,
            }),
            ServeMsg::Result(JobResult {
                job_id: 42,
                outcome: Ok(JobVerdict {
                    reject: true,
                    wall_us: 1234,
                    verdicts: vec![
                        NodeVerdict::default(),
                        NodeVerdict {
                            rejected: true,
                            first_rejection: Some(Box::new(witness)),
                            max_sent_seqs: 3,
                        },
                    ],
                }),
            }),
            ServeMsg::Result(JobResult {
                job_id: 7,
                outcome: Err(ServeError::Config(ConfigError::KOutOfRange { k: 99 })),
            }),
            ServeMsg::Result(JobResult {
                job_id: 8,
                outcome: Err(ServeError::Config(ConfigError::EpsOutOfRange { eps: 0.0 })),
            }),
            ServeMsg::Result(JobResult {
                job_id: 9,
                outcome: Err(ServeError::GraphTooLarge { n: 4096, max: 64 }),
            }),
            ServeMsg::Result(JobResult {
                job_id: 10,
                outcome: Err(ServeError::Overloaded { in_flight: 17, budget: 16 }),
            }),
            ServeMsg::Result(JobResult { job_id: 11, outcome: Err(ServeError::Draining) }),
            ServeMsg::Result(JobResult {
                job_id: 12,
                outcome: Err(ServeError::Engine("bandwidth cap exceeded".to_string())),
            }),
            ServeMsg::StatsRequest,
            ServeMsg::Stats(StatsSnapshot {
                workers: 4,
                queue_depth: 3,
                in_flight: 7,
                pool_outstanding: 4,
                jobs_submitted: 100,
                jobs_completed: 90,
                jobs_refused: 3,
                sessions_reclaimed: 2,
                slot_takes: 88,
                slot_misses: 6,
                latency: LatencySummary { count: 90, p50_us: 1500, p99_us: 9000, max_us: 12000 },
            }),
            ServeMsg::Shutdown,
            ServeMsg::ShutdownAck { jobs_completed: 90 },
        ]
    }

    /// Structural equality good enough for roundtrips: `Graph` has no
    /// `PartialEq`, so submits compare the size, edges and IDs the
    /// graph section carries.
    fn assert_roundtrip_eq(a: &ServeMsg, b: &ServeMsg) {
        match (a, b) {
            (ServeMsg::Submit(x), ServeMsg::Submit(y)) => {
                assert_eq!(x.job_id, y.job_id);
                assert_eq!(x.graph.n(), y.graph.n());
                assert_eq!(x.graph.edges(), y.graph.edges());
                assert_eq!(x.graph.ids(), y.graph.ids());
                assert_eq!(x.k, y.k);
                assert_eq!(x.eps.to_bits(), y.eps.to_bits(), "NaN-exact eps roundtrip");
                assert_eq!(x.seed, y.seed);
                assert_eq!(x.repetitions, y.repetitions);
            }
            (ServeMsg::Result(x), ServeMsg::Result(y)) => assert_eq!(x, y),
            (ServeMsg::StatsRequest, ServeMsg::StatsRequest) => {}
            (ServeMsg::Stats(x), ServeMsg::Stats(y)) => assert_eq!(x, y),
            (ServeMsg::Shutdown, ServeMsg::Shutdown) => {}
            (
                ServeMsg::ShutdownAck { jobs_completed: x },
                ServeMsg::ShutdownAck { jobs_completed: y },
            ) => {
                assert_eq!(x, y)
            }
            (a, b) => panic!("variant mismatch: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn every_sample_roundtrips_both_paths() {
        for msg in sample_msgs() {
            let body = encode_serve_body(&msg).unwrap();
            assert_roundtrip_eq(&msg, &decode_serve_body(&body).unwrap());
            // Framed, the body crosses the frame layer byte for byte.
            let mut wire = Vec::new();
            write_frame(&mut wire, FrameKind::Serve, &body).unwrap();
            let frame = read_frame(&mut &wire[..], &Deadline::never()).unwrap();
            assert_eq!((frame.kind, &frame.body), (FrameKind::Serve, &body));
        }
    }

    #[test]
    fn every_prefix_fails_typed() {
        for msg in sample_msgs() {
            let body = encode_serve_body(&msg).unwrap();
            for cut in 0..body.len() {
                let err = decode_serve_body(&body[..cut]);
                assert!(err.is_err(), "prefix {cut} of {msg:?} decoded");
            }
            // One trailing byte is equally typed (no silent over-read).
            let mut long = body.clone();
            long.push(0);
            assert!(decode_serve_body(&long).is_err(), "trailing byte accepted: {msg:?}");
        }
    }

    #[test]
    fn a_reused_result_buffer_writes_what_encode_serve_body_writes() {
        let mut out = ByteWriter::new();
        // Stale bytes from an earlier, longer body must not survive.
        out.0.extend_from_slice(&[0xAA; 512]);
        for msg in sample_msgs() {
            let ServeMsg::Result(res) = &msg else { continue };
            let outcome = res.outcome.as_ref().map(|v| (v.reject, v.wall_us, &v.verdicts[..]));
            encode_result_into(&mut out, res.job_id, outcome).unwrap();
            assert_eq!(out.0, encode_serve_body(&msg).unwrap());
        }
    }

    #[test]
    fn unknown_tags_are_typed() {
        for tag in [0u8, 7, 8, 200, 255] {
            assert!(matches!(decode_serve_body(&[tag]), Err(FrameError::BadBody(_))), "tag {tag}");
        }
        // Unknown refusal tag inside an otherwise well-formed Result.
        let mut w = ByteWriter::new();
        w.u8(TAG_RESULT);
        w.u64(1);
        w.u8(0);
        w.u8(99);
        assert!(matches!(decode_serve_body(&w.0), Err(FrameError::BadBody(_))));
    }

    #[test]
    fn a_body_no_frame_can_carry_is_oversized() {
        let msg = ServeMsg::Result(JobResult {
            job_id: 1,
            outcome: Err(ServeError::Engine("x".repeat(MAX_BODY as usize))),
        });
        assert!(matches!(encode_serve_body(&msg), Err(FrameError::Oversized { .. })));
    }
}
