//! Fault-tolerant cross-process execution on the codec seam.
//!
//! The CONGEST model is a message-passing system; this module makes
//! the message passing *real*. A coordinator partitions the graph into
//! contiguous node ranges ([`partition::partition_range`]), hands each
//! range to a worker — a thread or a spawned process, connected over
//! loopback TCP — and drives lock-step rounds over length-prefixed
//! frames ([`frame`]): `Go` starts a round, workers ship every
//! cross-partition delivery as a [`frame::FrameKind::Msg`] frame whose
//! payload is the message's canonical
//! [`crate::message::WireCodec`] bit string, `Done` carries the
//! partition's [`RoundDigest`], and `Barrier` seals the round after
//! the coordinator has routed all deliveries to their owners and
//! closed the round on the merged digest
//! ([`RoundDigest::close_round`], the engine loop's own post-round
//! step). Each worker steps its range as one chunk of the engine's
//! round loop ([`PartitionEngine`]), so the distributed executor
//! shares the in-process executors' per-node step and delivery order.
//! The workers and their links (a *fleet*) outlive a run: a protocol
//! layer spawns them once and runs job after job over them, with the
//! workers' [`HeartbeatHandle`]s parked between jobs.
//!
//! Every failure mode is a **typed, bounded-time outcome** — the
//! design rule of this layer is that no fault, however rude, may turn
//! into a hang:
//!
//! | failure | detection | outcome |
//! |---|---|---|
//! | worker never connects | accept deadline | [`NetError::Connect`] |
//! | worker process dies (`kill -9`, abort) | EOF / reset on its link | [`NetError::WorkerLost`] (`Death`) |
//! | worker hangs mid-round | round deadline, heartbeats silent | [`NetError::WorkerLost`] (`MissedHeartbeat`) |
//! | worker alive but too slow | round deadline, heartbeats fresh | [`NetError::WorkerLost`] (`Deadline`) |
//! | truncated / malformed frame | total frame decode | [`NetError::Frame`] |
//! | payload fails the codec | typed [`crate::message::CodecError`] | [`NetError::Frame`] |
//!
//! Protocol layers (e.g. `ck-core`'s distributed tester) degrade
//! gracefully on any `NetError`: the job re-runs on the in-process
//! sequential executor — the bit-identity oracle — and the fallback is
//! recorded in the run report's `net` block rather than silently
//! absorbed.

pub mod chaos;
pub mod frame;
pub mod link;
pub mod partition;

pub use chaos::{ChaosPlan, ChaosTransport};
pub use frame::{Frame, FrameError, FrameKind, MsgHeader};
pub use link::{connect_with_retry, HeartbeatHandle, SharedWriter};
pub use partition::{partition_range, OutFrame, PartitionEngine, RoundDigest};

/// Why a worker was declared lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LostCause {
    /// Its link closed (process death, `kill -9`, connection reset).
    Death,
    /// The round deadline passed with no heartbeat either — the
    /// process is gone or wedged.
    MissedHeartbeat,
    /// The round deadline passed while heartbeats kept arriving — the
    /// worker is alive but cannot finish in time.
    Deadline,
    /// It spoke the protocol wrong (unexpected frame, bad round echo).
    Protocol,
}

impl std::fmt::Display for LostCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LostCause::Death => "link closed",
            LostCause::MissedHeartbeat => "missed heartbeat",
            LostCause::Deadline => "round deadline exceeded",
            LostCause::Protocol => "protocol violation",
        };
        f.write_str(s)
    }
}

/// A typed network-layer failure; every variant is produced within a
/// configured deadline ([`NetOptions`]), never by waiting forever.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// Spawning a worker process failed.
    Spawn(String),
    /// A worker never completed the handshake.
    Connect { worker: u32, detail: String },
    /// A worker stopped participating mid-run.
    WorkerLost { worker: u32, round: u32, cause: LostCause },
    /// A worker link produced an undecodable frame.
    Frame { worker: u32, round: u32, err: FrameError },
    /// A worker reported a typed failure of its own.
    Worker { worker: u32, detail: String },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Spawn(d) => write!(f, "worker spawn failed: {d}"),
            NetError::Connect { worker, detail } => {
                write!(f, "worker {worker} never connected: {detail}")
            }
            NetError::WorkerLost { worker, round, cause } => {
                write!(f, "worker {worker} lost at round {round}: {cause}")
            }
            NetError::Frame { worker, round, err } => {
                write!(f, "bad frame from worker {worker} at round {round}: {err}")
            }
            NetError::Worker { worker, detail } => {
                write!(f, "worker {worker} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Tuning knobs of the distributed executor; every timeout is a hard
/// bound on how long a failure can stay undetected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetOptions {
    /// Total budget for spawning and handshaking all workers, per
    /// fleet spawn; a run's `Spec → Ready` handshake (and the one
    /// respawn of a fleet found dead before `Ready`) fits in the same
    /// budget.
    pub connect_timeout_ms: u64,
    /// Per-round deadline: a round that has not produced every
    /// worker's `Done` by then loses the overdue worker.
    pub round_deadline_ms: u64,
    /// Worker heartbeat interval. Liveness only: at a missed deadline
    /// it tells a slow worker from a dead one, and it is never on the
    /// path to completion — no protocol step waits for a beat, and a
    /// finishing worker stops its beat without waiting out the
    /// interval.
    pub heartbeat_ms: u64,
    /// Process-mode worker command: argv executed per worker, per fleet
    /// spawn, with the coordinator's `host:port` and the worker's index
    /// appended; the processes then serve every run of the fleet.
    /// `None` runs workers as in-process threads over real sockets —
    /// the same protocol, no fork cost.
    pub worker_cmd: Option<Vec<String>>,
    /// Physical-layer fault injection on one worker's link.
    pub chaos: Option<ChaosPlan>,
    /// `(worker, round)`: the coordinator SIGKILLs that worker process
    /// at the start of that round (process mode only) — the harness
    /// for crash-recovery tests.
    pub kill_worker: Option<(u32, u32)>,
    /// Degrade to the in-process sequential executor on a `NetError`
    /// instead of surfacing it (the fallback is recorded either way).
    pub fallback: bool,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            connect_timeout_ms: 5_000,
            round_deadline_ms: 5_000,
            heartbeat_ms: 100,
            worker_cmd: None,
            chaos: None,
            kill_worker: None,
            fallback: true,
        }
    }
}
