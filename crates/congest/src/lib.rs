//! # ck-congest — a deterministic CONGEST-model simulator
//!
//! Substrate for the reproduction of *Distributed Detection of Cycles*
//! (Fraigniaud & Olivetti, SPAA 2017). The CONGEST model \[Peleg 2000\] is a
//! synchronous message-passing model over a connected simple graph: in
//! every round each node performs local computation, sends one message of
//! `O(log n)` bits along each incident edge, and receives its neighbors'
//! messages.
//!
//! This crate provides:
//!
//! * [`graph`] — immutable CSR graphs with node identities, reverse-port
//!   tables, and structural queries (connectivity, girth, diameter);
//! * [`node`] — the per-node programming model ([`node::Program`]);
//! * [`session`] — the composable entry point: a [`session::Session`]
//!   bundles graph + config + wire parameters and recycles its engine
//!   workspace across runs;
//! * [`engine`] — the synchronous executor (sequential reference and
//!   rayon-parallel implementations with identical semantics), bandwidth
//!   enforcement, and verdict collection;
//! * [`message`] — wire-size accounting (`O(log n)`-bit budgeting and
//!   CONGEST-normalized round costs) and the pluggable
//!   [`message::WireCodec`] byte encoding backing it;
//! * [`metrics`] — per-round and per-run measurement reports;
//! * [`rngs`] — deterministic seed derivation so every run replays;
//! * [`clock`] — the one wall clock: the transport's read deadlines and
//!   the stopwatch behind reported timings, never a verdict input.
//!
//! ## Example
//!
//! ```
//! use ck_congest::graph::GraphBuilder;
//! use ck_congest::session::Session;
//! use ck_congest::node::{Inbox, Outbox, Program, Status};
//!
//! /// Each node learns the maximum identity among itself and neighbors.
//! struct MaxOfNeighborhood { best: u64, sent: bool }
//!
//! impl Program for MaxOfNeighborhood {
//!     type Msg = u64;
//!     type Verdict = u64;
//!     fn step(&mut self, _round: u32, inbox: Inbox<'_, u64>, out: &mut Outbox<u64>) -> Status {
//!         for inc in inbox.iter() { self.best = self.best.max(*inc.msg); }
//!         if !self.sent {
//!             out.broadcast(self.best);
//!             self.sent = true;
//!             Status::Running
//!         } else {
//!             Status::Halted
//!         }
//!     }
//!     fn verdict(&self) -> u64 { self.best }
//! }
//!
//! let g = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build().unwrap();
//! let out = Session::new(&g).run(|init| {
//!     MaxOfNeighborhood { best: init.id, sent: false }
//! }).unwrap();
//! assert_eq!(out.verdicts, vec![1, 2, 2]);
//! ```

pub(crate) mod arena;
pub mod batch;
pub mod clock;
pub mod engine;
pub mod fault;
pub mod graph;
pub mod message;
pub mod metrics;
pub mod net;
pub mod node;
pub mod protocols;
pub mod rngs;
pub mod session;
pub mod topology;

pub use batch::{effective_shards, run_sharded};
pub use engine::{
    BandwidthPolicy, EngineConfig, EngineError, EngineWorkspace, Executor, RunOutcome, SlotStats,
};
pub use graph::{Edge, Graph, GraphBuilder, GraphError, NodeId, NodeIndex};
pub use message::{bits_for, BitReader, BitWriter, CodecError, WireCodec, WireMessage, WireParams};
pub use metrics::{NetReport, RoundStats, RunReport};
pub use node::{Inbox, InboxBuf, Incoming, NodeInit, Outbox, Program, Status};
pub use session::{Session, SessionBuilder};
