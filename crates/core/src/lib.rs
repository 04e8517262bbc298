//! # ck-core — distributed detection of cycles (SPAA 2017)
//!
//! Implementation of *Distributed Detection of Cycles* by Pierre
//! Fraigniaud and Dennis Olivetti (SPAA 2017): for every `k ≥ 3`, a
//! 1-sided-error distributed property-testing algorithm for
//! `Ck`-freeness running in `O(1/ε)` rounds of the CONGEST model.
//!
//! The crate decomposes the algorithm the way the paper does:
//!
//! * [`seq`] — the ordered ID-sequences exchanged by Phase 2, stored as
//!   round-width rows;
//! * [`mod@prune`] — the representative-family pruning rule (Instructions
//!   13–24 of Algorithm 1), which every protocol runs through its
//!   efficient implementation; the literal transcription, with identical
//!   semantics, is only the tests' oracle;
//! * [`decide`] — the final reject predicate (Instructions 31–42);
//! * [`single`] — `DetectCk(u, v)`: Phase 2 for one designated edge,
//!   deterministic, rejects **iff** a `Ck` passes through the edge
//!   (Lemma 2);
//! * [`rank`] — Phase 1: edge ranks, arbitration keys, repetition
//!   schedule (Lemmas 4 and 5);
//! * [`tester`] — the full tester: concurrent rank-arbitrated checks,
//!   `⌈(e²/ε)·ln 3⌉` repetitions (Theorem 1);
//! * [`session`] — the composable entry point: a
//!   [`session::TesterSession`] validates its configuration at build
//!   time and recycles engine workspace + node-state arena across its
//!   `test` runs (batches recycle per-shard state internally);
//! * [`batch`] — the sharded multi-graph batch runner: whole instance
//!   families through reusable per-shard engine workspaces, bit-identical
//!   to one-by-one runs.
//!
//! ## Quick start
//!
//! ```
//! use ck_core::session::TesterSession;
//! use ck_graphgen::basic::cycle;
//! use ck_graphgen::planted::matched_free_instance;
//!
//! let mut session = TesterSession::builder(5, 0.1).seed(42).build().unwrap();
//!
//! // A graph that IS C5-free is accepted with probability 1 …
//! let free = matched_free_instance(30, 5);
//! assert!(!session.test(&free).unwrap().reject);
//!
//! // … while a 5-cycle is rejected.
//! let c5 = cycle(5);
//! assert!(session.test(&c5).unwrap().reject);
//! ```

pub mod ablation;
pub mod batch;
pub mod cost;
pub mod decide;
pub mod dist;
pub mod framework;
pub mod girth;
pub mod msg;
pub mod prune;
pub mod rank;
pub mod robust;
pub mod seq;
pub mod session;
pub mod single;
pub mod soa;
pub mod tester;

pub use batch::{BatchError, BatchFailure, BatchJob};
pub use decide::{decide_reject, RejectWitness};
pub use msg::{CkCodec, CkMsg, EdgeTag, SeqPool};
pub use prune::{build_send_set, build_send_set_into, lemma3_bound, SendSetScratch};
pub use rank::{repetitions_for, rounds_per_repetition, total_rounds, try_repetitions_for};
pub use seq::{IdSeq, SeqRows, MAX_K, MAX_SEQ_LEN};
pub use session::{TesterSession, TesterSessionBuilder};
pub use single::{detect_ck_through_edge, DetectSingle, SingleRun, SingleVerdict};
pub use soa::SoaArena;
pub use tester::{test_ck_freeness, ConfigError, NodeVerdict, TesterConfig, TesterRun};
