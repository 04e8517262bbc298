//! The composable entry point over the round engine: build a
//! [`Session`] once, run programs through it repeatedly.
//!
//! A `Session` is one builder: graph + [`EngineConfig`] + optional
//! pinned [`WireParams`], with the [`EngineWorkspace`] owned *inside*
//! the session so the fast path (arena and slot-array reuse across
//! runs) is the default rather than an expert opt-in. Repeated
//! [`Session::run`] calls on the same session allocate nothing once
//! the first run has warmed the arenas.
//!
//! Outputs of a reused session are bit-identical to a fresh session's
//! by the engine's workspace-reset contract (a reset workspace delivers
//! exactly what a fresh one does; earlier runs' parked broadcasts reach
//! a program only as the payloads its broadcasts evict) — property-tested
//! in `tests/session_parity.rs`.

use crate::engine::{EngineConfig, EngineError, EngineWorkspace, Executor, RunOutcome, SlotStats};
use crate::graph::Graph;
use crate::message::{WireMessage, WireParams};
use crate::node::{NodeInit, Program};

/// Builder for a [`Session`]: the graph is mandatory, everything else
/// defaults ([`EngineConfig::default`], wire parameters derived from
/// the graph).
pub struct SessionBuilder<'g, M: WireMessage> {
    graph: &'g Graph,
    config: EngineConfig,
    params: Option<WireParams>,
    _msg: std::marker::PhantomData<fn() -> M>,
}

impl<'g, M: WireMessage> SessionBuilder<'g, M> {
    fn new(graph: &'g Graph) -> Self {
        SessionBuilder {
            graph,
            config: EngineConfig::default(),
            params: None,
            _msg: std::marker::PhantomData,
        }
    }

    /// Replaces the whole engine configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the executor ([`Executor::Parallel`] by default).
    pub fn executor(mut self, executor: Executor) -> Self {
        self.config.executor = executor;
        self
    }

    /// Pins explicit wire parameters (for harnesses comparing
    /// differently-labeled graphs under one `id_bits`/`rank_bits`
    /// accounting); by default they are derived from the graph.
    pub fn wire_params(mut self, params: WireParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Finishes the builder. Infallible: every field has a valid
    /// default, and wire parameters are derived from the graph when not
    /// pinned.
    pub fn build(self) -> Session<'g, M> {
        let params = self.params.unwrap_or_else(|| WireParams::for_graph(self.graph));
        Session { graph: self.graph, config: self.config, params, ws: EngineWorkspace::new() }
    }
}

/// A reusable execution context for one graph: engine configuration,
/// wire parameters, and an internally owned [`EngineWorkspace`] that is
/// recycled (mailbox arenas, slot array) on every run.
///
/// # Examples
///
/// ```
/// use ck_congest::graph::GraphBuilder;
/// use ck_congest::node::{Inbox, Outbox, Program, Status};
/// use ck_congest::session::Session;
///
/// /// Each node learns the maximum identity in its neighborhood.
/// struct MaxOfNeighborhood { best: u64, sent: bool }
///
/// impl Program for MaxOfNeighborhood {
///     type Msg = u64;
///     type Verdict = u64;
///     fn step(&mut self, _round: u32, inbox: Inbox<'_, u64>, out: &mut Outbox<u64>) -> Status {
///         for inc in inbox.iter() { self.best = self.best.max(*inc.msg); }
///         if !self.sent {
///             out.broadcast(self.best);
///             self.sent = true;
///             Status::Running
///         } else {
///             Status::Halted
///         }
///     }
///     fn verdict(&self) -> u64 { self.best }
/// }
///
/// let g = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build().unwrap();
/// let mut session = Session::new(&g);
/// // Repeated runs recycle the session's arenas automatically.
/// for _ in 0..3 {
///     let out = session
///         .run(|init| MaxOfNeighborhood { best: init.id, sent: false })
///         .unwrap();
///     assert_eq!(out.verdicts, vec![1, 2, 2]);
/// }
/// ```
pub struct Session<'g, M: WireMessage> {
    graph: &'g Graph,
    config: EngineConfig,
    params: WireParams,
    ws: EngineWorkspace<M>,
}

impl<'g, M: WireMessage> Session<'g, M> {
    /// A session with the default [`EngineConfig`].
    pub fn new(graph: &'g Graph) -> Self {
        Session::builder(graph).build()
    }

    /// Starts a builder for `graph`.
    pub fn builder(graph: &'g Graph) -> SessionBuilder<'g, M> {
        SessionBuilder::new(graph)
    }

    /// The session's graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The engine configuration every run uses.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The wire parameters every run accounts under.
    pub fn params(&self) -> &WireParams {
        &self.params
    }

    /// Slot-array reuse counters of the owned workspace (after the
    /// first run of a program type, further runs allocate no slot
    /// array).
    pub fn slot_stats(&self) -> SlotStats {
        self.ws.slot_stats()
    }

    /// Runs `factory`-instantiated programs until every node halts or
    /// the configured round cap is reached, recycling the session's
    /// workspace.
    pub fn run<P, F>(&mut self, factory: F) -> Result<RunOutcome<P::Verdict>, EngineError>
    where
        P: Program<Msg = M>,
        F: FnMut(NodeInit<'g>) -> P,
    {
        let mut out = RunOutcome::default();
        self.run_into(factory, &mut out)?;
        Ok(out)
    }

    /// As [`Session::run`], writing the result into a caller-owned
    /// [`RunOutcome`] (reset first, allocations kept) instead of
    /// returning a fresh one. Rotating one outcome buffer through
    /// repeated runs makes the warm rerun *fully* allocation-free under
    /// the sequential executor — the claim the `ck_lint::alloc_gate`
    /// regression tests turn into a CI gate. On error the outcome's
    /// contents are unspecified.
    pub fn run_into<P, F>(
        &mut self,
        mut factory: F,
        out: &mut RunOutcome<P::Verdict>,
    ) -> Result<(), EngineError>
    where
        P: Program<Msg = M>,
        F: FnMut(NodeInit<'g>) -> P,
    {
        self.ws.run_on_into(self.graph, &self.config, &self.params, &mut factory, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::node::{Inbox, Outbox, Status};

    struct Echo {
        rounds: u32,
        received: u64,
    }

    impl Program for Echo {
        type Msg = u64;
        type Verdict = u64;
        fn step(&mut self, round: u32, inbox: Inbox<'_, u64>, out: &mut Outbox<u64>) -> Status {
            self.received += inbox.len() as u64;
            if round >= self.rounds {
                return Status::Halted;
            }
            out.broadcast(u64::from(round));
            Status::Running
        }
        fn verdict(&self) -> u64 {
            self.received
        }
    }

    fn path(n: usize) -> Graph {
        GraphBuilder::new(n).edges((0..n as u32 - 1).map(|i| (i, i + 1))).build().unwrap()
    }

    #[test]
    fn session_reuse_is_deterministic_and_slot_warm() {
        let g = path(20);
        let mut session: Session<'_, u64> =
            Session::builder(&g).executor(Executor::Sequential).build();
        let first = session.run(|_| Echo { rounds: 4, received: 0 }).unwrap();
        for _ in 0..4 {
            let again = session.run(|_| Echo { rounds: 4, received: 0 }).unwrap();
            assert_eq!(first.verdicts, again.verdicts);
            assert_eq!(first.report.per_round, again.report.per_round);
        }
        let stats = session.slot_stats();
        assert_eq!(stats.takes, 5);
        assert_eq!(stats.misses, 1, "only the cold first run may allocate the slot array");
    }

    #[test]
    fn pinned_wire_params_change_accounting_only() {
        let g = path(4);
        let derived = WireParams::for_graph(&g);
        let fat = WireParams { id_bits: derived.id_bits + 7, ..derived };
        let mut a: Session<'_, u64> = Session::new(&g);
        let mut b: Session<'_, u64> = Session::builder(&g).wire_params(fat).build();
        assert_eq!(a.params(), &derived);
        assert_eq!(b.params(), &fat);
        let ra = a.run(|_| Echo { rounds: 2, received: 0 }).unwrap();
        let rb = b.run(|_| Echo { rounds: 2, received: 0 }).unwrap();
        assert_eq!(ra.verdicts, rb.verdicts);
        assert_eq!(ra.report.total_messages(), rb.report.total_messages());
        assert!(rb.report.total_bits() > ra.report.total_bits(), "fatter ids cost more bits");
    }

    #[test]
    fn slot_store_misses_on_program_type_change() {
        let g = path(6);
        let mut session: Session<'_, u64> = Session::new(&g);
        session.run(|_| Echo { rounds: 1, received: 0 }).unwrap();
        session.run(|_| Echo { rounds: 1, received: 0 }).unwrap();
        assert_eq!(session.slot_stats().misses, 1);

        // A differently laid-out program cannot reuse the parked array.
        struct Fat {
            pad: [u64; 4],
        }
        impl Program for Fat {
            type Msg = u64;
            type Verdict = u64;
            fn step(&mut self, _r: u32, _i: Inbox<'_, u64>, _o: &mut Outbox<u64>) -> Status {
                Status::Halted
            }
            fn verdict(&self) -> u64 {
                self.pad[0]
            }
        }
        session.run(|_| Fat { pad: [0; 4] }).unwrap();
        assert_eq!(session.slot_stats().misses, 2);
        // …and switching back misses again (the store keeps one buffer).
        session.run(|_| Echo { rounds: 1, received: 0 }).unwrap();
        assert_eq!(session.slot_stats().misses, 3);
    }
}
