//! Execution tracing: per-round message logs for debugging protocols.
//!
//! The engine itself stays trace-free (hot path); tracing wraps a
//! [`Program`] in a [`Traced`] decorator that records what the node saw
//! and sent each round into a shared, lock-protected [`TraceLog`]. The
//! log renders to a deterministic, line-oriented transcript — the format
//! the round-by-round examples print and snapshot tests can assert on.

use std::sync::{Arc, Mutex};

use crate::graph::NodeIndex;
use crate::node::{Inbox, Outbox, Program, Status};

/// One logged event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A node received a message on a port (rendered via `Debug`).
    Recv { round: u32, node: NodeIndex, port: u32, what: String },
    /// A node sent a message on a port.
    Send { round: u32, node: NodeIndex, port: u32, what: String },
    /// A node halted.
    Halt { round: u32, node: NodeIndex },
}

/// Shared, thread-safe event log (the engine steps nodes in parallel).
#[derive(Clone, Default)]
pub struct TraceLog {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    // The log is diagnostics: a writer that panicked mid-push leaves a
    // structurally intact Vec, so poisoning is recovered rather than
    // propagated (a trace must never take down the run it observes).
    fn push(&self, e: TraceEvent) {
        self.events.lock().unwrap_or_else(|p| p.into_inner()).push(e);
    }

    /// Snapshot of the events, sorted canonically (round, node, send
    /// after recv) so parallel execution yields a deterministic
    /// transcript.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut ev = self.events.lock().unwrap_or_else(|p| p.into_inner()).clone();
        ev.sort_by_key(|e| match e {
            TraceEvent::Recv { round, node, port, .. } => (*round, *node, 0u8, *port),
            TraceEvent::Send { round, node, port, .. } => (*round, *node, 1, *port),
            TraceEvent::Halt { round, node } => (*round, *node, 2, 0),
        });
        ev
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the transcript, one event per line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in self.events() {
            match e {
                TraceEvent::Recv { round, node, port, what } => {
                    let _ = writeln!(out, "r{round} n{node} <- p{port}: {what}");
                }
                TraceEvent::Send { round, node, port, what } => {
                    let _ = writeln!(out, "r{round} n{node} -> p{port}: {what}");
                }
                TraceEvent::Halt { round, node } => {
                    let _ = writeln!(out, "r{round} n{node} HALT");
                }
            }
        }
        out
    }
}

/// Decorator recording a program's traffic into a [`TraceLog`].
pub struct Traced<P> {
    inner: P,
    node: NodeIndex,
    log: TraceLog,
}

impl<P> Traced<P> {
    /// Wraps `inner`, tagging events with `node`.
    pub fn new(inner: P, node: NodeIndex, log: TraceLog) -> Self {
        Traced { inner, node, log }
    }
}

impl<P: Program> Program for Traced<P>
where
    P::Msg: std::fmt::Debug,
{
    type Msg = P::Msg;
    type Verdict = P::Verdict;

    fn step(
        &mut self,
        round: u32,
        inbox: Inbox<'_, Self::Msg>,
        out: &mut Outbox<Self::Msg>,
    ) -> Status {
        for inc in inbox.iter() {
            self.log.push(TraceEvent::Recv {
                round,
                node: self.node,
                port: inc.port,
                what: format!("{:?}", inc.msg),
            });
        }
        // Step into a buffered side outbox, then replay into the real
        // one: works with any engine backend (the arena engine's outbox
        // writes straight into the receivers' inboxes and keeps no
        // queue to inspect). Tracing is explicitly not a hot path.
        let mut buffered = Outbox::for_harness(out.degree());
        let status = self.inner.step(round, inbox, &mut buffered);
        for (port, msg) in buffered.drain_sends() {
            self.log.push(TraceEvent::Send {
                round,
                node: self.node,
                port,
                what: format!("{msg:?}"),
            });
            out.send(port, msg);
        }
        if status == Status::Halted {
            self.log.push(TraceEvent::Halt { round, node: self.node });
        }
        status
    }

    fn verdict(&self) -> Self::Verdict {
        self.inner.verdict()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, Executor};
    use crate::graph::GraphBuilder;
    use crate::protocols::MinIdFlood;
    use crate::session::Session;

    fn traced_run(exec: Executor) -> TraceLog {
        let g = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).ids(vec![30, 10, 20]).build().unwrap();
        let log = TraceLog::new();
        let cfg = EngineConfig { executor: exec, ..EngineConfig::default() };
        let log2 = log.clone();
        Session::builder(&g)
            .config(cfg)
            .build()
            .run(move |init| Traced::new(MinIdFlood::new(init.id, 3), init.index, log2.clone()))
            .unwrap();
        log
    }

    #[test]
    fn transcript_is_deterministic_across_executors() {
        let a = traced_run(Executor::Sequential);
        let b = traced_run(Executor::Parallel);
        assert_eq!(a.render(), b.render());
        assert!(!a.is_empty());
    }

    #[test]
    fn transcript_contains_the_flood() {
        let log = traced_run(Executor::Sequential);
        let text = log.render();
        // Node 1 (ID 10) broadcasts 10 at round 0 on both ports.
        assert!(text.contains("r0 n1 -> p0: 10"), "transcript:\n{text}");
        assert!(text.contains("r0 n1 -> p1: 10"));
        // Everyone eventually halts.
        for n in 0..3 {
            assert!(text.contains(&format!("n{n} HALT")));
        }
    }

    #[test]
    fn event_ordering_is_canonical() {
        let log = traced_run(Executor::Parallel);
        let ev = log.events();
        let keys: Vec<(u32, u32)> = ev
            .iter()
            .map(|e| match e {
                TraceEvent::Recv { round, node, .. }
                | TraceEvent::Send { round, node, .. }
                | TraceEvent::Halt { round, node } => (*round, *node),
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
