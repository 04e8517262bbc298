//! Worker-side round execution over a contiguous node range.
//!
//! A [`PartitionEngine`] is the distributed executor's unit of work:
//! worker `w` of `W` owns the programs of nodes `[lo, hi)` and steps
//! them as one chunk of the engine's round loop. Each node goes through
//! the in-process executors' own per-node step — the mailbox row read,
//! the one direct sink that prices every send as it lands, the
//! broadcast slot generations, the fault plan evaluated at the send —
//! under a sink context from the same builder, so verdicts, wire
//! counters, bandwidth violations, and fault accounting are
//! bit-identical to the sequential oracle by construction, not by
//! re-implementation.
//!
//! The worker's inbox arenas are mailboxes over every directed edge,
//! with one segment: its own thread writes them all. Sends to owned
//! receivers stay in the local arenas. Sends across the partition's cut
//! are drained after the step as [`OutFrame`]s for the transport layer
//! to ship; only the mailbox rows of the receivers adjacent to the
//! range, listed once at construction, are visited. Deliveries arriving
//! from other partitions are [`PartitionEngine::inject`]ed after the
//! step into the receiver's mailbox slot for the sending link: a
//! delivery's position is its link, so the order in which the
//! coordinator routes frames does not matter. A link carries one
//! message per round, so a second delivery on a link is refused typed.
//! [`PartitionEngine::commit_round`] only swaps the arenas, dropping
//! the payloads of the generation that re-enters the write role.
//!
//! A broadcast's payload stays in its sender's slot; every other
//! payload — the owned senders' targeted sends and corrupted copies,
//! and the injected remote deliveries — moves into the arena's payload
//! arena. The cut drain clones each payload into its [`OutFrame`].
//!
//! A round visits the mailbox row of every owned receiver and of every
//! cut receiver, so its cost follows the range and the cut, not `n`.
//! Building the engine still sizes a mailbox slot (8 B) per directed
//! edge of the whole graph in each of its two arenas, and a worker
//! builds one engine per job: the worker's links outlive its jobs, its
//! engine does not.

use std::ops::Range;

use crate::arena::InboxArena;
pub use crate::arena::RoundDigest;
use crate::engine::{sink_ctx, step_node, EngineConfig, RoundIo, Slot};
use crate::graph::{Graph, NodeIndex};
use crate::message::WireParams;
use crate::node::{NodeInit, Program};

use super::frame::FrameError;

/// The arenas' one segment: the worker's thread writes every payload,
/// stepping and injecting alike.
const OWN: usize = 0;

/// The contiguous node range worker `worker` of `workers` owns:
/// `[⌊w·n/W⌋, ⌊(w+1)·n/W⌋)`. Covers every node exactly once for any
/// worker count, including `workers > n` (trailing workers get empty
/// ranges).
pub fn partition_range(n: usize, workers: u32, worker: u32) -> Range<NodeIndex> {
    assert!(workers > 0, "at least one worker");
    assert!(worker < workers, "worker index in range");
    let (n, w, i) = (n as u64, u64::from(workers), u64::from(worker));
    ((i * n / w) as NodeIndex)..(((i + 1) * n / w) as NodeIndex)
}

/// One cross-partition delivery: the engine message bound for `port`
/// of `receiver`, already past the fault plan (drops are absent,
/// corruption is resolved) — exactly what an in-process mailbox slot
/// would point at.
#[derive(Clone, Debug)]
pub struct OutFrame<M> {
    /// Receiving node (global index, outside this partition).
    pub receiver: NodeIndex,
    /// Receiver-side local port.
    pub port: u32,
    /// The delivered payload.
    pub msg: M,
}

/// The partition executor proper (see the module doc).
pub struct PartitionEngine<'g, P: Program> {
    graph: &'g Graph,
    config: EngineConfig,
    params: WireParams,
    lo: NodeIndex,
    hi: NodeIndex,
    /// The receivers outside `[lo, hi)` adjacent to it, ascending and
    /// deduplicated: the only mailbox rows a round's sends can leave
    /// staged for other partitions.
    cut: Vec<NodeIndex>,
    /// The programs of `[lo, hi)`, in node order.
    slots: Vec<Slot<P>>,
    cur: InboxArena<P::Msg>,
    next: InboxArena<P::Msg>,
}

impl<'g, P: Program> PartitionEngine<'g, P> {
    /// Builds the partition for `worker` of `workers`, instantiating
    /// one program per owned node through `factory` (the same
    /// [`NodeInit`] the in-process engine hands out).
    pub fn new<F>(
        graph: &'g Graph,
        config: &EngineConfig,
        params: WireParams,
        workers: u32,
        worker: u32,
        mut factory: F,
    ) -> Self
    where
        F: FnMut(NodeInit<'g>) -> P,
    {
        let n = graph.n();
        let range = partition_range(n, workers, worker);
        let layout = graph.identity_layout();
        let slots = range.clone().map(|v| Slot::new(graph, layout, v, &mut factory)).collect();
        let mut cut: Vec<NodeIndex> = range
            .clone()
            .flat_map(|v| graph.neighbors(v).iter().copied())
            .filter(|w| !range.contains(w))
            .collect();
        cut.sort_unstable();
        cut.dedup();
        let mut cur = InboxArena::new();
        let mut next = InboxArena::new();
        cur.reset(n, graph.num_directed_edges(), 1);
        next.reset(n, graph.num_directed_edges(), 1);
        PartitionEngine {
            graph,
            config: config.clone(),
            params,
            lo: range.start,
            hi: range.end,
            cut,
            slots,
            cur,
            next,
        }
    }

    /// Executes one round over the owned range as one chunk of the
    /// engine's round loop, then appends every delivery addressed
    /// across the cut to `out`, by ascending receiver and port. Returns
    /// the partition's share of the round accounting.
    pub fn step_round(&mut self, round: u32, out: &mut Vec<OutFrame<P::Msg>>) -> RoundDigest {
        let ctx = sink_ctx(self.graph, &self.config, &self.params, round);
        let layout = self.graph.identity_layout();
        let io = RoundIo { layout, cur: &self.cur, next: &self.next, ctx: &ctx };
        let segment = self.next.segment_ptr(OWN);
        let mut acc = RoundDigest::default();
        for (v, slot) in (self.lo..).zip(&mut self.slots) {
            step_node(v, segment, slot, &io, &mut acc);
        }

        // Ship what the sends staged for the cut's receivers: their
        // mailbox rows, nulled on the way. Every pointer targets this
        // round's write generation — its broadcast slots and its
        // payload arena, both live until the arena is cleared after a
        // later swap.
        for &w in &self.cut {
            for (port, msg) in self.next.drain_row(self.graph.directed_edge_range(w)) {
                // SAFETY: see above — the payload outlives this drain.
                out.push(OutFrame { receiver: w, port, msg: unsafe { (*msg).clone() } });
            }
        }
        acc
    }

    /// Buffers one delivery arriving from another partition for the
    /// next round, in `receiver`'s mailbox slot for `port`. Deliveries
    /// must follow this round's [`step_round`](Self::step_round). Fails
    /// typed on addressing errors — a receiver outside the partition, a
    /// port past its degree, a sender inside the partition — and on a
    /// second delivery on one link in one round, whose payload is
    /// dropped at once, so a malformed, repeated or hostile frame can
    /// never panic the worker.
    pub fn inject(
        &mut self,
        receiver: NodeIndex,
        port: u32,
        msg: P::Msg,
    ) -> Result<(), FrameError> {
        let owned = self.lo..self.hi;
        if !owned.contains(&receiver) {
            return Err(FrameError::BadBody("delivery addressed outside the partition"));
        }
        let sender = *self
            .graph
            .neighbors(receiver)
            .get(port as usize)
            .ok_or(FrameError::BadBody("delivery port exceeds receiver degree"))?;
        if owned.contains(&sender) {
            return Err(FrameError::BadBody("delivery from a sender inside the partition"));
        }
        self.next
            .push_owned(OWN, self.graph.directed_edge(receiver, port), msg)
            .map_err(|_| FrameError::BadBody("a second delivery on one link in one round"))
    }

    /// Seals the round after all remote deliveries are injected: swaps
    /// the double buffers. The generation that re-enters the write role
    /// had its mailbox nulled (owned receivers' rows by their steps, cut
    /// receivers' rows by the drain), so its payloads are dropped here.
    pub fn commit_round(&mut self) {
        InboxArena::swap_roles(&mut self.cur, &mut self.next);
    }

    /// Per-node verdicts of the owned range, in node order.
    pub fn verdicts(&self) -> Vec<P::Verdict> {
        self.slots.iter().map(|s| s.prog.verdict()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::node::{Inbox, Outbox, Status};

    #[test]
    fn partition_ranges_tile_the_nodes() {
        for n in [0usize, 1, 2, 5, 7, 16, 33] {
            for workers in [1u32, 2, 3, 4, 9] {
                let mut covered = 0usize;
                let mut prev_end = 0;
                for w in 0..workers {
                    let r = partition_range(n, workers, w);
                    assert_eq!(r.start, prev_end, "contiguous for n={n} w={workers}");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(prev_end as usize, n);
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn worker_count_above_node_count_leaves_empty_tails() {
        let ranges: Vec<_> = (0..5).map(|w| partition_range(2, 5, w)).collect();
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 2);
        assert!(ranges.iter().filter(|r| r.is_empty()).count() >= 3);
    }

    /// A program that never sends: the tests below only address
    /// mailbox slots.
    struct Quiet;

    impl Program for Quiet {
        type Msg = u64;
        type Verdict = ();
        fn step(&mut self, _round: u32, _inbox: Inbox<'_, u64>, _out: &mut Outbox<u64>) -> Status {
            Status::Running
        }
        fn verdict(&self) {}
    }

    fn path(n: usize) -> Graph {
        GraphBuilder::new(n).edges((0..n as u32 - 1).map(|i| (i, i + 1))).build().unwrap()
    }

    fn partition(g: &Graph, workers: u32, worker: u32) -> PartitionEngine<'_, Quiet> {
        let params = WireParams::for_graph(g);
        PartitionEngine::new(g, &EngineConfig::default(), params, workers, worker, |_| Quiet)
    }

    /// Worker 0 of 2 on the path 0–…–5 owns 0..3: a delivery must name
    /// an owned receiver, a port within its degree, and a sender across
    /// the cut, and a link takes one delivery per round.
    #[test]
    fn inject_rejects_misaddressed_deliveries_typed() {
        let g = path(6);
        let mut p = partition(&g, 2, 0);
        let bad = |r: Result<(), FrameError>| matches!(r, Err(FrameError::BadBody(_)));
        assert!(bad(p.inject(4, 0, 7)), "receiver outside the range");
        assert!(bad(p.inject(2, 2, 7)), "port past the receiver's degree");
        assert!(bad(p.inject(2, 0, 7)), "sender 1 inside the partition");
        assert_eq!(p.inject(2, 1, 7), Ok(()), "node 3 into node 2");
        assert!(bad(p.inject(2, 1, 8)), "a second delivery on the link from node 3");
        let filed: Vec<u32> = p.next.drain_row(g.directed_edge_range(2)).map(|(q, _)| q).collect();
        assert_eq!(filed, vec![1], "filed in node 2's slot for port 1");
    }

    /// Only receivers adjacent to the range are drained after a step.
    #[test]
    fn cut_lists_only_the_adjacent_foreign_receivers() {
        let g = path(10_000);
        assert_eq!(partition(&g, 2, 0).cut, vec![5000]);
        assert_eq!(partition(&g, 2, 1).cut, vec![4999]);
        assert_eq!(partition(&g, 3, 1).cut, vec![3332, 6666]);
    }

    /// Broadcasts in even rounds and sends on every port in odd ones.
    struct Talk;

    impl Program for Talk {
        type Msg = u64;
        type Verdict = ();
        fn step(&mut self, round: u32, _inbox: Inbox<'_, u64>, out: &mut Outbox<u64>) -> Status {
            if round.is_multiple_of(2) {
                out.broadcast(u64::from(round));
            } else {
                for p in 0..out.degree() {
                    out.send(p, u64::from(round) << 20 | u64::from(p));
                }
            }
            Status::Running
        }
        fn verdict(&self) {}
    }

    /// `step_round`'s digest prices every send: worker 0 of 2 on the
    /// path 0–…–5 owns nodes of degrees 1, 2 and 2, so each round
    /// charges 5 messages, and at least 5 times the largest one's bits.
    #[test]
    fn step_round_prices_every_send() {
        let g = path(6);
        let params = WireParams::for_graph(&g);
        let mut p = PartitionEngine::new(&g, &EngineConfig::default(), params, 2, 0, |_| Talk);
        let digests: Vec<_> = (0..4)
            .map(|round| {
                let d = p.step_round(round, &mut Vec::new());
                p.commit_round();
                (d.messages, d.bits, d.max_message_bits)
            })
            .collect();
        assert!(digests.iter().all(|&(m, b, x)| m == 5 && b >= 5 * x && x > 0), "{digests:?}");
    }

    /// The digest a partition ships in its `Done` frame survives the
    /// encoding bit for bit, merges keeping the lowest node's violation, and
    /// every truncated body decodes to a typed error.
    #[test]
    fn digest_roundtrip_and_merge() {
        let a = RoundDigest {
            messages: 3,
            bits: 40,
            max_message_bits: 14,
            halted: 1,
            violation: Some((2, 0, 99)),
            drops_by_kind: [1, 0, 2, 0, 0],
            corrupted_delivered: 1,
            corrupted_rejected: 4,
        };
        let back = RoundDigest::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(back, a);
        let b = RoundDigest { messages: 2, violation: Some((7, 1, 5)), ..RoundDigest::default() };
        let m = RoundDigest::merge(a, b);
        assert_eq!(m.messages, 5);
        assert_eq!(m.violation, Some((2, 0, 99)));
        let bytes = a.to_bytes();
        // Three counters, `halted`, the violation (flag, node, port,
        // bits), five drop counters and two corruption counters.
        assert_eq!(bytes.len(), 3 * 8 + 4 + (1 + 4 + 4 + 8) + 5 * 8 + 2 * 8);
        for cut in 0..bytes.len() {
            assert!(RoundDigest::from_bytes(&bytes[..cut]).is_err(), "prefix {cut}");
        }
    }
}
