//! Node-side programming interface: what a CONGEST node sees and does.
//!
//! A protocol is a [`Program`] instantiated once per node. Each round the
//! engine hands every active program the messages received on its ports
//! during the previous round and collects the messages it wants to send.
//! Programs are plain state machines; all randomness must come from the
//! RNG handed to the factory so runs are reproducible.
//!
//! Delivery is *by reference*: a step reads its [`Inbox`] without taking
//! ownership of any payload, which is what lets a broadcast store its
//! payload once per sender (in the arena's broadcast slot) and fan out
//! pointers instead of clones. Programs that keep a message beyond the
//! step clone the payload explicitly.

use crate::arena::{PayloadArena, RoundDigest, Segment};
use crate::fault::{FaultDecision, FaultPlan};
use crate::graph::{DirectedEdgeId, Graph, NodeId, NodeIndex};
use crate::message::{WireMessage, WireParams};

/// Immutable per-node view of the network, as permitted by the CONGEST
/// model: own identity, neighbor identities (learnable in one round, so we
/// provide them upfront), and the global scalars `n` and `m`.
///
/// Exposing `n` and `m` is the standard "nodes know the graph size"
/// assumption; the paper's Phase 1 draws ranks from `[1, m²]`, and any
/// polynomial upper bound suffices for its analysis.
///
/// The view *borrows* the graph's CSR-aligned tables instead of owning
/// copies — instantiating `n` programs allocates nothing per node.
/// Programs that outlive the factory call copy what they keep (e.g.
/// `init.neighbor_ids.to_vec()`).
#[derive(Clone, Copy, Debug)]
pub struct NodeInit<'g> {
    /// Dense index of this node (simulator-internal; programs should key
    /// protocol logic on `id`, not `index`).
    pub index: NodeIndex,
    /// This node's place in the order the engine steps and stores nodes
    /// in: `index` itself, unless the graph's index order scatters
    /// neighbourhoods and in-process runs step in BFS order (see
    /// [`crate::graph::Graph::row_jump`]). A distributed worker steps in
    /// index order. Positions number `0..n`, and the executors' chunks
    /// are contiguous runs of them, so state a program's host keeps per
    /// node or per executor chunk in step order (the tester's node-state
    /// arena) keys off this, not `index`. Like `index`, it is no input
    /// to protocol logic.
    pub position: u32,
    /// Identity of this node.
    pub id: NodeId,
    /// Identities of neighbors, indexed by local port (a borrow of the
    /// graph's table).
    pub neighbor_ids: &'g [NodeId],
    /// Total number of nodes.
    pub n: usize,
    /// Total number of edges.
    pub m: usize,
}

impl NodeInit<'_> {
    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.neighbor_ids.len()
    }
}

/// One delivery of an [`InboxBuf`]: the receiver-side port and a
/// pointer to the payload in the buffer's own payload arena. 16 bytes
/// for every `M`. Not program-facing — programs read the resolved
/// [`Incoming`] view through an [`Inbox`]. Copying a packet copies the
/// pointer, never the payload.
pub(crate) struct Packet<M> {
    pub(crate) port: u32,
    pub(crate) msg: *const M,
}

impl<M> Clone for Packet<M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Packet<M> {}

// SAFETY: a packet hands its payload to a receiver on another thread
// (`M: Send`), and one payload can be read by several receivers at once
// (`M: Sync`). `WireMessage` requires both.
unsafe impl<M: Send + Sync> Send for Packet<M> {}
// SAFETY: same argument as Send — both are covered by the
// `M: Send + Sync` bound.
unsafe impl<M: Send + Sync> Sync for Packet<M> {}

/// A message delivered to a node, labeled with the local port it arrived
/// on. The payload is borrowed from the round's delivery buffers —
/// broadcast payloads are shared by every receiver — so reading an
/// inbox never clones.
#[derive(Debug)]
pub struct Incoming<'r, M> {
    /// Receiver-side port the message arrived on.
    pub port: u32,
    /// Payload (clone it to keep it beyond the step).
    pub msg: &'r M,
}

impl<M> Clone for Incoming<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Incoming<'_, M> {}

/// Everything a node received last round, in canonical delivery order:
/// ascending port, which is ascending sender index (a node's adjacency
/// row is sorted by neighbour index), one message per link. A cheap
/// borrowed view — copy it freely, iterate it as often as needed.
///
/// Under the engine it reads the receiver's own mailbox row, one entry
/// per port; an [`InboxBuf`]'s view has no row and lists its packets
/// in push order.
pub struct Inbox<'r, M> {
    /// The receiver's mailbox row: one entry per port, `None` where
    /// nothing arrived.
    row: &'r [Option<&'r M>],
    /// A harness buffer's deliveries, in push order (empty under the
    /// engine).
    packets: &'r [Packet<M>],
    /// Deliveries in all.
    len: u32,
}

impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Inbox<'_, M> {}

impl<'r, M> Inbox<'r, M> {
    /// Wraps a mailbox row (engine-internal): one payload pointer per
    /// port, null where nothing arrived.
    ///
    /// # Safety
    /// Every non-null pointer in `row` must be valid for `'r` and not
    /// written to while the view lives. The engine guarantees this by
    /// only building views over the *current* arena generation, whose
    /// broadcast slots and payload arenas are write-free for the whole
    /// read phase.
    pub(crate) unsafe fn from_mail(row: &'r [*const M]) -> Self {
        // `*const M` and `Option<&M>` share one layout, null being
        // `None`; the caller vouches for every non-null pointer.
        let row = std::slice::from_raw_parts(row.as_ptr().cast::<Option<&'r M>>(), row.len());
        let len = row.iter().filter(|m| m.is_some()).count();
        Inbox { row, packets: &[], len: len as u32 }
    }

    /// The empty inbox (what every node sees at round 0).
    pub fn empty() -> Self {
        Inbox { row: &[], packets: &[], len: 0 }
    }

    /// Number of messages delivered.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th delivery in canonical order (O(degree): the view
    /// walks its row).
    pub fn get(&self, i: usize) -> Option<Incoming<'r, M>> {
        self.iter().nth(i)
    }

    /// Iterates the deliveries in canonical order.
    pub fn iter(&self) -> InboxIter<'r, M> {
        InboxIter { row: self.row, port: 0, packets: self.packets, remaining: self.len }
    }
}

/// Iterator over an [`Inbox`]'s deliveries.
pub struct InboxIter<'r, M> {
    row: &'r [Option<&'r M>],
    /// The next row entry to look at.
    port: u32,
    packets: &'r [Packet<M>],
    remaining: u32,
}

impl<'r, M> Iterator for InboxIter<'r, M> {
    type Item = Incoming<'r, M>;

    fn next(&mut self) -> Option<Incoming<'r, M>> {
        if self.remaining == 0 {
            return None;
        }
        while let Some(&entry) = self.row.get(self.port as usize) {
            let port = self.port;
            self.port += 1;
            if let Some(msg) = entry {
                self.remaining -= 1;
                return Some(Incoming { port, msg });
            }
        }
        let (first, rest) = self.packets.split_first()?;
        self.packets = rest;
        self.remaining -= 1;
        // SAFETY: upheld by `InboxBuf::view`, the only source of
        // packets — the payload outlives the view and is not written
        // meanwhile.
        Some(Incoming { port: first.port, msg: unsafe { &*first.msg } })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl<M> ExactSizeIterator for InboxIter<'_, M> {}

impl<'r, M> IntoIterator for Inbox<'r, M> {
    type Item = Incoming<'r, M>;
    type IntoIter = InboxIter<'r, M>;
    fn into_iter(self) -> InboxIter<'r, M> {
        self.iter()
    }
}

impl<'r, M> IntoIterator for &Inbox<'r, M> {
    type Item = Incoming<'r, M>;
    type IntoIter = InboxIter<'r, M>;
    fn into_iter(self) -> InboxIter<'r, M> {
        self.iter()
    }
}

/// Owned delivery buffer for out-of-crate harnesses and reference
/// engines: fill it with `(port, message)` deliveries, hand the program
/// a view of it, which lists them in push order. Being a harness, it
/// accepts several deliveries on one port. It stores a packet per
/// delivery, pointing at its payload in the buffer's own payload
/// arena — and every packet points into that arena, so
/// [`InboxBuf::view`] is safe.
#[derive(Default)]
pub struct InboxBuf<M> {
    packets: Vec<Packet<M>>,
    /// The payloads `packets` point at; cleared with them.
    payloads: PayloadArena<M>,
}

impl<M> InboxBuf<M> {
    /// An empty buffer.
    pub fn new() -> Self {
        InboxBuf { packets: Vec::new(), payloads: PayloadArena::default() }
    }

    /// Appends a delivery (arrival on receiver-side `port`).
    pub fn push(&mut self, port: u32, msg: M) {
        let msg = self.payloads.push(msg);
        self.packets.push(Packet { port, msg });
    }

    /// Clears the buffer (dropping its payloads), keeping its capacity.
    pub fn clear(&mut self) {
        self.packets.clear();
        self.payloads.clear();
    }

    /// Number of buffered deliveries.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// The program-facing view of the buffered deliveries.
    pub fn view(&self) -> Inbox<'_, M> {
        // `push` is the only writer, and every packet it stores points
        // into `self.payloads`, whose blocks never move and which only
        // `clear` (under `&mut self`) empties — so the payloads outlive
        // this borrow and nothing writes them meanwhile, as the
        // iterator's dereference requires.
        Inbox { row: &[], packets: &self.packets, len: self.packets.len() as u32 }
    }
}

/// Where an [`Outbox`]'s sends go.
enum Sink<M> {
    /// Queue into an owned buffer — harnesses, tests, and reference
    /// engines consume it via [`Outbox::take_sends`].
    Buffered(Vec<(u32, M)>),
    /// Store straight into the link's mailbox slot of the next-round
    /// inbox arena, pricing every send into the round digest, checking
    /// it against the budget, and consulting the fault plan when one is
    /// set: one store per delivered message. Built only by the engines,
    /// one per node per round, on the stepping thread's stack.
    Direct(DirectSink<M>),
}

/// Round-invariant context shared by every node's direct sink; built
/// once per round on the engine's frame by `engine::sink_ctx`.
pub(crate) struct SinkCtx {
    /// The run's graph, for the receiver the fault plan is asked about.
    pub(crate) graph: *const Graph,
    pub(crate) params: *const WireParams,
    pub(crate) faults: *const FaultPlan,
    pub(crate) check_faults: bool,
    /// Enforced per-link bit budget; `u64::MAX` under `Measure`.
    pub(crate) limit: u64,
    pub(crate) round: u32,
}

// SAFETY: the context is shared by reference across worker threads; its
// pointers reference round-lived state (`graph`, `params`, `faults`)
// that is read-only for the whole round.
unsafe impl Sync for SinkCtx {}

/// Raw plumbing of the direct sink. Pointers are valid for the duration
/// of the one `Program::step` call the outbox is built for; the engine
/// guarantees that the sender's mailbox slots and segment are written
/// by no other thread meanwhile.
pub(crate) struct DirectSink<M> {
    /// The write arena's mailbox (one slot per directed edge,
    /// receiver-indexed; this sender writes only the slots of its own
    /// links) and the sender's chunk segment: its payload arena, where
    /// every payload that is not a broadcast moves. Only the thread
    /// stepping this chunk writes the segment.
    pub(crate) segment: Segment<M>,
    /// This sender's broadcast slot in the write arena (the slot of its
    /// step position), written by this outbox alone; last generation's
    /// occupant is evicted back to the program for recycling.
    pub(crate) slot: *mut Option<M>,
    /// Mailbox slot per local port (the step layout's reverse-edge
    /// row): a send on port `p` is stored at `rev_edges[p]`, in the
    /// receiver's row at the sender's port in the receiver's order.
    pub(crate) rev_edges: *const DirectedEdgeId,
    /// The executor chunk's round digest.
    pub(crate) acc: *mut RoundDigest,
    /// Shared round-invariant context.
    pub(crate) ctx: *const SinkCtx,
    /// The sender's node index: what the fault plan is asked about and
    /// what a bandwidth violation names.
    pub(crate) sender: NodeIndex,
    /// Links this step's lost sends occupy (see [`occupy_link`]); the
    /// outbox frees them when it drops.
    pub(crate) taken: u32,
}

/// Messages queued for sending in the current round.
pub struct Outbox<M> {
    sink: Sink<M>,
    degree: u32,
    /// Whether this step already broadcast: a second broadcast would
    /// put a second message on every link.
    slot_used: bool,
}

impl<M: WireMessage> Outbox<M> {
    /// Builds an inbox-writing outbox for one step call
    /// (engine-internal).
    ///
    /// # Safety
    /// `sink`'s pointers must be valid and exclusive for the outbox's
    /// lifetime: `segment` must hold the write arena's mailbox (whose
    /// slots at `rev_edges` no other thread touches meanwhile, all null
    /// when the outbox is built) and the sender's payload arena (written
    /// by no other thread meanwhile), `slot` the sender's broadcast slot
    /// of the write generation (unaliased), and `acc`/`ctx` live
    /// objects nobody else mutates during the call.
    pub(crate) unsafe fn direct(degree: u32, sink: DirectSink<M>) -> Self {
        Outbox { sink: Sink::Direct(sink), degree, slot_used: false }
    }

    /// Constructs a free-standing buffered outbox for out-of-crate
    /// harnesses and tests (reference engines, unit-testing a
    /// [`Program`] step in isolation). The engine builds its own
    /// outboxes internally.
    pub fn for_harness(degree: u32) -> Self {
        Outbox { sink: Sink::Buffered(Vec::new()), degree, slot_used: false }
    }

    /// Moves the queued `(port, message)` pairs out in queueing order,
    /// leaving an empty buffer — how a harness (e.g. the pre-arena
    /// reference engine kept for benchmarking) consumes what a step
    /// produced.
    ///
    /// # Panics
    /// Panics on an engine-internal direct outbox (those have no queue).
    pub fn take_sends(&mut self) -> Vec<(u32, M)> {
        match &mut self.sink {
            Sink::Buffered(v) => std::mem::take(v),
            // ck-lint: allow(no-panic, reason = "documented '# Panics' contract: harness-only API, misuse on a direct outbox is a programming error with no recoverable state")
            Sink::Direct(_) => panic!("take_sends requires a buffered outbox"),
        }
    }

    /// Sends `msg` on local port `port`.
    ///
    /// # Panics
    /// Panics if `port` is out of range, or if this step already sent
    /// on `port` (by `send` or [`Outbox::broadcast`]): a link carries
    /// one message per round under CONGEST. Both are protocol bugs, not
    /// runtime conditions. On the engine's sink the check is the
    /// mailbox slot itself; a message the fault plan drops, or whose
    /// tampered frame no longer decodes, still occupies its link until
    /// the step ends, so the rule holds under fault plans too.
    #[inline]
    pub fn send(&mut self, port: u32, msg: M) {
        assert!(port < self.degree, "send on port {port} of node with degree {}", self.degree);
        match &mut self.sink {
            Sink::Buffered(v) => {
                assert!(
                    v.iter().all(|&(p, _)| p != port),
                    "second message on port {port} in one round"
                );
                v.push((port, msg));
            }
            // SAFETY: pointer validity/exclusivity guaranteed by the
            // `Outbox::direct` contract, and `port < degree` was just
            // checked.
            Sink::Direct(d) => unsafe { direct_send(d, port, msg) },
        }
    }

    /// Sends `msg` on every port.
    ///
    /// Under the engine's direct sink the payload is stored **once** in
    /// this sender's broadcast slot of the write arena and every
    /// receiver's mailbox slot gets a pointer to it — no clone on
    /// either side of the wire, whatever the payload's size (small
    /// payloads travel by pointer too, not as inline copies). Wire
    /// accounting still charges every link the full message size, and
    /// delivery order is identical to `degree` targeted sends.
    ///
    /// Returns the payload evicted from the slot — the broadcast this
    /// sender parked **two rounds earlier** (same arena generation),
    /// which no receiver can still be reading. Slots are never cleared,
    /// so through a reused workspace (a [`crate::session::Session`] or
    /// [`crate::engine::EngineWorkspace`] run after another) a run's
    /// first broadcast of each generation may return a payload an
    /// earlier run parked. Protocols with heap-backed payloads reuse it
    /// as a spare backing; everyone else ignores it. Buffered (harness)
    /// outboxes clone per port instead (moving the last) and return
    /// `None`.
    ///
    /// # Panics
    /// Panics if this step already sent on any port (by
    /// [`Outbox::send`] or a broadcast), as `send` does: a link carries
    /// one message per round. A second broadcast panics before anything
    /// is parked. A node of degree 0 sends nothing, so its broadcasts
    /// never panic.
    pub fn broadcast(&mut self, msg: M) -> Option<M> {
        if self.degree == 0 {
            return None;
        }
        match &mut self.sink {
            Sink::Buffered(v) => {
                assert!(v.is_empty(), "broadcast after another message in one round");
                let last = self.degree - 1;
                v.reserve(self.degree as usize);
                for p in 0..last {
                    v.push((p, msg.clone()));
                }
                v.push((last, msg));
                None
            }
            Sink::Direct(d) => {
                assert!(!self.slot_used, "second broadcast in one round");
                self.slot_used = true;
                // SAFETY: the `Outbox::direct` contract — exclusive
                // segment, unaliased parked slot, live acc/ctx — holds
                // for the outbox's lifetime, and every port below
                // `degree` is in range.
                unsafe {
                    // The parked payload is identical on every link, so
                    // it is priced once.
                    let bits = msg.wire_bits(&*(*d.ctx).params);
                    let slot = &mut *d.slot;
                    let evicted = slot.replace(msg);
                    // ck-lint: allow(no-panic, reason = "replace() on the line above just stored a value, so the slot is Some")
                    let parked = slot.as_ref().expect("just parked");
                    for p in 0..self.degree {
                        match charge_send_bits(d, p, bits) {
                            SendFate::Deliver => inbox_push(d, p, parked),
                            SendFate::Dropped => occupy_link(d, p),
                            // A corrupted copy diverges from the parked
                            // payload, so it moves into the payload
                            // arena instead of pointing at the slot.
                            SendFate::Corrupt { entropy } => {
                                match corrupt_payload(d, parked, entropy) {
                                    Some(garbled) => file_payload(d, p, garbled),
                                    None => occupy_link(d, p),
                                }
                            }
                        }
                    }
                    evicted
                }
            }
        }
    }

    /// Number of ports available (the node's degree).
    pub fn degree(&self) -> u32 {
        self.degree
    }
}

impl<M> Drop for Outbox<M> {
    /// Ends the step on the engine's sink: the links its lost sends
    /// occupied are null again before any receiver reads them.
    fn drop(&mut self) {
        if let Sink::Direct(d) = &self.sink {
            if d.taken > 0 {
                for p in 0..self.degree as usize {
                    // SAFETY: the `Outbox::direct` contract holds until
                    // the outbox is gone: `rev_edges` has `degree`
                    // entries, and the sender's mailbox slots are
                    // written by no other thread meanwhile.
                    let cell = unsafe { &mut *d.segment.mail.add(*d.rev_edges.add(p) as usize) };
                    if std::ptr::eq(*cell, link_taken()) {
                        *cell = std::ptr::null();
                    }
                }
            }
        }
    }
}

/// Files one delivery of the payload at `ptr` in the link's mailbox
/// slot — the receiver's row, at the sender's position — with one
/// 8-byte store.
///
/// # Panics
/// If the slot already holds this round's message from this sender: a
/// link carries one message per round.
///
/// # Safety
/// See [`Outbox::direct`]; `port < degree`, and `ptr` is [`link_taken`]
/// or points at a payload of the same inbox-arena generation as
/// `d.segment`: the sender's parked broadcast slot or an entry of the
/// segment's payload arena.
#[inline(always)]
unsafe fn inbox_push<M>(d: &mut DirectSink<M>, port: u32, ptr: *const M) {
    let cell = &mut *d.segment.mail.add(*d.rev_edges.add(port as usize) as usize);
    assert!(cell.is_null(), "second message on port {port} in one round");
    *cell = ptr;
}

/// The mailbox entry of a link a lost send occupies: the address of
/// this static, which no payload has. No receiver reads it: the outbox
/// nulls it again when the step ends.
static LINK_TAKEN: u8 = 0;

fn link_taken<M>() -> *const M {
    std::ptr::addr_of!(LINK_TAKEN).cast()
}

/// Occupies the link of `port` for the rest of the step without
/// delivering anything: the fate of a send the fault plan dropped, or
/// whose tampered frame no longer decoded. A second message on the link
/// then panics as it would after a delivered one.
///
/// # Safety
/// As [`inbox_push`].
#[inline(always)]
unsafe fn occupy_link<M>(d: &mut DirectSink<M>, port: u32) {
    inbox_push(d, port, link_taken());
    d.taken += 1;
}

/// What the fault plan decided for one charged send, as seen by the
/// delivery paths: deliver the payload, forget it, or tamper with its
/// encoded frame first.
#[derive(Clone, Copy)]
enum SendFate {
    Deliver,
    Dropped,
    Corrupt { entropy: u64 },
}

/// Prices one send: feeds the round digest and checks the bandwidth
/// budget. A link carries one message per round, so its load is this
/// message and the budget applies to `b` itself. Nodes may step in any
/// order, so the digest keeps the violation of the lowest node index
/// (within one node, the first one its sends hit). Returns the message's
/// fate under the fault plan (the sender has already been charged
/// either way; per-kind drop counters land in the digest here). `b` is
/// the message's wire size, priced by the caller (per message for
/// targeted sends, once per broadcast).
///
/// # Safety
/// See [`Outbox::direct`], and `port < degree`.
#[inline(always)]
unsafe fn charge_send_bits<M>(d: &mut DirectSink<M>, port: u32, b: u64) -> SendFate {
    let ctx = &*d.ctx;
    let acc = &mut *d.acc;
    acc.messages += 1;
    acc.bits += b;
    if b > acc.max_message_bits {
        acc.max_message_bits = b;
    }
    if b > ctx.limit && acc.violation.is_none_or(|(node, ..)| d.sender < node) {
        acc.violation = Some((d.sender, port, b));
    }
    if !ctx.check_faults {
        return SendFate::Deliver;
    }
    let receiver = (*ctx.graph).neighbor_at(d.sender, port);
    match (*ctx.faults).decide(ctx.round, d.sender, receiver, port) {
        FaultDecision::Deliver => SendFate::Deliver,
        FaultDecision::Drop(kind) => {
            acc.drops_by_kind[kind.index()] += 1;
            SendFate::Dropped
        }
        FaultDecision::Corrupt { entropy } => SendFate::Corrupt { entropy },
    }
}

/// Resolves a [`SendFate::Corrupt`] into the payload that actually
/// arrives: the tampered frame's decode when it survives the codec
/// (counted as delivered garbage), or nothing (counted as a rejected
/// frame — one more way to lose a message).
///
/// # Safety
/// `d.ctx` and `d.acc` must be valid per the [`Outbox::direct`]
/// contract.
#[inline(always)]
unsafe fn corrupt_payload<M: WireMessage>(
    d: &mut DirectSink<M>,
    msg: &M,
    entropy: u64,
) -> Option<M> {
    let ctx = &*d.ctx;
    match msg.corrupt_frame(&*ctx.params, entropy) {
        Some(garbled) => {
            (*d.acc).corrupted_delivered += 1;
            Some(garbled)
        }
        None => {
            (*d.acc).corrupted_rejected += 1;
            None
        }
    }
}

/// Moves `msg` into the sender's segment's payload arena and files a
/// pointer to it in the link's mailbox slot.
///
/// # Safety
/// As [`inbox_push`]: `d.segment` is the sender's segment, written by
/// no other thread during the round.
#[inline(always)]
unsafe fn file_payload<M>(d: &mut DirectSink<M>, port: u32, msg: M) {
    let ptr = (*d.segment.payloads).push(msg);
    inbox_push(d, port, ptr);
}

/// The targeted send: prices `msg`, then files it — or, when the fault
/// plan loses it, occupies its link. One message move, no allocation
/// once the payload arena is warm.
///
/// # Safety
/// As [`inbox_push`].
#[inline(always)]
unsafe fn direct_send<M: WireMessage>(d: &mut DirectSink<M>, port: u32, msg: M) {
    let bits = msg.wire_bits(&*(*d.ctx).params);
    match charge_send_bits(d, port, bits) {
        SendFate::Deliver => file_payload(d, port, msg),
        SendFate::Dropped => occupy_link(d, port),
        SendFate::Corrupt { entropy } => match corrupt_payload(d, &msg, entropy) {
            Some(garbled) => file_payload(d, port, garbled),
            None => occupy_link(d, port),
        },
    }
}

/// Whether a node keeps participating after the current round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Keep stepping this node.
    Running,
    /// The node has produced its verdict and sends/receives nothing more.
    Halted,
}

/// A per-node protocol state machine.
///
/// `step` is called once per round with the inbox of the *previous* round
/// (empty at round 0) and must queue this round's sends into `out`. The
/// inbox hands payloads out by reference (broadcast payloads are shared
/// among all receivers); clone what you keep. The engine stops when
/// every node has halted or the round cap is hit.
pub trait Program: Send {
    /// Message type exchanged over edges.
    type Msg: WireMessage;
    /// Final output of a node (e.g. accept/reject).
    type Verdict: Send + Clone + 'static;

    /// Executes one synchronous round.
    fn step(
        &mut self,
        round: u32,
        inbox: Inbox<'_, Self::Msg>,
        out: &mut Outbox<Self::Msg>,
    ) -> Status;

    /// The node's output; meaningful once the node has halted, but callable
    /// at any time (the engine collects verdicts at run end).
    fn verdict(&self) -> Self::Verdict;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_send_and_broadcast() {
        let mut ob: Outbox<u64> = Outbox::for_harness(3);
        ob.send(2, 42);
        ob.send(0, 41);
        assert_eq!(ob.take_sends(), vec![(2, 42), (0, 41)], "queueing order");
        assert_eq!(ob.broadcast(7), None, "buffered outboxes have no slot to evict");
        assert_eq!(ob.take_sends(), vec![(0, 7), (1, 7), (2, 7)]);
    }

    #[test]
    #[should_panic(expected = "send on port 3")]
    fn outbox_rejects_bad_port() {
        let mut ob: Outbox<u64> = Outbox::for_harness(3);
        ob.send(3, 1);
    }

    /// Taking the queue ends a harness step: the next step may send on
    /// the same ports again.
    #[test]
    fn outbox_drain_and_take() {
        let mut ob: Outbox<u64> = Outbox::for_harness(2);
        ob.send(1, 8);
        assert_eq!(ob.take_sends(), vec![(1, 8)]);
        ob.broadcast(3);
        assert_eq!(ob.take_sends(), vec![(0, 3), (1, 3)]);
        ob.send(1, 1);
        assert_eq!(ob.take_sends(), vec![(1, 1)]);
    }

    #[test]
    fn broadcast_to_degree_zero_is_a_no_op() {
        let mut ob: Outbox<u64> = Outbox::for_harness(0);
        assert_eq!(ob.broadcast(9), None);
        assert!(ob.take_sends().is_empty());
    }

    #[test]
    fn inbox_buf_views_deliveries_in_order() {
        let mut buf: InboxBuf<u64> = InboxBuf::new();
        assert!(buf.view().is_empty());
        buf.push(2, 20);
        buf.push(0, 10);
        let view = buf.view();
        assert_eq!(view.len(), 2);
        let got: Vec<(u32, u64)> = view.iter().map(|inc| (inc.port, *inc.msg)).collect();
        assert_eq!(got, vec![(2, 20), (0, 10)]);
        // The view is Copy and re-iterable.
        assert_eq!(view.iter().len(), 2);
        assert_eq!(view.get(1).map(|inc| *inc.msg), Some(10));
        assert_eq!(view.get(2).map(|inc| *inc.msg), None);
        buf.clear();
        assert!(buf.is_empty());
        assert!(Inbox::<u64>::empty().is_empty());
        // Refills past several payload blocks still view every delivery.
        for round in 0..3u64 {
            buf.clear();
            for i in 0..300u64 {
                buf.push((i % 7) as u32, round * 1000 + i);
            }
            let got: Vec<(u32, u64)> = buf.view().iter().map(|inc| (inc.port, *inc.msg)).collect();
            let want: Vec<(u32, u64)> =
                (0..300u64).map(|i| ((i % 7) as u32, round * 1000 + i)).collect();
            assert_eq!(got, want, "refill {round}");
        }
    }

    /// An inbox buffer's packet is a port and a pointer whatever the
    /// payload's size: a 56-byte payload (the tester's message) and a
    /// `u64` both travel in 16 bytes.
    #[test]
    fn packets_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Packet<[u8; 56]>>(), 16);
        assert_eq!(std::mem::size_of::<Packet<u64>>(), 16);
    }
}
