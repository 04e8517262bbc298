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
//! shared refs instead of clones. Programs that keep a message beyond
//! the step clone the payload explicitly.

use crate::arena::{LinkLoad, RoundAcc};
use crate::fault::{FaultDecision, FaultPlan};
use crate::graph::{NodeId, NodeIndex};
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
    /// Identity of this node.
    pub id: NodeId,
    /// Identities of neighbors, indexed by local port (a borrow of the
    /// graph's table).
    pub neighbor_ids: &'g [NodeId],
    /// Local ports permuted into ascending-neighbor-identity order; the
    /// index behind [`NodeInit::port_of_neighbor`]'s binary search.
    /// Hand-built views (tests, harnesses) may leave this empty to fall
    /// back to a linear scan.
    pub ports_by_id: &'g [u32],
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

    /// Local port towards the neighbor with identity `id`, if adjacent:
    /// O(log degree) via the identity-sorted port permutation (linear
    /// scan when a hand-built view did not supply one).
    pub fn port_of_neighbor(&self, id: NodeId) -> Option<u32> {
        if self.ports_by_id.len() == self.neighbor_ids.len() {
            debug_assert!(
                self.ports_by_id
                    .windows(2)
                    // ck-lint: allow(index-literal, reason = "windows(2) yields exactly-two-element slices, so w[0]/w[1] cannot be out of bounds")
                    .all(|w| self.neighbor_ids[w[0] as usize] < self.neighbor_ids[w[1] as usize]),
                "ports_by_id must permute ports into ascending-neighbor-identity order"
            );
            self.ports_by_id
                .binary_search_by_key(&id, |&p| self.neighbor_ids[p as usize])
                .ok()
                .map(|i| self.ports_by_id[i])
        } else {
            self.neighbor_ids.iter().position(|&x| x == id).map(|p| p as u32)
        }
    }
}

/// Transport form of one delivered message, as stored in the inbox
/// arena's per-receiver boxes. Not program-facing — programs read the
/// resolved [`Incoming`] view through an [`Inbox`].
pub(crate) enum Packet<M> {
    /// A targeted send: payload inline, labeled with the receiver-side
    /// port.
    Own { port: u32, msg: M },
    /// A broadcast delivery: the payload lives *once* in its sender's
    /// broadcast slot of the same arena generation; `msg` points at it.
    /// Valid exactly as long as that generation's slots are (one full
    /// read phase) — [`Inbox::from_packets`] is the checkpoint where the
    /// engine vouches for that.
    Shared { port: u32, msg: *const M },
}

// SAFETY: `Own` payloads move between threads (`M: Send`); `Shared`
// payloads are read concurrently by every receiver of a broadcast
// (`M: Sync`). `WireMessage` requires both.
unsafe impl<M: Send + Sync> Send for Packet<M> {}
// SAFETY: same argument as Send — both variants are covered by the
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
/// ascending sender identity-order port, then the sender's queueing
/// order. A cheap borrowed view — copy it freely, iterate it as often
/// as needed.
pub struct Inbox<'r, M> {
    packets: &'r [Packet<M>],
}

impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Inbox<'_, M> {}

impl<'r, M> Inbox<'r, M> {
    /// Wraps raw delivery packets (engine-internal).
    ///
    /// # Safety
    /// Every [`Packet::Shared`] pointer in `packets` must be valid for
    /// `'r` and not written to while the view lives. The engine
    /// guarantees this by only building views over the *current* arena
    /// generation, whose broadcast slots are write-free for the whole
    /// read phase.
    pub(crate) unsafe fn from_packets(packets: &'r [Packet<M>]) -> Self {
        Inbox { packets }
    }

    /// The empty inbox (what every node sees at round 0).
    pub fn empty() -> Self {
        Inbox { packets: &[] }
    }

    /// Number of messages delivered.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// The `i`-th delivery in canonical order.
    pub fn get(&self, i: usize) -> Option<Incoming<'r, M>> {
        self.packets.get(i).map(resolve)
    }

    /// Iterates the deliveries in canonical order.
    pub fn iter(&self) -> InboxIter<'r, M> {
        InboxIter { inner: self.packets.iter() }
    }
}

/// Resolves a packet to its program-facing view.
fn resolve<'r, M>(p: &'r Packet<M>) -> Incoming<'r, M> {
    match p {
        Packet::Own { port, msg } => Incoming { port: *port, msg },
        // SAFETY: upheld by `Inbox::from_packets` — the slot the pointer
        // targets outlives the view and is not written meanwhile.
        Packet::Shared { port, msg } => Incoming { port: *port, msg: unsafe { &**msg } },
    }
}

/// Iterator over an [`Inbox`]'s deliveries.
pub struct InboxIter<'r, M> {
    inner: std::slice::Iter<'r, Packet<M>>,
}

impl<'r, M> Iterator for InboxIter<'r, M> {
    type Item = Incoming<'r, M>;

    fn next(&mut self) -> Option<Incoming<'r, M>> {
        self.inner.next().map(resolve)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
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
/// a view of it. Its public API only ever stores inline payloads, so
/// [`InboxBuf::view`] is safe.
#[derive(Default)]
pub struct InboxBuf<M> {
    packets: Vec<Packet<M>>,
}

impl<M> InboxBuf<M> {
    /// An empty buffer.
    pub fn new() -> Self {
        InboxBuf { packets: Vec::new() }
    }

    /// Appends a delivery (arrival on receiver-side `port`).
    pub fn push(&mut self, port: u32, msg: M) {
        self.packets.push(Packet::Own { port, msg });
    }

    /// Clears the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.packets.clear();
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
        // SAFETY: `push` is the only public writer and stores
        // `Packet::Own` exclusively — no Shared pointer can exist here.
        unsafe { Inbox::from_packets(&self.packets) }
    }
}

/// Where an [`Outbox`]'s sends go.
enum Sink<M> {
    /// Queue into an owned buffer — harnesses, tests, and reference
    /// engines consume it via [`Outbox::drain_sends`]/[`Outbox::take_sends`].
    Buffered(Vec<(u32, M)>),
    /// Push straight into the receiver's box in the sender's segment of
    /// the next-round inbox arena: no wire counters and no fault checks
    /// — chosen by the engine when neither can be observed (no round
    /// recording, no bandwidth cap, no fault plan). Built only by the
    /// engines, one per node per round, on the stepping thread's stack.
    DirectInbox(DirectSink),
    /// As `DirectInbox`, with the wire accounting, bandwidth check and
    /// fault decision fused into each send: one push per delivered
    /// message, wire loads in the flat table.
    DirectInboxHeavy(DirectSink),
}

/// How the engine wants sends routed this round. Both modes push into
/// the sender's segment of the next-round inbox arena; they differ only
/// in whether the wire is observed.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum SinkMode {
    /// Counter-free path: nothing can observe the wire.
    FastInbox,
    /// Accounting/fault path: recorded rounds, an enforced budget, or a
    /// fault plan.
    HeavyInbox,
}

/// Round-invariant context shared by every node's direct sink; built
/// once per round on the engine's frame.
pub(crate) struct SinkCtx {
    pub(crate) params: *const WireParams,
    pub(crate) faults: *const FaultPlan,
    pub(crate) check_faults: bool,
    /// False when neither round recording nor bandwidth enforcement can
    /// observe the wire counters — the send path then skips them. When
    /// true the engine has allocated the flat load table and every
    /// `DirectSink::loads` row pointer is valid.
    pub(crate) account: bool,
    /// Enforced per-link bit budget; `u64::MAX` under `Measure`.
    pub(crate) limit: u64,
    pub(crate) round: u32,
    /// The round's offset-space load stamp (`LoadTable::stamp_for`):
    /// per-run epochs keep stale entries from colliding with restarted
    /// round numbers, so workspaces never scan the table to reset it.
    pub(crate) stamp: u64,
}

// SAFETY: the context is shared by reference across worker threads; its
// pointers reference round-lived state (`params`, `faults`) that is
// read-only for the whole round.
unsafe impl Sync for SinkCtx {}

/// Raw plumbing of the direct sink. Pointers are valid for the duration
/// of the one `Program::step` call the outbox is built for; the engine
/// guarantees the sender's segment is written by no other thread
/// meanwhile.
pub(crate) struct DirectSink {
    /// Base of the sender's chunk segment in the write arena: one box
    /// per receiver, indexed by receiver node (`*mut Vec<Packet<M>>`,
    /// type-erased here and re-typed in the send path where `M` is
    /// known). Only the thread stepping this chunk writes the segment.
    pub(crate) inboxes: *mut (),
    /// Base of the write arena's per-node broadcast slot array
    /// (`*mut Option<M>` type-erased). Slot `sender` is written by this
    /// outbox alone; last generation's occupant is evicted back to the
    /// program for recycling.
    pub(crate) slots: *mut (),
    /// Receiver node index per local port (the graph's neighbor row).
    pub(crate) receivers: *const NodeIndex,
    /// Receiver-side port per local port (the graph's rev-port row);
    /// messages land in the boxes pre-labeled for delivery.
    pub(crate) rev_ports: *const u32,
    /// The executor-chunk round accumulator.
    pub(crate) acc: *mut RoundAcc,
    /// Base of this sender's row in the flat per-directed-edge load
    /// table (indexed by local port). Valid iff the context's `account`
    /// is set — the engine allocates the table whenever the wire
    /// counters are observable, and `charge_send` only reads this field
    /// under that flag (dangling otherwise).
    pub(crate) loads: *mut LinkLoad,
    /// Shared round-invariant context.
    pub(crate) ctx: *const SinkCtx,
    pub(crate) sender: NodeIndex,
}

/// Messages queued for sending in the current round.
pub struct Outbox<M> {
    sink: Sink<M>,
    degree: u32,
    queued: u32,
    /// Whether this step already parked a payload in the broadcast slot
    /// (only the first broadcast per step can; later ones clone per
    /// port like targeted sends).
    slot_used: bool,
}

impl<M: WireMessage> Outbox<M> {
    pub(crate) fn new(degree: u32) -> Self {
        Outbox { sink: Sink::Buffered(Vec::new()), degree, queued: 0, slot_used: false }
    }

    /// Builds an inbox-writing outbox for one step call
    /// (engine-internal); see [`SinkMode`] for the two routings.
    ///
    /// # Safety
    /// `sink`'s pointers must be valid and exclusive for the outbox's
    /// lifetime: `inboxes` must point at the sender's segment of the
    /// write arena (`*mut Vec<Packet<M>>`, one box per receiver, written
    /// by no other thread meanwhile), `slots` at the write generation's
    /// `Option<M>` slot array (slot `sender` unaliased), `loads` at the
    /// sender's load row whenever the mode accounts, and `acc`/`ctx` at
    /// live objects nobody else mutates during the call.
    pub(crate) unsafe fn direct(degree: u32, sink: DirectSink, mode: SinkMode) -> Self {
        let sink = match mode {
            SinkMode::FastInbox => Sink::DirectInbox(sink),
            SinkMode::HeavyInbox => Sink::DirectInboxHeavy(sink),
        };
        Outbox { sink, degree, queued: 0, slot_used: false }
    }

    /// Constructs a free-standing buffered outbox for out-of-crate
    /// harnesses and tests (reference engines, unit-testing a
    /// [`Program`] step in isolation). The engine builds its own
    /// outboxes internally.
    pub fn for_harness(degree: u32) -> Self {
        Outbox::new(degree)
    }

    /// Drains the queued `(port, message)` pairs in queueing order —
    /// how a harness consumes what a step produced.
    ///
    /// # Panics
    /// Panics on an engine-internal direct outbox (those have no queue).
    pub fn drain_sends(&mut self) -> std::vec::Drain<'_, (u32, M)> {
        self.queued = 0;
        match &mut self.sink {
            Sink::Buffered(v) => v.drain(..),
            // ck-lint: allow(no-panic, reason = "documented '# Panics' contract: harness-only API, misuse on a direct outbox is a programming error with no recoverable state")
            _ => panic!("drain_sends requires a buffered outbox"),
        }
    }

    /// Moves the queued sends out, leaving an empty buffer. For
    /// harnesses that want ownership (e.g. the pre-arena reference
    /// engine kept for benchmarking).
    ///
    /// # Panics
    /// Panics on an engine-internal direct outbox (those have no queue).
    pub fn take_sends(&mut self) -> Vec<(u32, M)> {
        self.queued = 0;
        match &mut self.sink {
            Sink::Buffered(v) => std::mem::take(v),
            // ck-lint: allow(no-panic, reason = "documented '# Panics' contract: harness-only API, misuse on a direct outbox is a programming error with no recoverable state")
            _ => panic!("take_sends requires a buffered outbox"),
        }
    }

    /// Sends `msg` on local port `port`.
    ///
    /// # Panics
    /// Panics if `port` is out of range — that is a protocol bug, not a
    /// runtime condition.
    #[inline]
    pub fn send(&mut self, port: u32, msg: M) {
        assert!(port < self.degree, "send on port {port} of node with degree {}", self.degree);
        self.queued += 1;
        match &mut self.sink {
            Sink::Buffered(v) => v.push((port, msg)),
            // SAFETY: pointer validity/exclusivity guaranteed by the
            // `Outbox::direct` contract; `inboxes` was erased from
            // `*mut Vec<Packet<M>>` for this same `M`.
            Sink::DirectInbox(d) => unsafe { direct_send_inbox(d, port, msg) },
            // SAFETY: as above.
            Sink::DirectInboxHeavy(d) => unsafe { direct_send_inbox_heavy(d, port, msg) },
        }
    }

    /// Sends `msg` on every port.
    ///
    /// Under the engine's direct sinks the payload is stored **once** in
    /// this sender's broadcast slot of the write arena and every
    /// receiver's box gets a lightweight shared ref — no clone on either
    /// side of the wire. Wire accounting still charges every link the
    /// full message size, and delivery order is identical to `degree`
    /// targeted sends.
    ///
    /// Returns the payload evicted from the slot — the broadcast this
    /// sender parked **two rounds earlier** (same arena generation),
    /// which no receiver can still be reading. Protocols with pooled
    /// payloads recycle it; everyone else ignores it. Buffered
    /// (harness) outboxes clone per port instead (moving the last) and
    /// return `None`, as does a second broadcast within one step, which
    /// falls back to per-port clones because the slot is taken.
    pub fn broadcast(&mut self, msg: M) -> Option<M> {
        self.queued += self.degree;
        if self.degree == 0 {
            return None;
        }
        // SAFETY (all direct arms): as in `send` — every port is in
        // range by definition, slot `sender` is unaliased per the
        // `Outbox::direct` contract, and the closures only forward to
        // the send/charge/fan helpers under that same contract. The
        // payload's wire size is computed once per broadcast (the
        // parked payload is identical on every link) and only when the
        // accounting path will read it.
        match &mut self.sink {
            Sink::Buffered(v) => {
                let last = self.degree - 1;
                v.reserve(self.degree as usize);
                for p in 0..last {
                    v.push((p, msg.clone()));
                }
                v.push((last, msg));
                None
            }
            // SAFETY: the DirectSink contract — exclusive segment,
            // unaliased parked slot, live acc/ctx — was established by
            // the `unsafe` `Outbox::direct` constructor and holds for
            // the outbox's lifetime.
            Sink::DirectInbox(d) => unsafe {
                direct_broadcast(
                    &mut self.slot_used,
                    self.degree,
                    d,
                    msg,
                    |d, p, m| direct_send_inbox(d, p, m),
                    |d, p, ptr| inbox_push_bcast(d, p, ptr),
                )
            },
            // SAFETY: same DirectSink contract as the arm above.
            Sink::DirectInboxHeavy(d) => unsafe {
                let bits = account_bits(d, &msg);
                direct_broadcast(
                    &mut self.slot_used,
                    self.degree,
                    d,
                    msg,
                    |d, p, m| direct_send_inbox_heavy(d, p, m),
                    |d, p, ptr| match charge_send_bits(d, p, bits) {
                        SendFate::Deliver => inbox_push_bcast(d, p, ptr),
                        SendFate::Dropped => {}
                        SendFate::Corrupt { entropy } => {
                            // A corrupted copy diverges from the parked
                            // payload, so it travels inline instead of
                            // as a shared slot ref.
                            if let Some(garbled) = corrupt_payload(d, &*ptr, entropy) {
                                direct_send_inbox(d, p, garbled);
                            }
                        }
                    },
                )
            },
        }
    }

    /// Number of messages queued so far this round.
    pub fn queued(&self) -> usize {
        self.queued as usize
    }

    /// Number of ports available (the node's degree).
    pub fn degree(&self) -> u32 {
        self.degree
    }
}

/// Whether broadcasts of `M` deliver inline copies instead of shared
/// refs: when the payload is no bigger than the pointer-sized `Shared`
/// packet body, an owned copy costs the same box space as a ref and
/// spares every receiver the slot indirection (a cache miss on a
/// random sender's slot). Heavy payloads — anything owning heap memory
/// is bigger than this — always share. Monomorphizes to a constant, so
/// each instantiation compiles to a single path.
#[inline(always)]
fn broadcast_inline<M>() -> bool {
    std::mem::size_of::<M>() <= 2 * std::mem::size_of::<*const ()>()
}

/// The payload's wire size if this sink's context will account it,
/// else 0 (never read): lets a broadcast price its payload once instead
/// of once per port.
///
/// # Safety
/// `d.ctx` must be valid per the [`Outbox::direct`] contract.
#[inline(always)]
unsafe fn account_bits<M: WireMessage>(d: &DirectSink, msg: &M) -> u64 {
    let ctx = &*d.ctx;
    if ctx.account {
        msg.wire_bits(&*ctx.params)
    } else {
        0
    }
}

/// The shared driver of every direct-sink broadcast: the slot path for
/// the first broadcast of a step (park once, fan out via `fan_one`,
/// return the evicted previous generation's payload), or the per-port
/// clone fallback via `send_one` when the slot is already taken.
///
/// # Safety
/// See [`Outbox::direct`]; `degree ≥ 1`, and the callbacks must uphold
/// the same contract as the send helpers they wrap.
#[inline(always)]
unsafe fn direct_broadcast<M: Clone>(
    slot_used: &mut bool,
    degree: u32,
    d: &mut DirectSink,
    msg: M,
    mut send_one: impl FnMut(&mut DirectSink, u32, M),
    mut fan_one: impl FnMut(&mut DirectSink, u32, *const M),
) -> Option<M> {
    if *slot_used {
        let last = degree - 1;
        for p in 0..last {
            send_one(d, p, msg.clone());
        }
        send_one(d, last, msg);
        return None;
    }
    *slot_used = true;
    let (evicted, ptr) = slot_park(d, msg);
    for p in 0..degree {
        fan_one(d, p, ptr);
    }
    evicted
}

/// Parks a broadcast payload in this sender's slot of the write
/// generation, returning the evicted previous occupant and a pointer to
/// the parked payload (stable: the slot array never reallocates).
///
/// # Safety
/// See [`Outbox::direct`] — `d.slots` must be the write generation's
/// slot array with slot `d.sender` unaliased for the outbox's lifetime.
#[inline(always)]
unsafe fn slot_park<M>(d: &DirectSink, msg: M) -> (Option<M>, *const M) {
    let slot = &mut *(d.slots as *mut Option<M>).add(d.sender as usize);
    let evicted = slot.replace(msg);
    // ck-lint: allow(no-panic, reason = "replace() on the line above just stored a value, so the slot is Some")
    let ptr: *const M = slot.as_ref().expect("just parked") as *const M;
    (evicted, ptr)
}

/// Pushes one broadcast delivery straight into the receiver's box in
/// the sender's segment: an inline copy for pointer-sized payloads
/// (see [`broadcast_inline`]), a shared ref into the sender's parked
/// slot otherwise.
///
/// # Safety
/// As [`direct_send_inbox`], with `ptr` pointing at the parked payload
/// of the same inbox-arena generation as `d.inboxes`.
#[inline(always)]
unsafe fn inbox_push_bcast<M: Clone>(d: &mut DirectSink, port: u32, ptr: *const M) {
    let w = *d.receivers.add(port as usize);
    let rev = *d.rev_ports.add(port as usize);
    let inbox = &mut *(d.inboxes as *mut Vec<Packet<M>>).add(w as usize);
    if broadcast_inline::<M>() {
        inbox.push(Packet::Own { port: rev, msg: (*ptr).clone() });
    } else {
        inbox.push(Packet::Shared { port: rev, msg: ptr });
    }
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

/// The shared half of the heavy send paths: stamp/advance this link's
/// load, feed the round accumulator, check the bandwidth budget.
/// Returns the message's fate under the fault plan (the sender has
/// already been charged either way; per-kind drop counters land in the
/// accumulator here). `b` is the message's wire size, priced by the
/// caller (per message for targeted sends, once per broadcast); it is
/// only read when the context accounts.
///
/// # Safety
/// See [`Outbox::direct`] — when the context accounts, `d.loads` must
/// be the sender's valid load row — and `port < degree`.
#[inline(always)]
unsafe fn charge_send_bits(d: &mut DirectSink, port: u32, b: u64) -> SendFate {
    let ctx = &*d.ctx;
    if ctx.account {
        let load = &mut *d.loads.add(port as usize);
        if load.stamp != ctx.stamp {
            // First traffic on this link this round (or an entry stale
            // from an earlier round *or an earlier run* — the epoch
            // offset makes both unmistakable): the counters are
            // semantically zero, re-stamp instead of ever scanning to
            // reset.
            load.bits = 0;
            load.count = 0;
            load.stamp = ctx.stamp;
        }
        load.count += 1;
        let acc = &mut *d.acc;
        acc.messages += 1;
        acc.bits += b;
        if b > acc.max_message_bits {
            acc.max_message_bits = b;
        }
        load.bits += b;
        if load.bits > acc.max_link_bits {
            acc.max_link_bits = load.bits;
        }
        if load.count > acc.max_link_messages {
            acc.max_link_messages = load.count;
        }
        if load.bits > ctx.limit && acc.violation.is_none() {
            acc.violation = Some((d.sender, port, load.bits));
        }
    }
    if !ctx.check_faults {
        return SendFate::Deliver;
    }
    // The heavy paths are the only callers, and the engine forces a
    // heavy sink whenever a fault plan is active, so `d.acc` is always
    // live here even when `account` is off.
    let receiver = *d.receivers.add(port as usize);
    match (*ctx.faults).decide(ctx.round, d.sender, receiver, port) {
        FaultDecision::Deliver => SendFate::Deliver,
        FaultDecision::Drop(kind) => {
            (*d.acc).drops_by_kind[kind.index()] += 1;
            SendFate::Dropped
        }
        FaultDecision::Corrupt { entropy } => SendFate::Corrupt { entropy },
    }
}

/// [`charge_send_bits`] with the wire size priced here — the targeted
/// send form.
///
/// # Safety
/// As [`charge_send_bits`].
#[inline(always)]
unsafe fn charge_send<M: WireMessage>(d: &mut DirectSink, port: u32, msg: &M) -> SendFate {
    let b = account_bits(d, msg);
    charge_send_bits(d, port, b)
}

/// Resolves a [`SendFate::Corrupt`] into the payload that actually
/// arrives: the tampered frame's decode when it survives the codec
/// (counted as delivered garbage), or nothing (counted as a rejected
/// frame — one more way to lose a message).
///
/// # Safety
/// `d.ctx` and `d.acc` must be valid per the [`Outbox::direct`]
/// contract (corruption implies an active fault plan, which forces a
/// heavy sink with a live accumulator).
#[inline(always)]
unsafe fn corrupt_payload<M: WireMessage>(d: &mut DirectSink, msg: &M, entropy: u64) -> Option<M> {
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

/// The counter-free write path (see `Sink::DirectInbox`): one push
/// straight into the receiver's box in the sender's segment.
///
/// # Safety
/// See [`Outbox::direct`] — `d.inboxes` is the sender's segment, written
/// by no other thread during the round — and `port < degree` was
/// checked by the caller.
#[inline(always)]
unsafe fn direct_send_inbox<M: WireMessage>(d: &mut DirectSink, port: u32, msg: M) {
    let w = *d.receivers.add(port as usize);
    let rev = *d.rev_ports.add(port as usize);
    let inbox = &mut *(d.inboxes as *mut Vec<Packet<M>>).add(w as usize);
    inbox.push(Packet::Own { port: rev, msg });
}

/// The accounted write path (see `Sink::DirectInboxHeavy`): accounting,
/// bandwidth check, fault decision, then one push into the receiver's
/// box — one message move, no allocation once the box is warm.
///
/// # Safety
/// As [`direct_send_inbox`], plus `d.loads` must be the sender's valid
/// load row.
#[inline(always)]
unsafe fn direct_send_inbox_heavy<M: WireMessage>(d: &mut DirectSink, port: u32, msg: M) {
    match charge_send(d, port, &msg) {
        SendFate::Deliver => direct_send_inbox(d, port, msg),
        SendFate::Dropped => {}
        SendFate::Corrupt { entropy } => {
            if let Some(garbled) = corrupt_payload(d, &msg, entropy) {
                direct_send_inbox(d, port, garbled);
            }
        }
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

    /// End-of-run recycling hook: receives this sender's broadcast
    /// payloads still parked in the engine's double-buffered slots when
    /// the run ends (at most one per arena generation — the ones no
    /// later broadcast evicted back through
    /// [`Outbox::broadcast`]'s return value). Programs that pool their
    /// payload backings reclaim them here; without the hook the
    /// engine's next workspace reset would drop them, shrinking the
    /// pool by up to two buffers per node per run and defeating
    /// steady-state allocation freedom. The default does nothing.
    fn reclaim_msg(&mut self, msg: Self::Msg) {
        let _ = msg;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_send_and_broadcast() {
        let mut ob: Outbox<u64> = Outbox::new(3);
        ob.send(0, 42);
        assert_eq!(ob.broadcast(7), None, "buffered outboxes have no slot to evict");
        assert_eq!(ob.queued(), 4);
        let sends: Vec<(u32, u64)> = ob.drain_sends().collect();
        assert_eq!(sends, vec![(0, 42), (0, 7), (1, 7), (2, 7)]);
    }

    #[test]
    #[should_panic(expected = "send on port 3")]
    fn outbox_rejects_bad_port() {
        let mut ob: Outbox<u64> = Outbox::new(3);
        ob.send(3, 1);
    }

    #[test]
    fn node_init_port_lookup() {
        // With the identity-sorted permutation: binary-search path.
        let init = NodeInit {
            index: 0,
            id: 5,
            neighbor_ids: &[9, 2, 7],
            ports_by_id: &[1, 2, 0],
            n: 4,
            m: 3,
        };
        assert_eq!(init.degree(), 3);
        assert_eq!(init.port_of_neighbor(2), Some(1));
        assert_eq!(init.port_of_neighbor(9), Some(0));
        assert_eq!(init.port_of_neighbor(7), Some(2));
        assert_eq!(init.port_of_neighbor(5), None);
        // Without it: linear fallback gives identical answers.
        let plain = NodeInit { ports_by_id: &[], ..init };
        for id in [2, 9, 7, 5, 0] {
            assert_eq!(plain.port_of_neighbor(id), init.port_of_neighbor(id));
        }
    }

    #[test]
    fn outbox_drain_and_take() {
        let mut ob: Outbox<u64> = Outbox::for_harness(2);
        ob.send(1, 8);
        ob.broadcast(3);
        let drained: Vec<(u32, u64)> = ob.drain_sends().collect();
        assert_eq!(drained, vec![(1, 8), (0, 3), (1, 3)]);
        assert_eq!(ob.queued(), 0);
        ob.send(0, 1);
        assert_eq!(ob.take_sends(), vec![(0, 1)]);
        assert_eq!(ob.queued(), 0);
    }

    #[test]
    fn broadcast_to_degree_zero_is_a_no_op() {
        let mut ob: Outbox<u64> = Outbox::for_harness(0);
        assert_eq!(ob.broadcast(9), None);
        assert_eq!(ob.queued(), 0);
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
    }
}
