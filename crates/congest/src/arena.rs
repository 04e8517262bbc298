//! Shared internals of the arena engine: the double-buffered CSR
//! mailbox arena with its per-segment payload arenas, and the per-round
//! digest the fused accounting feeds and every executor closes its
//! rounds with. Split out of `engine` so the node-side
//! [`crate::node::Outbox`] can write straight into mailboxes without a
//! module cycle.

use std::cell::UnsafeCell;
use std::ops::Range;

use crate::engine::{EngineConfig, EngineError};
use crate::fault::DropKind;
use crate::graph::{DirectedEdgeId, NodeIndex};
use crate::metrics::{RoundStats, RunReport};
use crate::net::frame::{ByteReader, ByteWriter, FrameError};

/// Owned payloads of one inbox segment, in address-stable blocks.
///
/// A targeted send moves its payload in here and the receiver's mailbox
/// slot points at it. Blocks are never resized: a full
/// block is followed by a new one twice its size, so a pushed payload
/// never moves until [`PayloadArena::clear`] drops it. `clear` keeps
/// the blocks, so a refill of the same size allocates nothing.
pub(crate) struct PayloadArena<M> {
    blocks: Vec<Vec<M>>,
    /// The block being filled; every block before it is full, every
    /// block after it empty.
    cur: usize,
}

/// Capacity of a payload arena's first block, in payloads.
const FIRST_BLOCK: usize = 64;

impl<M> Default for PayloadArena<M> {
    fn default() -> Self {
        PayloadArena { blocks: Vec::new(), cur: 0 }
    }
}

impl<M> PayloadArena<M> {
    /// Moves `msg` into the arena and returns its address, valid until
    /// the next [`PayloadArena::clear`].
    pub(crate) fn push(&mut self, msg: M) -> *const M {
        loop {
            if let Some(block) = self.blocks.get_mut(self.cur) {
                let i = block.len();
                if i < block.capacity() {
                    // Within capacity: the push never reallocates, so
                    // the payloads already in the block stay put.
                    block.push(msg);
                    return block.as_ptr().wrapping_add(i);
                }
                self.cur += 1;
            } else {
                let cap =
                    self.blocks.last().map_or(FIRST_BLOCK, |b| b.capacity().saturating_mul(2));
                self.blocks.push(Vec::with_capacity(cap));
            }
        }
    }

    /// Drops every payload and keeps the blocks. Nothing may still
    /// point into the arena.
    pub(crate) fn clear(&mut self) {
        for block in self.blocks.iter_mut().take(self.cur + 1) {
            block.clear();
        }
        self.cur = 0;
    }
}

/// Write handle of one segment of an [`InboxArena`], for the outbox's
/// direct sink: the base of the generation's mailbox (shared by every
/// segment) and the segment's own payload arena.
pub(crate) struct Segment<M> {
    pub(crate) mail: *mut *const M,
    pub(crate) payloads: *mut PayloadArena<M>,
}

impl<M> Clone for Segment<M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Segment<M> {}

/// Double-buffered CSR mailboxes: the message arena of every executor.
///
/// A generation's *mailbox* holds one payload pointer per directed
/// edge, indexed on the receiver's side: a message sent on `(v, p)` is
/// stored at the reverse directed edge, which lies in the row of `v`'s
/// neighbour `w`, at `v`'s place in `w`'s port order. The rows are
/// those of the run's step order — by node index, where the reverse is
/// [`Graph::reverse_edge`](crate::graph::Graph::reverse_edge)`(v, p)`,
/// or by BFS position, each row keeping its node's port order — and
/// the per-node broadcast slots follow the same order. Receiver `w`'s
/// deliveries therefore sit in its own
/// contiguous CSR row, one slot per port and null where nothing
/// arrived, and port order is ascending sender order — the canonical
/// delivery order, with no gather and no sort. A send is one 8-byte
/// store. A link carries at most one message per round (the CONGEST
/// rule, which the outbox enforces), so one slot per link holds all of
/// its traffic.
///
/// A run whose senders step in `W` chunks (in process, the chunks of
/// the run's pinned [`rayon::ChunkPlan`], with `W = 1` for the
/// sequential executor; one for a distributed worker, see
/// [`crate::net::partition`]) has `W` *segments*: segment `w` is the
/// payload arena of chunk `w`. A payload a mailbox slot points at is a
/// broadcast parked in its sender's slot, or lives in a segment's
/// [`PayloadArena`].
///
/// Interior mutability with hand-verified disjointness, upheld by the
/// round loop: while this arena is in the write role, the mailbox slot
/// of directed edge `(v, p)` is written only by sender `v`'s step, and
/// segment `w` only by the thread stepping chunk `w`; while it is in
/// the read role, receiver `w`'s mailbox row is read and nulled only by
/// `w`'s own step, and nothing else is written.
pub(crate) struct InboxArena<M> {
    /// One payload pointer per directed edge, receiver-indexed; null
    /// where nothing arrived. Every slot of the used extent is null
    /// whenever the generation enters the write role.
    mail: Vec<UnsafeCell<*const M>>,
    /// One payload arena per segment, written by that segment's writer
    /// alone. Cleared whenever this generation re-enters the write role
    /// (in `swap_roles` and in `reset`), when every mailbox slot of the
    /// generation is already null.
    payloads: Vec<UnsafeCell<PayloadArena<M>>>,
    /// Per-sender broadcast slots, one per step position: slot `v` (the
    /// slot of the node at position `v`) holds the payload of `v`'s
    /// broadcast of this generation *once*; the mailbox carries
    /// pointers into it. Written only by `v` during the write phase,
    /// read only by `v`'s neighbors during the following read phase
    /// (when no slot of this arena is written at all), overwritten by
    /// `v`'s next same-parity broadcast — which is when the stale
    /// payload is evicted back to `v` for recycling. Never scanned or
    /// cleared, not even by `reset`: a parked payload survives into the
    /// next run and is evicted by node `v`'s first broadcast into this
    /// generation there, or dropped with the arena.
    slots: Vec<UnsafeCell<Option<M>>>,
    /// Directed edges in the current (or last) run; `reset` only nulls
    /// this prefix of the mailbox.
    edges: usize,
    /// Segments in the current (or last) run.
    segments: usize,
}

// SAFETY: shared access reaches the mailbox and the payload arenas only
// through `segment_ptr` and `row_mut`, whose callers uphold the
// slot/segment/row disjointness documented on the type, and slots
// through `slots_ptr`, whose callers uphold the sender-only write rule
// documented on the field; the sizes change only under `&mut self`.
// `M: Send` makes moving messages across the worker threads sound, and
// `M: Sync` covers the concurrent shared reads of one payload by
// several receivers.
unsafe impl<M: Send + Sync> Sync for InboxArena<M> {}

impl<M> InboxArena<M> {
    /// An empty arena (allocates nothing until its first `reset`).
    pub(crate) fn new() -> Self {
        InboxArena {
            mail: Vec::new(),
            payloads: Vec::new(),
            slots: Vec::new(),
            edges: 0,
            segments: 0,
        }
    }

    /// Prepares the arena for a run over `nodes` senders, `edges`
    /// directed edges and `segments` sender chunks, reusing the
    /// previous run's buffers: the previously used mailbox extent is
    /// nulled, stale payloads of the payload arenas are dropped (blocks
    /// kept), the broadcast slots keep theirs, and the backing arrays
    /// grow only when the new shape does not fit. `&mut self` proves
    /// exclusivity, so no unsafe cell access is needed.
    pub(crate) fn reset(&mut self, nodes: usize, edges: usize, segments: usize) {
        for m in self.mail.iter_mut().take(self.edges) {
            *m.get_mut() = std::ptr::null();
        }
        self.clear_payloads();
        if self.mail.len() < edges {
            self.mail.resize_with(edges, || UnsafeCell::new(std::ptr::null()));
        }
        if self.payloads.len() < segments {
            self.payloads.resize_with(segments, || UnsafeCell::new(PayloadArena::default()));
        }
        if self.slots.len() < nodes {
            self.slots.resize_with(nodes, || UnsafeCell::new(None));
        }
        self.edges = edges;
        self.segments = segments;
    }

    /// Ends a round: `next`, this round's write arena, becomes the read
    /// arena, and `cur`, whose mailbox every receiver's step nulled,
    /// re-enters the write role with its payloads dropped. The
    /// in-process round loop and a distributed worker's `commit_round`
    /// both end a round here.
    pub(crate) fn swap_roles(cur: &mut Self, next: &mut Self) {
        std::mem::swap(cur, next);
        next.clear_payloads();
    }

    /// Drops every payload of the segments' payload arenas, keeping
    /// their blocks: how a generation whose mailbox was nulled
    /// re-enters the write role. `&mut self` proves no round is
    /// stepping.
    fn clear_payloads(&mut self) {
        debug_assert!(
            self.mail.iter_mut().all(|m| m.get_mut().is_null()),
            "payloads dropped while a mailbox slot still points at them"
        );
        for p in self.payloads.iter_mut() {
            p.get_mut().clear();
        }
    }

    /// Write handle of segment `w` for the outbox's direct sink: the
    /// mailbox base and segment `w`'s payload arena. Access contract as
    /// documented on the type: a slot is written only by its sender,
    /// the segment only by the thread stepping chunk `w`, and only
    /// while this arena is in the write role.
    pub(crate) fn segment_ptr(&self, w: usize) -> Segment<M> {
        debug_assert!(w < self.segments);
        Segment { mail: UnsafeCell::raw_get(self.mail.as_ptr()), payloads: self.payloads[w].get() }
    }

    /// Files one delivery at mailbox slot `slot`, its payload moved
    /// into segment `w`'s payload arena — or, when the slot's link
    /// already carries this round's message, files nothing and hands
    /// the payload back. `&mut self` proves no round is stepping, so no
    /// unsafe cell access is needed.
    pub(crate) fn push_owned(&mut self, w: usize, slot: DirectedEdgeId, msg: M) -> Result<(), M> {
        debug_assert!((slot as usize) < self.edges, "slot outside the run's mailbox");
        let cell = self.mail[slot as usize].get_mut();
        if !cell.is_null() {
            return Err(msg);
        }
        *cell = self.payloads[w].get_mut().push(msg);
        Ok(())
    }

    /// Receiver `v`'s mailbox row — the slots `row`, `v`'s row in the
    /// run's step order (under index order,
    /// [`Graph::directed_edge_range`](crate::graph::Graph::directed_edge_range))
    /// — to read and then null. Port order is ascending sender order.
    ///
    /// # Safety
    /// `row` must lie within the edge count of the last `reset`, and
    /// the caller must be `v`'s step while this arena is in the read
    /// role: no other reference to the row's slots may be live.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn row_mut(&self, row: Range<DirectedEdgeId>) -> &mut [*const M] {
        debug_assert!(row.start <= row.end && row.end as usize <= self.edges);
        // UnsafeCell<T> is repr(transparent) over T.
        let base = self.mail.as_ptr().add(row.start as usize) as *mut *const M;
        std::slice::from_raw_parts_mut(base, row.len())
    }

    /// Takes the deliveries of mailbox row `row` — `(port, payload)`
    /// for each non-null slot, in port order — and nulls the row.
    /// `&mut self` proves no round is stepping, so no unsafe cell
    /// access is needed. A distributed worker drains its cut
    /// receivers' rows of the write arena with it.
    pub(crate) fn drain_row(
        &mut self,
        row: Range<DirectedEdgeId>,
    ) -> impl Iterator<Item = (u32, *const M)> + '_ {
        self.mail[row.start as usize..row.end as usize].iter_mut().enumerate().filter_map(
            |(q, m)| {
                let msg = std::mem::replace(m.get_mut(), std::ptr::null());
                (!msg.is_null()).then_some((q as u32, msg))
            },
        )
    }

    /// Base pointer of the broadcast-slot array, for the sender-side
    /// outbox. Access contract as documented on the field: slot `v` is
    /// touched only by sender `v`, and only while this arena is in the
    /// write role.
    pub(crate) fn slots_ptr(&self) -> *mut Option<M> {
        UnsafeCell::raw_get(self.slots.as_ptr())
    }
}

/// One round's sender-side accounting: fed by the fused write path as
/// each send lands, folded per executor chunk, and — on the distributed
/// executor — shipped in each worker's `Done` frame
/// ([`RoundDigest::to_bytes`]) and merged by the coordinator. Merging
/// is associative, and `violation` keeps the entry of the lowest node
/// index whichever digest it came from, so a sequential fold in any
/// step order, chunked parallel reductions and partition digests all
/// produce identical results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundDigest {
    pub messages: u64,
    pub bits: u64,
    pub max_message_bits: u64,
    /// Nodes that transitioned `Running → Halted` this round.
    pub halted: u32,
    /// The link of the lowest node index that exceeded an enforced
    /// budget (within that node, the first its sends hit):
    /// `(sender, port, message bits)`.
    pub violation: Option<(NodeIndex, u32, u64)>,
    /// Messages lost to each fault kind, indexed by
    /// [`crate::fault::DropKind::index`].
    pub drops_by_kind: [u64; crate::fault::DropKind::COUNT],
    /// Frames tampered in flight that still decoded (delivered garbage).
    pub corrupted_delivered: u64,
    /// Frames tampered in flight that no longer decoded (lost).
    pub corrupted_rejected: u64,
}

impl RoundDigest {
    /// Associative merge; keeps the violation of the lowest node index
    /// (of `a` on a tie, which one node's sends in one digest cannot
    /// produce).
    pub fn merge(a: RoundDigest, b: RoundDigest) -> RoundDigest {
        let mut drops_by_kind = a.drops_by_kind;
        for (d, s) in drops_by_kind.iter_mut().zip(b.drops_by_kind) {
            *d += s;
        }
        RoundDigest {
            messages: a.messages + b.messages,
            bits: a.bits + b.bits,
            max_message_bits: a.max_message_bits.max(b.max_message_bits),
            halted: a.halted + b.halted,
            violation: a.violation.into_iter().chain(b.violation).min_by_key(|&(node, ..)| node),
            drops_by_kind,
            corrupted_delivered: a.corrupted_delivered + b.corrupted_delivered,
            corrupted_rejected: a.corrupted_rejected + b.corrupted_rejected,
        }
    }

    /// Closes round `round` with this (fully merged) digest — the one
    /// post-round step of every executor. A bandwidth violation fails
    /// the run before anything of the round is recorded; otherwise the
    /// round's halts leave `active`, its fault counters fold into
    /// `report.faults`, and its statistics row is appended to
    /// `report.per_round`. A link carries
    /// at most one message per round, so its load is that message: the
    /// row's `max_link_bits` is the largest message and its
    /// `max_link_messages` is 1 when the round charged any message.
    pub fn close_round(
        &self,
        round: u32,
        config: &EngineConfig,
        active: &mut usize,
        report: &mut RunReport,
    ) -> Result<(), EngineError> {
        if let Some((node, port, bits)) = self.violation {
            let limit = config.bandwidth.limit();
            return Err(EngineError::BandwidthExceeded { round, node, port, bits, limit });
        }
        let active_nodes = *active;
        *active -= self.halted as usize;
        let fr = &mut report.faults;
        fr.dropped_explicit += self.drops_by_kind[DropKind::Explicit.index()];
        fr.dropped_random += self.drops_by_kind[DropKind::Random.index()];
        fr.dropped_crash += self.drops_by_kind[DropKind::Crash.index()];
        fr.dropped_cut += self.drops_by_kind[DropKind::Cut.index()];
        fr.dropped_burst += self.drops_by_kind[DropKind::Burst.index()];
        fr.corrupted_delivered += self.corrupted_delivered;
        fr.corrupted_rejected += self.corrupted_rejected;
        report.per_round.push(RoundStats {
            round,
            active_nodes,
            messages: self.messages,
            bits: self.bits,
            max_message_bits: self.max_message_bits,
            max_link_bits: self.max_message_bits,
            max_link_messages: u64::from(self.messages > 0),
        });
        Ok(())
    }

    /// Wire encoding for the `Done` frame body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.messages);
        w.u64(self.bits);
        w.u64(self.max_message_bits);
        w.u32(self.halted);
        match self.violation {
            Some((node, port, bits)) => {
                w.u8(1);
                w.u32(node);
                w.u32(port);
                w.u64(bits);
            }
            None => w.u8(0),
        }
        for d in self.drops_by_kind {
            w.u64(d);
        }
        w.u64(self.corrupted_delivered);
        w.u64(self.corrupted_rejected);
        w.0
    }

    /// Decodes a `Done` frame body.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FrameError> {
        let mut r = ByteReader::new(bytes);
        let mut d = RoundDigest {
            messages: r.u64()?,
            bits: r.u64()?,
            max_message_bits: r.u64()?,
            halted: r.u32()?,
            ..RoundDigest::default()
        };
        d.violation = if r.u8()? != 0 { Some((r.u32()?, r.u32()?, r.u64()?)) } else { None };
        for slot in d.drops_by_kind.iter_mut() {
            *slot = r.u64()?;
        }
        d.corrupted_delivered = r.u64()?;
        d.corrupted_rejected = r.u64()?;
        r.finish()?;
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_associative_and_keeps_the_lowest_node_violation() {
        let a = RoundDigest {
            messages: 1,
            bits: 10,
            violation: Some((3, 0, 9)),
            ..RoundDigest::default()
        };
        let b = RoundDigest {
            messages: 2,
            bits: 5,
            violation: Some((7, 1, 4)),
            ..RoundDigest::default()
        };
        let c = RoundDigest { messages: 4, max_message_bits: 99, ..RoundDigest::default() };
        let left = RoundDigest::merge(RoundDigest::merge(a, b), c);
        let right = RoundDigest::merge(a, RoundDigest::merge(b, c));
        assert_eq!(left, right);
        assert_eq!(left.messages, 7);
        assert_eq!(left.max_message_bits, 99);
        assert_eq!(left.violation, Some((3, 0, 9)));
        // Chunks in step order need not be in node order: the lower
        // node's violation wins from either side.
        for (x, y) in [(b, a), (RoundDigest::merge(c, b), RoundDigest::merge(a, c))] {
            assert_eq!(RoundDigest::merge(x, y).violation, Some((3, 0, 9)));
        }
    }

    /// Every segment writes the one mailbox, through its own payload
    /// arena: the handles share the mailbox base and differ in the
    /// payload arena, a row sits at its first slot's offset from that
    /// base, one pointer per slot, and a fresh mailbox is null.
    #[test]
    fn segments_tile_the_boxes() {
        let (n, edges, segs) = (5usize, 8usize, 3usize);
        let mut arena: InboxArena<u64> = InboxArena::new();
        arena.reset(n, edges, segs);
        let base = arena.segment_ptr(0).mail as usize;
        let stride = std::mem::size_of::<*const u64>();
        let mut owned = Vec::new();
        for w in 0..segs {
            let seg = arena.segment_ptr(w);
            assert_eq!(seg.mail as usize, base, "one mailbox for every segment");
            assert_eq!(seg.payloads, arena.payloads[w].get());
            owned.push(seg.payloads as usize);
        }
        owned.sort_unstable();
        owned.dedup();
        assert_eq!(owned.len(), segs, "segments own distinct payload arenas");
        for row in [0..2u32, 2..2, 2..7, 7..8] {
            // SAFETY: single-threaded test, no overlapping access.
            let slots = unsafe { arena.row_mut(row.clone()) };
            assert_eq!(slots.as_ptr() as usize, base + row.start as usize * stride, "{row:?}");
            assert_eq!(slots.len(), row.len());
            assert!(slots.iter().all(|m| m.is_null()), "{row:?} starts null");
        }
    }

    /// Reshaping a used arena — (8 edges, W = 3) to (5 edges, W = 1)
    /// and back — leaves every mailbox slot null and every payload
    /// arena empty, including the ones the smaller shape does not
    /// address. Before that, a link's delivery sits in its slot, and a
    /// second delivery on the link is handed back unfiled.
    #[test]
    fn reshaping_reset_empties_every_box() {
        // Slot `s` gets the delivery `10·s` from segment `s mod W`.
        let fill = |arena: &mut InboxArena<u64>, edges: u32, segs: usize| {
            for slot in 0..edges {
                assert_eq!(
                    arena.push_owned(slot as usize % segs, slot, u64::from(10 * slot)),
                    Ok(())
                );
            }
        };
        let value = |arena: &mut InboxArena<u64>, msg: *const u64| {
            let mut live =
                arena.payloads.iter_mut().flat_map(|p| p.get_mut().blocks.iter().flatten());
            live.find(|m| std::ptr::eq(*m, msg)).copied()
        };
        let all_empty = |arena: &mut InboxArena<u64>| {
            arena.mail.iter_mut().all(|m| m.get_mut().is_null())
                && arena.payloads.iter_mut().all(|p| p.get_mut().blocks.iter().all(Vec::is_empty))
        };
        let mut arena: InboxArena<u64> = InboxArena::new();
        arena.reset(5, 8, 3);
        fill(&mut arena, 8, 3);
        assert_eq!(arena.push_owned(0, 3, 99), Err(99), "slot 3's link already carries 30");
        let filed: Vec<(u32, *const u64)> = arena.drain_row(2..5).collect();
        let filed: Vec<(u32, Option<u64>)> =
            filed.into_iter().map(|(q, m)| (q, value(&mut arena, m))).collect();
        assert_eq!(filed, vec![(0, Some(20)), (1, Some(30)), (2, Some(40))]);
        // Slots 0, 1 and 5..8 still hold their deliveries.
        arena.reset(4, 5, 1);
        assert_eq!(arena.mail.len(), 8, "shrinking keeps the mailbox");
        assert_eq!(arena.payloads.len(), 3, "shrinking keeps the payload arenas");
        assert!(all_empty(&mut arena));
        fill(&mut arena, 5, 1);
        arena.reset(5, 8, 3);
        assert!(all_empty(&mut arena));
    }

    /// The address `push` returns is the payload's address for as long
    /// as it lives: later pushes that open new blocks move nothing.
    #[test]
    fn payload_addresses_survive_block_growth() {
        let mut arena: PayloadArena<u64> = PayloadArena::default();
        let count = 5 * FIRST_BLOCK + 3;
        let ptrs: Vec<*const u64> = (0..count as u64).map(|i| arena.push(i * 7)).collect();
        assert!(arena.blocks.len() >= 3, "the pushes spanned several blocks");
        let live: Vec<*const u64> =
            arena.blocks.iter().flat_map(|b| b.iter().map(|m| m as *const u64)).collect();
        assert_eq!(live, ptrs, "every payload sits where its push said");
        let values: Vec<u64> = arena.blocks.iter().flatten().copied().collect();
        assert_eq!(values, (0..count as u64).map(|i| i * 7).collect::<Vec<_>>());
    }

    /// `clear` drops each payload exactly once and keeps the blocks: a
    /// refill of the same size reuses them without allocating a block.
    #[test]
    fn clear_drops_each_payload_once_and_keeps_blocks() {
        use std::rc::Rc;
        let live = Rc::new(());
        let mut arena: PayloadArena<Rc<()>> = PayloadArena::default();
        let count = 3 * FIRST_BLOCK + 1;
        for _ in 0..count {
            arena.push(Rc::clone(&live));
        }
        assert_eq!(Rc::strong_count(&live), count + 1);
        let shape: Vec<(*const Rc<()>, usize)> =
            arena.blocks.iter().map(|b| (b.as_ptr(), b.capacity())).collect();
        arena.clear();
        assert_eq!(Rc::strong_count(&live), 1, "each payload dropped exactly once");
        arena.clear();
        assert_eq!(Rc::strong_count(&live), 1, "a second clear drops nothing");
        for _ in 0..count {
            arena.push(Rc::clone(&live));
        }
        let refilled: Vec<(*const Rc<()>, usize)> =
            arena.blocks.iter().map(|b| (b.as_ptr(), b.capacity())).collect();
        assert_eq!(refilled, shape, "a same-size refill allocates no block");
        drop(arena);
        assert_eq!(Rc::strong_count(&live), 1, "dropping the arena drops the refill");
    }
}
