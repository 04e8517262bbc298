//! Shared internals of the arena engine: the double-buffered,
//! sender-segmented inbox arena with its per-segment payload arenas,
//! the flat per-directed-edge load table, and the per-round digest the
//! fused accounting feeds and every executor closes its rounds with.
//! Split out of `engine` so the node-side [`crate::node::Outbox`] can
//! write straight into inboxes without a module cycle.

use std::cell::UnsafeCell;

use crate::engine::{EngineConfig, EngineError, WireFlags};
use crate::fault::DropKind;
use crate::graph::{DirectedEdgeId, NodeIndex};
use crate::metrics::{RoundStats, RunReport};
use crate::net::frame::{ByteReader, ByteWriter, FrameError};
use crate::node::Packet;

/// Per-directed-edge wire load for one round, kept in a flat
/// [`LoadTable`] indexed by [`DirectedEdgeId`] (not inside the inbox
/// arena: the loads are round-scoped accounting state, the inboxes are
/// round-crossing transport).
///
/// Loads are *round-stamped* instead of reset: a load whose `stamp`
/// differs from the current round's stamp is semantically zero, and
/// the first write of a round re-stamps it. No pass over the table —
/// at drain time, at swap time, or anywhere else — ever has to zero
/// anything.
///
/// Stamps live in a 64-bit *offset* space, `table.base + round`: each
/// run gets a fresh epoch (the base advances past every stamp the
/// previous run could have written), so round numbers restarting at 0
/// between batch jobs can never collide with a stale entry and even
/// the between-jobs re-stale scan of the table is gone — workspace
/// reset is O(1) for the loads.
///
/// `bits`/`count` include faulted sends: the sender spent the
/// bandwidth even though the message is never delivered.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinkLoad {
    pub(crate) bits: u64,
    pub(crate) count: u64,
    /// Offset-space stamp (`base + round`) these counters belong to;
    /// `u64::MAX` = never written (unreachable as a real stamp for any
    /// feasible number of runs — bases advance in `2^32` strides).
    pub(crate) stamp: u64,
}

impl Default for LinkLoad {
    fn default() -> Self {
        LinkLoad { bits: 0, count: 0, stamp: u64::MAX }
    }
}

/// The flat per-directed-edge load table the fused accounting writes.
///
/// Directed edge `(v → w)` is loaded only by its unique sender `v`, so
/// rows partition across nodes and the parallel executor's per-node
/// step calls never touch the same entry.
pub(crate) struct LoadTable {
    cells: Vec<UnsafeCell<LinkLoad>>,
    /// Stamp-space base of the current run; every stamp this run
    /// writes is `base + round`. Advanced by a full `2^32` (one more
    /// than any `u32` round number) at each reset, so a stale entry's
    /// stamp can never equal a fresh run's.
    base: u64,
}

// SAFETY: entries are only reached through `LoadTable::row_ptr`, whose
// callers guarantee sender-unique row access; `LinkLoad` is plain data.
unsafe impl Sync for LoadTable {}

impl LoadTable {
    /// An all-stale table of `len` loads (`len` = 0 for runs that never
    /// account — `row_ptr` must not be called on an empty table).
    pub(crate) fn new(len: usize) -> Self {
        LoadTable {
            cells: (0..len).map(|_| UnsafeCell::new(LinkLoad::default())).collect(),
            base: 0,
        }
    }

    /// Prepares the table for a run over `len` loads: advances the
    /// stamp epoch — after which every retained entry is semantically
    /// zero without touching it — and grows the backing array only when
    /// the new graph does not fit. O(1) when the graph fits; the
    /// between-jobs re-stale scan this replaces was the last per-job
    /// O(m) cost of workspace reuse.
    pub(crate) fn reset(&mut self, len: usize) {
        self.base = self.base.wrapping_add(1 << 32);
        if self.cells.len() < len {
            self.cells.resize_with(len, || UnsafeCell::new(LinkLoad::default()));
        }
    }

    /// The offset-space stamp of `round` in the current run's epoch.
    pub(crate) fn stamp_for(&self, round: u32) -> u64 {
        self.base.wrapping_add(u64::from(round))
    }

    /// Raw pointer to the load row starting at directed edge `de`: the
    /// sender's per-port load counters.
    ///
    /// # Safety
    /// The caller must be the unique accessor of the row's entries while
    /// the pointer lives (sender-owned rows satisfy this), and `de` must
    /// be at most the table length (`de == len` is the empty row of a
    /// degree-0 sender — one past the end, fine to form, never read).
    pub(crate) unsafe fn row_ptr(&self, de: DirectedEdgeId) -> *mut LinkLoad {
        debug_assert!(de as usize <= self.cells.len());
        // UnsafeCell<T> is repr(transparent) over T.
        self.cells.as_ptr().add(de as usize) as *mut LinkLoad
    }
}

/// Owned payloads of one inbox segment, in address-stable blocks.
///
/// A targeted send moves its payload in here and the receiver's box
/// gets a [`Packet`] pointing at it. Blocks are never resized: a full
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

    /// Drops every payload and keeps the blocks. No packet may still
    /// point into the arena.
    pub(crate) fn clear(&mut self) {
        for block in self.blocks.iter_mut().take(self.cur + 1) {
            block.clear();
        }
        self.cur = 0;
    }
}

/// Type-erased write handle of one segment of an [`InboxArena`]: the
/// base of its `nodes` receiver boxes (`*mut Vec<Packet<M>>`) and its
/// payload arena (`*mut PayloadArena<M>`), for the outbox's inbox sink.
#[derive(Clone, Copy)]
pub(crate) struct Segment {
    pub(crate) boxes: *mut (),
    pub(crate) payloads: *mut (),
}

/// Double-buffered, segmented per-receiver inboxes: the message arena
/// of every executor.
///
/// A run over `n` receivers whose senders step in `W` chunks (in
/// process, the chunks of the run's pinned [`rayon::ChunkPlan`], with
/// `W = 1` for the sequential executor) holds `W·n` boxes in
/// segment-major order: box `w·n + v` holds the messages for receiver
/// `v` from the senders of chunk `w`, as 16-byte [`Packet`]s already
/// labeled with their receiver-side port. A distributed worker uses two
/// segments: senders below its range, then its own and those above
/// (see [`crate::net::partition`]). A packet points at its payload:
/// broadcast payloads park once in the sender's slot, and every other
/// payload lives in its segment's [`PayloadArena`].
///
/// Interior mutability with hand-verified disjointness, upheld by the
/// round loop: while this arena is in the write role, segment `w` (its
/// boxes and its payload arena) is written only by the thread stepping
/// chunk `w` (so two writer threads never touch the same box, and
/// segment-major order gives each one a contiguous range, off the
/// others' cache lines except at the range edges); while it is in the
/// read role, the `W` boxes of receiver `v` are read and cleared only
/// by `v`'s own step, and no payload arena is written.
pub(crate) struct InboxArena<M> {
    /// The `W·n` receiver boxes, segment-major. A box only ever holds
    /// packets whose payloads live in this arena generation.
    boxes: Vec<UnsafeCell<Vec<Packet<M>>>>,
    /// One payload arena per segment, written by that segment's writer
    /// alone. Cleared whenever this generation re-enters the write role
    /// (in `swap_roles` and in `reset`), when every box of the
    /// generation is already empty.
    payloads: Vec<UnsafeCell<PayloadArena<M>>>,
    /// Per-sender broadcast slots: slot `v` holds the payload of `v`'s
    /// first broadcast of this generation *once*; the boxes carry
    /// pointers into it. Written only by `v` during the write phase,
    /// read only by `v`'s neighbors during the following read phase
    /// (when no slot of this arena is written at all), overwritten by
    /// `v`'s next same-parity broadcast — which is when the stale
    /// payload is evicted back to `v` for recycling. Never scanned or
    /// cleared.
    slots: Vec<UnsafeCell<Option<M>>>,
    /// Receivers per segment in the current (or last) run.
    nodes: usize,
    /// Segments in the current (or last) run; `reset` only cleans the
    /// `nodes · segments` prefix.
    segments: usize,
}

// SAFETY: shared access reaches boxes and payload arenas only through
// `segment_ptr` and `gather`, whose callers uphold the
// segment/receiver disjointness documented on the type, and slots
// through `slots_ptr`, whose callers uphold the sender-only write rule
// documented on the field; `nodes` and `segments` change only under
// `&mut self`. `M: Send` makes moving messages across the worker
// threads sound, and `M: Sync` covers the concurrent shared reads of
// one payload by several receivers.
unsafe impl<M: Send + Sync> Sync for InboxArena<M> {}

impl<M> InboxArena<M> {
    /// An empty arena (allocates nothing until its first `reset`).
    pub(crate) fn new() -> Self {
        InboxArena {
            boxes: Vec::new(),
            payloads: Vec::new(),
            slots: Vec::new(),
            nodes: 0,
            segments: 0,
        }
    }

    /// Prepares the arena for a run over `nodes` receivers in
    /// `segments` sender chunks, reusing the previous run's buffer
    /// capacities: boxes in the previously used extent are cleared
    /// (capacity kept — the whole point of batch reuse), stale
    /// payloads are dropped (payload blocks kept), and the backing
    /// arrays grow only when the new shape does not fit. `&mut self`
    /// proves exclusivity, so no unsafe cell access is needed.
    pub(crate) fn reset(&mut self, nodes: usize, segments: usize) {
        for b in self.boxes.iter_mut().take(self.nodes * self.segments) {
            b.get_mut().clear();
        }
        self.clear_payloads();
        for slot in self.slots.iter_mut().take(self.nodes) {
            *slot.get_mut() = None;
        }
        if self.boxes.len() < nodes * segments {
            self.boxes.resize_with(nodes * segments, || UnsafeCell::new(Vec::new()));
        }
        if self.payloads.len() < segments {
            self.payloads.resize_with(segments, || UnsafeCell::new(PayloadArena::default()));
        }
        if self.slots.len() < nodes {
            self.slots.resize_with(nodes, || UnsafeCell::new(None));
        }
        self.nodes = nodes;
        self.segments = segments;
    }

    /// Ends a round: `next`, this round's write arena, becomes the read
    /// arena, and `cur`, whose boxes every receiver's step emptied,
    /// re-enters the write role with its payloads dropped. The
    /// in-process round loop and a distributed worker's
    /// `commit_round` both end a round here.
    pub(crate) fn swap_roles(cur: &mut Self, next: &mut Self) {
        std::mem::swap(cur, next);
        next.clear_payloads();
    }

    /// Drops every payload of the segments' payload arenas, keeping
    /// their blocks: how a generation whose boxes were all emptied
    /// re-enters the write role. `&mut self` proves no round is
    /// stepping.
    fn clear_payloads(&mut self) {
        debug_assert!(
            self.boxes.iter_mut().all(|b| b.get_mut().is_empty()),
            "payloads dropped while a box still points at them"
        );
        for p in self.payloads.iter_mut() {
            p.get_mut().clear();
        }
    }

    /// Type-erased write handle of segment `w` — `nodes` boxes indexed
    /// by receiver and the segment's payload arena — for the outbox's
    /// inbox sink. Access contract as documented on the type: only the
    /// thread stepping chunk `w` writes through it, and only while this
    /// arena is in the write role.
    pub(crate) fn segment_ptr(&self, w: usize) -> Segment {
        debug_assert!(w < self.segments);
        // The full-range index keeps all `nodes` boxes the sink may
        // write inside the array. UnsafeCell<T> is repr(transparent)
        // over T.
        Segment {
            boxes: self.boxes[w * self.nodes..(w + 1) * self.nodes].as_ptr() as *mut (),
            payloads: self.payloads[w].get() as *mut (),
        }
    }

    /// Files one delivery in box `(w, v)`, its payload moved into
    /// segment `w`'s payload arena. `&mut self` proves no round is
    /// stepping, so no unsafe cell access is needed.
    pub(crate) fn push_owned(&mut self, w: usize, v: NodeIndex, port: u32, msg: M) {
        let msg = self.payloads[w].get_mut().push(msg);
        self.inbox_mut(w, v).push(Packet { port, msg });
    }

    /// Gathers receiver `v`'s traffic in place: appends each later
    /// nonempty box into the first nonempty one and returns it (box
    /// `(0, v)` when nothing arrived). Ascending segment means
    /// ascending sender, so the result is in canonical delivery order.
    /// Every other box of `v` is left empty, so clearing the returned
    /// box empties all of them; no buffer changes hands.
    ///
    /// # Safety
    /// `v` must be below the node count of the last `reset`, and the
    /// caller must be `v`'s step while this arena is in the read role:
    /// no other reference to any of `v`'s boxes may be live.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn gather(&self, v: NodeIndex) -> &mut Vec<Packet<M>> {
        debug_assert!((v as usize) < self.nodes);
        // UnsafeCell<T> is repr(transparent) over T.
        let base = self.boxes.as_ptr() as *mut Vec<Packet<M>>;
        let mut head = base.add(v as usize);
        for w in 1..self.segments {
            let b = base.add(w * self.nodes + v as usize);
            if (*b).is_empty() {
                continue;
            }
            if (*head).is_empty() {
                head = b;
            } else {
                (*head).append(&mut *b);
            }
        }
        &mut *head
    }

    /// Box `(w, v)`: receiver `v`'s messages from the senders of
    /// segment `w`. `&mut self` proves no round is stepping, so no
    /// unsafe cell access is needed.
    pub(crate) fn inbox_mut(&mut self, w: usize, v: NodeIndex) -> &mut Vec<Packet<M>> {
        debug_assert!(w < self.segments && (v as usize) < self.nodes);
        self.boxes[w * self.nodes + v as usize].get_mut()
    }

    /// Type-erased base pointer of the broadcast-slot array
    /// (`*mut Option<M>`), for the sender-side outbox. Access contract
    /// as documented on the field: slot `v` is touched only by sender
    /// `v`, and only while this arena is in the write role.
    pub(crate) fn slots_ptr(&self) -> *mut () {
        // UnsafeCell<T> is repr(transparent) over T.
        self.slots.as_ptr() as *mut ()
    }

    /// Takes the payload parked in sender `v`'s broadcast slot, if any.
    /// `&mut self` proves the round loop is over, so no box can still
    /// be read and no unsafe cell access is needed. Used by the engine's
    /// end-of-run drain that hands parked payloads back to programs for
    /// recycling (instead of letting the next run's reset drop them).
    pub(crate) fn take_slot(&mut self, v: NodeIndex) -> Option<M> {
        self.slots.get_mut(v as usize).and_then(|s| s.get_mut().take())
    }
}

/// One round's sender-side accounting: fed by the fused write path as
/// each send lands, folded per executor chunk, and — on the distributed
/// executor — shipped in each worker's `Done` frame
/// ([`RoundDigest::to_bytes`]) and merged by the coordinator. Merging
/// is associative, and `violation` keeps the leftmost (= lowest node
/// index) entry, so a sequential fold, chunked parallel reductions and
/// partition digests merged in ascending range order all produce
/// identical results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundDigest {
    pub messages: u64,
    pub bits: u64,
    pub max_message_bits: u64,
    pub max_link_bits: u64,
    pub max_link_messages: u64,
    /// Nodes that transitioned `Running → Halted` this round.
    pub halted: u32,
    /// First (by node index) link that exceeded an enforced budget:
    /// `(sender, port, end-of-round link bits)`.
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
    /// Associative merge; keeps the leftmost violation.
    pub fn merge(a: RoundDigest, b: RoundDigest) -> RoundDigest {
        let mut drops_by_kind = a.drops_by_kind;
        for (d, s) in drops_by_kind.iter_mut().zip(b.drops_by_kind) {
            *d += s;
        }
        RoundDigest {
            messages: a.messages + b.messages,
            bits: a.bits + b.bits,
            max_message_bits: a.max_message_bits.max(b.max_message_bits),
            max_link_bits: a.max_link_bits.max(b.max_link_bits),
            max_link_messages: a.max_link_messages.max(b.max_link_messages),
            halted: a.halted + b.halted,
            violation: a.violation.or(b.violation),
            drops_by_kind,
            corrupted_delivered: a.corrupted_delivered + b.corrupted_delivered,
            corrupted_rejected: a.corrupted_rejected + b.corrupted_rejected,
        }
    }

    /// Closes round `round` with this (fully merged) digest — the one
    /// post-round step of every executor. A bandwidth violation fails
    /// the run before anything of the round is recorded; otherwise the
    /// round's halts leave `active`, its fault counters fold into
    /// `report.faults`, and, when `config` records rounds, its
    /// statistics row is appended to `report.per_round`.
    pub fn close_round(
        &self,
        round: u32,
        config: &EngineConfig,
        active: &mut usize,
        report: &mut RunReport,
    ) -> Result<(), EngineError> {
        if let Some((node, port, bits)) = self.violation {
            let limit = WireFlags::for_config(config).limit;
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
        if config.record_rounds {
            report.per_round.push(RoundStats {
                round,
                active_nodes,
                messages: self.messages,
                bits: self.bits,
                max_message_bits: self.max_message_bits,
                max_link_bits: self.max_link_bits,
                max_link_messages: self.max_link_messages,
            });
        }
        Ok(())
    }

    /// Wire encoding for the `Done` frame body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.messages);
        w.u64(self.bits);
        w.u64(self.max_message_bits);
        w.u64(self.max_link_bits);
        w.u64(self.max_link_messages);
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
            max_link_bits: r.u64()?,
            max_link_messages: r.u64()?,
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
    fn merge_is_associative_and_keeps_leftmost_violation() {
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
        let c = RoundDigest { messages: 4, max_link_bits: 99, ..RoundDigest::default() };
        let left = RoundDigest::merge(RoundDigest::merge(a, b), c);
        let right = RoundDigest::merge(a, RoundDigest::merge(b, c));
        assert_eq!(left, right);
        assert_eq!(left.messages, 7);
        assert_eq!(left.max_link_bits, 99);
        assert_eq!(left.violation, Some((3, 0, 9)));
    }

    /// Box `(w, v)` sits at `w·n + v`: the addresses are distinct and
    /// tile the `W·n` prefix contiguously, each segment pointer is its
    /// segment's first box, and fresh boxes start empty.
    #[test]
    fn segments_tile_the_boxes() {
        let (n, segs) = (5usize, 3usize);
        let mut arena: InboxArena<u64> = InboxArena::new();
        arena.reset(n, segs);
        let stride = std::mem::size_of::<Vec<Packet<u64>>>();
        let base = arena.segment_ptr(0).boxes as usize;
        let mut addrs = Vec::new();
        for w in 0..segs {
            assert_eq!(arena.segment_ptr(w).boxes as usize, base + w * n * stride);
            assert_eq!(arena.segment_ptr(w).payloads, arena.payloads[w].get() as *mut ());
            for v in 0..n as NodeIndex {
                let b = arena.inbox_mut(w, v);
                assert!(b.is_empty(), "box ({w}, {v}) starts empty");
                let addr = b as *mut Vec<Packet<u64>> as usize;
                assert_eq!(addr, base + (w * n + v as usize) * stride, "box ({w}, {v})");
                addrs.push(addr);
            }
        }
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), segs * n, "box addresses must be distinct");
    }

    /// Reshaping a used arena — (n = 5, W = 3) to (n = 4, W = 1) and
    /// back — leaves every box and every payload arena empty, including
    /// the ones the smaller shape does not address; and `gather` merges
    /// a receiver's boxes in ascending segment order into the first
    /// nonempty one.
    #[test]
    fn reshaping_reset_empties_every_box() {
        let fill = |arena: &mut InboxArena<u64>, n: usize, segs: usize| {
            for w in 0..segs {
                for v in 0..n as NodeIndex {
                    arena.push_owned(w, v, w as u32, u64::from(v));
                }
            }
        };
        let all_empty = |arena: &mut InboxArena<u64>| {
            arena.boxes.iter_mut().all(|b| b.get_mut().is_empty())
                && arena.payloads.iter_mut().all(|p| p.get_mut().blocks.iter().all(Vec::is_empty))
        };
        let mut arena: InboxArena<u64> = InboxArena::new();
        arena.reset(5, 3);
        fill(&mut arena, 5, 3);
        // SAFETY: single-threaded test, no overlapping access.
        let got: Vec<u32> = unsafe { arena.gather(2) }.iter().map(|p| p.port).collect();
        assert_eq!(got, vec![0, 1, 2], "gather keeps ascending segment order");
        for w in 1..3 {
            assert!(arena.inbox_mut(w, 2).is_empty(), "gathered boxes are emptied");
        }
        arena.reset(4, 1);
        assert_eq!(arena.boxes.len(), 15, "shrinking keeps the backing boxes");
        assert_eq!(arena.payloads.len(), 3, "shrinking keeps the payload arenas");
        assert!(all_empty(&mut arena));
        fill(&mut arena, 4, 1);
        arena.reset(5, 3);
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

    #[test]
    fn loads_start_stale() {
        let table = LoadTable::new(3);
        for de in 0..3 {
            // SAFETY: single-threaded test, no overlapping access.
            let load = unsafe { &*table.row_ptr(de) };
            assert_eq!(load.stamp, u64::MAX, "fresh loads must be stale-stamped");
            assert_eq!((load.bits, load.count), (0, 0));
            // The sentinel can never equal a real stamp of this epoch.
            for round in [0u32, 1, u32::MAX] {
                assert_ne!(load.stamp, table.stamp_for(round));
            }
        }
    }

    /// Round-offset stamping: a reset must be O(1) — no pass over the
    /// cells — yet leave every retained entry semantically zero, even
    /// when the next run reuses the exact round numbers of the last.
    #[test]
    fn reset_advances_epoch_without_touching_cells() {
        let mut table = LoadTable::new(2);
        table.reset(2);
        let job1_r5 = table.stamp_for(5);
        // Job 1 writes round-5 traffic on both links.
        for de in 0..2 {
            // SAFETY: single-threaded test, no overlapping access.
            let load = unsafe { &mut *table.row_ptr(de) };
            *load = LinkLoad { bits: 77, count: 3, stamp: job1_r5 };
        }
        table.reset(2);
        // Same round number, next job: the stamp spaces are disjoint,
        // so the stale counters are semantically zero...
        assert_ne!(table.stamp_for(5), job1_r5);
        for de in 0..2 {
            // SAFETY: as above.
            let load = unsafe { &*table.row_ptr(de) };
            // ...while the cells themselves were provably not scanned:
            // the stale bytes are still there, just unreadable through
            // any stamp the new epoch can produce.
            assert_eq!((load.bits, load.count, load.stamp), (77, 3, job1_r5));
            for round in [0u32, 5, u32::MAX] {
                assert_ne!(load.stamp, table.stamp_for(round));
            }
        }
        // Growth still works and new cells are stale.
        table.reset(4);
        // SAFETY: as above.
        let grown = unsafe { &*table.row_ptr(3) };
        assert_eq!(grown.stamp, u64::MAX);
    }
}
