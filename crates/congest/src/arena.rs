//! Shared internals of the arena engine: the double-buffered,
//! sender-segmented inbox arena, the flat per-directed-edge load table,
//! and the per-round accumulator the fused accounting feeds. Split out
//! of `engine` so the node-side [`crate::node::Outbox`] can write
//! straight into inboxes without a module cycle.

use std::cell::UnsafeCell;

use crate::graph::{DirectedEdgeId, NodeIndex};
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

/// Double-buffered, segmented per-receiver inboxes: the message arena
/// of both in-process executors.
///
/// A run over `n` receivers whose senders step in `W` chunks (the
/// chunks of the run's pinned [`rayon::ChunkPlan`]; `W = 1` for the
/// sequential executor and the partition executor) holds `W·n` boxes in
/// segment-major order: box `w·n + v` holds the messages for receiver
/// `v` from the senders of chunk `w`, stored already labeled with their
/// receiver-side port. Broadcast payloads park once in the sender's
/// slot and the boxes carry shared refs.
///
/// Interior mutability with hand-verified disjointness, upheld by the
/// round loop: while this arena is in the write role, segment `w` is
/// written only by the thread stepping chunk `w` (so two writer threads
/// never touch the same box, and segment-major order gives each one a
/// contiguous range, off the others' cache lines except at the range
/// edges); while it is in the read role, the `W` boxes
/// of receiver `v` are read and cleared only by `v`'s own step.
pub(crate) struct InboxArena<M> {
    boxes: Vec<UnsafeCell<Vec<Packet<M>>>>,
    /// Per-sender broadcast slots: slot `v` holds the payload of `v`'s
    /// broadcast of this generation *once*; the boxes carry shared refs
    /// into it. Written only by `v` during the write phase, read only
    /// by `v`'s neighbors during the following read phase (when no slot
    /// of this arena is written at all), overwritten by `v`'s next
    /// same-parity broadcast — which is when the stale payload is
    /// evicted back to `v` for recycling. Never scanned or cleared.
    slots: Vec<UnsafeCell<Option<M>>>,
    /// Receivers per segment in the current (or last) run.
    nodes: usize,
    /// Segments in the current (or last) run; `reset` only cleans the
    /// `nodes · segments` prefix.
    segments: usize,
}

// SAFETY: boxes are only reached through `segment_ptr`, `gather` and
// `inbox`, whose callers uphold the segment/receiver disjointness
// documented on the type, and slots through `slots_ptr`, whose callers
// uphold the sender-only write rule documented on the field; `nodes`
// and `segments` change only under `&mut self`. `M: Send` makes moving
// messages across the worker threads sound, and `M: Sync` covers the
// concurrent shared reads of broadcast slots by several receivers.
unsafe impl<M: Send + Sync> Sync for InboxArena<M> {}

impl<M> InboxArena<M> {
    /// An empty arena (allocates nothing until its first `reset`).
    pub(crate) fn new() -> Self {
        InboxArena { boxes: Vec::new(), slots: Vec::new(), nodes: 0, segments: 0 }
    }

    /// Prepares the arena for a run over `nodes` receivers in
    /// `segments` sender chunks, reusing the previous run's buffer
    /// capacities: boxes in the previously used extent are cleared
    /// (capacity kept — the whole point of batch reuse), stale
    /// broadcast payloads are dropped, and the backing arrays grow only
    /// when the new shape does not fit. `&mut self` proves exclusivity,
    /// so no unsafe cell access is needed.
    pub(crate) fn reset(&mut self, nodes: usize, segments: usize) {
        for b in self.boxes.iter_mut().take(self.nodes * self.segments) {
            b.get_mut().clear();
        }
        for slot in self.slots.iter_mut().take(self.nodes) {
            *slot.get_mut() = None;
        }
        if self.boxes.len() < nodes * segments {
            self.boxes.resize_with(nodes * segments, || UnsafeCell::new(Vec::new()));
        }
        if self.slots.len() < nodes {
            self.slots.resize_with(nodes, || UnsafeCell::new(None));
        }
        self.nodes = nodes;
        self.segments = segments;
    }

    /// Type-erased base pointer of segment `w` — `nodes` boxes indexed
    /// by receiver (`*mut Vec<Packet<M>>`) — for the outbox's inbox
    /// sink. Access contract as documented on the type: only the
    /// thread stepping chunk `w` writes through it, and only while this
    /// arena is in the write role.
    pub(crate) fn segment_ptr(&self, w: usize) -> *mut () {
        debug_assert!(w < self.segments);
        // The full-range index keeps all `nodes` boxes the sink may
        // write inside the array. UnsafeCell<T> is repr(transparent)
        // over T.
        self.boxes[w * self.nodes..(w + 1) * self.nodes].as_ptr() as *mut ()
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

    /// Exclusive access to box `(w, v)`.
    ///
    /// # Safety
    /// No other reference to that box may be live. The single-chunk
    /// callers (the partition executor's loop, tests) satisfy this by
    /// never holding two references at once.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn inbox(&self, w: usize, v: NodeIndex) -> &mut Vec<Packet<M>> {
        &mut *self.boxes[w * self.nodes + v as usize].get()
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

/// Round statistics accumulated in the fused write path, per node, and
/// merged across nodes. Merging is associative, and `violation` keeps
/// the leftmost (= lowest node index) entry, so sequential folds and
/// chunked parallel reductions produce identical results.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RoundAcc {
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

impl RoundAcc {
    pub(crate) fn merge(a: RoundAcc, b: RoundAcc) -> RoundAcc {
        let mut drops_by_kind = a.drops_by_kind;
        for (d, s) in drops_by_kind.iter_mut().zip(b.drops_by_kind) {
            *d += s;
        }
        RoundAcc {
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

    /// Folds this accumulator's fault counters into a run-level report.
    pub(crate) fn add_faults_to(&self, fr: &mut crate::metrics::FaultReport) {
        use crate::fault::DropKind;
        fr.dropped_explicit += self.drops_by_kind[DropKind::Explicit.index()];
        fr.dropped_random += self.drops_by_kind[DropKind::Random.index()];
        fr.dropped_crash += self.drops_by_kind[DropKind::Crash.index()];
        fr.dropped_cut += self.drops_by_kind[DropKind::Cut.index()];
        fr.dropped_burst += self.drops_by_kind[DropKind::Burst.index()];
        fr.corrupted_delivered += self.corrupted_delivered;
        fr.corrupted_rejected += self.corrupted_rejected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_associative_and_keeps_leftmost_violation() {
        let a =
            RoundAcc { messages: 1, bits: 10, violation: Some((3, 0, 9)), ..RoundAcc::default() };
        let b =
            RoundAcc { messages: 2, bits: 5, violation: Some((7, 1, 4)), ..RoundAcc::default() };
        let c = RoundAcc { messages: 4, max_link_bits: 99, ..RoundAcc::default() };
        let left = RoundAcc::merge(RoundAcc::merge(a, b), c);
        let right = RoundAcc::merge(a, RoundAcc::merge(b, c));
        assert_eq!(left.messages, 7);
        assert_eq!(left.messages, right.messages);
        assert_eq!(left.max_link_bits, 99);
        assert_eq!(left.violation, Some((3, 0, 9)));
        assert_eq!(right.violation, Some((3, 0, 9)));
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
        let base = arena.segment_ptr(0) as usize;
        let mut addrs = Vec::new();
        for w in 0..segs {
            assert_eq!(arena.segment_ptr(w) as usize, base + w * n * stride);
            for v in 0..n as NodeIndex {
                // SAFETY: single-threaded test, no overlapping access.
                let b = unsafe { arena.inbox(w, v) };
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
    /// back — leaves every box empty, including the ones the smaller
    /// shape does not address; and `gather` merges a receiver's boxes in
    /// ascending segment order into the first nonempty one.
    #[test]
    fn reshaping_reset_empties_every_box() {
        let fill = |arena: &InboxArena<u64>, n: usize, segs: usize| {
            for w in 0..segs {
                for v in 0..n as NodeIndex {
                    // SAFETY: single-threaded test, no overlapping access.
                    let b = unsafe { arena.inbox(w, v) };
                    b.push(Packet::Own { port: w as u32, msg: u64::from(v) });
                }
            }
        };
        let all_empty =
            |arena: &mut InboxArena<u64>| arena.boxes.iter_mut().all(|b| b.get_mut().is_empty());
        let mut arena: InboxArena<u64> = InboxArena::new();
        arena.reset(5, 3);
        fill(&arena, 5, 3);
        // SAFETY: single-threaded test, no overlapping access.
        let got: Vec<u32> = unsafe { arena.gather(2) }
            .iter()
            .map(|p| match p {
                Packet::Own { port, .. } | Packet::Shared { port, .. } => *port,
            })
            .collect();
        assert_eq!(got, vec![0, 1, 2], "gather keeps ascending segment order");
        for w in 1..3 {
            // SAFETY: as above.
            assert!(unsafe { arena.inbox(w, 2) }.is_empty(), "gathered boxes are emptied");
        }
        arena.reset(4, 1);
        assert_eq!(arena.boxes.len(), 15, "shrinking keeps the backing boxes");
        assert!(all_empty(&mut arena));
        fill(&arena, 4, 1);
        arena.reset(5, 3);
        assert!(all_empty(&mut arena));
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
