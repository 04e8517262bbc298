//! The tester's node state, in one arena.
//!
//! A node of the full tester (Algorithm 1) keeps two sequence sets from
//! one step to the next: its last sent set and a spare payload backing.
//! Its arbitration state is one running minimum, the served edge's tag,
//! which the program holds itself: Phase 1 lowers it with each incident
//! edge's key, and absorb with each incoming Phase-2 tag, so no per-port
//! state exists. A step also needs temporaries: the received set, the
//! send set and a prune workspace, all dead once the step returns.
//! Instead of small heap buffers per node, one cache miss each per step,
//! a [`SoaArena`] keeps one entry per node in a single array and shares
//! the temporaries per executor chunk, and each node's program holds a
//! 16-byte `SoaView`: a pointer to its node's entry and one to its
//! chunk's temporaries. This is the only node-state layout: the
//! sequential, parallel and distributed executors (and so `ckserve`)
//! all run the tester over arena views.
//!
//! Layout, by access pattern:
//!
//! * **node-major** — state that outlives a step and whose size is
//!   dynamic (Lemma 3 bounds send sets by `(k-t+1)^{t-1}`,
//!   astronomically large near `MAX_K`, so static slabs are ruled out):
//!   `own_sent`, the last send set, read by the next round's decision,
//!   and the spare payload backing, the payload the node's last
//!   broadcast evicted from the engine's broadcast slot, which its next
//!   send fills and ships. Each is a [`SeqRows`] header over a
//!   demand-grown backing; a node's two headers share its entry.
//! * **chunk-shared** — the per-step temporaries: the received set
//!   `recv`, the send set `send` and the prune workspace. Each is reset
//!   at the start of every use and dead once the step returns, so nodes
//!   that provably step on the same executor thread share one: the
//!   arena allocates one `StepScratch` per contiguous chunk of the
//!   [`ck_congest::engine::node_step_plan`] snapshot the tester pins on
//!   the run, instead of one per node.
//!
//! Both arrays are kept in the engine's step order: entry `p` belongs to
//! the node at step position `p` (`NodeInit::position`, the node index
//! unless the graph steps in BFS order), and chunk `w` to the positions
//! the executor's chunk `w` steps. A node's entry then sits next to its
//! neighbours' when the step order keeps neighbourhoods together.
//!
//! A warm `SoaArena::prepare` performs zero heap operations for a
//! same-shape rerun — the contract `tests/alloc_gate.rs` pins down.

use crate::prune::SendSetScratch;
use crate::seq::SeqRows;
use ck_congest::graph::Graph;

/// The state one node keeps from step to step.
#[derive(Default)]
struct NodeEntry {
    /// Last sent sequences, kept for the decision round.
    own_sent: SeqRows,
    /// Spare backing for the next outgoing payload.
    spare: SeqRows,
}

/// The per-step temporaries of one executor chunk: reset at every use
/// and dead once a node's step returns, so the nodes of one chunk share
/// them (see `SoaView`'s invariants). Every step writes these headers,
/// so each chunk's copy sits on cache lines of its own: neighbouring
/// chunks step on different threads.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct StepScratch {
    /// The served edge's received set (absorb output).
    recv: SeqRows,
    /// The send set under construction.
    send: SeqRows,
    /// Pruner workspace.
    prune: SendSetScratch,
}

/// The arena owning every tester node's state. A `TesterSession` and
/// each batch shard own one and recycle it across runs; a distributed
/// worker prepares one per job. See the module docs for the layout.
#[derive(Default)]
pub struct SoaArena {
    /// One entry per node, in step order (node-major).
    nodes: Vec<NodeEntry>,
    /// Chunk-shared step temporaries (one per executor chunk).
    chunk_scratch: Vec<StepScratch>,
    /// The executor partition's chunk length this arena was prepared for.
    chunk_len: usize,
}

impl SoaArena {
    /// Sizes and clears the arena for a run on `g`: own sets cleared
    /// (backings kept), spares kept as they are, and chunk-shared
    /// scratch sized for `chunk_len` elements per executor chunk. The
    /// caller passes the chunk length of the *same* plan snapshot it
    /// pins on the run (parallel:
    /// [`ck_congest::engine::node_step_plan`] via
    /// `EngineWorkspace::pin_node_chunk_plan`; sequential executor and
    /// distributed worker: one chunk of `n`), so the scratch layout and
    /// the executing partition agree by construction. Warm same-shape
    /// calls allocate nothing.
    pub(crate) fn prepare(&mut self, g: &Graph, chunk_len: usize) {
        let n = g.n();
        self.nodes.resize_with(n, NodeEntry::default);
        for node in &mut self.nodes {
            node.own_sent.reset(0);
        }
        self.chunk_len = chunk_len.max(1);
        let chunks = n.div_ceil(self.chunk_len).max(1);
        self.chunk_scratch.resize_with(chunks, StepScratch::default);
    }

    /// The prepared arena's buffer addresses, for handing views to the
    /// node programs. Call after [`SoaArena::prepare`] for the same run;
    /// until every view is dropped the arena must not be accessed
    /// through any other path.
    pub(crate) fn bases(&mut self) -> SoaBases {
        SoaBases {
            nodes: self.nodes.as_mut_ptr(),
            chunk_scratch: self.chunk_scratch.as_mut_ptr(),
            n: self.nodes.len(),
            chunk_len: self.chunk_len,
        }
    }
}

/// The buffer addresses of one prepared [`SoaArena`], returned by
/// [`SoaArena::bases`]: a `Copy` value, so the program factory closure
/// can stamp out views without borrowing the arena.
#[derive(Clone, Copy)]
pub(crate) struct SoaBases {
    nodes: *mut NodeEntry,
    chunk_scratch: *mut StepScratch,
    n: usize,
    chunk_len: usize,
}

/// Exclusive borrows of every buffer one tester step touches, handed
/// out by [`SoaView::bufs`]. The sequence sets stay growable [`SeqRows`]
/// because Lemma 3's send-set bound is astronomically large near
/// `MAX_K`, which rules out statically sized slabs.
pub(crate) struct BufsRef<'a> {
    /// Last sent sequences, kept for the decision round.
    pub(crate) own_sent: &'a mut SeqRows,
    /// Spare backing for the next outgoing payload (empty after a send
    /// until a broadcast evicts one back).
    pub(crate) spare: &'a mut SeqRows,
    /// Deduplicated sequences of the served edge (absorb output; shared
    /// by the nodes of one executor chunk).
    pub(crate) recv: &'a mut SeqRows,
    /// The send set under construction (chunk-shared).
    pub(crate) send: &'a mut SeqRows,
    /// Pruner workspace (chunk-shared).
    pub(crate) prune: &'a mut SendSetScratch,
}

/// One node's window into the arena: 16 bytes, a pointer to its node's
/// entry and one to its chunk's temporaries, so the engine's slot array
/// stays dense.
///
/// # Invariants (uphold all uses of the raw pointers)
///
/// * Both pointers were derived from one [`SoaArena::bases`] call on a
///   prepared arena that is not otherwise accessed until the last view
///   drops ([`SoaArena::bases`]'s contract).
/// * `node` is entry `position` and `scratch` is chunk
///   `position / chunk_len` for some `position < n`, checked at
///   construction, so both lie inside the prepared arrays. `position` is
///   the node's [`NodeInit::position`](ck_congest::node::NodeInit),
///   its place in the order the engine steps nodes in; the executor's
///   chunks are contiguous runs of positions, not of node indices.
/// * Node entries are disjoint across views: each node has one view.
/// * The chunk-shared [`StepScratch`] (`recv`, `send` and the prune
///   workspace, each reset at every use and dead once a step returns)
///   is aliased only by views whose nodes step on the same executor
///   thread: the tester captures one
///   [`ck_congest::engine::node_step_plan`] snapshot, sizes this
///   arena's scratch from its `chunk_len` (`prepare`), and pins the
///   very same snapshot on the run
///   (`EngineWorkspace::pin_node_chunk_plan`), so the executing
///   partition — contiguous chunks of exactly `chunk_len` nodes — and
///   the scratch layout agree by construction for the whole run, even
///   if the forced-worker state mutates concurrently. Keyed by node
///   index instead, two nodes stepped by different threads could share
///   a chunk's scratch whenever the step order is not the index order.
///   The sequential
///   executor is one thread with one chunk, and so is a distributed
///   worker: its partition engine steps the owned node range on one
///   thread, so it prepares the arena for the whole graph as a single
///   chunk and builds views only for its own nodes. Within a thread, at
///   most one `bufs()` borrow is live at a time (`&mut self` methods of
///   one program).
pub(crate) struct SoaView {
    node: *mut NodeEntry,
    scratch: *mut StepScratch,
}

// SAFETY: a view crossing threads carries only pointers to its own
// node's entry, which no other view reaches, and to its chunk's
// scratch, which crosses with the whole chunk (invariants above).
unsafe impl Send for SoaView {}

impl SoaView {
    /// The view of the node at step position `position` in the arena
    /// `bases` addresses.
    ///
    /// # Panics
    /// Panics when `position` is not a position of the prepared arena.
    pub(crate) fn new(bases: SoaBases, position: usize) -> Self {
        assert!(position < bases.n, "position {position} outside an arena of {} nodes", bases.n);
        SoaView {
            node: bases.nodes.wrapping_add(position),
            scratch: bases.chunk_scratch.wrapping_add(position / bases.chunk_len),
        }
    }

    /// Exclusive borrows of every buffer this node's step touches.
    pub(crate) fn bufs(&mut self) -> BufsRef<'_> {
        // SAFETY: both pointers lie inside the prepared arena's arrays
        // (`position < n` at construction), the node entry is this view's
        // alone and the chunk scratch is used by one thread at a time
        // (the type's invariants); the borrows' lifetime is tied to
        // `&mut self`, so a second `bufs()` on the same view cannot
        // overlap the first.
        let (node, scratch) = unsafe { (&mut *self.node, &mut *self.scratch) };
        let (NodeEntry { own_sent, spare }, StepScratch { recv, send, prune }) = (node, scratch);
        BufsRef { own_sent, spare, recv, send, prune }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ck_graphgen::planted::eps_far_instance;
    use std::mem::offset_of;

    fn addr<T>(r: &T) -> usize {
        std::ptr::from_ref(r) as usize
    }

    /// Prepares `arena` for `g` with `chunk_len` nodes per chunk, builds
    /// one view per node, and checks `SoaView`'s `# Invariants` against
    /// the arena's buffer addresses: node `v`'s sets are the fields of
    /// entry `v`, and its temporaries those of chunk `v / chunk_len`.
    fn check_views(arena: &mut SoaArena, g: &Graph, chunk_len: usize) {
        arena.prepare(g, chunk_len);
        assert_eq!(arena.nodes.len(), g.n(), "one entry per node");
        assert_eq!(arena.chunk_scratch.len(), g.n().div_ceil(chunk_len), "one scratch per chunk");
        let bases = arena.bases();
        let (nodes, chunks) = (bases.nodes as usize, bases.chunk_scratch as usize);
        for v in 0..g.n() {
            let mut view = SoaView::new(bases, v);
            let bufs = view.bufs();
            let entry = nodes + v * size_of::<NodeEntry>();
            assert_eq!(addr(bufs.own_sent), entry + offset_of!(NodeEntry, own_sent), "node {v}");
            assert_eq!(addr(bufs.spare), entry + offset_of!(NodeEntry, spare), "node {v}");
            let chunk = chunks + v / chunk_len * size_of::<StepScratch>();
            assert_eq!(addr(bufs.recv), chunk + offset_of!(StepScratch, recv), "node {v}");
            assert_eq!(addr(bufs.send), chunk + offset_of!(StepScratch, send), "node {v}");
            assert_eq!(addr(bufs.prune), chunk + offset_of!(StepScratch, prune), "node {v}");
        }
    }

    #[test]
    fn views_tile_the_arena() {
        assert_eq!(size_of::<SoaView>(), 16, "two pointers");
        let mut arena = SoaArena::default();
        check_views(&mut arena, &eps_far_instance(40, 5, 0.1, 1).graph, 3);
        // A warm re-prepare for a smaller graph: the shape change a
        // batch shard makes between jobs.
        check_views(&mut arena, &eps_far_instance(20, 4, 0.1, 2).graph, 3);
    }
}
