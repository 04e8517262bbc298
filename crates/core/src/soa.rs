//! The tester's node state, in one arena.
//!
//! Every node of the full tester (Algorithm 1) carries O(degree) state:
//! port ranks, absorb lanes, its last sent sequence set and a spare
//! payload backing. A step also needs temporaries: the received set, the
//! send set and a prune workspace, all dead once the step returns.
//! Instead of small heap buffers per node, one cache miss each per step, a
//! [`SoaArena`] packs the per-node state into a few large buffers and
//! shares the temporaries per executor chunk, and each node's program
//! holds a 24-byte `SoaView` of index-based raw-pointer slices into it.
//! This is the only node-state layout: the sequential, parallel and
//! distributed executors (and so `ckserve`) all run the tester over
//! arena views.
//!
//! Layout, by access pattern:
//!
//! * **lane-major (flat, CSR-offset)** — buffers whose per-node size is
//!   exactly the degree, read/written port-wise every round: the Phase-1
//!   `port_rank` stream (one `u64` per directed edge, `0` = unknown since
//!   ranks are ≥ 1) and the absorb pass's `EdgeTag`/payload-location
//!   lanes (at most one Phase-2 message per port per round under
//!   CONGEST). Neighbors in the CSR order are adjacent in memory, so the
//!   parallel executor's contiguous node chunks stream these lanes.
//! * **node-major (header array)** — state that outlives a step and
//!   whose per-node size is dynamic (Lemma 3 bounds send sets by
//!   `(k-t+1)^{t-1}`, astronomically large near `MAX_K`, so static slabs
//!   are ruled out): `own_sent`, the last send set, read by the next
//!   round's decision, keeps its demand-grown [`SeqRows`] backing with
//!   the header in one arena array, as does each node's spare payload
//!   backing: the payload its last broadcast evicted from the engine's
//!   broadcast slot, which its next send fills and ships.
//! * **chunk-shared** — the per-step temporaries: the received set
//!   `recv`, the send set `send` and the prune workspace. Each is reset
//!   at the start of every use and dead once the step returns, so nodes
//!   that provably step on the same executor thread share one: the
//!   arena allocates one `StepScratch` per contiguous chunk of the
//!   [`ck_congest::engine::node_step_plan`] snapshot the tester pins on
//!   the run, instead of one per node.
//!
//! A warm `SoaArena::prepare` performs zero heap operations for a
//! same-shape rerun — the contract `tests/alloc_gate.rs` pins down.

use crate::msg::EdgeTag;
use crate::prune::SendSetScratch;
use crate::seq::SeqRows;
use ck_congest::graph::Graph;

/// A Phase-2 payload location captured during one absorb pass. Dead
/// outside that pass — the tag lanes are length-reset before every use,
/// so a stale pointer is never dereferenced.
#[derive(Clone, Copy)]
pub(crate) struct BundleLoc(pub(crate) *const SeqRows);

impl BundleLoc {
    /// Lane fill value; never dereferenced (reads are bounded by the
    /// absorb pass's live length).
    const NULL: BundleLoc = BundleLoc(std::ptr::null());
}

// SAFETY: the pointer is only formed and dereferenced inside a single
// absorb pass on one thread; whenever a program crosses threads
// (between rounds) no live pointer exists.
unsafe impl Send for BundleLoc {}

/// Lane fill value for the tag lane; never read (bounded by the absorb
/// pass's live length).
const TAG_FILL: EdgeTag = EdgeTag { rank: 0, lo: 0, hi: 0 };

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
    /// CSR port offsets: node `v`'s lane slice is `port_off[v]..port_off[v+1]`.
    port_off: Vec<u32>,
    /// Phase-1 rank per port (lane-major; `0` = unknown, ranks are ≥ 1).
    port_rank: Vec<u64>,
    /// Absorb-pass tag lane (lane-major, capacity = degree exactly).
    tag_tags: Vec<EdgeTag>,
    /// Absorb-pass payload-location lane (lane-major).
    tag_locs: Vec<BundleLoc>,
    /// Last sent sequences, kept for the decision round (node-major).
    own_sent: Vec<SeqRows>,
    /// Per-node spare payload backings (node-major).
    spares: Vec<SeqRows>,
    /// Chunk-shared step temporaries (one per executor chunk).
    chunk_scratch: Vec<StepScratch>,
    /// The executor partition's chunk length this arena was prepared for.
    chunk_len: usize,
    /// The base-pointer table, refreshed by [`SoaArena::bases`]; views
    /// hold one pointer to this field instead of an 80-byte copy each,
    /// keeping the engine's per-node slots small.
    bases: SoaBases,
}

impl SoaArena {
    /// Sizes and clears the arena for a run on `g`: CSR offsets rebuilt,
    /// lanes zeroed, own sets cleared (backings kept), spares kept as
    /// they are, and chunk-shared scratch sized for `chunk_len`
    /// elements per executor chunk. The caller passes the chunk length
    /// of the *same* plan snapshot it pins on the run (parallel:
    /// [`ck_congest::engine::node_step_plan`] via
    /// `EngineWorkspace::pin_node_chunk_plan`; sequential executor and
    /// distributed worker: one chunk of `n`), so the scratch layout and
    /// the executing partition agree by construction. Warm same-shape
    /// calls allocate nothing.
    pub(crate) fn prepare(&mut self, g: &Graph, chunk_len: usize) {
        let n = g.n();
        let lanes = g.num_directed_edges();
        self.port_off.clear();
        self.port_off.reserve(n + 1);
        let mut off = 0u32;
        self.port_off.push(0);
        for v in 0..n {
            off += g.degree(v as ck_congest::graph::NodeIndex) as u32;
            self.port_off.push(off);
        }
        self.port_rank.clear();
        self.port_rank.resize(lanes, 0);
        self.tag_tags.clear();
        self.tag_tags.resize(lanes, TAG_FILL);
        self.tag_locs.clear();
        self.tag_locs.resize(lanes, BundleLoc::NULL);
        self.own_sent.resize_with(n, SeqRows::default);
        for own in &mut self.own_sent {
            own.reset(0);
        }
        self.spares.resize_with(n, SeqRows::default);
        self.chunk_len = chunk_len.max(1);
        let chunks = n.div_ceil(self.chunk_len).max(1);
        self.chunk_scratch.resize_with(chunks, StepScratch::default);
    }

    /// Refreshes and returns the arena's base-pointer table, for
    /// handing index-based views to the node programs. Must be called
    /// after [`SoaArena::prepare`] for the same run; until every view
    /// is dropped the arena must not be accessed through any other path
    /// **and must not move** (the returned pointer targets the `bases`
    /// field in place).
    pub(crate) fn bases(&mut self) -> *const SoaBases {
        self.bases = SoaBases {
            port_off: self.port_off.as_ptr(),
            port_rank: self.port_rank.as_mut_ptr(),
            tag_tags: self.tag_tags.as_mut_ptr(),
            tag_locs: self.tag_locs.as_mut_ptr(),
            own_sent: self.own_sent.as_mut_ptr(),
            spares: self.spares.as_mut_ptr(),
            chunk_scratch: self.chunk_scratch.as_mut_ptr(),
            chunk_len: self.chunk_len,
        };
        &self.bases
    }
}

/// Raw base pointers into one prepared [`SoaArena`]. Stored once in
/// the arena's `bases` field; each [`SoaView`] carries one pointer to
/// it (always-hot shared cache line) instead of its own copy, so the
/// program factory closure can stamp out views without borrowing the
/// arena and the engine's per-node slots stay small.
#[derive(Clone, Copy)]
pub(crate) struct SoaBases {
    port_off: *const u32,
    port_rank: *mut u64,
    tag_tags: *mut EdgeTag,
    tag_locs: *mut BundleLoc,
    own_sent: *mut SeqRows,
    spares: *mut SeqRows,
    chunk_scratch: *mut StepScratch,
    chunk_len: usize,
}

// SAFETY: the pointers target a prepared arena that outlives the run;
// every view derived from them touches only its own node's disjoint
// regions (see `SoaView`'s invariants).
unsafe impl Send for SoaBases {}

impl Default for SoaBases {
    /// Null table for a fresh arena; replaced by [`SoaArena::bases`]
    /// before any view exists.
    fn default() -> Self {
        SoaBases {
            port_off: std::ptr::null(),
            port_rank: std::ptr::null_mut(),
            tag_tags: std::ptr::null_mut(),
            tag_locs: std::ptr::null_mut(),
            own_sent: std::ptr::null_mut(),
            spares: std::ptr::null_mut(),
            chunk_scratch: std::ptr::null_mut(),
            chunk_len: 1,
        }
    }
}

/// Exclusive borrows of every buffer one tester step touches, handed
/// out by [`SoaView::bufs`]. Lane buffers (`ports`, `tags`, `locs`) are
/// degree-sized slices; the sequence sets stay growable [`SeqRows`]
/// because Lemma 3's send-set bound is astronomically large near
/// `MAX_K`, which rules out statically sized slabs.
pub(crate) struct BufsRef<'a> {
    /// Phase-1 rank per port (`0` = unknown).
    pub(crate) ports: &'a mut [u64],
    /// Absorb-pass tag lane (capacity = degree).
    pub(crate) tags: &'a mut [EdgeTag],
    /// Absorb-pass payload-location lane.
    pub(crate) locs: &'a mut [BundleLoc],
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

/// One node's index-based window into the arena. 24 bytes — one
/// pointer to the arena's base table plus this node's coordinates — so
/// the engine's slot array stays dense.
///
/// # Invariants (uphold all uses of the raw bases)
///
/// * `bases` targets the `bases` field of a prepared [`SoaArena`] that
///   neither moves nor is otherwise accessed until the last view drops
///   ([`SoaArena::bases`]'s contract).
/// * `node < n`, `off..off + deg` is node `node`'s CSR lane range, and
///   `chunk = node / chunk_len` — all fixed at construction from the
///   prepared arena's own tables.
/// * Per-node regions are disjoint across views: lane slices by CSR
///   construction, `own_sent` and spare headers by index.
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
///   if the forced-worker state mutates concurrently. The sequential
///   executor is one thread with one chunk, and so is a distributed
///   worker: its partition engine steps the owned node range on one
///   thread, so it prepares the arena for the whole graph as a single
///   chunk and builds views only for its own nodes. Within a thread, at
///   most one `bufs()` borrow is live at a time (`&mut self` methods of
///   one program).
/// * The arena is dormant for the whole run: no `&`/`&mut` to it is
///   formed between `bases()` and the last program drop.
pub(crate) struct SoaView {
    bases: *const SoaBases,
    node: u32,
    off: u32,
    deg: u32,
    chunk: u32,
}

// SAFETY: a view crossing threads carries only raw pointers whose
// reachable regions are disjoint from every other view's (invariants
// above); the chunk-shared scratch crosses with the whole chunk.
unsafe impl Send for SoaView {}

impl SoaView {
    /// The view of node `index`. Reads the prepared arena's CSR table
    /// through `bases` — callable only between [`SoaArena::bases`] and
    /// the run's first step.
    pub(crate) fn new(bases: *const SoaBases, index: usize) -> Self {
        // SAFETY: `bases` was just returned by `SoaArena::bases` on the
        // prepared arena, `prepare` sized `port_off` to n + 1 entries,
        // and the factory only passes `index < n`.
        let (b, off, end) = unsafe {
            let b = &*bases;
            (b, *b.port_off.add(index), *b.port_off.add(index + 1))
        };
        SoaView {
            bases,
            node: index as u32,
            off,
            deg: end - off,
            chunk: (index / b.chunk_len.max(1)) as u32,
        }
    }

    /// Exclusive borrows of every buffer this node's step touches.
    pub(crate) fn bufs(&mut self) -> BufsRef<'_> {
        // SAFETY: `bases` targets the dormant arena's base table
        // (shared read; only `SoaArena::bases` writes it, before any
        // view exists).
        let b = unsafe { &*self.bases };
        let (off, deg, node, chunk) =
            (self.off as usize, self.deg as usize, self.node as usize, self.chunk as usize);
        // SAFETY: all regions are inside the prepared arena (CSR bounds
        // for the lanes, `node < n` for the headers, chunk count
        // for the scratch); disjointness and non-aliasing per the type's
        // invariants; the borrows' lifetime is tied to `&mut self`, so a
        // second `bufs()` on the same view cannot overlap the first.
        unsafe {
            let StepScratch { recv, send, prune } = &mut *b.chunk_scratch.add(chunk);
            BufsRef {
                ports: std::slice::from_raw_parts_mut(b.port_rank.add(off), deg),
                tags: std::slice::from_raw_parts_mut(b.tag_tags.add(off), deg),
                locs: std::slice::from_raw_parts_mut(b.tag_locs.add(off), deg),
                own_sent: &mut *b.own_sent.add(node),
                spare: &mut *b.spares.add(node),
                recv,
                send,
                prune,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ck_congest::graph::NodeIndex;
    use ck_graphgen::planted::eps_far_instance;

    /// Prepares `arena` for `g` with `chunk_len` nodes per chunk, builds
    /// one view per node, and checks `SoaView`'s `# Invariants` directly
    /// against the arena's base pointers.
    fn check_views(arena: &mut SoaArena, g: &Graph, chunk_len: usize) {
        let (min_deg, max_deg) = (0..g.n() as NodeIndex)
            .map(|v| g.degree(v))
            .fold((usize::MAX, 0), |(lo, hi), d| (lo.min(d), hi.max(d)));
        assert!(min_deg < max_deg, "the graph must mix degrees");
        arena.prepare(g, chunk_len);
        let bases = arena.bases();
        // SAFETY: `bases` was just returned by `bases()` on the prepared
        // arena, which is not touched again until every view drops.
        let b = unsafe { *bases };
        let lane = |p: *const u8, base: *const u8, size: usize| (p as usize - base as usize) / size;
        let mut next_lane = 0usize;
        let mut headers = Vec::new();
        for v in 0..g.n() {
            let mut view = SoaView::new(bases, v);
            assert_eq!(view.chunk as usize, v / chunk_len, "node {v}: chunk");
            let deg = g.degree(v as NodeIndex);
            let start = g.directed_edge_range(v as NodeIndex).start as usize;
            let bufs = view.bufs();
            assert_eq!((bufs.ports.len(), bufs.tags.len(), bufs.locs.len()), (deg, deg, deg));
            // Each lane slice starts at the node's CSR offset, and that
            // offset is where the previous node's lanes ended.
            assert_eq!(start, next_lane, "node {v}: lanes must abut the previous node's");
            let ports = lane(bufs.ports.as_ptr().cast(), b.port_rank.cast(), size_of::<u64>());
            let tags = lane(bufs.tags.as_ptr().cast(), b.tag_tags.cast(), size_of::<EdgeTag>());
            let locs = lane(bufs.locs.as_ptr().cast(), b.tag_locs.cast(), size_of::<BundleLoc>());
            assert_eq!((ports, tags, locs), (start, start, start), "node {v}: lane offsets");
            next_lane += deg;
            // The own set and the spare are this node's own entries; the
            // step temporaries are its chunk's.
            let own_sent: *const SeqRows = &*bufs.own_sent;
            let spare: *const SeqRows = &*bufs.spare;
            let recv: *const SeqRows = &*bufs.recv;
            let send: *const SeqRows = &*bufs.send;
            let prune: *const SendSetScratch = &*bufs.prune;
            // SAFETY: offsets within the prepared arrays (`v < n`,
            // `v / chunk_len` < chunk count); only addresses are formed.
            unsafe {
                assert_eq!(own_sent, b.own_sent.add(v).cast_const());
                assert_eq!(spare, b.spares.add(v).cast_const());
                let scratch = b.chunk_scratch.add(v / chunk_len);
                assert_eq!(recv, &raw const (*scratch).recv);
                assert_eq!(send, &raw const (*scratch).send);
                assert_eq!(prune, &raw const (*scratch).prune);
            }
            headers.extend([own_sent as usize, spare as usize]);
        }
        assert_eq!(next_lane, g.num_directed_edges(), "views must tile every directed-edge lane");
        let count = headers.len();
        headers.sort_unstable();
        headers.dedup();
        assert_eq!(headers.len(), count, "own_sent/spare addresses must be distinct");
    }

    #[test]
    fn views_tile_the_arena() {
        let mut arena = SoaArena::default();
        check_views(&mut arena, &eps_far_instance(40, 5, 0.1, 1).graph, 3);
        // A warm re-prepare for a smaller graph: the shape change a
        // batch shard makes between jobs.
        check_views(&mut arena, &eps_far_instance(20, 4, 0.1, 2).graph, 3);
    }
}
