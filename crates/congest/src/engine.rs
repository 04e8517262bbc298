//! The synchronous round engine, built on preallocated double-buffered
//! CSR mailboxes.
//!
//! Executes a [`Program`] on every node of a [`Graph`] in lock-step
//! rounds. Every executor runs one round loop. A run's nodes step in
//! `W` contiguous chunks — the chunks of its pinned
//! [`rayon::ChunkPlan`] in process (one for the sequential executor,
//! one per scoped thread for the parallel executor on wide graphs), or
//! the `W` workers' node ranges of a distributed run, where each worker
//! ([`crate::net::PartitionEngine`]) steps its range through the same
//! per-node step. Messages travel through a *mailbox*: one payload
//! pointer per directed edge, indexed on the receiver's side, so a
//! message sent on `(v, p)` lands at [`Graph::reverse_edge`]`(v, p)`,
//! in the row of `v`'s neighbour at `v`'s position. Two such arenas
//! swap roles each round — nodes read round `r`'s traffic out of the
//! *current* arena while writing round `r+1`'s into the *next* one.
//!
//! The model's link rule is the engine's: a node sends at most one
//! message to each neighbour per round, and a second send or broadcast
//! on a link panics (see [`Outbox::send`]), so one mailbox slot per
//! link holds all of its traffic.
//!
//! A mailbox slot points at its payload. A broadcast's payload is
//! parked once in its sender's broadcast slot; every other payload
//! (targeted sends, corrupted copies) moves into the payload arena of
//! the sender's *segment* — one per chunk, built from address-stable
//! blocks and written only by the thread stepping the chunk. A
//! generation's arena payloads are dropped in one pass when it re-enters
//! the write role. A parked broadcast stays in its slot, across the runs
//! of one workspace too, until the sender's next broadcast into that
//! generation evicts it back to the program. After warm-up every payload
//! arena has reached its peak capacity and the steady-state round loop
//! allocates nothing.
//!
//! Within one round each node, independently of all others (this is the
//! data-parallelism the model prescribes, exploited by the parallel
//! executor):
//!
//! 1. **reads** its own contiguous mailbox row in the current arena.
//!    The row's port order is ascending sender order, so delivery order
//!    is canonical and runs are bit-for-bit reproducible across the
//!    [`Executor`]s and chunk counts, with no gather and no sort;
//! 2. **steps** its program on that view and nulls the row; the outbox
//!    stores every send *straight into the link's slot of the next
//!    arena's mailbox* — one 8-byte store — fusing the wire accounting
//!    into the write path: a link's load is its one message, so
//!    bandwidth enforcement checks each message's size as it lands, and
//!    round statistics accumulate into per-chunk [`RoundDigest`]s
//!    merged associatively after the round. One move per message, no
//!    queue in between.
//!
//! The merged digest's [`RoundDigest::close_round`] is the one
//! post-round step of every executor: violation check, halts, faults,
//! stats row.
//!
//! When nothing can observe the wire counters (no round recording, no
//! bandwidth cap, no fault plan) the send path drops the accounting
//! entirely (see `SinkMode` in the `node` module).
//!
//! Safety of the shared arenas rests on two disjointness invariants,
//! both enforced by construction: during a round, the *next* arena's
//! mailbox slot of directed edge `(v, p)` is written only by sender
//! `v`'s step, and segment `w` (its payload arena) only by the thread
//! stepping chunk `w`; and receiver `v`'s row of the
//! *current* arena's mailbox is read and nulled only by `v`'s own step.
//! Every pointer points into its own arena generation, which nobody
//! writes during its read phase.
//!
//! The engine also maintains the count of running nodes incrementally
//! (nodes only ever transition `Running → Halted`), so termination
//! detection is O(1) per round instead of an O(n) scan.

use rayon::prelude::*;

use crate::arena::{InboxArena, RoundDigest, Segment};
use crate::fault::FaultPlan;
use crate::graph::{Graph, NodeIndex};
use crate::message::WireParams;
use crate::metrics::RunReport;
use crate::node::{DirectSink, Inbox, NodeInit, Outbox, Program, SinkCtx, SinkMode, Status};

/// How strictly the engine applies the `O(log n)`-bit CONGEST bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BandwidthPolicy {
    /// No cap; loads are still measured and reported.
    Measure,
    /// Hard-fail the run if any directed link carries more than `bits` in
    /// one round. Use this to demonstrate that unpruned protocols violate
    /// the model while Algorithm 1 fits after normalization.
    Enforce { bits: u64 },
}

/// Which executor steps the nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Executor {
    /// Plain loop; reference semantics.
    Sequential,
    /// Steps the nodes in contiguous chunks on scoped threads (rayon
    /// `par_iter_mut` under the run's pinned [`node_step_plan`]), each
    /// chunk writing its own inbox segment; results are bit-identical
    /// to `Sequential`. Below [`NODE_STEP_MIN_PAR_LEN`] nodes it steps
    /// one chunk on the caller's thread. The trade: it spends more CPU
    /// than `Sequential` (thread hand-offs each round) to finish a job
    /// sooner when the host has idle cores, and it can finish later
    /// when it has none. Whether it wins on a given host is measured,
    /// not assumed: perfbench's traced tester-mix run reports the
    /// sequential-over-parallel job time for each graph family `<f>` as
    /// `engine.par_speedup.<f>` (see `perfbench/README.md`).
    #[default]
    Parallel,
    /// Cross-process execution: the graph is partitioned into
    /// `workers` contiguous node ranges, each stepped by its own
    /// worker over the [`crate::net`] frame protocol, with per-round
    /// barriers and the fault machinery of [`crate::net::NetOptions`].
    ///
    /// Distribution requires a protocol layer that can serialize its
    /// job and verdicts (the programs themselves cross the process
    /// boundary as *specs*, not closures) — `ck-core`'s tester session
    /// implements it. The generic engine entry points cannot ship
    /// arbitrary in-process programs, so under this variant they
    /// degrade gracefully to the sequential oracle and record the
    /// degradation in [`crate::metrics::RunReport::net`]; results stay
    /// bit-identical to `Sequential` by construction.
    Distributed {
        /// Worker (partition) count; clamped to at least 1 by users.
        workers: u16,
    },
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Hard cap on executed rounds (guards non-terminating protocols).
    pub max_rounds: u32,
    /// Bandwidth policy.
    pub bandwidth: BandwidthPolicy,
    /// Executor choice.
    pub executor: Executor,
    /// If true, per-round stats are recorded in the report (tiny cost;
    /// disable only for the hottest benchmark loops).
    pub record_rounds: bool,
    /// Deterministic message-loss plan (defaults to no loss). Dropped
    /// messages are charged to the sender's accounting but never
    /// delivered.
    pub faults: crate::fault::FaultPlan,
    /// Transport tuning and fault-recovery policy of the distributed
    /// executor; inert under the in-process executors.
    pub net: crate::net::NetOptions,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_rounds: 1 << 20,
            bandwidth: BandwidthPolicy::Measure,
            executor: Executor::Parallel,
            record_rounds: true,
            faults: crate::fault::FaultPlan::none(),
            net: crate::net::NetOptions::default(),
        }
    }
}

/// Run failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A directed link exceeded the enforced per-round bit budget.
    BandwidthExceeded { round: u32, node: NodeIndex, port: u32, bits: u64, limit: u64 },
    /// The distributed executor failed at the transport layer and
    /// fallback was disabled ([`crate::net::NetOptions::fallback`]).
    /// With fallback on (the default) this variant never escapes — the
    /// run degrades to the sequential oracle instead.
    Net(crate::net::NetError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BandwidthExceeded { round, node, port, bits, limit } => {
                write!(f, "round {round}: node {node} port {port} sent {bits} bits > limit {limit}")
            }
            EngineError::Net(e) => write!(f, "distributed transport failure: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Result of a completed run: the measurement report plus one verdict per
/// node (indexed by node index).
#[derive(Clone, Debug)]
pub struct RunOutcome<V> {
    pub report: RunReport,
    pub verdicts: Vec<V>,
}

// Manual impl: an empty outcome needs no `V: Default` bound.
impl<V> Default for RunOutcome<V> {
    fn default() -> Self {
        RunOutcome { report: RunReport::default(), verdicts: Vec::new() }
    }
}

impl<V> RunOutcome<V> {
    /// Clears the outcome for reuse, keeping the report's and the
    /// verdict vector's allocations. A reset outcome is observationally
    /// [`RunOutcome::default`]; the `_into` entry points
    /// ([`crate::session::Session::run_into`],
    /// [`EngineWorkspace::run_on_into`]) reset their output themselves,
    /// so callers only rotate the same buffer back in.
    pub fn reset(&mut self) {
        self.report.reset();
        self.verdicts.clear();
    }
}

/// Reusable engine state for batch runs: the double-buffered mailbox
/// arenas (one segment for the sequential executor, one per chunk of
/// the node→thread partition for the parallel one).
///
/// A fresh workspace owns nothing but empty vectors, so the first run
/// through it allocates the arenas. Later runs *reset* the workspace
/// instead of reallocating: the previously used mailbox extent is
/// nulled, payload arenas are emptied with their blocks kept, and the
/// backing arrays grow only when the next graph (or chunk count) does
/// not fit. Broadcast slots keep their payloads, so a run's first
/// broadcast into each generation may evict one an earlier run parked
/// (see [`Outbox::broadcast`]).
/// A shard of a batch run drives dozens of graphs through one workspace
/// and reaches steady-state allocation-free setup after the largest job
/// has warmed it up.
pub struct EngineWorkspace<M> {
    cur: InboxArena<M>,
    next: InboxArena<M>,
    slots: SlotStore,
    /// One-shot pinned node→thread partition for the next parallel run
    /// (see [`EngineWorkspace::pin_node_chunk_plan`]); consumed by the
    /// run so it can never leak into a later run on a different graph.
    pinned_node_plan: Option<rayon::ChunkPlan>,
}

impl<M> Default for EngineWorkspace<M> {
    fn default() -> Self {
        EngineWorkspace {
            cur: InboxArena::new(),
            next: InboxArena::new(),
            slots: SlotStore::default(),
            pinned_node_plan: None,
        }
    }
}

impl<M> EngineWorkspace<M> {
    /// An empty workspace (allocates nothing until its first run).
    pub fn new() -> Self {
        EngineWorkspace::default()
    }

    /// Pins the parallel executor's node→thread partition for the
    /// **next** run through this workspace to `plan` (normally the
    /// [`node_step_plan`] snapshot external chunk-keyed state was
    /// prepared from — the SoA node-state arena passes the exact plan
    /// its chunk-shared scratch was sized for, so the executing
    /// partition and the scratch layout provably agree even if the
    /// forced-worker state is mutated concurrently). Consumed by that
    /// run; sequential runs discard it. The plan must have been
    /// computed for the run's node count.
    pub fn pin_node_chunk_plan(&mut self, plan: rayon::ChunkPlan) {
        self.pinned_node_plan = Some(plan);
    }

    /// Reuse counters of the per-run slot (program) array — how often a
    /// run through this workspace was served the previous run's storage
    /// versus having to allocate. After the first run of a given
    /// program type, `misses` stays put while `takes` counts the runs.
    pub fn slot_stats(&self) -> SlotStats {
        SlotStats { takes: self.slots.takes, misses: self.slots.misses }
    }

    /// Runs `factory`-instantiated programs on `graph` through this
    /// workspace, writing the result into a caller-owned [`RunOutcome`]
    /// (reset first, capacities kept) — the advanced entry the session
    /// layers are built from, for callers whose workspace must outlive
    /// any single graph borrow (cross-graph batch reuse). Most callers
    /// want [`crate::session::Session`], which owns its workspace and
    /// pins one graph.
    ///
    /// With a warm workspace, a warm outcome buffer, and the sequential
    /// executor, a rerun of the same program type performs zero heap
    /// operations; under the parallel executor its heap operations are
    /// bounded by the rounds (the per-round thread spawns), not by the
    /// node count — the contracts the `ck_lint::alloc_gate` regression
    /// tests enforce. On error the outcome's contents are unspecified.
    pub fn run_on_into<'g, P, F>(
        &mut self,
        graph: &'g Graph,
        config: &EngineConfig,
        params: &WireParams,
        mut factory: F,
        out: &mut RunOutcome<P::Verdict>,
    ) -> Result<(), EngineError>
    where
        P: Program<Msg = M>,
        F: FnMut(NodeInit<'g>) -> P,
    {
        exec_into_with_workspace(graph, config, params, self, &mut factory, out)
    }
}

/// Reuse counters of a workspace's slot-array store (see
/// [`EngineWorkspace::slot_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Slot arrays requested (one per run through the workspace).
    pub takes: u64,
    /// Requests the store could not serve warm: the first run ever, or
    /// a run whose program type has a different memory layout than the
    /// parked array's.
    pub misses: u64,
}

/// Type-erased recycler for the per-run `Slot` program array.
///
/// The slot array's element type depends on the program `P`, which the
/// `M`-keyed workspace cannot name — but across the runs of a batch the
/// program type (and hence its layout) is fixed, so the raw allocation
/// can be parked between runs and re-typed on the way out. The store
/// keeps at most one buffer: the previous run's, parked *empty* (every
/// program was dropped), so the memory holds no live values and reuse
/// is purely a question of layout equality — `Vec<T>` with capacity
/// `cap` owns a `Layout::array::<T>(cap)` allocation, identical for any
/// `T` of equal size and alignment.
#[derive(Default)]
pub(crate) struct SlotStore {
    buf: Option<RawSlotBuf>,
    takes: u64,
    misses: u64,
}

struct RawSlotBuf {
    ptr: std::ptr::NonNull<u8>,
    /// Capacity in elements of the parked `Vec`.
    cap: usize,
    /// Layout of one element; reuse requires an exact match.
    elem: std::alloc::Layout,
}

impl RawSlotBuf {
    fn alloc_layout(&self) -> std::alloc::Layout {
        // size_of is always a multiple of align, so the array layout is
        // exactly (elem.size() * cap, elem.align()).
        std::alloc::Layout::from_size_align(self.elem.size() * self.cap, self.elem.align())
            // ck-lint: allow(no-panic, reason = "size/align came from a live Vec allocation, so the layout was already accepted by the allocator")
            .expect("layout was valid when the Vec allocated it")
    }
}

impl Drop for RawSlotBuf {
    fn drop(&mut self) {
        // SAFETY: `ptr` came out of a `Vec` with exactly this layout
        // (see `SlotStore::put`), and the parked buffer is always empty
        // — nothing needs dropping, only freeing.
        unsafe { std::alloc::dealloc(self.ptr.as_ptr(), self.alloc_layout()) }
    }
}

// SAFETY: the parked buffer holds no initialized elements (length 0 by
// construction) — it is inert memory owned uniquely by the store, so
// moving or sharing the store across threads moves nothing that cares.
unsafe impl Send for SlotStore {}
// SAFETY: same argument as Send — the parked buffer is inert, uniquely
// owned memory, and every accessor takes `&mut self`.
unsafe impl Sync for SlotStore {}

impl SlotStore {
    /// Takes an empty `Vec<T>`, warm (previous run's capacity) when the
    /// parked buffer's element layout matches `T`'s.
    fn take<T>(&mut self) -> Vec<T> {
        self.takes += 1;
        if let Some(raw) = self.buf.take() {
            if raw.elem == std::alloc::Layout::new::<T>() && raw.cap > 0 {
                let (ptr, cap) = (raw.ptr.as_ptr() as *mut T, raw.cap);
                std::mem::forget(raw);
                // SAFETY: the allocation came from a `Vec` whose element
                // layout equals `T`'s, so it is exactly
                // `Layout::array::<T>(cap)`; length 0 asserts no values.
                return unsafe { Vec::from_raw_parts(ptr, 0, cap) };
            }
            // Layout changed (different program type): the old buffer
            // cannot be re-typed — dropping `raw` frees it.
        }
        self.misses += 1;
        Vec::new()
    }

    /// Parks a drained slot array for the next run.
    fn put<T>(&mut self, v: Vec<T>) {
        debug_assert!(v.is_empty(), "slot storage must be parked empty");
        if v.capacity() == 0 || std::mem::size_of::<T>() == 0 {
            return;
        }
        let mut v = std::mem::ManuallyDrop::new(v);
        let ptr = std::ptr::NonNull::new(v.as_mut_ptr() as *mut u8)
            // ck-lint: allow(no-panic, reason = "capacity > 0 was just checked, so the Vec's pointer is a real allocation, never null")
            .expect("a Vec with capacity has a real pointer");
        self.buf =
            Some(RawSlotBuf { ptr, cap: v.capacity(), elem: std::alloc::Layout::new::<T>() });
    }
}

/// One node's program and whether it still runs.
pub(crate) struct Slot<P: Program> {
    pub(crate) prog: P,
    pub(crate) status: Status,
}

impl<P: Program> Slot<P> {
    /// Node `v`'s running slot, its program built by `factory` from the
    /// [`NodeInit`] every executor hands out.
    pub(crate) fn new<'g, F>(graph: &'g Graph, v: NodeIndex, factory: &mut F) -> Self
    where
        F: FnMut(NodeInit<'g>) -> P,
    {
        let init = NodeInit {
            index: v,
            id: graph.id(v),
            neighbor_ids: graph.neighbor_ids(v),
            n: graph.n(),
            m: graph.m(),
        };
        Slot { prog: factory(init), status: Status::Running }
    }
}

/// Observability of the wire, derived once per run. Both the
/// in-process round loop and a distributed worker
/// ([`crate::net::PartitionEngine`]) build each round's sink context
/// and sink mode through [`WireFlags::sink_ctx`] and
/// [`WireFlags::mode`], so they can never disagree on sink selection.
#[derive(Clone, Copy)]
pub(crate) struct WireFlags {
    check_faults: bool,
    /// Enforced per-link bit budget; `u64::MAX` under `Measure`.
    pub(crate) limit: u64,
    /// Wire counters observable (recorded rounds or an enforced
    /// budget): the send paths feed the round digest.
    pub(crate) account: bool,
    /// `account || check_faults`: an accounting/fault sink is needed.
    heavy: bool,
}

impl WireFlags {
    pub(crate) fn for_config(config: &EngineConfig) -> WireFlags {
        let check_faults = !config.faults.is_trivial();
        let limit = match config.bandwidth {
            BandwidthPolicy::Enforce { bits } => bits,
            BandwidthPolicy::Measure => u64::MAX,
        };
        let account = config.record_rounds || limit != u64::MAX;
        WireFlags { check_faults, limit, account, heavy: account || check_faults }
    }

    /// Round `round`'s sink context, shared by every node's step.
    pub(crate) fn sink_ctx(&self, params: &WireParams, faults: &FaultPlan, round: u32) -> SinkCtx {
        SinkCtx {
            params,
            faults,
            check_faults: self.check_faults,
            account: self.account,
            limit: self.limit,
            round,
        }
    }

    /// The send path the run's sinks take.
    pub(crate) fn mode(&self) -> SinkMode {
        if self.heavy {
            SinkMode::HeavyInbox
        } else {
            SinkMode::FastInbox
        }
    }
}

/// What every node's step reads during one round.
pub(crate) struct RoundIo<'a, M> {
    pub(crate) graph: &'a Graph,
    /// Read arena: round `r`'s traffic, read row by row by receivers.
    pub(crate) cur: &'a InboxArena<M>,
    /// Write arena: round `r+1`'s traffic, filled by senders.
    pub(crate) next: &'a InboxArena<M>,
    pub(crate) ctx: &'a SinkCtx,
    pub(crate) mode: SinkMode,
}

/// One node's round: read its mailbox row → step (sends store straight
/// into the next arena's mailbox, owned payloads going to `segment`,
/// the stepping chunk's segment, through the outbox's direct
/// sink — one move per message, with wire accounting and bandwidth
/// checks fused into the write) → null the row. Called for every node
/// exactly once per round, on the thread stepping the node's chunk;
/// everything it touches outside `slot` and `acc` is disjoint from
/// every other thread's calls (see the module doc).
/// Statistics accumulate into `acc` (one per chunk; chunk digests
/// merge associatively in node order, so every chunk count produces
/// identical round statistics).
///
/// The one per-node step of every executor: both arms of the
/// in-process round loop and a distributed worker's
/// ([`crate::net::PartitionEngine::step_round`]) call it. Inlined: a
/// call per node costs the single-chunk loop measurably.
#[inline(always)]
pub(crate) fn step_node<P: Program>(
    v: NodeIndex,
    segment: Segment,
    slot: &mut Slot<P>,
    io: &RoundIo<'_, P::Msg>,
    acc: &mut RoundDigest,
) {
    let RoundIo { graph, cur, next, ctx, mode } = *io;
    let edges = graph.directed_edge_range(v);
    // SAFETY: `v`'s mailbox row of the read arena is touched only by
    // `v`'s own step — this call (see the module doc).
    let mail = unsafe { cur.row_mut(edges.clone()) };
    if slot.status != Status::Running {
        // A halted node sends and receives nothing: drop its traffic so
        // the row is null when the arena swaps back into the write role.
        mail.fill(std::ptr::null());
        return;
    }
    // SAFETY: `segment` is the write arena's mailbox, whose slots at
    // `v`'s reverse edges only `v` writes, and the segment that only
    // this chunk's thread writes; `slots` slot `v` is written only by
    // `v`, and `acc`/`ctx` outlive the outbox, which is dropped before
    // this frame returns.
    let mut out: Outbox<P::Msg> = unsafe {
        Outbox::direct(
            edges.len() as u32,
            DirectSink {
                segment,
                slots: next.slots_ptr(),
                receivers: graph.neighbors(v).as_ptr(),
                rev_edges: graph.rev_edges_row(v).as_ptr(),
                acc,
                ctx,
                sender: v,
                taken: 0,
            },
            mode,
        )
    };
    // SAFETY: the row's non-null slots point at broadcast slots and
    // payload arenas of `cur`, which no one writes while `cur` is in the
    // read role — valid for the whole step call.
    let view = unsafe { Inbox::from_mail(mail) };
    let status = slot.prog.step(ctx.round, view, &mut out);
    drop(out);
    mail.fill(std::ptr::null());
    slot.status = status;
    if status == Status::Halted {
        acc.halted += 1;
    }
}

/// Inline-vs-spawn threshold for the parallel executor's per-node step
/// fold. A node step (row read + program logic + wire accounting) is
/// orders of magnitude heavier than the trivial loop bodies the rayon
/// shim's default `MIN_PAR_LEN` is tuned for, so spawning pays off far
/// earlier than 4096 nodes.
pub const NODE_STEP_MIN_PAR_LEN: usize = 1024;

/// Elements per contiguous chunk in the parallel executor's node→thread
/// partition for an `n`-node graph, under the current forced-worker
/// state. Node `v` steps on the thread owning chunk `v / chunk_len`.
///
/// This is the contract external chunk-local state keys off: the SoA
/// node-state arena allocates one prune scratch per chunk of this
/// exact plan, so two nodes share scratch only when they provably step
/// on the same thread. Because the plan is a snapshot of *mutable*
/// state (forced workers can change between calls), callers that size
/// chunk-keyed state off it must capture it **once** and hand that
/// same snapshot to [`EngineWorkspace::pin_node_chunk_plan`]; the
/// round loop then executes every round on the pinned partition
/// verbatim (the shim's `with_chunk_plan`) instead of re-planning per
/// round, so the partition and the state provably agree for the whole
/// run.
pub fn node_step_plan(n: usize) -> rayon::ChunkPlan {
    rayon::chunk_plan_with_min_len(n, NODE_STEP_MIN_PAR_LEN)
}

/// The round loop of both in-process executors (a distributed worker
/// steps one chunk of it in
/// [`crate::net::PartitionEngine::step_round`]). `plan` is the run's
/// node→thread partition, and its `W = plan.chunks()` chunks are the
/// segments of both arenas. With one chunk the nodes step in order on
/// the caller's thread, without going through the shim, so a warm
/// rerun touches the heap zero times; otherwise every round steps each
/// chunk on its own scoped thread under the pinned plan. Invariant at
/// the top of every round: `next` is entirely empty — its mailbox
/// null, its payload arenas empty — and `cur` holds exactly the
/// undelivered traffic of the previous round. Returns
/// `(rounds_executed, active)`.
#[allow(clippy::too_many_arguments)]
fn run_rounds<P: Program>(
    graph: &Graph,
    config: &EngineConfig,
    params: &WireParams,
    wf: WireFlags,
    slots: &mut [Slot<P>],
    mut active: usize,
    report: &mut RunReport,
    cur: &mut InboxArena<P::Msg>,
    next: &mut InboxArena<P::Msg>,
    plan: rayon::ChunkPlan,
) -> Result<(u32, usize), EngineError> {
    let mode = wf.mode();
    let mut round = 0u32;
    while round < config.max_rounds && active > 0 {
        let ctx = wf.sink_ctx(params, &config.faults, round);
        let io = RoundIo { graph, cur: &*cur, next: &*next, ctx: &ctx, mode };
        let acc = if plan.chunks() == 1 {
            let segment = next.segment_ptr(0);
            let mut acc = RoundDigest::default();
            for (v, slot) in slots.iter_mut().enumerate() {
                step_node(v as NodeIndex, segment, slot, &io, &mut acc);
            }
            acc
        } else {
            // Each chunk folds its nodes into its own digest; digests
            // merge associatively (leftmost-violation rule included),
            // so the result equals the single-chunk fold.
            let io = &io;
            slots
                .par_iter_mut()
                .with_chunk_plan(plan)
                .enumerate()
                .fold(RoundDigest::default, |mut acc, (v, slot)| {
                    let segment = io.next.segment_ptr(plan.chunk_of(v));
                    step_node(v as NodeIndex, segment, slot, io, &mut acc);
                    acc
                })
                .reduce(RoundDigest::default, RoundDigest::merge)
        };
        acc.close_round(round, config, &mut active, report)?;

        // Swap buffers: this round's writes become next round's reads;
        // the nulled read arena becomes the write arena.
        InboxArena::swap_roles(cur, next);
        round += 1;
    }
    Ok((round, active))
}

/// The engine proper: executes `factory`-instantiated programs on
/// `graph` through a caller-owned workspace until every node halts or
/// `config.max_rounds` is reached, writing the result into a
/// caller-owned [`RunOutcome`]. This is the single implementation
/// behind [`crate::session::Session`] and
/// [`EngineWorkspace::run_on_into`].
///
/// The workspace is reset (never reallocated when the graph fits)
/// before the run. A reset workspace delivers exactly what a new one
/// does; the one trace of earlier runs is the payloads they left parked
/// in the broadcast slots, which reach a program only as the payloads
/// its broadcasts evict. So the outputs of a program whose verdicts do
/// not read evicted payloads are bit-identical to a fresh-workspace
/// run. The per-run slot (program) array
/// is recycled through the workspace's [`SlotStore`] — a
/// workspace-reused run of the same program type performs no per-run
/// slot allocation, on success and on error alike. The outcome is
/// reset first (capacities kept), so rotating the same buffer through
/// repeated runs makes the warm rerun fully allocation-free under the
/// sequential executor — the dynamic contract `ck_lint::alloc_gate`
/// tests pin down. On error the outcome's contents are unspecified.
pub(crate) fn exec_into_with_workspace<'g, P, F>(
    graph: &'g Graph,
    config: &EngineConfig,
    params: &WireParams,
    ws: &mut EngineWorkspace<P::Msg>,
    factory: &mut F,
    out: &mut RunOutcome<P::Verdict>,
) -> Result<(), EngineError>
where
    P: Program,
    F: FnMut(NodeInit<'g>) -> P,
{
    out.reset();
    let n = graph.n();
    let mut slots: Vec<Slot<P>> = ws.slots.take();
    slots.extend((0..n).map(|v| Slot::new(graph, v as NodeIndex, factory)));

    let report = &mut out.report;
    let wf = WireFlags::for_config(config);
    let directed = graph.num_directed_edges();

    // One node→thread partition for the whole run, and one arena
    // segment per chunk of it. When the caller prepared chunk-keyed
    // external state (the SoA arena's chunk-shared scratch), it handed
    // us the exact snapshot that state was sized against via
    // [`EngineWorkspace::pin_node_chunk_plan`]; otherwise we capture
    // the plan fresh here. Either way the partition cannot drift
    // mid-run even if `force_workers_for_tests` / `CK_FORCED_WORKERS`
    // state changes while rounds execute. A pin is armed for exactly
    // one run, so it is consumed unconditionally. The sequential
    // executor steps one chunk on the caller's thread; so does
    // `Distributed` here: arbitrary in-process programs are closures
    // and cannot be shipped to worker processes, so the generic entry
    // degrades to the sequential oracle (bit-identical results) and
    // records the degradation in the report's net block; serializable
    // protocol layers dispatch real distribution above this function
    // (see `crate::net`).
    let pinned_plan = ws.pinned_node_plan.take();
    let plan = if config.executor == Executor::Parallel {
        let plan = pinned_plan.unwrap_or_else(|| node_step_plan(n));
        assert_eq!(plan.len, n, "pinned node chunk plan was computed for a different node count");
        plan
    } else {
        rayon::ChunkPlan { len: n, workers: 1, chunk_len: n.max(1) }
    };
    ws.cur.reset(n, directed, plan.chunks());
    ws.next.reset(n, directed, plan.chunks());
    let rounds_result = run_rounds(
        graph,
        config,
        params,
        wf,
        &mut slots,
        n,
        report,
        &mut ws.cur,
        &mut ws.next,
        plan,
    );
    let (round, active) = match rounds_result {
        Ok(ra) => ra,
        Err(e) => {
            // The programs die; the slot array parks for the next job.
            slots.clear();
            ws.slots.put(slots);
            return Err(e);
        }
    };

    report.rounds = round;
    report.all_halted = active == 0;
    config.faults.crashed_by_into(round, n, &mut report.faults.crashed_nodes);
    (report.executor, report.threads) = match config.executor {
        Executor::Sequential => ("sequential", 1),
        Executor::Parallel => ("parallel", rayon::current_num_threads()),
        Executor::Distributed { workers } => {
            report.net = Some(crate::metrics::NetReport::degraded(
                u32::from(workers.max(1)),
                "in-process programs are not serializable; ran the sequential oracle",
            ));
            ("distributed", workers.max(1) as usize)
        }
    };

    out.verdicts.extend(slots.iter().map(|s| s.prog.verdict()));
    slots.clear();
    ws.slots.put(slots);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::message::WireMessage;
    use crate::net::PartitionEngine;
    use crate::session::Session;

    /// The tests' single-run entry: a fresh session per call.
    fn run<'g, P, F>(
        graph: &'g Graph,
        config: &EngineConfig,
        factory: F,
    ) -> Result<RunOutcome<P::Verdict>, EngineError>
    where
        P: Program,
        F: FnMut(NodeInit<'g>) -> P,
    {
        Session::builder(graph).config(config.clone()).build().run(factory)
    }

    /// Flood the smallest ID seen so far; halt after `ttl` rounds. The
    /// classical leader-election-by-flooding warm-up protocol.
    struct MinFlood {
        best: u64,
        ttl: u32,
        changed: bool,
    }

    impl Program for MinFlood {
        type Msg = u64;
        type Verdict = u64;

        fn step(&mut self, round: u32, inbox: Inbox<'_, u64>, out: &mut Outbox<u64>) -> Status {
            for inc in inbox.iter() {
                if *inc.msg < self.best {
                    self.best = *inc.msg;
                    self.changed = true;
                }
            }
            if round >= self.ttl {
                return Status::Halted;
            }
            if round == 0 || self.changed {
                out.broadcast(self.best);
                self.changed = false;
            }
            Status::Running
        }

        fn verdict(&self) -> u64 {
            self.best
        }
    }

    fn path_graph(n: usize) -> Graph {
        GraphBuilder::new(n).edges((0..n as u32 - 1).map(|i| (i, i + 1))).build().unwrap()
    }

    fn run_minflood(g: &Graph, exec: Executor) -> RunOutcome<u64> {
        let ttl = g.n() as u32; // diameter bound
        let cfg = EngineConfig { executor: exec, ..EngineConfig::default() };
        run(g, &cfg, |init| MinFlood { best: init.id, ttl, changed: false }).unwrap()
    }

    #[test]
    fn min_flood_converges_on_path() {
        let g = path_graph(16).with_ids((0..16).map(|i| 100 - i as u64).collect()).unwrap();
        let out = run_minflood(&g, Executor::Sequential);
        let global_min = *g.ids().iter().min().unwrap();
        assert!(out.verdicts.iter().all(|&v| v == global_min));
        assert!(out.report.all_halted);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let g = path_graph(64)
            .with_ids((0..64).map(|i| (i as u64 * 2654435761) % 100_000).collect())
            .unwrap();
        let a = run_minflood(&g, Executor::Sequential);
        let b = run_minflood(&g, Executor::Parallel);
        assert_eq!(a.verdicts, b.verdicts);
        assert_eq!(a.report.per_round, b.report.per_round);
        assert_eq!(a.report.rounds, b.report.rounds);
    }

    #[test]
    fn round_cap_is_respected() {
        struct Chatter;
        impl Program for Chatter {
            type Msg = ();
            type Verdict = ();
            fn step(&mut self, _round: u32, _inbox: Inbox<'_, ()>, out: &mut Outbox<()>) -> Status {
                out.broadcast(());
                Status::Running
            }
            fn verdict(&self) {}
        }
        let g = path_graph(4);
        let cfg = EngineConfig { max_rounds: 7, ..EngineConfig::default() };
        let out = run(&g, &cfg, |_| Chatter).unwrap();
        assert_eq!(out.report.rounds, 7);
        assert!(!out.report.all_halted);
    }

    #[test]
    fn bandwidth_enforcement_trips() {
        struct BigTalker;
        impl Program for BigTalker {
            type Msg = Vec<u64>;
            type Verdict = ();
            fn step(
                &mut self,
                _round: u32,
                _inbox: Inbox<'_, Vec<u64>>,
                out: &mut Outbox<Vec<u64>>,
            ) -> Status {
                out.broadcast(vec![1; 100]);
                Status::Running
            }
            fn verdict(&self) {}
        }
        let g = path_graph(3);
        let cfg = EngineConfig {
            bandwidth: BandwidthPolicy::Enforce { bits: 16 },
            ..EngineConfig::default()
        };
        let err = run(&g, &cfg, |_| BigTalker).unwrap_err();
        assert!(matches!(err, EngineError::BandwidthExceeded { round: 0, .. }));
    }

    #[test]
    fn stats_count_messages_and_links() {
        let g = path_graph(3); // 0-1-2
        let cfg = EngineConfig::default();
        // Everyone broadcasts a unit message at round 0, then halts.
        struct OneShot;
        impl Program for OneShot {
            type Msg = ();
            type Verdict = ();
            fn step(&mut self, round: u32, _inbox: Inbox<'_, ()>, out: &mut Outbox<()>) -> Status {
                if round == 0 {
                    out.broadcast(());
                    Status::Running
                } else {
                    Status::Halted
                }
            }
            fn verdict(&self) {}
        }
        let out = run(&g, &cfg, |_| OneShot).unwrap();
        // Degrees 1,2,1 → 4 messages in round 0.
        assert_eq!(out.report.per_round[0].messages, 4);
        assert_eq!(out.report.per_round[0].max_link_messages, 1);
        assert_eq!(out.report.total_messages(), 4);
    }

    #[test]
    fn halted_nodes_stop_participating() {
        // Node 0 halts immediately; others keep broadcasting for 3 rounds.
        struct MaybeQuit {
            quit_now: bool,
        }
        impl Program for MaybeQuit {
            type Msg = ();
            type Verdict = u32;
            fn step(&mut self, round: u32, inbox: Inbox<'_, ()>, out: &mut Outbox<()>) -> Status {
                let _ = inbox;
                if self.quit_now {
                    return Status::Halted;
                }
                out.broadcast(());
                if round >= 2 {
                    Status::Halted
                } else {
                    Status::Running
                }
            }
            fn verdict(&self) -> u32 {
                0
            }
        }
        let g = path_graph(3);
        let out = run(&g, &EngineConfig::default(), |init| MaybeQuit { quit_now: init.index == 0 })
            .unwrap();
        assert!(out.report.all_halted);
        // Round 0: nodes 1 and 2 broadcast (degrees 2 and 1) = 3 msgs.
        assert_eq!(out.report.per_round[0].messages, 3);
    }

    /// One message per link per round: a second send or broadcast on a
    /// link panics, in all four orders, on both executors, accounted
    /// and counter-free, on the harness outbox, and in a partition
    /// engine's round. A first message the fault plan drops, or whose
    /// tampered frame no longer decodes, still occupies its link.
    #[test]
    fn a_second_message_on_a_link_panics() {
        /// A payload whose tampered frames never decode.
        #[derive(Clone, Debug)]
        struct Frame;
        impl WireMessage for Frame {
            fn wire_bits(&self, _params: &WireParams) -> u64 {
                8
            }
            fn corrupt_frame(&self, _params: &WireParams, _entropy: u64) -> Option<Frame> {
                None
            }
        }
        #[derive(Clone, Copy, Debug)]
        enum Twice {
            SendSend,
            SendBroadcast,
            BroadcastSend,
            BroadcastBroadcast,
        }
        fn send_twice(order: Twice, out: &mut Outbox<Frame>) {
            match order {
                Twice::SendSend => {
                    out.send(0, Frame);
                    out.send(0, Frame);
                }
                Twice::SendBroadcast => {
                    out.send(0, Frame);
                    out.broadcast(Frame);
                }
                Twice::BroadcastSend => {
                    out.broadcast(Frame);
                    out.send(0, Frame);
                }
                Twice::BroadcastBroadcast => {
                    out.broadcast(Frame);
                    out.broadcast(Frame);
                }
            }
        }
        impl Program for Twice {
            type Msg = Frame;
            type Verdict = ();
            fn step(
                &mut self,
                _round: u32,
                _inbox: Inbox<'_, Frame>,
                out: &mut Outbox<Frame>,
            ) -> Status {
                send_twice(*self, out);
                Status::Halted
            }
            fn verdict(&self) {}
        }
        let panic_text = |err: Box<dyn std::any::Any + Send>| {
            err.downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        };
        let g = path_graph(3);
        let plans = [
            ("delivered", FaultPlan::none()),
            ("dropped", FaultPlan::none().drop_at(0, 0, 0).drop_at(0, 1, 0).drop_at(0, 2, 0)),
            ("rejected", FaultPlan::none().corrupt_frames(1.0, 3)),
        ];
        for order in
            [Twice::SendSend, Twice::SendBroadcast, Twice::BroadcastSend, Twice::BroadcastBroadcast]
        {
            for (fate, faults) in &plans {
                for exec in [Executor::Sequential, Executor::Parallel] {
                    for record_rounds in [true, false] {
                        let cfg = EngineConfig {
                            executor: exec,
                            record_rounds,
                            faults: faults.clone(),
                            ..EngineConfig::default()
                        };
                        let what =
                            format!("{order:?} {fate} {exec:?} record_rounds={record_rounds}");
                        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            run(&g, &cfg, |_| order)
                        }))
                        .expect_err(&what);
                        assert!(panic_text(err).contains("in one round"), "{what}");
                    }
                }
                let cfg = EngineConfig { faults: faults.clone(), ..EngineConfig::default() };
                let params = WireParams::for_graph(&g);
                let err = std::panic::catch_unwind(|| {
                    let mut part = PartitionEngine::new(&g, &cfg, params, 1, 0, |_| order);
                    part.step_round(0, &mut Vec::new())
                })
                .expect_err("partition engine");
                assert!(panic_text(err).contains("in one round"), "{order:?} {fate} partition");
            }
            let err = std::panic::catch_unwind(|| send_twice(order, &mut Outbox::for_harness(2)))
                .expect_err("harness outbox");
            assert!(panic_text(err).contains("in one round"), "{order:?} harness outbox");
        }
    }

    /// Both sink modes (accounted and counter-free) on both executors
    /// must deliver identical inboxes in identical order.
    #[test]
    fn sink_paths_deliver_identically() {
        struct Recorder {
            id: u64,
            ttl: u32,
            seen: Vec<(u32, u32, u64)>, // (round, port, msg)
        }
        impl Program for Recorder {
            type Msg = u64;
            type Verdict = Vec<(u32, u32, u64)>;
            fn step(&mut self, round: u32, inbox: Inbox<'_, u64>, out: &mut Outbox<u64>) -> Status {
                for inc in inbox.iter() {
                    self.seen.push((round, inc.port, *inc.msg));
                }
                if round >= self.ttl {
                    return Status::Halted;
                }
                // Alternate between a broadcast and a targeted send on
                // every port, so each inbox mixes slot payloads and
                // arena payloads.
                if (self.id + u64::from(round)).is_multiple_of(2) {
                    out.broadcast(u64::from(round) << 8);
                } else {
                    for p in 0..out.degree() {
                        out.send(p, u64::from(round) << 8 | u64::from(p) | 0x80);
                    }
                }
                Status::Running
            }
            fn verdict(&self) -> Vec<(u32, u32, u64)> {
                self.seen.clone()
            }
        }
        let g = GraphBuilder::new(7)
            .edges([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6), (0, 6)])
            .build()
            .unwrap();
        let mut outcomes = Vec::new();
        for record_rounds in [true, false] {
            for exec in [Executor::Sequential, Executor::Parallel] {
                let cfg = EngineConfig { executor: exec, record_rounds, ..EngineConfig::default() };
                let out = run(&g, &cfg, |init| Recorder { id: init.id, ttl: 4, seen: Vec::new() })
                    .unwrap();
                outcomes.push((record_rounds, exec, out.verdicts));
            }
        }
        let reference = outcomes[0].2.clone();
        for (record_rounds, exec, verdicts) in &outcomes {
            assert_eq!(
                verdicts, &reference,
                "divergent delivery: record_rounds={record_rounds} {exec:?}"
            );
        }
    }

    /// The maintained active counter must agree with the per-round
    /// recorded statistics as nodes halt at different times.
    #[test]
    fn active_counter_tracks_staggered_halts() {
        struct HaltAt {
            at: u32,
        }
        impl Program for HaltAt {
            type Msg = ();
            type Verdict = ();
            fn step(&mut self, round: u32, _inbox: Inbox<'_, ()>, out: &mut Outbox<()>) -> Status {
                if round >= self.at {
                    Status::Halted
                } else {
                    out.broadcast(());
                    Status::Running
                }
            }
            fn verdict(&self) {}
        }
        let g = path_graph(6);
        let out = run(&g, &EngineConfig::default(), |init| HaltAt { at: init.index }).unwrap();
        assert!(out.report.all_halted);
        // Node v halts in round v: actives are n, n-1, ..., 1.
        let actives: Vec<usize> = out.report.per_round.iter().map(|r| r.active_nodes).collect();
        assert_eq!(actives, vec![6, 5, 4, 3, 2, 1]);
    }

    /// The multi-segment path must survive genuinely concurrent workers.
    /// The rayon shim runs inline on small inputs and single-core
    /// machines, which would leave the arena's unsafe disjointness
    /// contract untested; force it to split across 4 scoped threads and
    /// compare every parallel mode against the sequential reference.
    #[test]
    fn parallel_paths_with_real_threads() {
        struct ResetWorkers;
        impl Drop for ResetWorkers {
            fn drop(&mut self) {
                rayon::force_workers_for_tests(0);
            }
        }
        let _reset = ResetWorkers; // restore default even on panic
        rayon::force_workers_for_tests(4);

        let n = 6000;
        let g = path_graph(n)
            .with_ids((0..n).map(|i| (i as u64).wrapping_mul(2654435761) % 1_000_000).collect())
            .unwrap();
        let run_one = |exec, record_rounds, faults: crate::fault::FaultPlan| {
            let cfg =
                EngineConfig { executor: exec, record_rounds, faults, ..EngineConfig::default() };
            run(&g, &cfg, |init| MinFlood { best: init.id, ttl: 30, changed: false }).unwrap()
        };
        for record_rounds in [true, false] {
            for faults in [
                crate::fault::FaultPlan::none(),
                crate::fault::FaultPlan::none().random_loss(0.2, 5),
            ] {
                let seq = run_one(Executor::Sequential, record_rounds, faults.clone());
                let par = run_one(Executor::Parallel, record_rounds, faults);
                assert_eq!(seq.verdicts, par.verdicts, "record_rounds={record_rounds}");
                assert_eq!(seq.report.per_round, par.report.per_round);
                assert_eq!(seq.report.rounds, par.report.rounds);
            }
        }
    }

    /// A workspace reused across differently-sized graphs (growing and
    /// shrinking, with faults in between leaving undelivered traffic)
    /// must behave exactly like a fresh one, on
    /// both executors and on a schedule that alternates them (under
    /// forced workers the arenas then reshape between one segment and
    /// several).
    #[test]
    fn workspace_reuse_is_bit_identical_across_graphs() {
        let jobs: Vec<(Graph, crate::fault::FaultPlan)> = vec![
            (path_graph(12), crate::fault::FaultPlan::none()),
            (path_graph(40), crate::fault::FaultPlan::none().random_loss(0.3, 7)),
            (path_graph(5), crate::fault::FaultPlan::none()),
            (path_graph(40), crate::fault::FaultPlan::none()),
        ];
        let (seq, par) = (Executor::Sequential, Executor::Parallel);
        for schedule in [[seq; 4], [par; 4], [seq, par, par, seq]] {
            for record_rounds in [true, false] {
                let mut ws = EngineWorkspace::new();
                for ((g, faults), exec) in jobs.iter().zip(schedule) {
                    let cfg = EngineConfig {
                        executor: exec,
                        record_rounds,
                        faults: faults.clone(),
                        ..EngineConfig::default()
                    };
                    let ttl = g.n() as u32;
                    let fresh =
                        run(g, &cfg, |init| MinFlood { best: init.id, ttl, changed: false })
                            .unwrap();
                    let params = WireParams::for_graph(g);
                    let mut reused = RunOutcome::default();
                    exec_into_with_workspace(
                        g,
                        &cfg,
                        &params,
                        &mut ws,
                        &mut |init| MinFlood { best: init.id, ttl, changed: false },
                        &mut reused,
                    )
                    .unwrap();
                    assert_eq!(fresh.verdicts, reused.verdicts, "{exec:?}");
                    assert_eq!(fresh.report.per_round, reused.report.per_round, "{exec:?}");
                    assert_eq!(fresh.report.rounds, reused.report.rounds, "{exec:?}");
                }
            }
        }
    }

    /// Link loads stay exact across workspace-reused jobs whose round
    /// numbers restart at 0: job B sends small messages on the very
    /// links on which job A sent heavy ones, at the same round numbers.
    /// Any trace of A's loads in B's would trip B's enforced budget,
    /// which has no slack, or move B's statistics away from a fresh
    /// workspace's, on both executors.
    #[test]
    fn workspace_reuse_keeps_link_counters_correct_across_jobs() {
        struct Talk {
            payload: Vec<u64>,
            ttl: u32,
        }
        impl Program for Talk {
            type Msg = Vec<u64>;
            type Verdict = ();
            fn step(
                &mut self,
                round: u32,
                _inbox: Inbox<'_, Vec<u64>>,
                out: &mut Outbox<Vec<u64>>,
            ) -> Status {
                if round >= self.ttl {
                    return Status::Halted;
                }
                out.broadcast(self.payload.clone());
                Status::Running
            }
            fn verdict(&self) {}
        }
        let g = path_graph(4);
        let params = WireParams::for_graph(&g);
        let small_bits = vec![7u64].wire_bits(&params);
        for exec in [Executor::Sequential, Executor::Parallel] {
            let mut ws: EngineWorkspace<Vec<u64>> = EngineWorkspace::new();
            // Job A: heavy broadcasts, measured only — stamps rounds
            // 0..5 with large per-link bit counts.
            let cfg_a = EngineConfig { executor: exec, ..EngineConfig::default() };
            let mut reused = RunOutcome::default();
            exec_into_with_workspace(
                &g,
                &cfg_a,
                &params,
                &mut ws,
                &mut |_| Talk { payload: vec![7; 100], ttl: 5 },
                &mut reused,
            )
            .unwrap();
            // Job B: one small message per link per round, enforced at
            // exactly that size — any leak of job A's counters trips it.
            let cfg_b = EngineConfig {
                executor: exec,
                bandwidth: BandwidthPolicy::Enforce { bits: small_bits },
                ..EngineConfig::default()
            };
            exec_into_with_workspace(
                &g,
                &cfg_b,
                &params,
                &mut ws,
                &mut |_| Talk { payload: vec![7], ttl: 5 },
                &mut reused,
            )
            .unwrap_or_else(|e| panic!("stale load counters leaked into job B ({exec:?}): {e}"));
            let fresh = run(&g, &cfg_b, |_| Talk { payload: vec![7], ttl: 5 }).unwrap();
            assert_eq!(reused.report.per_round, fresh.report.per_round, "{exec:?}");
            for r in &reused.report.per_round {
                assert!(r.max_link_bits <= small_bits, "{exec:?}: {r:?}");
            }
        }
    }

    /// Traffic addressed to a halted node is dropped by its receiver,
    /// and its sender's link load stays one message per round however
    /// long the receiver stays halted: run with the cap at exactly one
    /// message per link, enforcement never trips and no round reports
    /// more than one message's bits on a link.
    #[test]
    fn halted_receiver_lanes_reset_counters() {
        struct TalkThenQuit {
            quit_round: u32,
        }
        impl Program for TalkThenQuit {
            type Msg = u64;
            type Verdict = ();
            fn step(
                &mut self,
                round: u32,
                _inbox: Inbox<'_, u64>,
                out: &mut Outbox<u64>,
            ) -> Status {
                if round >= self.quit_round {
                    return Status::Halted;
                }
                out.broadcast(7);
                Status::Running
            }
            fn verdict(&self) {}
        }
        let g = path_graph(3);
        let params = WireParams::for_graph(&g);
        let msg_bits = 7u64.wire_bits(&params);
        let cfg = EngineConfig {
            bandwidth: BandwidthPolicy::Enforce { bits: msg_bits },
            ..EngineConfig::default()
        };
        // Node 0 halts immediately; node 1 keeps sending into node 0's
        // (now receiver-less) link for 5 more rounds.
        let out =
            run(&g, &cfg, |init| TalkThenQuit { quit_round: if init.index == 0 { 0 } else { 5 } })
                .unwrap();
        assert!(out.report.all_halted);
        for r in &out.report.per_round {
            assert!(r.max_link_bits <= msg_bits, "stale link counters: {r:?}");
        }
    }

    /// The broadcast slot is double-buffered: a broadcast evicts the
    /// payload this sender parked two rounds earlier (same arena
    /// generation), on every sink mode. Slots survive a workspace reset:
    /// a second run through the session evicts the first run's last two
    /// payloads. The first run's seven rounds leave the generations
    /// swapped, so round 0 evicts round 5's payload and round 1 round 4's.
    #[test]
    fn broadcast_evicts_the_two_round_old_payload() {
        struct SlotProbe {
            ttl: u32,
            evictions: Vec<Option<u64>>,
        }
        impl Program for SlotProbe {
            type Msg = u64;
            type Verdict = Vec<Option<u64>>;
            fn step(
                &mut self,
                round: u32,
                _inbox: Inbox<'_, u64>,
                out: &mut Outbox<u64>,
            ) -> Status {
                if round >= self.ttl {
                    return Status::Halted;
                }
                self.evictions.push(out.broadcast(u64::from(round) + 1000));
                Status::Running
            }
            fn verdict(&self) -> Vec<Option<u64>> {
                self.evictions.clone()
            }
        }
        let g = path_graph(5);
        for exec in [Executor::Sequential, Executor::Parallel] {
            for record_rounds in [true, false] {
                let cfg = EngineConfig { executor: exec, record_rounds, ..EngineConfig::default() };
                let mut session = Session::builder(&g).config(cfg).build();
                let mut parked = [None, None];
                for pass in 0..2 {
                    let out = session.run(|_| SlotProbe { ttl: 6, evictions: Vec::new() }).unwrap();
                    assert_eq!(out.report.rounds, 7);
                    let mut expect = parked.to_vec();
                    expect.extend((1000u64..1004).map(Some));
                    for ev in &out.verdicts {
                        assert_eq!(ev, &expect, "{exec:?} record_rounds={record_rounds} {pass}");
                    }
                    parked = [Some(1005), Some(1004)];
                }
            }
        }
    }

    /// Broadcast payloads are stored once per sender, while accounting
    /// still charges every link the full message size.
    #[test]
    fn broadcast_accounting_charges_every_link() {
        struct WideTalker;
        impl Program for WideTalker {
            type Msg = Vec<u64>;
            type Verdict = ();
            fn step(
                &mut self,
                round: u32,
                _inbox: Inbox<'_, Vec<u64>>,
                out: &mut Outbox<Vec<u64>>,
            ) -> Status {
                if round == 0 {
                    out.broadcast(vec![7; 5]);
                    Status::Running
                } else {
                    Status::Halted
                }
            }
            fn verdict(&self) {}
        }
        let g = GraphBuilder::new(4).edges([(0, 1), (0, 2), (0, 3)]).build().unwrap();
        let params = WireParams::for_graph(&g);
        let one = vec![7u64; 5].wire_bits(&params);
        for exec in [Executor::Sequential, Executor::Parallel] {
            let cfg = EngineConfig { executor: exec, ..EngineConfig::default() };
            let out = run(&g, &cfg, |_| WideTalker).unwrap();
            // 4 nodes broadcast: degrees 3,1,1,1 → 6 messages, each a
            // full payload on its own link.
            assert_eq!(out.report.per_round[0].messages, 6, "{exec:?}");
            assert_eq!(out.report.per_round[0].bits, 6 * one);
            assert_eq!(out.report.per_round[0].max_link_bits, one);
        }
    }
}
