//! The full distributed `Ck`-freeness tester (Phases 1 + 2, concurrent
//! checks, repetitions) — Theorem 1's algorithm.
//!
//! Per repetition the engine runs `⌊k/2⌋ + 2` rounds:
//!
//! | local round | action |
//! |---|---|
//! | 0 | each edge's owner (smaller-ID endpoint) draws `r(e) ∈ [1, m²]` and ships it |
//! | 1 | every node adopts its min-key incident edge and broadcasts its seed `(myid)` tagged with that edge (paper round 1) |
//! | `t = 2..⌊k/2⌋` | prioritized append-and-forward: keep only traffic of the lowest-keyed edge seen, prune via Algorithm 1, forward (paper round `t`) |
//! | `⌊k/2⌋ + 1` | final decision (Instructions 31–42) |
//!
//! Arbitration follows the paper: a node serves one edge at a time —
//! the lowest `(rank, endpoints)` key it has ever heard of — discarding
//! messages about higher keys and switching when a lower key arrives.
//! With deterministic tie-breaking there is always a unique globally
//! minimal key; Lemma 5 only enters the analysis to make that edge
//! *uniformly distributed*, which is what the ε-far detection bound needs.
//!
//! Every node's buffers live in one [`SoaArena`] (see [`crate::soa`]);
//! each node program holds a view into it, on every executor.

use crate::decide::{decide_reject, RejectWitness};
use crate::dist::Fleet;
use crate::msg::{CkMsg, EdgeTag};
use crate::prune::build_send_set_into;
use crate::rank::{draw_rank, repetitions_for, rounds_per_repetition, total_rounds, RankStream};
use crate::seq::{SeqRows, SortScratch, MAX_K};
use crate::soa::{BufsRef, SoaArena, SoaView};
use ck_congest::engine::{EngineConfig, EngineError, RunOutcome};
use ck_congest::graph::{Graph, NodeId};
use ck_congest::node::{Inbox, NodeInit, Outbox, Program, Status};
use std::cmp::Ordering;

/// A [`TesterConfig`] whose parameters lie outside the algorithm's
/// domain. Historically `TesterConfig::new` accepted anything and the
/// run panicked later (deep inside the repetition schedule or the
/// per-node assert); the session builders and
/// [`crate::rank::try_repetitions_for`] surface this error instead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// `k` outside the supported `3..=MAX_K` range.
    KOutOfRange {
        /// The rejected cycle length.
        k: usize,
    },
    /// `ε` outside `(0, 1)` (including NaN).
    EpsOutOfRange {
        /// The rejected property-testing parameter.
        eps: f64,
    },
    /// An assumed per-message loss rate outside `[0, 1)` (including
    /// NaN): at `loss = 1` no schedule inflation recovers detection.
    LossOutOfRange {
        /// The rejected loss rate.
        loss: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::KOutOfRange { k } => {
                write!(f, "k = {k} outside supported range 3..={MAX_K}")
            }
            ConfigError::EpsOutOfRange { eps } => write!(f, "ε must lie in (0,1), got {eps}"),
            ConfigError::LossOutOfRange { loss } => {
                write!(f, "assumed loss must lie in [0,1), got {loss}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Tester parameters.
#[derive(Clone, Copy, Debug)]
pub struct TesterConfig {
    /// Cycle length to test freeness of (`3 ≤ k ≤ 33`).
    pub k: usize,
    /// Property-testing parameter; drives the repetition count.
    pub eps: f64,
    /// Master seed for all Phase-1 randomness.
    pub seed: u64,
    /// Overrides the paper's `⌈(e²/ε)·ln 3⌉` repetition schedule.
    pub repetitions: Option<u32>,
    /// Graceful degradation under lossy networks: an assumed per-message
    /// loss rate in `[0, 1)`. When set, the repetition schedule is
    /// inflated by [`crate::rank::loss_inflation`] —
    /// `⌈1/(1−p)^{k·⌊k/2⌋}⌉` — so the expected number of loss-free
    /// repetitions matches the paper's schedule and the ≥ 2/3 detection
    /// bound is recovered. `None` (the default) runs the paper schedule.
    pub assumed_loss: Option<f64>,
}

impl TesterConfig {
    /// Standard configuration for testing `Ck`-freeness at parameter `eps`.
    pub fn new(k: usize, eps: f64, seed: u64) -> Self {
        TesterConfig { k, eps, seed, repetitions: None, assumed_loss: None }
    }

    /// Checks the parameter domain: `k ∈ 3..=MAX_K`, `ε ∈ (0, 1)`. The
    /// session builders call this so a bad configuration is a
    /// [`ConfigError`] at build time, never a panic mid-schedule.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(3..=MAX_K).contains(&self.k) {
            return Err(ConfigError::KOutOfRange { k: self.k });
        }
        crate::rank::try_repetitions_for(self.eps)?;
        if let Some(loss) = self.assumed_loss {
            crate::rank::try_loss_inflation(self.k, loss)?;
        }
        Ok(())
    }

    /// Repetition count actually used: the paper schedule (or its
    /// override), inflated by [`crate::rank::loss_inflation`] when an
    /// assumed loss rate is set.
    pub fn effective_repetitions(&self) -> u32 {
        let base = self.repetitions.unwrap_or_else(|| repetitions_for(self.eps));
        match self.assumed_loss {
            Some(loss) => base.saturating_mul(crate::rank::loss_inflation(self.k, loss)),
            None => base,
        }
    }
}

/// A recorded rejection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejection {
    /// Repetition in which the node rejected.
    pub repetition: u32,
    /// The edge whose check assembled the cycle.
    pub tag: EdgeTag,
    /// The witnessing sequence pair.
    pub witness: RejectWitness,
}

/// Per-node output of the full tester.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeVerdict {
    /// True if the node output reject in any repetition.
    pub rejected: bool,
    /// Details of the first rejection, boxed so the common
    /// no-rejection verdict (and the per-node program state embedding
    /// it) stays small — the witness pair alone is ~280 inline bytes,
    /// and the round loop walks one verdict per node per round.
    pub first_rejection: Option<Box<Rejection>>,
    /// Largest number of sequences this node put into one message (the
    /// measured side of Lemma 3).
    pub max_sent_seqs: usize,
}

/// One node of the full tester.
///
/// Borrows the graph's neighbor-identity row (`'g`) instead of copying
/// it, and keeps every buffer in the prepared [`SoaArena`] behind its
/// [`SoaView`]: instantiating `n` testers performs no per-node
/// allocation, and the program itself is a few scalars plus the view.
pub(crate) struct CkTester<'g> {
    k: usize,
    half_k: u32,
    rpr: u32,
    reps_total: u32,
    myid: NodeId,
    neighbor_ids: &'g [NodeId],
    m: usize,
    /// Cached Phase-1 rank stream (seed/label/node prefix hoisted out
    /// of the per-repetition loop).
    ranks: RankStream,
    /// Whether this node owns any incident edge (is the smaller-ID
    /// endpoint somewhere). Constant per run; non-owners skip Phase-1
    /// RNG construction entirely, which is unobservable since an
    /// ownerless stream would never be drawn from.
    owns_edges: bool,
    // Per-repetition state.
    /// The served edge's tag: the smallest key heard so far this
    /// repetition, lowered by Phase 1 and by absorb.
    cur: Option<EdgeTag>,
    own_sent_tag: Option<EdgeTag>,
    verdict: NodeVerdict,
    view: SoaView,
}

impl<'g> CkTester<'g> {
    /// The program for one node over its view into a prepared arena
    /// (the view's invariants are in the `soa` module).
    pub(crate) fn new(cfg: &TesterConfig, init: &NodeInit<'g>, view: SoaView) -> Self {
        assert!((3..=MAX_K).contains(&cfg.k), "k = {} outside supported range", cfg.k);
        CkTester {
            k: cfg.k,
            half_k: (cfg.k / 2) as u32,
            rpr: rounds_per_repetition(cfg.k),
            reps_total: cfg.effective_repetitions(),
            myid: init.id,
            neighbor_ids: init.neighbor_ids,
            m: init.m,
            ranks: RankStream::new(cfg.seed, init.id),
            owns_edges: init.neighbor_ids.iter().any(|&nb| init.id < nb),
            cur: None,
            own_sent_tag: None,
            verdict: NodeVerdict::default(),
            view,
        }
    }
}

/// Absorbs one round's Phase-2 messages in one pass over the inbox,
/// keeping the paper's switch rule as a running minimum: a message
/// whose tag is below `cur` makes that tag the served edge and restarts
/// `recv`, one carrying `cur` itself adds its rows, and one with a
/// larger tag is discarded. `recv` ends up holding the deduplicated
/// `width`-ID sequences of the edge now being served. Payloads are read
/// straight out of the senders' broadcast slots: no clone, no
/// allocation.
///
/// `width` is the round's sequence length. A payload of any other width
/// (a distributed frame whose context word disagrees with the round)
/// contributes no sequence; its tag still takes part in arbitration, as
/// every `Seqs` tag does.
fn absorb(
    cur: &mut Option<EdgeTag>,
    recv: &mut SeqRows,
    sort: &mut SortScratch,
    inbox: &Inbox<'_, CkMsg>,
    width: usize,
) {
    recv.reset(width);
    for inc in inbox.iter() {
        if let CkMsg::Seqs { tag, seqs } = inc.msg {
            match cur.map_or(Ordering::Less, |c| tag.cmp(&c)) {
                Ordering::Less => {
                    *cur = Some(*tag);
                    recv.reset(width);
                }
                Ordering::Equal => {}
                Ordering::Greater => continue,
            }
            if seqs.width() == width {
                recv.extend_rows(seqs);
            }
        }
    }
    if recv.len() > 1 {
        recv.sort_dedup(sort);
    }
}

/// Lowers the running minimum `cur` to `tag` (Phase 1's arbitration).
fn lower(cur: &mut Option<EdgeTag>, tag: EdgeTag) {
    *cur = Some(cur.map_or(tag, |c| c.min(tag)));
}

/// The own set of a decision whose last send served another edge.
static NO_ROWS: SeqRows = SeqRows::new(0);

/// Broadcasts `msg`, keeping the payload the broadcast evicts from this
/// node's slot (shipped two rounds earlier, or parked by an earlier run
/// through the same workspace, and read by no receiver any more) as the
/// node's spare backing.
fn broadcast_keeping_spare(out: &mut Outbox<CkMsg>, spare: &mut SeqRows, msg: CkMsg) {
    if let Some(CkMsg::Seqs { seqs, .. }) = out.broadcast(msg) {
        *spare = seqs;
    }
}

impl Program for CkTester<'_> {
    type Msg = CkMsg;
    type Verdict = NodeVerdict;

    fn step(&mut self, round: u32, inbox: Inbox<'_, CkMsg>, out: &mut Outbox<CkMsg>) -> Status {
        let BufsRef { own_sent, spare, recv, send, prune } = self.view.bufs();

        let rep = round / self.rpr;
        let local = round % self.rpr;

        if local == 0 {
            // Phase 1: reset the repetition, then owners draw and ship
            // ranks, keeping the smallest own key in `cur`. Non-owners
            // skip RNG construction: their stream is never drawn from,
            // so the skip is unobservable.
            self.cur = None;
            own_sent.reset(0);
            self.own_sent_tag = None;
            if self.owns_edges {
                let mut rng = self.ranks.rng(rep);
                for (p, &nb) in self.neighbor_ids.iter().enumerate() {
                    if self.myid < nb {
                        let r = draw_rank(&mut rng, self.m);
                        lower(&mut self.cur, EdgeTag::new(r, self.myid, nb));
                        out.send(p as u32, CkMsg::Rank(r));
                    }
                }
            }
            return Status::Running;
        }

        if local == 1 {
            // Phase 1 completion: lower `cur` with the ranks the other
            // edges' owners shipped, so it holds the minimum-key
            // incident edge, and broadcast the seed (paper rd. 1). A
            // rank lost to a fault leaves its edge out of this
            // repetition. Ranks are drawn from [1, m²], so a rank 0 can
            // only be a corrupted frame; it names no edge.
            for inc in inbox.iter() {
                if let CkMsg::Rank(r) = *inc.msg {
                    if r != 0 {
                        let nb = self.neighbor_ids[inc.port as usize];
                        lower(&mut self.cur, EdgeTag::new(r, self.myid, nb));
                    }
                }
            }
            if let Some(tag) = self.cur {
                let seed = [self.myid];
                if self.half_k == 1 {
                    // k = 3: the seed round is the last send round.
                    own_sent.reset(1);
                    own_sent.push(&seed);
                    self.own_sent_tag = Some(tag);
                }
                self.verdict.max_sent_seqs = self.verdict.max_sent_seqs.max(1);
                let mut seqs = std::mem::take(spare);
                seqs.reset(1);
                seqs.push(&seed);
                broadcast_keeping_spare(out, spare, CkMsg::Seqs { tag, seqs });
            }
            return Status::Running;
        }

        if local <= self.half_k {
            // Paper round t = local: prioritized prune-and-forward,
            // entirely within recycled buffers.
            let t = local as usize;
            absorb(&mut self.cur, recv, prune.sort_scratch(), &inbox, t - 1);
            build_send_set_into(recv, self.myid, self.k, t, prune, send);
            if !send.is_empty() {
                self.verdict.max_sent_seqs = self.verdict.max_sent_seqs.max(send.len());
                own_sent.clone_from(send);
                self.own_sent_tag = self.cur;
                // ck-lint: allow(no-panic, reason = "the send set is only filled while a served repetition is in flight, which sets cur")
                let tag = self.cur.expect("cur set when R nonempty");
                let mut seqs = std::mem::take(spare);
                seqs.clone_from(send);
                broadcast_keeping_spare(out, spare, CkMsg::Seqs { tag, seqs });
            } else if local == self.half_k {
                // Nothing contributed at the final send round: stale own
                // sequences must not feed the even-k decision.
                own_sent.reset(0);
                self.own_sent_tag = None;
            }
            return Status::Running;
        }

        // local == half_k + 1: decision round (Instructions 31–42) on
        // the sequences sent at round half_k.
        let half = self.half_k as usize;
        absorb(&mut self.cur, recv, prune.sort_scratch(), &inbox, half);
        let own: &SeqRows =
            if self.own_sent_tag == self.cur && self.cur.is_some() { own_sent } else { &NO_ROWS };
        if !self.verdict.rejected {
            if let Some(w) = decide_reject(self.k, self.myid, own, recv) {
                self.verdict.rejected = true;
                self.verdict.first_rejection = Some(Box::new(Rejection {
                    repetition: rep,
                    // ck-lint: allow(no-panic, reason = "a rejection can only arise from received sequences, which carry the current tag")
                    tag: self.cur.expect("a decision needs served traffic"),
                    witness: w,
                }));
            }
        }
        if rep + 1 == self.reps_total {
            Status::Halted
        } else {
            Status::Running
        }
    }

    fn verdict(&self) -> NodeVerdict {
        self.verdict.clone()
    }
}

/// Aggregated network-level result.
#[derive(Clone, Debug, Default)]
pub struct TesterRun {
    /// True if at least one node rejected in some repetition — the
    /// network-level *reject* of distributed property testing.
    pub reject: bool,
    /// Repetitions executed.
    pub repetitions: u32,
    /// Rejections whose witness failed post-run validation and were
    /// discarded. Witnesses are validated only when the run delivered
    /// corrupted frames
    /// ([`FaultReport::corrupted_delivered`](ck_congest::metrics::FaultReport::corrupted_delivered)
    /// above 0), so this is 0 on every other run.
    pub discarded_witnesses: u32,
    /// Engine outcome (per-round stats + per-node verdicts).
    pub outcome: RunOutcome<NodeVerdict>,
}

impl TesterRun {
    /// All recorded rejections, ordered by node index.
    pub fn rejections(&self) -> Vec<&Rejection> {
        self.outcome.verdicts.iter().filter_map(|v| v.first_rejection.as_deref()).collect()
    }

    /// Largest per-message sequence count over all nodes and rounds.
    pub fn max_sent_seqs(&self) -> usize {
        self.outcome.verdicts.iter().map(|v| v.max_sent_seqs).max().unwrap_or(0)
    }
}

/// The tester engine proper: one full run through a caller-owned
/// engine workspace and node-state arena, written into a caller-owned
/// [`TesterRun`], running a distributed engine on the caller's worker
/// `fleet` (see [`Fleet::run`]). This is the single implementation
/// behind [`crate::session::TesterSession`], and so behind every batch
/// shard. Engine arenas, slot arrays and the node-state arena are
/// recycled from the previous run instead of reallocated; the output is
/// bit-identical to a fresh-state run (a reset workspace delivers what
/// a fresh one does, and the payloads earlier runs left parked in its
/// broadcast slots only come back as spare backings, whose contents
/// every send overwrites). The run's engine outcome is reset
/// (capacities kept) rather than rebuilt, so a warm accept-path rerun
/// under the sequential executor performs zero heap operations — the
/// dynamic contract `ck_lint::alloc_gate` pins down. On error the run's
/// contents are unspecified.
pub(crate) fn tester_exec_into(
    g: &Graph,
    cfg: &TesterConfig,
    engine: &EngineConfig,
    ws: &mut ck_congest::engine::EngineWorkspace<CkMsg>,
    arena: &mut SoaArena,
    fleet: &mut Fleet,
    run: &mut TesterRun,
) -> Result<(), EngineError> {
    let reps = cfg.effective_repetitions();
    let mut ecfg = engine.clone();
    ecfg.max_rounds = total_rounds(cfg.k, reps);
    // The tester is serializable (config + graph rebuild the node
    // programs exactly), so `Distributed` dispatches to the real
    // cross-process coordinator here rather than the generic engine's
    // sequential degradation. Any transport failure degrades to the
    // in-process oracle below — bounded by the net deadlines, recorded
    // in the report — unless fallback is disabled.
    if let ck_congest::engine::Executor::Distributed { workers } = ecfg.executor {
        let w = u32::from(workers.max(1));
        match fleet.run(g, cfg, &ecfg, w) {
            Ok(outcome) => {
                run.outcome = outcome;
                finish_tester_run(g, cfg, reps, run);
                return Ok(());
            }
            Err(crate::dist::DistError::Engine(e)) => return Err(e),
            Err(crate::dist::DistError::Net(ne)) => {
                if !ecfg.net.fallback {
                    return Err(EngineError::Net(ne));
                }
                let recovery_start = ck_congest::clock::Stopwatch::start();
                let mut seq = ecfg.clone();
                seq.executor = ck_congest::engine::Executor::Sequential;
                tester_exec_inproc(g, cfg, reps, &seq, ws, arena, run)?;
                let report = &mut run.outcome.report;
                report.executor = "distributed";
                report.threads = w as usize;
                report.net = Some(ck_congest::metrics::NetReport {
                    workers: w,
                    fleet_spawned: fleet.spawned(),
                    fallback: Some(ne.to_string()),
                    recovery_ms: Some(recovery_start.elapsed().as_millis() as u64),
                    ..ck_congest::metrics::NetReport::default()
                });
                return Ok(());
            }
        }
    }
    tester_exec_inproc(g, cfg, reps, &ecfg, ws, arena, run)
}

/// The in-process execution path (sequential or parallel executor)
/// behind [`tester_exec_into`] — also the graceful-degradation target
/// of a failed distributed run.
fn tester_exec_inproc(
    g: &Graph,
    cfg: &TesterConfig,
    reps: u32,
    ecfg: &EngineConfig,
    ws: &mut ck_congest::engine::EngineWorkspace<CkMsg>,
    arena: &mut SoaArena,
    run: &mut TesterRun,
) -> Result<(), EngineError> {
    let params = ck_congest::message::WireParams::for_graph(g);
    // One node→thread plan snapshot shared between the arena's
    // chunk-shared scratch and the run itself: sizing and pinning off
    // the same capture closes the window where a concurrent
    // forced-worker change could hand two threads aliased scratch (the
    // partition the engine executes is, by construction, the one the
    // scratch was laid out for).
    if matches!(ecfg.executor, ck_congest::engine::Executor::Parallel) {
        let plan = ck_congest::engine::node_step_plan(g.n());
        arena.prepare(g, plan.chunk_len);
        ws.pin_node_chunk_plan(plan);
    } else {
        arena.prepare(g, g.n().max(1));
    }
    // The arena stays dormant behind these Copy base pointers for the
    // whole run (`SoaView`'s invariants); every buffer a view touches
    // is owned by the arena, including the spare backings the payloads
    // parked in the workspace's broadcast slots come back as.
    let bases = arena.bases();
    ws.run_on_into(
        g,
        ecfg,
        &params,
        |init| CkTester::new(cfg, &init, SoaView::new(bases, init.position as usize)),
        &mut run.outcome,
    )?;
    finish_tester_run(g, cfg, reps, run);
    Ok(())
}

/// The shared post-run tail: witness re-validation, then the
/// network-level verdict — identical for in-process and distributed
/// outcomes, which is what keeps the two bit-comparable. Operates on
/// the run in place so the warm-rerun path stays allocation-free.
///
/// Witnesses are re-validated exactly when the run delivered corrupted
/// frames. Every executor counts those deliveries identically (the
/// distributed coordinator merges the workers' counts from their round
/// digests), and a run that delivered none cannot hold a fabricated
/// witness: by Lemma 1 every sequence that arrives is a genuine path.
fn finish_tester_run(g: &Graph, cfg: &TesterConfig, reps: u32, run: &mut TesterRun) {
    let mut discarded_witnesses = 0u32;
    if run.outcome.report.faults.corrupted_delivered > 0 {
        for v in &mut run.outcome.verdicts {
            let valid = v.first_rejection.as_deref().is_none_or(|r| witness_is_valid(g, cfg.k, r));
            if !valid {
                v.rejected = false;
                v.first_rejection = None;
                discarded_witnesses += 1;
            }
        }
    }
    run.reject = run.outcome.verdicts.iter().any(|v| v.rejected);
    run.repetitions = reps;
    run.discarded_witnesses = discarded_witnesses;
}

/// Post-run witness validation: the recorded cycle must be a genuine
/// `Ck` of the *input graph* passing through the tagged edge. On a
/// reliable network this holds by construction (Lemma 1: every shipped
/// sequence is a real path); under frame corruption a garbage payload
/// can assemble a phantom cycle, and this check is what discards it.
fn witness_is_valid(g: &Graph, k: usize, r: &Rejection) -> bool {
    let ids = r.witness.cycle_ids();
    if ids.len() != k {
        return false;
    }
    // Distinct identities that all exist in the graph.
    let mut seen = ids.clone();
    seen.sort_unstable();
    // ck-lint: allow(index-literal, reason = "windows(2) yields exactly-two-element slices")
    if seen.windows(2).any(|w| w[0] == w[1]) {
        return false;
    }
    let Some(idx): Option<Vec<_>> = ids.iter().map(|&id| g.index_of(id)).collect() else {
        return false;
    };
    // Consecutive adjacency, wraparound included.
    for i in 0..k {
        let next = ids[(i + 1) % k];
        if !g.neighbor_ids(idx[i]).contains(&next) {
            return false;
        }
    }
    // The tagged edge lies on the cycle.
    (0..k).any(|i| {
        let (x, y) = (ids[i], ids[(i + 1) % k]);
        (x.min(y), x.max(y)) == (r.tag.lo, r.tag.hi)
    })
}

/// One-call convenience: tests `Ck`-freeness of `g` at parameter `eps`.
///
/// # Panics
/// Panics on out-of-range `k`/`eps` (use
/// [`crate::session::TesterSession`] for a [`ConfigError`] instead).
pub fn test_ck_freeness(g: &Graph, k: usize, eps: f64, seed: u64) -> TesterRun {
    crate::session::TesterSession::builder(k, eps)
        .seed(seed)
        .build()
        // ck-lint: allow(no-panic, reason = "documented '# Panics' contract for this one-call convenience; TesterSession is the checked path")
        .unwrap_or_else(|e| panic!("{e}"))
        .test(g)
        // ck-lint: allow(no-panic, reason = "default engine config has no faults, no net, no bandwidth cap — the only EngineError sources")
        .expect("default engine config cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ck_congest::engine::Executor;
    use ck_congest::graph::{GraphBuilder, NodeIndex};
    use ck_graphgen::basic::{complete_bipartite, cycle, petersen};

    /// The tests' single-run entry: a fresh session per call.
    fn run_tester(
        g: &Graph,
        cfg: &TesterConfig,
        engine: &EngineConfig,
    ) -> Result<TesterRun, EngineError> {
        crate::session::TesterSession::from_config(*cfg, engine.clone()).unwrap().test(g)
    }
    use ck_graphgen::farness::is_valid_ck;
    use ck_graphgen::planted::{eps_far_instance, matched_free_instance};
    use ck_graphgen::random::{random_tree, randomize_ids};

    #[test]
    fn single_cycle_always_detected() {
        // Every edge of C_k lies on the (unique) C_k, so whichever edge
        // wins arbitration, Phase 2 finds the cycle: detection holds for
        // every seed, not just with probability 2/3.
        for k in 3..=9 {
            for seed in 0..5 {
                let g = cycle(k);
                let cfg = TesterConfig { repetitions: Some(1), ..TesterConfig::new(k, 0.1, seed) };
                let run = run_tester(&g, &cfg, &EngineConfig::default()).unwrap();
                assert!(run.reject, "C{k} must be rejected (seed {seed})");
            }
        }
    }

    #[test]
    fn one_sidedness_on_free_graphs() {
        // Ck-free ⟹ accept with probability exactly 1: no seed, ID
        // labeling, or k may ever produce a reject.
        let mut cases: Vec<(Graph, Vec<usize>)> = vec![
            (random_tree(40, 1), (3..=9).collect()),
            (petersen(), vec![3, 4, 7]),
            (complete_bipartite(5, 5), vec![3, 5, 7, 9]),
        ];
        for k in 3..=8 {
            cases.push((matched_free_instance(40, k), vec![k]));
        }
        for (g, ks) in &cases {
            for &k in ks {
                for seed in 0..4u64 {
                    let g = randomize_ids(g, seed.wrapping_mul(31) + 5);
                    let cfg =
                        TesterConfig { repetitions: Some(2), ..TesterConfig::new(k, 0.2, seed) };
                    let run = run_tester(&g, &cfg, &EngineConfig::default()).unwrap();
                    assert!(!run.reject, "false reject: k={k} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn eps_far_detection_rate_clears_two_thirds() {
        for k in [3usize, 4, 5, 6] {
            let eps = 0.08;
            let inst = eps_far_instance(60, k, eps, 0);
            let trials = 12;
            let mut rejects = 0;
            for seed in 0..trials {
                if test_ck_freeness(&inst.graph, k, eps, seed).reject {
                    rejects += 1;
                }
            }
            assert!(
                rejects * 3 >= trials * 2,
                "k={k}: detection rate {rejects}/{trials} below 2/3"
            );
        }
    }

    #[test]
    fn rejection_witnesses_are_real_cycles() {
        let inst = eps_far_instance(40, 5, 0.05, 2);
        let run = test_ck_freeness(&inst.graph, 5, 0.05, 3);
        assert!(run.reject);
        for r in run.rejections() {
            let ids = r.witness.cycle_ids();
            let idx: Vec<_> = ids.iter().map(|&id| inst.graph.index_of(id).unwrap()).collect();
            assert!(is_valid_ck(&inst.graph, 5, &idx), "bogus witness {ids:?}");
            // The tagged edge lies on the witness cycle.
            let on = (0..5).any(|i| {
                let (x, y) = (ids[i], ids[(i + 1) % 5]);
                (x.min(y), x.max(y)) == (r.tag.lo, r.tag.hi)
            });
            assert!(on, "witness must pass through the tagged edge");
        }
    }

    #[test]
    fn round_budget_matches_schedule() {
        let g = cycle(7);
        let cfg = TesterConfig { repetitions: Some(3), ..TesterConfig::new(7, 0.1, 0) };
        let run = run_tester(&g, &cfg, &EngineConfig::default()).unwrap();
        assert_eq!(run.outcome.report.rounds, 3 * rounds_per_repetition(7));
        assert!(run.outcome.report.all_halted);
    }

    #[test]
    fn executors_agree_on_full_tester() {
        let inst = eps_far_instance(36, 4, 0.05, 1);
        let cfg = TesterConfig { repetitions: Some(2), ..TesterConfig::new(4, 0.05, 9) };
        let mut e = EngineConfig { executor: Executor::Sequential, ..EngineConfig::default() };
        let a = run_tester(&inst.graph, &cfg, &e).unwrap();
        e.executor = Executor::Parallel;
        let b = run_tester(&inst.graph, &cfg, &e).unwrap();
        assert_eq!(a.reject, b.reject);
        assert_eq!(a.outcome.report.per_round, b.outcome.report.per_round);
    }

    /// Heavy recycled payloads through the broadcast-slot path must stay
    /// bit-identical across executors even when a nontrivial fault plan
    /// reshapes both Phase-1 rank delivery and Phase-2 bundles.
    #[test]
    fn executors_agree_under_faults_with_pooled_payloads() {
        use ck_congest::fault::FaultPlan;
        let inst = eps_far_instance(40, 5, 0.05, 4);
        let cfg = TesterConfig { repetitions: Some(3), ..TesterConfig::new(5, 0.05, 11) };
        for faults in [
            FaultPlan::none().random_loss(0.15, 9),
            FaultPlan::none().random_loss(0.4, 2).drop_at(1, 0, 0).drop_at(2, 3, 1),
        ] {
            let mut e = EngineConfig {
                executor: Executor::Sequential,
                faults: faults.clone(),
                ..EngineConfig::default()
            };
            let a = run_tester(&inst.graph, &cfg, &e).unwrap();
            e.executor = Executor::Parallel;
            let b = run_tester(&inst.graph, &cfg, &e).unwrap();
            assert_eq!(a.reject, b.reject);
            let digest = |r: &TesterRun| {
                r.outcome
                    .verdicts
                    .iter()
                    .map(|v| {
                        (v.rejected, v.max_sent_seqs, v.first_rejection.as_ref().map(|x| x.tag))
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(digest(&a), digest(&b));
            assert_eq!(a.outcome.report.per_round, b.outcome.report.per_round);
            assert_eq!(a.outcome.report.rounds, b.outcome.report.rounds);
        }
    }

    /// A clean run delivers no corrupted frame, so it validates no
    /// witness: the ε-far instance rejects and nothing is discarded.
    #[test]
    fn witness_verification_is_a_noop_on_honest_runs() {
        let inst = eps_far_instance(40, 5, 0.05, 2);
        let cfg = TesterConfig { repetitions: Some(3), ..TesterConfig::new(5, 0.05, 3) };
        let run = run_tester(&inst.graph, &cfg, &EngineConfig::default()).unwrap();
        assert!(run.reject);
        assert_eq!(run.outcome.report.faults.corrupted_delivered, 0);
        assert_eq!(run.discarded_witnesses, 0, "honest witnesses must all survive");
    }

    #[test]
    fn corruption_cannot_fabricate_rejects_by_default() {
        use ck_congest::fault::FaultPlan;
        // Ck-free graphs under aggressive frame corruption: garbage
        // payloads reach the decision logic, and the default
        // configuration's witness verification keeps the network-level
        // verdict at accept.
        for k in [4usize, 5] {
            let g = matched_free_instance(36, k);
            for seed in 0..3u64 {
                let engine = EngineConfig {
                    faults: FaultPlan::none().corrupt_frames(0.5, seed * 13 + 1),
                    ..EngineConfig::default()
                };
                let cfg = TesterConfig { repetitions: Some(3), ..TesterConfig::new(k, 0.1, seed) };
                let run = run_tester(&g, &cfg, &engine).unwrap();
                assert!(!run.reject, "fabricated reject survived verification: k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn assumed_loss_inflates_the_executed_schedule() {
        let g = cycle(4);
        let cfg = TesterConfig {
            repetitions: Some(2),
            assumed_loss: Some(0.3),
            ..TesterConfig::new(4, 0.1, 0)
        };
        // ⌈1/0.7⁸⌉ = 18 → 36 repetitions actually run.
        assert_eq!(cfg.effective_repetitions(), 36);
        let run = run_tester(&g, &cfg, &EngineConfig::default()).unwrap();
        assert_eq!(run.repetitions, 36);
        assert!(run.reject);
    }

    /// Node `v`'s program over `arena`, prepared for `g` as one chunk,
    /// for stepping single rounds through an `InboxBuf`.
    fn lone_node<'g>(
        g: &'g Graph,
        cfg: &TesterConfig,
        arena: &mut SoaArena,
        v: NodeIndex,
    ) -> CkTester<'g> {
        arena.prepare(g, g.n());
        let init = NodeInit {
            index: v,
            position: v,
            id: g.id(v),
            neighbor_ids: g.neighbor_ids(v),
            n: g.n(),
            m: g.m(),
        };
        CkTester::new(cfg, &init, SoaView::new(arena.bases(), v as usize))
    }

    /// Phase 1 keeps a running minimum over the node's own keys and the
    /// ranks it receives. Node 1 of the path 0–1–2 owns the edge (1, 2)
    /// and hears the rank of (0, 1) from node 0. A received rank 1 wins
    /// (on a rank tie, endpoint 0 < 1 decides); a received rank 0, which
    /// only a corrupted frame can carry, names no edge, so the node
    /// serves its own.
    #[test]
    fn phase1_adopts_the_smallest_own_or_received_key() {
        use ck_congest::node::InboxBuf;
        let g = GraphBuilder::new(3).edge(0, 1).edge(1, 2).build().unwrap();
        let cfg = TesterConfig::new(5, 0.1, 3);
        let (id0, id1, id2) = (g.id(0), g.id(1), g.id(2));
        let from0 = g.neighbor_ids(1).iter().position(|&nb| nb == id0).unwrap() as u32;
        for (received, adopts_received) in [(1, true), (0, false)] {
            let mut arena = SoaArena::default();
            let mut node = lone_node(&g, &cfg, &mut arena, 1);
            let mut out = Outbox::for_harness(2);
            assert_eq!(node.step(0, InboxBuf::new().view(), &mut out), Status::Running);
            let sends = out.take_sends();
            assert_eq!(sends.len(), 1, "node 1 ranks the one edge it owns");
            assert_eq!(sends[0].0, 1 - from0, "the rank goes to node 2");
            let CkMsg::Rank(r_own) = sends[0].1 else { panic!("round 0 ships a rank") };
            let mut inbox = InboxBuf::new();
            inbox.push(from0, CkMsg::Rank(received));
            assert_eq!(node.step(1, inbox.view(), &mut out), Status::Running);
            let tag = if adopts_received {
                EdgeTag::new(1, id0, id1)
            } else {
                EdgeTag::new(r_own, id1, id2)
            };
            let seed = CkMsg::Seqs { tag, seqs: SeqRows::from_rows(1, &[&[id1]]) };
            let sends = out.take_sends();
            assert_eq!(sends.len(), 2, "one seed broadcast over both ports");
            for (_, msg) in sends {
                assert_eq!(msg, seed, "received rank {received}");
            }
        }
    }

    /// Absorb serves the smallest tag and drops payloads whose width
    /// disagrees with the round (a distributed frame whose context word
    /// is off): the step forwards only the served tag's round-width
    /// rows, each with the node's ID appended, instead of tripping the
    /// pruner's width check. A larger tag that arrives first, with rows
    /// of the round's width, is served until the smaller one replaces
    /// it, and its rows go with it.
    #[test]
    fn foreign_width_payloads_are_dropped() {
        use ck_congest::node::InboxBuf;
        let g = GraphBuilder::new(4).edge(0, 1).edge(0, 2).edge(0, 3).build().unwrap();
        let cfg = TesterConfig::new(7, 0.1, 1);
        let mut arena = SoaArena::default();
        let mut node = lone_node(&g, &cfg, &mut arena, 0);
        let myid = g.id(0);
        // Paper round t = 3 of repetition 0 carries width-2 rows.
        let round = 3;
        assert!((2..=node.half_k).contains(&(round % node.rpr)));
        let tag = EdgeTag::new(5, 40, 41);
        let larger = EdgeTag::new(6, 40, 41);
        let mut inbox = InboxBuf::new();
        inbox.push(0, CkMsg::Seqs { tag: larger, seqs: SeqRows::from_rows(2, &[&[50, 51]]) });
        let fit = SeqRows::from_rows(2, &[&[20, 21], &[10, 11]]);
        inbox.push(1, CkMsg::Seqs { tag, seqs: fit });
        inbox.push(2, CkMsg::Seqs { tag, seqs: SeqRows::from_rows(3, &[&[30, 31, 32]]) });
        let mut out = Outbox::for_harness(3);
        assert_eq!(node.step(round, inbox.view(), &mut out), Status::Running);
        let want = SeqRows::from_rows(3, &[&[10, 11, myid], &[20, 21, myid]]);
        let sends = out.take_sends();
        assert_eq!(sends.len(), 3, "one broadcast over every port");
        for (_, msg) in sends {
            assert_eq!(msg, CkMsg::Seqs { tag, seqs: want.clone() });
        }
    }

    #[test]
    fn index_relabeling_does_not_change_id_keyed_randomness() {
        // Ranks key on node identity: relabeling indices but keeping IDs
        // and topology produces the same verdict.
        let g = cycle(6);
        let cfg = TesterConfig { repetitions: Some(1), ..TesterConfig::new(6, 0.1, 4) };
        let a = run_tester(&g, &cfg, &EngineConfig::default()).unwrap();
        let b = run_tester(&g, &cfg, &EngineConfig::default()).unwrap();
        assert_eq!(a.reject, b.reject);
        assert_eq!(a.outcome.report.total_messages(), b.outcome.report.total_messages());
    }
}
