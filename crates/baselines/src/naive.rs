//! Naive append-and-forward: Phase 2 *without* the pruning rule.
//!
//! The paper introduces Algorithm 1's pruning precisely because the
//! obvious protocol — forward every received sequence with your ID
//! appended — either floods links (a node connected to the edge's
//! endpoints via many vertex-disjoint same-length routes must forward all
//! of them, violating CONGEST bandwidth) or, if sequences are dropped
//! arbitrarily to fit a cap, silently loses the only witnesses (the
//! Figure-1 pitfall: if `x` and `y` both keep only their `u`-side
//! sequence, `z` can never assemble the C5).
//!
//! Three drop policies make both failure modes measurable:
//!
//! * [`DropPolicy::KeepAll`] — exact detection, unbounded link load
//!   (baseline for experiment E11's congestion blow-up);
//! * [`DropPolicy::TruncateDeterministic`] — keep the first `cap`
//!   sequences in canonical order (the deterministic Figure-1 failure);
//! * [`DropPolicy::SampleRandom`] — keep `cap` uniform sequences (the
//!   "random sampling" flavor of prior-technique generalizations that
//!   provably cannot reach constant rounds for `k ≥ 5`).

use ck_congest::engine::{EngineConfig, EngineError, RunOutcome};
use ck_congest::graph::{Edge, Graph, NodeId};
use ck_congest::node::{Inbox, NodeInit, Outbox, Program, Status};
use ck_congest::rngs::{derived_rng, labels};
use ck_congest::session::Session;
use ck_core::decide::decide_reject;
use ck_core::seq::{SeqRows, SortScratch, MAX_K};
use rand::rngs::StdRng;
use rand::RngExt;

/// How the naive forwarder sheds load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropPolicy {
    /// Forward everything (exact, congesting).
    KeepAll,
    /// Keep the first `cap` sequences in canonical (sorted) order.
    TruncateDeterministic { cap: usize },
    /// Keep `cap` sequences sampled uniformly without replacement.
    SampleRandom { cap: usize, seed: u64 },
}

/// Per-node verdict of the naive detector.
#[derive(Clone, Debug, Default)]
pub struct NaiveVerdict {
    /// True if this node assembled a `Ck`.
    pub reject: bool,
    /// Largest sequence count this node ever wanted to forward in one
    /// round (before dropping) — the congestion indicator.
    pub max_offered: usize,
}

/// Unpruned `DetectCk(u, v)` for one node.
pub struct NaiveSingle {
    k: usize,
    half_k: u32,
    myid: NodeId,
    u_id: NodeId,
    v_id: NodeId,
    policy: DropPolicy,
    rng: StdRng,
    own_sent: SeqRows,
    verdict: NaiveVerdict,
}

impl NaiveSingle {
    pub fn new(k: usize, init: &NodeInit, edge_ids: (NodeId, NodeId), policy: DropPolicy) -> Self {
        assert!((3..=MAX_K).contains(&k));
        let seed = match policy {
            DropPolicy::SampleRandom { seed, .. } => seed,
            _ => 0,
        };
        NaiveSingle {
            k,
            half_k: (k / 2) as u32,
            myid: init.id,
            u_id: edge_ids.0,
            v_id: edge_ids.1,
            policy,
            rng: derived_rng(seed, labels::NAIVE_SAMPLER, init.id, 0),
            own_sent: SeqRows::default(),
            verdict: NaiveVerdict::default(),
        }
    }

    /// The deduplicated received `width`-ID sequences (payloads of any
    /// other width contribute nothing).
    fn collect(inbox: Inbox<'_, SeqRows>, width: usize) -> SeqRows {
        let mut r = SeqRows::new(width);
        for inc in inbox.iter().filter(|inc| inc.msg.width() == width) {
            r.extend_rows(inc.msg);
        }
        r.sort_dedup(&mut SortScratch::default());
        r
    }

    fn shed(&mut self, offered: SeqRows) -> SeqRows {
        self.verdict.max_offered = self.verdict.max_offered.max(offered.len());
        let keep: Vec<usize> = match self.policy {
            DropPolicy::KeepAll => return offered,
            DropPolicy::TruncateDeterministic { cap } => (0..cap.min(offered.len())).collect(),
            DropPolicy::SampleRandom { cap, .. } => {
                // Partial Fisher–Yates for a uniform cap-subset.
                let mut order: Vec<usize> = (0..offered.len()).collect();
                let take = cap.min(order.len());
                for i in 0..take {
                    let j = self.rng.random_range(i..order.len());
                    order.swap(i, j);
                }
                order.truncate(take);
                order
            }
        };
        let mut kept = SeqRows::new(offered.width());
        for i in keep {
            kept.push(offered.row(i));
        }
        kept
    }
}

impl Program for NaiveSingle {
    type Msg = SeqRows;
    type Verdict = NaiveVerdict;

    fn step(&mut self, round: u32, inbox: Inbox<'_, SeqRows>, out: &mut Outbox<SeqRows>) -> Status {
        if round == 0 {
            if self.myid == self.u_id || self.myid == self.v_id {
                let seed = SeqRows::from_rows(1, &[&[self.myid]]);
                if self.half_k == 1 {
                    self.own_sent = seed.clone();
                }
                out.broadcast(seed);
            }
            return Status::Running;
        }
        // Engine round r carries the r-ID sequences sent at round r − 1.
        let width = round as usize;
        if round < self.half_k {
            let received = Self::collect(inbox, width);
            let mut appended = SeqRows::new(width + 1);
            for s in received.rows().filter(|s| !s.contains(&self.myid)) {
                appended.push_appended(s, self.myid);
            }
            let send = self.shed(appended);
            if !send.is_empty() {
                self.own_sent = send.clone();
                out.broadcast(send);
            } else if round + 1 == self.half_k {
                self.own_sent.reset(0);
            }
            return Status::Running;
        }
        let received = Self::collect(inbox, width);
        if let Some(w) = decide_reject(self.k, self.myid, &self.own_sent, &received) {
            let _ = w;
            self.verdict.reject = true;
        }
        Status::Halted
    }

    fn verdict(&self) -> NaiveVerdict {
        self.verdict.clone()
    }
}

/// Network-level outcome of a naive run.
#[derive(Clone, Debug)]
pub struct NaiveRun {
    pub reject: bool,
    /// Largest per-node offered load across the run.
    pub max_offered: usize,
    pub outcome: RunOutcome<NaiveVerdict>,
}

/// Runs the naive detector for edge `e`.
pub fn naive_detect_through_edge(
    g: &Graph,
    k: usize,
    e: Edge,
    policy: DropPolicy,
    config: &EngineConfig,
) -> Result<NaiveRun, EngineError> {
    assert!(g.has_edge(e.a, e.b));
    let ids = (g.id(e.a), g.id(e.b));
    let mut cfg = config.clone();
    cfg.max_rounds = (k / 2) as u32 + 1;
    let outcome = Session::builder(g)
        .config(cfg)
        .build()
        .run(|init| NaiveSingle::new(k, &init, ids, policy))?;
    let reject = outcome.verdicts.iter().any(|v| v.reject);
    let max_offered = outcome.verdicts.iter().map(|v| v.max_offered).max().unwrap_or(0);
    Ok(NaiveRun { reject, max_offered, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ck_graphgen::basic::{cycle, fan, figure1, spindle};

    #[test]
    fn keep_all_is_exact_on_small_graphs() {
        for k in 3..=8 {
            let g = cycle(k);
            for &e in g.edges() {
                let out = naive_detect_through_edge(
                    &g,
                    k,
                    e,
                    DropPolicy::KeepAll,
                    &EngineConfig::default(),
                )
                .unwrap();
                assert!(out.reject, "C{k} edge {e:?}");
            }
        }
    }

    #[test]
    fn figure1_truncation_misses_the_cycle() {
        // The paper's own example: with cap 1 and deterministic order,
        // both x and y keep the u-side sequence and z never sees a
        // disjoint pair.
        let g = figure1();
        let e = Edge::new(0, 1);
        let full =
            naive_detect_through_edge(&g, 5, e, DropPolicy::KeepAll, &EngineConfig::default())
                .unwrap();
        assert!(full.reject);
        let capped = naive_detect_through_edge(
            &g,
            5,
            e,
            DropPolicy::TruncateDeterministic { cap: 1 },
            &EngineConfig::default(),
        )
        .unwrap();
        assert!(!capped.reject, "cap-1 truncation must lose the witness");
    }

    #[test]
    fn offered_load_explodes_on_spindle() {
        // spindle(p, 2): the first middle node receives p same-length
        // route prefixes and must offer all of them.
        let g = spindle(12, 2);
        let e = Edge::new(0, 1);
        let out =
            naive_detect_through_edge(&g, 6, e, DropPolicy::KeepAll, &EngineConfig::default())
                .unwrap();
        assert!(out.reject);
        assert!(out.max_offered >= 12, "offered {} must scale with p", out.max_offered);
    }

    #[test]
    fn random_sampling_sometimes_misses() {
        // fan(2) = Figure 1: each middle node keeps one of its two
        // received seeds at random; with probability 1/2 both keep the
        // same hub and the apex misses. Over 20 seeds expect both
        // outcomes.
        let g = fan(2);
        let e = Edge::new(0, 1);
        let mut hits = 0;
        let mut misses = 0;
        for seed in 0..20 {
            let out = naive_detect_through_edge(
                &g,
                5,
                e,
                DropPolicy::SampleRandom { cap: 1, seed },
                &EngineConfig::default(),
            )
            .unwrap();
            if out.reject {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        assert!(misses > 0, "cap-1 sampling should miss sometimes");
        assert!(hits > 0, "cap-1 sampling should hit sometimes");
    }
}
