//! Phase 2 in isolation: `DetectCk(u, v)` for one designated edge.
//!
//! This is Algorithm 1 exactly as the paper analyzes it ("let us describe
//! Phase 2 for edge e only, assuming that no other checks … are running
//! concurrently"). It is fully deterministic, needs no ε-farness, and by
//! Lemma 2 rejects **iff** some `Ck` passes through the edge — the
//! strongest correctness statement in the paper, which the test-suite
//! checks edge-exhaustively against the sequential oracle.
//!
//! Round mapping (engine round → paper round): engine round `r` sends the
//! messages the paper sends "at round `r+1`"; the final decision happens
//! at engine round `⌊k/2⌋` on the sequences sent at engine round
//! `⌊k/2⌋ − 1`.

use crate::decide::{decide_all_rejects, RejectWitness};
use crate::prune::{build_send_set_into, SendSetScratch};
use crate::seq::{SeqRows, MAX_K};
use ck_congest::engine::{EngineConfig, EngineError, RunOutcome};
use ck_congest::graph::{Edge, Graph, NodeId};
use ck_congest::node::{Inbox, NodeInit, Outbox, Program, Status};
use ck_congest::session::Session;

/// Per-node outcome of the single-edge detector.
#[derive(Clone, Debug, Default)]
pub struct SingleVerdict {
    /// True when this node output `reject` (a `Ck` through the edge was
    /// assembled here).
    pub reject: bool,
    /// The witness pair when rejecting.
    pub witness: Option<RejectWitness>,
    /// Every witnessing pair found at this node (for ablation probes;
    /// the protocol itself only needs one).
    pub all_witnesses: Vec<RejectWitness>,
    /// Largest number of sequences this node put into one message — the
    /// quantity Lemma 3 bounds by `(k−t+1)^(t−1)`.
    pub max_sent_seqs: usize,
}

/// The `DetectCk(u, v)` state machine for one node.
pub struct DetectSingle {
    k: usize,
    half_k: u32,
    myid: NodeId,
    u_id: NodeId,
    v_id: NodeId,
    /// Sequences broadcast at the last send round (consulted for even k).
    own_sent: SeqRows,
    verdict: SingleVerdict,
    /// Recycled receive buffer (collect output).
    recv: SeqRows,
    /// Recycled send-set buffer.
    send_buf: SeqRows,
    /// Pruner workspace.
    scratch: SendSetScratch,
    /// Spare backing for the next outgoing payload: the payload the
    /// engine's broadcast slot last evicted.
    spare: SeqRows,
}

impl DetectSingle {
    /// Creates the program for one node; `edge_ids` are the identities of
    /// the designated edge's endpoints.
    pub fn new(k: usize, init: &NodeInit, edge_ids: (NodeId, NodeId)) -> Self {
        assert!((3..=MAX_K).contains(&k), "k = {k} outside supported range");
        DetectSingle {
            k,
            half_k: (k / 2) as u32,
            myid: init.id,
            u_id: edge_ids.0,
            v_id: edge_ids.1,
            own_sent: SeqRows::default(),
            verdict: SingleVerdict::default(),
            recv: SeqRows::default(),
            send_buf: SeqRows::default(),
            scratch: SendSetScratch::default(),
            spare: SeqRows::default(),
        }
    }

    /// Dedups the received `width`-ID sequences into the recycled `recv`
    /// buffer, reading the shared broadcast payloads in place. A payload
    /// of any other width contributes nothing.
    fn collect(&mut self, inbox: Inbox<'_, SeqRows>, width: usize) {
        self.recv.reset(width);
        for inc in inbox.iter().filter(|inc| inc.msg.width() == width) {
            self.recv.extend_rows(inc.msg);
        }
        self.recv.sort_dedup(self.scratch.sort_scratch());
    }

    /// Broadcasts `seqs`, keeping the payload the broadcast evicts from
    /// this node's slot as the spare backing.
    fn broadcast_keeping_spare(&mut self, out: &mut Outbox<SeqRows>, seqs: SeqRows) {
        if let Some(evicted) = out.broadcast(seqs) {
            self.spare = evicted;
        }
    }
}

impl Program for DetectSingle {
    type Msg = SeqRows;
    type Verdict = SingleVerdict;

    fn step(&mut self, round: u32, inbox: Inbox<'_, SeqRows>, out: &mut Outbox<SeqRows>) -> Status {
        if round == 0 {
            // Paper round 1: the endpoints seed their own ID.
            if self.myid == self.u_id || self.myid == self.v_id {
                let seed = [self.myid];
                if self.half_k == 1 {
                    // k ∈ {3}: the seed round is also the last send round.
                    self.own_sent.reset(1);
                    self.own_sent.push(&seed);
                }
                self.verdict.max_sent_seqs = 1;
                let mut seqs = std::mem::take(&mut self.spare);
                seqs.reset(1);
                seqs.push(&seed);
                self.broadcast_keeping_spare(out, seqs);
            }
            return Status::Running;
        }
        // Engine round r carries the sequences sent at engine round
        // r − 1: r IDs each.
        let width = round as usize;
        if round < self.half_k {
            // Paper round t = round + 1: prune and forward, entirely
            // within recycled buffers.
            self.collect(inbox, width);
            build_send_set_into(
                &self.recv,
                self.myid,
                self.k,
                round as usize + 1,
                &mut self.scratch,
                &mut self.send_buf,
            );
            if !self.send_buf.is_empty() {
                self.verdict.max_sent_seqs = self.verdict.max_sent_seqs.max(self.send_buf.len());
                self.own_sent.clone_from(&self.send_buf);
                let mut seqs = std::mem::take(&mut self.spare);
                seqs.clone_from(&self.send_buf);
                self.broadcast_keeping_spare(out, seqs);
            } else if round + 1 == self.half_k {
                // Nothing to contribute at the final send round: stale
                // own_sent from earlier rounds must not enter the decision.
                self.own_sent.reset(0);
            }
            return Status::Running;
        }
        // round == half_k: decision round.
        self.collect(inbox, width);
        let all = decide_all_rejects(self.k, self.myid, &self.own_sent, &self.recv);
        if !all.is_empty() {
            self.verdict.reject = true;
            self.verdict.witness = all.first().cloned();
            self.verdict.all_witnesses = all;
        }
        Status::Halted
    }

    fn verdict(&self) -> SingleVerdict {
        self.verdict.clone()
    }
}

/// Outcome of a whole-network single-edge run.
#[derive(Clone, Debug)]
pub struct SingleRun {
    /// True if at least one node rejected (network-level reject).
    pub reject: bool,
    /// Engine outcome (report + per-node verdicts).
    pub outcome: RunOutcome<SingleVerdict>,
}

impl SingleRun {
    /// Largest per-message sequence count over all nodes and rounds (the
    /// measured side of Lemma 3).
    pub fn max_sent_seqs(&self) -> usize {
        self.outcome.verdicts.iter().map(|v| v.max_sent_seqs).max().unwrap_or(0)
    }
}

/// Runs `DetectCk` for edge `e` of `g` and aggregates the network verdict.
pub fn detect_ck_through_edge(
    g: &Graph,
    k: usize,
    e: Edge,
    config: &EngineConfig,
) -> Result<SingleRun, EngineError> {
    assert!(g.has_edge(e.a, e.b), "designated edge must exist");
    let ids = (g.id(e.a), g.id(e.b));
    let mut cfg = config.clone();
    cfg.max_rounds = (k / 2) as u32 + 1;
    let outcome =
        Session::builder(g).config(cfg).build().run(|init| DetectSingle::new(k, &init, ids))?;
    let reject = outcome.verdicts.iter().any(|v| v.reject);
    Ok(SingleRun { reject, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ck_congest::engine::Executor;
    use ck_graphgen::basic::{cycle, figure1, petersen, theta};
    use ck_graphgen::farness::{has_ck_through_edge, is_valid_ck};

    fn run_edge(g: &Graph, k: usize, e: Edge) -> SingleRun {
        detect_ck_through_edge(g, k, e, &EngineConfig::default()).unwrap()
    }

    #[test]
    fn detects_the_full_cycle_from_any_edge() {
        for k in 3..10 {
            let g = cycle(k);
            for &e in g.edges() {
                let out = run_edge(&g, k, e);
                assert!(out.reject, "C{k} through every edge of the cycle");
            }
        }
    }

    #[test]
    fn accepts_when_no_cycle_of_that_length() {
        let g = cycle(6);
        for &e in g.edges() {
            assert!(!run_edge(&g, 5, e).reject, "C6 has no C5");
            assert!(!run_edge(&g, 4, e).reject, "C6 has no C4");
        }
    }

    #[test]
    fn figure1_c5_detected_at_z() {
        let g = figure1();
        let out = run_edge(&g, 5, Edge::new(0, 1));
        assert!(out.reject);
        // Node z (index 4) is the one antipodal to {u,v}: it decides.
        let rejecting: Vec<usize> = out
            .outcome
            .verdicts
            .iter()
            .enumerate()
            .filter(|(_, v)| v.reject)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(rejecting, vec![4]);
        let w = out.outcome.verdicts[4].witness.clone().unwrap();
        let cyc = w.cycle_ids();
        let idx: Vec<_> = cyc.iter().map(|&id| g.index_of(id).unwrap()).collect();
        assert!(is_valid_ck(&g, 5, &idx));
    }

    #[test]
    fn witness_cycles_are_always_real() {
        // Whenever any node rejects, its witness must reconstruct to an
        // actual Ck of the graph through the designated edge.
        let g = theta(4, 3);
        for k in 3..=9 {
            for &e in g.edges() {
                let out = run_edge(&g, k, e);
                for v in &out.outcome.verdicts {
                    if let Some(w) = &v.witness {
                        let idx: Vec<_> =
                            w.cycle_ids().iter().map(|&id| g.index_of(id).unwrap()).collect();
                        assert!(is_valid_ck(&g, k, &idx), "bogus witness k={k} e={e:?}");
                        // The designated edge is on the cycle.
                        let on_cycle = (0..k).any(|i| {
                            let x = idx[i];
                            let y = idx[(i + 1) % k];
                            Edge::new(x, y) == e
                        });
                        assert!(on_cycle, "witness cycle must pass through {e:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn exactness_against_oracle_exhaustive() {
        // Lemma 2 both directions, on structurally diverse graphs.
        let graphs: Vec<Graph> = vec![petersen(), theta(3, 2), figure1(), cycle(8)];
        for g in &graphs {
            for k in 3..=8 {
                for &e in g.edges() {
                    let expected = has_ck_through_edge(g, k, e);
                    let got = run_edge(g, k, e).reject;
                    assert_eq!(got, expected, "k={k}, e={e:?}");
                }
            }
        }
    }

    #[test]
    fn executors_agree() {
        let g = petersen();
        for k in [5usize, 6] {
            for &e in g.edges() {
                let mut cfg =
                    EngineConfig { executor: Executor::Sequential, ..EngineConfig::default() };
                let a = detect_ck_through_edge(&g, k, e, &cfg).unwrap();
                cfg.executor = Executor::Parallel;
                let b = detect_ck_through_edge(&g, k, e, &cfg).unwrap();
                assert_eq!(a.reject, b.reject);
                assert_eq!(a.outcome.report.per_round, b.outcome.report.per_round);
            }
        }
    }

    #[test]
    fn lemma3_bound_holds_on_congestion_worst_cases() {
        use crate::prune::lemma3_bound;
        use ck_graphgen::basic::{fan, spindle};
        for (g, k) in [(spindle(16, 2), 6usize), (spindle(12, 4), 8), (fan(10), 5)] {
            let worst: u128 = (2..=k / 2).map(|t| lemma3_bound(k, t)).max().unwrap_or(1);
            let out = run_edge(&g, k, Edge::new(0, 1));
            assert!(out.reject, "k={k}");
            assert!(
                (out.max_sent_seqs() as u128) <= worst,
                "k={k}: sent {} > Lemma 3 bound {worst}",
                out.max_sent_seqs()
            );
        }
    }

    /// A payload whose width disagrees with the round is dropped: the
    /// step forwards only the round-width rows, each with the node's ID
    /// appended, instead of tripping the pruner's width check.
    #[test]
    fn foreign_width_payloads_are_dropped() {
        use ck_congest::node::InboxBuf;
        let g = cycle(7);
        let init = NodeInit {
            index: 3,
            position: 3,
            id: g.id(3),
            neighbor_ids: g.neighbor_ids(3),
            n: g.n(),
            m: g.m(),
        };
        let myid = init.id;
        let mut node = DetectSingle::new(7, &init, (g.id(0), g.id(6)));
        // Engine round 2 (paper round 3) carries width-2 rows.
        let mut inbox = InboxBuf::new();
        inbox.push(0, SeqRows::from_rows(2, &[&[20, 21], &[10, 11]]));
        inbox.push(1, SeqRows::from_rows(3, &[&[30, 31, 32]]));
        let mut out = Outbox::for_harness(2);
        assert_eq!(node.step(2, inbox.view(), &mut out), Status::Running);
        let want = SeqRows::from_rows(3, &[&[10, 11, myid], &[20, 21, myid]]);
        let sends = out.take_sends();
        assert_eq!(sends.len(), 2, "one broadcast over both ports");
        for (_, seqs) in sends {
            assert_eq!(seqs, want);
        }
    }

    #[test]
    fn runs_in_half_k_plus_one_rounds() {
        let g = cycle(9);
        let out = run_edge(&g, 9, Edge::new(0, 8));
        assert_eq!(out.outcome.report.rounds, 5); // ⌊9/2⌋ + 1
        assert!(out.reject);
    }
}
