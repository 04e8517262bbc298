//! Behavior under message loss.
//!
//! The paper assumes a reliable synchronous network. A useful systems
//! question the simulator can answer is what each guarantee degrades
//! into under loss:
//!
//! * **1-sidedness is loss-proof.** A reject is assembled from sequences
//!   that *arrived*; by Lemma 1 every arrived sequence is a genuine
//!   simple path, so any assembled `Ck` is real no matter which messages
//!   vanished. Dropping messages can suppress detections, never invent
//!   them.
//! * **Detection degrades gracefully.** Each repetition needs the
//!   `O(k)` messages along one cycle to survive; with per-message loss
//!   rate `p`, a repetition succeeds with probability ≳ `(1−p)^{k·⌊k/2⌋}`
//!   and independent repetitions recover the 2/3 bound at the cost of a
//!   constant-factor schedule inflation.
//!
//! * **Corruption needs a verifier, and gets one.** A tampered frame
//!   that still decodes carries sequences that never traversed the
//!   network, so Lemma 1's "every arrived sequence is a genuine path"
//!   premise breaks and a phantom cycle can be assembled. A run that
//!   delivered any corrupted frame therefore re-validates every
//!   rejection's cycle against the input graph and discards
//!   fabrications (counted in
//!   [`TesterRun::discarded_witnesses`](crate::tester::TesterRun::discarded_witnesses)),
//!   which keeps the tester 1-sided; there is nothing to switch on.
//! * **The degradation knob has a closed form.** With per-message loss
//!   `p`, a repetition's `k·⌊k/2⌋` cycle-critical deliveries all
//!   survive with probability `(1−p)^{k·⌊k/2⌋}`, so inflating the
//!   schedule by `⌈1/(1−p)^{k·⌊k/2⌋}⌉`
//!   ([`crate::rank::loss_inflation`], via
//!   [`TesterConfig::assumed_loss`](crate::tester::TesterConfig::assumed_loss))
//!   keeps the expected number of clean repetitions at the paper's
//!   schedule and thereby the ≥ 2/3 detection bound.
//!
//! [`loss_detection_curve`], [`crash_detection_curve`], and
//! [`adaptive_vs_fixed`] measure these degradations; the experiment
//! harness (`BENCH_engine.json`'s `robust` block) and tests consume
//! them.

use crate::rank::loss_inflation;
use crate::session::TesterSession;
use crate::tester::TesterConfig;
use ck_congest::engine::EngineConfig;
use ck_congest::fault::FaultPlan;
use ck_congest::graph::Graph;

/// One point of the loss-vs-detection curve.
#[derive(Clone, Copy, Debug)]
pub struct LossPoint {
    /// Per-message loss probability.
    pub loss: f64,
    /// Trials run.
    pub trials: u32,
    /// Trials in which the network rejected.
    pub rejects: u32,
}

impl LossPoint {
    /// Empirical detection rate.
    pub fn rate(&self) -> f64 {
        f64::from(self.rejects) / f64::from(self.trials.max(1))
    }
}

/// Measures the detection rate of the full tester on `g` under the given
/// per-message loss probabilities.
pub fn loss_detection_curve(
    g: &Graph,
    k: usize,
    eps: f64,
    losses: &[f64],
    trials: u32,
    seed: u64,
) -> Vec<LossPoint> {
    // One session for the whole sweep: seeds and fault plans vary per
    // trial through the unvalidated setters, so every trial after the
    // first runs on warm arenas and scratch.
    let mut session =
        TesterSession::from_config(TesterConfig::new(k, eps, seed), EngineConfig::default())
            // ck-lint: allow(no-panic, reason = "k and eps were validated by the sweep's caller contract; config rejection here is a harness bug")
            .unwrap_or_else(|e| panic!("{e}"));
    losses
        .iter()
        .map(|&loss| {
            let mut rejects = 0;
            for t in 0..trials {
                session.engine_mut().faults =
                    FaultPlan::none().random_loss(loss, seed ^ (u64::from(t) << 17));
                session.set_seed(seed.wrapping_add(u64::from(t)));
                // ck-lint: allow(no-panic, reason = "fault plans injected here drop messages, which the tester tolerates by design; EngineError is unreachable without net/bandwidth config")
                if session.test(g).expect("engine run").reject {
                    rejects += 1;
                }
            }
            LossPoint { loss, trials, rejects }
        })
        .collect()
}

/// One point of the crash-count-vs-detection sweep.
#[derive(Clone, Copy, Debug)]
pub struct CrashPoint {
    /// Nodes crash-stopped from round 0.
    pub crashed: usize,
    /// Trials run.
    pub trials: u32,
    /// Trials in which the network rejected.
    pub rejects: u32,
}

impl CrashPoint {
    /// Empirical detection rate.
    pub fn rate(&self) -> f64 {
        f64::from(self.rejects) / f64::from(self.trials.max(1))
    }
}

/// Measures the detection rate of the full tester on `g` when `counts`
/// nodes crash-stop from round 0 (send-omission: the crashed nodes stay
/// silent for the whole run). The crashed set rotates deterministically
/// per trial so no fixed subgraph is privileged.
pub fn crash_detection_curve(
    g: &Graph,
    k: usize,
    eps: f64,
    counts: &[usize],
    trials: u32,
    seed: u64,
) -> Vec<CrashPoint> {
    let n = g.n();
    let mut session =
        TesterSession::from_config(TesterConfig::new(k, eps, seed), EngineConfig::default())
            // ck-lint: allow(no-panic, reason = "k and eps were validated by the sweep's caller contract; config rejection here is a harness bug")
            .unwrap_or_else(|e| panic!("{e}"));
    counts
        .iter()
        .map(|&crashed| {
            let mut rejects = 0;
            for t in 0..trials {
                // Deterministic rotating offset: trials sample different
                // crashed sets without an RNG dependency.
                let offset = (seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u64::from(t).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                    % n as u64) as usize;
                let mut plan = FaultPlan::none();
                for i in 0..crashed.min(n) {
                    plan = plan.crash(((offset + i) % n) as u32, 0);
                }
                session.engine_mut().faults = plan;
                session.set_seed(seed.wrapping_add(u64::from(t)));
                // ck-lint: allow(no-panic, reason = "fault plans injected here drop messages, which the tester tolerates by design; EngineError is unreachable without net/bandwidth config")
                if session.test(g).expect("engine run").reject {
                    rejects += 1;
                }
            }
            CrashPoint { crashed, trials, rejects }
        })
        .collect()
}

/// Outcome of an adaptive-vs-fixed schedule comparison on one lossy
/// network: the fixed arm runs the paper schedule as-is; the adaptive
/// arm sets [`TesterConfig::assumed_loss`] and pays the
/// [`loss_inflation`]-inflated schedule to buy its detection rate back.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveComparison {
    /// Per-message loss rate both arms ran under.
    pub loss: f64,
    /// Trials per arm.
    pub trials: u32,
    /// Schedule inflation factor the adaptive arm paid.
    pub inflation: u32,
    /// Fixed-schedule rejects.
    pub fixed_rejects: u32,
    /// Adaptive-schedule rejects.
    pub adaptive_rejects: u32,
}

impl AdaptiveComparison {
    /// Detection rate of the fixed (paper-schedule) arm.
    pub fn fixed_rate(&self) -> f64 {
        f64::from(self.fixed_rejects) / f64::from(self.trials.max(1))
    }

    /// Detection rate of the loss-aware adaptive arm.
    pub fn adaptive_rate(&self) -> f64 {
        f64::from(self.adaptive_rejects) / f64::from(self.trials.max(1))
    }
}

/// Runs the fixed and the loss-aware schedules side by side on `g`
/// under i.i.d. per-message loss `loss`, with identical fault plans and
/// Phase-1 seeds per trial — the measured counterpart of the
/// [`loss_inflation`] derivation.
pub fn adaptive_vs_fixed(
    g: &Graph,
    k: usize,
    eps: f64,
    loss: f64,
    trials: u32,
    seed: u64,
) -> AdaptiveComparison {
    let base = TesterConfig::new(k, eps, seed);
    let mut fixed =
        // ck-lint: allow(no-panic, reason = "k and eps were validated by the sweep's caller contract; config rejection here is a harness bug")
        TesterSession::from_config(base, EngineConfig::default()).unwrap_or_else(|e| panic!("{e}"));
    let mut adaptive = TesterSession::from_config(
        TesterConfig { assumed_loss: Some(loss), ..base },
        EngineConfig::default(),
    )
    // ck-lint: allow(no-panic, reason = "same validated base config as the fixed session above")
    .unwrap_or_else(|e| panic!("{e}"));
    let mut fixed_rejects = 0;
    let mut adaptive_rejects = 0;
    for t in 0..trials {
        let plan = FaultPlan::none().random_loss(loss, seed ^ (u64::from(t) << 17) | 1);
        for (session, rejects) in
            [(&mut fixed, &mut fixed_rejects), (&mut adaptive, &mut adaptive_rejects)]
        {
            session.engine_mut().faults = plan.clone();
            session.set_seed(seed.wrapping_add(u64::from(t)));
            // ck-lint: allow(no-panic, reason = "loss plans drop messages, which the tester tolerates by design; EngineError is unreachable without net/bandwidth config")
            if session.test(g).expect("engine run").reject {
                *rejects += 1;
            }
        }
    }
    AdaptiveComparison {
        loss,
        trials,
        inflation: loss_inflation(k, loss),
        fixed_rejects,
        adaptive_rejects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests' single-run entry: a fresh session per call.
    fn run_tester(
        g: &ck_congest::graph::Graph,
        cfg: &TesterConfig,
        engine: &EngineConfig,
    ) -> Result<crate::tester::TesterRun, ck_congest::engine::EngineError> {
        crate::session::TesterSession::from_config(*cfg, engine.clone()).unwrap().test(g)
    }

    use ck_graphgen::basic::cycle;
    use ck_graphgen::farness::{contains_ck, is_valid_ck};
    use ck_graphgen::planted::{eps_far_instance, matched_free_instance};

    #[test]
    fn one_sidedness_survives_arbitrary_loss() {
        // Heavy random loss on a Ck-free graph: still never a reject.
        let g = matched_free_instance(40, 5);
        for seed in 0..4u64 {
            let engine = EngineConfig {
                faults: FaultPlan::none().random_loss(0.3, seed),
                ..EngineConfig::default()
            };
            let cfg = TesterConfig { repetitions: Some(4), ..TesterConfig::new(5, 0.1, seed) };
            assert!(!run_tester(&g, &cfg, &engine).unwrap().reject);
        }
    }

    #[test]
    fn rejects_under_loss_are_still_sound() {
        // On a graph WITH cycles, whatever survives the loss and triggers
        // a reject must be a real cycle.
        let inst = eps_far_instance(40, 4, 0.05, 0);
        for seed in 0..4u64 {
            let engine = EngineConfig {
                faults: FaultPlan::none().random_loss(0.15, seed * 7 + 1),
                ..EngineConfig::default()
            };
            let cfg = TesterConfig { repetitions: Some(20), ..TesterConfig::new(4, 0.05, seed) };
            let run = run_tester(&inst.graph, &cfg, &engine).unwrap();
            if run.reject {
                assert!(contains_ck(&inst.graph, 4));
                for r in run.rejections() {
                    let idx: Vec<_> = r
                        .witness
                        .cycle_ids()
                        .iter()
                        .map(|&id| inst.graph.index_of(id).unwrap())
                        .collect();
                    assert!(is_valid_ck(&inst.graph, 4, &idx));
                }
            }
        }
    }

    #[test]
    fn detection_rate_decreases_with_loss() {
        let g = cycle(6);
        let curve = loss_detection_curve(&g, 6, 0.2, &[0.0, 0.9], 6, 3);
        assert_eq!(curve[0].rate(), 1.0, "lossless detection on a lone cycle is certain");
        assert!(curve[1].rate() <= curve[0].rate(), "90% loss cannot beat lossless detection");
    }

    #[test]
    fn crash_curve_spans_certain_to_silent() {
        let g = cycle(6);
        let curve = crash_detection_curve(&g, 6, 0.2, &[0, 6], 4, 5);
        assert_eq!(curve[0].rate(), 1.0, "no crashes: a lone cycle is always detected");
        assert_eq!(curve[1].rate(), 0.0, "every node crashed: the network is silent");
        assert_eq!((curve[0].crashed, curve[1].crashed), (0, 6));
    }

    #[test]
    fn crashes_cannot_fabricate_rejects() {
        // Crash-stop is a loss pattern; 1-sidedness is loss-proof.
        let g = matched_free_instance(30, 4);
        let curve = crash_detection_curve(&g, 4, 0.1, &[0, 3, 10], 3, 7);
        assert!(curve.iter().all(|p| p.rejects == 0), "{curve:?}");
    }

    #[test]
    fn adaptive_schedule_recovers_the_detection_floor() {
        // k = 4 on a lone C4 at 40% i.i.d. loss: the paper schedule
        // detects well under 2/3 of the time, the loss-aware schedule
        // (inflation ⌈1/0.6⁸⌉ = 60) clears the floor.
        let g = cycle(4);
        let cmp = adaptive_vs_fixed(&g, 4, 0.3, 0.4, 6, 2);
        assert_eq!(cmp.inflation, 60);
        assert!(
            cmp.adaptive_rejects * 3 >= cmp.trials * 2,
            "adaptive rate {} below 2/3",
            cmp.adaptive_rate()
        );
        assert!(
            cmp.adaptive_rejects >= cmp.fixed_rejects,
            "inflation must not lose detections: {cmp:?}"
        );
    }

    #[test]
    fn clean_repetition_recovers_from_a_jammed_one() {
        // Jam every message of node 0 during repetition 0 (rounds 0..4
        // for k = 5). Repetition 1 runs untouched, and on a lone cycle a
        // clean repetition detects deterministically.
        let g = cycle(5);
        let mut plan = FaultPlan::none();
        for round in 0..4 {
            for port in 0..2 {
                plan = plan.drop_at(round, 0, port);
            }
        }
        let engine = EngineConfig { faults: plan, ..EngineConfig::default() };
        let cfg = TesterConfig { repetitions: Some(2), ..TesterConfig::new(5, 0.2, 11) };
        let run = run_tester(&g, &cfg, &engine).unwrap();
        assert!(run.reject, "the clean repetition must detect the cycle");
    }
}
