//! The composable entry point over the full `Ck` tester: build a
//! [`TesterSession`] once — parameters validated at build time — and
//! test graphs through it repeatedly.
//!
//! A `TesterSession` is one builder over [`TesterConfig`] with
//! validated setters (`k ∈ 3..=MAX_K`, `ε ∈ (0, 1)` via
//! [`crate::rank::try_repetitions_for`]). It owns the
//! [`ck_congest::engine::EngineWorkspace`] and the node-state
//! [`SoaArena`], so the fast path — engine-arena, slot-array, and
//! node-state reuse across runs — is the default rather than an expert
//! opt-in. Under the distributed executor it also owns the worker
//! fleet: the first run spawns and handshakes the workers, later
//! runs reuse them, and dropping the session ends them.
//!
//! Outputs of a reused session are bit-identical to a fresh session's
//! by the engine's reuse contracts — property-tested in
//! `tests/session_parity.rs`.

use crate::batch::{batch_exec, BatchError, BatchJob};
use crate::dist::Fleet;
use crate::msg::CkMsg;
use crate::soa::SoaArena;
use crate::tester::{tester_exec_into, ConfigError, TesterConfig, TesterRun};
use ck_congest::engine::{EngineConfig, EngineError, EngineWorkspace, Executor, SlotStats};
use ck_congest::graph::Graph;

/// Builder for a [`TesterSession`]; every setter records, [`build`]
/// validates.
///
/// [`build`]: TesterSessionBuilder::build
pub struct TesterSessionBuilder {
    cfg: TesterConfig,
    engine: EngineConfig,
}

impl TesterSessionBuilder {
    fn new(k: usize, eps: f64) -> Self {
        TesterSessionBuilder { cfg: TesterConfig::new(k, eps, 0), engine: EngineConfig::default() }
    }

    /// Master seed for all Phase-1 randomness (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Overrides the paper's `⌈(e²/ε)·ln 3⌉` repetition schedule.
    pub fn repetitions(mut self, repetitions: u32) -> Self {
        self.cfg.repetitions = Some(repetitions);
        self
    }

    /// Assumes a per-message loss rate in `[0, 1)` and inflates the
    /// repetition schedule by `⌈1/(1−p)^{k·⌊k/2⌋}⌉`
    /// ([`crate::rank::loss_inflation`]) to recover the ≥ 2/3 detection
    /// bound on lossy networks. Validated at build time.
    pub fn assume_loss(mut self, loss: f64) -> Self {
        self.cfg.assumed_loss = Some(loss);
        self
    }

    /// Replaces the engine template every run executes under.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the executor without replacing the whole engine template.
    /// Under [`Executor::Distributed`] the session's first test spawns
    /// the worker fleet (see [`crate::dist`]) and later tests reuse it.
    pub fn executor(mut self, executor: Executor) -> Self {
        self.engine.executor = executor;
        self
    }

    /// Validates the configuration (`k ∈ 3..=MAX_K`, `ε ∈ (0, 1)`) and
    /// builds the session.
    pub fn build(self) -> Result<TesterSession, ConfigError> {
        TesterSession::from_config(self.cfg, self.engine)
    }
}

/// A reusable execution context for the full `Ck`-freeness tester:
/// validated [`TesterConfig`], engine template, and internally owned
/// engine workspace + node-state [`SoaArena`], both recycled on every
/// [`test`](TesterSession::test), plus the distributed executor's
/// worker fleet, kept connected from one test to the next.
///
/// # Examples
///
/// ```
/// use ck_core::session::TesterSession;
/// use ck_graphgen::basic::cycle;
/// use ck_graphgen::planted::matched_free_instance;
///
/// let mut session = TesterSession::builder(5, 0.1)
///     .seed(42)
///     .repetitions(2)
///     .build()
///     .unwrap();
///
/// // A C5-free graph is accepted with probability 1 …
/// let free = matched_free_instance(30, 5);
/// assert!(!session.test(&free).unwrap().reject);
///
/// // … while a 5-cycle is rejected; the second run reuses the
/// // session's engine workspace and node-state arena.
/// let c5 = cycle(5);
/// assert!(session.test(&c5).unwrap().reject);
///
/// // Out-of-range parameters fail at build time, not mid-run.
/// assert!(TesterSession::builder(2, 0.1).build().is_err());
/// assert!(TesterSession::builder(5, 1.5).build().is_err());
/// ```
pub struct TesterSession {
    cfg: TesterConfig,
    engine: EngineConfig,
    ws: EngineWorkspace<CkMsg>,
    arena: SoaArena,
    fleet: Fleet,
}

impl std::fmt::Debug for TesterSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The workspace and arena are opaque recycled storage; the
        // configs are the session's identity.
        f.debug_struct("TesterSession")
            .field("cfg", &self.cfg)
            .field("engine", &self.engine)
            .field("slot_stats", &self.ws.slot_stats())
            .finish_non_exhaustive()
    }
}

impl TesterSession {
    /// Starts a builder for cycle length `k` at property-testing
    /// parameter `eps`.
    pub fn builder(k: usize, eps: f64) -> TesterSessionBuilder {
        TesterSessionBuilder::new(k, eps)
    }

    /// Builds a session from an already-assembled configuration pair,
    /// validating it.
    pub fn from_config(cfg: TesterConfig, engine: EngineConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(TesterSession::assemble(cfg, engine))
    }

    /// A fresh session with this one's (validated) configuration and
    /// engine template under the sequential executor: the state each
    /// batch shard runs its jobs through.
    pub(crate) fn sequential_twin(&self) -> TesterSession {
        let engine = EngineConfig { executor: Executor::Sequential, ..self.engine.clone() };
        TesterSession::assemble(self.cfg, engine)
    }

    fn assemble(cfg: TesterConfig, engine: EngineConfig) -> TesterSession {
        TesterSession {
            cfg,
            engine,
            ws: EngineWorkspace::new(),
            arena: SoaArena::default(),
            fleet: Fleet::default(),
        }
    }

    /// The validated tester configuration.
    pub fn config(&self) -> &TesterConfig {
        &self.cfg
    }

    /// The engine template every run executes under.
    pub fn engine(&self) -> &EngineConfig {
        &self.engine
    }

    /// Changes the Phase-1 master seed for subsequent tests. Seeds are
    /// not part of validation, so sweeping seeds through one session
    /// keeps the workspace and arena warm instead of rebuilding a
    /// session per trial.
    pub fn set_seed(&mut self, seed: u64) {
        self.cfg.seed = seed;
    }

    /// Swaps the full tester configuration, keeping the warm workspace
    /// and arena. This is the session-pool seam for long-running
    /// services: a worker holds one session across *heterogeneous*
    /// jobs (different `k`/`ε`/seed per client) and revalidates each
    /// incoming configuration here — a bad job is a [`ConfigError`] for
    /// that job only, and the arenas stay warm for the next one. On
    /// error the session's previous configuration is untouched.
    pub fn reconfigure(&mut self, cfg: TesterConfig) -> Result<(), ConfigError> {
        cfg.validate()?;
        self.cfg = cfg;
        Ok(())
    }

    /// Mutable access to the engine template (faults, bandwidth policy,
    /// executor — none of it validated state); takes effect on the next
    /// test. Lets loss/robustness sweeps vary the fault plan per trial
    /// without giving up session reuse. A distributed test under
    /// another worker count or other [`ck_congest::net::NetOptions`]
    /// than the live fleet's respawns the fleet.
    pub fn engine_mut(&mut self) -> &mut EngineConfig {
        &mut self.engine
    }

    /// Slot-array reuse counters of the owned workspace (after the
    /// first test, further tests allocate no per-run slot array).
    pub fn slot_stats(&self) -> SlotStats {
        self.ws.slot_stats()
    }

    /// Runs the full tester on `g`, recycling the session's workspace,
    /// arena and worker fleet. Output is bit-identical to a fresh-state
    /// run.
    pub fn test(&mut self, g: &Graph) -> Result<TesterRun, EngineError> {
        let mut run = TesterRun::default();
        self.test_into(g, &mut run)?;
        Ok(run)
    }

    /// As [`test`](TesterSession::test), writing the result into a
    /// caller-owned [`TesterRun`] (reset in place, allocations kept)
    /// instead of returning a fresh one. Rotating one run buffer
    /// through repeated tests makes the warm accept-path rerun fully
    /// allocation-free under the sequential executor — the claim the
    /// `ck_lint::alloc_gate` regression tests turn into a CI gate. On
    /// error the run's contents are unspecified.
    pub fn test_into(&mut self, g: &Graph, run: &mut TesterRun) -> Result<(), EngineError> {
        tester_exec_into(
            g,
            &self.cfg,
            &self.engine,
            &mut self.ws,
            &mut self.arena,
            &mut self.fleet,
            run,
        )
    }

    /// Runs a family of jobs through the sharded batch runner (one
    /// engine workspace + node-state arena per shard; results in input
    /// order, bit-identical to one-by-one [`test`](TesterSession::test)
    /// calls under the sequential executor). `shards = None` uses the
    /// thread pool's width.
    ///
    /// Batches are heterogeneous by design (sweeps mix `k`/`ε`/seeds
    /// per cell): each job carries and is governed by its **own**
    /// [`TesterConfig`] — the session contributes the engine template
    /// and nothing else; its `(k, ε)` govern only
    /// [`test`](TesterSession::test) and [`job`](TesterSession::job).
    /// Every job's configuration is validated up front, so the first
    /// (lowest-index) out-of-range job is a
    /// [`BatchFailure`](crate::batch::BatchFailure)`::Config` before
    /// anything runs.
    pub fn test_batch(
        &self,
        jobs: &[BatchJob<'_>],
        shards: Option<usize>,
    ) -> Result<Vec<TesterRun>, BatchError> {
        batch_exec(jobs, self, shards)
    }

    /// A batch job running this session's configuration on `graph` with
    /// a different Phase-1 seed — the trials-fan-out building block.
    pub fn job<'a>(&self, graph: &'a Graph, seed: u64) -> BatchJob<'a> {
        BatchJob::new(graph, TesterConfig { seed, ..self.cfg })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchFailure;
    use ck_graphgen::basic::cycle;
    use ck_graphgen::planted::eps_far_instance;

    #[test]
    fn builder_validates_k_and_eps() {
        for k in [0usize, 1, 2, crate::seq::MAX_K + 1, 100] {
            let err = TesterSession::builder(k, 0.1).build().unwrap_err();
            assert_eq!(err, ConfigError::KOutOfRange { k }, "{k}");
            assert!(err.to_string().contains("outside supported range"), "{err}");
        }
        for eps in [0.0, -0.5, 1.0, 2.0, f64::NAN] {
            let err = TesterSession::builder(5, eps).build().unwrap_err();
            assert!(matches!(err, ConfigError::EpsOutOfRange { .. }), "{eps}");
            assert!(err.to_string().contains("must lie in (0,1)"), "{err}");
        }
        assert!(TesterSession::builder(3, 0.99).build().is_ok());
        assert!(TesterSession::builder(crate::seq::MAX_K, 0.01).build().is_ok());
        for loss in [-0.1, 1.0, 1.5, f64::NAN] {
            let err = TesterSession::builder(5, 0.1).assume_loss(loss).build().unwrap_err();
            assert!(matches!(err, ConfigError::LossOutOfRange { .. }), "{loss}");
            assert!(err.to_string().contains("must lie in [0,1)"), "{err}");
        }
        assert!(TesterSession::builder(5, 0.1).assume_loss(0.0).build().is_ok());
    }

    #[test]
    fn builder_setters_land_in_the_config() {
        let mut session = TesterSession::builder(7, 0.2)
            .seed(9)
            .repetitions(4)
            .assume_loss(0.1)
            .executor(Executor::Sequential)
            .build()
            .unwrap();
        let cfg = session.config();
        assert_eq!((cfg.k, cfg.seed, cfg.repetitions), (7, 9, Some(4)));
        assert_eq!(cfg.assumed_loss, Some(0.1));
        // The schedule is inflated by ⌈1/0.9²¹⌉ = 10 for k = 7.
        assert_eq!(cfg.effective_repetitions(), 4 * 10);
        assert_eq!(session.engine().executor, Executor::Sequential);
        // Per-run knobs (unvalidated state) mutate in place.
        session.set_seed(77);
        session.engine_mut().max_rounds = 12;
        assert_eq!(session.config().seed, 77);
        assert_eq!(session.engine().max_rounds, 12);
    }

    #[test]
    fn session_reuse_is_warm_and_deterministic() {
        let inst = eps_far_instance(36, 5, 0.1, 1);
        let mut session = TesterSession::builder(5, 0.1).seed(3).repetitions(2).build().unwrap();
        let first = session.test(&inst.graph).unwrap();
        assert!(first.reject);
        for _ in 0..3 {
            let again = session.test(&inst.graph).unwrap();
            assert_eq!(first.outcome.verdicts, again.outcome.verdicts);
            assert_eq!(first.outcome.report.per_round, again.outcome.report.per_round);
        }
        let stats = session.slot_stats();
        assert_eq!(stats.takes, 4);
        assert_eq!(stats.misses, 1, "reused tests must not reallocate the slot array");
    }

    #[test]
    fn batch_surfaces_config_errors_before_running() {
        let g = cycle(5);
        let good = TesterConfig { repetitions: Some(1), ..TesterConfig::new(5, 0.1, 0) };
        let bad = TesterConfig { repetitions: Some(1), ..TesterConfig::new(99, 0.1, 0) };
        let session = TesterSession::builder(5, 0.1).build().unwrap();
        let jobs = vec![BatchJob::labeled(&g, good, "good"), BatchJob::labeled(&g, bad, "bad")];
        let err = session.test_batch(&jobs, None).unwrap_err();
        assert_eq!(err.job, 1);
        assert_eq!(err.label, "bad");
        assert_eq!(err.error, BatchFailure::Config(ConfigError::KOutOfRange { k: 99 }));
        assert!(err.to_string().contains("outside supported range"), "{err}");
    }

    #[test]
    fn reconfigure_keeps_arenas_warm_and_rejects_bad_configs() {
        let inst = eps_far_instance(36, 5, 0.1, 1);
        let mut session = TesterSession::builder(5, 0.1).seed(3).repetitions(2).build().unwrap();
        let five = session.test(&inst.graph).unwrap();
        assert!(five.reject, "the eps-far instance must reject under the original config");
        // A heterogeneous job (different k/ε/seed) through the same
        // session matches a fresh session bit for bit.
        let mut four = TesterConfig::new(4, 0.15, 11);
        four.repetitions = Some(2);
        session.reconfigure(four).unwrap();
        let warm = session.test(&inst.graph).unwrap();
        let cold = TesterSession::from_config(four, EngineConfig::default())
            .unwrap()
            .test(&inst.graph)
            .unwrap();
        assert_eq!(warm.outcome.verdicts, cold.outcome.verdicts);
        assert_eq!(warm.outcome.report.per_round, cold.outcome.report.per_round);
        // Both tests shared one slot array: reconfigure kept the arenas.
        let stats = session.slot_stats();
        assert_eq!((stats.takes, stats.misses), (2, 1));
        // A bad configuration is rejected and leaves the old one live.
        let err = session.reconfigure(TesterConfig::new(99, 0.15, 0)).unwrap_err();
        assert_eq!(err, ConfigError::KOutOfRange { k: 99 });
        assert_eq!(session.config().k, 4);
        let again = session.test(&inst.graph).unwrap();
        assert_eq!(again.outcome.verdicts, warm.outcome.verdicts);
    }

    #[test]
    fn session_jobs_fan_out_seeds() {
        let g = cycle(5);
        let session = TesterSession::builder(5, 0.1).repetitions(1).build().unwrap();
        let jobs: Vec<BatchJob> = (0..3).map(|t| session.job(&g, 100 + t)).collect();
        assert_eq!(jobs[2].cfg.seed, 102);
        assert_eq!(jobs[0].cfg.k, 5);
        let runs = session.test_batch(&jobs, Some(2)).unwrap();
        assert!(runs.iter().all(|r| r.reject), "C5 rejects for every seed");
    }
}
