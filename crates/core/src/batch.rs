//! The sharded multi-graph batch runner: run the full `Ck` tester over
//! a family of `(graph, config, seed)` jobs with one reusable engine
//! workspace and node-state arena per shard.
//!
//! The paper's experimental claims are statements over instance
//! families — reject rates across dozens of planted ε-far graphs,
//! trials × seeds per `(k, n)` cell — and a naive loop pays full engine
//! setup (engine arenas, node-state arena) for every single
//! run. [`TesterSession::test_batch`] amortizes that across the batch:
//! jobs are sharded contiguously over the thread pool, each shard
//! drives its jobs through one sequential [`TesterSession`]
//! (reconfigured per job, its engine workspace and node-state arena
//! cleared and re-sized between jobs, never reallocated when the next
//! graph fits), and the per-job [`TesterRun`]s come back in input
//! order, **bit-identical** to one-by-one single-shot runs under the
//! sequential executor.
//!
//! Within a shard, jobs execute under `Executor::Sequential` regardless
//! of the template config: the parallelism budget is spent *across*
//! graphs (the sweeps' natural grain), not inside each small run, and
//! nesting the scoped-thread executor inside shard threads would
//! oversubscribe the pool. By the engine's determinism contract this
//! changes no observable output except the report's executor label.

use crate::session::TesterSession;
use crate::tester::{ConfigError, TesterConfig, TesterRun};
use ck_congest::batch::{effective_shards, run_sharded};
use ck_congest::engine::EngineError;
use ck_congest::graph::Graph;

/// One unit of batch work: a graph, the tester parameters to run on it
/// (the Phase-1 seed lives in [`TesterConfig::seed`]), and a label used
/// in error reports so a failed instance names itself.
pub struct BatchJob<'a> {
    pub graph: &'a Graph,
    pub cfg: TesterConfig,
    pub label: String,
}

impl<'a> BatchJob<'a> {
    /// A job with an auto-generated `n=…/seed=…` label.
    pub fn new(graph: &'a Graph, cfg: TesterConfig) -> Self {
        let label = format!("n={}/k={}/seed={}", graph.n(), cfg.k, cfg.seed);
        BatchJob { graph, cfg, label }
    }

    /// A job with an explicit label (a CLI spec, an experiment cell).
    pub fn labeled(graph: &'a Graph, cfg: TesterConfig, label: impl Into<String>) -> Self {
        BatchJob { graph, cfg, label: label.into() }
    }
}

/// Why a batch job failed: a parameter outside the tester's domain
/// (caught by validation before anything runs) or a genuine engine
/// failure mid-run.
#[derive(Clone, Debug, PartialEq)]
pub enum BatchFailure {
    /// The job's [`TesterConfig`] is out of range.
    Config(ConfigError),
    /// The engine rejected the run (e.g. bandwidth enforcement).
    Engine(EngineError),
}

impl std::fmt::Display for BatchFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchFailure::Config(e) => e.fmt(f),
            BatchFailure::Engine(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for BatchFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchFailure::Config(e) => Some(e),
            BatchFailure::Engine(e) => Some(e),
        }
    }
}

/// A failed batch job, carrying enough context to name the instance —
/// one bad graph reports itself instead of panicking mid-sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchError {
    /// Index of the failed job in the input slice.
    pub job: usize,
    /// The job's label.
    pub label: String,
    /// The job's Phase-1 seed.
    pub seed: u64,
    /// The underlying failure.
    pub error: BatchFailure,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch job {} ({}, seed {}) failed: {}",
            self.job, self.label, self.seed, self.error
        )
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// The batch engine proper — the implementation behind
/// [`TesterSession::test_batch`]. Every job's [`TesterConfig`] is
/// validated before anything runs, so a bad cell is a
/// [`BatchFailure::Config`] naming the job, never a panic mid-sweep.
/// Each shard runs its jobs through a sequential twin of `session` (see
/// the module docs), so the template's executor is ignored;
/// `shards = None` uses the thread pool's width, clamped to the job
/// count.
pub(crate) fn batch_exec(
    jobs: &[BatchJob<'_>],
    session: &TesterSession,
    shards: Option<usize>,
) -> Result<Vec<TesterRun>, BatchError> {
    let fail = |idx: usize, job: &BatchJob<'_>, error| BatchError {
        job: idx,
        label: job.label.clone(),
        seed: job.cfg.seed,
        error,
    };
    for (idx, job) in jobs.iter().enumerate() {
        job.cfg.validate().map_err(|e| fail(idx, job, BatchFailure::Config(e)))?;
    }
    let shards = effective_shards(shards, jobs.len());
    let results = run_sharded(
        jobs,
        shards,
        || session.sequential_twin(),
        |twin, idx, job| {
            twin.reconfigure(job.cfg).map_err(|e| fail(idx, job, BatchFailure::Config(e)))?;
            twin.test(job.graph).map_err(|e| fail(idx, job, BatchFailure::Engine(e)))
        },
    );
    // Results are in input order, so `collect` surfaces the first
    // failing job deterministically regardless of shard scheduling.
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ck_congest::engine::{BandwidthPolicy, EngineConfig, Executor};
    use ck_graphgen::basic::cycle;
    use ck_graphgen::planted::{eps_far_instance, matched_free_instance};

    fn digest(r: &TesterRun) -> (bool, u32, Vec<crate::tester::NodeVerdict>, u32) {
        (r.reject, r.repetitions, r.outcome.verdicts.clone(), r.outcome.report.rounds)
    }

    #[test]
    fn batch_matches_one_by_one_bit_for_bit() {
        let far = eps_far_instance(36, 5, 0.05, 1);
        let free = matched_free_instance(30, 5);
        let c5 = cycle(5);
        let graphs: Vec<(&Graph, usize)> =
            vec![(&far.graph, 5), (&free, 5), (&c5, 5), (&far.graph, 4)];
        let jobs: Vec<BatchJob> = graphs
            .iter()
            .enumerate()
            .map(|(i, &(g, k))| {
                let cfg = TesterConfig {
                    repetitions: Some(2),
                    ..TesterConfig::new(k, 0.1, 11 + i as u64)
                };
                BatchJob::new(g, cfg)
            })
            .collect();
        let engine = EngineConfig { executor: Executor::Sequential, ..EngineConfig::default() };
        let loop_runs: Vec<TesterRun> = jobs
            .iter()
            .map(|j| {
                TesterSession::from_config(j.cfg, engine.clone()).unwrap().test(j.graph).unwrap()
            })
            .collect();
        let session = TesterSession::builder(5, 0.1).build().unwrap();
        for shards in [1usize, 2, 4] {
            let batch = session.test_batch(&jobs, Some(shards)).unwrap();
            assert_eq!(batch.len(), jobs.len());
            for (a, b) in loop_runs.iter().zip(&batch) {
                assert_eq!(digest(a), digest(b), "shards={shards}");
                assert_eq!(a.outcome.report.per_round, b.outcome.report.per_round);
            }
        }
    }

    #[test]
    fn batch_error_names_the_failing_job() {
        // An absurdly tight enforced bandwidth fails every run; the
        // batch must report the *first* job with its label and seed.
        let g = cycle(6);
        let jobs: Vec<BatchJob> = (0..3)
            .map(|i| {
                let cfg =
                    TesterConfig { repetitions: Some(1), ..TesterConfig::new(6, 0.1, i as u64) };
                BatchJob::labeled(&g, cfg, format!("cell-{i}"))
            })
            .collect();
        let session = TesterSession::builder(6, 0.1)
            .engine(EngineConfig {
                bandwidth: BandwidthPolicy::Enforce { bits: 1 },
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        let err = session.test_batch(&jobs, Some(2)).unwrap_err();
        assert_eq!(err.job, 0);
        assert_eq!(err.label, "cell-0");
        assert_eq!(err.seed, 0);
        assert!(matches!(err.error, BatchFailure::Engine(_)));
        let msg = err.to_string();
        assert!(msg.contains("cell-0") && msg.contains("failed"), "{msg}");
    }

    #[test]
    fn empty_batch_is_fine() {
        let session = TesterSession::builder(5, 0.1).build().unwrap();
        let out = session.test_batch(&[], None).unwrap();
        assert!(out.is_empty());
    }
}
