//! The experiment suite (E1–E15): one function per table/figure of the
//! reproduction, each emitting a markdown table and a pass flag.
//!
//! The paper is a theory paper; its "evaluation" is Theorem 1, Lemmas 1–5
//! and two illustrative figures. Every experiment here measures the
//! corresponding claim on concrete instances. All runs are seeded and
//! deterministic.

use ck_baselines::naive::{naive_detect_through_edge, DropPolicy};
use ck_baselines::{test_c4_freeness, test_triangle_freeness};
use ck_congest::engine::{EngineConfig, EngineError};
use ck_congest::graph::{Edge, Graph};
use ck_congest::message::WireParams;
use ck_core::batch::{BatchError, BatchFailure, BatchJob};
use ck_core::prune::{build_send_set, lemma3_bound};
use ck_core::rank::{draw_rank, minimum_is_unique, rank_rng, E_SQUARED};
use ck_core::seq::SeqRows;
use ck_core::session::TesterSession;
use ck_core::single::detect_ck_through_edge;
use ck_core::tester::{TesterConfig, TesterRun};
use ck_graphgen::basic::{complete_bipartite, fan, figure1, grid, petersen, spindle, theta};
use ck_graphgen::behrend::behrend_ck_instance;
use ck_graphgen::farness::{greedy_ck_packing, has_ck_through_edge};
use ck_graphgen::planted::{eps_far_instance, matched_free_instance};
use ck_graphgen::random::{gnp, high_girth, random_tree, randomize_ids};

use crate::table::Table;

/// Output of one experiment.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Experiment id (`e1`..`e12`).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// The paper claim under measurement.
    pub claim: String,
    /// Measured table.
    pub table: Table,
    /// True when the measured data supports the claim.
    pub pass: bool,
    /// Free-form notes (deviations, caveats).
    pub notes: String,
}

/// A failed experiment run, naming the instance and seed that broke
/// the sweep — one bad graph reports itself instead of panicking
/// mid-table.
#[derive(Clone, Debug)]
pub struct ExperimentError {
    /// Experiment that failed (`e1`…`e15`).
    pub experiment: &'static str,
    /// Which instance/seed failed (graph description, seed, cell).
    pub context: String,
    /// The underlying failure (engine error or out-of-range config).
    pub error: BatchFailure,
}

impl ExperimentError {
    fn from_batch(experiment: &'static str, e: BatchError) -> Self {
        ExperimentError {
            experiment,
            context: format!("{} (job {}, seed {})", e.label, e.job, e.seed),
            error: e.error,
        }
    }

    /// `map_err` adapter for direct engine-run calls inside experiment
    /// loops: tags the failure with the experiment id and instance
    /// context.
    fn tag(
        experiment: &'static str,
        context: impl Into<String>,
    ) -> impl FnOnce(EngineError) -> ExperimentError {
        let context = context.into();
        move |error| ExperimentError { experiment, context, error: BatchFailure::Engine(error) }
    }
}

/// The experiments' batch driver: one throwaway session per job family.
/// Batches are heterogeneous (cells sweep `k`/`ε`/seeds), so each job
/// is governed by its own config — the session contributes only the
/// engine template, and its `(k, ε)` literals below are inert.
fn session_batch(
    experiment: &'static str,
    jobs: &[BatchJob<'_>],
    engine: EngineConfig,
) -> Result<Vec<TesterRun>, ExperimentError> {
    TesterSession::builder(3, 0.5)
        .engine(engine)
        .build()
        .expect("literal session parameters are valid")
        .test_batch(jobs, None)
        .map_err(|e| ExperimentError::from_batch(experiment, e))
}

/// One-shot tester run through a fresh session, tagged with the
/// experiment context on failure.
fn session_test(
    experiment: &'static str,
    context: String,
    g: &Graph,
    cfg: TesterConfig,
    engine: EngineConfig,
) -> Result<TesterRun, ExperimentError> {
    let mut session = TesterSession::from_config(cfg, engine).map_err(|e| ExperimentError {
        experiment,
        context: context.clone(),
        error: BatchFailure::Config(e),
    })?;
    session.test(g).map_err(ExperimentError::tag(experiment, context))
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "experiment {} failed on {}: {}", self.experiment, self.context, self.error)
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl ExperimentResult {
    /// Renders the full experiment block as markdown.
    pub fn render(&self) -> String {
        format!(
            "## {} — {}\n\n*Claim:* {}\n\n{}\n*Outcome:* **{}**{}\n",
            self.id.to_uppercase(),
            self.title,
            self.claim,
            self.table.render(),
            if self.pass { "PASS" } else { "FAIL" },
            if self.notes.is_empty() { String::new() } else { format!("\n\n{}", self.notes) }
        )
    }
}

fn detect_single(g: &Graph, k: usize, e: Edge) -> Result<ck_core::single::SingleRun, EngineError> {
    detect_ck_through_edge(g, k, e, &EngineConfig::default())
}

/// E1 — Theorem 1, soundness: `Ck`-free graphs are accepted with
/// probability exactly 1 (1-sided error).
pub fn e1_soundness() -> Result<ExperimentResult, ExperimentError> {
    let mut table = Table::new(["k", "family", "n", "trials", "false rejects"]);
    let mut pass = true;
    let seeds: Vec<u64> = (0..5).collect();
    for k in 3..=8usize {
        let mut families: Vec<(&str, Graph)> = vec![
            ("C(k+1)-cactus", matched_free_instance(48, k)),
            ("random tree", random_tree(48, 7)),
            ("high-girth", high_girth(48, k, 400, 3)),
        ];
        if k % 2 == 1 {
            families.push(("bipartite K6,6", complete_bipartite(6, 6)));
        } else if k == 4 {
            // Petersen is C4-free but contains C6 and C8, so it only
            // serves as the even-k control at k = 4.
            families.push(("petersen", petersen()));
        }
        for (name, g) in families {
            // One batch per (k, family) cell: the seeds' ID-randomized
            // variants are independent instances.
            let variants: Vec<Graph> =
                seeds.iter().map(|&s| randomize_ids(&g, s * 13 + 1)).collect();
            let jobs: Vec<BatchJob> = variants
                .iter()
                .zip(&seeds)
                .map(|(vg, &s)| {
                    let cfg = TesterConfig { repetitions: Some(3), ..TesterConfig::new(k, 0.1, s) };
                    BatchJob::labeled(vg, cfg, format!("e1 {name} k={k} seed={s}"))
                })
                .collect();
            let runs = session_batch("e1", &jobs, EngineConfig::default())?;
            let rejects = runs.iter().filter(|r| r.reject).count();
            pass &= rejects == 0;
            table.row([
                k.to_string(),
                name.to_string(),
                g.n().to_string(),
                seeds.len().to_string(),
                rejects.to_string(),
            ]);
        }
    }
    Ok(ExperimentResult {
        id: "e1",
        title: "1-sided error on Ck-free graphs".into(),
        claim: "G is Ck-free ⟹ Pr[every node accepts] = 1 (Theorem 1)".into(),
        table,
        pass,
        notes: String::new(),
    })
}

/// E2 — Theorem 1, detection: ε-far instances rejected with prob ≥ 2/3.
pub fn e2_detection() -> Result<ExperimentResult, ExperimentError> {
    let mut table = Table::new(["k", "eps", "n", "m", "reps", "trials", "reject rate", "≥ 2/3"]);
    let mut pass = true;
    let trials = 12u64;
    for k in 3..=6usize {
        for &eps in &[0.10f64, 0.05] {
            let inst = eps_far_instance(60, k, eps, 0);
            // Trials are independent runs: submit the whole cell as one
            // sharded batch (engine and node-state arenas are
            // reused per shard instead of rebuilt per trial).
            let jobs: Vec<BatchJob> = (0..trials)
                .map(|seed| {
                    BatchJob::labeled(
                        &inst.graph,
                        TesterConfig::new(k, eps, seed),
                        format!("e2 k={k} eps={eps} seed={seed}"),
                    )
                })
                .collect();
            let runs = session_batch("e2", &jobs, EngineConfig::default())?;
            let rejects = runs.iter().filter(|r| r.reject).count();
            let reps = runs.first().map(|r| r.repetitions).unwrap_or(0);
            let rate = rejects as f64 / trials as f64;
            let ok = rate >= 2.0 / 3.0;
            pass &= ok;
            table.row([
                k.to_string(),
                format!("{eps:.2}"),
                inst.graph.n().to_string(),
                inst.graph.m().to_string(),
                reps.to_string(),
                trials.to_string(),
                format!("{rate:.2}"),
                if ok { "yes".into() } else { "NO".to_string() },
            ]);
        }
    }
    Ok(ExperimentResult {
        id: "e2",
        title: "detection on ε-far instances".into(),
        claim: "G ε-far from Ck-free ⟹ Pr[some node rejects] ≥ 2/3 (Theorem 1)".into(),
        table,
        pass,
        notes: "Instances: certified ε-far planted cycle chains (packing > εm); each (k, ε) cell runs as one sharded batch.".into(),
    })
}

/// E3 — Theorem 1, round complexity: total rounds scale as Θ(1/ε).
pub fn e3_round_complexity() -> Result<ExperimentResult, ExperimentError> {
    let mut table = Table::new(["k", "eps", "reps", "engine rounds", "rounds × eps"]);
    let mut products = Vec::new();
    let k = 5usize;
    let g = matched_free_instance(40, k);
    for &eps in &[0.20f64, 0.10, 0.05, 0.025] {
        let cfg = TesterConfig::new(k, eps, 1);
        let run = session_test(
            "e3",
            format!("matched-free n=40 k={k} eps={eps}"),
            &g,
            cfg,
            EngineConfig::default(),
        )?;
        let rounds = run.outcome.report.rounds;
        products.push(f64::from(rounds) * eps);
        table.row([
            k.to_string(),
            format!("{eps:.3}"),
            run.repetitions.to_string(),
            rounds.to_string(),
            format!("{:.1}", f64::from(rounds) * eps),
        ]);
    }
    let (lo, hi) =
        products.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &p| (lo.min(p), hi.max(p)));
    let pass = hi / lo < 1.5; // linear in 1/ε up to ceiling effects
    Ok(ExperimentResult {
        id: "e3",
        title: "O(1/ε) round complexity".into(),
        claim: "the tester runs in O(1/ε) CONGEST rounds; rounds × ε ≈ const".into(),
        table,
        pass,
        notes: String::new(),
    })
}

/// E4 — Lemma 2: the single-edge detector rejects iff a `Ck` passes
/// through the designated edge (edge-exhaustive oracle comparison).
pub fn e4_single_edge_exactness() -> Result<ExperimentResult, ExperimentError> {
    let mut table =
        Table::new(["graph", "n", "m", "k range", "edges×k checks", "mismatches", "positives"]);
    let mut pass = true;
    let graphs: Vec<(&str, Graph)> = vec![
        ("petersen", petersen()),
        ("theta(3,2)", theta(3, 2)),
        ("fan(3)", fan(3)),
        ("grid(4,4)", grid(4, 4)),
        ("gnp(24,0.18)", gnp(24, 0.18, 11)),
    ];
    for (name, g) in graphs {
        let mut checks = 0;
        let mut mismatches = 0;
        let mut positives = 0;
        for k in 3..=8usize {
            for &e in g.edges() {
                let expected = has_ck_through_edge(&g, k, e);
                let got = detect_single(&g, k, e)
                    .map_err(ExperimentError::tag("e4", format!("{name} k={k} edge={e:?}")))?
                    .reject;
                checks += 1;
                if expected {
                    positives += 1;
                }
                if got != expected {
                    mismatches += 1;
                }
            }
        }
        pass &= mismatches == 0;
        table.row([
            name.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            "3..=8".to_string(),
            checks.to_string(),
            mismatches.to_string(),
            positives.to_string(),
        ]);
    }
    Ok(ExperimentResult {
        id: "e4",
        title: "single-edge detector exactness (Lemma 2)".into(),
        claim: "DetectCk(u,v): all nodes accept ⟺ no Ck through {u,v}".into(),
        table,
        pass,
        notes: String::new(),
    })
}

/// E5 — Lemma 3: per-message sequence counts stay within
/// `(k−t+1)^(t−1)`; link loads are constant-factor `O(log n)` after
/// normalization.
pub fn e5_message_bound() -> Result<ExperimentResult, ExperimentError> {
    let mut table = Table::new([
        "graph",
        "k",
        "max seqs/msg",
        "Lemma 3 worst bound",
        "max link bits",
        "B = 4⌈log n⌉",
        "normalized rounds",
        "wall rounds",
    ]);
    let mut pass = true;
    let cases: Vec<(&str, Graph, usize)> = vec![
        ("spindle(16,2)", spindle(16, 2), 6),
        ("spindle(12,4)", spindle(12, 4), 8),
        ("fan(12)", fan(12), 5),
        ("theta(8,3)", theta(8, 3), 5),
        ("gnp(40,0.12)", gnp(40, 0.12, 5), 6),
    ];
    for (name, g, k) in cases {
        let e = *g.edges().first().expect("nonempty");
        let run =
            detect_single(&g, k, e).map_err(ExperimentError::tag("e5", format!("{name} k={k}")))?;
        let bound = (2..=k / 2).map(|t| lemma3_bound(k, t)).max().unwrap_or(1);
        let wp = WireParams::for_graph(&g);
        let b = wp.congest_bandwidth(4);
        let ok = (run.max_sent_seqs() as u128) <= bound;
        pass &= ok;
        table.row([
            name.to_string(),
            k.to_string(),
            run.max_sent_seqs().to_string(),
            bound.to_string(),
            run.outcome.report.max_link_bits().to_string(),
            b.to_string(),
            run.outcome.report.normalized_rounds(b).to_string(),
            run.outcome.report.rounds.to_string(),
        ]);
    }
    Ok(ExperimentResult {
        id: "e5",
        title: "message-size bound (Lemma 3)".into(),
        claim: "≤ (k−t+1)^(t−1) sequences per message at round t ⟹ O_k(1) words of O(log n) bits"
            .into(),
        table,
        pass,
        notes: "Normalized rounds charge ⌈link-bits / B⌉ per wall round (constant for fixed k)."
            .into(),
    })
}

/// E6 — Lemma 4: ε-far graphs contain ≥ εm/k edge-disjoint copies.
pub fn e6_packing() -> Result<ExperimentResult, ExperimentError> {
    let mut table =
        Table::new(["k", "eps", "m", "greedy packing", "Lemma 4 bound εm/k", "packing ≥ bound"]);
    let mut pass = true;
    for k in 3..=6usize {
        for &eps in &[0.05f64, 0.10] {
            let inst = eps_far_instance(72, k, eps, 1);
            let packing = greedy_ck_packing(&inst.graph, k).len();
            let bound = eps * inst.graph.m() as f64 / k as f64;
            let ok = packing as f64 >= bound;
            pass &= ok;
            table.row([
                k.to_string(),
                format!("{eps:.2}"),
                inst.graph.m().to_string(),
                packing.to_string(),
                format!("{bound:.1}"),
                if ok { "yes".into() } else { "NO".to_string() },
            ]);
        }
    }
    Ok(ExperimentResult {
        id: "e6",
        title: "edge-disjoint copies in ε-far graphs (Lemma 4)".into(),
        claim: "ε-far from Ck-free ⟹ ≥ εm/k edge-disjoint Ck copies".into(),
        table,
        pass,
        notes:
            "Greedy packing is a lower bound on the optimum, so clearing εm/k validates the lemma."
                .into(),
    })
}

/// E7 — Lemma 5: the minimum rank is unique with probability ≥ 1/e².
pub fn e7_unique_minimum() -> Result<ExperimentResult, ExperimentError> {
    let mut table = Table::new(["m", "trials", "unique-min rate", "1/e²", "clears bound"]);
    let mut pass = true;
    for &m in &[20usize, 50, 200] {
        let trials = 3000u32;
        let mut unique = 0;
        for t in 0..trials {
            let mut rng = rank_rng(0xBEEF, m as u64, t);
            let ranks: Vec<u64> = (0..m).map(|_| draw_rank(&mut rng, m)).collect();
            if minimum_is_unique(&ranks) {
                unique += 1;
            }
        }
        let rate = f64::from(unique) / f64::from(trials);
        let ok = rate >= 1.0 / E_SQUARED;
        pass &= ok;
        table.row([
            m.to_string(),
            trials.to_string(),
            format!("{rate:.3}"),
            format!("{:.3}", 1.0 / E_SQUARED),
            if ok { "yes".into() } else { "NO".to_string() },
        ]);
    }
    Ok(ExperimentResult {
        id: "e7",
        title: "unique minimum rank (Lemma 5)".into(),
        claim: "Pr[unique min among m ranks from [1, m²]] ≥ 1/e²".into(),
        table,
        pass,
        notes: String::new(),
    })
}

/// E8 — Figure 1: the C5-through-{u,v} instance where arbitrary sequence
/// dropping loses the only witness while the pruning rule keeps it.
pub fn e8_figure1() -> Result<ExperimentResult, ExperimentError> {
    let g = figure1();
    let e = Edge::new(0, 1);
    let mut table = Table::new(["detector", "policy", "verdict", "expected"]);
    let ours = detect_single(&g, 5, e).map_err(ExperimentError::tag("e8", "figure1 pruned"))?;
    table.row([
        "Algorithm 1",
        "pruned (Lemma 2)",
        if ours.reject { "reject" } else { "accept" },
        "reject",
    ]);
    let keepall =
        naive_detect_through_edge(&g, 5, e, DropPolicy::KeepAll, &EngineConfig::default())
            .map_err(ExperimentError::tag("e8", "figure1 keep-all"))?;
    table.row(["naive", "keep all", if keepall.reject { "reject" } else { "accept" }, "reject"]);
    let trunc = naive_detect_through_edge(
        &g,
        5,
        e,
        DropPolicy::TruncateDeterministic { cap: 1 },
        &EngineConfig::default(),
    )
    .map_err(ExperimentError::tag("e8", "figure1 truncate"))?;
    table.row([
        "naive",
        "truncate cap=1",
        if trunc.reject { "reject" } else { "accept" },
        "accept (miss)",
    ]);
    let seeds = 30u64;
    let mut hits = 0usize;
    for s in 0..seeds {
        let run = naive_detect_through_edge(
            &g,
            5,
            e,
            DropPolicy::SampleRandom { cap: 1, seed: s },
            &EngineConfig::default(),
        )
        .map_err(ExperimentError::tag("e8", format!("figure1 random seed={s}")))?;
        if run.reject {
            hits += 1;
        }
    }
    table.row([
        "naive".to_string(),
        "random cap=1 (30 seeds)".to_string(),
        format!("{hits}/30 reject"),
        "≈ 1/2 (coin flip)".to_string(),
    ]);
    let pass = ours.reject && keepall.reject && !trunc.reject && hits > 0 && hits < 30;
    Ok(ExperimentResult {
        id: "e8",
        title: "Figure 1 — dropping sequences loses the cycle".into(),
        claim: "if x and y forward only one side each, z may never assemble the C5; Algorithm 1's pruning always keeps a witness".into(),
        table,
        pass,
        notes: String::new(),
    })
}

/// E9 — §3.3 worked example: C9 with IDs 1..9 from edge {1,9}; the role
/// of fake IDs at node 3.
pub fn e9_c9_example() -> Result<ExperimentResult, ExperimentError> {
    let mut table = Table::new(["check", "result", "expected"]);
    // Node 3 receives (1,2) at paper round t=3 and must forward (1,2,3).
    let received = SeqRows::from_rows(2, &[&[1, 2]]);
    let sent = build_send_set(&received, 3, 9, 3);
    let fwd = sent.rows().next().map(|s| format!("{s:?}")).unwrap_or("∅".into());
    table.row(["node 3 forwards at t=3", &fwd, "[1, 2, 3]"]);
    let ok1 = sent.len() == 1 && sent.row(0) == [1, 2, 3];

    // Full run on C9 with IDs 1..9, detection from edge {1,9}.
    let g = ck_graphgen::basic::cycle(9).with_ids((1..=9).collect()).unwrap();
    let e = Edge::new(0, 8); // indices of IDs 1 and 9
    let run = detect_single(&g, 9, e).map_err(ExperimentError::tag("e9", "C9 from {1,9}"))?;
    table.row([
        "DetectC9 from {1,9}".to_string(),
        if run.reject { "reject".into() } else { "accept".to_string() },
        "reject".to_string(),
    ]);
    let rejecting: Vec<u64> = run
        .outcome
        .verdicts
        .iter()
        .enumerate()
        .filter(|(_, v)| v.reject)
        .map(|(i, _)| g.id(i as u32))
        .collect();
    table.row([
        "rejecting node (antipodal)".to_string(),
        format!("{rejecting:?}"),
        "[5]".to_string(),
    ]);
    let ok2 = run.reject && rejecting == vec![5];
    Ok(ExperimentResult {
        id: "e9",
        title: "§3.3 worked example — fake IDs on the C9".into(),
        claim: "without fake IDs node 3 would drop (1,2); with them it forwards (1,2,3), and the node antipodal to {1,9} rejects at round ⌊k/2⌋".into(),
        table,
        pass: ok1 && ok2,
        notes: String::new(),
    })
}

/// E10 — Behrend-style spread-cycle instances: the hard regime for
/// sampling techniques; Algorithm 1 stays deterministic-exact.
pub fn e10_behrend() -> Result<ExperimentResult, ExperimentError> {
    let mut table = Table::new([
        "k",
        "width",
        "n",
        "m",
        "planted copies",
        "Alg.1 single-edge",
        "naive random cap=1 (20 seeds)",
        "full tester rate (6 seeds)",
    ]);
    let mut pass = true;
    for &(k, width) in &[(5usize, 40usize), (6, 32)] {
        let inst = behrend_ck_instance(k, width);
        let g = &inst.graph;
        // A closing edge of the first planted copy.
        let copy = &inst.planted[0];
        let e = Edge::new(copy[k - 1], copy[0]);
        let ours = detect_single(g, k, e)
            .map_err(ExperimentError::tag("e10", format!("behrend k={k} w={width}")))?;
        let mut naive_hits = 0usize;
        for s in 0..20u64 {
            let run = naive_detect_through_edge(
                g,
                k,
                e,
                DropPolicy::SampleRandom { cap: 1, seed: s },
                &EngineConfig::default(),
            )
            .map_err(ExperimentError::tag("e10", format!("behrend k={k} naive seed={s}")))?;
            if run.reject {
                naive_hits += 1;
            }
        }
        let eps = 0.04;
        // The full-tester sweep runs as one batch over the 6 seeds.
        let jobs: Vec<BatchJob> = (0..6u64)
            .map(|s| {
                BatchJob::labeled(
                    g,
                    TesterConfig::new(k, eps, s),
                    format!("e10 behrend k={k} w={width} seed={s}"),
                )
            })
            .collect();
        let full_hits = session_batch("e10", &jobs, EngineConfig::default())?
            .iter()
            .filter(|r| r.reject)
            .count();
        pass &= ours.reject && full_hits * 3 >= 6 * 2;
        table.row([
            k.to_string(),
            width.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            inst.planted.len().to_string(),
            if ours.reject { "reject".into() } else { "accept".to_string() },
            format!("{naive_hits}/20"),
            format!("{full_hits}/6"),
        ]);
    }
    Ok(ExperimentResult {
        id: "e10",
        title: "Behrend-style spread-cycle instances".into(),
        claim: "cycles spread by arithmetic structure (the [20] hard instances for k ≥ 5) are still detected: Phase 2 is exact per edge, and farness (packing = m/k > εm) drives the full tester".into(),
        table,
        pass,
        notes: "Substitution: Behrend strides as a workload family, not a re-proof of the [20] lower bound.".into(),
    })
}

/// E11 — congestion ablation: naive offered load grows with the spindle
/// width while Algorithm 1 stays at the Lemma-3 constant.
pub fn e11_congestion() -> Result<ExperimentResult, ExperimentError> {
    let mut table = Table::new([
        "spindle width p",
        "naive max seqs offered",
        "naive max link bits",
        "pruned max seqs/msg",
        "pruned max link bits",
        "Lemma 3 worst bound (k=6)",
    ]);
    let k = 6usize;
    let bound = (2..=k / 2).map(|t| lemma3_bound(k, t)).max().unwrap();
    let mut pass = true;
    for &p in &[4usize, 8, 16, 32] {
        let g = spindle(p, 2);
        let e = Edge::new(0, 1);
        let naive =
            naive_detect_through_edge(&g, k, e, DropPolicy::KeepAll, &EngineConfig::default())
                .map_err(ExperimentError::tag("e11", format!("spindle p={p} naive")))?;
        let pruned = detect_single(&g, k, e)
            .map_err(ExperimentError::tag("e11", format!("spindle p={p} pruned")))?;
        pass &= naive.reject && pruned.reject;
        pass &= naive.max_offered >= p;
        pass &= (pruned.max_sent_seqs() as u128) <= bound;
        table.row([
            p.to_string(),
            naive.max_offered.to_string(),
            naive.outcome.report.max_link_bits().to_string(),
            pruned.max_sent_seqs().to_string(),
            pruned.outcome.report.max_link_bits().to_string(),
            bound.to_string(),
        ]);
    }
    Ok(ExperimentResult {
        id: "e11",
        title: "naive vs pruned congestion on spindles".into(),
        claim: "unpruned forwarding needs Ω(p) sequences on one link; Algorithm 1 forwards ≤ (k−t+1)^(t−1) regardless of p".into(),
        table,
        pass,
        notes: String::new(),
    })
}

/// E12 — prior-work scope: the \[7\]/\[20\]-style testers work for k ∈ {3,4}
/// and our tester covers k ≥ 5 where they have no analog.
pub fn e12_prior_work() -> Result<ExperimentResult, ExperimentError> {
    let mut table =
        Table::new(["tester", "target", "instance", "trials", "reject rate", "expected"]);
    let mut pass = true;
    let trials = 10u64;
    // Seed-sweep helper over the fallible baseline testers.
    let sweep = |ctx: &str,
                 f: &dyn Fn(u64) -> Result<bool, EngineError>|
     -> Result<usize, ExperimentError> {
        let mut hits = 0;
        for s in 0..trials {
            if f(s).map_err(ExperimentError::tag("e12", format!("{ctx} seed={s}")))? {
                hits += 1;
            }
        }
        Ok(hits)
    };

    let far3 = eps_far_instance(60, 3, 0.1, 0);
    let r3 =
        sweep("triangle far", &|s| test_triangle_freeness(&far3.graph, 0.1, s, None).map(|r| r.0))?;
    pass &= r3 * 3 >= trials as usize * 2;
    table.row([
        "[7] triangle",
        "k=3",
        "ε-far (ε=0.1)",
        "10",
        &format!("{:.2}", r3 as f64 / 10.0),
        "≥ 2/3",
    ]);

    let p3 = sweep("triangle petersen", &|s| {
        test_triangle_freeness(&petersen(), 0.1, s, Some(50)).map(|r| r.0)
    })?;
    pass &= p3 == 0;
    table.row([
        "[7] triangle",
        "k=3",
        "Petersen (free)",
        "10",
        &format!("{:.2}", p3 as f64 / 10.0),
        "0 (1-sided)",
    ]);

    let far4 = eps_far_instance(60, 4, 0.1, 0);
    let r4 = sweep("c4 far", &|s| test_c4_freeness(&far4.graph, 0.1, s, None).map(|r| r.0))?;
    pass &= r4 * 3 >= trials as usize * 2;
    table.row([
        "[20] C4",
        "k=4",
        "ε-far (ε=0.1)",
        "10",
        &format!("{:.2}", r4 as f64 / 10.0),
        "≥ 2/3",
    ]);

    let p4 =
        sweep("c4 petersen", &|s| test_c4_freeness(&petersen(), 0.1, s, Some(50)).map(|r| r.0))?;
    pass &= p4 == 0;
    table.row([
        "[20] C4",
        "k=4",
        "Petersen (free)",
        "10",
        &format!("{:.2}", p4 as f64 / 10.0),
        "0 (1-sided)",
    ]);

    let far5 = eps_far_instance(60, 5, 0.1, 0);
    let jobs: Vec<BatchJob> = (0..trials)
        .map(|s| {
            BatchJob::labeled(&far5.graph, TesterConfig::new(5, 0.1, s), format!("e12 ck seed={s}"))
        })
        .collect();
    let r5 =
        session_batch("e12", &jobs, EngineConfig::default())?.iter().filter(|r| r.reject).count();
    pass &= r5 * 3 >= trials as usize * 2;
    table.row([
        "this paper",
        "k=5",
        "ε-far (ε=0.1)",
        "10",
        &format!("{:.2}", r5 as f64 / 10.0),
        "≥ 2/3",
    ]);

    Ok(ExperimentResult {
        id: "e12",
        title: "prior-work testers and where they stop".into(),
        claim: "neighbor-sampling gives constant-round testers for C3/C4 ([7],[20]) but provably not for k ≥ 5; Algorithm 1 covers every k".into(),
        table,
        pass,
        notes: String::new(),
    })
}

/// E13 — §4 conclusion: the pruning is oblivious to chords, so an
/// H-freeness tester (H = chorded k-cycle) built on Algorithm 1 misses H
/// on a deterministic counterexample.
pub fn e13_chord_obliviousness() -> Result<ExperimentResult, ExperimentError> {
    use ck_core::ablation::probe_chorded_coverage;
    use ck_graphgen::basic::chorded_spindle;
    let mut table = Table::new([
        "fan-in p",
        "chorded C6 exists (oracle)",
        "detector rejects",
        "witnesses",
        "chorded witnesses",
        "H missed",
    ]);
    let mut pass = true;
    for &p in &[5usize, 8, 16] {
        let g = chorded_spindle(p);
        let probe = probe_chorded_coverage(&g, 6, Edge::new(0, 1));
        pass &= probe.misses_chorded_pattern();
        table.row([
            p.to_string(),
            probe.chorded_exists.to_string(),
            probe.detector_rejects.to_string(),
            probe.witnesses.len().to_string(),
            probe.chorded_witnesses.to_string(),
            probe.misses_chorded_pattern().to_string(),
        ]);
    }
    Ok(ExperimentResult {
        id: "e13",
        title: "chord obliviousness of the pruning (§4 conclusion)".into(),
        claim: "the pruning \"may well discard the sequence corresponding to the cycle in H, and keep a sequence without a chord\" — so the technique does not extend to chorded patterns".into(),
        table,
        pass,
        notes: "Counterexample: spindle(p,2) + chord (x_big, z2); at p ≥ 5 the pruning at z1 keeps only the 4 smallest (u, x_i) and drops x_big's — the only fan-in node on the chorded copy.".into(),
    })
}

/// E14 — the gap region: instances that contain a `Ck` but are NOT
/// ε-far. The definition permits either answer; we measure where the
/// detection probability actually lands as the copy count shrinks.
pub fn e14_gap_region() -> Result<ExperimentResult, ExperimentError> {
    use ck_graphgen::mutate::thin_to_few_cycles;
    use ck_graphgen::planted::cycle_chain;
    let k = 5usize;
    let eps = 0.05;
    let mut table = Table::new([
        "surviving copies",
        "m",
        "copies/m",
        "status vs ε=0.05",
        "trials",
        "reject rate",
    ]);
    let base = cycle_chain(14, k);
    let trials = 10u64;
    let mut rates = Vec::new();
    for &keep in &[14usize, 6, 2, 0] {
        let (g, _) = if keep == 14 {
            (base.graph.clone(), 0)
        } else {
            thin_to_few_cycles(&base.graph, k, keep, 3)
        };
        let m = g.m();
        let status = if keep == 0 {
            "Ck-free (accept forced)"
        } else if keep as f64 > eps * m as f64 {
            "certified ε-far (reject ≥ 2/3)"
        } else {
            "gap (either answer legal)"
        };
        // The trial sweep for this thinning level runs as one batch.
        let jobs: Vec<BatchJob> = (0..trials)
            .map(|s| {
                BatchJob::labeled(
                    &g,
                    TesterConfig::new(k, eps, s),
                    format!("e14 keep={keep} seed={s}"),
                )
            })
            .collect();
        let rejects = session_batch("e14", &jobs, EngineConfig::default())?
            .iter()
            .filter(|r| r.reject)
            .count();
        rates.push((keep, rejects));
        table.row([
            keep.to_string(),
            m.to_string(),
            format!("{:.3}", keep as f64 / m as f64),
            status.to_string(),
            trials.to_string(),
            format!("{:.2}", rejects as f64 / trials as f64),
        ]);
    }
    // Pass criteria: far end ≥ 2/3 of trials, free end exactly 0, and
    // monotone non-increasing rejection as copies shrink.
    let far_ok = rates[0].1 * 3 >= trials as usize * 2;
    let free_ok = rates.last().unwrap().1 == 0;
    let monotone = rates.windows(2).all(|w| w[0].1 >= w[1].1);
    Ok(ExperimentResult {
        id: "e14",
        title: "the gap region between ε-far and free".into(),
        claim: "\"instances which are nearly satisfying P but not quite — the algorithm can output either ways\"; detection degrades smoothly from the guaranteed ≥2/3 to the forced 0".into(),
        table,
        pass: far_ok && free_ok && monotone,
        notes: "Gap instances built by deleting one edge per surplus copy from a certified ε-far chain.".into(),
    })
}

/// E15 — message-loss resilience (simulator extension; not a paper
/// claim): 1-sidedness survives arbitrary loss, detection degrades
/// gracefully with the per-message loss rate.
pub fn e15_loss_resilience() -> Result<ExperimentResult, ExperimentError> {
    use ck_congest::fault::FaultPlan;
    use ck_core::robust::loss_detection_curve;
    let mut table =
        Table::new(["loss rate", "far instance reject rate", "free instance false rejects"]);
    let k = 5usize;
    let eps = 0.08;
    let far = eps_far_instance(50, k, eps, 0);
    let free = matched_free_instance(50, k);
    let losses = [0.0, 0.05, 0.2, 0.5];
    let curve = loss_detection_curve(&far.graph, k, eps, &losses, 6, 17);
    let mut pass = true;
    for point in &curve {
        // Free-side check under the same loss.
        let mut false_rejects = 0;
        for t in 0..4u64 {
            let engine = EngineConfig {
                faults: FaultPlan::none().random_loss(point.loss, 900 + t),
                ..EngineConfig::default()
            };
            let cfg = TesterConfig { repetitions: Some(3), ..TesterConfig::new(k, eps, t) };
            let run = session_test(
                "e15",
                format!("free n=50 loss={} seed={t}", point.loss),
                &free,
                cfg,
                engine,
            )?;
            if run.reject {
                false_rejects += 1;
            }
        }
        pass &= false_rejects == 0;
        table.row([
            format!("{:.2}", point.loss),
            format!("{:.2}", point.rate()),
            false_rejects.to_string(),
        ]);
    }
    pass &= curve[0].rate() >= 2.0 / 3.0; // lossless meets the bound
    Ok(ExperimentResult {
        id: "e15",
        title: "behavior under message loss (extension)".into(),
        claim: "drops can suppress detections but never fabricate them: 1-sidedness is loss-proof, detection degrades with loss".into(),
        table,
        pass,
        notes: "Not a paper claim — the paper assumes reliable links; this characterizes the implementation under the simulator's fault injection.".into(),
    })
}

/// Runs one experiment by id (`None` for an unknown id; `Some(Err(_))`
/// when a run inside the experiment failed, naming the instance).
pub fn run_experiment(id: &str) -> Option<Result<ExperimentResult, ExperimentError>> {
    Some(match id {
        "e1" => e1_soundness(),
        "e2" => e2_detection(),
        "e3" => e3_round_complexity(),
        "e4" => e4_single_edge_exactness(),
        "e5" => e5_message_bound(),
        "e6" => e6_packing(),
        "e7" => e7_unique_minimum(),
        "e8" => e8_figure1(),
        "e9" => e9_c9_example(),
        "e10" => e10_behrend(),
        "e11" => e11_congestion(),
        "e12" => e12_prior_work(),
        "e13" => e13_chord_obliviousness(),
        "e14" => e14_gap_region(),
        "e15" => e15_loss_resilience(),
        _ => return None,
    })
}

/// All experiment ids, in order.
pub const ALL_IDS: [&str; 15] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
];

/// Runs the full suite, stopping at the first failed experiment.
pub fn all_experiments() -> Result<Vec<ExperimentResult>, ExperimentError> {
    ALL_IDS.iter().map(|id| run_experiment(id).expect("known id")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The cheap experiments run in the unit suite; the full suite runs in
    // the integration test and the binary.
    #[test]
    fn e3_rounds_scale() {
        assert!(e3_round_complexity().unwrap().pass);
    }

    #[test]
    fn e7_lemma5() {
        assert!(e7_unique_minimum().unwrap().pass);
    }

    #[test]
    fn e8_figure1_story() {
        assert!(e8_figure1().unwrap().pass);
    }

    #[test]
    fn e9_c9() {
        assert!(e9_c9_example().unwrap().pass);
    }

    #[test]
    fn e11_spindles() {
        assert!(e11_congestion().unwrap().pass);
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment("nope").is_none());
    }

    /// The batch-driven experiments must report which instance failed
    /// instead of panicking: the error display names experiment,
    /// label, and seed.
    #[test]
    fn experiment_errors_name_the_instance() {
        use ck_congest::engine::BandwidthPolicy;
        use ck_graphgen::basic::cycle;
        let g = cycle(6);
        let jobs: Vec<BatchJob> = (0..2)
            .map(|s| {
                let cfg = TesterConfig { repetitions: Some(1), ..TesterConfig::new(6, 0.1, s) };
                BatchJob::labeled(&g, cfg, format!("e2 k=6 seed={s}"))
            })
            .collect();
        let engine = EngineConfig {
            bandwidth: BandwidthPolicy::Enforce { bits: 1 },
            ..EngineConfig::default()
        };
        let err = session_batch("e2", &jobs, engine).unwrap_err();
        assert_eq!(err.experiment, "e2");
        let msg = err.to_string();
        assert!(msg.contains("e2 k=6 seed=0") && msg.contains("seed 0"), "{msg}");
    }
}
