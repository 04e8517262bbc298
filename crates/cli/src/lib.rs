//! # ck-cli — the `ckprobe` command-line tool
//!
//! One binary to generate or load a graph, run any of the distributed
//! testers on it, and print verdicts with CONGEST cost accounting:
//!
//! ```text
//! ckprobe --graph petersen --tester ck --k 5 --eps 0.1
//! ckprobe --graph gnp:100:0.05 --tester triangle --trials 5
//! ckprobe --graph file:instance.col --tester forest
//! ckprobe --graph eps-far:60:5:0.05 --tester ck --k 5 --trials 10
//! ckprobe --batch graphs.txt --k 5 --eps 0.1 --trials 4 --shards 8
//! ```
//!
//! The library half hosts the spec parsers (unit-tested); `main.rs` is a
//! thin shell around them.

use ck_baselines::framework_impls::{C4Baseline, ForestBaseline, TriangleBaseline};
use ck_congest::graph::Graph;
use ck_core::framework::{CkFreenessTester, DistributedTester};
use ck_core::rank::try_repetitions_for;
use ck_graphgen::{basic, behrend, families, planted, random};
use ck_serve::ServeOptions;

/// Parsed command-line request.
pub struct Request {
    pub graph: Graph,
    pub graph_desc: String,
    pub tester: Box<dyn DistributedTester>,
    pub trials: u32,
    pub seed: u64,
    /// `ck` tester parameters, re-exposed for the detailed run path
    /// (`--workers` / `--verbose`), which drives sessions directly.
    pub k: usize,
    pub eps: f64,
    pub repetitions: Option<u32>,
    /// `--workers N`: run the ck tester on the distributed executor
    /// with `N` spawned worker processes.
    pub workers: Option<u16>,
    /// `--verbose`: print per-trial fault/network report summaries.
    pub verbose: bool,
}

/// A `--batch` request: every spec in the batch file runs through the
/// sharded batch runner (`ck` tester only), fanned out `trials` times
/// with derived seeds.
pub struct BatchRequest {
    pub path: String,
    pub k: usize,
    pub eps: f64,
    pub trials: u32,
    pub seed: u64,
    pub repetitions: Option<u32>,
    pub shards: Option<usize>,
}

/// A `submit` request: one client interaction with a running service —
/// optionally a job, optionally a stats fetch, optionally a shutdown,
/// in that order on one connection.
#[derive(Clone, Debug)]
pub struct SubmitRequest {
    pub addr: String,
    /// Graph spec to submit as a job, if any. Parameter validation is
    /// deliberately NOT done client-side: admission control at the
    /// service is the contract under test, and `ckprobe submit --k 99`
    /// must exercise the typed refusal frame, not a local usage error.
    pub graph_spec: Option<String>,
    pub k: usize,
    pub eps: f64,
    pub seed: u64,
    pub repetitions: Option<u32>,
    pub job_id: u64,
    pub stats: bool,
    pub shutdown: bool,
    pub timeout_ms: u64,
}

/// What one `ckprobe` invocation asks for.
pub enum Invocation {
    /// One graph, one tester (possibly amplified over trials). Boxed:
    /// the request embeds the built graph, which dwarfs the batch
    /// variant.
    Single(Box<Request>),
    /// A batch file of graph specs through the batch runner.
    Batch(BatchRequest),
    /// `net-worker ADDR INDEX`: serve one distributed-executor worker —
    /// the argv a coordinator spawns per partition.
    Worker { addr: String, index: u32 },
    /// `serve [flags]`: run the probe service until a client sends
    /// Shutdown.
    Serve(ServeOptions),
    /// `submit ADDR [flags]`: talk to a running probe service.
    Submit(SubmitRequest),
}

/// Builds a graph from a spec string (see [`graph_spec_help`]).
///
/// Each generator asserts its preconditions; this parser checks them
/// first, so an out-of-range argument is an error that names the family,
/// never a panic.
pub fn parse_graph_spec(spec: &str) -> Result<Graph, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let usize_arg = |i: usize, what: &str| -> Result<usize, String> {
        parts
            .get(i)
            .ok_or(format!("{what}: missing argument {i}"))?
            .parse()
            .map_err(|e| format!("{what}: bad argument {i}: {e}"))
    };
    let usize_min = |i: usize, what: &str, min: usize| -> Result<usize, String> {
        let v = usize_arg(i, what)?;
        if v < min {
            return Err(format!("{what}: argument {i} must be at least {min}, got {v}"));
        }
        Ok(v)
    };
    let f64_arg = |i: usize, what: &str| -> Result<f64, String> {
        parts
            .get(i)
            .ok_or(format!("{what}: missing argument {i}"))?
            .parse()
            .map_err(|e| format!("{what}: bad argument {i}: {e}"))
    };
    // Seeds are optional (default 0), but a *malformed* seed is an
    // error: `gnp:100:0.05:abc` must not silently run with seed 0.
    let seed_arg = |i: usize, what: &str| -> Result<u64, String> {
        match parts.get(i) {
            None => Ok(0),
            Some(s) => s.parse().map_err(|e| format!("{what}: bad seed argument {i}: {e}")),
        }
    };
    // ε parameters must lie in (0,1) — downstream repetition schedules
    // assert on it, and a CLI user should see an error, not a backtrace.
    let eps_arg = |i: usize, what: &str| -> Result<f64, String> {
        let eps = f64_arg(i, what)?;
        if !(eps > 0.0 && eps < 1.0) {
            return Err(format!("{what}: ε must lie in (0,1), got {eps}"));
        }
        Ok(eps)
    };
    // ck-lint: allow(index-literal, reason = "str::split always yields at least one piece, so parts[0] exists")
    match parts[0] {
        "cycle" => Ok(basic::cycle(usize_min(1, "cycle", 3)?)),
        "path" => Ok(basic::path(usize_min(1, "path", 1)?)),
        "complete" => Ok(basic::complete(usize_arg(1, "complete")?)),
        "grid" => Ok(basic::grid(usize_arg(1, "grid")?, usize_arg(2, "grid")?)),
        "torus" => Ok(basic::torus(usize_min(1, "torus", 3)?, usize_min(2, "torus", 3)?)),
        "hypercube" => Ok(basic::hypercube(usize_arg(1, "hypercube")? as u32)),
        "petersen" => Ok(basic::petersen()),
        "heawood" => Ok(basic::heawood()),
        "mobius-kantor" => Ok(families::mobius_kantor()),
        "pappus" => Ok(families::pappus()),
        "theta" => Ok(basic::theta(usize_min(1, "theta", 1)?, usize_min(2, "theta", 1)?)),
        "fan" => Ok(basic::fan(usize_min(1, "fan", 2)?)),
        "spindle" => Ok(basic::spindle(usize_min(1, "spindle", 1)?, usize_min(2, "spindle", 1)?)),
        "cactus" => Ok(basic::cycle_cactus(usize_min(1, "cactus", 1)?, usize_min(2, "cactus", 3)?)),
        "circulant" => {
            let n = usize_min(1, "circulant", 3)?;
            let strides: Result<Vec<usize>, _> =
                parts[2..].iter().map(|s| s.parse::<usize>()).collect();
            let strides = strides.map_err(|e| format!("circulant strides: {e}"))?;
            if strides.is_empty() {
                return Err("circulant needs at least one stride".into());
            }
            if let Some(s) = strides.iter().find(|&&s| s == 0 || s >= n) {
                return Err(format!("circulant: stride {s} must lie in 1..{n}"));
            }
            Ok(families::circulant(n, &strides))
        }
        "gnp" => {
            let (n, p, seed) = (usize_arg(1, "gnp")?, f64_arg(2, "gnp")?, seed_arg(3, "gnp")?);
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("gnp: p must lie in [0,1], got {p}"));
            }
            Ok(random::gnp(n, p, seed))
        }
        "gnm" => {
            let (n, m, seed) = (usize_arg(1, "gnm")?, usize_arg(2, "gnm")?, seed_arg(3, "gnm")?);
            let max_m = n.saturating_mul(n.saturating_sub(1)) / 2;
            if m > max_m {
                return Err(format!("gnm: {m} edges exceed the {max_m} of K_{n}"));
            }
            Ok(random::gnm(n, m, seed))
        }
        "tree" => Ok(random::random_tree(usize_min(1, "tree", 1)?, seed_arg(2, "tree")?)),
        "regular" => {
            let (n, d) = (usize_arg(1, "regular")?, usize_arg(2, "regular")?);
            let seed = seed_arg(3, "regular")?;
            if d >= n || !(n * d).is_multiple_of(2) {
                return Err(format!("regular: needs d < n and n·d even, got n = {n}, d = {d}"));
            }
            Ok(random::random_regular(n, d, seed))
        }
        "high-girth" => Ok(random::high_girth(
            usize_min(1, "high-girth", 1)?,
            usize_arg(2, "high-girth")?,
            usize_arg(3, "high-girth")?,
            seed_arg(4, "high-girth")?,
        )),
        "eps-far" => {
            let (n, k) = (usize_arg(1, "eps-far")?, usize_min(2, "eps-far", 3)?);
            let (eps, seed) = (eps_arg(3, "eps-far")?, seed_arg(4, "eps-far")?);
            let cap = 1.0 / (k as f64 + 1.0);
            if eps >= cap {
                return Err(format!("eps-far: ε must lie below 1/(k+1) = {cap:.3}, got {eps}"));
            }
            Ok(planted::eps_far_instance(n, k, eps, seed).graph)
        }
        "free" => {
            Ok(planted::matched_free_instance(usize_arg(1, "free")?, usize_min(2, "free", 2)?))
        }
        "behrend" => Ok(behrend::behrend_ck_instance(
            usize_min(1, "behrend", 3)?,
            usize_min(2, "behrend", 1)?,
        )
        .graph),
        "file" => {
            let path = parts.get(1).ok_or("file: missing path")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            if text.trim_start().starts_with('c') || text.trim_start().starts_with('p') {
                ck_graphgen::io::parse_dimacs(&text)
            } else {
                Graph::from_edge_list(&text)
            }
        }
        other => Err(format!("unknown graph family {other:?}; see --help")),
    }
}

/// Builds a tester from CLI fields.
///
/// Parameters are validated here with the same [`ConfigError`]s the
/// session builders surface: the paper's repetition schedule
/// (`try_repetitions_for`) is only defined for ε ∈ (0,1), the `ck`
/// tester for `k ∈ 3..=33` — `ckprobe --eps 1.5` or `--k 99` must
/// produce a usage error, not an assertion backtrace from deep inside
/// the run.
///
/// [`ConfigError`]: ck_core::tester::ConfigError
pub fn parse_tester(
    name: &str,
    k: usize,
    eps: f64,
    repetitions: Option<u32>,
) -> Result<Box<dyn DistributedTester>, String> {
    // The baselines only consume ε; the ck tester validates (k, ε)
    // together through the same check the session builders run.
    if name == "triangle" || name == "c4" {
        try_repetitions_for(eps).map_err(|e| format!("--eps: {e}"))?;
    }
    match name {
        "ck" => {
            ck_core::tester::TesterConfig::new(k, eps, 0).validate().map_err(|e| match e {
                ck_core::tester::ConfigError::KOutOfRange { .. } => format!("--k: {e}"),
                ck_core::tester::ConfigError::EpsOutOfRange { .. } => format!("--eps: {e}"),
                // No CLI flag sets assumed_loss, so this cannot fire here;
                // surface the message untagged rather than lie about a flag.
                ck_core::tester::ConfigError::LossOutOfRange { .. } => format!("{e}"),
            })?;
            Ok(Box::new(CkFreenessTester { k, eps, repetitions }))
        }
        "triangle" => Ok(Box::new(TriangleBaseline { eps, repetitions })),
        "c4" => Ok(Box::new(C4Baseline { eps, repetitions })),
        "forest" => Ok(Box::new(ForestBaseline)),
        other => Err(format!("unknown tester {other:?} (ck | triangle | c4 | forest)")),
    }
}

/// Parses a batch file: one graph spec per line, blank lines and
/// `#`-comments skipped. Returns `(spec, graph)` pairs in file order;
/// the first malformed line fails the whole batch with its line number.
pub fn parse_batch_file(text: &str) -> Result<Vec<(String, Graph)>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let spec = line.trim();
        if spec.is_empty() || spec.starts_with('#') {
            continue;
        }
        let graph =
            parse_graph_spec(spec).map_err(|e| format!("batch line {}: {e}", lineno + 1))?;
        out.push((spec.to_string(), graph));
    }
    if out.is_empty() {
        return Err("batch file contains no graph specs".into());
    }
    Ok(out)
}

/// Expands parsed batch specs into batch-runner jobs: each spec fans
/// out `trials` times with seeds derived exactly as the amplification
/// combinator derives them, so a batch run is the sharded equivalent of
/// per-graph amplified runs. Jobs are ordered spec-major (all trials of
/// a spec are adjacent), labeled `spec[trial t]`.
pub fn batch_jobs<'a>(
    specs: &'a [(String, Graph)],
    req: &BatchRequest,
) -> Vec<ck_core::batch::BatchJob<'a>> {
    use ck_core::tester::TesterConfig;
    let trials = req.trials.max(1);
    let mut jobs = Vec::with_capacity(specs.len() * trials as usize);
    for (spec, graph) in specs {
        for t in 0..trials {
            let seed = req.seed.wrapping_add(u64::from(t).wrapping_mul(0x9E37_79B9));
            let cfg = TesterConfig {
                repetitions: req.repetitions,
                ..TesterConfig::new(req.k, req.eps, seed)
            };
            jobs.push(ck_core::batch::BatchJob::labeled(graph, cfg, format!("{spec}[trial {t}]")));
        }
    }
    jobs
}

/// Help text for graph specs.
pub fn graph_spec_help() -> &'static str {
    "graph specs:\n\
     \x20 cycle:N | path:N | complete:N | grid:R:C | torus:R:C | hypercube:D\n\
     \x20 petersen | heawood | mobius-kantor | pappus\n\
     \x20 theta:P:L | fan:P | spindle:P:M | cactus:COUNT:LEN | circulant:N:S1[:S2…]\n\
     \x20 gnp:N:P[:SEED] | gnm:N:M[:SEED] | tree:N[:SEED] | regular:N:D[:SEED]\n\
     \x20 high-girth:N:K:ATTEMPTS[:SEED]\n\
     \x20 eps-far:N:K:EPS[:SEED] | free:N:K | behrend:K:WIDTH\n\
     \x20 file:PATH (DIMACS .col or native edge list)"
}

/// Parses `serve` subcommand flags (everything after the word `serve`).
fn parse_serve_args(args: &[String]) -> Result<Invocation, String> {
    let mut opts = ServeOptions::default();
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => opts.addr = value(args, i, "--addr")?,
            "--workers" => {
                opts.workers =
                    value(args, i, "--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
                if opts.workers == 0 {
                    return Err("--workers: need at least one worker".into());
                }
            }
            "--max-nodes" => {
                opts.max_nodes = value(args, i, "--max-nodes")?
                    .parse()
                    .map_err(|e| format!("--max-nodes: {e}"))?;
            }
            "--inflight-budget" => {
                opts.inflight_budget = value(args, i, "--inflight-budget")?
                    .parse()
                    .map_err(|e| format!("--inflight-budget: {e}"))?;
            }
            "--idle-reclaim-ms" => {
                opts.idle_reclaim_ms = value(args, i, "--idle-reclaim-ms")?
                    .parse()
                    .map_err(|e| format!("--idle-reclaim-ms: {e}"))?;
            }
            "--max-conns" => {
                opts.max_conns = value(args, i, "--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?;
                if opts.max_conns == 0 {
                    return Err("--max-conns: need at least one connection".into());
                }
            }
            other => return Err(format!("serve: unknown flag {other:?}")),
        }
        i += 2;
    }
    Ok(Invocation::Serve(opts))
}

/// Parses `submit` subcommand argv: `ADDR` positional, then flags.
/// Job parameters (`--k`, `--eps`) are passed through unvalidated on
/// purpose — the service's admission control owns that judgement.
fn parse_submit_args(args: &[String]) -> Result<Invocation, String> {
    let addr = args.first().cloned().ok_or("submit: missing service address")?;
    if addr.starts_with("--") {
        return Err("submit: the service address must come before flags".into());
    }
    let mut req = SubmitRequest {
        addr,
        graph_spec: None,
        k: 5,
        eps: 0.1,
        seed: 42,
        repetitions: None,
        job_id: 0,
        stats: false,
        shutdown: false,
        timeout_ms: 30_000,
    };
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--graph" => {
                req.graph_spec = Some(value(args, i, "--graph")?);
                i += 2;
            }
            "--k" => {
                req.k = value(args, i, "--k")?.parse().map_err(|e| format!("--k: {e}"))?;
                i += 2;
            }
            "--eps" => {
                req.eps = value(args, i, "--eps")?.parse().map_err(|e| format!("--eps: {e}"))?;
                i += 2;
            }
            "--seed" => {
                req.seed = value(args, i, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 2;
            }
            "--repetitions" => {
                req.repetitions = Some(
                    value(args, i, "--repetitions")?
                        .parse()
                        .map_err(|e| format!("--repetitions: {e}"))?,
                );
                i += 2;
            }
            "--job-id" => {
                req.job_id =
                    value(args, i, "--job-id")?.parse().map_err(|e| format!("--job-id: {e}"))?;
                i += 2;
            }
            "--timeout-ms" => {
                req.timeout_ms = value(args, i, "--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--timeout-ms: {e}"))?;
                i += 2;
            }
            "--stats" => {
                req.stats = true;
                i += 1;
            }
            "--shutdown" => {
                req.shutdown = true;
                i += 1;
            }
            other => return Err(format!("submit: unknown flag {other:?}")),
        }
    }
    if req.graph_spec.is_none() && !req.stats && !req.shutdown {
        return Err("submit: nothing to do — give --graph, --stats, or --shutdown".into());
    }
    Ok(Invocation::Submit(req))
}

/// Parses full argv (without program name).
pub fn parse_args(args: &[String]) -> Result<Invocation, String> {
    if args.first().map(String::as_str) == Some("serve") {
        return parse_serve_args(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("submit") {
        return parse_submit_args(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("net-worker") {
        let addr = args.get(1).ok_or("net-worker: missing coordinator address")?.clone();
        let index: u32 = args
            .get(2)
            .ok_or("net-worker: missing worker index")?
            .parse()
            .map_err(|e| format!("net-worker: bad worker index: {e}"))?;
        if let Some(extra) = args.get(3) {
            return Err(format!("net-worker: unexpected argument {extra:?}"));
        }
        return Ok(Invocation::Worker { addr, index });
    }
    let mut graph_spec: Option<String> = None;
    let mut batch_path: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut tester = "ck".to_string();
    let mut k = 5usize;
    let mut eps = 0.1f64;
    let mut trials = 1u32;
    let mut seed = 42u64;
    let mut repetitions: Option<u32> = None;
    let mut workers: Option<u16> = None;
    let mut verbose = false;
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--graph" => {
                graph_spec = Some(value(args, i, "--graph")?);
                i += 2;
            }
            "--batch" => {
                batch_path = Some(value(args, i, "--batch")?);
                i += 2;
            }
            "--shards" => {
                shards = Some(
                    value(args, i, "--shards")?.parse().map_err(|e| format!("--shards: {e}"))?,
                );
                i += 2;
            }
            "--tester" => {
                tester = value(args, i, "--tester")?;
                i += 2;
            }
            "--k" => {
                k = value(args, i, "--k")?.parse().map_err(|e| format!("--k: {e}"))?;
                i += 2;
            }
            "--eps" => {
                eps = value(args, i, "--eps")?.parse().map_err(|e| format!("--eps: {e}"))?;
                i += 2;
            }
            "--trials" => {
                trials =
                    value(args, i, "--trials")?.parse().map_err(|e| format!("--trials: {e}"))?;
                i += 2;
            }
            "--seed" => {
                seed = value(args, i, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 2;
            }
            "--repetitions" => {
                repetitions = Some(
                    value(args, i, "--repetitions")?
                        .parse()
                        .map_err(|e| format!("--repetitions: {e}"))?,
                );
                i += 2;
            }
            "--workers" => {
                let w: u16 =
                    value(args, i, "--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
                if w == 0 {
                    return Err("--workers: need at least one worker".into());
                }
                workers = Some(w);
                i += 2;
            }
            "--verbose" => {
                verbose = true;
                i += 1;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if let Some(path) = batch_path {
        if graph_spec.is_some() {
            return Err("--batch and --graph are mutually exclusive".into());
        }
        if tester != "ck" {
            return Err(format!("--batch supports the ck tester only, got {tester:?}"));
        }
        // Same session-grade validation as the single-graph path.
        ck_core::tester::TesterConfig::new(k, eps, 0).validate().map_err(|e| match e {
            ck_core::tester::ConfigError::KOutOfRange { .. } => format!("--k: {e}"),
            ck_core::tester::ConfigError::EpsOutOfRange { .. } => format!("--eps: {e}"),
            // Unreachable from the CLI (no flag sets assumed_loss yet).
            ck_core::tester::ConfigError::LossOutOfRange { .. } => format!("{e}"),
        })?;
        return Ok(Invocation::Batch(BatchRequest {
            path,
            k,
            eps,
            trials,
            seed,
            repetitions,
            shards,
        }));
    }
    if shards.is_some() {
        return Err("--shards requires --batch".into());
    }
    let spec = graph_spec.ok_or("--graph is required")?;
    if (workers.is_some() || verbose) && tester != "ck" {
        return Err(format!(
            "--workers/--verbose drive full tester sessions and support the ck tester only, got {tester:?}"
        ));
    }
    let graph = parse_graph_spec(&spec)?;
    let tester = parse_tester(&tester, k, eps, repetitions)?;
    Ok(Invocation::Single(Box::new(Request {
        graph,
        graph_desc: spec,
        tester,
        trials,
        seed,
        k,
        eps,
        repetitions,
        workers,
        verbose,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn single(s: &str) -> Request {
        match parse_args(&argv(s)).unwrap() {
            Invocation::Single(r) => *r,
            _ => panic!("expected a single-graph invocation"),
        }
    }

    #[test]
    fn parses_every_family() {
        let specs = [
            "cycle:9",
            "path:4",
            "complete:5",
            "grid:3:4",
            "torus:3:3",
            "hypercube:3",
            "petersen",
            "heawood",
            "mobius-kantor",
            "pappus",
            "theta:3:2",
            "fan:3",
            "spindle:5:2",
            "cactus:3:5",
            "circulant:10:1:2",
            "gnp:20:0.2:7",
            "gnm:20:30:7",
            "tree:15:3",
            "regular:12:3:1",
            "high-girth:30:5:200:2",
            "eps-far:40:4:0.05:0",
            "free:40:5",
            "behrend:5:20",
        ];
        for s in specs {
            let g = parse_graph_spec(s).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert!(g.n() > 0, "{s}");
        }
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(parse_graph_spec("nosuch:1").is_err());
        assert!(parse_graph_spec("cycle").is_err());
        assert!(parse_graph_spec("gnp:10:notafloat").is_err());
        assert!(parse_graph_spec("circulant:10").is_err());
        assert!(parse_graph_spec("file:/definitely/not/here.col").is_err());
        // Out-of-range family arguments: each generator would assert.
        for spec in [
            "cycle:2",
            "path:0",
            "tree:0",
            "torus:2:2",
            "theta:0:0",
            "fan:1",
            "spindle:0:0",
            "cactus:0:0",
            "circulant:5:7",
            "circulant:2:1",
            "gnp:10:1.5",
            "gnm:5:11",
            "regular:5:3",
            "regular:3:3",
            "eps-far:24:4:0.3",
            "eps-far:24:2:0.1",
            "free:10:1",
            "behrend:2:20",
        ] {
            let family = spec.split(':').next().unwrap();
            let err = parse_graph_spec(spec).err().unwrap_or_else(|| panic!("{spec} accepted"));
            assert!(err.starts_with(family), "{spec}: {err}");
        }
    }

    /// A malformed optional seed must be a parse error, not a silent
    /// seed-0 run (the old `.parse().ok().unwrap_or(0)` bug).
    #[test]
    fn malformed_seeds_error_instead_of_defaulting() {
        for spec in [
            "gnp:100:0.05:abc",
            "gnm:20:30:x",
            "tree:15:-3",
            "regular:12:3:1.5",
            "high-girth:30:5:200:?",
            "eps-far:40:4:0.05:abc",
        ] {
            let err = parse_graph_spec(spec).unwrap_err();
            assert!(err.contains("bad seed argument"), "{spec}: {err}");
        }
        // Omitting the seed still defaults to 0.
        assert!(parse_graph_spec("gnp:20:0.2").is_ok());
        assert!(parse_graph_spec("tree:15").is_ok());
    }

    /// ε outside (0,1) must surface as a friendly error from the
    /// parsers, never as the repetition schedule's assert backtrace.
    #[test]
    fn bad_eps_is_a_usage_error_not_a_panic() {
        for eps in ["1.5", "0", "-0.1", "NaN"] {
            let err = parse_args(&argv(&format!("--graph cycle:5 --tester ck --eps {eps}")))
                .err()
                .unwrap_or_else(|| panic!("--eps {eps} must be rejected"));
            assert!(err.contains("must lie in (0,1)"), "{eps}: {err}");
        }
        let err = parse_graph_spec("eps-far:60:5:1.5").unwrap_err();
        assert!(err.contains("must lie in (0,1)"), "{err}");
        // The forest tester ignores ε entirely; a default ε never blocks it.
        assert!(parse_args(&argv("--graph petersen --tester forest")).is_ok());
    }

    #[test]
    fn parses_full_command_lines() {
        let req = single("--graph cycle:7 --tester ck --k 7 --eps 0.2 --trials 3 --seed 5");
        assert_eq!(req.graph.n(), 7);
        assert_eq!(req.tester.name(), "ck");
        assert_eq!(req.trials, 3);
        assert_eq!(req.seed, 5);

        let req = single("--graph petersen --tester forest");
        assert_eq!(req.tester.name(), "forest");
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&argv("--tester ck")).is_err(), "graph required");
        assert!(parse_args(&argv("--graph cycle:5 --tester nosuch")).is_err());
        assert!(parse_args(&argv("--graph cycle:5 --frobnicate yes")).is_err());
        assert!(parse_args(&argv("--graph cycle:5 --k")).is_err());
    }

    #[test]
    fn parses_batch_command_lines() {
        let inv =
            parse_args(&argv("--batch specs.txt --k 4 --eps 0.2 --trials 3 --shards 2")).unwrap();
        let Invocation::Batch(b) = inv else { panic!("expected batch") };
        assert_eq!(b.path, "specs.txt");
        assert_eq!((b.k, b.trials, b.shards), (4, 3, Some(2)));

        assert!(parse_args(&argv("--batch f --graph cycle:5")).is_err(), "mutually exclusive");
        assert!(parse_args(&argv("--batch f --tester forest")).is_err(), "ck only");
        assert!(parse_args(&argv("--batch f --eps 2.0")).is_err(), "eps validated");
        assert!(parse_args(&argv("--graph cycle:5 --shards 2")).is_err(), "shards needs batch");
    }

    #[test]
    fn batch_files_parse_with_comments_and_errors() {
        let text = "# planted cells\ncycle:9\n\n  eps-far:40:4:0.05:1\npetersen\n";
        let specs = parse_batch_file(text).unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].0, "cycle:9");
        assert_eq!(specs[0].1.n(), 9);

        let err = parse_batch_file("cycle:9\nnosuch:3\n").unwrap_err();
        assert!(err.contains("batch line 2"), "{err}");
        assert!(parse_batch_file("# only comments\n").is_err());
    }

    #[test]
    fn end_to_end_probe_via_request() {
        let req = single("--graph cycle:5 --tester ck --k 5 --eps 0.2 --repetitions 1 --trials 2");
        let amp = ck_core::framework::amplify(&*req.tester, &req.graph, req.seed, req.trials);
        assert!(amp.reject, "C5 must be rejected");
    }

    /// The batch path end to end: specs × trials through the session's
    /// batch runner match one-by-one session tests bit for bit.
    #[test]
    fn end_to_end_batch_matches_loop() {
        use ck_core::session::TesterSession;
        let specs = parse_batch_file("cycle:5\nfree:30:5\neps-far:36:5:0.1:1\n").unwrap();
        let trials = 2u32;
        let req = BatchRequest {
            path: String::new(),
            k: 5,
            eps: 0.1,
            trials,
            seed: 7,
            repetitions: Some(1),
            shards: Some(2),
        };
        let jobs = batch_jobs(&specs, &req);
        let session = TesterSession::builder(req.k, req.eps).build().unwrap();
        let runs = session.test_batch(&jobs, Some(2)).unwrap();
        assert_eq!(runs.len(), specs.len() * trials as usize);
        for (job, run) in jobs.iter().zip(&runs) {
            let one = TesterSession::from_config(job.cfg, session.engine().clone())
                .unwrap()
                .test(job.graph)
                .unwrap();
            assert_eq!(one.reject, run.reject, "{}", job.label);
            assert_eq!(one.outcome.verdicts, run.outcome.verdicts, "{}", job.label);
        }
        // cycle:5 is rejected on every trial; free:30:5 never is.
        assert!(runs[..trials as usize].iter().all(|r| r.reject));
        assert!(runs[trials as usize..2 * trials as usize].iter().all(|r| !r.reject));
    }

    #[test]
    fn parses_worker_subcommand_and_distributed_flags() {
        let Invocation::Worker { addr, index } =
            parse_args(&argv("net-worker 127.0.0.1:4321 2")).unwrap()
        else {
            panic!("expected a worker invocation");
        };
        assert_eq!(addr, "127.0.0.1:4321");
        assert_eq!(index, 2);

        assert!(parse_args(&argv("net-worker")).is_err(), "address required");
        assert!(parse_args(&argv("net-worker 127.0.0.1:1")).is_err(), "index required");
        assert!(parse_args(&argv("net-worker 127.0.0.1:1 x")).is_err(), "index numeric");
        assert!(parse_args(&argv("net-worker 127.0.0.1:1 0 extra")).is_err());

        let req = single("--graph cycle:7 --k 7 --eps 0.2 --workers 3 --verbose");
        assert_eq!(req.workers, Some(3));
        assert!(req.verbose);
        assert_eq!((req.k, req.eps), (7, 0.2));

        assert!(parse_args(&argv("--graph cycle:5 --workers 0")).is_err(), "zero workers");
        assert!(
            parse_args(&argv("--graph petersen --tester forest --workers 2")).is_err(),
            "distributed path is ck-only"
        );
        assert!(
            parse_args(&argv("--graph petersen --tester forest --verbose")).is_err(),
            "verbose reports come from ck sessions"
        );
    }

    #[test]
    fn parses_serve_subcommand() {
        let Invocation::Serve(req) = parse_args(&argv("serve")).unwrap() else {
            panic!("expected a serve invocation");
        };
        assert_eq!(req.addr, "127.0.0.1:0");
        assert_eq!(req.workers, 2);

        let Invocation::Serve(req) = parse_args(&argv(
            "serve --addr 127.0.0.1:9911 --workers 4 --max-nodes 5000 \
             --inflight-budget 8 --idle-reclaim-ms 100 --max-conns 16",
        ))
        .unwrap() else {
            panic!("expected a serve invocation");
        };
        assert_eq!(req.addr, "127.0.0.1:9911");
        assert_eq!((req.workers, req.max_nodes), (4, 5000));
        assert_eq!((req.inflight_budget, req.idle_reclaim_ms), (8, 100));
        assert_eq!(req.max_conns, 16);

        assert!(parse_args(&argv("serve --workers 0")).is_err(), "zero workers");
        assert!(parse_args(&argv("serve --max-conns 0")).is_err(), "zero connections");
        assert!(parse_args(&argv("serve --workers")).is_err(), "value required");
        assert!(parse_args(&argv("serve --frobnicate 1")).is_err());
    }

    #[test]
    fn parses_submit_subcommand() {
        let Invocation::Submit(req) = parse_args(&argv(
            "submit 127.0.0.1:9911 --graph cycle:9 --k 4 --eps 0.2 --seed 7 \
             --repetitions 2 --job-id 3 --stats --shutdown",
        ))
        .unwrap() else {
            panic!("expected a submit invocation");
        };
        assert_eq!(req.addr, "127.0.0.1:9911");
        assert_eq!(req.graph_spec.as_deref(), Some("cycle:9"));
        assert_eq!((req.k, req.eps, req.seed), (4, 0.2, 7));
        assert_eq!((req.repetitions, req.job_id), (Some(2), 3));
        assert!(req.stats && req.shutdown);

        // Out-of-range parameters parse fine: the service's admission
        // control refuses them with a typed frame, and the CLI must be
        // able to put that path on the wire.
        let Invocation::Submit(req) =
            parse_args(&argv("submit 127.0.0.1:1 --graph cycle:5 --k 99 --eps 0.0")).unwrap()
        else {
            panic!("expected a submit invocation");
        };
        assert_eq!((req.k, req.eps), (99, 0.0));

        // Stats-only and shutdown-only interactions need no graph.
        assert!(parse_args(&argv("submit 127.0.0.1:1 --stats")).is_ok());
        assert!(parse_args(&argv("submit 127.0.0.1:1 --shutdown")).is_ok());

        assert!(parse_args(&argv("submit")).is_err(), "address required");
        assert!(parse_args(&argv("submit --stats")).is_err(), "address before flags");
        assert!(parse_args(&argv("submit 127.0.0.1:1")).is_err(), "an action is required");
        assert!(parse_args(&argv("submit 127.0.0.1:1 --graph")).is_err(), "value required");
        assert!(parse_args(&argv("submit 127.0.0.1:1 --frobnicate yes")).is_err());
    }

    /// `--k` outside the supported range is a usage error on both the
    /// single and the batch path, never a mid-run panic.
    #[test]
    fn bad_k_is_a_usage_error_not_a_panic() {
        for args in ["--graph cycle:5 --tester ck --k 99", "--batch f --k 2"] {
            let err =
                parse_args(&argv(args)).err().unwrap_or_else(|| panic!("{args} must be rejected"));
            assert!(err.contains("outside supported range"), "{args}: {err}");
        }
        // The baselines ignore k entirely.
        assert!(parse_args(&argv("--graph petersen --tester triangle --k 99")).is_ok());
    }
}
