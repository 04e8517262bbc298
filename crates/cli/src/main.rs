//! `ckprobe` — run distributed cycle/pattern testers on any graph.

use ck_cli::{
    batch_jobs, graph_spec_help, parse_args, parse_batch_file, parse_graph_spec, BatchRequest,
    Invocation, Request, SubmitRequest,
};
use ck_congest::engine::{EngineConfig, Executor};
use ck_congest::message::WireParams;
use ck_congest::metrics::{FaultReport, NetReport, RunReport};
use ck_core::framework::amplify;
use ck_core::session::TesterSession;
use ck_core::tester::TesterConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    let invocation = match parse_args(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}\n");
            print_help();
            std::process::exit(2);
        }
    };
    match invocation {
        Invocation::Single(req) => {
            if req.workers.is_some() || req.verbose {
                run_single_sessions(&req)
            } else {
                run_single(&req)
            }
        }
        Invocation::Batch(req) => run_batch(&req),
        Invocation::Worker { addr, index } => {
            if let Err(e) = ck_core::dist::worker_main(&addr, index) {
                eprintln!("net-worker {index}: {e}");
                std::process::exit(3);
            }
        }
        Invocation::Serve(opts) => run_serve(opts),
        Invocation::Submit(req) => run_submit(&req),
    }
}

/// The `serve` subcommand: run the probe service until a client sends
/// Shutdown, then report the drained counters.
fn run_serve(opts: ck_serve::ServeOptions) {
    use std::io::Write as _;
    let addr = opts.addr.clone();
    let server = match ck_serve::BoundServer::bind(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: binding {addr}: {e}");
            std::process::exit(3);
        }
    };
    // The one line scripted callers parse for the OS-assigned port;
    // flushed explicitly because stdout is block-buffered under pipes.
    println!("ckserve listening on {}", server.addr());
    let _ = std::io::stdout().flush();
    let snap = server.run();
    // A scripted parent may have closed our stdout after reading the
    // banner; the drain report is best-effort, never a panic.
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "ckserve drained: {} submitted, {} completed, {} refused, {} session(s) reclaimed",
        snap.jobs_submitted, snap.jobs_completed, snap.jobs_refused, snap.sessions_reclaimed,
    );
    let _ = writeln!(
        out,
        "ckserve latency: {} job(s), p50 {} µs, p99 {} µs, max {} µs",
        snap.latency.count, snap.latency.p50_us, snap.latency.p99_us, snap.latency.max_us,
    );
    let _ = out.flush();
    std::process::exit(0);
}

/// The `submit` subcommand: one connection doing (in order) an
/// optional job, an optional stats fetch, an optional shutdown.
fn run_submit(req: &SubmitRequest) {
    let mut client = match ck_serve::ServeClient::connect(&req.addr, req.timeout_ms) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: connecting to {}: {e}", req.addr);
            std::process::exit(3);
        }
    };
    let mut exit_code = 0;
    if let Some(spec) = &req.graph_spec {
        let graph = match parse_graph_spec(spec) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let job = ck_serve::JobRequest {
            job_id: req.job_id,
            graph,
            k: req.k as u32,
            eps: req.eps,
            seed: req.seed,
            repetitions: req.repetitions,
        };
        match client.run_job(&job) {
            Ok(res) => match res.outcome {
                Ok(v) => {
                    let rejected = v.verdicts.iter().filter(|n| n.rejected).count();
                    println!(
                        "job {}: {} — {} of {} node(s) rejecting, {} µs",
                        res.job_id,
                        if v.reject { "REJECT" } else { "accept" },
                        rejected,
                        v.verdicts.len(),
                        v.wall_us,
                    );
                    exit_code = i32::from(v.reject);
                }
                Err(e) => {
                    eprintln!("job {}: refused: {e}", res.job_id);
                    exit_code = 3;
                }
            },
            Err(e) => {
                eprintln!("error: job {}: {e}", req.job_id);
                std::process::exit(3);
            }
        }
    }
    if req.stats {
        match client.stats() {
            Ok(s) => {
                println!(
                    "stats: {} worker(s), queue {}, in-flight {}, pool outstanding {}",
                    s.workers, s.queue_depth, s.in_flight, s.pool_outstanding,
                );
                println!(
                    "stats: {} submitted, {} completed, {} refused, {} reclaimed, slots {}/{} (takes/misses)",
                    s.jobs_submitted,
                    s.jobs_completed,
                    s.jobs_refused,
                    s.sessions_reclaimed,
                    s.slot_takes,
                    s.slot_misses,
                );
                println!(
                    "stats: latency {} job(s), p50 {} µs, p99 {} µs, max {} µs",
                    s.latency.count, s.latency.p50_us, s.latency.p99_us, s.latency.max_us,
                );
            }
            Err(e) => {
                eprintln!("error: stats: {e}");
                std::process::exit(3);
            }
        }
    }
    if req.shutdown {
        match client.shutdown() {
            Ok(jobs_completed) => {
                println!("ckserve shutdown acknowledged: {jobs_completed} job(s) completed");
            }
            Err(e) => {
                eprintln!("error: shutdown: {e}");
                std::process::exit(3);
            }
        }
    }
    std::process::exit(exit_code);
}

/// The `--workers`/`--verbose` path: one full tester session for every
/// trial instead of the probe framework, so run reports (fault +
/// network accounting) survive to be printed — and the distributed
/// executor can spawn this very binary as `net-worker` processes, once
/// per invocation.
fn run_single_sessions(req: &Request) {
    let g = &req.graph;
    println!(
        "graph {} — n = {}, m = {}, max degree {}, girth {}",
        req.graph_desc,
        g.n(),
        g.m(),
        g.max_degree(),
        g.girth().map_or("∞".into(), |x| x.to_string()),
    );
    let mut engine = EngineConfig::default();
    if let Some(w) = req.workers {
        engine.executor = Executor::Distributed { workers: w };
        match std::env::current_exe() {
            Ok(exe) => {
                engine.net.worker_cmd =
                    Some(vec![exe.to_string_lossy().into_owned(), "net-worker".into()]);
            }
            Err(e) => {
                eprintln!("error: locating ckprobe for worker spawn: {e}");
                std::process::exit(2);
            }
        }
    }
    println!(
        "tester: ck — C{}-freeness (ε = {}), executor {}",
        req.k,
        req.eps,
        match engine.executor {
            Executor::Sequential => "sequential".into(),
            Executor::Parallel => "parallel".into(),
            Executor::Distributed { workers } => format!("distributed ({workers} workers)"),
        },
    );
    let trials = req.trials.max(1);
    let cfg = TesterConfig {
        repetitions: req.repetitions,
        ..TesterConfig::new(req.k, req.eps, req.seed)
    };
    // One session for every trial: a distributed session spawns its
    // `net-worker` processes once and reuses them for each later trial.
    let mut session = match TesterSession::from_config(cfg, engine) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut rejected = 0u32;
    for t in 0..trials {
        session.set_seed(req.seed.wrapping_add(u64::from(t).wrapping_mul(0x9E37_79B9)));
        let run = match session.test(g) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: trial {t}: {e}");
                // `exit` runs no destructors: end the workers first.
                drop(session);
                std::process::exit(2);
            }
        };
        let report = &run.outcome.report;
        println!(
            "  trial {t}: {} — {} rounds, {} messages, {} bits, worst link {} bits",
            if run.reject { "REJECT" } else { "accept" },
            report.rounds,
            report.total_messages(),
            report.total_bits(),
            report.max_link_bits(),
        );
        rejected += u32::from(run.reject);
        if req.verbose {
            print_report_details(report);
        }
    }
    println!(
        "verdict: {}  ({rejected}/{trials} trials rejected)",
        if rejected > 0 { "REJECT" } else { "accept" },
    );
    // `exit` runs no destructors: end (and reap) the worker processes
    // before it.
    drop(session);
    std::process::exit(if rejected > 0 { 1 } else { 0 });
}

/// Human-readable fault and network accounting for `--verbose`.
fn print_report_details(report: &RunReport) {
    print_fault_summary(&report.faults);
    if let Some(net) = &report.net {
        print_net_summary(net);
    }
}

fn print_fault_summary(f: &FaultReport) {
    let dropped =
        f.dropped_explicit + f.dropped_random + f.dropped_crash + f.dropped_cut + f.dropped_burst;
    if dropped == 0 && f.corrupted_delivered == 0 && f.crashed_nodes.is_empty() {
        println!("    faults: none");
        return;
    }
    println!(
        "    faults: {dropped} messages dropped \
         (explicit {}, random {}, crash {}, cut {}, burst {})",
        f.dropped_explicit, f.dropped_random, f.dropped_crash, f.dropped_cut, f.dropped_burst,
    );
    if f.corrupted_delivered > 0 || f.corrupted_rejected > 0 {
        println!(
            "    corruption: {} frames delivered corrupted, {} rejected by the codec",
            f.corrupted_delivered, f.corrupted_rejected,
        );
    }
    if !f.crashed_nodes.is_empty() {
        println!("    crashed nodes: {:?}", f.crashed_nodes);
    }
}

fn print_net_summary(net: &NetReport) {
    println!(
        "    net: {} workers (fleet {}), {} frames routed ({} bytes), {} barriers, {} heartbeats",
        net.workers,
        if net.fleet_spawned { "spawned" } else { "reused" },
        net.frames_routed,
        net.frame_bytes,
        net.barriers,
        net.heartbeats,
    );
    match (&net.fallback, net.recovery_ms) {
        (Some(reason), Some(ms)) => {
            println!("    net: degraded to the sequential executor in {ms} ms — {reason}");
        }
        (Some(reason), None) => println!("    net: degraded to the sequential executor — {reason}"),
        _ => {}
    }
}

fn run_single(req: &Request) {
    let g = &req.graph;
    println!(
        "graph {} — n = {}, m = {}, max degree {}, girth {}",
        req.graph_desc,
        g.n(),
        g.m(),
        g.max_degree(),
        g.girth().map_or("∞".into(), |x| x.to_string()),
    );
    println!("tester: {} — {}", req.tester.name(), req.tester.property());
    let amp = amplify(&*req.tester, g, req.seed, req.trials);
    let wp = WireParams::for_graph(g);
    let b = wp.congest_bandwidth(4);
    for (i, t) in amp.trials.iter().enumerate() {
        println!(
            "  trial {i}: {} — {} rounds, {} messages, {} bits, worst link {} bits (B = {b})",
            if t.reject { "REJECT" } else { "accept" },
            t.rounds,
            t.messages,
            t.bits,
            t.max_link_bits,
        );
    }
    println!(
        "verdict: {}  ({}/{} trials rejected)",
        if amp.reject { "REJECT" } else { "accept" },
        amp.trials.iter().filter(|t| t.reject).count(),
        amp.trials.len(),
    );
    std::process::exit(if amp.reject { 1 } else { 0 });
}

fn run_batch(req: &BatchRequest) {
    let text = match std::fs::read_to_string(&req.path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading {}: {e}", req.path);
            std::process::exit(2);
        }
    };
    let specs = match parse_batch_file(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let jobs = batch_jobs(&specs, req);
    // The session validates (k, ε) at build time — a bad cell is a
    // usage error here, never a panic mid-sweep.
    let session = match TesterSession::builder(req.k, req.eps).build() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "batch {}: {} graph(s) × {} trial(s) = {} job(s), tester ck (k = {}, ε = {})",
        req.path,
        specs.len(),
        req.trials.max(1),
        jobs.len(),
        req.k,
        req.eps,
    );
    let runs = match session.test_batch(&jobs, req.shards) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let trials = req.trials.max(1) as usize;
    let mut any_reject = false;
    for (gi, (spec, graph)) in specs.iter().enumerate() {
        let cell = &runs[gi * trials..(gi + 1) * trials];
        let rejects = cell.iter().filter(|r| r.reject).count();
        let rounds: u64 = cell.iter().map(|r| u64::from(r.outcome.report.rounds)).sum();
        let messages: u64 = cell.iter().map(|r| r.outcome.report.total_messages()).sum();
        any_reject |= rejects > 0;
        println!(
            "  {spec} — n = {}, m = {}: {} ({rejects}/{trials} trials rejected, {rounds} rounds, {messages} messages)",
            graph.n(),
            graph.m(),
            if rejects > 0 { "REJECT" } else { "accept" },
        );
    }
    println!("batch verdict: {}", if any_reject { "REJECT" } else { "accept" });
    std::process::exit(if any_reject { 1 } else { 0 });
}

fn print_help() {
    println!(
        "ckprobe — distributed cycle detection (Fraigniaud & Olivetti, SPAA 2017)\n\n\
         usage: ckprobe --graph SPEC [--tester ck|triangle|c4|forest]\n\
         \x20                       [--k K] [--eps E] [--trials N] [--seed S]\n\
         \x20                       [--repetitions R] [--workers W] [--verbose]\n\
         \x20      ckprobe --batch FILE [--k K] [--eps E] [--trials N] [--seed S]\n\
         \x20                       [--repetitions R] [--shards W]\n\
         \x20      ckprobe net-worker ADDR INDEX\n\
         \x20      ckprobe serve [--addr A] [--workers N] [--max-nodes N]\n\
         \x20                    [--inflight-budget N] [--idle-reclaim-ms MS]\n\
         \x20                    [--max-conns N]\n\
         \x20      ckprobe submit ADDR [--graph SPEC] [--k K] [--eps E] [--seed S]\n\
         \x20                    [--repetitions R] [--job-id ID] [--stats] [--shutdown]\n\n\
         --batch runs every graph spec in FILE (one per line, # comments)\n\
         through the sharded batch runner with the ck tester; --trials\n\
         fans each spec out with derived seeds.\n\n\
         --workers W runs the ck tester on the distributed executor: the\n\
         graph is partitioned over W spawned `ckprobe net-worker` processes\n\
         exchanging rounds over loopback TCP, spawned once and reused by\n\
         every trial; on any worker failure the run degrades to the\n\
         in-process sequential executor and says so.\n\
         --verbose adds per-trial fault and network report summaries.\n\n\
         serve runs the long-lived probe service: a pool of warm tester\n\
         sessions behind a loopback RPC endpoint (prints `ckserve listening\n\
         on ADDR`; port 0 allocates). submit talks to it: jobs print their\n\
         verdict (exit 0/1), service refusals — bad parameters, oversized\n\
         graphs, backpressure, draining — print the typed reason (exit 3).\n\n\
         exit status: 0 = accept, 1 = reject, 2 = usage error,\n\
         \x20             3 = worker or service error\n\n{}",
        graph_spec_help()
    );
}
