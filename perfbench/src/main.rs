//! `perfbench`: the ck-repro benchmark.
//!
//! Usage: `perfbench --workload <tester-mix|dist-small|serve-closed>
//! --seed <n> --seconds <s> --trace <0|1> [--tiny] [--commit <id>]
//! [--spans <file.jsonl>]`
//!
//! With `--trace 0` one workload runs with tracing off: it is set up
//! several times (the median is `setup_s`), then a timed closed-loop
//! phase of at least `--seconds` and [`MIN_JOBS`] jobs runs. Every
//! distinct job's verdict is then compared with a run on a fresh
//! sequential `TesterSession` (the oracle); see [`Checker`]. The last
//! stdout line is the result object with the end-to-end metrics, the
//! line before it the environment.
//!
//! With `--trace 1` every workload's layers are measured, so the
//! per-layer metric set is the same whichever workload is named: the
//! named workload runs an untraced and a traced phase of equal length
//! (their throughput ratio is `trace.overhead_frac`), the other two a
//! shorter traced phase, and each adds the probes its layers need
//! (sequential reruns, direct `warm_job` calls, codec round trips).
//! Spans are written to `--spans` once at the end.
//!
//! `--tiny` shrinks every input and job minimum so a full pass takes
//! seconds; it is what the self-check runs.

mod dist_small;
mod serve_closed;
mod tester_mix;
mod trace;

use std::fmt::Write as _;
use std::time::Instant;

use ck_congest::metrics::RoundStats;
use ck_core::tester::{NodeVerdict, TesterRun};
use trace::{median, nearest_rank, peak_rss_mb, Trace};

/// Jobs every timed phase holds at least, so at least ten samples lie
/// beyond p90.
const MIN_JOBS: usize = 100;

/// Workload names, in the order the traced run visits them.
const WORKLOADS: [&str; 3] = [tester_mix::NAME, dist_small::NAME, serve_closed::NAME];

/// Derives the seed of input stream `stream` from the workload seed
/// (SplitMix64), so every generated input depends on `--seed` alone.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Input sizes: the full benchmark or the seconds-long self-check.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub tiny: bool,
}

impl Sizes {
    /// `full` normally, `tiny` under `--tiny`.
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        if self.tiny {
            tiny
        } else {
            full
        }
    }
}

/// A timed phase runs until both limits are met.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub seconds: f64,
    pub min_jobs: usize,
}

impl Budget {
    /// The same budget with at least `n` jobs.
    pub fn at_least(self, n: usize) -> Budget {
        Budget { min_jobs: self.min_jobs.max(n), ..self }
    }

    /// Calls `job(0)`, `job(1)`, … until `seconds` have passed since
    /// `start` and `min_jobs` calls were made, or until `job` returns
    /// false (a wrong verdict or a broken connection ends a phase).
    pub fn drive(self, start: Instant, mut job: impl FnMut(usize) -> bool) {
        let mut j = 0;
        while j < self.min_jobs || start.elapsed().as_secs_f64() < self.seconds {
            let go_on = job(j);
            j += 1;
            if !go_on {
                break;
            }
        }
    }
}

/// The verdict of one job: what the oracle produces and what every
/// timed run must reproduce. `per_round` is empty where the caller
/// never sees per-round statistics (a ckserve result).
pub struct Verdict {
    pub reject: bool,
    pub verdicts: Vec<NodeVerdict>,
    pub per_round: Vec<RoundStats>,
}

impl Verdict {
    pub fn of(run: &TesterRun) -> Self {
        Verdict {
            reject: run.reject,
            verdicts: run.outcome.verdicts.clone(),
            per_round: run.outcome.report.per_round.clone(),
        }
    }

    fn agrees(&self, oracle: &Verdict) -> bool {
        self.reject == oracle.reject
            && self.verdicts == oracle.verdicts
            && (self.per_round.is_empty() || self.per_round == oracle.per_round)
    }
}

/// Checks every timed verdict against the sequential oracle without
/// holding the oracle, or its sessions' memory, while timing: the first
/// verdict of each distinct job is kept, every later run of the job
/// must equal it, and after timing the kept verdicts are compared with
/// the oracle.
pub struct Checker {
    first: Vec<Option<Verdict>>,
    runs: Vec<u64>,
}

impl Checker {
    pub fn new(jobs: usize) -> Self {
        Checker { first: (0..jobs).map(|_| None).collect(), runs: vec![0; jobs] }
    }

    /// Records a timed run of distinct job `i`; false when it differs
    /// from that job's first run.
    pub fn record(
        &mut self,
        i: usize,
        reject: bool,
        verdicts: &[NodeVerdict],
        per_round: &[RoundStats],
    ) -> bool {
        self.runs[i] += 1;
        match &self.first[i] {
            Some(v) => v.reject == reject && v.verdicts == verdicts && v.per_round == per_round,
            None => {
                let (verdicts, per_round) = (verdicts.to_vec(), per_round.to_vec());
                self.first[i] = Some(Verdict { reject, verdicts, per_round });
                true
            }
        }
    }

    /// Timed runs of jobs whose verdict differs from the oracle's.
    fn wrong_against(&self, oracle: &[Verdict]) -> u64 {
        let mut wrong = 0;
        for ((first, expected), runs) in self.first.iter().zip(oracle).zip(&self.runs) {
            if first.as_ref().is_some_and(|f| !f.agrees(expected)) {
                wrong += runs;
            }
        }
        wrong
    }
}

/// What one timed phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Caller-side latency in ms of every job that returned a verdict.
    pub samples: Vec<f64>,
    pub attempted: u64,
    /// Errors, refusals, oracle mismatches and distributed fallbacks.
    pub failed: u64,
    /// The subset of `failed` whose verdict differed from the oracle (or
    /// from an earlier run of the same job) or that errored: the
    /// outputs that are wrong, not merely slow.
    pub wrong: u64,
    pub elapsed_s: f64,
}

impl Phase {
    /// Records a completed job.
    pub fn done(&mut self, ms: f64) {
        self.samples.push(ms);
    }

    pub fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    /// Verdicts completed per second over the whole phase.
    pub fn jobs_per_s(&self) -> f64 {
        self.samples.len() as f64 / self.elapsed_s
    }

    /// Nearest-rank latency quantile over every sample of the phase.
    pub fn latency_ms(&self, q: f64) -> f64 {
        nearest_rank(&self.samples, q)
    }
}

/// CPU time (user + system) this process has used, all threads
/// including exited ones, in seconds, at nanosecond resolution. Time
/// the hypervisor steals from the guest is not charged to the process.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_s() -> f64 {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of
    // 64-bit Linux (both fields 64 bits), and `clock_gettime` writes
    // only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// Without a process CPU clock every CPU metric is `NaN`, which makes
/// the run report `"correct": false`.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_s() -> f64 {
    f64::NAN
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        s.push('}');
        s
    }
}

/// One benchmark workload. The driver owns the phases; a workload
/// supplies its inputs, its system under test and its layer probes.
pub trait Workload: Sized {
    /// Load-generator threads, each with at most one connection.
    const CLIENTS: usize;
    /// Set-ups per untraced run; `setup_s` is their median.
    const SETUP_REPS: usize;
    /// The generated graphs and the list of distinct jobs.
    type Inputs;
    /// Generates the inputs from `seed`, recording each generator call
    /// as a `graphgen.gen` span.
    fn inputs(seed: u64, sizes: Sizes, trace: &mut Trace) -> Self::Inputs;
    /// Runs every distinct job once on a fresh sequential session,
    /// indexed like the job list. Untimed.
    fn oracle(inputs: &Self::Inputs) -> Vec<Verdict>;
    /// Builds the system under test and runs the cold first job.
    fn start(inputs: Self::Inputs, trace: &mut Trace) -> Self;
    /// One closed-loop timed phase, each verdict recorded in the
    /// workload's [`Checker`].
    fn timed(&mut self, budget: Budget, trace: &mut Trace) -> Phase;
    /// Runs this workload's layer probes and derives its per-layer
    /// metrics from the spans of its traced phase.
    fn layers(&mut self, probe: Budget, trace: &mut Trace, out: &mut Metrics);
    /// The oracle over this system's own inputs, as wrong timed runs.
    fn verify(&mut self) -> u64;
    /// Stops everything [`Workload::start`] started.
    fn teardown(self);
}

/// Set-up as `setup_s` times it: input generation, system start and
/// the cold first job.
fn setup<W: Workload>(o: &Opts, trace: &mut Trace) -> W {
    let inputs = W::inputs(o.seed, o.sizes, trace);
    W::start(inputs, trace)
}

/// Runs the oracle check after the timed phases and folds its result
/// into `phase`.
fn verify<W: Workload>(w: &mut W, phase: &mut Phase) {
    let wrong = w.verify();
    phase.wrong += wrong;
    phase.failed = (phase.failed + wrong).min(phase.attempted);
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
    commit: String,
    spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        sizes: Sizes { tiny: false },
        commit: "unknown".into(),
        spans: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => o.workload = val()?,
            "--seed" => o.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => o.trace = val()? == "1",
            "--commit" => o.commit = val()?,
            "--spans" => o.spans = Some(val()?.into()),
            "--tiny" => o.sizes.tiny = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if o.seconds.is_nan() || o.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(o)
}

fn min_jobs(sizes: Sizes) -> usize {
    sizes.pick(MIN_JOBS, 10)
}

/// The untraced run: `SETUP_REPS` set-ups, one timed phase, then the
/// oracle check (after the peak memory is read, so the oracle's
/// sessions never count towards it). Returns the result metrics and
/// the wall-clock figures, which are printed on the environment line:
/// they swing with host CPU steal (a 2-vCPU guest losing 27% of its
/// cycles to steal ran tester-mix at half speed while CPU time per job
/// rose 16%), so the result carries CPU time: per job, and for the
/// set-up (`setup_s` is the median set-up's CPU seconds). No result
/// metric therefore sees a change that only adds or removes waiting: a
/// slower distributed floor, serve queueing, or a parallel executor that
/// runs on one thread shows only in the wall-clock figures.
fn untraced<W: Workload>(o: &Opts) -> (Metrics, Metrics, Phase) {
    let (mut setups, mut setup_walls) = (Vec::new(), Vec::new());
    let mut w: Option<W> = None;
    for _ in 0..W::SETUP_REPS {
        if let Some(old) = w.take() {
            old.teardown();
        }
        let (cpu, t) = (cpu_s(), Instant::now());
        w = Some(setup(o, &mut Trace::new(false)));
        setup_walls.push(t.elapsed().as_secs_f64());
        setups.push(cpu_s() - cpu);
    }
    let mut w = w.expect("SETUP_REPS >= 1");
    let budget = Budget { seconds: o.seconds, min_jobs: min_jobs(o.sizes) };
    let cpu = cpu_s();
    let mut phase = w.timed(budget, &mut Trace::new(false));
    let cpu = cpu_s() - cpu;
    let peak = peak_rss_mb();
    verify(&mut w, &mut phase);
    w.teardown();
    let mut gated = Metrics::default();
    gated.push("cpu_ms_per_job", cpu * 1e3 / phase.samples.len() as f64, "ms");
    gated.push("setup_s", median(&setups), "s");
    gated.push("peak_rss_mb", peak, "MB");
    let mut wall = Metrics::default();
    wall.push("jobs_per_s", phase.jobs_per_s(), "1/s");
    wall.push("job_p50_ms", phase.latency_ms(0.5), "ms");
    wall.push("job_p90_ms", phase.latency_ms(0.9), "ms");
    wall.push("setup_wall_s", median(&setup_walls), "s");
    (gated, wall, phase)
}

/// One workload's share of the traced run. `main_seconds` is `Some`
/// for the named workload, which also runs an untraced phase of the
/// same length to measure the tracing overhead.
fn traced_part<W: Workload>(
    o: &Opts,
    main_seconds: Option<f64>,
    other_seconds: f64,
    m: &mut Metrics,
    spans: &mut Trace,
) -> Phase {
    let mut trace = Trace::new(true);
    let mut w = setup::<W>(o, &mut trace);
    let min = |s: f64| Budget { seconds: s, min_jobs: min_jobs(o.sizes) / 4 };
    let mut total = Phase::default();
    if let Some(s) = main_seconds {
        m.push("graphgen.gen_ms", trace.durations_ms("graphgen.gen").iter().sum(), "ms");
        let plain = w.timed(min(s), &mut Trace::new(false));
        let traced = w.timed(min(s), &mut trace);
        m.push("trace.overhead_frac", 1.0 - traced.jobs_per_s() / plain.jobs_per_s(), "frac");
        total.absorb(plain);
        total.absorb(traced);
    } else {
        total.absorb(w.timed(min(other_seconds), &mut trace));
    }
    w.layers(min(other_seconds / 2.0), &mut trace, m);
    verify(&mut w, &mut total);
    w.teardown();
    spans.merge(trace);
    total
}

fn traced(o: &Opts) -> (Metrics, Metrics, Phase) {
    let mut m = Metrics::default();
    let mut spans = Trace::new(true);
    let mut phase = Phase::default();
    let (main, other) = (o.seconds / 4.0, o.seconds / 6.0);
    for name in WORKLOADS {
        let main = (name == o.workload).then_some(main);
        let p = match name {
            tester_mix::NAME => {
                traced_part::<tester_mix::TesterMix>(o, main, other, &mut m, &mut spans)
            }
            dist_small::NAME => {
                traced_part::<dist_small::DistSmall>(o, main, other, &mut m, &mut spans)
            }
            _ => traced_part::<serve_closed::ServeClosed>(o, main, other, &mut m, &mut spans),
        };
        phase.absorb(p);
    }
    if let Some(path) = &o.spans {
        if let Err(e) = spans.write_jsonl(path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
    (m, Metrics::default(), phase)
}

fn clients(name: &str) -> usize {
    match name {
        tester_mix::NAME => tester_mix::TesterMix::CLIENTS,
        dist_small::NAME => dist_small::DistSmall::CLIENTS,
        _ => serve_closed::ServeClosed::CLIENTS,
    }
}

fn main() {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    // A load generator with more threads than cores measures the
    // scheduler, not the system. The traced run visits every workload.
    let names: Vec<&str> = if o.trace { WORKLOADS.to_vec() } else { vec![o.workload.as_str()] };
    if let Some(n) = names.iter().find(|n| clients(n) > cores) {
        eprintln!("perfbench: {n} needs {} load-generator threads; {cores} cores", clients(n));
        std::process::exit(2);
    }

    let (metrics, wall, phase) = if o.trace {
        traced(&o)
    } else {
        match o.workload.as_str() {
            tester_mix::NAME => untraced::<tester_mix::TesterMix>(&o),
            dist_small::NAME => untraced::<dist_small::DistSmall>(&o),
            _ => untraced::<serve_closed::ServeClosed>(&o),
        }
    };

    let finite = metrics.0.iter().chain(&wall.0).all(|(_, v, _)| v.is_finite());
    let correct = phase.wrong == 0 && finite;
    for (name, value, unit) in metrics.0.iter().chain(&wall.0) {
        eprintln!("  {name:<34} {value:>14.4} {unit}");
    }
    let failed_frac = phase.failed as f64 / phase.attempted.max(1) as f64;
    println!(
        "{{\"env\": {{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \
         \"tiny\": {}, \"cores\": {cores}, \"parallel_threads\": {}, \"commit\": \"{}\"}}, \
         \"jobs\": {}, \"samples\": {}, \"failed_frac\": {failed_frac}, \"wrong\": {}, \
         \"wall\": {}}}",
        o.workload,
        u8::from(o.trace),
        o.seed,
        o.seconds,
        o.sizes.tiny,
        rayon::current_num_threads(),
        o.commit,
        phase.attempted,
        phase.samples.len(),
        phase.wrong,
        wall.json(),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        phase.attempted.max(1),
        phase.failed,
        metrics.json()
    );
    if !correct {
        eprintln!("perfbench: {} jobs disagreed with the oracle or errored", phase.wrong);
        std::process::exit(1);
    }
}
