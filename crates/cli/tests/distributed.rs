//! Process-mode distributed runs through the real `ckprobe` binary:
//! the coordinator spawns `ckprobe net-worker` child processes, so
//! these tests cover the full fork + TCP + SIGKILL surface that the
//! in-crate thread-mode tests cannot.

use std::process::Command;
use std::time::{Duration, Instant};

use ck_congest::engine::{EngineConfig, EngineError, Executor};
use ck_congest::net::chaos::ChaosPlan;
use ck_congest::net::NetOptions;
use ck_core::session::TesterSession;
use ck_core::tester::TesterConfig;
use ck_graphgen::planted::eps_far_instance;

/// Hard bound on any chaos run: a hang would blow far past this.
const CHAOS_BUDGET: Duration = Duration::from_secs(60);

fn ckprobe() -> &'static str {
    env!("CARGO_BIN_EXE_ckprobe")
}

/// Net options that spawn real `ckprobe net-worker` processes.
fn process_net() -> NetOptions {
    NetOptions {
        connect_timeout_ms: 20_000,
        round_deadline_ms: 10_000,
        heartbeat_ms: 50,
        worker_cmd: Some(vec![ckprobe().to_string(), "net-worker".to_string()]),
        ..NetOptions::default()
    }
}

fn cfg() -> TesterConfig {
    let mut cfg = TesterConfig::new(4, 0.15, 11);
    cfg.repetitions = Some(2);
    cfg
}

#[test]
fn process_mode_matches_sequential_oracle() {
    let inst = eps_far_instance(24, 4, 0.15, 3);
    let oracle = TesterSession::from_config(cfg(), EngineConfig::default())
        .unwrap()
        .test(&inst.graph)
        .unwrap();
    let dist = TesterSession::from_config(
        cfg(),
        EngineConfig {
            executor: Executor::Distributed { workers: 2 },
            net: process_net(),
            ..EngineConfig::default()
        },
    )
    .unwrap()
    .test(&inst.graph)
    .unwrap();
    let net = dist.outcome.report.net.as_ref().unwrap();
    assert!(
        net.completed_distributed(),
        "healthy process-mode run must not degrade: {:?}",
        net.fallback
    );
    assert_eq!(dist.reject, oracle.reject);
    assert_eq!(dist.outcome.verdicts, oracle.outcome.verdicts);
    assert_eq!(dist.outcome.report.per_round, oracle.outcome.report.per_round);
}

#[test]
fn process_mode_kill_nine_falls_back_within_deadline() {
    let inst = eps_far_instance(24, 4, 0.15, 4);
    // SIGKILL worker 1 at the start of round 1: no goodbye, no flush —
    // the coordinator must type the loss and recover via the oracle.
    let net = NetOptions { kill_worker: Some((1, 1)), round_deadline_ms: 5_000, ..process_net() };
    let started = Instant::now();
    let run = TesterSession::from_config(
        cfg(),
        EngineConfig {
            executor: Executor::Distributed { workers: 2 },
            net,
            ..EngineConfig::default()
        },
    )
    .unwrap()
    .test(&inst.graph)
    .unwrap();
    assert!(started.elapsed() < CHAOS_BUDGET, "kill -9 recovery exceeded the budget");
    let net = run.outcome.report.net.as_ref().unwrap();
    assert!(net.fallback.is_some(), "worker loss must be recorded");
    assert!(net.recovery_ms.is_some());
    let oracle = TesterSession::from_config(cfg(), EngineConfig::default())
        .unwrap()
        .test(&inst.graph)
        .unwrap();
    assert_eq!(run.reject, oracle.reject);
    assert_eq!(run.outcome.verdicts, oracle.outcome.verdicts);
}

#[test]
fn process_mode_hard_abort_falls_back() {
    let inst = eps_far_instance(24, 4, 0.15, 5);
    // The chaos plan makes worker 0 call `process::abort()` when told
    // to run round 1 — an exit so hard no destructor runs.
    let net = NetOptions {
        chaos: Some(ChaosPlan { abort_at_round: Some(1), ..ChaosPlan::for_worker(0) }),
        round_deadline_ms: 5_000,
        ..process_net()
    };
    let started = Instant::now();
    let run = TesterSession::from_config(
        cfg(),
        EngineConfig {
            executor: Executor::Distributed { workers: 2 },
            net,
            ..EngineConfig::default()
        },
    )
    .unwrap()
    .test(&inst.graph)
    .unwrap();
    assert!(started.elapsed() < CHAOS_BUDGET);
    assert!(run.outcome.report.net.as_ref().unwrap().fallback.is_some());
}

#[test]
fn process_mode_typed_error_when_fallback_disabled() {
    let inst = eps_far_instance(24, 4, 0.15, 6);
    let net = NetOptions {
        kill_worker: Some((0, 1)),
        round_deadline_ms: 5_000,
        fallback: false,
        ..process_net()
    };
    let started = Instant::now();
    let err = TesterSession::from_config(
        cfg(),
        EngineConfig {
            executor: Executor::Distributed { workers: 2 },
            net,
            ..EngineConfig::default()
        },
    )
    .unwrap()
    .test(&inst.graph)
    .unwrap_err();
    assert!(started.elapsed() < CHAOS_BUDGET);
    let EngineError::Net(ne) = err else {
        panic!("expected a typed NetError, got {err:?}");
    };
    assert!(ne.to_string().contains("worker 0"), "{ne}");
}

// ---------------------------------------------------------------------------
// CLI smoke: the user-facing surface end to end.
// ---------------------------------------------------------------------------

#[test]
fn cli_distributed_verbose_smoke() {
    let out = Command::new(ckprobe())
        .args([
            "--graph",
            "eps-far:24:4:0.15:3",
            "--k",
            "4",
            "--eps",
            "0.15",
            "--repetitions",
            "1",
            "--workers",
            "2",
            "--verbose",
        ])
        .output()
        .expect("running ckprobe");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "planted instance rejects:\n{stdout}");
    assert!(stdout.contains("distributed (2 workers)"), "{stdout}");
    assert!(stdout.contains("net: 2 workers"), "{stdout}");
    assert!(stdout.contains("verdict: REJECT"), "{stdout}");
}

/// Runs `ckprobe args`; returns its exit status, its trial lines and
/// its net lines.
#[cfg(target_os = "linux")]
fn trial_and_net_lines(args: &[&str]) -> (Option<i32>, Vec<String>, Vec<String>) {
    let out = Command::new(ckprobe()).args(args).output().expect("running ckprobe");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let lines = |prefix: &str| -> Vec<String> {
        stdout.lines().filter(|l| l.trim_start().starts_with(prefix)).map(str::to_owned).collect()
    };
    (out.status.code(), lines("trial "), lines("net: "))
}

/// Makes this process the subreaper of its descendants: a process
/// orphaned by its parent's exit becomes this process's child (and
/// stays here as a zombie if nobody reaped it).
#[cfg(target_os = "linux")]
fn adopt_orphans() {
    use std::os::raw::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_CHILD_SUBREAPER: c_int = 36;
    // SAFETY: `prctl(PR_SET_CHILD_SUBREAPER, 1)` sets one attribute of
    // this process; it takes no pointer and touches no memory of ours.
    let rc = unsafe { prctl(PR_SET_CHILD_SUBREAPER, 1 as c_ulong) };
    assert_eq!(rc, 0, "PR_SET_CHILD_SUBREAPER failed");
}

/// SIGKILLs process `pid`.
#[cfg(target_os = "linux")]
fn kill_nine(pid: &str) {
    use std::os::raw::c_int;
    extern "C" {
        fn kill(pid: c_int, sig: c_int) -> c_int;
    }
    let pid: c_int = pid.parse().expect("a numeric pid");
    // SAFETY: `kill(2)` sends a signal; it takes no pointer and touches
    // no memory of ours.
    let rc = unsafe { kill(pid, 9) };
    assert_eq!(rc, 0, "kill -9 {pid} failed");
}

/// PIDs of this process's children, running or zombie.
#[cfg(target_os = "linux")]
fn children() -> Vec<String> {
    let me = std::process::id().to_string();
    let mut found = Vec::new();
    for entry in std::fs::read_dir("/proc").unwrap().flatten() {
        let stat = std::fs::read_to_string(entry.path().join("stat")).unwrap_or_default();
        // `pid (comm) state ppid …`: the ppid follows the last `)`.
        let ppid = stat.rsplit_once(") ").and_then(|(_, rest)| rest.split(' ').nth(1));
        if ppid == Some(me.as_str()) {
            found.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    found
}

/// Set in the child process a test re-runs itself in.
#[cfg(target_os = "linux")]
const ALONE: &str = "CK_CLI_TEST_ALONE";

/// True inside the child process that runs test `name` alone, where
/// every child process is the test's own. Outside it, re-runs `name`
/// in such a child, asserts that it passed, and returns false.
#[cfg(target_os = "linux")]
fn alone(name: &str) -> bool {
    if std::env::var_os(ALONE).is_some() {
        return true;
    }
    let out = Command::new(std::env::current_exe().unwrap())
        .args([name, "--exact"])
        .env(ALONE, "1")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("1 passed"), "the child ran {name}: {stdout}");
    false
}

#[cfg(target_os = "linux")]
#[test]
fn process_mode_dead_fleet_is_respawned_within_the_run() {
    if !alone("process_mode_dead_fleet_is_respawned_within_the_run") {
        return;
    }
    let inst = eps_far_instance(24, 4, 0.15, 7);
    let oracle = TesterSession::from_config(cfg(), EngineConfig::default())
        .unwrap()
        .test(&inst.graph)
        .unwrap();
    let mut session = TesterSession::from_config(
        cfg(),
        EngineConfig {
            executor: Executor::Distributed { workers: 2 },
            net: process_net(),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut job = |spawned: bool, what: &str| {
        let run = session.test(&inst.graph).unwrap();
        let net = run.outcome.report.net.clone().unwrap();
        assert!(net.completed_distributed(), "{what}: degraded: {:?}", net.fallback);
        assert_eq!(net.fleet_spawned, spawned, "{what}: fleet spawned");
        assert_eq!(run.outcome.verdicts, oracle.outcome.verdicts, "{what}");
        assert_eq!(run.outcome.report.per_round, oracle.outcome.report.per_round, "{what}");
    };
    job(true, "first job");
    // Both idle workers die between jobs. The next job finds the fleet
    // dead before `Ready` and respawns it inside its own connect
    // budget, instead of falling back to the oracle.
    let workers = children();
    assert_eq!(workers.len(), 2, "the fleet's two worker processes: {workers:?}");
    for pid in &workers {
        kill_nine(pid);
    }
    job(true, "job after the fleet died");
    job(false, "job on the respawned fleet");
    drop(session);
    assert_eq!(children(), Vec::<String>::new(), "the session reaps its workers");
}

#[cfg(target_os = "linux")]
#[test]
fn cli_trials_reuse_one_worker_fleet_and_reap_it() {
    // Adopting orphans changes the whole process, so the test runs
    // alone in a child process.
    if !alone("cli_trials_reuse_one_worker_fleet_and_reap_it") {
        return;
    }
    adopt_orphans();
    let common = [
        "--graph",
        "eps-far:40:4:0.15:9",
        "--k",
        "4",
        "--eps",
        "0.15",
        "--repetitions",
        "2",
        "--trials",
        "3",
        "--verbose",
    ];
    let (code, dist_trials, nets) =
        trial_and_net_lines(&[&common[..], &["--workers", "2"]].concat());
    // A worker ckprobe left running, or left for its parent to reap,
    // was re-parented to this process when ckprobe exited.
    assert_eq!(children(), Vec::<String>::new(), "processes outlived ckprobe unreaped");
    let (seq_code, seq_trials, _) = trial_and_net_lines(&common);
    assert_eq!(code, seq_code, "the distributed exit status is the oracle's");
    assert_eq!(dist_trials.len(), 3, "{dist_trials:?}");
    assert_eq!(dist_trials, seq_trials, "every trial matches the sequential oracle");
    // Trial 0 spawns the `net-worker` processes; trials 1 and 2 reuse them.
    assert_eq!(nets.len(), 3, "{nets:?}");
    assert!(nets[0].contains("net: 2 workers (fleet spawned)"), "{nets:?}");
    for net in &nets[1..] {
        assert!(net.contains("net: 2 workers (fleet reused)"), "{nets:?}");
    }
}

#[test]
fn cli_verbose_parallel_smoke() {
    let out = Command::new(ckprobe())
        .args([
            "--graph",
            "free:20:4",
            "--k",
            "4",
            "--eps",
            "0.2",
            "--repetitions",
            "1",
            "--verbose",
        ])
        .output()
        .expect("running ckprobe");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "free instance accepts:\n{stdout}");
    // Without `--workers` the session runs the default engine config:
    // the parallel executor, and the header says so.
    assert!(stdout.contains("executor parallel"), "{stdout}");
    assert!(stdout.contains("faults: none"), "{stdout}");
    assert!(stdout.contains("verdict: accept"), "{stdout}");
}

#[test]
fn cli_net_worker_usage_error() {
    let out = Command::new(ckprobe())
        .args(["net-worker", "127.0.0.1:1"])
        .output()
        .expect("running ckprobe");
    assert_eq!(out.status.code(), Some(2), "missing index is a usage error");
    // A worker pointed at a dead coordinator exits with the worker
    // failure status after bounded connect retries — never hangs.
    let started = Instant::now();
    let out = Command::new(ckprobe())
        .args(["net-worker", "127.0.0.1:9", "0"])
        .output()
        .expect("running ckprobe");
    assert!(started.elapsed() < CHAOS_BUDGET);
    assert_eq!(out.status.code(), Some(3), "connect failure is typed");
}
