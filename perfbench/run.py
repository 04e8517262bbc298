#!/usr/bin/env python3
"""Build and run the ck-repro benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tester-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --self-check              # tiny sizes, seconds long

One workload: builds `perfbench` (release, offline) against the
repository's crates, runs it, and passes its output through. The last
stdout line is the result object; the line before it records the
environment (cores, parallel threads, commit, seed, jobs).

`--workload all` runs the three workloads one after another (each in its
own process, so `peak_rss_mb` is that workload's own) and prints every
end-to-end figure as a table: the wall-clock ones from the environment
line, the result metrics, `failed_frac` and the sample count.

`--self-check` runs every workload at tiny sizes with tracing off and
on, and fails unless every run is correct, every metric named in
`BENCHMARK.json` is printed (and, untraced, the wall-clock figures and
`failed_frac`), the spans were written, and the per-layer counts that
must repeat exactly do.

The default workload seed is 1; the held-out seed for re-checking a
claim is 7 (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["tester-mix", "dist-small", "serve-closed"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
# A run must end well inside the caller's 180 s limit.
RUN_TIMEOUT_S = 170
# Wall-clock figures every untraced run prints on its environment line.
WALL = ["jobs_per_s", "job_p50_ms", "job_p90_ms", "setup_wall_s"]
# Counts that depend only on the seed, so two runs must agree exactly.
EXACT = ("tester.rounds.", "tester.messages.", "tester.bits.", "tester.max_link_bits.",
         "tester.max_sent_seqs.", "dist.frames_routed", "dist.frame_bytes", "dist.barriers",
         "serve.submit_bytes", "serve.result_bytes")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the benchmark binary; returns its path or None."""
    for need in ("Cargo.toml", "crates", "shims"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"{need} not found: run from the root of a ck-repro checkout")
            return None
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if f.endswith((".rs", ".toml", ".lock")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def spans_path(workload, seed):
    return os.path.join(target_dir(), "perfbench-spans", f"{workload}-seed{seed}.jsonl")


def run(binary, workload, seed, seconds, trace, tiny, rev, capture):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", rev]
    if trace:
        cmd += ["--spans", spans_path(workload, seed)]
    if tiny:
        cmd.append("--tiny")
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} exceeded {RUN_TIMEOUT_S} s")
        return None


def parse(proc):
    """(env line, result object) of a captured run, or None."""
    if proc is None or proc.returncode != 0:
        return None
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        return json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_all(binary, args, rev):
    names = [m["name"] for m in spec()["end_to_end"]]
    rows, ok = [], True
    for w in WORKLOADS:
        got = parse(run(binary, w, args.seed, args.seconds, 0, args.tiny, rev, True))
        if got is None:
            log(f"{w} failed")
            ok = False
            continue
        env, res = got
        ok &= res["correct"]
        m = dict(res["metrics"], **env["wall"])
        cells = [f"{m[n]['value']:.4g} {m[n]['unit']}" for n in WALL + names]
        rows.append([w] + cells + [f"{env['failed_frac']:.4g}", str(env["samples"])])
    head = ["workload"] + WALL + names + ["failed_frac", "samples"]
    widths = [max(len(r[i]) for r in rows + [head]) for i in range(len(head))]
    for r in [head] + rows:
        print("  ".join(c.ljust(wd) for c, wd in zip(r, widths)))
    return 0 if ok else 1


def self_check(binary, rev):
    bench = spec()
    want = {0: {m["name"] for m in bench["end_to_end"]},
            1: {m["name"] for m in bench["per_layer"]}}
    problems, exact = [], {}
    # Untraced at the default and the held-out seed, traced at the default.
    for w in WORKLOADS:
        for trace, seed in ((0, DEFAULT_SEED), (0, HELD_OUT_SEED), (1, DEFAULT_SEED)):
            got = parse(run(binary, w, seed, 1, trace, True, rev, True))
            tag = f"{w} trace={trace} seed={seed}"
            if got is None:
                problems.append(f"{tag}: run failed")
                continue
            env, res = got
            have = set(res["metrics"])
            if not res["correct"] or res["failed"] or env.get("failed_frac") != 0:
                problems.append(f"{tag}: wrong or failed jobs")
            if not trace and set(env.get("wall", {})) != set(WALL):
                problems.append(f"{tag}: wall-clock figures missing from the environment line")
            if have != want[trace]:
                problems.append(f"{tag}: missing {sorted(want[trace] - have)}, "
                                f"unexpected {sorted(have - want[trace])}")
            if trace:
                path = spans_path(w, DEFAULT_SEED)
                if not os.path.isfile(path) or os.path.getsize(path) == 0:
                    problems.append(f"{tag}: no spans at {path}")
                for name, v in res["metrics"].items():
                    if name.startswith(EXACT):
                        exact.setdefault(name, set()).add(v["value"])
            log(f"{tag}: ok")
    problems += [f"{n} differs between runs: {sorted(v)}" for n, v in exact.items() if len(v) > 1]
    for p in problems:
        log(p)
    log("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="seconds-long run at tiny sizes")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload or --self-check is required")
    binary = build()
    if binary is None:
        return 2
    rev = commit()
    if args.self_check:
        return self_check(binary, rev)
    if args.workload == "all":
        return run_all(binary, args, rev)
    proc = run(binary, args.workload, args.seed, args.seconds, args.trace, args.tiny, rev, False)
    return 1 if proc is None else proc.returncode


if __name__ == "__main__":
    sys.exit(main())
