#!/usr/bin/env python3
"""End-to-end benchmark of the satiot reproduction.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the worker (`perfbench/`, a cargo
package of its own) in release mode, then runs repetitions of the
workload until `--seconds` have passed. Each repetition is a fresh
worker process, so the process-wide pass cache, grid store and peak RSS
start empty every time; every `SATIOT_*` variable is removed from its
environment and its thread count is set to the cores this process may
use.

With `--trace 0` the repetitions are untraced and the result carries the
end-to-end metrics of `BENCHMARK.json`. With `--trace 1` each repetition
is a pair, one untraced and one traced worker, and the result carries
the per-layer metrics; a layer the workload never calls reads 0.

Output on stdout: one JSON line with the host record and the median and
quartiles of every metric, then, as the last line, the result:
`{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
`attempted` counts the checked operations of every repetition and
`failed` those whose output check failed; the reasons go to stderr.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 150
# Per-layer counters that count work and must repeat exactly for a
# seed; the record flags whether they did.
COUNTS = (
    "orbit.sgp4.propagations",
    "orbit.ephemeris.grid_samples",
    "orbit.ephemeris.grids_built",
    "orbit.cull.pairs_considered",
    "orbit.visibility.margins",
    "orbit.visibility.events",
    "orbit.pass.passes_predicted",
    "core.passive.beacons_emitted",
    "channel.budget.samples",
    "sim.engine.events_processed",
)


def load_contract():
    """The workloads and metrics the benchmark promises, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return workloads, end_to_end, per_layer


def quartiles(values):
    """(q1, median, q3) of `values`, the quartiles as
    `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarise(values, unit):
    """Median, quartiles and sample count of one metric, and whether it
    read the same in every repetition (`None` with one repetition)."""
    q1, med, q3 = quartiles(values)
    exact = len(set(values)) == 1 if len(values) > 1 else None
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit, "exact": exact}


def end_to_end_samples(reps):
    """Per-repetition end-to-end metrics of untraced worker results."""
    return {
        "setup_s": [r["setup_s"] for r in reps],
        "wall_s": [r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "jobs_per_s": [r["jobs"] / r["wall_s"] for r in reps],
    }


def per_layer_samples(pairs, names):
    """Per-repetition per-layer metrics of (untraced, traced) worker
    result pairs. A layer the workload never calls reads 0."""
    traced = [t for _, t in pairs]
    out = {name: [t["layers"].get(name, 0.0) for t in traced] for name in names}
    # Set-up plus measured run: the untraced sweep_seeds run counts its
    # cold job as set-up, the traced one peels it inside the measured run.
    total = lambda r: r["setup_s"] + r["wall_s"]
    untraced = statistics.median(total(u) for u, _ in pairs)
    out["obs.trace_overhead"] = [total(t) / untraced for t in traced]
    attempted = sum(r["ops"] for pair in pairs for r in pair)
    failed = sum(r["ops_failed"] for pair in pairs for r in pair)
    out["fail_ratio"] = [failed / attempted]
    return out


def result(samples, units, workers):
    """The host-and-spread record and the result line of one run."""
    summary = {name: summarise(samples[name], unit) for name, unit in units.items()}
    attempted = sum(w["ops"] for w in workers)
    failed = sum(w["ops_failed"] for w in workers)
    metrics = {name: {"value": s["median"], "unit": s["unit"]} for name, s in summary.items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return summary, line


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the worker; return the path of its executable."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except FileNotFoundError:
        fail("cargo is not installed")
    if done.returncode != 0:
        fail(f"building the worker failed (exit {done.returncode})")
    return target, os.path.join(target, "release", "perfbench")


def worker(binary, scratch_root, workload, seed, threads, traced):
    """Run one repetition in a fresh process; return its parsed result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SATIOT_")}
    scratch = tempfile.mkdtemp(prefix="rep-", dir=scratch_root)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--threads", str(threads),
           "--scratch", scratch]
    if traced:
        cmd.append("--traced")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} worker ran past {WORKER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} worker exited {done.returncode}")
    rep = json.loads(lines[-1])
    for why in rep["failures"]:
        print(f"perfbench: {workload} seed {seed}: {why}", file=sys.stderr)
    if "wall_s" not in rep:
        fail(f"{workload} worker could not run the workload")
    return rep


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main():
    workloads, end_to_end, per_layer = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    target, binary = build()
    threads = len(os.sched_getaffinity(0))
    scratch_root = os.path.join(target, "perfbench-scratch")
    os.makedirs(scratch_root, exist_ok=True)
    run = lambda traced: worker(binary, scratch_root, args.workload, args.seed, threads, traced)

    # Two traced repetitions at least, so the record can tell whether the
    # work counters repeated exactly.
    min_reps = 2 if args.trace else 1
    reps = []
    start = time.monotonic()
    while len(reps) < min_reps or time.monotonic() - start < args.seconds:
        reps.append((run(False), run(True)) if args.trace else run(False))

    if args.trace:
        samples = per_layer_samples(reps, per_layer)
        units = per_layer
        workers = [r for pair in reps for r in pair]
    else:
        samples = end_to_end_samples(reps)
        units = end_to_end
        workers = reps
    summary, line = result(samples, units, workers)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(reps),
        "threads": threads,
        "host": {"nproc": os.cpu_count(), "os": platform.platform()},
        "commit": git_commit(),
        "metrics": summary,
        "counts_repeat_exactly": {
            name: summary[name]["exact"] for name in COUNTS if name in summary
        },
    }
    print(json.dumps({"record": record}))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
