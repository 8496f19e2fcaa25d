"""agefire benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
predictions of which layer moves which metric are in ``perfbench/README.md``.

Each run is a closed loop with one client: it starts one worker process
at a time (``worker.py``, one thread, BLAS pinned to one thread), each
doing one set-up and one execution of the workload, or only the set-up,
until ``--seconds`` are used, and reports medians over the executions.  ``--trace 0`` prints
the end-to-end metrics.  ``--trace 1`` alternates untraced and traced
executions and prints the per-layer metrics of the traced ones, plus the
traced over untraced wall time.

Standard output ends with two JSON lines: a report (machine facts, input
sizes, per-execution samples, output digests, the fail ratio) and the
result, ``{"correct", "attempted", "failed", "metrics"}``.  Without the
agefire sources under ``src/`` the benchmark exits with code 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: a run ends well inside 180 s even when the machine is slower than expected
HARD_LIMIT_S = 165.0
#: untraced executions per untraced run, at least
MIN_REPS = 3
#: share of an untraced run spent on set-up-only samples, at most
SETUP_SHARE = 0.15


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "cpu_model": None, "l2": None, "l3": None,
             "git_revision": git_revision()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            facts[f"l{level}"] = size
    return facts


def git_revision() -> str | None:
    """The commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def run_worker(workload, seed, rep, workdir, mode, deadline) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
            str(rep), str(workdir), repr(spawned), mode]
    try:
        # run() kills the worker and waits for it when the timeout expires
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"rep {rep} did not finish by the time limit") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["mode"] = mode
    report["duration_s"] = time.monotonic() - spawned
    return report


def run_reps(args) -> list[dict]:
    """Workers until ``--seconds`` are used (closed loop, one client).

    Untraced runs add set-up-only workers while they cost at most
    ``SETUP_SHARE`` of the elapsed time, so that ``setup_s`` has more
    samples than there are executions.  Traced runs alternate untraced and
    traced executions.
    """
    started = time.monotonic()
    deadline = started + min(args.seconds, HARD_LIMIT_S)
    work = ROOT / ".perfbench-work" / str(os.getpid())
    reps: list[dict] = []

    def spawn(mode):
        rep = run_worker(args.workload, args.seed, len(reps),
                         work / f"rep{len(reps)}", mode, started + HARD_LIMIT_S)
        reps.append(rep)

    def durations(mode):
        return [r["duration_s"] for r in reps if r["mode"] == mode]

    def expected(*modes):
        return sum(statistics.median(durations(m) or [0.0]) for m in modes)

    try:
        while True:
            if args.trace:
                mode = "trace" if len(durations("run")) > len(durations("trace")) \
                    else "run"
            else:
                mode = "run"
                if sum(durations("setup")) <= SETUP_SHARE * (time.monotonic() - started) \
                        and time.monotonic() + expected("setup", "run") <= deadline:
                    spawn("setup")
            spawn(mode)
            if args.trace:
                enough = bool(durations("run")) and bool(durations("trace"))
                upcoming = "trace" if mode == "run" else "run"
            else:
                enough = len(durations("run")) >= MIN_REPS
                upcoming = "run"
            if enough and time.monotonic() + (expected(upcoming) or expected(mode)) > deadline:
                return reps
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone


def end_to_end(untraced: list[dict], setups: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {
        "wall_s": med([r["wall_s"] for r in untraced]),
        "setup_s": med([r["setup_s"] for r in setups]),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in untraced]),
        "steps_per_s": med([r["result"]["steps"] / r["wall_s"] for r in untraced]),
        "sim_time_per_s": med([r["result"]["sim_time"] / r["wall_s"]
                               for r in untraced]),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["evolution.lambda_drift_max"] = statistics.median(
        r["result"]["lambda_drift_max"] for r in traced)
    out["cli.bytes_written"] = statistics.median(
        r["result"]["bytes_written"] for r in traced)
    out["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "agefire" / "__init__.py").is_file():
        print(f"no agefire sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        reps = run_reps(args)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    untraced = [r for r in reps if r["mode"] == "run"]
    traced = [r for r in reps if r["mode"] == "trace"]
    setups = [r for r in reps if r["mode"] != "trace"]
    if args.trace:
        values, declared = per_layer(untraced, traced), spec["per_layer"]
    else:
        values, declared = end_to_end(untraced, setups), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    attempted = sum(r["result"]["attempted"] for r in reps)
    failed = sum(r["result"]["failed"] for r in reps)
    first = untraced[0]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": dict(machine_facts(), numpy=first["numpy"]),
        "inputs": first["sizes"],
        "executions": {"untraced": len(untraced), "traced": len(traced),
                       "setup_only": len(setups) - len(untraced)},
        "samples": {"wall_s": [r["wall_s"] for r in untraced],
                    "setup_s": [r["setup_s"] for r in setups],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in untraced]},
        "fail_ratio": failed / attempted,
        "lambda_drift_max": first["result"]["lambda_drift_max"],
        "digest_of_first_execution": first["result"]["digest"],
        "errors": [e for r in reps for e in r["result"]["errors"]][:20],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
