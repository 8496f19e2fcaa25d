"""One execution of one workload, in a fresh process started by ``run.py``.

Usage: ``worker.py <workload> <seed> <rep> <workdir> <spawned_at> <mode>``.

``mode`` is ``run`` (set up, execute, check), ``trace`` (the same, with the
tracer installed after the imports) or ``setup`` (set up only, one more
sample of the set-up time).  ``spawned_at`` is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide), so the set-up time counts the interpreter start and every
import.  The last line of standard output is a JSON report.  The worker
exits non-zero, without a report, when agefire cannot be imported from the
checkout's ``src`` directory.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_agefire():
    if not (SRC / "agefire" / "__init__.py").is_file():
        sys.exit(f"worker: no agefire package under {SRC}")
    sys.path.insert(0, str(SRC))
    import agefire
    if SRC.resolve() not in Path(agefire.__file__).resolve().parents:
        sys.exit(f"worker: imported agefire from {agefire.__file__}, not {SRC}")


def main(argv):
    name, seed, rep, workdir, spawned_at, mode = argv
    seed, rep, spawned_at = int(seed), int(rep), float(spawned_at)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _import_agefire()
    except ImportError as exc:
        sys.exit(f"worker: cannot import agefire: {exc}")
    import numpy as np
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as tracing
    from workloads import WORKLOADS, Result

    workload = WORKLOADS[name]
    tracer = tracing.Tracer() if mode == "trace" else None
    if tracer is not None:
        tracing.install(tracer)
    setup_s = None
    outputs = error = None
    start = time.perf_counter()
    try:
        inputs = workload.setup(seed, rep, workdir)
        setup_s = time.monotonic() - spawned_at
        if mode != "setup":
            start = time.perf_counter()
            outputs = workload.execute(inputs)
    except Exception as exc:  # an AccuracyError or any other failed operation
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start
    if setup_s is None:
        setup_s = time.monotonic() - spawned_at
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        result = Result(attempted=1, failed=1, errors=[error])
    elif mode == "setup":
        result = Result(attempted=0)
    else:
        result = workload.check(inputs, outputs)

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "sizes": workload.sizes(seed),
        "result": vars(result),
    }
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
