"""The benchmark's three workloads.

Each workload has three parts, run by ``worker.py`` in a fresh process:

- ``setup(seed, rep, workdir)`` makes the inputs from the seed;
- ``execute(inputs)`` is the timed call into agefire;
- ``check(inputs, outputs)`` verifies the outputs and returns a ``Result``.

Operations that fail (an ``AccuracyError``, a non-zero CLI exit, a failed
output check) are counted in the result; they never abort the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from agefire import cli, evolution as ev, measures as ms, mfffa

#: the stationary start used by the solver and fire-graph workloads
FP_ATOMS, FP_TRUNCATION = 2000, 40.0


@dataclass
class Result:
    """Outcome of one execution: operation counts, checks, work done."""

    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    steps: float = 0.0       # integrator steps plus simulator events
    sim_time: float = 0.0    # model time advanced
    lambda_drift_max: float = 0.0
    bytes_written: int = 0
    digest: str = ""


def _expect(result: Result, ok: bool, message: str) -> bool:
    if not ok:
        result.errors.append(message)
    return ok


def _derived_seeds(seed: int, rep: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, rep]).generate_state(count)]


def _expected_events(n: int, lambda_n: float, t_max: float) -> float:
    """Mean event count of ``mfffa.run``: edge candidates at total rate
    (n - 1) / 2 plus lightning at total rate n * lambda_n."""
    return t_max * (0.5 * (n - 1) + n * lambda_n)


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------

class StationarySolve:
    """Criterion 3's dt = 1e-3 leg: the solver at a steady 2000-3000 atoms."""

    name = "stationary-solve"
    T_MAX, DT = 1.0, 1e-3

    def sizes(self, seed):
        return {"atoms": FP_ATOMS, "truncation": FP_TRUNCATION,
                "t_max": self.T_MAX, "dt": self.DT, "seed": seed,
                "seed_note": "input does not depend on the seed"}

    def setup(self, seed, rep, workdir):
        return ms.fixed_point_measure(FP_ATOMS, FP_TRUNCATION)

    def execute(self, pi0):
        opts = ev.EvolveOptions(dt=self.DT,
                                checkpoints=np.linspace(0.0, self.T_MAX, 11))
        return ev.solve(pi0, self.T_MAX, opts)

    def check(self, pi0, traj):
        result = Result(attempted=1)
        final = traj.states[-1]
        defect = max(s.mass_defect for s in traj.states)
        dist = ms.w1(final.pi, pi0)
        ok = _expect(result, defect <= 1e-12, f"mass defect {defect:.3e} > 1e-12")
        ok &= _expect(result, dist <= 5e-3, f"W1(pi_1, pi_0) = {dist:.3e} > 5e-3")
        ok &= _expect(result, abs(final.phi - 0.5) <= 2e-3,
                      f"|phi - 0.5| = {abs(final.phi - 0.5):.3e} > 2e-3")
        if not ok:
            result.failed += 1
        result.steps = round(self.T_MAX / self.DT)
        result.sim_time = self.T_MAX
        result.lambda_drift_max = max(s.lambda_drift for s in traj.states)
        result.digest = _digest(final.pi.locations.tobytes(),
                                final.pi.masses.tobytes())
        return result


class FireGraph:
    """The fire graph at n = 128000 from i.i.d. stationary ages: critical
    clusters throughout the run, burn rate near 1/2."""

    name = "fire-graph"
    N, T_MAX, CHECKPOINTS = 128_000, 3.0, (1.0, 2.0, 3.0)

    def sizes(self, seed):
        return {"atoms": FP_ATOMS, "truncation": FP_TRUNCATION, "n": self.N,
                "lambda_n": self.N ** -0.5, "t_max": self.T_MAX,
                "checkpoints": list(self.CHECKPOINTS), "seed": seed,
                "irg_method": "sorted"}

    def setup(self, seed, rep, workdir):
        ages_seed, graph_seed = _derived_seeds(seed, rep, 2)
        pi = ms.fixed_point_measure(FP_ATOMS, FP_TRUNCATION)
        ages = np.random.default_rng(ages_seed).choice(
            pi.locations, size=self.N, p=pi.masses)
        graph = mfffa.sample_irg(ages, seed=graph_seed, method="sorted")
        return ages, graph

    def execute(self, inputs):
        ages, graph = inputs
        return mfffa.run(graph, self.N ** -0.5, self.T_MAX, list(self.CHECKPOINTS))

    def check(self, inputs, records):
        ages, graph = inputs
        result = Result(attempted=1)
        ok = _expect(result, [r.t for r in records] == list(self.CHECKPOINTS),
                     "records do not match the checkpoints")
        for r in records:
            covered = sum(k * c for k, c in r.cluster_hist.items())
            ok &= _expect(result, covered == self.N,
                          f"t={r.t:g}: cluster histogram covers {covered} "
                          f"of {self.N} vertices")
            locs = r.age_measure.locations
            ok &= _expect(result, locs[0] >= 0.0 and locs[-1] <= r.t + ages.max(),
                          f"t={r.t:g}: ages outside [0, t + max initial age]")
        # per vertex at t_max: burned vertices are at most t_max old, the
        # others kept their initial age plus t_max
        final = graph.ages()
        ok &= _expect(result, bool(np.all((final >= 0.0) & (
            (final <= self.T_MAX) | (final == self.T_MAX + ages)))),
            "a final age is neither <= t nor initial age + t")
        # the burn count from t = 0: prepend a zero record at the start
        start = dataclasses.replace(records[0], t=0.0, burn_events=0,
                                    burned_vertices=0)
        rate = mfffa.burn_rate_estimate([start, *records], (0.0, self.T_MAX))
        ok &= _expect(result, abs(rate - 0.5) <= 0.1,
                      f"burn rate over [0, {self.T_MAX:g}] = {rate:.4f}, not 0.5 +- 0.1")
        if not ok:
            result.failed += 1
        result.steps = _expected_events(self.N, self.N ** -0.5, self.T_MAX)
        result.sim_time = self.T_MAX
        chunks = []
        for r in records:
            chunks.append(repr((r.t, r.burn_events, r.burned_vertices,
                                r.phi_hat_window, sorted(r.cluster_hist.items())))
                          .encode())
            chunks += [r.age_measure.locations.tobytes(),
                       r.age_measure.masses.tobytes()]
        result.digest = _digest(*chunks)
        return result


class CliSession:
    """One process runs solve, simulate, compare and validate through
    ``agefire.cli.main``: gelation, small growing measures, cold eigen-solves,
    W1 calls, CSV writes and reads, config handling."""

    name = "cli-session"
    SIM_N, T_MAX, DT, SEEDS = 16_000, 1.5, 1e-3, 4
    CHECKPOINTS = "0.5,1,1.5"
    #: nominal critical steps, (t_max - t_gel) / dt: solve gels at t = 1 and
    #: steps to 1.5; the evolution suite of ``validate`` steps 0.25 from the
    #: stationary profile
    SOLVE_STEPS, VALIDATE_STEPS, VALIDATE_T = 500, 250, 0.25

    def sizes(self, seed):
        return {"init": "dirac:0", "t_max": self.T_MAX, "dt": self.DT,
                "n": self.SIM_N, "sim_seeds": self.SEEDS,
                "checkpoints": self.CHECKPOINTS, "seed": seed}

    def setup(self, seed, rep, workdir):
        config = workdir / "simulate.json"
        config.write_text(json.dumps(
            {"seeds": _derived_seeds(seed, rep, self.SEEDS)}) + "\n")
        return workdir, config

    def commands(self, workdir, config):
        solve, sim, cmp_ = (str(workdir / d) for d in ("solve", "sim", "compare"))
        return [
            ["solve", "--init", "dirac:0", "--t-max", str(self.T_MAX),
             "--dt", str(self.DT), "--checkpoints", self.CHECKPOINTS, "--out", solve],
            ["simulate", "--config", str(config), "--n", str(self.SIM_N),
             "--t-max", str(self.T_MAX), "--checkpoints", self.CHECKPOINTS,
             "--out", sim],
            ["compare", "--traj-dir", solve, "--sim-dir", sim, "--out", cmp_],
            ["validate", "all"],
        ]

    def execute(self, inputs):
        outcomes = []
        for argv in self.commands(*inputs):
            text = io.StringIO()
            try:
                with contextlib.redirect_stdout(text):
                    code = cli.main(argv)
            except Exception as exc:  # a traceback is a failed command
                code = f"{type(exc).__name__}: {exc}"
            outcomes.append((argv[0], code, text.getvalue()))
        return outcomes

    def check(self, inputs, outcomes):
        workdir, _ = inputs
        result = Result(attempted=len(outcomes))
        for command, code, text in outcomes:
            ok = _expect(result, code == 0, f"{command} exited with {code}")
            if command == "validate":
                lines = text.splitlines()
                failed = [ln for ln in lines if ln.startswith("[FAIL]")]
                passed = [ln for ln in lines if ln.startswith("[PASS]")]
                ok &= _expect(result, not failed and bool(passed),
                              f"validate: {len(failed)} checks failed, "
                              f"{len(passed)} passed")
            if command == "compare":
                table = workdir / "compare" / "comparison.csv"
                rows = table.read_text().strip().splitlines()[1:] \
                    if table.exists() else []
                ok &= _expect(result, len(rows) == 3,
                              f"comparison.csv has {len(rows)} rows, not 3")
            if not ok:
                result.failed += 1
        events = self.SEEDS * _expected_events(
            self.SIM_N, self.SIM_N ** -0.5, self.T_MAX)
        result.steps = self.SOLVE_STEPS + self.VALIDATE_STEPS + events
        result.sim_time = self.T_MAX * (1 + self.SEEDS) + self.VALIDATE_T
        trajectory = workdir / "solve" / "trajectory.csv"
        if trajectory.exists():
            result.lambda_drift_max = _max_critical_drift(trajectory)
        files = [p for d in ("solve", "sim", "compare")
                 for p in (workdir / d).rglob("*") if p.is_file()]
        result.bytes_written = sum(p.stat().st_size for p in files)
        result.digest = _digest(*(p.read_bytes() for p in sorted(files)
                                  if p.name in ("trajectory.csv", "comparison.csv")))
        return result


def _max_critical_drift(path: Path) -> float:
    """max |lambda - 1| over the critical rows (phi > 0) of trajectory.csv."""
    rows = path.read_text().strip().splitlines()
    header = rows[0].split(",")
    lam, phi = header.index("lambda"), header.index("phi")
    values = [r.split(",") for r in rows[1:]]
    return max((abs(float(v[lam]) - 1.0) for v in values if float(v[phi]) > 0),
               default=0.0)


WORKLOADS = {w.name: w for w in (StationarySolve(), FireGraph(), CliSession())}
