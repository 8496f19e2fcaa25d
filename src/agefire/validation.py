"""Invariant suites runnable from the CLI (``agefire validate <suite>``).

Each suite draws seeded random measures, exercises one family of
mathematical invariants, and returns per-check results with the measured
slack.  The pytest suite calls the same functions, so the CLI report and
the tests cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from . import measures as ms
from . import spectral as sp
from . import evolution as ev


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float      # worst margin over the cases; negative means failed
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.name}: worst margin {self.worst:.3e}{extra}"


def random_probability_measure(rng: np.random.Generator, max_atoms: int = 50,
                               min_atoms: int = 1, zero_atom_prob: float = 0.3
                               ) -> ms.ProbabilityAgeMeasure:
    """Random atomic probability measure with moderate ages and masses."""
    n = int(rng.integers(min_atoms, max_atoms + 1))
    if rng.random() < 0.5:
        locs = rng.uniform(0.02, 10.0, size=n)
    else:
        locs = rng.exponential(rng.uniform(0.5, 3.0), size=n) + 0.02
    mass = rng.uniform(0.05, 1.0, size=n)
    if rng.random() < zero_atom_prob:
        locs = np.append(locs, 0.0)
        mass = np.append(mass, rng.uniform(0.05, 1.0))
    mass /= mass.sum()
    return ms.ProbabilityAgeMeasure(locs, mass)


def _collect(name, margins, tol=0.0, detail=""):
    worst = float(min(margins)) if len(margins) else np.inf
    return CheckResult(name, worst >= -tol, worst, detail)


# ---------------------------------------------------------------------------

def suite_metric(seed: int = 2024, cases: int = 200) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    sym, tri, ident, mean_id, transl, tail_mono = [], [], [], [], [], []
    for _ in range(cases):
        a = random_probability_measure(rng)
        b = random_probability_measure(rng)
        c = random_probability_measure(rng)
        dab, dba = ms.w1(a, b), ms.w1(b, a)
        sym.append(1e-12 - abs(dab - dba))
        tri.append(ms.w1(a, c) * -1 + dab + ms.w1(b, c) + 1e-12)
        ident.append(1e-15 - ms.w1(a, a))
        mean_id.append(1e-12 * max(1.0, a.first_moment())
                       - abs(a.first_moment() - ms.w1(a, ms.dirac(0.0))))
        r = float(rng.uniform(0.0, 3.0))
        transl.append(1e-12 - abs(ms.w1(a.translate(r), b.translate(r)) - dab))
        transl.append(1e-12 * max(1.0, r) - abs(ms.w1(a, a.translate(r)) - r))
        rs = np.sort(rng.uniform(0.0, 10.0, size=5))
        tails = [a.tail_first_moment(r) for r in rs]
        tail_mono.append(1e-15 - max(np.diff(tails), default=0.0))
        tail_mono.append(1e-12 - abs(a.tail_first_moment(0.0) - a.first_moment()))
    return [
        _collect("w1 symmetry", sym),
        _collect("w1 triangle inequality", tri),
        _collect("w1 identity of indiscernibles", ident),
        _collect("mean identity: first moment = w1(pi, dirac(0))", mean_id),
        _collect("w1 translation invariance and shift distance", transl),
        _collect("tail first moment monotone, matches mean at 0", tail_mono),
    ]


def suite_spectral(seed: int = 2024, cases: int = 100,
                   lipschitz_pairs: int = 100,
                   trace_cases: int = 30) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    resid, norm, shape, slope_bd, phi_bd, order, mono, rebal = ([] for _ in range(8))
    for _ in range(cases):
        m = random_probability_measure(rng, max_atoms=40)
        pair = sp.leading_pair(m)
        resid.append(1e-10 * pair.lam - pair.residual)
        norm.append(1e-12 - abs(float(pair.theta @ m.masses) - 1.0))
        # concave nondecreasing extension: kink slopes nonincreasing and >= 0
        grid = np.concatenate((m.locations[m.locations > 0], [m.locations.max() + 1.0]))
        vals = sp.theta_at(pair, np.concatenate(([0.0], grid)))
        slopes = np.diff(vals) / np.diff(np.concatenate(([0.0], grid)))
        shape.append(min(1e-10 - np.max(np.diff(slopes), initial=-np.inf),
                         float(np.min(slopes)) + 1e-12))
        pos = m.locations > 0
        slope_bd.append(float(np.min(m.locations[pos] / pair.lam
                                     - pair.theta[pos])) + 1e-9)
        p = sp.phi_of_pair(pair)
        phi_bd.append(min(p, 1.0 + 1e-12 - p))
        lo = sp.lambda_lower_bound(m)
        mean_bd, hs_bd = sp.lambda_upper_bounds(m)
        tol = 1e-9 * max(1.0, pair.lam)
        order.append(min(pair.lam - lo + tol, hs_bd - pair.lam + tol,
                         mean_bd - hs_bd + tol))
        # kernel entries are pointwise nondecreasing in each location
        k = int(rng.integers(m.n_atoms))
        bumped = ms.AgeMeasure(
            np.where(np.arange(m.n_atoms) == k,
                     m.locations + rng.uniform(0.1, 2.0), m.locations),
            m.masses)
        mono.append(sp.leading_pair(bumped).lam - pair.lam + 1e-12)
        # extra mass at age 0 leaves the eigenpair of the positive part alone
        padded = ms.AgeMeasure(np.append(m.locations, 0.0),
                               np.append(m.masses, 0.5))
        ppair = sp.leading_pair(padded)
        rebal.append(1e-11 - abs(ppair.lam - pair.lam))
        th_a = pair.theta[m.locations > 0]
        th_b = ppair.theta[ppair.source.locations > 0]
        rebal.append(1e-9 - float(np.max(np.abs(th_a - th_b))))
    lip = []
    for _ in range(lipschitz_pairs):
        a = random_probability_measure(rng, max_atoms=30)
        b = random_probability_measure(rng, max_atoms=30)
        la, lb = sp.leading_pair(a).lam, sp.leading_pair(b).lam
        lip.append(2.0 * ms.w1(a, b) + 1e-9 - abs(la - lb))
    trace = []
    for _ in range(trace_cases):
        m = random_probability_measure(rng, max_atoms=50)
        pos = m.locations > 0
        x, w = m.locations[pos], m.masses[pos]
        sym = np.sqrt(w)[:, None] * np.minimum.outer(x, x) * np.sqrt(w)[None, :]
        trace.append(1e-9 - abs(np.linalg.eigvalsh(sym).sum() - m.first_moment()))
    return [
        _collect("eigen residual <= 1e-10 * lambda", resid),
        _collect("theta normalization", norm),
        _collect("theta extension concave and nondecreasing", shape),
        _collect("theta(y) <= y / lambda", slope_bd),
        _collect("burning rate in (0, 1]", phi_bd),
        _collect("bound ordering: lower <= lambda <= HS <= mean", order),
        _collect("lambda monotone under moving one atom right", mono),
        _collect("extra mass at age 0 leaves the eigenpair unchanged", rebal),
        _collect("lambda is 2-Lipschitz in W1", lip),
        _collect("trace identity: sum of eigenvalues = mean", trace),
    ]


def suite_roundtrip(seed: int = 2024, cases: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    errs = []
    for _ in range(cases):
        m = random_probability_measure(rng, max_atoms=50, min_atoms=2,
                                       zero_atom_prob=0.0)
        pair = sp.leading_pair(m)
        rebuilt = sp.theta_to_pi(pair.lam, sp.pair_to_kinks(pair))
        errs.append(1e-8 - ms.w1(rebuilt, m))
    return [_collect("theta -> measure -> theta round trip (W1 <= 1e-8)", errs)]


def suite_evolution() -> list[CheckResult]:
    out: list[CheckResult] = []
    pi0 = ms.fixed_point_measure(400, 30.0)
    traj = ev.solve(pi0, 0.25, ev.EvolveOptions(
        dt=1e-3, checkpoints=np.linspace(0.0, 0.25, 6)))
    out.append(_collect("mass conservation along the run",
                        [1e-12 - s.mass_defect for s in traj.states]))
    out.append(_collect("self-organized criticality: |lambda - 1| within budget",
                        [1e-3 - s.lambda_drift for s in traj.states]))
    out.append(_collect("burning rate in (0, 1] along the run",
                        [min(s.phi, 1.0 + 1e-12 - s.phi) for s in traj.states]))
    speed = ev.check_speed_bound(traj)
    out.append(CheckResult("W1 speed bound between checkpoints",
                           speed.passed, speed.worst_slack))
    growth = ev.check_mean_growth(traj)
    out.append(CheckResult("mean growth and tail domination",
                           growth.passed, growth.worst_slack))
    t_gel = ev.gelation_time(ms.dirac(0.0))
    out.append(CheckResult("monodisperse gelation time = 1",
                           abs(t_gel - 1.0) <= 1e-6, 1e-6 - abs(t_gel - 1.0)))
    return out


SUITES = {
    "metric": suite_metric,
    "spectral": suite_spectral,
    "roundtrip": suite_roundtrip,
    "evolution": suite_evolution,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; "
                         f"choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
