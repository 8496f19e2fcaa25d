"""Time integration of the self-organized-critical age dynamics.

The evolving object is a probability measure pi_t of vertex ages.  Writing
(lam_t, theta_t) for the leading eigenpair of the min-kernel operator of
pi_t and phi_t = 1 / integral(theta_t^3 dpi_t) for the burning rate, the
dynamics combine three mechanisms: ages grow at unit speed (transport),
mass is removed at the age-specific rate phi_t * theta_t(x) (burning,
concentrated on old ages because theta is increasing), and the removed
mass is reinjected at age 0 (burned vertices survive with age reset).

For subcritical initial data (lam < 1) burning is absent and the solution
is a pure translate of the initial measure until the gelation time t_gel,
when lam(translate(pi_0, t)) reaches 1; critical data gel at t_gel = 0.
From that one critical measure on, lam_t stays pinned at 1 by itself;
the integrator never projects onto the critical manifold, so the measured
drift |lam_t - 1| is a direct estimate of the splitting error and is
audited against a budget at every step.

One integrator step of size dt does, in order:

1. transport: every atom location += dt (exact);
2. decay: each atom's mass is multiplied by exp(-phi * theta(x) * dt),
   with phi and theta frozen at the step start and theta evaluated at the
   step-start location x (so mass sitting at age 0 is never burned);
3. rebirth: one new atom at age 0 carries exactly the decayed mass, so
   total mass 1 is conserved to machine precision;

then the eigenpair and burning rate are recomputed (warm-started power
iteration) and atoms may be coalesced within a W1 budget of merge_eps*dt
per step, keeping the injected coalescing error at most merge_eps per
unit time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import AccuracyError, InputError, SupercriticalError
from .measures import (AgeMeasure, ProbabilityAgeMeasure, fixed_point_measure,
                       merge_atoms, mixture, w1)
from .spectral import (SpectralPair, leading_eigenvalue, leading_pair,
                       phi_of_pair)

#: |lam - 1| window treated as exactly critical, read at each call
CRIT_TOL = 1e-9
#: largest |lam - 1| of the audit eigen-solve at the gelation time
GEL_TOL = 1e-9
#: rounding allowances of the trajectory audits: the W1 speed bound, mean
#: growth and tail domination, and the stability ratio bound
SPEED_SLACK = 1e-6
MEAN_GROWTH_SLACK = 1e-9
STABILITY_SLACK = 1e-9
#: a rise of the W1 distance to the stationary profile larger than this
#: counts as an uptick in :func:`lyapunov_experiment`
LYAPUNOV_SLACK = 1e-4


@dataclass(frozen=True)
class EvolveOptions:
    """Knobs of the integrator; defaults match the accuracy contracts.

    ``dt`` is the critical step size; ``checkpoints`` the recorded times
    (default: 11 evenly spaced over [0, t_max]); ``merge_eps`` the W1
    coalescing budget per unit time; ``lambda_drift_budget`` the largest
    |lam - 1| allowed after a critical step.
    """

    dt: float = 1e-3
    checkpoints: Sequence[float] | None = None
    merge_eps: float = 1e-6
    lambda_drift_budget: float = 1e-3


@dataclass(frozen=True, eq=False)
class EvolutionState:
    """Snapshot of the solution at one instant.

    ``phi`` is the control actually in effect: 0 during the subcritical
    transport phase, the burning-rate functional of ``pi`` in critical mode.
    ``speed_budget`` accumulates the integral of phi * (age-weighted theta
    mass) along the run; consecutive differences bound the W1 displacement
    between checkpoints.  ``pair`` is None only for the degenerate measure
    concentrated at age 0.  ``history`` holds the (t, theta) of up to three
    earlier steps, newest first, for the next step's warm start
    (:func:`_atom_frame_start`); states recorded in a :class:`Trajectory`
    hold none.
    """

    t: float
    pi: ProbabilityAgeMeasure
    pair: SpectralPair | None
    phi: float
    mode: str                      # "transport" or "critical"
    lambda_drift: float = 0.0
    speed_budget: float = 0.0
    history: tuple[tuple[float, np.ndarray], ...] = field(default=(),
                                                          repr=False)

    def __setstate__(self, state):
        # pickle and copy restore the history's arrays writable; the
        # measure and the pair restore their own
        self.__dict__.update(state)
        for _, theta in self.history:
            theta.flags.writeable = False

    @property
    def lam(self) -> float:
        return self.pair.lam if self.pair is not None else 0.0

    @property
    def atom_count(self) -> int:
        return self.pi.n_atoms

    @property
    def mass_defect(self) -> float:
        return abs(self.pi.total_mass() - 1.0)


@dataclass(frozen=True)
class Trajectory:
    states: tuple[EvolutionState, ...]
    t_gel: float
    switch_lambda_jump: float | None = None  # |lam - 1| measured at the switch

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    def state_at(self, t: float) -> EvolutionState:
        """The state whose snapshot name is that of t (see
        :func:`checkpoint_times`)."""
        for s in self.states:
            if snapshot_filename(s.t) == snapshot_filename(t):
                return s
        raise InputError(f"no checkpoint at t = {t!r}")


def _critical_state(t, pi, *, speed_budget=0.0, start=None, pair=None,
                    history=()):
    """The critical-mode state of pi; ``pair`` is its eigenpair if known."""
    pair = leading_pair(pi, start=start) if pair is None else pair
    return EvolutionState(
        t=t, pi=pi, pair=pair, phi=phi_of_pair(pair), mode="critical",
        lambda_drift=abs(pair.lam - 1.0), speed_budget=speed_budget,
        history=history)


def _atom_frame_start(state: EvolutionState, t_new: float,
                      start: np.ndarray) -> np.ndarray:
    """Warm start for the eigen-solve of the step from ``state`` to t_new.

    theta's kinks sit on the atoms and move with them, so theta at a fixed
    age is not smooth in time, but theta at a fixed atom is.  When each of
    the last four steps added exactly one atom (the newborn) and merged
    none, atom j of the new measure is atom j - k of the state k steps
    back, and its theta is the cubic Lagrange extrapolation to t_new of
    those four values (weights 4, -6, 4, -1 for equal steps).  ``start``
    (theta of ``state`` at the new ages) is kept for the four youngest
    atoms, and entirely when the counts do not fit or a time gap in the
    window is below half the new step.
    """
    hist = ((state.t, state.pair.theta), *state.history)
    n_new = start.size
    if len(hist) < 4 or any(theta.size != n_new - 1 - k
                            for k, (_, theta) in enumerate(hist)):
        return start
    ts = [t for t, _ in hist]
    gaps = -np.diff([t_new, *ts])
    if gaps.min() < 0.5 * gaps[0]:
        return start
    out = start.copy()
    out[4:] = 0.0
    for k, (tk, theta) in enumerate(hist):
        weight = math.prod((t_new - tm) / (tk - tm)
                           for m, tm in enumerate(ts) if m != k)
        out[4:] += weight * theta[3 - k:]
    return out


def _check_budgets(**budgets: float) -> None:
    """A NaN or negative budget or tolerance would silently switch merging,
    an audit or the criticality test off."""
    for name, value in budgets.items():
        if not value >= 0:
            raise InputError(f"{name} must be >= 0, got {value!r}")


def step(state: EvolutionState, dt: float, *, merge_eps: float = 1e-6,
         lambda_drift_budget: float = 1e-3) -> EvolutionState:
    """Advance one critical step of size dt (transport, decay, rebirth).

    dt must be finite, > 0 and large enough to move ``state.t``.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise InputError("dt must be finite and > 0")
    if state.t + dt == state.t:
        raise InputError(f"dt = {dt:g} is too small to advance time "
                         f"at t = {state.t:g}")
    _check_budgets(merge_eps=merge_eps, lambda_drift_budget=lambda_drift_budget)
    if state.pair is None or state.mode != "critical":
        raise InputError("step() requires a critical-mode state")
    pi, pair, rate = state.pi, state.pair, state.phi
    decayed = pi.masses * np.exp(-rate * pair.theta * dt)
    lost = float(pi.masses.sum() - decayed.sum())
    locs = np.concatenate(([0.0], pi.locations + dt))
    mass = np.concatenate(([lost], decayed))
    new_pi = ProbabilityAgeMeasure(locs, mass)
    if merge_eps > 0.0:
        new_pi = merge_atoms(new_pi, merge_eps * dt)
    # warm start: theta of the old pair at the new atom ages.  theta is
    # piecewise linear between the old atoms and flat past the last one, so
    # interpolating its atom values gives theta_at up to the eigen residual;
    # below the first old atom the clamp only feeds the age-0 entry, which
    # leading_pair ignores.  Older atoms extrapolate in their own frame
    # when the last steps allow it
    start = _atom_frame_start(
        state, state.t + dt,
        np.interp(new_pi.locations, pi.locations, pair.theta))
    budget_gain = rate * float(
        (pi.locations * pair.theta * pi.masses).sum()) * dt
    new_state = _critical_state(
        state.t + dt, new_pi, start=start,
        speed_budget=state.speed_budget + budget_gain,
        history=((state.t, pair.theta), *state.history[:2]))
    if new_state.lambda_drift > lambda_drift_budget:
        raise AccuracyError(
            f"criticality drift |lam - 1| = {new_state.lambda_drift:.3e} exceeds "
            f"budget {lambda_drift_budget:.1e} at t = {new_state.t:.6g}; "
            "reduce dt")
    return new_state


def gelation_time(pi0: AgeMeasure, tol: float = GEL_TOL) -> float:
    """First time t with lam(translate(pi0, t)) = 1, in closed form.

    Translating every age by t adds t to every x_i ^ x_j, so the symmetrized
    kernel of the translate is K0 + t * d d^T with d = sqrt(w).  For
    lam(K0) < 1 the eigenvalue rises continuously with t and reaches 1 at
    exactly one time,

        t_gel = 1 / d^T (I - K0)^{-1} d.

    Writing (I - K0)^{-1} d = d * y gives y = 1 + g, where g(0) = 0, g is
    linear between atoms, its slope drops by w_i * y_i at atom i and is 0
    past the last atom; its slope at 0 is sigma = integral(y dpi) = 1 / t_gel.
    One forward pass over the atoms carries g and its slope as affine
    functions of sigma, and the vanishing final slope fixes sigma.

    Returns 0 for critical initial data (|lam - 1| <= CRIT_TOL) and rejects
    supercritical data.  ``tol`` audits the result: a cold eigen-solve of the
    translate must give |lam - 1| <= tol, else AccuracyError.
    """
    return _gelation(pi0, tol)[0]


def _gelation(pi0: AgeMeasure, tol: float):
    """:func:`gelation_time` and the pairs it solved: that of pi0 (None for
    delta_0) and that of the critical measure at t_gel (the same for a
    critical pi0, else the audit pair of the translate)."""
    _check_budgets(tol=tol)
    # delta_0 has lam = 0 and no eigenpair; any positive atom gives one
    pair0 = leading_pair(pi0) if pi0.locations[-1:].any() else None
    lam0 = pair0.lam if pair0 is not None else 0.0
    if lam0 > 1.0 + CRIT_TOL:
        raise SupercriticalError(
            f"initial eigenvalue {lam0:.9f} > 1; gelation already happened")
    if abs(lam0 - 1.0) <= CRIT_TOL:
        return 0.0, pair0, pair0
    # g = g0 + g1 * sigma and its slope s0 + s1 * sigma at the current atom
    g0 = g1 = s0 = x_prev = 0.0
    s1 = 1.0
    for x, w in zip(pi0.locations.tolist(), pi0.masses.tolist()):
        g0 += s0 * (x - x_prev)
        g1 += s1 * (x - x_prev)
        s0 -= w * (1.0 + g0)
        s1 -= w * g1
        x_prev = x
    t_gel = -s1 / s0  # the final slope s0 + s1 / t_gel vanishes
    pair = leading_pair(pi0.translate(t_gel)) if t_gel > 0 else None
    lam = pair.lam if pair is not None else math.nan
    if not abs(lam - 1.0) <= tol:
        raise AccuracyError(
            f"gelation time {t_gel!r} gives lam = {lam!r}, "
            f"not within {tol:.1e} of 1")
    return t_gel, pair0, pair


def solve(pi0: ProbabilityAgeMeasure, t_max: float,
          opts: EvolveOptions = EvolveOptions()) -> Trajectory:
    """Solve the age dynamics from pi0 up to t_max, recording checkpoints.

    Checkpoints before the gelation time t_gel are transport rows (translates
    of pi0, phi = 0), those after it critical rows stepped from the switch
    row: pi0.translate(t_gel) with the pair the gelation audit solved.  The
    checkpoints, with 0 and t_max added, follow :func:`checkpoint_times`.
    The switch row is recorded unless a checkpoint more than 1e-12 away
    writes its snapshot name; a checkpoint within 1e-12 of t_gel is the
    switch row.
    Supercritical data are rejected; critical data switch at t = 0, and the
    degenerate start (all mass at age 0) is subcritical with t_gel = 1.
    A step dt below half an ulp of t_max, which would stop the clock, is an
    InputError; no cap bounds the number of steps, t_max / dt
    (``agefire solve`` applies one).
    """
    if not (math.isfinite(t_max) and t_max >= 0):
        raise InputError("t_max must be finite and >= 0")
    if not (math.isfinite(opts.dt) and opts.dt > 0):
        raise InputError("dt must be finite and > 0")
    if t_max + opts.dt == t_max:
        raise InputError(f"dt = {opts.dt:g} is too small to advance time "
                         f"at t_max = {t_max:g}")
    _check_budgets(merge_eps=opts.merge_eps,
                   lambda_drift_budget=opts.lambda_drift_budget)
    pi0 = pi0.as_probability()
    cps_src = opts.checkpoints if opts.checkpoints is not None \
        else even_checkpoints(t_max, 10)
    cps = checkpoint_times(cps_src, 0.0, t_max)  # the caller's times alone
    cps = checkpoint_times([0.0, *cps.values(), t_max], 0.0, t_max)

    t_gel, pair0, pair = _gelation(pi0, GEL_TOL)
    states: list[EvolutionState] = []
    for c in cps.values():
        if c < t_gel - 1e-12:
            pi_c = pi0.translate(c) if c > 0 else pi0
            states.append(EvolutionState(
                t=c, pi=pi_c, mode="transport", phi=0.0,
                pair=leading_pair(pi_c) if c > 0 else pair0))
    state = switch = _critical_state(t_gel, pair.source, pair=pair)
    t_named = cps.get(snapshot_filename(t_gel), t_gel)
    if t_gel <= t_max + 1e-12 and abs(t_named - t_gel) <= 1e-12:
        states.append(switch)
    for target in [c for c in cps.values() if c > t_gel + 1e-12]:
        while target - state.t > 1e-12:
            h = min(opts.dt, target - state.t)
            state = step(state, h, merge_eps=opts.merge_eps,
                         lambda_drift_budget=opts.lambda_drift_budget)
        state = replace(state, t=target)  # absorb <=1e-12 rounding in t
        states.append(replace(state, history=()))
    return Trajectory(tuple(states), t_gel=t_gel,
                      switch_lambda_jump=switch.lambda_drift)


# ---------------------------------------------------------------------------
# Trajectory audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalCheck:
    u: float
    v: float
    measured: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[IntervalCheck, ...]
    passed: bool
    worst_slack: float  # most negative (bound - measured) over the checks


def _report(checks: list[IntervalCheck]) -> AuditReport:
    worst = min((c.bound - c.measured for c in checks), default=math.inf)
    return AuditReport(tuple(checks), all(c.passed for c in checks), worst)


def check_speed_bound(traj: Trajectory) -> AuditReport:
    """W1 displacement between checkpoints against the transport-plus-burn
    speed bound |v - u| + integral of phi * (age-weighted theta mass), plus
    ``SPEED_SLACK``."""
    if len(traj.states) < 2:
        raise InputError("need at least two checkpoints")
    checks = []
    for a, b in zip(traj.states[:-1], traj.states[1:]):
        moved = w1(a.pi, b.pi)
        bound = (b.t - a.t) + (b.speed_budget - a.speed_budget) + SPEED_SLACK
        checks.append(IntervalCheck(a.t, b.t, moved, bound, moved <= bound))
    return _report(checks)


def _tail_masses(pi: AgeMeasure, xs: np.ndarray) -> np.ndarray:
    """pi[x, inf) for every x in xs, from one reverse cumulative sum."""
    tails = np.append(np.cumsum(pi.masses[::-1])[::-1], 0.0)
    return tails[np.searchsorted(pi.locations, xs, side="left")]


def check_mean_growth(traj: Trajectory) -> AuditReport:
    """Mean-age growth (mean_t <= t + mean_0) and tail domination
    (pi_t[x + t, inf) <= pi_0[x, inf)) on a grid of ages x, each within
    ``MEAN_GROWTH_SLACK``.

    The grid uses midpoints between the initial atoms so that exactly
    transported atoms sit half a gap away from every grid point.
    """
    pi0 = traj.states[0].pi
    t0 = traj.states[0].t
    mean0 = pi0.first_moment()
    locs = pi0.locations
    grid = np.concatenate(([0.0], 0.5 * (locs[1:] + locs[:-1]))) if locs.size > 1 \
        else np.array([0.0])
    tails_0 = _tail_masses(pi0, grid)
    checks = []
    for s in traj.states:
        dt = s.t - t0
        bound = dt + mean0 + MEAN_GROWTH_SLACK
        mean_ok = s.pi.first_moment() <= bound
        checks.append(IntervalCheck(t0, s.t, s.pi.first_moment(), bound,
                                    mean_ok))
        gap = float(np.max(_tail_masses(s.pi, grid + dt) - tails_0))
        checks.append(IntervalCheck(t0, s.t, gap, MEAN_GROWTH_SLACK,
                                    gap <= MEAN_GROWTH_SLACK))
    return _report(checks)


# ---------------------------------------------------------------------------
# Perturbations and experiments
# ---------------------------------------------------------------------------

def recriticalize(measure: AgeMeasure) -> ProbabilityAgeMeasure:
    """Translate a subcritical probability measure to the critical manifold."""
    t_star = gelation_time(measure)
    return measure.translate(t_star).as_probability()


def perturb_mass_at_zero(pi: ProbabilityAgeMeasure, eps: float) -> ProbabilityAgeMeasure:
    """Move a fraction eps of every atom's mass to age 0, then translate
    back to criticality.  Yields a critical measure at W1 distance O(eps)."""
    if not 0.0 < eps < 1.0:
        raise InputError("eps must lie in (0, 1)")
    mixed = mixture([(1.0 - eps, pi), (eps, AgeMeasure([0.0], [1.0]))])
    return recriticalize(mixed.as_probability())


def perturb_scale(pi: ProbabilityAgeMeasure, c: float) -> ProbabilityAgeMeasure:
    """Contract every age by a factor c in (0, 1), then translate back to
    criticality (the eigenvalue scales exactly linearly with ages)."""
    if not 0.0 < c < 1.0:
        raise InputError("c must lie in (0, 1); expansion would be supercritical")
    shrunk = ProbabilityAgeMeasure(pi.locations * c, pi.masses)
    return recriticalize(shrunk)


@dataclass(frozen=True)
class StabilityResult:
    times: np.ndarray
    ratios: np.ndarray       # w1(pi_t, pi~_t) / w1(pi_0, pi~_0)
    initial_gap: float
    c1: float                # smallest rate with ratio <= exp(c1 * t) throughout

    def bound_holds(self) -> bool:
        return bool(np.all(self.ratios <= np.exp(self.c1 * self.times)
                           + STABILITY_SLACK))


def stability_experiment(pi0: ProbabilityAgeMeasure,
                         pi0_perturbed: ProbabilityAgeMeasure,
                         t_max: float,
                         opts: EvolveOptions = EvolveOptions()) -> StabilityResult:
    """Evolve two critical initial measures (|lam - 1| <= ``CRIT_TOL``)
    side by side and track the growth of their W1 gap relative to the
    initial gap.

    The fitted rate c1 is the largest log-ratio slope over the checkpoints,
    so ratio <= exp(c1 * t) holds along the whole run; c1 is the empirical
    Gronwall constant of the flow around this pair.
    """
    for m, label in ((pi0, "pi0"), (pi0_perturbed, "pi0_perturbed")):
        lam = leading_eigenvalue(m)
        if abs(lam - 1.0) > CRIT_TOL:
            raise InputError(f"{label} must be critical (lam = {lam:.9f})")
    gap0 = w1(pi0, pi0_perturbed)
    if gap0 <= 0.0:
        raise InputError("initial measures must differ")
    ta = solve(pi0, t_max, opts)
    tb = solve(pi0_perturbed, t_max, opts)
    times = ta.times
    gaps = np.array([w1(a.pi, b.pi) for a, b in zip(ta.states, tb.states)])
    ratios = gaps / gap0
    pos = times > 0
    c1 = float(np.max(np.log(np.maximum(ratios[pos], 1e-300)) / times[pos])) \
        if pos.any() else 0.0
    return StabilityResult(times, ratios, gap0, c1)


@dataclass(frozen=True)
class LyapunovResult:
    times: np.ndarray
    distances: np.ndarray    # w1(pi_t, stationary reference)
    increases: int           # count of upticks beyond LYAPUNOV_SLACK
    max_increase: float


def lyapunov_experiment(pi0: ProbabilityAgeMeasure, t_max: float,
                        opts: EvolveOptions = EvolveOptions(),
                        reference: AgeMeasure | None = None) -> LyapunovResult:
    """Track the W1 distance to the stationary profile along a trajectory.

    Whether this distance is nonincreasing for every critical start is an
    open question; upticks beyond ``LYAPUNOV_SLACK`` are therefore counted
    and reported, never treated as failures.
    """
    ref = reference if reference is not None else fixed_point_measure()
    traj = solve(pi0, t_max, opts)
    times = traj.times
    dists = np.array([w1(s.pi, ref) for s in traj.states])
    jumps = np.diff(dists)
    increases = int(np.sum(jumps > LYAPUNOV_SLACK))
    max_inc = float(np.max(jumps)) if jumps.size else 0.0
    return LyapunovResult(times, dists, increases, max_inc)


# ---------------------------------------------------------------------------
# Trajectory output
# ---------------------------------------------------------------------------

TRAJECTORY_HEADER = "t,lambda,phi,mean_age,atom_count,w1_to_fixed_point,mass_defect"


def checkpoint_tag(t: float) -> str:
    """The ``t<t>`` tag of the files written at time t: t to six decimals,
    rounded from its ``.12g`` text, which is what the ``t`` column of a
    CSV row holds.  So a reader that holds only the row names the file
    that the writer wrote."""
    return f"t{float(f'{t:.12g}'):.6f}"


def snapshot_filename(t: float) -> str:
    """The snapshot name of time t, by which every file and lookup finds
    the checkpoint at t."""
    return f"snapshot_{checkpoint_tag(t)}.csv"


def even_checkpoints(t_max: float, intervals: int) -> list[float]:
    """0 and ``intervals`` evenly spaced times up to t_max, or fewer when
    t_max is so short that a spacing of at most 1e-6, the resolution of
    :func:`snapshot_filename`, would give two of them the same name."""
    k = min(intervals, max(1, math.ceil(t_max * 1e6) - 1))
    return np.linspace(0.0, t_max, k + 1).tolist()


def checkpoint_times(times: Sequence[float], t0: float,
                     t_max: float) -> dict[str, float]:
    """The checkpoint rule of :func:`solve` and :func:`~agefire.mfffa.run`:
    {snapshot name: time} over the distinct times, in time order.

    ``times`` must be an iterable of real numbers other than a str or
    bytes (which would iterate by character).  Every time must lie in
    [t0, t_max + 1e-12] (NaN does not); exact duplicates are one
    checkpoint; two different times that share a snapshot name are an
    InputError, since the later state would overwrite the earlier one's
    files.
    """
    if isinstance(times, (str, bytes)) or not np.iterable(times):
        raise InputError(f"checkpoints must be a sequence of times, not "
                         f"{type(times).__name__}")
    times = list(times)  # an iterator is read once
    for c in times:
        if not isinstance(c, numbers.Real):
            raise InputError(f"checkpoint {c!r} is not a number")
    cps = sorted({float(c) for c in times})
    if not all(t0 <= c <= t_max + 1e-12 for c in cps):
        raise InputError(f"checkpoints must lie in [{t0:.12g}, {t_max:.12g}]")
    names = {}
    for t in cps:
        other = names.setdefault(snapshot_filename(t), t)
        if other != t:
            raise InputError(f"checkpoints {other!r} and {t!r} share the "
                             f"snapshot name {snapshot_filename(t)}")
    return names


def write_trajectory(traj: Trajectory, out_dir,
                     reference: AgeMeasure | None = None) -> None:
    """Write trajectory.csv plus one measure snapshot per checkpoint."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ref = reference if reference is not None else fixed_point_measure()
    rows = [TRAJECTORY_HEADER]
    for s in traj.states:
        rows.append(",".join([
            f"{s.t:.12g}", f"{s.lam:.17g}", f"{s.phi:.17g}",
            f"{s.pi.first_moment():.17g}", str(s.atom_count),
            f"{w1(s.pi, ref):.17g}", f"{s.mass_defect:.17g}"]))
        s.pi.to_csv(out / snapshot_filename(s.t))
    (out / "trajectory.csv").write_text("\n".join(rows) + "\n")
