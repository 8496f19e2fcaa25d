"""Integrator, gelation, audits, and the stability/Lyapunov experiments."""

import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import agefire as af
from agefire.evolution import (EvolveOptions, _atom_frame_start,
                               _critical_state)
from agefire.validation import random_probability_measure
from test_measures import _heap_merge_atoms


def small_fixed_point():
    return af.fixed_point_measure(400, 30.0)


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

def test_step_conserves_mass_exactly():
    state = _critical_state(0.0, small_fixed_point())
    new = af.step(state, 1e-3)
    assert new.mass_defect <= 1e-13
    assert new.t == 1e-3
    assert new.pi.locations[0] == 0.0  # newborn atom at age zero


def test_step_zero_age_atom_mass_is_preserved():
    # theta(0) = 0, so mass sitting at age 0 is never burned within the step
    state = _critical_state(0.0, af.two_atom(0.5))
    mass_at_zero = state.pi.masses[0]
    new = af.step(state, 1e-3, merge_eps=0.0)
    moved = new.pi.masses[np.isclose(new.pi.locations, 1e-3)]
    assert moved.size == 1
    assert moved[0] == mass_at_zero


def test_step_near_stationarity():
    pi0 = small_fixed_point()
    state = _critical_state(0.0, pi0)
    new = af.step(state, 1e-3)
    assert af.w1(new.pi, pi0) < 5e-3
    assert abs(new.lam - 1.0) < 1e-3


def test_step_rejects_bad_input():
    state = _critical_state(0.0, af.two_atom(0.5))
    for dt in (-1e-3, 0.0, math.nan, math.inf):
        with pytest.raises(af.InputError, match="finite and > 0"):
            af.step(state, dt)
    # a step below half an ulp of t would not move the clock
    later = _critical_state(1.0, af.two_atom(0.5))
    for dt in (1e-300, 1e-17):
        with pytest.raises(af.InputError, match="too small"):
            af.step(later, dt)
    with pytest.raises(af.AccuracyError):
        af.step(state, 1e-3, lambda_drift_budget=1e-16)
    for budgets in ({"merge_eps": math.nan}, {"merge_eps": -1e-6},
                    {"lambda_drift_budget": math.nan},
                    {"lambda_drift_budget": -1e-3}):
        with pytest.raises(af.InputError):
            af.step(state, 1e-3, **budgets)


def _oracle_step(state, dt, start_at, *, merge_eps, lambda_drift_budget,
                 history):
    """The step with its warm start from ``start_at(state, new_pi)``; the
    new state keeps the last thetas when ``history`` is true."""
    pi, pair, rate = state.pi, state.pair, state.phi
    decayed = pi.masses * np.exp(-rate * pair.theta * dt)
    lost = float(pi.masses.sum() - decayed.sum())
    new_pi = af.ProbabilityAgeMeasure(np.concatenate(([0.0], pi.locations + dt)),
                                      np.concatenate(([lost], decayed)))
    if merge_eps > 0.0:
        new_pi = af.merge_atoms(new_pi, merge_eps * dt)
    start = start_at(state, new_pi)
    budget_gain = rate * float(
        (pi.locations * pair.theta * pi.masses).sum()) * dt
    new_state = _critical_state(
        state.t + dt, new_pi, start=start,
        speed_budget=state.speed_budget + budget_gain,
        history=((state.t, pair.theta), *state.history[:2]) if history else ())
    if new_state.lambda_drift > lambda_drift_budget:
        raise af.AccuracyError("drift over budget")
    return new_state


def _theta_at_step(state, dt, *, merge_eps=1e-6, lambda_drift_budget=1e-3):
    """Oracle: the step with theta_at, not np.interp, at the new atom ages
    wherever the atom-frame extrapolation does not start them."""
    def start_at(state, new_pi):
        return _atom_frame_start(state, state.t + dt,
                                 af.theta_at(state.pair, new_pi.locations))
    return _oracle_step(state, dt, start_at, merge_eps=merge_eps,
                        lambda_drift_budget=lambda_drift_budget, history=True)


def _interp_step(state, dt, *, merge_eps=1e-6, lambda_drift_budget=1e-3):
    """Oracle: the step warm-started from np.interp of the old theta at every
    new atom age, with no extrapolation."""
    def start_at(state, new_pi):
        return np.interp(new_pi.locations, state.pi.locations,
                         state.pair.theta)
    return _oracle_step(state, dt, start_at, merge_eps=merge_eps,
                        lambda_drift_budget=lambda_drift_budget, history=False)


@pytest.mark.parametrize("pi0, t_max", [
    (af.fixed_point_measure(2000, 40.0), 1.0),
    (af.dirac(0.0), 1.5),
    (af.two_atom(0.5), 1.0),
], ids=["fp2000", "dirac0", "two_atom"])
def test_interpolated_warm_start_matches_theta_at_oracle(pi0, t_max, monkeypatch):
    # np.interp of the atom values is theta_at up to the eigen residual, so
    # the two warm starts give the same trajectory to rounding; both
    # extrapolate the older atoms in their own frame
    opts = EvolveOptions(dt=1e-3)
    traj = af.solve(pi0, t_max, opts)
    monkeypatch.setattr(af.evolution, "step", _theta_at_step)
    ref = af.solve(pi0, t_max, opts)
    assert len(traj.states) == len(ref.states)
    assert traj.t_gel == ref.t_gel
    for got, want in zip(traj.states, ref.states):
        assert (got.t, got.mode) == (want.t, want.mode)
        assert np.array_equal(got.pi.locations, want.pi.locations)
        np.testing.assert_allclose(got.pi.masses, want.pi.masses,
                                   rtol=1e-10, atol=0.0)
        assert abs(got.lam - want.lam) <= 1e-13
        assert abs(got.phi - want.phi) <= 1e-13


def test_merging_solve_matches_heap_oracle(monkeypatch):
    # merge_eps = 1e-2 merges pairs in every step (up to 8 in one call) and
    # ~300 atoms in all over the 100 steps
    pi0 = small_fixed_point()
    opts = EvolveOptions(dt=1e-2, merge_eps=1e-2, checkpoints=[0.0, 0.5, 1.0])
    traj = af.solve(pi0, 1.0, opts)
    monkeypatch.setattr(af.evolution, "merge_atoms",
                        lambda m, eps: _heap_merge_atoms(m, eps)[0])
    ref = af.solve(pi0, 1.0, opts)
    assert traj.states[-1].atom_count < pi0.n_atoms
    assert len(traj.states) == len(ref.states)
    for got, want in zip(traj.states, ref.states):
        assert (got.t, got.mode, got.lam, got.phi, got.lambda_drift,
                got.speed_budget) == (want.t, want.mode, want.lam, want.phi,
                                      want.lambda_drift, want.speed_budget)
        assert np.array_equal(got.pi.locations, want.pi.locations)
        assert np.array_equal(got.pi.masses, want.pi.masses)
        assert np.array_equal(got.pair.theta, want.pair.theta)


def test_merging_solve_falls_back_to_interpolated_start(monkeypatch):
    # a merge in every step breaks the atom correspondence, so every warm
    # start is np.interp of the old theta and the solve keeps its bits
    pi0 = small_fixed_point()
    opts = EvolveOptions(dt=1e-2, merge_eps=1e-2, checkpoints=[0.0, 0.5, 1.0])
    traj = af.solve(pi0, 1.0, opts)
    monkeypatch.setattr(af.evolution, "step", _interp_step)
    ref = af.solve(pi0, 1.0, opts)
    assert len(traj.states) == len(ref.states)
    for got, want in zip(traj.states, ref.states):
        assert (got.t, got.mode, got.lam, got.phi, got.lambda_drift,
                got.speed_budget) == (want.t, want.mode, want.lam, want.phi,
                                      want.lambda_drift, want.speed_budget)
        assert np.array_equal(got.pi.locations, want.pi.locations)
        assert np.array_equal(got.pi.masses, want.pi.masses)
        assert np.array_equal(got.pair.theta, want.pair.theta)
        assert got.history == ()


def _dense_leading(measure):
    """Oracle: the leading eigenpair of the dense symmetrized kernel and its
    burning rate.  Only the leading pair is computed, at about half the cost
    of a full eigh on 3 000 atoms."""
    pos = measure.locations > 0
    x, w = measure.locations[pos], measure.masses[pos]
    d = np.sqrt(w)
    sym = d[:, None] * np.minimum.outer(x, x) * d[None, :]
    n = x.size
    vals, vecs = scipy.linalg.eigh(sym, subset_by_index=[n - 1, n - 1])
    theta = np.abs(vecs[:, 0]) / d
    theta /= float(theta @ w)
    return float(vals[0]), theta, 1.0 / float((theta ** 3 * w).sum())


@pytest.mark.parametrize("pi0, t_max, phi_tol, theta_tol", [
    (af.fixed_point_measure(2000, 40.0), 1.0, 3.8e-13, 1.5e-12),
    (af.dirac(0.0), 1.5, 7.9e-15, 3.2e-14),
    (af.two_atom(0.5), 1.0, 4.6e-14, 9.3e-14),
], ids=["fp2000", "dirac0", "two_atom"])
def test_warm_solves_match_dense_eigh(pi0, t_max, phi_tol, theta_tol):
    # the tolerances are the largest errors of the np.interp warm start
    # against this oracle over the same checkpoints, rounded up to two
    # digits; the atom-frame start must be no less accurate
    traj = af.solve(pi0, t_max, EvolveOptions(dt=1e-3))
    critical = [s for s in traj.states if s.mode == "critical"]
    assert len(critical) >= 5
    for s in critical:
        lam, theta, phi = _dense_leading(s.pi)
        assert abs(s.lam - lam) <= 1e-14
        assert abs(s.phi - phi) <= phi_tol
        assert np.max(np.abs(s.pair.theta[s.pi.locations > 0] - theta)) \
            <= theta_tol


def test_warm_solves_take_about_two_sweeps(monkeypatch):
    # near stationarity a sweep shrinks the error only 6x; an np.interp
    # start needs 7 sweeps a step, the atom-frame start about 2
    sweeps = []
    exact = af.evolution.leading_pair

    def counting(m, **kw):
        pair = exact(m, **kw)
        if kw.get("start") is not None:
            sweeps.append(pair.iterations)
        return pair

    monkeypatch.setattr(af.evolution, "leading_pair", counting)
    af.solve(af.fixed_point_measure(2000, 40.0), 1.0, EvolveOptions(dt=1e-3))
    assert len(sweeps) == 1000
    assert np.mean(sweeps) <= 3.0


def test_recorded_states_hold_no_history():
    traj = af.solve(af.two_atom(0.5), 0.1, EvolveOptions(dt=1e-3))
    assert all(s.history == () for s in traj.states)
    state = traj.states[-1]
    for _ in range(5):
        state = af.step(state, 1e-3)
    assert [t for t, _ in state.history] == pytest.approx([0.104, 0.103,
                                                           0.102])


def _cubic_history(times, n0):
    """A state at times[-1] and its history, whose atom ages follow one
    another from step to step and whose theta along each atom is a cubic
    in time; and the function giving theta at the step's atoms."""
    coef = np.random.default_rng(5).random((4, n0 + 2 * len(times)))

    def theta(step, t):
        atom = step - np.arange(n0 + step) + n0  # the same atom over steps
        return coef[:, atom].T @ np.array([1.0, t, t * t, t * t * t])

    thetas = [(t, theta(k, t)) for k, t in enumerate(times)]
    state = SimpleNamespace(t=times[-1],
                            pair=SimpleNamespace(theta=thetas[-1][1]),
                            history=tuple(reversed(thetas[:-1]))[:3])
    return state, theta


@pytest.mark.parametrize("times", [
    [0.0, 0.01, 0.02, 0.03],
    [0.0, 0.01, 0.02, 0.025],    # a short last step before a checkpoint
    [0.0, 0.004, 0.009, 0.015],
])
def test_atom_frame_start_extrapolates_cubics_exactly(times):
    # cubic Lagrange extrapolation in each atom's frame, with the weights
    # from the actual times; the four youngest atoms keep the given start
    state, theta = _cubic_history(times, n0=10)
    t_new = times[-1] + 0.005
    start = np.full(10 + len(times), -1.0)
    got = _atom_frame_start(state, t_new, start)
    np.testing.assert_allclose(got[4:], theta(len(times), t_new)[4:],
                               rtol=1e-12)
    assert (got[:4] == -1.0).all() and (start == -1.0).all()


@pytest.mark.parametrize("times, n_new", [
    ([0.0, 0.01, 0.02, 0.03], 13),      # a step merged one pair
    ([0.0, 0.01, 0.02, 0.03], 15),
    ([0.01, 0.02, 0.03], 13),           # a history shorter than four
    ([0.0, 0.01, 0.0124, 0.03], 14),    # a gap below half the new step
])
def test_atom_frame_start_falls_back_to_the_given_start(times, n_new):
    state, _ = _cubic_history(times, n0=10)
    start = np.full(n_new, -1.0)
    assert _atom_frame_start(state, 0.04, start) is start


# ---------------------------------------------------------------------------
# gelation
# ---------------------------------------------------------------------------

def test_gelation_monodisperse():
    # lam(dirac(a)) = a, so the translate is critical at t = 1 - a exactly
    for a, want in ((0.0, 1.0), (0.3, 0.7)):
        assert abs(af.gelation_time(af.dirac(a)) - want) <= 1e-15


def test_gelation_critical_start_is_zero():
    assert af.gelation_time(af.two_atom(0.5)) == 0.0


def test_gelation_supercritical_rejected():
    with pytest.raises(af.SupercriticalError):
        af.gelation_time(af.two_atom(0.5).translate(0.5))


def test_gelation_against_grid_scan_oracle():
    pi0 = af.AgeMeasure([0.0, 1.0], [0.5, 0.5]).as_probability()
    t_star = af.gelation_time(pi0, tol=1e-12)

    def lam_at(t):
        x = np.array([t, 1.0 + t])
        w = np.array([0.5, 0.5])
        sym = np.sqrt(w)[:, None] * np.minimum.outer(x, x) * np.sqrt(w)[None, :]
        return float(np.linalg.eigvalsh(sym)[-1])

    grid = np.linspace(0.0, 2.0, 4001)
    lams = np.array([lam_at(t) for t in grid])
    k = int(np.argmax(lams >= 1.0))
    assert grid[k - 1] <= t_star <= grid[k]
    assert abs(lam_at(t_star) - 1.0) < 1e-11


def _dense_gelation_time(pi):
    """Oracle: 1 / d^T (I - K0)^{-1} d from a dense solve, d = sqrt(w)."""
    x, w = pi.locations, pi.masses
    d = np.sqrt(w)
    k0 = d[:, None] * np.minimum.outer(x, x) * d[None, :]
    return 1.0 / float(d @ np.linalg.solve(np.eye(x.size) - k0, d))


def _scaled_to(pi, lam):
    """pi with every age scaled so that its eigenvalue is lam."""
    return af.ProbabilityAgeMeasure(
        pi.locations * (lam / af.leading_eigenvalue(pi)), pi.masses)


_FP = af.fixed_point_measure(2000, 40.0)
_GELATION_STARTS = {
    "dirac0": af.dirac(0.0),
    "dirac0.3": af.dirac(0.3),
    "half_at_zero": af.AgeMeasure([0.0, 1.0], [0.5, 0.5]).as_probability(),
    "fp_x0.99": af.ProbabilityAgeMeasure(_FP.locations * 0.99, _FP.masses),
    "fp_x0.5": af.ProbabilityAgeMeasure(_FP.locations * 0.5, _FP.masses),
    "fp_1pct_at_zero": af.mixture(
        [(0.99, _FP), (0.01, af.dirac(0.0))]).as_probability(),
    **{f"random{seed}": _scaled_to(
        random_probability_measure(np.random.default_rng(seed)), 0.5)
       for seed in range(5)},
}


@pytest.mark.parametrize("pi0", _GELATION_STARTS.values(),
                         ids=_GELATION_STARTS.keys())
def test_gelation_matches_dense_solve_oracle(pi0):
    t_gel = af.gelation_time(pi0)
    want = _dense_gelation_time(pi0)
    assert abs(t_gel - want) <= 1e-12 * want
    assert abs(af.leading_eigenvalue(pi0.translate(t_gel)) - 1.0) <= 1e-12


def test_gelation_audit_rejects_a_missed_root(monkeypatch):
    pi0 = af.dirac(0.3)
    exact = af.leading_pair
    monkeypatch.setattr(af.evolution, "leading_pair", lambda m: exact(m)
                        if m is pi0 else replace(exact(m), lam=1.0 + 1e-6))
    with pytest.raises(af.AccuracyError):
        af.gelation_time(pi0, tol=1e-9)
    assert af.gelation_time(pi0, tol=1e-5) == 0.7


def test_gelation_at_the_rounding_floor_is_an_accuracy_error(monkeypatch):
    # with CRIT_TOL = 0, a start within rounding of criticality can give a
    # closed form t_gel <= 0; that is reported, not translated to the left
    monkeypatch.setattr(af.evolution, "CRIT_TOL", 0.0)
    for eps in (1e-14, 1e-15, 3e-16):
        pi0 = _scaled_to(_FP, 1.0 - eps)
        try:
            t_gel = af.solve(pi0, 0.0).t_gel
        except (af.AccuracyError, af.SupercriticalError):
            continue
        assert t_gel >= 0.0
        assert abs(af.leading_eigenvalue(pi0.translate(t_gel)) - 1.0) <= 1e-9


@pytest.mark.parametrize("tols", [{"tol": math.nan}, {"tol": -1e-9}])
def test_gelation_rejects_bad_tolerances(tols):
    with pytest.raises(af.InputError):
        af.gelation_time(af.dirac(0.0), **tols)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_monodisperse_transport_then_critical():
    traj = af.solve(af.dirac(0.0), 1.5, EvolveOptions(
        dt=1e-3, checkpoints=[0.0, 0.5, 1.0, 1.5]))
    assert abs(traj.t_gel - 1.0) <= 1e-6
    assert traj.switch_lambda_jump is not None and traj.switch_lambda_jump <= 1e-9
    s_half = traj.state_at(0.5)
    assert s_half.mode == "transport"
    assert s_half.phi == 0.0
    assert af.w1(s_half.pi, af.dirac(0.5)) < 1e-9
    s_end = traj.state_at(1.5)
    assert s_end.mode == "critical"
    assert 0.0 < s_end.phi <= 1.0
    assert s_end.lambda_drift <= 1e-3


def test_solve_critical_start_t0_only():
    traj = af.solve(af.two_atom(0.5), 0.0)
    assert len(traj.states) == 1
    assert traj.t_gel == 0.0
    assert abs(traj.states[0].phi - 0.25) < 1e-12


def test_solve_subcritical_horizon_before_gelation():
    traj = af.solve(af.dirac(0.0), 0.5, EvolveOptions(checkpoints=[0.0, 0.25, 0.5]))
    assert abs(traj.t_gel - 1.0) <= 1e-6
    assert all(s.mode == "transport" for s in traj.states)


def test_solve_rejects_supercritical():
    with pytest.raises(af.SupercriticalError):
        af.solve(af.two_atom(0.5).translate(1.0), 1.0)


def test_solve_subcritical_composite_start():
    # half the mass at age 0, half at age 1: transport until the translate
    # becomes critical, then critical stepping
    pi0 = af.AgeMeasure([0.0, 1.0], [0.5, 0.5]).as_probability()
    t_gel = af.gelation_time(pi0)
    traj = af.solve(pi0, t_gel + 0.2, EvolveOptions(
        dt=1e-3, checkpoints=[0.0, t_gel / 2, t_gel + 0.2]))
    assert abs(traj.t_gel - t_gel) <= 1e-9
    mid = traj.state_at(t_gel / 2)
    assert mid.mode == "transport"
    assert af.w1(mid.pi, pi0.translate(t_gel / 2)) == 0.0
    assert mid.lam < 1.0
    end = traj.states[-1]
    assert end.mode == "critical"
    assert end.lambda_drift <= 1e-3
    assert traj.switch_lambda_jump <= 1e-9


@pytest.mark.parametrize("checkpoints, rows", [
    # a checkpoint 0.01 before the switch does not hide it
    ([0.0, 0.99, 1.5], [(0.0, "transport"), (0.99, "transport"),
                        (1.0, "critical"), (1.5, "critical")]),
    # a checkpoint writing the switch's snapshot name takes its place
    ([0.0, 1.0 + 1e-7, 1.5], [(0.0, "transport"), (1.0 + 1e-7, "critical"),
                              (1.5, "critical")]),
    # a checkpoint within 1e-12 of the switch is the switch row
    ([0.0, 1.0 - 1e-13, 1.5], [(0.0, "transport"), (1.0, "critical"),
                               (1.5, "critical")]),
    # the name comes from the .12g text 1.0000005, so this checkpoint
    # writes snapshot_t1.000001.csv and leaves the switch's name free
    ([0.0, 1.0000004999999998, 1.5], [(0.0, "transport"), (1.0, "critical"),
                                      (1.0000004999999998, "critical"),
                                      (1.5, "critical")]),
], ids=["checkpoint_before_switch", "same_name", "within_1e-12",
        "name_from_12g_text"])
def test_solve_records_the_switch_by_snapshot_name(checkpoints, rows):
    traj = af.solve(af.dirac(0.0), 1.5, EvolveOptions(
        dt=1e-3, checkpoints=checkpoints))
    assert traj.t_gel == 1.0
    assert [(s.t, s.mode) for s in traj.states] == rows
    assert traj.states[-2].lambda_drift <= 1e-6


def _cold_solves(monkeypatch):
    """The measures leading_pair solves without a warm start, called from
    evolution or through spectral.leading_eigenvalue."""
    solved = []
    exact = af.spectral.leading_pair

    def counting(m, **kw):
        if kw.get("start") is None:
            solved.append(m.locations.tolist())
        return exact(m, **kw)

    for module in (af.evolution, af.spectral):
        monkeypatch.setattr(module, "leading_pair", counting)
    return solved


@pytest.mark.parametrize("pi0, checkpoints, want", [
    # delta_0 has no eigenpair; dirac(1) is the gelation audit and the switch
    (af.dirac(0.0), [0.0, 0.5, 1.0, 1.5], [[0.5], [1.0]]),
    # a critical start is the switch at t = 0
    (small_fixed_point(), [0.0, 0.01, 0.02],
     [small_fixed_point().locations.tolist()]),
    # the lam_0 pair of a subcritical start is its t = 0 transport row
    (af.AgeMeasure([0.0, 1.0], [0.5, 0.5]).as_probability(),
     [0.0, 0.25, 1.0], [[0.0, 1.0], [0.25, 1.25], [2 / 3, 5 / 3]]),
], ids=["dirac0", "critical", "half_at_zero"])
def test_solve_eigen_solves_each_measure_once(pi0, checkpoints, want,
                                              monkeypatch):
    solved = _cold_solves(monkeypatch)
    af.solve(pi0, checkpoints[-1], EvolveOptions(dt=1e-3,
                                                 checkpoints=checkpoints))
    assert len(solved) == len(want)
    for got, loc in zip(sorted(solved), sorted(want)):
        np.testing.assert_allclose(got, loc, rtol=1e-12, atol=0.0)


def test_solve_checkpoint_validation():
    with pytest.raises(af.InputError):
        af.solve(af.two_atom(0.5), 1.0, EvolveOptions(checkpoints=[0.0, 2.0]))
    with pytest.raises(af.InputError):
        af.solve(af.two_atom(0.5), 1.0, EvolveOptions(checkpoints=[-0.5]))
    with pytest.raises(af.InputError):
        af.solve(af.two_atom(0.5), -1.0)


#: checkpoints that are not an iterable of numbers; a str or bytes would
#: iterate by character ("12" as 1 and 2)
BAD_CHECKPOINTS = ["12", "0.5", b"1", 1.5, [None], ["0.5"], np.array(0.5),
                   [[0.5]]]


@pytest.mark.parametrize("checkpoints", BAD_CHECKPOINTS, ids=[
    "str", "str-number", "bytes", "float", "none", "str-element",
    "0-d-array", "nested"])
def test_solve_rejects_checkpoints_that_are_not_numbers(checkpoints):
    with pytest.raises(af.InputError, match="checkpoint"):
        af.solve(af.two_atom(0.5), 1.0, EvolveOptions(checkpoints=checkpoints))


def test_solve_reads_checkpoints_from_any_iterable():
    want = af.solve(af.two_atom(0.5), 0.5, EvolveOptions(checkpoints=[0.25]))
    for checkpoints in ((0.25,), iter([0.25]), np.array([0.25])):
        got = af.solve(af.two_atom(0.5), 0.5,
                       EvolveOptions(checkpoints=checkpoints))
        assert got.times.tolist() == want.times.tolist()


@pytest.mark.parametrize("t_max, opts", [
    (math.nan, 1e-3), (math.inf, 1e-3), (-math.inf, 1e-3),
    (0.1, math.nan), (0.1, math.inf), (0.1, 0.0), (0.1, -1e-3),
    (0.1, {"merge_eps": math.nan}), (0.1, {"merge_eps": -1e-6}),
    (0.1, {"lambda_drift_budget": math.nan}),
    (0.1, {"lambda_drift_budget": -1e-3}),
    (0.1, {"checkpoints": [0.05, math.nan]}),
    (0.1, {"checkpoints": [0.0, math.inf]}),
    # a step below half an ulp of t_max would never move the clock
    (0.1, {"dt": 1e-300}), (0.1, {"dt": 1e-18}),
    (1e300, {"dt": 1e-3}),
])
def test_solve_rejects_non_finite_time_and_step(t_max, opts):
    # a float is the step dt; a dict sets an option, which the message
    # names.  Each is rejected before any work
    key = next(iter(opts)) if isinstance(opts, dict) else None
    opts = EvolveOptions(**opts) if isinstance(opts, dict) \
        else EvolveOptions(dt=opts)
    began = time.perf_counter()
    with pytest.raises(af.InputError, match=key):
        af.solve(af.two_atom(0.5), t_max, opts)
    assert time.perf_counter() - began < 1.0


def test_solve_fixed_point_stationarity_small():
    pi0 = small_fixed_point()
    traj = af.solve(pi0, 0.25, EvolveOptions(
        dt=1e-3, checkpoints=np.linspace(0, 0.25, 6)))
    for s in traj.states:
        assert af.w1(s.pi, pi0) < 2e-2  # coarse grid; acceptance runs 2000 atoms
        assert s.lambda_drift <= 1e-3
        assert s.mass_defect <= 1e-12


def test_solve_richardson_consistency():
    pi0 = small_fixed_point()
    cps = [0.0, 0.1, 0.2]
    runs = {}
    for dt in (2e-3, 1e-3, 5e-4):
        runs[dt] = af.solve(pi0, 0.2, EvolveOptions(dt=dt, checkpoints=cps))
    gap_coarse = max(af.w1(a.pi, b.pi) for a, b in
                     zip(runs[2e-3].states, runs[5e-4].states))
    gap_fine = max(af.w1(a.pi, b.pi) for a, b in
                   zip(runs[1e-3].states, runs[5e-4].states))
    # consecutive-trajectory gaps scale like dt for a first-order scheme
    assert gap_fine <= 0.75 * gap_coarse
    assert gap_coarse <= 10.0 * 2e-3


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def test_speed_bound_pure_transport_equality():
    traj = af.solve(af.dirac(0.0), 0.5, EvolveOptions(checkpoints=[0.0, 0.25, 0.5]))
    report = af.check_speed_bound(traj)
    assert report.passed
    for chk in report.checks:
        assert abs(chk.measured - (chk.v - chk.u)) < 1e-12


def test_speed_bound_critical_runs():
    for pi0 in (small_fixed_point(), af.two_atom(0.5)):
        traj = af.solve(pi0, 0.3, EvolveOptions(
            dt=1e-3, checkpoints=np.linspace(0, 0.3, 4)))
        assert af.check_speed_bound(traj).passed


def test_mean_growth_and_tail_domination():
    pi0 = small_fixed_point()
    traj = af.solve(pi0, 0.3, EvolveOptions(
        dt=1e-3, checkpoints=np.linspace(0, 0.3, 4)))
    report = af.check_mean_growth(traj)
    assert report.passed
    # stationary profile keeps its mean near 2 ln 2, strictly below the cap
    mean_end = traj.states[-1].pi.first_moment()
    assert abs(mean_end - 2.0 * math.log(2.0)) < 2e-2
    assert mean_end < 0.3 + pi0.first_moment()


def _mean_growth_loop(traj, slack=1e-9):
    """Reference audit: one masked sum per grid point and state."""
    pi0, t0 = traj.states[0].pi, traj.states[0].t
    mean0 = pi0.first_moment()
    locs = pi0.locations
    grid = np.concatenate(([0.0], 0.5 * (locs[1:] + locs[:-1])))
    checks = []
    for s in traj.states:
        dt = s.t - t0
        checks.append((s.pi.first_moment(),
                       s.pi.first_moment() <= dt + mean0 + slack))
        tails_t = np.array([s.pi.masses[s.pi.locations >= x + dt].sum()
                            for x in grid])
        tails_0 = np.array([pi0.masses[pi0.locations >= x].sum()
                            for x in grid])
        gap = float(np.max(tails_t - tails_0))
        checks.append((gap, gap <= slack))
    return checks


def test_mean_growth_matches_per_point_loop():
    traj = af.solve(small_fixed_point(), 0.3, EvolveOptions(
        dt=1e-3, checkpoints=np.linspace(0, 0.3, 7)))
    report = af.check_mean_growth(traj)
    expect = _mean_growth_loop(traj)
    assert len(report.checks) == len(expect)
    for chk, (measured, passed) in zip(report.checks, expect):
        assert abs(chk.measured - measured) <= 1e-14
        assert chk.passed == passed


def test_mean_growth_equality_in_transport():
    traj = af.solve(af.dirac(0.0), 0.5, EvolveOptions(checkpoints=[0.0, 0.5]))
    s = traj.state_at(0.5)
    assert abs(s.pi.first_moment() - (0.5 + 0.0)) < 1e-12


def test_weight_decay_floor():
    # every surviving initial atom keeps at least exp(-max(phi * theta_sup) t)
    pi0 = small_fixed_point()
    k = pi0.n_atoms
    opts = EvolveOptions(dt=1e-3, merge_eps=0.0, checkpoints=[0.0, 0.2])
    traj = af.solve(pi0, 0.2, opts)
    ceiling = max(s.phi * af.theta_sup(s.pair) for s in traj.states)
    end = traj.state_at(0.2)
    surviving = end.pi.masses[-k:]  # newborns enter at age 0, originals stay on top
    ratio = surviving / pi0.masses
    assert (ratio >= math.exp(-ceiling * 0.2) - 1e-9).all()
    assert (ratio <= 1.0 + 1e-15).all()


def test_phi_stays_in_unit_interval_along_run():
    traj = af.solve(af.two_atom(0.5), 0.5, EvolveOptions(
        dt=1e-3, checkpoints=np.linspace(0, 0.5, 6)))
    for s in traj.states:
        assert 0.0 < s.phi <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_stability_requires_distinct_critical_inputs():
    m = af.two_atom(0.5)
    with pytest.raises(af.InputError):
        af.stability_experiment(m, m, 0.5)
    with pytest.raises(af.InputError):
        af.stability_experiment(m, af.dirac(0.9), 0.5)  # second input subcritical


def test_stability_ratio_bounded_by_fitted_rate():
    pi0 = small_fixed_point()
    pert = af.perturb_mass_at_zero(pi0, 0.02)
    res = af.stability_experiment(pi0, pert, 0.5, EvolveOptions(
        dt=2e-3, checkpoints=np.linspace(0, 0.5, 6)))
    assert res.initial_gap > 0
    assert np.isfinite(res.c1)
    assert res.bound_holds()


def test_stability_linear_response(monkeypatch):
    # doubling the perturbation roughly doubles the gap at t = 1; perturb
    # along the flow direction (evolved states stay critical and the W1
    # response there is smooth, unlike re-criticalized mass perturbations)
    s = 0.02
    base = af.solve(af.two_atom(0.5), 0.5 + 2 * s, EvolveOptions(
        dt=1e-3, checkpoints=[0.0, 0.5, 0.5 + s, 0.5 + 2 * s]))
    pi0 = base.state_at(0.5).pi
    # integrator states carry O(dt) eigenvalue drift; widen the criticality
    # gate to the drift budget when replaying them as initial data
    monkeypatch.setattr(af.evolution, "CRIT_TOL", 1e-3)
    opts = EvolveOptions(dt=1e-3, checkpoints=[0.0, 1.0])
    r1 = af.stability_experiment(pi0, base.state_at(0.5 + s).pi, 1.0, opts)
    r2 = af.stability_experiment(pi0, base.state_at(0.5 + 2 * s).pi, 1.0, opts)
    gap1 = r1.ratios[-1] * r1.initial_gap
    gap2 = r2.ratios[-1] * r2.initial_gap
    assert abs(gap2 / gap1 - 2.0) < 0.4  # within 20% of doubling


def test_perturbations_are_critical():
    pi0 = small_fixed_point()
    for pert in (af.perturb_mass_at_zero(pi0, 0.05), af.perturb_scale(pi0, 0.97)):
        assert abs(af.leading_eigenvalue(pert) - 1.0) <= 1e-9
        assert af.w1(pert, pi0) > 0


def test_lyapunov_fixed_point_stays_put():
    pi0 = small_fixed_point()
    res = af.lyapunov_experiment(pi0, 0.3, EvolveOptions(
        dt=1e-3, checkpoints=np.linspace(0, 0.3, 4)), reference=pi0)
    assert res.distances[0] == 0.0
    assert res.distances.max() < 2e-2


def test_lyapunov_reports_but_never_fails():
    res = af.lyapunov_experiment(af.two_atom(0.5), 1.0, EvolveOptions(
        dt=2e-3, checkpoints=np.linspace(0, 1, 6)),
        reference=af.fixed_point_measure(400, 30.0))
    assert res.times.size == 6
    assert res.increases >= 0  # informational only
    assert res.distances[-1] < res.distances[0]  # drifts toward stationarity


# ---------------------------------------------------------------------------
# trajectory files
# ---------------------------------------------------------------------------

def test_write_trajectory(tmp_path):
    pi0 = small_fixed_point()
    traj = af.solve(pi0, 0.1, EvolveOptions(dt=1e-3, checkpoints=[0.0, 0.1]))
    af.write_trajectory(traj, tmp_path, reference=pi0)
    lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,lambda,phi,mean_age,atom_count,w1_to_fixed_point,mass_defect"
    assert len(lines) == 3
    assert (tmp_path / "snapshot_t0.000000.csv").exists()
    assert (tmp_path / "snapshot_t0.100000.csv").exists()
    back = af.AgeMeasure.from_csv(tmp_path / "snapshot_t0.100000.csv")
    assert af.w1(back, traj.state_at(0.1).pi) < 1e-12
