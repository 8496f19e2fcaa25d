"""Leading eigenpair, burning rate, reconstruction, and explicit bounds."""

import inspect
import math
import pickle

import numpy as np
import pytest

import agefire as af
from agefire.spectral import (EIGEN_TOL, MAX_ITERS, _RESID_FRAC,
                              _positive_part, min_kernel_apply)
from agefire.validation import random_probability_measure


def dense_leading(measure):
    """Oracle: full symmetric eigensolve of the weighted kernel matrix."""
    pos = measure.locations > 0
    x, w = measure.locations[pos], measure.masses[pos]
    sym = np.sqrt(w)[:, None] * np.minimum.outer(x, x) * np.sqrt(w)[None, :]
    vals, vecs = np.linalg.eigh(sym)
    lam = float(vals[-1])
    theta = vecs[:, -1] / np.sqrt(w)
    theta = np.abs(theta) / float(np.abs(theta) @ w)
    return lam, theta


# ---------------------------------------------------------------------------
# leading_pair
# ---------------------------------------------------------------------------

def test_single_atom_pair():
    pair = af.leading_pair(af.dirac(1.0))
    assert abs(pair.lam - 1.0) < 1e-14
    assert abs(pair.theta[0] - 1.0) < 1e-14
    assert pair.residual < 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [5e-324, 2.2e-308, 2.5e-237, 1e-200, 1e300, 1.7e308])
def test_single_atom_pair_at_extreme_ages(a):
    # lam(delta_a) = a; before the ages were scaled, mv @ mv underflowed
    # to 0 for tiny a and the power iteration ran into its sweep cap
    pair = af.leading_pair(af.dirac(a))
    assert pair.lam == a and pair.theta.tolist() == [1.0]
    assert pair.residual == 0.0


@pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
def test_leading_pair_is_homogeneous_in_the_ages(k):
    m = af.fixed_point_measure(200, 40.0)
    pair = af.leading_pair(m)
    scaled = af.leading_pair(af.AgeMeasure(np.ldexp(m.locations, k), m.masses))
    assert scaled.lam == pytest.approx(math.ldexp(pair.lam, k), rel=1e-12)
    np.testing.assert_allclose(scaled.theta, pair.theta, rtol=1e-10)
    assert scaled.residual <= 1e-10 * scaled.lam


def test_two_atom_pair_closed_form():
    pair = af.leading_pair(af.two_atom(0.5))
    assert abs(pair.lam - 1.0) < 1e-12
    assert pair.theta[0] == 0.0
    assert abs(pair.theta[1] - 2.0) < 1e-12


def test_three_atom_pair_closed_form():
    for n in (5, 10, 50):
        pair = af.leading_pair(af.three_atom(n))
        assert abs(pair.lam - 1.0) < 1e-10
        assert abs(pair.theta[1] - 1.0) < 1e-10
        assert abs(pair.theta[2] - (n + 1.0 - 1.0 / n)) < 1e-8 * n


def test_degenerate_measure_rejected():
    with pytest.raises(af.DegenerateOperatorError):
        af.leading_pair(af.dirac(0.0))
    assert af.leading_eigenvalue(af.dirac(0.0)) == 0.0


def test_bad_start_rejected_before_the_first_sweep(monkeypatch):
    m = af.fixed_point_measure(200, 40.0)
    sweeps = []
    monkeypatch.setattr(af.spectral, "min_kernel_apply",
                        lambda x, u: sweeps.append(1) or min_kernel_apply(x, u))
    for bad in (math.nan, math.inf, -math.inf):
        start = np.ones(m.n_atoms)
        start[57] = bad
        with pytest.raises(af.InputError, match="finite"):
            af.leading_pair(m, start=start)
    with pytest.raises(af.InputError, match="align"):
        af.leading_pair(m, start=np.ones(m.n_atoms + 1))
    assert sweeps == []
    assert af.leading_pair(m, start=np.ones(m.n_atoms)).iterations == len(sweeps) - 1


def test_iteration_limit_error_reports_residual():
    m = af.three_atom(50)  # slow eigen gap, cannot converge in 2 sweeps
    with pytest.raises(af.IterationLimitError) as err:
        af.leading_pair(m, max_iters=2)
    assert err.value.residual > 0.0
    again = pickle.loads(pickle.dumps(err.value))
    assert (str(again), again.residual) == (str(err.value), err.value.residual)


def test_every_error_survives_pickling():
    # errors must cross a process boundary with their message and fields
    classes = [c for _, c in inspect.getmembers(af.errors, inspect.isclass)
               if issubclass(c, af.AgefireError)]
    assert af.IterationLimitError in classes and len(classes) == 6
    for cls in classes:
        err = cls("went wrong", residual=0.25) \
            if cls is af.IterationLimitError else cls("went wrong")
        again = pickle.loads(pickle.dumps(err))
        assert type(again) is cls
        assert (str(again), again.args) == ("went wrong", ("went wrong",))
        assert vars(again) == vars(err)


def test_matches_dense_eigensolver_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = random_probability_measure(rng, max_atoms=30)
        pair = af.leading_pair(m)
        lam_o, theta_o = dense_leading(m)
        assert abs(pair.lam - lam_o) < 1e-11 * max(1.0, lam_o)
        pos = m.locations > 0
        np.testing.assert_allclose(pair.theta[pos], theta_o, rtol=1e-7, atol=1e-9)


def _two_scan_min_kernel_apply(locations, u):
    """Oracle: the kernel product with one real cumsum per prefix sum."""
    cum_u = np.cumsum(u)
    cum_xu = np.cumsum(locations * u)
    return cum_xu + locations * (cum_u[-1] - cum_u)


def _oracle_leading_pair(measure, *, eigen_tol=EIGEN_TOL, max_iters=MAX_ITERS,
                         start=None):
    """Oracle: the power loop with two-scan products and np.linalg.norm."""
    xp, wp, has_zero_atom = _positive_part(measure)
    d = np.sqrt(wp)
    if start is None:
        v = d.copy()
    else:
        s = np.asarray(start, dtype=float)
        v = np.maximum(s[-xp.size:] if has_zero_atom else s, 0.0) * d
    norm = np.linalg.norm(v)
    v = d / np.linalg.norm(d) if norm == 0.0 else v / norm
    rayleigh_old = np.inf
    best_resid = np.inf
    stalled = 0
    iters = 0
    while True:
        mv = d * _two_scan_min_kernel_apply(xp, d * v)
        rayleigh = float(v @ mv)
        resid_sym = float(np.max(np.abs(mv - rayleigh * v)))
        v = mv / np.linalg.norm(mv)
        iters += 1
        if resid_sym < 0.999 * best_resid:
            best_resid = resid_sym
            stalled = 0
        else:
            stalled += 1
        rq_done = abs(rayleigh - rayleigh_old) < eigen_tol * max(1.0, abs(rayleigh))
        resid_done = resid_sym <= _RESID_FRAC * abs(rayleigh) or stalled > 40
        if (rq_done and resid_done) or iters >= max_iters:
            break
        rayleigh_old = rayleigh
    lam = rayleigh
    theta_pos = np.maximum(v, 0.0) / d
    theta_pos /= float(theta_pos @ wp)
    residual = float(np.max(np.abs(
        lam * theta_pos - _two_scan_min_kernel_apply(xp, theta_pos * wp))))
    theta = np.concatenate(([0.0], theta_pos)) if has_zero_atom else theta_pos
    return lam, theta, residual, iters


def test_min_kernel_apply_equals_two_scan_oracle():
    rng = np.random.default_rng(23)
    cases = [(np.array([2.5]), np.array([-1.25])),
             (np.array([0.0]), np.array([3.0])),
             (np.array([0.0, 0.5, 4.0]), rng.normal(size=3))]
    for n in (2, 7, 100, 1000, 2500, 5000):
        x = np.sort(rng.exponential(rng.uniform(0.5, 20.0), size=n))
        if n % 2:
            x[0] = 0.0  # an atom at age 0
        cases.append((x, rng.normal(size=n)))
        cases.append((x, rng.uniform(0.0, 1e-3, size=n)))
    for x, u in cases:
        got = min_kernel_apply(x, u)
        assert got.dtype == np.float64 and got.shape == u.shape
        assert np.array_equal(got, _two_scan_min_kernel_apply(x, u))


def test_leading_pair_equals_oracle_power_loop():
    rng = np.random.default_rng(29)
    measures = [af.dirac(1.0), af.two_atom(0.5), af.three_atom(10),
                af.fixed_point_measure(500, 40.0)]
    measures += [random_probability_measure(rng, max_atoms=300)
                 for _ in range(25)]
    for m in measures:
        cold = af.leading_pair(m)
        starts = [None, cold.theta,
                  cold.theta * rng.uniform(0.9, 1.1, size=m.n_atoms)]
        for start in starts:
            pair = af.leading_pair(m, start=start)
            lam, theta, residual, iters = _oracle_leading_pair(m, start=start)
            assert pair.lam == lam and pair.iterations == iters
            assert np.array_equal(pair.theta, theta)
            assert pair.residual == residual


def test_min_kernel_apply_matches_dense():
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0, 10, size=37))
    u = rng.normal(size=37)
    dense = np.minimum.outer(x, x) @ u
    np.testing.assert_allclose(min_kernel_apply(x, u), dense, rtol=1e-12)


def test_normalization_weighted_not_plain():
    m = af.from_atoms([(1.0, 0.2), (3.0, 0.8)])
    pair = af.leading_pair(m)
    assert abs(float(pair.theta @ m.masses) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# theta extension
# ---------------------------------------------------------------------------

def test_theta_at_examples():
    pair = af.leading_pair(af.two_atom(0.5))
    assert abs(af.theta_at(pair, 1.0) - 1.0) < 1e-12
    assert af.theta_at(pair, 0.0) == 0.0
    assert abs(af.theta_at(pair, 10.0) - 2.0) < 1e-12
    for age in (-0.5, math.nan, math.inf, np.array([0.5, math.nan, 2.0])):
        with pytest.raises(af.InputError):
            af.theta_at(pair, age)


def test_theta_extension_shape():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = random_probability_measure(rng)
        pair = af.leading_pair(m)
        s = np.linspace(0.0, float(m.locations.max()) * 1.5 + 1.0, 50)
        vals = af.theta_at(pair, s)
        assert vals[0] == 0.0
        assert (np.diff(vals) >= -1e-12).all()
        slopes = np.diff(vals) / np.diff(s)
        assert (np.diff(slopes) <= 1e-10).all()
        # interpolation agrees with the eigenvector at the atoms
        np.testing.assert_allclose(af.theta_at(pair, m.locations), pair.theta,
                                   rtol=1e-10, atol=1e-12)


def test_theta_sup():
    for p in (0.1, 0.25, 0.5, 1.0):
        pair = af.leading_pair(af.two_atom(p))
        assert abs(af.theta_sup(pair) - 1.0 / p) < 1e-10 / p
    assert abs(af.theta_sup(af.leading_pair(af.dirac(1.0))) - 1.0) < 1e-14
    fp_pair = af.leading_pair(af.fixed_point_measure(2000, 40.0))
    assert abs(af.theta_sup(fp_pair) - 2.0) < 1e-3


# ---------------------------------------------------------------------------
# burning rate
# ---------------------------------------------------------------------------

def test_phi_closed_forms():
    assert abs(af.phi(af.dirac(1.0)) - 1.0) < 1e-12
    for p in (0.1, 0.25, 0.5, 1.0):
        assert abs(af.phi(af.two_atom(p)) - p * p) < 1e-12
    assert abs(af.phi(af.fixed_point_measure(2000, 40.0)) - 0.5) < 2e-3


def test_phi_degenerate_propagates():
    with pytest.raises(af.DegenerateOperatorError):
        af.phi(af.dirac(0.0))


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_theta_to_pi_single_kink():
    rebuilt = af.theta_to_pi(1.0, [(2.0, 2.0)])
    assert rebuilt.locations.tolist() == [2.0]
    assert abs(rebuilt.masses[0] - 0.5) < 1e-15


def test_theta_to_pi_linear_theta_gives_empty_measure():
    out = af.theta_to_pi(1.0, [(1.0, 0.5), (2.0, 1.0)], final_slope=0.5)
    assert out.n_atoms == 0


def test_theta_to_pi_rejects_nonconcave():
    with pytest.raises(af.InputError):
        af.theta_to_pi(1.0, [(1.0, 0.5), (2.0, 2.0)])  # slope rises 0.5 -> 1.5
    with pytest.raises(af.InputError):
        af.theta_to_pi(1.0, [(1.0, 1.0)], final_slope=-0.5)
    with pytest.raises(af.InputError):
        af.theta_to_pi(-1.0, [(1.0, 1.0)])


def test_round_trip_five_atoms():
    rng = np.random.default_rng(33)
    for _ in range(50):
        m = random_probability_measure(rng, max_atoms=5, min_atoms=2,
                                       zero_atom_prob=0.0)
        pair = af.leading_pair(m)
        rebuilt = af.theta_to_pi(pair.lam, af.pair_to_kinks(pair))
        assert af.w1(rebuilt, m) <= 1e-8


def test_round_trip_positive_part_only():
    m = af.two_atom(0.5)
    pair = af.leading_pair(m)
    rebuilt = af.theta_to_pi(pair.lam, af.pair_to_kinks(pair))
    # only the atom away from 0 comes back; callers re-add the 0 atom
    assert rebuilt.n_atoms == 1
    assert abs(rebuilt.locations[0] - 2.0) < 1e-12
    assert abs(rebuilt.masses[0] - 0.5) < 1e-12
    completed = af.from_atoms(
        [(0.0, 1.0 - rebuilt.total_mass())]
        + list(zip(rebuilt.locations, rebuilt.masses)))
    assert af.w1(completed, m) < 1e-12


# ---------------------------------------------------------------------------
# explicit bounds
# ---------------------------------------------------------------------------

def test_lambda_lower_bound_examples():
    for p in (0.1, 0.5, 1.0):
        assert abs(af.lambda_lower_bound(af.two_atom(p)) - 1.0) < 1e-14
    assert abs(af.lambda_lower_bound(af.dirac(2.5)) - 2.5) < 1e-14
    assert af.lambda_lower_bound(af.dirac(0.0)) == 0.0


def test_lambda_upper_bounds_examples():
    mean_bd, hs_bd = af.lambda_upper_bounds(af.dirac(2.5))
    assert abs(mean_bd - 2.5) < 1e-14 and abs(hs_bd - 2.5) < 1e-14
    mean_bd, hs_bd = af.lambda_upper_bounds(af.two_atom(0.5))
    assert abs(mean_bd - 1.0) < 1e-14 and abs(hs_bd - 1.0) < 1e-14


def test_bound_ordering_random():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = random_probability_measure(rng)
        lam = af.leading_pair(m).lam
        lo = af.lambda_lower_bound(m)
        mean_bd, hs_bd = af.lambda_upper_bounds(m)
        tol = 1e-9 * max(1.0, lam)
        assert lo <= lam + tol
        assert lam <= hs_bd + tol
        assert hs_bd <= mean_bd + tol


def test_explicit_theta_bound_examples():
    assert af.explicit_theta_bound(af.two_atom(0.5), 0.5) >= 2.0
    assert abs(af.explicit_theta_bound(af.dirac(1.0), 0.5) - math.e) < 1e-12
    with pytest.raises(af.InputError):
        af.explicit_theta_bound(af.dirac(1.0), 1.5)


def test_explicit_theta_bound_dominates_theta_sup():
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = random_probability_measure(rng)
        c = float(rng.uniform(0.15, 0.85))
        pair = af.leading_pair(m)
        assert af.explicit_theta_bound(m, c) >= af.theta_sup(pair) - 1e-9


def test_theta_upper_bound_y_over_lambda():
    rng = np.random.default_rng(19)
    for _ in range(50):
        m = random_probability_measure(rng)
        pair = af.leading_pair(m)
        pos = m.locations > 0
        assert (pair.theta[pos] <= m.locations[pos] / pair.lam + 1e-9).all()


def test_spectral_csv(tmp_path):
    pair = af.leading_pair(af.three_atom(10))
    path = tmp_path / "pair.csv"
    from agefire.spectral import spectral_csv
    spectral_csv(pair, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "location,mass,theta"
    assert len(rows) == 4
