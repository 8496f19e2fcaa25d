"""Leading eigenpair, burning rate, reconstruction, and explicit bounds."""

import inspect
import math
import pickle

import numpy as np
import pytest

import agefire as af
from agefire.spectral import min_kernel_apply
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
    with pytest.raises(af.InputError):
        af.theta_at(pair, -0.5)


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
