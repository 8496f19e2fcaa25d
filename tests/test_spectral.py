"""Leading eigenpair, burning rate, reconstruction, and explicit bounds."""

import inspect
import math
import pickle
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import agefire as af
from agefire.spectral import (EIGEN_TOL, MAX_ITERS, SQUARED_START_ATOMS,
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


#: lam2 / lam1 ~ 0.99943 and lam ~ 8e-8: the residual shrinks by ~0.057 %
#: per sweep, and the solve takes ~39 000 sweeps; theta reaches 3.5e3
_NEAR_DEGENERATE = af.AgeMeasure([8e-8, 1.0], [1 - 8e-8, 8e-8])


@pytest.mark.parametrize("measure, k, theta_size", [
    *((af.fixed_point_measure(200, 40.0), k, 1.0)
      for k in (-1000, -600, 600, 1000)),
    (_NEAR_DEGENERATE, 0, 3.6e3), (_NEAR_DEGENERATE, 25, 3.6e3)],
    ids=["-1000", "-600", "600", "1000", "near-degenerate-0",
         "near-degenerate-25"])
def test_leading_pair_is_homogeneous_in_the_ages(measure, k, theta_size):
    # the loop iterates on the ages over a power of two and its stopping
    # rule is relative, so scaling the ages by 2^k scales lam by 2^k to the
    # bit and leaves theta and the sweeps as they are
    pair = af.leading_pair(measure)
    scaled = af.leading_pair(
        af.AgeMeasure(np.ldexp(measure.locations, k), measure.masses))
    assert scaled.lam == math.ldexp(pair.lam, k)
    assert np.array_equal(scaled.theta, pair.theta)
    assert scaled.iterations == pair.iterations
    assert scaled.residual == math.ldexp(pair.residual, k)
    # the theta-form residual is that of lam * theta
    assert scaled.residual <= 1e-10 * scaled.lam * theta_size


@pytest.mark.parametrize("seed", [262, 394])
def test_stall_waits_for_rho_to_stop_rising(seed):
    # from the all-ones start the max-norm residual of these measures first
    # rises for over 40 sweeps while rho climbs; a stall read from the
    # residual alone stopped there, and the theta-form audit then failed
    rng = np.random.default_rng(seed)
    x = np.sort(10 ** rng.uniform(-10, 6, size=100))
    w = 10 ** rng.uniform(-300, -3, size=100)
    m = af.AgeMeasure(x, w)
    pair = af.leading_pair(m)
    assert pair.iterations > 300
    lam_o, _ = dense_leading(m)
    assert abs(pair.lam - lam_o) <= 1e-12 * lam_o


def test_power_loop_runs_at_least_two_sweeps():
    # one sweep from the squared start meets the residual rule here, but
    # its theta-form residual fails the post-loop audit; the second passes
    m = af.AgeMeasure(
        [4.739114763610574e-10, 7.2533061739271405, 9.416976157115291],
        [1.41223524519132e-05, 1.280806281167359e-29, 3.4478325941449925e-15])
    assert af.leading_pair(m).iterations == 2
    # a start at the fixed point still takes exactly two sweeps
    for m in (af.three_atom(10), af.fixed_point_measure(200, 40.0)):
        converged = af.leading_pair(m)
        assert af.leading_pair(m, start=converged.theta).iterations == 2


@pytest.mark.parametrize("k", [-500, -1, 1, 500])
def test_leading_pair_is_homogeneous_in_the_masses(k):
    # the masses are iterated on times an even power of two, so that
    # sqrt(w) scales exactly: lam(2^-2k pi) = 2^-2k lam(pi) to the bit
    for m in (af.fixed_point_measure(200, 40.0), af.two_atom(0.5),
              af.three_atom(50)):
        scaled_m = af.AgeMeasure(m.locations, np.ldexp(m.masses, -2 * k))
        for start in (None, np.ones(m.n_atoms)):
            pair = af.leading_pair(m, start=start)
            scaled = af.leading_pair(scaled_m, start=start)
            assert scaled.lam == math.ldexp(pair.lam, -2 * k)
            assert np.array_equal(scaled.theta, np.ldexp(pair.theta, 2 * k))
            assert scaled.residual == pair.residual
            assert scaled.iterations == pair.iterations


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("squared", [True, False], ids=["squared", "loop"])
def test_tiny_total_mass_is_solved_at_once(squared, monkeypatch):
    # the unscaled iteration underflowed here and ran 100 000 NaN sweeps
    if not squared:
        monkeypatch.setattr(af.spectral, "SQUARED_START_ATOMS", 0)
    tiny = af.AgeMeasure([1.0, 2.0, 3.0], [1e-300, 2e-300, 1e-300])
    began = time.perf_counter()
    pair = af.leading_pair(tiny)
    assert time.perf_counter() - began < 0.1
    ref = af.leading_pair(af.AgeMeasure([1.0, 2.0, 3.0], [1.0, 2.0, 1.0]))
    assert pair.lam == pytest.approx(ref.lam * 1e-300, rel=1e-14)
    np.testing.assert_allclose(pair.theta, ref.theta * 1e300, rtol=1e-13)
    assert pair.residual <= 1e-10 * ref.lam


def test_non_finite_residual_stops_at_once(monkeypatch):
    # a sweep that gives NaN ends the loop at once, not after MAX_ITERS
    monkeypatch.setattr(af.spectral, "min_kernel_apply",
                        lambda x, u: np.full(u.size, math.nan))
    m = af.AgeMeasure([1.0, 2.0, 3.0], [0.25, 0.5, 0.25])
    began = time.perf_counter()
    with pytest.raises(af.IterationLimitError) as err:
        af.leading_pair(m, start=np.ones(3))
    assert time.perf_counter() - began < 0.1
    assert math.isnan(err.value.residual)


@pytest.mark.filterwarnings("error")
def test_start_is_read_by_its_direction():
    # a start times 2^1020, whose norm overflows, gives the pair of the
    # start to the bit; an all-zero start is the all-ones start
    m = af.AgeMeasure([1.0, 2.0, 3.0], [0.25, 0.5, 0.25])
    start = np.array([0.3, 0.9, 1.7])
    pair = af.leading_pair(m, start=start)
    scaled = af.leading_pair(m, start=np.ldexp(start, 1020))
    assert scaled.lam == pair.lam
    assert np.array_equal(scaled.theta, pair.theta)
    assert scaled.iterations == pair.iterations
    huge = af.leading_pair(m, start=np.full(3, 1e308))
    ones = af.leading_pair(m, start=np.ones(3))
    zero = af.leading_pair(m, start=np.zeros(3))
    for p in (huge, zero):
        assert p.lam == ones.lam and np.array_equal(p.theta, ones.theta)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("start", [None, np.ones(3)], ids=["cold", "warm"])
def test_non_finite_total_mass_is_an_input_error(start, monkeypatch):
    # every mass is finite, but their sum overflows: the measure itself is
    # rejected, so no eigen-solve starts
    sweeps = []
    monkeypatch.setattr(af.spectral, "min_kernel_apply",
                        lambda x, u: sweeps.append(1) or min_kernel_apply(x, u))
    with pytest.raises(af.InputError, match="total mass"):
        af.leading_pair(af.AgeMeasure([1.0, 2.0, 3.0], [1e308, 1e308, 1e308]),
                        start=start)
    assert sweeps == []


@pytest.mark.filterwarnings("error")
def test_eigenvalue_that_overflows_is_an_input_error():
    # lam = 0.87 * 2^1030 does not fit; lam near the largest float does
    huge = af.AgeMeasure([1e300], [1e10])
    for solve in (af.leading_pair, af.phi):
        with pytest.raises(af.InputError, match=r"eigenvalue .* 2\^1030"):
            solve(huge)
    assert af.leading_pair(af.AgeMeasure([1e300], [1.7e8])).lam == \
        pytest.approx(1.7e308, rel=1e-12)


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


def test_iteration_limit_error_reports_residual(monkeypatch):
    m = af.three_atom(50)  # slow eigen gap, cannot converge in 2 sweeps
    monkeypatch.setattr(af.spectral, "MAX_ITERS", 2)
    with pytest.raises(af.IterationLimitError, match="in 2 sweeps") as err:
        af.leading_pair(m)
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


def _oracle_leading_pair(measure, *, start=None, sym_start=None):
    """Oracle: the power loop with two-scan products and np.linalg.norm.

    ``sym_start`` is a start in symmetrized coordinates (theta * sqrt(w)),
    such as the squared start of a small cold solve.
    """
    xp, wp, has_zero_atom = _positive_part(measure)
    d = np.sqrt(wp)
    if sym_start is not None:
        v = sym_start
    elif start is None:
        v = d.copy()
    else:
        s = np.asarray(start, dtype=float)
        v = np.maximum(s[-xp.size:] if has_zero_atom else s, 0.0) * d
    norm = np.linalg.norm(v)
    v = d / np.linalg.norm(d) if norm == 0.0 else v / norm
    best_resid = np.inf
    best_rho = -np.inf
    stalled = 0
    iters = 0
    while True:
        mv = d * _two_scan_min_kernel_apply(xp, d * v)
        rayleigh = float(v @ mv)
        resid_sym = float(np.max(np.abs(mv - rayleigh * v)))
        v = mv / np.linalg.norm(mv)
        iters += 1
        if resid_sym < best_resid or rayleigh > best_rho:
            stalled = 0
        else:
            stalled += 1
        best_resid = min(best_resid, resid_sym)
        best_rho = max(best_rho, rayleigh)
        resid_done = resid_sym <= EIGEN_TOL * abs(rayleigh) or stalled > 40
        if (iters > 1 and resid_done) or iters >= MAX_ITERS:
            break
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


def _spy_squared_start(monkeypatch):
    """Record every (xs, d, start) of the package's squared start."""
    calls = []
    squared_start = af.spectral._squared_start

    def spy(xs, d):
        calls.append((xs, d, squared_start(xs, d)))
        return calls[-1][2]

    monkeypatch.setattr(af.spectral, "_squared_start", spy)
    return calls


def test_leading_pair_equals_oracle_power_loop(monkeypatch):
    # a cold solve of <= SQUARED_START_ATOMS positive atoms starts from the
    # package's squared start; the oracle loop gets the same start, so the
    # loop is checked bit for bit on every path
    squared = _spy_squared_start(monkeypatch)
    rng = np.random.default_rng(29)
    measures = [af.dirac(1.0), af.two_atom(0.5), af.three_atom(10),
                af.fixed_point_measure(500, 40.0)]
    measures += [random_probability_measure(rng, max_atoms=300)
                 for _ in range(25)]
    for m in measures:
        cold = af.leading_pair(m)
        starts = [None, cold.theta,
                  cold.theta * rng.uniform(0.9, 1.1, size=m.n_atoms)]
        small = _positive_part(m)[0].size <= SQUARED_START_ATOMS
        for start in starts:
            squared.clear()
            pair = af.leading_pair(m, start=start)
            assert len(squared) == (start is None and small)
            sym_start = squared[0][2] if squared else None
            lam, theta, residual, iters = _oracle_leading_pair(
                m, start=start, sym_start=sym_start)
            assert pair.lam == lam and pair.iterations == iters
            assert np.array_equal(pair.theta, theta)
            assert pair.residual == residual


def _cold_path_measures(rng):
    """Measures for the two cold starts: both sides of the size limit, zero
    atoms, tiny ages and tiny masses."""
    limit = SQUARED_START_ATOMS
    out = [af.dirac(2.0), af.two_atom(0.5), af.three_atom(50),
           af.AgeMeasure([0.0, 3.0], [0.5, 0.25])]
    for n in (1, 2, limit - 1, limit, limit + 1):
        for zero_atom_prob in (0.0, 1.0):
            out.append(random_probability_measure(
                rng, max_atoms=n, min_atoms=n, zero_atom_prob=zero_atom_prob))
    while len(out) < 240:
        m = random_probability_measure(rng, max_atoms=limit + 6)
        x, w = m.locations, m.masses
        kind = len(out) % 4
        if kind == 1:  # every age near 1e-200
            m = af.AgeMeasure(x * 1e-200, w)
        elif kind == 2:  # some ages near 1e-200 beside ordinary ones
            m = af.AgeMeasure(np.where(rng.random(x.size) < 0.5, x * 1e-200, x), w)
        elif kind == 3:  # some masses near 1e-300
            tiny = rng.random(x.size) < 0.5
            tiny[-1] = False  # keep one ordinary mass
            m = af.AgeMeasure(x, np.where(tiny, w * 1e-300, w))
        out.append(m)
    return out


def test_squared_cold_start_matches_power_loop(monkeypatch):
    rng = np.random.default_rng(31)
    squared = _spy_squared_start(monkeypatch)
    for m in _cold_path_measures(rng):
        n_pos = _positive_part(m)[0].size
        squared.clear()
        pair = af.leading_pair(m)
        assert len(squared) == (n_pos <= SQUARED_START_ATOMS)
        with monkeypatch.context() as loop_only:
            loop_only.setattr(af.spectral, "SQUARED_START_ATOMS", 0)
            loop = af.leading_pair(m)
        assert len(squared) == (n_pos <= SQUARED_START_ATOMS)  # loop only
        assert abs(pair.lam - loop.lam) <= 1e-12 * loop.lam
        np.testing.assert_allclose(pair.theta, loop.theta, rtol=1e-7, atol=1e-9)
        assert pair.residual <= 1e-10 * pair.lam
        if squared:  # the start is K^32 d: 32 sweeps from the all-ones theta
            xs, d, got = squared[0]
            k = d[:, None] * np.minimum.outer(xs, xs) * d[None, :]
            want = np.linalg.matrix_power(k / np.trace(k), 32) @ d
            assert np.max(np.abs(got / np.linalg.norm(got)
                                 - want / np.linalg.norm(want))) <= 1e-12


def test_min_kernel_apply_matches_dense():
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0, 10, size=37))
    u = rng.normal(size=37)
    dense = np.minimum.outer(x, x) @ u
    np.testing.assert_allclose(min_kernel_apply(x, u), dense, rtol=1e-12)


def test_normalization_weighted_not_plain():
    m = af.AgeMeasure([1.0, 3.0], [0.2, 0.8])
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


def test_phi_of_pair_matches_power_oracle():
    # theta * theta * theta rounds twice where theta ** 3 rounds about once,
    # so each cube moves by at most ~2 ulp, and the sum of positive terms by
    # no more plus a few ulp of summation order: 8 eps relative covers both
    rng = np.random.default_rng(3)
    measures = [af.fixed_point_measure(n, 40.0) for n in (10, 2000, 16000)]
    measures += [random_probability_measure(rng, 400) for _ in range(100)]
    for m in measures:
        pair = af.leading_pair(m)
        want = 1.0 / float((pair.theta ** 3 * m.masses).sum())
        assert af.phi_of_pair(pair) == pytest.approx(
            want, rel=8 * np.finfo(float).eps, abs=0.0)


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


def test_theta_to_pi_rejects_nonconcave():
    with pytest.raises(af.InputError):
        af.theta_to_pi(1.0, [(1.0, 0.5), (2.0, 2.0)])  # slope rises 0.5 -> 1.5
    with pytest.raises(af.InputError):
        af.theta_to_pi(-1.0, [(1.0, 1.0)])


def test_theta_to_pi_rejects_a_slope_that_overflows():
    with pytest.raises(af.InputError, match="slope"):
        af.theta_to_pi(1.0, [(1e-300, 1e300)])


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
    completed = af.AgeMeasure(
        np.concatenate(([0.0], rebuilt.locations)),
        np.concatenate(([1.0 - rebuilt.total_mass()], rebuilt.masses)))
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


def test_bounds_of_huge_and_tiny_measures():
    # the HS bound sums its squares on scaled ages and masses; a bound that
    # does not fit in a float is an InputError
    assert af.lambda_upper_bounds(af.AgeMeasure([1e200], [1.0])) == (1e200, 1e200)
    assert af.lambda_upper_bounds(af.AgeMeasure([1.0], [1e200])) == (1e200, 1e200)
    assert af.lambda_upper_bounds(af.AgeMeasure([1e-200], [1.0])) == (1e-200, 1e-200)
    with pytest.raises(af.InputError, match="first moment"):
        af.lambda_upper_bounds(af.AgeMeasure([1.7e308, 1.79e308], [1.0, 1.0]))
    with pytest.raises(af.InputError, match="lower bound"):
        af.lambda_lower_bound(af.AgeMeasure([1e200], [1e200]))


def test_hs_bound_keeps_the_bits_of_the_unscaled_sum():
    rng = np.random.default_rng(37)
    measures = [af.dirac(2.5), af.two_atom(0.5), af.three_atom(10),
                af.fixed_point_measure(2000, 40.0)]
    measures += [random_probability_measure(rng) for _ in range(50)]
    for m in measures:
        x, w = m.locations, m.masses
        cum_w, cum_x2w = np.cumsum(w), np.cumsum(x * x * w)
        hs_sq = float(w @ (cum_x2w + x * x * (cum_w[-1] - cum_w)))
        assert af.lambda_upper_bounds(m) == (m.first_moment(), math.sqrt(hs_sq))


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


def test_hs_bound_of_a_heavy_atom_at_a_tiny_age():
    # x^2 = 1e-600 of the heavy atom underflows on its own; its x^2 w = 1e-300
    # does not, and lam = HS = mean = 1 (the light atom adds ~1e-600)
    m = af.AgeMeasure([1e-300, 1.0], [1e300, 1e-300])
    assert af.lambda_lower_bound(m) == 1.0
    assert af.lambda_upper_bounds(m) == (1.0, 1.0)


# a positive float m * 2^e with m in [1, 2) and e in [-1000, 1000]
WIDE_FLOATS = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                        st.integers(-1000, 1000))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(atoms=st.lists(st.tuples(WIDE_FLOATS, WIDE_FLOATS), min_size=1,
                      max_size=8))
def test_bounds_keep_their_order_across_the_float_range(atoms):
    # lower <= HS <= mean on ages and masses from 1e-301 to 1e301, kept to
    # measures whose bounds are normal floats
    total = math.fsum(w for _, w in atoms)
    assume(math.isfinite(total))
    m = af.AgeMeasure([x for x, _ in atoms], [w for _, w in atoms])
    try:
        lo = af.lambda_lower_bound(m)
        mean, hs = af.lambda_upper_bounds(m)
    except af.InputError:   # x * mass overflows
        assume(False)
    assume(lo > 1e-290)
    assert lo <= hs * (1 + 1e-12)
    assert hs <= mean * (1 + 1e-12)


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
