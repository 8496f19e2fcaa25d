"""Measure representation, presets, W1 metric, and coalescing."""

import heapq
import math
import pickle

import numpy as np
import pytest
from scipy import integrate, optimize

import agefire as af
from agefire.validation import random_probability_measure


def lp_w1(a: af.AgeMeasure, b: af.AgeMeasure) -> float:
    """Independent W1 oracle: solve the optimal-coupling LP directly."""
    xa, wa = a.locations, a.masses
    xb, wb = b.locations, b.masses
    na, nb = len(xa), len(xb)
    cost = np.abs(xa[:, None] - xb[None, :]).ravel()
    a_eq = []
    for i in range(na):
        row = np.zeros((na, nb))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
    for j in range(nb):
        row = np.zeros((na, nb))
        row[:, j] = 1.0
        a_eq.append(row.ravel())
    b_eq = np.concatenate([wa, wb])
    res = optimize.linprog(cost, A_eq=np.array(a_eq), b_eq=b_eq,
                           bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------

def test_constructor_sorts_and_canonicalizes():
    m = af.AgeMeasure([2.0, 0.0], [0.5, 0.5])
    assert m.locations.tolist() == [0.0, 2.0]
    assert m.masses.tolist() == [0.5, 0.5]


def test_constructor_merges_duplicates_and_drops_zero_mass():
    m = af.AgeMeasure([1.0, 1.0, 5.0], [0.3, 0.7, 0.0])
    assert m.locations.tolist() == [1.0]
    assert m.masses.tolist() == [1.0]


def test_constructor_three_atom_family_values():
    m = af.AgeMeasure([0.0, 1.0, 100.0], [0.1 - 1 / 109, 0.9, 1 / 109])
    ref = af.three_atom(10)
    np.testing.assert_allclose(m.locations, ref.locations, rtol=0, atol=0)
    np.testing.assert_allclose(m.masses, ref.masses, rtol=1e-15)
    assert abs(m.masses[0] - 0.0908256880733945) < 1e-12


def test_constructor_rejects_bad_input():
    with pytest.raises(af.InputError):
        af.AgeMeasure([-1.0], [0.5])
    with pytest.raises(af.InputError):
        af.AgeMeasure([1.0], [-0.5])
    with pytest.raises(af.InputError):
        af.AgeMeasure([math.nan], [0.5])


def test_validation_checks_shape_then_finite_then_sign():
    # each case breaks a later check too, so only the order picks the message
    cases = [([1.0, math.nan], [0.5], "equal length"),
             ([math.nan, 1.0], [0.5, -0.5], "finite"),
             ([-1.0, 1.0], [0.5, math.inf], "finite"),
             ([-math.inf, 1.0], [0.5, 0.5], "finite"),
             ([-1.0, 1.0], [-0.5, 0.5], "locations must be >= 0"),
             ([1.0, 2.0], [0.5, -0.5], "masses must be >= 0")]
    for locs, masses, message in cases:
        with pytest.raises(af.InputError, match=message):
            af.AgeMeasure(np.array(locs), np.array(masses))


def test_empty_measure():
    for m in (af.AgeMeasure([], []), af.AgeMeasure([2.0, 1.0], [0.0, 0.0])):
        assert m.n_atoms == 0 and m.total_mass() == 0.0
        assert m.locations.shape == m.masses.shape == (0,)
        assert not m.locations.flags.writeable


def test_measures_are_immutable():
    m = af.two_atom(0.5)
    with pytest.raises(ValueError):
        m.locations[0] = 3.0


def _assert_same_values(got, want):
    """Type, field values and read-only arrays, recursing into tuples,
    measures and eigenpairs."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want) and not got.flags.writeable
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_values(g, w)
    elif isinstance(want, (af.AgeMeasure, af.SpectralPair, af.SimRecord,
                           af.EvolutionState)):
        assert vars(got).keys() == vars(want).keys()
        for name, value in vars(want).items():
            _assert_same_values(getattr(got, name), value)
    else:
        assert got == want


def test_values_survive_pickling_read_only():
    # values cross a process boundary as pickles and stay safe to share
    pi = af.fixed_point_measure(10, 40.0)
    state = af.solve(pi, 0.01, af.EvolveOptions(dt=5e-3)).states[-1]
    stepped = af.step(af.step(state, 5e-3), 5e-3)  # holds a history
    assert len(stepped.history) == 2
    record = af.run(af.sample_irg(pi.locations, seed=1), 0.5, 0.5, [0.5])[-1]
    values = [af.AgeMeasure([0.0, 1.5], [0.25, 2.0]), af.AgeMeasure([], []),
              pi, af.leading_pair(pi), state, stepped, record]
    for value in values:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            _assert_same_values(pickle.loads(pickle.dumps(value, protocol)), value)


def _sorted_canonical(locs, mass):
    """Oracle: stable sort, sum exact duplicates, drop zero masses."""
    order = np.argsort(locs, kind="stable")
    locs, mass = locs[order], mass[order]
    keys, starts = np.unique(locs, return_index=True)
    mass = np.add.reduceat(mass, starts)
    return keys[mass > 0], mass[mass > 0]


def test_canonical_input_is_copied_and_frozen():
    for n in (0, 1, 2, 500):
        locs = np.cumsum(np.full(n, 0.25))
        mass = np.linspace(1.0, 2.0, n)
        m = af.AgeMeasure(locs, mass)
        for stored, given in ((m.locations, locs), (m.masses, mass)):
            assert not np.shares_memory(stored, given)
            assert not stored.flags.writeable and given.flags.writeable
            with pytest.raises(ValueError):
                stored[...] = 7.0
        before = (m.locations.copy(), m.masses.copy())
        locs[...] = 3.0
        mass[...] = -1.0
        assert np.array_equal(m.locations, before[0])
        assert np.array_equal(m.masses, before[1])


def test_constructor_canonical_form_matches_sorting_oracle():
    rng = np.random.default_rng(41)
    for case in range(200):
        n = int(rng.integers(1, 60))
        locs = rng.choice(np.linspace(0.0, 5.0, 11 if case % 2 else 10_000), n)
        mass = rng.uniform(0.0, 1.0, n)
        if case % 3 == 0:
            mass[rng.integers(n)] = 0.0
        if case % 4 == 0:  # already canonical: the copy-only path
            locs, mass = _sorted_canonical(locs, mass)
        elif case % 4 == 1:  # sorted, but with ties
            locs = np.sort(locs)
        m = af.AgeMeasure(locs, mass)
        want = _sorted_canonical(locs, mass)
        assert np.array_equal(m.locations, want[0])
        assert np.array_equal(m.masses, want[1])
    m = af.AgeMeasure([3.0, 1.0, 3.0, 2.0, 1.0], [0.25, 0.5, 0.0, 0.0, 0.25])
    assert (m.locations.tolist(), m.masses.tolist()) == ([1.0, 3.0], [0.75, 0.25])


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_two_atom_preset():
    m = af.two_atom(0.5)
    assert m.locations.tolist() == [0.0, 2.0]
    assert m.masses.tolist() == [0.5, 0.5]
    assert m.total_mass() == 1.0
    assert m.first_moment() == 1.0


def test_dirac_preset():
    d = af.dirac(1.0)
    assert d.locations.tolist() == [1.0]
    assert d.total_mass() == 1.0
    assert af.dirac(0.0).first_moment() == 0.0


def test_preset_parameter_validation():
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(af.InputError):
            af.two_atom(bad)
    with pytest.raises(af.InputError):
        af.three_atom(1.5)
    with pytest.raises(af.InputError):
        af.fixed_point_measure(100, 10.0)  # keeps only tanh(5) < 1 - 1e-6
    # an atom count above the cap is refused before any array is built
    for count in (af.measures.MAX_ATOMS + 1, 10 ** 10, int(1e300)):
        with pytest.raises(af.InputError, match="1,000,000"):
            af.fixed_point_measure(count)


def sech2_half_density(x: float) -> float:
    # 0.5 * sech(x/2)^2 written overflow-safe for quad on [0, inf)
    e = math.exp(-x)
    return 2.0 * e / (1.0 + e) ** 2


def test_fixed_point_measure_against_quadrature_oracle():
    m = af.fixed_point_measure(2000, 40.0)
    assert m.n_atoms == 2000
    mean_oracle, err = integrate.quad(lambda x: x * sech2_half_density(x),
                                      0.0, math.inf)
    assert err < 1e-8
    assert abs(mean_oracle - 2.0 * math.log(2.0)) < 1e-9
    assert abs(m.first_moment() - mean_oracle) < 5e-3
    assert abs(m.total_mass() - 1.0) <= 1e-12
    # quantile cells carry equal mass
    assert np.ptp(m.masses) < 1e-15


def test_fixed_point_cell_means_match_quadrature():
    m = af.fixed_point_measure(64, 40.0)
    assert m.n_atoms == 64  # tail mass beyond 40 vanishes at double precision
    qs = np.linspace(0.0, 1.0, 65)
    with np.errstate(divide="ignore"):
        edges = 2.0 * np.arctanh(qs)
    edges[-1] = 40.0
    raw = []
    for a, b in zip(edges[:-1], edges[1:]):
        num, _ = integrate.quad(lambda x: x * sech2_half_density(x), a, b)
        raw.append(num / (1.0 / 64))
    scale = m.locations[0] / raw[0]
    np.testing.assert_allclose(m.locations, np.array(raw) * scale, rtol=1e-7)
    assert abs(scale - 1.0) < 5e-2  # recriticalization is a small rescale


def test_from_named_spec_strings():
    assert af.from_named("twoatom:0.5").locations.tolist() == [0.0, 2.0]
    assert af.from_named("dirac:1").locations.tolist() == [1.0]
    assert af.from_named("fixedpoint:200,40").n_atoms == 200
    with pytest.raises(af.InputError):
        af.from_named("nosuch:1")
    for count in ("3.5", "inf", "nan"):
        with pytest.raises(af.InputError, match="integer atom count"):
            af.from_named(f"fixedpoint:{count},40")


@pytest.mark.filterwarnings("error")
def test_fixed_point_truncation_is_clamped():
    # tanh(T / 2) is 1.0 past T ~ 38; past MAX_TRUNCATION = 64 a larger
    # truncation only loses digits in the last cell's mean
    capped = af.fixed_point_measure(10, 64.0)
    for truncation in (1e12, 1e15, 1e300, math.inf):
        m = af.fixed_point_measure(10, truncation)
        assert np.array_equal(m.locations, capped.locations)
        assert np.array_equal(m.masses, capped.masses)
    assert np.array_equal(af.from_named("fixedpoint:1,1e300").locations,
                          af.fixed_point_measure(1, 64.0).locations)
    for truncation in (math.nan, -1.0, 0.0, 10.0):
        with pytest.raises(af.InputError, match="truncation"):
            af.fixed_point_measure(10, truncation)


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def test_moments_examples():
    pn = af.three_atom(10)
    assert abs(pn.first_moment() - (0.9 + 100.0 / 109.0)) < 1e-12
    assert abs(pn.total_mass() - 1.0) <= 1e-12
    # the family's mean increases to 2
    means = [af.three_atom(n).first_moment() for n in (5, 10, 100, 1000)]
    assert all(np.diff(means) > 0) and means[-1] < 2.0


def test_tail_first_moment():
    m = af.two_atom(0.5)
    assert m.tail_first_moment(1.0) == 1.0
    assert m.tail_first_moment(0.0) == m.first_moment()
    assert af.dirac(0.0).tail_first_moment(1.0) == 0.0
    rng = np.random.default_rng(7)
    for _ in range(20):
        mm = random_probability_measure(rng)
        rs = np.sort(rng.uniform(0, 12, size=6))
        vals = [mm.tail_first_moment(r) for r in rs]
        assert all(np.diff(vals) <= 1e-15)


@pytest.mark.filterwarnings("error")
def test_total_mass_that_overflows_is_an_input_error():
    # each mass is finite, their sum is not; duplicates would merge into one
    for locs in ([1.0, 2.0], [1.0, 1.0]):
        with pytest.raises(af.InputError, match="total mass"):
            af.AgeMeasure(locs, [1.7e308, 1.7e308])
    big = af.AgeMeasure([1.0, 2.0], [8e307, 8e307])
    assert big.total_mass() == 1.6e308
    assert "mass=1.6e+308" in repr(big)
    assert af.w1(big, big) == 0.0


def test_moment_that_overflows_is_an_input_error():
    m = af.AgeMeasure([1.7e308, 1.79e308], [1.0, 1.0])
    with pytest.raises(af.InputError, match="first moment"):
        m.first_moment()
    with pytest.raises(af.InputError, match="first moment"):
        m.tail_first_moment(0.0)
    assert m.tail_first_moment(1.75e308) == 1.79e308
    assert "mean=inf" in repr(m)


# ---------------------------------------------------------------------------
# W1
# ---------------------------------------------------------------------------

def test_w1_two_atom_closed_form():
    for p, q in [(0.5, 0.25), (0.1, 0.9), (1.0, 0.2), (0.3, 0.3)]:
        expect = 2.0 * (1.0 - min(p, q) / max(p, q))
        assert abs(af.w1(af.two_atom(p), af.two_atom(q)) - expect) < 1e-12


def test_w1_basic_identities():
    m = af.three_atom(10)
    assert af.w1(m, m) == 0.0
    assert abs(af.w1(af.dirac(0.0), af.dirac(2.5)) - 2.5) < 1e-15
    assert abs(af.w1(m, af.dirac(0.0)) - m.first_moment()) < 1e-12


def test_w1_rejects_unequal_masses():
    a = af.AgeMeasure([1.0], [1.0])
    b = af.AgeMeasure([1.0], [0.5])
    with pytest.raises(af.InputError):
        af.w1(a, b)


def test_w1_matches_lp_oracle_on_small_measures():
    rng = np.random.default_rng(101)
    for _ in range(30):
        a = random_probability_measure(rng, max_atoms=6)
        b = random_probability_measure(rng, max_atoms=6)
        assert abs(af.w1(a, b) - lp_w1(a, b)) < 1e-9


def _cdf(m, x):
    """Right-continuous CDF values of m at the ages x: the mass of [0, x]."""
    cum = np.concatenate(([0.0], np.cumsum(m.masses)))
    return cum[np.searchsorted(m.locations, x, side="right")]


def _grid_w1(a, b):
    """Oracle: |F_a - F_b| integrated over the union grid, with one CDF
    search per measure."""
    if a.n_atoms == 0 or b.n_atoms == 0:
        return abs(a.first_moment() - b.first_moment())
    grid = np.union1d(a.locations, b.locations)
    if grid.size < 2:
        return 0.0
    diff = _cdf(a, grid[:-1]) - _cdf(b, grid[:-1])
    return float(np.abs(diff) @ np.diff(grid))


def _extended_w1(a, b):
    """Oracle: the merge form of W1 in extended precision (np.longdouble)."""
    locs = np.concatenate((a.locations, b.locations)).astype(np.longdouble)
    order = np.argsort(locs, kind="stable")
    signed = np.concatenate((a.masses, -b.masses)).astype(np.longdouble)
    gap_cdf = np.cumsum(signed[order][:-1])
    return float(np.sum(np.abs(gap_cdf) * np.diff(locs[order])))


def _w1_oracle_pairs(rng):
    """Random pairs, pairs that share locations, zero and single atoms,
    empty measures and a mass mismatch within W1_MASS_TOL."""
    pairs = [(af.dirac(1.0), af.dirac(1.0)), (af.dirac(0.0), af.dirac(2.5)),
             (af.dirac(3.0), af.two_atom(0.25)), (af.two_atom(0.5), af.dirac(0.0)),
             (af.AgeMeasure([], []), af.AgeMeasure([2.0], [5e-10])),
             (af.AgeMeasure([], []), af.AgeMeasure([], []))]
    for _ in range(200):
        a = random_probability_measure(rng)
        b = random_probability_measure(rng)
        pairs.append((a, b))
        # b keeps about half of a's locations and moves the rest
        keep = rng.random(a.n_atoms) < 0.5
        locs = np.where(keep, a.locations, rng.uniform(0.0, 10.0, a.n_atoms))
        mass = rng.uniform(0.05, 1.0, a.n_atoms)
        shared = af.ProbabilityAgeMeasure(locs, mass / mass.sum())
        pairs.append((a, shared))
        skew = 1.0 + float(rng.uniform(-0.5, 0.5)) * af.measures.W1_MASS_TOL
        pairs.append((shared, af.AgeMeasure(b.locations, b.masses * skew)))
    return pairs


def test_w1_matches_grid_oracle():
    rng = np.random.default_rng(41)
    for a, b in _w1_oracle_pairs(rng):
        dist = af.w1(a, b)
        assert abs(dist - _grid_w1(a, b)) <= 1e-14 * (1.0 + dist)
        assert af.w1(a, a) == 0.0 and af.w1(b, b) == 0.0


def test_w1_matches_grid_oracle_at_16000_atoms():
    # a running sum of N masses of total <= 2 carries a rounding error of at
    # most N * eps on each gap, so two forms of W1 agree to N * eps * span;
    # past a few hundred atoms that exceeds 1e-14 (equal masses round the
    # same way at every step); the extended-precision oracle shows that the
    # merge form stays within the same rounding bound
    rng = np.random.default_rng(43)
    fp = af.fixed_point_measure(16_000, 40.0)
    pairs = [(fp, fp.translate(0.5)), (af.dirac(1.0), fp)]
    pairs += [tuple(random_probability_measure(rng, max_atoms=16_000,
                                               min_atoms=16_000) for _ in "ab")
              for _ in range(3)]
    for a, b in pairs:
        dist = af.w1(a, b)
        span = max(a.locations[-1], b.locations[-1])
        tol = np.finfo(float).eps * (a.n_atoms + b.n_atoms) * span
        assert abs(dist - _grid_w1(a, b)) <= tol
        assert abs(dist - _extended_w1(a, b)) <= tol
        assert af.w1(a, a) == 0.0


def test_translate():
    m = af.two_atom(0.5)
    t = m.translate(1.0)
    assert t.locations.tolist() == [1.0, 3.0]
    assert isinstance(t, af.ProbabilityAgeMeasure)
    assert abs(af.w1(m, m.translate(0.7)) - 0.7) < 1e-12
    assert af.dirac(0.0).translate(2.0).locations.tolist() == [2.0]
    with pytest.raises(af.InputError):
        m.translate(-0.1)


def test_mixture():
    m = af.mixture([(0.25, af.dirac(0.0)), (0.75, af.two_atom(0.5))])
    assert m.locations.tolist() == [0.0, 2.0]
    assert m.masses.tolist() == [0.625, 0.375]
    with pytest.raises(af.InputError, match="coefficients"):
        af.mixture([(-0.5, af.dirac(0.0))])
    with pytest.raises(af.InputError, match="at least one"):
        af.mixture([])


# ---------------------------------------------------------------------------
# merge_atoms
# ---------------------------------------------------------------------------

def test_merge_atoms_zero_budget_is_identity():
    m = af.three_atom(10)
    out = af.merge_atoms(m, 0.0)
    assert np.array_equal(out.locations, m.locations)
    assert np.array_equal(out.masses, m.masses)


def test_merge_atoms_barycenter():
    m = af.AgeMeasure([1.0, 1.0 + 1e-9], [0.5, 0.5])
    out = af.merge_atoms(m, 1e-6)
    assert out.n_atoms == 1
    assert abs(out.locations[0] - (1.0 + 5e-10)) < 1e-16
    assert out.masses[0] == 1.0


def test_merge_atoms_preserves_mass_and_mean_and_budget():
    rng = np.random.default_rng(42)
    for _ in range(30):
        m = random_probability_measure(rng, max_atoms=40)
        eps = float(rng.uniform(0.0, 0.2))
        out = af.merge_atoms(m, eps)
        # brute-force oracle sums in plain python
        brute_mass = sum(float(w) for w in m.masses)
        brute_mean = sum(float(x) * float(w)
                         for x, w in zip(m.locations, m.masses))
        assert abs(out.total_mass() - brute_mass) < 1e-12
        assert abs(out.first_moment() - brute_mean) < 1e-11
        assert af.w1(m, out) <= eps + 1e-12
        assert out.n_atoms <= m.n_atoms


def test_merge_atoms_respects_tight_budget():
    m = af.AgeMeasure([0.0, 1.0, 1.1], [0.5, 0.25, 0.25])
    # merging the close pair costs 2*0.25*0.25*0.1/0.5 = 0.025
    out = af.merge_atoms(m, 0.03)
    assert out.n_atoms == 2
    out2 = af.merge_atoms(m, 0.02)
    assert out2.n_atoms == 3
    for bad in (-1e-9, math.nan):
        with pytest.raises(af.InputError):
            af.merge_atoms(m, bad)


def _heap_merge_atoms(measure, eps):
    """Reference coalescing: a greedy heap seeded with every adjacent pair.

    Returns the merged measure and the budget it spent.
    """
    n = measure.n_atoms
    if eps == 0.0 or n < 2:
        return measure, 0.0
    locs = measure.locations.copy()
    mass = measure.masses.copy()
    prev = np.arange(-1, n - 1)
    nxt = np.arange(1, n + 1)
    alive = np.ones(n, dtype=bool)
    version = np.zeros(n, dtype=np.int64)

    def pair_cost(i, j):
        d = locs[j] - locs[i]
        return 2.0 * mass[i] * mass[j] * d / (mass[i] + mass[j])

    heap = [(pair_cost(i, i + 1), i, i + 1, 0, 0) for i in range(n - 1)]
    heapq.heapify(heap)
    spent = 0.0
    while heap:
        cost, i, j, vi, vj = heapq.heappop(heap)
        if not (alive[i] and alive[j]) or version[i] != vi or version[j] != vj:
            continue
        if spent + cost > eps:
            break
        spent += cost
        m = mass[i] + mass[j]
        locs[i] = (locs[i] * mass[i] + locs[j] * mass[j]) / m
        mass[i] = m
        alive[j] = False
        version[i] += 1
        nxt[i] = nxt[j]
        if nxt[i] < n:
            prev[nxt[i]] = i
            heapq.heappush(heap, (pair_cost(i, nxt[i]), i, nxt[i],
                                  version[i], version[nxt[i]]))
        if prev[i] >= 0:
            heapq.heappush(heap, (pair_cost(prev[i], i), prev[i], i,
                                  version[prev[i]], version[i]))
    return type(measure)(locs[alive], mass[alive]), spent


def test_merge_atoms_matches_heap_oracle():
    rng = np.random.default_rng(20240)

    def cases():
        for k in range(1200):
            if k % 2:
                m = random_probability_measure(rng, max_atoms=80)
            else:  # clusters of near-coincident atoms: many cheap merges
                n = int(rng.integers(2, 80))
                centers = rng.uniform(0.0, 10.0, size=n // 4 + 1)
                spread = 10.0 ** rng.uniform(-9.0, -3.0)
                locs = np.abs(np.repeat(centers, 4)[:n]
                              + rng.normal(0.0, spread, n))
                mass = rng.uniform(0.01, 1.0, size=n)
                m = af.ProbabilityAgeMeasure(locs, mass / mass.sum())
            yield m, float(10.0 ** rng.uniform(-8.0, 0.0))
        # ties: equal masses on a unit grid price every pair at 1/8, and
        # the budgets 1/8 and 1/4 are spent exactly
        grid = af.ProbabilityAgeMeasure(np.arange(8.0), np.full(8, 0.125))
        for eps in (0.125, 0.25, 0.3, 1.0):
            yield grid, eps
        # budgets equal to the cost of the cheapest pair, to the last bit
        for _ in range(100):
            m = random_probability_measure(rng, max_atoms=80)
            x, w = m.locations, m.masses
            costs = 2.0 * w[:-1] * w[1:] * (x[1:] - x[:-1]) / (w[:-1] + w[1:])
            yield m, float(costs.min(initial=1.0))
        # large smooth profiles: from no merge up to ~5 000 in one call
        for n in (500, 2000, 5000):
            m = af.fixed_point_measure(n)
            for eps in np.logspace(-9.0, -1.0, 7):
                yield m, float(eps)

    merged = untouched = 0
    for m, eps in cases():
        ref, spent = _heap_merge_atoms(m, eps)
        out = af.merge_atoms(m, eps)
        assert np.array_equal(out.locations, ref.locations)
        assert np.array_equal(out.masses, ref.masses)
        assert type(out) is type(m)
        assert spent <= eps
        if ref.n_atoms < m.n_atoms:
            merged += 1
        else:
            untouched += 1
            assert out is m
    assert merged >= 300 and untouched >= 300


# ---------------------------------------------------------------------------
# IO
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    m = af.fixed_point_measure(50, 30.0)
    path = tmp_path / "measure.csv"
    m.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "location,mass"
    back = af.AgeMeasure.from_csv(path)
    np.testing.assert_allclose(back.locations, m.locations, rtol=0, atol=0)
    np.testing.assert_allclose(back.masses, m.masses, rtol=0, atol=0)


@pytest.mark.parametrize("text, match", [
    ("location,mass\n1.0,abc\n", "line 2"),
    ("location,mass\n1.0,0.5\n\n2.0,0.5\n", "line 3"),
    ("location,mass\n1.0\n", "line 2"),
    ("location,mass\n1.0,0.5,3.0\n", "line 2"),
    ("location,mass\n-1.0,0.5\n", ">= 0"),
], ids=["not-a-number", "blank-line", "short-row", "third-cell",
        "negative-age"])
def test_from_csv_rejects_malformed_rows(tmp_path, text, match):
    path = tmp_path / "snapshot.csv"
    path.write_text(text)
    with pytest.raises(af.InputError, match=match) as err:
        af.AgeMeasure.from_csv(path)
    assert str(err.value).startswith(str(path))
    assert "\n" not in str(err.value)


def test_probability_validation():
    with pytest.raises(af.InputError):
        af.ProbabilityAgeMeasure([1.0], [0.5])
    m = af.AgeMeasure(np.array([1.0]), np.array([0.5]))
    assert isinstance(af.AgeMeasure(m.locations, m.masses * 2).as_probability(),
                      af.ProbabilityAgeMeasure)
