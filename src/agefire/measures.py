"""Atomic positive measures on the age axis [0, inf) and the W1 metric.

The state variable everywhere in this package is a finite positive Borel
measure with finite first moment, represented as a sorted list of weighted
atoms.  Atoms are the natural representation here: the age dynamics
transport and reweight mass, which point masses carry without numerical
diffusion.  Continuous profiles enter only through quantile discretization
in the named presets.

Canonical form: locations strictly increasing, no zero-mass atoms, exact
duplicate locations merged by summing mass.  Approximate coalescing is a
separate, explicitly budgeted operation (:func:`merge_atoms`).

W1 (earth mover's) distance between measures on the line is computed as
the L1 distance between cumulative distribution functions, which is exact
for atomic measures.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError

#: tolerance on |total mass - 1| for probability measures; sized for
#: double-precision accumulation over <= 1e5 atoms
MASS_TOL = 1e-12

#: measures whose total masses differ by more than this have infinite W1
W1_MASS_TOL = 1e-9

#: largest truncation age of :func:`fixed_point_measure`
MAX_TRUNCATION = 64.0

#: largest atom count of :func:`fixed_point_measure`
MAX_ATOMS = 10 ** 6


def _float_vector(values) -> np.ndarray:
    """``values`` as a 1-D float64 array; one already is passes as is (the
    constructor copies it)."""
    if (type(values) is np.ndarray and values.ndim == 1
            and values.dtype == np.float64):
        return values
    return np.atleast_1d(np.asarray(values, dtype=float)).ravel()


@dataclass(frozen=True, eq=False)
class AgeMeasure:
    """Finite positive measure on [0, inf) stored as weighted atoms.  The
    ages, the masses and the total mass must be finite.

    Instances are immutable (arrays are marked read-only) and therefore
    safe to share between threads; every operation returns a new value.
    """

    locations: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        locs, mass = _float_vector(self.locations), _float_vector(self.masses)
        if locs.shape != mass.shape:
            raise InputError("locations and masses must have equal length")
        canonical = True  # an empty measure has no extremes to check
        if locs.size:
            # min and max propagate NaN, so four finite extremes mean every
            # entry is finite; a NaN also fails the strict test, so strictly
            # increasing ages have their extremes at the two ends
            increasing = bool((locs[1:] > locs[:-1]).all())
            x_lo, x_hi = ((locs[0], locs[-1]) if increasing
                          else (locs.min(), locs.max()))
            m_lo, m_hi = mass.min(), mass.max()
            if not all(map(math.isfinite, (x_lo, x_hi, m_lo, m_hi))):
                raise InputError("locations and masses must be finite")
            if x_lo < 0:
                raise InputError("atom locations must be >= 0")
            if m_lo < 0:
                raise InputError("atom masses must be >= 0")
            if m_hi > 1e300 / mass.size:  # only then can the sum overflow
                with np.errstate(over="ignore"):
                    if not math.isfinite(mass.sum()):
                        raise InputError("the total mass of the measure is "
                                         "not finite")
            canonical = m_lo > 0 and increasing
        if canonical:
            # already canonical: only copy, so no caller array is aliased
            locs, mass = locs.copy(), mass.copy()
        else:
            order = np.argsort(locs, kind="stable")
            locs, mass = locs[order], mass[order]
            # merge exact duplicate locations
            if locs.size > 1 and (np.diff(locs) == 0).any():
                starts = np.flatnonzero(np.r_[True, np.diff(locs) > 0])
                locs = locs[starts]
                mass = np.add.reduceat(mass, starts)
            keep = mass > 0
            locs, mass = locs[keep], mass[keep]
        locs.flags.writeable = False
        mass.flags.writeable = False
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "masses", mass)

    def __setstate__(self, state):
        # pickle and copy restore the arrays writable and skip the
        # constructor, whose checks (the mass tolerance of a probability
        # measure too) the pickled value has already passed
        self.__dict__.update(state)
        self.locations.flags.writeable = False
        self.masses.flags.writeable = False

    # -- basic functionals -------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return int(self.locations.size)

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def first_moment(self) -> float:
        return _first_moment(self.locations, self.masses)

    def tail_first_moment(self, r: float) -> float:
        """Sum of x * mass over atoms with x >= r.

        Equals the first moment at r = 0 and is nonincreasing in r; these
        tail moments define the neighborhood system in which the solver's
        a-priori bounds live.  A moment that overflows is an InputError.
        """
        i = int(np.searchsorted(self.locations, r, side="left"))
        return _first_moment(self.locations[i:], self.masses[i:])

    # -- transformations ---------------------------------------------------

    def translate(self, r: float) -> "AgeMeasure":
        """Shift every atom right by r >= 0 (ages grow with time)."""
        if r < 0:
            raise InputError("left translation off [0, inf) is unsupported")
        return type(self)(self.locations + r, self.masses)

    def as_probability(self) -> "ProbabilityAgeMeasure":
        return ProbabilityAgeMeasure(self.locations, self.masses)

    # -- IO ------------------------------------------------------------------

    def to_csv(self, path) -> None:
        """Snapshot format: header ``location,mass``, >= 15 significant digits."""
        lines = ["location,mass"]
        lines += [f"{x:.17g},{m:.17g}" for x, m in zip(self.locations, self.masses)]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "AgeMeasure":
        """Read a :meth:`to_csv` snapshot; a malformed row or measure is an
        InputError naming the file."""
        rows = Path(path).read_text().strip().splitlines()
        if not rows or rows[0].strip() != "location,mass":
            raise InputError(f"{path}: expected header 'location,mass'")
        locs, mass = [], []
        for line, row in enumerate(rows[1:], start=2):
            try:
                x, m = map(float, row.split(","))
            except ValueError:
                raise InputError(f"{path}: line {line} is not two numbers "
                                 f"'location,mass': {row!r}") from None
            locs.append(x)
            mass.append(m)
        try:
            return cls(locs, mass)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None

    def __repr__(self):  # keep short: measures can hold 1e5 atoms
        with np.errstate(over="ignore"):  # a mean that overflows reads inf
            mean = float((self.locations * self.masses).sum())
        return (f"{type(self).__name__}(n_atoms={self.n_atoms}, "
                f"mass={self.total_mass():.6g}, mean={mean:.6g})")


def _first_moment(locations: np.ndarray, masses: np.ndarray) -> float:
    """Sum of location * mass; an InputError where it overflows."""
    with np.errstate(over="ignore"):
        moment = float((locations * masses).sum())
    if not math.isfinite(moment):
        raise InputError("the first moment of the measure does not fit in "
                         "a float")
    return moment


class ProbabilityAgeMeasure(AgeMeasure):
    """AgeMeasure whose total mass is 1 within MASS_TOL."""

    def __init__(self, locations, masses):
        super().__init__(locations, masses)
        defect = abs(self.total_mass() - 1.0)
        if defect > MASS_TOL:
            raise InputError(
                f"not a probability measure: |mass - 1| = {defect:.3e} > {MASS_TOL:.1e}")


# ---------------------------------------------------------------------------
# Named presets
# ---------------------------------------------------------------------------

def dirac(a: float) -> ProbabilityAgeMeasure:
    """Unit point mass at age a >= 0."""
    return ProbabilityAgeMeasure([a], [1.0])


def two_atom(p: float) -> ProbabilityAgeMeasure:
    """(1-p) delta_0 + p delta_{1/p}; age-critical with first moment 1."""
    if not 0.0 < p <= 1.0:
        raise InputError("two_atom requires p in (0, 1]")
    return ProbabilityAgeMeasure([0.0, 1.0 / p], [1.0 - p, p])


def three_atom(n: float) -> ProbabilityAgeMeasure:
    """Age-critical measure on {0, 1, n^2} with mass 1 - 1/n at 1.

    The family concentrates weakly at delta_1 as n grows while its mean
    increases to 2, which makes it a stress test for anything that is
    supposed to be continuous only in the W1 topology.
    """
    if n < 2:
        raise InputError("three_atom requires n >= 2")
    m_far = 1.0 / (n * n + n - 1.0)
    return ProbabilityAgeMeasure(
        [0.0, 1.0, n * n], [1.0 / n - m_far, 1.0 - 1.0 / n, m_far])


def _lncosh(u: np.ndarray) -> np.ndarray:
    au = np.abs(u)
    return au + np.log1p(np.exp(-2.0 * au)) - math.log(2.0)


def _sech2_partial_moment(x: np.ndarray) -> np.ndarray:
    """int_0^x t * (1/2) sech^2(t/2) dt = x tanh(x/2) - 2 ln cosh(x/2)."""
    return x * np.tanh(x / 2.0) - 2.0 * _lncosh(x / 2.0)


def fixed_point_measure(n_atoms: int = 2000,
                        truncation: float = 40.0) -> ProbabilityAgeMeasure:
    """Quantile discretization of the stationary age profile.

    The stationary density is (1/2) sech^2(x/2) (CDF tanh(x/2)).  The mass
    on [0, truncation] is split into ``n_atoms`` equal-probability cells,
    one atom per cell at the cell's conditional mean; any remaining tail
    mass becomes a single atom at the tail's conditional mean.  The atom
    count is an integer (a float such as 10.0 is an InputError) of at most
    ``MAX_ATOMS``, checked before anything is built.  A
    truncation above ``MAX_TRUNCATION`` is read as that value: tanh(T/2)
    rounds to 1 past T ~ 38, and the mass past 64 is below 1e-27.  Atom
    locations are then rescaled by the reciprocal of the leading eigenvalue
    so the discretized measure is age-critical to solver accuracy (the raw
    quantile discretization sits ~1e-3 off criticality at 2000 atoms, which
    would otherwise shift it into the subcritical branch of the evolution).
    """
    try:
        n_atoms = operator.index(n_atoms)
    except TypeError:
        raise InputError(f"fixed_point requires an integer atom count, "
                         f"got {n_atoms!r}") from None
    if not 1 <= n_atoms <= MAX_ATOMS:
        raise InputError(f"fixed_point requires 1 <= n_atoms <= {MAX_ATOMS:,}")
    truncation = min(truncation, MAX_TRUNCATION)  # NaN stays NaN
    qmax = math.tanh(truncation / 2.0)
    if not qmax >= 1.0 - 1e-6:
        raise InputError(
            f"truncation {truncation} keeps only {qmax:.8f} of the mass; "
            "need >= 1 - 1e-6")
    qs = np.linspace(0.0, qmax, n_atoms + 1)
    with np.errstate(divide="ignore"):
        edges = 2.0 * np.arctanh(qs)
    edges[-1] = truncation  # quantile of qmax, exact even when qmax rounds to 1
    cell_mass = qmax / n_atoms
    locs = (_sech2_partial_moment(edges[1:]) -
            _sech2_partial_moment(edges[:-1])) / cell_mass
    mass = np.full(n_atoms, cell_mass)
    tail = 1.0 - qmax
    if tail > 0.0:
        c = truncation
        tail_mean = c + (math.exp(c) + 1.0) * math.log1p(math.exp(-c))
        locs = np.append(locs, tail_mean)
        mass = np.append(mass, tail)
    from .spectral import leading_pair  # deferred: spectral imports this module
    lam = leading_pair(AgeMeasure(locs, mass)).lam
    return ProbabilityAgeMeasure(locs / lam, mass)


_PRESETS = {
    "dirac": dirac,
    "twoatom": two_atom,
    "threeatom": three_atom,
    "fixedpoint": fixed_point_measure,
}


def preset_name(name: str) -> str:
    """A preset name as the preset table spells it: lower case, without
    ``-`` or ``_``, so ``"Fixed-Point"`` and ``"fixed_point"`` both read
    ``"fixedpoint"``."""
    return name.lower().replace("-", "").replace("_", "")


def from_named(preset: str) -> ProbabilityAgeMeasure:
    """Build a preset from a string ``"name"`` or ``"name:a,b"``: dirac:a,
    twoatom:p, threeatom:n, fixedpoint:n_atoms,truncation, as in
    ``"twoatom:0.5"`` or ``"fixedpoint:2000,40"``.  Names are read through
    :func:`preset_name`; the atom count of ``fixedpoint`` must be an
    integer.
    """
    name, _, arg = preset.partition(":")
    try:
        params = tuple(float(v) for v in arg.split(",") if v != "")
    except ValueError:
        raise InputError(f"bad parameters for preset {name!r}: {arg!r} "
                         "is not a comma-separated list of numbers") from None
    builder = _PRESETS.get(preset_name(name))
    if builder is None:
        raise InputError(f"unknown preset {preset!r}; "
                         f"choose from {sorted(_PRESETS)}")
    if builder is fixed_point_measure and params and params[0].is_integer():
        params = (int(params[0]),) + params[1:]  # the builder refuses others
    try:
        return builder(*params)
    except TypeError as exc:
        raise InputError(f"bad parameters for preset {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# W1 metric and coalescing
# ---------------------------------------------------------------------------

def w1(a: AgeMeasure, b: AgeMeasure) -> float:
    """Exact W1 distance: integral of |F_a - F_b| between merged atoms.

    One stable sort merges the two sorted location arrays (timsort merges
    two runs in linear time); the running sum of the signed masses +a, -b
    is F_a - F_b on each gap.  Requires equal total masses (within
    W1_MASS_TOL); otherwise the CDF difference does not vanish at infinity
    and the distance is infinite.
    """
    if abs(a.total_mass() - b.total_mass()) > W1_MASS_TOL:
        raise InputError("W1 requires equal total masses")
    if a.n_atoms == 0 or b.n_atoms == 0:
        return abs(a.first_moment() - b.first_moment())
    locs = np.concatenate((a.locations, b.locations))
    order = np.argsort(locs, kind="stable")
    gap_cdf = np.cumsum(np.concatenate((a.masses, -b.masses))[order][:-1])
    # a multiply and a pairwise sum, not a BLAS dot: above 10 000 entries
    # an unpinned OpenBLAS dot wakes its worker threads, which can cost ms
    return float((np.abs(gap_cdf) * np.diff(locs[order])).sum())


def merge_atoms(measure: AgeMeasure, eps: float) -> AgeMeasure:
    """Coalesce adjacent atoms into mass-weighted barycenters within a
    W1 budget of eps.

    Each pass prices every adjacent pair and merges the cheapest one, the
    leftmost on a tie; the accumulated cost (sum over merge events of
    mass * |location - barycenter|, an upper bound for the W1 shift
    between input and output) never exceeds eps.  Total mass and first
    moment are preserved by construction.  A call that merges k pairs
    costs O(k * N), and the input is returned as is when nothing merges.
    """
    if not eps >= 0.0:
        raise InputError("merge budget must be a number >= 0")
    if eps == 0.0 or measure.n_atoms < 2:
        return measure
    locs, mass, spent = measure.locations, measure.masses, 0.0
    while locs.size > 1:
        d = locs[1:] - locs[:-1]
        costs = np.multiply(mass[:-1], 2.0)
        costs *= mass[1:]
        costs *= d
        costs /= np.add(mass[:-1], mass[1:], out=d)
        i = int(np.argmin(costs))
        if not spent + costs[i] <= eps:
            break  # cheapest remaining merge exceeds the budget
        spent += costs[i]
        m = mass[i] + mass[i + 1]
        x = (locs[i] * mass[i] + locs[i + 1] * mass[i + 1]) / m
        locs, mass = np.delete(locs, i + 1), np.delete(mass, i + 1)
        locs[i], mass[i] = x, m
    if locs.size == measure.n_atoms:
        return measure
    return type(measure)(locs, mass)


def mixture(components: Sequence[tuple[float, AgeMeasure]]) -> AgeMeasure:
    """Weighted sum of measures: sum_i c_i * mu_i with c_i >= 0, over at
    least one component."""
    if not components:
        raise InputError("mixture needs at least one component")
    locs, mass = [], []
    for c, mu in components:
        if c < 0:
            raise InputError("mixture coefficients must be >= 0")
        locs.append(mu.locations)
        mass.append(c * mu.masses)
    return AgeMeasure(np.concatenate(locs), np.concatenate(mass))
