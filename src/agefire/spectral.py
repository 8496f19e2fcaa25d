"""Principal eigenpair of the min-kernel operator and derived functionals.

For a measure pi on [0, inf) the operator acts on L2(pi) as

    (L f)(s) = integral of (x ^ s) f(x) dpi(x),        x ^ s = min(x, s).

Restricted to atoms x_1 < ... < x_N with masses w_j this is the matrix
K_ij = x_i ^ x_j acting through the weights, and its leading eigenpair
(lam, theta) is computed by power iteration on the symmetrized matrix
sqrt(w_i) (x_i ^ x_j) sqrt(w_j).  The symmetrized matrix has strictly
positive entries whenever some atom sits at a positive location, so the
leading eigenvalue is simple, its eigenvector is positive, and power
iteration from a positive start converges geometrically.

Because the kernel is min(x, y), a matrix-vector product costs O(N) via
prefix sums over the sorted atoms:

    (K u)_i = sum_{j <= i} x_j u_j  +  x_i * sum_{j > i} u_j.

This makes eigenpairs cheap enough to recompute at every integrator step.

Atoms at location 0 are kept in the measure but excluded from the
eigenproblem; their theta value is 0, so the eigenpair of pi coincides
with that of its positive part and the normalization integral is
unaffected.  theta is normalized so its integral against pi equals 1 and
extends to a concave, nondecreasing, piecewise-linear function of age
(:func:`theta_at`) whose kinks sit exactly at the atoms.  The value and
slopes of that extension determine the positive part of pi, which
:func:`theta_to_pi` reconstructs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateOperatorError, InputError, IterationLimitError
from .measures import AgeMeasure

#: default threshold on successive Rayleigh-quotient increments
EIGEN_TOL = 1e-13
#: default cap on power-iteration sweeps
MAX_ITERS = 100_000
#: the solver also polishes until the symmetric residual is below this
#: fraction of the eigenvalue (or stops improving), so that the reported
#: theta-form residual lands comfortably under 1e-10 * lam
_RESID_FRAC = 1e-13
#: a cold solve of at most this many positive atoms starts the power loop
#: from 32 sweeps' worth of dense squarings (:func:`_squared_start`); near
#: 100 atoms the O(N^3) squarings cost as much as the sweeps they save
SQUARED_START_ATOMS = 64


def min_kernel_apply(locations: np.ndarray, u: np.ndarray) -> np.ndarray:
    """O(N) product of the min-kernel matrix with a vector (sorted input).

    Both prefix sums come from one scan over a complex buffer holding u in
    its real part and x * u in its imaginary part.  Complex addition adds
    the two parts separately, so the sums are bit-identical to two real
    cumsums, at little more than the latency of one.
    """
    buf = np.empty(u.size, dtype=complex)
    buf.real = u
    np.multiply(locations, u, out=buf.imag)
    np.cumsum(buf, out=buf)
    cum_u, cum_xu = buf.real, buf.imag
    out = cum_u[-1] - cum_u
    out *= locations
    out += cum_xu
    return out


@dataclass(frozen=True, eq=False)
class SpectralPair:
    """Leading eigenvalue and normalized eigenfunction values at the atoms.

    ``theta`` is aligned with ``source.locations`` and vanishes at any atom
    located at 0.  ``residual`` is max_i |lam * theta_i - (K theta w)_i|, the
    quantity audited by downstream accuracy checks.
    """

    lam: float
    theta: np.ndarray
    source: AgeMeasure
    residual: float
    iterations: int

    def __post_init__(self):
        self.theta.flags.writeable = False

    def __setstate__(self, state):
        # pickle and copy restore theta writable; the source measure
        # restores its own arrays
        self.__dict__.update(state)
        self.theta.flags.writeable = False


def _squared_start(xs: np.ndarray, d: np.ndarray) -> np.ndarray:
    """K^32 d for K = d_i (xs_i ^ xs_j) d_j, up to a positive factor.

    That is 32 power sweeps from the all-ones theta, made as five dense
    squarings.  K is positive semi-definite, so after division by its trace
    its eigenvalues lie in [0, 1] and sum to 1; dividing again after each
    squaring keeps them there, so nothing overflows and the leading one
    stays >= 1/N.
    """
    k = np.minimum.outer(xs, xs)
    k *= d[:, None]
    k *= d
    k /= np.trace(k)
    for _ in range(5):
        k = k @ k
        k /= np.trace(k)
    return k @ d


def _positive_part(measure: AgeMeasure):
    locs, mass = measure.locations, measure.masses
    if locs.size and locs[0] == 0.0:
        return locs[1:], mass[1:], True
    return locs, mass, False


def leading_pair(measure: AgeMeasure, *, eigen_tol: float = EIGEN_TOL,
                 max_iters: int = MAX_ITERS,
                 start: np.ndarray | None = None) -> SpectralPair:
    """Compute (lam, theta) with theta >= 0 and integral(theta dpi) = 1.

    ``start`` optionally seeds the iteration with approximate theta values
    at the atoms (warm start for integrator steps); the default is the
    all-ones vector, advanced 32 sweeps by :func:`_squared_start` when the
    positive part has at most ``SQUARED_START_ATOMS`` atoms.  ``iterations``
    counts the sweeps of the power loop only.  Raises
    DegenerateOperatorError when the measure is supported on {0} and
    IterationLimitError (carrying the last residual) if the sweep cap is hit.
    """
    xp, wp, has_zero_atom = _positive_part(measure)
    if xp.size == 0:
        raise DegenerateOperatorError(
            "measure is supported on {0}; the min-kernel operator is zero")
    # min(x, y) is homogeneous: iterate on the ages over a power of two near
    # the largest, so that tiny ages do not underflow.  A power of two scales
    # exactly, so ordinary measures give the same bits as unscaled ages.
    scale = math.ldexp(1.0, math.frexp(xp[-1])[1] - 1)
    xs = xp / scale
    d = np.sqrt(wp)
    if start is None:  # all-ones theta in symmetrized coordinates is d
        v = _squared_start(xs, d) if xp.size <= SQUARED_START_ATOMS else d.copy()
    else:
        s = np.asarray(start, dtype=float)
        if s.shape != measure.locations.shape:
            raise InputError("start vector must align with the atoms")
        if not np.isfinite(s).all():
            raise InputError("start vector must be finite")
        v = np.maximum(s[-xp.size:] if has_zero_atom else s, 0.0) * d
    norm = math.sqrt(v @ v)
    v = d / math.sqrt(d @ d) if norm == 0.0 else v / norm

    rayleigh_old = np.inf
    best_resid = np.inf
    stalled = 0
    iters = 0
    while True:
        mv = d * min_kernel_apply(xs, d * v)
        rayleigh = float(v @ mv)
        resid_sym = float(np.max(np.abs(mv - rayleigh * v)))
        v = mv / math.sqrt(mv @ mv)
        iters += 1
        if resid_sym < 0.999 * best_resid:
            best_resid = resid_sym
            stalled = 0
        else:
            stalled += 1  # residual at the rounding floor
        rq_done = (abs(rayleigh - rayleigh_old) * scale
                   < eigen_tol * max(1.0, abs(rayleigh) * scale))
        resid_done = resid_sym <= _RESID_FRAC * abs(rayleigh) or stalled > 40
        if rq_done and resid_done:
            break
        if iters >= max_iters:
            raise IterationLimitError(
                f"power iteration did not converge in {max_iters} sweeps "
                f"(symmetric residual {resid_sym * scale:.3e})",
                residual=resid_sym * scale)
        rayleigh_old = rayleigh

    lam = rayleigh * scale
    theta_pos = np.maximum(v, 0.0) / d
    theta_pos /= float(theta_pos @ wp)
    resid_s = float(np.max(np.abs(
        rayleigh * theta_pos - min_kernel_apply(xs, theta_pos * wp))))
    residual = resid_s * scale
    if resid_s > 1e-6 * abs(rayleigh):
        raise IterationLimitError(
            f"power iteration stalled with residual {residual:.3e} "
            f"(eigenvalue {lam:.6g})", residual=residual)
    theta = np.concatenate(([0.0], theta_pos)) if has_zero_atom else theta_pos
    return SpectralPair(lam=lam, theta=theta, source=measure,
                        residual=residual, iterations=iters)


def leading_eigenvalue(measure: AgeMeasure) -> float:
    """Leading eigenvalue, with the degenerate convention lam(delta_0) = 0."""
    xp, _, _ = _positive_part(measure)
    if xp.size == 0:
        return 0.0
    return leading_pair(measure).lam


def theta_at(pair: SpectralPair, s):
    """Evaluate the continuous representative of theta at age(s) s >= 0.

    theta(s) = lam^{-1} * sum_j (x_j ^ s) theta_j w_j: concave, nondecreasing,
    piecewise linear with kinks at the atoms, and theta(0) = 0.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not (np.isfinite(s_arr) & (s_arr >= 0)).all():
        raise InputError("theta is defined on finite ages >= 0")
    x = pair.source.locations
    q = pair.theta * pair.source.masses
    cum_q = np.concatenate(([0.0], np.cumsum(q)))
    cum_xq = np.concatenate(([0.0], np.cumsum(x * q)))
    idx = np.searchsorted(x, s_arr, side="right")
    out = (cum_xq[idx] + s_arr * (cum_q[-1] - cum_q[idx])) / pair.lam
    return float(out[0]) if np.isscalar(s) else out


def theta_sup(pair: SpectralPair) -> float:
    """Saturation value theta(inf) = lam^{-1} * sum_j x_j theta_j w_j."""
    src = pair.source
    return float((src.locations * pair.theta * src.masses).sum()) / pair.lam


def phi_of_pair(pair: SpectralPair) -> float:
    """Burning-rate functional evaluated from a precomputed eigenpair."""
    cube = float((pair.theta ** 3 * pair.source.masses).sum())
    return 1.0 / cube


def phi(measure: AgeMeasure) -> float:
    """Burning rate Phi = 1 / integral(theta^3 dpi); lies in (0, 1].

    Jensen's inequality against the normalization integral(theta dpi) = 1
    forces the cube integral >= 1, hence the upper bound 1.
    """
    return phi_of_pair(leading_pair(measure))


# ---------------------------------------------------------------------------
# theta <-> measure correspondence
# ---------------------------------------------------------------------------

def theta_to_pi(lam: float, kinks: Sequence[tuple[float, float]],
                final_slope: float = 0.0,
                concavity_tol: float = 1e-9) -> AgeMeasure:
    """Reconstruct the positive part of a measure from (lam, theta).

    ``kinks`` lists (x_k, theta(x_k)) for x_k > 0 strictly increasing; the
    function is pinned at theta(0) = 0, interpolates linearly between kinks,
    and continues with ``final_slope`` afterwards.  Each kink where the slope
    drops carries an atom of mass lam * (slope_left - slope_right) / theta(x_k).
    Any mass of the original measure at 0 is not recoverable.
    """
    if lam <= 0:
        raise InputError("lam must be positive")
    ks = np.asarray(kinks, dtype=float)
    if ks.ndim != 2 or ks.shape[1] != 2 or ks.shape[0] == 0:
        raise InputError("kinks must be a nonempty list of (x, theta(x)) pairs")
    x, th = ks[:, 0], ks[:, 1]
    if (x <= 0).any() or (np.diff(x) <= 0).any():
        raise InputError("kink locations must be strictly increasing and > 0")
    if (th <= 0).any():
        raise InputError("theta must be strictly positive at kinks > 0")
    slopes = np.diff(np.concatenate(([0.0], th))) / np.diff(np.concatenate(([0.0], x)))
    slopes = np.concatenate((slopes, [final_slope]))
    if final_slope < -concavity_tol:
        raise InputError("final slope must be >= 0 (theta is nondecreasing)")
    tol = concavity_tol * max(1.0, float(slopes[0]))
    if (np.diff(slopes) > tol).any():
        raise InputError("kinks do not describe a concave function")
    mass = lam * np.maximum(slopes[:-1] - slopes[1:], 0.0) / th
    return AgeMeasure(x, mass)


def pair_to_kinks(pair: SpectralPair) -> list[tuple[float, float]]:
    """Kink list of the theta extension (positive atoms only), ready to be
    fed back into :func:`theta_to_pi`."""
    xp, _, has_zero = _positive_part(pair.source)
    th = pair.theta[1:] if has_zero else pair.theta
    return list(zip(xp.tolist(), th.tolist()))


# ---------------------------------------------------------------------------
# Explicit bounds
# ---------------------------------------------------------------------------

def lambda_lower_bound(measure: AgeMeasure) -> float:
    """sup over atom locations x of x * pi([x, inf)), a lower bound for lam."""
    x, w = measure.locations, measure.masses
    if x.size == 0:
        return 0.0
    tail = np.cumsum(w[::-1])[::-1]
    return float(np.max(x * tail))


def lambda_upper_bounds(measure: AgeMeasure) -> tuple[float, float]:
    """(mean bound, Hilbert-Schmidt bound), with lam <= HS <= mean.

    The mean bound is the first moment; the HS bound is the Frobenius norm
    of the weighted kernel, sqrt(double integral of (x ^ y)^2).
    """
    x, w = measure.locations, measure.masses
    mean = measure.first_moment()
    if x.size == 0:
        return mean, 0.0
    cum_w = np.cumsum(w)
    cum_x2w = np.cumsum(x * x * w)
    hs_sq = float(w @ (cum_x2w + x * x * (cum_w[-1] - cum_w)))
    return mean, float(np.sqrt(hs_sq))


def explicit_theta_bound(measure: AgeMeasure, C: float) -> float:
    """Upper bound for theta(inf) from the tail of the measure.

    Scans atom locations left to right for the smallest x0 whose strict
    tail first moment (mass beyond x0) is at most lam * C, then returns
    (x0 / lam) * exp(C / (1 - C)).  Smaller feasible x0 gives the tighter
    bound of this family.
    """
    if not 0.0 < C < 1.0:
        raise InputError("C must lie in (0, 1)")
    pair = leading_pair(measure)
    x, w = measure.locations, measure.masses
    xw = x * w
    tail_excl = np.concatenate((np.cumsum(xw[::-1])[::-1][1:], [0.0]))
    feasible = tail_excl <= pair.lam * C
    i = int(np.argmax(feasible))  # first True; tails vanish so one exists
    x0 = float(x[i])
    return (x0 / pair.lam) * float(np.exp(C / (1.0 - C)))


def spectral_csv(pair: SpectralPair, path) -> None:
    """Diagnostic dump: ``location,mass,theta`` rows for each atom."""
    from pathlib import Path
    src = pair.source
    lines = ["location,mass,theta"]
    lines += [f"{x:.17g},{m:.17g},{t:.17g}"
              for x, m, t in zip(src.locations, src.masses, pair.theta)]
    Path(path).write_text("\n".join(lines) + "\n")
