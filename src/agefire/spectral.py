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

#: the power loop stops, after at least two sweeps, when the symmetric
#: residual is at most this fraction of the eigenvalue (or 40 sweeps have
#: passed without progress), so that the reported theta-form residual
#: lands comfortably under 1e-10 * lam
EIGEN_TOL = 1e-13
#: cap on power-iteration sweeps, read at each call
MAX_ITERS = 100_000
#: a cold solve of at most this many positive atoms starts the power loop
#: from 32 sweeps' worth of dense squarings (:func:`_squared_start`); near
#: 100 atoms the O(N^3) squarings cost as much as the sweeps they save
SQUARED_START_ATOMS = 64
#: rounding allowance of :func:`theta_to_pi` on a rising kink slope
CONCAVITY_TOL = 1e-9


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


def _scaled(x: np.ndarray, w: np.ndarray):
    """(x / age_scale, w * 2^-mass_exp, age_scale, mass_exp) for sorted ages
    x and masses w: age_scale is a power of two near the largest age, and
    mass_exp an even power of two that brings the total mass near 1.

    min(x, y) is homogeneous, so tiny or huge ages and masses then neither
    underflow nor overflow, and products with powers of two are exact, so
    ordinary measures give the same bits as unscaled ones.  The total mass
    is finite: :class:`AgeMeasure` rejects any other.
    """
    total = float(w.sum())
    age_scale = math.ldexp(1.0, math.frexp(x[-1])[1] - 1)
    mass_exp = 2 * (math.frexp(total)[1] // 2)
    ws = np.ldexp(w, -mass_exp) if mass_exp else w
    return x / age_scale, ws, age_scale, mass_exp


def _unscaled(value: float, exp: int) -> float:
    """value * 2^exp, rounded once (as a product with a power of two that
    fits); inf where it overflows."""
    try:
        return math.ldexp(value, exp)
    except OverflowError:
        return math.copysign(math.inf, value)


def _positive_part(measure: AgeMeasure):
    locs, mass = measure.locations, measure.masses
    if locs.size and locs[0] == 0.0:
        return locs[1:], mass[1:], True
    return locs, mass, False


def leading_pair(measure: AgeMeasure, *,
                 start: np.ndarray | None = None) -> SpectralPair:
    """Compute (lam, theta) with theta >= 0 and integral(theta dpi) = 1.

    ``start`` optionally seeds the iteration with approximate theta values
    at the atoms (warm start for integrator steps; only its direction
    counts, and an all-zero start is read as all ones); the default is the
    all-ones vector, advanced 32 sweeps by :func:`_squared_start` when the
    positive part has at most ``SQUARED_START_ATOMS`` atoms.  ``iterations``
    counts the sweeps of the power loop only.  After at least two sweeps the
    loop stops when the symmetric residual max|K v - rho v| of the unit
    iterate v is at most ``EIGEN_TOL * rho`` (a residual r bounds the error
    of rho by r^2 / gap), or when 40 sweeps have passed without a new
    minimum of the residual or a new maximum of rho.  The rule has no
    absolute part, so scaling every age by 2^k scales lam by exactly 2^k
    and leaves theta and ``iterations`` as they are.  The loop raises
    IterationLimitError (carrying the last residual) after ``MAX_ITERS``
    sweeps.  A measure supported on {0} is a DegenerateOperatorError, and
    one whose eigenvalue does not fit in a float an InputError.
    """
    xp, wp, has_zero_atom = _positive_part(measure)
    if xp.size == 0:
        raise DegenerateOperatorError(
            "measure is supported on {0}; the min-kernel operator is zero")
    # lam is homogeneous of degree 1 in the ages and in the masses, and
    # d = sqrt(w) scales by the exact half power; 2^scale_exp undoes both
    xs, ws, age_scale, mass_exp = _scaled(xp, wp)
    scale_exp = math.frexp(age_scale)[1] - 1 + mass_exp
    d = np.sqrt(ws)
    if start is None:  # all-ones theta in symmetrized coordinates is d
        v = _squared_start(xs, d) if xp.size <= SQUARED_START_ATOMS else d.copy()
    else:
        s = np.asarray(start, dtype=float)
        if s.shape != measure.locations.shape:
            raise InputError("start vector must align with the atoms")
        if not np.isfinite(s).all():
            raise InputError("start vector must be finite")
        v = np.maximum(s[-xp.size:] if has_zero_atom else s, 0.0) * d
        top = float(v.max())
        if top > 1e150:
            # v @ v could overflow; dividing by a power of two is exact
            # and leaves v / |v| as it is
            v = np.ldexp(v, -math.frexp(top)[1])
    norm = math.sqrt(v @ v)
    v = d / math.sqrt(d @ d) if norm == 0.0 else v / norm

    best_resid, best_rho = np.inf, -np.inf
    for iters in range(1, MAX_ITERS + 1):
        mv = d * min_kernel_apply(xs, d * v)
        rayleigh = float(v @ mv)
        resid_sym = float(np.max(np.abs(mv - rayleigh * v)))
        if not math.isfinite(resid_sym):
            raise IterationLimitError(
                f"power iteration broke down (symmetric residual "
                f"{resid_sym})", residual=resid_sym)
        v = mv / math.sqrt(mv @ mv)
        # a sweep makes progress when the residual reaches a new minimum or
        # rho (nondecreasing in exact arithmetic) a new maximum; at the
        # rounding floor neither happens.  The max-norm residual alone can
        # rise for dozens of sweeps from a start that happens to fit well
        if resid_sym < best_resid or rayleigh > best_rho:
            best_resid = min(best_resid, resid_sym)
            best_rho = max(best_rho, rayleigh)
            progressed = iters
        if iters > 1 and (resid_sym <= EIGEN_TOL * abs(rayleigh)
                          or iters - progressed > 40):
            break
    else:
        raise IterationLimitError(
            f"power iteration did not converge in {MAX_ITERS} sweeps "
            f"(symmetric residual {_unscaled(resid_sym, scale_exp):.3e})",
            residual=_unscaled(resid_sym, scale_exp))

    lam = _unscaled(rayleigh, scale_exp)
    if lam == math.inf:
        raise InputError(f"the eigenvalue {rayleigh:.6g} * 2^{scale_exp} "
                         f"does not fit in a float")
    theta_pos = np.maximum(v, 0.0) / d
    theta_pos /= float(theta_pos @ ws)
    # lam * theta and K(theta * w) keep their values when the masses scale
    resid_s = float(np.max(np.abs(
        rayleigh * theta_pos - min_kernel_apply(xs, theta_pos * ws))))
    residual = resid_s * age_scale
    if resid_s > 1e-6 * abs(rayleigh):
        raise IterationLimitError(
            f"power iteration stalled with residual {residual:.3e} "
            f"(eigenvalue {lam:.6g})", residual=residual)
    if mass_exp:
        theta_pos = np.ldexp(theta_pos, -mass_exp)
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
    theta = pair.theta
    cube = float((theta * theta * theta * pair.source.masses).sum())
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

def theta_to_pi(lam: float, kinks: Sequence[tuple[float, float]]) -> AgeMeasure:
    """Reconstruct the positive part of a measure from (lam, theta).

    ``kinks`` lists (x_k, theta(x_k)) for x_k > 0 strictly increasing; the
    function is pinned at theta(0) = 0, interpolates linearly between kinks,
    and is flat past the last one, as the extension of an eigenfunction is.
    Each kink where the slope drops carries an atom of mass
    lam * (slope_left - slope_right) / theta(x_k); a slope that rises by more
    than ``CONCAVITY_TOL`` (relative to the first) is an InputError.  Any
    mass of the original measure at 0 is not recoverable.
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
    with np.errstate(over="ignore"):
        slopes = np.diff(th, prepend=0.0) / np.diff(x, prepend=0.0)
    if not np.isfinite(slopes).all():
        raise InputError("a kink slope theta / x overflows")
    slopes = np.append(slopes, 0.0)
    tol = CONCAVITY_TOL * max(1.0, float(slopes[0]))
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
    with np.errstate(over="ignore", invalid="ignore"):
        bound = float(np.max(x * np.cumsum(w[::-1])[::-1]))
    if not math.isfinite(bound):
        raise InputError("the lower bound x * pi([x, inf)) overflows")
    return bound


def lambda_upper_bounds(measure: AgeMeasure) -> tuple[float, float]:
    """(mean bound, Hilbert-Schmidt bound), with lam <= HS <= mean.

    The mean bound is the first moment; the HS bound is the Frobenius norm
    of the weighted kernel, sqrt(double integral of (x ^ y)^2), summed on
    the ages and masses scaled as :func:`leading_pair` scales them, so that
    huge ages or masses do not overflow the squares.
    """
    x, w = measure.locations, measure.masses
    mean = measure.first_moment()
    if x.size == 0:
        return mean, 0.0
    x, w, age_scale, mass_exp = _scaled(x, w)
    cum_w = np.cumsum(w)
    cum_x2w = np.cumsum(x * x * w)
    hs_sq = float(w @ (cum_x2w + x * x * (cum_w[-1] - cum_w)))
    return mean, math.ldexp(math.sqrt(hs_sq) * age_scale, mass_exp)


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
