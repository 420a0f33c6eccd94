"""Holomorphic functions of prescribed boundary growth and their scale placement.

The model family is u(z) = (1 - conj(z0) z)^(-gamma) with a singularity of
order gamma at the boundary point z0.  Its Taylor coefficients follow the
one-term recurrence a_{n+1} = a_n (n + gamma) / (n + 1) conj(z0) and behave
like n^(gamma - 1), so the trace norm of index s - 1/2 converges exactly when
s < 1 - gamma.  Scale placement is decided from coefficient tails (dyadic
block ratios), never from 2-D integrals over the disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidDataError, TruncationError
from .hardy import InteriorFunction, evaluate_interior
from .spectral import _scaled, _weighted_squares

__all__ = [
    "GrowthFamilySpec",
    "GrowthReport",
    "ScaleEstimate",
    "GrowthFit",
    "growth_family_coeffs",
    "estimate_min_sobolev",
    "pointwise_growth_exponent",
    "classify_decay",
    "build_growth_report",
]

_BLOCK_FIRST = 3          # first dyadic block is [8, 16)
_BLOCK_DELTA = 0.05       # convergent iff late block ratios stay below 1 - delta
_FIT_RESIDUAL_MAX = 0.25  # log-log tail regression quality gate
_SQUARE_MAX = math.sqrt(np.finfo(float).max)  # largest magnitude whose square is finite


@dataclass(frozen=True)
class GrowthFamilySpec:
    """Parameters of the boundary-singularity family: point z0, exponent gamma, degree."""

    z0: complex
    gamma: float
    degree: int

    def __post_init__(self) -> None:
        z0 = complex(self.z0)
        if abs(abs(z0) - 1.0) >= 1e-12:
            raise ValueError(f"singularity must sit on the unit circle, |z0| = {abs(z0)!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("growth exponent must be positive and finite")
        if int(self.degree) < 8:
            raise ValueError("truncation degree must be at least 8")
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "degree", int(self.degree))


@dataclass(frozen=True)
class ScaleEstimate:
    """Outcome of the minimal-index search: value plus a status flag.

    ``flag`` is one of ``ok``, ``entire-side-saturation`` (every grid level
    passed, e.g. polynomials), ``inconclusive`` (tail too irregular to call),
    or ``below-grid`` (no grid level passed).  ``norm_curve`` holds
    (s, trace norm of index s - 1/2) for each grid level, inf where the norm
    exceeds the float range.
    """

    s_min: int | None
    flag: str
    norm_curve: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares fit |u(r z0)| ~ C (1 - r)^(-gamma) along the radius to z0."""

    gamma_fitted: float
    c_fitted: float
    truncation_warning: bool


@dataclass(frozen=True)
class GrowthReport:
    gamma_fitted: float
    c_fitted: float
    r_used: float
    s_min_estimate: int | None
    s_min_flag: str
    truncation_warning: bool
    norm_curve: tuple[tuple[int, float], ...]

    def to_doc(self) -> dict:
        return {
            "gamma_fitted": float(self.gamma_fitted),
            "C_fitted": float(self.c_fitted),
            "R_used": float(self.r_used),
            "s_min_estimate": self.s_min_estimate,
            "s_min_flag": self.s_min_flag,
            "truncation_warning": bool(self.truncation_warning),
            "norm_curve": [[int(s), float(v)] for s, v in self.norm_curve],
        }


def growth_family_coeffs(spec: GrowthFamilySpec) -> InteriorFunction:
    """Taylor coefficients of (1 - conj(z0) z)^(-gamma), truncated at spec.degree."""
    # a_n is the running product of the ratios (k + gamma) / (k + 1) conj(z0), k < n.
    n = spec.degree
    a = np.empty(n + 1, dtype=complex)
    a[0] = 1.0
    np.divide(np.arange(n) + spec.gamma, np.arange(1.0, n + 1.0), out=a[1:])
    a[1:] *= np.conj(spec.z0)
    # A product beyond the float range is reported once, by the container's
    # finiteness check, not by a stream of numpy warnings.  The copy it makes
    # stays on purpose: handing this array over uncopied was measured to slow
    # the placement that follows by more than the copy costs.
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumprod(a, out=a)
    return InteriorFunction(a)


def _block_ratios(weighted: np.ndarray) -> np.ndarray:
    """Ratios of consecutive dyadic block sums of a nonnegative sequence."""
    sums = np.array([weighted[2 ** k: 2 ** (k + 1)].sum()
                     for k in range(_BLOCK_FIRST, weighted.size.bit_length() - 1)])
    return np.divide(sums[1:], sums[:-1], out=np.zeros(max(len(sums) - 1, 0)), where=sums[:-1] > 0)


def _scan_levels(mags: np.ndarray, grid) -> tuple[list[int], tuple[tuple[int, float], ...]]:
    """Passing levels and the trace norms of index s - 1/2 for the levels s of the grid.

    One pass of :func:`~diskdual.spectral._weighted_squares` scales each
    level's terms (1 + n^2)^(s - 1/2) |a_n|^2 by a power of two, which keeps
    their block ratios; the rescaled root of their sum is the norm, equal to
    sobolev_norm(trace_interior(u), s - 0.5) bit for bit, or inf beyond the
    float range.
    """
    passing, curve = [], []
    for s, (terms, exponent) in zip(grid, _weighted_squares(mags, 0, [k - 0.5 for k in grid])):
        if _converges(terms):
            passing.append(s)
        curve.append((s, _scaled(math.sqrt(terms.sum()), int(exponent) // 2)))
    return passing, tuple(curve)


def _converges(weighted: np.ndarray) -> bool:
    tail = _block_ratios(weighted)[-3:]
    return bool(np.max(tail) < 1.0 - _BLOCK_DELTA) if tail.size else False


def _tail_fit_residual(mags: np.ndarray) -> float:
    """RMS residual of the least-squares line log |a_n| ~ p log n + q, n >= max(8, N/2), a_n != 0.

    Closed form, centred: with x, y the logs minus their means, p = (x.y)/(x.x)
    and the residual is sqrt(mean((y - p x)^2)); fewer than 8 points read 0.0.
    Only its comparison with ``_FIT_RESIDUAL_MAX`` is used.
    """
    start = max(8, mags.size // 2)
    tail, n = mags[start:], np.arange(start, mags.size, dtype=float)
    if not tail.all():
        tail, n = tail[tail > 0], n[tail > 0]
    if tail.size < 8:
        return 0.0
    x, y = np.log(n, out=n), np.log(tail)
    x -= x.mean()
    y -= y.mean()
    x *= (x @ y) / (x @ x)
    y -= x
    return math.sqrt((y @ y) / y.size)


def estimate_min_sobolev(u: InteriorFunction, s_grid) -> ScaleEstimate:
    """Largest integer s on the grid whose trace norm passes the convergence test.

    A level passes when the late dyadic block sums of
    (1 + n^2)^(s - 1/2) |a_n|^2 shrink by at least delta = 0.05 per block.
    Log-divergent edges therefore fail, and tails too irregular for a stable
    log-log fit come back ``inconclusive`` instead of a guess.  Coefficients
    whose squares overflow raise :class:`InvalidDataError`; weights and
    norms may leave the float range (a norm that does reads inf).
    """
    a = u.coeffs
    if a.size < 64:
        raise TruncationError(f"need at least 64 coefficients for a stable tail, got {a.size}")
    if not np.any(a):
        raise DegenerateInputError("cannot place the zero function on the scale")
    grid = sorted({int(s) for s in s_grid})
    if not grid:
        raise ValueError("empty Sobolev grid")
    mags = np.abs(a)
    if mags.max() > _SQUARE_MAX:
        raise InvalidDataError(f"coefficient magnitudes up to {mags.max():.3g} overflow when "
                               f"squared; scale placement needs |a_n| <= {_SQUARE_MAX:.3g}")
    passing, curve = _scan_levels(mags, grid)
    if len(passing) == len(grid):
        return ScaleEstimate(max(grid), "entire-side-saturation", curve)
    # nested-scale sanity: the passing set must be an initial segment
    if passing != grid[: len(passing)]:
        return ScaleEstimate(None, "inconclusive", curve)
    if _tail_fit_residual(mags) > _FIT_RESIDUAL_MAX:
        return ScaleEstimate(None, "inconclusive", curve)
    if not passing:
        return ScaleEstimate(None, "below-grid", curve)
    return ScaleEstimate(max(passing), "ok", curve)


def pointwise_growth_exponent(u: InteriorFunction, z0: complex, radii) -> GrowthFit:
    """Fit log |u(r z0)| against -log(1 - r) over the given radii.

    The slope estimates the blow-up order at z0 and exp(intercept) the
    constant.  ``truncation_warning`` is set when the stored degree cannot
    resolve the largest radius (degree < 10 / (1 - max r)).
    """
    z0 = complex(z0)
    if abs(abs(z0) - 1.0) >= 1e-12:
        raise ValueError("growth is measured toward a boundary point, need |z0| = 1")
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("need at least two radii")
    if not (np.all(np.diff(r) > 0) and r[0] > 0 and r[-1] < 1.0 - 1e-6):
        raise ValueError("radii must increase strictly within (0, 1 - 1e-6)")
    vals = np.abs(np.array([evaluate_interior(u, ri * z0) for ri in r]))
    if np.any(vals == 0):
        raise DegenerateInputError("function vanishes on the sample radii")
    slope, intercept = np.polyfit(-np.log1p(-r), np.log(vals), 1)
    warn = u.coeffs.size < 10.0 / (1.0 - r[-1])
    return GrowthFit(float(slope), float(np.exp(intercept)), bool(warn))


def classify_decay(coeffs) -> str:
    """Classify a coefficient tail: ``smooth``, ``finite-order``, or ``neither``.

    Smooth means super-polynomial decay (the local log-log slope between
    dyadic indices dives without bound); finite-order means the local slope
    stabilizes at a moderate value; anything else (e.g. exp(sqrt(n)) growth)
    is neither.
    """
    mags = np.abs(np.asarray(coeffs, dtype=complex))
    if mags.size < 16:
        raise TruncationError(f"need support >= 16 to classify decay, got {mags.size}")
    if not mags.any():
        return "smooth"
    exps: list[float] = []
    j = 1
    while 2 * j < mags.size:
        lo, hi = mags[j], mags[2 * j]
        if lo > 0 and hi > 0:
            exps.append(float(np.log2(hi / lo)))
        elif lo > 0 and hi == 0 and not mags[2 * j:].any():
            return "smooth"  # finitely supported tail
        j *= 2
    if len(exps) < 2:
        return "smooth" if not mags[mags.size // 2:].any() else "neither"
    last, prev = exps[-1], exps[-2]
    if last <= -4.0 and last <= prev - 1.0:
        return "smooth"
    if abs(last - prev) <= 0.5 and abs(last) <= 16.0:
        return "finite-order"
    return "neither"


def build_growth_report(spec: GrowthFamilySpec, s_grid, radii=None) -> GrowthReport:
    """Generate the family, fit its growth, and place it on the integer scale."""
    if radii is None:
        radii = 1.0 - 2.0 ** -np.arange(2, 8)
    u = growth_family_coeffs(spec)
    fit = pointwise_growth_exponent(u, spec.z0, radii)
    estimate = estimate_min_sobolev(u, s_grid)
    for s, value in estimate.norm_curve:
        if not math.isfinite(value):
            raise InvalidDataError(f"trace norm of index {s - 0.5} exceeds the float range")
    r_used = float(1.0 - np.min(np.asarray(radii, dtype=float)))
    return GrowthReport(fit.gamma_fitted, fit.c_fitted, r_used, estimate.s_min, estimate.flag,
                        fit.truncation_warning, estimate.norm_curve)
