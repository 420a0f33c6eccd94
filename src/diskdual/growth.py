"""Holomorphic functions of prescribed boundary growth and their scale placement.

The model family is u(z) = (1 - conj(z0) z)^(-gamma) with a singularity of
order gamma at the boundary point z0.  Its Taylor coefficients follow the
one-term recurrence a_{n+1} = a_n (n + gamma) / (n + 1) conj(z0) and behave
like n^(gamma - 1), so the trace norm of index s - 1/2 converges exactly when
s < 1 - gamma.  Scale placement reads one number from the coefficient tail,
the exponent p of |a_n| ~ n^p extrapolated from dyadic block sums, never a
2-D integral over the disk: level s converges iff s < -p, and an integer -p
is reported as a divergent edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidDataError, TruncationError
from .hardy import InteriorFunction, evaluate_interior
from .spectral import _LEAF, _norm_parts, _scaled, _scaled_squares

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

_BLOCKS = 5  # blocks [8, 16) on; two Richardson steps and their bar need five
# Margins in bars.  An extrapolant error f 8^-k makes a bar of 7 f 8^-k.  Over
# N in {512, 4096, 65536}, gamma in {0.5, 1, 1.5, 2, 3, 5, 7.5, 10, 20, 40}
# and z0 in {1, e^0.7i}, -p lies within 0.2 bars of 1 - gamma for integer
# gamma and 800 bars or more from any integer otherwise; gamma = 40 at
# N = 512 (bar 0.27) reads inconclusive.  1.5 bars still saturate the grid
# with e^(-n/100) from N = 4096 on.
_EDGE, _SAFE = 0.5, 1.5
_BAR_MAX = 0.25    # an edge is read only while -p is known to a quarter
_BAR_FLOOR = 1e-9  # rounding moves an extrapolant by ~1e-12
_SQUARE_MAX = math.sqrt(np.finfo(float).max)  # largest magnitude whose square is finite


@dataclass(frozen=True)
class GrowthFamilySpec:
    """Parameters of the boundary-singularity family: point z0, exponent gamma, degree."""

    z0: complex
    gamma: float
    degree: int

    def __post_init__(self) -> None:
        z0 = complex(self.z0)
        if not abs(abs(z0) - 1.0) < 1e-12:  # NaN and inf included
            raise ValueError(f"singularity must sit on the unit circle, z0 = {z0!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("growth exponent must be positive and finite")
        if int(self.degree) < 8:
            raise ValueError("truncation degree must be at least 8")
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "degree", int(self.degree))


@dataclass(frozen=True)
class ScaleEstimate:
    """Minimal index, flag (``ok``, ``entire-side-saturation``, ``inconclusive``
    or ``below-grid``) and the numbers behind them: (s, trace norm of index
    s - 1/2) per grid level (inf past the float range), p, its bar, the
    distance from -p to the nearest integer, and that integer when read as
    the log-divergent edge (None where they do not apply).
    """

    s_min: int | None
    flag: str
    norm_curve: tuple[tuple[int, float], ...]
    tail_exponent: float | None = None
    bar: float | None = None
    edge_distance: float | None = None
    edge: int | None = None


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares fit |u(r z0)| ~ C (1 - r)^(-gamma) along the radius to z0."""

    gamma_fitted: float
    c_fitted: float
    truncation_warning: bool


@dataclass(frozen=True)
class GrowthReport:
    fit: GrowthFit
    r_used: float
    placement: ScaleEstimate

    def to_doc(self) -> dict:
        fit, placement = self.fit, self.placement
        return {
            "gamma_fitted": float(fit.gamma_fitted),
            "C_fitted": float(fit.c_fitted),
            "R_used": float(self.r_used),
            "s_min_estimate": placement.s_min,
            "s_min_flag": placement.flag,
            "truncation_warning": bool(fit.truncation_warning),
            "norm_curve": [[int(s), float(v)] for s, v in placement.norm_curve],
            "tail_exponent": placement.tail_exponent,
            "tail_exponent_bar": placement.bar,
            "edge_distance": placement.edge_distance,
            "log_divergent_edge": placement.edge,
        }


def growth_family_coeffs(spec: GrowthFamilySpec) -> InteriorFunction:
    """Taylor coefficients of (1 - conj(z0) z)^(-gamma), truncated at spec.degree.

    a_n is the running product of the ratios (k + gamma) / (k + 1) conj(z0),
    k < n.  The ratios are formed _LEAF at a time straight into the result,
    so the working set is the result and the container's validated copy: two
    (N + 1)-point complex arrays, 32 MiB at N = 2^20.
    """
    n = spec.degree
    a = np.empty(n + 1, dtype=complex)  # an n past memory is refused here
    a[0] = 1.0
    zc = np.conj(spec.z0)
    for lo in range(0, n, _LEAF):
        hi = min(lo + _LEAF, n)
        np.multiply((np.arange(lo, hi) + spec.gamma) / np.arange(lo + 1.0, hi + 1.0), zc, out=a[1 + lo: 1 + hi])
    # A product beyond the float range is reported once, by the container's
    # finiteness check.  Its copy stays: handing this array over uncopied was
    # measured to slow the placement that follows by more than the copy costs.
    with np.errstate(over="ignore", invalid="ignore"):
        a.cumprod(out=a)
    return InteriorFunction(a)


def _tail_exponent(mags: np.ndarray) -> tuple[float | None, float | None]:
    """(p, bar) for |a_n| ~ n^p from the last five dyadic block sums B_k of |a_n|^2.

    r_k = log2(B_(k+1) / B_k) = 2p + 1 + c 2^-k + O(4^-k): two Richardson
    steps remove both terms, and the gap of the last two extrapolants is the
    bar.  p is -inf when the last block is zero (finite support) and None
    with fewer than five blocks from [8, 16) or another zero block.
    """
    top = mags.size.bit_length() - 1  # the last full block ends at 2^top
    count = min(top - 3, _BLOCKS)
    lo = 2 ** (top - count)
    squares, _ = _scaled_squares(mags[lo: 2 ** top])
    sums = np.add.reduceat(squares, lo * (2 ** np.arange(count) - 1))
    if not sums[-1]:
        return -math.inf, 0.0
    if count < _BLOCKS or not sums.all():
        return None, None
    r = np.diff(np.log2(sums))
    r = 2.0 * r[1:] - r[:-1]
    r = (4.0 * r[1:] - r[:-1]) / 3.0
    return (float(r[-1]) - 1.0) / 2.0, abs(float(r[-1] - r[-2])) / 2.0


def estimate_min_sobolev(u: InteriorFunction, s_grid) -> ScaleEstimate:
    """Largest integer s on the grid whose trace norm of index s - 1/2 converges.

    It converges iff s < q = -p (see :func:`_tail_exponent`).  q within
    _EDGE bars of an integer m (bar <= _BAR_MAX) reads as q = m, level m
    divergent: exact for the family, conservative where a log factor makes
    it converge.  Otherwise a grid level within _SAFE bars of q makes the
    result ``inconclusive``.  Squares of |a_n| must not overflow.
    """
    a = u.coeffs
    if a.size < 64:
        raise TruncationError(f"need at least 64 coefficients for a stable tail, got {a.size}")
    mags = np.abs(a)
    top = mags.max()
    if not top:
        raise DegenerateInputError("cannot place the zero function on the scale")
    grid = sorted({int(s) for s in s_grid})
    if not grid:
        raise ValueError("empty Sobolev grid")
    if top > _SQUARE_MAX:
        raise InvalidDataError(f"coefficient magnitudes up to {top:.3g} overflow when "
                               f"squared; scale placement needs |a_n| <= {_SQUARE_MAX:.3g}")
    # each norm equals sobolev_norm(trace_interior(u), s - 0.5) bit for bit
    curve = tuple((s, _scaled(root, k)) for s, (root, k) in zip(grid, _norm_parts(mags, 0, [s - 0.5 for s in grid])))
    p, bar = _tail_exponent(mags)
    if p is None:
        return ScaleEstimate(None, "inconclusive", curve)
    if p == -math.inf:
        return ScaleEstimate(max(grid), "entire-side-saturation", curve)
    tol, edge = max(bar, _BAR_FLOOR), round(-p)
    distance = abs(p + edge)
    lo = hi = edge
    if distance > _EDGE * tol or tol > _BAR_MAX:
        edge, lo, hi = None, -p - _SAFE * tol, -p + _SAFE * tol
    passing = [s for s in grid if s < lo]
    if any(lo <= s < hi for s in grid):
        flag, s_min = "inconclusive", None
    elif len(passing) == len(grid):
        flag, s_min = "entire-side-saturation", max(grid)
    else:
        flag, s_min = ("ok", max(passing)) if passing else ("below-grid", None)
    return ScaleEstimate(s_min, flag, curve, p, bar, distance, edge)


def pointwise_growth_exponent(u: InteriorFunction, z0: complex, radii) -> GrowthFit:
    """Fit log |u(r z0)| against -log(1 - r) over the given radii.

    The slope estimates the blow-up order at z0 and exp(intercept) the
    constant.  ``truncation_warning`` is set when the stored coefficients
    cannot resolve the largest radius: the terms a_n r^n of a singularity of
    order gamma peak near n = gamma r / (1 - r), so the warning fires when
    fewer than (max(gamma_fitted, 0) + 10) / (1 - max r) are stored.
    """
    z0 = complex(z0)
    if not abs(abs(z0) - 1.0) < 1e-12:  # NaN and inf included
        raise ValueError(f"growth is measured toward a boundary point, need |z0| = 1, z0 = {z0!r}")
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("need at least two radii")
    if not ((np.diff(r) > 0).all() and r[0] > 0 and r[-1] < 1.0 - 1e-6):
        raise ValueError("radii must increase strictly within (0, 1 - 1e-6)")
    vals = np.abs(np.array([evaluate_interior(u, ri * z0) for ri in r]))
    if (vals == 0).any():
        raise DegenerateInputError("function vanishes on the sample radii")
    slope, intercept = np.polyfit(-np.log1p(-r), np.log(vals), 1)
    warn = u.coeffs.size < (max(slope, 0.0) + 10.0) / (1.0 - r[-1])
    return GrowthFit(float(slope), float(np.exp(intercept)), bool(warn))


def classify_decay(coeffs) -> str:
    """Classify a coefficient tail: ``smooth``, ``finite-order``, or ``neither``.

    Smooth means super-polynomial decay (the local log-log slope between
    dyadic indices dives without bound); finite-order means the local slope
    stabilizes at a moderate value; anything else (e.g. exp(sqrt(n)) growth)
    is neither.
    """
    return _decay_verdict(coeffs)[0]


def _decay_verdict(coeffs) -> tuple[str, list[float]]:
    """classify_decay's verdict and the last two (or fewer) dyadic log2 slopes it read."""
    mags = np.abs(np.asarray(coeffs, dtype=complex))
    if mags.size < 16:
        raise TruncationError(f"need support >= 16 to classify decay, got {mags.size}")
    if not mags.any():
        return "smooth", []
    exps: list[float] = []
    j = 1
    while 2 * j < mags.size:
        lo, hi = mags[j], mags[2 * j]
        if lo > 0 and hi > 0:
            exps.append(float(np.log2(hi / lo)))
        elif lo > 0 and hi == 0 and not mags[2 * j:].any():
            return "smooth", exps[-2:]  # finitely supported tail
        j *= 2
    if len(exps) < 2:
        return ("smooth" if not mags[mags.size // 2:].any() else "neither"), exps
    last, prev = exps[-1], exps[-2]
    if last <= -4.0 and last <= prev - 1.0:
        return "smooth", exps[-2:]
    if abs(last - prev) <= 0.5 and abs(last) <= 16.0:
        return "finite-order", exps[-2:]
    return "neither", exps[-2:]


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
    return GrowthReport(fit, float(1.0 - np.asarray(radii, dtype=float).min()), estimate)
