"""Hardy decomposition and the Cauchy transform on the unit disk.

Interior functions are power series sum a_n z^n; exterior functions are
Laurent tails sum b_m z^(-m) (m >= 1), so vanishing at infinity is built into
the representation.  The Cauchy transform acts on boundary coefficients by
the frequency split: nonnegative modes reproduce the interior side, negative
modes reproduce (minus) the exterior side, and the difference of the two
one-sided boundary traces returns the data (the weak jump identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryProximityError, EvaluationDomainError
from .spectral import BoundaryDistribution, _require_finite, _wrap, pad_or_truncate, sobolev_norm

__all__ = [
    "BOUNDARY_EVALUATION_THRESHOLD",
    "InteriorFunction",
    "ExteriorFunction",
    "trace_interior",
    "trace_exterior",
    "boundary_trace",
    "cauchy_transform",
    "hardy_projections",
    "jump_residual",
    "evaluate_interior",
    "evaluate_exterior",
]

# Spectral evaluation refuses points with | |z| - 1 | at or below this; the
# series still converge but conditioning no longer supports the advertised
# accuracy.
BOUNDARY_EVALUATION_THRESHOLD = 1e-9

# Width of the power blocks in :func:`_series`.
_SERIES_BLOCK = 1024


def _init_series(obj, what: str, empty_is_zero: bool) -> None:
    """Validate and freeze a series container's coefficients and Sobolev index."""
    arr = np.array(obj.coeffs, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a 1-D sequence")
    _require_finite(arr, what)
    if empty_is_zero and arr.size == 0:
        arr = np.zeros(1, dtype=complex)
    arr.flags.writeable = False
    object.__setattr__(obj, "coeffs", arr)
    if not math.isfinite(obj.index):
        raise ValueError("Sobolev index must be finite")
    object.__setattr__(obj, "index", float(obj.index))


def _powers(z: complex, width: int) -> np.ndarray:
    """z^0 .. z^(width-1) as one running product."""
    powers = np.empty(width, dtype=complex)
    powers.fill(z)
    powers[0] = 1.0
    powers.cumprod(out=powers)
    return powers


def _series(c: np.ndarray, z: complex) -> complex:
    """sum_n c_n z^n for non-empty c and |z| < 1, by blocked powers instead of Horner's loop.

    The powers z^0 .. z^(B-1) are formed once; each block of B coefficients
    is summed against them in one matrix-vector product, and the block sums
    are again a series, in w = z^B.  Since |z| < 1 the powers can only
    underflow, and a running product that reaches exactly 0 stays 0.  So the
    next level's weights w^k are formed first, and the blocks from its first
    zero weight on are not read: each would add exactly +-0.  Every bit of
    the full sum holds because the kept blocks still take a product of at
    least two rows (one row takes another BLAS kernel) and the skipped block
    sums stay in the next level as zeros, which keeps its length.  The one
    difference: a skipped block whose sum is not finite no longer makes the
    value NaN.  The six default radii of a growth report read 184 of 6150
    blocks at N = 2^20 + 1, 0.26 against 3.8 ms on one CPU.
    """
    c = np.ascontiguousarray(c)
    if c.size == 1:
        return complex(c[0])
    powers = _powers(z, min(c.size, _SERIES_BLOCK))
    while c.size > _SERIES_BLOCK:
        rows, tail = divmod(c.size, _SERIES_BLOCK)
        sums = np.zeros(rows + (tail > 0), dtype=complex)
        z = powers[-1] * z
        following = _powers(z, min(sums.size, _SERIES_BLOCK))
        keep = int(np.argmax(following == 0)) if following[-1] == 0 else sums.size
        used = min(max(keep, 2), rows)
        np.matmul(c[: used * _SERIES_BLOCK].reshape(used, -1), powers, out=sums[:used])
        if tail and rows < keep:
            sums[rows] = c[rows * _SERIES_BLOCK:] @ powers[:tail]
        c, powers = sums, following
    return complex((c.reshape(1, -1) @ powers)[0])


@dataclass(frozen=True, eq=False)
class InteriorFunction:
    """Truncated power series sum a_n z^n, holomorphic on |z| < 1.

    ``index`` is the Sobolev level the function is bookkept on; it never
    affects coefficient arithmetic.
    """

    coeffs: np.ndarray
    index: float = 0.0

    def __post_init__(self) -> None:
        _init_series(self, "interior coefficients", empty_is_zero=True)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


@dataclass(frozen=True, eq=False)
class ExteriorFunction:
    """Truncated Laurent tail sum b_m z^(-m), m = 1 .. len(coeffs).

    There is no m = 0 slot: every exterior function vanishes at infinity by
    construction.  An empty coefficient array is the zero function.
    """

    coeffs: np.ndarray
    index: float = 0.0

    def __post_init__(self) -> None:
        _init_series(self, "exterior coefficients", empty_is_zero=False)


def trace_interior(u: InteriorFunction) -> BoundaryDistribution:
    """Weak boundary value of u: c_n = a_n for n >= 0.  Shares u's array."""
    return _wrap(BoundaryDistribution, u.coeffs, n_min=0)


def trace_exterior(v: ExteriorFunction) -> BoundaryDistribution:
    """Weak boundary value of v: c_{-m} = b_m for m >= 1."""
    if v.coeffs.size == 0:
        return _wrap(BoundaryDistribution, np.zeros(1, dtype=complex), n_min=-1)
    # A contiguous copy: a reversed view would change the rounding of sums.
    return _wrap(BoundaryDistribution, v.coeffs[::-1].copy(), n_min=-v.coeffs.size)


def boundary_trace(obj) -> BoundaryDistribution:
    """Boundary trace of any coefficient container; boundary data is its own trace."""
    if isinstance(obj, BoundaryDistribution):
        return obj
    if isinstance(obj, InteriorFunction):
        return trace_interior(obj)
    if isinstance(obj, ExteriorFunction):
        return trace_exterior(obj)
    raise TypeError(f"{type(obj).__name__} is not a coefficient container")


def cauchy_transform(f: BoundaryDistribution, z: complex) -> complex:
    """Cauchy transform of boundary data, evaluated off the unit circle.

    For |z| < 1 this is sum_{n>=0} c_n z^n; for |z| > 1 it is
    -sum_{n<=-1} c_n z^n.  Both branches agree with the classical integral
    (1/(2 pi i)) contour integral of f(zeta)/(zeta - z) dzeta.
    """
    z = complex(z)
    if abs(abs(z) - 1.0) <= BOUNDARY_EVALUATION_THRESHOLD:
        raise BoundaryProximityError(
            f"|z| = {abs(z)!r} is within {BOUNDARY_EVALUATION_THRESHOLD} of the unit circle"
        )
    if abs(z) < 1.0:
        if f.n_max < 0:
            return 0j
        return _series(pad_or_truncate(f, 0, f.n_max).coeffs, z)
    if z != z:  # NaN fails both comparisons above
        raise EvaluationDomainError(f"the Cauchy transform needs a point that is not NaN, got z = {z!r}")
    if f.n_min > -1:
        return 0j
    lower = pad_or_truncate(f, f.n_min, -1).coeffs
    w = 1.0 / z
    w = w if w == w else 0j  # NaN where both parts of z are infinite; 1/z tends to 0 there
    return complex(-w * _series(lower[::-1], w))


def hardy_projections(
    f: BoundaryDistribution, boundary_index: float = -0.5
) -> tuple[InteriorFunction, ExteriorFunction]:
    """Split boundary data into its interior and exterior Cauchy transforms.

    Returns (u, v_plus) where u restricts the transform to the disk
    (a_n = c_n, n >= 0) and v_plus restricts it to the outside
    (b_m = -c_{-m}, m >= 1), so the traces satisfy the jump identity
    u|bd - v_plus|bd = f.  ``boundary_index`` is the Sobolev level of the
    input data; both outputs are bookkept at boundary_index + 1/2, the level
    their traces live on.
    """
    out_index = float(boundary_index) + 0.5
    if not math.isfinite(out_index):
        raise ValueError("Sobolev index must be finite")
    upper = pad_or_truncate(f, 0, max(f.n_max, 0)).coeffs
    if f.n_min < 0:
        b = -pad_or_truncate(f, f.n_min, -1).coeffs[::-1]
    else:
        b = np.zeros(0, dtype=complex)
    return (_wrap(InteriorFunction, upper, index=out_index),
            _wrap(ExteriorFunction, b, index=out_index))


def jump_residual(f: BoundaryDistribution) -> float:
    """L2 size of u|bd - v_plus|bd - f for the Hardy split of f.

    Zero up to rounding for every finitely supported distribution: the split
    is exact in the coefficient representation.  The traces live on the
    disjoint sides n >= 0 and n < 0, so the residual is formed side by side
    against f's part there, with no zero-filled union window, and the two L2
    sizes are combined.  Both sides are formed in turn in one buffer, so
    besides the split's negated half the working set is one side and its
    magnitudes.
    """
    u, v_plus = hardy_projections(f)
    a, b = u.coeffs, v_plus.coeffs
    # c_n for n = 0, 1, ... and for n = -1, -2, ..., each over the wider window
    upper = pad_or_truncate(f, 0, max(a.size - 1, f.n_max, 0)).coeffs
    lower = pad_or_truncate(f, min(-b.size, f.n_min, -1), -1).coeffs[::-1]
    buffer = np.empty(max(upper.size, lower.size), dtype=complex)
    norms = []
    # the residual is a_n - c_n at n >= 0 and -(b_m + c_-m) at n = -m < 0; only
    # its magnitudes are normed, so past a's or b's end it is c.  Each side's
    # container is dropped before the next side is written.
    for x, c, combine in ((a, upper, np.subtract), (b, lower, np.add)):
        side = buffer[: c.size]
        combine(x, c[: x.size], out=side[: x.size])
        side[x.size:] = c[x.size:]
        norms.append(sobolev_norm(_wrap(BoundaryDistribution, side, n_min=0), 0.0))
    return math.hypot(*norms)


def evaluate_interior(u: InteriorFunction, z: complex) -> complex:
    """Partial-sum value of u at a point strictly inside the disk."""
    z = complex(z)
    if not abs(z) < 1.0:  # negated, so that NaN is refused too
        raise EvaluationDomainError(f"interior evaluation needs |z| < 1, got z = {z!r}")
    return _series(u.coeffs, z)


def evaluate_exterior(v: ExteriorFunction, z: complex) -> complex:
    """Partial-sum value of v at a point strictly outside the closed disk."""
    z = complex(z)
    if not abs(z) > 1.0 or z != z:  # |inf + nan j| is inf
        raise EvaluationDomainError(f"exterior evaluation needs |z| > 1, got z = {z!r}")
    if v.coeffs.size == 0:
        return 0j
    w = 1.0 / z
    w = w if w == w else 0j  # NaN where both parts of z are infinite; 1/z tends to 0 there
    return complex(w * _series(v.coeffs, w))
