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
from .spectral import BoundaryDistribution, _require_finite, pad_or_truncate, sobolev_norm

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


def _as_coeff_array(values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a 1-D sequence")
    _require_finite(arr, what)
    arr.flags.writeable = False
    return arr


def _series(c: np.ndarray, z: complex) -> complex:
    """sum_n c_n z^n for non-empty c and |z| < 1, by blocked powers instead of Horner's loop.

    The powers z^0 .. z^(B-1) are formed once; each block of B coefficients
    is summed against them in one matrix-vector product, and the block sums
    are again a series, in z^B.  Since |z| < 1 the powers can only underflow.
    """
    c = np.ascontiguousarray(c)
    while c.size > 1:
        width = min(c.size, _SERIES_BLOCK)
        powers = np.full(width, z)
        powers[0] = 1.0
        np.cumprod(powers, out=powers)
        full = c.size - c.size % width
        sums = c[:full].reshape(-1, width) @ powers
        if full < c.size:
            sums = np.append(sums, c[full:] @ powers[: c.size - full])
        c, z = sums, powers[-1] * z
    return complex(c[0])


@dataclass(frozen=True, eq=False)
class InteriorFunction:
    """Truncated power series sum a_n z^n, holomorphic on |z| < 1.

    ``index`` is the Sobolev level the function is bookkept on; it never
    affects coefficient arithmetic.
    """

    coeffs: np.ndarray
    index: float = 0.0

    def __post_init__(self) -> None:
        arr = _as_coeff_array(self.coeffs, "interior coefficients")
        if arr.size == 0:
            arr = np.zeros(1, dtype=complex)
            arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        if not math.isfinite(self.index):
            raise ValueError("Sobolev index must be finite")
        object.__setattr__(self, "index", float(self.index))

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
        arr = _as_coeff_array(self.coeffs, "exterior coefficients")
        object.__setattr__(self, "coeffs", arr)
        if not math.isfinite(self.index):
            raise ValueError("Sobolev index must be finite")
        object.__setattr__(self, "index", float(self.index))

    @property
    def top_order(self) -> int:
        """Highest pole order stored (0 for the zero function)."""
        return self.coeffs.size


def trace_interior(u: InteriorFunction) -> BoundaryDistribution:
    """Weak boundary value of u: c_n = a_n for n >= 0."""
    return BoundaryDistribution(0, u.coeffs)


def trace_exterior(v: ExteriorFunction) -> BoundaryDistribution:
    """Weak boundary value of v: c_{-m} = b_m for m >= 1."""
    if v.coeffs.size == 0:
        return BoundaryDistribution(-1, np.zeros(1, dtype=complex))
    return BoundaryDistribution(-v.coeffs.size, v.coeffs[::-1])


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
    if f.n_min > -1:
        return 0j
    lower = pad_or_truncate(f, f.n_min, -1).coeffs
    w = 1.0 / z
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
    upper = pad_or_truncate(f, 0, max(f.n_max, 0)).coeffs
    u = InteriorFunction(upper, out_index)
    if f.n_min < 0:
        lower = pad_or_truncate(f, f.n_min, -1).coeffs
        b = -lower[::-1]
    else:
        b = np.zeros(0, dtype=complex)
    return u, ExteriorFunction(b, out_index)


def jump_residual(f: BoundaryDistribution) -> float:
    """L2 size of u|bd - v_plus|bd - f for the Hardy split of f.

    Zero up to rounding for every finitely supported distribution: the split
    is exact in the coefficient representation.
    """
    u, v_plus = hardy_projections(f)
    return sobolev_norm(trace_interior(u) - trace_exterior(v_plus) - f, 0.0)


def evaluate_interior(u: InteriorFunction, z: complex) -> complex:
    """Partial-sum value of u at a point strictly inside the disk."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise EvaluationDomainError(f"interior evaluation needs |z| < 1, got |z| = {abs(z)!r}")
    return _series(u.coeffs, z)


def evaluate_exterior(v: ExteriorFunction, z: complex) -> complex:
    """Partial-sum value of v at a point strictly outside the closed disk."""
    z = complex(z)
    if abs(z) <= 1.0:
        raise EvaluationDomainError(f"exterior evaluation needs |z| > 1, got |z| = {abs(z)!r}")
    if v.coeffs.size == 0:
        return 0j
    w = 1.0 / z
    return complex(w * _series(v.coeffs, w))
