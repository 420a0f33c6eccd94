"""Parametrized smooth Jordan curves and trapezoid contour quadrature.

The trapezoid rule on a uniform parameter grid is spectrally accurate for
smooth periodic integrands, which makes it the independent cross-check for
every spectral identity in the package.  Near-curve evaluation is refused
outright instead of regularized: the Cauchy kernel quadrature keeps its
advertised accuracy only when dist(z, curve) > 10 * arc_length / M.  A point
that far outside the curve's annulus lo <= |zeta| <= hi needs no distance
search.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import BoundaryProximityError, InvalidDataError, InvalidGridError
from .hardy import ExteriorFunction, InteriorFunction
from .spectral import BoundaryDistribution, fourier_synthesize

__all__ = [
    "CurveDescriptor",
    "QuadratureGrid",
    "contour_integral",
    "cauchy_integral_quadrature",
    "pairing_quadrature",
    "interior_node_values",
    "exterior_node_values",
    "boundary_node_values",
]

PROXIMITY_FACTOR = 10.0

_PARAM_COUNTS = {"circle": 1, "ellipse": 2, "perturbed-circle": 2}
# Past 2^53 every float is an integer, so the integer check would say nothing;
# the cap also keeps eps * k * k in zeta'' far inside the float range.
_MAX_WAVENUMBER = 2.0 ** 53
_SCALAR = SimpleNamespace(exp=cmath.exp, cos=math.cos, sin=math.sin)

# distance_to takes the nearest node of _SAMPLE_GRID (M = 4096), then refines
# it by at most _NEWTON_STEPS safeguarded Newton steps; it stops once a step
# is below _NEWTON_TOL, which moves the distance by at most
# |zeta'| * _NEWTON_TOL.  arc_length is the trapezoid rule on the same nodes.
_NEWTON_STEPS = 8
_NEWTON_TOL = 1e-13
# _annulus widens the exact bounds of |zeta| by this relative amount, and
# cauchy_integral_quadrature |z| too, so that rounding in the nodes, in |z|
# and in |zeta - z| cannot take a point it certifies to within the bound.
_ANNULUS_SLACK = 1e-12


@dataclass(frozen=True)
class CurveDescriptor:
    """Positively oriented smooth Jordan curve given by kind + parameters.

    Kinds: ``circle(radius)``, ``ellipse(p, q)`` with semi-axes p, q, and
    ``perturbed-circle(eps, k)`` with radius 1 + eps cos(k theta).
    ``orientation`` is +1 (counterclockwise) or -1 for the reversed curve.
    """

    kind: str
    params: tuple[float, ...]
    orientation: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        count = _PARAM_COUNTS.get(self.kind)
        if count is None:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if len(self.params) != count:
            raise ValueError(f"{self.kind} takes {count} parameter(s), got {len(self.params)}")
        if not all(map(math.isfinite, self.params)):
            raise ValueError(f"curve parameters must be finite, got {self.params}")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        # These bound |zeta'| below by r, min(p, q) and 1 - eps.
        if self.kind == "circle" and self.params[0] <= 0:
            raise ValueError("circle radius must be positive")
        if self.kind == "ellipse" and min(self.params) <= 0:
            raise ValueError("ellipse semi-axes must be positive")
        if self.kind == "perturbed-circle":
            eps, k = self.params
            if not 0 <= eps < 1:
                raise ValueError("perturbation amplitude must lie in [0, 1)")
            if not 1 <= k <= _MAX_WAVENUMBER or k != int(k):
                raise ValueError("perturbation wavenumber must be a positive integer <= 2^53")

    @classmethod
    def circle(cls, radius: float = 1.0) -> "CurveDescriptor":
        return cls("circle", (radius,))

    @classmethod
    def ellipse(cls, p: float, q: float) -> "CurveDescriptor":
        return cls("ellipse", (p, q))

    @classmethod
    def perturbed_circle(cls, eps: float, k: int) -> "CurveDescriptor":
        return cls("perturbed-circle", (eps, k))

    @classmethod
    def parse(cls, text: str) -> "CurveDescriptor":
        """Parse a ``name:params`` description such as ``ellipse:1.5,0.7``."""
        name, _, rest = text.partition(":")
        try:
            params = tuple(float(p) for p in rest.split(",")) if rest else ()
        except ValueError as exc:
            raise ValueError(f"bad curve parameters in {text!r}") from exc
        return cls(name, params or ((1.0,) if name == "circle" else ()))

    def _jet(self, theta, lib=np, second=False):
        """zeta and zeta' at theta, then zeta'' if ``second``: arrays with numpy, one float with _SCALAR.

        The complex array expressions and their temporaries fix the rounding:
        from M = 2^14 on numpy may multiply into a complex temporary in place.
        Only the Newton step of :meth:`distance_to` asks for zeta''.
        """
        o = self.orientation
        t = o * theta
        if self.kind == "circle":
            r = self.params[0]
            zeta = r * lib.exp(1j * t)
            jet = zeta, o * (1j * r * lib.exp(1j * t))
        elif self.kind == "ellipse":
            p, q = self.params
            zeta = p * lib.cos(t) + 1j * q * lib.sin(t)
            jet = zeta, o * (-p * lib.sin(t) + 1j * q * lib.cos(t))
        else:
            eps, k = self.params
            c, s = lib.cos(k * t), lib.sin(k * t)
            jet = ((1.0 + eps * c) * lib.exp(1j * t),
                   o * (lib.exp(1j * t) * (1j * (1.0 + eps * c) - eps * k * s)))
            if second:
                return jet + (lib.exp(1j * t) * (-eps * k * k * c + 2j * (-eps * k * s) - (1.0 + eps * c)),)
        return jet + (-jet[0],) if second else jet

    def point(self, theta):
        """Position zeta(theta); accepts scalars or arrays."""
        return self._jet(np.asarray(theta, dtype=float))[0]

    def derivative(self, theta):
        """d zeta / d theta at the given parameters."""
        return self._jet(np.asarray(theta, dtype=float))[1]

    def reversed(self) -> "CurveDescriptor":
        return CurveDescriptor(self.kind, self.params, -self.orientation)

    def arc_length(self) -> float:
        return _arc_length(self)

    def distance_to(self, z: complex) -> float:
        """Distance from z to the curve.

        The nearest of 4096 parameter samples is refined by Newton steps on
        d/dtheta |zeta(theta) - z|^2 / 2, kept within one sample spacing of
        it (a step that leaves the bracket bisects instead).  The result is
        the distance to an actual curve point and never exceeds the nearest
        sample's, so it stays accurate when 10 * arc_length / M is far below
        the sample spacing.
        """
        z = complex(z)
        gaps = np.abs(_node_geometry(self, _SAMPLE_GRID)[0] - z)
        j = int(np.argmin(gaps))
        best = float(gaps[j])
        spacing = _SAMPLE_GRID.weight
        theta, lo, hi = j * spacing, (j - 1) * spacing, (j + 1) * spacing
        for _ in range(_NEWTON_STEPS):
            zeta, d1, d2 = self._jet(theta, _SCALAR, second=True)
            gap = zeta - z
            best = min(best, abs(gap))
            slope = (gap.conjugate() * d1).real
            if slope > 0:
                hi = theta
            else:
                lo = theta
            curvature = abs(d1) * abs(d1) + (gap.conjugate() * d2).real  # inf, not OverflowError
            step = theta - slope / curvature if curvature > 0 else lo
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
            if abs(step - theta) <= _NEWTON_TOL:
                break
            theta = step
        return best

    def _annulus(self) -> tuple[float, float]:
        """(lo, hi) with lo <= |zeta(theta)| <= hi for every theta, widened by _ANNULUS_SLACK.

        The exact bounds are r and r, min(p, q) and max(p, q), and 1 - eps
        and 1 + eps, each attained; so dist(0, curve) = lo before widening.
        """
        if self.kind == "circle":
            lo = hi = self.params[0]
        elif self.kind == "ellipse":
            lo, hi = min(self.params), max(self.params)
        else:
            lo, hi = 1.0 - self.params[0], 1.0 + self.params[0]
        return lo * (1.0 - _ANNULUS_SLACK), hi * (1.0 + _ANNULUS_SLACK)

    def is_unit_circle(self) -> bool:
        return self.kind == "circle" and self.params[0] == 1.0 and self.orientation == 1


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform parameter grid theta_j = 2 pi j / M with weights 2 pi / M."""

    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", int(self.m))
        if self.m < 16 or self.m % 2 != 0:
            raise InvalidGridError(f"quadrature grid needs an even M >= 16, got {self.m}")

    @property
    def nodes(self) -> np.ndarray:
        return 2 * np.pi * np.arange(self.m) / self.m

    @property
    def weight(self) -> float:
        return 2 * np.pi / self.m


_SAMPLE_GRID = QuadratureGrid(4096)


# Each entry holds 32 M bytes; eight hold three curves at two grids with room
# to spare.  distance_to and arc_length read the M = 4096 entry.
@lru_cache(maxsize=8)
def _node_geometry(curve: CurveDescriptor, grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only zeta(theta_j) and zeta'(theta_j) on the grid, computed once per (curve, M)."""
    zeta, dzeta = curve._jet(grid.nodes)
    zeta.flags.writeable = False
    dzeta.flags.writeable = False
    return zeta, dzeta


@lru_cache(maxsize=None)
def _arc_length(curve: CurveDescriptor) -> float:
    with np.errstate(over="ignore"):
        length = float(_SAMPLE_GRID.weight * np.abs(_node_geometry(curve, _SAMPLE_GRID)[1]).sum())
    if not math.isfinite(length):
        raise InvalidDataError("curve arc length exceeds the float range")
    return length


def contour_integral(values, curve: CurveDescriptor, grid: QuadratureGrid) -> complex:
    """Trapezoid approximation of the contour integral of g over the curve.

    ``values`` are g at the grid's curve points; the complex line element
    zeta'(theta) d theta is supplied by the curve.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _trapezoid(_node_array(values, grid), curve, grid)


def _node_array(values, grid: QuadratureGrid) -> np.ndarray:
    """``values`` as a complex array of the grid's M node values; any other shape is refused."""
    vals = np.asarray(values, dtype=complex)
    if vals.shape != (grid.m,):
        raise ValueError(f"expected {grid.m} node values, got shape {vals.shape}")
    return vals


def _trapezoid(vals: np.ndarray, curve: CurveDescriptor, grid: QuadratureGrid) -> complex:
    """contour_integral of M complex node values, under the caller's np.errstate ignoring over and invalid."""
    total = complex(grid.weight * (vals * _node_geometry(curve, grid)[1]).sum())
    # A non-finite value times zeta' is never finite (inf * 0 is NaN), so a
    # finite sum certifies every value; only a failed sum scans them.
    if not cmath.isfinite(total):
        if not np.isfinite(vals).all():
            raise InvalidDataError("contour integrand contains non-finite node values")
        raise InvalidDataError("contour integral exceeds the float range")
    return total


def cauchy_integral_quadrature(
    values, curve: CurveDescriptor, grid: QuadratureGrid, z: complex
) -> complex:
    """(1/(2 pi i)) contour integral of f(zeta)/(zeta - z) by the trapezoid rule.

    Refuses z closer to the curve than 10 * arc_length / M, the distance at
    which the rule still delivers the advertised accuracy on smooth data.
    The curve lies in the annulus lo <= |zeta| <= hi (:meth:`CurveDescriptor._annulus`),
    so dist(z, curve) >= max(lo - |z|, |z| - hi); only a z for which that
    certificate does not exceed the bound is measured by
    :meth:`CurveDescriptor.distance_to`, and refused when its distance does not.
    """
    z = complex(z)
    bound = PROXIMITY_FACTOR * curve.arc_length() / grid.m
    lo, hi = curve._annulus()
    size = abs(z)
    if not max(lo - size * (1.0 + _ANNULUS_SLACK), size * (1.0 - _ANNULUS_SLACK) - hi) > bound:
        dist = curve.distance_to(z)
        if dist <= bound:
            raise BoundaryProximityError(
                f"z at distance {dist:.6g} from the curve; M={grid.m} quadrature needs "
                f"distance > {bound:.6g} (= {PROXIMITY_FACTOR:g} * arc_length / M)"
            )
    vals = _node_array(values, grid)
    zeta = _node_geometry(curve, grid)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _trapezoid
        gaps = zeta - z
        return _trapezoid(np.divide(vals, gaps, out=gaps), curve, grid) / (2j * np.pi)


def pairing_quadrature(
    u_values, v_values, curve: CurveDescriptor, grid: QuadratureGrid
) -> complex:
    """(1/(2 pi i)) contour integral of u v dzeta from node values of u and v."""
    u_vals, v_vals = _node_array(u_values, grid), _node_array(v_values, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _trapezoid
        return _trapezoid(u_vals * v_vals, curve, grid) / (2j * np.pi)


def interior_node_values(u: InteriorFunction, curve: CurveDescriptor, grid: QuadratureGrid):
    """Values of the polynomial extension of u at the curve's grid points."""
    zeta = _node_geometry(curve, grid)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, refused by _trapezoid
        return np.polynomial.polynomial.polyval(zeta, u.coeffs)


def exterior_node_values(v: ExteriorFunction, curve: CurveDescriptor, grid: QuadratureGrid):
    """Values of the Laurent tail of v at the curve's grid points."""
    zeta = _node_geometry(curve, grid)[0]
    if np.abs(zeta).min() == 0.0:
        raise ValueError("curve passes through the origin; Laurent values undefined")
    if v.coeffs.size == 0:
        return np.zeros(grid.m, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # as in interior_node_values
        w = 1.0 / zeta
        return w * np.polynomial.polynomial.polyval(w, v.coeffs)


def boundary_node_values(f: BoundaryDistribution, curve: CurveDescriptor, grid: QuadratureGrid):
    """Synthesized trace values of f; defined on the unit circle only."""
    if not curve.is_unit_circle():
        raise ValueError("boundary distributions synthesize only on the unit circle")
    return fourier_synthesize(f, grid.m)
