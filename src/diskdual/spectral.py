"""Fourier-side coefficient algebra on the unit circle.

Boundary data is stored as a truncated two-sided Fourier sequence c_n,
n = n_min .. n_max.  Conventions used by the whole package:

* analysis:    c_n = (1/M) sum_j f(theta_j) exp(-i n theta_j),  theta_j = 2 pi j / M
* synthesis:   f(theta_j) = sum_n c_n exp(i n theta_j)
* Sobolev norm of index t:  ( sum_n (1 + n^2)^t |c_n|^2 )^(1/2)
* sesquilinear pairing:     <f, g> = sum_n c_n(f) conj(c_n(g)),
  the spectral normalization of (1/2 pi) integral f conj(g) ds
* bilinear pairing:         kappa(f, g) = sum_n c_n(f) c_{-1-n}(g),
  the spectral form of (1/(2 pi i)) contour integral of f g dzeta,
  normalized so that kappa(1, 1/z) = 1

The circle is positively (counterclockwise) oriented and i = +sqrt(-1).
All containers are immutable after construction and every function here is
pure, so concurrent use needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, InvalidDataError, InvalidGridError

__all__ = [
    "BoundaryDistribution",
    "fourier_analyze",
    "fourier_synthesize",
    "sobolev_norm",
    "l2_pairing",
    "koethe_pairing",
    "pad_or_truncate",
]


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise InvalidDataError(f"{what} contain non-finite entries")


def _wrap(cls, coeffs: np.ndarray, **fields):
    """Container around an array derived from validated containers: no copy, no scan.

    Public constructors copy and validate the caller's array.  Operations
    whose output cannot become non-finite (padding, slicing, traces,
    negation, the Hardy split) hand their result here instead.  ``coeffs``
    must be a 1-D, C-contiguous complex array that nothing writes to later;
    it is made read-only.
    """
    coeffs.flags.writeable = False
    obj = object.__new__(cls)
    object.__setattr__(obj, "coeffs", coeffs)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _checked(n_min: int, coeffs: np.ndarray) -> "BoundaryDistribution":
    """Wrap freshly computed coefficients after the one scan that can catch overflow."""
    _require_finite(coeffs, "boundary coefficients")
    return _wrap(BoundaryDistribution, coeffs, n_min=n_min)


@dataclass(frozen=True, eq=False)
class BoundaryDistribution:
    """Finitely supported Fourier coefficients on the unit circle.

    ``coeffs[i]`` holds c_n for n = n_min + i.  The stored window is
    contiguous; entries may be zero but never NaN/Inf.
    """

    n_min: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficient window must be a nonempty 1-D sequence")
        _require_finite(arr, "boundary coefficients")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "n_min", int(self.n_min))

    @property
    def n_max(self) -> int:
        return self.n_min + self.coeffs.size - 1

    @property
    def frequencies(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    def coefficient(self, n: int) -> complex:
        """c_n, zero outside the stored window."""
        if self.n_min <= n <= self.n_max:
            return complex(self.coeffs[n - self.n_min])
        return 0j

    def nonzero_window(self) -> tuple[int, int] | None:
        """(lowest, highest) frequency with a nonzero coefficient, or None."""
        nonzero = self.coeffs != 0
        first = int(np.argmax(nonzero))
        if not nonzero[first]:
            return None
        last = nonzero.size - 1 - int(np.argmax(nonzero[::-1]))
        return self.n_min + first, self.n_min + last

    def is_zero(self) -> bool:
        return self.nonzero_window() is None

    @classmethod
    def zero(cls) -> "BoundaryDistribution":
        return cls(0, np.zeros(1, dtype=complex))

    @classmethod
    def from_modes(cls, modes: dict[int, complex]) -> "BoundaryDistribution":
        """Build from a sparse {frequency: coefficient} mapping."""
        if not modes:
            return cls.zero()
        lo, hi = min(modes), max(modes)
        arr = np.zeros(hi - lo + 1, dtype=complex)
        for n, c in modes.items():
            arr[n - lo] = c
        return cls(lo, arr)

    def _aligned_with(self, other: "BoundaryDistribution"):
        lo = min(self.n_min, other.n_min)
        hi = max(self.n_max, other.n_max)
        return pad_or_truncate(self, lo, hi), pad_or_truncate(other, lo, hi)

    # Sums and products can overflow; the finiteness scan reports that as
    # one InvalidDataError, so numpy's overflow warnings are silenced.

    def __add__(self, other: "BoundaryDistribution") -> "BoundaryDistribution":
        a, b = self._aligned_with(other)
        with np.errstate(over="ignore", invalid="ignore"):
            return _checked(a.n_min, a.coeffs + b.coeffs)

    def __sub__(self, other: "BoundaryDistribution") -> "BoundaryDistribution":
        a, b = self._aligned_with(other)
        with np.errstate(over="ignore", invalid="ignore"):
            return _checked(a.n_min, a.coeffs - b.coeffs)

    def __neg__(self) -> "BoundaryDistribution":
        return _wrap(BoundaryDistribution, -self.coeffs, n_min=self.n_min)

    def __mul__(self, scalar: complex) -> "BoundaryDistribution":
        with np.errstate(over="ignore", invalid="ignore"):
            return _checked(self.n_min, self.coeffs * complex(scalar))

    __rmul__ = __mul__


def fourier_analyze(samples) -> BoundaryDistribution:
    """Discrete Fourier analysis of uniform samples f(theta_j), theta_j = 2 pi j / M.

    Returns c_n on the window n in [-M/2 + 1, M/2] with
    c_n = (1/M) sum_j f(theta_j) exp(-i n theta_j).  The sample count M is
    taken from ``len(samples)`` and must be even and at least 2.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 1:
        raise ValueError("boundary samples must be a 1-D sequence")
    m = samples.size
    if m < 2 or m % 2 != 0:
        raise InvalidGridError(f"uniform analysis grid needs an even sample count >= 2, got {m}")
    _require_finite(samples, "boundary samples")
    half = m // 2
    coeffs = np.empty(m, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.fft.fft(samples)
        # One pass divides by M and moves the negative frequencies first.
        np.divide(spectrum[half + 1:], m, out=coeffs[: half - 1])
        np.divide(spectrum[: half + 1], m, out=coeffs[half - 1:])
        return _checked(-half + 1, coeffs)


def fourier_synthesize(f: BoundaryDistribution, m: int) -> np.ndarray:
    """Values sum_n c_n exp(i n theta_j) on the M-point uniform grid.

    Inverse of :func:`fourier_analyze` on band-limited data; the grid must
    resolve the nonzero support (M >= 2 max|n| + 2) or the modes would alias.
    """
    m = int(m)
    if m < 2:
        raise InvalidGridError(f"synthesis grid needs at least 2 nodes, got {m}")
    window = f.nonzero_window()
    if window is not None:
        span = max(abs(window[0]), abs(window[1]))
        if m < 2 * span + 2:
            raise AliasingError(
                f"grid with M={m} aliases support |n| <= {span}; need M >= {2 * span + 2}"
            )
    # Fold the window onto the grid: the frequencies n_min .. n_max are
    # consecutive mod M, so they fill contiguous runs of the spectrum, added
    # in window order (the order np.add.at would use).
    spectrum = np.zeros(m, dtype=complex)
    start, pos = 0, f.n_min % m
    while start < f.coeffs.size:
        run = spectrum[pos: pos + f.coeffs.size - start]
        np.add(run, f.coeffs[start: start + run.size], out=run)
        start, pos = start + run.size, 0
    return np.fft.ifft(spectrum) * m


def sobolev_norm(f: BoundaryDistribution, index: float) -> float:
    """Boundary Sobolev norm ( sum_n (1 + n^2)^index |c_n|^2 )^(1/2).

    Any real index is accepted; the weight at n = 0 is 1, so constants have
    the same norm on every level of the scale.
    """
    index = float(index)
    if not np.isfinite(index):
        raise InvalidDataError("Sobolev index must be finite")
    # (1 + n^2)^index |c_n|^2, formed in place in one buffer.
    weights = np.arange(f.n_min, f.n_max + 1, dtype=float)
    weights *= weights
    weights += 1.0
    weights **= index
    squares = np.abs(f.coeffs)
    squares *= squares
    weights *= squares
    return float(np.sqrt(np.sum(weights)))


def l2_pairing(f: BoundaryDistribution, g: BoundaryDistribution) -> complex:
    """Sesquilinear pairing sum_n c_n(f) conj(c_n(g)), conjugate-linear in g."""
    lo = max(f.n_min, g.n_min)
    hi = min(f.n_max, g.n_max)
    if lo > hi:
        return 0j
    fa = f.coeffs[lo - f.n_min: hi - f.n_min + 1]
    ga = g.coeffs[lo - g.n_min: hi - g.n_min + 1]
    return complex(np.sum(fa * np.conj(ga)))


def koethe_pairing(f: BoundaryDistribution, g: BoundaryDistribution) -> complex:
    """Bilinear pairing sum_n c_n(f) c_{-1-n}(g).

    Spectral form of (1/(2 pi i)) contour integral of f g dzeta over the
    positively oriented unit circle: the frequency of g pairing with n is
    -1 - n, so kappa(1, 1/z) = 1.
    """
    lo = max(f.n_min, -1 - g.n_max)
    hi = min(f.n_max, -1 - g.n_min)
    if lo > hi:
        return 0j
    fa = f.coeffs[lo - f.n_min: hi - f.n_min + 1]
    ga = g.coeffs[(-1 - hi) - g.n_min: (-1 - lo) - g.n_min + 1][::-1]
    return complex(np.sum(fa * ga))


def pad_or_truncate(f: BoundaryDistribution, n_lo: int, n_hi: int) -> BoundaryDistribution:
    """Restrict / zero-extend the stored window to [n_lo, n_hi].  Idempotent.

    A window inside f's shares f's (read-only) array.
    """
    n_lo, n_hi = int(n_lo), int(n_hi)
    if n_lo > n_hi:
        raise ValueError(f"empty window [{n_lo}, {n_hi}]")
    if f.n_min <= n_lo and n_hi <= f.n_max:
        out = f.coeffs[n_lo - f.n_min: n_hi - f.n_min + 1]
    else:
        out = np.zeros(n_hi - n_lo + 1, dtype=complex)
        lo = max(n_lo, f.n_min)
        hi = min(n_hi, f.n_max)
        if lo <= hi:
            out[lo - n_lo: hi - n_lo + 1] = f.coeffs[lo - f.n_min: hi - f.n_min + 1]
    return _wrap(BoundaryDistribution, out, n_min=n_lo)
