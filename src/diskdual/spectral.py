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
pure (the one shared state is a thread pool, started on the first large
weight pass or probe draw), so concurrent use needs no locking.  One helper,
:func:`_split`, hands work to the pool: chunks of one level's elementwise
passes over a large row, contiguous ranges of levels of a multi-level sum
over a mid-sized row (:func:`_level_sums`) and ranges of the duality suite's
probe draws.  Every sum stays serial, so the bits are the serial ones.
"""

from __future__ import annotations

import math
import os
import threading
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
    if not np.isfinite(values).all():
        raise InvalidDataError(f"{what} contain non-finite entries")


def _wrap(cls, coeffs: np.ndarray, **fields):
    """Container around an array derived from validated containers: no copy, no scan.

    Public constructors copy and validate the caller's array.  Operations
    whose output cannot become non-finite (padding, slicing, traces,
    negation, the Hardy split) hand their result here instead; sums,
    differences and scalings can overflow and come through :func:`_checked`.
    ``coeffs`` must be a 1-D, C-contiguous complex array that nothing writes
    to after the call; it is made read-only.
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
        first = int(nonzero.argmax())
        if not nonzero[first]:
            return None
        last = nonzero.size - 1 - int(nonzero[::-1].argmax())
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

    # Sums and products can overflow; the finiteness scan reports that as
    # one InvalidDataError, so numpy's overflow warnings are silenced.

    def _combined(self, other: "BoundaryDistribution", op) -> "BoundaryDistribution":
        """self op other in one union-window array, bit for bit op on the zero-padded operands."""
        lo = min(self.n_min, other.n_min)
        out = np.zeros(max(self.n_max, other.n_max) - lo + 1, dtype=complex)
        out[self.n_min - lo: self.n_max - lo + 1] = self.coeffs
        start, stop = other.n_min - lo, other.n_max - lo + 1
        if op is np.add:  # padding adds 0.0 where only self has entries: -0.0 + 0.0 = +0.0
            out[:start] += 0.0
            out[stop:] += 0.0
        run = out[start:stop]
        with np.errstate(over="ignore", invalid="ignore"):
            op(run, other.coeffs, out=run)
        return _checked(lo, out)

    def __add__(self, other: "BoundaryDistribution") -> "BoundaryDistribution":
        return self._combined(other, np.add)

    def __sub__(self, other: "BoundaryDistribution") -> "BoundaryDistribution":
        return self._combined(other, np.subtract)

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
    # A stored window the grid resolves needs no scan for its nonzero part.
    window = None if m >= 2 * max(-f.n_min, f.n_max) + 2 else f.nonzero_window()
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
    values = np.fft.ifft(spectrum)
    values *= m
    return values


# Limits of _weighted_squares; past _MANTISSA_POW in |t| its mantissa power
# is taken in the log domain, good to about |t| ulps.
_DIRECT_LOG2, _MANTISSA_POW, _INDEX_MAX = 1000.0, 1000.0, 2.0 ** 53

# A direct pass over at least 2 * _CHUNK weights is cut into up to one chunk
# per CPU the process may run on, each of at least about _CHUNK weights.  On
# a 2-CPU Xeon a power-and-multiply pass over 2^17 weights went from 0.62 to
# 0.47 ms (medians of 60) when split in two, one over 2^16 stayed at 0.30 ms.
# Chunk bounds are multiples of _ALIGN elements, so every chunk keeps the
# SIMD path and the alignment it has in the whole array and each bit is the
# serial one.  Sums over the terms stay serial: their pairwise order depends
# on blocking.
_CHUNK, _ALIGN = 2 ** 16, 64
# A caller that sums several direct levels of one row of _LEVEL_MIN <= size <
# _LEVEL_MAX weights gives each thread whole levels instead (_level_sums):
# one handoff per call, not one per level.  On a 2-CPU Xeon the growth
# report's eight-level curve took, level split over the per-level path
# (medians of 60 interleaved calls, range of three sweeps), at 2^14 + 1
# weights 1.06-1.07 of the time, 2^15 + 1 0.71-0.88, 2^16 + 1 0.71-0.80,
# 2^17 + 1 0.93-0.98, 2^18 + 1 0.90-0.93, 2^19 + 1 1.10-1.13 and 2^20 + 1
# 1.26-1.28: past 2^19 the second row buffer costs more than the split saves.
_LEVEL_MIN, _LEVEL_MAX = 2 ** 15, 2 ** 19
_pool, _pool_lock = None, threading.Lock()


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without an affinity mask
        return os.cpu_count() or 1


def _forget_pool() -> None:
    """A forked child inherits the pool object but not its threads, and perhaps a held lock."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _split_pool(cpus: int):
    """The worker threads of split passes, one fewer than ``cpus``, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:  # imported here: the CLI's small arrays never need it
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(cpus - 1, thread_name_prefix="diskdual-split")
        return _pool


def _split(run, size: int, most: int, align: int = 1) -> None:
    """run(lo, hi) over up to min(most, CPUs) contiguous ranges of 0 .. size, the first on the caller.

    Range bounds are multiples of ``align``, and the call returns only once
    every range is done, also when the caller's own range raises.  One part,
    one CPU or a caller whose np.errstate does not ignore underflow runs
    run(0, size) inline and starts no pool.  Worker threads do not see the
    caller's np.errstate, so ``run`` may raise no floating-point flag but
    underflow.  ``run`` must not submit to the pool itself, so concurrent
    callers cannot deadlock on it.
    """
    cpus = _cpus() if most > 1 else 1
    parts = min(most, cpus)
    if parts < 2 or np.geterr()["under"] != "ignore":
        run(0, size)
        return
    bounds = [size * k // parts // align * align for k in range(parts)] + [size]
    pending = [_split_pool(cpus).submit(run, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        run(bounds[0], bounds[1])
    finally:  # no range may still write once the caller has its buffers back
        for job in pending:
            job.result()


def _reach(n_min: int, size: int) -> tuple[float, float]:
    """(reach, count) = (log2 max(1 + n^2), log2 size): t is direct while |t| reach + count < 1000."""
    return math.log2(1 + max(n_min * n_min, (n_min + size - 1) ** 2)), math.log2(size or 1)


def _scaled_squares(mags: np.ndarray):
    """(mags^2 / 4^shift, shift), with shift the exponent of each row's largest magnitude."""
    if mags.ndim == 1:  # scalar shift: a third of the cost on short rows
        shift = math.frexp(mags.max(initial=0.0))[1]
        scaled = np.ldexp(mags, -shift)
    else:
        shift = np.frexp(mags.max(axis=-1, initial=0.0))[1]
        scaled = np.ldexp(mags, -shift[..., None])
    scaled *= scaled
    return scaled, shift


def _weight_base(n_min: int, size: int) -> np.ndarray:
    """1 + n^2 for n = n_min .. n_min + size - 1."""
    base = np.arange(n_min, n_min + size, dtype=float)
    base *= base
    base += 1.0
    return base


def _weighted_squares(mags: np.ndarray, n_min: int, indices):
    """Yield (terms, exponent) per index t with terms * 2**exponent = (1 + n^2)^t mags^2.

    ``mags`` holds magnitudes along its last axis at n = n_min, n_min + 1, ...;
    each row has its own even exponent (shape ``mags.shape[:-1]``) and sums
    to less than 2^1000.  ``indices`` is a sequence.  The yielded buffer is
    reused for the next index, and no later index reads it.  While
    |t| log2(1 + max n^2) + log2(size) < 1000 the weights are
    np.power(1 + n^2, t) and each row is scaled by a power of two, so the
    terms are the direct expression scaled exactly.  At t = 0 the weights are
    exactly 1, so the terms are the scaled squares, yielded uncopied when no
    index follows, and the array 1 + n^2 is built only for the first t != 0.
    Otherwise every weight and square is split into mantissa and exponent
    (Blue, ACM TOMS 4(1), 1978; Anderson, ACM TOMS 44(1), 2017), the terms
    are formed relative to the row's largest one, and those below 2^-1074 of
    it become zero.  An index that is not finite or exceeds 2^53 in
    magnitude raises :class:`InvalidDataError`.
    """
    size = mags.shape[-1]
    base = None
    reach, count = _reach(n_min, size)
    scaled, shift = _scaled_squares(mags)
    weights = np.empty(size)
    terms, split = weights if mags.ndim == 1 else np.empty(mags.shape), None
    last = len(indices) - 1
    for position, t in enumerate(indices):
        if not abs(t) <= _INDEX_MAX:
            raise InvalidDataError(f"Sobolev index {t!r} is not finite or exceeds 2^53 in magnitude")
        if t == 0:  # (1 + n^2)^0 is exactly 1
            if position == last:
                yield scaled, 2 * shift
                return
            np.copyto(terms, scaled)  # a later index reads scaled, and the caller may overwrite terms
            yield terms, 2 * shift
            continue
        if base is None:
            base = _weight_base(n_min, size)
        if abs(t) * reach + count < _DIRECT_LOG2:
            def run(lo, hi):  # base >= 1, finite weights, scaled <= 1: the product may only underflow
                powers = np.power(base[lo:hi], t, out=weights[lo:hi])
                np.multiply(powers, scaled[..., lo:hi], out=terms[..., lo:hi])

            _split(run, size, size // _CHUNK, _ALIGN)
            yield terms, 2 * shift
            continue
        if split is None:
            split = (mb, eb), (squares, ec) = np.frexp(base), np.frexp(mags)
            squares *= squares
        whole = math.floor(t)
        if abs(t) <= _MANTISSA_POW:
            mant, expo = np.power(mb, t), eb * float(whole)
        else:
            expo = t * np.log2(mb)
            low = np.floor(expo)
            mant, expo = np.exp2(expo - low), low + eb * float(whole)
        # 2^(eb t) = 2^(eb whole) (2^eb)^(t - whole), both from exact inputs
        mant *= np.power(np.ldexp(1.0, eb), t - whole)
        mant, grow = np.frexp(np.multiply(mant, squares, out=terms))
        expo = expo + 2.0 * ec + grow
        top = expo.max(axis=-1, where=mags > 0, initial=-2.0 ** 62, keepdims=True)
        top += top % 2
        np.ldexp(mant, np.clip(expo - top, -1100, 0).astype(np.intc), out=terms)
        yield terms, top[..., 0]


def _level_sums(mags: np.ndarray, n_min: int, indices) -> list:
    """[(terms.sum(), exponent)] per index of :func:`_weighted_squares`, bit for bit.

    Two or more indices, all on the direct branch, over a 1-D row of
    _LEVEL_MIN <= size < _LEVEL_MAX entries go to :func:`_split` as one
    contiguous range of levels per thread, min(CPUs, levels) threads: one
    handoff per call.  Each thread forms the power, the product and the
    whole-row sum of its levels in a buffer of its own, allocated here on the
    calling thread.  Any other call, or one CPU, takes the generator; a
    caller that traps underflow gets the levels on its own thread.
    """
    size = mags.shape[-1]
    reach, count = _reach(n_min, size)
    cpus = _cpus() if mags.ndim == 1 and _LEVEL_MIN <= size < _LEVEL_MAX and len(indices) > 1 else 1
    # |t| reach < 1000 also keeps t finite and within 2^53, as reach >= 29 here
    if cpus < 2 or not all(abs(t) * reach + count < _DIRECT_LOG2 for t in indices):
        return [(terms.sum(), exponent) for terms, exponent in _weighted_squares(mags, n_min, indices)]
    scaled, shift = _scaled_squares(mags)
    base = _weight_base(n_min, size)
    threads = min(cpus, len(indices))
    buffers = [np.empty(size) for _ in range(threads)]
    sums = [None] * len(indices)

    def run(lo, hi):
        weights = buffers.pop()  # list.pop is atomic, and _split runs at most `threads` ranges
        for position in range(lo, hi):
            t = indices[position]
            terms = scaled if t == 0 else np.multiply(np.power(base, t, out=weights), scaled, out=weights)
            sums[position] = terms.sum()

    _split(run, len(indices), threads)
    return [(total, 2 * shift) for total in sums]


def _scaled(value: float, exponent, what: str | None = None) -> float:
    """value * 2**exponent; past the float range inf, or InvalidDataError naming ``what``."""
    try:
        return math.ldexp(value, int(exponent))
    except OverflowError:
        if what is None:
            return math.inf
        raise InvalidDataError(f"{what} exceeds the float range") from None


def _norm_parts(mags: np.ndarray, n_min: int, index: float):
    """(root, k) with ( sum_n (1 + n^2)^index mags_n^2 )^(1/2) = root * 2^k along the last axis.

    Rows of a block get one root and one k each, bit-identical to their
    one-row results.
    """
    terms, exponent = next(_weighted_squares(mags, n_min, (index,)))
    return np.sqrt(terms.sum(axis=-1)), exponent // 2


def sobolev_norm(f: BoundaryDistribution, index: float) -> float:
    """Boundary Sobolev norm ( sum_n (1 + n^2)^index |c_n|^2 )^(1/2).

    Any real index up to 2^53 in magnitude is accepted; the weight at n = 0
    is 1, so constants have the same norm on every level of the scale.
    Weights and squares may leave the float range (see
    :func:`_weighted_squares`); a norm that does raises
    :class:`InvalidDataError`.
    """
    index = float(index)
    root, scale = _norm_parts(np.abs(f.coeffs), f.n_min, index)
    return _scaled(root, scale, f"Sobolev norm of index {index}")


def l2_pairing(f: BoundaryDistribution, g: BoundaryDistribution) -> complex:
    """Sesquilinear pairing sum_n c_n(f) conj(c_n(g)), conjugate-linear in g."""
    lo = max(f.n_min, g.n_min)
    hi = min(f.n_max, g.n_max)
    if lo > hi:
        return 0j
    fa = f.coeffs[lo - f.n_min: hi - f.n_min + 1]
    ga = g.coeffs[lo - g.n_min: hi - g.n_min + 1]
    return complex((fa * np.conj(ga)).sum())


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
    return complex((fa * ga).sum())


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
