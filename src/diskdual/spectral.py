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
pure.  Two states are shared, and callers need no lock for either: a pool,
started on the first large transform, weighted square sum or probe draw, and one
read-only weight table of at most 2^23 bytes (:data:`_TABLE_BYTES`), left by
the last leafed norm curve and dropped by any miss.  One helper, :func:`_split`,
hands work to the pool, at most one range per CPU and per aligned block: the
row transforms of a Fourier transform of at least 2^18 points, straight into
its result, and its cache-sized column blocks (:func:`_four_step`, which
allocates no scratch grid), ranges of the leaves of a weighted square sum
over a row of more than _LEAF weights (:func:`_leaf_sums`) and ranges of the
duality suite's large probe draws.  A sum is cut only at subtrees of numpy's
own pairwise summation, whose sums are added back in its order, so the
norms' bits are the serial ones; a split transform's bits are its own, the
same on any number of CPUs.
"""

from __future__ import annotations

import functools
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
    """Container around an array known to be finite: no copy, no scan.

    Public constructors copy and validate the caller's array.  Operations
    whose output cannot become non-finite (padding, slicing, traces,
    negation, the Hardy split) and fresh normal draws hand their result here
    instead; sums, differences and Fourier analysis can overflow and come
    through :func:`_checked`.
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

    # Sums and differences can overflow; the finiteness scan reports that as
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


def fourier_analyze(samples) -> BoundaryDistribution:
    """Discrete Fourier analysis of uniform samples f(theta_j), theta_j = 2 pi j / M.

    Returns c_n on the window n in [-M/2 + 1, M/2] with
    c_n = (1/M) sum_j f(theta_j) exp(-i n theta_j).  The sample count M is
    taken from ``len(samples)`` and must be even and at least 2.  From
    M = 2^18 on the transform runs as a four-step (:data:`_FFT_SPLIT`),
    which writes the window order itself, one entry ahead.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 1:
        raise ValueError("boundary samples must be a 1-D sequence")
    m = samples.size
    if m < 2 or m % 2 != 0:
        raise InvalidGridError(f"uniform analysis grid needs an even sample count >= 2, got {m}")
    _require_finite(samples, "boundary samples")
    half = m // 2
    if m >= _FFT_SPLIT:  # c_n for n = -M/2 .. M/2 - 1, then c_{M/2} = c_{-M/2}
        window = np.empty(m + 1, dtype=complex)
        _four_step(lambda rows, first, r: samples.reshape(-1, r).T[first: first + len(rows)], window[:m], -1, half)
        window[m] = window[0]
        return _checked(-half + 1, window[1:])
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
    From an even M = 2^18 on the transform runs as a four-step (:data:`_FFT_SPLIT`),
    whose rows fold the window themselves.
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
    if m >= _FFT_SPLIT and m % 2 == 0:
        values = np.empty(m, dtype=complex)
        _four_step(functools.partial(_fold, f), values, 1, 0)
        return values
    spectrum = np.empty(m, dtype=complex)
    _fold(f, spectrum[None], 0, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # callers scan the values
        values = np.fft.ifft(spectrum)
        values *= m
    return values


def _fold(f: BoundaryDistribution, rows: np.ndarray, first: int, step: int) -> np.ndarray:
    """Set ``rows`` to rows first .. of f's window folded onto a grid decimated by ``step``, and return it.

    The grid has M = step * rows.shape[1] points; frequency n lands on point
    j = n mod M, at rows[j % step - first, j // step], and each point adds
    its frequencies in window order (the order np.add.at uses).  Frequency
    n_min + i has t = (i + n_min % step) // step: the whole t between the
    window's first and last are one 2-D view of it, and consecutive t fill
    consecutive columns, one run per wrap.
    """
    rows[...] = 0
    c, stop = rows.shape[1], first + rows.shape[0]
    lead = f.n_min % step
    col0 = (f.n_min - lead) // step % c  # the column of t = 0
    last_t = (f.coeffs.size - 1 + lead) // step

    def add(block, t, lo):  # block[k] holds the frequencies at t + k on rows lo ..
        k = 0
        while k < block.shape[0]:
            pos = (col0 + t + k) % c
            run = rows[lo - first: lo - first + block.shape[1], pos: pos + block.shape[0] - k]
            np.add(run, block[k: k + run.shape[1]].T, out=run)
            k += run.shape[1]

    lo = max(first, lead)  # the first and last t may cover only some rows: slices end at the window's end
    add(f.coeffs[lo - lead: max(lo, stop) - lead][None], 0, lo)
    if last_t:
        end = last_t * step - lead
        add(f.coeffs[step - lead: end].reshape(-1, step)[:, first:stop], 1, first)
        add(f.coeffs[end + first: end + stop][None], last_t, first)
    return rows


# A transform of at least _FFT_SPLIT points is taken as a four-step (Bailey,
# J. Supercomputing 4, 1990; Van Loan, Computational Frameworks for the FFT,
# SIAM 1992, section 3.3), because one long np.fft call is cache-bound: on a
# 2-CPU Xeon 2^20 points took 21 ms as one transform, 4.0 ms as 1024 x 1024
# row transforms.  Its one M-point array is the caller's result: rows
# transform straight into it, then blocks of columns are twiddled into a
# per-thread buffer of about _FFT_BLOCK_BYTES and transformed back (np.fft
# in place copies a column operand whole, a row operand not at all).
# Threads write disjoint rows, then disjoint blocks (where c is no multiple
# of 4, two threads can share a cache line at a range boundary), and blocks start
# at column 0 on any split, so the bits depend on M alone.  2^19-byte blocks
# took about the time of the scratch grid that came before, and r = 2^9 was
# within 8% of the fastest r = 2 .. 2^11 at 2^18 .. 2^21 points (2-CPU Xeon).
# r = 2's columns take np.fft too: the bytes of an add/subtract butterfly, at
# 1.1-1.4 times its time (an odd cofactor, which no workload has).  The values
# agree with numpy's to about 7.5e-16 of max|X| (1.4e-15 where pocketfft
# takes the row length by Bluestein's algorithm); smaller transforms, the
# pinned round trip's 2^17-point synthesis among them, keep numpy's bits.
_FFT_SPLIT, _FFT_ROWS, _FFT_BLOCK_BYTES = 2 ** 18, 2 ** 9, 2 ** 19
_FFT_OUT = int(np.__version__.split(".")[0]) >= 2


def _fft_into(transform, a: np.ndarray, out: np.ndarray, axis: int) -> None:
    """out = transform(a, norm="forward") along ``axis``: the forward transform over its length, the inverse unscaled."""
    if _FFT_OUT:
        transform(a, axis=axis, norm="forward", out=out)
    else:  # numpy 1.x has no ``out``
        out[...] = transform(a, axis=axis, norm="forward")


def _four_step(rows_of, out: np.ndarray, sign: int, shift: int) -> None:
    """out[i] = s sum_j x[j] exp(sign 2 pi i j (i - shift) / M), with s = 1/M for sign -1, else 1.

    M is out.size.  With j = n1 + r n2 and i = k1 + c k2, rows_of(rows,
    first, r) returns x[n1::r] for n1 = first .. first + len(rows) - 1, as a
    view of the input or written into ``rows``, the rows of out's (r, c) view
    that take their transforms in place.  Each block of columns kb .. kb + w
    is multiplied into a per-thread buffer by exp(sign 2 pi i n1 (k1 - shift)
    / M), a table over (n1, k1 - kb) times one factor a row, and its column
    transforms go back into the block.  ``shift`` is a multiple of c, so it
    only rotates the rows of ``out``.
    """
    m, transform = out.size, np.fft.fft if sign < 0 else np.fft.ifft
    r = min(m & -m, _FFT_ROWS)
    c = m // r
    w = _FFT_BLOCK_BYTES // (16 * r)  # r is a power of two up to 2^9, so w is one of at least 64 and q divides it
    q = 1 << (w.bit_length() // 2)
    step, table, n1 = sign * 2j * math.pi / m, out.reshape(r, c), np.arange(1, r)

    def factors(k1):  # exp(step e) for rows 1 .., e = n1 k1 reduced exactly to [-M/2, M/2)
        return np.exp(step * ((np.multiply.outer(n1, k1) + m // 2) % m - m // 2))

    # exp(step n1 k), k = 0 .. w - 1, from q + w / q exponentials a row
    inner = (factors(np.arange(0, w, q))[:, :, None] * factors(np.arange(q))[:, None, :]).reshape(r - 1, -1)

    def rows(lo, hi):
        with np.errstate(over="ignore", invalid="ignore"):
            _fft_into(transform, rows_of(table[lo:hi], lo, r), table[lo:hi], 1)

    def columns(lo, hi):
        buf = np.empty((r, w), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for kb in range(lo, hi, w):
                block = table[:, kb: kb + w]
                z = buf[:, : block.shape[1]]
                np.multiply(block[1:], inner[:, : z.shape[1]], out=z[1:])  # row 0's factors are all 1
                z[1:] *= factors([kb - shift])
                z[0] = block[0]
                _fft_into(transform, z, block, 0)

    _split(rows, r)
    _split(columns, c, w)


# Limits of _weighted_squares; past _MANTISSA_POW in |t| its mantissa power
# is taken in the log domain, good to about |t| ulps.
_DIRECT_LOG2, _MANTISSA_POW, _INDEX_MAX = 1000.0, 1000.0, 2.0 ** 53

# Direct levels of one row are summed leaf by leaf along numpy's pairwise
# tree (_leaf_sums; Higham, SIAM J. Sci. Comput. 14(4), 1993, for the order):
# a leaf of at most _LEAF weights keeps its squares, its 1 + n^2 and one
# level's terms in cache (768 KiB) while all its levels are formed, where a
# whole-row level passes three times over an 8 MiB row at 2^20.  On a 2-CPU
# Xeon the growth report's eight levels over 2^20 + 1 weights took 19.2 ms
# level by level over the whole row, and 21.6, 15.0, 12.9, 11.8, 12.1 and
# 12.2 ms in leaves of 2^12 .. 2^17 (medians of 41): small leaves pay
# numpy's per-call cost more often.  At 2^16 + 1 and 2^18 + 1 weights 2^15
# was within 3% of the fastest leaf.
_LEAF = 2 ** 15
# A leafed row's direct weights np.power(1 + n^2, t) depend only on its
# window and nonzero indices, so the last such row keeps them: one read-only
# (levels, size) table while that holds at most _TABLE_BYTES (8 levels up to
# 2^17 weights).  Any miss drops it before a leaf allocates; index 0,
# log-domain levels, one-leaf rows and blocks of rows never read or drop it.
_TABLE_BYTES, _table = 2 ** 23, (None, None)
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


def _split(run, size: int, align: int = 1) -> None:
    """run(lo, hi) over up to min(ceil(size / align), CPUs) contiguous ranges of 0 .. size, the first on the caller.

    Range bounds are multiples of ``align``, and the call returns only once
    every range is done, also when the caller's own range raises.  One part,
    one CPU or a caller whose np.errstate does not ignore underflow runs
    run(0, size) inline and starts no pool.  Worker threads do not see the
    caller's np.errstate, so ``run`` may raise no floating-point flag but
    underflow unless it sets its own.  ``run`` must not submit to the pool
    itself, so concurrent callers cannot deadlock on it.
    """
    cpus, blocks = _cpus(), -(-size // align)
    parts = min(blocks, cpus)
    if parts < 2 or np.geterr()["under"] != "ignore":
        run(0, size)
        return
    bounds = [blocks * k // parts * align for k in range(parts)] + [size]
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


def _log_split(mags: np.ndarray, n_min: int):
    """((mb, eb), (squares, ec)): mantissas and exponents of 1 + n^2 and of mags, the mantissas of mags squared."""
    split = (mb, eb), (squares, ec) = np.frexp(_weight_base(n_min, mags.shape[-1])), np.frexp(mags)
    squares *= squares
    return split


def _weighted_squares(mags: np.ndarray, n_min: int, t: float, split=None):
    """(terms, exponent) with terms * 2**exponent = (1 + n^2)^t mags^2.

    ``mags`` holds magnitudes along its last axis at n = n_min, n_min + 1, ...;
    each row has its own even exponent (shape ``mags.shape[:-1]``) and sums
    to less than 2^1000.  While |t| log2(1 + max n^2) + log2(size) < 1000
    the weights are np.power(1 + n^2, t) and each row is scaled by a power
    of two, so the terms are the direct expression scaled exactly; at t = 0
    they are the scaled squares.  Otherwise every weight and square is split
    into mantissa and exponent (Blue, ACM TOMS 4(1), 1978; Anderson, ACM
    TOMS 44(1), 2017), the terms are formed relative to the row's largest
    one, and those below 2^-1074 of it become zero.  ``split`` is
    :func:`_log_split` of the same arguments, which a caller taking several
    such indices computes once; it is only read.  An index that is not
    finite or exceeds 2^53 in magnitude raises :class:`InvalidDataError`.
    """
    if not abs(t) <= _INDEX_MAX:
        raise InvalidDataError(f"Sobolev index {t!r} is not finite or exceeds 2^53 in magnitude")
    reach, count = _reach(n_min, mags.shape[-1])
    if abs(t) * reach + count < _DIRECT_LOG2:
        terms, shift = _scaled_squares(mags)
        if t:  # base >= 1, finite weights, scaled <= 1: the product may only underflow
            terms *= np.power(_weight_base(n_min, mags.shape[-1]), t)
        return terms, 2 * shift
    (mb, eb), (squares, ec) = _log_split(mags, n_min) if split is None else split
    whole = math.floor(t)
    if abs(t) <= _MANTISSA_POW:
        mant, expo = np.power(mb, t), eb * float(whole)
    else:
        expo = t * np.log2(mb)
        low = np.floor(expo)
        mant, expo = np.exp2(expo - low), low + eb * float(whole)
    # 2^(eb t) = 2^(eb whole) (2^eb)^(t - whole), both from exact inputs
    mant *= np.power(np.ldexp(1.0, eb), t - whole)
    mant, grow = np.frexp(mant * squares)
    total = 2.0 * ec  # the shape of mags, which expo lacks for a block of rows; in place from here
    total += expo
    total += grow
    top = total.max(axis=-1, where=mags > 0, initial=-2.0 ** 62, keepdims=True)
    top += top % 2
    total -= top
    np.ldexp(mant, np.clip(total, -1100, 0, out=total).astype(np.intc), out=mant)
    return mant, top[..., 0]


def _pairwise(leaf_value, lo: int, hi: int, leaf: int):
    """leaf_value(a, b) over the leaves of numpy's pairwise sum of entries lo .. hi - 1, added in its order.

    A leaf is a largest subtree of at most ``leaf`` entries.  numpy's rule
    (``pairwise_sum`` in numpy/_core/src/umath/loops_utils.h.src): a run of
    n > 128 entries sums as its first n//2 - (n//2 mod 8) entries plus the
    rest, so with ``leaf`` >= 128 every cut here is one numpy makes too.
    With leaf_value(a, b) = x[a:b].sum() the result is x.sum() bit for bit;
    with [(a, b)] it lists the leaves in order.
    """
    if hi - lo <= leaf:
        return leaf_value(lo, hi)
    half = (hi - lo) // 2
    half -= half % 8
    return _pairwise(leaf_value, lo, lo + half, leaf) + _pairwise(leaf_value, lo + half, hi, leaf)


def _level_sums(mags: np.ndarray, n_min: int, indices) -> list:
    """[(terms.sum(axis=-1), exponent)] per index t of :func:`_weighted_squares`, bit for bit.

    The direct indices of a 1-D row of more than _LEAF weights, a single one
    too, are summed on the leaves of :func:`_leaf_sums`.  Every other index
    (a one-leaf row, a block of rows, or t on the log-domain branch) calls
    the kernel, and the log-domain ones share one :func:`_log_split`.
    """
    reach, count = _reach(n_min, mags.shape[-1])
    direct = [abs(t) * reach + count < _DIRECT_LOG2 for t in indices]
    leafed = [t for t, near in zip(indices, direct) if near and mags.ndim == 1 and mags.size > _LEAF]
    sums = dict(zip(leafed, _leaf_sums(mags, n_min, leafed))) if leafed else {}
    split = None if all(direct) else _log_split(mags, n_min)
    for t in indices:
        if t not in sums:
            terms, exponent = _weighted_squares(mags, n_min, t, split)
            sums[t] = terms.sum(axis=-1), exponent
    return [sums[t] for t in indices]


def _leaf_sums(mags: np.ndarray, n_min: int, indices) -> list:
    """[(terms.sum(), exponent)] per direct index of a 1-D row, cut at the leaves of :func:`_pairwise`.

    Ranges of leaves go to :func:`_split`, each with one leaf-sized buffer
    for the scaled squares and one for the terms.  A leaf forms its scaled
    squares once, then each nonzero index's product with its weights (from
    _table, or on a miss from the leaf's 1 + n^2, stored while they fit) and
    the leaf's ``.sum()``; leaf sums are added in tree order: every bit on
    any number of CPUs.  A caller that traps underflow sums every leaf itself.
    """
    global _table
    size, shift = mags.size, math.frexp(mags.max(initial=0.0))[1]
    leaves, sums = _pairwise(lambda lo, hi: [(lo, hi)], 0, size, _LEAF), {}
    powered = [t for t in indices if t]
    key, (held, table) = (n_min, size, tuple(powered)), _table
    cold = bool(powered) and held != key
    if cold:
        _table = None, None
        table = np.empty((len(powered), size)) if 8 * size * len(powered) <= _TABLE_BYTES else None

    def run(first, last):
        scaled, terms = np.empty(_LEAF), np.empty(_LEAF if powered else 0)
        for lo, hi in leaves[first:last]:
            squares, out = np.ldexp(mags[lo:hi], -shift, out=scaled[: hi - lo]), terms[: hi - lo]
            squares *= squares
            base = _weight_base(n_min + lo, hi - lo) if cold else None
            rows = [out] * len(powered) if table is None else table[:, lo:hi]
            level = {t: np.multiply(np.power(base, t, out=row) if cold else row, squares, out=out).sum()
                     for t, row in zip(powered, rows)}
            sums[lo] = np.array([level[t] if t else squares.sum() for t in indices])

    _split(run, len(leaves))
    if cold and table is not None:  # published whole, on the calling thread
        table.flags.writeable = False
        _table = key, table
    return [(total, 2 * shift) for total in _pairwise(lambda lo, hi: sums[lo], 0, size, _LEAF)]


def _scaled(value: float, exponent, what: str | None = None) -> float:
    """value * 2**exponent; past the float range inf, or InvalidDataError naming ``what``."""
    try:
        return math.ldexp(value, int(exponent))
    except OverflowError:
        if what is None:
            return math.inf
        raise InvalidDataError(f"{what} exceeds the float range") from None


def _norm_parts(mags: np.ndarray, n_min: int, indices) -> list:
    """[(root, k)] per index t, with ( sum_n (1 + n^2)^t mags_n^2 )^(1/2) = root * 2^k along the last axis.

    Rows of a block get one root and one k each, bit-identical to their
    one-row results.
    """
    return [(np.sqrt(total), exponent // 2) for total, exponent in _level_sums(mags, n_min, indices)]


def sobolev_norm(f: BoundaryDistribution, index: float) -> float:
    """Boundary Sobolev norm ( sum_n (1 + n^2)^index |c_n|^2 )^(1/2).

    Any real index up to 2^53 in magnitude is accepted; the weight at n = 0
    is 1, so constants have the same norm on every level of the scale.
    Weights and squares may leave the float range (see
    :func:`_weighted_squares`); a norm that does raises
    :class:`InvalidDataError`.
    """
    index = float(index)
    (root, scale), = _norm_parts(np.abs(f.coeffs), f.n_min, (index,))
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

    A window inside f's shares f's (read-only) array.  A window longer than
    numpy can address raises ValueError naming f's n_min.
    """
    n_lo, n_hi = int(n_lo), int(n_hi)
    if n_lo > n_hi:
        raise ValueError(f"empty window [{n_lo}, {n_hi}]")
    if f.n_min <= n_lo and n_hi <= f.n_max:
        out = f.coeffs[n_lo - f.n_min: n_hi - f.n_min + 1]
    else:
        if n_hi - n_lo >= np.iinfo(np.intp).max // 16:  # more complex entries than numpy addresses
            raise ValueError(f"coefficients from n_min = {f.n_min} need the window n = {n_lo} .. {n_hi}, "
                             f"{n_hi - n_lo + 1} entries, more than one array can hold")
        out = np.zeros(n_hi - n_lo + 1, dtype=complex)
        lo = max(n_lo, f.n_min)
        hi = min(n_hi, f.n_max)
        if lo <= hi:
            out[lo - n_lo: hi - n_lo + 1] = f.coeffs[lo - f.n_min: hi - f.n_min + 1]
    return _wrap(BoundaryDistribution, out, n_min=n_lo)
