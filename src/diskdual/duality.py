"""Interior/exterior duality machinery.

Every functional on the interior Hardy side is represented by an exterior
function through the bilinear boundary pairing: the functional carried by v
acts as u -> sum_{n>=0} a_n b_{n+1}.  This module builds such functionals,
computes their operator norm in closed form and by brute-force probing,
reconstructs the representative from black-box access (moment probing), and
packages seeded verification suites for the isomorphism and for the
finite-order / smooth scale pairing.

All verification runs are deterministic: trials draw from generators spawned
off a single seed sequence, so a report is reproducible bit for bit no matter
how trials are scheduled.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, InvalidDataError, InvalidFamilyError, TruncationError
from .growth import _decay_verdict
from .hardy import ExteriorFunction, InteriorFunction, hardy_projections, trace_interior
from .spectral import (BoundaryDistribution, _norm_parts, _require_finite, _scaled, _split, _weighted_squares,
                       _wrap, koethe_pairing)

__all__ = [
    "DualFunctional",
    "CheckResult",
    "VerificationReport",
    "TailCertificate",
    "functional_from_exterior",
    "apply_functional",
    "represent_functional",
    "functional_norm_closed_form",
    "functional_norm_bruteforce",
    "reconstruct_exterior_from_blackbox",
    "dual_norm_trace_ratio",
    "norm_ratio_bounds",
    "pairing_tail_certificate",
    "verify_duality_isomorphism",
    "verify_scale_pairing",
    "complex_normal",
    "SCALE_DIRECTIONS",
]

RATIO_SLACK = 1e-12
TAIL_RELATIVE_BOUND = 1e-10
# Rounding bounds of the duality suite scale with the magnitudes involved:
# the surjectivity error with the largest sum_n |a_n b_{n+1}| of a trial, the
# brute-force deviation with the largest closed-form norm of the run.  The
# dual norm grows like N^(1/2 - s), so a fixed bound fails falsely at s << 0.
# Each bound is the larger of its floor and its relative term.
SURJECTIVITY_BOUND_FLOOR, SURJECTIVITY_RELATIVE_BOUND = 1e-12, 1e-14
BRUTEFORCE_BOUND_FLOOR, BRUTEFORCE_RELATIVE_BOUND = 1e-6, 1e-12
SCALE_DIRECTIONS = ("interior-finite-order", "exterior-finite-order")
# The smallest scale-pairing size.  The managed families' worst second-half
# window share (rho in [0.3, 0.5), power 1 or 2) is 8.3e-4 at N = 32, 6.7e-6
# at 48 and 4.5e-8 at 64, so 64 is the smallest power of two whose every
# draw meets the share bound of 1e-6.
_SCALE_MIN_SIZE = 64
# A power below 2^-_UNDERFLOW_BITS rounds to zero: half the smallest subnormal is 2^-1075.
_UNDERFLOW_BITS = 1100
# The isomorphism suite's random brute-force probes per trial.
_SUITE_ITERATIONS = 8
# The isomorphism suite evaluates its trials in blocks whose brute-force
# probe rows, (_SUITE_ITERATIONS + 1) N complex numbers a trial and the
# block's largest array, take at most this many bytes; a trial larger than
# that forms a block alone.  Stacking saves numpy's per-call cost, most of a
# trial's time at small N, but a block's arrays (about five times its probe
# rows) must stay small: unbounded, 200 trials at N = 16384 took 1.5 GB and
# ran slower than one trial at a time.  On a 2-vCPU Xeon with a 2 MB L2,
# budgets of 1-2 MB ran fastest from N = 32 to 4096; 8 MB ran slower.
_BLOCK_BYTES = 1 << 20
# A block of at least two brute-force probe rows of at least this many
# normals each is drawn on up to one thread per CPU the process may run on
# (spectral._split), one contiguous range of rows each.  Each row has its own
# generator and its own slice, and numpy fills it with the GIL released, so
# every bit is the serial one.  On a 2-CPU Xeon, rows of 8 * 2 * N normals
# drawn serially, then on two threads, took (medians of 200) 355 -> 767 us
# for 16 rows at N = 32, 461 -> 433 and 356 -> 389 us for 8 rows at N = 128
# (2^11 normals a row), 759 -> 513 us for 8 rows at N = 256 (2^12) and
# 1305 -> 730 us for 4 rows at N = 1024.
_DRAW_SPLIT_NORMALS = 2 ** 12


def _integer_scale(s) -> int:
    """The scale index s as an int; a fractional float raises ValueError, an int past the floats InvalidDataError."""
    if isinstance(s, float) and not s.is_integer():
        raise ValueError("scale index must be an integer")
    if abs(s) > sys.float_info.max:  # 1/2 - s must be a float
        raise InvalidDataError(f"scale index s={s} exceeds the float range")
    return int(s)


@dataclass(frozen=True, eq=False)
class DualFunctional:
    """Functional on degree-s interior functions, represented by an exterior function."""

    v: ExteriorFunction
    s: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _integer_scale(self.s))

    def __call__(self, u: InteriorFunction):
        """F(u) as a black-box oracle; a probe is answered with all its moments at once."""
        if isinstance(u, _ProbeBlock):
            # kappa(z^n, v) = b_{n+1}; + 0.0 makes -0.0 read +0.0, as apply_functional's sum does
            values = np.zeros(u.count, dtype=complex)
            k = min(u.count, self.v.coeffs.size)
            values[:k] = self.v.coeffs[:k] + 0.0
            return values
        return apply_functional(self, u)


@dataclass(frozen=True, eq=False)
class _ProbeBlock(InteriorFunction):
    """The monomial z^0 of a moment probe, marked with the number of moments wanted.

    To a scalar oracle it is the constant 1; a :class:`DualFunctional`
    answers F(z^n) for every n < ``count`` with one array.
    """

    count: int = 0


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: float
    passed: bool

    def to_doc(self) -> dict:
        return {"name": self.name, "value": float(self.value), "bound": float(self.bound),
                "passed": bool(self.passed)}


@dataclass(frozen=True)
class VerificationReport:
    """Deterministic pass/fail record of a verification suite.

    Each check carries the measured value and the bound it was held to; the
    report fails as soon as any check does (no exception is raised).
    """

    label: str
    s: int
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_doc(self) -> dict:
        return {"label": self.label, "s": int(self.s), "seed": int(self.seed), "passed": self.passed,
                "checks": [c.to_doc() for c in self.checks]}


def functional_from_exterior(v: ExteriorFunction, s: int) -> DualFunctional:
    """Wrap an exterior function as the functional u -> kappa(u|bd, v|bd)."""
    return DualFunctional(v, s)


def _pair_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_n a[r, n] b_{n+1} for every row r of a 2-D coefficient block.

    Each row is reduced along the contiguous axis, so a row's value is
    bit-identical whatever block it sits in.
    """
    k = min(a.shape[1], b.size)
    if a.shape[0] == 1:
        # numpy multiplies a lone 1 x 1 complex block outside its vector loop,
        # which rounds differently; the 1-D product takes the block's loop.
        return (a[0, :k] * b[:k]).sum(keepdims=True)
    return (a[:, :k] * b[:k]).sum(axis=1)


def apply_functional(functional: DualFunctional, u: InteriorFunction) -> complex:
    """Evaluate the functional: sum_{n >= 0} a_n b_{n+1} (linear in u)."""
    return complex(_pair_rows(u.coeffs[None, :], functional.v.coeffs)[0])


def represent_functional(w: BoundaryDistribution, s: int) -> ExteriorFunction:
    """Exterior representative of the raw boundary functional u -> kappa(u|bd, w).

    Only the negative frequencies of w survive (b_m = c_{-m}); the
    nonnegative ones are annihilated because polynomials pair to zero against
    interior traces.  The result satisfies
    apply(functional_from_exterior(v, s), u) == kappa(u|bd, w) for every u.
    """
    _, v_plus = hardy_projections(w, boundary_index=0.5 - _integer_scale(s))
    return _wrap(ExteriorFunction, -v_plus.coeffs, index=v_plus.index)


def functional_norm_closed_form(functional: DualFunctional) -> float:
    """Operator norm against the trace norm of index s - 1/2.

    The pairing shifts frequencies by one, so the dual weight of b_m is
    (1 + (m-1)^2)^(1/2 - s).  A norm beyond the float range raises
    :class:`InvalidDataError`.
    """
    (root, scale), = _norm_parts(np.abs(functional.v.coeffs), 0, (0.5 - functional.s,))
    return _scaled(root, scale, f"closed-form dual norm at s={functional.s}")


def _maximizer_weights(s: int, size: int) -> np.ndarray:
    """(1 + n^2)^(1/2 - s) for n < size, times the kernel's power-of-two scale."""
    return _weighted_squares(np.ones(size), 0, 0.5 - s)[0]


def _bruteforce_rows(b: np.ndarray, mags: np.ndarray, s: int, degree_cap: int, iterations: int,
                     seeds, weights: np.ndarray) -> list[float]:
    """:func:`functional_norm_bruteforce` for each row of representatives ``b``.

    ``mags`` is |b|, ``seeds`` holds one probe seed per row and ``weights``
    is :func:`_maximizer_weights` for b's row size.  The probes of all rows
    are normed in one kernel pass; each row's result is bit-identical to
    its one-row call.
    """
    count, support = b.shape
    # The probes pair with b 2^-e, max |b| in [2^(e-1), 2^e), which keeps
    # |F(u)| inside the float range.  Each ratio divides the mantissa of
    # |F(u)| by the probe's scaled root and only then applies the powers of
    # two, so no intermediate leaves the float range either (|F(u)| / root
    # could: the maximizer's entries reach 2^1000, its root 2^-501).
    shifts = np.frexp(mags.max(axis=1, initial=0.0))[1]
    b = np.ldexp(b.view(float), -shifts[:, None]).view(complex)
    probes = np.zeros((count, iterations + 1, degree_cap), dtype=complex)
    np.multiply(np.conj(b), weights, out=probes[:, 0, :support])
    # (iterations, 2, cap) per row consumes its stream in the order of one
    # real and one imaginary draw per probe.
    draws = np.empty((count, iterations, 2, degree_cap))

    def draw(lo, hi):
        for index in range(lo, hi):
            np.random.default_rng(seeds[index]).standard_normal(out=draws[index])

    if draws[0].size >= _DRAW_SPLIT_NORMALS:
        _split(draw, count)
    else:
        draw(0, count)
    probes[:, 1:].real = draws[:, :, 0]
    probes[:, 1:].imag = draws[:, :, 1]
    del draws  # freed before the probes are normed, where the peak lies
    _require_finite(probes, "probe coefficients")
    (roots, exponents), = _norm_parts(np.abs(probes), 0, (s - 0.5,))
    best_rows = []
    for rows, row_b, row_roots, row_exponents, shift in zip(
            probes, b, roots.tolist(), exponents.tolist(), shifts.tolist()):
        best = 0.0
        # Python's abs of a complex, not np.abs: the two can differ in the last bit.
        for value, root, exponent in zip(_pair_rows(rows, row_b).tolist(), row_roots, row_exponents):
            if root != 0.0:
                mantissa, scale = math.frexp(abs(value))
                best = max(best, _scaled(mantissa / root, scale + shift - int(exponent)))
        best_rows.append(best)
    return best_rows


def functional_norm_bruteforce(
    functional: DualFunctional, degree_cap: int, iterations: int, seed: int
) -> float:
    """Best observed ratio |F(u)| / ||u|bd|| over probe functions.

    Probes are ``iterations`` random coefficient draws of degree < degree_cap
    plus the analytic maximizer a_n = conj(b_{n+1}) (1 + n^2)^(1/2 - s), which
    attains the closed-form norm exactly.  All probes are evaluated as one
    block; each ratio is bit-identical to the one-probe computation with
    :func:`apply_functional` against b 2^-e and
    :func:`~diskdual.spectral.sobolev_norm`, times 2^e, wherever that
    computation stays inside the float range.
    """
    if iterations < 1:
        raise ValueError("need at least one probe iteration")
    support = functional.v.coeffs.size
    if degree_cap < support:
        raise TruncationError(
            f"probe degree cap {degree_cap} cannot see the representative's support {support}"
        )
    b = np.ascontiguousarray(functional.v.coeffs)[None]
    return _bruteforce_rows(b, np.abs(b), functional.s, degree_cap, iterations, [seed],
                            _maximizer_weights(functional.s, support))[0]


def reconstruct_exterior_from_blackbox(
    evaluate: Callable[[InteriorFunction], complex], degree_cap: int, s: int = 0
) -> ExteriorFunction:
    """Recover the exterior representative of a linear functional by moment probes.

    b_{n+1} = evaluate(z^n) for n = 0 .. degree_cap - 1.  Exact whenever the
    oracle is the pairing against an exterior function supported within
    degree_cap; in particular the zero oracle returns the zero function.

    The oracle first receives z^0 marked as a probe for all degree_cap
    moments; a :class:`DualFunctional` answers it with one array, so the
    reconstruction costs O(degree_cap) time and memory.  Any other oracle
    returns a scalar and then receives each monomial z^n, trimmed to its
    n + 1 coefficients, one at a time.
    """
    s = _integer_scale(s)
    if degree_cap < 1:
        raise ValueError("need a positive probe degree")
    values = evaluate(_ProbeBlock(np.ones(1), s, count=degree_cap))
    if np.ndim(values) != 1:
        values = [complex(values)] + [complex(evaluate(InteriorFunction(np.eye(1, n + 1, n)[0], s)))
                                      for n in range(1, degree_cap)]
    return ExteriorFunction(values, 1 - s)


def _dual_norm_parts(mags: np.ndarray, s: int) -> list[list]:
    """Closed-form dual norm and trace norm of index 1/2 - s per row of |b_m|, m = 1 .. size.

    Returns the lists [root, k, trace root, trace k], each norm being root * 2^k.
    """
    # The trace holds b_m at frequency -m: each row reversed.  A block's terms
    # are summed from a fresh array the kernel writes, so the reversed view
    # rounds as a copy would.
    dual, = _norm_parts(mags, 0, (0.5 - s,))
    trace, = _norm_parts(mags[:, ::-1], -mags.shape[1], (0.5 - s,))
    return [part.tolist() for part in (*dual, *trace)]


def _trace_ratio(root: float, scale: int, denom: float, denom_scale: int) -> float | None:
    if denom == 0.0:
        return None
    return _scaled(root / denom, scale - denom_scale, "dual-norm ratio")


def dual_norm_trace_ratio(v: ExteriorFunction, s: int) -> float | None:
    """Closed-form dual norm over the trace norm of index 1/2 - s; None when v = 0.

    Formed from both norms in scaled form, so it is finite wherever it fits the float range.
    """
    parts = _dual_norm_parts(np.abs(v.coeffs)[None], _integer_scale(s))
    return _trace_ratio(*(part[0] for part in parts))


def norm_ratio_bounds(s: int) -> tuple[float, float]:
    """Two-sided bounds for the dual-norm / trace-norm ratio at scale s.

    The frequency shift of the pairing costs at most a factor
    sup_m ((1 + m^2) / (1 + (m-1)^2))^(|s - 1/2| / 2) = (5/2)^(|s - 1/2| / 2),
    the supremum sitting at m = 2 (not at m = 1, where the quotient is only 2).
    Both bounds are attained by the single-mode representative b_2.
    """
    try:
        spread = 2.5 ** (abs(s - 0.5) / 2.0)
    except OverflowError:
        raise InvalidDataError(f"dual-norm ratio bound (5/2)^(|s - 1/2|/2) at s={s} "
                               "exceeds the float range") from None
    return 1.0 / spread, spread


@dataclass(frozen=True)
class TailCertificate:
    """Absolute-convergence certificate for a truncated pairing sum.

    ``remainder_bound`` extrapolates the terms lost to truncation from the
    decay ratio observed on the second half of the stored support;
    ``relative_remainder`` divides it by the total absolute sum.
    """

    total: float
    second_half_share: float
    decay_ratio: float
    remainder_bound: float
    relative_remainder: float


def pairing_tail_certificate(
    interior_coeffs, exterior_coeffs, smooth_side: str
) -> TailCertificate:
    """Certify absolute convergence of sum_n |a_n b_{n+1}| at the stored truncation.

    ``smooth_side`` names which family ('interior' or 'exterior') must decay
    super-polynomially; it is classified first and an
    :class:`InvalidFamilyError` is raised when it does not, which is what
    rejects the divergent polynomial-against-polynomial configuration.

    The decay ratio is the largest ratio of neighbouring terms on the second
    half of the support.  A term enters a ratio only when it and its factors
    |a_n| and |b_n| are all at least ``np.finfo(float).tiny``: a subnormal
    number carries fewer than 53 bits, so a ratio formed from one is rounding,
    not decay.  Without such a pair of terms the ratio is 0.
    """
    a = np.asarray(interior_coeffs, dtype=complex)
    b = np.asarray(exterior_coeffs, dtype=complex)
    if smooth_side not in ("interior", "exterior"):
        raise ValueError(f"smooth_side must be 'interior' or 'exterior', got {smooth_side!r}")
    smooth = a if smooth_side == "interior" else b
    verdict, slopes = _decay_verdict(smooth)
    if verdict != "smooth":
        read = ", ".join(f"{slope:.4g}" for slope in slopes) or "none"
        raise InvalidFamilyError(
            f"{smooth_side} family does not decay super-polynomially: classify_decay reads "
            f"{verdict!r} from its last dyadic log2 slopes ({read}); the pairing sum cannot be certified"
        )
    size = min(a.size, b.size)
    if size < 16:
        raise TruncationError(f"need at least 16 paired terms, got {size}")
    terms = np.abs(a[:size] * b[:size])
    total = float(terms.sum())
    if total == 0.0:
        raise DegenerateInputError("pairing terms vanish identically")
    window = terms[size // 2:]
    share = float(window.sum() / total)
    tiny, half = np.finfo(float).tiny, slice(size // 2, size)
    normal = (window >= tiny) & (np.abs(a[half]) >= tiny) & (np.abs(b[half]) >= tiny)
    both = normal[1:] & normal[:-1]
    ratios = window[1:][both] / window[:-1][both]
    decay = float(ratios.max()) if ratios.size else 0.0
    if decay >= 1.0 - 1e-6:
        raise InvalidFamilyError(
            f"pairing terms do not decay on the tail window (observed ratio {decay:.4f})"
        )
    remainder = float(window[-1] * decay / (1.0 - decay)) if decay > 0 else 0.0
    return TailCertificate(total, share, decay, remainder, remainder / total)


def complex_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """size complex Gaussian coefficients: all real parts drawn first, then all imaginary parts."""
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _draw_trial(child: np.random.SeedSequence, s: int, degree_cap: int):
    """One trial's inputs in stream order: representative v, boundary data w, probe, brute-force seed.

    Fresh normal draws are finite and contiguous, so they are wrapped
    without the constructors' copy and scan, with the fields they would set.
    """
    rng = np.random.default_rng(child)
    v = _wrap(ExteriorFunction, complex_normal(rng, degree_cap), index=float(1 - s))
    w = _wrap(BoundaryDistribution, complex_normal(rng, 2 * degree_cap + 1), n_min=-int(degree_cap))
    probe = _wrap(InteriorFunction, complex_normal(rng, degree_cap + 4), index=float(s))
    return v, w, probe, int(rng.integers(2 ** 32))


def verify_duality_isomorphism(s: int, trials: int, degree_cap: int, seed: int) -> VerificationReport:
    """Seeded verification that exterior functions model the interior dual space.

    Per trial: (i) moment probing recovers a random representative exactly,
    (ii) the representative built from raw boundary data reproduces the raw
    pairing on interior functions of larger degree, (iii) the dual norm stays
    within the two-sided trace-norm bounds, (iv) the continuity constant of
    the pairing is 1, and (v) brute-force probing matches the closed-form
    norm.  A deliberate zero representative is fed through the ratio check
    and must be skipped as degenerate.

    Trials are drawn and evaluated in blocks (see :data:`_BLOCK_BYTES`): the
    norms of a block's representatives, traces, probes and brute-force
    probes take one kernel pass each, while the library calls under test
    run per trial.  The report is bit-identical to a trial-by-trial run.
    """
    if not 1 <= trials <= sys.maxsize:  # SeedSequence.spawn counts its children in a C ssize_t
        raise ValueError(f"need 1 .. {sys.maxsize} trials, got {trials}")
    if degree_cap < 1:
        raise ValueError("need a positive probe degree")
    s = _integer_scale(s)
    seeds = np.random.SeedSequence(seed)  # spawned a block at a time: the same children, in order
    lower, upper = norm_ratio_bounds(s)

    degenerate_skipped = 0
    if dual_norm_trace_ratio(ExteriorFunction(np.zeros(0), 1 - s), s) is None:
        degenerate_skipped += 1

    weights = _maximizer_weights(s, degree_cap)
    per_block = max(1, _BLOCK_BYTES // (16 * (_SUITE_ITERATIONS + 1) * degree_cap))
    inj_err = sur_err = ratio_max = continuity = bf_dev = norm_max = sur_terms_max = 0.0
    ratio_min = np.inf
    for start in range(0, trials, per_block):
        drawn = [_draw_trial(child, s, degree_cap) for child in seeds.spawn(min(per_block, trials - start))]
        reps = np.array([v.coeffs for v, _, _, _ in drawn])
        mags = np.abs(reps)
        probes = np.array([probe.coeffs for _, _, probe, _ in drawn])
        probe_roots, probe_scales = (part.tolist() for part in _norm_parts(np.abs(probes), 0, (s - 0.5,))[0])
        brute = _bruteforce_rows(reps, mags, s, degree_cap, _SUITE_ITERATIONS,
                                 [bf_seed for _, _, _, bf_seed in drawn], weights)
        for (v, w, probe, _), root, scale, denom, denom_scale, probe_root, probe_scale, bf in zip(
                drawn, *_dual_norm_parts(mags, s), probe_roots, probe_scales, brute):
            functional = functional_from_exterior(v, s)
            recovered = reconstruct_exterior_from_blackbox(functional, degree_cap, s)
            inj_err = max(inj_err, float(np.abs(recovered.coeffs - v.coeffs).max()))

            rep = represent_functional(w, s)
            raw = koethe_pairing(trace_interior(probe), w)
            through = apply_functional(functional_from_exterior(rep, s), probe)
            sur_err = max(sur_err, abs(through - raw))
            k = min(probe.coeffs.size, rep.coeffs.size)
            sur_terms_max = max(sur_terms_max, float(np.abs(probe.coeffs[:k] * rep.coeffs[:k]).sum()))

            ratio = _trace_ratio(root, scale, denom, denom_scale)
            if ratio is None:
                degenerate_skipped += 1
            else:
                ratio_min = min(ratio_min, ratio)
                ratio_max = max(ratio_max, ratio)

            norm = _scaled(root, scale, f"closed-form dual norm at s={s}")
            norm_max = max(norm_max, norm)
            # the continuity ratio |F(probe)| / (norm ||probe||), with both norms kept scaled
            if root * probe_root > 0:
                value = abs(apply_functional(functional, probe)) / (root * probe_root)
                continuity = max(continuity, _scaled(value, -scale - probe_scale))

            bf_dev = max(bf_dev, abs(bf - norm))

    sur_bound = max(SURJECTIVITY_BOUND_FLOOR, SURJECTIVITY_RELATIVE_BOUND * sur_terms_max)
    bf_bound = max(BRUTEFORCE_BOUND_FLOOR, BRUTEFORCE_RELATIVE_BOUND * norm_max)
    checks = (
        CheckResult("injectivity roundtrip max coefficient error", inj_err, 1e-13, inj_err <= 1e-13),
        CheckResult("surjectivity identity max error", sur_err, sur_bound, sur_err <= sur_bound),
        CheckResult("dual-norm ratio lower bound", float(ratio_min), lower,
                     ratio_min >= lower - RATIO_SLACK),
        CheckResult("dual-norm ratio upper bound", float(ratio_max), upper,
                     ratio_max <= upper + RATIO_SLACK),
        CheckResult("continuity constant", continuity, 1.0, continuity <= 1.0 + RATIO_SLACK),
        CheckResult("bruteforce vs closed-form norm", bf_dev, bf_bound, bf_dev <= bf_bound),
        CheckResult("degenerate representatives skipped", float(degenerate_skipped), 1.0,
                     degenerate_skipped == 1),
    )
    return VerificationReport("duality-isomorphism", s, int(seed), checks)


def _scale_families(direction: str, size: int, rng: np.random.Generator):
    """Managed families: one side polynomially growing, the other geometric.

    The polynomial side is (n + 1)^power e^(2 pi i t_n), the geometric side
    rho^(n + 1) e^(2 pi i t'_n), with random phases.  The geometric side is
    computed only on its representable prefix n < k, k = ceil(1100 / log2(1/rho)):
    past it rho^(n + 1) < 2^-1100, below half the smallest subnormal (2^-1075),
    so the power rounds to zero and the entries are stored as exact zeros.
    """
    power = int(rng.integers(1, 3))
    rho = float(rng.uniform(0.3, 0.5))
    n = np.arange(size, dtype=float)
    phases_a = np.exp(2j * np.pi * rng.random(size))
    turns_b = rng.random(size)
    polynomial = (n + 1.0) ** power * phases_a
    # Past k the entries are +0, where the underflowed power times the phase
    # would give zeros of either sign.  Only magnitudes enter the report (the
    # terms |a_n b_n| and classify_decay of the smooth side), so its bytes are
    # the same either way.
    k = math.ceil(_UNDERFLOW_BITS / -math.log2(rho))
    geometric = np.zeros(size, dtype=complex)
    geometric[:k] = rho ** (n[:k] + 1.0) * np.exp(2j * np.pi * turns_b[:k])
    if direction == "interior-finite-order":
        return polynomial, geometric, "exterior"
    return geometric, polynomial, "interior"


def verify_scale_pairing(direction: str, size: int, seed: int) -> VerificationReport:
    """Certify the pairing between a finite-order side and a smooth side.

    ``direction`` says which side carries the polynomially bounded family
    ('interior-finite-order' pairs it against a smooth exterior family and
    vice versa).
    """
    if direction not in SCALE_DIRECTIONS:
        raise ValueError(f"direction must be one of {SCALE_DIRECTIONS}, got {direction!r}")
    if size < _SCALE_MIN_SIZE:
        raise ValueError(f"need size >= {_SCALE_MIN_SIZE}: below it the managed families' "
                         "second-half window share can exceed its 1e-6 bound")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    certificate = pairing_tail_certificate(*_scale_families(direction, size, rng))
    checks = tuple(
        CheckResult(f"{direction}: {name}", value, bound, value < bound)
        for name, value, bound in (
            ("truncation remainder share", certificate.relative_remainder, TAIL_RELATIVE_BOUND),
            ("second-half window share", certificate.second_half_share, 1e-6),
            ("observed decay ratio", certificate.decay_ratio, 1.0),
        )
    )
    return VerificationReport(f"scale-pairing ({direction})", 0, int(seed), checks)
