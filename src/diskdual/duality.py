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
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, InvalidDataError, InvalidFamilyError, TruncationError
from .growth import classify_decay
from .hardy import ExteriorFunction, InteriorFunction, hardy_projections, trace_exterior, trace_interior
from .spectral import (BoundaryDistribution, _norm_parts, _require_finite, _scaled, _weighted_squares,
                       koethe_pairing)

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
# Moment probing materializes the identity probe matrix one row block at a
# time; a block stays within this many bytes, so a large probe degree does
# not raise peak memory.
PROBE_BLOCK_BYTES = 1 << 20
# Rounding bounds of the duality suite scale with the magnitudes involved:
# the surjectivity error with the largest sum_n |a_n b_{n+1}| of a trial, the
# brute-force deviation with the largest closed-form norm of the run.  The
# dual norm grows like N^(1/2 - s), so a fixed bound fails falsely at s << 0.
# Each bound is the larger of its floor and its relative term.
SURJECTIVITY_BOUND_FLOOR, SURJECTIVITY_RELATIVE_BOUND = 1e-12, 1e-14
BRUTEFORCE_BOUND_FLOOR, BRUTEFORCE_RELATIVE_BOUND = 1e-6, 1e-12
SCALE_DIRECTIONS = ("interior-finite-order", "exterior-finite-order")


def _integer_scale(s) -> int:
    """The scale index s as an int; a float with a fractional part raises ValueError."""
    if isinstance(s, float) and not s.is_integer():
        raise ValueError("scale index must be an integer")
    return int(s)


@dataclass(frozen=True, eq=False)
class DualFunctional:
    """Functional on degree-s interior functions, represented by an exterior function."""

    v: ExteriorFunction
    s: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _integer_scale(self.s))

    def __call__(self, u: InteriorFunction):
        """F(u) as a black-box oracle; a probe block is answered for all its rows at once."""
        if isinstance(u, _ProbeBlock):
            # Identity rows hold a single 1, so the BLAS product is exact.
            k = min(u.rows.shape[1], self.v.coeffs.size)
            return u.rows[:, :k] @ self.v.coeffs[:k]
        return apply_functional(self, u)


@dataclass(frozen=True, eq=False)
class _ProbeBlock(InteriorFunction):
    """The monomial z^n that opens a block of identity probe rows, with the rows attached.

    To a scalar oracle it is the trimmed monomial z^n; a :class:`DualFunctional`
    answers every row of ``rows`` (z^n, z^(n+1), ...) in one array operation.
    """

    rows: np.ndarray | None = None


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
        return np.sum(a[0, :k] * b[:k], keepdims=True)
    return np.sum(a[:, :k] * b[:k], axis=1)


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
    return ExteriorFunction(-v_plus.coeffs, v_plus.index)


def functional_norm_closed_form(functional: DualFunctional) -> float:
    """Operator norm against the trace norm of index s - 1/2.

    The pairing shifts frequencies by one, so the dual weight of b_m is
    (1 + (m-1)^2)^(1/2 - s).  A norm beyond the float range raises
    :class:`InvalidDataError`.
    """
    root, scale = _norm_parts(np.abs(functional.v.coeffs), 0, 0.5 - functional.s)
    return _scaled(root, scale, f"closed-form dual norm at s={functional.s}")


def _maximizer_coeffs(b: np.ndarray, s: int, size: int) -> np.ndarray:
    """conj(b_{n+1}) (1 + n^2)^(1/2 - s) for n < size, times the kernel's power-of-two scale."""
    a = np.zeros(size, dtype=complex)
    weights, _ = next(_weighted_squares(np.ones(b.size), 0, (0.5 - s,)))
    np.multiply(np.conj(b), weights, out=a[: b.size])
    return a


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
    rng = np.random.default_rng(seed)
    # The probes pair with b 2^-e, max |b| in [2^(e-1), 2^e), which keeps
    # |F(u)| inside the float range.  Each ratio divides the mantissa of
    # |F(u)| by the probe's scaled root and only then applies the powers of
    # two, so no intermediate leaves the float range either (|F(u)| / root
    # could: the maximizer's entries reach 2^1000, its root 2^-501).
    b = np.ascontiguousarray(functional.v.coeffs)
    shift = math.frexp(np.abs(b).max(initial=0.0))[1]
    b = np.ldexp(b.view(float), -shift).view(complex)
    # (iterations, 2, cap) consumes the stream in the order of one real and
    # one imaginary draw per probe.
    draws = rng.standard_normal((iterations, 2, degree_cap))
    probes = np.empty((iterations + 1, degree_cap), dtype=complex)
    probes[0] = _maximizer_coeffs(b, functional.s, degree_cap)
    probes[1:] = draws[:, 0] + 1j * draws[:, 1]
    _require_finite(probes, "probe coefficients")
    terms, exponents = next(_weighted_squares(np.abs(probes), 0, (functional.s - 0.5,)))
    roots = np.sqrt(terms.sum(axis=1))
    values = _pair_rows(probes, b)
    best = 0.0
    # Python's abs of a complex, not np.abs: the two can differ in the last bit.
    for value, root, exponent in zip(values.tolist(), roots.tolist(), exponents.tolist()):
        if root != 0.0:
            mantissa, scale = math.frexp(abs(value))
            best = max(best, _scaled(mantissa / root, scale + shift - int(exponent) // 2))
    return best


def reconstruct_exterior_from_blackbox(
    evaluate: Callable[[InteriorFunction], complex], degree_cap: int, s: int = 0
) -> ExteriorFunction:
    """Recover the exterior representative of a linear functional by moment probes.

    b_{n+1} = evaluate(z^n) for n = 0 .. degree_cap - 1.  Exact whenever the
    oracle is the pairing against an exterior function supported within
    degree_cap; in particular the zero oracle returns the zero function.

    The probes are the rows of the identity matrix, walked in row blocks of
    at most ``PROBE_BLOCK_BYTES``.  The oracle first receives the block's
    opening monomial; a :class:`DualFunctional` answers the whole block with
    one array operation, while any other oracle returns a scalar and then
    receives the block's remaining monomials one at a time.  Every monomial
    z^n is trimmed to its n + 1 coefficients.
    """
    if degree_cap < 1:
        raise ValueError("need a positive probe degree")
    b = np.empty(degree_cap, dtype=complex)
    rows = max(1, PROBE_BLOCK_BYTES // (16 * degree_cap))
    for start in range(0, degree_cap, rows):
        stop = min(start + rows, degree_cap)
        block = np.eye(stop - start, stop, k=start, dtype=complex)
        values = evaluate(_ProbeBlock(block[0, : start + 1], s, rows=block))
        if np.ndim(values) == 1:
            b[start:stop] = values
            continue
        b[start] = complex(values)
        for n in range(start + 1, stop):
            b[n] = complex(evaluate(InteriorFunction(block[n - start, : n + 1], s)))
    return ExteriorFunction(b, 1 - int(s))


def dual_norm_trace_ratio(v: ExteriorFunction, s: int) -> float | None:
    """Closed-form dual norm over the trace norm of index 1/2 - s; None when v = 0.

    Formed from both norms in scaled form, so it is finite wherever it fits the float range.
    """
    trace = trace_exterior(v)
    denom, denom_scale = _norm_parts(np.abs(trace.coeffs), trace.n_min, 0.5 - s)
    if denom == 0.0:
        return None
    s = _integer_scale(s)
    root, scale = _norm_parts(np.abs(v.coeffs), 0, 0.5 - s)
    return _scaled(root / denom, scale - denom_scale, "dual-norm ratio")


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

    def to_doc(self) -> dict:
        return {name: float(value) for name, value in asdict(self).items()}


def pairing_tail_certificate(
    interior_coeffs, exterior_coeffs, smooth_side: str
) -> TailCertificate:
    """Certify absolute convergence of sum_n |a_n b_{n+1}| at the stored truncation.

    ``smooth_side`` names which family ('interior' or 'exterior') must decay
    super-polynomially; it is classified first and an
    :class:`InvalidFamilyError` is raised when it does not, which is what
    rejects the divergent polynomial-against-polynomial configuration.
    """
    a = np.asarray(interior_coeffs, dtype=complex)
    b = np.asarray(exterior_coeffs, dtype=complex)
    if smooth_side not in ("interior", "exterior"):
        raise ValueError(f"smooth_side must be 'interior' or 'exterior', got {smooth_side!r}")
    smooth = a if smooth_side == "interior" else b
    if classify_decay(smooth) != "smooth":
        raise InvalidFamilyError(
            f"{smooth_side} family does not decay super-polynomially; "
            "the pairing sum cannot be certified"
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
    positive = window > 0
    both = positive[1:] & positive[:-1]
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


def verify_duality_isomorphism(s: int, trials: int, degree_cap: int, seed: int) -> VerificationReport:
    """Seeded verification that exterior functions model the interior dual space.

    Per trial: (i) moment probing recovers a random representative exactly,
    (ii) the representative built from raw boundary data reproduces the raw
    pairing on interior functions of larger degree, (iii) the dual norm stays
    within the two-sided trace-norm bounds, (iv) the continuity constant of
    the pairing is 1, and (v) brute-force probing matches the closed-form
    norm.  A deliberate zero representative is fed through the ratio check
    and must be skipped as degenerate.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    s = _integer_scale(s)
    children = np.random.SeedSequence(seed).spawn(trials)
    lower, upper = norm_ratio_bounds(s)

    degenerate_skipped = 0
    if dual_norm_trace_ratio(ExteriorFunction(np.zeros(0), 1 - s), s) is None:
        degenerate_skipped += 1

    inj_err = sur_err = ratio_max = continuity = bf_dev = norm_max = sur_terms_max = 0.0
    ratio_min = np.inf
    for child in children:
        rng = np.random.default_rng(child)
        v = ExteriorFunction(complex_normal(rng, degree_cap), 1 - s)
        functional = functional_from_exterior(v, s)

        recovered = reconstruct_exterior_from_blackbox(functional, degree_cap, s)
        inj_err = max(inj_err, float(np.max(np.abs(recovered.coeffs - v.coeffs))))

        w = BoundaryDistribution(-degree_cap, complex_normal(rng, 2 * degree_cap + 1))
        rep = represent_functional(w, s)
        probe = InteriorFunction(complex_normal(rng, degree_cap + 4), s)
        raw = koethe_pairing(trace_interior(probe), w)
        through = apply_functional(functional_from_exterior(rep, s), probe)
        sur_err = max(sur_err, abs(through - raw))
        k = min(probe.coeffs.size, rep.coeffs.size)
        sur_terms_max = max(sur_terms_max, float(np.sum(np.abs(probe.coeffs[:k] * rep.coeffs[:k]))))

        ratio = dual_norm_trace_ratio(v, s)
        if ratio is None:
            degenerate_skipped += 1
        else:
            ratio_min = min(ratio_min, ratio)
            ratio_max = max(ratio_max, ratio)

        root, scale = _norm_parts(np.abs(v.coeffs), 0, 0.5 - s)
        norm = _scaled(root, scale, f"closed-form dual norm at s={s}")
        norm_max = max(norm_max, norm)
        # the continuity ratio |F(probe)| / (norm ||probe||), with both norms kept scaled
        probe_root, probe_scale = _norm_parts(np.abs(probe.coeffs), 0, s - 0.5)
        if root * probe_root > 0:
            value = abs(apply_functional(functional, probe)) / (root * probe_root)
            continuity = max(continuity, _scaled(value, -scale - probe_scale))

        bf = functional_norm_bruteforce(
            functional, degree_cap, iterations=8, seed=int(rng.integers(2 ** 32))
        )
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
    """Managed families: one side polynomially growing, the other geometric."""
    power = int(rng.integers(1, 3))
    rho = float(rng.uniform(0.3, 0.5))
    n = np.arange(size, dtype=float)
    phases_a = np.exp(2j * np.pi * rng.random(size))
    phases_b = np.exp(2j * np.pi * rng.random(size))
    polynomial = (n + 1.0) ** power * phases_a
    geometric = rho ** (n + 1.0) * phases_b
    if direction == "interior-finite-order":
        return polynomial, geometric, "exterior"
    return geometric, polynomial, "interior"


def verify_scale_pairing(direction: str, size: int, seed: int, interior_coeffs=None,
                         exterior_coeffs=None) -> VerificationReport:
    """Certify the pairing between a finite-order side and a smooth side.

    ``direction`` says which side carries the polynomially bounded family
    ('interior-finite-order' pairs it against a smooth exterior family and
    vice versa).  Explicit coefficient overrides replace the managed families
    and are validated the same way, so a non-decaying smooth side raises
    :class:`InvalidFamilyError` rather than producing a report.
    """
    if direction not in SCALE_DIRECTIONS:
        raise ValueError(f"direction must be one of {SCALE_DIRECTIONS}, got {direction!r}")
    if size < 32:
        raise ValueError("need size >= 32 for a meaningful tail window")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    a, b, smooth_side = _scale_families(direction, size, rng)
    if interior_coeffs is not None:
        a = np.asarray(interior_coeffs, dtype=complex)
    if exterior_coeffs is not None:
        b = np.asarray(exterior_coeffs, dtype=complex)
    certificate = pairing_tail_certificate(a, b, smooth_side)
    checks = tuple(
        CheckResult(f"{direction}: {name}", value, bound, value < bound)
        for name, value, bound in (
            ("truncation remainder share", certificate.relative_remainder, TAIL_RELATIVE_BOUND),
            ("second-half window share", certificate.second_half_share, 1e-6),
            ("observed decay ratio", certificate.decay_ratio, 1.0),
        )
    )
    return VerificationReport(f"scale-pairing ({direction})", 0, int(seed), checks)
