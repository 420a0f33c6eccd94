"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line once its assertions clear, so running
``pytest tests/test_acceptance.py -v -s`` yields one line per criterion.
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from diskdual import (
    BoundaryDistribution,
    CurveDescriptor,
    ExteriorFunction,
    InteriorFunction,
    InvalidFamilyError,
    QuadratureGrid,
    cauchy_integral_quadrature,
    cauchy_transform,
    evaluate_exterior,
    evaluate_interior,
    fourier_synthesize,
    hardy_projections,
    interior_node_values,
    jump_residual,
    koethe_pairing,
    l2_pairing,
    pairing_quadrature,
    pairing_tail_certificate,
    sobolev_norm,
    trace_exterior,
    trace_interior,
    verify_duality_isomorphism,
    verify_scale_pairing,
)
from diskdual.cli import run as cli_run

CIRCLE = CurveDescriptor.circle()


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} PASS {name}")


def _random_coeffs(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _sample_points(rng, count, r_lo, r_hi):
    radii = rng.uniform(r_lo, r_hi, count)
    angles = rng.uniform(0.0, 2 * np.pi, count)
    return radii * np.exp(1j * angles)


# ------------------------------------------------------------------ 1


def test_criterion_1_cauchy_reproduction_interior():
    """Quadrature Cauchy integral (M=256) reproduces interior series values to
    1e-10 and vanishes at exterior points, for 100 seeded random interior
    functions of degree <= 32, at 20 points per side with dist > 0.05."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024_01)
    grid = QuadratureGrid(256)
    worst_inside = 0.0
    worst_outside = 0.0
    for _ in range(100):
        degree = int(rng.integers(0, 33))
        u = InteriorFunction(_random_coeffs(rng, degree + 1))
        nodes = fourier_synthesize(trace_interior(u), grid.m)
        inside = _sample_points(rng, 20, 0.0, 0.7)    # dist to the circle >= 0.3 > 0.05
        outside = _sample_points(rng, 20, 1.35, 3.0)  # dist >= 0.35 > 0.05
        for z in inside:
            quad = cauchy_integral_quadrature(nodes, CIRCLE, grid, z)
            worst_inside = max(worst_inside, abs(quad - evaluate_interior(u, z)))
        for z in outside:
            quad = cauchy_integral_quadrature(nodes, CIRCLE, grid, z)
            worst_outside = max(worst_outside, abs(quad))
    elapsed = time.perf_counter() - start
    assert worst_inside <= 1e-10, worst_inside
    assert worst_outside <= 1e-10, worst_outside
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s"
    _report(1, f"cauchy reproduction (max interior err {worst_inside:.2e}, "
               f"exterior {worst_outside:.2e}, {elapsed:.2f}s)")


# ------------------------------------------------------------------ 2


def test_criterion_2_cauchy_reproduction_exterior():
    """Same protocol with exterior functions and the sign flip: -K reproduces
    the series outside to 1e-10 and K vanishes inside."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024_02)
    grid = QuadratureGrid(256)
    worst_outside = 0.0
    worst_inside = 0.0
    for _ in range(100):
        order = int(rng.integers(1, 33))
        v = ExteriorFunction(_random_coeffs(rng, order))
        nodes = fourier_synthesize(trace_exterior(v), grid.m)
        inside = _sample_points(rng, 20, 0.0, 0.7)
        outside = _sample_points(rng, 20, 1.35, 3.0)
        for z in outside:
            quad = cauchy_integral_quadrature(nodes, CIRCLE, grid, z)
            worst_outside = max(worst_outside, abs(-quad - evaluate_exterior(v, z)))
        for z in inside:
            quad = cauchy_integral_quadrature(nodes, CIRCLE, grid, z)
            worst_inside = max(worst_inside, abs(quad))
    elapsed = time.perf_counter() - start
    assert worst_outside <= 1e-10, worst_outside
    assert worst_inside <= 1e-10, worst_inside
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s"
    _report(2, f"exterior reproduction (max err {worst_outside:.2e}, "
               f"interior leak {worst_inside:.2e}, {elapsed:.2f}s)")


# ------------------------------------------------------------------ 3


def test_criterion_3_weak_jump():
    """jump_residual is exactly zero on spectral data; quadrature one-sided
    limits at r = 1 +/- 2^-k, k = 3..8, converge to the synthesized boundary
    value (observed order ~ 1 in the offset), and the quadrature itself is
    spectrally accurate (log-error slope > 4 in M)."""
    rng = np.random.default_rng(2024_03)

    # (a) exact spectral identity
    for _ in range(50):
        f = BoundaryDistribution(-10, _random_coeffs(rng, 21))
        assert jump_residual(f) == 0.0

    # (b) one-sided quadrature limits across the circle
    span = 16
    n_idx = np.arange(-span, span + 1)
    coeffs = _random_coeffs(rng, n_idx.size) * 0.5 ** np.abs(n_idx)
    f = BoundaryDistribution(-span, coeffs)
    z0 = np.exp(1j * 0.73)
    f_at_z0 = complex(np.sum(coeffs * z0 ** n_idx.astype(float)))
    errors = []
    for k in range(3, 9):
        eps = 2.0 ** -k
        grid = QuadratureGrid(2 ** (k + 7))
        nodes = fourier_synthesize(f, grid.m)
        inner = cauchy_integral_quadrature(nodes, CIRCLE, grid, (1 - eps) * z0)
        outer = cauchy_integral_quadrature(nodes, CIRCLE, grid, (1 + eps) * z0)
        errors.append(abs((inner - outer) - f_at_z0))
    errors = np.asarray(errors)
    assert np.all(np.diff(errors) < 0), errors           # monotone convergence
    order = -np.polyfit(np.arange(3, 9) * np.log(2.0), np.log(errors), 1)[0]
    assert 0.7 < order < 1.3, order                      # first order in the offset
    assert errors[-1] < 1e-2 * max(1.0, abs(f_at_z0)), errors[-1]

    # (c) spectral accuracy of the quadrature near the limit points:
    # non-band-limited trace of 1/(zeta - p), |p| > 1; truth is its value
    pole = 1.15
    z_eval = 0.3 + 0.0j
    truth = 1.0 / (z_eval - pole)
    quad_errors = []
    for m in (128, 256, 512):
        grid = QuadratureGrid(m)
        nodes = 1.0 / (CIRCLE.point(grid.nodes) - pole)
        quad_errors.append(abs(cauchy_integral_quadrature(nodes, CIRCLE, grid, z_eval) - truth))
    slope = -np.polyfit(np.log([128, 256, 512]), np.log(quad_errors), 1)[0]
    assert slope > 4.0, (slope, quad_errors)
    _report(3, f"weak jump (limit order {order:.2f}, quadrature slope {slope:.1f})")


# ------------------------------------------------------------------ 4


def test_criterion_4_duality_suite():
    """For s in {-3,-1,0,1,2}, 100 trials at truncation 32: injectivity round
    trip exact to 1e-13, surjectivity identity to 1e-12, dual-norm ratios
    within the sharp (5/2)^(+/-|s-1/2|/2) window with no violations, and
    brute-force norms within 1e-6 of the closed form.  Runtime < 10 s."""
    start = time.perf_counter()
    for s in (-3, -1, 0, 1, 2):
        report = verify_duality_isomorphism(s, trials=100, degree_cap=32, seed=7)
        assert report.passed, report.to_doc()
        by_name = {c.name: c for c in report.checks}
        assert by_name["injectivity roundtrip max coefficient error"].bound == 1e-13
        assert by_name["surjectivity identity max error"].bound == 1e-12
        assert by_name["bruteforce vs closed-form norm"].bound == 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s"
    _report(4, f"duality isomorphism suite ({elapsed:.2f}s)")


# ------------------------------------------------------------------ 5


def test_criterion_5_pairing_estimates():
    """10^4 random pairs: Cauchy-Schwarz with constant exactly 1 for the
    sesquilinear pairing and the sharp shift constant (5/2)^(|sp|/2) for the
    bilinear pairing, zero violations at 1e-12 slack."""
    rng = np.random.default_rng(2024_05)
    pairs = 10_000
    span = 24
    n_two_sided = np.arange(-span, span + 1, dtype=float)
    w_abs = np.abs(n_two_sided)

    f_mat = rng.standard_normal((pairs, n_two_sided.size)) + 1j * rng.standard_normal((pairs, n_two_sided.size))
    g_mat = rng.standard_normal((pairs, n_two_sided.size)) + 1j * rng.standard_normal((pairs, n_two_sided.size))
    sp = rng.uniform(-3.0, 3.0, pairs)
    weights = (1.0 + n_two_sided ** 2)[None, :] ** sp[:, None]
    lhs = np.abs(np.sum(f_mat * np.conj(g_mat), axis=1))
    rhs = (
        np.sqrt(np.sum(weights * np.abs(f_mat) ** 2, axis=1))
        * np.sqrt(np.sum(np.abs(g_mat) ** 2 / weights, axis=1))
    )
    violations_l2 = int(np.sum(lhs > rhs * (1 + 1e-12)))

    # bilinear: interior support n = 0..span-1 against exterior m = 1..span
    n_int = np.arange(span, dtype=float)
    a_mat = rng.standard_normal((pairs, span)) + 1j * rng.standard_normal((pairs, span))
    b_mat = rng.standard_normal((pairs, span)) + 1j * rng.standard_normal((pairs, span))
    sp2 = rng.uniform(-3.0, 3.0, pairs)
    kappa = np.abs(np.sum(a_mat * b_mat, axis=1))
    w_int = (1.0 + n_int ** 2)[None, :] ** sp2[:, None]
    m_ext = np.arange(1, span + 1, dtype=float)
    w_ext = (1.0 + m_ext ** 2)[None, :] ** (-sp2[:, None])
    bound = (
        2.5 ** (np.abs(sp2) / 2)
        * np.sqrt(np.sum(w_int * np.abs(a_mat) ** 2, axis=1))
        * np.sqrt(np.sum(w_ext * np.abs(b_mat) ** 2, axis=1))
    )
    violations_k = int(np.sum(kappa > bound * (1 + 1e-12)))

    assert violations_l2 == 0
    assert violations_k == 0
    _report(5, f"pairing estimates ({pairs} pairs each, 0 violations)")


# ------------------------------------------------------------------ 6


def test_criterion_6_orthogonality_of_interior_traces():
    """kappa(interior trace, interior trace) = 0 exactly in the spectral
    representation and below 1e-11 by quadrature on the circle and ellipse."""
    rng = np.random.default_rng(2024_06)
    ellipse = CurveDescriptor.ellipse(1.5, 0.7)
    worst = 0.0
    for _ in range(25):
        u = InteriorFunction(_random_coeffs(rng, int(rng.integers(1, 12))))
        w = InteriorFunction(_random_coeffs(rng, int(rng.integers(1, 12))))
        assert koethe_pairing(trace_interior(u), trace_interior(w)) == 0j
        for curve, m in ((CIRCLE, 64), (ellipse, 128)):
            grid = QuadratureGrid(m)
            quad = pairing_quadrature(
                interior_node_values(u, curve, grid),
                interior_node_values(w, curve, grid),
                curve,
                grid,
            )
            worst = max(worst, abs(quad))
    assert worst < 1e-11, worst
    _report(6, f"orthogonality of interior traces (max quadrature leak {worst:.2e})")


# ------------------------------------------------------------------ 7


def test_criterion_7_growth_scale():
    """At truncation 4096 the order-1 family lands at s_min = -1 and the
    order-2 family at -2; fitted pointwise exponents are within 0.05 of the
    true order; s_min equals the largest integer strictly below 1 - gamma.
    Runtime < 10 s."""
    from diskdual import GrowthFamilySpec, estimate_min_sobolev, growth_family_coeffs, pointwise_growth_exponent

    start = time.perf_counter()
    radii = 1 - 2.0 ** -np.arange(2, 8)

    def strictly_below(x: float) -> int:
        import math
        floor = math.floor(x)
        return floor - 1 if floor == x else floor

    for gamma, want in ((1.0, -1), (2.0, -2)):
        u = growth_family_coeffs(GrowthFamilySpec(1.0, gamma, 4096))
        est = estimate_min_sobolev(u, range(-4, 4))
        assert est.s_min == want and est.flag == "ok", est
        fit = pointwise_growth_exponent(u, 1.0, radii)
        assert abs(fit.gamma_fitted - gamma) <= 0.05, fit
        assert not fit.truncation_warning
        assert est.s_min == strictly_below(1.0 - gamma)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s"
    _report(7, f"growth and scale placement ({elapsed:.2f}s)")


# ------------------------------------------------------------------ 8


def test_criterion_8_scale_pairing_roles():
    """The finite-order/smooth pairing certificate passes in both role
    assignments at truncation 64 with relative truncation remainder below
    1e-10, and the divergent polynomial-against-polynomial configuration is
    rejected."""
    for direction in ("interior-finite-order", "exterior-finite-order"):
        report = verify_scale_pairing(direction, 64, seed=11)
        assert report.passed, report.to_doc()
        remainder = next(c for c in report.checks if "remainder" in c.name)
        assert remainder.value < 1e-10 and remainder.bound == 1e-10

    # the pinned closed-form family also certifies at truncation 64
    n = np.arange(64, dtype=float)
    cert = pairing_tail_certificate(
        n + 1.0, 2.0 ** -np.arange(1, 66, dtype=float), smooth_side="exterior"
    )
    assert cert.relative_remainder < 1e-10
    assert cert.total == pytest.approx(2.0, rel=1e-14)

    with pytest.raises(InvalidFamilyError):
        pairing_tail_certificate(n + 1.0, (n + 1.0) ** 2, smooth_side="exterior")
    _report(8, "scale pairing in both roles, divergent configuration rejected")


# ------------------------------------------------------------------ 9


def test_criterion_9_cli_determinism(tmp_path):
    """Repeated CLI runs with fixed seeds produce byte-identical reports."""
    commands = [
        ["verify", "--suite", "duality", "--s", "0", "--trials", "25", "--N", "16", "--seed", "7"],
        ["verify", "--suite", "scale", "--N", "64", "--seed", "3",
         "--direction", "exterior-finite-order"],
        ["gen", "--random", "boundary", "--N", "8", "--seed", "5"],
        ["growth", "--gamma", "2.0", "--z0", "1,0", "--N", "512", "--s-grid=-4:3"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_run(argv)
            assert code == 0
            outputs.append(buf.getvalue().encode())
        assert outputs[0] == outputs[1], argv
    _report(9, "CLI determinism (byte-identical reports)")
