"""Hardy split, Cauchy transform, traces, jump identity, evaluation."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from diskdual import (
    BOUNDARY_EVALUATION_THRESHOLD,
    BoundaryDistribution,
    BoundaryProximityError,
    CurveDescriptor,
    EvaluationDomainError,
    ExteriorFunction,
    InteriorFunction,
    QuadratureGrid,
    boundary_trace,
    cauchy_integral_quadrature,
    cauchy_transform,
    evaluate_exterior,
    evaluate_interior,
    fourier_analyze,
    fourier_synthesize,
    hardy_projections,
    jump_residual,
    koethe_pairing,
    sobolev_norm,
    trace_exterior,
    trace_interior,
)
from diskdual import hardy, spectral


# ---------------------------------------------------------------- traces


def test_boundary_trace_dispatches_on_the_container():
    f = BoundaryDistribution.from_modes({-2: 1.0, 3: 2.0})
    assert boundary_trace(f) is f
    u, v, zero = InteriorFunction([1.0, 2.0]), ExteriorFunction([3.0, 4.0j]), ExteriorFunction([])
    for got, want in ((boundary_trace(u), trace_interior(u)), (boundary_trace(v), trace_exterior(v)),
                      (boundary_trace(zero), trace_exterior(zero))):
        assert got.n_min == want.n_min
        np.testing.assert_array_equal(got.coeffs, want.coeffs)
    with pytest.raises(TypeError):
        boundary_trace(np.ones(3))


def test_trace_interior_examples():
    t = trace_interior(InteriorFunction([1.0, 1.0]))
    assert t.coefficient(0) == 1.0 and t.coefficient(1) == 1.0
    assert t.coefficient(-1) == 0j
    assert trace_interior(InteriorFunction([0.0])).is_zero()


def test_trace_exterior_examples():
    assert trace_exterior(ExteriorFunction([1.0])).coefficient(-1) == 1.0
    assert trace_exterior(ExteriorFunction([0.0, 2.0])).coefficient(-2) == 2.0
    assert trace_exterior(ExteriorFunction(np.zeros(0))).is_zero()


def test_trace_norm_equals_direct_weighted_sum():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    u = InteriorFunction(a, index=1.0)
    n = np.arange(6, dtype=float)
    direct = np.sqrt(np.sum((1 + n * n) ** (u.index - 0.5) * np.abs(a) ** 2))
    assert sobolev_norm(trace_interior(u), u.index - 0.5) == pytest.approx(direct, rel=1e-15)


# ---------------------------------------------------------------- transform


def test_cauchy_transform_reproduces_interior_value():
    f = BoundaryDistribution.from_modes({0: 1.0, 1: 1.0})
    assert cauchy_transform(f, 0.5) == pytest.approx(1.5)
    assert cauchy_transform(f, 2.0) == 0j


def test_cauchy_transform_exterior_branch():
    f = BoundaryDistribution.from_modes({-1: 1.0})
    assert cauchy_transform(f, 2.0) == pytest.approx(-0.5)
    assert -cauchy_transform(f, 2.0) == pytest.approx(evaluate_exterior(ExteriorFunction([1.0]), 2.0))


def test_cauchy_transform_refuses_near_circle_and_names_threshold():
    f = BoundaryDistribution.from_modes({0: 1.0})
    with pytest.raises(BoundaryProximityError, match="1e-09"):
        cauchy_transform(f, 1.0 + 1e-12)
    assert BOUNDARY_EVALUATION_THRESHOLD == 1e-9


def test_reproduction_identity_is_coefficient_exact():
    rng = np.random.default_rng(4)
    for _ in range(20):
        u = InteriorFunction(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        z = 0.8 * (rng.standard_normal() + 1j * rng.standard_normal()) / 2
        if abs(z) >= 1 - 1e-9:
            continue
        assert cauchy_transform(trace_interior(u), z) == evaluate_interior(u, z)
        assert cauchy_transform(trace_interior(u), 1.5 + 0.2j) == 0j


def test_exterior_reproduction_identity():
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = ExteriorFunction(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        z = 1.5 + rng.random() * 2 + 1j * rng.standard_normal()
        assert -cauchy_transform(trace_exterior(v), z) == evaluate_exterior(v, z)
        assert cauchy_transform(trace_exterior(v), 0.4j) == 0j


# ---------------------------------------------------------------- projections


def test_hardy_projection_frequency_split():
    f = BoundaryDistribution.from_modes({-1: 1.0, 0: 5.0, 1: 1.0})
    u, v_plus = hardy_projections(f)
    np.testing.assert_array_equal(u.coeffs, [5.0, 1.0])
    np.testing.assert_array_equal(v_plus.coeffs, [-1.0])


def test_hardy_projection_interior_data_has_no_exterior_part():
    f = BoundaryDistribution.from_modes({0: 2.0, 3: 1.0})
    _, v_plus = hardy_projections(f)
    assert v_plus.coeffs.size == 0


def test_hardy_projection_matches_quadrature_cauchy_integral():
    rng = np.random.default_rng(21)
    coeffs = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    f = BoundaryDistribution(-8, coeffs)
    u, _ = hardy_projections(f)
    curve = CurveDescriptor.circle()
    grid = QuadratureGrid(128)
    vals = fourier_synthesize(f, grid.m)
    quad = cauchy_integral_quadrature(vals, curve, grid, 0.3)
    assert abs(quad - evaluate_interior(u, 0.3)) < 1e-10


def test_projections_are_complementary_idempotents():
    rng = np.random.default_rng(30)
    u = InteriorFunction(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    ui, vi = hardy_projections(trace_interior(u))
    np.testing.assert_array_equal(ui.coeffs, u.coeffs)
    assert vi.coeffs.size == 0
    v = ExteriorFunction(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    ue, ve = hardy_projections(trace_exterior(v))
    assert not np.any(ue.coeffs)
    # the exterior restriction of the transform of an exterior trace is -v
    np.testing.assert_array_equal(ve.coeffs, -v.coeffs)


def test_projection_index_bookkeeping():
    f = BoundaryDistribution.from_modes({-1: 1.0})
    u, v_plus = hardy_projections(f, boundary_index=0.5 - 2)  # data for scale s = 2
    assert u.index == v_plus.index == 1 - 2


# ---------------------------------------------------------------- jump


def test_jump_residual_is_exactly_zero_on_spectral_data():
    assert jump_residual(BoundaryDistribution.from_modes({-1: 1.0, 0: 5.0, 1: 1.0})) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(20):
        f = BoundaryDistribution(-6, rng.standard_normal(13) + 1j * rng.standard_normal(13))
        assert jump_residual(f) == 0.0


def _union_residual(f):
    """The residual as the containers' zero-padded union: u|bd - v_plus|bd - f, then its L2 norm."""
    u, v_plus = hardy.hardy_projections(f)
    return sobolev_norm(trace_interior(u) - trace_exterior(v_plus) - f, 0.0)


# windows wholly below 0, wholly above it, single coefficients on either side,
# and huge and tiny data that a squared sum would take out of the float range
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_min, coeffs", [
    (-7, [1.0, -2j, 3.0, 0.0, -0.0, 4 + 1j, 5.0]),
    (-1, [complex(-0.0, -0.0)]),
    (2, [1.0, 2.0, -3j]),
    (0, [1.0, 2.0]),
    (5, [1e300j]),
    (-3, [1e-310]),
    (0, [-1.5]),
    (-4, [1e300, -1e300, 1e-300, 7.0, 1e300 + 1e300j, -2.0]),
])
def test_jump_residual_on_edge_windows(n_min, coeffs):
    f = BoundaryDistribution(n_min, coeffs)
    assert jump_residual(f) == _union_residual(f) == 0.0


@pytest.mark.parametrize("side", ["interior", "exterior", "dropped exterior"])
def test_jump_residual_sees_a_wrong_split(monkeypatch, side):
    f = BoundaryDistribution(-5, np.arange(1.0, 12.0) * (1 - 1j))
    exact = hardy.hardy_projections

    def wrong(g, boundary_index=-0.5):
        u, v_plus = exact(g, boundary_index)
        if side == "interior":
            return InteriorFunction(u.coeffs + np.eye(u.coeffs.size)[2] * 1e-3), v_plus
        if side == "exterior":
            return u, ExteriorFunction(v_plus.coeffs * (1 + 1e-12))
        return u, ExteriorFunction([])

    monkeypatch.setattr(hardy, "hardy_projections", wrong)
    residual = jump_residual(f)
    assert residual > 0
    assert residual == pytest.approx(_union_residual(f), rel=1e-15)


@settings(deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), index=st.floats(-400.0, 400.0, allow_nan=False),
       span=st.integers(1, 40))
def test_jump_identity_and_norm_split_on_the_whole_scale(seed, index, span):
    # u|bd - v_plus|bd = f exactly, and the two traces split ||f||^2 between
    # them; the norms leave the float range, so they are compared as log2
    rng = np.random.default_rng(seed)
    f = BoundaryDistribution(-span, (rng.standard_normal(2 * span + 1) + 1j * rng.standard_normal(
        2 * span + 1)) * 10.0 ** rng.integers(-3, 4, 2 * span + 1))
    u, v_plus = hardy_projections(f, boundary_index=index)
    assert u.index == v_plus.index == index + 0.5
    residual = trace_interior(u) - trace_exterior(v_plus) - f
    assert residual.is_zero() and sobolev_norm(residual, index) == 0.0

    def log2_norm(g):
        (root, k), = spectral._norm_parts(np.abs(g.coeffs), g.n_min, (index,))
        return math.log2(root) + k

    assert 2 * log2_norm(f) == pytest.approx(
        np.logaddexp2(2 * log2_norm(trace_interior(u)), 2 * log2_norm(trace_exterior(v_plus))),
        rel=1e-13, abs=1e-12)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_jump_residual_memory_is_one_side_at_a_time(monkeypatch):
    # Besides the split's negated half the residual holds one side buffer and
    # what one norm of a side takes: its magnitudes and, on one CPU, one
    # leaf-sized buffer of scaled squares, reused leaf after leaf.
    monkeypatch.setattr(spectral, "_cpus", lambda: 1)
    m = 2 ** 18
    rng = np.random.default_rng(5)
    f = BoundaryDistribution(-m // 2, rng.standard_normal(m) + 1j * rng.standard_normal(m))
    jump_residual(f)
    peak = _traced_peak(lambda: jump_residual(f))
    half, magnitudes = 16 * (m // 2), 8 * (m // 2)
    assert peak <= half + half + magnitudes + 2 ** 20, (peak - magnitudes) / half


def test_jump_residual_on_analyzed_smooth_samples():
    th = 2 * np.pi * np.arange(64) / 64
    samples = np.exp(np.cos(th)) * np.sin(3 * th) + 1j * np.cos(2 * th)
    assert jump_residual(fourier_analyze(samples)) < 1e-12


# ---------------------------------------------------------------- evaluation


def test_evaluate_interior_example():
    assert evaluate_interior(InteriorFunction([1.0, 2.0]), 0.5) == pytest.approx(2.0)


def test_evaluate_exterior_examples():
    assert evaluate_exterior(ExteriorFunction([1.0]), 2.0) == pytest.approx(0.5)
    # 3/z + 4/z^2 at 2i: 3/(2i) + 4/(-4) = -1 - 1.5i
    v = ExteriorFunction([3.0, 4.0])
    oracle = 3.0 / 2.0j + 4.0 / (2.0j) ** 2
    assert evaluate_exterior(v, 2.0j) == pytest.approx(oracle)
    assert oracle == pytest.approx(-1.0 - 1.5j)


def test_evaluation_domain_errors():
    with pytest.raises(EvaluationDomainError):
        evaluate_interior(InteriorFunction([1.0]), 1.0)
    with pytest.raises(EvaluationDomainError):
        evaluate_exterior(ExteriorFunction([1.0]), 0.5)


def test_exterior_values_vanish_at_infinity():
    v = ExteriorFunction([3.0, 4.0])
    assert abs(evaluate_exterior(v, 1e8)) < 1e-7


# ---------------------------------------------------------------- series evaluation
#
# Horner's rule (numpy's polyval) is the reference.  Both it and the blocked
# evaluator err by O(size) roundings per term in the worst case, so they are
# compared relative to sum |c_n| |z|^n, never to the (possibly cancelled) value.

_B = hardy._SERIES_BLOCK


def _coefficients(size, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-8, 9, size)
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * scale


def _assert_matches_polyval(value, c, z):
    bound = 4 * (c.size + _B) * np.finfo(float).eps * np.sum(np.abs(c) * abs(z) ** np.arange(c.size))
    assert abs(value - npoly.polyval(z, c)) <= bound


@settings(deadline=None)
@given(
    size=st.integers(1, 3 * _B + 7),
    seed=st.integers(0, 2 ** 32 - 1),
    radius=st.floats(0.0, 1.0 - 1e-6),
    angle=st.floats(-np.pi, np.pi),
)
@example(size=1, seed=1, radius=0.5, angle=0.3)
@example(size=_B - 1, seed=2, radius=1.0 - 1e-6, angle=0.3)
@example(size=_B, seed=3, radius=1.0 - 1e-6, angle=-2.0)
@example(size=_B + 1, seed=4, radius=0.99, angle=1.0)
@example(size=2 * _B, seed=5, radius=0.0, angle=0.0)
@example(size=3 * _B + 7, seed=6, radius=0.999, angle=3.0)
def test_series_matches_polyval(size, seed, radius, angle):
    c = _coefficients(size, seed)
    z = radius * cmath.exp(1j * angle)
    _assert_matches_polyval(evaluate_interior(InteriorFunction(c), z), c, z)


def test_evaluate_interior_at_a_million_terms():
    c = _coefficients(2 ** 20, 5)
    z = (1.0 - 1e-6) * cmath.exp(-0.4j)
    _assert_matches_polyval(evaluate_interior(InteriorFunction(c), z), c, z)


def test_evaluate_exterior_matches_polyval_across_block_sizes():
    b = _coefficients(_B + 1, 6)
    z = (1.0 + 1e-6) * cmath.exp(2.0j)
    w = 1.0 / z
    _assert_matches_polyval(evaluate_exterior(ExteriorFunction(b), z) / w, b, w)


def test_cauchy_transform_branches_match_polyval():
    c = _coefficients(3 * _B + 6, 7)
    f = BoundaryDistribution(-(_B + 1), c)   # modes -(B + 1) .. 2B + 4
    upper, lower = c[_B + 1:], c[:_B + 1][::-1]   # c_0, c_1, ... and c_{-1}, c_{-2}, ...
    z = 0.999 * cmath.exp(1.1j)
    _assert_matches_polyval(cauchy_transform(f, z), upper, z)
    z = 1.001 * cmath.exp(-2.5j)
    w = 1.0 / z
    _assert_matches_polyval(-cauchy_transform(f, z) / w, lower, w)


# ---------------------------------------------------------------- orthogonality


def test_interior_traces_pair_to_zero():
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = InteriorFunction(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        w = InteriorFunction(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        assert koethe_pairing(trace_interior(u), trace_interior(w)) == 0j


# ---------------------------------------------------------------- validation at the edge


def test_public_constructors_copy_the_callers_array():
    a = np.array([1.0, 2.0], dtype=complex)
    u, v = InteriorFunction(a), ExteriorFunction(a)
    a[:] = 7.0
    assert np.array_equal(u.coeffs, [1.0, 2.0]) and np.array_equal(v.coeffs, [1.0, 2.0])


def test_traces_and_split_are_read_only_and_contiguous():
    rng = np.random.default_rng(5)
    u = InteriorFunction(rng.standard_normal(9) + 1j)
    v = ExteriorFunction(rng.standard_normal(6) - 1j)
    f = BoundaryDistribution(-6, rng.standard_normal(16) + 0.5j)
    containers = [trace_interior(u), trace_exterior(v), trace_exterior(ExteriorFunction([]))]
    containers += hardy_projections(f)
    containers += hardy_projections(BoundaryDistribution(2, [1.0, 2.0]))
    containers += hardy_projections(BoundaryDistribution(-3, [1.0, 2.0]))
    for c in containers:
        assert not c.coeffs.flags.writeable
        assert c.coeffs.flags.c_contiguous
        assert c.coeffs.dtype == complex
    # the split's values are the frequency windows of f, exterior side reversed and negated
    inner, outer = hardy_projections(f)
    assert np.array_equal(inner.coeffs, f.coeffs[6:])
    assert np.array_equal(outer.coeffs, -f.coeffs[:6][::-1])
    assert np.array_equal(trace_exterior(v).coeffs, v.coeffs[::-1])


def test_split_refuses_a_non_finite_index():
    with pytest.raises(ValueError, match="finite"):
        hardy_projections(BoundaryDistribution(0, [1.0]), boundary_index=float("inf"))
