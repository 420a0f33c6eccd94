"""Coefficient algebra: transforms, norms, pairings, and their estimates."""

import cmath
import hashlib
import inspect
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskdual import (
    AliasingError,
    BoundaryDistribution,
    CurveDescriptor,
    InvalidDataError,
    InvalidGridError,
    QuadratureGrid,
    boundary_node_values,
    fourier_analyze,
    fourier_synthesize,
    hardy_projections,
    jump_residual,
    koethe_pairing,
    l2_pairing,
    pad_or_truncate,
    pairing_quadrature,
    sobolev_norm,
    trace_exterior,
    trace_interior,
)
from diskdual import spectral


def _grid(m):
    return 2 * np.pi * np.arange(m) / m


def _analyze_direct(samples):
    """Independent analysis oracle: plain double loop over the defining sum."""
    m = len(samples)
    out = {}
    for n in range(-m // 2 + 1, m // 2 + 1):
        acc = 0j
        for j, s in enumerate(samples):
            acc += s * np.exp(-1j * n * 2 * np.pi * j / m)
        out[n] = acc / m
    return out


# ---------------------------------------------------------------- analysis


def test_analyze_single_mode():
    f = fourier_analyze(np.exp(1j * _grid(8)))
    assert abs(f.coefficient(1) - 1.0) < 1e-14
    for n in f.frequencies:
        if n != 1:
            assert abs(f.coefficient(n)) < 1e-14


def test_analyze_constant():
    f = fourier_analyze(3.0 * np.ones(4))
    assert abs(f.coefficient(0) - 3.0) < 1e-15
    assert abs(f.coefficient(1)) < 1e-15


def test_analyze_two_modes_matches_direct_summation():
    th = _grid(16)
    samples = np.exp(1j * th) + 2 * np.exp(-2j * th)
    f = fourier_analyze(samples)
    oracle = _analyze_direct(samples)
    for n, c in oracle.items():
        assert abs(f.coefficient(n) - c) < 1e-14
    assert abs(f.coefficient(1) - 1.0) < 1e-14
    assert abs(f.coefficient(-2) - 2.0) < 1e-14
    others = [f.coefficient(n) for n in f.frequencies if n not in (1, -2)]
    assert max(abs(c) for c in others) < 1e-14


def test_analyze_rejects_bad_grids():
    with pytest.raises(InvalidGridError):
        fourier_analyze(np.ones(7))
    with pytest.raises(InvalidGridError):
        fourier_analyze(np.ones(1))


def test_analyze_rejects_nonfinite_samples():
    samples = np.ones(8, dtype=complex)
    samples[3] = np.nan
    with pytest.raises(InvalidDataError):
        fourier_analyze(samples)


# ---------------------------------------------------------------- synthesis


def test_synthesize_constant():
    f = BoundaryDistribution.from_modes({0: 1.0})
    np.testing.assert_allclose(fourier_synthesize(f, 6), np.ones(6), atol=1e-15)


def test_synthesize_unit_mode_values():
    f = BoundaryDistribution.from_modes({1: 1.0})
    np.testing.assert_allclose(
        fourier_synthesize(f, 4), [1, 1j, -1, -1j], atol=1e-15
    )


def test_synthesize_aliasing_guard():
    f = BoundaryDistribution.from_modes({-3: 1.0})
    with pytest.raises(AliasingError):
        fourier_synthesize(f, 6)
    fourier_synthesize(f, 8)  # tight but legal


def test_synthesis_of_a_stored_window_wider_than_the_grid_looks_at_its_nonzeros():
    # the stored window [-40, 40] needs M >= 82; its nonzeros decide the grid
    core = BoundaryDistribution(-3, [0, 1, 2, 3, 4, 5, 0])
    padded = pad_or_truncate(core, -40, 40)
    for m in (6, 8, 12):
        assert fourier_synthesize(padded, m).tobytes() == fourier_synthesize(core, m).tobytes()
    stray = BoundaryDistribution.from_modes({-2: 1.0, 2: 1.0, 5: 1e-300})
    with pytest.raises(AliasingError, match="need M >= 12"):
        fourier_synthesize(pad_or_truncate(stray, -40, 40), 8)


def test_round_trip_on_band_limited_data():
    rng = np.random.default_rng(42)
    for _ in range(20):
        coeffs = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        f = BoundaryDistribution(-5, coeffs)
        back = fourier_analyze(fourier_synthesize(f, 16))
        for n in f.frequencies:
            assert abs(back.coefficient(n) - f.coefficient(n)) <= 1e-13 * max(
                1.0, abs(f.coefficient(n))
            )


def test_analyze_after_synthesize_identity_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        span = int(rng.integers(0, 6))
        coeffs = rng.standard_normal(2 * span + 1) + 1j * rng.standard_normal(2 * span + 1)
        f = BoundaryDistribution(-span, coeffs)
        m = int(rng.integers(2 * span + 2, 40))
        m += m % 2
        back = fourier_analyze(fourier_synthesize(f, m))
        err = max(abs(back.coefficient(n) - f.coefficient(n)) for n in range(-span, span + 1))
        assert err <= 1e-13 * max(1.0, float(np.max(np.abs(coeffs))))


# ---------------------------------------------------------------- norms


def test_sobolev_norm_constant_is_index_free():
    f = BoundaryDistribution.from_modes({0: 3.0})
    for s in (-2.0, 0.0, 0.5, 3.0):
        assert sobolev_norm(f, s) == pytest.approx(3.0, abs=1e-15)


def test_sobolev_norm_weights():
    assert sobolev_norm(BoundaryDistribution.from_modes({1: 1.0}), 1.0) == pytest.approx(
        np.sqrt(2.0), rel=1e-15
    )
    assert sobolev_norm(BoundaryDistribution.from_modes({2: 1.0}), -1.0) == pytest.approx(
        5.0 ** -0.5, rel=1e-12
    )


def test_sobolev_norm_zero_iff_zero():
    rng = np.random.default_rng(3)
    f = BoundaryDistribution(-4, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    assert sobolev_norm(f, 0.3) > 0
    assert sobolev_norm(BoundaryDistribution.zero(), 0.3) == 0.0


# ---------------------------------------------------------------- pairings


def test_l2_pairing_examples():
    e1 = BoundaryDistribution.from_modes({1: 1.0})
    em1 = BoundaryDistribution.from_modes({-1: 1.0})
    assert l2_pairing(e1, e1) == pytest.approx(1.0)
    assert l2_pairing(e1, em1) == 0j
    f = BoundaryDistribution.from_modes({0: 2.0, 1: 1j})
    g = BoundaryDistribution.from_modes({0: 1.0, 1: 1.0})
    assert l2_pairing(f, g) == pytest.approx(2.0 + 1j)


def test_koethe_pairing_examples():
    one = BoundaryDistribution.from_modes({0: 1.0})
    z = BoundaryDistribution.from_modes({1: 1.0})
    inv_z = BoundaryDistribution.from_modes({-1: 1.0})
    assert koethe_pairing(one, inv_z) == pytest.approx(1.0)
    assert koethe_pairing(z, inv_z) == 0j


def test_koethe_pairing_matches_trapezoid_quadrature():
    # oracle: (1/(2 pi i)) contour integral of u v dzeta on the unit circle
    u = BoundaryDistribution.from_modes({0: 1.0, 1: 2.0})
    v = BoundaryDistribution.from_modes({-1: 3.0, -2: 4.0})
    curve = CurveDescriptor.circle()
    grid = QuadratureGrid(64)
    zeta = curve.point(grid.nodes)
    u_vals = 1.0 + 2.0 * zeta
    v_vals = 3.0 / zeta + 4.0 / zeta ** 2
    oracle = pairing_quadrature(u_vals, v_vals, curve, grid)
    assert oracle == pytest.approx(11.0, abs=1e-12)
    assert koethe_pairing(u, v) == pytest.approx(11.0, abs=1e-14)


def test_parseval_identity_exact():
    rng = np.random.default_rng(11)
    for _ in range(50):
        span = int(rng.integers(0, 8))
        f = BoundaryDistribution(
            -span, rng.standard_normal(2 * span + 1) + 1j * rng.standard_normal(2 * span + 1)
        )
        assert sobolev_norm(f, 0.0) ** 2 == pytest.approx(l2_pairing(f, f).real, rel=1e-14)
        assert abs(l2_pairing(f, f).imag) < 1e-14


def test_cauchy_schwarz_with_constant_one():
    rng = np.random.default_rng(5)
    for _ in range(200):
        sp = float(rng.uniform(-3, 3))
        f = BoundaryDistribution(-6, rng.standard_normal(13) + 1j * rng.standard_normal(13))
        g = BoundaryDistribution(-6, rng.standard_normal(13) + 1j * rng.standard_normal(13))
        lhs = abs(l2_pairing(f, g))
        rhs = sobolev_norm(f, sp) * sobolev_norm(g, -sp)
        assert lhs <= rhs * (1 + 1e-12)


def test_koethe_shift_estimate():
    # |kappa(f, g)| <= (5/2)^(|sp|/2) ||f||_sp ||g||_-sp for interior x exterior
    # supports; 5/2 = sup_n (1 + (n+1)^2)/(1 + n^2), attained at n = 1
    rng = np.random.default_rng(13)
    for _ in range(200):
        sp = float(rng.uniform(-3, 3))
        f = BoundaryDistribution(0, rng.standard_normal(9) + 1j * rng.standard_normal(9))
        g = BoundaryDistribution(-9, rng.standard_normal(9) + 1j * rng.standard_normal(9))
        lhs = abs(koethe_pairing(f, g))
        rhs = 2.5 ** (abs(sp) / 2) * sobolev_norm(f, sp) * sobolev_norm(g, -sp)
        assert lhs <= rhs * (1 + 1e-12)


def test_koethe_shift_constant_is_sharp():
    # witness: the z^1 mode against the z^-2 mode saturates (5/2)^(sp/2) and
    # already exceeds a 2^(sp/2) constant for every positive index
    f = BoundaryDistribution.from_modes({1: 1.0})
    g = BoundaryDistribution.from_modes({-2: 1.0})
    for sp in (0.5, 1.0, 3.0):
        lhs = abs(koethe_pairing(f, g))
        product = sobolev_norm(f, sp) * sobolev_norm(g, -sp)
        assert lhs == pytest.approx(2.5 ** (sp / 2) * product, rel=1e-12)
        assert lhs > 2.0 ** (sp / 2) * product * (1 + 1e-9)


def test_pairing_linearity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        f, g, h = (
            BoundaryDistribution(-3, rng.standard_normal(7) + 1j * rng.standard_normal(7))
            for _ in range(3)
        )
        al = complex(*rng.standard_normal(2))
        combined = f + BoundaryDistribution(g.n_min, al * g.coeffs)
        # kappa bilinear
        lhs = koethe_pairing(combined, h)
        rhs = koethe_pairing(f, h) + al * koethe_pairing(g, h)
        assert abs(lhs - rhs) < 1e-12
        assert abs(koethe_pairing(h, combined) - koethe_pairing(h, f) - al * koethe_pairing(h, g)) < 1e-12
        # <.,.> conjugate-linear in its second slot
        lhs = l2_pairing(h, combined)
        rhs = l2_pairing(h, f) + np.conj(al) * l2_pairing(h, g)
        assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------- windows


def test_pad_widens_without_changing_values():
    f = BoundaryDistribution.from_modes({1: 1.0})
    g = pad_or_truncate(f, -2, 2)
    assert (g.n_min, g.n_max) == (-2, 2)
    for n in range(-2, 3):
        assert g.coefficient(n) == f.coefficient(n)


def test_truncate_drops_outside_modes():
    f = BoundaryDistribution.from_modes({-3: 5.0})
    g = pad_or_truncate(f, -1, 1)
    assert g.is_zero()


def test_pad_then_truncate_is_identity_in_window():
    f = BoundaryDistribution.from_modes({-1: 2.0, 1: 3.0})
    g = pad_or_truncate(pad_or_truncate(f, -5, 5), -1, 1)
    np.testing.assert_array_equal(g.coeffs, f.coeffs)
    h = pad_or_truncate(g, -1, 1)
    np.testing.assert_array_equal(h.coeffs, g.coeffs)


def test_pad_rejects_empty_window():
    with pytest.raises(ValueError):
        pad_or_truncate(BoundaryDistribution.zero(), 2, 1)


def test_mismatched_supports_are_zero_padded_silently():
    far_left = BoundaryDistribution.from_modes({-40: 1.0})
    far_right = BoundaryDistribution.from_modes({40: 1.0})
    assert l2_pairing(far_left, far_right) == 0j
    assert koethe_pairing(far_right, far_right) == 0j
    assert koethe_pairing(far_right, BoundaryDistribution.from_modes({-41: 2.0})) == pytest.approx(2.0)


def test_sobolev_norm_rejects_nonfinite_index():
    with pytest.raises(InvalidDataError):
        sobolev_norm(BoundaryDistribution.zero(), float("inf"))


# ---------------------------------------------------------------- validation at the edge


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("compute", [
    lambda: BoundaryDistribution(0, [1e308]) + BoundaryDistribution(0, [1e308]),
    lambda: BoundaryDistribution(0, [1e308]) - BoundaryDistribution(0, [-1e308]),
    lambda: fourier_analyze(np.full(4, 1.7e308)),
], ids=["add", "sub", "analyze"])
def test_overflow_is_one_error_without_warnings(compute):
    with pytest.raises(InvalidDataError, match="non-finite"):
        compute()


_SPECIAL = (0.0, -0.0, 1.5, -1.5, 1e308, -1e308)
_ENTRY = st.one_of(st.sampled_from(_SPECIAL), st.floats(-4.0, 4.0))


@st.composite
def _window_pairs(draw):
    """Two windows (n_min, size) that are equal, nested, overlapping or disjoint."""
    kind = draw(st.sampled_from(["equal", "nested", "overlapping", "disjoint"]))
    lo, size = draw(st.integers(-6, 6)), draw(st.integers(1, 8))
    if kind == "equal":
        other = (lo, size)
    elif kind == "nested":
        start = draw(st.integers(lo, lo + size - 1))
        other = (start, draw(st.integers(1, lo + size - start)))
    elif kind == "overlapping":
        start = draw(st.integers(lo + 1, lo + size)) if size > 1 else lo
        other = (start, lo + size - start + draw(st.integers(1, 4)))
    else:
        other = (lo + size + draw(st.integers(0, 3)), draw(st.integers(1, 8)))
    pair = [(lo, size), other]
    return pair[::-1] if draw(st.booleans()) else pair


def _container(draw, n_min, size):
    coeffs = np.empty(size, dtype=complex)
    coeffs.real = draw(st.lists(_ENTRY, min_size=size, max_size=size))
    coeffs.imag = draw(st.lists(_ENTRY, min_size=size, max_size=size))
    return BoundaryDistribution(n_min, coeffs)


def _zero_padded(f, lo, hi):
    out = np.zeros(hi - lo + 1, dtype=complex)
    out[f.n_min - lo: f.n_max - lo + 1] = f.coeffs
    return out


@settings(deadline=None, max_examples=300)
@given(data=st.data(), windows=_window_pairs())
def test_container_sum_and_difference_equal_the_zero_padded_ones_byte_for_byte(data, windows):
    (fa, fs), (ga, gs) = windows
    f, g = _container(data.draw, fa, fs), _container(data.draw, ga, gs)
    lo, hi = min(f.n_min, g.n_min), max(f.n_max, g.n_max)
    for op, ufunc in ((lambda a, b: a + b, np.add), (lambda a, b: a - b, np.subtract)):
        with np.errstate(over="ignore", invalid="ignore"):
            reference = ufunc(_zero_padded(f, lo, hi), _zero_padded(g, lo, hi))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not np.all(np.isfinite(reference)):
                with pytest.raises(InvalidDataError, match="non-finite"):
                    op(f, g)
                continue
            result = op(f, g)
        assert result.n_min == lo and result.coeffs.tobytes() == reference.tobytes()


def test_analysis_refuses_samples_that_are_not_one_dimensional():
    with pytest.raises(ValueError, match="1-D"):
        fourier_analyze(np.ones((2, 4)))


def test_public_constructor_copies_the_callers_array():
    arr = np.array([1.0, 2.0, 3.0], dtype=complex)
    f = BoundaryDistribution(-1, arr)
    arr[0] = 99.0
    assert f.coeffs[0] == 1.0
    assert not f.coeffs.flags.writeable


def test_derived_containers_are_read_only_and_contiguous():
    f = BoundaryDistribution(-3, np.arange(7) + 1j)
    g = BoundaryDistribution(1, [2.0, -1j])
    derived = [
        pad_or_truncate(f, -1, 2),
        pad_or_truncate(f, -5, 5),
        pad_or_truncate(f, 4, 6),
        pad_or_truncate(f, -3, 3),
        f + g, f - g,
        fourier_analyze(np.arange(8.0)),
    ]
    for h in derived:
        assert not h.coeffs.flags.writeable
        assert h.coeffs.flags.c_contiguous
        assert h.coeffs.dtype == complex
    # arithmetic on shared windows leaves the operands unchanged
    assert np.array_equal(f.coeffs, np.arange(7) + 1j)


def test_restriction_shares_the_validated_array():
    f = BoundaryDistribution(-3, np.arange(7) + 1j)
    inner = pad_or_truncate(f, -1, 2)
    assert np.shares_memory(inner.coeffs, f.coeffs)
    assert inner.n_min == -1 and np.array_equal(inner.coeffs, f.coeffs[2:6])


def test_synthesis_folds_windows_longer_than_the_grid_like_add_at():
    # np.add.at is the reference: the run-by-run fold must add every stored
    # coefficient, zeros and signed zeros included, in the same order.
    rng = np.random.default_rng(41)
    for _ in range(200):
        m = 2 * int(rng.integers(1, 20))
        span = int(rng.integers(0, m // 2))
        core = rng.standard_normal(2 * span + 1) + 1j * rng.standard_normal(2 * span + 1)
        pad_lo, pad_hi = (int(k) for k in rng.integers(0, 3 * m, 2))
        coeffs = np.concatenate([np.full(pad_lo, complex(-0.0, -0.0)), core, np.zeros(pad_hi)])
        f = BoundaryDistribution(-span - pad_lo, coeffs)
        spectrum = np.zeros(m, dtype=complex)
        np.add.at(spectrum, f.frequencies % m, f.coeffs)
        assert fourier_synthesize(f, m).tobytes() == (np.fft.ifft(spectrum) * m).tobytes()


def test_sobolev_norm_equals_the_direct_expression_bit_for_bit():
    rng = np.random.default_rng(42)
    for index in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 3.0, -2.75, 1.3):
        f = BoundaryDistribution(-40, rng.standard_normal(97) + 1j * rng.standard_normal(97))
        n = f.frequencies.astype(float)
        reference = float(np.sqrt(np.sum((1.0 + n * n) ** index * np.abs(f.coeffs) ** 2)))
        assert sobolev_norm(f, index) == reference


def test_nonzero_window_ignores_signed_zeros_at_both_ends():
    f = BoundaryDistribution(-4, [complex(-0.0, 0.0), 0, 1j, 0, 2.0, complex(0.0, -0.0)])
    assert f.nonzero_window() == (-2, 0)
    assert BoundaryDistribution(3, [complex(-0.0, -0.0), 0]).nonzero_window() is None


# ---------------------------------------------------------------- weighted squares

_ULP = 2.0 ** -53


def _decimal_terms(mags, n_min, t, exponent):
    """(1 + n^2)^t mags^2 / 2^exponent to 50 digits, with their sum."""
    with localcontext() as ctx:
        ctx.prec = 50
        scale = Decimal(2) ** int(exponent)
        terms = [Decimal(1 + (n_min + i) ** 2) ** Decimal(t) * Decimal(float(m)) ** 2 / scale
                 for i, m in enumerate(mags)]
        return terms, sum(terms)


def _assert_within_ulps(terms, exponent, mags, n_min, t, ulps):
    # terms below the normal range may be rounded to the subnormal grid or flushed
    reference, total = _decimal_terms(mags, n_min, t, exponent)
    for got, want in zip(terms, reference):
        assert abs(Decimal(float(got)) - want) <= Decimal(ulps * _ULP) * want + Decimal(2.0 ** -1074)
    assert abs(Decimal(float(np.sum(terms))) - total) <= Decimal(ulps * _ULP) * total


@pytest.mark.parametrize("t", [-400.0, -150.0, -26.5, 0.0, 26.5, 150.0, 400.0])
@pytest.mark.parametrize("n_min, size", [(0, 65), (-40, 97)])
def test_weighted_squares_match_a_50_digit_reference(t, n_min, size):
    rng = np.random.default_rng(size)
    mags = np.abs(rng.standard_normal(size)) * 10.0 ** rng.integers(-5, 6, size)
    terms, exponent = spectral._weighted_squares(mags, n_min, t)
    assert int(exponent) % 2 == 0
    _assert_within_ulps(terms, exponent, mags, n_min, t, 4)


def test_weighted_squares_keep_a_tiny_coefficient_under_a_heavy_weight():
    # c_0 = 1, c_64 = 1e-160 at index 150: the second term is about 2^737.
    # Scaling by max |c| alone would square c_64 to 2.5e-321, a subnormal.
    mags = np.zeros(65)
    mags[0], mags[64] = 1.0, 1e-160
    terms, exponent = spectral._weighted_squares(mags, 0, 150.0)
    _assert_within_ulps(terms, exponent, mags, 0, 150.0, 4)
    assert 736 < math.log2(np.sum(terms)) + int(exponent) < 738


@pytest.mark.parametrize("t", [-1500.0, 1500.5])
def test_weighted_squares_beyond_the_mantissa_power_range(t):
    # the mantissa power is taken in the log domain there, good to about |t| ulps
    mags = np.abs(np.random.default_rng(3).standard_normal(40))
    terms, exponent = spectral._weighted_squares(mags, -20, t)
    _assert_within_ulps(terms, exponent, mags, -20, t, 2 * abs(t))


def test_weighted_squares_evaluate_rows_and_levels_independently():
    rng = np.random.default_rng(8)
    block = np.abs(rng.standard_normal((3, 50))) * np.array([[1e-200], [1.0], [1e200]])
    for t in (-300.0, 2.0, 300.0):
        terms, exponents = spectral._weighted_squares(block, -5, t)
        for row, got, exponent in zip(block, terms, exponents):
            alone, alone_exponent = spectral._weighted_squares(row, -5, t)
            assert got.tobytes() == alone.tobytes() and exponent == alone_exponent


@pytest.mark.parametrize("rows", [(), (3,)])
def test_weighted_squares_at_index_zero_between_other_indices(rows):
    # in one grid, index 0 is summed from the scaled squares themselves, and
    # every level, the log-domain one too, equals its own one-level sum
    rng = np.random.default_rng(13)
    mags = np.abs(rng.standard_normal(rows + (33,))) * 10.0 ** rng.integers(-3, 4, rows + (33,))
    levels = (0.0, 1.5, 0.0, 200.0, 0.0, -2.0, 0.0)
    for t, (total, exponents) in zip(levels, spectral._level_sums(mags, -16, levels)):
        (alone, alone_exponents), = spectral._level_sums(mags, -16, (t,))
        assert np.asarray(total).tobytes() == np.asarray(alone).tobytes()
        assert np.array_equal(exponents, alone_exponents)
        if t == 0:
            shift = np.asarray(exponents)[..., None] // 2
            assert np.asarray(total).tobytes() == (np.ldexp(mags, -shift) ** 2).sum(axis=-1).tobytes()


@pytest.mark.filterwarnings("error")
def test_zero_data_has_norm_zero_on_the_whole_scale():
    for index in (-400.0, 0.5, 97.0, 400.0):
        assert sobolev_norm(BoundaryDistribution(-3, np.zeros(7)), index) == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index", [np.nan, np.inf, 2.0 ** 54])
def test_sobolev_index_out_of_range_is_refused(index):
    with pytest.raises(InvalidDataError, match="exceeds 2\\^53"):
        sobolev_norm(BoundaryDistribution.from_modes({0: 1.0, 3: 1.0}), index)


# ---------------------------------------------------------------- split passes
# One norm over more than _LEAF weights is summed in leaves on several
# threads.  Its bits must be the serial ones, on every SIMD dispatch.

_SPLIT_SIZES = [2 ** 17 - 1, 2 ** 17, 2 ** 17 + 1, 3 * 2 ** 17 + 7, 2 ** 20 + 1]
_SPLIT_INDICES = [-4.5, -0.5, 0.0, 2.5, 39.5]


def _split_matches_serial(size, t, rows):
    """The norm of a row on one to four CPUs, or a block's terms, against the serial direct expression bit for bit.

    Each row's largest magnitude lies in [1/2, 1), so the kernel scales by
    2^0: its direct terms are np.power(1 + n^2, t) * mags^2 itself, and a
    row's norm is the square root of their ``.sum()``.  Where those weights
    leave the float range the log-domain branch runs instead: the norms on
    two to four CPUs are compared with the one-CPU norm, and a block's terms
    with each row's own.
    """
    rng = np.random.default_rng(size)
    mags = rng.random(rows + (size,)) * 0.5
    mags[..., ::3] *= 1e-160  # squares and terms in the subnormal range
    mags[..., 0] = 0.75
    n = np.arange(size, dtype=float)
    direct = abs(t) * math.log2(1 + (size - 1) ** 2) + math.log2(size) < spectral._DIRECT_LOG2
    serial = np.power(1 + n * n, t) * (mags * mags) if direct else None
    if rows:
        if serial is None:
            serial = np.array([spectral._weighted_squares(row, 0, t)[0] for row in mags])
        return spectral._weighted_squares(mags, 0, t)[0].tobytes() == serial.tobytes()
    cpus, norms = spectral._cpus, []
    try:
        for count in (1, 2, 3, 4):
            spectral._cpus = lambda: count
            norms.append(spectral.sobolev_norm(spectral.BoundaryDistribution(0, mags), t).hex())
    finally:
        spectral._cpus = cpus
    return norms == [math.sqrt(serial.sum()).hex() if direct else norms[0]] * 4


@pytest.mark.parametrize("rows", [(), (2,)], ids=["row", "block"])
@pytest.mark.parametrize("t", _SPLIT_INDICES)
@pytest.mark.parametrize("size", _SPLIT_SIZES)
def test_split_passes_are_the_serial_expression_bit_for_bit(size, t, rows):
    assert _split_matches_serial(size, t, rows)


_SRC = str(Path(__file__).resolve().parents[1] / "src")
_NO_AVX512 = "AVX512F AVX512CD AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR X86_V4"


def _python(code, **env):
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path, **env))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_split_passes_are_serial_bit_for_bit_without_avx512():
    # split against serial inside that process; its bytes may differ from these
    cases = [(size, t, rows) for size in _SPLIT_SIZES for t in _SPLIT_INDICES for rows in [(), (2,)]]
    code = "\n".join(["import math", "import numpy as np", "from diskdual import spectral",
                      inspect.getsource(_split_matches_serial),
                      f"print([c for c in {cases!r} if not _split_matches_serial(*c)])"])
    assert _python(code, NPY_DISABLE_CPU_FEATURES=_NO_AVX512) == "[]\n"


def test_a_one_leaf_norm_starts_no_pool(monkeypatch):
    # a row of at most _LEAF weights is summed by the kernel, not on leaves
    monkeypatch.setattr(spectral, "_cpus", lambda: 4)
    monkeypatch.setattr(spectral, "_pool", None)
    leaf_calls = _counted(monkeypatch, "_leaf_sums")
    threads = threading.active_count()
    for size in (33, spectral._LEAF):
        sobolev_norm(BoundaryDistribution(0, np.ones(size)), 1.5)
    assert spectral._pool is None and threading.active_count() == threads and leaf_calls == []


def test_importing_the_cli_does_not_import_concurrent_futures():
    assert _python("import sys, diskdual.cli; print('concurrent.futures' in sys.modules)") == "False\n"


def test_a_caller_that_traps_underflow_gets_the_serial_pass(monkeypatch):
    # the product underflows only in the last leaf, which a worker would take
    monkeypatch.setattr(spectral, "_cpus", lambda: 4)
    monkeypatch.setattr(spectral, "_pool", None)
    coeffs = np.full(2 ** 18, 0.5)
    coeffs[-1] = 1e-150
    with np.errstate(under="raise"), pytest.raises(FloatingPointError):
        sobolev_norm(BoundaryDistribution(0, coeffs), -4.5)
    assert spectral._pool is None


def test_concurrent_callers_share_one_pool_and_keep_the_serial_bits(monkeypatch):
    # more callers than CPUs, switching threads as often as the interpreter allows
    import concurrent.futures

    started = []

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):  # slow, so that racing callers meet here
            started.append(self)
            time.sleep(0.02)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(spectral, "_cpus", lambda: 3)
    monkeypatch.setattr(spectral, "_pool", None)
    f = BoundaryDistribution(0, np.random.default_rng(6).standard_normal(2 ** 17 + 129))
    n = f.frequencies.astype(float)
    expected = float(np.sqrt(np.sum(np.power(1.0 + n * n, -1.5) * np.abs(f.coeffs) ** 2)))
    results, start = [], threading.Barrier(6)

    def call():
        start.wait(60)
        for _ in range(5):
            results.append(sobolev_norm(f, -1.5))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call) for _ in range(6)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert len(started) == 1 and results == [expected] * 30


def _send_norm(conn, f):
    conn.send(sobolev_norm(f, 2.5))
    conn.close()


def test_a_forked_child_splits_on_a_fresh_pool(monkeypatch):
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    monkeypatch.setattr(spectral, "_pool", None)
    f = BoundaryDistribution(0, np.random.default_rng(4).standard_normal(2 ** 18))
    expected = sobolev_norm(f, 2.5)
    assert spectral._pool is not None
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_norm, args=(send, f))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        pytest.fail("the forked child hung on the inherited pool")
    assert child.exitcode == 0 and receive.recv() == expected


# ---------------------------------------------------------------- level sums
# Direct levels of one row are summed leaf by leaf along numpy's pairwise
# tree, ranges of leaves on several threads.  Every sum must be the kernel's
# level by level.

_LEVEL_SIZES = [2 ** 14 + 1, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1, 2 ** 16 + 1, 2 ** 17 + 1, 2 ** 18 + 1,
                2 ** 19 - 1, 2 ** 19, 2 ** 19 + 1, 2 ** 20 + 1]
_LEVEL_GRIDS = {
    "default": tuple(s - 0.5 for s in range(-4, 4)),
    "three": (-2.5, 0.5, 1.5),
    "with-zero": (-1.5, 0.0, 2.5, -0.5),
    "one-log-domain": (-4.5, 39.5, 2.5),  # 39.5 leaves the direct branch from 2^14 weights on
}


def _level_row(size):
    rng = np.random.default_rng(size)
    mags = rng.random(size) * 0.5
    mags[::3] *= 1e-160  # squares and terms in the subnormal range
    mags[7] = 3.0
    return mags


def _all_direct(size, grid):
    return all(abs(t) * math.log2(1 + (size - 1) ** 2) + math.log2(size) < spectral._DIRECT_LOG2 for t in grid)


def _as_bits(sums):
    return np.array([total for total, _ in sums]).view(np.int64), [int(e) for _, e in sums]


@pytest.fixture(scope="module")
def serial_level_sums():
    cache, kernel = {}, spectral._weighted_squares  # the real one, whatever a test patches in

    def get(size, grid):
        if (size, grid) not in cache:
            levels = (kernel(_level_row(size), 0, t) for t in grid)
            cache[size, grid] = _as_bits([(terms.sum(), e) for terms, e in levels])
        return cache[size, grid]

    return get


def _counted(monkeypatch, name):
    """Patch spectral's function ``name`` to record its third argument per call."""
    function, calls = getattr(spectral, name), []

    def counted(*args):
        calls.append(args[2])
        return function(*args)

    monkeypatch.setattr(spectral, name, counted)
    return calls


@pytest.mark.parametrize("grid", _LEVEL_GRIDS, ids=list(_LEVEL_GRIDS))
@pytest.mark.parametrize("size", _LEVEL_SIZES)
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_level_sums_are_the_kernels_bit_for_bit(monkeypatch, serial_level_sums, cpus, size, grid):
    # a row of more than _LEAF weights takes its direct levels from the leaves
    monkeypatch.setattr(spectral, "_cpus", lambda: cpus)
    calls = _counted(monkeypatch, "_weighted_squares")
    bits, exponents = _as_bits(spectral._level_sums(_level_row(size), 0, _LEVEL_GRIDS[grid]))
    expected_bits, expected_exponents = serial_level_sums(size, _LEVEL_GRIDS[grid])
    assert np.array_equal(bits, expected_bits) and exponents == expected_exponents
    leafed = size > spectral._LEAF
    assert calls == [t for t in _LEVEL_GRIDS[grid] if not (leafed and _all_direct(size, (t,)))]


@pytest.mark.parametrize("size", [2 ** 14 + 1, 2 ** 16 + 1, 2 ** 20 + 1])
def test_log_domain_levels_take_the_kernel_once_each_on_one_split(monkeypatch, serial_level_sums, size):
    # past _LEAF weights the direct levels come from the leaves, each
    # log-domain level from one kernel call; a one-leaf row takes every level
    # from the kernel.  Two log-domain levels in either order give the same
    # bytes, so the mantissa/exponent split they share is only read
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    kernel_calls, leaf_calls = _counted(monkeypatch, "_weighted_squares"), _counted(monkeypatch, "_leaf_sums")
    mags, grid, leafed = _level_row(size), _LEVEL_GRIDS["one-log-domain"], size > spectral._LEAF
    (bits, exponents), (expected_bits, expected_exponents) = (
        _as_bits(spectral._level_sums(mags, 0, grid)), serial_level_sums(size, grid))
    assert np.array_equal(bits, expected_bits) and exponents == expected_exponents
    assert (kernel_calls, leaf_calls) == (([39.5], [[-4.5, 2.5]]) if leafed else (list(grid), []))
    kernel_calls.clear()
    first = dict(zip((39.5, -4.5, -41.5), spectral._level_sums(mags, 0, (39.5, -4.5, -41.5))))
    second = dict(zip((-41.5, -4.5, 39.5), spectral._level_sums(mags, 0, (-41.5, -4.5, 39.5))))
    assert kernel_calls == ([39.5, -41.5, -41.5, 39.5] if leafed else [39.5, -4.5, -41.5, -41.5, -4.5, 39.5])
    for t in first:
        (total, exponent), (again, again_exponent) = first[t], second[t]
        assert total.tobytes() == again.tobytes() and exponent == again_exponent
        terms, alone_exponent = spectral._weighted_squares(mags, 0, t)
        assert total.tobytes() == terms.sum().tobytes() and exponent == alone_exponent


def test_one_level_is_summed_on_the_leaves(monkeypatch):
    # one level is summed leaf by leaf as well, with the kernel's bits
    monkeypatch.setattr(spectral, "_cpus", lambda: 4)
    leaf_calls = _counted(monkeypatch, "_leaf_sums")
    mags = _level_row(2 ** 16 + 1)
    (total, exponent), = spectral._level_sums(mags, 0, (-0.5,))
    terms, expected_exponent = spectral._weighted_squares(mags, 0, -0.5)
    assert total.tobytes() == terms.sum().tobytes() and exponent == expected_exponent
    assert leaf_calls == [[-0.5]]


def test_level_sums_are_the_kernels_bit_for_bit_without_avx512():
    # leaves against the kernel inside that process; its bytes may differ from these
    code = "\n".join(["import numpy as np", "from diskdual import spectral", inspect.getsource(_level_row),
                      "spectral._cpus = lambda: 2",
                      f"grid = {_LEVEL_GRIDS['default']!r}",
                      "def same(size):",
                      "    sums = [total for total, _ in spectral._level_sums(_level_row(size), 0, grid)]",
                      "    levels = [spectral._weighted_squares(_level_row(size), 0, t)[0] for t in grid]",
                      "    return np.array(sums).tobytes() == np.array([terms.sum() for terms in levels]).tobytes()",
                      "print([size for size in (2 ** 14 + 1, 2 ** 15 + 1, 2 ** 20 + 1) if not same(size)])"])
    assert _python(code, NPY_DISABLE_CPU_FEATURES=_NO_AVX512) == "[]\n"


def test_a_one_leaf_row_starts_no_pool(monkeypatch):
    monkeypatch.setattr(spectral, "_cpus", lambda: 4)
    monkeypatch.setattr(spectral, "_pool", None)
    leaf_calls = _counted(monkeypatch, "_leaf_sums")
    threads = threading.active_count()
    spectral._level_sums(_level_row(spectral._LEAF), 0, _LEVEL_GRIDS["default"])
    assert spectral._pool is None and threading.active_count() == threads and leaf_calls == []


def _tree_data(seed, size):
    """Signed zeros, subnormals, values near 2^-1000 and 2^1000 and ordinary ones, mixed at random."""
    rng = np.random.default_rng(seed)
    exponents = rng.choice([-1100, -1060, -1000, 0, 1000], size)  # -1100 is 0.0, -1060 subnormal
    return np.copysign(np.ldexp(rng.random(size) + 1.0, exponents), rng.random(size) - 0.5)


_TREE_SIZES = st.integers(1, 2 ** 21) | st.sampled_from([128, 129, 2 ** 15 - 1, 2 ** 15 + 1, 2 ** 20 + 1])


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), size=_TREE_SIZES, leaf=st.sampled_from([128, 2 ** 15]))
def test_leaf_sums_added_in_tree_order_are_numpys_sum(seed, size, leaf):
    x = _tree_data(seed, size)
    leaves = spectral._pairwise(lambda lo, hi: [(lo, hi)], 0, size, leaf)
    assert leaves[0][0] == 0 and leaves[-1][1] == size and all(hi - lo <= leaf for lo, hi in leaves)
    assert all(a[1] == b[0] for a, b in zip(leaves, leaves[1:]))
    total = spectral._pairwise(lambda lo, hi: x[lo:hi].sum(), 0, size, leaf)
    assert total.tobytes() == x.sum().tobytes()


def test_a_caller_that_traps_underflow_sums_levels_serially(monkeypatch):
    # the products underflow; the caller gets the leaves' error and no pool starts
    monkeypatch.setattr(spectral, "_cpus", lambda: 4)
    monkeypatch.setattr(spectral, "_pool", None)
    mags = np.full(2 ** 16, 0.5)
    mags[1::2] = 1e-150
    with np.errstate(under="raise"), pytest.raises(FloatingPointError):
        spectral._level_sums(mags, 0, _LEVEL_GRIDS["default"])
    assert spectral._pool is None


def test_concurrent_callers_sum_levels_on_one_pool_with_the_serial_bits(monkeypatch, serial_level_sums):
    # more callers than CPUs, switching threads as often as the interpreter allows
    monkeypatch.setattr(spectral, "_cpus", lambda: 3)
    monkeypatch.setattr(spectral, "_pool", None)
    grid, mags = _LEVEL_GRIDS["default"], _level_row(2 ** 16 + 1)
    expected = serial_level_sums(2 ** 16 + 1, grid)
    results, start = [], threading.Barrier(6)

    def call():
        start.wait(60)
        for _ in range(5):
            results.append(_as_bits(spectral._level_sums(mags, 0, grid)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call) for _ in range(6)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers) and len(results) == 30
    assert all(np.array_equal(bits, expected[0]) and exponents == expected[1] for bits, exponents in results)


def _send_level_sums(conn, mags):
    conn.send(spectral._level_sums(mags, 0, _LEVEL_GRIDS["default"]))
    conn.close()


def test_a_forked_child_sums_levels_on_a_fresh_pool(monkeypatch):
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    monkeypatch.setattr(spectral, "_pool", None)
    mags = _level_row(2 ** 16)
    expected = spectral._level_sums(mags, 0, _LEVEL_GRIDS["default"])
    assert spectral._pool is not None
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_level_sums, args=(send, mags))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        pytest.fail("the forked child hung on the inherited pool")
    (child_bits, child_exponents), (bits, exponents) = _as_bits(receive.recv()), _as_bits(expected)
    assert child.exitcode == 0 and np.array_equal(child_bits, bits) and child_exponents == exponents


def test_a_norm_at_index_zero_holds_one_leaf_buffer_above_its_magnitudes(monkeypatch):
    # one CPU: the leaves reuse one scaled-squares buffer, and index 0 forms no weights or terms
    monkeypatch.setattr(spectral, "_cpus", lambda: 1)
    f = BoundaryDistribution(0, np.random.default_rng(8).standard_normal(2 ** 17))
    sobolev_norm(f, 0.0)
    tracemalloc.start()
    try:
        sobolev_norm(f, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    magnitudes = 8 * f.coeffs.size
    assert peak <= magnitudes + 2 ** 19, (peak - magnitudes) / 2 ** 18


# ---------------------------------------------------------------- weight table
# The last leafed row's direct weights are kept in one read-only table, which
# any miss drops.  Cold, warm and re-cold calls must give the kernel's sums.

_TABLE_SIZES = [2 ** 15 + 1, 2 ** 16 + 1, 3 * 2 ** 15 + 7, 2 ** 17]
_TABLE_GRIDS = {"one": (2.5,), "two": (-1.5, 0.5), "eight": _LEVEL_GRIDS["default"]}


def _kernel_parts(mags, n_min, grid):
    levels = (spectral._weighted_squares(mags, n_min, t) for t in grid)
    return [(np.sqrt(terms.sum()).tobytes(), int(e) // 2) for terms, e in levels]


def _parts(mags, n_min, grid):
    return [(root.tobytes(), int(k)) for root, k in spectral._norm_parts(mags, n_min, grid)]


@pytest.fixture(scope="module")
def kernel_parts():
    cache = {}

    def get(mags, n_min, grid):
        key = (mags.size, n_min, grid)
        if key not in cache:
            cache[key] = _kernel_parts(mags, n_min, grid)
        return cache[key]

    return get


@pytest.mark.parametrize("grid", _TABLE_GRIDS, ids=list(_TABLE_GRIDS))
@pytest.mark.parametrize("size", _TABLE_SIZES)
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_cold_warm_and_recold_norms_are_the_kernels_bit_for_bit(monkeypatch, kernel_parts, cpus, size, grid):
    monkeypatch.setattr(spectral, "_cpus", lambda: cpus)
    monkeypatch.setattr(spectral, "_table", (None, None))
    grid, mags = _TABLE_GRIDS[grid], _level_row(size)
    expected, other = kernel_parts(mags, 0, grid), kernel_parts(mags, -3, grid)
    assert _parts(mags, 0, grid) == expected  # cold: fills the table
    key, table = spectral._table
    assert key == (0, size, grid) and table.shape == (len(grid), size)
    assert _parts(mags, 0, grid) == expected and spectral._table[1] is table  # warm
    assert _parts(mags, -3, grid) == other and spectral._table[0] == (-3, size, grid)  # another window drops it
    assert _parts(mags, 0, grid) == expected and spectral._table[1] is not table  # re-cold


def test_a_warm_call_forms_no_weight_base(monkeypatch):
    monkeypatch.setattr(spectral, "_table", (None, None))
    bases = []
    weight_base = spectral._weight_base
    monkeypatch.setattr(spectral, "_weight_base", lambda *args: bases.append(args) or weight_base(*args))
    mags, grid = _level_row(2 ** 16 + 1), _LEVEL_GRIDS["default"]
    cold = _parts(mags, 0, grid)
    leaves = spectral._pairwise(lambda lo, hi: [(lo, hi)], 0, mags.size, spectral._LEAF)
    assert sorted(bases) == [(lo, hi - lo) for lo, hi in leaves]
    bases.clear()
    assert _parts(mags, 0, grid) == cold and bases == []


def test_the_published_table_is_read_only(monkeypatch):
    monkeypatch.setattr(spectral, "_table", (None, None))
    spectral._norm_parts(_level_row(2 ** 16 + 1), 0, _LEVEL_GRIDS["default"])
    table = spectral._table[1]
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0


def test_a_row_past_the_table_bound_stores_nothing_and_drops_the_old_entry(monkeypatch, kernel_parts):
    # 8 levels of 2^17 + 1 weights take 8 * 8 * (2^17 + 1) bytes, one row more than 2^23
    monkeypatch.setattr(spectral, "_table", (None, None))
    grid, small, large = _LEVEL_GRIDS["default"], _level_row(2 ** 16 + 1), _level_row(2 ** 17 + 1)
    assert 8 * large.size * len(grid) > spectral._TABLE_BYTES >= 8 * 2 ** 17 * len(grid)
    spectral._norm_parts(small, 0, grid)
    assert spectral._table[0] == (0, small.size, grid)
    assert _parts(large, 0, grid) == kernel_parts(large, 0, grid)
    assert spectral._table == (None, None)
    assert _parts(large, 0, grid) == kernel_parts(large, 0, grid) and spectral._table == (None, None)


@pytest.mark.parametrize("mags, grid", [
    (_level_row(2 ** 17), (0.0,)),  # index 0 on the leaves
    (_level_row(2 ** 17), (0.0, -0.0)),
    (_level_row(2 ** 16 + 1), (39.5,)),  # log-domain
    (_level_row(spectral._LEAF), _LEVEL_GRIDS["default"]),  # one leaf
    (np.stack([_level_row(2 ** 16 + 1)] * 2), _LEVEL_GRIDS["default"]),  # a block of rows
], ids=["zero", "signed-zeros", "log-domain", "one-leaf", "block"])
def test_calls_outside_the_table_neither_read_nor_drop_it(monkeypatch, mags, grid):
    monkeypatch.setattr(spectral, "_table", (None, None))
    spectral._norm_parts(_level_row(2 ** 16 + 1), 0, _LEVEL_GRIDS["default"])
    held = spectral._table
    # a table filed under the key such a call would have is never read
    monkeypatch.setattr(spectral, "_table", ((0, mags.shape[-1], tuple(t for t in grid if t)), held[1] * 0.0))
    poisoned = spectral._table
    levels = (spectral._weighted_squares(mags, 0, t) for t in grid)
    expected = [(np.sqrt(terms.sum(axis=-1)).tobytes(), np.asarray(e // 2).tobytes()) for terms, e in levels]
    parts = spectral._norm_parts(mags, 0, grid)
    assert [(root.tobytes(), np.asarray(k).tobytes()) for root, k in parts] == expected
    assert spectral._table is poisoned


def test_two_threads_alternating_two_windows_keep_the_serial_bits(kernel_parts):
    # on the process's own CPUs, hits and misses interleaved as often as the interpreter allows
    grid, mags = _LEVEL_GRIDS["default"], _level_row(2 ** 16 + 1)
    windows = [(0, kernel_parts(mags, 0, grid)), (-5, kernel_parts(mags, -5, grid))]
    wrong, start = [], threading.Barrier(2)

    def call(first):
        start.wait(60)
        for i in range(100):  # two calls on each window in turn
            n_min, expected = windows[(first + i // 2) % 2]
            if _parts(mags, n_min, grid) != expected:
                wrong.append((first, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(first,)) for first in (0, 1)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers) and wrong == []


# sha256 of the canonical report at 2^16 (within the table's bound), taken before the table existed
_TABLE_REPORT_DIGEST = "26efb4e3e5b97b8c4626ce80f67cc5ad20c1110a4620802cf9b368c8d0a73ab0"


def test_a_growth_report_is_the_same_cold_and_warm(monkeypatch):
    from diskdual import formats, growth

    monkeypatch.setattr(spectral, "_table", (None, None))
    spec = growth.GrowthFamilySpec(cmath.exp(0.7j), 1.25, 2 ** 16)
    digests, tables = [], []
    for _ in range(2):  # cold, then warm on the table the first report left
        report = growth.build_growth_report(spec, range(-4, 4))
        digests.append(hashlib.sha256(formats.canonical_json(report.to_doc()).encode()).hexdigest())
        key, table = spectral._table
        assert key == (0, 2 ** 16 + 1, _LEVEL_GRIDS["default"])
        tables.append(table)
    assert digests == [_TABLE_REPORT_DIGEST] * 2 and tables[0] is tables[1]


# ---------------------------------------------------------------- one handoff
# Leaves, transform passes and probe draws reach the pool through spectral._split alone.

def test_every_pool_job_is_submitted_by_the_one_helper(monkeypatch):
    from diskdual import duality, growth

    split_pool, submitters = spectral._split_pool, []

    class Recording:
        def __init__(self, pool):
            self.pool = pool

        def submit(self, *args):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame before Python 3.12
                frame = frame.f_back
            submitters.append((frame.f_globals["__name__"], frame.f_code.co_name))
            return self.pool.submit(*args)

    monkeypatch.setattr(spectral, "_cpus", lambda: 4)
    monkeypatch.setattr(spectral, "_split_pool", lambda cpus: Recording(split_pool(cpus)))
    u = growth.growth_family_coeffs(growth.GrowthFamilySpec(1.0, 1.25, 2 ** 16))
    for call in (lambda: sobolev_norm(BoundaryDistribution(0, np.ones(2 ** 18)), 1.5),  # one norm's leaves
                 lambda: growth.estimate_min_sobolev(u, range(-4, 4)),  # levels
                 lambda: duality.verify_duality_isomorphism(0, 7, 1024, 9)):  # probe draws
        before = len(submitters)
        call()
        assert len(submitters) > before
    assert set(submitters) == {("diskdual.spectral", "_split")}
    source = inspect.getsource(duality)
    assert "_split_pool" not in source and "_cpus" not in source


# ---------------------------------------------------------------- the whole scale
# Properties over indices in [-400, 400], where norms leave the float range in
# both directions; they are compared as log2 of spectral._norm_parts, and
# that against a log-sum-exp reference that shares no code with it.

_SCALE = st.floats(-400.0, 400.0, allow_nan=False)


def _random_distribution(seed, n_min, size):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4, size)
    return BoundaryDistribution(n_min, (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * scale)


def _log2_norm(f, index):
    """log2 of the Sobolev norm of index ``index``, -inf for zero data."""
    (root, k), = spectral._norm_parts(np.abs(f.coeffs), f.n_min, (index,))
    if root == 0.0:
        return -math.inf
    mags = np.abs(f.coeffs)
    keep = mags > 0
    logs = index * np.log2(1.0 + f.frequencies[keep].astype(float) ** 2) + 2.0 * np.log2(mags[keep])
    top = logs.max()
    reference = 0.5 * (top + math.log2(np.sum(np.exp2(logs - top))))
    value = math.log2(root) + k
    assert abs(value - reference) <= 1e-9 * max(1.0, abs(reference))
    return value


@settings(deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), sp=_SCALE, size=st.integers(1, 40), shift=st.integers(-40, 20))
def test_cauchy_schwarz_with_constant_one_on_the_whole_scale(seed, sp, size, shift):
    f = _random_distribution(seed, shift, size)
    g = _random_distribution(seed + 1, shift - 3, size + 3)
    lhs = abs(l2_pairing(f, g))
    if lhs > 0:
        assert math.log2(lhs) <= _log2_norm(f, sp) + _log2_norm(g, -sp) + 1e-9


@settings(deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), sp=_SCALE, size=st.integers(1, 40))
def test_koethe_pairing_is_symmetric_and_obeys_the_shift_estimate_on_the_whole_scale(seed, sp, size):
    # interior f against exterior g: |kappa| <= (5/2)^(|sp|/2) ||f||_sp ||g||_-sp
    f = _random_distribution(seed, 0, size)
    g = _random_distribution(seed + 1, -size - 2, size + 2)
    kappa = koethe_pairing(f, g)
    terms = sum(abs(f.coefficient(n) * g.coefficient(-1 - n)) for n in range(size))
    assert abs(kappa - koethe_pairing(g, f)) <= 1e-13 * terms
    if kappa != 0:
        bound = abs(sp) / 2 * math.log2(2.5) + _log2_norm(f, sp) + _log2_norm(g, -sp)
        assert math.log2(abs(kappa)) <= bound + 1e-9


# ---------------------------------------------------------------- split transforms
# A transform of at least spectral._FFT_SPLIT points runs as a four-step of
# row and column transforms.  Its values are not numpy's bits: max|split -
# numpy| read at most 5.9e-16 of max|numpy| at 2^18, 2^20, 2^21 and 3 * 2^18
# points, and at most 7.8e-16 at the other split sizes here, 2^18 + 2 aside.

_FFT_SPLIT = spectral._FFT_SPLIT
_FFT_TOL = 1e-15


def _numpy_analysis(samples):
    m = samples.size
    spectrum = np.fft.fft(samples) / m
    return np.concatenate([spectrum[m // 2 + 1:], spectrum[: m // 2 + 1]])


def _numpy_synthesis(f, m):
    spectrum = np.zeros(m, dtype=complex)
    np.add.at(spectrum, f.frequencies % m, f.coeffs)
    return np.fft.ifft(spectrum) * m


def _relative_error(values, reference):
    return np.abs(values - reference).max() / np.abs(reference).max()


@pytest.mark.parametrize("m", [_FFT_SPLIT, 2 ** 20, _FFT_SPLIT + 6, 2 ** 9 * 3 ** 6, 4 * 3 ** 11])
def test_split_analysis_agrees_with_numpy(m):
    rng = np.random.default_rng(m)
    samples = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    f = fourier_analyze(samples)
    assert f.n_min == -m // 2 + 1
    assert _relative_error(f.coeffs, _numpy_analysis(samples)) <= _FFT_TOL


@pytest.mark.parametrize("m", [_FFT_SPLIT, 2 ** 20, _FFT_SPLIT + 6, 2 ** 9 * 3 ** 6, 4 * 3 ** 11])
def test_split_synthesis_agrees_with_numpy(m):
    rng = np.random.default_rng(m + 1)
    span = m // 2 - 1
    f = BoundaryDistribution(-span, rng.standard_normal(2 * span + 1) + 1j * rng.standard_normal(2 * span + 1))
    assert _relative_error(fourier_synthesize(f, m), _numpy_synthesis(f, m)) <= _FFT_TOL


def test_split_synthesis_folds_windows_longer_than_the_grid_like_add_at():
    # zero padding on both sides wraps the window round the grid several times
    rng = np.random.default_rng(43)
    m = _FFT_SPLIT
    for span, pad_lo, pad_hi in [(m // 2 - 1, 2 * m + 5, m + 3), (1000, 3, 3 * m), (m // 4, m // 2, 0)]:
        core = rng.standard_normal(2 * span + 1) + 1j * rng.standard_normal(2 * span + 1)
        coeffs = np.concatenate([np.full(pad_lo, complex(-0.0, -0.0)), core, np.zeros(pad_hi)])
        f = BoundaryDistribution(-span - pad_lo, coeffs)
        assert _relative_error(fourier_synthesize(f, m), _numpy_synthesis(f, m)) <= _FFT_TOL


@pytest.mark.parametrize("step", [1, 2, 4, 512])
def test_a_decimated_fold_is_add_at_on_the_whole_grid_bit_for_bit(step):
    # a split synthesis folds each range of rows itself; step 1 is the unsplit grid
    rng = np.random.default_rng(step)
    cols = 300
    m = step * cols
    for n_min, size in [(-3, 5), (-m // 2, m), (-2 * m - 7, 5 * m + 13), (m - 1, 2), (5, 1), (-1, step + 1)]:
        coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        coeffs[::7] = complex(-0.0, -0.0)
        f = BoundaryDistribution(n_min, coeffs)
        grid = np.zeros(m, dtype=complex)
        np.add.at(grid, f.frequencies % m, f.coeffs)
        for first, count in [(0, step), (step // 2, step - step // 2), (step - 1, 1)]:
            rows = np.full((count, cols), complex(np.nan, np.nan))
            assert spectral._fold(f, rows, first, step) is rows
            assert rows.tobytes() == grid.reshape(cols, step).T[first: first + count].tobytes()


def _split_transform_bytes(m):
    rng = np.random.default_rng(m)
    samples = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    f = BoundaryDistribution(-(m // 4), rng.standard_normal(m // 2) + 1j * rng.standard_normal(m // 2))
    return fourier_analyze(samples).coeffs.tobytes() + fourier_synthesize(f, m).tobytes()


@pytest.mark.parametrize("m", [_FFT_SPLIT, _FFT_SPLIT + 6])
def test_split_transforms_are_the_same_bytes_on_any_number_of_cpus(monkeypatch, m):
    real = _split_transform_bytes(m)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(spectral, "_cpus", lambda: cpus)
        assert _split_transform_bytes(m) == real, cpus


def test_split_transforms_without_numpys_out_argument_are_the_same_bytes(monkeypatch):
    # numpy 1.x takes no ``out``; its fallback copies each half into the buffer
    expected = _split_transform_bytes(_FFT_SPLIT)
    monkeypatch.setattr(spectral, "_FFT_OUT", False)
    assert _split_transform_bytes(_FFT_SPLIT) == expected


@pytest.mark.parametrize("m", [_FFT_SPLIT - 2, _FFT_SPLIT + 1])
def test_transforms_that_are_not_split_keep_numpys_bits(m):
    # below the threshold, and an odd synthesis grid, which has no halves
    rng = np.random.default_rng(m)
    f = BoundaryDistribution(-(m // 4), rng.standard_normal(m // 2) + 1j * rng.standard_normal(m // 2))
    assert fourier_synthesize(f, m).tobytes() == _numpy_synthesis(f, m).tobytes()
    if m % 2 == 0:
        samples = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        spectrum = np.fft.fft(samples)
        expected = np.concatenate([spectrum[m // 2 + 1:], spectrum[: m // 2 + 1]]) / m
        assert fourier_analyze(samples).coeffs.tobytes() == expected.tobytes()


def test_the_pinned_round_trips_stay_below_the_split():
    # the 2^16 golden synthesizes on 2^17 points, so its digest holds numpy's bits
    assert 2 * max(ROUND_TRIP_GOLDEN) < _FFT_SPLIT


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("m", [_FFT_SPLIT // 2, _FFT_SPLIT])
def test_transform_overflow_is_one_error_without_warnings_on_both_paths(monkeypatch, cpus, m):
    # worker threads do not see the caller's np.errstate: each range sets its own
    monkeypatch.setattr(spectral, "_cpus", lambda: cpus)
    samples = np.full(m, 1e308 + 0j)
    samples[1::2] = -1e308
    with pytest.raises(InvalidDataError, match="non-finite"):
        fourier_analyze(samples)
    huge = BoundaryDistribution(-2, np.full(5, 1e308 + 0j))
    assert not np.isfinite(fourier_synthesize(huge, m)).all()
    grid = QuadratureGrid(m)
    nodes = boundary_node_values(huge, CurveDescriptor.parse("circle:1.0"), grid)
    with pytest.raises(InvalidDataError, match="non-finite node values"):
        pairing_quadrature(nodes, nodes, CurveDescriptor.parse("circle:1.0"), grid)


def test_concurrent_split_transforms_keep_their_bytes(monkeypatch):
    # more callers than CPUs share the pool, switching threads as often as the interpreter allows
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    m = _FFT_SPLIT
    expected = _split_transform_bytes(m)
    results, start = [], threading.Barrier(4)

    def call():
        start.wait(60)
        for _ in range(2):
            results.append(_split_transform_bytes(m))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call) for _ in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [expected] * 8


def test_the_fft_halves_reach_the_pool_through_the_one_helper(monkeypatch):
    split_pool, submitters = spectral._split_pool, []

    class Recording:
        def __init__(self, pool):
            self.pool = pool

        def submit(self, *args):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame before Python 3.12
                frame = frame.f_back
            submitters.append(frame.f_code.co_name)
            return self.pool.submit(*args)

    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    monkeypatch.setattr(spectral, "_split_pool", lambda cpus: Recording(split_pool(cpus)))
    m = _FFT_SPLIT
    fourier_synthesize(fourier_analyze(np.ones(m)), 2 * m)
    # analysis and synthesis each: row transforms, then column transforms
    assert submitters == ["_split"] * 4


# The four-step views M points as an (r, c) array, r the largest power of two
# dividing M up to spectral._FFT_ROWS.  An even M with an odd cofactor has
# r = 2, whose length-2 columns go through np.fft like every r's (see
# FOUR_STEP_GOLDEN).  2^9 * 3^6 has a row length
# that is no multiple of the block width, so its last block is narrower, and
# 4 * 3^11 has r = 4.  2^18 + 2 has r = 2 and row length
# 3 * 43691, which pocketfft takes by Bluestein's algorithm: there numpy's
# own transform is 0.86-1.19e-15 of max|X| off an extended-precision one, so
# r = 2 is held to _FFT_TOL at 2 * 3^11 instead, and 2^18 + 2 to its bytes
# and its memory.


def test_four_step_synthesis_on_2_21_points_agrees_with_numpy():
    # the round trip's 2^20 coefficients synthesized on 2^21 points
    m = 2 ** 21
    rng = np.random.default_rng(21)
    f = BoundaryDistribution(-m // 4 + 1, rng.standard_normal(m // 2) + 1j * rng.standard_normal(m // 2))
    assert _relative_error(fourier_synthesize(f, m), _numpy_synthesis(f, m)) <= _FFT_TOL


def test_four_step_with_two_rows_agrees_with_numpy():
    m = 2 * 3 ** 11
    rng = np.random.default_rng(m)
    samples = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    assert _relative_error(fourier_analyze(samples).coeffs, _numpy_analysis(samples)) <= _FFT_TOL
    f = BoundaryDistribution(-m // 2 + 1, samples[: m - 1])
    assert _relative_error(fourier_synthesize(f, m), _numpy_synthesis(f, m)) <= _FFT_TOL


@pytest.mark.parametrize("m", [2 ** 20, _FFT_SPLIT + 2, 2 ** 9 * 3 ** 6, 2 * 3 ** 11, 4 * 3 ** 11])
def test_four_step_is_the_same_bytes_on_one_to_four_cpus(monkeypatch, m):
    # 2 * 3^11 has eleven column blocks: three and four ranges divide them
    # unevenly, so a block that straddled two ranges would change bytes
    runs = []
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(spectral, "_cpus", lambda: cpus)
        runs.append(_split_transform_bytes(m))
    assert runs == [runs[0]] * 4


# sha256 of _split_transform_bytes, taken while r = 2's columns still went
# through an add/subtract butterfly: np.fft's length-2 pass is that add and
# subtract, and analysis's factor 1/2 is exact, so every byte stays.
FOUR_STEP_GOLDEN = {
    2 * 3 ** 11: "076d7aee23ff3978bf684181252afb0b1bcd4b3d2527acd0bff2cd6b731d1d77",  # r = 2
    _FFT_SPLIT + 6: "7811a5897a09569b9242616da5b2b18b3cbeea29a356f392a2f05f034d698f78",  # r = 2
    _FFT_SPLIT: "1a4db7321039236cdfe5925a1862c796dc2695b718ed217f94ddb06623c831af",  # r = 2^9
}


@pytest.mark.parametrize("m", sorted(FOUR_STEP_GOLDEN))
def test_four_step_is_byte_identical_to_the_golden_digest(m):
    assert hashlib.sha256(_split_transform_bytes(m)).hexdigest() == FOUR_STEP_GOLDEN[m]


@pytest.mark.skipif(not spectral._FFT_OUT, reason="numpy 1.x has no out=: each transform fills a fresh array")
@pytest.mark.parametrize("m", [2 ** 20, _FFT_SPLIT + 2])
def test_four_step_allocates_no_grid_beside_its_result(monkeypatch, m):
    # analysis of M points peaks at its M + 1 coefficients, synthesis on 2M,
    # as in the round trip, at its 2M values, whose rows fold the window.
    # The slack holds the two threads' column-block buffers and the twiddle
    # tables, about 2 MB here, below the smallest split grid (4 MiB).
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    rng = np.random.default_rng(m)
    samples = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    f = BoundaryDistribution(-m // 2 + 1, samples[: m - 1])
    fourier_synthesize(fourier_analyze(samples), 2 * m)  # start the pool outside the trace
    entry, slack = np.dtype(complex).itemsize, 3 * 2 ** 20
    tracemalloc.start()
    try:
        coeffs = fourier_analyze(samples)
        analysis = tracemalloc.get_traced_memory()[1]
        del coeffs
        tracemalloc.reset_peak()
        fourier_synthesize(f, 2 * m)
        synthesis = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert analysis <= m * entry + slack
    assert synthesis <= 2 * m * entry + slack


# ---------------------------------------------------------------- golden round trip
# sha256 of analyze -> split -> traces subtracted and added -> synthesize on 2M,
# with the jump residual and three Sobolev norms, taken before container sums
# were formed in one array and synthesis scaled in place; both keep every byte.

ROUND_TRIP_GOLDEN = {
    2 ** 12: "e071bf94366701ad089065bc1e5e5edccd98f6ceac0779318cb08e49d036ac57",
    2 ** 16: "dc6f0bbddeadc95a794f5433e85cb8f8152d1480a02d952eabdfb59e802010eb",
}


@pytest.mark.parametrize("m", sorted(ROUND_TRIP_GOLDEN))
def test_round_trip_is_byte_identical_to_the_golden_digest(m):
    rng = np.random.default_rng(2026)
    f = fourier_analyze(rng.standard_normal(m) + 1j * rng.standard_normal(m))
    u, v_plus = hardy_projections(f)
    jump = trace_interior(u) - trace_exterior(v_plus)
    both = trace_interior(u) + trace_exterior(v_plus)
    digest = hashlib.sha256()
    for part in (f, jump, both):
        digest.update(repr(part.n_min).encode())
        digest.update(part.coeffs.tobytes())
    digest.update(fourier_synthesize(jump, 2 * m).tobytes())
    norms = (jump_residual(f), sobolev_norm(f, 0.0), sobolev_norm(f, 1.0), sobolev_norm(f, -0.5))
    digest.update(repr(norms).encode())
    assert digest.hexdigest() == ROUND_TRIP_GOLDEN[m]
