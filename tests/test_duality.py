"""Dual functionals: representation, norms, reconstruction, verification suites."""

import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diskdual import duality, formats, spectral

from diskdual import (
    BoundaryDistribution,
    CurveDescriptor,
    DegenerateInputError,
    DualFunctional,
    ExteriorFunction,
    InteriorFunction,
    InvalidFamilyError,
    QuadratureGrid,
    TruncationError,
    apply_functional,
    dual_norm_trace_ratio,
    functional_from_exterior,
    functional_norm_bruteforce,
    functional_norm_closed_form,
    koethe_pairing,
    norm_ratio_bounds,
    pairing_quadrature,
    pairing_tail_certificate,
    reconstruct_exterior_from_blackbox,
    represent_functional,
    sobolev_norm,
    trace_exterior,
    trace_interior,
    verify_duality_isomorphism,
    verify_scale_pairing,
)


# ---------------------------------------------------------------- apply


def test_functional_from_single_pole_reads_constant_coefficient():
    F = functional_from_exterior(ExteriorFunction([1.0]), 0)
    assert apply_functional(F, InteriorFunction([7.0])) == pytest.approx(7.0)
    assert apply_functional(F, InteriorFunction([0.0, 9.0])) == 0j


def test_zero_functional():
    F = functional_from_exterior(ExteriorFunction(np.zeros(0)), 0)
    assert apply_functional(F, InteriorFunction([1.0, 2.0])) == 0j
    assert functional_norm_closed_form(F) == 0.0


def test_second_pole_reads_linear_coefficient():
    F = functional_from_exterior(ExteriorFunction([0.0, 1.0]), 0)
    assert apply_functional(F, InteriorFunction([0.0, 1.0])) == pytest.approx(1.0)


def test_apply_matches_contour_quadrature():
    # oracle: (1/(2 pi i)) contour integral of u v dzeta at M = 64
    F = functional_from_exterior(ExteriorFunction([1.0, 2.0]), 0)
    u = InteriorFunction([3.0, 4.0])
    assert apply_functional(F, u) == pytest.approx(11.0)

    rng = np.random.default_rng(23)
    curve = CurveDescriptor.circle()
    grid = QuadratureGrid(64)
    zeta = curve.point(grid.nodes)
    for _ in range(10):
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        a = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        F = functional_from_exterior(ExteriorFunction(b), 0)
        u = InteriorFunction(a)
        u_vals = np.polynomial.polynomial.polyval(zeta, a)
        w = 1.0 / zeta
        v_vals = w * np.polynomial.polynomial.polyval(w, b)
        oracle = pairing_quadrature(u_vals, v_vals, curve, grid)
        assert abs(apply_functional(F, u) - oracle) < 1e-11


def test_apply_is_linear_in_u():
    rng = np.random.default_rng(31)
    F = functional_from_exterior(
        ExteriorFunction(rng.standard_normal(6) + 1j * rng.standard_normal(6)), 1
    )
    u1 = InteriorFunction(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    u2 = InteriorFunction(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    al = complex(*rng.standard_normal(2))
    combo = InteriorFunction(u1.coeffs + al * u2.coeffs)
    lhs = apply_functional(F, combo)
    rhs = apply_functional(F, u1) + al * apply_functional(F, u2)
    assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------- represent


def test_represent_keeps_only_negative_frequencies():
    assert represent_functional(BoundaryDistribution.from_modes({-1: 1.0}), 0).coeffs.tolist() == [1.0]
    assert represent_functional(BoundaryDistribution.from_modes({0: 5.0}), 0).coeffs.size == 0
    v = represent_functional(BoundaryDistribution.from_modes({-2: 2.0}), 0)
    np.testing.assert_array_equal(v.coeffs, [0.0, 2.0])


def test_represent_carries_the_dual_scale_index():
    v = represent_functional(BoundaryDistribution.from_modes({-1: 1.0}), 3)
    assert v.index == 1 - 3


def test_surjectivity_identity_for_any_degree():
    rng = np.random.default_rng(12)
    for s in (-2, 0, 1):
        for _ in range(20):
            w = BoundaryDistribution(-5, rng.standard_normal(11) + 1j * rng.standard_normal(11))
            v = represent_functional(w, s)
            F = functional_from_exterior(v, s)
            u = InteriorFunction(rng.standard_normal(9) + 1j * rng.standard_normal(9))
            assert abs(apply_functional(F, u) - koethe_pairing(trace_interior(u), w)) < 1e-13


def test_interior_data_is_annihilated():
    rng = np.random.default_rng(14)
    u = InteriorFunction(rng.standard_normal(7) + 1j * rng.standard_normal(7))
    assert represent_functional(trace_interior(u), 0).coeffs.size == 0


# ---------------------------------------------------------------- norms


def test_closed_form_norm_examples():
    assert functional_norm_closed_form(
        functional_from_exterior(ExteriorFunction([1.0]), 0)
    ) == pytest.approx(1.0)
    assert functional_norm_closed_form(
        functional_from_exterior(ExteriorFunction([0.0, 1.0]), 0)
    ) == pytest.approx(2.0 ** 0.25)


def test_bruteforce_agrees_with_closed_form():
    for b, s, expected in [
        ([1.0], 0, 1.0),
        ([0.0, 1.0], 0, 2.0 ** 0.25),
        ([1.0, 1.0], 1, (1.0 + 2.0 ** -0.5) ** 0.5),
    ]:
        F = functional_from_exterior(ExteriorFunction(b), s)
        closed = functional_norm_closed_form(F)
        assert closed == pytest.approx(expected, abs=1e-12)
        brute = functional_norm_bruteforce(F, 4, iterations=50, seed=99)
        assert abs(brute - closed) < 1e-9


def test_bruteforce_never_exceeds_closed_form():
    rng = np.random.default_rng(44)
    for s in (-1, 0, 2):
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        F = functional_from_exterior(ExteriorFunction(b, 1 - s), s)
        closed = functional_norm_closed_form(F)
        brute = functional_norm_bruteforce(F, 12, iterations=200, seed=5)
        assert brute <= closed + 1e-9
        assert brute >= closed - 1e-6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("b, s", [
    ([1e300, 1.0], -6), ([1e200, 3.0], 0), ([1e-300, 1e-300], 6),
    ([1.7e308, 1.0], -6), ([1e-310, 1e-310], 6), ([1e-320], 0),
])
def test_bruteforce_pairs_representatives_at_the_ends_of_the_float_range(b, s):
    # |F(u)| of the maximizer is about |b|^2 (1 + n^2)^(1/2 - s): unscaled it overflows or
    # underflows, although every norm fits the float range (the last two are subnormal)
    F = functional_from_exterior(ExteriorFunction(b), s)
    closed = functional_norm_closed_form(F)
    assert functional_norm_bruteforce(F, 8, iterations=16, seed=1) == pytest.approx(
        closed, rel=1e-12, abs=2.0 ** -1070)


def test_bruteforce_truncation_guard():
    F = functional_from_exterior(ExteriorFunction([1.0, 2.0, 3.0]), 0)
    with pytest.raises(TruncationError):
        functional_norm_bruteforce(F, 2, iterations=4, seed=0)


def test_norm_ratio_within_shift_bounds():
    rng = np.random.default_rng(50)
    for s in (-3, -1, 0, 1, 2):
        lower, upper = norm_ratio_bounds(s)
        for _ in range(50):
            v = ExteriorFunction(rng.standard_normal(8) + 1j * rng.standard_normal(8), 1 - s)
            ratio = dual_norm_trace_ratio(v, s)
            assert lower - 1e-12 <= ratio <= upper + 1e-12


def test_norm_ratio_bounds_are_sharp_at_the_second_mode():
    # the weight quotient (1 + m^2)/(1 + (m-1)^2) peaks at m = 2 with value 5/2,
    # so the single-mode representative b_2 attains the bound exactly; a
    # 2^(|s-1/2|/2) spread would already be violated here.
    for s in (-3, -1, 0, 1, 2):
        lower, upper = norm_ratio_bounds(s)
        ratio = dual_norm_trace_ratio(ExteriorFunction([0.0, 1.0], 1 - s), s)
        extremal = lower if s < 0.5 else upper
        assert ratio == pytest.approx(extremal, rel=1e-12)
        narrow = 2.0 ** (abs(s - 0.5) / 2.0)
        assert ratio > narrow + 1e-6 or 1.0 / ratio > narrow + 1e-6


def test_zero_representative_is_degenerate_for_ratios():
    assert dual_norm_trace_ratio(ExteriorFunction(np.zeros(0)), 0) is None


# ---------------------------------------------------------------- reconstruct


def test_reconstruct_from_moments():
    F = functional_from_exterior(ExteriorFunction([1.0, 2.0]), 0)
    v = reconstruct_exterior_from_blackbox(lambda u: apply_functional(F, u), 4)
    np.testing.assert_allclose(v.coeffs, [1.0, 2.0, 0.0, 0.0])


def test_reconstruct_zero_oracle():
    v = reconstruct_exterior_from_blackbox(lambda u: 0j, 4)
    assert not np.any(v.coeffs)


def test_scalar_oracle_receives_trimmed_monomials():
    seen = []

    def oracle(u):
        seen.append((type(u), u.coeffs.copy(), u.index))
        return complex(len(seen))

    v = reconstruct_exterior_from_blackbox(oracle, 7, s=2)
    np.testing.assert_array_equal(v.coeffs, np.arange(1, 8))
    for n, (kind, coeffs, index) in enumerate(seen):
        assert issubclass(kind, InteriorFunction) and index == 2.0
        np.testing.assert_array_equal(coeffs, np.eye(n + 1)[n])


def test_reconstruct_round_trip_random():
    rng = np.random.default_rng(16)
    for _ in range(10):
        b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        F = functional_from_exterior(ExteriorFunction(b), 0)
        v = reconstruct_exterior_from_blackbox(lambda u: apply_functional(F, u), 16)
        assert np.max(np.abs(v.coeffs - b)) < 1e-13


# ---------------------------------------------------------------- suites


def test_duality_suite_passes_across_scales():
    for s in (-2, 0, 3):
        report = verify_duality_isomorphism(s, trials=25, degree_cap=16, seed=7)
        assert report.passed, report.to_doc()


@pytest.mark.parametrize("n", [32, 256, 1024])
def test_duality_suite_bounds_scale_with_the_norm(n):
    # the dual norm grows like N^(1/2 - s); an absolute 1e-6 failed at s = -6, N = 32
    for s in range(-6, 7):
        report = verify_duality_isomorphism(s, trials=2, degree_cap=n, seed=11)
        assert report.passed, report.to_doc()
        if (s, n) == (0, 32):
            bounds = {c.name: c.bound for c in report.checks}
            assert bounds["bruteforce vs closed-form norm"] <= 1e-6
            assert bounds["surjectivity identity max error"] <= 1e-12


def test_duality_suite_flags_the_degenerate_probe():
    report = verify_duality_isomorphism(0, trials=5, degree_cap=8, seed=1)
    skipped = [c for c in report.checks if "degenerate" in c.name]
    assert len(skipped) == 1 and skipped[0].passed and skipped[0].value == 1.0


def test_duality_suite_is_deterministic():
    a = verify_duality_isomorphism(1, trials=10, degree_cap=12, seed=123)
    b = verify_duality_isomorphism(1, trials=10, degree_cap=12, seed=123)
    assert a.to_doc() == b.to_doc()
    c = verify_duality_isomorphism(1, trials=10, degree_cap=12, seed=124)
    assert c.to_doc() != a.to_doc()


# sha256 of the canonical isomorphism reports, as computed one trial at a
# time: per N, over s in _SUITE_SCALES, trials in _SUITE_TRIALS and seeds in
# _SUITE_SEEDS (in that nesting), then single shapes that span many blocks,
# the last with trials larger than a block
_SUITE_SCALES, _SUITE_TRIALS, _SUITE_SEEDS = (-40, -3, 0, 1, 7, 300), (1, 2, 5, 16), (0, 7, 20240917)
_SUITE_DIGESTS = {
    1: "763476d0b7e89e007ce9f58c643f7e39d4314d931482733eb245355f1ee35390",
    2: "1ab85234da27a514eb452f8b033814f8be4f3af3461c1c474fd65df242a7fa85",
    32: "cb0db2aed707b2e426866bb4598b4897eaf295766fc68ac3dccc353546a99c2e",
    256: "30c219833e5bca78a548e5cfa654d182598ee7166cd27b6a0c55800e0ee14f14",
    4096: "97c6b3e7ead851a1a322eb12dbae4e54aa7abc3f514a4eea34672b46bfb26ac1",
}
_MULTI_BLOCK_DIGESTS = {  # (s, N, trials, seed)
    (0, 32, 300, 3): "16da6459d7fb7238605c73326ab87ff15a5a3e46a106c5ee06a2ed0110f53ce8",
    (-3, 2048, 12, 5): "0ba790238edaf31fb776912d96ff88877c546b119e7798d609975aab7cab9ee4",
    (7, 256, 100, 11): "f84db14edecf17cf8262c247ae59304f7e99fb0e22368149c86e88d4c6e62818",
    (0, 1024, 40, 2): "4be31e519247b9ac8eb1f16076886b97be1ca5cc15005e6f908f7ea7f0a0c01c",
    (1, 8192, 3, 4): "708064b77f75feb108f0e9a2d756af8b11f2fd3274ba249566cd60d7c377ae64",
}


def _suite_bytes(s, n, trials, seed):
    return formats.canonical_json(verify_duality_isomorphism(s, trials, n, seed).to_doc()).encode()


@pytest.mark.parametrize("n", sorted(_SUITE_DIGESTS))
def test_duality_suite_reports_are_unchanged(n):
    digest = hashlib.sha256()
    for s in _SUITE_SCALES:
        for trials in _SUITE_TRIALS:
            for seed in _SUITE_SEEDS:
                digest.update(_suite_bytes(s, n, trials, seed))
    assert digest.hexdigest() == _SUITE_DIGESTS[n]


@pytest.mark.parametrize("s, n, trials, seed", sorted(_MULTI_BLOCK_DIGESTS))
def test_duality_suite_reports_spanning_many_blocks_are_unchanged(s, n, trials, seed):
    trial_bytes = 16 * (duality._SUITE_ITERATIONS + 1) * n
    assert trials * trial_bytes > duality._BLOCK_BYTES
    assert hashlib.sha256(_suite_bytes(s, n, trials, seed)).hexdigest() == \
        _MULTI_BLOCK_DIGESTS[s, n, trials, seed]


def test_seed_children_are_spawned_one_block_at_a_time(monkeypatch):
    # The root's children are spawned per block, so a large --trials holds one
    # block of them; they must be the children one spawn(trials) gives, in order.
    spawned, seen = [], []

    class Recording(np.random.SeedSequence):
        def spawn(self, n_children):
            spawned.append((self.spawn_key, n_children))
            return super().spawn(n_children)

    draw = duality._draw_trial

    def recording_draw(child, *args):
        seen.append((child.entropy, child.spawn_key))
        return draw(child, *args)

    n, trials, seed = 2048, 8, 5
    per_block = duality._BLOCK_BYTES // (16 * (duality._SUITE_ITERATIONS + 1) * n)
    assert 1 < per_block < trials and trials % per_block
    expected = [(child.entropy, child.spawn_key) for child in np.random.SeedSequence(seed).spawn(trials)]
    monkeypatch.setattr(np.random, "SeedSequence", Recording)
    monkeypatch.setattr(duality, "_draw_trial", recording_draw)
    verify_duality_isomorphism(0, trials, n, seed)
    root_calls = [count for key, count in spawned if key == ()]
    assert max(root_calls) <= per_block and sum(root_calls) == trials
    assert seen == expected


def test_scale_pairing_pinned_family_oracle():
    # a_n = n + 1 against b_m = 2^-m: closed forms
    #   total = sum_{k=1..64} k 2^-k            = 2 - 2^-64 * 2 * 66
    #   second-half share = (tail(33) - tail(65)) / total, tail(K) = 2^-K * 2 (K+1)
    n = np.arange(64, dtype=float)
    a = n + 1.0
    b = 2.0 ** -np.arange(1, 66, dtype=float)
    tail = lambda k: 2.0 ** -k * 2.0 * (k + 1.0)
    total_oracle = 2.0 - tail(65)
    share_oracle = (tail(33) - tail(65)) / total_oracle
    cert = pairing_tail_certificate(a, b, smooth_side="exterior")
    assert cert.total == pytest.approx(total_oracle, rel=1e-14)
    assert cert.second_half_share == pytest.approx(share_oracle, rel=1e-12)
    assert cert.second_half_share == pytest.approx(3.9581e-09, rel=1e-4)
    # truncation at 64 loses essentially nothing: geometric bound ~ 1.8e-18
    assert cert.relative_remainder < 1e-10


def test_scale_pairing_swapped_roles_direct_summation():
    n = np.arange(64, dtype=float)
    a = 2.0 ** -n
    b = (np.arange(1, 65, dtype=float)) ** 2
    direct = sum(2.0 ** -k * (k + 1.0) ** 2 for k in range(64))
    cert = pairing_tail_certificate(a, b, smooth_side="interior")
    assert cert.total == pytest.approx(direct, rel=1e-13)
    assert cert.relative_remainder < 1e-10


def test_scale_pairing_rejects_polynomial_against_polynomial():
    n = np.arange(64, dtype=float)
    with pytest.raises(InvalidFamilyError):
        pairing_tail_certificate(n + 1.0, (n + 1.0) ** 2, smooth_side="exterior")


def test_scale_pairing_refusal_names_the_decay_verdict_and_its_slopes():
    # b_n = (n + 1)^2: the dyadic slopes log2(b_2j / b_j) at j = 8 and 16 settle near 2
    n = np.arange(64, dtype=float)
    slopes = [math.log2(((2 * j + 1) / (j + 1)) ** 2) for j in (8, 16)]
    with pytest.raises(InvalidFamilyError) as caught:
        pairing_tail_certificate(n + 1.0, (n + 1.0) ** 2, smooth_side="exterior")
    assert str(caught.value) == (
        "exterior family does not decay super-polynomially: classify_decay reads 'finite-order' from "
        f"its last dyadic log2 slopes ({slopes[0]:.4g}, {slopes[1]:.4g}); the pairing sum cannot be certified")
    # no dyadic pair j, 2j of nonzero terms, yet a nonzero second half: no slope decided it
    lone = np.zeros(64)
    lone[[0, 63]] = 1.0
    with pytest.raises(InvalidFamilyError, match=r"reads 'neither' from its last dyadic log2 slopes \(none\)"):
        pairing_tail_certificate(lone, n + 1.0, smooth_side="interior")


def test_scale_pairing_degenerate_terms():
    with pytest.raises(DegenerateInputError):
        pairing_tail_certificate(np.zeros(64), 2.0 ** -np.arange(1, 65), smooth_side="exterior")


def test_scale_suite_passes_both_directions():
    for direction in ("interior-finite-order", "exterior-finite-order"):
        report = verify_scale_pairing(direction, 64, seed=3)
        assert report.passed, report.to_doc()


def test_scale_suite_rejects_override_with_nondecaying_smooth_side():
    # the suite's finite-order family against a polynomial in place of its smooth side
    a, _, smooth_side = duality._scale_families("interior-finite-order", 64, np.random.default_rng(3))
    with pytest.raises(InvalidFamilyError):
        pairing_tail_certificate(a, (np.arange(64) + 1.0) ** 2, smooth_side)


# sha256 of the canonical report documents for seeds _SCALE_SEEDS, in order,
# as computed with the geometric family evaluated over its whole range
_SCALE_SEEDS = (0, 3, 15, 77, 9201)
_SCALE_DIGESTS = {
    ("interior-finite-order", 64): "d648eeb243ffa6e6949fc905528ed6759817c5a6a8f68661410fa07ed15cee3b",
    ("interior-finite-order", 512): "c8aa50685c93ed60daa2c3d8e8acd8ce912dcca280a3da27c98127d89d56e644",
    ("interior-finite-order", 4096): "0ab603c677f3a08402a33410d5964973e8e99e174f4dbcc969f77302aa7a82e9",
    ("interior-finite-order", 65536): "0ab603c677f3a08402a33410d5964973e8e99e174f4dbcc969f77302aa7a82e9",
    ("exterior-finite-order", 64): "abaf9603166ed8dbb18ed2d06668f4a0420551dc07dc2e5242eb12a404e2156f",
    ("exterior-finite-order", 512): "e4b271e10556be791bb59401e3e6fb8ab00c2b9e7a1002e4f745a3bb9fce5a98",
    ("exterior-finite-order", 4096): "610e3f7aa60ca418044f04031950186bca4700ad1860121ba252e01303f8d7a6",
    ("exterior-finite-order", 65536): "610e3f7aa60ca418044f04031950186bca4700ad1860121ba252e01303f8d7a6",
}


@pytest.mark.parametrize("direction, size", sorted(_SCALE_DIGESTS))
def test_scale_pairing_reports_are_unchanged(direction, size):
    digest = hashlib.sha256()
    for seed in _SCALE_SEEDS:
        digest.update(formats.canonical_json(verify_scale_pairing(direction, size, seed).to_doc()).encode())
    assert digest.hexdigest() == _SCALE_DIGESTS[direction, size]


class _PinnedRho:
    """A seeded generator whose ``uniform`` draw is consumed but answered with rho."""

    def __init__(self, seed, rho):
        self._rng, self._rho = np.random.default_rng(seed), rho

    def integers(self, *args):
        return self._rng.integers(*args)

    def uniform(self, *args):
        self._rng.uniform(*args)
        return self._rho

    def random(self, size):
        return self._rng.random(size)


def _families_in_full(seed, size, rho=None):
    """Both managed families computed over the whole range, from the same draws."""
    rng = np.random.default_rng(seed)
    power = int(rng.integers(1, 3))
    drawn = float(rng.uniform(0.3, 0.5))
    rho = drawn if rho is None else rho
    n = np.arange(size, dtype=float)
    phases_a = np.exp(2j * np.pi * rng.random(size))
    phases_b = np.exp(2j * np.pi * rng.random(size))
    return (n + 1.0) ** power * phases_a, rho ** (n + 1.0) * phases_b


@pytest.mark.parametrize("rho", [0.3, float(np.nextafter(0.5, 0.0)), None])
@pytest.mark.parametrize("seed", range(50))
def test_geometric_family_keeps_its_magnitudes_past_the_underflow_point(seed, rho):
    size = 2048
    rng = np.random.default_rng(seed) if rho is None else _PinnedRho(seed, rho)
    a, b, smooth_side = duality._scale_families("interior-finite-order", size, rng)
    polynomial, geometric = _families_in_full(seed, size, rho)
    assert smooth_side == "exterior"
    assert a.tobytes() == polynomial.tobytes()
    assert np.array_equal(np.abs(b), np.abs(geometric))
    swapped = duality._scale_families("exterior-finite-order", size, np.random.default_rng(seed))
    assert swapped[2] == "interior"
    assert np.array_equal(np.abs(swapped[0]), np.abs(_families_in_full(seed, size)[1]))


@pytest.mark.parametrize("size", [1000, 2048])
@pytest.mark.parametrize("direction", ["interior-finite-order", "exterior-finite-order"])
def test_scale_suite_passes_where_the_geometric_side_turns_subnormal(direction, size):
    for seed in range(50):
        report = verify_scale_pairing(direction, size, seed)
        assert report.passed, (seed, report.to_doc())


@pytest.mark.parametrize("finite_order_scale", [1.0, 2.0 ** 80])
def test_tail_ratios_skip_subnormal_factors(finite_order_scale):
    # b_n = 2^(-20 n) is normal up to n = 47; past it the stored values are
    # growing subnormals, whose ratios are rounding, not decay.  With the
    # scale 2^80 the terms stay normal and only the factor b_n is subnormal.
    n = np.arange(64)
    b = np.where(n < 48, 2.0 ** (-20.0 * n), 2.0 ** -1074 * (n - 46))
    a = finite_order_scale * (n + 1.0)
    terms = np.abs(a * b)
    expected = max(terms[k + 1] / terms[k] for k in range(32, 47))
    for cert in (pairing_tail_certificate(a, b, smooth_side="exterior"),
                 pairing_tail_certificate(b, a, smooth_side="interior")):
        assert cert.decay_ratio == expected
        assert cert.decay_ratio < 2.0 ** -19


def test_trace_ratio_uses_half_shifted_norm():
    rng = np.random.default_rng(60)
    v = ExteriorFunction(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    s = 1
    closed = functional_norm_closed_form(functional_from_exterior(v, s))
    denom = sobolev_norm(trace_exterior(v), 0.5 - s)
    assert dual_norm_trace_ratio(v, s) == pytest.approx(closed / denom, rel=1e-14)


# ---------------------------------------------------------------- batched probing

_finite = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False, allow_infinity=False)
_coeff = st.builds(complex, _finite, _finite)


def _coeff_vectors(min_size, max_size):
    return st.integers(min_size, max_size).flatmap(
        lambda k: arrays(np.complex128, k, elements=_coeff)
    )


def _bruteforce_reference(functional, degree_cap, iterations, seed):
    """The one-probe-at-a-time brute-force norm that the batched version replaced.

    Probes pair with the representative scaled by 2^-e, max |b| in
    [2^(e-1), 2^e), and each ratio is scaled back by 2^e.
    """
    b = functional.v.coeffs
    shift = math.frexp(max(np.abs(b), default=0.0))[1]
    unit = functional_from_exterior(ExteriorFunction(
        [complex(math.ldexp(z.real, -shift), math.ldexp(z.imag, -shift)) for z in b.tolist()]), functional.s)
    rng = np.random.default_rng(seed)
    maximizer = np.zeros(degree_cap, dtype=complex)
    maximizer[: b.size] = np.conj(unit.v.coeffs) * duality._maximizer_weights(functional.s, b.size)
    probes = [maximizer]
    for _ in range(iterations):
        probes.append(rng.standard_normal(degree_cap) + 1j * rng.standard_normal(degree_cap))
    best = 0.0
    for coeffs in probes:
        u = InteriorFunction(coeffs, functional.s)
        denom = sobolev_norm(trace_interior(u), functional.s - 0.5)
        if denom != 0.0:
            best = max(best, math.ldexp(abs(apply_functional(unit, u)) / denom, shift))
    return best


@given(
    block=st.tuples(st.integers(1, 6), st.integers(1, 40)).flatmap(
        lambda shape: arrays(np.complex128, shape, elements=_coeff)
    ),
    b=_coeff_vectors(0, 40),
)
# A one-column block: numpy forms a lone 1 x 1 complex product in another loop
# than a larger block's, and the two rounded this row's imaginary part apart.
@example(block=np.array([[0j], [-1.5 - 1j]]), b=np.array([9.9571505e-121 + 22369621.70750665j]))
def test_block_kernel_equals_row_by_row_apply(block, b):
    functional = functional_from_exterior(ExteriorFunction(b), 0)
    rows = duality._pair_rows(block, functional.v.coeffs)
    for row, value in zip(block, rows):
        assert complex(value) == apply_functional(functional, InteriorFunction(row))


@settings(deadline=None)
@given(
    b=_coeff_vectors(0, 24),
    extra=st.integers(0, 40),
    s=st.integers(-6, 6),
    iterations=st.integers(1, 6),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_batched_bruteforce_equals_the_probe_loop(b, extra, s, iterations, seed):
    functional = functional_from_exterior(ExteriorFunction(b), s)
    cap = max(b.size + extra, 1)
    assert functional_norm_bruteforce(functional, cap, iterations, seed) == \
        _bruteforce_reference(functional, cap, iterations, seed)


@settings(deadline=None, max_examples=40)
@given(
    block=st.tuples(st.integers(1, 5), st.integers(0, 24)).flatmap(
        lambda shape: arrays(np.complex128, shape, elements=_coeff)),
    extra=st.integers(0, 8),
    s=st.integers(-400, 400),
    seed=st.integers(0, 2 ** 32 - 5),
)
def test_block_rows_equal_their_one_row_calls(block, extra, s, seed):
    # the suite's block evaluation against the public one-row functions
    cap = max(block.shape[1] + extra, 1)
    seeds = [seed + i for i in range(block.shape[0])]
    mags = np.abs(block)
    brute = duality._bruteforce_rows(block, mags, s, cap, 3, seeds,
                                     duality._maximizer_weights(s, block.shape[1]))
    parts = duality._dual_norm_parts(mags, s)
    for i, row in enumerate(block):
        functional = functional_from_exterior(ExteriorFunction(row, 1 - s), s)
        assert brute[i] == functional_norm_bruteforce(functional, cap, 3, seeds[i])
        ratio = duality._trace_ratio(*(part[i] for part in parts))
        assert ratio == dual_norm_trace_ratio(functional.v, s)


@settings(deadline=None)
@given(b=_coeff_vectors(0, 40), s=st.integers(-400, 400))
def test_trace_ratio_equals_the_one_norm_at_a_time_ratio(b, s):
    # the ratio as formed from two separate norm computations on the containers
    v = ExteriorFunction(b, 1 - s)
    trace = trace_exterior(v)
    (denom, denom_scale), = spectral._norm_parts(np.abs(trace.coeffs), trace.n_min, (0.5 - s,))
    (root, scale), = spectral._norm_parts(np.abs(v.coeffs), 0, (0.5 - s,))
    expected = None if denom == 0.0 else math.ldexp(root / denom, int(scale - denom_scale))
    assert dual_norm_trace_ratio(v, s) == expected


# signed zeros, subnormals and values near the float limit, or Gaussians
_edge = st.sampled_from([0.0, -0.0, 1.5, -1.5, 1e-310, -1e-310, 1e308, -1e308])
_probe_vectors = st.one_of(
    st.integers(1, 300).flatmap(
        lambda k: arrays(np.complex128, k, elements=st.builds(complex, _edge, _edge))),
    st.tuples(st.integers(1, 300), st.integers(0, 2 ** 32 - 1)).map(
        lambda t: duality.complex_normal(np.random.default_rng(t[1]), t[0])),
)


@settings(deadline=None, max_examples=40)
@given(b=_probe_vectors, cap=st.integers(1, 400))
def test_reconstruction_is_exact_for_any_cap_and_block_size(b, cap):
    # cap may be below the support; a zero part of either sign reads +0.0,
    # as the pairing's sum gives it
    functional = functional_from_exterior(ExteriorFunction(b), 0)
    parts = b[:cap].view(float).copy()
    parts[parts == 0.0] = 0.0
    expected = np.zeros(cap, dtype=complex)
    expected[: min(cap, b.size)] = parts.view(complex)
    batched = reconstruct_exterior_from_blackbox(functional, cap)
    scalar = reconstruct_exterior_from_blackbox(lambda u: apply_functional(functional, u), cap)
    assert batched.coeffs.tobytes() == expected.tobytes()
    assert scalar.coeffs.tobytes() == expected.tobytes()


@pytest.mark.parametrize("cap", [1, 7, 1024, 5000])
def test_dual_functional_is_probed_once_per_reconstruction(cap):
    v = ExteriorFunction(duality.complex_normal(np.random.default_rng(cap), 9))
    functional = functional_from_exterior(v, 1)
    calls = []

    def counting(u):
        calls.append(u)
        return functional(u)

    wrapped = reconstruct_exterior_from_blackbox(counting, cap, 1)
    with mock.patch.object(DualFunctional, "__call__", autospec=True,
                           side_effect=DualFunctional.__call__) as direct:
        plain = reconstruct_exterior_from_blackbox(functional, cap, 1)
    assert len(calls) == 1 and direct.call_count == 1
    assert wrapped.coeffs.tobytes() == plain.coeffs.tobytes()


def test_reconstruction_memory_is_linear_in_the_cap():
    cap = 1 << 12
    v = ExteriorFunction(duality.complex_normal(np.random.default_rng(3), cap))
    functional = functional_from_exterior(v, 0)
    tracemalloc.start()
    try:
        reconstruct_exterior_from_blackbox(functional, cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 16 * cap


@pytest.mark.parametrize("cap", [0, -5])
def test_duality_suite_refuses_a_non_positive_probe_degree(cap):
    with pytest.raises(ValueError, match="need a positive probe degree"):
        verify_duality_isomorphism(0, 1, cap, 1)


@settings(deadline=None)
@given(cap=st.integers(1, 600), s=st.integers(-6, 6))
def test_zero_oracle_reconstructs_zero(cap, s):
    zero = functional_from_exterior(ExteriorFunction(np.zeros(0)), s)
    for oracle in (zero, lambda u: 0j):
        v = reconstruct_exterior_from_blackbox(oracle, cap, s)
        assert v.coeffs.size == cap and not np.any(v.coeffs)


def test_fractional_scale_index_is_refused():
    v = ExteriorFunction([1.0, 2.0])
    w = BoundaryDistribution.from_modes({-1: 1.0})
    for call in (lambda s: DualFunctional(v, s), lambda s: represent_functional(w, s),
                 lambda s: verify_duality_isomorphism(s, 1, 8, 1)):
        with pytest.raises(ValueError, match="scale index must be an integer"):
            call(0.5)
    assert DualFunctional(v, 2.0).s == 2 and isinstance(DualFunctional(v, 2.0).s, int)


def test_duality_suite_peak_memory_at_a_small_size():
    # 100 trials at N = 32 are one block: the probe rows and their norms peak
    # together, and the draws behind the rows are freed before (2.15 MB when
    # both were held, 1.73 MB without)
    verify_duality_isomorphism(0, 100, 32, 7)
    tracemalloc.start()
    try:
        verify_duality_isomorphism(0, 100, 32, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.95e6


# ---------------------------------------------------------------- split draws
# A block of at least two brute-force probe rows of at least
# duality._DRAW_SPLIT_NORMALS normals each is drawn on spectral's pool.  Every
# row has its own generator and slice, so its bits are the serial ones.

def _drawn_rows(monkeypatch, cpus, rows, n):
    """(results, probe block, whether the pool was asked for) of one _bruteforce_rows call."""
    rng = np.random.default_rng(n + rows)
    b = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    seeds = [int(seed) for seed in rng.integers(2 ** 32, size=rows)]
    seen, asked = [], []
    require_finite, split_pool = duality._require_finite, spectral._split_pool
    monkeypatch.setattr(spectral, "_cpus", lambda: cpus)
    monkeypatch.setattr(duality, "_require_finite", lambda values, what: (
        seen.append(values.copy()), require_finite(values, what)))
    monkeypatch.setattr(spectral, "_split_pool", lambda count: (asked.append(count), split_pool(count))[1])
    best = duality._bruteforce_rows(b, np.abs(b), 1, n, duality._SUITE_ITERATIONS, seeds,
                                    duality._maximizer_weights(1, n))
    (probes,) = seen
    for row, seed in zip(probes, seeds):  # the draws against fresh generators
        draws = np.random.default_rng(seed).standard_normal((duality._SUITE_ITERATIONS, 2, n))
        assert np.array_equal(row[1:].real, draws[:, 0]) and np.array_equal(row[1:].imag, draws[:, 1])
    return best, probes, bool(asked)


@pytest.mark.parametrize("n", [255, 256, 1024, 4096])
@pytest.mark.parametrize("rows", [1, 2, 3, 5])
def test_split_probe_draws_are_the_serial_draws_bit_for_bit(monkeypatch, rows, n):
    split_best, split_probes, split = _drawn_rows(monkeypatch, 4, rows, n)
    serial_best, serial_probes, serial = _drawn_rows(monkeypatch, 1, rows, n)
    assert split == (rows >= 2 and duality._SUITE_ITERATIONS * 2 * n >= duality._DRAW_SPLIT_NORMALS)
    assert not serial
    assert np.array_equal(split_probes.view(np.int64), serial_probes.view(np.int64))
    assert [value.hex() for value in split_best] == [value.hex() for value in serial_best]


def test_a_split_suite_report_is_the_serial_report(monkeypatch):
    # N = 1024 and 7 trials are one block of 7 rows of 2^14 normals
    monkeypatch.setattr(spectral, "_cpus", lambda: 4)
    split = _suite_bytes(0, 1024, 7, 9)
    monkeypatch.setattr(spectral, "_cpus", lambda: 1)
    assert split == _suite_bytes(0, 1024, 7, 9)


def test_a_small_suite_starts_no_pool(monkeypatch):
    monkeypatch.setattr(spectral, "_cpus", lambda: 4)
    monkeypatch.setattr(spectral, "_pool", None)
    threads = threading.active_count()
    verify_duality_isomorphism(0, 100, 32, 7)
    assert spectral._pool is None and threading.active_count() == threads


def test_the_cli_suite_at_n_32_imports_no_thread_pool():
    code = ("import contextlib, io, sys, threading, diskdual.cli\n"
            "imported = 'concurrent.futures' in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = diskdual.cli.run(['verify', '--suite', 'duality', '--N', '32', '--seed', '7'])\n"
            "print(code, imported, 'concurrent.futures' in sys.modules, threading.active_count())")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env)
    assert (proc.returncode, proc.stdout) == (0, "0 False False 1\n"), proc.stderr


def _send_suite(conn):
    conn.send(_suite_bytes(0, 1024, 4, 5))
    conn.close()


def test_a_forked_child_draws_on_a_fresh_pool(monkeypatch):
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    monkeypatch.setattr(spectral, "_pool", None)
    expected = _suite_bytes(0, 1024, 4, 5)
    assert spectral._pool is not None
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_suite, args=(send,))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        pytest.fail("the forked child hung on the inherited pool")
    assert child.exitcode == 0 and receive.recv() == expected


# The suite's trial loop calls array methods, not numpy's module-level
# wrappers, which cost a Python call each for the same reduction.
_WRAPPERS = ("all", "any", "sum", "max", "min", "argmax", "cumprod", "append", "full")


@pytest.mark.parametrize("s", [-2, 6])
def test_the_suite_calls_no_numpy_dispatch_wrapper(monkeypatch, s):
    calls = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("diskdual"):
                calls.append(name)
            return function(*args, **kwargs)
        return wrapper

    for name in _WRAPPERS:
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    for n, trials in ((32, 16), (256, 8), (1024, 4)):
        verify_duality_isomorphism(s, trials, n, 3)
    assert calls == []
