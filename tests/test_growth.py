"""Growth families, scale placement, pointwise exponents, decay classes."""

import cmath
import hashlib
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import binom, poch
from scipy.special import gamma as gamma_fn

from conftest import child_env
from diskdual import (
    DegenerateInputError,
    GrowthFamilySpec,
    InteriorFunction,
    InvalidDataError,
    TruncationError,
    classify_decay,
    estimate_min_sobolev,
    growth_family_coeffs,
    pointwise_growth_exponent,
    sobolev_norm,
    trace_interior,
)
from diskdual import formats, growth, spectral
from diskdual.growth import build_growth_report


def _family(gamma, z0=1.0, degree=256):
    return growth_family_coeffs(GrowthFamilySpec(z0, gamma, degree))


# ---------------------------------------------------------------- coefficients


def test_family_gamma_one_is_geometric_series():
    u = _family(1.0, degree=32)
    np.testing.assert_allclose(u.coeffs, np.ones(33), atol=1e-15)


def test_family_gamma_two_is_derivative_of_geometric():
    u = _family(2.0, degree=32)
    np.testing.assert_allclose(u.coeffs, np.arange(1, 34), rtol=1e-14)


def test_family_fractional_gamma_first_terms():
    u = _family(0.5, degree=8)
    np.testing.assert_allclose(u.coeffs[:4], [1.0, 0.5, 0.375, 0.3125], rtol=1e-14)


def test_family_recurrence_matches_binomial_series():
    # a_n = binom(n + gamma - 1, n) conj(z0)^n
    for gamma in (0.5, 1.3, 2.0):
        z0 = np.exp(0.37j)
        u = _family(gamma, z0=z0, degree=64)
        n = np.arange(65)
        oracle = binom(n + gamma - 1, n) * np.conj(z0) ** n
        np.testing.assert_allclose(u.coeffs, oracle, rtol=1e-12)


@pytest.mark.parametrize("gamma", [0.5, 0.75, 1.0, 1.25, 2.0, 2.75, 3.0, 7.5, 20.0])
def test_family_magnitudes_match_the_gamma_closed_form(gamma):
    # |a_n| = Gamma(n + gamma) / (Gamma(gamma) n!), with poch(n + 1, gamma - 1)
    # = Gamma(n + gamma) / Gamma(n + 1) keeping the ratio accurate at large n
    degree = 2 ** 16
    u = _family(gamma, z0=np.exp(0.3j), degree=degree)
    n = np.arange(degree + 1, dtype=float)
    np.testing.assert_allclose(np.abs(u.coeffs), poch(n + 1.0, gamma - 1.0) / gamma_fn(gamma),
                               rtol=1e-10, atol=0)


def _recurrence_reference(spec):
    """The one-term recurrence as a Python loop, the form the running product replaced."""
    a = np.empty(spec.degree + 1, dtype=complex)
    a[0] = 1.0
    zc = np.conj(spec.z0)
    for n in range(spec.degree):
        a[n + 1] = a[n] * (n + spec.gamma) / (n + 1) * zc
    return a


@pytest.mark.parametrize("gamma", [0.5, 2.75, 20.0])
def test_family_matches_the_recurrence_loop(gamma):
    # both forms round each of the n factors of a_n once or twice
    spec = GrowthFamilySpec(np.exp(0.9j), gamma, 4096)
    np.testing.assert_allclose(growth_family_coeffs(spec).coeffs, _recurrence_reference(spec),
                               rtol=8 * spec.degree * np.finfo(float).eps, atol=0)


def _casting_divide_reference(spec):
    """The running product with its ratios formed by a casting divide into the complex array."""
    n = spec.degree
    a = np.empty(n + 1, dtype=complex)
    a[0] = 1.0
    np.divide(np.arange(n) + spec.gamma, np.arange(1.0, n + 1.0), out=a[1:])
    a[1:] *= np.conj(spec.z0)
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumprod(a, out=a)
    return a


@pytest.mark.parametrize("degree", [8, 1000, 65536])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.75, 20.0, 40.0])
@pytest.mark.parametrize("z0", [1.0, np.exp(0.7j), -1j])
def test_family_is_byte_identical_to_the_casting_divide(z0, gamma, degree):
    spec = GrowthFamilySpec(z0, gamma, degree)
    assert growth_family_coeffs(spec).coeffs.tobytes() == _casting_divide_reference(spec).tobytes()


def _one_shot_reference(spec):
    """The running product with all n ratios formed in one whole-array pass, as before chunking."""
    n = spec.degree
    ratios = np.arange(n, dtype=float)
    ratios += spec.gamma
    ratios /= np.arange(1, n + 1, dtype=float)
    a = np.empty(n + 1, dtype=complex)
    a[0] = 1.0
    np.multiply(ratios, np.conj(spec.z0), out=a[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        a.cumprod(out=a)
    return a


# degrees on both sides of the 2^15-entry chunks the ratios are formed in
_CHUNK_EDGES = [8, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1, 3 * 2 ** 15 + 7, 2 ** 18 + 3]


@pytest.mark.parametrize("degree", _CHUNK_EDGES)
@pytest.mark.parametrize("gamma", [0.5, 2.5, 40.0])
@pytest.mark.parametrize("z0", [1.0, np.exp(0.7j), -1j])
def test_chunked_ratios_are_the_one_shot_bytes(z0, gamma, degree):
    spec = GrowthFamilySpec(z0, gamma, degree)
    assert growth_family_coeffs(spec).coeffs.tobytes() == _one_shot_reference(spec).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("degree", _CHUNK_EDGES[1:])
def test_an_overflowing_degree_keeps_its_message_at_chunk_edges(degree):
    # gamma = 150 leaves the float range from about n = 6500 on
    with pytest.raises(InvalidDataError, match="^interior coefficients contain non-finite entries$"):
        _family(150.0, degree=degree)


@pytest.mark.parametrize("z0", [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
                                complex(-math.inf, math.inf)], ids=["nan", "nan-imag", "inf", "inf-inf"])
def test_non_finite_z0_is_refused_by_name(z0):
    # NaN once passed the |z0| = 1 check, which compared with >=
    with pytest.raises(ValueError, match="z0"):
        build_growth_report(GrowthFamilySpec(z0, 1.0, 64), range(-2, 2))
    with pytest.raises(ValueError, match="z0"):
        pointwise_growth_exponent(_family(1.0, degree=64), z0, [0.5, 0.75])


def test_family_spec_validation():
    with pytest.raises(ValueError):
        GrowthFamilySpec(0.5, 1.0, 64)  # z0 off the circle
    with pytest.raises(ValueError):
        GrowthFamilySpec(1.0, -1.0, 64)
    with pytest.raises(ValueError):
        GrowthFamilySpec(1.0, 1.0, 4)


# ---------------------------------------------------------------- scale placement


def test_minimal_index_for_first_order_singularity():
    est = estimate_min_sobolev(_family(1.0, degree=512), range(-4, 4))
    assert est.s_min == -1 and est.flag == "ok"


def test_minimal_index_for_second_order_singularity():
    est = estimate_min_sobolev(_family(2.0, degree=512), range(-4, 4))
    assert est.s_min == -2 and est.flag == "ok"


def test_polynomials_saturate_the_grid():
    a = np.zeros(128, dtype=complex)
    a[0] = 1.0
    a[3] = 1.0
    est = estimate_min_sobolev(InteriorFunction(a), range(-4, 4))
    assert est.s_min == 3 and est.flag == "entire-side-saturation"


def test_weighted_levels_equal_the_per_level_formula():
    # norms as sobolev_norm of the trace, bit for bit
    grid = range(-4, 4)
    for gamma in (0.5, 1.75, 3.0):
        u = _family(gamma, z0=np.exp(0.2j), degree=4096)
        curve = estimate_min_sobolev(u, grid).norm_curve
        assert curve == tuple((s, sobolev_norm(trace_interior(u), s - 0.5)) for s in grid)


@pytest.mark.parametrize("degree", [2 ** 15 - 2, 2 ** 15, 2 ** 16])
@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_levels_split_across_cpus_equal_the_per_level_formula(monkeypatch, cpus, degree):
    # past 2^15 weights the levels are summed in leaves on several threads, bit for bit
    u = _family(1.25, z0=np.exp(0.9j), degree=degree)
    expected = tuple((s, sobolev_norm(trace_interior(u), s - 0.5)) for s in range(-4, 4))
    monkeypatch.setattr(spectral, "_cpus", lambda: cpus)
    curve = estimate_min_sobolev(u, range(-4, 4)).norm_curve
    assert np.array(curve).view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()


def test_the_cli_growth_report_at_n_4096_imports_no_thread_pool():
    code = ("import contextlib, io, sys, threading, diskdual.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = diskdual.cli.run(['growth', '--gamma', '2', '--N', '4096'])\n"
            "print(code, 'concurrent.futures' in sys.modules, threading.active_count())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=child_env())
    assert (proc.returncode, proc.stdout) == (0, "0 False 1\n"), proc.stderr


def test_underflowing_weights_do_not_decide_the_scale():
    # (1 + n^2)^(-40.5) underflows from n ~ 2^13 on; the trace norm of index
    # s - 1/2 converges exactly for s < 1 - gamma = -39
    u = _family(40.0, degree=65536)
    est = estimate_min_sobolev(u, range(-40, -19))
    assert est.s_min == -40 and est.flag == "ok"
    assert all(np.isfinite(v) and v > 0 for _, v in est.norm_curve)


def test_scale_guards():
    with pytest.raises(DegenerateInputError):
        estimate_min_sobolev(InteriorFunction(np.zeros(128)), range(-2, 2))
    with pytest.raises(TruncationError):
        estimate_min_sobolev(InteriorFunction(np.ones(32)), range(-2, 2))


def test_scale_is_nested():
    # passing at s implies passing at every smaller s on the grid
    for gamma in (0.7, 1.0, 1.5, 2.0):
        u = _family(gamma, degree=512)
        est = estimate_min_sobolev(u, range(-5, 4))
        assert est.s_min is not None
        for s in range(-5, est.s_min + 1):
            sub = estimate_min_sobolev(u, [s])
            assert sub.s_min == s or sub.flag == "entire-side-saturation"


def test_irregular_tail_is_inconclusive():
    n = np.arange(256, dtype=float)
    a = np.exp(np.sqrt(n)) * (1 + 0.5 * np.sin(7 * np.log(n + 1)))
    est = estimate_min_sobolev(InteriorFunction(a), range(-8, 2))
    assert est.flag in ("inconclusive", "below-grid")


# ---------------------------------------------------------------- tail exponent


def _expected_s_min(gamma):
    """Largest integer s with s < 1 - gamma."""
    return math.ceil(1.0 - gamma) - 1


@pytest.mark.parametrize("z0", [1.0, np.exp(0.7j)], ids=["z0=1", "z0=e^0.7i"])
@pytest.mark.parametrize("gamma", [0.5, 1, 1.5, 2, 3, 5, 7.5, 10, 20, 40])
@pytest.mark.parametrize("degree", [512, 4096, 65536])
def test_no_wrong_placement_under_ok(degree, gamma, z0):
    # the corrections gamma (gamma - 1) / (2n) of a_n once misplaced gamma = 5,
    # 10, 20 and 40 by one level; a report may be inconclusive, never wrong
    est = estimate_min_sobolev(_family(gamma, z0=z0, degree=degree), range(-45, 4))
    assert est.flag in ("ok", "inconclusive")
    if est.flag == "ok":
        assert est.s_min == _expected_s_min(gamma)


@pytest.mark.parametrize("degree", [4096, 65536])
@pytest.mark.parametrize("gamma", [1, 2, 3, 10])
def test_integer_gamma_reads_the_log_divergent_edge(gamma, degree):
    est = estimate_min_sobolev(_family(gamma, degree=degree), range(-12, 4))
    assert (est.s_min, est.flag, est.edge) == (-gamma, "ok", 1 - gamma)
    assert est.edge_distance <= growth._EDGE * max(est.bar, growth._BAR_FLOOR)
    assert est.tail_exponent == pytest.approx(gamma - 1, abs=1e-6)


def test_tail_exponent_matches_the_family_to_the_bar():
    # the last extrapolant errs by about a seventh of the bar
    for gamma in (0.5, 2.75, 7.5):
        p, bar = growth._tail_exponent(np.abs(_family(gamma, degree=4096).coeffs))
        assert abs(p - (gamma - 1)) <= bar / 5


# the support ends before the last dyadic block [2^k, 2^(k+1)) within the size
@pytest.mark.parametrize("size, support", [(64, 1), (64, 32), (128, 40), (256, 100), (4096, 1), (4096, 2048)])
def test_finite_support_saturates_the_grid(size, support):
    a = np.zeros(size)
    a[:support] = np.arange(1.0, support + 1.0)
    est = estimate_min_sobolev(InteriorFunction(a), range(-4, 4))
    assert (est.s_min, est.flag) == (3, "entire-side-saturation")
    assert est.tail_exponent is None and est.edge is None


@pytest.mark.parametrize("size", [64, 100, 128, 200, 255])
def test_fewer_than_five_blocks_are_inconclusive(size):
    # [8, 16) .. [128, 256) are the five blocks two Richardson steps and a bar need
    est = estimate_min_sobolev(_family(1.5, degree=size - 1), range(-4, 4))
    assert (est.s_min, est.flag, est.tail_exponent, est.bar) == (None, "inconclusive", None, None)
    assert estimate_min_sobolev(_family(1.5, degree=255), range(-4, 4)).flag == "ok"


def test_a_zero_block_is_inconclusive():
    a = np.abs(_family(1.5, degree=4096).coeffs)
    a[1024:2048] = 0.0
    assert estimate_min_sobolev(InteriorFunction(a), range(-4, 4)).flag == "inconclusive"


def test_an_unsafe_margin_is_inconclusive_only_on_the_grid():
    # gamma = 40 at N = 512 has a bar of 0.27: too wide to read -39 as the edge
    est = estimate_min_sobolev(_family(40.0, degree=512), range(-45, 4))
    assert est.flag == "inconclusive" and est.bar > growth._BAR_MAX and est.edge is None
    # -39 is the only level within the margin; a grid without it is decided
    assert estimate_min_sobolev(_family(40.0, degree=512), range(-38, 4)).flag == "below-grid"
    assert estimate_min_sobolev(_family(40.0, degree=512), range(-45, -39)).flag == "entire-side-saturation"


@pytest.mark.parametrize("levels, named", [
    ([0.5, -1.5, True], "0.5"),  # truncated, these read levels -1, 0, 1 and "below-grid"
    ([-1.5], "-1.5"),
    ([-2, True], "True"),
    ([-2, np.True_], "True"),
    ([-2, float("nan")], "nan"),
    ([-2, np.inf], "inf"),
    ([-2, -np.inf], "-inf"),
    ([-2, 1e-300], "1e-300"),
])
def test_a_grid_level_that_is_no_integer_is_refused(levels, named):
    u = _family(2.5)
    with pytest.raises(ValueError, match=f"Sobolev grid level {named} is not an integer"):
        estimate_min_sobolev(u, levels)
    with pytest.raises(ValueError, match=f"Sobolev grid level {named} is not an integer"):
        build_growth_report(GrowthFamilySpec(1.0, 2.5, 256), levels)
    # integral floats and numpy integers are levels
    assert estimate_min_sobolev(u, [-2.0, np.int64(-1), 0, 1.0]).s_min == -2


@pytest.mark.parametrize("size", [256, 4096])
def test_the_irregular_sequence_is_placed_exactly(size):
    # |a_n|^2 ~ n^-2 times a bounded factor: level 1 diverges, level 0 converges
    n = np.arange(size, dtype=float)
    a = (n + 1.0) ** -1.0 * (1.0 + 0.9 * np.sign(np.sin(n / 3.0)))
    est = estimate_min_sobolev(InteriorFunction(a), range(-3, 4))
    assert (est.s_min, est.flag) == (0, "ok")


def test_smooth_decay_saturates_once_resolved():
    n = np.arange(4097, dtype=float)
    est = estimate_min_sobolev(InteriorFunction(np.exp(-0.01 * n)), range(-4, 4))
    assert (est.s_min, est.flag) == (3, "entire-side-saturation")


def test_family_coefficients_are_read_only():
    u = _family(2.5, degree=64)
    assert not u.coeffs.flags.writeable
    with pytest.raises(ValueError):
        u.coeffs[0] = 2.0
    assert u.index == 0.0 and u.degree == 64


def test_family_coefficient_overflow_is_refused_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidDataError, match="interior coefficients contain non-finite entries"):
            _family(100.0, degree=65536)


# ---------------------------------------------------------------- pointwise growth


def test_pointwise_exponent_first_order():
    radii = 1 - 2.0 ** -np.arange(2, 8)
    fit = pointwise_growth_exponent(_family(1.0, degree=2048), 1.0, radii)
    assert fit.gamma_fitted == pytest.approx(1.0, abs=0.01)
    assert fit.c_fitted == pytest.approx(1.0, abs=0.02)
    assert not fit.truncation_warning


def test_pointwise_exponent_second_order():
    # oracle: |u(r)| = (1 - r)^-2 exactly for the order-2 family at z0 = 1
    radii = 1 - 2.0 ** -np.arange(2, 8)
    u = _family(2.0, degree=4096)
    fit = pointwise_growth_exponent(u, 1.0, radii)
    assert fit.gamma_fitted == pytest.approx(2.0, abs=0.02)
    direct = (1 - radii) ** -2.0
    from diskdual import evaluate_interior
    vals = np.abs([evaluate_interior(u, r) for r in radii])
    np.testing.assert_allclose(vals, direct, rtol=1e-9)


def test_bounded_function_has_no_growth():
    fit = pointwise_growth_exponent(
        InteriorFunction([1.0, 1.0]), 1.0, 1 - 2.0 ** -np.arange(2, 8)
    )
    assert abs(fit.gamma_fitted) < 0.05


def test_truncation_warning_for_short_series():
    radii = 1 - 2.0 ** -np.arange(2, 8)
    fit = pointwise_growth_exponent(_family(1.0, degree=64), 1.0, radii)
    assert fit.truncation_warning


def test_radii_validation():
    u = _family(1.0, degree=64)
    with pytest.raises(ValueError):
        pointwise_growth_exponent(u, 1.0, [0.9, 0.5])
    with pytest.raises(ValueError):
        pointwise_growth_exponent(u, 1.0, [0.5, 1.0 - 1e-9])


# ---------------------------------------------------------------- decay classes


def test_classify_geometric_decay_as_smooth():
    assert classify_decay(2.0 ** -np.arange(256, dtype=float)) == "smooth"


def test_classify_polynomial_growth_as_finite_order():
    assert classify_decay(np.arange(1, 257, dtype=float)) == "finite-order"


def test_classify_stretched_exponential_as_neither():
    # direct evaluation: the local log-log exponent of exp(sqrt(n)) between
    # dyadic windows keeps growing (sqrt(2n) - sqrt(n) ~ 0.41 sqrt(n)), so no
    # fixed polynomial bound fits
    n = np.arange(256, dtype=float)
    seq = np.exp(np.sqrt(n))
    slope = lambda j: np.log2(seq[2 * j] / seq[j])
    assert slope(64) - slope(32) > 0.5
    assert slope(32) - slope(16) > 0.5
    assert classify_decay(seq) == "neither"


def test_classify_short_support_guard():
    with pytest.raises(TruncationError):
        classify_decay(np.ones(8))


# ---------------------------------------------------------------- report


@pytest.mark.parametrize("gamma, degree, s_grid", [
    (2.0, 4096, range(-4, 4)),     # an edge
    (1.5, 4096, range(-4, 4)),     # no edge
    (40.0, 512, range(-45, 4)),    # inconclusive at a wide bar
    (1.5, 128, range(-4, 4)),      # too few blocks
])
def test_placement_fields_are_finite_or_null(gamma, degree, s_grid):
    doc = build_growth_report(GrowthFamilySpec(1.0, gamma, degree), s_grid).to_doc()
    for key in ("tail_exponent", "tail_exponent_bar", "edge_distance", "log_divergent_edge"):
        assert doc[key] is None or math.isfinite(doc[key]), (key, doc[key])
    assert (doc["log_divergent_edge"] is None) == (gamma != 2.0)
    assert (doc["tail_exponent"] is None) == (degree < 255)


def test_growth_report_consistency():
    spec = GrowthFamilySpec(1.0, 1.0, 512)
    report = build_growth_report(spec, range(-4, 4))
    assert report.placement.s_min == -1
    assert report.fit.gamma_fitted == pytest.approx(1.0, abs=0.05)
    norms = [v for _, v in report.placement.norm_curve]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(norms, norms[1:]))
    doc = report.to_doc()
    assert doc["s_min_estimate"] == -1 and doc["s_min_flag"] == "ok"


# sha256 of the canonical report at sizes whose weight passes are split
# across CPUs, taken before any pass was split (like the CLI goldens, under
# numpy's AVX-512 dispatch); on one CPU the same bytes come from the serial path.
LARGE_REPORT_DIGESTS = {
    (1.5, 0.3, 2 ** 18): "b8e302f8184e5d9a5cf3e1773ff2d478e2482c1be9546f1fdddf6470e8bedec8",
    (2.25, -1.1, 2 ** 20): "c5b22a9cbee567a7d8de252154bdf223fa005efa670c3758b08b7c3c6508b726",
}


@pytest.mark.parametrize("gamma, angle, degree", sorted(LARGE_REPORT_DIGESTS))
def test_large_growth_reports_are_unchanged(gamma, angle, degree):
    report = build_growth_report(GrowthFamilySpec(cmath.exp(1j * angle), gamma, degree), range(-4, 4))
    digest = hashlib.sha256(formats.canonical_json(report.to_doc()).encode()).hexdigest()
    assert digest == LARGE_REPORT_DIGESTS[gamma, angle, degree]


def test_growth_report_memory_is_two_coefficient_arrays(monkeypatch):
    # The peak is the family's coefficients and their validated copy, with the
    # copy's finiteness mask; the ratios are formed in chunks into the result.
    # On one CPU the placement's norm leaves run one at a time and stay below it.
    monkeypatch.setattr(spectral, "_cpus", lambda: 1)
    spec = GrowthFamilySpec(cmath.exp(0.3j), 1.5, 2 ** 18)
    build_growth_report(spec, range(-4, 4))
    tracemalloc.start()
    try:
        build_growth_report(spec, range(-4, 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result = 16 * (spec.degree + 1)
    assert peak <= 2 * result + result // 16 + 2 ** 20, peak / result
