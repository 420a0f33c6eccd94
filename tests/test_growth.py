"""Growth families, scale placement, pointwise exponents, decay classes."""

import warnings

import numpy as np
import pytest
from scipy.special import binom, poch
from scipy.special import gamma as gamma_fn

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
from diskdual import growth
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
    # verdicts as from the unscaled weights, norms as sobolev_norm of the trace, bit for bit
    grid = range(-4, 4)
    for gamma in (0.5, 1.75, 3.0):
        u = _family(gamma, z0=np.exp(0.2j), degree=4096)
        mags = np.abs(u.coeffs)
        n = np.arange(mags.size, dtype=float)
        passing, curve = growth._scan_levels(mags, grid)
        assert passing == [s for s in grid if growth._converges((1.0 + n * n) ** (s - 0.5) * mags ** 2)]
        assert curve == tuple((s, sobolev_norm(trace_interior(u), s - 0.5)) for s in grid)
        assert estimate_min_sobolev(u, grid).norm_curve == curve


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


# ---------------------------------------------------------------- tail fit


def _lstsq_residual(mags):
    """The tail-fit residual by a dense least-squares solve, the reference for the closed form."""
    idx = np.arange(max(8, mags.size // 2), mags.size)
    keep = mags[idx] > 0
    if keep.sum() < 8:
        return 0.0
    x, y = np.log(idx[keep].astype(float)), np.log(mags[idx][keep])
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(np.sqrt(np.mean((y - design @ coef) ** 2)))


def _tails(size):
    n = np.arange(size, dtype=float)
    sparse = (n + 1.0) ** -1.0
    sparse[::3] = 0.0
    return {
        "power": (n + 1.0) ** -2.5,
        "irregular": (n + 1.0) ** -1.0 * (1.0 + 0.9 * np.sign(np.sin(n / 3.0))),
        "sparse": sparse,
        "exponential": np.exp(-0.01 * n),
        "tiny-steep": 1e-100 * (n + 1.0) ** 40,
    }


@pytest.mark.parametrize("degree", [64, 1000, 4096, 65536])
@pytest.mark.parametrize("gamma", [0.5, 3.0, 20.0])
def test_tail_fit_residual_matches_lstsq_on_family_tails(gamma, degree):
    mags = np.abs(_family(gamma, z0=np.exp(0.7j), degree=degree).coeffs)
    assert mags.all()  # the fast path: no zero in the tail
    expected = _lstsq_residual(mags)
    assert growth._tail_fit_residual(mags) == pytest.approx(expected, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("size", [64, 1001, 8192])
@pytest.mark.parametrize("kind", ["power", "irregular", "sparse", "exponential", "tiny-steep"])
def test_tail_fit_residual_matches_lstsq_with_and_without_zeros(kind, size):
    mags = np.abs(_tails(size)[kind])
    expected = _lstsq_residual(mags)
    assert growth._tail_fit_residual(mags) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_tail_fit_needs_eight_positive_tail_entries():
    mags = np.zeros(128)
    mags[:64] = 1.0
    mags[64:71] = np.arange(1.0, 8.0)  # seven positive entries in the tail
    assert _lstsq_residual(mags) == 0.0
    assert growth._tail_fit_residual(mags) == 0.0
    mags[127] = 5.0
    assert growth._tail_fit_residual(mags) > 0.0


@pytest.mark.parametrize("size", [256, 4096])
def test_the_irregular_sequence_stays_inconclusive(size):
    a = _tails(size)["irregular"]
    assert growth._tail_fit_residual(np.abs(a)) > growth._FIT_RESIDUAL_MAX
    assert estimate_min_sobolev(InteriorFunction(a), range(-3, 4)).flag == "inconclusive"


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


def test_growth_report_consistency():
    spec = GrowthFamilySpec(1.0, 1.0, 512)
    report = build_growth_report(spec, range(-4, 4))
    assert report.s_min_estimate == -1
    assert report.gamma_fitted == pytest.approx(1.0, abs=0.05)
    norms = [v for _, v in report.norm_curve]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(norms, norms[1:]))
    doc = report.to_doc()
    assert doc["s_min_estimate"] == -1 and doc["s_min_flag"] == "ok"
