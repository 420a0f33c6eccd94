"""Contour quadrature: residues, Cauchy kernel, pairings, convergence."""

import cmath
import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskdual import (
    BoundaryDistribution,
    BoundaryProximityError,
    CurveDescriptor,
    ExteriorFunction,
    InteriorFunction,
    InvalidDataError,
    InvalidGridError,
    QuadratureGrid,
    boundary_node_values,
    cauchy_integral_quadrature,
    cauchy_transform,
    contour_integral,
    exterior_node_values,
    fourier_synthesize,
    interior_node_values,
    koethe_pairing,
    pairing_quadrature,
    trace_exterior,
    trace_interior,
)
from diskdual import curves, hardy, spectral

CIRCLE = CurveDescriptor.circle()
ELLIPSE = CurveDescriptor.ellipse(1.5, 0.7)
WOBBLE = CurveDescriptor.perturbed_circle(0.1, 3)


# ---------------------------------------------------------------- contour integrals


def test_residue_on_the_circle_at_coarse_grid():
    grid = QuadratureGrid(16)
    vals = 1.0 / CIRCLE.point(grid.nodes)
    assert abs(contour_integral(vals, CIRCLE, grid) - 2j * np.pi) < 1e-12


def test_exact_differential_integrates_to_zero():
    grid = QuadratureGrid(32)
    for curve in (CIRCLE, ELLIPSE, WOBBLE):
        vals = curve.point(grid.nodes)
        assert abs(contour_integral(vals, curve, grid)) < 1e-12


def test_residue_on_the_ellipse():
    grid = QuadratureGrid(64)
    vals = 1.0 / ELLIPSE.point(grid.nodes)
    assert abs(contour_integral(vals, ELLIPSE, grid) - 2j * np.pi) < 1e-10


def test_orientation_reversal_negates_integrals():
    grid = QuadratureGrid(64)
    for curve in (CIRCLE, ELLIPSE, WOBBLE):
        rev = curve.reversed()
        vals = 1.0 / curve.point(grid.nodes)
        vals_rev = 1.0 / rev.point(grid.nodes)
        fwd = contour_integral(vals, curve, grid)
        bwd = contour_integral(vals_rev, rev, grid)
        assert abs(fwd + bwd) < 1e-12


def test_contour_integral_rejects_nonfinite_values():
    grid = QuadratureGrid(16)
    vals = np.ones(16, dtype=complex)
    vals[5] = np.inf
    with pytest.raises(InvalidDataError):
        contour_integral(vals, CIRCLE, grid)


def test_grid_validation():
    with pytest.raises(InvalidGridError):
        QuadratureGrid(15)
    with pytest.raises(InvalidGridError):
        QuadratureGrid(8)


def test_curve_parsing():
    assert CurveDescriptor.parse("circle:1.0") == CIRCLE
    assert CurveDescriptor.parse("ellipse:1.5,0.7") == ELLIPSE
    assert CurveDescriptor.parse("perturbed-circle:0.1,3") == WOBBLE
    with pytest.raises(ValueError):
        CurveDescriptor.parse("square:1")
    with pytest.raises(ValueError):
        CurveDescriptor.parse("ellipse:1.5,nope")


# ---------------------------------------------------------------- Cauchy kernel


def test_cauchy_formula_reproduces_polynomial_inside():
    grid = QuadratureGrid(128)
    vals = CIRCLE.point(grid.nodes) ** 2
    assert abs(cauchy_integral_quadrature(vals, CIRCLE, grid, 0.1) - 0.01) < 1e-12


def test_cauchy_formula_on_ellipse_center():
    grid = QuadratureGrid(128)
    vals = ELLIPSE.point(grid.nodes) ** 2
    assert abs(cauchy_integral_quadrature(vals, ELLIPSE, grid, 0.0) - 0.0) < 1e-10


def test_cauchy_formula_exterior_data():
    grid = QuadratureGrid(64)
    vals = 1.0 / CIRCLE.point(grid.nodes)
    value = cauchy_integral_quadrature(vals, CIRCLE, grid, 3.0)
    assert abs(value - (-1.0 / 3.0)) < 1e-12
    assert abs(-value - 1.0 / 3.0) < 1e-12


def test_proximity_guard_names_its_bound():
    grid = QuadratureGrid(64)
    vals = np.ones(64, dtype=complex)
    with pytest.raises(BoundaryProximityError, match="arc_length / M"):
        cauchy_integral_quadrature(vals, CIRCLE, grid, 0.9)


# ---------------------------------------------------------------- pairings


def test_pairing_residue_example():
    grid = QuadratureGrid(32)
    zeta = CIRCLE.point(grid.nodes)
    assert abs(pairing_quadrature(np.ones(32), 1 / zeta, CIRCLE, grid) - 1.0) < 1e-13


def test_pairing_matches_spectral_value():
    grid = QuadratureGrid(64)
    zeta = CIRCLE.point(grid.nodes)
    quad = pairing_quadrature(1 + 2 * zeta, 3 / zeta + 4 / zeta ** 2, CIRCLE, grid)
    assert abs(quad - 11.0) < 1e-11


def test_pairing_is_deformation_invariant():
    for curve, m in ((ELLIPSE, 128), (WOBBLE, 128)):
        grid = QuadratureGrid(m)
        zeta = curve.point(grid.nodes)
        assert abs(pairing_quadrature(np.ones(m), 1 / zeta, curve, grid) - 1.0) < 1e-10


def test_spectral_vs_quadrature_agreement_on_random_band_limited_data():
    rng = np.random.default_rng(77)
    grid = QuadratureGrid(256)
    for _ in range(10):
        span = int(rng.integers(1, grid.m // 4))
        f = BoundaryDistribution(
            -span, rng.standard_normal(2 * span + 1) + 1j * rng.standard_normal(2 * span + 1)
        )
        g = BoundaryDistribution(
            -span, rng.standard_normal(2 * span + 1) + 1j * rng.standard_normal(2 * span + 1)
        )
        fv = fourier_synthesize(f, grid.m)
        gv = fourier_synthesize(g, grid.m)
        assert abs(pairing_quadrature(fv, gv, CIRCLE, grid) - koethe_pairing(f, g)) < 1e-10
        for z in (0.5 + 0.2j, 2.0 - 1.0j):
            quad = cauchy_integral_quadrature(fv, CIRCLE, grid, z)
            assert abs(quad - cauchy_transform(f, z)) < 1e-10


def test_quadrature_error_decays_spectrally():
    # integrand with an interior pole at 0.7: error ~ 0.7^M, slope >> 4
    errs = []
    for m in (32, 64, 128):
        grid = QuadratureGrid(m)
        vals = 1.0 / (CIRCLE.point(grid.nodes) - 0.7)
        errs.append(abs(contour_integral(vals, CIRCLE, grid) - 2j * np.pi))
    slope = -np.polyfit(np.log([32, 64, 128]), np.log(errs), 1)[0]
    assert slope > 4.0


# ---------------------------------------------------------------- node values


def test_node_value_helpers():
    grid = QuadratureGrid(32)
    u = InteriorFunction([1.0, 2.0])
    v = ExteriorFunction([3.0, 4.0])
    zeta = ELLIPSE.point(grid.nodes)
    np.testing.assert_allclose(interior_node_values(u, ELLIPSE, grid), 1 + 2 * zeta)
    np.testing.assert_allclose(exterior_node_values(v, ELLIPSE, grid), 3 / zeta + 4 / zeta ** 2)
    f = trace_interior(u)
    np.testing.assert_allclose(
        boundary_node_values(f, CIRCLE, grid), interior_node_values(u, CIRCLE, grid), atol=1e-13
    )
    with pytest.raises(ValueError):
        boundary_node_values(f, ELLIPSE, grid)


def test_orthogonality_of_interior_traces_by_quadrature():
    rng = np.random.default_rng(88)
    u = InteriorFunction(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    w = InteriorFunction(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    for curve, m in ((CIRCLE, 64), (ELLIPSE, 128)):
        grid = QuadratureGrid(m)
        quad = pairing_quadrature(
            interior_node_values(u, curve, grid), interior_node_values(w, curve, grid), curve, grid
        )
        assert abs(quad) < 1e-11
    assert koethe_pairing(trace_interior(u), trace_interior(w)) == 0j


def test_curve_invariants():
    for curve in (CIRCLE, ELLIPSE, WOBBLE):
        theta = np.linspace(0, 2 * np.pi, 257)
        assert np.min(np.abs(curve.derivative(theta))) > 0
    with pytest.raises(ValueError):
        CurveDescriptor.perturbed_circle(1.2, 3)
    with pytest.raises(ValueError):
        CurveDescriptor.circle(-1.0)
    assert CurveDescriptor.parse("circle:") == CurveDescriptor.parse("circle") == CIRCLE


@pytest.mark.filterwarnings("error")
def test_wavenumber_cap_keeps_the_jet_finite():
    curve = CurveDescriptor.perturbed_circle(0.5, 2.0 ** 53)
    for values in curve._jet(QuadratureGrid(2 ** 14).nodes):
        assert np.all(np.isfinite(values))
    for k in (2.0 ** 53 + 2, 1e200, 2.5, 0):
        with pytest.raises(ValueError, match="wavenumber"):
            CurveDescriptor.perturbed_circle(0.5, k)


# ---------------------------------------------------------------- node geometry cache


def test_cached_geometry_equals_the_curve_formulas_bit_for_bit():
    for curve in (CIRCLE, ELLIPSE, WOBBLE):
        for c in (curve, curve.reversed()):
            for m in (16, 96, 4096):
                grid = QuadratureGrid(m)
                zeta, dzeta = curves._node_geometry(c, grid)
                assert zeta.tobytes() == c.point(grid.nodes).tobytes()
                assert dzeta.tobytes() == c.derivative(grid.nodes).tobytes()
                assert not zeta.flags.writeable and not dzeta.flags.writeable


# sha256 of the curve formulas' bytes, taken before point, derivative and the
# Newton jet shared one formula per kind: both orientations, the grids M below
# and four scalar parameters.  M >= 2^14 is where numpy may multiply into a
# temporary in place, which rounds differently from a fresh output array.
_GEOMETRY_DIGESTS = {
    "circle": "652c6f2e94126256f330861025f349ca6c2fb239917c11bc0fa9731229923b44",
    "ellipse": "fdeb30093a849606f482b1a59e606524b9ef0546f09234b2472e473969bcaaaf",
    "perturbed-circle": "30369d4fe2709c9b23a4da3ea05fe869e2c860a1b403710f387091df1d75d0c5",
}
_DISTANCE_DIGEST = "0978143c606f64da2ac1675ff6dfa6c5f5d9e63b4c6f1be7323fc4b69bb56a1e"
_EXTRA_CURVES = (CurveDescriptor.perturbed_circle(0.1, 5), CurveDescriptor.perturbed_circle(0.5, 40),
                 CurveDescriptor.ellipse(1e300, 1.0), CurveDescriptor.circle(1e-300),
                 CurveDescriptor.circle(1e100))
_ARC_LENGTHS = ("0x1.921fb54442d18p+2", "0x1.c91580c0fb7d1p+2", "0x1.9b0bb42145f2ap+2",
                "0x1.aa3d69d2ebfe6p+2", "0x1.42318cb82402ap+6", "0x1.7e43c3966d8e4p+998",
                "0x1.0d4cab14b6bc0p-994", "0x1.cb9f5c3f2eb86p+334")


@pytest.mark.parametrize("curve", [CIRCLE, ELLIPSE, WOBBLE], ids=lambda c: c.kind)
def test_curve_formulas_keep_their_pinned_bytes(curve):
    digest = hashlib.sha256()
    for c in (curve, curve.reversed()):
        for m in (16, 96, 4096, 2 ** 14, 2 ** 16):
            nodes = QuadratureGrid(m).nodes
            digest.update(c.point(nodes).tobytes())
            digest.update(c.derivative(nodes).tobytes())
        for theta in (0.0, 0.3, 2.0, 5.5):
            digest.update(np.asarray(c.point(theta)).tobytes())
            digest.update(np.asarray(c.derivative(theta)).tobytes())
    assert digest.hexdigest() == _GEOMETRY_DIGESTS[curve.kind]


def test_distances_keep_their_pinned_reprs():
    rng = np.random.default_rng(20241019)
    digest = hashlib.sha256()
    for curve in (CIRCLE, ELLIPSE, WOBBLE, *_EXTRA_CURVES[:2]):
        for c in (curve, curve.reversed()):
            points = list(rng.uniform(-2.5, 2.5, (20, 2)) @ np.array([1.0, 1j]))
            theta = rng.uniform(0, 2 * np.pi, 10)
            tangent = c.derivative(theta)
            points += list(c.point(theta) + rng.uniform(-1e-3, 1e-3, 10) * 1j * tangent / abs(tangent))
            digest.update(" ".join(repr(c.distance_to(z)) for z in points).encode())
    for c in _EXTRA_CURVES[2:]:
        digest.update(" ".join(repr(c.distance_to(z)) for z in (0.1, 0.5j, 3.0 + 1.0j)).encode())
    assert digest.hexdigest() == _DISTANCE_DIGEST


def test_arc_lengths_keep_their_pinned_values():
    for curve, expected in zip((CIRCLE, ELLIPSE, WOBBLE, *_EXTRA_CURVES), _ARC_LENGTHS):
        assert curve.arc_length().hex() == expected
        assert curve.reversed().arc_length().hex() == expected


def test_mutating_returned_node_values_changes_no_later_result():
    grid = QuadratureGrid(128)
    u = InteriorFunction([1.0, 2.0, 0.5j])
    v = ExteriorFunction([3.0, -1j])
    u_first = interior_node_values(u, ELLIPSE, grid).copy()
    v_first = exterior_node_values(v, ELLIPSE, grid).copy()
    quad = cauchy_integral_quadrature(u_first, ELLIPSE, grid, 0.2)
    for values in (interior_node_values(u, ELLIPSE, grid), exterior_node_values(v, ELLIPSE, grid),
                   exterior_node_values(ExteriorFunction([]), ELLIPSE, grid)):
        values[:] = np.nan
    assert np.array_equal(interior_node_values(u, ELLIPSE, grid), u_first)
    assert np.array_equal(exterior_node_values(v, ELLIPSE, grid), v_first)
    assert cauchy_integral_quadrature(u_first, ELLIPSE, grid, 0.2) == quad
    assert np.array_equal(ELLIPSE.point(grid.nodes), curves._node_geometry(ELLIPSE, grid)[0])


def test_oracle_shares_no_code_with_the_spectral_side(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the quadrature oracle called the spectral code")

    for module, name in ((hardy, "_series"), (spectral, "fourier_analyze"),
                         (spectral, "fourier_synthesize"), (curves, "fourier_synthesize")):
        monkeypatch.setattr(module, name, refuse)
    grid = QuadratureGrid(256)
    zeta = ELLIPSE.point(grid.nodes)
    u = InteriorFunction([1.0, 2.0, 0.5j])
    v = ExteriorFunction([3.0, -1j])
    u_vals = interior_node_values(u, ELLIPSE, grid)
    v_vals = exterior_node_values(v, ELLIPSE, grid)
    np.testing.assert_allclose(u_vals, 1.0 + 2.0 * zeta + 0.5j * zeta ** 2)
    np.testing.assert_allclose(v_vals, 3.0 / zeta - 1j / zeta ** 2)
    # u inside the curve, -v outside it
    nodes = u_vals + v_vals
    assert abs(cauchy_integral_quadrature(nodes, ELLIPSE, grid, 0.3) - (1.6 + 0.045j)) < 1e-12
    assert abs(cauchy_integral_quadrature(nodes, ELLIPSE, grid, 3.0) - (-1.0 + 1j / 9)) < 1e-12
    assert abs(pairing_quadrature(u_vals, v_vals, ELLIPSE, grid) - (3.0 - 2j)) < 1e-12


# ---------------------------------------------------------------- near-curve guard


def _off_curve_point(curve, theta, distance, side):
    """Point at the given distance along the normal, left of the direction of travel if side=1."""
    tangent = curve.derivative(theta)
    return complex(curve.point(theta) + side * distance * 1j * tangent / abs(tangent))


def test_guard_refuses_a_point_between_the_distance_samples():
    # Regression: the 4096 fixed samples put this point at 5.6e-4 from the
    # ellipse, far above the M = 2^18 bound of 2.7e-4; its true distance is 1.6e-4.
    grid = QuadratureGrid(2 ** 18)
    bound = curves.PROXIMITY_FACTOR * ELLIPSE.arc_length() / grid.m
    theta = 2 * np.pi * 1024.5 / 4096
    z = _off_curve_point(ELLIPSE, theta, 0.6 * bound, -1)
    assert np.min(np.abs(curves._node_geometry(ELLIPSE, curves._SAMPLE_GRID)[0] - z)) > bound
    assert abs(ELLIPSE.distance_to(z) - 0.6 * bound) < 1e-9 * bound
    with pytest.raises(BoundaryProximityError):
        cauchy_integral_quadrature(np.ones(grid.m), ELLIPSE, grid, z)


@pytest.mark.parametrize("curve", [CIRCLE, ELLIPSE, WOBBLE, ELLIPSE.reversed()],
                         ids=["circle", "ellipse", "wobble", "ellipse-reversed"])
def test_guard_holds_its_bound_up_to_two_to_the_eighteen(curve):
    rng = np.random.default_rng(7)
    for k in range(10, 19):
        grid = QuadratureGrid(2 ** k)
        bound = curves.PROXIMITY_FACTOR * curve.arc_length() / grid.m
        for theta in rng.uniform(0.0, 2 * np.pi, 4):
            for side in (1, -1):
                near = _off_curve_point(curve, theta, 0.6 * bound, side)
                with pytest.raises(BoundaryProximityError):
                    cauchy_integral_quadrature(np.ones(grid.m), curve, grid, near)
                far = _off_curve_point(curve, theta, 1.5 * bound, side)
                assert abs(curve.distance_to(far) - 1.5 * bound) <= 1e-9 * bound
        cauchy_integral_quadrature(np.ones(grid.m), curve, grid, far)


def test_distance_is_never_above_the_samples_and_matches_a_fine_sampling():
    rng = np.random.default_rng(11)
    for curve in (CIRCLE, ELLIPSE, WOBBLE, CurveDescriptor.perturbed_circle(0.1, 5)):
        fine = curve.point(np.linspace(0.0, 2 * np.pi, 2 ** 20, endpoint=False))
        coarse = curves._node_geometry(curve, curves._SAMPLE_GRID)[0]
        for z in rng.uniform(-2.5, 2.5, (25, 2)) @ np.array([1.0, 1j]):
            got = curve.distance_to(z)
            assert got <= np.min(np.abs(coarse - z))
            # the fine sampling overestimates by at most (|zeta'| h)^2 / (2 d) + |zeta'| h / 2
            assert np.min(np.abs(fine - z)) - 1e-5 <= got <= np.min(np.abs(fine - z)) + 1e-15


@pytest.mark.filterwarnings("error")
def test_products_beyond_the_float_range_are_refused_without_warnings():
    curve, grid = curves.CurveDescriptor.parse("ellipse:10,5"), curves.QuadratureGrid(64)
    small = curves.CurveDescriptor.parse("circle:1e-3")
    big = np.full(grid.m, 1e200 + 0j)
    with pytest.raises(InvalidDataError, match="contour integrand contains non-finite node values"):
        curves.pairing_quadrature(big, big, curve, grid)
    with pytest.raises(InvalidDataError, match="contour integral exceeds the float range"):
        curves.contour_integral(np.full(grid.m, 1e308 + 0j), curve, grid)
    with pytest.raises(InvalidDataError, match="contour integrand contains non-finite node values"):
        curves.cauchy_integral_quadrature(np.full(grid.m, 1e308 + 0j), small, grid, 0j)


# ---------------------------------------------------------------- annulus certificate

_ANNULUS_CURVES = ("circle:1", "circle:1e-300", "ellipse:1.5,0.7", "ellipse:1e300,1",
                   "perturbed-circle:0.1,5", "perturbed-circle:0.999999999,3")


def _exact_annulus(curve):
    """min and max of |zeta| on the curve, before any widening."""
    p = curve.params
    return {"circle": (p[0], p[0]), "ellipse": (min(p), max(p)),
            "perturbed-circle": (1.0 - p[0], 1.0 + p[0])}[curve.kind]


def _searched_cauchy(values, curve, grid, z):
    """cauchy_integral_quadrature as it was before the annulus certificate.

    It measures every z by distance_to and scans the quotients before the
    sum.  Returns the value, or the (error type, message) it would raise.
    """
    bound = curves.PROXIMITY_FACTOR * curve.arc_length() / grid.m
    dist = curve.distance_to(z)
    if dist <= bound:
        return BoundaryProximityError, (
            f"z at distance {dist:.6g} from the curve; M={grid.m} quadrature needs "
            f"distance > {bound:.6g} (= {curves.PROXIMITY_FACTOR:g} * arc_length / M)")
    zeta, dzeta = curves._node_geometry(curve, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(values, dtype=complex) / (zeta - z)
        if not np.isfinite(vals).all():
            return InvalidDataError, "contour integrand contains non-finite node values"
        total = complex(grid.weight * (vals * dzeta).sum())
    if not cmath.isfinite(total):
        return InvalidDataError, "contour integral exceeds the float range"
    return total / (2j * np.pi)


@settings(deadline=None, max_examples=60)
@given(text=st.sampled_from(_ANNULUS_CURVES), orientation=st.sampled_from((1, -1)),
       log_m=st.integers(4, 18), where=st.sampled_from(("inside", "outside", "far")),
       factor=st.floats(0.5, 2.0), angle=st.floats(0.0, 2 * np.pi), seed=st.integers(0, 2 ** 32 - 1))
@example(text="circle:1", orientation=1, log_m=6, where="outside", factor=1.0, angle=0.0, seed=0)
@example(text="ellipse:1e300,1", orientation=-1, log_m=4, where="outside", factor=1.0,
         angle=0.0, seed=1)
@example(text="perturbed-circle:0.999999999,3", orientation=1, log_m=18, where="inside",
         factor=0.5, angle=0.0, seed=2)
@example(text="circle:1e-300", orientation=-1, log_m=18, where="far", factor=2.0, angle=1.0, seed=3)
def test_the_annulus_certificate_changes_no_refusal_and_no_bit(text, orientation, log_m, where,
                                                                factor, angle, seed):
    curve = CurveDescriptor.parse(text)
    curve = curve if orientation > 0 else curve.reversed()
    grid = QuadratureGrid(2 ** log_m)
    bound = curves.PROXIMITY_FACTOR * curve.arc_length() / grid.m
    lo, hi = _exact_annulus(curve)
    radius = {"inside": lo - factor * bound, "outside": hi + factor * bound,
              "far": 1e3 * factor * (hi + bound)}[where]
    z = radius * cmath.exp(1j * angle)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    expected = _searched_cauchy(values, curve, grid, z)
    if isinstance(expected, tuple):
        with pytest.raises(expected[0]) as refused:
            cauchy_integral_quadrature(values, curve, grid, z)
        assert str(refused.value) == expected[1]
    else:
        got = cauchy_integral_quadrature(values, curve, grid, z)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
    wide_lo, wide_hi = curve._annulus()
    assert wide_lo <= lo and hi <= wide_hi
    for nodes in (grid, curves._SAMPLE_GRID):
        size = np.abs(curves._node_geometry(curve, nodes)[0])
        assert wide_lo <= size.min() and size.max() <= wide_hi


def test_a_point_the_annulus_certifies_takes_no_distance_search(monkeypatch):
    def refuse(self, z):
        raise AssertionError("distance_to was called for a certified point")

    grid = QuadratureGrid(1024)
    certified = ((CIRCLE, 3.0), (CIRCLE, 0.5j), (ELLIPSE, 0.05), (ELLIPSE, -2.0 + 1j), (WOBBLE, 2.0 + 1j))
    expected = [_searched_cauchy(np.ones(grid.m), curve, grid, z) for curve, z in certified]
    monkeypatch.setattr(CurveDescriptor, "distance_to", refuse)
    for (curve, z), value in zip(certified, expected):
        assert cauchy_integral_quadrature(np.ones(grid.m), curve, grid, z) == value
    with pytest.raises(AssertionError, match="certified point"):
        cauchy_integral_quadrature(np.ones(grid.m), CIRCLE, grid, 0.95)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 1.0)],
                         ids=["nan", "inf", "imaginary-inf", "real-nan"])
def test_every_entry_point_names_non_finite_node_values(bad):
    grid = QuadratureGrid(1024)
    vals, ones = np.ones(grid.m, dtype=complex), np.ones(grid.m, dtype=complex)
    vals[17] = bad
    for integrate in (lambda: contour_integral(vals, ELLIPSE, grid),
                      lambda: cauchy_integral_quadrature(vals, ELLIPSE, grid, 5.0),
                      lambda: cauchy_integral_quadrature(vals, ELLIPSE, grid, 0.0),
                      lambda: pairing_quadrature(vals, ones, ELLIPSE, grid),
                      lambda: pairing_quadrature(ones, vals, ELLIPSE, grid)):
        with pytest.raises(InvalidDataError, match="^contour integrand contains non-finite node values$"):
            integrate()


@pytest.mark.filterwarnings("error")
def test_every_entry_point_names_a_sum_past_the_float_range():
    # Each term is about 1e308 i, finite, and all add with one sign.
    grid = QuadratureGrid(64)
    zeta = CIRCLE.point(grid.nodes)
    for integrate in (lambda: contour_integral(1e308 / zeta, CIRCLE, grid),
                      lambda: cauchy_integral_quadrature(np.full(grid.m, 1e308), CIRCLE, grid, 0.0),
                      lambda: pairing_quadrature(np.full(grid.m, 1e154), 1e154 / zeta, CIRCLE, grid)):
        with pytest.raises(InvalidDataError, match="^contour integral exceeds the float range$"):
            integrate()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [(), (1,), (62,), (1, 64), (64, 64)], ids=["scalar", "one", "short", "row", "square"])
def test_every_entry_point_refuses_mis_shaped_node_values(shape):
    # a scalar or a length-1 array was once broadcast as a constant by the Cauchy and pairing integrals
    grid = QuadratureGrid(64)
    bad, ones = np.ones(shape, dtype=complex), np.ones(grid.m, dtype=complex)
    for integrate in (lambda: contour_integral(bad, CIRCLE, grid),
                      lambda: cauchy_integral_quadrature(bad, CIRCLE, grid, 3.0),
                      lambda: cauchy_integral_quadrature(bad, CIRCLE, grid, 0.0),
                      lambda: pairing_quadrature(bad, ones, CIRCLE, grid),
                      lambda: pairing_quadrature(ones, bad, CIRCLE, grid)):
        with pytest.raises(ValueError, match=rf"^expected 64 node values, got shape {re.escape(str(shape))}$"):
            integrate()
