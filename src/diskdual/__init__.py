"""Spectral toolkit for Hardy splits, Cauchy transforms, and boundary duality
on the unit disk, with trapezoid contour quadrature on smooth Jordan curves
as the independent cross-check.
"""

from .errors import (
    AliasingError,
    BoundaryProximityError,
    DegenerateInputError,
    EvaluationDomainError,
    InvalidDataError,
    InvalidFamilyError,
    InvalidGridError,
    NumericsError,
    TruncationError,
)
from .spectral import (
    BoundaryDistribution,
    fourier_analyze,
    fourier_synthesize,
    koethe_pairing,
    l2_pairing,
    pad_or_truncate,
    sobolev_norm,
)
from .hardy import (
    BOUNDARY_EVALUATION_THRESHOLD,
    ExteriorFunction,
    InteriorFunction,
    boundary_trace,
    cauchy_transform,
    evaluate_exterior,
    evaluate_interior,
    hardy_projections,
    jump_residual,
    trace_exterior,
    trace_interior,
)
from .curves import (
    CurveDescriptor,
    QuadratureGrid,
    boundary_node_values,
    cauchy_integral_quadrature,
    contour_integral,
    exterior_node_values,
    interior_node_values,
    pairing_quadrature,
)
from .duality import (
    CheckResult,
    DualFunctional,
    TailCertificate,
    VerificationReport,
    apply_functional,
    dual_norm_trace_ratio,
    functional_from_exterior,
    functional_norm_bruteforce,
    functional_norm_closed_form,
    norm_ratio_bounds,
    pairing_tail_certificate,
    reconstruct_exterior_from_blackbox,
    represent_functional,
    verify_duality_isomorphism,
    verify_scale_pairing,
)
from .growth import (
    GrowthFamilySpec,
    GrowthFit,
    GrowthReport,
    ScaleEstimate,
    build_growth_report,
    classify_decay,
    estimate_min_sobolev,
    growth_family_coeffs,
    pointwise_growth_exponent,
)

__version__ = "0.1.0"
