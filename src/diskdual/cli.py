"""Command-line batch interface.

Every verb is a thin adapter: parse flags, call the library, print one
canonical JSON document on stdout.  Diagnostics go to stderr only.  Exit
codes: 0 success, 1 usage or I/O problem, 2 verification failure, 3 numerical
validity error (non-finite data, aliasing, boundary proximity, ...).

Stochastic verbs require an explicit --seed; given identical flags the output
bytes are identical run to run.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys

import numpy as np

from . import curves, duality, formats, growth, hardy, spectral
from .errors import NumericsError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token with a minus then a digit, a point and a digit, inf or nan is
        # a value, not a flag: before Python 3.13 argparse reads -1e300 as one.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise _UsageError(message)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise ValueError(f"expected 're,im', got {text!r}")
    z = complex(float(parts[0]), float(parts[1]) if len(parts) == 2 else 0.0)
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"expected finite 're,im', got {text!r}")
    return z


def _parse_int_grid(text: str) -> list[int]:
    if ":" in text:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
        if lo > hi:
            raise ValueError(f"empty grid {text!r}")
        return list(range(lo, hi + 1))
    return [int(p) for p in text.split(",")]


def non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # argparse would name the function, not the rule
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def quadrature_size(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 16 or value % 2:
        raise argparse.ArgumentTypeError(f"expected an even integer >= 16, got {text!r}")
    return value


def _parse_radii(text: str) -> list[float]:
    return [finite_float(p) for p in text.split(",")]


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _node_values(obj, curve: curves.CurveDescriptor, grid: curves.QuadratureGrid):
    if isinstance(obj, hardy.InteriorFunction):
        return curves.interior_node_values(obj, curve, grid)
    if isinstance(obj, hardy.ExteriorFunction):
        return curves.exterior_node_values(obj, curve, grid)
    return curves.boundary_node_values(obj, curve, grid)


def _cmd_gen(args) -> tuple[dict, int]:
    if args.family:
        spec = growth.GrowthFamilySpec(args.z0, args.gamma, args.n)
        obj = growth.growth_family_coeffs(spec)
    else:
        rng = np.random.default_rng(args.seed)
        size = args.n
        if args.random == "boundary":
            obj = spectral.BoundaryDistribution(-size, duality.complex_normal(rng, 2 * size + 1))
        elif args.random == "interior":
            obj = hardy.InteriorFunction(duality.complex_normal(rng, size + 1))
        else:
            obj = hardy.ExteriorFunction(duality.complex_normal(rng, size))
    return formats.coefficients_to_doc(obj), 0


def _cmd_norm(args) -> tuple[dict, int]:
    obj = formats.read_coefficient_file(args.infile)
    value = spectral.sobolev_norm(hardy.boundary_trace(obj), args.sp)
    return {"kind": formats.kind_of(obj), "sobolev_index": float(args.sp), "sobolev_norm": value}, 0


def _cross_check(doc: dict, key: str, args, quadrature) -> tuple[dict, int]:
    """doc, plus quadrature(curve, grid) under ``key`` and the curve and M when --curve is given."""
    if args.curve is not None:
        curve, grid = curves.CurveDescriptor.parse(args.curve), curves.QuadratureGrid(args.m)
        doc.update({key: _pair(quadrature(curve, grid)), "curve": args.curve, "M": grid.m})
    return doc, 0


def _cmd_pair(args) -> tuple[dict, int]:
    obj_u, obj_v = formats.read_coefficient_file(args.u), formats.read_coefficient_file(args.v)
    fu, fv = hardy.boundary_trace(obj_u), hardy.boundary_trace(obj_v)
    doc = {"koethe": _pair(spectral.koethe_pairing(fu, fv)),
           "l2": _pair(spectral.l2_pairing(fu, fv))}
    return _cross_check(doc, "koethe_quadrature", args, lambda curve, grid: curves.pairing_quadrature(
        _node_values(obj_u, curve, grid), _node_values(obj_v, curve, grid), curve, grid))


def _cmd_cauchy(args) -> tuple[dict, int]:
    obj = formats.read_coefficient_file(args.infile)
    f = hardy.boundary_trace(obj)
    doc = {"point": _pair(args.at), "spectral": _pair(hardy.cauchy_transform(f, args.at))}
    return _cross_check(doc, "quadrature", args, lambda curve, grid: curves.cauchy_integral_quadrature(
        _node_values(obj, curve, grid), curve, grid, args.at))


def _cmd_project(args) -> tuple[dict, int]:
    f = hardy.boundary_trace(formats.read_coefficient_file(args.infile))
    u, v_plus = hardy.hardy_projections(f, args.boundary_index)
    return {
        "boundary_index": float(args.boundary_index),
        "interior": formats.coefficients_to_doc(u),
        "exterior": formats.coefficients_to_doc(v_plus),
        "jump_residual": hardy.jump_residual(f),
    }, 0


def _cmd_dualize(args) -> tuple[dict, int]:
    w = hardy.boundary_trace(formats.read_coefficient_file(args.w))
    v = duality.represent_functional(w, args.s)
    return formats.coefficients_to_doc(v), 0


def _cmd_verify(args) -> tuple[dict, int]:
    if args.suite == "duality":
        report = duality.verify_duality_isomorphism(args.s, args.trials, args.n, args.seed)
    else:
        report = duality.verify_scale_pairing(args.direction, args.n, args.seed)
    return report.to_doc(), 0 if report.passed else 2


def _cmd_growth(args) -> tuple[dict, int]:
    spec = growth.GrowthFamilySpec(args.z0, args.gamma, args.n)
    report = growth.build_growth_report(spec, args.s_grid, args.radii)
    return report.to_doc(), 0


def build_parser() -> _Parser:
    parser = _Parser(prog="diskdual", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", help="generate coefficient files")
    mode = gen.add_mutually_exclusive_group(required=True)
    mode.add_argument("--family", action="store_true",
                      help="boundary-singularity family (needs --gamma, --z0)")
    mode.add_argument("--random", choices=("boundary", "interior", "exterior"))
    gen.add_argument("--gamma", type=finite_float, default=1.0)
    gen.add_argument("--z0", type=_parse_complex, default=complex(1.0, 0.0))
    gen.add_argument("--N", dest="n", type=non_negative_int, required=True)
    gen.add_argument("--seed", type=non_negative_int, default=None)
    gen.set_defaults(handler=_cmd_gen)

    norm = sub.add_parser("norm", help="boundary Sobolev norm of a coefficient file")
    norm.add_argument("--in", dest="infile", required=True)
    norm.add_argument("--sp", type=finite_float, required=True, help="boundary Sobolev index")
    norm.set_defaults(handler=_cmd_norm)

    pair = sub.add_parser("pair", help="both boundary pairings of two coefficient files")
    pair.add_argument("--u", required=True)
    pair.add_argument("--v", required=True)
    pair.add_argument("--curve", default=None, help="cross-check on a curve, e.g. ellipse:1.5,0.7")
    pair.add_argument("--M", dest="m", type=quadrature_size, default=256)
    pair.set_defaults(handler=_cmd_pair)

    cauchy = sub.add_parser("cauchy", help="Cauchy transform at a point off the circle")
    cauchy.add_argument("--in", dest="infile", required=True)
    cauchy.add_argument("--at", type=_parse_complex, required=True, help="evaluation point re,im")
    cauchy.add_argument("--curve", default=None)
    cauchy.add_argument("--M", dest="m", type=quadrature_size, default=256)
    cauchy.set_defaults(handler=_cmd_cauchy)

    project = sub.add_parser("project", help="Hardy split and jump residual")
    project.add_argument("--in", dest="infile", required=True)
    project.add_argument("--boundary-index", type=finite_float, default=-0.5)
    project.set_defaults(handler=_cmd_project)

    dualize = sub.add_parser("dualize", help="exterior representative of a boundary functional")
    dualize.add_argument("--w", required=True)
    dualize.add_argument("--s", type=int, required=True)
    dualize.set_defaults(handler=_cmd_dualize)

    verify = sub.add_parser("verify", help="seeded verification suites")
    verify.add_argument("--suite", choices=("duality", "scale"), required=True)
    verify.add_argument("--s", type=int, default=0)
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--N", dest="n", type=non_negative_int, default=32)
    verify.add_argument("--seed", type=non_negative_int, required=True)
    verify.add_argument("--direction", choices=duality.SCALE_DIRECTIONS,
                        default="interior-finite-order")
    verify.set_defaults(handler=_cmd_verify)

    grow = sub.add_parser("growth", help="growth exponent fit and scale placement")
    grow.add_argument("--gamma", type=finite_float, required=True)
    grow.add_argument("--z0", type=_parse_complex, default=complex(1.0, 0.0))
    grow.add_argument("--N", dest="n", type=int, default=4096)
    grow.add_argument("--s-grid", dest="s_grid", type=_parse_int_grid, default=list(range(-4, 4)))
    grow.add_argument("--radii", type=_parse_radii, default=None)
    grow.set_defaults(handler=_cmd_growth)

    for p in (gen, norm, pair, cauchy, project, dualize, verify, grow):
        p.add_argument("--out", default=None, help="also write the document to this path")
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if args.verb == "gen" and args.random is not None and args.seed is None:
        print("usage error: gen --random requires --seed", file=sys.stderr)
        return 1
    try:
        doc, code = args.handler(args)
        text = formats.canonical_json(doc)
    except NumericsError as exc:
        print(f"numerical validity error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, MemoryError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return code


def main(argv=None) -> None:
    sys.exit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
