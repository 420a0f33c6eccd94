"""Span recorder that times calls into diskdual's public functions from outside.

``Tracer.install`` replaces each function in ``WRAPPED`` with a timing wrapper
in every loaded ``diskdual`` module namespace that holds it, so copies made by
``from .spectral import sobolev_norm`` are wrapped too.  It also patches the
``__post_init__`` of the three coefficient containers to count constructions
and the coefficients each one scans for finiteness.  ``uninstall`` restores
every original object.  Nothing in ``src/`` is modified.

Spans are kept in memory as (name, start, end, parent) and folded into
per-name self time after each job, so memory stays bounded on long runs.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fft_analyze(args, kwargs, result):
    return {"spectral.fft_points": len(_arg(args, kwargs, 0, "samples"))}


def _fft_synthesize(args, kwargs, result):
    return {"spectral.fft_points": int(_arg(args, kwargs, 1, "m"))}


def _terms_one_point(args, kwargs, result):
    return {"hardy.series_terms": _arg(args, kwargs, 0, "u").coeffs.size}


def _terms_cauchy(args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    inside = abs(complex(_arg(args, kwargs, 1, "z"))) < 1.0
    return {"hardy.series_terms": max(f.n_max + 1, 0) if inside else max(-f.n_min, 0)}


def _terms_nodes(args, kwargs, result):
    return {"hardy.series_terms": args[0].coeffs.size * _arg(args, kwargs, 2, "grid").m}


def _bytes_out(args, kwargs, result):
    return {"formats.bytes_out": len(result)}


def _bytes_in(args, kwargs, result):
    return {"formats.bytes_in": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_probes(tracer, args, kwargs):
    evaluate = _arg(args, kwargs, 0, "evaluate")
    counts = tracer.counts

    def probe(u):
        counts["duality.reconstruct.probes"] += 1
        return evaluate(u)

    if args:
        return (probe,) + tuple(args[1:]), kwargs
    return args, dict(kwargs, evaluate=probe)


# (module, attribute, span name, counter or None, argument hook or None).
# A dotted attribute names a method, patched on its class.
WRAPPED = (
    ("spectral", "fourier_analyze", "spectral.fourier_analyze", _fft_analyze, None),
    ("spectral", "fourier_synthesize", "spectral.fourier_synthesize", _fft_synthesize, None),
    ("spectral", "sobolev_norm", "spectral.sobolev_norm", None, None),
    ("spectral", "koethe_pairing", "spectral.pairings", None, None),
    ("spectral", "l2_pairing", "spectral.pairings", None, None),
    ("hardy", "evaluate_interior", "hardy.series_eval", _terms_one_point, None),
    ("hardy", "evaluate_exterior", "hardy.series_eval", _terms_one_point, None),
    ("hardy", "cauchy_transform", "hardy.series_eval", _terms_cauchy, None),
    ("hardy", "hardy_projections", "hardy.split", None, None),
    ("hardy", "jump_residual", "hardy.split", None, None),
    ("curves", "interior_node_values", "curves.node_values", _terms_nodes, None),
    ("curves", "exterior_node_values", "curves.node_values", _terms_nodes, None),
    ("curves", "boundary_node_values", "curves.node_values", None, None),
    ("curves", "CurveDescriptor.distance_to", "curves.distance_to", None, None),
    ("curves", "contour_integral", "curves.quadrature", None, None),
    ("curves", "cauchy_integral_quadrature", "curves.quadrature", None, None),
    ("curves", "pairing_quadrature", "curves.quadrature", None, None),
    ("duality", "reconstruct_exterior_from_blackbox", "duality.reconstruct", None, _count_probes),
    ("duality", "functional_norm_bruteforce", "duality.bruteforce", None, None),
    ("duality", "represent_functional", "duality.represent", None, None),
    ("duality", "verify_duality_isomorphism", "duality.suite", None, None),
    ("duality", "verify_scale_pairing", "duality.suite", None, None),
    ("growth", "growth_family_coeffs", "growth.coeffs", None, None),
    ("growth", "pointwise_growth_exponent", "growth.radial_fit", None, None),
    ("growth", "estimate_min_sobolev", "growth.placement", None, None),
    ("formats", "coefficients_to_doc", "formats.to_doc", None, None),
    ("formats", "canonical_json", "formats.canonical_json", _bytes_out, None),
    ("formats", "read_coefficient_file", "formats.parse", _bytes_in, None),
    ("formats", "doc_to_coefficients", "formats.parse", None, None),
    ("cli", "run", "cli.run", None, None),
)

# (module, class) whose __post_init__ validates a coefficient array.
CONTAINERS = (
    ("hardy", "InteriorFunction"),
    ("hardy", "ExteriorFunction"),
    ("spectral", "BoundaryDistribution"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _, _ in WRAPPED))


class Tracer:
    """Records spans and counts while installed; aggregates them per name."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fn, name, counter, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(self, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        return wrapper

    def _counting_post_init(self, original):
        counts = self.counts

        def post_init(obj):
            original(obj)
            counts["hardy.containers_built"] += 1
            counts["hardy.container_coeffs"] += obj.coeffs.size

        return post_init

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed function wherever a loaded diskdual module holds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "diskdual" or key.startswith("diskdual.")]
        for module_name, attr, name, counter, hook in WRAPPED:
            owner = sys.modules.get(f"diskdual.{module_name}")
            if owner is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(getattr(cls, method), name, counter, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for module_name, cls_name in CONTAINERS:
            cls = getattr(sys.modules[f"diskdual.{module_name}"], cls_name)
            self._patch(cls, "__post_init__", self._counting_post_init(cls.__post_init__))

    def uninstall(self) -> None:
        """Put back every object that ``install`` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def fold(self) -> None:
        """Turn the recorded spans into per-name self and total time, then drop them."""
        if self._stack:
            raise RuntimeError("cannot fold while a span is open")
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child_time):
            self.total_s[name] += end - start
            self.self_s[name] += end - start - covered
        self.spans.clear()

    def merge(self, doc: dict) -> None:
        """Add the aggregates that another process's tracer wrote with ``dump``."""
        for key in ("self_s", "total_s", "counts"):
            target = getattr(self, key)
            for name, value in doc[key].items():
                target[name] += value

    def dump(self, path, **extra) -> None:
        doc = {"self_s": self.self_s, "total_s": self.total_s, "counts": self.counts}
        doc.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
