"""Coefficient and report file formats.

A coefficient document is JSON of the form

    {"kind": "boundary" | "interior" | "exterior",
     "n_min": int,
     "coeffs": [[re, im], ...],      # ascending in frequency
     "s": float}                     # optional Sobolev bookkeeping index

A document is its kind plus the boundary trace of the container
(``hardy.boundary_trace``), so interior documents start at frequency 0
(entry i is the z^i coefficient) and exterior documents end at frequency -1
(the entry at frequency -m is the z^(-m) coefficient).  Reals round-trip
through the shortest-repr decimal that Python's json module emits, and
documents are always serialized with sorted keys so identical inputs give
identical bytes.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import InvalidDataError
from .hardy import ExteriorFunction, InteriorFunction, boundary_trace
from .spectral import BoundaryDistribution

__all__ = [
    "kind_of",
    "coefficients_to_doc",
    "doc_to_coefficients",
    "read_coefficient_file",
    "write_coefficient_file",
    "canonical_json",
]

CoefficientObject = BoundaryDistribution | InteriorFunction | ExteriorFunction
_KINDS = {"boundary": BoundaryDistribution, "interior": InteriorFunction, "exterior": ExteriorFunction}


def _pairs(values: np.ndarray) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in values]


def _array(pairs, what: str) -> np.ndarray:
    try:
        arr = np.asarray([complex(re, im) for re, im in pairs], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: coeffs must be a list of [re, im] pairs") from exc
    except OverflowError:  # an integer literal beyond the float range, read like 1e400
        raise InvalidDataError(f"{what}: non-finite coefficient") from None
    if not np.all(np.isfinite(arr)):
        raise InvalidDataError(f"{what}: non-finite coefficient")
    return arr


def kind_of(obj: CoefficientObject) -> str:
    """Document kind of a coefficient container."""
    for kind, cls in _KINDS.items():
        if isinstance(obj, cls):
            return kind
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def coefficients_to_doc(obj: CoefficientObject) -> dict:
    """Serialize a coefficient container as its kind plus its boundary trace."""
    kind = kind_of(obj)
    trace = boundary_trace(obj)
    doc = {"kind": kind, "n_min": trace.n_min, "coeffs": _pairs(trace.coeffs)}
    if kind != "boundary":
        doc["s"] = float(obj.index)
    return doc


def doc_to_coefficients(doc: dict) -> CoefficientObject:
    """Parse a coefficient document back into the matching container."""
    if not isinstance(doc, dict):
        raise ValueError("coefficient document must be a JSON object")
    kind = doc.get("kind")
    coeffs = _array(doc.get("coeffs", []), f"{kind} document")
    if coeffs.size == 0:
        raise ValueError("coefficient document carries no coefficients")
    n_min = doc.get("n_min")
    if not isinstance(n_min, int):
        raise ValueError("n_min must be an integer")
    index = doc.get("s", 0.0)
    # compared exactly, so an integer beyond the float range is refused like inf
    if not (isinstance(index, (int, float)) and abs(index) <= sys.float_info.max):
        raise ValueError("index 's' must be a finite number")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    if cls is BoundaryDistribution:
        return BoundaryDistribution(n_min, coeffs)
    if cls is InteriorFunction:
        if n_min != 0:
            raise ValueError(f"interior documents start at frequency 0, got n_min = {n_min}")
        return InteriorFunction(coeffs, float(index))
    if n_min != -coeffs.size:
        raise ValueError(
            f"exterior documents must end at frequency -1 "
            f"(n_min = -len(coeffs)), got n_min = {n_min} with {coeffs.size} coeffs"
        )
    return ExteriorFunction(coeffs[::-1], float(index))


def canonical_json(doc: dict) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline.

    A non-finite number in the document raises :class:`InvalidDataError`.
    """
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InvalidDataError(f"document holds a non-finite number: {exc}") from exc


def read_coefficient_file(path) -> CoefficientObject:
    with open(path, "r", encoding="utf-8") as handle:
        return doc_to_coefficients(json.load(handle))


def write_coefficient_file(path, obj: CoefficientObject) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(coefficients_to_doc(obj)))

