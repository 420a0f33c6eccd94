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

``canonical_json`` writes the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)``.  With an indent, ``json`` takes its pure-Python encoder,
which spends about 75 ms on a document of 2^15 + 1 coefficients.  So each
table of ``[re, im]`` float rows is laid out here: its ``float.__repr__``
strings, which are the text ``json`` writes for a float, go through one
``str.join`` with the separators of the indent, in about 35 ms, of which
``float.__repr__`` itself (the shortest round-trip decimal) takes about 27 ms
(2 CPUs, Python 3.11, numpy 2.4).  Keys and every other value still go through
``json``; the text of a nested value is re-indented by replacing its newlines,
which a JSON string never holds unescaped.
"""

from __future__ import annotations

import json
import sys
from itertools import chain

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
    return np.ascontiguousarray(values, complex).view(float).reshape(-1, 2).tolist()


def _array(pairs, what: str) -> np.ndarray:
    not_pairs = f"{what}: coeffs must be a list of [re, im] pairs"
    try:
        arr = np.asarray([complex(re, im) for re, im in pairs], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(not_pairs) from exc
    except OverflowError:  # an integer literal beyond the float range, read like 1e400
        raise InvalidDataError(f"{what}: non-finite coefficient") from None
    if bool in set(map(type, chain.from_iterable(pairs))):  # complex() reads true and false as 1 and 0
        raise ValueError(not_pairs)
    if not np.isfinite(arr).all():
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
    if not isinstance(n_min, int) or isinstance(n_min, bool):
        raise ValueError("n_min must be an integer")
    index = doc.get("s", 0.0)
    # compared exactly, so an integer beyond the float range is refused like inf
    if isinstance(index, bool) or not (isinstance(index, (int, float)) and abs(index) <= sys.float_info.max):
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


def _pair_rows(rows: list, pad: str) -> str | None:
    """JSON text of a list of [float, float] rows at indent ``pad``; None for any other list."""
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {2}:
        return None
    try:  # float.__repr__ is json's text for a float; it refuses ints and bools
        reprs = list(map(float.__repr__, chain.from_iterable(rows)))
    except TypeError:
        return None
    row, item = pad + "  ", pad + "    "
    seps = [f",\n{item}", f"\n{row}],\n{row}[\n{item}"] * len(rows)
    seps[-1] = f"\n{row}]\n{pad}]"
    text = "".join(chain([f"[\n{row}[\n{item}"], chain.from_iterable(zip(reprs, seps))))
    if "n" in text:  # inf or nan, the only float.__repr__ spellings with an n
        json.dumps(rows, indent=2, allow_nan=False)  # raises the ValueError json.dumps(doc, indent=2) would
    return text


def _layout(value, pad: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)`` nested at indent ``pad``."""
    inner = pad + "  "
    if type(value) is dict and value and all(type(key) is str for key in value):
        fields = (f"{json.dumps(key)}: {_layout(value[key], inner)}" for key in sorted(value))
        return f"{{\n{inner}" + f",\n{inner}".join(fields) + f"\n{pad}}}"
    text = _pair_rows(value, pad) if type(value) is list else None
    if text is None:
        text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n" + pad)
    return text


def canonical_json(doc: dict) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline.

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True)``.  A
    non-finite number in the document raises :class:`InvalidDataError`.
    """
    try:
        return _layout(doc, "") + "\n"
    except ValueError as exc:
        raise InvalidDataError(f"document holds a non-finite number: {exc}") from exc


def read_coefficient_file(path) -> CoefficientObject:
    with open(path, "r", encoding="utf-8") as handle:
        return doc_to_coefficients(json.load(handle))


def write_coefficient_file(path, obj: CoefficientObject) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(coefficients_to_doc(obj)))

