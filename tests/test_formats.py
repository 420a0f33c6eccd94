"""Coefficient file format: round trips, validation, canonical bytes."""

import json

import numpy as np
import pytest

from diskdual import BoundaryDistribution, ExteriorFunction, InteriorFunction, InvalidDataError
from diskdual.formats import (
    canonical_json,
    coefficients_to_doc,
    doc_to_coefficients,
    kind_of,
    read_coefficient_file,
    write_coefficient_file,
)


def test_boundary_round_trip(tmp_path):
    f = BoundaryDistribution(-2, [1 + 2j, 0.0, 3.5, 0.25j, -1.0])
    path = tmp_path / "f.json"
    write_coefficient_file(path, f)
    back = read_coefficient_file(path)
    assert isinstance(back, BoundaryDistribution)
    assert back.n_min == -2
    np.testing.assert_array_equal(back.coeffs, f.coeffs)


def test_interior_round_trip(tmp_path):
    u = InteriorFunction([1.0, 0.5j], index=2.0)
    path = tmp_path / "u.json"
    write_coefficient_file(path, u)
    back = read_coefficient_file(path)
    assert isinstance(back, InteriorFunction)
    assert back.index == 2.0
    np.testing.assert_array_equal(back.coeffs, u.coeffs)


def test_exterior_round_trip(tmp_path):
    v = ExteriorFunction([3.0, 4.0], index=1.0)
    path = tmp_path / "v.json"
    write_coefficient_file(path, v)
    back = read_coefficient_file(path)
    assert isinstance(back, ExteriorFunction)
    np.testing.assert_array_equal(back.coeffs, v.coeffs)
    doc = json.loads(path.read_text())
    # ascending frequency: c_{-2} = b_2 first
    assert doc["n_min"] == -2
    assert doc["coeffs"] == [[4.0, 0.0], [3.0, 0.0]]


def test_zero_exterior_serializes_with_explicit_slot():
    doc = coefficients_to_doc(ExteriorFunction(np.zeros(0)))
    assert doc["n_min"] == -1 and doc["coeffs"] == [[0.0, 0.0]]
    back = doc_to_coefficients(doc)
    assert isinstance(back, ExteriorFunction)


def test_kind_of_names_each_container():
    objs = (BoundaryDistribution(0, [1.0]), InteriorFunction([1.0]), ExteriorFunction([1.0]))
    assert [kind_of(obj) for obj in objs] == ["boundary", "interior", "exterior"]
    assert [coefficients_to_doc(obj)["kind"] for obj in objs] == ["boundary", "interior", "exterior"]
    with pytest.raises(TypeError):
        coefficients_to_doc(np.ones(3))


def test_document_validation():
    with pytest.raises(ValueError):
        doc_to_coefficients({"kind": "matrix", "n_min": 0, "coeffs": [[1, 0]]})
    with pytest.raises(ValueError):
        doc_to_coefficients({"kind": ["interior"], "n_min": 0, "coeffs": [[1, 0]]})
    with pytest.raises(ValueError):
        doc_to_coefficients({"kind": "interior", "n_min": 1, "coeffs": [[1, 0]]})
    with pytest.raises(ValueError):
        doc_to_coefficients({"kind": "exterior", "n_min": -3, "coeffs": [[1, 0]]})
    with pytest.raises(ValueError):
        doc_to_coefficients({"kind": "boundary", "n_min": "a", "coeffs": [[1, 0]]})
    with pytest.raises(ValueError):
        doc_to_coefficients({"kind": "boundary", "n_min": 0, "coeffs": [[1]]})
    with pytest.raises(ValueError):
        doc_to_coefficients({"kind": "boundary", "n_min": 0, "coeffs": []})


def test_canonical_json_is_reproducible():
    doc = {"b": 1.5, "a": [1, 2], "c": {"y": 0.1, "x": -3}}
    assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))
    assert canonical_json(doc).endswith("\n")
    assert canonical_json({"a": 0.1}) == '{\n  "a": 0.1\n}\n'
    with pytest.raises(InvalidDataError):
        canonical_json({"norm_curve": [[3, float("inf")]]})


def test_reals_round_trip_shortest_repr(tmp_path):
    u = InteriorFunction([0.1 + 0.2j, 1 / 3], index=0.0)
    path = tmp_path / "u.json"
    write_coefficient_file(path, u)
    back = read_coefficient_file(path)
    assert back.coeffs[0] == 0.1 + 0.2j
    assert back.coeffs[1] == 1 / 3
