"""Coefficient file format: round trips, validation, canonical bytes."""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskdual import BoundaryDistribution, ExteriorFunction, InteriorFunction, InvalidDataError
from diskdual.cli import run
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


def _json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _documents(reals):
    """Nested dicts and lists whose pair rows hold ``reals``, ints and empty rows among them."""
    numbers = reals | st.integers(-(2 ** 70), 2 ** 70)
    rows = st.lists(st.lists(reals, min_size=2, max_size=2), min_size=1, max_size=6)
    mixed_rows = st.lists(st.one_of(st.lists(numbers, min_size=2, max_size=2), st.just([])),
                          min_size=1, max_size=6)
    scalars = st.one_of(numbers, st.text(max_size=4), st.booleans(), st.none())
    leaves = st.one_of(rows, mixed_rows, scalars)
    keys = st.text(alphabet=st.sampled_from("ab_\u00e9\u03c3\u2202\U0001d49f\"\\\n"), max_size=4)
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(keys, inner, max_size=3), max_leaves=12)


_EDGE_REALS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e308, -1e308, 0.1, 1 / 3])
_FINITE_REALS = _EDGE_REALS | st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=300)
@given(doc=_documents(_FINITE_REALS))
def test_canonical_json_writes_the_bytes_of_json_dumps(doc):
    assert canonical_json(doc) == _json_text(doc)


@settings(deadline=None, max_examples=200)
@given(doc=_documents(_FINITE_REALS | st.sampled_from([float("inf"), -float("inf"), float("nan")])))
def test_canonical_json_refuses_a_non_finite_number_at_any_depth_as_json_does(doc):
    try:
        expected = _json_text(doc)
    except ValueError as exc:
        with pytest.raises(InvalidDataError) as caught:
            canonical_json(doc)
        assert str(caught.value) == f"document holds a non-finite number: {exc}"
    else:
        assert canonical_json(doc) == expected


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
@pytest.mark.parametrize("where", ["last row", "first row", "nested table", "leaf after table"])
def test_a_non_finite_number_in_a_large_table_is_refused_with_json_s_message(bad, where):
    rows = np.linspace(-1.0, 1.0, 2 * 4096).reshape(-1, 2).tolist()
    doc = {"kind": "boundary", "n_min": -2048, "coeffs": rows}
    if where == "last row":
        rows[-1][1] = bad
    elif where == "first row":
        rows[0][0] = bad
    elif where == "nested table":
        doc = {"interior": doc, "exterior": {"coeffs": [[0.5, bad]]}}
    else:
        doc["s"] = bad
    with pytest.raises(ValueError) as expected:
        _json_text(doc)
    with pytest.raises(InvalidDataError) as caught:
        canonical_json(doc)
    assert str(caught.value) == f"document holds a non-finite number: {expected.value}"


def _cli_stdout(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(argv) == 0
    return out.getvalue()


def _assert_json_dumps_layout(text):
    # compared line by line: pytest's diff of two megabyte strings takes minutes
    assert text.endswith("\n")
    assert text.splitlines() == _json_text(json.loads(text)).splitlines()


def test_large_cli_documents_are_the_bytes_of_json_dumps(tmp_path):
    # the benchmark's two large outputs: a 2^15 + 1 family and the split of a
    # boundary file over -2^14 .. 2^14
    family = _cli_stdout(["gen", "--family", "--gamma", "1.25", "--z0=0.6,0.8", "--N", "32768"])
    assert len(json.loads(family)["coeffs"]) == 2 ** 15 + 1
    _assert_json_dumps_layout(family)
    rng = np.random.default_rng(14)
    path = tmp_path / "big.json"
    write_coefficient_file(path, BoundaryDistribution(-(2 ** 14), rng.standard_normal(2 ** 15 + 1)
                                                      + 1j * rng.standard_normal(2 ** 15 + 1)))
    _assert_json_dumps_layout(path.read_text(encoding="utf-8"))
    split = _cli_stdout(["project", "--in", str(path)])
    assert len(json.loads(split)["exterior"]["coeffs"]) == 2 ** 14
    _assert_json_dumps_layout(split)


def test_pair_rows_are_the_floats_of_each_coefficient():
    values = np.array([complex(-0.0, 5e-324), complex(1e308, -0.0), complex(0.1, -1e16), -5e-324j])
    rows = coefficients_to_doc(BoundaryDistribution(0, values))["coeffs"]
    reference = [[float(c.real), float(c.imag)] for c in values]  # the per-element loop it replaced
    assert [[repr(x) for x in row] for row in rows] == [[repr(x) for x in row] for row in reference]
    assert rows[0][0] == 0.0 and repr(rows[0][0]) == "-0.0"
    assert all(type(x) is float for row in rows for x in row)
