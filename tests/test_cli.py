"""CLI verbs, exit codes, and byte-level determinism."""

import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from diskdual import BoundaryDistribution, ExteriorFunction, InteriorFunction
from diskdual.cli import run
from diskdual.duality import CheckResult, VerificationReport
from diskdual.formats import write_coefficient_file


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


@pytest.fixture
def u_file(tmp_path):
    path = tmp_path / "u.json"
    write_coefficient_file(path, InteriorFunction([1.0, 2.0]))
    return str(path)


@pytest.fixture
def v_file(tmp_path):
    path = tmp_path / "v.json"
    write_coefficient_file(path, ExteriorFunction([3.0, 4.0]))
    return str(path)


def test_pair_reports_both_pairings(u_file, v_file):
    code, out = _run(["pair", "--u", u_file, "--v", v_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["koethe"] == [11.0, 0.0]
    assert doc["l2"] == [0.0, 0.0]


def test_pair_with_quadrature_cross_check(u_file, v_file):
    code, out = _run(["pair", "--u", u_file, "--v", v_file, "--curve", "ellipse:1.5,0.7", "--M", "128"])
    assert code == 0
    doc = json.loads(out)
    quad = complex(*doc["koethe_quadrature"])
    assert abs(quad - 11.0) < 1e-10


def test_dualize_example(tmp_path):
    path = tmp_path / "w.json"
    write_coefficient_file(path, BoundaryDistribution.from_modes({-1: 1.0}))
    code, out = _run(["dualize", "--w", str(path), "--s", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "exterior"
    assert doc["coeffs"] == [[1.0, 0.0]]
    assert doc["n_min"] == -1


def test_norm_verb(u_file):
    code, out = _run(["norm", "--in", u_file, "--sp", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["sobolev_norm"] == pytest.approx(np.sqrt(5.0))


def test_cauchy_verb_with_quadrature(u_file):
    code, out = _run(["cauchy", "--in", u_file, "--at", "0.5,0", "--curve", "circle:1.0", "--M", "256"])
    assert code == 0
    doc = json.loads(out)
    assert complex(*doc["spectral"]) == pytest.approx(2.0)
    assert abs(complex(*doc["quadrature"]) - 2.0) < 1e-10


def test_project_verb(tmp_path):
    path = tmp_path / "f.json"
    write_coefficient_file(path, BoundaryDistribution.from_modes({-1: 1.0, 0: 5.0, 1: 1.0}))
    code, out = _run(["project", "--in", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["jump_residual"] == 0.0
    assert doc["interior"]["coeffs"] == [[5.0, 0.0], [1.0, 0.0]]
    assert doc["exterior"]["coeffs"] == [[-1.0, 0.0]]


def test_project_verb_boundary_index_bookkeeping(tmp_path):
    path = tmp_path / "f.json"
    write_coefficient_file(path, BoundaryDistribution.from_modes({-1: 1.0}))
    # data at boundary index 1/2 - s for s = 2 puts the split pieces at 1 - s
    code, out = _run(["project", "--in", str(path), "--boundary-index", str(0.5 - 2)])
    assert code == 0
    doc = json.loads(out)
    assert doc["interior"]["s"] == doc["exterior"]["s"] == 1 - 2


def test_gen_family_then_growth_report(tmp_path):
    out_path = tmp_path / "fam.json"
    code, out = _run(["gen", "--family", "--gamma", "1.0", "--z0", "1,0", "--N", "128",
                      "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == out
    doc = json.loads(out)
    assert doc["kind"] == "interior" and len(doc["coeffs"]) == 129

    code, out = _run(["growth", "--gamma", "1.0", "--z0", "1,0", "--N", "512",
                      "--s-grid=-4:3"])
    assert code == 0
    report = json.loads(out)
    assert report["s_min_estimate"] == -1
    assert abs(report["gamma_fitted"] - 1.0) < 0.05


def test_verify_duality_exits_zero_on_pass(tmp_path):
    out_path = tmp_path / "rep.json"
    code, out = _run(["verify", "--suite", "duality", "--s", "0", "--trials", "10",
                      "--N", "12", "--seed", "7", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert out_path.read_text() == out


def test_verify_scale_both_directions():
    for direction in ("interior-finite-order", "exterior-finite-order"):
        code, out = _run(["verify", "--suite", "scale", "--N", "64", "--seed", "3",
                          "--direction", direction])
        assert code == 0
        assert json.loads(out)["passed"] is True


def test_verify_exit_code_two_on_failed_report(monkeypatch):
    failed = VerificationReport(
        "duality-isomorphism", 0, 7,
        (CheckResult("forced", 1.0, 0.5, False),),
    )
    monkeypatch.setattr("diskdual.cli.duality.verify_duality_isomorphism",
                        lambda *a, **k: failed)
    code, out = _run(["verify", "--suite", "duality", "--seed", "7"])
    assert code == 2
    assert json.loads(out)["passed"] is False


def test_determinism_of_seeded_verbs():
    argv = ["verify", "--suite", "duality", "--s", "1", "--trials", "12", "--N", "10",
            "--seed", "99"]
    code1, out1 = _run(argv)
    code2, out2 = _run(argv)
    assert (code1, out1) == (code2, out2)

    argv = ["gen", "--random", "boundary", "--N", "6", "--seed", "5"]
    _, gen1 = _run(argv)
    _, gen2 = _run(argv)
    assert gen1 == gen2


def test_exit_codes_for_usage_io_and_numerics(tmp_path, u_file, capsys):
    assert _run(["nonsense"])[0] == 1
    assert _run(["norm", "--in", str(tmp_path / "missing.json"), "--sp", "0"])[0] == 1
    assert _run(["gen", "--random", "interior", "--N", "4"])[0] == 1  # missing seed
    # evaluation on the circle itself is a numerical validity error
    assert _run(["cauchy", "--in", u_file, "--at", "1,0"])[0] == 3
    capsys.readouterr()


def test_stdout_carries_only_the_report(u_file):
    code, out = _run(["norm", "--in", u_file, "--sp", "0.5"])
    assert code == 0
    json.loads(out)  # a single JSON document, nothing else
    assert out.endswith("\n")


def test_growth_overflow_is_a_numerical_validity_error():
    # |a_n| reaches 6.8e278 at gamma = 150, N = 4096, so |a_n|^2 overflows
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["growth", "--gamma", "150", "--N", "4096"])
    assert code == 3
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical validity error:")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_growth_coefficient_overflow_is_one_line_without_warnings():
    # the running product of the Taylor coefficients leaves the float range
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["growth", "--gamma", "100", "--N", "65536"])
    assert code == 3
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert lines == ["numerical validity error: interior coefficients contain non-finite entries"]
    assert not caught


def test_growth_weight_overflow_is_refused_without_warnings():
    # (1 + 512^2)^(s - 1/2) overflows from s = 58 on, but the norms fit up to
    # s = 113; at s = 114 the norm itself is about 2^1031
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["growth", "--gamma", "2", "--z0", "1,0", "--N", "512", "--s-grid=-4:120"])
    assert code == 3
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert lines == ["numerical validity error: trace norm of index 113.5 exceeds the float range"]
    assert not caught


@pytest.mark.parametrize("argv, expected", [
    # |a_n|^2 times the finite weights of the top levels overflowed
    (["growth", "--gamma", "5", "--N", "4096", "--s-grid=-4:40"], 0),
    # the dyadic block sums of the default grid overflowed
    (["growth", "--gamma", "40", "--N", "65536"], 0),
    # the s = 83 norm exceeds the float range (about 2^1036)
    (["growth", "--gamma", "5", "--N", "4096", "--s-grid=-4:83"], 3),
    # the s = 43 norm, about 2^556, fits although the sum of the weighted
    # squares scaled by the largest |a_n| alone would overflow
    (["growth", "--gamma", "5", "--N", "4096", "--s-grid=-4:43"], 0),
])
def test_growth_near_the_float_range_runs_without_warnings(argv, expected):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    assert code == expected
    assert not caught
    if expected == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("numerical validity error: trace norm")


def _run_quietly(argv):
    """(exit code, stdout, stderr lines, RuntimeWarnings) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    return code, out.getvalue(), err.getvalue().splitlines(), caught


# every 25th level of [-400, 400] plus levels where the brute-force probes'
# squares leave the float range first, at one of the three N
_EDGE_SCALES = sorted(set(range(-400, 401, 25)) | {-26, -35, -55, 55, 65, 105})


@pytest.mark.parametrize("n", [32, 256, 1024])
def test_duality_suite_passes_or_names_the_norm_beyond_the_float_range(n):
    failing = []
    for s in _EDGE_SCALES:
        code, out, lines, caught = _run_quietly(
            ["verify", "--suite", "duality", "--trials", "2", "--seed", "7", "--s", str(s), "--N", str(n)])
        assert not caught, (s, caught[0].message)
        if code == 0:
            assert json.loads(out)["passed"] is True
        else:
            assert (code, out) == (3, ""), (s, code, lines)
            assert lines == [f"numerical validity error: closed-form dual norm at s={s} "
                             "exceeds the float range"]
            failing.append(s)
    # the dual norm grows like N^(1/2 - s): only the most negative levels leave the range
    assert failing == _EDGE_SCALES[: len(failing)] and 0 < len(failing) < 14


def test_sobolev_norm_inside_the_float_range_is_computed(tmp_path):
    # degree 64 at index 150: weights up to 2^1800, norm about 2^900
    path = tmp_path / "u64.json"
    write_coefficient_file(path, InteriorFunction(np.ones(65)))
    code, out, lines, caught = _run_quietly(["norm", "--in", str(path), "--sp", "150"])
    assert (code, lines, caught) == (0, [], [])
    assert 899 < np.log2(json.loads(out)["sobolev_norm"]) < 901
    code, out, lines, caught = _run_quietly(["norm", "--in", str(path), "--sp", "400"])
    assert (code, out, caught) == (3, "", [])
    assert lines == ["numerical validity error: Sobolev norm of index 400.0 exceeds the float range"]


@pytest.mark.parametrize("curve", ["circle:nan", "ellipse:inf,1"])
def test_non_finite_curve_parameters_are_refused_in_one_line(u_file, v_file, curve):
    code, out, lines, caught = _run_quietly(["pair", "--u", u_file, "--v", v_file, "--curve", curve])
    assert (code, out, caught) == (1, "", [])
    assert len(lines) == 1 and lines[0].startswith("error: curve parameters must be finite")


def test_module_entry_point_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "diskdual.cli", "verify", "--suite", "duality", "--s", "0",
         "--trials", "4", "--N", "32", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
