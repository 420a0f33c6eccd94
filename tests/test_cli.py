"""CLI verbs, exit codes, and byte-level determinism."""

import io
import json
import math
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


@pytest.fixture
def huge_file(tmp_path):
    path = tmp_path / "huge.json"
    write_coefficient_file(path, BoundaryDistribution(-2, np.full(5, 1e308)))
    return str(path)


# 2^18 synthesis nodes take the split transform, whose worker range sets its own np.errstate
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["cauchy", "--at", "0.1,0", "--curve", "circle:1.0", "--M", "1024"],
    ["cauchy", "--at", "0.1,0", "--curve", "circle:1.0", "--M", str(2 ** 18)],
    ["pair", "--curve", "circle:1.0", "--M", "64"],
], ids=["cauchy", "cauchy-split", "pair"])
def test_synthesis_overflow_is_one_line_without_warnings(huge_file, v_file, argv):
    files = ["--u", huge_file, "--v", v_file] if argv[0] == "pair" else ["--in", huge_file]
    code, out, lines, caught = _run_quietly(argv[:1] + files + argv[1:])
    assert (code, out, caught) == (3, "", [])
    assert lines == ["numerical validity error: contour integrand contains non-finite node values"]


@pytest.mark.filterwarnings("error")
def test_pairing_overflow_is_one_line_without_warnings(huge_file, tmp_path):
    ones = tmp_path / "ones.json"
    write_coefficient_file(ones, BoundaryDistribution(-2, np.ones(5)))
    code, out, lines, caught = _run_quietly(["pair", "--u", huge_file, "--v", str(ones)])
    assert (code, out, caught) == (3, "", [])
    assert len(lines) == 1 and lines[0].startswith("numerical validity error: document holds a non-finite number")


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


@pytest.mark.parametrize("s", [1600, -1600, 2000, -2000])
def test_duality_ratio_bound_beyond_the_float_range_is_one_line(s):
    # (5/2)^(|s - 1/2| / 2) passes the largest double from |s| of about 1550 on
    code, out, lines, caught = _run_quietly(
        ["verify", "--suite", "duality", "--trials", "2", "--seed", "7", "--s", str(s), "--N", "32"])
    assert (code, out, caught) == (3, "", [])
    assert lines == [f"numerical validity error: dual-norm ratio bound (5/2)^(|s - 1/2|/2) at s={s} "
                     "exceeds the float range"]


def _write_document(tmp_path, coeff, s=None):
    # spelled by hand: json.dumps cannot write 1e400, and 10**400 must stay an integer literal
    text = f'{{"kind": "interior", "n_min": 0, "coeffs": [[1, 0], [{coeff}, 0]]'
    path = tmp_path / "doc.json"
    path.write_text(text + (f', "s": {s}}}' if s is not None else "}"), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("spelling", ["1" + "0" * 400, "1e400"], ids=["10**400", "1e400"])
def test_coefficient_beyond_the_float_range_is_non_finite(tmp_path, spelling):
    code, out, lines, caught = _run_quietly(["norm", "--in", _write_document(tmp_path, spelling), "--sp", "0"])
    assert (code, out, caught) == (3, "", [])
    assert lines == ["numerical validity error: interior document: non-finite coefficient"]


@pytest.mark.parametrize("spelling", ["1" + "0" * 400, "-1" + "0" * 400, "1e400"],
                         ids=["10**400", "-10**400", "1e400"])
def test_index_beyond_the_float_range_is_refused(tmp_path, spelling):
    code, out, lines, caught = _run_quietly(["norm", "--in", _write_document(tmp_path, 2, spelling), "--sp", "0"])
    assert (code, out, caught) == (1, "", [])
    assert lines == ["error: index 's' must be a finite number"]


@pytest.mark.parametrize("argv, flag, value", [
    ("gen --random interior --N -1 --seed 1", "--N", -1),
    ("gen --random interior --N -7 --seed 1", "--N", -7),
    ("gen --random boundary --N -1 --seed 1", "--N", -1),
    ("gen --random exterior --N -2 --seed 1", "--N", -2),
    ("gen --random interior --N 4 --seed -1", "--seed", -1),
    ("verify --suite duality --N -5 --seed 1", "--N", -5),
    ("verify --suite duality --seed -1", "--seed", -1),
    ("verify --suite scale --N 64 --seed -1", "--seed", -1),
    ("verify --suite duality --seed 1 --N x", "--N", "'x'"),
    ("gen --random interior --N 4 --seed 1.5", "--seed", "'1.5'"),
])
def test_negative_size_or_seed_is_one_line_naming_the_flag(argv, flag, value):
    code, out, lines, caught = _run_quietly(argv.split())
    assert (code, out, caught) == (1, "", [])
    assert lines == [f"usage error: argument {flag}: expected a non-negative integer, got {value}"]


def test_zero_probe_degree_is_refused_in_one_line():
    code, out, lines, caught = _run_quietly(["verify", "--suite", "duality", "--N", "0", "--seed", "1"])
    assert (code, out, lines, caught) == (1, "", ["error: need a positive probe degree"], [])


@pytest.mark.parametrize("kind", ["interior", "exterior"])
def test_zero_size_random_documents_stay_valid(kind):
    code, out, lines, caught = _run_quietly(["gen", "--random", kind, "--N", "0", "--seed", "1"])
    assert (code, lines, caught) == (0, [], [])
    assert json.loads(out)["kind"] == kind


# 2^50 entries of 8 or 16 bytes lie beyond a 48-bit address space, so the
# allocation is refused before any memory is touched.
@pytest.mark.parametrize("argv", [
    "gen --random exterior --N 1125899906842624 --seed 1",
    "gen --random interior --N 1125899906842624 --seed 1",
    "verify --suite scale --N 1125899906842624 --seed 1",
    "verify --suite duality --N 1125899906842624 --seed 1",
    "growth --gamma 1 --N 1125899906842624",
])
def test_size_too_large_to_allocate_is_one_line(argv):
    code, out, lines, caught = _run_quietly(argv.split())
    assert (code, out, caught) == (1, "", [])
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "allocate" in lines[0]


# An integer past the floats or past a C ssize_t ends in one line, not an
# OverflowError traceback: an index that cannot be a float is a numerical
# error, a count or size that cannot be held a plain one.
@pytest.mark.parametrize("argv, expected_code, start", [
    ("dualize --w {w} --s " + "1" * 401, 3, "numerical validity error: scale index s=111"),
    ("verify --suite duality --trials 100000000000000000000 --N 4 --seed 1", 1, "error: need 1 .. "),
    ("growth --gamma 2 --N " + "1" * 401, 1, "error: "),
], ids=["dualize-s", "verify-trials", "growth-N"])
def test_integers_past_a_float_or_a_c_size_are_one_line(u_file, argv, expected_code, start):
    code, out, lines, caught = _run_quietly(argv.format(w=u_file).split())
    assert (code, out, caught) == (expected_code, "", [])
    assert len(lines) == 1 and lines[0].startswith(start), lines


# s = -206 leaves the float range in some of the 16 trials only, s = -1000 in all
@pytest.mark.parametrize("s, trials", [(-206, 16), (-1000, 3)])
def test_duality_norm_overflow_in_any_trial_is_one_line(s, trials):
    code, out, lines, caught = _run_quietly(
        ["verify", "--suite", "duality", "--s", str(s), "--trials", str(trials), "--N", "32", "--seed", "1"])
    assert (code, out, caught) == (3, "", [])
    assert lines == [f"numerical validity error: closed-form dual norm at s={s} exceeds the float range"]


# Runs one CLI command as a grandchild and prints its exit code and peak RSS
# in kB.  A child inherits its parent's peak RSS from before its exec, so the
# command is started from a small launcher, not from the test process.
_PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "diskdual.cli", *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_kb(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_LAUNCHER, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    code, peak = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return peak


def test_duality_suite_memory_does_not_grow_with_trials():
    # A trial at N = 8192 holds about 1.2 MB of probe rows and 4 MB of
    # temporaries; holding all 64 trials at once would add about 75 MB.
    base = ["verify", "--suite", "duality", "--N", "8192", "--seed", "1", "--trials"]
    few, many = _peak_rss_kb(base + ["2"]), _peak_rss_kb(base + ["64"])
    assert many - few < 8 * 1024, (few, many)


def test_scale_suite_passes_its_own_families_at_the_smallest_size():
    for direction in ("interior-finite-order", "exterior-finite-order"):
        for seed in range(200):
            code, out = _run(["verify", "--suite", "scale", "--direction", direction, "--N", "64",
                              "--seed", str(seed)])
            assert code == 0, (direction, seed, out)


@pytest.mark.parametrize("n", [32, 63])
def test_scale_suite_refuses_sizes_below_64_in_one_line(n):
    code, out, lines, caught = _run_quietly(["verify", "--suite", "scale", "--N", str(n), "--seed", "1"])
    assert (code, out, caught) == (1, "", [])
    assert len(lines) == 1 and lines[0].startswith("error: need size >= 64"), lines


# At N = 256 the levels 510..531 of gamma = 1 overflow a dyadic block ratio;
# the grid -100000:100000 contains them but takes 15 s.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wide_sobolev_grid_ends_in_one_line_without_warnings():
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["growth", "--gamma", "1", "--N", "256", "--s-grid=500:540"])
    assert (code, out.getvalue()) == (3, "")
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("numerical validity error: trace norm of index")


def test_truncation_warning_follows_the_fitted_order():
    # the terms a_n r^n peak near gamma r / (1 - r): 4097 coefficients resolve
    # r = 1 - 2^-7 for gamma = 20 but not for gamma = 40
    for gamma, expected in ((20, False), (40, True)):
        code, out = _run(["growth", "--gamma", str(gamma), "--N", "4096"])
        assert code == 0
        assert json.loads(out)["truncation_warning"] is expected


@pytest.mark.parametrize("argv", [
    ["--at", "nan,0"],
    ["--at", "nan,0", "--curve", "ellipse:1.5,0.7", "--M", "64"],
    ["--at", "inf,0"],
], ids=["nan", "nan-curve", "inf"])
def test_non_finite_evaluation_point_is_a_usage_error(u_file, argv):
    code, out, lines, caught = _run_quietly(["cauchy", "--in", u_file, *argv])
    assert (code, out, caught) == (1, "", [])
    assert lines == [f"usage error: argument --at: expected finite 're,im', got '{argv[1]}'"]


# A malformed point or grid names the rule it breaks, not the parsing function.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, option, rule", [
    ("cauchy --in {u} --at 1,2,3", "--at", "finite 're,im'"),
    ("cauchy --in {u} --at 1,", "--at", "finite 're,im'"),
    ("gen --family --N 8 --z0 1,2,3", "--z0", "finite 're,im'"),
    ("growth --gamma 2 --N 64 --z0 x", "--z0", "finite 're,im'"),
    ("growth --gamma 2 --N 64 --s-grid=3:-3", "--s-grid", "a nonempty grid 'lo:hi' with lo <= hi"),
    ("growth --gamma 2 --N 64 --s-grid=1,x", "--s-grid", "integers 'a,b,...' or 'lo:hi'"),
    ("growth --gamma 2 --N 64 --s-grid=1:x", "--s-grid", "integers 'a,b,...' or 'lo:hi'"),
], ids=["at-three-parts", "at-empty-part", "gen-z0", "growth-z0", "empty-grid", "grid-list", "grid-range"])
def test_malformed_points_and_grids_are_usage_errors_naming_the_rule(u_file, argv, option, rule):
    argv = argv.format(u=u_file).split()
    text = argv[argv.index(option) + 1] if option in argv else argv[-1].split("=", 1)[1]
    code, out, lines, caught = _run_quietly(argv)
    assert (code, out, caught) == (1, "", [])
    assert lines == [f"usage error: argument {option}: expected {rule}, got '{text}'"]


# Every float flag refuses nan and +-inf in argparse, in one line that names it.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "abc"])
@pytest.mark.parametrize("head, option, value", [
    (["norm", "--in", None], "--sp", "{}"),
    (["project", "--in", None], "--boundary-index", "{}"),
    (["gen", "--family", "--N", "8"], "--gamma", "{}"),
    (["growth", "--N", "64"], "--gamma", "{}"),
    (["growth", "--gamma", "2", "--N", "64"], "--radii", "{},0.5"),
    (["growth", "--gamma", "2", "--N", "64"], "--radii", "0.25,{}"),
], ids=["norm-sp", "project-boundary-index", "gen-gamma", "growth-gamma", "radii-first", "radii-last"])
def test_non_finite_float_flags_are_usage_errors(u_file, head, option, value, text):
    argv = [u_file if part is None else part for part in head] + [option, value.format(text)]
    code, out, lines, caught = _run_quietly(argv)
    assert (code, out, caught) == (1, "", [])
    assert lines == [f"usage error: argument {option}: expected a finite number, got '{text}'"]


# The values of an 8-term series at |zeta| ~ 1e300, at |1/zeta| ~ 1e300 and at
# |zeta| ~ 1e100 leave the float range (a curve of moderate size can do the
# same with larger coefficients); on the large ellipse the Cauchy quadrature
# refuses the point 0.1 first, without overflowing in its distance.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("curve, overflowing", [
    ("ellipse:1e300,1", "u"), ("circle:1e-300", "v"), ("circle:1e100", "u")])
@pytest.mark.parametrize("verb", ["pair", "cauchy"])
def test_node_value_overflow_is_one_line_without_warnings(tmp_path, verb, curve, overflowing):
    paths = {name: str(tmp_path / f"{name}.json") for name in ("u", "v")}
    assert run(["gen", "--random", "interior", "--N", "8", "--seed", "1", "--out", paths["u"]]) == 0
    assert run(["gen", "--random", "exterior", "--N", "8", "--seed", "2", "--out", paths["v"]]) == 0
    if verb == "pair":
        argv = ["pair", "--u", paths["u"], "--v", paths["v"]]
    else:
        argv = ["cauchy", "--in", paths[overflowing], "--at", "0.1,0"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv + ["--M", "64", "--curve", curve])
    assert (code, out.getvalue()) == (3, "")
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical validity error: "), lines


@pytest.mark.filterwarnings("error")
def test_distance_to_a_huge_curve_does_not_overflow(v_file):
    # the Newton curvature |zeta'|^2 once raised OverflowError at |zeta'| ~ 1e300
    code, out, lines, caught = _run_quietly(
        ["cauchy", "--in", v_file, "--at", "0.1,0", "--M", "64", "--curve", "ellipse:1e300,1"])
    assert (code, out, caught) == (3, "", [])
    assert len(lines) == 1 and lines[0].startswith("numerical validity error: z at distance"), lines


# Each curve kind takes a fixed number of parameters.
@pytest.mark.parametrize("curve, message", [
    ("ellipse:1.5", "ellipse takes 2 parameter(s), got 1"),
    ("circle:1,2", "circle takes 1 parameter(s), got 2"),
    ("perturbed-circle:0.1", "perturbed-circle takes 2 parameter(s), got 1"),
    ("ellipse:1.5,0.7,3", "ellipse takes 2 parameter(s), got 3"),
])
@pytest.mark.parametrize("verb", ["pair", "cauchy"])
def test_wrong_curve_parameter_counts_are_refused_in_one_line(u_file, v_file, verb, curve, message):
    argv = (["pair", "--u", u_file, "--v", v_file] if verb == "pair"
            else ["cauchy", "--in", u_file, "--at", "0.1,0"])
    code, out, lines, caught = _run_quietly(argv + ["--curve", curve])
    assert (code, out, lines, caught) == (1, "", [f"error: {message}"], [])


# Past 2^53 every float is an integer; the cap also keeps zeta'' in range.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", ["1e308", "1e200"])
@pytest.mark.parametrize("verb", ["pair", "cauchy"])
def test_perturbation_wavenumber_beyond_two_to_the_53_is_refused(u_file, v_file, verb, k):
    argv = (["pair", "--u", u_file, "--v", v_file] if verb == "pair"
            else ["cauchy", "--in", u_file, "--at", "0.1,0"])
    code, out, lines, caught = _run_quietly(argv + ["--curve", f"perturbed-circle:0.5,{k}"])
    assert (code, out, caught) == (1, "", [])
    assert lines == ["error: perturbation wavenumber must be a positive integer <= 2^53"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("curve", ["circle:1e308", "ellipse:1e308,1e308"])
def test_arc_length_beyond_the_float_range_is_one_line(u_file, curve):
    code, out, lines, caught = _run_quietly(
        ["cauchy", "--in", u_file, "--at", "0.1,0", "--M", "64", "--curve", curve])
    assert (code, out, caught) == (3, "", [])
    assert lines == ["numerical validity error: curve arc length exceeds the float range"]


# Before Python 3.13 argparse reads a minus followed by an exponent-form
# number as a flag ("expected one argument"); every negative number is a value.
def test_negative_exponent_form_index_beyond_the_scale_is_one_exit_3_line(u_file):
    code, out, lines, caught = _run_quietly(["norm", "--in", u_file, "--sp", "-1e300"])
    assert (code, out, caught) == (3, "", [])
    assert lines == ["numerical validity error: Sobolev index -1e+300 is not finite or exceeds 2^53 in magnitude"]


@pytest.mark.parametrize("verb, option, spaced, joined", [
    ("norm", "--sp", "-2e0", "-2.0"),
    ("project", "--boundary-index", "-1e-1", "-0.1"),
    ("growth", "--z0", "-1E0,-0e0", "-1.0,-0.0"),
    ("growth", "--s-grid", "-4:3", "-4:3"),
])
def test_negative_values_read_as_with_an_equals_sign(u_file, verb, option, spaced, joined):
    head = ["growth", "--gamma", "2", "--N", "64"] if verb == "growth" else [verb, "--in", u_file]
    spaced_run = _run_quietly(head + [option, spaced])
    assert spaced_run[0] == 0 and spaced_run[2:] == ([], [])
    assert spaced_run[:2] == _run_quietly(head + [f"{option}={joined}"])[:2]


# The quadrature grid needs an even M >= 16; argparse refuses any other M,
# with or without a curve to cross-check on.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", ["1", "3", "15", "17", "0", "-2", "2.5e1", "abc"])
@pytest.mark.parametrize("curve", [None, "ellipse:1.5,0.7"], ids=["no-curve", "curve"])
@pytest.mark.parametrize("verb", ["pair", "cauchy"])
def test_an_odd_or_small_quadrature_size_is_a_usage_error(u_file, v_file, verb, curve, m):
    argv = (["pair", "--u", u_file, "--v", v_file] if verb == "pair"
            else ["cauchy", "--in", u_file, "--at", "0.1,0"])
    code, out, lines, caught = _run_quietly(argv + ["--curve", curve] * (curve is not None) + ["--M", m])
    assert (code, out, caught) == (1, "", [])
    assert lines == [f"usage error: argument --M: expected an even integer >= 16, got '{m}'"]


@pytest.mark.parametrize("verb", ["pair", "cauchy"])
def test_the_smallest_quadrature_size_is_accepted(u_file, v_file, verb):
    # at M = 16 the Cauchy quadrature needs a point more than 10 pi / 8 from the circle
    argv = (["pair", "--u", u_file, "--v", v_file] if verb == "pair"
            else ["cauchy", "--in", u_file, "--at", "5,0"])
    code, out = _run(argv + ["--curve", "circle:1.0", "--M", "16"])
    assert code == 0 and json.loads(out)["M"] == 16


@pytest.mark.parametrize("doc, message", [
    ({"kind": "boundary", "n_min": True, "coeffs": [[True, False], [1, 2]]},
     "boundary document: coeffs must be a list of [re, im] pairs"),
    ({"kind": "interior", "n_min": 0, "coeffs": [[1.5, 2], [0.5, False]]},
     "interior document: coeffs must be a list of [re, im] pairs"),
    ({"kind": "boundary", "n_min": True, "coeffs": [[1, 2]]}, "n_min must be an integer"),
    ({"kind": "boundary", "n_min": False, "coeffs": [[1, 2]]}, "n_min must be an integer"),
    ({"kind": "interior", "n_min": 0, "coeffs": [[1, 2]], "s": True}, "index 's' must be a finite number"),
    ({"kind": "exterior", "n_min": -1, "coeffs": [[1, 2]], "s": False}, "index 's' must be a finite number"),
], ids=["bool coeffs", "bool imaginary part", "n_min true", "n_min false", "s true", "s false"])
def test_json_booleans_are_not_read_as_numbers(tmp_path, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, lines, caught = _run_quietly(["norm", "--in", str(path), "--sp", "0"])
    assert (code, out, caught) == (1, "", [])  # caught holds every warning, of any class
    assert lines == [f"error: {message}"]


_HUGE_N_MIN = pytest.mark.parametrize("n_min", [10 ** 30, -2 ** 63 - 1], ids=["1e30", "-2^63-1"])


def _huge_window_doc(tmp_path, n_min):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "boundary", "n_min": n_min, "coeffs": [[1, 2]]}), encoding="utf-8")
    return str(path)


@pytest.mark.filterwarnings("error")
@_HUGE_N_MIN
@pytest.mark.parametrize("verb", [["project", "--in"], ["dualize", "--s", "0", "--w"]], ids=["project", "dualize"])
def test_a_split_window_no_array_can_hold_is_one_line_naming_n_min(tmp_path, capsys, n_min, verb):
    # the Hardy split pads the window to n = 0 on one side and to n = -1 on the other
    assert run(verb + [_huge_window_doc(tmp_path, n_min)]) == 1
    lo, hi = (0, n_min) if n_min > 0 else (n_min, -1)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: coefficients from n_min = {n_min} need the window n = {lo} .. {hi}, "
        f"{hi - lo + 1} entries, more than one array can hold"]


@pytest.mark.filterwarnings("error")
@_HUGE_N_MIN
def test_norms_of_a_huge_n_min_document_stay_finite(tmp_path, capsys, n_min):
    path = _huge_window_doc(tmp_path, n_min)
    for sp in ("0", "1", "-0.5"):
        assert run(["norm", "--in", path, "--sp", sp]) == 0
        norm = json.loads(capsys.readouterr().out)["sobolev_norm"]
        assert 0.0 < norm < math.inf
