"""Golden outputs of the duality suite and of the growth report.

The sha256 digests below were taken from the check ``value`` fields of
``verify_duality_isomorphism`` before moment probing and the brute-force norm
were batched.  Batching reorders no floating-point sum that feeds a value,
so every value must stay byte-identical; bounds and verdicts are not hashed.

``data/growth_reports.json`` holds growth reports taken while the family
coefficients still came from a Python recurrence and series values from
Horner's rule.  The vectorised versions round differently in the last bits,
so verdicts are held exactly and numbers to a relative 1e-12.
"""

import hashlib
import json
from pathlib import Path

import pytest

from diskdual import GrowthFamilySpec, build_growth_report, verify_duality_isomorphism

SCALES = range(-6, 7)
TRIALS = 4

GOLDEN = {
    (32, 1): "0f19e32e9dc90b918430df3521cf4be0b5866ae6be288e683fe46b6ed91c53b2",
    (32, 7): "423596706a22571310c838ec9cf51bde6c6dac6a00fef9567885f24528d226c6",
    (32, 12345): "d8c1d410e162da79f5ab941b8bc046d860b3af960d2bfff509a0eaec8fa6f0b3",
    (256, 1): "b62762bae02bb7b18c7f8181404640afa94859f6dbf4086ed322971c239c3969",
    (256, 7): "cdc9710009c6e6166476cd6e5e732359bfcb7b74df873b9fcdd009f8143526bc",
    (256, 12345): "ff2cbbba5dbae185c03cb6bd901c8586db6b11e0b672b3b8b8451a5e66ed9529",
    (1024, 1): "69e97a220284b4bf24917246791950b3eaf15f0fac7d91a35a56d4ab50fd4e77",
    (1024, 7): "93eb5978e566828f9748a9ab8c75aa962d174fbc8a8180e80d3d54a9ef07e104",
    (1024, 12345): "2c6c665d93e62c80af8b55bae0d72b8b3ef7d1c08cf6fd45a6faef5b67338fe4",
}


@pytest.mark.parametrize("n, seed", sorted(GOLDEN))
def test_duality_check_values_are_byte_identical(n, seed):
    values = [
        [check.to_doc()["value"] for check in verify_duality_isomorphism(s, TRIALS, n, seed).checks]
        for s in SCALES
    ]
    digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
    assert digest == GOLDEN[(n, seed)], values


GROWTH_CASES = json.loads((Path(__file__).parent / "data" / "growth_reports.json").read_text())
GROWTH_EXACT = ("s_min_estimate", "s_min_flag", "truncation_warning", "R_used")


@pytest.mark.parametrize("case", GROWTH_CASES, ids=lambda c: f"N={c['N']}-gamma={c['gamma']}-z0={c['z0']}")
def test_growth_reports_match_the_golden_corpus(case):
    z0 = complex(*case["z0"])
    doc = build_growth_report(GrowthFamilySpec(z0, case["gamma"], case["N"]), range(-4, 4)).to_doc()
    golden = case["report"]
    assert {k: doc[k] for k in GROWTH_EXACT} == {k: golden[k] for k in GROWTH_EXACT}
    for key in ("gamma_fitted", "C_fitted"):
        assert doc[key] == pytest.approx(golden[key], rel=1e-12, abs=0)
    assert [s for s, _ in doc["norm_curve"]] == [s for s, _ in golden["norm_curve"]]
    assert [v for _, v in doc["norm_curve"]] == pytest.approx(
        [v for _, v in golden["norm_curve"]], rel=1e-12, abs=0)
