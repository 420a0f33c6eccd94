"""Golden outputs of the duality suite, of the growth report and of the CLI.

The sha256 digests below were taken from the check ``value`` fields of
``verify_duality_isomorphism`` before moment probing and the brute-force norm
were batched.  Batching reorders no floating-point sum that feeds a value,
so every value must stay byte-identical; bounds and verdicts are not hashed.

``data/growth_reports.json`` holds growth reports taken while the family
coefficients still came from a Python recurrence and series values from
Horner's rule.  The vectorised versions round differently in the last bits,
so verdicts are held exactly and numbers to a relative 1e-12.

``CLI_GOLDEN`` holds the exit code and the sha256 of stdout of each command in
``CLI_CORPUS``, run in order in one directory through ``cli.run``.  The
digests were taken before the container-to-trace dispatch and the growth
levels were each moved behind one function; both moves must keep every byte.
The three growth digests were re-taken when the report gained the tail
exponent, its bar, the edge distance and the log-divergent edge; every other
field of those documents kept its bytes.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from diskdual import GrowthFamilySpec, build_growth_report, verify_duality_isomorphism
from diskdual.cli import run

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


# (name, argv); "{d}" is the directory that the gen commands write into.
CLI_CORPUS = [
    # the README commands, plus the files they read
    ("gen-random-interior", "gen --random interior --N 8 --seed 3 --out {d}/u.json"),
    ("gen-family", "gen --family --gamma 1.0 --z0 1,0 --N 512 --out {d}/fam.json"),
    ("gen-random-exterior", "gen --random exterior --N 6 --seed 4 --out {d}/v.json"),
    ("gen-random-boundary", "gen --random boundary --N 5 --seed 5 --out {d}/f.json"),
    ("gen-random-exterior-empty", "gen --random exterior --N 0 --seed 1 --out {d}/v0.json"),
    ("gen-family-large", "gen --family --gamma 1.5 --z0 0.6,0.8 --N 32768 --out {d}/big.json"),
    ("norm-readme", "norm --in {d}/u.json --sp 0.5"),
    ("pair-readme", "pair --u {d}/u.json --v {d}/v.json --curve ellipse:1.5,0.7 --M 128"),
    ("cauchy-readme", "cauchy --in {d}/u.json --at 0.5,0 --curve circle:1.0 --M 256"),
    ("project-readme", "project --in {d}/f.json"),
    ("dualize-readme", "dualize --w {d}/f.json --s 0"),
    ("verify-duality-readme", "verify --suite duality --s 0 --trials 100 --N 32 --seed 7"),
    ("verify-scale-readme", "verify --suite scale --direction interior-finite-order --N 64 --seed 3"),
    ("growth-readme", "growth --gamma 2.0 --z0 1,0 --N 4096 --s-grid=-4:3"),
    # every kind through norm, pair, cauchy and project
    ("norm-exterior", "norm --in {d}/v.json --sp -1.5"),
    ("norm-boundary", "norm --in {d}/f.json --sp 2"),
    ("norm-exterior-empty", "norm --in {d}/v0.json --sp 0"),
    ("norm-family-large", "norm --in {d}/big.json --sp -0.75"),
    ("pair-boundary-exterior", "pair --u {d}/f.json --v {d}/v.json --curve circle:1.0 --M 128"),
    ("pair-exterior-interior", "pair --u {d}/v.json --v {d}/u.json --curve circle:1.0 --M 64"),
    ("pair-boundary-boundary", "pair --u {d}/f.json --v {d}/f.json"),
    ("cauchy-exterior", "cauchy --in {d}/v.json --at 0.3,0.2 --curve circle:1.0 --M 256"),
    ("cauchy-boundary-outside", "cauchy --in {d}/f.json --at 2,0.5"),
    ("cauchy-boundary-inside", "cauchy --in {d}/f.json --at 0.1,-0.4 --curve circle:1.0 --M 256"),
    ("project-interior", "project --in {d}/u.json --boundary-index 1.5"),
    ("project-exterior", "project --in {d}/v.json"),
    ("project-exterior-empty", "project --in {d}/v0.json"),
    ("dualize-exterior", "dualize --w {d}/v.json --s 2"),
    # growth at the edges of the grid and of the float range
    ("growth-wide-grid", "growth --gamma 5 --N 4096 --s-grid=-4:40"),
    ("growth-large-gamma", "growth --gamma 40 --N 65536"),
    ("growth-overflow", "growth --gamma 150 --N 4096"),
    # error paths
    ("norm-missing-file", "norm --in {d}/missing.json --sp 0"),
    ("cauchy-on-the-circle", "cauchy --in {d}/u.json --at 1,0"),
    ("pair-boundary-off-the-circle", "pair --u {d}/f.json --v {d}/v.json --curve ellipse:1.5,0.7"),
]

CLI_GOLDEN = {
    "gen-random-interior": (0, "83ca7b67cd8c6fdc7ac03dee43e24f6d92b1a36576af7d19cc5fa6328d42b729"),
    "gen-family": (0, "c67e54510594c51b73e80a78f53663e560e69562753ccf5f671563ba8a0a6d11"),
    "gen-random-exterior": (0, "ec87805645a979bab18084ab95fdd86d40bc9fca8d29276f41893e6794795b85"),
    "gen-random-boundary": (0, "bd586523e736c01f26d68d2db96238c857c69bd9490d718af5eab1ee4b72f5ec"),
    "gen-random-exterior-empty": (0, "5a96151c88ff6fa263cbdba120a4e4e5438db9a7bc4c62d44f61cf262600d5d9"),
    "gen-family-large": (0, "6f6a369040df4cf9eac690b3f62feedfd8aa85950d1a1033ed24b7caeb0ba9f7"),
    "norm-readme": (0, "7d59558c38467579c10dd3ecc428874f12b2d54e39d88c3002cf22cf0de3f711"),
    "pair-readme": (0, "f1f90e6aaad3a4e1680689ca6dc18b531cb533e5f8fb7083715ba9cd28bbeee1"),
    "cauchy-readme": (0, "6760bf4a69a26f616d698bc0d4c56b2614866fd8b1ed751d10edaf97eed66021"),
    "project-readme": (0, "031c0d4020ab75e61f21f8052173a4f98b2ce9292be32565858685eba50b6089"),
    "dualize-readme": (0, "bc91ebcd40f7fca1544969b4eb4d91e8b9d7e5540b3192f0fc1a063905781f4f"),
    "verify-duality-readme": (0, "746a686508ce24d4d62bd44ff52687acd79dcf273da07338a41ba75e9d7d1b00"),
    "verify-scale-readme": (0, "b19738b8ce3a762e86b803d4699230fd40a7e3bfb8e65eb749c79129df8909c5"),
    "growth-readme": (0, "86b5a4216658919c817d4c2ac578737753407c38a9e1a3f6106bb96384479aba"),
    "norm-exterior": (0, "fe2855f1c73fd93900de5124d96b00e26f10d3d2476571974491d4028b005cc3"),
    "norm-boundary": (0, "1fffc6ba93322db69d1bf1d37425dc9d8fd651e5b469d97227c6fafcce55a365"),
    "norm-exterior-empty": (0, "9c6878a007a2e27da62180b66d1532a2887ddb150ecebb49aa006d3386e8e2ec"),
    "norm-family-large": (0, "80eeb4fa10f9e00a230f058e2227ce50ba0e7e84ba2baabcccfd5e088084d4ee"),
    "pair-boundary-exterior": (0, "0f08be31b552a4275fac3df2a4f66627a732179686000c046328f2569e29d478"),
    "pair-exterior-interior": (0, "a756942a5d1768aa9127edd4de09d76d4322c588f402e8de34b26beb6f7f62fd"),
    "pair-boundary-boundary": (0, "896d9680cd181ff0c3c5f097e6912363c299fae8511587016eeb5c9f668274cb"),
    "cauchy-exterior": (0, "c67b4f322c8618e4e66d6ee752cc6e219abfe737fd42217648e73d38969ae5fd"),
    "cauchy-boundary-outside": (0, "9841120fc9e411eea283ee99166016d3192558936b8e54a496cbb5e0379f1280"),
    "cauchy-boundary-inside": (0, "8a7b37598ebd81c4658f135c175658631c5ddfd419f70379269d31812285ccfd"),
    "project-interior": (0, "c76652083f6a8fd6a0175f52116c4c92f94c02bc490459ee64d3fadbedca76b4"),
    "project-exterior": (0, "0cb6d1c0fe032450a6b80c671313ddc1cfcb0dee2dd75f9be3fbaef396e950a2"),
    "project-exterior-empty": (0, "b7467fc100d2bc35c17016c2bd4ad89dacbeb1b513de507eaefa340e3ec40192"),
    "dualize-exterior": (0, "35f960d1d26ae8729498626baa5b10f16931849de918cd87f3d1100c8700c939"),
    "growth-wide-grid": (0, "d732e73957731130864f02ee7e9890682a2ed6000e99f44e8c3d12c395165071"),
    "growth-large-gamma": (0, "ef9e2835a7c1cdabd8df5ca75ca71406276fdd0b61901efa13fb12b72a64598e"),
    "growth-overflow": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "norm-missing-file": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cauchy-on-the-circle": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "pair-boundary-off-the-circle": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def run_cli_corpus(directory) -> dict[str, tuple[int, str]]:
    """Exit code and sha256 of stdout for each corpus command, run in order."""
    results = {}
    for name, argv in CLI_CORPUS:
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = run(argv.format(d=directory).split())
        except Exception as exc:  # e.g. a RuntimeWarning turned into an error
            code = f"raised {type(exc).__name__}: {exc}"
        results[name] = (code, hashlib.sha256(out.getvalue().encode()).hexdigest())
    return results


@pytest.fixture(scope="module")
def cli_results(tmp_path_factory):
    return run_cli_corpus(tmp_path_factory.mktemp("cli"))


@pytest.mark.parametrize("name", [name for name, _ in CLI_CORPUS])
def test_cli_stdout_matches_the_golden_corpus(cli_results, name):
    assert cli_results[name] == CLI_GOLDEN[name]
