"""Pinned CLI outputs and the double-overflow guard of ``branches``.

The digests were taken from the outputs of the ``Fraction``-based exact core
that preceded the integer one (Python 3.11.7, NumPy 2.4.6, mpmath 1.3.0 with
its pure-Python backend), so they pin both the integer exact half and the
numeric outputs built on it.  Floats in ``roots``, ``asymptote`` and
``branches`` depend on the NumPy and mpmath builds; the exact ``gen`` and
``verify`` outputs do not.  Outputs embed the ``--out`` path, so every run
writes to the same relative names inside a fresh directory.
"""

import hashlib
import json
import warnings
from fractions import Fraction

import pytest

from chebsys import cli
from chebsys.cli import main

PINNED = {
    "gen.json": "0616b9332e5d54d00e60072b2bf659f0ce9693b66b1690fc22e22c80d36865dc",
    "gen.csv": "e744ef640344c324a9c1b9cc78a5cc9595cb1f8026c66bd4df9e8cc1b1292eea",
    "gen.csv.type2.csv": "96454e25c3a8774c81925c357954a7a1c2e7c2f6769999749c6eaed3890ffa4b",
    "gen.csv.vectors.csv": "acc0452abceefe76c1bc07974c3383efc8410b04fc5f8fb953a0f4d13cdd4d4f",
    "verify.json": "d2733d3446829d4101797855a7fea839f376cb13c13163126b912b96763de1a0",
    "roots.json": "0aa990d4f9f74aeed70dae93934e0cc68fd956d04ccbe9ac92a4797ca02c2c08",
    "asymptote.json": "8003bbe3fafd40e47754540e113494f9e1c55b0913fc61cdd6d80546280ecd7e",
    "branches.csv": "118033037a27112f1c73d13fbbde89b28c5b7c8fbf87557d4aefcb7baa4c70b9",
    "branches.csv.geometry.json": "e25bad7d096404769c6f0b60acbad258f6034a3c4b9e1047d3024160c882072e",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_gen_json_is_pinned(workdir):
    assert main(["gen", "--m", "2", "--c", "5/3", "--R", "30", "--out", "gen.json"]) == 0
    assert digest((workdir / "gen.json").read_bytes()) == PINNED["gen.json"]


def test_gen_csv_and_sidecars_are_pinned(workdir):
    argv = ["gen", "--m", "3", "--c", "311/457", "--R", "40", "--format", "csv"]
    assert main(argv + ["--out", "gen.csv"]) == 0
    for name in ("gen.csv", "gen.csv.type2.csv", "gen.csv.vectors.csv"):
        assert digest((workdir / name).read_bytes()) == PINNED[name], name


def test_verify_is_pinned_apart_from_the_denominator_check(workdir):
    argv = ["verify", "--m", "2", "--c", "3/2", "--R", "12", "--n-max", "12", "--seed", "4"]
    assert main(argv + ["--out", "verify.json"]) == 0
    payload = json.loads((workdir / "verify.json").read_text())
    added = [ch for ch in payload["checks"] if ch["name"] == "denominator_structure"]
    assert [(ch["kind"], ch["status"]) for ch in added] == [("hard", "PASS")]
    payload["checks"] = [ch for ch in payload["checks"] if ch not in added]
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert digest(text.encode()) == PINNED["verify.json"]


def test_verify_reports_a_broken_denominator(workdir, monkeypatch):
    real = cli.gen_type2

    def tampered(p, n):
        terms = real(p, n)
        terms[3] = terms[3] * Fraction(1, 11)
        return terms

    monkeypatch.setattr(cli, "gen_type2", tampered)
    argv = ["verify", "--m", "2", "--c", "3/2", "--R", "6", "--out", "verify.json"]
    assert main(argv) == 1
    payload = json.loads((workdir / "verify.json").read_text())
    checks = {ch["name"]: ch for ch in payload["checks"]}
    assert checks["denominator_structure"]["status"] == "FAIL"
    assert "T_3" in checks["denominator_structure"]["details"]["witness"]
    assert payload["passed"] is False


def test_roots_is_pinned(workdir):
    argv = ["roots", "--m", "1", "--c", "3/2", "--r-max", "12", "--out", "roots.json"]
    assert main(argv) == 0
    assert digest((workdir / "roots.json").read_bytes()) == PINNED["roots.json"]


def test_asymptote_is_pinned(workdir):
    argv = ["asymptote", "--m", "1", "--c", "1", "--z", "3,1", "--r-max", "30"]
    assert main(argv + ["--out", "asymptote.json"]) == 0
    assert digest((workdir / "asymptote.json").read_bytes()) == PINNED["asymptote.json"]


def test_branches_is_pinned(workdir):
    argv = ["branches", "--m", "2", "--c", "7/3", "--grid=-2:2:3,-1:1:2", "--format", "csv"]
    assert main(argv + ["--out", "branches.csv"]) == 0
    for name in ("branches.csv", "branches.csv.geometry.json"):
        assert digest((workdir / name).read_bytes()) == PINNED[name], name


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_branch_values_beyond_double_range_are_an_overflow_row(workdir, fmt):
    # the branch value near z/c = 2e308 is finite in mpmath but not as a double
    out = f"b.{fmt}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["branches", "--m", "1", "--c", "1/2", "--z", "1e308,0",
                     "--format", fmt, "--out", out])
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    text = (workdir / out).read_text()
    assert "Infinity" not in text and "inf" not in text
    if fmt == "json":
        rows = json.loads(text)["rows"]
        assert rows == [{"z_re": 1e308, "z_im": 0.0, "error": "overflow"}]
    else:
        last = text.splitlines()[-1].split(",")
        assert last[:2] == ["1e+308", "0"] and last[-1] == "overflow"
        assert set(last[2:-1]) == {""}
