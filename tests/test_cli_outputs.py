"""Pinned CLI outputs and the double-overflow guard of ``branches``.

The digests were taken from the outputs of the ``Fraction``-based exact core
that preceded the integer one (Python 3.11.7, NumPy 2.4.6, mpmath 1.3.0 with
its pure-Python backend), so they pin both the integer exact half and the
numeric outputs built on it.  Floats in ``roots``, ``asymptote`` and
``branches`` depend on the NumPy and mpmath builds; the exact ``gen`` and
``verify`` outputs do not.  Outputs embed the ``--out`` path, so every run
writes to the same relative names inside a fresh directory.  The ``verify``
and ``roots`` digests predate the exact sign certificate of the
real-and-simple probe: those outputs are pinned apart from their probe
block, which is pinned on its own.
"""

import hashlib
import json
import warnings
from fractions import Fraction

import pytest

from chebsys import cli, parallel
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
    # taken before the commands shared one output writer
    "branches.json": "98f9561cb0d8a38af9f8074275f63a82e0744f8eb20af24b8c3e3db4d6ceaef4",
    "asymptote.csv": "8c6adb0e73e15a9237f38f29fd4158cfc1aa6ff079c60c1483dbb131cf98632c",
    "roots.csv": "8de44ed349ead7271be8dffae1fd4cd72bf75ceef36206f23320a9defb0a74fa",
    "roots.csv.summary.json": "4a9068b804434e2ef26ab67c6cef01f162e9c463301aeaa09f516ba790f297bc",
    "verify.csv": "9da81417cf577e25460dcc56c88112e2878ea190503e82f68adfffb9ba6ee05c",
    "gen0.json": "5a441dde49a99ff2fc0451428805746c67ef4d5eca05eb4de00b1a1ce99480a5",
    "gen0.csv": "c6714aad9a13c42253bef2299bf64a8a07310117883b30207eede69d6ca945c2",
    "gen0.csv.type2.csv": "5537f45a6f5ec05fa02b2820f6ef110a3a946976481c92cec5f23799b555565f",
    "gen0.csv.vectors.csv": "73910268105be546157f9afb41b6d6c2fa2a6109e5659bb6e39b7c4b4bb55b21",
    # taken while verify still built each image on its own, at its own size
    "verify_nlow.json": "8891d6b82ad70b350619e838c14648d1f621901edfb20d817c22a85a16403c15",
    "verify_nhigh.json": "3ae7fcc867806b918d3f5a6a23f2f1346aec9491ee109405a17f610dd2d94d69",
}

# taken before the root work was spread over worker processes; each must
# come out the same from one process and from three
PINNED_PARALLEL = {
    "roots60.json": "a836db5aeddca8a8a49c5e122f29336900afaf1579b37eea9728f6f4f4f3a5e0",
    "roots60.csv": "d11117cd40b7b999d70c5772a931fbea6305a923937e3df9bed262c36570c996",
    "roots60.csv.summary.json": "7bd5ca254ee968a2e99fc64c02a63f5e5249c4d965c0b153e8b672faa8424a7c",
    "verify30.json": "e670741bdcd583275c2fd2c3c8ad8aa04ab368e439e9c84f0f3c08406d4d550c",
    "asymptote200.json": "61998cedf6d6c90167da414b8642c6d5a37b8e41036662adf4a87dbd871a382e",
}


# the probe blocks those digests were taken with, before the sign
# certificate; each output is pinned apart from its probe block by putting
# the old block back in place of the current one
_PROBE_BEFORE = {
    "classification": "PASS", "offending_r": None, "reason": None,
}
PROBE_BEFORE = {
    "verify.json": {
        **_PROBE_BEFORE, "max_imag_normalized": 0.0,
        "min_separation_normalized": 0.989794855663562,
    },
    "roots.json": {
        **_PROBE_BEFORE, "checked": 11, "max_imag_normalized": 1.775728647249422e-40,
        "min_separation_normalized": 0.16833661172876996,
    },
    "roots60.json": {
        **_PROBE_BEFORE, "checked": 54, "max_imag_normalized": 1.4349296274686127e-42,
        "min_separation_normalized": 0.020436633063239517,
    },
    "verify30.json": {
        **_PROBE_BEFORE, "max_imag_normalized": 0.0,
        "min_separation_normalized": 0.9959999359979519,
    },
}
PROBE_BEFORE["roots60.csv.summary.json"] = PROBE_BEFORE["roots60.json"]

# the current probe blocks: every index certified, so no imaginary part, and
# the separation of the float root hints that certified it
_PROBE_AFTER = {**_PROBE_BEFORE, "first_uncertified_r": None, "max_imag_normalized": 0.0}
PROBE_AFTER = {
    "verify.json": {
        **_PROBE_AFTER, "checked": 6, "certified": 6,
        "min_separation_normalized": 0.989794855663562,
    },
    "roots.json": {
        **_PROBE_AFTER, "checked": 11, "certified": 11,
        "min_separation_normalized": 0.1683366117287698,
    },
    "roots60.json": {
        **_PROBE_AFTER, "checked": 54, "certified": 54,
        "min_separation_normalized": 0.020436633063239455,
    },
    "verify30.json": {
        **_PROBE_AFTER, "checked": 16, "certified": 16,
        "min_separation_normalized": 0.9959999359979519,
    },
}
PROBE_AFTER["roots60.csv.summary.json"] = PROBE_AFTER["roots60.json"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def probe_block(payload: dict) -> dict:
    if "checks" in payload:
        (block,) = [ch["details"] for ch in payload["checks"] if ch["name"] == "conjecture_probe"]
        return block
    return payload["summary"]["conjecture"]


def digest_apart_from_the_probe(payload: dict, name: str) -> str:
    """The digest of ``payload`` as written with its probe block from before
    the certificate, once its current block is checked."""
    block = probe_block(payload)
    assert block == PROBE_AFTER[name], name
    block.clear()
    block.update(PROBE_BEFORE[name])
    return digest((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())


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
    assert digest_apart_from_the_probe(payload, "verify.json") == PINNED["verify.json"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--m", "2", "--c", "7/3", "--R", "10", "--n-max", "6"], "verify_nlow.json"),
        (["--m", "3", "--c", "23/41", "--R", "8", "--n-max", "14"], "verify_nhigh.json"),
    ],
    ids=["n-max-below-R", "n-max-above-R"],
)
def test_verify_with_n_max_apart_from_r_is_pinned(workdir, argv, name):
    assert main(["verify", *argv, "--out", name]) == 0
    assert digest((workdir / name).read_bytes()) == PINNED[name]


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
    payload = json.loads((workdir / "roots.json").read_text())
    assert digest_apart_from_the_probe(payload, "roots.json") == PINNED["roots.json"]


def test_asymptote_is_pinned(workdir):
    argv = ["asymptote", "--m", "1", "--c", "1", "--z", "3,1", "--r-max", "30"]
    assert main(argv + ["--out", "asymptote.json"]) == 0
    assert digest((workdir / "asymptote.json").read_bytes()) == PINNED["asymptote.json"]


def test_branches_is_pinned(workdir):
    argv = ["branches", "--m", "2", "--c", "7/3", "--grid=-2:2:3,-1:1:2", "--format", "csv"]
    assert main(argv + ["--out", "branches.csv"]) == 0
    for name in ("branches.csv", "branches.csv.geometry.json"):
        assert digest((workdir / name).read_bytes()) == PINNED[name], name


@pytest.mark.parametrize(
    "argv, names",
    [
        (["branches", "--m", "2", "--c", "7/3", "--grid=-2:2:3,-1:1:2"], ["branches.json"]),
        (["asymptote", "--m", "1", "--c", "1", "--z", "3,1", "--r-max", "30", "--format", "csv"],
         ["asymptote.csv"]),
        (["roots", "--m", "1", "--c", "3/2", "--r-list", "0,1,5,20", "--format", "csv"],
         ["roots.csv", "roots.csv.summary.json"]),
        # verify writes JSON whatever the format
        (["verify", "--m", "2", "--c", "3/2", "--R", "6", "--format", "csv"], ["verify.csv"]),
        (["gen", "--m", "2", "--c", "5/3", "--R", "0"], ["gen0.json"]),
        (["gen", "--m", "2", "--c", "5/3", "--R", "0", "--format", "csv"],
         ["gen0.csv", "gen0.csv.type2.csv", "gen0.csv.vectors.csv"]),
    ],
    ids=["branches-json", "asymptote-csv", "roots-csv", "verify-csv", "gen0-json", "gen0-csv"],
)
def test_each_layout_is_pinned(workdir, argv, names):
    assert main(argv + ["--out", names[0]]) == 0
    assert sorted(p.name for p in workdir.iterdir()) == sorted(names)
    for name in names:
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


@pytest.fixture(params=[1, 3], ids=["1-worker", "3-workers"])
def workers(request, monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: request.param)
    if request.param > 1:
        # fork for every map, however little its work
        monkeypatch.setattr(parallel, "MIN_COST", 0)
    return request.param


def test_roots_json_csv_and_summary_are_pinned(workdir, workers):
    argv = ["roots", "--m", "2", "--c", "59/62", "--r-max", "60"]
    assert main(argv + ["--out", "roots60.json"]) == 0
    assert main(argv + ["--format", "csv", "--out", "roots60.csv"]) == 0
    csv_digest = digest((workdir / "roots60.csv").read_bytes())
    assert csv_digest == PINNED_PARALLEL["roots60.csv"]
    for name in ("roots60.json", "roots60.csv.summary.json"):
        payload = json.loads((workdir / name).read_text())
        assert digest_apart_from_the_probe(payload, name) == PINNED_PARALLEL[name], name


def test_verify_with_the_probe_is_pinned(workdir, workers):
    argv = ["verify", "--m", "3", "--c", "23/41", "--R", "30", "--out", "verify30.json"]
    assert main(argv) == 0
    payload = json.loads((workdir / "verify30.json").read_text())
    digest_out = digest_apart_from_the_probe(payload, "verify30.json")
    assert digest_out == PINNED_PARALLEL["verify30.json"]


def test_deep_asymptote_scan_is_pinned(workdir, workers):
    argv = ["asymptote", "--m", "3", "--c", "1", "--z", "3,1", "--r-max", "200"]
    assert main(argv + ["--precision", "200", "--out", "asymptote200.json"]) == 0
    digest_out = digest((workdir / "asymptote200.json").read_bytes())
    assert digest_out == PINNED_PARALLEL["asymptote200.json"]
