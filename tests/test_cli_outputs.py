"""Pinned CLI outputs and the double-overflow guard of ``branches``.

Each file a pinned run writes has one sha256 in ``PINNED``, the digest of
the bytes the CLI wrote for that argv.  When an output moves, its digest is
re-taken from the new file, and CHANGES.md records the moved cells and the
reason; nothing else pins the file as it was.  No command loads numpy or
mpmath, so the digests do not depend on their builds.  Outputs embed the
``--out`` path, so every run writes to the same relative names inside a
fresh directory.
"""

import csv
import hashlib
import io
import json
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebsys import cli
from chebsys.cli import main
from chebsys.rationals import rat_strs
from chebsys.recurrence import Params, gen_type1_records, gen_type1_vectors, gen_type2

PINNED = {
    "gen.json": "0616b9332e5d54d00e60072b2bf659f0ce9693b66b1690fc22e22c80d36865dc",
    "gen.csv": "e744ef640344c324a9c1b9cc78a5cc9595cb1f8026c66bd4df9e8cc1b1292eea",
    "gen.csv.type2.csv": "96454e25c3a8774c81925c357954a7a1c2e7c2f6769999749c6eaed3890ffa4b",
    "gen.csv.vectors.csv": "acc0452abceefe76c1bc07974c3383efc8410b04fc5f8fb953a0f4d13cdd4d4f",
    "verify.json": "a55cdefe15c9e115ce63327dbd9f2f955551f6215a2621b6ad0d7ccbf77e00c4",
    "roots.json": "0ae7c557f9ff25f004a8fc9cd505218199cd3e3896a80fb9be9c431ce8209f93",
    "asymptote.json": "cd67a3069b446192606800d620b8693da24bf791ca722a08b0caceecedfae6a4",
    "branches.csv": "628223b9236f7312517f6a8871f9cc1c2795b5189fa673a941e0dce283472a71",
    "branches.csv.geometry.json": "86286c12701074898fddadcf4defaa00f31b29773f385e698b3f8e3d472d7eb2",
    "branches.json": "e1b2d40a0e2810f7f62a4268fbda6b2ce385c2777daae45c4eadf6f672eac58c",
    "asymptote.csv": "145d11532be95e35e2ce3e981cf5b5db2995eb2694568cdf403509e0d75b0f27",
    "roots.csv": "9be3fa11f36f5ce291975731fbc15f0c8de4594b41ea93b76e68f9c5c49829ba",
    "roots.csv.summary.json": "a8b54a2c3230fdbe89cc45ebdbc0bc96955e9208036e066be35d16762aeabc3d",
    "verify.csv": "caaa08caded0f1eb1728b61ac591fdd5d72b887272b9cddf8e7c688292192abf",
    "gen0.json": "5a441dde49a99ff2fc0451428805746c67ef4d5eca05eb4de00b1a1ce99480a5",
    "gen0.csv": "c6714aad9a13c42253bef2299bf64a8a07310117883b30207eede69d6ca945c2",
    "gen0.csv.type2.csv": "5537f45a6f5ec05fa02b2820f6ef110a3a946976481c92cec5f23799b555565f",
    "gen0.csv.vectors.csv": "73910268105be546157f9afb41b6d6c2fa2a6109e5659bb6e39b7c4b4bb55b21",
    "verify_nlow.json": "b7a031773f5348df42910280a4a8c566164846b2c3665f7adedc0be3b0caf477",
    "verify_nhigh.json": "dfa1f734603e97b75b12f29207988eae26cfd884c8c22a52c8d048e224082c11",
    "gen1.json": "15b490862e0208635aebb3c96488f14abd0879b2f12a8cedc5d67fcb24fac515",
    "gen1.csv": "c5e4daa6934605b9de4c9cc5834038abb41d202c4eb1d64d0d81b45fe1b1d877",
    "gen1.csv.type2.csv": "d73d66892d7db9d2cd65c2c1d773678c915ac16a5f7b71f8ff5cfb05bee1a110",
    "gen1.csv.vectors.csv": "0a326e0204c671501bc73bbd6a01980dfbe6e0562f12d494f349e3563de6403b",
    "gen5.json": "0ed003ebc017cc4b403e36cb69e6bef0e1cbff1786cb4a3bc7b96e42f9c07706",
    "gen5.csv": "035e2081f26c3fdc86f063ac092179b40bb6deb0989a29b63c3825a997d3919f",
    "gen5.csv.type2.csv": "79b3ae9344cfe48dbdcd99cfcdc6913b8c0ee73019884b7467ba432d1c4fe7ca",
    "gen5.csv.vectors.csv": "75130f23f7d41e719c0d2ac6afa84e83a6bd53e54dc06fc3635ceda973dd6f25",
    "gen_huge.json": "153e37f47261fcfb7a59aa5a095cf161bc0b45473a64886158992ada48251c78",
    "gen_huge.csv": "a4700abd44aa02da7d799c1b78bdeff8696315d7c2098385029fb7109c1465e3",
    "gen_huge.csv.type2.csv": "7cd68b678c70a917db2bd86a2aebbb65c47167a09ee8d1e6d310a94379f186fb",
    "gen_huge.csv.vectors.csv": "8320da5cc96e70279fcd60ec0ee8327da7932b98732843283f277c625f153e0b",
    "gen_tiny.json": "010cdc97d68941c24dd3b441ac3149ed0b7638d78d8b676a067dcf918349de42",
    "gen_tiny.csv": "cf8735678b8a5f88770b8a9575893e49d4feb586a685758e8c4128302545c624",
    "gen_tiny.csv.type2.csv": "6672f35a04dfca1f744f8a86d8cfc3cedac6065a0f278d7ebc8e67f812250db5",
    "gen_tiny.csv.vectors.csv": "3d351554c4a090c4a9607da160b503e7f35b52a5d2715059aacdaa1f5443922e",
    "roots60.json": "98db50ffbd7be1b35a4520699202039b680b8d4afcabe65599e701bf7da79ed7",
    "roots60.csv": "81654876c3bf97d32b960072d45ab4f4f7038fb8fc7bd8965f265f09f179d332",
    "roots60.csv.summary.json": "c2912162f61b989cdd3012e2ac808227fcdbf1d6096eb42d90c9cb7fb7452c7f",
    "verify30.json": "e5775d5f197e22ee42981afc32b68d292b932e6772fd793628212044a2ee8d86",
    "asymptote200.json": "61998cedf6d6c90167da414b8642c6d5a37b8e41036662adf4a87dbd871a382e",
    "odd.json": "e77a356c31a7f7e46dbf76d8b23e82bbb78f04bb78529dd5f7f294322f41a0ed",
}


def assert_pinned(directory, *names: str) -> None:
    """Each named file in ``directory`` has the sha256 ``PINNED`` gives it."""
    for name in names:
        assert hashlib.sha256((directory / name).read_bytes()).hexdigest() == PINNED[name], name


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_gen_json_is_pinned(workdir):
    assert main(["gen", "--m", "2", "--c", "5/3", "--R", "30", "--out", "gen.json"]) == 0
    assert_pinned(workdir, "gen.json")


def test_gen_csv_and_sidecars_are_pinned(workdir):
    argv = ["gen", "--m", "3", "--c", "311/457", "--R", "40", "--format", "csv"]
    assert main(argv + ["--out", "gen.csv"]) == 0
    assert_pinned(workdir, "gen.csv", "gen.csv.type2.csv", "gen.csv.vectors.csv")


@pytest.mark.parametrize(
    "m, c, R, name", [(1, "37/29", 34, "gen1"), (5, "83/61", 38, "gen5")], ids=["m1", "m5"]
)
def test_gen_at_the_smallest_and_largest_m_is_pinned(workdir, m, c, R, name):
    argv = ["gen", "--m", str(m), "--c", c, "--R", str(R)]
    assert main(argv + ["--out", f"{name}.json"]) == 0
    assert main(argv + ["--format", "csv", "--out", f"{name}.csv"]) == 0
    names = [f"{name}.json", f"{name}.csv", f"{name}.csv.type2.csv", f"{name}.csv.vectors.csv"]
    assert sorted(p.name for p in workdir.iterdir()) == sorted(names)
    assert_pinned(workdir, *names)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_each_vector_row_is_the_generated_component(workdir, m):
    # gen derives the vector table from the scalar terms; it must hold the
    # coefficients of the recurrence run for each component
    p = Params(m, "17/23")
    for R in sorted({0, m - 1, m, 25}):
        assert main(["gen", "--m", str(m), "--c", "17/23", "--R", str(R),
                     "--format", "csv", "--out", "gen.csv"]) == 0
        lines = (workdir / "gen.csv.vectors.csv").read_text().splitlines()
        assert lines[1] == "r,j,degree,coeffs"
        expected = [
            f"{rec.r},{j},{comp.degree},{';'.join(rat_strs(comp.nums, comp.den))}"
            for rec in gen_type1_vectors(p, R)
            for j, comp in enumerate(rec.components)
        ]
        assert lines[2:] == expected, R


@pytest.mark.parametrize(
    "c, name", [(str(10**40), "gen_huge"), (f"1/{10**40}", "gen_tiny")], ids=["huge", "tiny"]
)
def test_gen_at_an_extreme_c_is_pinned(workdir, c, name):
    # denominators of up to hundreds of digits, and h_r = -t_r's picks at odd k
    argv = ["gen", "--m", "2", "--c", c, "--R", "40"]
    assert main(argv + ["--out", f"{name}.json"]) == 0
    assert main(argv + ["--format", "csv", "--out", f"{name}.csv"]) == 0
    assert_pinned(workdir, f"{name}.json", f"{name}.csv", f"{name}.csv.type2.csv",
                  f"{name}.csv.vectors.csv")


@pytest.mark.parametrize("c", ["1", "3/7", "7/3", 10**40, Fraction(1, 10**40)],
                         ids=["1", "3/7", "7/3", "huge", "tiny"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_h_strings_picked_from_t_are_those_of_h(m, c):
    records = gen_type1_records(Params(m, c), 60)
    for rec in records:
        t = rat_strs(rec.t.nums, rec.t.den)
        assert cli._h_strs(t, rec, m) == rat_strs(rec.h.nums, rec.h.den), rec.r
    # the vanishing indices (tau = -1, at m > 1) and both parities of k are covered
    assert any(rec.tau == -1 for rec in records) == (m > 1)
    assert {rec.k % 2 for rec in records if rec.tau >= 0} == ({0} if m == 1 else {0, 1})


def test_a_picked_zero_stays_0_over_1_at_odd_k():
    # a generated h_r has no zero coefficient, so the tables above never
    # pick one; the rule is that of rat_strs all the same
    rec = type("Rec", (), {"ell": 1, "k": 1})
    t = ["0/1", "1/2", "0/1", "0/1", "-3/4", "0/1", "0/1", "0/1"]
    assert cli._h_strs(t, rec, 2) == ["-1/2", "3/4", "0/1"]


def test_gen_writes_each_t_and_T_once_and_no_h(workdir, monkeypatch):
    calls = []

    def counted(nums, den):
        calls.append((tuple(nums), den))
        return rat_strs(nums, den)

    monkeypatch.setattr(cli, "rat_strs", counted)
    m, c, R = 3, "311/457", 40
    assert main(["gen", "--m", str(m), "--c", c, "--R", str(R), "--out", "gen.json"]) == 0
    p = Params(m, c)
    polys = [rec.t for rec in gen_type1_records(p, R)] + gen_type2(p, R)
    assert calls == [(poly.nums, poly.den) for poly in polys]


# rows of cells as emit hands them to its row writer
CELL_ROWS = [
    ["a,b", "plain"],
    ['say "hi"', "x"],
    ["line\nbreak", "y"],
    ["carriage\rreturn", "z"],
    ["\r\n", ",", '"'],
    [""],  # a lone empty cell
    ["", ""],
    ["", "", ""],
    [],
    [" lead", "trail ", " both ", " "],
    [";", "a;b", "'", "\t", "#"],
    cli._cells([0, -7, 10**40], 3),
    cli._cells([0.1, -2.5e-300, 1e308, float("nan"), float("inf"), -0.0], 6),
    cli._cells([True, False, None, ["1/2", "-3/4"], []], 5),
    cli._cells([1.5, -2.0, "solver-divergence"], 6),  # an error row, padded
]


def written(rows, write=None) -> str:
    """The text ``write(fh, rows)`` writes, by default the csv module's."""
    fh = io.StringIO(newline="")
    if write is None:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    else:
        write(fh, rows)
    return fh.getvalue()


@pytest.mark.parametrize("cells", CELL_ROWS)
def test_row_writer_writes_what_the_csv_module_writes(cells):
    assert written([cells], cli._write_rows) == written([cells])


def test_row_writer_matches_the_csv_module_over_a_table():
    assert written(CELL_ROWS, cli._write_rows) == written(CELL_ROWS)


# any text, with the characters that call for quoting drawn often
CELL_TEXT = st.text(alphabet=st.one_of(st.sampled_from(',"\r\n '), st.characters()), max_size=6)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(CELL_TEXT, max_size=4), max_size=5))
def test_row_writer_matches_the_csv_module_on_any_text(rows):
    assert written(rows, cli._write_rows) == written(rows)


# any text, with quotes, backslashes, control characters, non-ASCII
# characters and lone surrogates drawn often
JSON_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x08\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'),
        st.characters(),
    ),
    max_size=8,
)
JSON_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
JSON_SCALARS = st.one_of(
    JSON_TEXT,
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from(JSON_FLOATS),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


def assert_written_as_json_writes(value) -> None:
    assert cli._to_json(value) == json.dumps(value, sort_keys=True, indent=2)
    assert cli._to_json(value, indent=False) == json.dumps(value, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [
        JSON_FLOATS,
        {"b": [], "a": {}, "c": [[], {}, ()], "": None},
        ["x", "y", 1],  # strings, then one value that is not
        [1, "x", "y"],
        {"rows": [{"z": 1.5, "lambdas": [[0.1, -0.0]], "error": ""}], "ok": True},
        'quote " backslash \\ tab \t nul \x00 \u00e9 \ud800',
        10**400 // 7,
        [0.5, -0.0, 5e-324],  # finite floats
        [0.5, math.inf],  # floats, then one that is not finite
        [0.5, True],  # floats, then one value that is not a float
        [0.5, 1],
    ],
)
def test_json_writer_writes_what_the_json_module_writes(value):
    assert_written_as_json_writes(value)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_the_json_module_on_any_value(value):
    assert_written_as_json_writes(value)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.floats(), st.sampled_from(JSON_FLOATS)), min_size=1, max_size=6),
    st.one_of(st.just([]), JSON_SCALARS.map(lambda item: [item])),
)
def test_json_writer_matches_the_json_module_on_float_lists(floats, last):
    # lists of floats, such as a row's moduli and omegas, and each of its
    # lambda pairs, with -0.0, 5e-324, inf and nan drawn often, and
    # followed at times by one scalar of another kind
    assert_written_as_json_writes(floats + last)
    assert_written_as_json_writes({"rows": [{"moduli": floats + last, "lambdas": [floats]}]})


def test_json_writer_refuses_what_the_json_module_refuses():
    for value in ({1, 2}, [Fraction(1, 2)], {"a": 1j}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._to_json(value)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json.dumps(value)


def test_int_cells_are_written_as_the_csv_module_writes_ints():
    row = [0, -7, 10**40, True]
    assert written([cli._cells(row, 4)], cli._write_rows) == written([[0, -7, 10**40, "true"]])


def test_verify_is_pinned(workdir):
    argv = ["verify", "--m", "2", "--c", "3/2", "--R", "12", "--n-max", "12", "--seed", "4"]
    assert main(argv + ["--out", "verify.json"]) == 0
    assert_pinned(workdir, "verify.json")


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
    assert_pinned(workdir, name)


def test_verify_reports_a_broken_denominator(workdir, monkeypatch):
    # T_3 may carry Q = 2 in its denominator, never 11: its image is no
    # longer the unit vector e_3
    real = cli.gen_type2

    def tampered(p, n):
        terms = real(p, n)
        terms[3] = terms[3] * Fraction(1, 11)
        return terms

    monkeypatch.setattr(cli, "gen_type2", tampered)
    argv = ["verify", "--m", "2", "--c", "3/2", "--R", "6", "--out", "verify.json"]
    assert main(argv) == 1
    payload = json.loads((workdir / "verify.json").read_text())
    failed = [ch["name"] for ch in payload["checks"] if ch["status"] == "FAIL"]
    assert failed == ["jump_type2", "biorthogonality_gram"]
    assert payload["passed"] is False


def test_roots_is_pinned(workdir):
    argv = ["roots", "--m", "1", "--c", "3/2", "--r-max", "12", "--out", "roots.json"]
    assert main(argv) == 0
    assert_pinned(workdir, "roots.json")


def test_asymptote_is_pinned(workdir):
    argv = ["asymptote", "--m", "1", "--c", "1", "--z", "3,1", "--r-max", "30"]
    assert main(argv + ["--out", "asymptote.json"]) == 0
    assert_pinned(workdir, "asymptote.json")


def test_branches_is_pinned(workdir):
    argv = ["branches", "--m", "2", "--c", "7/3", "--grid=-2:2:3,-1:1:2", "--format", "csv"]
    assert main(argv + ["--out", "branches.csv"]) == 0
    assert_pinned(workdir, "branches.csv", "branches.csv.geometry.json")


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
    assert_pinned(workdir, *names)


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


def test_non_real_branch_values_beyond_double_range_are_an_overflow_row(workdir):
    # |z/c| is about 3e319: the disc rule is relative to each value, so
    # this point solves as the real z = 1e300 does, from the Newton
    # polygon's seeds on the kernel
    argv = ["branches", "--m", "1", "--c", "1/100000000000000000000",
            "--z=-1.2484405096414273e299,2.727892280477045e299", "--precision", "64"]
    assert main(argv + ["--out", "b.json"]) == 0
    doc = json.loads((workdir / "b.json").read_text())
    assert "solver" not in doc
    assert doc["rows"] == [
        {"z_re": -1.2484405096414273e299, "z_im": 2.727892280477045e299, "error": "overflow"}
    ]


def test_roots_json_csv_and_summary_are_pinned(workdir):
    argv = ["roots", "--m", "2", "--c", "59/62", "--r-max", "60"]
    assert main(argv + ["--out", "roots60.json"]) == 0
    assert main(argv + ["--format", "csv", "--out", "roots60.csv"]) == 0
    assert_pinned(workdir, "roots60.json", "roots60.csv", "roots60.csv.summary.json")


def test_verify_with_the_probe_is_pinned(workdir):
    argv = ["verify", "--m", "3", "--c", "23/41", "--R", "30", "--out", "verify30.json"]
    assert main(argv) == 0
    assert_pinned(workdir, "verify30.json")


def test_deep_asymptote_scan_is_pinned(workdir):
    argv = ["asymptote", "--m", "3", "--c", "1", "--z", "3,1", "--r-max", "200"]
    assert main(argv + ["--precision", "200", "--out", "asymptote200.json"]) == 0
    assert_pinned(workdir, "asymptote200.json")
