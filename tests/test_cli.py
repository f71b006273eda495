import json
import math

import pytest

from chebsys import algebraic, cli, operators, parallel, rootfind
from chebsys import roots as roots_module
from chebsys.algebraic import DegenerateBranches
from chebsys.cli import EXIT_NUMERIC, main
from chebsys.exactpoly import Poly
from chebsys.recurrence import NoVariantMatches, Params
from chebsys.rootfind import RootRefinementError
from chebsys.roots import ConvergenceFailure


# the numeric commands, each with the arguments it needs besides --m and --c
NUMERIC_COMMANDS = [
    ("roots", ["--r-max", "6"]),
    ("branches", ["--z", "1,1"]),
    ("asymptote", ["--z", "3,1", "--r-max", "10"]),
]


def run(*argv):
    return main(list(argv))


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestGen:
    def test_scalar_row_r6(self, tmp_path):
        out = tmp_path / "gen.json"
        assert run("gen", "--m", "2", "--c", "1", "--R", "6", "--out", str(out)) == 0
        payload = load(out)
        assert payload["schema"] == "chebsys/1"
        row = payload["scalar"][6]
        assert row["t"] == ["1/1", "0/1", "0/1", "1/1"]
        assert row["h"] == ["1/1", "1/1"]
        assert (row["d"], row["k"], row["tau"], row["ell"]) == (3, 0, 1, 0)

    def test_single_row(self, tmp_path):
        out = tmp_path / "gen.json"
        assert run("gen", "--m", "1", "--c", "1", "--R", "0", "--out", str(out)) == 0
        payload = load(out)
        assert len(payload["scalar"]) == 1
        assert payload["scalar"][0]["t"] == ["1/1"]

    def test_rational_parameter(self, tmp_path):
        out = tmp_path / "gen.json"
        assert run("gen", "--m", "2", "--c", "3/2", "--R", "3", "--out", str(out)) == 0
        payload = load(out)
        assert payload["scalar"][2]["t"] == ["0/1", "2/3"]
        assert payload["config"]["c"] == "3/2"

    def test_csv_outputs(self, tmp_path):
        out = tmp_path / "gen.csv"
        assert run(
            "gen", "--m", "2", "--c", "1", "--R", "6",
            "--format", "csv", "--out", str(out),
        ) == 0
        text = out.read_text()
        assert text.startswith("# schema=chebsys/1 ")
        assert "1/1;0/1;0/1;1/1" in text
        assert (tmp_path / "gen.csv.type2.csv").exists()
        assert (tmp_path / "gen.csv.vectors.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["gen", "--m", "3", "--c", "1/2", "--R", "15", "--seed", "5"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        ba, bb = a.read_bytes(), b.read_bytes()
        # the only difference is the embedded output path
        assert ba.replace(b"a.json", b"x.json") == bb.replace(b"b.json", b"x.json")
        assert main(argv + ["--out", str(a)]) == 0
        assert a.read_bytes() == ba


class TestVerify:
    def test_passes_and_reports(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run(
            "verify", "--m", "2", "--c", "1", "--R", "14", "--n-max", "14",
            "--out", str(out),
        ) == 0
        payload = load(out)
        assert payload["passed"] is True
        names = {check["name"]: check for check in payload["checks"]}
        assert names["biorthogonality_gram"]["status"] == "PASS"
        assert names["h_recurrence_signs"]["kind"] == "informational"
        assert names["h_recurrence_signs"]["details"]["k_parity_rule_holds"] is True
        assert names["conjecture_probe"]["details"]["classification"] in {
            "PASS", "COUNTEREXAMPLE",
        }

    def test_m1_shift_vacuous(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run(
            "verify", "--m", "1", "--c", "1", "--R", "10", "--out", str(out)
        ) == 0
        payload = load(out)
        names = {check["name"]: check for check in payload["checks"]}
        assert names["shift_identity"]["details"]["checked"] == 0
        assert names["factorization"]["status"] == "PASS"

    def test_hard_failure_yields_exit_one(self, tmp_path, monkeypatch):
        # a wrong T_2 in the table verify generates: the jump check must read
        # verify's own tables to see it
        real = cli.gen_type2

        def tampered(p, n):
            terms = real(p, n)
            terms[2] = terms[2] + Poly((1,))
            return terms

        monkeypatch.setattr(cli, "gen_type2", tampered)
        out = tmp_path / "verify.json"
        assert run(
            "verify", "--m", "1", "--c", "1", "--R", "4", "--out", str(out)
        ) == 1
        payload = load(out)
        assert payload["passed"] is False
        names = {check["name"]: check for check in payload["checks"]}
        assert names["jump_type2"]["status"] == "FAIL"
        assert names["jump_type2"]["details"]["failures"] == [2]

    def test_each_image_runs_horner_once_per_polynomial(self, tmp_path, monkeypatch):
        # the adjointness trials apply T to random vectors; with them stubbed
        # out, only the operator images run Horner's rule: m per type I
        # image and one per type II image, each built once
        monkeypatch.setattr(cli, "_check_adjointness", lambda p, seed: ("PASS", {}))
        horner = operators._poly_image
        calls = []

        def counted(*args):
            calls.append(args)
            return horner(*args)

        monkeypatch.setattr(operators, "_poly_image", counted)
        m, R, n_max = 3, 9, 13
        assert run(
            "verify", "--m", str(m), "--c", "23/41", "--R", str(R), "--n-max", str(n_max),
            "--out", str(tmp_path / "verify.json"),
        ) == 0
        assert len(calls) == m * (R + 1) + (n_max + 1)


class TestBranches:
    def test_single_point_values(self, tmp_path):
        out = tmp_path / "branches.json"
        assert run(
            "branches", "--m", "1", "--c", "1", "--z", "3,0", "--out", str(out)
        ) == 0
        payload = load(out)
        row = payload["rows"][0]
        lam0, lam1 = row["lambdas"]
        assert abs(lam0[0] - (3 - math.sqrt(5)) / 2) < 1e-12
        assert abs(lam1[0] - (3 + math.sqrt(5)) / 2) < 1e-12
        assert row["tie_flag"] is False
        assert abs(payload["geometry"]["a"] - 2) < 1e-12

    def test_branch_point_row_is_tied(self, tmp_path):
        out = tmp_path / "branches.json"
        assert run(
            "branches", "--m", "1", "--c", "1", "--z", "2,0", "--out", str(out)
        ) == 0
        assert load(out)["rows"][0]["tie_flag"] is True

    def test_grid_csv_with_geometry_sidecar(self, tmp_path):
        out = tmp_path / "branches.csv"
        assert run(
            "branches", "--m", "2", "--c", "1", "--grid", "0.5:2.5:3,0.5:1.5:2",
            "--format", "csv", "--out", str(out),
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 6  # comment, header, six grid rows
        sidecar = load(tmp_path / "branches.csv.geometry.json")
        assert abs(sidecar["geometry"]["a"] - 1.8898815748423097) < 1e-9
        assert len(sidecar["geometry"]["branch_points"]) == 3

    def test_solver_counts_which_path_ran(self, tmp_path):
        # z = 1 has a conjugate pair of branches and z = 2 is a branch point,
        # so both go to mpmath; z = 3 is solved by the 53-bit fast path
        grid = ["--grid", "1:3:3,0:0:1"]
        out = tmp_path / "branches.json"
        assert run("branches", "--m", "1", "--c", "1", *grid, "--out", str(out)) == 0
        payload = load(out)
        assert payload["solver"] == {"batched": 1, "fallback": 2}
        assert [row["tie_flag"] for row in payload["rows"]] == [True, True, False]
        csv_out = tmp_path / "branches.csv"
        assert run(
            "branches", "--m", "1", "--c", "1", *grid,
            "--format", "csv", "--out", str(csv_out),
        ) == 0
        sidecar = load(tmp_path / "branches.csv.geometry.json")
        assert sidecar["solver"] == {"batched": 1, "fallback": 2}
        assert len(csv_out.read_text().splitlines()) == 2 + 3
        assert run(
            "branches", "--m", "1", "--c", "1", *grid,
            "--precision", "80", "--out", str(out),
        ) == 0
        assert load(out)["solver"] == {"batched": 0, "fallback": 3}

    def test_requires_point_or_grid(self, tmp_path):
        out = tmp_path / "branches.json"
        assert run("branches", "--m", "1", "--c", "1", "--out", str(out)) == 2

    def test_negative_grid_bounds_parse(self, tmp_path):
        out = tmp_path / "branches.json"
        assert run(
            "branches", "--m", "2", "--c", "1", "--grid", "-2:2:3,-1:1:3",
            "--out", str(out),
        ) == 0
        assert len(load(out)["rows"]) == 9

    def test_negative_point_parses(self, tmp_path):
        out = tmp_path / "branches.json"
        assert run(
            "branches", "--m", "1", "--c", "1", "--z", "-3,0", "--out", str(out)
        ) == 0
        assert load(out)["rows"][0]["z_re"] == -3.0


class TestAsymptote:
    def test_decay_column(self, tmp_path):
        out = tmp_path / "scan.json"
        assert run(
            "asymptote", "--m", "1", "--c", "1", "--z", "3,0", "--r-max", "40",
            "--precision", "200", "--out", str(out),
        ) == 0
        payload = load(out)
        expected = (3 - math.sqrt(5)) / (3 + math.sqrt(5))
        assert abs(payload["summary"]["decay_estimate"] - expected) < 0.05
        assert abs(payload["summary"]["ratio"] - expected) < 1e-12
        assert payload["rows"][0]["error"] > 0

    def test_on_star_point_rejected(self, tmp_path):
        out = tmp_path / "scan.json"
        assert run(
            "asymptote", "--m", "1", "--c", "1", "--z", "1,0", "--out", str(out)
        ) == 2

    def test_on_star_negative_axis_rejected_for_even_m(self, tmp_path):
        # the negative real axis is an attractor ray when m is even
        out = tmp_path / "scan.json"
        assert run(
            "asymptote", "--m", "2", "--c", "1", "--z", "-2.5,0", "--out", str(out)
        ) == 2
        assert not out.exists()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(
            "asymptote", "--m", "2", "--c", "1", "--z", "3,0", "--r-max", "30",
            "--precision", "120", "--format", "csv", "--out", str(out),
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# schema=")
        assert lines[1].startswith("# summary=")
        assert lines[2] == "r,e_r,rate,ratio"

    @pytest.mark.parametrize("precision", ["1090", "1200"])
    def test_precision_above_a_float_residual_gate(self, tmp_path, precision):
        # 10**(2 - 0.3*precision) underflows a double from about 1086 bits
        out = tmp_path / "scan.json"
        assert run(
            "asymptote", "--m", "2", "--c", "1", "--z=-0.763635,3.246", "--r-max", "100",
            "--precision", precision, "--out", str(out),
        ) == 0
        summary = load(out)["summary"]
        assert abs(summary["decay_estimate"] - summary["ratio"]) <= 0.05


class TestRoots:
    R_LIST = "5,9,12,15"  # for m = 3, t_5 is zero and the others are not constant

    def spy_roots_of_t(self, monkeypatch, fail=()):
        calls = []
        solve = roots_module.roots_of_t

        def roots_of_t(rec, p, precision=53):
            calls.append(rec.r)
            if rec.r in fail:
                raise ConvergenceFailure(f"stuck at r={rec.r}")
            return solve(rec, p, precision)

        monkeypatch.setattr(roots_module, "roots_of_t", roots_of_t)
        return calls

    def test_each_index_is_solved_once(self, tmp_path, monkeypatch):
        calls = self.spy_roots_of_t(monkeypatch)
        out = tmp_path / "roots.json"
        assert run(
            "roots", "--m", "3", "--c", "1", "--r-list", self.R_LIST, "--out", str(out)
        ) == 0
        assert calls == [9, 12, 15]
        monkeypatch.undo()
        study = roots_module.attraction_study(Params(3, "1"), [5, 9, 12, 15])
        attraction = load(out)["summary"]["attraction"]
        assert attraction["rows"][0] == {
            "r": 5, "root_count": 0, "max_distance": None, "mean_distance": None
        }
        assert [
            (row["r"], row["root_count"], row["max_distance"], row["mean_distance"])
            for row in attraction["rows"]
        ] == [
            (row.r, row.root_count, row.max_distance, row.mean_distance)
            for row in study.rows
        ]
        assert (attraction["verdict_max"], attraction["verdict_mean"]) == (
            study.verdict_max, study.verdict_mean
        )

    def test_failing_indices_keep_their_rows_and_name_the_first(
        self, tmp_path, monkeypatch
    ):
        calls = self.spy_roots_of_t(monkeypatch, fail={12, 15})
        out = tmp_path / "roots.json"
        assert run(
            "roots", "--m", "3", "--c", "1", "--r-list", self.R_LIST, "--out", str(out)
        ) == 0
        assert calls == [9, 12, 15]
        payload = load(out)
        assert payload["summary"]["attraction"] == {"error": "stuck at r=12"}
        failed = [row for row in payload["roots"] if row["error"]]
        assert failed == [
            {"r": 12, "error": "convergence-failure"},
            {"r": 15, "error": "convergence-failure"},
        ]
        assert {row["r"] for row in payload["roots"]} == {9, 12, 15}
        assert "classification" in payload["summary"]["conjecture"]

    def test_each_h_is_solved_once_with_the_probe(self, tmp_path, monkeypatch):
        # one process, so the spy sees every solve; the probe certifies the
        # r-list h_r from their signs instead of solving them again
        monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
        calls = []
        solve = roots_module.roots_of_h

        def roots_of_h(h, precision=53, seeds=None):
            calls.append((h, precision))
            return solve(h, precision, seeds)

        monkeypatch.setattr(roots_module, "roots_of_h", roots_of_h)
        out = tmp_path / "roots.json"
        assert run(
            "roots", "--m", "2", "--c", "59/62", "--r-max", "30", "--out", str(out)
        ) == 0
        assert len(calls) == len(set(calls))
        records = roots_module.gen_type1_records(Params(2, "59/62"), 30)
        assert {(records[r].h, 53) for r in (10, 20, 30)} <= set(calls)
        assert load(out)["summary"]["conjecture"]["checked"] == sum(
            rec.tau >= 1 for rec in records
        )

    def test_r6_roots_and_summary(self, tmp_path):
        out = tmp_path / "roots.json"
        assert run(
            "roots", "--m", "2", "--c", "1", "--r-list", "6", "--out", str(out)
        ) == 0
        payload = load(out)
        nonorigin = [row for row in payload["roots"] if not row["is_origin"]]
        assert len(nonorigin) == 3
        assert payload["summary"]["conjecture"]["classification"] in {
            "PASS", "COUNTEREXAMPLE",
        }

    def test_attraction_trend_field(self, tmp_path):
        out = tmp_path / "roots.json"
        assert run(
            "roots", "--m", "2", "--c", "1", "--r-list", "30,60,90",
            "--precision", "128", "--out", str(out),
        ) == 0
        payload = load(out)
        assert payload["summary"]["attraction"]["verdict_max"] == "non-increasing"

    def test_csv_with_summary_sidecar(self, tmp_path):
        out = tmp_path / "roots.csv"
        assert run(
            "roots", "--m", "2", "--c", "1", "--r-list", "6,12",
            "--format", "csv", "--out", str(out),
        ) == 0
        assert out.read_text().splitlines()[1].startswith("r,root_re")
        sidecar = load(tmp_path / "roots.csv.summary.json")
        assert "attraction" in sidecar["summary"]


class TestUsageErrors:
    def test_missing_required_flag(self):
        assert run("gen", "--c", "1", "--out", "x.json") == 2

    def test_unknown_command(self):
        assert run("frobnicate", "--m", "1", "--c", "1", "--out", "x") == 2

    def test_nonpositive_c(self, tmp_path):
        out = tmp_path / "x.json"
        assert run("gen", "--m", "1", "--c", "0", "--out", str(out)) == 2
        assert run("gen", "--m", "1", "--c", "abc", "--out", str(out)) == 2

    def test_bad_m(self, tmp_path):
        out = tmp_path / "x.json"
        assert run("gen", "--m", "0", "--c", "1", "--out", str(out)) == 2

    def test_low_precision(self, tmp_path):
        out = tmp_path / "x.json"
        assert run(
            "gen", "--m", "1", "--c", "1", "--precision", "12", "--out", str(out)
        ) == 2

    def test_bad_z(self, tmp_path):
        out = tmp_path / "x.json"
        assert run(
            "asymptote", "--m", "1", "--c", "1", "--z", "3", "--out", str(out)
        ) == 2

    @pytest.mark.parametrize(
        "command, where",
        [
            ("branches", ["--z", "inf,0"]),
            ("branches", ["--z", "nan,0"]),
            ("asymptote", ["--z", "inf,1", "--r-max", "5"]),
            # finite ends, but the step overflows to inf and the points to NaN
            ("branches", ["--grid=-1e308:1e308:3,0:1:1"]),
        ],
    )
    def test_non_finite_coordinates(self, tmp_path, capsys, command, where):
        out = tmp_path / "x.json"
        assert run(command, "--m", "1", "--c", "1", *where, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("chebsys: error: ") and err.count("\n") == 1
        assert where[0].partition("=")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["a:1:2", "0:1", "0:1:0"])
    def test_malformed_grid_axis_names_the_flag(self, tmp_path, capsys, axis):
        out = tmp_path / "x.json"
        assert run(
            "branches", "--m", "1", "--c", "1", "--grid", f"0:1:2,{axis}", "--out", str(out)
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("chebsys: error: ") and err.count("\n") == 1
        assert "--grid" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, where", NUMERIC_COMMANDS)
    def test_c_beyond_a_double_in_numeric_commands(self, tmp_path, capsys, command, where):
        out = tmp_path / "x.json"
        huge = str(10**400)
        assert run(command, "--m", "1", "--c", huge, *where, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("chebsys: error: ") and err.count("\n") == 1
        assert "--c" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, where", NUMERIC_COMMANDS)
    def test_c_below_a_double_in_numeric_commands(self, tmp_path, capsys, command, where):
        # float(c) is 0.0 here; a subnormal c such as 1/10**310 is refused too
        out = tmp_path / "x.json"
        tiny = f"1/{10**400}"
        assert run(command, "--m", "1", "--c", tiny, *where, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("chebsys: error: ") and err.count("\n") == 1
        assert "--c" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, m", [("gen", "1"), ("verify", "2")])
    def test_c_beyond_a_double_in_exact_commands(self, tmp_path, command, m):
        out = tmp_path / "x.json"
        huge = str(10**400)
        assert run(command, "--m", m, "--c", huge, "--R", "6", "--out", str(out)) == 0
        assert load(out)["config"]["c"] == f"{huge}/1"

    @pytest.mark.parametrize("c", [str(10**400), f"1/{10**400}"], ids=["huge", "tiny"])
    def test_verify_m1_certifies_a_c_beyond_a_double(self, tmp_path, c):
        out = tmp_path / "x.json"
        assert run("verify", "--m", "1", "--c", c, "--R", "6", "--out", str(out)) == 0
        (probe,) = [ch["details"] for ch in load(out)["checks"] if ch["name"] == "conjecture_probe"]
        assert probe["classification"] == "PASS"
        assert probe["certified"] == probe["checked"] == 5

    @pytest.mark.parametrize("c", [str(10**400), f"1/{10**400}"], ids=["huge", "tiny"])
    @pytest.mark.parametrize("m", ["2", "3", "4"])
    def test_verify_m2_to_4_proves_a_c_beyond_a_double(self, tmp_path, m, c):
        # the certificate misses indices here, and the Sturm count proves them
        out = tmp_path / "x.json"
        assert run("verify", "--m", m, "--c", c, "--R", "40", "--out", str(out)) == 0
        (probe,) = [ch["details"] for ch in load(out)["checks"] if ch["name"] == "conjecture_probe"]
        assert probe["classification"] == "PASS"
        assert probe["certified"] < probe["checked"]
        assert probe["max_imag_normalized"] == 0.0
        assert probe["min_separation_normalized"] is None

    def test_verify_reports_a_certified_gap_below_a_double_as_null(self, tmp_path):
        # at c = 1/10**400 the zeros 4c*cos(k pi/(r+1))**2 are proven
        # distinct, but their gaps underflow: null, not the 0.0 of a
        # repeated zero
        out = tmp_path / "x.json"
        assert run("verify", "--m", "1", "--c", f"1/{10**400}", "--R", "6", "--out", str(out)) == 0
        (probe,) = [ch["details"] for ch in load(out)["checks"] if ch["name"] == "conjecture_probe"]
        assert probe["certified"] == probe["checked"] == 5
        assert probe["min_separation_normalized"] is None
        assert '"min_separation_normalized": null' in out.read_text()

    def test_point_and_grid_exclude_each_other(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(
            "branches", "--m", "1", "--c", "1", "--z", "3,0", "--grid", "0:1:2,0:1:2",
            "--out", str(out),
        ) == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()


class TestEnvironmentPrecision:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHEBSYS_PRECISION", "64")
        out = tmp_path / "gen.json"
        assert run("gen", "--m", "1", "--c", "1", "--R", "2", "--out", str(out)) == 0
        assert load(out)["config"]["precision"] == 64

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHEBSYS_PRECISION", "64")
        out = tmp_path / "gen.json"
        assert run(
            "gen", "--m", "1", "--c", "1", "--R", "2",
            "--precision", "96", "--out", str(out),
        ) == 0
        assert load(out)["config"]["precision"] == 96

    def test_bad_env_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHEBSYS_PRECISION", "soon")
        out = tmp_path / "gen.json"
        assert run("gen", "--m", "1", "--c", "1", "--R", "2", "--out", str(out)) == 2


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


class TestNumericFailures:
    """Each numeric failure exits 3 with a one-line message, never a traceback."""

    def expect_numeric(self, capsys, error, *argv):
        assert run(*argv) == EXIT_NUMERIC == 3
        err = capsys.readouterr().err
        assert err.startswith(f"chebsys: error: {error}: ")
        assert err.count("\n") == 1

    def test_solver_divergence(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            rootfind, "complex_roots", _raise(RootRefinementError("stuck"))
        )
        self.expect_numeric(
            capsys, "SolverDivergence",
            "asymptote", "--m", "1", "--c", "1", "--z", "3,0",
            "--precision", "80", "--out", str(tmp_path / "scan.json"),
        )

    def test_root_refinement_error(self, tmp_path, monkeypatch, capsys):
        # every caller of the root finder now catches its error; one that
        # escaped from the geometry would still map to the numeric exit
        monkeypatch.setattr(
            algebraic, "branch_points", _raise(RootRefinementError("stuck"))
        )
        self.expect_numeric(
            capsys, "RootRefinementError",
            "branches", "--m", "2", "--c", "1", "--z", "3,1",
            "--out", str(tmp_path / "branches.json"),
        )

    def test_degenerate_branches(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            algebraic, "asymptotic_scan", _raise(DegenerateBranches("tied"))
        )
        self.expect_numeric(
            capsys, "DegenerateBranches",
            "asymptote", "--m", "1", "--c", "1", "--z", "3,0",
            "--out", str(tmp_path / "scan.json"),
        )

    def test_convergence_failure(self, tmp_path, monkeypatch, capsys):
        # ``roots`` writes a failed index as a row; one that escaped the
        # per-index solves would still map to the numeric exit
        monkeypatch.setattr(
            roots_module, "solve_indices", _raise(ConvergenceFailure("stuck"))
        )
        self.expect_numeric(
            capsys, "ConvergenceFailure",
            "roots", "--m", "1", "--c", "1", "--r-list", "6",
            "--out", str(tmp_path / "roots.json"),
        )

    def test_no_variant_matches(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "verify_h_recurrence", _raise(NoVariantMatches("none"))
        )
        self.expect_numeric(
            capsys, "NoVariantMatches",
            "verify", "--m", "2", "--c", "1", "--R", "6",
            "--out", str(tmp_path / "verify.json"),
        )

    def test_truncation_overflow(self, tmp_path, monkeypatch, capsys):
        # every operator image comes from this one routine
        image = operators._image
        monkeypatch.setattr(
            operators, "_image", lambda op, polys, transpose: (image(op, polys, transpose)[0], True)
        )
        self.expect_numeric(
            capsys, "TruncationOverflow",
            "verify", "--m", "1", "--c", "1", "--R", "4",
            "--out", str(tmp_path / "verify.json"),
        )
