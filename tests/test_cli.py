import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebsys import algebraic, cli, operators, probe, recurrence
from chebsys import roots as roots_module
from chebsys.cli import EXIT_NUMERIC, main
from chebsys.exactpoly import Poly, compose_star
from chebsys.recurrence import (
    Params,
    gen_type1_records,
    gen_type1_scalar,
    gen_type1_vectors,
    gen_type2,
    verify_h_recurrence,
)
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

    def test_coefficients_beyond_the_int_string_limit_are_written(self, tmp_path):
        # c = 10**400 written out: at R = 40 the coefficients of t_r have
        # about 8000 digits, beyond the 4300 a fresh interpreter converts by
        # default; gen lifts the cap and exits 0
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter converts integers to strings without a limit")
        c = str(10**400)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-m", "chebsys.cli", "gen", "--m", "2", "--c", c, "--R", "40",
             "--out", "gen.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        last = load(tmp_path / "gen.json")["scalar"][-1]["t"][-1]
        assert len(last) > 4300
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = gen_type1_scalar(Params(2, Fraction(10**400)), 40)[-1].coeffs[-1]
            assert Fraction(last) == want
        finally:
            sys.set_int_max_str_digits(limit)

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

    def test_a_term_above_the_degree_bound_fails_the_checks(self, tmp_path, monkeypatch):
        # t_{0,6} at m = 2 has degree at most 3; with an x^10 term its type I
        # image runs to 22 entries, past any size built from --R, and is
        # still computed exactly: a failed verification, not a numeric one
        real = cli.gen_type1_vectors

        def tampered(p, R):
            vectors = real(p, R)
            rec = vectors[6]
            first = rec.components[0] + Poly((0,) * 10 + (1,))
            vectors[6] = rec._replace(components=(first, *rec.components[1:]))
            return vectors

        monkeypatch.setattr(cli, "gen_type1_vectors", tampered)
        out = tmp_path / "verify.json"
        assert run(
            "verify", "--m", "2", "--c", "3/7", "--R", "12", "--out", str(out)
        ) == 1
        payload = load(out)
        assert payload["passed"] is False
        failed = [c["name"] for c in payload["checks"] if c["status"] == "FAIL"]
        assert failed == [
            "shift_identity", "vector_scalar_agreement", "jump_type1", "biorthogonality_gram",
        ]
        names = {check["name"]: check for check in payload["checks"]}
        assert names["jump_type1"]["details"]["failures"] == [6]
        assert {r for r, n in names["biorthogonality_gram"]["details"]["offenders"]} == {6}

    def test_a_zero_companion_term_fails_the_checks(self, tmp_path, monkeypatch):
        # a zero T_3 maps e_0 onto the zero vector
        real = cli.gen_type2

        def tampered(p, n):
            terms = real(p, n)
            terms[3] = Poly()
            return terms

        monkeypatch.setattr(cli, "gen_type2", tampered)
        out = tmp_path / "verify.json"
        assert run(
            "verify", "--m", "2", "--c", "3/7", "--R", "12", "--out", str(out)
        ) == 1
        payload = load(out)
        assert payload["passed"] is False
        names = {check["name"]: check for check in payload["checks"]}
        assert names["jump_type2"]["details"]["failures"] == [3]
        assert names["biorthogonality_gram"]["details"]["offenders"] == [[3, 3]]

    def _forged_t(self, tmp_path, monkeypatch, r, forge):
        """verify at m = 2 on a scalar table whose t_r is forge(t_r): the
        closed form's h_r no longer composes to it."""
        real = recurrence.gen_type1_scalar

        def tampered(p, R):
            ts = real(p, R)
            ts[r] = forge(ts[r])
            return ts

        monkeypatch.setattr(recurrence, "gen_type1_scalar", tampered)
        out = tmp_path / "verify.json"
        assert run("verify", "--m", "2", "--c", "3/7", "--R", "12", "--out", str(out)) == 1
        payload = load(out)
        assert payload["passed"] is False
        # the full battery is still reported
        assert [c["name"] for c in payload["checks"]] == [
            "factorization", "shift_identity", "vector_scalar_agreement",
            "leading_coefficient_structure", "jump_type2", "jump_type1",
            "biorthogonality_gram", "transpose_adjointness", "h_recurrence_signs",
            "conjecture_probe",
        ]
        return payload["checks"][0]

    def test_a_stray_coefficient_fails_the_factorization(self, tmp_path, monkeypatch):
        # t_7 at m = 2 lives on the powers 2 mod 3; a constant term is stray
        check = self._forged_t(tmp_path, monkeypatch, 7, lambda t: t + Poly((1,)))
        assert check["status"] == "FAIL"
        assert check["details"]["witness"].endswith("at (r, i) = (7, 0)")

    def test_a_nonzero_t_where_tau_is_negative_fails_the_factorization(
        self, tmp_path, monkeypatch
    ):
        assert recurrence.decompose_index(1, 2)[2] == -1
        check = self._forged_t(tmp_path, monkeypatch, 1, lambda t: Poly((0, 5)))
        assert check["status"] == "FAIL"
        assert check["details"]["witness"].endswith("at (r, i) = (1, 1)")

    def test_a_t_of_the_wrong_degree_fails_the_factorization(self, tmp_path, monkeypatch):
        # t_6 at m = 2 has degree 3; z^6 is in its residue class, past it
        check = self._forged_t(tmp_path, monkeypatch, 6, lambda t: t + Poly((0,) * 6 + (1,)))
        assert check["status"] == "FAIL"
        assert check["details"]["witness"].endswith("at (r, i) = (6, 6)")

    @pytest.mark.parametrize("r,h", [(6, Poly((1, 0, 1))), (1, Poly((1,)))])
    def test_a_forged_h_that_composes_fails_the_degree_test(self, r, h):
        # t_r forged as the star image of an h of the wrong degree passes the
        # round trip; deg h_r != tau still fails it (tau is 1 at r = 6, -1 at 1)
        p = Params(2, "3/7")
        records = gen_type1_records(p, 8)
        rec = records[r]
        records[r] = rec._replace(h=h, t=compose_star(h, 2, rec.k, rec.ell))
        assert cli._check_factorization(p, records) == (
            "FAIL", {"witness": f"degree mismatch at r={r}: deg h_r != tau"}
        )

    def test_a_forged_h_fails_verify_and_is_a_sign_row_with_no_sign(
        self, tmp_path, monkeypatch
    ):
        # h_6 forged as 1 + y^2 with t_6 its star image: the full report is
        # written, and the sign study records r = 6 as admitting no sign
        p = Params(2, "3/7")
        real = cli.gen_type1_records

        def forged(p, R):
            records = real(p, R)
            rec, h = records[6], Poly((1, 0, 1))
            records[6] = rec._replace(h=h, t=compose_star(h, p.m, rec.k, rec.ell))
            return records

        monkeypatch.setattr(cli, "gen_type1_records", forged)
        out = tmp_path / "verify.json"
        assert run("verify", "--m", "2", "--c", "3/7", "--R", "12", "--out", str(out)) == 1
        names = {check["name"]: check for check in load(out)["checks"]}
        assert names["factorization"]["status"] == "FAIL"
        assert names["h_recurrence_signs"]["details"]["k_parity_rule_holds"] is False
        report = verify_h_recurrence([rec.h for rec in forged(p, 12)], p)
        row6 = next(row for row in report.rows if row.r == 6)
        assert row6.signs == () and not row6.degenerate
        assert report.k_parity_rule_holds is False

    def test_each_image_runs_horner_once_per_polynomial(self, tmp_path, monkeypatch):
        # the adjointness trials apply T to random vectors; with them stubbed
        # out, only the operator images step the operator: one Horner pass
        # per image, each built once, of max_j deg t_{j,r} steps for a type I
        # image and deg T_n for a type II image
        monkeypatch.setattr(cli, "_check_adjointness", lambda p, seed: ("PASS", {}))
        image, step = operators._image, operators._step
        images, steps = [], []

        def counted_image(*args):
            images.append(args)
            return image(*args)

        def counted_step(*args):
            steps.append(args)
            return step(*args)

        monkeypatch.setattr(operators, "_image", counted_image)
        monkeypatch.setattr(operators, "_step", counted_step)
        m, c, R, n_max = 3, "23/41", 9, 13
        assert run(
            "verify", "--m", str(m), "--c", c, "--R", str(R), "--n-max", str(n_max),
            "--out", str(tmp_path / "verify.json"),
        ) == 0
        p = Params(m, c)
        assert len(images) == (R + 1) + (n_max + 1)
        assert len(steps) == sum(
            max(poly.degree for poly in rec.components) for rec in gen_type1_vectors(p, R)
        ) + sum(T.degree for T in gen_type2(p, n_max))

    @pytest.mark.parametrize("c", ["3/7", "1"])
    def test_a_passing_run_forms_no_gram_pairing(self, tmp_path, monkeypatch, c):
        # every image a unit vector makes the Gram matrix the identity, so a
        # run whose jump checks pass reads it off them and pairs nothing
        def refused(us, ws):
            raise AssertionError("gram_offenders called on a passing run")

        monkeypatch.setattr(operators, "gram_offenders", refused)
        out = tmp_path / "verify.json"
        assert run("verify", "--m", "2", "--c", c, "--R", "14", "--n-max", "17",
                   "--out", str(out)) == 0
        names = {check["name"]: check for check in load(out)["checks"]}
        assert names["biorthogonality_gram"] == {
            "name": "biorthogonality_gram", "kind": "hard", "status": "PASS",
            "details": {"shape": [15, 18], "offenders": []},
        }


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

    def test_one_solver_writes_no_solver_block(self, tmp_path):
        # z = 1 has a conjugate pair of branches and z = 2 is a branch point,
        # so both tie; z = 3 does not, at 53 bits and above
        grid = ["--grid", "1:3:3,0:0:1"]
        out = tmp_path / "branches.json"
        assert run("branches", "--m", "1", "--c", "1", *grid, "--out", str(out)) == 0
        payload = load(out)
        assert "solver" not in payload
        assert [row["tie_flag"] for row in payload["rows"]] == [True, True, False]
        csv_out = tmp_path / "branches.csv"
        assert run(
            "branches", "--m", "1", "--c", "1", *grid,
            "--format", "csv", "--out", str(csv_out),
        ) == 0
        sidecar = load(tmp_path / "branches.csv.geometry.json")
        assert set(sidecar) == {"config", "geometry", "schema"}
        assert len(csv_out.read_text().splitlines()) == 2 + 3
        assert run(
            "branches", "--m", "1", "--c", "1", *grid,
            "--precision", "80", "--out", str(out),
        ) == 0
        assert [row["tie_flag"] for row in load(out)["rows"]] == [True, True, False]

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

    def test_errors_below_the_range_of_a_double_keep_their_estimate(self, tmp_path):
        # e_1300 is about 1e-330: the cell reads 0.0, the scan still resolved it
        out = tmp_path / "scan.json"
        assert run(
            "asymptote", "--m", "2", "--c", "1", "--z", "1.5,0", "--r-max", "1400",
            "--precision", "1400", "--out", str(out),
        ) == 0
        payload = load(out)
        assert payload["rows"][-1]["error"] == 0.0
        summary = payload["summary"]
        assert abs(summary["decay_estimate"] - summary["ratio"]) <= 0.05


class TestRoots:
    R_LIST = "5,9,12,15"  # for m = 3, t_5 is zero and the others are not constant

    def spy_roots_of_t(self, monkeypatch, fail=()):
        # solve_indices solves each index through the helper it shares with
        # roots_of_t
        calls = []
        solve = roots_module._zeros_of_t

        def zeros_of_t(rec, p, precision, isolated):
            calls.append(rec.r)
            if rec.r in fail:
                raise ConvergenceFailure(f"stuck at r={rec.r}")
            return solve(rec, p, precision, isolated)

        monkeypatch.setattr(roots_module, "_zeros_of_t", zeros_of_t)
        return calls

    def test_each_index_is_solved_once(self, tmp_path, monkeypatch):
        calls = self.spy_roots_of_t(monkeypatch)
        out = tmp_path / "roots.json"
        assert run(
            "roots", "--m", "3", "--c", "1", "--r-list", self.R_LIST, "--out", str(out)
        ) == 0
        assert calls == [9, 12, 15]
        monkeypatch.undo()
        p = Params(3, "1")
        records = gen_type1_records(p, 15)
        reports = roots_module.solve_indices(
            p, records, [5, 9, 12, 15], 53, roots_module.isolate(p, records)[1]
        )
        attraction = load(out)["summary"]["attraction"]
        assert attraction["rows"][0] == {"r": 5, "root_count": 0, "off_attractor": 0}
        assert attraction["rows"][1:] == [
            {"r": r, "root_count": report.total_root_count, "off_attractor": report.off_attractor}
            for r, report in reports[1:]
        ]
        assert [row["root_count"] for row in attraction["rows"][1:]] == [
            records[r].t.degree for r in (9, 12, 15)
        ]

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
        assert failed == [{"r": 12, "error": "unproved"}, {"r": 15, "error": "unproved"}]
        assert {row["r"] for row in payload["roots"]} == {9, 12, 15}
        assert "classification" in payload["summary"]["conjecture"]

    @pytest.mark.parametrize(
        "r_max, r_list", [(0, [0]), (1, [1]), (2, [1, 2]), (6, [2, 4, 6]), (7, [3, 5, 7])]
    )
    def test_the_default_r_list_stays_within_r_max(self, tmp_path, r_max, r_list):
        # r_max/3, 2*r_max/3 and r_max, rounded up; --r-max 0 once wrote [0, 1]
        out = tmp_path / "roots.json"
        assert run("roots", "--m", "2", "--c", "3/2", "--r-max", str(r_max), "--out", str(out)) == 0
        payload = load(out)
        assert payload["config"]["r_list"] == r_list
        assert [row["r"] for row in payload["summary"]["attraction"]["rows"]] == r_list

    @pytest.mark.parametrize("r_max", [10**400, 3 * 10**400 + 1, 2**53 + 1])
    def test_the_default_r_list_is_integer_at_any_r_max(self, r_max):
        # ceil(r_max/3) and ceil(2*r_max/3) in integers; in floats the first
        # raised OverflowError, and beyond 2**53 it rounds.  The resolver is
        # called alone: a run would generate the table up to r_max
        third, two_thirds = -(-r_max // 3), -(-2 * r_max // 3)
        assert 3 * third - 3 < r_max <= 3 * third
        assert 3 * two_thirds - 3 < 2 * r_max <= 3 * two_thirds
        args = SimpleNamespace(r_list=None, r_max=r_max)
        assert cli._resolve_r_list(args) == [third, two_thirds, r_max]

    def test_the_default_r_list_is_the_float_one_below_2_to_the_50(self):
        rng = random.Random(50)
        for r_max in [*range(3000), *(rng.randrange(2**50) for _ in range(3000))]:
            args = SimpleNamespace(r_list=None, r_max=r_max)
            floats = sorted({math.ceil(r_max / 3), math.ceil(2 * r_max / 3), r_max})
            assert cli._resolve_r_list(args) == floats, r_max

    def test_each_h_is_solved_once_with_the_probe(self, tmp_path, monkeypatch):
        # the probe isolates the zeros of every h_r once, and the r-list
        # zeros are refined from its intervals: no h_r is solved again
        calls = []
        isolate = roots_module.isolate

        def spy(p, records):
            calls.append(len(records))
            return isolate(p, records)

        monkeypatch.setattr(roots_module, "isolate", spy)
        out = tmp_path / "roots.json"
        assert run(
            "roots", "--m", "2", "--c", "59/62", "--r-max", "30", "--out", str(out)
        ) == 0
        assert calls == [31]
        records = gen_type1_records(Params(2, "59/62"), 30)
        assert load(out)["summary"]["conjecture"]["checked"] == sum(
            rec.tau >= 1 for rec in records
        )
        rows = load(out)["roots"]
        for r in (10, 20, 30):
            assert sum(row["multiplicity"] for row in rows if row["r"] == r) == records[r].t.degree

    def test_an_index_the_step_missed_is_isolated_by_sturm(self, tmp_path, monkeypatch):
        # an index the step misses is isolated by Sturm's theorem, and its
        # zeros are refined from those intervals as from the step's: the rows
        # are byte for byte those of the run without a miss, with one index
        # missed and with all
        step = probe._step
        for m, c, r_list in ((1, "1", (9, 24, 40)), (2, "59/62", (20, 30, 40))):
            records = gen_type1_records(Params(m, c), r_list[-1])
            # the step is given the c = 1 polynomials
            ones = gen_type1_records(Params(m, 1), r_list[-1])
            missed = {
                "none": set(),
                "one": {ones[r_list[1]].h},
                "all": {rec.h for rec in ones},
            }
            runs = {}
            for name, refused in missed.items():
                monkeypatch.setattr(
                    probe,
                    "_step",
                    lambda g, last, refused=refused: None if g in refused else step(g, last),
                )
                # the config line holds --out: one name, in a directory per run
                (tmp_path / name).mkdir(exist_ok=True)
                monkeypatch.chdir(tmp_path / name)
                argv = ["roots", "--m", str(m), "--c", c, "--format", "csv", "--out", "roots.csv"]
                assert run(*argv, "--r-list", ",".join(map(str, r_list))) == 0
                runs[name] = Path("roots.csv").read_bytes(), load("roots.csv.summary.json")
            rows, summary = runs["none"]
            conjecture = summary["summary"]["conjecture"]
            first = next(rec.r for rec in records if rec.tau >= 1)
            for name, uncertified, certified in (
                ("one", r_list[1], conjecture["checked"] - 1),
                ("all", first, 0),
            ):
                got_rows, got = runs[name]
                assert got_rows == rows, (m, name)
                assert got["summary"]["conjecture"] == {
                    **conjecture, "certified": certified, "first_uncertified_r": uncertified
                }
                assert got["summary"]["attraction"] == summary["summary"]["attraction"]

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

    def test_attraction_rows_count_the_zeros_off_the_attractor(self, tmp_path):
        # one row per index, with no verdict: every zero of t_r lies on the
        # attractor's rays
        out = tmp_path / "roots.json"
        assert run(
            "roots", "--m", "2", "--c", "1", "--r-list", "30,60,90",
            "--precision", "128", "--out", str(out),
        ) == 0
        records = gen_type1_records(Params(2, "1"), 90)
        assert load(out)["summary"]["attraction"] == {
            "rows": [
                {"r": r, "root_count": records[r].t.degree, "off_attractor": 0}
                for r in (30, 60, 90)
            ]
        }

    @pytest.mark.parametrize("m, forged", [(1, 30), (2, 60), (3, 90)])
    def test_a_table_with_the_zeros_of_h_mirrored_is_off_the_attractor(
        self, tmp_path, monkeypatch, m, forged
    ):
        # h_r(-y) in place of h_r at one index: its zeros are real and simple,
        # so the probe passes, but each lies on the wrong side of 0, and puts
        # m+1 zeros of t_r off the attractor
        def mirrored(p, r_max):
            records = gen_type1_records(p, r_max)
            rec = records[forged]
            nums = [-n if i % 2 else n for i, n in enumerate(rec.h.nums)]
            h = Poly.scaled(nums, rec.h.den)
            records[forged] = rec._replace(h=h, t=compose_star(h, p.m, rec.k, rec.ell))
            return records

        monkeypatch.setattr(cli, "gen_type1_records", mirrored)
        out = tmp_path / "roots.json"
        assert run("roots", "--m", str(m), "--c", "1", "--r-max", "90", "--out", str(out)) == 0
        summary = load(out)["summary"]
        assert summary["conjecture"]["classification"] == "PASS"
        tau = gen_type1_records(Params(m, "1"), forged)[forged].tau
        assert summary["attraction"]["rows"] == [
            {
                "r": r,
                "root_count": row["root_count"],
                "off_attractor": (m + 1) * tau if r == forged else 0,
            }
            for r, row in zip((30, 60, 90), summary["attraction"]["rows"])
        ]

    def test_csv_with_summary_sidecar(self, tmp_path):
        out = tmp_path / "roots.csv"
        assert run(
            "roots", "--m", "2", "--c", "1", "--r-list", "6,12",
            "--format", "csv", "--out", str(out),
        ) == 0
        assert out.read_text().splitlines()[1].startswith("r,root_re")
        sidecar = load(tmp_path / "roots.csv.summary.json")
        assert "attraction" in sidecar["summary"]


class TestExitCodes:
    def test_fuzzed_command_lines_exit_by_the_contract(self, tmp_path, monkeypatch, capsys):
        # exit 0, 1, 2 or 3 and never a traceback; 1 means a failed
        # verification, so only verify returns it
        monkeypatch.chdir(tmp_path)
        rng = random.Random(22)
        codes = {}
        for _ in range(200):
            argv = fuzz_argv(rng)
            code = main(argv)
            assert code in (0, 1, 2, 3), argv
            assert code != 1 or argv[0] == "verify", argv
            codes[code] = codes.get(code, 0) + 1
        capsys.readouterr()
        # the draws reach both a run and a refusal
        assert codes.get(0) and codes.get(2)

    @pytest.mark.parametrize("error", [ValueError, TypeError])
    def test_a_stray_error_of_a_command_is_not_a_usage_error(self, monkeypatch, tmp_path, error):
        # a ValueError or TypeError that a command lets out is a bug, not
        # invalid input: it leaves main as a traceback instead of exit 2
        def broken(args):
            raise error("a bug")

        monkeypatch.setitem(cli.COMMANDS, "gen", (broken, cli.COMMANDS["gen"][1]))
        with pytest.raises(error, match="a bug"):
            main(["gen", "--m", "1", "--c", "1", "--out", str(tmp_path / "x.json")])


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
            ("branches", ["--z", "0,-inf"]),
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
        # the step runs in y = x/c on the c = 1 polynomials and proves every
        # index; the gaps of the zeros underflow a double at the tiny c
        out = tmp_path / "x.json"
        assert run("verify", "--m", m, "--c", c, "--R", "40", "--out", str(out)) == 0
        (probe,) = [ch["details"] for ch in load(out)["checks"] if ch["name"] == "conjecture_probe"]
        assert probe["classification"] == "PASS"
        assert probe["certified"] == probe["checked"]
        assert probe["max_imag_normalized"] == 0.0
        if c.startswith("1/"):
            assert probe["min_separation_normalized"] is None
        else:
            assert 0 < probe["min_separation_normalized"] < 1

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

    @pytest.mark.parametrize(
        "command, where",
        [
            ("branches", ["--z=1.7e308,1.7e308"]),
            ("branches", ["--grid=1.7e308:1.7e308:1,1.7e308:1.7e308:1"]),
            ("asymptote", ["--z=-1.7e308,1.7e308", "--r-max", "10"]),
        ],
        ids=["branches-point", "branches-grid", "asymptote-point"],
    )
    def test_a_point_beyond_the_largest_double_is_refused(
        self, tmp_path, capsys, command, where
    ):
        # each part is finite, but the modulus is not
        out = tmp_path / "x.json"
        assert run(command, "--m", "2", "--c", "1", *where, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("chebsys: error: ") and err.count("\n") == 1
        assert where[0].partition("=")[0] in err and "modulus" in err
        assert not out.exists()

    def test_point_and_grid_exclude_each_other(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(
            "branches", "--m", "1", "--c", "1", "--z", "3,0", "--grid", "0:1:2,0:1:2",
            "--out", str(out),
        ) == 2
        assert "exactly one of --z and --grid" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------- the exit codes

# the values a fuzzed command line draws from, each table as (valid,
# refused): valid values and their extremes, and values that the option, or
# the command for that option, refuses
FUZZ = {
    "m": (["1", "2", "3", "4", "6"], ["0", "-1", "2.5", ""]),
    "c": (
        ["1", "3/7", "59/62", "7/3", "0.5", "1e3", " 3/7 ", str(10**40), f"1/{10**40}",
         f"{10**307}/3", str(10**400), f"1/{10**400}"],
        ["-2/3", "0", "1/0", "a/b"],
    ),
    "coordinate": (
        ["0", "-0", "1", "-2.5", "3.75", "1e-300", "5e-324", "1e308", "1.7e308", "-1.7e308",
         "1.7976931348623157e308"],
        ["1e309", "inf", "-inf", "nan", "x", ""],
    ),
    "count": (["1", "2", "3"], ["0", "x"]),
    "index": (["0", "1", "3", "7", "12", "20"], ["-1", "x", ""]),
    "r_list": (["0,1,5", "3", "12,7", "20"], ["-1", "x,2", ""]),
    "precision": (["53", "64", "200", "400"], ["12", "x"]),
    "format": (["json", "csv"], ["xml"]),
}
FUZZ_OPTIONS = {
    "gen": {"--R": "index"},
    "verify": {"--R": "index", "--n-max": "index"},
    "branches": {"--z": "point", "--grid": "grid"},
    "asymptote": {"--z": "point", "--r-max": "index"},
    "roots": {"--r-max": "index", "--r-list": "r_list"},
}


def fuzz_argv(rng) -> list:
    """A command line of the CLI grammar: each value drawn from ``FUZZ``,
    refused one time in ten, each option given four times in five, and now
    and then an unknown command or option, a stray argument or an option
    with no value."""

    def pick(kind):
        valid, refused = FUZZ[kind]
        return rng.choice(valid if rng.random() < 0.9 else refused)

    def value(kind):
        if kind == "point":
            return f"{pick('coordinate')},{pick('coordinate')}"
        if kind == "grid":
            return ",".join(
                f"{pick('coordinate')}:{pick('coordinate')}:{pick('count')}" for _ in "ri"
            )
        return pick(kind)

    command = rng.choice([*FUZZ_OPTIONS, "bogus"] if rng.random() < 0.05 else list(FUZZ_OPTIONS))
    argv = [command, "--m", pick("m"), "--c", pick("c")]
    for name, kind in FUZZ_OPTIONS.get(command, {}).items():
        if rng.random() < 0.8:
            argv.append(f"{name}={value(kind)}")
    argv += ["--precision", pick("precision"), "--format", pick("format")]
    argv += rng.choice([[]] * 17 + [["--frobnicate", "1"], ["stray"], ["--seed"]])
    return argv + ["--out", "out"]


# ---------------------------------------------------------------- the parser

# argv in the space form, and the namespace the argparse parser of the
# previous CLI gave for it (func by name), but for the default of
# --precision, 53 now where that parser gave None: a job of each command of
# the benchmark, each command's defaults, negative values, prefixes and repeats
NAMESPACES = {
    "verify": (
        "verify --m 2 --c 2/3 --R 36 --n-max 36 --seed 550891 --out r0s0.json",
        {"R": 36, "c": "2/3", "command": "verify", "format": "json", "func": "cmd_verify",
         "m": 2, "n_max": 36, "out": "r0s0.json", "precision": 53, "seed": 550891},
    ),
    "gen": (
        "gen --m 3 --c 831/230 --R 205 --format csv --out r0s5.csv",
        {"R": 205, "c": "831/230", "command": "gen", "format": "csv", "func": "cmd_gen",
         "m": 3, "out": "r0s5.csv", "precision": 53, "seed": 0},
    ),
    "branches": (
        "branches --m 1 --c 2/9 --grid -0.848249:0.801833:11,-1.08715:0.562933:22"
        " --format json --out r0s0.json",
        {"c": "2/9", "command": "branches", "format": "json", "func": "cmd_branches",
         "grid": "-0.848249:0.801833:11,-1.08715:0.562933:22", "m": 1, "out": "r0s0.json",
         "precision": 53, "seed": 0, "z": None},
    ),
    "roots": (
        "roots --m 1 --c 54/77 --r-max 24 --r-list 10,18,24 --precision 128 --format csv"
        " --out r0s1.csv",
        {"c": "54/77", "command": "roots", "format": "csv", "func": "cmd_roots", "m": 1,
         "out": "r0s1.csv", "precision": 128, "r_list": "10,18,24", "r_max": 24, "seed": 0},
    ),
    "asymptote": (
        "asymptote --m 1 --c 1 --z -1.52171,-0.668481 --r-max 162 --precision 400"
        " --format json --out r0s4.json",
        {"c": "1", "command": "asymptote", "format": "json", "func": "cmd_asymptote", "m": 1,
         "out": "r0s4.json", "precision": 400, "r_max": 162, "seed": 0,
         "z": "-1.52171,-0.668481"},
    ),
    "gen-defaults": (
        "gen --m 1 --c 1 --out g.json",
        {"R": 20, "c": "1", "command": "gen", "format": "json", "func": "cmd_gen", "m": 1,
         "out": "g.json", "precision": 53, "seed": 0},
    ),
    "verify-defaults": (
        "verify --m 1 --c 1 --out v.json",
        {"R": 40, "c": "1", "command": "verify", "format": "json", "func": "cmd_verify",
         "m": 1, "n_max": None, "out": "v.json", "precision": 53, "seed": 0},
    ),
    "branches-defaults": (
        "branches --m 1 --c 1 --z 3,0 --out b.json",
        {"c": "1", "command": "branches", "format": "json", "func": "cmd_branches",
         "grid": None, "m": 1, "out": "b.json", "precision": 53, "seed": 0, "z": "3,0"},
    ),
    "asymptote-defaults": (
        "asymptote --m 1 --c 1 --z 3,0 --out a.json",
        {"c": "1", "command": "asymptote", "format": "json", "func": "cmd_asymptote", "m": 1,
         "out": "a.json", "precision": 53, "r_max": 60, "seed": 0, "z": "3,0"},
    ),
    "roots-defaults": (
        "roots --m 1 --c 1 --out r.json",
        {"c": "1", "command": "roots", "format": "json", "func": "cmd_roots", "m": 1,
         "out": "r.json", "precision": 53, "r_list": None, "r_max": 60, "seed": 0},
    ),
    "negative-point": (
        "branches --m 2 --c 7/3 --z -2,1 --out b.json",
        {"c": "7/3", "command": "branches", "format": "json", "func": "cmd_branches",
         "grid": None, "m": 2, "out": "b.json", "precision": 53, "seed": 0, "z": "-2,1"},
    ),
    "negative-grid": (
        "branches --m 2 --c 7/3 --grid -2:2:3,-1:1:2 --out b.json",
        {"c": "7/3", "command": "branches", "format": "json", "func": "cmd_branches",
         "grid": "-2:2:3,-1:1:2", "m": 2, "out": "b.json", "precision": 53, "seed": 0,
         "z": None},
    ),
    "prefixes": (
        "verify --m 2 --c 3/7 --prec 64 --n 5 --s 9 --fo csv --o v.json",
        {"R": 40, "c": "3/7", "command": "verify", "format": "csv", "func": "cmd_verify",
         "m": 2, "n_max": 5, "out": "v.json", "precision": 64, "seed": 9},
    ),
    "dashed-prefixes": (
        "roots --m 1 --c 1 --r-m 10 --r-l 3,4 --out r.json",
        {"c": "1", "command": "roots", "format": "json", "func": "cmd_roots", "m": 1,
         "out": "r.json", "precision": 53, "r_list": "3,4", "r_max": 10, "seed": 0},
    ),
    "repeats": (
        "gen --m 1 --c 1 --m 2 --R 3 --R 4 --out a.json --out b.json",
        {"R": 4, "c": "1", "command": "gen", "format": "json", "func": "cmd_gen", "m": 2,
         "out": "b.json", "precision": 53, "seed": 0},
    ),
}


def equals_form(argv: list) -> list:
    """``argv`` with each option joined to its value by ``=``."""
    command, *rest = argv
    return [command, *(f"{name}={value}" for name, value in zip(rest[::2], rest[1::2]))]


# a misuse of the command line, with OUT for the output path, and a part of
# the message that names it
MISUSES = {
    "no-command": ([], "expected a command"),
    "unknown-command": (["frobnicate", "--m", "1", "--c", "1", "--out", "OUT"], "'frobnicate'"),
    "unknown-option": (
        ["gen", "--m", "1", "--c", "1", "--bogus", "1", "--out", "OUT"], "'--bogus'"
    ),
    "single-dash": (["gen", "-m", "1", "--c", "1", "--out", "OUT"], "'-m'"),
    "ambiguous-prefix": (
        ["roots", "--m", "1", "--c", "1", "--r", "5", "--out", "OUT"], "--r-max, --r-list"
    ),
    "missing-required": (["gen", "--c", "1", "--out", "OUT"], "gen requires --m"),
    "missing-point": (["asymptote", "--m", "1", "--c", "1", "--out", "OUT"], "requires --z"),
    "bad-int": (["gen", "--m", "two", "--c", "1", "--out", "OUT"], "bad --m value 'two'"),
    "bad-int-after-equals": (["gen", "--m=", "--c", "1", "--out", "OUT"], "bad --m value ''"),
    "bad-format": (
        ["gen", "--m", "1", "--c", "1", "--format", "xml", "--out", "OUT"],
        "bad --format value 'xml'",
    ),
    "point-and-grid": (
        ["branches", "--m", "1", "--c", "1", "--z", "3,0", "--grid", "0:1:2,0:1:2", "--out", "OUT"],
        "exactly one of --z and --grid",
    ),
    "no-point-nor-grid": (
        ["branches", "--m", "1", "--c", "1", "--out", "OUT"], "exactly one of --z and --grid"
    ),
    "no-value": (["gen", "--m", "1", "--c", "1", "--out", "OUT", "--R"], "--R expects a value"),
    "stray-positional": (
        ["gen", "--m", "1", "extra", "--c", "1", "--out", "OUT"], "unexpected argument 'extra'"
    ),
}


class TestParser:
    @pytest.mark.parametrize("form", ["space", "equals"])
    @pytest.mark.parametrize("case", list(NAMESPACES))
    def test_namespaces_are_those_of_argparse(self, case, form):
        text, expected = NAMESPACES[case]
        argv = text.split() if form == "space" else equals_form(text.split())
        args = vars(cli.build_parser().parse_args(argv))
        assert {**args, "func": args["func"].__name__} == expected

    @pytest.mark.parametrize("case", list(MISUSES))
    def test_each_misuse_exits_2_with_one_line_and_no_file(self, tmp_path, capsys, case):
        argv, named = MISUSES[case]
        out = str(tmp_path / "x.json")
        assert run(*(out if token == "OUT" else token for token in argv)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("chebsys: error: ") and captured.err.count("\n") == 1
        assert named in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv", [["--help"], ["-h"], ["gen", "--help"], ["roots", "--m", "1", "-h", "--bogus"]]
    )
    def test_help_prints_the_synopsis_and_exits_0(self, capsys, argv):
        assert run(*argv) == 0
        captured = capsys.readouterr()
        assert captured.out == cli.__doc__ and captured.err == ""
        assert "chebsys -h | --help" in captured.out

    def test_a_value_may_start_with_a_dash(self, tmp_path, capsys, monkeypatch):
        # "--c -1/2" reaches the positivity check, and "--out -h" names a file
        monkeypatch.chdir(tmp_path)
        assert run("gen", "--m", "1", "--c", "-1/2", "--out", "x.json") == 2
        assert capsys.readouterr().err == "chebsys: error: c must be a positive rational, got -1/2\n"
        assert run("gen", "--m", "1", "--c", "1", "--R", "2", "--out", "-h") == 0
        assert [path.name for path in tmp_path.iterdir()] == ["-h"]
        assert load(tmp_path / "-h")["config"]["out"] == "-h"


# --c texts that the plain reader leaves to Fraction, and plain ones
C_TEXTS = [
    "0.5", "1e3", " 3/7 ", "+3/7", "1_000", "\u0663/7", "3/-7", "3/0", "-3/7", "0", "inf", "1/3e2",
]
# plain forms, and any text with the characters Fraction reads drawn often
C_TEXT = st.one_of(
    st.from_regex(r"[+-]?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True),
    st.text(alphabet=st.one_of(st.sampled_from("0123456789+-/._eE \t\u0663"), st.characters()),
            max_size=12),
)


def fraction_outcome(text: str) -> tuple:
    """The exit code, stderr and config c of ``gen --c text`` with --c read
    by ``fractions.Fraction``, as the CLI read it before it parsed plain
    texts itself."""
    try:
        c = Fraction(text)
    except ZeroDivisionError:
        err = f"bad --c value {text!r}: zero denominator in {text!r}"
    except ValueError as exc:
        err = f"bad --c value {text!r}: {exc}"
    else:
        if c > 0:
            return 0, "", f"{c.numerator}/{c.denominator}"
        err = f"c must be a positive rational, got {c.numerator}/{c.denominator}"
    return 2, f"chebsys: error: {err}\n", None


def cli_outcome(text: str, out: Path) -> tuple:
    """The exit code, stderr and config c of ``gen --c text``."""
    if out.exists():
        out.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["gen", "--m", "1", "--c", text, "--R", "0", "--out", str(out)])
    return code, err.getvalue(), load(out)["config"]["c"] if out.exists() else None


class TestRationalParameter:
    @pytest.mark.parametrize("text", C_TEXTS)
    def test_c_is_read_as_fraction_reads_it(self, tmp_path, text):
        assert cli_outcome(text, tmp_path / "x.json") == fraction_outcome(text)

    @settings(max_examples=300, deadline=None)
    @given(C_TEXT)
    def test_any_c_is_read_as_fraction_reads_it(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            assert cli_outcome(text, Path(tmp) / "x.json") == fraction_outcome(text)

    @pytest.mark.parametrize(
        "command, where",
        [("gen", ["--R", "3"]), ("verify", ["--R", "3"]), ("branches", ["--z", "3,0"])],
    )
    def test_a_zero_denominator_is_invalid_input(self, tmp_path, capsys, command, where):
        out = tmp_path / "x.json"
        assert run(command, "--m", "2", "--c", "1/0", *where, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == "chebsys: error: bad --c value '1/0': zero denominator in '1/0'\n"
        assert not out.exists()

    def test_zero_is_named_in_its_canonical_form(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run("gen", "--m", "1", "--c", "0", "--out", str(out)) == 2
        assert capsys.readouterr().err == "chebsys: error: c must be a positive rational, got 0/1\n"
        assert not out.exists()


class TestNumericFailures:
    """The one numeric failure a command lets out exits 3 with a one-line
    message, never a traceback."""

    def test_solver_divergence(self, tmp_path, monkeypatch, capsys):
        # the real tip of m = 2 is refined, and with Aberth sweeps that move
        # nothing its discs still meet when the width reaches its cap
        monkeypatch.setattr(algebraic, "_sweep", lambda *args: False)
        assert run(
            "asymptote", "--m", "2", "--c", "1", "--z", "1.8898815748423097,0",
            "--precision", "80", "--out", str(tmp_path / "scan.json"),
        ) == EXIT_NUMERIC == 3
        err = capsys.readouterr().err
        assert err.startswith("chebsys: error: SolverDivergence: ")
        assert err.count("\n") == 1
