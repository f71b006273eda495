"""Job generator and output-check tests for the CLI benchmark.

    python -m pytest perfbench/tests
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import jobs  # noqa: E402
from chebsys.cli import build_parser, main  # noqa: E402


def all_jobs(seed, rounds=2):
    return [job for w in jobs.WORKLOADS for job in jobs.job_list(w, seed, rounds)]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_identical_argv(workload):
    first = [job.argv for job in jobs.job_list(workload, 11, 3)]
    again = [job.argv for job in jobs.job_list(workload, 11, 3)]
    assert first == again


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_other_seed_changes_job_list(workload):
    assert jobs.job_list(workload, 11, 1) != jobs.job_list(workload, 12, 1)


def test_every_argv_parses_with_the_cli_parser():
    parser = build_parser()
    for seed in range(4):
        for job in all_jobs(seed):
            args = parser.parse_args(list(job.argv))
            assert args.command == job.command
            assert args.out == job.out


def test_options_use_the_equals_form():
    for job in all_jobs(5):
        for token in job.argv[1:]:
            assert token.startswith("--") and "=" in token, (job.id, token)


def test_scans_get_at_least_the_precision_the_readme_asks_for():
    scans = [job for seed in range(6) for job in jobs.job_list("deep", seed, 2) if job.command == "asymptote"]
    assert scans
    for job in scans:
        args = build_parser().parse_args(list(job.argv))
        z = complex(*map(float, args.z.split(",")))
        ratio, per_term = jobs._scan_rates(args.m, float(Fraction(args.c)), z)
        assert 200 <= args.precision <= 400
        assert args.precision >= args.r_max * per_term >= args.r_max * math.log2(1 / ratio)


def test_rounds_follow_seconds():
    assert jobs.rounds_for("exact", 1) == 1
    assert jobs.rounds_for("exact", 30) == math.floor(30 / jobs.ROUND_SECONDS["exact"])


# ---------------------------------------------------------------- checks


def run_cli(tmp_path, command, out, *args):
    job = jobs.Job("t", command, (command, *args, f"--out={out}"), out)
    assert main([command, *args, f"--out={tmp_path / out}"]) == 0
    return job


def edit_json(path, change):
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_gen_check_accepts_output_and_catches_a_wrong_coefficient(tmp_path, fmt):
    job = run_cli(tmp_path, "gen", f"g.{fmt}", "--m=2", "--c=3/7", "--R=30", f"--format={fmt}")
    assert checks.check(job, tmp_path) is None
    path = tmp_path / job.out
    if fmt == "json":
        def change(payload):
            row = payload["scalar"][20]
            row["t"][-1] = "1/" + row["t"][-1].split("/")[1]

        edit_json(path, change)
    else:
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace("/", "1/", 1)
        path.write_text("\n".join(lines) + "\n")
    assert checks.check(job, tmp_path) is not None


def test_checks_sample_every_index_of_a_short_table(tmp_path):
    job = run_cli(tmp_path, "gen", "g.json", "--m=3", "--c=5/2", "--R=12")
    assert checks.check(job, tmp_path) is None

    def change(payload):
        payload["type2"][12]["coeffs"][0] = "7/1"

    edit_json(tmp_path / job.out, change)
    assert "type2" in checks.check(job, tmp_path)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_branches_check_recomputes_residuals(tmp_path, fmt):
    job = run_cli(
        tmp_path, "branches", f"b.{fmt}", "--m=3", "--c=4/9", "--grid=-40:30:4,-3:50:3", f"--format={fmt}"
    )
    assert checks.check(job, tmp_path) is None
    path = tmp_path / job.out
    if fmt == "json":
        def change(payload):
            lam = payload["rows"][5]["lambdas"][2]
            lam[0] *= 1 + 1e-12

        edit_json(path, change)
    else:
        lines = path.read_text().splitlines()
        cells = lines[4].split(",")
        cells[4] = repr(float(cells[4]) * (1 + 1e-12))
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    assert "misses the equation" in checks.check(job, tmp_path)


def test_verify_check_needs_every_hard_check(tmp_path):
    job = run_cli(tmp_path, "verify", "v.json", "--m=2", "--c=5/3", "--R=8")
    assert checks.check(job, tmp_path) is None

    def change(payload):
        payload["checks"] = [c for c in payload["checks"] if c["name"] != "jump_type1"]

    edit_json(tmp_path / job.out, change)
    assert "missing" in checks.check(job, tmp_path)


def test_roots_check_counts_multiplicities(tmp_path):
    job = run_cli(tmp_path, "roots", "r.json", "--m=2", "--c=3/2", "--r-list=9,14", "--precision=80")
    assert checks.check(job, tmp_path) is None

    def change(payload):
        payload["roots"][0]["multiplicity"] += 1

    edit_json(tmp_path / job.out, change)
    assert "multiplicities" in checks.check(job, tmp_path)


def test_asymptote_check_compares_decay_with_ratio(tmp_path):
    job = run_cli(
        tmp_path, "asymptote", "a.csv", "--m=1", "--c=1", "--z=3,1", "--r-max=60", "--precision=200", "--format=csv"
    )
    assert checks.check(job, tmp_path) is None


@pytest.mark.xfail(
    strict=True,
    reason="known failure: asymptote's limit value lacks the factor c, so scans with c != 1 do not decay",
)
def test_asymptote_check_passes_a_scan_with_c_other_than_one(tmp_path):
    job = run_cli(
        tmp_path, "asymptote", "a.json", "--m=1", "--c=3/2", "--z=3,1", "--r-max=60", "--precision=200"
    )
    assert checks.check(job, tmp_path) is None
