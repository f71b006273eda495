"""Traced replays: exact work counts repeat, spans cover the job, outputs hold.

    python -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import jobs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def traced(job, tmp_path, name):
    trace_file = tmp_path / f"{name}.jsonl"
    result = run.run_job(job, run.job_env(), tmp_path / "work", trace_file)
    assert result["reason"] is None, result["reason"]
    proc = result["proc"]
    return layers.JobTrace(trace_file, proc.spawn_ns + proc.wall_ns), proc


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_anchor_counts_repeat_and_spans_cover_the_job(workload, tmp_path):
    job = jobs.job_list(workload, 2, 1)[0]
    first, proc = traced(job, tmp_path, "first")
    second, _ = traced(job, tmp_path, "second")
    a = layers.layer_metrics([first])
    b = layers.layer_metrics([second])
    for name in layers.ANCHORS:
        assert a[name] == b[name], name
    assert a["rootfind.calls"] > 0
    assert first.named_ns >= 0.95 * proc.wall_ns


def test_exact_work_is_counted_in_every_layer(tmp_path):
    job = next(j for j in jobs.job_list("exact", 2, 1) if j.command == "verify")
    trace, _ = traced(job, tmp_path, "verify")
    metrics = layers.layer_metrics([trace])
    for name in ("recurrence.coeff_bits", "operators.images", "operators.gram_cells", "rootfind.calls"):
        assert metrics[name] > 0, name
    for name in ("operators.jump_s", "operators.gram_s", "recurrence.gen_s", "roots.probe_s"):
        assert metrics[name] > 0, name
