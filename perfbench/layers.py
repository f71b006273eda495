"""Per-layer metrics from the spans and counters that ``tracer.py`` writes.

A span's self time is its duration minus the time its child spans and
aggregated leaf calls cover.  Every ``*_s`` layer metric below is a sum of
self times over the traced jobs, except ``algebraic.us_per_point``, which uses
the inclusive time of the branch solves (rootfind included), because that is
the per-point cost a ``branches --grid`` user sees.
"""

from __future__ import annotations

import json
from pathlib import Path

NS = 1e-9


class JobTrace:
    """Calls, self and inclusive nanoseconds per span name for one traced job.

    ``exit_ns`` is the CLOCK_MONOTONIC time at which the process ended.
    """

    def __init__(self, path: Path, exit_ns: int):
        with open(path, encoding="utf-8") as fh:
            main = json.loads(fh.readline())
            dump = json.loads(fh.readline())["span"]
        self.counts = main["counts"]
        self.patched = main["patched"]
        self.calls: dict = {}
        self.self_ns: dict = {}
        self.incl_ns: dict = {}
        child_ns: dict = {}
        for _, parent, _, start, end in main["spans"]:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        for parent, name, calls, total, _, _ in main["leaves"]:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + total
            self._add(name, total, total, calls)
        top_ns = 0
        for sid, parent, name, start, end in main["spans"]:
            self._add(name, end - start - child_ns.get(sid, 0), end - start)
            if parent is None:
                top_ns += end - start
        self._add(dump[0], dump[2] - dump[1], dump[2] - dump[1])
        # interpreter teardown, from the last timestamp the job wrote to the
        # moment the parent saw the process end
        self._add("exit", exit_ns - dump[2], exit_ns - dump[2])
        self.named_ns = top_ns + exit_ns - dump[1]

    def _add(self, name: str, self_ns: int, incl_ns: int, calls: int = 1) -> None:
        self.calls[name] = self.calls.get(name, 0) + calls
        self.self_ns[name] = self.self_ns.get(name, 0) + self_ns
        self.incl_ns[name] = self.incl_ns.get(name, 0) + incl_ns


# metric name -> span name whose self time it sums
SELF_TIMES = {
    "cli.self_s": "cli.main",
    "rationals.rat_str_s": "rationals.rat_str",
    "recurrence.gen_s": "recurrence.gen",
    "recurrence.verify_s": "recurrence.verify",
    "operators.jump_s": "operators.jump",
    "operators.gram_s": "operators.gram",
    "exactpoly.compose_star_s": "exactpoly.compose_star",
    "exactpoly.gcd_s": "exactpoly.gcd",
    "exactpoly.eval_complex_s": "exactpoly.eval_complex",
    "rootfind.self_s": "rootfind.complex_roots",
    "algebraic.solve_s": "algebraic.solve",
    "algebraic.branch_points_s": "algebraic.branch_points",
    "algebraic.region_s": "algebraic.region",
    "algebraic.scan_s": "algebraic.scan",
    "roots.roots_of_h_s": "roots.roots_of_h",
    "roots.roots_of_t_s": "roots.roots_of_t",
    "roots.probe_s": "roots.probe",
    "roots.attraction_s": "roots.attraction",
    "setup.span_s": "setup",
    "trace.dump_s": "trace.dump",
    "exit.span_s": "exit",
}

# metric name -> span name whose calls it counts
CALLS = {
    "exactpoly.eval_calls": "exactpoly.eval_complex",
    "algebraic.points": "algebraic.solve",
}

# metric name -> counter the tracer keeps
COUNTS = {
    "recurrence.polys": "recurrence.polys",
    "recurrence.coeff_bits": "recurrence.coeff_bits",
    "operators.images": "operators.images",
    "operators.gram_cells": "operators.gram_cells",
    "rootfind.calls": "rootfind.calls",
    "rootfind.degree_sum": "rootfind.degree_sum",
    "algebraic.divergences": "algebraic.solve.failed",
    "roots.escalations": "roots.escalations",
}

UNITS = {
    "cli.bytes_out": "B",
    "recurrence.coeff_bits": "bit",
    "rootfind.repeat_ratio": "ratio",
    "algebraic.us_per_point": "us",
    "roots.escalation_ratio": "ratio",
    "trace.coverage_min": "ratio",
}

# work counts that must repeat exactly for a seed
ANCHORS = (
    "recurrence.coeff_bits",
    "rootfind.calls",
    "rootfind.degree_sum",
    "operators.images",
    "roots.escalations",
)


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def layer_metrics(traces: list) -> dict:
    """Sums over jobs of every layer metric the traces determine."""
    out = {}
    for metric, span in SELF_TIMES.items():
        out[metric] = NS * sum(t.self_ns.get(span, 0) for t in traces)
    for metric, span in CALLS.items():
        out[metric] = sum(t.calls.get(span, 0) for t in traces)
    counts: dict = {}
    for t in traces:
        for name, value in t.counts.items():
            counts[name] = counts.get(name, 0) + value
    for metric, counter in COUNTS.items():
        out[metric] = counts.get(counter, 0)
    calls = counts.get("rootfind.calls", 0)
    out["rootfind.repeat_ratio"] = counts.get("rootfind.repeats", 0) / calls if calls else 0.0
    points = out["algebraic.points"]
    solve_ns = sum(t.incl_ns.get("algebraic.solve", 0) for t in traces)
    out["algebraic.us_per_point"] = 1e-3 * solve_ns / points if points else 0.0
    checked = counts.get("roots.checked", 0)
    out["roots.escalation_ratio"] = (
        counts.get("roots.escalations", 0) / checked if checked else 0.0
    )
    out["roots.failures"] = sum(
        value for name, value in counts.items() if name.startswith("roots.") and name.endswith(".failed")
    )
    return out
