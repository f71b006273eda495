"""Run one chebsys CLI job in this process with spans at each module boundary.

    python perfbench/tracer.py TRACE_FILE CLI_ARG...

The parent sets ``PERFBENCH_SPAWN_NS`` to the CLOCK_MONOTONIC time at which it
started this process, so the ``setup`` span covers interpreter start-up and
the import of ``chebsys.cli``.  The ``cli.main`` span covers the command
itself; every layer function below it is wrapped where its caller looks the
name up (``from .rootfind import complex_roots`` copies the function into
``algebraic`` and ``roots``, so patching ``rootfind`` alone records nothing).
Spans stay in memory and are written to TRACE_FILE as one JSON line after the
command returns; a second line holds the ``trace.dump`` span for that write.
The exit code is the command's.

Calls that are both frequent and leaves (``rat_str``, ``Poly.eval_complex``,
``compose_star``, ``region_classify``) are kept as one aggregate record per
parent span and name: call count, total duration, first start, last end.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Recorder:
    """In-memory spans, aggregated leaf calls and work counters of one job."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start_ns, end_ns]
        self.leaves = {}  # (parent, name) -> [calls, total_ns, first_ns, last_ns]
        self.counts = {}
        self.stack = [None]
        self.raised = set()  # ids of exceptions already counted at their origin
        self.solved = set()  # coefficient tuples passed to complex_roots
        self.terms = {}  # (family, m, c) -> longest list handed out

    def count(self, name: str, n=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, start: int, end: int, parent=None) -> int:
        sid = len(self.spans)
        self.spans.append([sid, parent, name, start, end])
        return sid

    def wrap(self, name: str, fn, after=None, leaf=False, fails=()):
        """``fn`` recorded as span ``name``; ``after(args, result)`` updates counters.

        A ``leaf`` call is added to its parent's aggregate record instead of
        getting a span of its own.  An exception of a type in ``fails`` counts
        as ``<name>.failed`` in the innermost span it leaves, so one failure
        is never counted twice.
        """
        rec = self

        def wrapper(*args, **kwargs):
            parent = rec.stack[-1]
            start = _now()
            if leaf:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = _now()
                    slot = rec.leaves.get((parent, name))
                    if slot is None:
                        rec.leaves[(parent, name)] = [1, end - start, start, end]
                    else:
                        slot[0] += 1
                        slot[1] += end - start
                        slot[3] = end
            else:
                sid = rec.span(name, start, None, parent)
                rec.stack.append(sid)
                try:
                    result = fn(*args, **kwargs)
                except fails as exc:
                    if id(exc) not in rec.raised:
                        rec.raised.add(id(exc))
                        rec.count(f"{name}.failed")
                    raise
                finally:
                    rec.spans[sid][4] = _now()
                    rec.stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counter(self, fn, after):
        """``fn`` unchanged except that ``after(args, result)`` runs on return."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def keep_terms(self, family: str, p, seq) -> None:
        key = (family, p.m, str(p.c))
        if len(seq) > len(self.terms.get(key, ())):
            self.terms[key] = seq

    def term_counts(self) -> tuple:
        """Distinct recurrence terms handed out, and their coefficient bits.

        Records share their ``t`` with the scalar family, so terms are told
        apart by identity.
        """
        seen = {}
        for (family, _, _), seq in self.terms.items():
            for item in seq:
                if family == "vector":
                    comps = item.components
                elif family == "record":
                    comps = (item.t,)
                else:
                    comps = (item,)
                for poly in comps:
                    seen[id(poly)] = poly
        bits = sum(_bits(c) for poly in seen.values() for c in poly.coeffs)
        return len(seen), bits


def _bits(q) -> int:
    return int(q.numerator).bit_length() + int(q.denominator).bit_length()


def install(rec: Recorder) -> dict:
    """Wrap the layer functions in every chebsys module that holds them.

    Returns the table of wrapped names and where each was patched; a name a
    later version no longer has is skipped, not an error.
    """
    import chebsys.algebraic as algebraic
    import chebsys.cli as cli
    import chebsys.exactpoly as exactpoly
    import chebsys.operators as operators
    import chebsys.rationals as rationals
    import chebsys.recurrence as recurrence
    import chebsys.rootfind as rootfind
    import chebsys.roots as roots

    modules = (rationals, exactpoly, recurrence, operators, rootfind, algebraic, roots, cli)

    def gen_after(family):
        def after(args, result):
            rec.keep_terms(family, args[0], result)

        return after

    def complex_roots_after(args, result):
        coeffs = tuple(args[0])
        rec.count("rootfind.calls")
        rec.count("rootfind.degree_sum", len(coeffs) - 1)
        if coeffs in rec.solved:
            rec.count("rootfind.repeats")
        rec.solved.add(coeffs)

    def images_after(args, result):
        rec.count("operators.images")

    def gram_after(args, result):
        rec.count("operators.gram_cells", sum(len(row) for row in result))

    def probe_after(args, result):
        rec.count("roots.escalations", result.escalations)
        rec.count("roots.checked", result.checked)

    table = [
        (rationals, "rat_str", "rationals.rat_str", {"leaf": True}),
        (exactpoly, "compose_star", "exactpoly.compose_star", {"leaf": True}),
        (exactpoly, "poly_gcd", "exactpoly.gcd", {}),
        (recurrence, "gen_type1_scalar", "recurrence.gen", {"after": gen_after("scalar")}),
        (recurrence, "gen_type1_vectors", "recurrence.gen", {"after": gen_after("vector")}),
        (recurrence, "gen_type2", "recurrence.gen", {"after": gen_after("type2")}),
        (recurrence, "gen_type1_records", "recurrence.gen", {"after": gen_after("record")}),
        (recurrence, "verify_shift", "recurrence.verify", {}),
        (recurrence, "verify_h_recurrence", "recurrence.verify", {}),
        (operators, "type1_image", None, {"after": images_after}),
        (operators, "type2_image", None, {"after": images_after}),
        (operators, "jump_check_typeI", "operators.jump", {}),
        (operators, "jump_check_typeII", "operators.jump", {}),
        (operators, "gram_matrix", "operators.gram", {"after": gram_after}),
        (rootfind, "complex_roots", "rootfind.complex_roots", {"after": complex_roots_after}),
        (algebraic, "solve_branches", "algebraic.solve", {"fails": (algebraic.SolverDivergence,)}),
        (algebraic, "branch_points", "algebraic.branch_points", {}),
        (algebraic, "region_classify", "algebraic.region", {"leaf": True}),
        (algebraic, "asymptotic_scan", "algebraic.scan", {}),
        (roots, "roots_of_h", "roots.roots_of_h", {"fails": (roots.ConvergenceFailure,)}),
        (roots, "roots_of_t", "roots.roots_of_t", {"fails": (roots.ConvergenceFailure,)}),
        (roots, "attraction_study", "roots.attraction", {"fails": (roots.ConvergenceFailure,)}),
        (roots, "conjecture_probe", "roots.probe",
         {"after": probe_after, "fails": (roots.ConvergenceFailure,)}),
    ]
    patched = {}
    originals = {}
    for home, attr, name, opts in table:
        fn = getattr(home, attr, None)
        if fn is None:
            continue
        if name is None:
            originals[fn] = rec.counter(fn, opts["after"])
        else:
            originals[fn] = rec.wrap(name, fn, **opts)
        patched[attr] = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = originals.get(value) if callable(value) else None
            if wrapper is not None:
                setattr(mod, attr, wrapper)
                patched[attr].append(mod.__name__.rpartition(".")[2])
    method = getattr(exactpoly.Poly, "eval_complex", None)
    if method is not None:
        exactpoly.Poly.eval_complex = rec.wrap("exactpoly.eval_complex", method, leaf=True)
        patched["Poly.eval_complex"] = ["exactpoly"]
    return patched


def main(argv: list) -> int:
    trace_file, cli_argv = argv[0], argv[1:]
    spawn = int(os.environ["PERFBENCH_SPAWN_NS"])
    import chebsys.cli

    rec = Recorder()
    rec.span("setup", spawn, _now())
    patched = install(rec)
    main_fn = rec.wrap("cli.main", chebsys.cli.main)
    code = main_fn(cli_argv)
    dump_start = _now()
    polys, bits = rec.term_counts()
    rec.counts["recurrence.polys"] = polys
    rec.counts["recurrence.coeff_bits"] = bits
    leaves = [[parent, name, *slot] for (parent, name), slot in rec.leaves.items()]
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit": code,
                "spans": rec.spans,
                "leaves": leaves,
                "counts": rec.counts,
                "patched": patched,
            },
            fh,
        )
        fh.write("\n")
        fh.flush()
        fh.write(json.dumps({"span": ["trace.dump", dump_start, _now()]}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
