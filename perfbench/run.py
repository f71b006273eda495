#!/usr/bin/env python3
"""Job-level benchmark of the chebsys command-line interface.

    python3 perfbench/run.py --workload exact|grid|deep --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each job is one
``python -m chebsys.cli ...`` process with ``src`` on its path, so its time
includes interpreter start-up, the imports and cold caches, as a user's run
does.  One client runs the jobs closed-loop, one at a time.  The seed makes
the job list (see ``jobs.py``); the program sees only the generated argv.
Every output is checked after its job, outside the timed region
(``checks.py``).

With ``--trace 0`` the run times the workload's job list (as many rounds as
fit in ``--seconds`` at the nominal speed) and prints the end-to-end metrics,
with times scaled to a reference host speed (see REFERENCE below; the record
keeps the unscaled values).
With ``--trace 1`` it replays the first round twice per job, once plain and
once under ``tracer.py``, and prints the per-layer metrics (``layers.py``),
the tracing overhead and the share of each job's wall time that named spans
cover.  The last line of standard output is the result as one JSON object;
the line before it is the run record.  Files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import jobs
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# The host's speed drifts by tens of percent over minutes, and a job's time
# drifts with it.  A fresh interpreter importing numpy and mpmath measures
# that speed without running any chebsys code; end-to-end times are scaled to
# a host on which it takes REF_NOMINAL_S.  REF_SAMPLES of it, and half as many
# fresh `import chebsys.cli` processes, are timed between evenly spaced jobs.
REFERENCE = ("-c", "import numpy, mpmath")
IMPORT = ("-c", "import chebsys.cli")
REF_NOMINAL_S = 0.2
REF_SAMPLES = 12
IMPORTTIME_SAMPLES = 3
JOB_TIMEOUT_S = 120
DEADLINE_S = 160  # no job starts later than this into a run, so runs end within 180 s
# settings that would change what the jobs compute or load
SCRUBBED_ENV = ("CHEBSYS_PRECISION", "CHEBSYS_RATIONAL_BACKEND", "PYTHONPATH", "PYTHONHOME")

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def job_env() -> dict:
    """The caller's environment without settings that change what jobs do.

    Bytecode caching is left on, as for an installed package, so the import
    cost measured is that of a warm install rather than of compiling.
    """
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Proc:
    """One finished child process: wall time, exit code, peak RSS."""

    def __init__(self, argv: list, cwd: Path, env: dict, timeout: float):
        cwd.mkdir(parents=True, exist_ok=True)
        lock = threading.Lock()
        state = {"done": False}
        with open(cwd / "stderr.txt", "wb") as err:
            self.spawn_ns = now_ns()
            env = dict(env, PERFBENCH_SPAWN_NS=str(self.spawn_ns))
            proc = subprocess.Popen(
                argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )

        def kill():
            with lock:
                if not state["done"]:
                    proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.daemon = True
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            self.wall_ns = now_ns() - self.spawn_ns
            with lock:
                state["done"] = True
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = self.exit = os.waitstatus_to_exitcode(status)
        self.rss_kb = usage.ru_maxrss
        self.stderr = (cwd / "stderr.txt").read_text(errors="replace").strip()

    @property
    def wall_s(self) -> float:
        return self.wall_ns * 1e-9


def python(*args: str) -> list:
    return [sys.executable, *args]


def run_job(job, env: dict, work: Path, trace_file: Path | None = None) -> dict:
    """Run one job in an empty directory, check its output, then delete it."""
    shutil.rmtree(work, ignore_errors=True)
    if trace_file is None:
        argv = python("-m", "chebsys.cli", *job.argv)
    else:
        argv = python(str(HERE / "tracer.py"), str(trace_file), *job.argv)
    proc = Proc(argv, work, env, JOB_TIMEOUT_S)
    if proc.exit != 0:
        reason = f"exit {proc.exit}: {proc.stderr.splitlines()[-1:] or ''}"
    else:
        reason = checks.check(job, work)
    out_bytes = sum(f.stat().st_size for f in work.iterdir() if f.name != "stderr.txt")
    shutil.rmtree(work, ignore_errors=True)
    label = job.id if trace_file is None else f"{job.id}-traced"
    return {"id": label, "proc": proc, "reason": reason, "bytes": out_bytes, "trace": trace_file}


def helper(argv: list, env: dict, work: Path) -> Proc:
    """A process that must succeed: a set-up sample or the host-speed reference."""
    proc = Proc(argv, work, env, 60)
    if proc.exit != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} failed: {proc.stderr}")
    return proc


def import_seconds(stderr: str, package: str) -> float:
    """Cumulative import time of a package from ``-X importtime`` output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == package:
            return int(parts[1]) * 1e-6
    return 0.0


def run_record(env: dict, work: Path) -> dict:
    """Interpreter, libraries and code that the jobs actually load."""
    probe = (
        "import json, os, sys, numpy, mpmath, chebsys\n"
        "print(json.dumps({'python': sys.version.split()[0], 'executable': sys.executable,\n"
        " 'chebsys_file': chebsys.__file__,\n"
        " 'chebsys_backend': getattr(chebsys, 'BACKEND', None),\n"
        " 'mpmath_backend': mpmath.libmp.BACKEND, 'numpy': numpy.__version__,\n"
        " 'nproc': len(os.sched_getaffinity(0))}))"
    )
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    done = subprocess.run(
        python("-c", probe), cwd=work, env=env, capture_output=True, text=True, timeout=60
    )
    if done.returncode != 0:
        raise RuntimeError(f"cannot import chebsys from {SRC}: {done.stderr.strip()}")
    record = json.loads(done.stdout)
    if Path(record["chebsys_file"]).resolve().parent != (SRC / "chebsys").resolve():
        raise RuntimeError(f"jobs import chebsys from {record['chebsys_file']}, not {SRC}")
    record["scrubbed_env"] = sorted(k for k in SCRUBBED_ENV if k in os.environ)
    record["git_sha"] = _git_sha()
    digest = hashlib.sha256()
    for path in sorted((SRC / "chebsys").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    record["src_sha256"] = digest.hexdigest()
    return record


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with ten samples beyond it.

    With ten or fewer samples no percentile qualifies; the smallest is returned.
    """
    ordered = sorted(values)
    k = max(1, len(ordered) - 10)
    return ordered[k - 1], 100.0 * k / len(ordered)


def run_jobs(job_list: list, env: dict, work: Path, start_ns: int, traced_dir=None, samples=0):
    """Run the jobs in order: (plain results, traced replays, timing samples).

    With ``traced_dir`` every job is replayed under the tracer right after
    its plain run.  With ``samples``, that many reference imports and half as
    many ``import chebsys.cli`` are timed between evenly spaced jobs, so they
    span the run; they come back as ``{"ref": [...], "setup": [...]}``.
    """
    plain, traced = [], []
    timed = {"ref": [], "setup": []}
    due = [k * len(job_list) // samples for k in range(samples)] if samples else []
    for i, job in enumerate(job_list):
        if (now_ns() - start_ns) * 1e-9 > DEADLINE_S:
            plain.append({"id": job.id, "proc": None, "reason": "not started: deadline", "bytes": 0})
            continue
        for _ in range(due.count(i)):
            timed["ref"].append(helper(python(*REFERENCE), env, work).wall_s)
            if len(timed["ref"]) % 2:
                timed["setup"].append(helper(python(*IMPORT), env, work).wall_s)
        plain.append(run_job(job, env, work))
        if traced_dir is not None:
            trace_file = traced_dir / f"{job.id}.jsonl"
            traced.append(run_job(job, env, work, trace_file))
    return plain, traced, timed


def end_to_end(workload: str, seed: int, seconds: float, env: dict, rundir: Path, start_ns: int):
    work = rundir / "work"
    helper(python(*IMPORT), env, work)  # warm-up: bytecode and file caches
    job_list = jobs.job_list(workload, seed, jobs.rounds_for(workload, seconds))
    results, _, timed = run_jobs(job_list, env, work, start_ns, samples=REF_SAMPLES)
    ran = [r["proc"] for r in results if r["proc"] is not None]
    walls = [p.wall_s for p in ran]
    tail_value, tail_pct = tail(walls)
    failed = [r for r in results if r["reason"]]
    measured = {
        "wall_s": sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_value,
        "setup_s": statistics.median(timed["setup"]),
    }
    ref_s = statistics.median(timed["ref"])
    metrics = {k: v * REF_NOMINAL_S / ref_s for k, v in measured.items()}
    metrics["peak_rss_mb"] = max(p.rss_kb for p in ran) / 1024
    metrics["ok_ratio"] = (len(results) - len(failed)) / len(results)
    info = {
        "rounds": jobs.rounds_for(workload, seconds),
        "job_tail": {"percentile": round(tail_pct, 2), "samples": len(walls)},
        "reference_s": ref_s,
        "unscaled": measured,
        "samples_s": timed,
        "jobs": [
            {"id": r["id"], "wall_s": r["proc"].wall_s if r["proc"] else None, "bytes": r["bytes"]}
            for r in results
        ],
    }
    return results, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, info


def per_layer(workload: str, seed: int, env: dict, rundir: Path, start_ns: int):
    work = rundir / "work"
    helper(python(*IMPORT), env, work)  # warm-up: bytecode and file caches
    stamps = [helper(python("-X", "importtime", *IMPORT), env, work) for _ in range(IMPORTTIME_SAMPLES)]
    traced_dir = rundir / "traces"
    traced_dir.mkdir()
    job_list = jobs.job_list(workload, seed, 1)
    plain, traced, _ = run_jobs(job_list, env, work, start_ns, traced_dir)
    traces = []
    coverage = {}
    for r in traced:
        if r["proc"].exit == 0:
            end_ns = r["proc"].spawn_ns + r["proc"].wall_ns
            trace = layers.JobTrace(r["trace"], end_ns)
            traces.append(trace)
            coverage[r["id"]] = trace.named_ns / r["proc"].wall_ns
    plain_wall = sum(r["proc"].wall_s for r in plain if r["proc"])
    traced_wall = sum(r["proc"].wall_s for r in traced)
    metrics = layers.layer_metrics(traces)
    metrics.update(
        {
            "cli.bytes_out": sum(r["bytes"] for r in traced),
            "setup.numpy_s": statistics.median(import_seconds(p.stderr, "numpy") for p in stamps),
            "setup.mpmath_s": statistics.median(import_seconds(p.stderr, "mpmath") for p in stamps),
            "trace.untraced_wall_s": plain_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - plain_wall,
            "trace.coverage_min": min(coverage.values(), default=0.0),
        }
    )
    info = {
        "jobs": len(job_list),
        "coverage": coverage,
        "patched": traces[0].patched if traces else {},
    }
    return plain + traced, {k: (v, layers.unit(k)) for k, v in metrics.items()}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chebsys" / "cli.py").is_file():
        print(f"perfbench: no chebsys sources under {SRC}", file=sys.stderr)
        return 2
    start_ns = now_ns()
    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    env = job_env()
    record = run_record(env, rundir / "work")
    if args.trace:
        results, metrics, info = per_layer(args.workload, args.seed, env, rundir, start_ns)
    else:
        results, metrics, info = end_to_end(
            args.workload, args.seed, args.seconds, env, rundir, start_ns
        )
    failures = {r["id"]: r["reason"] for r in results if r["reason"]}
    record.update(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "failures": failures, **info}
    )
    (rundir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    summary = {k: v for k, v in record.items() if k not in ("jobs", "samples_s")}
    print(json.dumps({"record": summary}))
    result = {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
