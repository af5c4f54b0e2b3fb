"""Run one workload's CLI sequence repeatedly in a fresh interpreter.

Usage: python3 worker.py JOB.json RESULT.json

The job names the ``gse`` argv lists of one sequence, the run length and
whether to trace.  Each call goes through ``gsentropy.cli.main(argv)`` in
this process, with stdout and stderr captured.  The result holds per-sequence
wall and CPU seconds with the calibration factors around each, the
peak RSS of this process, the full outputs of the first sequence and an
output digest for every call of every sequence, so the caller can check
correctness without keeping this process busy.

In traced mode untraced and traced sequences alternate; wrappers are
installed only around the traced ones, and each traced sequence is one run
id in the span file.

The workload's calibration kernel (``calibration.py``) is timed between
sequences; each sequence's wall and CPU seconds are paired with the mean of
the wall and CPU slowness factors just before and just after it.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
import tracer
from calibration import calibrate


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its children that have ended."""
    return sum(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_call(cli, call: dict) -> tuple[float, float, dict]:
    out_path = Path(call["out"]) if call.get("out") else None
    if out_path is not None:
        out_path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            rc = cli.main(call["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is an outcome to report, not to stop on
            rc = None
            stderr.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    outcome = {
        "rc": rc,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "file": out_path.read_text(encoding="utf-8") if out_path and out_path.exists() else None,
    }
    return wall, cpu, outcome


def digest(outcome: dict) -> str:
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()


def run_sequence(cli, calls: list[dict]) -> tuple[float, float, list[dict]]:
    wall = cpu = 0.0
    outcomes = []
    for call in calls:
        w, c, outcome = run_call(cli, call)
        wall += w
        cpu += c
        outcomes.append(outcome)
    return wall, cpu, outcomes


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    import gsentropy
    from gsentropy import cli

    modules = {layer: importlib.import_module(f"gsentropy.{layer}")
               for layer in tracer.PUBLIC_FUNCTIONS}
    recorder = tracer.Recorder() if job["trace"] else None
    result = {"module_file": gsentropy.__file__, "walls": [], "cpus": [], "factors": [],
              "cpu_factors": [], "traced_walls": [], "traced_factors": [], "layers": [], "digests": [],
              "first": None}
    kept_spans: list[tuple] = []

    deadline = time.perf_counter() + job["seconds"]
    sequence = 0
    factors_before = calibrate(job["kernel"])
    while True:
        traced = recorder is not None and sequence % 2 == 1
        if traced:
            recorder.reset(run_id=sequence)
            uninstall = tracer.install(recorder, modules)
            try:
                wall, cpu, outcomes = run_sequence(cli, job["calls"])
            finally:
                uninstall()
        else:
            wall, cpu, outcomes = run_sequence(cli, job["calls"])
        factors_after = calibrate(job["kernel"])
        factor, cpu_factor = ((b + a) / 2.0 for b, a in zip(factors_before, factors_after))
        factors_before = factors_after
        if traced:
            result["traced_walls"].append(wall)
            result["traced_factors"].append(factor)
            result["layers"].append(tracer.aggregate(recorder.spans, recorder.counts))
            if not kept_spans:
                kept_spans = recorder.spans
        else:
            result["walls"].append(wall)
            result["cpus"].append(cpu)
            result["factors"].append(factor)
            result["cpu_factors"].append(cpu_factor)
        if result["first"] is None:
            result["first"] = outcomes
        result["digests"].append([digest(o) for o in outcomes])
        sequence += 1
        enough = result["walls"] and (recorder is None or result["traced_walls"])
        if enough and time.perf_counter() >= deadline:
            break

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if job["trace"]:
        with open(job["spans_path"], "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, run_id in kept_spans:
                handle.write(json.dumps({"run": run_id, "id": span_id, "parent": parent,
                                         "name": name, "start": start, "end": end}) + "\n")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
