"""Fixed-seed benchmark of the ``gse`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a source checkout; it imports the package from
``src/``.  One run makes the workload's inputs from the seed in a temporary
directory, times ``setup_s`` (a fresh interpreter importing ``gsentropy.cli``
and building the parser, several times, median), then starts a fresh worker
process that repeats the workload's CLI sequence for S seconds.  Every
output is checked against an independent reference.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics, medians over the sequences; times and throughput are in calibrated
seconds (see ``calibration.py``).  The lines above it also give the raw
seconds, the workload's own throughput name (``replicates_per_s``,
``rows_per_s`` or ``calls_per_s``) and ``failure_ratio``.  With
``--trace 1`` untraced and
traced sequences alternate, the traced ones with wrappers around the public
functions of every layer, and the JSON holds the per-layer metrics; the
full per-function table and the spans of one traced sequence are written
under ``perfbench/out/``.  ``--workload all`` runs every workload both ways
and writes ``perfbench/out/summary-seed<N>.json``.  ``BENCHMARK.json``
names every metric with its unit; ``metrics.py`` gives, for each per-layer
one, the end-to-end metric and workload it should move.

Worker processes run without ``GSENTROPY_THREADS`` (so one replicate
worker), with one BLAS thread, and with bytecode caches written under
``src/`` on first import.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

import numpy as np

from calibration import calibrate, calibrated
from metrics import MOVES
from workloads import RECORDED_SEEDS, UNANSWERED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SETUP_REPEATS = 7
SETUP_CODE = "import gsentropy.cli as cli; cli.build_parser()"
SPAWN_TIMEOUT_S = 60
CHILD_GRACE_S = 100  # worker start-up, the last sequence's overrun and writing results


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GSENTROPY_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import from cached bytecode, as an installed gse does
    # One BLAS thread: at most nproc, and an idle OpenBLAS helper thread
    # busy-waits for a while after each call, which adds run-to-run noise
    # to cpu_cal_s without doing the program's work.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha() -> str | None:
    """HEAD of the checkout, or None if it is not a git checkout.

    The ceiling keeps git from taking up a repository above the checkout.
    """
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=SPAWN_TIMEOUT_S,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                              ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment() -> dict:
    return {"cpu_count": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "git_sha": git_sha()}


def timed_spawn(cmd: list[str], env: dict) -> float:
    """Wall seconds of one child process from spawn to exit.

    ``Popen.wait`` with a timeout polls with sleeps of up to 50 ms, which
    would round the time; this waits without one and kills the child from a
    timer instead.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    watchdog = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        returncode = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, cmd)
    return elapsed


def measure_setup(env: dict) -> tuple[float, float]:
    """(calibrated, raw) median seconds of a fresh interpreter importing the CLI."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    timed_spawn(cmd, env)  # writes bytecode caches
    seconds, factors = [], []
    before, _ = calibrate("interpreter")
    for _ in range(SETUP_REPEATS):
        seconds.append(timed_spawn(cmd, env))
        after, _ = calibrate("interpreter")
        factors.append((before + after) / 2.0)
        before = after
    return calibrated(seconds, factors), median(seconds)


def judge(prepared, result: dict) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, answered, failure reasons) over every call of every sequence.

    The first sequence's outputs are checked against the references; every
    later sequence must reproduce them exactly.
    """
    verdicts = []
    for index, outcome in enumerate(result["first"]):
        try:
            verdicts.append(prepared.check(index, outcome))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            verdicts.append(f"unreadable output: {exc!r}")
    attempted = failed = answered = 0
    reasons: list[str] = []
    for digests in result["digests"]:
        for index, digest in enumerate(digests):
            attempted += 1
            verdict = verdicts[index]
            if digest != result["digests"][0][index]:
                verdict = "output differs from the first sequence"
            if verdict is None:
                answered += 1
            elif verdict != UNANSWERED:
                failed += 1
                reasons.append(f"call {index}: {verdict}")
    return attempted, failed, answered, reasons


def layer_table(result: dict) -> dict[str, float]:
    runs = result["layers"]
    names = sorted(set().union(*runs))
    table = {name: median(run.get(name, 0) for run in runs) for name in names}
    calls = table.get("estimation.confidence_interval.calls", 0)
    table["estimation.confidence_interval.degenerate_ratio"] = (
        table.get("estimation.confidence_interval.degenerate", 0) / calls if calls else 0.0)
    table["trace.overhead_ratio"] = (calibrated(result["traced_walls"], result["traced_factors"])
                                     / calibrated(result["walls"], result["factors"]) - 1.0)
    return table


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> None:
    OUT.mkdir(exist_ok=True)
    env = child_env()
    tag = f"{workload}-seed{seed}-trace{trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as tmp_name:
        tmp = Path(tmp_name)
        prepared = WORKLOADS[workload](seed, tmp)
        setup_s, setup_raw_s = (None, None) if trace else measure_setup(env)
        job = {"calls": prepared.calls, "seconds": seconds, "trace": bool(trace),
               "kernel": prepared.kernel,
               "spans_path": str(OUT / f"{tag}.spans.jsonl")}
        (tmp / "job.json").write_text(json.dumps(job), encoding="utf-8")
        subprocess.run([sys.executable, str(BENCH / "worker.py"), str(tmp / "job.json"),
                        str(tmp / "result.json")], env=env, cwd=ROOT, check=True,
                       stdout=sys.stderr, timeout=seconds + CHILD_GRACE_S)
        result = json.loads((tmp / "result.json").read_text(encoding="utf-8"))
    if not Path(result["module_file"]).is_relative_to(ROOT / "src"):
        sys.exit(f"error: the worker imported gsentropy from {result['module_file']}, "
                 f"not from {ROOT / 'src'}")

    attempted, failed, answered, reasons = judge(prepared, result)
    for reason in sorted(set(reasons)):
        print(f"FAILED {workload} seed {seed}: {reason}", file=sys.stderr)
    env_record = environment()
    print(f"{workload} seed={seed} trace={trace} sequences={len(result['walls'])} untraced"
          f"+{len(result['traced_walls'])} traced, calls attempted={attempted} failed={failed}")
    print(f"  environment: {json.dumps(env_record)}")

    if trace:
        table = layer_table(result)
        metrics = {name: {"value": table.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        for name, unit in PER_LAYER.items():
            print(f"  {name:50s} {table.get(name, 0.0):<14.6g} {unit:6s} moves {MOVES[name]}")
        record = {"table": table, "moves": MOVES}
    else:
        wall_cal = calibrated(result["walls"], result["factors"])
        values = {"setup_s": setup_s, "wall_cal_s": wall_cal,
                  "cpu_cal_s": calibrated(result["cpus"], result["cpu_factors"]),
                  "peak_rss_mb": result["peak_rss_mb"],
                  "items_per_cal_s": prepared.items / wall_cal,
                  "answered_ratio": answered / attempted}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        wall = median(result["walls"])
        raw = {"setup_raw_s": (setup_raw_s, "s"), "wall_s": (wall, "s"),
               "cpu_s": (median(result["cpus"]), "s"),
               prepared.item_name: (prepared.items / wall, "1/s"),
               "failure_ratio": (failed / attempted, "ratio"),
               "calibration_factor": (median(result["factors"]), "ratio")}
        shown = {**{name: (values[name], unit) for name, unit in END_TO_END.items()}, **raw}
        for name, (value, unit) in shown.items():
            print(f"  {name:20s} {value:<14.6g} {unit}")
        record = {"raw": {name: value for name, (value, _) in raw.items()}}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds, "environment": env_record,
         "failures": sorted(set(reasons)), **record, **summary}, indent=1), encoding="utf-8")
    print(json.dumps(summary))


def run_all(seed: int, seconds: int) -> None:
    """Every workload, untraced then traced, each in its own run of this script."""
    OUT.mkdir(exist_ok=True)
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
                timeout=seconds + 2 * CHILD_GRACE_S)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            runs[f"{workload}.trace{trace}"] = json.loads(lines[-1])
    (OUT / f"summary-seed{seed}.json").write_text(json.dumps(runs, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": {f"{key}.{name}": value for key, r in runs.items()
                    for name, value in r["metrics"].items()},
    }))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="makes the inputs; the coverage workloads run the program at "
                             f"this seed modulo {RECORDED_SEEDS}, whose CSV digests are recorded")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gsentropy" / "cli.py").is_file():
        sys.exit(f"error: no gsentropy sources under {ROOT / 'src'}; "
                 "run from the root of a source checkout")
    if args.workload == "all":
        run_all(args.seed, args.seconds)
    else:
        run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
