"""Quick check of the benchmark harness at reduced size.

    python3 perfbench/smoke.py

Runs every workload untraced and traced for one second each (one sequence
of CLI calls) at seed 0, whose coverage digests are recorded, and checks
that:

* every run emits exactly the metrics ``BENCHMARK.json`` names for its
  mode, each with its unit, and every end-to-end value is positive;
* every output check passes, and on ``analytic`` only the four
  Geometric(1e-9) calls are unanswered (exit 3).

Exits non-zero with a message on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 0
ANALYTIC_CALLS = 37  # nine laws at m = 1..4, then verify
ANALYTIC_UNANSWERED = 4  # Geometric(1e-9) at m = 1..4


def fail(message: str) -> None:
    sys.exit(f"smoke: {message}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "all",
                    "--seed", str(SEED), "--seconds", "1"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=900)
    runs = json.loads((BENCH / "out" / f"summary-seed{SEED}.json").read_text(encoding="utf-8"))

    for workload in WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            run = runs[f"{workload}.trace{trace}"]
            if set(run) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace {trace}: result keys are {sorted(run)}")
            if not run["correct"] or run["failed"] or run["attempted"] < 1:
                fail(f"{workload} trace {trace}: {run['failed']} of {run['attempted']} calls failed")
            got = {name: m["unit"] for name, m in run["metrics"].items()}
            if got != units:
                fail(f"{workload} trace {trace}: metrics or units differ: {sorted(set(got) ^ set(units))}")
            if trace == 0 and not all(m["value"] > 0 for m in run["metrics"].values()):
                fail(f"{workload}: an end-to-end metric is not positive")

    analytic = runs["analytic.trace0"]
    expected = 1.0 - ANALYTIC_UNANSWERED / ANALYTIC_CALLS
    if abs(analytic["metrics"]["answered_ratio"]["value"] - expected) > 1e-12:
        fail(f"analytic answered_ratio is {analytic['metrics']['answered_ratio']['value']}, "
             f"expected {expected} (only Geometric(1e-9) unanswered)")
    print("smoke: ok")


if __name__ == "__main__":
    main()
