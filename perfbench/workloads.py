"""The four workloads: inputs made from the seed, the ``gse`` calls, and their checks.

Each workload is chosen so that one layer does most of its work:

* ``coverage_small_n``: replicates of n = 10..100 cost a fraction of a
  millisecond and are almost all fixed per-replicate cost (seed derivation,
  Generator set-up, tally, interval set-up).
* ``coverage_large_n``: replicates of n = 20000..100000, where the rejection
  draw and the tally per element dominate and fixed costs are under 2%.
* ``estimate_ingest``: one large sample instead of thousands of tiny ones;
  the Python line loops of the readers and the empirical pmf of ~1e5
  categories dominate.
* ``analytic``: no sampling; series evaluation, the Geometric direct sum,
  the K-vector of a large uniform law and the oracle battery.

The program sees only argv and the generated files.  Every output is checked
against an independent reference: the recorded digest of the coverage CSV
(the contract of record) with the structural checks of
``coverage_csv_problem``, numpy recomputation of estimates,
closed forms or mpmath for exact entropies.  Exit 3 (documented
non-convergence) counts as unanswered, never as a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import mpmath
import numpy as np

UNANSWERED = "unanswered"
EXIT_NON_CONVERGENT = 3
M = 2
ALPHA = 0.05
ZETA_15 = {"kind": "zeta", "s": 1.5}
COMPUTE_EPS = 1e-10  # the CLI's default --eps: the tolerance compute promises
ESTIMATE_RTOL = 1e-9  # summation order differs from the program's
DIGESTS_PATH = Path(__file__).with_name("digests.json")
# Coverage CSV digests are recorded for program seeds 0..RECORDED_SEEDS-1; a
# coverage workload runs the program at its seed modulo this, so every seed
# gets the digest check.
RECORDED_SEEDS = 128
_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass
class Prepared:
    """One sequence of ``gse`` calls and how to judge each call's outcome."""

    calls: list[dict]
    items: int
    item_name: str
    check: Callable[[int, dict], str | None]  # None if correct, else UNANSWERED or a reason
    kernel: str = "interpreter"  # the calibration kernel, see calibration.py


def _exit_verdict(outcome: dict) -> str | None:
    rc = outcome["rc"]
    if rc is None:
        return "traceback: " + outcome["stderr"].strip().splitlines()[-1]
    if rc == EXIT_NON_CONVERGENT and outcome["stderr"].startswith("non-convergence:"):
        return UNANSWERED
    if rc != 0:
        return f"exit code {rc}: {outcome['stderr'].strip()[:200]}"
    return None


def _close(value: float, ref: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def zeta_h_m(s: float, m: int) -> float:
    """H_m of Zeta(s): the conditioned law is Zeta(t), t = m s, so
    H_m = ln zeta(t) - t zeta'(t) / zeta(t)."""
    with mpmath.workdps(30):
        t = mpmath.mpf(s) * m
        z = mpmath.zeta(t)
        return float(mpmath.log(z) - t * mpmath.zeta(t, derivative=1) / z)


def geometric_h_m(q: float, m: int) -> float:
    """H_m of Geometric(q): the conditioned law is Geometric(r), r = 1 - (1-q)^m."""
    with mpmath.workdps(40):
        r = 1 - (1 - mpmath.mpf(q)) ** m
        return float((-(1 - r) * mpmath.log(1 - r) - r * mpmath.log(r)) / r)


def custom_h_m(probs: list[float], m: int) -> float:
    """H_m of an explicit pmf by direct summation."""
    with mpmath.workdps(30):
        w = [mpmath.mpf(p) ** m for p in probs if p > 0]
        total = mpmath.fsum(w)
        return float(-mpmath.fsum(x / total * mpmath.log(x / total) for x in w))


def reference_estimate(counts: np.ndarray, m: int, alpha: float) -> dict:
    """h_hat, sigma_hat and the interval from raw counts, in the
    sigma^2 = sum (m^2 / p_k) (q_k ln q_k + q_k H)^2 form."""
    c = np.sort(np.asarray(counts, dtype=np.float64))[::-1]
    n = float(c.sum())
    p = c / n
    log_w = m * np.log(p)
    top = log_w.max()
    log_q = log_w - (top + math.log(math.fsum(np.exp(log_w - top))))
    q = np.exp(log_q)
    h = -math.fsum(q * log_q)
    sigma = math.sqrt(math.fsum((m * m / p) * (q * log_q + q * h) ** 2))
    half = NormalDist().inv_cdf(1.0 - alpha / 2.0) * sigma / math.sqrt(n)
    return {"n": int(n), "m": m, "support_observed": int(c.size), "h_hat": h,
            "sigma_hat": sigma, "lower": h - half, "upper": h + half,
            "level": 1.0 - alpha, "degenerate": sigma == 0.0}


def point_seed(seed: int, n: int) -> int:
    """The seed a sweep gives grid point n: SeedSequence(seed, spawn_key=(n,))."""
    ss = np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=(n & _MASK64,))
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def recorded_digest(workload: str, seed: int) -> str | None:
    digests = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    return digests.get(workload, {}).get(str(seed))


def coverage_csv_problem(text: str, grid: list[int], reps: int, seed: int) -> str | None:
    """Structural check of the coverage CSV, used whatever the seed."""
    rows = text.splitlines()
    if rows[:1] != ["n,m,reps,coverage,se,seed"] or len(rows) != len(grid) + 1:
        return "coverage CSV header or row count is wrong"
    for n, row in zip(grid, rows[1:]):
        fields = row.split(",")
        if len(fields) != 6 or fields[:3] != [str(n), str(M), str(reps)]:
            return f"coverage CSV row {row!r} does not match n={n}, m={M}, reps={reps}"
        cov = float(fields[3])
        hits = round(cov * reps)
        if not (0 <= hits <= reps and cov == hits / reps):
            return f"coverage {cov!r} at n={n} is not hits/reps"
        if fields[4] != repr(math.sqrt(cov * (1.0 - cov) / reps)):
            return f"binomial SE {fields[4]} at n={n} does not match coverage {cov!r}"
        if fields[5] != str(point_seed(seed, n)):
            return f"grid-point seed {fields[5]} at n={n} is not the derived seed"
    return None


def coverage_workload(name: str, grid: tuple[int, int, int], reps: int, kernel: str,
                      seed: int, tmp: Path) -> Prepared:
    seed %= RECORDED_SEEDS
    start, stop, step = grid
    points = list(range(start, stop + 1, step))
    out = tmp / "coverage.csv"
    argv = ["coverage", "--dist", json.dumps(ZETA_15), "--m", str(M),
            "--grid", f"{start}:{stop}:{step}", "--reps", str(reps),
            "--seed", str(seed), "--out", str(out)]
    truth_line = f"true H_{M} = {zeta_h_m(ZETA_15['s'], M):.6g};"
    expected_digest = recorded_digest(name, seed)

    def check(_: int, outcome: dict) -> str | None:
        verdict = _exit_verdict(outcome)
        if verdict is not None:
            return verdict
        text = outcome["file"]
        if text is None:
            return "no coverage CSV written"
        problem = coverage_csv_problem(text, points, reps, seed)
        if problem is not None:
            return problem
        if expected_digest is None:
            return f"no coverage CSV digest recorded for seed {seed}"
        if hashlib.sha256(text.encode()).hexdigest() != expected_digest:
            return f"coverage CSV digest differs from the one recorded for seed {seed}"
        if not outcome["stdout"].startswith(truth_line):
            return f"summary does not start with {truth_line!r}"
        return None

    return Prepared([{"argv": argv, "out": str(out)}], len(points) * reps,
                    "replicates_per_s", check, kernel)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

RAW_LABELS = 1_000_000
CSV_ROWS = 100_000


def estimate_workload(seed: int, tmp: Path) -> Prepared:
    rng = np.random.default_rng(seed)
    labels = rng.zipf(ZETA_15["s"], RAW_LABELS)
    raw_path = tmp / "labels.txt"
    raw_path.write_text("\n".join(map(str, labels.tolist())) + "\n", encoding="utf-8")
    row_counts = rng.zipf(2.0, CSV_ROWS)
    csv_path = tmp / "counts.csv"
    csv_path.write_text("category,count\n" + "".join(
        f"c{i},{c}\n" for i, c in enumerate(row_counts.tolist())), encoding="utf-8")

    references = [reference_estimate(np.unique(labels, return_counts=True)[1], M, ALPHA),
                  reference_estimate(row_counts, M, ALPHA)]
    common = ["--m", str(M), "--alpha", str(ALPHA), "--format", "json"]
    calls = [{"argv": ["estimate", "--raw", "--data", str(raw_path), *common]},
             {"argv": ["estimate", "--data", str(csv_path), *common]}]

    def check(index: int, outcome: dict) -> str | None:
        verdict = _exit_verdict(outcome)
        if verdict is not None:
            return verdict
        ref = references[index]
        got = json.loads(outcome["stdout"])
        interval = got["interval"]
        flat = {**{k: got[k] for k in ("n", "m", "support_observed", "h_hat", "sigma_hat")},
                **{k: interval[k] for k in ("lower", "upper", "level", "degenerate")}}
        for key in ("n", "m", "support_observed", "degenerate", "level"):
            if flat[key] != ref[key]:
                return f"{key} is {flat[key]!r}, expected {ref[key]!r}"
        for key in ("h_hat", "sigma_hat", "lower", "upper"):
            if not _close(flat[key], ref[key], ESTIMATE_RTOL):
                return f"{key} is {flat[key]!r}, reference {ref[key]!r}"
        return None

    return Prepared(calls, RAW_LABELS + CSV_ROWS, "rows_per_s", check)


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------

ORDERS = (1, 2, 3, 4)
CUSTOM_SIZE = 50


def analytic_workload(seed: int, tmp: Path) -> Prepared:
    probs = np.random.default_rng(seed).dirichlet(np.ones(CUSTOM_SIZE)).tolist()
    cases = ([({"kind": "zeta", "s": s}, lambda m, s=s: zeta_h_m(s, m)) for s in (1.05, 1.5, 3.0)]
             + [({"kind": "geometric", "q": q}, lambda m, q=q: geometric_h_m(q, m))
                for q in (0.3, 1e-4, 1e-5, 1e-9)]
             + [({"kind": "uniform", "K": 10**6}, lambda m: math.log(10**6)),
                ({"kind": "custom", "probs": probs}, lambda m: custom_h_m(probs, m))])
    calls, references = [], []
    for dist, h_m in cases:
        for m in ORDERS:
            calls.append({"argv": ["compute", "--dist", json.dumps(dist), "--m", str(m),
                                   "--format", "json"]})
            references.append((m, h_m(m)))
    calls.append({"argv": ["verify"]})

    def check(index: int, outcome: dict) -> str | None:
        verdict = _exit_verdict(outcome)
        if verdict is not None:
            return verdict
        if index == len(references):
            passes = outcome["stdout"].count("[PASS]")
            if passes == 0 or "[FAIL]" in outcome["stdout"]:
                return "verify reported a failed check"
            return None
        m, ref = references[index]
        got = json.loads(outcome["stdout"])
        if got["m"] != m or not (abs(got["h_m"] - ref) <= COMPUTE_EPS):
            return f"H_{m} is {got['h_m']!r}, reference {ref!r}"
        return None

    # A quarter of this workload's CPU time is the kernel faulting in the
    # fresh pages of large arrays (Uniform's K-vector, the Geometric direct
    # sums), so it is calibrated against the memory kernel.
    return Prepared(calls, len(calls), "calls_per_s", check, kernel="memory")


WORKLOADS: dict[str, Callable[[int, Path], Prepared]] = {
    "coverage_small_n": lambda seed, tmp: coverage_workload(
        "coverage_small_n", (10, 100, 10), 400, "replicate", seed, tmp),
    "coverage_large_n": lambda seed, tmp: coverage_workload(
        "coverage_large_n", (20000, 100000, 20000), 20, "interpreter", seed, tmp),
    "estimate_ingest": estimate_workload,
    "analytic": analytic_workload,
}
