"""Calibrated seconds: times relative to a fixed kernel timed next to them.

The speed of the shared 2-vCPU host this benchmark was tuned on drifts by
10-40% over seconds to minutes, in CPU time as much as in wall time, more
than a run of a few tens of seconds averages out: raw wall-time medians of
ten runs at different seeds spread by up to 46% (IQR over median), and two
such sets twenty minutes apart differed by up to 42%.  So a fixed kernel is
timed just before and just after each measured piece of work, and the work
is reported as its seconds over the mean of the two slowness factors (the
kernel's seconds over its nominal seconds): wall seconds over the wall
factor, CPU seconds over the CPU factor.  The nominal seconds are roughly
the kernel's time on that host (2.1 GHz Xeon VM), so calibrated and raw
seconds are of the same size there; a program change moves the work, never
the kernel.

Each workload names the kernel whose slowdowns track its own: the
replicate kernel for many tiny seeded samples, the interpreter kernel for
Python loops and mid-sized numpy calls, the memory kernel for work
dominated by large fresh arrays, whose page faults and memory streaming
slow down differently.
"""

from __future__ import annotations

import mmap
import time
from statistics import median

import numpy as np

REPEATS = 3
MEMORY_KERNEL_BYTES = 24 << 20


def interpreter_kernel() -> None:
    """Fixed mix of interpreter work (dict tally, sort) and small and large numpy calls."""
    rng = np.random.default_rng(12345)
    tally: dict[int, int] = {}
    for x in rng.integers(0, 500, 10_000).tolist():
        tally[x] = tally.get(x, 0) + 1
    sum(float(np.log(rng.random(64)).sum()) for _ in range(100))
    float(np.exp(-rng.random(200_000)).sum())
    sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))


def replicate_kernel() -> None:
    """Many tiny seeded samples, each tallied and reduced: Generator set-up,
    small draws, ``np.unique`` and small reductions, over and over."""
    for i in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(i))
        _, counts = np.unique(rng.zipf(1.5, 50), return_counts=True)
        p = np.sort(counts)[::-1] / counts.sum()
        float((p * np.log(p)).sum())


def memory_kernel() -> None:
    """One pass over a fresh anonymous 24 MB mapping, whose pages fault in on
    first touch as those of large numpy temporaries do."""
    with mmap.mmap(-1, MEMORY_KERNEL_BYTES) as mapped:
        values = np.frombuffer(mapped, dtype=np.float64)
        values.fill(1.0)
        np.log1p(values, out=values)
        float(values.sum())
        del values


# name: (kernel, its nominal seconds)
KERNELS = {"interpreter": (interpreter_kernel, 0.006), "replicate": (replicate_kernel, 0.004),
           "memory": (memory_kernel, 0.035)}


def calibrate(kernel: str) -> tuple[float, float]:
    """Wall and CPU slowness factors now: median seconds of a few runs of the
    kernel over its nominal seconds."""
    run, nominal = KERNELS[kernel]
    walls, cpus = [], []
    for _ in range(REPEATS):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        run()
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
    return median(walls) / nominal, median(cpus) / nominal


def calibrated(seconds: list[float], factors: list[float]) -> float:
    """Median over pieces of work of seconds over their slowness factor."""
    return median(s / f for s, f in zip(seconds, factors))
