"""Spans and counts around gsentropy's public functions, installed from outside.

The modules import one another's functions by name (``coverage`` calls its
own binding of ``sample``, ``cli`` its own ``gse_estimate``), so a wrapper
only sees a call if it replaces the name in the module that looks it up.
``install`` therefore rebinds every module attribute that is the original
function object, and returns the undo.  Nothing in the program is edited and
an untraced run installs nothing.

A span is ``(id, parent id, name, start, end, run id)``; spans are kept in
memory and aggregated per run.  Self time is a span's duration minus the
part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable

# layer (gsentropy module) -> its public functions
PUBLIC_FUNCTIONS = {
    "cli": ("main",),
    "coverage": ("coverage_sweep", "coverage_experiment", "coverage_csv",
                 "write_coverage_csv", "write_coverage_svg", "stable_from"),
    "distributions": ("derive_seed", "sample", "power_log_series", "series_terms_needed",
                      "riemann_zeta", "truncation_index", "parse_distribution", "finite_pmf"),
    "entropy": ("gse", "gse_analytic", "gse_analytic_info", "shannon_entropy", "cdotc"),
    "estimation": ("confidence_interval", "gse_estimate", "gse_plugin", "empirical_pmf",
                   "normal_quantile", "sigma_sq_true", "sigma_hat_sq",
                   "read_raw_labels", "read_counts_csv"),
    "oracles": ("run_verification", "analytic_gradient", "fd_gradient",
                "delta_variance_oracle", "mc_variance_oracle", "pmf_corpus"),
}

# (layer, class, classmethod)
PUBLIC_CLASSMETHODS = (("distributions", "SampleCounts", "from_observations"),)


def _sample_counts(args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n"]
    return {"draws": n, "categories": len(result.counts)}


# counts recorded at a span's boundary from its arguments and result
COUNTERS = {
    "distributions.sample": _sample_counts,
    "estimation.confidence_interval": lambda a, k, r: {"degenerate": int(r.degenerate)},
    "estimation.read_raw_labels": lambda a, k, r: {"rows": r[0].n},
    "estimation.read_counts_csv": lambda a, k, r: {"rows": len(r[0].counts)},
    "entropy.gse_analytic_info": lambda a, k, r: {"series_terms": r[1]},
}


class Recorder:
    """In-memory span and counter store shared by all wrappers of one install."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self, run_id: int) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self.run_id = run_id

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, self.run_id))
            if counter is not None:
                with self._lock:
                    for key, value in counter(args, kwargs, result).items():
                        self.counts[f"{name}.{key}"] += value
            return result

        return traced


def install(recorder: Recorder, modules: dict) -> Callable[[], None]:
    """Wrap every public function wherever a module binds it; returns the undo."""
    undo = []
    for layer, names in PUBLIC_FUNCTIONS.items():
        for fname in names:
            original = getattr(modules[layer], fname)
            wrapper = recorder.wrap(f"{layer}.{fname}", original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
    for layer, cls_name, meth in PUBLIC_CLASSMETHODS:
        cls = getattr(modules[layer], cls_name)
        original = cls.__dict__[meth]
        wrapper = recorder.wrap(f"{layer}.{cls_name}.{meth}", original.__func__)
        setattr(cls, meth, classmethod(wrapper))
        undo.append((cls, meth, original))

    def uninstall() -> None:
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)

    return uninstall


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children may overlap across threads)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans: list[tuple], counts: dict[str, int]) -> dict[str, float]:
    """Per function: inclusive seconds (``.s``), self seconds (``.self_s``) and ``.calls``."""
    children: dict[int, list] = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    table: dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end, _ in spans:
        duration = end - start
        table[f"{name}.s"] += duration
        table[f"{name}.self_s"] += duration - _covered(children.get(span_id, []))
        table[f"{name}.calls"] += 1
    table.update(counts)
    return dict(table)
