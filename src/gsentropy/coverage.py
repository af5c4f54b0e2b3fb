"""Monte Carlo coverage study for the asymptotic confidence intervals.

A replicate draws a sample, tallies it, builds the interval from the counts,
and tests whether the exact entropy lands inside (endpoints inclusive; a
zero-width degenerate interval counts as a hit only on exact containment).
Replicate r of an experiment uses the derived seed (seed, r) and a sweep
derives each grid point's seed from (seed, n), so every point is a
deterministic function of its own seed, whatever ran before it, and fresh
samples are drawn at every n.  ``_coverage`` runs the points of one call and
``_replicate_estimates`` their replicates, in blocks, from the states of
``distributions._sweep_states``, through the family's ``draw_rows``,
``_descending_counts`` and ``distributions.h_sigma_sq``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .distributions import (
    AnalyticDistribution,
    _Workspace,
    _check_order,
    _check_reps,
    _count,
    _sweep_states,
    derive_seed,
    h_sigma_sq,
)
from .entropy import gse_analytic
from .estimation import _two_sided_z

# Sample elements per block: a block holds max(1, _BLOCK // n) replicates,
# so an experiment's memory is bounded whatever reps is.
_BLOCK = 1 << 14
DEFAULT_GRID = (10, 1000, 10)  # the protocol's (start, stop, step), stop included
STABLE_BAND_SE = 3.0  # stable_from's band in binomial standard errors
SVG_SIZE = (640, 420)  # the coverage plot's (width, height) in pixels


@dataclass(frozen=True)
class CoveragePoint:
    """Coverage proportion of the nominal interval at one sample size."""

    n: int
    m: int
    reps: int
    hits: int
    coverage: float
    se: float
    seed: int


@dataclass(frozen=True)
class SweepResult:
    """Coverage curve over increasing sample sizes for one distribution."""

    distribution: dict
    m: int
    alpha: float
    true_gse: float
    points: tuple[CoveragePoint, ...]


def _descending_counts(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tally an (R, n) int64 block of samples, one a row, sorting it in place.

    Returns every sample's counts in descending order, concatenated sample
    after sample, with the offset of each sample's run."""
    rows, n = block.shape
    block.sort()
    # edges marks the first element of each run, and the end of the block
    edges = np.empty(block.size + 1, dtype=bool)
    edges[-1] = True
    first = edges[:-1].reshape(rows, n)
    first[:, 0] = True
    np.not_equal(block[:, 1:], block[:, :-1], out=first[:, 1:])
    bounds = np.flatnonzero(edges)
    offsets = bounds.searchsorted(np.arange(0, block.size + 1, n))
    support = offsets[1:] - offsets[:-1]
    # one sort of the keys (row, n - count) puts every row's counts in
    # descending order and leaves each row where it was; tied counts are
    # equal values, so their order moves no bit of the kernel
    base = np.repeat(np.arange(n, rows * (n + 1), n + 1), support)
    key = base - (bounds[1:] - bounds[:-1])
    key.sort()
    return base - key, offsets[:-1]


def _replicate_estimates(dist: AnalyticDistribution, m: int, n: int, reps: int,
                         states: Iterator[np.ndarray],
                         work: _Workspace) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each block's (H_hat_m, sigma_hat_m^2) arrays for the next reps PCG64
    states of states (a _sweep_states stream): one kernel call on all the
    block's proportions, a segment per replicate.  A segment's bits do not
    depend on where it sits, so each estimate has the bits of its sample
    estimated alone, whatever the blocking."""
    rows = max(1, _BLOCK // n)
    for start in range(0, reps, rows):
        block = [next(states) for _ in range(min(rows, reps - start))]
        # the samples are freed once tallied, before the kernel allocates:
        # at large n that order saves page faults in the next block's draws
        counts, offsets = _descending_counts(dist.draw_rows(n, block, work))
        yield h_sigma_sq(counts / n, m, offsets)


def _coverage(dist: AnalyticDistribution, m: int, points: Iterable[tuple[int, int]], reps: int,
              alpha: float) -> tuple[float, tuple[CoveragePoint, ...]]:
    """(exact H_m, the CoveragePoint of each validated (n, seed) point): the
    arguments checked, the quantile and H_m taken, and the workspace made, once;
    the points' replicate states come from one _sweep_states stream."""
    reps = _check_reps(reps)
    m = _check_order(m)
    z = _two_sided_z(alpha)
    truth = gse_analytic(dist, m)
    work = _Workspace()
    points = list(points)
    states = _sweep_states((seed for _, seed in points), reps)
    out = []
    for n, seed in points:
        hits = 0
        for h, sigma_sq in _replicate_estimates(dist, m, n, reps, states, work):
            half = z * np.sqrt(sigma_sq) / math.sqrt(n)
            hits += int(np.count_nonzero((h - half <= truth) & (truth <= h + half)))
        coverage = hits / reps
        out.append(CoveragePoint(n=n, m=m, reps=reps, hits=hits, coverage=coverage,
                                 se=math.sqrt(coverage * (1.0 - coverage) / reps), seed=seed))
    return truth, tuple(out)


def coverage_experiment(dist: AnalyticDistribution, m: int, n: int, reps: int,
                        alpha: float, seed: int) -> CoveragePoint:
    """Proportion of reps seeded replicates whose interval covers the truth."""
    return _coverage(dist, m, [(_count(n, "coverage sample size n", 2), seed)], reps, alpha)[1][0]


def coverage_sweep(dist: AnalyticDistribution, m: int, n_grid: Sequence[int],
                   reps: int, alpha: float, seed: int) -> SweepResult:
    """One coverage experiment per grid point, each at its derived seed (seed, n)."""
    grid = [_count(n, "coverage sample size n", 2) for n in n_grid]
    if not grid:
        raise ValueError("empty sample-size grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("sample-size grid must be strictly increasing")
    truth, points = _coverage(dist, m, ((n, derive_seed(seed, n)) for n in grid), reps, alpha)
    return SweepResult(dist.config(), m, alpha, truth, points)


def default_grid() -> list[int]:
    """The protocol's sample sizes, DEFAULT_GRID: 10, 20, ..., 1000."""
    start, stop, step = DEFAULT_GRID
    return list(range(start, stop + 1, step))


# ---------------------------------------------------------------------------
# artifacts: CSV (the contract of record) and an optional SVG plot
# ---------------------------------------------------------------------------

COVERAGE_CSV_HEADER = "n,m,reps,coverage,se,seed"


def coverage_csv(points: Iterable[CoveragePoint]) -> str:
    out = StringIO()
    out.write(COVERAGE_CSV_HEADER + "\n")
    for pt in points:
        out.write(f"{pt.n},{pt.m},{pt.reps},{pt.coverage!r},{pt.se!r},{pt.seed}\n")
    return out.getvalue()


def write_coverage_csv(result: SweepResult, path: Union[str, Path]) -> None:
    Path(path).write_text(coverage_csv(result.points), encoding="utf-8")


def write_coverage_svg(result: SweepResult, path: Union[str, Path]) -> None:
    """Minimal standalone plot: coverage vs n with a dashed line at 1 - alpha."""
    width, height = SVG_SIZE
    pts = result.points
    margin = 50
    x0, x1 = pts[0].n, pts[-1].n
    span_x = max(x1 - x0, 1)
    lo = min(min(p.coverage for p in pts), 1.0 - result.alpha) - 0.02
    y0, y1 = max(0.0, min(lo, 0.9)), 1.0

    def sx(n: float) -> float:
        return margin + (n - x0) / span_x * (width - 2 * margin)

    def sy(c: float) -> float:
        return height - margin - (c - y0) / (y1 - y0) * (height - 2 * margin)

    level = 1.0 - result.alpha
    rows = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{sy(level):.2f}" x2="{width - margin}" y2="{sy(level):.2f}" '
        f'stroke="red" stroke-dasharray="6,4"/>',
        f'<text x="{width - margin}" y="{sy(level) - 5:.2f}" fill="red" font-size="12" '
        f'text-anchor="end">{level:g}</text>',
        f'<text x="{width // 2}" y="{height - 12}" font-size="13" text-anchor="middle">sample size n</text>',
        f'<text x="14" y="{height // 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 14 {height // 2})">coverage</text>',
    ]
    for n in (x0, (x0 + x1) // 2, x1):
        rows.append(f'<text x="{sx(n):.2f}" y="{height - margin + 16}" font-size="11" '
                    f'text-anchor="middle">{n}</text>')
    for c in (y0, (y0 + y1) / 2, y1):
        rows.append(f'<text x="{margin - 6}" y="{sy(c) + 4:.2f}" font-size="11" '
                    f'text-anchor="end">{c:.2f}</text>')
    for pt in pts:
        rows.append(f'<circle cx="{sx(pt.n):.2f}" cy="{sy(pt.coverage):.2f}" r="3.5" '
                    f'fill="steelblue"/>')
    rows.append("</svg>")
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def stable_from(result: SweepResult) -> int | None:
    """Smallest grid n from which every later point sits within STABLE_BAND_SE
    binomial standard errors of the nominal level (None if never): the first
    n of the run of such points that ends the grid."""
    level = 1.0 - result.alpha
    start = None
    for p in reversed(result.points):
        if abs(p.coverage - level) > STABLE_BAND_SE * math.sqrt(level * (1 - level) / p.reps):
            break
        start = p.n
    return start


def convergence_gap(result: SweepResult) -> tuple[float, float]:
    """(bottom-quartile, top-quartile) mean absolute distance from 1 - alpha.

    A soft diagnostic for "coverage settles as n grows": the top quartile of
    sample sizes is expected to sit closer to the nominal level.
    """
    level = 1.0 - result.alpha
    pts = result.points
    q = max(1, len(pts) // 4)
    bottom = sum(abs(p.coverage - level) for p in pts[:q]) / q
    top = sum(abs(p.coverage - level) for p in pts[-q:]) / q
    return bottom, top
