#!/usr/bin/env python3
"""Desk-scale coverage study of the asymptotic confidence intervals.

Repeats the sample -> interval -> does-it-cover-the-truth loop across a
grid of sample sizes and writes the coverage curve as CSV and SVG.  The
full protocol (the default grid, 5000 replicates) takes a while; this
demo runs a reduced grid in well under a minute.

Run:
    python demos/coverage_study.py
"""

from pathlib import Path

from gsentropy import (
    Zeta,
    convergence_gap,
    coverage_sweep,
    stable_from,
    write_coverage_csv,
    write_coverage_svg,
)
from gsentropy.coverage import STABLE_BAND_SE

out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)

dist = Zeta(1.5)
grid = list(range(100, 1001, 100))
reps = 1000

for m in (2, 3):
    result = coverage_sweep(dist, m, grid, reps=reps, alpha=0.05, seed=20260810)
    csv_path = out_dir / f"coverage_m{m}.csv"
    svg_path = out_dir / f"coverage_m{m}.svg"
    write_coverage_csv(result, csv_path)
    write_coverage_svg(result, svg_path)

    print(f"order m={m}: true H_m = {result.true_gse:.6f}")
    for point in result.points:
        bar = "#" * round((point.coverage - 0.80) / 0.005)
        print(f"  n={point.n:5d}  coverage={point.coverage:.3f}  {bar}")
    bottom, top = convergence_gap(result)
    n_star = stable_from(result)
    print(f"  distance from 0.95: first-quartile {bottom:.4f} -> top-quartile {top:.4f}")
    print(f"  all points within {STABLE_BAND_SE:g} binomial SEs of 0.95 from n = {n_star}")
    print(f"  wrote {csv_path.name} and {svg_path.name}")
    print()

print("Both orders drift up toward the nominal level as n grows; the residual")
print("gap at small n is the usual plug-in bias. Higher orders carry smaller")
print("collision probabilities, so pushing m up does not speed convergence.")
