#!/usr/bin/env python3
"""Interval estimation of collision-order entropy from a single sample.

Draws one sample from a heavy-tailed law, builds the plug-in estimate and
its delta-method confidence interval, and shows the count-file round trip
used by the `gse estimate` command.

Run:
    python demos/estimate_from_sample.py
"""

import tempfile
from pathlib import Path

from gsentropy import (
    Zeta,
    confidence_interval,
    gse_analytic,
    gse_estimate,
    read_counts_csv,
    sample,
    write_counts_csv,
)

dist = Zeta(1.5)
truth = gse_analytic(dist, 2)
print(f"source: zeta(s=1.5), true H_2 = {truth:.6f}")

print()
print("one sample per row, growing n, 95% intervals:")
print("     n   observed  H_hat_2   sigma_hat   interval            covers?")
for n in (100, 1_000, 10_000, 100_000):
    counts = sample(dist, n, seed=2027 + n)
    est = gse_estimate(counts, 2)
    ci = confidence_interval(est, alpha=0.05)
    covers = "yes" if ci.contains(truth) else "NO"
    print(f"{n:7d}   {est.support_observed:5d}    {est.h_hat:.6f}  {est.sigma_hat:.6f}"
          f"   [{ci.lower:.4f}, {ci.upper:.4f}]   {covers}")

print()
print("count-file round trip (the `gse estimate` input format):")
counts = sample(dist, 5_000, seed=99)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "counts.csv"
    write_counts_csv(counts, path)
    again, _ = read_counts_csv(path, labels=False)
    est_a = gse_estimate(counts, 2)
    est_b = gse_estimate(again, 2)
    print(f"  wrote {counts.counts.size} categories to {path.name}; "
          f"re-ingested H_hat matches: {est_a.h_hat == est_b.h_hat}")

print()
print("degenerate corner: a sample that is empirically uniform has")
print("sigma_hat = 0, so the interval collapses to a point and is flagged:")
from gsentropy import SampleCounts  # noqa: E402

flat = SampleCounts([1, 2, 3], [5, 5, 5])
ci = confidence_interval(gse_estimate(flat, 2), alpha=0.05)
print(f"  counts 5/5/5 -> interval [{ci.lower:.6f}, {ci.upper:.6f}], "
      f"degenerate = {ci.degenerate}")
