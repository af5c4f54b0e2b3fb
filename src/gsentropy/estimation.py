"""Plug-in estimation of collision-order entropy with asymptotic inference.

The point estimate applies the exact entropy to the empirical distribution
p_hat_k = Y_k / n.  Its limiting variance comes from the first-order delta
method with the multinomial covariance:

    sigma_m^2 = sum_k p_k g_k^2,
    g_k = -(m q_k / p_k) (ln q_k + H_m),   q_k = p_k^m / sum p_i^m.

Equivalently sigma_m^2 = sum_k (m^2 / p_k) (q_k ln q_k + q_k H_m)^2: the
m^2/p_k factor belongs outside the square in the per-term weight, not
inside it.  The inside-the-square variant (sigma_sq_literal) is kept purely
as a diagnostic; it fails the classical m=1 cross-check

    sigma_1^2 = sum p_k ln^2 p_k - H^2

while the form above reduces to it exactly.  A sample enters only through
its counts, summed in descending-count order (tied counts carry equal terms),
so which category carries which count never changes a bit of the result.

H_m and sigma_m^2 of an explicit or empirical pmf come from the shared
log-weight pass in ``distributions``; an analytic distribution supplies its
own exact sigma_m^2.  Interval quantiles are the stdlib's ``NormalDist``.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Mapping, Union

import numpy as np

from .distributions import (
    AnalyticDistribution,
    DiscretePmf,
    SampleCounts,
    _check_eps,
    _check_order,
    collision_log_weights,
    h_sigma_sq,
)
from .entropy import DEFAULT_EPS, as_pmf


@dataclass(frozen=True)
class GseEstimate:
    """One sample's estimate bundle: order, size, point value, and spread."""

    m: int
    n: int
    h_hat: float
    sigma_hat: float
    support_observed: int


@dataclass(frozen=True)
class ConfidenceInterval:
    """Symmetric asymptotic interval; degenerate means zero width (sigma_hat = 0)."""

    lower: float
    upper: float
    level: float
    degenerate: bool

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def empirical_pmf(counts: SampleCounts) -> DiscretePmf:
    """Sample proportions Y_k / n over the observed support, in descending
    order (the fixed summation order)."""
    return DiscretePmf(np.sort(counts.counts)[::-1] / counts.n)


def _plugin_h_sigma_sq(counts: np.ndarray, n: int, m: int) -> tuple[float, float]:
    """(H_hat_m, sigma_hat_m^2) from the strictly positive counts of a size-n sample."""
    return h_sigma_sq(np.sort(counts)[::-1] / n, m)


def gse_plugin(counts: SampleCounts, m: int) -> float:
    """Plug-in estimate: exact order-m entropy of the empirical pmf.

    Unobserved categories contribute nothing (0 ln 0 = 0)."""
    return gse_estimate(counts, m).h_hat


def sigma_sq_true(target, m: int, eps: float = DEFAULT_EPS) -> float:
    """Asymptotic variance of sqrt(n) (H_hat_m - H_m) at the given distribution.

    Accepts an explicit pmf (array-like or DiscretePmf) or an analytic
    distribution; Zeta is evaluated to tolerance eps, the others exactly.
    """
    m, eps = _check_order(m), _check_eps(eps)
    if isinstance(target, AnalyticDistribution):
        return target.sigma_sq(m, eps)
    p = as_pmf(target).probs
    return h_sigma_sq(p[p > 0.0], m)[1]


def sigma_sq_literal(pmf, m: int) -> float:
    """Diagnostic only: the per-term weight m^2/p_k moved inside the square.

    Disagrees with the delta-method variance on every non-uniform pmf and
    diverges from the classical formula at m = 1; kept so the discrepancy
    can be demonstrated, never used for inference.
    """
    pmf = as_pmf(pmf)
    m = _check_order(m)
    p = pmf.probs[pmf.probs > 0.0]
    log_q, q, h, _ = collision_log_weights(p, m)
    inner = (m * m / p) * q * (log_q + h)
    return float(np.sum(inner * inner))


def sigma_hat_sq(counts: SampleCounts, m: int) -> float:
    """Plug-in variance estimate over observed categories only.

    Zero-count categories vanish in the continuity limit (each term is
    O(p^{2m-1} ln^2 p)), which is the only finite computable reading.
    """
    return _plugin_h_sigma_sq(counts.counts, counts.n, _check_order(m))[1]


def gse_estimate(counts: SampleCounts, m: int) -> GseEstimate:
    """Point estimate plus estimated asymptotic spread for one sample."""
    m = _check_order(m)
    h_hat, sigma_sq = _plugin_h_sigma_sq(counts.counts, counts.n, m)
    return GseEstimate(m=m, n=counts.n, h_hat=h_hat, sigma_hat=math.sqrt(sigma_sq),
                       support_observed=counts.counts.size)


# ---------------------------------------------------------------------------
# standard normal quantile
# ---------------------------------------------------------------------------


def normal_quantile(p: float) -> float:
    """Inverse standard normal cdf (the stdlib's NormalDist().inv_cdf)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"quantile argument must lie in (0, 1), got {p!r}")
    return NormalDist().inv_cdf(p)


def _two_sided_z(alpha: float) -> float:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    return normal_quantile(1.0 - alpha / 2.0)


def _interval(h_hat: float, sigma_hat: float, n: int, z: float, alpha: float) -> ConfidenceInterval:
    half = z * sigma_hat / math.sqrt(n)
    return ConfidenceInterval(lower=h_hat - half, upper=h_hat + half, level=1.0 - alpha,
                              degenerate=(sigma_hat == 0.0))


def confidence_interval(counts: SampleCounts, m: int, alpha: float) -> ConfidenceInterval:
    """Asymptotic (1 - alpha) interval h_hat -/+ z_{alpha/2} sigma_hat / sqrt(n).

    A sample that is empirically uniform over its support (or a single
    category) has sigma_hat = 0; the zero-width interval is reported with
    the degenerate flag set instead of being widened ad hoc.
    """
    z = _two_sided_z(alpha)
    est = gse_estimate(counts, m)
    return _interval(est.h_hat, est.sigma_hat, est.n, z, alpha)


# ---------------------------------------------------------------------------
# count-data ingestion (CSV and raw labels)
# ---------------------------------------------------------------------------

COUNTS_HEADER = ("category", "count")


def _encode_labels(label_counts: Counter) -> tuple[SampleCounts, dict[int, str]]:
    labels = sorted(label for label, count in label_counts.items() if count > 0)
    if not labels:
        raise ValueError("no observations: all counts are zero or the file is empty")
    counts = SampleCounts(np.arange(1, len(labels) + 1), [label_counts[label] for label in labels])
    return counts, dict(enumerate(labels, start=1))


def read_counts_csv(path: Union[str, Path]) -> tuple[SampleCounts, dict[int, str]]:
    """Read a `category,count` CSV; labels are mapped to integer codes 1..K.

    Returns the canonical counts plus the code -> original label map.
    Duplicate labels are aggregated; zero-count rows are dropped.
    """
    label_counts: Counter = Counter()
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None or tuple(h.strip().lower() for h in header) != COUNTS_HEADER:
                raise ValueError(f"expected header 'category,count' in {path}")
            for row_number, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise ValueError(f"{path}:{row_number}: expected two columns, got {len(row)}")
                try:
                    count = int(row[1])
                except ValueError as exc:
                    raise ValueError(f"{path}:{row_number}: count {row[1]!r} is not an integer") from exc
                if count < 0:
                    raise ValueError(f"{path}:{row_number}: negative count {count}")
                label_counts[row[0].strip()] += count
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    return _encode_labels(label_counts)


def read_raw_labels(path: Union[str, Path]) -> tuple[SampleCounts, dict[int, str]]:
    """Read one observation label per line (blank lines are skipped)."""
    with open(path, encoding="utf-8-sig") as handle:  # a leading byte-order mark is not part of a label
        label_counts = Counter(map(str.strip, handle))
    del label_counts[""]
    return _encode_labels(label_counts)


def write_counts_csv(counts: SampleCounts, path: Union[str, Path],
                     labels: Mapping[int, str] | None = None) -> None:
    """Write counts as `category,count`; re-ingesting reproduces the estimates."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(COUNTS_HEADER)
        for category, count in zip(counts.categories.tolist(), counts.counts.tolist()):
            writer.writerow([labels[category] if labels is not None else category, count])
