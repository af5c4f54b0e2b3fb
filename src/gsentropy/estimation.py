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

while the form above reduces to it exactly.  Summation over observed
categories runs in descending-count order (ties carry equal terms) so
results are reproducible at the 1e-12 level across platforms.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from .distributions import (
    DiscretePmf,
    Geometric,
    SampleCounts,
    UniformFinite,
    Zeta,
    finite_pmf,
    is_finite_support,
    power_log_series,
    riemann_zeta,
)
from .entropy import (
    DEFAULT_EPS,
    _check_order,
    _shifted_log_weights,
    _zeta_collision_entropy,
    as_pmf,
)


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
    """Sample proportions Y_k / n over the observed support.

    The vector is ordered by descending count then ascending category label
    (the fixed summation order); original labels ride along in ``labels``.
    """
    items = sorted(counts.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if not items:
        raise ValueError("empty sample counts")
    labels = tuple(category for category, _ in items)
    probs = np.array([count for _, count in items], dtype=np.float64) / counts.n
    return DiscretePmf(probs, labels=labels)


def _h_sigma_sq(p: np.ndarray, m: int) -> tuple[float, float]:
    """(H_m, sigma_m^2) of a strictly positive pmf in one shifted log-weight pass."""
    w = m * np.log(p)
    w -= w.max()
    log_norm = float(np.log(np.sum(np.exp(w))))
    log_q = w - log_norm
    q = np.exp(log_q)
    h = float(log_norm - np.dot(q, w))
    g = -(m * q / p) * (log_q + h)
    return h, float(np.dot(p, g * g))


def _plugin_h_sigma_sq(counts: np.ndarray, n: int, m: int) -> tuple[float, float]:
    """(H_hat_m, sigma_hat_m^2) from the strictly positive counts of a size-n sample."""
    return _h_sigma_sq(np.sort(counts)[::-1] / n, m)


def gse_plugin(counts: SampleCounts, m: int) -> float:
    """Plug-in estimate: exact order-m entropy of the empirical pmf.

    Unobserved categories contribute nothing (0 ln 0 = 0)."""
    return gse_estimate(counts, m).h_hat


def sigma_sq_true(target, m: int, eps: float = DEFAULT_EPS) -> float:
    """Asymptotic variance of sqrt(n) (H_hat_m - H_m) at the given distribution.

    Accepts an explicit pmf (array-like or DiscretePmf) or an analytic
    distribution; Zeta is evaluated to tolerance eps, the others exactly.
    """
    m = _check_order(m)
    if isinstance(target, Zeta):
        return _sigma_sq_zeta(target.s, m, eps)
    if isinstance(target, Geometric):
        return _sigma_sq_geometric(target.q, m)
    if isinstance(target, UniformFinite):
        return 0.0
    p = (finite_pmf(target) if is_finite_support(target) else as_pmf(target)).probs
    return _h_sigma_sq(p[p > 0.0], m)[1]


def _sigma_sq_zeta(s: float, m: int, eps: float) -> float:
    """Closed-form expansion over the series S_j(a) = sum k^{-a} ln^j k.

    With t = m s, q_k = k^{-t}/zeta(t) and c = H_m - ln zeta(t):
    sigma^2 = (m^2 zeta(s)/zeta(t)^2) [c^2 S_0(a) - 2 c t S_1(a) + t^2 S_2(a)],
    where a = 2t - s > 1.
    """
    t = m * s
    a = 2.0 * t - s
    tol = min(eps * 1e-3, 1e-13)
    h, _ = _zeta_collision_entropy(s, m, min(eps * 1e-2, 1e-12))
    z_s = riemann_zeta(s, tol)
    z_t = riemann_zeta(t, tol)
    c = h - math.log(z_t)
    s0 = power_log_series(a, 0, tol)
    s1 = power_log_series(a, 1, tol)
    s2 = power_log_series(a, 2, tol)
    return (m * m * z_s / z_t**2) * (c * c * s0 - 2.0 * c * t * s1 + t * t * s2)


def _sigma_sq_geometric(q: float, m: int) -> float:
    """sum_k p_k g_k^2 summed in closed form over j = k - 1 >= 0 (terms x^j (j - rho/h)^2).

    With rho = (1-q)^m, h = 1 - rho, x = (1-q)^(2m-1) and ratio = h / (1 - x):
    m^2 (ln rho / q) (ln rho / (1 - x)) [(rho - x ratio)^2 + x ratio^2].  No
    factor overflows or cancels as q -> 0, and 1 - x comes from expm1."""
    log_r = math.log1p(-q)
    log_rho = m * log_r
    log_x = (2 * m - 1) * log_r
    one = -math.expm1(log_x)
    x = math.exp(log_x)
    ratio = -math.expm1(log_rho) / one
    bracket = (math.exp(log_rho) - x * ratio) ** 2 + x * ratio * ratio
    return m * m * (log_rho / q) * (log_rho / one) * bracket


def sigma_sq_literal(pmf, m: int) -> float:
    """Diagnostic only: the per-term weight m^2/p_k moved inside the square.

    Disagrees with the delta-method variance on every non-uniform pmf and
    diverges from the classical formula at m = 1; kept so the discrepancy
    can be demonstrated, never used for inference.
    """
    pmf = as_pmf(pmf)
    m = _check_order(m)
    p = pmf.probs
    mask, w, log_norm = _shifted_log_weights(p, m)
    q = np.exp(w - log_norm)
    log_q = w - log_norm
    h = float(log_norm - np.dot(q, w))
    inner = (m * m / p[mask]) * q * (log_q + h)
    return float(np.sum(inner * inner))


def sigma_hat_sq(counts: SampleCounts, m: int) -> float:
    """Plug-in variance estimate over observed categories only.

    Zero-count categories vanish in the continuity limit (each term is
    O(p^{2m-1} ln^2 p)), which is the only finite computable reading.
    """
    return _plugin_h_sigma_sq(np.array([*counts.counts.values()]), counts.n, _check_order(m))[1]


def gse_estimate(counts: SampleCounts, m: int) -> GseEstimate:
    """Point estimate plus estimated asymptotic spread for one sample."""
    m = _check_order(m)
    h_hat, sigma_sq = _plugin_h_sigma_sq(np.array([*counts.counts.values()]), counts.n, m)
    return GseEstimate(m=m, n=counts.n, h_hat=h_hat, sigma_hat=math.sqrt(sigma_sq),
                       support_observed=len(counts.counts))


# ---------------------------------------------------------------------------
# standard normal quantile
# ---------------------------------------------------------------------------

# rational approximation coefficients (central region and tails)
_Q_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
        1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_Q_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
        6.680131188771972e01, -1.328068155288572e01)
_Q_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
        -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_Q_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
        3.754408661907416e00)
_Q_SPLIT = 0.02425


def normal_quantile(p: float) -> float:
    """Inverse standard normal cdf, absolute error well below 1e-9.

    Rational approximation refined by one Halley step on erfc, so no
    statistical table is involved.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"quantile argument must lie in (0, 1), got {p!r}")
    if p < _Q_SPLIT:
        u = math.sqrt(-2.0 * math.log(p))
        x = ((((( _Q_C[0] * u + _Q_C[1]) * u + _Q_C[2]) * u + _Q_C[3]) * u + _Q_C[4]) * u + _Q_C[5]) / \
            ((((_Q_D[0] * u + _Q_D[1]) * u + _Q_D[2]) * u + _Q_D[3]) * u + 1.0)
    elif p > 1.0 - _Q_SPLIT:
        u = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((( _Q_C[0] * u + _Q_C[1]) * u + _Q_C[2]) * u + _Q_C[3]) * u + _Q_C[4]) * u + _Q_C[5]) / \
             ((((_Q_D[0] * u + _Q_D[1]) * u + _Q_D[2]) * u + _Q_D[3]) * u + 1.0)
    else:
        u = p - 0.5
        r = u * u
        x = ((((( _Q_A[0] * r + _Q_A[1]) * r + _Q_A[2]) * r + _Q_A[3]) * r + _Q_A[4]) * r + _Q_A[5]) * u / \
            (((((_Q_B[0] * r + _Q_B[1]) * r + _Q_B[2]) * r + _Q_B[3]) * r + _Q_B[4]) * r + 1.0)
    # Halley refinement: e = Phi(x) - p, Phi via erfc
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


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


def _encode_labels(label_counts: Mapping[str, int]) -> tuple[SampleCounts, dict[int, str]]:
    positive = {label: count for label, count in label_counts.items() if count > 0}
    if not positive:
        raise ValueError("no observations: all counts are zero or the file is empty")
    labels = sorted(positive)
    codes = {code: label for code, label in enumerate(labels, start=1)}
    counts = {code: positive[label] for code, label in codes.items()}
    return SampleCounts(counts, sum(counts.values())), codes


def read_counts_csv(path: Union[str, Path]) -> tuple[SampleCounts, dict[int, str]]:
    """Read a `category,count` CSV; labels are mapped to integer codes 1..K.

    Returns the canonical counts plus the code -> original label map.
    Duplicate labels are aggregated; zero-count rows are dropped.
    """
    label_counts: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(h.strip().lower() for h in header) != COUNTS_HEADER:
            raise ValueError(f"expected header 'category,count' in {path}")
        for row_number, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{row_number}: expected two columns, got {len(row)}")
            label = row[0].strip()
            try:
                count = int(row[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{row_number}: count {row[1]!r} is not an integer") from exc
            if count < 0:
                raise ValueError(f"{path}:{row_number}: negative count {count}")
            label_counts[label] = label_counts.get(label, 0) + count
    return _encode_labels(label_counts)


def read_raw_labels(path: Union[str, Path]) -> tuple[SampleCounts, dict[int, str]]:
    """Read one observation label per line (blank lines are skipped)."""
    label_counts: dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            label = line.strip()
            if label:
                label_counts[label] = label_counts.get(label, 0) + 1
    return _encode_labels(label_counts)


def write_counts_csv(counts: SampleCounts, path: Union[str, Path],
                     labels: Mapping[int, str] | None = None) -> None:
    """Write counts as `category,count`; re-ingesting reproduces the estimates."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(COUNTS_HEADER)
        for category, count in sorted(counts.counts.items()):
            name = labels[category] if labels is not None else str(category)
            writer.writerow([name, count])
