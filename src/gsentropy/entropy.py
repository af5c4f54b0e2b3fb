"""Collision-conditioned distributions and their Shannon entropy.

Conditioning an iid m-tuple on the event that all m draws collide induces
the distribution q_k = p_k^m / sum_i p_i^m.  Its Shannon entropy (the
order-m generalized entropy) is finite for every distribution once m >= 2,
which is the whole point: plain Shannon entropy is not.

Geometric and UniformFinite values are exact closed forms, with no series
and no vector: the m-collision law of Geometric(q) is Geometric(1 - (1-q)^m),
and a uniform law stays uniform.

All log-space computations use a shared exponent-shift so that orders up to
at least m = 10 and probabilities down to 1e-300 neither underflow nor lose
the exact cancellations that make uniform inputs come out exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    AnalyticDistribution,
    CustomFinite,
    DiscretePmf,
    Geometric,
    UniformFinite,
    Zeta,
    power_log_series,
    series_terms_needed,
)

DEFAULT_EPS = 1e-10


@dataclass(frozen=True)
class CdotcPmf:
    """The order-m collision-conditioned distribution of a finite pmf.

    ``collision_mass`` is the probability sum p_i^m of total collision
    before conditioning (it may underflow to 0.0 for extreme inputs; the
    conditioned probabilities themselves never do).
    """

    m: int
    pmf: DiscretePmf
    collision_mass: float


def as_pmf(p) -> DiscretePmf:
    """Coerce an array-like probability vector into a validated DiscretePmf."""
    if isinstance(p, DiscretePmf):
        return p
    return DiscretePmf(np.asarray(p, dtype=np.float64))


def _check_order(m: int) -> int:
    if int(m) != m or m < 1:
        raise ValueError(f"collision order m must be an integer >= 1, got {m!r}")
    return int(m)


def _shifted_log_weights(p: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(positive mask, m*ln(p) - max over support, ln of the shifted sum)."""
    mask = p > 0.0
    w = m * np.log(p[mask])
    w -= w.max()
    log_norm = float(np.log(np.sum(np.exp(w))))
    return mask, w, log_norm


def cdotc(pmf, m: int) -> CdotcPmf:
    """Condition on total collision of m iid draws: q_k = p_k^m / sum p_i^m."""
    pmf = as_pmf(pmf)
    m = _check_order(m)
    if m == 1:
        return CdotcPmf(1, pmf, 1.0)
    mask, w, log_norm = _shifted_log_weights(pmf.probs, m)
    q = np.zeros_like(pmf.probs)
    q[mask] = np.exp(w - log_norm)
    shift = float((m * np.log(pmf.probs[mask])).max())
    return CdotcPmf(m, DiscretePmf(q, labels=pmf.labels), math.exp(shift + log_norm))


def gse(pmf, m: int) -> float:
    """Order-m generalized entropy -sum q_k ln q_k of a finite pmf.

    Uses the identity H = ln W - sum q_k w_k with shifted weights w, which
    keeps uniform inputs exactly at ln K and never underflows.
    """
    pmf = as_pmf(pmf)
    m = _check_order(m)
    mask, w, log_norm = _shifted_log_weights(pmf.probs, m)
    q = np.exp(w - log_norm)
    return float(log_norm - np.dot(q, w))


def shannon_entropy(target, eps: float = DEFAULT_EPS) -> float:
    """Shannon entropy -sum p_k ln p_k (natural log, 0 ln 0 = 0).

    For analytic distributions the series is evaluated to tolerance eps;
    a tail too heavy to evaluate raises NonConvergenceError rather than
    returning a silently truncated number.
    """
    if isinstance(target, (Zeta, Geometric, UniformFinite, CustomFinite)):
        return gse_analytic(target, 1, eps)
    return gse(as_pmf(target), 1)


def gse_analytic(dist: AnalyticDistribution, m: int, eps: float = DEFAULT_EPS) -> float:
    """Order-m generalized entropy of an analytic distribution, within eps."""
    value, _ = gse_analytic_info(dist, m, eps)
    return value


def gse_analytic_info(dist: AnalyticDistribution, m: int, eps: float = DEFAULT_EPS) -> tuple[float, int]:
    """(entropy value within eps, number of series terms summed).

    The closed forms report 0 terms for Geometric and K for UniformFinite."""
    m = _check_order(m)
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    if isinstance(dist, Zeta):
        return _zeta_collision_entropy(dist.s, m, eps)
    if isinstance(dist, Geometric):
        # H_m = -ln h - rho ln(rho) / h, h = 1 - rho, rho = (1-q)^m, from
        # log1p and expm1 so that no digit is lost as q -> 0
        log_rho = m * math.log1p(-dist.q)
        h = -math.expm1(log_rho)
        return -math.log(h) - math.exp(log_rho) * (log_rho / h), 0
    if isinstance(dist, UniformFinite):
        # np.log, not math.log: the two can differ in the last bit, and a
        # degenerate interval covers only a truth equal to the kernel's ln K
        return float(np.log(float(dist.K))), dist.K
    if isinstance(dist, CustomFinite):
        return gse(dist.pmf, m), dist.pmf.size
    raise TypeError(f"not an analytic distribution: {dist!r}")


def _zeta_collision_entropy(s: float, m: int, eps: float) -> tuple[float, int]:
    """H_m for Zeta(s) from its closed-form structure q_k = k^{-t}/zeta(t), t = m s.

    H_m = ln zeta(t) + t * (sum k^{-t} ln k) / zeta(t).
    """
    t = m * s
    tol = min(eps * 0.1, 1e-13)
    z = power_log_series(t, 0, tol)
    s1 = power_log_series(t, 1, tol)
    terms = max(series_terms_needed(t, 0, tol), series_terms_needed(t, 1, tol))
    return math.log(z) + t * s1 / z, terms
