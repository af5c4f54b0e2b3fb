"""Collision-conditioned distributions and their Shannon entropy.

Conditioning an iid m-tuple on the event that all m draws collide induces
the distribution q_k = p_k^m / sum_i p_i^m.  Its Shannon entropy (the
order-m generalized entropy) is finite for every distribution once m >= 2,
which is the whole point: plain Shannon entropy is not.

Explicit pmfs go through the shared log-weight pass in ``distributions``,
whose exponent shift keeps orders up to at least m = 10 and probabilities
down to 1e-300 from underflowing and keeps uniform inputs exactly at ln K.
Analytic distributions supply their own H_m: the functions here validate the
order and tolerance, then delegate to the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import AnalyticDistribution, DiscretePmf, _check_eps, _check_order, collision_log_weights

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


def cdotc(pmf, m: int) -> CdotcPmf:
    """Condition on total collision of m iid draws: q_k = p_k^m / sum p_i^m."""
    pmf = as_pmf(pmf)
    m = _check_order(m)
    if m == 1:
        return CdotcPmf(1, pmf, 1.0)
    mask = pmf.probs > 0.0
    _, q_support, _, log_mass = collision_log_weights(pmf.probs[mask], m)
    q = np.zeros_like(pmf.probs)
    q[mask] = q_support
    return CdotcPmf(m, DiscretePmf(q), math.exp(log_mass))


def gse(pmf, m: int) -> float:
    """Order-m generalized entropy -sum q_k ln q_k of a finite pmf.

    Uses the identity H = ln W - sum q_k w_k with shifted weights w, which
    keeps uniform inputs exactly at ln K and never underflows.
    """
    p = as_pmf(pmf).probs
    return collision_log_weights(p[p > 0.0], _check_order(m))[2]


def shannon_entropy(target, eps: float = DEFAULT_EPS) -> float:
    """Shannon entropy -sum p_k ln p_k (natural log, 0 ln 0 = 0).

    For analytic distributions the series is evaluated to tolerance eps;
    a tail too heavy to evaluate raises NonConvergenceError rather than
    returning a silently truncated number.
    """
    if isinstance(target, AnalyticDistribution):
        return gse_analytic(target, 1, eps)
    return gse(as_pmf(target), 1)


def gse_analytic(dist: AnalyticDistribution, m: int, eps: float = DEFAULT_EPS) -> float:
    """Order-m generalized entropy of an analytic distribution, within eps."""
    value, _ = gse_analytic_info(dist, m, eps)
    return value


def gse_analytic_info(dist: AnalyticDistribution, m: int, eps: float = DEFAULT_EPS) -> tuple[float, int]:
    """(entropy value within eps, number of series terms summed).

    The closed forms report 0 terms for Geometric and K for UniformFinite."""
    return dist.h_m(_check_order(m), _check_eps(eps))
