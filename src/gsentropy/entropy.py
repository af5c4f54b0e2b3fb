"""Collision-conditioned distributions and their Shannon entropy.

Conditioning an iid m-tuple on the event that all m draws collide induces
the distribution q_k = p_k^m / sum_i p_i^m.  Its Shannon entropy (the
order-m generalized entropy) is finite for every distribution once m >= 2,
which is the whole point: plain Shannon entropy is not.  Explicit pmfs go
through ``distributions.collision_log_weights``, and analytic distributions
supply their own H_m: the functions here validate the order, then delegate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import AnalyticDistribution, CustomFinite, _check_order, collision_log_weights


@dataclass(frozen=True)
class CdotcPmf:
    """The order-m collision-conditioned distribution of a finite pmf.

    ``collision_mass`` is the probability sum p_i^m of total collision
    before conditioning (it may underflow to 0.0 for extreme inputs; the
    conditioned probabilities themselves never do).
    """

    m: int
    pmf: CustomFinite
    collision_mass: float


def as_pmf(p) -> CustomFinite:
    """Coerce an array-like probability vector into a validated CustomFinite."""
    return p if isinstance(p, CustomFinite) else CustomFinite(p)


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
    return CdotcPmf(m, CustomFinite(q), math.exp(log_mass[0]))


def gse(pmf, m: int) -> float:
    """Order-m generalized entropy -sum q_k ln q_k of a finite pmf."""
    return as_pmf(pmf).h_m(_check_order(m))[0]


def shannon_entropy(target) -> float:
    """Shannon entropy -sum p_k ln p_k (natural log, 0 ln 0 = 0).

    For Zeta the series are summed by power_log_series; a series that
    cannot be summed raises NonConvergenceError rather than returning
    a silently truncated number.  Any target that is not a distribution is
    taken as an explicit probability vector.
    """
    if not isinstance(target, AnalyticDistribution):
        target = CustomFinite(target)
    return gse_analytic(target, 1)


def gse_analytic(dist: AnalyticDistribution, m: int) -> float:
    """Order-m generalized entropy of an analytic distribution."""
    value, _ = gse_analytic_info(dist, m)
    return value


def gse_analytic_info(dist: AnalyticDistribution, m: int) -> tuple[float, int]:
    """(entropy value, number of series terms summed).

    The closed forms report 0 terms for Geometric and K for UniformFinite."""
    return dist.h_m(_check_order(m))
