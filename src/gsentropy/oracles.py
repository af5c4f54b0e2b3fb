"""Independent verification machinery for the estimation layer.

Three routes to the same asymptotic variance are kept deliberately
separate so they can check one another:

  1. the closed-form series implemented in ``estimation.sigma_sq_true``;
  2. the delta-method quadratic form grad^T Sigma grad built here from the
     analytic gradient and the explicit multinomial covariance;
  3. a Monte Carlo estimate of Var[sqrt(n) (H_hat_m - H_m)].

The gradient itself is double-checked against central finite differences
on the simplex.  ``run_verification`` bundles all of it into the report
behind the command-line ``verify`` subcommand.  It takes each order's finite
differences, and the corpus's closed-form variances, from one call of the
segment kernel in ``distributions`` with a segment a vector; a segment's
values have the bits of a lone ``gse`` or ``sigma_sq_true`` call on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    AnalyticDistribution,
    DiscretePmf,
    _check_order,
    _count,
    collision_log_weights,
    derive_seed,
    h_sigma_sq,
    sample,
)
from .entropy import as_pmf, gse_analytic
from .estimation import gse_plugin, sigma_sq_literal, sigma_sq_true

DEFAULT_CORPUS_SEED = 20260810
DEFAULT_CORPUS_SIZE = 100
DEFAULT_FD_STEP = 1e-6


def _positive_pmf(pmf) -> DiscretePmf:
    pmf = as_pmf(pmf)
    if pmf.size < 2:
        raise ValueError("gradient oracles need at least two categories")
    if np.any(pmf.probs <= 0.0):
        raise ValueError("gradient oracles require strictly positive probabilities")
    return pmf


def analytic_gradient(pmf, m: int) -> np.ndarray:
    """Partial derivatives of the order-m entropy in the K-1 free coordinates.

    The last category absorbs the simplex constraint (p_K = 1 - sum).  For
    free index i:

        dH/dp_i = (ln q_K - ln q_i) m q_i / p_i
                  - m (q_i / p_i - q_K / p_K) (H + ln q_K).
    """
    pmf = _positive_pmf(pmf)
    m = _check_order(m)
    p = pmf.probs
    w = m * np.log(p)
    w -= w.max()
    log_norm = np.log(np.sum(np.exp(w)))
    log_q = w - log_norm
    q = np.exp(log_q)
    h = float(-np.dot(q, log_q))
    ratio = m * q / p
    return (log_q[-1] - log_q[:-1]) * ratio[:-1] - (ratio[:-1] - ratio[-1]) * (h + log_q[-1])


def _fd_gradients(ps: list[np.ndarray], m: int, h: float) -> list[np.ndarray]:
    """Central differences (H+ - H-) / (2h) of every probability vector in ps.

    Row i of a vector's block moves p_i by +h and row K-1+i by -h, and p_K
    absorbs each move.  All rows are segments of one collision_log_weights
    call, so each H has the bits of a lone gse call on that row.  Every row
    must lie in the open simplex, as fd_gradient checks.
    """
    blocks = []
    for p in ps:
        free = p.size - 1
        rows = np.arange(2 * free)
        step = np.repeat([h, -h], free)
        block = np.tile(p, (2 * free, 1))
        block[rows, rows % free] += step
        block[:, -1] -= step
        blocks.append(block.ravel())
    sizes = np.array([p.size for p in ps])
    row_sizes = np.repeat(sizes, 2 * (sizes - 1))
    starts = np.concatenate(([0], np.cumsum(row_sizes[:-1])))
    entropies = collision_log_weights(np.concatenate(blocks), m, starts)[2]
    return [(e[: e.size // 2] - e[e.size // 2:]) / (2.0 * h)
            for e in np.split(entropies, np.cumsum(2 * (sizes - 1))[:-1])]


def fd_gradient(pmf, m: int, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central finite differences of gse along the free coordinates.

    Each step moves p_i by +/-h and lets p_K absorb the change; steps that
    would leave the open simplex are a domain error.
    """
    pmf = _positive_pmf(pmf)
    m = _check_order(m)
    if not (h > 0.0):
        raise ValueError("step size must be positive")
    p = pmf.probs
    if np.any(p[:-1] + h >= 1.0) or np.any(p[:-1] - h <= 0.0) or p[-1] - h <= 0.0:
        raise ValueError(f"step {h} leaves the simplex for {p}")
    return _fd_gradients([p], m, h)[0]


def delta_variance_oracle(pmf, m: int) -> float:
    """grad^T Sigma grad with the explicit (K-1)x(K-1) multinomial covariance."""
    pmf = _positive_pmf(pmf)
    g = analytic_gradient(pmf, m)
    v = pmf.probs[:-1]
    cov = np.diag(v) - np.outer(v, v)
    return float(g @ cov @ g)


def mc_variance_oracle(dist: AnalyticDistribution, m: int, n: int, reps: int, seed: int) -> float:
    """Empirical variance of sqrt(n) (plug-in - true) over seeded replicates.

    Replicate r draws with the derived seed (seed, r).
    """
    if reps < 100:
        raise ValueError("need at least 100 replicates for a meaningful variance")
    h_true = gse_analytic(dist, m)
    scale = np.sqrt(float(n))
    values = np.empty(reps)
    for r in range(reps):
        counts = sample(dist, n, derive_seed(seed, r))
        values[r] = scale * (gse_plugin(counts, m) - h_true)
    return float(np.var(values, ddof=1))


# ---------------------------------------------------------------------------
# fixed-seed corpus and the bundled verification report
# ---------------------------------------------------------------------------


def pmf_corpus(seed: int = DEFAULT_CORPUS_SEED, size: int = DEFAULT_CORPUS_SIZE,
               k_min: int = 2, k_max: int = 12, min_prob: float = 0.01) -> list[DiscretePmf]:
    """Reproducible corpus of random interior simplex points.

    Draws whose smallest entry falls below ``min_prob`` are rejected, so
    finite differences stay inside the simplex and 1/p_k terms stay well
    conditioned.
    """
    size = _count(size, "corpus size", 1)
    rng = np.random.default_rng(seed)
    corpus: list[DiscretePmf] = []
    while len(corpus) < size:
        k = int(rng.integers(k_min, k_max + 1))
        p = rng.dirichlet(np.full(k, 2.0))
        if p.min() >= min_prob:
            corpus.append(DiscretePmf(p))
    return corpus


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    corpus_seed: int
    corpus_size: int
    m_values: tuple[int, ...]
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def _sigma_sq_sweeps(probs: list[np.ndarray], orders) -> dict[int, list[float]]:
    """sigma_m^2 of every vector in probs at each order, from one h_sigma_sq
    call an order with a segment a vector; each value has the bits of a lone
    sigma_sq_true call."""
    flat = np.concatenate(probs)
    starts = np.cumsum([0] + [p.size for p in probs[:-1]])
    return {m: h_sigma_sq(flat, m, starts)[1].tolist() for m in orders}


def run_verification(corpus_seed: int = DEFAULT_CORPUS_SEED,
                     corpus_size: int = DEFAULT_CORPUS_SIZE,
                     m_values: tuple[int, ...] = (1, 2, 3, 4)) -> VerificationReport:
    """Run the oracle battery on a fixed-seed corpus and report per-invariant results."""
    m_values = tuple(map(_check_order, m_values))
    if not m_values:  # no order would pass every check vacuously
        raise ValueError("m_values must hold at least one order")
    corpus = pmf_corpus(seed=corpus_seed, size=corpus_size)
    probs = [pmf.probs for pmf in corpus]
    checks: list[CheckResult] = []

    # analytic gradient vs central finite differences, one kernel sweep an order
    worst = 0.0
    for m in m_values:
        for pmf, f in zip(corpus, _fd_gradients(probs, m, DEFAULT_FD_STEP)):
            a = analytic_gradient(pmf, m)
            gap = np.abs(a - f) / np.maximum(1.0, 1e2 * np.abs(a))
            worst = max(worst, float(gap.max()))
    checks.append(CheckResult(
        "gradient vs finite differences (tol max(1e-6, 1e-4|g|))",
        worst <= 1e-6, f"worst normalized gap {worst:.3e}"))

    sigma_sq = _sigma_sq_sweeps(probs, {1, 2, *m_values})

    # closed-form variance vs delta-method quadratic form
    worst = 0.0
    for m in m_values:
        for pmf, direct in zip(corpus, sigma_sq[m]):
            quad = delta_variance_oracle(pmf, m)
            worst = max(worst, abs(direct - quad) / max(abs(quad), 1e-30))
    checks.append(CheckResult(
        "variance series vs delta-method quadratic form (rel tol 1e-8)",
        worst <= 1e-8, f"worst relative gap {worst:.3e}"))

    # m = 1 must reduce to the classical plug-in entropy variance
    worst = 0.0
    for p, direct in zip(probs, sigma_sq[1]):
        log_p = np.log(p)
        classical = float(np.dot(p, log_p**2) - np.dot(p, log_p) ** 2)
        worst = max(worst, abs(direct - classical))
    checks.append(CheckResult(
        "m=1 reduction to sum p ln^2 p - H^2 (abs tol 1e-12)",
        worst <= 1e-12, f"worst absolute gap {worst:.3e}"))

    # gradient mean-zero identity sum_k p_k g_k = 0
    worst = 0.0
    for pmf in corpus:
        for m in m_values:
            p = pmf.probs
            w = m * np.log(p)
            w -= w.max()
            log_q = w - np.log(np.sum(np.exp(w)))
            q = np.exp(log_q)
            h = float(-np.dot(q, log_q))
            g = -(m * q / p) * (log_q + h)
            worst = max(worst, abs(float(np.dot(p, g))))
    checks.append(CheckResult(
        "mean-zero identity sum p_k g_k = 0 (abs tol 1e-12)",
        worst <= 1e-12, f"worst absolute value {worst:.3e}"))

    # diagnostic: the inside-the-square weighting disagrees on non-uniform pmfs
    disagreements = 0
    non_uniform = 0
    for pmf, corrected in zip(corpus, sigma_sq[2]):
        if np.ptp(pmf.probs) <= 1e-12:
            continue
        non_uniform += 1
        literal = sigma_sq_literal(pmf, 2)
        if abs(literal - corrected) > 1e-8 * max(corrected, 1e-30):
            disagreements += 1
    probe = np.array([0.3, 0.7])
    checks.append(CheckResult(
        "diagnostic: inside-the-square weighting disagrees everywhere non-uniform",
        disagreements == non_uniform,
        f"{disagreements}/{non_uniform} corpus pmfs disagree; example (0.3,0.7) m=2: "
        f"corrected {sigma_sq_true(probe, 2):.6f} vs literal {sigma_sq_literal(probe, 2):.6f}"))

    return VerificationReport(corpus_seed, corpus_size, m_values, tuple(checks))
