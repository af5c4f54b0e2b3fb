"""Independent verification machinery for the estimation layer.

Three routes to the same asymptotic variance are kept deliberately
separate so they can check one another:

  1. the closed-form series implemented in ``estimation.sigma_sq_true``;
  2. the delta-method quadratic form grad^T Sigma grad built here from the
     analytic gradient and the explicit multinomial covariance;
  3. the Monte Carlo Var[sqrt(n) (H_hat_m - H_m)] of the coverage engine's replicates.

The gradient itself is double-checked against central finite differences
on the simplex.  ``run_verification`` bundles all of it into the report
behind the command-line ``verify`` subcommand, in one pass over (order,
pmf): each order's finite differences, and the corpus's closed-form
variances, come from one call of the segment kernel in ``distributions``,
and each (order, pmf) from one run of the oracles' own weight pass,
``_collision_weights``.  The corpus is valid by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    AnalyticDistribution,
    CustomFinite,
    _check_order,
    _count,
    collision_log_weights,
    h_sigma_sq,
)
from .coverage import _replicate_estimates
from .entropy import as_pmf, gse_analytic
from .estimation import sigma_sq_literal, sigma_sq_true

DEFAULT_CORPUS_SEED = 20260810
DEFAULT_CORPUS_SIZE = 100
DEFAULT_FD_STEP = 1e-6
CORPUS_K_MIN = 2
CORPUS_K_MAX = 12
CORPUS_MIN_PROB = 0.01


def _positive_pmf(pmf) -> CustomFinite:
    pmf = as_pmf(pmf)
    if pmf.size < 2:
        raise ValueError("gradient oracles need at least two categories")
    if np.any(pmf.probs <= 0.0):
        raise ValueError("gradient oracles require strictly positive probabilities")
    return pmf


def _collision_weights(p: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(ln q, m q / p, H) of a strictly positive p at order m; H is an np.dot."""
    w = m * np.log(p)
    w -= w.max()
    log_q = w - np.log(np.sum(np.exp(w)))
    q = np.exp(log_q)
    return log_q, m * q / p, float(-np.dot(q, log_q))


def _free_gradient(log_q: np.ndarray, ratio: np.ndarray, h: float) -> np.ndarray:
    """The K-1 free partial derivatives from one _collision_weights pass."""
    return (log_q[-1] - log_q[:-1]) * ratio[:-1] - (ratio[:-1] - ratio[-1]) * (h + log_q[-1])


def _quadratic_form(p: np.ndarray, g: np.ndarray) -> float:
    """g^T Sigma g with the explicit (K-1)x(K-1) multinomial covariance of p."""
    v = p[:-1]
    cov = np.diag(v) - np.outer(v, v)
    return float(g @ cov @ g)


def analytic_gradient(pmf, m: int) -> np.ndarray:
    """Partial derivatives of the order-m entropy in the K-1 free coordinates.

    The last category absorbs the simplex constraint (p_K = 1 - sum).  For
    free index i:

        dH/dp_i = (ln q_K - ln q_i) m q_i / p_i
                  - m (q_i / p_i - q_K / p_K) (H + ln q_K).
    """
    pmf = _positive_pmf(pmf)
    return _free_gradient(*_collision_weights(pmf.probs, _check_order(m)))


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
    return _quadratic_form(pmf.probs, analytic_gradient(pmf, m))


def mc_variance_oracle(dist: AnalyticDistribution, m: int, n: int, reps: int, seed: int) -> float:
    """Empirical variance of sqrt(n) (plug-in - true) over seeded replicates.

    Replicate r draws with the derived seed (seed, r), in the coverage engine's blocks.
    """
    n = _count(n, "sample size n", 1)
    reps = _count(reps, "replicate count reps", 1)
    if reps < 100:
        raise ValueError("need at least 100 replicates for a meaningful variance")
    h_true = gse_analytic(dist, m)
    h_hat = np.concatenate([h for h, _ in _replicate_estimates(dist, m, n, reps, seed)])
    return float(np.var(np.sqrt(float(n)) * (h_hat - h_true), ddof=1))


# ---------------------------------------------------------------------------
# fixed-seed corpus and the bundled verification report
# ---------------------------------------------------------------------------


def pmf_corpus(seed: int = DEFAULT_CORPUS_SEED, size: int = DEFAULT_CORPUS_SIZE) -> list[CustomFinite]:
    """Reproducible corpus of random interior simplex points.

    Each pmf has CORPUS_K_MIN to CORPUS_K_MAX categories.  Draws whose
    smallest entry falls below CORPUS_MIN_PROB are rejected, so finite
    differences stay inside the simplex and 1/p_k terms stay well
    conditioned.
    """
    size = _count(size, "corpus size", 1)
    rng = np.random.default_rng(_count(seed, "corpus seed", 0))
    corpus: list[CustomFinite] = []
    while len(corpus) < size:
        k = int(rng.integers(CORPUS_K_MIN, CORPUS_K_MAX + 1))
        p = rng.dirichlet(np.full(k, 2.0))
        if p.min() >= CORPUS_MIN_PROB:
            corpus.append(CustomFinite(p))
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
    sigma_sq = _sigma_sq_sweeps(probs, {1, 2, *m_values})

    # one weight pass per (order, pmf) gives the gradient against the finite
    # differences, the quadratic form against the series sigma^2, and the full
    # gradient's mean-zero sum; a max does not depend on the loop order
    worst_fd = worst_quad = worst_mean = 0.0
    for m in m_values:
        for p, f, direct in zip(probs, _fd_gradients(probs, m, DEFAULT_FD_STEP), sigma_sq[m]):
            log_q, ratio, h = _collision_weights(p, m)
            a = _free_gradient(log_q, ratio, h)
            gap = np.abs(a - f) / np.maximum(1.0, 1e2 * np.abs(a))
            worst_fd = max(worst_fd, float(gap.max()))
            quad = _quadratic_form(p, a)
            worst_quad = max(worst_quad, abs(direct - quad) / max(abs(quad), 1e-30))
            worst_mean = max(worst_mean, abs(float(np.dot(p, -ratio * (log_q + h)))))

    # m = 1 must reduce to the classical plug-in entropy variance
    worst_m1 = 0.0
    for p, direct in zip(probs, sigma_sq[1]):
        log_p = np.log(p)
        classical = float(np.dot(p, log_p**2) - np.dot(p, log_p) ** 2)
        worst_m1 = max(worst_m1, abs(direct - classical))

    # diagnostic: the inside-the-square weighting disagrees on non-uniform pmfs
    disagreements = non_uniform = 0
    for pmf, corrected in zip(corpus, sigma_sq[2]):
        if np.ptp(pmf.probs) <= 1e-12:
            continue
        non_uniform += 1
        literal = sigma_sq_literal(pmf, 2)
        if abs(literal - corrected) > 1e-8 * max(corrected, 1e-30):
            disagreements += 1
    probe = np.array([0.3, 0.7])
    example = f"corrected {sigma_sq_true(probe, 2):.6f} vs literal {sigma_sq_literal(probe, 2):.6f}"

    return VerificationReport(corpus_seed, corpus_size, m_values, (
        CheckResult("gradient vs finite differences (tol max(1e-6, 1e-4|g|))",
                    worst_fd <= 1e-6, f"worst normalized gap {worst_fd:.3e}"),
        CheckResult("variance series vs delta-method quadratic form (rel tol 1e-8)",
                    worst_quad <= 1e-8, f"worst relative gap {worst_quad:.3e}"),
        CheckResult("m=1 reduction to sum p ln^2 p - H^2 (abs tol 1e-12)",
                    worst_m1 <= 1e-12, f"worst absolute gap {worst_m1:.3e}"),
        CheckResult("mean-zero identity sum p_k g_k = 0 (abs tol 1e-12)",
                    worst_mean <= 1e-12, f"worst absolute value {worst_mean:.3e}"),
        CheckResult("diagnostic: inside-the-square weighting disagrees everywhere non-uniform",
                    disagreements == non_uniform,
                    f"{disagreements}/{non_uniform} corpus pmfs disagree; example (0.3,0.7) m=2: {example}"),
    ))
