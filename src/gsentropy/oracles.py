"""Independent verification machinery for the estimation layer.

Three routes to the same asymptotic variance are kept deliberately
separate so they can check one another:

  1. the closed-form series implemented in ``estimation.sigma_sq_true``;
  2. the delta-method quadratic form grad^T Sigma grad built here from the
     analytic gradient and the explicit multinomial covariance;
  3. the Monte Carlo Var[sqrt(n) (H_hat_m - H_m)] of the coverage engine's replicates.

``run_verification`` runs the battery behind ``gse verify``: one pass a row
slice of each K-group of the corpus (``_row_slices``, ``_slice_pass``), every
dot a left-to-right sum along its row (``_row_dots``) with no BLAS call, so
each value has the bits of a lone call on every BLAS core.  numpy's SIMD
loops (AVX-512 or not) can still move the last digits of the report's
rounding-noise gaps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .distributions import (
    AnalyticDistribution,
    CustomFinite,
    _Workspace,
    _check_order,
    _check_reps,
    _count,
    _literal_sigma_sq,
    _replicate_states,
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
# the most finite-difference entries, M x rows x 2(K-1) x K, that one slice
# of a K-group's oracle pass holds: 256 KiB an array, which keeps the
# segment kernel's temporaries in cache
_SLICE_ENTRIES = 1 << 15


def _positive_pmf(pmf) -> CustomFinite:
    pmf = as_pmf(pmf)
    if pmf.size < 2:
        raise ValueError("gradient oracles need at least two categories")
    if np.any(pmf.probs <= 0.0):
        raise ValueError("gradient oracles require strictly positive probabilities")
    return pmf


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot of each row of a with the same row of b, the leading axes
    broadcast, summed left to right along the row; a copy, so that no
    result keeps its rows' running sums alive."""
    return np.cumsum(a * b, axis=-1)[..., -1].copy()


def _full_gradient(p: np.ndarray, orders) -> np.ndarray:
    """The (M, R, K) full gradient -(m q / p)(ln q + H) of the order-m
    entropy at each row of a strictly positive (R, K) p, for each of the M
    orders; each H is a dot.  No free partial g_i - g_K is a difference of
    large terms: the quadratic form on them is within 2.3e-15 relative of the
    series on the default corpus, 1.4e-14 on 20000 pmfs at orders 1..8."""
    m = np.array(orders)[:, None, None]
    w = m * np.log(p)
    w -= w.max(axis=-1, keepdims=True)
    log_q = w - np.log(np.sum(np.exp(w), axis=-1, keepdims=True))
    q = np.exp(log_q)
    return -(m * q / p) * (log_q - _row_dots(q, log_q)[..., None])


def _covariance(p: np.ndarray) -> np.ndarray:
    """The explicit (K-1)x(K-1) multinomial covariance diag(v) - v v^T of
    each row of p, v = p[:-1]."""
    r, k = p.shape
    cov = np.zeros((r, k - 1, k - 1))
    v = p[:, :-1]
    free = np.arange(k - 1)
    cov[:, free, free] = v
    cov -= v[:, :, None] * v[:, None, :]
    return cov


def _quadratic_form(cov: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g^T Sigma g of each row: g^T Sigma summed left to right down the
    matrix axis, then its row dot with g; g's leading axes broadcast
    against cov's."""
    return _row_dots(np.cumsum(g[..., :, None] * cov, axis=-2)[..., -1, :], g)


def _fd_stack(p: np.ndarray, h: float) -> np.ndarray:
    """The (R, 2(K-1), K) stack of perturbed copies of each row of p: copy i
    moves p_i by +h and copy K-1+i by -h, and p_K absorbs each move."""
    free = p.shape[1] - 1
    moves = np.zeros((2, free, free + 1))
    ix = np.arange(free)
    moves[0, ix, ix] = moves[1, :, -1] = h
    moves[1, ix, ix] = moves[0, :, -1] = -h
    # p_K + -h is p_K - h, and p_j + 0.0 is p_j
    return p[:, None, :] + moves.reshape(2 * free, free + 1)


def _fd_differences(stack: np.ndarray, m, h: float) -> np.ndarray:
    """Central differences (H+ - H-) / (2h) of each row of a _fd_stack at
    order m, or at each order of an (M,) array m on a leading axis.

    Every copy at every order is a segment of one collision_log_weights
    call, so each H has the bits of a lone gse call on that copy.  Every
    copy must lie in the open simplex, as fd_gradient checks.
    """
    r, copies, k = stack.shape
    m = np.asarray(m)
    orders = np.repeat(m, stack.size)
    entropies = collision_log_weights(np.tile(stack.ravel(), m.size), orders,
                                      np.arange(0, orders.size, k))[2]
    entropies = entropies.reshape(m.shape + (r, copies))
    return (entropies[..., : copies // 2] - entropies[..., copies // 2:]) / (2.0 * h)


def analytic_gradient(pmf, m: int) -> np.ndarray:
    """Partial derivatives of the order-m entropy in the K-1 free coordinates.

    The last category absorbs the simplex constraint (p_K = 1 - sum).  With
    the full gradient g_k = -(m q_k / p_k)(ln q_k + H), for free index i:

        dH/dp_i = g_i - g_K.
    """
    g = _full_gradient(_positive_pmf(pmf).probs[None], [_check_order(m)])[0, 0]
    return g[:-1] - g[-1]


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
    return _fd_differences(_fd_stack(p[None], h), m, h)[0]


def delta_variance_oracle(pmf, m: int) -> float:
    """grad^T Sigma grad with the explicit (K-1)x(K-1) multinomial covariance."""
    p = _positive_pmf(pmf).probs[None]
    g = _full_gradient(p, [_check_order(m)])[0]
    return float(_quadratic_form(_covariance(p), g[:, :-1] - g[:, -1:])[0])


def mc_variance_oracle(dist: AnalyticDistribution, m: int, n: int, reps: int, seed: int) -> float:
    """Empirical variance of sqrt(n) (plug-in - true) over seeded replicates.

    Replicate r draws with the derived seed (seed, r), in the coverage engine's blocks.
    """
    n = _count(n, "sample size n", 1)
    reps = _check_reps(reps)
    if reps < 100:
        raise ValueError("need at least 100 replicates for a meaningful variance")
    h_true = gse_analytic(dist, m)
    estimates = _replicate_estimates(dist, m, n, reps, _replicate_states(seed, reps), _Workspace())
    h_hat = np.concatenate([h for h, _ in estimates])
    return float(np.var(np.sqrt(float(n)) * (h_hat - h_true), ddof=1))


# ---------------------------------------------------------------------------
# fixed-seed corpus and the bundled verification report
# ---------------------------------------------------------------------------


def _corpus_probs(seed: int, size: int) -> list[np.ndarray]:
    """The probability vectors of pmf_corpus(seed, size), as plain arrays,
    valid by construction."""
    size = _count(size, "corpus size", 1)
    rng = np.random.default_rng(_count(seed, "corpus seed", 0))
    alphas = [np.full(k, 2.0) for k in range(CORPUS_K_MAX + 1)]
    probs: list[np.ndarray] = []
    while len(probs) < size:
        k = int(rng.integers(CORPUS_K_MIN, CORPUS_K_MAX + 1))
        p = rng.dirichlet(alphas[k])
        if p.min() >= CORPUS_MIN_PROB:
            probs.append(p)
    return probs


def pmf_corpus(seed: int = DEFAULT_CORPUS_SEED, size: int = DEFAULT_CORPUS_SIZE) -> list[CustomFinite]:
    """Reproducible corpus of random interior simplex points.

    Each pmf has CORPUS_K_MIN to CORPUS_K_MAX categories.  Draws whose
    smallest entry falls below CORPUS_MIN_PROB are rejected, so finite
    differences stay inside the simplex and 1/p_k terms stay well
    conditioned.
    """
    return [CustomFinite(p) for p in _corpus_probs(seed, size)]


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


def _sigma_sq_sweeps(probs: list[np.ndarray], orders) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """sigma_m^2 of every vector in probs at each order, and sigma_sq_literal
    at m = 2, from one kernel call each on the vectors end to end, a segment
    a vector; each value has the bits of a lone call."""
    flat = np.concatenate(probs)
    starts = np.cumsum([0] + [p.size for p in probs[:-1]])
    return {m: h_sigma_sq(flat, m, starts)[1] for m in orders}, _literal_sigma_sq(flat, 2, starts)


def _row_slices(probs: list[np.ndarray], n_orders: int):
    """(rows, K) of each row slice of each K-group of probs, sorted by size:
    a slice holds n_orders x rows x 2(K-1) x K finite-difference entries, at
    most _SLICE_ENTRIES unless one row alone holds more."""
    start = 0
    for k, run in itertools.groupby(p.size for p in probs):
        stop = start + sum(1 for _ in run)
        step = max(1, _SLICE_ENTRIES // (n_orders * 2 * (k - 1) * k))
        for first in range(start, stop, step):
            yield slice(first, min(first + step, stop)), k
        start = stop


def _slice_pass(p: np.ndarray, orders: tuple[int, ...], h: float):
    """(gradient, finite differences, g^T Sigma g, sum_k p_k g_k) of every
    row of the (R, K) p at every order, each stacked on a leading order axis:
    one weight pass and one segment-kernel call for all M orders.  Every sum
    runs along a row, so how the rows are sliced moves no bit."""
    full = _full_gradient(p, orders)
    g = full[..., :-1] - full[..., -1:]
    fd = _fd_differences(_fd_stack(p, h), orders, h)
    return g, fd, _quadratic_form(_covariance(p), g), _row_dots(p, full)


def run_verification(corpus_seed: int = DEFAULT_CORPUS_SEED,
                     corpus_size: int = DEFAULT_CORPUS_SIZE,
                     m_values: tuple[int, ...] = (1, 2, 3, 4)) -> VerificationReport:
    """Run the oracle battery on a fixed-seed corpus and report per-invariant results."""
    m_values = tuple(map(_check_order, m_values))
    if not m_values:  # no order would pass every check vacuously
        raise ValueError("m_values must hold at least one order")
    # sorted by size, each K-group is one run; no check depends on the order
    probs = sorted(_corpus_probs(corpus_seed, corpus_size), key=len)
    sigma_sq, literal = _sigma_sq_sweeps(probs, {1, 2, *m_values})
    series = np.stack([sigma_sq[m] for m in m_values])

    # one full gradient per (row, order) feeds three checks; m = 1 must
    # reduce to the classical plug-in entropy variance
    worst_fd = worst_quad = worst_mean = worst_m1 = 0.0
    non_uniform_rows = np.empty(len(probs), dtype=bool)
    for rows, _ in _row_slices(probs, len(m_values)):
        p = np.stack(probs[rows])
        g, fd, quad, mean_zero = _slice_pass(p, m_values, DEFAULT_FD_STEP)
        gap = np.abs(g - fd) / np.maximum(1.0, 1e2 * np.abs(g))
        worst_fd = max(worst_fd, float(gap.max()))
        gap = np.abs(series[:, rows] - quad) / np.maximum(np.abs(quad), 1e-30)
        worst_quad = max(worst_quad, float(gap.max()))
        worst_mean = max(worst_mean, float(np.abs(mean_zero).max()))
        log_p = np.log(p)
        classical = _row_dots(p, log_p**2) - _row_dots(p, log_p) ** 2
        worst_m1 = max(worst_m1, float(np.abs(sigma_sq[1][rows] - classical).max()))
        non_uniform_rows[rows] = np.ptp(p, axis=1) > 1e-12

    # diagnostic: the inside-the-square weighting disagrees on non-uniform pmfs
    corrected = sigma_sq[2]
    disagree = np.abs(literal - corrected) > 1e-8 * np.maximum(corrected, 1e-30)
    disagreements = int(np.count_nonzero(disagree & non_uniform_rows))
    non_uniform = int(np.count_nonzero(non_uniform_rows))
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
