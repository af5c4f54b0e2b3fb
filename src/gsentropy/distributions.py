"""Discrete source distributions over the positive integers.

Four families share the base class ``AnalyticDistribution``: Zeta (heavy
tailed, infinite support), Geometric (light tailed, infinite support),
UniformFinite, and CustomFinite (an explicit probability vector).  Each
family class owns its pmf, seeded draws, exact H_m and sigma_m^2, certified
truncation cutoff and JSON config; the module functions validate, then
delegate.  The shifted log-weight pass behind H_m and sigma_m^2 of every
explicit pmf sits beside ``DiscretePmf``.  Everything here is pure: a
distribution object is an immutable value, and sampling is a deterministic
function of (distribution, n, seed).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

import numpy as np

# Tolerance for "these probabilities form a distribution".
PMF_ATOL = 1e-12

# Hard ceiling on the number of series terms any direct summation is allowed
# to touch.  Series that would need more are reported as non-convergent
# (numerically, not mathematically).
MAX_SERIES_TERMS = 50_000_000

_MASK64 = 0xFFFFFFFFFFFFFFFF


class NonConvergenceError(ArithmeticError):
    """A required series cannot be evaluated to tolerance.

    Raised instead of silently returning a large or truncated number, both
    for genuinely divergent series and for series whose certified truncation
    point exceeds the term budget.
    """


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscretePmf:
    """Explicit probability vector over categories 1..K.

    Zero entries are permitted; the support size counts only the positive
    ones.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probability vector must be 1-d and nonempty")
        # NaN fails both bounds; entries of at most 1 cannot sum to inf
        if not np.all((probs >= 0.0) & (probs <= 1.0 + PMF_ATOL)):
            raise ValueError("probabilities must lie in [0, 1]")
        total = float(probs.sum())
        if abs(total - 1.0) > PMF_ATOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1 within {PMF_ATOL}")
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @property
    def support_size(self) -> int:
        """Number of categories with strictly positive probability."""
        return int(np.count_nonzero(self.probs > 0.0))


_INT64_MAX = np.iinfo(np.int64).max


def _int64_array(values, what: str) -> np.ndarray:
    """values as a nonempty 1-d int64 array; non-integers and values beyond int64 raise ValueError."""
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{what} must be a nonempty 1-d sequence")
    # Python ints beyond 64 bits arrive as an object array, those in [2^63, 2^64) as uint64
    if arr.dtype.kind not in "iu" or (arr.dtype.kind == "u" and arr.max() > _INT64_MAX):
        raise ValueError(f"{what} must be integers that fit in int64")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class SampleCounts:
    """Tally of an iid sample: int64 arrays of the observed categories
    (strictly increasing) and of their counts (all positive); n is their
    exact total, which must fit in int64 too."""

    categories: np.ndarray
    counts: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        categories = _int64_array(self.categories, "categories")
        counts = _int64_array(self.counts, "counts")
        if categories.shape != counts.shape:
            raise ValueError(f"{categories.size} categories but {counts.size} counts")
        if np.any(categories[1:] <= categories[:-1]) or np.any(counts <= 0):
            raise ValueError("categories must be strictly increasing and counts positive")
        # a sum that might wrap in int64 is taken in Python ints
        n = int(counts.sum()) if counts.max() <= _INT64_MAX // counts.size else sum(counts.tolist())
        if n > _INT64_MAX:
            raise ValueError(f"counts total {n}, which does not fit in int64")
        object.__setattr__(self, "categories", categories)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", n)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SampleCounts) and np.array_equal(self.categories, other.categories)
                and np.array_equal(self.counts, other.counts))

    @classmethod
    def from_observations(cls, values: Iterable[int]) -> "SampleCounts":
        return cls(*np.unique(_int64_array(values, "observations"), return_counts=True))


def _check_order(m: int) -> int:
    if int(m) != m or m < 1:
        raise ValueError(f"collision order m must be an integer >= 1, got {m!r}")
    return int(m)


def _check_eps(eps: float) -> float:
    if not (eps > 0.0):  # NaN fails too
        raise ValueError(f"tolerance eps must be positive, got {eps!r}")
    return eps


def collision_log_weights(p: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(ln q, q, H_m, ln sum p^m) of q_k = p_k^m / sum p_i^m, for strictly positive p.

    Shifting w = m ln p by its maximum means nothing underflows, and
    H_m = ln W - sum q w keeps uniform inputs exactly at ln K."""
    w = m * np.log(p)
    shift = w.max()
    w -= shift
    log_norm = float(np.log(np.sum(np.exp(w))))
    log_q = w - log_norm
    q = np.exp(log_q)
    return log_q, q, float(log_norm - np.dot(q, w)), float(shift) + log_norm


def h_sigma_sq(p: np.ndarray, m: int) -> tuple[float, float]:
    """(H_m, sigma_m^2) of a strictly positive pmf: sigma^2 = sum p_k g_k^2,
    g_k = -(m q_k / p_k) (ln q_k + H_m)."""
    log_q, q, h, _ = collision_log_weights(p, m)
    g = -(m * q / p) * (log_q + h)
    return h, float(np.dot(p, g * g))


# ---------------------------------------------------------------------------
# zeta-type series: sum_{k>=1} k^{-a} ln^j k
# ---------------------------------------------------------------------------


def _tail_integral(a: float, j: int, x: float) -> float:
    """Closed form of the integral of t^{-a} ln^j t from x to infinity (a > 1)."""
    b = a - 1.0
    L = math.log(x)
    if j == 0:
        return x**-b / b
    if j == 1:
        return x**-b * (b * L + 1.0) / b**2
    if j == 2:
        return x**-b * (L * L / b + 2.0 * L / b**2 + 2.0 / b**3)
    raise ValueError("only ln powers 0..2 are supported")


def _em_third_derivative(a: float, j: int, x: float) -> float:
    """f'''(x) for f(t) = t^{-a} ln^j t; used for the Euler-Maclaurin remainder."""
    L = math.log(x)

    def lp(power: int) -> float:
        return L**power if power >= 0 else 0.0

    bracket = (
        j * (j - 1) * lp(j - 2)
        - j * (2.0 * a + 1.0) * lp(j - 1)
        + a * (a + 1.0) * lp(j)
    )
    extra = (
        j * (j - 1) * (j - 2) * lp(j - 3)
        - j * (j - 1) * (2.0 * a + 1.0) * lp(j - 2)
        + j * a * (a + 1.0) * lp(j - 1)
    )
    return x ** (-a - 3.0) * (-(a + 2.0) * bracket + extra)


def series_terms_needed(a: float, j: int, tol: float) -> int:
    """Partial-sum length for sum k^{-a} ln^j k so the corrected tail is < tol."""
    if a <= 1.0:
        raise NonConvergenceError(f"series sum k^(-{a}) ln^{j} k diverges (needs a > 1)")
    n = 1000
    while abs(_em_third_derivative(a, j, float(n))) / 720.0 > 0.5 * tol:
        n *= 2
        if n > MAX_SERIES_TERMS:
            raise NonConvergenceError(
                f"series sum k^(-{a}) ln^{j} k needs more than {MAX_SERIES_TERMS} terms for tol={tol}"
            )
    return n


def power_log_series(a: float, j: int, tol: float = 1e-13) -> float:
    """sum_{k>=1} k^{-a} ln^j k to absolute tolerance tol, for a > 1, j in 0..2.

    Partial sum to N plus an integral tail correction with two
    Euler-Maclaurin refinement terms; N is chosen so the certified remainder
    bound falls below tol.
    """
    n = series_terms_needed(a, j, tol)
    ks = np.arange(1, n, dtype=np.float64)
    head = float(np.sum(ks**-a * (np.log(ks) ** j if j else 1.0)))
    x = float(n)
    L = math.log(x)
    f = x**-a * (L**j if j else 1.0)
    fprime = x ** (-a - 1.0) * ((j * L ** (j - 1) if j else 0.0) - a * (L**j if j else 1.0))
    tail = _tail_integral(a, j, x) + 0.5 * f - fprime / 12.0 + _em_third_derivative(a, j, x) / 720.0
    return head + tail


def riemann_zeta(s: float, tol: float = 1e-13) -> float:
    """The Riemann zeta function for real s > 1, absolute error below tol."""
    if not (math.isfinite(s) and s > 1.0):
        raise ValueError(f"zeta(s) requires s > 1, got {s!r}")
    return power_log_series(s, 0, tol)


# ---------------------------------------------------------------------------
# distribution families
# ---------------------------------------------------------------------------


class AnalyticDistribution:
    """Base of the families.  Each implements, for validated arguments,
    pmf_array(int64 ks), draw(n, rng), h_m(m, eps) -> (H_m, series terms),
    sigma_sq(m, eps) and config().  Finite laws override cutoff and
    finite_pmf; infinite ones feed tail_bounds(m, K) and first_cutoff to the
    shared cutoff search.
    """

    first_cutoff = 1

    def finite_pmf(self) -> DiscretePmf:
        raise ValueError(f"{type(self).__name__} does not have finite support")

    def cutoff(self, m: int, eps: float) -> int:
        """Smallest K >= first_cutoff whose entropy and variance tail bounds are both < eps."""

        def ok(K: int) -> bool:
            ent, var = self.tail_bounds(m, K)
            return ent < eps and var < eps

        lo = self.first_cutoff
        hi = lo
        while not ok(hi):
            hi *= 2
            if hi > MAX_SERIES_TERMS:
                raise NonConvergenceError(
                    f"series tails for {self!r}, m={m} cannot be certified below "
                    f"eps={eps} within {MAX_SERIES_TERMS} terms"
                )
        # binary search the smallest certified cutoff
        low = max(lo, hi // 2)
        while low < hi:
            mid = (low + hi) // 2
            if ok(mid):
                hi = mid
            else:
                low = mid + 1
        return hi


# Largest accept-test chunk.  Its float arrays (x, w, t, t - 1; 64 KB each)
# stay in L2 cache between the passes, which made a 1e5 draw ~25% faster than
# chunks sized from the need alone.
_ZETA_CHUNK = 8192


@dataclass(frozen=True)
class Zeta(AnalyticDistribution):
    """P(X = k) = k^{-s} / zeta(s) on k = 1, 2, ...; requires s > 1."""

    s: float
    first_cutoff = 8  # integrands k^-a ln^j k are decreasing from here on

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s) and self.s > 1.0):
            raise ValueError("Zeta exponent must satisfy s > 1 (the normalizer diverges otherwise)")

    def pmf_array(self, ks: np.ndarray) -> np.ndarray:
        return ks.astype(np.float64) ** (-self.s) / riemann_zeta(self.s)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Rejection sampler with a Zipf-type envelope.

        Inverse-CDF tables are infeasible here: the tail P(X > k) ~ c k^{1-s}
        decays too slowly to truncate at machine precision.

        Each batch draws uniforms for 2 * (values still needed) candidates, at
        least 64.  The accept test then runs in place on consecutive chunks of
        the batch, each sized from the remaining need, and stops as soon as n
        values are kept, so the output is the first n acceptances in stream
        order.  Candidates above 2^62 are dropped (inf and nan fail the
        comparisons too): the sampled law is truncated there, losing a tail mass
        of about 2^(62(1-s)) / ((s-1) zeta(s)), which matters only for s near 1.
        """
        am1 = self.s - 1.0
        b = 2.0**am1
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            batch = max(2 * (n - filled), 64)
            u = rng.random(batch)
            v = rng.random(batch)
            start = 0
            while start < batch and filled < n:
                need = n - filled
                stop = min(start + need + need // 2 + 64, start + _ZETA_CHUNK, batch)
                x = u[start:stop]
                w = v[start:stop]
                start = stop
                # x = floor((1-u)^(-1/(s-1))), t = (1 + 1/x)^(s-1), accept when
                # ((v x)(t-1))/(b-1) <= t/b, in that operation order; `**=` takes
                # the same scalar-power shortcuts as `**` (sqrt for 0.5), so each
                # kept value is the float the plain expressions give.
                with np.errstate(over="ignore", invalid="ignore"):
                    np.subtract(1.0, x, out=x)  # in (0, 1]
                    x **= -1.0 / am1
                    np.floor(x, out=x)
                    t = np.divide(1.0, x)
                    t += 1.0
                    t **= am1
                    w *= x
                    w *= t - 1.0
                    w /= b - 1.0
                    t /= b
                    accept = w <= t
                    accept &= x <= 2.0**62
                kept = np.compress(accept, x)
                take = min(kept.size, need)
                out[filled : filled + take] = kept[:take]
                filled += take
        return out

    def h_m(self, m: int, eps: float) -> tuple[float, int]:
        """H_m from the closed-form structure q_k = k^{-t}/zeta(t), t = m s.

        H_m = ln zeta(t) + t * (sum k^{-t} ln k) / zeta(t).
        """
        t = m * self.s
        tol = min(eps * 0.1, 1e-13)
        z = power_log_series(t, 0, tol)
        s1 = power_log_series(t, 1, tol)
        terms = max(series_terms_needed(t, 0, tol), series_terms_needed(t, 1, tol))
        return math.log(z) + t * s1 / z, terms

    def sigma_sq(self, m: int, eps: float) -> float:
        """Closed-form expansion over the series S_j(a) = sum k^{-a} ln^j k.

        With t = m s, q_k = k^{-t}/zeta(t) and c = H_m - ln zeta(t):
        sigma^2 = (m^2 zeta(s)/zeta(t)^2) [c^2 S_0(a) - 2 c t S_1(a) + t^2 S_2(a)],
        where a = 2t - s > 1.
        """
        s = self.s
        t = m * s
        a = 2.0 * t - s
        tol = min(eps * 1e-3, 1e-13)
        h, _ = self.h_m(m, min(eps * 1e-2, 1e-12))
        z_s = riemann_zeta(s, tol)
        z_t = riemann_zeta(t, tol)
        c = h - math.log(z_t)
        s0 = power_log_series(a, 0, tol)
        s1 = power_log_series(a, 1, tol)
        s2 = power_log_series(a, 2, tol)
        return (m * m * z_s / z_t**2) * (c * c * s0 - 2.0 * c * t * s1 + t * t * s2)

    def tail_bounds(self, m: int, K: int) -> tuple[float, float]:
        """Upper bounds on the entropy-series and variance-series tails past K."""
        s = self.s
        t = m * s
        z_s = riemann_zeta(s)
        z_t = riemann_zeta(t)
        # H_m - ln zeta(t) = t * (sum k^-t ln k) / zeta(t) >= 0
        c = t * power_log_series(t, 1) / z_t
        c0 = abs(math.log(z_t))

        # entropy terms: (1/z_t) k^-t |t ln k + ln z_t|
        ent = (t * _tail_integral(t, 1, K) + c0 * _tail_integral(t, 0, K)) / z_t

        # variance terms: (m^2 z_s / z_t^2) k^{s-2t} (t ln k + |c|)^2
        alpha = 2.0 * t - s
        if alpha <= 1.0:
            return ent, math.inf
        amp = m * m * z_s / z_t**2
        var = amp * (
            t * t * _tail_integral(alpha, 2, K)
            + 2.0 * t * abs(c) * _tail_integral(alpha, 1, K)
            + c * c * _tail_integral(alpha, 0, K)
        )
        return ent, var

    def config(self) -> dict:
        return {"kind": "zeta", "s": self.s}


def _geometric_index_sums(log_x: float, start: int) -> tuple[float, float, float]:
    """Closed forms of sum_{j>=J} j^i x^j for i = 0, 1, 2, given ln x < 0 and J >= 1.

    Written in 1 - x from expm1, which keeps its digits as x -> 1."""
    J = start
    xj = math.exp(J * log_x)
    one = -math.expm1(log_x)
    g0 = xj / one
    g1 = xj * (1.0 + (J - 1.0) * one) / one**2
    g2 = xj * (2.0 + (2.0 * J - 3.0) * one + ((J - 1.0) * one) ** 2) / one**3
    return g0, g1, g2


@dataclass(frozen=True)
class Geometric(AnalyticDistribution):
    """P(X = k) = q (1-q)^{k-1} on k = 1, 2, ...; requires 0 < q < 1."""

    q: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.q) and 0.0 < self.q < 1.0):
            raise ValueError("Geometric parameter must lie strictly inside (0, 1)")

    def pmf_array(self, ks: np.ndarray) -> np.ndarray:
        # q r^{k-1} in log space to stay exact far into the tail
        log_p = math.log(self.q) + (ks.astype(np.float64) - 1.0) * math.log1p(-self.q)
        return np.exp(log_p)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(n)
        return np.floor(np.log1p(-u) / math.log1p(-self.q)).astype(np.int64) + 1

    def h_m(self, m: int, eps: float) -> tuple[float, int]:
        # the m-collision law is Geometric(h): H_m = -ln h - rho ln(rho) / h,
        # h = 1 - rho, rho = (1-q)^m, from
        # log1p and expm1 so that no digit is lost as q -> 0
        log_rho = m * math.log1p(-self.q)
        h = -math.expm1(log_rho)
        return -math.log(h) - math.exp(log_rho) * (log_rho / h), 0

    def sigma_sq(self, m: int, eps: float) -> float:
        """sum_k p_k g_k^2 summed in closed form over j = k - 1 >= 0 (terms x^j (j - rho/h)^2).

        With rho = (1-q)^m, h = 1 - rho, x = (1-q)^(2m-1) and ratio = h / (1 - x):
        m^2 (ln rho / q) (ln rho / (1 - x)) [(rho - x ratio)^2 + x ratio^2].  No
        factor overflows or cancels as q -> 0, and 1 - x comes from expm1."""
        q = self.q
        log_r = math.log1p(-q)
        log_rho = m * log_r
        log_x = (2 * m - 1) * log_r
        one = -math.expm1(log_x)
        x = math.exp(log_x)
        ratio = -math.expm1(log_rho) / one
        bracket = (math.exp(log_rho) - x * ratio) ** 2 + x * ratio * ratio
        return m * m * (log_rho / q) * (log_rho / one) * bracket

    def tail_bounds(self, m: int, K: int) -> tuple[float, float]:
        """Upper bounds on the entropy-series and variance-series tails past K."""
        q = self.q
        log_r = math.log1p(-q)
        log_rho = m * log_r
        rho = math.exp(log_rho)
        h = -math.expm1(log_rho)  # 1 - rho, accurately
        beta = -log_rho
        c0 = abs(math.log(h))

        g0, g1, _ = _geometric_index_sums(log_rho, K)
        ent = h * (c0 * g0 + beta * g1)

        # ln q_k + H_m = (k-1) ln rho + (rho/h) beta, so |.| <= c1 + (k-1) beta
        c1 = (rho / h) * beta
        e0, e1, e2 = _geometric_index_sums((2 * m - 1) * log_r, K)
        var = (m * m * h * h / q) * (c1 * c1 * e0 + 2.0 * c1 * beta * e1 + beta * beta * e2)
        return ent, var

    def config(self) -> dict:
        return {"kind": "geometric", "q": self.q}


@dataclass(frozen=True)
class UniformFinite(AnalyticDistribution):
    """Uniform over categories 1..K, for 1 <= K <= 2^53."""

    K: int

    def __post_init__(self) -> None:
        if int(self.K) != self.K or self.K < 1:
            raise ValueError("UniformFinite needs a positive integer number of categories")
        # draws are floor(u K) of 53-bit uniforms u, which miss categories past 2^53
        if self.K > 2**53:
            raise ValueError(f"UniformFinite supports at most 2**53 categories, got K={self.K}")
        object.__setattr__(self, "K", int(self.K))

    def pmf_array(self, ks: np.ndarray) -> np.ndarray:
        return np.where(ks <= self.K, 1.0 / self.K, 0.0)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.floor(rng.random(n) * self.K).astype(np.int64) + 1

    def h_m(self, m: int, eps: float) -> tuple[float, int]:
        # np.log, not math.log: the two can differ in the last bit, and a
        # degenerate interval covers only a truth equal to the kernel's ln K
        return float(np.log(float(self.K))), self.K

    def sigma_sq(self, m: int, eps: float) -> float:
        return 0.0

    def cutoff(self, m: int, eps: float) -> int:
        return self.K

    def finite_pmf(self) -> DiscretePmf:
        return DiscretePmf(np.full(self.K, 1.0 / self.K))

    def config(self) -> dict:
        return {"kind": "uniform", "K": self.K}


@dataclass(frozen=True)
class CustomFinite(AnalyticDistribution):
    """An arbitrary explicit finite probability vector."""

    pmf: DiscretePmf

    def pmf_array(self, ks: np.ndarray) -> np.ndarray:
        probs = self.pmf.probs
        out = np.zeros(ks.shape, dtype=np.float64)
        inside = ks <= probs.size
        out[inside] = probs[ks[inside] - 1]
        return out

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        cum = np.cumsum(self.pmf.probs)
        cum[-1] = 1.0
        return np.searchsorted(cum, rng.random(n), side="right").astype(np.int64) + 1

    def h_m(self, m: int, eps: float) -> tuple[float, int]:
        p = self.pmf.probs
        return collision_log_weights(p[p > 0.0], m)[2], self.pmf.size

    def sigma_sq(self, m: int, eps: float) -> float:
        p = self.pmf.probs
        return h_sigma_sq(p[p > 0.0], m)[1]

    def cutoff(self, m: int, eps: float) -> int:
        return self.pmf.size

    def finite_pmf(self) -> DiscretePmf:
        return self.pmf

    def config(self) -> dict:
        return {"kind": "custom", "probs": [float(p) for p in self.pmf.probs]}


def finite_pmf(dist: AnalyticDistribution) -> DiscretePmf:
    """The explicit probability vector of a finite-support distribution."""
    return dist.finite_pmf()


def pmf_at(dist: AnalyticDistribution, k: int) -> float:
    """Pointwise probability P(X = k) for category k >= 1."""
    if int(k) != k or k < 1:
        raise ValueError(f"category index must be a positive integer, got {k!r}")
    return float(dist.pmf_array(np.asarray([int(k)], dtype=np.int64))[0])


def truncation_index(dist: AnalyticDistribution, m: int, eps: float) -> int:
    """Smallest certified cutoff K so both infinite series tails are < eps.

    Returns K such that the neglected tails of the collision-entropy series
    sum p_{m,k} |ln p_{m,k}| and of the asymptotic-variance series are both
    provably below eps, using monotone integral bounds (Zeta) or closed-form
    geometric tail sums (Geometric).  Finite families return their support
    size.  Raises NonConvergenceError if no cutoff within the term budget
    can be certified.
    """
    return dist.cutoff(_check_order(m), _check_eps(eps))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def derive_seed(master: int, *path: int) -> int:
    """Counter-based split of a master seed.

    Deterministic function of (master, path); used to give replicates and
    grid points independent streams whose values do not depend on execution
    order.
    """
    ss = np.random.SeedSequence(entropy=master & _MASK64, spawn_key=tuple(int(p) & _MASK64 for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def draw(dist: AnalyticDistribution, n: int, seed: int) -> np.ndarray:
    """n iid observations as an int64 array; deterministic function of (dist, n, seed)."""
    if int(n) != n or n < 1:
        raise ValueError(f"sample size must be a positive integer, got {n!r}")
    return dist.draw(n, np.random.default_rng(np.random.SeedSequence(int(seed) & _MASK64)))


def sample(dist: AnalyticDistribution, n: int, seed: int) -> SampleCounts:
    """The counts of draw(dist, n, seed)."""
    return SampleCounts.from_observations(draw(dist, n, seed))


# ---------------------------------------------------------------------------
# JSON-style configuration
# ---------------------------------------------------------------------------


def _number(value):
    """A parameter value that is a real number, not a bool or a numeric string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is not a number")
    return value


def parse_distribution(spec: Union[str, Mapping]) -> AnalyticDistribution:
    """Build a distribution from a config like {"kind": "zeta", "s": 1.5}.

    Accepts a mapping or a JSON string.  Supported kinds: zeta(s),
    geometric(q), uniform(K), custom(probs).  Parameters must be numbers:
    booleans and numeric strings such as "1.5" raise ValueError.
    """
    if isinstance(spec, (str, bytes)):
        try:
            obj = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid distribution JSON: {exc}") from exc
    else:
        obj = dict(spec)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("distribution config must be an object with a 'kind' field")
    kind = str(obj["kind"]).lower()
    try:
        if kind == "zeta":
            return Zeta(float(_number(obj["s"])))
        if kind == "geometric":
            return Geometric(float(_number(obj["q"])))
        if kind == "uniform":
            return UniformFinite(_number(obj["K"]))
        if kind == "custom":
            probs = [_number(p) for p in obj["probs"]]
            return CustomFinite(DiscretePmf(np.asarray(probs, dtype=np.float64)))
    except KeyError as exc:
        raise ValueError(f"distribution config for kind={kind!r} is missing field {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"distribution config for kind={kind!r} has a non-numeric parameter: {exc}") from exc
    raise ValueError(f"unknown distribution kind {kind!r}")


def distribution_config(dist: AnalyticDistribution) -> dict:
    """The JSON-style config mapping for a distribution (parse round-trip)."""
    return dist.config()
