"""Discrete source distributions over the positive integers.

Four lawful families are supported: Zeta (heavy tailed, infinite support),
Geometric (light tailed, infinite support), UniformFinite, and CustomFinite
(an explicit probability vector).  Each family exposes pointwise
probabilities, certified truncation of its infinite series, and seeded
sampling.  Everything here is pure: a distribution object is an immutable
value, and sampling is a deterministic function of (distribution, n, seed).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
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
    ones.  ``labels``, when present, carries the original category label of
    each slot (used by the estimation layer, which re-orders observed
    categories).
    """

    probs: np.ndarray
    labels: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probability vector must be 1-d and nonempty")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
            raise ValueError("probabilities must be finite and >= 0")
        total = float(probs.sum())
        if abs(total - 1.0) > PMF_ATOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1 within {PMF_ATOL}")
        if self.labels is not None and len(self.labels) != probs.size:
            raise ValueError("labels length does not match probability vector")
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @property
    def support_size(self) -> int:
        """Number of categories with strictly positive probability."""
        return int(np.count_nonzero(self.probs > 0.0))


@dataclass(frozen=True)
class SampleCounts:
    """Sparse category -> count map for an iid sample of total size n.

    Canonical form: no stored zero counts, counts sum to n.
    """

    counts: Mapping[int, int]
    n: int

    def __post_init__(self) -> None:
        counts = dict(self.counts)
        total = 0
        for category, count in counts.items():
            if int(count) != count or count <= 0:
                raise ValueError(f"count for category {category!r} must be a positive integer")
            total += int(count)
        if total != self.n or self.n <= 0:
            raise ValueError(f"counts sum to {total}, expected n={self.n}")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_observations(cls, values: Iterable[int]) -> "SampleCounts":
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if arr.size == 0:
            raise ValueError("empty observation sequence")
        cats, cnts = np.unique(arr, return_counts=True)
        return cls({int(c): int(k) for c, k in zip(cats, cnts)}, int(arr.size))


# ---------------------------------------------------------------------------
# distribution families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Zeta:
    """P(X = k) = k^{-s} / zeta(s) on k = 1, 2, ...; requires s > 1."""

    s: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s) and self.s > 1.0):
            raise ValueError("Zeta exponent must satisfy s > 1 (the normalizer diverges otherwise)")


@dataclass(frozen=True)
class Geometric:
    """P(X = k) = q (1-q)^{k-1} on k = 1, 2, ...; requires 0 < q < 1."""

    q: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.q) and 0.0 < self.q < 1.0):
            raise ValueError("Geometric parameter must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class UniformFinite:
    """Uniform over categories 1..K."""

    K: int

    def __post_init__(self) -> None:
        if int(self.K) != self.K or self.K < 1:
            raise ValueError("UniformFinite needs a positive integer number of categories")
        object.__setattr__(self, "K", int(self.K))


@dataclass(frozen=True)
class CustomFinite:
    """An arbitrary explicit finite probability vector."""

    pmf: DiscretePmf


AnalyticDistribution = Union[Zeta, Geometric, UniformFinite, CustomFinite]

_FINITE_KINDS = (UniformFinite, CustomFinite)


def is_finite_support(dist: AnalyticDistribution) -> bool:
    return isinstance(dist, _FINITE_KINDS)


def finite_pmf(dist: AnalyticDistribution) -> DiscretePmf:
    """The explicit probability vector of a finite-support distribution."""
    if isinstance(dist, UniformFinite):
        return DiscretePmf(np.full(dist.K, 1.0 / dist.K))
    if isinstance(dist, CustomFinite):
        return dist.pmf
    raise ValueError(f"{type(dist).__name__} does not have finite support")


def pmf_at(dist: AnalyticDistribution, k: int) -> float:
    """Pointwise probability P(X = k) for category k >= 1."""
    if int(k) != k or k < 1:
        raise ValueError(f"category index must be a positive integer, got {k!r}")
    return float(_pmf_array(dist, np.asarray([int(k)], dtype=np.int64))[0])


def _pmf_array(dist: AnalyticDistribution, ks: np.ndarray) -> np.ndarray:
    """Vectorized pmf over an int64 array of categories (all >= 1)."""
    kf = ks.astype(np.float64)
    if isinstance(dist, Zeta):
        return kf ** (-dist.s) / riemann_zeta(dist.s)
    if isinstance(dist, Geometric):
        # q r^{k-1} in log space to stay exact far into the tail
        log_p = math.log(dist.q) + (kf - 1.0) * math.log1p(-dist.q)
        return np.exp(log_p)
    if isinstance(dist, UniformFinite):
        return np.where(ks <= dist.K, 1.0 / dist.K, 0.0)
    if isinstance(dist, CustomFinite):
        probs = dist.pmf.probs
        out = np.zeros(ks.shape, dtype=np.float64)
        inside = ks <= probs.size
        out[inside] = probs[ks[inside] - 1]
        return out
    raise TypeError(f"not an analytic distribution: {dist!r}")


# ---------------------------------------------------------------------------
# zeta-type series: sum_{k>=1} k^{-a} ln^j k
# ---------------------------------------------------------------------------


def _log_power(length_or_values, j: int):
    if j == 0:
        return 1.0
    return np.log(length_or_values) ** j


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
    head = float(np.sum(ks**-a * _log_power(ks, j)))
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
# certified truncation of the collision-entropy and variance series
# ---------------------------------------------------------------------------


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


def _zeta_tail_bounds(dist: Zeta, m: int, K: int) -> tuple[float, float]:
    """Upper bounds on the entropy-series and variance-series tails past K."""
    s = dist.s
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


def _geometric_tail_bounds(dist: Geometric, m: int, K: int) -> tuple[float, float]:
    q = dist.q
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


def truncation_index(dist: AnalyticDistribution, m: int, eps: float) -> int:
    """Smallest certified cutoff K so both infinite series tails are < eps.

    Returns K such that the neglected tails of the collision-entropy series
    sum p_{m,k} |ln p_{m,k}| and of the asymptotic-variance series are both
    provably below eps, using monotone integral bounds (Zeta) or closed-form
    geometric tail sums (Geometric).  Finite families return their support
    size.  Raises NonConvergenceError if no cutoff within the term budget
    can be certified.
    """
    if int(m) != m or m < 1:
        raise ValueError(f"order m must be an integer >= 1, got {m!r}")
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    if isinstance(dist, UniformFinite):
        return dist.K
    if isinstance(dist, CustomFinite):
        return dist.pmf.size

    if isinstance(dist, Zeta):
        bounds = lambda K: _zeta_tail_bounds(dist, m, K)
        lo = 8  # integrands k^-a ln^j k are decreasing from here on
    elif isinstance(dist, Geometric):
        bounds = lambda K: _geometric_tail_bounds(dist, m, K)
        lo = 1
    else:
        raise TypeError(f"not an analytic distribution: {dist!r}")

    def ok(K: int) -> bool:
        ent, var = bounds(K)
        return ent < eps and var < eps

    hi = lo
    while not ok(hi):
        hi *= 2
        if hi > MAX_SERIES_TERMS:
            raise NonConvergenceError(
                f"series tails for {dist!r}, m={m} cannot be certified below "
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


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def derive_seed(master: int, *path: int) -> int:
    """Counter-based split of a master seed.

    Deterministic function of (master, path); used to give replicates and
    grid points independent streams whose values do not depend on worker
    count or execution order.
    """
    ss = np.random.SeedSequence(entropy=master & _MASK64, spawn_key=tuple(int(p) & _MASK64 for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


# Largest accept-test chunk.  Its float arrays (x, w, t, t - 1; 64 KB each)
# stay in L2 cache between the passes, which made a 1e5 draw ~25% faster than
# chunks sized from the need alone.
_ZETA_CHUNK = 8192


def _sample_zeta(s: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Rejection sampler for the Zeta(s) law (Zipf-type envelope).

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
    am1 = s - 1.0
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


def draw(dist: AnalyticDistribution, n: int, seed: int) -> np.ndarray:
    """n iid observations as an int64 array; deterministic function of (dist, n, seed)."""
    if int(n) != n or n < 1:
        raise ValueError(f"sample size must be a positive integer, got {n!r}")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & _MASK64))
    if isinstance(dist, Zeta):
        values = _sample_zeta(dist.s, n, rng)
    elif isinstance(dist, Geometric):
        u = rng.random(n)
        values = np.floor(np.log1p(-u) / math.log1p(-dist.q)).astype(np.int64) + 1
    elif isinstance(dist, UniformFinite):
        values = np.floor(rng.random(n) * dist.K).astype(np.int64) + 1
    elif isinstance(dist, CustomFinite):
        cum = np.cumsum(dist.pmf.probs)
        cum[-1] = 1.0
        values = np.searchsorted(cum, rng.random(n), side="right").astype(np.int64) + 1
    else:
        raise TypeError(f"not an analytic distribution: {dist!r}")
    return values


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
    if isinstance(dist, Zeta):
        return {"kind": "zeta", "s": dist.s}
    if isinstance(dist, Geometric):
        return {"kind": "geometric", "q": dist.q}
    if isinstance(dist, UniformFinite):
        return {"kind": "uniform", "K": dist.K}
    if isinstance(dist, CustomFinite):
        return {"kind": "custom", "probs": [float(p) for p in dist.pmf.probs]}
    raise TypeError(f"not an analytic distribution: {dist!r}")
