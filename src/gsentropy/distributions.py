"""Discrete source distributions over the positive integers.

Four families share the base class ``AnalyticDistribution``: Zeta, Geometric,
UniformFinite and CustomFinite (an explicit probability vector).  Each owns
its pmf, seeded draws, exact H_m and sigma_m^2, and JSON config; the module
functions validate, then delegate.  A distribution is an immutable value, and
sampling is a deterministic function of (distribution, n, seed).  Also here:
the segment kernel ``collision_log_weights``, and the coverage engine's
seeding (``_sweep_states``), scratch (``_Workspace``) and block draws
(``draw_rows``).
"""

from __future__ import annotations

import ctypes
import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

# Tolerance for "these probabilities form a distribution".
PMF_ATOL = 1e-12

# Hard ceiling on the number of series terms a partial sum is allowed to
# touch.  Series that would need more are reported as non-convergent
# (numerically, not mathematically).
MAX_SERIES_TERMS = 50_000_000

# Bound on the Euler-Maclaurin remainder of every Zeta series; none needs
# more than 2000 terms at it.  Rounding in the partial sum, not this bound,
# sets the accuracy of the values (see the README's numerics notes).
_SERIES_TOL = 1e-13

_MASK64 = 0xFFFFFFFFFFFFFFFF

# A (state, inc, uinteger) that _Workspace's layout probe sets: its words all differ.
_PROBE = (0x0123456789ABCDEF_FEDCBA9876543210, 0x1111222233334444_5555666677778889, 0xDEADBEEF)


class NonConvergenceError(ArithmeticError):
    """A required series cannot be evaluated to tolerance: raised instead of
    silently returning a large or truncated number, both for divergent series
    and for series whose certified truncation point exceeds the term budget."""


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


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


def _count(value, what: str, least: int) -> int:
    """value as an int; it must be an integer, not a bool, and at least least."""
    # (int, np.integer), not numbers.Integral, whose check costs about 1 us a call
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_reps(reps: int) -> int:
    reps = _count(reps, "replicate count reps", 1)
    if reps >= 2**64:  # derive_seed keys replicate r by r mod 2^64
        raise ValueError(f"replicate count reps must be below 2**64, got {reps}")
    return reps


def _check_order(m: int) -> int:
    # m enters float arithmetic, which would round an order past 2^53
    m = _count(m, "collision order m", 1)
    if m > 2**53:
        raise ValueError("collision order m must be at most 2**53")
    return m


# The default segment starts: all of p is one segment.  An index array, as
# reduceat would convert a tuple on every call.
_WHOLE = np.zeros(1, dtype=np.intp)


def _spread(values: np.ndarray, lengths) -> np.ndarray:
    """One value a segment, over the segment's elements, given the segment
    lengths; None (a single segment) broadcasts."""
    return values if lengths is None else np.repeat(values, lengths)


def _segment_weights(p: np.ndarray, m: int | np.ndarray, starts):
    """collision_log_weights' four arrays, and the segment lengths that
    _spread takes (None for a single segment), found once a call."""
    lengths = None if len(starts) == 1 else np.diff(starts, append=p.size)
    w = m * np.log(p)
    shift = np.maximum.reduceat(w, starts)
    w -= _spread(shift, lengths)
    log_norm = np.log(np.add.reduceat(np.exp(w), starts))
    log_q = w - _spread(log_norm, lengths)
    q = np.exp(log_q)
    return (log_q, q, log_norm - np.add.reduceat(q * w, starts), shift + log_norm), lengths


def collision_log_weights(p: np.ndarray, m: int | np.ndarray,
                          starts=_WHOLE) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ln q, q, H_m, ln sum p^m) of q_k = p_k^m / sum p_i^m over each segment
    of a strictly positive 1-d p; segments begin at the indices starts
    (default: p is one segment), and H_m and ln sum p^m hold one value each.
    m is one order, or an array of one order per element of p.

    Shifting w = m ln p by its segment maximum keeps orders up to at least
    m = 10 and probabilities down to 1e-300 from underflowing, and
    H_m = ln W - sum q w keeps uniform inputs exactly at ln K.  Every sum and
    max is a reduceat over the segment alone, so a segment's values have the
    same bits wherever it sits in p, and no BLAS call sets their order."""
    return _segment_weights(p, m, starts)[0]


def h_sigma_sq(p: np.ndarray, m: int, starts=_WHOLE) -> tuple[np.ndarray, np.ndarray]:
    """(H_m, sigma_m^2) of each segment of a strictly positive 1-d p, as in
    collision_log_weights: sigma^2 = sum p_k g_k^2, g_k = -(m q_k / p_k) (ln q_k + H_m)."""
    (log_q, q, h, _), lengths = _segment_weights(p, m, starts)
    g = -(m * q / p) * (log_q + _spread(h, lengths))
    return h, np.add.reduceat(p * (g * g), starts)


def _literal_sigma_sq(p: np.ndarray, m: int, starts=_WHOLE) -> np.ndarray:
    """The inside-the-square diagnostic (estimation.sigma_sq_literal) of each
    segment of a strictly positive 1-d p, as in h_sigma_sq:
    sum_k ((m^2 / p_k) q_k (ln q_k + H_m))^2."""
    (log_q, q, h, _), lengths = _segment_weights(p, m, starts)
    inner = (m * m / p) * q * (log_q + _spread(h, lengths))
    return np.add.reduceat(inner * inner, starts)


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


def series_terms_needed(a: float, j: int) -> int:
    """Partial-sum length for sum k^{-a} ln^j k so the corrected tail is < _SERIES_TOL."""
    if a <= 1.0:
        raise NonConvergenceError(f"series sum k^(-{a}) ln^{j} k diverges (needs a > 1)")
    n = 1000
    while abs(_em_third_derivative(a, j, float(n))) / 720.0 > 0.5 * _SERIES_TOL:
        n *= 2
        if n > MAX_SERIES_TERMS:
            raise NonConvergenceError(
                f"series sum k^(-{a}) ln^{j} k needs more than {MAX_SERIES_TERMS} terms"
            )
    return n


def power_log_series(a: float, j: int) -> tuple[float, int]:
    """(sum_{k>=1} k^{-a} ln^j k, N), for a > 1, j in 0..2.

    Partial sum to N plus an integral tail correction with two
    Euler-Maclaurin refinement terms; N is chosen so the certified remainder
    bound falls below _SERIES_TOL.
    """
    n = series_terms_needed(a, j)
    ks = np.arange(1, n, dtype=np.float64)
    head = float(np.sum(ks**-a * (np.log(ks) ** j if j else 1.0)))
    x = float(n)
    L = math.log(x)
    f = x**-a * (L**j if j else 1.0)
    fprime = x ** (-a - 1.0) * ((j * L ** (j - 1) if j else 0.0) - a * (L**j if j else 1.0))
    tail = _tail_integral(a, j, x) + 0.5 * f - fprime / 12.0 + _em_third_derivative(a, j, x) / 720.0
    return head + tail, n


def riemann_zeta(s: float) -> float:
    """The Riemann zeta function for real s > 1, summed by power_log_series."""
    if not (math.isfinite(s) and s > 1.0):
        raise ValueError(f"zeta(s) requires s > 1, got {s!r}")
    return power_log_series(s, 0)[0]


# ---------------------------------------------------------------------------
# distribution families
# ---------------------------------------------------------------------------


def _pcg64_halves(words: list[int], cache: list[int]) -> int:
    """1 if the probe's readout stores each 128-bit half (lo, hi), -1 if (hi, lo)."""
    state, inc, uinteger = _PROBE
    lo_hi = [state & _MASK64, state >> 64, inc & _MASK64, inc >> 64]
    if cache == [1, uinteger] and words in (lo_hi, lo_hi[1::-1] + lo_hi[:1:-1]):  # or each (hi, lo)
        return 1 if words == lo_hi else -1
    raise RuntimeError(f"numpy {np.__version__}: unrecognised PCG64 state layout {words}, {cache}")


class _Workspace:
    """Scratch that every block of one replicate loop shares: a Generator and
    grow-only float64 memory, which a block carves into contiguous matrices,
    so that no block faults fresh pages in again.

    A state goes straight into numpy's C struct at bit_generator.ctypes.state,
    pcg64_state {pcg64_random_t *pcg_state; int has_uint32; uint32_t uinteger}:
    words views *pcg_state, the 128-bit state and increment, as [[state lo,
    state hi], [inc lo, inc hi]], and cache views has_uint32 and uinteger.
    Writing words and zeroing cache is the bit_generator.state setter's re-set,
    without a dict.  A probe set through that setter, a cached half-word
    included, is read back first: numpy stores each half (lo, hi) with
    __uint128_t, (hi, lo) where it emulates it (MSVC), and any other layout
    raises RuntimeError.
    """

    def __init__(self) -> None:
        self.rng = np.random.Generator(np.random.PCG64(0))
        bg, (state, inc, uinteger) = self.rng.bit_generator, _PROBE
        struct = bg.ctypes.state.value
        words = (ctypes.c_uint64 * 4).from_address(ctypes.c_void_p.from_address(struct).value)
        cache = (ctypes.c_uint32 * 2).from_address(struct + ctypes.sizeof(ctypes.c_void_p))
        raw, self.cache = np.ctypeslib.as_array(words), np.ctypeslib.as_array(cache)
        bg.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 1, "uinteger": uinteger}
        self.words = raw.reshape(2, 2)[:, :: _pcg64_halves(raw.tolist(), self.cache.tolist())]
        self._buf = np.empty(0)

    def reset(self, words: np.ndarray) -> np.random.Generator:
        """rng, its PCG64 re-set to a _sweep_states row, with no cached half-word."""
        self.words[...] = words
        self.cache[...] = 0
        return self.rng

    def matrices(self, rows: int, *cols: int) -> list[np.ndarray]:
        """A C-contiguous (rows, c) view for each c of cols, laid end to end
        in the memory, which grows twofold or more; each holds what the last
        block left there."""
        if self._buf.size < rows * sum(cols):
            self._buf = np.empty(max(rows * sum(cols), 2 * self._buf.size))
        ends = [rows * c for c in accumulate(cols, initial=0)]
        return [self._buf[a:b].reshape(rows, c) for a, b, c in zip(ends, ends[1:], cols)]


class AnalyticDistribution:
    """Base of the families.  Each implements, for validated arguments,
    pmf_array(int64 ks), draw(n, rng), h_m(m) -> (H_m, series terms),
    sigma_sq(m) and config().  Finite laws override finite_pmf, and a family
    with a faster way to draw_rows' rows overrides it."""

    shannon_clt = True  # whether the plain Shannon plug-in is asymptotically normal
    zero_sigma = False  # whether sigma_m^2 is exactly 0 at every m: the law is uniform on its support

    def draw_rows(self, n: int, states: list[np.ndarray], work: _Workspace) -> np.ndarray:
        """One sample of n per PCG64 state (a _sweep_states row), as an (R, n)
        int64 matrix: row r is draw(n, work.reset(states[r])).
        A family may also take scratch memory from work, which later blocks
        reuse.  A block of one row is that draw itself, not a copy: at large n
        the copy cost more in page faults than the rest of the tally."""
        rows = [self.draw(n, work.reset(state)) for state in states]
        return rows[0][None, :] if len(rows) == 1 else np.stack(rows)

    def finite_pmf(self) -> CustomFinite:
        raise ValueError(f"{type(self).__name__} does not have finite support")


# Largest accept-test chunk.  Its float arrays (x, w, t, t - 1; 64 KB each)
# stay in L2 cache between the passes, which made a 1e5 draw ~25% faster than
# chunks sized from the need alone.
_ZETA_CHUNK = 8192

# PCG64 is a 128-bit LCG: advancing by its period less k steps back k draws.
_PCG64_PERIOD = 1 << 128


def _zeta_chunk(need: int) -> int:
    """Candidates to test for need more values: half again as many plus 64,
    at most _ZETA_CHUNK."""
    return min(need + need // 2 + 64, _ZETA_CHUNK)


def _zeta_accept(x: np.ndarray, w: np.ndarray, am1: float, b: float) -> np.ndarray:
    """The accept test of Zeta(1 + am1), b = 2^am1, in place on uniforms u (x)
    and v (w) of one shape: x becomes the candidate floor((1-u)^(-1/am1)),
    and the mask of the kept candidates is returned.

    t = (1 + 1/x)^am1, and a candidate is kept when ((v x)(t-1))/(b-1) <= t/b
    and x <= 2^62, in that operation order; `**=` takes the same scalar-power
    shortcuts as `**` (sqrt for 0.5), so each kept value is the float the
    plain expressions give.  Each element's result depends on its own u and v
    alone, whatever the shape or chunking.
    """
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
    return accept


@dataclass(frozen=True)
class Zeta(AnalyticDistribution):
    """P(X = k) = k^{-s} / zeta(s) on k = 1, 2, ...; requires 1 < s <= 1024."""

    s: float

    def __post_init__(self) -> None:
        # the normalizer diverges at s <= 1; the sampler's 2^(s-1) overflows past 1024
        if not (1.0 < self.s <= 1024.0):  # NaN fails too
            raise ValueError("Zeta exponent must satisfy 1 < s <= 1024")

    @property
    def shannon_clt(self) -> bool:  # the Shannon CLT's tail conditions fail at s <= 2
        return self.s > 2.0

    def pmf_array(self, ks: np.ndarray) -> np.ndarray:
        return ks.astype(np.float64) ** (-self.s) / riemann_zeta(self.s)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Rejection sampler with a Zipf-type envelope: the first n candidates
        ``_zeta_accept`` keeps, in the stream order of ``_fill``'s batches.

        Inverse-CDF tables are infeasible here: the tail P(X > k) ~ c k^{1-s}
        decays too slowly to truncate at machine precision.  Candidates above
        2^62 are dropped (inf and nan fail the comparisons too): the sampled
        law is truncated there, losing a tail mass of about
        2^(62(1-s)) / ((s-1) zeta(s)), which matters only for s near 1.
        Where rng stands afterwards is unspecified, and a 32-bit half-word it
        held may be dropped.  A batch larger than one chunk (as at n > 4096)
        is streamed with ``advance``, so it needs a PCG64 generator, as
        ``draw`` and the coverage engine build; any other raises TypeError.
        """
        out = np.empty(n, dtype=np.int64)
        self._fill(out, 0, rng)
        return out

    def _fill(self, out: np.ndarray, filled: int, rng: np.random.Generator) -> None:
        """Fill out[filled:] with the acceptances of rng's next batches.

        A batch is 2 * (values still needed) candidates, at least 64: all its
        u, then all its v, from rng's stream, tested chunk by chunk
        (``_accept_into``) until out is full.  It is streamed through two
        reused chunk-sized buffers, read at two cursors a batch apart: a fill
        takes the rest of the batch if it fits the buffers, else one chunk,
        drawing its u, advancing to its v and drawing them; a later fill of
        the batch first steps back to its u by advancing the period 2^128
        less the batch.  The values are those of drawing and testing whole
        batches; where rng ends is not.
        """
        u, v = np.empty(_ZETA_CHUNK), np.empty(_ZETA_CHUNK)
        bg = rng.bit_generator
        while filled < out.size:
            batch = max(2 * (out.size - filled), 64)
            used = 0
            while used < batch and filled < out.size:
                if used:
                    bg.advance(_PCG64_PERIOD - batch)  # back to this fill's u
                size = batch - used
                if size > _ZETA_CHUNK:
                    size = _zeta_chunk(out.size - filled)
                rng.random(out=u[:size])
                if size < batch:
                    if not isinstance(bg, np.random.PCG64):
                        raise TypeError(f"a streamed Zeta draw needs PCG64, got {type(bg).__name__}")
                    bg.advance(batch - size)  # from this fill's u to its v
                rng.random(out=v[:size])
                filled = self._accept_into(out, filled, u[:size], v[:size])
                used += size

    def _accept_into(self, out: np.ndarray, filled: int, u: np.ndarray, v: np.ndarray) -> int:
        """Run the accept test in place on u and v, chunk by chunk, until out
        is full; returns how much of out is filled."""
        am1 = self.s - 1.0
        b = 2.0**am1
        start = 0
        while start < u.size and filled < out.size:
            need = out.size - filled
            stop = min(start + _zeta_chunk(need), u.size)
            x = u[start:stop]
            kept = np.compress(_zeta_accept(x, v[start:stop], am1, b), x)
            start = stop
            take = min(kept.size, need)
            out[filled : filled + take] = kept[:take]
            filled += take
        return filled

    def draw_rows(self, n: int, states: list[np.ndarray], work: _Workspace) -> np.ndarray:
        """The rows of ``draw``, with one accept test for the whole block.

        Each row's first batch (2n candidates, at least 64) is drawn, u then
        v, from work.rng re-set to the row's state, into its row of an
        (R, 2 batch) matrix uv.  The first chunk ``draw`` would test of every
        row, its u and its v, is copied into contiguous (R, width) matrices x
        and w, and the accept test runs once on them (on uv's strided slices
        it took nearly twice as long); each result reads only its own u and v,
        so the copy moves no bit.  A row with n acceptances there keeps its
        first n.  A row left short (often near s = 1) goes on as ``draw``
        does: through the rest of its batch in uv, then through its own
        stream, re-set and advanced past the first batch, by ``_fill``.  Rows
        whose batch exceeds one chunk are drawn one by one by ``draw``: picking
        them out of a block cost more than it saved.  uv, x and w are views of
        work's memory, each written whole before it is read.
        """
        batch = max(2 * n, 64)
        if batch > _ZETA_CHUNK:
            return super().draw_rows(n, states, work)
        am1 = self.s - 1.0
        width = min(_zeta_chunk(n), batch)
        uv, x, w = work.matrices(len(states), 2 * batch, width, width)
        random, words = work.reset(states[0]).random, work.words  # the cached half-word dropped
        for row, state in zip(uv, states):  # work.reset, inlined: random caches no half-word
            words[...] = state
            random(out=row)
        x[...] = uv[:, :width]
        w[...] = uv[:, batch : batch + width]
        accept = _zeta_accept(x, w, am1, 2.0**am1)
        pos = np.flatnonzero(accept)  # r * width + column, row after row
        bounds = pos.searchsorted(np.arange(0, accept.size + 1, width))
        full = bounds[1:] - bounds[:-1] >= n
        out = np.empty((len(states), n), dtype=np.int64)
        out[full] = x.ravel()[pos[bounds[:-1][full, None] + np.arange(n)]]
        for r in np.flatnonzero(~full):
            row = out[r]
            kept = np.compress(accept[r], x[r])
            row[: kept.size] = kept
            filled = self._accept_into(row, kept.size, uv[r, width:batch], uv[r, batch + width :])
            if filled < n:
                work.reset(states[r]).bit_generator.advance(2 * batch)
                self._fill(row, filled, work.rng)
        return out

    def h_m(self, m: int) -> tuple[float, int]:
        """H_m from the closed-form structure q_k = k^{-t}/zeta(t), t = m s.

        H_m = ln zeta(t) + t * (sum k^{-t} ln k) / zeta(t).
        """
        t = m * self.s
        z, terms_0 = power_log_series(t, 0)
        s1, terms_1 = power_log_series(t, 1)
        return math.log(z) + t * s1 / z, max(terms_0, terms_1)

    def sigma_sq(self, m: int) -> float:
        """Closed-form expansion over the series S_j(a) = sum k^{-a} ln^j k.

        With t = m s, q_k = k^{-t}/zeta(t) and c = H_m - ln zeta(t):
        sigma^2 = (m^2 zeta(s)/zeta(t)^2) [c^2 S_0(a) - 2 c t S_1(a) + t^2 S_2(a)],
        where a = 2t - s > 1.
        """
        s = self.s
        t = m * s
        a = 2.0 * t - s
        z_t = riemann_zeta(t)
        # H_m as h_m forms it, less ln zeta(t): this keeps sigma^2's bits, which
        # the shorter t S_1(t) / zeta(t) changes in the last place
        c = (math.log(z_t) + t * power_log_series(t, 1)[0] / z_t) - math.log(z_t)
        z_s = riemann_zeta(s)
        s0 = power_log_series(a, 0)[0]
        s1 = power_log_series(a, 1)[0]
        s2 = power_log_series(a, 2)[0]
        return (m * m * z_s / z_t**2) * (c * c * s0 - 2.0 * c * t * s1 + t * t * s2)

    def config(self) -> dict:
        return {"kind": "zeta", "s": self.s}


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
        with np.errstate(over="ignore"):  # past a subnormal q the quotient is inf, refused below
            k = np.floor(np.log1p(-u) / math.log1p(-self.q))
        if k.max() >= 2.0**63:  # the int64 cast would wrap it to a negative value
            raise ValueError(f"Geometric(q={self.q!r}) drew a value past the int64 bound 2**63 - 1")
        return k.astype(np.int64) + 1

    def h_m(self, m: int) -> tuple[float, int]:
        # the m-collision law is Geometric(h): H_m = -ln h - rho ln(rho) / h,
        # h = 1 - rho, rho = (1-q)^m, from
        # log1p and expm1 so that no digit is lost as q -> 0
        log_rho = m * math.log1p(-self.q)
        h = -math.expm1(log_rho)
        return -math.log(h) - math.exp(log_rho) * (log_rho / h), 0

    def sigma_sq(self, m: int) -> float:
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

    def config(self) -> dict:
        return {"kind": "geometric", "q": self.q}


@dataclass(frozen=True)
class UniformFinite(AnalyticDistribution):
    """Uniform over categories 1..K, for 1 <= K <= 2^53."""

    K: int
    zero_sigma = True

    def __post_init__(self) -> None:
        # a bool equals 0 or 1 but is not a count, nor is NaN or inf; the float 1e6 is one
        if isinstance(self.K, (bool, np.bool_)) or not 1 <= self.K < math.inf or int(self.K) != self.K:
            raise ValueError("UniformFinite needs a positive integer number of categories")
        # draws are floor(u K) of 53-bit uniforms u, which miss categories past 2^53
        if self.K > 2**53:
            raise ValueError(f"UniformFinite supports at most 2**53 categories, got K={self.K}")
        object.__setattr__(self, "K", int(self.K))

    def pmf_array(self, ks: np.ndarray) -> np.ndarray:
        return np.where(ks <= self.K, 1.0 / self.K, 0.0)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.floor(rng.random(n) * self.K).astype(np.int64) + 1

    def h_m(self, m: int) -> tuple[float, int]:
        # np.log, not math.log: the two can differ in the last bit, and a
        # degenerate interval covers only a truth equal to the kernel's ln K
        return float(np.log(float(self.K))), self.K

    def sigma_sq(self, m: int) -> float:
        return 0.0

    def finite_pmf(self) -> CustomFinite:
        return CustomFinite(np.full(self.K, 1.0 / self.K))

    def config(self) -> dict:
        return {"kind": "uniform", "K": self.K}


@dataclass(frozen=True, eq=False)
class CustomFinite(AnalyticDistribution):
    """An explicit probability vector over categories 1..K.  Zero entries
    are permitted; size is K, zeros included.  probs is a read-only copy,
    so a later write to the caller's array changes neither the law nor its
    hash; laws with equal entries are equal and hash alike."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probability vector must be 1-d and nonempty")
        # NaN fails both bounds; entries of at most 1 cannot sum to inf
        if not np.all((probs >= 0.0) & (probs <= 1.0 + PMF_ATOL)):
            raise ValueError("probabilities must lie in [0, 1]")
        total = float(probs.sum())
        if abs(total - 1.0) > PMF_ATOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1 within {PMF_ATOL}")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CustomFinite) and np.array_equal(self.probs, other.probs)

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.probs + 0.0).tobytes())

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @property
    def zero_sigma(self) -> bool:
        return bool(np.all(self.probs[self.probs > 0.0] == self.probs.max()))

    def pmf_array(self, ks: np.ndarray) -> np.ndarray:
        out = np.zeros(ks.shape, dtype=np.float64)
        inside = ks <= self.size
        out[inside] = self.probs[ks[inside] - 1]
        return out

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        return np.searchsorted(cum, rng.random(n), side="right").astype(np.int64) + 1

    def h_m(self, m: int) -> tuple[float, int]:
        p = self.probs
        return float(collision_log_weights(p[p > 0.0], m)[2][0]), self.size

    def sigma_sq(self, m: int) -> float:
        p = self.probs
        return float(h_sigma_sq(p[p > 0.0], m)[1][0])

    def finite_pmf(self) -> CustomFinite:
        return self

    def config(self) -> dict:
        return {"kind": "custom", "probs": self.probs.tolist()}


def finite_pmf(dist: AnalyticDistribution) -> CustomFinite:
    """The explicit probability vector of a finite-support distribution."""
    return dist.finite_pmf()


def pmf_at(dist: AnalyticDistribution, k: int) -> float:
    """Pointwise probability P(X = k) for category k >= 1."""
    k = _count(k, "category index k", 1)
    if k > _INT64_MAX:
        raise ValueError(f"category index k must be at most 2**63 - 1, got {k}")
    return float(dist.pmf_array(np.asarray([k], dtype=np.int64))[0])


def truncation_index(dist: AnalyticDistribution, m: int) -> int:
    """The number of series terms H_m sums: the second value of
    gse_analytic_info, which gse compute prints as its truncation terms."""
    return dist.h_m(_check_order(m))[1]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def derive_seed(master: int, *path: int) -> int:
    """Counter-based split of a master seed: a deterministic function of
    (master, path) that gives replicates and grid points independent streams
    whose values do not depend on execution order."""
    ss = np.random.SeedSequence(entropy=operator.index(master) & _MASK64,
                                spawn_key=tuple(int(p) & _MASK64 for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


# Batched seeding: the arithmetic of numpy's SeedSequence (bit_generator.pyx,
# after O'Neill's seed_seq_fe) on uint32 arrays, one value per replicate, and
# PCG64's seeding (two steps of its 128-bit LCG) on uint64 halves.  derive_seed
# and draw stay the reference definition; the tests hold these to them.

_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = _PCG64_MULT >> 64, _PCG64_MULT & _MASK64
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    consts = [init]
    while len(consts) < count:
        consts.append(consts[-1] * mult & _MASK32)
    return consts


# the multiplier before and after each hash call: 16 calls fill and cross-mix
# the 4-word pool, 4 more per entropy word past the fourth; generate_state
# hashes 8 words for PCG64's four uint64s
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 25)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)


def _hashmix(value: np.ndarray, k: int) -> np.ndarray:
    """SeedSequence's hashmix as its k-th call while mixing the entropy."""
    value = (value ^ _HASH_A[k]) * _HASH_A[k + 1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * _MIX_MULT_L - y * _MIX_MULT_R
    return value ^ (value >> 16)


def _entropy_pool(low: np.ndarray, high: np.ndarray) -> list[np.ndarray]:
    """The pool of a SeedSequence whose first four entropy words are
    (low, high, 0, 0).  A 64-bit value of one word (or none) hashes the same,
    since a missing word is hashed as 0."""
    pool = [_hashmix(word, k) for k, word in enumerate((low, high, low & 0, low & 0))]
    k = 4
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], k))
                k += 1
    return pool


def _mix_word(pool: list[np.ndarray], word: np.ndarray, k: int) -> list[np.ndarray]:
    """Mix one more entropy word into every pool word, from hash call k on."""
    return [_mix(p, _hashmix(word, k + i)) for i, p in enumerate(pool)]


def _generate_state(pool: list[np.ndarray], words: int) -> list[np.ndarray]:
    """SeedSequence.generate_state(words // 2, np.uint64), one uint64 array per state word."""
    out = []
    for i in range(words):
        value = (pool[i % 4] ^ _HASH_B[i]) * _HASH_B[i + 1]
        out.append(value ^ (value >> 16))
    return [lo.astype(np.uint64) | hi.astype(np.uint64) << 32 for lo, hi in zip(out[::2], out[1::2])]


def _uint32_words(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (values & _MASK32).astype(np.uint32), (values >> 32).astype(np.uint32)


def _derive_seeds(pool: np.ndarray, path: np.ndarray) -> np.ndarray:
    """derive_seed(master, r) for each r of a uint64 array, given master's
    pool, the _entropy_pool of its words that no r changes (a spawn key
    follows four words), as one column for every r, or one column per r."""
    low, high = _uint32_words(path)
    pool = _mix_word(pool, low, 16)
    wide = high != 0  # a key of 2^32 or more is two entropy words
    if wide.any():
        pool = [np.where(wide, two, one) for two, one in zip(_mix_word(pool, high, 20), pool)]
    return _generate_state(pool, 2)[0]


def _mul_hi(x: np.ndarray, y: int) -> np.ndarray:
    """The high word of x * y, for uint64 x and a 64-bit y, from 32-bit pieces."""
    x0, x1, y0, y1 = x & _MASK32, x >> 32, y & _MASK32, y >> 32
    cross0, cross1 = x0 * y1, x1 * y0
    mid = (x0 * y0 >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    return x1 * y1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)


def _pcg64_seed(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> list[np.ndarray]:
    """PCG64's seeding from generate_state's uint64 words (a, b, c, d), on
    (high, low) uint64 halves: inc = (c:d) 2 + 1, state = ((a:b) + inc) M +
    inc mod 2^128.  Returns the halves of state, then of inc."""
    inc_hi, inc_lo = c << 1 | d >> 63, d << 1 | 1
    lo = b + inc_lo
    hi = a + inc_hi + (lo < b)
    hi = _mul_hi(lo, _MULT_LO) + lo * _MULT_HI + hi * _MULT_LO
    lo = lo * _MULT_LO + inc_lo
    return [hi + inc_hi + (lo < inc_lo), lo, inc_hi, inc_lo]


def _pcg64_states(seeds: np.ndarray) -> Iterator[np.ndarray]:
    """PCG64(SeedSequence(d))'s state for each d of a uint64 array, in turn, as
    a _Workspace.reset row, [[state lo, state hi], [inc lo, inc hi]]."""
    hi, lo, inc_hi, inc_lo = _pcg64_seed(*_generate_state(_entropy_pool(*_uint32_words(seeds)), 8))
    return iter(np.stack((lo, hi, inc_lo, inc_hi), axis=1).reshape(-1, 2, 2))


# States in one _sweep_states pass, apart from the sample blocks (one row each
# at large n): a pass costs a fixed 0.2 ms or so whatever its size, and the
# cap bounds the states held at once (32 bytes each) whatever the grid or reps.
_SEED_BLOCK = 4096


def _sweep_states(masters: Iterable[int], count: int) -> Iterator[np.ndarray]:
    """For each master in turn, and r = 0, 1, ..., count - 1 within it, the
    PCG64 state (a _pcg64_states row) that draw(.., derive_seed(master, r)) seeds.

    One pass derives the states of a _SEED_BLOCK slice of the flat (master,
    r) index (the last slice fewer), so consecutive masters share a pass and
    a master's replicates may span passes.  The index is uint64, so every r
    of a count below 2^64 is exact."""
    masters = np.array([operator.index(master) & _MASK64 for master in masters], np.uint64)
    pools = np.array(_entropy_pool(*_uint32_words(masters)))  # one column per master, in one pass
    total = pools.shape[1] * count
    for start in range(0, total, _SEED_BLOCK):
        point, path = np.divmod(np.arange(start, min(start + _SEED_BLOCK, total), dtype=np.uint64), count)
        yield from _pcg64_states(_derive_seeds(pools.take(point, axis=1), path))


def _replicate_states(master: int, count: int) -> Iterator[np.ndarray]:
    """The _sweep_states of one master."""
    return _sweep_states((master,), count)


def draw(dist: AnalyticDistribution, n: int, seed: int) -> np.ndarray:
    """n iid observations as an int64 array; deterministic function of (dist, n, seed)."""
    n = _count(n, "sample size n", 1)
    return dist.draw(n, np.random.default_rng(np.random.SeedSequence(operator.index(seed) & _MASK64)))


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
            return CustomFinite([_number(p) for p in obj["probs"]])
    except KeyError as exc:
        raise ValueError(f"distribution config for kind={kind!r} is missing field {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"distribution config for kind={kind!r} has a non-numeric parameter: {exc}") from exc
    raise ValueError(f"unknown distribution kind {kind!r}")

