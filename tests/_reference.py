"""Independent reference implementations and frozen oracle constants.

Everything in this module is deliberately written without touching the
library's own code paths (plain loops, brute-force partial sums, bisection)
so tests compare two genuinely different routes to each number.

The frozen constants were computed with mpmath at 40 decimal digits:
zeta and its derivatives for the Zeta-family values, exact rational
arithmetic pushed through the definitions for the two-point pmf, and
nsum for the geometric series.  The mp_* functions recompute H_m and
sigma_m^2 in mpmath for any parameter; mpmath is imported when they run.
"""

import functools
import math
import operator

import numpy as np

# --- zeta-family ground truth -------------------------------------------------
ZETA_15 = 2.6123753486854883  # zeta(1.5)
ZETA_3 = 1.2020569031595943
NEG_ZETA_PRIME_3 = 0.19812624288563685  # sum k^-3 ln k
H2_ZETA15 = 0.6785022218663231  # ln zeta(3) + 3 (-zeta'(3))/zeta(3)
H3_ZETA15 = 0.23995877918865769
H1_ZETA15 = 3.2181129364131871  # Shannon entropy, finite despite the heavy tail
SIG2_M1_ZETA15 = 8.673666560271086
SIG2_M2_ZETA15 = 3.4234484253753643
SIG2_M3_ZETA15 = 1.8998656766925047
ZETA15_PMF1 = 0.38279338399942656  # 1/zeta(1.5)
ZETA2_PMF1 = 0.6079271018540266  # 6/pi^2

# --- two-point pmf (0.3, 0.7) -------------------------------------------------
H2_POINT37 = 0.43157722083182143  # -(9/58) ln(9/58) - (49/58) ln(49/58)
SIG2_POINT37 = 0.9400222039488076
SHANNON_POINT37 = 0.6108643020548935

# --- geometric(q = 0.5) -------------------------------------------------------
H2_GEOM_HALF = 0.7497801928250778  # ln(4/3) + (ln 4)/3
H3_GEOM_HALF = 0.43059447000735633
SIG2_M2_GEOM_HALF = 1.9722386110694682
SIG2_M3_GEOM_HALF = 2.8007583568557797

# --- standard normal quantiles ------------------------------------------------
Z_975 = 1.9599639845400545
Z_995 = 2.5758293035489008
Z_95 = 1.6448536269514727


def naive_cdotc(p, m):
    """Textbook collision conditioning, no log-space tricks."""
    p = np.asarray(p, dtype=float)
    weights = p**m
    return weights / weights.sum()


def naive_entropy(q):
    """-sum q ln q over the positive entries, plain arithmetic."""
    q = np.asarray(q, dtype=float)
    q = q[q > 0]
    return float(-np.sum(q * np.log(q)))


def naive_gse(p, m):
    return naive_entropy(naive_cdotc(p, m))


def brute_zeta(s, terms=2_000_000):
    """Partial sum plus the plain integral tail bound; returns (value, bound)."""
    ks = np.arange(1, terms + 1, dtype=float)
    partial = float(np.sum(ks**-s))
    tail_low = (terms + 1) ** (1.0 - s) / (s - 1.0)  # integral from terms+1
    tail_high = terms ** (1.0 - s) / (s - 1.0)  # integral from terms
    return partial + 0.5 * (tail_low + tail_high), 0.5 * (tail_high - tail_low)


def brute_zeta_collision_entropy(s, m, terms=3_000_000):
    """Direct truncated series for the order-m entropy of Zeta(s).

    Sums -q_k ln q_k with q_k = k^{-t}/Z where Z itself is a brute partial
    sum; adequate for tolerances around 1e-7 at t >= 3.
    """
    t = m * s
    ks = np.arange(1, terms + 1, dtype=float)
    weights = ks**-t
    z = weights.sum()
    q = weights / z
    return float(-np.sum(q * np.log(q)))


def geometric_gse_closed_form(q, m):
    """H of a geometric law with ratio (1-q)^m, via the closed form."""
    rho = (1.0 - q) ** m
    return -math.log(1.0 - rho) - rho / (1.0 - rho) * math.log(rho)


def geometric_sigma_sq_closed_form(q, m, terms=400):
    """Brute series for the delta-method variance of Geometric(q).

    Geometric tails make a few hundred terms exact to machine precision."""
    r = 1.0 - q
    rho = r**m
    h = 1.0 - rho
    big_h = geometric_gse_closed_form(q, m)
    total = 0.0
    for k in range(1, terms + 1):
        pk = q * r ** (k - 1)
        qk = h * rho ** (k - 1)
        if qk < 1e-250:  # remaining terms are below any tolerance in use
            break
        total += (m**2 / pk) * (qk * math.log(qk) + qk * big_h) ** 2
    return total


def mp_geometric_h_sigma_sq(q, m):
    """(H_m, sigma_m^2) of Geometric(q) in mpmath at 60 digits.

    (1-q)^m and (1-q)^(2m-1) come from log1p and one minus them from expm1,
    so q down to 1e-307 keeps its digits.  sigma^2 is expanded over the raw
    index sums: m^2 (h^2/q) ln^2(rho) sum_{j>=0} x^j (j - rho/h)^2 with
    sum x^j = 1/(1-x), sum j x^j = x/(1-x)^2, sum j^2 x^j = x(1+x)/(1-x)^3;
    mpmath's exponent range takes the 1/q^3 sizes that overflow a float.
    """
    import mpmath

    with mpmath.workdps(60):
        q = mpmath.mpf(q)
        log_r = mpmath.log1p(-q)
        log_rho = m * log_r
        rho = mpmath.exp(log_rho)
        h = -mpmath.expm1(log_rho)
        x = mpmath.exp((2 * m - 1) * log_r)
        one = -mpmath.expm1((2 * m - 1) * log_r)
        big_h = -(h * mpmath.log(h) + rho * log_rho) / h
        c = rho / h
        series = c * c / one - 2 * c * x / one**2 + x * (1 + x) / one**3
        return float(big_h), float(m * m * h * h / q * log_rho**2 * series)


def mp_zeta_h_sigma_sq(s, m):
    """(H_m, sigma_m^2) of Zeta(s) from mpmath's zeta and its derivatives.

    With t = m s, a = 2t - s and S_j(a) = sum k^-a ln^j k = (-1)^j zeta^(j)(a):
    H_m = ln zeta(t) - t zeta'(t)/zeta(t), and with c = H_m - ln zeta(t),
    sigma^2 = m^2 zeta(s)/zeta(t)^2 (c^2 S_0 - 2 c t S_1 + t^2 S_2).
    """
    import mpmath

    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        t = m * s
        a = 2 * t - s
        z_t = mpmath.zeta(t)
        c = -t * mpmath.zeta(t, derivative=1) / z_t
        series = (c * c * mpmath.zeta(a) + 2 * c * t * mpmath.zeta(a, derivative=1)
                  + t * t * mpmath.zeta(a, derivative=2))
        return float(mpmath.log(z_t) + c), float(m * m * mpmath.zeta(s) / z_t**2 * series)


def mp_free_gradient(p, m):
    """dH_m/dp_i of the float vector p along each free coordinate i (p_K
    absorbs the move), by mpmath's numerical derivative at 50 digits of
    H_m = -sum q ln q, q = p^m / sum p^m, written out from the definition."""
    import mpmath

    with mpmath.workdps(50):
        base = [mpmath.mpf(float(x)) for x in p]

        def entropy(i, t):
            moved = list(base)
            moved[i] += t
            moved[-1] -= t
            weights = [x**m for x in moved]
            total = mpmath.fsum(weights)
            return -mpmath.fsum(w / total * mpmath.log(w / total) for w in weights)

        return np.array([float(mpmath.diff(lambda t: entropy(i, t), 0)) for i in range(len(base) - 1)])


def mp_sigma_sq_literal(p, m):
    """sigma_sq_literal of a pmf in mpmath at 50 digits, from the
    inside-the-square formula sum_k ((m^2 / p_k) q_k (ln q_k + H_m))^2 over
    its positive entries, q_k = p_k^m / sum p_i^m."""
    import mpmath

    with mpmath.workdps(50):
        p = [mpmath.mpf(float(x)) for x in p if x > 0.0]
        total = mpmath.fsum(x**m for x in p)
        q = [x**m / total for x in p]
        h = -mpmath.fsum(y * mpmath.log(y) for y in q)
        return float(mpmath.fsum(((m * m / x) * y * (mpmath.log(y) + h)) ** 2 for x, y in zip(p, q)))


def normal_quantile_bisect(p, tol=1e-12):
    """Root-find Phi(x) = p on erf alone, independent of the library path."""
    lo, hi = -40.0, 40.0

    def cdf(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def classical_entropy_variance(p):
    """Classical m=1 plug-in variance: sum p ln^2 p - (sum p ln p)^2."""
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    log_p = np.log(p)
    return float(np.dot(p, log_p**2) - np.dot(p, log_p) ** 2)


def fd_gradient_loop(pmf, m, h):
    """Central finite differences with one gse call per perturbed vector.

    The one function here that calls the library: it is the per-vector
    route that the stacked finite differences must reproduce bit for bit
    (gse itself is checked against naive_gse).  Row i moves p_i by +/-h and
    the last entry absorbs the change.
    """
    from gsentropy import CustomFinite, gse

    p = pmf.probs
    out = np.empty(p.size - 1)
    for i in range(p.size - 1):
        plus = p.copy()
        plus[i] += h
        plus[-1] -= h
        minus = p.copy()
        minus[i] -= h
        minus[-1] += h
        out[i] = (gse(CustomFinite(plus), m) - gse(CustomFinite(minus), m)) / (2.0 * h)
    return out


def ordered_dot(a, b):
    """sum a_i b_i of two 1-d vectors, added left to right as Python floats:
    the order the oracles' cumulative sums take.  The builtin sum compensates
    from Python 3.12 on, and an initial 0.0 would turn a -0.0 into 0.0."""
    return functools.reduce(operator.add, (x * y for x, y in zip(map(float, a), map(float, b))))


def full_gradient_per_pmf(p, m):
    """The full gradient g_k = -(m q_k / p_k)(ln q_k + H) of one pmf, each
    step written out: the per-pmf route that the oracles' shared weight pass
    must reproduce bit for bit."""
    w = m * np.log(p)
    w -= w.max()
    log_q = w - np.log(np.sum(np.exp(w)))
    q = np.exp(log_q)
    h = -ordered_dot(q, log_q)
    return -(m * q / p) * (log_q + h)


def analytic_gradient_per_pmf(p, m):
    """The K-1 free partial derivatives g_i - g_K of one pmf."""
    g = full_gradient_per_pmf(p, m)
    return g[:-1] - g[-1]


def delta_variance_per_pmf(p, m):
    """grad^T Sigma grad of one pmf with the explicit multinomial covariance."""
    g = analytic_gradient_per_pmf(p, m)
    v = p[:-1]
    cov = np.diag(v) - np.outer(v, v)
    return ordered_dot([ordered_dot(g, column) for column in cov.T], g)


def mean_zero_per_pmf(p, m):
    """sum_k p_k g_k of one pmf's full gradient."""
    return ordered_dot(p, full_gradient_per_pmf(p, m))


def run_verification_loops(corpus_seed, corpus_size, m_values):
    """The verify battery as one loop per check, each recomputing its pmf's
    weights: the report the library's K-group pass must reproduce exactly.

    Like fd_gradient_loop it calls the library, for the corpus, one
    fd_gradient a pmf and the kernel sweep of closed-form variances (both
    checked bit for bit in test_oracles), the literal diagnostic and the
    report types.
    """
    from gsentropy import VerificationReport, fd_gradient, pmf_corpus, sigma_sq_literal, sigma_sq_true
    from gsentropy.oracles import CheckResult, _sigma_sq_sweeps

    m_values = tuple(m_values)
    corpus = pmf_corpus(seed=corpus_seed, size=corpus_size)
    probs = [pmf.probs for pmf in corpus]
    checks = []

    worst = 0.0
    for m in m_values:
        for pmf in corpus:
            a = analytic_gradient_per_pmf(pmf.probs, m)
            f = fd_gradient(pmf, m)
            gap = np.abs(a - f) / np.maximum(1.0, 1e2 * np.abs(a))
            worst = max(worst, float(gap.max()))
    checks.append(CheckResult(
        "gradient vs finite differences (tol max(1e-6, 1e-4|g|))",
        worst <= 1e-6, f"worst normalized gap {worst:.3e}"))

    sigma_sq = {m: v.tolist() for m, v in _sigma_sq_sweeps(probs, {1, 2, *m_values})[0].items()}

    worst = 0.0
    for m in m_values:
        for p, direct in zip(probs, sigma_sq[m]):
            quad = delta_variance_per_pmf(p, m)
            worst = max(worst, abs(direct - quad) / max(abs(quad), 1e-30))
    checks.append(CheckResult(
        "variance series vs delta-method quadratic form (rel tol 1e-8)",
        worst <= 1e-8, f"worst relative gap {worst:.3e}"))

    worst = 0.0
    for p, direct in zip(probs, sigma_sq[1]):
        log_p = np.log(p)
        h = ordered_dot(p, log_p)
        classical = ordered_dot(p, log_p**2) - h * h
        worst = max(worst, abs(direct - classical))
    checks.append(CheckResult(
        "m=1 reduction to sum p ln^2 p - H^2 (abs tol 1e-12)",
        worst <= 1e-12, f"worst absolute gap {worst:.3e}"))

    worst = 0.0
    for p in probs:
        for m in m_values:
            worst = max(worst, abs(mean_zero_per_pmf(p, m)))
    checks.append(CheckResult(
        "mean-zero identity sum p_k g_k = 0 (abs tol 1e-12)",
        worst <= 1e-12, f"worst absolute value {worst:.3e}"))

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


def mc_variance_loop(dist, m, n, reps, seed):
    """The Monte Carlo variance oracle as one draw, seed derivation and
    plug-in estimate per replicate: the route the coverage engine's blocks
    must reproduce bit for bit.  Like fd_gradient_loop it calls the library,
    for the seeded sample and the one-sample estimate."""
    from gsentropy import derive_seed, gse_analytic, gse_plugin, sample

    if reps < 100:
        raise ValueError("need at least 100 replicates for a meaningful variance")
    h_true = gse_analytic(dist, m)
    scale = np.sqrt(float(n))
    values = np.empty(reps)
    for r in range(reps):
        counts = sample(dist, n, derive_seed(seed, r))
        values[r] = scale * (gse_plugin(counts, m) - h_true)
    return float(np.var(values, ddof=1))


def _encode_labels_loop(label_counts):
    from gsentropy import SampleCounts

    labels = sorted(label for label, count in label_counts.items() if count > 0)
    if not labels:
        raise ValueError("no observations: all counts are zero or the file is empty")
    counts = SampleCounts(np.arange(1, len(labels) + 1), [label_counts[label] for label in labels])
    return counts, tuple(labels)


def _decode_error(path):
    """The readers' error for a file that is not UTF-8, its offset taken from
    one decode of the whole file with the byte-order mark cut off by hand."""
    from pathlib import Path

    data = Path(path).read_bytes()
    bom = 3 if data.startswith(b"\xef\xbb\xbf") else 0
    try:
        data[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        return ValueError(f"{path}: byte {bom + exc.start} is not UTF-8 ({exc.reason})")
    raise AssertionError(f"{path} decodes as a whole")


def _less_bom(lines):
    """The lines, the first less a leading byte-order mark (only a whole one,
    so a mark cut short is not UTF-8)."""
    for number, line in enumerate(lines):
        yield line.removeprefix("\ufeff") if number == 0 else line


def read_counts_csv_rows(path):
    """The counts-CSV reader as one Counter update per row.

    Like fd_gradient_loop it builds the library's SampleCounts; the blank-row
    test, the pattern, the negative check, the digit count and the int64
    checks run on every row, in the order of the error messages.
    """
    import csv
    import re
    from collections import Counter

    label_counts, total = Counter(), 0
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(_less_bom(handle))
        try:
            header = next(reader, None)
            if header is None or tuple(h.strip().lower() for h in header) != ("category", "count"):
                raise ValueError(f"expected header 'category,count' in {path}")
            for row_number, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise ValueError(f"{path}:{row_number}: expected two columns, got {len(row)}")
                field = row[1]
                if not re.fullmatch(r"[+-]?[0-9]+", field.strip()):
                    raise ValueError(f"{path}:{row_number}: count {field!r} is not an integer")
                # a negative count is refused first; past 19 significant digits no
                # count fits in int64, and int() is never asked to read such a
                # field, nor one padded with zeros
                digits = field.strip().lstrip("+-").lstrip("0")
                if "-" in field and digits:
                    raise ValueError(f"{path}:{row_number}: negative count -{digits}")
                if len(digits) > 19:
                    raise ValueError(f"{path}:{row_number}: count of {len(digits)} digits "
                                     "does not fit in int64")
                # a count past int64 is refused by the row, and so is the row at
                # which the file's total (so any label's) passes int64
                count = int(digits or "0")
                total += count
                if count > 2**63 - 1:
                    raise ValueError(f"{path}:{row_number}: count {count} does not fit in int64")
                if total > 2**63 - 1:
                    raise ValueError(f"{path}:{row_number}: counts total {total}, "
                                     "which does not fit in int64")
                label_counts[row[0].strip()] += count
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
        except UnicodeDecodeError:
            raise _decode_error(path) from None
    return _encode_labels_loop(label_counts)


def read_raw_labels_lines(path):
    """The raw-label reader as a text-mode file read line by line, each
    line stripped (universal newlines; a leading byte-order mark dropped).
    Like the CSV reader, it names a bad byte by its offset in the file."""
    from collections import Counter

    try:
        with open(path, encoding="utf-8") as handle:
            label_counts = Counter(line.strip() for line in _less_bom(handle))
    except UnicodeDecodeError:
        raise _decode_error(path) from None
    del label_counts[""]
    return _encode_labels_loop(label_counts)


def zeta_draw_whole_batch(s, n, seed=None, rng=None):
    """Zeta(s) rejection draw that runs the accept test on each whole batch.

    Same random stream as the library sampler (batches of 2 * still needed
    candidates, at least 64, u before v), written as plain expressions with
    explicit guards, so the library's chunked in-place form can be checked
    value for value against it.  It draws from rng when one is given (a
    generator in any state, or of another kind), else from the stream of
    seed.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
    am1 = s - 1.0
    b = 2.0**am1
    kept = []
    while len(kept) < n:
        batch = max(2 * (n - len(kept)), 64)
        u = 1.0 - rng.random(batch)
        v = rng.random(batch)
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.floor(u ** (-1.0 / am1))
            ok = np.isfinite(x) & (x <= 2.0**62)
            t = np.where(ok, (1.0 + 1.0 / np.where(ok, x, 1.0)) ** am1, 2.0)
            accept = ok & (v * x * (t - 1.0) / (b - 1.0) <= t / b)
        kept.extend(x[accept][: n - len(kept)].astype(np.int64).tolist())
    return np.array(kept, dtype=np.int64)


def stable_from_rescan(result, band_se):
    """stable_from by its definition: for each grid point in order, re-check
    every later point against the band, and return the first n that passes."""
    level = 1.0 - result.alpha
    pts = result.points
    for i, start in enumerate(pts):
        if all(abs(p.coverage - level) <= band_se * math.sqrt(level * (1 - level) / p.reps)
               for p in pts[i:]):
            return start.n
    return None


def exact_coverage(probs, m, n, alpha):
    """Exact coverage of the order-m interval for a sample of n from a finite
    law: the multinomial probability n!/prod c_k! * prod p_k^c_k summed over
    the compositions c of n into K parts whose interval holds the true H_m.

    Each composition's H_hat_m and sigma_hat_m^2 come from the plug-in pmf
    c/n by plain loops over its observed categories.  The containment rule is
    the engine's: the ends are inclusive, and a zero-width interval (a sample
    empirically uniform over its support) is a hit only when the law is
    uniform and all K categories hold equal counts."""
    import itertools
    from statistics import NormalDist

    k = len(probs)
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    norm = sum(p**m for p in probs)
    truth = -sum(p**m / norm * math.log(p**m / norm) for p in probs)
    uniform = all(p == probs[0] for p in probs)
    # per category and count: ln(p_k^c / c!), and the plug-in (c/n)^m
    log_term = [[c * math.log(p) - math.lgamma(c + 1) for c in range(n + 1)] for p in probs]
    power_hat = [(c / n) ** m for c in range(n + 1)]
    covered = total = 0.0
    # stars and bars: K - 1 bar positions among n + K - 1 slots
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        edges = (-1,) + bars + (n + k - 1,)
        counts = [edges[i + 1] - edges[i] - 1 for i in range(k)]
        weight = math.exp(math.lgamma(n + 1) + sum(log_term[i][c] for i, c in enumerate(counts)))
        total += weight
        observed = [c for c in counts if c]
        if all(c == observed[0] for c in observed):
            covered += weight if uniform and len(observed) == k else 0.0
            continue
        norm = sum(power_hat[c] for c in observed)
        q_hat = [power_hat[c] / norm for c in observed]
        h = -sum(q * math.log(q) for q in q_hat)
        sigma_sq = sum(m * m * n / c * (q * math.log(q) + q * h) ** 2 for c, q in zip(observed, q_hat))
        half = z * math.sqrt(sigma_sq) / math.sqrt(n)
        if h - half <= truth <= h + half:
            covered += weight
    assert abs(total - 1.0) <= 1e-9, total
    return covered
