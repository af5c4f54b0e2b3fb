import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

from gsentropy import (
    CustomFinite,
    DiscretePmf,
    Geometric,
    NonConvergenceError,
    SampleCounts,
    UniformFinite,
    Zeta,
    derive_seed,
    distribution_config,
    draw,
    finite_pmf,
    parse_distribution,
    pmf_at,
    riemann_zeta,
    sample,
    truncation_index,
)
from gsentropy.distributions import _pmf_array, power_log_series

from _reference import ZETA15_PMF1, ZETA2_PMF1, brute_zeta

ALL_FAMILIES = [
    Zeta(1.5),
    Zeta(2.0),
    Geometric(0.5),
    Geometric(0.2),
    UniformFinite(6),
    CustomFinite(DiscretePmf(np.array([0.5, 0.2, 0.2, 0.1]))),
]


class TestValidation:
    def test_zeta_requires_s_above_one(self):
        with pytest.raises(ValueError):
            Zeta(1.0)
        with pytest.raises(ValueError):
            Zeta(0.5)

    def test_geometric_open_interval(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                Geometric(bad)

    def test_uniform_positive_k(self):
        with pytest.raises(ValueError):
            UniformFinite(0)

    def test_pmf_must_normalize(self):
        with pytest.raises(ValueError):
            DiscretePmf(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            DiscretePmf(np.array([1.1, -0.1]))

    def test_pmf_allows_zero_entries(self):
        pmf = DiscretePmf(np.array([0.5, 0.0, 0.5]))
        assert pmf.support_size == 2
        assert pmf.size == 3

    def test_sample_counts_canonical_form(self):
        with pytest.raises(ValueError):
            SampleCounts({1: 3, 2: 0}, 3)  # stored zero
        with pytest.raises(ValueError):
            SampleCounts({1: 3}, 4)  # n mismatch
        counts = SampleCounts.from_observations([5, 5, 2, 9])
        assert counts.counts == {2: 1, 5: 2, 9: 1}
        assert counts.n == 4


class TestRiemannZeta:
    def test_analytic_identities(self):
        assert abs(riemann_zeta(2.0) - math.pi**2 / 6.0) <= 1e-12
        assert abs(riemann_zeta(4.0) - math.pi**4 / 90.0) <= 1e-12

    def test_heavy_tail_value_against_brute_force(self):
        value, bound = brute_zeta(1.5)
        assert abs(riemann_zeta(1.5) - value) <= bound + 1e-12
        assert abs(riemann_zeta(1.5) - 2.612375348685488) <= 1e-12

    def test_near_one_exponent(self):
        # slowly converging but still within tolerance of scipy's evaluation
        from scipy.special import zeta as scipy_zeta

        for s in (1.05, 1.2, 3.7, 10.0):
            assert abs(riemann_zeta(s) - float(scipy_zeta(s, 1))) <= 1e-12

    def test_domain(self):
        for bad in (1.0, 0.3, -2.0):
            with pytest.raises(ValueError):
                riemann_zeta(bad)


class TestPowerLogSeries:
    @pytest.mark.parametrize("a", [1.001, 1.05, 1.5, 2.0, 3.0, 6.0])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_against_mpmath_zeta_derivatives(self, a, j):
        # sum k^-a ln^j k = (-1)^j zeta^(j)(a)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = float((-1) ** j * mpmath.zeta(a, derivative=j))
        assert abs(power_log_series(a, j) - ref) <= 1e-14 * abs(ref)


class TestPmfAt:
    def test_zeta_head_values(self):
        assert abs(pmf_at(Zeta(2.0), 1) - ZETA2_PMF1) <= 1e-12
        assert abs(pmf_at(Zeta(1.5), 1) - ZETA15_PMF1) <= 1e-12
        assert abs(pmf_at(Zeta(2.0), 3) - ZETA2_PMF1 / 9.0) <= 1e-12

    def test_uniform_and_custom(self):
        assert pmf_at(UniformFinite(4), 3) == 0.25
        assert pmf_at(UniformFinite(4), 5) == 0.0
        custom = CustomFinite(DiscretePmf(np.array([0.3, 0.7])))
        assert pmf_at(custom, 2) == 0.7
        assert pmf_at(custom, 3) == 0.0

    def test_geometric_head(self):
        assert abs(pmf_at(Geometric(0.5), 1) - 0.5) <= 1e-15
        assert abs(pmf_at(Geometric(0.5), 3) - 0.125) <= 1e-15

    def test_invalid_category(self):
        with pytest.raises(ValueError):
            pmf_at(Zeta(1.5), 0)
        with pytest.raises(ValueError):
            pmf_at(UniformFinite(3), -1)

    @pytest.mark.parametrize("dist", ALL_FAMILIES)
    def test_nonnegative_and_partial_sums_bounded(self, dist):
        ks = np.arange(1, 201, dtype=np.int64)
        probs = _pmf_array(dist, ks)
        assert np.all(probs >= 0.0)
        assert np.all(np.cumsum(probs) <= 1.0 + 1e-12)


class TestTruncationIndex:
    def test_finite_support_is_its_own_cutoff(self):
        assert truncation_index(UniformFinite(10), 3, 1e-10) == 10
        custom = CustomFinite(DiscretePmf(np.array([0.9, 0.1])))
        assert truncation_index(custom, 2, 1e-6) == 2

    @staticmethod
    def _series_terms(dist, m, k_from, k_to, h_m):
        """Exact entropy- and variance-series terms for k in [k_from, k_to]."""
        ks = np.arange(k_from, k_to + 1, dtype=np.int64)
        p = _pmf_array(dist, ks)
        if isinstance(dist, Zeta):
            t = m * dist.s
            z_t = riemann_zeta(t)
            log_q = -t * np.log(ks.astype(float)) - math.log(z_t)
        else:
            r = 1.0 - dist.q
            rho = r**m
            log_q = math.log1p(-rho) + (ks - 1) * m * math.log(r)
        q = np.exp(log_q)
        ent = q * np.abs(log_q)
        var = (m**2 / p) * (q * log_q + q * h_m) ** 2
        return ent.sum(), var.sum()

    def test_zeta_cutoff_self_verifies(self):
        from gsentropy import gse_analytic

        dist, m, eps = Zeta(1.5), 2, 1e-10
        k_max = truncation_index(dist, m, eps)
        h_m = gse_analytic(dist, m, 1e-12)
        ent, var = self._series_terms(dist, m, k_max + 1, 11 * k_max, h_m)
        assert ent < eps
        assert var < eps

    def test_geometric_cutoff_self_verifies(self):
        from gsentropy import gse_analytic

        dist, m, eps = Geometric(0.5), 2, 1e-12
        k_max = truncation_index(dist, m, eps)
        h_m = gse_analytic(dist, m, 1e-13)
        ent, var = self._series_terms(dist, m, k_max + 1, 11 * k_max, h_m)
        assert ent < eps
        assert var < eps

    def test_cutoff_is_minimal_for_geometric(self):
        dist, m, eps = Geometric(0.5), 2, 1e-12
        k_max = truncation_index(dist, m, eps)
        from gsentropy.distributions import _geometric_tail_bounds

        ent, var = _geometric_tail_bounds(dist, m, k_max - 1)
        assert max(ent, var) >= eps

    def test_shannon_order_on_heavy_tail_exceeds_budget(self):
        with pytest.raises(NonConvergenceError):
            truncation_index(Zeta(1.5), 1, 1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            truncation_index(Zeta(1.5), 0, 1e-10)
        with pytest.raises(ValueError):
            truncation_index(Zeta(1.5), 2, 0.0)


class TestSampling:
    def test_degenerate_support(self):
        counts = sample(UniformFinite(1), 5, 12345)
        assert counts.counts == {1: 5}

    def test_reproducible(self):
        for dist in ALL_FAMILIES:
            a = sample(dist, 2000, 99)
            b = sample(dist, 2000, 99)
            assert a == b
        assert sample(Zeta(1.5), 500, 1) != sample(Zeta(1.5), 500, 2)

    def test_zeta_head_frequency(self):
        counts = sample(Zeta(1.5), 100_000, 424242)
        p1 = ZETA15_PMF1
        se = math.sqrt(p1 * (1.0 - p1) / 100_000)
        assert abs(counts.counts[1] / counts.n - p1) <= 3.0 * se

    def test_geometric_head_frequency(self):
        counts = sample(Geometric(0.5), 100_000, 3)
        se = math.sqrt(0.25 / 100_000)
        assert abs(counts.counts[1] / counts.n - 0.5) <= 3.0 * se

    @pytest.mark.parametrize("dist,seed", [(Zeta(1.5), 11), (Geometric(0.5), 12), (UniformFinite(6), 13)])
    def test_chi_square_goodness_of_fit(self, dist, seed):
        n = 100_000
        counts = sample(dist, n, seed)
        head = np.arange(1, 21, dtype=np.int64)
        expected_head = _pmf_array(dist, head) * n
        observed_head = np.array([counts.counts.get(int(k), 0) for k in head], dtype=float)
        keep = expected_head >= 5.0
        observed = observed_head[keep]
        expected = expected_head[keep]
        # lump everything beyond the kept head into one bucket
        observed = np.append(observed, n - observed.sum())
        expected = np.append(expected, n - expected.sum())
        if expected[-1] < 1e-9:
            observed, expected = observed[:-1], expected[:-1]
        statistic = float(np.sum((observed - expected) ** 2 / expected))
        critical = stats.chi2.ppf(0.999, df=len(expected) - 1)
        assert statistic <= critical

    @pytest.mark.parametrize("dist", ALL_FAMILIES)
    def test_sample_tallies_the_draw(self, dist):
        values = draw(dist, 700, 31)
        assert values.dtype == np.int64 and values.shape == (700,)
        assert SampleCounts.from_observations(values) == sample(dist, 700, 31)

    def test_zeta_tail_is_actually_heavy(self):
        counts = sample(Zeta(1.5), 50_000, 77)
        assert max(counts.counts) > 10_000  # P(X > 1e4) is ~0.7% per draw

    def test_domain(self):
        with pytest.raises(ValueError):
            sample(Zeta(1.5), 0, 1)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert derive_seed(7, 3, 1) == derive_seed(7, 3, 1)
        seen = {derive_seed(7, n, r) for n in range(5) for r in range(50)}
        assert len(seen) == 250

    def test_negative_master_seed_accepted(self):
        assert derive_seed(-1, 0) == derive_seed(-1, 0)


class TestConfig:
    def test_round_trip(self):
        for dist in ALL_FAMILIES:
            again = parse_distribution(distribution_config(dist))
            if isinstance(dist, CustomFinite):
                npt.assert_allclose(again.pmf.probs, dist.pmf.probs)
            else:
                assert again == dist

    def test_json_string(self):
        assert parse_distribution('{"kind":"zeta","s":1.5}') == Zeta(1.5)
        assert parse_distribution('{"kind":"uniform","K":10}') == UniformFinite(10)

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_distribution("{not json")
        with pytest.raises(ValueError):
            parse_distribution('{"kind":"pareto","a":2}')
        with pytest.raises(ValueError):
            parse_distribution('{"kind":"zeta"}')
        with pytest.raises(ValueError):
            parse_distribution('{"kind":"zeta","s":0.9}')

    def test_uniform_count_must_be_integral(self):
        with pytest.raises(ValueError):
            parse_distribution('{"kind":"uniform","K":2.5}')
        for text in ('{"kind":"uniform","K":1000000}', '{"kind":"uniform","K":1e6}'):
            dist = parse_distribution(text)
            assert dist == UniformFinite(1000000) and type(dist.K) is int

    @pytest.mark.parametrize("spec", [
        {"kind": "zeta", "s": [1]},
        {"kind": "geometric", "q": {"q": 0.5}},
        {"kind": "uniform", "K": None},
        {"kind": "uniform", "K": float("inf")},
        {"kind": "custom", "probs": {"a": 1.0}},
    ])
    def test_non_numeric_parameter_is_value_error(self, spec):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_distribution(spec)

    def test_finite_pmf_of_uniform(self):
        npt.assert_allclose(finite_pmf(UniformFinite(4)).probs, np.full(4, 0.25))
        with pytest.raises(ValueError):
            finite_pmf(Zeta(1.5))
