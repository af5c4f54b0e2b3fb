import hashlib
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
from gsentropy.distributions import power_log_series

from _reference import ZETA15_PMF1, ZETA2_PMF1, brute_zeta, zeta_draw_whole_batch


def count_at(counts, k):
    """The count of category k in a SampleCounts, 0 when k is unobserved."""
    i = int(np.searchsorted(counts.categories, k))
    return int(counts.counts[i]) if i < counts.categories.size and counts.categories[i] == k else 0


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
        # at most 2^53 categories: draws are floor(u K) of 53-bit uniforms u
        for bad in (0, 2**53 + 1, 10**400):
            with pytest.raises(ValueError):
                UniformFinite(bad)
        assert UniformFinite(2**53).K == 2**53

    def test_pmf_must_normalize(self):
        with pytest.raises(ValueError):
            DiscretePmf(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            DiscretePmf(np.array([1.1, -0.1]))
        with pytest.raises(ValueError):
            DiscretePmf(np.array([1e308, 1e308]))  # finite entries whose sum overflows

    def test_pmf_allows_zero_entries(self):
        pmf = DiscretePmf(np.array([0.5, 0.0, 0.5]))
        assert pmf.support_size == 2
        assert pmf.size == 3

    def test_sample_counts_canonical_form(self):
        with pytest.raises(ValueError):
            SampleCounts([1, 2], [3, 0])  # stored zero
        counts = SampleCounts.from_observations([5, 5, 2, 9])
        assert counts.categories.tolist() == [2, 5, 9] and counts.counts.tolist() == [1, 2, 1]
        assert counts.n == 4

    @pytest.mark.parametrize("categories,counts", [
        ([2, 1], [1, 1]),  # not increasing
        ([1, 1], [1, 1]),  # repeated
        ([1, 2], [1]),  # lengths differ
        ([], []),
        ([1, 2], [1.0, 2.0]),  # float counts
        ([1], [2**63]),  # count beyond int64
        ([1], [10**20]),
        ([1, 2], [2**62, 2**62]),  # total beyond int64
    ])
    def test_sample_counts_rejects(self, categories, counts):
        with pytest.raises(ValueError):
            SampleCounts(categories, counts)

    def test_sample_counts_total_is_exact(self):
        counts = SampleCounts([1, 2], [2**62, 2**62 - 1])
        assert counts.n == 2**63 - 1 and type(counts.n) is int
        assert counts.categories.dtype == counts.counts.dtype == np.int64

    @pytest.mark.parametrize("values", [[1.5, 2.5], [1.2, 1.7], [1.0, 2.0], ["1", "2"], [2**64], []])
    def test_from_observations_rejects_non_integers(self, values):
        with pytest.raises(ValueError):
            SampleCounts.from_observations(values)


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
        probs = dist.pmf_array(ks)
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
        p = dist.pmf_array(ks)
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
        ent, var = dist.tail_bounds(m, k_max - 1)
        assert max(ent, var) >= eps

    @pytest.mark.parametrize("start", [1, 2, 1000, 10**6])
    @pytest.mark.parametrize("q", [0.5, 1e-4, 1e-9, 1e-12])
    def test_geometric_index_sums_keep_precision_for_small_q(self, q, start):
        # x = (1-q)^3 close to 1, as in the variance bound at m = 2
        mpmath = pytest.importorskip("mpmath")
        from gsentropy.distributions import _geometric_index_sums

        with mpmath.workdps(50):
            x = (1 - mpmath.mpf(q)) ** 3
            xj, one, j = x**start, 1 - x, start
            ref = (xj / one, xj * (j - x * (j - 1)) / one**2,
                   xj * (j * j - (2 * j * j - 2 * j - 1) * x + (j - 1) ** 2 * x * x) / one**3)
        got = _geometric_index_sums(3 * math.log1p(-q), start)
        for value, expect in zip(got, ref):
            assert abs(value - float(expect)) <= 1e-12 * float(expect)

    def test_shannon_order_on_heavy_tail_exceeds_budget(self):
        with pytest.raises(NonConvergenceError):
            truncation_index(Zeta(1.5), 1, 1e-10)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_domain(self, eps):
        with pytest.raises(ValueError):
            truncation_index(Zeta(1.5), 0, 1e-10)
        with pytest.raises(ValueError):
            truncation_index(Zeta(1.5), 2, eps)
        with pytest.raises(ValueError):
            truncation_index(Geometric(0.3), 2, eps)


class TestSampling:
    def test_degenerate_support(self):
        counts = sample(UniformFinite(1), 5, 12345)
        assert counts == SampleCounts([1], [5])

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
        assert abs(count_at(counts, 1) / counts.n - p1) <= 3.0 * se

    def test_geometric_head_frequency(self):
        counts = sample(Geometric(0.5), 100_000, 3)
        se = math.sqrt(0.25 / 100_000)
        assert abs(count_at(counts, 1) / counts.n - 0.5) <= 3.0 * se

    @pytest.mark.parametrize("dist,seed", [(Zeta(1.5), 11), (Geometric(0.5), 12), (UniformFinite(6), 13)])
    def test_chi_square_goodness_of_fit(self, dist, seed):
        n = 100_000
        counts = sample(dist, n, seed)
        head = np.arange(1, 21, dtype=np.int64)
        expected_head = dist.pmf_array(head) * n
        observed_head = np.array([count_at(counts, k) for k in head], dtype=float)
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
        assert counts.categories.max() > 10_000  # P(X > 1e4) is ~0.7% per draw

    def test_domain(self):
        with pytest.raises(ValueError):
            sample(Zeta(1.5), 0, 1)


# SHA-256 of draw(Zeta(s), n, seed).tobytes(), recorded before the sampler's
# accept test was restructured.  s = 1.01 keeps about a quarter of its
# candidates and loses most of them to the 2^62 cut, so it takes several
# accept-test chunks and more than one RNG batch; n = 31..33 straddle the
# 64-candidate minimum batch.  One changed kept value changes a digest.
PINNED_ZETA_DRAW_SHA256 = [
    (1.01, 1, 0, "fdba0e1d8b1ebc2079d783f3f4abe825d9bcf5b15c60d676ac673d8a09ac60d3"),
    (1.01, 1, 2022, "34d05d46ee6d39ec6c7b4185cc2b2a431270f66488f76a1a7adbc98e53a48081"),
    (1.01, 31, 0, "b9a9d966965c00a1530d7a07209aeb0d4449cd1cbd6c8f91d1439d6f0781f900"),
    (1.01, 31, 2022, "a5dc6386509f4656274a9349325b3523db094d989fb22f1f8b0e9d1c89c5c456"),
    (1.01, 32, 0, "4727568c4832f8993f22491e704df6dceb12eba212647bf3c1c38593201c2adb"),
    (1.01, 32, 2022, "7f3313011533cd9aaa562d40ea7b09127ed04fe822dbcee48cae7a3748fa0066"),
    (1.01, 33, 0, "a6916da73ecef44054de6df33e9a43200d58e0770544a7022ee823be6f21bcbc"),
    (1.01, 33, 2022, "ea0d0dccf799e5169cbeb821606fff6b61c74405088835fd1e0f5637bed5b4f8"),
    (1.01, 1000, 0, "3008678e43e79187a5c02197dc332775551bf2abe817835c4874256986011246"),
    (1.01, 1000, 2022, "9736948b2c1e33e25f61044d6b6dac93c5697219b2d0819971a7b7fdb77b09e1"),
    (1.01, 100000, 0, "58eee7dd4f98879b4568a901140f327247489c2bc74f6fb0d864bc1adf6ba28b"),
    (1.01, 100000, 2022, "2493755f10cf6abcca1bc1adb424d673993f887851190a7d4013ff2af24f8a28"),
    (1.05, 1, 0, "5046643470d3a51b21db9b1c14fd6af3589a880ea54ffecd0610f9c5c04a1aea"),
    (1.05, 1, 2022, "aae89fc0f03e2959ae4d701a80cc3915918c950b159f6abb6c92c1433b1a8534"),
    (1.05, 31, 0, "f927d7126f08a954dad90b0188dc89f55d3657b8be28bf5ba4b83d7b1b9e5089"),
    (1.05, 31, 2022, "36ac56607412ef86dc480fd6139b1e1459aac40e27eaa1ac441b7fd0f164fe52"),
    (1.05, 32, 0, "2932b87fc137b40362261ce13573b5a2941e824fb3501f1928c378f85a52ce03"),
    (1.05, 32, 2022, "5b54156d953e188f56e89f34ce94d6ff7ba979aee4f8e4b6df685fd283f4ece8"),
    (1.05, 33, 0, "1f6714cb8b3c3e58346024c3cd6c9519a91367f94ad6034ce4abd0d89c4acd62"),
    (1.05, 33, 2022, "908ab3bf406d9f0188e2c4443a9c6c71b9705aca9cfd6fda277b18af6a2f3887"),
    (1.05, 1000, 0, "2d5f3bf12aa97303df2a617a0b286083764569bddfcdc9a306c51f49bf05ac34"),
    (1.05, 1000, 2022, "bab8250f3d6c688c832864fb236127c7bb030af59312b40d44adee6128119fdb"),
    (1.05, 100000, 0, "b1038fbc017b47ba9bbe36a7b6750efd66f0d4dc60ca2d88123bb4591d752add"),
    (1.05, 100000, 2022, "4b1fbe99b00adf29ead51e6d692f4e3f3befd04d86baa3bdf3476a1e9500d1e8"),
    (1.2, 1, 0, "17fcbe27dfec463fc4d5cc4b90b6c9ad284109d08aa86e5baa33b86fe8b8ff75"),
    (1.2, 1, 2022, "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8"),
    (1.2, 31, 0, "8da73e0e44010c213e9dfc29919dc065a2306914e846bfd9f0a016a814026a4f"),
    (1.2, 31, 2022, "088fcff1dc0e508cce12d85c9286753af11913b8bf88a0ba7056907826683a19"),
    (1.2, 32, 0, "7a7bd68d77840e20afe83c32d96a73386bab08961e1dd78917c5a5a6b0570f9e"),
    (1.2, 32, 2022, "ae2dc6d4fade6e7337cedee59c1503a2a32b667bd72668bc8a13e8355b0be24b"),
    (1.2, 33, 0, "4b51fdd5bc3b35a496a8542eea7d2028419c7ddb6174d10f4a644416213cc416"),
    (1.2, 33, 2022, "4f25238842b129b39dd840c969b58fee8ae5c31233f14d1ee5adece9fa998cc3"),
    (1.2, 1000, 0, "287550a6df7a48cd77830ec15ec1ac7f38a02c6d80a154bd1ee73b6fbcaa12a8"),
    (1.2, 1000, 2022, "b786fc4c61f6904f65708f68ee2db9eee5d2c714008bb7cc97bb299678b72cd0"),
    (1.2, 100000, 0, "ee19c4337b10ebe90d4bebb33b86faa9d70426540b8bbc5fde471759319ece98"),
    (1.2, 100000, 2022, "d6b392c34d297788b7b0fa39746f64a3c4993591912d55b5d58896621ab8d04e"),
    (1.5, 1, 0, "aae89fc0f03e2959ae4d701a80cc3915918c950b159f6abb6c92c1433b1a8534"),
    (1.5, 1, 2022, "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8"),
    (1.5, 31, 0, "6185f9d126daa23e0ede6d6b2fc5d167e8a6ba455654ea2b02f723670b9265d1"),
    (1.5, 31, 2022, "cc4a2abbd3b1d588664b6910bdcc5cb824639cabeda36be45293d6eb34099848"),
    (1.5, 32, 0, "c3c18e5fe12c5a29ec602b91690a11b8ff5fd5f265b98a20c91149e354d2a30f"),
    (1.5, 32, 2022, "857ec3751b1700db0c2dc3c5e398349de1d44f831f6dc637ecbb41d383bf44bc"),
    (1.5, 33, 0, "b6f8d2e69d4cb1d73763337725169e8b68ceda5b0d91be028d314f0bc9709c15"),
    (1.5, 33, 2022, "f078db88662b3aed302cc7991062121c2aab0c8862c86a525de4a179b34f4cd9"),
    (1.5, 1000, 0, "bf51f08ec0cbd7fdfe1524033e54c30f3bb628f8a74e4817b4cc18f78ac7b864"),
    (1.5, 1000, 2022, "d8a2ceff7ebb69ecdd2c4d46761277187d0e938201c4ad75df612af5b4939e45"),
    (1.5, 100000, 0, "17f1af3b92ae5f429319d5f83d4585e605a915a733a98f5cff40f2dd9d1c0b25"),
    (1.5, 100000, 2022, "115a8816d1c5ad65fffc5bc43f140a1e2baaf571f78f814b8dacfb2ae9dfc155"),
    (3.0, 1, 0, "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8"),
    (3.0, 1, 2022, "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8"),
    (3.0, 31, 0, "4e12133195584963b4454a51489b10c5158f26c0c139ba397a14a6bc49518829"),
    (3.0, 31, 2022, "29bf5a17f79fb84c0fd3f859ac6149c641c1489f220374182d95b46d09c8fd5b"),
    (3.0, 32, 0, "9d5118eee2c9b084143f64b87e1ab6d1a45c7284c9fa23a1a2cc2b776bf2523a"),
    (3.0, 32, 2022, "4e622f0d72d5401a21012d52aa2f391bcd427b3509367a239cf0953af7bc469e"),
    (3.0, 33, 0, "e0313024d4cbbdeb4d0ce28b9036b0377740fe4966f8098e9ef722bb748b2c33"),
    (3.0, 33, 2022, "9ee836e1476a1431bf641ec6056597e92a431deefc528dc4402e73ea146d5dff"),
    (3.0, 1000, 0, "2090a4a3137e5d8a1d8ea018a9655e7d865071ae1f042518305c34cbae5925f3"),
    (3.0, 1000, 2022, "657dfb03f1d95c989b517dd09dd573b2e92513f05f292397c2c5a69d1de7427b"),
    (3.0, 100000, 0, "6068f4024284b9e37f1fe7fc2e84dd73e8ca322a0a666ff2dd9266260b6576ea"),
    (3.0, 100000, 2022, "044dfbd28832323d70b187f65aae36d70fc9284fb57719a4f28a57a1d74711a5"),
    (8.0, 1, 0, "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8"),
    (8.0, 1, 2022, "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8"),
    (8.0, 31, 0, "88986881ba52ad36b430e41cd24497b9cf9a64f8e6a979290ebdee36b1b6f85c"),
    (8.0, 31, 2022, "88986881ba52ad36b430e41cd24497b9cf9a64f8e6a979290ebdee36b1b6f85c"),
    (8.0, 32, 0, "6ba64591dc5d5fa6ab9e575602829ad02f0fe517616bda69e4fe87b55b9d9836"),
    (8.0, 32, 2022, "6ba64591dc5d5fa6ab9e575602829ad02f0fe517616bda69e4fe87b55b9d9836"),
    (8.0, 33, 0, "7ebfed75a20870c94d23df743db01325ce03b495820681f7ffb761c7360515e8"),
    (8.0, 33, 2022, "aca67cae5a8f29132eb87b6b808a7bf384b9923af72c009206e46e58d1dbcd94"),
    (8.0, 1000, 0, "58282aa7698ea31996f8347efb01e97227bc975839311125f240571af347a7bb"),
    (8.0, 1000, 2022, "09822120df6c9be760b5f3249beab3e3321901fc8e45ec5828967ec619c7cfaa"),
    (8.0, 100000, 0, "e2f40aa27d8b51c2c186492c191a3895c0c5e1f8280dc0b66924328b65407221"),
    (8.0, 100000, 2022, "f1c907881f4942315106bd8c002a4785b6c396dccb6e4228bcb588f71c58322c"),
]


@pytest.mark.parametrize("s,n,seed,digest", PINNED_ZETA_DRAW_SHA256)
def test_zeta_draw_is_pinned(s, n, seed, digest):
    assert hashlib.sha256(draw(Zeta(s), n, seed).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("s", [1.01, 1.1, 1.5, 2.0, 2.5])
@pytest.mark.parametrize("n", [2, 64, 65, 5000, 30_000])
def test_zeta_draw_matches_whole_batch_reference(s, n):
    for seed in np.random.default_rng(int(s * 100) + n).integers(0, 2**63, 3):
        npt.assert_array_equal(draw(Zeta(s), n, int(seed)), zeta_draw_whole_batch(s, n, int(seed)))


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
        {"kind": "zeta", "s": True},
        {"kind": "zeta", "s": "1.5"},
        {"kind": "geometric", "q": False},
        {"kind": "geometric", "q": "0.5"},
        {"kind": "uniform", "K": True},
        {"kind": "uniform", "K": "4"},
        {"kind": "custom", "probs": [True, False]},
        {"kind": "custom", "probs": ["0.5", 0.5]},
        {"kind": "custom", "probs": "0.5"},
    ])
    def test_non_numeric_parameter_is_value_error(self, spec):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_distribution(spec)

    def test_finite_pmf_of_uniform(self):
        npt.assert_allclose(finite_pmf(UniformFinite(4)).probs, np.full(4, 0.25))
        with pytest.raises(ValueError):
            finite_pmf(Zeta(1.5))
