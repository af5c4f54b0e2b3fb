import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gsentropy import (
    CustomFinite,
    Geometric,
    NonConvergenceError,
    SampleCounts,
    UniformFinite,
    Zeta,
    coverage_experiment,
    derive_seed,
    draw,
    finite_pmf,
    gse_analytic,
    parse_distribution,
    pmf_at,
    riemann_zeta,
    sample,
    shannon_entropy,
    sigma_sq_true,
    truncation_index,
)
from gsentropy import distributions
from gsentropy.coverage import _BLOCK
from gsentropy.distributions import (
    _PROBE,
    _SEED_BLOCK,
    _Workspace,
    _derive_seeds,
    _master_pool,
    _mul_hi,
    _pcg64_halves,
    _pcg64_seed,
    _pcg64_states,
    _replicate_states,
    _sweep_states,
    _zeta_accept,
    _zeta_chunk,
    h_sigma_sq,
    power_log_series,
    series_terms_needed,
)

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
    CustomFinite(np.array([0.5, 0.2, 0.2, 0.1])),
]


class TestValidation:
    def test_zeta_requires_s_above_one(self):
        with pytest.raises(ValueError):
            Zeta(1.0)
        with pytest.raises(ValueError):
            Zeta(0.5)

    @pytest.mark.parametrize("s", [1024.0 * (1 + 2**-52), 1025.0, 1e154, math.inf, math.nan])
    def test_zeta_exponent_is_at_most_1024(self, s):
        # the sampler's constant 2^(s-1) must be a finite double
        with pytest.raises(ValueError):
            Zeta(s)

    def test_zeta_at_the_largest_exponent_answers(self):
        dist = Zeta(1024.0)
        assert draw(dist, 100, 1).tolist() == [1] * 100
        assert gse_analytic(dist, 2) == sigma_sq_true(dist, 2) == 0.0
        assert 0.0 < shannon_entropy(dist) < 1e-300
        assert coverage_experiment(dist, 2, 20, 5, 0.05, 0).reps == 5

    @pytest.mark.parametrize("dist, zero", [
        (UniformFinite(1), True), (UniformFinite(5), True), (CustomFinite([1.0]), True),
        (CustomFinite([0.25] * 4), True), (CustomFinite([0.5, 0.5, 0.0]), True), (CustomFinite([1 / 3] * 3), True),
        (CustomFinite([0.505, 0.495]), False), (CustomFinite([0.5, 0.25, 0.25]), False),
        (Zeta(1.5), False), (Zeta(1024.0), False), (Geometric(0.3), False),
    ])
    def test_zero_sigma_is_uniform_on_the_support(self, dist, zero):
        # the law says whether sigma_m^2 is exactly 0, so an underflowed
        # value, as Zeta(1024)'s, is not read as one
        assert dist.zero_sigma is zero
        if zero:
            assert all(sigma_sq_true(dist, m) == 0.0 for m in (1, 2, 3))

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

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
    def test_uniform_count_is_not_a_bool(self, flag):
        # True == 1, but a flag is not a number of categories
        with pytest.raises(ValueError):
            UniformFinite(flag)

    def test_uniform_count_may_be_an_integral_float(self):
        dist = UniformFinite(1e6)
        assert dist == UniformFinite(1_000_000) and type(dist.K) is int

    @pytest.mark.parametrize("probs, error", [
        ((0.52, 0.48), None),
        ([0.52, 0.48], None),
        (np.array([0.52, 0.48]), None),
        (None, "probability vector must be 1-d and nonempty"),
        (np.full((2, 2), 0.25), "probability vector must be 1-d and nonempty"),
        ((0.5, 0.4), "probabilities sum to 0.9, not 1 within 1e-12"),
    ], ids=["tuple", "list", "ndarray", "None", "2-d", "sum-0.9"])
    def test_custom_needs_a_discrete_pmf(self, probs, error):
        # any array-like vector builds the same law; anything else fails at
        # construction, not at the first h_m
        if error is None:
            dist, same = CustomFinite(probs), CustomFinite(np.array([0.52, 0.48]))
            assert dist.probs.dtype == np.float64 and dist.probs.tobytes() == same.probs.tobytes()
            assert [dist.h_m(m)[0].hex() for m in (1, 2, 3)] == [same.h_m(m)[0].hex() for m in (1, 2, 3)]
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                CustomFinite(probs)

    def test_pmf_must_normalize(self):
        with pytest.raises(ValueError):
            CustomFinite(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            CustomFinite(np.array([1.1, -0.1]))
        with pytest.raises(ValueError):
            CustomFinite(np.array([1e308, 1e308]))  # finite entries whose sum overflows

    def test_pmf_allows_zero_entries(self):
        dist = CustomFinite(np.array([0.5, 0.0, 0.5]))
        assert dist.size == 3
        assert gse_analytic(dist, 2) == gse_analytic(CustomFinite([0.5, 0.5]), 2) == math.log(2)

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
        assert abs(power_log_series(a, j)[0] - ref) <= 1e-14 * abs(ref)

    def test_reports_the_terms_it_sums(self):
        assert power_log_series(1.5, 0)[1] == series_terms_needed(1.5, 0)

    def test_domain(self):
        for a in (1.0, 0.5):
            with pytest.raises(NonConvergenceError):
                power_log_series(a, 0)
        with pytest.raises(ValueError, match="ln powers 0..2"):
            power_log_series(2.0, 3)


class TestPmfAt:
    def test_zeta_head_values(self):
        assert abs(pmf_at(Zeta(2.0), 1) - ZETA2_PMF1) <= 1e-12
        assert abs(pmf_at(Zeta(1.5), 1) - ZETA15_PMF1) <= 1e-12
        assert abs(pmf_at(Zeta(2.0), 3) - ZETA2_PMF1 / 9.0) <= 1e-12

    def test_uniform_and_custom(self):
        assert pmf_at(UniformFinite(4), 3) == 0.25
        assert pmf_at(UniformFinite(4), 5) == 0.0
        custom = CustomFinite(np.array([0.3, 0.7]))
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

    @pytest.mark.parametrize("k", [2.0, 2.5, True, "2"])
    def test_category_must_be_an_integer(self, k):
        with pytest.raises(ValueError):
            pmf_at(UniformFinite(3), k)

    @pytest.mark.parametrize("dist", [Zeta(1.5), Geometric(0.3), UniformFinite(3), CustomFinite([0.3, 0.7])],
                             ids=["zeta", "geometric", "uniform", "custom"])
    def test_category_index_is_at_most_int64_max(self, dist):
        assert 0.0 <= pmf_at(dist, 2**63 - 1) < 1e-28
        for k in (2**63, 2**64):
            with pytest.raises(ValueError, match=r"at most 2\*\*63 - 1"):
                pmf_at(dist, k)

    def test_numpy_integer_category(self):
        assert pmf_at(UniformFinite(4), np.int64(3)) == pmf_at(UniformFinite(4), 3) == 0.25

    @pytest.mark.parametrize("dist", ALL_FAMILIES)
    def test_nonnegative_and_partial_sums_bounded(self, dist):
        ks = np.arange(1, 201, dtype=np.int64)
        probs = dist.pmf_array(ks)
        assert np.all(probs >= 0.0)
        assert np.all(np.cumsum(probs) <= 1.0 + 1e-12)


class TestTruncationIndex:
    def test_finite_support_is_its_own_cutoff(self):
        assert truncation_index(UniformFinite(10), 3) == 10
        custom = CustomFinite(np.array([0.9, 0.1]))
        assert truncation_index(custom, 2) == 2

    # the order, the one numeric argument, must be an integer >= 1
    @pytest.mark.parametrize("m", [0.0, -1.0, math.nan])
    def test_domain(self, m):
        with pytest.raises(ValueError):
            truncation_index(Zeta(1.5), 0)
        with pytest.raises(ValueError):
            truncation_index(Zeta(1.5), m)
        with pytest.raises(ValueError):
            truncation_index(Geometric(0.3), m)


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

    @pytest.mark.parametrize("n", [10.0, 2.5, True, np.float64(10.0), "10"])
    def test_sample_size_must_be_an_integer(self, n):
        for call in (draw, sample):
            with pytest.raises(ValueError):
                call(Geometric(0.3), n, 0)

    def test_geometric_draw_past_int64_is_refused(self):
        # P(X >= 2^63) is about exp(-q 2^63): 0.4 at q = 1e-19, 1e-4 at 1e-18;
        # the int64 cast would wrap such a draw to -2^63 + 1
        for q in (1e-19, 1e-300, 5e-324):  # at a subnormal q the quotient overflows to inf
            with pytest.raises(ValueError, match=re.escape(f"Geometric(q={q!r}) drew a value past "
                                                           "the int64 bound 2**63 - 1")):
                draw(Geometric(q), 6, 0)
        assert draw(Geometric(1e-18), 6, 0).tolist() == [
            1013246905717725953, 314418614587692609, 41836596488337449,
            16665740712559645, 1678092836747376129, 2439041642896589825]

    @pytest.mark.parametrize("seed", [2.9, 2.0, np.float64(2.0), "2"])
    def test_seed_must_be_an_integer(self, seed):
        # int() would seed 2.9 as 2
        for call in (draw, sample):
            with pytest.raises(TypeError):
                call(Zeta(1.5), 5, seed)

    @pytest.mark.parametrize("seed", [np.int64(2), np.uint64(2), np.int32(2)])
    def test_numpy_integer_seeds_and_sizes(self, seed):
        npt.assert_array_equal(draw(Zeta(1.5), np.int64(5), seed), draw(Zeta(1.5), 5, 2))


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


@pytest.mark.parametrize("s", [1.01, 1.1, 1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("n", [2, 64, 65, 5000, 30_000, 100_000])
def test_zeta_draw_matches_whole_batch_reference(s, n):
    for seed in np.random.default_rng(int(s * 100) + n).integers(0, 2**63, 3):
        npt.assert_array_equal(draw(Zeta(s), n, int(seed)), zeta_draw_whole_batch(s, n, int(seed)))


def test_zeta_draw_after_a_cached_half_word_matches_reference():
    # a 32-bit draw leaves half a 64-bit output cached, which no double uses
    rng, whole = (np.random.default_rng(4) for _ in range(2))
    for gen in (rng, whole):
        gen.integers(0, 10, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    npt.assert_array_equal(Zeta(1.5).draw(20_000, rng), zeta_draw_whole_batch(1.5, 20_000, rng=whole))


def test_zeta_draw_makes_no_batch_sized_array():
    # the first batch has 2n candidates; drawn whole, u and v alone take 16n bytes
    n = 100_000
    rng = np.random.default_rng(9)
    tracemalloc.start()
    try:
        Zeta(1.5).draw(n, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n + 512 * 1024, peak


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
def test_zeta_draw_needs_pcg64_only_to_skip(bit_generator):
    # a batch that fits the buffers is drawn whole, from any generator
    rng, whole = (np.random.Generator(bit_generator(1)) for _ in range(2))
    npt.assert_array_equal(Zeta(1.5).draw(4096, rng), zeta_draw_whole_batch(1.5, 4096, rng=whole))
    npt.assert_array_equal(rng.random(4), whole.random(4))
    # a larger one skips with PCG64's advance: MT19937 has none, and
    # Philox's skips whole blocks, so it would give other values
    with pytest.raises(TypeError, match="PCG64"):
        Zeta(1.5).draw(4097, rng)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert derive_seed(7, 3, 1) == derive_seed(7, 3, 1)
        seen = {derive_seed(7, n, r) for n in range(5) for r in range(50)}
        assert len(seen) == 250

    def test_negative_master_seed_accepted(self):
        assert derive_seed(-1, 0) == derive_seed(-1, 0)

    @pytest.mark.parametrize("master, plain", [
        (np.int64(5), 5), (np.uint64(5), 5), (np.int32(5), 5),
        (np.int64(-1), -1), (np.uint64(2**64 - 1), 2**64 - 1),
    ])
    def test_numpy_integer_masters(self, master, plain):
        assert derive_seed(master, 3) == derive_seed(plain, 3)
        path = np.arange(4, dtype=np.uint64)
        assert _derive_seeds(_master_pool(master), path).tolist() == _derive_seeds(_master_pool(plain), path).tolist()

    def test_non_integer_master_is_rejected(self):
        with pytest.raises(TypeError):
            derive_seed(2.5, 0)
        with pytest.raises(TypeError):
            _master_pool(2.5)


# master seeds of zero, one and two 32-bit words, and beyond 64 bits or
# negative (both masked to 64 bits); replicate indices of one and two words
MASTERS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 5, -1, -(2**64)]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**100),
    st.integers(-(2**100), -1),
)
INDICES = st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)), min_size=1, max_size=6)

# uint64 words at every carry: with these in each of the four words of the
# seeding step, both adds carry into the high half somewhere, and the
# products include all-ones operands
EDGE_WORDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
WORDS = st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2**64 - 1))
MASK64, MASK128 = 2**64 - 1, 2**128 - 1
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_step_in_ints(a, b, c, d):
    """PCG64's seeding in Python ints: the halves of state, then of inc."""
    inc = ((c << 64 | d) << 1 | 1) & MASK128
    state = (((a << 64 | b) + inc) * PCG64_MULT + inc) & MASK128
    return state >> 64, state & MASK64, inc >> 64, inc & MASK64


def assert_seed_step(rows):
    words = np.array(rows, dtype=np.uint64).reshape(-1, 4).T
    halves = [h.tolist() for h in _pcg64_seed(*words)]
    assert list(zip(*halves)) == [seed_step_in_ints(*row) for row in words.T.tolist()]


def pcg64_state(row):
    """The (state, inc) mapping of a _pcg64_states row of (lo, hi) words."""
    (state_lo, state_hi), (inc_lo, inc_hi) = row.tolist()
    return {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}


class TestBatchedSeeding:
    @settings(derandomize=True)
    @given(master=MASTERS, path=INDICES)
    def test_matches_seed_sequence(self, master, path):
        seeds = _derive_seeds(_master_pool(master), np.array(path, dtype=np.uint64))
        assert seeds.tolist() == [derive_seed(master, r) for r in path]
        for seed, row in zip(seeds.tolist(), _pcg64_states(seeds)):
            assert np.random.PCG64(np.random.SeedSequence(seed)).state["state"] == pcg64_state(row)

    def test_seeding_step_at_every_carry(self):
        assert_seed_step(list(itertools.product(EDGE_WORDS, repeat=4)))
        for y_word in EDGE_WORDS:
            assert _mul_hi(np.array(EDGE_WORDS, dtype=np.uint64), y_word).tolist() == \
                [x_word * y_word >> 64 for x_word in EDGE_WORDS]

    @settings(derandomize=True)
    @given(rows=st.lists(st.tuples(WORDS, WORDS, WORDS, WORDS), min_size=1, max_size=8),
           y=WORDS)
    def test_seeding_step_matches_int_arithmetic(self, rows, y):
        assert_seed_step(rows)
        x = [word for row in rows for word in row]
        assert _mul_hi(np.array(x, dtype=np.uint64), y).tolist() == [word * y >> 64 for word in x]

    def test_generators_replay_draw(self):
        count = _SEED_BLOCK + 5  # past the first block of derived states
        work = _Workspace()
        for r, state in enumerate(_replicate_states(2022, count)):
            # a cached 32-bit half-word: the re-set must drop it, as the
            # state setter does, so the whole mapping is numpy's own
            while not work.rng.bit_generator.state["has_uint32"]:
                work.rng.integers(0, 1000, dtype=np.uint32)
            expected = np.random.PCG64(np.random.SeedSequence(derive_seed(2022, r))).state
            assert work.reset(state).bit_generator.state == expected
        assert r == count - 1
        # draw seeds of no and one 32-bit word are hashed as zero-padded
        for seed in (0, 7, 2**32 - 1):
            row, = _pcg64_states(np.array([seed], dtype=np.uint64))
            assert np.random.PCG64(np.random.SeedSequence(seed)).state["state"] == pcg64_state(row)

    @pytest.mark.parametrize("dist", ALL_FAMILIES)
    def test_family_draws_are_unchanged(self, dist):
        work = _Workspace()
        for r, state in enumerate(_replicate_states(5, 12)):
            npt.assert_array_equal(dist.draw(37, work.reset(state)), draw(dist, 37, derive_seed(5, r)))

    @pytest.mark.parametrize("reps", [1, _SEED_BLOCK - 1, _SEED_BLOCK, _SEED_BLOCK + 1, 2 * _SEED_BLOCK + 3])
    @pytest.mark.parametrize("masters", [[2**32 + 5], [3, 2**32, derive_seed(9, 40), 2**64 - 1, 11]],
                             ids=["one-point", "five-points"])
    def test_grid_points_share_passes(self, monkeypatch, reps, masters):
        # A sweep seeds consecutive grid points in passes of _SEED_BLOCK
        # states, a point split across passes where the cap falls; each
        # point's states must be those it gets alone.  Masters of 2^32 or
        # more are two entropy words.
        passes = []
        pcg64_states = distributions._pcg64_states

        def counted(seeds):
            passes.append(seeds.size)
            return pcg64_states(seeds)

        monkeypatch.setattr(distributions, "_pcg64_states", counted)
        grouped = list(_sweep_states(iter(masters), reps))
        monkeypatch.undo()
        full, rest = divmod(len(masters) * reps, _SEED_BLOCK)
        assert passes == [_SEED_BLOCK] * full + ([rest] if rest else [])
        for i, master in enumerate(masters):
            states = np.stack(grouped[i * reps : (i + 1) * reps])
            assert states.tolist() == np.stack(list(_replicate_states(master, reps))).tolist()
            for r in {0, reps - 1}:
                expected = np.random.PCG64(np.random.SeedSequence(derive_seed(master, r))).state["state"]
                assert expected == pcg64_state(states[r])

    @pytest.mark.parametrize("states", [lambda: _replicate_states(1, 2**64 - 1), lambda: _sweep_states([1, 2], 2**63)],
                             ids=["one-point", "two-points"])
    def test_counts_below_2_to_the_64_seed_their_first_replicate(self, states):
        # the flat (master, r) index is uint64: an int64 index overflows at these counts
        assert next(states()).tolist() == next(_replicate_states(1, 1)).tolist()


class TestStateLayoutProbe:
    # A workspace writes each row's state straight into PCG64's C struct,
    # in the layout a probe through the state setter read back.  Readouts of
    # numpy's two layouts are made up here, and nothing is written.
    STATE, INC, UINTEGER = _PROBE

    def readout(self, state_step, inc_step):
        """The probe's four words, a half stored (lo, hi) at step 1, (hi, lo) at -1."""
        state, inc = [self.STATE & MASK64, self.STATE >> 64], [self.INC & MASK64, self.INC >> 64]
        return state[::state_step] + inc[::inc_step]

    @pytest.mark.parametrize("step", [1, -1], ids=["lo-hi", "hi-lo"])
    def test_numpy_layouts_are_read(self, step):
        assert _pcg64_halves(self.readout(step, step), [1, self.UINTEGER]) == step

    @pytest.mark.parametrize("words, cache", [
        ("lo-hi, hi-lo", [1, UINTEGER]),
        ("hi-lo, lo-hi", [1, UINTEGER]),
        ("inc first", [1, UINTEGER]),
        ("lo-hi", [0, UINTEGER]),
        ("hi-lo", [1, 0]),
        ("lo-hi", [UINTEGER, 1]),
    ])
    def test_any_other_readout_raises(self, words, cache):
        readout = {"lo-hi": self.readout(1, 1), "hi-lo": self.readout(-1, -1),
                   "lo-hi, hi-lo": self.readout(1, -1), "hi-lo, lo-hi": self.readout(-1, 1),
                   "inc first": self.readout(1, 1)[2:] + self.readout(1, 1)[:2]}[words]
        with pytest.raises(RuntimeError, match=f"numpy {re.escape(np.__version__)}: unrecognised PCG64"):
            _pcg64_halves(readout, cache)

    def test_every_probe_word_differs(self):
        state, inc = self.readout(1, 1)[:2], self.readout(1, 1)[2:]
        assert len({*state, *inc}) == 4 and self.UINTEGER not in (0, 1)


def block_draw(dist, n, master, rows):
    """dist.draw_rows for replicates 0 .. rows - 1 of a master seed."""
    return dist.draw_rows(n, list(_replicate_states(master, rows)), _Workspace())


class TestBlockDraw:
    @pytest.mark.parametrize("s", [1.001, 1.01, 1.05, 1.2, 1.5, 3.0])
    @pytest.mark.parametrize("n", [2, 10, 64, 100, 1000, 8192])
    def test_zeta_rows_are_the_draws(self, s, n):
        # blocks of one row, of two, and of as many as the coverage engine takes
        for rows in sorted({1, 2, _BLOCK // n}):
            master = 7919 * rows + n
            block = block_draw(Zeta(s), n, master, rows)
            assert block.dtype == np.int64
            npt.assert_array_equal(block, [draw(Zeta(s), n, derive_seed(master, r)) for r in range(rows)])

    @pytest.mark.parametrize("s, n, rows", [(1.01, 100, 163), (1.05, 1000, 16)])
    def test_short_rows_go_on_with_their_own_streams(self, s, n, rows):
        # How far into its stream each row's n acceptances reach: the first
        # chunk, the rest of the first batch, or later batches.  Every kind
        # must occur somewhere below, so every path of the block draw runs.
        batch = max(2 * n, 64)
        width = min(_zeta_chunk(n), batch)
        reach = set()
        for state in _replicate_states(5, rows):
            rng = _Workspace().reset(state)
            kept = np.cumsum(_zeta_accept(rng.random(batch), rng.random(batch), s - 1.0, 2.0 ** (s - 1.0)))
            reach.add("chunk" if kept[width - 1] >= n else "batch" if kept[-1] >= n else "later")
        assert reach == ({"later"} if s == 1.01 else {"chunk", "batch"})
        npt.assert_array_equal(block_draw(Zeta(s), n, 5, rows),
                               [draw(Zeta(s), n, derive_seed(5, r)) for r in range(rows)])

    @pytest.mark.parametrize("batch", [64, 200, 4096])
    def test_random_into_a_row_is_two_batches(self, batch):
        # the block draw fills u and v with one call a row, and a short row
        # skips them with advance
        block, seq, skip = (np.random.Generator(np.random.PCG64(3)) for _ in range(3))
        rows = np.empty((3, 2 * batch))
        block.random(out=rows[1])
        npt.assert_array_equal(rows[1, :batch], seq.random(batch))
        npt.assert_array_equal(rows[1, batch:], seq.random(batch))
        skip.bit_generator.advance(2 * batch)
        assert block.bit_generator.state == seq.bit_generator.state == skip.bit_generator.state

    @pytest.mark.parametrize("dist", ALL_FAMILIES)
    @pytest.mark.parametrize("rows", [1, 3])
    def test_family_rows_are_the_draws(self, dist, rows):
        npt.assert_array_equal(block_draw(dist, 37, 5, rows), [draw(dist, 37, derive_seed(5, r)) for r in range(rows)])

    @pytest.mark.parametrize("dist, n", [(Geometric(0.3), 37), (Zeta(1.5), 5000)])
    def test_one_row_is_not_copied(self, dist, n):
        # at large n a copy of the sample costs more in page faults than the tally
        assert not block_draw(dist, n, 5, 1).flags.owndata


ROW_KERNEL_FAMILIES = [Zeta(1.5), Geometric(0.3), UniformFinite(7),
                       CustomFinite(np.array([0.4, 0.25, 0.15, 0.12, 0.08]))]


class TestRowKernel:
    # A sample's proportions give the same bits as a pmf alone and as a
    # segment of a block, whatever precedes them: the coverage engine relies
    # on it.  The leading segment of 1..8 elements shifts every later one.
    @pytest.mark.parametrize("dist", ROW_KERNEL_FAMILIES, ids=lambda d: d.config()["kind"])
    @pytest.mark.parametrize("n", [2, 10, 100, 5000])
    def test_bit_identical_to_one_row_kernel(self, dist, n):
        pmfs = [np.sort(sample(dist, n, derive_seed(n, r)).counts)[::-1] / n for r in range(40)]
        starts = np.cumsum([0] + [p.size for p in pmfs[:-1]])
        filler = np.linspace(0.3, 0.01, 8)
        for m in (1, 2, 3, 4):
            alone = np.array([np.concatenate(h_sigma_sq(p, m)) for p in pmfs])
            for lead in range(9):
                block = np.concatenate([filler[:lead], *pmfs])
                h, sigma_sq = h_sigma_sq(block, m, np.append([0], lead + starts) if lead else starts)
                assert h[-40:].tobytes() == alone[:, 0].tobytes()
                assert sigma_sq[-40:].tobytes() == alone[:, 1].tobytes()

    def test_one_segment_is_the_default(self):
        p = np.array([0.5, 0.25, 0.125, 0.125])
        for a, b in zip(h_sigma_sq(p, 2), h_sigma_sq(p, 2, np.array([0]))):
            assert a.shape == (1,) and a.tobytes() == b.tobytes()


class TestConfig:
    def test_round_trip(self):
        for dist in ALL_FAMILIES:
            again = parse_distribution(dist.config())
            assert again == dist

    def test_custom_laws_compare_and_hash_by_entries(self):
        law = CustomFinite([0.5, 0.5])
        again = parse_distribution({"kind": "custom", "probs": [0.5, 0.5]})
        assert law == again and hash(law) == hash(again)
        assert len({law, again, CustomFinite(np.array([0.5, 0.5]))}) == 1
        assert CustomFinite([-0.0, 1.0]) == CustomFinite([0.0, 1.0])
        assert hash(CustomFinite([-0.0, 1.0])) == hash(CustomFinite([0.0, 1.0]))
        assert law != CustomFinite([0.25, 0.75])
        assert law != CustomFinite([0.5, 0.5, 0.0])
        assert law != UniformFinite(2)

    def test_custom_law_keeps_its_own_read_only_copy(self):
        probs = np.array([0.5, 0.5])
        law = CustomFinite(probs)
        before = hash(law)
        probs[:] = [0.25, 0.75]
        assert law.probs.tolist() == [0.5, 0.5] and hash(law) == before
        assert law == CustomFinite([0.5, 0.5])
        with pytest.raises(ValueError):
            law.probs[0] = 0.25

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
        {"kind": "uniform", "K": "inf"},  # a string; the number inf is a bad count, below
        {"kind": "custom", "probs": {"a": 1.0}},
        {"kind": "zeta", "s": True},
        {"kind": "zeta", "s": "1.5"},
        {"kind": "geometric", "q": False},
        {"kind": "geometric", "q": "0.5"},
        {"kind": "uniform", "K": True},
        {"kind": "uniform", "K": False},
        {"kind": "uniform", "K": "4"},
        {"kind": "custom", "probs": [True, False]},
        {"kind": "custom", "probs": ["0.5", 0.5]},
        {"kind": "custom", "probs": "0.5"},
    ])
    def test_non_numeric_parameter_is_value_error(self, spec):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_distribution(spec)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_uniform_count_is_named(self, text):
        # int() once raised on these first, naming neither the family nor K
        with pytest.raises(ValueError, match="^UniformFinite needs a positive integer number of categories$"):
            parse_distribution('{"kind":"uniform","K":%s}' % text)

    def test_finite_pmf_of_uniform(self):
        npt.assert_allclose(finite_pmf(UniformFinite(4)).probs, np.full(4, 0.25))
        custom = CustomFinite([0.3, 0.7])
        assert finite_pmf(custom) is custom
        with pytest.raises(ValueError):
            finite_pmf(Zeta(1.5))
