import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsentropy import (
    DEFAULT_CORPUS_SEED,
    CustomFinite,
    Geometric,
    UniformFinite,
    Zeta,
    cdotc,
    gse,
    gse_analytic,
    gse_analytic_info,
    pmf_corpus,
    shannon_entropy,
    sigma_sq_true,
)

from _reference import (
    H1_ZETA15,
    H2_GEOM_HALF,
    H2_POINT37,
    H2_ZETA15,
    H3_GEOM_HALF,
    H3_ZETA15,
    SHANNON_POINT37,
    brute_zeta_collision_entropy,
    geometric_gse_closed_form,
    mp_geometric_h_sigma_sq,
    mp_zeta_h_sigma_sq,
    naive_gse,
)
from conftest import interior_pmfs, pmfs_with_zeros


class TestCdotc:
    def test_two_point_arithmetic(self):
        out = cdotc([0.3, 0.7], 2)
        npt.assert_allclose(out.pmf.probs, [9 / 58, 49 / 58], atol=1e-15)
        assert abs(out.collision_mass - 0.58) <= 1e-15

    def test_zeta_head_follows_fourth_power_law(self):
        # conditioning the inverse-square law on a pairwise collision gives an
        # inverse-fourth-power law; the ratio structure survives truncation
        ks = np.arange(1, 401, dtype=np.int64)
        head = Zeta(2.0).pmf_array(ks)
        pmf = CustomFinite(head / head.sum())
        q = cdotc(pmf, 2).pmf.probs
        npt.assert_allclose(q / q[0], ks.astype(float) ** -4.0, rtol=1e-12)

    def test_uniform_fixed_point(self):
        for m in (1, 2, 5):
            q = cdotc(np.full(7, 1 / 7), m).pmf.probs
            npt.assert_allclose(q, np.full(7, 1 / 7), atol=1e-15)

    def test_order_one_returns_input_unchanged(self):
        pmf = CustomFinite(np.array([0.2, 0.8]))
        out = cdotc(pmf, 1)
        assert out.pmf is pmf
        assert out.collision_mass == 1.0

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            cdotc([0.5, 0.5], 0)
        with pytest.raises(ValueError):
            cdotc([0.5, 0.5], 2.5)

    @given(pmfs_with_zeros())
    def test_support_preserved_and_normalized(self, pmf):
        for m in range(1, 7):
            q = cdotc(pmf, m).pmf.probs
            assert abs(q.sum() - 1.0) <= 1e-12
            npt.assert_array_equal(q > 0, pmf.probs > 0)

    @given(interior_pmfs())
    def test_concentration_of_the_maximum(self, pmf):
        for m in (2, 3, 4):
            assert cdotc(pmf, m).pmf.probs.max() >= pmf.probs.max() - 1e-15

    @given(interior_pmfs())
    def test_composition_collapses_orders(self, pmf):
        twice = cdotc(cdotc(pmf, 2).pmf, 2).pmf.probs
        once = cdotc(pmf, 4).pmf.probs
        npt.assert_allclose(twice, once, atol=1e-12)

    def test_deep_underflow_regime(self):
        pmf = CustomFinite(np.array([1.0 - 1e-280, 1e-280 / 2, 1e-280 / 2]))
        q = cdotc(pmf, 10).pmf.probs
        assert abs(q.sum() - 1.0) <= 1e-12
        assert q[0] > 1.0 - 1e-12


class TestGse:
    def test_uniform_is_log_k(self):
        assert abs(gse(np.full(4, 0.25), 2) - math.log(4)) <= 1e-12

    def test_degenerate_is_zero(self):
        for m in (1, 2, 6):
            assert gse([1.0], m) == 0.0

    def test_two_point_frozen_value(self):
        assert abs(gse([0.3, 0.7], 2) - H2_POINT37) <= 1e-12

    @given(interior_pmfs())
    def test_log_space_agrees_with_naive_path(self, pmf):
        for m in (1, 2, 3, 6):
            assert abs(gse(pmf, m) - naive_gse(pmf.probs, m)) <= 1e-12

    @given(pmfs_with_zeros())
    def test_zero_entries_drop_out(self, pmf):
        squeezed = CustomFinite(pmf.probs[pmf.probs > 0])
        for m in (1, 2, 3):
            assert abs(gse(pmf, m) - gse(squeezed, m)) <= 1e-12

    @given(interior_pmfs(), st.integers(1, 5))
    def test_monotone_concentration_in_the_order(self, pmf, m):
        assert gse(pmf, m + 1) <= gse(pmf, m) + 1e-12

    @given(interior_pmfs(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, pmf, rnd):
        order = list(range(pmf.size))
        rnd.shuffle(order)
        shuffled = CustomFinite(pmf.probs[np.asarray(order)])
        for m in (1, 2, 4):
            assert abs(gse(pmf, m) - gse(shuffled, m)) <= 1e-12

    @given(interior_pmfs())
    def test_order_one_is_shannon(self, pmf):
        assert gse(pmf, 1) == shannon_entropy(pmf)

    @given(interior_pmfs())
    def test_bounded_by_log_support(self, pmf):
        for m in (1, 2, 3):
            assert -1e-12 <= gse(pmf, m) <= math.log(pmf.size) + 1e-12

    @pytest.mark.parametrize("m", [True, False, 2.0, np.float64(2.0), 2.5, "2"])
    def test_order_must_be_an_integer(self, m):
        # True once passed as m = 1
        with pytest.raises(ValueError):
            gse([0.5, 0.5], m)
        with pytest.raises(ValueError):
            gse_analytic(Zeta(1.5), m)
        with pytest.raises(ValueError):
            sigma_sq_true([0.3, 0.7], m)

    def test_numpy_integer_order(self):
        assert gse([0.3, 0.7], np.int64(2)) == gse([0.3, 0.7], 2)
        assert type(gse([0.3, 0.7], np.int64(2))) is float


class TestShannonEntropy:
    def test_fair_coin(self):
        assert abs(shannon_entropy([0.5, 0.5]) - math.log(2)) <= 1e-15

    def test_uniform(self):
        assert abs(shannon_entropy(np.full(12, 1 / 12)) - math.log(12)) <= 1e-12
        assert abs(shannon_entropy(UniformFinite(12)) - math.log(12)) <= 1e-12

    def test_two_point(self):
        assert abs(shannon_entropy([0.3, 0.7]) - SHANNON_POINT37) <= 1e-12

    def test_heavy_tail_still_finite(self):
        assert abs(shannon_entropy(Zeta(1.5)) - H1_ZETA15) <= 1e-9


def assert_family_route(p):
    """gse, shannon_entropy and sigma_sq_true of a raw vector p have the bits
    of the CustomFinite family's own h_m and sigma_sq, at m = 1..8."""
    dist = CustomFinite(p)
    assert shannon_entropy(p).hex() == dist.h_m(1)[0].hex()
    for m in range(1, 9):
        assert gse(p, m).hex() == dist.h_m(m)[0].hex()
        assert sigma_sq_true(p, m).hex() == dist.sigma_sq(m).hex()


class TestOneRoute:
    # an explicit vector is the CustomFinite law: no second code path
    @pytest.mark.parametrize("seed", [DEFAULT_CORPUS_SEED, 7, 11])
    def test_corpus_vectors(self, seed):
        for pmf in pmf_corpus(seed):
            assert_family_route(pmf.probs)

    @given(pmfs_with_zeros())
    def test_vectors_with_zeros(self, pmf):
        assert_family_route(pmf.probs)


class TestGseAnalytic:
    def test_zeta_frozen_values(self):
        assert abs(gse_analytic(Zeta(1.5), 2) - H2_ZETA15) <= 1e-10
        assert abs(gse_analytic(Zeta(1.5), 3) - H3_ZETA15) <= 1e-10

    def test_zeta_against_independent_truncated_series(self):
        brute = brute_zeta_collision_entropy(1.5, 2)
        assert abs(gse_analytic(Zeta(1.5), 2) - brute) <= 1e-6

    def test_uniform(self):
        assert abs(gse_analytic(UniformFinite(7), 3) - math.log(7)) <= 1e-12

    def test_geometric_against_closed_form(self):
        assert abs(gse_analytic(Geometric(0.5), 2) - H2_GEOM_HALF) <= 1e-10
        assert abs(gse_analytic(Geometric(0.5), 3) - H3_GEOM_HALF) <= 1e-10
        for q in (0.1, 0.35, 0.9):
            for m in (2, 3, 4):
                assert abs(gse_analytic(Geometric(q), m) - geometric_gse_closed_form(q, m)) <= 1e-10

    def test_geometric_shannon(self):
        # m=1 goes through the same closed form
        expect = geometric_gse_closed_form(0.5, 1)
        assert abs(shannon_entropy(Geometric(0.5)) - expect) <= 1e-10

    def test_info_reports_terms(self):
        value, terms = gse_analytic_info(Zeta(1.5), 2)
        assert abs(value - H2_ZETA15) <= 1e-10
        assert terms >= 1000
        _, finite_terms = gse_analytic_info(UniformFinite(9), 2)
        assert finite_terms == 9

    @pytest.mark.parametrize("m", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("dist", [Zeta(1.5), Geometric(0.3), UniformFinite(4)])
    def test_domain(self, dist, m):
        # the order, the one numeric argument, must be an integer >= 1
        with pytest.raises(ValueError):
            gse_analytic(dist, 0)
        with pytest.raises(ValueError):
            gse_analytic(dist, m)
        with pytest.raises(ValueError):
            sigma_sq_true(dist, m)


class TestClosedFormsAgainstMpmath:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 10, 20])
    @pytest.mark.parametrize("q", [0.999999, 0.9, 0.5, 0.3, 1e-4, 1e-9, 1e-12, 1e-150, 1e-300, 1e-307])
    def test_geometric(self, q, m):
        pytest.importorskip("mpmath")
        h_ref, sigma_sq_ref = mp_geometric_h_sigma_sq(q, m)
        h, terms = gse_analytic_info(Geometric(q), m)
        assert terms == 0
        assert abs(h - h_ref) <= 1e-12
        assert abs(sigma_sq_true(Geometric(q), m) - sigma_sq_ref) <= 1e-12 * sigma_sq_ref

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 10, 20])
    @pytest.mark.parametrize("s", [1.0001, 1.001, 1.01, 1.05, 1.2, 1.5, 2.0, 3.0])
    def test_zeta_near_one_and_at_large_order(self, s, m):
        pytest.importorskip("mpmath")
        h_ref, sigma_sq_ref = mp_zeta_h_sigma_sq(s, m)
        # 1e-12, or about two ulps where H is in the thousands (Shannon's H
        # of Zeta(1.0001) is about 10010, whose ulp is 1.8e-12)
        assert abs(gse_analytic(Zeta(s), m) - h_ref) <= max(1e-12, 4e-16 * h_ref)
        assert abs(sigma_sq_true(Zeta(s), m) - sigma_sq_ref) <= 1e-12 * sigma_sq_ref


class TestUniformClosedForm:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_huge_support_allocates_nothing(self, m):
        k = 10**9  # the K-vector alone would take 8 GB
        tracemalloc.start()
        try:
            info = gse_analytic_info(UniformFinite(k), m)
            sigma_sq = sigma_sq_true(UniformFinite(k), m)
            shannon = shannon_entropy(UniformFinite(k))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info == (math.log(k), k)
        assert sigma_sq == 0.0
        assert shannon == math.log(k)
        assert peak < 1_000_000

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 12, 9170, 10**6])
    def test_bit_identical_to_the_k_vector(self, k, m):
        # the values of the explicit uniform pmf, which coverage runs used
        # as the truth; at K = 9170 math.log(K) can differ from them in the
        # last bit (it does under numpy's AVX-512 log)
        p = np.full(k, 1.0 / k)
        assert gse_analytic(UniformFinite(k), m) == gse(p, m)
        assert shannon_entropy(UniformFinite(k)) == gse(p, 1)
        assert sigma_sq_true(UniformFinite(k), m) == sigma_sq_true(p, m) == 0.0
        if k != 9170:
            assert gse_analytic(UniformFinite(k), m) == math.log(k)
