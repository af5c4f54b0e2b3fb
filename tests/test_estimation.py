import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from scipy import stats

from gsentropy import (
    CustomFinite,
    Geometric,
    SampleCounts,
    UniformFinite,
    Zeta,
    confidence_interval,
    derive_seed,
    empirical_pmf,
    gse,
    gse_analytic,
    gse_estimate,
    gse_plugin,
    normal_quantile,
    read_counts_csv,
    read_raw_labels,
    sample,
    sigma_hat_sq,
    sigma_sq_literal,
    sigma_sq_true,
    write_counts_csv,
)

from _reference import (
    H2_POINT37,
    SIG2_M1_ZETA15,
    SIG2_M2_GEOM_HALF,
    SIG2_M2_ZETA15,
    SIG2_M3_GEOM_HALF,
    SIG2_M3_ZETA15,
    SIG2_POINT37,
    Z_95,
    Z_975,
    Z_995,
    classical_entropy_variance,
    geometric_sigma_sq_closed_form,
    mp_sigma_sq_literal,
    normal_quantile_bisect,
)
from conftest import interior_pmfs


class TestEmpiricalPmf:
    def test_proportions(self):
        pmf = empirical_pmf(SampleCounts([1, 2], [3, 1]))
        npt.assert_allclose(pmf.probs, [0.75, 0.25])

    def test_degenerate(self):
        pmf = empirical_pmf(SampleCounts([5], [10]))
        npt.assert_allclose(pmf.probs, [1.0])

    def test_equal_counts_are_uniform(self):
        pmf = empirical_pmf(SampleCounts([1, 2, 3], [2, 2, 2]))
        npt.assert_allclose(pmf.probs, np.full(3, 1 / 3))

    def test_ordering_descending_count(self):
        pmf = empirical_pmf(SampleCounts([2, 4, 7, 9], [5, 1, 3, 5]))
        npt.assert_allclose(pmf.probs, np.array([5, 5, 3, 1]) / 14)


class TestGsePlugin:
    def test_two_observed_categories(self):
        assert abs(gse_plugin(SampleCounts([1, 2], [1, 1]), 2) - math.log(2)) <= 1e-15

    def test_matches_exact_entropy_of_proportions(self):
        assert abs(gse_plugin(SampleCounts([1, 2], [3, 7]), 2) - H2_POINT37) <= 1e-12

    def test_single_category(self):
        for m in (1, 2, 5):
            assert gse_plugin(SampleCounts([7], [42]), m) == 0.0


class TestSigmaSqTrue:
    def test_uniform_vanishes_exactly(self):
        for k in (2, 3, 10):
            for m in (1, 2, 4):
                assert sigma_sq_true(np.full(k, 1.0 / k), m) == 0.0

    def test_two_point_frozen_value(self):
        assert abs(sigma_sq_true([0.3, 0.7], 2) - SIG2_POINT37) <= 1e-12

    @given(interior_pmfs())
    def test_order_one_reduces_to_classical_variance(self, pmf):
        assert abs(sigma_sq_true(pmf, 1) - classical_entropy_variance(pmf.probs)) <= 1e-12

    @given(interior_pmfs())
    def test_mean_zero_gradient_identity(self, pmf):
        p = pmf.probs
        for m in (1, 2, 3, 4):
            log_q = m * np.log(p)
            log_q -= log_q.max()
            log_q -= math.log(np.sum(np.exp(log_q)))
            q = np.exp(log_q)
            h = -float(np.dot(q, log_q))
            g = -(m * q / p) * (log_q + h)
            assert abs(float(np.dot(p, g))) <= 1e-12

    def test_zeta_frozen_values(self):
        assert abs(sigma_sq_true(Zeta(1.5), 2) - SIG2_M2_ZETA15) <= 1e-8
        assert abs(sigma_sq_true(Zeta(1.5), 3) - SIG2_M3_ZETA15) <= 1e-8
        assert abs(sigma_sq_true(Zeta(1.5), 1) - SIG2_M1_ZETA15) <= 1e-8

    def test_geometric_against_brute_series(self):
        assert abs(sigma_sq_true(Geometric(0.5), 2) - SIG2_M2_GEOM_HALF) <= 1e-9
        assert abs(sigma_sq_true(Geometric(0.5), 3) - SIG2_M3_GEOM_HALF) <= 1e-9
        for q in (0.2, 0.6):
            for m in (1, 2, 3):
                brute = geometric_sigma_sq_closed_form(q, m, terms=3000)
                assert abs(sigma_sq_true(Geometric(q), m) - brute) <= 1e-9

    def test_analytic_finite_kinds_route_through_finite_path(self):
        assert sigma_sq_true(UniformFinite(5), 3) == 0.0
        two_point = CustomFinite(np.array([0.3, 0.7]))
        assert abs(sigma_sq_true(two_point, 2) - SIG2_POINT37) <= 1e-12


class TestSigmaSqLiteral:
    def test_disagrees_with_delta_method_on_non_uniform(self):
        corrected = sigma_sq_true([0.3, 0.7], 2)
        literal = sigma_sq_literal([0.3, 0.7], 2)
        assert abs(literal - corrected) > 1.0  # not a small numerical gap

    def test_fails_the_classical_reduction(self):
        p = np.array([0.2, 0.3, 0.5])
        classical = classical_entropy_variance(p)
        assert abs(sigma_sq_literal(p, 1) - classical) > 0.1
        assert abs(sigma_sq_true(p, 1) - classical) <= 1e-12

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_the_mpmath_formula(self, small_corpus, m, zeros):
        pytest.importorskip("mpmath")
        for pmf in small_corpus:
            p = pmf.probs
            if zeros:  # zeros first, inside and last carry no term
                p = np.insert(p, [0, p.size // 2, p.size], 0.0)
            exact = mp_sigma_sq_literal(p, m)
            assert abs(sigma_sq_literal(p, m) - exact) <= 1e-13 * exact, (p, m)


class TestSigmaHatSq:
    def test_empirically_uniform_vanishes(self):
        assert sigma_hat_sq(SampleCounts([1, 2], [5, 5]), 2) == 0.0
        assert sigma_hat_sq(SampleCounts([1, 2, 3], [4, 4, 4]), 3) == 0.0

    def test_plug_in_identity(self):
        counts = SampleCounts([1, 2], [3, 7])
        assert abs(sigma_hat_sq(counts, 2) - SIG2_POINT37) <= 1e-12

    def test_degenerate(self):
        assert sigma_hat_sq(SampleCounts([1], [10]), 2) == 0.0

    def test_label_invariance(self):
        a = sigma_hat_sq(SampleCounts([1, 2, 3], [3, 7, 5]), 2)
        b = sigma_hat_sq(SampleCounts([7, 55, 100], [3, 7, 5]), 2)
        assert abs(a - b) <= 1e-15


class TestNormalQuantile:
    def test_frozen_values(self):
        assert abs(normal_quantile(0.975) - Z_975) <= 1e-9
        assert abs(normal_quantile(0.995) - Z_995) <= 1e-9
        assert abs(normal_quantile(0.95) - Z_95) <= 1e-9

    def test_against_bisection_oracle(self):
        for p in (1e-6, 1e-3, 0.01, 0.2, 0.5, 0.7, 0.99, 1 - 1e-5):
            assert abs(normal_quantile(p) - normal_quantile_bisect(p)) <= 1e-9

    def test_against_scipy(self):
        grid = np.linspace(1e-7, 1 - 1e-7, 4001)
        ours = np.array([normal_quantile(p) for p in grid])
        npt.assert_allclose(ours, stats.norm.ppf(grid), atol=1e-9)

    def test_symmetry(self):
        assert abs(normal_quantile(0.3) + normal_quantile(0.7)) <= 1e-12

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestConfidenceInterval:
    def test_degenerate_single_category(self):
        ci = confidence_interval(gse_estimate(SampleCounts([1], [10]), 2), 0.05)
        assert ci.lower == ci.upper == 0.0
        assert ci.degenerate
        assert ci.contains(0.0)
        assert not ci.contains(0.1)

    def test_two_point_frozen_interval(self):
        ci = confidence_interval(gse_estimate(SampleCounts([1, 2], [3, 7]), 2), 0.05)
        half = Z_975 * math.sqrt(SIG2_POINT37 / 10.0)
        assert abs(ci.lower - (H2_POINT37 - half)) <= 1e-9
        assert abs(ci.upper - (H2_POINT37 + half)) <= 1e-9
        assert not ci.degenerate
        assert ci.level == 0.95

    def test_symmetric_about_the_estimate(self):
        counts = SampleCounts([1, 2, 3], [6, 3, 1])
        est = gse_estimate(counts, 2)
        ci = confidence_interval(est, 0.10)
        assert abs((ci.lower + ci.upper) / 2.0 - est.h_hat) <= 1e-12

    def test_domain(self):
        counts = SampleCounts([1, 2], [5, 5])
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                confidence_interval(gse_estimate(counts, 2), bad)

    @pytest.mark.parametrize("alpha", [2.0**-53, 1e-300, 1e-320])
    def test_alpha_whose_level_rounds_to_one_is_named(self, alpha):
        # 1 - alpha/2 is 1.0 here; the quantile's own message would blame a 1.0
        # that the caller never gave
        with pytest.raises(ValueError, match=r"alpha must exceed 2\*\*-53"):
            confidence_interval(gse_estimate(SampleCounts([1, 2], [5, 3]), 2), alpha)

    def test_smallest_alpha_with_a_level_below_one_is_answered(self):
        ci = confidence_interval(gse_estimate(SampleCounts([1, 2], [5, 3]), 2), 2.0**-52)
        assert ci.lower < ci.upper and ci.level == 1.0 - 2.0**-52

    def test_halfwidth_scales_like_inverse_sqrt_n(self):
        dist = CustomFinite(np.array([0.2, 0.3, 0.5]))

        def halfwidth(n, seed):
            ci = confidence_interval(gse_estimate(sample(dist, n, seed), 2), 0.05)
            return (ci.upper - ci.lower) / 2.0

        ratio = halfwidth(10_000, 5) / halfwidth(40_000, 6)
        assert abs(ratio - 2.0) <= 0.3  # 2.0 within 15%


class TestGseEstimateBundle:
    def test_fields_and_invariants(self):
        counts = SampleCounts([1, 2], [3, 7])
        est = gse_estimate(counts, 2)
        assert est.n == 10
        assert est.support_observed == 2
        assert 0.0 <= est.h_hat <= math.log(2) + 1e-12
        assert abs(est.sigma_hat - math.sqrt(SIG2_POINT37)) <= 1e-9

    def test_consistency_with_growing_n(self):
        dist = CustomFinite(np.array([0.2, 0.3, 0.5]))
        h_true = gse_analytic(dist, 2)
        s2_true = sigma_sq_true(dist, 2)
        for n, seed in ((1_000, 21), (10_000, 22), (100_000, 23)):
            counts = sample(dist, n, seed)
            # 5-sigma envelope around the CLT scale, shrinking like 1/sqrt(n)
            assert abs(gse_plugin(counts, 2) - h_true) <= 5.0 * math.sqrt(s2_true / n)
            assert abs(sigma_hat_sq(counts, 2) - s2_true) <= 20.0 / math.sqrt(n)


def _total(x):
    """The sum of x in the kernel's order, a reduceat over one segment."""
    return float(np.add.reduceat(x, [0])[0])


def label_ordered_estimate(counts, m, alpha):
    """The pmf route: the empirical pmf in descending-count order, H from
    entropy.gse, sigma^2 from its own pass."""
    pmf = empirical_pmf(counts)
    p = pmf.probs
    w = m * np.log(p)
    w -= w.max()
    log_norm = float(np.log(_total(np.exp(w))))
    log_q = w - log_norm
    q = np.exp(log_q)
    h = log_norm - _total(q * w)
    g = -(m * q / p) * (log_q + h)
    h_hat, sigma_sq = gse(pmf, m), _total(p * (g * g))
    half = normal_quantile(1.0 - alpha / 2.0) * math.sqrt(sigma_sq) / math.sqrt(counts.n)
    return h_hat, sigma_sq, h_hat - half, h_hat + half


class TestCountArrayKernel:
    # the counts-array kernel makes the same float operations in the same
    # order; tied counts give equal proportions, so label order is immaterial
    @pytest.mark.parametrize("dist", [Zeta(1.5), Geometric(0.3), UniformFinite(7)])
    def test_bit_identical_to_label_ordered_route(self, dist):
        rng = np.random.default_rng(17)
        for r in range(60):
            n = int(rng.integers(2, 3000))
            counts = sample(dist, n, derive_seed(99, r))
            shuffled = SampleCounts(counts.categories, rng.permutation(counts.counts))
            for m in (1, 2, 3):
                h_hat, sigma_sq, lower, upper = label_ordered_estimate(counts, m, 0.05)
                est = gse_estimate(shuffled, m)
                ci = confidence_interval(est, 0.05)
                assert gse_plugin(shuffled, m) == est.h_hat == h_hat
                assert sigma_hat_sq(shuffled, m) == sigma_sq
                assert est.sigma_hat == math.sqrt(sigma_sq)
                assert (ci.lower, ci.upper) == (lower, upper)


def _pairs(counts, labels):
    """The label -> count pairing, the one part of a reader's numbering that is kept."""
    assert counts.categories.tolist() == list(range(1, len(labels) + 1))
    return dict(zip(labels, counts.counts.tolist()))


class TestCountsIO:
    def test_counts_csv_round_trip(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("category,count\nalpha,3\nbeta,7\n", encoding="utf-8")
        counts, labels = read_counts_csv(path)
        assert _pairs(counts, labels) == {"alpha": 3, "beta": 7}

        out = tmp_path / "again.csv"
        write_counts_csv(counts, out, labels)
        counts2, labels2 = read_counts_csv(out)
        assert _pairs(counts2, labels2) == _pairs(counts, labels)
        assert gse_plugin(counts2, 2) == gse_plugin(counts, 2)
        assert sigma_hat_sq(counts2, 2) == sigma_hat_sq(counts, 2)

    # category 0 would read labels[-1]; category 2 of one label, an IndexError
    @pytest.mark.parametrize("categories, labels", [([0, 1], ["a", "b"]), ([1, 2], ["a"])])
    def test_a_category_without_a_label_is_refused_before_writing(self, tmp_path, categories, labels):
        out = tmp_path / "counts.csv"
        with pytest.raises(ValueError, match=f"must lie in 1..{len(labels)}"):
            write_counts_csv(SampleCounts(categories, [3, 4]), out, labels)
        assert not out.exists()

    # the readers strip labels, so labels that strip alike come back as one
    # category: counts (5, 3, 2) under [" a", "a", "b"] would read back as (8, 2)
    @pytest.mark.parametrize("labels, merged", [([" a", "a", "b"], "a"), (["x", "\u3000x", "y"], "x"),
                                                (["a", "a", "b"], "a")])
    def test_labels_that_strip_alike_are_refused_before_writing(self, tmp_path, labels, merged):
        out = tmp_path / "counts.csv"
        with pytest.raises(ValueError, match=f"^2 labels strip to '{merged}' and would read back as one category$"):
            write_counts_csv(SampleCounts([1, 2, 3], [5, 3, 2]), out, labels)
        assert not out.exists()

    def test_labels_of_absent_categories_may_strip_alike(self, tmp_path):
        # only the labels written are read back: category 2's is not
        out = tmp_path / "counts.csv"
        write_counts_csv(SampleCounts([1, 3], [5, 2]), out, [" a", "a", "b"])
        assert _pairs(*read_counts_csv(out)) == {"a": 5, "b": 2}

    @pytest.mark.parametrize("bom", ["", "\ufeff"])  # a UTF-8 byte-order mark is not data
    def test_duplicate_labels_aggregate_and_zeros_drop(self, tmp_path, bom):
        path = tmp_path / "counts.csv"
        path.write_text(bom + "category,count\na,2\nb,0\na,3\nc,1\nc,0\n", encoding="utf-8")
        counts, labels = read_counts_csv(path)
        assert counts.n == 6
        assert _pairs(counts, labels) == {"a": 5, "c": 1}

    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    def test_raw_labels(self, tmp_path, bom):
        path = tmp_path / "obs.txt"
        path.write_text(bom + "x\ny\nx\n\nx\n", encoding="utf-8")
        counts, labels = read_raw_labels(path)
        assert counts.n == 4
        assert _pairs(counts, labels) == {"x": 3, "y": 1}

    def test_bad_inputs(self, tmp_path):
        bad_header = tmp_path / "h.csv"
        bad_header.write_text("name,value\na,1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_counts_csv(bad_header)

        negative = tmp_path / "n.csv"
        negative.write_text("category,count\na,-1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_counts_csv(negative)

        not_int = tmp_path / "f.csv"
        not_int.write_text("category,count\na,2.5\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_counts_csv(not_int)

        empty = tmp_path / "e.csv"
        empty.write_text("category,count\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_counts_csv(empty)
