import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from gsentropy import (
    CustomFinite,
    Geometric,
    UniformFinite,
    Zeta,
    analytic_gradient,
    delta_variance_oracle,
    fd_gradient,
    mc_variance_oracle,
    pmf_corpus,
    run_verification,
    sigma_sq_literal,
    sigma_sq_true,
)

from gsentropy import oracles
from gsentropy.oracles import (
    DEFAULT_CORPUS_SEED,
    DEFAULT_FD_STEP,
    _fd_differences,
    _fd_stack,
    _row_slices,
    _sigma_sq_sweeps,
    _slice_pass,
)

from conftest import prescott_passed
from _reference import (
    SIG2_POINT37,
    analytic_gradient_per_pmf,
    delta_variance_per_pmf,
    fd_gradient_loop,
    mc_variance_loop,
    mean_zero_per_pmf,
    mp_free_gradient,
    run_verification_loops,
)

ORDERS = range(1, 9)


def _grad_tol(values):
    return np.maximum(1e-6, 1e-4 * np.abs(values))


class TestAnalyticGradient:
    def test_uniform_gradient_vanishes(self):
        npt.assert_allclose(analytic_gradient(np.full(3, 1 / 3), 2), 0.0, atol=1e-14)
        npt.assert_allclose(analytic_gradient(np.full(8, 1 / 8), 4), 0.0, atol=1e-14)

    def test_order_one_collapses_to_log_ratio(self):
        p = np.array([0.2, 0.3, 0.5])
        expect = np.log(p[-1]) - np.log(p[:-1])
        npt.assert_allclose(analytic_gradient(p, 1), expect, atol=1e-12)

    def test_two_point_matches_finite_differences(self):
        a = analytic_gradient([0.3, 0.7], 2)
        f = fd_gradient([0.3, 0.7], 2)
        assert np.all(np.abs(a - f) <= _grad_tol(a))

    def test_three_point_matches_finite_differences(self):
        a = analytic_gradient([0.2, 0.3, 0.5], 2)
        f = fd_gradient([0.2, 0.3, 0.5], 2, h=1e-6)
        assert np.all(np.abs(a - f) <= _grad_tol(a))

    # skewed pmfs at high orders, where a free partial (about 3e-10 at
    # (0.9807, 0.0193), m = 8) is lost by any formula that gets it as the
    # difference of two large terms
    @pytest.mark.parametrize("p, m", [
        ((0.9807, 0.0193), 6),
        ((0.9807, 0.0193), 8),
        ((0.001, 0.998, 0.001), 8),
    ])
    def test_skewed_pmfs_match_the_mpmath_derivative(self, p, m):
        exact = mp_free_gradient(p, m)
        a = analytic_gradient(np.array(p), m)
        assert np.all(np.abs(a - exact) <= 1e-12 * np.abs(exact).max()), (a, exact)

    def test_rejects_zero_probabilities(self):
        with pytest.raises(ValueError):
            analytic_gradient(np.array([0.5, 0.0, 0.5]), 2)
        with pytest.raises(ValueError):
            analytic_gradient(np.array([1.0]), 2)

    def test_corpus_agreement(self, small_corpus):
        for pmf in small_corpus:
            for m in (1, 2, 3, 4):
                a = analytic_gradient(pmf, m)
                f = fd_gradient(pmf, m)
                assert np.all(np.abs(a - f) <= _grad_tol(a))


class TestSharedWeightPass:
    @pytest.mark.parametrize("seed", [DEFAULT_CORPUS_SEED, 7, 11, 3])
    def test_oracles_are_the_per_pmf_loop(self, seed):
        for pmf in pmf_corpus(seed=seed):
            for m in ORDERS:
                assert analytic_gradient(pmf, m).tobytes() == analytic_gradient_per_pmf(pmf.probs, m).tobytes()
                assert delta_variance_oracle(pmf, m).hex() == delta_variance_per_pmf(pmf.probs, m).hex()

    @pytest.mark.parametrize("seed, size, orders", [
        (DEFAULT_CORPUS_SEED, 100, (1, 2, 3, 4)),
        (7, 20, range(1, 7)),
        (11, 50, range(1, 9)),
        (3, 300, range(1, 5)),
        (5, 60, (3, 5)),  # no order 1 or 2: the sweeps' extra orders alone
    ])
    def test_report_is_the_check_by_check_loops(self, seed, size, orders):
        # one weight pass per (order, pmf) feeds three checks; the report,
        # every worst gap's text included, must be the one of a loop per check
        assert run_verification(seed, size, tuple(orders)) == run_verification_loops(seed, size, orders)


class TestGroupedPass:
    # seed 11 at size 25 has K-groups of one pmf (K = 2, 6, 9, 10, 11)
    @pytest.mark.parametrize("seed, size", [(DEFAULT_CORPUS_SEED, 100), (7, 100), (11, 100), (11, 25)])
    def test_groups_are_lone_calls(self, seed, size):
        self._assert_groups_are_lone_calls(seed, size, ORDERS)

    @pytest.mark.parametrize("seed, size", [(DEFAULT_CORPUS_SEED, 100), (11, 25)])
    def test_one_order_groups_are_lone_calls(self, seed, size):
        # a stack of one order is the pass of that order alone
        self._assert_groups_are_lone_calls(seed, size, (3,))

    @staticmethod
    def _assert_groups_are_lone_calls(seed, size, orders):
        corpus = sorted(pmf_corpus(seed=seed, size=size), key=lambda pmf: pmf.size)
        probs = [pmf.probs for pmf in corpus]
        slices = list(_row_slices(probs, len(orders)))
        # the slices tile the corpus in order, each within one K-group
        assert [rows.start for rows, _ in slices] == [0] + [rows.stop for rows, _ in slices[:-1]]
        assert slices[-1][0].stop == len(corpus)
        assert [k for _, k in slices] == sorted(k for _, k in slices)
        for rows, k in slices:
            assert {pmf.size for pmf in corpus[rows]} == {k}
            stacked = _slice_pass(np.stack(probs[rows]), tuple(orders), DEFAULT_FD_STEP)
            assert [a.shape[0] for a in stacked] == [len(orders)] * 4
            for m, g, fd, quad, mean_zero in zip(orders, *stacked):
                for pmf, *values in zip(corpus[rows], g, fd, quad, mean_zero, strict=True):
                    p = pmf.probs
                    assert values[0].tobytes() == analytic_gradient_per_pmf(p, m).tobytes()
                    assert values[1].tobytes() == fd_gradient_loop(pmf, m, DEFAULT_FD_STEP).tobytes()
                    assert float(values[2]).hex() == delta_variance_per_pmf(p, m).hex()
                    assert float(values[3]).hex() == mean_zero_per_pmf(p, m).hex()
        _, literal = _sigma_sq_sweeps(probs, orders)
        assert [float(x).hex() for x in literal] == [sigma_sq_literal(pmf, 2).hex() for pmf in corpus]

    # 1: a slice a row; 200: slices of 1 to 12 rows, as K falls from 12 to 2
    @pytest.mark.parametrize("entries", [1, 200])
    def test_row_slices_are_the_one_slice_pass(self, monkeypatch, entries):
        orders = (1, 2, 3, 4)
        probs = sorted((pmf.probs for pmf in pmf_corpus(seed=3, size=300)), key=len)
        monkeypatch.setattr(oracles, "_SLICE_ENTRIES", 2**62)
        whole = run_verification(3, 300, orders)
        groups = {k: rows for rows, k in _row_slices(probs, len(orders))}
        assert sum(rows.stop - rows.start for rows in groups.values()) == len(probs)
        one_slice = {k: _slice_pass(np.stack(probs[rows]), orders, DEFAULT_FD_STEP)
                     for k, rows in groups.items()}
        monkeypatch.setattr(oracles, "_SLICE_ENTRIES", entries)
        slices = list(_row_slices(probs, len(orders)))
        for k, rows in groups.items():  # every K-group spans several slices
            step = max(1, entries // (len(orders) * 2 * (k - 1) * k))
            assert rows.stop - rows.start > step
            assert [part for part, kk in slices if kk == k] == [
                slice(start, min(start + step, rows.stop)) for start in range(rows.start, rows.stop, step)]
        assert run_verification(3, 300, orders) == whole
        for rows, k in slices:
            at = slice(rows.start - groups[k].start, rows.stop - groups[k].start)
            sliced = _slice_pass(np.stack(probs[rows]), orders, DEFAULT_FD_STEP)
            for part, one in zip(sliced, one_slice[k], strict=True):
                assert part.shape == one[:, at].shape and part.tobytes() == one[:, at].tobytes()

    def test_default_corpus_groups_fit_in_one_slice(self):
        probs = sorted((pmf.probs for pmf in pmf_corpus()), key=len)
        slices = list(_row_slices(probs, 4))
        assert len({k for _, k in slices}) == len(slices)
        for rows, k in slices:
            assert 4 * (rows.stop - rows.start) * 2 * (k - 1) * k <= oracles._SLICE_ENTRIES

    def test_one_pmf_groups_are_covered(self):
        slices = list(_row_slices(sorted((pmf.probs for pmf in pmf_corpus(seed=11, size=25)), key=len), 4))
        assert len({k for _, k in slices}) == len(slices)  # a slice a K-group
        sizes = [rows.stop - rows.start for rows, _ in slices]
        assert 1 in sizes and max(sizes) > 1


def test_grouped_pass_holds_under_the_sse2_blas_kernel(prescott_run):
    # neither the segment kernel nor the oracles make a BLAS call, so
    # OpenBLAS's SSE2-era core must leave every bit of the grouped pass and
    # of its per-pmf references as it is; one subprocess runs this half and
    # the kernel's, which test_coverage.py checks
    assert prescott_run.returncode == 0 and "40 passed" in prescott_run.stdout, \
        prescott_run.stdout + prescott_run.stderr
    passed, count = prescott_passed(prescott_run, "test_oracles.py")
    assert passed == count, prescott_run.stdout


# what would hand a sum to BLAS: the @ operator, these calls, numpy.linalg
_BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def _blas_uses(source: str) -> list[str]:
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _BLAS_CALLS:
                uses.append(f"line {node.lineno}: {name}()")
        if (isinstance(node, ast.Attribute) and node.attr == "linalg"
                or isinstance(node, ast.Name) and node.id == "linalg"
                or isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "")
                or isinstance(node, (ast.Import, ast.ImportFrom))
                and any("linalg" in alias.name for alias in node.names)):
            uses.append(f"line {node.lineno}: linalg")
    return uses


def test_source_makes_no_blas_call():
    # the pinned bits and the report rest on numpy's own sums: a BLAS call
    # would let the BLAS core choose the summation order
    src = Path(__file__).resolve().parents[1] / "src" / "gsentropy"
    paths = sorted(src.glob("*.py"))
    assert paths
    found = {path.name: uses for path in paths if (uses := _blas_uses(path.read_text(encoding="utf-8")))}
    assert found == {}
    assert sorted(_blas_uses("y = np.dot(a, b) + a @ b\nx @= c\nnp.linalg.norm(x)\nfrom numpy import linalg\n")) \
        == ["line 1: @", "line 1: dot()", "line 2: @", "line 3: linalg", "line 4: linalg"]


def test_report_is_the_same_on_every_blas_core():
    # every oracle dot is a left-to-right sum, so no BLAS core can move a
    # digit of the report, the 2000-pmf corpus's K-group row slices included
    script = ("from gsentropy.cli import main\n"
              "main(['verify'])\n"
              "main(['verify', '--corpus-size', '2000', '--m-range', '1..8'])\n")
    root = Path(__file__).resolve().parents[1]
    base = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), base.get("PYTHONPATH")]))
    reports = []
    for core in (None, "Prescott", "Sandybridge"):
        env = base if core is None else {**base, "OPENBLAS_CORETYPE": core}
        run = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0 and run.stdout.count("[PASS]") == 10, run.stdout + run.stderr
        reports.append(run.stdout)
    assert reports[1] == reports[0] and reports[2] == reports[0]


class TestFdGradient:
    def test_step_off_the_simplex_is_an_error(self):
        with pytest.raises(ValueError):
            fd_gradient(np.array([0.9999999, 0.0000001]), 2, h=1e-6)
        with pytest.raises(ValueError):
            fd_gradient(np.array([0.5, 0.5]), 2, h=0.6)
        for h in (0.0, -1e-6, math.nan):
            with pytest.raises(ValueError, match="step size must be positive"):
                fd_gradient(np.array([0.5, 0.5]), 2, h=h)

    def test_uniform_is_flat(self):
        npt.assert_allclose(fd_gradient(np.full(4, 0.25), 3), 0.0, atol=1e-6)

    @pytest.mark.parametrize("h", [1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("seed", [DEFAULT_CORPUS_SEED, 7, 11])
    def test_stacked_differences_are_the_per_vector_loop(self, seed, h):
        # fd_gradient and each row slice of run_verification both stack the
        # perturbed vectors as kernel segments; neither may move a bit
        corpus = sorted(pmf_corpus(seed=seed), key=lambda pmf: pmf.size)
        groups = [(corpus[rows], _fd_stack(np.stack([pmf.probs for pmf in corpus[rows]]), h))
                  for rows, _ in _row_slices([pmf.probs for pmf in corpus], len(ORDERS))]
        for m in ORDERS:
            for group, stack in groups:
                sweep = _fd_differences(stack, m, h)
                assert len(sweep) == len(group)
                for pmf, stacked in zip(group, sweep):
                    loop = fd_gradient_loop(pmf, m, h)
                    assert np.array_equal(fd_gradient(pmf, m, h), loop)
                    assert np.array_equal(stacked, loop)


class TestDeltaVarianceOracle:
    def test_uniform_is_degenerate(self):
        assert abs(delta_variance_oracle(np.full(5, 0.2), 2)) <= 1e-25

    def test_two_point_agrees_with_series_form(self):
        quad = delta_variance_oracle([0.3, 0.7], 2)
        assert abs(quad - SIG2_POINT37) <= 1e-10
        assert abs(quad - sigma_sq_true([0.3, 0.7], 2)) <= 1e-10 * SIG2_POINT37

    def test_corpus_equivalence(self, small_corpus):
        for pmf in small_corpus:
            for m in (1, 2, 3, 4):
                quad = delta_variance_oracle(pmf, m)
                series = sigma_sq_true(pmf, m)
                assert abs(series - quad) <= 1e-8 * max(abs(quad), 1e-12)

    def test_literal_reading_disagrees_everywhere_non_uniform(self, small_corpus):
        for pmf in small_corpus:
            quad = delta_variance_oracle(pmf, 2)
            literal = sigma_sq_literal(pmf, 2)
            assert abs(literal - quad) > 1e-6 * max(quad, 1e-12)


class TestMcVarianceOracle:
    def test_two_point_law_matches_delta_method(self):
        dist = CustomFinite(np.array([0.3, 0.7]))
        var = mc_variance_oracle(dist, 2, n=4000, reps=400, seed=2024)
        assert abs(var - SIG2_POINT37) <= 0.25 * SIG2_POINT37

    def test_uniform_variance_collapses(self):
        var = mc_variance_oracle(CustomFinite(np.full(4, 0.25)), 2,
                                 n=20_000, reps=200, seed=5)
        assert var <= 0.01

    def test_heavy_tail_law_matches_series_variance(self):
        target = sigma_sq_true(Zeta(1.5), 2)
        var = mc_variance_oracle(Zeta(1.5), 2, n=10_000, reps=2000, seed=314159)
        assert abs(var - target) <= 0.15 * target

    def test_needs_enough_replicates(self):
        with pytest.raises(ValueError):
            mc_variance_oracle(UniformFinite(2), 2, n=100, reps=10, seed=1)

    @pytest.mark.parametrize("n, reps, message", [
        (100, 150.0, "reps must be an integer"),
        (100, "150", "reps must be an integer"),
        (100, True, "reps must be an integer"),
        (100, 0, "reps must be an integer >= 1"),
        (100, 99, "at least 100 replicates"),
        (100, 2**64, r"reps must be below 2\*\*64"),
        (0, 150, "n must be an integer >= 1"),
        (2.5, 150, "n must be an integer"),
        ("100", 150, "n must be an integer"),
    ])
    def test_bad_counts_are_value_errors(self, n, reps, message):
        with pytest.raises(ValueError, match=message):
            mc_variance_oracle(UniformFinite(2), 2, n=n, reps=reps, seed=1)

    # blocks of max(1, 16384 // n) replicates: several blocks, one row a block
    # (drawn row by row), Zeta rows left short and resumed near s = 1, a
    # degenerate law and a sample of one
    @pytest.mark.parametrize("dist, m, n, reps, seed", [
        (Zeta(1.5), 2, 4000, 400, 2024),
        (Zeta(1.5), 2, 10_000, 100, 314159),
        (Zeta(1.05), 2, 1000, 100, 7),
        (Zeta(1.01), 3, 100, 200, 11),
        (Geometric(0.3), 1, 50, 2000, 5),
        (UniformFinite(1), 2, 20, 100, 1),
        (CustomFinite(np.array([0.3, 0.7])), 2, 500, 300, -1),
        (UniformFinite(3), 2, 1, 100, 0),
    ], ids=["zeta1.5", "zeta1.5-row-blocks", "zeta1.05", "zeta1.01-m3", "geometric-m1",
            "uniform1", "custom", "uniform3-n1"])
    def test_bits_are_those_of_the_per_replicate_loop(self, dist, m, n, reps, seed):
        var = mc_variance_oracle(dist, m, n, reps, seed)
        assert var.hex() == mc_variance_loop(dist, m, n, reps, seed).hex()

    def test_one_category_has_zero_variance(self):
        assert mc_variance_oracle(UniformFinite(1), 2, n=20, reps=100, seed=1) == 0.0


class TestSigmaSqSweeps:
    @pytest.mark.parametrize("seed", [DEFAULT_CORPUS_SEED, 7, 11])
    def test_sweep_is_sigma_sq_true(self, seed):
        corpus = pmf_corpus(seed=seed)
        sweeps, _ = _sigma_sq_sweeps([pmf.probs for pmf in corpus], ORDERS)
        assert sorted(sweeps) == list(ORDERS)
        for m in ORDERS:
            assert sweeps[m].tolist() == [sigma_sq_true(pmf, m) for pmf in corpus]


class TestVerificationReport:
    def test_default_battery_passes(self):
        report = run_verification(corpus_size=25)
        for check in report.checks:
            assert check.passed, f"{check.name}: {check.detail}"
        assert report.passed

    def test_large_corpus_passes_at_high_orders(self):
        # its skewed two-point pmfs at orders 6..8 need free partials of
        # about 1e-10 to full relative precision
        report = run_verification(corpus_size=2000, m_values=tuple(range(1, 9)))
        assert report.passed, report.checks

    def test_report_is_reproducible(self):
        a = run_verification(corpus_size=10, m_values=(1, 2))
        b = run_verification(corpus_size=10, m_values=(1, 2))
        assert a == b

    def test_corpus_is_seeded_and_interior(self):
        corpus = pmf_corpus(seed=42, size=15)
        again = pmf_corpus(seed=42, size=15)
        assert len(corpus) == 15
        for pmf, pmf2 in zip(corpus, again):
            npt.assert_array_equal(pmf.probs, pmf2.probs)
            assert 2 <= pmf.size <= 12
            assert pmf.probs.min() >= 0.01

    @pytest.mark.parametrize("size", [0, -3, True, 2.0])
    def test_corpus_size_is_a_positive_integer(self, size):
        # an empty corpus would pass every check vacuously
        with pytest.raises(ValueError, match="corpus size"):
            pmf_corpus(size=size)
        with pytest.raises(ValueError, match="corpus size"):
            run_verification(corpus_size=size)

    @pytest.mark.parametrize("m_values", [(), [], (1, 0), (2, True), (2**53 + 1,)])
    def test_orders_are_checked_before_the_battery(self, m_values):
        # with no order every check would pass vacuously, with worst gaps of 0
        with pytest.raises(ValueError, match="m_values|collision order"):
            run_verification(corpus_size=3, m_values=m_values)
