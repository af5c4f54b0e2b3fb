import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__
from scipy import stats

from gsentropy import (
    CoveragePoint,
    CustomFinite,
    Geometric,
    SweepResult,
    UniformFinite,
    Zeta,
    confidence_interval,
    convergence_gap,
    coverage_experiment,
    coverage_sweep,
    default_grid,
    derive_seed,
    gse_analytic,
    gse_estimate,
    sample,
    stable_from,
    write_coverage_csv,
    write_coverage_svg,
)
import gsentropy.coverage as coverage_module
from gsentropy import distributions
from gsentropy.coverage import (
    _BLOCK,
    COVERAGE_CSV_HEADER,
    STABLE_BAND_SE,
    _replicate_estimates,
    coverage_csv,
)
from gsentropy.distributions import _Workspace, _replicate_states

from _reference import exact_coverage, stable_from_rescan
from conftest import prescott_passed


class TestCoverageExperiment:
    def test_degenerate_alphabet_always_covers(self):
        point = coverage_experiment(UniformFinite(1), 2, n=5, reps=50, alpha=0.05, seed=3)
        assert point.hits == point.reps == 50
        assert point.coverage == 1.0
        assert point.se == 0.0

    def test_degenerate_intervals_hit_only_on_exact_containment(self):
        # n=2 from a fair coin: the {1,1} split gives a zero-width interval at
        # ln 2, exactly the truth (hit); one-sided splits give width zero at 0
        # (miss).  Coverage must sit near P(split) = 0.5.
        point = coverage_experiment(UniformFinite(2), 2, n=2, reps=600, alpha=0.05, seed=11)
        se = math.sqrt(0.5 * 0.5 / 600)
        assert abs(point.coverage - 0.5) <= 4 * se

    @pytest.mark.parametrize("dist, n, reps", [
        (Zeta(1.5), 60, 200),
        (UniformFinite(2), 4, 200),
        (UniformFinite(3), 6, 200),
        (Zeta(1.5), 10, _BLOCK // 10 + 7),  # a full block and a short one, over 1024 seeds
        (Zeta(1.5), 3000, 13),  # five replicates a block: 5 + 5 + 3
        (Zeta(1.5), _BLOCK + 1, 3),  # one replicate a block
        (Geometric(0.3), 50, 1),
        (CustomFinite(np.array([0.4, 0.25, 0.15, 0.12, 0.08])), 40, 97),
        (UniformFinite(1), 5, 40),  # every interval is degenerate, at ln 1 = 0
        (Zeta(1.01), 10, 300),  # every row of the block draw goes on past its first batch
        (Zeta(1.05), 100, 200),  # some rows go on past their first chunk
    ])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_hits_match_the_public_interval_path(self, dist, n, reps, m):
        # small uniform samples are often exactly uniform: zero-width
        # intervals whose hits depend on the last bit of H_hat
        truth = gse_analytic(dist, m)
        estimates = (gse_estimate(sample(dist, n, derive_seed(23, r)), m) for r in range(reps))
        hits = sum(confidence_interval(est, 0.05).contains(truth) for est in estimates)
        assert coverage_experiment(dist, m, n, reps=reps, alpha=0.05, seed=23).hits == hits

    def test_point_bookkeeping(self):
        point = coverage_experiment(UniformFinite(3), 2, n=30, reps=40, alpha=0.10, seed=7)
        assert point.n == 30 and point.m == 2 and point.reps == 40
        assert 0 <= point.hits <= 40
        assert point.coverage == point.hits / 40
        assert abs(point.se - math.sqrt(point.coverage * (1 - point.coverage) / 40)) <= 1e-15
        assert point.seed == 7

    def test_full_protocol_point_sits_at_nominal_level(self):
        # heaviest standard configuration: 5000 replicates at the top of the
        # sample-size grid; the interval should be honest there
        point = coverage_experiment(Zeta(1.5), 2, n=1000, reps=5000, alpha=0.05, seed=8080)
        assert abs(point.coverage - 0.95) <= 3.0 * math.sqrt(0.95 * 0.05 / 5000)

    def test_shannon_interval_fails_where_order_two_holds(self):
        # the paper's contrast at Zeta(1.5), n = 10^4: the Shannon plug-in's
        # bias outruns its n^(-1/2) interval, while the order-2 interval keeps
        # its level.  Seeds 1..12 gave 0 of 400 hits at m = 1 each, and m = 2
        # coverage of 0.9225..0.975.
        shannon = coverage_experiment(Zeta(1.5), 1, n=10_000, reps=400, alpha=0.05, seed=1)
        order_two = coverage_experiment(Zeta(1.5), 2, n=10_000, reps=400, alpha=0.05, seed=1)
        assert shannon.coverage <= 0.05
        assert abs(order_two.coverage - 0.95) <= 4.0 * math.sqrt(0.95 * 0.05 / 400)

    @pytest.mark.parametrize("n, reps", [
        (1, 10), (10, 0),
        (10, 2.5), (10.5, 10), (10.0, 10), (10, 3.0),  # not integers
        (True, 10), (10, True),  # bools are not counts
        (10, "3"),
    ])
    def test_domain(self, n, reps):
        with pytest.raises(ValueError):
            coverage_experiment(UniformFinite(2), 2, n=n, reps=reps, alpha=0.05, seed=1)

    def test_numpy_integers_are_counts(self):
        point = coverage_experiment(UniformFinite(2), 2, n=np.int64(10), reps=np.int32(5), alpha=0.05, seed=1)
        assert (point.n, point.reps) == (10, 5) and type(point.n) is int and type(point.reps) is int

    def test_numpy_integer_seeds(self):
        points = [coverage_experiment(UniformFinite(3), 2, 10, 5, 0.05, seed)
                  for seed in (5, np.int64(5), np.uint64(5))]
        assert points[0] == points[1] == points[2]
        assert coverage_csv(points[:1]) == coverage_csv(points[1:2]) == coverage_csv(points[2:])

    def test_memory_does_not_grow_with_reps(self):
        def peak(reps):
            tracemalloc.start()
            try:
                coverage_experiment(Geometric(0.3), 2, n=10, reps=reps, alpha=0.05, seed=5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the peak moves a little with where a block of derived seeds starts
        # inside a block of samples; states for all 20000 replicates up front
        # would add about 3 MB
        few, many = peak(2_000), peak(20_000)
        assert many <= 1.5 * few, (few, many)


class TestCoverageSweep:
    def test_default_grid_matches_protocol(self):
        grid = default_grid()
        assert grid[0] == 10 and grid[-1] == 1000 and len(grid) == 100
        assert all(b - a == 10 for a, b in zip(grid, grid[1:]))

    def test_sweep_structure_and_reuse_of_truth(self):
        dist = CustomFinite(np.array([0.25, 0.75]))
        result = coverage_sweep(dist, 2, [20, 40, 60], reps=50, alpha=0.05, seed=21)
        assert [p.n for p in result.points] == [20, 40, 60]
        assert result.distribution == {"kind": "custom", "probs": [0.25, 0.75]}
        assert result.m == 2 and result.alpha == 0.05
        assert all(0.0 <= p.coverage <= 1.0 for p in result.points)

    def test_grid_validation(self):
        dist = UniformFinite(3)
        with pytest.raises(ValueError):
            coverage_sweep(dist, 2, [], reps=10, alpha=0.05, seed=1)
        with pytest.raises(ValueError):
            coverage_sweep(dist, 2, [10, 10, 20], reps=10, alpha=0.05, seed=1)

    @pytest.mark.parametrize("grid", [[10.7, 20], [10, 20.0], [True, 20]])
    def test_grid_sizes_must_be_integers(self, grid):
        # int() once ran 10.7 as n = 10
        with pytest.raises(ValueError):
            coverage_sweep(UniformFinite(3), 2, grid, reps=10, alpha=0.05, seed=1)

    def test_numpy_integer_grid(self):
        result = coverage_sweep(UniformFinite(3), 2, np.arange(10, 30, 10), reps=5, alpha=0.05, seed=1)
        assert [p.n for p in result.points] == [10, 20] and all(type(p.n) is int for p in result.points)

    def test_soft_convergence_diagnostic(self):
        result = coverage_sweep(Zeta(1.5), 2, [20, 60, 120, 240, 480], reps=120,
                                alpha=0.05, seed=41)
        bottom, top = convergence_gap(result)
        if top > bottom:
            warnings.warn(
                f"coverage did not tighten with n (bottom-quartile gap {bottom:.4f}, "
                f"top-quartile gap {top:.4f}); soft diagnostic only",
                stacklevel=1,
            )


class TestSharedWorkspace:
    # A sweep draws every Zeta block's uniforms into one workspace, so a block
    # finds there whatever the block before it left.  No point may see it.
    # Zeta(1.01) rows at n = 10 go on past their first batch; Zeta(1.05)
    # rows at n = 1000 read the rest of their first batch, uv[r, width:] (at
    # n = 100 the first chunk is the whole batch, so the rest is empty).
    POINTS = [(Zeta(1.01), 10, "later batches"), (Zeta(1.05), 100, None),
              (Zeta(1.05), 1000, "rest of the row"), (Zeta(1.5), 10, None), (Zeta(1.5), 100, None),
              (Geometric(0.3), 40, None)]

    @staticmethod
    def used_workspace(kind):
        work = _Workspace()
        if kind == "nan":
            work.matrices(1 << 17, 1)[0].fill(np.nan)
        else:  # one block of 600 rows of 128 uniforms, larger than any below
            list(_replicate_estimates(Zeta(1.2), 2, 5, 600, _replicate_states(3, 600), work))
        return work

    @pytest.mark.parametrize("kind", ["nan", "dirty"])
    @pytest.mark.parametrize("dist, n, path", POINTS,
                             ids=["-".join(map(str, [*d.config().values(), n])) for d, n, _ in POINTS])
    def test_a_used_workspace_gives_the_lone_point(self, monkeypatch, kind, dist, n, path):
        work = self.used_workspace(kind)
        buffer = work._buf
        seen = set()
        fill, accept_into = Zeta._fill, Zeta._accept_into

        def spy_fill(self, out, filled, rng):
            seen.add("later batches")
            return fill(self, out, filled, rng)

        def spy_accept_into(self, out, filled, u, v):
            if u.size and np.shares_memory(u, buffer):
                seen.add("rest of the row")
            return accept_into(self, out, filled, u, v)

        monkeypatch.setattr(Zeta, "_fill", spy_fill)
        monkeypatch.setattr(Zeta, "_accept_into", spy_accept_into)
        reused = list(_replicate_estimates(dist, 2, n, 400, _replicate_states(29, 400), work))
        assert work._buf is buffer  # the blocks ran in what was left there
        assert seen == ({path} if path else set())
        fresh = list(_replicate_estimates(dist, 2, n, 400, _replicate_states(29, 400), _Workspace()))
        assert [(h.tobytes(), s.tobytes()) for h, s in reused] == \
            [(h.tobytes(), s.tobytes()) for h, s in fresh]

    @pytest.mark.parametrize("dist, grid, reps",
                             [(d, [n // 2, n], 400) for d, n, _ in POINTS] + [(Zeta(1.5), [10, 20, 30], 1500)],
                             ids=["-".join(map(str, [*d.config().values(), n])) for d, n, _ in POINTS]
                             + ["zeta-1.5-10-20-30-across-passes"])
    def test_every_sweep_point_is_the_lone_experiment(self, dist, grid, reps):
        # the point at n // 2 leaves a Zeta block at least as large as the one
        # at n needs, so the point at n runs in what it left.  At 1,500 reps
        # the first seeding pass of 4,096 states ends at replicate 1,096 of n = 30
        result = coverage_sweep(dist, 2, grid, reps=reps, alpha=0.05, seed=29)
        assert list(result.points) == [coverage_experiment(dist, 2, p.n, reps, 0.05, p.seed)
                                       for p in result.points]

    def test_every_zeta_block_of_a_sweep_is_drawn_into_one_workspace(self, monkeypatch):
        # the uniforms of every block must land in the sweep's one buffer, not
        # in a fresh matrix per block that the allocator gives back and the
        # next block faults in again
        grid = range(10, 101, 10)
        blocks, tested = [], []
        draw_rows, accept = Zeta.draw_rows, distributions._zeta_accept

        def spy_draw_rows(self, n, states, work):
            rows = draw_rows(self, n, states, work)
            blocks.append((work, work._buf))
            return rows

        def spy_accept(x, w, am1, b):
            if x.ndim == 2:  # the block's test; rows left short test 1-d slices
                tested.append((x, w))
            return accept(x, w, am1, b)

        monkeypatch.setattr(Zeta, "draw_rows", spy_draw_rows)
        monkeypatch.setattr(distributions, "_zeta_accept", spy_accept)
        coverage_sweep(Zeta(1.5), 2, grid, reps=400, alpha=0.05, seed=0)
        assert len(blocks) == len(tested) == sum(-(-400 // (_BLOCK // n)) for n in grid)
        assert all(work is blocks[0][0] for work, _ in blocks)
        # the test runs on contiguous copies of the first chunk's u and v,
        # carved from the same buffer as the block's uniforms
        assert all(x.flags.c_contiguous and w.flags.c_contiguous for x, w in tested)
        assert all(np.shares_memory(x, buffer) and np.shares_memory(w, buffer)
                   for (x, w), (_, buffer) in zip(tested, blocks))
        # with the two copies, the blocks creep up from 102,400 floats at
        # n = 10 to 131,040 at n = 60: the buffer is made once and doubled
        # once, never grown past that
        assert len({id(buffer) for _, buffer in blocks}) <= 2


class TestReusedStateMapping:
    # Every row is re-set through the workspace's one PCG64 state mapping.  A
    # Generator that the block before left dirty (moved by a short row's
    # advance and fill, a 32-bit half-word cached) must reach no row of the
    # next block, and the Generator must end where a fresh one ends.
    CASES = [(Zeta(1.01), 10), (Zeta(1.01), 100), (Zeta(1.5), 10), (Zeta(1.5), 100),
             (Geometric(0.3), 10), (Geometric(0.3), 100)]

    @staticmethod
    def dirty_workspace():
        work = _Workspace()
        # every row of Zeta(1.01) at n = 10 is short: it goes on past its first
        # batch, so this block ends in a row's advance and fill; 2,000 rows is
        # more than any block below
        Zeta(1.01).draw_rows(10, list(_replicate_states(3, 2000)), work)
        work.rng.integers(0, 1000, dtype=np.uint32)
        assert work.rng.bit_generator.state["has_uint32"] == 1
        return work

    @pytest.mark.parametrize("dist, n", CASES, ids=["-".join(map(str, [*d.config().values(), n])) for d, n in CASES])
    def test_a_dirty_generator_leaks_no_state(self, dist, n):
        states = list(_replicate_states(29, _BLOCK // n))
        dirty, fresh = self.dirty_workspace(), _Workspace()
        np.testing.assert_array_equal(dist.draw_rows(n, states, dirty), dist.draw_rows(n, states, fresh))
        assert dirty.rng.bit_generator.state == fresh.rng.bit_generator.state


class TestOneSetUpPerCall:
    # A call checks its arguments, takes the quantile and the exact entropy,
    # and makes its scratch once, whatever the number of points and blocks.
    @pytest.mark.parametrize("dist", [Zeta(1.5), Geometric(0.3)])
    def test_a_sweep_sets_up_once(self, monkeypatch, dist):
        made, generators, blocks = [], [], []
        calls = {"gse_analytic": 0, "_two_sided_z": 0}

        class Workspace(_Workspace):
            def __init__(self):
                made.append(self)
                super().__init__()

        def counted(name):
            function = getattr(coverage_module, name)

            def call(*args):
                calls[name] += 1
                return function(*args)
            return call

        generator = np.random.Generator

        def counted_generator(bit_generator):
            generators.append(bit_generator)
            return generator(bit_generator)

        draw_rows = type(dist).draw_rows  # Geometric's is the family default

        def spy_draw_rows(self, n, states, work):
            blocks.append((work, work.rng))
            return draw_rows(self, n, states, work)

        monkeypatch.setattr(coverage_module, "_Workspace", Workspace)
        for name in calls:
            monkeypatch.setattr(coverage_module, name, counted(name))
        monkeypatch.setattr(np.random, "Generator", counted_generator)
        monkeypatch.setattr(type(dist), "draw_rows", spy_draw_rows)
        grid = [10, 100, 1000]
        coverage_sweep(dist, 2, grid, reps=400, alpha=0.05, seed=0)
        assert len(made) == len(generators) == 1
        assert calls == {"gse_analytic": 1, "_two_sided_z": 1}
        assert len(blocks) == sum(-(-400 // max(1, _BLOCK // n)) for n in grid) == 29
        assert all(work is made[0] and rng is made[0].rng for work, rng in blocks)

    def test_a_small_n_sweep_seeds_in_one_pass(self, monkeypatch):
        # the 4,000 replicate states of ten grid points fit one pass of the
        # batched seeding, which costs about 0.2 ms whatever its size
        passes = []
        pcg64_states = distributions._pcg64_states

        def counted(seeds):
            passes.append(seeds.size)
            return pcg64_states(seeds)

        monkeypatch.setattr(distributions, "_pcg64_states", counted)
        coverage_sweep(Zeta(1.5), 2, range(10, 101, 10), reps=400, alpha=0.05, seed=0)
        assert passes == [4000]

    @pytest.mark.parametrize("reps, alpha, message", [
        (0, 0.05, "replicate count reps must be an integer >= 1, got 0"),
        (2**64, 0.05, "replicate count reps must be below 2**64, got 18446744073709551616"),
        (10, 1.5, "alpha must lie in (0, 1), got 1.5"),
    ])
    def test_bad_reps_or_alpha_are_refused_before_the_exact_entropy(self, monkeypatch, reps, alpha, message):
        calls = []
        monkeypatch.setattr(coverage_module, "gse_analytic", lambda *args: calls.append(args))
        with pytest.raises(ValueError) as info:
            coverage_sweep(Zeta(1.5), 2, [10, 20], reps=reps, alpha=alpha, seed=1)
        assert str(info.value) == message and calls == []

    def test_several_bad_arguments_report_in_one_order(self):
        # the grid first, then reps, the order m and alpha; the exact entropy
        # is taken only after all of them
        bad = dict(m=0, n_grid=[1], reps=0, alpha=0.0, seed=1)
        for name, message in [("n_grid", "coverage sample size n"), ("reps", "replicate count reps"),
                              ("m", "collision order m"), ("alpha", "alpha must lie in")]:
            with pytest.raises(ValueError, match=message):
                coverage_sweep(Zeta(1.5), **bad)
            bad[name] = dict(m=2, n_grid=[10], reps=5, alpha=0.05)[name]
        assert coverage_sweep(Zeta(1.5), **bad).points[0].reps == 5


class TestExactCoverage:
    # The engine against exact coverage, a sum over every possible sample's
    # multinomial probability (tests/_reference.py).  Each case stays under
    # 2e5 compositions; the four pinned values are those of a separate
    # prototype (itertools and scipy's gammaln) to five decimals.
    CASES = [
        ((0.5, 0.3, 0.2), 100, 0.93000),  # 5,151 compositions
        ((0.5, 0.3, 0.2), 400, 0.94132),  # 80,601
        ((0.4, 0.3, 0.2, 0.1), 100, 0.94474),  # 176,851
        ((0.9, 0.1), 50, 0.88727),  # 51
        ((1 / 3, 1 / 3, 1 / 3), 60, None),  # uniform: zero-width intervals at 20, 20, 20
        ((0.34, 0.33, 0.33), 120, None),  # near-uniform
    ]

    @pytest.mark.parametrize("probs, n, pinned", CASES, ids=[f"{len(c[0])}-{c[0][0]:.2f}-{c[1]}" for c in CASES])
    def test_monte_carlo_is_within_4_se_of_exact(self, probs, n, pinned):
        exact = exact_coverage(probs, 2, n, 0.05)
        if pinned is not None:
            assert round(exact, 5) == pinned
        dist = UniformFinite(len(probs)) if len(set(probs)) == 1 else CustomFinite(probs)
        reps = 20_000
        point = coverage_experiment(dist, 2, n, reps, 0.05, seed=1)
        assert abs(point.coverage - exact) <= 4 * math.sqrt(exact * (1 - exact) / reps)


class TestZeroVarianceLimit:
    # Every uniform law has sigma_m^2 = 0, so the sqrt(n) limit is a point
    # mass.  A second-order expansion about p = 1/K gives
    # ln K - H_hat_m = m^2 X / (2n) + o(1/n), with X the Pearson statistic,
    # chi^2 with K - 1 degrees of freedom in the limit; sigma_hat_m^2 is
    # m^4 X / n + o(1/n) the same way.  The sizes were taken from a
    # convergence run: the bias below K - 1 is O(1/n) and shows at n = 2000
    # for K = 50.
    @pytest.mark.parametrize("K, n", [(10, 5000), (50, 20000)])
    @pytest.mark.parametrize("m", [2, 3])
    def test_scaled_error_has_the_chi_square_mean(self, K, n, m):
        reps = 1000
        estimates = _replicate_estimates(UniformFinite(K), m, n, reps, _replicate_states(0, reps), _Workspace())
        h = np.concatenate([h for h, _ in estimates])
        scaled = 2 * n * (math.log(K) - h) / m**2
        se = scaled.std(ddof=1) / math.sqrt(reps)
        assert abs(scaled.mean() - (K - 1)) <= 4 * se

    def test_uniform_50_coverage_is_far_below_nominal(self):
        # the interval covers ln K about when X <= 4 z^2 = 15.4, which
        # chi^2 with 49 degrees of freedom does with probability 1e-6
        point = coverage_experiment(UniformFinite(50), 2, n=1000, reps=2000, alpha=0.05, seed=0)
        assert point.hits == 0

    def test_uniform_10_coverage_tends_to_the_chi_square_limit(self):
        # and chi^2 with 9 degrees of freedom with probability 0.919, not 0.95
        limit = stats.chi2.cdf(4 * NormalDist().inv_cdf(0.975) ** 2, 9)
        point = coverage_experiment(UniformFinite(10), 2, n=20000, reps=1000, alpha=0.05, seed=0)
        assert abs(point.coverage - limit) <= 4 * math.sqrt(limit * (1 - limit) / 1000)
        assert point.coverage < 0.95 - 2 * point.se


# SHA-256 of coverage_csv for m=2, grid 10:50:10, 40 reps, seed 2022; the
# coverage CSV is the contract of record, so these must never change.
PINNED_CSV_SHA256 = {
    "zeta": (Zeta(1.5), "3eaf9973baf0cbff983abc0a8f36b45783b97eb1887e207d564f7ace254236b5"),
    "geometric": (Geometric(0.3), "6def97895a267369bac92493a1f0641eb91956cb69717af94537a0b8c6b4195e"),
    "uniform": (UniformFinite(7), "120788ece3c5fda581cc6c681f2f229e56eca9bc0cac0fd0642e1eb7a2d5d3a2"),
    "custom": (CustomFinite(np.array([0.4, 0.25, 0.15, 0.12, 0.08])),
               "bc929087ca00365b44adc4545b3ff4fa8b2ff940648760db24a6e6a841374485"),
}


@pytest.mark.parametrize("family", sorted(PINNED_CSV_SHA256))
def test_coverage_csv_is_pinned(family):
    dist, digest = PINNED_CSV_SHA256[family]
    result = coverage_sweep(dist, 2, [10, 20, 30, 40, 50], reps=40, alpha=0.05, seed=2022)
    assert hashlib.sha256(coverage_csv(result.points).encode()).hexdigest() == digest


def test_coverage_csv_pins_hold_on_other_cpu_paths():
    # The pinned sweeps again, in a fresh interpreter where OpenBLAS runs its
    # Sandy Bridge kernels and numpy has no AVX-512 loops (where it has them
    # to disable), as on an older CPU: the CSV rests on integer hits.
    disabled = [f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if f in __cpu_dispatch__]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge", "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)}
    here = Path(__file__).resolve()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{here}::test_coverage_csv_is_pinned"],
        cwd=here.parents[1], env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0 and "4 passed" in run.stdout, run.stdout + run.stderr


def test_kernel_pins_hold_under_the_sse2_blas_kernel(prescott_run):
    # the segment kernel's sums are numpy reductions with no BLAS call, so
    # its pinned bits hold under OpenBLAS's SSE2-era core too; one subprocess
    # runs this half and the oracles', which test_oracles.py checks
    assert prescott_run.returncode == 0 and "40 passed" in prescott_run.stdout, \
        prescott_run.stdout + prescott_run.stderr
    passed, count = prescott_passed(prescott_run, "test_coverage.py")
    assert passed == count, prescott_run.stdout


class TestArtifacts:
    def test_csv_schema_and_round_trip(self, tmp_path):
        dist = UniformFinite(4)
        result = coverage_sweep(dist, 2, [30, 60], reps=25, alpha=0.05, seed=51)
        path = tmp_path / "coverage.csv"
        write_coverage_csv(result, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == COVERAGE_CSV_HEADER
        assert len(lines) == 3
        for line, point in zip(lines[1:], result.points):
            n, m, reps, cov, se, seed = line.split(",")
            assert (int(n), int(m), int(reps)) == (point.n, point.m, point.reps)
            assert float(cov) == point.coverage
            assert float(se) == point.se
            assert int(seed) == point.seed

    def test_svg_artifact(self, tmp_path):
        result = coverage_sweep(UniformFinite(4), 2, [30, 60, 90], reps=25, alpha=0.05, seed=61)
        path = tmp_path / "coverage.svg"
        write_coverage_svg(result, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert "stroke-dasharray" in text  # the nominal-level reference line
        assert text.count("<circle") == 3

    def test_stable_from(self):
        result = coverage_sweep(CustomFinite(np.array([0.3, 0.7])), 2,
                                [200, 400, 800], reps=200, alpha=0.05, seed=71)
        n_star = stable_from(result)
        assert n_star is None or n_star in (200, 400, 800)

    @staticmethod
    def _curve(alpha, reps, coverages):
        points = tuple(CoveragePoint(n=10 * (i + 1), m=2, reps=reps, hits=0, coverage=c, se=0.0, seed=0)
                       for i, c in enumerate(coverages))
        return SweepResult({}, 2, alpha, 0.0, points)

    def test_stable_from_matches_the_rescan(self):
        # random curves over hit counts, the nominal level and the band's two
        # edges, each edge also a float step to either side, so ties occur
        rng = np.random.default_rng(26)
        for _ in range(3000):
            alpha = float(rng.choice([0.05, 0.1, 0.2]))
            reps = int(rng.choice([1, 5, 20, 100, 1000]))
            level = 1.0 - alpha
            band = STABLE_BAND_SE * math.sqrt(level * (1 - level) / reps)
            edges = [level, level + band, level - band, rng.integers(0, reps + 1) / reps]
            values = edges + [math.nextafter(e, d) for e in edges[1:3] for d in (-1.0, 2.0)]
            curve = self._curve(alpha, reps, rng.choice(values, int(rng.integers(0, 31))).tolist())
            assert stable_from(curve) == stable_from_rescan(curve, STABLE_BAND_SE)

    def test_stable_from_is_one_pass_over_a_long_grid(self):
        # 10^5 points with one late failure, where rescanning every suffix is quadratic
        coverages = [0.95] * 100_000
        coverages[-3] = 0.5
        assert stable_from(self._curve(0.05, 1000, coverages)) == 10 * 99_999
        coverages[-1] = 0.5
        assert stable_from(self._curve(0.05, 1000, coverages)) is None
        assert stable_from(self._curve(0.05, 1000, [0.95] * 100_000)) == 10
