"""For each per-layer metric, the end-to-end metric and workload it should move.

``BENCHMARK.json`` at the root holds every metric's name, unit and direction;
its entries may hold nothing else, so this map lives here.
"""

from __future__ import annotations

_REPLICATE = "items_per_cal_s (replicates) on coverage_small_n"
_DRAW = "items_per_cal_s (replicates) on coverage_large_n"
_INGEST = "items_per_cal_s (rows) and peak_rss_mb on estimate_ingest"
_ANALYTIC = "wall_cal_s, peak_rss_mb and answered_ratio on analytic"

MOVES = {
    "distributions.derive_seed.s": _REPLICATE,
    "distributions.sample.self_s": f"{_REPLICATE}; {_DRAW}",
    "distributions.sample.draws": _DRAW,
    "distributions.SampleCounts.from_observations.s": f"{_REPLICATE}; {_DRAW}",
    "distributions.sample.categories": _DRAW,
    "estimation.confidence_interval.self_s": f"{_REPLICATE}; wall_cal_s on estimate_ingest",
    "estimation.gse_estimate.self_s": f"{_REPLICATE}; wall_cal_s on estimate_ingest",
    "estimation.empirical_pmf.s": f"{_REPLICATE}; wall_cal_s on estimate_ingest",
    "estimation.empirical_pmf.calls": f"{_REPLICATE}; wall_cal_s on estimate_ingest",
    "estimation.normal_quantile.s": _REPLICATE,
    "estimation.normal_quantile.calls": _REPLICATE,
    "estimation.confidence_interval.degenerate": _REPLICATE,
    "estimation.confidence_interval.degenerate_ratio": _REPLICATE,
    "estimation.read_raw_labels.s": _INGEST,
    "estimation.read_raw_labels.rows": _INGEST,
    "estimation.read_counts_csv.s": _INGEST,
    "estimation.read_counts_csv.rows": _INGEST,
    "distributions.power_log_series.s": _ANALYTIC,
    "distributions.power_log_series.calls": _ANALYTIC,
    "distributions.truncation_index.s": _ANALYTIC,
    "distributions.truncation_index.calls": _ANALYTIC,
    "entropy.gse_analytic_info.self_s": _ANALYTIC,
    "entropy.gse_analytic_info.series_terms": _ANALYTIC,
    "entropy.shannon_entropy.s": _ANALYTIC,
    "estimation.sigma_sq_true.s": _ANALYTIC,
    "entropy.gse_analytic.s": f"{_ANALYTIC}; flat on the coverage workloads",
    "oracles.run_verification.self_s": "wall_cal_s on analytic",
    "oracles.fd_gradient.s": "wall_cal_s on analytic",
    "oracles.analytic_gradient.s": "wall_cal_s on analytic",
    "oracles.delta_variance_oracle.s": "wall_cal_s on analytic",
    "entropy.gse.calls": "wall_cal_s on analytic",
    "coverage.coverage_experiment.self_s": _REPLICATE,
    "coverage.coverage_sweep.self_s": _REPLICATE,
    "coverage.write_coverage_csv.s": _REPLICATE,
    "cli.main.self_s": f"wall_cal_s on analytic; {_REPLICATE}",
    "trace.overhead_ratio": "none: traced over untraced wall_cal_s, minus 1",
}
