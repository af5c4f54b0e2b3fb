import json
import math

import pytest

from gsentropy import (
    SampleCounts,
    confidence_interval,
    gse_plugin,
    read_counts_csv,
    sigma_hat_sq,
    write_counts_csv,
)
from gsentropy.cli import main

from _reference import H2_ZETA15, SIG2_POINT37, mp_geometric_h_sigma_sq


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_uniform(self, capsys):
        code, out, _ = run(capsys, "compute", "--dist", '{"kind":"uniform","K":4}', "--m", "2")
        assert code == 0
        assert "1.38629" in out

    def test_zeta_reports_shannon_and_note(self, capsys):
        code, out, _ = run(capsys, "compute", "--dist", '{"kind":"zeta","s":1.5}', "--m", "2")
        assert code == 0
        assert "0.678502" in out
        assert "3.21811" in out  # the Shannon series still converges here
        assert "lacks asymptotic normality" in out

    def test_light_zeta_tail_gets_no_warning(self, capsys):
        code, out, _ = run(capsys, "compute", "--dist", '{"kind":"zeta","s":3.0}', "--m", "2")
        assert code == 0
        assert "lacks asymptotic normality" not in out

    def test_custom_json_format(self, capsys):
        code, out, _ = run(capsys, "compute", "--dist",
                           '{"kind":"custom","probs":[0.3,0.7]}', "--m", "2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["h_m"] - 0.43157722083182143) <= 1e-12
        assert abs(payload["sigma_m"] - math.sqrt(SIG2_POINT37)) <= 1e-9
        assert payload["truncation_terms"] == 2

    def test_dist_from_file(self, capsys, tmp_path):
        spec = tmp_path / "dist.json"
        spec.write_text('{"kind":"zeta","s":1.5}', encoding="utf-8")
        code, out, _ = run(capsys, "compute", "--dist", str(spec), "--format", "json")
        assert code == 0
        assert abs(json.loads(out)["h_m"] - H2_ZETA15) <= 1e-9

    def test_malformed_spec_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "--dist", '{"kind":"pareto"}')
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("spec", [
        '{"kind":"zeta","s":[1]}',
        '{"kind":"geometric","q":{"q":0.5}}',
        '{"kind":"uniform","K":[4]}',
        '{"kind":"custom","probs":{"a":1}}',
        '{"kind":"uniform","K":true}',
        '{"kind":"zeta","s":"1.5"}',
        '{"kind":"custom","probs":[0.5,"0.5"]}',
    ])
    def test_non_numeric_parameter_is_usage_error(self, capsys, spec):
        code, _, err = run(capsys, "compute", "--dist", spec)
        assert code == 2
        assert err.startswith("error:") and "non-numeric" in err

    def test_non_integer_uniform_count_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "--dist", '{"kind":"uniform","K":2.5}')
        assert code == 2
        assert "positive integer" in err
        for too_many in (str(2**53 + 1), "1" + "0" * 400):
            code, _, err = run(capsys, "compute", "--dist", '{"kind":"uniform","K":%s}' % too_many)
            assert code == 2
            assert err.startswith("error:") and "2**53" in err and "Traceback" not in err
        code, out, _ = run(capsys, "compute", "--dist", '{"kind":"uniform","K":%d}' % 2**53,
                           "--format", "json")
        assert code == 0 and json.loads(out)["h_m"] == math.log(2**53)

    def test_non_convergence_exit_code(self, capsys):
        # mathematically finite, but a tolerance this tight needs more series
        # terms than the budget allows: reported distinctly as non-convergence
        code, _, err = run(capsys, "compute", "--dist", '{"kind":"zeta","s":1.5}',
                           "--eps", "1e-300")
        assert code == 3
        assert "non-convergence" in err

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_tiny_geometric_parameter_is_answered(self, capsys, m):
        pytest.importorskip("mpmath")
        code, out, _ = run(capsys, "compute", "--dist", '{"kind":"geometric","q":1e-9}',
                           "--m", str(m), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["h_m"] - mp_geometric_h_sigma_sq(1e-9, m)[0]) <= 1e-10
        assert payload["truncation_terms"] == 0


class TestEstimate:
    @pytest.fixture()
    def counts_csv(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("category,count\na,3\nb,7\n", encoding="utf-8")
        return path

    def test_counts_file(self, capsys, counts_csv):
        code, out, _ = run(capsys, "estimate", "--data", str(counts_csv), "--m", "2")
        assert code == 0
        assert "0.431577" in out
        assert "observed support   : 2" in out

    def test_json_matches_library(self, capsys, counts_csv):
        code, out, _ = run(capsys, "estimate", "--data", str(counts_csv),
                           "--m", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        counts = SampleCounts([1, 2], [3, 7])
        assert payload["h_hat"] == gse_plugin(counts, 2)
        assert abs(payload["sigma_hat"] ** 2 - sigma_hat_sq(counts, 2)) <= 1e-12
        assert payload["interval"]["degenerate"] is False

    @pytest.mark.parametrize("m,alpha", [(1, 0.05), (2, 0.05), (3, 0.1), (2, 0.01)])
    def test_json_interval_is_the_library_interval(self, capsys, tmp_path, m, alpha):
        path = tmp_path / "skewed.csv"
        path.write_text("category,count\na,41\nb,17\nc,17\nd,6\ne,2\nf,1\n", encoding="utf-8")
        code, out, _ = run(capsys, "estimate", "--data", str(path), "--m", str(m),
                           "--alpha", str(alpha), "--format", "json")
        assert code == 0
        counts, _ = read_counts_csv(path)
        ci = confidence_interval(counts, m, alpha)
        assert json.loads(out)["interval"] == {"lower": ci.lower, "upper": ci.upper,
                                               "level": ci.level, "degenerate": ci.degenerate}

    def test_bad_alpha_is_usage_error(self, capsys, counts_csv):
        code, _, err = run(capsys, "estimate", "--data", str(counts_csv), "--alpha", "1.5")
        assert code == 2
        assert "alpha" in err

    def test_single_category_flags_degenerate(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("category,count\nonly,9\n", encoding="utf-8")
        code, out, _ = run(capsys, "estimate", "--data", str(path))
        assert code == 0
        assert "single observed category" in out

    def test_uniform_counts_flag_vanishing_variance(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("category,count\na,5\nb,5\nc,5\n", encoding="utf-8")
        code, out, _ = run(capsys, "estimate", "--data", str(path))
        assert code == 0
        assert "empirically uniform" in out

    def test_raw_mode(self, capsys, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("a\nb\na\na\n", encoding="utf-8")
        code, out, _ = run(capsys, "estimate", "--data", str(path), "--raw", "--format", "json")
        assert code == 0
        assert json.loads(out)["n"] == 4

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "estimate", "--data", "/does/not/exist.csv")
        assert code == 2

    @pytest.mark.parametrize("rows", [
        "a,100000000000000000000\n",  # a count beyond int64
        "a,4611686018427387904\nb,4611686018427387904\n",  # a total of 2**63
        "a,4611686018427387904\na,4611686018427387904\n",  # one label's count is 2**63
    ])
    def test_counts_beyond_int64_are_usage_errors(self, capsys, tmp_path, rows):
        path = tmp_path / "huge.csv"
        path.write_text("category,count\n" + rows, encoding="utf-8")
        code, out, err = run(capsys, "estimate", "--data", str(path))
        assert code == 2
        assert out == "" and err.startswith("error:") and "int64" in err

    def test_csv_parser_error_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("category,count\n" + "x" * 200_000 + ",1\n", encoding="utf-8")
        code, out, err = run(capsys, "estimate", "--data", str(path))
        assert code == 2
        assert out == "" and err.startswith(f"error: {path}:2: ")

    def test_emitted_csv_round_trips_through_cli(self, capsys, tmp_path):
        counts = SampleCounts([1, 2, 3], [4, 9, 2])
        path = tmp_path / "emitted.csv"
        write_counts_csv(counts, path)
        code, out, _ = run(capsys, "estimate", "--data", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["h_hat"] == gse_plugin(counts, 2)


class TestCoverage:
    def test_writes_csv_and_svg(self, capsys, tmp_path):
        csv_path = tmp_path / "cov.csv"
        svg_path = tmp_path / "cov.svg"
        code, out, _ = run(
            capsys, "coverage", "--dist", '{"kind":"uniform","K":3}',
            "--grid", "20:60:20", "--reps", "30", "--seed", "5",
            "--out", str(csv_path), "--svg", str(svg_path),
        )
        assert code == 0
        lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "n,m,reps,coverage,se,seed"
        assert len(lines) == 4
        assert svg_path.read_text(encoding="utf-8").startswith("<svg")
        assert "coverage min" in out

    def test_stdout_csv(self, capsys):
        code, out, err = run(
            capsys, "coverage", "--dist", '{"kind":"uniform","K":2}',
            "--grid", "10:20:10", "--reps", "20", "--seed", "1",
        )
        assert code == 0
        assert out.startswith("n,m,reps,coverage,se,seed")
        assert "coverage min" in err

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "coverage", "--dist", '{"kind":"uniform","K":2}',
                           "--grid", "10-20-10", "--reps", "5")
        assert code == 2

    def test_protocol_defaults(self):
        from gsentropy import default_grid
        from gsentropy.cli import build_parser

        args = build_parser().parse_args(["coverage", "--dist", "{}"])
        assert args.reps == 5000 and args.alpha == 0.05 and args.m == 2
        assert args.grid is None  # falls back to the 10..1000 step-10 grid
        assert default_grid() == list(range(10, 1001, 10))


class TestVerify:
    def test_small_corpus_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--corpus-size", "15")
        assert code == 0
        assert out.count("[PASS]") == 5
        assert "[FAIL]" not in out
        assert "corrected" in out and "literal" in out

    def test_m_range_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--corpus-size", "6", "--m-range", "2..3")
        assert code == 0
        assert "orders [2, 3]" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        import gsentropy.cli as cli_mod
        from gsentropy.oracles import CheckResult, VerificationReport

        def fake_verification(**kwargs):
            return VerificationReport(0, 0, (2,), (CheckResult("forced", False, "forced failure"),))

        monkeypatch.setattr(cli_mod, "run_verification", fake_verification)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "[FAIL] forced" in out
