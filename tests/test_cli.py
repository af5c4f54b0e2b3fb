import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gsentropy import (
    SampleCounts,
    Zeta,
    confidence_interval,
    gse_analytic_info,
    gse_estimate,
    gse_plugin,
    parse_distribution,
    read_counts_csv,
    read_raw_labels,
    shannon_entropy,
    sigma_hat_sq,
    sigma_sq_true,
    truncation_index,
    write_counts_csv,
)
from gsentropy import cli, distributions, estimation
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

    @pytest.mark.parametrize("spec, note", [
        ('{"kind":"zeta","s":2.0}', True),
        ('{"kind":"zeta","s":2.5}', False),
        ('{"kind":"geometric","q":0.5}', False),
        ('{"kind":"uniform","K":4}', False),
        ('{"kind":"custom","probs":[0.3,0.7]}', False),
    ])
    def test_heavy_tail_note_is_the_law_s(self, capsys, spec, note):
        # the note follows the law's own Shannon-CLT regime: Zeta's fails at s <= 2
        code, out, _ = run(capsys, "compute", "--dist", spec, "--m", "2")
        assert code == 0
        assert out.count("note: with a tail this heavy") == int(note)

    def test_custom_json_format(self, capsys):
        code, out, _ = run(capsys, "compute", "--dist",
                           '{"kind":"custom","probs":[0.3,0.7]}', "--m", "2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["m", "h_m", "shannon", "sigma_m", "sigma_sq_m", "truncation_terms"]
        assert abs(payload["h_m"] - 0.43157722083182143) <= 1e-12
        assert abs(payload["sigma_m"] - math.sqrt(SIG2_POINT37)) <= 1e-9
        assert payload["truncation_terms"] == 2

    @pytest.mark.parametrize("spec, zero", [
        ('{"kind":"uniform","K":4}', True),
        ('{"kind":"custom","probs":[0.25,0.25,0.25,0.25]}', True),
        ('{"kind":"custom","probs":[%r,%r,%r]}' % ((1 / 3,) * 3), True),
        ('{"kind":"custom","probs":[0.505,0.495]}', False),
        ('{"kind":"zeta","s":1.5}', False),
    ])
    def test_zero_variance_is_said(self, capsys, spec, zero):
        # sigma_m^2 = 0 exactly on a uniform law: the sqrt(n) limit is a point mass
        code, out, _ = run(capsys, "compute", "--dist", spec, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["sigma_sq_m"] == 0.0) is zero
        code, out, _ = run(capsys, "compute", "--dist", spec)
        assert code == 0
        assert ("note: sigma_m is 0" in out) is zero

    @pytest.mark.parametrize("spec, zero", [
        ('{"kind":"zeta","s":600}', False),
        ('{"kind":"zeta","s":1024}', False),
        ('{"kind":"uniform","K":4}', True),
        ('{"kind":"uniform","K":5}', True),
        ('{"kind":"custom","probs":[0.25,0.25,0.25,0.25]}', True),
        ('{"kind":"custom","probs":[0.5,0.5,0]}', True),
    ])
    def test_zero_variance_note_comes_from_the_law(self, capsys, spec, zero):
        # sigma_2^2 of Zeta(600) and Zeta(1024) underflows to 0.0, but the law
        # is not uniform on its support, so no note; a uniform law gets one
        for command in (["compute"], ["coverage", "--grid", "10:20:10", "--reps", "20", "--seed", "1"]):
            code, out, err = run(capsys, *command, "--dist", spec, "--m", "2")
            assert code == 0
            assert (out + err).count("note: sigma_m is 0") == zero

    def test_eps_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--dist", '{"kind":"zeta","s":1.5}', "--eps", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eps" in capsys.readouterr().err

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

    @pytest.mark.parametrize("count", ["NaN", "Infinity"])
    def test_non_finite_uniform_count_is_usage_error(self, capsys, count):
        code, out, err = run(capsys, "compute", "--dist", '{"kind":"uniform","K":%s}' % count)
        assert code == 2 and out == ""
        assert err == "error: UniformFinite needs a positive integer number of categories\n"

    def test_non_convergence_exit_code(self, capsys, monkeypatch):
        # a series that needs more terms than the budget allows is reported
        # distinctly as non-convergence: sigma_m^2 of Zeta(1.1) sums
        # S_2(1.1) over 2000 terms.  Every value is taken before any is
        # printed, so stdout stays empty.
        monkeypatch.setattr(distributions, "MAX_SERIES_TERMS", 1000)
        code, out, err = run(capsys, "compute", "--dist", '{"kind":"zeta","s":1.1}', "--m", "1")
        assert code == 3 and out == ""
        assert err.startswith("non-convergence:")

    @pytest.mark.parametrize("budget", [2_000, 4_000, 16_000])
    def test_shannon_converges_wherever_h_m_and_sigma_do(self, monkeypatch, budget):
        # gse compute takes H_m, sigma_m^2 and Shannon's H, with no fallback
        # for a value it cannot evaluate.  They sum S_j(a), j = 0..2, at
        # a = s, m s and (2m - 1) s, all above 1 and all to one fixed
        # tolerance, at which no a needs more than 2000 terms (1/25000 of the
        # budget), so any budget from 2000 up answers every Zeta law.
        grid = ((1.0 + np.logspace(-15, 3, 600)).tolist() + np.linspace(1.001, 6.0, 600).tolist()
                + [1.1, 10.0, 100.0, 1024.0, 2048.0, 1e6, 9e18])
        worst = max(distributions.series_terms_needed(a, j) for a in grid for j in (0, 1, 2))
        assert worst == 2000 and 25_000 * worst <= distributions.MAX_SERIES_TERMS
        monkeypatch.setattr(distributions, "MAX_SERIES_TERMS", budget)
        for s in (1.0001, 1.001, 1.01, 1.05, 1.1, 1.2, 1.3, 1.5, 2.0, 3.0, 10.0):
            for m in (1, 2, 3, 4):
                gse_analytic_info(Zeta(s), m)
                sigma_sq_true(Zeta(s), m)
                shannon_entropy(Zeta(s))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_tiny_geometric_parameter_is_answered(self, capsys, m):
        pytest.importorskip("mpmath")
        code, out, _ = run(capsys, "compute", "--dist", '{"kind":"geometric","q":1e-9}',
                           "--m", str(m), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["h_m"] - mp_geometric_h_sigma_sq(1e-9, m)[0]) <= 1e-10
        assert payload["truncation_terms"] == 0


    @pytest.mark.parametrize("spec", ['{"kind":"zeta","s":1.5}', '{"kind":"geometric","q":1e-9}'])
    def test_truncation_terms_are_truncation_index(self, capsys, spec):
        for m in (1, 2):
            code, out, _ = run(capsys, "compute", "--dist", spec, "--m", str(m), "--format", "json")
            assert code == 0
            assert json.loads(out)["truncation_terms"] == truncation_index(parse_distribution(spec), m)

    @pytest.mark.parametrize("m", ["1", "2", "3"])
    def test_zeta_series_are_each_evaluated_once(self, capsys, monkeypatch, m):
        # H_m and Shannon's H take zeta(t) and S_1(t) each, sigma_m^2 zeta(t),
        # S_1(t), zeta(s) and S_0..S_2(2t - s); every series counts its own terms
        calls = {"power_log_series": 0, "series_terms_needed": 0, "h_m": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def call(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(owner, name, call)

        counted(distributions, "power_log_series")
        counted(distributions, "series_terms_needed")
        counted(Zeta, "h_m")
        code, _, _ = run(capsys, "compute", "--dist", '{"kind":"zeta","s":1.5}', "--m", m)
        assert code == 0
        assert calls == {"power_log_series": 10, "series_terms_needed": 10, "h_m": 2}


@pytest.mark.parametrize("argv", [
    ["--dist", '{"kind":"zeta","s":1025}'],
    ["--dist", '{"kind":"zeta","s":1.5}', "--m", str(2**53 + 1)],
    ["--dist", '{"kind":"geometric","q":0.3}', "--m", str(2**53 + 1)],
])
@pytest.mark.parametrize("command", [["compute"], ["coverage", "--grid", "10:10:1", "--reps", "2"]])
def test_parameter_past_its_bound_is_usage_error(capsys, command, argv):
    # s > 1024 overflows the Zeta sampler's 2^(s-1); m > 2^53 would be rounded as a float
    code, out, err = run(capsys, *command, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--dist", '{"kind":"zeta","s":1024}'],
    ["--dist", '{"kind":"zeta","s":1.5}', "--m", str(2**53)],
])
@pytest.mark.parametrize("command", [["compute"], ["coverage", "--grid", "10:10:1", "--reps", "2"]])
def test_parameter_at_its_bound_is_answered(capsys, command, argv):
    code, _, err = run(capsys, *command, *argv)
    assert code == 0 and not err.startswith("error:")


@pytest.mark.parametrize("command", [["estimate", "--data"],
                                     ["coverage", "--grid", "10:10:1", "--reps", "2", "--dist"]])
def test_alpha_whose_level_rounds_to_one_is_named(capsys, tmp_path, command):
    # for alpha <= 2^-53, 1 - alpha/2 rounds to 1.0; the quantile's own
    # message would blame a 1.0 that the user never gave
    data = tmp_path / "counts.csv"
    data.write_text("category,count\na,3\nb,7\n", encoding="utf-8")
    spec = {"estimate": str(data), "coverage": '{"kind":"uniform","K":2}'}[command[0]]
    code, out, err = run(capsys, *command, spec, "--alpha", "1e-320")
    assert code == 2 and out == ""
    assert err == "error: alpha must exceed 2**-53, got 1e-320: 1 - alpha/2 rounds to 1\n"


# each integer option, after a command line that it completes; a coverage
# run that got past the parser would be one replicate at one sample size
_COVERAGE = ["coverage", "--dist", '{"kind":"uniform","K":4}', "--grid", "10:10:1"]
_INTEGER_OPTIONS = [
    (["compute", "--dist", '{"kind":"uniform","K":4}'], "--m"),
    (["estimate", "--data", "/nonexistent"], "--m"),
    ([*_COVERAGE, "--reps", "1"], "--m"),
    (_COVERAGE, "--reps"),
    ([*_COVERAGE, "--reps", "1"], "--seed"),
    (["verify", "--corpus-size", "1"], "--corpus-seed"),
    (["verify"], "--corpus-size"),
]
_INTEGER_IDS = [f"{command[0]}{option}" for command, option in _INTEGER_OPTIONS]


# int() alone would also read digit separators and non-ASCII digits
@pytest.mark.parametrize("value", ["1_0", "٢", "５"])
@pytest.mark.parametrize("command, option", _INTEGER_OPTIONS, ids=_INTEGER_IDS)
def test_integer_option_must_be_ascii_digits(capsys, command, option, value):
    with pytest.raises(SystemExit) as exc:
        main([*command, option, value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.endswith(f" error: argument {option}: invalid int value: {value!r}\n")


@pytest.mark.parametrize("value, number", [("7", 7), ("+7", 7), ("-7", -7), (" 7 ", 7),
                                           ("\t007\n", 7), ("-0", 0)])
@pytest.mark.parametrize("command, option", _INTEGER_OPTIONS, ids=_INTEGER_IDS)
def test_integer_option_takes_signed_and_padded_ascii(command, option, value, number):
    from gsentropy.cli import build_parser

    args = build_parser().parse_args([*command, f"{option}={value}"])
    assert getattr(args, option[2:].replace("-", "_")) == number


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

    @pytest.mark.parametrize("raw", [True, False])
    def test_bad_byte_is_named_by_its_file_offset(self, capsys, tmp_path, raw):
        # the offset is the file's, not that of the decoder's 8 KiB chunk
        path = tmp_path / "bad.txt"
        body = b"a\n" * 6000 if raw else b"category,count\n" + b"a,1\n" * 2996 + b"b"
        path.write_bytes(body + b"\xff\n")
        code, out, err = run(capsys, "estimate", "--data", str(path), *(["--raw"] if raw else []))
        assert code == 2 and out == ""
        assert err == f"error: {path}: byte 12000 is not UTF-8 (invalid start byte)\n"

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
        ci = confidence_interval(gse_estimate(counts, m), alpha)
        assert json.loads(out)["interval"] == {"lower": ci.lower, "upper": ci.upper,
                                               "level": ci.level, "degenerate": ci.degenerate}

    # the level is printed as it is, not rounded to a whole percent: 99.9% would
    # read as 100% and 0.1% as 0%
    @pytest.mark.parametrize("alpha, level", [(None, "95"), ("0.001", "99.9"), ("0.999", "0.1")])
    def test_text_output_names_the_interval_level(self, capsys, counts_csv, alpha, level):
        code, out, _ = run(capsys, "estimate", "--data", str(counts_csv), *(["--alpha", alpha] if alpha else []))
        assert code == 0
        ci = confidence_interval(gse_estimate(read_counts_csv(counts_csv)[0], 2), float(alpha or 0.05))
        assert f"{level}% interval       : [{ci.lower:.6g}, {ci.upper:.6g}]\n" in out

    def test_quantile_is_taken_once(self, capsys, monkeypatch, counts_csv):
        calls = []
        quantile = estimation.normal_quantile
        monkeypatch.setattr(estimation, "normal_quantile", lambda p: calls.append(p) or quantile(p))
        code, _, _ = run(capsys, "estimate", "--data", str(counts_csv))
        assert code == 0 and calls == [0.975]

    def test_bad_alpha_is_usage_error(self, capsys, counts_csv):
        code, _, err = run(capsys, "estimate", "--data", str(counts_csv), "--alpha", "1.5")
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("raw", [True, False])
    @pytest.mark.parametrize("option, message", [
        (("--alpha", "1.5"), "error: alpha must lie in (0, 1), got 1.5\n"),
        (("--m", "0"), "error: collision order m must be an integer >= 1, got 0\n"),
    ], ids=["alpha", "order"])
    def test_options_are_checked_before_the_file_is_read(self, capsys, raw, option, message):
        # a bad option must not wait for a large file to be read, nor hide
        # behind the file's own error
        code, out, err = run(capsys, "estimate", "--data", "/nonexistent", *option,
                             *(["--raw"] if raw else []))
        assert code == 2 and out == ""
        assert err == message

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

    @pytest.mark.parametrize("raw", [True, False])
    def test_no_label_string_is_built(self, capsys, monkeypatch, tmp_path, raw):
        # the estimate reads counts only: with the key decoder gone the labels,
        # tallied as packed keys, still give the same output
        path = tmp_path / "data"
        path.write_text("".join(f"c{i % 7}\n" for i in range(50)) if raw else
                        "category,count\n" + "".join(f"c{i},{i % 4 + 1}\n" for i in range(50)), encoding="utf-8")
        argv = ["estimate", "--data", str(path), *(["--raw"] if raw else [])]
        expected = [run(capsys, *argv, *form) for form in ([], ["--format", "json"])]

        def decode(keys):
            raise AssertionError("a label string was built")

        monkeypatch.setattr(estimation, "_key_labels", decode)
        assert [run(capsys, *argv, *form) for form in ([], ["--format", "json"])] == expected
        assert [code for code, _, _ in expected] == [0, 0]

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

    @pytest.mark.parametrize("rows, line", [
        ("a,1_000\nb,\u0663\n", 2),  # int() reads these as 1000 and 3
        ("a,7\nb,\u0663\n", 3),  # an Arabic-Indic digit
        ("a,7\nb,\uff15\n", 3),  # a full-width digit
        ("a, +7 \nb,1_0\n", 3),
        ("a,--7\n", 2),
        ("a,+\n", 2),
        ("a,\n", 2),
    ])
    def test_count_must_be_ascii_digits(self, capsys, tmp_path, rows, line):
        path = tmp_path / "odd.csv"
        path.write_text("category,count\n" + rows, encoding="utf-8")
        code, out, err = run(capsys, "estimate", "--data", str(path))
        assert code == 2
        assert out == "" and err.startswith(f"error: {path}:{line}: count ") and "not an integer" in err

    def test_count_sign_and_whitespace_are_accepted(self, capsys, tmp_path):
        path = tmp_path / "signed.csv"
        path.write_text("category,count\na, +7 \nb,\t3\u00a0\nc,-0\n", encoding="utf-8")
        assert read_counts_csv(path)[0] == SampleCounts([1, 2], [7, 3])
        path.write_text("category,count\na,7\nb, -2\n", encoding="utf-8")
        code, out, err = run(capsys, "estimate", "--data", str(path))
        assert code == 2 and err.startswith(f"error: {path}:3: negative count -2")

    def test_csv_parser_error_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("category,count\n" + "x" * 200_000 + ",1\n", encoding="utf-8")
        code, out, err = run(capsys, "estimate", "--data", str(path))
        assert code == 2
        assert out == "" and err.startswith(f"error: {path}:2: ")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("raw", [False, True])
    def test_row_order_changes_no_output_byte(self, capsys, tmp_path, seed, raw):
        # the readers number labels as they come, so a permuted file numbers
        # them differently; the label -> count pairing and every output byte stay
        rng = np.random.default_rng(seed)
        observed = [f"L{k}" for k in rng.zipf(1.6, 400) % 37]
        if raw:
            head, body = [], observed + ["", " L3\t"]
        else:
            head = ["category,count"]
            body = [f"{label},1" for label in observed] + ["L0,0", "zero,0", " L1 ,2", "L2,+0"]
        flag = ["--raw"] if raw else []
        path = tmp_path / "data.txt"
        numberings, seen = set(), set()
        for lines in (body, body[::-1], [body[i] for i in rng.permutation(len(body))]):
            path.write_text("\n".join(head + lines) + "\n", encoding="utf-8")
            counts, labels = (read_raw_labels if raw else read_counts_csv)(path)
            outs = tuple(run(capsys, "estimate", "--data", str(path), "--m", m, "--format", fmt, *flag)
                         for m in ("2", "3") for fmt in ("text", "json"))
            numberings.add(labels)
            seen.add((frozenset(zip(labels, counts.counts.tolist())), outs))
        assert len(numberings) > 1 and len(seen) == 1
        (pairs, outs), = seen
        assert [code for code, _, _ in outs] == [0] * 4 and "zero" not in dict(pairs)

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
        for dist, grid, reps, verdict in [
            ('{"kind":"uniform","K":2}', "10:20:10", "20", "all points within 3 binomial SEs of 0.95 from n = 10"),
            # 50 categories at n <= 400: every sample misses some, and no interval covers ln 50
            ('{"kind":"uniform","K":50}', "200:400:200", "200",
             "no grid point starts an all-within-3-SE run of the nominal level"),
        ]:
            code, out, err = run(capsys, "coverage", "--dist", dist, "--grid", grid, "--reps", reps, "--seed", "1")
            assert code == 0
            assert out.startswith("n,m,reps,coverage,se,seed")
            assert "coverage min" in err
            assert err.splitlines()[-1] == verdict

    @pytest.mark.parametrize("spec, zero", [
        ('{"kind":"uniform","K":5}', True),
        ('{"kind":"custom","probs":[1.0]}', True),
        ('{"kind":"zeta","s":1.5}', False),
    ])
    def test_zero_variance_is_said(self, capsys, tmp_path, spec, zero):
        # one note in the summary, on either stream, and none in the CSV
        argv = ["coverage", "--dist", spec, "--grid", "10:30:10", "--reps", "50", "--seed", "3"]
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert err.count("note: sigma_m is 0") == zero and "note" not in out
        csv_path = tmp_path / "cov.csv"
        code, summary, _ = run(capsys, *argv, "--out", str(csv_path))
        assert code == 0
        assert summary == err and csv_path.read_text(encoding="utf-8") == out

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "coverage", "--dist", '{"kind":"uniform","K":2}',
                           "--grid", "10-20-10", "--reps", "5")
        assert code == 2

    # int() alone would also read digit separators and non-ASCII digits
    @pytest.mark.parametrize("grid", ["2:x:1", ":10:1", "10:20:", "10-20-10", "10:20", "1:2:3:4",
                                      "1_0:2_0:1_0", "10:٢٠:10", "１０:20:10"])
    def test_malformed_grid_names_its_form(self, capsys, grid):
        code, out, err = run(capsys, "coverage", "--dist", '{"kind":"uniform","K":2}',
                             "--grid", grid, "--reps", "5")
        assert code == 2 and out == ""
        assert err == f"error: grid must look like start:stop:step, got {grid!r}\n"

    @pytest.mark.parametrize("grid, points", [
        ("10:30:10", [10, 20, 30]),
        ("+10:+30:+10", [10, 20, 30]),
        (" 10 : 30 :10 ", [10, 20, 30]),
        ("\t2:3:1\n", [2, 3]),
    ])
    def test_ascii_grids_parse_as_before(self, grid, points):
        from gsentropy.cli import _parse_grid

        assert _parse_grid(grid) == points

    @pytest.mark.parametrize("grid", ["10:" + "1" * 401 + ":10", f"10:{2**53 + 1}:{2**52}"])
    def test_grid_stop_past_2_to_the_53_is_usage_error(self, capsys, grid):
        # a stop past 2^53 must not reach range(), whose C ssize_t a 401-digit one overflows
        code, out, err = run(capsys, "coverage", "--dist", '{"kind":"uniform","K":2}',
                             "--grid", grid, "--reps", "5")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_grid_of_more_than_a_million_points_is_usage_error(self, capsys):
        # refused before the list is built, and before any replicate runs
        code, out, err = run(capsys, "coverage", "--dist", '{"kind":"uniform","K":2}',
                             "--grid", f"10:{2**53}:1", "--reps", "2")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "more than 1000000" in err

    def test_sample_too_large_for_memory_is_usage_error(self, capsys):
        # 2^53 int64 draws are 2^56 bytes: the allocation fails at once
        code, out, err = run(capsys, "coverage", "--dist", '{"kind":"zeta","s":1.5}',
                             "--grid", f"{2**53}:{2**53}:1", "--reps", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_reps_of_2_to_the_64_is_usage_error(self, capsys):
        # derive_seed keys replicate r by r mod 2^64: a larger count would
        # repeat streams, and it once started a run that never ended
        code, out, err = run(capsys, "coverage", "--dist", '{"kind":"zeta","s":1.5}',
                             "--grid", "10:20:10", "--reps", str(2**64))
        assert code == 2 and out == ""
        assert err == f"error: replicate count reps must be below 2**64, got {2**64}\n"

    def test_memory_error_without_a_message_is_named(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError
        monkeypatch.setattr(cli, "coverage_sweep", exhausted)
        code, out, err = run(capsys, "coverage", "--dist", '{"kind":"uniform","K":2}',
                             "--grid", "10:10:1", "--reps", "1")
        assert (code, out, err) == (2, "", "error: MemoryError\n")

    def test_geometric_draw_past_int64_is_usage_error(self, capsys):
        # at q = 1e-300 every draw is past 2^63; they once wrapped to negative
        # values, and the sweep printed coverage 0.0 at exit 0.  At the
        # subnormal 5e-324 the draw's quotient overflows, with no warning
        for q, grid, reps in [("1e-300", "100:300:100", "50"), ("5e-324", "10:20:10", "5")]:
            code, out, err = run(capsys, "coverage", "--dist", f'{{"kind":"geometric","q":{q}}}',
                                 "--grid", grid, "--reps", reps)
            assert code == 2 and out == ""
            assert err == f"error: Geometric(q={q}) drew a value past the int64 bound 2**63 - 1\n"

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

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_empty_corpus_is_usage_error(self, capsys, size):
        # an empty corpus would pass every check vacuously
        code, out, err = run(capsys, "verify", f"--corpus-size={size}")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "corpus size" in err

    def test_corpus_past_the_span_bound_is_usage_error(self, capsys, monkeypatch):
        # refused before any pmf of the corpus is drawn
        monkeypatch.setattr(cli, "run_verification", None)
        code, out, err = run(capsys, "verify", "--corpus-size", "1000001")
        assert code == 2 and out == ""
        assert err == "error: corpus size must be at most 1000000, got 1000001\n"

    @pytest.mark.parametrize("seed", ["-1", str(-(2**64))])
    def test_negative_corpus_seed_is_usage_error(self, capsys, seed):
        # numpy's own message would name neither the flag nor the value
        code, out, err = run(capsys, "verify", "--corpus-size", "2", "--corpus-seed", seed)
        assert code == 2 and out == ""
        assert err == f"error: corpus seed must be an integer >= 0, got {seed}\n"

    @pytest.mark.parametrize("spec", ["1.." + "1" * 401, "1" * 401 + "..1", "1" * 401,
                                      f"1..{2**53 + 1}", "0..2", "0", "3..2", "+0"])
    def test_unusable_order_range_is_usage_error(self, capsys, spec):
        # an end past 2^53 must not reach range(), whose C ssize_t a 401-digit one overflows
        code, out, err = run(capsys, "verify", "--corpus-size", "2", "--m-range", spec)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    # int() alone would also read digit separators and non-ASCII digits
    @pytest.mark.parametrize("spec", ["..3", "1..", "1..x", "1...3", "x", "",
                                      "١..٣", "1_0..12", "５", "1..３", "1_2"])
    def test_malformed_order_range_names_its_form(self, capsys, spec):
        code, out, err = run(capsys, "verify", "--corpus-size", "1", "--m-range", spec)
        assert code == 2 and out == ""
        assert err == f"error: order range must look like m or lo..hi, got {spec!r}\n"

    @pytest.mark.parametrize("spec, orders", [
        ("1..4", (1, 2, 3, 4)),
        ("3", (3,)),
        ("+2..+3", (2, 3)),
        (" 2 .. 3 ", (2, 3)),
        ("\t5\n", (5,)),
        ("007..8", (7, 8)),
    ])
    def test_ascii_order_ranges_parse_as_before(self, spec, orders):
        from gsentropy.cli import _parse_m_range

        assert _parse_m_range(spec) == orders

    @pytest.mark.parametrize("spec", [f"1..{2**53}", "1..1000001"])
    def test_order_range_of_more_than_a_million_orders_is_usage_error(self, capsys, spec):
        code, out, err = run(capsys, "verify", "--corpus-size", "1", "--m-range", spec)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "more than 1000000" in err

    def test_spans_of_a_million_are_accepted(self):
        from gsentropy.cli import MAX_SPAN, _parse_grid, _parse_m_range

        assert MAX_SPAN == 10**6
        assert _parse_m_range("1..1000000") == tuple(range(1, 10**6 + 1))
        assert _parse_grid("2:1000001:1") == list(range(2, 10**6 + 2))
        assert _parse_grid(f"2:{2**53}:{(2**53 - 2) // (10**6 - 1)}")[-1] <= 2**53
        with pytest.raises(ValueError, match="more than 1000000"):
            _parse_grid("2:1000002:1")

    def test_order_range_reaches_2_to_the_53(self, capsys):
        code, out, _ = run(capsys, "verify", "--corpus-size", "2", "--m-range", f"{2**53 - 1}..{2**53}")
        assert code == 0
        assert f"orders [{2**53 - 1}, {2**53}]" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        import gsentropy.cli as cli_mod
        from gsentropy.oracles import CheckResult, VerificationReport

        def fake_verification(**kwargs):
            return VerificationReport(0, 0, (2,), (CheckResult("forced", False, "forced failure"),))

        monkeypatch.setattr(cli_mod, "run_verification", fake_verification)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "[FAIL] forced" in out


_FAILED_VERIFY = """
from gsentropy import cli
from gsentropy.oracles import CheckResult, VerificationReport
cli.run_verification = lambda **kwargs: VerificationReport(0, 0, (2,), (CheckResult("forced", False, "x"),))
raise SystemExit(cli.main(["verify"]))
"""
# --out written into a pipe whose reader has gone, with stdout still read
_OUT_TO_A_CLOSED_PIPE = """
import os, sys
from gsentropy import cli
read, write = os.pipe()
os.close(read)
cli.write_coverage_csv = lambda result, path: os.write(write, b"n,coverage\\n")
raise SystemExit(cli.main(sys.argv[1:]))
"""
_COVERAGE = ["coverage", "--dist", '{"kind":"zeta","s":1.5}', "--grid", "10:50:20", "--reps", "200"]


def _run_gse(argv, stdout):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120)


@pytest.mark.parametrize("argv, status", [
    (["-m", "gsentropy", "compute", "--dist", '{"kind":"zeta","s":1.5}'], 0),
    (["-m", "gsentropy", *_COVERAGE], 0),
    (["-m", "gsentropy", *_COVERAGE, "--svg", "{tmp}/plot.svg"], 0),
    (["-c", _FAILED_VERIFY], 1),
], ids=["compute", "coverage-csv-on-stdout", "coverage-with-svg", "failed-verify"])
def test_a_closed_stdout_is_not_an_error(tmp_path, argv, status):
    # a reader that stops reading, as `gse compute ... | head -0` does, is not
    # a usage error (exit 2); the command keeps its own status and reports no
    # error, also none from the interpreter's flush of stdout at exit, and the
    # files it writes are whole
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    read, write = os.pipe()
    os.close(read)
    try:
        done = _run_gse(argv, write)
    finally:
        os.close(write)
    assert done.returncode == status, done.stderr
    assert not any(word in done.stderr for word in (b"error:", b"Error", b"Traceback"))
    if "--svg" in argv:
        assert (tmp_path / "plot.svg").read_text(encoding="utf-8").rstrip().endswith("</svg>")


def test_a_broken_pipe_other_than_stdout_is_an_error(tmp_path):
    # the command's own output cut short is an input error, though stdout is open
    done = _run_gse(["-c", _OUT_TO_A_CLOSED_PIPE, *_COVERAGE, "--out", str(tmp_path / "c.csv")], subprocess.PIPE)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(b"error: [Errno 32]"), done.stderr
    assert b"Traceback" not in done.stderr


def test_one_parser_per_process_answers_as_a_fresh_one(capsys, monkeypatch, tmp_path):
    # main reuses one cached parser; calls through it, a usage error and --help
    # among them, must exit and print exactly as through a parser built anew
    import gsentropy.cli as cli_mod

    assert cli_mod.build_parser() is cli_mod.build_parser()
    data = tmp_path / "labels.txt"
    data.write_text("a\nb\na\nc\n", encoding="utf-8")
    calls = [
        ["compute", "--dist", '{"kind":"zeta","s":1.5}', "--format", "json"],
        ["estimate", "--data", str(data), "--raw", "--m", "3"],
        ["verify", "--corpus-size", "3", "--m-range", "1..2"],
        ["compute", "--m"],
        ["estimate", "--help"],
        ["--help"],
        ["compute", "--dist", '{"kind":"uniform","K":4}'],
    ]

    def outcomes():
        seen = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            seen.append((code, *capsys.readouterr()))
        return seen

    cached = outcomes() + outcomes()
    monkeypatch.setattr(cli_mod, "build_parser", cli_mod.build_parser.__wrapped__)
    fresh = outcomes()
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0, 0, 0]
    assert cached == fresh + fresh
