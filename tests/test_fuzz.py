"""Fuzzing of the input surface: distribution configs, count and label files,
and ``gse estimate`` on those files.

Only the documented failures may occur: ``ValueError`` from
``parse_distribution``, ``ValueError`` or ``OSError`` from the readers, and
exit code 0 or 2 (with an ``error:`` line, never a traceback) from the CLI.
The runs are derandomized, so every run tries the same examples.  ``gse
compute`` is not fuzzed: a Zeta exponent near 1 can legitimately sum up to
50M series terms.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsentropy import parse_distribution, read_counts_csv, read_raw_labels
from gsentropy.cli import main

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

# objects that reach a family constructor, with arbitrary parameter values
family_configs = st.fixed_dictionaries(
    {"kind": st.sampled_from(["zeta", "geometric", "uniform", "custom", "Zeta", "poisson"])},
    optional={"s": json_values, "q": json_values, "K": json_values,
              "probs": st.lists(st.floats() | st.integers(), max_size=6) | json_values},
)

_count_values = st.integers(-3, 2**70) | st.sampled_from(["", " 7", "1.5", "x", "0x10", "1_000"])
counts_csv_texts = st.lists(st.tuples(st.text(max_size=6), _count_values), max_size=8).map(
    lambda rows: "category,count\n" + "".join(f"{label},{count}\n" for label, count in rows))

input_files = st.one_of(
    st.binary(max_size=300),
    st.binary(max_size=300).map(lambda tail: b"category,count\n" + tail),
    counts_csv_texts.map(str.encode),
    st.lists(st.text(max_size=5), max_size=12).map(lambda lines: "\n".join(lines).encode()),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(st.one_of(json_values, family_configs, st.text(max_size=40)))
@example({"kind": "custom", "probs": [1e308, 1e308]})  # finite entries whose sum overflows
def test_parse_distribution_raises_only_value_error(value):
    specs = [value] if isinstance(value, str) else [json.dumps(value)]
    if isinstance(value, dict):
        specs.append(value)
    for spec in specs:
        try:
            parse_distribution(spec)
        except ValueError:
            pass


@FUZZ
@given(input_files)
def test_readers_raise_only_value_or_os_errors(workdir, data):
    path = workdir / "input"
    path.write_bytes(data)
    for reader in (read_counts_csv, read_raw_labels):
        try:
            counts, labels = reader(path)
        except (ValueError, OSError):
            continue
        assert list(labels) == counts.categories.tolist() == list(range(1, len(labels) + 1))
        assert counts.n == sum(counts.counts.tolist())


@FUZZ
@given(input_files, st.booleans(), st.integers(1, 4), st.sampled_from(["text", "json"]))
@example(b"category,count\na,100000000000000000000\n", False, 2, "json")  # a count beyond int64
def test_estimate_exits_0_or_2_without_traceback(workdir, data, raw, m, fmt):
    path = workdir / "input"
    path.write_bytes(data)
    argv = ["estimate", "--data", str(path), "--m", str(m), "--format", fmt] + (["--raw"] if raw else [])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        if fmt == "json":
            assert json.loads(out.getvalue())["m"] == m
    else:
        assert code == 2
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
