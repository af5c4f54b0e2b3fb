"""Fuzzing of the input surface: distribution configs, count and label files,
``gse estimate`` on those files, the order-range and grid parsers, and ``gse
verify``'s corpus and order flags.

Only the documented failures may occur: ``ValueError`` from
``parse_distribution`` and the range parsers, ``ValueError`` or ``OSError``
from the readers, and exit code 0 or 2 (with an ``error:`` line, never a
traceback) from the CLI.  The runs are derandomized, so every run tries the
same examples.  ``gse compute`` is not fuzzed: a Zeta exponent near 1 can
legitimately sum up to 50M series terms.  The range strategies keep every
valid span tiny (at most 3 orders, a corpus of at most 3 pmfs), so no example
starts an unbounded run; their other spans hold more than 10^6 values, past
the parsers' cap.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsentropy import parse_distribution, read_counts_csv, read_raw_labels
from gsentropy.cli import _parse_grid, _parse_m_range, main

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

# orders m up to 4, and around and past 2^53, the largest order accepted
orders = st.integers(1, 4) | st.integers(2**53 - 2, 2**53 + 2) | st.integers(2**53, 10**400)


# range ends: small ones, around 2^53, and far past it either way
_huge = st.integers(2**53 + 1, 10**401) | st.integers(-(10**401), -1)
_junk = st.text(alphabet="x .:-+e", max_size=6)


# a span end that makes a span of just over 10^6 values, or of about 2^53;
# either is built (about 36 MB) or fails to allocate at once if the cap is lost
def _too_long(start, step=1):
    return st.integers(start + 10**6 * step, start + 10**6 * step + 2) | st.integers(2**53 - 2, 2**53)


@st.composite
def _order_ranges(draw):
    """lo..hi or a single order, half of them valid; hi is drawn near lo,
    so a valid range holds at most 3 orders, or so far past it that the
    range holds more than 10^6 orders and is refused."""
    lo = draw(st.integers(1, 5) | st.integers(2**53 - 2, 2**53))
    hi = draw(st.integers(lo, min(lo + 2, 2**53)) | (_too_long(lo) if lo <= 5 else st.nothing()))
    if not draw(st.booleans()):  # break one end
        bad = st.integers(-2, 0) | _huge
        lo, hi = draw(st.sampled_from([(draw(bad), hi), (lo, draw(bad | st.just(lo - 1)))]))
    return f"{lo}..{hi}" if draw(st.booleans()) else str(lo)


@st.composite
def _grids(draw):
    """start:stop:step, half of them valid; a step above a third of the span
    leaves a valid grid at most 3 points.  Some grids instead take steps of
    1 to 3 over more than 10^6 points, which are refused."""
    start = draw(st.integers(2, 12) | st.integers(2**53 - 2, 2**53))
    if start <= 12 and draw(st.booleans()):
        step = draw(st.integers(1, 3))
        return f"{start}:{draw(_too_long(start, step))}:{step}"
    stop = draw(st.integers(start, min(start + 30, 2**53)) | st.integers(start, 2**53))
    if not draw(st.booleans()):  # break one part
        start, stop = draw(st.sampled_from([
            (draw(st.integers(-1, 1) | _huge), stop),
            (start, draw(st.just(start - 1) | st.integers(2**53 + 1, 2**53 + 2) | _huge))]))
    step = draw(st.integers(1, 2**60).map(lambda x: x + abs(stop - start) // 3) | st.integers(-2, 0))
    return f"{start}:{stop}:{step}"


m_range_specs = _order_ranges() | st.tuples(st.integers(-1, 3), _junk).map("{0[0]}..{0[1]}".format) | _junk
grid_specs = _grids() | st.tuples(st.integers(-1, 12), _junk).map("{0[0]}:{0[1]}".format) | _junk


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
        assert counts.categories.tolist() == list(range(1, len(labels) + 1))
        assert len(set(labels)) == len(labels)
        assert counts.n == sum(counts.counts.tolist())


@FUZZ
@given(input_files, st.booleans(), orders, st.sampled_from(["text", "json"]))
@example(b"category,count\na,100000000000000000000\n", False, 2, "json")  # a count beyond int64
@example(b"category,count\na,3\nb,4\n", False, 10**400, "text")  # an order too large for a float
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


@FUZZ
@given(m_range_specs)
@example("1.." + "1" * 401)  # an end too large for range()
@example("1" * 401 + ".." + "1" * 401)
@example(f"1..{2**53}")  # 2^53 orders: refused before the span is built
@example("1..1000001")
def test_parse_m_range_raises_only_value_error(spec):
    try:
        orders = _parse_m_range(spec)
    except ValueError:
        return
    assert 1 <= len(orders) <= 3
    assert all(1 <= m <= 2**53 for m in orders)
    assert list(orders) == list(range(orders[0], orders[-1] + 1))


@FUZZ
@given(grid_specs)
@example("10:" + "1" * 401 + ":10")  # a stop too large for range()
@example(f"10:{2**53}:{2**53}")
@example(f"10:{2**53}:1")  # about 2^53 points: refused before the list is built
def test_parse_grid_raises_only_value_error(spec):
    try:
        grid = _parse_grid(spec)
    except ValueError:
        return
    assert 1 <= len(grid) <= 3
    assert 2 <= grid[0] and grid[-1] <= 2**53
    assert all(b > a for a, b in zip(grid, grid[1:]))


# seeds below 0 are refused; those past 2^64 are valid numpy seeds
corpus_seeds = st.integers(0, 3) | st.integers(-(10**401), -1) | st.integers(2**64, 10**401)


@FUZZ
@given(st.integers(-3, 3) | st.integers(-(10**401), -4), m_range_specs, corpus_seeds)
@example(0, "1..2", 0)  # an empty corpus
@example(-3, "1..2", 0)
@example(2, "1.." + "1" * 401, 0)
@example(1, f"1..{2**53}", 0)
@example(1, "1..2", -1)
@example(1, "1..2", 2**64)
def test_verify_exits_0_or_2_without_traceback(size, spec, seed):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", f"--corpus-size={size}", f"--m-range={spec}", f"--corpus-seed={seed}"])
    if code == 0:
        assert err.getvalue() == ""
        assert out.getvalue().startswith(f"corpus: {size} pmfs, seed {seed}")
        assert out.getvalue().count("[PASS]") == 5
    else:
        assert code == 2
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
