"""The two file readers against the per-line readers in ``_reference``.

Each reader must give the reference's categories 1..K, total and label ->
count pairing (not its numbering, which the readers leave unspecified), or raise
a ``ValueError`` of the same type with the same message; a byte that is not
UTF-8 is named by its offset in the whole file.  The generated files
mix LF, CRLF and CR line ends, carry an optional byte-order mark, blank and
whitespace-only lines, labels with Unicode whitespace that strips but does
not end a line, duplicate labels, odd counts and quoted fields, invalid
UTF-8, and filler that carries a line (and a CRLF pair) across the 8 KiB and
64 KiB marks.  The runs are derandomized, so every run tries the same files.
The counts-CSV examples also put each exit from ``read_counts_csv``'s block
pass after a first block of plain rows it has already counted.
"""

import csv
import io
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager, nullcontext, suppress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsentropy import SampleCounts, estimation, read_counts_csv, read_raw_labels, write_counts_csv
from gsentropy.cli import main

from _reference import read_counts_csv_rows, read_raw_labels_lines

DIFF = settings(derandomize=True, database=None, max_examples=300, deadline=None)

BOM = "\ufeff"
# whitespace that str.strip removes: "\x85", "\u2028", "\x1c" and "\x0b" also
# end a line for str.splitlines, but not for a file read line by line
_label_chars = st.sampled_from(["a", "b", "\u00e9", "7", " ", "\t", "\x85", "\u2028", "\u3000",
                                "\x0b", "\x1c", "\xa0", ",", '"'])
labels = st.text(_label_chars, max_size=4)
line_ends = st.sampled_from(["\n", "\r\n", "\r"])
# byte sequences that are not UTF-8: a stray byte, a truncated character, a surrogate
_bad_utf8 = st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"])


@st.composite
def _filler(draw, ends, line, cut):
    """Lines that bring what follows within a few characters of the 8 KiB,
    16 KiB or 64 KiB mark (cut there if cut, else whole lines), or none."""
    size = draw(st.sampled_from([0, 8192, 16384, 65536]))
    if not size:
        return ""
    size += draw(st.integers(-4, 2))
    line += draw(ends)
    text = line * (size // len(line) + 1)
    return text[:size] if cut else text[:size - size % len(line)]


@st.composite
def _files(draw, body):
    """A file's bytes: optional BOM, the body with its filler, and sometimes
    an invalid UTF-8 sequence at any position."""
    ends = st.just(draw(line_ends)) if draw(st.booleans()) else line_ends
    data = ((BOM if draw(st.booleans()) else "") + draw(body(ends))).encode("utf-8")
    if draw(st.sampled_from([False, False, False, False, True])):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(_bad_utf8) + data[at:]
    return data


def _raw_body(ends):
    lines = st.lists(st.tuples(labels, ends).map("".join), max_size=12).map("".join)
    # the last line may lack an end
    return st.tuples(_filler(ends, "z" * 9, cut=True), lines, labels).map("".join)


_counts = st.integers(0, 30).map(str) | st.sampled_from(["007", " 7", "12 ", "+3", "-0", str(2**63)])
_bad_counts = st.sampled_from(["", "-2", "1_000", "\u0663", "\u00b2", "1.5", "x", "0x10", "\u20077"])
# quoted fields may hold commas, quotes and line ends
_csv_labels = labels | st.text(st.sampled_from("ab,\"\n\r "), max_size=4)
_csv_rows = (st.tuples(_csv_labels, _counts).map(list) | st.sampled_from([[], [" "], [""]]))
_odd_rows = (st.tuples(_csv_labels, _bad_counts).map(list) | st.lists(_csv_labels, min_size=1, max_size=3)
             | st.sampled_from(['"a,1', 'a"b,2', 'a,"3"x', "a\0b,1"]))  # the last are written as they are


@st.composite
def _csv_body(draw, ends):
    """The header (one in four unusable), filler rows of "z,1", rows, and
    possibly one odd row: a bad count, a column too few or too many, or a
    stray quote."""
    rows = draw(st.lists(_csv_rows, max_size=8))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(_odd_rows))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    out = io.StringIO()
    headers = ["category,count", " Category , COUNT ", "count,category", "category,count"]
    out.write(draw(st.sampled_from(headers)))
    out.write(draw(ends) + draw(_filler(ends, "z,1", cut=False)))
    for row in rows:
        if isinstance(row, str):
            out.write(row)
        else:
            csv.writer(out, quoting=quoting, lineterminator="").writerow(row)
        out.write(draw(ends))
    return out.getvalue()


def _read(reader, path, **options):
    """reader's categories, counts and labels for path, or its ValueError's type and message."""
    try:
        counts, labels = reader(path, **options)
    except ValueError as exc:
        return type(exc), str(exc)
    return counts.categories.tolist(), counts.counts.tolist(), labels


def _outcome(read):
    if len(read) == 2:  # an error
        return read
    categories, counts, labels = read
    # the numbering is the reader's own; categories 1..K and the pairing are not
    return categories, len(labels), sum(counts), dict(zip(labels, counts))


def _unlabelled(read):
    """What the read gives with labels=False: the same counts, numbered alike, and None, or the same error."""
    return read if len(read) == 2 else (*read[:2], None)


def _agree(tmp_path, data, reader, reference):
    path = tmp_path / "input"
    path.write_bytes(data)
    read = _read(reader, path)
    assert _outcome(read) == _outcome(_read(reference, path))
    assert _read(reader, path, labels=False) == _unlabelled(read)


def _spanning(before, line, end, after):
    """before, then line led by x's to over 20,000 bytes, so that its end starts at the last
    byte of an 8 KiB mark of the file, then after: a line that spans at least 3 decodes."""
    return before + b"x" * (-len(before + line) % 8192 + 3 * 8192 - 1) + line + end + after


# More than 64 KiB of plain lines, each label new and of at most 8 bytes: a
# first block the numpy pass takes before it meets what follows; and blocks
# of labels of 9 bytes or more
_RAW = "".join(f"p{i}\n" for i in range(12000)).encode()
_LONG = "".join(f"label-{i % 3000:04d}\n" for i in range(8000)).encode()


@DIFF
@given(_files(_raw_body))
@example(b"a\r\nb\r" + b"\nc")
@example(("z" * 8190 + "\r\n" + "a\r\n").encode())  # a CRLF across the 8 KiB mark
@example(("z" * 65535 + "\r\n" + "a").encode())  # and across the 64 KiB mark
@example(("a\n" * 6000).encode() + b"\xff\n")  # a decode error past the first 8 KiB
@example(("a\n" * 4096).encode() + b"\xff")  # a bad byte at byte 8,192
@example(BOM.encode() + b"a\n\xffb\n")  # and after a byte-order mark
@example(b"a\n\xe2\x82")  # a character cut short at the end of the file
@example(b" \x85a\xe2\x80\xa8\n\xe2\x80\xa8a\n \n\t\n")
@example(b"")
@example(b"\xef\xbb")  # a byte-order mark cut short by the end of the file
@example(_RAW + b"a\r\nb\n")  # after a first block of plain lines: a CRLF line,
@example(_RAW + b"a\rb\n")  # a lone CR,
@example(_RAW + b"a\0b\n")  # a NUL,
@example(_RAW + b"a\x7fb\n")  # a DEL,
@example(_RAW + b" a\n\tb\t\n")  # labels padded with a space and a tab,
@example(_RAW + b"a\x1c\n")  # whitespace that is ASCII
@example(_RAW + "a\x85\n\u3000b\n".encode())  # and whitespace that is not,
@example(_RAW + b"a\n\xff\n")  # a bad byte in a later block,
@example(_RAW + b"abcdefgh\nabcdefghi\nabcdefgh\n")  # labels of 8 and 9 bytes,
@example(_RAW + b"p0\n")  # a label met again in a later block,
@example(BOM.encode() + _RAW)  # a byte-order mark before plain lines,
@example(_RAW + b"a")  # a plain last line with no line end,
@example(_RAW + b"a\r")  # one ending in a lone CR,
@example(_RAW.replace(b"\n", b"\r\n"))  # CRLF lines, which are plain too,
@example(_RAW + b"\n" + _LONG + b"p0\n \n")  # blocks of mostly long lines, then more
@example(_spanning(b" a\n", b"", b"\n", b"b"))  # after a padded label, which the block pass refuses, a
@example(_spanning(b" a\n", b"", b"\r\n", b"b\n"))  # long line ending LF, CRLF across a mark,
@example(_spanning(b" a\n", b"", b"\r", b"b\n"))  # or a lone CR at one,
@example(_spanning(_RAW + b" a\n", b"", b"\r\n", b"b\n"))  # and so after a first plain block;
@example(_spanning(b" a\n" + b"x" * 12000 + b"\xff", b"", b"\n", b"b\n"))  # a bad byte inside one
def test_read_raw_labels_matches_line_by_line(tmp_path_factory, data):
    _agree(tmp_path_factory.mktemp("raw"), data, read_raw_labels, read_raw_labels_lines)


# A header and more than 64 KiB of plain rows, each label new: the block pass
# counts a whole first block of them before it meets what follows
_PLAIN = b"category,count\n" + "".join(f"r{i},{i % 5 + 1}\n" for i in range(9000)).encode()
_PAST_LIMIT = csv.field_size_limit() + 1
# After them a row of three columns that ends at the 72 KiB mark, the end of one 8 KiB decode
_ODD_AT_72K = _PLAIN + b"y" * (73728 - len(_PLAIN) - 9) + b",1\na,1,2\n"
# More than 64 KiB of rows whose labels are longer than 8 bytes, some of them with count 0
_LONG_ROWS = "".join(f"label-{i % 3000:04d},{i % 4}\n" for i in range(8000)).encode()
# A header and a quoted row: the block pass refuses the first block
_QUOTED = b'category,count\n"a",1\n'


@DIFF
@given(_files(_csv_body))
@example(b'category,count\n"a,b",2\n"c\r\nd",3\n  a,b ,1\n')
@example(b"category,count\na,1_000\nb,+2\nc,-0\nd,-1\n")
@example("category,count\na,\u0663\n".encode())
@example(b"category,count\n\n \na,1,2\n")
@example(BOM.encode() + b"category,count\na,1\n\xff,2\n")
@example(b"category,count\na,1\n\xe2\x82")
@example(b"\xef\xbb")  # a byte-order mark cut short by the end of the file
@example(b"category,count\na,0\nb,1\na,2\nb,0\n")  # zero counts and labels that repeat
@example(b"category,count\na,0\nb,1\n")  # a zero count among distinct labels
@example("category,count\n a ,1\na\u3000,2\n".encode())  # labels that strip alike
@example(_PLAIN + b"r0,5\n")  # a label met again in a later block
@example(b"count,category\n" + _PLAIN[15:])  # an unusable header over plain rows
@example(b"category" + b" " * _PAST_LIMIT + b",count\nz,1\n")  # a header field past the limit
@example(_PLAIN + b'"a,b",2\n')  # the block pass's exits, each past a first block of
@example(_PLAIN + b"a,1\r\nb,2\n")  # plain rows: a quoted field, a CRLF line,
@example(_PLAIN + b"a\rb,1\n")  # a CR inside a line,
@example(_PLAIN + b"a\0b,1\n")  # a NUL,
@example(_PLAIN + b"\nb,2\n")  # a blank line,
@example(_PLAIN + b"a,1,2\n")  # three columns,
@example(_PLAIN + b"5\n6,7,8\n")  # one column balanced by three,
@example(_PLAIN + b"a, 7\n")  # a space-padded count,
@example(_PLAIN + b"a,\n")  # an empty count,
@example(_PLAIN + b"a,1_000\n")  # a count int() takes but the row loop does not,
@example(_PLAIN + b"a," + b"1" * 20 + b"\n")  # a count of 20 digits,
@example(_PLAIN + b"x" * _PAST_LIMIT + b",1\n")  # a label past csv.field_size_limit(),
@example(_PLAIN + b"a, 1")  # a last line without a line end that is not plain,
@example(BOM.encode() + _PLAIN + b'"a",1\n')  # a byte-order mark before a late quote,
@example(_PLAIN + b"a," + b"9" * 5000 + b"\n\xff\n")  # a bad byte in the 8 KiB of a long count,
@example(_PLAIN + b"a,1_000\n" + b"z,1\n" * 3000 + b"\xff\n")  # and in a later 8 KiB of the block
@example(_PLAIN + b"a,1,2\n\xff\n")  # a bad byte in the 8 KiB that ends a row of three columns,
@example(_ODD_AT_72K + b"\xff\n")  # and in the 8 KiB after it, whose row is refused first
@example(_ODD_AT_72K[:-1] + b"\r\xff\n")  # unless a last "\r" might still begin a CRLF pair
@example(_PLAIN + b'"a\nb",2\n' + b"x" * _PAST_LIMIT + b",1\n")  # a csv error after rows and lines part,
@example(_PLAIN.replace(b"\n", b"\r\n"))  # CRLF rows, as write_counts_csv writes them, which
@example(_PLAIN + b"a,1")  # the block pass takes, as it does a last line without a line end,
@example(_PLAIN + b"a,1\r")  # one ending in a lone CR,
@example(_PLAIN + b"a,-" + b"1" * 20 + b"\n")  # and leaves a negative count of 20 digits to the loop
@example(_PLAIN + b"abcdefgh,1\nabcdefghi,2\nabcdefgh,3\n")  # labels of 8 and 9 bytes,
@example(_PLAIN + _LONG_ROWS + b"r0,1\n")  # blocks of mostly long labels, then a short one,
@example(_PLAIN + _LONG_ROWS.replace(b"\n", b"\r\n"))  # and as CRLF rows,
@example(_PLAIN + b" r0 ,1\n")  # a label keyed in one block met again padded in another,
@example(_PLAIN + b"a,007\nb,0\nc,9223372036854775807\n")  # counts after a nonzero total,
@example(_PLAIN + b"a,9999999999999999999\n")  # a count of 19 digits past int64,
@example(_PLAIN + b"a,1\r\nb,2\r\n")  # CRLF rows after LF ones,
@example(_PLAIN + b" a ,1\r")  # and a padded last row ending in a lone CR
@example(_spanning(_QUOTED, b",2", b"\n", b"b,1"))  # after a quoted row, which the block pass refuses,
@example(_spanning(_QUOTED, b",2", b"\r\n", b"b,1\n"))  # a long row ending LF, CRLF across a mark,
@example(_spanning(_QUOTED, b",2", b"\r", b"b,1\n"))  # or a lone CR at one,
@example(_spanning(_PLAIN + b'"a",1\n', b",2", b"\r\n", b"b,1\n"))  # and so after a first plain block;
@example(_spanning(_QUOTED + b"x" * 12000 + b"\xff", b",2", b"\n", b"b,1\n"))  # a bad byte inside one,
@example(_spanning(_QUOTED, b",2", b"\n", b"b,1\na,1,2\n"))  # and a row error after one, named by its row
def test_read_counts_csv_matches_row_by_row(tmp_path_factory, data):
    _agree(tmp_path_factory.mktemp("csv"), data, read_counts_csv, read_counts_csv_rows)


@pytest.mark.parametrize("reader, reference, data", [
    (read_raw_labels, read_raw_labels_lines, b"x" * 2**23),
    (read_counts_csv, read_counts_csv_rows, b"category,count\n" + b"x" * 2**23 + b",1\n"),
], ids=["raw", "csv"])
def test_a_line_of_8_mib_costs_its_length_once(tmp_path, reader, reference, data):
    # the slow path joins a line's decoded parts once, when its end arrives;
    # copying the unfinished line again at each 8 KiB decode took seconds
    path = tmp_path / "input"
    path.write_bytes(data)
    start = time.perf_counter()
    read = _read(reader, path)
    elapsed = time.perf_counter() - start
    assert _outcome(read) == _outcome(_read(reference, path))
    if reader is read_counts_csv:
        assert read == (ValueError, f"{path}:2: field larger than field limit ({csv.field_size_limit()})")
    else:
        assert read[1] == [1]
    assert elapsed < 1.0


def test_raw_memory_grows_with_labels_not_lines(tmp_path):
    # 2e5 lines over 4 labels, 1.6 MB of text; reading it whole and
    # splitting it holds every line at once, a traced peak of about 14 MiB
    path = tmp_path / "labels.txt"
    path.write_text("".join(f"label-{i % 4}\n" for i in range(200_000)), encoding="utf-8")
    tracemalloc.start()
    try:
        counts, _ = read_raw_labels(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.counts.tolist() == [50_000] * 4
    assert peak < 2 * 2**20


@pytest.mark.parametrize("count, outcome", [
    ("9" * 5000, "count of 5000 digits does not fit in int64"),
    ("-" + "1" * 20, "negative count -" + "1" * 20),
    ("-" + "0" * 5000 + "9" * 5000, "negative count -" + "9" * 5000),
    ("-" + "0" * 30 + "5", "negative count -5"),
    ("0" * 5000 + "7", 7),
    (" +" + "0" * 5000 + "7 ", 7),
    (str(2**63), f"count {2**63} does not fit in int64"),
    ("0" * 30 + str(2**63 + 5), f"count {2**63 + 5} does not fit in int64"),
    (str(2**63 - 1), f"counts total {2**63}, which does not fit in int64"),
    (str(2**63 - 2), 2**63 - 2),
    (f"{2**62}\nb,{2**62}", f"counts total {2**63 + 1}, which does not fit in int64"),
    (f"{2**62}\n" + "".join(f"r{i},1\n" for i in range(9000)) + f"b,{2**62}",
     f"counts total {2**63 + 9001}, which does not fit in int64"),
])
def test_count_past_19_digits_is_named_by_its_row(tmp_path, count, outcome):
    # int() refuses a field of more than sys.get_int_max_str_digits() digits,
    # zero padding included; no count past 19 significant digits fits in int64,
    # nor one from 2^63 on, and the row at which the total passes int64 (here
    # label b's own, after more than a block of rows) is named too
    path = tmp_path / "counts.csv"
    path.write_text(f"category,count\na,1\nb,{count}\n", encoding="utf-8")
    for reader in (read_counts_csv, read_counts_csv_rows):
        if isinstance(outcome, str):
            with pytest.raises(ValueError) as exc:
                reader(path)
            assert str(exc.value) == f"{path}:{3 + count.count(chr(10))}: {outcome}"
        else:
            counts, labels = reader(path)
            assert dict(zip(labels, counts.counts.tolist())) == {"a": 1, "b": outcome}


def test_written_counts_take_the_block_pass(tmp_path, monkeypatch):
    # write_counts_csv ends its rows with CRLF; the block pass must take them
    # whole, from a file and from a pipe, so the library's own files do not
    # fall back to the row loop
    path = tmp_path / "counts.csv"
    write_counts_csv(SampleCounts(np.arange(1, 9001), np.arange(9000) % 5 + 1), path,
                     [f"r{i}" for i in range(9000)])
    left, passes = [], estimation._blocks

    def blocks(handle, take):
        left.append(passes(handle, take))
        return left[-1]

    monkeypatch.setattr(estimation, "_blocks", blocks)
    sources = [nullcontext(path)] + ([_piped(tmp_path, path.read_bytes())] if hasattr(os, "mkfifo") else [])
    for source in sources:
        with source as data:
            counts, labels = read_counts_csv(data)
        assert left.pop() == (path.stat().st_size, b"")  # the rest the row loop reads: none
        assert dict(zip(labels, counts.counts.tolist())) == {f"r{i}": i % 5 + 1 for i in range(9000)}


@pytest.mark.parametrize("shape", ["lf", "written", "raw-crlf"])
def test_short_plain_labels_take_the_key_route(tmp_path, monkeypatch, shape):
    # the benchmark's rows (`c<i>,<count>` ending LF), write_counts_csv's
    # (ending CRLF) and CRLF raw labels have labels of at most 8 bytes
    # 0x21-0x7E: every label must be tallied as a packed key, none as text,
    # and the keys number the labels
    path, counts = tmp_path / "data", np.arange(20000) * 37 % 1000 + 1  # counts of 1 to 4 digits
    expected = {f"c{i}": count for i, count in enumerate(counts.tolist())}
    if shape == "lf":
        path.write_text("category,count\n" + "".join(f"{label},{count}\n" for label, count in expected.items()),
                        encoding="utf-8")
    elif shape == "written":
        write_counts_csv(SampleCounts(np.arange(1, 20001), counts), path, list(expected))
    else:
        expected = {f"c{i}": 2 for i in range(10000)}
        path.write_bytes(b"".join(f"c{i % 10000}\r\n".encode() for i in range(20000)))
    keyed, add_keyed = [], estimation._add_keyed

    def tally(held, block, starts, lengths, counts=None):
        keyed.append(starts.size)
        add_keyed(held, block, starts, lengths, counts)

    monkeypatch.setattr(estimation, "_add_keyed", tally)
    got, labels = (read_raw_labels if shape == "raw-crlf" else read_counts_csv)(path)
    assert sum(keyed) == 20000
    assert dict(zip(labels, got.counts.tolist())) == expected
    assert list(labels) == sorted(labels, key=lambda label: int.from_bytes(label.encode(), "little"))


@pytest.mark.parametrize("shape", ["raw", "csv"])
@pytest.mark.parametrize("labelled", [True, False])
def test_a_label_holding_nul_is_not_its_prefix(tmp_path, shape, labelled):
    # a key's padding is zero bytes, so "a\0" packs to the word of the key "a"
    # (and "k1\0" to that of "k1"); the NUL refuses its block, the label is
    # counted as text, and it must stay a category of its own
    path = tmp_path / "data"
    if shape == "raw":
        path.write_bytes(b"a\n" * 40000 + b"a\x00\nb\n")
        expected = {"a": 40000, "a\0": 1, "b": 1}
    else:
        path.write_bytes(b"category,count\n" + "".join(f"k{i},1\n" for i in range(12000)).encode() + b'"k1\x00",5\n')
        expected = {**{f"k{i}": 1 for i in range(12000)}, "k1\0": 5}
    counts, labels = (read_raw_labels if shape == "raw" else read_counts_csv)(path, labels=labelled)
    assert counts.categories.tolist() == list(range(1, len(expected) + 1))
    assert counts.n == sum(expected.values())
    if labelled:
        assert dict(zip(labels, counts.counts.tolist())) == expected
    else:
        assert labels is None
    if shape == "raw":
        assert counts.counts.tolist() == [40000, 1, 1]


def test_gse_estimate_names_the_row_of_a_long_count(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    path.write_text("category,count\na,1\nb," + "9" * 5000 + "\n", encoding="utf-8")
    assert main(["estimate", "--data", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:3: count of 5000 digits does not fit in int64\n"


def test_counts_csv_memory_grows_with_labels_not_rows(tmp_path):
    # 2e5 rows over 4 labels, 2 MB of text; reading it whole and splitting
    # it holds every row's fields at once, a traced peak of tens of MiB
    path = tmp_path / "counts.csv"
    path.write_text("category,count\n" + "".join(f"label-{i % 4},1\n" for i in range(200_000)),
                    encoding="utf-8")
    tracemalloc.start()
    try:
        counts, _ = read_counts_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.counts.tolist() == [50_000] * 4
    assert peak < 2 * 2**20


@contextmanager
def _piped(tmp_path, data):
    """A named pipe in tmp_path that a thread writes data to while the with block runs."""
    fifo = tmp_path / "input.fifo"
    os.mkfifo(fifo)

    def write():
        with suppress(BrokenPipeError), open(fifo, "wb") as out:
            out.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        yield fifo
    finally:
        writer.join(timeout=30)
        fifo.unlink()
    assert not writer.is_alive()


def _agree_through_a_pipe(tmp_path, data, reader):
    """reader's outcome on data written to a named pipe, as on a regular file, with labels and without."""
    regular = tmp_path / "input"
    regular.write_bytes(data)
    read = _read(reader, regular)
    for options, expected in (({}, read), ({"labels": False}, _unlabelled(read))):
        with _piped(tmp_path, data) as fifo:
            piped = _read(reader, fifo, **options)
        assert repr(piped).replace(str(fifo), "<path>") == repr(expected).replace(str(regular), "<path>")


_PIPES = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")


@_PIPES
@pytest.mark.parametrize("data", [_PLAIN, _PLAIN + b'"a,b",2\n', b"count,category\n" + _PLAIN[15:],
                                  _PLAIN + b"a,1\n\xff,2\n", _PLAIN + b"a,1,2\n\xff\n",
                                  _PLAIN + b"x" * _PAST_LIMIT + b",1\n\xff\n"],
                         ids=["plain", "late-quote", "bad-header", "bad-byte", "row-error-and-bad-byte",
                              "csv-error-and-bad-byte"])
def test_counts_csv_from_a_pipe_reads_as_from_a_file(tmp_path, data):
    # a pipe takes the block pass and is decoded 8 KiB of the file at a time,
    # as a file is: past a first plain block, a bad byte in the 8 KiB that ends
    # a row with three columns, or a field past csv.field_size_limit(), is
    # named before that row's error, and by its offset all the same
    _agree_through_a_pipe(tmp_path, data, read_counts_csv)


@_PIPES
@pytest.mark.parametrize("data", [_RAW, _RAW.replace(b"\n", b"\r\n"), _RAW + "\u00e9\n".encode(),
                                  _RAW + b"a\n\xff\n", b"a\n\xff\n"],
                         ids=["plain", "crlf", "late-non-ascii", "late-bad-byte", "bad-byte"])
def test_raw_labels_from_a_pipe_read_as_from_a_file(tmp_path, data):
    _agree_through_a_pipe(tmp_path, data, read_raw_labels)


def test_gse_estimate_reads_rows_piped_to_dev_stdin(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_bytes(_PLAIN)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "gsentropy", "estimate", "--format", "json", "--data"]
    piped = subprocess.run([*argv, "/dev/stdin"], input=_PLAIN, capture_output=True, env=env, timeout=120)
    direct = subprocess.run([*argv, str(path)], capture_output=True, env=env, timeout=120)
    assert piped.returncode == direct.returncode == 0, piped.stderr
    assert piped.stdout == direct.stdout


@pytest.mark.parametrize("flags, data, offset", [([], b"category,count\na,1\n\xff\n", 19),
                                                 (["--raw"], b"a\n\xff\n", 2)], ids=["counts", "raw"])
def test_gse_estimate_names_a_bad_byte_piped_to_dev_stdin(flags, data, offset):
    # a pipe cannot tell() where it stands; the readers count the bytes they read
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "gsentropy", "estimate", *flags, "--data", "/dev/stdin"]
    piped = subprocess.run(argv, input=data, capture_output=True, env=env, timeout=120)
    assert piped.returncode == 2
    assert piped.stderr == f"error: /dev/stdin: byte {offset} is not UTF-8 (invalid start byte)\n".encode()
