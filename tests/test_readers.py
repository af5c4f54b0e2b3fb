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
"""

import csv
import io
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsentropy import read_counts_csv, read_raw_labels

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


def _outcome(reader, path):
    try:
        counts, labels = reader(path)
    except ValueError as exc:
        return type(exc), str(exc)
    # the numbering is the reader's own; categories 1..K and the pairing are not
    return counts.categories.tolist(), len(labels), counts.n, dict(zip(labels, counts.counts.tolist()))


def _agree(tmp_path, data, reader, reference):
    path = tmp_path / "input"
    path.write_bytes(data)
    assert _outcome(reader, path) == _outcome(reference, path)


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
def test_read_raw_labels_matches_line_by_line(tmp_path_factory, data):
    _agree(tmp_path_factory.mktemp("raw"), data, read_raw_labels, read_raw_labels_lines)


@DIFF
@given(_files(_csv_body))
@example(b'category,count\n"a,b",2\n"c\r\nd",3\n  a,b ,1\n')
@example(b"category,count\na,1_000\nb,+2\nc,-0\nd,-1\n")
@example("category,count\na,\u0663\n".encode())
@example(b"category,count\n\n \na,1,2\n")
@example(BOM.encode() + b"category,count\na,1\n\xff,2\n")
@example(b"category,count\na,1\n\xe2\x82")
def test_read_counts_csv_matches_row_by_row(tmp_path_factory, data):
    _agree(tmp_path_factory.mktemp("csv"), data, read_counts_csv, read_counts_csv_rows)


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
