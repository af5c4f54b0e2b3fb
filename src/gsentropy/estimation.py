"""Plug-in estimation of collision-order entropy with asymptotic inference.

The point estimate applies the exact entropy to the empirical distribution
p_hat_k = Y_k / n.  Its limiting variance comes from the first-order delta
method with the multinomial covariance:

    sigma_m^2 = sum_k p_k g_k^2,
    g_k = -(m q_k / p_k) (ln q_k + H_m),   q_k = p_k^m / sum p_i^m.

Equivalently sigma_m^2 = sum_k (m^2 / p_k) (q_k ln q_k + q_k H_m)^2: the
m^2/p_k factor belongs outside the square in the per-term weight, not
inside it, where the diagnostic ``sigma_sq_literal`` puts it.  A sample enters
only through its counts, summed in descending-count order (tied counts carry
equal terms), so which category carries which count never changes a bit of
the result.  H_m and sigma_m^2 of a pmf come from ``distributions.h_sigma_sq``,
an analytic law's exact sigma_m^2 from its family, and quantiles from the
stdlib's ``NormalDist``.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from pathlib import Path
from statistics import NormalDist
from typing import Sequence, Union

import numpy as np

from .distributions import (
    AnalyticDistribution,
    CustomFinite,
    SampleCounts,
    _INT64_MAX,
    _check_order,
    _literal_sigma_sq,
    h_sigma_sq,
)
from .entropy import as_pmf


@dataclass(frozen=True)
class GseEstimate:
    """One sample's estimate bundle: order, size, point value, and spread."""

    m: int
    n: int
    h_hat: float
    sigma_hat: float
    support_observed: int


@dataclass(frozen=True)
class ConfidenceInterval:
    """Symmetric asymptotic interval; degenerate means zero width (sigma_hat = 0)."""

    lower: float
    upper: float
    level: float
    degenerate: bool

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def empirical_pmf(counts: SampleCounts) -> CustomFinite:
    """Sample proportions Y_k / n over the observed support, in descending
    order (the fixed summation order)."""
    return CustomFinite(np.sort(counts.counts)[::-1] / counts.n)


def _plugin_h_sigma_sq(counts: np.ndarray, n: int, m: int) -> tuple[float, float]:
    """(H_hat_m, sigma_hat_m^2) from the strictly positive counts of a size-n sample."""
    h, sigma_sq = h_sigma_sq(np.sort(counts)[::-1] / n, m)
    return float(h[0]), float(sigma_sq[0])


def gse_plugin(counts: SampleCounts, m: int) -> float:
    """Plug-in estimate: exact order-m entropy of the empirical pmf.

    Unobserved categories contribute nothing (0 ln 0 = 0)."""
    return gse_estimate(counts, m).h_hat


def sigma_sq_true(target, m: int) -> float:
    """Asymptotic variance of sqrt(n) (H_hat_m - H_m) at the given distribution.

    Accepts a distribution, or an explicit probability vector, which is taken
    as a CustomFinite; Zeta's series are summed by power_log_series.
    """
    m = _check_order(m)
    if not isinstance(target, AnalyticDistribution):
        target = CustomFinite(target)
    return target.sigma_sq(m)


def sigma_sq_literal(pmf, m: int) -> float:
    """Diagnostic only: the per-term weight m^2/p_k moved inside the square.

    Disagrees with the delta-method variance on every non-uniform pmf and
    fails the classical m = 1 cross-check sigma_1^2 = sum p_k ln^2 p_k - H^2,
    which the delta-method form meets exactly; kept so the discrepancy can be
    demonstrated, never used for inference.
    """
    pmf = as_pmf(pmf)
    m = _check_order(m)
    return float(_literal_sigma_sq(pmf.probs[pmf.probs > 0.0], m)[0])


def sigma_hat_sq(counts: SampleCounts, m: int) -> float:
    """Plug-in variance estimate over observed categories only.

    Zero-count categories vanish in the continuity limit (each term is
    O(p^{2m-1} ln^2 p)), which is the only finite computable reading.
    """
    return _plugin_h_sigma_sq(counts.counts, counts.n, _check_order(m))[1]


def gse_estimate(counts: SampleCounts, m: int) -> GseEstimate:
    """Point estimate plus estimated asymptotic spread for one sample."""
    m = _check_order(m)
    h_hat, sigma_sq = _plugin_h_sigma_sq(counts.counts, counts.n, m)
    return GseEstimate(m=m, n=counts.n, h_hat=h_hat, sigma_hat=math.sqrt(sigma_sq),
                       support_observed=counts.counts.size)


# ---------------------------------------------------------------------------
# standard normal quantile
# ---------------------------------------------------------------------------


def normal_quantile(p: float) -> float:
    """Inverse standard normal cdf (the stdlib's NormalDist().inv_cdf)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"quantile argument must lie in (0, 1), got {p!r}")
    return NormalDist().inv_cdf(p)


def _check_alpha(alpha: float) -> float:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValueError(f"alpha must exceed 2**-53, got {alpha!r}: 1 - alpha/2 rounds to 1")
    return alpha


def _two_sided_z(alpha: float) -> float:
    return normal_quantile(1.0 - _check_alpha(alpha) / 2.0)


def confidence_interval(est: GseEstimate, alpha: float) -> ConfidenceInterval:
    """Asymptotic (1 - alpha) interval h_hat -/+ z_{alpha/2} sigma_hat / sqrt(n) of an estimate.

    A sample that is empirically uniform over its support (or a single
    category) has sigma_hat = 0; the zero-width interval is reported with
    the degenerate flag set instead of being widened ad hoc.
    """
    half = _two_sided_z(alpha) * est.sigma_hat / math.sqrt(est.n)
    return ConfidenceInterval(lower=est.h_hat - half, upper=est.h_hat + half, level=1.0 - alpha,
                              degenerate=(est.sigma_hat == 0.0))


# ---------------------------------------------------------------------------
# count-data ingestion (CSV and raw labels)
# ---------------------------------------------------------------------------

COUNTS_HEADER = ("category", "count")
_SIGNED_DIGITS = re.compile(r"[+-]?[0-9]+")
# The bytes the readers' block passes read at a time, and a text-mode file decodes at a time
_BLOCK, _PIECE = 65536, 8192
# _KEEP[n] keeps the first n bytes of a little-endian 8-byte word
_KEEP = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
# _TENS[k] weighs a count's k-th digit from the last
_TENS = 10 ** np.arange(19, dtype=np.uint64)
_NO_KEYS = (np.empty(0, np.uint64), np.empty(0, np.int64))  # the keys merged before the first block


def _blocks(handle, take) -> tuple[int, bytes]:
    """Offer the binary file handle to take in 64 KiB blocks, less a leading byte-order mark (only
    a whole one), each cut after its last "\\n" (the last at the file's end), until take refuses one.

    Returns (the bytes into the file where the rest starts, the rest read so far)."""
    chunk = handle.read(_BLOCK)
    read = 3 if chunk.startswith(codecs.BOM_UTF8) else 0
    data = chunk[read:]
    while data:
        last = len(chunk) < _BLOCK
        end = len(data) if last else data.rfind(b"\n") + 1
        if not end or not take(data[:end]):
            break
        read += end
        chunk = b"" if last else handle.read(_BLOCK)
        data = data[end:] + chunk
    return read, data


def _decoded(path, handle, read: int, data: bytes, translate: bool):
    """Yield data, read bytes into the file, and the rest of handle as UTF-8 text with universal newlines
    (translated to "\\n" if translate), decoded as a text-mode file decodes it, in runs of whole lines:
    those ended by each multiple of 8 KiB of the file, then the last line; a bad byte raises ValueError
    with its offset."""
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), translate)
    cut = -read % _PIECE  # data ends where handle stands, at a multiple of 64 KiB or the file's end
    pieces = chain([data[:cut]], (data[at:at + _PIECE] for at in range(cut, len(data), _PIECE)),
                   iter(lambda: handle.read(_PIECE), b""))
    held = []  # the parts of an unfinished line, joined once when its end arrives
    try:
        for piece in pieces:
            read += len(piece)
            text = decoder.decode(piece)
            end = max(text.rfind("\n"), text.rfind("\r")) + 1  # the decoder holds a last "\r" back
            if end:
                yield "".join([*held, text[:end]])
                held.clear()
            held.append(text[end:])
        yield "".join([*held, decoder.decode(b"", final=True)])
    except UnicodeDecodeError as exc:
        # exc.object, the decoder's last input with any held-over bytes, ends read bytes in
        at = read - len(exc.object) + exc.start
        raise ValueError(f"{path}: byte {at} is not UTF-8 ({exc.reason})") from exc


def _merge_keyed(keyed: list) -> tuple[np.ndarray, np.ndarray]:
    """Merge keyed's (keys, counts) pairs into one of distinct keys and their totals, and return it."""
    unique, inverse = np.unique(np.concatenate([keys for keys, _ in keyed]), return_inverse=True)
    totals = np.zeros(unique.size, dtype=np.int64)
    np.add.at(totals, inverse, np.concatenate([counts for _, counts in keyed]))
    keyed[:] = [(unique, totals)]
    return unique, totals


def _add_keyed(keyed: list, block: bytes, starts: np.ndarray, lengths: np.ndarray, counts=None) -> None:
    """Add to keyed, whose first pair holds the keys merged so far, the labels of up to 8 bytes 0x21-0x7E
    at starts in block, each packed into one little-endian word, with their counts (1 each if None)."""
    # no NUL in such a label, so zeros pad it unambiguously
    keys = np.ndarray(len(block), "<u8", block + bytes(8), strides=(1,)).take(starts)
    keys &= _KEEP.take(lengths, mode="clip")
    keyed.append(np.unique(keys, return_counts=True) if counts is None else (keys, counts))
    # merged as they accumulate, the keys held stay within a few times the distinct labels
    if sum(held.size for held, _ in keyed) > 2 * keyed[0][0].size + _BLOCK // 8:
        _merge_keyed(keyed)


def _counted(keys: np.ndarray, totals: np.ndarray, label_counts: dict) -> SampleCounts:
    """The totals of the distinct keys, numbered 1.. in key order, then the counts of label_counts the
    keys lack, in its order; a label in both adds its count to its key's total and leaves label_counts."""
    # the one key each short text label could be is found and checked by its packed word; a key's
    # label holds no NUL, and a NUL would pack as its padding does, so a label with one is no key's
    if keys.size:
        short = [label for label in label_counts if len(label) <= 8 and label.isascii() and "\0" not in label]
        words = np.array([int.from_bytes(label.encode(), "little") for label in short], np.uint64)
        at = np.searchsorted(keys, words).clip(max=keys.size - 1)
        found = keys[at] == words
        for label, key in zip(compress(short, found), at[found].tolist()):
            totals[key] += label_counts.pop(label)
    if not keys.size and not label_counts:
        raise ValueError("no observations: all counts are zero or the file is empty")
    counts = np.concatenate([totals, np.fromiter(label_counts.values(), np.int64, len(label_counts))])
    return SampleCounts(np.arange(1, counts.size + 1), counts)


def _key_labels(keys: np.ndarray) -> list[str]:
    """The labels the packed keys stand for, in the keys' order; built only for a caller that wants labels."""
    # each key's bytes less its padding, then "\n", decoded at once: such a label holds no NUL or "\n"
    text = np.full((keys.size, 9), 10, np.uint8)
    text[:, :8] = keys.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return text[text != 0].tobytes().decode().split("\n")[:-1]


def read_counts_csv(path: Union[str, Path], *, labels: bool = True) -> tuple[SampleCounts, tuple[str, ...] | None]:
    """Read a `category,count` CSV; returns the counts and labels, labels[k - 1] that of category k,
    or None in place of the labels if labels is False, which builds no label string for a key.

    A count is an optional sign and ASCII digits, at most 19 significant, with surrounding whitespace.
    Labels are stripped of surrounding whitespace; duplicate labels add, zero rows drop.

    The file is read in 64 KiB blocks of bytes cut at their last "\\n".  A block is taken in numpy if,
    after the header in the first, each line holds one comma, then 1 to 19 ASCII digits, and no quote,
    NUL or "\\r" but one that ends it, within ``csv.field_size_limit()`` and an int64 total.  Its
    labels are tallied as packed 8-byte keys, as ``read_raw_labels`` tallies a plain block, if all
    are bytes 0x21-0x7E and none is longer than 8 bytes, else decoded and stripped.  ``csv.reader``'s
    row loop reads on from the first block not taken, and alone raises errors.  Labels tallied as keys
    are numbered first, in key order, then the others in the order first met.  Memory grows with the
    labels and the longest line, not the rows.
    """
    label_counts, keyed, taken, total, limit = {}, [_NO_KEYS], 0, 0, csv.field_size_limit()

    def take(block: bytes) -> bool:
        """Count block's rows if they are all plain and keep the counts' total within int64."""
        nonlocal taken, total
        rows = block
        if not taken:  # the header, which the row loop reads if this block is refused
            header, _, rows = block.partition(b"\n")
            header = header.decode(errors="replace")  # a byte that is not UTF-8 fails the test below
            # a lone "\r" ends a text-mode line too: the header may hold one only at its end
            if "\r" in header[:-1] or tuple(h.strip().lower() for h in header.split(",")) != COUNTS_HEADER:
                return False
        if b"\r" in rows:  # a CRLF pair ends a line as LF does, and a last "\r" the file's last line
            rows = rows.replace(b"\r\n", b"\n").removesuffix(b"\r")
        if len(block) >= limit or b'"' in rows or b"\0" in rows or b"\r" in rows:
            return False
        codes = np.frombuffer(rows, np.uint8)
        ends, commas = np.flatnonzero(codes == 10), np.flatnonzero(codes == 44)
        # uint8 arithmetic wraps, so the difference is below 0x5E for 0x21-0x7E only
        plain = np.count_nonzero(codes - np.uint8(0x21) < 0x5E) + ends.size == len(rows)
        if rows and not rows.endswith(b"\n"):  # the file's end ends its last line
            ends = np.append(ends, len(rows))
        if ends.size != commas.size:
            return False
        if not ends.size:  # the header alone, or a last "\r"
            taken = max(taken, 1)
            return True
        widths = ends - commas - 1
        width = int(widths.max())
        # one comma to a line, then 1 to 19 bytes
        if widths.min() < 1 or width > 19 or np.any(commas[1:] < ends[:-1]):
            return False
        # each count's digits, the last first: place + 1 bytes before its line's end
        padded, counts = np.frombuffer(bytes(19) + rows, np.uint8), np.zeros(ends.size, np.uint64)
        for place in range(width):
            digits = padded.take(ends + (18 - place)) - np.uint8(48)
            digits *= widths > place
            if (digits > 9).any():
                return False
            counts += digits * _TENS[place]
        # the total within int64 (and so each count), a sum that might wrap taken in Python ints
        block_total = int(counts.sum()) if counts.max() <= _INT64_MAX // counts.size else sum(counts.tolist())
        if block_total > _INT64_MAX - total:
            return False
        starts = np.append(0, ends[:-1] + 1)
        lengths = commas - starts
        if plain and lengths.max() <= 8:  # each label one packed key
            kept = counts != 0
            _add_keyed(keyed, rows, starts[kept], lengths[kept], counts[kept].astype(np.int64))
        else:  # spaces to strip, bytes to decode or labels past 8 bytes: split the text
            try:
                labels = list(map(str.strip, rows.decode().replace("\n", ",").split(",")[:2 * ends.size:2]))
            except UnicodeDecodeError:
                return False
            counts = counts.tolist()
            new = dict(zip(labels, counts))
            if len(new) == len(counts) and 0 not in counts and label_counts.keys().isdisjoint(new):
                label_counts.update(new)
            else:  # a label repeats or a count is 0: sum row by row
                for label, count in zip(labels, counts):
                    if count:
                        label_counts[label] = label_counts.get(label, 0) + count
        taken, total = max(taken, 1) + ends.size, total + block_total
        return True

    with open(path, "rb") as handle:
        runs = _decoded(path, handle, *_blocks(handle, take), translate=False)
        lines = chain.from_iterable(io.StringIO(run, newline="").readlines() for run in runs)
        get, reader = label_counts.get, csv.reader(lines)
        try:
            if not taken:
                header = next(reader, None)
                if header is None or tuple(h.strip().lower() for h in header) != COUNTS_HEADER:
                    raise ValueError(f"expected header 'category,count' in {path}")
            for row_number, row in enumerate(reader, start=max(taken, 1) + 1):
                if len(row) != 2:
                    if not row or (len(row) == 1 and not row[0].strip()):
                        continue
                    raise ValueError(f"{path}:{row_number}: expected two columns, got {len(row)}")
                label, field = row[0].strip(), row[1]
                # int() alone would also take "1_000" and non-ASCII digits; plain ASCII ones skip the pattern
                plain = field.isascii() and field.isdigit()
                if not plain and not _SIGNED_DIGITS.fullmatch(field.strip()):
                    raise ValueError(f"{path}:{row_number}: count {field!r} is not an integer")
                if len(field) > 19:  # read by its significant digits, as int() may refuse it
                    digits = field.strip().lstrip("+-").lstrip("0")
                    if "-" in field and digits or len(digits) > 19:  # past 19 digits no count fits in int64
                        raise ValueError(f"{path}:{row_number}: negative count -{digits}" if "-" in field else
                                         f"{path}:{row_number}: count of {len(digits)} digits does not fit in int64")
                    field = digits or "0"
                count = int(field)
                if not plain and count < 0:
                    raise ValueError(f"{path}:{row_number}: negative count {count}")
                if count:
                    total += count
                    if total > _INT64_MAX:  # a label's total, or the file's, past int64
                        raise ValueError(f"{path}:{row_number}: count {count} does not fit in int64"
                                         if count > _INT64_MAX else
                                         f"{path}:{row_number}: counts total {total}, which does not fit in int64")
                    label_counts[label] = get(label, 0) + count
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num + taken}: {exc}") from exc
    keys, totals = _merge_keyed(keyed)
    counts = _counted(keys, totals, label_counts)  # first: it takes from label_counts those a key holds
    return counts, (*_key_labels(keys), *label_counts) if labels else None


def _tally_plain(block: bytes, keyed: list, text_counts: Counter) -> bool:
    """Count the lines of block if it is plain (every byte "\\n" or 0x21-0x7E, at most a quarter
    of its lines longer than 8 bytes), else nothing."""
    codes = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(codes == 10)
    # uint8 arithmetic wraps, so the difference is below 0x5E for 0x21-0x7E only
    if np.count_nonzero(codes - np.uint8(0x21) < 0x5E) + ends.size != len(block):
        return False
    if not ends.size or ends[-1] < len(block) - 1:  # a last line with no line end
        ends = np.append(ends, len(block))
    starts = np.append(0, ends[:-1] + 1)
    lengths = ends - starts
    long = lengths > 8
    if 4 * np.count_nonzero(long) > ends.size:  # many long lines, each a slice: the text loop is cheaper
        return False
    if long.any():
        text_counts.update(block[a:b].decode() for a, b in zip(starts[long].tolist(), ends[long].tolist()))
        starts, lengths = starts[~long], lengths[~long]
    _add_keyed(keyed, block, starts, lengths)
    return True


def read_raw_labels(path: Union[str, Path], *, labels: bool = True) -> tuple[SampleCounts, tuple[str, ...] | None]:
    """Read one label per line (blank lines are skipped); returns what ``read_counts_csv`` does,
    labels (or None if labels is False) included.

    Lines end at "\\n", "\\r\\n" or "\\r" only; a label's surrounding Unicode
    whitespace is stripped, and a leading byte-order mark skipped.

    The file is read in 64 KiB blocks of bytes cut at their last "\\n".  A block is plain when its
    bytes, CRLF pairs taken as "\\n", are all "\\n" or 0x21-0x7E, so that no line needs stripping or
    decoding, and at most a quarter of its lines are longer than 8 bytes.  A plain block's lines of up
    to 8 bytes are tallied in numpy as packed 8-byte keys, its longer ones in a Counter.  From the first
    other block on, the rest of the file is decoded as UTF-8 with universal newlines, in runs of whole
    lines, and counted in the Counter.  The labels are numbered those tallied as keys first, in key
    order, then the others in the order first met.  Memory grows with the distinct labels and the
    longest line, not the lines.
    """
    keyed, text_counts = [_NO_KEYS], Counter()

    def take(block: bytes) -> bool:
        # a CRLF pair ends a line as LF does; a lone CR is not plain
        return _tally_plain(block.replace(b"\r\n", b"\n") if b"\r" in block else block, keyed, text_counts)

    with open(path, "rb") as handle:
        for run in _decoded(path, handle, *_blocks(handle, take), translate=True):
            text_counts.update(run.split("\n"))
    # strip each distinct label once rather than every line
    for label in [label for label in text_counts if label != label.strip()]:
        text_counts[label.strip()] += text_counts.pop(label)
    del text_counts[""]
    keys, totals = _merge_keyed(keyed)
    blank = int(keys.size > 0 and keys[0] == 0)  # the key of a blank line
    counts = _counted(keys[blank:], totals[blank:], text_counts)
    return counts, (*_key_labels(keys[blank:]), *text_counts) if labels else None


def write_counts_csv(counts: SampleCounts, path: Union[str, Path],
                     labels: Sequence[str] | None = None) -> None:
    """Write `category,count` rows that re-ingest to the same estimates; category k as labels[k - 1]."""
    names = counts.categories.tolist()
    if labels is not None:
        # categories increase, so the first and the last bound them all
        if not 1 <= names[0] <= names[-1] <= len(labels):
            raise ValueError(f"categories {names[0]}..{names[-1]} must lie in 1..{len(labels)} to have labels")
        names = [labels[category - 1] for category in names]
        # the readers strip labels, so two that strip alike would read back as one category
        label, times = Counter(str(label).strip() for label in names).most_common(1)[0]
        if times > 1:
            raise ValueError(f"{times} labels strip to {label!r} and would read back as one category")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([COUNTS_HEADER, *zip(names, counts.counts.tolist())])
