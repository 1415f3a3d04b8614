"""Tick CSV ingestion, mid-price derivation, calendar-month window splits,
and the one CSV writer every output table and the tick file go through."""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "EmptySeriesError",
    "PriceSeries",
    "ParseSummary",
    "ParseResult",
    "WindowSplit",
    "mid_price",
    "parse_ticks",
    "parse_timestamp",
    "sliding_windows",
    "stamp_text",
    "g10_text",
    "write_csv",
    "write_ticks",
    "write_window_manifest",
]


class EmptySeriesError(ValueError):
    """Raised when an input yields no usable ticks."""


def check_prices(prices: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first price that is not finite and positive."""
    ok = (prices > 0) & (prices < np.inf)  # false for NaN too
    if not ok.all():
        bad = int(ok.argmin())
        raise ValueError(f"prices must be finite and positive, got {float(prices[bad])!r} at index {bad}")


@dataclass
class PriceSeries:
    """Mid-price stream for one instrument.

    ``timestamps`` are epoch milliseconds (int64, non-decreasing) and map
    1:1 onto ``prices``.
    """

    instrument: str
    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.prices = np.asarray(self.prices, dtype=np.float64)
        if self.timestamps.shape != self.prices.shape:
            raise ValueError("timestamps and prices must have equal length")
        check_prices(self.prices)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def slice(self, start: int, stop: int) -> "PriceSeries":
        return PriceSeries(self.instrument, self.timestamps[start:stop], self.prices[start:stop])


@dataclass
class ParseSummary:
    rows_read: int = 0
    rows_dropped_malformed: int = 0
    rows_dropped_out_of_order: int = 0

    @property
    def rows_dropped(self) -> int:
        return self.rows_dropped_malformed + self.rows_dropped_out_of_order


@dataclass
class ParseResult:
    series: PriceSeries
    summary: ParseSummary


@dataclass(frozen=True)
class WindowSplit:
    """One sliding evaluation window with its half-open train/test index ranges."""

    window_start_ms: int
    window_end_ms: int
    train_end_ms: int
    train_range: tuple[int, int]
    test_range: tuple[int, int]


def mid_price(bid: float, ask: float) -> float:
    """Mid quote, the arithmetic mean of bid and ask."""
    if not (bid > 0 and ask > 0):
        raise ValueError(f"quotes must be positive, got bid={bid!r} ask={ask!r}")
    mid = (bid + ask) / 2.0
    if mid == math.inf:
        raise ValueError(f"mid of bid={bid!r} ask={ask!r} overflows")
    return mid


@functools.lru_cache(maxsize=4096)
def _day_start_ms(year: int, month: int, day: int) -> int:
    """Epoch milliseconds of 00:00 UTC on a calendar day; ``ValueError`` if no such day."""
    return int(datetime(year, month, day, tzinfo=timezone.utc).timestamp()) * 1000


def parse_timestamp(field: str) -> int:
    """Parse ``YYYYMMDD HHMMSSmmm`` (UTC, 17 ASCII digits) into epoch milliseconds."""
    if not (
        len(field) == 18
        and field[8] == " "
        and field.isascii()
        and field[:8].isdigit()
        and field[9:].isdigit()
    ):
        raise ValueError(f"bad timestamp field: {field!r}")
    base = _day_start_ms(int(field[:4]), int(field[4:6]), int(field[6:8]))
    hh = int(field[9:11])
    mm = int(field[11:13])
    ss = int(field[13:15])
    ms = int(field[15:18])
    if hh > 23 or mm > 59 or ss > 59:
        raise ValueError(f"bad time of day in {field!r}")
    return base + ((hh * 60 + mm) * 60 + ss) * 1000 + ms


FORMAT_BLOCK = 8192


def _digit_table(width: int) -> np.ndarray:
    """Row g holds the ASCII digits of g, zero-padded to ``width`` (uint8, ``10**width`` rows)."""
    g = np.arange(10**width)[:, None]
    return (g // 10 ** np.arange(width - 1, -1, -1) % 10 + ord("0")).astype(np.uint8)


_TWO_DIGITS = _digit_table(2).view("S2")[:, 0]
_THREE_DIGITS = _digit_table(3).view("S3")[:, 0]


def _put_items(out: np.ndarray, col: int, table: np.ndarray, index: np.ndarray) -> None:
    """Set the bytes of row i of ``out`` from column ``col`` on to the item
    ``table[index[i]]``, for every row; ``table`` holds fixed-width items."""
    out[:, col : col + table.itemsize].view(table.dtype)[:, 0] = np.take(table, index)


def _formatted(text: np.ndarray, slow: np.ndarray, values: np.ndarray, spec: str) -> np.ndarray:
    """``text``, widened with NUL columns as needed, with each ``slow`` row set to ``format(value, spec)``."""
    if not slow.any():
        return text
    rows = [format(v, spec).encode("ascii") for v in values[slow].tolist()]
    if (extra := max(map(len, rows)) - text.shape[1]) > 0:
        text = np.concatenate((text, np.zeros((len(text), extra), dtype=np.uint8)), axis=1)
    padded = b"".join(row.ljust(text.shape[1], b"\0") for row in rows)
    text[slow] = np.frombuffer(padded, dtype=np.uint8).reshape(len(rows), -1)
    return text


def stamp_text(ms: np.ndarray) -> np.ndarray:
    """The inverse of :func:`parse_timestamp` of each epoch millisecond in ``ms``, one row of 18 bytes each."""
    out = np.empty((ms.size, 18), dtype=np.uint8)
    sec, milli = np.divmod(ms, 1000)
    day, sec = np.divmod(sec, 86_400)
    days, inverse = np.unique(day, return_inverse=True)
    # Days of 0001-01-01 and 9999-12-31: a date outside them has no 8-digit field.
    if days.size and not (-719_162 <= days[0] and days[-1] <= 2_932_896):
        raise OverflowError("date value out of range")
    iso = days.astype("datetime64[D]").astype("S10").view(np.uint8).reshape(-1, 10)  # YYYY-MM-DD, year zero-padded
    _put_items(out, 0, np.ascontiguousarray(iso[:, [0, 1, 2, 3, 5, 6, 8, 9]]).view("S8")[:, 0], inverse)
    out[:, 8] = ord(" ")
    hh, sec = np.divmod(sec, 3600)
    mm, ss = np.divmod(sec, 60)
    for col, value in ((9, hh), (11, mm), (13, ss)):
        _put_items(out, col, _TWO_DIGITS, value)
    _put_items(out, 15, _THREE_DIGITS, milli)
    return out


_POW10_INT = 10 ** np.arange(1, 19, dtype=np.int64)


def _int_text(v: np.ndarray) -> np.ndarray:
    """The decimal text of each integer in ``v``, one NUL-padded row each: from groups of
    three digits, leading zeros blanked, for a value of at least 0; else by ``format``."""
    u = np.where(v < 0, 0, v)
    digits = np.searchsorted(_POW10_INT, u, side="right") + 1
    width = -(-int(digits.max(initial=1)) // 3) * 3
    text = np.empty((v.size, width), dtype=np.uint8)
    for col in range(width - 3, -1, -3):
        u, group = np.divmod(u, 1000)
        _put_items(text, col, _THREE_DIGITS, group)
    text *= np.arange(width) >= (width - digits)[:, None]  # leading zeros blanked
    return _formatted(text, v < 0, v, "d")


# 10**1 .. 10**9, and 10**(9 - e) for e = 0 .. 9: exact floats.
_POW10 = np.array([10**k for k in range(1, 10)], dtype=np.float64)
_TO_TEN_DIGITS = np.array([10 ** (9 - e) for e in range(10)], dtype=np.float64)
# A value scaled to an integer number of its last digits, ``x * 10**k``, carries
# one rounding, at most half an ulp of a number under 1e10 (< 1e-6); one this
# far from a half-integer rounds to the same integer as the exact product does.
_TIE_BAND = 1e-5
# A value's ten digits sit at even text slots, each followed by a point;
# _G10_SHOWN[10 * e + last] marks the slots shown for decimal exponent e when
# digit ``last`` is the last nonzero one: the digits up to the later of the
# two, and the point after digit e if a nonzero digit follows it.
_G10_SLOTS = 20  # also holds the longest ``format(x, ".10g")``, "-1.234567891e-308"
_DIGIT_POINT = np.array([f"{d}.".encode("ascii") for d in range(10)])
_DIGITS_POINTS3 = np.full((1000, 6), ord("."), dtype=np.uint8)  # row g: "d.d.d." for the digits of g
_DIGITS_POINTS3[:, ::2] = _digit_table(3)
_DIGITS_POINTS3 = _DIGITS_POINTS3.view("S6")[:, 0]
_TRAILING_ZEROS3 = sum(np.arange(1000) % 10**k == 0 for k in (1, 2, 3))  # of g as three digits: 3 for 0
_e, _last, _slot = np.ogrid[:10, :10, :_G10_SLOTS]
_G10_SHOWN = (_slot % 2 == 0) & (_slot <= 2 * np.maximum(_e, _last)) | (_slot == 2 * _e + 1) & (_last > _e)
_G10_SHOWN = _G10_SHOWN.astype(np.uint8).reshape(100, _G10_SLOTS).view(f"V{_G10_SLOTS}")[:, 0]


def _decimal_exponent(x: np.ndarray) -> np.ndarray:
    """``floor(log10(v))`` of each value in [1, 1e10), found by exact
    comparisons with 10**1 .. 10**9 (0 below 10, 9 from 1e9 up)."""
    return np.searchsorted(_POW10, x, side="right")


def g10_text(x: np.ndarray) -> np.ndarray:
    """``format(v, ".10g")`` of each value of ``x``, one NUL-padded row of 20 bytes each.

    A value in [1, 1e10) whose ten-digit rounding is not near a tie is written
    from ``rint(x * 10**(9 - e))``, its ten significant digits, for its decimal
    exponent ``e`` (see :func:`_decimal_exponent`): the point after ``e + 1`` of
    them, no trailing zeros or bare point. Any other value goes through ``format``.
    """
    e = _decimal_exponent(x)
    with np.errstate(invalid="ignore"):  # inf and NaN go to format() below
        y = x * _TO_TEN_DIGITS[e]
        fast = (x >= 1.0) & (x < 1e10) & (np.abs(y - np.floor(y) - 0.5) > _TIE_BAND)
        mantissa = np.rint(y)
        fast &= mantissa < 1e10
    mantissa = np.where(fast, mantissa, 1e9).astype(np.int64)
    # Digit 0, then three groups of three digits.
    head, rest = np.divmod(mantissa, 1_000_000_000)
    groups = (rest // 1_000_000, rest // 1000 % 1000, rest % 1000)
    text = np.empty((x.size, _G10_SLOTS), dtype=np.uint8)
    _put_items(text, 0, _DIGIT_POINT, head)
    for k, group in enumerate(groups):
        _put_items(text, 2 + 6 * k, _DIGITS_POINTS3, group)
    zeros = np.take(_TRAILING_ZEROS3, groups[2]) + (groups[2] == 0) * (
        np.take(_TRAILING_ZEROS3, groups[1]) + (groups[1] == 0) * np.take(_TRAILING_ZEROS3, groups[0])
    )
    shown = np.empty_like(text)
    _put_items(shown, 0, _G10_SHOWN, e * 10 + (9 - zeros))
    text *= shown
    return _formatted(text, ~fast, x, ".10g")


def _f5_text(q: np.ndarray) -> np.ndarray:
    """``format(v, ".5f")`` of each value of ``q``, one NUL-padded row each.

    A value in (0, 1e5) whose ``q * 1e5`` is not near a tie (see ``_TIE_BAND``)
    is written from ``rint`` of that product; any other, ``-0.0`` too, by ``format``.
    """
    with np.errstate(invalid="ignore"):  # inf and NaN go to format() below
        y = q * 1e5
        fast = (q > 0) & (q < 1e5) & (np.abs(y - np.floor(y) - 0.5) > _TIE_BAND)
        whole, fraction = np.divmod(np.where(fast, np.rint(y), 0).astype(np.int64), 100_000)
    decimals = _int_text(fraction + 100_000)  # "1" and five digits, the "1" overwritten by the point
    decimals[:, 0] = ord(".")
    return _formatted(np.concatenate((_int_text(whole), decimals), axis=1), ~fast, q, ".5f")


# The text of a column given as an array alone, by its dtype's kind.
_TEXT_OF_KIND = {"i": _int_text, "f": g10_text, "S": lambda s: s.view(np.uint8).reshape(s.size, -1)}


def write_csv(path: str | os.PathLike, header: str | None, columns: Sequence) -> None:
    """Write the line ``header`` unless it is None, then one comma-separated line per row of ``columns``.

    A column is an array whose dtype picks its text (integers in decimal,
    floats by :func:`g10_text`, bytes verbatim), or an ``(array, text)`` pair
    whose ``text`` maps values to rows of NUL-padded ASCII, as :func:`stamp_text`
    does. Each block of ``FORMAT_BLOCK`` rows is one byte matrix, written at once.
    """
    columns = [col if isinstance(col, tuple) else (col, _TEXT_OF_KIND[col.dtype.kind]) for col in columns]
    if len({len(values) for values, _ in columns}) > 1:
        raise ValueError(f"columns of unequal lengths for {os.fsdecode(path)}")
    with open(path, "wb") as fh:
        fh.write(b"" if header is None else header.encode("ascii") + b"\n")
        for lo in range(0, len(columns[0][0]), FORMAT_BLOCK):
            texts = [text(values[lo : lo + FORMAT_BLOCK]) for values, text in columns]
            comma = np.full((texts[0].shape[0], 1), ord(","), dtype=np.uint8)
            lines = np.concatenate([part for text in texts for part in (text, comma)], axis=1)
            lines[:, -1] = ord("\n")
            fh.write(lines.tobytes().translate(None, b"\0"))


def parse_ticks(source: str | os.PathLike, instrument: str) -> ParseResult:
    """Parse a tick CSV (``timestamp,bid,ask``, extra columns ignored) into mid-prices.

    Malformed rows (including quotes whose mid overflows) and rows whose
    timestamp runs backwards are dropped and counted in the summary. The
    first non-blank row is skipped as a header, and not counted, only when
    its first field holds no ASCII digit; any other first row is data, so a
    damaged one is counted as malformed.
    Raises :class:`EmptySeriesError` when no valid rows remain.

    The file at ``source`` is read once, as UTF-8 with an optional
    byte-order mark; a file that is not valid UTF-8 raises ``ValueError``
    naming the path, the line and the first bad byte. Its lines are decoded
    in whole-array passes, grouped by byte layout (see :func:`_parse_bytes`);
    the per-line rule :func:`_parse_lines` reads only the lines that fit no
    layout or are not valid rows.
    """
    summary = ParseSummary()
    with open(source, "rb") as fh:
        data = fh.read()
    timestamps, mids = _parse_bytes(data, os.fsdecode(source), summary)
    if (timestamps[1:] < timestamps[:-1]).any():
        # A dropped row never raises the running maximum, so this keeps each
        # row that is not below the last row kept.
        kept = timestamps == np.maximum.accumulate(timestamps)
        summary.rows_dropped_out_of_order = int(kept.size - np.count_nonzero(kept))
        timestamps, mids = timestamps[kept], mids[kept]
    if not timestamps.size:
        raise EmptySeriesError(f"no valid ticks for {instrument}")
    return ParseResult(PriceSeries(instrument, timestamps, mids), summary)


_BOM = b"\xef\xbb\xbf"
# Byte range and radix of HH, MM, SS and mmm in a timestamp field.
_CLOCK_FIELDS = ((9, 11, 24), (11, 13, 60), (13, 15, 60), (15, 18, 1000))
_LF_CHUNK = 1 << 20
# At most 15 digits keep a quote's mantissa below 2**53, so the mantissa and
# its power of ten are exact floats and their quotient is correctly rounded
# (Clinger's fast path): the same float that ``float()`` makes of the text.
_QUOTE_DIGITS = 15
_PARSE_BLOCK = 16384  # lines decoded or gathered together, so a block stays in cache across its columns
# Each part decoded alone costs tens to hundreds of microseconds of numpy
# calls, a per-line rule's worth for dozens of lines. A block split into
# more than _MAX_PARTS parts decodes only its parts of at least
# _MIN_PART_LINES lines; the rest go through the per-line rule.
_MAX_PARTS = 16
_MIN_PART_LINES = 64
# The class of each byte, as one byte of it: digit, LF, CR, space, comma,
# point, other below CR, above 127, or any other. Lines whose bytes have
# equal classes column by column share one verdict of _fixed_width_layout.
_BYTE_CLASS = np.array(
    [48 if 48 <= b <= 57 else b if b in b"\n\r ,." else 0 if b < 14 else 128 if b > 127 else 120 for b in range(256)],
    dtype=np.uint8,
)
_ROW_START = np.frombuffer(b"00000000 000000000,", dtype=np.uint8)  # the classes a row starts with


def _parse_bytes(data: bytes, name: str, summary: ParseSummary) -> tuple[np.ndarray, np.ndarray]:
    """Epoch milliseconds and mid of each valid row of the tick file ``data``
    (read from ``name``) in file order, out-of-order rows included.

    A line ends at an LF. When every line fits one byte layout, as the first
    line's width may show with no scan for line starts, the file is decoded
    as one ``(n, width)`` view; else see :func:`_decode_lines`. Each line left
    undecoded or invalid goes through :func:`_parse_lines`.
    """
    start = len(_BOM) if data.startswith(_BOM) else 0
    buf = np.frombuffer(data, dtype=np.uint8)
    width = data.find(b"\n", start) + 1 - start
    starts: Sequence[int] = range(start, buf.size + 1, max(width, 1))
    decoded = _decode(buf[start:].reshape(-1, width)) if width > 0 and (buf.size - start) % width == 0 else None
    if decoded is None:
        starts = _line_starts(buf, start)
        decoded = _decode_lines(buf, starts)
    timestamps, mids, ok = decoded
    misfits = np.flatnonzero(~ok)
    first_ok = int(ok.argmax()) if misfits.size < ok.size else ok.size
    order, rule_timestamps, rule_mids = _parse_lines(_misfit_lines(data, starts, misfits, name), first_ok, summary)
    summary.rows_read += ok.size - misfits.size
    if misfits.size:
        timestamps, mids = timestamps[ok], mids[ok]
    if order.size:  # rows of the per-line rule, put back in file order
        at = np.searchsorted(np.flatnonzero(ok), order)
        timestamps, mids = np.insert(timestamps, at, rule_timestamps), np.insert(mids, at, rule_mids)
    return timestamps, mids


def _line_starts(buf: np.ndarray, start: int) -> np.ndarray:
    """``start``, the offset just past each LF in ``buf[start:]``, and ``buf.size``
    when the last line has no LF: line i is ``buf[starts[i]:starts[i + 1]]``."""
    # Blockwise, so no file-sized mask is ever allocated.
    ends = [np.flatnonzero(buf[lo : lo + _LF_CHUNK] == 10) + (lo + 1) for lo in range(start, buf.size, _LF_CHUNK)]
    return np.concatenate([[start], *ends, [buf.size] * bool(buf.size > start and buf[-1] != 10)]).astype(np.int64)


def _decode_lines(buf: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Epoch milliseconds, mid and validity of each line ``buf[starts[i]:starts[i + 1]]``.
    Lines of one width are decoded a block at a time (see :func:`_decoded_parts`),
    in place where a block's lines are consecutive, else gathered."""
    widths = np.diff(starts)
    # Sorted as 16-bit keys, by radix; lines of 64 KiB or more share a key,
    # and the split below parts them by their true widths.
    order = np.argsort(np.minimum(widths, 0xFFFF).astype(np.uint16), kind="stable")
    splits = np.split(order, np.flatnonzero(np.diff(widths[order])) + 1) if order.size else []
    groups, n = [(int(widths[lines[0]]), lines) for lines in splits], widths.size
    del widths, splits  # freed before the decode, to keep the peak low
    timestamps, mids, ok = np.empty(n, np.int64), np.empty(n), np.zeros(n, bool)
    for width, lines in groups:
        # Every run of ``width`` bytes as one item, so a gather copies whole lines.
        items = np.ndarray((buf.size - width + 1,), np.dtype((np.void, width)), buf, strides=(1,))
        for lo in range(0, lines.size, _PARSE_BLOCK):
            sel = lines[lo : lo + _PARSE_BLOCK]
            first, last = int(sel[0]), int(sel[-1])
            if last - first + 1 == sel.size:
                rows, sel = buf[starts[first] : starts[last + 1]].reshape(-1, width), slice(first, last + 1)
            else:
                rows = items[starts[sel]].view(np.uint8).reshape(-1, width)
            for part, decoded in _decoded_parts(rows, sel):
                timestamps[part], mids[part], ok[part] = decoded
    return timestamps, mids, ok


def _decoded_parts(rows: np.ndarray, sel: slice | np.ndarray) -> Iterator[tuple[slice | np.ndarray, tuple]]:
    """``(indices, decoded)`` of the lines ``rows``, whose indices are ``sel``,
    decoded by :func:`_decode`. Lines that do not share one byte layout are
    split into parts of equal byte classes, each decoded alone; a part that
    fits no layout, or a small part of a block split into many, is left out."""
    decoded = _decode(rows)
    if decoded is not None:
        yield sel, decoded
        return
    if rows.shape[1] < 23:  # shorter than any row, ``YYYYMMDD HHMMSSmmm,1,1\n``
        return
    # Lines that do not start like a row, or end without an LF, fit no layout.
    fits = (np.take(_BYTE_CLASS, rows[:, :19]) == _ROW_START).all(axis=1) & (rows[:, -1] == 10)
    rows, lines = rows[fits], (np.arange(sel.start, sel.stop) if isinstance(sel, slice) else sel)[fits]
    # Only columns holding more than one byte, not all digits, can differ in
    # class; their classes are compared eight to a 64-bit key.
    lo, hi = _column_bounds(rows)
    mixed = np.take(_BYTE_CLASS, rows[:, (lo != hi) & ((lo < ord("0")) | (hi > ord("9")))])
    keys = np.zeros((rows.shape[0], (-(-mixed.shape[1] // 8) or 1) * 8), dtype=np.uint8)
    keys[:, : mixed.shape[1]] = mixed
    keys = keys.view(np.uint64)
    order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T)
    keys = keys[order]
    parts = np.split(order, np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1)) + 1)
    if len(parts) > _MAX_PARTS:
        parts = [part for part in parts if part.size >= _MIN_PART_LINES]
    for part in parts:
        decoded = _decode(rows[part]) if 0 < part.size < fits.size else None  # not the block again
        if decoded is not None:
            yield lines[part], decoded


def _decode(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Epoch milliseconds, mid and validity (date, time of day, positive
    quotes) of each line of ``rows``, when all share one byte layout (see
    :func:`_fixed_width_layout`); else None."""
    quotes = _fixed_width_layout(rows)
    if quotes is None:
        return None
    timestamps, ok = _timestamps(rows)
    bid, ask = (_column_decimal(rows, cols, np.float64) / scale for cols, scale in quotes)
    if not ((bid > 0).all() and (ask > 0).all()):
        ok &= (bid > 0) & (ask > 0)
    bid += ask
    bid /= 2.0
    return timestamps, bid, ok


def _timestamps(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch milliseconds of the ``YYYYMMDD HHMMSSmmm`` field of each line of
    ``rows`` (its bytes are digits), and whether its date and time of day are valid."""
    ok = np.ones(rows.shape[0], dtype=bool)
    clock = np.zeros(rows.shape[0], dtype=np.int32)  # milliseconds into the day
    for lo, hi, radix in _CLOCK_FIELDS:
        value = _column_decimal(rows, range(lo, hi), np.int32)
        if (value >= radix).any():
            ok &= value < radix
        clock *= radix
        clock += value
    del value  # arrays are freed once used, to keep the peak low
    day = _column_decimal(rows, range(8), np.int32)  # YYYYMMDD
    runs = np.concatenate(([0], np.flatnonzero(day[1:] != day[:-1]) + 1))
    lengths = np.diff(runs, append=day.size)
    bases = np.zeros(runs.size, dtype=np.int64)
    for k, d in enumerate(day[runs].tolist()):
        try:
            bases[k] = _day_start_ms(d // 10_000, d // 100 % 100, d % 100)
        except ValueError:
            ok[runs[k] : runs[k] + lengths[k]] = False
    del day
    timestamps = np.repeat(bases, lengths)
    timestamps += clock
    return timestamps, ok


def _column_bounds(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smallest and the largest byte of each column of ``rows``."""
    # Reducing 64 rows laid end to end gives numpy long inner loops.
    fold = 64
    m = rows.shape[0] // fold * fold
    folded, rest = rows[:m].reshape(-1, fold * rows.shape[1]), rows[m:]
    lo = np.minimum(folded.min(axis=0, initial=255).reshape(fold, -1).min(axis=0), rest.min(axis=0, initial=255))
    hi = np.maximum(folded.max(axis=0, initial=0).reshape(fold, -1).max(axis=0), rest.max(axis=0, initial=0))
    return lo, hi


def _fixed_width_layout(rows: np.ndarray) -> list[tuple[np.ndarray, float]] | None:
    """The digit columns and the power of ten of the bid and of the ask in
    ``rows``, one line each, when every line shares one byte layout; else None.

    Every line must be ASCII and end in LF, or every line in CRLF. Each must
    start ``YYYYMMDD HHMMSSmmm,`` (digits where row 0 has them) and hold a
    comma wherever row 0 does. Every byte column of a quote must be a digit
    on every line or a point on every line, with at most one point and 1 to
    15 digits per quote. Columns after the third field may hold any byte
    above CR. The date and time of day are checked by :func:`_timestamps`.
    """
    lo, hi = _column_bounds(rows)
    width = rows.shape[1]

    def every_row(cols, byte: int) -> bool:
        return bool(((lo[cols] == byte) & (hi[cols] == byte)).all())

    def digits(cols) -> np.ndarray:
        return (lo[cols] >= ord("0")) & (hi[cols] <= ord("9"))

    end = width - 2 if width >= 2 and every_row(width - 2, ord("\r")) else width - 1
    if hi.max() > 127 or not every_row(width - 1, ord("\n")):
        return None
    commas = np.flatnonzero(rows[0, :end] == ord(","))
    if commas.size < 2 or commas[0] != 18 or not every_row(commas, ord(",")):
        return None
    if not (every_row(8, ord(" ")) and digits(np.r_[0:8, 9:18]).all()):
        return None
    if commas.size > 2 and (lo[commas[2] : end] <= ord("\r")).any():
        return None  # a CR or LF there would end a line early
    quotes = []
    for a, b in ((commas[0] + 1, commas[1]), (commas[1] + 1, commas[2] if commas.size > 2 else end)):
        digit = digits(slice(a, b))
        point = (lo[a:b] == ord(".")) & (hi[a:b] == ord("."))
        if not (digit | point).all() or point.sum() > 1 or not 1 <= digit.sum() <= _QUOTE_DIGITS:
            return None
        decimals = int(digit[point.argmax() :].sum()) if point.any() else 0
        quotes.append((np.flatnonzero(digit) + a, float(10**decimals)))
    return quotes


def _column_decimal(rows: np.ndarray, cols: Sequence[int], dtype: type) -> np.ndarray:
    """Per row, the ASCII digits in byte columns ``cols`` as one number; the bytes are not checked."""
    value = np.zeros(rows.shape[0], dtype=dtype)
    for lo in range(0, rows.shape[0], _PARSE_BLOCK):
        part, block = value[lo : lo + _PARSE_BLOCK], rows[lo : lo + _PARSE_BLOCK]
        for col in cols:
            part *= 10
            part += block[:, col]
    # Each byte added its digit plus ord("0"); all sums are exact integers.
    value -= ord("0") * ((10 ** len(cols) - 1) // 9)
    return value


def _misfit_lines(data: bytes, starts: Sequence[int], misfits: np.ndarray, name: str) -> Iterator[tuple[int, str]]:
    """``(index, text)`` of each line ``misfits`` of ``data``, cut at any bare CR
    as a file read in text mode would be."""
    for index in misfits.tolist():
        raw = data[starts[index] : starts[index + 1]]
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{name} line {index + 1}: not valid UTF-8 (byte 0x{raw[exc.start]:02x})") from None
        for part in text.split("\r"):
            yield index, part


def _parse_lines(
    lines: Iterable[tuple[int, str]], first_ok: int, summary: ParseSummary
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-line rule: the index, epoch milliseconds and mid of each valid
    row among ``lines``, ``(index, text)`` pairs in file order.

    Blank lines are skipped. The first non-blank line is a header, skipped
    and not counted, when no decoded row precedes it (its index is below
    ``first_ok``) and its first field holds no ASCII digit. Every other line
    is counted as read, and as malformed unless it holds a valid timestamp
    and two quotes whose mid is finite and positive.
    """
    order, timestamps, mids = [], [], []
    first_row = True
    for index, line in lines:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if first_row:
            first_row = False
            if index < first_ok and not any("0" <= c <= "9" for c in parts[0]):
                continue
        summary.rows_read += 1
        try:
            ts, mid = parse_timestamp(parts[0]), mid_price(float(parts[1]), float(parts[2]))
        except (IndexError, ValueError):
            summary.rows_dropped_malformed += 1
            continue
        order.append(index)
        timestamps.append(ts)
        mids.append(mid)
    return np.array(order, dtype=np.int64), np.array(timestamps, dtype=np.int64), np.array(mids, dtype=np.float64)


def write_ticks(
    path: str | os.PathLike,
    timestamps_ms: Sequence[int] | np.ndarray,
    bids: Sequence[float] | np.ndarray,
    asks: Sequence[float] | np.ndarray,
    flags: Sequence[int] | np.ndarray | None = None,
) -> None:
    """Write a headerless tick CSV; quotes at forex 5-decimal precision, as ``format(q, ".5f")``.

    ``flags`` appends a fourth 0/1 column (ignored by :func:`parse_ticks`).
    """
    columns = [(np.asarray(timestamps_ms, dtype=np.int64), stamp_text)]
    columns += [(np.asarray(quotes, dtype=np.float64), _f5_text) for quotes in (bids, asks)]
    write_csv(path, None, columns if flags is None else [*columns, np.asarray(flags, dtype=np.int64)])


def check_months(window_months: int, stride_months: int) -> None:
    """Raise ``ValueError`` unless both month counts are at least 1."""
    if window_months < 1 or stride_months < 1:
        raise ValueError("window_months and stride_months must be >= 1")


def sliding_windows(
    series: PriceSeries,
    window_months: int = 2,
    stride_months: int = 1,
) -> list[WindowSplit]:
    """Calendar-month sliding windows, each split 1:1 by time into train and test.

    Window k spans ``window_months`` calendar months starting at the first
    tick's month boundary plus ``k * stride_months`` months; windows whose
    span extends beyond the data's last month are discarded. The train/test
    boundary sits at the temporal midpoint of the window's span. A last
    month of December 9999, whose end no timestamp names, raises ``ValueError``.
    """
    if len(series) == 0:
        raise EmptySeriesError("cannot window an empty series")
    check_months(window_months, stride_months)

    first, last = series.timestamps[[0, -1]].astype("datetime64[ms]").astype("datetime64[M]")
    if (year := int((last + 1).astype(np.int64)) // 12 + 1970) > 9999:
        raise ValueError(f"year {year} is out of range")
    starts = np.arange(first, last + 2 - window_months, stride_months)
    start_ms, end_ms = np.stack([starts, starts + window_months]).astype("datetime64[ms]").astype(np.int64)
    mid_ms = start_ms + (end_ms - start_ms) // 2
    i0, i_mid, i1 = (np.searchsorted(series.timestamps, ms, side="left") for ms in (start_ms, mid_ms, end_ms))
    columns = (col.tolist() for col in (start_ms, end_ms, mid_ms, i0, i_mid, i1))
    return [WindowSplit(start, end, mid, (a, b), (b, c)) for start, end, mid, a, b, c in zip(*columns)]


def write_window_manifest(path: str | os.PathLike, windows: Sequence[WindowSplit]) -> None:
    bounds = np.array([(w.window_start_ms, w.window_end_ms, w.train_end_ms) for w in windows], dtype=np.int64)
    columns = [(ms, stamp_text) for ms in bounds.reshape(-1, 3).T]
    write_csv(path, "window_id,window_start,window_end,train_end", [np.arange(len(windows)), *columns])
