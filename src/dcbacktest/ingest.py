"""Tick CSV ingestion, mid-price derivation and calendar-month window splits."""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import IO, Iterable, Iterator, Sequence

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
    "format_timestamps",
    "sliding_windows",
    "write_ticks",
    "write_window_manifest",
]


_EPOCH_DATE = date(1970, 1, 1)


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


@functools.lru_cache(maxsize=1024)
def _day_prefix(day: int) -> bytes:
    """``YYYYMMDD `` of the UTC day ``day`` days after 1970-01-01, the year zero-padded to four digits."""
    d = _EPOCH_DATE + timedelta(days=int(day))
    return f"{d.year:04d}{d.month:02d}{d.day:02d} ".encode("ascii")


_FORMAT_BLOCK = 8192


def digit_table(width: int) -> np.ndarray:
    """Row g holds the ASCII digits of g, zero-padded to ``width`` (uint8, ``10**width`` rows)."""
    g = np.arange(10**width)[:, None]
    return (g // 10 ** np.arange(width - 1, -1, -1) % 10 + ord("0")).astype(np.uint8)


_TWO_DIGITS = digit_table(2).view("S2")[:, 0]
_THREE_DIGITS = digit_table(3).view("S3")[:, 0]


def put_items(out: np.ndarray, col: int, table: np.ndarray, index: np.ndarray) -> None:
    """Set the bytes of row i of ``out`` from column ``col`` on to the item
    ``table[index[i]]``, for every row; ``table`` holds fixed-width items."""
    out[:, col : col + table.itemsize].view(table.dtype)[:, 0] = np.take(table, index)


def stamp_columns(ms: np.ndarray, out: np.ndarray) -> None:
    """Write the inverse of :func:`parse_timestamp` of each epoch millisecond
    in ``ms`` into the first 18 byte columns of ``out`` (uint8, one row each)."""
    sec, milli = np.divmod(ms, 1000)
    day, sec = np.divmod(sec, 86_400)
    days, inverse = np.unique(day, return_inverse=True)
    put_items(out, 0, np.array([_day_prefix(d) for d in days.tolist()]), inverse)
    hh, sec = np.divmod(sec, 3600)
    mm, ss = np.divmod(sec, 60)
    for col, value in ((9, hh), (11, mm), (13, ss)):
        put_items(out, col, _TWO_DIGITS, value)
    put_items(out, 15, _THREE_DIGITS, milli)


def format_timestamps(ms: Sequence[int] | np.ndarray) -> Iterator[str]:
    """Yield the inverse of :func:`parse_timestamp` for each element of an
    epoch-millisecond array.

    Rows are formatted a block at a time, so a writer holds one block of
    strings, not the whole column.
    """
    ms = np.asarray(ms, dtype=np.int64)
    for lo in range(0, ms.size, _FORMAT_BLOCK):
        block = ms[lo : lo + _FORMAT_BLOCK]
        text = np.empty((block.size, 18), dtype=np.uint8)
        stamp_columns(block, text)
        yield from text.view("S18").ravel().astype("U18").tolist()


def parse_ticks(source: str | os.PathLike | IO[str], instrument: str) -> ParseResult:
    """Parse a tick CSV (``timestamp,bid,ask``, extra columns ignored) into mid-prices.

    Malformed rows (including quotes whose mid overflows) and rows whose
    timestamp runs backwards are dropped and counted in the summary. The
    first non-blank row is skipped as a header, and not counted, only when
    its first field holds no ASCII digit; any other first row is data, so a
    damaged one is counted as malformed.
    Raises :class:`EmptySeriesError` when no valid rows remain.

    A path is read once, as UTF-8 with an optional byte-order mark; a file
    that is not valid UTF-8 raises ``ValueError`` naming the path, the line
    and the first bad byte. Its lines are decoded in whole-array passes,
    grouped by byte layout (see :func:`_parse_bytes`); the per-line rule
    :func:`_parse_lines` reads only the lines that fit no layout or are not
    valid rows, and every line of a file object.
    """
    summary = ParseSummary()
    if hasattr(source, "read"):
        _, timestamps, mids = _parse_lines(enumerate(source), math.inf, summary)
    else:
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
    fits no layout is left out."""
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
    for part in np.split(order, np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1)) + 1):
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
    lines: Iterable[tuple[int, str]], first_ok: float, summary: ParseSummary
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
    """Write a headerless tick CSV; quotes at forex 5-decimal precision.

    ``flags`` appends a fourth 0/1 column (ignored by :func:`parse_ticks`).
    """
    stamps = format_timestamps(timestamps_ms)
    with open(path, "w", encoding="utf-8") as fh:
        if flags is None:
            for ts, b, a in zip(stamps, bids, asks):
                fh.write(f"{ts},{b:.5f},{a:.5f}\n")
        else:
            for ts, b, a, fl in zip(stamps, bids, asks, flags):
                fh.write(f"{ts},{b:.5f},{a:.5f},{int(fl)}\n")


def _month_floor(ms: int) -> tuple[int, int]:
    dt = datetime.fromtimestamp(ms / 1000.0, tz=timezone.utc)
    return dt.year, dt.month


def _month_start_ms(year: int, month: int) -> int:
    return int(datetime(year, month, 1, tzinfo=timezone.utc).timestamp()) * 1000


def _add_months(year: int, month: int, n: int) -> tuple[int, int]:
    total = year * 12 + (month - 1) + n
    return total // 12, total % 12 + 1


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
    boundary sits at the temporal midpoint of the window's span.
    """
    if len(series) == 0:
        raise EmptySeriesError("cannot window an empty series")
    check_months(window_months, stride_months)

    first_y, first_m = _month_floor(int(series.timestamps[0]))
    last_y, last_m = _month_floor(int(series.timestamps[-1]))
    # Exclusive end of the data's month span.
    data_end_ms = _month_start_ms(*_add_months(last_y, last_m, 1))

    windows: list[WindowSplit] = []
    k = 0
    while True:
        sy, sm = _add_months(first_y, first_m, k * stride_months)
        start_ms = _month_start_ms(sy, sm)
        end_ms = _month_start_ms(*_add_months(sy, sm, window_months))
        if end_ms > data_end_ms:
            break
        mid_ms = start_ms + (end_ms - start_ms) // 2
        i0 = int(np.searchsorted(series.timestamps, start_ms, side="left"))
        i_mid = int(np.searchsorted(series.timestamps, mid_ms, side="left"))
        i1 = int(np.searchsorted(series.timestamps, end_ms, side="left"))
        windows.append(WindowSplit(start_ms, end_ms, mid_ms, (i0, i_mid), (i_mid, i1)))
        k += 1
    return windows


def write_window_manifest(path: str | os.PathLike, windows: Sequence[WindowSplit]) -> None:
    stamps = format_timestamps([ms for w in windows for ms in (w.window_start_ms, w.window_end_ms, w.train_end_ms)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("window_id,window_start,window_end,train_end\n")
        # Zipping one iterator with itself takes its items three at a time.
        for i, (start, end, train_end) in enumerate(zip(stamps, stamps, stamps)):
            fh.write(f"{i},{start},{end},{train_end}\n")
