"""Tick CSV ingestion, mid-price derivation and calendar-month window splits."""
from __future__ import annotations

import functools
import io
import math
import os
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import IO, Callable, Iterator, Sequence

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


def _day_start_ms(year: int, month: int, day: int) -> int:
    """Epoch milliseconds of 00:00 UTC on a calendar day; ``ValueError`` if no such day."""
    return int(datetime(year, month, day, tzinfo=timezone.utc).timestamp()) * 1000


def parse_timestamp(field: str, _day_cache: dict | None = None) -> int:
    """Parse ``YYYYMMDD HHMMSSmmm`` (UTC, 17 ASCII digits) into epoch milliseconds."""
    if not (
        len(field) == 18
        and field[8] == " "
        and field.isascii()
        and field[:8].isdigit()
        and field[9:].isdigit()
    ):
        raise ValueError(f"bad timestamp field: {field!r}")
    day = field[:8]
    cache = _day_cache if _day_cache is not None else {}
    base = cache.get(day)
    if base is None:
        base = _day_start_ms(int(day[:4]), int(day[4:6]), int(day[6:8]))
        cache[day] = base
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
    and the first bad byte. When its every line is a well-formed, in-order
    tick it is parsed in whole-array passes; any other file, and any file
    object, goes through the row parser, so both give the same result.
    """
    if hasattr(source, "read"):
        return _parse_rows(source, instrument)
    with open(source, "rb") as fh:
        data = fh.read()
    result = _parse_fixed_layout(data, instrument)
    if result is None:
        try:
            result = _parse_rows(_text_file(data), instrument)
        except UnicodeDecodeError:
            # The text wrapper decodes in chunks, so its offset is not the file's.
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise ValueError(
                    f"{os.fsdecode(source)} line {line}: not valid UTF-8 (byte 0x{data[exc.start]:02x})"
                ) from None
            raise
    return result


def _text_file(data: bytes) -> IO[str]:
    """``data`` as ``open(path, encoding="utf-8-sig")`` would present it."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")


_BOM = b"\xef\xbb\xbf"
# Byte range and radix of HH, MM, SS and mmm in a timestamp field.
_CLOCK_FIELDS = ((9, 11, 24), (11, 13, 60), (13, 15, 60), (15, 18, 1000))
_NEWLINE_CHUNK = 1 << 20
# At most 15 digits keep a quote's mantissa below 2**53, so the mantissa and
# its power of ten are exact floats and their quotient is correctly rounded
# (Clinger's fast path): the same float that ``float()`` makes of the text.
_QUOTE_DIGITS = 15
_PARSE_BLOCK = 16384  # rows decoded together, so a block stays in cache across its columns


def _line_starts(buf: np.ndarray, start: int, n_newlines: int) -> np.ndarray:
    """``start``, then the offset just past each newline byte in ``buf[start:]``."""
    starts = np.empty(n_newlines + 1, dtype=np.int64)
    starts[0] = start
    k = 1
    # Blockwise, so no file-sized mask is ever allocated.
    for lo in range(start, buf.size, _NEWLINE_CHUNK):
        hits = np.flatnonzero(buf[lo : lo + _NEWLINE_CHUNK] == 10)
        starts[k : k + hits.size] = hits + (lo + 1)
        k += hits.size
    return starts


def _decimal(buf: np.ndarray, starts: np.ndarray, lo: int, hi: int) -> np.ndarray | None:
    """Per line, the ASCII digits at byte offsets ``lo..hi-1`` as one number; None if any is not a digit."""
    value = np.zeros(starts.size, dtype=np.int32)
    for offset in range(lo, hi):
        digit = buf[offset:][starts] - ord("0")  # uint8: bytes below '0' wrap past 9
        if (digit > 9).any():
            return None
        value *= 10
        value += digit
    return value


def _timestamps(field: Callable[[int, int], np.ndarray | None]) -> np.ndarray | None:
    """Epoch milliseconds of the ``YYYYMMDD HHMMSSmmm`` field of every line, or
    None unless each has a valid date and time of day and none runs backwards.

    ``field(lo, hi)`` gives, per line, the digits at byte offsets ``lo..hi-1``
    as one number, or None if some byte there is not a digit.
    """
    day = field(0, 8)  # YYYYMMDD
    if day is None:
        return None
    clock = np.zeros(day.size, dtype=np.int32)  # milliseconds into the day
    for lo, hi, radix in _CLOCK_FIELDS:
        value = field(lo, hi)
        if value is None or (value >= radix).any():
            return None
        clock *= radix
        clock += value
    del value  # arrays are freed once used, to keep the peak low
    day_starts = np.concatenate(([0], np.flatnonzero(day[1:] != day[:-1]) + 1))
    try:
        bases = [_day_start_ms(d // 10_000, d // 100 % 100, d % 100) for d in day[day_starts].tolist()]
    except ValueError:
        return None
    timestamps = np.repeat(np.array(bases, dtype=np.int64), np.diff(day_starts, append=day.size))
    timestamps += clock
    del day, clock
    if (timestamps[1:] < timestamps[:-1]).any():
        return None
    return timestamps


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


def _parse_fixed_width(data: bytes, start: int, instrument: str) -> ParseResult | None:
    """Whole-array parse of ``data[start:]`` when every line shares one byte
    layout (see :func:`_fixed_width_layout`) and is a valid, in-order row; else None."""
    width = data.find(b"\n", start) + 1 - start
    if width <= 0 or (len(data) - start) % width:
        return None
    rows = np.frombuffer(data, dtype=np.uint8, offset=start).reshape(-1, width)
    quotes = _fixed_width_layout(rows)
    if quotes is None:
        return None
    timestamps = _timestamps(lambda lo, hi: _column_decimal(rows, range(lo, hi), np.int32))
    if timestamps is None:
        return None
    bid, ask = (_column_decimal(rows, cols, np.float64) for cols, _ in quotes)
    bid /= quotes[0][1]
    ask /= quotes[1][1]
    if not ((bid > 0).all() and (ask > 0).all()):
        return None
    mids = bid
    mids += ask
    mids /= 2.0
    return ParseResult(PriceSeries(instrument, timestamps, mids), ParseSummary(rows_read=mids.size))


def _parse_fixed_layout(data: bytes, instrument: str) -> ParseResult | None:
    """Whole-file parse of a tick CSV in which every line is a valid row, or None.

    Every line must start ``YYYYMMDD HHMMSSmmm,`` (17 ASCII digits, a valid
    date and time of day), hold finite positive bid and ask quotes in
    columns 2 and 3, and carry a timestamp no earlier than the line before.
    LF or CRLF endings, a missing final newline and a leading UTF-8 BOM are
    allowed. None means some line breaks a rule, and the caller parses the
    file row by row, which counts every drop.

    A file whose lines all share one width and byte layout is decoded from
    the byte columns of an ``(n, width)`` view. Any other file has its fields
    gathered at the line starts and its quotes read by ``np.loadtxt``; a row
    whose two quotes are so large that their mid overflows is dropped there
    and counted as malformed, as the row parser does.
    """
    start = len(_BOM) if data.startswith(_BOM) else 0
    result = _parse_fixed_width(data, start, instrument)
    if result is not None:
        return result
    n_newlines = data.count(b"\n", start)
    n = n_newlines + (len(data) > start and not data.endswith(b"\n"))
    buf = np.frombuffer(data, dtype=np.uint8)
    starts = _line_starts(buf, start, n_newlines)[:n]
    if n == 0 or buf.size - starts[-1] < 19:  # the last line must hold the bytes read below
        return None
    # A line shorter than 19 bytes puts its own line end in the checked
    # prefix, so the byte checks below also reject short and blank lines.
    if (buf[8:][starts] != ord(" ")).any() or (buf[18:][starts] != ord(",")).any():
        return None
    timestamps = _timestamps(lambda lo, hi: _decimal(buf, starts, lo, hi))
    del starts
    if timestamps is None:
        return None
    try:
        quotes = np.loadtxt(_text_file(data), dtype=np.float64, delimiter=",", usecols=(1, 2), comments=None, ndmin=2)
    except ValueError:
        return None
    if quotes.shape[0] != n or not ((quotes > 0) & (quotes < np.inf)).all():
        return None
    with np.errstate(over="ignore"):
        mids = quotes[:, 0] + quotes[:, 1]
    mids /= 2.0
    summary = ParseSummary(rows_read=n)
    kept = mids < np.inf
    if not kept.all():  # two huge quotes whose mid overflows: malformed, as in mid_price
        if not kept.any():
            return None  # no row left; the row parser reports that
        summary.rows_dropped_malformed = int(n - kept.sum())
        timestamps, mids = timestamps[kept], mids[kept]
    return ParseResult(PriceSeries(instrument, timestamps, mids), summary)


def _parse_rows(source: IO[str], instrument: str) -> ParseResult:
    """Line-by-line parse of any tick CSV text; see :func:`parse_ticks`."""
    timestamps: list[int] = []
    mids: list[float] = []
    summary = ParseSummary()
    day_cache: dict = {}
    last_ts = -(1 << 62)
    first_row = True

    for line in source:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        try:
            ts = parse_timestamp(parts[0], day_cache)
        except ValueError:
            ts = None
        if first_row:
            first_row = False
            if not any("0" <= c <= "9" for c in parts[0]):
                # Header row: skipped, not counted.
                continue
        summary.rows_read += 1
        try:
            if ts is None or len(parts) < 3:
                raise ValueError("bad timestamp or too few columns")
            bid = float(parts[1])
            ask = float(parts[2])
            if not (math.isfinite(bid) and math.isfinite(ask)):
                raise ValueError("non-finite quote")
            mid = mid_price(bid, ask)
        except ValueError:
            summary.rows_dropped_malformed += 1
            continue
        if ts < last_ts:
            summary.rows_dropped_out_of_order += 1
            continue
        last_ts = ts
        timestamps.append(ts)
        mids.append(mid)

    if not timestamps:
        raise EmptySeriesError(f"no valid ticks for {instrument}")
    series = PriceSeries(instrument, np.array(timestamps, dtype=np.int64), np.array(mids))
    return ParseResult(series, summary)


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
    if window_months < 1 or stride_months < 1:
        raise ValueError("window_months and stride_months must be >= 1")

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
