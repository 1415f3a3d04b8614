"""Tick CSV ingestion, mid-price derivation and calendar-month window splits."""
from __future__ import annotations

import functools
import io
import math
import os
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import IO, Iterator, Sequence

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
def _day_prefix(day: int) -> str:
    """``YYYYMMDD `` of the UTC day ``day`` days after 1970-01-01."""
    return f"{_EPOCH_DATE + timedelta(days=int(day)):%Y%m%d} "


_FORMAT_BLOCK = 8192


def format_timestamps(ms: Sequence[int] | np.ndarray) -> Iterator[str]:
    """Yield the inverse of :func:`parse_timestamp` for each element of an
    epoch-millisecond array.

    Rows are formatted a block at a time, so a writer holds one block of
    strings, not the whole column.
    """
    ms = np.asarray(ms, dtype=np.int64)
    for lo in range(0, ms.size, _FORMAT_BLOCK):
        sec, milli = np.divmod(ms[lo : lo + _FORMAT_BLOCK], 1000)
        day, sec = np.divmod(sec, 86_400)
        days, inverse = np.unique(day, return_inverse=True)
        prefixes = "".join(_day_prefix(d) for d in days.tolist()).encode("ascii")
        text = np.empty((sec.size, 18), dtype=np.uint8)
        text[:, :9] = np.frombuffer(prefixes, dtype=np.uint8).reshape(-1, 9)[inverse]
        hh, sec = np.divmod(sec, 3600)
        mm, ss = np.divmod(sec, 60)
        clock = ((hh * 100 + mm) * 100 + ss) * 1000 + milli  # HHMMSSmmm as one integer
        for col in range(17, 8, -1):
            clock, digit = np.divmod(clock, 10)
            text[:, col] = digit + 48
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


def _parse_fixed_layout(data: bytes, instrument: str) -> ParseResult | None:
    """Whole-file parse of a tick CSV in which every line is a valid row, or None.

    Every line must start ``YYYYMMDD HHMMSSmmm,`` (17 ASCII digits, a valid
    date and time of day), hold finite positive bid and ask quotes in
    columns 2 and 3, and carry a timestamp no earlier than the line before.
    LF or CRLF endings, a missing final newline and a leading UTF-8 BOM are
    allowed. None means some line breaks a rule, and the caller parses the
    file row by row, which counts every drop. A row whose two quotes are so
    large that their mid overflows is dropped here and counted as malformed,
    as the row parser does.
    """
    start = len(_BOM) if data.startswith(_BOM) else 0
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
    day = _decimal(buf, starts, 0, 8)  # YYYYMMDD
    if day is None:
        return None
    clock = np.zeros(n, dtype=np.int32)  # milliseconds into the day
    for lo, hi, radix in _CLOCK_FIELDS:
        value = _decimal(buf, starts, lo, hi)
        if value is None or (value >= radix).any():
            return None
        clock *= radix
        clock += value
    del starts, value  # arrays are freed once used, to keep the peak low
    day_starts = np.concatenate(([0], np.flatnonzero(day[1:] != day[:-1]) + 1))
    try:
        bases = [_day_start_ms(d // 10_000, d // 100 % 100, d % 100) for d in day[day_starts].tolist()]
    except ValueError:
        return None
    timestamps = np.repeat(np.array(bases, dtype=np.int64), np.diff(day_starts, append=n))
    timestamps += clock
    del day, clock
    if (timestamps[1:] < timestamps[:-1]).any():
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
