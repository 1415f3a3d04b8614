"""Tick CSV ingestion, mid-price derivation and calendar-month window splits."""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import IO, Iterable, Sequence

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
    "format_timestamp",
    "sliding_windows",
    "write_ticks",
    "write_window_manifest",
]


_EPOCH_DATE = date(1970, 1, 1)


class EmptySeriesError(ValueError):
    """Raised when an input yields no usable ticks."""


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
        if self.prices.size and not (self.prices > 0).all():
            raise ValueError("prices must all be positive")

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
    # Raw quotes kept so a parsed file can be re-serialized losslessly.
    bids: np.ndarray
    asks: np.ndarray


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
    return (bid + ask) / 2.0


def parse_timestamp(field: str, _day_cache: dict | None = None) -> int:
    """Parse ``YYYYMMDD HHMMSSmmm`` (UTC) into epoch milliseconds."""
    if len(field) != 18 or field[8] != " ":
        raise ValueError(f"bad timestamp field: {field!r}")
    day = field[:8]
    cache = _day_cache if _day_cache is not None else {}
    base = cache.get(day)
    if base is None:
        base = int(datetime(int(day[:4]), int(day[4:6]), int(day[6:8]), tzinfo=timezone.utc).timestamp()) * 1000
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


def format_timestamp(ms: int) -> str:
    """Inverse of :func:`parse_timestamp`."""
    sec, milli = divmod(ms, 1000)
    day, sec = divmod(sec, 86_400)
    hh, sec = divmod(sec, 3600)
    mm, ss = divmod(sec, 60)
    return f"{_day_prefix(day)}{hh:02d}{mm:02d}{ss:02d}{milli:03d}"


def _iter_lines(source: str | os.PathLike | IO[str]) -> Iterable[str]:
    if hasattr(source, "read"):
        yield from source  # type: ignore[misc]
    else:
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh


def parse_ticks(source: str | os.PathLike | IO[str], instrument: str) -> ParseResult:
    """Parse a tick CSV (``timestamp,bid,ask``, extra columns ignored) into mid-prices.

    Malformed rows and rows whose timestamp runs backwards are dropped and
    counted in the summary. The first non-blank row is skipped as a header
    when its first field is not a timestamp. Raises
    :class:`EmptySeriesError` when no valid rows remain.
    """
    timestamps: list[int] = []
    mids: list[float] = []
    bids: list[float] = []
    asks: list[float] = []
    summary = ParseSummary()
    day_cache: dict = {}
    last_ts = -(1 << 62)
    first_row = True

    for line in _iter_lines(source):
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
            if ts is None:
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
        bids.append(bid)
        asks.append(ask)

    if not timestamps:
        raise EmptySeriesError(f"no valid ticks for {instrument}")
    series = PriceSeries(instrument, np.array(timestamps, dtype=np.int64), np.array(mids))
    return ParseResult(series, summary, np.array(bids), np.array(asks))


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
    with open(path, "w", encoding="utf-8") as fh:
        if flags is None:
            for ts, b, a in zip(timestamps_ms, bids, asks):
                fh.write(f"{format_timestamp(int(ts))},{b:.5f},{a:.5f}\n")
        else:
            for ts, b, a, fl in zip(timestamps_ms, bids, asks, flags):
                fh.write(f"{format_timestamp(int(ts))},{b:.5f},{a:.5f},{int(fl)}\n")


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
    split_ratio: float = 0.5,
) -> list[WindowSplit]:
    """Calendar-month sliding windows with a time-proportional train/test split.

    Window k spans ``window_months`` calendar months starting at the first
    tick's month boundary plus ``k * stride_months`` months; windows whose
    span extends beyond the data's last month are discarded. The train/test
    boundary sits at the ``split_ratio`` point of the window's time span
    (0.5 = temporal midpoint, a 1:1 split by time).
    """
    if len(series) == 0:
        raise EmptySeriesError("cannot window an empty series")
    if window_months < 1 or stride_months < 1:
        raise ValueError("window_months and stride_months must be >= 1")
    if not 0.0 < split_ratio < 1.0:
        raise ValueError("split_ratio must be in (0, 1)")

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
        mid_ms = start_ms + int((end_ms - start_ms) * split_ratio)
        i0 = int(np.searchsorted(series.timestamps, start_ms, side="left"))
        i_mid = int(np.searchsorted(series.timestamps, mid_ms, side="left"))
        i1 = int(np.searchsorted(series.timestamps, end_ms, side="left"))
        windows.append(WindowSplit(start_ms, end_ms, mid_ms, (i0, i_mid), (i_mid, i1)))
        k += 1
    return windows


def write_window_manifest(path: str | os.PathLike, windows: Sequence[WindowSplit]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("window_id,window_start,window_end,train_end\n")
        for i, w in enumerate(windows):
            fh.write(
                f"{i},{format_timestamp(w.window_start_ms)},{format_timestamp(w.window_end_ms)},"
                f"{format_timestamp(w.train_end_ms)}\n"
            )
