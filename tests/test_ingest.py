import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import format_timestamp_reference

from dcbacktest.ingest import (
    EmptySeriesError,
    PriceSeries,
    format_timestamp,
    mid_price,
    parse_ticks,
    parse_timestamp,
    sliding_windows,
    write_ticks,
)


def test_mid_price_examples():
    assert mid_price(1.10, 1.12) == pytest.approx(1.11)
    assert mid_price(1.0, 1.0) == 1.0
    assert mid_price(1.2345, 1.2347) == pytest.approx(1.2346)


@pytest.mark.parametrize("bid,ask", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -0.5)])
def test_mid_price_rejects_nonpositive(bid, ask):
    with pytest.raises(ValueError):
        mid_price(bid, ask)


def test_parse_single_row():
    result = parse_ticks(io.StringIO("20190701 000000123,1.10000,1.10020\n"), "EURUSD")
    assert len(result.series) == 1
    assert result.series.prices[0] == pytest.approx(1.10010)
    assert result.summary.rows_read == 1
    assert result.summary.rows_dropped == 0
    assert format_timestamp(int(result.series.timestamps[0])) == "20190701 000000123"


def test_parse_empty_file_is_error():
    with pytest.raises(EmptySeriesError):
        parse_ticks(io.StringIO(""), "EURUSD")


def test_parse_header_only_is_error():
    with pytest.raises(EmptySeriesError):
        parse_ticks(io.StringIO("timestamp,bid,ask\n"), "EURUSD")


def test_parse_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        parse_ticks(tmp_path / "nope.csv", "EURUSD")


def test_out_of_order_row_dropped():
    text = (
        "20190701 000001000,1.10000,1.10020\n"
        "20190701 000000500,1.10010,1.10030\n"  # earlier than the first row
        "20190701 000002000,1.10020,1.10040\n"
    )
    result = parse_ticks(io.StringIO(text), "EURUSD")
    assert len(result.series) == 2
    assert result.summary.rows_dropped_out_of_order == 1
    assert result.summary.rows_read == 3


def test_duplicate_timestamps_kept_in_order():
    text = (
        "20190701 000001000,1.10000,1.10020\n"
        "20190701 000001000,1.10010,1.10030\n"
    )
    result = parse_ticks(io.StringIO(text), "EURUSD")
    assert len(result.series) == 2
    assert result.series.prices[0] < result.series.prices[1]


def test_malformed_rows_counted_and_skipped():
    text = (
        "timestamp,bid,ask\n"  # header
        "20190701 000001000,1.10000,1.10020\n"
        "20190701 000002000,notanumber,1.1\n"
        "20190701 000003000,-1.0,1.1\n"
        "garbage line\n"
        "20190701 000004000,1.10010,1.10030\n"
    )
    result = parse_ticks(io.StringIO(text), "EURUSD")
    assert len(result.series) == 2
    assert result.summary.rows_dropped_malformed == 3


def test_malformed_first_row_counted_not_skipped_as_header():
    text = (
        "20190701 000001000,notanumber,1.1\n"  # a timestamp, so data, not a header
        "20190701 000002000,1.10000,1.10020\n"
    )
    result = parse_ticks(io.StringIO(text), "EURUSD")
    assert len(result.series) == 1
    assert result.summary.rows_read == 2
    assert result.summary.rows_dropped_malformed == 1


def test_extra_columns_ignored():
    text = "20190701 000001000,1.10000,1.10020,1\n20190701 000002000,1.10010,1.10030,0\n"
    result = parse_ticks(io.StringIO(text), "EURUSD")
    assert len(result.series) == 2


def test_parse_serialize_parse_idempotent(tmp_path):
    text = (
        "20190701 000001000,1.10000,1.10020\n"
        "20190701 120000123,1.10010,1.10030\n"
        "20190702 000000999,1.09990,1.10010\n"
    )
    first = parse_ticks(io.StringIO(text), "EURUSD")
    out = tmp_path / "ticks.csv"
    write_ticks(out, first.series.timestamps, first.bids, first.asks)
    second = parse_ticks(out, "EURUSD")
    assert np.array_equal(first.series.timestamps, second.series.timestamps)
    assert np.array_equal(first.series.prices, second.series.prices)
    assert second.summary.rows_dropped == 0


def test_timestamp_roundtrip():
    ms = parse_timestamp("20200229 235959999")
    assert format_timestamp(ms) == "20200229 235959999"


_DAY_MS = 86_400_000
# Midnights around leap days (1900 is not a leap year, 2000 is).
_LEAP_EDGES = [
    parse_timestamp(f"{d} 000000000")
    for d in ("19000228", "19000301", "19040229", "20000229", "20000301", "20200229", "20240229", "20240301")
]


@settings(max_examples=500, deadline=None)
@given(
    ms=st.one_of(
        st.integers(-3 * 10**12, 3 * 10**12),
        st.builds(lambda d, off: d * _DAY_MS + off, st.integers(-35_000, 35_000), st.integers(-1001, 1001)),
        st.builds(lambda m, off: m + off, st.sampled_from(_LEAP_EDGES), st.integers(-_DAY_MS - 1, _DAY_MS + 1)),
    )
)
def test_format_timestamp_matches_datetime_reference(ms):
    assert format_timestamp(ms) == format_timestamp_reference(ms)
    assert format_timestamp(np.int64(ms)) == format_timestamp_reference(ms)


def _series_spanning(start_ts: str, end_ts: str, n: int = 50) -> PriceSeries:
    t0 = parse_timestamp(start_ts)
    t1 = parse_timestamp(end_ts)
    ts = np.linspace(t0, t1, n).astype(np.int64)
    return PriceSeries("X", ts, np.full(n, 1.1))


def test_sliding_windows_count_jan19_to_oct20():
    series = _series_spanning("20190101 000000000", "20201031 235900000", n=2000)
    windows = sliding_windows(series)
    assert len(windows) == 21
    assert format_timestamp(windows[0].window_start_ms) == "20190101 000000000"
    assert format_timestamp(windows[-1].window_start_ms) == "20200901 000000000"
    assert format_timestamp(windows[-1].window_end_ms) == "20201101 000000000"


def test_single_month_yields_no_windows():
    series = _series_spanning("20190101 000000000", "20190131 235900000")
    assert sliding_windows(series) == []


def test_two_equal_length_months_split_at_month_boundary():
    # July and August both have 31 days, so the temporal midpoint of the
    # window is exactly the second month's first instant.
    series = _series_spanning("20190701 000000000", "20190831 235900000", n=200)
    windows = sliding_windows(series)
    assert len(windows) == 1
    w = windows[0]
    assert format_timestamp(w.train_end_ms) == "20190801 000000000"
    i0, i_mid = w.train_range
    i_mid2, i1 = w.test_range
    assert i_mid == i_mid2 and i0 == 0 and i1 == len(series)
    assert series.timestamps[i_mid - 1] < w.train_end_ms <= series.timestamps[i_mid]


def test_window_ranges_partition_window_ticks():
    rng = np.random.default_rng(0)
    t0 = parse_timestamp("20190101 000000000")
    t1 = parse_timestamp("20190610 000000000")
    ts = np.sort(rng.integers(t0, t1, size=5000)).astype(np.int64)
    series = PriceSeries("X", ts, np.full(5000, 1.0))
    for w in sliding_windows(series):
        i0, i_mid = w.train_range
        _, i1 = w.test_range
        inside = (ts >= w.window_start_ms) & (ts < w.window_end_ms)
        assert np.flatnonzero(inside)[0] == i0
        assert np.flatnonzero(inside)[-1] == i1 - 1
        # train strictly precedes test in time
        if i_mid > i0 and i1 > i_mid:
            assert ts[i0:i_mid].max() < ts[i_mid:i1].min()
