import contextlib
import dataclasses
import re
import tracemalloc
from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import (
    format_timestamp_reference,
    month_start_ms_reference,
    parse_ticks_reference,
    sliding_windows_reference,
)

from dcbacktest import ingest
from dcbacktest.ingest import (
    EmptySeriesError,
    PriceSeries,
    WindowSplit,
    _f5_text,
    mid_price,
    parse_ticks,
    parse_timestamp,
    sliding_windows,
    stamp_text,
    write_csv,
    write_ticks,
    write_window_manifest,
)


def _stamps(ms):
    """Epoch-millisecond timestamps as ``YYYYMMDD HHMMSSmmm`` strings."""
    return [row.tobytes().decode("ascii") for row in stamp_text(np.array(ms, dtype=np.int64))]


def _fmt(ms):
    """One epoch-millisecond timestamp as ``YYYYMMDD HHMMSSmmm``."""
    return _stamps([ms])[0]


def _tick_file(tmp_path, text):
    """The path of a new file under ``tmp_path`` holding ``text``."""
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_mid_price_examples():
    assert mid_price(1.10, 1.12) == pytest.approx(1.11)
    assert mid_price(1.0, 1.0) == 1.0
    assert mid_price(1.2345, 1.2347) == pytest.approx(1.2346)


@pytest.mark.parametrize("bid,ask", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -0.5)])
def test_mid_price_rejects_nonpositive(bid, ask):
    with pytest.raises(ValueError):
        mid_price(bid, ask)


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf, 0.0, -1.0])
def test_price_series_rejects_bad_price_naming_first_index(bad):
    prices = np.array([1.1, 1.2, bad, 1.3, bad])
    with pytest.raises(ValueError, match=f"finite and positive, got {float(bad)!r} at index 2$"):
        PriceSeries("X", np.arange(5), prices)


def test_price_series_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="timestamps and prices must have equal length"):
        PriceSeries("X", np.arange(3), np.full(2, 1.1))


def test_parse_single_row(tmp_path):
    result = parse_ticks(_tick_file(tmp_path, "20190701 000000123,1.10000,1.10020\n"), "EURUSD")
    assert len(result.series) == 1
    assert result.series.prices[0] == pytest.approx(1.10010)
    assert result.summary.rows_read == 1
    assert result.summary.rows_dropped == 0
    assert _fmt(int(result.series.timestamps[0])) == "20190701 000000123"


def test_parse_empty_file_is_error(tmp_path):
    with pytest.raises(EmptySeriesError):
        parse_ticks(_tick_file(tmp_path, ""), "EURUSD")


def test_parse_header_only_is_error(tmp_path):
    with pytest.raises(EmptySeriesError):
        parse_ticks(_tick_file(tmp_path, "timestamp,bid,ask\n"), "EURUSD")


@pytest.mark.parametrize("data", [b"", b"\xef\xbb\xbf", b"\n"], ids=["empty", "bom-only", "blank-line"])
def test_parse_empty_path_is_error(tmp_path, data):
    path = tmp_path / "ticks.csv"
    path.write_bytes(data)
    with pytest.raises(EmptySeriesError):
        parse_ticks(path, "EURUSD")


def test_parse_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        parse_ticks(tmp_path / "nope.csv", "EURUSD")


def test_out_of_order_row_dropped(tmp_path):
    text = (
        "20190701 000001000,1.10000,1.10020\n"
        "20190701 000000500,1.10010,1.10030\n"  # earlier than the first row
        "20190701 000002000,1.10020,1.10040\n"
    )
    result = parse_ticks(_tick_file(tmp_path, text), "EURUSD")
    assert len(result.series) == 2
    assert result.summary.rows_dropped_out_of_order == 1
    assert result.summary.rows_read == 3


def test_duplicate_timestamps_kept_in_order(tmp_path):
    text = (
        "20190701 000001000,1.10000,1.10020\n"
        "20190701 000001000,1.10010,1.10030\n"
    )
    result = parse_ticks(_tick_file(tmp_path, text), "EURUSD")
    assert len(result.series) == 2
    assert result.series.prices[0] < result.series.prices[1]


def test_malformed_rows_counted_and_skipped(tmp_path):
    text = (
        "timestamp,bid,ask\n"  # header
        "20190701 000001000,1.10000,1.10020\n"
        "20190701 000002000,notanumber,1.1\n"
        "20190701 000003000,-1.0,1.1\n"
        "garbage line\n"
        "20190701 000004000,1.10010,1.10030\n"
    )
    result = parse_ticks(_tick_file(tmp_path, text), "EURUSD")
    assert len(result.series) == 2
    assert result.summary.rows_dropped_malformed == 3


def test_malformed_first_row_counted_not_skipped_as_header(tmp_path):
    text = (
        "20190701 000001000,notanumber,1.1\n"  # a timestamp, so data, not a header
        "20190701 000002000,1.10000,1.10020\n"
    )
    result = parse_ticks(_tick_file(tmp_path, text), "EURUSD")
    assert len(result.series) == 1
    assert result.summary.rows_read == 2
    assert result.summary.rows_dropped_malformed == 1


@pytest.mark.parametrize("first", ["2019070a 000000000,1.1,1.2", "x1,1.1,1.2", "20190701 2400000000,1.1,1.2"])
def test_damaged_first_row_with_a_digit_counted_not_skipped_as_header(tmp_path, first):
    text = first + "\n20190701 000002000,1.10000,1.10020\n"
    path = tmp_path / "ticks.csv"
    path.write_text(text, encoding="utf-8")
    result = parse_ticks(path, "EURUSD")
    assert len(result.series) == 1
    assert result.summary.rows_read == 2
    assert result.summary.rows_dropped_malformed == 1
    assert parse_ticks_reference(path)[4] == (2, 1, 0)


@pytest.mark.parametrize("field", ["20190701 -10000000", "20190701 00-100000", "20190701 +1000000", "20190701 0_100000"])
def test_signed_or_underscored_timestamp_is_malformed(tmp_path, field):
    # int() accepts signs and underscores; such a row used to land on the
    # previous day instead of being counted as malformed.
    with pytest.raises(ValueError):
        parse_timestamp(field)
    text = f"20190630 000000000,1.1,1.2\n{field},1.1,1.2\n20190702 000000000,1.1,1.2\n"
    result = parse_ticks(_tick_file(tmp_path, text), "EURUSD")
    assert result.summary.rows_dropped_malformed == 1
    assert result.summary.rows_dropped_out_of_order == 0
    assert len(result.series) == 2


@pytest.mark.parametrize("tail", ["", "garbage line\n"])  # without, with a line that fits no layout
def test_bom_prefixed_first_row_counted(tmp_path, tail):
    path = tmp_path / "bom.csv"
    path.write_bytes(
        b"\xef\xbb\xbf20190701 000001000,1.10000,1.10020\n20190701 000002000,1.10010,1.10030\n" + tail.encode()
    )
    result = parse_ticks(path, "EURUSD")
    assert len(result.series) == 2
    assert result.summary.rows_read == 2 + bool(tail)
    assert _fmt(int(result.series.timestamps[0])) == "20190701 000001000"


def test_extra_columns_ignored(tmp_path):
    text = "20190701 000001000,1.10000,1.10020,1\n20190701 000002000,1.10010,1.10030,0\n"
    result = parse_ticks(_tick_file(tmp_path, text), "EURUSD")
    assert len(result.series) == 2


def test_parse_serialize_parse_idempotent(tmp_path):
    text = (
        "20190701 000001000,1.10000,1.10020\n"
        "20190701 120000123,1.10010,1.10030\n"
        "20190702 000000999,1.09990,1.10010\n"
    )
    first = parse_ticks(_tick_file(tmp_path, text), "EURUSD")
    out = tmp_path / "ticks.csv"
    quotes = [row.split(",")[1:] for row in text.splitlines()]
    write_ticks(out, first.series.timestamps, [float(b) for b, _ in quotes], [float(a) for _, a in quotes])
    second = parse_ticks(out, "EURUSD")
    assert np.array_equal(first.series.timestamps, second.series.timestamps)
    assert np.array_equal(first.series.prices, second.series.prices)
    assert second.summary.rows_dropped == 0


def test_timestamp_roundtrip():
    ms = parse_timestamp("20200229 235959999")
    assert _fmt(ms) == "20200229 235959999"


_DAY_MS = 86_400_000
# The first and the last instant a timestamp field can name.
_MIN_MS, _MAX_MS = parse_timestamp("00010101 000000000"), parse_timestamp("99991231 235959999")
# Midnights around leap days (1900 is not a leap year, 400 and 2000 are).
_LEAP_EDGES = [
    parse_timestamp(f"{d} 000000000")
    for d in ("04000229", "19000228", "19000301", "19040229", "20000229", "20000301", "20200229", "20240229",
              "20240301", "99960229")
]
_ANY_MS = st.one_of(
    st.integers(_MIN_MS, _MAX_MS),
    st.builds(lambda d, off: min(max(d * _DAY_MS + off, _MIN_MS), _MAX_MS),
              st.integers(_MIN_MS // _DAY_MS, _MAX_MS // _DAY_MS), st.integers(-1001, 1001)),
    st.builds(lambda m, off: m + off, st.sampled_from(_LEAP_EDGES), st.integers(-_DAY_MS - 1, _DAY_MS + 1)),
)


@settings(max_examples=500, deadline=None)
@given(ms=_ANY_MS)
def test_format_timestamp_matches_datetime_reference(ms):
    assert _fmt(ms) == format_timestamp_reference(ms)
    assert _fmt(np.int64(ms)) == format_timestamp_reference(ms)


@settings(max_examples=200, deadline=None)
@given(ms=st.lists(_ANY_MS, max_size=40))
def test_format_timestamps_matches_datetime_reference(ms):
    assert _stamps(ms) == [format_timestamp_reference(m) for m in ms]


def test_format_timestamps_across_blocks(tmp_path):
    # Several formatting blocks, each spanning many days, in descending order.
    ms = 1561939200000 - np.arange(int(2.5 * ingest.FORMAT_BLOCK), dtype=np.int64) * 37_000_123
    write_csv(tmp_path / "stamps.csv", None, [(ms, stamp_text)])
    assert (tmp_path / "stamps.csv").read_text(encoding="ascii").splitlines() == [
        format_timestamp_reference(m) for m in ms.tolist()
    ]


_GOOD_QUOTES = st.one_of(
    st.floats(0.5, 2.0).map(lambda x: f"{x:.5f}"),
    st.sampled_from(["1.1", "+1.10000", " 1.1", "1.1 ", "1e0", "1.", ".5", "2", "1.7976931348623157e308"]),
)
_BAD_QUOTES = ["1.2#x", "1_1", "nan", "inf", "-inf", "1e-400", "0", "-1.1", "", "abc", "1.1\r2"]
_BAD_TIMESTAMPS = [
    "20190701 -00001500", "20190701 00-001500", "2019070a 000001500", "20190701 0000 1500",
    "20190701 00_001500", "20190230 000001500", "20190701 240001500", "20190701 006001500",
    "20190701 000060500", "2019-07-01 0001500", "20190701 00001500", "20190701T000001500",
    "\u0662" + "0190701 000001500", " 20190701 00001500", "20190701 0000015000", "20190701 000001500 ",
    "20190701 00000150x", "20190701 0000015-0",
]
_ANOMALIES = ["quote", "timestamp", "short", "header", "blank", "backwards"]
_DECODED_ROW = re.compile(rb"(\d{4})(\d\d)(\d\d) (\d\d)(\d\d)(\d\d)\d{3},([\d.]+),([\d.]+)(?:,[\x0e-\x7f]*)?\r?\n")


def _decodable(line: bytes) -> bool:
    """Whether ``line`` (with its LF) is a valid tick row in the byte layout
    that ingest decodes column by column: ``YYYYMMDD HHMMSSmmm,bid,ask``, each
    quote 1 to 15 digits with at most one point and positive, a valid date and
    time of day, extra ASCII columns without control bytes, LF or CRLF."""
    match = _DECODED_ROW.fullmatch(line)
    if match is None:
        return False
    year, month, day, hh, mm, ss, bid, ask = (match[k] for k in range(1, 9))
    for quote in (bid, ask):
        if quote.count(b".") > 1 or not 1 <= len(quote) - quote.count(b".") <= 15 or float(quote) <= 0:
            return False
    try:
        date(int(year), int(month), int(day))
    except ValueError:
        return False
    return int(hh) < 24 and int(mm) < 60 and int(ss) < 60


def _line_rule_input(data: bytes) -> list[str]:
    """Stripped, the non-blank lines that the per-line rule must read from a
    tick file holding ``data``: those of every line that is not
    :func:`_decodable`, cut at each bare CR."""
    pieces = data.removeprefix(b"\xef\xbb\xbf").split(b"\n")
    lines = [piece + b"\n" for piece in pieces[:-1]] + [pieces[-1]] * bool(pieces[-1])
    return [part.strip() for line in lines if not _decodable(line)
            for part in line.decode("utf-8").split("\r") if part.strip()]


@contextlib.contextmanager
def _line_rule_spy():
    """Collects, stripped, each non-blank line that the per-line rule reads."""
    seen = []
    parse_lines = ingest._parse_lines

    def spy(lines, *args):
        lines = list(lines)
        seen.extend(text.strip() for _, text in lines if text.strip())
        return parse_lines(lines, *args)

    with mock.patch.object(ingest, "_parse_lines", spy):
        yield seen


@st.composite
def _tick_files(draw):
    """(file bytes, whether some line is a header, blank, malformed or out of order)."""
    t0 = parse_timestamp(draw(st.sampled_from(["20190630 230000000", "20200228 235959000", "20191231 000000000"])))
    steps = draw(st.lists(st.sampled_from([0, 1, 999, 60_000, 3_600_000, _DAY_MS - 1, 2 * _DAY_MS]), min_size=1, max_size=12))
    stamps = [_fmt(t) for t in np.cumsum([t0] + steps[1:]).tolist()]
    rows = [
        [ts, draw(_GOOD_QUOTES), draw(_GOOD_QUOTES)] + draw(st.sampled_from([[], ["0"], ["1"], ["x", "y"], [""]]))
        for ts in stamps
    ]
    anomalies = draw(st.lists(st.sampled_from(_ANOMALIES), max_size=2))
    # Edits within a row first, so every edited row still has three fields.
    for kind in sorted(anomalies, key=lambda k: k in ("short", "header", "blank", "backwards")):
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "header":
            rows.insert(0, ["timestamp", "bid", "ask"])
        elif kind == "blank":
            rows.insert(i, [draw(st.sampled_from(["", "  "]))])
        elif kind == "quote":
            rows[i][draw(st.sampled_from([1, 2]))] = draw(st.sampled_from(_BAD_QUOTES))
        elif kind == "short":
            rows[i] = rows[i][:2]
        elif kind == "backwards":
            earlier = _fmt(parse_timestamp(stamps[0]) - draw(st.sampled_from([1, 1000, _DAY_MS])))
            rows.insert(i + 1, [earlier, "1.1", "1.2"])
        else:
            rows[i][0] = draw(st.sampled_from(_BAD_TIMESTAMPS))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(",".join(r) for r in rows) + (eol if draw(st.booleans()) else "")
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode("utf-8"), bool(anomalies)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_tick_files())
def test_parse_ticks_matches_row_oracle(tmp_path, case):
    data, _ = case
    path = tmp_path / "ticks.csv"
    path.write_bytes(data)
    timestamps, mids, bids, asks, counts = parse_ticks_reference(path)
    with (
        _line_rule_spy() as seen,
        mock.patch.object(ingest, "open", wraps=open, create=True) as opened,
    ):
        if timestamps.size == 0:
            with pytest.raises(EmptySeriesError):
                parse_ticks(path, "EURUSD")
            return
        if not np.isfinite(mids).all():  # two huge quotes whose mid overflows
            bad = int(np.argmin(np.isfinite(mids)))
            with pytest.raises(ValueError, match=f"finite and positive, got inf at index {bad}$"):
                parse_ticks(path, "EURUSD")
            return
        result = parse_ticks(path, "EURUSD")
    # Only the lines that are not valid rows in the decoded byte layout reach
    # the per-line rule. The path is read once, so a pipe or a growing file
    # is parsed from one snapshot.
    assert seen == _line_rule_input(data)
    assert opened.call_count == 1
    assert np.array_equal(result.series.timestamps, timestamps)
    assert np.array_equal(result.series.prices, mids)
    s = result.summary
    assert (s.rows_read, s.rows_dropped_malformed, s.rows_dropped_out_of_order) == counts


_HUGE = "1.7976931348623157e308"


def test_mid_price_rejects_overflowing_mid():
    with pytest.raises(ValueError, match="overflows"):
        mid_price(float(_HUGE), float(_HUGE))
    assert mid_price(float(_HUGE), 1.0) == (float(_HUGE) + 1.0) / 2.0


@pytest.mark.parametrize("extra", ["", "garbage line\n"])  # without, with a line that fits no layout
def test_overflowing_mid_row_dropped_as_malformed(tmp_path, extra):
    text = (
        "20190701 000001000,1.10000,1.10020\n"
        f"20190701 000002000,{_HUGE},{_HUGE}\n"
        f"20190701 000003000,{_HUGE},1.1\n"
        "20190701 000004000,1.10010,1.10030\n"
    ) + extra
    path = tmp_path / "ticks.csv"
    path.write_text(text, encoding="utf-8")
    with _line_rule_spy() as seen:
        result = parse_ticks(path, "EURUSD")
    assert seen == text.splitlines()[1:3] + ["garbage line"] * bool(extra)
    timestamps, mids, bids, asks, counts = parse_ticks_reference(path)
    assert counts == (4 + bool(extra), 1 + bool(extra), 0)
    s = result.summary
    assert (s.rows_read, s.rows_dropped_malformed, s.rows_dropped_out_of_order) == counts
    assert np.array_equal(result.series.timestamps, timestamps)
    assert np.array_equal(result.series.prices, mids)
    assert np.isfinite(result.series.prices).all()


def test_only_overflowing_rows_is_empty(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_text(f"20190701 000001000,{_HUGE},{_HUGE}\n", encoding="utf-8")
    with pytest.raises(EmptySeriesError):
        parse_ticks(path, "EURUSD")


_GOOD_ROWS = ["20190701 000001000,1.10000,1.10020", "20190701 000002000,1.10010,1.10030,1", "20190701 000003000,1.1,1.2"]


@pytest.mark.parametrize(
    "line",
    ["timestamp,bid,ask", "", "   ", "20190701 000001500,1.1", "20190701 000000500,1.1,1.2"]
    + ["20190701 000001500,1.1,1.2\r20190701 000001600,1.1,1.2"]  # a bare CR ends a line
    + [f"20190701 000001500,{q},1.2" for q in _BAD_QUOTES]
    + [f"20190701 000001500,1.1,{q}" for q in _BAD_QUOTES]
    + [f"20190701 000001500,1.1,{q},0" for q in _BAD_QUOTES]
    + [f"{ts},1.1,1.2" for ts in _BAD_TIMESTAMPS],
)
@pytest.mark.parametrize("last", [False, True])
def test_anomalous_line_sends_file_to_row_parser(tmp_path, line, last):
    rows = _GOOD_ROWS + [line] if last else _GOOD_ROWS[:1] + [line] + _GOOD_ROWS[1:]
    path = tmp_path / "ticks.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    timestamps, mids, _, _, counts = parse_ticks_reference(path)
    with _line_rule_spy() as seen:
        result = parse_ticks(path, "EURUSD")
    assert seen == _line_rule_input(path.read_bytes())
    assert np.array_equal(result.series.timestamps, timestamps)
    assert np.array_equal(result.series.prices, mids)
    s = result.summary
    assert (s.rows_read, s.rows_dropped_malformed, s.rows_dropped_out_of_order) == counts


def test_years_below_1000_round_trip():
    # "%Y" leaves such a year unpadded on some platforms, which broke every writer.
    for text in ("00010101 000000000", "09991231 235959999"):
        ms = parse_timestamp(text)
        assert _stamps([ms]) == [text]
        assert stamp_text(np.array([ms])).tobytes() == text.encode("ascii")


@pytest.mark.parametrize("ms", [_MIN_MS - 1, _MAX_MS + 1, -800_000 * _DAY_MS])
def test_format_timestamps_refuses_a_date_outside_the_years_1_to_9999(ms):
    # No 17-digit field names such an instant, so none may be printed.
    with pytest.raises(OverflowError, match="date value out of range"):
        stamp_text(np.array([0, ms]))


def _fixed_width_rows(n=40, scale=1.0, columns=4):
    """Rows of fields, every field as wide on every row; the ticks cross two midnights."""
    rng = np.random.default_rng(1)
    stamps = parse_timestamp("20190630 200000000") + np.cumsum(rng.integers(0, 4_000_000, n))
    bids = scale * (1.1 + np.cumsum(rng.normal(0, 1e-4, n)))
    flags = rng.integers(0, 2, n)
    return [[_fmt(t), f"{b:.5f}", f"{b + 2e-4 * scale:.5f}", str(f)][:columns] for t, b, f in
            zip(stamps.tolist(), bids.tolist(), flags.tolist())]


def _write_rows(path, rows, eol="\n", bom=b"", final_eol=True):
    path.write_bytes(bom + (eol.join(",".join(r) for r in rows) + (eol if final_eol else "")).encode("utf-8"))


def _parse_with_spies(path):
    with _line_rule_spy() as seen:
        result = parse_ticks(path, "EURUSD")
    return result, seen


def _assert_matches_reference(result, path):
    timestamps, mids, _, _, counts = parse_ticks_reference(path)
    assert np.array_equal(result.series.timestamps, timestamps)
    assert np.array_equal(result.series.prices, mids)
    s = result.summary
    assert (s.rows_read, s.rows_dropped_malformed, s.rows_dropped_out_of_order) == counts


@pytest.mark.parametrize(
    "eol,bom,columns,scale",
    [("\n", b"", 3, 1.0), ("\r\n", b"", 3, 1.0), ("\n", b"\xef\xbb\xbf", 3, 1.0), ("\n", b"", 4, 1.0), ("\n", b"", 3, 0.5)],
    ids=["lf", "crlf", "bom", "fourth-column", "below-one"],
)
def test_fixed_width_file_skips_the_per_line_rule(tmp_path, eol, bom, columns, scale):
    path = tmp_path / "ticks.csv"
    _write_rows(path, _fixed_width_rows(scale=scale, columns=columns), eol=eol, bom=bom)
    result, seen = _parse_with_spies(path)
    assert seen == []
    _assert_matches_reference(result, path)


def _wider_row(rows):
    rows[5][3] = "10"


def _point_moved(rows):
    rows[5][1] = f"{float(rows[5][1]) * 10:.4f}"  # "11.0012" where the others read "1.10012"


def _plus_sign(rows):
    rows[5][2] = "+" + rows[5][2][:-1]


def _sixteen_digits(rows):
    for row in rows:
        row[1] = f"{float(row[1]):.15f}"


def _non_ascii_ignored_column(rows):
    for row in rows:
        row[3] = "00"
    rows[5][3] = "\u00e9"  # two bytes in UTF-8, as wide as "00"


def _tab_in_ignored_column(rows):
    rows[5][3] = "\t"  # no layout holds a byte at or below CR past the quotes


@pytest.mark.parametrize(
    "perturb,final_eol,n_read_by_line",
    [(_wider_row, True, 0), (_point_moved, True, 0), (_plus_sign, True, 1), (_sixteen_digits, True, 40),
     (None, False, 1), (_non_ascii_ignored_column, True, 1), (_tab_in_ignored_column, True, 1)],
    ids=["one-row-wider", "point-moved", "plus-sign", "sixteen-digits", "no-final-newline", "non-ascii-ignored",
         "tab-in-ignored-column"],
)
def test_fixed_width_perturbation_reads_only_misfit_lines_by_line(tmp_path, perturb, final_eol, n_read_by_line):
    # A perturbed line that still fits a layout of its own is decoded with
    # the lines that share it; only a line that fits none is read by the
    # per-line rule.
    rows = _fixed_width_rows()
    if perturb is not None:
        perturb(rows)
    path = tmp_path / "ticks.csv"
    _write_rows(path, rows, final_eol=final_eol)
    result, seen = _parse_with_spies(path)
    assert len(seen) == n_read_by_line
    assert seen == _line_rule_input(path.read_bytes())
    _assert_matches_reference(result, path)


def _two_lines_in_one_row(lines, width):
    # As wide together as one line, so the file still holds a whole number of lines of the first width.
    lines[5:6] = ["a" * 9, "b" * (width - 11)]


def _one_line_over_two_rows(lines, width):
    lines[5:7] = [lines[5] + "," + "x" * (width - 1)]


def _line_of_64_kib(lines, width):
    lines[5] += "," + "x" * 70_000


@pytest.mark.parametrize("reshape", [_two_lines_in_one_row, _one_line_over_two_rows, _line_of_64_kib, None],
                         ids=["two-lines-in-one-row", "one-line-over-two-rows", "line-of-64-kib", "bare-cr-endings"])
def test_line_structure_matches_reference(tmp_path, reshape):
    lines = [",".join(row) for row in _fixed_width_rows()]
    path = tmp_path / "ticks.csv"
    if reshape is None:
        path.write_bytes(("\r".join(lines) + "\r").encode())
    else:
        reshape(lines, len(lines[0]) + 1)
        _write_rows(path, [[line] for line in lines])
    result, seen = _parse_with_spies(path)
    _assert_matches_reference(result, path)
    assert seen == _line_rule_input(path.read_bytes())


def test_line_off_layout_in_a_long_run_alone_is_read_by_line(tmp_path):
    # The run is decoded a block at a time once its one layout is broken,
    # so only the line that breaks it is read by the per-line rule.
    rows = _fixed_width_rows(n=40_000)
    _plus_sign(rows[30_000:])
    path = tmp_path / "ticks.csv"
    _write_rows(path, rows + [["end of file"]])  # so the run ends before the last line
    result, seen = _parse_with_spies(path)
    assert seen == [",".join(rows[30_005]), "end of file"]
    _assert_matches_reference(result, path)


def test_junk_of_one_width_costs_no_decode_per_layout(tmp_path):
    # Lines that do not start like a row skip the split into layout parts,
    # so junk whose every line has a byte layout of its own is not decoded
    # one part at a time: only the whole file, its one block and the valid row.
    rng = np.random.default_rng(0)
    junk = np.frombuffer(b"0123456789.,x ", dtype=np.uint8)[rng.integers(0, 14, (2000, 36))]
    path = tmp_path / "ticks.csv"
    path.write_bytes(b"20190701 000001000,1.10000,1.10020,0\n" + b"".join(row.tobytes() + b"\n" for row in junk))
    with mock.patch.object(ingest, "_decode", wraps=ingest._decode) as decode:
        result, seen = _parse_with_spies(path)
    assert decode.call_count == 3
    assert seen == _line_rule_input(path.read_bytes())
    _assert_matches_reference(result, path)


def test_block_of_many_layouts_decodes_no_small_part(tmp_path):
    # Rows whose quote bytes vary split a block into thousands of byte
    # layouts, most of one line. Past 16 parts only parts of 64 lines or
    # more are decoded, and the other lines go through the per-line rule,
    # not through one whole-array decode per part.
    rng = np.random.default_rng(0)
    tails = np.frombuffer(b"0123456789.,x", dtype=np.uint8)[rng.integers(0, 13, (20_000, 17))]
    path = tmp_path / "ticks.csv"
    path.write_bytes(b"".join(b"20190701 000000000," + tail.tobytes() + b"\n" for tail in tails))
    with mock.patch.object(ingest, "_decode", wraps=ingest._decode) as decode:
        result, _ = _parse_with_spies(path)
    assert min(len(call.args[0]) for call in decode.call_args_list) >= 64
    _assert_matches_reference(result, path)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fixed_width_quotes_equal_float_of_their_text(tmp_path, data):
    # A mantissa of up to 15 digits over a power of ten is the float of the text.
    n_digits = data.draw(st.integers(1, 15))
    before = data.draw(st.integers(0, n_digits))
    point = before < n_digits or data.draw(st.booleans())
    n = data.draw(st.integers(1, 12))

    def quote():
        digits = data.draw(st.text("0123456789", min_size=n_digits, max_size=n_digits))
        return digits[:before] + "." + digits[before:] if point else digits

    stamps = [_fmt(parse_timestamp("20190701 000000000") + 1000 * i) for i in range(n)]
    rows = [[ts, quote(), quote()] for ts in stamps]
    path = tmp_path / "ticks.csv"
    _write_rows(path, rows, eol=data.draw(st.sampled_from(["\n", "\r\n"])))
    positive = all(float(q) > 0 for row in rows for q in row[1:])
    if not positive and all(float(row[1]) * float(row[2]) == 0 for row in rows):
        with pytest.raises(EmptySeriesError):
            parse_ticks(path, "EURUSD")
        return
    result, seen = _parse_with_spies(path)
    assert bool(seen) == (not positive)
    assert seen == _line_rule_input(path.read_bytes())
    _assert_matches_reference(result, path)


def test_parse_peak_memory_per_row(tmp_path):
    n = 100_000
    rng = np.random.default_rng(0)
    ts = parse_timestamp("20190701 000000000") + np.cumsum(rng.integers(0, 2_000, n))
    bids = 1.1 + np.cumsum(rng.normal(0, 1e-5, n))
    path = tmp_path / "ticks.csv"
    write_ticks(path, ts, bids, bids + 0.0002, rng.integers(0, 2, n))
    lines = path.read_bytes().splitlines(keepends=True)
    # One line in a hundred malformed: alternately one that fits no layout
    # and one in the common layout whose month is 13.
    damaged = [line if i % 100 != 50 else b"garbage line\n" if i % 200 == 50 else line[:4] + b"13" + line[6:]
               for i, line in enumerate(lines)]
    variants = {
        "fixed width": (b"".join(lines), n),
        "header": (b"timestamp,bid,ask,flag\n" + b"".join(lines), n),
        "1% malformed": (b"".join(damaged), n - n // 100),
    }
    for name, (data, kept) in variants.items():
        path.write_bytes(data)
        tracemalloc.start()
        try:
            result = parse_ticks(path, "EURUSD")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.series) == kept, name
        # Beyond the file's own bytes, at most 64 bytes per row at any moment.
        assert peak - len(data) <= 64 * n, (name, (peak - len(data)) / n)


def _series_spanning(start_ts: str, end_ts: str, n: int = 50) -> PriceSeries:
    t0 = parse_timestamp(start_ts)
    t1 = parse_timestamp(end_ts)
    ts = np.linspace(t0, t1, n).astype(np.int64)
    return PriceSeries("X", ts, np.full(n, 1.1))


def test_sliding_windows_count_jan19_to_oct20():
    series = _series_spanning("20190101 000000000", "20201031 235900000", n=2000)
    windows = sliding_windows(series)
    assert len(windows) == 21
    assert _fmt(windows[0].window_start_ms) == "20190101 000000000"
    assert _fmt(windows[-1].window_start_ms) == "20200901 000000000"
    assert _fmt(windows[-1].window_end_ms) == "20201101 000000000"


def test_empty_series_has_no_windows_to_cut():
    with pytest.raises(EmptySeriesError, match="cannot window an empty series"):
        sliding_windows(PriceSeries("X", np.array([], dtype=np.int64), np.array([])))


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
    assert _fmt(w.train_end_ms) == "20190801 000000000"
    i0, i_mid = w.train_range
    i_mid2, i1 = w.test_range
    assert i_mid == i_mid2 and i0 == 0 and i1 == len(series)
    assert series.timestamps[i_mid - 1] < w.train_end_ms <= series.timestamps[i_mid]


_LAST_MONTH = 9999 * 12 + 11  # December 9999, the last month a timestamp can name
_LEAP_FEBRUARIES = [y * 12 + 1 for y in (1600, 1900, 1968, 2000, 2020, 2024)]  # 1900 is not a leap year


@st.composite
def _window_cases(draw):
    """A sorted tick series over a span of months, with a window and stride."""
    first = draw(st.one_of(
        st.integers(1955 * 12, 1985 * 12),  # across the epoch
        st.builds(lambda m, back: m - back, st.sampled_from(_LEAP_FEBRUARIES), st.integers(0, 3)),
        st.integers(12, _LAST_MONTH),
    ))
    last = min(first + draw(st.integers(0, 30)), _LAST_MONTH)
    lo = month_start_ms_reference(first)
    hi = _MAX_MS if last == _LAST_MONTH else month_start_ms_reference(last + 1) - 1
    on_boundary = st.builds(
        lambda m, off: month_start_ms_reference(m) + off, st.integers(first, last), st.sampled_from([-1, 0, 0, 1])
    )
    ticks = draw(st.lists(st.one_of(st.integers(lo, hi), on_boundary), min_size=1, max_size=30))
    ticks = sorted(min(max(t, lo), hi) for t in ticks + [lo, hi][: draw(st.integers(0, 2))])
    return ticks, draw(st.integers(1, 13)), draw(st.integers(1, 13))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_window_cases())
@example(case=([parse_timestamp("20190715 120000000")], 1, 1))
@example(case=([parse_timestamp("99991201 000000000")], 1, 1))
def test_sliding_windows_match_datetime_reference(case):
    ticks, window_months, stride_months = case
    series = PriceSeries("X", np.array(ticks, dtype=np.int64), np.ones(len(ticks)))
    try:
        want = sliding_windows_reference(ticks, window_months, stride_months)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            sliding_windows(series, window_months, stride_months)
        assert str(info.value) == str(exc) == "year 10000 is out of range"
        return
    got = sliding_windows(series, window_months, stride_months)
    assert [dataclasses.astuple(w) for w in got] == want
    assert all(type(v) is int for w in got for v in (w.window_start_ms, w.window_end_ms, w.train_end_ms,
                                                       *w.train_range, *w.test_range))


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


def test_write_window_manifest_bytes_match_per_row_formula(tmp_path, monkeypatch):
    # Blocks of three rows, so the manifest spans several formatting blocks.
    monkeypatch.setattr(ingest, "FORMAT_BLOCK", 3)
    starts = [parse_timestamp(f"{year:04d}0101 000000000") for year in (1, 999, 2019, 2020, 2021, 2022, 9999)]
    windows = [WindowSplit(t, t + 59 * _DAY_MS + 1, t + 30 * _DAY_MS - 1, (0, 0), (0, 0)) for t in starts]
    path = tmp_path / "windows.csv"
    write_window_manifest(path, windows)
    expected = "window_id,window_start,window_end,train_end\n" + "".join(
        f"{i},{format_timestamp_reference(w.window_start_ms)},{format_timestamp_reference(w.window_end_ms)},"
        f"{format_timestamp_reference(w.train_end_ms)}\n"
        for i, w in enumerate(windows)
    )
    assert path.read_bytes() == expected.encode("ascii")
    write_window_manifest(path, [])
    assert path.read_bytes() == b"window_id,window_start,window_end,train_end\n"


# Quotes of every text path: forex quotes, ties at the fifth decimal and a
# few ulps either side, and values that go through format(): zero, signed
# zero, negatives, 1e5 and up, NaN and the infinities.
_TICK_QUOTES = [1.10005, 1.1, 0.00001, 99999.99999, 1.000015, 0.015625, float(np.nextafter(0.015625, 1)),
                float(np.nextafter(1.000015, 0)), 2.5e-6, 0.0, -0.0, -1.23456, 1e5, 1e10, 1e300, float("nan"),
                float("inf"), float("-inf"), 123.456785, 5e-324]


@pytest.mark.parametrize("with_flags", [False, True])
def test_write_ticks_bytes_match_per_row_formula(tmp_path, monkeypatch, with_flags):
    monkeypatch.setattr(ingest, "FORMAT_BLOCK", 3)
    n = len(_TICK_QUOTES)
    stamps = parse_timestamp("20190630 235959990") + np.arange(n, dtype=np.int64) * 3
    bids, asks = np.array(_TICK_QUOTES), np.array(_TICK_QUOTES[::-1])
    flags = np.array([0, 1, 12345] * n)[:n] if with_flags else None
    path = tmp_path / "ticks.csv"
    write_ticks(path, stamps, bids, asks, flags)
    rows = [f"{format_timestamp_reference(t)},{b:.5f},{a:.5f}" for t, b, a in zip(stamps.tolist(), bids, asks)]
    if with_flags:
        rows = [f"{row},{int(fl)}" for row, fl in zip(rows, flags)]
    assert path.read_bytes() == "".join(row + "\n" for row in rows).encode("ascii")
    write_ticks(path, [], [], [], [] if with_flags else None)
    assert path.read_bytes() == b""


def _near(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.inf if ulps > 0 else -np.inf))
    return x


_F5_SPECIAL = (
    [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e300, -1e300, 1e5, 1e10, 5e-324, 2.5e-6, 0.015625]
    + [99999.999995, 99999.99999, float(np.nextafter(1e5, 0)), -1.5, 123.456785]
)
_F5_VALUES = st.one_of(
    st.floats(0.5, 2.0).map(lambda x: round(x, 5)),
    # A few ulps from a tie at the fifth decimal.
    st.builds(lambda k, ulps: _near((k + 0.5) * 1e-5, ulps), st.integers(0, 10**10), st.integers(-4, 4)),
    st.floats(1e10, 1e300),
    st.floats(-2.0, 2.0),
    st.sampled_from(_F5_SPECIAL),
)


def _f5(values) -> list[str]:
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in _f5_text(np.array(values, dtype=np.float64))]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(values=st.lists(_F5_VALUES, min_size=1, max_size=40))
def test_f5_text_matches_format(values):
    assert _f5(values) == [format(v, ".5f") for v in values]


def test_f5_text_special_values():
    assert _f5(_F5_SPECIAL) == [format(v, ".5f") for v in _F5_SPECIAL]
