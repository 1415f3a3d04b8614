import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import event_rows, format_timestamp_reference, strategy_reference, trade_rows

from dcbacktest import ingest
from dcbacktest.dc import DcConfig, leg_rates, summarize
from dcbacktest.hmm import GaussianHmm, RegimeLabel
from dcbacktest.ingest import PriceSeries, _decimal_exponent, g10_text
from dcbacktest.pipeline import BacktestSettings, run_window
from dcbacktest.strategy import (
    DEFAULT_FIXED_THRESHOLDS,
    EquityCurve,
    Trades,
    run_strategy,
    write_equity,
    write_trades,
)


def _series(prices, gap_ms=1000):
    prices = np.asarray(prices, dtype=np.float64)
    ts = (np.arange(len(prices)) * gap_ms).astype(np.int64)
    return PriceSeries("X", ts, prices)


def _random_series(rng, n=4000, vol=2e-4, drift=0.0):
    prices = 1.1 * np.exp(np.cumsum(rng.normal(drift, vol, n)))
    ts = np.cumsum(rng.integers(200, 5000, n)).astype(np.int64)
    return PriceSeries("X", ts, prices)


def _always_normal_model():
    # Irrelevant parameters; used only where the regime is forced.
    return GaussianHmm(np.array([0.5, 0.5]), np.full((2, 2), 0.5), np.array([1e-5, 1e-4]), np.array([1e-12, 1e-10]))


def test_constant_series_no_trades():
    log, curve = run_strategy(_series(np.full(100, 1.5)), DcConfig(0.001, 0.5))
    assert trade_rows(log) == []
    assert curve.capital[0] == curve.capital[-1] == 10000.0


def test_hand_traced_fixture_buy_then_take_profit():
    prices = [1.0000, 1.0011, 1.0019, 1.0021, 1.0030]
    log, curve = run_strategy(_series(prices), DcConfig(0.001, 0.5))
    buy, sell = trade_rows(log)
    assert [(side, rule) for _, side, _, _, rule in (buy, sell)] == [("BUY", 1), ("SELL", 2)]
    assert buy[0] == 1000 and buy[2] == pytest.approx(1.0011)
    assert sell[0] == 3000 and sell[2] == pytest.approx(1.0021)
    assert sell[3] == pytest.approx(10009.99, abs=0.01)
    assert curve.capital[-1] == pytest.approx(10009.99, abs=0.01)


def test_downturn_exit_rule3():
    # Rise confirms an upturn and buys; the fall confirms a downturn and exits.
    prices = [1.0000, 1.0011, 1.0012, 1.0000]
    log, _ = run_strategy(_series(prices), DcConfig(0.001, 1.0))
    assert [(side, rule) for _, side, _, _, rule in trade_rows(log)] == [("BUY", 1), ("SELL", 3)]


def test_end_of_window_liquidation_flagged_rule0():
    prices = [1.0000, 1.0011, 1.0012]
    log, curve = run_strategy(_series(prices), DcConfig(0.001, 0.5))
    assert [(side, rule) for _, side, _, _, rule in trade_rows(log)] == [("BUY", 1), ("SELL", 0)]
    assert curve.capital[-1] == pytest.approx(10000.0 * 1.0012 / 1.0011)


def test_forced_abnormal_never_buys():
    rng = np.random.default_rng(0)
    series = _random_series(rng)
    log, curve = run_strategy(series, DcConfig(0.001, 0.5), force_regime=RegimeLabel.ABNORMAL)
    assert trade_rows(log) == []
    assert (curve.capital == 10000.0).all()


def test_ita_always_normal_equals_idc(tmp_path):
    rng = np.random.default_rng(1)
    series = _random_series(rng)
    cfg = DcConfig(0.0008, 0.4)
    log_idc, curve_idc = run_strategy(series, cfg)
    log_ita, curve_ita = run_strategy(series, cfg, force_regime=RegimeLabel.NORMAL)
    assert trade_rows(log_idc) == trade_rows(log_ita)
    assert np.array_equal(curve_idc.capital, curve_ita.capital)
    p1, p2 = tmp_path / "idc.csv", tmp_path / "ita.csv"
    write_trades(p1, log_idc)
    write_trades(p2, log_ita)
    assert p1.read_bytes() == p2.read_bytes()


def test_ita_requires_history():
    series = _series([1.0, 1.001, 1.002])
    for history in (None, []):
        with pytest.raises(ValueError, match="nonempty rdc history"):
            run_strategy(series, DcConfig(0.001, 0.5), regime_model=_always_normal_model(), rdc_history=history)


def test_trade_invariants_random_runs():
    rng = np.random.default_rng(2)
    for _ in range(10):
        series = _random_series(rng, n=3000)
        theta = float(rng.uniform(3e-4, 3e-3))
        alpha = float(rng.uniform(0.1, 1.0))
        log, curve = run_strategy(series, DcConfig(theta, alpha))
        rows = trade_rows(log)
        sides = [side for _, side, *_ in rows]
        # strict alternation, first is a buy
        for a, b in zip(sides, sides[1:]):
            assert a != b
        if sides:
            assert sides[0] == "BUY"
        # capital positive throughout; equity never records a short position
        assert (curve.capital > 0).all()
        # all-in / all-out bookkeeping: capital after a sell carries to next buy
        buys = [r for r in rows if r[1] == "BUY"]
        sells = [r for r in rows if r[1] == "SELL"]
        for sell, nxt in zip(sells, buys[1:]):
            assert nxt[3] == pytest.approx(sell[3])


def test_empty_series_yields_flat_nothing():
    empty = PriceSeries("X", np.array([], dtype=np.int64), np.array([]))
    log, curve = run_strategy(empty, DcConfig(0.001, 0.5))
    assert trade_rows(log) == [] and len(curve) == 0


def test_replay_determinism():
    rng = np.random.default_rng(3)
    series = _random_series(rng)
    cfg = DcConfig(0.0012, 0.6)
    a = run_strategy(series, cfg)
    b = run_strategy(series, cfg)
    assert trade_rows(a[0]) == trade_rows(b[0])
    assert np.array_equal(a[1].capital, b[1].capital)


def test_strategy_rdc_appends_match_summarize(monkeypatch):
    # The history ITA accumulates while trading must equal the offline
    # decomposition of the same series under the same thresholds.
    rng = np.random.default_rng(4)
    series = _random_series(rng, n=2000)
    cfg = DcConfig(0.0008, 0.5)
    snapshots: list[list[float]] = []

    def spy_predict(model, history):
        snapshots.append(list(history))
        return [RegimeLabel.NORMAL] * len(history)

    monkeypatch.setattr("dcbacktest.strategy.predict_regime", spy_predict)
    seeded = [5e-5]
    log, _ = run_strategy(series, cfg, regime_model=_always_normal_model(), rdc_history=seeded)
    assert seeded == [5e-5]  # caller's list untouched; the run uses a copy
    # One forward pass labels every prefix: a single call per run, however
    # many upturns the gate is read at.
    assert sum(side == "BUY" for _, side, *_ in trade_rows(log)) > 1
    assert len(snapshots) == 1

    _, extremes = event_rows(series.prices, *summarize(series, cfg))
    offline = leg_rates([i for i, _, _ in extremes], [p for _, p, _ in extremes], series.timestamps).value.tolist()
    history = snapshots[0]
    assert history[0] == 5e-5
    # the history holds every leg confirmed in the series, in order
    assert history[1:] == offline
    assert len(history) > 1


def _ft_window(train, test, thresholds=DEFAULT_FIXED_THRESHOLDS):
    """One window that runs only FT."""
    settings = BacktestSettings(
        seed=0, window_months=2, stride_months=1, theta_bounds=(0.0003, 0.003), alpha_bounds=(0.1, 1.0),
        iters=10, n_init=5, strategies=("FT",), fixed_thresholds=tuple(thresholds), hmm_max_iters=200,
        hmm_tol=1e-6, hmm_restarts=5, force_regime=None, initial_capital=10_000.0, jobs=1,
    )
    return run_window(0, train, test, settings)


def test_ft_suite_contract():
    rng = np.random.default_rng(5)
    series = _random_series(rng, n=2500)
    art = _ft_window(series.slice(0, 0), series, DEFAULT_FIXED_THRESHOLDS[::-1])
    # One run per threshold, in threshold order, each a symmetric ungated run.
    names = [f"FT_{t:g}" for t in sorted(DEFAULT_FIXED_THRESHOLDS)]
    assert list(art.trades) == names
    assert [r.strategy for r in art.rows[:-1]] == names
    for theta, name in zip(sorted(DEFAULT_FIXED_THRESHOLDS), names):
        log_direct, curve_direct = run_strategy(series, DcConfig(theta, 1.0))
        assert trade_rows(art.trades[name]) == trade_rows(log_direct)
        assert np.array_equal(art.curves[name].capital, curve_direct.capital)
    # The FT row, filed last, averages the per-threshold rows.
    *detail, ft = art.rows
    assert ft.strategy == "FT"
    assert ft.crr_pct == pytest.approx(np.mean([r.crr_pct for r in detail]))


def test_ft_suite_constant_series():
    series = _series(np.full(50, 1.0))
    art = _ft_window(series.slice(0, 0), series)
    assert len(art.trades) == 8
    assert all(trade_rows(log) == [] for log in art.trades.values())
    # An empty test half writes no FT files but still reports a flat row per threshold.
    empty = _ft_window(series, series.slice(0, 0))
    assert empty.trades == {} and empty.curves == {}
    assert [(r.crr_pct, r.trades) for r in empty.rows[:-1]] == [(0.0, 0.0)] * 8


def _log_tuples(log):
    return trade_rows(log)


@st.composite
def _quantized_series(draw):
    # 4-decimal prices make ties with running extremes common (and, with a
    # round theta and a trough at 1.0, ties with the confirmation threshold
    # and the profit target); gaps of zero make zero-elapsed legs common.
    steps = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=200))
    gaps = draw(st.lists(st.integers(0, 2), min_size=len(steps), max_size=len(steps)))
    prices = np.round(1.0 + np.cumsum(steps) * 1e-4, 4)
    return PriceSeries("X", np.cumsum(gaps).astype(np.int64) * 500, prices)


def _stub_gate(history):
    return history[-1] <= sorted(history)[len(history) // 2]


@pytest.mark.parametrize("flavor", ["IDC", "OPT_T", "ITA_normal", "ITA_abnormal", "ITA_gated"])
@settings(max_examples=120, deadline=None)
@given(
    series=_quantized_series(),
    theta=st.one_of(st.sampled_from([0.0005, 0.001, 0.0015, 0.002]), st.floats(1e-4, 3e-3)),
    alpha=st.floats(0.1, 1.0),
    record=st.booleans(),
)
def test_trade_log_matches_rescanning_oracle(flavor, series, theta, alpha, record):
    seed_history = [2e-6, 5e-6]
    kwargs = {"record_equity": record}
    gate = None
    if flavor == "OPT_T":
        alpha = 1.0
    elif flavor == "ITA_normal":
        kwargs["force_regime"] = RegimeLabel.NORMAL
    elif flavor == "ITA_abnormal":
        kwargs["force_regime"] = RegimeLabel.ABNORMAL
        gate = lambda history: False  # noqa: E731
    elif flavor == "ITA_gated":
        kwargs.update(regime_model=_always_normal_model(), rdc_history=seed_history)
        gate = _stub_gate
    calls: list[list[float]] = []
    reads: list[int] = []

    class _RecordingLabels:
        """Per-prefix labels that note which prefix each lookup reads."""

        def __init__(self, history):
            self.history = history

        def __len__(self):
            return len(self.history)

        def __getitem__(self, i):
            assert 0 <= i < len(self.history)
            reads.append(i)
            prefix = self.history[: i + 1]
            return RegimeLabel.NORMAL if _stub_gate(prefix) else RegimeLabel.ABNORMAL

    def stub_predict(model, history):
        calls.append(list(history))
        return _RecordingLabels(list(history))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("dcbacktest.strategy.predict_regime", stub_predict)
        log, curve = run_strategy(series, DcConfig(theta, alpha), **kwargs)
    ref_log, (ref_ts, ref_cap), ref_queries = strategy_reference(
        series.prices, series.timestamps, theta, alpha, gate=gate, history=seed_history, record_equity=record
    )
    assert _log_tuples(log) == ref_log
    assert curve.timestamps.tobytes() == ref_ts.tobytes()
    assert curve.capital.tobytes() == ref_cap.tobytes()
    if flavor == "ITA_gated":
        assert len(calls) == 1
        assert [calls[0][: i + 1] for i in reads] == ref_queries
    else:
        assert calls == []


def test_take_profit_waits_for_a_strict_new_high():
    # Tick 1 confirms the upturn at 1.0025, already above the 1.002 target.
    # The sale needs a new high: the tie at tick 2 and the dip at tick 3
    # do not qualify; tick 4 does.
    prices = [1.0000, 1.0025, 1.0025, 1.0024, 1.0026]
    log, _ = run_strategy(_series(prices), DcConfig(0.001, 0.5))
    rows = trade_rows(log)
    assert [(ms, side, rule) for ms, side, _, _, rule in rows] == [(1000, "BUY", 1), (4000, "SELL", 2)]
    assert rows[1][2] == 1.0026


def test_threshold_and_target_ties_count_as_reached():
    # 1.001 equals 1.0 * (1 + theta) and 1.002 equals (1 + 2 theta) * 1.0
    # exactly in floating point.
    prices = [1.0, 1.001, 1.002]
    log, _ = run_strategy(_series(prices), DcConfig(0.001, 0.5))
    assert [(ms, side, rule) for ms, side, _, _, rule in trade_rows(log)] == [(1000, "BUY", 1), (2000, "SELL", 2)]


def test_buy_on_last_tick_liquidates_at_same_timestamp():
    prices = [1.0000, 1.0000, 1.0011]
    log, curve = run_strategy(_series(prices), DcConfig(0.001, 0.5))
    rows = trade_rows(log)
    assert [(ms, side, rule) for ms, side, _, _, rule in rows] == [(2000, "BUY", 1), (2000, "SELL", 0)]
    assert curve.timestamps.tolist() == [0, 2000]
    assert curve.capital[-1] == rows[1][3]


def test_neutral_start_tick_crossing_both_thresholds_is_a_downturn():
    # theta below float resolution makes both multipliers exactly 1.0, so
    # the repeated price at tick 1 crosses both thresholds. The downturn
    # wins; the upturn comes at tick 2, which is also the last tick.
    cfg = DcConfig(1e-16, 0.5)
    series = _series([1.0, 1.0, 1.0])
    events, _ = event_rows(series.prices, *summarize(series, cfg))
    assert [(kind, start, end) for kind, start, end, _, _ in events] == [
        ("DownturnDC", 0, 1),
        ("UpturnDC", 1, 2),
    ]
    log, _ = run_strategy(series, cfg)
    assert [(ms, side, rule) for ms, side, _, _, rule in trade_rows(log)] == [(2000, "BUY", 1), (2000, "SELL", 0)]


def test_write_trades_bytes_match_per_row_formula(tmp_path, monkeypatch):
    # Blocks of three timestamps, so the log spans several formatting blocks.
    monkeypatch.setattr(ingest, "FORMAT_BLOCK", 3)
    rng = np.random.default_rng(4)
    stamps = (np.cumsum(rng.integers(0, 3 * 86_400_000, 10)) + 1561939200000).reshape(5, 2)
    stamps[4, 1] = stamps[4, 0]  # a buy and its sale at the same timestamp
    trades = Trades(
        stamps[:, 0], rng.uniform(0.5, 2.0, 5), stamps[:, 1], rng.uniform(0.5, 2.0, 5),
        np.array([2, 3, 2, 3, 0]), rng.uniform(1e3, 1e5, 6),
    )
    path = tmp_path / "trades.csv"
    write_trades(path, trades)
    expected = "timestamp,side,price,capital_after,rule\n" + "".join(
        f"{format_timestamp_reference(ms)},{side},{price:.10g},{capital:.10g},{rule}\n"
        for ms, side, price, capital, rule in trade_rows(trades)
    )
    assert path.read_bytes() == expected.encode("utf-8")
    assert [line.rsplit(",", 1)[1] for line in expected.splitlines()[1:]] == list("1213121310")
    index, value = np.empty(0, dtype=np.int64), np.empty(0)
    write_trades(path, Trades(index, value, index, value, index, np.array([10_000.0])))
    assert path.read_bytes() == b"timestamp,side,price,capital_after,rule\n"


def _g10(values) -> list[str]:
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in g10_text(np.array(values, dtype=np.float64))]


def _near(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.inf if ulps > 0 else -np.inf))
    return x


_POWERS = [float(10**k) for k in range(-1, 12)]
_G10_SPECIAL = (
    _POWERS
    + [float(np.nextafter(p, d)) for p in _POWERS for d in (0.0, np.inf)]
    + [9999999999.5, 9999999999.4999998, 1000000000.5, 1234567890.5, 1234567891.5, 2.5, 0.5, 1.5e-7]
    + [-1.5, -12345.678901234, 0.0, -0.0, 5e-324, 2.2250738585072014e-308, -1.234567891e-308]
    + [float("nan"), float("inf"), float("-inf"), 1.7976931348623157e308]
)
_G10_VALUES = st.one_of(
    st.floats(0.5, 2e10),
    st.floats(-6, 12).map(lambda p: 10.0**p),
    # A few ulps from a tie at the tenth significant digit.
    st.builds(lambda k, e, ulps: _near((k + 0.5) * 10.0 ** (e - 9), ulps),
              st.integers(10**9, 10**10 - 1), st.integers(0, 9), st.integers(-4, 4)),
    st.sampled_from(_G10_SPECIAL),
)


@settings(max_examples=1000, deadline=None)
@given(values=st.lists(_G10_VALUES, min_size=1, max_size=40))
def test_g10_text_matches_format(values):
    assert _g10(values) == [format(v, ".10g") for v in values]


def test_g10_text_special_values():
    assert _g10(_G10_SPECIAL) == [format(v, ".10g") for v in _G10_SPECIAL]


def test_decimal_exponent_is_exact_next_to_powers_of_ten():
    # log10 rounds up to k just below 10**k; the comparisons do not.
    values = [v for k in range(1, 10) for v in (float(np.nextafter(10.0**k, 0)), 10.0**k)]
    values += np.random.default_rng(0).uniform(1, 1e10, 1000).tolist()
    assert _decimal_exponent(np.array(values)).tolist() == [len(str(int(v))) - 1 for v in values]


def test_write_equity_bytes_match_per_row_formula(tmp_path, monkeypatch):
    # Blocks of three rows, so the curve spans several formatting blocks.
    monkeypatch.setattr(ingest, "FORMAT_BLOCK", 3)
    rng = np.random.default_rng(5)
    stamps = np.cumsum(rng.integers(0, 3 * 86_400_000, 11)) + 1561939200000
    capital = np.array([10000.0, 10000.00001, 9999.999999999998, 12345.6789012345, 1e10, -3.5,
                        float("nan"), 0.001, 1234567890.5, 99999.99999, 1.0])
    path = tmp_path / "equity.csv"
    write_equity(path, EquityCurve(stamps, capital))
    expected = "timestamp,capital\n" + "".join(
        f"{format_timestamp_reference(t)},{c:.10g}\n" for t, c in zip(stamps.tolist(), capital.tolist())
    )
    assert path.read_bytes() == expected.encode("ascii")
    write_equity(path, EquityCurve(np.empty(0, dtype=np.int64), np.empty(0)))
    assert path.read_bytes() == b"timestamp,capital\n"
