"""Metamorphic relations of the whole backtest (Chen et al., ACM CSUR 2018).

Each test runs ``run_backtest`` on a feed and on a transformed copy whose
effect on every output is known exactly, then undoes that effect on the
second run's outputs and asks for equality with the first run's.
"""
from __future__ import annotations

from datetime import datetime, timezone

from oracles import trade_rows

from dcbacktest import synthetic
from dcbacktest.ingest import PriceSeries
from dcbacktest.pipeline import BacktestOutputs, BacktestSettings, run_backtest
from dcbacktest.strategy import DEFAULT_FIXED_THRESHOLDS, INITIAL_CAPITAL, STRATEGIES

DAY_MS = 86_400_000


def _series(start: datetime, quote_scale: float = 1.0) -> PriceSeries:
    ticks = synthetic.generate_ticks(seed=20190701, months=3, start=start)
    return PriceSeries("SYN", ticks.timestamps_ms, (quote_scale * ticks.bids + quote_scale * ticks.asks) / 2.0)


def _run(series: PriceSeries, initial_capital: float = INITIAL_CAPITAL) -> BacktestOutputs:
    settings = BacktestSettings(
        seed=7, window_months=2, stride_months=1, theta_bounds=(0.0003, 0.003), alpha_bounds=(0.1, 1.0),
        iters=12, n_init=4, strategies=STRATEGIES, fixed_thresholds=DEFAULT_FIXED_THRESHOLDS,
        hmm_max_iters=200, hmm_tol=1e-6, hmm_restarts=5, force_regime=None,
        initial_capital=initial_capital, jobs=1,
    )
    return run_backtest(series, settings)


def _undone(out: BacktestOutputs, capital_scale: float = 1.0, shift_ms: int = 0, price_scale: float = 1.0):
    """``out`` as plain values, every capital divided by ``capital_scale``,
    every trade price by ``price_scale`` and ``shift_ms`` taken off every
    timestamp (all exact)."""

    def curve(c):
        return (c.timestamps - shift_ms).tolist(), (c.capital / capital_scale).tolist()

    def model(m):
        if m is None:
            return None
        return [a.tolist() for a in (m.initial_probs, m.transitions, m.emission_means, m.emission_vars)]

    def trades(log):
        return [
            (ms - shift_ms, side, price / price_scale, capital / capital_scale, rule)
            for ms, side, price, capital, rule in trade_rows(log)
        ]

    windows = [
        ([t - shift_ms for t in (w.window_start_ms, w.window_end_ms, w.train_end_ms)], w.train_range, w.test_range)
        for w in out.windows
    ]
    artifacts = [
        (
            art.window_id, art.rows, art.trials, art.params, model(art.regime_model),
            {name: trades(log) for name, log in art.trades.items()},
            {name: curve(c) for name, c in art.curves.items()},
        )
        for art in out.artifacts
    ]
    return windows, artifacts, out.report, {name: curve(c) for name, c in out.chained_equity.items()}


def _assert_nontrivial(out: BacktestOutputs) -> None:
    assert len(out.windows) == 2
    assert all(art.regime_model is not None for art in out.artifacts)
    assert all(any(trade_rows(art.trades[name]) for art in out.artifacts) for name in ("OPT_T", "IDC", "ITA"))


def test_doubled_capital_doubles_every_capital_and_changes_nothing_else():
    series = _series(datetime(2019, 1, 1, tzinfo=timezone.utc))
    base = _run(series)
    doubled = _run(series, 2 * INITIAL_CAPITAL)
    _assert_nontrivial(base)
    assert _undone(doubled, capital_scale=2.0) == _undone(base)


def test_calendar_shift_moves_every_timestamp_and_changes_nothing_else():
    # 2019-01-01 to 2021-01-01 spans 731 days, and the three months from
    # either start have the same lengths, so the feed's ticks move as a block.
    base = _run(_series(datetime(2019, 1, 1, tzinfo=timezone.utc)))
    shifted = _run(_series(datetime(2021, 1, 1, tzinfo=timezone.utc)))
    _assert_nontrivial(base)
    assert _undone(shifted, shift_ms=731 * DAY_MS) == _undone(base)


def test_doubled_quotes_double_every_trade_price_and_change_nothing_else():
    # Doubling is exact, so every mid doubles bit for bit; each DC threshold
    # and each return rate is a ratio of prices, and units times price keeps
    # the capital.
    start = datetime(2019, 1, 1, tzinfo=timezone.utc)
    base = _run(_series(start))
    doubled = _run(_series(start, quote_scale=2.0))
    _assert_nontrivial(base)
    assert _undone(doubled, price_scale=2.0) == _undone(base)
