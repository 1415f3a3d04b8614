"""Event-driven trading over a directional-change stream.

One long-only rule serves all four strategy flavors, and a single
``dc_pass`` over the series holds every tick it trades at. A round trip
buys all-in at an upturn confirmation whose regime gate passes and sells at
that uptrend's take-profit tick (its first new high at or above
``(1 + 2 * theta) * trough``; a new high is strictly above every earlier
tick of the uptrend, so the confirmation tick never qualifies), else at the
next downturn confirmation, else at the last tick. ``run_strategy`` selects
these round trips from the pass with numpy. The gate is consulted only
before a buy; ITA's reads the online regime labels of one forward pass over
the history, made once per run.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dc import DcConfig, JumpIndex, dc_pass, leg_rates
from .hmm import GaussianHmm, RegimeLabel, predict_regime
from .ingest import PriceSeries, stamp_text, write_csv

__all__ = [
    "STRATEGIES",
    "Trades",
    "EquityCurve",
    "DEFAULT_FIXED_THRESHOLDS",
    "INITIAL_CAPITAL",
    "run_strategy",
    "write_trades",
    "write_equity",
]

# The four strategies, in report order: fixed symmetric thresholds (FT), an
# optimized symmetric threshold (OPT_T), optimized asymmetric thresholds
# (IDC) and IDC with regime-gated buys (ITA).
STRATEGIES = ("FT", "OPT_T", "IDC", "ITA")
DEFAULT_FIXED_THRESHOLDS = (0.0003, 0.0005, 0.0008, 0.001, 0.0015, 0.002, 0.0025, 0.003)
INITIAL_CAPITAL = 10_000.0

RULE_LIQUIDATE = 0
RULE_BUY = 1
RULE_TAKE_PROFIT = 2
RULE_DOWNTURN_EXIT = 3


class Trades(NamedTuple):
    """One row per round trip, in series order, with its sale's ``RULE_*``
    code. ``capital[k]`` is held before buy k and ``capital[k + 1]`` after
    sale k, so ``capital`` has one more entry than there are rows."""

    buy_ms: np.ndarray
    buy_price: np.ndarray
    sell_ms: np.ndarray
    sell_price: np.ndarray
    sell_rule: np.ndarray
    capital: np.ndarray


@dataclass
class EquityCurve:
    """Capital over time; points recorded where capital can change."""

    timestamps: np.ndarray
    capital: np.ndarray

    def __len__(self) -> int:
        return int(self.timestamps.size)


def run_strategy(
    series: PriceSeries,
    config: DcConfig,
    regime_model: GaussianHmm | None = None,
    rdc_history: Sequence[float] | None = None,
    initial_capital: float = INITIAL_CAPITAL,
    force_regime: RegimeLabel | None = None,
    record_equity: bool = True,
    index: JumpIndex | None = None,
) -> tuple[Trades, EquityCurve]:
    """Run one strategy over a series, returning its round trips and equity.

    With a ``regime_model`` (ITA) each upturn confirmation is gated on the
    regime label of ``rdc_history`` followed by the ``leg_rates`` rows of
    every leg confirmed so far; one ``predict_regime`` call labels every
    such prefix. ``force_regime`` overrides every such label. With neither, the regime is always normal.
    Any position still open at series end is liquidated at the final price
    and flagged with rule 0.

    With ``record_equity`` the curve holds the first tick, every tick from
    a buy through its sale, and the last tick if not already there;
    otherwise just the first and last ticks. ``index``, the ``jump_index``
    of the series' prices, is passed on to ``dc_pass``.
    """
    n = len(series)
    capital = [float(initial_capital)]
    if n == 0:
        index, value = np.empty(0, dtype=np.int64), np.empty(0)
        return Trades(index, value, index, value, index, np.array(capital)), EquityCurve(index, value)

    query = regime_model is not None and force_regime is None
    if query and (rdc_history is None or len(rdc_history) == 0):
        raise ValueError("ITA requires a nonempty rdc history")

    prices, ts = series.prices, series.timestamps
    legs = dc_pass(prices, config, index)
    upturns = np.flatnonzero(legs.upturn)
    if query:
        # Confirmation k fixes extreme k, closing the leg ``kept[k - 1]``
        # describes; the gate there reads labels[last[k]], the regime after
        # the seed history and every kept leg closed so far.
        rates = leg_rates(legs.extreme, legs.extreme_price, ts)
        history = np.concatenate((np.asarray(rdc_history, dtype=np.float64), rates.value))
        labels = predict_regime(regime_model, history)
        last = (len(rdc_history) - 1 + np.concatenate(([0], np.cumsum(rates.kept))))[upturns].tolist()
        upturns = upturns[np.array([labels[i] is RegimeLabel.NORMAL for i in last], dtype=bool)]
    elif force_regime not in (None, RegimeLabel.NORMAL):
        upturns = upturns[:0]

    # Upturn k sells at its take-profit tick, else at confirmation k + 1 (a
    # downturn), else at the last tick.
    confirm = np.asarray(legs.confirm, dtype=np.intp)
    take_profit = np.asarray(legs.take_profit, dtype=np.intp)[upturns]
    buy = confirm[upturns]
    at_target = take_profit >= 0
    sell = np.where(at_target, take_profit, np.append(confirm[1:], n - 1)[upturns])
    rule = np.select([at_target, upturns + 1 == len(confirm)], [RULE_TAKE_PROFIT, RULE_LIQUIDATE], RULE_DOWNTURN_EXIT)
    for p_buy, p_sell in zip(prices[buy].tolist(), prices[sell].tolist()):
        capital.append(capital[-1] / p_buy * p_sell)  # all-in: units = capital / p_buy
    trades = Trades(ts[buy], prices[buy], ts[sell], prices[sell], rule, np.array(capital))

    eq_ts = [ts[:1]]
    eq_cap = [trades.capital[:1]]
    if record_equity and buy.size:
        # Every tick of each held range [buy, sell], valued at that trip's units.
        held = sell - buy + 1
        ticks = np.arange(held.sum()) + np.repeat(buy - (np.cumsum(held) - held), held)
        eq_ts.append(ts[ticks])
        eq_cap.append(np.repeat(trades.capital[:-1] / trades.buy_price, held) * prices[ticks])
    # A recorded point at the last timestamp already holds the final capital.
    if not record_equity or eq_ts[-1][-1] != ts[-1]:
        eq_ts.append(ts[-1:])
        eq_cap.append(trades.capital[-1:])
    return trades, EquityCurve(np.concatenate(eq_ts), np.concatenate(eq_cap))


def write_trades(path: str | os.PathLike, trades: Trades) -> None:
    """Write a ``BUY`` row and a ``SELL`` row per round trip."""
    buy_rule = np.full_like(trades.sell_rule, RULE_BUY)
    pairs = ((trades.buy_ms, trades.sell_ms), (trades.buy_price, trades.sell_price),
             (trades.capital[:-1], trades.capital[1:]), (buy_rule, trades.sell_rule))
    ms, price, capital, rule = (np.column_stack(pair).ravel() for pair in pairs)  # buy k, then sale k
    side = np.tile(np.array([b"BUY", b"SELL"]), trades.buy_ms.size)
    write_csv(path, "timestamp,side,price,capital_after,rule", [(ms, stamp_text), side, price, capital, rule])


def write_equity(path: str | os.PathLike, curve: EquityCurve) -> None:
    """Write ``timestamp,capital`` rows, capital as ``.10g``."""
    write_csv(path, "timestamp,capital", [(curve.timestamps, stamp_text), curve.capital])
