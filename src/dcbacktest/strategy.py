"""Event-driven trading over a directional-change stream.

One long-only rule serves all four strategy flavors. It reads the legs of a
single ``dc_pass`` over the series rather than walking ticks: buy all-in at
an upturn confirmation (regime permitting); sell at that uptrend's first new
high at or above ``(1 + 2 * theta) * trough`` (a new high is strictly above
every earlier tick of the uptrend, so the confirmation tick itself never
qualifies); otherwise sell at the next downturn confirmation; otherwise
liquidate at the last tick. Regime gating is consulted only before a buy;
it never forces an exit. ITA's gate reads the online regime labels of one
forward pass over the history, made once per run.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dc import DcConfig, dc_pass, leg_rates
from .hmm import GaussianHmm, RegimeLabel, predict_regime
from .ingest import PriceSeries, format_timestamps

__all__ = [
    "STRATEGIES",
    "TradeEntry",
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


@dataclass(frozen=True)
class TradeEntry:
    timestamp_ms: int
    side: str  # "BUY" or "SELL"
    price: float
    capital_after: float
    rule: int


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
) -> tuple[list[TradeEntry], EquityCurve]:
    """Run one strategy over a series, returning the trade log and equity.

    With a ``regime_model`` (ITA) each upturn confirmation is gated on the
    regime label of ``rdc_history`` followed by the ``leg_rates`` rows of
    every leg confirmed so far; one ``predict_regime`` call labels every
    such prefix. ``force_regime`` overrides every such label. With neither, the regime is always normal.
    Any position still open at series end is liquidated at the final price
    and flagged with rule 0.

    With ``record_equity`` the curve holds the first tick, every tick from
    a buy through its sale, and the last tick if not already there;
    otherwise just the first and last ticks.
    """
    n = len(series)
    if n == 0:
        return [], EquityCurve(np.empty(0, dtype=np.int64), np.empty(0))

    query = regime_model is not None and force_regime is None
    if query:
        if rdc_history is None or len(rdc_history) == 0:
            raise ValueError("ITA requires a nonempty rdc history")

    prices = series.prices
    ts = series.timestamps
    legs = dc_pass(prices, config)
    n_legs = len(legs.confirm)
    if query:
        # Confirmation k fixes extreme k, closing the leg ``kept[k - 1]``
        # describes; the gate there reads labels[last[k]], the regime after
        # the seed history and every kept leg closed so far.
        rates = leg_rates(legs.extreme, legs.extreme_price, ts)
        history = np.concatenate((np.asarray(rdc_history, dtype=np.float64), rates.value))
        labels = predict_regime(regime_model, history)
        last = (len(rdc_history) - 1 + np.concatenate(([0], np.cumsum(rates.kept)))).tolist()

    capital = float(initial_capital)
    trades: list[TradeEntry] = []
    eq_ts = [ts[:1]]
    eq_cap = [np.array([capital])]
    for k in range(n_legs):
        if not legs.upturn[k]:
            continue
        if force_regime is not None:
            label = force_regime
        elif query:
            label = labels[last[k]]
        else:
            label = RegimeLabel.NORMAL
        if label is not RegimeLabel.NORMAL:
            continue
        c = legs.confirm[k]
        p = float(prices[c])
        units = capital / p
        trades.append(TradeEntry(int(ts[c]), "BUY", p, capital, RULE_BUY))
        s, rule = legs.take_profit[k], RULE_TAKE_PROFIT
        if s < 0:
            s, rule = (legs.confirm[k + 1], RULE_DOWNTURN_EXIT) if k + 1 < n_legs else (n - 1, RULE_LIQUIDATE)
        if record_equity:
            eq_ts.append(ts[c : s + 1])
            eq_cap.append(units * prices[c : s + 1])
        p = float(prices[s])
        capital = units * p
        trades.append(TradeEntry(int(ts[s]), "SELL", p, capital, rule))

    # A recorded point at the last timestamp already holds the final capital.
    if not record_equity or eq_ts[-1][-1] != ts[-1]:
        eq_ts.append(ts[-1:])
        eq_cap.append(np.array([capital]))
    return trades, EquityCurve(np.concatenate(eq_ts), np.concatenate(eq_cap))


def write_trades(path: str | os.PathLike, trades: Sequence[TradeEntry]) -> None:
    stamps = format_timestamps([t.timestamp_ms for t in trades])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,side,price,capital_after,rule\n")
        for stamp, t in zip(stamps, trades):
            fh.write(f"{stamp},{t.side},{t.price:.10g},{t.capital_after:.10g},{t.rule}\n")


def write_equity(path: str | os.PathLike, curve: EquityCurve) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,capital\n")
        for ts, cap in zip(format_timestamps(curve.timestamps), curve.capital.tolist()):
            fh.write(f"{ts},{cap:.10g}\n")
