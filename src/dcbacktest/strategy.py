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

from . import ingest
from .dc import DcConfig, dc_pass, leg_rates
from .hmm import GaussianHmm, RegimeLabel, predict_regime
from .ingest import PriceSeries, digit_table, format_timestamps, put_items, stamp_columns

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
    otherwise just the first and last ticks.
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
    legs = dc_pass(prices, config)
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
    stamps = format_timestamps(np.stack((trades.buy_ms, trades.sell_ms), axis=1).ravel())
    cap = trades.capital.tolist()
    rows = zip(trades.buy_price.tolist(), cap, trades.sell_price.tolist(), cap[1:], trades.sell_rule.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,side,price,capital_after,rule\n")
        for p_buy, before, p_sell, after, rule in rows:
            fh.write(f"{next(stamps)},BUY,{p_buy:.10g},{before:.10g},{RULE_BUY}\n")
            fh.write(f"{next(stamps)},SELL,{p_sell:.10g},{after:.10g},{rule}\n")


# 10**1 .. 10**9, and 10**(9 - e) for e = 0 .. 9: exact floats.
_POW10 = np.array([10**k for k in range(1, 10)], dtype=np.float64)
_TO_TEN_DIGITS = np.array([10 ** (9 - e) for e in range(10)], dtype=np.float64)
# The scaled value below carries one rounding, at most half an ulp of a
# number under 1e10 (< 1e-6); one this far from a half-integer rounds to the
# same integer as the exact product does.
_TIE_BAND = 1e-5
# A value's ten digits sit at even text slots, each followed by a point;
# _G10_SHOWN[10 * e + last] marks the slots shown for decimal exponent e when
# digit ``last`` is the last nonzero one: the digits up to the later of the
# two, and the point after digit e if a nonzero digit follows it.
_G10_SLOTS = 20  # also holds the longest ``format(x, ".10g")``, "-1.234567891e-308"
_DIGIT_POINT = np.array([f"{d}.".encode("ascii") for d in range(10)])
_DIGITS_POINTS3 = np.full((1000, 6), ord("."), dtype=np.uint8)  # row g: "d.d.d." for the digits of g
_DIGITS_POINTS3[:, ::2] = digit_table(3)
_DIGITS_POINTS3 = _DIGITS_POINTS3.view("S6")[:, 0]
_TRAILING_ZEROS3 = sum(np.arange(1000) % 10**k == 0 for k in (1, 2, 3))  # of g as three digits: 3 for 0


def _g10_shown_table() -> np.ndarray:
    table = np.zeros((10, 10, _G10_SLOTS), dtype=np.uint8)
    for e in range(10):
        for last in range(10):
            table[e, last, 0 : 2 * max(e, last) + 1 : 2] = 1
            table[e, last, 2 * e + 1] = last > e
    return table.reshape(100, _G10_SLOTS).view(f"V{_G10_SLOTS}")[:, 0]


_G10_SHOWN = _g10_shown_table()


def _decimal_exponent(x: np.ndarray) -> np.ndarray:
    """``floor(log10(v))`` of each value in [1, 1e10), found by exact
    comparisons with 10**1 .. 10**9 (0 below 10, 9 from 1e9 up)."""
    return np.searchsorted(_POW10, x, side="right")


def _g10_text(x: np.ndarray) -> np.ndarray:
    """``format(v, ".10g")`` of each value of ``x`` as a row of 20 bytes,
    which holds the text once its NUL bytes are dropped.

    A value in [1, 1e10) whose ten-digit rounding is not near a tie is
    written from its digits: its decimal exponent ``e`` comes from exact
    comparisons with 10**1 .. 10**9, and ``rint(x * 10**(9 - e))`` holds its
    ten significant digits, shown with the point after ``e + 1`` of them and
    without trailing zeros or a bare point. Any other value goes through
    ``format``.
    """
    e = _decimal_exponent(x)
    with np.errstate(invalid="ignore"):  # inf and NaN go to format() below
        y = x * _TO_TEN_DIGITS[e]
        fast = (x >= 1.0) & (x < 1e10) & (np.abs(y - np.floor(y) - 0.5) > _TIE_BAND)
        mantissa = np.rint(y)
        fast &= mantissa < 1e10
    mantissa = np.where(fast, mantissa, 1e9).astype(np.int64)
    # Digit 0, then three groups of three digits.
    head, rest = np.divmod(mantissa, 1_000_000_000)
    groups = (rest // 1_000_000, rest // 1000 % 1000, rest % 1000)
    text = np.empty((x.size, _G10_SLOTS), dtype=np.uint8)
    put_items(text, 0, _DIGIT_POINT, head)
    for k, group in enumerate(groups):
        put_items(text, 2 + 6 * k, _DIGITS_POINTS3, group)
    zeros = np.take(_TRAILING_ZEROS3, groups[2]) + (groups[2] == 0) * (
        np.take(_TRAILING_ZEROS3, groups[1]) + (groups[1] == 0) * np.take(_TRAILING_ZEROS3, groups[0])
    )
    shown = np.empty_like(text)
    put_items(shown, 0, _G10_SHOWN, e * 10 + (9 - zeros))
    text *= shown
    for i in np.flatnonzero(~fast).tolist():
        row = format(float(x[i]), ".10g").encode("ascii").ljust(_G10_SLOTS, b"\0")
        text[i] = np.frombuffer(row, dtype=np.uint8)
    return text


def write_equity(path: str | os.PathLike, curve: EquityCurve) -> None:
    """Write ``timestamp,capital`` rows, capital as ``.10g``, a block of rows at a time."""
    with open(path, "wb") as fh:
        fh.write(b"timestamp,capital\n")
        for lo in range(0, len(curve), ingest.FORMAT_BLOCK):
            ms = curve.timestamps[lo : lo + ingest.FORMAT_BLOCK]
            lines = np.empty((ms.size, 18 + 1 + _G10_SLOTS + 1), dtype=np.uint8)
            stamp_columns(ms, lines)
            lines[:, 18] = ord(",")
            lines[:, 19:-1] = _g10_text(curve.capital[lo : lo + ingest.FORMAT_BLOCK])
            lines[:, -1] = ord("\n")
            fh.write(lines.tobytes().translate(None, b"\0"))
