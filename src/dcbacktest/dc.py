"""Directional-change decomposition under asymmetric thresholds.

A price stream is split into alternating up/down trends. An upturn is
confirmed at the first tick rising ``theta`` above the running low of the
preceding downtrend; a downturn at the first tick falling ``alpha * theta``
below the running high of the preceding uptrend. Confirmations fix the
preceding extreme retroactively. Event index ranges tile the series:
``[trough, up_conf] [up_conf+1, peak-1] [peak, down_conf] ...`` with the
overshoot interval absent whenever it would be empty.

``dc_pass`` is the only loop over ticks: one pass that lists every
confirmation with its extreme, plus each uptrend's take-profit tick.
``summarize``, the per-leg return rates and the trading strategies all read
its output.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .ingest import PriceSeries

__all__ = [
    "DcConfig",
    "DcPass",
    "Extreme",
    "DcEventRecord",
    "RdcPoint",
    "dc_pass",
    "leg_rates",
    "summarize",
    "rdc_series",
    "write_events",
    "write_rdc",
    "PEAK",
    "TROUGH",
    "UPTURN_DC",
    "DOWNTURN_DC",
    "UP_OS",
    "DOWN_OS",
]

PEAK = "peak"
TROUGH = "trough"

UPTURN_DC = "UpturnDC"
DOWNTURN_DC = "DownturnDC"
UP_OS = "UpOS"
DOWN_OS = "DownOS"


@dataclass(frozen=True)
class DcConfig:
    """Uptrend threshold ``theta`` and downtrend decay coefficient ``alpha``.

    The effective downtrend threshold is ``alpha * theta``; ``alpha == 1``
    reduces to the classic symmetric detector.
    """

    theta: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not self.theta > 0:
            raise ValueError(f"theta must be > 0, got {self.theta}")
        if not self.theta < self.alpha <= 1:
            raise ValueError(f"require theta < alpha <= 1, got theta={self.theta} alpha={self.alpha}")

    @property
    def down_threshold(self) -> float:
        return self.alpha * self.theta


@dataclass(frozen=True)
class Extreme:
    index: int
    price: float
    kind: str  # PEAK or TROUGH


@dataclass(frozen=True)
class DcEventRecord:
    kind: str  # UPTURN_DC, DOWNTURN_DC, UP_OS or DOWN_OS
    start_index: int
    end_index: int
    start_price: float
    end_price: float


@dataclass(frozen=True)
class RdcPoint:
    """Return per unit time between two adjacent extremes.

    ``value = |P_to - P_from| / (P_from * interval_seconds)``; the indices
    are series positions of the extremes.
    """

    value: float
    from_extreme: int
    to_extreme: int
    interval_seconds: float


class DcPass(NamedTuple):
    """One entry per confirmation, in series order.

    ``take_profit[k]`` is, for an upturn, the first tick of that uptrend
    that sets a new high (strictly above every earlier tick since the
    confirmation) at or above ``(1 + 2 * theta) * trough``, or -1 if the
    uptrend ends first; it is -1 for every downturn.
    """

    confirm: list[int]
    extreme: list[int]
    extreme_price: list[float]
    upturn: list[bool]
    take_profit: list[int]


def dc_pass(prices: np.ndarray, config: DcConfig) -> DcPass:
    """Single pass over a nonempty price array.

    Starts neutral: both running extremes track from the first tick, and
    whichever confirmation threshold is crossed first establishes the first
    trend (the downturn test takes precedence on a tick crossing both).
    After a confirmation only the trend-side extreme updates, on strict
    improvement, so extreme indices mark first occurrences.
    """
    px = prices.tolist()
    up_mult = 1.0 + config.theta
    down_mult = 1.0 - config.alpha * config.theta
    target_mult = 1.0 + 2.0 * config.theta
    confirm: list[int] = []
    extreme: list[int] = []
    extreme_price: list[float] = []
    upturn: list[bool] = []
    take_profit: list[int] = []

    hi = lo = px[0]
    hi_i = lo_i = 0
    trend = 0  # 0 neutral, 1 up, -1 down
    # In a trend, ``stop`` is the price that confirms the reversal. In an
    # uptrend, ``target`` is the profit target until a new high reaches it.
    stop = target = math.inf
    for i in range(1, len(px)):
        p = px[i]
        if trend > 0:
            if p > stop:
                if p > hi:
                    hi, hi_i, stop = p, i, p * down_mult
                    if p >= target:
                        take_profit[-1] = i
                        target = math.inf
                continue
            up = False
        elif trend < 0:
            if p < stop:
                if p < lo:
                    lo, lo_i, stop = p, i, p * up_mult
                continue
            up = True
        elif p <= hi * down_mult:
            up = False
        elif p >= lo * up_mult:
            up = True
        else:
            if p > hi:
                hi, hi_i = p, i
            elif p < lo:
                lo, lo_i = p, i
            continue
        # Confirmation at tick i: fix the extreme and start the new trend there.
        confirm.append(i)
        upturn.append(up)
        take_profit.append(-1)
        if up:
            extreme.append(lo_i)
            extreme_price.append(lo)
            trend, target = 1, target_mult * lo
            hi, hi_i, stop = p, i, p * down_mult
        else:
            extreme.append(hi_i)
            extreme_price.append(hi)
            trend = -1
            lo, lo_i, stop = p, i, p * up_mult
    return DcPass(confirm, extreme, extreme_price, upturn, take_profit)


def summarize(
    series: PriceSeries | np.ndarray | Sequence[float], config: DcConfig
) -> tuple[list[DcEventRecord], list[Extreme]]:
    """Decompose a series into DC/OS event records and confirmed extremes.

    The trailing trend in progress at series end is never force-closed.
    """
    prices = series.prices if isinstance(series, PriceSeries) else np.asarray(series, dtype=np.float64)
    if prices.shape[0] == 0:
        raise ValueError("cannot summarize an empty series")

    legs = dc_pass(prices, config)
    events: list[DcEventRecord] = []
    extremes: list[Extreme] = []
    prev_conf_idx = -1  # confirmation index of the previous DC event
    for conf_idx, ext_idx, ext_price, up in zip(legs.confirm, legs.extreme, legs.extreme_price, legs.upturn):
        if up:
            ext_kind, os_kind, dc_kind = TROUGH, DOWN_OS, UPTURN_DC
        else:
            ext_kind, os_kind, dc_kind = PEAK, UP_OS, DOWNTURN_DC
        if prev_conf_idx >= 0 and prev_conf_idx + 1 <= ext_idx - 1:
            events.append(
                DcEventRecord(
                    os_kind,
                    prev_conf_idx + 1,
                    ext_idx - 1,
                    float(prices[prev_conf_idx + 1]),
                    float(prices[ext_idx - 1]),
                )
            )
        events.append(DcEventRecord(dc_kind, ext_idx, conf_idx, ext_price, float(prices[conf_idx])))
        extremes.append(Extreme(ext_idx, ext_price, ext_kind))
        prev_conf_idx = conf_idx
    return events, extremes


def leg_rates(
    extreme: Sequence[int], extreme_price: Sequence[float], timestamps_ms: np.ndarray
) -> list[RdcPoint | None]:
    """Return rate of each leg between adjacent extremes, in order.

    A leg with zero elapsed time is a degenerate feed artifact and yields
    None in its place.
    """
    out: list[RdcPoint | None] = []
    for k in range(1, len(extreme)):
        a, b = extreme[k - 1], extreme[k]
        interval = (int(timestamps_ms[b]) - int(timestamps_ms[a])) / 1000.0
        if interval <= 0.0:
            out.append(None)
            continue
        a_price = extreme_price[k - 1]
        out.append(RdcPoint(abs(extreme_price[k] - a_price) / (a_price * interval), a, b, interval))
    return out


def rdc_series(
    extremes: Sequence[Extreme], timestamps_ms: np.ndarray | Sequence[int]
) -> tuple[list[RdcPoint], int]:
    """Per-leg return rates between adjacent extremes.

    ``timestamps_ms`` indexes the original series. Degenerate pairs with
    zero elapsed time are skipped; the skip count is returned alongside.
    """
    if len(extremes) < 2:
        raise ValueError("need at least two extremes")
    if any(a.kind == b.kind for a, b in zip(extremes, extremes[1:])):
        raise ValueError("extremes must alternate peak/trough")
    rates = leg_rates(
        [e.index for e in extremes], [e.price for e in extremes], np.asarray(timestamps_ms, dtype=np.int64)
    )
    points = [r for r in rates if r is not None]
    return points, len(rates) - len(points)


def write_events(path: str | os.PathLike, events: Sequence[DcEventRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind,start_index,end_index,start_price,end_price\n")
        for e in events:
            fh.write(f"{e.kind},{e.start_index},{e.end_index},{e.start_price:.10g},{e.end_price:.10g}\n")


def write_rdc(path: str | os.PathLike, points: Sequence[RdcPoint]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("from_index,to_index,interval_seconds,value\n")
        for r in points:
            fh.write(f"{r.from_extreme},{r.to_extreme},{r.interval_seconds:.10g},{r.value:.10g}\n")
