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
its output. The extremes are the pass's own ``extreme``, ``extreme_price``
and ``upturn`` columns (an upturn's extreme is a trough, a downturn's a
peak); ``summarize`` reads the DC and OS events off them as ``DcEvents``
columns: each row's index into ``EVENT_KINDS`` and its first and last tick.

``dc_pass`` steps through each trend in one of two modes, so its Python
work follows the number of trends rather than the number of ticks:

* the scalar loop reads one tick at a time as a Python float, from blocks
  of ``_BLOCK`` prices converted only when the loop reaches them;
* the gallop (exponential search, Bentley & Yao 1976) scans numpy chunks
  that start at twice the trend's expected length and double until one
  holds the reversal.

A trend is galloped when the expected length of trends in its direction,
a running mean over the earlier ones, is at least ``GALLOP_MIN`` ticks; the
choice reads nothing but the input. Both modes compare each tick with the
same float, the trend's running extreme before that tick times the same
multiplier, so their outputs are identical bit for bit, including when
``1 - alpha * theta`` rounds to 1.0.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .ingest import PriceSeries, check_prices, write_csv

__all__ = [
    "DcConfig",
    "DcPass",
    "DcEvents",
    "LegRates",
    "dc_pass",
    "leg_rates",
    "summarize",
    "write_events",
    "write_rdc",
    "EVENT_KINDS",
    "UPTURN_DC",
    "DOWNTURN_DC",
    "UP_OS",
    "DOWN_OS",
]

UPTURN_DC = "UpturnDC"
DOWNTURN_DC = "DownturnDC"
UP_OS = "UpOS"
DOWN_OS = "DownOS"
EVENT_KINDS = (UPTURN_DC, DOWNTURN_DC, DOWN_OS, UP_OS)

# Expected trend length, in ticks, from which a trend is galloped. A gallop
# pays a dozen numpy calls per chunk, then about a quarter of the scalar
# loop's cost per tick; on zigzag series whose trends all have one length
# the two modes break even near 100 ticks. Real trend lengths scatter
# widely around their running mean, and on feeds of 300 to 3,000 ticks a
# day whole passes ran fastest with about twice that threshold.
GALLOP_MIN = 192
# Prices converted to Python floats at a time for the scalar loop.
_BLOCK = 128


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


class DcEvents(NamedTuple):
    """The DC and OS events of a ``DcPass``, one row per event in series order.

    ``kind`` indexes ``EVENT_KINDS``; ``start`` and ``end`` are the event's
    first and last tick.
    """

    kind: np.ndarray
    start: np.ndarray
    end: np.ndarray


def dc_pass(prices: np.ndarray, config: DcConfig) -> DcPass:
    """Single pass over a nonempty price array.

    Starts neutral: both running extremes track from the first tick, and
    whichever confirmation threshold is crossed first establishes the first
    trend (the downturn test takes precedence on a tick crossing both).
    After a confirmation only the trend-side extreme updates, on strict
    improvement, so extreme indices mark first occurrences.

    Each trend is stepped through in one of two modes. When the running
    mean length of the earlier trends in its direction (weight 1/4 on the
    latest) is at least ``GALLOP_MIN`` ticks, ``_gallop`` scans it in numpy
    chunks, the first twice that mean long; otherwise the scalar loop
    reads it one Python float at a time, from prices converted one
    ``_BLOCK`` at a time, so galloped stretches are never converted. The
    scalar loop tests ``p <= stop`` (``p >= stop`` in a downtrend) with
    ``stop`` the running extreme times the reversal multiplier; ``_scan``
    forms that same product for every tick from the extreme before it, so
    both modes reverse, update extremes and take profit at the same ticks
    and the output does not depend on the mode.
    """
    n = prices.shape[0]
    up_mult = 1.0 + config.theta
    down_mult = 1.0 - config.alpha * config.theta
    target_mult = 1.0 + 2.0 * config.theta
    confirm: list[int] = []
    extreme: list[int] = []
    extreme_price: list[float] = []
    upturn: list[bool] = []
    take_profit: list[int] = []

    def ticks(start: int) -> Iterator[tuple[int, float]]:
        """(index, price) of every tick from ``start`` on, converted to
        Python floats one block at a time as the loop reaches them."""
        blocks = map(lambda a: prices[a : a + _BLOCK].tolist(), range(start, n, _BLOCK))
        return enumerate(chain.from_iterable(blocks), start)

    hi = lo = float(prices[0])
    hi_i = lo_i = 0
    r, up = n, False  # the first confirmation and its direction
    steps = ticks(1)  # the scalar loop's position; None after a gallop
    for i, p in steps:
        if p <= hi * down_mult:
            r, up = i, False
            break
        if p >= lo * up_mult:
            r, up = i, True
            break
        if p > hi:
            hi, hi_i = p, i
        elif p < lo:
            lo, lo_i = p, i

    # Expected length of an uptrend and of a downtrend, confirmation to
    # confirmation: a running mean that gives the latest trend weight 1/4.
    up_est = down_est = 0
    while r < n:
        # Confirmation at tick c, price p: fix the extreme and start the new trend there.
        c = r
        confirm.append(c)
        upturn.append(up)
        if up:
            extreme.append(lo_i)
            extreme_price.append(lo)
            hi, hi_i, target, tp = p, c, target_mult * lo, -1
            if up_est >= GALLOP_MIN:
                r, hi, hi_i, tp = _gallop(prices, c + 1, 2 * up_est, hi, hi_i, down_mult, True, target)
                steps = None
            else:
                r, stop = n, p * down_mult
                steps = steps or ticks(c + 1)
                for i, p in steps:
                    if p <= stop:
                        r = i
                        break
                    if p > hi:
                        hi, hi_i, stop = p, i, p * down_mult
                        if p >= target:
                            tp, target = i, math.inf
            take_profit.append(tp)
            up_est = (3 * up_est + r - c) // 4
        else:
            extreme.append(hi_i)
            extreme_price.append(hi)
            take_profit.append(-1)
            lo, lo_i = p, c
            if down_est >= GALLOP_MIN:
                r, lo, lo_i, _ = _gallop(prices, c + 1, 2 * down_est, lo, lo_i, up_mult, False, math.inf)
                steps = None
            else:
                r, stop = n, p * up_mult
                steps = steps or ticks(c + 1)
                for i, p in steps:
                    if p >= stop:
                        r = i
                        break
                    if p < lo:
                        lo, lo_i, stop = p, i, p * up_mult
            down_est = (3 * down_est + r - c) // 4
        up = not up
        if steps is None and r < n:  # a gallop found the reversal; the scalar loop did not read it
            p = float(prices[r])
    return DcPass(confirm, extreme, extreme_price, upturn, take_profit)


def _gallop(
    prices: np.ndarray, start: int, size: int, ext: float, ext_i: int, mult: float, up: bool, target: float
) -> tuple[int, float, int, int]:
    """Scan a trend from tick ``start`` in numpy chunks of doubling length.

    The first chunk holds ``size`` ticks. ``ext`` (at ``ext_i``) is the
    trend's running extreme so far, ``mult`` the reversal multiplier and
    ``target`` the take-profit price (infinite for a downtrend). Returns the
    reversal tick (``len(prices)`` if the trend runs to the end), the final
    extreme and its index, and the take-profit tick or -1.

    The chunks scanned for a trend of length T add up to less than
    2 * T + size ticks. With ``size`` twice a running mean of earlier trend
    lengths, a whole pass scans fewer than four times as many ticks as the
    series holds.
    """
    n = prices.shape[0]
    tp = -1
    while start < n:
        stop = min(start + size, n)
        r, new, j, hit = _scan(prices[start:stop], ext, mult, up, target)
        if j >= 0:
            ext, ext_i = new, start + j
        if hit >= 0:
            tp, target = start + hit, math.inf
        if r < stop - start:
            return start + r, ext, ext_i, tp
        start, size = stop, 2 * size
    return n, ext, ext_i, tp


def _scan(chunk: np.ndarray, ext: float, mult: float, up: bool, target: float) -> tuple[int, float, int, int]:
    """One gallop step: the first reversal tick in ``chunk``.

    Each tick is compared with the running extreme *before* it (``ext``
    included) times ``mult``, the very product the scalar loop holds as its
    stop price, so a plateau at the extreme or a multiplier that rounds to
    1.0 reverses exactly where the scalar loop does. Returns the reversal
    offset (``chunk.size`` if none), the extreme over the ticks before it,
    that extreme's first offset (-1 if it is still ``ext``), and the offset
    of the first strict new high at or above ``target`` before the
    reversal (-1 if none).
    """
    run = np.empty(chunk.size + 1)
    run[0] = ext
    run[1:] = chunk
    if up:
        np.maximum.accumulate(run, out=run)
        rev = chunk <= run[:-1] * mult
    else:
        np.minimum.accumulate(run, out=run)
        rev = chunk >= run[:-1] * mult
    r = int(rev.argmax())
    if not rev[r]:
        r = chunk.size
    new = float(run[r])
    j = -1 if new == ext else int(chunk[:r].argmax() if up else chunk[:r].argmin())
    # A take-profit tick is a strict new high at or above ``target``: the
    # first tick at or above both ``target`` and the float just above ``ext``.
    bar = max(target, math.nextafter(ext, math.inf))
    hit = int((chunk[:r] >= bar).argmax()) if new >= bar else -1
    return r, new, j, hit


def summarize(series: PriceSeries | np.ndarray | Sequence[float], config: DcConfig) -> tuple[DcPass, DcEvents]:
    """The ``dc_pass`` of a series and its DC/OS events.

    The trailing trend in progress at series end is never force-closed. A raw
    array or sequence must hold finite, positive prices, as a
    :class:`PriceSeries` does.
    """
    if isinstance(series, PriceSeries):
        prices = series.prices
    else:
        prices = np.asarray(series, dtype=np.float64)
        check_prices(prices)
    if prices.shape[0] == 0:
        raise ValueError("cannot summarize an empty series")

    legs = dc_pass(prices, config)
    confirm = np.array(legs.confirm, dtype=np.intp)
    extreme = np.array(legs.extreme, dtype=np.intp)
    dc_kind = 1 - np.array(legs.upturn, dtype=np.intp)  # UPTURN_DC or DOWNTURN_DC
    # DC event k spans extreme k to confirmation k. The OS event before it,
    # DOWN_OS before an upturn and UP_OS before a downturn, spans the ticks
    # strictly between confirmation k - 1 and extreme k, when there are any;
    # none comes before the first DC event.
    os_start = np.concatenate((extreme[:1], confirm[:-1] + 1))
    keep = np.column_stack((os_start < extreme, np.ones_like(extreme, dtype=bool))).ravel()
    kind = np.column_stack((dc_kind + 2, dc_kind)).ravel()[keep]
    start = np.column_stack((os_start, extreme)).ravel()[keep]
    end = np.column_stack((extreme - 1, confirm)).ravel()[keep]
    return legs, DcEvents(kind, start, end)


class LegRates(NamedTuple):
    """Return rates of the legs between adjacent extremes, one row per leg
    with nonzero elapsed time, in series order.

    ``value = |P_to - P_from| / (P_from * interval_seconds)``; the indices
    are series positions of the extremes. ``kept[k - 1]`` tells whether the
    leg from extreme k - 1 to extreme k has a row; a leg with zero elapsed
    time is a degenerate feed artifact and has none.
    """

    from_index: np.ndarray
    to_index: np.ndarray
    interval_seconds: np.ndarray
    value: np.ndarray
    kept: np.ndarray


def leg_rates(extreme: Sequence[int], extreme_price: Sequence[float], timestamps_ms: np.ndarray) -> LegRates:
    """The ``LegRates`` of the legs between adjacent extremes ``extreme``
    (series positions) priced ``extreme_price``."""
    index = np.asarray(extreme, dtype=np.intp)
    price = np.asarray(extreme_price, dtype=np.float64)
    interval = np.diff(np.asarray(timestamps_ms, dtype=np.int64)[index]) / 1000.0
    kept = interval > 0.0
    interval = interval[kept]
    p_from = price[:-1][kept]
    value = np.abs(price[1:][kept] - p_from) / (p_from * interval)
    return LegRates(index[:-1][kept], index[1:][kept], interval, value, kept)


def write_events(path: str | os.PathLike, prices: np.ndarray, events: DcEvents) -> None:
    """Write ``events`` of the series ``prices``, with each event's first and last price."""
    kinds = np.array(EVENT_KINDS, dtype="S")[events.kind]
    columns = [kinds, events.start, events.end, prices[events.start], prices[events.end]]
    write_csv(path, "kind,start_index,end_index,start_price,end_price", columns)


def write_rdc(path: str | os.PathLike, rates: LegRates, **extra: np.ndarray) -> None:
    """Write ``rates``, then each ``extra`` column (see :func:`ingest.write_csv`) headed by its keyword."""
    columns = [rates.from_index, rates.to_index, rates.interval_seconds, rates.value, *extra.values()]
    write_csv(path, ",".join(("from_index,to_index,interval_seconds,value", *extra)), columns)
