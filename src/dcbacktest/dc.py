"""Directional-change decomposition under asymmetric thresholds.

A price stream is split into alternating up/down trends. An upturn is
confirmed at the first tick rising ``theta`` above the running low of the
preceding downtrend; a downturn at the first tick falling ``alpha * theta``
below the running high of the preceding uptrend. Confirmations fix the
preceding extreme retroactively. Event index ranges tile the series:
``[trough, up_conf] [up_conf+1, peak-1] [peak, down_conf] ...`` with the
overshoot interval absent whenever it would be empty.

``dc_pass`` is the only loop over a price series: one pass that lists every
confirmation with its extreme, plus each uptrend's take-profit tick.
``summarize``, the per-leg return rates and the trading strategies all read
its output. The extremes are the pass's own ``extreme``, ``extreme_price``
and ``upturn`` columns (an upturn's extreme is a trough, a downturn's a
peak); ``summarize`` reads the DC and OS events off them as ``DcEvents``
columns: each row's index into ``EVENT_KINDS`` and its first and last tick.

The pass does not read every tick. It walks a ``JumpIndex``, pointers that
skip stretches of ticks no higher (or no lower) than the tick they start
from, with the lowest (highest) price each stretch holds: the "all nearest
smaller values" of Berkman, Schieber & Vishkin (1993), as far as a fixed
number of whole-array pointer-jumping rounds gets them. The index holds no
threshold, so one index per price array serves every pass over it; the
threshold search builds one per training half. In an uptrend the walk
hops from one new high to the next, and enters a stretch only when its
lowest price reaches the reversal price. Its Python work therefore follows
the number of running-extreme records, not the number of ticks. Each tick
it tests is compared with the float the per-tick rule would use, the
running extreme before that tick times the same multiplier, so the output
is that rule's bit for bit, including when a multiplier rounds to 1.0.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .ingest import PriceSeries, check_prices, write_csv

__all__ = [
    "DcConfig",
    "DcPass",
    "DcEvents",
    "JumpIndex",
    "jump_index",
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

# Pointer-jumping rounds in ``jump_index``. Each round costs a few numpy
# operations on the ticks still jumping, and the walk is exact however far
# the pointers got. On the first training half of each seed-1 benchmark feed,
# converging took 191 to 576 rounds; after 16, 89 to 93 % of the pointers
# had converged, and a pass over the 73,756-tick ``dense`` half read 10 %
# more pointers than over converged ones, for less than half the build time.
JUMP_ROUNDS = 16
# Jumping ticks updated together within a round.
_ROUND_BLOCK = 8192


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


class JumpIndex(NamedTuple):
    """Pointers over a price array ``P`` of n ticks for ``dc_pass`` to walk.

    ``nu[i] > i``, and every tick strictly between i and ``nu[i]`` is
    ``<= P[i]``; ``lob[i]`` is the least of those ticks, or +inf when there
    are none. ``nd`` and ``hib`` are the mirror pair: ticks ``>= P[i]``, and
    their greatest, or -inf. A pointer may be n, past the last tick. The
    pointers are ``int32``, the bounds ``float64``: 24 bytes a tick.
    """

    nu: np.ndarray
    lob: np.ndarray
    nd: np.ndarray
    hib: np.ndarray


def jump_index(prices: np.ndarray) -> JumpIndex:
    """The ``JumpIndex`` of a price array, built with ``JUMP_ROUNDS`` rounds
    of pointer jumping (Wyllie 1979) over the ticks still able to jump.

    Every pointer starts at the next tick. In a round, each tick whose
    pointer lands on a price it may pass over (``<=`` its own for ``nu``,
    ``>=`` for ``nd``) takes that tick's pointer and folds in its bound. The
    invariants hold after every round, so the pointers need not converge.
    """
    prices = np.asarray(prices, dtype=np.float64)
    nu, lob = _jumps(prices, np.less_equal, np.minimum, np.inf)
    nd, hib = _jumps(prices, np.greater_equal, np.maximum, -np.inf)
    return JumpIndex(nu, lob, nd, hib)


def _jumps(prices: np.ndarray, passes, fold, far: float) -> tuple[np.ndarray, np.ndarray]:
    """``nu`` and ``lob``, or ``nd`` and ``hib``: a pointer passes over a
    tick x when ``passes(x, own price)``, and ``fold`` combines bounds.
    ``far`` is the bound of no ticks, and the price of a sentinel tick past
    the end that no pointer passes over.

    A round updates the jumping ticks ``_ROUND_BLOCK`` at a time, in tick
    order, so its scratch arrays stay small. Pointers point forward, so a
    block reads only ticks that no earlier block of the round has updated:
    the result is that of whole-array rounds.
    """
    n = prices.shape[0]
    ext = np.append(prices, far)
    jump = np.arange(1, n + 1, dtype=np.intp)  # built in intp: int32 fancy indexing is slower
    bound = np.full(n, far)
    active = np.flatnonzero(passes(ext[1:], prices))
    for _ in range(JUMP_ROUNDS):
        if not active.size:
            break
        keep = np.empty(active.size, dtype=bool)
        for lo in range(0, active.size, _ROUND_BLOCK):
            a = active[lo : lo + _ROUND_BLOCK]
            k = jump[a]
            bound[a] = fold(fold(bound[a], prices[k]), bound[k])
            jump[a] = k = jump[k]
            passes(ext[k], prices[a], out=keep[lo : lo + _ROUND_BLOCK])
        active = active[keep]
    return jump.astype(np.int32), bound


def dc_pass(prices: np.ndarray, config: DcConfig, index: JumpIndex | None = None) -> DcPass:
    """Single pass over a nonempty price array.

    Starts neutral: both running extremes track from the first tick, and
    whichever confirmation threshold is crossed first establishes the first
    trend (the downturn test takes precedence on a tick crossing both).
    After a confirmation only the trend-side extreme updates, on strict
    improvement, so extreme indices mark first occurrences.

    ``index`` is the ``jump_index`` of ``prices``; one is built when none is
    given. Passes over the same prices under any thresholds may share it.
    ``_rise`` walks each uptrend and ``_fall`` each downtrend.
    """
    prices = np.asarray(prices, dtype=np.float64)
    n = prices.shape[0]
    up_mult = 1.0 + config.theta
    down_mult = 1.0 - config.alpha * config.theta
    target_mult = 1.0 + 2.0 * config.theta
    confirm: list[int] = []
    extreme: list[int] = []
    extreme_price: list[float] = []
    upturn: list[bool] = []
    take_profit: list[int] = []

    # memoryviews read Python floats and ints without converting the arrays.
    p, *pointers = map(memoryview, (prices, *(jump_index(prices) if index is None else index)))
    # Neutral start: the first trend is confirmed where a walk from tick 0
    # first reverses, a downturn on a tie.
    down_at, hi, hi_i, _ = _rise(p, *pointers, 0, down_mult, math.inf)
    r, lo, lo_i = _fall(p, *pointers, 0, up_mult)
    up = r < down_at
    r = min(r, down_at)
    while r < n:
        # Confirmation at tick c: fix the extreme and start the new trend there.
        c = r
        confirm.append(c)
        upturn.append(up)
        if up:
            extreme.append(lo_i)
            extreme_price.append(lo)
            r, hi, hi_i, tp = _rise(p, *pointers, c, down_mult, target_mult * lo)
            take_profit.append(tp)
        else:
            extreme.append(hi_i)
            extreme_price.append(hi)
            take_profit.append(-1)
            r, lo, lo_i = _fall(p, *pointers, c, up_mult)
        up = not up
    return DcPass(confirm, extreme, extreme_price, upturn, take_profit)


def _rise(
    p: memoryview, nu: memoryview, lob: memoryview, nd: memoryview, hib: memoryview, j: int, mult: float, target: float
) -> tuple[int, float, int, int]:
    """Walk an uptrend from its high so far, tick ``j``, to the first tick
    at or below the running high before it times ``mult``.

    Returns the reversal tick (``len(p)`` if the trend runs to the end), the
    final high and its first tick, and the take-profit tick: the first
    strict new high at or above ``target``, or -1.

    Every tick between ``j`` and ``nu[j]`` is at most ``p[j]``, so none is a
    new high, and one reverses the trend only if ``lob[j]`` reaches the stop
    price. Then the reversal is the first tick of the ``nd`` chain from
    ``j`` at or below it: each tick the chain passes over is at least the
    chain tick before it, which is above the stop price. When the stop price
    is ``p[j]`` itself (``mult`` rounds to 1.0), it is the next tick. Else
    the walk moves to ``nu[j]``: a new high, or, where a pointer stopped
    short, a tick that may reverse the trend or neither.
    """
    hi, hi_i, tp = p[j], j, -1
    stop = hi * mult
    n = len(p)
    while True:
        if lob[j] <= stop:
            if p[j] <= stop:
                return j + 1, hi, hi_i, tp
            k = nd[j]
            while p[k] > stop:
                k = nd[k]
            return k, hi, hi_i, tp
        j = nu[j]
        if j == n:
            return n, hi, hi_i, tp
        x = p[j]
        if x > hi:  # above the stop price too, which is at most the high
            hi, hi_i, stop = x, j, x * mult
            if x >= target:
                tp, target = j, math.inf
        elif x <= stop:
            return j, hi, hi_i, tp


def _fall(
    p: memoryview, nu: memoryview, lob: memoryview, nd: memoryview, hib: memoryview, j: int, mult: float
) -> tuple[int, float, int]:
    """``_rise`` mirrored for a downtrend from its low so far, tick ``j``:
    returns the reversal tick, the final low and its first tick."""
    lo, lo_i = p[j], j
    stop = lo * mult
    n = len(p)
    while True:
        if hib[j] >= stop:
            if p[j] >= stop:
                return j + 1, lo, lo_i
            k = nu[j]
            while p[k] < stop:
                k = nu[k]
            return k, lo, lo_i
        j = nd[j]
        if j == n:
            return n, lo, lo_i
        x = p[j]
        if x < lo:
            lo, lo_i, stop = x, j, x * mult
        elif x >= stop:
            return j, lo, lo_i


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
