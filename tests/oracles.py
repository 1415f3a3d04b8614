"""Independent reference implementations used only to cross-check the package.

These deliberately recompute everything from scratch (full-slice extrema,
exhaustive path enumeration, pairwise maximization) instead of sharing the
package's incremental code paths.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np
from scipy.linalg import cho_solve, cholesky


def dc_reference(prices: np.ndarray, theta: float, alpha: float):
    """Segment-rescanning directional-change detector.

    At every index the confirmation inequalities are re-checked against the
    running extreme recomputed from the full trend slice. Returns
    (events, extremes) as plain tuples:
    events: (kind, start_index, end_index, start_price, end_price)
    extremes: (index, price, kind)
    """
    prices = np.asarray(prices, dtype=np.float64)
    n = prices.shape[0]
    up_mult = 1.0 + theta
    down_mult = 1.0 - alpha * theta

    events: list[tuple] = []
    extremes: list[tuple] = []
    prev_conf = -1

    state = "init"
    seg = 0  # index where the current trend's extreme tracking began
    t = 1
    while t < n:
        window = prices[seg : t + 1]
        if state == "init":
            hi = window.max()
            lo = window.min()
            down_hit = prices[t] <= hi * down_mult
            up_hit = prices[t] >= lo * up_mult
        elif state == "up":
            hi = window.max()
            down_hit = prices[t] <= hi * down_mult
            up_hit = False
        else:
            lo = window.min()
            up_hit = prices[t] >= lo * up_mult
            down_hit = False

        if down_hit:  # checked first: mirrors the detector's precedence
            ext_rel = int(np.argmax(prices[seg : t + 1]))
            ext_idx = seg + ext_rel
            ext_price = float(prices[ext_idx])
            _emit(events, extremes, prices, prev_conf, ext_idx, ext_price, t, "down")
            prev_conf = t
            state = "down"
            seg = t
        elif up_hit:
            ext_rel = int(np.argmin(prices[seg : t + 1]))
            ext_idx = seg + ext_rel
            ext_price = float(prices[ext_idx])
            _emit(events, extremes, prices, prev_conf, ext_idx, ext_price, t, "up")
            prev_conf = t
            state = "up"
            seg = t
        t += 1
    return events, extremes


def _emit(events, extremes, prices, prev_conf, ext_idx, ext_price, conf_idx, direction):
    if direction == "up":
        os_kind, dc_kind, ext_kind = "DownOS", "UpturnDC", "trough"
    else:
        os_kind, dc_kind, ext_kind = "UpOS", "DownturnDC", "peak"
    if prev_conf >= 0 and prev_conf + 1 <= ext_idx - 1:
        events.append(
            (os_kind, prev_conf + 1, ext_idx - 1, float(prices[prev_conf + 1]), float(prices[ext_idx - 1]))
        )
    events.append((dc_kind, ext_idx, conf_idx, ext_price, float(prices[conf_idx])))
    extremes.append((ext_idx, ext_price, ext_kind))


def event_rows(prices, legs, events):
    """The program's pass and event columns as the (events, extremes) tuples
    ``dc_reference`` returns, each price read from ``prices``."""
    prices = np.asarray(prices, dtype=np.float64)
    kinds = ("UpturnDC", "DownturnDC", "DownOS", "UpOS")
    rows = [
        (kinds[k], a, b, float(prices[a]), float(prices[b]))
        for k, a, b in zip(events.kind.tolist(), events.start.tolist(), events.end.tolist())
    ]
    extremes = [(i, p, "trough" if up else "peak") for i, p, up in zip(legs.extreme, legs.extreme_price, legs.upturn)]
    return rows, extremes


def symmetric_dc_reference(prices: np.ndarray, theta: float):
    """Classic symmetric-threshold detector (equal up/down thresholds),
    written as its own two-branch state machine."""
    prices = np.asarray(prices, dtype=np.float64)
    n = prices.shape[0]
    up_mult = 1.0 + theta
    down_mult = 1.0 - 1.0 * theta

    events: list[tuple] = []
    extremes: list[tuple] = []
    prev_conf = -1

    ph = pl = float(prices[0])
    ph_i = pl_i = 0
    state = "init"
    for t in range(1, n):
        p = float(prices[t])
        if state == "up":
            if p <= ph * down_mult:
                _emit(events, extremes, prices, prev_conf, ph_i, ph, t, "down")
                prev_conf = t
                state = "down"
                pl, pl_i = p, t
            elif p > ph:
                ph, ph_i = p, t
        elif state == "down":
            if p >= pl * up_mult:
                _emit(events, extremes, prices, prev_conf, pl_i, pl, t, "up")
                prev_conf = t
                state = "up"
                ph, ph_i = p, t
            elif p < pl:
                pl, pl_i = p, t
        else:
            if p <= ph * down_mult:
                _emit(events, extremes, prices, prev_conf, ph_i, ph, t, "down")
                prev_conf = t
                state = "down"
                pl, pl_i = p, t
            elif p >= pl * up_mult:
                _emit(events, extremes, prices, prev_conf, pl_i, pl, t, "up")
                prev_conf = t
                state = "up"
                ph, ph_i = p, t
            elif p > ph:
                ph, ph_i = p, t
            elif p < pl:
                pl, pl_i = p, t
    return events, extremes


def dc_pass_reference(prices: np.ndarray, theta: float, alpha: float):
    """The directional-change pass as one loop with one Python step per tick.

    ``dc.dc_pass`` must return the same five lists: confirm, extreme,
    extreme_price, upturn, take_profit.
    """
    px = np.asarray(prices, dtype=np.float64).tolist()
    up_mult = 1.0 + theta
    down_mult = 1.0 - alpha * theta
    target_mult = 1.0 + 2.0 * theta
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
    return confirm, extreme, extreme_price, upturn, take_profit


def jump_index_reference(prices, nu, nd):
    """Check pointers ``nu`` and ``nd`` over ``prices`` one interval at a time.

    Returns ``(nu_ok, lob, nd_ok, hib)``: per tick, whether ``nu[i]`` lies in
    ``(i, n]`` with every tick strictly between at most ``prices[i]``, and
    the least of those ticks (+inf when there are none); then the same for
    ``nd``, with at least and the greatest (-inf when none).
    """
    px = np.asarray(prices, dtype=np.float64).tolist()
    n = len(px)
    nu_ok, lob, nd_ok, hib = [], [], [], []
    for i in range(n):
        between = px[i + 1 : int(nu[i])]
        nu_ok.append(i < int(nu[i]) <= n and all(p <= px[i] for p in between))
        lob.append(min(between, default=math.inf))
        between = px[i + 1 : int(nd[i])]
        nd_ok.append(i < int(nd[i]) <= n and all(p >= px[i] for p in between))
        hib.append(max(between, default=-math.inf))
    return nu_ok, lob, nd_ok, hib


def leg_rates_reference(extreme, extreme_price, timestamps_ms):
    """One entry per leg between adjacent extremes, computed one leg at a time
    on Python numbers: ``(from_index, to_index, interval_seconds, value)``,
    or None for a leg with zero elapsed time."""
    out = []
    for k in range(1, len(extreme)):
        a, b = extreme[k - 1], extreme[k]
        interval = (int(timestamps_ms[b]) - int(timestamps_ms[a])) / 1000.0
        if interval <= 0.0:
            out.append(None)
            continue
        a_price = extreme_price[k - 1]
        out.append((a, b, interval, abs(extreme_price[k] - a_price) / (a_price * interval)))
    return out


def viterbi_bruteforce(pi, a, means, variances, obs):
    """Exhaustive max-probability path with the documented tie rule.

    Scores accumulate left-to-right exactly as the dynamic program does, so
    float results are bitwise comparable. Ties prefer the path whose states
    are smallest reading from the end backwards.
    """
    pi = np.asarray(pi, float)
    a = np.asarray(a, float)
    means = np.asarray(means, float)
    variances = np.asarray(variances, float)
    obs = np.asarray(obs, float)
    k = pi.shape[0]
    t_len = obs.shape[0]
    logb = -0.5 * ((obs[None, :] - means[:, None]) ** 2 / variances[:, None]
                   + np.log(2.0 * np.pi * variances)[:, None])
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi)
        log_a = np.log(a)

    best_score = -np.inf
    best_path: tuple[int, ...] | None = None
    for path in itertools.product(range(k), repeat=t_len):
        score = log_pi[path[0]] + logb[path[0], 0]
        for t in range(1, t_len):
            score = score + log_a[path[t - 1], path[t]] + logb[path[t], t]
        key = tuple(reversed(path))
        if best_path is None or score > best_score or (score == best_score and key < tuple(reversed(best_path))):
            best_score = score
            best_path = path
    return np.array(best_path, dtype=np.intp)


def mdd_bruteforce(values) -> float:
    """Maximum drawdown in percent by checking every ordered pair."""
    values = np.asarray(values, dtype=np.float64)
    worst = 0.0
    for x in range(len(values)):
        for y in range(x + 1, len(values)):
            dd = (values[x] - values[y]) / values[x]
            if dd > worst:
                worst = dd
    return worst * 100.0


def strategy_reference(
    prices,
    timestamps,
    theta: float,
    alpha: float,
    gate=None,
    history=(),
    capital: float = 10000.0,
    record_equity: bool = True,
):
    """Long-only DC trading rule, re-derived tick by tick from trend slices.

    At every tick the running extreme is recomputed from the slice of the
    current trend, the confirmation tests are applied as in ``dc_reference``,
    and then the trading rules:

    - buy all-in at an upturn confirmation when ``gate(history)`` allows
      (``gate=None`` always allows);
    - take profit at the first tick of the uptrend strictly above every
      earlier tick of it whose price is at or above ``(1 + 2θ)·trough``;
    - otherwise sell at the downturn confirmation;
    - liquidate whatever is still held at the last tick (rule 0).

    ``history`` seeds the per-leg return-rate list that grows at every
    confirmation and is handed to ``gate`` (as a copy) at each upturn.
    Equity is recorded at the first tick, on every tick a position is held
    or traded, and at the last tick if that point is not already there.

    Returns (trades, (equity_ts, equity_capital), queries) where trades are
    (timestamp, side, price, capital_after, rule) tuples and queries are the
    histories the gate saw.
    """
    prices = np.asarray(prices, dtype=np.float64)
    ts = np.asarray(timestamps, dtype=np.int64)
    n = prices.shape[0]
    if n == 0:
        return [], (np.empty(0, dtype=np.int64), np.empty(0)), []
    up_mult = 1.0 + theta
    down_mult = 1.0 - alpha * theta
    target_mult = 1.0 + 2.0 * theta

    hist = list(history)
    queries: list[list[float]] = []
    capital = float(capital)
    units = 0.0
    trades: list[tuple] = []
    eq_ts = [int(ts[0])]
    eq_cap = [capital]
    prev_ext: tuple[int, float] | None = None
    trough = 0.0

    def add_rate(ext_idx: int, ext_price: float) -> None:
        nonlocal prev_ext
        if prev_ext is not None:
            a_idx, a_price = prev_ext
            interval = (int(ts[ext_idx]) - int(ts[a_idx])) / 1000.0
            if interval > 0.0:
                hist.append(abs(ext_price - a_price) / (a_price * interval))
        prev_ext = (ext_idx, ext_price)

    state = "init"
    seg = 0
    for t in range(1, n):
        p = float(prices[t])
        before = prices[seg:t]  # the trend's ticks before this one
        if state == "init":
            down_hit = p <= before.max() * down_mult
            up_hit = p >= before.min() * up_mult  # loses to down_hit below
        elif state == "up":
            down_hit = p <= before.max() * down_mult
            up_hit = False
        else:
            down_hit = False
            up_hit = p >= before.min() * up_mult

        traded = False
        if down_hit:
            ext_idx = seg + int(np.argmax(before))
            add_rate(ext_idx, float(prices[ext_idx]))
            state, seg = "down", t
            if units > 0.0:
                capital = units * p
                units = 0.0
                trades.append((int(ts[t]), "SELL", p, capital, 3))
                traded = True
        elif up_hit:
            ext_idx = seg + int(np.argmin(before))
            trough = float(prices[ext_idx])
            add_rate(ext_idx, trough)
            state, seg = "up", t
            allowed = True
            if gate is not None:
                queries.append(list(hist))
                allowed = gate(list(hist))
            if allowed:
                units = capital / p
                trades.append((int(ts[t]), "BUY", p, capital, 1))
                traded = True
        elif state == "up" and units > 0.0 and p > before.max() and p >= target_mult * trough:
            capital = units * p
            units = 0.0
            trades.append((int(ts[t]), "SELL", p, capital, 2))
            traded = True
        if record_equity and (units > 0.0 or traded):
            eq_ts.append(int(ts[t]))
            eq_cap.append(units * p if units > 0.0 else capital)

    if units > 0.0:
        p = float(prices[-1])
        capital = units * p
        trades.append((int(ts[-1]), "SELL", p, capital, 0))
    if not record_equity or eq_ts[-1] != int(ts[-1]) or eq_cap[-1] != capital:
        eq_ts.append(int(ts[-1]))
        eq_cap.append(capital)
    return trades, (np.array(eq_ts, dtype=np.int64), np.array(eq_cap)), queries


def trade_rows(trades) -> list[tuple]:
    """The program's round-trip columns as the (timestamp, side, price,
    capital_after, rule) tuples ``strategy_reference`` produces: a buy, then
    its sale, per round trip."""
    capital = trades.capital.tolist()
    columns = (trades.buy_ms, trades.buy_price, trades.sell_ms, trades.sell_price, trades.sell_rule)
    rows = []
    for k, (buy_ms, buy_price, sell_ms, sell_price, rule) in enumerate(zip(*(c.tolist() for c in columns))):
        rows.append((buy_ms, "BUY", buy_price, capital[k], 1))
        rows.append((sell_ms, "SELL", sell_price, capital[k + 1], rule))
    return rows


def format_timestamp_reference(ms: int) -> str:
    """``YYYYMMDD HHMMSSmmm`` (UTC) through a ``datetime`` built per call."""
    dt = datetime.fromtimestamp(ms // 1000, tz=timezone.utc)
    return f"{dt.year:04d}{dt:%m%d %H%M%S}" + f"{ms % 1000:03d}"  # "%Y" may leave a year below 1000 unpadded


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def month_start_ms_reference(month: int) -> int:
    """Epoch ms of the first instant of month ``year * 12 + month - 1`` (UTC)."""
    return (datetime(month // 12, month % 12 + 1, 1, tzinfo=timezone.utc) - _EPOCH) // timedelta(milliseconds=1)


def sliding_windows_reference(timestamps, window_months: int, stride_months: int) -> list[tuple]:
    """``(start_ms, end_ms, train_end_ms, train_range, test_range)`` of each
    calendar-month window, one ``datetime`` per month boundary.

    Months are counted as in :func:`month_start_ms_reference`. Window k starts
    ``k * stride_months`` months after the first tick's month and spans
    ``window_months`` months; the windows stop at the first that ends after
    the last tick's month. A train half ends at the midpoint of its window,
    and each index is the count of ticks before a boundary. Building the
    data's end month raises ``datetime``'s own ``ValueError`` when it falls
    after the year 9999.
    """
    ts = [int(t) for t in timestamps]

    def month_of(ms: int) -> int:
        dt = _EPOCH + timedelta(milliseconds=ms)
        return dt.year * 12 + dt.month - 1

    def ticks_before(ms: int) -> int:
        return sum(t < ms for t in ts)

    first, last = month_of(ts[0]), month_of(ts[-1])
    month_start_ms_reference(last + 1)  # the data's end, for its ValueError alone
    windows = []
    k = 0
    while (start := first + k * stride_months) + window_months <= last + 1:
        lo, hi = month_start_ms_reference(start), month_start_ms_reference(start + window_months)
        mid = lo + (hi - lo) // 2
        windows.append((lo, hi, mid, (ticks_before(lo), ticks_before(mid)), (ticks_before(mid), ticks_before(hi))))
        k += 1
    return windows


def _timestamp_reference(field: str) -> int | None:
    """Epoch ms of ``YYYYMMDD HHMMSSmmm`` (17 ASCII digits, UTC), or None if malformed."""
    if len(field) != 18 or field[8] != " " or any(c not in "0123456789" for c in field[:8] + field[9:]):
        return None
    try:
        day = datetime(int(field[:4]), int(field[4:6]), int(field[6:8]), tzinfo=timezone.utc)
    except ValueError:
        return None
    hh, mm, ss, ms = int(field[9:11]), int(field[11:13]), int(field[13:15]), int(field[15:18])
    if hh > 23 or mm > 59 or ss > 59:
        return None
    return int(day.timestamp()) * 1000 + ((hh * 60 + mm) * 60 + ss) * 1000 + ms


def parse_ticks_reference(path):
    """Row-by-row tick CSV parse, one line at a time.

    Returns ``(timestamps, mids, bids, asks, (rows_read, malformed, out_of_order))``.
    A UTF-8 BOM is ignored; the first non-blank line is a header, skipped
    and not counted, only when its first field holds no ASCII digit; a row is
    malformed when its timestamp is bad, it has fewer than three columns, a
    quote is not a finite positive float, or the mid of its quotes overflows;
    a row earlier than the last kept one is out of order.
    """
    timestamps, mids, bids, asks = [], [], [], []
    rows_read = malformed = out_of_order = 0
    last_ts = None
    first_row = True
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            ts = _timestamp_reference(parts[0])
            if first_row:
                first_row = False
                if re.search("[0-9]", parts[0]) is None:
                    continue
            rows_read += 1
            try:
                bid, ask = float(parts[1]), float(parts[2])
            except (IndexError, ValueError):
                bid = ask = float("nan")
            if ts is None or not (0 < bid < float("inf") and 0 < ask < float("inf") and (bid + ask) / 2.0 < float("inf")):
                malformed += 1
                continue
            if last_ts is not None and ts < last_ts:
                out_of_order += 1
                continue
            last_ts = ts
            timestamps.append(ts)
            mids.append((bid + ask) / 2.0)
            bids.append(bid)
            asks.append(ask)
    return (
        np.array(timestamps, dtype=np.int64),
        np.array(mids, dtype=np.float64),
        np.array(bids, dtype=np.float64),
        np.array(asks, dtype=np.float64),
        (rows_read, malformed, out_of_order),
    )


def _log_emissions(obs: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    # (K, T) log N(o_t | mu_k, var_k)
    diff = obs[None, :] - means[:, None]
    return -0.5 * (diff * diff / variances[:, None] + np.log(2.0 * np.pi * variances)[:, None])


def forward_backward_reference(
    pi: np.ndarray, a: np.ndarray, means: np.ndarray, variances: np.ndarray, obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Scaled forward-backward pass.

    Returns per-time state posteriors ``gamma`` (T, K), summed transition
    posteriors ``xi_sum`` (K, K) and the sequence log-likelihood. Emission
    rows are max-shifted before scaling so extreme observations cannot
    underflow every state at once.
    """
    t_len = obs.shape[0]
    k = pi.shape[0]
    logb = _log_emissions(obs, means, variances)
    shift = logb.max(axis=0)
    b = np.exp(logb - shift[None, :])  # (K, T)

    alpha = np.empty((t_len, k))
    scale = np.empty(t_len)
    alpha[0] = pi * b[:, 0]
    scale[0] = alpha[0].sum()
    if scale[0] <= 0.0:
        scale[0] = np.finfo(float).tiny
    alpha[0] /= scale[0]
    a_t = a.T
    for t in range(1, t_len):
        v = (a_t @ alpha[t - 1]) * b[:, t]
        s = v.sum()
        if s <= 0.0:
            s = np.finfo(float).tiny
        alpha[t] = v / s
        scale[t] = s

    beta = np.empty((t_len, k))
    beta[-1] = 1.0
    for t in range(t_len - 2, -1, -1):
        beta[t] = (a @ (b[:, t + 1] * beta[t + 1])) / scale[t + 1]

    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)

    xi_sum = np.zeros((k, k))
    for t in range(t_len - 1):
        m = (alpha[t][:, None] * a) * (b[:, t + 1] * beta[t + 1])[None, :]
        tot = m.sum()
        if tot > 0.0:
            xi_sum += m / tot

    ll = float(np.log(scale).sum() + shift.sum())
    return gamma, xi_sum, ll


def _matern52_reference(sq_dists: np.ndarray) -> np.ndarray:
    d = np.sqrt(np.maximum(sq_dists, 0.0))
    s = math.sqrt(5.0) * d
    return (1.0 + s + s * s / 3.0) * np.exp(-s)


def _cross_sq_dists_reference(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    diff = xa[:, None, :] - xb[None, :, :]
    return (diff * diff).sum(axis=-1)


@dataclass
class GpFit:
    """A from-scratch GP fit: the picked hyperparameters, and per
    (lengthscale, amplitude) the nugget used and the log marginal likelihood."""

    ell: float
    amp: float
    nuggets: dict
    lml: dict
    x: np.ndarray
    low: np.ndarray
    alpha: np.ndarray

    def posterior(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ks = self.amp * _matern52_reference(_cross_sq_dists_reference(xq, self.x) / (self.ell * self.ell))
        mu = ks @ self.alpha
        v = cho_solve((self.low, True), ks.T)
        var = np.maximum(self.amp - (ks * v.T).sum(axis=1), 1e-12)
        return mu, var


def gp_reference(
    x: np.ndarray,
    y: np.ndarray,
    first_nugget: float | dict = 1e-12,
    lengthscales=(0.08, 0.15, 0.25, 0.4, 0.65, 1.0, 1.6),
    amplitudes=(0.25, 1.0, 4.0),
    nugget_max: float = 1e-3,
) -> GpFit:
    """Matern-5/2 GP on standardized ``y``, refit from scratch.

    Every (lengthscale, amplitude) pair gets its own Cholesky factorization
    of ``amp * (R + nugget * I)``, the nugget starting at ``first_nugget``
    (a number, or one per lengthscale) and multiplied by 100 while the
    factorization fails, up to ``nugget_max``. The pair with the highest
    log marginal likelihood wins, the first in grid order on ties.
    """
    y_std = float(y.std())
    ys = (y - float(y.mean())) / (y_std if y_std > 0.0 else 1.0)
    n = x.shape[0]
    sq = _cross_sq_dists_reference(x, x)
    eye = np.eye(n)
    best = None
    nuggets, lmls = {}, {}
    for ell in lengthscales:
        base = _matern52_reference(sq / (ell * ell))
        for amp in amplitudes:
            low = None
            nugget = first_nugget[ell] if isinstance(first_nugget, dict) else first_nugget
            while nugget <= nugget_max:
                try:
                    low = cholesky(amp * (base + nugget * eye), lower=True)
                    break
                except np.linalg.LinAlgError:
                    nugget *= 100.0
            nuggets[(ell, amp)] = nugget
            if low is None:
                continue
            alpha = cho_solve((low, True), ys)
            lml = -0.5 * float(ys @ alpha) - float(np.log(np.diag(low)).sum()) - 0.5 * n * math.log(2.0 * math.pi)
            lmls[(ell, amp)] = lml
            if best is None or lml > best[0]:
                best = (lml, ell, amp, low, alpha)
    assert best is not None
    _, ell, amp, low, alpha = best
    return GpFit(ell, amp, nuggets, lmls, x, low, alpha)
