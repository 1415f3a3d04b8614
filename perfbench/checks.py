"""Output checks computed apart from the program.

Everything here works from the generator's tick values and the files a
backtest writes. The trading rule is re-derived by rescanning the price
array leg by leg with running extremes, not by stepping the program's
incremental detector. The only values taken from the program's memory are
the optimizer's trials, because the files print thresholds to ten digits
and a rounded threshold can flip a confirmation that sits on its boundary.
"""
from __future__ import annotations

import math
import os
from datetime import datetime, timezone

import numpy as np

FIXED_THRESHOLDS = (0.0003, 0.0005, 0.0008, 0.001, 0.0015, 0.002, 0.0025, 0.003)
CAPITAL = 10000.0
WINDOW_MONTHS = 2
STRIDE_MONTHS = 1

_FLOAT_TOL = 1e-6  # percent points; equity files carry ten significant digits


def fmt_ts(ms: int) -> str:
    dt = datetime.fromtimestamp(ms // 1000, tz=timezone.utc)
    return dt.strftime("%Y%m%d %H%M%S") + f"{ms % 1000:03d}"


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _chunks(prices: np.ndarray, start: int):
    """Consecutive slices from ``start``, doubling in length, for first-hit searches."""
    size = 64
    while start < prices.shape[0]:
        yield start, prices[start : start + size]
        start += size
        size = min(size * 2, 1 << 16)


def reference_trades(prices: np.ndarray, ts: np.ndarray, theta: float, alpha: float, capital: float = CAPITAL):
    """Trade log of the ungated long-only DC rule, as (ts, side, price, capital_after, rule) tuples,
    plus the final capital."""
    up_mult = 1.0 + theta
    down_mult = 1.0 - alpha * theta
    target = 1.0 + 2.0 * theta
    trades = []
    units = 0.0
    if prices.shape[0] == 0:
        return trades, capital

    # Neutral start: both running extremes track from tick 0; the downturn
    # test wins a tick that passes both.
    hi = lo = float(prices[0])
    conf, trend, trough = -1, "", 0.0
    for s, seg in _chunks(prices, 1):
        run_hi = np.maximum(np.maximum.accumulate(seg), hi)
        run_lo = np.minimum(np.minimum.accumulate(seg), lo)
        down = seg <= run_hi * down_mult
        up = seg >= run_lo * up_mult
        hit = down | up
        if hit.any():
            k = int(hit.argmax())
            conf = s + k
            if down[k]:
                trend = "down"
            else:
                trend = "up"
                trough = float(run_lo[k])
            break
        hi, lo = float(run_hi[-1]), float(run_lo[-1])

    while conf >= 0:
        p_conf = float(prices[conf])
        if trend == "up":
            # conf is an upturn confirmation: always flat here, so buy.
            units = capital / p_conf
            trades.append((int(ts[conf]), "BUY", p_conf, capital, 1))
            tp_level = target * trough
            hi = p_conf
            nxt = -1
            for s, seg in _chunks(prices, conf + 1):
                run_hi = np.maximum(np.maximum.accumulate(seg), hi)
                down = seg <= run_hi * down_mult
                if units > 0.0:
                    prev_hi = np.concatenate(([hi], run_hi[:-1]))
                    tp = (seg > prev_hi) & (seg >= tp_level)
                    first_down = int(down.argmax()) if down.any() else seg.shape[0]
                    if tp[:first_down].any():
                        k = int(tp.argmax())
                        p = float(seg[k])
                        capital = units * p
                        units = 0.0
                        trades.append((int(ts[s + k]), "SELL", p, capital, 2))
                if down.any():
                    k = int(down.argmax())
                    nxt = s + k
                    break
                hi = float(run_hi[-1])
            if nxt < 0:
                break
            p = float(prices[nxt])
            if units > 0.0:
                capital = units * p
                units = 0.0
                trades.append((int(ts[nxt]), "SELL", p, capital, 3))
            conf, trend = nxt, "down"
        else:
            lo = p_conf
            nxt = -1
            for s, seg in _chunks(prices, conf + 1):
                run_lo = np.minimum(np.minimum.accumulate(seg), lo)
                up = seg >= run_lo * up_mult
                if up.any():
                    k = int(up.argmax())
                    nxt = s + k
                    trough = float(run_lo[k])
                    break
                lo = float(run_lo[-1])
            if nxt < 0:
                break
            conf, trend = nxt, "up"

    if units > 0.0:
        p = float(prices[-1])
        capital = units * p
        trades.append((int(ts[-1]), "SELL", p, capital, 0))
    return trades, capital


def _trade_lines(trades) -> list[str]:
    return [f"{fmt_ts(t)},{side},{p:.10g},{c:.10g},{rule}" for t, side, p, c, rule in trades]


def expected_windows(ts: np.ndarray) -> list[tuple[int, int, int]]:
    """(start, end, train_end) in epoch ms for calendar-month windows over the ticks."""

    def month_index(ms: int) -> int:
        dt = datetime.fromtimestamp(ms / 1000.0, tz=timezone.utc)
        return dt.year * 12 + dt.month - 1

    def month_ms(index: int) -> int:
        y, m = divmod(index, 12)
        return int(datetime(y, m + 1, 1, tzinfo=timezone.utc).timestamp()) * 1000

    first, last = month_index(int(ts[0])), month_index(int(ts[-1]))
    out = []
    k = 0
    while first + k * STRIDE_MONTHS + WINDOW_MONTHS <= last + 1:
        start = month_ms(first + k * STRIDE_MONTHS)
        end = month_ms(first + k * STRIDE_MONTHS + WINDOW_MONTHS)
        out.append((start, end, start + (end - start) // 2))
        k += 1
    return out


def _crr(cap: np.ndarray) -> float:
    return (cap[-1] - cap[0]) / cap[0] * 100.0


def _mdd(cap: np.ndarray) -> float:
    peaks = np.maximum.accumulate(cap)
    return max(float(((peaks - cap) / peaks).max()), 0.0) * 100.0


def _equity(path: str) -> np.ndarray:
    _, rows = _read_csv(path)
    return np.array([float(r[1]) for r in rows])


def _round_trips(lines: list[str]) -> list[tuple[str, str, str, str]]:
    rows = [ln.split(",") for ln in lines]
    return [(b[0], b[2], s[0], s[2]) for b, s in zip(rows[0::2], rows[1::2])]


def check_ingest(parse_result, ticks, n_lines: int) -> list[str]:
    errs = []
    s = parse_result.summary
    if s.rows_read != n_lines or s.rows_dropped != 0:
        errs.append(f"parse: {s.rows_read} rows read, {s.rows_dropped} dropped; file has {n_lines} lines")
    series = parse_result.series
    if not np.array_equal(series.timestamps, ticks.timestamps_ms):
        errs.append("parse: timestamps differ from the generated ones")
    if not np.array_equal(series.prices, (ticks.bids + ticks.asks) / 2.0):
        errs.append("parse: prices differ from the generated mid quotes")
    return errs


def check_outputs(out: str, ticks, strategies: tuple[str, ...], iters: int, trials: list[dict]) -> list[str]:
    """All file-level checks of one backtest output tree.

    ``trials[w]`` maps "OPT_T"/"IDC" to window w's exact optimizer history,
    as (iteration, theta, alpha, objective) rows.
    """
    errs: list[str] = []
    ts = ticks.timestamps_ms
    prices = (ticks.bids + ticks.asks) / 2.0

    wins = expected_windows(ts)
    want = ["window_id,window_start,window_end,train_end"] + [
        f"{i},{fmt_ts(a)},{fmt_ts(b)},{fmt_ts(c)}" for i, (a, b, c) in enumerate(wins)
    ]
    with open(os.path.join(out, "windows.csv"), encoding="utf-8") as fh:
        if fh.read().splitlines() != want:
            errs.append("windows.csv differs from the calendar-month windows")

    _, per_window = _read_csv(os.path.join(out, "per_window.csv"))
    reported = {(int(r[0]), r[1]): (float(r[2]), float(r[3])) for r in per_window}
    crrs: dict[str, list[float]] = {}

    for wid, (start, end, mid) in enumerate(wins):
        wdir = os.path.join(out, f"window_{wid:02d}")
        i0, i_mid, i1 = (int(np.searchsorted(ts, x, side="left")) for x in (start, mid, end))
        test_p, test_ts = prices[i_mid:i1], ts[i_mid:i1]
        where = f"window {wid}"

        def trades_file(name: str) -> list[str]:
            with open(os.path.join(wdir, f"trades_{name}.csv"), encoding="utf-8") as fh:
                return fh.read().splitlines()[1:]

        def expect_trades(name: str, theta: float, alpha: float) -> None:
            got = trades_file(name)
            ref, _ = reference_trades(test_p, test_ts, theta, alpha)
            if got != _trade_lines(ref):
                errs.append(f"{where}: trades_{name}.csv differs from the reference rule ({len(got)} vs {len(ref)} rows)")

        params = _check_trials(wdir, where, strategies, iters, trials[wid] if wid < len(trials) else {}, errs)
        if params is None:
            continue
        names = []
        if "FT" in strategies:
            ft = []
            for theta in FIXED_THRESHOLDS:
                name = f"FT_{theta:g}"
                expect_trades(name, theta, 1.0)
                names.append(name)
                ft.append(reported.get((wid, name), (math.nan, math.nan)))
            if not np.allclose(np.mean(ft, axis=0), reported.get((wid, "FT"), (math.nan, math.nan)), rtol=0, atol=1e-9):
                errs.append(f"{where}: FT row is not the mean of the FT_* rows")
        for name in ("OPT_T", "IDC"):
            if name in strategies:
                expect_trades(name, *params[name])
                names.append(name)
        if "ITA" in strategies:
            names.append("ITA")
            ita = trades_file("ITA")
            ref, _ = reference_trades(test_p, test_ts, *params["ITA"])
            idc = set(_round_trips(_trade_lines(ref)))
            if len(ita) % 2 or not set(_round_trips(ita)) <= idc:
                errs.append(f"{where}: an ITA round trip is not among the ungated rule's round trips")
            _check_model(os.path.join(wdir, "hmm_model.txt"), where, errs)

        for name in names:
            cap = _equity(os.path.join(wdir, f"equity_{name}.csv"))
            got = reported.get((wid, name), (math.nan, math.nan))
            if not (abs(got[0] - _crr(cap)) <= _FLOAT_TOL and abs(got[1] - _mdd(cap)) <= _FLOAT_TOL):
                errs.append(f"{where}: {name} crr/mdd differ from its equity file")
        for name in ("FT", "OPT_T", "IDC", "ITA"):
            if name in strategies:
                crrs.setdefault(name, []).append(reported.get((wid, name), (math.nan,))[0])

        if "IDC" in params:
            # The chosen pair's training-half objective, recomputed.
            _, final = reference_trades(prices[i0:i_mid], ts[i0:i_mid], *params["IDC"])
            if final / CAPITAL - 1.0 != best_objective(trials[wid]["IDC"]):
                errs.append(f"{where}: training objective of the chosen pair differs from its trial")

    _, agg = _read_csv(os.path.join(out, "aggregate.csv"))
    for row in agg:
        values = crrs.get(row[0])
        chained = (np.prod(1.0 + np.array(values) / 100.0) - 1.0) * 100.0 if values else math.nan
        if not abs(float(row[2]) - chained) <= 1e-7 * max(1.0, abs(chained)):
            errs.append(f"aggregate.csv: chained CRR of {row[0]} is not the product of its window CRRs")
    return errs


def best_objective(history) -> float:
    return max(t[3] for t in history)


def _check_trials(wdir, where, strategies, iters, exact, errs) -> dict | None:
    """Check the trials files and params.csv; return the chosen (theta, alpha) per strategy."""
    chosen = {}
    if os.path.exists(os.path.join(wdir, "params.csv")):
        _, rows = _read_csv(os.path.join(wdir, "params.csv"))
        chosen = {r[0]: (r[1], r[2]) for r in rows}
    params = {}
    for trials_name, users in (("OPT_T", ("OPT_T",)), ("IDC", ("IDC", "ITA"))):
        users = [u for u in users if u in strategies]
        if not users:
            continue
        history = exact.get(trials_name, [])
        with open(os.path.join(wdir, f"trials_{trials_name}.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
        want = [f"{it},{theta:.10g},{alpha:.10g},{obj:.10g}" for it, theta, alpha, obj in history]
        if len(lines) != iters or [t[0] for t in history] != list(range(iters)) or lines != want:
            errs.append(f"{where}: trials_{trials_name}.csv does not hold the run's {iters} trials")
            return None
        _, theta, alpha, _ = max(history, key=lambda t: (t[3], -t[0]))
        for u in users:
            params[u] = (theta, alpha)
            if chosen.get(u) != (f"{theta:.10g}", f"{alpha:.10g}"):
                errs.append(f"{where}: params.csv row {u} is not the best trial of trials_{trials_name}.csv")
    return params


def _check_model(path: str, where: str, errs: list[str]) -> None:
    kv = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            kv[key.strip()] = float(value)
    pi = [kv["pi_0"], kv["pi_1"]]
    rows = [[kv["a_00"], kv["a_01"]], [kv["a_10"], kv["a_11"]]]
    ok = abs(sum(pi) - 1.0) < 1e-9 and all(abs(sum(r) - 1.0) < 1e-9 for r in rows)
    ok = ok and kv["var_0"] > 0 and kv["var_1"] > 0
    abnormal = int(kv["abnormal_state"])
    ok = ok and kv[f"mu_{abnormal}"] > kv[f"mu_{1 - abnormal}"]
    if not ok:
        errs.append(f"{where}: hmm_model.txt is not a valid two-state model with the abnormal state on the larger mean")
