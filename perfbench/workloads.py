"""Workload table and the seeded tick-file generator behind it.

The generator is the benchmark's own, so a change to the program's
``gen-synthetic`` never changes what the benchmark feeds it. Its model
mirrors that command: exponential inter-tick gaps, a geometric random walk
whose drift and volatility switch inside planted burst episodes, and
quotes at forex 5-decimal precision. Drift and volatility are given per
day and scaled to the tick density, so a denser feed has the same daily
moves spread over more ticks.
"""
from __future__ import annotations

import hashlib
import math
import os
import zlib
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

DAY_MS = 86_400_000
START_YEAR, START_MONTH = 2019, 1
DAILY_DRIFT = 1.8e-3  # log drift per day outside bursts
BURST_SHARE = 0.2  # of ticks
# Many short episodes rather than a few long ones, so every training and
# test half holds about the same burst share and so about the same work.
BURST_EPISODES_PER_MONTH = 8
BURST_VOL_MULT = 3.0
BURST_DAILY_DRIFT = -3.0e-2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    months: int
    ticks_per_day: int
    daily_vol: float  # standard deviation of one day's log move outside bursts
    strategies: str
    iters: int  # optimizer evaluations per window
    init: int = 10  # of which Latin-hypercube design points
    theta_bounds: str = "0.0003,0.003"
    alpha_bounds: str = "0.1,1"
    hmm_restarts: int = 5


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper",
            why="paper protocol at 300 ticks/day, four strategies over three windows: GP/EI proposals are the largest layer",
            months=4,
            ticks_per_day=300,
            daily_vol=1.7e-3,
            strategies="FT,OPT_T,IDC,ITA",
            iters=30,
            theta_bounds="0.0008,0.0015",
            alpha_bounds="0.5,1",
        ),
        Workload(
            name="dense",
            why="8x tick density over one window: the objective-mode tick loop is the largest layer",
            months=2,
            ticks_per_day=2500,
            daily_vol=1.7e-3,
            strategies="IDC,ITA",
            iters=40,
            theta_bounds="0.001,0.00102",
            alpha_bounds="0.99,1",
            hmm_restarts=1,
        ),
        Workload(
            name="dense-fine",
            why="3x density with thresholds far below the daily moves: long leg histories make ITA regime queries the largest layer",
            months=6,
            ticks_per_day=900,
            daily_vol=0.9e-3,
            strategies="IDC,ITA",
            iters=12,
            theta_bounds="0.0003,0.000305",
            alpha_bounds="0.99,1",
            hmm_restarts=1,
        ),
        Workload(
            name="ft-replay",
            why="long dense feed, fixed-threshold suite plus a minimal ITA pass: writers, ingest and recording-mode ticks dominate",
            months=4,
            ticks_per_day=800,
            daily_vol=1.7e-3,
            strategies="FT,ITA",
            iters=6,
            init=5,
            theta_bounds="0.0008,0.0015",
            alpha_bounds="0.5,1",
            hmm_restarts=1,
        ),
    )
}


@dataclass
class Ticks:
    timestamps_ms: np.ndarray  # int64
    bids: np.ndarray  # float64, exactly as the CSV text parses
    asks: np.ndarray


def _month_start_ms(index: int) -> int:
    year, month = divmod(START_YEAR * 12 + START_MONTH - 1 + index, 12)
    return int(datetime(year, month + 1, 1, tzinfo=timezone.utc).timestamp()) * 1000


def _generate(w: Workload, seed: int) -> tuple[Ticks, list[str]]:
    salt = zlib.crc32(w.name.encode())
    rng = np.random.default_rng(np.random.SeedSequence((seed, salt)))
    start_ms, end_ms = _month_start_ms(0), _month_start_ms(w.months)
    span = end_ms - start_ms
    mean_gap = DAY_MS / w.ticks_per_day
    offsets = np.empty(0)
    total = 0.0
    while total < span:
        gaps = rng.exponential(mean_gap, size=int(span / mean_gap * 1.1) + 1024)
        offsets = np.concatenate([offsets, total + np.cumsum(gaps)])
        total = float(offsets[-1])
    ts = start_ms + np.floor(offsets[offsets < span]).astype(np.int64)
    n = ts.size

    episodes = BURST_EPISODES_PER_MONTH * w.months
    flags = np.zeros(n, dtype=np.int64)
    block = n // episodes
    length = int(round(BURST_SHARE * n / episodes))
    for j in range(episodes):
        lo = j * block
        first = lo + int(rng.integers(0, block - length))
        flags[first : first + length] = 1

    per_tick = 1.0 / w.ticks_per_day
    vol = np.where(flags == 1, BURST_VOL_MULT, 1.0) * w.daily_vol * math.sqrt(per_tick)
    drift = np.where(flags == 1, BURST_DAILY_DRIFT, DAILY_DRIFT) * per_tick
    steps = drift + vol * rng.standard_normal(n)
    steps[0] = 0.0
    mids = 1.10 * np.exp(np.cumsum(steps))
    bid_text = [f"{b:.5f}" for b in (mids * (1.0 - 5e-5)).tolist()]
    ask_text = [f"{a:.5f}" for a in (mids * (1.0 + 5e-5)).tolist()]

    days = (ts // DAY_MS).tolist()
    tod = ts % DAY_MS
    hh, rem = np.divmod(tod, 3_600_000)
    mm, rem = np.divmod(rem, 60_000)
    ss, ms = np.divmod(rem, 1000)
    day_text = {
        d: datetime.fromtimestamp(d * 86_400, tz=timezone.utc).strftime("%Y%m%d") for d in set(days)
    }
    lines = [
        f"{day_text[d]} {h:02d}{m:02d}{s:02d}{f:03d},{b},{a},{fl}"
        for d, h, m, s, f, b, a, fl in zip(
            days, hh.tolist(), mm.tolist(), ss.tolist(), ms.tolist(), bid_text, ask_text, flags.tolist()
        )
    ]
    ticks = Ticks(ts, np.array(bid_text, dtype=np.float64), np.array(ask_text, dtype=np.float64))
    return ticks, lines


def prepare(w: Workload, seed: int, cache_dir: str) -> tuple[str, Ticks]:
    """Write (or reuse) the workload's tick CSV for ``seed``; return its path and values."""
    os.makedirs(cache_dir, exist_ok=True)
    with open(__file__, "rb") as fh:  # any edit to the generator invalidates the cache
        spec = hashlib.sha256(fh.read() + repr(sorted(asdict(w).items())).encode()).hexdigest()[:12]
    stem = os.path.join(cache_dir, f"{w.name}-{seed}-{spec}")
    csv_path, npz_path = stem + ".csv", stem + ".npz"
    if os.path.exists(csv_path) and os.path.exists(npz_path):
        with np.load(npz_path) as z:
            return csv_path, Ticks(z["ts"], z["bid"], z["ask"])
    ticks, lines = _generate(w, seed)
    with open(csv_path + ".tmp", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(npz_path + ".tmp", "wb") as fh:
        np.savez(fh, ts=ticks.timestamps_ms, bid=ticks.bids, ask=ticks.asks)
    os.replace(npz_path + ".tmp", npz_path)
    os.replace(csv_path + ".tmp", csv_path)
    return csv_path, ticks
