"""Deterministic synthetic tick feed with planted high-volatility bursts.

The mid-price follows a geometric random walk whose drift and volatility
switch inside burst episodes; quotes are the mid plus/minus half a relative
spread, rounded to forex precision. Burst rows carry a 0/1 flag column.
Drifts and volatilities are given per tick at 300 ticks a day and rescaled
to the requested density, so a day's drift and spread of moves keep their
size at any density.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .ingest import _add_months, _month_start_ms

__all__ = ["BurstSpec", "SyntheticTicks", "generate_ticks"]

DAY_MS = 86_400_000
# Opening mid-price and relative bid-ask spread of the synthetic quotes.
MID0 = 1.10
SPREAD = 1e-4
# The density at which per-tick drifts and volatilities hold as given; both
# scale factors are exactly 1.0 there, so default feeds keep their bytes.
_REFERENCE_TICKS_PER_DAY = 300


@dataclass(frozen=True)
class BurstSpec:
    """Placement and severity of abnormal-volatility episodes.

    The default negative burst drift both makes bursts costly to trade
    through and suppresses burst uplegs, so burst legs stay a minority of
    the per-leg return-rate observations while their values stand well
    clear of the normal regime's.
    """

    fraction: float = 0.2       # share of ticks inside bursts
    episodes: int = 8           # number of contiguous burst spans
    vol_mult: float = 3.0       # volatility multiplier inside bursts
    drift_per_tick: float = -1e-4  # log-drift per tick inside bursts, at the reference density

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError("burst fraction must be in [0, 1)")
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")


@dataclass
class SyntheticTicks:
    timestamps_ms: np.ndarray
    bids: np.ndarray
    asks: np.ndarray
    flags: np.ndarray


def _burst_flags(n: int, spec: BurstSpec, rng: np.random.Generator) -> np.ndarray:
    flags = np.zeros(n, dtype=np.int64)
    if spec.episodes == 0 or spec.fraction <= 0.0 or n == 0:
        return flags
    episodes = min(spec.episodes, n)
    length = max(int(round(spec.fraction * n / episodes)), 1)
    block = n // episodes
    for j in range(episodes):
        lo = j * block
        hi = min(lo + block, n)
        span = max(hi - lo - length, 1)
        start = lo + int(rng.integers(0, span))
        flags[start : min(start + length, hi)] = 1
    return flags


def generate_ticks(
    seed: int,
    months: int,
    start: datetime | None = None,
    ticks_per_day: int = 300,
    normal_vol: float = 1e-4,
    normal_drift: float = 6e-6,
    burst: BurstSpec | None = None,
) -> SyntheticTicks:
    """Generate ``months`` calendar months of ticks, deterministic per seed."""
    if months < 1:
        raise ValueError("months must be >= 1")
    if ticks_per_day < 1:
        raise ValueError("ticks_per_day must be >= 1")
    start = start or datetime(2019, 1, 1, tzinfo=timezone.utc)
    if start.tzinfo is None:
        start = start.replace(tzinfo=timezone.utc)
    burst = burst or BurstSpec()
    rng = np.random.default_rng(seed)

    start_ms = _month_start_ms(start.year, start.month)
    end_ms = _month_start_ms(*_add_months(start.year, start.month, months))
    span_ms = end_ms - start_ms
    mean_gap_ms = DAY_MS / ticks_per_day

    # Draw gaps in chunks until the span is covered.
    gaps: list[np.ndarray] = []
    total = 0.0
    while total < span_ms:
        chunk = rng.exponential(mean_gap_ms, size=max(int(span_ms / mean_gap_ms * 0.25), 1024))
        gaps.append(chunk)
        total += float(chunk.sum())
    offsets = np.cumsum(np.concatenate(gaps))
    offsets = offsets[offsets < span_ms]
    timestamps = start_ms + offsets.astype(np.int64)
    n = timestamps.shape[0]
    if n == 0:
        timestamps = np.array([start_ms], dtype=np.int64)
        n = 1

    flags = _burst_flags(n, burst, rng)
    scale = _REFERENCE_TICKS_PER_DAY / ticks_per_day
    vol = np.where(flags == 1, normal_vol * burst.vol_mult, normal_vol) * np.sqrt(scale)
    drift = np.where(flags == 1, burst.drift_per_tick, normal_drift) * scale
    steps = drift + vol * rng.standard_normal(n)
    steps[0] = 0.0
    mids = MID0 * np.exp(np.cumsum(steps))

    half = SPREAD / 2.0
    bids = np.round(mids * (1.0 - half), 5)
    asks = np.round(mids * (1.0 + half), 5)
    return SyntheticTicks(timestamps, bids, asks, flags)
