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
from datetime import datetime

import numpy as np

from .ingest import check_prices

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
        if not 0.0 <= self.vol_mult < np.inf:
            raise ValueError("burst volatility multiplier must be finite and >= 0")
        if not np.isfinite(self.drift_per_tick):
            raise ValueError("burst drift must be finite")


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
    """Generate ``months`` calendar months of ticks, deterministic per seed.

    Raises ``ValueError`` when a drift or a volatility is not finite, a
    volatility is negative, the last month ends past the year 9999, or the
    path takes a quote outside the finite positive floats after rounding.
    """
    if months < 1:
        raise ValueError("months must be >= 1")
    if ticks_per_day < 1:
        raise ValueError("ticks_per_day must be >= 1")
    if not 0.0 <= normal_vol < np.inf:
        raise ValueError("normal_vol must be finite and >= 0")
    if not np.isfinite(normal_drift):
        raise ValueError("normal_drift must be finite")
    start = start or datetime(2019, 1, 1)  # only its year and month are read
    first = np.datetime64(f"{start.year:04d}-{start.month:02d}")
    # The feed ends where its last month does, in a year the writer prints.
    if (year := int((first + months).astype(np.int64)) // 12 + 1970) > 9999:
        raise ValueError(f"year {year} is out of range")
    burst = burst or BurstSpec()
    rng = np.random.default_rng(seed)

    start_ms, end_ms = (first + np.array([0, months])).astype("datetime64[ms]").astype(np.int64).tolist()
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
    # A span with no tick keeps one, at its start.
    timestamps = start_ms + offsets.astype(np.int64) if offsets.size else np.array([start_ms], dtype=np.int64)
    n = timestamps.shape[0]

    flags = _burst_flags(n, burst, rng)
    scale = _REFERENCE_TICKS_PER_DAY / ticks_per_day
    vol = np.where(flags == 1, normal_vol * burst.vol_mult, normal_vol) * np.sqrt(scale)
    drift = np.where(flags == 1, burst.drift_per_tick, normal_drift) * scale
    # A path that overflows, underflows or cancels infinities is refused by
    # the quote check below, not warned about.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        steps = drift + vol * rng.standard_normal(n)
        steps[0] = 0.0
        mids = MID0 * np.exp(np.cumsum(steps))
        half = SPREAD / 2.0
        bids = np.round(mids * (1.0 - half), 5)
        asks = np.round(mids * (1.0 + half), 5)
    check_prices(bids)
    check_prices(asks)
    return SyntheticTicks(timestamps, bids, asks, flags)
