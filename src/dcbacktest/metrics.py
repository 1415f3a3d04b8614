"""Return/drawdown metrics, Friedman average rankings and report assembly."""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .strategy import STRATEGIES, EquityCurve

__all__ = [
    "WindowStrategyResult",
    "AggregateRow",
    "BacktestReport",
    "crr",
    "mdd",
    "friedman_ranks",
    "build_report",
    "write_report",
]

def _capital_array(equity: EquityCurve | Sequence[float] | np.ndarray) -> np.ndarray:
    values = equity.capital if isinstance(equity, EquityCurve) else np.asarray(equity, dtype=np.float64)
    if values.size == 0:
        raise ValueError("equity curve must be nonempty")
    return values


def crr(equity: EquityCurve | Sequence[float] | np.ndarray) -> float:
    """Cumulative return rate in percent: (final - initial) / initial."""
    values = _capital_array(equity)
    initial = float(values[0])
    if initial <= 0:
        raise ValueError("initial capital must be positive")
    return (float(values[-1]) - initial) / initial * 100.0


def mdd(equity: EquityCurve | Sequence[float] | np.ndarray) -> float:
    """Maximum drawdown in percent via a single running-maximum pass."""
    values = _capital_array(equity)
    if (values <= 0).any():
        raise ValueError("equity values must be positive")
    peaks = np.maximum.accumulate(values)
    worst = float(((peaks - values) / peaks).max())
    return max(worst, 0.0) * 100.0


def friedman_ranks(results: np.ndarray | Sequence[Sequence[float]]) -> tuple[np.ndarray, float]:
    """Average ranks (1 = highest, ties averaged) per strategy over datasets,
    plus the tie-corrected Friedman chi-square statistic.

    ``results`` is strategies x datasets with no missing cells.
    """
    m = np.asarray(results, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] < 2:
        raise ValueError("need at least 2 strategies and 2 datasets")
    if not np.isfinite(m).all():
        raise ValueError("metric matrix contains missing or non-finite cells")
    k, n = m.shape
    ranks = np.empty_like(m)
    tie_term = 0.0
    for j in range(n):
        _, inverse, counts = np.unique(-m[:, j], return_inverse=True, return_counts=True)
        # Tied values share the mean of the ranks they span.
        ranks[:, j] = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
        tie_term += float((counts**3 - counts).sum())
    rank_sums = ranks.sum(axis=1)
    ssbn = float((rank_sums**2).sum())
    statistic = 12.0 / (n * k * (k + 1)) * ssbn - 3.0 * n * (k + 1)
    correction = 1.0 - tie_term / (n * k * (k * k - 1))
    statistic = 0.0 if correction == 0.0 else statistic / correction
    return ranks.mean(axis=1), statistic


# 95th percentile of chi-square with 1..7 degrees of freedom, as
# scipy.stats.chi2.ppf(0.95, df) gives it.
_CHI2_95 = (
    3.841458820694124,
    5.991464547107979,
    7.814727903251179,
    9.487729036781154,
    11.070497693516351,
    12.591587243743977,
    14.067140449340169,
)


def _friedman_critical_value(k: int) -> float:
    """95th percentile of chi-square with ``k - 1`` degrees of freedom (2 <= k <= 8)."""
    if not 2 <= k <= len(_CHI2_95) + 1:
        raise ValueError(f"Friedman critical value tabulated for 2..{len(_CHI2_95) + 1} strategies, got {k}")
    return _CHI2_95[k - 2]


@dataclass(frozen=True)
class WindowStrategyResult:
    window_id: int
    strategy: str
    crr_pct: float
    mdd_pct: float
    trades: float


@dataclass(frozen=True)
class AggregateRow:
    strategy: str
    mean_crr_pct: float
    chained_crr_pct: float
    mean_mdd_pct: float
    avg_rank: float | None


@dataclass
class BacktestReport:
    per_window: list[WindowStrategyResult]
    aggregate: list[AggregateRow]
    friedman_statistic: float | None = None
    friedman_significant: bool | None = None


def _strategy_sort_key(name: str) -> tuple[int, str]:
    try:
        return (STRATEGIES.index(name), name)
    except ValueError:
        return (len(STRATEGIES), name)


def build_report(runs: Iterable[WindowStrategyResult]) -> BacktestReport:
    """Aggregate per-window results per strategy.

    Every row goes into the per-window table, but only rows of the
    ``STRATEGIES`` enter the aggregate and the rankings; the rest (e.g. the
    individual fixed thresholds behind the FT average) are detail. Mean CRR
    averages windows; chained CRR compounds them. The avg_rank column ranks
    window CRRs (higher better) and is omitted when fewer than two
    strategies share every window.
    """
    per_window = sorted(runs, key=lambda r: (r.window_id, _strategy_sort_key(r.strategy)))
    principal = [r for r in per_window if r.strategy in STRATEGIES]
    if not principal:
        raise ValueError("no completed runs to report")

    strategies = sorted({r.strategy for r in principal}, key=_strategy_sort_key)
    windows = sorted({r.window_id for r in principal})
    by_key = {(r.window_id, r.strategy): r for r in principal}

    avg_ranks: dict[str, float] = {}
    statistic: float | None = None
    significant: bool | None = None
    complete = all((w, s) in by_key for w in windows for s in strategies)
    if complete and len(strategies) >= 2 and len(windows) >= 2:
        matrix = np.array([[by_key[(w, s)].crr_pct for w in windows] for s in strategies])
        ranks, statistic = friedman_ranks(matrix)
        avg_ranks = dict(zip(strategies, ranks.tolist()))
        significant = statistic > _friedman_critical_value(len(strategies))

    aggregate: list[AggregateRow] = []
    for s in strategies:
        rows = [by_key[(w, s)] for w in windows if (w, s) in by_key]
        crrs = np.array([r.crr_pct for r in rows])
        mdds = np.array([r.mdd_pct for r in rows])
        chained = (np.prod(1.0 + crrs / 100.0) - 1.0) * 100.0
        aggregate.append(
            AggregateRow(
                strategy=s,
                mean_crr_pct=float(crrs.mean()),
                chained_crr_pct=float(chained),
                mean_mdd_pct=float(mdds.mean()),
                avg_rank=avg_ranks.get(s),
            )
        )
    return BacktestReport(per_window, aggregate, statistic, significant)


def write_report(report: BacktestReport, out_dir: str | os.PathLike) -> None:
    os.makedirs(out_dir, exist_ok=True)
    # Shortest round-trip float formatting: per_window.csv is re-ingested by
    # the report rebuild and must reproduce the aggregates bit for bit.
    with open(os.path.join(out_dir, "per_window.csv"), "w", encoding="utf-8") as fh:
        fh.write("window_id,strategy,crr_pct,mdd_pct,trades\n")
        for r in report.per_window:
            fh.write(f"{r.window_id},{r.strategy},{r.crr_pct!r},{r.mdd_pct!r},{r.trades!r}\n")
    with open(os.path.join(out_dir, "aggregate.csv"), "w", encoding="utf-8") as fh:
        fh.write("strategy,mean_crr_pct,chained_crr_pct,mean_mdd_pct,avg_rank\n")
        for row in report.aggregate:
            rank = "" if row.avg_rank is None else f"{row.avg_rank:.10g}"
            fh.write(
                f"{row.strategy},{row.mean_crr_pct:.10g},{row.chained_crr_pct:.10g},"
                f"{row.mean_mdd_pct:.10g},{rank}\n"
            )
