"""Tick-data backtesting with asymmetric directional-change events,
HMM regime gating and Bayesian threshold tuning."""

from .bayesopt import SearchSpace, Trial, optimize, optimize_theta_only
from .dc import DcConfig, DcEventRecord, Extreme, summarize
from .hmm import (
    FitResult,
    GaussianHmm,
    RegimeLabel,
    fit_baum_welch,
    label_regimes,
    predict_regime,
    viterbi,
)
from .ingest import (
    EmptySeriesError,
    ParseResult,
    ParseSummary,
    PriceSeries,
    WindowSplit,
    mid_price,
    parse_ticks,
    sliding_windows,
)
from .metrics import BacktestReport, build_report, crr, friedman_ranks, mdd
from .pipeline import BacktestSettings, run_backtest
from .strategy import DEFAULT_FIXED_THRESHOLDS, EquityCurve, TradeEntry, run_strategy

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BacktestReport",
    "BacktestSettings",
    "DcConfig",
    "DcEventRecord",
    "DEFAULT_FIXED_THRESHOLDS",
    "EmptySeriesError",
    "EquityCurve",
    "Extreme",
    "FitResult",
    "GaussianHmm",
    "ParseResult",
    "ParseSummary",
    "PriceSeries",
    "RegimeLabel",
    "SearchSpace",
    "TradeEntry",
    "Trial",
    "WindowSplit",
    "build_report",
    "crr",
    "fit_baum_welch",
    "friedman_ranks",
    "label_regimes",
    "mdd",
    "mid_price",
    "optimize",
    "optimize_theta_only",
    "parse_ticks",
    "predict_regime",
    "run_backtest",
    "run_strategy",
    "sliding_windows",
    "summarize",
    "viterbi",
]
