"""Sliding-window backtest orchestration.

Every window runs the same steps. The threshold searches tune on the
training half, each maximizing IDC's return there: a theta-only search for
OPT_T and a (theta, alpha) search shared by IDC and ITA. Their picks and
the fixed FT thresholds fill one map from run name to test-half rule. For
ITA a regime model is then fitted on the training half's return rates under
ITA's pair (``fit_regime``, the step the ``regimes`` command runs on a whole
file), and gates its buys. Last, one loop runs every rule over the test
half and files its trade log, equity curve and result row; the FT row
averages the ``FT_<theta>`` rows. Per-window seeds derive from the root
seed, so whole runs replay exactly regardless of worker count.

``optimize``, ``optimize_theta_only``, ``fit_baum_welch`` and
``run_strategy`` are looked up in this module's namespace when called, never
kept in a table or a default argument: the benchmark's span recorder
(``perfbench/spans.py``) replaces them here during a traced run.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bayesopt import SearchSpace, Trial, check_budget, optimize, optimize_theta_only
from .dc import DcConfig, LegRates, dc_pass, leg_rates
from .hmm import FitResult, GaussianHmm, RegimeLabel, check_fit_settings, fit_baum_welch
from .ingest import PriceSeries, WindowSplit, check_months, sliding_windows
from .metrics import BacktestReport, WindowStrategyResult, build_report, crr, mdd
from .strategy import INITIAL_CAPITAL, STRATEGIES, EquityCurve, Trades, run_strategy

__all__ = [
    "BacktestSettings", "WindowArtifacts", "BacktestOutputs",
    "idc_objective", "fit_regime", "run_window", "run_backtest",
]


@dataclass(frozen=True)
class BacktestSettings:
    seed: int
    window_months: int
    stride_months: int
    theta_bounds: tuple[float, float]
    alpha_bounds: tuple[float, float]
    iters: int
    n_init: int
    strategies: tuple[str, ...]
    fixed_thresholds: tuple[float, ...]
    hmm_max_iters: int
    hmm_tol: float
    hmm_restarts: int
    force_regime: RegimeLabel | None
    initial_capital: float
    jobs: int

    def __post_init__(self) -> None:
        """Reject settings that would otherwise fail only inside a window,
        after training, or run and report nonsense."""
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise ValueError(f"unknown strategies: {sorted(unknown)}")
        if not self.strategies:
            raise ValueError("at least one strategy must be selected")
        if "FT" in self.strategies:
            if not self.fixed_thresholds:
                raise ValueError("FT needs at least one fixed threshold")
            # Each threshold names its own FT_<theta> detail row and files.
            if len({f"{t:g}" for t in self.fixed_thresholds}) != len(self.fixed_thresholds):
                raise ValueError(f"duplicate fixed thresholds: {list(self.fixed_thresholds)}")
            for theta in self.fixed_thresholds:
                if not 0 < theta < 1:
                    raise ValueError(f"fixed thresholds must lie in (0, 1), got {theta}")
        check_months(self.window_months, self.stride_months)
        SearchSpace(self.theta_bounds, self.alpha_bounds)
        if set(self.strategies) & {"OPT_T", "IDC", "ITA"}:
            check_budget(self.iters, self.n_init)
        check_fit_settings(self.hmm_max_iters, self.hmm_tol, self.hmm_restarts)
        if not 0 < self.initial_capital < np.inf:
            raise ValueError(f"initial capital must be finite and > 0, got {self.initial_capital}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


@dataclass
class WindowArtifacts:
    window_id: int
    rows: list[WindowStrategyResult] = field(default_factory=list)
    trades: dict[str, Trades] = field(default_factory=dict)
    curves: dict[str, EquityCurve] = field(default_factory=dict)
    trials: dict[str, list[Trial]] = field(default_factory=dict)
    params: dict[str, tuple[float, float]] = field(default_factory=dict)
    regime_model: GaussianHmm | None = None


@dataclass
class BacktestOutputs:
    windows: list[WindowSplit]
    artifacts: list[WindowArtifacts]
    report: BacktestReport
    # Whole-period equity per strategy, chained across the consecutive test halves.
    chained_equity: dict[str, EquityCurve]


def _child_seed(root_seed: int, window_id: int, purpose: int) -> int:
    return int(np.random.SeedSequence((root_seed, window_id, purpose)).generate_state(1)[0])


def idc_objective(train: PriceSeries, initial_capital: float = INITIAL_CAPITAL) -> Callable[[float, float], float]:
    """The optimizer's objective: fractional return of the ungated
    asymmetric rule (IDC) over ``train`` under ``(theta, alpha)``."""

    def objective(theta: float, alpha: float) -> float:
        _, curve = run_strategy(train, DcConfig(theta, alpha), initial_capital=initial_capital, record_equity=False)
        return float(curve.capital[-1] / curve.capital[0] - 1.0)

    return objective


def _result_row(window_id: int, name: str, trades: Trades, curve: EquityCurve) -> WindowStrategyResult:
    if len(curve) == 0:
        return WindowStrategyResult(window_id, name, 0.0, 0.0, 0.0)
    # A buy and a sale per round trip.
    return WindowStrategyResult(window_id, name, crr(curve), mdd(curve), float(2 * len(trades.sell_rule)))


def fit_regime(
    series: PriceSeries, config: DcConfig, seed: int, max_iters: int, tol: float, n_restarts: int
) -> tuple[LegRates, FitResult]:
    """Fit the regime model to the return rates of ``series``' legs under ``config``."""
    legs = dc_pass(series.prices, config)
    rates = leg_rates(legs.extreme, legs.extreme_price, series.timestamps)
    try:
        fit = fit_baum_welch(rates.value, max_iters=max_iters, tol=tol, seed=seed, n_restarts=n_restarts)
    except ValueError as exc:
        raise ValueError(
            f"regime model cannot be fitted on {len(rates.value)} return rates "
            f"(theta={config.theta:.6g}, alpha={config.alpha:.6g}): {exc}"
        ) from exc
    return rates, fit


def run_window(
    window_id: int, train: PriceSeries, test: PriceSeries, settings: BacktestSettings
) -> WindowArtifacts:
    """Optimize on the training half and evaluate on the test half."""
    try:
        return _run_window_inner(window_id, train, test, settings)
    except Exception as exc:
        raise RuntimeError(f"window {window_id}: {exc}") from exc


def _run_window_inner(
    window_id: int, train: PriceSeries, test: PriceSeries, settings: BacktestSettings
) -> WindowArtifacts:
    out = WindowArtifacts(window_id)
    wants = set(settings.strategies)
    if wants & {"OPT_T", "IDC", "ITA"} and len(train) == 0:
        raise ValueError("empty training half")
    if len(test) == 0 and len(train) == 0:
        raise ValueError("window contains no ticks")

    # The test-half rule of every selected run; each FT threshold is a run.
    configs: dict[str, DcConfig] = {}
    if "FT" in wants:
        configs.update((f"FT_{theta:g}", DcConfig(theta, 1.0)) for theta in sorted(settings.fixed_thresholds))
    objective = idc_objective(train, settings.initial_capital)
    space = SearchSpace(theta_bounds=settings.theta_bounds, alpha_bounds=settings.alpha_bounds)
    # Each search: its trials' name, its seed purpose and the runs it tunes.
    for search, name, purpose, tuned in (
        (optimize_theta_only, "OPT_T", 1, ("OPT_T",)),
        (optimize, "IDC", 2, ("IDC", "ITA")),
    ):
        runs = [run for run in tuned if run in wants]
        if not runs:
            continue
        best, out.trials[name] = search(
            objective,
            space,
            n_iters=settings.iters,
            n_init=settings.n_init,
            seed=_child_seed(settings.seed, window_id, purpose),
        )
        for run in runs:
            out.params[run] = (best.theta, best.alpha)
            configs[run] = DcConfig(best.theta, best.alpha)

    train_rdc = None
    if "ITA" in wants and settings.force_regime is None:
        em = (settings.hmm_max_iters, settings.hmm_tol, settings.hmm_restarts)
        rates, fit = fit_regime(train, configs["ITA"], _child_seed(settings.seed, window_id, 3), *em)
        train_rdc, out.regime_model = rates.value, fit.model

    for name, cfg in configs.items():
        gate = {}
        if name == "ITA":
            gate = {"regime_model": out.regime_model, "rdc_history": train_rdc, "force_regime": settings.force_regime}
        trades, curve = run_strategy(test, cfg, initial_capital=settings.initial_capital, **gate)
        out.rows.append(_result_row(window_id, name, trades, curve))
        if len(test) or not name.startswith("FT_"):  # FT files nothing for an empty test half
            out.trades[name], out.curves[name] = trades, curve
    ft_rows = [r for r in out.rows if r.strategy.startswith("FT_")]
    if ft_rows:
        columns = zip(*((r.crr_pct, r.mdd_pct, r.trades) for r in ft_rows))
        out.rows.append(WindowStrategyResult(window_id, "FT", *(float(np.mean(c)) for c in columns)))
    return out


def _chain_equity(
    ordered: list[WindowArtifacts], initial_capital: float
) -> dict[str, EquityCurve]:
    names = sorted({name for art in ordered for name in art.curves})
    chained: dict[str, EquityCurve] = {}
    for name in names:
        curves = [art.curves[name] for art in ordered if len(art.curves.get(name, ()))]
        if len(curves) == 1 and curves[0].capital[0] == initial_capital:
            chained[name] = curves[0]  # scaled by exactly 1.0: the window's own curve
            continue
        ts_parts: list[np.ndarray] = []
        cap_parts: list[np.ndarray] = []
        capital = initial_capital
        for curve in curves:
            scale = capital / float(curve.capital[0])
            scaled = curve.capital * scale
            ts_parts.append(curve.timestamps)
            cap_parts.append(scaled)
            capital = float(scaled[-1])
        if ts_parts:
            chained[name] = EquityCurve(np.concatenate(ts_parts), np.concatenate(cap_parts))
    return chained


def run_backtest(series: PriceSeries, settings: BacktestSettings) -> BacktestOutputs:
    """Full sliding-window protocol over one price series."""
    windows = sliding_windows(series, settings.window_months, settings.stride_months)
    if not windows:
        raise ValueError("series does not cover a single full window")

    ids = range(len(windows))
    trains = [series.slice(*w.train_range) for w in windows]
    tests = [series.slice(*w.test_range) for w in windows]
    each = [settings] * len(windows)
    jobs = min(settings.jobs, len(windows))
    if jobs > 1:
        # Imported here: it pulls in multiprocessing, which a serial run never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            ordered = list(pool.map(run_window, ids, trains, tests, each))
    else:
        ordered = list(map(run_window, ids, trains, tests, each))
    report = build_report([r for art in ordered for r in art.rows])
    chained = _chain_equity(ordered, settings.initial_capital)
    return BacktestOutputs(windows, ordered, report, chained)
