"""Command-line driver: summarize, optimize, regimes, backtest, gen-synthetic, report."""
from __future__ import annotations

import argparse
import os
import shutil
import sys
from datetime import datetime, timezone

import numpy as np

from . import bayesopt, dc, hmm, metrics, pipeline, strategy, synthetic
from .ingest import (
    EmptySeriesError,
    parse_ticks,
    write_ticks,
    write_window_manifest,
)

_DEFAULTS: dict[str, object] = {
    "window-months": 2,
    "stride-months": 1,
    "theta-bounds": "0.0003,0.003",
    "alpha-bounds": "0.1,1",
    "iters": 100,
    "init": 10,
    "strategies": ",".join(strategy.STRATEGIES),
    "fixed-thresholds": ",".join(str(t) for t in strategy.DEFAULT_FIXED_THRESHOLDS),
    "hmm-max-iters": 200,
    "hmm-tol": 1e-6,
    "hmm-restarts": 5,
    "capital": strategy.INITIAL_CAPITAL,
    "instrument": "SYN",
    "jobs": os.cpu_count() or 1,
    "months": 10,
    "ticks-per-day": 300,
    "burst-fraction": 0.2,
    "burst-episodes": 8,
    "burst-vol-mult": 3.0,
    "burst-drift": -1e-4,
    "normal-vol": 1e-4,
    "normal-drift": 6e-6,
    "start": "2019-01-01",
}


def _load_config(path: str, keys: set[str]) -> dict[str, str]:
    """Read ``key = value`` lines; each key must name a flag of some command."""
    cfg: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            cfg[key] = value.strip()
    return cfg


def _flag_names(parser: argparse.ArgumentParser) -> set[str]:
    """Every command's long flags, without the leading dashes."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    return {opt[2:] for p in commands.values() for a in p._actions for opt in a.option_strings if opt.startswith("--")}


class _Options:
    """Flag > config-file > default resolution."""

    def __init__(self, args: argparse.Namespace, config_keys: set[str]) -> None:
        self.args = args
        self.cfg = _load_config(args.config, config_keys) if getattr(args, "config", None) else {}

    def get(self, key: str, cast=str):
        flag_value = getattr(self.args, key.replace("-", "_"), None)
        if flag_value is not None:
            return flag_value if not isinstance(flag_value, str) else cast(flag_value)
        if key in self.cfg:
            return cast(self.cfg[key])
        if key in _DEFAULTS:
            default = _DEFAULTS[key]
            return cast(default) if isinstance(default, str) else default
        return None

    def require_seed(self) -> int:
        seed = self.get("seed", int)
        if seed is None:
            raise ValueError("--seed is required (or set 'seed' in the config file)")
        return int(seed)


def _parse_pair(text: str) -> tuple[float, float]:
    parts = [float(p) for p in str(text).split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected 'lo,hi', got {text!r}")
    return parts[0], parts[1]


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in str(text).split(",") if p.strip())


def _parse_strategies(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in str(text).split(",") if p.strip())


def _safe_name(name: str) -> str:
    return name.replace("/", "_").replace("@", "_")


def _add_common_io(p: argparse.ArgumentParser, need_input: bool = True) -> None:
    if need_input:
        p.add_argument("--input", required=True, help="tick CSV path")
    p.add_argument("--instrument", help="currency-pair identifier")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="flat key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcbacktest",
        description="Directional-change tick backtesting with regime-gated trading",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="dump DC events and per-leg return rates")
    _add_common_io(p)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)

    p = sub.add_parser("optimize", help="tune thresholds on a tick file")
    _add_common_io(p)
    p.add_argument("--theta-bounds")
    p.add_argument("--alpha-bounds")
    p.add_argument("--alpha-fixed", type=float, help="pin alpha (1 = symmetric-threshold search)")
    p.add_argument("--iters", type=int)
    p.add_argument("--init", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("regimes", help="fit the regime model on a tick file")
    _add_common_io(p)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--hmm-max-iters", type=int)
    p.add_argument("--hmm-tol", type=float)
    p.add_argument("--hmm-restarts", type=int)

    p = sub.add_parser("backtest", help="run the sliding-window protocol")
    _add_common_io(p)
    p.add_argument("--window-months", type=int)
    p.add_argument("--stride-months", type=int)
    p.add_argument("--theta-bounds")
    p.add_argument("--alpha-bounds")
    p.add_argument("--iters", type=int)
    p.add_argument("--init", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--strategies")
    p.add_argument("--fixed-thresholds")
    p.add_argument("--hmm-max-iters", type=int)
    p.add_argument("--hmm-tol", type=float)
    p.add_argument("--hmm-restarts", type=int)
    p.add_argument("--capital", type=float)
    p.add_argument("--jobs", type=int)
    p.add_argument(
        "--force-regime",
        choices=["normal", "abnormal"],
        help="debug: override every regime query",
    )

    p = sub.add_parser("gen-synthetic", help="write a synthetic tick CSV with planted bursts")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--months", type=int)
    p.add_argument("--start", help="first month, YYYY-MM-DD")
    p.add_argument("--ticks-per-day", type=int)
    p.add_argument("--burst-fraction", type=float)
    p.add_argument("--burst-episodes", type=int)
    p.add_argument("--burst-vol-mult", type=float)
    p.add_argument("--burst-drift", type=float)
    p.add_argument("--normal-vol", type=float)
    p.add_argument("--normal-drift", type=float)

    p = sub.add_parser("report", help="rebuild aggregate tables from per_window.csv")
    p.add_argument("--input", required=True, help="directory containing per_window.csv")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="flat key=value config file")
    return parser


def _read_series(opts: _Options, path: str, warn_drops: bool = True):
    """Parse the tick file; unless told not to, report dropped rows on stderr."""
    instrument = opts.get("instrument") or "SYN"
    result = parse_ticks(path, instrument)
    s = result.summary
    if warn_drops and s.rows_dropped:
        print(
            f"warning: dropped {s.rows_dropped} of {s.rows_read} rows "
            f"({s.rows_dropped_malformed} malformed, {s.rows_dropped_out_of_order} out of order)",
            file=sys.stderr,
        )
    return result


def cmd_summarize(opts: _Options) -> int:
    args = opts.args
    result = _read_series(opts, args.input, warn_drops=False)  # reported on stdout below
    cfg = dc.DcConfig(args.theta, args.alpha)
    events, extremes = dc.summarize(result.series, cfg)
    os.makedirs(args.out, exist_ok=True)
    dc.write_events(os.path.join(args.out, "events.csv"), events)
    rates = dc.leg_rates([e.index for e in extremes], [e.price for e in extremes], result.series.timestamps)
    dc.write_rdc(os.path.join(args.out, "rdc.csv"), rates)
    n_dc = sum(1 for e in events if e.kind in (dc.UPTURN_DC, dc.DOWNTURN_DC))
    n_os = len(events) - n_dc
    print(
        f"{len(events)} events ({n_dc} DC, {n_os} OS), {len(extremes)} extremes, "
        f"{len(rates.value)} rdc points ({np.count_nonzero(~rates.kept)} skipped); "
        f"parsed {result.summary.rows_read} rows, {result.summary.rows_dropped} dropped"
    )
    return 0


def cmd_optimize(opts: _Options) -> int:
    args = opts.args
    seed = opts.require_seed()
    result = _read_series(opts, args.input)
    space = bayesopt.SearchSpace(
        theta_bounds=opts.get("theta-bounds", _parse_pair),
        alpha_bounds=opts.get("alpha-bounds", _parse_pair),
        alpha_fixed=args.alpha_fixed,
    )
    best, history = bayesopt.optimize(
        pipeline.idc_objective(result.series),
        space,
        n_iters=opts.get("iters", int),
        n_init=opts.get("init", int),
        seed=seed,
    )
    os.makedirs(args.out, exist_ok=True)
    bayesopt.write_trials(os.path.join(args.out, "trials.csv"), history)
    print(
        f"best theta={best.theta:.6g} alpha={best.alpha:.6g} "
        f"objective={best.objective:.6g} (iteration {best.iteration})"
    )
    return 0


def cmd_regimes(opts: _Options) -> int:
    args = opts.args
    seed = opts.require_seed()
    em = {
        "max_iters": opts.get("hmm-max-iters", int),
        "tol": opts.get("hmm-tol", float),
        "n_restarts": opts.get("hmm-restarts", int),
    }
    hmm.check_fit_settings(**em)
    result = _read_series(opts, args.input)
    cfg = dc.DcConfig(args.theta, args.alpha)
    legs = dc.dc_pass(result.series.prices, cfg)
    rates = dc.leg_rates(legs.extreme, legs.extreme_price, result.series.timestamps)
    try:
        fit = hmm.fit_baum_welch(rates.value, seed=seed, **em)
    except ValueError as exc:
        raise ValueError(
            f"regime model cannot be fitted on {len(rates.value)} return rates "
            f"(theta={cfg.theta:.6g}, alpha={cfg.alpha:.6g}): {exc}"
        ) from exc
    path = hmm.viterbi(fit.model, rates.value)
    labels = hmm.label_regimes(fit.model)
    os.makedirs(args.out, exist_ok=True)
    hmm.write_model(os.path.join(args.out, "hmm_model.txt"), fit.model)
    with open(os.path.join(args.out, "regimes.csv"), "w", encoding="utf-8") as fh:
        fh.write(dc.RDC_COLUMNS + ",state,label\n")
        for row, state in zip(dc.rdc_rows(rates), path.tolist()):
            fh.write(f"{row},{state},{labels[state].value}\n")
    abnormal_share = float(np.mean([labels[int(s)] is hmm.RegimeLabel.ABNORMAL for s in path]))
    print(
        f"fitted 2-state model on {len(rates.value)} rdc points: "
        f"means={fit.model.emission_means.tolist()} "
        f"abnormal share={abnormal_share:.1%} loglik={fit.log_likelihood:.4f}"
    )
    return 0


def cmd_backtest(opts: _Options) -> int:
    args = opts.args
    seed = opts.require_seed()
    result = _read_series(opts, args.input)
    force = None
    if args.force_regime:
        force = hmm.RegimeLabel.NORMAL if args.force_regime == "normal" else hmm.RegimeLabel.ABNORMAL
    settings = pipeline.BacktestSettings(
        seed=seed,
        window_months=opts.get("window-months", int),
        stride_months=opts.get("stride-months", int),
        theta_bounds=opts.get("theta-bounds", _parse_pair),
        alpha_bounds=opts.get("alpha-bounds", _parse_pair),
        iters=opts.get("iters", int),
        n_init=opts.get("init", int),
        strategies=opts.get("strategies", _parse_strategies),
        fixed_thresholds=opts.get("fixed-thresholds", _parse_floats),
        hmm_max_iters=opts.get("hmm-max-iters", int),
        hmm_tol=opts.get("hmm-tol", float),
        hmm_restarts=opts.get("hmm-restarts", int),
        force_regime=force,
        initial_capital=opts.get("capital", float),
        jobs=opts.get("jobs", int),
    )
    outputs = pipeline.run_backtest(result.series, settings)

    out = args.out
    os.makedirs(out, exist_ok=True)
    write_window_manifest(os.path.join(out, "windows.csv"), outputs.windows)
    metrics.write_report(outputs.report, out)
    written: list[tuple[strategy.EquityCurve, str]] = []
    for art in outputs.artifacts:
        wdir = os.path.join(out, f"window_{art.window_id:02d}")
        os.makedirs(wdir, exist_ok=True)
        for name, log in art.trades.items():
            strategy.write_trades(os.path.join(wdir, f"trades_{_safe_name(name)}.csv"), log)
        for name, curve in art.curves.items():
            path = os.path.join(wdir, f"equity_{_safe_name(name)}.csv")
            strategy.write_equity(path, curve)
            written.append((curve, path))
        for name, trials in art.trials.items():
            bayesopt.write_trials(os.path.join(wdir, f"trials_{_safe_name(name)}.csv"), trials)
        if art.regime_model is not None:
            hmm.write_model(os.path.join(wdir, "hmm_model.txt"), art.regime_model)
        if art.params:
            with open(os.path.join(wdir, "params.csv"), "w", encoding="utf-8") as fh:
                fh.write("strategy,theta,alpha\n")
                for name in sorted(art.params):
                    theta, alpha = art.params[name]
                    fh.write(f"{name},{theta:.10g},{alpha:.10g}\n")
    for name, curve in outputs.chained_equity.items():
        path = os.path.join(out, f"equity_{_safe_name(name)}.csv")
        # A chained curve that is one window's curve has that window's bytes.
        source = next((p for c, p in written if c is curve), None)
        if source is None:
            strategy.write_equity(path, curve)
        else:
            shutil.copyfile(source, path)

    print(f"{len(outputs.windows)} windows, strategies: {','.join(settings.strategies)}")
    for row in outputs.report.aggregate:
        rank = "-" if row.avg_rank is None else f"{row.avg_rank:.4f}"
        print(
            f"  {row.strategy:>6}: mean CRR {row.mean_crr_pct:+.3f}%  chained CRR "
            f"{row.chained_crr_pct:+.3f}%  mean MDD {row.mean_mdd_pct:.3f}%  avg rank {rank}"
        )
    if outputs.report.friedman_statistic is not None:
        verdict = "significant" if outputs.report.friedman_significant else "not significant"
        print(f"  Friedman chi-square {outputs.report.friedman_statistic:.4f} ({verdict} at alpha=0.05)")
    return 0


def cmd_gen_synthetic(opts: _Options) -> int:
    args = opts.args
    seed = opts.require_seed()
    start = datetime.strptime(opts.get("start"), "%Y-%m-%d").replace(tzinfo=timezone.utc)
    spec = synthetic.BurstSpec(
        fraction=opts.get("burst-fraction", float),
        episodes=opts.get("burst-episodes", int),
        vol_mult=opts.get("burst-vol-mult", float),
        drift_per_tick=opts.get("burst-drift", float),
    )
    ticks = synthetic.generate_ticks(
        seed=seed,
        months=opts.get("months", int),
        start=start,
        ticks_per_day=opts.get("ticks-per-day", int),
        normal_vol=opts.get("normal-vol", float),
        normal_drift=opts.get("normal-drift", float),
        burst=spec,
    )
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    write_ticks(args.out, ticks.timestamps_ms, ticks.bids, ticks.asks, ticks.flags)
    share = float(ticks.flags.mean()) if ticks.flags.size else 0.0
    print(f"wrote {ticks.timestamps_ms.size} ticks to {args.out} (burst share {share:.1%})")
    return 0


def cmd_report(opts: _Options) -> int:
    args = opts.args
    src = os.path.join(args.input, "per_window.csv")
    rows: list[metrics.WindowStrategyResult] = []
    detail: list[metrics.WindowStrategyResult] = []
    with open(src, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("window_id,"):
            raise ValueError(f"{src}: unexpected header")
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                wid, name, crr_pct, mdd_pct, trades = line.strip().split(",")
                row = metrics.WindowStrategyResult(int(wid), name, float(crr_pct), float(mdd_pct), float(trades))
            except ValueError as exc:
                raise ValueError(f"{src}:{lineno}: malformed row: {exc}") from None
            (detail if name not in strategy.STRATEGIES else rows).append(row)
    report = metrics.build_report(rows, detail)
    metrics.write_report(report, args.out)
    print(f"rebuilt aggregate over {len({r.window_id for r in rows})} windows")
    return 0


_COMMANDS = {
    "summarize": cmd_summarize,
    "optimize": cmd_optimize,
    "regimes": cmd_regimes,
    "backtest": cmd_backtest,
    "gen-synthetic": cmd_gen_synthetic,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _Options(args, _flag_names(parser))
        return _COMMANDS[args.command](opts)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except (EmptySeriesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
