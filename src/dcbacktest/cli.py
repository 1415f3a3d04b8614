"""Command-line driver: summarize, optimize, regimes, backtest, gen-synthetic, report."""
from __future__ import annotations

import argparse
import dataclasses
import os
import re
import shutil
import sys
from datetime import datetime, timezone

import numpy as np

from . import bayesopt, dc, hmm, metrics, pipeline, strategy, synthetic
from .ingest import EmptySeriesError, parse_ticks, write_csv, write_ticks, write_window_manifest


def _load_config(path: str, names: dict[str, str | None]) -> dict[str, str]:
    """Read ``key = value`` lines into ``{dest: value}``; each key must name an
    optional flag of some command (see ``_flag_names``), once."""
    cfg: dict[str, str] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            if key not in names:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if names[key] is None:
                raise ValueError(f"{path}:{lineno}: key {key!r} cannot be set in a config file")
            if names[key] in cfg:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            cfg[names[key]] = value.strip()
    return cfg


def _commands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _flag_names(parser: argparse.ArgumentParser) -> dict[str, str | None]:
    """Every command's long flags, without the leading dashes, each with its
    dest; None for the flags a config file cannot set."""
    return {
        o[2:]: None if a.required or o in ("--help", "--config") else a.dest
        for p in _commands(parser).values() for a in p._actions for o in a.option_strings if o[:2] == "--"
    }


def _option_type(parse):
    """``parse`` as an argparse type: its ValueError's text is the error's reason."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


@_option_type
def _parse_pair(text: str) -> tuple[float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected 'lo,hi', got {text!r}")
    return parts[0], parts[1]


@_option_type
def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _parse_strategies(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


@_option_type
def _parse_date(text: str) -> datetime:
    return datetime.strptime(text, "%Y-%m-%d").replace(tzinfo=timezone.utc)


def _parse_regime(text: str) -> hmm.RegimeLabel:
    try:
        return hmm.RegimeLabel(text)
    except ValueError:
        choices = ", ".join(repr(label.value) for label in hmm.RegimeLabel)
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {choices})") from None


def _seed(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise ValueError("--seed is required (or set 'seed' in the config file)")
    return args.seed


def _add_common_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="tick CSV path")
    p.add_argument("--instrument", default="SYN", help="currency-pair identifier")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="flat key=value config file")


def _add_thresholds(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)


def _add_search(p: argparse.ArgumentParser) -> None:
    """The (theta, alpha) box and the optimizer's budget."""
    p.add_argument("--theta-bounds", type=_parse_pair, default="0.0003,0.003")
    p.add_argument("--alpha-bounds", type=_parse_pair, default="0.1,1")
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--init", type=int, default=10, dest="n_init", metavar="INIT")


def _add_em(p: argparse.ArgumentParser) -> None:
    """The regime model's EM settings."""
    p.add_argument("--hmm-max-iters", type=int, default=200)
    p.add_argument("--hmm-tol", type=float, default=1e-6)
    p.add_argument("--hmm-restarts", type=int, default=5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcbacktest",
        description="Directional-change tick backtesting with regime-gated trading",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="dump DC events and per-leg return rates")
    _add_common_io(p)
    _add_thresholds(p)

    p = sub.add_parser("optimize", help="tune thresholds on a tick file")
    _add_common_io(p)
    _add_search(p)
    p.add_argument("--alpha-fixed", type=float, help="pin alpha (1 = symmetric-threshold search)")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("regimes", help="fit the regime model on a tick file")
    _add_common_io(p)
    _add_thresholds(p)
    p.add_argument("--seed", type=int)
    _add_em(p)

    p = sub.add_parser("backtest", help="run the sliding-window protocol")
    _add_common_io(p)
    p.add_argument("--window-months", type=int, default=2)
    p.add_argument("--stride-months", type=int, default=1)
    _add_search(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--strategies", type=_parse_strategies, default=",".join(strategy.STRATEGIES))
    p.add_argument(
        "--fixed-thresholds", type=_parse_floats, default=",".join(str(t) for t in strategy.DEFAULT_FIXED_THRESHOLDS)
    )
    _add_em(p)
    p.add_argument("--capital", type=float, default=strategy.INITIAL_CAPITAL, dest="initial_capital", metavar="CAPITAL")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument(
        "--force-regime",
        type=_parse_regime,
        metavar="{normal,abnormal}",
        help="debug: override every regime query",
    )

    p = sub.add_parser(
        "gen-synthetic",
        help="write a synthetic tick CSV with planted bursts",
        description="--normal-vol, --normal-drift and --burst-drift are per-tick values at 300 ticks/day; "
        "at N ticks/day drifts scale by 300/N and volatilities by sqrt(300/N), so a day's moves keep their size.",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--months", type=int, default=10)
    p.add_argument("--start", type=_parse_date, default="2019-01-01", help="first month, YYYY-MM-DD")
    p.add_argument("--ticks-per-day", type=int, default=300)
    p.add_argument("--burst-fraction", type=float, default=0.2)
    p.add_argument("--burst-episodes", type=int, default=8)
    p.add_argument("--burst-vol-mult", type=float, default=3.0)
    p.add_argument("--burst-drift", type=float, default=-1e-4)
    p.add_argument("--normal-vol", type=float, default=1e-4)
    p.add_argument("--normal-drift", type=float, default=6e-6)

    p = sub.add_parser("report", help="rebuild aggregate tables from per_window.csv")
    p.add_argument("--input", required=True, help="directory containing per_window.csv")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="flat key=value config file")
    # argparse takes "-1e-4" or "-0.001,0.003" for an option string unless it
    # matches the negative-number pattern; no option here starts "-<digit>".
    for p in (parser, *_commands(parser).values()):
        p._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def _read_series(args: argparse.Namespace, warn_drops: bool = True):
    """Parse the tick file; unless told not to, report dropped rows on stderr."""
    result = parse_ticks(args.input, args.instrument)
    s = result.summary
    if warn_drops and s.rows_dropped:
        print(
            f"warning: dropped {s.rows_dropped} of {s.rows_read} rows "
            f"({s.rows_dropped_malformed} malformed, {s.rows_dropped_out_of_order} out of order)",
            file=sys.stderr,
        )
    return result


def cmd_summarize(args: argparse.Namespace) -> int:
    cfg = dc.DcConfig(args.theta, args.alpha)
    result = _read_series(args, warn_drops=False)  # reported on stdout below
    legs, events = dc.summarize(result.series, cfg)
    os.makedirs(args.out, exist_ok=True)
    dc.write_events(os.path.join(args.out, "events.csv"), result.series.prices, events)
    rates = dc.leg_rates(legs.extreme, legs.extreme_price, result.series.timestamps)
    dc.write_rdc(os.path.join(args.out, "rdc.csv"), rates)
    n_events, n_dc = len(events.kind), len(legs.confirm)
    print(
        f"{n_events} events ({n_dc} DC, {n_events - n_dc} OS), {len(legs.extreme)} extremes, "
        f"{len(rates.value)} rdc points ({np.count_nonzero(~rates.kept)} skipped); "
        f"parsed {result.summary.rows_read} rows, {result.summary.rows_dropped} dropped"
    )
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    seed = _seed(args)
    space = bayesopt.SearchSpace(args.theta_bounds, args.alpha_bounds, args.alpha_fixed)
    bayesopt.check_budget(args.iters, args.n_init)
    result = _read_series(args)
    best, history = bayesopt.optimize(
        pipeline.idc_objective(result.series), space, n_iters=args.iters, n_init=args.n_init, seed=seed
    )
    os.makedirs(args.out, exist_ok=True)
    bayesopt.write_trials(os.path.join(args.out, "trials.csv"), history)
    print(
        f"best theta={best.theta:.6g} alpha={best.alpha:.6g} "
        f"objective={best.objective:.6g} (iteration {best.iteration})"
    )
    return 0


def cmd_regimes(args: argparse.Namespace) -> int:
    seed = _seed(args)
    em = {"max_iters": args.hmm_max_iters, "tol": args.hmm_tol, "n_restarts": args.hmm_restarts}
    hmm.check_fit_settings(**em)
    cfg = dc.DcConfig(args.theta, args.alpha)
    result = _read_series(args)
    rates, fit = pipeline.fit_regime(result.series, cfg, seed, **em)
    path = hmm.viterbi(fit.model, rates.value)
    labels = hmm.label_regimes(fit.model)
    os.makedirs(args.out, exist_ok=True)
    hmm.write_model(os.path.join(args.out, "hmm_model.txt"), fit.model)
    label = np.array([labels[state].value for state in (0, 1)], dtype="S")[path]
    dc.write_rdc(os.path.join(args.out, "regimes.csv"), rates, state=path, label=label)
    abnormal_share = float(np.mean([labels[int(s)] is hmm.RegimeLabel.ABNORMAL for s in path]))
    print(
        f"fitted 2-state model on {len(rates.value)} rdc points: "
        f"means={fit.model.emission_means.tolist()} "
        f"abnormal share={abnormal_share:.1%} loglik={fit.log_likelihood:.4f}"
    )
    return 0


def cmd_backtest(args: argparse.Namespace) -> int:
    _seed(args)
    settings = pipeline.BacktestSettings(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(pipeline.BacktestSettings)}
    )
    result = _read_series(args)
    outputs = pipeline.run_backtest(result.series, settings)

    out = args.out
    os.makedirs(out, exist_ok=True)
    write_window_manifest(os.path.join(out, "windows.csv"), outputs.windows)
    metrics.write_report(outputs.report, out)
    # Each strategy's chained equity file covers the whole test period: a copy
    # of the first window file holding its curve (every curve starts at the
    # initial capital, so that one is scaled by exactly 1.0), then each later
    # curve scaled to the capital the chain ends at so far, kept in ``chained``.
    chained: dict[str, float] = {}
    for art in outputs.artifacts:
        wdir = os.path.join(out, f"window_{art.window_id:02d}")
        os.makedirs(wdir, exist_ok=True)
        for name, trades in art.trades.items():
            strategy.write_trades(os.path.join(wdir, f"trades_{name}.csv"), trades)
        for name, curve in art.curves.items():
            path = os.path.join(wdir, f"equity_{name}.csv")
            strategy.write_equity(path, curve)
            if not len(curve):
                continue
            whole = os.path.join(out, f"equity_{name}.csv")
            if name in chained:
                capital = curve.capital * (chained[name] / curve.capital[0])
                strategy.write_equity(whole, strategy.EquityCurve(curve.timestamps, capital), append=True)
            else:
                shutil.copyfile(path, whole)
                capital = curve.capital
            chained[name] = float(capital[-1])
        for name, trials in art.trials.items():
            bayesopt.write_trials(os.path.join(wdir, f"trials_{name}.csv"), trials)
        if art.regime_model is not None:
            hmm.write_model(os.path.join(wdir, "hmm_model.txt"), art.regime_model)
        if art.params:
            names = sorted(art.params)
            columns = [np.array(names, dtype="S"), *np.array([art.params[name] for name in names]).T]
            write_csv(os.path.join(wdir, "params.csv"), "strategy,theta,alpha", columns)

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


def cmd_gen_synthetic(args: argparse.Namespace) -> int:
    seed = _seed(args)
    spec = synthetic.BurstSpec(args.burst_fraction, args.burst_episodes, args.burst_vol_mult, args.burst_drift)
    ticks = synthetic.generate_ticks(
        seed=seed,
        months=args.months,
        start=args.start,
        ticks_per_day=args.ticks_per_day,
        normal_vol=args.normal_vol,
        normal_drift=args.normal_drift,
        burst=spec,
    )
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    write_ticks(args.out, ticks.timestamps_ms, ticks.bids, ticks.asks, ticks.flags)
    share = float(ticks.flags.mean()) if ticks.flags.size else 0.0
    print(f"wrote {ticks.timestamps_ms.size} ticks to {args.out} (burst share {share:.1%})")
    return 0


def _row_fault(row: metrics.WindowStrategyResult) -> str | None:
    """Why ``backtest`` could not have written ``row``, or None if it could."""
    if row.window_id < 0:
        return f"window id {row.window_id} is negative"
    if not -100.0 <= row.crr_pct < np.inf:
        return f"CRR {row.crr_pct!r} is not a finite percentage of at least -100"
    if not 0.0 <= row.mdd_pct <= 100.0:
        return f"MDD {row.mdd_pct!r} is not a percentage in [0, 100]"
    # Only the FT row averages its thresholds' trade counts.
    if not (0.0 <= row.trades < np.inf and (row.trades.is_integer() or row.strategy == "FT")):
        return f"trade count {row.trades!r} is not a whole number of at least 0"
    return None


def cmd_report(args: argparse.Namespace) -> int:
    src = os.path.join(args.input, "per_window.csv")
    rows: list[metrics.WindowStrategyResult] = []
    seen: set[tuple[int, str]] = set()
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
            fault = _row_fault(row)
            if fault is not None:
                raise ValueError(f"{src}:{lineno}: {fault}")
            if (row.window_id, row.strategy) in seen:
                raise ValueError(f"{src}:{lineno}: duplicate row for window {row.window_id}, strategy {row.strategy}")
            seen.add((row.window_id, row.strategy))
            rows.append(row)
    report = metrics.build_report(rows)
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
    # The config file is read before the one parse, so its values are the
    # chosen command's defaults and its errors come before argparse's. A
    # --config without a path is left for that parse to report.
    find_config = argparse.ArgumentParser(add_help=False)
    find_config.add_argument("--config", nargs="?")
    config = find_config.parse_known_args(argv)[0].config
    try:
        if config:
            # argparse converts a string default with its flag's type, and
            # only when the flag is absent: so a flag beats a config value.
            cfg = _load_config(config, _flag_names(parser))
            for command in _commands(parser).values():
                command.set_defaults(**cfg)
        args = parser.parse_args(argv)
        # Only the full parser reads a path like "-1.cfg" as a value.
        if args.config != config:
            _commands(parser)[args.command].error(f"argument --config: give it as --config={args.config}")
        return _COMMANDS[args.command](args)
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
