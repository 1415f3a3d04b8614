"""Span recorder installed at the program's layer boundaries.

Nothing inside the package changes: each wrapper replaces a public function
in the module namespace where its caller looks the name up, and the
original is put back when the traced call ends. Spans stay in memory with
a link to the span that was open when they began, so a layer's self time
is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.result = None  # the traced run_backtest's return value

    def wrap(self, fn, name, attrs=None):
        """``name`` is a string or a function of the call's kwargs giving one;
        ``attrs(args, kwargs, result)`` returns the span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name if isinstance(name, str) else name(kwargs), self._open[-1] if self._open else -1, 0.0)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if span.parent >= 0:
                    self.spans[span.parent].child_s += span.duration
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def _strategy_span(kwargs) -> str:
    # Optimizer objectives pass record_equity=False; test halves record equity.
    return "strategy.objective" if kwargs.get("record_equity") is False else "strategy.run"


def _keep_result(recorder: Recorder):
    def attrs(args, kwargs, result):
        recorder.result = result
        return {"windows": len(result.windows)}

    return attrs


def _proposals(args, kwargs, result):
    _, history = result
    n_design = min(kwargs.get("n_init", 10), kwargs.get("n_iters", 100))
    return {"evals": len(history), "proposals": len(history) - n_design}


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Patch every traced name for the duration of the ``with`` block."""
    from dcbacktest import bayesopt, cli, hmm, metrics, pipeline, strategy

    ticks = lambda a, k, r: {"ticks": len(a[0])}  # noqa: E731
    targets = [
        (cli, "parse_ticks", "ingest.parse", lambda a, k, r: {"rows": r.summary.rows_read, "dropped": r.summary.rows_dropped}),
        (pipeline, "run_backtest", "pipeline.run_backtest", _keep_result(recorder)),
        (pipeline, "run_strategy", _strategy_span, ticks),
        (strategy, "run_strategy", _strategy_span, ticks),  # the FT suite's lookups
        (pipeline, "optimize", "bayesopt.optimize", _proposals),
        (pipeline, "optimize_theta_only", "bayesopt.optimize", _proposals),
        (pipeline, "fit_baum_welch", "hmm.fit", lambda a, k, r: {"obs": len(a[0]), "em_iters": r.n_iters_run}),
        (strategy, "predict_regime", "hmm.regime_query", lambda a, k, r: {"history": len(a[1])}),
        (cli, "write_window_manifest", "cli.write", None),
        (metrics, "write_report", "cli.write", None),
        (strategy, "write_trades", "cli.write", None),
        (strategy, "write_equity", "cli.write", None),
        (bayesopt, "write_trials", "cli.write", None),
        (hmm, "write_model", "cli.write", None),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for module, attr, name, attrs in targets:
            setattr(module, attr, recorder.wrap(getattr(module, attr), name, attrs))
        yield recorder
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer figures from one traced backtest (times in s unless named)."""
    out: dict[str, float] = {}
    parse = rec.by_name("ingest.parse")
    out["ingest.parse_s"] = sum(s.duration for s in parse)
    out["ingest.rows"] = sum(s.attrs["rows"] for s in parse)
    out["ingest.dropped"] = sum(s.attrs["dropped"] for s in parse)

    obj = rec.by_name("strategy.objective")
    out["strategy.objective_evals"] = len(obj)
    out["strategy.objective_s"] = sum(s.duration for s in obj)
    out["strategy.objective_ticks"] = sum(s.attrs["ticks"] for s in obj)

    run = rec.by_name("strategy.run")
    out["strategy.run_s"] = sum(s.self_s for s in run)
    out["strategy.run_ticks"] = sum(s.attrs["ticks"] for s in run)

    bo = rec.by_name("bayesopt.optimize")
    out["bayesopt.proposals"] = sum(s.attrs["proposals"] for s in bo)
    out["bayesopt.proposal_s"] = sum(s.self_s for s in bo)

    fit = rec.by_name("hmm.fit")
    out["hmm.fit_s"] = sum(s.duration for s in fit)
    out["hmm.fit_obs"] = sum(s.attrs["obs"] for s in fit)
    out["hmm.em_iters"] = sum(s.attrs["em_iters"] for s in fit)

    q = rec.by_name("hmm.regime_query")
    out["hmm.regime_queries"] = len(q)
    out["hmm.regime_query_s"] = sum(s.duration for s in q)
    out["hmm.history_total"] = sum(s.attrs["history"] for s in q)

    out["cli.write_s"] = sum(s.duration for s in rec.by_name("cli.write"))
    top = rec.by_name("pipeline.run_backtest")
    out["pipeline.windows"] = sum(s.attrs["windows"] for s in top)
    out["pipeline.self_s"] = sum(s.self_s for s in top)
    return out
