"""The benchmark's independent output checks, run on small backtests.

``perfbench/checks.py`` rederives a whole output tree from the generator's
tick values: the calendar windows, every trade log from a rescanning
reference rule, CRR and MDD from the equity files, the trial files and
``params.csv``, and chained CRR as a product. Here it checks three small
feeds made by ``perfbench/workloads.py``: one whose lines all share one
byte layout, which ingest decodes as one in-place view; the same ticks with
quotes of varying width, whose lines ingest gathers and splits by layout;
and a feed at 2,500 ticks/day under the ``dense`` workload's threshold box,
whose long trends the DC pass gallops through. In each, every line is a
valid row that fits a decoded layout, so the per-line rule reads none. Each equity file is also compared byte for
byte with a per-row rendering of the curve the run returned.
"""
import importlib
from pathlib import Path
from unittest import mock

import pytest
from oracles import format_timestamp_reference

from dcbacktest import cli, dc, ingest, pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ITERS = 8
# Workload fields per case: the default-density feed, and one at 8x density
# under the ``dense`` workload's box.
DEFAULT_FEED = dict(ticks_per_day=300, strategies="FT,OPT_T,IDC,ITA", theta_bounds="0.0008,0.0015", alpha_bounds="0.5,1")
GALLOP_FEED = dict(ticks_per_day=2500, strategies="IDC,ITA", theta_bounds="0.001,0.00102", alpha_bounds="0.99,1")


def _equity_bytes(curve) -> bytes:
    rows = zip(curve.timestamps.tolist(), curve.capital.tolist())
    return ("timestamp,capital\n" + "".join(f"{format_timestamp_reference(t)},{c:.10g}\n" for t, c in rows)).encode()


def _equity_errors(out: Path, outputs) -> list[str]:
    files = [(out / f"window_{art.window_id:02d}" / f"equity_{name}.csv", curve)
             for art in outputs.artifacts for name, curve in art.curves.items()]
    files += [(out / f"equity_{name}.csv", curve) for name, curve in outputs.chained_equity.items()]
    return [f"{path.relative_to(out)} differs from its curve" for path, curve in files
            if path.read_bytes() != _equity_bytes(curve)]


@pytest.mark.parametrize("layout, feed", [
    ("fixed-width", DEFAULT_FEED), ("varying-width", DEFAULT_FEED), ("gallop-heavy", GALLOP_FEED),
], ids=["fixed-width", "varying-width", "gallop-heavy"])
def test_backtest_tree_passes_the_benchmark_checks(tmp_path, monkeypatch, layout, feed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    w = workloads.Workload(name="tree-oracle", why="", months=3, daily_vol=1.7e-3, iters=ITERS, init=4,
                           hmm_restarts=1, **feed)
    generated, ticks = workloads.prepare(w, 3, str(tmp_path / "inputs"))
    lines = Path(generated).read_text(encoding="utf-8").splitlines()
    if layout == "varying-width":
        # The shortest text of each quote, "1.1" for "1.10000": the same floats.
        fields = [line.split(",") for line in lines]
        lines = [",".join([f[0], repr(float(f[1])), repr(float(f[2]))] + f[3:]) for f in fields]
        assert len({len(line) for line in lines}) > 1
    path = tmp_path / "ticks.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    captured = []
    run_backtest = pipeline.run_backtest

    def capture(*args, **kwargs):
        captured.append(run_backtest(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(pipeline, "run_backtest", capture)
    out = tmp_path / "bt"
    parse_lines = ingest._parse_lines
    read_by_line = []

    def spy(lines, *args):
        lines = list(lines)
        read_by_line.extend(text for _, text in lines)
        return parse_lines(lines, *args)

    with mock.patch.object(ingest, "_parse_lines", spy), \
            mock.patch.object(dc, "_gallop", wraps=dc._gallop) as gallop:
        rc = cli.main([
            "backtest", "--input", str(path), "--out", str(out), "--seed", "5", "--jobs", "1",
            "--strategies", w.strategies, "--iters", str(ITERS), "--init", str(w.init),
            "--theta-bounds", w.theta_bounds, "--alpha-bounds", w.alpha_bounds, "--hmm-restarts", "1",
            "--window-months", str(checks.WINDOW_MONTHS), "--stride-months", str(checks.STRIDE_MONTHS),
            "--capital", repr(checks.CAPITAL), "--fixed-thresholds", ",".join(map(str, checks.FIXED_THRESHOLDS)),
        ])
    assert rc == 0
    assert read_by_line == []
    if layout == "gallop-heavy":
        assert gallop.call_count > 0
    outputs = captured[0]
    trials = [
        {name: [(t.iteration, t.theta, t.alpha, t.objective) for t in history] for name, history in art.trials.items()}
        for art in outputs.artifacts
    ]
    errors = checks.check_ingest(ingest.parse_ticks(path, "SYN"), ticks, len(lines))
    errors += checks.check_outputs(str(out), ticks, tuple(w.strategies.split(",")), ITERS, trials)
    errors += _equity_errors(out, outputs)
    assert errors == []
