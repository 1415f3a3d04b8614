"""The benchmark's independent output checks, run on small backtests.

``perfbench/checks.py`` rederives a whole output tree from the generator's
tick values: the calendar windows, every trade log from a rescanning
reference rule, CRR and MDD from the equity files, the trial files and
``params.csv``, and chained CRR as a product. Here it checks two small
feeds made by ``perfbench/workloads.py``: one whose lines all share one
byte layout, which the fixed-width ingest tier reads, and the same ticks
with quotes of varying width, which the gather tier reads. Each equity file
is also compared byte for byte with a per-row rendering of the curve the
run returned.
"""
import importlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from oracles import format_timestamp_reference

from dcbacktest import cli, ingest, pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
STRATEGIES = "FT,OPT_T,IDC,ITA"
ITERS = 8


def _equity_bytes(curve) -> bytes:
    rows = zip(curve.timestamps.tolist(), curve.capital.tolist())
    return ("timestamp,capital\n" + "".join(f"{format_timestamp_reference(t)},{c:.10g}\n" for t, c in rows)).encode()


def _equity_errors(out: Path, outputs) -> list[str]:
    files = [(out / f"window_{art.window_id:02d}" / f"equity_{name}.csv", curve)
             for art in outputs.artifacts for name, curve in art.curves.items()]
    files += [(out / f"equity_{name}.csv", curve) for name, curve in outputs.chained_equity.items()]
    return [f"{path.relative_to(out)} differs from its curve" for path, curve in files
            if path.read_bytes() != _equity_bytes(curve)]


@pytest.mark.parametrize("layout", ["fixed-width", "varying-width"])
def test_backtest_tree_passes_the_benchmark_checks(tmp_path, monkeypatch, layout):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    w = workloads.Workload(
        name="tree-oracle", why="", months=3, ticks_per_day=300, daily_vol=1.7e-3, strategies=STRATEGIES,
        iters=ITERS, init=4, theta_bounds="0.0008,0.0015", alpha_bounds="0.5,1", hmm_restarts=1,
    )
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
    with mock.patch.object(ingest.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        rc = cli.main([
            "backtest", "--input", str(path), "--out", str(out), "--seed", "5", "--jobs", "1",
            "--strategies", STRATEGIES, "--iters", str(ITERS), "--init", str(w.init),
            "--theta-bounds", w.theta_bounds, "--alpha-bounds", w.alpha_bounds, "--hmm-restarts", "1",
            "--window-months", str(checks.WINDOW_MONTHS), "--stride-months", str(checks.STRIDE_MONTHS),
            "--capital", repr(checks.CAPITAL), "--fixed-thresholds", ",".join(map(str, checks.FIXED_THRESHOLDS)),
        ])
    assert rc == 0
    assert loadtxt.call_count == (layout == "varying-width")
    outputs = captured[0]
    trials = [
        {name: [(t.iteration, t.theta, t.alpha, t.objective) for t in history] for name, history in art.trials.items()}
        for art in outputs.artifacts
    ]
    errors = checks.check_ingest(ingest.parse_ticks(path, "SYN"), ticks, len(lines))
    errors += checks.check_outputs(str(out), ticks, tuple(STRATEGIES.split(",")), ITERS, trials)
    errors += _equity_errors(out, outputs)
    assert errors == []
