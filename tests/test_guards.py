"""Guards on the package's public names and on the benchmark's hooks into them."""
import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import dcbacktest
from dcbacktest import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_span_hooks_install(monkeypatch):
    # The traced benchmark wraps named functions in several modules; a
    # rename or removal there must fail here, not only in a benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    from dcbacktest import pipeline

    before = pipeline.run_strategy
    with spans.installed(spans.Recorder()):
        assert pipeline.run_strategy is not before
    assert pipeline.run_strategy is before


def test_benchmark_spans_see_every_call_of_a_backtest(tmp_path, monkeypatch):
    # A runner that kept a hooked function in a table, or passed the series
    # by keyword, would slip past its span and zero a per-layer metric.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    ticks = tmp_path / "ticks.csv"
    assert cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "3", "--months", "3"]) == 0
    iters, windows = 6, 2
    with spans.installed(spans.Recorder()) as rec:
        rc = cli.main([
            "backtest", "--input", str(ticks), "--out", str(tmp_path / "bt"), "--seed", "1", "--jobs", "1",
            "--strategies", "FT,OPT_T,IDC,ITA", "--fixed-thresholds", "0.001,0.002",
            "--iters", str(iters), "--init", "3", "--hmm-restarts", "1",
        ])
    assert rc == 0
    assert len(rec.result.windows) == windows
    want = {
        "strategy.objective": iters * 2 * windows,
        "bayesopt.optimize": 2 * windows,
        "hmm.fit": windows,
        "hmm.regime_query": windows,
        "strategy.run": (2 + 3) * windows,
        "ingest.parse": 1,
        "pipeline.run_backtest": 1,
    }
    counts = Counter(span.name for span in rec.spans)
    assert {name: counts[name] for name in want} == want


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(dcbacktest.__path__)))
def test_module_all_entries_resolve(name):
    module = importlib.import_module(f"dcbacktest.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def test_package_all_matches_its_imports():
    tree = ast.parse(Path(dcbacktest.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert set(dcbacktest.__all__) - {"__version__"} == imported
    assert len(dcbacktest.__all__) == len(set(dcbacktest.__all__))
