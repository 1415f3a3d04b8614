"""Guards on the package's public names, on the benchmark's hooks into
them and on the test configuration."""
import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import dcbacktest
from dcbacktest import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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
    # One span per file of the hooked writers, so none writes past its patched
    # name. Not theirs: params.csv, written by the backtest command itself.
    # metrics.write_report writes per_window.csv and aggregate.csv in one call.
    # With two windows every chained equity curve is new, so none is a copy.
    files = [p.name for p in (tmp_path / "bt").rglob("*") if p.is_file()]
    assert counts["cli.write"] == len(files) - files.count("params.csv") - 1


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(dcbacktest.__path__)))
def test_module_all_entries_resolve(name):
    module = importlib.import_module(f"dcbacktest.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def _private_reaches(source: str) -> list[str]:
    """Each ``from .x import _y`` and each read of ``<sibling>._y`` in a
    package module's source, where ``<sibling>`` is a name bound by
    ``from . import <sibling>``."""
    tree = ast.parse(source)
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
    siblings = {a.asname or a.name for n in imports if n.module is None for a in n.names}
    found = [f"from .{n.module or ''} import {a.name}" for n in imports for a in n.names if a.name.startswith("_")]
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in siblings:
            if n.attr.startswith("_"):
                found.append(f"{n.value.id}.{n.attr}")
    return found


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(dcbacktest.__path__)))
def test_module_reaches_no_other_modules_private_names(name):
    # An underscore name is its module's own: a caller elsewhere in the
    # package would pin it against renames the module makes alone.
    path = Path(dcbacktest.__path__[0]) / f"{name}.py"
    assert _private_reaches(path.read_text(encoding="utf-8")) == []


def test_package_root_imports_no_submodule():
    # Each public name has one import path, its defining module: importing
    # the package or one module loads nothing else of the package.
    code = (
        "import json, sys\n"
        "def new(before): return sorted(m for m in set(sys.modules) - before if m.startswith('dcbacktest'))\n"
        "before = set(sys.modules); import dcbacktest; root = new(before)\n"
        "before = set(sys.modules); import dcbacktest.ingest; print(json.dumps([root, new(before)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [["dcbacktest"], ["dcbacktest.ingest"]]


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # Under the repo's warning filters, hypothesis' report hook must not turn
    # a failing @given test into an INTERNALERROR that stops every later test.
    (tmp_path / "test_throwaway.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 0\n\n\n"
        "def test_passes():\n    pass\n"
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "test_throwaway.py::test_passes PASSED" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
