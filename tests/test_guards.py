"""Guards on the package's public names and on the benchmark's hooks into them."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dcbacktest

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
