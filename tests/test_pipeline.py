import numpy as np

from dcbacktest.pipeline import WindowArtifacts, _chain_equity, _child_seed
from dcbacktest.strategy import EquityCurve


def test_child_seeds_distinct_across_roots_windows_and_purposes():
    # An XOR of root and window would make root 6 window 0 and root 7
    # window 1 share every stream.
    keys = [(r, w, p) for r in range(16) for w in range(16) for p in (1, 2, 3)]
    seeds = {_child_seed(*key) for key in keys}
    assert len(seeds) == len(keys)


def _curve(ts, capital):
    return EquityCurve(np.array(ts, dtype=np.int64), np.array(capital, dtype=np.float64))


def test_chained_curve_of_one_window_is_that_window_curve():
    only = _curve([1, 2], [10000.0, 10100.0])
    later = _curve([3, 4], [10000.0, 9900.0])
    arts = [
        WindowArtifacts(0, curves={"IDC": only, "FT_0.001": _curve([], [])}),
        WindowArtifacts(1, curves={"FT_0.001": later}),
    ]
    chained = _chain_equity(arts, 10000.0)
    assert chained["IDC"] is only
    assert chained["FT_0.001"] is later


def test_chained_curve_scales_each_window_to_the_capital_before_it():
    arts = [
        WindowArtifacts(0, curves={"IDC": _curve([1, 2], [10000.0, 11000.0])}),
        WindowArtifacts(1, curves={"IDC": _curve([3, 4], [10000.0, 9000.0])}),
    ]
    chained = _chain_equity(arts, 10000.0)["IDC"]
    assert chained.timestamps.tolist() == [1, 2, 3, 4]
    assert chained.capital.tolist() == [10000.0, 11000.0, 11000.0, 9900.0]
