import numpy as np
import pytest

from dcbacktest.ingest import PriceSeries
from dcbacktest.pipeline import BacktestSettings, _child_seed, run_window
from dcbacktest.strategy import DEFAULT_FIXED_THRESHOLDS


def test_child_seeds_distinct_across_roots_windows_and_purposes():
    # An XOR of root and window would make root 6 window 0 and root 7
    # window 1 share every stream.
    keys = [(r, w, p) for r in range(16) for w in range(16) for p in (1, 2, 3)]
    seeds = {_child_seed(*key) for key in keys}
    assert len(seeds) == len(keys)


def _settings(strategies):
    return BacktestSettings(
        seed=1, window_months=2, stride_months=1, theta_bounds=(0.0003, 0.003), alpha_bounds=(0.1, 1.0),
        iters=4, n_init=2, strategies=strategies, fixed_thresholds=DEFAULT_FIXED_THRESHOLDS,
        hmm_max_iters=10, hmm_tol=1e-6, hmm_restarts=1, force_regime=None, initial_capital=10000.0, jobs=1,
    )


@pytest.mark.parametrize(
    "strategies, test_ticks, message",
    [(("FT", "IDC"), 3, "window 4: empty training half"), (("FT",), 0, "window 4: window contains no ticks")],
    ids=["empty-training-half", "no-ticks"],
)
def test_window_without_the_ticks_it_needs_is_error(strategies, test_ticks, message):
    empty = PriceSeries("X", np.array([], dtype=np.int64), np.array([]))
    test = PriceSeries("X", np.arange(test_ticks) * 1000, np.full(test_ticks, 1.1))
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        run_window(4, empty, test, _settings(strategies))
