import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcbacktest.dc import (
    DOWNTURN_DC,
    TROUGH,
    PEAK,
    UPTURN_DC,
    DcConfig,
    Extreme,
    dc_pass,
    rdc_series,
    summarize,
)
from oracles import dc_reference, symmetric_dc_reference


def _as_tuples(events, extremes):
    return (
        [(e.kind, e.start_index, e.end_index, e.start_price, e.end_price) for e in events],
        [(x.index, x.price, x.kind) for x in extremes],
    )


def test_config_validation():
    with pytest.raises(ValueError):
        DcConfig(theta=0.0)
    with pytest.raises(ValueError):
        DcConfig(theta=0.001, alpha=1.5)
    with pytest.raises(ValueError):
        DcConfig(theta=0.5, alpha=0.4)  # theta must be below alpha
    assert DcConfig(0.001, 0.5).down_threshold == pytest.approx(0.0005)


def test_constant_series_has_no_events():
    events, extremes = summarize(np.full(500, 1.2345), DcConfig(0.001, 0.5))
    assert events == [] and extremes == []


def test_empty_series_is_domain_error():
    with pytest.raises(ValueError):
        summarize(np.array([]), DcConfig(0.001, 0.5))


def test_hand_traced_five_tick_fixture():
    prices = [1.0000, 1.0005, 1.0011, 1.0012, 1.0006]
    events, extremes = summarize(np.array(prices), DcConfig(0.001, 0.5))
    assert [(e.kind, e.start_index, e.end_index) for e in events] == [
        (UPTURN_DC, 0, 2),
        (DOWNTURN_DC, 3, 4),
    ]
    assert [(x.index, x.kind) for x in extremes] == [(0, TROUGH), (3, PEAK)]
    # confirmation inequalities from the trace
    assert prices[2] >= 1.0 * 1.001
    assert prices[4] <= prices[3] * (1 - 0.0005)


def test_dc_pass_hand_traced_take_profit():
    # Upturn confirmed at tick 1 from the trough at tick 0; the target is
    # 1.002. Tick 2 is a new high below it, tick 3 the first one at or above.
    prices = np.array([1.0000, 1.0011, 1.0019, 1.0021, 1.0030, 1.0010])
    legs = dc_pass(prices, DcConfig(0.001, 0.5))
    assert legs.confirm == [1, 5]
    assert legs.extreme == [0, 4]
    assert legs.extreme_price == [1.0, 1.003]
    assert legs.upturn == [True, False]
    assert legs.take_profit == [3, -1]


def test_alpha_one_matches_symmetric_detector():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(100, 800))
        prices = 1.2 * np.exp(np.cumsum(rng.normal(0, 3e-4, n)))
        theta = float(rng.uniform(3e-4, 3e-3))
        got = _as_tuples(*summarize(prices, DcConfig(theta, 1.0)))
        ref = symmetric_dc_reference(prices, theta)
        assert got == (ref[0], ref[1])


def test_oracle_equivalence_small_batch():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(50, 600))
        prices = np.exp(np.cumsum(rng.normal(0, 2e-4, n)))
        theta = float(rng.uniform(3e-4, 3e-3))
        alpha = float(rng.uniform(0.1, 1.0))
        got = _as_tuples(*summarize(prices, DcConfig(theta, alpha)))
        assert got == dc_reference(prices, theta, alpha)


def test_theta_monotonicity():
    rng = np.random.default_rng(21)
    prices = np.exp(np.cumsum(rng.normal(0, 3e-4, 2000)))
    thetas = [0.0003, 0.0005, 0.001, 0.002, 0.003]
    for alpha in (0.3, 0.7, 1.0):
        counts = []
        for theta in thetas:
            events, _ = summarize(prices, DcConfig(theta, alpha))
            counts.append(sum(1 for e in events if e.kind in (UPTURN_DC, DOWNTURN_DC)))
        assert counts == sorted(counts, reverse=True)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-0.004, max_value=0.004, allow_nan=False), min_size=2, max_size=300),
    st.floats(min_value=3e-4, max_value=3e-3),
    st.floats(min_value=0.1, max_value=1.0),
)
def test_alternation_property(rel_steps, theta, alpha):
    prices = np.exp(np.cumsum([0.0] + rel_steps))
    events, extremes = summarize(prices, DcConfig(theta, alpha))
    kinds = [x.kind for x in extremes]
    for a, b in zip(kinds, kinds[1:]):
        assert a != b
    dc_kinds = [e.kind for e in events if e.kind in (UPTURN_DC, DOWNTURN_DC)]
    for a, b in zip(dc_kinds, dc_kinds[1:]):
        assert a != b
    # Event ranges are ordered and non-overlapping, except that two adjacent
    # DC events may share exactly one tick: a confirmation tick that is
    # itself the next trend's extreme (the continuous-curve segments share
    # endpoints there).
    for prev, nxt in zip(events, events[1:]):
        assert prev.start_index <= prev.end_index
        assert nxt.start_index >= prev.end_index
        if nxt.start_index == prev.end_index:
            assert prev.kind in (UPTURN_DC, DOWNTURN_DC) and nxt.kind in (UPTURN_DC, DOWNTURN_DC)
    # confirmation inequalities hold for every DC event
    for e in events:
        if e.kind == UPTURN_DC:
            assert e.end_price >= e.start_price * (1 + theta)
        elif e.kind == DOWNTURN_DC:
            assert e.end_price <= e.start_price * (1 - alpha * theta)


def test_rdc_direct_substitution():
    extremes = [Extreme(0, 1.0, TROUGH), Extreme(5, 1.01, PEAK)]
    ts = np.array([0, 1, 2, 3, 4, 100]) * 1000  # T = 100 s
    points, skipped = rdc_series(extremes, ts)
    assert skipped == 0
    assert points[0].value == pytest.approx(1e-4)
    assert points[0].interval_seconds == pytest.approx(100.0)


def test_rdc_zero_numerator():
    extremes = [Extreme(0, 1.0, TROUGH), Extreme(3, 1.0, PEAK)]
    ts = np.array([0, 1000, 2000, 3000])
    points, _ = rdc_series(extremes, ts)
    assert points[0].value == 0.0


def test_rdc_three_extremes_hand_computed():
    extremes = [Extreme(0, 1.0, TROUGH), Extreme(1, 1.002, PEAK), Extreme(2, 1.0005, TROUGH)]
    ts = np.array([0, 50_000, 150_000])
    points, _ = rdc_series(extremes, ts)
    assert [p.value for p in points] == [
        pytest.approx(4e-5),
        pytest.approx(abs(1.0005 - 1.002) / (1.002 * 100.0)),
    ]
    assert points[1].value == pytest.approx(1.4970e-5, rel=1e-3)


def test_rdc_identical_timestamps_skipped():
    extremes = [Extreme(0, 1.0, TROUGH), Extreme(1, 1.01, PEAK), Extreme(2, 1.0, TROUGH)]
    ts = np.array([0, 0, 60_000])
    points, skipped = rdc_series(extremes, ts)
    assert skipped == 1
    assert len(points) == 1


def test_rdc_requires_two_alternating_extremes():
    with pytest.raises(ValueError):
        rdc_series([Extreme(0, 1.0, TROUGH)], np.array([0]))
    with pytest.raises(ValueError):
        rdc_series([Extreme(0, 1.0, TROUGH), Extreme(1, 1.1, TROUGH)], np.array([0, 1000]))
