import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcbacktest import dc, ingest
from dcbacktest.dc import (
    DOWNTURN_DC,
    UPTURN_DC,
    DcConfig,
    dc_pass,
    leg_rates,
    summarize,
    write_events,
)
from oracles import (
    dc_pass_reference,
    dc_reference,
    event_rows,
    jump_index_reference,
    leg_rates_reference,
    symmetric_dc_reference,
)


def _as_tuples(prices, config):
    return event_rows(prices, *summarize(prices, config))


def test_config_validation():
    with pytest.raises(ValueError):
        DcConfig(theta=0.0)
    with pytest.raises(ValueError):
        DcConfig(theta=0.001, alpha=1.5)
    with pytest.raises(ValueError):
        DcConfig(theta=0.5, alpha=0.4)  # theta must be below alpha


def test_constant_series_has_no_events():
    events, extremes = _as_tuples(np.full(500, 1.2345), DcConfig(0.001, 0.5))
    assert events == [] and extremes == []


def test_empty_series_is_domain_error():
    with pytest.raises(ValueError):
        summarize(np.array([]), DcConfig(0.001, 0.5))


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf, 0.0, -1.0])
@pytest.mark.parametrize("as_list", [False, True])
def test_summarize_rejects_bad_raw_price_like_price_series(bad, as_list):
    prices = np.array([1.0, 1.01, bad, 1.0, 0.9])
    with pytest.raises(ValueError, match=f"finite and positive, got {float(bad)!r} at index 2$"):
        summarize(prices.tolist() if as_list else prices, DcConfig(0.001, 0.5))


def test_hand_traced_five_tick_fixture():
    prices = [1.0000, 1.0005, 1.0011, 1.0012, 1.0006]
    events, extremes = _as_tuples(prices, DcConfig(0.001, 0.5))
    assert [(kind, start, end) for kind, start, end, _, _ in events] == [
        (UPTURN_DC, 0, 2),
        (DOWNTURN_DC, 3, 4),
    ]
    assert [(index, kind) for index, _, kind in extremes] == [(0, "trough"), (3, "peak")]
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
        got = _as_tuples(prices, DcConfig(theta, 1.0))
        ref = symmetric_dc_reference(prices, theta)
        assert got == (ref[0], ref[1])


def test_oracle_equivalence_small_batch():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(50, 600))
        prices = np.exp(np.cumsum(rng.normal(0, 2e-4, n)))
        theta = float(rng.uniform(3e-4, 3e-3))
        alpha = float(rng.uniform(0.1, 1.0))
        got = _as_tuples(prices, DcConfig(theta, alpha))
        assert got == dc_reference(prices, theta, alpha)


def test_theta_monotonicity():
    rng = np.random.default_rng(21)
    prices = np.exp(np.cumsum(rng.normal(0, 3e-4, 2000)))
    thetas = [0.0003, 0.0005, 0.001, 0.002, 0.003]
    for alpha in (0.3, 0.7, 1.0):
        counts = []
        for theta in thetas:
            events, _ = _as_tuples(prices, DcConfig(theta, alpha))
            counts.append(sum(1 for e in events if e[0] in (UPTURN_DC, DOWNTURN_DC)))
        assert counts == sorted(counts, reverse=True)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-0.004, max_value=0.004, allow_nan=False), min_size=2, max_size=300),
    st.floats(min_value=3e-4, max_value=3e-3),
    st.floats(min_value=0.1, max_value=1.0),
)
def test_alternation_property(rel_steps, theta, alpha):
    prices = np.exp(np.cumsum([0.0] + rel_steps))
    events, extremes = _as_tuples(prices, DcConfig(theta, alpha))
    kinds = [kind for _, _, kind in extremes]
    for a, b in zip(kinds, kinds[1:]):
        assert a != b
    dc_kinds = [kind for kind, *_ in events if kind in (UPTURN_DC, DOWNTURN_DC)]
    for a, b in zip(dc_kinds, dc_kinds[1:]):
        assert a != b
    # Event ranges are ordered and non-overlapping, except that two adjacent
    # DC events may share exactly one tick: a confirmation tick that is
    # itself the next trend's extreme (the continuous-curve segments share
    # endpoints there).
    for (kind, start, end, _, _), (next_kind, next_start, _, _, _) in zip(events, events[1:]):
        assert start <= end
        assert next_start >= end
        if next_start == end:
            assert kind in (UPTURN_DC, DOWNTURN_DC) and next_kind in (UPTURN_DC, DOWNTURN_DC)
    # confirmation inequalities hold for every DC event
    for kind, _, _, start_price, end_price in events:
        if kind == UPTURN_DC:
            assert end_price >= start_price * (1 + theta)
        elif kind == DOWNTURN_DC:
            assert end_price <= start_price * (1 - alpha * theta)


@pytest.mark.parametrize(
    "prices, spans",
    [
        ([1.0, 1.0005, 1.0011, 1.0012, 1.0006], [("UpturnDC", 0, 2), ("DownturnDC", 3, 4)]),
        (
            [1.0, 1.0011, 1.002, 1.003, 1.002, 1.001, 1.0, 1.0015],
            [("UpturnDC", 0, 1), ("UpOS", 2, 2), ("DownturnDC", 3, 4), ("DownOS", 5, 5), ("UpturnDC", 6, 7)],
        ),
        # The upturn's confirmation tick is also the downturn's extreme.
        ([1.0, 1.0011, 1.0004], [("UpturnDC", 0, 1), ("DownturnDC", 1, 2)]),
        ([1.2345] * 20, []),
    ],
    ids=["dc-only", "with-os", "confirmation-is-next-extreme", "constant"],
)
def test_write_events_bytes_match_per_row_formula(tmp_path, prices, spans):
    path = tmp_path / "events.csv"
    write_events(path, np.array(prices), summarize(prices, DcConfig(0.001, 0.5))[1])
    events, _ = dc_reference(np.array(prices), 0.001, 0.5)
    assert [row[:3] for row in events] == spans
    want = "kind,start_index,end_index,start_price,end_price\n" + "".join(
        f"{kind},{start},{end},{p:.10g},{q:.10g}\n" for kind, start, end, p, q in events
    )
    assert path.read_bytes() == want.encode()


# Values of every .10g text path: ten-digit roundings, a tie, values below
# 1 and of 1e10 and up, zero, negatives and NaN.
_RDC_VALUES = [1.5e-7, 0.5, 2.5, 1234567890.5, 1e10, 3.25e12, float("nan"), -2.0, 12.345678901, 0.0, 1e-4]


def _rdc_formula(rates) -> list[str]:
    cols = (rates.from_index, rates.to_index, rates.interval_seconds, rates.value)
    return [f"{a},{b},{t:.10g},{v:.10g}" for a, b, t, v in zip(*(c.tolist() for c in cols))]


def test_write_rdc_bytes_match_per_row_formula(tmp_path, monkeypatch):
    # Blocks of three rows, so the file spans several formatting blocks.
    monkeypatch.setattr(ingest, "FORMAT_BLOCK", 3)
    n = len(_RDC_VALUES)
    index = np.arange(n, dtype=np.intp) * 1_234_567
    index[-1] = 12_345_678_901_234
    rates = dc.LegRates(index, index + 1, np.geomspace(0.001, 1e11, n), np.array(_RDC_VALUES), np.ones(n, dtype=bool))
    path = tmp_path / "rdc.csv"
    dc.write_rdc(path, rates)
    expected = "from_index,to_index,interval_seconds,value\n" + "".join(row + "\n" for row in _rdc_formula(rates))
    assert path.read_bytes() == expected.encode("ascii")
    empty = np.empty(0, dtype=np.intp)
    dc.write_rdc(path, dc.LegRates(empty, empty, np.empty(0), np.empty(0), np.empty(0, dtype=bool)))
    assert path.read_bytes() == b"from_index,to_index,interval_seconds,value\n"


def _rates(index, price, ts):
    return leg_rates(index, price, np.asarray(ts, dtype=np.int64))


def test_rdc_direct_substitution():
    ts = np.array([0, 1, 2, 3, 4, 100]) * 1000  # T = 100 s
    rates = _rates([0, 5], [1.0, 1.01], ts)
    assert rates.kept.tolist() == [True]
    assert rates.value[0] == pytest.approx(1e-4)
    assert rates.interval_seconds[0] == pytest.approx(100.0)
    assert (rates.from_index.tolist(), rates.to_index.tolist()) == ([0], [5])


def test_rdc_zero_numerator():
    ts = np.array([0, 1000, 2000, 3000])
    assert _rates([0, 3], [1.0, 1.0], ts).value.tolist() == [0.0]


def test_rdc_three_extremes_hand_computed():
    ts = np.array([0, 50_000, 150_000])
    values = _rates([0, 1, 2], [1.0, 1.002, 1.0005], ts).value
    assert values.tolist() == [
        pytest.approx(4e-5),
        pytest.approx(abs(1.0005 - 1.002) / (1.002 * 100.0)),
    ]
    assert values[1] == pytest.approx(1.4970e-5, rel=1e-3)


def test_rdc_identical_timestamps_skipped():
    ts = np.array([0, 0, 60_000])
    rates = _rates([0, 1, 2], [1.0, 1.01, 1.0], ts)
    assert rates.kept.tolist() == [False, True]
    assert (rates.from_index.tolist(), rates.to_index.tolist()) == ([1], [2])
    assert len(rates.value) == len(rates.interval_seconds) == 1


@pytest.mark.parametrize("n", [0, 1])
def test_rdc_fewer_than_two_extremes_give_no_rows(n):
    rates = leg_rates(list(range(n)), [1.0] * n, np.zeros(3, dtype=np.int64))
    assert [len(col) for col in rates] == [0] * 5
    assert rates.value.dtype == np.float64 and rates.kept.dtype == bool


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 3), st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)),
        max_size=40,
    ),
    t0=st.integers(0, 2 * 10**12),
)
def test_leg_rates_matches_per_leg_reference(data, t0):
    # Gaps of 0 ms make zero-interval legs; every kept row must equal the
    # reference bit for bit, and no division may warn.
    extreme = [2 * k for k in range(len(data))]
    price = [p for _, p in data]
    ts = np.repeat(t0 + np.cumsum([0] + [g * 250 for g, _ in data[1:]]), 2).astype(np.int64)
    with np.errstate(all="raise"):
        got = leg_rates(extreme, price, ts)
    ref = leg_rates_reference(extreme, price, ts)
    assert got.kept.tolist() == [r is not None for r in ref]
    rows = list(zip(got.from_index.tolist(), got.to_index.tolist(), got.interval_seconds.tolist(), got.value.tolist()))
    assert rows == [r for r in ref if r is not None]


# --- dc_pass's walk over the jump index against the per-tick reference ----
#
# The ``test_gallop_*`` names date from a pass that galloped through long
# trends in numpy chunks; each pins the same edge of the walk that replaced it.

THETA, ALPHA = 1e-3, 0.5
CFG = DcConfig(THETA, ALPHA)
RISE = THETA / 50  # log step per tick of a zigzag run, far below both thresholds


def _path(*segments):
    """Prices from a start of 1.25 and consecutive log-step arrays."""
    steps = np.concatenate([np.asarray(s, dtype=np.float64) for s in segments])
    return 1.25 * np.exp(np.concatenate(([0.0], np.cumsum(steps))))


def _runs(*lengths):
    """Log steps of monotone runs: a positive length rises, a negative one falls."""
    return np.concatenate([np.full(abs(k), RISE if k > 0 else -RISE) for k in lengths])


# Six trends of ≈ 1000 ticks before each fixture's last trend.
WARM_UP = _runs(1000, -1000, 1000, -1000, 1000, -1000)
# A rise in teeth of 12 ticks up and 5 down: after each tooth's top the walk
# jumps over a pullback far above the reversal price.
TEETH = np.tile(_runs(12, -5), 300)


class _Reads:
    """An index array that logs every position it is read at."""

    def __init__(self, view, log):
        self.view, self.log = view, log

    def __getitem__(self, i):
        self.log.append(i)
        return self.view[i]


def _walk(monkeypatch, prices, config=CFG, index=None):
    """dc_pass's output, checked against the reference, and its walk: every
    jump as (from, to), every tick whose stretch was searched for the
    reversal, and the pointer reads (hops) of each trend's walk."""
    jumps, entered, hops, up, rising_nu = [], [], [], [], []

    def spy(p, nu, lob, nd, *rest):
        if not up:  # the neutral start walks the rising side first
            rising_nu.append(nu)
        up.append(nu is rising_nu[0])  # a falling walk gets the rising side's nd as nu
        steps, tested, chain = [], [], []
        # The trend side's pointer and bound, and the pointer of the reversal search.
        out = walk(p, _Reads(nu, steps), _Reads(lob, tested), _Reads(nd, chain), *rest)
        jumps.extend((j, nu[j]) for j in steps)
        entered.extend(tested[len(steps):])  # a tested stretch the walk did not jump over
        hops.append(len(steps) + len(chain))
        return out

    walk = dc._walk
    monkeypatch.setattr(dc, "_walk", spy)
    got = dc_pass(prices, config, index)
    monkeypatch.undo()
    assert tuple(got) == dc_pass_reference(prices, config.theta, config.alpha)
    assert up == [True, False, *got.upturn]  # the neutral start's two walks, then each trend's
    return got, jumps, entered, hops


def _last_trend(monkeypatch, up=True):
    """A series ending in one long trend of ``TEETH``, rising or falling, its
    confirmation, and the jumps over a pullback the walk makes in it, each
    from a strict new extreme."""
    prices = _path(WARM_UP, TEETH if up else -TEETH)
    legs, jumps, _, _ = _walk(monkeypatch, prices)
    c = legs.confirm[-1]
    assert legs.upturn[-1] == up and c < len(WARM_UP) + 200
    side = prices if up else -prices
    tops = [(j, k) for j, k in jumps if c <= j and j + 1 < k < len(prices) and side[j] > side[c:j].max(initial=-np.inf)]
    assert len(tops) > 100
    return prices, c, tops


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    vols=st.lists(st.one_of(st.floats(0.02, 0.08), st.floats(0.08, 1.0)), min_size=1, max_size=5),
    theta=st.floats(3e-4, 3e-3),
    alpha_share=st.floats(0.01, 1.0),
    grid=st.booleans(),
)
def test_dc_pass_matches_per_tick_reference_on_long_trends(seed, vols, theta, alpha_share, grid):
    # Segments of a few thousand ticks, each with its own step size relative
    # to theta: small steps make trends of thousands of ticks (long jumps),
    # large ones short trends (few ticks per stretch).
    alpha = theta + (1.0 - theta) * alpha_share
    rng = np.random.default_rng(seed)
    steps = [rng.normal(0.0, v * theta, int(rng.integers(1000, 8000))) for v in vols]
    if grid:  # steps on a coarse grid: many ticks equal an earlier extreme
        steps = [np.round(s / (0.05 * theta)) * (0.05 * theta) for s in steps]
    prices = _path(*steps)
    assert tuple(dc_pass(prices, DcConfig(theta, alpha))) == dc_pass_reference(prices, theta, alpha)


@settings(max_examples=200, deadline=None)
@given(
    values=st.one_of(
        st.lists(st.floats(0.5, 2.0), min_size=1, max_size=300),
        st.lists(st.integers(1, 6).map(float), min_size=1, max_size=300),  # grid-tied: many equal ticks
    ),
    rounds=st.sampled_from([0, 1, 3, dc.JUMP_ROUNDS, 1_000]),
    chunk=st.sampled_from([5, 64, dc._CHUNK]),
)
def test_jump_index_matches_interval_reference(values, rounds, chunk):
    prices = np.array(values)
    with mock.patch.object(dc, "JUMP_ROUNDS", rounds), mock.patch.object(dc, "_CHUNK", chunk):
        index = dc.jump_index(prices)
    assert index.nu.dtype == index.nd.dtype == np.int32
    nu_ok, lob, nd_ok, hib = jump_index_reference(prices, index.nu, index.nd)
    assert all(nu_ok) and all(nd_ok)
    assert index.neg.tobytes() == np.array([-v for v in values]).tobytes()
    assert index.lob.tolist() == lob and index.nlob.tolist() == [-h for h in hib]
    if rounds == 1_000:
        # Converged: the nearest strictly larger and smaller ticks, or the
        # end of the tick's chunk if that comes first.
        n = len(values)
        ends = [min(n, (i // chunk + 1) * chunk) for i in range(n)]
        larger = [next((j for j in range(i + 1, e) if values[j] > values[i]), e) for i, e in enumerate(ends)]
        smaller = [next((j for j in range(i + 1, e) if values[j] < values[i]), e) for i, e in enumerate(ends)]
        assert index.nu.tolist() == larger and index.nd.tolist() == smaller


def test_dc_pass_sharing_an_index_matches_its_own_build():
    rng = np.random.default_rng(11)
    prices = _path(rng.normal(0.0, 1e-4, 20_000), np.round(rng.normal(0.0, 3e-4, 5_000) / 2e-4) * 2e-4)
    index = dc.jump_index(prices)
    for theta, share in zip(rng.uniform(3e-4, 3e-3, 40), rng.uniform(0.01, 1.0, 40)):
        config = DcConfig(float(theta), float(theta + (1.0 - theta) * share))
        assert tuple(dc_pass(prices, config, index)) == tuple(dc_pass(prices, config))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    theta=st.sampled_from([1e-3, 3e-4, 1e-16]),
    alpha_share=st.floats(0.01, 1.0),
    rounds=st.sampled_from([0, 1, 2, 3]),
    chunk=st.sampled_from([5, 64, dc._CHUNK]),
)
def test_dc_pass_matches_reference_over_pointers_stopped_short(seed, theta, alpha_share, rounds, chunk):
    # Few rounds leave pointers that land on ticks no higher than the high,
    # equal to it on this grid, and on ticks at the stop price when a
    # multiplier rounds to 1.0; small chunks stop pointers at chunk ends too.
    alpha = theta + (1.0 - theta) * alpha_share
    rng = np.random.default_rng(seed)
    prices = _path(rng.integers(-2, 3, 3000) * 1e-4)
    with mock.patch.object(dc, "JUMP_ROUNDS", rounds), mock.patch.object(dc, "_CHUNK", chunk):
        index = dc.jump_index(prices)
    assert tuple(dc_pass(prices, DcConfig(theta, alpha), index)) == dc_pass_reference(prices, theta, alpha)


def test_dc_pass_matches_reference_at_the_ends_of_the_float_range():
    # Every other fixture prices near 1.0. Here stop prices are subnormal,
    # where a multiplier other than 1.0 may still give back the extreme
    # (1e-310), sit at either end of the normal range (1e-300, 1e300), or
    # overflow to inf (the float maximum): the falling walk over the negated
    # prices must make the per-tick rule's tests there too.
    rng = np.random.default_rng(29)
    walks = [np.cumsum(rng.normal(0.0, 1e-3, 3000)), np.cumsum(np.round(rng.normal(0.0, 2e-3, 3000) / 1e-3) * 1e-3)]
    top = float(np.finfo(np.float64).max)
    assert top * (1.0 + 3e-4) == math.inf and 1e-310 < np.finfo(np.float64).tiny
    for scale in (1e-310, 1e-300, 1e300, top):
        for walk in walks:
            prices = scale * np.exp(walk - walk.max())  # at most scale, so nothing overflows
            assert prices.min() > 0.0
            index = dc.jump_index(prices)
            for theta in (1e-17, 1e-16, 3e-4, 3e-3):
                for alpha in (0.5, 1.0):
                    config = DcConfig(theta, alpha)
                    assert tuple(dc_pass(prices, config, index)) == dc_pass_reference(prices, theta, alpha)


def test_walk_reversal_on_first_tick_after_a_jump(monkeypatch):
    # The pointer of a high j may stop short of the next new high, at a tick
    # that reverses the trend, past the reversal price or exactly at it; the
    # walk lands there and reverses.
    prices, c, tops = _last_trend(monkeypatch)
    for j, k in (tops[0], tops[len(tops) // 2]):
        for mult in (1.0 - 2.0 * THETA, 1.0 - ALPHA * THETA):
            dropped = prices[: k + 1].copy()
            dropped[k] = dropped[j] * mult  # the walk's own stop price for 1 - alpha * theta
            index = dc.jump_index(dropped)
            index.nu[j], index.lob[j] = k, dropped[j + 1 : k].min()  # every tick before k is <= dropped[j]
            legs, jumps, entered, _ = _walk(monkeypatch, dropped, index=index)
            assert (j, k) in jumps and j not in entered
            assert legs.confirm[-1] == k and not legs.upturn[-1]


def test_walk_reversal_on_last_interior_tick_of_a_jump(monkeypatch):
    # A tick inside a stretch the walk would jump over reverses the trend,
    # past the reversal price or exactly at it: the walk searches that
    # stretch, at its first and at its last tick, in an uptrend and in a
    # downtrend.
    for up, at, past in ((True, 1.0 - ALPHA * THETA, 1.0 - 2.0 * THETA), (False, 1.0 + THETA, 1.0 + 2.0 * THETA)):
        prices, c, tops = _last_trend(monkeypatch, up)
        for j, k in (tops[0], tops[len(tops) // 2]):
            for t in (j + 1, k - 1):
                for mult in (past, at):
                    moved = prices.copy()
                    moved[t] = moved[j] * mult  # the walk's own stop price for ``at``
                    index = dc.jump_index(moved)
                    assert (index.nu if up else index.nd)[j] == k
                    legs, jumps, entered, _ = _walk(monkeypatch, moved)
                    assert j in entered and t in legs.confirm
                    r = legs.confirm.index(t)
                    assert legs.upturn[r] != up and legs.extreme[r] == j


def test_gallop_trend_runs_to_last_tick(monkeypatch):
    # The trend ends at: its confirmation, a strict new high, inside a
    # stretch, the end of a jump, and the whole fixture.
    prices, c, tops = _last_trend(monkeypatch)
    (j, k), (j2, k2) = tops[0], tops[-1]
    for end in (c + 1, j + 1, j + 3, k + 1, j2 + 2, k2 + 1, len(prices)):
        legs, jumps, entered, _ = _walk(monkeypatch, prices[:end])
        assert any(to == end for _, to in jumps) and not [e for e in entered if e >= c]
        assert legs.confirm[-1] == c and legs.upturn[-1]


def test_gallop_take_profit_tick_equal_to_target(monkeypatch):
    prices, c, tops = _last_trend(monkeypatch)
    legs = dc_pass(prices, CFG)
    target = (1.0 + 2.0 * THETA) * legs.extreme_price[-1]
    assert prices[c] < target
    # The last jump from a high below the target: no tick before its end
    # reaches the target, and its end set to the target is a strict new high.
    j, k = [(j, k) for j, k in tops if prices[j] < target][-1]
    prices = prices.copy()
    prices[k] = target
    legs, jumps, _, _ = _walk(monkeypatch, prices)
    assert (j, k) in jumps and legs.take_profit[-1] == k


def test_gallop_confirmation_tick_already_above_target(monkeypatch):
    # The upturn is confirmed by a 3 theta jump, above (1 + 2 theta) * trough;
    # the take-profit tick is then the first strict new high after it, not
    # one of the ticks that only equal the confirmation price.
    prices = _path(WARM_UP, [3.0 * THETA], np.zeros(5), _runs(2000))
    legs, jumps, _, _ = _walk(monkeypatch, prices)
    c = legs.confirm[-1]
    assert legs.upturn[-1] and prices[c] >= (1.0 + 2.0 * THETA) * legs.extreme_price[-1]
    assert (c, c + 6) in jumps
    assert legs.take_profit[-1] == c + 6


def test_gallop_plateaus_equal_to_running_extreme(monkeypatch):
    # Flat stretches at the running high and low: extremes keep their first
    # tick, and neither flat stretch reverses the trend; the walk jumps over
    # both, and searches the peak's stretch past its flat ticks.
    prices = _path(WARM_UP, _runs(1500), np.zeros(40), _runs(500), np.zeros(30), _runs(-1500), np.zeros(25), _runs(-300))
    legs, jumps, entered, _ = _walk(monkeypatch, prices)
    high = len(WARM_UP) + 1500
    peak = high + 40 + 500
    low = peak + 30 + 1500
    assert (high, high + 41) in jumps and peak in entered and (low, low + 26) in jumps
    assert legs.extreme[-1] == peak and legs.extreme_price[-1] == prices[peak]


def test_gallop_when_down_multiplier_rounds_to_one(monkeypatch):
    # 1 - alpha * theta == 1.0: an uptrend reverses on the first tick that is
    # not a strict new high, so a tick equal to the running high reverses it.
    alpha = 0.5
    prices = _path(WARM_UP, _runs(2000), np.zeros(3), _runs(-2000), _runs(1200))
    plateau = len(WARM_UP) + 2001
    for theta in (1e-16, 1e-17):
        assert 1.0 - alpha * theta == 1.0
        legs, jumps, entered, _ = _walk(monkeypatch, prices, DcConfig(theta, alpha))
        assert plateau - 1 in entered
        assert plateau in legs.confirm and not legs.upturn[legs.confirm.index(plateau)]


def test_walk_when_both_multipliers_round_to_one(monkeypatch):
    # 1 + theta == 1.0 as well: a downtrend reverses on the first tick that is
    # not a strict new low, so a tick equal to the running low reverses it.
    # Tick 1 equals tick 0, so it crosses both thresholds at the neutral
    # start, and the downturn takes precedence.
    alpha = 0.5
    prices = _path(np.zeros(1), WARM_UP, _runs(2000), np.zeros(3), _runs(-2000), np.zeros(3), _runs(1200))
    plateau = 1 + len(WARM_UP) + 2000 + 3 + 2001
    for theta in (1e-16, 1e-17):
        assert 1.0 + theta == 1.0 and 1.0 - alpha * theta == 1.0
        legs, jumps, entered, _ = _walk(monkeypatch, prices, DcConfig(theta, alpha))
        assert legs.confirm[0] == 1 and not legs.upturn[0]
        assert plateau - 1 in entered
        assert plateau in legs.confirm and legs.upturn[legs.confirm.index(plateau)]


def _records(prices, legs):
    """The pointer reads of a walk over exact pointers, trend by trend: one
    per strict new extreme after the confirmation, then one per strict new
    opposite extreme from the trend's final extreme through its reversal,
    or one more step, past the last tick, for a trend that runs to it."""
    reads = []
    for c, r, up in zip(legs.confirm, [*legs.confirm[1:], len(prices)], legs.upturn):
        trend = prices[c:r] if up else -prices[c:r]
        ahead = int((trend[1:] > np.maximum.accumulate(trend)[:-1]).sum())
        if r == len(prices):
            reads.append(ahead + 1)
            continue
        h = c + int(trend.argmax())
        back = -prices[h : r + 1] if up else prices[h : r + 1]
        reads.append(ahead + int((back[1:] > np.maximum.accumulate(back)[:-1]).sum()))
    return reads


def test_walk_hops_follow_records(monkeypatch):
    # Over exact pointers the walk reads a pointer once per record tick;
    # after the default rounds some pointers stop short, which costs extra
    # hops but never a scan of every tick. The first two walks are the
    # neutral start's.
    rng = np.random.default_rng(8)
    trending = _path(rng.normal(0.0, 2e-5, 200_000))
    last_runs_out = _path(rng.normal(0.0, 2e-5, 100_000), _runs(100_000))
    for prices in (trending, last_runs_out):
        legs, _, _, hops = _walk(monkeypatch, prices, DcConfig(1e-3, 0.5))
        monkeypatch.setattr(dc, "JUMP_ROUNDS", len(prices))  # enough rounds to converge
        monkeypatch.setattr(dc, "_CHUNK", len(prices))  # over one chunk, so no pointer stops at a chunk end
        _, _, _, exact = _walk(monkeypatch, prices, DcConfig(1e-3, 0.5))
        assert len(legs.confirm) > 10
        assert exact[2:] == _records(prices, legs)
        assert sum(hops) <= 2 * sum(exact)
    assert sum(exact) > 100_000  # the last 100,000 ticks are all new highs
    assert sum(_walk(monkeypatch, trending, DcConfig(1e-3, 0.5))[3]) * 5 < len(trending)
