import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.stats import chi2, friedmanchisquare, rankdata

from dcbacktest.metrics import (
    WindowStrategyResult,
    _friedman_critical_value,
    build_report,
    crr,
    friedman_ranks,
    mdd,
    write_report,
)
from dcbacktest.strategy import EquityCurve
from oracles import mdd_bruteforce


def _curve(values):
    values = np.asarray(values, dtype=np.float64)
    return EquityCurve(np.arange(len(values), dtype=np.int64), values)


def test_crr_examples():
    assert crr(_curve([10000, 12000])) == pytest.approx(20.0)
    assert crr(_curve([10000, 10000])) == 0.0
    assert crr(_curve([10000, 9500])) == pytest.approx(-5.0)


def test_crr_scale_invariant():
    base = np.array([10000.0, 10400, 9800, 11000])
    assert crr(_curve(base)) == pytest.approx(crr(_curve(base * 3.7)))


def test_crr_empty_is_error():
    with pytest.raises(ValueError):
        crr(_curve([]))


def test_mdd_examples():
    assert mdd(_curve([100, 120, 90, 110])) == pytest.approx(25.0)
    assert mdd(_curve([100, 105, 111, 140])) == 0.0
    assert mdd(_curve([100, 50])) == pytest.approx(50.0)


def test_mdd_matches_bruteforce_batch():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 200))
        values = np.exp(rng.normal(0, 0.2, n)) * 100.0
        assert mdd(_curve(values)) == mdd_bruteforce(values)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=1e6, allow_nan=False), min_size=1, max_size=60))
def test_mdd_oracle_property(values):
    assert mdd(_curve(values)) == pytest.approx(mdd_bruteforce(values), abs=1e-12)


def test_friedman_unanimous_winner():
    # strategy 0 strictly best (higher better) on every dataset
    m = np.array([[5.0, 6.0, 7.0], [1.0, 2.0, 3.0], [0.5, 1.0, 2.0]])
    ranks, stat = friedman_ranks(m)
    assert ranks[0] == 1.0
    assert stat > 0


def test_friedman_tie_averaging():
    m = np.array([[3.0, 5.0], [3.0, 4.0], [2.0, 3.0], [1.0, 2.0]])
    ranks, _ = friedman_ranks(m)
    # strategies 0 and 1 tie for best on dataset 0: both get rank 1.5 there
    assert ranks[0] == pytest.approx((1.5 + 1.0) / 2)
    assert ranks[1] == pytest.approx((1.5 + 2.0) / 2)


def test_friedman_hand_fixture():
    # ranks per dataset: (1,2,3), (2,1,3), (1,3,2) -> averages (4/3, 2, 8/3)
    m = np.array(
        [
            [9.0, 5.0, 9.0],
            [7.0, 6.0, 3.0],
            [5.0, 1.0, 7.0],
        ]
    )
    ranks, _ = friedman_ranks(m)
    np.testing.assert_allclose(ranks, [4.0 / 3.0, 2.0, 8.0 / 3.0], atol=1e-12)


def test_friedman_rank_sum_invariant():
    rng = np.random.default_rng(23)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(2, 10))
        m = rng.normal(0, 1, (k, n))
        ranks, _ = friedman_ranks(m)
        assert ranks.mean() == pytest.approx((k + 1) / 2)


def test_friedman_statistic_matches_scipy():
    rng = np.random.default_rng(29)
    for _ in range(10):
        k = int(rng.integers(3, 6))
        n = int(rng.integers(3, 12))
        m = rng.normal(0, 1, (k, n))
        _, stat = friedman_ranks(m)
        ref_stat, _ = friedmanchisquare(*[m[j] for j in range(k)])
        assert stat == pytest.approx(ref_stat)


@settings(max_examples=200, deadline=None)
@given(
    arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=8), elements=st.sampled_from([0.0, 1.0, 2.0])),
)
def test_friedman_ranks_match_rankdata_on_ties(m):
    ranks, _ = friedman_ranks(m)
    # Rank 1 is the highest value.
    ref = np.column_stack([rankdata(-m[:, j], method="average") for j in range(m.shape[1])])
    assert np.array_equal(ranks, ref.mean(axis=1))


def test_friedman_critical_value_matches_chi2():
    for k in range(2, 9):
        assert _friedman_critical_value(k) == chi2.ppf(0.95, k - 1)


def test_friedman_validation():
    with pytest.raises(ValueError):
        friedman_ranks(np.array([[1.0, 2.0]]))  # one strategy
    with pytest.raises(ValueError):
        friedman_ranks(np.array([[1.0], [2.0]]))  # one dataset
    with pytest.raises(ValueError):
        friedman_ranks(np.array([[1.0, np.nan], [2.0, 3.0]]))


def test_build_report_single_run():
    rows = [WindowStrategyResult(0, "IDC", 4.0, 1.5, 12)]
    report = build_report(rows)
    assert len(report.per_window) == 1
    agg = report.aggregate[0]
    assert agg.mean_crr_pct == 4.0
    assert agg.chained_crr_pct == pytest.approx(4.0)
    assert agg.avg_rank is None


def test_build_report_mean_and_chain():
    rows = [
        WindowStrategyResult(0, "IDC", 10.0, 1.0, 5),
        WindowStrategyResult(1, "IDC", -4.0, 2.0, 7),
    ]
    report = build_report(rows)
    agg = report.aggregate[0]
    assert agg.mean_crr_pct == pytest.approx(3.0)
    assert agg.chained_crr_pct == pytest.approx((1.10 * 0.96 - 1) * 100)


def test_build_report_row_ordering_and_ranks(tmp_path):
    rows = []
    crr_by = {"FT": -5.0, "OPT_T": -1.0, "IDC": 3.0, "ITA": 8.0}
    for w in (0, 1, 2):
        for name, base in crr_by.items():
            rows.append(WindowStrategyResult(w, name, base + w, 1.0, 3))
    report = build_report(rows)
    assert [a.strategy for a in report.aggregate] == ["FT", "OPT_T", "IDC", "ITA"]
    by_name = {a.strategy: a for a in report.aggregate}
    assert by_name["ITA"].avg_rank == 1.0
    assert by_name["FT"].avg_rank == 4.0
    assert report.friedman_statistic is not None
    write_report(report, tmp_path)
    lines = (tmp_path / "aggregate.csv").read_text().splitlines()
    assert lines[0] == "strategy,mean_crr_pct,chained_crr_pct,mean_mdd_pct,avg_rank"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["FT", "OPT_T", "IDC", "ITA"]


def test_build_report_empty_is_error():
    with pytest.raises(ValueError):
        build_report([])
