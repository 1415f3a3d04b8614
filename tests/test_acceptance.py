"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""
from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from dcbacktest import cli
from dcbacktest.bayesopt import SearchSpace, optimize
from dcbacktest.dc import DcConfig, summarize
from dcbacktest.hmm import RegimeLabel, fit_baum_welch, viterbi
from dcbacktest.ingest import PriceSeries
from dcbacktest.metrics import crr, friedman_ranks, mdd
from dcbacktest.strategy import EquityCurve, run_strategy
from oracles import dc_reference, event_rows, mdd_bruteforce, symmetric_dc_reference, trade_rows, viterbi_bruteforce

# Frozen end-to-end fixture: regenerating with these constants reproduces the
# regression fixture byte for byte.
E2E_GEN_SEED = "20190701"
E2E_MONTHS = "10"
E2E_BACKTEST_SEED = "7"


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _event_tuples(prices, config):
    return event_rows(prices, *summarize(prices, config))


def test_criterion_1_dc_oracle_equivalence():
    rng = np.random.default_rng(20190101)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(500, 2001))
        sigma = float(np.exp(rng.uniform(np.log(3e-5), np.log(1e-3))))
        prices = 1.1 * np.exp(np.cumsum(rng.normal(0.0, sigma, n)))
        theta = float(rng.uniform(3e-4, 3e-3))
        alpha = float(rng.uniform(0.1, 1.0))
        got = _event_tuples(prices, DcConfig(theta, alpha))
        ref = dc_reference(prices, theta, alpha)
        assert got == ref, f"mismatch at series {checked} (theta={theta}, alpha={alpha})"
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        "1 DC oracle equivalence",
        checked == 1000 and elapsed < 30.0,
        f"1000 series, {elapsed:.1f}s < 30s",
    )


def test_criterion_2_alpha_reduction():
    rng = np.random.default_rng(20190102)
    for i in range(200):
        n = int(rng.integers(200, 1500))
        sigma = float(np.exp(rng.uniform(np.log(5e-5), np.log(8e-4))))
        prices = np.exp(np.cumsum(rng.normal(0.0, sigma, n)))
        theta = float(rng.uniform(3e-4, 3e-3))
        got = _event_tuples(prices, DcConfig(theta, 1.0))
        ref = symmetric_dc_reference(prices, theta)
        assert got == ref, f"divergence from symmetric detector on series {i}"
    _report("2 alpha=1 reduction", True, "200 series bit-identical")


def test_criterion_3_em_monotonicity_and_recovery():
    # Generating means 1e-5 and 1e-4 are ~12.7 pooled sigmas apart.
    mu_lo, sd_lo, mu_hi, sd_hi = 1e-5, 1e-6, 1e-4, 1e-5
    t0 = time.perf_counter()
    worst_drop = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        parts = []
        for b in range(10):
            if b % 2 == 0:
                parts.append(rng.normal(mu_lo, sd_lo, 50))
            else:
                parts.append(rng.normal(mu_hi, sd_hi, 50))
        obs = np.abs(np.concatenate(parts))
        fit = fit_baum_welch(obs, seed=seed)
        if len(fit.ll_history) > 1:
            worst_drop = min(worst_drop, float(np.diff(fit.ll_history).min()))
        assert (np.diff(fit.ll_history) >= -1e-8).all(), f"log-likelihood decreased (seed {seed})"
        got = np.sort(fit.model.emission_means)
        assert abs(got[0] - mu_lo) / mu_lo < 0.10, f"low mean off by >10% (seed {seed})"
        assert abs(got[1] - mu_hi) / mu_hi < 0.10, f"high mean off by >10% (seed {seed})"
    elapsed = time.perf_counter() - t0
    _report(
        "3 EM monotonicity + recovery",
        elapsed < 60.0,
        f"100 fits, worst LL step {worst_drop:.1e}, {elapsed:.1f}s < 60s",
    )


def test_criterion_4_viterbi_exactness():
    rng = np.random.default_rng(20190104)
    from dcbacktest.hmm import GaussianHmm

    for i in range(200):
        k = 2
        pi = rng.dirichlet(np.ones(k))
        a = np.vstack([rng.dirichlet(np.ones(k)) for _ in range(k)])
        means = rng.normal(0.0, 1.0, k)
        variances = np.exp(rng.uniform(-2.0, 1.0, k))
        model = GaussianHmm(pi, a, means, variances)
        t_len = int(rng.integers(1, 13))
        obs = rng.normal(0.0, 1.0, t_len)
        got = viterbi(model, obs)
        ref = viterbi_bruteforce(pi, a, means, variances, obs)
        assert np.array_equal(got, ref), f"path mismatch on model {i} (T={t_len})"
    _report("4 Viterbi exactness", True, "200 models vs exhaustive enumeration")


def test_criterion_5_boa_convergence():
    t0 = time.perf_counter()

    def objective(theta: float, alpha: float) -> float:
        return -((theta - 0.001) ** 2 + (alpha - 0.5) ** 2)

    theta_tol = 0.05 * (0.003 - 0.0003)
    alpha_tol = 0.05 * (1.0 - 0.1)
    hits = 0
    for seed in range(20):
        best, history = optimize(objective, SearchSpace(), n_iters=100, n_init=10, seed=seed)
        assert len(history) == 100
        if abs(best.theta - 0.001) <= theta_tol and abs(best.alpha - 0.5) <= alpha_tol:
            hits += 1
    elapsed = time.perf_counter() - t0
    _report(
        "5 BOA convergence",
        hits >= 18 and elapsed < 120.0,
        f"{hits}/20 seeds within 5% box width, {elapsed:.1f}s < 120s",
    )


def _assert_log_invariants(rows: list[tuple[str, float]]) -> None:
    sides = [side for side, _ in rows]
    for a, b in zip(sides, sides[1:]):
        assert a != b, "two consecutive trades on the same side"
    if sides:
        assert sides[0] == "BUY", "first trade must be a buy"
    for _, capital in rows:
        assert capital > 0.0, "capital must stay positive"


def test_criterion_6_strategy_invariants(tmp_path):
    # (a) hand-traced fixture
    prices = [1.0000, 1.0011, 1.0019, 1.0021, 1.0030]
    ts = np.arange(5, dtype=np.int64) * 1000
    log, _ = run_strategy(PriceSeries("X", ts, np.array(prices)), DcConfig(0.001, 0.5))
    rows = trade_rows(log)
    assert [(side, rule, ms) for ms, side, _, _, rule in rows] == [("BUY", 1, 1000), ("SELL", 2, 3000)]
    assert abs(rows[1][3] - 10009.99) <= 0.01

    # (b) direct invariants over random runs
    rng = np.random.default_rng(20190106)
    for _ in range(25):
        n = int(rng.integers(500, 4000))
        series = PriceSeries(
            "X",
            np.cumsum(rng.integers(100, 5000, n)).astype(np.int64),
            1.1 * np.exp(np.cumsum(rng.normal(0.0, 2e-4, n))),
        )
        theta = float(rng.uniform(3e-4, 3e-3))
        alpha = float(rng.uniform(0.1, 1.0))
        log, curve = run_strategy(series, DcConfig(theta, alpha))
        _assert_log_invariants([(side, capital) for _, side, _, capital, _ in trade_rows(log)])
        assert (curve.capital > 0).all()
        forced, _ = run_strategy(series, DcConfig(theta, alpha), force_regime=RegimeLabel.ABNORMAL)
        assert trade_rows(forced) == []

    # (c) CLI-level: forced-abnormal blocks every buy; always-normal ITA
    # reproduces IDC byte for byte, trade logs and equity alike
    ticks = tmp_path / "ticks.csv"
    assert cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "606", "--months", "3"]) == 0
    out_ab = tmp_path / "bt_abnormal"
    assert (
        cli.main(
            ["backtest", "--input", str(ticks), "--out", str(out_ab), "--seed", "11",
             "--iters", "15", "--init", "5", "--strategies", "ITA", "--force-regime", "abnormal"]
        )
        == 0
    )
    ita_logs = sorted(out_ab.rglob("trades_ITA.csv"))
    assert ita_logs
    for path in ita_logs:
        assert len(path.read_text().splitlines()) == 1, "buy slipped through forced-abnormal gate"

    out_nm = tmp_path / "bt_normal"
    assert (
        cli.main(
            ["backtest", "--input", str(ticks), "--out", str(out_nm), "--seed", "11",
             "--iters", "15", "--init", "5", "--strategies", "IDC,ITA", "--force-regime", "normal"]
        )
        == 0
    )
    pairs = 0
    for idc_path in sorted(out_nm.rglob("trades_IDC.csv")):
        ita_path = idc_path.with_name("trades_ITA.csv")
        assert idc_path.read_bytes() == ita_path.read_bytes(), f"{ita_path} differs from IDC log"
        rows = [
            (ln.split(",")[1], float(ln.split(",")[3]))
            for ln in idc_path.read_text().splitlines()[1:]
        ]
        _assert_log_invariants(rows)
        pairs += 1
    assert pairs >= 2
    _report("6 strategy invariants", True, f"fixture + 25 random runs + {pairs} window log pairs")


def test_criterion_7_metric_oracles():
    # one-pass MDD equals brute force exactly on 1,000 random curves
    rng = np.random.default_rng(20190107)
    for i in range(1000):
        n = int(rng.integers(2, 201))
        values = np.exp(rng.normal(0.0, 0.25, n)) * 1000.0
        curve = EquityCurve(np.arange(n, dtype=np.int64), values)
        assert mdd(curve) == mdd_bruteforce(values), f"MDD mismatch on curve {i}"

    # CRR spot values per the documented examples
    def _curve(vals):
        return EquityCurve(np.arange(len(vals), dtype=np.int64), np.asarray(vals, float))

    assert crr(_curve([10000.0, 12000.0])) == 20.0
    assert crr(_curve([10000.0, 10000.0])) == 0.0
    assert crr(_curve([10000.0, 9500.0])) == -5.0

    # Friedman fixture: per-dataset ranks (1,2,3), (2,1,3), (1,3,2)
    matrix = np.array([[9.0, 5.0, 9.0], [7.0, 6.0, 3.0], [5.0, 1.0, 7.0]])
    ranks, _ = friedman_ranks(matrix)
    assert np.abs(ranks - np.array([4.0 / 3.0, 2.0, 8.0 / 3.0])).max() < 1e-12
    _report("7 metric oracles", True, "1000 MDD curves exact, CRR spots, Friedman ranks")


def test_criterion_8_end_to_end_determinism_and_directionality(tmp_path):
    ticks = tmp_path / "ticks.csv"
    t0 = time.perf_counter()
    assert cli.main(["gen-synthetic", "--out", str(ticks), "--seed", E2E_GEN_SEED, "--months", E2E_MONTHS]) == 0
    flags = [int(ln.rsplit(",", 1)[1]) for ln in ticks.read_text().splitlines()]
    burst_share = sum(flags) / len(flags)
    assert 0.18 <= burst_share <= 0.22, f"burst share {burst_share:.3f} not ~20%"

    out1, out2 = tmp_path / "bt1", tmp_path / "bt2"
    args = ["backtest", "--input", str(ticks), "--seed", E2E_BACKTEST_SEED]
    assert cli.main(args + ["--out", str(out1)]) == 0
    first_run = time.perf_counter() - t0
    assert cli.main(args + ["--out", str(out2)]) == 0

    def _tree(root: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    t1, t2 = _tree(out1), _tree(out2)
    assert t1.keys() == t2.keys()
    diffs = [k for k in t1 if t1[k] != t2[k]]
    assert not diffs, f"non-deterministic outputs: {diffs[:5]}"

    agg = {}
    for line in (out1 / "aggregate.csv").read_text().splitlines()[1:]:
        name, mean_crr, chained_crr, mean_mdd, _ = line.split(",")
        agg[name] = (float(mean_crr), float(chained_crr), float(mean_mdd))
    ita_chained = agg["ITA"][1]
    ft_mean, ft_chained = agg["FT"][0], agg["FT"][1]
    assert ita_chained > ft_mean, f"ITA chained {ita_chained:.3f}% <= FT mean {ft_mean:.3f}%"
    assert ita_chained > ft_chained, f"ITA chained {ita_chained:.3f}% <= FT chained {ft_chained:.3f}%"
    _report(
        "8 end-to-end determinism + directionality",
        first_run < 600.0,
        f"run {first_run:.0f}s < 600s, byte-identical rerun, "
        f"ITA chained {ita_chained:+.2f}% vs FT avg {ft_mean:+.2f}%",
    )
