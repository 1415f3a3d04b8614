import argparse
import os
import re
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dcbacktest import cli, dc, hmm, ingest, pipeline, synthetic
from dcbacktest.ingest import parse_ticks, write_ticks
from oracles import chained_equity_reference, format_timestamp_reference, forward_backward_reference


def _write_constant_ticks(path: Path, n: int = 50):
    ts = np.arange(n) * 60_000 + 1561939200000  # 2019-07-01
    write_ticks(path, ts, np.full(n, 1.09995), np.full(n, 1.10005))


def _read_dir_bytes(root: Path) -> dict[str, bytes]:
    out = {}
    for p in sorted(root.rglob("*.csv")) + sorted(root.rglob("*.txt")):
        out[str(p.relative_to(root))] = p.read_bytes()
    return out


def test_summarize_constant_fixture(tmp_path, capsys):
    ticks = tmp_path / "flat.csv"
    _write_constant_ticks(ticks)
    rc = cli.main(["summarize", "--input", str(ticks), "--theta", "0.001", "--alpha", "0.5",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "0 events" in capsys.readouterr().out
    events = (tmp_path / "out" / "events.csv").read_text().splitlines()
    assert len(events) == 1  # header only


def test_summarize_five_tick_fixture(tmp_path, capsys):
    ticks = tmp_path / "five.csv"
    prices = [1.0000, 1.0005, 1.0011, 1.0012, 1.0006]
    ts = np.arange(5) * 1000 + 1561939200000
    write_ticks(ticks, ts, np.array(prices) - 0.00001, np.array(prices) + 0.00001)
    rc = cli.main(["summarize", "--input", str(ticks), "--theta", "0.001", "--alpha", "0.5",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "events.csv").read_text().splitlines()
    kinds = [ln.split(",")[0] for ln in lines[1:]]
    assert kinds == ["UpturnDC", "DownturnDC"]


def test_summarize_missing_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    rc = cli.main(["summarize", "--input", str(missing), "--theta", "0.001",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nope.csv" in err and err.count("\n") == 1


def test_summarize_non_utf8_file_names_path_and_line(tmp_path, capsys):
    ticks = tmp_path / "latin.csv"
    ticks.write_bytes(b"20190701 000000000,1.1,1.2,0\n20190701 000001000,1.1,1.2,\xff\n")
    rc = cli.main(["summarize", "--input", str(ticks), "--theta", "0.001", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {ticks} line 2: not valid UTF-8 (byte 0xff)\n"


def test_gen_synthetic_deterministic_and_flagged(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc = cli.main(["gen-synthetic", "--out", str(out), "--seed", "77", "--months", "2"])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    flags = [int(ln.rsplit(",", 1)[1]) for ln in a.read_text().splitlines()]
    share = sum(flags) / len(flags)
    assert 0.18 <= share <= 0.22
    # zero-burst spec produces an all-zero flag column
    c = tmp_path / "c.csv"
    cli.main(["gen-synthetic", "--out", str(c), "--seed", "77", "--months", "1",
              "--burst-episodes", "0"])
    assert all(ln.endswith(",0") for ln in c.read_text().splitlines())


def test_regimes_csv_bytes_match_per_row_formula(tmp_path, monkeypatch, capsys):
    # Blocks of three rows, so the file spans several formatting blocks; the
    # rates and the state path are planted, so every .10g text path shows.
    # No regimes.csv is header-only: a fit needs at least 4 rates.
    monkeypatch.setattr(ingest, "FORMAT_BLOCK", 3)
    values = np.array([1.5e-7, 0.5, 2.5, 1234567890.5, 1e10, 3.25e12, float("nan"), -2.0, 12.345678901, 0.0])
    n = values.size
    index = np.arange(n, dtype=np.intp) * 977
    rates = dc.LegRates(index, index + 13, np.geomspace(0.001, 1e11, n), values, np.ones(n, dtype=bool))
    model = hmm.GaussianHmm(np.array([0.5, 0.5]), np.full((2, 2), 0.5), np.array([1e-5, 1e-4]),
                            np.array([1e-12, 1e-10]))
    path = np.array([0, 1, 1, 0, 0, 0, 1, 0, 1, 1])
    fit = mock.Mock(model=model, log_likelihood=-1.0)
    monkeypatch.setattr(pipeline, "fit_regime", lambda *args, **kwargs: (rates, fit))
    monkeypatch.setattr(hmm, "viterbi", lambda model, observations: path)
    ticks = tmp_path / "flat.csv"
    _write_constant_ticks(ticks)
    rc = cli.main(["regimes", "--input", str(ticks), "--theta", "0.001", "--alpha", "0.5",
                   "--out", str(tmp_path / "reg"), "--seed", "1"])
    assert rc == 0
    capsys.readouterr()
    labels = hmm.label_regimes(model)
    cols = (rates.from_index, rates.to_index, rates.interval_seconds, rates.value, path)
    expected = "from_index,to_index,interval_seconds,value,state,label\n" + "".join(
        f"{a},{b},{t:.10g},{v:.10g},{state},{labels[state].value}\n"
        for a, b, t, v, state in zip(*(c.tolist() for c in cols))
    )
    assert (tmp_path / "reg" / "regimes.csv").read_bytes() == expected.encode("ascii")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--months", "0"], "months must be >= 1"),
        (["--ticks-per-day", "0"], "ticks_per_day must be >= 1"),
        (["--burst-fraction", "1"], "burst fraction must be in [0, 1)"),
        (["--burst-episodes", "-1"], "episodes must be >= 0"),
        (["--normal-vol", "nan"], "normal_vol must be finite and >= 0"),
        (["--months", "1", "--normal-drift", "1"], "prices must be finite and positive, got inf at index 932"),
        (["--burst-drift", "inf"], "burst drift must be finite"),
        (["--normal-vol", "-1e-4"], "normal_vol must be finite and >= 0"),
        (["--burst-vol-mult", "-3"], "burst volatility multiplier must be finite and >= 0"),
    ],
    ids=["zero-months", "zero-ticks-per-day", "burst-fraction-1", "negative-burst-episodes", "nan-normal-vol",
         "overflowing-normal-drift", "infinite-burst-drift", "negative-normal-vol", "negative-burst-vol-mult"],
)
def test_gen_synthetic_bad_settings_exit_2_writing_nothing(tmp_path, capsys, flags, message):
    out = tmp_path / "syn" / "ticks.csv"
    rc = cli.main(["gen-synthetic", "--out", str(out), "--seed", "1"] + flags)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.parent.exists()


def test_gen_synthetic_start_defaults_to_2019_and_naive_start_reads_its_month():
    want = synthetic.generate_ticks(seed=4, months=1, start=datetime(2019, 1, 1, tzinfo=timezone.utc))
    for start in (None, datetime(2019, 1, 1)):
        got = synthetic.generate_ticks(seed=4, months=1, start=start)
        assert np.array_equal(got.timestamps_ms, want.timestamps_ms)
        assert np.array_equal(got.bids, want.bids) and np.array_equal(got.asks, want.asks)


@pytest.mark.parametrize("command", ["backtest", "gen-synthetic"])
def test_a_span_ending_past_the_year_9999_exits_2_writing_nothing(tmp_path, capsys, command):
    # No timestamp can name the year 10000, so no window or feed may end in it.
    out = tmp_path / "out" / "ticks.csv"
    if command == "backtest":
        ticks = tmp_path / "ticks.csv"
        ticks.write_text("99991130 235959999,1.10000,1.10020\n99991201 000000000,1.10010,1.10030\n")
        argv = ["backtest", "--input", str(ticks), "--out", str(out.parent), "--seed", "7", "--jobs", "1"]
    else:
        argv = ["gen-synthetic", "--out", str(out), "--seed", "1", "--start", "9999-12-01", "--months", "1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: year 10000 is out of range\n")
    assert not out.parent.exists()


def test_gen_synthetic_dense_feed_keeps_its_daily_scale():
    # Per-tick drift and volatility are rescaled from 300 ticks/day; read
    # unscaled at 100x density, the burst drift alone would take the first
    # month's quotes to zero.
    ticks = synthetic.generate_ticks(seed=20190701, months=1, ticks_per_day=30_000)
    assert len(ticks.bids) > 800_000
    assert 0.5 <= ticks.bids.min() and ticks.asks.max() <= 2.0


def test_gen_synthetic_parses_cleanly(tmp_path):
    out = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(out), "--seed", "5", "--months", "1"])
    result = parse_ticks(out, "SYN")
    assert result.summary.rows_dropped == 0
    assert len(result.series) > 1000


def test_backtest_ft_window_count(tmp_path):
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "3", "--months", "3"])
    rc = cli.main(["backtest", "--input", str(ticks), "--out", str(tmp_path / "bt"),
                   "--seed", "1", "--strategies", "FT"])
    assert rc == 0
    lines = (tmp_path / "bt" / "per_window.csv").read_text().splitlines()[1:]
    windows = {ln.split(",")[0] for ln in lines}
    assert windows == {"0", "1"}  # 3 months -> 2 sliding windows
    ft_rows = [ln for ln in lines if ln.split(",")[1].startswith("FT_")]
    assert len(ft_rows) == 16  # 8 thresholds x 2 windows


def test_params_csv_bytes_match_per_row_formula(tmp_path, monkeypatch):
    # Blocks of three rows, and planted thresholds that take every .10g text path.
    monkeypatch.setattr(ingest, "FORMAT_BLOCK", 3)
    params = {"OPT_T": (1.5e-7, 1.0), "IDC": (-1.5, float("nan")), "ITA": (1e10, 1234567890.5),
              "FT_0.001": (0.001, 0.5), "X": (12345678901.5, 0.0)}
    run_backtest = pipeline.run_backtest

    def planted(*args, **kwargs):
        outputs = run_backtest(*args, **kwargs)
        outputs.artifacts[0].params.update(params)
        outputs.artifacts[1].params.clear()
        return outputs

    monkeypatch.setattr(pipeline, "run_backtest", planted)
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "3", "--months", "3"])
    rc = cli.main(["backtest", "--input", str(ticks), "--out", str(tmp_path / "bt"), "--seed", "1",
                   "--strategies", "FT", "--fixed-thresholds", "0.001", "--jobs", "1"])
    assert rc == 0
    expected = "strategy,theta,alpha\n" + "".join(
        f"{name},{theta:.10g},{alpha:.10g}\n" for name, (theta, alpha) in sorted(params.items())
    )
    assert (tmp_path / "bt" / "window_00" / "params.csv").read_bytes() == expected.encode("ascii")
    assert not (tmp_path / "bt" / "window_01" / "params.csv").exists()  # no parameters, no file


def test_backtest_forced_abnormal_never_trades(tmp_path):
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "3", "--months", "3"])
    rc = cli.main(["backtest", "--input", str(ticks), "--out", str(tmp_path / "bt"),
                   "--seed", "1", "--strategies", "ITA", "--iters", "12", "--init", "4",
                   "--force-regime", "abnormal"])
    assert rc == 0
    for trades in (tmp_path / "bt").rglob("trades_ITA.csv"):
        assert len(trades.read_text().splitlines()) == 1  # header only


def test_backtest_rerun_byte_identical(tmp_path):
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "9", "--months", "3"])
    args = ["backtest", "--input", str(ticks), "--seed", "4", "--iters", "15", "--init", "5",
            "--strategies", "OPT_T,IDC,ITA"]
    rc1 = cli.main(args + ["--out", str(tmp_path / "bt1")])
    rc2 = cli.main(args + ["--out", str(tmp_path / "bt2")])
    assert rc1 == rc2 == 0
    assert _read_dir_bytes(tmp_path / "bt1") == _read_dir_bytes(tmp_path / "bt2")


def test_backtest_parallel_windows_match_serial_run(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "9", "--months", "3"])
    capsys.readouterr()
    args = ["backtest", "--input", str(ticks), "--seed", "4", "--iters", "8", "--init", "4",
            "--fixed-thresholds", "0.001,0.002", "--hmm-restarts", "1"]
    trees, stdouts = [], []
    for jobs in ("1", "2"):
        out = tmp_path / f"bt{jobs}"
        assert cli.main(args + ["--jobs", jobs, "--out", str(out)]) == 0
        stdouts.append(capsys.readouterr().out)
        trees.append({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert len({row.split(",")[0] for row in (tmp_path / "bt1" / "per_window.csv").read_text().splitlines()[1:]}) == 2
    assert trees[0] == trees[1]
    assert stdouts[0] == stdouts[1]


def test_backtest_capped_em_replays_byte_for_byte_across_jobs(tmp_path, capsys):
    # Regime fits stopped at the EM cap, run serially, in parallel and again.
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "9", "--months", "3"])
    capsys.readouterr()
    args = ["backtest", "--input", str(ticks), "--seed", "4", "--iters", "8", "--init", "4",
            "--strategies", "ITA", "--hmm-max-iters", "3", "--hmm-restarts", "3"]
    trees, stdouts = [], []
    for jobs in ("1", "2", "2"):
        out = tmp_path / f"bt{len(trees)}"
        assert cli.main(args + ["--jobs", jobs, "--out", str(out)]) == 0
        stdouts.append(capsys.readouterr().out)
        trees.append({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert sum(name.endswith("hmm_model.txt") for name in trees[0]) == 2
    assert trees[0] == trees[1] == trees[2]
    assert stdouts[0] == stdouts[1] == stdouts[2]


def test_backtest_one_window_chained_equity_is_a_copy(tmp_path):
    # With one window, each chained curve is that window's curve scaled by
    # exactly 1.0: its file is copied, not formatted again.
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "9", "--months", "2"])
    out = tmp_path / "bt"
    with mock.patch.object(cli.strategy, "write_equity", wraps=cli.strategy.write_equity) as writer:
        rc = cli.main(["backtest", "--input", str(ticks), "--out", str(out), "--seed", "1",
                       "--strategies", "FT", "--fixed-thresholds", "0.001,0.002", "--jobs", "1"])
    assert rc == 0
    assert writer.call_count == 2
    for name in ("FT_0.001", "FT_0.002"):
        window_file = (out / "window_00" / f"equity_{name}.csv").read_bytes()
        assert len(window_file.splitlines()) > 2
        assert (out / f"equity_{name}.csv").read_bytes() == window_file


def _equity_rows(timestamps, capital) -> bytes:
    return "".join(f"{format_timestamp_reference(t)},{c:.10g}\n" for t, c in zip(timestamps, capital)).encode()


def test_backtest_chained_equity_is_first_window_file_then_later_windows_scaled(tmp_path, monkeypatch):
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "9", "--months", "4"])
    captured = []
    run_backtest = pipeline.run_backtest

    def capture(*args, **kwargs):
        captured.append(run_backtest(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(pipeline, "run_backtest", capture)
    out = tmp_path / "bt"
    rc = cli.main(["backtest", "--input", str(ticks), "--out", str(out), "--seed", "1", "--jobs", "1",
                   "--strategies", "FT,IDC", "--fixed-thresholds", "0.001", "--iters", "4", "--init", "2",
                   "--capital", "2500"])
    assert rc == 0
    artifacts = captured[0].artifacts
    assert len(artifacts) == 3
    for name in ("FT_0.001", "IDC"):
        curves = [art.curves[name] for art in artifacts]
        assert all(len(curve) > 1 for curve in curves)
        timestamps, capital = chained_equity_reference(curves, 2500.0)
        first = (out / "window_00" / f"equity_{name}.csv").read_bytes()
        later = _equity_rows(timestamps[len(curves[0]) :], capital[len(curves[0]) :])
        assert (out / f"equity_{name}.csv").read_bytes() == first + later
        assert capital[-1] != curves[-1].capital[-1]  # later windows really are scaled


def test_backtest_chained_equity_skips_a_window_with_an_empty_test_half(tmp_path):
    # No ticks in window 0's test half (from 2019-01-30 12:00 through
    # February), so FT files nothing there and IDC files an empty curve:
    # each chained file is window 1's.
    generated = tmp_path / "full.csv"
    cli.main(["gen-synthetic", "--out", str(generated), "--seed", "9", "--months", "4"])
    lines = generated.read_text().splitlines(keepends=True)
    kept = [line for line in lines if not "20190130 120000000" <= line[:18] < "20190301"]
    assert 0 < len(kept) < len(lines)
    ticks = tmp_path / "ticks.csv"
    ticks.write_text("".join(kept))
    out = tmp_path / "bt"
    rc = cli.main(["backtest", "--input", str(ticks), "--out", str(out), "--seed", "1", "--jobs", "1",
                   "--strategies", "FT,IDC", "--fixed-thresholds", "0.001,0.002", "--stride-months", "2",
                   "--iters", "4", "--init", "2"])
    assert rc == 0
    assert not list((out / "window_00").glob("*_FT_*"))
    assert (out / "window_00" / "equity_IDC.csv").read_bytes() == b"timestamp,capital\n"
    for name in ("FT_0.001", "FT_0.002", "IDC"):
        window_file = (out / "window_01" / f"equity_{name}.csv").read_bytes()
        assert len(window_file.splitlines()) > 2
        assert (out / f"equity_{name}.csv").read_bytes() == window_file


def test_backtest_ita_too_few_training_legs_stops_with_diagnostic(tmp_path, capsys):
    # Thresholds far above the feed's moves leave no complete leg in the
    # training half, so the regime model cannot be fitted and the run stops.
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "3", "--months", "3"])
    capsys.readouterr()
    rc = cli.main(["backtest", "--input", str(ticks), "--out", str(tmp_path / "bt"), "--seed", "1",
                   "--strategies", "ITA", "--theta-bounds", "0.02,0.03", "--iters", "2", "--init", "2",
                   "--jobs", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.fullmatch(
        r"error: window 0: regime model cannot be fitted on 0 return rates "
        r"\(theta=0\.0[23]\d*, alpha=0\.\d+\): need at least 4 observations, got 0\n",
        err,
    ), err


def test_backtest_requires_seed(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    _write_constant_ticks(ticks)
    rc = cli.main(["backtest", "--input", str(ticks), "--out", str(tmp_path / "bt")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_backtest_too_short_series_fails(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    _write_constant_ticks(ticks)  # under an hour of data
    rc = cli.main(["backtest", "--input", str(ticks), "--out", str(tmp_path / "bt"), "--seed", "1"])
    assert rc == 2


def test_config_file_and_flag_precedence(tmp_path):
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "3", "--months", "3"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 4\niters = 15\ninit = 5\nstrategies = OPT_T\n# comment\n")
    rc = cli.main(["backtest", "--input", str(ticks), "--out", str(tmp_path / "bt1"),
                   "--config", str(cfg)])
    assert rc == 0
    rows1 = (tmp_path / "bt1" / "per_window.csv").read_text().splitlines()[1:]
    assert all(ln.split(",")[1] == "OPT_T" for ln in rows1)
    # a flag overrides the config value
    rc = cli.main(["backtest", "--input", str(ticks), "--out", str(tmp_path / "bt2"),
                   "--config", str(cfg), "--strategies", "FT"])
    assert rc == 0
    rows2 = (tmp_path / "bt2" / "per_window.csv").read_text().splitlines()[1:]
    assert all(ln.split(",")[1].startswith("FT") for ln in rows2)


def test_config_unknown_key_exits_2_naming_line(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    _write_constant_ticks(ticks)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# typo below\nseed = 1\niter = 3\n")
    rc = cli.main(["optimize", "--input", str(ticks), "--out", str(tmp_path / "opt"), "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg}:3: unknown key 'iter'\n"
    assert not (tmp_path / "opt").exists()
    # A key of another command is allowed, so one file serves several commands.
    cfg.write_text("seed = 5\nmonths = 1\nwindow-months = 2\niters = 3\n")
    rc = cli.main(["gen-synthetic", "--out", str(tmp_path / "syn.csv"), "--config", str(cfg)])
    assert rc == 0


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--strategies", "FT", "--fixed-thresholds", ""], "FT needs at least one fixed threshold"),
        (["--fixed-thresholds", "0.001,0.001"], "duplicate fixed thresholds: [0.001, 0.001]"),
        (["--fixed-thresholds", "1.5"], "fixed thresholds must lie in (0, 1), got 1.5"),
        (["--iters", "4", "--init", "8"], "require iters >= init >= 1, got iters=4 init=8"),
        (["--strategies", "FT,XYZ"], "unknown strategies: ['XYZ']"),
        (["--theta-bounds", "0.003,0.001"], "theta_bounds must be well ordered"),
        (["--strategies", "IDC,ITA", "--hmm-max-iters", "-1"], "HMM max_iters must be >= 0, got -1"),
        (["--hmm-tol", "-1"], "HMM tol must be > 0, got -1.0"),
        (["--hmm-tol", "0"], "HMM tol must be > 0, got 0.0"),
        (["--hmm-restarts", "0"], "HMM n_restarts must be >= 1, got 0"),
        (["--strategies", "IDC", "--capital", "-5"], "initial capital must be finite and > 0, got -5.0"),
        (["--capital", "0"], "initial capital must be finite and > 0, got 0.0"),
        (["--capital", "inf"], "initial capital must be finite and > 0, got inf"),
        (["--capital", "nan"], "initial capital must be finite and > 0, got nan"),
        (["--jobs", "0"], "jobs must be >= 1, got 0"),
        (["--jobs", "-3"], "jobs must be >= 1, got -3"),
    ],
    ids=["no-ft-threshold", "duplicate-threshold", "threshold-above-1", "iters-below-init", "unknown-strategy",
         "reversed-theta-bounds", "negative-hmm-max-iters", "negative-hmm-tol", "zero-hmm-tol", "zero-hmm-restarts",
         "negative-capital", "zero-capital", "infinite-capital", "nan-capital", "zero-jobs", "negative-jobs"],
)
def test_backtest_bad_settings_exit_2_before_any_window(tmp_path, capsys, flags, message):
    ticks = tmp_path / "ticks.csv"
    _write_constant_ticks(ticks)
    run_window = pipeline.run_window
    with mock.patch.object(pipeline, "run_window", wraps=run_window) as windows:
        rc = cli.main(["backtest", "--input", str(ticks), "--out", str(tmp_path / "bt"), "--seed", "1"] + flags)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert windows.call_count == 0
    assert not (tmp_path / "bt").exists()


def test_optimize_command(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "6", "--months", "1"])
    rc = cli.main(["optimize", "--input", str(ticks), "--out", str(tmp_path / "opt"),
                   "--seed", "2", "--iters", "12", "--init", "4"])
    assert rc == 0
    lines = (tmp_path / "opt" / "trials.csv").read_text().splitlines()
    assert lines[0] == "iteration,theta,alpha,objective"
    assert len(lines) == 13
    assert "best theta=" in capsys.readouterr().out


def test_parse_drops_warned_on_stderr(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    _write_constant_ticks(ticks)
    with open(ticks, "a", encoding="utf-8") as fh:
        fh.write("20190701 000000000,1.09995,1.10005\n")  # before the last row
        fh.write("20190801 000000000,notanumber,1.1\n")
    clean = tmp_path / "clean.csv"
    _write_constant_ticks(clean)
    want = "warning: dropped 2 of 52 rows (1 malformed, 1 out of order)\n"
    runs = [
        ["optimize", "--seed", "2", "--iters", "2", "--init", "2"],
        ["regimes", "--theta", "0.001", "--seed", "2"],
        ["backtest", "--seed", "2", "--strategies", "FT"],
    ]
    for argv in runs:
        cli.main(argv + ["--input", str(clean), "--out", str(tmp_path / "clean_out")])
        assert "warning" not in capsys.readouterr().err
        cli.main(argv + ["--input", str(ticks), "--out", str(tmp_path / "out")])
        assert capsys.readouterr().err.startswith(want), argv[0]
    rc = cli.main(["summarize", "--input", str(ticks), "--theta", "0.001", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert "parsed 52 rows, 2 dropped" in captured.out


def test_regimes_command(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "6", "--months", "2"])
    rc = cli.main(["regimes", "--input", str(ticks), "--theta", "0.001", "--alpha", "0.5",
                   "--out", str(tmp_path / "reg"), "--seed", "2"])
    assert rc == 0
    model = (tmp_path / "reg" / "hmm_model.txt").read_text()
    assert "abnormal_state" in model
    lines = (tmp_path / "reg" / "regimes.csv").read_text().splitlines()
    assert lines[0] == "from_index,to_index,interval_seconds,value,state,label"
    assert len(lines) > 10


def test_regimes_capped_fit_prints_the_likelihood_of_its_model(tmp_path, capsys):
    # A fit stopped at the EM cap prints the likelihood of the parameters
    # it wrote to hmm_model.txt, not that of the step before.
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "6", "--months", "2"])
    capsys.readouterr()
    rc = cli.main(["regimes", "--input", str(ticks), "--theta", "0.001", "--alpha", "0.5",
                   "--out", str(tmp_path / "reg"), "--seed", "2", "--hmm-max-iters", "3"])
    assert rc == 0
    text = (tmp_path / "reg" / "hmm_model.txt").read_text()
    p = {key: float(value) for key, value in (line.split(" = ") for line in text.splitlines())}
    series = parse_ticks(ticks, "SYN").series
    legs = dc.dc_pass(series.prices, dc.DcConfig(0.001, 0.5))
    rates = dc.leg_rates(legs.extreme, legs.extreme_price, series.timestamps)
    _, _, ll = forward_backward_reference(
        np.array([p["pi_0"], p["pi_1"]]),
        np.array([[p["a_00"], p["a_01"]], [p["a_10"], p["a_11"]]]),
        np.array([p["mu_0"], p["mu_1"]]),
        np.array([p["var_0"], p["var_1"]]),
        rates.value,
    )
    assert capsys.readouterr().out.endswith(f" loglik={ll:.4f}\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--hmm-max-iters", "-1"], "HMM max_iters must be >= 0, got -1"),
        (["--hmm-tol", "-1"], "HMM tol must be > 0, got -1.0"),
        (["--hmm-restarts", "0"], "HMM n_restarts must be >= 1, got 0"),
    ],
    ids=["negative-max-iters", "negative-tol", "zero-restarts"],
)
def test_regimes_bad_hmm_settings_exit_2(tmp_path, capsys, flags, message):
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "6", "--months", "1"])
    capsys.readouterr()
    rc = cli.main(["regimes", "--input", str(ticks), "--theta", "0.001", "--alpha", "0.5",
                   "--out", str(tmp_path / "reg"), "--seed", "1"] + flags)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "reg").exists()


def test_summarize_rdc_matches_regimes_columns(tmp_path, capsys):
    # Timestamps floored to the half hour make zero-interval legs, which
    # both commands must skip alike.
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "6", "--months", "2"])
    series = parse_ticks(ticks, "SYN").series
    coarse = tmp_path / "coarse.csv"
    write_ticks(coarse, series.timestamps // 1_800_000 * 1_800_000, series.prices - 5e-5, series.prices + 5e-5)
    pair = ["--theta", "0.0005", "--alpha", "0.4"]
    for path, skipped in ((ticks, "(0 skipped)"), (coarse, None)):
        capsys.readouterr()
        assert cli.main(["summarize", "--input", str(path), "--out", str(tmp_path / "sum")] + pair) == 0
        out = capsys.readouterr().out
        assert (skipped in out) if skipped else re.search(r"\([1-9]\d* skipped\)", out), out
        assert cli.main(["regimes", "--input", str(path), "--out", str(tmp_path / "reg"), "--seed", "1"] + pair) == 0
        rdc = (tmp_path / "sum" / "rdc.csv").read_text().splitlines()
        regimes = (tmp_path / "reg" / "regimes.csv").read_text().splitlines()
        assert len(rdc) > 10
        assert rdc == [",".join(row.split(",")[:4]) for row in regimes]


def test_summarize_makes_one_dc_pass(tmp_path, capsys):
    # The events, the extremes and the return rates all come from one pass.
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "20190701", "--months", "1"])
    with mock.patch.object(dc, "dc_pass", wraps=dc.dc_pass) as passes:
        rc = cli.main(["summarize", "--input", str(ticks), "--theta", "0.001", "--alpha", "0.5",
                       "--out", str(tmp_path / "sum")])
    assert rc == 0
    assert passes.call_count == 1
    assert len((tmp_path / "sum" / "rdc.csv").read_text().splitlines()) > 10


def test_regimes_flat_series_exits_2_with_fit_diagnostic(tmp_path, capsys):
    # A flat series confirms no leg; the fit's own minimum is reported
    # with the thresholds that produced the empty history.
    ticks = tmp_path / "flat.csv"
    _write_constant_ticks(ticks)
    rc = cli.main(["regimes", "--input", str(ticks), "--theta", "0.001", "--alpha", "0.5",
                   "--out", str(tmp_path / "reg"), "--seed", "2"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: regime model cannot be fitted on 0 return rates (theta=0.001, alpha=0.5): "
        "need at least 4 observations, got 0\n"
    )
    assert not (tmp_path / "reg").exists()


def test_report_command_rebuilds_aggregate(tmp_path):
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "3", "--months", "3"])
    cli.main(["backtest", "--input", str(ticks), "--out", str(tmp_path / "bt"),
              "--seed", "4", "--iters", "12", "--init", "4", "--strategies", "FT,OPT_T"])
    rc = cli.main(["report", "--input", str(tmp_path / "bt"), "--out", str(tmp_path / "rebuilt")])
    assert rc == 0
    assert (tmp_path / "rebuilt" / "aggregate.csv").read_bytes() == (
        tmp_path / "bt" / "aggregate.csv"
    ).read_bytes()


def test_report_skips_blank_lines_and_names_malformed_row(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "3", "--months", "3"])
    cli.main(["backtest", "--input", str(ticks), "--out", str(tmp_path / "bt"),
              "--seed", "4", "--iters", "12", "--init", "4", "--strategies", "FT,OPT_T"])
    per_window = tmp_path / "bt" / "per_window.csv"
    lines = per_window.read_text().splitlines()
    per_window.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n\n")
    rc = cli.main(["report", "--input", str(tmp_path / "bt"), "--out", str(tmp_path / "rebuilt")])
    assert rc == 0
    assert (tmp_path / "rebuilt" / "aggregate.csv").read_bytes() == (tmp_path / "bt" / "aggregate.csv").read_bytes()
    capsys.readouterr()
    per_window.write_text("\n".join(lines[:2] + ["0,FT,1.5,0.2"] + lines[2:]) + "\n")
    rc = cli.main(["report", "--input", str(tmp_path / "bt"), "--out", str(tmp_path / "rebuilt2")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {per_window}:3: malformed row: ") and err.count("\n") == 1


def test_report_duplicate_row_exits_2_writing_nothing(tmp_path, capsys):
    # Two rows for one (window, strategy) pair would both be echoed, and the
    # aggregate would read only the later one.
    per_window = tmp_path / "bt" / "per_window.csv"
    per_window.parent.mkdir()
    per_window.write_text(
        "window_id,strategy,crr_pct,mdd_pct,trades\n0,IDC,1.0,0.5,4\n0,FT,2.0,0.5,4\n\n0,IDC,9.0,0.5,4\n"
    )
    rc = cli.main(["report", "--input", str(tmp_path / "bt"), "--out", str(tmp_path / "rebuilt")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {per_window}:5: duplicate row for window 0, strategy IDC\n"
    assert not (tmp_path / "rebuilt").exists()


@pytest.mark.parametrize(
    "row,reason",
    [
        ("-1,IDC,2,-5,2.5", "window id -1 is negative"),
        ("0,FT_0.001,nan,0.5,4", "CRR nan is not a finite percentage of at least -100"),
        ("0,IDC,inf,0.5,4", "CRR inf is not a finite percentage of at least -100"),
        ("0,IDC,-100.5,0.5,4", "CRR -100.5 is not a finite percentage of at least -100"),
        ("0,IDC,2,-5,4", "MDD -5.0 is not a percentage in [0, 100]"),
        ("0,IDC,2,100.5,4", "MDD 100.5 is not a percentage in [0, 100]"),
        ("0,IDC,2,nan,4", "MDD nan is not a percentage in [0, 100]"),
        ("0,IDC,2,0.5,-2", "trade count -2.0 is not a whole number of at least 0"),
        ("0,IDC,2,0.5,2.5", "trade count 2.5 is not a whole number of at least 0"),
        ("0,FT,2,0.5,inf", "trade count inf is not a whole number of at least 0"),
    ],
)
def test_report_refuses_a_row_backtest_never_writes(tmp_path, capsys, row, reason):
    # A fractional trade count is the FT row's average, and legal there only.
    per_window = tmp_path / "bt" / "per_window.csv"
    per_window.parent.mkdir()
    per_window.write_text(f"window_id,strategy,crr_pct,mdd_pct,trades\n0,FT,1.5,0.5,2.5\n{row}\n1,IDC,1,0.5,4\n")
    rc = cli.main(["report", "--input", str(tmp_path / "bt"), "--out", str(tmp_path / "rebuilt")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {per_window}:3: {reason}\n"
    assert not (tmp_path / "rebuilt").exists()


def test_report_wrong_header_exits_2(tmp_path, capsys):
    per_window = tmp_path / "bt" / "per_window.csv"
    per_window.parent.mkdir()
    per_window.write_text("strategy,crr_pct\nFT,1.5\n")
    rc = cli.main(["report", "--input", str(tmp_path / "bt"), "--out", str(tmp_path / "rebuilt")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {per_window}: unexpected header\n"
    assert not (tmp_path / "rebuilt").exists()


def test_cli_import_loads_neither_scipy_stats_nor_optimize():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, dcbacktest.cli; "
        "print(' '.join(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == ""


def test_cli_import_loads_no_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, dcbacktest.cli; print(' '.join(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == ""


def test_cli_import_loads_no_multiprocessing():
    # The process pool is imported only by a run with more than one job.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, dcbacktest.cli; print(' '.join(m for m in sys.modules if m.startswith('multiprocessing')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == ""


def test_optimize_bad_budget_exits_2_before_reading_input(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    _write_constant_ticks(ticks)
    with mock.patch.object(cli, "parse_ticks", wraps=cli.parse_ticks) as parse:
        rc = cli.main(["optimize", "--input", str(ticks), "--out", str(tmp_path / "opt"), "--seed", "1",
                       "--iters", "4", "--init", "8"])
    assert rc == 2
    assert capsys.readouterr().err == "error: require iters >= init >= 1, got iters=4 init=8\n"
    assert parse.call_count == 0
    assert not (tmp_path / "opt").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["summarize", "--theta", "0"], "theta must be > 0, got 0.0"),
        (["regimes", "--seed", "1", "--theta", "0.5", "--alpha", "0.4"],
         "require theta < alpha <= 1, got theta=0.5 alpha=0.4"),
        (["backtest", "--seed", "1", "--window-months", "0"], "window_months and stride_months must be >= 1"),
        (["backtest", "--seed", "1", "--stride-months", "0"], "window_months and stride_months must be >= 1"),
        (["backtest", "--seed", "1", "--alpha-bounds", "0.9,0.1"], "alpha_bounds must be well ordered"),
        (["backtest", "--seed", "1", "--strategies", ""], "at least one strategy must be selected"),
        (["backtest", "--seed", "1", "--alpha-bounds=0.5,2"], "alpha_bounds must lie in (0, 1], got (0.5, 2.0)"),
        (["backtest", "--seed", "1", "--alpha-bounds=-1,1"], "alpha_bounds must lie in (0, 1], got (-1.0, 1.0)"),
        (["backtest", "--seed", "1", "--alpha-bounds=0,1"], "alpha_bounds must lie in (0, 1], got (0.0, 1.0)"),
        (["backtest", "--seed", "1", "--alpha-bounds=0.1,inf"],
         "search bounds must be finite, got theta_bounds=(0.0003, 0.003) alpha_bounds=(0.1, inf)"),
        (["backtest", "--seed", "1", "--theta-bounds=-0.001,0.003"],
         "theta_bounds must lie above 0, got (-0.001, 0.003)"),
        (["backtest", "--seed", "1", "--theta-bounds=0,0.003"], "theta_bounds must lie above 0, got (0.0, 0.003)"),
        (["optimize", "--seed", "1", "--alpha-bounds=0.5,2"], "alpha_bounds must lie in (0, 1], got (0.5, 2.0)"),
        (["optimize", "--seed", "1", "--theta-bounds=0.001,nan"],
         "search bounds must be finite, got theta_bounds=(0.001, nan) alpha_bounds=(0.1, 1.0)"),
    ],
    ids=["summarize-zero-theta", "regimes-alpha-below-theta", "zero-window-months", "zero-stride-months",
         "reversed-alpha-bounds", "no-strategy", "alpha-bounds-above-1", "negative-alpha-bound", "zero-alpha-bound",
         "infinite-alpha-bound", "negative-theta-bound", "zero-theta-bound", "optimize-alpha-bounds-above-1",
         "optimize-nan-theta-bound"],
)
def test_bad_settings_exit_2_before_reading_input(tmp_path, capsys, argv, message):
    ticks = tmp_path / "ticks.csv"
    _write_constant_ticks(ticks)
    with mock.patch.object(cli, "parse_ticks", wraps=cli.parse_ticks) as parse:
        rc = cli.main(argv + ["--input", str(ticks), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert parse.call_count == 0
    assert not (tmp_path / "out").exists()


def _run(argv: list[str]) -> int:
    """``cli.main``'s exit code, also when argparse exits on its own."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-synthetic", "--out", "x.csv", "--burst-drift", "-1e-4"],
        ["gen-synthetic", "--out", "x.csv", "--normal-drift", "-2e-06"],
        ["gen-synthetic", "--out", "x.csv", "--normal-drift", "-6E-06"],
        ["backtest", "--input", "t.csv", "--out", "bt", "--theta-bounds", "-0.001,0.003"],
        ["optimize", "--input", "t.csv", "--out", "opt", "--alpha-bounds", "-.5,1"],
        ["summarize", "--input", "t.csv", "--out", "s", "--theta", "-1"],
    ],
    ids=["exponent", "exponent-lower-e", "exponent-upper-e", "list", "list-bare-point", "integer"],
)
def test_negative_value_parses_as_its_equals_form(argv):
    parser = cli.build_parser()
    *head, flag, value = argv
    args = parser.parse_args(argv)
    assert args == parser.parse_args(head + [f"{flag}={value}"])
    action = next(a for a in cli._commands(parser)[argv[0]]._actions if flag in a.option_strings)
    assert getattr(args, action.dest) == action.type(value)


def test_flag_still_needs_its_value_when_an_option_follows(capsys):
    assert _run(["optimize", "--input", "t.csv", "--out", "opt", "--theta-bounds", "--iters", "3"]) == 2
    assert "argument --theta-bounds: expected one argument" in capsys.readouterr().err


def _optional_flags():
    for name, parser in cli._commands(cli.build_parser()).items():
        for action in parser._actions:
            flag = action.option_strings[-1]
            if not action.required and flag not in ("--help", "--config"):
                yield name, flag


def _sample_value(action) -> str:
    samples = {int: "3", float: "0.25", cli._parse_regime: "abnormal", cli._parse_date: "2020-02-15"}
    return samples.get(action.type, "0.1,0.2")


@pytest.mark.parametrize("command, flag", list(_optional_flags()), ids=lambda v: v)
def test_config_value_reaches_the_command_as_its_flag_does(tmp_path, command, flag):
    # Every optional flag of every command can come from the config file,
    # and the command sees the same value either way.
    parser = cli._commands(cli.build_parser())[command]
    actions = {a.option_strings[-1]: a for a in parser._actions}
    value = _sample_value(actions[flag])
    required = [tok for f, a in actions.items() if a.required for tok in (f, "0.1")]
    cfg = tmp_path / "run.cfg"
    seen = []
    with mock.patch.dict(cli._COMMANDS, {command: lambda args: seen.append(args) or 0}):
        cfg.write_text("")
        assert cli.main([command, "--config", str(cfg), flag, value] + required) == 0
        cfg.write_text(f"{flag[2:]} = {value}\n")
        assert cli.main([command, "--config", str(cfg)] + required) == 0
    by_flag, by_config = seen
    assert by_flag == by_config
    assert getattr(by_config, actions[flag].dest) != actions[flag].default


def test_config_force_regime_matches_the_flag(tmp_path):
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "3", "--months", "3"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("force-regime = abnormal\n")
    args = ["backtest", "--input", str(ticks), "--seed", "1", "--strategies", "ITA", "--iters", "8", "--init", "4",
            "--jobs", "1"]
    assert cli.main(args + ["--out", str(tmp_path / "flag"), "--force-regime", "abnormal"]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "cfg"), "--config", str(cfg)]) == 0
    assert _read_dir_bytes(tmp_path / "cfg") == _read_dir_bytes(tmp_path / "flag")


def test_config_alpha_fixed_pins_every_trial(tmp_path):
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "6", "--months", "1"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha-fixed = 1\n")
    rc = cli.main(["optimize", "--input", str(ticks), "--out", str(tmp_path / "opt"), "--seed", "2",
                   "--iters", "6", "--init", "3", "--config", str(cfg)])
    assert rc == 0
    rows = (tmp_path / "opt" / "trials.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    assert {row.split(",")[2] for row in rows} == {"1"}


def test_config_summarize_alpha_matches_the_flag(tmp_path):
    ticks = tmp_path / "ticks.csv"
    cli.main(["gen-synthetic", "--out", str(ticks), "--seed", "3", "--months", "3"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.5\n")
    args = ["summarize", "--input", str(ticks), "--theta", "0.002"]
    assert cli.main(args + ["--out", str(tmp_path / "flag"), "--alpha", "0.5"]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "cfg"), "--config", str(cfg)]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "default")]) == 0
    by_config, by_flag = _read_dir_bytes(tmp_path / "cfg"), _read_dir_bytes(tmp_path / "flag")
    assert by_config == by_flag != _read_dir_bytes(tmp_path / "default")


@pytest.mark.parametrize(
    "line, message",
    [
        ("iters = abc", "argument --iters: invalid int value: 'abc'"),
        ("force-regime = bogus", "argument --force-regime: invalid choice: 'bogus' (choose from 'normal', 'abnormal')"),
        ("theta-bounds = 0.1", "argument --theta-bounds: expected 'lo,hi', got '0.1'"),
        ("fixed-thresholds = 0.001,x", "argument --fixed-thresholds: could not convert string to float: 'x'"),
    ],
    ids=["iters", "force-regime", "theta-bounds", "fixed-thresholds"],
)
def test_bad_config_value_exits_2_naming_its_flag_before_reading_input(tmp_path, capsys, line, message):
    ticks = tmp_path / "ticks.csv"
    _write_constant_ticks(ticks)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 1\n{line}\n")
    with mock.patch.object(cli, "parse_ticks", wraps=cli.parse_ticks) as parse:
        rc = _run(["backtest", "--input", str(ticks), "--out", str(tmp_path / "bt"), "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: {message}\n"), err
    assert parse.call_count == 0
    assert not (tmp_path / "bt").exists()


@pytest.mark.parametrize(
    "command, flag, value, reason",
    [
        ("backtest", "--theta-bounds", "0.001", "expected 'lo,hi', got '0.001'"),
        ("optimize", "--alpha-bounds", "0.5,x", "could not convert string to float: 'x'"),
        ("backtest", "--fixed-thresholds", "0.001,x", "could not convert string to float: 'x'"),
        ("gen-synthetic", "--start", "2020-02-30", "day is out of range for month"),
    ],
    ids=["theta-bounds", "alpha-bounds", "fixed-thresholds", "start"],
)
def test_bad_option_value_has_one_message_from_flag_or_config(tmp_path, capsys, command, flag, value, reason):
    ticks = tmp_path / "ticks.csv"
    _write_constant_ticks(ticks)
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--seed", "1"] + (["--input", str(ticks)] if command != "gen-synthetic" else [])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    errs = []
    with mock.patch.object(cli, "parse_ticks", wraps=cli.parse_ticks) as parse, \
            mock.patch.object(synthetic, "generate_ticks", wraps=synthetic.generate_ticks) as generate:
        for extra in ([flag, value], ["--config", str(cfg)]):
            assert _run(argv + extra) == 2
            errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].endswith(f"\ndcbacktest {command}: error: argument {flag}: {reason}\n"), errs[0]
    assert parse.call_count == generate.call_count == 0
    assert not out.exists()


def test_every_text_default_is_converted_by_argparse():
    # argparse runs a flag's type over a flag value, a config value and a
    # string default alike; a text option without a type would reach its
    # command unconverted.
    untyped = {
        (name, action.option_strings[-1])
        for name, parser in cli._commands(cli.build_parser()).items()
        for action in parser._actions
        if not action.required and isinstance(action.default, str) and action.default != argparse.SUPPRESS
        and action.type is None
    }
    assert untyped == {(name, "--instrument") for name in ("summarize", "optimize", "regimes", "backtest")}


@pytest.mark.parametrize(
    "command, line",
    [
        ("backtest", "out = elsewhere"),
        ("backtest", "input = other.csv"),
        ("summarize", "theta = 0.002"),
        ("backtest", "config = other.cfg"),
        ("backtest", "help = 1"),
    ],
    ids=["out", "input", "theta", "config", "help"],
)
def test_config_key_it_cannot_set_exits_2_naming_line(tmp_path, capsys, command, line):
    # A required flag always comes from the command line, so its key could
    # only be dropped; --config and --help are no settings.
    ticks = tmp_path / "ticks.csv"
    _write_constant_ticks(ticks)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 1\n{line}\n")
    argv = [command, "--input", str(ticks), "--out", str(tmp_path / "out"), "--config", str(cfg)]
    with mock.patch.object(cli, "parse_ticks", wraps=cli.parse_ticks) as parse:
        rc = cli.main(argv + (["--theta", "0.001"] if command == "summarize" else []))
    assert rc == 2
    key = line.split(" =")[0]
    assert capsys.readouterr().err == f"error: {cfg}:2: key '{key}' cannot be set in a config file\n"
    assert parse.call_count == 0
    assert not (tmp_path / "out").exists()


def test_config_duplicate_key_exits_2_naming_its_second_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\nmonths = 1\n\n# again\nseed = 2\n")
    out = tmp_path / "syn.csv"
    with mock.patch.object(synthetic, "generate_ticks", wraps=synthetic.generate_ticks) as generate:
        rc = cli.main(["gen-synthetic", "--out", str(out), "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg}:5: duplicate key 'seed'\n"
    assert generate.call_count == 0
    assert not out.exists()


@pytest.mark.parametrize("spelling", ["--config {}", "--config={}", "--conf {}"], ids=["space", "equals", "prefix"])
def test_config_is_read_before_argparse_requires_a_flag(tmp_path, capsys, spelling):
    # A config key naming a required flag is refused even when that flag is
    # missing from the command line: the file is read before the parse.
    ticks = tmp_path / "ticks.csv"
    _write_constant_ticks(ticks)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta = 0.001\n")
    argv = ["summarize", "--input", str(ticks), "--out", str(tmp_path / "out")] + spelling.format(cfg).split(" ")
    with mock.patch.object(cli, "parse_ticks", wraps=cli.parse_ticks) as parse:
        rc = _run(argv)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg}:1: key 'theta' cannot be set in a config file\n"
    assert parse.call_count == 0
    assert not (tmp_path / "out").exists()


def test_config_path_like_a_negative_number_needs_the_equals_form(tmp_path, capsys, monkeypatch):
    # The config is found by a parser without the commands' negative-number
    # pattern, which reads "-1.cfg" as an option, not as --config's path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-1.cfg").write_text("seed = 3\nmonths = 1\n")
    assert _run(["gen-synthetic", "--out", "a.csv", "--config", "-1.cfg"]) == 2
    err = capsys.readouterr().err
    assert err.endswith("dcbacktest gen-synthetic: error: argument --config: give it as --config=-1.cfg\n"), err
    assert not (tmp_path / "a.csv").exists()
    assert cli.main(["gen-synthetic", "--out", "a.csv", "--config=-1.cfg"]) == 0
    assert cli.main(["gen-synthetic", "--out", "b.csv", "--seed", "3", "--months", "1"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_config_without_a_path_is_argparse_error(capsys):
    assert _run(["gen-synthetic", "--out", "a.csv", "--config"]) == 2
    assert capsys.readouterr().err.endswith("dcbacktest gen-synthetic: error: argument --config: expected one argument\n")


def test_config_with_utf8_bom_reads_as_without(tmp_path, capsys):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfseed = 3\nmonths = 1\n")
    assert cli.main(["gen-synthetic", "--out", str(tmp_path / "a.csv"), "--config", str(cfg)]) == 0
    assert cli.main(["gen-synthetic", "--out", str(tmp_path / "b.csv"), "--seed", "3", "--months", "1"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_config_line_without_equals_exits_2_naming_line(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    _write_constant_ticks(ticks)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\niters 3\n")
    with mock.patch.object(cli, "parse_ticks", wraps=cli.parse_ticks) as parse:
        rc = cli.main(["optimize", "--input", str(ticks), "--out", str(tmp_path / "opt"), "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: expected 'key = value'\n"
    assert parse.call_count == 0
    assert not (tmp_path / "opt").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--theta-bounds", "0.1"], "backtest: error: argument --theta-bounds: expected 'lo,hi', got '0.1'\n"),
        (["--iters", "abc"], "backtest: error: argument --iters: invalid int value: 'abc'\n"),
        (["--force-regime", "bogus"],
         "backtest: error: argument --force-regime: invalid choice: 'bogus' (choose from 'normal', 'abnormal')\n"),
    ],
    ids=["theta-bounds", "iters", "force-regime"],
)
def test_bad_flag_value_keeps_its_message(tmp_path, capsys, flags, message):
    ticks = tmp_path / "ticks.csv"
    _write_constant_ticks(ticks)
    rc = _run(["backtest", "--input", str(ticks), "--out", str(tmp_path / "bt"), "--seed", "1"] + flags)
    assert rc == 2
    assert capsys.readouterr().err.endswith(message)
    assert not (tmp_path / "bt").exists()


_LONG_FLAGS = {
    "summarize": "input instrument out config theta alpha",
    "optimize": "input instrument out config theta-bounds alpha-bounds iters init alpha-fixed seed",
    "regimes": "input instrument out config theta alpha seed hmm-max-iters hmm-tol hmm-restarts",
    "backtest": "input instrument out config window-months stride-months theta-bounds alpha-bounds iters init "
                "seed strategies fixed-thresholds hmm-max-iters hmm-tol hmm-restarts capital jobs force-regime",
    "gen-synthetic": "out config seed months start ticks-per-day burst-fraction burst-episodes burst-vol-mult "
                     "burst-drift normal-vol normal-drift",
    "report": "input out config",
}


@pytest.mark.parametrize("command", [None] + sorted(_LONG_FLAGS))
def test_help_lists_every_long_flag(capsys, command):
    with pytest.raises(SystemExit) as done:
        cli.main([command, "--help"] if command else ["--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    want = {"help"} | set(_LONG_FLAGS[command].split() if command else ())
    assert set(re.findall(r"(?<![\w-])--([\w-]+)", out)) == want
    if command is None:
        assert all(name in out for name in _LONG_FLAGS)
