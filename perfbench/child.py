"""One backtest in a fresh interpreter, as a user's ``dcbacktest backtest`` runs.

    python3 perfbench/child.py <report.json> backtest --input ... --out ...

Prints nothing of its own; writes to ``<report.json>`` the monotonic-clock
time at which ``import dcbacktest.cli`` completed, the exit code, and the
optimizer trials of every window with full float precision, which the
output checks need.
"""
import sys
import time

from dcbacktest import cli, pipeline

IMPORT_DONE_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main() -> int:
    import json

    report, argv = sys.argv[1], sys.argv[2:]
    captured = []
    run_backtest = pipeline.run_backtest

    def capture(*args, **kwargs):
        captured.append(run_backtest(*args, **kwargs))
        return captured[-1]

    pipeline.run_backtest = capture
    rc = cli.main(argv)
    trials = [
        {name: [[t.iteration, t.theta, t.alpha, t.objective] for t in hist] for name, hist in art.trials.items()}
        for art in (captured[0].artifacts if captured else [])
    ]
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"import_done_ns": IMPORT_DONE_NS, "rc": rc, "trials": trials}, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
