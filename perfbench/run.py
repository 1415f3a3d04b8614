"""Backtest benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The workload's tick file is generated from ``--seed`` (and cached
under ``.perfbench_work/``). With ``--trace 0`` the run measures, for
``--seconds`` seconds, repeated ``dcbacktest backtest ... --jobs 1`` calls in
this already-imported process and prints the end-to-end metrics; set-up
time and peak memory come from fresh interpreters. With ``--trace 1`` it
alternates untraced and traced calls and prints the per-layer metrics.
Every call's output tree is checked (see checks.py); the last line of
standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 5
MIN_CALLS = 3  # timed calls per run, however long they take

sys.path.insert(0, HERE)
import checks  # noqa: E402
from workloads import WORKLOADS, Workload, prepare  # noqa: E402

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "ingest.parse_s": "s",
    "ingest.rows": "count",
    "ingest.rows_per_s": "1/s",
    "strategy.objective_evals": "count",
    "strategy.objective_s": "s",
    "strategy.objective_us_per_tick": "us",
    "strategy.run_s": "s",
    "strategy.run_ticks": "count",
    "bayesopt.proposals": "count",
    "bayesopt.proposal_s": "s",
    "bayesopt.ms_per_proposal": "ms",
    "hmm.fit_s": "s",
    "hmm.fit_obs": "count",
    "hmm.em_iters": "count",
    "hmm.regime_queries": "count",
    "hmm.regime_query_s": "s",
    "hmm.ms_per_regime_query": "ms",
    "hmm.regime_history_mean": "count",
    "cli.write_s": "s",
    "cli.write_files": "count",
    "cli.write_mb": "MB",
    "pipeline.windows": "count",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
}
# Figures that depend only on the inputs: they must repeat exactly.
COUNTS = (
    "ingest.rows", "ingest.dropped", "strategy.objective_evals", "strategy.objective_ticks",
    "strategy.run_ticks", "bayesopt.proposals", "hmm.fit_obs", "hmm.em_iters",
    "hmm.regime_queries", "hmm.history_total", "pipeline.windows", "cli.write_files", "cli.write_bytes",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def backtest_argv(w: Workload, tick_path: str, seed: int, out: str) -> list[str]:
    return [
        "backtest", "--input", tick_path, "--seed", str(seed), "--out", out, "--jobs", "1",
        "--strategies", w.strategies, "--iters", str(w.iters), "--init", str(w.init),
        "--theta-bounds", w.theta_bounds, "--alpha-bounds", w.alpha_bounds, "--hmm-restarts", str(w.hmm_restarts),
        "--window-months", str(checks.WINDOW_MONTHS), "--stride-months", str(checks.STRIDE_MONTHS),
        "--capital", repr(checks.CAPITAL), "--fixed-thresholds", ",".join(map(str, checks.FIXED_THRESHOLDS)),
    ]


def tree_digest(root: str) -> tuple[str, int, int]:
    """Content hash, file count and byte count of an output tree."""
    h = hashlib.sha256()
    files = size = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, root).encode() + b"\0" + data + b"\0")
            files += 1
            size += len(data)
    return h.hexdigest(), files, size


class Bench:
    def __init__(self, w: Workload, seed: int) -> None:
        self.w = w
        self.seed = seed
        self.dir = os.path.join(WORK, w.name)
        os.makedirs(self.dir, exist_ok=True)
        self.tick_path, self.ticks = prepare(w, seed, os.path.join(WORK, "inputs"))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference = None  # (digest, files, bytes) of the checked output tree

    def argv(self, out: str) -> list[str]:
        return backtest_argv(self.w, self.tick_path, self.seed, out)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def fresh_process(self) -> tuple[float, float]:
        """The backtest in a new interpreter, fully checked; returns its
        set-up time in s and its peak RSS in MB."""
        out = os.path.join(self.dir, "fresh")
        report = os.path.join(self.dir, "fresh.json")
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        with open(os.path.join(self.dir, "fresh.stderr"), "wb") as err:
            t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), report, *self.argv(out)],
                stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"fresh backtest exited {proc.returncode}; see {err.name}")
        with open(report, encoding="utf-8") as fh:
            done = json.load(fh)
        self.check_tree(out, done["trials"])
        return (done["import_done_ns"] - t0) / 1e9, usage.ru_maxrss / 1024.0

    def setup_time(self) -> float:
        """Fresh interpreter start to ``import dcbacktest.cli`` done."""
        code = "import time; import dcbacktest.cli; print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), cwd=ROOT, check=True
        )
        return (int(done.stdout.strip().splitlines()[-1]) - t0) / 1e9

    def call(self, out: str, recorder=None) -> tuple[float, float]:
        """One backtest in this process; returns its wall and CPU seconds."""
        from dcbacktest import cli

        import spans

        shutil.rmtree(out, ignore_errors=True)
        gc.collect()  # the previous call's garbage is not this call's cost
        self.attempted += 1
        tracing = spans.installed(recorder) if recorder is not None else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()), tracing:
            t0, c0 = time.perf_counter(), time.process_time()
            rc = cli.main(self.argv(out))
            t1, c1 = time.perf_counter(), time.process_time()
        if rc != 0:
            raise RuntimeError(f"backtest exited {rc}")
        return t1 - t0, c1 - c0

    def check_tree(self, out: str, trials: list[dict]) -> None:
        """Every output check on one tree, which becomes the reference for the others."""
        from dcbacktest import ingest

        with open(self.tick_path, "rb") as fh:
            n_lines = fh.read().count(b"\n")
        errs = checks.check_ingest(ingest.parse_ticks(self.tick_path, "SYN"), self.ticks, n_lines)
        errs += checks.check_outputs(out, self.ticks, tuple(self.w.strategies.split(",")), self.w.iters, trials)
        if errs:
            self.failed += 1
            self.errors.extend(errs)
        self.reference = tree_digest(out)

    def expect_tree(self, out: str) -> tuple[str, int, int]:
        """A later call's tree must equal the checked one byte for byte."""
        digest = tree_digest(out)
        if digest != self.reference:
            self.fail("output tree differs from the checked call's")
        return digest


def fmt(values: list[float]) -> str:
    return "[" + " ".join(f"{v:.3f}" for v in values) + "]"


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def run_untraced(b: Bench, seconds: float) -> dict[str, float]:
    setup, rss = b.fresh_process()
    setup = [setup] + [b.setup_time() for _ in range(SETUP_SAMPLES - 1)]
    out = os.path.join(b.dir, "timed")
    walls, cpus = [], []
    start = time.perf_counter()
    while len(walls) < MIN_CALLS or time.perf_counter() - start < seconds:
        wall, cpu = b.call(out)
        b.expect_tree(out)
        walls.append(wall)
        cpus.append(cpu)
    print(f"calls: wall {fmt(walls)} cpu {fmt(cpus)} setup {fmt(setup)}", file=sys.stderr)
    return {
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }


def run_traced(b: Bench, seconds: float) -> tuple[dict[str, float], bool]:
    import spans

    out = os.path.join(b.dir, "timed")
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        # Alternate which side goes first, so drift in machine speed hits both.
        for tracing in (True, False) if len(traced) % 2 == 0 else (False, True):
            if not tracing:
                plain.append(b.call(out)[0])
                b.expect_tree(out)
                continue
            rec = spans.Recorder()
            wall, _ = b.call(out, rec)
            if b.reference is None:
                trials = [
                    {k: [(t.iteration, t.theta, t.alpha, t.objective) for t in h] for k, h in art.trials.items()}
                    for art in rec.result.artifacts
                ]
                b.check_tree(out, trials)
            _, files, size = b.expect_tree(out)
            m = spans.layer_metrics(rec)
            m["cli.write_files"], m["cli.write_bytes"] = files, size
            traced.append(wall)
            layers.append(m)
    print(f"calls: untraced {fmt(plain)} traced {fmt(traced)}", file=sys.stderr)
    repeat = all(m[k] == layers[0][k] for m in layers for k in COUNTS)
    if not repeat:
        print("counts differ between traced calls on one input:", file=sys.stderr)
        for k in COUNTS:
            print(f"  {k}: {[m[k] for m in layers]}", file=sys.stderr)
    c = layers[0]
    med = {k: statistics.median([m[k] for m in layers]) for k in c if k.endswith("_s")}
    return {
        "ingest.parse_s": med["ingest.parse_s"],
        "ingest.rows": c["ingest.rows"],
        "ingest.rows_per_s": ratio(c["ingest.rows"], med["ingest.parse_s"]),
        "strategy.objective_evals": c["strategy.objective_evals"],
        "strategy.objective_s": med["strategy.objective_s"],
        "strategy.objective_us_per_tick": ratio(med["strategy.objective_s"], c["strategy.objective_ticks"]) * 1e6,
        "strategy.run_s": med["strategy.run_s"],
        "strategy.run_ticks": c["strategy.run_ticks"],
        "bayesopt.proposals": c["bayesopt.proposals"],
        "bayesopt.proposal_s": med["bayesopt.proposal_s"],
        "bayesopt.ms_per_proposal": ratio(med["bayesopt.proposal_s"], c["bayesopt.proposals"]) * 1e3,
        "hmm.fit_s": med["hmm.fit_s"],
        "hmm.fit_obs": c["hmm.fit_obs"],
        "hmm.em_iters": c["hmm.em_iters"],
        "hmm.regime_queries": c["hmm.regime_queries"],
        "hmm.regime_query_s": med["hmm.regime_query_s"],
        "hmm.ms_per_regime_query": ratio(med["hmm.regime_query_s"], c["hmm.regime_queries"]) * 1e3,
        "hmm.regime_history_mean": ratio(c["hmm.history_total"], c["hmm.regime_queries"]),
        "cli.write_s": med["cli.write_s"],
        "cli.write_files": c["cli.write_files"],
        "cli.write_mb": c["cli.write_bytes"] / 1e6,
        "pipeline.windows": c["pipeline.windows"],
        "pipeline.self_s": med["pipeline.self_s"],
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    }, repeat


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dcbacktest", "cli.py")):
        print(f"error: no program source at {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    b = Bench(WORKLOADS[args.workload], args.seed)
    if args.trace:
        values, correct = run_traced(b, args.seconds)
        units = PER_LAYER_UNITS
    else:
        values, correct = run_untraced(b, args.seconds), True
        units = END_TO_END_UNITS
    for e in b.errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": correct and b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
