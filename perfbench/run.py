"""Benchmark of ctqw: one closed-loop client, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 28 --trace 0

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

#: fresh-process set-up measurements per run; setup_s is their median
SETUP_REPEATS = 7
#: fewest timed passes per run, whatever --seconds says
MIN_PASSES = 3
#: a child process that runs longer than this has hung
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "peak_mb": "MB", "setup_s": "s"}
SUITE_TASK = "paper-suite"


class Run:
    """Counts tasks and failures across one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, failure: str | None, attempted: int = 1, failed: int = 1) -> None:
        self.attempted += attempted
        if failure is not None:
            self.failed += failed
            print(f"FAILED {what}: {failure}", file=sys.stderr)


def _subprocess(args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=bootstrap.ROOT)
    return proc, time.perf_counter() - t0


def _child(*args: str) -> tuple[dict, float]:
    """Run child.py in a fresh process; return its JSON line and wall time."""
    proc, wall = _subprocess([sys.executable, str(HERE / "child.py"), *args])
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def setup_seconds(workload: str, seed: int) -> float:
    return statistics.median(_child("setup", workload, str(seed))[0]["setup_s"] for _ in range(SETUP_REPEATS))


class Bench:
    """The passes of one workload: analyses in this process, then the suite in its own."""

    def __init__(self, workload: str, seed: int, run: Run, tracer=None) -> None:
        import workloads

        self.w = workloads
        self.seed = seed
        self.run = run
        self.suite = workload in workloads.SUITE_WORKLOADS
        if tracer is not None:
            tracer.begin_pass("setup")
            with tracer.installed(), tracer.task():
                self.tasks = workloads.make_tasks(workload, seed)
        else:
            self.tasks = workloads.make_tasks(workload, seed)
        self.reference = workloads.load_reference()

    def _record_rows(self, rc: int, rows: int, passed: int, what: str) -> None:
        # one task per expected row: rows missing from the output count as failed
        expected = self.w.SUITE_ROWS
        missing = expected - min(passed, expected)
        failure = f"exit {rc}, {passed}/{rows} rows pass" if missing else None
        self.run.record(what, failure, attempted=expected, failed=missing)

    def _suite_child(self, *args: str) -> tuple[dict, float]:
        """A suite run in child.py; a crashed child counts as a run with no rows."""
        try:
            return _child(*args)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"suite child failed: {exc}", file=sys.stderr)
            return {"rc": None, "rows": 0, "passed": 0}, 0.0

    def _analyses(self, index: int, tracer=None) -> dict[str, float]:
        """Run every analysis task on pass ``index``'s relabelling; return each task's wall."""
        walls = {}
        perms = self.w.pass_relabellings(self.tasks, self.seed, index)
        with tracer.installed() if tracer else nullcontext():
            for task, perm in zip(self.tasks, perms):
                graph = self.w.relabel(task.graph, perm)
                failure = None
                t0 = time.perf_counter()
                try:
                    with tracer.task() if tracer else nullcontext():
                        payload, valid = self.w.analyse(graph, task.scan)
                except Exception:
                    failure = traceback.format_exc()
                walls[task.key] = time.perf_counter() - t0
                if failure is None:
                    failure = self.w.check_task(task, payload, valid, perm, self.reference)
                self.run.record(f"{task.key} pass {index}", failure)
        return walls

    def one_pass(self, index: int) -> dict[str, float]:
        """Run pass ``index`` untraced; return each task's wall."""
        walls = self._analyses(index)
        if self.suite:
            proc, walls[SUITE_TASK] = _subprocess([sys.executable, "-m", "ctqw.cli", "paper-suite"])
            rows, passed = self.w.suite_rows(proc.stdout)
            self._record_rows(proc.returncode, rows, passed, f"suite pass {index}")
        return walls

    def traced_pass(self, index: int, tracer) -> dict[str, float]:
        """Run pass ``index`` under the tracer; return each task's wall."""
        stats = tracer.begin_pass(index)
        walls = self._analyses(index, tracer)
        if self.suite:
            result, walls[SUITE_TASK] = self._suite_child("suite-traced", str(index))
            self._record_rows(result["rc"], result["rows"], result["passed"], f"traced suite pass {index}")
            if result["rc"] is None:
                return walls
            stats.merge(result["stats"])
            stats.counts["suite_rows"] += result["rows"]
            stats.counts["suite_rows_failed"] += result["rows"] - result["passed"]
            tracer.adopt(result["spans"])
        return walls

    def peak_pass(self, index: int) -> float:
        """Peak tracemalloc heap in bytes of pass ``index``, in whichever process is larger."""
        import tracemalloc

        tracemalloc.start()
        try:
            self._analyses(index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if self.suite:
            result, _ = self._suite_child("suite-peak")
            self._record_rows(result["rc"], result["rows"], result["passed"], f"peak suite pass {index}")
            peak = max(peak, result.get("peak_bytes", 0))
        return peak


def end_to_end(workload: str, seed: int, seconds: float, run: Run) -> dict:
    setup_s = setup_seconds(workload, seed)
    bench = Bench(workload, seed, run)
    # the untimed peak-memory pass also warms caches and lazy imports
    peak = bench.peak_pass(0)
    passes: list[dict[str, float]] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start + _pass_wall(passes) <= seconds:
        passes.append(bench.one_pass(len(passes) + 1))
    walls = sorted(sum(p.values()) for p in passes)
    print(f"pass wall: n={len(walls)} median={_pass_wall(passes):.4f} min={walls[0]:.4f} max={walls[-1]:.4f}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"passes-{workload}-seed{seed}.json").write_text(json.dumps(passes))
    return {"wall_s": _pass_wall(passes), "peak_mb": peak / 1e6, "setup_s": setup_s}


def _pass_wall(passes: list[dict[str, float]]) -> float:
    """Median wall of a pass: the sum of its tasks' walls."""
    return statistics.median(sum(p.values()) for p in passes)


def per_layer(workload: str, seed: int, seconds: float, run: Run, env: dict) -> dict:
    import spans

    tracer = spans.Tracer()
    bench = Bench(workload, seed, run, tracer)
    setup_parse_ms = spans.layer_metrics(tracer.passes[0])["graphs.parse_ms"]
    bench.one_pass(0)  # warm-up
    plain: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    layers: list[dict] = []
    start = time.perf_counter()
    index = 1
    while not traced or time.perf_counter() - start + _pass_wall(plain) + _pass_wall(traced) <= seconds:
        plain.append(bench.one_pass(index))
        traced.append(bench.traced_pass(index + 1, tracer))
        layers.append(spans.layer_metrics(tracer.passes[-1]))
        index += 2

    out = {}
    for name in spans.LAYER_UNITS:
        if name in spans.EXACT_METRICS:
            out[name] = layers[0][name]  # exact: taken from the first traced pass
        elif name == "trace_overhead":
            out[name] = _pass_wall(traced) / _pass_wall(plain) - 1.0
        else:
            out[name] = statistics.median(m[name] for m in layers)
    out["graphs.parse_ms"] += setup_parse_ms
    for name in spans.EXACT_METRICS:
        values = {m[name] for m in layers}
        if len(values) > 1:
            print(f"note: {name} differs between traced passes: {sorted(values)}")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "environment": env,
        "span_fields": ["id", "parent", "name", "task", "pass", "start_s", "end_s"],
        "spans": tracer.spans,
    }))
    print(f"spans written to {path.relative_to(bootstrap.ROOT)}")
    print(f"pass wall: untraced {_pass_wall(plain):.4f} s (n={len(plain)}), "
          f"traced {_pass_wall(traced):.4f} s (n={len(traced)})")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    env = bootstrap.environment()
    print("environment " + json.dumps(env))
    run = Run()
    if args.trace:
        metrics = per_layer(args.workload, args.seed, args.seconds, run, env)
        units = spans.LAYER_UNITS
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, run)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(f"failed_frac = {run.failed}/{run.attempted} = {run.failed / run.attempted}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
