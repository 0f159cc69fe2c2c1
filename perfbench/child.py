"""Fresh-process helpers of the benchmark; each prints one JSON line.

    python3 perfbench/child.py setup <workload> <seed>
        seconds spent on imports, seeded input generation and graph parsing
    python3 perfbench/child.py suite-traced <pass>
        one ``ctqw paper-suite`` run under the tracer: rows, pass stats, spans
    python3 perfbench/child.py suite-peak
        one ``ctqw paper-suite`` run under tracemalloc: rows, peak bytes
"""

import time

_T0 = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

import bootstrap  # noqa: E402


def _setup(workload: str, seed: int) -> dict:
    bootstrap.prepare()
    import workloads

    workloads.make_tasks(workload, seed)
    return {"setup_s": time.perf_counter() - _T0}


def _suite(mode: str, label: int) -> dict:
    bootstrap.prepare()
    import tracemalloc

    import spans
    import workloads
    from ctqw.cli import main

    out = io.StringIO()
    result: dict = {}
    if mode == "suite-traced":
        tracer = spans.Tracer()
        tracer.begin_pass(label)
        with tracer.installed(), tracer.task(), redirect_stdout(out):
            rc = main(["paper-suite"])
        result["stats"] = tracer.passes[0].to_json()
        result["spans"] = tracer.spans
    else:
        tracemalloc.start()
        with redirect_stdout(out):
            rc = main(["paper-suite"])
        result["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    result["rc"] = rc
    result["rows"], result["passed"] = workloads.suite_rows(out.getvalue())
    return result


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        result = _setup(argv[1], int(argv[2]))
    elif mode == "suite-traced":
        result = _suite(mode, int(argv[1]))
    elif mode == "suite-peak":
        result = _suite(mode, 0)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
