"""Self-checks of the benchmark. From the repository root:

    python3 -m pytest perfbench -q

They run the benchmark itself for about two minutes in all.
"""

import json
import shutil
import subprocess
import sys

import pytest

import bootstrap

bootstrap.prepare()

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ctqw import cli  # noqa: E402

ROOT = bootstrap.ROOT


def _bench(workload: str, seed: int, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_for_one_seed(workload):
    first, second = (_result(_bench(workload, 5, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(spans.LAYER_UNITS)
    for name in spans.EXACT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _traced(spec: str) -> dict:
    tracer = spans.Tracer()
    stats = tracer.begin_pass("test")
    graph = cli.parse_graph_spec(spec)
    with tracer.installed(), tracer.task():
        workloads.analyse(graph, scan=False)
    return spans.layer_metrics(stats)


def test_seed_state_counts_cube7():
    m = _traced("cube:7")
    assert m["spectral.pair_profile_calls"] == 8128
    assert m["numtheory.classify_calls"] == 64
    assert m["walks.oracle_calls"] == 128


def test_seed_state_counts_cocktail20():
    assert _traced("cocktail:20")["walks.oracle_calls"] == 400


def test_tracer_restores_the_program():
    originals = {(mod, attr): getattr(sys.modules[mod], attr) for _, mod, attr in spans.SPANS + spans.COUNTED}
    tracer = spans.Tracer()
    tracer.begin_pass("test")
    with tracer.installed():
        assert all(getattr(sys.modules[mod], attr) is not fn for (mod, attr), fn in originals.items())
    assert all(getattr(sys.modules[mod], attr) is fn for (mod, attr), fn in originals.items())


def test_relabelled_certificates_map_back_to_reference():
    reference = workloads.load_reference()
    (task,) = [t for t in workloads.make_tasks("certify", 0) if t.key == "cycle:6"]
    for index in range(5):
        (perm,) = workloads.pass_relabellings([task], 9, index)
        payload, valid = workloads.analyse(workloads.relabel(task.graph, perm), task.scan)
        assert workloads.check_task(task, payload, valid, perm, reference) is None


def test_fails_without_the_program():
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("certify", 1, 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
