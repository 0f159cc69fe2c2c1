"""Workloads, seeded inputs and the correctness gate.

Two workloads. ``certify`` holds every user of the oracle, grid
certification and the time scan, plus one ``ctqw paper-suite`` process per
pass; ``profile`` holds graphs that yield no certificate, so every pair is
profiled and the oracle and the scan never run.

Every input comes from the seed: the random weighted graph of ``profile``
from ``default_rng([seed, 1])`` and the vertex relabelling of pass ``k`` from
``default_rng([seed, 2, k])``. A fresh relabelling per pass changes the input
matrix between passes, so nothing cached across analysis calls can replay an
earlier pass.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ctqw import cli
from ctqw import graphs as G

#: many strongly cospectral pairs at few distinct tau: oracle and grid
#: certification dominate
CERTIFY_SPECS = ("cube:7", "cube:6", "cocktail:20", "cone2:cocktail:10", "prod(star:16,path:2)", "cycle:6")
#: the heuristic time scan from every vertex
SCAN_SPECS = ("path:5", "cycle:32", "cube:5")
#: no certificate at all: every pair is profiled and the oracle never runs
PROFILE_SPECS = ("cycle:128", "prod(cycle:12,cycle:12)", "cycle:64")

RANDOM_ORDER = 96
RANDOM_DENSITY = 0.10
RANDOM_WEIGHTS = (0.5, 2.0)
RANDOM_KEY = "random"

WORKLOADS = ("certify", "profile")
#: workloads whose pass ends with one ``ctqw paper-suite`` process
SUITE_WORKLOADS = ("certify",)

#: rows of ``ctqw paper-suite`` at the seed commit, all passing
SUITE_ROWS = 56

#: certificate times agree when within this distance
TAU_TOL = 1e-9

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Task:
    """One analysis: a graph in its reference labelling."""

    key: str
    graph: G.WeightedGraph
    scan: bool


def random_graph(seed: int) -> G.WeightedGraph:
    """Connected G(n, p) graph with uniform weights, drawn from the seed."""
    rng = np.random.default_rng([seed, 1])
    n = RANDOM_ORDER
    while True:
        edges = np.triu(rng.random((n, n)) < RANDOM_DENSITY, 1)
        w = np.where(edges, rng.uniform(*RANDOM_WEIGHTS, size=(n, n)), 0.0)
        g = G.WeightedGraph(w + w.T, tuple(str(i) for i in range(n)), f"random:{n}")
        if G.is_connected(g):
            return g


def make_tasks(workload: str, seed: int) -> list[Task]:
    """Parse the workload's graph specs and draw its seeded inputs."""
    if workload == "certify":
        return [Task(s, cli.parse_graph_spec(s), False) for s in CERTIFY_SPECS] + [
            Task(f"{s} --scan", cli.parse_graph_spec(s), True) for s in SCAN_SPECS
        ]
    if workload == "profile":
        tasks = [Task(s, cli.parse_graph_spec(s), False) for s in PROFILE_SPECS]
        return tasks + [Task(RANDOM_KEY, random_graph(seed), False)]
    raise ValueError(f"unknown workload {workload!r}")


def pass_relabellings(tasks: list[Task], seed: int, index: int) -> list[np.ndarray]:
    """Vertex permutations of pass ``index``: new vertex i is old vertex perm[i]."""
    rng = np.random.default_rng([seed, 2, index])
    return [rng.permutation(t.graph.order) for t in tasks]


def relabel(graph: G.WeightedGraph, perm: np.ndarray) -> G.WeightedGraph:
    labels = tuple(graph.labels[int(i)] for i in perm)
    return G.WeightedGraph(graph.weights[np.ix_(perm, perm)], labels, graph.name)


def analyse(graph: G.WeightedGraph, scan: bool) -> tuple[dict, bool]:
    """The timed work of one task, as a user of the library runs it.

    Calls go through the ``cli`` module, so a tracer that wraps its
    functions sees them.
    """
    report = cli.run_analysis(graph, do_scan=scan)
    payload = json.loads(report.to_json())
    return payload, cli.validate_report(payload)


def certificate_keys(payload: dict, perm) -> list[tuple]:
    """Certificates as sorted (endpoints, kind, tau) in the reference labelling.

    Endpoints are unordered. A periodic certificate names one vertex, which
    is the lower-numbered vertex of its strongly cospectral pair and so
    depends on the labelling; its endpoints are that vertex and its strongly
    cospectral partners. Entries equal up to TAU_TOL are merged.
    """
    back = np.asarray(perm)
    partners = defaultdict(set)
    for name, entry in payload["predicates"].items():
        if name.startswith("pair(") and entry.get("strongly_cospectral"):
            a, b = (int(v) for v in name[5:-1].split(","))
            partners[a].add(b)
            partners[b].add(a)
    keys = []
    for c in payload["certificates"]:
        a, b = int(c["a"]), int(c["b"])
        ends = {a, b} if a != b else {a} | partners[a]
        keys.append((tuple(sorted(int(back[v]) for v in ends)), c["kind"], float(c["tau"])))
    keys.sort()
    merged: list[tuple] = []
    for k in keys:
        if merged and merged[-1][:2] == k[:2] and abs(merged[-1][2] - k[2]) <= TAU_TOL:
            continue
        merged.append(k)
    return merged


def load_reference() -> dict[str, list[tuple]]:
    data = json.loads(REFERENCE_PATH.read_text())
    ref = {key: [(tuple(e), kind, tau) for e, kind, tau in certs] for key, certs in data["certificates"].items()}
    # a generic random weighting has no cospectral pair, hence no certificate
    ref[RANDOM_KEY] = []
    return ref


def check_task(task: Task, payload: dict, valid: bool, perm, reference) -> str | None:
    """Why the task's output is wrong, or None when it is right."""
    if not valid:
        return "validate_report rejected the report"
    if payload["health_warnings"]:
        return f"health warnings: {payload['health_warnings']}"
    got = certificate_keys(payload, perm)
    want = reference[task.key]
    if len(got) != len(want):
        return f"{len(got)} certificates, reference has {len(want)}"
    for g, w in zip(got, want):
        if g[:2] != w[:2] or abs(g[2] - w[2]) > TAU_TOL:
            return f"certificate {g} differs from reference {w}"
    return None


def suite_rows(stdout: str) -> tuple[int, int]:
    """(rows, passing rows) in ``ctqw paper-suite`` output."""
    lines = stdout.splitlines()
    rows = sum(1 for line in lines if line.startswith(("[PASS]", "[FAIL]")))
    passed = sum(1 for line in lines if line.startswith("[PASS]"))
    return rows, passed
