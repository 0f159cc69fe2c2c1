"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces ctqw's public functions, at module level, with wrappers
that open a span around each call. Every ctqw module namespace (and every
module-level dict, such as the suite's group table) that holds the original
function gets the wrapper, so calls between ctqw modules are seen too.
Nothing inside ``src/`` is changed.

A span is (id, parent id, name, task id, pass, start, end). A layer's self
time is its span's duration minus the time its child spans cover. Each task
(one analysis, or one suite process) is itself a span named ``task``, so its
self time is the task wall that no layer span covers (``other_ms``).
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager

#: (span name, module, attribute) of each wrapped function. Functions that a
#: later version of the program removes are skipped; their metrics read 0.
SPANS = (
    ("spectral.decompose", "ctqw.spectral", "decompose"),
    ("spectral.pair_profile", "ctqw.spectral", "pair_profile"),
    ("numtheory.classify", "ctqw.numtheory", "classify"),
    ("walks.certify", "ctqw.walks", "certify_strongly_cospectral"),
    ("walks.detect", "ctqw.walks", "detect_at"),
    ("walks.oracle", "ctqw.walks", "matrix_exp_oracle"),
    ("walks.scan", "ctqw.walks", "scan_fr"),
    ("walks.scan_refine", "ctqw.walks", "_golden_min"),
    ("cli.report", "ctqw.cli", "run_analysis"),
    ("cli.validate", "ctqw.cli", "validate_report"),
    ("graphs.parse", "ctqw.cli", "parse_graph_spec"),
    ("graphs.parse", "ctqw.graphs", "parse_graph_text"),
    ("graphs.refine", "ctqw.graphs", "coarsest_equitable_refinement"),
)

#: counted without a span: their time stays in the caller's self time
COUNTED = (("walks.column", "ctqw.walks", "transition_column"),)

#: suite groups, in the order ``ctqw paper-suite`` runs them
SUITE_GROUPS = (
    "cycles",
    "paths",
    "weighted-p3",
    "double-cones",
    "constructions",
    "theorem-properties",
    "classification",
    "health",
)

#: Taylor terms of the seed's scaling-and-squaring oracle; used only for the
#: computed ``walks.oracle_gflop``
ORACLE_TAYLOR_TERMS = 19

#: per-layer metric -> unit, in the order the benchmark prints them
LAYER_UNITS = {
    "walks.oracle_ms": "ms",
    "walks.oracle_calls": "count",
    "walks.oracle_distinct": "count",
    "walks.oracle_gflop": "GFLOP",
    "walks.detect_ms": "ms",
    "walks.detect_calls": "count",
    "walks.certify_ms": "ms",
    "walks.column_calls": "count",
    "walks.certificates": "count",
    "spectral.pair_profile_ms": "ms",
    "spectral.pair_profile_calls": "count",
    "spectral.sc_pairs": "count",
    "spectral.sc_ratio": "ratio",
    "spectral.decompose_ms": "ms",
    "spectral.decompose_calls": "count",
    "spectral.projector_mb": "MB",
    "walks.scan_ms": "ms",
    "walks.scan_refine_ms": "ms",
    "walks.scan_refine_evals": "count",
    "walks.scan_candidates": "count",
    "walks.scan_accepted": "count",
    "walks.scan_accept_ratio": "ratio",
    "numtheory.classify_ms": "ms",
    "numtheory.classify_calls": "count",
    "numtheory.classify_failures": "count",
    "graphs.parse_ms": "ms",
    "graphs.refine_ms": "ms",
    "graphs.refine_calls": "count",
    "cli.report_ms": "ms",
    "cli.validate_ms": "ms",
    "cli.validate_calls": "count",
    "suite.rows": "count",
    "suite.rows_failed": "count",
    **{f"suite.{g}_ms": "ms" for g in SUITE_GROUPS},
    "other_ms": "ms",
    "trace_overhead": "ratio",
}

#: metrics that must repeat exactly for one seed: counts, their ratios and
#: computed sizes
EXACT_METRICS = tuple(name for name, unit in LAYER_UNITS.items() if unit != "ms" and name != "trace_overhead")


class PassStats:
    """Self and total times (seconds) and counters of one pass."""

    def __init__(self, label) -> None:
        self.label = label
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.oracle_keys: set = set()

    def to_json(self) -> dict:
        return {
            "self_s": self.self_s,
            "total_s": self.total_s,
            "counts": self.counts,
            "oracle_keys": sorted(self.oracle_keys),
        }

    def merge(self, data: dict) -> None:
        """Add another process's stats of the same pass (``to_json`` form)."""
        self.self_s.update(data["self_s"])
        self.total_s.update(data["total_s"])
        self.counts.update(data["counts"])
        self.oracle_keys.update(tuple(k) for k in data["oracle_keys"])


def _matrix_of(a):
    return a.weights if hasattr(a, "weights") else a


def _oracle_flops(m, t: float) -> float:
    """Real flops of one dense scaling-and-squaring exponential of -itA."""
    n = m.shape[0]
    nrm = abs(t) * float(abs(m).sum(axis=1).max())
    s = 0 if nrm <= 0.5 else int(math.ceil(math.log2(nrm / 0.5)))
    return (ORACLE_TAYLOR_TERMS + s) * 8.0 * n**3


class Tracer:
    """Spans and counters around ctqw's public functions.

    ``install()`` wraps the functions and ``remove()`` restores them; a
    traced pass sits between the two. Spans stay in memory until the caller
    writes them out.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.passes: list[PassStats] = []
        self._stack: list[list] = []
        self._next_id = 1
        self._task = 0
        self._patches: list[tuple] = []

    # -- pass and task boundaries ------------------------------------------

    def begin_pass(self, label) -> PassStats:
        stats = PassStats(label)
        self.passes.append(stats)
        return stats

    def adopt(self, spans: list) -> None:
        """Keep spans recorded by another process, renumbered after ours."""
        offset = self._next_id

        def shift(i):
            return i + offset if i else 0

        for span_id, parent, name, task, label, start, end in spans:
            self.spans.append((shift(span_id), shift(parent), name, shift(task), label, start, end))
            self._next_id = max(self._next_id, shift(span_id) + 1)

    @contextmanager
    def task(self):
        """One task: an outermost span named ``task``."""
        self._open("task")
        self._task = self._stack[-1][0]
        try:
            yield
        finally:
            self._close("task", (), None, None)
            self._task = 0

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _close(self, name, args, result, exc) -> None:
        end = time.perf_counter()
        span_id, _, start, covered = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        stats = self.passes[-1]
        stats.self_s[name] += duration - covered
        stats.total_s[name] += duration
        stats.counts[f"calls:{name}"] += 1
        self.spans.append(
            (span_id, parent[0] if parent else 0, name, self._task, stats.label, start, end)
        )
        self._observe(stats, name, args, result, exc, parent[1] if parent else None)

    def _observe(self, stats, name, args, result, exc, parent) -> None:
        c = stats.counts
        if exc is not None:
            c[f"raised:{name}:{type(exc).__name__}"] += 1
            return
        if name == "spectral.decompose":
            c["projector_bytes"] += result.n_distinct * result.order**2 * 8
        elif name == "spectral.pair_profile":
            c["sc_pairs"] += bool(result.strongly_cospectral)
        elif name == "walks.oracle":
            m = _matrix_of(args[0])
            t = float(args[1])
            stats.oracle_keys.add((hashlib.blake2b(m.tobytes(), digest_size=16).hexdigest(), t))
            c["oracle_flops"] += _oracle_flops(m, t)
        elif name == "walks.detect":
            c["certificates"] += result is not None
            c["scan_candidates"] += parent == "walks.scan"
        elif name == "walks.scan":
            c["scan_accepted"] += len(result)

    def _count_column(self) -> None:
        c = self.passes[-1].counts
        c["column_calls"] += 1
        if self._stack and self._stack[-1][1] in ("walks.scan", "walks.scan_refine"):
            c["scan_refine_evals"] += 1

    # -- installing the wrappers ------------------------------------------

    def _span_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                tracer._close(name, args, result, exc)

        return wrapper

    def _count_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._count_column()
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a ctqw module holds it."""
        import ctqw.cli  # noqa: F401  (loads every ctqw module)

        targets = [(name, mod, attr, True) for name, mod, attr in SPANS]
        targets += [(name, mod, attr, False) for name, mod, attr in COUNTED]
        groups = getattr(sys.modules["ctqw.suite"], "_GROUP_FUNCS", {})
        for group in SUITE_GROUPS:
            if group in groups:
                fn = groups[group]
                targets.append((f"suite.{group}", "ctqw.suite", fn.__name__, True))

        modules = [m for n, m in sorted(sys.modules.items()) if n == "ctqw" or n.startswith("ctqw.")]
        for name, mod, attr, span in targets:
            orig = getattr(sys.modules[mod], attr, None)
            if orig is None:
                continue
            wrapped = self._span_wrapper(orig, name) if span else self._count_wrapper(orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patches.append((vars(module), key, orig))
                        setattr(module, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is orig:
                                self._patches.append((value, k, orig))
                                value[k] = wrapped

    def remove(self) -> None:
        for namespace, key, orig in reversed(self._patches):
            namespace[key] = orig
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()


def layer_metrics(stats: PassStats) -> dict[str, float]:
    """Per-layer metrics of one pass.

    Layer times are self times. Suite groups partition a suite pass, so
    their times are totals, children included.
    """
    ms = {k: v * 1000.0 for k, v in stats.self_s.items()}
    c = stats.counts

    def calls(name):
        return c[f"calls:{name}"]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "walks.oracle_ms": ms.get("walks.oracle", 0.0),
        "walks.oracle_calls": calls("walks.oracle"),
        "walks.oracle_distinct": len(stats.oracle_keys),
        "walks.oracle_gflop": c["oracle_flops"] / 1e9,
        "walks.detect_ms": ms.get("walks.detect", 0.0),
        "walks.detect_calls": calls("walks.detect"),
        "walks.certify_ms": ms.get("walks.certify", 0.0),
        "walks.column_calls": c["column_calls"],
        "walks.certificates": c["certificates"],
        "spectral.pair_profile_ms": ms.get("spectral.pair_profile", 0.0),
        "spectral.pair_profile_calls": calls("spectral.pair_profile"),
        "spectral.sc_pairs": c["sc_pairs"],
        "spectral.sc_ratio": ratio(c["sc_pairs"], calls("spectral.pair_profile")),
        "spectral.decompose_ms": ms.get("spectral.decompose", 0.0),
        "spectral.decompose_calls": calls("spectral.decompose"),
        "spectral.projector_mb": c["projector_bytes"] / 1e6,
        "walks.scan_ms": ms.get("walks.scan", 0.0),
        "walks.scan_refine_ms": ms.get("walks.scan_refine", 0.0),
        "walks.scan_refine_evals": c["scan_refine_evals"],
        "walks.scan_candidates": c["scan_candidates"],
        "walks.scan_accepted": c["scan_accepted"],
        "walks.scan_accept_ratio": ratio(c["scan_accepted"], c["scan_candidates"]),
        "numtheory.classify_ms": ms.get("numtheory.classify", 0.0),
        "numtheory.classify_calls": calls("numtheory.classify"),
        "numtheory.classify_failures": c["raised:numtheory.classify:NotClassifiable"],
        "graphs.parse_ms": ms.get("graphs.parse", 0.0),
        "graphs.refine_ms": ms.get("graphs.refine", 0.0),
        "graphs.refine_calls": calls("graphs.refine"),
        "cli.report_ms": ms.get("cli.report", 0.0),
        "cli.validate_ms": ms.get("cli.validate", 0.0),
        "cli.validate_calls": calls("cli.validate"),
        "suite.rows": c["suite_rows"],
        "suite.rows_failed": c["suite_rows_failed"],
        **{f"suite.{g}_ms": stats.total_s[f"suite.{g}"] * 1000.0 for g in SUITE_GROUPS},
        "other_ms": ms.get("task", 0.0),
    }
    return out
