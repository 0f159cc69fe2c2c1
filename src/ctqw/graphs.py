"""Weighted graphs: standard families, combinators, equitable partitions, quotients.

All graphs are immutable symmetric weight matrices with labeled vertices.
Weights are non-negative for the standard families; the two-sheet rotation
construction (:func:`x_theta`) may produce negative weights, which downstream
modules accept as "signed" graphs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

#: absolute tolerance on per-vertex cell weight sums when checking equitability
TOL_EQ = 1e-9

#: decimal digits used to hash weight sums during partition refinement
_SIG_DIGITS = 12
#: bytes of |A| that _check_norm holds at once: whole rows, at least one
_NORM_BLOCK_BYTES = 2**16

#: real flops one complex (n, n) matrix product may take: 8 n^3
WORK_BUDGET = 2 * 2**30
#: largest order a graph may have. Memory is O(n^2); the n^3 work bounds the
#: order. eigh is one such pass, and the exponential oracle makes per
#: certified time six real (n, n) products, about two complex ones of work,
#: and up to 18 complex squarings, each within WORK_BUDGET
MAX_ORDER = round((WORK_BUDGET / 8) ** (1 / 3))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Symmetric real weight matrix with vertex labels.

    The matrix is symmetrized exactly on construction (tiny float asymmetry
    from products is averaged away) and then frozen. A matrix that equals
    its transpose bit for bit is not averaged, since (w + w^T) / 2 would
    return it unchanged; a 0.0 facing a -0.0 differs in its bits, so such a
    matrix is averaged, to 0.0. Diagonal entries are allowed: they act as
    vertex potentials in the walk generator. ``norm`` is ||A||, the max row
    sum of |A| of the stored matrix, which the decomposition carries.
    """

    weights: np.ndarray
    labels: tuple[str, ...]
    name: str = "graph"
    norm: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be a square matrix")
        n = w.shape[0]
        if n < 1:
            raise ValueError("graph must have at least one vertex")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        norm = _check_norm(w)
        bits = w.view(np.int64)
        if not (bits == bits.T).all():
            asym = np.abs(w - w.T).max()
            if asym > 1e-12:
                raise ValueError(f"weights must be symmetric (max asymmetry {asym:.3e})")
            w = (w + w.T) / 2.0
            norm = _check_norm(w)
        labels = tuple(str(l) for l in self.labels)
        if len(labels) != n:
            raise ValueError("label count must match order")
        if len(set(labels)) != n:
            raise ValueError("labels must be unique")
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "norm", norm)

    @property
    def order(self) -> int:
        return self.weights.shape[0]

    @property
    def signed(self) -> bool:
        """True when some weight is negative (x_theta-style constructions)."""
        return bool(self.weights.min() < 0.0)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no vertex labeled {label!r}") from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeightedGraph({self.name!r}, order={self.order})"


# ---------------------------------------------------------------------------
# standard families
# ---------------------------------------------------------------------------


def _check_order(n: int, order: int | None = None) -> None:
    """Reject a size argument n below 1, or a graph of more than MAX_ORDER
    vertices; ``order`` is the vertex count when it is not n. Runs before the
    weight matrix is allocated."""
    if n < 1:
        raise ValueError(f"order must be a positive integer, got {n}")
    if (n if order is None else order) > MAX_ORDER:
        raise ValueError(
            f"the graph would have more than {MAX_ORDER} vertices, the limit that bounds "
            f"the n^3 work of its analysis"
        )


def _check_norm(w: np.ndarray) -> float:
    """||A||, the max row sum of |A|, of a finite weight matrix; one above
    sqrt(float max) / 2, about 6.7e153, is rejected.

    Every number the analysis forms at the scale of A is at most 2 ||A|| in
    size: an entry of A + A^T, an eigenvalue difference, a cell sum. The
    largest it forms from them are the squared generator g^2 <= 4 ||A||^2
    of numtheory.lattice_step, 10 ||A|| in a walk at walks.QUOTIENT_TIMES
    and 10^12 times a cell sum in the refinement's signatures, all finite
    under the bound. Tiny weights, down to 5e-324, pass.
    """
    limit = math.sqrt(sys.float_info.max) / 2
    step = max(1, _NORM_BLOCK_BYTES // (8 * max(1, len(w))))  # blocks of whole rows, not a full copy of |A|
    with np.errstate(over="ignore"):
        norm = max(float(np.abs(w[i : i + step]).sum(axis=1).max()) for i in range(0, len(w), step))
    if norm > limit:
        raise ValueError(f"the weights have norm {norm:.3g} (max row sum of |A|), above the limit {limit:.2g}")
    return norm


def _cube_order(d: int) -> int:
    """2^d for a checked dimension d (the check caps 2^d once it exceeds MAX_ORDER)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    _check_order(d, 2 ** min(d, MAX_ORDER.bit_length()))
    return 2**d


def path(n: int) -> WeightedGraph:
    """Path on vertices 1..n with unit weights on consecutive pairs."""
    _check_order(n)
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return WeightedGraph(w, tuple(str(i + 1) for i in range(n)), f"path:{n}")


def cycle(n: int) -> WeightedGraph:
    _check_order(n)
    w = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        if i != j:
            w[i, j] = w[j, i] = 1.0
    return WeightedGraph(w, tuple(str(i) for i in range(n)), f"cycle:{n}")


def complete(n: int) -> WeightedGraph:
    _check_order(n)
    w = np.ones((n, n)) - np.eye(n)
    return WeightedGraph(w, tuple(str(i) for i in range(n)), f"complete:{n}")


def empty(n: int) -> WeightedGraph:
    _check_order(n)
    return WeightedGraph(np.zeros((n, n)), tuple(str(i) for i in range(n)), f"empty:{n}")


def star(n: int) -> WeightedGraph:
    """Star with one center (index 0, label "c") joined to n leaves."""
    _check_order(n, n + 1)
    w = np.zeros((n + 1, n + 1))
    w[0, 1:] = 1.0
    w[1:, 0] = 1.0
    return WeightedGraph(w, ("c",) + tuple(str(i) for i in range(1, n + 1)), f"star:{n}")


def hypercube(d: int) -> WeightedGraph:
    """d-dimensional cube on bitstring vertices; antipode of 0 is 2^d - 1."""
    n = _cube_order(d)
    w = np.zeros((n, n))
    for i in range(n):
        for b in range(d):
            w[i, i ^ (1 << b)] = 1.0
    return WeightedGraph(w, tuple(format(i, f"0{d}b") for i in range(n)), f"cube:{d}")


def cocktail_party(n: int) -> WeightedGraph:
    """Complement of n disjoint edges; vertex 2i is non-adjacent to 2i+1.

    2n vertices, (2n-2)-regular. The antipodal pair of vertex 0 is vertex 1.
    """
    _check_order(n, 2 * n)
    m = 2 * n
    w = np.ones((m, m)) - np.eye(m)
    for i in range(n):
        w[2 * i, 2 * i + 1] = w[2 * i + 1, 2 * i] = 0.0
    return WeightedGraph(w, tuple(str(i) for i in range(m)), f"cocktail:{n}")


def antipodal_matching(d: int) -> WeightedGraph:
    """Perfect matching joining each bitstring vertex to its complement.

    Shares the vertex set and labels of :func:`hypercube`, so it can be
    overlaid on (scaled) cubes.
    """
    n = _cube_order(d)
    w = np.zeros((n, n))
    mask = n - 1
    for i in range(n):
        w[i, i ^ mask] = 1.0
    return WeightedGraph(w, tuple(format(i, f"0{d}b") for i in range(n)), f"antipodal:{d}")


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def cartesian_product(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    """Box product: kron(A(X), I) + kron(I, A(Y)); x-index major vertex order."""
    _check_order(x.order * y.order)
    w = np.kron(x.weights, np.eye(y.order)) + np.kron(np.eye(x.order), y.weights)
    labels = tuple(f"({lx},{ly})" for lx in x.labels for ly in y.labels)
    return WeightedGraph(w, labels, f"prod({x.name},{y.name})")


def union_overlay(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    """Edge-union of two graphs on the same vertex set: entrywise weight sum."""
    if x.order != y.order or x.labels != y.labels:
        raise ValueError("union requires identical vertex sets (order and labels)")
    return WeightedGraph(x.weights + y.weights, x.labels, f"overlay({x.name},{y.name})")


def double_cone(x: WeightedGraph) -> WeightedGraph:
    """Two non-adjacent apexes joined to every vertex of x.

    Vertex order is apex "a" (index 0), then x, then apex "b" (last), so the
    seed partition {{a}, V(x), {b}} lists its cells in index order.
    """
    n = x.order
    _check_order(n + 2)
    w = np.zeros((n + 2, n + 2))
    w[1 : n + 1, 1 : n + 1] = x.weights
    w[0, 1 : n + 1] = w[1 : n + 1, 0] = 1.0
    w[n + 1, 1 : n + 1] = w[1 : n + 1, n + 1] = 1.0
    inner = x.labels
    if "a" in inner or "b" in inner:
        inner = tuple(f"y:{l}" for l in inner)
    return WeightedGraph(w, ("a",) + inner + ("b",), f"cone2:{x.name}")


def scale_weights(x: WeightedGraph, factor: float) -> WeightedGraph:
    if not 0 < factor < math.inf:
        raise ValueError("scale factor must be positive and finite")
    return WeightedGraph(x.weights * factor, x.labels, f"scale({x.name},{factor:g})")


def _permutation_matrix(perm) -> np.ndarray:
    perm = list(perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    p = np.zeros((n, n))
    for i, j in enumerate(perm):
        p[i, j] = 1.0
    return p


def x_theta(y: WeightedGraph, perm, theta: float) -> WeightedGraph:
    """Two-sheet rotation of y along an involutive automorphism.

    The weight matrix is  [[Y + s*T, c*I], [c*I, Y - s*T]]  with
    c = cos(2*theta), s = sin(2*theta) and T the permutation matrix of
    ``perm``. Negative weights appear whenever s != 0 off the edges of y;
    the result is then a signed graph.
    """
    n = y.order
    p = _permutation_matrix(perm)
    if p.shape[0] != n:
        raise ValueError("permutation length must match graph order")
    if not np.array_equal(p @ p, np.eye(n)):
        raise ValueError("permutation must be an involution")
    if not np.allclose(p @ y.weights, y.weights @ p, atol=1e-12):
        raise ValueError("permutation must be an automorphism of the graph")
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    _check_order(2 * n)
    w = np.zeros((2 * n, 2 * n))
    w[:n, :n] = y.weights + s * p
    w[n:, n:] = y.weights - s * p
    w[:n, n:] = c * np.eye(n)
    w[n:, :n] = c * np.eye(n)
    labels = tuple(f"(0,{l})" for l in y.labels) + tuple(f"(1,{l})" for l in y.labels)
    return WeightedGraph(w, labels, f"xtheta({y.name},{theta:g})")


# ---------------------------------------------------------------------------
# structure queries
# ---------------------------------------------------------------------------


def is_connected(x: WeightedGraph) -> bool:
    """True when every vertex is reached from vertex 0 along nonzero weights.

    Breadth-first frontier sweeps over the boolean adjacency matrix: each
    sweep reads the rows of the vertices first reached in the sweep before,
    so every row is read once, O(n^2) work in all.
    """
    adj = x.weights != 0.0
    seen = np.zeros(x.order, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def bipartition(x: WeightedGraph):
    """2-coloring of the vertex set, or None if the graph is not bipartite.

    Nonzero diagonal weights (loops) count as odd cycles. Works per connected
    component; returns (part0, part1) as frozensets.
    """
    if np.any(np.diag(x.weights) != 0.0):
        return None
    n = x.order
    color = np.full(n, -1, dtype=int)
    adj = x.weights != 0.0
    for s in range(n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in np.nonzero(adj[u])[0]:
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    stack.append(int(v))
                elif color[v] == color[u]:
                    return None
    return frozenset(np.nonzero(color == 0)[0].tolist()), frozenset(np.nonzero(color == 1)[0].tolist())


# ---------------------------------------------------------------------------
# equitable partitions and quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquitablePartition:
    """Ordered vertex partition with constant per-cell weight sums.

    ``cell_degrees[i][j]`` is the total weight from any vertex of cell i into
    cell j (within TOL_EQ). Cells are ordered by smallest member index.
    """

    cells: tuple[tuple[int, ...], ...]
    cell_degrees: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(tuple(int(v) for v in c) for c in self.cells))
        object.__setattr__(self, "cell_degrees", _freeze(np.array(self.cell_degrees, dtype=float)))

    @property
    def size(self) -> int:
        return len(self.cells)

    def cell_of(self, v: int) -> int:
        for i, c in enumerate(self.cells):
            if v in c:
                return i
        raise KeyError(f"vertex {v} not covered by the partition")


def _validate_partition(n: int, cells) -> list[list[int]]:
    seen: set[int] = set()
    out = []
    for c in cells:
        cl = sorted(int(v) for v in c)
        if not cl:
            raise ValueError("cells must be nonempty")
        if seen & set(cl):
            raise ValueError("cells must be disjoint")
        seen.update(cl)
        out.append(cl)
    if seen != set(range(n)):
        raise ValueError("cells must cover the vertex set")
    return out


def _cell_sums(w: np.ndarray, cells) -> np.ndarray:
    """sums[u, j] = total weight from vertex u into cell j."""
    n = w.shape[0]
    sums = np.empty((n, len(cells)))
    for j, c in enumerate(cells):
        sums[:, j] = w[:, c].sum(axis=1)
    return sums


def equitability_defect(x: WeightedGraph, cells) -> tuple[float, np.ndarray]:
    """Max deviation of any vertex's cell sums from its cell mean, plus the means."""
    cells = _validate_partition(x.order, cells)
    sums = _cell_sums(x.weights, cells)
    d = np.empty((len(cells), len(cells)))
    defect = 0.0
    for i, c in enumerate(cells):
        mean = sums[c].mean(axis=0)
        d[i] = mean
        defect = max(defect, float(np.abs(sums[c] - mean).max()))
    return defect, d


def coarsest_equitable_refinement(x: WeightedGraph, seed) -> EquitablePartition:
    """Refine the seed partition by weight-sum signatures until stable.

    Signatures are (current cell, per-cell weight sums rounded to 12 decimal
    digits), which keeps the splitting deterministic under floating point.
    Cells are reported in order of smallest member index.
    """
    w = x.weights
    n = x.order
    cells = sorted(_validate_partition(n, seed), key=lambda c: c[0])
    while True:
        cid = np.empty(n, dtype=int)
        for i, c in enumerate(cells):
            cid[c] = i
        sums = _cell_sums(w, cells)
        buckets: dict[tuple, list[int]] = {}
        for u in range(n):
            sig = (int(cid[u]), tuple(round(s, _SIG_DIGITS) for s in sums[u]))
            buckets.setdefault(sig, []).append(u)
        new_cells = sorted(buckets.values(), key=lambda c: c[0])
        if len(new_cells) == len(cells):
            break
        cells = new_cells
    _, d = equitability_defect(x, cells)
    return EquitablePartition(tuple(tuple(c) for c in cells), d)


def quotient(x: WeightedGraph, p: EquitablePartition) -> WeightedGraph:
    """Weighted quotient graph on the cells of an equitable partition.

    Edge weights are sqrt(d_ij * d_ji) and cell-internal sums sit on the
    diagonal; computed as S^T A S with S the normalized characteristic
    matrix, which gives exactly those values and preserves walk entries
    between singleton cells.
    """
    defect, _ = equitability_defect(x, p.cells)
    if defect > TOL_EQ:
        raise ValueError(f"partition is not equitable (defect {defect:.3e} > {TOL_EQ:.0e})")
    m = p.size
    s = np.zeros((x.order, m))
    for i, c in enumerate(p.cells):
        s[list(c), i] = 1.0 / math.sqrt(len(c))
    b = s.T @ x.weights @ s
    b = (b + b.T) / 2.0
    labels = tuple("+".join(x.labels[v] for v in c) for c in p.cells)
    return WeightedGraph(b, labels, f"{x.name}/p{m}")


# ---------------------------------------------------------------------------
# text format: "n <order>" header then "<i> <j> <weight>" upper-triangle lines
# ---------------------------------------------------------------------------


class GraphFormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def write_graph(x: WeightedGraph, path_or_file) -> None:
    lines = [f"n {x.order}"]
    for i in range(x.order):
        for j in range(i, x.order):
            if x.weights[i, j] != 0.0:
                lines.append(f"{i} {j} {x.weights[i, j]:.17g}")
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="ascii") as fh:
            fh.write(text)


def parse_graph_text(text: str, name: str = "file") -> WeightedGraph:
    lines = text.splitlines()
    header_seen = False
    w = None
    n = 0
    for ln, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split()
        if not header_seen:
            if parts[0] != "n" or len(parts) != 2:
                raise GraphFormatError("expected header 'n <order>'", ln)
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"bad order {parts[1]!r}", ln) from None
            if n < 1:
                raise GraphFormatError("order must be positive", ln)
            try:
                _check_order(n)
            except ValueError as exc:
                raise GraphFormatError(str(exc), ln) from None
            w = np.zeros((n, n))
            header_seen = True
            continue
        if len(parts) != 3:
            raise GraphFormatError("expected '<i> <j> <weight>'", ln)
        try:
            i, j = int(parts[0]), int(parts[1])
            weight = float(parts[2])
        except ValueError:
            raise GraphFormatError(f"bad entry {s!r}", ln) from None
        if not math.isfinite(weight):
            raise GraphFormatError(f"weight {parts[2]!r} is not finite", ln)
        if not (0 <= i < n and 0 <= j < n):
            raise GraphFormatError(f"index out of range in {s!r}", ln)
        if i > j:
            raise GraphFormatError("entries must be upper-triangle (i <= j)", ln)
        w[i, j] = weight
        w[j, i] = weight
    if not header_seen:
        raise GraphFormatError("missing 'n <order>' header", 1)
    return WeightedGraph(w, tuple(str(i) for i in range(n)), name)


def read_graph(path_) -> WeightedGraph:
    with open(path_, "r", encoding="ascii") as fh:
        return parse_graph_text(fh.read(), name=str(path_))
