"""Grouped eigendecomposition A = sum_r theta_r E_r and per-pair spectral relations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ctqw.graphs import WeightedGraph, _check_order

#: residual tolerance on projector identities and entrywise comparisons
TOL_SPEC = 1e-9
#: threshold on ||E_r e_a|| below which a is outside the eigenvalue's support
TOL_SUPPORT = 1e-9
#: margin of both pair screens (see parallel_pairs, strongly_cospectral_candidates)
_SCREEN_TOL = 10 * max(TOL_SPEC, TOL_SUPPORT)
#: byte budget of one (n or rows, pairs) array of the pair routines
_PAIR_BLOCK_BYTES = 2**18


def default_group_tol(norm: float) -> float:
    """The grouping tolerance of a matrix of norm ||A|| (max row sum of |A|)."""
    return 1e-8 * max(1.0, norm)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct eigenvalues (descending) with an orthonormal eigenbasis grouped by them.

    theta[0] is the largest eigenvalue. The columns of ``vectors`` are unit
    eigenvectors in runs of ``multiplicities``, one run V_r per eigenvalue,
    so E_r = V_r V_r^T and E_r e_a = V_r (V_r^T e_a). No projector is stored:
    ``entries`` and ``projector`` read them from the basis in O(n^2)
    memory, and ``diagonals[r, a]`` = (E_r)_aa is formed once, with the
    decomposition. ``ambiguous_clustering`` is set when some raw eigenvalue
    gap falls within a factor 10 of the grouping tolerance, i.e. the grouping
    could plausibly have gone the other way. ``norm`` is the graph's ||A||,
    the max row sum of |A|. ``_time_memo`` holds work that
    depends only on the matrix and a time or a pair of support parts, see
    :mod:`ctqw.walks`: the oracle window, the exponentials of the latest
    times, as many as one stack of them takes, and the lattice and
    classification of each part pair. It lives and dies with the
    decomposition.
    """

    matrix: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray
    vectors: np.ndarray = field(repr=False)
    multiplicities: tuple[int, ...]
    group_tolerance: float
    ambiguous_clustering: bool
    nonnegative: bool
    norm: float
    #: (E_r)_aa at [r, a]
    diagonals: np.ndarray = field(init=False, repr=False)
    #: the group r of each eigenvector, that is of each column of vectors
    group_of: np.ndarray = field(init=False, repr=False)
    #: eigenvector j as row j, contiguous: vectors is its transpose
    _basis: np.ndarray = field(init=False, repr=False)
    #: per multiplicity k, the groups of that size and their (groups, k) rows of _basis
    _runs: tuple = field(init=False, repr=False)
    _time_memo: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        mult = np.array(self.multiplicities)
        starts = np.cumsum(mult) - mult
        runs = []
        for k in sorted(set(self.multiplicities)):
            groups = np.flatnonzero(mult == k)
            runs.append((groups, starts[groups, None] + np.arange(k)))
        object.__setattr__(self, "_runs", tuple(runs))
        basis = np.ascontiguousarray(np.asarray(self.vectors, dtype=float).T)
        if len(mult) == len(basis):
            diagonals = np.square(basis)
        else:
            # one run's squares at a time, not a full square of the basis
            diagonals = np.empty((len(mult), len(basis)))
            for groups, idx in runs:
                x = basis[idx]
                diagonals[groups] = np.add.reduce(np.square(x, out=x), axis=1)
        arrays = {
            "matrix": np.asarray(self.matrix, dtype=float),
            "eigenvalues": np.asarray(self.eigenvalues, dtype=float),
            "vectors": basis.T,
            "diagonals": diagonals,
            "group_of": np.repeat(np.arange(len(mult)), mult),
            "_basis": basis,
        }
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_distinct(self) -> int:
        return len(self.eigenvalues)

    def _group_sums(self, x: np.ndarray) -> np.ndarray:
        """Sum the rows of x, one per eigenvector, within each eigenvalue
        group, in the same order for every column of x."""
        if self.n_distinct == len(x):
            return x
        out = np.empty((self.n_distinct,) + x.shape[1:])
        for groups, idx in self._runs:
            out[groups] = np.add.reduce(x[idx], axis=1)
        return out

    def entries(self, a: int, b: int) -> np.ndarray:
        """(d,) array of (E_r)_ab, bit-equal to entries(b, a)."""
        return self._group_sums(self._basis[:, a] * self._basis[:, b])

    def projector(self, r: int) -> np.ndarray:
        """E_r = V_r V_r^T as an exactly symmetric (n, n) array."""
        if not 0 <= r < self.n_distinct:
            raise IndexError(f"no eigenvalue group {r}")
        v = self._basis[self.group_of == r]
        return v.T @ v


def decompose(a) -> SpectralDecomposition:
    """Eigendecompose a graph, or a matrix taken as the weights of a graph on
    vertices "0".."n-1", into distinct eigenvalues and a grouped eigenbasis.

    Raw eigenvalues are clustered by a single sorted-gap scan: a new group
    starts wherever the gap reaches ``default_group_tol`` of the graph's
    ``norm``. Works for weighted matrices; no integrality is assumed. The
    eigh basis is kept as it is, its columns reordered by group, in O(n^2)
    memory. Orders above graphs.MAX_ORDER are rejected before eigh runs.
    """
    if not isinstance(a, WeightedGraph):
        a = WeightedGraph(a, tuple(map(str, range(len(a)))) if np.ndim(a) else ())
    _check_order(a.order)
    gt = default_group_tol(a.norm)

    evals, evecs = np.linalg.eigh(a.weights)
    gaps = evals[1:] - evals[:-1]
    ambiguous = bool(((gaps > gt / 10.0) & (gaps < gt * 10.0)).any())

    # the groups are runs of ascending eigenvalues split by gaps of at least
    # gt, so their means strictly increase: reversed, they are descending
    bounds = [0, *(np.flatnonzero(gaps >= gt) + 1).tolist(), len(evals)]
    groups = list(zip(bounds, bounds[1:]))[::-1]
    order = np.arange(len(evals))
    # the reordered rows of evecs.T, which the decomposition keeps as its
    # contiguous basis without a copy; eigh's own array is dropped first
    basis = evecs.T[np.concatenate([order[i:j] for i, j in groups])]
    del evecs
    return SpectralDecomposition(
        matrix=a.weights,
        # the means ndarray.mean takes, in fewer calls
        eigenvalues=np.array([np.add.reduce(evals[i:j]) / (j - i) for i, j in groups]),
        vectors=basis.T,
        multiplicities=tuple(j - i for i, j in groups),
        group_tolerance=gt,
        ambiguous_clustering=ambiguous,
        nonnegative=not a.signed,
        norm=a.norm,
    )


def parallel_pairs(dec: SpectralDecomposition, slack: float, sources=None) -> np.ndarray:
    """(n, n) mask, True at [a, b] (a != b) when every E_r e_b lies within
    sqrt(slack) of the line through E_r e_a; given sources, only their rows,
    in their order, in O(len(sources) n) memory.

    With u = E_r e_a and v = E_r e_b, the Gram determinant E_aa E_bb - E_ab^2
    = ||u||^2 ||v||^2 - (u.v)^2 = ||u||^2 dist(v, span u)^2 is nonnegative and
    zero exactly when u and v are parallel; [a, b] is kept when E_aa (E_bb -
    slack) - E_ab^2 <= _SCREEN_TOL for every r. Entries off by up to TOL_SPEC
    move a determinant by about 4 TOL_SPEC, which the margin covers. A
    rank-one E_r = w w^T has determinant w_a^2 w_b^2 - (w_a w_b)^2 = 0, up
    to a few ulps far below the margin, so it keeps every pair.

    The screen is a sieve over the groups from the first of multiplicity two
    or more to the last. The first is tested on the whole (rows, n) block,
    its E_ab one product of basis rows, in two float arrays of that size and
    a boolean one; on cycles and tori it leaves about one partner per vertex.
    The later groups are tested only on the entries that survive the groups
    before them, a run of consecutive groups at a time, in blocks whose
    arrays fit _PAIR_BLOCK_BYTES: O(rows n k) work for the first group, of
    multiplicity k, and O(n) per survivor for the rest.

    The revival scan passes slack = (tol_walk / beta_min)^2, which keeps
    every partner detect_at can accept: if ||U(tau) e_a - alpha e_a - beta
    e_b|| <= tol_walk with |beta| > beta_min, applying E_r gives
    exp(-i tau theta_r) u = alpha u + beta v + E_r delta with ||E_r delta|| <=
    tol_walk, so v = c u + delta' with ||delta'|| < tol_walk / beta_min; for
    real u and v the nearest complex multiple of u is a real one.
    """
    n = dec.order
    rows = np.arange(n) if sources is None else np.asarray(sources, dtype=np.intp)
    mult = np.array(dec.multiplicities)
    shared = np.flatnonzero(mult > 1)
    if not len(shared):
        keep = np.ones((len(rows), n), dtype=bool)
        keep[np.arange(len(rows)), rows] = False
        return keep
    first, last = int(shared[0]), int(shared[-1])
    cols = dec.group_of == first
    # general products: several times faster here than v.T @ v and an outer product
    e = np.matmul(dec.vectors[:, cols][rows], dec._basis[cols])
    gram = np.multiply(dec.diagonals[first] - slack, dec.diagonals[first, rows, None])
    gram -= np.square(e, out=e)
    keep = gram <= _SCREEN_TOL
    del e, gram
    keep[np.arange(len(rows)), rows] = False
    flat = np.flatnonzero(keep)  # the survivors, as indices into keep

    # the later groups, a run of consecutive ones at a time, whose basis rows
    # are a contiguous slice. A block reads (basis rows, entries) arrays of at
    # most an eighth of _PAIR_BLOCK_BYTES: the coordinates of a and of b and
    # the block's (groups, entries) terms are alive at once
    bounds = np.concatenate([[0], np.cumsum(mult)])  # group r is basis rows bounds[r]:bounds[r + 1]
    cells = _PAIR_BLOCK_BYTES // 64
    g = first + 1
    while g <= last and len(flat):
        step = min(len(flat), max(1, cells // mult[g]))
        end = int(np.searchsorted(bounds, bounds[g] + cells // step, side="right")) - 1
        end = min(max(end, g + 1), last + 1)
        part, offsets = dec._basis[bounds[g] : bounds[end]], bounds[g:end] - bounds[g]
        diag = dec.diagonals[g:end]
        kept = []
        for lo in range(0, len(flat), step):
            f = flat[lo : lo + step]
            i, b = np.divmod(f, n)
            a = rows[i]
            x = part[:, a]
            x *= part[:, b]
            e_sq = np.square(np.add.reduceat(x, offsets, axis=0))
            del x
            gram = diag[:, b]
            gram -= slack
            gram *= diag[:, a]
            gram -= e_sq
            kept.append(f[(gram <= _SCREEN_TOL).all(axis=0)])
        flat = np.concatenate(kept)
        g = end
    keep.fill(False)
    keep.flat[flat] = True
    return keep


def strongly_cospectral_candidates(dec: SpectralDecomposition) -> list[tuple[int, int]]:
    """Pairs a < b, in lexicographic order, that may be strongly cospectral:
    the pairs of parallel_pairs(dec, 0) whose diagonals (E_r)_aa and (E_r)_bb
    agree to _SCREEN_TOL for every r, since strong cospectrality is parallel
    plus cospectral (Godsil & Smith, "Strongly cospectral vertices", 2017).

    The screen keeps every pair pair_profiles accepts, which stays the judge.
    That needs D_r = ||E_r (e_a - s e_b)||_2 <= TOL_SPEC, s = sign(E_ab), on
    every r in the support of a or b. With p = sqrt(E_aa) and q = sqrt(E_bb),
    both at most 1, D_r^2 = (p - q)^2 + 2 (pq - |E_ab|), so the determinant
    p^2 q^2 - E_ab^2 = (pq - |E_ab|)(pq + |E_ab|) is at most D_r^2 and
    |E_aa - E_bb| = |p - q| (p + q) at most 2 D_r. Outside both supports,
    p, q <= TOL_SUPPORT bound both by TOL_SUPPORT^2. _SCREEN_TOL covers these
    and the ulps between projector entries and pair_profiles' coordinate sums.
    """
    a, b = np.nonzero(np.triu(parallel_pairs(dec, 0.0)))
    step = max(1, _PAIR_BLOCK_BYTES // (8 * len(a) + 8))  # (rows, pairs) blocks within the budget
    for diag in np.split(dec.diagonals, range(step, dec.n_distinct, step)):
        close = (np.abs(diag[:, a] - diag[:, b]) <= _SCREEN_TOL).all(axis=0)
        a, b = a[close], b[close]
    return list(zip(a.tolist(), b.tolist()))


@dataclass(frozen=True)
class PairProfile:
    """Spectral relations between two vertices.

    ``phi_plus``/``phi_minus`` partition the common support by the sign in
    E_r e_a = +/- E_r e_b and are nonempty only when strongly cospectral.
    ``perron_anchor_valid`` records whether the top eigenvalue landed in
    phi_plus; it is only reported, no certification step reads it. It is
    False for signed graphs where the Perron argument does not apply.
    """

    a: int
    b: int
    support: frozenset[int]
    parallel: bool
    cospectral: bool
    strongly_cospectral: bool
    phi_plus: frozenset[int]
    phi_minus: frozenset[int]
    perron_anchor_valid: bool


def pair_profile(dec: SpectralDecomposition, a: int, b: int) -> PairProfile:
    """Classify the spectral relation between distinct vertices a and b."""
    return pair_profiles(dec, [(a, b)])[0]


def pair_profiles(dec: SpectralDecomposition, pairs) -> list[PairProfile]:
    """The PairProfile of each pair (a, b) of distinct vertices, in order.

    A pair reads O(n) eigenvector coordinates x_a = V^T e_a and x_b, in
    blocks whose (n, pairs) arrays fit _PAIR_BLOCK_BYTES. Per group r, E_aa
    and E_bb are the stored diagonals and E_ab is the group sum of x_a x_b.
    Group r is live when ||E_r e_a|| = sqrt(E_aa) or sqrt(E_bb) exceeds
    TOL_SUPPORT, and the support of a is where sqrt(E_aa) does. The pair is

    - parallel when |E_ab|, with E_ab = (E_r e_a).(E_r e_b), is within
      TOL_SPEC of sqrt(E_aa) sqrt(E_bb), Cauchy-Schwarz's equality case, on
      every live group;
    - cospectral when the diagonals of a and b agree to TOL_SPEC;
    - strongly cospectral when every live group has D_r = ||E_r (e_a - s
      e_b)||_2 = ||x_a - s x_b||_2 <= TOL_SPEC, with s = sign(E_ab) (+1 at
      0). D_r is a group sum of squares of differences formed before
      squaring, so nothing cancels; the live groups of sign +1 and -1 are
      phi_plus and phi_minus.
    """
    idx = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    if (idx[:, 0] == idx[:, 1]).any():
        raise ValueError("pair_profile needs two distinct vertices")
    outside = idx[(idx < 0) | (idx >= dec.order)]
    if len(outside):
        raise ValueError(f"vertex {outside[0]} out of range")
    step = max(1, _PAIR_BLOCK_BYTES // (8 * dec.order))
    out: list[PairProfile] = []
    for start in range(0, len(idx), step):
        out.extend(_block_profiles(dec, idx[start : start + step]))
    return out


def _block_profiles(dec: SpectralDecomposition, idx: np.ndarray) -> list[PairProfile]:
    """pair_profiles on one block of (a, b) rows; see there."""
    a, b = idx.T
    x_a, x_b = dec._basis[:, a], dec._basis[:, b]
    e_ab = dec._group_sums(x_a * x_b)
    e_aa, e_bb = dec.diagonals[:, a], dec.diagonals[:, b]
    sign = np.where(e_ab >= 0, 1.0, -1.0)
    x_b *= sign[dec.group_of]
    x_a -= x_b
    dev = np.sqrt(dec._group_sums(np.square(x_a, out=x_a)))

    n_a, n_b = np.sqrt(e_aa), np.sqrt(e_bb)
    sup_a = n_a > TOL_SUPPORT
    live = sup_a | (n_b > TOL_SUPPORT)
    parallel = ~(live & (np.abs(np.abs(e_ab) - n_a * n_b) > TOL_SPEC)).any(axis=0)
    cospectral = np.abs(e_aa - e_bb).max(axis=0) <= TOL_SPEC
    strongly = ~(live & (dev > TOL_SPEC)).any(axis=0)

    strong_rows = live & strongly
    plus = _row_sets(strong_rows & (sign > 0))
    minus = _row_sets(strong_rows & (sign < 0))
    return [
        PairProfile(
            a=va,
            b=vb,
            support=sup,
            parallel=bool(parallel[p]),
            cospectral=bool(cospectral[p]),
            strongly_cospectral=bool(strongly[p]),
            phi_plus=plus[p],
            phi_minus=minus[p],
            perron_anchor_valid=bool(strongly[p] and dec.nonnegative and 0 in plus[p]),
        )
        for p, ((va, vb), sup) in enumerate(zip(idx.tolist(), _row_sets(sup_a)))
    ]


def _row_sets(mask: np.ndarray) -> list[frozenset]:
    """The rows set in each column of a (d, pairs) mask."""
    cols, rows = np.nonzero(mask.T)
    bounds = np.searchsorted(cols, np.arange(mask.shape[1] + 1)).tolist()
    rows = rows.tolist()
    return [frozenset(rows[i:j]) for i, j in zip(bounds, bounds[1:])]
