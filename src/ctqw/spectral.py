"""Grouped eigendecomposition A = sum_r theta_r E_r and per-pair spectral relations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ctqw.graphs import WeightedGraph, _check_norm, _check_order

#: residual tolerance on projector identities and entrywise comparisons
TOL_SPEC = 1e-9
#: threshold on ||E_r e_a|| below which a is outside the eigenvalue's support
TOL_SUPPORT = 1e-9
#: slack of the strong-cospectrality screen; ten times the largest entry
#: deviation a pair accepted by pair_profiles can show (see
#: strongly_cospectral_candidates)
_SCREEN_TOL = 10 * max(TOL_SPEC, TOL_SUPPORT)
#: slack of the parallel screen on top of its own (see parallel_partners)
_PARALLEL_MARGIN = 10 * TOL_SPEC
#: byte budget of one (n, pairs) array of pair_profiles
_PAIR_BLOCK_BYTES = 2**18


def default_group_tol(a: np.ndarray) -> float:
    return 1e-8 * max(1.0, float(np.abs(a).sum(axis=1).max()))


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, WeightedGraph):
        return a.weights
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix or a WeightedGraph")
    return m


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct eigenvalues (descending) with an orthonormal eigenbasis grouped by them.

    theta[0] is the largest eigenvalue. The columns of ``vectors`` are unit
    eigenvectors in runs of ``multiplicities``, one run V_r per eigenvalue,
    so E_r = V_r V_r^T and E_r e_a = V_r (V_r^T e_a). No projector is stored:
    ``rows``, ``entries`` and ``projector`` read them from the basis in O(n^2)
    memory, and ``diagonals[r, a]`` = (E_r)_aa is formed once, with the
    decomposition. ``ambiguous_clustering`` is set when some raw eigenvalue
    gap falls within a factor 10 of the grouping tolerance, i.e. the grouping
    could plausibly have gone the other way. ``_time_memo`` holds work that
    depends only on the matrix and a time (the oracle exponentials) or a pair
    of support parts (their lattice and classification), see
    :mod:`ctqw.walks`; it lives and dies with the decomposition.
    """

    matrix: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray
    vectors: np.ndarray = field(repr=False)
    multiplicities: tuple[int, ...]
    group_tolerance: float
    ambiguous_clustering: bool
    nonnegative: bool
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
        arrays = {
            "matrix": np.asarray(self.matrix, dtype=float),
            "eigenvalues": np.asarray(self.eigenvalues, dtype=float),
            "vectors": basis.T,
            "diagonals": self._group_sums(basis * basis),
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

    def rows(self, a: int) -> np.ndarray:
        """(d, n) array whose row r is E_r e_a = V_r (V_r^T e_a). Entry b of
        row r is bit-equal to entry a of rows(b)[r], and to diagonals[r, a]
        when b == a."""
        return self._group_sums(self._basis * self._basis[:, a, None])

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
    """Eigendecompose a symmetric matrix into distinct eigenvalues and a grouped eigenbasis.

    Raw eigenvalues are clustered by a single sorted-gap scan: a new group
    starts wherever the gap reaches ``default_group_tol``. Works for weighted
    matrices; no integrality is assumed. The eigh basis is kept as it is,
    its columns reordered by group, in O(n^2) memory. Orders above
    graphs.MAX_ORDER and norms above the bound of graphs._check_norm are
    rejected before eigh runs.
    """
    m = _as_matrix(a)
    _check_order(m.shape[0])
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    _check_norm(m)
    asym = float(np.abs(m - m.T).max())
    if asym > 1e-12:
        raise ValueError(f"matrix must be symmetric (max asymmetry {asym:.3e})")
    m = (m + m.T) / 2.0
    gt = default_group_tol(m)

    evals, evecs = np.linalg.eigh(m)
    gaps = np.diff(evals)
    breaks = np.nonzero(gaps >= gt)[0]
    ambiguous = bool(np.any((gaps > gt / 10.0) & (gaps < gt * 10.0)))

    # the groups are runs of ascending eigenvalues split by gaps of at least
    # gt, so their means strictly increase: reversed, they are descending
    groups = np.split(np.arange(len(evals)), breaks + 1)[::-1]
    return SpectralDecomposition(
        matrix=m,
        eigenvalues=np.array([evals[g].mean() for g in groups]),
        # a transposed view of the reordered rows of evecs.T, which the
        # decomposition keeps as its contiguous basis without a copy
        vectors=evecs.T[np.concatenate(groups)].T,
        multiplicities=tuple(len(g) for g in groups),
        group_tolerance=gt,
        ambiguous_clustering=ambiguous,
        nonnegative=bool(m.min() >= 0.0),
    )


def strongly_cospectral_candidates(dec: SpectralDecomposition) -> list[tuple[int, int]]:
    """Pairs a < b, in lexicographic order, that may be strongly cospectral.

    a and b are strongly cospectral iff (E_r)_aa = (E_r)_bb = +/-(E_r)_ab
    for every r (Godsil & Smith, "Strongly cospectral vertices", 2017), as
    ||E_r e_a - s E_r e_b||^2 = E_aa + E_bb - 2 s E_ab. The screen keeps the
    pairs whose worst entry deviation max_r max(||E_ab| - E_aa|,
    ||E_ab| - E_bb|) is within _SCREEN_TOL. It never drops a pair that
    pair_profiles accepts, which stays the judge:

    - pair_profiles accepts only when every r in the support of a or b has
      D_r = ||E_r (e_a - s e_b)||_2 <= TOL_SPEC, s = sign(E_ab). Entries a
      and b of E_r (e_a - s e_b) are E_aa - |E_ab| and s (|E_ab| - E_bb),
      each at most D_r in size, so both deviations are at most TOL_SPEC;
    - for r outside both supports E_aa and E_bb are at most TOL_SUPPORT^2,
      and so is |E_ab| <= sqrt(E_aa E_bb), hence each deviation;
    - SpectralDecomposition.projector forms E_r exactly symmetric, so the
      E_bb half is the transpose of the E_aa half; its entries and the
      coordinate sums pair_profiles reads are two roundings of the same sums
      over the basis, ulps apart, well inside the factor 10 of _SCREEN_TOL.

    The maximum is accumulated one eigenvalue group at a time in (n, n)
    arrays, each E_r formed from the basis and dropped: O(n^3) work, O(n^2)
    memory.
    """
    worst = np.zeros((dec.order, dec.order))
    dev = np.empty_like(worst)
    for r in range(dec.n_distinct):
        e = dec.projector(r)
        np.abs(e, out=dev)
        dev -= np.diagonal(e)[:, None]
        np.abs(dev, out=dev)
        np.maximum(worst, dev, out=worst)
    np.maximum(worst, worst.T, out=dev)
    a_idx, b_idx = np.nonzero(np.triu(dev <= _SCREEN_TOL, 1))
    return list(zip(a_idx.tolist(), b_idx.tolist()))


def parallel_partners(dec: SpectralDecomposition, a: int, slack: float) -> np.ndarray:
    """Sorted vertices b != a with E_r e_b parallel to E_r e_a for every r, up to slack.

    With u = E_r e_a and v = E_r e_b (real vectors), the Gram determinant
    (E_r)_aa (E_r)_bb - (E_r)_ab^2 = ||u||^2 ||v||^2 - (u.v)^2 equals
    ||u||^2 dist(v, span u)^2: it is nonnegative, and zero exactly when u and
    v are parallel. b is kept when max_r [E_aa E_bb - E_ab^2 - slack E_aa] is
    at most _PARALLEL_MARGIN, that is when every E_r e_b lies within
    sqrt(slack) of span(E_r e_a). Projector entries are at most 1 in size, so
    entries off by up to TOL_SPEC move the determinant by about 4 TOL_SPEC,
    which the margin covers.

    The revival scan passes slack = (tol_walk / beta_min)^2, which keeps
    every partner detect_at can accept: if ||U(tau) e_a - alpha e_a - beta
    e_b|| <= tol_walk with |beta| > beta_min, applying E_r gives
    exp(-i tau theta_r) u = alpha u + beta v + E_r delta with ||E_r delta|| <=
    tol_walk, so v = c u + delta' with ||delta'|| < tol_walk / beta_min; for
    real u and v the nearest complex multiple of u is a real one.

    Reads the rows E_r e_a and the stored diagonals: O(n^2) work.
    """
    rows = dec.rows(a)
    e_aa = rows[:, a : a + 1]
    worst = (e_aa * dec.diagonals - rows**2 - slack * e_aa).max(axis=0)
    keep = worst <= _PARALLEL_MARGIN
    keep[a] = False
    return np.nonzero(keep)[0]


@dataclass(frozen=True)
class PairProfile:
    """Spectral relations between two vertices.

    ``phi_plus``/``phi_minus`` partition the common support by the sign in
    E_r e_a = +/- E_r e_b and are nonempty only when strongly cospectral.
    ``perron_anchor_valid`` records whether the top eigenvalue landed in
    phi_plus, which the certification grid relies on; it is False for
    signed graphs where the Perron argument does not apply.
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
