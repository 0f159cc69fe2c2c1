"""Grouped eigendecomposition and pair-relation tests."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctqw import graphs as G
from ctqw import spectral as spectral_mod
from ctqw.cli import parse_graph_spec
from ctqw.spectral import (
    _SCREEN_TOL,
    TOL_SPEC,
    TOL_SUPPORT,
    PairProfile,
    SpectralDecomposition,
    decompose,
    default_group_tol,
    pair_profile,
    pair_profiles,
    parallel_pairs,
    strongly_cospectral_candidates,
)
from ctqw.walks import DetectionConfig, transition_column, transition_matrix


def support(dec, a):
    """Indices r with E_r e_a nonzero, as pair_profile reports them."""
    return pair_profile(dec, a, (a + 1) % dec.order).support


def weighted_p3(omega):
    w = np.array([[0.0, omega, 0.0], [omega, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return G.WeightedGraph(w, ("a", "m", "b"), f"p3w:{omega:g}")


def random_symmetric(rng, n):
    """A symmetric (n, n) matrix with entries in [-6, 6]."""
    u = rng.uniform(-3.0, 3.0, (n, n))
    return u + u.T


def reference_tensor(dec):
    """The (d, n, n) projector tensor decompose used to store, built as it
    was: E_r = V_r V_r^T of the grouped basis, made exactly symmetric. The
    reference for the readers that replaced it."""
    projs = np.empty((dec.n_distinct, dec.order, dec.order))
    start = 0
    for proj, k in zip(projs, dec.multiplicities):
        v = dec.vectors[:, start : start + k]
        e = v @ v.T
        np.add(e, e.T, out=proj)
        proj /= 2.0
        start += k
    return projs


def projector_rows(dec, a):
    """(d, n) array whose row r is E_r e_a, row a of projector(r)."""
    return np.stack([dec.projector(r)[a] for r in range(dec.n_distinct)])


def partners(dec, a, slack):
    """The partners of a that row a of parallel_pairs keeps, ascending."""
    return np.flatnonzero(parallel_pairs(dec, slack)[a]).tolist()


def projector_invariants_ok(dec, atol=1e-9):
    n = dec.order
    projs = np.stack([dec.projector(r) for r in range(dec.n_distinct)])
    if np.abs(projs.sum(axis=0) - np.eye(n)).max() > atol:
        return False
    recon = np.tensordot(dec.eigenvalues, projs, axes=(0, 0))
    if np.abs(recon - dec.matrix).max() > atol:
        return False
    for r in range(dec.n_distinct):
        er = projs[r]
        if np.abs(er @ er - er).max() > atol:
            return False
        for s in range(r + 1, dec.n_distinct):
            if np.abs(er @ projs[s]).max() > atol:
                return False
    return True


class TestDecompose:
    def test_identity_matrix(self):
        dec = decompose(np.eye(4))
        assert dec.n_distinct == 1
        assert dec.eigenvalues[0] == pytest.approx(1.0)
        assert np.allclose(dec.projector(0), np.eye(4))

    @pytest.mark.parametrize("r", [-1, 4])
    def test_projector_rejects_missing_group(self, r):
        with pytest.raises(IndexError):
            decompose(G.cycle(6)).projector(r)

    def test_descending_order_and_multiplicities(self):
        dec = decompose(G.cycle(6))
        assert np.allclose(dec.eigenvalues, [2, 1, -1, -2], atol=1e-9)
        assert dec.multiplicities == (1, 2, 2, 1)

    def test_weighted_p3_zero_projector(self):
        omega = 2.0
        dec = decompose(weighted_p3(omega))
        r0 = int(np.argmin(np.abs(dec.eigenvalues)))
        expected = np.array([[1, 0, -omega], [0, 0, 0], [-omega, 0, omega**2]]) / (1 + omega**2)
        assert np.abs(dec.projector(r0) - expected).max() <= 1e-12

    def test_weighted_p3_plus_minus_projectors(self):
        omega = 0.5
        s = math.sqrt(omega**2 + 1)
        dec = decompose(weighted_p3(omega))
        for sign in (+1, -1):
            r = int(np.argmin(np.abs(dec.eigenvalues - sign * s)))
            expected = np.array(
                [
                    [omega**2, sign * omega * s, omega],
                    [sign * omega * s, omega**2 + 1, sign * s],
                    [omega, sign * s, 1],
                ]
            ) / (2 * (omega**2 + 1))
            assert np.abs(dec.projector(r) - expected).max() <= 1e-12

    @pytest.mark.parametrize("n", [4, 5])
    def test_path_projector_formula(self, n):
        dec = decompose(G.path(n))
        for r in range(1, n + 1):
            er = dec.projector(r - 1)  # descending eigenvalues match r = 1..n
            for j in range(1, n + 1):
                for a in range(1, n + 1):
                    expected = (
                        2.0 / (n + 1)
                        * math.sin(j * r * math.pi / (n + 1))
                        * math.sin(a * r * math.pi / (n + 1))
                    )
                    assert er[j - 1, a - 1] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("g", [G.path(5), G.cycle(8), G.star(7), G.cocktail_party(3), G.hypercube(3)])
    def test_projector_invariants(self, g):
        assert projector_invariants_ok(decompose(g))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            decompose(np.array([[0.0, 1.0], [0.2, 0.0]]))

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, weight):
        with pytest.raises(ValueError, match="finite"):
            decompose(np.array([[0.0, weight], [weight, 0.0]]))

    @pytest.mark.parametrize(
        "m", [np.zeros(3), np.zeros((2, 3)), np.zeros((0, 0)), np.array(1.0), [[0.0, 1.0]]], ids=repr
    )
    def test_rejects_a_matrix_that_is_not_square(self, m):
        with pytest.raises(ValueError):
            decompose(m)

    @pytest.mark.parametrize(
        "m",
        [
            G.cycle(6).weights,
            G.path(5).weights,
            G.x_theta(G.cycle(4), (2, 3, 0, 1), 0.3).weights,
            G.hypercube(4).weights.T,  # Fortran order
            np.array([[-0.0, 0.0, 5e-324], [-0.0, 2.0, -1e150], [5e-324, -1e150, -0.0]]),  # a 0.0/-0.0 pair
            np.array([[0.0, 1.0 + 1e-13, 0.5], [1.0, 0.0, 0.25], [0.5, 0.25, 0.0]]),  # averaged
            random_symmetric(np.random.default_rng(7), 9),
            [[0.0, 2.0], [2.0, 0.0]],
        ],
        ids=["cycle:6", "path:5", "x_theta", "cube:4 transposed", "signed zeros", "asymmetric", "random", "list"],
    )
    def test_matrix_equals_its_graph_bit_for_bit(self, m):
        raw = decompose(m)
        dec = decompose(G.WeightedGraph(m, tuple(map(str, range(len(m))))))
        for name in ("matrix", "eigenvalues", "vectors", "diagonals"):
            got, want = getattr(raw, name), getattr(dec, name)
            assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64)), name
        for name in ("multiplicities", "group_tolerance", "ambiguous_clustering", "nonnegative", "norm"):
            assert repr(getattr(raw, name)) == repr(getattr(dec, name)), name
        assert raw.norm == float(np.abs(raw.matrix).sum(axis=1).max())
        assert raw.group_tolerance == default_group_tol(raw.norm)

    def test_rejects_norm_over_limit(self):
        with pytest.raises(ValueError, match="above the limit"):
            decompose(np.array([[0.0, 1e308], [1e308, 0.0]]))

    def test_rejects_order_over_limit(self, monkeypatch):
        monkeypatch.setattr(G, "MAX_ORDER", 10)
        assert decompose(G.cycle(10)).order == 10
        with pytest.raises(ValueError, match="more than 10 vertices"):
            decompose(np.zeros((11, 11)))

    def test_ambiguous_clustering_flag(self):
        # two eigenvalues straddling the grouping tolerance
        gt = default_group_tol(1.0)
        dec = decompose(np.diag([0.0, 3 * gt, 1.0]))
        assert (dec.norm, dec.group_tolerance) == (1.0, gt)
        assert dec.ambiguous_clustering
        assert not decompose(np.diag([0.0, 1.0, 2.0])).ambiguous_clustering

    def test_nonnegative_flag(self):
        assert decompose(G.cycle(4)).nonnegative
        signed = G.x_theta(G.cycle(4), (2, 3, 0, 1), 0.3)
        assert not decompose(signed).nonnegative

    def test_peak_memory_on_cube7(self):
        # eigh's own basis is dropped once reordered and the diagonals are
        # squared one run at a time: the output (0.144 MB) and one (n, n)
        # array more, not eigh's basis, the reordered one and their squares
        g = G.hypercube(7)
        decompose(g)
        tracemalloc.start()
        try:
            dec = decompose(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dec.order == 128
        assert peak <= 0.3e6, peak


class TestSupport:
    def test_path_endpoint_sees_everything(self):
        for n in (4, 6):
            dec = decompose(G.path(n))
            assert support(dec, 0) == frozenset(range(n))

    def test_path_divisibility_rule(self):
        n = 5
        dec = decompose(G.path(n))
        for a in range(1, n + 1):
            expected = frozenset(r - 1 for r in range(1, n + 1) if (a * r) % (n + 1) != 0)
            assert support(dec, a - 1) == expected

    def test_star_center_support(self):
        n = 16
        dec = decompose(G.star(n))
        sup = support(dec, 0)
        vals = sorted(float(dec.eigenvalues[r]) for r in sup)
        assert vals == pytest.approx([-4.0, 4.0])


class TestPairProfile:
    def test_c6_antipodes(self):
        dec = decompose(G.cycle(6))
        prof = pair_profile(dec, 0, 3)
        assert prof.strongly_cospectral and prof.parallel and prof.cospectral
        plus_vals = sorted(float(dec.eigenvalues[r]) for r in prof.phi_plus)
        minus_vals = sorted(float(dec.eigenvalues[r]) for r in prof.phi_minus)
        assert plus_vals == pytest.approx([-1.0, 2.0])
        assert minus_vals == pytest.approx([-2.0, 1.0])
        assert prof.perron_anchor_valid

    def test_weighted_p3_parallel_not_cospectral(self):
        dec = decompose(weighted_p3(2.0))
        prof = pair_profile(dec, 0, 2)
        assert prof.parallel
        assert not prof.cospectral
        assert not prof.strongly_cospectral
        assert prof.phi_plus == frozenset()

    def test_weighted_p3_unit_weight_strongly_cospectral(self):
        dec = decompose(weighted_p3(1.0))
        assert pair_profile(dec, 0, 2).strongly_cospectral

    def test_p4_endpoint_sign_partition(self):
        dec = decompose(G.path(4))
        prof = pair_profile(dec, 0, 3)
        plus_vals = sorted(float(dec.eigenvalues[r]) for r in prof.phi_plus)
        minus_vals = sorted(float(dec.eigenvalues[r]) for r in prof.phi_minus)
        sqrt5 = math.sqrt(5)
        assert plus_vals == pytest.approx([(1 - sqrt5) / 2, (1 + sqrt5) / 2], abs=1e-9)
        assert minus_vals == pytest.approx([(-1 - sqrt5) / 2, (-1 + sqrt5) / 2], abs=1e-9)

    def test_symmetric_in_pair_order(self):
        dec = decompose(G.cycle(6))
        ab = pair_profile(dec, 0, 3)
        ba = pair_profile(dec, 3, 0)
        assert (ab.parallel, ab.cospectral, ab.strongly_cospectral) == (
            ba.parallel,
            ba.cospectral,
            ba.strongly_cospectral,
        )
        assert ab.phi_plus == ba.phi_plus and ab.phi_minus == ba.phi_minus

    def test_perron_index_in_plus_part(self):
        for g, a, b in [(G.cycle(6), 0, 3), (G.path(4), 0, 3), (G.cocktail_party(4), 0, 1)]:
            prof = pair_profile(decompose(g), a, b)
            assert prof.strongly_cospectral
            assert 0 in prof.phi_plus

    def test_supports_equal_when_strongly_cospectral(self):
        dec = decompose(G.path(4))
        prof = pair_profile(dec, 0, 3)
        assert prof.phi_plus | prof.phi_minus == support(dec, 0) == support(dec, 3)

    def test_rejects_equal_vertices(self):
        with pytest.raises(ValueError):
            pair_profile(decompose(G.path(3)), 1, 1)

    def test_non_cospectral_pair_in_path(self):
        dec = decompose(G.path(4))
        prof = pair_profile(dec, 0, 1)
        assert not prof.strongly_cospectral

    def test_tolerance_constant_exposed(self):
        assert TOL_SPEC == 1e-9


def brute_force_strongly_cospectral(dec):
    n = dec.order
    return [(a, b) for a in range(n) for b in range(a + 1, n) if pair_profile(dec, a, b).strongly_cospectral]


def relabel(g, perm):
    perm = list(perm)
    return G.WeightedGraph(g.weights[np.ix_(perm, perm)], tuple(g.labels[i] for i in perm), g.name)


@st.composite
def random_weighted_graphs(draw, values):
    """Orders 2..10, each upper-triangle weight drawn from values."""
    n = draw(st.integers(2, 10))
    entries = draw(st.lists(st.sampled_from(values), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    w = np.zeros((n, n))
    w[np.triu_indices(n, 1)] = entries
    return G.WeightedGraph(w + w.T, tuple(str(i) for i in range(n)), f"hyp:{n}")


_FAMILY_GRAPHS = [
    G.cycle(6), G.cycle(8), G.cycle(9), G.hypercube(3), G.hypercube(4), G.path(5), G.cocktail_party(4),
    G.cartesian_product(G.path(3), G.path(3)), G.cartesian_product(G.star(4), G.path(2)),
    G.cartesian_product(G.cycle(4), G.cycle(3)),
]


@st.composite
def relabelled_families(draw):
    g = draw(st.sampled_from(_FAMILY_GRAPHS))
    return relabel(g, draw(st.permutations(range(g.order))))


@st.composite
def random_real_matrices(draw):
    """Symmetric matrices of orders 2..10 with real entries in [-3, 3]."""
    n = draw(st.integers(2, 10))
    entries = draw(st.lists(st.floats(-3.0, 3.0), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    w = np.zeros((n, n))
    w[np.triu_indices(n)] = entries
    return w + np.triu(w, 1).T


def list_and_stack_decomposition(m):
    """(eigenvalues, projectors, multiplicities) built one projector per group
    in a list, ordered by argsort and copied into a stacked tensor."""
    m = (m + m.T) / 2.0
    evals, evecs = np.linalg.eigh(m)
    breaks = np.nonzero(np.diff(evals) >= default_group_tol(float(np.abs(m).sum(axis=1).max())))[0]
    thetas, projs, mults = [], [], []
    for g in np.split(np.arange(len(evals)), breaks + 1):
        thetas.append(float(evals[g].mean()))
        v = evecs[:, g]
        e = v @ v.T
        projs.append((e + e.T) / 2.0)
        mults.append(len(g))
    order = np.argsort(thetas)[::-1]
    return np.array([thetas[i] for i in order]), np.stack([projs[i] for i in order]), tuple(mults[i] for i in order)


def split_grouping(m):
    """(eigenvalues, vectors, multiplicities) grouped as decompose once did:
    np.split at the gaps, one ndarray.mean per group, the groups reversed."""
    evals, evecs = np.linalg.eigh(m)
    breaks = np.nonzero(np.diff(evals) >= default_group_tol(float(np.abs(m).sum(axis=1).max())))[0]
    groups = np.split(np.arange(len(evals)), breaks + 1)[::-1]
    return np.array([evals[g].mean() for g in groups]), evecs[:, np.concatenate(groups)], tuple(map(len, groups))


def loop_pair_profile(dec, a, b):
    """pair_profile's fields as a loop over the eigenvalues, read from the
    reference tensor."""
    projs = reference_tensor(dec)
    cols_a, cols_b = projs[:, :, a], projs[:, :, b]
    norms_a = np.linalg.norm(cols_a, axis=1)
    norms_b = np.linalg.norm(cols_b, axis=1)
    sup_a, sup_b = norms_a > TOL_SUPPORT, norms_b > TOL_SUPPORT
    parallel = True
    for r in np.nonzero(sup_a | sup_b)[0]:
        if abs(abs(float(cols_a[r] @ cols_b[r])) - norms_a[r] * norms_b[r]) > TOL_SPEC:
            parallel = False
            break
    cospectral = bool(np.abs(projs[:, a, a] - projs[:, b, b]).max() <= TOL_SPEC)
    strongly, plus, minus = True, set(), set()
    for r in range(dec.n_distinct):
        if not (sup_a[r] or sup_b[r]):
            continue
        va, vb = cols_a[r], cols_b[r]
        sign = 1.0 if float(va @ vb) >= 0 else -1.0
        if np.linalg.norm(va - sign * vb) <= TOL_SPEC:
            (plus if sign > 0 else minus).add(int(r))
        else:
            strongly = False
            break
    if not strongly:
        plus, minus = set(), set()
    return dict(
        support=frozenset(int(r) for r in np.nonzero(sup_a)[0]),
        parallel=parallel,
        cospectral=cospectral,
        strongly_cospectral=strongly,
        phi_plus=frozenset(plus),
        phi_minus=frozenset(minus),
        perron_anchor_valid=bool(strongly and dec.nonnegative and 0 in plus),
    )


_REFERENCE_GRAPHS = _FAMILY_GRAPHS + [
    G.star(5), G.path(6), weighted_p3(0.5), weighted_p3(2.0), G.x_theta(G.cycle(4), (2, 3, 0, 1), 0.3),
    G.double_cone(G.cycle(5)),
]


_SCREEN_SPECS = [
    "path:4", "path:5", "cycle:6", "cycle:32", "cycle:64", "cycle:128", "cube:3", "cube:4", "cube:5", "cube:6",
    "cube:7", "cocktail:4", "cocktail:20", "cone2:cocktail:10", "prod(star:16,path:2)", "prod(cycle:12,cycle:12)",
    "prod(path:3,path:2)",
]


#: the slack at which the revival scan reads parallel_pairs
_SCAN_SLACK = (DetectionConfig().tol_walk / DetectionConfig().beta_min) ** 2


def seeded_weighted_graph(seed):
    """A graph with random real weights and eigenvalues of multiplicity two
    or more: for even seeds a circulant of order 8..40 (its eigenvalues pair
    up), for odd seeds the Cartesian square of a graph of order 3..6."""
    rng = np.random.default_rng([seed, 19])
    if seed % 2 == 0:
        n = int(rng.integers(8, 41))
        c = np.where(rng.random(n) < 0.4, rng.uniform(0.1, 3.0, n), 0.0)
        c[0] = 0.0
        c = (c + np.roll(c[::-1], 1)) / 2.0  # c[k] = c[n - k]
        w = c[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
        return G.WeightedGraph(w, tuple(str(i) for i in range(n)), f"circulant:{seed}")
    n = int(rng.integers(3, 7))
    w = np.triu(rng.uniform(0.1, 3.0, (n, n)), 1)
    g = G.WeightedGraph(w + w.T, tuple(str(i) for i in range(n)), f"random:{seed}")
    return G.cartesian_product(g, g)


def tensor_strongly_cospectral_candidates(projs):
    """The strong-cospectrality screen as it read the projector tensor."""
    n = projs.shape[1]
    worst = np.zeros((n, n))
    dev = np.empty_like(worst)
    for e in projs:
        np.abs(e, out=dev)
        dev -= np.diagonal(e)[:, None]
        np.abs(dev, out=dev)
        np.maximum(worst, dev, out=worst)
    np.maximum(worst, worst.T, out=dev)
    a_idx, b_idx = np.nonzero(np.triu(dev <= _SCREEN_TOL, 1))
    return list(zip(a_idx.tolist(), b_idx.tolist()))


def tensor_parallel_partners(projs, a, slack):
    """The parallel screen as it read the projector tensor."""
    rows = projs[:, a, :]
    diag = np.diagonal(projs, axis1=1, axis2=2)
    e_aa = rows[:, a : a + 1]
    keep = (e_aa * diag - rows**2 - slack * e_aa).max(axis=0) <= _SCREEN_TOL
    keep[a] = False
    return np.nonzero(keep)[0]


def scale_vertex_in_group(dec, a, r, factor):
    """dec with the coordinates of vertex a in the basis of group r scaled:
    row a and column a of E_r scale by factor, (E_r)_aa by factor^2."""
    vectors = dec.vectors.copy()
    vectors[a, dec.group_of == r] *= factor
    return dataclasses.replace(dec, vectors=vectors)


def rotate_vertex_in_group(dec, a, r, angle):
    """dec with the coordinates of vertex a in the two-dimensional basis of
    group r rotated by angle: (E_r)_aa stays, and (E_r)_ab = V_r[a] . V_r[b]
    follows the angle between the coordinates of a and b."""
    vectors = dec.vectors.copy()
    cols = np.flatnonzero(dec.group_of == r)
    assert len(cols) == 2
    c, s = math.cos(angle), math.sin(angle)
    x, y = vectors[a, cols]
    vectors[a, cols] = (c * x - s * y, s * x + c * y)
    return dataclasses.replace(dec, vectors=vectors)


class TestProjectorTensor:
    """decompose, its readers and pair_profile against the projector tensor
    and the list-and-loop constructions they replaced."""

    @pytest.mark.parametrize("g", _REFERENCE_GRAPHS, ids=lambda g: g.name)
    def test_decompose_equals_list_and_stack(self, g):
        self.assert_same_decomposition(g.weights)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            random_weighted_graphs([0.0, 0.5, 1.25, 2.0]).map(lambda g: g.weights),
            random_weighted_graphs([-1.0, 0.0, 0.0, 1.0]).map(lambda g: g.weights),
            random_real_matrices(),
        )
    )
    def test_decompose_equals_list_and_stack_random(self, m):
        self.assert_same_decomposition(m)

    @pytest.mark.parametrize("spec", _SCREEN_SPECS + ["path:12"])
    def test_graph_and_matrix_inputs_equal_the_split_grouping(self, spec):
        self.assert_graph_input_exact(parse_graph_spec(spec))

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            random_weighted_graphs([0.0, 0.5, 1.25, 2.0]),
            random_weighted_graphs([-1.0, 0.0, 0.0, 1.0]),
            relabelled_families(),
        )
    )
    def test_graph_and_matrix_inputs_equal_the_split_grouping_random(self, g):
        self.assert_graph_input_exact(g)

    @staticmethod
    def assert_graph_input_exact(g):
        # a graph skips the checks and the symmetrization its matrix has
        # passed; every field equals that of its matrix as a raw array, and
        # the grouping equals np.split with one mean per group, bit for bit
        dec, raw = decompose(g), decompose(np.array(g.weights))
        for name in ("matrix", "eigenvalues", "vectors", "diagonals", "group_of", "_basis"):
            assert np.array_equal(getattr(dec, name), getattr(raw, name)), name
        assert dec.multiplicities == raw.multiplicities
        assert dec.ambiguous_clustering == raw.ambiguous_clustering
        thetas, vectors, mults = split_grouping(g.weights)
        assert np.array_equal(dec.eigenvalues, thetas)
        assert np.array_equal(dec.vectors, vectors)
        assert dec.multiplicities == mults

    @staticmethod
    def assert_same_decomposition(m):
        dec = decompose(m)
        thetas, projs, mults = list_and_stack_decomposition(np.asarray(m, dtype=float))
        assert np.array_equal(dec.eigenvalues, thetas)
        assert dec.multiplicities == mults
        assert np.abs(np.stack([dec.projector(r) for r in range(dec.n_distinct)]) - projs).max() <= 1e-13
        assert np.abs(reference_tensor(dec) - projs).max() <= 1e-13

    def test_decompose_peak_is_quadratic(self):
        # the (d, n, n) tensor of cycle:300 alone took 151 * 300^2 * 8 bytes
        tensor_bytes = 151 * 300 * 300 * 8
        assert tensor_bytes > 108.7e6
        tracemalloc.start()
        try:
            dec = decompose(G.cycle(300))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dec.n_distinct == 151
        assert peak * 10 <= 108.7e6

    @pytest.mark.parametrize("g", _REFERENCE_GRAPHS, ids=lambda g: g.name)
    def test_pair_profile_equals_loop(self, g):
        dec = decompose(g)
        for a in range(g.order):
            for b in range(g.order):
                if a != b:
                    prof = pair_profile(dec, a, b)
                    assert dataclasses.asdict(prof) == {"a": a, "b": b, **loop_pair_profile(dec, a, b)}

    @settings(max_examples=40, deadline=None)
    @given(random_weighted_graphs([-1.0, 0.0, 0.5, 1.0, 2.0]))
    def test_pair_profile_equals_loop_random(self, g):
        dec = decompose(g)
        for a in range(g.order):
            for b in range(g.order):
                if a != b:
                    prof = pair_profile(dec, a, b)
                    assert dataclasses.asdict(prof) == {"a": a, "b": b, **loop_pair_profile(dec, a, b)}


    @pytest.mark.parametrize("g", _REFERENCE_GRAPHS, ids=lambda g: g.name)
    def test_readers_equal_tensor(self, g):
        dec = decompose(g)
        projs = reference_tensor(dec)
        assert np.abs(dec.diagonals - np.diagonal(projs, axis1=1, axis2=2)).max() <= 1e-13
        for r in range(dec.n_distinct):
            assert np.abs(dec.projector(r) - projs[r]).max() <= 1e-13
        for a in range(g.order):
            for b in range(g.order):
                assert np.abs(dec.entries(a, b) - projs[:, a, b]).max() <= 1e-13
        for t in (0.3, 2.9, 41.0):
            phases = np.exp(-1j * t * dec.eigenvalues)
            assert np.abs(transition_matrix(dec, t) - np.tensordot(phases, projs, axes=(0, 0))).max() <= 1e-13
            for a in range(g.order):
                assert np.abs(transition_column(dec, a, t) - phases @ projs[:, a, :]).max() <= 1e-13

    @pytest.mark.parametrize("g", _REFERENCE_GRAPHS, ids=lambda g: g.name)
    def test_readers_are_bit_symmetric(self, g):
        # pair_profiles reads (E_r)_ab and (E_r)_ba as one number; the
        # projectors' diagonals are the stored ones to rounding
        dec = decompose(g)
        n = g.order
        for a in range(n):
            for b in range(a + 1, n):
                assert np.array_equal(dec.entries(a, b), dec.entries(b, a))
        for r in range(dec.n_distinct):
            e = dec.projector(r)
            assert np.array_equal(e, e.T)
            assert np.abs(np.diagonal(e) - dec.diagonals[r]).max() <= 1e-15

    @pytest.mark.parametrize("spec", _SCREEN_SPECS)
    def test_screens_equal_tensor_screens(self, spec):
        dec = decompose(parse_graph_spec(spec))
        projs = reference_tensor(dec)
        assert strongly_cospectral_candidates(dec) == tensor_strongly_cospectral_candidates(projs)
        slack = (DetectionConfig().tol_walk / DetectionConfig().beta_min) ** 2
        for sl in (0.0, slack):
            mask = parallel_pairs(dec, sl)
            for a in range(dec.order):
                assert np.flatnonzero(mask[a]).tolist() == tensor_parallel_partners(projs, a, sl).tolist()


class TestStrongCospectralityScreen:
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            random_weighted_graphs([0.0, 0.0, 1.0, 2.0]),
            random_weighted_graphs([0.0, 0.5, 1.25, 2.0]),
            random_weighted_graphs([-1.0, 0.0, 0.0, 1.0]),
            relabelled_families(),
        )
    )
    def test_screen_keeps_every_strongly_cospectral_pair(self, g):
        dec = decompose(g)
        screened = strongly_cospectral_candidates(dec)
        assert screened == sorted(screened)
        assert all(a < b for a, b in screened)
        assert set(brute_force_strongly_cospectral(dec)) <= set(screened)

    @pytest.mark.parametrize("g", [G.cycle(8), G.hypercube(3), G.path(4), G.cocktail_party(3)])
    def test_screen_is_exact_on_families(self, g):
        dec = decompose(g)
        assert strongly_cospectral_candidates(dec) == brute_force_strongly_cospectral(dec)

    def test_pair_just_inside_tolerance_survives(self):
        # C6 antipodes with a coordinate of vertex 3 in E_1's basis moved so
        # that E_1 e_0 lies just under TOL_SPEC from -E_1 e_3 in the
        # Euclidean norm: pair_profile still accepts the pair, so the screen
        # must keep it
        nudged = nudge_vertex_in_group(decompose(G.cycle(6)), 3, 1, 0.99 * TOL_SPEC)
        projs = reference_tensor(nudged)
        worst = max(min(np.linalg.norm(e[0] - sign * e[3]) for sign in (1, -1)) for e in projs)
        assert 0.98 * TOL_SPEC <= worst <= TOL_SPEC
        assert pair_profile(nudged, 0, 3).strongly_cospectral
        assert (0, 3) in strongly_cospectral_candidates(nudged)

    @pytest.mark.parametrize("spec", ["cycle:32", "path:12", "cube:4"])
    def test_diagonal_blocks_equal_one_pass(self, monkeypatch, spec):
        # budgets of 8 (k + 1) bytes a pair make blocks of k = 1 and 2 rows of
        # the diagonals, which give the one-block result
        dec = decompose(parse_graph_spec(spec))
        whole = strongly_cospectral_candidates(dec)
        pairs = int(np.triu(parallel_pairs(dec, 0.0)).sum())
        for rows in (1, 2):
            monkeypatch.setattr(spectral_mod, "_PAIR_BLOCK_BYTES", 8 * (rows + 1) * pairs)
            assert strongly_cospectral_candidates(dec) == whole == brute_force_strongly_cospectral(dec)

    def test_random_weighting_has_no_candidates(self):
        rng = np.random.default_rng(7)
        w = np.triu(rng.uniform(0.5, 2.0, size=(12, 12)), 1)
        dec = decompose(w + w.T)
        assert strongly_cospectral_candidates(dec) == []


def brute_force_parallel(dec, a):
    return [b for b in range(dec.order) if b != a and pair_profile(dec, a, b).parallel]


def per_group_parallel_pairs(dec, slack, sources=None):
    """parallel_pairs as one (rows, n) pass per group of multiplicity two or
    more, keeping the running maximum of the Gram determinants: the screen
    before the sieve, the reference for it."""
    rows = np.arange(dec.order) if sources is None else np.asarray(sources, dtype=np.intp)
    worst = np.zeros((len(rows), dec.order))
    gram, e = np.empty_like(worst), np.empty_like(worst)
    for r in np.flatnonzero(np.array(dec.multiplicities) > 1).tolist():
        cols = dec.group_of == r
        np.matmul(dec.vectors[:, cols][rows], dec._basis[cols], out=e)
        np.copyto(gram, dec.diagonals[r] - slack)
        gram *= dec.diagonals[r, rows, None]
        gram -= np.square(e, out=e)
        np.maximum(worst, gram, out=worst)
    worst[np.arange(len(rows)), rows] = np.inf
    return worst <= _SCREEN_TOL


def signed_circulant_product(seed):
    """The Cartesian product of a circulant of order 5..16 with random signed
    weights, whose eigenvalues pair up, and a path of order 2..4."""
    rng = np.random.default_rng([seed, 23])
    n = int(rng.integers(5, 17))
    c = np.where(rng.random(n) < 0.5, rng.uniform(-2.0, 2.0, n), 0.0)
    c[0] = 0.0
    c = (c + np.roll(c[::-1], 1)) / 2.0  # c[k] = c[n - k]
    w = c[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
    circulant = G.WeightedGraph(w, tuple(str(i) for i in range(n)), f"signed-circulant:{seed}")
    return G.cartesian_product(circulant, G.path(int(rng.integers(2, 5))))


_SIEVE_GRAPHS = [parse_graph_spec(s) for s in _SCREEN_SPECS + ["cycle:300"]] + [
    signed_circulant_product(s) for s in range(10)
]


class TestParallelScreen:
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            random_weighted_graphs([0.0, 0.0, 1.0, 2.0]),
            random_weighted_graphs([0.0, 0.5, 1.25, 2.0]),
            random_weighted_graphs([-1.0, 0.0, 0.0, 1.0]),
            relabelled_families(),
        ),
        st.sampled_from([0.0, 1e-4]),
    )
    def test_keeps_every_parallel_pair(self, g, slack):
        dec = decompose(g)
        mask = parallel_pairs(dec, slack)
        assert mask.shape == (g.order, g.order) and not mask.diagonal().any()
        for a in range(g.order):
            assert set(brute_force_parallel(dec, a)) <= set(np.flatnonzero(mask[a]).tolist())

    @pytest.mark.parametrize(
        "g",
        [parse_graph_spec(s) for s in _SCREEN_SPECS + ["cycle:300"]] + [seeded_weighted_graph(s) for s in range(12)],
        ids=lambda g: g.name,
    )
    def test_source_rows_equal_full_mask(self, g):
        # the rows of given sources are bit for bit the full mask's rows: the
        # dot products of a few rows, k = 2 terms on cycles, round as in the
        # full product
        dec = decompose(g)
        n = g.order
        order = np.random.default_rng(n).permutation(n)
        singles = range(n) if n <= 150 else order[:40].tolist()
        for slack in (0.0, _SCAN_SLACK):
            full = parallel_pairs(dec, slack)
            assert np.array_equal(parallel_pairs(dec, slack, order), full[order])
            assert np.array_equal(parallel_pairs(dec, slack, order[:3]), full[order[:3]])
            for a in singles:
                assert np.array_equal(parallel_pairs(dec, slack, [a]), full[a : a + 1])

    @pytest.mark.parametrize("g", _SIEVE_GRAPHS, ids=lambda g: g.name)
    def test_sieve_equals_per_group_loop(self, g):
        # path:4, path:5 and prod(path:3,path:2) have simple spectra: every pair is parallel
        dec = decompose(g)
        sources = np.random.default_rng(g.order).permutation(g.order)[: max(1, g.order // 3)]
        for slack in (0.0, _SCAN_SLACK):
            assert np.array_equal(parallel_pairs(dec, slack), per_group_parallel_pairs(dec, slack))
            assert np.array_equal(parallel_pairs(dec, slack, sources), per_group_parallel_pairs(dec, slack, sources))

    @pytest.mark.parametrize("budget", [64, 64 * 7, 64 * 40])
    @pytest.mark.parametrize("spec", ["cycle:64", "cube:5", "prod(cycle:12,cycle:12)", "cone2:cocktail:10"])
    def test_small_blocks_equal_the_per_group_loop(self, monkeypatch, spec, budget):
        # blocks of one entry and one group, and of a few of each, sieve the
        # later groups as one pass does
        dec = decompose(parse_graph_spec(spec))
        monkeypatch.setattr(spectral_mod, "_PAIR_BLOCK_BYTES", budget)
        for slack in (0.0, _SCAN_SLACK):
            assert np.array_equal(parallel_pairs(dec, slack), per_group_parallel_pairs(dec, slack))

    def test_peak_memory_on_cycle300(self):
        # the first shared group on the whole block: two (n, n) float arrays
        # and a boolean one; the later groups only on the survivors
        dec = decompose(G.cycle(300))
        tracemalloc.start()
        try:
            mask = parallel_pairs(dec, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mask.sum() == 300
        assert peak < 2.5 * 300 * 300 * 8, peak

    def test_source_rows_stay_small(self):
        # one source reads (n, k) blocks of the basis and never forms an (n, n) array
        dec = decompose(G.cycle(300))
        tracemalloc.start()
        try:
            row = parallel_pairs(dec, _SCAN_SLACK, [7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.shape == (1, 300) and np.flatnonzero(row).tolist() == [157]
        assert peak < 300 * 300, peak

    @pytest.mark.parametrize("g", _FAMILY_GRAPHS + [G.double_cone(G.cycle(5)), G.star(5), G.complete(5)])
    def test_exact_on_families(self, g):
        dec = decompose(g)
        for a in range(g.order):
            assert partners(dec, a, 0.0) == brute_force_parallel(dec, a)

    def test_known_partners(self):
        assert partners(decompose(G.cycle(6)), 0, 0.0) == [3]
        assert partners(decompose(G.cycle(7)), 0, 0.0) == []
        assert partners(decompose(G.path(5)), 2, 0.0) == [0, 1, 3, 4]
        # the paper's non-cospectral revival pair is parallel
        assert 2 in partners(decompose(weighted_p3(math.sqrt(2) - 1)), 0, 0.0)

    def test_slack_admits_near_parallel_pairs(self):
        # C6 with the (0, 3) entry of one projector (E_00 = E_33 = 1/3) shrunk
        # by 1e-5 relative, by turning the coordinates of vertex 0 in that
        # two-dimensional eigenspace: the Gram determinant there, about
        # 2.2e-6, is far above the screen's margin and below 1e-4 E_00
        good = decompose(G.cycle(6))
        r = int(np.argmax(np.abs(good.entries(0, 3))))
        nudged = rotate_vertex_in_group(good, 0, r, math.acos(1 - 1e-5))
        e = reference_tensor(nudged)[r]
        assert e[0, 3] == pytest.approx(good.entries(0, 3)[r] * (1 - 1e-5), rel=1e-9)
        assert e[0, 0] * e[3, 3] - e[0, 3] ** 2 == pytest.approx((1 - (1 - 1e-5) ** 2) / 9, rel=1e-6)
        assert 3 not in partners(nudged, 0, 0.0)
        assert 3 in partners(nudged, 0, 1e-4)


def row_rule_profile(dec, a, b):
    """The rule of pair_profiles read from the rows E_r e_a and E_r e_b: the
    norms of the rows, their inner product and its sign s, and ||E_r e_a - s
    E_r e_b||_2."""
    cols_a, cols_b = projector_rows(dec, a), projector_rows(dec, b)
    norms_a = np.linalg.norm(cols_a, axis=1)
    norms_b = np.linalg.norm(cols_b, axis=1)
    sup_a = norms_a > TOL_SUPPORT
    live = np.nonzero(sup_a | (norms_b > TOL_SUPPORT))[0]
    ua, ub = cols_a[live], cols_b[live]
    ip = (ua * ub).sum(axis=1)
    parallel = bool((np.abs(np.abs(ip) - norms_a[live] * norms_b[live]) <= TOL_SPEC).all())
    cospectral = bool(np.abs(dec.diagonals[:, a] - dec.diagonals[:, b]).max() <= TOL_SPEC)
    sign = np.where(ip >= 0, 1.0, -1.0)
    strongly = bool((np.linalg.norm(ua - sign[:, None] * ub, axis=1) <= TOL_SPEC).all())
    plus = frozenset(live[sign > 0].tolist()) if strongly else frozenset()
    minus = frozenset(live[sign < 0].tolist()) if strongly else frozenset()
    return PairProfile(
        a=a,
        b=b,
        support=frozenset(np.nonzero(sup_a)[0].tolist()),
        parallel=parallel,
        cospectral=cospectral,
        strongly_cospectral=strongly,
        phi_plus=plus,
        phi_minus=minus,
        perron_anchor_valid=bool(strongly and dec.nonnegative and 0 in plus),
    )


def coordinate_profiles(dec, pairs):
    """pair_profiles(dec, pairs) with the projector reader patched to raise."""

    def no_rows(*args):
        raise AssertionError("pair_profiles read a projector")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(SpectralDecomposition, "projector", no_rows)
        return pair_profiles(dec, pairs)


_SIGNED_WEIGHTS = [-2.0, -1.0, -0.5, 0.0, 0.0, 0.0, 0.5, 1.0, 1.5]


@st.composite
def signed_graphs_with_twins(draw, min_order=2):
    """Random signed weighted graphs with loops, plus a twin of vertex 0:
    vertex n copies its row and potential, and the two may share an edge.
    Twins are strongly cospectral unless the eigenvalue of e_0 - e_n is
    also one of the rest of the graph's."""
    n = draw(st.integers(min_order, 8))
    w = np.zeros((n + 1, n + 1))
    w[np.triu_indices(n, 1)] = draw(st.lists(st.sampled_from(_SIGNED_WEIGHTS), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    w += w.T
    w[np.diag_indices(n)] = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.0, 1.0]), min_size=n, max_size=n))
    w[n, :n] = w[:n, n] = w[0, :n]
    w[n, n] = w[0, 0]
    w[0, n] = w[n, 0] = draw(st.sampled_from(_SIGNED_WEIGHTS))
    return G.WeightedGraph(w, tuple(str(i) for i in range(n + 1)), f"twins:{n + 1}")


def nudge_vertex_in_group(dec, b, r, delta):
    """dec with delta added to the first coordinate of vertex b in the basis
    of group r: for a strongly cospectral pair (a, b), D_r = ||V_r^T (e_a -
    s e_b)|| becomes delta, and so does ||E_r (e_a - s e_b)|| to a relative
    O(delta), as V_r stays orthonormal to O(delta)."""
    vectors = dec.vectors.copy()
    vectors[b, np.flatnonzero(dec.group_of == r)[0]] += delta
    return dataclasses.replace(dec, vectors=vectors)


class TestPairProfiles:
    """pair_profiles, which reads coordinates only, against the same rule
    read from the rows, on every pair and at each threshold."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(signed_graphs_with_twins(), random_weighted_graphs(_SIGNED_WEIGHTS)))
    def test_equals_row_rule_on_every_pair(self, g):
        dec = decompose(g)
        pairs = [(a, b) for a in range(g.order) for b in range(g.order) if a != b]
        assert pair_profiles(dec, pairs) == [row_rule_profile(dec, a, b) for a, b in pairs]

    @pytest.mark.parametrize("g", _FAMILY_GRAPHS, ids=lambda g: g.name)
    def test_reads_no_rows_on_families(self, g):
        dec = decompose(g)
        pairs = [(a, b) for a in range(g.order) for b in range(g.order) if a != b]
        expected = [row_rule_profile(dec, a, b) for a, b in pairs]
        assert coordinate_profiles(dec, pairs) == expected

    @settings(max_examples=40, deadline=None)
    @given(signed_graphs_with_twins(min_order=4), st.data())
    def test_perturbed_pairs_equal_row_rule(self, g, data):
        dec = decompose(g)
        a, b = 0, g.order - 1
        good = row_rule_profile(dec, a, b)
        assume(good.strongly_cospectral)
        r = data.draw(st.sampled_from(sorted(good.phi_plus | good.phi_minus)))
        # D_r = ||E_r (e_a - s e_b)|| moved to each side of TOL_SPEC
        for f in (0.5, 0.99, 1.01, 2.0):
            nudged = nudge_vertex_in_group(dec, b, r, f * TOL_SPEC)
            [prof] = coordinate_profiles(nudged, [(a, b)])
            assert prof == row_rule_profile(nudged, a, b)
            assert prof.strongly_cospectral == (f < 1), f
        # the support test: a's coordinates in group r scaled to norm
        # TOL_SUPPORT +- 1e-13. Scaling leaves the basis far from
        # orthonormal, so the rows are no reference: the stored diagonal
        # decides
        norm = math.sqrt(dec.diagonals[r, a])
        for target in (TOL_SUPPORT - 1e-13, TOL_SUPPORT + 1e-13):
            nudged = scale_vertex_in_group(dec, a, r, target / norm)
            assert abs(math.sqrt(nudged.diagonals[r, a]) - target) <= 1e-20
            prof_ab, prof_ba = coordinate_profiles(nudged, [(a, b), (b, a)])
            assert (r in prof_ab.support) == (target > TOL_SUPPORT)
            assert r in prof_ba.support
            assert not prof_ab.strongly_cospectral and not prof_ba.strongly_cospectral
        # a and b scaled alike to 2 TOL_SUPPORT in group r: the group stays
        # live, D_r stays near 0 and E_ab keeps its sign
        f = 2 * TOL_SUPPORT / norm
        nudged = scale_vertex_in_group(scale_vertex_in_group(dec, a, r, f), b, r, f)
        [prof] = coordinate_profiles(nudged, [(a, b)])
        assert prof.strongly_cospectral and r in prof.support
        assert (prof.phi_plus, prof.phi_minus) == (good.phi_plus, good.phi_minus)

    @pytest.mark.parametrize("offset", [-1e-13, 1e-13])
    def test_parallel_gap_at_threshold(self, offset):
        # C6 antipodes with the coordinates of 0 turned in a two-dimensional
        # eigenspace until |E_03| falls short of sqrt(E_00 E_33) by TOL_SPEC
        # + offset
        good = decompose(G.cycle(6))
        r = int(np.argmax(np.abs(good.entries(0, 3))))
        e = abs(good.entries(0, 3)[r])
        nudged = rotate_vertex_in_group(good, 0, r, math.acos(1 - (TOL_SPEC + offset) / e))
        gap = math.sqrt(nudged.diagonals[r, 0] * nudged.diagonals[r, 3]) - abs(nudged.entries(0, 3)[r])
        assert abs(gap - TOL_SPEC - offset) <= 1e-15
        [prof] = coordinate_profiles(nudged, [(0, 3)])
        assert prof == row_rule_profile(nudged, 0, 3)
        assert prof.parallel == (offset < 0)

    def test_blocks_equal_one_pass(self, monkeypatch):
        dec = decompose(G.cycle(32))
        pairs = [(a, b) for a in range(32) for b in range(32) if a != b]
        whole = pair_profiles(dec, pairs)
        monkeypatch.setattr(spectral_mod, "_PAIR_BLOCK_BYTES", 3 * 8 * 32)
        assert pair_profiles(dec, pairs) == whole == [row_rule_profile(dec, a, b) for a, b in pairs]

    def test_rejects_bad_pairs(self):
        dec = decompose(G.path(4))
        assert pair_profiles(dec, []) == []
        with pytest.raises(ValueError, match="distinct"):
            pair_profiles(dec, [(0, 1), (2, 2)])
        with pytest.raises(ValueError, match="vertex 4 out of range"):
            pair_profiles(dec, [(0, 1), (4, 1)])
