"""Graph families, combinators, equitable partitions, quotients, file format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqw import graphs as G


def eigvals(g):
    return np.sort(np.linalg.eigvalsh(g.weights))


class TestFamilies:
    def test_path2_adjacency(self):
        assert np.array_equal(G.path(2).weights, [[0, 1], [1, 0]])

    def test_path4_eigenvalues_golden_ratio(self):
        expected = sorted([(s1 + s2 * math.sqrt(5)) / 2 for s1 in (1, -1) for s2 in (1, -1)])
        assert np.allclose(eigvals(G.path(4)), expected, atol=1e-12)

    def test_path3_eigenvalues(self):
        assert np.allclose(eigvals(G.path(3)), [-math.sqrt(2), 0, math.sqrt(2)], atol=1e-12)

    def test_cycle6_eigenvalues(self):
        assert np.allclose(eigvals(G.cycle(6)), [-2, -1, -1, 1, 1, 2], atol=1e-12)

    def test_cycle_eigenvalues_cosine_formula(self):
        for n in (5, 8, 12):
            expected = np.sort([2 * math.cos(2 * math.pi * r / n) for r in range(n)])
            assert np.allclose(eigvals(G.cycle(n)), expected, atol=1e-9)

    def test_cocktail_party_regularity(self):
        g = G.cocktail_party(3)
        assert g.order == 6
        degrees = g.weights.sum(axis=1)
        assert np.all(degrees == 4)
        # partner pairs are the only non-adjacencies
        for i in range(3):
            assert g.weights[2 * i, 2 * i + 1] == 0

    def test_star_shape(self):
        g = G.star(6)
        assert g.order == 7
        assert g.weights[0].sum() == 6
        assert np.all(g.weights[1:, 1:] == 0)

    def test_hypercube_recursion(self):
        q3 = G.hypercube(3)
        built = G.cartesian_product(G.path(2), G.cartesian_product(G.path(2), G.path(2)))
        assert np.allclose(eigvals(q3), eigvals(built), atol=1e-12)

    def test_invalid_orders(self):
        for ctor in (G.path, G.cycle, G.star, G.complete, G.empty, G.cocktail_party):
            with pytest.raises(ValueError):
                ctor(0)
        with pytest.raises(ValueError):
            G.hypercube(0)

    def test_order_limit_fits_work_budget(self):
        # one complex (n, n) product of the exponential oracle takes 8 n^3 real flops
        assert G.MAX_ORDER == 645
        assert 8 * G.MAX_ORDER**3 <= G.WORK_BUDGET < 8 * (G.MAX_ORDER + 1) ** 3

    def test_order_limit_checked_before_building(self, monkeypatch):
        monkeypatch.setattr(G, "MAX_ORDER", 10)
        assert G.cycle(10).order == 10 and G.star(9).order == 10 and G.hypercube(3).order == 8
        too_big = [
            lambda: G.cycle(11),
            lambda: G.path(11),
            lambda: G.complete(11),
            lambda: G.empty(11),
            lambda: G.star(10),
            lambda: G.cocktail_party(6),
            lambda: G.hypercube(4),
            lambda: G.hypercube(10**9),
            lambda: G.antipodal_matching(4),
            lambda: G.cartesian_product(G.path(4), G.path(3)),
            lambda: G.double_cone(G.cycle(9)),
            lambda: G.x_theta(G.cycle(6), [3, 4, 5, 0, 1, 2], 0.1),
        ]
        for build in too_big:
            with pytest.raises(ValueError, match="more than 10 vertices"):
                build()
        with pytest.raises(G.GraphFormatError, match="line 1: the graph would have more than 10 vertices"):
            G.parse_graph_text("n 11\n0 1 1\n")

    def test_labels_unique(self):
        with pytest.raises(ValueError):
            G.WeightedGraph(np.zeros((2, 2)), ("v", "v"))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            G.WeightedGraph(np.array([[0.0, 1.0], [0.5, 0.0]]), ("0", "1"))

    def test_weights_frozen(self):
        g = G.path(3)
        with pytest.raises(ValueError):
            g.weights[0, 1] = 5.0


class TestCombinators:
    def test_product_of_edges_is_four_cycle(self):
        prod = G.cartesian_product(G.path(2), G.path(2))
        assert prod.order == 4
        assert np.allclose(eigvals(prod), eigvals(G.cycle(4)), atol=1e-12)
        assert np.all(prod.weights.sum(axis=1) == 2)

    def test_product_kronecker_sum_law(self):
        x, y = G.star(3), G.cycle(5)
        prod = G.cartesian_product(x, y)
        expected = np.kron(x.weights, np.eye(5)) + np.kron(np.eye(4), y.weights)
        assert np.array_equal(prod.weights, expected)

    def test_star6_bunkbed_order(self):
        assert G.cartesian_product(G.star(6), G.path(2)).order == 14

    def test_product_spectrum_is_pairwise_sums(self):
        x, y = G.path(3), G.cycle(4)
        prod = G.cartesian_product(x, y)
        sums = np.sort([a + b for a in np.linalg.eigvalsh(x.weights) for b in np.linalg.eigvalsh(y.weights)])
        assert np.allclose(eigvals(prod), sums, atol=1e-9)

    def test_overlay_identity(self):
        x = G.cycle(5)
        same = G.union_overlay(x, G.empty(5))
        assert np.array_equal(same.weights, x.weights)

    def test_overlay_requires_same_vertex_set(self):
        with pytest.raises(ValueError):
            G.union_overlay(G.cycle(4), G.empty(5))
        with pytest.raises(ValueError):
            G.union_overlay(G.path(4), G.cycle(4))  # same order, different labels

    def test_cocktail_is_iterated_double_cone(self):
        cone = G.double_cone(G.cocktail_party(2))
        target = G.cocktail_party(3)
        assert cone.order == target.order
        assert np.allclose(eigvals(cone), eigvals(target), atol=1e-12)

    def test_join_adds_all_cross_edges(self):
        # the double cone over x is the join of two isolated apexes with x
        j = G.double_cone(G.cycle(4))
        apexes, inner = [0, 5], [1, 2, 3, 4]
        assert j.order == 6
        assert np.all(j.weights[np.ix_(apexes, inner)] == 1)
        assert np.all(j.weights[np.ix_(apexes, apexes)] == 0)
        assert np.array_equal(j.weights[np.ix_(inner, inner)], G.cycle(4).weights)

    def test_join_quotient_eigenvalues(self):
        # two isolated vertices joined to a k-regular graph on n vertices
        y = G.cycle(5)  # k=2, n=5
        x = G.double_cone(y)
        part = G.coarsest_equitable_refinement(x, [[0], [6], [1, 2, 3, 4, 5]])
        q = G.quotient(x, part)
        k, n = 2, 5
        si = math.sqrt(k * k + 8 * n)
        expected = sorted([(k + si) / 2, (k - si) / 2, 0.0])
        assert np.allclose(eigvals(q), expected, atol=1e-12)

    def test_scale_weights(self):
        g = G.scale_weights(G.hypercube(2), 2.0)
        assert np.array_equal(g.weights, 2 * G.hypercube(2).weights)
        with pytest.raises(ValueError):
            G.scale_weights(g, -1.0)


class TestXTheta:
    def swap(self):
        return (2, 3, 0, 1)

    def test_theta_zero_is_box_product_with_edge(self):
        y = G.cycle(4)
        g = G.x_theta(y, self.swap(), 0.0)
        prod = G.cartesian_product(G.path(2), y)
        assert np.allclose(g.weights, prod.weights, atol=1e-15)
        assert not g.signed

    def test_theta_pi_over_4_kills_cross_blocks(self):
        g = G.x_theta(G.cycle(4), self.swap(), math.pi / 4)
        assert np.abs(g.weights[:4, 4:]).max() <= 1e-12
        assert g.signed  # lower sheet carries -T

    def test_rejects_non_automorphism(self):
        with pytest.raises(ValueError):
            G.x_theta(G.path(4), (1, 0, 2, 3), 0.3)  # transposing one edge end only

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            G.x_theta(G.cycle(4), (1, 2, 3, 0), 0.3)

    def test_spectral_symmetry(self):
        # the rotated graph keeps the doubled spectrum structure of theta=0
        y = G.cycle(4)
        for theta in (0.1, 0.7):
            g = G.x_theta(y, self.swap(), theta)
            ev = eigvals(g)
            assert np.allclose(ev, -ev[::-1], atol=1e-9)  # bipartite-like symmetry


class TestEquitable:
    def test_star_refinement(self):
        g = G.star(6)
        part = G.coarsest_equitable_refinement(g, [[0], list(range(1, 7))])
        assert part.cells == ((0,), (1, 2, 3, 4, 5, 6))

    def test_double_cone_stays_three_cells(self):
        y = G.cycle(4)
        x = G.double_cone(y)
        part = G.coarsest_equitable_refinement(x, [[0], [5], [1, 2, 3, 4]])
        assert part.size == 3
        assert part.cells[0] == (0,) and part.cells[2] == (5,)

    def test_path4_endpoint_seed_goes_discrete(self):
        part = G.coarsest_equitable_refinement(G.path(4), [[0], [1, 2, 3]])
        assert part.cells == ((0,), (1,), (2,), (3,))

    def test_refinement_idempotent(self):
        g = G.double_cone(G.cycle(4))
        part = G.coarsest_equitable_refinement(g, [[0], [5], [1, 2, 3, 4]])
        again = G.coarsest_equitable_refinement(g, [list(c) for c in part.cells])
        assert again.cells == part.cells

    def test_quotient_double_cone_matrix(self):
        y = G.cycle(4)  # 2-regular on 4 vertices
        x = G.double_cone(y)
        part = G.coarsest_equitable_refinement(x, [[0], [5], [1, 2, 3, 4]])
        q = G.quotient(x, part)
        expected = [[0, 2, 0], [2, 2, 2], [0, 2, 0]]
        assert np.allclose(q.weights, expected, atol=1e-12)

    def test_quotient_by_singletons_is_identity(self):
        g = G.cycle(5)
        part = G.coarsest_equitable_refinement(g, [[v] for v in range(5)])
        q = G.quotient(g, part)
        assert np.allclose(q.weights, g.weights, atol=1e-15)

    def test_star_quotient_weight(self):
        g = G.star(4)
        part = G.coarsest_equitable_refinement(g, [[0], [1, 2, 3, 4]])
        q = G.quotient(g, part)
        assert np.allclose(q.weights, [[0, 2], [2, 0]], atol=1e-12)  # sqrt(4 * 1)

    def test_quotient_rejects_non_equitable(self):
        g = G.path(4)
        bad = G.EquitablePartition(((0, 1), (2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            G.quotient(g, bad)

    def test_quotient_consistency_invariant(self):
        g = G.double_cone(G.complete(4))
        part = G.coarsest_equitable_refinement(g, [[0], [g.order - 1], list(range(1, g.order - 1))])
        defect, d = G.equitability_defect(g, part.cells)
        assert defect <= G.TOL_EQ
        for i, cell in enumerate(part.cells):
            for u in cell:
                for j, other in enumerate(part.cells):
                    assert abs(g.weights[u, list(other)].sum() - d[i, j]) <= G.TOL_EQ


def orbit_partition(g, a):
    """Coarsest equitable refinement of {{a}, V - {a}}."""
    return G.coarsest_equitable_refinement(g, [[a], [v for v in range(g.order) if v != a]])


def cell_sizes(part):
    return sorted(len(c) for c in part.cells)


class TestOrbitSignature:
    def test_p5_middle_differs_from_endpoint(self):
        g = G.path(5)
        mid = orbit_partition(g, 2)
        end = orbit_partition(g, 0)
        assert cell_sizes(mid) != cell_sizes(end)
        assert mid.cells == ((0, 4), (1, 3), (2,))

    def test_c6_all_vertices_same_shape(self):
        g = G.cycle(6)
        shapes = {tuple(cell_sizes(orbit_partition(g, a))) for a in range(6)}
        assert len(shapes) == 1

    def test_p4_endpoints_match(self):
        g = G.path(4)
        assert set(orbit_partition(g, 0).cells) == set(orbit_partition(g, 3).cells)


def averaged(w):
    """The weights WeightedGraph built from w before a bit-symmetric matrix
    skipped the average: (w + w^T) / 2 of every matrix within 1e-12 of its
    transpose; None for one further off."""
    if np.abs(w - w.T).max() > 1e-12:
        return None
    return (w + w.T) / 2.0


#: signed zeros, subnormals, entries near the norm bound and plain weights
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e150, -1e150, 1.0, -2.5]),
    st.floats(-1e3, 1e3),
)


@st.composite
def near_symmetric_matrices(draw):
    """A matrix whose upper triangle is mirrored bit for bit, then one entry
    below the diagonal changed: left as it is, its zero's sign flipped, moved
    by at most 1e-12 or moved by more."""
    n = draw(st.integers(1, 6))
    w = np.array(draw(st.lists(_ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    upper = np.triu_indices(n, 1)
    w[upper[::-1]] = w[upper]
    mode = draw(st.sampled_from(["exact", "signed-zero", "within", "beyond"]))
    if n > 1 and mode != "exact":
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        if mode == "signed-zero":
            w[i, j] = draw(st.sampled_from([0.0, -0.0]))
            w[j, i] = -w[i, j]
        elif mode == "within":
            w[j, i] += draw(st.floats(-1e-12, 1e-12))
        else:
            w[j, i] += draw(st.sampled_from([2e-12, -1e-9, 0.5, 1e140]))
    return w


def dfs_connected(g):
    """Depth-first search from vertex 0 along nonzero weights, one vertex at a time."""
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in range(g.order):
            if g.weights[u, v] != 0.0 and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.order


def disjoint_union(x, y):
    w = np.zeros((x.order + y.order,) * 2)
    w[: x.order, : x.order] = x.weights
    w[x.order :, x.order :] = y.weights
    return G.WeightedGraph(w, [f"x{l}" for l in x.labels] + [f"y{l}" for l in y.labels], "union")


@st.composite
def sparse_signed_graphs(draw):
    """Orders 1..12, weights from {-1, 0, 0.5}, mostly 0, loops included."""
    n = draw(st.integers(1, 12))
    values = st.sampled_from([0.0, 0.0, 0.0, 0.0, -1.0, 0.5])
    w = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
    w = np.triu(w) + np.triu(w, 1).T
    return G.WeightedGraph(w, tuple(str(i) for i in range(n)), "sparse")


class TestWeights:
    @settings(max_examples=300, deadline=None)
    @given(near_symmetric_matrices())
    def test_weights_equal_the_average_bit_for_bit(self, w):
        expected = averaged(w)
        if expected is None:
            with pytest.raises(ValueError, match="symmetric"):
                G.WeightedGraph(w, tuple(str(i) for i in range(len(w))))
            return
        g = G.WeightedGraph(w, tuple(str(i) for i in range(len(w))))
        assert np.array_equal(g.weights.view(np.int64), expected.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(near_symmetric_matrices())
    def test_norm_is_the_max_row_sum_of_the_stored_weights(self, w):
        if averaged(w) is None:
            return
        g = G.WeightedGraph(w, tuple(str(i) for i in range(len(w))))
        assert g.norm.hex() == float(np.abs(g.weights).sum(axis=1).max()).hex()

    @pytest.mark.parametrize("n", [*range(1, 17), 64, 129, 300])
    def test_norm_over_row_blocks_is_the_max_row_sum(self, n):
        # orders of one block (up to 90) and of several, with a ragged last
        # block (129: 63 + 63 + 3 rows; 300: 27 rows per block)
        rng = np.random.default_rng(n)
        pool = np.array([0.0, -0.0, 5e-324, 2.5e-310, 1e150 / n, -1e150 / n, 1.0, -2.5, 0.1, 1 / 3])
        w = np.where(rng.random((n, n)) < 0.5, rng.choice(pool, (n, n)), rng.uniform(-1e3, 1e3, (n, n)))
        w = np.triu(w) + np.triu(w, 1).T
        g = G.WeightedGraph(w, tuple(str(i) for i in range(n)))
        assert g.norm.hex() == float(np.abs(g.weights).sum(axis=1).max()).hex()

    def test_signed_zero_pair_is_averaged_to_zero(self):
        w = np.array([[0.0, -0.0], [0.0, 0.0]])
        assert np.signbit(G.WeightedGraph(w, ("0", "1")).weights).sum() == 0

    def test_bit_symmetric_weights_are_kept(self):
        w = np.array([[-0.0, 0.1, 5e-324], [0.1, 2.0, -1e150], [5e-324, -1e150, -0.0]])
        g = G.WeightedGraph(w, ("0", "1", "2"))
        assert np.array_equal(g.weights.view(np.int64), w.view(np.int64))
        assert not g.weights.flags.writeable and g.weights is not w


class TestStructure:
    def test_bipartition(self):
        parts = G.bipartition(G.cycle(6))
        assert parts is not None
        assert {0, 3} <= parts[0] | parts[1]
        assert (0 in parts[0]) != (3 in parts[0])
        assert G.bipartition(G.cycle(5)) is None

    def test_loops_break_bipartiteness(self):
        w = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert G.bipartition(G.WeightedGraph(w, ("0", "1"))) is None

    def test_connectivity(self):
        assert G.is_connected(G.cycle(5))
        assert not G.is_connected(G.empty(3))

    @pytest.mark.parametrize(
        "g",
        [
            G.empty(1),
            G.path(1),
            G.WeightedGraph([[2.0]], ("0",)),
            G.empty(2),
            G.path(600),
            disjoint_union(G.cycle(4), G.path(3)),
            disjoint_union(G.path(1), G.cycle(5)),
            disjoint_union(G.cycle(5), G.empty(1)),
            G.WeightedGraph(np.diag([1.0, 1.0, -1.0]), ("0", "1", "2")),
            G.x_theta(G.cycle(4), (2, 3, 0, 1), 0.3),
            G.x_theta(G.cycle(4), (2, 3, 0, 1), math.pi / 4),
            G.double_cone(G.cycle(5)),
        ],
        ids=lambda g: g.name,
    )
    def test_connectivity_equals_depth_first_search(self, g):
        assert G.is_connected(g) == dfs_connected(g)

    @settings(max_examples=200, deadline=None)
    @given(sparse_signed_graphs())
    def test_connectivity_of_sparse_signed_graphs(self, g):
        assert G.is_connected(g) == dfs_connected(g)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        g = G.double_cone(G.cycle(5))
        target = tmp_path / "cone.graph"
        G.write_graph(g, target)
        back = G.read_graph(target)
        assert back.order == g.order
        assert np.allclose(back.weights, g.weights, atol=0)

    def test_parse_errors_carry_line(self):
        with pytest.raises(G.GraphFormatError) as err:
            G.parse_graph_text("n 3\n0 5 1.0\n")
        assert err.value.line == 2
        with pytest.raises(G.GraphFormatError):
            G.parse_graph_text("0 1 1.0\n")  # missing header
        with pytest.raises(G.GraphFormatError):
            G.parse_graph_text("n 3\n1 0 1.0\n")  # lower triangle

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(G.GraphFormatError) as err:
            G.parse_graph_text(f"n 3\n0 1 1.0\n1 2 {weight}\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_rejected(self, weight):
        with pytest.raises(ValueError, match="finite"):
            G.WeightedGraph(np.array([[0.0, weight], [weight, 0.0]]), ("0", "1"))
        with pytest.raises(ValueError):
            G.scale_weights(G.cycle(4), weight)

    def test_norm_over_the_limit_rejected(self):
        # the max row sum of |A|: 1e308 alone, and two entries of 4e153
        # whose sum passes sqrt(float max) / 2, about 6.7e153
        for w in ([[0.0, 1e308], [1e308, 0.0]], [[0.0, 4e153, 4e153], [4e153, 0.0, 0.0], [4e153, 0.0, 0.0]]):
            with pytest.raises(ValueError, match="above the limit"):
                G.WeightedGraph(np.array(w), tuple("012"[: len(w)]))
        assert G.WeightedGraph(np.array([[0.0, 6e153], [6e153, 0.0]]), ("0", "1")).weights[0, 1] == 6e153
        assert G.parse_graph_text("n 2\n0 1 5e-324\n").weights[0, 1] == 5e-324

    def test_diagonal_entries_allowed(self):
        g = G.parse_graph_text("n 2\n0 0 0.5\n0 1 2.0\n")
        assert g.weights[0, 0] == 0.5 and g.weights[0, 1] == 2.0
