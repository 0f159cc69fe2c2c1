"""Grouped eigendecomposition and pair-relation tests."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqw import graphs as G
from ctqw.spectral import (
    TOL_SPEC,
    TOL_SUPPORT,
    decompose,
    default_group_tol,
    pair_profile,
    parallel_partners,
    strongly_cospectral_candidates,
)


def support(dec, a):
    """Indices r with E_r e_a nonzero, as pair_profile reports them."""
    return pair_profile(dec, a, (a + 1) % dec.order).support


def weighted_p3(omega):
    w = np.array([[0.0, omega, 0.0], [omega, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return G.WeightedGraph(w, ("a", "m", "b"), f"p3w:{omega:g}")


def projector_invariants_ok(dec, atol=1e-9):
    n = dec.order
    if np.abs(dec.projectors.sum(axis=0) - np.eye(n)).max() > atol:
        return False
    recon = np.tensordot(dec.eigenvalues, dec.projectors, axes=(0, 0))
    if np.abs(recon - dec.matrix).max() > atol:
        return False
    for r in range(dec.n_distinct):
        er = dec.projectors[r]
        if np.abs(er @ er - er).max() > atol:
            return False
        for s in range(r + 1, dec.n_distinct):
            if np.abs(er @ dec.projectors[s]).max() > atol:
                return False
    return True


class TestDecompose:
    def test_identity_matrix(self):
        dec = decompose(np.eye(4))
        assert dec.n_distinct == 1
        assert dec.eigenvalues[0] == pytest.approx(1.0)
        assert np.allclose(dec.projectors[0], np.eye(4))

    def test_descending_order_and_multiplicities(self):
        dec = decompose(G.cycle(6))
        assert np.allclose(dec.eigenvalues, [2, 1, -1, -2], atol=1e-9)
        assert dec.multiplicities == (1, 2, 2, 1)

    def test_weighted_p3_zero_projector(self):
        omega = 2.0
        dec = decompose(weighted_p3(omega))
        r0 = int(np.argmin(np.abs(dec.eigenvalues)))
        expected = np.array([[1, 0, -omega], [0, 0, 0], [-omega, 0, omega**2]]) / (1 + omega**2)
        assert np.abs(dec.projectors[r0] - expected).max() <= 1e-12

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
            assert np.abs(dec.projectors[r] - expected).max() <= 1e-12

    @pytest.mark.parametrize("n", [4, 5])
    def test_path_projector_formula(self, n):
        dec = decompose(G.path(n))
        for r in range(1, n + 1):
            er = dec.projectors[r - 1]  # descending eigenvalues match r = 1..n
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

    def test_rejects_order_over_limit(self, monkeypatch):
        monkeypatch.setattr(G, "MAX_ORDER", 10)
        assert decompose(G.cycle(10)).order == 10
        with pytest.raises(ValueError, match="more than 10 vertices"):
            decompose(np.zeros((11, 11)))

    def test_ambiguous_clustering_flag(self):
        # two eigenvalues straddling the grouping tolerance
        gt = default_group_tol(np.diag([0.0, 0.0, 1.0]))
        m = np.diag([0.0, 3 * gt, 1.0])
        assert default_group_tol(m) == gt
        assert decompose(m).ambiguous_clustering
        assert not decompose(np.diag([0.0, 1.0, 2.0])).ambiguous_clustering

    def test_nonnegative_flag(self):
        assert decompose(G.cycle(4)).nonnegative
        signed = G.x_theta(G.cycle(4), (2, 3, 0, 1), 0.3)
        assert not decompose(signed).nonnegative


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
    breaks = np.nonzero(np.diff(evals) >= default_group_tol(m))[0]
    thetas, projs, mults = [], [], []
    for g in np.split(np.arange(len(evals)), breaks + 1):
        thetas.append(float(evals[g].mean()))
        v = evecs[:, g]
        e = v @ v.T
        projs.append((e + e.T) / 2.0)
        mults.append(len(g))
    order = np.argsort(thetas)[::-1]
    return np.array([thetas[i] for i in order]), np.stack([projs[i] for i in order]), tuple(mults[i] for i in order)


def loop_pair_profile(dec, a, b):
    """pair_profile's fields as a loop over the eigenvalues."""
    cols_a, cols_b = dec.projectors[:, :, a], dec.projectors[:, :, b]
    norms_a = np.linalg.norm(cols_a, axis=1)
    norms_b = np.linalg.norm(cols_b, axis=1)
    sup_a, sup_b = norms_a > TOL_SUPPORT, norms_b > TOL_SUPPORT
    parallel = True
    for r in np.nonzero(sup_a | sup_b)[0]:
        if abs(abs(float(cols_a[r] @ cols_b[r])) - norms_a[r] * norms_b[r]) > TOL_SPEC:
            parallel = False
            break
    cospectral = bool(np.abs(dec.projectors[:, a, a] - dec.projectors[:, b, b]).max() <= TOL_SPEC)
    strongly, plus, minus = True, set(), set()
    for r in range(dec.n_distinct):
        if not (sup_a[r] or sup_b[r]):
            continue
        va, vb = cols_a[r], cols_b[r]
        k = int(np.argmax(np.abs(va)))
        sign = 1.0 if va[k] * vb[k] >= 0 else -1.0
        if np.abs(va - sign * vb).max() <= TOL_SPEC:
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


class TestProjectorTensor:
    """decompose and pair_profile against their list-and-loop constructions."""

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

    @staticmethod
    def assert_same_decomposition(m):
        dec = decompose(m)
        thetas, projs, mults = list_and_stack_decomposition(np.asarray(m, dtype=float))
        assert np.array_equal(dec.eigenvalues, thetas)
        assert np.array_equal(dec.projectors, projs)
        assert dec.multiplicities == mults

    def test_decompose_holds_one_tensor(self):
        g = G.cycle(128)
        tracemalloc.start()
        try:
            dec = decompose(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dec.projectors.nbytes == 65 * 128 * 128 * 8
        # stacking a list of projectors holds the tensor twice
        assert peak <= 1.2 * dec.projectors.nbytes

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
        # C6 antipodes with one projector entry moved by just under TOL_SPEC:
        # pair_profile still accepts the pair, so the screen must keep it
        good = decompose(G.cycle(6))
        projectors = good.projectors.copy()
        projectors[1, 0, 0] += 0.99 * TOL_SPEC
        nudged = dataclasses.replace(good, projectors=projectors)
        assert pair_profile(nudged, 0, 3).strongly_cospectral
        assert (0, 3) in strongly_cospectral_candidates(nudged)

    def test_random_weighting_has_no_candidates(self):
        rng = np.random.default_rng(7)
        w = np.triu(rng.uniform(0.5, 2.0, size=(12, 12)), 1)
        dec = decompose(w + w.T)
        assert strongly_cospectral_candidates(dec) == []


def brute_force_parallel(dec, a):
    return [b for b in range(dec.order) if b != a and pair_profile(dec, a, b).parallel]


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
        for a in range(g.order):
            kept = parallel_partners(dec, a, slack).tolist()
            assert kept == sorted(kept) and a not in kept
            assert set(brute_force_parallel(dec, a)) <= set(kept)

    @pytest.mark.parametrize("g", _FAMILY_GRAPHS + [G.double_cone(G.cycle(5)), G.star(5), G.complete(5)])
    def test_exact_on_families(self, g):
        dec = decompose(g)
        for a in range(g.order):
            assert parallel_partners(dec, a, 0.0).tolist() == brute_force_parallel(dec, a)

    def test_known_partners(self):
        assert parallel_partners(decompose(G.cycle(6)), 0, 0.0).tolist() == [3]
        assert parallel_partners(decompose(G.cycle(7)), 0, 0.0).tolist() == []
        assert parallel_partners(decompose(G.path(5)), 2, 0.0).tolist() == [0, 1, 3, 4]
        # the paper's non-cospectral revival pair is parallel
        assert 2 in parallel_partners(decompose(weighted_p3(math.sqrt(2) - 1)), 0, 0.0).tolist()

    def test_slack_admits_near_parallel_pairs(self):
        # C6 with the (0, 3) entry of one projector (E_00 = E_33 = 1/3) shrunk
        # by 1e-5 relative: the Gram determinant there, about 2.2e-6, is far
        # above the screen's margin and below 1e-4 E_00
        good = decompose(G.cycle(6))
        r = int(np.argmax(np.abs(good.projectors[:, 0, 3])))
        projectors = good.projectors.copy()
        projectors[r, 0, 3] = projectors[r, 3, 0] = projectors[r, 0, 3] * (1 - 1e-5)
        nudged = dataclasses.replace(good, projectors=projectors)
        assert 3 not in parallel_partners(nudged, 0, 0.0).tolist()
        assert 3 in parallel_partners(nudged, 0, 1e-4).tolist()
