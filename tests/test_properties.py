"""Property-based invariants over random graphs, matrices and numbers."""

import math
import sys
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctqw import graphs as G
from ctqw.cli import _same_angles, parse_graph_spec, run_analysis
from ctqw.numtheory import RATIONAL_TOL, classify, lattice_step, ratio_condition, rationalize
from ctqw.spectral import decompose, pair_profile, strongly_cospectral_candidates
from ctqw.walks import (
    KIND_BALANCED,
    DetectionConfig,
    certify_pair,
    matrix_exp_oracle,
    scan_fr,
    transition_matrix,
)


@st.composite
def weighted_graphs(draw, min_order=2, max_order=8):
    n = draw(st.integers(min_order, max_order))
    bits = draw(st.lists(st.integers(0, 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    weights = draw(
        st.lists(
            st.floats(0.25, 2.0, allow_nan=False, allow_infinity=False),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    w = np.zeros((n, n))
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if bits[k]:
                w[i, j] = w[j, i] = weights[k]
            k += 1
    return G.WeightedGraph(w, tuple(str(i) for i in range(n)), f"hyp:{n}")


class TestWalkInvariants:
    @settings(max_examples=25, deadline=None)
    @given(weighted_graphs(), st.floats(0.05, 8.0))
    def test_unitary_and_symmetric(self, g, t):
        dec = decompose(g)
        u = transition_matrix(dec, t)
        assert np.abs(u @ u.conj().T - np.eye(g.order)).max() <= 1e-8
        assert np.abs(u - u.T).max() <= 1e-8

    @settings(max_examples=25, deadline=None)
    @given(weighted_graphs(), st.floats(0.05, 4.0), st.floats(0.05, 4.0))
    def test_group_law(self, g, s, t):
        dec = decompose(g)
        assert np.abs(
            transition_matrix(dec, s) @ transition_matrix(dec, t) - transition_matrix(dec, s + t)
        ).max() <= 1e-8

    @settings(max_examples=20, deadline=None)
    @given(weighted_graphs(), st.floats(0.1, 5.0))
    def test_oracle_equivalence(self, g, t):
        dec = decompose(g)
        assert np.abs(transition_matrix(dec, t) - matrix_exp_oracle(g, t)).max() <= 1e-9

    @settings(max_examples=15, deadline=None)
    @given(weighted_graphs(max_order=5), weighted_graphs(max_order=5), st.floats(0.1, 3.0))
    def test_box_product_factorizes(self, x, y, t):
        prod = G.cartesian_product(x, y)
        u = transition_matrix(decompose(prod), t)
        ux = transition_matrix(decompose(x), t)
        uy = transition_matrix(decompose(y), t)
        assert np.abs(u - np.kron(ux, uy)).max() <= 1e-8


class TestSpectralInvariants:
    @settings(max_examples=25, deadline=None)
    @given(weighted_graphs())
    def test_projector_identities(self, g):
        dec = decompose(g)
        n = g.order
        projs = np.stack([dec.projector(r) for r in range(dec.n_distinct)])
        assert np.abs(projs.sum(axis=0) - np.eye(n)).max() <= 1e-9
        recon = np.tensordot(dec.eigenvalues, projs, axes=(0, 0))
        assert np.abs(recon - g.weights).max() <= 1e-9
        for r in range(dec.n_distinct):
            er = projs[r]
            assert np.abs(er @ er - er).max() <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(weighted_graphs(min_order=3), st.data())
    def test_pair_profile_symmetry(self, g, data):
        a = data.draw(st.integers(0, g.order - 1))
        b = data.draw(st.integers(0, g.order - 1).filter(lambda v: v != a))
        dec = decompose(g)
        ab, ba = pair_profile(dec, a, b), pair_profile(dec, b, a)
        assert ab.parallel == ba.parallel
        assert ab.cospectral == ba.cospectral
        assert ab.strongly_cospectral == ba.strongly_cospectral
        assert ab.phi_plus == ba.phi_plus and ab.phi_minus == ba.phi_minus


class TestGraphInvariants:
    @settings(max_examples=30, deadline=None)
    @given(weighted_graphs())
    def test_constructors_symmetric(self, g):
        assert np.array_equal(g.weights, g.weights.T)

    @settings(max_examples=20, deadline=None)
    @given(weighted_graphs(max_order=6), weighted_graphs(max_order=6))
    def test_kronecker_sum_law(self, x, y):
        prod = G.cartesian_product(x, y)
        expected = np.kron(x.weights, np.eye(y.order)) + np.kron(np.eye(x.order), y.weights)
        assert np.array_equal(prod.weights, expected)

    @settings(max_examples=20, deadline=None)
    @given(weighted_graphs())
    def test_refinement_idempotent_and_equitable(self, g):
        part = G.coarsest_equitable_refinement(g, [list(range(g.order))])
        again = G.coarsest_equitable_refinement(g, [list(c) for c in part.cells])
        assert again.cells == part.cells
        defect, _ = G.equitability_defect(g, part.cells)
        assert defect <= G.TOL_EQ


#: smallest scale u at which ratio_condition must hold on the floats u x + v,
#: |x| <= 40, |v| <= 5: rounding u x + v moves a difference ratio (at most 1
#: in size, over a base of at least |u|) by about 4 eps (40 + 5/|u|), which
#: stays within RATIONAL_TOL from this u on
_AFFINE_SCALE_MIN = 5 / (RATIONAL_TOL / (4 * sys.float_info.epsilon) - 40)


class TestNumberInvariants:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(-10000, 10000), st.integers(1, 10000))
    def test_rationalize_roundtrip(self, p, q):
        r = rationalize(p / q)
        assert r is not None
        f = Fraction(p, q)
        assert (r.p, r.q) == (f.numerator, f.denominator)
        assert r.residual <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(-40, 40), min_size=2, max_size=6, unique=True),
        st.fractions(min_value=Fraction(-5), max_value=Fraction(5)).filter(lambda u: u != 0),
        st.fractions(min_value=Fraction(-5), max_value=Fraction(5)),
    )
    @example([0, 1, 5, 2], Fraction(134, 4312589825), Fraction(54, 11))
    @example([0, 2, 13], Fraction(1, 109627500), Fraction(15, 4))
    def test_ratio_condition_affine_invariance(self, ints, u, v):
        base = [float(i) for i in ints]
        mapped = [float(u) * x + float(v) for x in base]
        assert ratio_condition(base).holds
        # floats keep the rational ratios only while rounding does not move them past RATIONAL_TOL
        assert ratio_condition(mapped).holds or abs(u) < _AFFINE_SCALE_MIN

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.integers(-6, 6),
        st.integers(-6, 6),
        st.sets(st.integers(-5, 5), min_size=1, max_size=4),
        st.sets(st.integers(-5, 5), min_size=1, max_size=4),
    )
    def test_classify_reconstructs_planted_fields(self, delta, a_plus, a_minus, bs_plus, bs_minus):
        # classification presumes conjugation-closed parts, so plant b and -b
        # together; a singleton irrational in each part stays undetermined
        bs_plus = bs_plus | {-b for b in bs_plus}
        bs_minus = bs_minus | {-b for b in bs_minus}
        if len(bs_plus) < 2 and len(bs_minus) < 2 and (bs_plus != {0} or bs_minus != {0}):
            return
        # keep parity legal for quadratic integers: a and b must match mod 2
        a_p = a_plus * 2
        a_m = a_minus * 2
        plus = [(a_p + 2 * b * math.sqrt(delta)) / 2 for b in bs_plus]
        minus = [(a_m + 2 * b * math.sqrt(delta)) / 2 for b in bs_minus]
        cls = classify(plus, minus, lattice_step(plus, minus)[1])
        assert cls.delta == (1 if len(bs_plus) < 2 and len(bs_minus) < 2 else delta)
        sd = math.sqrt(cls.delta)
        for vals, a, bs in ((plus, cls.a_plus, cls.b_plus), (minus, cls.a_minus, cls.b_minus)):
            got = sorted((a + b * sd) / 2 for b in bs)
            assert np.allclose(sorted(vals), got, atol=1e-7)


class TestQuotientInvariant:
    @settings(max_examples=15, deadline=None)
    @given(weighted_graphs(min_order=3), st.floats(0.1, 4.0))
    def test_quotient_preserves_trivial_partition_walk(self, g, t):
        part = G.coarsest_equitable_refinement(g, [[v] for v in range(g.order)])
        q = G.quotient(g, part)
        uq = transition_matrix(decompose(q), t)
        ug = transition_matrix(decompose(g), t)
        assert np.abs(uq - ug).max() <= 1e-8


#: graphs with certificates from both the grid certifier and the scan
METAMORPHIC_SPECS = ("path:4", "cycle:6", "cube:3", "cocktail:4")


@lru_cache(maxsize=None)
def _scanned_analysis(spec):
    return run_analysis(parse_graph_spec(spec), do_scan=True)


def _events(report, perm):
    """Certificates as sorted (endpoints, kind, tau) in the labelling before perm.

    Endpoints are unordered, and a periodic certificate stands for its vertex
    and that vertex's strongly cospectral partners, since which end of a pair
    it names depends on the labelling. Entries that agree to 1e-9 in tau are
    merged, so each event counts once.
    """
    partners = defaultdict(set)
    for name in report.predicates:
        if name.startswith("pair("):
            a, b = (int(v) for v in name[5:-1].split(","))
            partners[a].add(b)
            partners[b].add(a)
    keys = []
    for c in report.payload()["certificates"]:
        a, b = c["a"], c["b"]
        ends = {a, b} if a != b else {a} | partners[a]
        keys.append((tuple(sorted(int(perm[v]) for v in ends)), c["kind"], c["tau"]))
    keys.sort()
    merged = []
    for k in keys:
        if not (merged and merged[-1][:2] == k[:2] and math.isclose(merged[-1][2], k[2], rel_tol=1e-9)):
            merged.append(k)
    return merged


def _assert_same_times(got, want, scale=1.0):
    """Same (endpoints, kind) in order, with each tau equal to scale times the wanted one to 1e-9."""
    assert [g[:-1] for g in got] == [w[:-1] for w in want]
    for g, w in zip(got, want):
        assert math.isclose(g[-1], scale * w[-1], rel_tol=1e-9)


def _certify(dec, a, b):
    return certify_pair(dec, pair_profile(dec, a, b))


def _assert_scaling_divides_certified_times(spec, c):
    g = parse_graph_spec(spec)
    dec, scaled = decompose(g), decompose(G.scale_weights(g, c))
    pairs = strongly_cospectral_candidates(dec)
    assert pairs
    for a, b in pairs:
        want = [(x.a, x.b, x.kind, x.tau) for x in _certify(dec, a, b).certificates]
        got = [(x.a, x.b, x.kind, x.tau) for x in _certify(scaled, a, b).certificates]
        assert want
        _assert_same_times(got, want, 1.0 / c)


class TestMetamorphic:
    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(METAMORPHIC_SPECS), st.data())
    def test_relabelling_permutes_certificates(self, spec, data):
        g = parse_graph_spec(spec)
        perm = data.draw(st.permutations(range(g.order)))  # new vertex i is old vertex perm[i]
        relabelled = G.WeightedGraph(g.weights[np.ix_(perm, perm)], tuple(g.labels[i] for i in perm), g.name)
        want = _events(_scanned_analysis(spec), range(g.order))
        assert want
        _assert_same_times(_events(run_analysis(relabelled, do_scan=True), perm), want)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(METAMORPHIC_SPECS), st.sampled_from((2, 3)))
    def test_scaling_divides_certified_times(self, spec, c):
        _assert_scaling_divides_certified_times(spec, c)

    @pytest.mark.parametrize("c", (0.5, 1.5, math.sqrt(3)))
    @pytest.mark.parametrize("spec", METAMORPHIC_SPECS)
    def test_non_integer_scaling_divides_certified_times(self, spec, c):
        # the lattice of eigenvalue differences scales with A, integral or not
        _assert_scaling_divides_certified_times(spec, c)

    @pytest.mark.parametrize(
        "spec", METAMORPHIC_SPECS + ("cycle:4", "cube:4", "prod(path:3,path:2)", "cone2:cycle:5", "prod(star:16,path:2)")
    )
    def test_integer_scaling_keeps_the_label_or_is_undecided(self, spec):
        # scaled by 10^3, g^2 passes the bound of lattice_step's integer test
        # on most of these graphs: a label may then be undecided, never false
        g = parse_graph_spec(spec)
        labels = [
            {k: v["classification"] for k, v in run_analysis(h).predicates.items() if k.startswith("pair(")}
            for h in (g, G.scale_weights(g, 1e3))
        ]
        assert labels[0] and labels[0].keys() == labels[1].keys()
        for pair, label in labels[1].items():
            assert label == labels[0][pair] or label.startswith("undecided: "), (pair, label, labels[0][pair])
        if spec in ("cube:3", "cycle:6"):  # integer eigenvalues, read all_integer unscaled
            assert all(label.startswith("undecided: ") and "5e+06" in label for label in labels[1].values())

    @pytest.mark.parametrize("c", (-0.75, 0.5, math.sqrt(2)))
    @pytest.mark.parametrize("spec", METAMORPHIC_SPECS)
    def test_shift_moves_only_zeta(self, spec, c):
        # U_{A + cI}(t) = e^{-ict} U_A(t): the same times and gamma, zeta - c tau
        g = parse_graph_spec(spec)
        dec = decompose(g)
        shifted = decompose(G.WeightedGraph(g.weights + c * np.eye(g.order), g.labels, g.name))
        for a, b in strongly_cospectral_candidates(dec):
            want = _certify(dec, a, b).certificates
            got = _certify(shifted, a, b).certificates
            assert want
            _assert_same_times([(x.a, x.b, x.kind, x.tau) for x in got], [(x.a, x.b, x.kind, x.tau) for x in want])
            for x, y in zip(got, want):
                assert (x.gamma is None) == (y.gamma is None)
                if y.gamma is not None:
                    assert _same_angles((x.gamma, x.zeta), (y.gamma, y.zeta - c * y.tau))

    @pytest.mark.parametrize("c", (0.5, math.sqrt(3)))
    def test_scaled_k2_balanced_at_pi_over_4c(self, c):
        (first, *_) = _certify(decompose(G.scale_weights(G.path(2), c)), 0, 1).certificates
        assert first.kind == KIND_BALANCED
        assert math.isclose(first.tau, math.pi / (4 * c), rel_tol=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(METAMORPHIC_SPECS), st.sampled_from((2, 3)), st.data())
    def test_scaling_divides_scan_times(self, spec, c, data):
        g = parse_graph_spec(spec)
        a = data.draw(st.integers(0, g.order - 1))
        cfg = DetectionConfig()
        want = [(x.b, x.kind, x.tau) for x in scan_fr(decompose(g), [a], None, cfg)]
        scaled = DetectionConfig(t_max=cfg.t_max / c)
        got = [(x.b, x.kind, x.tau) for x in scan_fr(decompose(G.scale_weights(g, c)), [a], None, scaled)]
        assert want
        _assert_same_times(got, want, 1.0 / c)

    def test_half_scaled_c6_certified(self):
        c6 = G.cycle(6)
        want = [(x.b, x.kind, x.tau) for x in _certify(decompose(c6), 0, 3).certificates]
        got = [(x.b, x.kind, x.tau) for x in _certify(decompose(G.scale_weights(c6, 0.5)), 0, 3).certificates]
        _assert_same_times(got, want, 2.0)
        entry = run_analysis(G.scale_weights(c6, 0.5), DetectionConfig()).predicates["pair(0,3)"]
        assert entry["classification"].startswith("no quadratic-integer description: ")

    def test_half_scaled_c6_revival_found_by_scan(self):
        certs = scan_fr(decompose(G.scale_weights(G.cycle(6), 0.5)), [0], 3, DetectionConfig(t_max=10.0))
        assert any(math.isclose(x.tau, 4 * math.pi / 3, rel_tol=1e-9) for x in certs)
