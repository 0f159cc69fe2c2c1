"""Walk evaluation, detection, certification, scans, and angle consequences."""

import functools
import gc
import hashlib
import itertools
import json
import logging
import math
import tracemalloc
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqw import cli as cli_mod
from ctqw import graphs as G
from ctqw import walks as walks_mod
from ctqw.cli import parse_graph_spec, run_analysis
from ctqw.numtheory import lattice_step
from ctqw.spectral import (
    TOL_SUPPORT,
    SpectralDecomposition,
    decompose,
    pair_profile,
    pair_profiles,
    parallel_pairs,
    strongly_cospectral_candidates,
)
from ctqw.walks import (
    KIND_BALANCED,
    KIND_FR,
    KIND_PERIODIC,
    KIND_PST,
    DetectionConfig,
    FrCertificate,
    NumericalHealthWarning,
    certify_pair,
    certify_pairs,
    check_gamma_consequences,
    check_periodic,
    check_symmetry,
    check_uniform_mixing,
    detect_at,
    matrix_exp_oracle,
    scan_fr,
    transition_column,
    transition_matrix,
    walk_columns,
)

CFG = DetectionConfig()


def _certify(dec, a, b):
    return certify_pair(dec, pair_profile(dec, a, b), CFG)


def weighted_p3(omega):
    w = np.array([[0.0, omega, 0.0], [omega, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return G.WeightedGraph(w, ("a", "m", "b"), f"p3w:{omega:g}")


class TestTransitionMatrix:
    def test_p2_closed_form(self):
        dec = decompose(G.path(2))
        for t in (0.3, 1.2, 2.5):
            u = transition_matrix(dec, t)
            expected = np.array(
                [[math.cos(t), -1j * math.sin(t)], [-1j * math.sin(t), math.cos(t)]]
            )
            assert np.abs(u - expected).max() <= 1e-12

    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0, math.sqrt(2) - 1])
    def test_weighted_p3_closed_form(self, omega):
        dec = decompose(weighted_p3(omega))
        tau = math.pi / math.sqrt(omega**2 + 1)
        s = omega**2 + 1
        expected = np.array(
            [[1 - omega**2, 0, -2 * omega], [0, -s, 0], [-2 * omega, 0, omega**2 - 1]]
        ) / s
        assert np.abs(transition_matrix(dec, tau) - expected).max() <= 1e-9

    def test_unitary_and_symmetric(self):
        dec = decompose(G.cocktail_party(3))
        for t in (0.7, 2.9):
            u = transition_matrix(dec, t)
            assert np.abs(u @ u.conj().T - np.eye(6)).max() <= 1e-9
            assert np.abs(u - u.T).max() <= 1e-9

    def test_group_law(self):
        dec = decompose(G.path(5))
        s, t = 0.83, 1.91
        us, ut, ust = (transition_matrix(dec, x) for x in (s, t, s + t))
        assert np.abs(us @ ut - ust).max() <= 1e-9


def _column_route(dec, a, t):
    """U(t) e_a from column a of each projector E_r = V_r V_r^T, formed as
    decompose used to store them: the reference for the basis products."""
    projs, start = [], 0
    for k in dec.multiplicities:
        v = dec.vectors[:, start : start + k]
        projs.append((v @ v.T + (v @ v.T).T) / 2.0)
        start += k
    return np.exp(-1j * t * dec.eigenvalues) @ np.stack(projs)[:, :, a]


class TestWalkColumns:
    """transition_column and walk_columns take one product route, bit for bit;
    the column route over the projectors is the reference, to 1e-13."""

    @pytest.mark.parametrize(
        "spec",
        [
            "cycle:6", "cube:4", "cube:5", "cocktail:20", "cone2:cocktail:10", "cycle:64",
            "prod(star:16,path:2)", "path:4", "path:5", "cycle:32", "cone2:cycle:5",
        ],
    )
    def test_equal_column_route_bit_for_bit(self, spec):
        dec = decompose(parse_graph_spec(spec))
        rng = np.random.default_rng(11)
        times = np.concatenate([rng.uniform(0.0, 50.0, 12), walks_mod.QUOTIENT_TIMES[::40]])
        for a in range(dec.order):
            cols = walk_columns(dec, a, times)
            assert cols.shape == (len(times), dec.order)
            for t, col in zip(times.tolist(), cols):
                assert np.array_equal(transition_column(dec, a, t), col), (a, t)
                assert np.abs(col - _column_route(dec, a, t)).max() <= 1e-13, (a, t)


@pytest.mark.parametrize("spec", ["cycle:6", "cube:4", "cocktail:20", "prod(star:16,path:2)", "path:5"])
def test_transition_matrix_stack_bit_for_bit(spec):
    # each slice of the stack is the walk at its time alone, and column a of
    # a walk is transition_column's
    dec = decompose(parse_graph_spec(spec))
    times = np.random.default_rng(3).uniform(0.0, 10.0, 10)
    stack = transition_matrix(dec, times)
    assert stack.shape == (10, dec.order, dec.order)
    for t, u in zip(times.tolist(), stack):
        assert np.array_equal(u, transition_matrix(dec, t)), t
        assert np.abs(u[:, 0] - transition_column(dec, 0, t)).max() <= 1e-13


def _horner_oracle(a, t):
    """The oracle as it was before the Paterson-Stockmeyer form: the same
    degree-19 Taylor polynomial and scaling, as 19 complex Horner steps."""
    m = a.weights if isinstance(a, G.WeightedGraph) else np.asarray(a, dtype=float)
    big = -1j * t * m
    nrm = float(np.linalg.norm(big, np.inf))
    if not math.isfinite(nrm):
        raise ValueError("t * A must be finite")
    s = 0 if nrm <= 0.5 else int(math.ceil(math.log2(nrm / 0.5)))
    small = big / (2.0**s)
    n = m.shape[0]
    eye = np.eye(n, dtype=complex)
    out = eye.copy()
    for k in range(19, 0, -1):
        out = eye + (small / k) @ out
    for _ in range(s):
        out = out @ out
    return out


@st.composite
def weighted_graphs(draw, max_order=8):
    """Symmetric matrices with signed edge weights and diagonal potentials."""
    n = draw(st.integers(1, max_order))
    magnitudes = st.floats(0.25, 2.0, allow_nan=False, allow_infinity=False)
    weight = st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda x: -x))
    w = np.zeros((n, n))
    for i in range(n):
        w[i, i] = draw(st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False))
        for j in range(i + 1, n):
            w[i, j] = w[j, i] = draw(weight)
    return G.WeightedGraph(w, tuple(str(i) for i in range(n)), f"hyp:{n}")


class TestOracle:
    def test_zero_time_is_identity(self):
        assert np.abs(matrix_exp_oracle(G.cycle(5), 0.0) - np.eye(5)).max() == 0.0

    @settings(max_examples=60, deadline=None)
    @given(weighted_graphs(), st.one_of(st.floats(0.0, 1e3), st.floats(1e3, walks_mod.MAX_PHASE)))
    def test_equals_the_horner_form(self, g, phase):
        norm = float(np.abs(g.weights).sum(axis=1).max())
        t = phase / norm if norm > 0 else phase
        if not math.isfinite(t):
            # a subnormal ||A|| overflows the time: the oracle rejects it
            with pytest.raises(ValueError):
                matrix_exp_oracle(g, t)
            return
        bound = 1e-12 if phase <= 1e3 else 1e-10
        assert np.abs(matrix_exp_oracle(g, t) - _horner_oracle(g, t)).max() <= bound

    def test_calls_no_eigensolver(self, monkeypatch):
        g = G.cycle(6)
        walk = transition_matrix(decompose(g), 4.1)

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called an eigensolver")

        for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert np.abs(matrix_exp_oracle(g, 4.1) - walk).max() < 1e-10

    def test_peak_memory_on_cube7(self):
        g = G.hypercube(7)
        n = g.order
        matrix_exp_oracle(g, 1.6)
        tracemalloc.start()
        try:
            matrix_exp_oracle(g, 1.6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 16 * n * n, peak

    @pytest.mark.parametrize("n", [1, 2, 5, 24, 40])
    def test_stack_equals_each_time_alone(self, n):
        rng = np.random.default_rng(n)
        w = rng.uniform(-1.0, 1.0, (n, n))
        w = w + w.T
        norm = float(np.abs(w).sum(axis=1).max())
        # phases |t| ||A|| from 0 to 2^13: s from 0 to 14, mixed within a stack
        phases = np.concatenate([[0.0, 0.2, 0.5, 0.7, 2.0**13], 2.0 ** rng.uniform(-1.0, 13.0, 11)])
        times = rng.permutation(phases) / norm * rng.choice([-1.0, 1.0], len(phases))
        s = [0 if p <= 0.5 else math.ceil(math.log2(p / 0.5)) for p in phases]
        assert min(s) == 0 and max(s) >= 12
        stack = matrix_exp_oracle(w, times)
        assert stack.shape == (len(times), n, n)
        for t, u in zip(times.tolist(), stack):
            assert np.array_equal(u, matrix_exp_oracle(w, t)), t

    @pytest.mark.parametrize("n", [2, 24, 49, 128])
    def test_stacks_fit_the_byte_budget(self, monkeypatch, n):
        # at 56 n^2 bytes of working set per time; an order above 48 runs
        # every time alone
        sizes = []
        kernel = walks_mod._taylor_exp

        def recording(m, ts):
            sizes.append(len(ts))
            return kernel(m, ts)

        monkeypatch.setattr(walks_mod, "_taylor_exp", recording)
        matrix_exp_oracle(G.cycle(n), np.linspace(0.1, 5.0, 30))
        per_stack = max(1, walks_mod._STACK_BYTES // (56 * n * n))
        assert sum(sizes) == 30 and max(sizes) == min(per_stack, 30)
        assert (per_stack == 1) == (n > 48)

    def test_stack_peak_memory(self):
        # the (T, n, n) result and one stack's working set, with room for
        # numpy's small temporaries
        g = G.cycle(24)
        times = np.linspace(0.1, 50.0, 40)
        matrix_exp_oracle(g, times)
        tracemalloc.start()
        try:
            matrix_exp_oracle(g, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 16 * 24 * 24 + 1.1 * walks_mod._STACK_BYTES, peak

    def test_rejects_times_of_two_dimensions(self):
        with pytest.raises(ValueError, match="1-D"):
            matrix_exp_oracle(G.cycle(4), np.ones((2, 2)))

    def test_matches_spectral_on_c6(self):
        g = G.cycle(6)
        dec = decompose(g)
        tau = 2 * math.pi / 3
        assert np.abs(transition_matrix(dec, tau) - matrix_exp_oracle(g, tau)).max() < 1e-10

    def test_unitarity_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            w = rng.uniform(0, 1, size=(20, 20))
            w = np.triu(w, 1)
            w = w + w.T
            u = matrix_exp_oracle(w, rng.uniform(0.1, 5.0))
            assert np.abs(u.conj().T @ u - np.eye(20)).max() < 1e-10


class TestDetect:
    def test_c6_revival(self):
        dec = decompose(G.cycle(6))
        cert = detect_at(dec, 0, 2 * math.pi / 3, CFG)
        assert cert is not None and cert.kind == KIND_FR and cert.b == 3
        assert cert.alpha == pytest.approx(-0.5, abs=1e-9)
        assert cert.beta == pytest.approx(1j * math.sqrt(3) / 2, abs=1e-9)
        assert cert.residual <= CFG.tol_walk

    def test_c4_transfer(self):
        dec = decompose(G.cycle(4))
        cert = detect_at(dec, 0, math.pi / 2, CFG)
        assert cert.kind == KIND_PST and cert.b == 2
        assert abs(cert.beta + 1.0) <= 1e-9

    def test_p4_revival(self):
        dec = decompose(G.path(4))
        cert = detect_at(dec, 0, 2 * math.pi / math.sqrt(5), CFG)
        assert cert.kind == KIND_FR and cert.b == 3
        assert cert.alpha == pytest.approx(-math.cos(math.pi / math.sqrt(5)), abs=1e-9)
        assert cert.beta == pytest.approx(1j * math.sin(math.pi / math.sqrt(5)), abs=1e-9)

    def test_star16_bunkbed_balanced(self):
        prod = G.cartesian_product(G.star(16), G.path(2))
        dec = decompose(prod)
        cert = detect_at(dec, 0, math.pi / 4, CFG)
        assert cert.kind == KIND_BALANCED and cert.b == 1
        assert abs(cert.alpha) == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_p2_revival_off_the_lattice(self):
        dec = decompose(G.path(2))
        for tau in (0.3, 1.0, 2.0):
            cert = detect_at(dec, 0, tau, CFG)
            assert cert is not None and cert.kind in (KIND_FR, KIND_BALANCED)
        periodic = detect_at(dec, 0, math.pi, CFG)
        assert periodic.kind == KIND_PERIODIC and periodic.b == 0

    def test_ambiguous_spread_returns_nothing(self):
        dec = decompose(G.hypercube(2))
        assert detect_at(dec, 0, math.pi / 4, CFG) is None  # flat row, four vertices

    def test_ambiguous_column_logs_its_two_largest_vertices(self, caplog):
        dec = decompose(parse_graph_spec("cube:3"))
        with caplog.at_level(logging.DEBUG, logger="ctqw.walks"):
            assert detect_at(dec, 0, math.pi / 4, CFG) is None
        (record,) = [r for r in caplog.records if r.name == "ctqw.walks"]
        *_, vertices, values = record.args
        assert record.getMessage() == (
            f"ambiguous concentration at tau=0.7853981633974483 from 0: vertices {vertices} carry {values}"
        )
        assert len(set(vertices)) == 2 and 0 not in vertices
        off = np.abs(transition_column(dec, 0, math.pi / 4))
        off[0] = 0.0
        # the two values part in the last bit, so their order is not asserted
        assert sorted(values) == pytest.approx(np.sort(off)[-2:].tolist(), abs=1e-12)
        assert values == pytest.approx(off[vertices].tolist(), abs=1e-12)

    def test_gamma_zeta_when_cospectral_form(self):
        dec = decompose(G.cycle(6))
        cert = detect_at(dec, 0, 2 * math.pi / 3, CFG)
        assert cert.gamma is not None
        alpha = np.exp(1j * cert.zeta) * math.cos(cert.gamma)
        beta = 1j * np.exp(1j * cert.zeta) * math.sin(cert.gamma)
        assert alpha == pytest.approx(cert.alpha, abs=1e-9)
        assert beta == pytest.approx(cert.beta, abs=1e-9)
        assert -math.pi / 2 < cert.gamma <= math.pi / 2

    def test_no_gamma_without_cospectral_form(self):
        g = weighted_p3(2.0)
        dec = decompose(g)
        cert = detect_at(dec, 0, math.pi / math.sqrt(5), CFG)
        assert cert is not None and cert.gamma is None

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            detect_at(decompose(G.path(2)), 0, 0.0, CFG)


class TestCertify:
    def test_c6_grid(self):
        dec = decompose(G.cycle(6))
        pc = _certify(dec, 0, 3)
        kinds = [c.kind for c in pc.certificates]
        assert kinds == [KIND_FR, KIND_FR, KIND_PERIODIC]
        assert pc.certificates[0].tau == pytest.approx(2 * math.pi / 3, rel=1e-12)
        assert pc.certificates[0].method == "equiv_cond_solve"

    def test_p3_transfer_from_grid(self):
        dec = decompose(G.path(3))
        pc = _certify(dec, 0, 2)
        assert pc.certificates[0].kind == KIND_PST
        assert pc.certificates[0].tau == pytest.approx(math.pi / math.sqrt(2), rel=1e-12)

    def test_p2_fallback_times(self):
        dec = decompose(G.path(2))
        pc = _certify(dec, 0, 1)
        kinds_taus = [(c.kind, c.tau) for c in pc.certificates]
        assert kinds_taus[0][0] == KIND_BALANCED
        assert kinds_taus[0][1] == pytest.approx(math.pi / 4, rel=1e-12)
        assert kinds_taus[1][0] == KIND_PST

    def test_cocktail_parties(self):
        pc3 = _certify(decompose(G.cocktail_party(3)), 0, 1)
        kinds3 = {c.kind for c in pc3.certificates}
        assert KIND_FR in kinds3 and KIND_PST not in kinds3
        pc4 = _certify(decompose(G.cocktail_party(4)), 0, 1)
        taus = {}
        for c in pc4.certificates:
            taus.setdefault(c.kind, c.tau)
        assert taus[KIND_BALANCED] == pytest.approx(math.pi / 4, rel=1e-12)
        assert taus[KIND_PST] == pytest.approx(math.pi / 2, rel=1e-12)

    def test_requires_strong_cospectrality(self):
        dec = decompose(weighted_p3(2.0))
        prof = pair_profile(dec, 0, 2)
        pc = certify_pair(dec, prof, CFG)
        assert (pc.has_lattice, pc.certificates, pc.failure) == (False, (), "not strongly cospectral")

    def test_unclassifiable_pairs_produce_nothing(self):
        for n in (5, 6, 8):
            dec = decompose(G.path(n))
            pc = _certify(dec, 0, n - 1)
            assert pc.classification is None
            assert pc.certificates == ()
            assert pc.failure is not None

    def test_double_cone_time(self):
        y = G.cycle(5)
        x = G.double_cone(y)
        dec = decompose(x)
        pc = _certify(dec, 0, x.order - 1)
        tau = 2 * math.pi / math.sqrt(2 * 2 + 8 * 5)
        fr = [c for c in pc.certificates if c.kind != KIND_PERIODIC][0]
        assert fr.tau == pytest.approx(tau, rel=1e-12)

    def test_grid_of_cube7_stays_small(self):
        # ||A|| is the decomposition's: no (n, n) copy of |A| (0.13 MB) per
        # call. The oracle window holds the last time alone, so the walk again
        # forms its first exponential anew, one working set of 56 n^2 bytes
        # (0.92 MB) at a time, with the old exponential dropped first
        dec = decompose(G.hypercube(7))
        prof = pair_profile(dec, 0, 127)
        pc = certify_pair(dec, prof, CFG)
        assert pc.certificates
        tracemalloc.start()
        try:
            again = certify_pair(dec, prof, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.certificates == pc.certificates
        assert peak < 56 * 128**2 + 0.05e6, peak


class TestLatticeGrid:
    def test_step_equals_the_quadratic_integer_grid(self):
        # tau_step and delta per strongly cospectral pair, as the grid built from
        # integer gcds of (theta_r - theta_s) / sqrt(delta) gave them
        recorded = json.loads((Path(__file__).parent / "data" / "lattice_steps.json").read_text())
        assert sum(map(len, recorded.values())) == 194
        for spec, rows in recorded.items():
            dec = decompose(parse_graph_spec(spec))
            for a, b, step, delta in rows:
                pc = _certify(dec, a, b)
                assert (pc.tau_step, pc.classification.delta) == (step, delta), (spec, a, b)

    def test_grid_stops_at_the_phase_bound(self):
        g = G.path(4)
        dec = decompose(G.WeightedGraph(g.weights + 1e4 * np.eye(4), g.labels, "path:4+1e4"))
        pc = _certify(dec, 0, 3)
        limit = walks_mod.MAX_PHASE / dec.norm
        assert pc.tau_step == pytest.approx(2 * math.pi / math.sqrt(5))
        assert len(pc.certificates) == int(limit / pc.tau_step)
        assert pc.certificates[-1].tau <= limit

    def test_lattice_times_equal_the_grid_at_the_phase_bound(self):
        # the grid as k * tau_step for k <= CERTIFY_GRID_K with tau ||A|| <=
        # MAX_PHASE, bit for bit, on norms within a few ulps of the bound at
        # some k, where a time may round onto the bound
        rng = np.random.default_rng(24)
        big_k, limit = walks_mod.CERTIFY_GRID_K, walks_mod.MAX_PHASE
        for step, k, ulps in zip(rng.uniform(1e-3, 1e3, 20000), rng.integers(1, big_k + 2, 20000),
                                 rng.integers(-4, 5, 20000)):
            step = float(step)
            norm = limit / (int(k) * step) * (1 + int(ulps) * 2.0**-52)
            want = [tau for tau in (j * step for j in range(1, big_k + 1)) if tau * norm <= limit]
            chunks = walks_mod._lattice_times(types.SimpleNamespace(norm=norm), step, 0.0, big_k * step)
            got = [tau for taus in chunks for tau in taus.tolist()]
            assert [x.hex() for x in got] == [x.hex() for x in want], (step, norm)

    def test_lattice_times_without_a_step_are_the_gap_times(self):
        dec = types.SimpleNamespace(norm=2.0)
        gap = 0.7
        gap_times = [math.pi / (2 * gap), math.pi / gap, 2 * math.pi / gap]
        got = [taus.tolist() for taus in walks_mod._lattice_times(dec, None, gap, math.inf)]
        assert got == [gap_times]
        got = [taus.tolist() for taus in walks_mod._lattice_times(dec, None, gap, gap_times[1])]
        assert got == [gap_times[:2]]


class TestScan:
    def test_weighted_p3_balanced_revival(self):
        omega = math.sqrt(2) - 1
        dec = decompose(weighted_p3(omega))
        certs = scan_fr(dec, [0], 2, CFG)
        assert certs, "expected at least one revival"
        tau = math.pi / math.sqrt(omega**2 + 1)
        assert certs[0].tau == pytest.approx(tau, abs=1e-6)
        assert abs(abs(certs[0].alpha) - abs(certs[0].beta)) <= 1e-9

    def test_p5_scan_empty(self):
        dec = decompose(G.path(5))
        cfg = DetectionConfig(t_max=100.0)
        for a in range(5):
            assert scan_fr(dec, [a], None, cfg) == []

    def test_c4_scan_finds_transfer(self):
        dec = decompose(G.cycle(4))
        certs = scan_fr(dec, [0], 2, DetectionConfig(t_max=10.0))
        assert any(c.kind == KIND_PST and c.tau == pytest.approx(math.pi / 2, abs=1e-6) for c in certs)

    def test_target_equal_to_source_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            scan_fr(decompose(G.cycle(6)), [3], 3, CFG)

    def test_two_singleton_classes_give_the_gap_times(self):
        # every time revives on K2 c; the scan reports the balanced and the transfer time
        c = math.sqrt(3)
        certs = scan_fr(decompose(G.scale_weights(G.path(2), c)), [0, 1], None, CFG)
        got = [(x.a, x.b, x.kind) for x in certs]
        assert got == [(0, 1, KIND_BALANCED), (0, 1, KIND_PST), (1, 0, KIND_BALANCED), (1, 0, KIND_PST)]
        for x, tau in zip(certs, [math.pi / (4 * c), math.pi / (2 * c)] * 2):
            assert math.isclose(x.tau, tau, rel_tol=1e-12)

    @pytest.mark.parametrize("sources", [[7], [7, 150], range(300)], ids=["one", "two", "all"])
    def test_screen_forms_the_rows_of_its_sources(self, monkeypatch, sources):
        # a scan from a few sources builds their rows of the parallel mask,
        # never the (n, n) mask, and reads the same partners
        dec = decompose(G.cycle(300))
        masks = []

        def recording(dec, slack, rows=None):
            masks.append(parallel_pairs(dec, slack, rows))
            return masks[-1]

        monkeypatch.setattr(walks_mod, "parallel_pairs", recording)
        assert scan_fr(dec, sources, None, CFG) == []
        assert [m.shape for m in masks] == [(len(sources), 300)]
        assert np.array_equal(masks[0], parallel_pairs(dec, _scan_slack())[list(sources)])

    def test_scan_of_cycle600_stays_small(self):
        # ||A|| is the decomposition's: no (n, n) copy of |A| (2.9 MB) per call
        dec = decompose(G.cycle(600))
        scan_fr(dec, [0], None, CFG)
        tracemalloc.start()
        try:
            scan_fr(dec, [0], None, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6, peak

    @pytest.mark.parametrize(
        "spec, a, b",
        [("cycle:6", 0, 3), ("cocktail:4", 0, 1), ("path:4", 0, 3), ("cube:3", 0, 7), ("prod(star:16,path:2)", 0, 1)],
    )
    def test_horizon_at_a_solved_time_keeps_it(self, spec, a, b):
        # with t_max set to each of its first 300 times, the solver ends at
        # that time: t_max / tau_step may round below the k of the time
        dec = decompose(parse_graph_spec(spec))
        wide = DetectionConfig(t_max=walks_mod.MAX_PHASE)
        times = list(itertools.islice(walks_mod._revival_times(dec, a, b, wide), 300))
        assert len(times) == 300
        for i, tau in enumerate(times):
            assert list(walks_mod._revival_times(dec, a, b, DetectionConfig(t_max=tau))) == times[: i + 1]

    def test_partner_outside_the_support_has_no_times(self):
        # the parallel screen passes 0 for source 2, where every (E_r)_22 outside
        # the support is 0, but E_r e_0 reaches eigenvalues that e_2 does not
        dec = decompose(G.path(5))
        assert parallel_pairs(dec, _scan_slack())[2, 0]
        assert list(walks_mod._revival_times(dec, 2, 0, CFG)) == []

    def test_periodic_lattice_points_are_not_detected(self, monkeypatch):
        dec = decompose(G.hypercube(5))
        calls = _count_detections(monkeypatch)
        certs = scan_fr(dec, range(dec.order), None, CFG)
        assert len(certs) == len(calls) == 512

    def test_event_cap_keeps_the_earliest(self, monkeypatch):
        dec = decompose(G.cocktail_party(4))
        full = [scan_fr(dec, [a], None, CFG) for a in range(8)]
        assert all(len(certs) > 3 for certs in full)
        monkeypatch.setattr(walks_mod, "_SCAN_MAX_EVENTS", 3)
        assert scan_fr(dec, range(8), None, CFG) == [c for certs in full for c in certs[:3]]


def _count_detections(monkeypatch):
    """Record every time the scan judges, a block at a time."""
    calls = []
    judge = walks_mod._judge

    def counting(dec_, a, taus, *args):
        calls.extend(taus)
        return judge(dec_, a, taus, *args)

    monkeypatch.setattr(walks_mod, "_judge", counting)
    return calls


def _offpair_mass_scalar(dec, a, b, t):
    """Off-pair mass from a at one time, paired with b."""
    col = walks_mod.transition_column(dec, a, t)
    p = np.abs(col) ** 2
    p[a] = 0.0
    p[b] = 0.0
    return math.sqrt(float(p.sum()))


def _golden_min_scalar(f, lo, hi, iters):
    """Golden section over one bracket."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = f(x2)
    return (lo + hi) / 2.0


#: the numeric reference scan: points of its time grid, the off-pair mass below
#: which a local minimum is refined, golden-section iterations, minima kept per source
_REF_GRID = 20000
_REF_CUT = 0.2
_REF_ITERS = 60
_REF_MAX_MINIMA = 512


def _numeric_scan(dec, sources, b=None, cfg=CFG, grid=_REF_GRID):
    """The numeric scan the exact solver replaced, on all n rows: the reference.

    From each source a, the off-pair mass f(t) = sqrt(1 - pa - pb) on a time
    grid over (0, t_max], pairing a with b or with the heaviest other vertex;
    the _REF_MAX_MINIMA lowest local minima below _REF_CUT, each golden-section
    refined over its two grid cells; and detect_at on the refined times,
    dropping periodic events and, with b given, events at another vertex.
    """
    ts = np.linspace(0.0, cfg.t_max, grid + 1)[1:]
    phases = np.exp(np.multiply.outer(-1j * dec.eigenvalues, ts))
    inner = np.arange(1, len(ts) - 1)
    certs = []
    for a in sources:
        rows = np.stack([dec.projector(r)[a] for r in range(dec.n_distinct)])
        p = np.abs(rows.T @ phases) ** 2
        totals, pa = p.sum(axis=0), p[a].copy()
        p[a] = 0.0
        f = np.sqrt(np.maximum(0.0, totals - pa - (p[b] if b is not None else p.max(axis=0))))
        minima = inner[(f[inner] <= f[inner - 1]) & (f[inner] <= f[inner + 1]) & (f[inner] < _REF_CUT)]
        minima = np.sort(minima[np.argsort(f[minima], kind="stable")[:_REF_MAX_MINIMA]])
        found = []
        for i in minima.tolist():
            pb = b if b is not None else int(p[:, i].argmax())
            tau = _golden_min_scalar(lambda t: _offpair_mass_scalar(dec, a, pb, t), ts[i - 1], ts[i + 1], _REF_ITERS)
            cert = detect_at(dec, a, tau, cfg)
            if cert is not None and cert.kind != KIND_PERIODIC and (b is None or cert.b == b):
                found.append(cert)
        certs += sorted(found, key=lambda c: c.tau)
    return certs


def _assert_same_events(got, want):
    """Equal (a, b, kind) lists, each tau within 1e-9."""
    assert [(c.a, c.b, c.kind) for c in got] == [(c.a, c.b, c.kind) for c in want]
    assert all(abs(x.tau - y.tau) <= 1e-9 for x, y in zip(got, want))


def _scan_slack(cfg=CFG):
    return (cfg.tol_walk / cfg.beta_min) ** 2


@st.composite
def _relabelled_scan_graphs(draw):
    """A family graph or a random graph with weights from a small set, randomly relabelled."""
    if draw(st.booleans()):
        g = parse_graph_spec(draw(st.sampled_from(["cycle:6", "cube:3", "cocktail:4", "path:4", "cone2:cycle:5"])))
    else:
        n = draw(st.integers(3, 7))
        m = n * (n - 1) // 2
        entries = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]), min_size=m, max_size=m))
        w = np.zeros((n, n))
        w[np.triu_indices(n, 1)] = entries
        g = G.WeightedGraph(w + w.T, tuple(str(i) for i in range(n)), f"hyp:{n}")
    perm = draw(st.permutations(range(g.order)))
    return G.WeightedGraph(g.weights[np.ix_(perm, perm)], tuple(g.labels[i] for i in perm), g.name)


#: with path:4, cycle:6, cube:3, cocktail:4 and prod(path:3,path:2) in
#: test_certificates_equal_full_row_reference, the ladder on which the solver
#: must return the reference's certificates from every source
LADDER = [
    "path:5", "path:48", "cycle:12", "cycle:32", "cube:5", "cocktail:20", "cone2:cocktail:10", "cone2:cycle:5",
    "prod(star:16,path:2)", "star:5", "complete:5",
]


class TestParallelScan:
    @pytest.mark.parametrize(
        "graph, b",
        [
            (parse_graph_spec("path:4"), None),
            (G.cycle(6), None),
            (G.hypercube(3), None),
            (G.cocktail_party(4), None),
            (parse_graph_spec("prod(path:3,path:2)"), None),
            (weighted_p3(math.sqrt(2) - 1), None),
            (weighted_p3(math.sqrt(2) - 1), 2),
            (G.cycle(4), 2),
            (G.scale_weights(G.cycle(6), 0.5), None),
            (weighted_p3(0.5), 2),
            (weighted_p3(1.0), 2),
            (weighted_p3(1.0), 0),
            (G.scale_weights(G.cycle(6), 0.5), 3),
        ],
    )
    def test_certificates_equal_full_row_reference(self, graph, b):
        dec = decompose(graph)
        sources = [a for a in range(dec.order) if a != b]
        found = []
        for a in sources:
            certs = scan_fr(dec, [a], b, CFG)
            _assert_same_events(certs, _numeric_scan(dec, [a], b))
            found += certs
        assert found
        assert scan_fr(dec, sources, b, CFG) == found

    @pytest.mark.parametrize("spec", LADDER)
    def test_ladder_equals_numeric_reference(self, spec):
        dec = decompose(parse_graph_spec(spec))
        _assert_same_events(scan_fr(dec, range(dec.order), None, CFG), _numeric_scan(dec, range(dec.order)))

    @settings(max_examples=20, deadline=None)
    @given(_relabelled_scan_graphs())
    def test_full_row_partners_are_parallel(self, g):
        cfg = DetectionConfig(t_max=20.0)
        dec = decompose(g)
        mask = parallel_pairs(dec, _scan_slack(cfg))
        for a in range(dec.order):
            assert all(mask[a, c.b] for c in _numeric_scan(dec, [a], None, cfg, grid=4000))

    @settings(max_examples=20, deadline=None)
    @given(_relabelled_scan_graphs())
    def test_solver_returns_every_reference_certificate(self, g):
        cfg = DetectionConfig(t_max=20.0)
        dec = decompose(g)
        for a in range(dec.order):
            if np.count_nonzero(np.sqrt(dec.diagonals[:, a]) > TOL_SUPPORT) == 2:
                # every time revives on a two-level support (K2 c), and the
                # reference returns arbitrary ones; the solver takes the gap times
                continue
            got = scan_fr(dec, [a], None, cfg)
            for ref in _numeric_scan(dec, [a], None, cfg, grid=4000):
                assert any((c.b, c.kind) == (ref.b, ref.kind) and abs(c.tau - ref.tau) <= 1e-9 for c in got), ref

    @pytest.mark.parametrize("graph, a, b", [(G.cycle(6), 0, 1), (G.cycle(7), 0, 3), (G.hypercube(3), 0, 3)])
    def test_target_outside_partners_needs_no_grid(self, monkeypatch, graph, a, b):
        dec = decompose(graph)
        assert not parallel_pairs(dec, _scan_slack())[a, b]
        calls = _count_detections(monkeypatch)
        assert scan_fr(dec, [a], b, CFG) == []
        assert calls == []

    def test_source_without_partners_needs_no_grid(self, monkeypatch):
        dec = decompose(G.cycle(7))
        calls = _count_detections(monkeypatch)
        assert scan_fr(dec, range(7), None, CFG) == []
        assert calls == []


class TestChecks:
    def test_symmetry_on_c6(self):
        dec = decompose(G.cycle(6))
        cert = detect_at(dec, 0, 2 * math.pi / 3, CFG)
        assert check_symmetry(cert, dec, CFG)

    def test_symmetry_weighted_p3_corner_identity(self):
        omega = 2.0
        g = weighted_p3(omega)
        dec = decompose(g)
        tau = math.pi / math.sqrt(omega**2 + 1)
        cert = detect_at(dec, 0, tau, CFG)
        assert check_symmetry(cert, dec, CFG)
        u = transition_matrix(dec, tau)
        assert u[2, 2] == pytest.approx(-cert.alpha, abs=1e-9)

    def test_transfer_reverse_is_transfer(self):
        dec = decompose(G.cycle(4))
        cert = detect_at(dec, 0, math.pi / 2, CFG)
        assert check_symmetry(cert, dec, CFG)
        rev = detect_at(dec, 2, math.pi / 2, CFG)
        assert rev.kind == KIND_PST and rev.b == 0

    def test_star_center_periodicity(self):
        for n in (4, 9, 16):
            dec = decompose(G.star(n))
            assert check_periodic(dec, 0, math.pi / math.sqrt(n), CFG)

    def test_hypercube_uniform_mixing(self):
        for d in (1, 2, 3):
            dec = decompose(G.hypercube(d))
            assert check_uniform_mixing(dec, math.pi / 4, CFG)
        assert not check_uniform_mixing(decompose(G.path(3)), 0.4, CFG)

    def test_global_phase_periodicity(self):
        dec = decompose(G.cycle(4))
        for a in range(4):
            assert check_periodic(dec, a, math.pi, CFG)  # U(pi) = I on C4


class TestGammaConsequences:
    def test_c6_rational_gamma(self):
        dec = decompose(G.cycle(6))
        cert = detect_at(dec, 0, 2 * math.pi / 3, CFG)
        rep = check_gamma_consequences(cert, dec, CFG)
        assert rep["verdict"] == "rational"
        assert (abs(rep["p"]), rep["q"]) == (1, 3)
        assert rep["periodic_ok"]
        assert "pst_time" not in rep  # q odd: no transfer claim

    def test_balanced_bunkbed_transfer_at_2tau(self):
        prod = G.cartesian_product(G.star(16), G.path(2))
        dec = decompose(prod)
        cert = detect_at(dec, 0, math.pi / 4, CFG)
        rep = check_gamma_consequences(cert, dec, CFG)
        assert rep["verdict"] == "rational" and rep["q"] == 4
        assert rep["balanced_case"]
        assert rep["periodic_ok"] and rep["pst_ok"]
        assert rep["pst_time"] == pytest.approx(math.pi / 2)

    def test_p4_irrational_gamma_gives_high_fidelity(self):
        dec = decompose(G.path(4))
        cert = detect_at(dec, 0, 2 * math.pi / math.sqrt(5), CFG)
        rep = check_gamma_consequences(cert, dec, CFG)
        assert rep["verdict"] == "not_rational_bounded"
        assert rep["pgst_max_fidelity"] > 0.99
        assert rep["pgst_at_time"] <= 1e4

    def test_requires_gamma(self):
        g = weighted_p3(2.0)
        dec = decompose(g)
        cert = detect_at(dec, 0, math.pi / math.sqrt(5), CFG)
        with pytest.raises(ValueError):
            check_gamma_consequences(cert, dec, CFG)


def _all_pair_certificates(dec):
    profiles = [pair_profile(dec, a, b) for a in range(dec.order) for b in range(a + 1, dec.order)]
    return [c for pc in certify_pairs(dec, profiles, CFG) for c in pc.certificates]


def _counting_oracle(monkeypatch):
    """Record every time the oracle computes, as (matrix digest, tau), through
    matrix_exp_oracle and, for each time of a stack, _oracle_stack."""
    keys = []
    single, stack = walks_mod.matrix_exp_oracle, walks_mod._oracle_stack

    def counting_single(a, t):
        keys.append((hashlib.blake2b(a.tobytes()).hexdigest(), t))
        return single(a, t)

    def counting_stack(m, times):
        digest = hashlib.blake2b(m.tobytes()).hexdigest()
        keys.extend((digest, t) for t in times.tolist())
        return stack(m, times)

    monkeypatch.setattr(walks_mod, "matrix_exp_oracle", counting_single)
    monkeypatch.setattr(walks_mod, "_oracle_stack", counting_stack)
    return keys


def _tampered_c6(good):
    """good's eigenbasis with a matrix the oracle walks as a different graph."""
    return SpectralDecomposition(
        matrix=G.cycle(6).weights * 1.001,
        eigenvalues=good.eigenvalues,
        vectors=good.vectors,
        multiplicities=good.multiplicities,
        group_tolerance=good.group_tolerance,
        ambiguous_clustering=False,
        nonnegative=True,
        norm=2.002,  # two weights of 1.001 a row
    )


class TestHealthGate:
    def test_mismatched_matrix_voids_certificate(self):
        good = decompose(G.cycle(6))
        tampered = _tampered_c6(good)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cert = detect_at(tampered, 0, 2 * math.pi / 3, CFG)
        assert cert is None
        assert any(issubclass(w.category, NumericalHealthWarning) for w in caught)


def _scalar_detect(dec, a, tau, cfg=CFG, method="grid_scan"):
    """detect_at as it was before the block judgement, one column at a time:
    the reference that _judge, _gate and _certificate equal bit for bit."""
    col = transition_column(dec, a, tau)
    alpha = complex(col[a])
    off = np.abs(col) ** 2
    off[a] = 0.0
    hits = np.nonzero(np.sqrt(off) > cfg.beta_min)[0]
    if len(hits) > 1:
        return None
    b, beta = (int(hits[0]), complex(col[hits[0]])) if len(hits) else (a, 0j)
    diff = col.copy()
    diff[a] -= alpha
    diff[b] -= beta
    residual = float(np.linalg.norm(diff))
    if residual > cfg.tol_walk or (b == a and abs(abs(alpha) - 1.0) > cfg.tol_walk):
        return None
    if float(np.abs(col - matrix_exp_oracle(dec.matrix, tau)[:, a]).max()) > cfg.tol_walk:
        return None
    gz = walks_mod._gamma_zeta(alpha, beta, cfg.tol_walk)
    gamma, zeta = gz if gz is not None else (None, None)
    kind = walks_mod._kind_of(alpha, beta, cfg)
    return FrCertificate(a, b, float(tau), alpha, beta, gamma, zeta, kind, residual, method)


def _grid_reference(dec, prof, tau_step, cfg, detect=detect_at):
    """certify_pair's walk as one pair's own loop over its grid."""
    if tau_step is not None:
        taus = [k * tau_step for k in range(1, walks_mod.CERTIFY_GRID_K + 1)]
    else:
        theta = dec.eigenvalues
        gap = abs(float(theta[min(prof.phi_plus)] - theta[min(prof.phi_minus)]))
        taus = [math.pi / (2 * gap), math.pi / gap, 2 * math.pi / gap]
    certs = []
    for tau in taus:
        if tau * dec.norm > walks_mod.MAX_PHASE:
            break
        cert = detect(dec, prof.a, tau, cfg, method="equiv_cond_solve")
        if cert is None or (cert.kind != KIND_PERIODIC and cert.b != prof.b):
            continue
        certs.append(cert)
        if cert.kind == KIND_PERIODIC:
            break
    return certs


def _scan_reference(dec, sources, b, cfg, detect=detect_at):
    """scan_fr as a loop over one source at a time, each over its own times."""
    partners = parallel_pairs(dec, (cfg.tol_walk / cfg.beta_min) ** 2, sources)
    certs = []
    for a, row in zip(sources, partners):
        par = np.flatnonzero(row)
        if b is not None:
            par = par[par == b]
        times = sorted((tau, p) for p in par.tolist() for tau in walks_mod._revival_times(dec, a, p, cfg))
        found = 0
        for tau, p in times:
            if found == walks_mod._SCAN_MAX_EVENTS:
                break
            cert = detect(dec, a, tau, cfg)
            if cert is not None and cert.kind != KIND_PERIODIC and cert.b == p:
                certs.append(cert)
                found += 1
    return certs


#: graphs whose columns concentrate on the lattice times of their pairs
_BLOCK_SPECS = ("cycle:6", "cycle:8", "path:3", "path:4", "cube:3", "cocktail:4", "cone2:cycle:5", "prod(path:3,path:2)")


@functools.cache
def _block_steps(spec):
    """The lattice steps of spec's strongly cospectral pairs, and a quarter
    and an eighth turn, where columns spread."""
    dec = decompose(parse_graph_spec(spec))
    steps = {pc.tau_step for pc in certify_pairs(dec, pair_profiles(dec, strongly_cospectral_candidates(dec)), CFG)}
    return sorted(x for x in steps | {math.pi / 2, math.pi / 4} if x is not None)


@st.composite
def _judged_blocks(draw):
    """A graph, and a block of (source, time): one source for all times or
    one each, times on its lattices (multiples up to 8) or anywhere in
    (0, 20], in any order and possibly repeated."""
    spec = draw(st.sampled_from(_BLOCK_SPECS))
    n = parse_graph_spec(spec).order
    lattice = st.builds(lambda k, step: k * step, st.integers(1, 8), st.sampled_from(_block_steps(spec)))
    taus = draw(st.lists(st.one_of(lattice, st.floats(0.01, 20.0)), min_size=1, max_size=12))
    vertex = st.integers(0, n - 1)
    each = st.lists(vertex, min_size=len(taus), max_size=len(taus))
    sources = draw(st.one_of(vertex.map(lambda a: [a] * len(taus)), each))
    return spec, sources, taus


def _block_detect(dec, sources, taus, cfg=CFG):
    """detect_at of each (source, time) judged as one block: _judge once,
    then the oracle and _gate time by time, over all the rows at that time."""
    rows, cols = walks_mod._judge(dec, sources, taus, cfg)
    out = [None] * len(taus)
    for tau in sorted(set(taus)):
        at = [k for k, t in enumerate(taus) if t == tau and rows[k] is not None]
        if not at:
            continue
        exps = walks_mod._oracle_exps(dec, [tau]) * len(at)
        for k, diff in zip(at, walks_mod._gate([sources[k] for k in at], exps, cols[at])):
            if diff <= cfg.tol_walk:
                out[k] = walks_mod._certificate(sources[k], tau, rows[k], cfg, "grid_scan")
    return out


class TestBlockJudgement:
    """A block of times, or of (source, time) pairs, judged at once equals
    detect_at one column at a time, as it was before blocks, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(_judged_blocks())
    def test_block_equals_the_scalar_detection(self, block):
        spec, sources, taus = block
        dec = decompose(parse_graph_spec(spec))
        want = [repr(_scalar_detect(dec, a, tau)) for a, tau in zip(sources, taus)]
        assert [repr(c) for c in _block_detect(dec, sources, taus)] == want
        assert [repr(detect_at(dec, a, tau, CFG)) for a, tau in zip(sources, taus)] == want

    def test_ambiguous_column_inside_a_block(self):
        # cube:3 from 0: a flat row at pi/4, transfer at pi/2, periodic at pi
        dec = decompose(G.hypercube(3))
        taus = [math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
        got = _block_detect(dec, [0] * 4, taus)
        assert got[0] is None and got[2] is None
        assert [c.kind for c in got[1::2]] == [KIND_PST, KIND_PERIODIC]
        assert [repr(c) for c in got] == [repr(_scalar_detect(dec, 0, tau)) for tau in taus]

    @pytest.mark.parametrize(
        "spec",
        ["cycle:6", "cube:4", "cube:5", "cocktail:20", "cone2:cocktail:10", "prod(star:16,path:2)", "path:4", "cone2:cycle:5"],
    )
    def test_walks_equal_the_scalar_detection(self, spec):
        # every pair's grid, whose runs of 2, 4, 8, ... times straddle its
        # first periodic time, and every source's scan, in merged blocks
        g = parse_graph_spec(spec)
        dec = decompose(g)
        profiles = [p for p in pair_profiles(dec, strongly_cospectral_candidates(dec)) if p.strongly_cospectral]
        fresh = decompose(g)
        for prof, pc in zip(profiles, certify_pairs(dec, profiles, CFG)):
            want = _grid_reference(fresh, prof, pc.tau_step, CFG, _scalar_detect)
            assert [repr(c) for c in pc.certificates] == [repr(c) for c in want], (prof.a, prof.b)
        want = _scan_reference(fresh, list(range(g.order)), None, CFG, detect=_scalar_detect)
        assert [repr(c) for c in scan_fr(dec, range(g.order), None, CFG)] == [repr(c) for c in want]

    @pytest.mark.parametrize("spec, per_pair", [("cube:7", 2), ("cycle:6", 6)])
    def test_a_walk_judges_its_runs_up_to_its_end(self, monkeypatch, spec, per_pair):
        # a cube:7 pair turns periodic at its second time, the end of its
        # first run, and forms two columns, as one column at a time does; a
        # cycle:6 pair at its third, inside its second run of 4
        calls = _count_detections(monkeypatch)
        dec = decompose(parse_graph_spec(spec))
        profiles = [p for p in pair_profiles(dec, strongly_cospectral_candidates(dec)) if p.strongly_cospectral]
        certify_pairs(dec, profiles, CFG)
        assert len(calls) == per_pair * len(profiles)


class TestTimeWalk:
    @pytest.mark.parametrize("spec", ["cycle:6", "cube:4", "cocktail:20", "prod(star:16,path:2)", "path:3"])
    def test_pair_walks_on_when_the_oracle_voids_its_periodic_time(self, monkeypatch, spec):
        g = parse_graph_spec(spec)
        dec = decompose(g)
        profiles = [p for p in pair_profiles(dec, strongly_cospectral_candidates(dec)) if p.strongly_cospectral]
        plain = certify_pairs(dec, profiles, CFG)
        bad = next(c.tau for c in plain[0].certificates if c.kind == KIND_PERIODIC)
        stack = walks_mod._oracle_stack

        # the oracle is off by 1e-6 at the first pair's first periodic time,
        # in whichever stack forms it
        def off_stack(m, times):
            u = stack(m, times)
            u[times == bad] += 1e-6
            return u

        monkeypatch.setattr(walks_mod, "_oracle_stack", off_stack)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NumericalHealthWarning)
            got = certify_pairs(decompose(g), profiles, CFG)
            fresh = decompose(g)
            want = [_grid_reference(fresh, prof, pc.tau_step, CFG) for prof, pc in zip(profiles, plain)]
        assert any(issubclass(w.category, NumericalHealthWarning) for w in caught)
        assert [list(pc.certificates) for pc in got] == want
        # the first pair judged past its voided periodic time
        assert bad not in {c.tau for c in got[0].certificates}
        assert max(c.tau for c in got[0].certificates) > bad

    def test_a_walk_past_a_voided_end_forms_no_time_twice(self, monkeypatch):
        # at a stack of 2**16 bytes prod(star:16,path:2) keeps one time in
        # its window and judges up to 7 rows a block, over more times than
        # that; with the oracle off at 3 pi / 4, the sources that ended there
        # walk on to a later time of the same block, one that other sources
        # need too
        monkeypatch.setattr(walks_mod, "_STACK_BYTES", 2**16)
        monkeypatch.setattr(walks_mod, "_SCAN_MAX_EVENTS", 3)
        g = parse_graph_spec("prod(star:16,path:2)")
        plain = scan_fr(decompose(g), range(g.order), None, CFG)
        bad = 3 * math.pi / 4
        assert bad in {c.tau for c in plain}
        keys = _counting_oracle(monkeypatch)
        stack = walks_mod._oracle_stack

        def off_stack(m, times):
            u = stack(m, times)
            u[times == bad] += 1e-6
            return u

        monkeypatch.setattr(walks_mod, "_oracle_stack", off_stack)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NumericalHealthWarning)
            got = scan_fr(decompose(g), range(g.order), None, CFG)
            formed = list(keys)
            want = _scan_reference(decompose(g), list(range(g.order)), None, CFG)
        assert any(issubclass(w.category, NumericalHealthWarning) for w in caught)
        assert got == want
        assert bad not in {c.tau for c in got}
        assert len(formed) == len(set(formed)) == 6

    @pytest.mark.parametrize("spec", ["cone2:cube:4", "prod(star:16,path:2)"])
    def test_blocks_of_one_row_equal_the_reference(self, monkeypatch, spec):
        # at a stack of 256 n bytes a block holds one row, so each walk reads
        # one entry a round; the walks of these graphs run on different
        # lattices, so a walk may hold its entries past a round's horizon
        g = parse_graph_spec(spec)
        monkeypatch.setattr(walks_mod, "_STACK_BYTES", 256 * g.order)
        dec = decompose(g)
        profiles = pair_profiles(dec, strongly_cospectral_candidates(dec))
        got = certify_pairs(dec, profiles, CFG)
        fresh = decompose(g)
        want = [_grid_reference(fresh, prof, pc.tau_step, CFG) for prof, pc in zip(profiles, got)]
        assert all(want)
        assert [list(pc.certificates) for pc in got] == want
        want = _scan_reference(decompose(g), list(range(g.order)), None, CFG)
        assert want
        assert scan_fr(decompose(g), range(g.order), None, CFG) == want

    @pytest.mark.parametrize("cap", [None, 3])
    @pytest.mark.parametrize(
        "spec", ["cube:5", "cocktail:6", "path:4", "cone2:cycle:5", "prod(star:4,path:2)", "cycle:12"]
    )
    def test_merged_scan_equals_the_per_source_walk(self, monkeypatch, spec, cap):
        if cap is not None:
            monkeypatch.setattr(walks_mod, "_SCAN_MAX_EVENTS", cap)
        g = parse_graph_spec(spec)
        dec = decompose(g)
        certify_pairs(dec, pair_profiles(dec, strongly_cospectral_candidates(dec)), CFG)
        want = _scan_reference(decompose(g), list(range(g.order)), None, CFG)
        assert scan_fr(dec, range(g.order), None, CFG) == want
        if cap is None and spec != "cycle:12":
            assert want
        want = _scan_reference(decompose(g), [g.order - 1, 0], 1, CFG)
        assert scan_fr(dec, [g.order - 1, 0], 1, CFG) == want

    @pytest.mark.parametrize("spec", ["cocktail:4", "cube:3", "cycle:6"])
    def test_warnings_come_pair_by_pair_and_source_by_source(self, monkeypatch, spec):
        # an oracle off at every time voids every event, so each pair warns
        # along its whole grid and each source along all its times; the pairs
        # share their times, yet the warnings come as from one walk after
        # another
        g = parse_graph_spec(spec)
        dec = decompose(g)
        profiles = [p for p in pair_profiles(dec, strongly_cospectral_candidates(dec)) if p.strongly_cospectral]
        steps = [pc.tau_step for pc in certify_pairs(dec, profiles, CFG)]
        stack = walks_mod._oracle_stack
        monkeypatch.setattr(walks_mod, "_oracle_stack", lambda m, times: stack(m, times) + 1e-6)

        def messages(run):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", NumericalHealthWarning)
                run()
            assert all(issubclass(w.category, NumericalHealthWarning) for w in caught)
            return [str(w.message) for w in caught]

        got = messages(lambda: certify_pairs(decompose(g), profiles, CFG))
        fresh = decompose(g)
        assert got == messages(lambda: [_grid_reference(fresh, p, s, CFG) for p, s in zip(profiles, steps)])
        assert len({m.rsplit("vertex", 1)[1] for m in got}) > 1
        sources = list(range(g.order))
        got = messages(lambda: scan_fr(decompose(g), sources, None, CFG))
        assert got == messages(lambda: _scan_reference(decompose(g), sources, None, CFG))
        assert len({m.rsplit("vertex", 1)[1] for m in got}) > 1

    @pytest.mark.parametrize("spec", ["cocktail:4", "cube:3", "cycle:6"])
    def test_certify_returns_the_messages_it_does_not_warn(self, monkeypatch, spec):
        # an oracle off at every time: _certify warns nothing, and its
        # messages are those certify_pairs and then scan_fr warn, in order
        g = parse_graph_spec(spec)
        dec = decompose(g)
        profiles = [p for p in pair_profiles(dec, strongly_cospectral_candidates(dec)) if p.strongly_cospectral]
        stack = walks_mod._oracle_stack
        monkeypatch.setattr(walks_mod, "_oracle_stack", lambda m, times: stack(m, times) + 1e-6)
        sources = list(range(g.order))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            certified, scanned, messages = walks_mod._certify(decompose(g), profiles, sources, None, CFG)
        assert not scanned and not any(pc.certificates for pc in certified)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            certify_pairs(decompose(g), profiles, CFG)
            scan_fr(decompose(g), sources, None, CFG)
        assert all(w.category is NumericalHealthWarning for w in caught)
        assert messages == [str(w.message) for w in caught] != []

    def test_scan_at_a_long_horizon_holds_a_chunk_per_source(self, monkeypatch):
        # cube:5 to t_max = 3000: each of the 32 sources has 955 solved times.
        # The walk solves them _REVIVAL_CHUNK at a time as it reads on, and
        # holds a chunk per source, not every (tau, partner) of every source
        # (3 MB as tuples)
        monkeypatch.setattr(walks_mod, "_SCAN_MAX_EVENTS", 3)
        cfg = DetectionConfig(t_max=3000.0)
        scan_fr(decompose(G.cycle(6)), range(6), None, cfg)  # lazy imports and caches
        dec = decompose(G.hypercube(5))
        tracemalloc.start()
        try:
            certs = scan_fr(dec, range(32), None, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert certs == _scan_reference(decompose(G.hypercube(5)), list(range(32)), None, cfg)
        assert peak < 0.4e6, peak


class TestTimeMemo:
    def test_perturbed_matrix_caught_with_memo_warm(self):
        good = decompose(G.cycle(6))
        tau = 2 * math.pi / 3
        assert detect_at(good, 0, tau, CFG) is not None
        tampered = _tampered_c6(good)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cert = detect_at(tampered, 0, tau, CFG)
        assert cert is None
        assert any(issubclass(w.category, NumericalHealthWarning) for w in caught)

    def test_oracle_once_per_distinct_tau(self, monkeypatch):
        keys = _counting_oracle(monkeypatch)
        certs = _all_pair_certificates(decompose(G.hypercube(4)))
        seen = [t for _, t in keys]
        assert len(certs) > len(set(seen))
        assert len(seen) == len(set(seen))
        assert set(seen) == {c.tau for c in certs}

    @pytest.mark.parametrize(
        "spec, scan, times",
        [("cube:7", False, 2), ("cocktail:20", False, 20), ("cube:5", True, 17), ("cocktail:80", False, 64)],
    )
    def test_analysis_computes_each_time_once(self, monkeypatch, spec, scan, times):
        # the grid walks every pair, and the scan every source, by tau
        keys = _counting_oracle(monkeypatch)
        assert run_analysis(parse_graph_spec(spec), CFG, do_scan=scan).certificates
        assert len(keys) == len(set(keys)) == times

    @pytest.mark.parametrize("spec, times", [("cocktail:20", 304), ("cone2:cocktail:10", 161)])
    def test_scanned_analysis_forms_each_time_once(self, monkeypatch, spec, times):
        # the grid and the scan are one walk: a grid time the scan judges
        # again is not formed twice, and the report is the one that certify_pairs,
        # then scan_fr, then cli._distinct give
        g = parse_graph_spec(spec)
        keys = _counting_oracle(monkeypatch)
        report = run_analysis(g, CFG, do_scan=True)
        assert len(keys) == len(set(keys)) == times
        dec = decompose(g)
        profiles = [p for p in pair_profiles(dec, strongly_cospectral_candidates(dec)) if p.strongly_cospectral]
        grid = [c for pc in certify_pairs(dec, profiles, CFG) for c in pc.certificates]
        rows = cli_mod._distinct(cli_mod._rows(grid + scan_fr(dec, range(g.order), None, CFG)))
        assert len(rows) == len(report.certificates) > len(grid)
        assert report.certificates.rows.tolist() == rows.tolist()

    def test_scanned_analysis_warns_walk_by_walk(self, monkeypatch):
        # every certificate of the tampered C6 fails the oracle: the health
        # messages come as certify_pairs' and then scan_fr's would, each in order
        good = decompose(G.cycle(6))
        monkeypatch.setattr(cli_mod, "decompose", lambda graph: _tampered_c6(good))
        report = run_analysis(G.cycle(6), CFG, do_scan=True)
        dec = _tampered_c6(good)
        profiles = pair_profiles(dec, strongly_cospectral_candidates(dec))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grid = certify_pairs(dec, profiles, CFG)
            split = len(caught)
            scanned = scan_fr(dec, range(6), None, CFG)
        assert not scanned and not any(pc.certificates for pc in grid)
        assert 0 < split < len(caught)
        assert report.health_warnings == [str(w.message) for w in caught]

    @pytest.mark.parametrize(
        "spec, grid, scan",
        [("cone2:cocktail:10", 11, 160), ("cone2:cube:4", 4, 80), ("prod(star:16,path:2)", 4, 48), ("cone2:cycle:5", 64, 52)],
    )
    def test_mixed_lattices_compute_each_time_once(self, monkeypatch, spec, grid, scan):
        # the walks of these graphs run on different lattices, so a round's
        # horizon holds back the entries a walk read past the others; one
        # certify_pairs call and one scan over all sources each form every
        # time once
        g = parse_graph_spec(spec)
        dec = decompose(g)
        profiles = pair_profiles(dec, strongly_cospectral_candidates(dec))
        keys = _counting_oracle(monkeypatch)
        assert all(pc.certificates for pc in certify_pairs(dec, profiles, CFG))
        assert len(keys) == len(set(keys)) == grid
        keys.clear()
        assert scan_fr(decompose(g), range(g.order), None, CFG)
        assert len(keys) == len(set(keys)) == scan

    @pytest.mark.parametrize("spec", ["cycle:6", "cube:4", "cocktail:20", "cube:7", "path:5", "cone2:cycle:5"])
    def test_window_holds_one_stack(self, spec):
        # as many times as one stack of _STACK_BYTES holds, at 56 n^2 bytes
        # each: one for cube:7 (n = 128), two for cocktail:20 (n = 40)
        g = parse_graph_spec(spec)
        dec = decompose(g)
        size = max(1, walks_mod._STACK_BYTES // (56 * g.order**2))
        certify_pairs(dec, pair_profiles(dec, strongly_cospectral_candidates(dec)), CFG)
        for _ in range(2):
            window = dec._time_memo.get("oracle", {})
            assert len(window) <= size
            for tau, u in window.items():
                assert not u.flags.writeable
                assert np.array_equal(u, matrix_exp_oracle(g, tau))
            scan_fr(dec, range(g.order), None, CFG)

    @pytest.mark.parametrize("spec", ["cube:5", "path:6", "prod(star:16,path:2)"])
    def test_lattice_once_per_part_pair(self, monkeypatch, spec):
        g = parse_graph_spec(spec)
        pairs = strongly_cospectral_candidates(decompose(g))
        fresh = [_certify(decompose(g), a, b) for a, b in pairs]
        calls = []

        def counting(plus, minus):
            calls.append((plus, minus))
            return lattice_step(plus, minus)

        monkeypatch.setattr(walks_mod, "lattice_step", counting)
        dec = decompose(g)
        assert [_certify(dec, a, b) for a, b in pairs] == fresh
        parts = {(pc.profile.phi_plus, pc.profile.phi_minus) for pc in fresh}
        assert len(calls) == len(parts) < len(pairs)

    def test_scan_solves_each_class_pair_once(self, monkeypatch):
        calls = []

        def counting(plus, minus):
            calls.append((tuple(plus), tuple(minus)))
            return lattice_step(plus, minus)

        monkeypatch.setattr(walks_mod, "lattice_step", counting)
        g = parse_graph_spec("cube:5")
        dec = decompose(g)
        assert scan_fr(dec, range(g.order), None, CFG)
        lattices = dec._time_memo["lattice"]
        assert len(calls) == len(set(calls)) == len(lattices)
        # lattice_step sorts each part, so the order the classes come in
        # leaves every step bit-equal
        theta = dec.eigenvalues
        for (plus, minus), (got, _) in lattices.items():
            assert lattice_step(theta[list(plus)][::-1], theta[list(minus)][::-1]) == got

    def test_memo_entries_read_only(self):
        dec = decompose(G.cycle(6))
        detect_at(dec, 0, 2 * math.pi / 3, CFG)
        scan_fr(dec, [0], None, DetectionConfig(t_max=10.0))
        # the scan keeps only its lattices, immutable tuples, and the oracle
        # window of its last time, read-only
        assert list(dec._time_memo) == ["oracle", "lattice"]
        assert all(type(v) is tuple for v in dec._time_memo["lattice"].values())
        window = dec._time_memo["oracle"]
        assert 0 < len(window) <= walks_mod._STACK_BYTES // (56 * 36)
        for arr in window.values():
            assert not arr.flags.writeable

    def test_memo_holds_no_reference_cycle(self):
        # a memoized NotClassifiable keeps no traceback, whose frames would
        # hold the decomposition in a cycle that only the collector frees
        gc.disable()
        try:
            dec = decompose(G.path(6))
            assert _certify(dec, 0, 5).failure == "ratio condition fails on the plus part: no ratio p/q with q <= 1000000"
            scan_fr(dec, range(6), None, CFG)
            assert any(isinstance(lattice, Exception) for lattice, _ in dec._time_memo["lattice"].values())
            ref = weakref.ref(dec)
            del dec
            assert ref() is None
        finally:
            gc.enable()

    def test_scan_on_warm_decomposition(self):
        small = DetectionConfig(t_max=10.0)
        other = DetectionConfig(t_max=12.0)
        warm = decompose(G.cycle(6))
        for cfg in (small, other, small):
            fresh = scan_fr(decompose(G.cycle(6)), range(6), None, cfg)
            assert scan_fr(warm, range(6), None, cfg) == fresh
            assert "scan" not in warm._time_memo
        assert any(fresh)


class TestDetectionConfig:
    @pytest.mark.parametrize("tol_walk", [1e-6, 1e-5, 10.0])
    def test_tolerance_must_be_below_beta_min(self, tol_walk):
        with pytest.raises(ValueError, match="beta_min"):
            DetectionConfig(tol_walk=tol_walk)

    def test_tolerance_below_beta_min_accepted(self):
        assert DetectionConfig(tol_walk=1e-7).tol_walk == 1e-7


class TestCertificateInvariants:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            FrCertificate(0, 1, 1.0, 0.9, 0.9, None, None, KIND_FR, 0.0, "grid_scan")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FrCertificate(0, 1, 1.0, 1.0, 0.0, None, None, "mystery", 0.0, "grid_scan")

    def test_balanced_property(self):
        cert = FrCertificate(0, 1, 1.0, math.sqrt(0.5), 1j * math.sqrt(0.5), None, None, KIND_BALANCED, 0.0, "grid_scan")
        assert abs(abs(cert.alpha) - abs(cert.beta)) <= 1e-8
