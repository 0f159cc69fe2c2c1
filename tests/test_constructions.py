"""Construction theorems: products, overlays, rotations, quotient transport."""

import math

import numpy as np
import pytest

from ctqw import graphs as G
from ctqw import walks as walks_mod
from ctqw.spectral import decompose, pair_profile
from ctqw.walks import (
    KIND_PERIODIC,
    KIND_PST,
    QUOTIENT_TIMES,
    DetectionConfig,
    certify_pair,
    check_periodic,
    detect_at,
    transition_column,
    verify_construction_ium,
    verify_construction_union,
    verify_construction_xtheta,
    verify_quotient_transport,
)

CFG = DetectionConfig()


class TestPeriodicityTimesMixing:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_star16_times_cube(self, d):
        rep = verify_construction_ium(G.star(16), G.hypercube(d), 0, math.pi / 4, CFG)
        assert rep["applicable"] and rep["holds"]
        assert rep["target_size"] == 2**d
        assert rep["max_off_support_mass"] <= 1e-9

    def test_bunkbed_product_with_k2(self):
        # a periodic vertex with period below pi/2, crossed with an edge
        rep = verify_construction_ium(G.star(16), G.path(2), 0, math.pi / 4, CFG)
        assert rep["holds"]
        prod = G.cartesian_product(G.star(16), G.path(2))
        cert = detect_at(decompose(prod), 0, math.pi / 4, CFG)
        assert cert is not None and cert.b == 1

    def test_wrong_time_not_applicable(self):
        rep = verify_construction_ium(G.star(16), G.hypercube(2), 0, math.pi / 3, CFG)
        assert not rep["applicable"] and not rep["holds"]


class TestUnionOverlay:
    def x_and_matching(self):
        return G.scale_weights(G.hypercube(3), 2.0), G.antipodal_matching(3)

    def test_doubled_cube_plus_matching(self):
        x, y = self.x_and_matching()
        rep = verify_construction_union(x, y, 0, 7, math.pi / 4, CFG)
        assert rep["applicable"] and rep["holds"]
        cert = rep["certificate"]
        assert cert.b == 7
        assert abs(cert.alpha) == pytest.approx(math.sqrt(0.5), abs=1e-9)  # balanced at pi/4

    def test_amplitude_pattern_follows_transfer_phase(self):
        x, y = self.x_and_matching()
        rep = verify_construction_union(x, y, 0, 7, math.pi / 4, CFG)
        gamma = rep["transfer_phase"]
        cert = rep["certificate"]
        assert cert.alpha == pytest.approx(-1j * gamma * math.sin(math.pi / 4), abs=1e-9)
        assert cert.beta == pytest.approx(gamma * math.cos(math.pi / 4), abs=1e-9)

    def test_late_time_flagged(self):
        x, y = self.x_and_matching()
        rep = verify_construction_union(x, y, 0, 7, math.pi / 2 + 0.1, CFG)
        assert not rep["tau_in_range"] and not rep["applicable"]

    def test_commutation_failure_rejected(self):
        x = G.scale_weights(G.hypercube(3), 2.0)
        w = np.zeros((8, 8))
        w[0, 7] = w[7, 0] = 1.0
        w[1, 2] = w[2, 1] = 1.0  # not an automorphism-induced matching
        y = G.WeightedGraph(w, x.labels, "bad-matching")
        rep = verify_construction_union(x, y, 0, 7, math.pi / 4, CFG)
        assert not rep["commute_ok"] and not rep["applicable"]

    def test_non_isolated_edge_rejected(self):
        x = G.scale_weights(G.hypercube(3), 2.0)
        w = G.antipodal_matching(3).weights.copy()
        w[0, 1] = w[1, 0] = 1.0
        y = G.WeightedGraph(w, x.labels, "thick-matching")
        rep = verify_construction_union(x, y, 0, 7, math.pi / 4, CFG)
        assert not rep["isolated_edge_ok"]


class TestRotation:
    SWAP = (2, 3, 0, 1)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 12, math.pi / 8])
    def test_c4_amplitudes(self, theta):
        rep = verify_construction_xtheta(G.cycle(4), self.SWAP, theta, 0, 2, CFG)
        assert rep["applicable"] and rep["holds"]
        gamma = rep["transfer_phase"]
        assert abs(gamma) == pytest.approx(1.0, abs=1e-9)
        assert rep["alpha"] == pytest.approx(gamma * -1j * math.sin(2 * theta), abs=1e-9)
        assert rep["beta"] == pytest.approx(gamma * -1j * math.cos(2 * theta), abs=1e-9)

    def test_theta_zero_is_plain_transfer(self):
        rep = verify_construction_xtheta(G.cycle(4), self.SWAP, 0.0, 0, 2, CFG)
        assert abs(rep["alpha"]) <= 1e-9
        assert abs(abs(rep["beta"]) - 1.0) <= 1e-9
        g = G.x_theta(G.cycle(4), self.SWAP, 0.0)
        cert = detect_at(decompose(g), 0, math.pi / 2, CFG)
        assert cert.kind == KIND_PST and cert.b == 6  # (1, b) sheet index

    def test_theta_pi_8_balanced(self):
        rep = verify_construction_xtheta(G.cycle(4), self.SWAP, math.pi / 8, 0, 2, CFG)
        assert abs(rep["alpha"]) == pytest.approx(math.sqrt(0.5), abs=1e-9)
        assert abs(rep["beta"]) == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_no_transfer_not_applicable(self):
        rep = verify_construction_xtheta(G.cycle(6), (3, 4, 5, 0, 1, 2), 0.2, 0, 3, CFG)
        assert not rep["pst_ok"] and not rep["applicable"]

    def test_signed_rotation_detection_still_works(self):
        g = G.x_theta(G.cycle(4), self.SWAP, math.pi / 12)
        assert g.signed
        dec = decompose(g)
        assert not dec.nonnegative
        cert = detect_at(dec, 0, math.pi / 2, CFG)
        assert cert is not None and cert.b == 6
        # rotated endpoints are parallel but not cospectral: amplitudes lack
        # the e^(i z)(cos g, i sin g) structure, so no angles are reported
        assert cert.gamma is None
        prof = pair_profile(dec, 0, 6)
        assert prof.parallel and not prof.strongly_cospectral
        assert not prof.perron_anchor_valid


class TestQuotientTransport:
    def cone_partition(self, y):
        x = G.double_cone(y)
        part = G.coarsest_equitable_refinement(x, [[0], [x.order - 1], list(range(1, x.order - 1))])
        return x, part

    @pytest.mark.parametrize("y", [G.cycle(4), G.cycle(5), G.complete(4)])
    def test_double_cone(self, y):
        x, part = self.cone_partition(y)
        rep = verify_quotient_transport(x, part, 0, x.order - 1, CFG)
        assert rep["entries_ok"] and rep["correspondence_ok"] and rep["holds"]
        dec_x, dec_q = decompose(x), decompose(G.quotient(x, part))
        b, ib = x.order - 1, part.cell_of(x.order - 1)
        worst = max(
            abs(transition_column(dec_x, 0, t)[b] - transition_column(dec_q, 0, t)[ib]) for t in QUOTIENT_TIMES.tolist()
        )
        assert rep["max_entry_difference"] == worst
        k = int(round(y.weights.sum(axis=1)[0]))
        tau = 2 * math.pi / math.sqrt(k * k + 8 * y.order)
        events = [c for c in rep["quotient_certificates"] if c.kind != KIND_PERIODIC]
        assert events and events[0].tau == pytest.approx(tau, rel=1e-9)

    @pytest.mark.parametrize("shared_taus", [True, False], ids=["shifted", "scaled"])
    def test_perturbed_cone_fails_correspondence(self, monkeypatch, shared_taus):
        # the quotient of cone2(C5) shifted by 0.3 I revives at the cone's
        # times with other phases, so each side reuses the other's
        # certificate and must still compare amplitudes; scaled by 1.001 it
        # revives at other times, where each side detects
        x, part = self.cone_partition(G.cycle(5))
        exact = walks_mod.quotient

        def perturbed(g, p):
            q = exact(g, p)
            w = q.weights + 0.3 * np.eye(q.order) if shared_taus else q.weights * 1.001
            return G.WeightedGraph(w, q.labels, q.name)

        monkeypatch.setattr(walks_mod, "quotient", perturbed)
        rep = verify_quotient_transport(x, part, 0, x.order - 1, CFG)
        taus = [{c.tau for c in rep[k] if c.kind != KIND_PERIODIC} for k in ("quotient_certificates", "source_certificates")]
        assert all(taus) and (taus[0] == taus[1]) == shared_taus
        assert not rep["correspondence_ok"] and not rep["holds"]

    def test_all_singletons_trivial(self):
        g = G.cycle(6)
        part = G.coarsest_equitable_refinement(g, [[v] for v in range(6)])
        rep = verify_quotient_transport(g, part, 0, 3, CFG)
        assert rep["max_entry_difference"] <= 1e-12 and rep["holds"]

    def test_rejects_non_singleton_pins(self):
        g = G.star(5)
        part = G.coarsest_equitable_refinement(g, [[0], list(range(1, 6))])
        with pytest.raises(ValueError):
            verify_quotient_transport(g, part, 0, 3, CFG)


def same_part(g, cert):
    """Whether a bipartite g puts the two endpoints of a revival in one part."""
    assert cert is not None and cert.kind != KIND_PERIODIC
    parts = G.bipartition(g)
    assert parts is not None
    return (cert.a in parts[0]) == (cert.b in parts[0])


def periodic_at_double_time(dec, cert):
    return check_periodic(dec, cert.a, 2 * cert.tau, CFG) and check_periodic(dec, cert.b, 2 * cert.tau, CFG)


class TestBipartiteStructure:
    """On a bipartite graph, revival endpoints in different parts are strongly
    cospectral, and endpoints in one part are periodic at twice the time."""

    def test_c6_different_parts_strongly_cospectral(self):
        g = G.cycle(6)
        dec = decompose(g)
        cert = detect_at(dec, 0, 2 * math.pi / 3, CFG)
        assert not same_part(g, cert)
        assert pair_profile(dec, cert.a, cert.b).strongly_cospectral

    def test_p4_endpoints_different_parts(self):
        g = G.path(4)
        dec = decompose(g)
        cert = detect_at(dec, 0, 2 * math.pi / math.sqrt(5), CFG)
        assert not same_part(g, cert)
        assert pair_profile(dec, cert.a, cert.b).strongly_cospectral

    def test_same_part_periodic_at_double_time(self):
        # P3 transfer joins the two endpoints of the same color class
        g = G.path(3)
        dec = decompose(g)
        cert = detect_at(dec, 0, math.pi / math.sqrt(2), CFG)
        assert same_part(g, cert) and periodic_at_double_time(dec, cert)

    def test_weighted_same_part_revival(self):
        omega = 2.0
        w = np.array([[0.0, omega, 0.0], [omega, 0.0, 1.0], [0.0, 1.0, 0.0]])
        g = G.WeightedGraph(w, ("a", "m", "b"), "p3w:2")
        dec = decompose(g)
        cert = detect_at(dec, 0, math.pi / math.sqrt(omega**2 + 1), CFG)
        assert same_part(g, cert) and periodic_at_double_time(dec, cert)

    def test_odd_cycle_not_applicable(self):
        g = G.cocktail_party(3)
        dec = decompose(g)
        assert certify_pair(dec, pair_profile(dec, 0, 1), CFG).certificates
        assert G.bipartition(g) is None

    def test_every_revival_pair_is_parallel(self):
        # revival forces parallel projections, also off the cospectral case
        cases = []
        dec6 = decompose(G.cycle(6))
        cases.append((dec6, detect_at(dec6, 0, 2 * math.pi / 3, CFG)))
        omega = 0.5
        w = np.array([[0.0, omega, 0.0], [omega, 0.0, 1.0], [0.0, 1.0, 0.0]])
        decw = decompose(G.WeightedGraph(w, ("a", "m", "b"), "p3w"))
        cases.append((decw, detect_at(decw, 0, math.pi / math.sqrt(omega**2 + 1), CFG)))
        for dec, cert in cases:
            assert cert is not None
            assert pair_profile(dec, cert.a, cert.b).parallel
