"""Acceptance matrix: every criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v``
or through the CLI as ``ctqw paper-suite``.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from ctqw import graphs as G
from ctqw import suite
from ctqw import walks as walks_mod
from ctqw.spectral import decompose, pair_profile
from ctqw.suite import (
    classification_rows,
    construction_rows,
    cycle_rows,
    double_cone_rows,
    health_rows,
    path_rows,
    theorem_property_rows,
    weighted_p3_rows,
)
from ctqw.walks import DetectionConfig, certify_pair, detect_at

CFG = DetectionConfig()


def _assert_rows(k, description, rows):
    failures = [r for r in rows if not r.ok]
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {k}: {status} - {description} ({len(rows) - len(failures)}/{len(rows)} rows)")
    for r in failures:
        print(f"    failed: {r.name}: {r.detail}")
    assert not failures


def test_criterion_1_c6_revival():
    dec = decompose(G.cycle(6))
    tau = 2 * math.pi / 3
    cert = detect_at(dec, 0, tau, CFG)
    ok = (
        cert is not None
        and cert.b == 3
        and abs(cert.alpha - (-0.5)) <= 1e-6 * 0.5
        and abs(cert.beta - 1j * math.sqrt(3) / 2) <= 1e-6
        and cert.residual <= 1e-8
    )
    grid = [c for c in certify_pair(dec, pair_profile(dec, 0, 3), CFG).certificates if c.kind != "periodic"]
    ok = ok and grid and abs(grid[0].tau - tau) <= 1e-6 * tau
    status = "PASS" if ok else "FAIL"
    print(f"criterion 1: {status} - C6 revival (-1/2, i sqrt(3)/2) at 2pi/3, cross-validated on the grid")
    assert ok


def test_criterion_2_c4_and_cycle_negatives():
    _assert_rows(2, "C4 transfer at pi/2; C8..C16 witnesses and empty scans", cycle_rows(CFG))


def test_criterion_3_paths():
    _assert_rows(3, "P2/P3/P4 positives; P5..P12 negatives with ratio witnesses", path_rows(CFG))


def test_criterion_4_weighted_p3():
    _assert_rows(4, "weighted P3 closed forms; sqrt(2)-1 balanced; unit weight transfer", weighted_p3_rows(CFG))


def test_criterion_5_double_cones():
    _assert_rows(5, "double-cone quotients, transport, cocktail parties", double_cone_rows(CFG))


def test_criterion_6_constructions():
    _assert_rows(6, "product/overlay/rotation constructions", construction_rows(CFG))


def test_criterion_7_theorem_properties():
    _assert_rows(7, "certificate-level theorem properties", theorem_property_rows(CFG))


def test_criterion_8_numerical_health():
    _assert_rows(8, "oracle agreement and projector residuals on random graphs", health_rows(CFG))


def test_health_catches_a_perturbed_eigenvector(monkeypatch):
    # the largest entry of the first eigenvector moved by 1e-8: it is at least
    # 1/sqrt(24) in size, so (sum_r E_r)_jj moves by at least 4e-9
    real = suite.decompose

    def perturbed(g):
        dec = real(g)
        vectors = dec.vectors.copy()
        vectors[int(np.argmax(np.abs(vectors[:, 0]))), 0] += 1e-8
        return dataclasses.replace(dec, vectors=vectors)

    monkeypatch.setattr(suite, "decompose", perturbed)
    rows = {r.name: r for r in health_rows(CFG)}
    row = rows["projector completeness / idempotence / orthogonality / reconstruction < 1e-9"]
    assert not row.ok
    assert float(row.detail.removeprefix("worst=")) >= 4e-9


@pytest.mark.parametrize("mutation", ["slices reversed", "one entry nudged"])
def test_health_catches_a_broken_oracle_stack(monkeypatch, mutation):
    # each walk is compared with the exponential of its own time: a stack
    # out of the order of its times, or one entry moved by 2e-9, fails
    real = suite._oracle_stack

    def broken(m, times):
        stack = real(m, times)
        if mutation == "slices reversed":
            return stack[::-1]
        stack[3, 0, 0] += 2e-9
        return stack

    monkeypatch.setattr(suite, "_oracle_stack", broken)
    rows = {r.name: r for r in health_rows(CFG)}
    row = rows["spectral walk vs exponential oracle < 1e-9 on 50 random graphs x 10 times"]
    assert not row.ok
    assert float(row.detail.removeprefix("worst=")) >= 2e-9


def test_criterion_9_classification():
    _assert_rows(9, "P4 and C6 classifications; reconstruction residuals", classification_rows(CFG))


def test_double_cone_certified_once_for_both_groups(monkeypatch):
    suite._positive_certifications.cache_clear()
    suite._cone_transport.cache_clear()
    certified = []
    original = walks_mod.certify_pair

    def recording(dec, prof, cfg=CFG):
        certified.append((hashlib.blake2b(dec.matrix.tobytes()).hexdigest(), prof.a, prof.b))
        return original(dec, prof, cfg)

    monkeypatch.setattr(walks_mod, "certify_pair", recording)
    monkeypatch.setattr(suite, "certify_pair", recording)
    try:
        rows = suite.run_groups(["double-cones", "classification"], CFG)
    finally:
        suite._positive_certifications.cache_clear()
        suite._cone_transport.cache_clear()
    assert all(r.ok for r in rows)
    assert certified and len(set(certified)) == len(certified)


def test_suite_computes_each_exponential_once(monkeypatch):
    caches = (suite._shared_decomposition, suite._positive_certifications, suite._union_construction, suite._cone_transport)
    for cache in caches:
        cache.cache_clear()
    kernel = walks_mod._taylor_exp
    keys = []

    # every exponential, of one time or of a stack, goes through the kernel:
    # count each of its times
    def counting(m, ts):
        digest = hashlib.blake2b(m.tobytes()).hexdigest()
        keys.extend((digest, t) for t in ts)
        return kernel(m, ts)

    monkeypatch.setattr(walks_mod, "_taylor_exp", counting)
    try:
        rows = suite.run_groups(None, CFG)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert all(r.ok for r in rows)
    assert len(keys) > 1000
    assert len(keys) == len(set(keys))
