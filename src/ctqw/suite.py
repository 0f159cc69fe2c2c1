"""Built-in reproduction suite: known transport results as pass/fail rows.

Each group checks a family of published desk-scale results (cycles, paths,
weighted three-vertex paths, double cones, product / overlay / rotation
constructions), the certificate-level theorem properties, eigenvalue
classification, and numerical health. The CLI command runs all rows; the
acceptance tests assert them group by group.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ctqw import graphs as G
from ctqw.numtheory import rationalize, ratio_condition
from ctqw.spectral import SpectralDecomposition, decompose, pair_profile, pair_profiles, strongly_cospectral_candidates
from ctqw.walks import (
    KIND_BALANCED,
    KIND_FR,
    KIND_PERIODIC,
    KIND_PST,
    DetectionConfig,
    FrCertificate,
    PairCertification,
    _oracle_exps,
    _oracle_stack,
    _wrap_angle,
    certify_pair,
    certify_pairs,
    check_gamma_consequences,
    check_pst,
    check_symmetry,
    detect_at,
    scan_fr,
    transition_matrix,
    verify_construction_ium,
    verify_construction_union,
    verify_construction_xtheta,
    verify_quotient_transport,
)

#: comparison slack on stated amplitudes (1e-6 relative on O(1) quantities)
AMP_TOL = 1e-6
REL_TOL = 1e-6


@dataclass(frozen=True)
class RowResult:
    group: str
    name: str
    ok: bool
    detail: str = ""


def _row(group: str, name: str, ok: bool, detail: str = "") -> RowResult:
    return RowResult(group, name, bool(ok), detail)


def _close(x, y, tol=AMP_TOL) -> bool:
    return abs(x - y) <= tol


def _rel_close(x, y, tol=REL_TOL) -> bool:
    return abs(x - y) <= tol * max(abs(x), abs(y))


def _first_event(certs, kinds=None):
    return next((c for c in certs if c.kind != KIND_PERIODIC and (kinds is None or c.kind in kinds)), None)


# ---------------------------------------------------------------------------
# strongly cospectral cases shared by the groups
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _shared_decomposition(weights: bytes, order: int) -> SpectralDecomposition:
    return decompose(np.frombuffer(weights).reshape(order, order))


def _decomposition(g: G.WeightedGraph) -> SpectralDecomposition:
    """decompose(g) for a graph that more than one suite group walks, once per
    matrix: the groups of one suite run share the decomposition and its memo
    of oracle exponentials and part lattices (weighted_p3(1.0) is path(3))."""
    return _shared_decomposition(g.weights.tobytes(), g.order)


@functools.lru_cache(maxsize=4)
def _positive_certifications(cfg: DetectionConfig) -> dict[str, tuple[SpectralDecomposition, PairCertification]]:
    """certify_pair on the strongly cospectral cases behind the positive suite
    rows, keyed by graph name; computed once per config, by whichever group
    asks first, on the shared decompositions.
    """
    cases = [
        (G.cycle(6), 0, 3),
        (G.cycle(4), 0, 2),
        (G.path(2), 0, 1),
        (G.path(3), 0, 2),
        (G.path(4), 0, 3),
        (G.cocktail_party(3), 0, 1),
        (G.cocktail_party(4), 0, 1),
        (G.cartesian_product(G.star(16), G.path(2)), 0, 1),
    ]
    out = {}
    for g, a, b in cases:
        dec = _decomposition(g)
        out[g.name] = (dec, certify_pair(dec, pair_profile(dec, a, b), cfg))
    return out


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def cycle_rows(cfg: DetectionConfig) -> list[RowResult]:
    rows = []

    shared = _positive_certifications(cfg)
    dec6, pc = shared["cycle:6"]
    tau6 = 2 * math.pi / 3
    cert = detect_at(dec6, 0, tau6, cfg)
    direct_ok = (
        cert is not None
        and cert.kind == KIND_FR
        and cert.b == 3
        and _close(cert.alpha, -0.5)
        and _close(cert.beta, 1j * math.sqrt(3) / 2)
    )
    grid_cert = _first_event(pc.certificates)
    grid_ok = (
        grid_cert is not None
        and _rel_close(grid_cert.tau, tau6)
        and _close(grid_cert.alpha, -0.5)
        and _close(grid_cert.beta, 1j * math.sqrt(3) / 2)
    )
    rows.append(
        _row(
            "cycles",
            "C6: (-1/2, i sqrt(3)/2)-revival between antipodes at 2pi/3",
            direct_ok and grid_ok,
            f"detect alpha={cert.alpha if cert else None}, grid tau={grid_cert.tau if grid_cert else None}",
        )
    )

    dec4, pc = shared["cycle:4"]
    cert = detect_at(dec4, 0, math.pi / 2, cfg)
    pst = _first_event(pc.certificates, {KIND_PST})
    rows.append(
        _row(
            "cycles",
            "C4: perfect state transfer between antipodes at pi/2",
            cert is not None and cert.kind == KIND_PST and cert.b == 2
            and pst is not None and _rel_close(pst.tau, math.pi / 2),
            f"|beta|={abs(cert.beta) if cert else None}",
        )
    )

    for n in (8, 10, 12, 14, 16):
        dec = decompose(G.cycle(n))
        prof = pair_profile(dec, 0, n // 2)
        if n % 4 == 0:
            # same bipartition class: revival would force periodicity, so the
            # full eigenvalue support of the vertex must satisfy the ratio test
            vals = [float(dec.eigenvalues[r]) for r in sorted(prof.support)]
            rep = ratio_condition(vals)
            route = "periodicity-route ratio on full support"
        else:
            # antipodes in different classes: strong cospectrality holds and
            # the plus part itself must satisfy the ratio test
            vals = [float(dec.eigenvalues[r]) for r in sorted(prof.phi_plus)]
            rep = ratio_condition(vals)
            route = "revival-route ratio on the plus part"
        pc = certify_pair(dec, prof, cfg)
        no_events = _first_event(pc.certificates) is None
        witness_ok = (not rep.holds) and rep.witness is not None
        rows.append(
            _row(
                "cycles",
                f"C{n}: irrationality witness ({route}), no certificate",
                witness_ok and no_events,
                f"witness ratio={rep.witness_ratio!r}, classification failure={pc.failure!r}",
            )
        )
        scans = scan_fr(dec, [0], None, cfg)
        rows.append(
            _row(
                "cycles",
                f"C{n}: scan to t_max={cfg.t_max:g} finds no revival (vertex-transitive, from 0)",
                len(scans) == 0,
                f"found {len(scans)}",
            )
        )
    return rows


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def path_rows(cfg: DetectionConfig) -> list[RowResult]:
    rows = []

    shared = _positive_certifications(cfg)
    dec2, pc = shared["path:2"]
    cert = detect_at(dec2, 0, math.pi / 4, cfg)
    bal = _first_event(pc.certificates, {KIND_BALANCED})
    rows.append(
        _row(
            "paths",
            "P2: balanced revival at pi/4",
            cert is not None and cert.kind == KIND_BALANCED
            and _close(abs(cert.alpha), math.sqrt(0.5)) and _close(abs(cert.beta), math.sqrt(0.5))
            and bal is not None and _rel_close(bal.tau, math.pi / 4),
            f"certify tau={bal.tau if bal else None}",
        )
    )

    dec3, pc = shared["path:3"]
    pst = _first_event(pc.certificates, {KIND_PST})
    rows.append(
        _row(
            "paths",
            "P3: perfect state transfer at pi/sqrt(2)",
            pst is not None and _rel_close(pst.tau, math.pi / math.sqrt(2))
            and check_pst(dec3, 0, 2, math.pi / math.sqrt(2), cfg),
            f"tau={pst.tau if pst else None}",
        )
    )

    tau4 = 2 * math.pi / math.sqrt(5)
    pc = shared["path:4"][1]
    fr = _first_event(pc.certificates, {KIND_FR})
    rows.append(
        _row(
            "paths",
            "P4: (-cos(pi/sqrt5), i sin(pi/sqrt5))-revival at 2pi/sqrt(5)",
            fr is not None and _rel_close(fr.tau, tau4)
            and _close(fr.alpha, -math.cos(math.pi / math.sqrt(5)))
            and _close(fr.beta, 1j * math.sin(math.pi / math.sqrt(5))),
            f"alpha={fr.alpha if fr else None}",
        )
    )

    for n in range(5, 13):
        dec = decompose(G.path(n))
        events = []
        # the screen never drops a pair that pair_profile accepts
        for pc in certify_pairs(dec, pair_profiles(dec, strongly_cospectral_candidates(dec)), cfg):
            events.extend(c for c in pc.certificates if c.kind != KIND_PERIODIC)
        rows.append(_row("paths", f"P{n}: no certificate from any pair", len(events) == 0, f"found {len(events)}"))

    for n in (5, 7, 9):
        dec = decompose(G.path(n))
        w = dec.eigenvalues
        ratio = (w[0] - w[1]) / (w[0] - w[-1])
        rows.append(
            _row(
                "paths",
                f"P{n}: (theta1-theta2)/(theta1-theta{n}) has no bounded denominator",
                rationalize(ratio) is None,
                f"ratio={ratio!r}",
            )
        )
    return rows


# ---------------------------------------------------------------------------
# weighted three-vertex paths
# ---------------------------------------------------------------------------


def weighted_p3(omega: float) -> G.WeightedGraph:
    w = np.array([[0.0, omega, 0.0], [omega, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return G.WeightedGraph(w, ("a", "m", "b"), f"p3w:{omega:g}")


def _p3_closed_form(omega: float) -> np.ndarray:
    s = omega**2 + 1.0
    return np.array(
        [[1 - omega**2, 0, -2 * omega], [0, -s, 0], [-2 * omega, 0, omega**2 - 1]], dtype=complex
    ) / s


def weighted_p3_rows(cfg: DetectionConfig) -> list[RowResult]:
    rows = []
    for omega in (0.5, 1.0, 2.0, math.sqrt(2) - 1):
        dec = _decomposition(weighted_p3(omega))
        tau = math.pi / math.sqrt(omega**2 + 1)
        u = transition_matrix(dec, tau)
        closed = _p3_closed_form(omega)
        dev = float(np.abs(u - closed).max())
        oracle_dev = float(np.abs(u - _oracle_exps(dec, [tau])[0]).max())
        ok = dev <= 1e-9 and oracle_dev <= 1e-9
        detail = f"closed-form dev={dev:.2e}"
        cert = detect_at(dec, 0, tau, cfg)
        if abs(omega - 1.0) < 1e-12:
            ok = ok and cert is not None and cert.kind == KIND_PST and cert.b == 2
            detail += ", transfer"
        elif abs(omega - (math.sqrt(2) - 1)) < 1e-12:
            ok = ok and cert is not None and cert.b == 2 and abs(abs(cert.alpha) - abs(cert.beta)) <= 1e-9
            detail += f", balance gap={abs(abs(cert.alpha)-abs(cert.beta)):.2e}" if cert else ""
        rows.append(_row("weighted-p3", f"P3(omega={omega:.6g}): walk matches closed form at pi/sqrt(w^2+1)", ok, detail))
    return rows


# ---------------------------------------------------------------------------
# double cones
# ---------------------------------------------------------------------------


def _regular_degree(g: G.WeightedGraph) -> int:
    deg = g.weights.sum(axis=1)
    if np.abs(deg - deg[0]).max() > 1e-12:
        raise ValueError("not regular")
    return int(round(deg[0]))


@functools.lru_cache(maxsize=32)
def _cone_transport(family, order: int, cfg: DetectionConfig) -> tuple[G.WeightedGraph, G.EquitablePartition, dict]:
    """Quotient transport between the apexes of the double cone over family(order).

    Computed once per config, so the classification group reuses the
    certification of the cone over C5 that the double-cone group made.
    """
    x = G.double_cone(family(order))
    part = G.coarsest_equitable_refinement(x, [[0], [x.order - 1], list(range(1, x.order - 1))])
    return x, part, verify_quotient_transport(x, part, 0, x.order - 1, cfg)


def double_cone_rows(cfg: DetectionConfig) -> list[RowResult]:
    rows = []
    family = [(G.cycle, 4), (G.cycle, 5), (G.complete, 4), (G.cycle, 6), (G.hypercube, 3), (G.cocktail_party, 3)]
    for make, order in family:
        x, part, transport = _cone_transport(make, order, cfg)
        y = make(order)
        k, n = _regular_degree(y), y.order
        q = G.quotient(x, part)
        target = np.array(
            [[0, math.sqrt(n), 0], [math.sqrt(n), k, math.sqrt(n)], [0, math.sqrt(n), 0]]
        )
        matrix_ok = part.size == 3 and float(np.abs(q.weights - target).max()) <= 1e-12
        tau = 2 * math.pi / math.sqrt(k * k + 8 * n)
        has_fr = any(
            c.kind in (KIND_FR, KIND_BALANCED, KIND_PST) and _rel_close(c.tau, tau)
            for c in transport["quotient_certificates"]
        )
        rows.append(
            _row(
                "double-cones",
                f"cone over {y.name} (k={k}, n={n}): quotient matrix and transport at 2pi/sqrt(k^2+8n)",
                matrix_ok and transport["holds"] and has_fr,
                f"entry dev={transport['max_entry_difference']:.2e}",
            )
        )

    shared = _positive_certifications(cfg)
    pc3 = shared["cocktail:3"][1]
    kinds3 = [c.kind for c in pc3.certificates]
    rows.append(
        _row(
            "double-cones",
            "cocktail_party(3): revival but no perfect transfer between partners",
            any(k in (KIND_FR, KIND_BALANCED) for k in kinds3) and KIND_PST not in kinds3,
            f"kinds={kinds3}",
        )
    )

    pc4 = shared["cocktail:4"][1]
    fr4 = _first_event(pc4.certificates, {KIND_FR, KIND_BALANCED})
    pst4 = _first_event(pc4.certificates, {KIND_PST})
    rows.append(
        _row(
            "double-cones",
            "cocktail_party(4): revival at pi/4 and perfect transfer at pi/2",
            fr4 is not None and _rel_close(fr4.tau, math.pi / 4)
            and pst4 is not None and _rel_close(pst4.tau, math.pi / 2),
            f"fr tau={fr4.tau if fr4 else None}, pst tau={pst4.tau if pst4 else None}",
        )
    )
    return rows


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def construction_rows(cfg: DetectionConfig) -> list[RowResult]:
    rows = []

    pc = _positive_certifications(cfg)["prod(star:16,path:2)"][1]
    bal = _first_event(pc.certificates, {KIND_BALANCED})
    rows.append(
        _row(
            "constructions",
            "star(16) x K2: balanced revival at pi/4",
            bal is not None and _rel_close(bal.tau, math.pi / 4),
            f"tau={bal.tau if bal else None}",
        )
    )

    for d in (1, 2, 3):
        rep = verify_construction_ium(G.star(16), G.hypercube(d), 0, math.pi / 4, cfg)
        rows.append(
            _row(
                "constructions",
                f"star(16) x Q{d}: spread revival among 2^{d} vertices at pi/4",
                rep.get("holds", False),
                f"off-support mass={rep.get('max_off_support_mass', None)}",
            )
        )

    rep = _union_construction(cfg)
    rows.append(
        _row(
            "constructions",
            "doubled Q3 + antipodal matching: revival at pi/4",
            rep.get("holds", False),
            f"amplitude residual={rep.get('amplitude_residual', None)}",
        )
    )

    swap = (2, 3, 0, 1)
    for theta in (0.0, math.pi / 12, math.pi / 8):
        rep = verify_construction_xtheta(G.cycle(4), swap, theta, 0, 2, cfg)
        ok = rep.get("holds", False)
        if ok:
            gamma = rep["transfer_phase"]
            ok = _close(rep["alpha"], gamma * (-1j) * math.sin(2 * theta)) and _close(
                rep["beta"], gamma * (-1j) * math.cos(2 * theta)
            )
        rows.append(
            _row(
                "constructions",
                f"rotation of C4 at theta={theta:.6g}: amplitudes -i(sin 2t, cos 2t) up to transfer phase",
                ok,
                f"phase={rep.get('transfer_phase', None)}, alpha={rep.get('alpha', None)}",
            )
        )
    return rows


# ---------------------------------------------------------------------------
# certificate-level theorem properties
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _union_construction(cfg: DetectionConfig) -> dict:
    """verify_construction_union on doubled Q3 + antipodal matching at pi/4,
    once per config; its certificate is also a theorem-property case."""
    return verify_construction_union(
        G.scale_weights(G.hypercube(3), 2.0), G.antipodal_matching(3), 0, 7, math.pi / 4, cfg
    )


def collect_suite_certificates(cfg: DetectionConfig) -> list[tuple[str, SpectralDecomposition, FrCertificate]]:
    """All certificates the positive suite rows produce, with their decompositions."""
    shared = _positive_certifications(cfg).items()
    found = [(name, dec, cert) for name, (dec, pc) in shared for cert in pc.certificates]

    for omega in (0.5, 2.0, math.sqrt(2) - 1):
        g = weighted_p3(omega)
        dec = _decomposition(g)
        cert = detect_at(dec, 0, math.pi / math.sqrt(omega**2 + 1), cfg)
        if cert is not None:
            found.append((g.name, dec, cert))

    union = _union_construction(cfg)
    if union.get("certificate") is not None:
        found.append(("overlay", union["decomposition"], union["certificate"]))

    return found


def theorem_property_rows(cfg: DetectionConfig) -> list[RowResult]:
    certs = collect_suite_certificates(cfg)
    n_total = len(certs)
    norm_bad = sym_bad = par_bad = cong_bad = gamma_bad = 0
    congruence_checked = gamma_checked = 0
    pgst_pairs_seen: set[tuple] = set()

    for name, dec, cert in certs:
        if abs(abs(cert.alpha) ** 2 + abs(cert.beta) ** 2 - 1.0) > 1e-8:
            norm_bad += 1
        if cert.kind == KIND_PERIODIC:
            continue
        if not check_symmetry(cert, dec, cfg):
            sym_bad += 1
        prof = pair_profile(dec, cert.a, cert.b)
        if not prof.parallel:
            par_bad += 1
        if prof.strongly_cospectral and cert.gamma is not None:
            congruence_checked += 1
            theta = dec.eigenvalues
            for r in sorted(prof.phi_plus):
                if abs(_wrap_angle(cert.tau * (theta[0] - theta[r]))) > 1e-6:
                    cong_bad += 1
                    break
            else:
                for r in sorted(prof.phi_minus):
                    if abs(_wrap_angle(cert.tau * (theta[0] - theta[r]) + 2 * cert.gamma)) > 1e-6:
                        cong_bad += 1
                        break
                else:
                    if abs(_wrap_angle(cert.zeta + cert.tau * theta[0] + cert.gamma)) > 1e-6:
                        cong_bad += 1
            rep = check_gamma_consequences(cert, dec, cfg)
            if rep["verdict"] == "rational":
                gamma_checked += 1
                if not rep["periodic_ok"] or not rep.get("pst_ok", True):
                    gamma_bad += 1
            elif (name, cert.a, cert.b) not in pgst_pairs_seen:
                # approximate transfer is a pair property; scan it once at the
                # fundamental time, where the 2*l*tau horizon is widest
                pgst_pairs_seen.add((name, cert.a, cert.b))
                gamma_checked += 1
                if rep["pgst_max_fidelity"] < 0.99:
                    gamma_bad += 1

    return [
        _row("theorem-properties", f"normalization |a|^2+|b|^2=1 on {n_total} certificates", norm_bad == 0),
        _row("theorem-properties", "reverse revival holds on every two-vertex certificate", sym_bad == 0),
        _row("theorem-properties", "revival endpoints are parallel on every certificate", par_bad == 0),
        _row(
            "theorem-properties",
            f"phase congruences (plus=0, minus=-2 gamma, zeta=-tau theta0-gamma) on {congruence_checked} certificates",
            cong_bad == 0,
        ),
        _row(
            "theorem-properties",
            f"gamma consequences (rational: periodicity / transfer; else fidelity>0.99) on {gamma_checked}",
            gamma_bad == 0,
        ),
    ]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def classification_rows(cfg: DetectionConfig) -> list[RowResult]:
    rows = []

    shared = _positive_certifications(cfg)
    cls4 = shared["path:4"][1].classification
    ok4 = (
        cls4 is not None
        and cls4.kind == "quadratic"
        and (cls4.a_plus, cls4.a_minus, cls4.delta) == (1, -1, 5)
        and sorted(cls4.b_plus) == [-1, 1]
        and sorted(cls4.b_minus) == [-1, 1]
    )
    rows.append(_row("classification", "P4: (a+, a-, delta) = (1, -1, 5) with b in {+-1}", ok4))

    pc6 = shared["cycle:6"][1]
    ok6 = (
        pc6.classification is not None
        and pc6.classification.kind == "all_integer"
        and pc6.tau_step is not None
        and any(abs(k * pc6.tau_step - 2 * math.pi / 3) <= 1e-9 for k in range(1, 9))
    )
    rows.append(_row("classification", "C6: all-integer support, candidate grid contains 2pi/3", ok6))

    cone_c5 = _cone_transport(G.cycle, 5, cfg)[2]
    results = [pc.classification for _, pc in shared.values()] + [cone_c5["source_classification"]]
    residuals = [cls.residual for cls in results if cls is not None]
    worst, classified = max(residuals, default=0.0), len(residuals)
    rows.append(
        _row(
            "classification",
            f"reconstruction error < 1e-7 on {classified} classified supports",
            classified == len(results) and worst < 1e-7,
            f"worst={worst:.2e}",
        )
    )
    return rows


# ---------------------------------------------------------------------------
# numerical health
# ---------------------------------------------------------------------------


def _random_connected_graph(rng: np.random.Generator) -> G.WeightedGraph:
    n = int(rng.integers(4, 25))
    w = np.zeros((n, n))
    order = rng.permutation(n)
    for i in range(1, n):  # random spanning tree keeps it connected
        j = order[int(rng.integers(0, i))]
        w[order[i], j] = w[j, order[i]] = rng.uniform(0.2, 2.0)
    extra = int(rng.integers(0, 2 * n))
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            w[i, j] = w[j, i] = rng.uniform(0.2, 2.0)
    return G.WeightedGraph(w, tuple(str(i) for i in range(n)), f"random:{n}")


def health_rows(cfg: DetectionConfig) -> list[RowResult]:
    rng = np.random.default_rng(20250811)
    worst_walk = 0.0
    worst_proj = 0.0
    for _ in range(50):
        g = _random_connected_graph(rng)
        dec = decompose(g)
        # the ten walks and the ten exponentials, each as one stack, before
        # the projectors are formed; the exponentials go through
        # _oracle_stack, matrix_exp_oracle's stacked route, since the
        # benchmark's tracer reads matrix_exp_oracle's time as one float
        times = rng.uniform(0.0, 10.0, size=10)
        dev = np.abs(transition_matrix(dec, times) - _oracle_stack(g.weights, times)).max()
        worst_walk = max(worst_walk, float(dev))
        # every E_r of a graph of order at most 24, formed once
        projs = np.stack([dec.projector(r) for r in range(dec.n_distinct)])
        worst_proj = max(worst_proj, float(np.abs(projs.sum(axis=0) - np.eye(g.order)).max()))
        recon = np.tensordot(dec.eigenvalues, projs, axes=(0, 0))
        worst_proj = max(worst_proj, float(np.abs(recon - g.weights).max()))
        for r in range(dec.n_distinct):
            prods = projs[r] @ projs[r:]  # E_r E_s for every s >= r, one stacked product
            prods[0] -= projs[r]
            worst_proj = max(worst_proj, float(np.abs(prods).max()))
    return [
        _row(
            "health",
            "spectral walk vs exponential oracle < 1e-9 on 50 random graphs x 10 times",
            worst_walk < 1e-9,
            f"worst={worst_walk:.2e}",
        ),
        _row(
            "health",
            "projector completeness / idempotence / orthogonality / reconstruction < 1e-9",
            worst_proj < 1e-9,
            f"worst={worst_proj:.2e}",
        ),
    ]


_GROUP_FUNCS = {
    "cycles": cycle_rows,
    "paths": path_rows,
    "weighted-p3": weighted_p3_rows,
    "double-cones": double_cone_rows,
    "constructions": construction_rows,
    "theorem-properties": theorem_property_rows,
    "classification": classification_rows,
    "health": health_rows,
}
ALL_GROUPS = tuple(_GROUP_FUNCS)


def run_groups(groups=None, cfg: DetectionConfig = DetectionConfig()) -> list[RowResult]:
    names = list(groups) if groups else list(ALL_GROUPS)
    for name in names:
        if name not in _GROUP_FUNCS:
            raise ValueError(f"unknown suite group {name!r}; available: {', '.join(ALL_GROUPS)}")
    rows: list[RowResult] = []
    for name in names:
        rows.extend(_GROUP_FUNCS[name](cfg))
    return rows
